//! Versioned binary wire codec for all metered traffic.
//!
//! Every byte the cluster simulator charges — MapReduce shuffle records,
//! sparkle RDD spill/broadcast, HDFS blocks, EM checkpoints — is priced by
//! this codec instead of the flat per-field estimates in [`crate::bytes`].
//! The encoding is what a production system would plausibly ship:
//!
//! * **varints** — unsigned LEB128 for all integer fields (lengths, shapes,
//!   counts, keys), so small values cost one byte instead of eight;
//! * **delta encoding** — strictly-ascending index lists (CSR column
//!   indices, packed accumulator column tables) store the first index
//!   absolute and each subsequent one as `varint(gap - 1)`; CSR row
//!   pointers are stored as per-row length deltas;
//! * **raw IEEE bits** — `f64` payloads are the 8 little-endian bytes of
//!   [`f64::to_bits`], so `NaN` payloads, `-0.0` and signalling bit
//!   patterns survive a round trip *bitwise* (the repo's determinism
//!   invariants compare `to_bits`, so the codec must too);
//! * **framing** — self-describing blobs carry the [`WIRE_MAGIC`] tag and a
//!   format version ([`WIRE_VERSION`]); bare record encodings (shuffle
//!   keys/values) omit the frame since the stream context fixes the type.
//!
//! The central contract, enforced by `tests/wire_roundtrip.rs`:
//! `encoded_size() == encode().len()` and `decode(encode(v)) == v` bitwise,
//! for every type that crosses a metered boundary.
//!
//! # The v3 fast path
//!
//! Shuffle-only records may opt into the **v3** encoding
//! ([`Wire::encode_v3_into`], selected per cluster by [`WireCodec`]):
//!
//! * **bitpacked deltas** — an ascending index list stores its first
//!   index absolute, then one byte naming the fixed bit width `w` of the
//!   block's `gap − 1` deltas, then the deltas packed LSB-first at `w`
//!   bits each. A run of consecutive indices has `w = 0` and costs *zero*
//!   stream bytes beyond the header; v2's varints pay a byte per index.
//! * **mode-tagged f64 payloads** — each value slice opens with one mode
//!   byte: `0` raw f64 bits (exact), `2` zigzag varints (exact, chosen
//!   automatically when every value round-trips `f64 → i64 → f64`
//!   *bitwise* — the binary term-presence matrices of the paper's text
//!   corpora encode at ~1 byte per value instead of 8), or `1` f32 bits
//!   (lossy, only under [`WireCodec::V3Quantized`]).
//!
//! Only shuffle traffic may use v3, and only the quantized arm is lossy;
//! checkpoints, DFS blocks and broadcasts always stay exact v2 — the
//! exact/lossy boundary is documented in DESIGN.md §11. Quantization
//! moves the byte meters only: simulated shuffles hand values over
//! in-memory, so the fitted model is bitwise identical across codecs.

use crate::bytes::{ByteSized, SparseUpdate};
use crate::dense::Mat;
use crate::sparse::SparseMat;

/// Magic tag opening every framed wire blob: `b"SPWR"`.
pub const WIRE_MAGIC: [u8; 4] = *b"SPWR";

/// Framed-blob format version of the original (v2-generation) encoding.
pub const WIRE_VERSION: u16 = 1;

/// Framed-blob format version of the bitpacked/quantized encoding. The
/// metering arms are named `v2` (frame version 1, the original codec)
/// and `v3`; frame version 2 is skipped so the arm name and the frame
/// number agree for the new format. v2-generation decoders reject a v3
/// frame with [`WireError::BadVersion`]`(3)` — pinned by the golden
/// fixtures.
pub const WIRE_VERSION_V3: u16 = 3;

/// Decode-side failure. Encoding is infallible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    Truncated,
    /// Structurally invalid input (bad tag, overflow, non-ascending
    /// indices, trailing bytes, …).
    Malformed(&'static str),
    /// Framed blob did not start with [`WIRE_MAGIC`].
    BadMagic,
    /// Framed blob carried an unknown format version.
    BadVersion(u16),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire: input truncated"),
            WireError::Malformed(what) => write!(f, "wire: malformed input: {what}"),
            WireError::BadMagic => write!(f, "wire: bad magic (expected SPWR)"),
            WireError::BadVersion(v) => write!(f, "wire: unsupported format version {v}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Cursor over an encoded byte buffer.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Consumes one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Consumes an unsigned LEB128 varint.
    pub fn uvarint(&mut self) -> Result<u64, WireError> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(WireError::Malformed("varint overflows u64"));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError::Malformed("varint too long"));
            }
        }
    }

    /// Consumes a varint that must fit in `usize`.
    pub fn ulen(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.uvarint()?).map_err(|_| WireError::Malformed("length exceeds usize"))
    }

    /// Consumes 8 raw little-endian bytes as an `f64` bit pattern.
    pub fn f64_bits(&mut self) -> Result<f64, WireError> {
        let b = self.take(8)?;
        Ok(f64::from_bits(u64::from_le_bytes(b.try_into().expect("take(8)"))))
    }

    /// Errors unless every byte has been consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after value"))
        }
    }
}

/// Appends `v` as an unsigned LEB128 varint.
pub fn write_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Encoded length of `v` as a varint, in bytes (1..=10).
pub fn uvarint_len(v: u64) -> u64 {
    // bits 1..=64 → ceil(bits / 7) bytes; v == 0 still takes one byte.
    let bits = 64 - v.leading_zeros().min(63) as u64;
    bits.div_ceil(7).max(1)
}

/// Appends a strictly-ascending `u32` index list, delta-encoded: first
/// index absolute, then `varint(gap - 1)` per subsequent index.
pub fn write_ascending_u32(out: &mut Vec<u8>, indices: &[u32]) {
    let mut prev: Option<u32> = None;
    for &c in indices {
        match prev {
            None => write_uvarint(out, u64::from(c)),
            Some(p) => {
                debug_assert!(c > p, "write_ascending_u32: indices not strictly ascending");
                write_uvarint(out, u64::from(c - p) - 1);
            }
        }
        prev = Some(c);
    }
}

/// Encoded length of [`write_ascending_u32`]'s output.
pub fn ascending_u32_len(indices: &[u32]) -> u64 {
    let mut total = 0;
    let mut prev: Option<u32> = None;
    for &c in indices {
        total += match prev {
            None => uvarint_len(u64::from(c)),
            Some(p) => uvarint_len(u64::from(c - p) - 1),
        };
        prev = Some(c);
    }
    total
}

/// Reads `n` delta-encoded ascending indices, each `< max_exclusive`.
pub fn read_ascending_u32(
    r: &mut WireReader<'_>,
    n: usize,
    max_exclusive: u64,
) -> Result<Vec<u32>, WireError> {
    let mut out = Vec::with_capacity(n.min(r.remaining() + 1));
    let mut prev: Option<u64> = None;
    for _ in 0..n {
        let raw = r.uvarint()?;
        let c = match prev {
            None => raw,
            Some(p) => p
                .checked_add(raw)
                .and_then(|x| x.checked_add(1))
                .ok_or(WireError::Malformed("index delta overflows"))?,
        };
        if c >= max_exclusive || c > u64::from(u32::MAX) {
            return Err(WireError::Malformed("index out of bounds"));
        }
        out.push(c as u32);
        prev = Some(c);
    }
    Ok(out)
}

/// Appends one sparse row record — `varint nnz`, the ascending indices
/// delta-encoded, the raw `f64` values: the per-row record a Spark cache
/// or shuffle file holds.
pub fn write_row_record(out: &mut Vec<u8>, indices: &[u32], values: &[f64]) {
    write_uvarint(out, indices.len() as u64);
    write_ascending_u32(out, indices);
    for &v in values {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Encoded length of [`write_row_record`]'s output.
pub fn row_record_len(indices: &[u32]) -> u64 {
    uvarint_len(indices.len() as u64) + ascending_u32_len(indices) + 8 * indices.len() as u64
}

/// Reads one [`write_row_record`] record.
pub fn read_row_record(r: &mut WireReader<'_>) -> Result<(Vec<u32>, Vec<f64>), WireError> {
    let n = r.ulen()?;
    let indices = read_ascending_u32(r, n, u64::from(u32::MAX) + 1)?;
    let raw = r.take(n.checked_mul(8).ok_or(WireError::Truncated)?)?;
    let values = raw
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("chunks_exact(8)"))))
        .collect();
    Ok((indices, values))
}

// ---------------------------------------------------------------------------
// v3 primitives: fixed-width bitpacked deltas + mode-tagged f64 payloads
// ---------------------------------------------------------------------------

/// Appends a strictly-ascending `u32` index list in the v3 bitpacked
/// layout: `varint(first)`, then — when the list has 2+ entries — one
/// byte holding the block's delta bit width `w = max bits(gap − 1)`,
/// then the `n − 1` deltas packed LSB-first at `w` bits each
/// (`⌈(n−1)·w / 8⌉` bytes; `w = 0` packs consecutive runs into nothing).
pub fn write_bitpacked_u32(out: &mut Vec<u8>, indices: &[u32]) {
    let Some((&first, rest)) = indices.split_first() else { return };
    write_uvarint(out, u64::from(first));
    if rest.is_empty() {
        return;
    }
    let width = bitpacked_delta_width(indices);
    out.push(width as u8);
    if width == 0 {
        return;
    }
    let mut bitbuf: u64 = 0;
    let mut bits = 0u32;
    for w in indices.windows(2) {
        debug_assert!(w[1] > w[0], "write_bitpacked_u32: indices not strictly ascending");
        let gap = u64::from(w[1] - w[0] - 1);
        bitbuf |= gap << bits;
        bits += width;
        while bits >= 8 {
            out.push((bitbuf & 0xff) as u8);
            bitbuf >>= 8;
            bits -= 8;
        }
    }
    if bits > 0 {
        out.push((bitbuf & 0xff) as u8);
    }
}

/// The fixed delta width of a bitpacked block: the bit length of the
/// largest `gap − 1` between adjacent indices (0..=32).
fn bitpacked_delta_width(indices: &[u32]) -> u32 {
    let mut width = 0u32;
    for w in indices.windows(2) {
        let gap = w[1] - w[0] - 1;
        width = width.max(32 - gap.leading_zeros());
    }
    width
}

/// Encoded length of [`write_bitpacked_u32`]'s output.
pub fn bitpacked_u32_len(indices: &[u32]) -> u64 {
    let Some((&first, rest)) = indices.split_first() else { return 0 };
    let mut total = uvarint_len(u64::from(first));
    if !rest.is_empty() {
        let width = u64::from(bitpacked_delta_width(indices));
        total += 1 + (rest.len() as u64 * width).div_ceil(8);
    }
    total
}

/// Reads `n` bitpacked ascending indices, each `< max_exclusive`.
pub fn read_bitpacked_u32(
    r: &mut WireReader<'_>,
    n: usize,
    max_exclusive: u64,
) -> Result<Vec<u32>, WireError> {
    if n == 0 {
        return Ok(Vec::new());
    }
    let first = r.uvarint()?;
    if first >= max_exclusive || first > u64::from(u32::MAX) {
        return Err(WireError::Malformed("index out of bounds"));
    }
    let mut out = Vec::with_capacity(n.min(r.remaining() + 1));
    out.push(first as u32);
    if n == 1 {
        return Ok(out);
    }
    let width = u32::from(r.u8()?);
    if width > 32 {
        return Err(WireError::Malformed("delta bit width exceeds 32"));
    }
    let nbytes = ((n as u64 - 1) * u64::from(width)).div_ceil(8);
    let nbytes = usize::try_from(nbytes).map_err(|_| WireError::Truncated)?;
    let raw = r.take(nbytes)?;
    let mut prev = first;
    let mask = if width == 0 { 0 } else { (1u64 << width) - 1 };
    for i in 0..n - 1 {
        let gap = if width == 0 {
            0
        } else {
            // A delta spans at most 32 + 7 bits, so 8 zero-padded bytes
            // starting at its byte always cover it.
            let bitpos = i * width as usize;
            let byte = bitpos / 8;
            let mut chunk = [0u8; 8];
            let avail = (raw.len() - byte).min(8);
            chunk[..avail].copy_from_slice(&raw[byte..byte + avail]);
            (u64::from_le_bytes(chunk) >> (bitpos % 8)) & mask
        };
        let c = prev
            .checked_add(gap)
            .and_then(|x| x.checked_add(1))
            .ok_or(WireError::Malformed("index delta overflows"))?;
        if c >= max_exclusive || c > u64::from(u32::MAX) {
            return Err(WireError::Malformed("index out of bounds"));
        }
        out.push(c as u32);
        prev = c;
    }
    Ok(out)
}

/// v3 payload mode: raw little-endian `f64` bits — always exact.
const PAYLOAD_RAW: u8 = 0;
/// v3 payload mode: little-endian `f32` bits — lossy, quantized arm only.
const PAYLOAD_F32: u8 = 1;
/// v3 payload mode: zigzag varints — exact, chosen when every value
/// round-trips `f64 → i64 → f64` bitwise.
const PAYLOAD_INT: u8 = 2;

/// `Some(i)` iff `v` is *bitwise* reproduced by `i as f64`. `-0.0`, NaN,
/// infinities and magnitudes at or beyond 2⁶³ all fail the round trip,
/// so the integer payload mode is never lossy.
#[inline]
fn integral_f64(v: f64) -> Option<i64> {
    let i = v as i64;
    if (i as f64).to_bits() == v.to_bits() {
        Some(i)
    } else {
        None
    }
}

#[inline]
fn zigzag(i: i64) -> u64 {
    ((i << 1) ^ (i >> 63)) as u64
}

#[inline]
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Picks the v3 payload mode for a value slice: integral slices take the
/// (exact) zigzag-varint mode, everything else takes raw bits — or f32
/// bits when the quantized arm is on.
fn payload_mode(vals: &[f64], quantize: bool) -> u8 {
    if vals.iter().all(|&v| integral_f64(v).is_some()) {
        PAYLOAD_INT
    } else if quantize {
        PAYLOAD_F32
    } else {
        PAYLOAD_RAW
    }
}

/// Appends a v3 mode-tagged `f64` payload (no length prefix — the
/// caller's framing fixes the count).
pub fn write_f64_slice_v3(out: &mut Vec<u8>, vals: &[f64], quantize: bool) {
    let mode = payload_mode(vals, quantize);
    out.push(mode);
    match mode {
        PAYLOAD_INT => {
            for &v in vals {
                write_uvarint(out, zigzag(integral_f64(v).expect("mode chosen as integral")));
            }
        }
        PAYLOAD_F32 => {
            for &v in vals {
                out.extend_from_slice(&(v as f32).to_bits().to_le_bytes());
            }
        }
        _ => {
            for &v in vals {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    }
}

/// Encoded length of [`write_f64_slice_v3`]'s output.
pub fn f64_slice_v3_len(vals: &[f64], quantize: bool) -> u64 {
    match payload_mode(vals, quantize) {
        PAYLOAD_INT => {
            1 + vals
                .iter()
                .map(|&v| uvarint_len(zigzag(integral_f64(v).expect("integral"))))
                .sum::<u64>()
        }
        PAYLOAD_F32 => 1 + 4 * vals.len() as u64,
        _ => 1 + 8 * vals.len() as u64,
    }
}

/// Reads a v3 mode-tagged payload of `n` values. Raw and integer modes
/// reproduce the encoder's input bitwise; the f32 mode returns the
/// quantized values (widened exactly).
pub fn read_f64_slice_v3(r: &mut WireReader<'_>, n: usize) -> Result<Vec<f64>, WireError> {
    let mode = r.u8()?;
    let mut out = Vec::with_capacity(n.min(r.remaining() + 1));
    match mode {
        PAYLOAD_INT => {
            for _ in 0..n {
                out.push(unzigzag(r.uvarint()?) as f64);
            }
        }
        PAYLOAD_F32 => {
            let raw = r.take(n.checked_mul(4).ok_or(WireError::Truncated)?)?;
            out.extend(raw.chunks_exact(4).map(|c| {
                f64::from(f32::from_bits(u32::from_le_bytes(c.try_into().expect("chunks(4)"))))
            }));
        }
        PAYLOAD_RAW => {
            let raw = r.take(n.checked_mul(8).ok_or(WireError::Truncated)?)?;
            out.extend(raw.chunks_exact(8).map(|c| {
                f64::from_bits(u64::from_le_bytes(c.try_into().expect("chunks(8)")))
            }));
        }
        _ => return Err(WireError::Malformed("unknown v3 payload mode")),
    }
    Ok(out)
}

/// A value with a real binary encoding.
///
/// Everything metered by the cluster simulator implements this; the meters
/// charge [`Wire::encoded_size`], which must equal `encode().len()` exactly
/// (property-tested), and [`Wire::decode`] must reproduce the input
/// bitwise. [`ByteSized`] remains as the legacy flat estimate, selectable
/// per cluster via [`Sizing::Estimated`] for differential testing.
pub trait Wire: ByteSized + Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Exact length of [`Wire::encode`]'s output, without materializing it.
    fn encoded_size(&self) -> u64;

    /// Decodes one value from the reader, leaving the cursor after it.
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Encodes `self` into a fresh buffer.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_size() as usize);
        self.encode_into(&mut out);
        debug_assert_eq!(out.len() as u64, self.encoded_size(), "encoded_size out of sync");
        out
    }

    /// Decodes a value occupying the whole buffer.
    fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let v = Self::decode_from(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    // --- v3 fast path -----------------------------------------------------

    /// Appends the v3 encoding (bitpacked deltas, mode-tagged payloads).
    /// `quantize` allows the lossy f32 payload mode; `false` keeps v3
    /// fully exact. The default falls back to the v2 layout — correct
    /// for scalar/integer types whose two layouts coincide; types with
    /// f64 payloads or index lists override it.
    fn encode_v3_into(&self, out: &mut Vec<u8>, quantize: bool) {
        let _ = quantize;
        self.encode_into(out);
    }

    /// Exact length of [`Wire::encode_v3`]'s output — what the byte
    /// meters charge under [`WireCodec::V3`]/[`WireCodec::V3Quantized`].
    fn encoded_size_v3(&self, quantize: bool) -> u64 {
        let _ = quantize;
        self.encoded_size()
    }

    /// Decodes one v3-encoded value. Self-describing: the payload mode
    /// bytes tell the decoder whether the encoder quantized, so no flag
    /// is needed here.
    fn decode_v3_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Self::decode_from(r)
    }

    /// Encodes `self` with the v3 layout into a fresh buffer.
    fn encode_v3(&self, quantize: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_size_v3(quantize) as usize);
        self.encode_v3_into(&mut out, quantize);
        debug_assert_eq!(
            out.len() as u64,
            self.encoded_size_v3(quantize),
            "encoded_size_v3 out of sync"
        );
        out
    }

    /// Decodes a v3 value occupying the whole buffer.
    fn decode_v3(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let v = Self::decode_v3_from(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// Poor-man's specialization hook: `true` only for `f64`, so generic
    /// containers (`Vec<T>`) can batch a whole `f64` slice through one
    /// mode-tagged payload instead of tagging every element.
    #[doc(hidden)]
    const IS_F64: bool = false;

    /// The value as an `f64`; only called when [`Wire::IS_F64`] is true.
    #[doc(hidden)]
    fn f64_value(&self) -> f64 {
        unreachable!("f64_value on a non-f64 Wire type")
    }

    /// Rebuilds the value from an `f64`; only called when
    /// [`Wire::IS_F64`] is true.
    #[doc(hidden)]
    fn from_f64_value(v: f64) -> Option<Self> {
        let _ = v;
        None
    }
}

impl Wire for f64 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn encoded_size(&self) -> u64 {
        8
    }
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.f64_bits()
    }
    // v3: a scalar is a length-1 payload (the mode byte pays for itself
    // on the integral shuffle values the text datasets produce).
    fn encode_v3_into(&self, out: &mut Vec<u8>, quantize: bool) {
        write_f64_slice_v3(out, std::slice::from_ref(self), quantize);
    }
    fn encoded_size_v3(&self, quantize: bool) -> u64 {
        f64_slice_v3_len(std::slice::from_ref(self), quantize)
    }
    fn decode_v3_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let v = read_f64_slice_v3(r, 1)?;
        Ok(v[0])
    }
    const IS_F64: bool = true;
    fn f64_value(&self) -> f64 {
        *self
    }
    fn from_f64_value(v: f64) -> Option<Self> {
        Some(v)
    }
}

impl Wire for u64 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        write_uvarint(out, *self);
    }
    fn encoded_size(&self) -> u64 {
        uvarint_len(*self)
    }
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.uvarint()
    }
}

impl Wire for u32 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        write_uvarint(out, u64::from(*self));
    }
    fn encoded_size(&self) -> u64 {
        uvarint_len(u64::from(*self))
    }
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        u32::try_from(r.uvarint()?).map_err(|_| WireError::Malformed("u32 overflow"))
    }
}

impl Wire for usize {
    fn encode_into(&self, out: &mut Vec<u8>) {
        write_uvarint(out, *self as u64);
    }
    fn encoded_size(&self) -> u64 {
        uvarint_len(*self as u64)
    }
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.ulen()
    }
}

impl Wire for () {
    fn encode_into(&self, _out: &mut Vec<u8>) {}
    fn encoded_size(&self) -> u64 {
        0
    }
    fn decode_from(_r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
    }
    fn encoded_size(&self) -> u64 {
        self.0.encoded_size() + self.1.encoded_size()
    }
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode_from(r)?, B::decode_from(r)?))
    }
    fn encode_v3_into(&self, out: &mut Vec<u8>, quantize: bool) {
        self.0.encode_v3_into(out, quantize);
        self.1.encode_v3_into(out, quantize);
    }
    fn encoded_size_v3(&self, quantize: bool) -> u64 {
        self.0.encoded_size_v3(quantize) + self.1.encoded_size_v3(quantize)
    }
    fn decode_v3_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode_v3_from(r)?, B::decode_v3_from(r)?))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        write_uvarint(out, self.len() as u64);
        for v in self {
            v.encode_into(out);
        }
    }
    fn encoded_size(&self) -> u64 {
        uvarint_len(self.len() as u64) + self.iter().map(Wire::encoded_size).sum::<u64>()
    }
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.ulen()?;
        let mut out = Vec::with_capacity(n.min(r.remaining() + 1));
        for _ in 0..n {
            out.push(T::decode_from(r)?);
        }
        Ok(out)
    }
    // v3: an f64 vector is one batched payload under a single mode byte
    // (the `IS_F64` hook stands in for specialization); other element
    // types forward element-wise so nested payloads still compress.
    fn encode_v3_into(&self, out: &mut Vec<u8>, quantize: bool) {
        write_uvarint(out, self.len() as u64);
        if T::IS_F64 {
            let vals: Vec<f64> = self.iter().map(Wire::f64_value).collect();
            write_f64_slice_v3(out, &vals, quantize);
        } else {
            for v in self {
                v.encode_v3_into(out, quantize);
            }
        }
    }
    fn encoded_size_v3(&self, quantize: bool) -> u64 {
        let header = uvarint_len(self.len() as u64);
        if T::IS_F64 {
            let vals: Vec<f64> = self.iter().map(Wire::f64_value).collect();
            header + f64_slice_v3_len(&vals, quantize)
        } else {
            header + self.iter().map(|v| v.encoded_size_v3(quantize)).sum::<u64>()
        }
    }
    fn decode_v3_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.ulen()?;
        if T::IS_F64 {
            let vals = read_f64_slice_v3(r, n)?;
            return Ok(vals
                .into_iter()
                .map(|v| T::from_f64_value(v).expect("IS_F64 implies from_f64_value"))
                .collect());
        }
        let mut out = Vec::with_capacity(n.min(r.remaining() + 1));
        for _ in 0..n {
            out.push(T::decode_v3_from(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_into(out);
            }
        }
    }
    fn encoded_size(&self) -> u64 {
        1 + self.as_ref().map_or(0, Wire::encoded_size)
    }
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_from(r)?)),
            _ => Err(WireError::Malformed("Option tag must be 0 or 1")),
        }
    }
    fn encode_v3_into(&self, out: &mut Vec<u8>, quantize: bool) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_v3_into(out, quantize);
            }
        }
    }
    fn encoded_size_v3(&self, quantize: bool) -> u64 {
        1 + self.as_ref().map_or(0, |v| v.encoded_size_v3(quantize))
    }
    fn decode_v3_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_v3_from(r)?)),
            _ => Err(WireError::Malformed("Option tag must be 0 or 1")),
        }
    }
}

/// Dense block: `varint rows, varint cols`, then `rows·cols` raw f64 bits
/// in row-major order.
impl Wire for Mat {
    fn encode_into(&self, out: &mut Vec<u8>) {
        write_uvarint(out, self.rows() as u64);
        write_uvarint(out, self.cols() as u64);
        for &v in self.data() {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    fn encoded_size(&self) -> u64 {
        uvarint_len(self.rows() as u64)
            + uvarint_len(self.cols() as u64)
            + 8 * self.data().len() as u64
    }
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let rows = r.ulen()?;
        let cols = r.ulen()?;
        let n = rows.checked_mul(cols).ok_or(WireError::Malformed("Mat shape overflows"))?;
        let raw = r.take(n.checked_mul(8).ok_or(WireError::Malformed("Mat payload overflows"))?)?;
        let data = raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("chunks_exact(8)"))))
            .collect();
        Ok(Mat::from_vec(rows, cols, data))
    }
    fn encode_v3_into(&self, out: &mut Vec<u8>, quantize: bool) {
        write_uvarint(out, self.rows() as u64);
        write_uvarint(out, self.cols() as u64);
        write_f64_slice_v3(out, self.data(), quantize);
    }
    fn encoded_size_v3(&self, quantize: bool) -> u64 {
        uvarint_len(self.rows() as u64)
            + uvarint_len(self.cols() as u64)
            + f64_slice_v3_len(self.data(), quantize)
    }
    fn decode_v3_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let rows = r.ulen()?;
        let cols = r.ulen()?;
        let n = rows.checked_mul(cols).ok_or(WireError::Malformed("Mat shape overflows"))?;
        let data = read_f64_slice_v3(r, n)?;
        Ok(Mat::from_vec(rows, cols, data))
    }
}

/// CSR slice: `varint rows, varint cols, varint nnz`, then per row a
/// `varint` length (the row-pointer delta) followed by its delta-encoded
/// ascending column indices, then all `nnz` values as raw f64 bits.
impl Wire for SparseMat {
    fn encode_into(&self, out: &mut Vec<u8>) {
        write_uvarint(out, self.rows() as u64);
        write_uvarint(out, self.cols() as u64);
        write_uvarint(out, self.nnz() as u64);
        for row in 0..self.rows() {
            let r = self.row(row);
            write_uvarint(out, r.indices.len() as u64);
            write_ascending_u32(out, r.indices);
        }
        for row in 0..self.rows() {
            for &v in self.row(row).values {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    }
    fn encoded_size(&self) -> u64 {
        let mut total = uvarint_len(self.rows() as u64)
            + uvarint_len(self.cols() as u64)
            + uvarint_len(self.nnz() as u64)
            + 8 * self.nnz() as u64;
        for row in 0..self.rows() {
            let r = self.row(row);
            total += uvarint_len(r.indices.len() as u64) + ascending_u32_len(r.indices);
        }
        total
    }
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let rows = r.ulen()?;
        let cols = r.ulen()?;
        let nnz = r.ulen()?;
        let mut indptr = Vec::with_capacity(rows.min(r.remaining()) + 1);
        indptr.push(0usize);
        let mut indices = Vec::with_capacity(nnz.min(r.remaining()));
        for _ in 0..rows {
            let len = r.ulen()?;
            let total =
                indptr.last().expect("non-empty").checked_add(len).ok_or(WireError::Truncated)?;
            if total > nnz {
                return Err(WireError::Malformed("row lengths exceed declared nnz"));
            }
            indices.extend(read_ascending_u32(r, len, cols as u64)?);
            indptr.push(total);
        }
        if *indptr.last().expect("non-empty") != nnz {
            return Err(WireError::Malformed("row lengths disagree with declared nnz"));
        }
        let raw = r.take(nnz.checked_mul(8).ok_or(WireError::Truncated)?)?;
        let values = raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("chunks_exact(8)"))))
            .collect();
        Ok(SparseMat::from_raw_parts(rows, cols, indptr, indices, values))
    }
    // v3: per-row *bitpacked* index blocks (the fixed width is chosen per
    // row, so a dense text row packs its gaps into 0-3 bits each) and one
    // mode-tagged payload over all nnz values.
    fn encode_v3_into(&self, out: &mut Vec<u8>, quantize: bool) {
        write_uvarint(out, self.rows() as u64);
        write_uvarint(out, self.cols() as u64);
        write_uvarint(out, self.nnz() as u64);
        for row in 0..self.rows() {
            let r = self.row(row);
            write_uvarint(out, r.indices.len() as u64);
            write_bitpacked_u32(out, r.indices);
        }
        write_f64_slice_v3(out, self.values(), quantize);
    }
    fn encoded_size_v3(&self, quantize: bool) -> u64 {
        let mut total = uvarint_len(self.rows() as u64)
            + uvarint_len(self.cols() as u64)
            + uvarint_len(self.nnz() as u64)
            + f64_slice_v3_len(self.values(), quantize);
        for row in 0..self.rows() {
            let r = self.row(row);
            total += uvarint_len(r.indices.len() as u64) + bitpacked_u32_len(r.indices);
        }
        total
    }
    fn decode_v3_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let rows = r.ulen()?;
        let cols = r.ulen()?;
        let nnz = r.ulen()?;
        let mut indptr = Vec::with_capacity(rows.min(r.remaining()) + 1);
        indptr.push(0usize);
        let mut indices = Vec::with_capacity(nnz.min(r.remaining()));
        for _ in 0..rows {
            let len = r.ulen()?;
            let total =
                indptr.last().expect("non-empty").checked_add(len).ok_or(WireError::Truncated)?;
            if total > nnz {
                return Err(WireError::Malformed("row lengths exceed declared nnz"));
            }
            indices.extend(read_bitpacked_u32(r, len, cols as u64)?);
            indptr.push(total);
        }
        if *indptr.last().expect("non-empty") != nnz {
            return Err(WireError::Malformed("row lengths disagree with declared nnz"));
        }
        let values = read_f64_slice_v3(r, nnz)?;
        Ok(SparseMat::from_raw_parts(rows, cols, indptr, indices, values))
    }
}

/// Sparse-triple shuffle record: `varint entry count`, then per entry a
/// `varint` row index, `varint` payload length and raw f64 bits.
impl Wire for SparseUpdate {
    fn encode_into(&self, out: &mut Vec<u8>) {
        write_uvarint(out, self.entries.len() as u64);
        for (idx, row) in &self.entries {
            write_uvarint(out, u64::from(*idx));
            write_uvarint(out, row.len() as u64);
            for &v in row {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    }
    fn encoded_size(&self) -> u64 {
        uvarint_len(self.entries.len() as u64)
            + self
                .entries
                .iter()
                .map(|(idx, row)| {
                    uvarint_len(u64::from(*idx))
                        + uvarint_len(row.len() as u64)
                        + 8 * row.len() as u64
                })
                .sum::<u64>()
    }
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.ulen()?;
        let mut entries = Vec::with_capacity(n.min(r.remaining() + 1));
        for _ in 0..n {
            let idx = u32::decode_from(r)?;
            let len = r.ulen()?;
            let raw = r.take(len.checked_mul(8).ok_or(WireError::Truncated)?)?;
            let row = raw
                .chunks_exact(8)
                .map(|c| {
                    f64::from_bits(u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
                })
                .collect();
            entries.push((idx, row));
        }
        Ok(SparseUpdate { entries })
    }
    fn encode_v3_into(&self, out: &mut Vec<u8>, quantize: bool) {
        write_uvarint(out, self.entries.len() as u64);
        for (idx, row) in &self.entries {
            write_uvarint(out, u64::from(*idx));
            write_uvarint(out, row.len() as u64);
            write_f64_slice_v3(out, row, quantize);
        }
    }
    fn encoded_size_v3(&self, quantize: bool) -> u64 {
        uvarint_len(self.entries.len() as u64)
            + self
                .entries
                .iter()
                .map(|(idx, row)| {
                    uvarint_len(u64::from(*idx))
                        + uvarint_len(row.len() as u64)
                        + f64_slice_v3_len(row, quantize)
                })
                .sum::<u64>()
    }
    fn decode_v3_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.ulen()?;
        let mut entries = Vec::with_capacity(n.min(r.remaining() + 1));
        for _ in 0..n {
            let idx = u32::decode_from(r)?;
            let len = r.ulen()?;
            entries.push((idx, read_f64_slice_v3(r, len)?));
        }
        Ok(SparseUpdate { entries })
    }
}

/// Frame overhead in bytes: 4-byte magic + 2-byte little-endian version.
pub const FRAME_OVERHEAD: u64 = 6;

/// Encodes `v` as a self-describing framed blob: magic + version + payload.
pub fn encode_framed<T: Wire>(v: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity((FRAME_OVERHEAD + v.encoded_size()) as usize);
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    v.encode_into(&mut out);
    out
}

/// Exact length of [`encode_framed`]'s output.
pub fn framed_size<T: Wire>(v: &T) -> u64 {
    FRAME_OVERHEAD + v.encoded_size()
}

/// Decodes a framed blob, validating magic and version.
pub fn decode_framed<T: Wire>(buf: &[u8]) -> Result<T, WireError> {
    let mut r = WireReader::new(buf);
    if r.take(4)? != WIRE_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::from_le_bytes(r.take(2)?.try_into().expect("take(2)"));
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let v = T::decode_from(&mut r)?;
    r.finish()?;
    Ok(v)
}

/// Encodes `v` as a framed v3 blob: magic + version 3 + bitpacked payload.
///
/// `quantize` selects the lossy `f64`→`f32` payload mode for values that
/// survive neither the integral nor the exact test — shuffle-only records
/// may opt in; checkpoints and DFS blocks must not.
pub fn encode_framed_v3<T: Wire>(v: &T, quantize: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity((FRAME_OVERHEAD + v.encoded_size_v3(quantize)) as usize);
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&WIRE_VERSION_V3.to_le_bytes());
    v.encode_v3_into(&mut out, quantize);
    out
}

/// Exact length of [`encode_framed_v3`]'s output.
pub fn framed_size_v3<T: Wire>(v: &T, quantize: bool) -> u64 {
    FRAME_OVERHEAD + v.encoded_size_v3(quantize)
}

/// Decodes a framed v3 blob, validating magic and version.
///
/// Only version 3 frames are accepted here; v2 frames go through
/// [`decode_framed`], and each decoder rejects the other's version with a
/// typed [`WireError::BadVersion`] — there is no silent cross-decoding.
pub fn decode_framed_v3<T: Wire>(buf: &[u8]) -> Result<T, WireError> {
    let mut r = WireReader::new(buf);
    if r.take(4)? != WIRE_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::from_le_bytes(r.take(2)?.try_into().expect("take(2)"));
    if version != WIRE_VERSION_V3 {
        return Err(WireError::BadVersion(version));
    }
    let v = T::decode_v3_from(&mut r)?;
    r.finish()?;
    Ok(v)
}

/// How a cluster prices the bytes of a metered value.
///
/// [`Sizing::Encoded`] (the default) charges real [`Wire`] encoded lengths;
/// [`Sizing::Estimated`] keeps the legacy flat [`ByteSized`] arithmetic for
/// differential testing (`crates/core/tests/wire_determinism.rs` proves the
/// fitted model is bitwise identical either way — sizing only moves the
/// byte meters and the virtual clock).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Sizing {
    /// Charge `Wire::encoded_size()` — real serialized bytes.
    #[default]
    Encoded,
    /// Charge `ByteSized::size_bytes()` — the legacy flat estimate.
    Estimated,
}

impl Sizing {
    /// Metered size of `value` under this policy.
    #[inline]
    pub fn size_of<T: Wire>(self, value: &T) -> u64 {
        match self {
            Sizing::Encoded => value.encoded_size(),
            Sizing::Estimated => value.size_bytes(),
        }
    }

    /// Metered size of a length-`len` `f64` slice (a `Vec<f64>` on the
    /// wire), for charge sites that hold `&[f64]` rather than an owned
    /// vector.
    #[inline]
    pub fn f64_payload(self, len: usize) -> u64 {
        match self {
            Sizing::Encoded => uvarint_len(len as u64) + 8 * len as u64,
            Sizing::Estimated => 8 + 8 * len as u64,
        }
    }
}

/// Which frame generation shuffle-only records travel in.
///
/// The codec is negotiated per cluster ([`ClusterConfig::with_wire_codec`]
/// in `dcluster`) and applies **only** to shuffle-family charge sites —
/// map-side emits, reduce-side accumulator merges, and the spill bytes
/// derived from them. Broadcasts, collects, persisted partitions, DFS
/// input splits and checkpoints always stay on the exact v2 encoding:
/// those records are read back as ground truth, so they are never
/// eligible for the lossy arm, and keeping them on one version keeps the
/// golden fixtures stable.
///
/// Because the simulated shuffle hands values over in memory and only
/// *meters* the encoding, switching codecs moves byte counters and the
/// virtual clock — never the fitted model. `wire_determinism` tests pin
/// that.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum WireCodec {
    /// The exact v2 encoding ([`WIRE_VERSION`] frames) — the default, and
    /// byte-for-byte what every previous release charged.
    #[default]
    V2,
    /// Bitpacked v3 ([`WIRE_VERSION_V3`] frames), lossless: delta
    /// bit-groups for ascending index sets and integral-compaction for
    /// payloads, raw `f64` otherwise.
    V3,
    /// v3 plus lossy `f64`→`f32` payload quantization for values that are
    /// neither integral nor exactly `f32`-representable.
    V3Quantized,
}

impl WireCodec {
    /// Short stable label used in traces, JSON artifacts and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            WireCodec::V2 => "v2",
            WireCodec::V3 => "v3",
            WireCodec::V3Quantized => "v3q",
        }
    }

    /// Parses the CLI spelling (`v2`, `v3`, `v3q`).
    pub fn parse(s: &str) -> Option<WireCodec> {
        match s {
            "v2" => Some(WireCodec::V2),
            "v3" => Some(WireCodec::V3),
            "v3q" | "v3-quantized" => Some(WireCodec::V3Quantized),
            _ => None,
        }
    }

    /// Metered size of a shuffle-family record under this codec and
    /// `sizing` policy. [`Sizing::Estimated`] short-circuits to the flat
    /// [`ByteSized`](crate::ByteSized) estimate regardless of codec, so
    /// the legacy differential arm stays untouched.
    #[inline]
    pub fn shuffle_size_of<T: Wire>(self, sizing: Sizing, value: &T) -> u64 {
        match (sizing, self) {
            (Sizing::Estimated, _) => value.size_bytes(),
            (Sizing::Encoded, WireCodec::V2) => value.encoded_size(),
            (Sizing::Encoded, WireCodec::V3) => value.encoded_size_v3(false),
            (Sizing::Encoded, WireCodec::V3Quantized) => value.encoded_size_v3(true),
        }
    }

    /// Whether this codec quantizes payloads (the lossy arm).
    #[inline]
    pub fn quantizes(self) -> bool {
        matches!(self, WireCodec::V3Quantized)
    }
}

impl std::fmt::Display for WireCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        let buf = v.encode();
        assert_eq!(buf.len() as u64, v.encoded_size(), "encoded_size mismatch for {v:?}");
        assert_eq!(&T::decode(&buf).expect("decode"), v);
    }

    #[test]
    fn uvarint_boundaries() {
        for v in
            [0u64, 1, 127, 128, 129, 16_383, 16_384, 1 << 21, u64::from(u32::MAX), u64::MAX - 1, u64::MAX]
        {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v);
            assert_eq!(buf.len() as u64, uvarint_len(v), "len mismatch for {v}");
            let mut r = WireReader::new(&buf);
            assert_eq!(r.uvarint().unwrap(), v);
            r.finish().unwrap();
        }
        assert_eq!(uvarint_len(0), 1);
        assert_eq!(uvarint_len(127), 1);
        assert_eq!(uvarint_len(128), 2);
        assert_eq!(uvarint_len(u64::MAX), 10);
    }

    #[test]
    fn uvarint_rejects_overflow_and_truncation() {
        // 11 continuation bytes can never be a valid u64 varint.
        let long = [0x80u8; 11];
        assert!(matches!(WireReader::new(&long).uvarint(), Err(WireError::Malformed(_))));
        // 2^64 exactly: ten bytes with top byte 2.
        let overflow = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
        assert!(matches!(WireReader::new(&overflow).uvarint(), Err(WireError::Malformed(_))));
        assert_eq!(WireReader::new(&[0x80]).uvarint(), Err(WireError::Truncated));
    }

    #[test]
    fn ascending_indices_delta_roundtrip() {
        for indices in [vec![], vec![0u32], vec![5], vec![0, 1, 2, 3], vec![7, 900, 901, 65_000]] {
            let mut buf = Vec::new();
            write_ascending_u32(&mut buf, &indices);
            assert_eq!(buf.len() as u64, ascending_u32_len(&indices));
            let mut r = WireReader::new(&buf);
            let back = read_ascending_u32(&mut r, indices.len(), 1 << 20).unwrap();
            assert_eq!(back, indices);
        }
        // Dense run 100..200 costs 1 absolute + 99 zero-gap bytes.
        let dense: Vec<u32> = (100..200).collect();
        assert_eq!(ascending_u32_len(&dense), 1 + 99);
    }

    #[test]
    fn f64_preserves_bit_patterns() {
        for v in [0.0f64, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE]
        {
            let buf = v.encode();
            assert_eq!(buf.len(), 8);
            let back = f64::decode(&buf).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "bits changed for {v}");
        }
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(&42u64);
        roundtrip(&7u32);
        roundtrip(&());
        roundtrip(&(3u32, 2.5f64));
        roundtrip(&vec![1.0f64, -0.0, 3.5]);
        roundtrip(&Vec::<f64>::new());
        roundtrip(&Some(9u64));
        roundtrip(&None::<u64>);
        roundtrip(&Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        roundtrip(&Mat::zeros(0, 5));
        roundtrip(&SparseMat::from_triplets(3, 10, &[(0, 2, 1.5), (0, 9, -2.0), (2, 0, 4.0)]));
        roundtrip(&SparseMat::from_triplets(0, 0, &[]));
        roundtrip(&SparseUpdate { entries: vec![(3, vec![1.0, 2.0]), (90, vec![-0.5])] });
    }

    #[test]
    fn varints_beat_flat_estimates_on_small_values() {
        // The whole point: a (u32, f64) shuffle record estimated at 12
        // bytes encodes to 9 when the key is small.
        let record = (1u32, 2.5f64);
        assert_eq!(ByteSized::size_bytes(&record), 12);
        assert_eq!(record.encoded_size(), 9);
        // Sparse entries estimated at 12 bytes each cost ~9 with deltas.
        let s = SparseMat::from_triplets(1, 1000, &[(0, 10, 1.0), (0, 11, 2.0), (0, 12, 3.0)]);
        assert!(s.encoded_size() < ByteSized::size_bytes(&s));
    }

    #[test]
    fn decode_rejects_trailing_and_truncated() {
        let mut buf = 5u64.encode();
        buf.push(0);
        assert!(matches!(u64::decode(&buf), Err(WireError::Malformed(_))));
        let m = Mat::zeros(2, 2);
        let enc = m.encode();
        assert_eq!(Mat::decode(&enc[..enc.len() - 1]), Err(WireError::Truncated));
    }

    #[test]
    fn sparse_decode_validates_structure() {
        // Column index >= cols.
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 1); // rows
        write_uvarint(&mut buf, 4); // cols
        write_uvarint(&mut buf, 1); // nnz
        write_uvarint(&mut buf, 1); // row len
        write_uvarint(&mut buf, 9); // index 9 out of bounds
        buf.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        assert!(matches!(SparseMat::decode(&buf), Err(WireError::Malformed(_))));

        // Row lengths disagree with declared nnz.
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 1); // rows
        write_uvarint(&mut buf, 4); // cols
        write_uvarint(&mut buf, 2); // nnz = 2
        write_uvarint(&mut buf, 1); // but the only row has 1
        write_uvarint(&mut buf, 0);
        buf.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        assert!(matches!(SparseMat::decode(&buf), Err(WireError::Malformed(_))));
    }

    #[test]
    fn framed_blob_checks_magic_and_version() {
        let v = vec![1.0f64, 2.0];
        let blob = encode_framed(&v);
        assert_eq!(blob.len() as u64, framed_size(&v));
        assert_eq!(decode_framed::<Vec<f64>>(&blob).unwrap(), v);

        let mut bad = blob.clone();
        bad[0] = b'X';
        assert_eq!(decode_framed::<Vec<f64>>(&bad), Err(WireError::BadMagic));

        let mut future = blob.clone();
        future[4] = 0xff;
        future[5] = 0xff;
        assert_eq!(decode_framed::<Vec<f64>>(&future), Err(WireError::BadVersion(0xffff)));

        assert_eq!(decode_framed::<Vec<f64>>(&blob[..3]), Err(WireError::Truncated));
    }

    #[test]
    fn sizing_dispatches_between_codec_and_estimate() {
        let v = vec![1.0f64; 4];
        assert_eq!(Sizing::Encoded.size_of(&v), 33);
        assert_eq!(Sizing::Estimated.size_of(&v), 40);
        assert_eq!(Sizing::Encoded.f64_payload(4), 33);
        assert_eq!(Sizing::Estimated.f64_payload(4), 40);
        assert_eq!(Sizing::default(), Sizing::Encoded);
    }

    // ---- v3 fast path ----

    fn roundtrip_v3<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        // Lossless arm: exact round-trip through the raw body and the frame.
        let buf = v.encode_v3(false);
        assert_eq!(buf.len() as u64, v.encoded_size_v3(false), "v3 size mismatch for {v:?}");
        assert_eq!(&T::decode_v3(&buf).expect("decode_v3"), v);
        let framed = encode_framed_v3(v, false);
        assert_eq!(framed.len() as u64, framed_size_v3(v, false));
        assert_eq!(&decode_framed_v3::<T>(&framed).expect("decode_framed_v3"), v);
        // Quantized arm still satisfies the size contract.
        let q = v.encode_v3(true);
        assert_eq!(q.len() as u64, v.encoded_size_v3(true), "v3q size mismatch for {v:?}");
    }

    #[test]
    fn bitpacked_u32_roundtrip() {
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![7],
            vec![0, 1, 2, 3, 4, 5],          // consecutive run: width 0
            vec![3, 10, 11, 500, 501, 1 << 20],
            (0..100).map(|i| i * 37).collect(),
            vec![0, u32::MAX - 1, u32::MAX],
        ];
        for indices in &cases {
            let mut buf = Vec::new();
            write_bitpacked_u32(&mut buf, indices);
            assert_eq!(buf.len() as u64, bitpacked_u32_len(indices), "len for {indices:?}");
            let mut r = WireReader::new(&buf);
            let back = read_bitpacked_u32(&mut r, indices.len(), u64::from(u32::MAX) + 1)
                .expect("read_bitpacked_u32");
            r.finish().unwrap();
            assert_eq!(&back, indices);
        }
        // A consecutive run spends zero stream bytes on deltas: varint(first)
        // + one width byte.
        let run: Vec<u32> = (10..200).collect();
        assert_eq!(bitpacked_u32_len(&run), 2);
        // Bounds are enforced on decode.
        let mut buf = Vec::new();
        write_bitpacked_u32(&mut buf, &[5, 9]);
        let mut r = WireReader::new(&buf);
        assert!(matches!(read_bitpacked_u32(&mut r, 2, 9), Err(WireError::Malformed(_))));
    }

    #[test]
    fn payload_modes_select_correctly() {
        // All-integral values (the binary sparse datasets) take the zigzag
        // integer mode — about one byte per value, losslessly.
        let ones = vec![1.0f64; 64];
        assert_eq!(payload_mode(&ones, false), PAYLOAD_INT);
        assert_eq!(f64_slice_v3_len(&ones, false), 1 + 64);
        // -0.0 is not integral (the bitwise round-trip fails), nor are
        // NaN/Inf — they force raw mode without quantization.
        for poison in [-0.0f64, f64::NAN, f64::INFINITY, 1.5e19] {
            let vals = vec![1.0, poison];
            assert_eq!(payload_mode(&vals, false), PAYLOAD_RAW, "poison {poison}");
        }
        // Non-integral values: raw without quantize, f32 with.
        let frac = vec![0.5, 1.25, -3.75];
        assert_eq!(payload_mode(&frac, false), PAYLOAD_RAW);
        assert_eq!(payload_mode(&frac, true), PAYLOAD_F32);
        assert_eq!(f64_slice_v3_len(&frac, true), 1 + 4 * 3);
    }

    #[test]
    fn f64_payload_roundtrips_per_mode() {
        for (vals, quantize) in [
            (vec![0.0, 1.0, -17.0, 1e6], false),        // INT, exact
            (vec![0.5, -1.25, 3.0], false),             // RAW, exact
            (vec![f64::NAN, f64::INFINITY], false),     // RAW, bit-exact specials
        ] {
            let mut buf = Vec::new();
            write_f64_slice_v3(&mut buf, &vals, quantize);
            assert_eq!(buf.len() as u64, f64_slice_v3_len(&vals, quantize));
            let mut r = WireReader::new(&buf);
            let back = read_f64_slice_v3(&mut r, vals.len()).unwrap();
            r.finish().unwrap();
            assert_eq!(back.len(), vals.len());
            for (a, b) in vals.iter().zip(&back) {
                assert_eq!(a.to_bits(), b.to_bits(), "{a} round-tripped to {b}");
            }
        }
        // Quantized arm: values come back as the nearest f32.
        let vals = vec![0.1, std::f64::consts::PI, -2.0 / 3.0];
        let mut buf = Vec::new();
        write_f64_slice_v3(&mut buf, &vals, true);
        let mut r = WireReader::new(&buf);
        let back = read_f64_slice_v3(&mut r, vals.len()).unwrap();
        for (a, b) in vals.iter().zip(&back) {
            assert_eq!(b.to_bits(), f64::from(*a as f32).to_bits());
        }
        // Unknown payload mode is a typed error.
        let mut r = WireReader::new(&[9, 0, 0]);
        assert!(matches!(read_f64_slice_v3(&mut r, 1), Err(WireError::Malformed(_))));
    }

    #[test]
    fn v3_containers_roundtrip() {
        roundtrip_v3(&42u64);
        roundtrip_v3(&3.5f64);
        roundtrip_v3(&vec![1.0f64, 2.0, 3.0]);
        roundtrip_v3(&vec![0.5f64, -0.25]);
        roundtrip_v3(&(7u32, vec![1.0f64, 0.0, 2.0]));
        roundtrip_v3(&Some(vec![4.0f64; 9]));
        roundtrip_v3(&None::<Vec<f64>>);
        let mut m = Mat::zeros(3, 4);
        for (i, v) in m.data_mut().iter_mut().enumerate() {
            *v = i as f64 - 5.5;
        }
        roundtrip_v3(&m);
        let sm = SparseMat::from_triplets(
            5,
            8,
            &[(0, 1, 1.0), (0, 7, 1.0), (2, 0, 1.0), (2, 2, 1.0), (2, 3, 1.0), (4, 6, 1.0)],
        );
        roundtrip_v3(&sm);
        let upd = SparseUpdate {
            entries: vec![(3, vec![1.0, 2.0]), (9, vec![0.25]), (11, vec![])],
        };
        roundtrip_v3(&upd);
    }

    #[test]
    fn v3_shrinks_binary_sparse_records() {
        // A binary CSR row set shaped like the paper's tweet data: indices
        // compress to a few bits each, values to one byte each — well over
        // the 2x acceptance bar vs the 12-byte-per-nnz v2 encoding.
        let mut triplets: Vec<(usize, u32, f64)> = Vec::new();
        let mut rng = crate::Prng::seed_from_u64(77);
        for r in 0..64usize {
            let mut c = (rng.next_u64() % 50) as u32;
            while c < 5_000 {
                triplets.push((r, c, 1.0));
                c += 1 + (rng.next_u64() % 400) as u32;
            }
        }
        let sm = SparseMat::from_triplets(64, 5_000, &triplets);
        let v2 = sm.encoded_size();
        let v3 = sm.encoded_size_v3(false);
        assert!(
            v3 * 2 <= v2,
            "binary sparse v3 should halve v2: v2={v2} v3={v3}"
        );
        roundtrip_v3(&sm);
    }

    #[test]
    fn v2_and_v3_frames_reject_each_other() {
        let v = vec![1.0f64, 2.5, -3.0];
        let v2 = encode_framed(&v);
        let v3 = encode_framed_v3(&v, false);
        assert_eq!(
            decode_framed::<Vec<f64>>(&v3),
            Err(WireError::BadVersion(WIRE_VERSION_V3))
        );
        assert_eq!(
            decode_framed_v3::<Vec<f64>>(&v2),
            Err(WireError::BadVersion(WIRE_VERSION))
        );
        assert_eq!(decode_framed_v3::<Vec<f64>>(&v3).unwrap(), v);
    }

    #[test]
    fn wire_codec_prices_by_arm() {
        let v = vec![1.0f64; 32]; // integral: big v3 win
        let exact = v.encoded_size();
        assert_eq!(WireCodec::V2.shuffle_size_of(Sizing::Encoded, &v), exact);
        assert_eq!(
            WireCodec::V3.shuffle_size_of(Sizing::Encoded, &v),
            v.encoded_size_v3(false)
        );
        assert_eq!(
            WireCodec::V3Quantized.shuffle_size_of(Sizing::Encoded, &v),
            v.encoded_size_v3(true)
        );
        assert!(WireCodec::V3.shuffle_size_of(Sizing::Encoded, &v) * 2 < exact);
        // Estimated sizing short-circuits to the flat legacy arithmetic.
        for codec in [WireCodec::V2, WireCodec::V3, WireCodec::V3Quantized] {
            assert_eq!(codec.shuffle_size_of(Sizing::Estimated, &v), v.size_bytes());
        }
        for codec in [WireCodec::V2, WireCodec::V3, WireCodec::V3Quantized] {
            assert_eq!(WireCodec::parse(codec.label()), Some(codec));
        }
        assert_eq!(WireCodec::parse("v1"), None);
        assert_eq!(WireCodec::default(), WireCodec::V2);
        assert!(WireCodec::V3Quantized.quantizes() && !WireCodec::V3.quantizes());
    }
}
