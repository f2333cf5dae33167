//! Golden-blob conformance fixtures for the wire format.
//!
//! Each fixture is a committed hex string captured from the version-1
//! encoder. The tests pin the format in both directions:
//!
//! * **encoder conformance** — encoding the documented value reproduces the
//!   fixture byte-for-byte, so an accidental layout change (varint width,
//!   field order, delta base) fails loudly instead of silently re-encoding
//!   old data differently;
//! * **decoder conformance** — the fixture decodes back to the documented
//!   value, so blobs written by any v1 encoder stay readable.
//!
//! The companion SPCACKPT-v1 checkpoint fixture lives with the checkpoint
//! codec in `spca-core` (`checkpoint::tests::v1_golden_blob_still_decodes`).
//! If a fixture here ever needs to change, that is a format break: bump
//! `wire::WIRE_VERSION` and keep the old decoder path.

use linalg::wire::{
    decode_framed, decode_framed_v3, encode_framed, encode_framed_v3, Wire, WireError,
    WIRE_VERSION, WIRE_VERSION_V3,
};
use linalg::{Mat, SparseMat};

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len() % 2 == 0, "odd hex fixture");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("bad hex fixture"))
        .collect()
}

fn assert_golden<T: Wire>(value: &T, hex: &str, what: &str) -> T {
    let blob = unhex(hex);
    assert_eq!(value.encode(), blob, "{what}: encoder no longer reproduces the fixture");
    assert_eq!(value.encoded_size(), blob.len() as u64, "{what}: size contract");
    T::decode(&blob).unwrap_or_else(|e| panic!("{what}: fixture no longer decodes: {e}"))
}

#[test]
fn golden_u64_varint() {
    // 624485 is the canonical LEB128 worked example: 0xE5 0x8E 0x26.
    let back = assert_golden(&624_485u64, "e58e26", "u64");
    assert_eq!(back, 624_485);
}

#[test]
fn golden_f64_negative_zero() {
    // Raw IEEE-754 little-endian bits; -0.0 keeps its sign bit.
    let back = assert_golden(&-0.0f64, "0000000000000080", "f64");
    assert_eq!(back.to_bits(), (-0.0f64).to_bits());
}

#[test]
fn golden_vec_f64_with_nan_payload() {
    // varint len 3, then raw bits: 1.0, quiet NaN 0x7ff8…, -2.5.
    let v = vec![1.0, f64::from_bits(0x7ff8_0000_0000_0000), -2.5];
    let back = assert_golden(
        &v,
        "03000000000000f03f000000000000f87f00000000000004c0",
        "Vec<f64>",
    );
    let bits: Vec<u64> = back.iter().map(|x| x.to_bits()).collect();
    assert_eq!(bits, v.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
}

#[test]
fn golden_key_value_pair() {
    // Shuffle record shape: varint key 300 (0xAC 0x02), then 1.5 raw bits.
    let back = assert_golden(&(300u32, 1.5f64), "ac02000000000000f83f", "(u32, f64)");
    assert_eq!(back, (300, 1.5));
}

#[test]
fn golden_option_tag() {
    // 1-byte presence tag, then varint 128 (0x80 0x01).
    let back = assert_golden(&Some(128u64), "018001", "Option<u64>");
    assert_eq!(back, Some(128));
}

#[test]
fn golden_dense_mat() {
    // varint rows 2, cols 3, then 6 raw f64s row-major.
    let m = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    let back = assert_golden(
        &m,
        "0203000000000000f03f000000000000004000000000000008400000000000001040\
         00000000000014400000000000001840",
        "Mat",
    );
    assert_eq!(back.data(), m.data());
}

#[test]
fn golden_sparse_mat_delta_indices() {
    // Layout: rows 3, cols 8, nnz 3; per row varint length then
    // delta-encoded indices (first absolute, then gap−1): row 0 holds
    // columns {1, 4} → 02 01 02; row 1 is empty → 00; row 2 holds {7} →
    // 01 07; then the three values' raw bits (0.5, −0.25, 1e−3).
    let m = SparseMat::from_rows(
        3,
        8,
        vec![vec![(1, 0.5), (4, -0.25)], vec![], vec![(7, 1e-3)]],
    );
    let back = assert_golden(
        &m,
        "030803020102000107000000000000e03f000000000000d0bffca9f1d24d62503f",
        "SparseMat",
    );
    assert_eq!(back, m);
}

#[test]
fn golden_framed_blob() {
    // "SPWR" magic, version 1 little-endian u16, then the payload (1×1
    // matrix holding 42.0).
    let m = Mat::from_vec(1, 1, vec![42.0]);
    let blob = unhex("53505752010001010000000000004540");
    assert_eq!(encode_framed(&m), blob, "framed encoder drifted");
    let back: Mat = decode_framed(&blob).expect("framed fixture decodes");
    assert_eq!(back.data(), m.data());
    assert_eq!(&blob[..4], b"SPWR", "magic is the literal ASCII tag");
}

// ---- v3 fast path fixtures ----
//
// The v3 body is a different layout behind the same magic: version 3
// frames, bitpacked index deltas, mode-tagged f64 payloads. These
// fixtures pin the v3 layout with the same encoder/decoder conformance
// contract as the v1 ones above.

fn assert_golden_v3<T: Wire>(value: &T, quantize: bool, hex: &str, what: &str) -> T {
    let blob = unhex(hex);
    assert_eq!(value.encode_v3(quantize), blob, "{what}: v3 encoder drifted");
    assert_eq!(value.encoded_size_v3(quantize), blob.len() as u64, "{what}: v3 size contract");
    T::decode_v3(&blob).unwrap_or_else(|e| panic!("{what}: v3 fixture no longer decodes: {e}"))
}

#[test]
fn golden_v3_vec_integral_payload() {
    // len 4, mode 02 (zigzag integers): 1→02, 0→00, −3→05, 250→500=F4 03.
    let v = vec![1.0f64, 0.0, -3.0, 250.0];
    let back = assert_golden_v3(&v, false, "0402020005f403", "Vec<f64> INT");
    assert_eq!(back, v);
}

#[test]
fn golden_v3_vec_raw_and_quantized_payloads() {
    // Fractional values: lossless arm keeps mode 00 (raw f64 bits)...
    let v = vec![0.5f64, -0.25];
    let back =
        assert_golden_v3(&v, false, "0200000000000000e03f000000000000d0bf", "Vec<f64> RAW");
    assert_eq!(back, v);
    // ...while the quantized arm switches to mode 01 (f32 LE bits):
    // 0.5 → 3F000000, −0.25 → BE800000. Exactly representable, so even
    // the lossy arm round-trips these two.
    let back = assert_golden_v3(&v, true, "02010000003f000080be", "Vec<f64> F32");
    assert_eq!(back, v);
    // π genuinely loses precision: comes back as the nearest f32.
    let pi = vec![std::f64::consts::PI];
    let back = assert_golden_v3(&pi, true, "0101db0f4940", "Vec<f64> F32 lossy");
    assert_eq!(back[0].to_bits(), f64::from(std::f64::consts::PI as f32).to_bits());
}

#[test]
fn golden_v3_sparse_mat_bitpacked_indices() {
    // rows 3, cols 8, nnz 3; row {1,4}: first 1, width 2 (gap−1 = 2),
    // one 2-bit delta → 02 01 02 02; empty row → 00; row {7}: single
    // index, varint only → 01 07; values: mode 02, three zigzag 1s.
    let m = SparseMat::from_rows(3, 8, vec![vec![(1, 1.0), (4, 1.0)], vec![], vec![(7, 1.0)]]);
    let back = assert_golden_v3(&m, false, "0308030201020200010702020202", "SparseMat v3");
    assert_eq!(back, m);
    // A 12-byte-per-nnz v2 record vs ~2 bytes in v3 on this shape.
    assert!(m.encoded_size_v3(false) * 2 <= m.encoded_size());
}

#[test]
fn golden_v3_sparse_mat_wide_deltas() {
    // Indices {3, 10, 500} in 1000 columns: gaps−1 are 6 and 489, so the
    // bit width is 9; the two 9-bit deltas pack LSB-first into 06 D2 03.
    let m = SparseMat::from_rows(1, 1000, vec![vec![(3, 1.0), (10, 1.0), (500, 1.0)]]);
    let back = assert_golden_v3(&m, false, "01e8070303030906d20302020202", "SparseMat wide");
    assert_eq!(back, m);
}

#[test]
fn golden_v3_framed_blob_and_cross_version_rejection() {
    // Same "SPWR" magic, version 3 little-endian, then the v3 body:
    // 1×1 matrix of 42.0 → integral payload, 2 bytes instead of 8.
    let m = Mat::from_vec(1, 1, vec![42.0]);
    let blob = unhex("53505752030001010254");
    assert_eq!(encode_framed_v3(&m, false), blob, "framed v3 encoder drifted");
    let back: Mat = decode_framed_v3(&blob).expect("framed v3 fixture decodes");
    assert_eq!(back.data(), m.data());

    // The typed cross-version contract: each decoder rejects the other
    // generation's frames with BadVersion, never a silent mis-decode.
    assert_eq!(
        decode_framed::<Mat>(&blob),
        Err(WireError::BadVersion(WIRE_VERSION_V3)),
        "v2 decoder must reject v3 frames"
    );
    let v2_blob = unhex("53505752010001010000000000004540");
    assert_eq!(
        decode_framed_v3::<Mat>(&v2_blob),
        Err(WireError::BadVersion(WIRE_VERSION)),
        "v3 decoder must reject v2 frames"
    );
}
