//! Iteration-boundary EM checkpoints.
//!
//! The EM driver's whole state between iterations is tiny — `C` (D×d),
//! `ss`, and the previous sampled error — so checkpointing it to the DFS
//! costs one small write per interval and turns a driver crash from a
//! restart into a resume. The encoding stores every `f64` as its raw IEEE
//! bits (little-endian), so a resumed run continues from *exactly* the
//! state the uninterrupted run had — the bitwise-identical-model
//! invariant extends across crashes.
//!
//! Format history: v1 stored the integer header fields as fixed 8-byte
//! little-endian words; v2 (current) uses the `linalg::wire` varint
//! primitives for them. [`EmCheckpoint::decode`] reads both — a resumed
//! run must be able to pick up a checkpoint written before an upgrade —
//! while [`EmCheckpoint::encode`] always writes v2. Both versions share
//! the `SPCACKPT` magic and raw-IEEE-bits f64 payload; a committed v1
//! golden fixture pins the read-compat path.

use std::sync::Arc;

use linalg::wire::{write_uvarint, WireError, WireReader};
use linalg::Mat;

use crate::error::SpcaError;

/// DFS name the EM driver checkpoints under (one in-flight run per
/// cluster, like a Hadoop job's staging directory).
pub const CHECKPOINT_FILE: &str = "_checkpoints/em-state";

/// The checkpoint's DFS name for a fit, scoped to its job id when one is
/// set. A job-less fit keeps the legacy shared [`CHECKPOINT_FILE`] name;
/// multi-tenant fits get `jobs/<job>/_checkpoints/em-state`, so tenant
/// A's `SPCACKPT` blob can never collide with tenant B's.
pub fn file_name(job: Option<&str>) -> String {
    match job {
        Some(job) => dcluster::hdfs::job_scoped(job, CHECKPOINT_FILE),
        None => CHECKPOINT_FILE.to_string(),
    }
}

/// DFS name of the randomized-arm pass checkpoint. Deliberately distinct
/// from the EM name: the blob layout is shared (`EmCheckpoint` carries the
/// D×K basis `W` in its `c` slot), but an EM resume must never pick up a
/// randomized basis or vice versa — the separate name makes the two arms'
/// crash-recovery state mutually invisible.
pub const RPCA_CHECKPOINT_FILE: &str = "_checkpoints/rpca-state";

/// Job-scoped variant of [`RPCA_CHECKPOINT_FILE`], mirroring [`file_name`].
pub fn rpca_file_name(job: Option<&str>) -> String {
    match job {
        Some(job) => dcluster::hdfs::job_scoped(job, RPCA_CHECKPOINT_FILE),
        None => RPCA_CHECKPOINT_FILE.to_string(),
    }
}

const MAGIC: &[u8; 8] = b"SPCACKPT";
const VERSION: u32 = 2;
/// Oldest version [`EmCheckpoint::decode`] still reads.
const MIN_VERSION: u32 = 1;

/// Driver state at a pass boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct EmCheckpoint {
    /// The last pass a resume may skip: the completed iteration this state
    /// belongs to — or, when that iteration ended the run (cap reached or
    /// a stop condition fired), the iteration cap, so that a resume finds
    /// nothing left to run.
    pub iteration: usize,
    /// Principal-subspace matrix `C` after that iteration.
    pub c: Mat,
    /// Noise variance `ss` after that iteration.
    pub ss: f64,
    /// Sampled reconstruction error of that iteration (the next
    /// iteration's stop-condition baseline).
    pub prev_error: f64,
}

fn corrupt(err: WireError) -> SpcaError {
    SpcaError::CorruptCheckpoint { reason: err.to_string() }
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

impl EmCheckpoint {
    /// Serializes to the binary blob stored in the DFS (always the
    /// current version).
    pub fn encode(&self) -> Vec<u8> {
        let (rows, cols) = (self.c.rows(), self.c.cols());
        let mut out = Vec::with_capacity(self.encoded_size() as usize);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        write_uvarint(&mut out, self.iteration as u64);
        write_uvarint(&mut out, rows as u64);
        write_uvarint(&mut out, cols as u64);
        push_f64(&mut out, self.ss);
        push_f64(&mut out, self.prev_error);
        for &v in self.c.data() {
            push_f64(&mut out, v);
        }
        out
    }

    /// Exact length of [`EmCheckpoint::encode`]'s output.
    pub fn encoded_size(&self) -> u64 {
        use linalg::wire::uvarint_len;
        let (rows, cols) = (self.c.rows() as u64, self.c.cols() as u64);
        8 + 4
            + uvarint_len(self.iteration as u64)
            + uvarint_len(rows)
            + uvarint_len(cols)
            + 8 * (2 + rows * cols)
    }

    /// Parses a blob produced by [`EmCheckpoint::encode`], of any version
    /// back to [`MIN_VERSION`].
    pub fn decode(buf: &[u8]) -> Result<Self, SpcaError> {
        let mut r = WireReader::new(buf);
        if r.take(8).map_err(corrupt)? != MAGIC {
            return Err(SpcaError::CorruptCheckpoint { reason: "bad magic".into() });
        }
        let version =
            u32::from_le_bytes(r.take(4).map_err(corrupt)?.try_into().expect("4 bytes"));
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(SpcaError::CorruptCheckpoint {
                reason: format!("unsupported version {version}"),
            });
        }
        let header_u64 = |r: &mut WireReader<'_>| -> Result<u64, SpcaError> {
            if version == 1 {
                // v1 stored header integers as fixed 8-byte LE words.
                Ok(u64::from_le_bytes(r.take(8).map_err(corrupt)?.try_into().expect("8 bytes")))
            } else {
                r.uvarint().map_err(corrupt)
            }
        };
        let iteration = header_u64(&mut r)? as usize;
        let rows = header_u64(&mut r)? as usize;
        let cols = header_u64(&mut r)? as usize;
        let ss = r.f64_bits().map_err(corrupt)?;
        let prev_error = r.f64_bits().map_err(corrupt)?;
        let n = rows.checked_mul(cols).filter(|n| r.remaining() == n * 8).ok_or_else(|| {
            SpcaError::CorruptCheckpoint {
                reason: format!("payload size does not match {rows}x{cols} matrix"),
            }
        })?;
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(r.f64_bits().map_err(corrupt)?);
        }
        Ok(EmCheckpoint { iteration, c: Mat::from_vec(rows, cols, data), ss, prev_error })
    }

    /// Decodes a shared DFS blob (convenience for the common call shape).
    pub fn decode_arc(blob: &Arc<Vec<u8>>) -> Result<Self, SpcaError> {
        EmCheckpoint::decode(blob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EmCheckpoint {
        let data: Vec<f64> =
            (0..12).map(|i| (i as f64 + 0.25) * if i % 2 == 0 { 1.0 } else { -1e-9 }).collect();
        EmCheckpoint {
            iteration: 7,
            c: Mat::from_vec(4, 3, data),
            ss: 3.25e-4,
            prev_error: 0.421875,
        }
    }

    /// `sample()` as serialized by the v1 encoder (fixed 8-byte LE header
    /// integers), captured before the v2 varint header landed. Pins the
    /// read-compat path: a checkpoint written by an old build must keep
    /// decoding bit-for-bit.
    const SAMPLE_V1_HEX: &str = "53504341434b50540100000007000000000000000400000000000000030000000000000094f6065f984c353f000000000000db3f000000000000d03f3a8c30e28e7915be0000000000000240b21c3f59d3ea2bbe0000000000001140a4f9b2a06f8c36be0000000000001940ee64c69475233fbe00000000008020401ce86cc43ddd43be0000000000802440c29d76bec02848be";

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("valid hex"))
            .collect()
    }

    #[test]
    fn v1_golden_blob_still_decodes() {
        let blob = unhex(SAMPLE_V1_HEX);
        let decoded = EmCheckpoint::decode(&blob).expect("v1 read-compat");
        let want = sample();
        assert_eq!(decoded.iteration, want.iteration);
        assert_eq!(decoded.ss.to_bits(), want.ss.to_bits());
        assert_eq!(decoded.prev_error.to_bits(), want.prev_error.to_bits());
        assert_eq!(
            decoded.c.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.c.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // The v2 re-encoding is smaller (varint header) but decodes to the
        // same state.
        let reencoded = decoded.encode();
        assert!(reencoded.len() < blob.len(), "v2 header should shrink the blob");
        assert_eq!(EmCheckpoint::decode(&reencoded).unwrap(), decoded);
    }

    #[test]
    fn encoded_size_matches_encode_len() {
        for ck in [
            sample(),
            EmCheckpoint { iteration: 0, c: Mat::zeros(0, 0), ss: 0.0, prev_error: 0.0 },
            EmCheckpoint {
                iteration: 300,
                c: Mat::zeros(200, 1),
                ss: f64::NAN,
                prev_error: f64::INFINITY,
            },
        ] {
            assert_eq!(ck.encode().len() as u64, ck.encoded_size());
        }
    }

    #[test]
    fn roundtrip_is_bitwise() {
        let ck = sample();
        let decoded = EmCheckpoint::decode(&ck.encode()).unwrap();
        assert_eq!(decoded.iteration, ck.iteration);
        assert_eq!(decoded.ss.to_bits(), ck.ss.to_bits());
        assert_eq!(decoded.prev_error.to_bits(), ck.prev_error.to_bits());
        let same = decoded
            .c
            .data()
            .iter()
            .zip(ck.c.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "C must round-trip bit-for-bit");
    }

    #[test]
    fn roundtrip_preserves_non_finite_error() {
        // A checkpoint written before any stop check has prev_error = +inf.
        let mut ck = sample();
        ck.prev_error = f64::INFINITY;
        let decoded = EmCheckpoint::decode(&ck.encode()).unwrap();
        assert!(decoded.prev_error.is_infinite());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(
            EmCheckpoint::decode(b"not a checkpoint"),
            Err(SpcaError::CorruptCheckpoint { .. })
        ));
        let mut truncated = sample().encode();
        truncated.truncate(truncated.len() - 1);
        assert!(matches!(
            EmCheckpoint::decode(&truncated),
            Err(SpcaError::CorruptCheckpoint { .. })
        ));
        let mut wrong_magic = sample().encode();
        wrong_magic[0] ^= 0xff;
        assert!(matches!(
            EmCheckpoint::decode(&wrong_magic),
            Err(SpcaError::CorruptCheckpoint { .. })
        ));
    }
}
