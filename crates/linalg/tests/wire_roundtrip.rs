//! Randomized round-trip property suite for every `linalg::wire` type.
//!
//! Each case draws seeded values (degenerate shapes included: empty
//! containers, all-zero sparse rows, NaN/±Inf/-0.0 payloads, arbitrary
//! f64 bit patterns) and asserts two invariants the metered paths rely on:
//!
//! 1. `encoded_size() == encode().len()` — meters charge exactly what the
//!    codec produces;
//! 2. `decode(encode(v))` is *bitwise* identical to `v` — shipping a value
//!    through the wire never perturbs the arithmetic.
//!
//! Iteration count is bounded and overridable: set `WIRE_FUZZ_ITERS` to run
//! a longer fuzz (the CI smoke gate does). The seed is fixed, so failures
//! reproduce deterministically.

use linalg::sparse::{Block, PartitionBlock, RowRecords};
use linalg::wire::{decode_framed, encode_framed, framed_size, Wire};
use linalg::{Mat, Prng, SparseMat, WireCodec};

fn iters() -> u64 {
    std::env::var("WIRE_FUZZ_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

/// Draws an f64 biased toward the encodings' edge cases.
fn edge_f64(rng: &mut Prng) -> f64 {
    match rng.index(8) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::NAN,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5 => -1e-300,
        // Arbitrary bit pattern — exercises payload NaNs and subnormals.
        6 => f64::from_bits(rng.next_u64()),
        _ => rng.normal(),
    }
}

/// Encodes, checks the size contract, decodes, checks full consumption.
fn roundtrip<T: Wire>(v: &T) -> T {
    let bytes = v.encode();
    assert_eq!(
        bytes.len() as u64,
        v.encoded_size(),
        "encoded_size() must equal encode().len()"
    );
    T::decode(&bytes).expect("decode of a fresh encoding must succeed")
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length drift");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: bit drift at {i}");
    }
}

fn assert_sparse_bits_eq(a: &SparseMat, b: &SparseMat) {
    assert_eq!(a.rows(), b.rows());
    assert_eq!(a.cols(), b.cols());
    assert_eq!(a.nnz(), b.nnz());
    for r in 0..a.rows() {
        let (ra, rb) = (a.row(r), b.row(r));
        assert_eq!(ra.indices, rb.indices, "row {r}: index drift");
        assert_bits_eq(ra.values, rb.values, "sparse row values");
    }
}

#[test]
fn f64_roundtrip_preserves_every_bit_pattern() {
    let mut rng = Prng::seed_from_u64(0x51ca_0001);
    for _ in 0..iters() {
        let v = edge_f64(&mut rng);
        assert_eq!(roundtrip(&v).to_bits(), v.to_bits());
    }
}

#[test]
fn varint_scalars_roundtrip_across_magnitudes() {
    let mut rng = Prng::seed_from_u64(0x51ca_0002);
    for boundary in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
        assert_eq!(roundtrip(&boundary), boundary);
    }
    for _ in 0..iters() {
        // Shift drags the value across every varint length class.
        let v = rng.next_u64() >> rng.index(64);
        assert_eq!(roundtrip(&v), v);
        let v32 = v as u32;
        assert_eq!(roundtrip(&v32), v32);
        let vus = v as usize;
        assert_eq!(roundtrip(&vus), vus);
    }
}

#[test]
fn vec_f64_roundtrip_including_empty_and_single() {
    let mut rng = Prng::seed_from_u64(0x51ca_0003);
    for _ in 0..iters() {
        let len = match rng.index(4) {
            0 => 0,
            1 => 1,
            _ => rng.index(64),
        };
        let v: Vec<f64> = (0..len).map(|_| edge_f64(&mut rng)).collect();
        assert_bits_eq(&roundtrip(&v), &v, "Vec<f64>");
    }
}

#[test]
fn tuple_and_option_roundtrip() {
    let mut rng = Prng::seed_from_u64(0x51ca_0004);
    for _ in 0..iters() {
        let pair = (rng.next_u64() as u32, edge_f64(&mut rng));
        let back = roundtrip(&pair);
        assert_eq!(back.0, pair.0);
        assert_eq!(back.1.to_bits(), pair.1.to_bits());

        let opt = if rng.index(2) == 0 { None } else { Some(rng.next_u64()) };
        assert_eq!(roundtrip(&opt), opt);
    }
    assert_eq!(roundtrip(&()), ());
}

#[test]
fn mat_roundtrip_including_degenerate_shapes() {
    let mut rng = Prng::seed_from_u64(0x51ca_0005);
    for (rows, cols) in [(0, 0), (0, 5), (5, 0), (1, 1)] {
        let m = Mat::zeros(rows, cols);
        let back = roundtrip(&m);
        assert_eq!((back.rows(), back.cols()), (rows, cols));
    }
    for _ in 0..iters() {
        let rows = rng.index(7);
        let cols = rng.index(7);
        let m = Mat::from_fn(rows, cols, |_, _| edge_f64(&mut rng));
        let back = roundtrip(&m);
        assert_eq!((back.rows(), back.cols()), (rows, cols));
        assert_bits_eq(back.data(), m.data(), "Mat");
    }
}

#[test]
fn sparse_mat_roundtrip_including_degenerate_shapes() {
    // Fixed degenerate shapes first.
    let degenerates = [
        SparseMat::from_rows(0, 0, vec![]),
        SparseMat::from_rows(0, 17, vec![]),
        SparseMat::from_rows(3, 9, vec![vec![], vec![], vec![]]),
        // All-zero rows: `from_rows` drops the zero values, leaving empty rows.
        SparseMat::from_rows(2, 4, vec![vec![(0, 0.0), (3, 0.0)], vec![(1, 0.0)]]),
        SparseMat::from_rows(1, 1, vec![vec![(0, -1e-9)]]),
    ];
    for m in &degenerates {
        assert_sparse_bits_eq(&roundtrip(m), m);
    }

    let mut rng = Prng::seed_from_u64(0x51ca_0006);
    for _ in 0..iters() {
        let rows = 1 + rng.index(12);
        let cols = 1 + rng.index(40);
        let entries: Vec<Vec<(u32, f64)>> = (0..rows)
            .map(|_| {
                let k = rng.index(cols + 1);
                rng.sample_indices(cols, k)
                    .into_iter()
                    .map(|c| {
                        // Nonzero, NaN/Inf-capable values; zeros are dropped
                        // by the constructor so they can't survive either way.
                        let mut v = edge_f64(&mut rng);
                        if v == 0.0 {
                            v = 1.0;
                        }
                        (c as u32, v)
                    })
                    .collect()
            })
            .collect();
        let m = SparseMat::from_rows(rows, cols, entries);
        assert_sparse_bits_eq(&roundtrip(&m), &m);
    }
}

/// A decoded block's cached copy is, bit for bit, the one its CSR block
/// analyses to.
fn assert_copy_rebuilt(block: &PartitionBlock) {
    let fresh = PartitionBlock::new(block.csr().clone());
    match (&*block.csc(), &*fresh.csc()) {
        (Some(a), Some(b)) => {
            assert_eq!(a.support(), b.support());
            assert_sparse_bits_eq(a.transposed(), b.transposed());
        }
        (a, b) => assert_eq!(a.is_none(), b.is_none()),
    }
}

#[test]
fn partition_blocks_roundtrip_and_rebuild_their_copy() {
    let mut rng = Prng::seed_from_u64(0x51ca_0010);
    for _ in 0..iters() {
        let (rows, cols) = (rng.index(10), 1 + rng.index(30));
        let entries: Vec<Vec<(u32, f64)>> = (0..rows)
            .map(|_| {
                let k = rng.index(cols + 1);
                rng.sample_indices(cols, k).into_iter().map(|c| (c as u32, 1.0 + rng.uniform())).collect()
            })
            .collect();
        let block = PartitionBlock::new(SparseMat::from_rows(rows, cols, entries));
        let back = roundtrip(&block);
        assert_sparse_bits_eq(back.csr(), block.csr());
        assert_copy_rebuilt(&back);
        let records = RowRecords(block);
        let back = roundtrip(&records);
        assert_eq!(back.0.csr().rows(), records.0.csr().rows());
        for r in 0..rows {
            assert_eq!(back.0.csr().row(r).indices, records.0.csr().row(r).indices);
            assert_bits_eq(back.0.csr().row(r).values, records.0.csr().row(r).values, "row record");
        }
        assert_copy_rebuilt(&back.0);
    }
}

#[test]
fn framed_blobs_roundtrip_and_size_contract_holds() {
    let mut rng = Prng::seed_from_u64(0x51ca_0008);
    for _ in 0..iters().min(16) {
        let m = Mat::from_fn(1 + rng.index(4), 1 + rng.index(4), |_, _| edge_f64(&mut rng));
        let blob = encode_framed(&m, WireCodec::V2);
        assert_eq!(blob.len() as u64, framed_size(&m, WireCodec::V2));
        let back: Mat = decode_framed(&blob, WireCodec::V2).expect("framed decode");
        assert_bits_eq(back.data(), m.data(), "framed Mat");
    }
}

/// Encodes via the v3 fast path, checks the size contract, decodes.
fn roundtrip_v3<T: Wire>(v: &T, quantize: bool) -> T {
    let bytes = v.encode_v3(quantize);
    assert_eq!(
        bytes.len() as u64,
        v.encoded_size_v3(quantize),
        "encoded_size_v3() must equal encode_v3().len()"
    );
    T::decode_v3(&bytes).expect("v3 decode of a fresh encoding must succeed")
}

/// Lossless v3 is bitwise: the integral fast mode only fires when the
/// zigzag re-expansion reproduces the exact f64 bits, so -0.0, NaN and
/// subnormals all fall back to raw mode and survive untouched.
#[test]
fn v3_lossless_roundtrip_is_bitwise() {
    let mut rng = Prng::seed_from_u64(0x51ca_000a);
    for _ in 0..iters() {
        let v: Vec<f64> = (0..rng.index(64)).map(|_| edge_f64(&mut rng)).collect();
        assert_bits_eq(&roundtrip_v3(&v, false), &v, "Vec<f64> v3");

        // Integral-heavy vectors hit the zigzag mode; verify it too.
        let ints: Vec<f64> =
            (0..1 + rng.index(32)).map(|_| (rng.next_u64() >> 40) as f64 - 8000.0).collect();
        assert_bits_eq(&roundtrip_v3(&ints, false), &ints, "Vec<f64> v3 INT");

        let m = Mat::from_fn(rng.index(6), rng.index(6), |_, _| edge_f64(&mut rng));
        assert_bits_eq(roundtrip_v3(&m, false).data(), m.data(), "Mat v3");
    }
    let mut rng = Prng::seed_from_u64(0x51ca_000b);
    for _ in 0..iters() {
        let rows = 1 + rng.index(10);
        let cols = 1 + rng.index(600);
        let entries: Vec<Vec<(u32, f64)>> = (0..rows)
            .map(|_| {
                let k = rng.index((cols / 4).max(2));
                rng.sample_indices(cols, k)
                    .into_iter()
                    .map(|c| {
                        let mut v = edge_f64(&mut rng);
                        if v == 0.0 {
                            v = 1.0;
                        }
                        (c as u32, v)
                    })
                    .collect()
            })
            .collect();
        let m = SparseMat::from_rows(rows, cols, entries);
        assert_sparse_bits_eq(&roundtrip_v3(&m, false), &m);
    }
}

/// The quantized arm rounds each value through f32 — exactly the
/// `f64::from(v as f32)` the decoder applies, nothing else.
#[test]
fn v3_quantized_roundtrip_matches_f32_rounding() {
    let mut rng = Prng::seed_from_u64(0x51ca_000c);
    for _ in 0..iters() {
        let v: Vec<f64> = (0..rng.index(48)).map(|_| rng.normal() * 1e3).collect();
        let back = roundtrip_v3(&v, true);
        let expect: Vec<f64> = v.iter().map(|&x| f64::from(x as f32)).collect();
        assert_bits_eq(&back, &expect, "Vec<f64> v3 quantized");
    }
}

#[test]
fn v3_framed_blobs_roundtrip_and_size_contract_holds() {
    let mut rng = Prng::seed_from_u64(0x51ca_000d);
    for _ in 0..iters().min(16) {
        let m = Mat::from_fn(1 + rng.index(4), 1 + rng.index(4), |_, _| edge_f64(&mut rng));
        let blob = encode_framed(&m, WireCodec::V3);
        assert_eq!(blob.len() as u64, framed_size(&m, WireCodec::V3));
        let back: Mat = decode_framed(&blob, WireCodec::V3).expect("framed v3 decode");
        assert_bits_eq(back.data(), m.data(), "framed v3 Mat");
    }
}

/// Same crash-safety bound as the v1 decoder: damaged v3 bytes must
/// return, never panic or hang — bitpacked widths and payload mode tags
/// are both attacker-controlled here.
#[test]
fn v3_decoder_survives_truncation_and_corruption() {
    let mut rng = Prng::seed_from_u64(0x51ca_000e);
    for _ in 0..iters() {
        let m = SparseMat::from_triplets(
            4,
            512,
            &[(0, 2, 1.0), (1, 0, -2.5), (1, 505, f64::NAN), (3, 77, 1e300)],
        );
        let mut bytes = m.encode_v3(rng.index(2) == 0);
        match rng.index(3) {
            0 => {
                bytes.truncate(rng.index(bytes.len()));
            }
            1 => {
                let i = rng.index(bytes.len());
                bytes[i] ^= 1 << rng.index(8);
            }
            _ => {
                bytes.push(rng.next_u64() as u8);
            }
        }
        let _ = SparseMat::decode_v3(&bytes);
        let _ = Mat::decode_v3(&bytes);
        let _ = Vec::<f64>::decode_v3(&bytes);
    }
}

/// Bounded mutation fuzz: truncating or corrupting a valid encoding must
/// produce a clean `Err` or a different value — never a panic or a hang.
#[test]
fn decoder_survives_truncation_and_corruption() {
    let mut rng = Prng::seed_from_u64(0x51ca_0009);
    for _ in 0..iters() {
        let m = SparseMat::from_triplets(
            4,
            16,
            &[(0, 2, 1.5), (1, 0, -2.5), (1, 15, f64::NAN), (3, 7, 1e300)],
        );
        let mut bytes = m.encode();
        match rng.index(3) {
            0 => {
                bytes.truncate(rng.index(bytes.len()));
            }
            1 => {
                let i = rng.index(bytes.len());
                bytes[i] ^= 1 << rng.index(8);
            }
            _ => {
                bytes.push(rng.next_u64() as u8);
            }
        }
        // Must return, not panic; both Ok (benign bit flips in a value
        // payload) and Err (structural damage) are acceptable outcomes.
        let _ = SparseMat::decode(&bytes);
        let _ = Mat::decode(&bytes);
        let _ = Vec::<f64>::decode(&bytes);
    }
}

/// The same bound for the two partition-block elements: a damaged buffer
/// decodes to an `Err` or to a block whose cached copy is rebuilt from
/// what was decoded — never a panic, and never a table as wide as a
/// corrupted column count.
#[test]
fn partition_block_decoders_survive_truncation_and_corruption() {
    let mut rng = Prng::seed_from_u64(0x51ca_0011);
    let block = PartitionBlock::new(SparseMat::from_triplets(
        5,
        300,
        &[(0, 2, 1.5), (1, 0, -2.5), (1, 299, f64::NAN), (3, 7, 1e300), (4, 7, -0.5)],
    ));
    let records = RowRecords(block.clone());
    for _ in 0..iters() {
        for mut bytes in [block.encode(), records.encode()] {
            match rng.index(3) {
                0 => bytes.truncate(rng.index(bytes.len())),
                1 => {
                    let i = rng.index(bytes.len());
                    bytes[i] ^= 1 << rng.index(8);
                }
                _ => bytes.push(rng.next_u64() as u8),
            }
            if let Ok(b) = PartitionBlock::decode(&bytes) {
                assert_copy_rebuilt(&b);
            }
            if let Ok(b) = RowRecords::decode(&bytes) {
                assert_copy_rebuilt(&b.0);
            }
        }
    }
}
