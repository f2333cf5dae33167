//! Wire-codec benchmark: encoded bytes-per-record under each codec, at
//! the paper's dataset shapes.
//!
//! For each dataset (Bio-Text, Tweets) the harness measures every record
//! family the meters ship — sparse input blocks, dense latent rows, the
//! broadcast `CM` matrix, and the EM checkpoint blob — reporting the
//! encoded size (what the meters charge) and encode/decode throughput,
//! then the v2 / v3 / v3q size of each shuffle family. It ends with the
//! `intermediate_bytes` of a short MapReduce fit, and of a short Spark fit
//! under each shuffle codec.
//!
//! Three invariants are asserted on the way:
//!   * `encoded_size() == encode().len()` for every measured record;
//!   * decoded records are bitwise identical to their sources;
//!   * lossless v3 at least halves the sparse input blocks.
//!
//! Usage:
//!   bench_wire                # paper shapes, writes BENCH_wire.json
//!   bench_wire --smoke        # small shapes, quick CI sanity run
//!   bench_wire --out FILE     # override the output path

use std::time::Instant;

use dcluster::{ClusterConfig, SimCluster};
use linalg::wire::Wire;
use linalg::{Prng, SparseMat};
use spca_bench::data;
use spca_core::checkpoint::EmCheckpoint;
use spca_core::{Spca, SpcaConfig};

/// One record family's accounting.
struct Line {
    kind: &'static str,
    count: u64,
    encoded: u64,
    encode_secs: f64,
    decode_secs: f64,
}

impl Line {
    fn json(&self) -> String {
        let per_rec = |total: u64| total as f64 / self.count.max(1) as f64;
        format!(
            "{{\"kind\": \"{}\", \"count\": {}, \"encoded_bytes\": {}, \
             \"encoded_per_record\": {:.1}, \
             \"encode_mb_per_sec\": {:.1}, \"decode_mb_per_sec\": {:.1}}}",
            self.kind,
            self.count,
            self.encoded,
            per_rec(self.encoded),
            self.encoded as f64 / 1e6 / self.encode_secs.max(1e-12),
            self.encoded as f64 / 1e6 / self.decode_secs.max(1e-12),
        )
    }
}

/// Encodes every record, checking the size contract and a bitwise decode,
/// and returns the family's totals.
fn measure<T: Wire + PartialEq>(kind: &'static str, records: &[T]) -> Line {
    let encoded: u64 = records.iter().map(Wire::encoded_size).sum();

    let start = Instant::now();
    let blobs: Vec<Vec<u8>> = records.iter().map(Wire::encode).collect();
    let encode_secs = start.elapsed().as_secs_f64();
    let actual: u64 = blobs.iter().map(|b| b.len() as u64).sum();
    assert_eq!(encoded, actual, "{kind}: encoded_size() drifted from encode().len()");

    let start = Instant::now();
    for (record, blob) in records.iter().zip(&blobs) {
        let back = T::decode(blob).expect("fresh encoding must decode");
        assert!(&back == record, "{kind}: decode is not the identity");
    }
    let decode_secs = start.elapsed().as_secs_f64();

    Line { kind, count: records.len() as u64, encoded, encode_secs, decode_secs }
}

/// Per-codec totals for one shuffle record family — v2 (lossless framed),
/// v3 (bitpacked lossless), v3q (bitpacked + f32 payloads) — with the v3
/// size/round-trip contracts asserted on every record.
struct CodecLine {
    kind: &'static str,
    v2: u64,
    v3: u64,
    v3q: u64,
}

impl CodecLine {
    fn json(&self) -> String {
        format!(
            "{{\"kind\": \"{}\", \"v2_bytes\": {}, \"v3_bytes\": {}, \"v3q_bytes\": {}, \
             \"v2_over_v3\": {:.3}, \"v2_over_v3q\": {:.3}}}",
            self.kind,
            self.v2,
            self.v3,
            self.v3q,
            self.v2 as f64 / self.v3.max(1) as f64,
            self.v2 as f64 / self.v3q.max(1) as f64,
        )
    }
}

fn measure_codecs<T: Wire + PartialEq>(kind: &'static str, records: &[T]) -> CodecLine {
    let v2: u64 = records.iter().map(Wire::encoded_size).sum();
    let mut v3 = 0u64;
    let mut v3q = 0u64;
    for r in records {
        let blob = r.encode_v3(false);
        assert_eq!(blob.len() as u64, r.encoded_size_v3(false), "{kind}: v3 size contract");
        let back = T::decode_v3(&blob).expect("fresh v3 encoding must decode");
        assert!(&back == r, "{kind}: lossless v3 decode is not the identity");
        v3 += blob.len() as u64;
        let qblob = r.encode_v3(true);
        assert_eq!(qblob.len() as u64, r.encoded_size_v3(true), "{kind}: v3q size contract");
        T::decode_v3(&qblob).expect("fresh v3q encoding must decode");
        v3q += qblob.len() as u64;
    }
    CodecLine { kind, v2, v3, v3q }
}

/// `intermediate_bytes` of a short Spark fit with the given shuffle codec.
fn fit_intermediate_codec(
    codec: linalg::WireCodec,
    y: &SparseMat,
    d: usize,
    iters: usize,
) -> u64 {
    let cluster = SimCluster::new(ClusterConfig::paper_cluster().with_wire_codec(codec));
    let run = Spca::new(
        SpcaConfig::new(d)
            .with_max_iters(iters)
            .with_rel_tolerance(None)
            .with_partitions(8)
            .with_seed(7),
    )
    .fit_spark(&cluster, y)
    .expect("bench fit");
    run.intermediate_bytes
}

/// `intermediate_bytes` of a short MapReduce fit.
fn fit_intermediate(y: &SparseMat, d: usize, iters: usize) -> u64 {
    let cluster = SimCluster::new(ClusterConfig::paper_cluster());
    let run = Spca::new(
        SpcaConfig::new(d)
            .with_max_iters(iters)
            .with_rel_tolerance(None)
            .with_partitions(8)
            .with_seed(7),
    )
    .fit_mapreduce(&cluster, y)
    .expect("bench fit");
    run.intermediate_bytes
}

fn main() {
    let (_trace, smoke, out_path) = spca_bench::cli::bench_args(
        "bench_wire",
        "Wire-codec benchmark: encoded bytes-per-record under each codec",
        "Small shapes (quick CI sanity run)",
        &[],
    );

    // The Section 5.2 shapes (`paper`'s intermediate_data experiment uses the same), shrunk
    // proportionally for the smoke gate.
    let (cases, d, iters, partitions) = if smoke {
        (
            vec![("Bio-Text", data::biotext(2_000, 800, 2)), ("Tweets", data::tweets(3_000, 600, 1))],
            8,
            2,
            8,
        )
    } else {
        (
            vec![
                ("Bio-Text", data::biotext(50_000, 10_000, 2)),
                ("Tweets", data::tweets(300_000, 8_000, 1)),
            ],
            spca_bench::D_COMPONENTS,
            3,
            8,
        )
    };

    let mut dataset_jsons = Vec::new();
    for (name, y) in &cases {
        let mut rng = Prng::seed_from_u64(0x17e);
        println!(
            "{name}: {}x{} ({} nnz, {:.2e} dense)",
            y.rows(),
            y.cols(),
            y.nnz(),
            y.nnz() as f64 / (y.rows() as f64 * y.cols() as f64)
        );

        // The families every metered path ships, at this dataset's shape.
        let blocks = y.split_rows(partitions);
        let latent_rows: Vec<Vec<f64>> =
            (0..256.min(y.rows())).map(|_| (0..d).map(|_| rng.normal()).collect()).collect();
        let cm = vec![rng.normal_mat(y.cols(), d)];
        let ckpt = vec![EmCheckpoint {
            iteration: iters,
            c: rng.normal_mat(y.cols(), d),
            ss: 0.137,
            prev_error: 1.618,
        }];

        let lines = vec![
            measure("input_block", &blocks),
            measure("latent_row", &latent_rows),
            measure("broadcast_cm", &cm),
            checkpoint_line(&ckpt[0]),
        ];
        for l in &lines {
            println!("  {:>12}: {:>6} records, {:>12} B encoded", l.kind, l.count, l.encoded);
        }

        // The v3 fast path, family by family. The term-count datasets are
        // integral-valued, so lossless v3 collapses the 8-byte payloads to
        // ~1 byte and bitpacks the index gaps: the acceptance bar is a 2x
        // shrink on the sparse shuffle family without any quantization.
        let codec_lines = vec![
            measure_codecs("input_block", &blocks),
            measure_codecs("latent_row", &latent_rows),
            measure_codecs("broadcast_cm", &cm),
        ];
        for l in &codec_lines {
            println!(
                "  {:>12}: v2 {:>12} B  v3 {:>12} B ({:.3}x)  v3q {:>12} B ({:.3}x)",
                l.kind,
                l.v2,
                l.v3,
                l.v2 as f64 / l.v3.max(1) as f64,
                l.v3q,
                l.v2 as f64 / l.v3q.max(1) as f64,
            );
        }
        let sparse = &codec_lines[0];
        assert!(
            sparse.v3 * 2 <= sparse.v2,
            "{name}: v3 must shrink sparse shuffle records at least 2x \
             (v2={} v3={})",
            sparse.v2,
            sparse.v3
        );

        let enc_fit = fit_intermediate(y, d, iters);
        println!("  fit intermediate: {enc_fit} B encoded");

        // End-to-end: the same short Spark fit under each shuffle codec.
        // The model is codec-invariant; only the byte meters move.
        let fit_v2 = fit_intermediate_codec(linalg::WireCodec::V2, y, d, iters);
        let fit_v3 = fit_intermediate_codec(linalg::WireCodec::V3, y, d, iters);
        let fit_v3q = fit_intermediate_codec(linalg::WireCodec::V3Quantized, y, d, iters);
        assert!(fit_v3 < fit_v2, "{name}: v3 fit must undercut v2");
        assert!(fit_v3q <= fit_v3, "{name}: quantized v3 must never exceed lossless v3");
        println!(
            "  fit by codec: v2 {fit_v2} B  v3 {fit_v3} B ({:.3}x)  v3q {fit_v3q} B ({:.3}x)",
            fit_v2 as f64 / fit_v3 as f64,
            fit_v2 as f64 / fit_v3q as f64,
        );

        let records = lines.iter().map(Line::json).collect::<Vec<_>>().join(",\n      ");
        let codecs = codec_lines.iter().map(CodecLine::json).collect::<Vec<_>>().join(",\n      ");
        dataset_jsons.push(format!(
            "{{\n    \"name\": \"{name}\",\n    \"shape\": {{\"rows\": {}, \"cols\": {}, \"nnz\": {}}},\n    \"records\": [\n      {records}\n    ],\n    \"codecs\": [\n      {codecs}\n    ],\n    \"fit\": {{\"engine\": \"mapreduce\", \"iters\": {iters}, \"encoded_intermediate_bytes\": {enc_fit}}},\n    \"fit_by_codec\": {{\"engine\": \"spark\", \"iters\": {iters}, \"v2_bytes\": {fit_v2}, \"v3_bytes\": {fit_v3}, \"v3q_bytes\": {fit_v3q}, \"v2_over_v3\": {:.3}}}\n  }}",
            y.rows(),
            y.cols(),
            y.nnz(),
            fit_v2 as f64 / fit_v3.max(1) as f64,
        ));
    }

    let json = format!(
        "{{\n  \"mode\": \"{}\",\n  \"components\": {d},\n  \"datasets\": [{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        dataset_jsons.join(", "),
    );
    obs::json::validate(&json).expect("benchmark JSON must be valid");
    std::fs::write(&out_path, &json).expect("write benchmark output");
    println!("wrote {out_path}");
}

/// The checkpoint is framed with its own magic rather than the `Wire`
/// trait, so it gets a bespoke line.
fn checkpoint_line(ck: &EmCheckpoint) -> Line {
    let start = Instant::now();
    let blob = ck.encode();
    let encode_secs = start.elapsed().as_secs_f64();
    assert_eq!(blob.len() as u64, ck.encoded_size(), "checkpoint size contract");
    let start = Instant::now();
    let back = EmCheckpoint::decode(&blob).expect("checkpoint decodes");
    let decode_secs = start.elapsed().as_secs_f64();
    assert_eq!(&back, ck, "checkpoint decode is not the identity");
    Line { kind: "checkpoint", count: 1, encoded: blob.len() as u64, encode_secs, decode_secs }
}
