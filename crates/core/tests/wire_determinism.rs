//! Differential determinism of the wire codec.
//!
//! The shuffle codec decides *what the meters charge* — never *what is
//! computed*. These tests pin that contract from both sides:
//!
//! 1. **Codec transparency** — `fit()` under the v2, v3 and quantized v3
//!    shuffle codecs produces bitwise the same model, on both engines.
//!    Encoding values for metering must never perturb the arithmetic.
//! 2. **Meter divergence** — the quantized run must charge fewer
//!    intermediate bytes than the v2 one, proving the codec is actually
//!    engaged rather than silently falling back to v2.
//! 3. **Composition** — the equivalence holds across 1/2/8 host worker
//!    threads and under the chaos fault plan from `faults.rs`.
//! 4. **Durability** — the encoded checkpoint blob on the DFS survives a
//!    node crash, is re-replicated at its encoded length, and still
//!    decodes bitwise afterwards.

use std::sync::Arc;

use dcluster::{ClusterConfig, FaultPlan, FaultSpec, SimCluster};
use linalg::{Prng, SparseMat, WireCodec, WorkerPool};
use spca_core::checkpoint::{EmCheckpoint, CHECKPOINT_FILE};
use spca_core::{Spca, SpcaConfig, SpcaError, SpcaRun};

fn test_matrix(seed: u64) -> SparseMat {
    let mut rng = Prng::seed_from_u64(seed);
    let spec = datasets::LowRankSpec::small_test();
    datasets::sparse_lowrank(&spec, &mut rng)
}

const CODECS: [WireCodec; 3] = [WireCodec::V2, WireCodec::V3, WireCodec::V3Quantized];

fn codec_cluster(codec: WireCodec) -> SimCluster {
    SimCluster::new(ClusterConfig::paper_cluster().with_wire_codec(codec))
}

fn model_bits(run: &SpcaRun) -> (Vec<u64>, Vec<u64>, u64) {
    (
        run.model.components().data().iter().map(|v| v.to_bits()).collect(),
        run.model.mean().iter().map(|v| v.to_bits()).collect(),
        run.model.noise_variance().to_bits(),
    )
}

/// The chaos plan from `faults.rs`: three node crashes at `crashes` plus
/// stragglers and speculation on every stage.
fn chaos_spec_and_plan(crashes: [u64; 3]) -> (FaultSpec, FaultPlan) {
    let spec = FaultSpec::new(0xfau64)
        .with_straggler_rate(0.2)
        .with_straggler_slowdown(5.0)
        .with_speculation(true);
    let plan = FaultPlan::new()
        .with_crash(1, crashes[0])
        .with_crash(5, crashes[1])
        .with_crash(3, crashes[2]);
    (spec, plan)
}

/// Spark: nodes 1 and 5 die in EM iteration 1's `YtXJob` (stage 2), node 3
/// in iteration 2's. MapReduce: in FnormJob's map and reduce, and in
/// iteration 1's `YtXJob` reduce.
const SPARK_CRASHES: [u64; 3] = [2, 2, 3];
const MR_CRASHES: [u64; 3] = [2, 3, 5];

#[test]
fn spark_fit_is_bitwise_identical_across_codecs() {
    let y = test_matrix(41);
    let config = SpcaConfig::new(3).with_max_iters(5).with_rel_tolerance(None);

    let runs =
        CODECS.map(|codec| Spca::new(config.clone()).fit_spark(&codec_cluster(codec), &y).unwrap());
    let v2 = &runs[0];
    for (codec, run) in CODECS.iter().zip(&runs) {
        assert_eq!(
            model_bits(v2),
            model_bits(run),
            "the {codec} codec leaked into the Spark arithmetic"
        );
        assert_eq!(v2.iterations.len(), run.iterations.len());
    }
    let v3q = &runs[2];
    assert!(
        v3q.intermediate_bytes < v2.intermediate_bytes,
        "f32 payloads must undercut raw f64 ones ({} v3q vs {} v2): \
         equal totals mean the codec never engaged",
        v3q.intermediate_bytes,
        v2.intermediate_bytes
    );
}

/// The one-time jobs' accumulators are priced under the cluster's codec
/// like every other shuffle record: a fit that runs only `meanJob` and
/// `FnormJob` moves, from codec to codec, exactly the difference in the
/// wire sizes of their partials — each partition's column sums as a
/// `Vec<f64>` and its Algorithm 3 term as an `f64`.
#[test]
fn spark_one_time_jobs_price_their_accumulators_under_the_codec() {
    let y = test_matrix(43);
    let parts = 8;
    let config = SpcaConfig::new(3).with_max_iters(0).with_partitions(parts);
    let runs =
        CODECS.map(|codec| Spca::new(config.clone()).fit_spark(&codec_cluster(codec), &y).unwrap());
    let mean = runs[0].model.mean();
    let msum = linalg::vector::norm2_sq(mean);
    let blocks = y.split_rows(parts);
    let partials_size = |codec: WireCodec| -> u64 {
        blocks
            .iter()
            .map(|b| {
                let fnorm = 0.0 + spca_core::frobenius::centered_sq_block(b, mean, msum);
                codec.shuffle_size(&b.col_sums()) + codec.shuffle_size(&fnorm)
            })
            .sum()
    };
    let fixed = runs[0].intermediate_bytes - partials_size(WireCodec::V2);
    for (codec, run) in CODECS.iter().zip(&runs) {
        assert_eq!(
            run.intermediate_bytes,
            fixed + partials_size(*codec),
            "{codec}: meanJob/FnormJob partials priced as something else"
        );
    }
    assert!(runs[2].intermediate_bytes < runs[1].intermediate_bytes);
}

#[test]
fn mapreduce_fit_is_bitwise_identical_across_codecs() {
    let y = test_matrix(42);
    let config = SpcaConfig::new(3).with_max_iters(4).with_rel_tolerance(None);

    let runs = CODECS.map(|codec| {
        Spca::new(config.clone()).fit_mapreduce(&codec_cluster(codec), &y).unwrap()
    });
    for (codec, run) in CODECS.iter().zip(&runs) {
        assert_eq!(
            model_bits(&runs[0]),
            model_bits(run),
            "the {codec} codec leaked into the MapReduce arithmetic"
        );
    }
    assert!(runs[2].intermediate_bytes < runs[0].intermediate_bytes);
}

#[test]
fn mapreduce_codec_equivalence_survives_chaos() {
    let y = test_matrix(43);
    let config = SpcaConfig::new(2).with_max_iters(4).with_rel_tolerance(None);

    let run_with = |codec: WireCodec| {
        let c = codec_cluster(codec);
        let (spec, plan) = chaos_spec_and_plan(MR_CRASHES);
        c.install_fault_plan(spec, plan).unwrap();
        let run = Spca::new(config.clone()).fit_mapreduce(&c, &y).unwrap();
        (c.recovery_log(), model_bits(&run))
    };

    let base = run_with(WireCodec::V2);
    for codec in CODECS {
        let other = run_with(codec);
        assert_eq!(base.0, other.0, "fault recovery diverged under the {codec} codec");
        assert_eq!(base.1, other.1, "MapReduce model diverged under chaos and the {codec} codec");
    }
}

#[test]
fn codec_equivalence_survives_worker_pools_and_chaos() {
    let y = test_matrix(44);
    let config = SpcaConfig::new(2).with_max_iters(4).with_rel_tolerance(None);

    let run_with = |workers: usize, codec: WireCodec| {
        let cfg = ClusterConfig::paper_cluster().with_wire_codec(codec);
        let c = SimCluster::new_with_pool(cfg, Arc::new(WorkerPool::new(workers)));
        let (spec, plan) = chaos_spec_and_plan(SPARK_CRASHES);
        c.install_fault_plan(spec, plan).unwrap();
        let run = Spca::new(config.clone()).fit_spark(&c, &y).unwrap();
        (c.recovery_log(), model_bits(&run))
    };

    let base = run_with(1, WireCodec::V2);
    for workers in [1, 2, 8] {
        for codec in CODECS {
            let other = run_with(workers, codec);
            assert_eq!(base.0, other.0, "recovery log diverged at {workers} workers ({codec})");
            assert_eq!(base.1, other.1, "model diverged at {workers} workers ({codec})");
        }
    }
}

#[test]
fn encoded_checkpoint_survives_crash_and_re_replication_then_decodes() {
    let y = test_matrix(45);
    let c = codec_cluster(WireCodec::V2);
    let config = SpcaConfig::new(3)
        .with_max_iters(6)
        .with_checkpoint_every(2)
        .with_crash_at_iteration(3);

    // Crash the driver mid-fit, leaving the encoded checkpoint on the DFS.
    assert!(matches!(
        Spca::new(config).fit_spark(&c, &y),
        Err(SpcaError::DriverCrashed { iteration: 3 })
    ));

    let blob_before = c.dfs().get_blob(&c, CHECKPOINT_FILE).expect("checkpoint blob");
    assert_eq!(&blob_before[..8], b"SPCACKPT", "checkpoint blob leads with its magic");
    let before = EmCheckpoint::decode_arc(&blob_before).expect("blob decodes before crash");
    assert_eq!(
        blob_before.len() as u64,
        before.encoded_size(),
        "stored blob length must equal the codec's stated size"
    );

    // Kill a node holding a replica: the block must be re-replicated at its
    // encoded length, and the surviving copy must still decode bitwise.
    let replicas = c.dfs().replicas(CHECKPOINT_FILE).expect("replica set");
    assert!(replicas.len() >= 2, "paper cluster replicates the checkpoint");
    let victim = replicas[0];
    let (events, replication_bytes) = c.dfs().on_node_crash(&c, victim);
    assert!(
        events.iter().any(|e| e.kind() == "block_re_replicated"),
        "losing one replica must trigger re-replication, got {events:?}"
    );
    assert!(
        replication_bytes >= blob_before.len() as u64,
        "re-replication is charged at the encoded block size"
    );
    let now = c.dfs().replicas(CHECKPOINT_FILE).expect("still present");
    assert!(!now.contains(&victim), "the crashed node no longer holds a copy");

    let blob_after = c.dfs().get_blob(&c, CHECKPOINT_FILE).expect("blob after re-replication");
    assert_eq!(*blob_after, *blob_before, "re-replication must not rewrite the bytes");
    let after = EmCheckpoint::decode_arc(&blob_after).expect("blob decodes after re-replication");
    assert_eq!(after.iteration, before.iteration);
    assert_eq!(
        after.c.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        before.c.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
    );
    assert_eq!(after.ss.to_bits(), before.ss.to_bits());
    assert_eq!(after.prev_error.to_bits(), before.prev_error.to_bits());
}
