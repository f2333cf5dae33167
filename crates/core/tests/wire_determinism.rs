//! Differential determinism of the wire codec.
//!
//! The sizing policy decides *what the meters charge* — never *what is
//! computed*. These tests pin that contract from both sides:
//!
//! 1. **Codec transparency** — `fit()` with the real wire codec
//!    (`Sizing::Encoded`, the default) produces a model bitwise identical
//!    to the legacy estimated-size path, on both engines. Encoding values
//!    for metering must never perturb the arithmetic.
//! 2. **Meter divergence** — the same pair of runs must *disagree* on
//!    intermediate bytes (and the encoded run must be cheaper at these
//!    shapes), proving the codec is actually engaged rather than silently
//!    falling back to estimates.
//! 3. **Composition** — the equivalence holds across 1/2/8 host worker
//!    threads and under the chaos fault plan from `faults.rs`.
//! 4. **Durability** — the encoded checkpoint blob on the DFS survives a
//!    node crash, is re-replicated at its encoded length, and still
//!    decodes bitwise afterwards.

use std::sync::Arc;

use dcluster::{ClusterConfig, FaultPlan, FaultSpec, SimCluster};
use linalg::{Prng, SparseMat, WorkerPool};
use spca_core::checkpoint::{EmCheckpoint, CHECKPOINT_FILE};
use spca_core::{Spca, SpcaConfig, SpcaError, SpcaRun};

fn test_matrix(seed: u64) -> SparseMat {
    let mut rng = Prng::seed_from_u64(seed);
    let spec = datasets::LowRankSpec::small_test();
    datasets::sparse_lowrank(&spec, &mut rng)
}

fn encoded_cluster() -> SimCluster {
    SimCluster::new(ClusterConfig::paper_cluster())
}

fn estimated_cluster() -> SimCluster {
    SimCluster::new(ClusterConfig::paper_cluster().with_estimated_sizes())
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
fn spark_fit_is_bitwise_identical_across_sizing_policies() {
    let y = test_matrix(41);
    let config = SpcaConfig::new(3).with_max_iters(5).with_rel_tolerance(None);

    let encoded = Spca::new(config.clone()).fit_spark(&encoded_cluster(), &y).unwrap();
    let estimated = Spca::new(config).fit_spark(&estimated_cluster(), &y).unwrap();

    assert_eq!(
        model_bits(&encoded),
        model_bits(&estimated),
        "the sizing policy leaked into the Spark arithmetic"
    );
    assert_eq!(encoded.iterations.len(), estimated.iterations.len());
    assert_ne!(
        encoded.intermediate_bytes, estimated.intermediate_bytes,
        "identical byte totals mean the codec never engaged"
    );
    assert!(
        encoded.intermediate_bytes < estimated.intermediate_bytes,
        "varint + delta encoding must beat the flat estimate at paper shapes \
         ({} encoded vs {} estimated)",
        encoded.intermediate_bytes,
        estimated.intermediate_bytes
    );
}

#[test]
fn mapreduce_fit_is_bitwise_identical_across_sizing_policies() {
    let y = test_matrix(42);
    let config = SpcaConfig::new(3).with_max_iters(4).with_rel_tolerance(None);

    let encoded = Spca::new(config.clone()).fit_mapreduce(&encoded_cluster(), &y).unwrap();
    let estimated = Spca::new(config).fit_mapreduce(&estimated_cluster(), &y).unwrap();

    assert_eq!(
        model_bits(&encoded),
        model_bits(&estimated),
        "the sizing policy leaked into the MapReduce arithmetic"
    );
    assert_ne!(encoded.intermediate_bytes, estimated.intermediate_bytes);
    assert!(encoded.intermediate_bytes < estimated.intermediate_bytes);
}

#[test]
fn mapreduce_sizing_equivalence_survives_chaos() {
    let y = test_matrix(43);
    let config = SpcaConfig::new(2).with_max_iters(4).with_rel_tolerance(None);

    let run_with = |cfg: ClusterConfig| {
        let c = SimCluster::new(cfg);
        let (spec, plan) = chaos_spec_and_plan(MR_CRASHES);
        c.install_fault_plan(spec, plan).unwrap();
        let run = Spca::new(config.clone()).fit_mapreduce(&c, &y).unwrap();
        (c.recovery_log(), model_bits(&run))
    };

    let encoded = run_with(ClusterConfig::paper_cluster());
    let estimated = run_with(ClusterConfig::paper_cluster().with_estimated_sizes());
    assert_eq!(encoded.0, estimated.0, "fault recovery diverged across sizing policies");
    assert_eq!(encoded.1, estimated.1, "MapReduce model diverged under chaos");
}

#[test]
fn sizing_equivalence_survives_worker_pools_and_chaos() {
    let y = test_matrix(44);
    let config = SpcaConfig::new(2).with_max_iters(4).with_rel_tolerance(None);

    let run_with = |workers: usize, cfg: ClusterConfig| {
        let c = SimCluster::new_with_pool(cfg, Arc::new(WorkerPool::new(workers)));
        let (spec, plan) = chaos_spec_and_plan(SPARK_CRASHES);
        c.install_fault_plan(spec, plan).unwrap();
        let run = Spca::new(config.clone()).fit_spark(&c, &y).unwrap();
        (c.recovery_log(), model_bits(&run))
    };

    let base = run_with(1, ClusterConfig::paper_cluster());
    for workers in [1, 2, 8] {
        for estimated in [false, true] {
            let cfg = if estimated {
                ClusterConfig::paper_cluster().with_estimated_sizes()
            } else {
                ClusterConfig::paper_cluster()
            };
            let other = run_with(workers, cfg);
            assert_eq!(
                base.0, other.0,
                "recovery log diverged at {workers} workers (estimated={estimated})"
            );
            assert_eq!(
                base.1, other.1,
                "model diverged at {workers} workers (estimated={estimated})"
            );
        }
    }
}

#[test]
fn encoded_checkpoint_survives_crash_and_re_replication_then_decodes() {
    let y = test_matrix(45);
    let c = encoded_cluster();
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
