//! Chaos-determinism properties of the fault-domain subsystem.
//!
//! The contract under test: a fault plan changes *when* work happens and
//! *what it costs* — never *what is computed*. Concretely:
//!
//! 1. **Bitwise fault transparency** — `fit()` under node crashes,
//!    stragglers and speculation produces a model whose every `f64` is
//!    bit-identical to the fault-free run, on both engines. Lineage
//!    recomputation (Spark) and split re-execution (MapReduce) are exact,
//!    not approximate.
//! 2. **Host-pool independence** — the recovery-event log and the fitted
//!    model are identical whether the simulation runs on 1, 2 or 8 host
//!    worker threads. Fault handling keys off stage indices, never off
//!    measured wall time.
//! 3. **Checkpoint transparency** — a run killed mid-loop and resumed
//!    from its DFS checkpoint converges to the bit-identical model of the
//!    uninterrupted run, on both engines.

use std::sync::Arc;

use dcluster::{ClusterConfig, FaultPlan, FaultSpec, RecoveryEvent, SimCluster};
use linalg::{Prng, SparseMat, WorkerPool};
use spca_core::checkpoint::CHECKPOINT_FILE;
use spca_core::{Spca, SpcaConfig, SpcaError, SpcaRun};

fn test_matrix(seed: u64) -> SparseMat {
    let mut rng = Prng::seed_from_u64(seed);
    let spec = datasets::LowRankSpec::small_test();
    datasets::sparse_lowrank(&spec, &mut rng)
}

fn cluster() -> SimCluster {
    SimCluster::new(ClusterConfig::paper_cluster())
}

/// Every f64 of the fitted model, as raw bits — equality here is the
/// paper-faithful "recovery is exact" claim, not an epsilon comparison.
fn model_bits(run: &SpcaRun) -> (Vec<u64>, Vec<u64>, u64) {
    (
        run.model.components().data().iter().map(|v| v.to_bits()).collect(),
        run.model.mean().iter().map(|v| v.to_bits()).collect(),
        run.model.noise_variance().to_bits(),
    )
}

/// Stragglers and speculation on every stage, plus a plan that kills 3 of
/// the 8 paper-cluster nodes (1, 5 and 3) at the given global stage indices.
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

/// The crashes on Spark, which runs meanJob and FnormJob as stages 0 and 1,
/// then one `YtXJob` per EM iteration: nodes 1 and 5 die in iteration 1's,
/// node 3 in iteration 2's.
const SPARK_CRASHES: [u64; 3] = [2, 2, 3];
/// The crashes on MapReduce, where every job is a map and a reduce stage:
/// nodes 1 and 5 die in FnormJob's map and reduce, node 3 in iteration 1's
/// `YtXJob` reduce.
const MR_CRASHES: [u64; 3] = [2, 3, 5];

fn count_kind(log: &[RecoveryEvent], kind: &str) -> usize {
    log.iter().filter(|e| e.kind() == kind).count()
}

#[test]
fn spark_fit_under_chaos_is_bitwise_identical_to_fault_free() {
    let y = test_matrix(11);
    let config = SpcaConfig::new(3).with_max_iters(5).with_rel_tolerance(None);

    let clean = Spca::new(config.clone()).fit_spark(&cluster(), &y).unwrap();

    let faulty_cluster = cluster();
    let (spec, plan) = chaos_spec_and_plan(SPARK_CRASHES);
    faulty_cluster.install_fault_plan(spec, plan).unwrap();
    let faulty = Spca::new(config).fit_spark(&faulty_cluster, &y).unwrap();

    assert_eq!(model_bits(&clean), model_bits(&faulty), "crashes changed the Spark model");

    let log = faulty_cluster.recovery_log();
    assert_eq!(count_kind(&log, "node_crashed"), 3);
    assert!(
        count_kind(&log, "partition_recomputed") > 0,
        "a crash must trigger lineage recomputation of cached partitions"
    );
    assert!(count_kind(&log, "task_reattempted") > 0);
    // Recovery costs time: the faulty run is slower, never faster.
    assert!(faulty.virtual_time_secs > clean.virtual_time_secs);
}

#[test]
fn spark_randomized_fit_rebuilds_its_cached_blocks_bitwise() {
    // The randomized passes gather `YᵀP` through each cached block's
    // column-major copy: a partition rebuilt from lineage must bring back
    // the same copy, or the model hash moves.
    let y = test_matrix(12);
    let config = SpcaConfig::new(3)
        .with_algorithm(spca_core::Algorithm::Randomized)
        .with_rpca_power_iters(3)
        .with_rel_tolerance(None);
    let clean = Spca::new(config.clone()).fit_spark(&cluster(), &y).unwrap();
    let faulty_cluster = cluster();
    let plan = FaultPlan::new().with_crash(2, 2).with_crash(6, 3);
    faulty_cluster.install_fault_plan(FaultSpec::new(0xb10c), plan).unwrap();
    let faulty = Spca::new(config).fit_spark(&faulty_cluster, &y).unwrap();
    assert_eq!(clean.model.content_hash(), faulty.model.content_hash());
    assert!(count_kind(&faulty_cluster.recovery_log(), "partition_recomputed") > 0);
}

#[test]
fn spark_fit_folding_partials_in_blocks_survives_crashes_bitwise() {
    // Partitions of 100 rows × ~400 entries can touch all D = 20 000
    // columns, which at d = 16 sizes the driver's `YtXJob` fold at blocks of
    // four partials: 13 partitions fold in three blocks while the stage
    // runs and collapse at the end. Crashed partitions are rebuilt from
    // lineage and re-run inside the stage the fold is consuming.
    let spec = datasets::LowRankSpec { words_per_row: 400.0, ..datasets::tweets::spec(1_300, 20_000) };
    let y = datasets::sparse_lowrank(&spec, &mut Prng::seed_from_u64(30));
    let config = SpcaConfig::new(16).with_max_iters(3).with_rel_tolerance(None).with_partitions(13);
    let clean = Spca::new(config.clone()).fit_spark(&cluster(), &y).unwrap();
    let faulty_cluster = cluster();
    let (spec, plan) = chaos_spec_and_plan(SPARK_CRASHES);
    faulty_cluster.install_fault_plan(spec, plan).unwrap();
    let faulty = Spca::new(config).fit_spark(&faulty_cluster, &y).unwrap();
    assert_eq!(model_bits(&clean), model_bits(&faulty), "crashes changed the Spark model");
    assert!(count_kind(&faulty_cluster.recovery_log(), "partition_recomputed") > 0);
}

#[test]
fn mapreduce_fit_under_chaos_is_bitwise_identical_to_fault_free() {
    let y = test_matrix(12);
    let config = SpcaConfig::new(3).with_max_iters(4).with_rel_tolerance(None);

    let clean = Spca::new(config.clone()).fit_mapreduce(&cluster(), &y).unwrap();

    let faulty_cluster = cluster();
    let (spec, plan) = chaos_spec_and_plan(MR_CRASHES);
    faulty_cluster.install_fault_plan(spec, plan).unwrap();
    let faulty = Spca::new(config).fit_mapreduce(&faulty_cluster, &y).unwrap();

    assert_eq!(model_bits(&clean), model_bits(&faulty), "crashes changed the MapReduce model");

    let log = faulty_cluster.recovery_log();
    assert_eq!(count_kind(&log, "node_crashed"), 3);
    assert!(count_kind(&log, "task_reattempted") > 0, "killed map/reduce tasks must re-execute");
    // MapReduce recovers by re-reading materialized splits, not lineage.
    assert_eq!(count_kind(&log, "partition_recomputed"), 0);
    assert!(faulty.virtual_time_secs > clean.virtual_time_secs);
}

#[test]
fn generated_plans_are_deterministic_and_respect_the_rate() {
    let spec = FaultSpec::new(77).with_node_crash_rate(0.25).with_crash_horizon_stages(6);
    let a = FaultPlan::generate(&spec, 8);
    let b = FaultPlan::generate(&spec, 8);
    assert_eq!(a.events(), b.events(), "same spec must generate the same plan");
    assert_eq!(a.events().len(), 2, "25% of 8 nodes");
}

#[test]
fn recovery_log_and_model_identical_across_host_pools() {
    let y = test_matrix(13);
    let config = SpcaConfig::new(2).with_max_iters(4).with_rel_tolerance(None);

    let run_with = |workers: usize| {
        let c = SimCluster::new_with_pool(
            ClusterConfig::paper_cluster(),
            Arc::new(WorkerPool::new(workers)),
        );
        let (spec, plan) = chaos_spec_and_plan(SPARK_CRASHES);
        c.install_fault_plan(spec, plan).unwrap();
        let run = Spca::new(config.clone()).fit_spark(&c, &y).unwrap();
        // Virtual time is derived from *measured* task durations, so it is
        // not bit-stable across pools — the structural outputs must be.
        (c.recovery_log(), model_bits(&run))
    };

    let base = run_with(1);
    for workers in [2, 8] {
        let other = run_with(workers);
        assert_eq!(base.0, other.0, "recovery log diverged at {workers} workers");
        assert_eq!(base.1, other.1, "model diverged at {workers} workers");
    }
}

#[test]
fn spark_checkpoint_resume_is_bitwise_equal_to_uninterrupted_run() {
    let y = test_matrix(14);
    let config = SpcaConfig::new(3).with_max_iters(6).with_checkpoint_every(2);

    let clean = Spca::new(config.clone()).fit_spark(&cluster(), &y).unwrap();

    let c = cluster();
    let crashing = config.clone().with_crash_at_iteration(3);
    match Spca::new(crashing).fit_spark(&c, &y) {
        Err(SpcaError::DriverCrashed { iteration: 3 }) => {}
        other => panic!("expected a driver crash at iteration 3, got {other:?}"),
    }
    assert!(
        c.dfs().stat(CHECKPOINT_FILE).is_some(),
        "the crash must leave a checkpoint on the DFS"
    );

    // Same config, same cluster, no crash: resumes from iteration 3.
    let resumed = Spca::new(config).fit_spark(&c, &y).unwrap();
    assert_eq!(model_bits(&clean), model_bits(&resumed), "resume diverged from clean run");
    assert!(
        resumed.iterations.first().map(|it| it.iteration) >= Some(3),
        "the resumed run must not redo checkpointed iterations"
    );
    let log = c.recovery_log();
    assert!(count_kind(&log, "checkpoint_written") >= 2);
    assert_eq!(count_kind(&log, "checkpoint_restored"), 1);
    assert!(c.dfs().stat(CHECKPOINT_FILE).is_none(), "a completed run removes its checkpoint");
}

#[test]
fn mapreduce_checkpoint_resume_is_bitwise_equal_to_uninterrupted_run() {
    let y = test_matrix(15);
    let config =
        SpcaConfig::new(3).with_max_iters(5).with_rel_tolerance(None).with_checkpoint_every(1);

    let clean = Spca::new(config.clone()).fit_mapreduce(&cluster(), &y).unwrap();

    let c = cluster();
    let crashing = config.clone().with_crash_at_iteration(2);
    assert!(matches!(
        Spca::new(crashing).fit_mapreduce(&c, &y),
        Err(SpcaError::DriverCrashed { iteration: 2 })
    ));
    let resumed = Spca::new(config).fit_mapreduce(&c, &y).unwrap();
    assert_eq!(model_bits(&clean), model_bits(&resumed), "resume diverged from clean run");
}

#[test]
fn checkpoint_resume_survives_node_crashes_too() {
    // Crash-of-driver and crash-of-nodes composed: still bit-identical.
    let y = test_matrix(16);
    let config = SpcaConfig::new(2).with_max_iters(4).with_rel_tolerance(None);

    let clean = Spca::new(config.clone()).fit_spark(&cluster(), &y).unwrap();

    let c = cluster();
    let (spec, plan) = chaos_spec_and_plan(SPARK_CRASHES);
    c.install_fault_plan(spec, plan).unwrap();
    let ckpt = config.clone().with_checkpoint_every(1);
    assert!(matches!(
        Spca::new(ckpt.clone().with_crash_at_iteration(2)).fit_spark(&c, &y),
        Err(SpcaError::DriverCrashed { iteration: 2 })
    ));
    let resumed = Spca::new(ckpt).fit_spark(&c, &y).unwrap();
    assert_eq!(model_bits(&clean), model_bits(&resumed));
}

#[test]
fn smart_guess_under_chaos_stays_bitwise_deterministic() {
    // The warm-up run shares the cluster (and its fault plan) with the
    // main run; faults during either phase must still be transparent.
    let y = test_matrix(17);
    let config = SpcaConfig::new(3)
        .with_max_iters(4)
        .with_rel_tolerance(None)
        .with_smart_guess(spca_core::config::SmartGuess::default());

    let clean = Spca::new(config.clone()).fit_spark(&cluster(), &y).unwrap();

    let c = cluster();
    let (spec, plan) = chaos_spec_and_plan(SPARK_CRASHES);
    c.install_fault_plan(spec, plan).unwrap();
    let faulty = Spca::new(config).fit_spark(&c, &y).unwrap();
    assert_eq!(model_bits(&clean), model_bits(&faulty));
}
