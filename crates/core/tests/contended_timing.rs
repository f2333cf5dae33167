//! Timing-model invariance of the full sPCA pipeline.
//!
//! The contended discrete-event engine replaces *when* bytes move and how
//! long they take — never *what is computed*. Pinned here:
//!
//! 1. **Model invariance across timing models** — `fit()` produces a
//!    bit-identical model under `Uncontended` and `Contended` timing, on
//!    both engines (the timing model only converts bytes to virtual
//!    seconds; the algorithm never reads the clock).
//! 2. **Host-pool independence under contention** — the contended fit is
//!    bit-identical on 1, 2, and 8 host workers; the event queue orders
//!    by `(virtual time, seq)`, never host time.
//! 3. **Fault composition** — chaos fault plans on the contended engine
//!    (crashes cancel in-flight transfer events and re-enqueue the
//!    reattempts) still produce the fault-free bitwise model.
//! 4. **Byte-meter invariance** — both timing models meter exactly the
//!    same bytes; contended timing additionally reports per-link stats
//!    with utilization ≤ 100 %.

use std::sync::Arc;

use dcluster::{ClusterConfig, FaultPlan, FaultSpec, SimCluster, TimingModel};
use linalg::{Prng, SparseMat, WorkerPool};
use spca_core::{Spca, SpcaConfig, SpcaRun};

fn test_matrix(seed: u64) -> SparseMat {
    let mut rng = Prng::seed_from_u64(seed);
    let spec = datasets::LowRankSpec::small_test();
    datasets::sparse_lowrank(&spec, &mut rng)
}

fn cluster(timing: TimingModel) -> SimCluster {
    SimCluster::new(ClusterConfig::scaled_cluster().with_timing(timing))
}

fn config() -> SpcaConfig {
    SpcaConfig::new(3).with_max_iters(4).with_rel_tolerance(None)
}

fn model_bits(run: &SpcaRun) -> (Vec<u64>, Vec<u64>, u64) {
    (
        run.model.components().data().iter().map(|v| v.to_bits()).collect(),
        run.model.mean().iter().map(|v| v.to_bits()).collect(),
        run.model.noise_variance().to_bits(),
    )
}

#[test]
fn spark_fit_is_bitwise_identical_across_timing_models() {
    let y = test_matrix(21);
    let u = Spca::new(config()).fit_spark(&cluster(TimingModel::Uncontended), &y).unwrap();
    let c = Spca::new(config()).fit_spark(&cluster(TimingModel::Contended), &y).unwrap();
    assert_eq!(model_bits(&u), model_bits(&c), "timing model changed the Spark model");
}

#[test]
fn mapreduce_fit_is_bitwise_identical_across_timing_models() {
    let y = test_matrix(22);
    let u = Spca::new(config()).fit_mapreduce(&cluster(TimingModel::Uncontended), &y).unwrap();
    let c = Spca::new(config()).fit_mapreduce(&cluster(TimingModel::Contended), &y).unwrap();
    assert_eq!(model_bits(&u), model_bits(&c), "timing model changed the MR model");
}

#[test]
fn contended_fit_is_bitwise_identical_across_1_2_8_host_workers() {
    let y = test_matrix(23);
    let fit = |workers: usize, spark: bool| {
        let cl = SimCluster::new_with_pool(
            ClusterConfig::scaled_cluster().with_timing(TimingModel::Contended),
            Arc::new(WorkerPool::new(workers)),
        );
        let run = if spark {
            Spca::new(config()).fit_spark(&cl, &y).unwrap()
        } else {
            Spca::new(config()).fit_mapreduce(&cl, &y).unwrap()
        };
        model_bits(&run)
    };
    for &spark in &[true, false] {
        let one = fit(1, spark);
        assert_eq!(one, fit(2, spark), "spark={spark}: 1 vs 2 workers");
        assert_eq!(one, fit(8, spark), "spark={spark}: 1 vs 8 workers");
    }
}

#[test]
fn contended_byte_meters_match_uncontended_exactly() {
    let y = test_matrix(24);
    let run = |timing| {
        let cl = cluster(timing);
        let _ = Spca::new(config()).fit_spark(&cl, &y).unwrap();
        let m = cl.metrics();
        (m.network_bytes, m.dfs_bytes_written, m.dfs_bytes_read, m.intermediate_bytes)
    };
    assert_eq!(
        run(TimingModel::Uncontended),
        run(TimingModel::Contended),
        "byte meters must be timing-model-invariant"
    );
}

#[test]
fn contended_fit_reports_bounded_link_utilization() {
    let y = test_matrix(25);
    let cl = cluster(TimingModel::Contended);
    let _ = Spca::new(config()).fit_spark(&cl, &y).unwrap();
    let stats = cl.link_stats();
    assert!(!stats.is_empty());
    for l in &stats {
        assert!(l.peak_util <= 1.0 + 1e-9, "link {} at {}", l.label, l.peak_util);
    }
    assert!(stats.iter().any(|l| l.bytes > 0.0), "a fit moves bytes over links");
    let engine = cl.engine_stats().expect("engine stats under contended timing");
    assert!(engine.events > 0 && engine.resolves > 0);
}

#[test]
fn chaos_on_the_contended_engine_is_bitwise_fault_free_identical() {
    let y = test_matrix(26);
    let spec = FaultSpec::new(0xeeu64)
        .with_straggler_rate(0.2)
        .with_straggler_slowdown(5.0)
        .with_speculation(true);
    for &spark in &[true, false] {
        // Spark: EM iteration 1's `YtXJob` (stage 2) twice, then iteration
        // 2's. MapReduce: FnormJob's map and reduce, iteration 1's reduce.
        let crashes = if spark { [2, 2, 3] } else { [2, 3, 5] };
        let plan = FaultPlan::new()
            .with_crash(1, crashes[0])
            .with_crash(5, crashes[1])
            .with_crash(3, crashes[2]);
        let fit = |timing, faulty: bool| {
            let cl = cluster(timing);
            if faulty {
                cl.install_fault_plan(spec.clone(), plan.clone()).unwrap();
            }
            let run = if spark {
                Spca::new(config()).fit_spark(&cl, &y).unwrap()
            } else {
                Spca::new(config()).fit_mapreduce(&cl, &y).unwrap()
            };
            (model_bits(&run), cl.recovery_log())
        };
        let (clean_c, log_clean) = fit(TimingModel::Contended, false);
        let (faulty_c, log_faulty) = fit(TimingModel::Contended, true);
        let (faulty_u, log_faulty_u) = fit(TimingModel::Uncontended, true);
        assert!(log_clean.is_empty());
        assert!(!log_faulty.is_empty(), "the chaos plan must actually fire");
        assert_eq!(clean_c, faulty_c, "spark={spark}: chaos changed the contended model");
        assert_eq!(faulty_u, faulty_c, "spark={spark}: engines disagree under chaos");
        assert_eq!(
            log_faulty, log_faulty_u,
            "spark={spark}: recovery logs are structural, not timed"
        );
    }
}
