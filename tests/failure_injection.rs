//! Failure injection through the full sPCA stack: the paper picks
//! MapReduce/Spark over MPI precisely for "transparent handling of
//! failures" — so a fit under a seeded fault plan (stragglers plus node
//! crashes whose tasks re-execute) must produce exactly the same model,
//! just later.

use dcluster::{ClusterConfig, FaultPlan, FaultSpec, SimCluster};
use linalg::Prng;
use spca_core::{Spca, SpcaConfig};

fn data() -> linalg::SparseMat {
    let mut rng = Prng::seed_from_u64(50);
    datasets::sparse_lowrank(&datasets::LowRankSpec::small_test(), &mut rng)
}

/// A paper cluster whose plan straggles `rate` of the tasks and crashes
/// `rate` of the nodes somewhere in the first `horizon` stages.
fn flaky(rate: f64, horizon: u64) -> SimCluster {
    let cluster = SimCluster::new(ClusterConfig::paper_cluster());
    let spec = FaultSpec::new(25)
        .with_straggler_rate(rate)
        .with_straggler_slowdown(4.0)
        .with_node_crash_rate(rate)
        .with_crash_horizon_stages(horizon);
    let plan = FaultPlan::generate(&spec, cluster.config().nodes);
    cluster.install_fault_plan(spec, plan).unwrap();
    cluster
}

#[test]
fn spark_fit_is_failure_transparent() {
    let y = data();
    let config = SpcaConfig::new(3).with_max_iters(3).with_rel_tolerance(None).with_seed(4);

    let healthy = SimCluster::new(ClusterConfig::paper_cluster());
    let clean = Spca::new(config.clone()).fit_spark(&healthy, &y).unwrap();

    let flaky = flaky(0.25, 5);
    let faulty = Spca::new(config).fit_spark(&flaky, &y).unwrap();

    assert!(!flaky.recovery_log().is_empty(), "the plan must inject failures");
    assert!(
        clean.model.components().approx_eq(faulty.model.components(), 0.0),
        "task retries must not change the fitted model at all"
    );
    assert!(
        faulty.virtual_time_secs >= clean.virtual_time_secs,
        "retries cost time: {} vs {}",
        clean.virtual_time_secs,
        faulty.virtual_time_secs
    );
}

#[test]
fn mapreduce_fit_is_failure_transparent() {
    let y = data();
    let config = SpcaConfig::new(3).with_max_iters(2).with_rel_tolerance(None).with_seed(4);

    let healthy = SimCluster::new(ClusterConfig::paper_cluster());
    let clean = Spca::new(config.clone()).fit_mapreduce(&healthy, &y).unwrap();

    let flaky = flaky(0.25, 8);
    let faulty = Spca::new(config).fit_mapreduce(&flaky, &y).unwrap();

    assert!(!flaky.recovery_log().is_empty(), "the plan must inject failures");
    assert!(clean.model.components().approx_eq(faulty.model.components(), 0.0));
    assert!(faulty.virtual_time_secs > clean.virtual_time_secs);
}

#[test]
fn heavy_failure_rates_still_complete() {
    let y = data();
    let brutal = flaky(0.75, 4);
    let run = Spca::new(SpcaConfig::new(2).with_max_iters(2).with_rel_tolerance(None))
        .fit_spark(&brutal, &y)
        .unwrap();
    assert_eq!(run.model.output_dim(), 2);
}
