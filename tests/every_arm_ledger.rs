//! Every arm of the evaluation writes a run ledger: PPCA-EM, randomized,
//! Mahout-SSVD and MLlib-PCA each append one `RunRecord` whose per-pass
//! rows are its `SpcaRun`'s iterations, under a label naming the arm. A
//! fit that dies at its driver reservation (MLlib past Figure 8's wall)
//! appends none and leaves no trace window open.
//!
//! A test binary of its own: the trace collector and the ledger sink are
//! process-global, and no other test may fit while they are installed.

use baselines::{MahoutConfig, MahoutPca, MllibConfig, MllibPca};
use dcluster::{ClusterConfig, ClusterError, SimCluster};
use linalg::{Prng, SparseMat};
use spca_core::{Algorithm, Result, Spca, SpcaConfig, SpcaError, SpcaRun};

type Fit = Box<dyn Fn(&SimCluster, &SparseMat) -> Result<SpcaRun>>;

#[test]
fn every_arm_appends_one_ledger_record() {
    let mut rng = Prng::seed_from_u64(12);
    let spec = datasets::LowRankSpec { rows: 400, cols: 80, ..datasets::LowRankSpec::small_test() };
    let y = datasets::sparse_lowrank(&spec, &mut rng);
    let em = SpcaConfig::new(3).with_max_iters(3).with_rel_tolerance(None).with_partitions(4);
    let rpca = SpcaConfig { algorithm: Algorithm::Randomized, ..em.clone() };
    let arms: Vec<(&str, Fit)> = vec![
        ("sPCA-Spark", Box::new(move |c, y| Spca::new(em.clone()).fit_spark(c, y))),
        ("rPCA-MR", Box::new(move |c, y| Spca::new(rpca.clone()).fit_mapreduce(c, y))),
        (
            "Mahout-MR",
            Box::new(|c, y| {
                MahoutPca::new(MahoutConfig::new(3).with_max_iters(2).with_partitions(4)).fit(c, y)
            }),
        ),
        (
            "MLlib-Spark",
            Box::new(|c, y| MllibPca::new(MllibConfig::new(3).with_partitions(4)).fit(c, y)),
        ),
    ];

    let collector = obs::install_new();
    obs::ledger::install_sink();
    for (label, fit) in &arms {
        let cluster = SimCluster::new(ClusterConfig::paper_cluster());
        let run = fit(&cluster, &y).unwrap();
        let records = obs::ledger::drain_sink();
        obs::ledger::install_sink();
        assert_eq!(records.len(), 1, "{label}: one fit, one record");
        let record = &records[0];
        assert_eq!(record.label, *label);
        assert_eq!(record.model_hash, format!("{:016x}", run.model.content_hash()), "{label}");
        let bits = |errors: Vec<f64>| errors.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(
            bits(record.iterations.iter().map(|row| row.error).collect()),
            bits(run.iterations.iter().map(|s| s.error).collect()),
            "{label}: ledger rows are the run's iterations"
        );
        assert!(!run.iterations.is_empty(), "{label}");
        assert!(record.iterations.iter().all(|row| row.objective.is_finite()), "{label}");
    }

    let small_driver = ClusterConfig::paper_cluster().with_driver_memory(80 * 80 * 8);
    let oom = MllibPca::new(MllibConfig::new(3)).fit(&SimCluster::new(small_driver), &y);
    assert!(matches!(oom, Err(SpcaError::Cluster(ClusterError::DriverOom { .. }))), "{oom:?}");
    assert!(obs::ledger::drain_sink().is_empty(), "a failed fit appends no record");
    let collector = obs::uninstall().unwrap_or(collector);
    assert_eq!(collector.nesting_violations(), 0);
    let violations = obs::validate_nesting(&collector.events());
    assert!(violations.is_empty(), "{violations:?}");
}
