//! Properties of the one pass loop (`spca_core`'s private `driver`
//! module) that must hold for every arm on every engine, because the loop
//! is the only place they are implemented:
//!
//! 1. **Crash/resume matrix** — {PPCA-EM, randomized} × {Spark, MapReduce}
//!    × {crash mid-run, crash on the pass that reaches the cap, crash on
//!    the pass the tolerance stop fires on}: the resumed fit returns the
//!    clean run's model bit for bit, reports only the passes it actually
//!    redid, and leaves no checkpoint behind.
//! 2. **Config validation at the door** — both engines' `fit` reject a
//!    smart-guess sample fraction outside `(0, 1]` with `InvalidConfig`
//!    instead of panicking (Spark, once) or accepting it (MapReduce, once).

use dcluster::{ClusterConfig, SimCluster};
use linalg::{Prng, SparseMat};
use spca_core::checkpoint::{CHECKPOINT_FILE, RPCA_CHECKPOINT_FILE};
use spca_core::config::SmartGuess;
use spca_core::{Algorithm, Spca, SpcaConfig, SpcaError, SpcaRun};

fn test_matrix(seed: u64) -> SparseMat {
    let mut rng = Prng::seed_from_u64(seed);
    let spec = datasets::LowRankSpec::small_test();
    datasets::sparse_lowrank(&spec, &mut rng)
}

fn cluster() -> SimCluster {
    SimCluster::new(ClusterConfig::paper_cluster())
}

fn model_bits(run: &SpcaRun) -> (Vec<u64>, Vec<u64>, u64) {
    (
        run.model.components().data().iter().map(|v| v.to_bits()).collect(),
        run.model.mean().iter().map(|v| v.to_bits()).collect(),
        run.model.noise_variance().to_bits(),
    )
}

#[derive(Debug, Clone, Copy)]
enum Engine {
    Spark,
    MapReduce,
}

fn fit(
    engine: Engine,
    cluster: &SimCluster,
    y: &SparseMat,
    config: SpcaConfig,
) -> spca_core::Result<SpcaRun> {
    match engine {
        Engine::Spark => Spca::new(config).fit_spark(cluster, y),
        Engine::MapReduce => Spca::new(config).fit_mapreduce(cluster, y),
    }
}

/// Where the injected driver crash lands.
#[derive(Debug, Clone, Copy)]
enum CrashAt {
    /// Pass 2 of a 4-pass run with no tolerance stop.
    MidRun,
    /// The pass that reaches the cap (pass 4 of 4).
    CapPass,
    /// The pass the relative-tolerance stop fires on, well under the cap.
    StopPass,
}

/// Pass cap 4 for the first two cases; for `StopPass` a generous cap the
/// 5 % tolerance undercuts on this input (EM after 2 iterations, the
/// randomized arm after 3 passes).
fn config(algorithm: Algorithm, crash_at: CrashAt) -> SpcaConfig {
    let base = SpcaConfig::new(3).with_algorithm(algorithm).with_checkpoint_every(1);
    match crash_at {
        CrashAt::MidRun | CrashAt::CapPass => {
            base.with_rel_tolerance(None).with_max_iters(4).with_rpca_power_iters(3)
        }
        CrashAt::StopPass => {
            base.with_rel_tolerance(Some(5e-2)).with_max_iters(10).with_rpca_power_iters(8)
        }
    }
}

#[test]
fn crash_resume_matrix_is_bitwise_identical_on_every_arm_and_engine() {
    let y = test_matrix(61);
    for algorithm in [Algorithm::PpcaEm, Algorithm::Randomized] {
        for engine in [Engine::Spark, Engine::MapReduce] {
            for crash_at in [CrashAt::MidRun, CrashAt::CapPass, CrashAt::StopPass] {
                let cell = format!("{algorithm:?} × {engine:?} × {crash_at:?}");
                let config = config(algorithm, crash_at);
                let (cap, checkpoint_file) = match algorithm {
                    Algorithm::PpcaEm => (config.max_iters, CHECKPOINT_FILE),
                    Algorithm::Randomized => (config.rpca_power_iters + 1, RPCA_CHECKPOINT_FILE),
                };

                let clean = fit(engine, &cluster(), &y, config.clone()).unwrap();
                let last = clean.iterations.len();
                let crash_pass = match crash_at {
                    CrashAt::MidRun => 2,
                    CrashAt::CapPass => {
                        assert_eq!(last, cap, "{cell}: the clean run must reach the cap");
                        cap
                    }
                    CrashAt::StopPass => {
                        assert!(last < cap, "{cell}: the tolerance must stop the run early");
                        last
                    }
                };

                let c = cluster();
                match fit(engine, &c, &y, config.clone().with_crash_at_iteration(crash_pass)) {
                    Err(SpcaError::DriverCrashed { iteration }) => {
                        assert_eq!(iteration, crash_pass, "{cell}")
                    }
                    other => panic!("{cell}: expected a driver crash, got {other:?}"),
                }
                assert!(c.dfs().stat(checkpoint_file).is_some(), "{cell}: no checkpoint left");

                let resumed = fit(engine, &c, &y, config).unwrap();
                // `assert!`, not `assert_eq!`: a failure should name the cell,
                // not print two 300-word models.
                assert!(model_bits(&clean) == model_bits(&resumed), "{cell}: resume diverged");
                let redone: Vec<usize> = resumed.iterations.iter().map(|it| it.iteration).collect();
                let expected: Vec<usize> = (crash_pass + 1..=last).collect();
                assert_eq!(redone, expected, "{cell}: passes redone after the resume");
                assert!(
                    c.dfs().stat(checkpoint_file).is_none(),
                    "{cell}: a completed run removes its checkpoint"
                );
            }
        }
    }
}

#[test]
fn out_of_range_smart_guess_fraction_is_rejected_on_both_engines() {
    let y = test_matrix(62);
    for fraction in [1.5, -0.5, 0.0, f64::NAN, f64::INFINITY] {
        let config = SpcaConfig::new(3)
            .with_max_iters(2)
            .with_smart_guess(SmartGuess { sample_fraction: fraction, iterations: 2 });
        assert!(matches!(config.validate(y.cols()), Err(SpcaError::InvalidConfig { .. })));
        for engine in [Engine::Spark, Engine::MapReduce] {
            let c = cluster();
            match fit(engine, &c, &y, config.clone()) {
                Err(SpcaError::InvalidConfig { what }) => {
                    assert!(what.contains("sample_fraction"), "{engine:?}: message {what:?}")
                }
                other => {
                    panic!("{engine:?} fraction {fraction}: expected InvalidConfig, got {other:?}")
                }
            }
            assert_eq!(c.metrics().virtual_time_secs, 0.0, "rejected before any cluster work");
        }
    }
    // The boundary is inclusive at 1: the warm-up then fits every row.
    let whole = SpcaConfig::new(3)
        .with_max_iters(2)
        .with_smart_guess(SmartGuess { sample_fraction: 1.0, iterations: 1 });
    assert!(fit(Engine::Spark, &cluster(), &y, whole).is_ok());
}
