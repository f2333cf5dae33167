//! Cross-algorithm conformance battery for the randomized-PCA arm.
//!
//! The randomized family is held to a *harder* reproducibility bar than
//! EM: EM's two engines agree only to round-off (their reduction trees
//! differ), but a randomized fit must produce the **same model hash**
//! across host worker counts, engines, timing models and fault plans —
//! because every cross-partition fold happens on the driver in partition
//! order. Pinned here:
//!
//! 1. **Conformance matrix** — 1/2/8 host workers × {Spark, MapReduce} ×
//!    {Uncontended, Contended}: one model hash for all twelve runs.
//! 2. **Accuracy vs exact PCA** — on a seeded planted-spectrum input the
//!    recovered subspace overlaps the exact top-d PCA subspace to ≥ 0.999
//!    (clean spectrum, q = 2) and ≥ 0.9 (noisy spectrum, q = 3); overlap
//!    is the smallest principal-angle cosine (`subspace_overlap`).
//! 3. **Fault composition** — chaos fault plans and a driver crash with
//!    checkpoint resume, mid-run or after the final pass, are bitwise
//!    transparent (the `faults.rs` invariant, replayed for the fat-pass
//!    loop).
//! 4. **Knob validation** — each nonsensical randomized configuration is
//!    rejected with `SpcaError::InvalidConfig` before any cluster work.
//! 5. **Pinned bits and bytes** — both engines' model hash, sampled
//!    errors, driver peak and pass count at one shape, and the Spark fit's
//!    intermediate bytes against their closed form.

use std::sync::Arc;

use dcluster::{ClusterConfig, FaultPlan, FaultSpec, SimCluster, TimingModel};
use linalg::decomp::{subspace_overlap, svd_jacobi};
use linalg::wire::{ascending_u32_len, uvarint_len};
use linalg::{Mat, Prng, SparseMat, WorkerPool};
use spca_core::checkpoint::{CHECKPOINT_FILE, RPCA_CHECKPOINT_FILE};
use spca_core::{Algorithm, Spca, SpcaConfig, SpcaError, SpcaRun};

fn test_matrix(seed: u64) -> SparseMat {
    let mut rng = Prng::seed_from_u64(seed);
    let spec = datasets::LowRankSpec::small_test();
    datasets::sparse_lowrank(&spec, &mut rng)
}

fn rpca_config() -> SpcaConfig {
    SpcaConfig::new(3)
        .with_algorithm(Algorithm::Randomized)
        .with_rpca_oversample(5)
        .with_rpca_power_iters(2)
        .with_rel_tolerance(None)
}

fn model_bits(run: &SpcaRun) -> (Vec<u64>, Vec<u64>, u64) {
    (
        run.model.components().data().iter().map(|v| v.to_bits()).collect(),
        run.model.mean().iter().map(|v| v.to_bits()).collect(),
        run.model.noise_variance().to_bits(),
    )
}

/// The chaos plan of `faults.rs`: ≥ 2 node crashes mid-run plus stragglers
/// with speculation on every stage.
fn chaos_spec_and_plan() -> (FaultSpec, FaultPlan) {
    let spec = FaultSpec::new(0xfau64)
        .with_straggler_rate(0.2)
        .with_straggler_slowdown(5.0)
        .with_speculation(true);
    let plan = FaultPlan::new().with_crash(1, 2).with_crash(5, 3).with_crash(3, 5);
    (spec, plan)
}

// ---------------------------------------------------------------------------
// 1. Conformance matrix
// ---------------------------------------------------------------------------

#[test]
fn model_hash_identical_across_workers_engines_and_timing_models() {
    let y = test_matrix(31);
    let fit = |workers: usize, spark: bool, timing: TimingModel| {
        let cl = SimCluster::new_with_pool(
            ClusterConfig::scaled_cluster().with_timing(timing),
            Arc::new(WorkerPool::new(workers)),
        );
        let spca = Spca::new(rpca_config());
        let run = if spark { spca.fit_spark(&cl, &y) } else { spca.fit_mapreduce(&cl, &y) };
        run.unwrap().model.content_hash()
    };

    let reference = fit(1, true, TimingModel::Uncontended);
    for &workers in &[1usize, 2, 8] {
        for &spark in &[true, false] {
            for &timing in &[TimingModel::Uncontended, TimingModel::Contended] {
                let hash = fit(workers, spark, timing);
                assert_eq!(
                    hash, reference,
                    "model hash diverged at workers={workers} spark={spark} timing={timing:?}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Accuracy vs exact PCA
// ---------------------------------------------------------------------------

/// A dense planted-spectrum matrix `U diag(s) Vᵀ + σ·noise` as a SparseMat
/// (the randomized analysis regime: controlled singular-value gaps).
fn planted(rows: usize, cols: usize, s: &[f64], sigma: f64, seed: u64) -> SparseMat {
    let mut rng = Prng::seed_from_u64(seed);
    let u = linalg::decomp::orthonormal_columns(&rng.normal_mat(rows, s.len()));
    let v = linalg::decomp::orthonormal_columns(&rng.normal_mat(cols, s.len()));
    let mut dense = Mat::zeros(rows, cols);
    for (i, &sv) in s.iter().enumerate() {
        let ui = u.col(i);
        let vi = v.col(i);
        dense.add_outer(sv, &ui, &vi);
    }
    let mut triplets = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let noise = sigma * rng.normal();
            let val = dense[(r, c)] + noise;
            if val != 0.0 {
                triplets.push((r, c as u32, val));
            }
        }
    }
    SparseMat::from_triplets(rows, cols, &triplets)
}

/// The exact top-d PCA basis: left-centered SVD of the dense input.
fn exact_pca_basis(y: &SparseMat, d: usize) -> Mat {
    let mut yc = y.to_dense();
    yc.sub_row_vector(&y.col_means());
    let svd = svd_jacobi(&yc).expect("exact SVD converges");
    // Principal directions live in column space: rows of Vᵀ, transposed.
    svd.vt.row_block(0, d).transpose()
}

#[test]
fn subspace_matches_exact_pca_on_clean_spectrum() {
    // Documented tolerance: clean spectrum (σ_noise = 0.01, gaps ≥ 1.5x),
    // q = 2 power passes → overlap ≥ 0.999 with exact PCA.
    let d = 4;
    let y = planted(150, 40, &[10.0, 7.0, 4.5, 3.0], 0.01, 41);
    let cluster = SimCluster::new(ClusterConfig::paper_cluster());
    let config = rpca_config();
    let run = Spca::new(SpcaConfig { components: d, ..config }).fit_spark(&cluster, &y).unwrap();
    let exact = exact_pca_basis(&y, d);
    let overlap = subspace_overlap(run.model.components(), &exact).unwrap();
    assert!(overlap >= 0.999, "clean-spectrum overlap {overlap} < 0.999");
}

#[test]
fn subspace_matches_exact_pca_on_noisy_spectrum_with_power_passes() {
    // Documented tolerance: noisy spectrum (σ_noise = 0.5 against top
    // singular values ~10) needs power passes; q = 3 → overlap ≥ 0.9.
    let d = 3;
    let y = planted(200, 50, &[12.0, 9.0, 6.0], 0.5, 43);
    let cluster = SimCluster::new(ClusterConfig::paper_cluster());
    let config = rpca_config().with_rpca_power_iters(3);
    let run = Spca::new(SpcaConfig { components: d, ..config }).fit_spark(&cluster, &y).unwrap();
    let exact = exact_pca_basis(&y, d);
    let overlap = subspace_overlap(run.model.components(), &exact).unwrap();
    assert!(overlap >= 0.9, "noisy-spectrum overlap {overlap} < 0.9");
}

#[test]
fn rank_deficient_sketch_takes_the_fallback_and_still_recovers_the_subspace() {
    // Noise-free rank 3 (rank 4 once centered) under a K = 8 sketch: every
    // pass's Gram matrix is singular, so the driver factors Z by the
    // Householder/Jacobi route — same bars as the Gram route.
    let d = 3;
    let y = planted(120, 30, &[9.0, 6.0, 4.0], 0.0, 53);
    let config = SpcaConfig { components: d, ..rpca_config() }.with_checkpoint_every(1);
    let spark = Spca::new(config.clone())
        .fit_spark(&SimCluster::new(ClusterConfig::paper_cluster()), &y)
        .unwrap();
    assert!(
        linalg::decomp::gram_svd(WorkerPool::global(), spark.model.components()).is_some(),
        "the model is a full-rank basis"
    );
    let overlap = subspace_overlap(spark.model.components(), &exact_pca_basis(&y, d)).unwrap();
    assert!(overlap >= 0.999, "rank-deficient overlap {overlap} < 0.999");
    let mr = Spca::new(config.clone())
        .fit_mapreduce(&SimCluster::new(ClusterConfig::paper_cluster()), &y)
        .unwrap();
    assert_eq!(model_bits(&spark), model_bits(&mr), "engines diverged on the fallback route");
    // On this route the basis does not carry the model (Householder's Q
    // vs Jacobi's U), so the last pass leaves pass 2's checkpoint in place
    // and a resume re-runs it.
    let c = SimCluster::new(ClusterConfig::paper_cluster());
    assert!(Spca::new(config.clone().with_crash_at_iteration(3)).fit_spark(&c, &y).is_err());
    let resumed = Spca::new(config).fit_spark(&c, &y).unwrap();
    assert_eq!(model_bits(&spark), model_bits(&resumed), "final-pass resume diverged");
    assert_eq!(resumed.iterations.len(), 1, "only the last pass is redone");
    assert!(c.dfs().stat(RPCA_CHECKPOINT_FILE).is_none(), "a completed run removes its checkpoint");
}

#[test]
fn power_passes_improve_sampled_error_on_noisy_input() {
    // The fat-pass tradeoff in one assertion: more passes, better error.
    let y = planted(200, 50, &[12.0, 9.0, 6.0], 0.5, 47);
    let cluster_a = SimCluster::new(ClusterConfig::paper_cluster());
    let one = Spca::new(rpca_config().with_rpca_power_iters(0))
        .fit_spark(&cluster_a, &y)
        .unwrap();
    let cluster_b = SimCluster::new(ClusterConfig::paper_cluster());
    let four = Spca::new(rpca_config().with_rpca_power_iters(3))
        .fit_spark(&cluster_b, &y)
        .unwrap();
    assert!(
        four.final_error() <= one.final_error() + 1e-12,
        "power passes must not hurt: 1-pass {} vs 4-pass {}",
        one.final_error(),
        four.final_error()
    );
}

// ---------------------------------------------------------------------------
// 3. Fault composition
// ---------------------------------------------------------------------------

#[test]
fn spark_randomized_fit_under_chaos_is_bitwise_identical_to_fault_free() {
    let y = test_matrix(32);
    let clean =
        Spca::new(rpca_config()).fit_spark(&SimCluster::new(ClusterConfig::paper_cluster()), &y);
    let clean = clean.unwrap();

    let faulty_cluster = SimCluster::new(ClusterConfig::paper_cluster());
    let (spec, plan) = chaos_spec_and_plan();
    faulty_cluster.install_fault_plan(spec, plan).unwrap();
    let faulty = Spca::new(rpca_config()).fit_spark(&faulty_cluster, &y).unwrap();

    assert_eq!(model_bits(&clean), model_bits(&faulty), "chaos changed the randomized model");
    assert!(faulty.virtual_time_secs > clean.virtual_time_secs, "recovery must cost time");
}

#[test]
fn mapreduce_randomized_fit_under_chaos_is_bitwise_identical_to_fault_free() {
    let y = test_matrix(33);
    let clean = Spca::new(rpca_config())
        .fit_mapreduce(&SimCluster::new(ClusterConfig::paper_cluster()), &y)
        .unwrap();

    let faulty_cluster = SimCluster::new(ClusterConfig::paper_cluster());
    let (spec, plan) = chaos_spec_and_plan();
    faulty_cluster.install_fault_plan(spec, plan).unwrap();
    let faulty = Spca::new(rpca_config()).fit_mapreduce(&faulty_cluster, &y).unwrap();

    assert_eq!(model_bits(&clean), model_bits(&faulty));
}

#[test]
fn mid_pass_crash_with_checkpoint_resume_is_bitwise_identical() {
    // Chaos + driver crash after pass 2 + resume, vs an untouched run.
    let y = test_matrix(34);
    let config = rpca_config().with_rpca_power_iters(3).with_checkpoint_every(1);

    let clean = Spca::new(config.clone())
        .fit_spark(&SimCluster::new(ClusterConfig::paper_cluster()), &y)
        .unwrap();

    let c = SimCluster::new(ClusterConfig::paper_cluster());
    let (spec, plan) = chaos_spec_and_plan();
    c.install_fault_plan(spec, plan).unwrap();
    match Spca::new(config.clone().with_crash_at_iteration(2)).fit_spark(&c, &y) {
        Err(SpcaError::DriverCrashed { iteration: 2 }) => {}
        other => panic!("expected a driver crash at pass 2, got {other:?}"),
    }
    assert!(
        c.dfs().stat(RPCA_CHECKPOINT_FILE).is_some(),
        "the crash must leave an rpca checkpoint on the DFS"
    );
    assert!(
        c.dfs().stat(CHECKPOINT_FILE).is_none(),
        "the randomized arm must never touch the EM checkpoint name"
    );

    let resumed = Spca::new(config).fit_spark(&c, &y).unwrap();
    assert_eq!(model_bits(&clean), model_bits(&resumed), "resume diverged from clean run");
    assert!(
        resumed.iterations.first().map(|it| it.iteration) >= Some(3),
        "the resumed run must not redo checkpointed passes"
    );
    assert!(
        c.dfs().stat(RPCA_CHECKPOINT_FILE).is_none(),
        "a completed run removes its checkpoint"
    );
}

#[test]
fn mapreduce_crash_resume_is_bitwise_identical_too() {
    let y = test_matrix(35);
    let config = rpca_config().with_rpca_power_iters(2).with_checkpoint_every(1);
    let clean = Spca::new(config.clone())
        .fit_mapreduce(&SimCluster::new(ClusterConfig::paper_cluster()), &y)
        .unwrap();

    let c = SimCluster::new(ClusterConfig::paper_cluster());
    assert!(matches!(
        Spca::new(config.clone().with_crash_at_iteration(1)).fit_mapreduce(&c, &y),
        Err(SpcaError::DriverCrashed { iteration: 1 })
    ));
    let resumed = Spca::new(config).fit_mapreduce(&c, &y).unwrap();
    assert_eq!(model_bits(&clean), model_bits(&resumed));
}

#[test]
fn crash_after_the_final_pass_resumes_to_the_finished_model_on_both_engines() {
    // The crash lands after the last pass's checkpoint: nothing is left to
    // run, and the checkpoint's basis and noise variance are the model.
    let y = test_matrix(39);
    let config = rpca_config().with_rpca_power_iters(2).with_checkpoint_every(1);
    for spark in [true, false] {
        let fit = |cl: &SimCluster, config: SpcaConfig| {
            let spca = Spca::new(config);
            if spark { spca.fit_spark(cl, &y) } else { spca.fit_mapreduce(cl, &y) }
        };
        let clean = fit(&SimCluster::new(ClusterConfig::paper_cluster()), config.clone()).unwrap();
        assert_eq!(clean.iterations.len(), 3);

        let c = SimCluster::new(ClusterConfig::paper_cluster());
        assert!(matches!(
            fit(&c, config.clone().with_crash_at_iteration(3)),
            Err(SpcaError::DriverCrashed { iteration: 3 })
        ));
        let resumed = fit(&c, config.clone()).unwrap();
        assert_eq!(model_bits(&clean), model_bits(&resumed), "spark={spark}: resume diverged");
        assert!(resumed.iterations.is_empty(), "spark={spark}: no pass is left to redo");
        assert!(
            c.dfs().stat(RPCA_CHECKPOINT_FILE).is_none(),
            "spark={spark}: a completed run removes its checkpoint"
        );
    }
}

// ---------------------------------------------------------------------------
// 4. Knob validation
// ---------------------------------------------------------------------------

fn expect_invalid(result: spca_core::Result<SpcaRun>, needle: &str) {
    match result {
        Err(SpcaError::InvalidConfig { what }) => {
            assert!(what.contains(needle), "message {what:?} missing {needle:?}")
        }
        other => panic!("expected InvalidConfig({needle}), got {other:?}"),
    }
}

#[test]
fn zero_oversampling_is_rejected() {
    let y = test_matrix(36);
    let cluster = SimCluster::new(ClusterConfig::paper_cluster());
    let config = rpca_config().with_rpca_oversample(0);
    assert!(matches!(config.validate(y.cols()), Err(SpcaError::InvalidConfig { .. })));
    expect_invalid(Spca::new(config).fit_spark(&cluster, &y), "oversampling");
}

#[test]
fn sketch_wider_than_input_is_rejected() {
    let y = test_matrix(38); // 100 columns
    let cluster = SimCluster::new(ClusterConfig::paper_cluster());
    let config = rpca_config().with_rpca_oversample(98); // 3 + 98 > 100
    assert!(matches!(config.validate(y.cols()), Err(SpcaError::InvalidConfig { .. })));
    expect_invalid(Spca::new(config).fit_spark(&cluster, &y), "sketch width");
}

// ---------------------------------------------------------------------------
// 5. Pinned bits and bytes
// ---------------------------------------------------------------------------

/// Fits on a fresh paper cluster and renders what no change to how a pass
/// moves its partials may move: the model hash, the driver peak, the pass
/// count and every pass's sampled error.
fn pin(spark: bool) -> String {
    let y = test_matrix(31);
    let cluster = SimCluster::new(ClusterConfig::paper_cluster());
    let spca = Spca::new(rpca_config());
    let run = if spark { spca.fit_spark(&cluster, &y) } else { spca.fit_mapreduce(&cluster, &y) };
    let run = run.unwrap();
    let errors: Vec<String> =
        run.iterations.iter().map(|s| format!("{:016x}", s.error.to_bits())).collect();
    format!(
        "model {:016x} driver_peak {} passes {} errors {}",
        run.model.content_hash(),
        cluster.metrics().driver_peak_bytes,
        run.iterations.len(),
        errors.join(",")
    )
}

#[test]
fn randomized_bits_are_pinned_on_both_engines() {
    let want = "model a15876dbcf976566 driver_peak 26400 passes 3 \
                errors 3ffac8e22763127f,3ff8fd3e9fddf3c5,3ff8b5833c2820d5";
    assert_eq!(pin(true), want, "Spark");
    assert_eq!(pin(false), want, "MapReduce");
}

/// The byte oracle of the Spark fit: per pass, `W` (D×K) and the K-vector
/// shift to every node, then one sketch partial per partition — `Σx`,
/// the touched columns ascending, their K-rows and the row count; once,
/// the colsum job's D-vector and the FnormJob's scalar per partition.
#[test]
fn spark_intermediate_bytes_are_the_closed_form() {
    let y = test_matrix(31);
    let cluster = SimCluster::new(ClusterConfig::paper_cluster());
    let config = rpca_config();
    let run = Spca::new(config.clone()).fit_spark(&cluster, &y).unwrap();
    let cfg = cluster.config();
    let (d_in, k) = (y.cols() as u64, (config.components + config.rpca_oversample) as u64);
    let f64_payload = |len: u64| uvarint_len(len) + 8 * len;
    let blocks = y.split_rows(cfg.total_cores().min(y.rows()));
    let broadcast =
        cfg.nodes as u64 * (uvarint_len(d_in) + uvarint_len(k) + 8 * d_in * k + f64_payload(k));
    let partials: u64 = blocks
        .iter()
        .map(|b| {
            let mut cols = b.col_indices().to_vec();
            cols.sort_unstable();
            cols.dedup();
            let t = cols.len() as u64;
            f64_payload(k)
                + uvarint_len(t)
                + ascending_u32_len(&cols)
                + 8 * t * k
                + uvarint_len(b.rows() as u64)
        })
        .sum();
    let once = blocks.len() as u64 * (f64_payload(d_in) + 8);
    let passes = run.iterations.len() as u64;
    assert_eq!(run.intermediate_bytes, once + passes * (broadcast + partials));
    assert_eq!(cluster.metrics().network_bytes, run.intermediate_bytes);
}
