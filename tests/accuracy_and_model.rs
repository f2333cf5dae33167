//! End-to-end tests of the evaluation pipeline itself: the accuracy
//! metric, the percent-of-ideal scale, stop conditions, model
//! persistence through a full distributed fit, and EM's defining
//! invariant, a data log-likelihood that never decreases.

use dcluster::{ClusterConfig, SimCluster};
use linalg::decomp::cholesky::Cholesky;
use linalg::{Prng, SparseMat};
use spca_core::model::PcaModel;
use spca_core::{accuracy, init, ppca, Spca, SpcaConfig};

fn dataset() -> SparseMat {
    let mut rng = Prng::seed_from_u64(606);
    let spec = datasets::LowRankSpec {
        rows: 1_500,
        cols: 300,
        topics: 5,
        words_per_row: 10.0,
        topic_affinity: 0.85,
        zipf_exponent: 1.0,
    };
    datasets::sparse_lowrank(&spec, &mut rng)
}

#[test]
fn error_decreases_and_percent_increases_over_iterations() {
    let y = dataset();
    let cluster = SimCluster::new(ClusterConfig::paper_cluster());
    let run = Spca::new(SpcaConfig::new(5).with_max_iters(12).with_rel_tolerance(None))
        .fit_spark(&cluster, &y)
        .unwrap();
    let ideal = run.final_error();

    let first = run.iterations.first().unwrap();
    let last = run.iterations.last().unwrap();
    assert!(last.error <= first.error, "error must improve overall");

    let p_first = accuracy::percent_of_ideal(first.error, ideal);
    let p_last = accuracy::percent_of_ideal(last.error, ideal);
    assert!(p_last >= p_first);
    assert!((p_last - 100.0).abs() < 1e-9, "final iteration defines ideal here");
}

#[test]
fn target_error_stop_halts_early() {
    let y = dataset();

    // Reference run to learn the achievable error.
    let cluster = SimCluster::new(ClusterConfig::paper_cluster());
    let full = Spca::new(SpcaConfig::new(5).with_max_iters(12).with_rel_tolerance(None))
        .fit_spark(&cluster, &y)
        .unwrap();
    let ideal = full.final_error();
    let target = accuracy::target_error_for(ideal, 90.0);

    let cluster = SimCluster::new(ClusterConfig::paper_cluster());
    let early = Spca::new(
        SpcaConfig::new(5)
            .with_max_iters(12)
            .with_rel_tolerance(None)
            .with_target_error(target),
    )
    .fit_spark(&cluster, &y)
    .unwrap();

    assert!(early.iterations.len() < full.iterations.len(), "target stop must cut iterations");
    assert!(early.final_error() <= target);
    assert!(early.time_to_error(target).is_some());
}

#[test]
fn rel_tolerance_stop_halts_on_plateau() {
    let y = dataset();
    let cluster = SimCluster::new(ClusterConfig::paper_cluster());
    let run = Spca::new(SpcaConfig::new(5).with_max_iters(30).with_rel_tolerance(Some(1e-2)))
        .fit_spark(&cluster, &y)
        .unwrap();
    assert!(
        run.iterations.len() < 30,
        "1% relative tolerance should stop well before 30 iterations (got {})",
        run.iterations.len()
    );
}

#[test]
fn fitted_model_survives_text_roundtrip() {
    let y = dataset();
    let cluster = SimCluster::new(ClusterConfig::paper_cluster());
    let run = Spca::new(SpcaConfig::new(4).with_max_iters(4))
        .fit_spark(&cluster, &y)
        .unwrap();

    let restored = PcaModel::from_text(&run.model.to_text()).unwrap();
    // The restored model must score identically on the same sample.
    let sample = accuracy::sample_rows(&y, 128, 42);
    let e1 = accuracy::reconstruction_error(&sample, &run.model).unwrap();
    let e2 = accuracy::reconstruction_error(&sample, &restored).unwrap();
    assert!((e1 - e2).abs() < 1e-9, "persisted model scores differently: {e1} vs {e2}");
}

#[test]
fn transform_reconstruct_shapes_compose() {
    let y = dataset();
    let cluster = SimCluster::new(ClusterConfig::paper_cluster());
    let run = Spca::new(SpcaConfig::new(6).with_max_iters(4))
        .fit_spark(&cluster, &y)
        .unwrap();
    let x = run.model.transform_sparse(&y).unwrap();
    assert_eq!((x.rows(), x.cols()), (y.rows(), 6));
    let back = run.model.reconstruct(&x);
    assert_eq!((back.rows(), back.cols()), (y.rows(), y.cols()));
}

#[test]
fn error_sample_is_stable_across_engines() {
    // Spark and MapReduce runs with the same seed must evaluate error on
    // the same sampled rows — otherwise their accuracy curves are not
    // comparable.
    let y = dataset();
    let config = SpcaConfig::new(4).with_max_iters(2).with_rel_tolerance(None).with_seed(11);
    let c1 = SimCluster::new(ClusterConfig::paper_cluster());
    let spark = Spca::new(config.clone()).fit_spark(&c1, &y).unwrap();
    let c2 = SimCluster::new(ClusterConfig::paper_cluster());
    let mr = Spca::new(config).fit_mapreduce(&c2, &y).unwrap();
    for (a, b) in spark.iterations.iter().zip(&mr.iterations) {
        assert!((a.error - b.error).abs() < 1e-9, "iteration errors diverged");
    }
}

/// The PPCA data log-likelihood (Section 2.4 of the paper),
/// `−N/2 · (D·ln 2π + ln|Σ| + tr(Σ⁻¹·S))` with `Σ = ss·I + C·Cᵀ` and `S`
/// the sample covariance about the model's mean, evaluated densely:
/// `ln|Σ| = 2·Σ ln Lᵢᵢ` and `tr(Σ⁻¹·S)` through one Cholesky factor.
fn log_likelihood(y: &SparseMat, model: &PcaModel) -> f64 {
    let n = y.rows() as f64;
    let mut yc = y.to_dense();
    yc.sub_row_vector(model.mean());
    let mut s = yc.matmul_tn(&yc);
    s.scale(1.0 / n);
    let mut sigma = model.components().matmul_nt(model.components());
    sigma.add_diag(model.noise_variance());
    let chol = Cholesky::new(&sigma).unwrap();
    let ln_det: f64 = (0..chol.dim()).map(|i| 2.0 * chol.l()[(i, i)].ln()).sum();
    let tr = chol.solve_mat(&s).trace();
    let two_pi = 2.0 * std::f64::consts::PI;
    -0.5 * n * (y.cols() as f64 * two_pi.ln() + ln_det + tr)
}

fn likelihood_data(seed: u64) -> SparseMat {
    let mut rng = Prng::seed_from_u64(seed);
    let spec = datasets::LowRankSpec {
        rows: 120,
        cols: 25,
        topics: 3,
        words_per_row: 6.0,
        topic_affinity: 0.85,
        zipf_exponent: 1.0,
    };
    datasets::sparse_lowrank(&spec, &mut rng)
}

#[test]
fn em_increases_likelihood_monotonically() {
    // The EM guarantee, asserted on every iterate of Algorithm 1.
    let y = likelihood_data(2);
    let dense = y.to_dense();
    let (_, trace) = ppca::fit_dense(&dense, 3, 12, 11).unwrap();
    let mean = dense.col_means();
    let mut prev = f64::NEG_INFINITY;
    for (c_iter, ss_iter) in trace.c_history.iter().zip(&trace.ss_history) {
        let model = PcaModel::new(c_iter.clone(), mean.clone(), *ss_iter);
        let ll = log_likelihood(&y, &model);
        assert!(ll >= prev - 1e-6 * prev.abs().max(1.0), "likelihood decreased: {prev} → {ll}");
        prev = ll;
    }
}

#[test]
fn distributed_fit_increases_likelihood_too() {
    let y = likelihood_data(3);
    let cluster = SimCluster::new(ClusterConfig::paper_cluster());
    let run = Spca::new(SpcaConfig::new(3).with_max_iters(6).with_rel_tolerance(None))
        .fit_spark(&cluster, &y)
        .unwrap();
    // Final model beats the random-init model decisively.
    let (c0, ss0) = init::random_init(y.cols(), 3, run.model.components().cols() as u64);
    let init_model = PcaModel::new(c0, run.model.mean().to_vec(), ss0);
    let ll_init = log_likelihood(&y, &init_model);
    let ll_fit = log_likelihood(&y, &run.model);
    assert!(ll_fit > ll_init, "fit {ll_fit} must beat init {ll_init}");
}

#[test]
fn better_model_scores_higher() {
    let y = likelihood_data(4);
    let dense = y.to_dense();
    let (short, _) = ppca::fit_dense(&dense, 3, 1, 5).unwrap();
    let (long, _) = ppca::fit_dense(&dense, 3, 15, 5).unwrap();
    assert!(log_likelihood(&y, &long) >= log_likelihood(&y, &short));
}
