//! Determinism properties of the batched EM path.
//!
//! Three contracts the batched kernels must honour (ISSUE 3):
//!
//! 1. **Merge algebra** — `YtxPartial::merge` is associative to round-off
//!    and the empty partial is an exact (bitwise) identity, so tree-shaped
//!    and left-fold reductions agree wherever the engines put them.
//! 2. **Batched ≡ row-at-a-time** — folding partitions through
//!    `add_block_with_pool` produces bit-for-bit the same accumulator as
//!    the row-at-a-time ablation arm, for every worker count × partition
//!    count combination. This is the guarantee that lets the ablation arm
//!    serve as the reference implementation.
//! 3. **Engine-level determinism** — `fit` on both engines produces
//!    identical iteration errors and components whatever the host worker
//!    pool size; only host wall time may change.

use std::sync::Arc;

use dcluster::{ClusterConfig, SimCluster};
use linalg::{Mat, Prng, SparseMat, WorkerPool};
use spca_core::mean_prop::{rowwise::RowwisePartial, YtxPartial};
use spca_core::{Spca, SpcaConfig};

fn random_sparse(rows: usize, cols: usize, density: f64, seed: u64) -> SparseMat {
    let mut rng = Prng::seed_from_u64(seed);
    let mut triplets = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if rng.uniform() < density {
                triplets.push((r, c as u32, rng.normal()));
            }
        }
    }
    SparseMat::from_triplets(rows, cols, &triplets)
}

fn fixtures(seed: u64) -> (SparseMat, Mat, Vec<f64>) {
    let mut rng = Prng::seed_from_u64(seed);
    let (n, d_in, d) = (120, 40, 5);
    let y = random_sparse(n, d_in, 0.12, seed ^ 0xb10c);
    let cm = rng.normal_mat(d_in, d);
    let xm = rng.normal_vec(d);
    (y, cm, xm)
}

fn batched_partial(pool: &WorkerPool, block: &SparseMat, cm: &Mat, xm: &[f64]) -> YtxPartial {
    let mut p = YtxPartial::new(cm.cols());
    p.add_block_with_pool(pool, block, cm, xm);
    p
}

#[test]
fn merge_is_associative_to_roundoff() {
    let (y, cm, xm) = fixtures(11);
    let pool = WorkerPool::global();
    let blocks = y.split_rows(3);
    let parts: Vec<YtxPartial> =
        blocks.iter().map(|b| batched_partial(pool, b, &cm, &xm)).collect();

    // (a ⊕ b) ⊕ c
    let mut left = parts[0].clone();
    left.merge(parts[1].clone());
    left.merge(parts[2].clone());
    // a ⊕ (b ⊕ c)
    let mut bc = parts[1].clone();
    bc.merge(parts[2].clone());
    let mut right = parts[0].clone();
    right.merge(bc);

    let mean = y.col_means();
    assert!(left.finalize_ytx(&mean).max_abs_diff(&right.finalize_ytx(&mean)) < 1e-10);
    for (a, b) in left.sum_x.iter().zip(&right.sum_x) {
        assert!((a - b).abs() < 1e-10);
    }
    assert_eq!(left.rows_seen, right.rows_seen);
}

#[test]
fn empty_partial_is_exact_merge_identity() {
    let (y, cm, xm) = fixtures(12);
    let p = batched_partial(WorkerPool::global(), &y, &cm, &xm);

    // empty ⊕ p and p ⊕ empty are both bitwise p.
    let mut left = YtxPartial::new(cm.cols());
    left.merge(p.clone());
    assert_eq!(left, p);
    let mut right = p.clone();
    right.merge(YtxPartial::new(cm.cols()));
    assert_eq!(right, p);
}

/// The tentpole contract: batched partition folds reduced with
/// [`sparkle::tree_merge`] are bit-for-bit equal to the row-at-a-time
/// ablation arm under the same reduction tree — across every worker
/// count × partition count combination.
#[test]
fn batched_matches_rowwise_bitwise_across_workers_and_partitions() {
    let (y, cm, xm) = fixtures(13);
    let mean = y.col_means();
    let d = cm.cols();

    // Reference: row-at-a-time fold per partition + the same tree merge.
    let reference = |parts: usize| -> RowwisePartial {
        let partials: Vec<RowwisePartial> = y
            .split_rows(parts)
            .iter()
            .map(|b| {
                let mut p = RowwisePartial::new(d);
                for r in 0..b.rows() {
                    p.add_row(b.row(r), &cm, &xm);
                }
                p
            })
            .collect();
        sparkle::tree_merge(partials, || RowwisePartial::new(d), |a, b| a.merge(b))
    };

    for &parts in &[1usize, 3, 8] {
        let rw = reference(parts);
        let rw_ytx = rw.finalize_ytx(&mean);
        for &workers in &[1usize, 2, 8] {
            let pool = Arc::new(WorkerPool::new(workers));
            let partials: Vec<YtxPartial> = y
                .split_rows(parts)
                .iter()
                .map(|b| batched_partial(&pool, b, &cm, &xm))
                .collect();
            let batched =
                sparkle::tree_merge(partials, || YtxPartial::new(d), |a, b| a.merge(b));

            let ctx = format!("workers={workers} partitions={parts}");
            assert_eq!(
                batched.finalize_ytx(&mean).max_abs_diff(&rw_ytx),
                0.0,
                "YtX diverged ({ctx})"
            );
            for (a, b) in batched.sum_x.iter().zip(&rw.sum_x) {
                assert_eq!(a.to_bits(), b.to_bits(), "Σx diverged ({ctx})");
            }
            assert_eq!(batched.rows_seen, rw.rows_seen, "row count diverged ({ctx})");
        }
    }
}

/// The two whole-fit inputs: a sparse low-rank matrix, and diabetes-shaped
/// spectra whose partitions are full-row blocks.
fn fit_fixtures() -> (SparseMat, SparseMat) {
    let mut rng = Prng::seed_from_u64(21);
    let sparse = datasets::sparse_lowrank(&datasets::LowRankSpec::small_test(), &mut rng);
    let spectra = datasets::diabetes::generate_sparse(600, 120, &mut rng);
    assert_eq!(spectra.nnz(), 600 * 120, "every spectrum stores every frequency");
    (sparse, spectra)
}

/// `fit` must be a pure function of (data, config): the host pool driving
/// the simulated cluster must not leak into any result — on a sparse
/// low-rank matrix, and on diabetes-shaped spectra whose partitions are
/// full-row blocks (the kernels' register-tile routes).
#[test]
fn fit_is_identical_across_worker_counts_on_both_engines() {
    let (sparse, spectra) = fit_fixtures();
    for (y, d, input) in [(&sparse, 3, "sparse low-rank"), (&spectra, 6, "dense spectra")] {
        let config =
            SpcaConfig::new(d).with_max_iters(3).with_rel_tolerance(None).with_partitions(6);
        let spca = Spca::new(config);

        let cluster_cfg = || ClusterConfig::paper_cluster().with_nodes(2).with_cores_per_node(2);
        let run_both = |workers: usize| {
            let pool = Arc::new(WorkerPool::new(workers));
            let c1 = SimCluster::new_with_pool(cluster_cfg(), pool.clone());
            let spark = spca.fit_spark(&c1, y).unwrap();
            let c2 = SimCluster::new_with_pool(cluster_cfg(), pool);
            let mr = spca.fit_mapreduce(&c2, y).unwrap();
            (spark, mr)
        };

        let (spark_ref, mr_ref) = run_both(1);
        for &workers in &[2usize, 4] {
            let (spark, mr) = run_both(workers);
            for (run, reference, engine) in
                [(&spark, &spark_ref, "spark"), (&mr, &mr_ref, "mapreduce")]
            {
                assert_eq!(run.iterations.len(), reference.iterations.len());
                for (it, it_ref) in run.iterations.iter().zip(&reference.iterations) {
                    assert_eq!(
                        it.error.to_bits(),
                        it_ref.error.to_bits(),
                        "{input}: {engine} iteration {} error diverged at workers={workers}",
                        it.iteration
                    );
                }
                assert_eq!(
                    run.model.components().max_abs_diff(reference.model.components()),
                    0.0,
                    "{input}: {engine} components diverged at workers={workers}"
                );
                assert_eq!(
                    run.model.noise_variance().to_bits(),
                    reference.model.noise_variance().to_bits(),
                    "{input}: {engine} ss diverged at workers={workers}"
                );
            }
        }

        // And the two engines agree with each other to round-off (the paper's
        // platform-independence claim), already covered per-iteration here.
        for (s, m) in spark_ref.iterations.iter().zip(&mr_ref.iterations) {
            assert!((s.error - m.error).abs() <= 1e-8 * s.error.abs().max(1.0), "{input}");
        }
    }
}

/// The MapReduce fit of both fixtures is pinned to its model hash on any
/// pool: the reducers' association (last mapper's value first, then the
/// others in mapper order) is part of every one, and nothing about how the
/// engine holds the shuffle on the host may show in it.
#[test]
fn mapreduce_fit_keeps_its_model_hashes_on_every_pool() {
    let (sparse, spectra) = fit_fixtures();
    for (y, d, want) in [(&sparse, 3, SPARSE_HASH), (&spectra, 6, SPECTRA_HASH)] {
        let config =
            SpcaConfig::new(d).with_max_iters(3).with_rel_tolerance(None).with_partitions(6);
        for workers in [1usize, 2, 8] {
            let cluster = SimCluster::new_with_pool(
                ClusterConfig::paper_cluster().with_nodes(2).with_cores_per_node(2),
                Arc::new(WorkerPool::new(workers)),
            );
            let run = Spca::new(config.clone()).fit_mapreduce(&cluster, y).unwrap();
            assert_eq!(
                run.model.content_hash(),
                want,
                "d={d} workers={workers}: got {:#018x}",
                run.model.content_hash()
            );
        }
    }
}

const SPARSE_HASH: u64 = 0x5dc6_3a47_302b_b95c;
const SPECTRA_HASH: u64 = 0x8ec3_9518_6bf5_52f2;
