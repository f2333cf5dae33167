//! Randomized tests over the core invariants that the whole reproduction
//! leans on: mean propagation identities, Frobenius identities,
//! decomposition contracts, and scheduler bounds.
//!
//! Formerly proptest-based; now driven by the in-tree seeded [`Prng`] so
//! the workspace builds offline with zero external dependencies. Each test
//! sweeps a fixed number of seeded cases — deterministic and reproducible
//! from the case index.

use dcluster::scheduler::makespan;
use linalg::decomp::{lu::Lu, qr_thin, svd_jacobi, sym_eigen};
use linalg::{Mat, Prng, SparseMat};
use spca_core::{frobenius, mean_prop};

const CASES: u64 = 64;

/// Seeded stand-in for the old proptest strategy: a small random sparse
/// matrix with dims in `[1, max)` and density in `[0.05, 0.5)`.
fn sparse_matrix(case: u64, max_rows: usize, max_cols: usize) -> SparseMat {
    let mut rng = Prng::seed_from_u64(0x5AA5 ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let rows = 1 + rng.index(max_rows - 1);
    let cols = 1 + rng.index(max_cols - 1);
    let density = 0.05 + 0.45 * rng.uniform();
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

fn dense_matrix(case: u64, max_rows: usize, max_cols: usize) -> Mat {
    let mut rng = Prng::seed_from_u64(0xD0_0D ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let rows = 1 + rng.index(max_rows - 1);
    let cols = 1 + rng.index(max_cols - 1);
    rng.normal_mat(rows, cols)
}

#[test]
fn frobenius_algorithm3_equals_dense_oracle() {
    for case in 0..CASES {
        let y = sparse_matrix(case, 20, 15);
        let mean = y.col_means();
        let fast = frobenius::centered_sq_block(&y, &mean, linalg::vector::norm2_sq(&mean));
        let oracle = linalg::norms::centered_frobenius_sq_dense(&y.to_dense(), &mean);
        assert!((fast - oracle).abs() <= 1e-8 * (1.0 + oracle.abs()), "case {case}");
    }
}

#[test]
fn mean_propagation_equals_explicit_centering() {
    for case in 0..CASES {
        let y = sparse_matrix(case, 15, 12);
        let d = 3;
        let mean = y.col_means();
        let cm = Prng::seed_from_u64(case ^ 0xC0FFEE).normal_mat(y.cols(), d);
        let xm = cm.vecmat(&mean);

        let mut partial = mean_prop::YtxPartial::new(d);
        for r in 0..y.rows() {
            partial.add_row(y.row(r), &cm, &xm);
        }
        let (xtx_oracle, ytx_oracle, sum_oracle) = mean_prop::dense_oracle(&y, &mean, &cm);
        let ytx = partial.finalize_ytx(&mean);
        assert!(ytx.max_abs_diff(&ytx_oracle) < 1e-8, "case {case}");
        // The driver's XtX, CM'·YtX, against the centred Gram.
        let xtx = mean_prop::xtx_from_ytx(&cm, &ytx);
        assert!(xtx.max_abs_diff(&xtx_oracle) < 1e-8, "case {case}");
        for (a, b) in partial.sum_x.iter().zip(&sum_oracle) {
            assert!((a - b).abs() < 1e-8, "case {case}");
        }
    }
}

#[test]
fn ytx_partial_merge_is_associative_enough() {
    for case in 0..CASES {
        let y = sparse_matrix(case, 18, 10);
        let d = 2;
        let mut srng = Prng::seed_from_u64(case ^ 0x511);
        let split = (1 + srng.index(16)).min(y.rows().saturating_sub(1));
        let mean = y.col_means();
        let cm = Prng::seed_from_u64(case ^ 0xBEEF).normal_mat(y.cols(), d);
        let xm = cm.vecmat(&mean);

        let mut whole = mean_prop::YtxPartial::new(d);
        for r in 0..y.rows() {
            whole.add_row(y.row(r), &cm, &xm);
        }
        let mut left = mean_prop::YtxPartial::new(d);
        let mut right = mean_prop::YtxPartial::new(d);
        for r in 0..split {
            left.add_row(y.row(r), &cm, &xm);
        }
        for r in split..y.rows() {
            right.add_row(y.row(r), &cm, &xm);
        }
        left.merge(right);
        let ytx = left.finalize_ytx(&mean);
        assert!(ytx.max_abs_diff(&whole.finalize_ytx(&mean)) < 1e-9, "case {case}");
        for (a, b) in left.sum_x.iter().zip(&whole.sum_x) {
            assert!((a - b).abs() < 1e-9, "case {case}");
        }
        assert_eq!(left.rows_seen, whole.rows_seen, "case {case}");
    }
}

#[test]
fn qr_contract() {
    for case in 0..CASES {
        let a = dense_matrix(case, 12, 12);
        let qr = qr_thin(&a);
        assert!(qr.q.matmul(&qr.r).approx_eq(&a, 1e-8), "case {case}");
        let k = a.rows().min(a.cols());
        assert!(
            qr.q.matmul_tn(&qr.q).approx_eq(&Mat::identity(k), 1e-8),
            "case {case}"
        );
    }
}

#[test]
fn svd_contract() {
    for case in 0..CASES {
        let a = dense_matrix(case, 10, 10);
        let svd = svd_jacobi(&a).unwrap();
        assert!(svd.reconstruct().approx_eq(&a, 1e-7), "case {case}");
        for w in svd.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "case {case}");
        }
        assert!(svd.s.iter().all(|&s| s >= 0.0), "case {case}");
    }
}

#[test]
fn lu_solves_what_it_factored() {
    for seed in 0..CASES {
        let mut rng = Prng::seed_from_u64(seed);
        let n = 1 + rng.index(7);
        // Diagonally dominant → comfortably non-singular.
        let mut a = rng.normal_mat(n, n);
        for i in 0..n {
            a[(i, i)] += 4.0 + n as f64;
        }
        let x_true = rng.normal_vec(n);
        let b = a.matvec(&x_true);
        let x = Lu::new(&a).unwrap().solve(&b);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-8, "seed {seed}");
        }
    }
}

#[test]
fn symmetric_eigen_trace_and_residual() {
    for seed in 0..CASES {
        let mut rng = Prng::seed_from_u64(seed);
        let n = 1 + rng.index(9);
        let g = rng.normal_mat(n, n);
        let mut a = g.clone();
        a.add_assign(&g.transpose());
        a.scale(0.5);
        let eig = sym_eigen(&a).unwrap();
        // Trace is preserved by similarity transforms.
        let eig_sum: f64 = eig.values.iter().sum();
        assert!(
            (eig_sum - a.trace()).abs() < 1e-8 * (1.0 + a.trace().abs()),
            "seed {seed}"
        );
        // Eigenpair residual.
        for i in 0..n {
            let v = eig.vectors.col(i);
            let av = a.matvec(&v);
            for (x, y) in av.iter().zip(v.iter().map(|&vi| eig.values[i] * vi)) {
                assert!((x - y).abs() < 1e-7, "seed {seed}");
            }
        }
    }
}

#[test]
fn makespan_bounds_and_monotonicity() {
    for seed in 0..CASES {
        let mut rng = Prng::seed_from_u64(seed);
        let n = 1 + rng.index(39);
        let durations: Vec<f64> = (0..n).map(|_| 10.0 * rng.uniform()).collect();
        let cores = 1 + rng.index(31);
        let m = makespan(&durations, cores);
        let max = durations.iter().cloned().fold(0.0, f64::max);
        let sum: f64 = durations.iter().sum();
        // Lower bounds: longest task, and perfect division of total work.
        assert!(m >= max - 1e-12, "seed {seed}");
        assert!(m >= sum / cores as f64 - 1e-9, "seed {seed}");
        // Upper bound: one core does everything.
        assert!(m <= sum + 1e-9, "seed {seed}");
        // More cores never hurt.
        let m2 = makespan(&durations, cores * 2);
        assert!(m2 <= m + 1e-9, "seed {seed}");
    }
}

#[test]
fn sparse_dense_product_equivalence() {
    for case in 0..CASES {
        let y = sparse_matrix(case, 12, 10);
        let b = Prng::seed_from_u64(case ^ 0xF00D).normal_mat(y.cols(), 4);
        let sparse = y.mul_dense(&b);
        let dense = y.to_dense().matmul(&b);
        assert!(sparse.approx_eq(&dense, 1e-9), "case {case}");
    }
}
