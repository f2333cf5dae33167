//! Randomized contracts for the decomposition and I/O layers.
//!
//! Formerly proptest-based; now driven by the in-tree seeded [`Prng`] so
//! the workspace builds offline with zero external dependencies. Each test
//! sweeps a fixed number of seeded cases — deterministic, reproducible
//! from the case index, and covering the same invariants.

use linalg::decomp::{bidiagonalize, golub_reinsch_svd, lanczos_svd, svd_via_bidiag, Cholesky};
use linalg::{io, Mat, Prng, SparseMat};

const CASES: u64 = 48;

/// Seeded stand-in for proptest's matrix strategy: dimensions in
/// `[2, max)` and normal entries, all derived from the case seed.
fn seeded_matrix(case: u64, max_rows: usize, max_cols: usize) -> Mat {
    let mut rng = Prng::seed_from_u64(0xA11CE ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let r = 2 + rng.index(max_rows - 2);
    let c = 2 + rng.index(max_cols - 2);
    rng.normal_mat(r, c)
}

#[test]
fn bidiagonalization_contract() {
    for case in 0..CASES {
        let a = seeded_matrix(case, 14, 8);
        // Work on the tall orientation.
        let a = if a.rows() >= a.cols() { a } else { a.transpose() };
        let bd = bidiagonalize(&a);
        let rebuilt = bd.u.matmul(&bd.b_matrix()).matmul(&bd.v.transpose());
        assert!(rebuilt.approx_eq(&a, 1e-8), "case {case}");
    }
}

#[test]
fn golub_reinsch_contract() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(case);
        let n = 2 + rng.index(7);
        let diag = rng.normal_vec(n);
        let superdiag = rng.normal_vec(n - 1);
        let (u, s, vt) = golub_reinsch_svd(&diag, &superdiag).unwrap();
        // Orthogonality and descending non-negative values.
        assert!(u.matmul_tn(&u).approx_eq(&Mat::identity(n), 1e-8), "case {case}");
        assert!(vt.matmul_nt(&vt).approx_eq(&Mat::identity(n), 1e-8), "case {case}");
        for w in s.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "case {case}");
        }
        assert!(s.iter().all(|&x| x >= 0.0), "case {case}");
        // Reconstruction.
        let mut b = Mat::zeros(n, n);
        for i in 0..n {
            b[(i, i)] = diag[i];
            if i + 1 < n {
                b[(i, i + 1)] = superdiag[i];
            }
        }
        let mut us = u.clone();
        for r in 0..n {
            for (c, &sv) in s.iter().enumerate() {
                us[(r, c)] *= sv;
            }
        }
        assert!(us.matmul(&vt).approx_eq(&b, 1e-8), "case {case}");
    }
}

#[test]
fn bidiag_svd_pipeline_matches_frobenius_mass() {
    for case in 0..CASES {
        let a = seeded_matrix(case, 10, 10);
        // Σσ² == ‖A‖²_F (unitary invariance).
        let svd = svd_via_bidiag(&a).unwrap();
        let mass: f64 = svd.s.iter().map(|s| s * s).sum();
        assert!(
            (mass - a.frobenius_sq()).abs() < 1e-7 * (1.0 + a.frobenius_sq()),
            "case {case}"
        );
    }
}

#[test]
fn lanczos_finds_the_dominant_value() {
    for seed in 0..CASES {
        // Rank-heavy planted direction: Lanczos σ₁ must match dense σ₁.
        let mut rng = Prng::seed_from_u64(seed);
        let mut a = rng.normal_mat(20, 12);
        let x = rng.normal_vec(20);
        let y = rng.normal_vec(12);
        a.add_outer(10.0, &x, &y);
        let mut lrng = Prng::seed_from_u64(seed ^ 1);
        let lan = lanczos_svd(&a, 1, 10, &mut lrng).unwrap();
        let exact = linalg::decomp::svd_jacobi(&a).unwrap();
        assert!((lan.s[0] - exact.s[0]).abs() < 1e-6 * exact.s[0], "seed {seed}");
    }
}

#[test]
fn cholesky_solve_contract() {
    for seed in 0..CASES {
        let mut rng = Prng::seed_from_u64(seed);
        let n = 1 + rng.index(7);
        let g = rng.normal_mat(n + 2, n);
        let mut a = g.matmul_tn(&g);
        a.add_diag(0.5);
        let x_true = rng.normal_vec(n);
        let b = a.matvec(&x_true);
        let x = Cholesky::new(&a).unwrap().solve(&b);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-7, "seed {seed}");
        }
    }
}

#[test]
fn sparse_io_roundtrip() {
    for seed in 0..CASES {
        let mut rng = Prng::seed_from_u64(seed);
        let rows = 1 + rng.index(11);
        let cols = 1 + rng.index(11);
        let mut triplets = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if rng.uniform() < 0.3 {
                    triplets.push((r, c as u32, rng.normal()));
                }
            }
        }
        let m = SparseMat::from_triplets(rows, cols, &triplets);
        let mut buf = Vec::new();
        io::write_sparse(&mut buf, &m).unwrap();
        let back = io::read_sparse(&mut buf.as_slice()).unwrap();
        assert_eq!(m, back, "seed {seed}");
    }
}

#[test]
fn dense_io_roundtrip() {
    for case in 0..CASES {
        let a = seeded_matrix(case, 8, 8);
        let mut buf = Vec::new();
        io::write_dense(&mut buf, &a).unwrap();
        let back = io::read_dense(&mut buf.as_slice()).unwrap();
        assert!(a.approx_eq(&back, 0.0), "case {case}");
    }
}

#[test]
fn zipf_sampling_respects_rank_order() {
    for seed in 0..CASES {
        // Rank 0 must be sampled at least as often as rank n-1 over many
        // draws (with a margin for sampling noise).
        let mut rng = Prng::seed_from_u64(seed);
        let n = 2 + rng.index(198);
        let table = linalg::rng::ZipfTable::new(n, 1.0);
        let draws = 4_000;
        let mut first = 0usize;
        let mut last = 0usize;
        for _ in 0..draws {
            let s = rng.zipf(&table);
            if s == 0 {
                first += 1;
            }
            if s == n - 1 {
                last += 1;
            }
        }
        assert!(first + 40 >= last, "seed {seed}: rank 0 ({first}) vs rank n-1 ({last})");
    }
}
