//! Property suite for the randomized-subspace-iteration helpers
//! (`decomp::helpers`): orthonormality to 1e-12, reconstruction, and the
//! degenerate shapes the rpca driver can feed them (single column,
//! rank-deficient sketches, more columns than rows).

use linalg::decomp::{orthonormal_columns, subspace_overlap, top_singular_triplets};
use linalg::{LinalgError, Mat, Prng};

const ORTHO_TOL: f64 = 1e-12;

/// max |QᵀQ - I| over all entries.
fn orthonormality_defect(q: &Mat) -> f64 {
    let gram = q.matmul_tn(q);
    let mut worst = 0.0f64;
    for i in 0..gram.rows() {
        for j in 0..gram.cols() {
            let want = if i == j { 1.0 } else { 0.0 };
            worst = worst.max((gram[(i, j)] - want).abs());
        }
    }
    worst
}

#[test]
fn orthonormal_columns_random_shapes() {
    let mut rng = Prng::seed_from_u64(0x0071);
    for &(m, n) in &[(1usize, 1usize), (5, 1), (40, 7), (64, 64), (200, 12)] {
        let a = rng.normal_mat(m, n);
        let q = orthonormal_columns(&a);
        assert_eq!(q.rows(), m);
        assert_eq!(q.cols(), m.min(n));
        let defect = orthonormality_defect(&q);
        assert!(defect <= ORTHO_TOL, "{m}x{n}: QᵀQ defect {defect:.3e}");
        // Q spans the columns of a: projecting a onto Q loses nothing.
        let proj = q.matmul(&q.matmul_tn(&a));
        assert!(proj.max_abs_diff(&a) <= 1e-10 * (1.0 + a.norm1()));
    }
}

#[test]
fn orthonormal_columns_rank_deficient_stays_orthonormal() {
    let mut rng = Prng::seed_from_u64(0x0072);
    // Three distinct deficiency patterns: an all-zero column, a repeated
    // column, and a matrix that is an outer product (rank one).
    let mut zero_col = rng.normal_mat(30, 5);
    for r in 0..30 {
        zero_col[(r, 2)] = 0.0;
    }
    let mut repeated = rng.normal_mat(30, 5);
    for r in 0..30 {
        repeated[(r, 4)] = repeated[(r, 0)];
    }
    let u = rng.normal_vec(30);
    let v = rng.normal_vec(5);
    let rank_one = Mat::from_fn(30, 5, |i, j| u[i] * v[j]);

    for (name, a) in [("zero-col", zero_col), ("repeated", repeated), ("rank-one", rank_one)] {
        let q = orthonormal_columns(&a);
        assert_eq!((q.rows(), q.cols()), (30, 5), "{name}");
        let defect = orthonormality_defect(&q);
        assert!(defect <= ORTHO_TOL, "{name}: defect {defect:.3e}");
    }
}

#[test]
fn orthonormal_columns_wide_input_gives_full_square_basis() {
    let mut rng = Prng::seed_from_u64(0x0073);
    let a = rng.normal_mat(6, 17);
    let q = orthonormal_columns(&a);
    assert_eq!((q.rows(), q.cols()), (6, 6));
    assert!(orthonormality_defect(&q) <= ORTHO_TOL);
}

#[test]
fn top_singular_triplets_reconstructs_low_rank_input() {
    let mut rng = Prng::seed_from_u64(0x0074);
    // Build an exactly rank-4 matrix and recover it from its top 4 triplets.
    let left = rng.normal_mat(25, 4);
    let right = rng.normal_mat(4, 18);
    let a = left.matmul(&right);
    let svd = top_singular_triplets(&a, 4).expect("rank fits");
    assert_eq!((svd.u.rows(), svd.u.cols()), (25, 4));
    assert_eq!(svd.s.len(), 4);
    assert_eq!((svd.vt.rows(), svd.vt.cols()), (4, 18));
    let rebuilt = svd.reconstruct();
    let scale = a.frobenius_sq().sqrt().max(1.0);
    assert!(rebuilt.max_abs_diff(&a) / scale <= 1e-10);
    // Both factors orthonormal, singular values sorted non-negative.
    assert!(orthonormality_defect(&svd.u) <= ORTHO_TOL);
    assert!(orthonormality_defect(&svd.vt.transpose()) <= ORTHO_TOL);
    assert!(svd.s.windows(2).all(|w| w[0] >= w[1]) && svd.s.iter().all(|&s| s >= 0.0));
}

#[test]
fn top_singular_triplets_single_component() {
    let mut rng = Prng::seed_from_u64(0x0075);
    let a = rng.normal_mat(12, 9);
    let svd = top_singular_triplets(&a, 1).expect("d=1 fits");
    assert_eq!((svd.u.rows(), svd.u.cols()), (12, 1));
    assert_eq!(svd.s.len(), 1);
    // The top triplet dominates every other direction: σ₁ = max ‖Av‖ ≥ column norms.
    let full = top_singular_triplets(&a, 9).expect("full rank fits");
    assert!((svd.s[0] - full.s[0]).abs() <= 1e-10 * full.s[0].max(1.0));
}

#[test]
fn top_singular_triplets_wide_and_rank_deficient() {
    let mut rng = Prng::seed_from_u64(0x0076);
    // Wide (more columns than rows) and only rank 2.
    let left = rng.normal_mat(5, 2);
    let right = rng.normal_mat(2, 40);
    let a = left.matmul(&right);
    let svd = top_singular_triplets(&a, 5).expect("k = min(m,n) fits");
    assert_eq!(svd.s.len(), 5);
    // Trailing singular values vanish; reconstruction still exact.
    assert!(svd.s[2] <= 1e-8 * svd.s[0].max(1.0));
    let scale = a.frobenius_sq().sqrt().max(1.0);
    assert!(svd.reconstruct().max_abs_diff(&a) / scale <= 1e-10);
}

#[test]
fn top_singular_triplets_rejects_oversized_rank() {
    let mut rng = Prng::seed_from_u64(0x0077);
    let a = rng.normal_mat(7, 3);
    match top_singular_triplets(&a, 4) {
        Err(LinalgError::RankTooLarge { requested: 4, available: 3 }) => {}
        other => panic!("expected RankTooLarge, got {other:?}"),
    }
}

#[test]
fn subspace_overlap_identical_rotated_and_orthogonal() {
    let mut rng = Prng::seed_from_u64(0x0078);
    let a = rng.normal_mat(20, 3);
    // Same space under an invertible column mix: overlap 1.
    let mix = rng.normal_mat(3, 3);
    let mixed = a.matmul(&mix);
    let same = subspace_overlap(&a, &mixed).expect("svd converges");
    assert!((same - 1.0).abs() <= 1e-9, "same-space overlap {same}");
    // Orthogonal complement built by Gram–Schmidt against Qa: overlap ~0.
    let qa = orthonormal_columns(&a);
    let mut other = rng.normal_mat(20, 3);
    let coeffs = qa.matmul_tn(&other);
    other.add_scaled(-1.0, &qa.matmul(&coeffs));
    let disjoint = subspace_overlap(&a, &other).expect("svd converges");
    assert!(disjoint <= 1e-9, "orthogonal overlap {disjoint}");
}

// ---------------------------------------------------------------------------
// The Gram route (`gram_svd`) against the Householder/Jacobi oracle
// ---------------------------------------------------------------------------

use linalg::decomp::{gram_svd, qr_thin, singular_basis, svd_jacobi};
use linalg::decomp::{Svd, GRAM_MIN_EIGEN_RATIO};
use linalg::WorkerPool;

/// The Gram route on the global pool, as the helpers run it.
fn gram(a: &Mat) -> Option<Svd> {
    gram_svd(WorkerPool::global(), a)
}

fn bits(m: &Mat) -> Vec<u64> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// Gaussian m×n with column `j` scaled by `cond^(-j/(n-1))`: cond(A) ≈ `cond`
/// times the (small) condition number of the Gaussian factor.
fn graded(rng: &mut Prng, m: usize, n: usize, cond: f64) -> Mat {
    let g = rng.normal_mat(m, n);
    Mat::from_fn(m, n, |i, j| g[(i, j)] * cond.powf(-(j as f64) / (n.max(2) - 1) as f64))
}

/// The contract every route owes: shapes, orthonormal `U`, descending
/// non-negative `s`, and `U·diag(s)·Vᵀ = A`.
fn check_svd(name: &str, a: &Mat, svd: &Svd) {
    let k = a.rows().min(a.cols());
    assert_eq!((svd.u.rows(), svd.u.cols(), svd.s.len()), (a.rows(), k, k), "{name}");
    let defect = orthonormality_defect(&svd.u);
    assert!(defect <= ORTHO_TOL, "{name}: UᵀU defect {defect:.3e}");
    assert!(svd.s.windows(2).all(|w| w[0] >= w[1]) && svd.s.iter().all(|&s| s >= 0.0), "{name}");
    let scale = a.frobenius_sq().sqrt().max(1.0);
    let resid = svd.reconstruct().max_abs_diff(a) / scale;
    assert!(resid <= 1e-10, "{name}: reconstruction residual {resid:.3e}");
}

#[test]
fn gram_svd_matches_the_oracle_on_tall_shapes() {
    let mut rng = Prng::seed_from_u64(0x0079);
    // Up to the benchmark's sketch shape; cond ≈ 30 like its Z.
    let shapes = [(12usize, 1usize, 1usize), (200, 12, 5), (2_000, 24, 10), (10_000, 60, 50)];
    for &(m, n, d) in &shapes {
        let name = format!("{m}x{n}");
        let a = graded(&mut rng, m, n, 30.0);
        let svd = gram(&a).unwrap_or_else(|| panic!("{name}: well-conditioned, Gram route"));
        check_svd(&name, &a, &svd);
        let oracle = svd_jacobi(&a).expect("jacobi converges");
        for (i, (got, want)) in svd.s.iter().zip(&oracle.s).enumerate() {
            assert!((got - want).abs() <= 1e-10 * want, "{name}: σ{i} {got} vs {want}");
        }
        let overlap = subspace_overlap(&svd.u.leading_cols(d), &oracle.u.leading_cols(d)).unwrap();
        assert!(overlap >= 1.0 - 1e-10, "{name}: top-{d} overlap {overlap}");
        // The wrappers and the fused call are views of the same result.
        assert_eq!(bits(&orthonormal_columns(&a)), bits(&svd.u), "{name}");
        assert_eq!(bits(&top_singular_triplets(&a, d).unwrap().u), bits(&svd.u.leading_cols(d)));
        let (basis, s, left) = singular_basis(&a, d).unwrap();
        assert_eq!((bits(&basis), &s), (bits(&svd.u), &svd.s), "{name}");
        assert!(left.is_none(), "{name}: on the Gram route the basis carries the model");
    }
}

/// `A = Q₁·diag(σ)·Q₂ᵀ` with the given singular values exactly (up to
/// round-off); both orthogonal factors come from Householder QR directly so
/// the fixture does not lean on the code under test.
fn with_singular_values(rng: &mut Prng, m: usize, sigma: &[f64]) -> (Mat, Mat) {
    let n = sigma.len();
    let q1 = qr_thin(&rng.normal_mat(m, n)).q;
    let q2 = qr_thin(&rng.normal_mat(n, n)).q;
    let scaled = Mat::from_fn(m, n, |i, j| q1[(i, j)] * sigma[j]);
    (scaled.matmul_nt(&q2), q1)
}

/// On the fallback the old helpers' results come back bit for bit.
fn assert_takes_fallback(name: &str, a: &Mat) {
    assert!(gram(a).is_none(), "{name}: singular Gram must refuse the Gram route");
    assert_eq!(bits(&orthonormal_columns(a)), bits(&qr_thin(a).q), "{name}: Q");
    let k = a.rows().min(a.cols());
    let (got, want) = (top_singular_triplets(a, k).unwrap(), svd_jacobi(a).unwrap());
    assert_eq!((bits(&got.u), &got.s, bits(&got.vt)), (bits(&want.u), &want.s, bits(&want.vt)));
    for d in [1, k] {
        let (basis, s, left) = singular_basis(a, d).unwrap();
        assert_eq!((bits(&basis), &s), (bits(&qr_thin(a).q), &want.s), "{name}: fused call");
        assert_eq!(left.as_ref().map(bits), Some(bits(&want.u.leading_cols(d))), "{name}: left");
    }
}

#[test]
fn conditioning_ladder_switches_to_the_fallback_at_the_documented_constant() {
    let mut rng = Prng::seed_from_u64(0x007a);
    let (m, n, d) = (300usize, 5usize, 2usize);
    for decade in 0..=12 {
        let cond = 10f64.powi(decade);
        let name = format!("cond 1e{decade}");
        let sigma: Vec<f64> = (0..n).map(|j| cond.powf(-(j as f64) / (n - 1) as f64)).collect();
        let (a, q1) = with_singular_values(&mut rng, m, &sigma);
        let defect = orthonormality_defect(&orthonormal_columns(&a));
        assert!(defect <= ORTHO_TOL, "{name}: defect {defect:.3e}");
        if cond.powi(-2) >= GRAM_MIN_EIGEN_RATIO {
            let svd = gram(&a).unwrap_or_else(|| panic!("{name}: Gram route"));
            check_svd(&name, &a, &svd);
            for (got, want) in svd.s.iter().zip(&sigma) {
                assert!((got - want).abs() <= 1e-10 * want, "{name}: σ {got} vs {want}");
            }
        } else {
            assert_takes_fallback(&name, &a);
        }
        // Either way the fused call's model columns are the leading
        // singular vectors (gaps ≥ 10 from cond 1e4 on).
        let (basis, _, left) = singular_basis(&a, d).unwrap();
        if decade >= 4 {
            let model = left.unwrap_or_else(|| basis.leading_cols(d));
            let overlap = subspace_overlap(&model, &q1.leading_cols(d)).unwrap();
            assert!(overlap >= 1.0 - 1e-6, "{name}: top-{d} overlap {overlap}");
        }
    }
}

#[test]
fn exact_rank_deficiency_takes_the_fallback() {
    let mut rng = Prng::seed_from_u64(0x007b);
    let mut zero_col = rng.normal_mat(30, 5);
    let mut repeated = rng.normal_mat(30, 5);
    for r in 0..30 {
        zero_col[(r, 2)] = 0.0;
        repeated[(r, 4)] = repeated[(r, 0)];
    }
    let (u, v) = (rng.normal_vec(30), rng.normal_vec(5));
    let rank_one = Mat::from_fn(30, 5, |i, j| u[i] * v[j]);
    let rank_three = rng.normal_mat(40, 3).matmul(&rng.normal_mat(3, 7));
    for (name, a) in [
        ("zero column", zero_col),
        ("repeated column", repeated),
        ("rank one", rank_one),
        ("wide", rng.normal_mat(6, 17)),
        ("zero single column", Mat::zeros(9, 1)),
        ("all zero", Mat::zeros(12, 4)),
    ] {
        assert_takes_fallback(name, &a);
    }
    // d = rank: the fused call's three model columns span range(A).
    assert_takes_fallback("d = rank", &rank_three);
    let (_, s, left) = singular_basis(&rank_three, 3).unwrap();
    assert!(s[3] <= 1e-12 * s[0], "rank three: σ₄ {}", s[3]);
    let overlap = subspace_overlap(&left.expect("fallback"), &rank_three).unwrap();
    assert!(overlap >= 1.0 - 1e-9, "rank three: range overlap {overlap}");
    assert!(singular_basis(&rank_three, 8).is_err(), "rank request past min(m, n)");
    // A non-zero single column is as well conditioned as it gets.
    let col = rng.normal_mat(9, 1);
    check_svd("single column", &col, &gram(&col).expect("Gram route"));
}

#[test]
fn gram_svd_is_bit_identical_across_worker_pools() {
    // 4000×40: six matmul row-chunks and three Gram bands — the pool splits.
    let a = graded(&mut Prng::seed_from_u64(0x007c), 4_000, 40, 30.0);
    let run = |workers: usize| {
        let svd = gram_svd(&WorkerPool::new(workers), &a).expect("Gram route");
        (bits(&svd.u), svd.s.iter().map(|s| s.to_bits()).collect::<Vec<_>>(), bits(&svd.vt))
    };
    let one = run(1);
    assert_eq!(one, run(2), "1 vs 2 workers");
    assert_eq!(one, run(8), "1 vs 8 workers");
}

#[test]
fn sketched_singular_values_never_exceed_the_true_ones() {
    // Interlacing, re-homed from the deleted `randomized_svd` suite onto the
    // routine that replaced it: for orthonormal W, σᵢ(A·W) ≤ σᵢ(A), and a
    // sketch of more than half the width keeps a fair share of each.
    for seed in 0..48u64 {
        let mut rng = Prng::seed_from_u64(seed);
        let a = rng.normal_mat(16, 10);
        let w = orthonormal_columns(&rng.normal_mat(10, 7));
        let sketch = gram(&a.matmul(&w)).expect("Gaussian sketch: Gram route");
        let exact = svd_jacobi(&a).unwrap();
        for i in 0..3 {
            assert!(sketch.s[i] <= exact.s[i] * (1.0 + 1e-9), "seed {seed}: σ{i} over-estimated");
            assert!(sketch.s[i] >= exact.s[i] * 0.3, "seed {seed}: σ{i} collapsed");
        }
    }
}
