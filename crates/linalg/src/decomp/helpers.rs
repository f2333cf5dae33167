//! Small-matrix helpers for randomized subspace iteration.
//!
//! Randomized PCA (Halko et al., arXiv:1007.5510) needs, between
//! distributed passes, an orthonormal basis of the D×K sketch and its top-d
//! singular triplets — and only *an* orthonormal basis of range(Z), so the
//! left singular vectors serve as both. [`gram_svd`] computes them as the
//! eigSVD of *Fast Randomized PCA for Sparse Data* (arXiv:1810.06825) from
//! the blocked kernels: `G = AᵀA` (`matmul_tn`), `G = V·diag(λ)·Vᵀ`
//! ([`sym_eigen`], K×K), `U = A·V·diag(1/√λ)` (`matmul`).
//!
//! **Two rounds.** One round leaves `max|UᵀU − I| ≈ ε·cond(A)²` — over the
//! suite's 1e-12 bar already at cond(A) ≈ 30 — so it is run again on `U₁`
//! (CholeskyQR2-style; defect a few ε), and the K×K factor between the
//! rounds, which now carries the singular values, goes through the small
//! [`svd_jacobi`].
//!
//! **Singular-Gram fallback.** Squaring the condition number only works
//! while `ε·cond(A)² ≪ 1`. When a round's Gram has `λ_min ≤ 0` or
//! `λ_min/λ_max <` [`GRAM_MIN_EIGEN_RATIO`] (zero or repeated columns,
//! rank < K, wide inputs, cond(A) ≳ 3·10⁴), [`gram_svd`] returns `None` and
//! its callers use [`qr_thin`] / [`svd_jacobi`] as they always did — a
//! property read off the input, not a knob. Edge cases are pinned by
//! `crates/linalg/tests/decomp_helpers.rs`.

use crate::dense::Mat;
use crate::error::LinalgError;
use crate::kernels;
use crate::pool::WorkerPool;
use crate::Result;

use super::eig::sym_eigen;
use super::qr::qr_thin;
use super::svd::{svd_jacobi, Svd};

/// Smallest `λ_min/λ_max` of `AᵀA` the Gram route accepts (cond(A) ≤
/// 10^4.5): round one then leaves a defect ≲ 1e-7·K for round two to remove.
pub const GRAM_MIN_EIGEN_RATIO: f64 = 1e-9;

/// `v` with column `j` multiplied by `scale[j]`.
fn scaled_cols(v: &Mat, scale: impl Fn(usize) -> f64) -> Mat {
    Mat::from_fn(v.rows(), v.cols(), |i, j| v[(i, j)] * scale(j))
}

/// One Gram round: `(s, V)` with `XᵀX = V·diag(s²)·Vᵀ`, descending; `None`
/// when the Gram is numerically singular or the eigensolver gives up.
fn gram_factor(pool: &WorkerPool, x: &Mat) -> Option<(Vec<f64>, Mat)> {
    let eig = sym_eigen(&kernels::matmul_tn_with_pool(pool, x, x)).ok()?;
    let (max, min) = (*eig.values.first()?, *eig.values.last()?);
    // Written so that NaN fails the test too.
    if !(max.is_finite() && min > 0.0 && min >= GRAM_MIN_EIGEN_RATIO * max) {
        return None;
    }
    Some((eig.values.iter().map(|l| l.sqrt()).collect(), eig.vectors))
}

/// Thin SVD of a tall matrix through its Gram matrix (module docs); `None`
/// when the Gram is numerically singular. Bit-identical on any pool: the
/// kernels are shape-chunked and merge in chunk order.
pub fn gram_svd(pool: &WorkerPool, a: &Mat) -> Option<Svd> {
    if a.rows() < a.cols() {
        return None;
    }
    let (s1, v1) = gram_factor(pool, a)?;
    let u1 = kernels::matmul_with_pool(pool, a, &scaled_cols(&v1, |j| 1.0 / s1[j]));
    let (s2, v2) = gram_factor(pool, &u1)?;
    // A = U₁·diag(s₁)V₁ᵀ = (U₁V₂diag(1/s₂))·Pᵀ, P = (V₁diag(s₁))·(V₂diag(s₂)).
    // One-sided Jacobi on P (not Pᵀ) puts its accumulated rotations —
    // orthogonal to a few ε whatever cond(P) — on the side that multiplies
    // U₁; its normalised-column side, orthogonal only to ~1e-14·cond(A)²
    // (what the old route charged `U`), lands in `vt`, which no caller uses.
    let p = scaled_cols(&v1, |j| s1[j]).matmul(&scaled_cols(&v2, |j| s2[j]));
    let small = svd_jacobi(&p).ok()?;
    let rot = scaled_cols(&v2, |j| 1.0 / s2[j]).matmul_nt(&small.vt);
    Some(Svd { u: kernels::matmul_with_pool(pool, &u1, &rot), s: small.s, vt: small.u.transpose() })
}

/// Returns an orthonormal basis for the column space of `a`: an
/// m × min(m, n) matrix with columns orthonormal to machine precision
/// ([`gram_svd`]'s `U`, or Householder `Q` when the Gram is singular).
///
/// Householder QR guarantees orthonormal `Q` even when `a` is rank
/// deficient (zero columns, repeated columns) — the basis then spans more
/// than the column space, which is exactly what subspace iteration wants:
/// the pass structure stays full width and dead directions get repopulated
/// by the next multiply. For wide inputs (n > m) the basis is m × m.
pub fn orthonormal_columns(a: &Mat) -> Mat {
    gram_svd(WorkerPool::global(), a).map_or_else(|| qr_thin(a).q, |svd| svd.u)
}

/// Top-`k` singular triplets of a small dense matrix, descending
/// ([`gram_svd`], or one-sided Jacobi when the Gram is singular).
///
/// Validates the rank request up front (`k` must not exceed `min(m, n)`)
/// instead of silently truncating like [`Svd::truncate`], so callers that
/// derive `k` from user configuration get a typed error rather than a
/// shape surprise downstream.
pub fn top_singular_triplets(a: &Mat, k: usize) -> Result<Svd> {
    let available = a.rows().min(a.cols());
    if k > available {
        return Err(LinalgError::RankTooLarge { requested: k, available });
    }
    let svd = match gram_svd(WorkerPool::global(), a) {
        Some(svd) => svd,
        None => svd_jacobi(a)?,
    };
    Ok(svd.truncate(k))
}

/// The one driver decomposition of a randomized pass: `(W, s, left)`, `W`
/// an orthonormal m × min(m, n) basis of range(`a`) (the next iterate) and
/// `s` the singular values, descending. On the Gram route `W` is
/// [`gram_svd`]'s `U`: the top-`k` left singular vectors (the model) are its
/// leading columns and `left` is `None`. On a singular Gram the result is
/// what the two wrappers give there, bit for bit: `W` Householder's `Q`,
/// `s` and `left = Some(U[:, ..k])` one-sided Jacobi's — factored first, so
/// Jacobi's m × n work matrix is gone before QR's is made.
pub fn singular_basis(a: &Mat, k: usize) -> Result<(Mat, Vec<f64>, Option<Mat>)> {
    let available = a.rows().min(a.cols());
    if k > available {
        return Err(LinalgError::RankTooLarge { requested: k, available });
    }
    if let Some(svd) = gram_svd(WorkerPool::global(), a) {
        return Ok((svd.u, svd.s, None));
    }
    let svd = svd_jacobi(a)?;
    let left = svd.u.leading_cols(k);
    drop(svd.u);
    Ok((qr_thin(a).q, svd.s, Some(left)))
}

/// Smallest principal-angle cosine between the column spaces of `a` and
/// `b`: `σ_min(QₐᵀQᵦ)` after orthonormalizing both. 1.0 means the spaces
/// coincide, 0.0 means some direction of one is orthogonal to all of the
/// other. The conformance suite uses this to compare a randomized subspace
/// against exact PCA without being sensitive to column order or sign.
pub fn subspace_overlap(a: &Mat, b: &Mat) -> Result<f64> {
    let qa = orthonormal_columns(a);
    let qb = orthonormal_columns(b);
    let s = svd_jacobi(&qa.matmul_tn(&qb))?.s;
    // Clamp: Jacobi can overshoot 1.0 by a few ulps on coinciding spaces.
    Ok(s.last().copied().unwrap_or(1.0).min(1.0))
}
