//! Singular value decomposition by one-sided Jacobi rotations.
//!
//! This is the small/medium dense SVD used to finish SSVD (the k×k or k×D
//! stage after projection) and the bidiagonal path. One-sided Jacobi
//! orthogonalizes the *columns* of the working matrix; it is simple, very
//! accurate for small singular values, and needs no bidiagonal bookkeeping.

use crate::dense::Mat;
use crate::error::LinalgError;
use crate::vector;
use crate::Result;

/// Thin SVD `A = U diag(s) Vᵀ` with `k = min(m, n)` columns in `U`,
/// `k` singular values (descending, non-negative) and `Vᵀ` of shape k×n.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (m × k).
    pub u: Mat,
    /// Singular values, descending.
    pub s: Vec<f64>,
    /// Right singular vectors, transposed (k × n).
    pub vt: Mat,
}

impl Svd {
    /// Keeps only the top `k` singular triplets.
    pub fn truncate(mut self, k: usize) -> Svd {
        let k = k.min(self.s.len());
        self.s.truncate(k);
        self.u = self.u.leading_cols(k);
        self.vt = self.vt.row_block(0, k);
        self
    }

    /// Reconstructs `U diag(s) Vᵀ` (for tests and small matrices).
    pub fn reconstruct(&self) -> Mat {
        let mut us = self.u.clone();
        for r in 0..us.rows() {
            for (c, &sv) in self.s.iter().enumerate() {
                us[(r, c)] *= sv;
            }
        }
        us.matmul(&self.vt)
    }
}

/// Computes the thin SVD of a dense matrix by one-sided Jacobi.
pub fn svd_jacobi(a: &Mat) -> Result<Svd> {
    if a.rows() >= a.cols() {
        svd_tall(a)
    } else {
        // Work on the transpose and swap factors: A = U S Vᵀ ⇔ Aᵀ = V S Uᵀ.
        let t = svd_tall(&a.transpose())?;
        Ok(Svd { u: t.vt.transpose(), s: t.s, vt: t.u.transpose() })
    }
}

fn svd_tall(a: &Mat) -> Result<Svd> {
    let m = a.rows();
    let n = a.cols();
    debug_assert!(m >= n);
    if n == 0 {
        return Ok(Svd { u: Mat::zeros(m, 0), s: vec![], vt: Mat::zeros(0, 0) });
    }

    // Column-major working copy: columns get orthogonalized in place.
    let mut cols: Vec<Vec<f64>> = (0..n).map(|j| a.col(j)).collect();
    let mut v = Mat::identity(n);
    let scale = a.frobenius_sq().sqrt().max(f64::MIN_POSITIVE);
    let tol = 1e-14 * scale * scale;

    let max_sweeps = 60;
    let mut converged = false;
    for _ in 0..max_sweeps {
        let mut rotated = false;
        for p in 0..n {
            for q in p + 1..n {
                let alpha = vector::norm2_sq(&cols[p]);
                let beta = vector::norm2_sq(&cols[q]);
                let gamma = vector::dot(&cols[p], &cols[q]);
                if gamma.abs() <= tol.max(1e-30) || gamma.abs() <= 1e-15 * (alpha * beta).sqrt() {
                    continue;
                }
                rotated = true;
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                // Rotate the column pair in the working matrix…
                let (cp, cq) = split_pair(&mut cols, p, q);
                for (x, y) in cp.iter_mut().zip(cq.iter_mut()) {
                    let xp = *x;
                    *x = c * xp - s * *y;
                    *y = s * xp + c * *y;
                }
                // …and accumulate into V.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
        if !rotated {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(LinalgError::NonConvergence { routine: "svd_jacobi", iterations: max_sweeps });
    }

    // Singular values = column norms; normalize columns into U.
    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<f64> = cols.iter().map(|c| vector::norm2(c)).collect();
    order.sort_by(|&a, &b| norms[b].partial_cmp(&norms[a]).expect("finite norms"));

    let mut u = Mat::zeros(m, n);
    let mut s = Vec::with_capacity(n);
    let mut vt = Mat::zeros(n, n);
    for (new_j, &old_j) in order.iter().enumerate() {
        let norm = norms[old_j];
        s.push(norm);
        if norm > 0.0 {
            for r in 0..m {
                u[(r, new_j)] = cols[old_j][r] / norm;
            }
        }
        for r in 0..n {
            vt[(new_j, r)] = v[(r, old_j)];
        }
    }
    Ok(Svd { u, s, vt })
}

/// Mutable references to two distinct columns.
fn split_pair(cols: &mut [Vec<f64>], p: usize, q: usize) -> (&mut Vec<f64>, &mut Vec<f64>) {
    debug_assert!(p < q);
    let (lo, hi) = cols.split_at_mut(q);
    (&mut lo[p], &mut hi[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;

    fn check_svd(a: &Mat, svd: &Svd, tol: f64) {
        let k = a.rows().min(a.cols());
        assert_eq!(svd.s.len(), k);
        for w in svd.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "singular values not descending");
        }
        assert!(svd.s.iter().all(|&x| x >= 0.0));
        assert!(svd.reconstruct().approx_eq(a, tol), "SVD does not reconstruct input");
        // Orthonormality (columns of U; rows of Vt) — only for nonzero
        // singular values, rank-deficient trailing vectors may be zero.
        let rank = svd.s.iter().filter(|&&x| x > tol).count();
        let utu = svd.u.matmul_tn(&svd.u);
        let vvt = svd.vt.matmul_nt(&svd.vt);
        for i in 0..rank {
            assert!((utu[(i, i)] - 1.0).abs() < tol, "U column {i} not unit");
            assert!((vvt[(i, i)] - 1.0).abs() < tol, "V column {i} not unit");
            for j in 0..rank {
                if i != j {
                    assert!(utu[(i, j)].abs() < tol);
                    assert!(vvt[(i, j)].abs() < tol);
                }
            }
        }
    }

    #[test]
    fn svd_of_diagonal() {
        let a = Mat::from_rows(&[&[3.0, 0.0], &[0.0, 5.0], &[0.0, 0.0]]);
        let svd = svd_jacobi(&a).unwrap();
        assert!((svd.s[0] - 5.0).abs() < 1e-12);
        assert!((svd.s[1] - 3.0).abs() < 1e-12);
        check_svd(&a, &svd, 1e-10);
    }

    #[test]
    fn svd_of_random_tall() {
        let mut rng = Prng::seed_from_u64(31);
        let a = rng.normal_mat(15, 6);
        let svd = svd_jacobi(&a).unwrap();
        check_svd(&a, &svd, 1e-9);
    }

    #[test]
    fn svd_of_random_wide() {
        let mut rng = Prng::seed_from_u64(32);
        let a = rng.normal_mat(5, 12);
        let svd = svd_jacobi(&a).unwrap();
        check_svd(&a, &svd, 1e-9);
    }

    #[test]
    fn svd_of_square() {
        let mut rng = Prng::seed_from_u64(33);
        let a = rng.normal_mat(8, 8);
        let svd = svd_jacobi(&a).unwrap();
        check_svd(&a, &svd, 1e-9);
    }

    #[test]
    fn svd_of_rank_one() {
        let mut a = Mat::zeros(4, 3);
        a.add_outer(1.0, &[1.0, 2.0, 0.0, -1.0], &[1.0, 1.0, 1.0]);
        let svd = svd_jacobi(&a).unwrap();
        // ‖x‖·‖y‖ = sqrt(6)·sqrt(3).
        assert!((svd.s[0] - (18.0_f64).sqrt()).abs() < 1e-10);
        assert!(svd.s[1].abs() < 1e-10);
        check_svd(&a, &svd, 1e-9);
    }

    #[test]
    fn singular_values_match_eigenvalues_of_gram() {
        let mut rng = Prng::seed_from_u64(34);
        let a = rng.normal_mat(10, 4);
        let svd = svd_jacobi(&a).unwrap();
        let gram = a.matmul_tn(&a);
        let eig = super::super::eig::sym_eigen(&gram).unwrap();
        for (sv, ev) in svd.s.iter().zip(&eig.values) {
            assert!((sv * sv - ev).abs() < 1e-8, "s²={} vs λ={}", sv * sv, ev);
        }
    }

    #[test]
    fn truncate_keeps_top_triplets() {
        let mut rng = Prng::seed_from_u64(35);
        let a = rng.normal_mat(9, 5);
        let svd = svd_jacobi(&a).unwrap().truncate(2);
        assert_eq!(svd.s.len(), 2);
        assert_eq!(svd.u.cols(), 2);
        assert_eq!(svd.vt.rows(), 2);
    }

    #[test]
    fn zero_matrix() {
        let a = Mat::zeros(3, 2);
        let svd = svd_jacobi(&a).unwrap();
        assert!(svd.s.iter().all(|&x| x == 0.0));
        assert!(svd.reconstruct().approx_eq(&a, 1e-14));
    }
}
