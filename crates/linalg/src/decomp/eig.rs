//! Symmetric eigendecomposition.
//!
//! Two routes:
//!
//! * [`sym_eigen`] — Householder tridiagonalization followed by the implicit
//!   QL algorithm with Wilkinson shifts. O(n³) with a small constant; this
//!   is what the MLlib-PCA baseline uses on its D×D covariance matrix, so it
//!   must stay usable into the low thousands of dimensions.
//! * [`jacobi_eigen`] — cyclic Jacobi rotations. Slower but very robust;
//!   used for small matrices and as a cross-check in tests.
//!
//! Both return eigenvalues in descending order with matching eigenvector
//! columns.

use crate::dense::Mat;
use crate::error::LinalgError;
use crate::Result;

/// Eigendecomposition of a symmetric matrix: `A = V diag(λ) Vᵀ`.
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Eigenvectors as columns, ordered to match `values`.
    pub vectors: Mat,
}

/// `hypot`-style stable `sqrt(a² + b²)`.
#[inline]
fn pythag(a: f64, b: f64) -> f64 {
    a.hypot(b)
}

/// Householder reduction of a symmetric matrix to tridiagonal form
/// (classic `tred2`). On return `a` holds the accumulated orthogonal
/// transform `Q`, `d` the diagonal, `e` the sub-diagonal (`e[0]` unused).
fn tred2(a: &mut Mat, d: &mut [f64], e: &mut [f64]) {
    let n = a.rows();
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            let scale: f64 = (0..=l).map(|k| a[(i, k)].abs()).sum();
            if scale == 0.0 {
                e[i] = a[(i, l)];
            } else {
                for k in 0..=l {
                    a[(i, k)] /= scale;
                    h += a[(i, k)] * a[(i, k)];
                }
                let f = a[(i, l)];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                a[(i, l)] = f - g;
                let mut f_acc = 0.0;
                for j in 0..=l {
                    a[(j, i)] = a[(i, j)] / h;
                    let mut g_acc = 0.0;
                    for k in 0..=j {
                        g_acc += a[(j, k)] * a[(i, k)];
                    }
                    for k in j + 1..=l {
                        g_acc += a[(k, j)] * a[(i, k)];
                    }
                    e[j] = g_acc / h;
                    f_acc += e[j] * a[(i, j)];
                }
                let hh = f_acc / (h + h);
                for j in 0..=l {
                    let f = a[(i, j)];
                    let g = e[j] - hh * f;
                    e[j] = g;
                    for k in 0..=j {
                        let delta = f * e[k] + g * a[(i, k)];
                        a[(j, k)] -= delta;
                    }
                }
            }
        } else {
            e[i] = a[(i, l)];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
    for i in 0..n {
        if d[i] != 0.0 {
            for j in 0..i {
                let mut g = 0.0;
                for k in 0..i {
                    g += a[(i, k)] * a[(k, j)];
                }
                for k in 0..i {
                    let delta = g * a[(k, i)];
                    a[(k, j)] -= delta;
                }
            }
        }
        d[i] = a[(i, i)];
        a[(i, i)] = 1.0;
        for j in 0..i {
            a[(j, i)] = 0.0;
            a[(i, j)] = 0.0;
        }
    }
}

/// Implicit QL with Wilkinson shifts on a tridiagonal matrix (classic
/// `tqli`). `d` holds the diagonal (eigenvalues on return), `e` the
/// sub-diagonal in `e[1..]`, `z` the transform to accumulate into
/// (identity for tridiagonal input, the `tred2` output otherwise).
fn tqli(d: &mut [f64], e: &mut [f64], z: &mut Mat) -> Result<()> {
    let n = d.len();
    if n == 0 {
        return Ok(());
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small sub-diagonal element to split at.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 64 {
                return Err(LinalgError::NonConvergence { routine: "tqli", iterations: iter });
            }
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = pythag(g, 1.0);
            let sign_r = if g >= 0.0 { r.abs() } else { -r.abs() };
            g = d[m] - d[l] + e[l] / (g + sign_r);
            let (mut s, mut c) = (1.0, 1.0);
            let mut p = 0.0;
            let mut underflow = false;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = pythag(f, g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the rotation into the eigenvector matrix.
                for k in 0..z.rows() {
                    f = z[(k, i + 1)];
                    z[(k, i + 1)] = s * z[(k, i)] + c * f;
                    z[(k, i)] = c * z[(k, i)] - s * f;
                }
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// Sorts eigenpairs descending by eigenvalue.
fn sort_desc(values: Vec<f64>, vectors: Mat) -> SymEigen {
    let n = values.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| values[b].partial_cmp(&values[a]).expect("finite eigenvalues"));
    let sorted_values: Vec<f64> = order.iter().map(|&i| values[i]).collect();
    let mut sorted_vectors = Mat::zeros(vectors.rows(), n);
    for (new_col, &old_col) in order.iter().enumerate() {
        for r in 0..vectors.rows() {
            sorted_vectors[(r, new_col)] = vectors[(r, old_col)];
        }
    }
    SymEigen { values: sorted_values, vectors: sorted_vectors }
}

/// Full eigendecomposition of a symmetric matrix.
///
/// The input is read as symmetric (only consistency in exact arithmetic is
/// assumed; the strictly lower triangle is what the reduction consumes).
pub fn sym_eigen(a: &Mat) -> Result<SymEigen> {
    assert_eq!(a.rows(), a.cols(), "sym_eigen: matrix must be square");
    let n = a.rows();
    if n == 0 {
        return Ok(SymEigen { values: vec![], vectors: Mat::zeros(0, 0) });
    }
    let mut z = a.clone();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    tred2(&mut z, &mut d, &mut e);
    tqli(&mut d, &mut e, &mut z)?;
    Ok(sort_desc(d, z))
}

/// Cyclic Jacobi eigendecomposition. Robust reference implementation for
/// small symmetric matrices; O(n³) per sweep with larger constants than
/// [`sym_eigen`].
pub fn jacobi_eigen(a: &Mat) -> Result<SymEigen> {
    assert_eq!(a.rows(), a.cols(), "jacobi_eigen: matrix must be square");
    let n = a.rows();
    let mut m = a.clone();
    let mut v = Mat::identity(n);

    for _sweep in 0..100 {
        // Off-diagonal Frobenius mass.
        let mut off = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                off += m[(i, j)] * m[(i, j)];
            }
        }
        if off.sqrt() < 1e-14 * (1.0 + m.frobenius_sq().sqrt()) {
            let values = (0..n).map(|i| m[(i, i)]).collect();
            return Ok(sort_desc(values, v));
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = m[(p, q)];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Apply the rotation G(p,q,θ) on both sides of m and to v.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    Err(LinalgError::NonConvergence { routine: "jacobi_eigen", iterations: 100 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;

    fn random_symmetric(n: usize, seed: u64) -> Mat {
        let mut rng = Prng::seed_from_u64(seed);
        let g = rng.normal_mat(n, n);
        let mut s = g.clone();
        s.add_assign(&g.transpose());
        s.scale(0.5);
        s
    }

    fn check_decomposition(a: &Mat, eig: &SymEigen, tol: f64) {
        let n = a.rows();
        // Descending order.
        for w in eig.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "eigenvalues not descending: {:?}", eig.values);
        }
        // A v_i = λ_i v_i.
        for i in 0..n {
            let v = eig.vectors.col(i);
            let av = a.matvec(&v);
            for (x, y) in av.iter().zip(v.iter().map(|&vi| eig.values[i] * vi)) {
                assert!((x - y).abs() < tol, "eigenpair {i} residual too large");
            }
        }
        // Orthonormal eigenvectors.
        let vtv = eig.vectors.matmul_tn(&eig.vectors);
        assert!(vtv.approx_eq(&Mat::identity(n), tol));
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = Mat::from_rows(&[&[3.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 2.0]]);
        let eig = sym_eigen(&a).unwrap();
        assert!((eig.values[0] - 3.0).abs() < 1e-12);
        assert!((eig.values[1] - 2.0).abs() < 1e-12);
        assert!((eig.values[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Mat::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let eig = sym_eigen(&a).unwrap();
        assert!((eig.values[0] - 3.0).abs() < 1e-12);
        assert!((eig.values[1] - 1.0).abs() < 1e-12);
        check_decomposition(&a, &eig, 1e-10);
    }

    #[test]
    fn random_symmetric_decomposition() {
        for seed in 0..4 {
            let a = random_symmetric(12, seed);
            let eig = sym_eigen(&a).unwrap();
            check_decomposition(&a, &eig, 1e-8);
        }
    }

    #[test]
    fn larger_matrix_stays_accurate() {
        let a = random_symmetric(60, 99);
        let eig = sym_eigen(&a).unwrap();
        check_decomposition(&a, &eig, 1e-7);
    }

    #[test]
    fn jacobi_agrees_with_ql() {
        let a = random_symmetric(8, 5);
        let e1 = sym_eigen(&a).unwrap();
        let e2 = jacobi_eigen(&a).unwrap();
        for (x, y) in e1.values.iter().zip(&e2.values) {
            assert!((x - y).abs() < 1e-8, "{x} vs {y}");
        }
        check_decomposition(&a, &e2, 1e-8);
    }

    #[test]
    fn rank_deficient_matrix_has_zero_eigenvalues() {
        // Rank-1: x ⊗ x with ‖x‖² = 14 → eigenvalues {14, 0, 0}.
        let mut a = Mat::zeros(3, 3);
        a.add_outer(1.0, &[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]);
        let eig = sym_eigen(&a).unwrap();
        assert!((eig.values[0] - 14.0).abs() < 1e-10);
        assert!(eig.values[1].abs() < 1e-10);
        assert!(eig.values[2].abs() < 1e-10);
    }

    #[test]
    fn empty_matrix() {
        let eig = sym_eigen(&Mat::zeros(0, 0)).unwrap();
        assert!(eig.values.is_empty());
    }

    #[test]
    fn one_by_one() {
        let a = Mat::from_rows(&[&[7.0]]);
        let eig = sym_eigen(&a).unwrap();
        assert_eq!(eig.values, vec![7.0]);
    }
}
