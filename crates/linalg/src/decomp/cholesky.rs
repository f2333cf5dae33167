//! Cholesky factorization for symmetric positive-definite systems.
//!
//! The M-step's `C = YtX / XtX` (Matlab mrdivide, Algorithm 4 line 11)
//! right-divides by the d×d matrix `XtX = Σₙ E[xₙxₙ']`, which is SPD
//! whenever the latent posterior is proper. Cholesky is the cheap, stable
//! way to do that solve; callers fall back to LU if the data is degenerate.

use crate::dense::Mat;
use crate::error::LinalgError;
use crate::kernels::{chunk_count, row_ranges};
use crate::pool::WorkerPool;
use crate::Result;

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Mat,
}

impl Cholesky {
    /// Factorizes an SPD matrix. Returns [`LinalgError::NotPositiveDefinite`]
    /// when a diagonal entry of the factor would be non-positive.
    pub fn new(a: &Mat) -> Result<Cholesky> {
        assert_eq!(a.rows(), a.cols(), "cholesky: matrix must be square");
        let n = a.rows();
        let mut l = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if s <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite { index: i, value: s });
                    }
                    l[(i, j)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &Mat {
        &self.l
    }

    /// Solves `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n, "cholesky solve: rhs length mismatch");
        // Forward: L y = b
        let mut x = b.to_vec();
        for i in 0..n {
            let mut s = x[i];
            for (k, &xk) in x.iter().enumerate().take(i) {
                s -= self.l[(i, k)] * xk;
            }
            x[i] = s / self.l[(i, i)];
        }
        // Backward: Lᵀ x = y
        for i in (0..n).rev() {
            let mut s = x[i];
            for (k, &xk) in x.iter().enumerate().skip(i + 1) {
                s -= self.l[(k, i)] * xk;
            }
            x[i] = s / self.l[(i, i)];
        }
        x
    }

    /// Solves `A X = B` column by column.
    pub fn solve_mat(&self, b: &Mat) -> Mat {
        assert_eq!(b.rows(), self.dim(), "cholesky solve_mat: row count mismatch");
        let mut out = Mat::zeros(b.rows(), b.cols());
        for j in 0..b.cols() {
            let x = self.solve(&b.col(j));
            for (i, v) in x.into_iter().enumerate() {
                out[(i, j)] = v;
            }
        }
        out
    }
}

/// Rows of `B` solved together by [`solve_spd_right`]: one per SIMD lane.
const LANES: usize = 8;

/// Matlab-style right division `B / A = B · A⁻¹` for symmetric `A`.
///
/// Solved without forming `A⁻¹`: `X A = B  ⇔  A xᵢ = bᵢ` row by row (A
/// symmetric), so row `i` of the result is bitwise [`Cholesky::solve`] of
/// row `i` of `B` — the rows are solved [`LANES`] at a time, one per SIMD
/// lane, in row bands on the shared pool. Falls back to LU when `A` is not
/// numerically SPD.
pub fn solve_spd_right(a: &Mat, b: &Mat) -> Result<Mat> {
    assert_eq!(a.rows(), a.cols(), "solve_spd_right: A must be square");
    assert_eq!(b.cols(), a.rows(), "solve_spd_right: B/A dimension mismatch");
    let ch = match Cholesky::new(a) {
        Ok(ch) => ch,
        Err(_) => {
            let xt = super::lu::Lu::new(a)?.solve_mat(&b.transpose());
            return Ok(xt.transpose());
        }
    };
    let (rows, n) = (b.rows(), a.rows());
    let mut out = Mat::zeros(rows, n);
    if rows == 0 || n == 0 {
        return Ok(out);
    }
    // The backward sweep reads L by columns; transposed once, both sweeps
    // stream contiguous rows.
    let lt = ch.l.transpose();
    let (l, lt) = (&ch.l, &lt);
    let ranges = row_ranges(rows, chunk_count(rows, 2 * n * n));
    let mut bands = Vec::with_capacity(ranges.len());
    let mut rest = out.data_mut();
    for &(start, end) in &ranges {
        let (head, tail) = rest.split_at_mut((end - start) * n);
        bands.push((start, head));
        rest = tail;
    }
    WorkerPool::global().run(
        bands
            .into_iter()
            .map(|(start, band)| move || solve_row_band(l, lt, b, start, band))
            .collect(),
    );
    Ok(out)
}

/// Solves `A x = b` for rows `start..` of `b` into `out` (one n-row per
/// input row), [`LANES`] rows at a time. The block is held transposed —
/// `t[i]` is element `i` of every lane's vector — so each step of the two
/// substitution sweeps is one vector operation in which lane `r` performs
/// exactly the operation [`Cholesky::solve`] performs for row `r`, in the
/// same order. Unused lanes of a short last block solve a zero vector.
fn solve_row_band(l: &Mat, lt: &Mat, b: &Mat, start: usize, out: &mut [f64]) {
    let n = l.rows();
    let mut t = vec![[0.0f64; LANES]; n];
    for (blk, out_blk) in out.chunks_mut(LANES * n).enumerate() {
        let first = start + blk * LANES;
        let lanes = out_blk.len() / n;
        for ti in &mut t {
            ti[lanes..].fill(0.0);
        }
        for lane in 0..lanes {
            for (ti, &v) in t.iter_mut().zip(b.row(first + lane)) {
                ti[lane] = v;
            }
        }
        // Forward: L y = b.
        for i in 0..n {
            let li = l.row(i);
            let (done, todo) = t.split_at_mut(i);
            let mut s = todo[0];
            for (tk, &lik) in done.iter().zip(li) {
                for (sl, &xk) in s.iter_mut().zip(tk) {
                    *sl -= lik * xk;
                }
            }
            for sl in &mut s {
                *sl /= li[i];
            }
            todo[0] = s;
        }
        // Backward: Lᵀ x = y.
        for i in (0..n).rev() {
            let lti = lt.row(i);
            let (head, done) = t.split_at_mut(i + 1);
            let mut s = head[i];
            for (tk, &lki) in done.iter().zip(&lti[i + 1..]) {
                for (sl, &xk) in s.iter_mut().zip(tk) {
                    *sl -= lki * xk;
                }
            }
            for sl in &mut s {
                *sl /= lti[i];
            }
            head[i] = s;
        }
        for (lane, row) in out_blk.chunks_exact_mut(n).enumerate() {
            for (o, ti) in row.iter_mut().zip(&t) {
                *o = ti[lane];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;

    fn random_spd(n: usize, seed: u64) -> Mat {
        let mut rng = Prng::seed_from_u64(seed);
        let g = rng.normal_mat(n + 2, n);
        let mut a = g.matmul_tn(&g);
        a.add_diag(0.5);
        a
    }

    #[test]
    fn factor_reconstructs_input() {
        let a = random_spd(6, 1);
        let ch = Cholesky::new(&a).unwrap();
        let rebuilt = ch.l().matmul(&ch.l().transpose());
        assert!(rebuilt.approx_eq(&a, 1e-10));
    }

    #[test]
    fn solve_matches_lu() {
        let a = random_spd(5, 2);
        let b = vec![1.0, -1.0, 2.0, 0.5, 3.0];
        let x_ch = Cholesky::new(&a).unwrap().solve(&b);
        let x_lu = super::super::lu::Lu::new(&a).unwrap().solve(&b);
        for (p, q) in x_ch.iter().zip(&x_lu) {
            assert!((p - q).abs() < 1e-9);
        }
    }

    #[test]
    fn non_spd_is_rejected() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        match Cholesky::new(&a) {
            Err(LinalgError::NotPositiveDefinite { .. }) => {}
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn right_division_matches_explicit_inverse() {
        let a = random_spd(4, 3);
        let mut rng = Prng::seed_from_u64(4);
        let b = rng.normal_mat(7, 4);
        let x = solve_spd_right(&a, &b).unwrap();
        let expected = b.matmul(&super::super::lu::inverse(&a).unwrap());
        assert!(x.approx_eq(&expected, 1e-9));
    }

    #[test]
    fn right_division_is_bitwise_per_row_cholesky_solve() {
        // Empty, sub-block, exact-block, block + 1, and a shape that splits
        // into pool bands with a short last block in each.
        for &n in &[1usize, 3, 50] {
            let a = random_spd(n, 10 + n as u64);
            let ch = Cholesky::new(&a).unwrap();
            for &rows in &[0usize, 1, 7, 8, 9, 1000] {
                let b = Prng::seed_from_u64((rows * 100 + n) as u64).normal_mat(rows, n);
                let x = solve_spd_right(&a, &b).unwrap();
                assert_eq!((x.rows(), x.cols()), (rows, n));
                for r in 0..rows {
                    let expected = ch.solve(b.row(r));
                    let same =
                        x.row(r).iter().zip(&expected).all(|(p, q)| p.to_bits() == q.to_bits());
                    assert!(same, "rows={rows} n={n}: row {r} differs from Cholesky::solve");
                }
            }
        }
        assert!(chunk_count(1000, 2 * 50 * 50) > 1, "the 1000x50 case must reach the pool");
    }

    #[test]
    fn right_division_falls_back_to_lu_for_indefinite() {
        // Symmetric but indefinite: Cholesky fails, LU must take over.
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        let b = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[3.0, -2.0]]);
        let x = solve_spd_right(&a, &b).unwrap();
        assert!(x.matmul(&a).approx_eq(&b, 1e-10));
        let lu_route = super::super::lu::Lu::new(&a).unwrap().solve_mat(&b.transpose()).transpose();
        assert_eq!(x, lu_route, "the fallback is the LU route, bit for bit");
    }
}
