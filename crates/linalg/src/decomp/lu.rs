//! LU decomposition with partial pivoting.
//!
//! sPCA only ever inverts the d×d matrix `M = C'C + ss·I` (Algorithm 4,
//! line 7), so a dependency-free Doolittle factorization is entirely
//! sufficient — d is 50 in every experiment of the paper.

use crate::dense::Mat;
use crate::error::LinalgError;
use crate::Result;

/// Packed LU factors of a square matrix, with row-pivot record.
#[derive(Debug, Clone)]
pub struct Lu {
    /// L (unit lower, below diagonal) and U (upper) packed in one matrix.
    lu: Mat,
    /// Row permutation applied to the input: `perm[i]` is the original row
    /// now sitting at position `i`.
    perm: Vec<usize>,
}

impl Lu {
    /// Factorizes a square matrix. Returns [`LinalgError::Singular`] if a
    /// pivot underflows.
    pub fn new(a: &Mat) -> Result<Lu> {
        assert_eq!(a.rows(), a.cols(), "lu: matrix must be square");
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Partial pivoting: largest magnitude in column k at or below k.
            let mut p = k;
            let mut max = lu[(k, k)].abs();
            for i in k + 1..n {
                let v = lu[(i, k)].abs();
                if v > max {
                    max = v;
                    p = i;
                }
            }
            if max < f64::MIN_POSITIVE {
                return Err(LinalgError::Singular { routine: "lu", pivot: max });
            }
            if p != k {
                perm.swap(p, k);
                for j in 0..n {
                    let tmp = lu[(p, j)];
                    lu[(p, j)] = lu[(k, j)];
                    lu[(k, j)] = tmp;
                }
            }
            let pivot = lu[(k, k)];
            for i in k + 1..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                for j in k + 1..n {
                    let sub = factor * lu[(k, j)];
                    lu[(i, j)] -= sub;
                }
            }
        }
        Ok(Lu { lu, perm })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b` for one right-hand side.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n, "lu solve: rhs length mismatch");
        // Apply permutation, then forward/back substitution.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut s = x[i];
            for (j, &xj) in x.iter().enumerate().take(i) {
                s -= self.lu[(i, j)] * xj;
            }
            x[i] = s;
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                s -= self.lu[(i, j)] * xj;
            }
            x[i] = s / self.lu[(i, i)];
        }
        x
    }

    /// Solves `A X = B` column by column.
    pub fn solve_mat(&self, b: &Mat) -> Mat {
        assert_eq!(b.rows(), self.dim(), "lu solve_mat: row count mismatch");
        let mut out = Mat::zeros(b.rows(), b.cols());
        for j in 0..b.cols() {
            let col = b.col(j);
            let x = self.solve(&col);
            for (i, v) in x.into_iter().enumerate() {
                out[(i, j)] = v;
            }
        }
        out
    }

    /// Explicit inverse `A⁻¹` — the `M⁻¹` of the EM iteration.
    pub fn inverse(&self) -> Mat {
        self.solve_mat(&Mat::identity(self.dim()))
    }
}

/// Convenience: invert a square matrix in one call.
pub fn inverse(a: &Mat) -> Result<Mat> {
    Ok(Lu::new(a)?.inverse())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_sample() -> Mat {
        Mat::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, -1.0], &[0.5, -1.0, 5.0]])
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd_sample();
        let x_true = [1.0, -2.0, 0.5];
        let b = a.matvec(&x_true);
        let x = Lu::new(&a).unwrap().solve(&b);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd_sample();
        let inv = inverse(&a).unwrap();
        let prod = a.matmul(&inv);
        assert!(prod.approx_eq(&Mat::identity(3), 1e-12));
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = Lu::new(&a).unwrap();
        let x = lu.solve(&[2.0, 3.0]);
        assert!((x[0] - 3.0).abs() < 1e-15);
        assert!((x[1] - 2.0).abs() < 1e-15);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        match Lu::new(&a) {
            Err(LinalgError::Singular { routine, .. }) => assert_eq!(routine, "lu"),
            other => panic!("expected Singular, got {other:?}"),
        }
    }

    #[test]
    fn solve_mat_matches_columnwise_solve() {
        let a = spd_sample();
        let b = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let lu = Lu::new(&a).unwrap();
        let x = lu.solve_mat(&b);
        assert!(a.matmul(&x).approx_eq(&b, 1e-12));
    }
}
