//! Row-major dense matrix.
//!
//! In sPCA the dense matrices are the *small* ones — `C` (D×d), `M`, `XtX`
//! (d×d), `YtX` (D×d) — which the paper deliberately keeps in the memory of
//! every node (Section 3.3). All products delegate to the blocked,
//! optionally multi-threaded kernels in [`crate::kernels`]; small matrices
//! stay on the sequential blocked path, large ones fan out on the shared
//! [`crate::pool::WorkerPool`] with bit-for-bit deterministic splits.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::kernels;
use crate::vector;

/// Dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: {rows}x{cols} needs {} elements", rows * cols);
        Mat { rows, cols, data }
    }

    /// Builds a matrix from row slices. All rows must have equal length.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Mat { rows: r, cols: c, data }
    }

    /// Builds a matrix element-wise from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Mat::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Column `c` copied into a fresh vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Underlying row-major storage.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying row-major storage.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major storage. Paired with
    /// [`Mat::from_vec`] this lets callers (the batched EM path) recycle
    /// one scratch allocation across differently-shaped blocks.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// In-memory footprint in bytes (used by the cluster simulator to meter
    /// shuffle volumes and driver memory).
    pub fn size_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f64>()) as u64
    }

    /// Matrix transpose into a fresh matrix, tiled so both the reads and
    /// the writes stay within a cache-line-sized block (the seed's j-strided
    /// writes missed on every element for large matrices).
    pub fn transpose(&self) -> Mat {
        const TILE: usize = 32;
        let mut t = Mat::zeros(self.cols, self.rows);
        for i0 in (0..self.rows).step_by(TILE) {
            let i1 = (i0 + TILE).min(self.rows);
            for j0 in (0..self.cols).step_by(TILE) {
                let j1 = (j0 + TILE).min(self.cols);
                for i in i0..i1 {
                    let row = &self.data[i * self.cols..(i + 1) * self.cols];
                    for j in j0..j1 {
                        t.data[j * self.rows + i] = row[j];
                    }
                }
            }
        }
        t
    }

    /// Matrix product `self * other` (blocked kernel, threaded when large).
    pub fn matmul(&self, other: &Mat) -> Mat {
        kernels::matmul(self, other)
    }

    /// Product `self' * other` without materializing the transpose.
    ///
    /// This is Equation (2) of the paper: `A'B = Σ_r (A_r)' ⊗ B_r`, a sum of
    /// rank-1 updates that only ever touches one row of each operand — the
    /// access pattern that makes the distributed `YtX` job feasible. The
    /// kernel fuses four rows per pass and reduces fixed row chunks on the
    /// worker pool.
    pub fn matmul_tn(&self, other: &Mat) -> Mat {
        kernels::matmul_tn(self, other)
    }

    /// Product `self * other'` (register-tiled kernel, threaded when large).
    pub fn matmul_nt(&self, other: &Mat) -> Mat {
        kernels::matmul_nt(self, other)
    }

    /// Matrix–vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        kernels::matvec(self, x)
    }

    /// Row-vector–matrix product `x' * self`, returned as a plain vector.
    ///
    /// This is the in-memory-multiplication primitive of Section 3.3: one
    /// (sparse or dense) row times a broadcast matrix yields one output row.
    pub fn vecmat(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, x.len(), "vecmat: dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (k, &xk) in x.iter().enumerate() {
            if xk != 0.0 {
                vector::axpy(xk, self.row(k), &mut out);
            }
        }
        out
    }

    /// Element-wise `self += alpha * other`.
    pub fn add_scaled(&mut self, alpha: f64, other: &Mat) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "add_scaled: shape mismatch");
        vector::axpy(alpha, &other.data, &mut self.data);
    }

    /// Element-wise `self += other`.
    pub fn add_assign(&mut self, other: &Mat) {
        self.add_scaled(1.0, other);
    }

    /// Scales every element in place.
    pub fn scale(&mut self, alpha: f64) {
        vector::scale(alpha, &mut self.data);
    }

    /// Adds `alpha` to each diagonal entry (`self += alpha * I`); the
    /// `M = C'C + ss*I` step of the EM iteration.
    pub fn add_diag(&mut self, alpha: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += alpha;
        }
    }

    /// Rank-1 update `self += alpha * x ⊗ y`.
    pub fn add_outer(&mut self, alpha: f64, x: &[f64], y: &[f64]) {
        assert_eq!(x.len(), self.rows, "add_outer: x length mismatch");
        assert_eq!(y.len(), self.cols, "add_outer: y length mismatch");
        for (i, &xi) in x.iter().enumerate() {
            if xi != 0.0 {
                vector::axpy(alpha * xi, y, self.row_mut(i));
            }
        }
    }

    /// Trace (sum of diagonal entries).
    pub fn trace(&self) -> f64 {
        (0..self.rows.min(self.cols)).map(|i| self[(i, i)]).sum()
    }

    /// Squared Frobenius norm `‖self‖²_F`.
    pub fn frobenius_sq(&self) -> f64 {
        vector::norm2_sq(&self.data)
    }

    /// Sum of absolute values of all entries (entry-wise 1-norm).
    pub fn norm1(&self) -> f64 {
        vector::norm1(&self.data)
    }

    /// Column means as a vector of length `cols`.
    pub fn col_means(&self) -> Vec<f64> {
        let mut m = vec![0.0; self.cols];
        for r in 0..self.rows {
            vector::axpy(1.0, self.row(r), &mut m);
        }
        if self.rows > 0 {
            vector::scale(1.0 / self.rows as f64, &mut m);
        }
        m
    }

    /// Subtracts `v` from every row in place (dense mean-centering — exactly
    /// the operation mean propagation exists to avoid on sparse data).
    pub fn sub_row_vector(&mut self, v: &[f64]) {
        assert_eq!(v.len(), self.cols, "sub_row_vector: length mismatch");
        for r in 0..self.rows {
            vector::axpy(-1.0, v, self.row_mut(r));
        }
    }

    /// Copies rows `[start, end)` into a fresh matrix.
    pub fn row_block(&self, start: usize, end: usize) -> Mat {
        assert!(start <= end && end <= self.rows, "row_block: bad range {start}..{end}");
        Mat::from_vec(end - start, self.cols, self.data[start * self.cols..end * self.cols].to_vec())
    }

    /// Copies the first `k` columns into a fresh matrix.
    pub fn leading_cols(&self, k: usize) -> Mat {
        let mut out = Mat::zeros(self.rows, k);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[..k]);
        }
        out
    }

    /// Copies the selected rows into a fresh matrix.
    pub fn select_rows(&self, idx: &[usize]) -> Mat {
        let mut out = Mat::zeros(idx.len(), self.cols);
        for (k, &r) in idx.iter().enumerate() {
            out.row_mut(k).copy_from_slice(self.row(r));
        }
        out
    }

    /// Vertically stacks matrices with identical column counts.
    pub fn vcat(blocks: &[Mat]) -> Mat {
        if blocks.is_empty() {
            return Mat::zeros(0, 0);
        }
        let cols = blocks[0].cols;
        let rows = blocks.iter().map(|b| b.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for b in blocks {
            assert_eq!(b.cols, cols, "vcat: column counts differ");
            data.extend_from_slice(&b.data);
        }
        Mat { rows, cols, data }
    }

    /// Maximum absolute element-wise difference to another matrix.
    pub fn max_abs_diff(&self, other: &Mat) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "max_abs_diff: shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// True when every entry differs from `other` by at most `tol`.
    pub fn approx_eq(&self, other: &Mat, tol: f64) -> bool {
        self.max_abs_diff(other) <= tol
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of {}x{}", self.rows, self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of {}x{}", self.rows, self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for r in 0..show_rows {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:10.4}")).collect();
            let ellipsis = if self.cols > 8 { ", …" } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Mat {
        Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]])
    }

    #[test]
    fn constructors_and_shape() {
        let z = Mat::zeros(2, 3);
        assert_eq!((z.rows(), z.cols()), (2, 3));
        assert!(z.data().iter().all(|&v| v == 0.0));

        let i = Mat::identity(3);
        assert_eq!(i.trace(), 3.0);

        let f = Mat::from_fn(2, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(f[(1, 0)], 10.0);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_rejects_bad_length() {
        let _ = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_matches_hand_result() {
        let a = sample(); // 3x2
        let b = Mat::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 1.0, 2.0]]); // 2x3
        let c = a.matmul(&b);
        let expect = Mat::from_rows(&[&[1.0, 2.0, 6.0], &[3.0, 4.0, 14.0], &[5.0, 6.0, 22.0]]);
        assert!(c.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = sample();
        let b = Mat::from_rows(&[&[1.0, 1.0, 0.0], &[2.0, 0.0, 1.0], &[1.0, 3.0, 2.0]]);
        let via_tn = a.matmul_tn(&b);
        let via_t = a.transpose().matmul(&b);
        assert!(via_tn.approx_eq(&via_t, 1e-12));
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = sample();
        let b = Mat::from_rows(&[&[1.0, 0.5], &[2.0, -1.0]]);
        let via_nt = a.matmul_nt(&b);
        let via_t = a.matmul(&b.transpose());
        assert!(via_nt.approx_eq(&via_t, 1e-12));
    }

    #[test]
    fn vecmat_matches_matmul() {
        let a = sample();
        let x = [1.0, -1.0, 2.0];
        let y = a.transpose().matvec(&x);
        assert_eq!(a.vecmat(&x), y);
    }

    #[test]
    fn transpose_is_involution() {
        let a = sample();
        assert!(a.transpose().transpose().approx_eq(&a, 0.0));
    }

    #[test]
    fn col_means_and_centering() {
        let a = sample();
        let m = a.col_means();
        assert_eq!(m, vec![3.0, 4.0]);
        let mut c = a.clone();
        c.sub_row_vector(&m);
        assert!(c.col_means().iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn add_diag_and_trace() {
        let mut a = Mat::zeros(3, 3);
        a.add_diag(2.5);
        assert_eq!(a.trace(), 7.5);
    }

    #[test]
    fn add_outer_is_rank_one_update() {
        let mut a = Mat::zeros(2, 3);
        a.add_outer(2.0, &[1.0, 0.0], &[1.0, 2.0, 3.0]);
        assert_eq!(a.row(0), &[2.0, 4.0, 6.0]);
        assert_eq!(a.row(1), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn row_block_and_select_rows() {
        let a = sample();
        let b = a.row_block(1, 3);
        assert_eq!(b.row(0), &[3.0, 4.0]);
        let s = a.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[5.0, 6.0]);
        assert_eq!(s.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn vcat_stacks() {
        let a = sample();
        let stacked = Mat::vcat(&[a.row_block(0, 1), a.row_block(1, 3)]);
        assert!(stacked.approx_eq(&a, 0.0));
        assert_eq!(Mat::vcat(&[]).rows(), 0);
    }

    #[test]
    fn frobenius_and_norm1() {
        let a = Mat::from_rows(&[&[1.0, -2.0], &[2.0, 0.0]]);
        assert_eq!(a.frobenius_sq(), 9.0);
        assert_eq!(a.norm1(), 5.0);
    }

    #[test]
    fn size_bytes_counts_payload() {
        assert_eq!(Mat::zeros(4, 5).size_bytes(), 160);
    }

    #[test]
    fn debug_output_is_truncated() {
        let big = Mat::zeros(20, 20);
        let s = format!("{big:?}");
        assert!(s.contains('…'));
        assert!(s.len() < 2500);
    }
}
