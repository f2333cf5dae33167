//! Mean propagation: the per-row and per-partition kernels of the
//! distributed jobs.
//!
//! PPCA needs the mean-centered matrix `Yc = Y − 1⊗Ym`, but centering a
//! sparse matrix destroys its sparsity (Section 3.1). Every kernel here
//! therefore works on the *original* sparse rows and pushes the mean
//! through algebraically:
//!
//! * latent row: `x = (y − Ym)·CM = y·CM − Xm` with `Xm = Ym·CM` broadcast;
//! * `YtX` update: `Σᵢ(yᵢ − Ym)' ⊗ xᵢ = Σᵢ yᵢ' ⊗ xᵢ − Ym' ⊗ Σᵢxᵢ` — the
//!   `Ym' ⊗ Σxᵢ` term is **hoisted**: workers accumulate only the d-vector
//!   `Σxᵢ`, and the driver applies the rank-1 correction once;
//! * `ss3` row term: `xᵢ·(C'·yᵢ')` uses the associativity trick of
//!   Section 4.1's Equation (3) — multiply `C'` by the *sparse* `yᵢ'`
//!   first (O(z·d)), never forming the dense `xᵢ·C'` (O(D·d)). The fits
//!   do not sum it over Y: ss3 is `tr(C'·YtX)` on the driver
//!   ([`crate::em`]), and [`ss3_block`] is the pass form the tests hold
//!   that algebra to;
//! * `XtX`: with `xᵢ = ycᵢ·CM`, `Σᵢ xᵢ'xᵢ = CM'·Σᵢ ycᵢ'xᵢ = CM'·YtX`, a
//!   d×D by D×d product of two matrices the driver already holds
//!   ([`xtx_from_ytx`]), so no pass folds the Θ(N·d²) Gram over the rows.
//!
//! [`YtxPartial`] is the accumulator of the paper's consolidated `YtXJob`
//! (Figure 3): one pass computes the `YtX` contributions *and* the
//! hoisted sums. The randomized arm's pass partial is the same
//! accumulator of width K over `W` and `Wᵀμ` ([`crate::rpca`]). Two entry
//! points fold data in:
//!
//! * [`YtxPartial::add_block`] — the batched path. A whole partition goes
//!   through the blocked kernels: the latent rows `x = y·CM − Xm` one at a
//!   time in L1 (each zeroed, multiplied, shifted and summed into `Σx`
//!   where it is formed), and `YtX` gathered per touched column through
//!   the block's column-major copy into a packed slab. The block is a
//!   [`PartitionBlock`](linalg::sparse::PartitionBlock) whose structure
//!   the engines analysed once per fit; a bare
//!   `SparseMat` is analysed on the call. Full blocks take the
//!   register-tile routes instead.
//! * [`YtxPartial::add_row`] — one sparse row at a time, recomputing its
//!   latent vector on demand (the "redundant computation" of Section 3.2).
//!
//! All of them produce bit-identical results on any worker count: the
//! kernels accumulate every output element in ascending input-row order
//! (see the determinism notes in `linalg::kernels`), and the only
//! reassociation points are partition boundaries — which the engines align
//! with merge boundaries ([`YtxPartial::tree_merged`] is the Spark driver's
//! merge). The seed's HashMap-based row-at-a-time
//! accumulator is preserved verbatim in [`rowwise`] as the ablation arm
//! `bench_em` measures against.

use linalg::kernels;
use linalg::sparse::{Block, SparseRow};
use linalg::wire::{Layout, Sink, WireCodec, WireError, WireReader};
use linalg::{Mat, SparseMat, WorkerPool};

/// Latent row `x = y·CM − Xm` for one sparse row (O(z·d)).
pub fn latent_row(row: SparseRow<'_>, cm: &Mat, xm: &[f64]) -> Vec<f64> {
    let mut x = row.mul_mat(cm);
    linalg::vector::axpy(-1.0, xm, &mut x);
    x
}

/// The ablation arm: the same latent row computed *without* mean
/// propagation — materialize the dense centered row, then multiply
/// (O(D·d) regardless of sparsity). Used by the Table 3 comparison.
pub fn latent_row_dense(row: SparseRow<'_>, mean: &[f64], cm: &Mat) -> Vec<f64> {
    let mut dense = vec![0.0; mean.len()];
    for (d, m) in dense.iter_mut().zip(mean) {
        *d = -m;
    }
    for (c, v) in row.iter() {
        dense[c] += v;
    }
    cm.vecmat(&dense)
}

/// Per-task accumulator of the consolidated `YtXJob`.
///
/// The `Σ y'⊗x` term is stored packed: `cols` holds the touched column
/// indices in ascending order and `slab` one d-vector per touched column,
/// back to back — no hashing anywhere, O(z·d) shuffle size preserved, and
/// merging two partials is a linear sorted merge.
#[derive(Debug, Clone, PartialEq)]
pub struct YtxPartial {
    /// Always the d × d zero matrix: `XtX` is [`xtx_from_ytx`] on the
    /// driver, so no fold, merge or codec touches it. The field is held
    /// for the frozen benchmark harness's replay until ROADMAP item 6(c)
    /// deletes that replay.
    pub xtx: Mat,
    /// Touched columns of `Σ y'⊗x`, strictly ascending.
    cols: Vec<u32>,
    /// One packed d-row per touched column, parallel to `cols`.
    slab: Vec<f64>,
    /// `Σᵢ xᵢ` — the hoisted mean-correction vector.
    pub sum_x: Vec<f64>,
    /// Rows processed (for sanity checks).
    pub rows_seen: u64,
}

impl YtxPartial {
    /// Empty accumulator for `d` components.
    pub fn new(d: usize) -> Self {
        YtxPartial {
            xtx: Mat::zeros(d, d),
            cols: Vec::new(),
            slab: Vec::new(),
            sum_x: vec![0.0; d],
            rows_seen: 0,
        }
    }

    /// Latent dimensionality `d`.
    #[inline]
    pub fn d(&self) -> usize {
        self.sum_x.len()
    }

    /// Iterates `(column, packed row)` pairs in ascending column order.
    pub fn ytx_iter(&self) -> impl Iterator<Item = (u32, &[f64])> + '_ {
        let d = self.d().max(1);
        self.cols.iter().copied().zip(self.slab.chunks_exact(d))
    }

    /// Overwrites (or inserts) the packed row for column `c` — the
    /// MapReduce driver uses this to reassemble a partial from reduced
    /// `Row(c)` keys, which arrive in ascending order (append fast path).
    pub fn set_ytx_row(&mut self, c: u32, row: &[f64]) {
        let d = self.d();
        assert_eq!(row.len(), d, "set_ytx_row: row length is {} not {d}", row.len());
        match self.cols.binary_search(&c) {
            Ok(i) => self.slab[i * d..(i + 1) * d].copy_from_slice(row),
            Err(i) => {
                self.cols.insert(i, c);
                self.slab.splice(i * d..i * d, row.iter().copied());
            }
        }
    }

    /// Moves the packed `Σ y'⊗x` term out — touched columns ascending, and
    /// their d-rows back to back — leaving it empty. The `YtXJob` mapper
    /// shuffles views into the slab instead of one copy per row.
    pub(crate) fn take_packed_ytx(&mut self) -> (Vec<u32>, Vec<f64>) {
        (std::mem::take(&mut self.cols), std::mem::take(&mut self.slab))
    }

    /// Folds one sparse row into the accumulator, recomputing its latent
    /// vector on demand (the "redundant computation" of Section 3.2).
    pub fn add_row(&mut self, row: SparseRow<'_>, cm: &Mat, xm: &[f64]) {
        let x = latent_row(row, cm, xm);
        // YtX: only the non-zero columns of y contribute to Σ y' ⊗ x.
        for (c, v) in row.iter() {
            let slot = self.slot_mut(c as u32);
            linalg::vector::axpy(v, &x, slot);
        }
        linalg::vector::axpy(1.0, &x, &mut self.sum_x);
        self.rows_seen += 1;
    }

    /// The packed slot for column `c`, inserted (zeroed) if absent.
    fn slot_mut(&mut self, c: u32) -> &mut [f64] {
        let d = self.d();
        let i = match self.cols.binary_search(&c) {
            Ok(i) => i,
            Err(i) => {
                self.cols.insert(i, c);
                self.slab.splice(i * d..i * d, std::iter::repeat(0.0).take(d));
                i
            }
        };
        &mut self.slab[i * d..(i + 1) * d]
    }

    /// Folds a whole partition block through the batched kernels on the
    /// process-global pool. See [`Self::add_block_with_pool`].
    pub fn add_block<B: Block + ?Sized>(&mut self, block: &B, cm: &Mat, xm: &[f64]) {
        self.add_block_with_pool(WorkerPool::global(), block, cm, xm)
    }

    /// Folds a whole partition block through the batched kernels:
    /// `X_blk = Y_blk·CM − 1⊗Xm` into a buffer taken from
    /// `linalg::scratch` and recycled before this returns (no partial
    /// carries its `X_blk` to the driver), `YtX += Y_blkᵀX_blk` into a
    /// packed slab over the block's touched columns, and `Σx` via per-row
    /// adds.
    ///
    /// A full block (every row stores every column, eight rows or more)
    /// takes the register-tile routes. Any other forms its latent rows one
    /// at a time in L1 — `y·CM`, `−Xm`, `Σx` — and gathers `YᵀX` through
    /// the block's column-major copy ([`kernels::spmm_gather`]), cached by
    /// a [`PartitionBlock`](linalg::sparse::PartitionBlock) and built on
    /// the call for a bare `SparseMat`.
    ///
    /// Starting from an empty accumulator this is bit-for-bit equal to
    /// folding the block's rows through [`Self::add_row`]: every kernel
    /// accumulates each output element in ascending-row order with the
    /// same per-element operations. Folding *multiple* blocks into one
    /// accumulator reassociates at block boundaries — exactly like
    /// [`Self::merge`] at partition boundaries, which is where the engines
    /// put them.
    pub fn add_block_with_pool<B: Block + ?Sized>(
        &mut self,
        pool: &WorkerPool,
        block: &B,
        cm: &Mat,
        xm: &[f64],
    ) {
        // The block's column-major copy: `None` exactly when the
        // full-block routes take it.
        let csc = block.csc();
        let (block, csc) = (block.csr(), Option::as_ref(&*csc));
        let d = self.d();
        assert_eq!(cm.cols(), d, "add_block: CM has {} columns, expected {d}", cm.cols());
        assert_eq!(block.cols(), cm.rows(), "add_block: block/CM inner dimensions differ");
        let n = block.rows();
        if n == 0 {
            return;
        }
        let z = block.nnz();
        // 2·z·d (Y·CM) + n·d (−Xm) + 2·z·d (YᵀX) + n·d (Σx), counted as
        // `em.ytx.flops`; the kernels count their own into `kernel.flops`.
        let flops = (4 * z * d + 2 * n * d) as u64;
        let _span = obs::span_lazy("em", || format!("ytx add_block {n}x{}x{d}", block.cols()));

        // Σx: per-row adds in ascending order (the association of the
        // row-at-a-time fold), summed per block and added once.
        let mut x_blk = linalg::scratch::take_cleared(n * d);
        let mut sum_blk = vec![0.0; d];
        latent_rows(pool, block, (cm.data(), d), xm, &mut x_blk, |x| {
            linalg::vector::axpy(1.0, x, &mut sum_blk)
        });

        // YtX into a fresh packed slab over the touched columns, then
        // merged: gathered through the cached copy a row at a time, or —
        // every column of a full block being touched — the tile route.
        let (cols, slab) = match csc {
            Some(csc) => {
                let mut slab = linalg::scratch::take_cleared(csc.support().len() * d);
                kernels::spmm_gather(csc, &x_blk, d, &mut slab);
                (csc.support().to_vec(), slab)
            }
            None => {
                let mut slab = linalg::scratch::take_zeroed(block.cols() * d);
                kernels::spmm_scatter(pool, block, &x_blk, d, None, &mut slab);
                ((0..block.cols() as u32).collect(), slab)
            }
        };
        self.merge_packed(cols, slab);

        for (dst, src) in self.sum_x.iter_mut().zip(sum_blk) {
            *dst += src;
        }
        self.rows_seen += n as u64;
        linalg::scratch::recycle(x_blk);

        if let Some(c) = obs::collector() {
            let reg = c.registry();
            reg.counter("em.ytx.batch_rows").add(n as u64);
            reg.counter("em.ytx.flops").add(flops);
        }
    }

    /// Merges another partial (accumulator semantics: associative add).
    pub fn merge(&mut self, other: YtxPartial) {
        self.merge_packed(other.cols, other.slab);
        linalg::vector::axpy(1.0, &other.sum_x, &mut self.sum_x);
        self.rows_seen += other.rows_seen;
    }

    /// `sparkle::tree_merge(parts, || YtxPartial::new(d), YtxPartial::merge)`
    /// bit for bit, at about the cost of reading the partials once: the
    /// packed rows go through [`sparkle::tree_merge_rows`] on `pool`, which
    /// writes each merged row once (its `left + right` is [`Self::merge`]'s
    /// `axpy(1.0, right, left)`: `1.0 · r` is `r` exactly), and `sum_x`
    /// and `rows_seen` keep [`sparkle::tree_merge`]. The partials'
    /// slabs are retired to `linalg::scratch`.
    pub fn tree_merged(pool: &WorkerPool, d: usize, mut parts: Vec<YtxPartial>) -> YtxPartial {
        if parts.len() <= 1 {
            return parts.pop().unwrap_or_else(|| YtxPartial::new(d));
        }
        assert!(parts.iter().all(|p| p.d() == d), "tree_merged: partials of mixed d");
        let views: Vec<(&[u32], &[f64])> =
            parts.iter().map(|p| (&p.cols[..], &p.slab[..])).collect();
        let (cols, slab) = sparkle::tree_merge_rows(pool, &views, d);
        let heads: Vec<YtxPartial> = parts
            .into_iter()
            .map(|p| {
                linalg::scratch::recycle(p.slab);
                YtxPartial { cols: Vec::new(), slab: Vec::new(), ..p }
            })
            .collect();
        let merged = sparkle::tree_merge(heads, || YtxPartial::new(d), YtxPartial::merge);
        YtxPartial { cols, slab, ..merged }
    }

    /// Linear sorted merge of a packed (cols, slab) pair into this
    /// accumulator; shared columns add `other` onto `self`.
    fn merge_packed(&mut self, cols: Vec<u32>, slab: Vec<f64>) {
        if self.cols.is_empty() {
            self.cols = cols;
            self.slab = slab;
            return;
        }
        if cols.is_empty() {
            return;
        }
        let d = self.d();
        let mut out_cols = Vec::with_capacity(self.cols.len() + cols.len());
        let mut out_slab = linalg::scratch::take_cleared(out_cols.capacity() * d);
        let (mut i, mut j) = (0, 0);
        while i < self.cols.len() || j < cols.len() {
            let take_self = match (self.cols.get(i), cols.get(j)) {
                (Some(a), Some(b)) if a == b => {
                    let start = out_slab.len();
                    out_slab.extend_from_slice(&self.slab[i * d..(i + 1) * d]);
                    linalg::vector::axpy(1.0, &slab[j * d..(j + 1) * d], &mut out_slab[start..]);
                    out_cols.push(*a);
                    i += 1;
                    j += 1;
                    continue;
                }
                (Some(a), Some(b)) => a < b,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_self {
                out_cols.push(self.cols[i]);
                out_slab.extend_from_slice(&self.slab[i * d..(i + 1) * d]);
                i += 1;
            } else {
                out_cols.push(cols[j]);
                out_slab.extend_from_slice(&slab[j * d..(j + 1) * d]);
                j += 1;
            }
        }
        self.cols = out_cols;
        linalg::scratch::recycle(std::mem::replace(&mut self.slab, out_slab));
        linalg::scratch::recycle(slab);
    }

    /// Driver-side assembly of the dense `YtX = Σ y'⊗x − Ym' ⊗ Σx`
    /// (D × d).
    pub fn finalize_ytx(&self, mean: &[f64]) -> Mat {
        let d = self.d();
        let d_in = mean.len();
        let mut ytx = Mat::zeros(d_in, d);
        for (c, row) in self.ytx_iter() {
            ytx.row_mut(c as usize).copy_from_slice(row);
        }
        for (j, &m) in mean.iter().enumerate() {
            if m != 0.0 {
                linalg::vector::axpy(-m, &self.sum_x, ytx.row_mut(j));
            }
        }
        ytx
    }
}

/// The driver's `XtX = Σᵢ xᵢ'xᵢ` from the finalized `YtX`: `CM'·YtX`
/// (`xᵢ = ycᵢ·CM`, so `CM'·Σᵢ ycᵢ'xᵢ` is the Gram), one d×D by D×d
/// product, symmetrised as `(A + A')/2` so the right-division sees an
/// exactly symmetric matrix.
pub fn xtx_from_ytx(cm: &Mat, ytx: &Mat) -> Mat {
    let a = cm.matmul_tn(ytx);
    let mut xtx = a.transpose();
    xtx.add_assign(&a);
    xtx.scale(0.5);
    xtx
}

/// Wire layout: `Σx` first (its length prefix is `d`), the touched
/// columns (their count, then the ascending list: bitpacked under v3),
/// the packed rows as one payload, the row count. `xtx` is not carried.
impl Layout for YtxPartial {
    fn put<S: Sink>(&self, s: &mut S) {
        self.sum_x.put(s);
        s.uvarint(self.cols.len() as u64);
        s.ascending(&self.cols);
        s.f64s(&self.slab);
        s.uvarint(self.rows_seen);
    }

    fn get(r: &mut WireReader<'_>, codec: WireCodec) -> Result<Self, WireError> {
        let sum_x = Vec::<f64>::get(r, codec)?;
        let d = sum_x.len();
        let n = r.ulen()?;
        let cols = r.ascending(n, u64::from(u32::MAX) + 1, codec)?;
        let slab_len = n
            .checked_mul(d)
            .ok_or(WireError::Malformed("YtxPartial slab overflows"))?;
        let slab = r.f64s(slab_len, codec)?;
        let rows_seen = r.uvarint()?;
        Ok(YtxPartial { xtx: Mat::zeros(d, d), cols, slab, sum_x, rows_seen })
    }
}

/// Current totals of the batched-path throughput counters
/// (`em.ytx.flops`, `em.ytx.batch_rows`) — zeros when tracing is off. The
/// engines diff a snapshot across each `YtXJob` to emit the per-iteration
/// counter samples `trace_report` renders.
pub fn ytx_counter_snapshot() -> (u64, u64) {
    match obs::collector() {
        Some(c) => {
            let reg = c.registry();
            (reg.counter("em.ytx.flops").get(), reg.counter("em.ytx.batch_rows").get())
        }
        None => (0, 0),
    }
}

/// A whole partition's contribution to `Σᵢ xᵢ·(C'·yᵢ')` through the
/// batched kernels, on the process-global pool — bit-identical to summing
/// `ss3_row` (the tests' row-at-a-time form) over the block's rows. Per row, `[x + Xm | C'y'] =
/// y·[CM | C_new]` in one width-`2d` product against the two interleaved
/// row by row, `−Xm`, then the dot product, summed in ascending row order.
pub fn ss3_block<B: Block + ?Sized>(block: &B, cm: &Mat, xm: &[f64], c_new: &Mat) -> f64 {
    assert_eq!((cm.rows(), cm.cols()), (c_new.rows(), c_new.cols()), "ss3: CM and C differ");
    let d = cm.cols();
    let mut wide = Vec::with_capacity(2 * cm.rows() * d);
    for c in 0..cm.rows() {
        wide.extend_from_slice(cm.row(c));
        wide.extend_from_slice(c_new.row(c));
    }
    let (y, mut part) = (block.csr(), 0.0);
    latent_rows(WorkerPool::global(), y, (&wide, 2 * d), xm, &mut Vec::new(), |row| {
        let (x, cy) = row.split_at(d);
        part += linalg::vector::dot(x, cy);
    });
    part
}

/// The rows of `Y·B` (`B` `w` wide) with `Xm` subtracted from their first
/// `xm.len()` columns — the latent rows `x = y·CM − Xm` of an operand `B`
/// that starts with `CM` — each finished row handed to `f`, in order:
/// multiply first, then subtract, the exact operation order of
/// [`latent_row`]. A full block's rows come from the tile route, into
/// `rows` (cleared on entry) as the `y.rows() × w` matrix. Any other
/// block's are formed one at a time in L1 at the end of `rows`
/// ([`kernels::sparse_mul_dense_each`]: zero, `y·B`, `−Xm`, `f`), where
/// they stay.
pub(crate) fn latent_rows(
    pool: &WorkerPool,
    y: &SparseMat,
    (b, w): (&[f64], usize),
    xm: &[f64],
    rows: &mut Vec<f64>,
    mut f: impl FnMut(&mut [f64]),
) {
    let finish = |row: &mut [f64]| {
        linalg::vector::axpy(-1.0, xm, &mut row[..xm.len()]);
        f(row)
    };
    if kernels::takes_full_routes(y) {
        rows.clear();
        rows.resize(y.rows() * w, 0.0);
        kernels::sparse_mul_dense_slices(pool, y, b, w, rows);
        rows.chunks_exact_mut(w).for_each(finish);
    } else {
        kernels::sparse_mul_dense_each(y, b, w, rows, finish);
    }
}

/// The latent matrix `X = Y·CM − 1⊗Xm` of a block, through the block
/// latent pass — bit for bit the rows of [`latent_row`].
pub(crate) fn latent_matrix(y: &SparseMat, cm: &Mat, xm: &[f64]) -> Mat {
    let mut x = Vec::with_capacity(y.rows() * cm.cols());
    latent_rows(WorkerPool::global(), y, (cm.data(), cm.cols()), xm, &mut x, |_| ());
    Mat::from_vec(y.rows(), cm.cols(), x)
}

/// [`latent_rows`] for a block that is itself one small task of many —
/// a serve batch: the same kernel body and the same bits, run serially
/// with no `kernel` span, so `kernel.flops` stays the EM kernels' count.
pub(crate) fn latent_block_serial(block: &SparseMat, cm: &[f64], xm: &[f64], x_blk: &mut [f64]) {
    let d = xm.len();
    kernels::sparse_rows_mul(block, cm, d, 0, block.rows(), x_blk);
    for r in 0..block.rows() {
        linalg::vector::axpy(-1.0, xm, &mut x_blk[r * d..(r + 1) * d]);
    }
}

/// Dense-oracle computation of `XtX`, `YtX` and `Σx` for tests: centers
/// the matrix explicitly and uses plain dense algebra.
pub fn dense_oracle(y: &SparseMat, mean: &[f64], cm: &Mat) -> (Mat, Mat, Vec<f64>) {
    let mut yc = y.to_dense();
    yc.sub_row_vector(mean);
    let x = yc.matmul(cm);
    let xtx = x.matmul_tn(&x);
    let ytx = yc.matmul_tn(&x);
    let mut sum_x = vec![0.0; cm.cols()];
    for r in 0..x.rows() {
        linalg::vector::axpy(1.0, x.row(r), &mut sum_x);
    }
    (xtx, ytx, sum_x)
}

/// The seed's HashMap-based row-at-a-time `YtXJob` accumulator, preserved
/// verbatim as the ablation arm of the batched EM path — the `mean_prop`
/// analog of `linalg::kernels::naive`. `bench_em` reports the batched
/// path's speedup over this, and the equivalence tests pin the two paths
/// bit-for-bit, so the comparison stays honest as the batched path
/// evolves.
pub mod rowwise {
    use std::collections::HashMap;

    use linalg::sparse::SparseRow;
    use linalg::Mat;

    use super::latent_row;

    /// Row-at-a-time accumulator: fresh latent vector per row, HashMap
    /// probe per non-zero. Like [`super::YtxPartial`], it folds no `XtX`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RowwisePartial {
        /// `Σᵢ yᵢ' ⊗ xᵢ`, stored sparsely: only columns some row touched.
        pub ytx_rows: HashMap<u32, Vec<f64>>,
        /// `Σᵢ xᵢ` — the hoisted mean-correction vector.
        pub sum_x: Vec<f64>,
        /// Rows processed (for sanity checks).
        pub rows_seen: u64,
    }

    impl RowwisePartial {
        /// Empty accumulator for `d` components.
        pub fn new(d: usize) -> Self {
            RowwisePartial {
                ytx_rows: HashMap::new(),
                sum_x: vec![0.0; d],
                rows_seen: 0,
            }
        }

        /// Folds one sparse row into the accumulator.
        pub fn add_row(&mut self, row: SparseRow<'_>, cm: &Mat, xm: &[f64]) {
            let x = latent_row(row, cm, xm);
            let d = x.len();
            for (c, v) in row.iter() {
                let slot = self.ytx_rows.entry(c as u32).or_insert_with(|| vec![0.0; d]);
                linalg::vector::axpy(v, &x, slot);
            }
            linalg::vector::axpy(1.0, &x, &mut self.sum_x);
            self.rows_seen += 1;
        }

        /// Merges another partial (accumulator semantics: associative add).
        pub fn merge(&mut self, other: RowwisePartial) {
            for (c, row) in other.ytx_rows {
                match self.ytx_rows.entry(c) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        linalg::vector::axpy(1.0, &row, e.get_mut());
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(row);
                    }
                }
            }
            linalg::vector::axpy(1.0, &other.sum_x, &mut self.sum_x);
            self.rows_seen += other.rows_seen;
        }

        /// Driver-side assembly of the dense `YtX` (D × d).
        pub fn finalize_ytx(&self, mean: &[f64]) -> Mat {
            let d = self.sum_x.len();
            let d_in = mean.len();
            let mut ytx = Mat::zeros(d_in, d);
            for (&c, row) in &self.ytx_rows {
                ytx.row_mut(c as usize).copy_from_slice(row);
            }
            for (j, &m) in mean.iter().enumerate() {
                if m != 0.0 {
                    linalg::vector::axpy(-m, &self.sum_x, ytx.row_mut(j));
                }
            }
            ytx
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::sparse::PartitionBlock;
    use linalg::{Prng, Wire};

    fn fixture() -> (SparseMat, Vec<f64>, Mat, Vec<f64>) {
        let mut rng = Prng::seed_from_u64(5);
        let y = SparseMat::from_triplets(
            6,
            8,
            &[
                (0, 0, 1.0),
                (0, 3, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (2, 7, 1.0),
                (3, 1, 1.0),
                (4, 0, 1.0),
                (4, 4, 1.0),
                (5, 5, 1.0),
            ],
        );
        let mean = y.col_means();
        let cm = rng.normal_mat(8, 3);
        let xm = cm.vecmat(&mean);
        (y, mean, cm, xm)
    }

    /// A block storing every column of every row (37×19, d = 5): the
    /// kernels take their register-tile routes on it.
    fn full_row_fixture() -> (SparseMat, Vec<f64>, Mat, Vec<f64>) {
        let mut rng = Prng::seed_from_u64(6);
        let y = SparseMat::from_dense(&rng.normal_mat(37, 19));
        assert_eq!(y.nnz(), 37 * 19);
        let mean = y.col_means();
        let cm = rng.normal_mat(19, 5);
        let xm = cm.vecmat(&mean);
        (y, mean, cm, xm)
    }

    #[test]
    fn latent_row_matches_dense_centering() {
        let (y, mean, cm, xm) = fixture();
        for r in 0..y.rows() {
            let fast = latent_row(y.row(r), &cm, &xm);
            let slow = latent_row_dense(y.row(r), &mean, &cm);
            for (a, b) in fast.iter().zip(&slow) {
                assert!((a - b).abs() < 1e-12, "row {r}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn partial_matches_dense_oracle() {
        let (y, mean, cm, xm) = fixture();
        let mut p = YtxPartial::new(3);
        for r in 0..y.rows() {
            p.add_row(y.row(r), &cm, &xm);
        }
        let (xtx_o, ytx_o, sum_o) = dense_oracle(&y, &mean, &cm);
        let ytx = p.finalize_ytx(&mean);
        assert!(ytx.approx_eq(&ytx_o, 1e-10), "YtX mismatch");
        assert!(xtx_from_ytx(&cm, &ytx).approx_eq(&xtx_o, 1e-10), "XtX mismatch");
        for (a, b) in p.sum_x.iter().zip(&sum_o) {
            assert!((a - b).abs() < 1e-10);
        }
        assert_eq!(p.rows_seen, 6);
    }

    #[test]
    fn add_block_is_bitwise_add_row() {
        for (y, _, cm, xm) in [fixture(), full_row_fixture()] {
            let mut by_row = YtxPartial::new(cm.cols());
            for r in 0..y.rows() {
                by_row.add_row(y.row(r), &cm, &xm);
            }
            let mut by_block = YtxPartial::new(cm.cols());
            by_block.add_block(&y, &cm, &xm);
            assert_eq!(by_row, by_block, "batched path diverged from row-at-a-time");
        }
    }

    #[test]
    fn rowwise_arm_matches_packed_add_row() {
        let (y, mean, cm, xm) = fixture();
        let mut packed = YtxPartial::new(3);
        let mut hash = rowwise::RowwisePartial::new(3);
        for r in 0..y.rows() {
            packed.add_row(y.row(r), &cm, &xm);
            hash.add_row(y.row(r), &cm, &xm);
        }
        assert_eq!(packed.sum_x, hash.sum_x);
        assert_eq!(
            packed.finalize_ytx(&mean).max_abs_diff(&hash.finalize_ytx(&mean)),
            0.0
        );
    }

    #[test]
    fn merge_equals_single_pass() {
        let (y, mean, cm, xm) = fixture();
        let mut whole = YtxPartial::new(3);
        for r in 0..y.rows() {
            whole.add_row(y.row(r), &cm, &xm);
        }
        let mut a = YtxPartial::new(3);
        let mut b = YtxPartial::new(3);
        for r in 0..3 {
            a.add_row(y.row(r), &cm, &xm);
        }
        for r in 3..6 {
            b.add_row(y.row(r), &cm, &xm);
        }
        a.merge(b);
        assert!(a.finalize_ytx(&mean).approx_eq(&whole.finalize_ytx(&mean), 1e-12));
        assert_eq!(a.rows_seen, whole.rows_seen);
    }

    #[test]
    fn ytx_partial_stays_sparse() {
        // Only touched columns are stored — the property that keeps sPCA's
        // shuffle at O(z·d) instead of O(D·d).
        let (y, _, cm, xm) = fixture();
        let mut p = YtxPartial::new(3);
        p.add_row(y.row(0), &cm, &xm); // touches columns 0 and 3
        assert_eq!(p.ytx_iter().map(|(c, _)| c).collect::<Vec<_>>(), vec![0, 3]);
    }

    #[test]
    fn set_ytx_row_inserts_and_overwrites() {
        let mut p = YtxPartial::new(2);
        p.set_ytx_row(5, &[1.0, 2.0]);
        p.set_ytx_row(1, &[3.0, 4.0]);
        p.set_ytx_row(5, &[9.0, 9.0]);
        assert_eq!(p.ytx_iter().collect::<Vec<_>>(), vec![
            (1, &[3.0, 4.0][..]),
            (5, &[9.0, 9.0][..]),
        ]);
    }

    /// One row's contribution to `Σᵢ xᵢ·(C'·yᵢ')`, the distributed part of
    /// `ss3` (Algorithm 4, line 13), using the sparse-first associativity
    /// order.
    fn ss3_row(row: SparseRow<'_>, cm: &Mat, xm: &[f64], c_new: &Mat) -> f64 {
        let x = latent_row(row, cm, xm);
        // C'·y' over non-zeros of y: a d-vector in O(z·d).
        let d = x.len();
        let mut cy = vec![0.0; d];
        for (c, v) in row.iter() {
            linalg::vector::axpy(v, c_new.row(c), &mut cy);
        }
        linalg::vector::dot(&x, &cy)
    }

    /// Driver-side completion of the pass form of ss3:
    /// `ss3 = Σᵢ xᵢ·(C'yᵢ') − (Σᵢxᵢ)·(C'·Ym')`.
    fn ss3_finalize(part: f64, sum_x: &[f64], c_new: &Mat, mean: &[f64]) -> f64 {
        let cy_mean = c_new.vecmat(mean);
        part - linalg::vector::dot(sum_x, &cy_mean)
    }

    #[test]
    fn ss3_matches_dense_oracle() {
        let (y, mean, cm, xm) = fixture();
        let mut rng = Prng::seed_from_u64(9);
        let c_new = rng.normal_mat(8, 3);

        let part: f64 = (0..y.rows()).map(|r| ss3_row(y.row(r), &cm, &xm, &c_new)).sum();
        let mut p = YtxPartial::new(3);
        for r in 0..y.rows() {
            p.add_row(y.row(r), &cm, &xm);
        }
        let fast = ss3_finalize(part, &p.sum_x, &c_new, &mean);

        // Oracle: Σ xᵢ · (C'·ycᵢ') densely.
        let mut yc = y.to_dense();
        yc.sub_row_vector(&mean);
        let x = yc.matmul(&cm);
        let cy = yc.matmul(&c_new); // N×d rows = C'·ycᵢ'
        let slow: f64 =
            (0..x.rows()).map(|r| linalg::vector::dot(x.row(r), cy.row(r))).sum();
        assert!((fast - slow).abs() < 1e-9, "{fast} vs {slow}");
    }

    #[test]
    fn ss3_block_is_bitwise_row_sum() {
        for (y, _, cm, xm) in [fixture(), full_row_fixture()] {
            let mut rng = Prng::seed_from_u64(9);
            let c_new = rng.normal_mat(cm.rows(), cm.cols());
            let by_row: f64 = (0..y.rows()).map(|r| ss3_row(y.row(r), &cm, &xm, &c_new)).sum();
            let by_block = ss3_block(&y, &cm, &xm, &c_new);
            assert_eq!(by_row.to_bits(), by_block.to_bits());
        }
    }

    /// The fits' ss3, `tr(C'·YtX)` over the merged and finalized `YtX`,
    /// against the pass it replaced — `Σ ss3_block` over the partitions,
    /// completed by `ss3_finalize` — on a non-zero mean, sparse and full
    /// blocks, partials with untouched columns, and 1, 2 and 8 partitions
    /// merged the way the Spark driver merges them.
    #[test]
    fn ss3_trace_of_finalized_ytx_is_the_pass_form() {
        let mut rng = Prng::seed_from_u64(11);
        let wide_sparse = SparseMat::from_triplets(
            9,
            30,
            &[(0, 29, 2.0), (1, 3, -1.0), (2, 7, 1.5), (4, 3, 0.5), (5, 11, 1.0), (8, 0, -2.0)],
        );
        let pool = WorkerPool::new(2);
        for y in [fixture().0, full_row_fixture().0, wide_sparse] {
            let mean = y.col_means();
            assert!(mean.iter().any(|&m| m != 0.0));
            let d = 4;
            let (cm, c_new) = (rng.normal_mat(y.cols(), d), rng.normal_mat(y.cols(), d));
            let xm = cm.vecmat(&mean);
            for parts in [1, 2, 8] {
                let blocks: Vec<PartitionBlock> =
                    y.split_rows(parts).into_iter().map(PartitionBlock::new).collect();
                let partials: Vec<YtxPartial> = blocks
                    .iter()
                    .map(|block| {
                        let mut p = YtxPartial::new(d);
                        p.add_block(block, &cm, &xm);
                        p
                    })
                    .collect();
                let untouched = partials.iter().any(|p| p.ytx_iter().count() < y.cols());
                assert!(untouched || y.nnz() == y.rows() * y.cols());
                let merged = YtxPartial::tree_merged(&pool, d, partials);
                let ytx = merged.finalize_ytx(&mean);
                let trace = linalg::vector::dot(c_new.data(), ytx.data());
                let part: f64 = blocks.iter().map(|b| ss3_block(b, &cm, &xm, &c_new)).sum();
                let pass = ss3_finalize(part, &merged.sum_x, &c_new, &mean);
                let rel = (trace - pass).abs() / pass.abs();
                let shape = (y.rows(), y.cols(), parts);
                assert!(rel <= 1e-12, "{shape:?}: {trace} vs {pass}");
            }
        }
    }

    /// The driver's `XtX`, `CM'·finalize_ytx` symmetrised, against the
    /// Gram of the explicitly centred latent rows, on sparse and full
    /// blocks, with 1, 2 and 8 partitions merged the way the Spark driver
    /// merges them.
    #[test]
    fn xtx_from_ytx_is_the_pass_form() {
        let mut rng = Prng::seed_from_u64(12);
        let pool = WorkerPool::new(2);
        for y in [fixture().0, full_row_fixture().0] {
            let (mean, d) = (y.col_means(), 4);
            let cm = rng.normal_mat(y.cols(), d);
            let xm = cm.vecmat(&mean);
            let (want, ..) = dense_oracle(&y, &mean, &cm);
            let scale = want.data().iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for parts in [1, 2, 8] {
                let partials: Vec<YtxPartial> = y
                    .split_rows(parts)
                    .into_iter()
                    .map(|block| {
                        let mut p = YtxPartial::new(d);
                        p.add_block(&PartitionBlock::new(block), &cm, &xm);
                        p
                    })
                    .collect();
                let merged = YtxPartial::tree_merged(&pool, d, partials);
                let xtx = xtx_from_ytx(&cm, &merged.finalize_ytx(&mean));
                assert_eq!(xtx.max_abs_diff(&xtx.transpose()), 0.0, "not symmetric");
                let rel = xtx.max_abs_diff(&want) / scale;
                assert!(rel <= 1e-12, "{:?}: {rel:e}", (y.rows(), y.cols(), parts));
            }
        }
    }

    /// A partial crosses the wire as `Σx`, the packed rows and the row
    /// count under every codec, and decodes with a d × d zero `xtx`.
    #[test]
    fn partial_round_trips_without_xtx() {
        let (y, _, _, _) = fixture();
        let d = 50;
        let mut rng = Prng::seed_from_u64(13);
        let (cm, xm) = (rng.normal_mat(y.cols(), d), rng.normal_vec(d));
        let mut p = YtxPartial::new(d);
        p.add_block(&y, &cm, &xm);
        assert_eq!(p.xtx, Mat::zeros(d, d), "tasks leave xtx zero");
        let bytes = p.encode();
        assert_eq!(bytes.len() as u64, p.encoded_size());
        assert_eq!(&bytes[..p.sum_x.encoded_size() as usize], &p.sum_x.encode()[..]);
        assert_eq!(YtxPartial::decode(&bytes).unwrap(), p);
        assert_eq!(YtxPartial::decode_v3(&p.encode_v3(false)).unwrap(), p);
        // The d × d Gram this layout no longer ships: 20 002 bytes at d = 50.
        assert_eq!(Mat::zeros(d, d).encoded_size(), 20_002);
    }

    /// The block pipeline `add_block` ran before blocks were cached, kept
    /// as the oracle of the fused route: `X = Y·CM` as one blocked product,
    /// then `−Xm` and `Σx` in passes of their own, and the scatter through
    /// a column table built for the call.
    fn add_block_two_pass(pool: &WorkerPool, block: &SparseMat, cm: &Mat, xm: &[f64]) -> YtxPartial {
        let (n, d) = (block.rows(), cm.cols());
        let mut p = YtxPartial::new(d);
        if n == 0 {
            return p;
        }
        let mut x = vec![0.0; n * d];
        kernels::sparse_mul_dense_slices(pool, block, cm.data(), d, &mut x);
        for r in 0..n {
            linalg::vector::axpy(-1.0, xm, &mut x[r * d..(r + 1) * d]);
        }
        let mut map = vec![u32::MAX; block.cols()];
        for &c in block.col_indices() {
            map[c as usize] = 0;
        }
        let mut cols = Vec::new();
        for (c, slot) in map.iter_mut().enumerate().filter(|(_, s)| **s == 0) {
            *slot = cols.len() as u32;
            cols.push(c as u32);
        }
        let mut slab = vec![0.0; cols.len() * d];
        kernels::spmm_scatter(pool, block, &x, d, Some(&map), &mut slab);
        let mut sum = vec![0.0; d];
        for r in 0..n {
            linalg::vector::axpy(1.0, &x[r * d..(r + 1) * d], &mut sum);
        }
        p.merge_packed(cols, slab);
        for (dst, src) in p.sum_x.iter_mut().zip(sum) {
            *dst += src;
        }
        p.rows_seen = n as u64;
        p
    }

    /// Every bit of a partial (`PartialEq` on `f64` equates `±0.0`).
    fn partial_bits(p: &YtxPartial) -> Vec<u64> {
        let rows = p.ytx_iter().flat_map(|(c, row)| std::iter::once(c as f64).chain(row.to_vec()));
        let values = rows.chain(p.sum_x.iter().copied());
        values.map(f64::to_bits).chain([p.rows_seen]).collect()
    }

    /// Sparse blocks (one with empty rows), a full block under eight rows
    /// (the sparse route takes it) and one over (the tile route), each
    /// with a `CM` and `Xm` to match.
    fn route_fixtures() -> Vec<(SparseMat, Mat, Vec<f64>)> {
        let mut rng = Prng::seed_from_u64(10);
        let mut out = Vec::new();
        for y in [
            fixture().0,
            full_row_fixture().0,
            SparseMat::from_dense(&rng.normal_mat(5, 11)),
            SparseMat::from_triplets(7, 30, &[(1, 29, 2.0), (1, 3, -1.0), (4, 3, 0.5), (6, 0, -0.0)]),
        ] {
            let d = 6;
            let cm = rng.normal_mat(y.cols(), d);
            out.push((y, cm, rng.normal_vec(d)));
        }
        out
    }

    #[test]
    fn fused_routes_are_bitwise_the_two_pass_pipeline() {
        let pools = [WorkerPool::new(1), WorkerPool::new(2), WorkerPool::new(8)];
        for (y, cm, xm) in route_fixtures() {
            let block = PartitionBlock::new(y.clone());
            assert_eq!(block.csc().is_none(), kernels::takes_full_routes(&y));
            let want = add_block_two_pass(&pools[0], &y, &cm, &xm);
            for pool in &pools {
                let mut got = YtxPartial::new(cm.cols());
                got.add_block_with_pool(pool, &block, &cm, &xm);
                assert_eq!(partial_bits(&got), partial_bits(&want), "YtX");
            }
        }
    }

    #[test]
    fn byte_size_reflects_sparsity() {
        let mut p = YtxPartial::new(4);
        let before = p.encoded_size();
        let y = SparseMat::from_triplets(1, 10, &[(0, 2, 1.0)]);
        let cm = Mat::zeros(10, 4);
        p.add_row(y.row(0), &cm, &[0.0; 4]);
        // One touched column: a one-byte index and a d-wide row.
        assert_eq!(p.encoded_size() - before, 1 + 8 * 4);
    }
}
