//! CSR sparse matrix.
//!
//! The paper's large inputs (Tweets: 1.26B × 71.5K at ~10⁻⁴ density) only
//! fit anywhere because they are stored sparse, and the entire point of the
//! *mean propagation* optimization (Section 3.1) is to never destroy that
//! sparsity by mean-centering. This CSR type therefore has no in-place
//! mean-subtraction at all — centering is always expressed algebraically by
//! the callers (see `spca-core::mean_prop`).

use std::borrow::Cow;
use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

use crate::dense::Mat;
use crate::vector;
use crate::wire::{self, Wire, WireError, WireReader};

/// Compressed-sparse-row matrix of `f64`.
///
/// The index and value arrays are immutable and shared: a row block
/// ([`SparseMat::row_block`], [`SparseMat::split_rows`]) or a clone is a
/// window of its parent's arrays with its own row pointers, so cutting
/// the input into partitions costs O(rows), not a second copy of it.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMat {
    rows: usize,
    cols: usize,
    /// Row pointers: row `r` occupies `indptr[r]..indptr[r+1]` of the arrays.
    indptr: Vec<usize>,
    /// Column indices, strictly increasing within a row.
    indices: Shared<u32>,
    /// Non-zero values, parallel to `indices`.
    values: Shared<f64>,
    /// Every row stores every column, `0..cols` in order: the arrays are a
    /// row-major dense matrix. A function of the structure alone, verified
    /// once when the arrays are assembled ([`SparseMat::from_raw_parts`])
    /// and inherited by every row window of a full matrix.
    full: bool,
}

/// An immutable window of a buffer shared by every matrix cut from the one
/// that built it. The `Arc` keeps the buffer alive; the window's pointer
/// is cached, so reading a row is one load away from the data, as it is
/// for a `Vec` (re-slicing the `Arc`'d `Vec` by a range on every access
/// adds a second).
#[derive(Clone)]
struct Shared<T> {
    buf: Arc<Vec<T>>,
    ptr: *const T,
    len: usize,
}

// SAFETY: a `Shared` only reads through `ptr`, which points into the heap
// buffer of a `Vec` that the `Arc` keeps alive and nothing mutates, moves
// or frees while any window of it exists: sharing it is sharing `&[T]`.
unsafe impl<T: Send + Sync> Send for Shared<T> {}
unsafe impl<T: Send + Sync> Sync for Shared<T> {}

impl<T> Shared<T> {
    /// Takes `v` over without copying it: moving a `Vec` into an `Arc`
    /// moves its header, not its buffer (`Arc<[T]>::from` would copy).
    fn new(v: Vec<T>) -> Self {
        let (ptr, len) = (v.as_ptr(), v.len());
        Shared { buf: Arc::new(v), ptr, len }
    }

    /// The sub-window `range` of this one, sharing its buffer.
    fn window(&self, range: Range<usize>) -> Self {
        let s = &self[range];
        Shared { buf: Arc::clone(&self.buf), ptr: s.as_ptr(), len: s.len() }
    }
}

impl<T> Deref for Shared<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: `ptr..ptr + len` was cut from `buf`'s live, immutable
        // buffer (`new`, `window`), which `buf` keeps allocated.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T: PartialEq> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: fmt::Debug> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// Borrowed view of one sparse row.
#[derive(Debug, Clone, Copy)]
pub struct SparseRow<'a> {
    /// Column indices of the non-zeros, strictly increasing.
    pub indices: &'a [u32],
    /// Non-zero values, parallel to `indices`.
    pub values: &'a [f64],
}

impl SparseMat {
    /// Builds from per-row `(column, value)` lists. Entries within each row
    /// are sorted and zero values are dropped; duplicate columns in one row
    /// are summed.
    pub fn from_rows(rows: usize, cols: usize, mut entries: Vec<Vec<(u32, f64)>>) -> Self {
        assert_eq!(entries.len(), rows, "from_rows: expected {rows} row lists");
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for row in &mut entries {
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut last: Option<u32> = None;
            for &(c, v) in row.iter() {
                assert!((c as usize) < cols, "from_rows: column {c} out of bounds {cols}");
                if v == 0.0 {
                    continue;
                }
                if last == Some(c) {
                    *values.last_mut().expect("just pushed") += v;
                } else {
                    indices.push(c);
                    values.push(v);
                    last = Some(c);
                }
            }
            indptr.push(indices.len());
        }
        SparseMat::from_raw_parts(rows, cols, indptr, indices, values)
    }

    /// Builds from COO triplets `(row, col, value)`.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, u32, f64)]) -> Self {
        let mut per_row: Vec<Vec<(u32, f64)>> = vec![Vec::new(); rows];
        for &(r, c, v) in triplets {
            assert!(r < rows, "from_triplets: row {r} out of bounds {rows}");
            per_row[r].push((c, v));
        }
        SparseMat::from_rows(rows, cols, per_row)
    }

    /// Converts a dense matrix, keeping entries with `v != 0.0` (so `-0.0`
    /// is dropped and NaN kept), written straight into the CSR arrays.
    pub fn from_dense(m: &Mat) -> Self {
        let nnz = m.data().iter().filter(|&&v| v != 0.0).count();
        Self::stream_rows(m.rows(), m.cols(), nnz, |r, row| row.copy_from_slice(m.row(r)))
    }

    /// Streams `rows` dense rows into CSR: `fill(r, row)` writes row `r`
    /// into a zeroed `cols`-wide buffer, and its entries are kept as
    /// [`Self::from_dense`] keeps them — bit for bit `from_dense` of the
    /// matrix the rows make, without that matrix. The arrays are reserved
    /// at `rows × cols` entries: for the dense generators this is built
    /// for, the one buffer they fill.
    pub fn from_dense_rows(
        rows: usize,
        cols: usize,
        fill: impl FnMut(usize, &mut [f64]),
    ) -> Self {
        let nnz = rows.checked_mul(cols).expect("from_dense_rows: rows × cols overflows");
        Self::stream_rows(rows, cols, nnz, fill)
    }

    /// [`Self::from_dense_rows`] into arrays reserved at `nnz` entries.
    fn stream_rows(
        rows: usize,
        cols: usize,
        nnz: usize,
        mut fill: impl FnMut(usize, &mut [f64]),
    ) -> Self {
        let (mut indptr, mut indices, mut values) =
            (Vec::with_capacity(rows + 1), Vec::with_capacity(nnz), Vec::with_capacity(nnz));
        indptr.push(0);
        let mut row = vec![0.0; cols];
        for r in 0..rows {
            row.fill(0.0);
            fill(r, &mut row);
            for (c, &v) in row.iter().enumerate().filter(|(_, &v)| v != 0.0) {
                indices.push(c as u32);
                values.push(v);
            }
            indptr.push(indices.len());
        }
        SparseMat::from_raw_parts(rows, cols, indptr, indices, values)
    }

    /// Crate-internal: assembles from CSR parts — the one place arrays
    /// become a `SparseMat` ([`Self::row_block`] only windows them), and
    /// so the one place fullness is decided from scratch.
    ///
    /// Also what `wire` decode calls, which must reproduce the encoded
    /// matrix *bitwise* — routing through [`SparseMat::from_rows`] would
    /// drop `-0.0` values and re-sort, breaking round-trip fidelity.
    ///
    /// `nnz == rows·cols` alone does not make a matrix full: the rows
    /// [`SparseMat::from_row_views`] copies come from its caller, and only
    /// a debug build asserts they are strictly ascending and in bounds, so
    /// [`is_full`] verifies the structure when the count matches.
    pub(crate) fn from_raw_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(indptr.len(), rows + 1);
        debug_assert_eq!(indices.len(), values.len());
        debug_assert_eq!(*indptr.last().unwrap_or(&0), indices.len());
        let full = is_full(rows, cols, &indptr, &indices, values.len());
        let (indices, values) = (Shared::new(indices), Shared::new(values));
        SparseMat { rows, cols, indptr, indices, values, full }
    }

    /// CSR row pointers (`indptr[r]..indptr[r+1]` spans row `r`): the
    /// cumulative-nnz table the kernels' load-balanced splits binary
    /// search.
    #[inline]
    pub(crate) fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// All stored non-zero values in CSR order (row-major, ascending
    /// column within each row) — the wire codec's payload view.
    #[inline]
    pub(crate) fn values(&self) -> &[f64] {
        &self.values
    }

    /// The stored values as a row-major dense `rows × cols` matrix, when
    /// every row stores every column — the test the kernels' full-block
    /// routes rest on. Stored `0.0` / `-0.0` values (which
    /// [`Self::map_values`] can create) count: fullness is a property of
    /// the structure, not of the values.
    pub(crate) fn full_rows(&self) -> Option<&[f64]> {
        self.full.then_some(&self.values[..])
    }

    /// A copy with `f` applied to every stored value. The structure is
    /// unchanged (the column indices are shared, not copied): values that
    /// map to `0.0` stay as explicit entries, so row shapes and the
    /// kernels' nnz-balanced splits are identical to the source matrix.
    pub fn map_values(&self, f: impl Fn(f64) -> f64) -> SparseMat {
        SparseMat {
            rows: self.rows,
            cols: self.cols,
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            values: Shared::new(self.values.iter().map(|&v| f(v)).collect()),
            full: self.full,
        }
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

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries that are non-zero.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// View of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> SparseRow<'_> {
        debug_assert!(r < self.rows);
        let (s, e) = (self.indptr[r], self.indptr[r + 1]);
        SparseRow { indices: &self.indices[s..e], values: &self.values[s..e] }
    }

    /// Product `self * B` with a dense matrix, iterating non-zeros only
    /// (pairwise-fused kernel, row-parallel on the worker pool when large).
    pub fn mul_dense(&self, b: &Mat) -> Mat {
        crate::kernels::sparse_mul_dense(self, b)
    }

    /// Column sums (Σ over rows of each column), touching non-zeros only.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut s = vec![0.0; self.cols];
        for (&c, &v) in self.indices.iter().zip(self.values.iter()) {
            s[c as usize] += v;
        }
        s
    }

    /// Column means — the `meanJob` of Algorithm 4.
    pub fn col_means(&self) -> Vec<f64> {
        let mut s = self.col_sums();
        if self.rows > 0 {
            vector::scale(1.0 / self.rows as f64, &mut s);
        }
        s
    }

    /// Squared Frobenius norm of the *stored* matrix (no centering).
    pub fn frobenius_sq(&self) -> f64 {
        vector::norm2_sq(&self.values)
    }

    /// Sum of absolute values of stored entries.
    pub fn norm1(&self) -> f64 {
        vector::norm1(&self.values)
    }

    /// Densifies. Only sensible for test-sized matrices.
    pub fn to_dense(&self) -> Mat {
        let mut m = Mat::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let row = self.row(r);
            for (&c, &v) in row.indices.iter().zip(row.values) {
                m[(r, c as usize)] = v;
            }
        }
        m
    }

    /// Rows `[start, end)` as a matrix that shares this one's index and
    /// value arrays: O(rows) for its own row pointers, no entry copied.
    /// Used by the engines to partition the input across virtual nodes.
    /// The block keeps the whole of its parent's arrays alive for as long
    /// as it lives. A window of a full matrix is full without a rescan;
    /// any other is checked as a fresh matrix is ([`is_full`]).
    pub fn row_block(&self, start: usize, end: usize) -> SparseMat {
        assert!(start <= end && end <= self.rows, "row_block: bad range {start}..{end}");
        let (s, e) = (self.indptr[start], self.indptr[end]);
        let indptr: Vec<usize> = self.indptr[start..=end].iter().map(|&p| p - s).collect();
        let indices = self.indices.window(s..e);
        let full = self.full || is_full(end - start, self.cols, &indptr, &indices, e - s);
        let values = self.values.window(s..e);
        SparseMat { rows: end - start, cols: self.cols, indptr, indices, values, full }
    }

    /// Copies the selected rows into a fresh sparse matrix (sampling):
    /// source rows are already sorted, deduped CSR, so they are copied as
    /// they are ([`Self::from_row_views`]), never re-sorted.
    pub fn select_rows(&self, idx: &[usize]) -> SparseMat {
        let rows: Vec<SparseRow<'_>> = idx
            .iter()
            .map(|&r| {
                assert!(r < self.rows, "select_rows: row {r} out of bounds {}", self.rows);
                self.row(r)
            })
            .collect();
        SparseMat::from_row_views(self.cols, &rows)
    }

    /// Assembles a fresh CSR matrix from borrowed row views (each already
    /// sorted and deduped, e.g. [`SparseRow`]s handed out by another
    /// `SparseMat` or stored per-row by a caller). A straight O(nnz) copy
    /// — this is how the serving path turns a batch of request rows into a
    /// block for the batched kernels without re-sorting anything.
    pub fn from_row_views(cols: usize, rows: &[SparseRow<'_>]) -> SparseMat {
        let nnz: usize = rows.iter().map(|r| r.indices.len()).sum();
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        indptr.push(0);
        for r in rows {
            debug_assert_eq!(r.indices.len(), r.values.len());
            debug_assert!(r.indices.windows(2).all(|w| w[0] < w[1]), "rows must be sorted CSR");
            debug_assert!(r.indices.last().map_or(true, |&c| (c as usize) < cols));
            indices.extend_from_slice(r.indices);
            values.extend_from_slice(r.values);
            indptr.push(indices.len());
        }
        SparseMat::from_raw_parts(rows.len(), cols, indptr, indices, values)
    }

    /// Flat column-index array of every stored non-zero (CSR order).
    #[inline]
    pub fn col_indices(&self) -> &[u32] {
        &self.indices
    }

    /// Splits into `parts` contiguous row blocks of near-equal size, each a
    /// [`Self::row_block`] sharing this matrix's arrays.
    pub fn split_rows(&self, parts: usize) -> Vec<SparseMat> {
        assert!(parts > 0, "split_rows: need at least one part");
        let mut out = Vec::with_capacity(parts);
        let base = self.rows / parts;
        let extra = self.rows % parts;
        let mut start = 0;
        for p in 0..parts {
            let len = base + usize::from(p < extra);
            out.push(self.row_block(start, start + len));
            start += len;
        }
        out
    }
}

/// Whether CSR arrays of `nnz` entries are a row-major dense `rows × cols`
/// matrix. The count is compared first, without overflow (a decoded width
/// is anything the wire says), and nothing is scanned when it differs;
/// when it matches, the structure is verified outright — row `r` spans
/// `[r·cols, (r+1)·cols)` and holds columns `0..cols` in order — in one
/// pass over the `u32` indices (on a 188 000-entry block `from_row_views`
/// took 184–199 µs with it and 191 µs without).
fn is_full(rows: usize, cols: usize, indptr: &[usize], indices: &[u32], nnz: usize) -> bool {
    cols > 0
        && rows.checked_mul(cols) == Some(nnz)
        && indices.len() == nnz
        && indptr.iter().enumerate().all(|(r, &p)| p == r * cols)
        // Branch-free within a row so the comparison vectorizes.
        && indices
            .chunks_exact(cols)
            .all(|row| row.iter().zip(0u32..).fold(true, |ok, (&i, c)| ok & (i == c)))
}

impl SparseRow<'_> {
    /// Number of non-zeros in the row.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Iterator over `(column, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.indices.iter().zip(self.values).map(|(&c, &v)| (c as usize, v))
    }

    /// Dot product with a dense vector of the full column dimension.
    pub fn dot_dense(&self, x: &[f64]) -> f64 {
        self.iter().map(|(c, v)| v * x[c]).sum()
    }

    /// Sparse-row × dense-matrix product: `out = row * B` where `B` is the
    /// broadcast in-memory matrix of Section 3.3. `out` must be zeroed by
    /// the caller (or the result is accumulated).
    pub fn mul_mat_into(&self, b: &Mat, out: &mut [f64]) {
        assert_eq!(out.len(), b.cols(), "mul_mat_into: output length mismatch");
        for (c, v) in self.iter() {
            vector::axpy(v, b.row(c), out);
        }
    }

    /// Convenience wrapper allocating the output of [`Self::mul_mat_into`].
    pub fn mul_mat(&self, b: &Mat) -> Vec<f64> {
        let mut out = vec![0.0; b.cols()];
        self.mul_mat_into(b, &mut out);
        out
    }

    /// Squared Euclidean norm of the row.
    pub fn norm2_sq(&self) -> f64 {
        vector::norm2_sq(self.values)
    }
}

// ---------------------------------------------------------------------------
// Partition blocks: a block's structure, analysed once
// ---------------------------------------------------------------------------

/// The column-major copy of a CSR block, restricted to the columns some
/// row touches: support column `i` is `support()[i]`, and its entries, in
/// ascending row order, are row `i` of [`Csc::transposed`] — a
/// `support × rows` CSR matrix holding `Yᵀ`. The `YᵀX` gather
/// ([`crate::kernels::spmm_gather`]) walks it.
#[derive(Debug, Clone, PartialEq)]
pub struct Csc {
    /// Touched columns, strictly ascending.
    support: Vec<u32>,
    /// Row `i` holds support column `i`'s entries: (block row, value).
    t: SparseMat,
}

impl Csc {
    /// The copy of `csr`, in O(nnz) with no table as wide as the block — a
    /// decoded block with a hostile width costs what its entries cost: the
    /// CSR offsets, in CSR order, go through a stable LSD radix sort on
    /// their column — one pass for up to 2¹⁶ columns, passes of at most
    /// 11 bits beyond — so each column's entries keep ascending rows.
    /// Offsets and rows are `u32`: a block holds fewer than 2³² of each
    /// (it is a partition; the assert makes the limit loud).
    pub fn of(csr: &SparseMat) -> Csc {
        let nnz = csr.nnz();
        assert!(
            nnz <= u32::MAX as usize && csr.rows <= u32::MAX as usize,
            "Csc::of: {nnz} entries in {} rows overflow 32-bit offsets",
            csr.rows
        );
        let bits = u32::BITS - csr.indices.iter().max().map_or(0, |c| c.leading_zeros()).min(31);
        let width = if bits <= 16 { bits } else { bits.div_ceil(bits.div_ceil(11)) };
        let mut order: Vec<u32> = (0..nnz as u32).collect();
        let mut next = vec![0u32; nnz];
        for shift in (0..bits).step_by(width as usize) {
            let digit = |p: u32| (csr.indices[p as usize] >> shift) as usize & ((1 << width) - 1);
            let mut starts = vec![0u32; (1 << width) + 1];
            for &p in &order {
                starts[digit(p) + 1] += 1;
            }
            for b in 0..1 << width {
                starts[b + 1] += starts[b];
            }
            for &p in &order {
                let slot = &mut starts[digit(p)];
                next[*slot as usize] = p;
                *slot += 1;
            }
            std::mem::swap(&mut order, &mut next);
        }
        // `next` becomes the row of each CSR offset.
        for (r, w) in csr.indptr.windows(2).enumerate() {
            next[w[0]..w[1]].fill(r as u32);
        }
        let (mut support, mut colptr) = (Vec::new(), Vec::new());
        let (mut rows, mut values) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
        for (i, &p) in order.iter().enumerate() {
            let c = csr.indices[p as usize];
            if support.last() != Some(&c) {
                support.push(c);
                colptr.push(i);
            }
            rows.push(next[p as usize]);
            values.push(csr.values[p as usize]);
        }
        colptr.push(nnz);
        Csc { t: SparseMat::from_raw_parts(support.len(), csr.rows, colptr, rows, values), support }
    }

    /// [`Csc::of`] a block the full-block routes do not take.
    fn unless_full(csr: &SparseMat) -> Option<Csc> {
        (!crate::kernels::takes_full_routes(csr)).then(|| Csc::of(csr))
    }

    /// The touched columns, strictly ascending.
    pub fn support(&self) -> &[u32] {
        &self.support
    }

    /// `Yᵀ` over the support: row `i` is column `support()[i]` of the
    /// block, its indices the block rows holding it, ascending.
    pub fn transposed(&self) -> &SparseMat {
        &self.t
    }
}

/// A partition of `Y` as the EM passes read it, its structure analysed
/// once, when the input is split: the CSR block and — unless the kernels'
/// full-block routes take it ([`crate::kernels::takes_full_routes`]) — its
/// [`Csc`] copy, 12 more bytes per entry. Cached for the whole fit, so no
/// pass rebuilds a block, a column table or a bucket sort.
///
/// On the wire and to the byte meters it is its CSR block, byte for byte;
/// decoding rebuilds the copy.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionBlock {
    csr: SparseMat,
    csc: Option<Csc>,
}

impl PartitionBlock {
    /// Analyses `csr` once.
    pub fn new(csr: SparseMat) -> Self {
        PartitionBlock { csc: Csc::unless_full(&csr), csr }
    }
}

/// A CSR block for the EM block kernels, with the column-major copy their
/// sparse routes gather through: cached by a [`PartitionBlock`], built on
/// each call for a bare [`SparseMat`].
pub trait Block {
    /// The CSR block.
    fn csr(&self) -> &SparseMat;
    /// Its [`Csc`] copy, `None` when the full-block routes take it.
    fn csc(&self) -> Cow<'_, Option<Csc>>;
}

impl Block for SparseMat {
    fn csr(&self) -> &SparseMat {
        self
    }
    fn csc(&self) -> Cow<'_, Option<Csc>> {
        Cow::Owned(Csc::unless_full(self))
    }
}

impl Block for PartitionBlock {
    fn csr(&self) -> &SparseMat {
        &self.csr
    }
    fn csc(&self) -> Cow<'_, Option<Csc>> {
        Cow::Borrowed(&self.csc)
    }
}

impl Wire for PartitionBlock {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.csr.encode_into(out);
    }
    fn encoded_size(&self) -> u64 {
        self.csr.encoded_size()
    }
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        SparseMat::decode_from(r).map(PartitionBlock::new)
    }
    fn encode_v3_into(&self, out: &mut Vec<u8>, quantize: bool) {
        self.csr.encode_v3_into(out, quantize);
    }
    fn encoded_size_v3(&self, quantize: bool) -> u64 {
        self.csr.encoded_size_v3(quantize)
    }
    fn decode_v3_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        SparseMat::decode_v3_from(r).map(PartitionBlock::new)
    }
}

/// A [`PartitionBlock`] that is cached, sized and shipped as its rows'
/// records ([`wire::write_row_record`]), one after another: byte for byte
/// the elements of a `Vec` of per-row records, so an RDD caching one block
/// per partition is priced as one that cached its rows.
///
/// There is no header. [`Wire::decode_from`] reads the rest of its buffer
/// as records, and — the width not being on the wire — the decoded block
/// is one column wider than its largest index.
#[derive(Debug, Clone, PartialEq)]
pub struct RowRecords(pub PartitionBlock);

impl Wire for RowRecords {
    fn encode_into(&self, out: &mut Vec<u8>) {
        for r in 0..self.0.csr.rows {
            let row = self.0.csr.row(r);
            wire::write_row_record(out, row.indices, row.values);
        }
    }
    fn encoded_size(&self) -> u64 {
        (0..self.0.csr.rows).map(|r| wire::row_record_len(self.0.csr.row(r).indices)).sum()
    }
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let (mut indptr, mut indices, mut values) = (vec![0], Vec::new(), Vec::new());
        while r.remaining() > 0 {
            let (idx, vals) = wire::read_row_record(r)?;
            indices.extend(idx);
            values.extend(vals);
            indptr.push(indices.len());
        }
        let cols = indices.iter().max().map_or(0, |&c| c as usize + 1);
        let csr = SparseMat::from_raw_parts(indptr.len() - 1, cols, indptr, indices, values);
        Ok(RowRecords(PartitionBlock::new(csr)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseMat {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 0 3 4 ]
        SparseMat::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (2, 1, 3.0), (2, 2, 4.0)])
    }

    #[test]
    fn construction_sorts_and_drops_zeros() {
        let m = SparseMat::from_rows(1, 4, vec![vec![(3, 1.0), (1, 2.0), (2, 0.0)]]);
        assert_eq!(m.nnz(), 2);
        let r = m.row(0);
        assert_eq!(r.indices, &[1, 3]);
        assert_eq!(r.values, &[2.0, 1.0]);
    }

    #[test]
    fn duplicate_columns_are_summed() {
        let m = SparseMat::from_rows(1, 3, vec![vec![(1, 2.0), (1, 3.0)]]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.row(0).values, &[5.0]);
    }

    #[test]
    fn dense_roundtrip() {
        let m = sample();
        let d = m.to_dense();
        let back = SparseMat::from_dense(&d);
        assert_eq!(m, back);
    }

    #[test]
    fn mul_dense_matches_dense_product() {
        let m = sample();
        let b = Mat::from_rows(&[&[1.0, 2.0], &[0.0, 1.0], &[3.0, 0.0]]);
        let sparse_product = m.mul_dense(&b);
        let dense_product = m.to_dense().matmul(&b);
        assert!(sparse_product.approx_eq(&dense_product, 1e-12));
    }

    #[test]
    fn col_means_touch_nonzeros_only() {
        let m = sample();
        assert_eq!(m.col_means(), vec![1.0 / 3.0, 1.0, 2.0]);
    }

    #[test]
    fn frobenius_of_stored_values() {
        assert_eq!(sample().frobenius_sq(), 1.0 + 4.0 + 9.0 + 16.0);
    }

    #[test]
    fn row_block_preserves_content() {
        let m = sample();
        let b = m.row_block(1, 3);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.row(0).nnz(), 0);
        assert_eq!(b.row(1).indices, &[1, 2]);
    }

    #[test]
    fn split_rows_partitions_everything() {
        let m = sample();
        let parts = m.split_rows(2);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts.iter().map(SparseMat::rows).sum::<usize>(), 3);
        assert_eq!(parts.iter().map(SparseMat::nnz).sum::<usize>(), m.nnz());
        let rejoined = Mat::vcat(&parts.iter().map(SparseMat::to_dense).collect::<Vec<_>>());
        assert!(rejoined.approx_eq(&m.to_dense(), 0.0));
    }

    #[test]
    fn select_rows_copies_requested() {
        let m = sample();
        let s = m.select_rows(&[2, 2, 0]);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.row(0).indices, &[1, 2]);
        assert_eq!(s.row(2).indices, &[0, 2]);
    }

    #[test]
    fn from_row_views_preserves_rows() {
        let m = sample();
        let views: Vec<SparseRow> = (0..m.rows()).map(|r| m.row(r)).collect();
        let rebuilt = SparseMat::from_row_views(m.cols(), &views);
        assert_eq!(m, rebuilt);
        let partial = SparseMat::from_row_views(m.cols(), &views[1..]);
        assert_eq!(partial, m.row_block(1, 3));
        assert_eq!(SparseMat::from_row_views(4, &[]).rows(), 0);
    }

    #[test]
    fn full_rows_sees_structure_not_values() {
        let dense = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let full = SparseMat::from_dense(&dense);
        assert_eq!(full.full_rows(), Some(dense.data()));
        // Stored zeros keep it full; a missing entry does not, whatever
        // the count of the others.
        let zeroed = full.map_values(|v| if v > 4.0 { -0.0 } else { 0.0 });
        assert_eq!(zeroed.full_rows().map(<[f64]>::len), Some(6));
        assert_eq!(sample().full_rows(), None);
        let holed = SparseMat::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)]);
        assert_eq!(holed.full_rows(), None);
        assert_eq!(SparseMat::from_rows(3, 0, vec![vec![]; 3]).full_rows(), None);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn a_full_count_of_misplaced_indices_is_not_full() {
        // `from_row_views` takes its rows on trust in a release build; a
        // row with the count of a full one but a repeated column must not
        // pass for one.
        let rows = [
            SparseRow { indices: &[0, 1], values: &[1.0, 2.0] },
            SparseRow { indices: &[1, 1], values: &[3.0, 4.0] },
        ];
        let m = SparseMat::from_row_views(2, &rows);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.full_rows(), None);
        assert!(m.row_block(0, 1).full_rows().is_some(), "the sound row alone is full");
        assert_eq!(m.row_block(1, 2).full_rows(), None);
    }

    /// Checks a block's copy against its CSR: the support is the union of
    /// the rows' columns, each column's entries are its CSR entries in
    /// ascending row order, and the offsets account for every entry.
    fn assert_copy_of(block: &PartitionBlock) {
        let (csr, csc) = (block.csr(), block.csc().into_owned().expect("a sparse-route block"));
        let mut union: Vec<u32> = csr.col_indices().to_vec();
        union.sort_unstable();
        union.dedup();
        assert_eq!(csc.support(), &union[..]);
        let t = csc.transposed();
        assert_eq!((t.rows(), t.cols(), t.nnz()), (union.len(), csr.rows(), csr.nnz()));
        assert_eq!(t.indptr().last(), Some(&csr.nnz()));
        for (i, &c) in csc.support().iter().enumerate() {
            let col = t.row(i);
            assert!(!col.indices.is_empty() && col.indices.windows(2).all(|w| w[0] < w[1]));
            for (&r, &v) in col.indices.iter().zip(col.values) {
                let row = csr.row(r as usize);
                let at = row.indices.binary_search(&c).expect("entry in its row");
                assert_eq!(row.values[at].to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn partition_block_copies_exactly_the_sparse_route() {
        let mut rng = crate::Prng::seed_from_u64(12);
        let random = SparseMat::from_dense(&Mat::from_fn(40, 30, |_, _| {
            if rng.uniform() < 0.1 { rng.normal() } else { 0.0 }
        }));
        for y in [sample(), random, SparseMat::from_rows(0, 4, vec![]), sample().row_block(1, 2)] {
            assert_copy_of(&PartitionBlock::new(y));
        }
        // A full block takes the tile routes from eight rows up; below, it
        // keeps a copy like any other.
        let dense = Mat::from_fn(8, 3, |r, c| (r * 3 + c) as f64 + 1.0);
        assert!(PartitionBlock::new(SparseMat::from_dense(&dense)).csc().is_none());
        assert_copy_of(&PartitionBlock::new(SparseMat::from_dense(&dense).row_block(0, 7)));
    }

    #[test]
    fn partition_block_offsets_do_not_overflow_at_the_widest_columns() {
        // Columns at both ends of `u32`: the sort key and the radix passes
        // hold them, and no table as wide as the block is built.
        let top = u32::MAX;
        let y = SparseMat::from_triplets(3, top as usize + 1, &[(0, top, 1.0), (1, 0, 2.0), (2, top, 3.0), (2, 7, -1.0)]);
        let block = PartitionBlock::new(y);
        assert_copy_of(&block);
        let csc = block.csc().into_owned().unwrap();
        assert_eq!(csc.support(), &[0, 7, top]);
        assert_eq!(csc.transposed().row(2).indices, &[0, 2]);
    }

    #[test]
    fn partition_block_is_its_csr_on_the_wire() {
        let block = PartitionBlock::new(sample());
        assert_eq!(block.encode(), sample().encode());
        assert_eq!(block.encoded_size(), sample().encoded_size());
        for quantize in [false, true] {
            assert_eq!(block.encode_v3(quantize), sample().encode_v3(quantize));
            assert_eq!(block.encoded_size_v3(quantize), sample().encoded_size_v3(quantize));
            assert_eq!(PartitionBlock::decode_v3(&block.encode_v3(false)).unwrap(), block);
        }
        // Decoding rebuilds the copy.
        assert_eq!(PartitionBlock::decode(&block.encode()).unwrap(), block);
    }

    #[test]
    fn a_hostile_width_decodes_without_overflow() {
        // Three empty rows declared 2⁶³ columns wide: `rows · cols` does not
        // fit a `usize`, and neither decoder may overflow on it.
        let mut bytes = Vec::new();
        for v in [3, 1 << 63, 0, 0, 0, 0] {
            wire::write_uvarint(&mut bytes, v);
        }
        let m = SparseMat::decode(&bytes).unwrap();
        assert_eq!((m.rows(), m.cols(), m.full_rows()), (3, 1 << 63, None));
        assert_copy_of(&PartitionBlock::decode(&bytes).unwrap());
    }

    #[test]
    fn row_records_are_the_rows_on_the_wire() {
        let block = RowRecords(PartitionBlock::new(sample()));
        let (y, mut rows) = (sample(), Vec::new());
        for r in 0..3 {
            wire::write_row_record(&mut rows, y.row(r).indices, y.row(r).values);
        }
        assert_eq!(block.encode(), rows);
        assert_eq!(block.encoded_size(), rows.len() as u64);
        // No header: the width is one past the largest column decoded.
        assert_eq!(RowRecords::decode(&rows).unwrap(), block);
        let narrow = RowRecords(PartitionBlock::new(sample().row_block(0, 1)));
        let back = RowRecords::decode(&narrow.encode()).unwrap();
        assert_eq!((back.0.csr().rows(), back.0.csr().cols()), (1, 3));
        assert_eq!(RowRecords::decode(&[]).unwrap().0.csr().rows(), 0);
    }

    /// An owned copy of rows `[start, end)`: fresh arrays, not a view.
    fn copied(m: &SparseMat, start: usize, end: usize) -> SparseMat {
        m.select_rows(&(start..end).collect::<Vec<_>>())
    }

    /// `view` is `copy` to every reader: equality, wire bytes, sizes,
    /// fullness and the column-major copy.
    fn assert_view_is_copy(view: &SparseMat, copy: &SparseMat) {
        assert_eq!(view, copy);
        assert_eq!(view.encode(), copy.encode());
        assert_eq!(view.encoded_size(), copy.encoded_size());
        for quantize in [false, true] {
            assert_eq!(view.encode_v3(quantize), copy.encode_v3(quantize));
        }
        assert_eq!(view.full_rows(), copy.full_rows());
        assert_eq!(Csc::of(view), Csc::of(copy));
    }

    #[test]
    fn views_share_the_arrays_and_read_as_copies() {
        let mut rng = crate::Prng::seed_from_u64(7);
        let random = SparseMat::from_dense(&Mat::from_fn(9, 6, |_, _| {
            if rng.uniform() < 0.3 { rng.normal() } else { 0.0 }
        }));
        let full = SparseMat::from_dense(&Mat::from_fn(6, 4, |r, c| (r * 4 + c) as f64 + 0.5));
        let empty =
            [SparseMat::from_rows(0, 4, vec![]), SparseMat::from_rows(3, 0, vec![vec![]; 3])];
        for m in [sample(), random, full].iter().chain(&empty) {
            let n = m.rows();
            for start in 0..=n {
                for end in start..=n {
                    let view = m.row_block(start, end);
                    assert!(Arc::ptr_eq(&view.values.buf, &m.values.buf), "a view, not a copy");
                    assert!(Arc::ptr_eq(&view.indices.buf, &m.indices.buf));
                    assert_view_is_copy(&view, &copied(m, start, end));
                    // Views of views.
                    for a in 0..=end - start {
                        for b in a..=end - start {
                            let inner = view.row_block(a, b);
                            assert!(Arc::ptr_eq(&inner.values.buf, &m.values.buf));
                            assert_view_is_copy(&inner, &copied(m, start + a, start + b));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_view_of_a_full_matrix_inherits_full() {
        let full = SparseMat::from_dense(&Mat::from_fn(12, 3, |r, c| (r + c) as f64 + 1.0));
        assert!(full.full);
        for (start, end) in [(0, 12), (2, 11), (5, 5), (11, 12)] {
            let view = full.row_block(start, end);
            assert!(view.full && view.row_block(0, end - start).full);
            assert_eq!(view.full_rows(), Some(&full.full_rows().unwrap()[start * 3..end * 3]));
        }
    }

    #[test]
    fn views_and_copies_give_the_kernels_the_same_bits() {
        use crate::kernels;
        let mut rng = crate::Prng::seed_from_u64(19);
        // Shapes past the kernels' parallel threshold at `d` = 32, so the
        // pools split them.
        let sparse = SparseMat::from_dense(&Mat::from_fn(2_000, 200, |_, _| {
            if rng.uniform() < 0.25 { rng.normal() } else { 0.0 }
        }));
        let full = SparseMat::from_dense(&rng.normal_mat(1_200, 64));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (m, start, end) in [(&sparse, 13, 1_991), (&full, 5, 1_183)] {
            let (view, copy) = (m.row_block(start, end), copied(m, start, end));
            assert_eq!(kernels::takes_full_routes(&view), m.full, "a full block takes its routes");
            let (rows, cols, d) = (view.rows(), view.cols(), 32);
            assert!(kernels::chunk_count(rows, 2 * d * (view.nnz() / rows)) > 1, "split on a pool");
            let b = rng.normal_mat(cols, d);
            let x = rng.normal_mat(rows, d);
            let map: Vec<u32> = (0..cols as u32).map(|c| c / 2).collect();
            for workers in [1, 2, 8] {
                let pool = crate::WorkerPool::new(workers);
                let yb = |y: &SparseMat| kernels::sparse_mul_dense_with_pool(&pool, y, &b);
                assert_eq!(bits(yb(&view).data()), bits(yb(&copy).data()), "{workers} workers");
                let ytx = |y: &SparseMat, map: Option<&[u32]>| {
                    let mut out = vec![0.0; map.map_or(cols, |_| cols / 2) * d];
                    kernels::spmm_scatter(&pool, y, x.data(), d, map, &mut out);
                    out
                };
                assert_eq!(bits(&ytx(&view, None)), bits(&ytx(&copy, None)));
                assert_eq!(bits(&ytx(&view, Some(&map))), bits(&ytx(&copy, Some(&map))));
            }
            if m.full {
                continue;
            }
            let each = |y: &SparseMat| {
                let mut out = Vec::new();
                kernels::sparse_mul_dense_each(y, b.data(), d, &mut out, |_| {});
                out
            };
            assert_eq!(bits(&each(&view)), bits(&each(&copy)));
            let gather = |y: &SparseMat| {
                let mut out = Vec::new();
                kernels::spmm_gather(&Csc::of(y), x.data(), d, &mut out);
                out
            };
            assert_eq!(bits(&gather(&view)), bits(&gather(&copy)));
        }
    }

    #[test]
    fn from_dense_keeps_what_the_row_lists_kept() {
        // The path `from_dense` replaced: per-row `(column, value)` lists
        // of the entries with `v != 0.0`, sorted through `from_rows`.
        let by_row_lists = |m: &Mat| {
            let per_row = (0..m.rows())
                .map(|r| {
                    let kept = m.row(r).iter().enumerate().filter(|(_, &v)| v != 0.0);
                    kept.map(|(c, &v)| (c as u32, v)).collect()
                })
                .collect();
            SparseMat::from_rows(m.rows(), m.cols(), per_row)
        };
        let odd = Mat::from_rows(&[
            &[0.0, -0.0, 1.5, f64::NAN],
            &[0.0, 0.0, 0.0, 0.0],
            &[-0.0, f64::NAN, 0.0, -2.0],
            &[3.0, 4.0, 5.0, 6.0],
            &[-0.0, -0.0, -0.0, -0.0],
        ]);
        let mut rng = crate::Prng::seed_from_u64(3);
        let random =
            Mat::from_fn(30, 17, |_, _| if rng.uniform() < 0.4 { rng.normal() } else { 0.0 });
        for m in [odd, random, Mat::zeros(0, 3), Mat::zeros(4, 0), Mat::zeros(3, 3)] {
            let (new, old) = (SparseMat::from_dense(&m), by_row_lists(&m));
            assert_eq!(new.encode(), old.encode(), "bit for bit, NaN included");
            assert_eq!((new.rows(), new.cols()), (old.rows(), old.cols()));
            assert_eq!(new.indptr(), old.indptr());
            assert_eq!(new.full, old.full);
            let streamed = SparseMat::from_dense_rows(m.rows(), m.cols(), |r, row| {
                row.copy_from_slice(m.row(r));
            });
            assert_eq!(streamed.encode(), old.encode());
        }
    }

    #[test]
    fn sparse_row_products() {
        let m = sample();
        let b = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let r = m.row(2);
        assert_eq!(r.mul_mat(&b), vec![4.0, 7.0]);
        assert_eq!(r.dot_dense(&[1.0, 1.0, 1.0]), 7.0);
        assert_eq!(r.norm2_sq(), 25.0);
    }

    #[test]
    fn density_is_nnz_over_cells() {
        let m = sample();
        assert!((m.density() - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_is_sane() {
        let m = SparseMat::from_rows(0, 5, vec![]);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.col_means(), vec![0.0; 5]);
        assert_eq!(m.density(), 0.0);
    }
}
