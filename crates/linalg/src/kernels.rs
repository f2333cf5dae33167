//! Cache-blocked, multi-threaded matrix kernels.
//!
//! sPCA's runtime is dominated by a handful of products — the distributed
//! `YtX` pass (`matmul_tn`), the sparse `Y·CM` recompute
//! (`SparseMat::mul_dense`), and the small driver-side GEMMs — so this
//! module gives them proper kernels instead of the seed's row-axpy triple
//! loops. [`Mat`](crate::Mat) and [`SparseMat`](crate::SparseMat) route
//! their products here; the original seed loops are preserved verbatim in
//! [`naive`] as the reference the equivalence tests and the benchmark
//! harness compare against.
//!
//! Three layers:
//!
//! * **Micro-kernels** — register-blocked inner loops: 4-row fused rank-1
//!   updates ([`vector::axpy4`]) for the normal and transposed products,
//!   a 2×4 accumulator tile for `A·Bᵀ`, pairwise-fused axpys for sparse
//!   rows, and one 8×8 register tile over packed panels (`tn_tile`) for
//!   everything dense in the EM pass: the Gram `XᵀX`, and `Y·B` / `YᵀX`
//!   when the CSR block stores every column of every row. The fusion is
//!   where the single-thread win comes from: one pass over the output per
//!   4 updates instead of 4 passes — or, in the tile, none until it is
//!   done.
//! * **Blocking** — the reduction dimension of `matmul_tn` is cut into
//!   fixed row chunks so each partial stays cache-resident.
//! * **Threading** — large products fan row chunks out on the shared
//!   [`WorkerPool`]; small ones never touch the pool.
//!
//! The per-partition products of the EM pass — `Y·B`, `YᵀX`, and the
//! Gram `XᵀX` — have slice cores that `core::mean_prop`'s block pipeline
//! calls directly; the `Mat` entry points are thin calls into them.
//!
//! # Determinism contract
//!
//! Split points depend on the *problem shape only*, never on the worker
//! count, and reductions merge partials in chunk-index order. Kernel
//! output is therefore bit-for-bit identical on any pool — 1, 2, or 64
//! workers — which the kernel-equivalence suite asserts directly. Where a
//! kernel chooses between routes (sparse or full block, band or tile) the
//! choice is a function of the input's structure and shape, and both
//! routes perform the same rounded operations in the same order on every
//! output element, so it is not observable in the result.
//!
//! One kernel is *not* independent of the host's instruction set:
//! `matmul_tn` fuses its multiply-adds on AVX-512 hosts and rounds them
//! separately elsewhere (see `matmul_tn_rows`), so on random inputs its
//! last bits — and, through `em.rs`'s `c.matmul_tn(c)`, a model hash —
//! differ between the two kinds of host. Every other kernel here rounds
//! each multiply and each add on its own everywhere.

use crate::dense::Mat;
use crate::pool::WorkerPool;
use crate::sparse::{Csc, SparseMat};
use crate::vector;

/// Products below this many flops (2·m·k·n) run single-threaded: pool
/// round-trips cost more than they save on d×d-sized driver matrices.
const PAR_MIN_FLOPS: usize = 2_000_000;

/// Inputs of fewer rows than this (one register tile's height) stay on
/// the kernels that accumulate in memory: a full CSR block on the sparse
/// `Y·B` / `YᵀX`, `XᵀX` on its row-axpy bands. The tile routes first pack
/// an operand into panels, which a handful of rows cannot repay — a fit
/// over thousands of few-row partitions calls each kernel once per task —
/// and all three break even at about eight rows (measured at d = 8 and
/// d = 50). Both sides of the cut-over produce the same bits, so no
/// result depends on it.
const TILE_MIN_ROWS: usize = 8;

/// How many stored entries ahead of its use a sparse product prefetches
/// the dense row an entry reads ([`row_mul`]).
const PREFETCH_AHEAD: usize = 8;

/// Target flops per parallel chunk — big enough to amortize dispatch,
/// small enough to load-balance.
const CHUNK_FLOPS: usize = 2_000_000;

/// Upper bound on chunk count: bounds dispatch overhead everywhere, and —
/// for the `matmul_tn` reduction, whose partial buffers are full output
/// copies — the zero-fill + reduce traffic, which at wide shapes rivals
/// the kernel itself if chunks proliferate.
const MAX_CHUNKS: usize = 16;

/// Cache-residency band for the sparse `YᵀX` scatter: each band of output
/// rows is kept to at most this many f64s (32 KiB) so the random-row
/// axpys land in L1. Non-zeros are bucketed by band up front (one stable
/// counting pass), so extra bands cost no rescans.
pub(crate) const SCATTER_BAND_ELEMS: usize = 4_096;

/// Upper bound on scatter band count: bounds task-dispatch overhead and
/// the size of the per-band bucket table for very wide outputs.
pub(crate) const MAX_SCATTER_BANDS: usize = 64;

/// Deterministic chunk count for a loop of `rows` iterations costing
/// `flops_per_row` each: a function of the problem shape only, and 1
/// below the parallel threshold the kernels use.
pub fn chunk_count(rows: usize, flops_per_row: usize) -> usize {
    let total = rows.saturating_mul(flops_per_row);
    if total < PAR_MIN_FLOPS || rows <= 1 {
        return 1;
    }
    (total / CHUNK_FLOPS).clamp(1, MAX_CHUNKS.min(rows))
}

/// Splits `0..rows` into `chunks` near-equal ranges (first `rows % chunks`
/// ranges get one extra row) — the same fixed split regardless of workers.
pub(crate) fn row_ranges(rows: usize, chunks: usize) -> Vec<(usize, usize)> {
    let base = rows / chunks;
    let extra = rows % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for c in 0..chunks {
        let len = base + usize::from(c < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// Cuts a row-major buffer of `width`-wide rows into the disjoint
/// row-chunks of `ranges` (which tile its rows in order), so each pool task
/// owns its slice: no copies and no reduction.
fn split_rows_mut<'a>(
    mut rest: &'a mut [f64],
    ranges: &[(usize, usize)],
    width: usize,
) -> Vec<(usize, usize, &'a mut [f64])> {
    let mut slices = Vec::with_capacity(ranges.len());
    for &(start, end) in ranges {
        let (head, tail) = rest.split_at_mut((end - start) * width);
        slices.push((start, end, head));
        rest = tail;
    }
    slices
}

/// Splits `0..y.rows()` into `chunks` ranges holding near-equal *non-zero*
/// counts: boundary `c` is the first row at which the cumulative nnz
/// reaches `c/chunks` of the total (a binary search on the CSR row
/// pointers). A function of the matrix only — worker counts never move a
/// boundary — and each output row is still produced by exactly one task,
/// so row-parallel kernels stay bit-identical under this split. This is
/// what fixes the skew that equal *row* splits suffer on power-law
/// sparsity: one hot chunk used to serialize the whole product.
pub(crate) fn nnz_ranges(y: &SparseMat, chunks: usize) -> Vec<(usize, usize)> {
    let rows = y.rows();
    let total = y.nnz();
    let indptr = y.indptr();
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0usize;
    for c in 1..=chunks {
        let end = if c == chunks {
            rows
        } else {
            let target = total * c / chunks;
            indptr.partition_point(|&p| p < target).clamp(start, rows)
        };
        out.push((start, end));
        start = end;
    }
    out
}

/// Row `r` of a row-major buffer of `cols`-wide rows.
#[inline(always)]
fn row_of(data: &[f64], cols: usize, r: usize) -> &[f64] {
    &data[r * cols..(r + 1) * cols]
}

/// Best-effort prefetch of a dense row into L1, every cache line of it —
/// the sparse product's B-row reads are data-dependent gathers, so the
/// hardware prefetcher cannot see them coming.
#[inline(always)]
fn prefetch_row(row: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch has no architectural effect beyond the cache, and
    // every address is inside the live row.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let base = row.as_ptr() as *const i8;
        for line in (0..std::mem::size_of_val(row)).step_by(64) {
            _mm_prefetch::<_MM_HINT_T0>(base.add(line));
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

// ---------------------------------------------------------------------------
// matmul: C = A (m×k) · B (k×n)
// ---------------------------------------------------------------------------

/// `A·B` on the process-global pool.
pub fn matmul(a: &Mat, b: &Mat) -> Mat {
    matmul_with_pool(WorkerPool::global(), a, b)
}

/// `A·B` on an explicit pool (bit-identical results on any pool).
pub fn matmul_with_pool(pool: &WorkerPool, a: &Mat, b: &Mat) -> Mat {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(
        k,
        b.rows(),
        "matmul: inner dimensions differ ({}x{} * {}x{})",
        m,
        k,
        b.rows(),
        n
    );
    let _span = obs::span_lazy("kernel", || format!("matmul {m}x{k}x{n}"))
        .with_flops(2 * m as u64 * k as u64 * n as u64);
    let mut out = Mat::zeros(m, n);
    if m == 0 || n == 0 || k == 0 {
        return out;
    }
    let chunks = chunk_count(m, 2 * k * n);
    if chunks == 1 {
        matmul_rows(a, b, 0, m, out.data_mut());
        return out;
    }
    pool.run(
        split_rows_mut(out.data_mut(), &row_ranges(m, chunks), n)
            .into_iter()
            .map(|(start, end, slice)| move || matmul_rows(a, b, start, end, slice))
            .collect(),
    );
    out
}

/// Computes output rows `[start, end)` of `A·B` into `out` (zeroed,
/// `(end-start)×n` row-major). Rows are processed in groups of four so each
/// `B` row loaded from memory feeds four output rows.
fn matmul_rows(a: &Mat, b: &Mat, start: usize, end: usize, out: &mut [f64]) {
    let n = b.cols();
    let k = a.cols();
    let mut i = start;
    while i + 4 <= end {
        let base = (i - start) * n;
        let (o0, rest) = out[base..base + 4 * n].split_at_mut(n);
        let (o1, rest) = rest.split_at_mut(n);
        let (o2, o3) = rest.split_at_mut(n);
        let (a0, a1, a2, a3) = (a.row(i), a.row(i + 1), a.row(i + 2), a.row(i + 3));
        for kk in 0..k {
            let b_row = b.row(kk);
            let (c0, c1, c2, c3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
            if c0 == 0.0 && c1 == 0.0 && c2 == 0.0 && c3 == 0.0 {
                continue;
            }
            for j in 0..n {
                let bj = b_row[j];
                o0[j] += c0 * bj;
                o1[j] += c1 * bj;
                o2[j] += c2 * bj;
                o3[j] += c3 * bj;
            }
        }
        i += 4;
    }
    while i < end {
        let base = (i - start) * n;
        let o = &mut out[base..base + n];
        let a_row = a.row(i);
        for (kk, &c) in a_row.iter().enumerate() {
            if c != 0.0 {
                vector::axpy(c, b.row(kk), o);
            }
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// matmul_tn: C = Aᵀ (k×m)·B — a reduction over the shared row dimension
// ---------------------------------------------------------------------------

/// `Aᵀ·B` on the process-global pool.
pub fn matmul_tn(a: &Mat, b: &Mat) -> Mat {
    matmul_tn_with_pool(WorkerPool::global(), a, b)
}

/// `Aᵀ·B` on an explicit pool. The shared row dimension is cut into fixed
/// chunks; per-chunk partials are summed in chunk order, so the result is
/// identical for every worker count.
pub fn matmul_tn_with_pool(pool: &WorkerPool, a: &Mat, b: &Mat) -> Mat {
    let rows = a.rows();
    let (acols, bcols) = (a.cols(), b.cols());
    assert_eq!(rows, b.rows(), "matmul_tn: row counts differ ({} vs {})", rows, b.rows());
    let _span = obs::span_lazy("kernel", || format!("matmul_tn {rows}x{acols}x{bcols}"))
        .with_flops(2 * rows as u64 * acols as u64 * bcols as u64);
    let mut out = Mat::zeros(acols, bcols);
    if rows == 0 || acols == 0 || bcols == 0 {
        return out;
    }
    let chunks = chunk_count(rows, 2 * acols * bcols);
    if chunks == 1 {
        matmul_tn_rows(a, b, 0, rows, out.data_mut());
        return out;
    }
    let partials: Vec<Vec<f64>> = pool.run(
        row_ranges(rows, chunks)
            .into_iter()
            .map(|(start, end)| {
                move || {
                    let mut partial = vec![0.0f64; acols * bcols];
                    matmul_tn_rows(a, b, start, end, &mut partial);
                    partial
                }
            })
            .collect(),
    );
    // Reduce in chunk-index order — part of the determinism contract.
    let data = out.data_mut();
    for partial in &partials {
        vector::axpy(1.0, partial, data);
    }
    out
}

/// Register-tile width over the output columns of `matmul_tn` (portable
/// path): one full-width f64 SIMD vector on AVX-512, two on AVX2.
const TN_JR: usize = 8;
/// Register-tile height over the output rows of `matmul_tn` (portable
/// path).
const TN_IR: usize = 8;

/// Accumulates `Σ_{r in [start,end)} (A_r)ᵀ ⊗ B_r` into `out`
/// (`acols × bcols`, row-major).
///
/// Dispatches to a hand-written AVX-512 kernel when the CPU has it, and
/// to a portable blocked kernel otherwise. Both accumulate every output
/// element in ascending-`r` order, and on either path every pool size
/// gives the same bits (the only reassociation is at the fixed chunk
/// boundaries of the parallel reduction). The two paths are **not**
/// interchangeable bit for bit: the portable one rounds each multiply and
/// each add separately — the naive reference's operation sequence — while
/// the AVX-512 tile uses `_mm512_fmadd_pd`, one rounding per term. On
/// integer-valued inputs both are exact; on random inputs they differ in
/// the last bits, so a result that flows through `matmul_tn` depends on
/// which kind of host computed it.
fn matmul_tn_rows(a: &Mat, b: &Mat, start: usize, end: usize, out: &mut [f64]) {
    if end == start {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: avx512f presence was just checked; every pointer the
            // kernel dereferences stays inside `a`, `b`, or `out`.
            unsafe { matmul_tn_rows_avx512(a, b, start, end, out) };
            return;
        }
    }
    matmul_tn_rows_portable(a, b, start, end, out);
}

/// AVX-512 `matmul_tn` chunk kernel: 4 output rows × up to 4 zmm column
/// groups per pass — 16 accumulators + 4 B vectors + 1 broadcast = 21 of
/// the 32 vector registers — so each A element is broadcast once and
/// feeds up to 32 output columns.
///
/// There is no packing: A is walked directly at its natural row stride,
/// each element read exactly once per call, with a software prefetch a
/// few rows ahead to hide the strided-walk latency; B rows are
/// contiguous and stay L1-resident across the `i0` sweep.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn matmul_tn_rows_avx512(a: &Mat, b: &Mat, start: usize, end: usize, out: &mut [f64]) {
    let acols = a.cols();
    let bcols = b.cols();
    let len = end - start;
    let imain = acols - acols % TN_AVX_IR;
    let jmain = bcols - bcols % 8;

    let abase = a.data().as_ptr().add(start * acols);
    let bbase = b.data().as_ptr().add(start * bcols);
    let obase = out.as_mut_ptr();

    let mut i0 = 0;
    while i0 < imain {
        let a0 = abase.add(i0);
        let mut j0 = 0;
        while j0 + 32 <= jmain {
            tn_tile_avx512::<TN_AVX_IR, 4>(a0, acols, bbase.add(j0), bcols, len, obase.add(i0 * bcols + j0), bcols);
            j0 += 32;
        }
        if j0 + 16 <= jmain {
            tn_tile_avx512::<TN_AVX_IR, 2>(a0, acols, bbase.add(j0), bcols, len, obase.add(i0 * bcols + j0), bcols);
            j0 += 16;
        }
        if j0 + 8 <= jmain {
            tn_tile_avx512::<TN_AVX_IR, 1>(a0, acols, bbase.add(j0), bcols, len, obase.add(i0 * bcols + j0), bcols);
        }
        i0 += TN_AVX_IR;
    }

    tn_remainders(a, b, start, end, out, imain, jmain);
}

/// Output-row block of the AVX-512 `matmul_tn` tile: at `G = 4` fused
/// column groups the register budget is `4·4` accumulators + 4 B vectors
/// + 1 broadcast = 21 of the 32 zmm registers. (A 6-row block fits the
/// register file too, but measured slower on the reference host.)
#[cfg(target_arch = "x86_64")]
const TN_AVX_IR: usize = 4;

/// One AVX-512 register tile: `R × (8·G)` outputs accumulated over `len`
/// rows, then added into `out` once. `G` is the number of fused zmm
/// column groups (4, 2, or 1); `R` is the output-row block.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tn_tile_avx512<const R: usize, const G: usize>(
    a0: *const f64,
    astride: usize,
    b0: *const f64,
    bstride: usize,
    len: usize,
    o0: *mut f64,
    ostride: usize,
) {
    use std::arch::x86_64::{
        _mm_prefetch, _mm512_add_pd, _mm512_fmadd_pd, _mm512_loadu_pd, _mm512_set1_pd,
        _mm512_setzero_pd, _mm512_storeu_pd, _MM_HINT_T0,
    };
    let mut acc = [[_mm512_setzero_pd(); G]; R];
    let mut ap = a0;
    let mut bp = b0;
    for _ in 0..len {
        // Pull in the cache line one to the *right* of this read: the
        // line this row's next-but-one column sweep will need, ~a full
        // sweep (thousands of iterations) from now. Prefetching down the
        // stride instead would target cold pages, and `prefetcht0` is
        // silently dropped on a TLB miss — this row's page is already
        // mapped, so the rightward prefetch always lands. wrapping_add
        // keeps the address computation defined at the row end
        // (prefetching past the buffer is architecturally harmless).
        _mm_prefetch::<_MM_HINT_T0>(ap.wrapping_add(8) as *const i8);
        let mut bv = [_mm512_setzero_pd(); G];
        for (g, v) in bv.iter_mut().enumerate() {
            *v = _mm512_loadu_pd(bp.add(8 * g));
        }
        for (t, acc_row) in acc.iter_mut().enumerate() {
            let at = _mm512_set1_pd(*ap.add(t));
            for (g, acc_tg) in acc_row.iter_mut().enumerate() {
                // Fused multiply-add: this host has a single 512-bit FP
                // port, so fusing halves the FP µop count. Integer-valued
                // inputs stay exact (fma of exact integers is exact);
                // random inputs move only in the last bits vs the
                // separate-rounding reference.
                *acc_tg = _mm512_fmadd_pd(at, bv[g], *acc_tg);
            }
        }
        ap = ap.add(astride);
        bp = bp.add(bstride);
    }
    for (t, acc_row) in acc.iter().enumerate() {
        for (g, acc_tg) in acc_row.iter().enumerate() {
            let o = o0.add(t * ostride + 8 * g);
            _mm512_storeu_pd(o, _mm512_add_pd(_mm512_loadu_pd(o), *acc_tg));
        }
    }
}

/// Portable `matmul_tn` chunk kernel.
///
/// Both operands are repacked once per chunk into row-interleaved panels:
/// panel `p` holds each row\'s `[p·W, (p+1)·W)` column slice back to back,
/// so the micro-kernel reads two sequential L1-resident streams — which
/// is what lets the auto-vectorizer emit full-width loads with no strided
/// access and no per-iteration bounds checks. The pack itself reads A and
/// B row by row (sequential, prefetch-friendly), while its scattered
/// panel writes cycle through a working set of one cache line per panel.
fn matmul_tn_rows_portable(a: &Mat, b: &Mat, start: usize, end: usize, out: &mut [f64]) {
    let acols = a.cols();
    let bcols = b.cols();
    let len = end - start;
    let imain = acols - acols % TN_IR;
    let jmain = bcols - bcols % TN_JR;
    let igroups = imain / TN_IR;
    let jgroups = jmain / TN_JR;

    let mut apack = vec![0.0f64; igroups * len * TN_IR];
    let mut bpack = vec![0.0f64; jgroups * len * TN_JR];
    for rr in 0..len {
        let a_row = a.row(start + rr);
        for (p, a_blk) in a_row[..imain].chunks_exact(TN_IR).enumerate() {
            let a_blk: &[f64; TN_IR] = a_blk.try_into().expect("panel width");
            let dst: &mut [f64; TN_IR] =
                (&mut apack[(p * len + rr) * TN_IR..][..TN_IR]).try_into().expect("panel slot");
            *dst = *a_blk;
        }
        let b_row = b.row(start + rr);
        for (g, b_blk) in b_row[..jmain].chunks_exact(TN_JR).enumerate() {
            let b_blk: &[f64; TN_JR] = b_blk.try_into().expect("panel width");
            let dst: &mut [f64; TN_JR] =
                (&mut bpack[(g * len + rr) * TN_JR..][..TN_JR]).try_into().expect("panel slot");
            *dst = *b_blk;
        }
    }

    for p in 0..igroups {
        let apanel = &apack[p * len * TN_IR..(p + 1) * len * TN_IR];
        let i0 = p * TN_IR;
        for g in 0..jgroups {
            let bgrp = &bpack[g * len * TN_JR..(g + 1) * len * TN_JR];
            let acc = tn_tile(apanel, bgrp, [[0.0; TN_JR]; TN_IR]);
            let j0 = g * TN_JR;
            for (t, acc_row) in acc.iter().enumerate() {
                let o = &mut out[(i0 + t) * bcols + j0..(i0 + t) * bcols + j0 + TN_JR];
                for (u, &v) in acc_row.iter().enumerate() {
                    o[u] += v;
                }
            }
        }
    }

    tn_remainders(a, b, start, end, out, imain, jmain);
}

/// One register tile of accumulators.
type Tile = [[f64; TN_JR]; TN_IR];

/// The 8×8 register-tile micro-kernel: `acc[t][u] += Σ_rr apanel[rr][t] ·
/// bpanel[rr][u]` over two row-interleaved sequential panels, starting
/// from the `acc` it is handed. Each element is a chain of separately
/// rounded multiplies and adds in ascending `rr`, so a tile seeded from
/// the output continues that element's sum exactly where a row-at-a-time
/// axpy loop would be. `matmul_tn`'s portable path seeds it with zeros;
/// the full-block `Y·B` and `YᵀX` and the Gram `XᵀX` seed it from their
/// output.
///
/// With AVX-512 the same chain runs on 512-bit registers
/// ([`tn_tile_zmm`]); the two paths round identically, so which one ran
/// is not observable in the result.
fn tn_tile(apanel: &[f64], bpanel: &[f64], acc: Tile) -> Tile {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: avx512f presence was just checked.
            return unsafe { tn_tile_zmm(apanel, bpanel, acc) };
        }
    }
    tn_tile_portable(apanel, bpanel, acc)
}

/// [`tn_tile`] in plain Rust: rustc never contracts `a * b + c` into a
/// fused multiply-add, which is what the bit-identity rests on.
///
/// Kept `#[inline(never)]`: compiled in isolation the loop auto-vectorizes
/// to a clean register tile, while inlined into the caller's loop nest the
/// extra live state defeats the vectorizer and it scalarizes (measured
/// ~4× slower). The call overhead is amortized over the panel rows.
#[inline(never)]
fn tn_tile_portable(apanel: &[f64], bpanel: &[f64], mut acc: Tile) -> Tile {
    for (a_blk, b_blk) in apanel.chunks_exact(TN_IR).zip(bpanel.chunks_exact(TN_JR)) {
        let a_blk: &[f64; TN_IR] = a_blk.try_into().expect("tile height");
        let b_blk: &[f64; TN_JR] = b_blk.try_into().expect("tile width");
        for u in 0..TN_JR {
            let bu = b_blk[u];
            for t in 0..TN_IR {
                acc[t][u] += a_blk[t] * bu;
            }
        }
    }
    acc
}

/// [`tn_tile`] with one zmm register per tile row: `_mm512_mul_pd` then
/// `_mm512_add_pd`, never `_mm512_fmadd_pd` — two roundings per term, as
/// in [`tn_tile_portable`] and unlike [`tn_tile_avx512`]. For the portable
/// loop LLVM prefers 256-bit vectors on AVX-512 parts, which spreads a
/// tile step over 32 FP µops; here it is 16, and the multiplies and adds
/// issue on different ports (measured 1.2–1.3× on the reference host).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tn_tile_zmm(apanel: &[f64], bpanel: &[f64], mut acc: Tile) -> Tile {
    use std::arch::x86_64::{
        _mm512_add_pd, _mm512_loadu_pd, _mm512_mul_pd, _mm512_set1_pd, _mm512_storeu_pd,
    };
    // SAFETY (every load and store below): each pointer comes from a
    // reference to exactly eight f64s.
    let mut rows = acc.map(|row| _mm512_loadu_pd(row.as_ptr()));
    for (a_blk, b_blk) in apanel.chunks_exact(TN_IR).zip(bpanel.chunks_exact(TN_JR)) {
        let a_blk: &[f64; TN_IR] = a_blk.try_into().expect("tile height");
        let b_blk: &[f64; TN_JR] = b_blk.try_into().expect("tile width");
        let b = _mm512_loadu_pd(b_blk.as_ptr());
        for (row, &a) in rows.iter_mut().zip(a_blk) {
            *row = _mm512_add_pd(*row, _mm512_mul_pd(_mm512_set1_pd(a), b));
        }
    }
    for (out, row) in acc.iter_mut().zip(rows) {
        _mm512_storeu_pd(out.as_mut_ptr(), row);
    }
    acc
}

/// Output rows `>= imain` (full column range) and output columns
/// `>= jmain` (for rows `< imain`): the per-row axpy path shared by both
/// chunk kernels, still accumulating in ascending `r`.
fn tn_remainders(
    a: &Mat,
    b: &Mat,
    start: usize,
    end: usize,
    out: &mut [f64],
    imain: usize,
    jmain: usize,
) {
    let acols = a.cols();
    let bcols = b.cols();
    if imain < acols {
        for r in start..end {
            let a_row = a.row(r);
            let b_row = b.row(r);
            for i in imain..acols {
                let c = a_row[i];
                if c != 0.0 {
                    vector::axpy(c, b_row, &mut out[i * bcols..(i + 1) * bcols]);
                }
            }
        }
    }
    if jmain < bcols {
        for r in start..end {
            let a_row = a.row(r);
            let b_row = b.row(r);
            for i in 0..imain {
                let c = a_row[i];
                if c != 0.0 {
                    let o = &mut out[i * bcols + jmain..(i + 1) * bcols];
                    for (oj, &bj) in o.iter_mut().zip(&b_row[jmain..]) {
                        *oj += c * bj;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// matmul_nt: C = A (m×k) · Bᵀ (k×n)
// ---------------------------------------------------------------------------

/// `A·Bᵀ` on the process-global pool.
pub fn matmul_nt(a: &Mat, b: &Mat) -> Mat {
    matmul_nt_with_pool(WorkerPool::global(), a, b)
}

/// `A·Bᵀ` on an explicit pool (bit-identical results on any pool).
pub fn matmul_nt_with_pool(pool: &WorkerPool, a: &Mat, b: &Mat) -> Mat {
    let (m, k) = (a.rows(), a.cols());
    let n = b.rows();
    assert_eq!(k, b.cols(), "matmul_nt: column counts differ ({} vs {})", k, b.cols());
    let _span = obs::span_lazy("kernel", || format!("matmul_nt {m}x{k}x{n}"))
        .with_flops(2 * m as u64 * k as u64 * n as u64);
    let mut out = Mat::zeros(m, n);
    if m == 0 || n == 0 {
        return out;
    }
    let chunks = chunk_count(m, 2 * k * n);
    if chunks == 1 {
        matmul_nt_rows(a, b, 0, m, out.data_mut());
        return out;
    }
    pool.run(
        split_rows_mut(out.data_mut(), &row_ranges(m, chunks), n)
            .into_iter()
            .map(|(start, end, slice)| move || matmul_nt_rows(a, b, start, end, slice))
            .collect(),
    );
    out
}

/// Computes output rows `[start, end)` of `A·Bᵀ` into `out` with a 2×4
/// accumulator tile: each loaded `a`/`b` element feeds several dot
/// products, and every output element still accumulates in ascending-`k`
/// order (the seed's order).
fn matmul_nt_rows(a: &Mat, b: &Mat, start: usize, end: usize, out: &mut [f64]) {
    let k = a.cols();
    let n = b.rows();
    let mut i = start;
    while i + 2 <= end {
        let (a0, a1) = (a.row(i), a.row(i + 1));
        let base = (i - start) * n;
        let mut j = 0;
        while j + 4 <= n {
            let (b0, b1, b2, b3) = (b.row(j), b.row(j + 1), b.row(j + 2), b.row(j + 3));
            let mut acc = [0.0f64; 8];
            for kk in 0..k {
                let (x0, x1) = (a0[kk], a1[kk]);
                let (y0, y1, y2, y3) = (b0[kk], b1[kk], b2[kk], b3[kk]);
                acc[0] += x0 * y0;
                acc[1] += x0 * y1;
                acc[2] += x0 * y2;
                acc[3] += x0 * y3;
                acc[4] += x1 * y0;
                acc[5] += x1 * y1;
                acc[6] += x1 * y2;
                acc[7] += x1 * y3;
            }
            out[base + j..base + j + 4].copy_from_slice(&acc[0..4]);
            out[base + n + j..base + n + j + 4].copy_from_slice(&acc[4..8]);
            j += 4;
        }
        while j < n {
            let b_row = b.row(j);
            let (mut s0, mut s1) = (0.0f64, 0.0f64);
            for kk in 0..k {
                s0 += a0[kk] * b_row[kk];
                s1 += a1[kk] * b_row[kk];
            }
            out[base + j] = s0;
            out[base + n + j] = s1;
            j += 1;
        }
        i += 2;
    }
    if i < end {
        let a_row = a.row(i);
        let base = (i - start) * n;
        for j in 0..n {
            let b_row = b.row(j);
            let mut s = 0.0f64;
            for kk in 0..k {
                s += a_row[kk] * b_row[kk];
            }
            out[base + j] = s;
        }
    }
}

// ---------------------------------------------------------------------------
// matvec
// ---------------------------------------------------------------------------

/// `A·x` on the process-global pool.
pub fn matvec(a: &Mat, x: &[f64]) -> Vec<f64> {
    matvec_with_pool(WorkerPool::global(), a, x)
}

/// `A·x` on an explicit pool (bit-identical results on any pool).
pub fn matvec_with_pool(pool: &WorkerPool, a: &Mat, x: &[f64]) -> Vec<f64> {
    let (m, k) = (a.rows(), a.cols());
    assert_eq!(k, x.len(), "matvec: dimension mismatch");
    let _span = obs::span_lazy("kernel", || format!("matvec {m}x{k}"))
        .with_flops(2 * m as u64 * k as u64);
    let chunks = chunk_count(m, 2 * k);
    if chunks == 1 {
        return (0..m).map(|i| vector::dot(a.row(i), x)).collect();
    }
    let ranges = row_ranges(m, chunks);
    let parts: Vec<Vec<f64>> = pool.run(
        ranges
            .into_iter()
            .map(|(start, end)| move || (start..end).map(|i| vector::dot(a.row(i), x)).collect())
            .collect(),
    );
    let mut out = Vec::with_capacity(m);
    for p in parts {
        out.extend(p);
    }
    out
}

// ---------------------------------------------------------------------------
// Sparse · dense
// ---------------------------------------------------------------------------

/// `Y·B` for CSR `Y` on the process-global pool.
pub fn sparse_mul_dense(y: &SparseMat, b: &Mat) -> Mat {
    sparse_mul_dense_with_pool(WorkerPool::global(), y, b)
}

/// `Y·B` for CSR `Y` on an explicit pool. Row-parallel (each output row
/// depends on one input row), so results are bit-identical on any pool.
pub fn sparse_mul_dense_with_pool(pool: &WorkerPool, y: &SparseMat, b: &Mat) -> Mat {
    let mut out = Mat::zeros(y.rows(), b.cols());
    sparse_mul_dense_into_with_pool(pool, y, b, out.data_mut());
    out
}

/// `out += Y·B` for CSR `Y`, accumulating into a caller-provided
/// `y.rows() × b.cols()` row-major buffer (the batched EM path reuses one
/// scratch buffer across partitions instead of allocating per call).
/// The caller zeroes the buffer; results are bit-identical on any pool.
pub fn sparse_mul_dense_into(y: &SparseMat, b: &Mat, out: &mut [f64]) {
    sparse_mul_dense_into_with_pool(WorkerPool::global(), y, b, out)
}

/// [`sparse_mul_dense_into`] on an explicit pool.
pub fn sparse_mul_dense_into_with_pool(pool: &WorkerPool, y: &SparseMat, b: &Mat, out: &mut [f64]) {
    sparse_mul_dense_slices(pool, y, b.data(), b.cols(), out)
}

/// `out += Y·B` over slices: `b` is the `y.cols() × n`
/// row-major operand and `out` the caller-zeroed `y.rows() × n` result.
pub fn sparse_mul_dense_slices(
    pool: &WorkerPool,
    y: &SparseMat,
    b: &[f64],
    n: usize,
    out: &mut [f64],
) {
    let m = y.rows();
    assert_eq!(b.len(), y.cols() * n, "mul_dense: inner dimensions differ");
    assert_eq!(out.len(), m * n, "mul_dense: output buffer is {} not {}", out.len(), m * n);
    let mut span = obs::span_lazy("kernel", || {
        format!("sparse_mul_dense {m}x{n} nnz={}", y.nnz())
    })
    .with_flops(2 * y.nnz() as u64 * n as u64);
    let full = full_block(y);
    span.arg("route", route_name(full.is_some()));
    if m == 0 || n == 0 {
        return;
    }
    // Chunk count from the mean row cost, but chunk *boundaries* from the
    // cumulative nnz: equal-row splits serialize on skewed sparsity (one
    // hot chunk holds most of the work), while the nnz-balanced split
    // keeps every task near the same flop count. Both are functions of
    // the matrix only, so any pool produces identical bits.
    let mean_nnz = y.nnz() / m.max(1);
    let chunks = chunk_count(m, 2 * n * mean_nnz.max(1));
    if let Some(rows) = full {
        return full_mul_dense(pool, rows, b, n, chunks, out);
    }
    if chunks == 1 {
        sparse_rows_mul(y, b, n, 0, m, out);
        return;
    }
    pool.run(
        split_rows_mut(out, &nnz_ranges(y, chunks), n)
            .into_iter()
            .map(|(start, end, slice)| move || sparse_rows_mul(y, b, n, start, end, slice))
            .collect(),
    );
}

/// [`sparse_mul_dense_slices`] one output row at a time, for a block the
/// sparse route takes: row `r` of `Y·B` is zeroed and computed at the end
/// of `rows` — in L1 — and handed to `f` there, in ascending `r`, so
/// `rows` ends as the `y.rows() × n` product after whatever it held.
/// Nothing is zeroed or written but the rows themselves. Same `kernel`
/// span, flops and bits as [`sparse_mul_dense_slices`]; serial, the caller
/// being a pool task.
pub fn sparse_mul_dense_each(
    y: &SparseMat,
    b: &[f64],
    n: usize,
    rows: &mut Vec<f64>,
    f: impl FnMut(&mut [f64]),
) {
    assert_eq!(b.len(), y.cols() * n, "mul_dense: inner dimensions differ");
    debug_assert!(full_block(y).is_none(), "mul_dense: a full block takes the tile route");
    let mut span = obs::span_lazy("kernel", || {
        format!("sparse_mul_dense {}x{n} nnz={}", y.rows(), y.nnz())
    })
    .with_flops(2 * y.nnz() as u64 * n as u64);
    span.arg("route", route_name(false));
    rows_each(y, b, n, rows, f);
}

/// Row `r` of `Y·B` for `r` in ascending order, each zeroed and computed
/// at the end of `rows` and handed to `f(row)` there.
fn rows_each(
    y: &SparseMat,
    b: &[f64],
    n: usize,
    rows: &mut Vec<f64>,
    mut f: impl FnMut(&mut [f64]),
) {
    for r in 0..y.rows() {
        let at = rows.len();
        rows.resize(at + n, 0.0);
        row_mul(y, b, n, r, y.rows(), &mut rows[at..]);
        f(&mut rows[at..]);
    }
}

/// Computes output rows `[start, end)` of `Y·B` into `out`. Non-zeros are
/// consumed in quads, then a pair, then a single, with fused updates
/// ([`vector::axpy4`]/[`vector::axpy2`]) — bit-identical to sequential
/// axpys, a quarter of the passes over the output row. The `B` rows of
/// entries a few places on are prefetched while the current row computes
/// ([`row_mul`]): the row gathers are data-dependent, so without the hint
/// every one starts on a cold access.
///
/// Public as the serial form of [`sparse_mul_dense_slices`] — no pool, no
/// `kernel` span, no `kernel.flops` — for a caller whose block is one small
/// task of many already on a pool (a serve batch of a hundred rows).
/// `#[inline]` lets such a caller compile it into its own per-batch loop:
/// the serving path calls it once per request of a few rows.
#[inline]
pub fn sparse_rows_mul(y: &SparseMat, b: &[f64], n: usize, start: usize, end: usize, out: &mut [f64]) {
    for r in start..end {
        row_mul(y, b, n, r, end, &mut out[(r - start) * n..(r - start + 1) * n]);
    }
}

/// `o += y_r·B` ([`sparse_rows_mul`]'s body). First it prefetches the `B`
/// rows the entries [`PREFETCH_AHEAD`] places on in storage order will
/// read, up to row `end`: one prefetch per entry, well before its use even
/// when rows hold a handful of entries each.
#[inline(always)]
fn row_mul(y: &SparseMat, b: &[f64], n: usize, r: usize, end: usize, o: &mut [f64]) {
    let (indptr, stop) = (y.indptr(), y.indptr()[end]);
    let ahead = (indptr[r] + PREFETCH_AHEAD).min(stop)..(indptr[r + 1] + PREFETCH_AHEAD).min(stop);
    for &c in &y.col_indices()[ahead] {
        prefetch_row(row_of(b, n, c as usize));
    }
    let row = y.row(r);
    let nnz = row.indices.len();
    // Term `t` of the row: the value and the `B` row it scales.
    let term = |t: usize| (row.values[t], row_of(b, n, row.indices[t] as usize));
    let mut t = 0;
    while t + 4 <= nnz {
        let ((v0, b0), (v1, b1), (v2, b2), (v3, b3)) = (term(t), term(t + 1), term(t + 2), term(t + 3));
        vector::axpy4(v0, b0, v1, b1, v2, b2, v3, b3, o);
        t += 4;
    }
    if t + 2 <= nnz {
        let ((v0, b0), (v1, b1)) = (term(t), term(t + 1));
        vector::axpy2(v0, b0, v1, b1, o);
        t += 2;
    }
    if t < nnz {
        let (v, b_row) = term(t);
        vector::axpy(v, b_row, o);
    }
}

// ---------------------------------------------------------------------------
// syrk_tn: C = Xᵀ·X — a Gram kernel (EM derives its XtX from YtX instead)
// ---------------------------------------------------------------------------

/// `XᵀX` on the process-global pool. Only the upper triangle is
/// accumulated; the lower triangle is mirrored once at the end.
pub fn syrk_tn(x: &Mat) -> Mat {
    syrk_tn_with_pool(WorkerPool::global(), x)
}

/// `XᵀX` on an explicit pool ([`syrk_tn_slices`] has the contract).
pub fn syrk_tn_with_pool(pool: &WorkerPool, x: &Mat) -> Mat {
    let mut out = Mat::zeros(x.cols(), x.cols());
    syrk_tn_slices(pool, x.data(), x.cols(), out.data_mut());
    out
}

/// `XᵀX` for the row-major `d`-wide rows `x`,
/// into the caller-zeroed `d × d` `out`.
///
/// Parallelism is over *output* rows: each task scans every row of `X` but
/// writes only its own disjoint band of the upper triangle, so there is no
/// partial-buffer reduction and every output element accumulates its
/// `x_r[i]·x_r[j]` terms in ascending-`r` order — the exact operation
/// sequence of the row-at-a-time EM reference (which axpys row `i` of the
/// Gram whenever `x_r[i] != 0`). The mirror step is exact too:
/// floating-point multiplication commutes bit-for-bit, so
/// `C[j][i] = C[i][j]` reproduces the lower-triangle accumulation of the
/// reference (accumulators starting at +0.0 can never become -0.0, so the
/// reference's zero-skip asymmetry cannot change bits either). Results are
/// therefore bit-identical to the reference on any pool size.
///
/// From [`TILE_MIN_ROWS`] rows up the bands are rows of 8×8 register
/// tiles over `X` packed once into panels ([`syrk_tn_tiles`]); below it
/// they are row axpys into memory ([`syrk_tn_band`]), which need no pack.
/// The tiles do not skip zeros, which for finite `X` adds `±0.0` to an
/// accumulator that is never `-0.0` — the same bits on both sides of the
/// cut-over.
pub fn syrk_tn_slices(pool: &WorkerPool, x: &[f64], d: usize, out: &mut [f64]) {
    let n = if d == 0 { 0 } else { x.len() / d };
    assert_eq!(x.len(), n * d, "syrk_tn: input is a whole number of rows");
    assert_eq!(out.len(), d * d, "syrk_tn: output buffer is {} not {d}x{d}", out.len());
    let _span = obs::span_lazy("kernel", || format!("syrk_tn {n}x{d}"))
        .with_flops(n as u64 * d as u64 * (d as u64 + 1));
    if n == 0 {
        return;
    }
    // Mean flops per output row of the triangle: n·(d+1).
    let chunks = chunk_count(d, n * (d + 1));
    if n >= TILE_MIN_ROWS {
        syrk_tn_tiled(pool, x, d, chunks, out);
    } else if chunks == 1 {
        syrk_tn_band(x, d, 0, d, out);
    } else {
        pool.run(
            split_rows_mut(out, &row_ranges(d, chunks), d)
                .into_iter()
                .map(|(start, end, slice)| move || syrk_tn_band(x, d, start, end, slice))
                .collect(),
        );
    }
    for i in 0..d {
        for j in 0..i {
            out[i * d + j] = out[j * d + i];
        }
    }
}

/// Accumulates upper-triangle output rows `[lo, hi)` of `XᵀX` into `out`
/// (`(hi-lo)×d` row-major; entries left of the diagonal stay zero).
fn syrk_tn_band(x: &[f64], d: usize, lo: usize, hi: usize, out: &mut [f64]) {
    for row in x.chunks_exact(d) {
        for i in lo..hi {
            let xi = row[i];
            if xi != 0.0 {
                let base = (i - lo) * d;
                vector::axpy(xi, &row[i..], &mut out[base + i..base + d]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// spmm_tn: C = Yᵀ·X for CSR Y — the YtX scatter of the batched EM path
// ---------------------------------------------------------------------------

/// `YᵀX` (`D×d` dense) for CSR `Y` on the process-global pool.
pub fn spmm_tn(y: &SparseMat, x: &Mat) -> Mat {
    spmm_tn_with_pool(WorkerPool::global(), y, x)
}

/// `YᵀX` on an explicit pool.
///
/// Same output-row parallelism as [`syrk_tn_with_pool`]: each task scans
/// every non-zero of `Y` but scatters only into its own disjoint band of
/// output rows, so every output row accumulates one axpy per contributing
/// non-zero in ascending input-row order — bit-identical to the
/// row-at-a-time reference on any pool size.
pub fn spmm_tn_with_pool(pool: &WorkerPool, y: &SparseMat, x: &Mat) -> Mat {
    let mut out = Mat::zeros(y.cols(), x.cols());
    spmm_scatter(pool, y, x.data(), x.cols(), None, out.data_mut());
    out
}

/// Packed `YᵀX`: like [`spmm_tn`], but output row `map[c]` accumulates
/// column `c` of `Y`, into a caller-provided `out_rows × x.cols()` slab
/// (zeroed by the caller). `map` must cover every column with a non-zero;
/// untouched columns may map anywhere (they contribute nothing). This is
/// the hash-free inner loop of the batched `YtxPartial`: the slab holds
/// only the columns a partition touches.
pub fn spmm_tn_packed(y: &SparseMat, x: &Mat, map: &[u32], out: &mut [f64]) {
    spmm_tn_packed_with_pool(WorkerPool::global(), y, x, map, out)
}

/// [`spmm_tn_packed`] on an explicit pool.
pub fn spmm_tn_packed_with_pool(
    pool: &WorkerPool,
    y: &SparseMat,
    x: &Mat,
    map: &[u32],
    out: &mut [f64],
) {
    spmm_scatter(pool, y, x.data(), x.cols(), Some(map), out)
}

/// `YᵀX` as a gather over a block's cached column-major copy: support
/// column `i`'s output row adds `y[r][c]·x_r` over its entries in
/// ascending `r` — [`sparse_mul_dense_each`]'s row loop over row `i` of
/// [`Csc::transposed`], whose fused axpys are sequential axpys bit for bit
/// — zeroed and gathered at the end of `out`, in ascending `i`, so `out`
/// ends as the packed `support × d` product after whatever it held. Every
/// output row thus gets the scatter's operations in the scatter's order:
/// the bits of [`spmm_tn`] / [`spmm_tn_packed`] under the block's column
/// table, with no per-call bucket pass, table or zeroed slab. The `kernel`
/// span is [`spmm_tn`]'s, route `sparse`; serial, the caller being a pool
/// task.
pub fn spmm_gather(csc: &Csc, x: &[f64], d: usize, out: &mut Vec<f64>) {
    let t = csc.transposed();
    assert_eq!(x.len(), t.cols() * d, "spmm_tn: X is {} elements, not {}x{d}", x.len(), t.cols());
    let mut span = obs::span_lazy("kernel", || {
        format!("spmm_tn {}x{}x{d} nnz={}", t.cols(), t.rows(), t.nnz())
    })
    .with_flops(2 * t.nnz() as u64 * d as u64);
    span.arg("route", route_name(false));
    rows_each(t, x, d, out, |_| ());
}

/// The scatter driver behind every `spmm_tn*` entry point: `x` is
/// `y.rows() × d` row-major, `out` has
/// `out.len() / d` rows, and column `c` of `Y` lands in row `map[c]` (or
/// `c` when no map is given).
pub fn spmm_scatter(
    pool: &WorkerPool,
    y: &SparseMat,
    x: &[f64],
    d: usize,
    map: Option<&[u32]>,
    out: &mut [f64],
) {
    assert_eq!(x.len(), y.rows() * d, "spmm_tn: X is {} elements, not {}x{d}", x.len(), y.rows());
    assert!(map.is_none_or(|m| m.len() == y.cols()), "spmm_tn: column map covers every Y column");
    if d == 0 {
        return;
    }
    assert_eq!(out.len() % d, 0, "spmm_tn: output is a whole number of rows");
    let out_rows = out.len() / d;
    let mut span = obs::span_lazy("kernel", || {
        format!("spmm_tn {}x{out_rows}x{d} nnz={}", y.rows(), y.nnz())
    })
    .with_flops(2 * y.nnz() as u64 * d as u64);
    // A full block under the identity map (which is what a full block's
    // column-support table is) is the dense `YᵀX`: output row `c` sums
    // `y[r][c]·x_r` over ascending `r`, which the register tile does
    // without a bucket table. Any other map may fold two columns into one
    // output row, whose sum interleaves them — the scatter's order.
    let identity = |m: &[u32]| m.iter().enumerate().all(|(c, &t)| t as usize == c);
    let dense = full_block(y).filter(|_| map.is_none_or(identity));
    span.arg("route", route_name(dense.is_some()));
    if out_rows == 0 || y.nnz() == 0 {
        return;
    }
    if let Some(rows) = dense {
        let cols = y.cols();
        assert!(out_rows >= cols, "spmm_tn: output has {out_rows} rows for {cols} columns");
        return full_tn(pool, rows, cols, x, d, &mut out[..cols * d]);
    }
    // The per-nnz axpys land on effectively random output rows, so a wide
    // output turns the scatter memory-bound. Band the output small enough
    // to stay cache-resident — a function of the output shape only, so
    // (like `chunk_count`) banding never affects results.
    let bands = out.len().div_ceil(SCATTER_BAND_ELEMS).clamp(1, MAX_SCATTER_BANDS.min(out_rows));
    if bands == 1 {
        spmm_scatter_band(y, x, d, map, 0, out_rows, out);
        return;
    }
    let band_rows = out_rows.div_ceil(bands);

    // Bucket the non-zeros by band in one stable counting pass: within a
    // band, entries keep the input scan order (ascending row, ascending
    // column), so every output element still accumulates its axpys in
    // exactly the row-at-a-time order — bit-identical on any pool size.
    let mut starts = vec![0usize; bands + 1];
    let target = |c: u32| -> usize {
        match map {
            Some(m) => m[c as usize] as usize,
            None => c as usize,
        }
    };
    for &c in y.col_indices() {
        starts[target(c) / band_rows + 1] += 1;
    }
    for b in 0..bands {
        starts[b + 1] += starts[b];
    }
    // (output row, input row, value) per non-zero: 16 bytes.
    let mut entries: Vec<(u32, u32, f64)> = vec![(0, 0, 0.0); y.nnz()];
    let mut next = starts.clone();
    for r in 0..y.rows() {
        let row = y.row(r);
        for (&c, &v) in row.indices.iter().zip(row.values) {
            let t = target(c);
            let slot = &mut next[t / band_rows];
            entries[*slot] = (t as u32, r as u32, v);
            *slot += 1;
        }
    }

    let mut tasks: Vec<(usize, &[(u32, u32, f64)], &mut [f64])> = Vec::with_capacity(bands);
    let mut rest = out;
    for b in 0..bands {
        let lo = b * band_rows;
        let hi = ((b + 1) * band_rows).min(out_rows);
        let (head, tail) = rest.split_at_mut((hi - lo) * d);
        tasks.push((lo, &entries[starts[b]..starts[b + 1]], head));
        rest = tail;
    }
    pool.run(
        tasks
            .into_iter()
            .map(|(lo, band_entries, slice)| {
                move || {
                    for &(t, r, v) in band_entries {
                        let base = (t as usize - lo) * d;
                        vector::axpy(v, row_of(x, d, r as usize), &mut slice[base..base + d]);
                    }
                }
            })
            .collect(),
    );
}

/// Scatters non-zeros whose (mapped) output row falls in `[lo, hi)` into
/// `out` (`(hi-lo)×d`), in ascending input-row order.
fn spmm_scatter_band(
    y: &SparseMat,
    x: &[f64],
    d: usize,
    map: Option<&[u32]>,
    lo: usize,
    hi: usize,
    out: &mut [f64],
) {
    for r in 0..y.rows() {
        let row = y.row(r);
        if row.indices.is_empty() {
            continue;
        }
        let xr = row_of(x, d, r);
        for (&c, &v) in row.indices.iter().zip(row.values) {
            let t = match map {
                Some(m) => m[c as usize] as usize,
                None => c as usize,
            };
            if t >= lo && t < hi {
                vector::axpy(v, xr, &mut out[(t - lo) * d..(t - lo + 1) * d]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Full-row blocks and the Gram: the register-tile routes
// ---------------------------------------------------------------------------

/// Rows of the reduction dimension a tile accumulates before it is stored
/// and re-seeded from the output: two 8-wide panels of this depth are
/// 32 KiB, so they stay in L1 while the tile runs. Re-seeding continues
/// each element's sum where it stopped, so the depth never affects bits.
const TILE_DEPTH: usize = 256;

/// The values of `y` as a row-major dense matrix when the full-block
/// routes apply: every row stores every column
/// ([`SparseMat::full_rows`]) and there are rows enough to pay for a pack.
fn full_block(y: &SparseMat) -> Option<&[f64]> {
    if y.rows() < TILE_MIN_ROWS {
        return None;
    }
    y.full_rows()
}

/// Whether `y` takes the full-block register-tile routes of `Y·B` and
/// `YᵀX` — the test [`PartitionBlock`](crate::sparse::PartitionBlock)
/// decides by whether to keep a column-major copy.
pub fn takes_full_routes(y: &SparseMat) -> bool {
    full_block(y).is_some()
}

/// The `route` span argument of the kernels that choose one.
fn route_name(dense: bool) -> &'static str {
    if dense {
        "dense"
    } else {
        "sparse"
    }
}

/// [`row_ranges`] over 8-row output panels: every range starts on a panel
/// boundary and the last one ends at `rows`.
fn panel_ranges(rows: usize, chunks: usize) -> Vec<(usize, usize)> {
    let panels = rows.div_ceil(TN_IR);
    row_ranges(panels, chunks.clamp(1, panels))
        .into_iter()
        .map(|(lo, hi)| (lo * TN_IR, (hi * TN_IR).min(rows)))
        .collect()
}

/// A row-major matrix repacked into row-interleaved 8-column panels:
/// panel `p` holds each row's `[8p, 8p+8)` slice back to back, the last
/// panel zero-padded to width, so the micro-kernel reads it as one
/// sequential stream. The buffer comes from [`crate::scratch`].
struct Panels {
    buf: Vec<f64>,
    rows: usize,
}

impl Panels {
    fn pack(data: &[f64], cols: usize) -> Panels {
        let rows = data.len() / cols;
        let mut buf = crate::scratch::take_zeroed(cols.div_ceil(TN_JR) * rows * TN_JR);
        for (r, row) in data.chunks_exact(cols).enumerate() {
            for (p, blk) in row.chunks(TN_JR).enumerate() {
                buf[(p * rows + r) * TN_JR..][..blk.len()].copy_from_slice(blk);
            }
        }
        Panels { buf, rows }
    }

    /// Rows `[r0, r0 + depth)` of the panel that starts at column `j0`.
    fn rows(&self, j0: usize, r0: usize, depth: usize) -> &[f64] {
        &self.buf[(j0 / TN_JR * self.rows + r0) * TN_JR..][..depth * TN_JR]
    }

    fn recycle(self) {
        crate::scratch::recycle(self.buf);
    }
}

/// One row of tiles: `apanel` (interleaved, some rows deep) against the
/// same rows — `r0` on — of every panel of `b` from column `j_from`, into
/// output rows `[i0, i0 + h)` of the `width`-wide row-major `out`. Each
/// tile is seeded from `out` and stored back, so `out` accumulates; a tile
/// overhanging the last row or column computes its padding and stores only
/// the `h × w` corner.
fn tile_row(
    apanel: &[f64],
    b: &Panels,
    r0: usize,
    out: &mut [f64],
    width: usize,
    (i0, h): (usize, usize),
    j_from: usize,
) {
    let depth = apanel.len() / TN_IR;
    for j0 in (j_from..width).step_by(TN_JR) {
        let w = (width - j0).min(TN_JR);
        let mut acc = [[0.0; TN_JR]; TN_IR];
        for (t, acc_row) in acc.iter_mut().enumerate().take(h) {
            let src = &out[(i0 + t) * width + j0..][..w];
            // A full-width row is one fixed-size copy; only the last
            // column panel pays for a variable-length one.
            match <&[f64; TN_JR]>::try_from(src) {
                Ok(full) => *acc_row = *full,
                Err(_) => acc_row[..w].copy_from_slice(src),
            }
        }
        let acc = tn_tile(apanel, b.rows(j0, r0, depth), acc);
        for (t, acc_row) in acc.iter().enumerate().take(h) {
            let dst = &mut out[(i0 + t) * width + j0..][..w];
            match <&mut [f64; TN_JR]>::try_from(&mut *dst) {
                Ok(full) => *full = *acc_row,
                Err(_) => dst.copy_from_slice(&acc_row[..w]),
            }
        }
    }
}

// The three drivers below are kept out of line: their callers are also
// the per-task path of fits over thousands of few-row partitions, which
// never take them, and whose code should stay as compact as it was.

/// `out += Y·B` for a full block: `y` is its row-major values and `b` the
/// `n`-wide operand. `B` is packed once; row chunks go on the pool.
#[inline(never)]
fn full_mul_dense(
    pool: &WorkerPool,
    y: &[f64],
    b: &[f64],
    n: usize,
    chunks: usize,
    out: &mut [f64],
) {
    let k = b.len() / n;
    let bpack = Panels::pack(b, n);
    let bpack_ref = &bpack;
    pool.run(
        split_rows_mut(out, &row_ranges(y.len() / k, chunks), n)
            .into_iter()
            .map(|(lo, hi, slice)| move || full_rows_mul(&y[lo * k..hi * k], k, bpack_ref, n, slice))
            .collect(),
    );
    bpack.recycle();
}

/// `out += YᵀX` for a full block: `y` is its row-major values (`cols`
/// wide), `x` the `d`-wide rows of `X` and `out` the `cols × d` result.
/// `X` is packed once; output-row panels go on the pool.
#[inline(never)]
fn full_tn(pool: &WorkerPool, y: &[f64], cols: usize, x: &[f64], d: usize, out: &mut [f64]) {
    let xpack = Panels::pack(x, d);
    let xpack_ref = &xpack;
    let chunks = chunk_count(cols, 2 * x.len());
    pool.run(
        split_rows_mut(out, &panel_ranges(cols, chunks), d)
            .into_iter()
            .map(|(lo, hi, slice)| move || full_tn_band(y, cols, xpack_ref, d, lo, hi, slice))
            .collect(),
    );
    xpack.recycle();
}

/// The upper triangle of `XᵀX` into the zeroed `d × d` `out`, by tiles:
/// `X` is packed once; output-row panels go on the pool.
#[inline(never)]
fn syrk_tn_tiled(pool: &WorkerPool, x: &[f64], d: usize, chunks: usize, out: &mut [f64]) {
    let xpack = Panels::pack(x, d);
    let xpack_ref = &xpack;
    pool.run(
        split_rows_mut(out, &panel_ranges(d, chunks), d)
            .into_iter()
            .map(|(lo, hi, slice)| move || syrk_tn_tiles(xpack_ref, d, lo, hi, slice))
            .collect(),
    );
    xpack.recycle();
}

/// `out += Y·B` for the row-major dense rows `y` (`k` wide) against packed
/// `B` (`n` columns). Eight rows of `Y` at a time are transposed into an
/// interleaved panel, [`TILE_DEPTH`] columns deep, and run against every
/// panel of `B`: each output element adds its `y[i][kk]·b[kk][j]` terms in
/// ascending `kk`, the sparse kernel's axpy order over a full row.
fn full_rows_mul(y: &[f64], k: usize, b: &Panels, n: usize, out: &mut [f64]) {
    let m = out.len() / n;
    let mut ypanel = vec![0.0; k.min(TILE_DEPTH) * TN_IR];
    for k0 in (0..k).step_by(TILE_DEPTH) {
        let depth = (k - k0).min(TILE_DEPTH);
        for i0 in (0..m).step_by(TN_IR) {
            let h = (m - i0).min(TN_IR);
            // Eight sequential row streams in, one contiguous panel row
            // out. Past the last row the lanes repeat it: those tile rows
            // are computed and never stored.
            let rows: [&[f64]; TN_IR] =
                std::array::from_fn(|t| &y[(i0 + t.min(h - 1)) * k + k0..][..depth]);
            for (kk, slot) in ypanel.chunks_exact_mut(TN_IR).take(depth).enumerate() {
                for (lane, row) in slot.iter_mut().zip(&rows) {
                    *lane = row[kk];
                }
            }
            tile_row(&ypanel[..depth * TN_IR], b, k0, out, n, (i0, h), 0);
        }
    }
}

/// Output rows `[lo, hi)` (`lo` on a panel boundary) of the full-block
/// `YᵀX`, `y` being the block's row-major values (`cols` wide) and `x`
/// the packed `X` (`d` columns): each 8-column panel of `Y` is copied
/// into a small interleaved buffer, [`TILE_DEPTH`] rows at a time, and
/// run against every panel of `X`, so output row `c` adds its
/// `y[r][c]·x_r` terms in ascending `r` — the scatter's order.
fn full_tn_band(
    y: &[f64],
    cols: usize,
    x: &Panels,
    d: usize,
    lo: usize,
    hi: usize,
    out: &mut [f64],
) {
    let n = x.rows;
    let mut ypanel = vec![0.0; n.min(TILE_DEPTH) * TN_IR];
    for r0 in (0..n).step_by(TILE_DEPTH) {
        let depth = (n - r0).min(TILE_DEPTH);
        for c0 in (lo..hi).step_by(TN_IR) {
            let h = (hi - c0).min(TN_IR);
            for (rr, slot) in ypanel.chunks_exact_mut(TN_IR).take(depth).enumerate() {
                for (lane, &v) in slot[..h].iter_mut().zip(&y[(r0 + rr) * cols + c0..][..h]) {
                    *lane = v;
                }
                slot[h..].fill(0.0);
            }
            tile_row(&ypanel[..depth * TN_IR], x, r0, out, d, (c0 - lo, h), 0);
        }
    }
}

/// Upper-triangle output rows `[lo, hi)` (`lo` on a panel boundary) of
/// `XᵀX` from packed `X` (`d` columns): the tiles on and right of the
/// diagonal, [`TILE_DEPTH`] rows at a time. A diagonal tile also fills its
/// own lower corner — with the bits the mirror step then writes there
/// again.
fn syrk_tn_tiles(x: &Panels, d: usize, lo: usize, hi: usize, out: &mut [f64]) {
    for r0 in (0..x.rows).step_by(TILE_DEPTH) {
        let depth = (x.rows - r0).min(TILE_DEPTH);
        for i0 in (lo..hi).step_by(TN_IR) {
            let rows = (i0 - lo, (hi - i0).min(TN_IR));
            tile_row(x.rows(i0, r0, depth), x, r0, out, d, rows, i0);
        }
    }
}

// ---------------------------------------------------------------------------
// Seed-naive reference kernels
// ---------------------------------------------------------------------------

/// The seed's original row-axpy / dot-per-element kernels, preserved
/// verbatim (including scalar, non-unrolled inner loops). The equivalence
/// tests pin the blocked kernels to these, and the benchmark harness
/// reports speedups against them.
pub mod naive {
    use crate::dense::Mat;
    use crate::sparse::SparseMat;

    fn scalar_axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    fn scalar_dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// Seed `Mat::matmul`: i-k-j row-axpy loop.
    pub fn matmul(a: &Mat, b: &Mat) -> Mat {
        assert_eq!(a.cols(), b.rows(), "matmul: inner dimensions differ");
        let mut out = Mat::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            let a_row = a.row(i);
            let out_row = out.row_mut(i);
            for (k, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                scalar_axpy(a_ik, b.row(k), out_row);
            }
        }
        out
    }

    /// Seed `Mat::matmul_tn`: sum of row-wise rank-1 updates.
    pub fn matmul_tn(a: &Mat, b: &Mat) -> Mat {
        assert_eq!(a.rows(), b.rows(), "matmul_tn: row counts differ");
        let mut out = Mat::zeros(a.cols(), b.cols());
        for r in 0..a.rows() {
            let a_row = a.row(r);
            let b_row = b.row(r);
            for (i, &a_ri) in a_row.iter().enumerate() {
                if a_ri == 0.0 {
                    continue;
                }
                scalar_axpy(a_ri, b_row, out.row_mut(i));
            }
        }
        out
    }

    /// Seed `Mat::matmul_nt`: dot product per output element.
    pub fn matmul_nt(a: &Mat, b: &Mat) -> Mat {
        assert_eq!(a.cols(), b.cols(), "matmul_nt: column counts differ");
        let mut out = Mat::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            let a_row = a.row(i);
            for j in 0..b.rows() {
                out[(i, j)] = scalar_dot(a_row, b.row(j));
            }
        }
        out
    }

    /// Seed `Mat::matvec`: dot product per row.
    pub fn matvec(a: &Mat, x: &[f64]) -> Vec<f64> {
        assert_eq!(a.cols(), x.len(), "matvec: dimension mismatch");
        (0..a.rows()).map(|i| scalar_dot(a.row(i), x)).collect()
    }

    /// Seed `SparseMat::mul_dense`: axpy per non-zero.
    pub fn sparse_mul_dense(y: &SparseMat, b: &Mat) -> Mat {
        assert_eq!(y.cols(), b.rows(), "mul_dense: inner dimensions differ");
        let mut out = Mat::zeros(y.rows(), b.cols());
        for r in 0..y.rows() {
            let row = y.row(r);
            let out_row = out.row_mut(r);
            for (&c, &v) in row.indices.iter().zip(row.values) {
                scalar_axpy(v, b.row(c as usize), out_row);
            }
        }
        out
    }

    /// Seed `Mat::transpose`: element-wise, column-strided writes.
    pub fn transpose(a: &Mat) -> Mat {
        let mut t = Mat::zeros(a.cols(), a.rows());
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                t[(j, i)] = a[(i, j)];
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;

    #[test]
    fn chunking_is_a_function_of_shape_only() {
        assert_eq!(chunk_count(10, 10), 1, "tiny products stay sequential");
        let big = chunk_count(100_000, 2_000);
        assert!(big > 1 && big <= MAX_CHUNKS);
        let ranges = row_ranges(10, 3);
        assert_eq!(ranges, vec![(0, 4), (4, 7), (7, 10)]);
    }

    #[test]
    fn register_tile_paths_are_bitwise_the_scalar_chain() {
        // Both compiled forms of the micro-kernel against the sum written
        // out term by term, from a non-zero seed: on an AVX-512 host the
        // dispatcher never reaches the portable one.
        let mut rng = Prng::seed_from_u64(16);
        for depth in [0usize, 1, 5, 300] {
            let apanel = rng.normal_vec(depth * TN_IR);
            let bpanel = rng.normal_vec(depth * TN_JR);
            let mut seed = [[0.0f64; TN_JR]; TN_IR];
            seed.iter_mut().flatten().for_each(|v| *v = rng.normal());
            let mut want = seed;
            for rr in 0..depth {
                for t in 0..TN_IR {
                    for u in 0..TN_JR {
                        want[t][u] += apanel[rr * TN_IR + t] * bpanel[rr * TN_JR + u];
                    }
                }
            }
            let bits = |tile: [[f64; TN_JR]; TN_IR]| tile.map(|row| row.map(f64::to_bits));
            assert_eq!(bits(tn_tile_portable(&apanel, &bpanel, seed)), bits(want), "depth {depth}");
            assert_eq!(bits(tn_tile(&apanel, &bpanel, seed)), bits(want), "dispatched, depth {depth}");
        }
    }

    #[test]
    fn large_matmul_tn_matches_naive() {
        let mut rng = Prng::seed_from_u64(42);
        // Big enough to cross the parallel threshold and exercise chunked
        // reduction.
        let a = rng.normal_mat(700, 60);
        let b = rng.normal_mat(700, 40);
        let fast = matmul_tn(&a, &b);
        let reference = naive::matmul_tn(&a, &b);
        assert!(fast.approx_eq(&reference, 1e-12));
    }

    #[test]
    fn syrk_tn_is_bitwise_naive_gram_on_any_pool() {
        let mut rng = Prng::seed_from_u64(11);
        for &(n, d) in &[(1usize, 1usize), (37, 5), (900, 48)] {
            let x = rng.normal_mat(n, d);
            let reference = naive::matmul_tn(&x, &x);
            let serial = WorkerPool::new(1);
            let wide = WorkerPool::new(7);
            for pool in [&serial, &wide, WorkerPool::global()] {
                let got = syrk_tn_with_pool(pool, &x);
                assert_eq!(got.max_abs_diff(&reference), 0.0, "syrk {n}x{d} reassociated");
            }
        }
    }

    #[test]
    fn spmm_tn_is_bitwise_naive_on_any_pool() {
        let mut rng = Prng::seed_from_u64(12);
        for &(n, dd, d) in &[(40usize, 9usize, 3usize), (600, 800, 24)] {
            let mut triplets = Vec::new();
            for _ in 0..(n * dd / 20).max(4) {
                triplets.push((rng.index(n), rng.index(dd) as u32, rng.normal()));
            }
            let y = SparseMat::from_triplets(n, dd, &triplets);
            let x = rng.normal_mat(n, d);
            // naive::matmul_tn on the densified Y accumulates each output
            // element in ascending input-row order, skipping zero entries —
            // the identical op sequence, so equality is exact.
            let reference = naive::matmul_tn(&y.to_dense(), &x);
            let serial = WorkerPool::new(1);
            let wide = WorkerPool::new(5);
            for pool in [&serial, &wide, WorkerPool::global()] {
                let got = spmm_tn_with_pool(pool, &y, &x);
                assert_eq!(got.max_abs_diff(&reference), 0.0, "spmm {n}x{dd}x{d} reassociated");
            }
        }
    }

    #[test]
    fn spmm_tn_packed_matches_full_scatter() {
        let mut rng = Prng::seed_from_u64(13);
        let (n, dd, d) = (120usize, 300usize, 8usize);
        let mut triplets = Vec::new();
        for _ in 0..700 {
            triplets.push((rng.index(n), rng.index(dd) as u32, rng.normal()));
        }
        let y = SparseMat::from_triplets(n, dd, &triplets);
        let x = rng.normal_mat(n, d);
        let full = spmm_tn(&y, &x);
        // Column-support map: touched columns get consecutive slab rows.
        let mut map = vec![u32::MAX; dd];
        let mut support = Vec::new();
        for &c in y.col_indices() {
            if map[c as usize] == u32::MAX {
                map[c as usize] = 0;
            }
        }
        for (c, slot) in map.iter_mut().enumerate() {
            if *slot == 0 {
                *slot = support.len() as u32;
                support.push(c as u32);
            }
        }
        let mut slab = vec![0.0; support.len() * d];
        spmm_tn_packed(&y, &x, &map, &mut slab);
        for (i, &c) in support.iter().enumerate() {
            assert_eq!(&slab[i * d..(i + 1) * d], full.row(c as usize), "packed row {c}");
        }
        // Untouched columns of the full product stay zero.
        for c in 0..dd {
            if map[c] == u32::MAX {
                assert!(full.row(c).iter().all(|&v| v == 0.0));
            }
        }
    }

    #[test]
    fn nnz_ranges_balance_skewed_rows() {
        // Row 0 holds almost all the non-zeros; an equal-row split would
        // put ~all work in chunk 0.
        let mut entries = vec![Vec::new(); 100];
        entries[0] = (0..900u32).map(|c| (c, 1.0)).collect();
        for (r, row) in entries.iter_mut().enumerate().skip(1) {
            row.push((r as u32, 1.0));
        }
        let y = SparseMat::from_rows(100, 1000, entries);
        let ranges = nnz_ranges(&y, 4);
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0].0, 0);
        assert_eq!(ranges[3].1, 100);
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0, "ranges tile the rows");
        }
        // The hot row is alone in its chunk: everything else spreads out.
        assert_eq!(ranges[0], (0, 1), "hot row isolated: {ranges:?}");
        // Uniform matrices still split near-equally by rows.
        let uniform = SparseMat::from_rows(
            12,
            4,
            (0..12).map(|_| vec![(0u32, 1.0), (2, 1.0)]).collect(),
        );
        assert_eq!(nnz_ranges(&uniform, 3), vec![(0, 4), (4, 8), (8, 12)]);
    }

    #[test]
    fn sparse_mul_dense_is_bitwise_naive_on_any_pool() {
        // Skewed sparsity exercises the nnz-balanced split; every output
        // row is computed by one task in scan order, so all pools (and
        // the naive reference) agree bitwise.
        let mut rng = Prng::seed_from_u64(15);
        let (n, dd, d) = (600usize, 500usize, 24usize);
        let mut entries: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for (r, row) in entries.iter_mut().enumerate() {
            // Power-law-ish: early rows are much denser.
            let nnz = (400 / (r + 1)).max(2);
            let mut cols: Vec<u32> = (0..nnz).map(|_| rng.index(dd) as u32).collect();
            cols.sort_unstable();
            cols.dedup();
            *row = cols.into_iter().map(|c| (c, rng.normal())).collect();
        }
        let y = SparseMat::from_rows(n, dd, entries);
        let b = rng.normal_mat(dd, d);
        let reference = naive::sparse_mul_dense(&y, &b);
        let serial = WorkerPool::new(1);
        let two = WorkerPool::new(2);
        let wide = WorkerPool::new(8);
        for pool in [&serial, &two, &wide, WorkerPool::global()] {
            let got = sparse_mul_dense_with_pool(pool, &y, &b);
            assert_eq!(got.max_abs_diff(&reference), 0.0, "sparse_mul_dense reassociated");
        }
    }

    #[test]
    fn sparse_mul_dense_into_reuses_buffer_exactly() {
        let mut rng = Prng::seed_from_u64(14);
        let (n, dd, d) = (50usize, 40usize, 6usize);
        let mut triplets = Vec::new();
        for _ in 0..200 {
            triplets.push((rng.index(n), rng.index(dd) as u32, rng.normal()));
        }
        let y = SparseMat::from_triplets(n, dd, &triplets);
        let b = rng.normal_mat(dd, d);
        let fresh = sparse_mul_dense(&y, &b);
        let mut buf = vec![7.0; n * d]; // stale garbage the caller must clear
        buf.clear();
        buf.resize(n * d, 0.0);
        sparse_mul_dense_into(&y, &b, &mut buf);
        assert_eq!(buf, fresh.data());
    }

    #[test]
    fn remainder_rows_are_handled() {
        // 5 rows: one group of 4 plus a remainder row; 3 cols: nt remainder.
        let mut rng = Prng::seed_from_u64(7);
        let a = rng.normal_mat(5, 3);
        let b = rng.normal_mat(3, 5);
        assert!(matmul(&a, &b).approx_eq(&naive::matmul(&a, &b), 1e-13));
        let c = rng.normal_mat(5, 3);
        assert!(matmul_nt(&a, &c).approx_eq(&naive::matmul_nt(&a, &c), 1e-13));
    }
}
