//! EM hot-path benchmark: row-at-a-time vs batched per-partition YtX fold.
//!
//! Times one sPCA EM iteration's dominant job (the consolidated
//! `YtX`/`Σx` pass; `XtX` is driver algebra over its result) at the
//! paper's sparse shapes, comparing the row-at-a-time ablation arm
//! (`RowwisePartial::add_row` per sparse row, HashMap accumulator) against
//! the batched kernels (`YtxPartial::add_block`: blocked sparse GEMM +
//! packed-slab gather). Both arms fan partitions out on the same worker pool; the
//! batched arm then reduces as `fit_spark` does, with the fused column
//! merge (`YtxPartial::tree_merged`), and the row-at-a-time arm with its
//! HashMap merge under `tree_merge`. A `merge` section times the fused
//! merge against the pairwise `tree_merge(.., YtxPartial::merge)` rounds it
//! replaced, on the same partials, and asserts the two agree bit for bit.
//! A `gather` section times `add_block` over cached partition blocks
//! (`PartitionBlock`: CSR plus column-major copy, built before the timed
//! region) against the per-task path they replaced — the CSR block rebuilt
//! from per-row records, a D-wide column table, the latent block and the
//! bucketed `spmm_tn_packed` scatter — and asserts the two bit-equal.
//!
//! No external harness — each arm is timed with `Instant`, best of several
//! repetitions, results written as hand-rolled JSON (validated with the
//! in-tree RFC 8259 recognizer before the write).
//!
//! Usage:
//!   bench_em                  # full shape (100k x 10k, 1e-3), writes BENCH_em.json
//!   bench_em --smoke          # small shape, quick CI sanity run
//!   bench_em --out FILE.json  # override the output path
//!   bench_em --trace T.json   # also write a Chrome trace_event file

use std::time::Instant;

use linalg::kernels;
use linalg::sparse::{PartitionBlock, SparseRow};
use linalg::{Mat, Prng, SparseMat, WorkerPool};
use sparkle::tree_merge;
use spca_core::mean_prop::{rowwise::RowwisePartial, YtxPartial};
use spca_core::spark::{to_rows, SpRow};

/// Timed repetitions of each side of the `merge` section.
const MERGE_REPS: usize = 10;

/// Floors on `merge.speedup` in release builds: (smoke, full). A 2-core
/// x86-64 host reads 0.8–1.1x at the smoke shape, where eight partials
/// leave three pairwise rounds that write about as many rows as the fused
/// pass adds, and 2.1–3.0x at the full shape (2.9x on one worker).
const MERGE_FLOORS: (f64, f64) = (0.5, 1.5);

/// Timed repetitions of each side of the `gather` section.
const GATHER_REPS: usize = 10;

/// Floors on `gather.speedup` in release builds: (smoke, full). A 2-core
/// x86-64 host reads 0.84–1.0x at the smoke shape, where a support column
/// holds under two entries of eight values and the gather's per-column
/// step costs what the scatter's bucket pass saved, and 1.04–1.19x at the
/// full shape (d = 32; ~1.2x at the benchmark's d = 50).
const GATHER_FLOORS: (f64, f64) = (0.6, 0.95);

/// Times one call of `f`.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let v = f();
    (start.elapsed().as_secs_f64(), v)
}

fn random_sparse(rng: &mut Prng, rows: usize, cols: usize, density: f64) -> SparseMat {
    let target = ((rows * cols) as f64 * density) as usize;
    let mut triplets = Vec::with_capacity(target);
    for _ in 0..target {
        triplets.push((rng.index(rows), rng.index(cols) as u32, rng.normal()));
    }
    SparseMat::from_triplets(rows, cols, &triplets)
}

/// Row-at-a-time arm: every partition folds its rows one by one into a
/// HashMap-keyed partial (the pre-batching implementation, kept as the
/// ablation reference).
fn run_rowwise(
    pool: &WorkerPool,
    blocks: &[SparseMat],
    cm: &Mat,
    xm: &[f64],
) -> RowwisePartial {
    let d = cm.cols();
    let partials = pool.run(
        blocks
            .iter()
            .map(|b| {
                move || {
                    let mut p = RowwisePartial::new(d);
                    for r in 0..b.rows() {
                        p.add_row(b.row(r), cm, xm);
                    }
                    p
                }
            })
            .collect(),
    );
    tree_merge(partials, || RowwisePartial::new(d), |a, b| a.merge(b))
}

/// Every partition through the blocked kernels in one `add_block` call
/// (sparse GEMM into reused scratch, packed-slab `YᵀX`); nested kernel
/// batches ride the same pool.
fn batched_partials(pool: &WorkerPool, blocks: &[SparseMat], cm: &Mat, xm: &[f64]) -> Vec<YtxPartial> {
    let d = cm.cols();
    pool.run(
        blocks
            .iter()
            .map(|b| {
                move || {
                    let mut p = YtxPartial::new(d);
                    p.add_block_with_pool(pool, b, cm, xm);
                    p
                }
            })
            .collect(),
    )
}

/// Batched arm: the batched fold, merged with the fused merge, as the
/// Spark engine does.
fn run_batched(pool: &WorkerPool, blocks: &[SparseMat], cm: &Mat, xm: &[f64]) -> YtxPartial {
    let partials = batched_partials(pool, blocks, cm, xm);
    YtxPartial::tree_merged(pool, cm.cols(), partials)
}

/// Every bit of a merged partial's slab and `Σx` (`PartialEq` on `f64`
/// equates `-0.0` and `0.0`).
fn merged_bits(p: &YtxPartial) -> Vec<u64> {
    let rows = p.ytx_iter().flat_map(|(c, row)| std::iter::once(c as f64).chain(row.to_vec()));
    rows.chain(p.sum_x.iter().copied()).map(f64::to_bits).collect()
}

/// Runs `f` as a stage task runs: on a pool thread, where the kernels'
/// nested batches run inline.
fn as_task<T: Send>(pool: &WorkerPool, f: impl FnOnce() -> T + Send) -> T {
    let tasks = [Some(f), None].into_iter().map(|f| move || f.map(|f| f())).collect();
    pool.run(tasks).into_iter().flatten().next().expect("the task ran")
}

/// One partition's `YtXJob` task as the Spark engine ran it before blocks
/// were cached, in [`merged_bits`] layout: the CSR block rebuilt from the
/// partition's row records, the column-support table built over all `D`
/// columns, `X = Y·CM − 1⊗Xm`, the bucketed scatter into the packed slab,
/// and `Σx`.
fn per_task_bits(pool: &WorkerPool, rows: &[SpRow], d_in: usize, cm: &Mat, xm: &[f64]) -> Vec<u64> {
    let views: Vec<SparseRow> = rows.iter().map(SpRow::view).collect();
    let block = SparseMat::from_row_views(d_in, &views);
    let mut map = vec![u32::MAX; d_in];
    for &c in block.col_indices() {
        map[c as usize] = 0;
    }
    let mut cols: Vec<u32> = Vec::new();
    for (c, slot) in map.iter_mut().enumerate() {
        if *slot == 0 {
            *slot = cols.len() as u32;
            cols.push(c as u32);
        }
    }
    let d = cm.cols();
    let mut x = Mat::zeros(block.rows(), d);
    kernels::sparse_mul_dense_into_with_pool(pool, &block, cm, x.data_mut());
    for r in 0..x.rows() {
        linalg::vector::axpy(-1.0, xm, x.row_mut(r));
    }
    let mut slab = vec![0.0; cols.len() * d];
    kernels::spmm_tn_packed_with_pool(pool, &block, &x, &map, &mut slab);
    let mut sum_x = vec![0.0; d];
    for r in 0..x.rows() {
        linalg::vector::axpy(1.0, x.row(r), &mut sum_x);
    }
    let packed = cols.iter().zip(slab.chunks_exact(d.max(1)));
    let rows = packed.flat_map(|(&c, row)| std::iter::once(c as f64).chain(row.to_vec()));
    rows.chain(sum_x).map(f64::to_bits).collect()
}

fn main() {
    let (trace, smoke, out_path) = spca_bench::cli::bench_args(
        "bench_em",
        "EM hot-path benchmark: row-at-a-time vs batched per-partition YtX fold",
        "Small shape (quick CI sanity run)",
        &[("--partitions N", "Partition count override")],
    );

    // The paper's regime: tall sparse Y (N ≫ D ≫ d), ~0.1% dense.
    let (n, d_in, density, d, default_parts, reps) = if smoke {
        (2_000, 500, 5e-3, 8, 8, 2)
    } else {
        (100_000, 10_000, 1e-3, 32, 32, 5)
    };
    let partitions: usize = trace.args.value("--partitions").map_or(default_parts, |v| {
        v.parse().expect("--partitions takes a positive integer")
    });

    let mut rng = Prng::seed_from_u64(2015);
    let y = random_sparse(&mut rng, n, d_in, density);
    let cm = rng.normal_mat(d_in, d);
    let xm = rng.normal_vec(d);
    let mean = y.col_means();
    let blocks = y.split_rows(partitions);
    let pool = WorkerPool::global();

    println!(
        "Y: {n}x{d_in} ({} nnz, {:.2e} dense), d={d}, {partitions} partitions, {} pool workers",
        y.nnz(),
        y.nnz() as f64 / (n as f64 * d_in as f64),
        pool.workers()
    );

    // Interleave the arms rep by rep (both sample the same machine-noise
    // environment) and keep the best of each — the usual noise filter for
    // single-machine microbenchmarks.
    let (mut rowwise_secs, mut batched_secs) = (f64::INFINITY, f64::INFINITY);
    let (mut rowwise, mut batched) = (None, None);
    for _ in 0..reps {
        let (t, r) = timed(|| run_rowwise(pool, &blocks, &cm, &xm));
        if t < rowwise_secs {
            rowwise_secs = t;
        }
        rowwise = Some(r);
        let (t, b) = timed(|| run_batched(pool, &blocks, &cm, &xm));
        if t < batched_secs {
            batched_secs = t;
        }
        batched = Some(b);
    }
    let (rowwise, batched) = (rowwise.expect("reps >= 1"), batched.expect("reps >= 1"));
    let speedup = rowwise_secs / batched_secs.max(1e-12);

    // Correctness: the batched fold must match the row-at-a-time reference
    // on the finalized YtX (slab and Σx) and on Σx alone.
    let rw_ytx = rowwise.finalize_ytx(&mean);
    let bt_ytx = batched.finalize_ytx(&mean);
    let sum_x_diff =
        |a: &[f64], b: &[f64]| a.iter().zip(b).fold(0.0f64, |m, (x, y)| m.max((x - y).abs()));
    let scale =
        rw_ytx.data().iter().chain(&rowwise.sum_x).fold(0.0f64, |m, v| m.max(v.abs())).max(1.0);
    let max_rel_diff =
        bt_ytx.max_abs_diff(&rw_ytx).max(sum_x_diff(&batched.sum_x, &rowwise.sum_x)) / scale;
    assert!(
        max_rel_diff <= 1e-10,
        "batched fold diverged from the row-at-a-time reference ({max_rel_diff:.3e})"
    );

    // Determinism: the batched result must be bitwise identical on any
    // pool size (chunking is a function of the problem shape only).
    let bitwise_deterministic = [1usize, 2].iter().all(|&w| {
        let small = WorkerPool::new(w);
        merged_bits(&run_batched(&small, &blocks, &cm, &xm))
            == merged_bits(&batched)
    });
    assert!(bitwise_deterministic, "batched fold is not worker-count deterministic");

    println!(
        "rowwise {rowwise_secs:>9.4}s  batched {batched_secs:>9.4}s  speedup {speedup:.2}x  \
         maxreldiff {max_rel_diff:.2e}  deterministic {bitwise_deterministic}"
    );

    // merge: the driver's reduction of the batched partials, pairwise
    // `tree_merge` rounds against the fused column pass, alternated rep by
    // rep on copies of the same partials (the copies are not timed).
    let partials = batched_partials(pool, &blocks, &cm, &xm);
    let (mut pairwise_secs, mut fused_secs) = (f64::INFINITY, f64::INFINITY);
    let mut merge_bitwise_equal = true;
    for _ in 0..MERGE_REPS {
        let (a, b) = (partials.clone(), partials.clone());
        let (t, pairwise) = timed(|| tree_merge(a, || YtxPartial::new(d), YtxPartial::merge));
        pairwise_secs = pairwise_secs.min(t);
        let (t, fused) = timed(|| YtxPartial::tree_merged(pool, d, b));
        fused_secs = fused_secs.min(t);
        merge_bitwise_equal &= merged_bits(&pairwise) == merged_bits(&fused);
    }
    assert!(merge_bitwise_equal, "fused merge diverged from the pairwise rounds");
    let merge_speedup = pairwise_secs / fused_secs.max(1e-12);
    println!(
        "merge: pairwise {pairwise_secs:>9.5}s  fused {fused_secs:>9.5}s  \
         speedup {merge_speedup:.2}x"
    );
    let merge_json = format!(
        ",\n  \"merge\": {{\"pairwise\": {{\"secs\": {pairwise_secs:.6e}}}, \"fused\": {{\"secs\": {fused_secs:.6e}}}, \"speedup\": {merge_speedup:.3}, \"bitwise_equal\": {merge_bitwise_equal}}}"
    );

    // gather: every partition's `YtXJob` task over its cached block
    // against the per-task path it replaced, alternated rep by rep, both
    // sides over the same partitions one after another on one pool thread,
    // as stage tasks run (the cached blocks and per-row records are built
    // outside the timed region).
    let cached: Vec<PartitionBlock> = blocks.iter().cloned().map(PartitionBlock::new).collect();
    let records: Vec<Vec<SpRow>> = blocks.iter().map(to_rows).collect();
    let (mut per_task_secs, mut cached_secs) = (f64::INFINITY, f64::INFINITY);
    let mut gather_bitwise_equal = true;
    for _ in 0..GATHER_REPS {
        let (t, old) = as_task(pool, || {
            let fold = |rows: &Vec<SpRow>| per_task_bits(pool, rows, d_in, &cm, &xm);
            timed(|| records.iter().map(fold).collect::<Vec<_>>())
        });
        per_task_secs = per_task_secs.min(t);
        let (t, new) = as_task(pool, || {
            let fold = |b| {
                let mut p = YtxPartial::new(d);
                p.add_block_with_pool(pool, b, &cm, &xm);
                merged_bits(&p)
            };
            timed(|| cached.iter().map(fold).collect::<Vec<_>>())
        });
        cached_secs = cached_secs.min(t);
        gather_bitwise_equal &= old == new;
    }
    assert!(gather_bitwise_equal, "cached-block add_block diverged from the per-task path");
    let gather_speedup = per_task_secs / cached_secs.max(1e-12);
    println!(
        "gather: per-task {per_task_secs:>9.5}s  cached {cached_secs:>9.5}s  \
         speedup {gather_speedup:.2}x"
    );
    let gather_json = format!(
        ",\n  \"gather\": {{\"per_task\": {{\"secs\": {per_task_secs:.6e}}}, \"cached\": {{\"secs\": {cached_secs:.6e}}}, \"speedup\": {gather_speedup:.3}, \"bitwise_equal\": {gather_bitwise_equal}}}"
    );

    let json = format!(
        "{{\n  \"mode\": \"{}\",\n  \"pool_workers\": {},\n  \"shape\": {{\"rows\": {n}, \"cols\": {d_in}, \"density\": {density}, \"nnz\": {}, \"d\": {d}, \"partitions\": {partitions}}},\n  \"reps\": {reps},\n  \"rowwise_secs\": {rowwise_secs:.6e},\n  \"batched_secs\": {batched_secs:.6e},\n  \"speedup\": {speedup:.3},\n  \"max_rel_diff\": {max_rel_diff:.3e},\n  \"bitwise_deterministic\": {bitwise_deterministic}{merge_json}{gather_json}\n}}\n",
        if smoke { "smoke" } else { "full" },
        pool.workers(),
        y.nnz(),
    );
    obs::json::validate(&json).expect("benchmark JSON must be valid");
    std::fs::write(&out_path, &json).expect("write benchmark output");
    println!("wrote {out_path}");

    if !smoke {
        // The acceptance bar for the batched path at the paper's shape.
        assert!(speedup >= 2.0, "batched path below the 2x bar ({speedup:.2}x)");
    }
    let merge_floor = if smoke { MERGE_FLOORS.0 } else { MERGE_FLOORS.1 };
    let gather_floor = if smoke { GATHER_FLOORS.0 } else { GATHER_FLOORS.1 };
    if !cfg!(debug_assertions) {
        assert!(
            merge_speedup >= merge_floor,
            "fused merge below its {merge_floor}x floor over pairwise rounds ({merge_speedup:.2}x)"
        );
        assert!(
            gather_speedup >= gather_floor,
            "cached-block add_block below its {gather_floor}x floor over the per-task path \
             ({gather_speedup:.2}x)"
        );
    }
}
