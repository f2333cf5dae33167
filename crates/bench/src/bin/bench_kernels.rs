//! Self-contained kernel benchmark: seed-naive vs blocked vs
//! blocked+threaded at the paper's sPCA shapes, plus the randomized
//! driver's per-pass factorisation (Jacobi + Householder vs Gram-based) and
//! the EM driver's right-division and sampled error (lane-blocked / tiled
//! vs the column-by-column / row-at-a-time loops they replaced).
//!
//! No external harness — each variant is timed with `Instant`, best of
//! several repetitions, and the results are written as hand-rolled JSON.
//!
//! Usage:
//!   bench_kernels                  # full shapes, writes BENCH_kernels.json
//!   bench_kernels --smoke          # small shapes, quick CI sanity run
//!   bench_kernels --out FILE.json  # override the output path
//!   bench_kernels --trace T.json   # also write a Chrome trace_event file

use std::time::Instant;

use linalg::decomp::cholesky::{solve_spd_right, Cholesky};
use linalg::decomp::{qr_thin, singular_basis, svd_jacobi};
use linalg::kernels::{self, naive};
use linalg::{Mat, Prng, SparseMat, WorkerPool};
use spca_core::accuracy::reconstruction_error;
use spca_core::PcaModel;

/// Times `f` best-of-`reps` (minimum wall time, the usual noise filter for
/// single-machine microbenchmarks).
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let start = Instant::now();
        let v = f();
        let secs = start.elapsed().as_secs_f64();
        if secs < best {
            best = secs;
        }
        out = Some(v);
    }
    (best, out.expect("reps >= 1"))
}

/// [`best_of`] for two variants of one computation, alternated rep by rep
/// so a drift in machine speed lands on both — what an in-run ratio needs.
fn best_of_pair<A, B>(
    reps: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> ((f64, A), (f64, B)) {
    let mut best = (best_of(1, &mut a), best_of(1, &mut b));
    for _ in 1..reps {
        let (next_a, next_b) = (best_of(1, &mut a), best_of(1, &mut b));
        best.0 = (best.0 .0.min(next_a.0), next_a.1);
        best.1 = (best.1 .0.min(next_b.0), next_b.1);
    }
    best
}

struct KernelResult {
    kernel: &'static str,
    shape: String,
    naive_secs: f64,
    blocked_secs: f64,
    threaded_secs: f64,
    max_abs_diff: f64,
}

impl KernelResult {
    fn speedup_blocked(&self) -> f64 {
        self.naive_secs / self.blocked_secs.max(1e-12)
    }
    fn speedup_threaded(&self) -> f64 {
        self.naive_secs / self.threaded_secs.max(1e-12)
    }
}

fn random_sparse(rng: &mut Prng, rows: usize, cols: usize, density: f64) -> SparseMat {
    let target = ((rows * cols) as f64 * density) as usize;
    let mut triplets = Vec::with_capacity(target);
    for _ in 0..target {
        triplets.push((rng.index(rows), rng.index(cols) as u32, rng.normal()));
    }
    SparseMat::from_triplets(rows, cols, &triplets)
}

/// The sampled error one row at a time — the loop `reconstruction_error`
/// replaced, rebuilt here from public pieces like [`naive`]'s kernels: the
/// dense `ŷ` of each row, then the correction at the row's non-zeros.
fn rowwise_error(sample: &SparseMat, model: &PcaModel) -> f64 {
    let x = model.transform_sparse(sample).expect("model is well-conditioned");
    let (c, mean) = (model.components(), model.mean());
    let (mut err_sum, mut norm_sum) = (0.0, 0.0);
    let mut recon = vec![0.0; model.input_dim()];
    for r in 0..sample.rows() {
        for (j, slot) in recon.iter_mut().enumerate() {
            *slot = linalg::vector::dot(x.row(r), c.row(j)) + mean[j];
        }
        let mut row_err: f64 = recon.iter().map(|v| v.abs()).sum();
        for (cidx, v) in sample.row(r).iter() {
            row_err += (v - recon[cidx]).abs() - recon[cidx].abs();
        }
        err_sum += row_err;
        norm_sum += linalg::vector::norm1(sample.row(r).values);
    }
    err_sum / norm_sum
}

fn main() {
    let (_trace, smoke, out_path) = spca_bench::cli::bench_args(
        "bench_kernels",
        "Kernel microbenchmark: seed-naive vs blocked vs blocked+threaded",
        "Small shapes (quick CI sanity run)",
        &[],
    );

    // sPCA's dominant shapes (paper Section 5): the N×d latent pass feeding
    // the YtX/XtX reduction, and the sparse Y·CM recompute.
    let (n_rows, d_cols, d_small, reps) = if smoke { (512, 128, 16, 3) } else { (8192, 1000, 32, 5) };

    let serial = WorkerPool::new(1);
    let global = WorkerPool::global();

    let mut rng = Prng::seed_from_u64(2015);
    let mut results: Vec<KernelResult> = Vec::new();

    // matmul_tn: YtX-shaped reduction, A (N×D)ᵀ · X (N×d).
    {
        let a = rng.normal_mat(n_rows, d_cols);
        let b = rng.normal_mat(n_rows, d_small);
        let (t_naive, reference) = best_of(reps, || naive::matmul_tn(&a, &b));
        let (t_blocked, blocked) = best_of(reps, || kernels::matmul_tn_with_pool(&serial, &a, &b));
        let (t_threaded, threaded) = best_of(reps, || kernels::matmul_tn_with_pool(global, &a, &b));
        results.push(KernelResult {
            kernel: "matmul_tn",
            shape: format!("({n_rows}x{d_cols})^T * ({n_rows}x{d_small})"),
            naive_secs: t_naive,
            blocked_secs: t_blocked,
            threaded_secs: t_threaded,
            max_abs_diff: blocked.max_abs_diff(&reference).max(threaded.max_abs_diff(&reference)),
        });
    }

    // sparse_mul_dense: the Y·CM recompute, ~1% dense.
    {
        let y = random_sparse(&mut rng, n_rows, d_cols, 0.01);
        let c = rng.normal_mat(d_cols, d_small);
        let (t_naive, reference) = best_of(reps, || naive::sparse_mul_dense(&y, &c));
        let (t_blocked, blocked) =
            best_of(reps, || kernels::sparse_mul_dense_with_pool(&serial, &y, &c));
        let (t_threaded, threaded) =
            best_of(reps, || kernels::sparse_mul_dense_with_pool(global, &y, &c));
        results.push(KernelResult {
            kernel: "sparse_mul_dense",
            shape: format!("sparse({n_rows}x{d_cols}, 1%) * ({d_cols}x{d_small})"),
            naive_secs: t_naive,
            blocked_secs: t_blocked,
            threaded_secs: t_threaded,
            max_abs_diff: blocked.max_abs_diff(&reference).max(threaded.max_abs_diff(&reference)),
        });
    }

    // matmul: driver-side C·M⁻¹-shaped product scaled up, (N×d)·(d×D).
    {
        let a = rng.normal_mat(n_rows / 4, d_small);
        let b = rng.normal_mat(d_small, d_cols);
        let (t_naive, reference) = best_of(reps, || naive::matmul(&a, &b));
        let (t_blocked, blocked) = best_of(reps, || kernels::matmul_with_pool(&serial, &a, &b));
        let (t_threaded, threaded) = best_of(reps, || kernels::matmul_with_pool(global, &a, &b));
        results.push(KernelResult {
            kernel: "matmul",
            shape: format!("({}x{d_small}) * ({d_small}x{d_cols})", n_rows / 4),
            naive_secs: t_naive,
            blocked_secs: t_blocked,
            threaded_secs: t_threaded,
            max_abs_diff: blocked.max_abs_diff(&reference).max(threaded.max_abs_diff(&reference)),
        });
    }

    // matmul_nt: Gram-shaped product, (m×k)·(n×k)ᵀ.
    {
        let m = n_rows / 8;
        let a = rng.normal_mat(m, d_cols);
        let b = rng.normal_mat(m, d_cols);
        let (t_naive, reference) = best_of(reps, || naive::matmul_nt(&a, &b));
        let (t_blocked, blocked) = best_of(reps, || kernels::matmul_nt_with_pool(&serial, &a, &b));
        let (t_threaded, threaded) = best_of(reps, || kernels::matmul_nt_with_pool(global, &a, &b));
        results.push(KernelResult {
            kernel: "matmul_nt",
            shape: format!("({m}x{d_cols}) * ({m}x{d_cols})^T"),
            naive_secs: t_naive,
            blocked_secs: t_blocked,
            threaded_secs: t_threaded,
            max_abs_diff: blocked.max_abs_diff(&reference).max(threaded.max_abs_diff(&reference)),
        });
    }

    // matvec: (N×D)·x.
    {
        let a = rng.normal_mat(n_rows, d_cols);
        let x = rng.normal_vec(d_cols);
        let diff = |u: &[f64], v: &[f64]| {
            u.iter().zip(v).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max)
        };
        let (t_naive, reference) = best_of(reps, || naive::matvec(&a, &x));
        let (t_blocked, blocked) = best_of(reps, || kernels::matvec_with_pool(&serial, &a, &x));
        let (t_threaded, threaded) = best_of(reps, || kernels::matvec_with_pool(global, &a, &x));
        results.push(KernelResult {
            kernel: "matvec",
            shape: format!("({n_rows}x{d_cols}) * x"),
            naive_secs: t_naive,
            blocked_secs: t_blocked,
            threaded_secs: t_threaded,
            max_abs_diff: diff(&blocked, &reference).max(diff(&threaded, &reference)),
        });
    }

    // driver_decomp: the randomized driver's per-pass work on its D×K sketch,
    // Jacobi SVD plus Householder QR (through PR 12) against the one Gram-based
    // factorisation, at `rpca_spark_sparse`'s sketch shape and cond(Z) ≈ 30.
    let (m, k) = if smoke { (2_000, 24) } else { (10_000, 60) };
    let g = rng.normal_mat(m, k);
    let z = Mat::from_fn(m, k, |i, j| g[(i, j)] * 30f64.powf(-(j as f64) / (k - 1) as f64));
    let (jacobi_qr_secs, (oracle, _)) =
        best_of(reps, || (svd_jacobi(&z).expect("jacobi converges"), qr_thin(&z).q));
    let (gram_secs, (basis, sigma, _)) =
        best_of(reps, || singular_basis(&z, k).expect("well-conditioned sketch"));
    let mut gram = basis.matmul_tn(&basis);
    gram.add_diag(-1.0);
    let ortho_defect = gram.data().iter().fold(0.0f64, |w, v| w.max(v.abs()));
    let max_rel_sigma_diff =
        sigma.iter().zip(&oracle.s).map(|(s, o)| (s - o).abs() / o).fold(0.0f64, f64::max);
    let driver_decomp = format!(
        "{{\"shape\": \"{m}x{k}\", \"jacobi_qr_secs\": {jacobi_qr_secs:.6e}, \"gram_secs\": {gram_secs:.6e}, \"speedup\": {:.3}, \"ortho_defect\": {ortho_defect:.3e}, \"max_rel_sigma_diff\": {max_rel_sigma_diff:.3e}}}",
        jacobi_qr_secs / gram_secs,
    );
    println!("{:>18} {driver_decomp}", "driver_decomp");

    // driver_em: the two serial pieces of an EM iteration's driver at
    // `em_spark_sparse`'s shape (D = 10 000, d = 50, 256 sampled rows), each
    // against the loop it replaced. Same shapes under --smoke: both are
    // milliseconds, and the ratios are what is asserted.
    let (d_in, d, sample_rows) = (10_000, 50, 256);
    let g = rng.normal_mat(d + 2, d);
    let mut xtx = g.matmul_tn(&g);
    xtx.add_diag(0.5);
    let ytx = rng.normal_mat(d_in, d);
    let (columnwise_secs, columnwise) =
        best_of(reps, || Cholesky::new(&xtx).expect("SPD").solve_mat(&ytx.transpose()).transpose());
    let (lane_blocked_secs, lane_blocked) =
        best_of(reps, || solve_spd_right(&xtx, &ytx).expect("SPD"));
    let model = PcaModel::new(rng.normal_mat(d_in, d), rng.normal_vec(d_in), 0.3);
    let sample = random_sparse(&mut rng, sample_rows, d_in, 6.6 / d_in as f64);
    let (rowwise_secs, rowwise) = best_of(reps, || rowwise_error(&sample, &model));
    let (tiled_secs, tiled) =
        best_of(reps, || reconstruction_error(&sample, &model).expect("well-conditioned"));
    let driver_em = format!(
        "{{\"solve_spd_right\": {{\"shape\": \"{d_in}x{d}\", \"columnwise_secs\": {columnwise_secs:.6e}, \"lane_blocked_secs\": {lane_blocked_secs:.6e}, \"speedup\": {:.3}}}, \"sampled_error\": {{\"shape\": \"{sample_rows}x{d_in}x{d}\", \"rowwise_secs\": {rowwise_secs:.6e}, \"tiled_secs\": {tiled_secs:.6e}, \"speedup\": {:.3}}}}}",
        columnwise_secs / lane_blocked_secs,
        rowwise_secs / tiled_secs,
    );
    println!("{:>18} {driver_em}", "driver_em");

    // dense_block: one `em_spark_dense` partition (188×1000 rows, d = 50)
    // through the kernels' full-block routes, against the same block with
    // one entry removed — which takes the sparse routes and does 0.0005 %
    // less work. One core, as inside a stage task. Same shapes under
    // --smoke: each is milliseconds, and the ratios are what is asserted.
    let (blk_rows, blk_cols) = (188, 1000);
    let dense_reps = 4 * reps;
    let full = SparseMat::from_dense(&rng.normal_mat(blk_rows, blk_cols));
    let holed = SparseMat::from_rows(
        blk_rows,
        blk_cols,
        (0..blk_rows)
            .map(|r| full.row(r).iter().skip(usize::from(r == 0)).map(|(c, v)| (c as u32, v)).collect())
            .collect(),
    );
    assert_eq!((full.nnz(), holed.nnz()), (blk_rows * blk_cols, blk_rows * blk_cols - 1));
    let cm = rng.normal_mat(blk_cols, d);
    let x_blk = rng.normal_mat(blk_rows, d);
    let identity: Vec<u32> = (0..blk_cols as u32).collect();
    let scatter = |y: &SparseMat| {
        let mut out = vec![0.0; blk_cols * d];
        kernels::spmm_tn_packed_with_pool(&serial, y, &x_blk, &identity, &mut out);
        out
    };
    let ((mul_sparse_secs, _), (mul_dense_secs, mul_dense)) = best_of_pair(
        dense_reps,
        || kernels::sparse_mul_dense_with_pool(&serial, &holed, &cm),
        || kernels::sparse_mul_dense_with_pool(&serial, &full, &cm),
    );
    let ((tn_sparse_secs, _), (tn_dense_secs, tn_dense)) =
        best_of_pair(dense_reps, || scatter(&holed), || scatter(&full));
    // The row-at-a-time folds, one axpy per stored entry.
    let mut mul_rowwise = Mat::zeros(blk_rows, d);
    let mut tn_rowwise = Mat::zeros(blk_cols, d);
    for r in 0..blk_rows {
        for (c, v) in full.row(r).iter() {
            linalg::vector::axpy(v, cm.row(c), mul_rowwise.row_mut(r));
            linalg::vector::axpy(v, x_blk.row(r), tn_rowwise.row_mut(c));
        }
    }
    let dense_block = format!(
        "{{\"sparse_mul_dense\": {{\"shape\": \"{blk_rows}x{blk_cols}x{d}\", \"sparse_route_secs\": {mul_sparse_secs:.6e}, \"dense_route_secs\": {mul_dense_secs:.6e}, \"speedup\": {:.3}}}, \"spmm_tn_packed\": {{\"shape\": \"{blk_rows}x{blk_cols}x{d}\", \"sparse_route_secs\": {tn_sparse_secs:.6e}, \"dense_route_secs\": {tn_dense_secs:.6e}, \"speedup\": {:.3}}}}}",
        mul_sparse_secs / mul_dense_secs,
        tn_sparse_secs / tn_dense_secs,
    );
    println!("{:>18} {dense_block}", "dense_block");

    // Report + hand-rolled JSON.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"mode\": \"{}\",\n", if smoke { "smoke" } else { "full" }));
    json.push_str(&format!("  \"pool_workers\": {},\n", global.workers()));
    json.push_str("  \"kernels\": [\n");
    for (i, r) in results.iter().enumerate() {
        println!(
            "{:>18} {:40} naive {:>9.4}s  blocked {:>9.4}s ({:.2}x)  threaded {:>9.4}s ({:.2}x)  maxdiff {:.2e}",
            r.kernel,
            r.shape,
            r.naive_secs,
            r.blocked_secs,
            r.speedup_blocked(),
            r.threaded_secs,
            r.speedup_threaded(),
            r.max_abs_diff,
        );
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"shape\": \"{}\", \"naive_secs\": {:.6e}, \"blocked_secs\": {:.6e}, \"threaded_secs\": {:.6e}, \"speedup_blocked\": {:.3}, \"speedup_threaded\": {:.3}, \"max_abs_diff\": {:.3e}}}{}\n",
            r.kernel,
            r.shape,
            r.naive_secs,
            r.blocked_secs,
            r.threaded_secs,
            r.speedup_blocked(),
            r.speedup_threaded(),
            r.max_abs_diff,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"driver_decomp\": {driver_decomp},\n  \"driver_em\": {driver_em},\n  \"dense_block\": {dense_block}\n}}\n"
    ));
    std::fs::write(&out_path, &json).expect("write benchmark output");
    println!("wrote {out_path}");

    for r in &results {
        assert!(
            r.max_abs_diff <= 1e-9,
            "{}: kernel disagrees with the naive reference ({:.3e})",
            r.kernel,
            r.max_abs_diff
        );
    }
    assert!(
        ortho_defect <= 1e-12 && max_rel_sigma_diff <= 1e-10,
        "driver_decomp: Gram route disagrees with Jacobi/Householder: {driver_decomp}"
    );
    // An in-run ratio, so the floor survives machine changes (10x smoke, 25x full).
    assert!(
        cfg!(debug_assertions) || jacobi_qr_secs >= 5.0 * gram_secs,
        "driver_decomp: Gram route under 5x over Jacobi + Householder: {driver_decomp}"
    );
    assert!(
        lane_blocked == columnwise && tiled.to_bits() == rowwise.to_bits(),
        "driver_em: a new path is not bitwise the loop it replaced: {driver_em}"
    );
    // In-run ratios again (12x and 2.3–2.8x when written, on two cores).
    assert!(
        cfg!(debug_assertions)
            || (columnwise_secs >= 2.0 * lane_blocked_secs && rowwise_secs >= 1.3 * tiled_secs),
        "driver_em: lane-blocked solve under 2x or tiled error under 1.3x: {driver_em}"
    );
    assert!(
        mul_dense == mul_rowwise && tn_dense == tn_rowwise.data(),
        "dense_block: a register-tile route is not bitwise the row-at-a-time fold: {dense_block}"
    );
    // In-run ratios once more (1.8–2.1x and 3.9–4.8x when written, on one core).
    assert!(
        cfg!(debug_assertions)
            || (mul_sparse_secs >= 1.5 * mul_dense_secs && tn_sparse_secs >= 1.5 * tn_dense_secs),
        "dense_block: a full-block route under 1.5x: {dense_block}"
    );
}
