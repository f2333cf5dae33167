//! The paper's accuracy metric (Section 5, "Performance Metrics").
//!
//! Accuracy is measured through the 1-norm of the reconstruction error on a
//! random row subset: `e = ‖Yr − Ŷr‖₁ / ‖Yr‖₁`, where `Ŷr` reconstructs
//! each sampled row through the model (`x = (y−μ)·CM`, `ŷ = x·C' + μ`).
//! Progress is reported as a percentage of the *ideal* accuracy — the
//! error a long reference run converges to.
//!
//! The EM driver scores this after every pass, so its cost is the cost of
//! `ŷ`: D·d multiply-adds per sampled row, none of them stored.
//! [`reconstruction_error`] forms `ŷ` four rows × four columns at a time
//! from `C` transposed into four-column panels. Every element keeps
//! `vector::dot`'s association, so the result is the row-at-a-time loop's
//! bit for bit. Transposing is what makes the tile pay: each `dot` is a
//! chain of dependent adds, and with `C` transposed the sixteen elements'
//! chains run side by side as vector lanes.

use linalg::{Mat, Prng, SparseMat, WorkerPool};

use crate::model::PcaModel;
use crate::Result;

/// Sample rows per pool task of [`reconstruction_error`].
const BAND_ROWS: usize = 16;

/// `f64`s of `C` per column tile (24 KiB): a tile and the band's latent
/// rows fit in L1 together while every row of the band is scored against
/// the tile.
const TILE_ELEMS: usize = 3_072;

/// Rows and columns of `ŷ` per register tile, and the lanes of
/// `vector::dot`.
const QUAD: usize = 4;

/// Relative 1-norm reconstruction error over the given (sampled) rows.
///
/// Rows are scored in fixed bands of [`BAND_ROWS`] on the shared pool and
/// their errors added in row order, so the result is a function of the
/// inputs only — the same bits from the driver, from inside a pool task,
/// and on any worker count.
pub fn reconstruction_error(sample: &SparseMat, model: &PcaModel) -> Result<f64> {
    assert_eq!(sample.cols(), model.input_dim(), "sample dimensionality mismatch");
    if sample.rows() == 0 {
        return Ok(0.0);
    }
    Ok(projected_error(sample, model, &model.latent_projection()?))
}

/// [`reconstruction_error`] through the model's `CM` held by the caller:
/// the same bits, without forming `CM` again.
pub(crate) fn projected_error(sample: &SparseMat, model: &PcaModel, cm: &Mat) -> f64 {
    assert_eq!(sample.cols(), model.input_dim(), "sample dimensionality mismatch");
    let x = model.project_sparse(sample, cm);
    score(WorkerPool::global(), sample, &x, model.components(), model.mean())
}

/// `‖Y − (X·Cᵀ + 1⊗μ)‖₁ / ‖Y‖₁` for the sample `Y` and its latent rows `X`.
fn score(pool: &WorkerPool, sample: &SparseMat, x: &Mat, c: &Mat, mean: &[f64]) -> f64 {
    let mut c_panels = linalg::scratch::take_zeroed(c.rows().div_ceil(QUAD) * QUAD * c.cols());
    pack_quads(c, 0..c.rows(), &mut c_panels);
    let bands: Vec<_> = (0..sample.rows())
        .step_by(BAND_ROWS)
        .map(|start| {
            let c_panels = &c_panels;
            move || band_errors(sample, x, c_panels, mean, start)
        })
        .collect();

    let mut err_sum = 0.0;
    let mut norm_sum = 0.0;
    for (row_err, row_norm) in pool.run(bands).into_iter().flatten() {
        err_sum += row_err;
        norm_sum += row_norm;
    }
    linalg::scratch::recycle(c_panels);
    if norm_sum == 0.0 {
        return if err_sum == 0.0 { 0.0 } else { f64::INFINITY };
    }
    err_sum / norm_sum
}

/// Rows `rows` of `m` (× d) transposed into d × 4 panels, one per four
/// rows: the `i`-th row's column `k` lands at `panels[⌊i/4⌋·4d + 4k + i mod 4]`.
/// Slots of a last, partial quad keep what `panels` holds (zeros).
fn pack_quads(m: &Mat, rows: std::ops::Range<usize>, panels: &mut [f64]) {
    let d = m.cols();
    for (i, r) in rows.enumerate() {
        let panel = &mut panels[i / QUAD * QUAD * d..][..QUAD * d];
        for (k, &v) in m.row(r).iter().enumerate() {
            panel[k * QUAD + i % QUAD] = v;
        }
    }
}

/// `(‖y − ŷ‖₁, ‖y‖₁)` for each of the [`BAND_ROWS`] sample rows from
/// `start`, where `ŷ = x·Cᵀ + μ` is never stored. The band walks `C`'s
/// panels once, in column tiles, and scores each quad of its rows against
/// a tile while the tile is in L1, four columns at a time
/// ([`quad_dots`]). Per row the arithmetic is the row-at-a-time loop's:
/// `ŷⱼ = dot(x, Cⱼ) + μⱼ`, `Σ|ŷⱼ|` in ascending `j`, then the correction at
/// the row's non-zeros in their stored order, with `ŷ` caught there as the
/// tiles pass them.
fn band_errors(
    sample: &SparseMat,
    x: &Mat,
    c_panels: &[f64],
    mean: &[f64],
    start: usize,
) -> Vec<(f64, f64)> {
    let (d_in, d) = (mean.len(), x.cols());
    let rows = start..(start + BAND_ROWS).min(sample.rows());
    let n = rows.len();
    let mut x_panels = vec![0.0; n.div_ceil(QUAD) * QUAD * d];
    pack_quads(x, rows.clone(), &mut x_panels);
    let indices: Vec<&[u32]> = rows.clone().map(|r| sample.row(r).indices).collect();
    let tile = tile_cols(d);

    let mut abs_sum = vec![0.0f64; n];
    // ŷ at each row's non-zero columns, caught as the tiles pass them.
    let mut at_nz: Vec<Vec<f64>> = indices.iter().map(|i| Vec::with_capacity(i.len())).collect();
    for j0 in (0..d_in).step_by(tile) {
        for q in 0..n.div_ceil(QUAD) {
            let xq = &x_panels[q * QUAD * d..(q + 1) * QUAD * d];
            for j in (j0..(j0 + tile).min(d_in)).step_by(QUAD) {
                let dots = quad_dots(xq, &c_panels[j * d..(j + QUAD) * d]);
                let width = QUAD.min(d_in - j);
                for (k, dots) in (q * QUAD..n).zip(dots) {
                    let mut yhat = [0.0; QUAD];
                    for u in 0..width {
                        yhat[u] = dots[u] + mean[j + u];
                        abs_sum[k] += yhat[u].abs();
                    }
                    let nz = &mut at_nz[k];
                    while let Some(&cidx) = indices[k].get(nz.len()) {
                        if cidx as usize >= j + width {
                            break;
                        }
                        nz.push(yhat[cidx as usize - j]);
                    }
                }
            }
        }
    }

    rows.enumerate()
        .map(|(k, r)| {
            // ‖y − ŷ‖₁ over a sparse y: correct the dense term at non-zeros.
            let mut row_err = abs_sum[k];
            for (&v, &rc) in sample.row(r).values.iter().zip(&at_nz[k]) {
                row_err += (v - rc).abs() - rc.abs();
            }
            (row_err, linalg::vector::norm1(sample.row(r).values))
        })
        .collect()
}

/// Columns of `C` per tile: [`TILE_ELEMS`] worth, in whole quads.
fn tile_cols(d: usize) -> usize {
    (TILE_ELEMS / d.max(1) / QUAD * QUAD).max(QUAD)
}

/// `dot(x_r, C_{j+u})` for the four latent rows `r` of one panel of
/// [`pack_quads`]'s `x` and the four columns `u` of one panel of its `C`,
/// each with `vector::dot`'s association: lane `k mod 4` sums in ascending
/// `k` from `0.0`, the lanes pair as `(l₀ + l₁) + (l₂ + l₃)`, then the
/// `d mod 4` tail adds in order.
///
/// Kept `#[inline(never)]`, like `linalg::kernels`' register tile: alone,
/// the sixteen lane sums vectorize into registers with no bounds checks.
#[inline(never)]
fn quad_dots(x_panel: &[f64], c_panel: &[f64]) -> [[f64; QUAD]; QUAD] {
    const STEP: usize = QUAD * QUAD;
    let body = x_panel.len() / STEP * STEP;
    let (x_body, x_tail) = x_panel.split_at(body);
    let (c_body, c_tail) = c_panel.split_at(body);
    let mut lanes = [[[0.0f64; QUAD]; QUAD]; QUAD]; // [lane][row][column]
    for (xs, cs) in x_body.chunks_exact(STEP).zip(c_body.chunks_exact(STEP)) {
        let xs: &[f64; STEP] = xs.try_into().expect("panel step");
        let cs: &[f64; STEP] = cs.try_into().expect("panel step");
        for (l, lane) in lanes.iter_mut().enumerate() {
            for (r, acc) in lane.iter_mut().enumerate() {
                for (u, a) in acc.iter_mut().enumerate() {
                    *a += xs[l * QUAD + r] * cs[l * QUAD + u];
                }
            }
        }
    }
    let mut dots = [[0.0; QUAD]; QUAD];
    for (r, row) in dots.iter_mut().enumerate() {
        for (u, s) in row.iter_mut().enumerate() {
            *s = (lanes[0][r][u] + lanes[1][r][u]) + (lanes[2][r][u] + lanes[3][r][u]);
        }
        for (xs, cs) in x_tail.chunks_exact(QUAD).zip(c_tail.chunks_exact(QUAD)) {
            for (s, &c) in row.iter_mut().zip(cs) {
                *s += xs[r] * c;
            }
        }
    }
    dots
}

/// Draws the row sample used for error estimation throughout a run.
pub fn sample_rows(y: &SparseMat, rows: usize, seed: u64) -> SparseMat {
    let k = rows.min(y.rows());
    let mut rng = Prng::seed_from_u64(seed ^ 0xacc);
    let idx = rng.sample_indices(y.rows(), k);
    y.select_rows(&idx)
}

/// Percentage of the ideal accuracy achieved: `100·e_ideal/e`, capped at
/// 100. Reaches 100 when the run matches the reference error and falls
/// toward 0 as the reconstruction degrades. (The ratio form is used
/// because on very sparse binary data the relative 1-norm error of even a
/// converged model can exceed 1 — the dense reconstruction spreads small
/// junk over every column — which would make an additive `1−e` scale
/// degenerate.)
pub fn percent_of_ideal(error: f64, ideal_error: f64) -> f64 {
    assert!(ideal_error >= 0.0 && error >= 0.0, "errors are non-negative");
    if error <= ideal_error {
        return 100.0;
    }
    if error == 0.0 {
        return 100.0;
    }
    (100.0 * ideal_error / error).clamp(0.0, 100.0)
}

/// The error corresponding to `percent`% of ideal accuracy under the
/// [`percent_of_ideal`] scale — e.g. the paper's "time to reach 95% of the
/// ideal accuracy" is `time_to_error(target_error_for(e_ideal, 95.0))`.
pub fn target_error_for(ideal_error: f64, percent: f64) -> f64 {
    assert!(percent > 0.0 && percent <= 100.0, "percent in (0, 100]");
    ideal_error * 100.0 / percent
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The row-at-a-time loop [`reconstruction_error`] replaced, kept as
    /// the bitwise reference: `ŷ` one full row at a time through
    /// `vector::dot`.
    fn reference_score(sample: &SparseMat, x: &Mat, c: &Mat, mean: &[f64]) -> f64 {
        let (mut err_sum, mut norm_sum) = (0.0, 0.0);
        let mut recon = vec![0.0; c.rows()];
        for r in 0..sample.rows() {
            for (j, slot) in recon.iter_mut().enumerate() {
                *slot = linalg::vector::dot(x.row(r), c.row(j)) + mean[j];
            }
            let mut row_err: f64 = recon.iter().map(|v| v.abs()).sum();
            for (cidx, v) in sample.row(r).iter() {
                row_err += (v - recon[cidx]).abs() - recon[cidx].abs();
            }
            err_sum += row_err;
            norm_sum += sample.row(r).values.iter().map(|v| v.abs()).sum::<f64>();
        }
        if norm_sum == 0.0 {
            return if err_sum == 0.0 { 0.0 } else { f64::INFINITY };
        }
        err_sum / norm_sum
    }

    /// A `rows × d_in` sample whose row 0 is empty and row 1 stores every
    /// column, the rest holding a few non-zeros on and around the column
    /// tile's edges; latent rows, components whose row 0 is zero, and a
    /// mean with `-0.0` at column 0.
    fn fixture(
        rng: &mut Prng,
        rows: usize,
        d_in: usize,
        d: usize,
    ) -> (SparseMat, Mat, Mat, Vec<f64>) {
        let t = tile_cols(d);
        let edges = [0, t - 1, t, t + 1, 2 * t, d_in - 1];
        let entries: Vec<Vec<(u32, f64)>> = (0..rows)
            .map(|r| match r {
                0 => vec![],
                1 => (0..d_in as u32).map(|c| (c, rng.normal() + 1.0)).collect(),
                _ => {
                    let mut row: Vec<u32> = edges
                        .iter()
                        .chain(&[rng.index(d_in), rng.index(d_in)])
                        .filter(|&&c| c < d_in && rng.uniform() < 0.5)
                        .map(|&c| c as u32)
                        .collect();
                    row.sort_unstable();
                    row.dedup();
                    row.into_iter().map(|c| (c, rng.normal())).collect()
                }
            })
            .collect();
        let mut c = rng.normal_mat(d_in, d);
        c.row_mut(0).fill(0.0);
        let mut mean = rng.normal_vec(d_in);
        mean[0] = -0.0;
        (SparseMat::from_rows(rows, d_in, entries), rng.normal_mat(rows, d), c, mean)
    }

    #[test]
    fn register_tile_is_bitwise_the_row_at_a_time_loop() {
        let pools = [1, 2, 8].map(WorkerPool::new);
        let mut rng = Prng::seed_from_u64(77);
        for d in (1..=9).chain([63, 64, 65, 130]) {
            let t = tile_cols(d);
            // The benchmark's width, for the d that a tile's 4-wide lanes
            // split differently (63 and 64 share 65's tile count there).
            let wide: &[usize] = if d == 63 || d == 64 || d == 130 { &[] } else { &[10_000] };
            for &d_in in [t - 1, t, t + 1].iter().chain(wide) {
                let sample_rows: &[usize] =
                    if d_in == 10_000 { &[1, 17] } else { &[1, 15, 16, 17, 256] };
                for &rows in sample_rows {
                    let (sample, x, c, mean) = fixture(&mut rng, rows, d_in, d);
                    let want = reference_score(&sample, &x, &c, &mean).to_bits();
                    for pool in &pools {
                        let got = score(pool, &sample, &x, &c, &mean).to_bits();
                        assert_eq!(got, want, "d={d} D={d_in} rows={rows} on {}", pool.workers());
                    }
                }
            }
        }
    }

    #[test]
    fn non_finite_components_score_like_the_oracle() {
        let pools = [1, 2, 8].map(WorkerPool::new);
        let mut rng = Prng::seed_from_u64(78);
        for d in [1, 5, 65] {
            let d_in = tile_cols(d) + 1;
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let (sample, x, mut c, mean) = fixture(&mut rng, 17, d_in, d);
                c[(d_in - 1, d - 1)] = bad;
                let want = reference_score(&sample, &x, &c, &mean);
                for pool in &pools {
                    let got = score(pool, &sample, &x, &c, &mean);
                    assert!(
                        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                        "d={d} C∋{bad}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn driver_and_pool_task_calls_agree_bitwise() {
        let mut rng = Prng::seed_from_u64(79);
        let (d_in, d) = (1_500, 5);
        let model = PcaModel::new(rng.normal_mat(d_in, d), rng.normal_vec(d_in), 0.3);
        let (sample, ..) = fixture(&mut rng, 2 * BAND_ROWS + 5, d_in, d);
        let x = model.transform_sparse(&sample).unwrap();
        let expected =
            reference_score(&sample, &x, model.components(), model.mean()).to_bits();
        let from_driver = reconstruction_error(&sample, &model).unwrap();
        assert_eq!(from_driver.to_bits(), expected, "driver call diverged");
        // Two tasks, so the batch is queued and the calls are nested.
        let in_task = WorkerPool::global()
            .run((0..2).map(|_| || reconstruction_error(&sample, &model).unwrap()).collect());
        assert!(in_task.iter().all(|e| e.to_bits() == expected), "pool-task call diverged");
    }

    fn tiny_model() -> PcaModel {
        // C = e1, mean = 0: model reconstructs the first coordinate only.
        let mut c = Mat::zeros(3, 1);
        c[(0, 0)] = 1.0;
        PcaModel::new(c, vec![0.0; 3], 1e-9)
    }

    #[test]
    fn perfect_model_has_near_zero_error() {
        // Data entirely along e1 is perfectly reconstructed.
        let y = SparseMat::from_triplets(3, 3, &[(0, 0, 1.0), (1, 0, 2.0), (2, 0, 3.0)]);
        let e = reconstruction_error(&y, &tiny_model()).unwrap();
        assert!(e < 1e-6, "error {e}");
    }

    #[test]
    fn orthogonal_data_has_full_error() {
        // Data along e2 cannot be reconstructed at all: e = 1.
        let y = SparseMat::from_triplets(2, 3, &[(0, 1, 1.0), (1, 1, 2.0)]);
        let e = reconstruction_error(&y, &tiny_model()).unwrap();
        assert!((e - 1.0).abs() < 1e-9, "error {e}");
    }

    #[test]
    fn empty_sample_is_zero_error() {
        let y = SparseMat::from_rows(0, 3, vec![]);
        assert_eq!(reconstruction_error(&y, &tiny_model()).unwrap(), 0.0);
    }

    #[test]
    fn sample_rows_is_deterministic_and_bounded() {
        let y = SparseMat::from_triplets(
            10,
            4,
            &(0..10).map(|r| (r, (r % 4) as u32, 1.0)).collect::<Vec<_>>(),
        );
        let a = sample_rows(&y, 5, 7);
        let b = sample_rows(&y, 5, 7);
        assert_eq!(a, b);
        assert_eq!(a.rows(), 5);
        let all = sample_rows(&y, 100, 7);
        assert_eq!(all.rows(), 10, "sample size caps at N");
    }

    #[test]
    fn percent_scale_endpoints() {
        assert_eq!(percent_of_ideal(0.3, 0.3), 100.0);
        assert!((percent_of_ideal(0.6, 0.3) - 50.0).abs() < 1e-12);
        assert!(percent_of_ideal(30.0, 0.3) <= 1.0);
        assert_eq!(percent_of_ideal(0.2, 0.3), 100.0, "capped at 100");
        // Works when even the ideal error exceeds 1 (sparse binary data).
        assert_eq!(percent_of_ideal(1.6, 1.6), 100.0);
        assert!((percent_of_ideal(3.2, 1.6) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn target_error_inverts_percent() {
        let ideal = 1.61;
        let target = target_error_for(ideal, 95.0);
        assert!((percent_of_ideal(target, ideal) - 95.0).abs() < 1e-9);
        assert_eq!(target_error_for(ideal, 100.0), ideal);
    }
}
