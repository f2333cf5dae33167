//! The paper's accuracy metric (Section 5, "Performance Metrics").
//!
//! Accuracy is measured through the 1-norm of the reconstruction error on a
//! random row subset: `e = ‖Yr − Ŷr‖₁ / ‖Yr‖₁`, where `Ŷr` reconstructs
//! each sampled row through the model (`x = (y−μ)·CM`, `ŷ = x·C' + μ`).
//! Progress is reported as a percentage of the *ideal* accuracy — the
//! error a long reference run converges to.

use linalg::{Mat, Prng, SparseMat, WorkerPool};

use crate::model::PcaModel;
use crate::Result;

/// Sample rows per pool task of [`reconstruction_error`].
const BAND_ROWS: usize = 16;

/// `f64`s of `C` per column tile (24 KiB): a tile and the band's latent
/// rows fit in L1 together while every row of the band is scored against
/// the tile.
const TILE_ELEMS: usize = 3_072;

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
    let x = model.transform_sparse(sample)?;
    let x = &x;
    let bands: Vec<_> = (0..sample.rows())
        .step_by(BAND_ROWS)
        .map(|start| move || band_errors(sample, model, x, start))
        .collect();

    let mut err_sum = 0.0;
    let mut norm_sum = 0.0;
    for (row_err, row_norm) in WorkerPool::global().run(bands).into_iter().flatten() {
        err_sum += row_err;
        norm_sum += row_norm;
    }
    if norm_sum == 0.0 {
        return Ok(if err_sum == 0.0 { 0.0 } else { f64::INFINITY });
    }
    Ok(err_sum / norm_sum)
}

/// `(‖y − ŷ‖₁, ‖y‖₁)` for each of the [`BAND_ROWS`] sample rows from
/// `start`, where `ŷ = x·C' + μ` is never stored: `C` is walked once per
/// band in column tiles, each tile scored against every row of the band
/// while it is cache-resident (row at a time, all of `C` — 4 MB at
/// D = 10 000, d = 50 — streams through the cache once per row). Per row
/// the arithmetic is the row-at-a-time loop's: `ŷⱼ = dot(x, Cⱼ) + μⱼ`, `Σ|ŷⱼ|` in ascending `j`, then the
/// correction at the row's non-zeros in their stored order.
fn band_errors(sample: &SparseMat, model: &PcaModel, x: &Mat, start: usize) -> Vec<(f64, f64)> {
    let c = model.components();
    let mean = model.mean();
    let d_in = model.input_dim();
    let rows = start..(start + BAND_ROWS).min(sample.rows());
    let tile = (TILE_ELEMS / c.cols().max(1)).max(1);

    let mut abs_sum = vec![0.0f64; rows.len()];
    // ŷ at each row's non-zero columns, caught as the tiles pass them.
    let mut at_nz: Vec<Vec<f64>> =
        rows.clone().map(|r| Vec::with_capacity(sample.row(r).indices.len())).collect();
    let mut recon = vec![0.0f64; tile];
    for j0 in (0..d_in).step_by(tile) {
        let j1 = (j0 + tile).min(d_in);
        let recon = &mut recon[..j1 - j0];
        for (k, r) in rows.clone().enumerate() {
            let xr = x.row(r);
            for (slot, j) in recon.iter_mut().zip(j0..j1) {
                *slot = linalg::vector::dot(xr, c.row(j)) + mean[j];
            }
            for v in recon.iter() {
                abs_sum[k] += v.abs();
            }
            let indices = sample.row(r).indices;
            let seen = at_nz[k].len();
            let upto = seen + indices[seen..].partition_point(|&cidx| (cidx as usize) < j1);
            at_nz[k].extend(indices[seen..upto].iter().map(|&cidx| recon[cidx as usize - j0]));
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
    /// the bitwise reference.
    fn reference_error(sample: &SparseMat, model: &PcaModel) -> f64 {
        let x = model.transform_sparse(sample).unwrap();
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
            norm_sum += sample.row(r).values.iter().map(|v| v.abs()).sum::<f64>();
        }
        err_sum / norm_sum
    }

    #[test]
    fn tiled_error_is_bitwise_the_row_at_a_time_loop() {
        // D is not a multiple of the column tile, rows not of the band.
        let (rows, d_in, d) = (2 * BAND_ROWS + 5, 1_500, 5);
        assert!(d_in % (TILE_ELEMS / d) != 0 && d_in > TILE_ELEMS / d);
        let mut rng = Prng::seed_from_u64(77);
        let model = PcaModel::new(rng.normal_mat(d_in, d), rng.normal_vec(d_in), 0.3);
        // Hyper-sparse: 0–3 non-zeros per row (row 0 empty), some on tile
        // edges. Dense: every column of every row set.
        let edge = (TILE_ELEMS / d) as u32;
        let sparse: Vec<Vec<(u32, f64)>> = (0..rows)
            .map(|r| match r % 4 {
                0 => vec![],
                1 => vec![(0, 1.0), (edge - 1, -2.0), (edge, 0.5)],
                2 => vec![(d_in as u32 - 1, 1.0)],
                _ => vec![((7 * r) as u32, rng.normal()), (2 * edge, 1.0)],
            })
            .collect();
        let dense: Vec<Vec<(u32, f64)>> = (0..rows)
            .map(|_| (0..d_in as u32).map(|c| (c, rng.normal() + 3.0)).collect())
            .collect();
        for entries in [sparse, dense] {
            let sample = SparseMat::from_rows(rows, d_in, entries);
            let expected = reference_error(&sample, &model).to_bits();
            let from_driver = reconstruction_error(&sample, &model).unwrap();
            assert_eq!(from_driver.to_bits(), expected, "driver call diverged");
            // Two tasks, so the batch is queued and the calls are nested.
            let in_task = WorkerPool::global()
                .run((0..2).map(|_| || reconstruction_error(&sample, &model).unwrap()).collect());
            assert!(in_task.iter().all(|e| e.to_bits() == expected), "pool-task call diverged");
        }
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
