//! Diabetes-like dataset: NMR spectra of urine samples.
//!
//! The paper's Diabetes matrix is 353 patients × 65,669 frequencies of
//! real-valued resonance magnitudes — few rows, enormous dimensionality,
//! *dense real values* rather than binary indicators. The generator
//! synthesizes spectra as a shared baseline of Gaussian peaks whose heights
//! vary per patient through a small number of latent metabolic factors
//! (the recoverable low-rank signal), plus measurement noise.

use linalg::{Mat, Prng, SparseMat};

/// Number of latent metabolic factors driving peak-height variation.
const FACTORS: usize = 6;
/// Peaks per 1,000 frequencies.
const PEAK_DENSITY: f64 = 8.0;

/// Draws the spectra's shared shape, then returns the row generator: it
/// adds one patient's spectrum to a zeroed row, drawing the patient's
/// factors and then the measurement noise.
fn spectra(n_freqs: usize, rng: &mut Prng) -> impl Fn(&mut Prng, &mut [f64]) {
    assert!(n_freqs >= 16, "need a plausible frequency axis");
    let n_peaks = ((n_freqs as f64 / 1000.0) * PEAK_DENSITY).ceil().max(4.0) as usize;

    // Shared peak positions/widths/base heights.
    let centers: Vec<f64> = (0..n_peaks).map(|_| rng.uniform() * n_freqs as f64).collect();
    let widths: Vec<f64> =
        (0..n_peaks).map(|_| 2.0 + rng.uniform() * (n_freqs as f64 / 200.0)).collect();
    let base_heights: Vec<f64> = (0..n_peaks).map(|_| 1.0 + 4.0 * rng.uniform()).collect();
    // Loading of each peak on each latent factor.
    let loadings: Vec<Vec<f64>> =
        (0..n_peaks).map(|_| (0..FACTORS).map(|_| rng.normal() * 0.6).collect()).collect();

    move |rng, row| {
        let factors: Vec<f64> = (0..FACTORS).map(|_| rng.normal()).collect();
        for (k, &c) in centers.iter().enumerate() {
            let mut height = base_heights[k];
            for (f, &load) in factors.iter().zip(&loadings[k]) {
                height += f * load;
            }
            let height = height.max(0.05);
            let w = widths[k];
            // Only evaluate the Gaussian within ±4σ of the peak.
            let lo = ((c - 4.0 * w).floor().max(0.0)) as usize;
            let hi = ((c + 4.0 * w).ceil() as usize).min(n_freqs);
            for (j, slot) in row.iter_mut().enumerate().take(hi).skip(lo) {
                let dx = (j as f64 - c) / w;
                *slot += height * (-0.5 * dx * dx).exp();
            }
        }
        for slot in row.iter_mut() {
            *slot += 0.02 * rng.normal().abs();
        }
    }
}

/// Generates an `n_patients × n_freqs` spectra matrix (dense values).
pub fn generate(n_patients: usize, n_freqs: usize, rng: &mut Prng) -> Mat {
    let fill = spectra(n_freqs, rng);
    let mut m = Mat::zeros(n_patients, n_freqs);
    for p in 0..n_patients {
        fill(rng, m.row_mut(p));
    }
    m
}

/// Dense spectra as a [`SparseMat`] (every entry stored) for algorithms
/// that take sparse input. The paper's algorithms all accept this; the
/// density simply means the sparse optimizations buy nothing — as the
/// paper notes for its dense Images dataset.
///
/// Each row is written straight into the CSR arrays as it is generated,
/// so the dense matrix never exists; the draws are [`generate`]'s, in its
/// order, and the result is bit for bit `SparseMat::from_dense(&generate(..))`.
pub fn generate_sparse(n_patients: usize, n_freqs: usize, rng: &mut Prng) -> SparseMat {
    let fill = spectra(n_freqs, rng);
    SparseMat::from_dense_rows(n_patients, n_freqs, |_, row| fill(rng, row))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spectra_are_nonnegative_and_dense() {
        let mut rng = Prng::seed_from_u64(30);
        let m = generate(20, 500, &mut rng);
        assert!(m.data().iter().all(|&v| v >= 0.0));
        let nonzero = m.data().iter().filter(|&&v| v > 1e-9).count();
        assert!(nonzero as f64 / m.data().len() as f64 > 0.9, "spectra should be dense");
    }

    #[test]
    fn patients_share_peak_positions() {
        // Column means should show clear peaks: max ≫ median.
        let mut rng = Prng::seed_from_u64(31);
        let m = generate(30, 800, &mut rng);
        let means = m.col_means();
        let mut sorted = means.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        let max = sorted[sorted.len() - 1];
        assert!(max > 3.0 * median, "max {max} vs median {median}");
    }

    #[test]
    fn latent_factors_create_low_rank_variation() {
        let mut rng = Prng::seed_from_u64(32);
        let m = generate(60, 300, &mut rng);
        let mean = m.col_means();
        let mut centered = m.clone();
        centered.sub_row_vector(&mean);
        let svd = linalg::decomp::svd_jacobi(&centered).unwrap();
        let head: f64 = svd.s[..FACTORS].iter().map(|s| s * s).sum();
        let total: f64 = svd.s.iter().map(|s| s * s).sum();
        assert!(head / total > 0.8, "factors explain {}", head / total);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(5, 100, &mut Prng::seed_from_u64(33));
        let b = generate(5, 100, &mut Prng::seed_from_u64(33));
        assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    fn streamed_sparse_is_from_dense_of_generate() {
        use linalg::Wire;
        let shapes = [(0, 16, 1), (1, 16, 2), (7, 16, 3), (40, 250, 4), (300, 1_000, 5)];
        for (rows, cols, seed) in shapes {
            let (mut a, mut b) = (Prng::seed_from_u64(seed), Prng::seed_from_u64(seed));
            let streamed = generate_sparse(rows, cols, &mut a);
            let dense = SparseMat::from_dense(&generate(rows, cols, &mut b));
            assert_eq!(streamed, dense, "{rows} × {cols}, seed {seed}");
            assert_eq!(streamed.encode(), dense.encode(), "bit for bit");
            // Both leave the generator in the same state.
            assert_eq!(a.normal().to_bits(), b.normal().to_bits());
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
