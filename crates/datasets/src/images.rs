//! Images-like dataset: dense SIFT descriptor vectors.
//!
//! The paper's Images matrix is 160M × 128 — dense, low-dimensional, real
//! valued: the one regime where MLlib-PCA *wins* in Table 2, because a
//! 128×128 covariance matrix is trivial for the driver. The generator
//! produces a mixture of Gaussian clusters in 128 dimensions (SIFT
//! descriptors cluster by visual word) with anisotropic within-cluster
//! covariance, all entries non-negative like real SIFT bins.

use linalg::{Mat, Prng, SparseMat};

/// SIFT descriptor dimensionality.
pub const SIFT_DIM: usize = 128;
/// Number of visual-word clusters.
const CLUSTERS: usize = 12;
/// Dominant within-cluster variance directions.
const CLUSTER_RANK: usize = 4;

/// Draws the cluster centers and their dominant variance directions, then
/// returns the row generator: it writes one descriptor into a row,
/// drawing its cluster, its offsets along the cluster's directions and
/// then its noise.
fn descriptors(dim: usize, rng: &mut Prng) -> impl Fn(&mut Prng, &mut [f64]) {
    assert!(dim >= CLUSTER_RANK, "dimensionality too small");
    // Cluster centers and their dominant variance directions.
    let centers: Vec<Vec<f64>> =
        (0..CLUSTERS).map(|_| (0..dim).map(|_| 20.0 + 20.0 * rng.uniform()).collect()).collect();
    let directions: Vec<Vec<Vec<f64>>> = (0..CLUSTERS)
        .map(|_| {
            (0..CLUSTER_RANK)
                .map(|_| {
                    let mut v = rng.normal_vec(dim);
                    linalg::vector::normalize(&mut v);
                    v
                })
                .collect()
        })
        .collect();

    move |rng, row| {
        let c = rng.index(CLUSTERS);
        row.copy_from_slice(&centers[c]);
        for dir in &directions[c] {
            let scale = 12.0 * rng.normal();
            linalg::vector::axpy(scale, dir, row);
        }
        for v in row.iter_mut() {
            *v = (*v + 2.0 * rng.normal()).clamp(0.0, 255.0);
        }
    }
}

/// Generates `n` SIFT-like descriptors of dimensionality `dim`
/// (use [`SIFT_DIM`] for the paper's shape).
pub fn generate(n: usize, dim: usize, rng: &mut Prng) -> Mat {
    let fill = descriptors(dim, rng);
    let mut m = Mat::zeros(n, dim);
    for i in 0..n {
        fill(rng, m.row_mut(i));
    }
    m
}

/// Dense descriptors stored as a [`SparseMat`] for sparse-input APIs,
/// streamed row by row into CSR: bit for bit
/// `SparseMat::from_dense(&generate(..))`, with the same draws.
pub fn generate_sparse(n: usize, dim: usize, rng: &mut Prng) -> SparseMat {
    let fill = descriptors(dim, rng);
    SparseMat::from_dense_rows(n, dim, |_, row| fill(rng, row))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptors_are_dense_and_bounded() {
        let mut rng = Prng::seed_from_u64(40);
        let m = generate(200, SIFT_DIM, &mut rng);
        assert_eq!(m.cols(), 128);
        assert!(m.data().iter().all(|&v| (0.0..=255.0).contains(&v)));
        let nonzero = m.data().iter().filter(|&&v| v > 0.0).count();
        assert!(nonzero as f64 / m.data().len() as f64 > 0.95);
    }

    #[test]
    fn cluster_structure_dominates_variance() {
        let mut rng = Prng::seed_from_u64(41);
        let m = generate(400, 64, &mut rng);
        let mean = m.col_means();
        let mut centered = m.clone();
        centered.sub_row_vector(&mean);
        let svd = linalg::decomp::svd_jacobi(&centered).unwrap();
        // Between-cluster + within-cluster structure: top ~16 directions
        // carry most of the energy, the rest is the 2.0-σ noise floor.
        let head: f64 = svd.s[..16].iter().map(|s| s * s).sum();
        let total: f64 = svd.s.iter().map(|s| s * s).sum();
        assert!(head / total > 0.6, "head fraction {}", head / total);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(10, 32, &mut Prng::seed_from_u64(42));
        let b = generate(10, 32, &mut Prng::seed_from_u64(42));
        assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    fn streamed_sparse_is_from_dense_of_generate() {
        use linalg::Wire;
        let shapes = [(0, 4, 1), (1, 4, 2), (50, 16, 3), (300, SIFT_DIM, 4), (300, 1_000, 5)];
        for (n, dim, seed) in shapes {
            let (mut a, mut b) = (Prng::seed_from_u64(seed), Prng::seed_from_u64(seed));
            let streamed = generate_sparse(n, dim, &mut a);
            let dense = SparseMat::from_dense(&generate(n, dim, &mut b));
            assert_eq!(streamed, dense, "{n} × {dim}, seed {seed}");
            assert_eq!(streamed.encode(), dense.encode(), "bit for bit");
            // Both leave the generator in the same state.
            assert_eq!(a.normal().to_bits(), b.normal().to_bits());
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
