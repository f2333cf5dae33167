//! Frobenius norm of the mean-centered matrix (Algorithms 2 and 3).
//!
//! `ss1 = ‖Y − 1⊗Ym‖²_F` feeds the variance update (Algorithm 4, line 14).
//! Algorithm 2 densifies one row at a time — O(N·D). Algorithm 3 is the
//! paper's optimization: start from `N·‖Ym‖²` (what the norm would be if
//! every entry were zero) and correct only at the non-zeros —
//! O(nnz + D). Per-block functions keep both distributable.

use linalg::SparseMat;

/// Algorithm 3, one block: `rows·msum + Σ_nz ((v − m)² − m²)` where
/// `msum = ‖mean‖²` is precomputed once and broadcast.
pub fn centered_sq_block(block: &SparseMat, mean: &[f64], mean_norm_sq: f64) -> f64 {
    assert_eq!(block.cols(), mean.len(), "mean length mismatch");
    let mut sum = block.rows() as f64 * mean_norm_sq;
    for r in 0..block.rows() {
        for (c, v) in block.row(r).iter() {
            let m = mean[c];
            sum += (v - m) * (v - m) - m * m;
        }
    }
    sum
}

/// Algorithm 2 ("Frobenius-simple"), one block: densify each row and sum
/// squares. The unoptimized arm of the Table 3 ablation.
pub fn centered_sq_simple_block(block: &SparseMat, mean: &[f64]) -> f64 {
    linalg::norms::centered_frobenius_sq_simple(block, mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::vector::norm2_sq;
    use linalg::Prng;

    fn random_sparse(rows: usize, cols: usize, seed: u64) -> SparseMat {
        let mut rng = Prng::seed_from_u64(seed);
        let mut triplets = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if rng.uniform() < 0.15 {
                    triplets.push((r, c as u32, rng.normal()));
                }
            }
        }
        SparseMat::from_triplets(rows, cols, &triplets)
    }

    #[test]
    fn optimized_matches_simple_and_dense() {
        let y = random_sparse(30, 20, 1);
        let mean = y.col_means();
        let opt = centered_sq_block(&y, &mean, norm2_sq(&mean));
        let simple = centered_sq_simple_block(&y, &mean);
        let dense = linalg::norms::centered_frobenius_sq_dense(&y.to_dense(), &mean);
        assert!((opt - simple).abs() < 1e-9, "{opt} vs {simple}");
        assert!((opt - dense).abs() < 1e-9, "{opt} vs {dense}");
    }

    #[test]
    fn blocks_sum_to_whole() {
        let y = random_sparse(40, 15, 2);
        let mean = y.col_means();
        let msum = norm2_sq(&mean);
        let whole = centered_sq_block(&y, &mean, msum);
        let split: f64 = y
            .split_rows(4)
            .iter()
            .map(|b| centered_sq_block(b, &mean, msum))
            .sum();
        assert!((whole - split).abs() < 1e-9);
    }

    #[test]
    fn zero_mean_reduces_to_plain_frobenius() {
        let y = random_sparse(10, 10, 3);
        let zero = vec![0.0; 10];
        assert!((centered_sq_block(&y, &zero, norm2_sq(&zero)) - y.frobenius_sq()).abs() < 1e-12);
    }

    #[test]
    fn empty_block_contributes_nothing() {
        let y = SparseMat::from_rows(0, 5, vec![]);
        assert_eq!(centered_sq_block(&y, &[1.0; 5], norm2_sq(&[1.0; 5])), 0.0);
    }

    #[test]
    fn arbitrary_mean_vector_is_supported() {
        // The identity must hold for any vector, not just the true mean.
        let y = random_sparse(12, 8, 4);
        let mut rng = Prng::seed_from_u64(5);
        let fake_mean = rng.normal_vec(8);
        let opt = centered_sq_block(&y, &fake_mean, norm2_sq(&fake_mean));
        let dense = linalg::norms::centered_frobenius_sq_dense(&y.to_dense(), &fake_mean);
        assert!((opt - dense).abs() < 1e-9);
    }
}
