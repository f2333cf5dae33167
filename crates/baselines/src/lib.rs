//! Baseline PCA algorithms the paper compares against (Sections 2 and 5).
//!
//! | Module | Paper name | Platform | Communication profile |
//! |---|---|---|---|
//! | [`mahout_ssvd`] | Mahout-PCA (stochastic SVD with the PCA option) | MapReduce | O(N·k) intermediate `Q`, per-row dense mapper emissions in the Bt job — the 961 GB pathology |
//! | [`mllib_pca`] | MLlib-PCA (Gram matrix + eigendecomposition) | Spark | O(D²) partials to a single driver; fails past the driver memory cap |
//! | [`svd_bidiag`] | SVD-Bidiag (RScaLAPACK) | centralized | O(max((N+D)d, D²)) |
//! | [`svd_lanczos`] | SVD-Lanczos | centralized/sparse | efficient only without mean-centering |
//!
//! Both distributed baselines are [`spca_core::driver::PassArm`]s run by
//! sPCA's own [`spca_core::driver::run_passes`], so they return the same
//! [`spca_core::SpcaRun`] record, trace windows and run ledger as sPCA and
//! the bench harness can table them side by side.

pub mod mahout_ssvd;
pub mod mllib_pca;
pub mod svd_bidiag;
pub mod svd_lanczos;

pub use mahout_ssvd::{MahoutConfig, MahoutPca};
pub use mllib_pca::{MllibConfig, MllibPca};

/// Share of a descending spectrum its top `d` values hold — both
/// baselines' per-pass objective, the analogue of the randomized arm's
/// captured-energy fraction. Negative rounding noise counts as zero.
fn top_share(values: &[f64], d: usize) -> f64 {
    let sum = |v: &[f64]| v.iter().map(|x| x.max(0.0)).sum::<f64>();
    sum(&values[..d]) / sum(values).max(f64::MIN_POSITIVE)
}
