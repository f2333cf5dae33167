//! Matrix decompositions.
//!
//! Everything Section 2 of the paper analyzes is implemented here:
//!
//! | Paper method | Building blocks in this module |
//! |---|---|
//! | Eigen-decomposition of the covariance matrix (MLlib-PCA) | [`eig::sym_eigen`] |
//! | SVD-Bidiag (RScaLAPACK) | [`qr`], [`bidiag`] |
//! | SVD-Lanczos (Mahout/GraphLab sparse SVD) | [`lanczos`] |
//! | Stochastic SVD (Mahout-PCA) | [`qr`], [`mod@tsqr`], [`svd`], [`eig`] |
//! | Probabilistic PCA / sPCA | [`cholesky`], [`lu`] (d×d solves only) |

pub mod bidiag;
pub mod bidiag_svd;
pub mod cholesky;
pub mod eig;
pub mod helpers;
pub mod lanczos;
pub mod lu;
pub mod qr;
pub mod svd;
pub mod tsqr;

pub use bidiag::{bidiagonalize, svd_via_bidiag, Bidiagonal};
pub use bidiag_svd::golub_reinsch_svd;
pub use cholesky::Cholesky;
pub use eig::{jacobi_eigen, sym_eigen, SymEigen};
pub use helpers::{
    gram_svd, orthonormal_columns, singular_basis, subspace_overlap, top_singular_triplets,
    GRAM_MIN_EIGEN_RATIO,
};
pub use lanczos::lanczos_svd;
pub use lu::Lu;
pub use qr::{qr_thin, Qr};
pub use svd::{svd_jacobi, Svd};
pub use tsqr::tsqr;
