//! Dense and sparse linear algebra substrate for the sPCA reproduction.
//!
//! This crate provides everything the paper's algorithms need, built from
//! scratch:
//!
//! * [`Mat`] — a row-major dense matrix with the usual BLAS-3 style products,
//!   tuned for the "small in-memory matrix" role sPCA gives to `C`, `M`,
//!   `CM`, `XtX` and `YtX` (Section 3.3 of the paper).
//! * [`SparseMat`] — a CSR sparse matrix used for the large input matrix `Y`;
//!   all products iterate non-zeros only, which is what makes the paper's
//!   *mean propagation* optimization (Section 3.1) pay off.
//! * [`decomp`] — LU, Cholesky, Householder QR (plus communication-avoiding
//!   TSQR), symmetric eigendecomposition (tridiagonalization + implicit QL,
//!   and cyclic Jacobi), one-sided Jacobi SVD, Golub–Kahan bidiagonalization,
//!   and Lanczos bidiagonalization for sparse SVD. These cover the
//!   decompositions behind every method analyzed in Section 2 / Table 1.
//! * [`rng::Prng`] — a seeded RNG with Box–Muller normal deviates, the
//!   `normrnd` of the paper's pseudocode (std-only xoshiro256++, so the
//!   workspace builds fully offline).
//! * [`kernels`] — cache-blocked, multi-threaded product kernels with a
//!   bit-for-bit determinism contract, running on the persistent
//!   [`pool::WorkerPool`] shared with the simulated cluster's stages.
//!
//! The numeric scalar is `f64` throughout.

pub mod bytes;
pub mod dense;
pub mod error;
pub mod io;
pub mod kernels;
pub mod norms;
pub mod ops;
pub mod pool;
pub mod rng;
pub mod scratch;
pub mod sparse;
pub mod vector;
pub mod wire;

pub mod decomp;

pub use bytes::ByteSized;
pub use wire::{Sizing, Wire, WireCodec, WireError, WireReader};
pub use dense::Mat;
pub use error::LinalgError;
pub use pool::WorkerPool;
pub use rng::Prng;
pub use sparse::{SparseMat, SparseRow};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
