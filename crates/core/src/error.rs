//! Error type for the sPCA algorithms.

use std::fmt;

use dcluster::ClusterError;
use linalg::LinalgError;

/// Failures surfaced by PCA fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum SpcaError {
    /// The input matrix has no rows or no columns.
    EmptyInput,
    /// More components requested than the data supports.
    TooManyComponents {
        /// Requested component count.
        requested: usize,
        /// min(N, D) of the input.
        available: usize,
    },
    /// A numeric routine failed (singular M, non-convergent eigensolver…).
    Numeric(LinalgError),
    /// The simulated cluster refused a resource (driver OOM — the MLlib
    /// failure mode of Figures 7–8).
    Cluster(ClusterError),
    /// The simulated driver crashed mid-run (fault injection via
    /// `SpcaConfig::with_crash_at_iteration`). Re-running `fit` on the
    /// same cluster resumes from the last checkpoint.
    DriverCrashed {
        /// The iteration the crash interrupted.
        iteration: usize,
    },
    /// A checkpoint blob failed to decode.
    CorruptCheckpoint {
        /// What the decoder objected to.
        reason: String,
    },
    /// A serving workload was mis-specified (a tenant serving without a
    /// fitted model, an empty request stream, a zero batch…). Rejected
    /// at validation, before any virtual time is charged.
    InvalidServing {
        /// Human-readable description of the offending spec.
        what: String,
    },
    /// A fit configuration was mis-specified (nonsensical randomized
    /// knobs: zero oversampling, no power passes on a declared-noisy
    /// spectrum, sketch wider than the input). Rejected by
    /// `SpcaConfig::validate` before any cluster work is charged.
    InvalidConfig {
        /// Human-readable description of the offending knob combination.
        what: String,
    },
    /// An input's width is not the model's: rows from another dataset
    /// handed to a transform.
    DimensionMismatch {
        /// Columns the model was fitted on.
        expected: usize,
        /// Columns the input has.
        found: usize,
    },
}

impl SpcaError {
    /// `Ok` when an input of `found` columns fits a model of `expected`.
    pub(crate) fn check_dims(found: usize, expected: usize) -> Result<(), SpcaError> {
        if found == expected {
            Ok(())
        } else {
            Err(SpcaError::DimensionMismatch { expected, found })
        }
    }
}

impl fmt::Display for SpcaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpcaError::EmptyInput => write!(f, "input matrix is empty"),
            SpcaError::TooManyComponents { requested, available } => write!(
                f,
                "requested {requested} principal components but the data supports at most {available}"
            ),
            SpcaError::Numeric(e) => write!(f, "numeric failure: {e}"),
            SpcaError::Cluster(e) => write!(f, "cluster failure: {e}"),
            SpcaError::DriverCrashed { iteration } => {
                write!(f, "driver crashed during EM iteration {iteration}; re-run to resume")
            }
            SpcaError::CorruptCheckpoint { reason } => {
                write!(f, "checkpoint is corrupt: {reason}")
            }
            SpcaError::InvalidServing { what } => {
                write!(f, "invalid serving spec: {what}")
            }
            SpcaError::InvalidConfig { what } => {
                write!(f, "invalid fit config: {what}")
            }
            SpcaError::DimensionMismatch { expected, found } => {
                write!(f, "input has {found} columns but the model was fitted on {expected}")
            }
        }
    }
}

impl std::error::Error for SpcaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpcaError::Numeric(e) => Some(e),
            SpcaError::Cluster(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for SpcaError {
    fn from(e: LinalgError) -> Self {
        SpcaError::Numeric(e)
    }
}

impl From<ClusterError> for SpcaError {
    fn from(e: ClusterError) -> Self {
        SpcaError::Cluster(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SpcaError::TooManyComponents { requested: 60, available: 50 };
        assert!(e.to_string().contains("60"));

        let e: SpcaError = LinalgError::Singular { routine: "lu", pivot: 0.0 }.into();
        assert!(std::error::Error::source(&e).is_some());

        let e: SpcaError =
            ClusterError::DriverOom { requested: 1, in_use: 0, limit: 0 }.into();
        assert!(e.to_string().contains("driver"));

        let e = SpcaError::InvalidServing { what: "tenant 0 has no model".into() };
        assert!(e.to_string().contains("tenant 0"));

        let e = SpcaError::InvalidConfig { what: "rpca_oversample = 0".into() };
        assert!(e.to_string().contains("invalid fit config"));
        assert!(e.to_string().contains("rpca_oversample"));

        let e = SpcaError::check_dims(12, 10).unwrap_err();
        assert_eq!(e, SpcaError::DimensionMismatch { expected: 10, found: 12 });
        assert!(e.to_string().contains("12 columns"));
        assert_eq!(SpcaError::check_dims(10, 10), Ok(()));
    }
}
