//! sPCA: scalable probabilistic principal component analysis.
//!
//! This crate is the paper's primary contribution (Sections 3–4): an
//! Expectation–Maximization implementation of probabilistic PCA
//! restructured for distributed execution, with four optimizations —
//!
//! 1. **Mean propagation** ([`mean_prop`]) — never subtract the column
//!    means from the sparse input; push the mean algebraically through
//!    every product so all distributed work stays O(nnz).
//! 2. **Minimized intermediate data** ([`em`]) — the large latent matrix
//!    `X` is never stored or shuffled; each job recomputes its rows
//!    on demand from the broadcast `CM` matrix, one `YtX` pass per
//!    iteration; `XtX` and `ss3` are driver algebra over its result.
//! 3. **In-memory matrix multiplication** — the small matrices (`C`, `M⁻¹`,
//!    `CM`) are broadcast to every task; each sparse row is multiplied
//!    against them locally (Section 3.3's Equation (2) pattern is used for
//!    the transpose products).
//! 4. **Sparse Frobenius norm** ([`frobenius`]) — Algorithm 3 computes
//!    `‖Y − 1⊗Ym‖²_F` touching non-zeros only.
//!
//! Entry points: [`Spca::fit_spark`] and [`Spca::fit_mapreduce`] run the
//! full distributed algorithm on the two simulated platforms; [`ppca`]
//! holds the single-machine reference implementation (the paper's
//! Algorithm 1) the distributed versions are tested against.

pub mod ablation;
pub mod accuracy;
pub mod checkpoint;
pub mod config;
pub mod driver;
pub mod em;
pub mod error;
pub mod frobenius;
pub mod init;
pub mod mean_prop;
pub mod model;
pub mod mr;
pub mod ppca;
pub mod rpca;
pub mod serving;
pub mod spark;

pub use config::{Algorithm, SpcaConfig};
pub use error::SpcaError;
pub use model::{IterationStat, PcaModel, SpcaRun};

use dcluster::SimCluster;
use linalg::SparseMat;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SpcaError>;

/// DFS name for a fit's materialized input: the legacy shared `name`
/// when the config carries no job id, `jobs/<id>/<name>` otherwise
/// (mirrors [`checkpoint::file_name`] for checkpoints).
pub(crate) fn scoped_input(config: &SpcaConfig, name: &str) -> String {
    match config.job_id.as_deref() {
        Some(job) => dcluster::hdfs::job_scoped(job, name),
        None => name.to_string(),
    }
}

/// Names `cluster`'s virtual process in traces and ledgers after the arm
/// family and engine about to fit on it: `sPCA-Spark`, `rPCA-MR`,
/// `Mahout-MR`, `MLlib-Spark`. Set before the fit's first trace event, so
/// the process is born with its name.
pub fn label_trace(cluster: &SimCluster, family: &str, engine: &str) {
    if obs::enabled() {
        cluster.set_trace_label(format!("{family}-{engine}"));
    }
}

/// The sPCA algorithm, configured and ready to fit.
///
/// ```
/// use dcluster::{ClusterConfig, SimCluster};
/// use linalg::Prng;
/// use spca_core::{Spca, SpcaConfig};
///
/// let mut rng = Prng::seed_from_u64(1);
/// let spec = datasets::LowRankSpec::small_test();
/// let y = datasets::sparse_lowrank(&spec, &mut rng);
///
/// let cluster = SimCluster::new(ClusterConfig::paper_cluster());
/// let run = Spca::new(SpcaConfig::new(3).with_max_iters(5))
///     .fit_spark(&cluster, &y)
///     .unwrap();
/// assert_eq!(run.model.components().cols(), 3);
/// // EM improves the sampled reconstruction error monotonically here.
/// assert!(run.final_error() <= run.iterations[0].error);
/// ```
#[derive(Debug, Clone)]
pub struct Spca {
    config: SpcaConfig,
}

impl Spca {
    /// Creates the algorithm with the given configuration.
    pub fn new(config: SpcaConfig) -> Self {
        Spca { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SpcaConfig {
        &self.config
    }

    /// Fits on the Spark-like engine. For the default [`Algorithm::PpcaEm`]
    /// this is Algorithm 4 + Algorithm 5 (accumulator-based `YtX` job,
    /// cached input RDD, millisecond task overheads); with
    /// [`Algorithm::Randomized`] it runs the fat-pass subspace iteration
    /// of [`rpca`] over the same persisted RDD.
    pub fn fit_spark(&self, cluster: &SimCluster, y: &SparseMat) -> Result<SpcaRun> {
        spark::fit(cluster, y, &self.config)
    }

    /// Fits on the MapReduce engine (Section 4.1): stateful-combiner
    /// mappers, composite shuffle keys, per-job Hadoop overheads,
    /// intermediate data through the simulated DFS. Dispatches on
    /// [`SpcaConfig::algorithm`] like [`Self::fit_spark`].
    pub fn fit_mapreduce(&self, cluster: &SimCluster, y: &SparseMat) -> Result<SpcaRun> {
        mr::fit(cluster, y, &self.config)
    }
}
