//! "Sparkle": a Spark-like engine over the simulated cluster.
//!
//! Models the Spark 1.0 execution environment of the paper's sPCA-Spark and
//! MLlib-PCA (Section 4.2):
//!
//! * [`Rdd`] — a partitioned, in-memory dataset. Transformations launch
//!   stages on the simulated cluster; iterating over a cached RDD touches
//!   memory only (no per-iteration disk I/O — the property that makes the
//!   Spark implementations fast), except for the spill fraction when the
//!   dataset exceeds the cluster's aggregate memory.
//! * [`Rdd::aggregate`] — accumulator-style aggregation: each task folds
//!   into a per-task local value, and only those partials travel to the
//!   driver. This is exactly Algorithm 5's `YtXSum`/`XtXSum` accumulators
//!   ("the partial results are summed up in the same map operation …
//!   eliminating the need for reduce operations").
//! * Driver memory — values collected or aggregated to the driver can be
//!   tracked against the configured driver memory through
//!   [`dcluster::SimCluster::alloc_driver`]; MLlib-PCA's D×D Gram matrix
//!   failing past the driver cap is the paper's Figure 7/8 failure mode.
//!
//! Unlike real Spark, transformations here are *eager* — each returns a
//! materialized RDD. For the linear dataflows of every algorithm in this
//! reproduction the distinction is unobservable in the metrics.

pub mod broadcast;
pub mod context;
pub mod rdd;

pub use broadcast::Broadcast;
pub use context::SparkleContext;
pub use rdd::{tree_merge, tree_merge_rows, Lineage, Rdd, TreeFold};
