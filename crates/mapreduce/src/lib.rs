//! A MapReduce engine over the simulated cluster.
//!
//! Models the Hadoop execution the paper's sPCA-MapReduce and Mahout-PCA
//! implementations run on (Section 4.1):
//!
//! * **Partition-level mappers** — a map task processes one input partition
//!   and emits `(key, value)` pairs through an [`Emitter`]. Because the
//!   mapper owns the whole partition, the paper's *stateful combiner*
//!   pattern (accumulate partial `XtX`/`YtX` matrices in memory, emit once
//!   in `cleanup`) is expressed by simply emitting at the end of the map
//!   function; the inefficient per-row emission Mahout's Bt job performs is
//!   expressed by emitting inside the row loop. The byte difference —
//!   which is the paper's intermediate-data result — is metered exactly.
//! * **Combiners** — per-mapper aggregation applied to emitted pairs before
//!   the shuffle. Mapper output is charged to the simulated local disk
//!   (the spill) at its *pre-combine* size; the shuffle is charged to the
//!   network at its *post-combine* size, matching Hadoop's counters.
//! * **Reducers** — every mapper's combined output is a run sorted by key;
//!   the driver merges the runs with one stable sort (Hadoop's merge sort,
//!   so a key's values stay in mapper order) and parallel reduce tasks each
//!   walk a contiguous key range of the result.
//! * **Job overhead** — each job pays a flat virtual startup cost, the
//!   Hadoop job-initialization overhead the paper calls out when comparing
//!   small datasets on MapReduce vs Spark.

pub mod engine;
pub mod job;

pub use engine::{JobStats, MapReduceEngine};
pub use job::{Emitter, MapReduceJob};
