//! Simulated commodity cluster.
//!
//! The paper's evaluation ran on 8 Amazon EC2 nodes (64 cores). This crate
//! replaces that hardware with a *virtual-time* simulation that preserves
//! the quantities every experiment in Section 5 depends on:
//!
//! * **Compute** — every task closure really runs (on the host's threads)
//!   and its wall time is measured, then the measured durations are
//!   list-scheduled onto `nodes × cores_per_node` *virtual* cores. The
//!   virtual clock advances by the schedule's makespan, so doubling the
//!   virtual core count halves compute time for divisible work (Table 4)
//!   regardless of how many physical cores the host has.
//! * **Communication** — engines report every byte that crosses the
//!   simulated network or the simulated distributed filesystem; bytes are
//!   metered exactly (the intermediate-data results of Section 5.2) and
//!   converted to virtual time through configurable bandwidths.
//! * **Memory** — driver-side allocations are tracked against a
//!   configurable cap and fail with [`ClusterError::DriverOom`] when they
//!   exceed it, which is how MLlib-PCA's D > 6,000 failures reproduce
//!   (Figures 7 and 8).
//! * **Failure** — a seeded [`FaultPlan`] schedules *stateful* node
//!   crashes (cached partitions and DFS replicas really drop, first
//!   attempts really die) plus straggler slowdowns with optional
//!   speculative execution; every recovery action lands in a
//!   deterministic [`RecoveryEvent`] log. Faults change schedules, bytes,
//!   and logs — never results.

pub mod cluster;
pub mod config;
mod delivery;
pub mod events;
pub mod faults;
pub mod hdfs;
pub mod jobs;
pub mod metrics;
pub mod netsim;
pub mod scheduler;
pub mod timing;

pub use cluster::{ClusterError, DriverAlloc, LinkStat, Load, Meter, SimCluster, StageOptions};
pub use config::ClusterConfig;
pub use events::EventQueue;
pub use faults::{FaultEvent, FaultPlan, FaultSpec, RecoveryEvent};
pub use hdfs::Dfs;
pub use jobs::{schedule_jobs, JobRecord, JobSpec, ScheduleOutcome, SchedulerPolicy};
pub use metrics::{MetricsSnapshot, StageRecord};
pub use netsim::{CancelSpec, FlowOutcome, FlowSpec, Topology};
pub use timing::TimingModel;
