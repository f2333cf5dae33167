//! Deterministic fault plans and the recovery-event log.
//!
//! The simulator's one fault-injection path, and a *stateful* one: a
//! seeded [`FaultPlan`] schedules node crashes at specific global stage
//! indices, and a crashed node really loses its share of cached RDD
//! partitions, its DFS block replicas, and the in-flight first attempts of
//! its tasks. Recovery is algorithmic and
//! platform-specific (lineage recomputation in `sparkle`, HDFS re-reads in
//! `mapreduce`, re-replication in the DFS) — every recovery action is
//! appended to a structural [`RecoveryEvent`] log.
//!
//! # Determinism
//!
//! The simulator's contract is that results — and now recovery logs — are
//! bitwise identical across host worker-pool sizes. Everything here is
//! therefore keyed on *structure*, never on measured time:
//!
//! * fault events fire at a **global stage index** (a counter bumped once
//!   per `run_stage`), not at a virtual timestamp — virtual durations are
//!   measured host time and vary run to run;
//! * straggler selection hashes `(seed, stage index, task index)`;
//! * a task lands on node `task_index % nodes`, a cached partition on node
//!   `partition_index % nodes`, a DFS replica set is a hash of the file
//!   name — all plain functions of indices;
//! * log entries carry only indices and names, no floats. Timing effects
//!   (slowdowns, speculation wins, recompute seconds) go to `obs`
//!   counters and histograms, which are allowed to vary.

use std::collections::{BTreeMap, BTreeSet};

use crate::cluster::ClusterError;

/// Splitmix64 finalizer — the repo's standard cheap deterministic hash.
pub(crate) fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a hash to `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Declarative description of the fault environment. Seeded and pure —
/// the same spec always yields the same fault behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed for every fault decision (crash schedule, straggler picks).
    pub seed: u64,
    /// Fraction of nodes that crash over the horizon (`[0, 1]`). The
    /// number of crashes is `round(rate * nodes)`, at least one when the
    /// rate is nonzero.
    pub node_crash_rate: f64,
    /// Crashes are scheduled uniformly over global stages
    /// `[0, crash_horizon_stages)`. Must be ≥ 1.
    pub crash_horizon_stages: u64,
    /// Probability that a task is a straggler (`[0, 1)`).
    pub straggler_rate: f64,
    /// Duration multiplier for a straggling attempt (≥ 1).
    pub straggler_slowdown: f64,
    /// Launch a speculative backup copy of straggling tasks and take the
    /// first finisher (Spark `spark.speculation` / Hadoop speculative
    /// execution).
    pub speculation: bool,
    /// The backup launches once this quantile of the stage's base task
    /// durations has elapsed (`(0, 1)`; the classic 0.75 default).
    pub speculation_quantile: f64,
}

impl FaultSpec {
    /// A quiet spec (no crashes, no stragglers) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultSpec {
            seed,
            node_crash_rate: 0.0,
            crash_horizon_stages: 1,
            straggler_rate: 0.0,
            straggler_slowdown: 1.0,
            speculation: false,
            speculation_quantile: 0.75,
        }
    }

    /// Sets the fraction of nodes crashed over the horizon.
    pub fn with_node_crash_rate(mut self, rate: f64) -> Self {
        self.node_crash_rate = rate;
        self
    }

    /// Sets the stage window crashes are scheduled within.
    pub fn with_crash_horizon_stages(mut self, stages: u64) -> Self {
        self.crash_horizon_stages = stages;
        self
    }

    /// Sets the per-task straggler probability.
    pub fn with_straggler_rate(mut self, rate: f64) -> Self {
        self.straggler_rate = rate;
        self
    }

    /// Sets the straggler duration multiplier.
    pub fn with_straggler_slowdown(mut self, factor: f64) -> Self {
        self.straggler_slowdown = factor;
        self
    }

    /// Enables or disables speculative execution.
    pub fn with_speculation(mut self, on: bool) -> Self {
        self.speculation = on;
        self
    }

    /// Sets the speculation launch quantile.
    pub fn with_speculation_quantile(mut self, q: f64) -> Self {
        self.speculation_quantile = q;
        self
    }

    /// Checks every knob, mirroring `ClusterConfig::validate`.
    pub fn validate(&self) -> Result<(), ClusterError> {
        let bad = |what: String| Err(ClusterError::InvalidConfig { what });
        if !self.node_crash_rate.is_finite() || !(0.0..=1.0).contains(&self.node_crash_rate) {
            return bad(format!("node_crash_rate must be in [0, 1], got {}", self.node_crash_rate));
        }
        if self.crash_horizon_stages == 0 {
            return bad("crash_horizon_stages must be >= 1".into());
        }
        if !self.straggler_rate.is_finite() || !(0.0..1.0).contains(&self.straggler_rate) {
            return bad(format!("straggler_rate must be in [0, 1), got {}", self.straggler_rate));
        }
        if !self.straggler_slowdown.is_finite() || self.straggler_slowdown < 1.0 {
            return bad(format!(
                "straggler_slowdown must be >= 1, got {}",
                self.straggler_slowdown
            ));
        }
        if !self.speculation_quantile.is_finite()
            || !(0.0..1.0).contains(&self.speculation_quantile)
            || self.speculation_quantile <= 0.0
        {
            return bad(format!(
                "speculation_quantile must be in (0, 1), got {}",
                self.speculation_quantile
            ));
        }
        Ok(())
    }

    /// Whether a task straggles, as a pure function of the identifiers.
    pub(crate) fn task_straggles(&self, stage: u64, task: usize) -> bool {
        if self.straggler_rate <= 0.0 {
            return false;
        }
        let h = mix(self.seed ^ stage.wrapping_mul(0x51ed_270b) ^ (task as u64).wrapping_mul(0x9e6d));
        unit(h) < self.straggler_rate
    }
}

/// A scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Node `node` crashes while global stage `at_stage` runs: its cached
    /// partitions and DFS replicas are dropped and its in-flight first
    /// attempts fail. The node rejoins (blank) immediately after.
    NodeCrash {
        /// Crashed node index.
        node: usize,
        /// Global stage index the crash lands in.
        at_stage: u64,
    },
}

impl FaultEvent {
    fn at_stage(&self) -> u64 {
        match *self {
            FaultEvent::NodeCrash { at_stage, .. } => at_stage,
        }
    }
}

/// An ordered crash schedule. Build one explicitly with [`with_crash`] or
/// derive it from a [`FaultSpec`] with [`generate`].
///
/// [`with_crash`]: FaultPlan::with_crash
/// [`generate`]: FaultPlan::generate
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds an explicit node crash.
    pub fn with_crash(mut self, node: usize, at_stage: u64) -> Self {
        self.events.push(FaultEvent::NodeCrash { node, at_stage });
        self
    }

    /// The scheduled events, sorted by stage then node.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Derives the crash schedule from a spec: `round(rate * nodes)`
    /// distinct nodes (at least one when the rate is nonzero) crash at
    /// seeded stages uniform in `[0, crash_horizon_stages)`.
    pub fn generate(spec: &FaultSpec, nodes: usize) -> Self {
        let mut plan = FaultPlan::new();
        if spec.node_crash_rate <= 0.0 || nodes == 0 {
            return plan;
        }
        let count = ((spec.node_crash_rate * nodes as f64).round() as usize).clamp(1, nodes);
        let mut chosen = BTreeSet::new();
        let mut draw = 0u64;
        while chosen.len() < count {
            let node = (mix(spec.seed ^ 0xc4a5 ^ draw) as usize) % nodes;
            draw += 1;
            if !chosen.insert(node) {
                continue;
            }
            let at_stage = mix(spec.seed ^ 0x5eed ^ node as u64) % spec.crash_horizon_stages;
            plan.events.push(FaultEvent::NodeCrash { node, at_stage });
        }
        plan.sort();
        plan
    }

    pub(crate) fn sort(&mut self) {
        self.events.sort_by_key(|e| match *e {
            FaultEvent::NodeCrash { node, at_stage } => (at_stage, node),
        });
    }
}

/// One entry in the recovery log. Structural only — indices and names, no
/// measured times — so logs compare equal across host pool sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// A scheduled node crash fired.
    NodeCrashed {
        /// Crashed node.
        node: usize,
        /// Global stage index the crash landed in.
        stage: u64,
    },
    /// A task's first attempt died with its node and was re-executed.
    TaskReattempted {
        /// Global stage index.
        stage: u64,
        /// Task index within the stage.
        task: usize,
    },
    /// A speculative backup copy of a straggling task was launched.
    SpeculativeAttempt {
        /// Global stage index.
        stage: u64,
        /// Task index within the stage.
        task: usize,
    },
    /// A lost cached partition was recomputed from its lineage.
    PartitionRecomputed {
        /// Cache id assigned by [`SimCluster::register_cache`].
        ///
        /// [`SimCluster::register_cache`]: crate::SimCluster::register_cache
        cache: u64,
        /// Partition index within that cache.
        partition: usize,
    },
    /// A DFS block lost a replica and was copied back to full strength.
    BlockReReplicated {
        /// DFS file name.
        file: String,
    },
    /// A DFS file lost its last replica; subsequent reads fail.
    BlockLost {
        /// DFS file name.
        file: String,
    },
    /// An EM checkpoint was written at an iteration boundary.
    CheckpointWritten {
        /// EM iteration the checkpoint captures.
        iteration: u64,
    },
    /// A run resumed from a checkpoint instead of restarting.
    CheckpointRestored {
        /// EM iteration the checkpoint captured.
        iteration: u64,
    },
}

impl RecoveryEvent {
    /// Short kind label for report tables.
    pub fn kind(&self) -> &'static str {
        match self {
            RecoveryEvent::NodeCrashed { .. } => "node_crashed",
            RecoveryEvent::TaskReattempted { .. } => "task_reattempted",
            RecoveryEvent::SpeculativeAttempt { .. } => "speculative_attempt",
            RecoveryEvent::PartitionRecomputed { .. } => "partition_recomputed",
            RecoveryEvent::BlockReReplicated { .. } => "block_re_replicated",
            RecoveryEvent::BlockLost { .. } => "block_lost",
            RecoveryEvent::CheckpointWritten { .. } => "checkpoint_written",
            RecoveryEvent::CheckpointRestored { .. } => "checkpoint_restored",
        }
    }
}

/// A registered in-memory cache (one per persisted RDD): how many
/// partitions it holds and which of them a crash has invalidated.
#[derive(Debug, Default)]
pub(crate) struct CacheEntry {
    pub(crate) partitions: usize,
    pub(crate) lost: BTreeSet<usize>,
}

/// The cluster's mutable fault state: the active plan (with a cursor into
/// its sorted events), the append-only recovery log, and the cache
/// registry. Lives behind one mutex on `SimCluster`; that lock is never
/// held across metrics or DFS locks.
#[derive(Debug, Default)]
pub(crate) struct FaultDomain {
    pub(crate) plan: Option<ActivePlan>,
    pub(crate) log: Vec<RecoveryEvent>,
    pub(crate) caches: BTreeMap<u64, CacheEntry>,
    pub(crate) next_cache_id: u64,
}

#[derive(Debug)]
pub(crate) struct ActivePlan {
    pub(crate) spec: FaultSpec,
    pub(crate) events: Vec<FaultEvent>,
    /// Index of the first event not yet fired.
    pub(crate) cursor: usize,
}

impl ActivePlan {
    /// Pops every crash due at or before `stage`.
    pub(crate) fn due(&mut self, stage: u64) -> Vec<usize> {
        let mut nodes = Vec::new();
        while self.cursor < self.events.len() && self.events[self.cursor].at_stage() <= stage {
            let FaultEvent::NodeCrash { node, .. } = self.events[self.cursor];
            nodes.push(node);
            self.cursor += 1;
        }
        nodes
    }
}

/// The `q`-quantile (nearest-rank) of `values`; 0 for an empty slice.
pub(crate) fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic_and_respects_rate() {
        let spec = FaultSpec::new(7).with_node_crash_rate(0.25).with_crash_horizon_stages(10);
        let a = FaultPlan::generate(&spec, 8);
        let b = FaultPlan::generate(&spec, 8);
        assert_eq!(a, b, "same spec must yield the same plan");
        assert_eq!(a.events().len(), 2, "25% of 8 nodes");
        let nodes: BTreeSet<_> = a
            .events()
            .iter()
            .map(|e| match *e {
                FaultEvent::NodeCrash { node, at_stage } => {
                    assert!(at_stage < 10);
                    node
                }
            })
            .collect();
        assert_eq!(nodes.len(), 2, "crashed nodes must be distinct");
    }

    #[test]
    fn generate_nonzero_rate_crashes_at_least_one_node() {
        let spec = FaultSpec::new(1).with_node_crash_rate(0.01);
        assert_eq!(FaultPlan::generate(&spec, 8).events().len(), 1);
        let quiet = FaultSpec::new(1);
        assert!(FaultPlan::generate(&quiet, 8).events().is_empty());
    }

    #[test]
    fn plan_events_sorted_by_stage() {
        let mut plan = FaultPlan::new().with_crash(3, 9).with_crash(1, 2).with_crash(0, 2);
        plan.sort();
        let stages: Vec<u64> = plan.events().iter().map(|e| e.at_stage()).collect();
        assert_eq!(stages, vec![2, 2, 9]);
    }

    #[test]
    fn spec_validation_rejects_bad_knobs() {
        let ok = FaultSpec::new(0)
            .with_node_crash_rate(0.5)
            .with_straggler_rate(0.3)
            .with_straggler_slowdown(4.0)
            .with_speculation(true);
        assert!(ok.validate().is_ok());
        for bad in [
            FaultSpec::new(0).with_node_crash_rate(1.5),
            FaultSpec::new(0).with_node_crash_rate(f64::NAN),
            FaultSpec::new(0).with_crash_horizon_stages(0),
            FaultSpec::new(0).with_straggler_rate(1.0),
            FaultSpec::new(0).with_straggler_slowdown(0.5),
            FaultSpec::new(0).with_speculation_quantile(0.0),
            FaultSpec::new(0).with_speculation_quantile(1.0),
        ] {
            assert!(
                matches!(bad.validate(), Err(ClusterError::InvalidConfig { .. })),
                "spec should be rejected: {bad:?}"
            );
        }
    }

    #[test]
    fn straggler_selection_is_pure() {
        let spec = FaultSpec::new(42).with_straggler_rate(0.3);
        let picks: Vec<bool> = (0..64).map(|t| spec.task_straggles(5, t)).collect();
        let again: Vec<bool> = (0..64).map(|t| spec.task_straggles(5, t)).collect();
        assert_eq!(picks, again);
        let hits = picks.iter().filter(|&&p| p).count();
        assert!(hits > 0 && hits < 64, "rate 0.3 over 64 tasks should be partial: {hits}");
    }

    #[test]
    fn quantile_nearest_rank() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.75), 3.0);
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert_eq!(quantile(&[], 0.75), 0.0);
    }

    #[test]
    fn active_plan_cursor_fires_once() {
        let mut plan = FaultPlan::new().with_crash(1, 2).with_crash(2, 5);
        plan.sort();
        let mut active =
            ActivePlan { spec: FaultSpec::new(0), events: plan.events().to_vec(), cursor: 0 };
        assert!(active.due(1).is_empty());
        assert_eq!(active.due(3), vec![1]);
        assert!(active.due(3).is_empty(), "an event fires exactly once");
        assert_eq!(active.due(5), vec![2]);
    }
}
