//! Cluster hardware description.

use linalg::wire::{Sizing, WireCodec};

use crate::cluster::ClusterError;
use crate::jobs::SchedulerPolicy;
use crate::timing::TimingModel;

/// Hardware and platform parameters of the simulated cluster.
///
/// The defaults mirror the paper's testbed: 8 Amazon EC2 m3.2xlarge nodes,
/// each with 8 cores and 32 GB of memory, on a ~1 Gbps network with
/// ~100 MB/s effective disk bandwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub nodes: usize,
    /// Cores per worker node.
    pub cores_per_node: usize,
    /// Memory per worker node, in bytes (caps RDD caching).
    pub memory_per_node: u64,
    /// Memory of the driver/master process, in bytes. Allocations past this
    /// fail — the MLlib-PCA failure mode of Figures 7–8.
    pub driver_memory: u64,
    /// Per-node network link bandwidth in bytes/sec; the cluster's
    /// aggregate shuffle bandwidth is this times the node count.
    pub network_bytes_per_sec: f64,
    /// Per-node disk bandwidth in bytes/sec (the DFS stripes across
    /// nodes); MapReduce routes intermediate data through disk on both
    /// ends of a shuffle.
    pub disk_bytes_per_sec: f64,
    /// Probability that a task's first attempt fails and is transparently
    /// re-executed (straggler/failure injection). Both platforms the paper
    /// targets retry failed tasks without algorithmic consequences; the
    /// simulator charges the retry's time but never its results.
    pub task_failure_rate: f64,
    /// Extra virtual seconds before a failed task's re-execution is
    /// scheduled (failure detection + rescheduling latency).
    pub task_retry_delay_secs: f64,
    /// DFS block replication factor (HDFS `dfs.replication`, default 3).
    /// A node crash drops that node's replicas; files still holding a
    /// replica are copied back to full strength, files that held their
    /// last replica there are lost and reads fail with
    /// [`ClusterError::BlockLost`].
    pub dfs_replication: usize,
    /// Always [`Sizing::Encoded`], the one pricing left. Only the frozen
    /// benchmark replay (`benchmark/src/replay.rs`) reads it; ROADMAP item
    /// 1(a) deletes it.
    pub byte_sizing: Sizing,
    /// Which frame generation shuffle-family records are priced in: exact
    /// v2 (default), bitpacked v3, or v3 with lossy `f32` payload
    /// quantization. Applies only to shuffle charge sites — broadcasts,
    /// collects, DFS blocks and checkpoints always stay exact v2. This
    /// moves byte meters and the virtual clock only; fitted models are
    /// bitwise identical under every codec.
    pub wire_codec: WireCodec,
    /// How metered bytes turn into virtual time: the legacy arithmetic
    /// full-aggregate-bandwidth model (default), or the discrete-event
    /// shared-bandwidth model where concurrent transfers contend for
    /// per-node links. Moves virtual time only — byte meters and fitted
    /// models are identical under either model.
    pub timing: TimingModel,
    /// Initial capacity of the discrete-event queue's binary heap (the
    /// heap still grows past it; this only pre-sizes the allocation).
    pub event_queue_capacity: usize,
    /// Job-level scheduling policy for multi-tenant fit queues (see
    /// [`crate::jobs`]). Moves only when jobs run — each job's fitted
    /// model is bitwise identical under every policy.
    pub scheduler: SchedulerPolicy,
    /// Per-tenant fair-share weights, indexed by tenant id. Only read
    /// under [`SchedulerPolicy::FairShare`], but validated always so a
    /// policy switch cannot surface a latent bad config.
    pub fair_share_weights: Vec<f64>,
    /// Bound on the scheduler's pending-job queue *and* each serving
    /// node's request queue: arrivals that find the queue full are
    /// deterministically rejected and counted.
    pub admission_queue_capacity: usize,
    /// Per-node budget for cached fitted models on the serving path, in
    /// bytes. A model is broadcast to a node on first use and evicted
    /// LRU-by-bytes when the budget overflows.
    pub model_cache_bytes: u64,
}

impl ClusterConfig {
    /// The paper's 8-node × 8-core EC2 cluster.
    pub fn paper_cluster() -> Self {
        ClusterConfig {
            nodes: 8,
            cores_per_node: 8,
            memory_per_node: 32 << 30,
            driver_memory: 32 << 30,
            network_bytes_per_sec: 120e6,
            disk_bytes_per_sec: 100e6,
            task_failure_rate: 0.0,
            task_retry_delay_secs: 2.0,
            dfs_replication: 3,
            byte_sizing: Sizing::Encoded,
            wire_codec: WireCodec::V2,
            timing: TimingModel::Uncontended,
            event_queue_capacity: 4096,
            scheduler: SchedulerPolicy::Fifo,
            fair_share_weights: vec![1.0],
            admission_queue_capacity: 32,
            model_cache_bytes: 64 << 20,
        }
    }

    /// A scaled-down cluster for laptop-scale experiments: same shape as
    /// the paper's, with memory *and bandwidth* scaled so the scaled
    /// datasets hit the same walls at proportionally smaller sizes.
    ///
    /// Memory is scaled so MLlib's D x D driver matrix fails at a few
    /// thousand columns (as it fails at ~6,000 on the paper's 32 GB
    /// machines). Bandwidth is scaled because the replica datasets are
    /// ~3 orders of magnitude smaller than the paper's: with full EC2
    /// bandwidth, every algorithm's communication would round to zero and
    /// fixed job overheads would decide every comparison — scaling the
    /// links preserves the paper's communication-to-compute weight, which
    /// is the thing its headline results are about.
    pub fn scaled_cluster() -> Self {
        ClusterConfig {
            nodes: 8,
            cores_per_node: 8,
            memory_per_node: 512 << 20,
            driver_memory: 96 << 20,
            network_bytes_per_sec: 1.5e6,
            disk_bytes_per_sec: 1.2e6,
            task_failure_rate: 0.0,
            task_retry_delay_secs: 2.0,
            dfs_replication: 3,
            byte_sizing: Sizing::Encoded,
            wire_codec: WireCodec::V2,
            timing: TimingModel::Uncontended,
            event_queue_capacity: 4096,
            scheduler: SchedulerPolicy::Fifo,
            fair_share_weights: vec![1.0],
            admission_queue_capacity: 32,
            model_cache_bytes: 64 << 20,
        }
    }

    /// Builder-style override of the job-level scheduling policy.
    pub fn with_scheduler(mut self, policy: SchedulerPolicy) -> Self {
        self.scheduler = policy;
        self
    }

    /// Builder-style override of the per-tenant fair-share weights.
    pub fn with_fair_share_weights(mut self, weights: Vec<f64>) -> Self {
        self.fair_share_weights = weights;
        self
    }

    /// Builder-style override of the admission queue bound.
    pub fn with_admission_queue_capacity(mut self, capacity: usize) -> Self {
        self.admission_queue_capacity = capacity;
        self
    }

    /// Builder-style override of the per-node model-cache budget.
    pub fn with_model_cache_bytes(mut self, bytes: u64) -> Self {
        self.model_cache_bytes = bytes;
        self
    }

    /// Builder-style override of the I/O timing model.
    pub fn with_timing(mut self, timing: TimingModel) -> Self {
        self.timing = timing;
        self
    }

    /// Builder-style override of the event queue's initial heap capacity.
    pub fn with_event_queue_capacity(mut self, capacity: usize) -> Self {
        self.event_queue_capacity = capacity;
        self
    }

    /// Builder-style override of the shuffle wire codec.
    pub fn with_wire_codec(mut self, codec: WireCodec) -> Self {
        self.wire_codec = codec;
        self
    }

    /// Builder-style override of the task failure rate.
    pub fn with_task_failure_rate(mut self, rate: f64) -> Self {
        assert!((0.0..1.0).contains(&rate), "failure rate must be in [0, 1)");
        self.task_failure_rate = rate;
        self
    }

    /// Builder-style override of the node count.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Builder-style override of cores per node.
    pub fn with_cores_per_node(mut self, cores: usize) -> Self {
        self.cores_per_node = cores;
        self
    }

    /// Builder-style override of driver memory.
    pub fn with_driver_memory(mut self, bytes: u64) -> Self {
        self.driver_memory = bytes;
        self
    }

    /// Builder-style override of per-node memory.
    pub fn with_memory_per_node(mut self, bytes: u64) -> Self {
        self.memory_per_node = bytes;
        self
    }

    /// Builder-style override of the retry rescheduling delay.
    pub fn with_task_retry_delay(mut self, secs: f64) -> Self {
        self.task_retry_delay_secs = secs;
        self
    }

    /// Builder-style override of the DFS replication factor.
    pub fn with_dfs_replication(mut self, factor: usize) -> Self {
        self.dfs_replication = factor;
        self
    }

    /// Checks every knob for a physically meaningful value. Called by
    /// `SimCluster::new`, so a bad config fails at construction instead of
    /// corrupting a simulation half-way through.
    pub fn validate(&self) -> Result<(), ClusterError> {
        let bad = |what: String| Err(ClusterError::InvalidConfig { what });
        if self.timing == TimingModel::Contended && self.nodes == 0 {
            return bad(
                "contended timing needs at least one node (the link topology is per-node)".into(),
            );
        }
        if self.nodes == 0 {
            return bad("nodes must be >= 1".into());
        }
        if self.event_queue_capacity == 0 {
            return bad("event_queue_capacity must be >= 1".into());
        }
        if self.cores_per_node == 0 {
            return bad("cores_per_node must be >= 1".into());
        }
        if !self.task_failure_rate.is_finite() || !(0.0..1.0).contains(&self.task_failure_rate) {
            return bad(format!(
                "task_failure_rate must be in [0, 1), got {}",
                self.task_failure_rate
            ));
        }
        if !self.task_retry_delay_secs.is_finite() || self.task_retry_delay_secs < 0.0 {
            return bad(format!(
                "task_retry_delay_secs must be >= 0, got {}",
                self.task_retry_delay_secs
            ));
        }
        if self.dfs_replication == 0 {
            return bad("dfs_replication must be >= 1 (0 would store no block at all)".into());
        }
        if !self.network_bytes_per_sec.is_finite() || self.network_bytes_per_sec <= 0.0 {
            return bad(format!(
                "network_bytes_per_sec must be > 0, got {}",
                self.network_bytes_per_sec
            ));
        }
        if !self.disk_bytes_per_sec.is_finite() || self.disk_bytes_per_sec <= 0.0 {
            return bad(format!("disk_bytes_per_sec must be > 0, got {}", self.disk_bytes_per_sec));
        }
        if self.fair_share_weights.is_empty() {
            return bad(
                "fair_share_weights must name at least one tenant (an empty weight table \
                 would give every tenant zero entitlement)"
                    .into(),
            );
        }
        for (tenant, &w) in self.fair_share_weights.iter().enumerate() {
            if !w.is_finite() || w <= 0.0 {
                return bad(format!(
                    "fair_share_weights[{tenant}] must be a finite weight > 0, got {w}"
                ));
            }
        }
        if self.admission_queue_capacity == 0 {
            return bad(
                "admission_queue_capacity must be >= 1 (0 would reject every arrival)".into(),
            );
        }
        if self.model_cache_bytes == 0 {
            return bad(
                "model_cache_bytes must be >= 1 (a zero cache could never hold a model)".into(),
            );
        }
        Ok(())
    }

    /// Stable key/value description of the config for run ledgers: every
    /// knob that can move a run's byte meters or virtual clock. Keys are
    /// sorted by construction; values use the same labels as the CLI.
    pub fn fingerprint(&self) -> Vec<(String, String)> {
        let weights: Vec<String> =
            self.fair_share_weights.iter().map(|w| format!("{w}")).collect();
        vec![
            (
                "cluster.admission_queue_capacity".into(),
                self.admission_queue_capacity.to_string(),
            ),
            ("cluster.cores_per_node".into(), self.cores_per_node.to_string()),
            ("cluster.dfs_replication".into(), self.dfs_replication.to_string()),
            ("cluster.disk_bytes_per_sec".into(), format!("{}", self.disk_bytes_per_sec)),
            ("cluster.driver_memory".into(), self.driver_memory.to_string()),
            ("cluster.event_queue_capacity".into(), self.event_queue_capacity.to_string()),
            ("cluster.fair_share_weights".into(), weights.join(",")),
            ("cluster.memory_per_node".into(), self.memory_per_node.to_string()),
            ("cluster.model_cache_bytes".into(), self.model_cache_bytes.to_string()),
            ("cluster.network_bytes_per_sec".into(), format!("{}", self.network_bytes_per_sec)),
            ("cluster.nodes".into(), self.nodes.to_string()),
            ("cluster.scheduler".into(), self.scheduler.label().to_string()),
            ("cluster.task_failure_rate".into(), format!("{}", self.task_failure_rate)),
            ("cluster.task_retry_delay_secs".into(), format!("{}", self.task_retry_delay_secs)),
            ("cluster.timing".into(), self.timing.label().to_string()),
            ("cluster.wire_codec".into(), self.wire_codec.label().to_string()),
        ]
    }

    /// Total virtual cores across the cluster.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }

    /// Aggregate worker memory across the cluster.
    pub fn total_memory(&self) -> u64 {
        self.memory_per_node * self.nodes as u64
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::paper_cluster()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_matches_section5() {
        let c = ClusterConfig::paper_cluster();
        assert_eq!(c.nodes, 8);
        assert_eq!(c.cores_per_node, 8);
        assert_eq!(c.total_cores(), 64);
        assert_eq!(c.memory_per_node, 32 << 30);
    }

    #[test]
    fn builders_override_fields() {
        let c = ClusterConfig::paper_cluster().with_nodes(2).with_cores_per_node(4);
        assert_eq!(c.total_cores(), 8);
        let c = c.with_driver_memory(1024).with_memory_per_node(2048);
        assert_eq!(c.driver_memory, 1024);
        assert_eq!(c.total_memory(), 4096);
        let c = c.with_dfs_replication(2).with_task_retry_delay(0.5);
        assert_eq!(c.dfs_replication, 2);
        assert_eq!(c.task_retry_delay_secs, 0.5);
        assert_eq!(c.wire_codec, WireCodec::V2);
        let c = c.with_wire_codec(WireCodec::V3Quantized);
        assert_eq!(c.wire_codec, WireCodec::V3Quantized);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn default_configs_validate() {
        assert!(ClusterConfig::paper_cluster().validate().is_ok());
        assert!(ClusterConfig::scaled_cluster().validate().is_ok());
    }

    fn rejected(c: ClusterConfig) -> String {
        match c.validate() {
            Err(ClusterError::InvalidConfig { what }) => what,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_failure_rate_of_one() {
        let mut c = ClusterConfig::paper_cluster();
        c.task_failure_rate = 1.0;
        assert!(rejected(c).contains("task_failure_rate"));
    }

    #[test]
    fn validate_rejects_negative_failure_rate() {
        let mut c = ClusterConfig::paper_cluster();
        c.task_failure_rate = -0.1;
        assert!(rejected(c).contains("task_failure_rate"));
    }

    #[test]
    fn validate_rejects_nan_failure_rate() {
        let mut c = ClusterConfig::paper_cluster();
        c.task_failure_rate = f64::NAN;
        assert!(rejected(c).contains("task_failure_rate"));
    }

    #[test]
    fn validate_rejects_negative_retry_delay() {
        let c = ClusterConfig::paper_cluster().with_task_retry_delay(-1.0);
        assert!(rejected(c).contains("task_retry_delay_secs"));
    }

    #[test]
    fn validate_rejects_zero_replication() {
        let c = ClusterConfig::paper_cluster().with_dfs_replication(0);
        assert!(rejected(c).contains("dfs_replication"));
    }

    #[test]
    fn validate_rejects_empty_cluster() {
        assert!(rejected(ClusterConfig::paper_cluster().with_nodes(0)).contains("nodes"));
        assert!(
            rejected(ClusterConfig::paper_cluster().with_cores_per_node(0)).contains("cores")
        );
    }

    #[test]
    fn validate_rejects_zero_network_bandwidth() {
        let mut c = ClusterConfig::paper_cluster();
        c.network_bytes_per_sec = 0.0;
        assert!(rejected(c).contains("network_bytes_per_sec"));
    }

    #[test]
    fn validate_rejects_negative_network_bandwidth() {
        let mut c = ClusterConfig::paper_cluster();
        c.network_bytes_per_sec = -1.0;
        assert!(rejected(c).contains("network_bytes_per_sec"));
    }

    #[test]
    fn validate_rejects_zero_disk_bandwidth() {
        let mut c = ClusterConfig::paper_cluster();
        c.disk_bytes_per_sec = 0.0;
        assert!(rejected(c).contains("disk_bytes_per_sec"));
    }

    #[test]
    fn validate_rejects_negative_disk_bandwidth() {
        let mut c = ClusterConfig::paper_cluster();
        c.disk_bytes_per_sec = -5.0;
        assert!(rejected(c).contains("disk_bytes_per_sec"));
    }

    #[test]
    fn validate_rejects_zero_event_queue_capacity() {
        let c = ClusterConfig::paper_cluster().with_event_queue_capacity(0);
        assert!(rejected(c).contains("event_queue_capacity"));
    }

    #[test]
    fn validate_rejects_contended_with_zero_nodes() {
        let c = ClusterConfig::paper_cluster().with_timing(TimingModel::Contended).with_nodes(0);
        let what = rejected(c);
        assert!(what.contains("contended"), "got: {what}");
    }

    #[test]
    fn validate_rejects_empty_fair_share_weights() {
        let c = ClusterConfig::paper_cluster().with_fair_share_weights(vec![]);
        assert!(rejected(c).contains("fair_share_weights"));
    }

    #[test]
    fn validate_rejects_zero_tenant_weight() {
        let c = ClusterConfig::paper_cluster().with_fair_share_weights(vec![1.0, 0.0]);
        assert!(rejected(c).contains("fair_share_weights[1]"));
    }

    #[test]
    fn validate_rejects_nan_tenant_weight() {
        let c = ClusterConfig::paper_cluster().with_fair_share_weights(vec![f64::NAN]);
        assert!(rejected(c).contains("fair_share_weights[0]"));
    }

    #[test]
    fn validate_rejects_zero_admission_queue_capacity() {
        let c = ClusterConfig::paper_cluster().with_admission_queue_capacity(0);
        assert!(rejected(c).contains("admission_queue_capacity"));
    }

    #[test]
    fn validate_rejects_zero_model_cache() {
        let c = ClusterConfig::paper_cluster().with_model_cache_bytes(0);
        assert!(rejected(c).contains("model_cache_bytes"));
    }

    #[test]
    fn scheduler_defaults_to_fifo_and_fingerprints() {
        let c = ClusterConfig::scaled_cluster();
        assert_eq!(c.scheduler, SchedulerPolicy::Fifo);
        assert_eq!(c.admission_queue_capacity, 32);
        let c = c
            .with_scheduler(SchedulerPolicy::FairShare)
            .with_fair_share_weights(vec![1.0, 4.0])
            .with_admission_queue_capacity(7)
            .with_model_cache_bytes(1 << 20);
        assert!(c.validate().is_ok());
        let fp = c.fingerprint();
        assert!(fp.contains(&("cluster.scheduler".into(), "fair-share".into())));
        assert!(fp.contains(&("cluster.fair_share_weights".into(), "1,4".into())));
        assert!(fp.contains(&("cluster.admission_queue_capacity".into(), "7".into())));
        assert!(fp.contains(&("cluster.model_cache_bytes".into(), "1048576".into())));
    }

    #[test]
    fn timing_defaults_to_uncontended_and_fingerprints() {
        let c = ClusterConfig::scaled_cluster();
        assert_eq!(c.timing, TimingModel::Uncontended);
        assert_eq!(c.event_queue_capacity, 4096);
        let c = c.with_timing(TimingModel::Contended).with_event_queue_capacity(128);
        assert!(c.validate().is_ok());
        let fp = c.fingerprint();
        assert!(fp.contains(&("cluster.timing".into(), "contended".into())));
        assert!(fp.contains(&("cluster.event_queue_capacity".into(), "128".into())));
        let keys: Vec<&String> = fp.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "fingerprint keys must stay sorted");
    }
}
