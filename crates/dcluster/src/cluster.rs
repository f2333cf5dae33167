//! The simulated cluster: real task execution, virtual accounting.
//!
//! Task execution runs on the persistent [`linalg::WorkerPool`] — the same
//! pool the blocked kernels use. The virtual clock advances by the
//! schedule of the measured per-task durations.
//!
//! # Pricing
//!
//! The timing model is chosen once, when the cluster is built: a private
//! `Pricing` is either the aggregate-bandwidth arithmetic with global LPT
//! stages ([`TimingModel::Uncontended`]) or the shared-bandwidth flow
//! simulator with per-host stage schedules ([`TimingModel::Contended`]).
//! Every byte that crosses the network or touches the DFS is charged
//! through [`SimCluster::charge`], which takes the [`Meter`], how the
//! bytes fall on the nodes ([`Load`]) and the critical-path label; only
//! that path, the stage makespan and a crashed task's re-read look at the
//! model.
//!
//! # Tracing
//!
//! When an [`obs`] collector is installed, each cluster lazily allocates a
//! *virtual process* in the trace (one pid per simulated cluster clock,
//! named via [`SimCluster::set_trace_label`]) and emits stage spans,
//! byte-meter counter series, and driver spans on the **virtual** time
//! axis, while stage execution also appears as host-wall-time spans on the
//! caller's thread track. With no collector, every site reduces to one
//! relaxed atomic load.

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use linalg::WorkerPool;

use crate::config::ClusterConfig;
use crate::delivery::Delivery;
use crate::faults::{quantile, ActivePlan, CacheEntry, FaultDomain, FaultPlan, FaultSpec, RecoveryEvent};
use crate::hdfs::Dfs;
use crate::metrics::{Metrics, MetricsSnapshot, StageRecord, TimeCategory};
use crate::netsim::{self, CancelSpec, FlowSpec, Topology};
use crate::scheduler::{host_schedule, makespan_with_critical};
use crate::timing::TimingModel;
use std::sync::atomic::{AtomicU64, Ordering};

/// Errors surfaced by the cluster.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A driver-side allocation exceeded the configured driver memory —
    /// the failure MLlib-PCA hits past D ≈ 6,000 in the paper.
    DriverOom {
        /// Bytes the caller asked for.
        requested: u64,
        /// Bytes already live in the driver.
        in_use: u64,
        /// Configured driver memory.
        limit: u64,
    },
    /// A DFS read named a file that was never written.
    NoSuchFile {
        /// The requested file name.
        name: String,
    },
    /// A DFS read named a file whose last replica died with a crashed
    /// node (under-replicated data is really gone).
    BlockLost {
        /// The requested file name.
        name: String,
    },
    /// A configuration knob had a physically meaningless value.
    InvalidConfig {
        /// Human-readable description of the offending knob.
        what: String,
    },
    /// A job id was registered twice — two tenants (or one tenant's
    /// double submission) would share a DFS namespace and silently
    /// overwrite each other's checkpoints.
    DuplicateJob {
        /// The contested job id.
        job: String,
    },
}

/// Ignore lock poisoning on plain-data mutexes.
fn lock_plain<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::DriverOom { requested, in_use, limit } => write!(
                f,
                "driver out of memory: requested {requested} B with {in_use} B live (limit {limit} B)"
            ),
            ClusterError::NoSuchFile { name } => write!(f, "dfs: no such file {name:?}"),
            ClusterError::BlockLost { name } => {
                write!(f, "dfs: all replicas of {name:?} were lost to node crashes")
            }
            ClusterError::InvalidConfig { what } => write!(f, "invalid cluster config: {what}"),
            ClusterError::DuplicateJob { job } => {
                write!(f, "job id {job:?} is already registered on this cluster's DFS")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// Per-stage execution options.
#[derive(Debug, Clone)]
pub struct StageOptions {
    /// Label recorded in the stage metrics.
    pub label: String,
    /// Virtual seconds of launch overhead added to every task. Hadoop task
    /// slots cost seconds; Spark tasks cost milliseconds — this single knob
    /// is what separates the two engines' small-job behaviour (the paper's
    /// §5.2 observation that Hadoop overheads dominate small inputs).
    pub task_overhead_secs: f64,
    /// DFS bytes a re-executed task must read back to rebuild its input
    /// (MapReduce recovery: failed tasks re-read their HDFS-materialized
    /// split). Zero for engines that recover through lineage instead.
    pub reexec_read_bytes_per_task: u64,
}

impl StageOptions {
    /// Options with the given label and no per-task overhead.
    pub fn new(label: impl Into<String>) -> Self {
        StageOptions {
            label: label.into(),
            task_overhead_secs: 0.0,
            reexec_read_bytes_per_task: 0,
        }
    }

    /// Sets the per-task virtual launch overhead.
    pub fn with_task_overhead(mut self, secs: f64) -> Self {
        self.task_overhead_secs = secs;
        self
    }

    /// Sets the DFS bytes re-read per re-executed task after a crash.
    pub fn with_reexec_read_bytes(mut self, bytes: u64) -> Self {
        self.reexec_read_bytes_per_task = bytes;
        self
    }
}

/// A simulated cluster instance. Cheap to share by reference; all interior
/// state is behind a lock.
pub struct SimCluster {
    cfg: ClusterConfig,
    metrics: Mutex<Metrics>,
    /// Persistent host-thread pool shared with the linalg kernels.
    pool: Arc<WorkerPool>,
    /// Counter feeding the deterministic failure-injection hash.
    failure_counter: AtomicU64,
    /// Binding of this cluster to a virtual trace process.
    trace: Mutex<TraceBinding>,
    /// The cluster's distributed filesystem (replicated block namespace).
    dfs: Dfs,
    /// Global stage index: bumped once per `run_stage` call. Fault events
    /// key on this, never on virtual time — stage indices are a pure
    /// function of the workload, virtual durations are measured host time.
    stage_seq: AtomicU64,
    /// Sequence source for critical-path segments (starts at 1; 0 means
    /// "no predecessor").
    segment_seq: AtomicU64,
    /// Sequence number of the most recently emitted segment — the `prev`
    /// causality edge of the next one. The cluster is driver-sequential,
    /// so the chain is the critical path.
    last_segment: AtomicU64,
    /// Fault plan, recovery log, and cache registry. Never held across
    /// the metrics or DFS locks.
    faults: Mutex<FaultDomain>,
    /// Job id currently submitting stages (multi-tenant runs): stage
    /// labels are prefixed `<job>/` so per-job work stays attributable
    /// in the stage metrics. `None` (the default) leaves labels as-is.
    job_scope: Mutex<Option<String>>,
    /// The timing model, chosen once from `cfg.timing`: every charge and
    /// stage makespan is priced through it.
    pricing: Pricing,
}

/// How the cluster turns bytes and task durations into virtual time —
/// dslab's split between a constant- and a shared-bandwidth network model.
enum Pricing {
    /// [`TimingModel::Uncontended`]: a transfer runs at the cluster's
    /// aggregate bandwidth (`bytes / (node rate × nodes)`) and a stage is
    /// list-scheduled over every core (global LPT). Holds no state.
    Aggregate,
    /// [`TimingModel::Contended`]: a transfer is a set of per-node flows
    /// through the max-min fair simulator, and a stage runs on the
    /// per-host slot schedule.
    Shared(Contention),
}

/// Per-link contention statistics accumulated across every contended
/// charge (what `trace_report`'s per-link table renders).
#[derive(Debug, Clone)]
pub struct LinkStat {
    /// Link name (`fabric`, `up:N`, `down:N`, `disk:N`).
    pub label: String,
    /// Capacity in bytes/sec.
    pub capacity: f64,
    /// Bytes carried (includes cancelled attempts' partial progress, so
    /// it can exceed the byte meters under faults).
    pub bytes: f64,
    /// Virtual seconds the link spent with at least one active flow.
    pub busy_secs: f64,
    /// Peak allocated-rate / capacity over every rate set that lasted
    /// (≤ 1.0: the max-min solver never over-allocates a link).
    pub peak_util: f64,
}

/// Whole-run discrete-event engine totals (contended timing only).
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Heap events processed (arrivals, completions, cancels, stale pops,
    /// and slot-schedule completions).
    pub events: u64,
    /// Max-min rate re-solves performed (one per virtual instant at which
    /// a transfer group's active set changed).
    pub resolves: u64,
    /// Peak number of simultaneously active flows.
    pub peak_flows: usize,
}

/// Interior state of the contended engine: the topology is fixed at
/// construction (pure function of the config), only the accumulated
/// statistics need the lock, which is never held across the metrics,
/// trace, or fault locks.
struct Contention {
    topo: Topology,
    state: Mutex<LinkTotals>,
}

#[derive(Default)]
struct LinkTotals {
    link_bytes: Vec<f64>,
    link_busy_secs: Vec<f64>,
    link_peak_util: Vec<f64>,
    stats: EngineStats,
}

impl Contention {
    fn new(cfg: &ClusterConfig) -> Self {
        let topo = Topology::new(cfg.nodes, cfg.network_bytes_per_sec, cfg.disk_bytes_per_sec);
        let n = topo.len();
        Contention {
            topo,
            state: Mutex::new(LinkTotals {
                link_bytes: vec![0.0; n],
                link_busy_secs: vec![0.0; n],
                link_peak_util: vec![0.0; n],
                stats: EngineStats::default(),
            }),
        }
    }

    fn absorb(&self, out: &netsim::FlowOutcome) {
        let mut st = lock_plain(&self.state);
        for l in 0..st.link_bytes.len() {
            st.link_bytes[l] += out.link_bytes[l];
            st.link_busy_secs[l] += out.link_busy_secs[l];
            if out.link_peak_util[l] > st.link_peak_util[l] {
                st.link_peak_util[l] = out.link_peak_util[l];
            }
        }
        st.stats.events += out.events;
        st.stats.resolves += out.resolves;
        st.stats.peak_flows = st.stats.peak_flows.max(out.peak_flows);
    }
}

/// Timing/byte consequences of one stage's faults, applied after the
/// fault lock is released.
#[derive(Default)]
struct StageFaultEffects {
    crashed_nodes: Vec<usize>,
    reexec_read_bytes: u64,
    backup_cpu_secs: f64,
}

/// Which byte meter a transfer charges. The meter fixes the link it
/// crosses (a node's downlink and the fabric, or a node's disk), the time
/// category (network, or disk for both DFS directions) and the trace
/// counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Meter {
    /// Bytes over the network (shuffles, broadcasts, collects).
    Network,
    /// Bytes written to the DFS; counts as intermediate data.
    DfsWrite,
    /// Bytes read back from the DFS.
    DfsRead,
}

/// How a charge's bytes fall on the cluster's nodes.
#[derive(Debug, Clone, Copy)]
pub enum Load<'a> {
    /// `bytes` split evenly over every node.
    Even(u64),
    /// Entry `p` lands on node `p % nodes`. Skew costs time only under
    /// contended timing, where the loaded links saturate while others
    /// idle.
    PerEndpoint(&'a [u64]),
    /// `bytes` to every node: a broadcast (Spark's torrent broadcast,
    /// Hadoop's distributed cache). The payload crosses the network once
    /// per node, so `bytes × nodes` are metered and count as intermediate
    /// data — this is how sPCA's per-iteration `CM` matrix is charged.
    EachNode(u64),
}

/// Lazily-established link between a cluster and the installed collector:
/// the virtual pid is allocated on first use and re-allocated whenever a
/// *different* collector is installed (tests install fresh ones).
#[derive(Default)]
struct TraceBinding {
    /// Process label shown in trace viewers (empty → `"cluster"`).
    label: String,
    /// `(collector identity, allocated virtual pid)`.
    bound: Option<(usize, u32)>,
}

impl SimCluster {
    /// Creates a cluster with the given hardware description, running its
    /// stages on the process-wide [`WorkerPool::global`] pool.
    pub fn new(cfg: ClusterConfig) -> Self {
        SimCluster::new_with_pool(cfg, WorkerPool::global().clone())
    }

    /// Creates a cluster running its stages on a specific pool. Results are
    /// identical whatever the pool size — only host wall time changes.
    ///
    /// Panics on a config that fails [`ClusterConfig::validate`] — a bad
    /// knob should fail here, not corrupt a simulation half-way through.
    pub fn new_with_pool(cfg: ClusterConfig, pool: Arc<WorkerPool>) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("SimCluster: {e}");
        }
        let pricing = match cfg.timing {
            TimingModel::Uncontended => Pricing::Aggregate,
            TimingModel::Contended => Pricing::Shared(Contention::new(&cfg)),
        };
        SimCluster {
            cfg,
            metrics: Mutex::new(Metrics::default()),
            pool,
            failure_counter: AtomicU64::new(0),
            trace: Mutex::new(TraceBinding::default()),
            dfs: Dfs::new(),
            stage_seq: AtomicU64::new(0),
            segment_seq: AtomicU64::new(1),
            last_segment: AtomicU64::new(0),
            faults: Mutex::new(FaultDomain::default()),
            job_scope: Mutex::new(None),
            pricing,
        }
    }

    /// Scopes subsequently submitted stages to a job: their labels are
    /// recorded as `<job>/<label>`. Pass `None` to clear. The scope
    /// moves only labels — never schedules, bytes, or fitted models.
    pub fn set_job_scope(&self, job: Option<&str>) {
        *lock_plain(&self.job_scope) = job.map(String::from);
    }

    /// The job id stages are currently scoped to, if any.
    pub fn job_scope(&self) -> Option<String> {
        lock_plain(&self.job_scope).clone()
    }

    /// The cluster's distributed filesystem.
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// The host-thread pool this cluster executes on.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// The registry backing this cluster's byte meters and stage stats.
    pub fn registry(&self) -> Arc<obs::registry::Registry> {
        Arc::clone(self.metrics_lock().registry())
    }

    /// Names this cluster's virtual process in exported traces (e.g.
    /// `"sPCA-Spark"`). Renames in place if the pid is already allocated.
    pub fn set_trace_label(&self, label: impl Into<String>) {
        let label = label.into();
        let mut tb = lock_plain(&self.trace);
        tb.label = label.clone();
        if let (Some((key, pid)), Some(c)) = (tb.bound, obs::collector()) {
            if Arc::as_ptr(&c) as usize == key {
                c.set_process_label(pid, &label);
            }
        }
    }

    /// The virtual clock in whole microseconds (the trace time unit).
    pub fn virtual_time_us(&self) -> u64 {
        (self.metrics_lock().virtual_time_secs * 1e6) as u64
    }

    /// The label this cluster's virtual process carries in traces (empty
    /// until [`Self::set_trace_label`] is called).
    pub fn trace_label(&self) -> String {
        lock_plain(&self.trace).label.clone()
    }

    /// Per-category virtual-µs totals (cpu / scheduler / network / disk /
    /// recovery, in `obs::critpath::CATEGORIES` order). The EM driver
    /// diffs these around each iteration for the `em.iter.*_secs` series,
    /// and the run ledger records the run-wide totals.
    pub fn category_time_us(&self) -> [u64; 5] {
        self.metrics_lock().category_time_us()
    }

    /// Emits one critical-path segment: a `Phase::Complete` event (cat
    /// `"segment"`) covering `[begin_us, end_us)` with its category and the
    /// `seq`/`prev` causality chain. Segment ids are only consumed when a
    /// collector is installed; emission *conditions* at every call site are
    /// structural (config knobs, byte counts, seeded fault events — never
    /// measured durations), so the chain's shape is identical across host
    /// worker counts even though durations are measured.
    fn emit_segment(
        &self,
        label: &str,
        cat: TimeCategory,
        begin_us: u64,
        end_us: u64,
        extra: Vec<(&'static str, obs::ArgValue)>,
    ) {
        if !obs::enabled() {
            return;
        }
        let seq = self.segment_seq.fetch_add(1, Ordering::Relaxed);
        let prev = self.last_segment.swap(seq, Ordering::Relaxed);
        self.with_trace(|c, pid| {
            let mut args = vec![
                ("category", obs::ArgValue::Str(cat.label().to_string())),
                ("seq", obs::ArgValue::U64(seq)),
                ("prev", obs::ArgValue::U64(prev)),
            ];
            args.extend(extra);
            c.complete(pid, "segment", label, begin_us, end_us.saturating_sub(begin_us), args);
        });
    }

    /// Runs `f` with the installed collector and this cluster's virtual
    /// pid, allocating or re-binding the pid first if needed. No-op (and
    /// one atomic load) when tracing is disabled. Never called with the
    /// metrics lock held — `trace` and `metrics` are never nested.
    fn with_trace<R>(&self, f: impl FnOnce(&obs::Collector, u32) -> R) -> Option<R> {
        if !obs::enabled() {
            return None;
        }
        let c = obs::collector()?;
        let key = Arc::as_ptr(&c) as usize;
        let pid = {
            let mut tb = lock_plain(&self.trace);
            match tb.bound {
                Some((k, pid)) if k == key => pid,
                _ => {
                    let label = if tb.label.is_empty() { "cluster" } else { tb.label.as_str() };
                    let pid = c.alloc_virtual_pid(label);
                    tb.bound = Some((key, pid));
                    pid
                }
            }
        };
        Some(f(&c, pid))
    }

    /// Opens a span on this cluster's virtual clock at the current virtual
    /// time. Pair with [`Self::trace_end`]; nesting is checked by the
    /// collector.
    pub fn trace_begin(
        &self,
        cat: &'static str,
        name: &str,
        args: Vec<(&'static str, obs::ArgValue)>,
    ) {
        if !obs::enabled() {
            return;
        }
        let ts = self.virtual_time_us();
        self.with_trace(|c, pid| c.begin_virtual(pid, cat, name, ts, args));
    }

    /// Closes the innermost open virtual span (see [`Self::trace_begin`]).
    pub fn trace_end(
        &self,
        cat: &'static str,
        name: &str,
        args: Vec<(&'static str, obs::ArgValue)>,
    ) {
        if !obs::enabled() {
            return;
        }
        let ts = self.virtual_time_us();
        self.with_trace(|c, pid| c.end_virtual(pid, cat, name, ts, args));
    }

    /// Emits a counter sample on this cluster's virtual clock.
    pub fn trace_counter(&self, name: &str, value: f64) {
        if !obs::enabled() {
            return;
        }
        let ts = self.virtual_time_us();
        self.with_trace(|c, pid| c.counter(pid, name, ts, value));
    }

    /// Emits an instant event on this cluster's virtual clock.
    pub fn trace_instant(&self, cat: &'static str, name: &str) {
        if !obs::enabled() {
            return;
        }
        let ts = self.virtual_time_us();
        self.with_trace(|c, pid| c.instant(pid, cat, name, ts, Vec::new()));
    }

    fn metrics_lock(&self) -> MutexGuard<'_, Metrics> {
        // Metrics are plain data; a panic mid-update can't leave them in a
        // state worth refusing to read.
        self.metrics.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Deterministic per-task failure decision (splitmix64 hash of a
    /// global attempt counter against the configured rate).
    fn task_fails(&self) -> bool {
        if self.cfg.task_failure_rate <= 0.0 {
            return false;
        }
        let i = self.failure_counter.fetch_add(1, Ordering::Relaxed);
        let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z as f64 / u64::MAX as f64) < self.cfg.task_failure_rate
    }

    /// The hardware description.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The negotiated shuffle codec. Only shuffle-family charge sites
    /// consult it ([`linalg::WireCodec::shuffle_size`]); everything else
    /// charges exact v2 ([`linalg::Wire::encoded_size`]).
    #[inline]
    pub fn wire_codec(&self) -> linalg::WireCodec {
        self.cfg.wire_codec
    }

    fn faults_lock(&self) -> MutexGuard<'_, FaultDomain> {
        lock_plain(&self.faults)
    }

    /// Installs a fault plan: from the next stage on, the plan's crashes
    /// fire (keyed by global stage index) and the spec's stragglers /
    /// speculation apply. Replaces any previous plan; the recovery log is
    /// kept (it is append-only history).
    pub fn install_fault_plan(
        &self,
        spec: FaultSpec,
        plan: FaultPlan,
    ) -> Result<(), ClusterError> {
        spec.validate()?;
        let mut plan = plan;
        plan.sort();
        let events = plan.events().to_vec();
        self.faults_lock().plan = Some(ActivePlan { spec, events, cursor: 0 });
        Ok(())
    }

    /// The active fault spec, if a plan is installed.
    pub fn fault_spec(&self) -> Option<FaultSpec> {
        self.faults_lock().plan.as_ref().map(|p| p.spec.clone())
    }

    /// Copy of the recovery-event log (structural, deterministic across
    /// host pool sizes).
    pub fn recovery_log(&self) -> Vec<RecoveryEvent> {
        self.faults_lock().log.clone()
    }

    /// The global stage index the *next* stage will run as.
    pub fn next_stage_index(&self) -> u64 {
        self.stage_seq.load(Ordering::Relaxed)
    }

    /// Registers an in-memory cache of `partitions` blocks (one call per
    /// persisted RDD). Cached partition `p` lives on node `p % nodes`; a
    /// crash of that node marks it lost until the owner recomputes it.
    pub fn register_cache(&self, partitions: usize) -> u64 {
        let mut fd = self.faults_lock();
        let id = fd.next_cache_id;
        fd.next_cache_id += 1;
        fd.caches.insert(id, CacheEntry { partitions, lost: Default::default() });
        id
    }

    /// Drains and returns the lost partitions of a cache, ascending. The
    /// caller is expected to recompute them and report each via
    /// [`SimCluster::note_partition_recomputed`].
    pub fn take_lost_partitions(&self, cache: u64) -> Vec<usize> {
        let mut fd = self.faults_lock();
        match fd.caches.get_mut(&cache) {
            Some(entry) => std::mem::take(&mut entry.lost).into_iter().collect(),
            None => Vec::new(),
        }
    }

    /// Records a lineage recomputation of one lost cached partition:
    /// `secs` of recompute time are charged to the virtual clock and the
    /// event is appended to the recovery log.
    pub fn note_partition_recomputed(&self, cache: u64, partition: usize, secs: f64) {
        self.faults_lock().log.push(RecoveryEvent::PartitionRecomputed { cache, partition });
        let registry = self.registry();
        registry.counter("faults.partitions_recomputed").inc();
        registry.histogram("faults.lineage_recompute_secs").record(secs);
        let win = self.metrics_lock().advance_cat(secs, TimeCategory::Recovery);
        self.emit_segment(
            "lineage-recompute",
            TimeCategory::Recovery,
            win.0,
            win.1,
            vec![("partition", (partition as u64).into())],
        );
        if obs::enabled() {
            self.trace_instant("fault", &format!("lineage.recompute cache={cache} p={partition}"));
        }
    }

    /// Records an EM checkpoint write (`bytes` already charged via the
    /// DFS put that stored it).
    pub fn note_checkpoint_written(&self, iteration: u64, bytes: u64) {
        self.faults_lock().log.push(RecoveryEvent::CheckpointWritten { iteration });
        let registry = self.registry();
        registry.counter("faults.checkpoint_writes").inc();
        registry.counter("faults.checkpoint_bytes").add(bytes);
        if obs::enabled() {
            self.trace_instant("fault", &format!("checkpoint.write iter={iteration}"));
        }
    }

    /// Records a restart-from-checkpoint.
    pub fn note_checkpoint_restored(&self, iteration: u64) {
        self.faults_lock().log.push(RecoveryEvent::CheckpointRestored { iteration });
        self.registry().counter("faults.checkpoint_restores").inc();
        if obs::enabled() {
            self.trace_instant("fault", &format!("checkpoint.restore iter={iteration}"));
        }
    }

    /// Applies the installed fault plan to one stage's task durations.
    ///
    /// Holds only the fault lock; crash side effects that need other locks
    /// (DFS re-replication, byte charges) are returned in
    /// [`StageFaultEffects`] and applied by the caller afterwards.
    ///
    /// Fault model, all keyed on indices (see `faults` module docs):
    /// * every crash due at this stage fires: task `i` with
    ///   `i % nodes == node` loses its first attempt (duration doubles
    ///   plus the retry delay, plus a DFS re-read for engines that set
    ///   `reexec_read_bytes_per_task`), and every registered cache marks
    ///   partitions `p % nodes == node` lost;
    /// * stragglers (hash-picked per task) run `straggler_slowdown`×
    ///   longer; with speculation a backup launches at the configured
    ///   quantile of the stage's base durations and the first finisher
    ///   wins — the backup's compute is charged as extra CPU either way.
    fn apply_stage_faults(
        &self,
        stage: u64,
        opts: &StageOptions,
        durations: &mut [f64],
    ) -> StageFaultEffects {
        let mut fx = StageFaultEffects::default();
        let nodes = self.cfg.nodes;
        let registry = self.registry();
        let mut fd = self.faults_lock();
        let FaultDomain { plan, log, caches, .. } = &mut *fd;
        let Some(plan) = plan.as_mut() else { return fx };
        let spec = plan.spec.clone();

        for node in plan.due(stage) {
            let node = node % nodes;
            log.push(RecoveryEvent::NodeCrashed { node, stage });
            registry.counter("faults.node_crashes").inc();
            for entry in caches.values_mut() {
                for p in (0..entry.partitions).filter(|p| p % nodes == node) {
                    entry.lost.insert(p);
                }
            }
            for i in (0..durations.len()).filter(|i| i % nodes == node) {
                durations[i] = durations[i] * 2.0 + self.cfg.task_retry_delay_secs;
                log.push(RecoveryEvent::TaskReattempted { stage, task: i });
                registry.counter("faults.task_reattempts").inc();
                fx.reexec_read_bytes += opts.reexec_read_bytes_per_task;
            }
            fx.crashed_nodes.push(node);
        }

        if spec.straggler_rate > 0.0 {
            // Backup launch point: the configured quantile of this stage's
            // (post-crash) durations — "most of the stage has finished".
            let launch = quantile(durations, spec.speculation_quantile);
            for i in 0..durations.len() {
                if !spec.task_straggles(stage, i) {
                    continue;
                }
                registry.counter("faults.stragglers_injected").inc();
                let base = durations[i];
                let slowed = base * spec.straggler_slowdown;
                if spec.speculation {
                    log.push(RecoveryEvent::SpeculativeAttempt { stage, task: i });
                    registry.counter("faults.speculative_attempts").inc();
                    fx.backup_cpu_secs += base;
                    let backup_finish = launch + base;
                    if backup_finish < slowed {
                        registry.counter("faults.speculative_wins").inc();
                        registry
                            .histogram("faults.speculation_saved_secs")
                            .record(slowed - backup_finish);
                        durations[i] = backup_finish;
                    } else {
                        durations[i] = slowed;
                    }
                } else {
                    durations[i] = slowed;
                }
            }
        }
        fx
    }

    /// Stage makespan under the timing model: global LPT for the
    /// aggregate model, the event-driven per-host slot schedule for the
    /// shared one (task `i` pinned to node `i % nodes`).
    fn stage_span(&self, durations: &[f64]) -> (f64, Option<usize>) {
        match &self.pricing {
            Pricing::Aggregate => makespan_with_critical(durations, self.cfg.total_cores()),
            Pricing::Shared(c) => {
                let (span, critical, events) = host_schedule(
                    durations,
                    self.cfg.nodes,
                    self.cfg.cores_per_node,
                    self.cfg.event_queue_capacity,
                );
                lock_plain(&c.state).stats.events += events;
                self.registry().counter("engine.events").add(events);
                (span, critical)
            }
        }
    }

    /// Charges the DFS re-read crashed tasks perform. Under contended
    /// timing the crash interrupted the first split read mid-flight: the
    /// in-flight flow is cancelled at half its solo transfer time and a
    /// full-size reattempt is re-enqueued on the same disk, so the wasted
    /// half shows up in the link statistics (detection latency is already
    /// charged in the task schedule, so the requeue delay here is zero).
    /// The byte *meter* charges the re-read once, same as the arithmetic
    /// model — meters stay identical across timing models.
    fn charge_reexec_read(&self, bytes: u64, crashed_nodes: &[usize]) {
        self.charge_priced(Meter::DfsRead, bytes, "reexec-read", |c| {
            let shares = Self::uniform_shares(bytes, crashed_nodes.len().max(1));
            let mut flows = Vec::new();
            let mut cancels = Vec::new();
            for (&node, &share) in crashed_nodes.iter().zip(&shares) {
                if share == 0 {
                    continue;
                }
                let solo_secs = share as f64 / self.cfg.disk_bytes_per_sec;
                cancels.push(CancelSpec {
                    flow: flows.len(),
                    at_secs: solo_secs * 0.5,
                    requeue_delay_secs: 0.0,
                });
                flows.push(FlowSpec::new(share, [c.topo.disk(node), netsim::NO_LINK]));
            }
            self.simulate(c, &flows, &cancels)
        });
    }

    /// Runs a distributed stage: executes every task (really, on the
    /// shared worker pool), measures per-task durations, and advances the
    /// virtual clock by the makespan of those durations scheduled onto
    /// the cluster's virtual cores (LPT by default, the event-driven
    /// per-host slot schedule under contended timing). Results come back
    /// in task order: this is [`Self::run_stage_with`] with a sink that
    /// collects them.
    pub fn run_stage<T, F>(&self, opts: StageOptions, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let mut results = Vec::with_capacity(tasks.len());
        self.run_stage_with(opts, tasks, |_, out| results.push(out));
        results
    }

    /// [`Self::run_stage`] with each result handed to `sink` as the stage
    /// runs, instead of all of them after it. `sink(i, result)` is called
    /// once per task, in ascending task index, after task `i` and every
    /// earlier task have finished, on whichever thread finished the task
    /// that made it due. The sink runs outside the task's measured
    /// interval, so its time is in no task duration, no `cpu_secs` and no
    /// virtual time.
    pub fn run_stage_with<T, F, S>(&self, opts: StageOptions, tasks: Vec<F>, sink: S)
    where
        T: Send,
        F: FnOnce() -> T + Send,
        S: FnMut(usize, T) + Send,
    {
        let n = tasks.len();
        let stage_idx = self.stage_seq.fetch_add(1, Ordering::Relaxed);
        if n == 0 {
            self.metrics_lock().stages.push(StageRecord {
                label: opts.label,
                tasks: 0,
                compute_secs: 0.0,
                cpu_secs: 0.0,
            });
            return;
        }

        let _host_span = obs::span_lazy("stage", || format!("stage:{}", opts.label));
        let delivery = Delivery::new(n, sink);
        let durations: Vec<f64> = self.pool.run(
            tasks
                .into_iter()
                .enumerate()
                .map(|(i, task)| {
                    let delivery = &delivery;
                    move || {
                        let start = Instant::now();
                        let out = task();
                        let secs = start.elapsed().as_secs_f64();
                        delivery.deposit(i, out);
                        secs
                    }
                })
                .collect(),
        );
        let pending_peak = delivery.finish();

        let cpu_secs: f64 = durations.iter().sum();
        // Failure injection: a failed first attempt is re-executed — same
        // result (the retry recomputes it), twice the duration plus the
        // rescheduling delay. Charged in the schedule, invisible in the
        // output, exactly like the platforms the paper targets.
        let mut with_overhead: Vec<f64> = durations
            .iter()
            .map(|d| {
                let base = d + opts.task_overhead_secs;
                if self.task_fails() {
                    base * 2.0 + self.cfg.task_retry_delay_secs
                } else {
                    base
                }
            })
            .collect();
        // Makespan of the bare measured durations and of the overhead-laden
        // (pre-fault) schedule: the anchors of the cpu / scheduler-wait /
        // recovery decomposition below.
        let base_span = self.stage_span(&durations).0;
        let overhead_span = self.stage_span(&with_overhead).0;
        let has_fault_plan = self.faults_lock().plan.is_some();
        // Stateful fault plan: crashes, stragglers, speculation. Only the
        // schedule and the recovery log change — results never do.
        let fx = self.apply_stage_faults(stage_idx, &opts, &mut with_overhead);
        let cpu_secs = cpu_secs + fx.backup_cpu_secs;
        for &node in &fx.crashed_nodes {
            if obs::enabled() {
                self.trace_instant("fault", &format!("node.crash node={node}"));
            }
            let (events, replication_bytes) = self.dfs.on_node_crash(self, node);
            if replication_bytes > 0 {
                self.registry().counter("faults.replication_bytes").add(replication_bytes);
            }
            let lost = events
                .iter()
                .filter(|e| matches!(e, RecoveryEvent::BlockLost { .. }))
                .count() as u64;
            if lost > 0 {
                self.registry().counter("faults.blocks_lost").add(lost);
            }
            self.faults_lock().log.extend(events);
        }
        if fx.reexec_read_bytes > 0 {
            self.charge_reexec_read(fx.reexec_read_bytes, &fx.crashed_nodes);
        }
        let (compute_secs, critical_task) = self.stage_span(&with_overhead);

        // Decompose the stage makespan into tiled categories. LPT is not
        // monotone under duration increases (Graham anomalies), so each
        // term is clipped to keep every part non-negative; the three parts
        // sum to `compute_secs` exactly by construction.
        let cpu_part = base_span.min(compute_secs);
        let sched_anchor = overhead_span.min(compute_secs);
        let sched_part = (sched_anchor - cpu_part).max(0.0);
        let recovery_part = compute_secs - cpu_part.max(sched_anchor);
        // Segment *presence* is structural: overhead/retry knobs and the
        // fault plan are config, never measured time. When a knob is off
        // its part is exactly 0.0 (bitwise-equal makespans), so skipping
        // the advance changes nothing.
        let emit_sched = opts.task_overhead_secs > 0.0 || self.cfg.task_failure_rate > 0.0;
        let emit_recovery = has_fault_plan;

        let label = match self.job_scope() {
            Some(job) => format!("{job}/{}", opts.label),
            None => opts.label,
        };
        let record = StageRecord { label, tasks: n, compute_secs, cpu_secs };
        let utilization = record.utilization(self.cfg.total_cores());
        let (begin_us, end_us, cpu_win, sched_win, rec_win);
        {
            let mut m = self.metrics_lock();
            cpu_win = m.advance_cat(cpu_part, TimeCategory::Cpu);
            sched_win = if emit_sched {
                m.advance_cat(sched_part, TimeCategory::Scheduler)
            } else {
                (cpu_win.1, cpu_win.1)
            };
            rec_win = if emit_recovery {
                m.advance_cat(recovery_part, TimeCategory::Recovery)
            } else {
                (sched_win.1, sched_win.1)
            };
            begin_us = cpu_win.0;
            end_us = rec_win.1;
            m.registry().histogram("stage.utilization").record(utilization);
            m.registry().histogram("stage.pending_peak").record(pending_peak as f64);
            m.stages.push(record.clone());
        }
        if obs::enabled() {
            self.with_trace(|c, pid| {
                c.begin_virtual(
                    pid,
                    "stage",
                    &record.label,
                    begin_us,
                    vec![
                        ("tasks", (n as u64).into()),
                        ("cpu_secs", record.cpu_secs.into()),
                        ("pending_peak", (pending_peak as u64).into()),
                    ],
                );
            });
            // Causality segments nest inside the stage span (emitted
            // between its Begin and End): barrier first, then the waits
            // the barrier exposed.
            let mut cpu_args: Vec<(&'static str, obs::ArgValue)> = vec![
                ("tasks", (n as u64).into()),
                ("edge", "barrier".into()),
            ];
            if let Some(t) = critical_task {
                cpu_args.push(("critical_task", (t as u64).into()));
            }
            self.emit_segment(
                &format!("stage:{}", record.label),
                TimeCategory::Cpu,
                cpu_win.0,
                cpu_win.1,
                cpu_args,
            );
            if emit_sched {
                self.emit_segment(
                    "task-launch",
                    TimeCategory::Scheduler,
                    sched_win.0,
                    sched_win.1,
                    vec![("tasks", (n as u64).into())],
                );
            }
            if emit_recovery {
                self.emit_segment(
                    "stage-recovery",
                    TimeCategory::Recovery,
                    rec_win.0,
                    rec_win.1,
                    vec![("crashed_nodes", (fx.crashed_nodes.len() as u64).into())],
                );
            }
            self.with_trace(|c, pid| {
                c.end_virtual(
                    pid,
                    "stage",
                    &record.label,
                    end_us,
                    vec![("utilization", utilization.into())],
                );
            });
        }
    }

    /// Runs a driver-local computation, measuring it and charging the
    /// virtual clock one core's worth of time (the driver is a single
    /// process).
    pub fn run_driver<T>(&self, label: impl Into<String>, f: impl FnOnce() -> T) -> T {
        let label = label.into();
        let _host_span = obs::span_lazy("driver", || format!("driver:{label}"));
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        let (begin_us, end_us);
        {
            let mut m = self.metrics_lock();
            let win = m.advance_cat(secs, TimeCategory::Cpu);
            begin_us = win.0;
            end_us = win.1;
            m.stages.push(StageRecord {
                label: label.clone(),
                tasks: 1,
                compute_secs: secs,
                cpu_secs: secs,
            });
        }
        if obs::enabled() {
            self.with_trace(|c, pid| {
                c.begin_virtual(pid, "driver", &label, begin_us, Vec::new());
            });
            self.emit_segment(
                &format!("driver:{label}"),
                TimeCategory::Cpu,
                begin_us,
                end_us,
                vec![("edge", "driver-step".into())],
            );
            self.with_trace(|c, pid| {
                c.end_virtual(pid, "driver", &label, end_us, Vec::new());
            });
        }
        out
    }

    /// Splits `bytes` into one share per entry (the remainder spread over
    /// the first entries) — the uniform per-node decomposition that makes
    /// the event-driven model reproduce the arithmetic charges: `n` equal
    /// flows on `n` disjoint links each run at full link rate, so the
    /// makespan is `ceil(bytes/n) / link_rate ≈ bytes / aggregate_rate`
    /// (off by at most one byte's transfer time, far under 1 µs).
    fn uniform_shares(bytes: u64, n: usize) -> Vec<u64> {
        let n64 = n as u64;
        let (base, rem) = (bytes / n64, bytes % n64);
        (0..n64).map(|i| base + u64::from(i < rem)).collect()
    }

    /// Runs `flows` (+ optional `cancels`) through the shared-bandwidth
    /// simulator, folds the outcome into the per-link statistics and
    /// engine counters, and returns the virtual seconds the transfer
    /// group took.
    fn simulate(&self, c: &Contention, flows: &[FlowSpec], cancels: &[CancelSpec]) -> f64 {
        let out = netsim::simulate(&c.topo, flows, cancels, self.cfg.event_queue_capacity);
        c.absorb(&out);
        let registry = self.registry();
        registry.counter("engine.events").add(out.events);
        registry.counter("engine.resolves").add(out.resolves);
        out.makespan_secs
    }

    /// Meters a transfer and advances the virtual clock by its time, with
    /// a segment named `label` on the critical path.
    ///
    /// Under the default timing model the transfer runs at the cluster's
    /// aggregate bandwidth: shuffles and accumulator pushes are
    /// all-to-all or tree-shaped, not a single pipe, so adding nodes adds
    /// bandwidth — which is what makes the speedup experiments scale
    /// communication like the paper's Table 4. Under contended timing the
    /// load becomes one flow per loaded node (over its downlink and the
    /// fabric, or its disk); an even load reproduces the aggregate time
    /// to within a byte's transfer, and a skewed one takes the slowest
    /// link's time instead.
    pub fn charge(&self, meter: Meter, load: Load<'_>, label: &str) {
        let nodes = self.cfg.nodes;
        let bytes = match load {
            Load::Even(bytes) => bytes,
            Load::PerEndpoint(shares) => shares.iter().sum(),
            Load::EachNode(bytes) => bytes.saturating_mul(nodes as u64),
        };
        self.charge_priced(meter, bytes, label, |c| {
            let spread = match load {
                Load::Even(bytes) => Self::uniform_shares(bytes, nodes),
                Load::EachNode(bytes) => vec![bytes; nodes],
                Load::PerEndpoint(_) => Vec::new(),
            };
            let shares = if let Load::PerEndpoint(shares) = load { shares } else { &spread };
            let flows: Vec<FlowSpec> = shares
                .iter()
                .enumerate()
                .filter(|(_, &b)| b > 0)
                .map(|(p, &b)| {
                    let links = match meter {
                        Meter::Network => [c.topo.downlink(p), c.topo.fabric()],
                        Meter::DfsWrite | Meter::DfsRead => [c.topo.disk(p), netsim::NO_LINK],
                    };
                    FlowSpec::new(b, links)
                })
                .collect();
            self.simulate(c, &flows, &[])
        });
    }

    /// `charge(Meter::Network, Load::EachNode(bytes), "broadcast")`, kept
    /// for the benchmark harness's replay, which calls it by this name.
    pub fn charge_broadcast(&self, bytes: u64) {
        self.charge(Meter::Network, Load::EachNode(bytes), "broadcast");
    }

    /// The one pricing branch of a transfer: `bytes` at the aggregate
    /// rate, or `shared`'s simulated time under contended timing. Then
    /// meters the bytes, advances the clock and emits the segment.
    fn charge_priced(
        &self,
        meter: Meter,
        bytes: u64,
        label: &str,
        shared: impl FnOnce(&Contention) -> f64,
    ) {
        let secs = match &self.pricing {
            Pricing::Aggregate => {
                let rate = match meter {
                    Meter::Network => self.cfg.network_bytes_per_sec,
                    Meter::DfsWrite | Meter::DfsRead => self.cfg.disk_bytes_per_sec,
                };
                bytes as f64 / (rate * self.cfg.nodes as f64)
            }
            Pricing::Shared(c) => shared(c),
        };
        let (total, category, counter, win);
        {
            let mut m = self.metrics_lock();
            (total, category, counter) = match meter {
                Meter::Network => {
                    m.add_network(bytes);
                    (m.network_bytes.get(), TimeCategory::Network, "cluster.network_bytes")
                }
                Meter::DfsWrite => {
                    m.add_dfs_write(bytes);
                    (m.dfs_bytes_written.get(), TimeCategory::Disk, "cluster.dfs_bytes_written")
                }
                Meter::DfsRead => {
                    m.add_dfs_read(bytes);
                    (m.dfs_bytes_read.get(), TimeCategory::Disk, "cluster.dfs_bytes_read")
                }
            };
            win = m.advance_cat(secs, category);
        }
        self.trace_counter(counter, total as f64);
        if bytes > 0 {
            self.emit_segment(label, category, win.0, win.1, vec![("bytes", bytes.into())]);
        }
    }

    /// Seconds `bytes` take over one node's network link — the serving
    /// path's per-request wire time.
    pub fn link_secs(&self, bytes: u64) -> f64 {
        bytes as f64 / self.cfg.network_bytes_per_sec
    }

    /// Per-link contention statistics. Empty under the default timing
    /// model (the arithmetic charges never touch individual links).
    pub fn link_stats(&self) -> Vec<LinkStat> {
        match &self.pricing {
            Pricing::Aggregate => Vec::new(),
            Pricing::Shared(c) => {
                let st = lock_plain(&c.state);
                (0..c.topo.len() as u32)
                    .map(|l| LinkStat {
                        label: c.topo.label(l),
                        capacity: c.topo.capacity(l),
                        bytes: st.link_bytes[l as usize],
                        busy_secs: st.link_busy_secs[l as usize],
                        peak_util: st.link_peak_util[l as usize],
                    })
                    .collect()
            }
        }
    }

    /// Whole-run event-engine totals, or `None` under the default timing
    /// model.
    pub fn engine_stats(&self) -> Option<EngineStats> {
        match &self.pricing {
            Pricing::Aggregate => None,
            Pricing::Shared(c) => Some(lock_plain(&c.state).stats),
        }
    }

    /// Advances the virtual clock by a flat amount (job-initialization
    /// overheads and the like). Charged to the scheduler category: flat
    /// advances model framework overhead, not productive compute.
    pub fn advance_time(&self, secs: f64) {
        self.advance_time_labeled(secs, "overhead");
    }

    /// [`advance_time`](Self::advance_time) with a segment label.
    pub fn advance_time_labeled(&self, secs: f64, label: &str) {
        let win = self.metrics_lock().advance_cat(secs, TimeCategory::Scheduler);
        if secs > 0.0 {
            self.emit_segment(label, TimeCategory::Scheduler, win.0, win.1, Vec::new());
        }
    }

    /// Tracks a driver-side allocation against the configured driver
    /// memory. The returned guard releases the bytes on drop; peak usage is
    /// recorded for Figure 8.
    pub fn alloc_driver(&self, bytes: u64) -> Result<DriverAlloc<'_>, ClusterError> {
        let mut m = self.metrics_lock();
        let in_use = m.driver_bytes;
        if in_use + bytes > self.cfg.driver_memory {
            return Err(ClusterError::DriverOom {
                requested: bytes,
                in_use,
                limit: self.cfg.driver_memory,
            });
        }
        m.driver_bytes = in_use + bytes;
        m.driver_peak_bytes = m.driver_peak_bytes.max(in_use + bytes);
        m.registry().gauge("cluster.driver_peak_bytes").set_max((in_use + bytes) as f64);
        Ok(DriverAlloc { cluster: self, bytes })
    }

    /// Copy of all metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics_lock().snapshot()
    }

    /// Resets clock, meters, and stage history (driver-live bytes are kept,
    /// since guards may still be outstanding).
    pub fn reset_metrics(&self) {
        self.metrics_lock().reset();
    }
}

impl fmt::Debug for SimCluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimCluster")
            .field("nodes", &self.cfg.nodes)
            .field("cores_per_node", &self.cfg.cores_per_node)
            .field("pool_workers", &self.pool.workers())
            .finish()
    }
}

/// RAII guard for a tracked driver allocation.
#[derive(Debug)]
pub struct DriverAlloc<'a> {
    cluster: &'a SimCluster,
    bytes: u64,
}

impl DriverAlloc<'_> {
    /// Size of the tracked allocation.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for DriverAlloc<'_> {
    fn drop(&mut self) {
        let mut m = self.cluster.metrics_lock();
        m.driver_bytes = m.driver_bytes.saturating_sub(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, FaultSpec};

    fn small_cluster() -> SimCluster {
        SimCluster::new(ClusterConfig::paper_cluster().with_nodes(2).with_cores_per_node(2))
    }

    #[test]
    fn run_stage_returns_results_in_order() {
        let c = small_cluster();
        let tasks: Vec<_> = (0..10).map(|i| move || i * i).collect();
        let out = c.run_stage(StageOptions::new("squares"), tasks);
        assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_stage_records_metrics() {
        let c = small_cluster();
        let tasks: Vec<_> = (0..4).map(|_| move || std::hint::black_box(0)).collect();
        let _ = c.run_stage(StageOptions::new("noop").with_task_overhead(1.0), tasks);
        let m = c.metrics();
        assert_eq!(m.stages.len(), 1);
        assert_eq!(m.stages[0].tasks, 4);
        // 4 tasks × 1s overhead on 4 cores → ~1s of virtual time.
        assert!(m.virtual_time_secs >= 1.0);
        assert!(m.virtual_time_secs < 1.5, "got {}", m.virtual_time_secs);
    }

    #[test]
    fn more_cores_means_less_virtual_time() {
        let run = |cores: usize| {
            let c = SimCluster::new(
                ClusterConfig::paper_cluster().with_nodes(1).with_cores_per_node(cores),
            );
            let tasks: Vec<_> = (0..64).map(|_| move || ()).collect();
            let _ = c.run_stage(StageOptions::new("t").with_task_overhead(0.5), tasks);
            c.metrics().virtual_time_secs
        };
        let t8 = run(8);
        let t32 = run(32);
        assert!(t8 > 3.0 * t32, "t8={t8} t32={t32}");
    }

    #[test]
    fn empty_stage_is_recorded_but_free() {
        let c = small_cluster();
        let out: Vec<i32> = c.run_stage(StageOptions::new("empty"), Vec::<fn() -> i32>::new());
        assert!(out.is_empty());
        assert_eq!(c.metrics().stages.len(), 1);
        assert_eq!(c.metrics().virtual_time_secs, 0.0);
    }

    #[test]
    fn stage_results_identical_across_pool_sizes() {
        // The determinism contract: only host wall time may depend on the
        // pool; stage outputs must be bit-for-bit identical on 1, 2, and 8
        // workers.
        let run_with = |workers: usize| {
            let c = SimCluster::new_with_pool(
                ClusterConfig::paper_cluster().with_nodes(2).with_cores_per_node(2),
                Arc::new(WorkerPool::new(workers)),
            );
            assert_eq!(c.pool().workers(), workers.max(1));
            let tasks: Vec<_> = (0..48u64)
                .map(|i| {
                    move || {
                        // Nontrivial float reduction: order-sensitive if the
                        // substrate ever reassigned work by worker count.
                        (0..200).map(|k| ((i * 200 + k) as f64).sqrt()).sum::<f64>().to_bits()
                    }
                })
                .collect();
            c.run_stage(StageOptions::new("det"), tasks)
        };
        let one = run_with(1);
        let two = run_with(2);
        let eight = run_with(8);
        assert_eq!(one, two);
        assert_eq!(one, eight);
    }

    #[test]
    fn network_and_dfs_charges_accumulate() {
        // small_cluster has 2 nodes: aggregate bandwidth is 2x the link.
        let c = small_cluster();
        // 1 virtual second at 2 x 120 MB/s, 1 at 2 x 100 MB/s, then 0.5.
        c.charge(Meter::Network, Load::Even(240_000_000), "network");
        c.charge(Meter::DfsWrite, Load::Even(200_000_000), "dfs-write");
        c.charge(Meter::DfsRead, Load::Even(100_000_000), "dfs-read");
        let m = c.metrics();
        assert_eq!(m.network_bytes, 240_000_000);
        assert_eq!(m.dfs_bytes_written, 200_000_000);
        assert_eq!(m.dfs_bytes_read, 100_000_000);
        assert_eq!(m.intermediate_bytes, 440_000_000);
        assert!((m.virtual_time_secs - 2.5).abs() < 1e-9);
    }

    #[test]
    fn broadcast_charges_once_per_node() {
        let c = small_cluster(); // 2 nodes
        c.charge(Meter::Network, Load::EachNode(1_000), "broadcast");
        let m = c.metrics();
        assert_eq!(m.network_bytes, 2_000);
        assert_eq!(m.intermediate_bytes, 2_000);
        assert!(m.virtual_time_secs > 0.0);
    }

    #[test]
    fn bandwidth_scales_with_node_count() {
        let time_for = |nodes: usize| {
            let c = SimCluster::new(ClusterConfig::paper_cluster().with_nodes(nodes));
            c.charge(Meter::Network, Load::Even(960_000_000), "network");
            c.metrics().virtual_time_secs
        };
        let t2 = time_for(2);
        let t8 = time_for(8);
        assert!((t2 / t8 - 4.0).abs() < 1e-9, "4x nodes -> 4x aggregate bandwidth");
    }

    #[test]
    fn driver_allocation_tracks_peak_and_frees() {
        let c = SimCluster::new(ClusterConfig::paper_cluster().with_driver_memory(1000));
        {
            let _a = c.alloc_driver(600).unwrap();
            let _b = c.alloc_driver(300).unwrap();
            assert_eq!(c.metrics().driver_bytes, 900);
        }
        let m = c.metrics();
        assert_eq!(m.driver_bytes, 0, "guards must free on drop");
        assert_eq!(m.driver_peak_bytes, 900);
    }

    #[test]
    fn driver_oom_is_reported() {
        let c = SimCluster::new(ClusterConfig::paper_cluster().with_driver_memory(1000));
        let _a = c.alloc_driver(800).unwrap();
        let err = c.alloc_driver(300).map(|g| g.bytes()).unwrap_err();
        assert_eq!(err, ClusterError::DriverOom { requested: 300, in_use: 800, limit: 1000 });
    }

    #[test]
    fn run_driver_charges_clock() {
        let c = small_cluster();
        let v = c.run_driver("local", || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(c.metrics().stages.len(), 1);
    }

    #[test]
    fn reset_clears_meters_but_keeps_live_driver_bytes() {
        let c = SimCluster::new(ClusterConfig::paper_cluster().with_driver_memory(1000));
        let guard = c.alloc_driver(500).unwrap();
        c.charge(Meter::Network, Load::Even(1_000_000), "network");
        c.reset_metrics();
        let m = c.metrics();
        assert_eq!(m.network_bytes, 0);
        assert_eq!(m.virtual_time_secs, 0.0);
        assert_eq!(m.driver_bytes, 500);
        drop(guard);
        assert_eq!(c.metrics().driver_bytes, 0);
    }

    #[test]
    fn failure_injection_slows_but_never_corrupts() {
        let run = |rate: f64| {
            let c = SimCluster::new(
                ClusterConfig::paper_cluster()
                    .with_nodes(1)
                    .with_cores_per_node(4)
                    .with_task_failure_rate(rate),
            );
            let tasks: Vec<_> = (0..100).map(|i| move || i * 3).collect();
            let out = c.run_stage(StageOptions::new("t").with_task_overhead(0.5), tasks);
            (out, c.metrics().virtual_time_secs)
        };
        let (ok_out, ok_time) = run(0.0);
        let (faulty_out, faulty_time) = run(0.3);
        assert_eq!(ok_out, faulty_out, "retries must be invisible in results");
        assert!(
            faulty_time > ok_time * 1.1,
            "30% failures must cost time: {ok_time} vs {faulty_time}"
        );
    }

    #[test]
    #[should_panic(expected = "invalid cluster config")]
    fn bad_config_fails_at_construction() {
        let mut cfg = ClusterConfig::paper_cluster();
        cfg.task_failure_rate = 1.0;
        let _ = SimCluster::new(cfg);
    }

    #[test]
    fn node_crash_reattempts_tasks_and_keeps_results() {
        let run = |plan: FaultPlan| {
            let c = small_cluster(); // 2 nodes x 2 cores
            c.install_fault_plan(FaultSpec::new(3), plan).unwrap();
            let tasks: Vec<_> = (0..8).map(|i| move || i * 7).collect();
            let out = c.run_stage(StageOptions::new("t").with_task_overhead(1.0), tasks);
            (out, c.metrics().virtual_time_secs, c.recovery_log())
        };
        let (clean_out, clean_time, clean_log) = run(FaultPlan::new());
        assert!(clean_log.is_empty());
        let (out, time, log) = run(FaultPlan::new().with_crash(1, 0));
        assert_eq!(out, clean_out, "recovery must be invisible in results");
        assert!(time > clean_time, "a crash must cost time: {clean_time} vs {time}");
        // Node 1 of 2 owns tasks 1,3,5,7: one crash event + 4 reattempts.
        assert_eq!(log[0], RecoveryEvent::NodeCrashed { node: 1, stage: 0 });
        let reattempts: Vec<usize> = log
            .iter()
            .filter_map(|e| match e {
                RecoveryEvent::TaskReattempted { task, .. } => Some(*task),
                _ => None,
            })
            .collect();
        assert_eq!(reattempts, vec![1, 3, 5, 7]);
    }

    #[test]
    fn crash_marks_cached_partitions_lost() {
        let c = small_cluster(); // 2 nodes
        c.install_fault_plan(FaultSpec::new(0), FaultPlan::new().with_crash(0, 0)).unwrap();
        let cache = c.register_cache(6);
        assert!(c.take_lost_partitions(cache).is_empty(), "nothing lost before the crash");
        let _ = c.run_stage(StageOptions::new("t"), vec![|| 1, || 2]);
        // Node 0 owns partitions 0, 2, 4; the drain is one-shot.
        assert_eq!(c.take_lost_partitions(cache), vec![0, 2, 4]);
        assert!(c.take_lost_partitions(cache).is_empty());
    }

    #[test]
    fn crash_triggers_dfs_recovery() {
        let c = SimCluster::new(
            ClusterConfig::paper_cluster().with_nodes(2).with_dfs_replication(1),
        );
        c.dfs().put(&c, "a", 100);
        c.dfs().put(&c, "b", 100);
        c.install_fault_plan(FaultSpec::new(0), FaultPlan::new().with_crash(0, 0)).unwrap();
        let _ = c.run_stage(StageOptions::new("t"), vec![|| ()]);
        let log = c.recovery_log();
        assert!(log.contains(&RecoveryEvent::NodeCrashed { node: 0, stage: 0 }));
        // With factor 1 on 2 nodes, each file has a single replica; the
        // ones on node 0 are lost and show up in the log.
        let lost: Vec<_> = log
            .iter()
            .filter(|e| matches!(e, RecoveryEvent::BlockLost { .. }))
            .collect();
        let survivors = c.dfs().file_count();
        assert_eq!(lost.len() + survivors, 2, "every file is either lost or intact");
    }

    #[test]
    fn speculation_beats_plain_stragglers() {
        let run = |speculation: bool| {
            let c = SimCluster::new(
                ClusterConfig::paper_cluster().with_nodes(1).with_cores_per_node(4),
            );
            let spec = FaultSpec::new(9)
                .with_straggler_rate(0.25)
                .with_straggler_slowdown(8.0)
                .with_speculation(speculation);
            c.install_fault_plan(spec, FaultPlan::new()).unwrap();
            let tasks: Vec<_> = (0..32).map(|i| move || i).collect();
            let out = c.run_stage(StageOptions::new("t").with_task_overhead(1.0), tasks);
            (out, c.metrics().virtual_time_secs, c.registry())
        };
        let (out_plain, t_plain, _) = run(false);
        let (out_spec, t_spec, reg) = run(true);
        assert_eq!(out_plain, out_spec);
        assert!(
            t_spec < t_plain,
            "speculation must cut straggler time: {t_spec} vs {t_plain}"
        );
        assert!(reg.counter("faults.speculative_wins").get() > 0);
    }

    #[test]
    fn recovery_log_identical_across_pool_sizes() {
        let run_with = |workers: usize| {
            let c = SimCluster::new_with_pool(
                ClusterConfig::paper_cluster().with_nodes(2).with_cores_per_node(2),
                Arc::new(WorkerPool::new(workers)),
            );
            let spec = FaultSpec::new(5)
                .with_straggler_rate(0.3)
                .with_straggler_slowdown(4.0)
                .with_speculation(true);
            c.install_fault_plan(spec, FaultPlan::new().with_crash(1, 1)).unwrap();
            let cache = c.register_cache(8);
            for s in 0..3 {
                let tasks: Vec<_> = (0..16u64).map(|i| move || i + s).collect();
                let _ = c.run_stage(StageOptions::new("t"), tasks);
            }
            let _ = c.take_lost_partitions(cache);
            c.recovery_log()
        };
        let one = run_with(1);
        assert_eq!(one, run_with(2));
        assert_eq!(one, run_with(8));
        assert!(one.iter().any(|e| matches!(e, RecoveryEvent::NodeCrashed { .. })));
    }

    #[test]
    fn contended_uniform_charges_match_arithmetic() {
        let mk = |t| SimCluster::new(ClusterConfig::scaled_cluster().with_timing(t));
        let a = mk(TimingModel::Uncontended);
        let b = mk(TimingModel::Contended);
        for c in [&a, &b] {
            c.charge(Meter::Network, Load::Even(3_000_001), "network");
            c.charge(Meter::DfsWrite, Load::Even(1_200_007), "dfs-write");
            c.charge(Meter::DfsRead, Load::Even(600_013), "dfs-read");
            c.charge(Meter::Network, Load::EachNode(10_000), "broadcast");
        }
        let (ma, mb) = (a.metrics(), b.metrics());
        assert_eq!(ma.network_bytes, mb.network_bytes, "meters are timing-invariant");
        assert_eq!(ma.dfs_bytes_written, mb.dfs_bytes_written);
        assert_eq!(ma.dfs_bytes_read, mb.dfs_bytes_read);
        // Four uniform charges, each reproduced within 1 µs.
        assert!(
            (ma.virtual_time_secs - mb.virtual_time_secs).abs() < 4e-6,
            "uncontended {} vs contended {}",
            ma.virtual_time_secs,
            mb.virtual_time_secs
        );
    }

    #[test]
    fn skewed_flows_contend_only_under_contended_timing() {
        // All 8 MB land on one endpoint: the arithmetic model still
        // charges aggregate bandwidth; the event model serializes on that
        // node's downlink — 8x slower on an 8-node cluster.
        let skew = [8_000_000u64, 0, 0, 0, 0, 0, 0, 0];
        let a = SimCluster::new(ClusterConfig::scaled_cluster());
        a.charge(Meter::Network, Load::PerEndpoint(&skew), "skew");
        let b = SimCluster::new(
            ClusterConfig::scaled_cluster().with_timing(TimingModel::Contended),
        );
        b.charge(Meter::Network, Load::PerEndpoint(&skew), "skew");
        let (ta, tb) = (a.metrics().virtual_time_secs, b.metrics().virtual_time_secs);
        assert!((tb / ta - 8.0).abs() < 1e-3, "skew must cost 8x: {ta} vs {tb}");
        assert_eq!(a.metrics().network_bytes, b.metrics().network_bytes);
    }

    #[test]
    fn link_stats_track_utilization_within_capacity() {
        let c = SimCluster::new(
            ClusterConfig::scaled_cluster().with_timing(TimingModel::Contended),
        );
        let shuffle = [5_000_000, 1_000_000, 0, 0, 250_000, 0, 0, 0];
        c.charge(Meter::Network, Load::PerEndpoint(&shuffle), "shuffle");
        c.charge(Meter::DfsWrite, Load::Even(2_400_000), "dfs-write");
        let stats = c.link_stats();
        assert_eq!(stats.len(), 25, "fabric + 8 up + 8 down + 8 disks");
        assert!(stats.iter().all(|l| l.peak_util <= 1.0 + 1e-9), "never over capacity");
        assert!(stats.iter().any(|l| l.peak_util > 0.99), "the loaded links saturate");
        let engine = c.engine_stats().expect("contended mode has engine stats");
        assert!(engine.events > 0 && engine.resolves > 0);
        // Uncontended clusters report no link activity at all.
        let u = SimCluster::new(ClusterConfig::scaled_cluster());
        u.charge(Meter::Network, Load::Even(1_000_000), "network");
        assert!(u.link_stats().is_empty());
        assert!(u.engine_stats().is_none());
    }

    #[test]
    fn contended_stage_results_and_faults_stay_deterministic() {
        let run = |timing| {
            let c = SimCluster::new(
                ClusterConfig::scaled_cluster()
                    .with_nodes(2)
                    .with_cores_per_node(2)
                    .with_timing(timing),
            );
            c.install_fault_plan(FaultSpec::new(3), FaultPlan::new().with_crash(1, 0)).unwrap();
            let tasks: Vec<_> = (0..8).map(|i| move || i * 7).collect();
            let out = c.run_stage(
                StageOptions::new("t").with_task_overhead(0.1).with_reexec_read_bytes(1000),
                tasks,
            );
            (out, c.recovery_log())
        };
        let (out_u, log_u) = run(TimingModel::Uncontended);
        let (out_c, log_c) = run(TimingModel::Contended);
        assert_eq!(out_u, out_c, "results are timing-model-invariant");
        assert_eq!(log_u, log_c, "recovery logs are structural, not timed");
    }

    #[test]
    fn stage_results_survive_host_oversubscription() {
        // More tasks than pool workers: the queue must drain fully.
        let c = small_cluster();
        let tasks: Vec<_> = (0..200).map(|i| move || i).collect();
        let out = c.run_stage(StageOptions::new("many"), tasks);
        assert_eq!(out.len(), 200);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i));
    }
}
