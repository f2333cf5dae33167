//! Multi-tenant projection serving on the simulated cluster.
//!
//! The paper fits one model per cluster run; the production system the
//! roadmap points at runs many tenants on one cluster — each submitting
//! fit jobs through a job-level scheduler ([`dcluster::jobs`]) while its
//! already-fitted models answer batched Y→X transform requests. This
//! module is that serving path:
//!
//! * **Fit jobs** are admitted by the configured [`SchedulerPolicy`]
//!   (FIFO / fair-share / backfill) onto the shared core pool; each
//!   dispatched job then *really* fits (the engines' bitwise-determinism
//!   contract carries over verbatim) under a job-scoped DFS namespace.
//! * **Serve batches** are modeled requests: each batch of rows drawn
//!   from the tenant's request pool is routed to a virtual node, really
//!   transformed through the fitted model's `CM` projection
//!   ([`crate::mean_prop::latent_row`] in its block form — the same
//!   O(z·d) kernel the EM jobs use, a batch at a time, chunks of batches
//!   in parallel on the cluster's pool), priced on the wire codec for
//!   request/response bytes, and completed on the discrete-event queue.
//! * **Model caching** is per node: a model is pushed to a node on first
//!   use (a metered broadcast) and held in an LRU-by-bytes cache bounded
//!   by `ClusterConfig::model_cache_bytes`.
//! * **Admission control** bounds each node's waiting queue at
//!   `ClusterConfig::admission_queue_capacity`; overflowing arrivals are
//!   deterministically rejected and counted.
//!
//! # Determinism
//!
//! Every virtual time here is a pure function of shapes, non-zero
//! counts, config knobs and the spec's seed — *never* measured host
//! time — and all of them order through the integer-nanosecond
//! [`EventQueue`]. The full request/completion trace folds into
//! [`ServingOutcome::trace_hash`], which also eats each response's
//! checksum (and therefore each fitted model's exact bits): one u64
//! certifies that the schedule *and* the models are bitwise identical
//! across host worker counts, scheduler policies' seeds, and chaos
//! plans.

use std::collections::VecDeque;
use std::sync::Arc;

use dcluster::events::{ns_to_secs, secs_to_ns, EventQueue, SimNanos};
use dcluster::jobs::{percentile, schedule_jobs, JobSpec, ScheduleOutcome};
use dcluster::{Load, Meter, SimCluster};
use linalg::{wire, Mat, SparseMat, Wire};

use crate::config::SpcaConfig;
use crate::error::SpcaError;
use crate::mean_prop::latent_block_serial;
use crate::model::PcaModel;
use crate::Result;

/// One fit job a tenant submits to the scheduler.
#[derive(Debug, Clone)]
pub struct FitJob {
    /// Cluster-unique job id (claims the `jobs/<id>/` DFS namespace).
    pub id: String,
    /// Virtual submission time.
    pub submit_secs: f64,
    /// Cores the job reserves while fitting.
    pub cores: usize,
    /// Input matrix.
    pub y: Arc<SparseMat>,
    /// Fit configuration (its `job_id` is overwritten with `id`).
    pub config: SpcaConfig,
}

/// A tenant's transform-request stream.
#[derive(Debug, Clone)]
pub struct ServeLoad {
    /// Rows requests are drawn from (rotating row windows).
    pub pool: Arc<SparseMat>,
    /// Number of batches in the stream.
    pub batches: usize,
    /// Rows per batch (each row is one transform request).
    pub batch_rows: usize,
    /// Mean batch arrival rate, batches per virtual second.
    pub rate_per_sec: f64,
    /// Virtual time the stream opens.
    pub start_secs: f64,
}

/// One tenant: its fit queue, its serve stream, and optionally a model
/// fitted in an earlier run (serving can start at t=0 with it).
#[derive(Debug, Clone, Default)]
pub struct TenantWorkload {
    /// Display name (reports).
    pub name: String,
    /// Fit jobs this tenant submits.
    pub fit_jobs: Vec<FitJob>,
    /// Transform traffic, if the tenant serves.
    pub serve: Option<ServeLoad>,
    /// Pre-fitted model (ready at t=0). When fit jobs also complete,
    /// the latest-finishing fit's model replaces it.
    pub model: Option<PcaModel>,
}

/// Chaos injection for the serving path: crash a node after the N-th
/// batch arrival. In-flight and queued batches on the node are
/// re-dispatched to survivors after the retry delay, and survivors
/// re-broadcast the models the crashed cache held.
#[derive(Debug, Clone, Copy)]
pub struct ServeChaos {
    /// Node to crash.
    pub crash_node: usize,
    /// Global batch-arrival count that triggers the crash.
    pub at_batch: u64,
}

/// A full mixed fit+serve workload.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Seed for arrival jitter and request routing.
    pub seed: u64,
    /// Modeled per-core compute rate for fit runtimes and batch service
    /// times, in flops/sec.
    pub flops_per_sec_per_core: f64,
    /// The tenants, indexed by position (keys `fair_share_weights`).
    pub tenants: Vec<TenantWorkload>,
    /// Optional mid-serve node crash.
    pub chaos: Option<ServeChaos>,
}

impl ServeSpec {
    /// A spec with no tenants and a 1 Gflop/s/core compute model.
    pub fn new(seed: u64) -> Self {
        ServeSpec { seed, flops_per_sec_per_core: 1e9, tenants: Vec::new(), chaos: None }
    }

    /// Rejects mis-specified workloads before any virtual time is
    /// charged. The headline rule: a tenant that serves must bring a
    /// model — fitted earlier or fitted by one of its own jobs.
    pub fn validate(&self, cluster: &SimCluster) -> Result<()> {
        let bad = |what: String| Err(SpcaError::InvalidServing { what });
        if self.tenants.is_empty() {
            return bad("spec has no tenants".into());
        }
        if !self.flops_per_sec_per_core.is_finite() || self.flops_per_sec_per_core <= 0.0 {
            return bad(format!(
                "flops_per_sec_per_core must be > 0, got {}",
                self.flops_per_sec_per_core
            ));
        }
        for (t, tenant) in self.tenants.iter().enumerate() {
            let Some(serve) = &tenant.serve else { continue };
            if tenant.fit_jobs.is_empty() && tenant.model.is_none() {
                return bad(format!(
                    "tenant {t} ({:?}) serves without a fitted model: give it a model or at \
                     least one fit job",
                    tenant.name
                ));
            }
            if serve.batches == 0 || serve.batch_rows == 0 {
                return bad(format!("tenant {t}: serve stream must have batches and rows"));
            }
            if serve.pool.rows() == 0 {
                return bad(format!("tenant {t}: request pool is empty"));
            }
            if !serve.rate_per_sec.is_finite() || serve.rate_per_sec <= 0.0 {
                return bad(format!(
                    "tenant {t}: rate_per_sec must be > 0, got {}",
                    serve.rate_per_sec
                ));
            }
        }
        if let Some(chaos) = &self.chaos {
            let nodes = cluster.config().nodes;
            if chaos.crash_node >= nodes {
                return bad(format!(
                    "chaos.crash_node {} out of range for {nodes} nodes",
                    chaos.crash_node
                ));
            }
            if nodes < 2 {
                return bad("chaos crash needs at least one survivor node".into());
            }
        }
        Ok(())
    }
}

/// Per-tenant serving statistics (one row of `trace_report`'s table).
#[derive(Debug, Clone)]
pub struct TenantServeStats {
    /// Tenant name.
    pub name: String,
    /// Fit jobs that ran to completion.
    pub jobs_completed: usize,
    /// Fit jobs bounced by scheduler admission control.
    pub jobs_rejected: usize,
    /// Total virtual queueing delay across completed fit jobs.
    pub wait_secs_total: f64,
    /// Total virtual service time across completed fit jobs.
    pub run_secs_total: f64,
    /// Transform requests (rows) served to completion.
    pub requests: u64,
    /// Batches served to completion.
    pub batches: u64,
    /// Batches rejected by node admission control (or model-less).
    pub batches_rejected: u64,
    /// Model-cache hits across this tenant's batches.
    pub cache_hits: u64,
    /// Model-cache misses (each one a metered model push).
    pub cache_misses: u64,
    /// p50 batch latency, virtual seconds.
    pub latency_p50_secs: f64,
    /// p99 batch latency, virtual seconds.
    pub latency_p99_secs: f64,
    /// Served requests per virtual second over the tenant's window.
    pub qps: f64,
    /// Content hash of the model that served (None if never fitted).
    pub model_hash: Option<u64>,
}

impl TenantServeStats {
    /// Cache hit rate in [0, 1] (0 with no lookups).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Everything one mixed fit+serve run produced.
#[derive(Debug, Clone)]
pub struct ServingOutcome {
    /// Per-tenant statistics, in tenant order.
    pub tenants: Vec<TenantServeStats>,
    /// The fit-job schedule.
    pub schedule: ScheduleOutcome,
    /// The model each tenant ended up serving with, in tenant order.
    pub models: Vec<Option<PcaModel>>,
    /// FNV-1a over every batch's terminal record *and* response
    /// checksum, in event order — the one-number determinism certificate.
    pub trace_hash: u64,
    /// Transform requests (rows) served to completion.
    pub requests_total: u64,
    /// Batches served to completion.
    pub batches_total: u64,
    /// Batches rejected.
    pub rejected_total: u64,
    /// Model pushes to nodes (cache misses).
    pub broadcasts: u64,
    /// Broadcasts re-issued to survivors after the chaos crash.
    pub rebroadcasts: u64,
    /// p50 batch latency across all tenants, virtual seconds.
    pub latency_p50_secs: f64,
    /// p99 batch latency across all tenants, virtual seconds.
    pub latency_p99_secs: f64,
    /// Virtual completion time of the whole workload.
    pub makespan_secs: f64,
    /// Event-queue heap operations (scheduler + serving loops).
    pub events_processed: u64,
}

/// 64-bit finalizer (splitmix64's) for jitter and routing decisions.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

fn fnv(h: u64, x: u64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = h;
    for &b in &x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Modeled fit runtime for the scheduler: EM's per-iteration flop count
/// over the job's core reservation, plus a fixed submit overhead. A pure
/// function of shapes and config — never measured host time — so the
/// schedule is identical on every machine.
fn fit_runtime_secs(job: &FitJob, flops_per_sec_per_core: f64) -> f64 {
    let d = job.config.components as f64;
    let nnz = job.y.nnz() as f64;
    let n = job.y.rows() as f64;
    let cols = job.y.cols() as f64;
    let iter_flops = 4.0 * nnz * d + 2.0 * n * d * d + 2.0 * cols * d * d;
    let iters = job.config.max_iters.max(1) as f64;
    1.0 + iters * iter_flops / (job.cores.max(1) as f64 * flops_per_sec_per_core)
}

/// Encoded size of a model on the wire: `C` (D×d), `μ` (D), `ss`.
fn model_wire_bytes(model: &PcaModel) -> u64 {
    let d_in = model.input_dim() as u64;
    let d = model.output_dim() as u64;
    wire::f64_payload_len((d_in * d + d_in + 1) as usize)
}

/// One precomputed serve batch: arrival, routing salt, modeled service
/// time, wire bytes, and the *real* response checksum.
struct Batch {
    tenant: usize,
    index: u64,
    arrival_ns: SimNanos,
    service_ns: SimNanos,
    req_bytes: u64,
    resp_bytes: u64,
    checksum: u64,
}

/// Batches per pool task of the precompute. A constant, because chunk
/// boundaries must not depend on the host (the pool's determinism
/// contract); at ~10 µs a batch a chunk is ~1 ms, long enough to
/// amortise its queue round-trip and short enough to balance.
const PRECOMPUTE_CHUNK: usize = 128;

/// One tenant's serve stream with the projection its model answers with
/// (`cm` is `None` for a tenant that never got a model).
struct Stream<'a> {
    tenant: usize,
    serve: &'a ServeLoad,
    cm: Option<Mat>,
    xm: Vec<f64>,
    /// Arrivals clamp to the instant the tenant's model is ready.
    ready_ns: SimNanos,
}

impl Stream<'_> {
    /// Precomputes batch `k` of the stream. `x_blk` is scratch the caller
    /// keeps across batches.
    fn batch(
        &self,
        k: usize,
        cluster: &SimCluster,
        spec: &ServeSpec,
        x_blk: &mut Vec<f64>,
    ) -> Batch {
        let (t, serve) = (self.tenant, self.serve);
        // Arrival: open time + k/rate + sub-millisecond seeded jitter,
        // clamped to the tenant's model-ready instant.
        let jitter = (mix(spec.seed ^ ((t as u64) << 32) ^ k as u64) % 1_000) as f64 * 1e-6;
        let raw = serve.start_secs + k as f64 / serve.rate_per_sec + jitter;
        let arrival_ns = secs_to_ns(raw).max(self.ready_ns);
        // The batch's rows: a rotating window over the pool, gathered
        // into the request block that is priced on the wire and projected.
        let pool_rows = serve.pool.rows();
        let start = (k * serve.batch_rows) % pool_rows;
        let views: Vec<_> =
            (0..serve.batch_rows).map(|i| serve.pool.row((start + i) % pool_rows)).collect();
        let req = SparseMat::from_row_views(serve.pool.cols(), &views);
        // Real transforms: the block form of the latent-row kernel the EM
        // jobs broadcast CM for (same operation order, same bits), folded
        // row by row into a checksum that pins the response bits (and
        // thus the model bits) into the trace.
        let d = self.xm.len();
        let mut checksum = FNV_OFFSET;
        if let Some(cm) = &self.cm {
            x_blk.clear();
            x_blk.resize(serve.batch_rows * d, 0.0);
            latent_block_serial(&req, cm.data(), &self.xm, x_blk);
            for v in x_blk.iter() {
                checksum = fnv(checksum, v.to_bits());
            }
        }
        // 2·z·d for `y·CM` and 2·d for `− Xm` per row; a sum of integers,
        // so one product is the row-at-a-time total exactly.
        let flops = (2 * req.nnz() * d + 2 * d * serve.batch_rows) as f64;
        // Wire pricing: the request is the encoded sparse batch, the
        // response a dense rows×d payload.
        let req_bytes = req.encoded_size();
        let resp_bytes = wire::f64_payload_len(serve.batch_rows * d);
        let wire_secs = cluster.link_secs(req_bytes + resp_bytes);
        let service_ns = secs_to_ns(flops / spec.flops_per_sec_per_core + wire_secs);
        Batch { tenant: t, index: k as u64, arrival_ns, service_ns, req_bytes, resp_bytes, checksum }
    }
}

/// Per-node serving state.
struct Node {
    alive: bool,
    reserved: usize,
    active: Vec<(usize, u64)>, // (batch idx, completion event seq)
    waiting: VecDeque<usize>,
    cache: Vec<CacheEntry>,
    cache_bytes: u64,
}

struct CacheEntry {
    tenant: usize,
    bytes: u64,
    last_use: (SimNanos, u64), // (virtual time, use seq) — the LRU key
}

enum SEv {
    FitStart(usize),
    FitEnd(usize),
    Arrive { batch: usize, redispatch: bool },
    Complete { node: usize, batch: usize },
}

/// Runs the full mixed workload: schedule the fit queue, really fit each
/// dispatched job (bitwise-deterministic models, job-scoped DFS
/// namespaces), then serve every tenant's batch stream through the
/// event queue with per-node caches and admission control.
pub fn run_serving(cluster: &SimCluster, spec: &ServeSpec) -> Result<ServingOutcome> {
    spec.validate(cluster)?;
    let cfg = cluster.config().clone();
    let registry = cluster.registry();

    // ---- Phase 1: schedule the fit queue. -------------------------------
    let mut jobs: Vec<JobSpec> = Vec::new();
    let mut job_refs: Vec<(usize, usize)> = Vec::new(); // (tenant, job idx)
    for (t, tenant) in spec.tenants.iter().enumerate() {
        for (j, job) in tenant.fit_jobs.iter().enumerate() {
            jobs.push(JobSpec {
                id: job.id.clone(),
                tenant: t,
                submit_secs: job.submit_secs,
                cores: job.cores.max(1),
                runtime_secs: fit_runtime_secs(job, spec.flops_per_sec_per_core),
            });
            job_refs.push((t, j));
        }
    }
    let schedule = schedule_jobs(
        &jobs,
        &cfg.fair_share_weights,
        cfg.total_cores(),
        cfg.scheduler,
        cfg.admission_queue_capacity,
    );

    // ---- Phase 2: really fit each dispatched job, in dispatch order. ----
    // Claim every admitted job's DFS namespace first: a duplicate id must
    // fail the whole run before any fit writes a byte.
    for rec in &schedule.records {
        cluster.dfs().register_job(&rec.id).map_err(SpcaError::from)?;
    }
    let mut models: Vec<Option<PcaModel>> = spec.tenants.iter().map(|t| t.model.clone()).collect();
    let mut model_ready_ns: Vec<SimNanos> = spec
        .tenants
        .iter()
        .map(|t| if t.model.is_some() { 0 } else { SimNanos::MAX })
        .collect();
    let mut model_finish: Vec<f64> = vec![-1.0; spec.tenants.len()];
    for id in &schedule.start_order {
        let pos = jobs.iter().position(|j| &j.id == id).expect("started job exists");
        let rec = schedule.records.iter().find(|r| &r.id == id).expect("record exists");
        let (t, j) = job_refs[pos];
        let fit_job = &spec.tenants[t].fit_jobs[j];
        let config = fit_job.config.clone().with_job_id(fit_job.id.clone());
        let run = crate::spark::fit(cluster, &fit_job.y, &config)?;
        // The latest-finishing fit's model is the one the tenant serves
        // with (ties resolve by dispatch order — deterministic).
        if rec.finish_secs >= model_finish[t] {
            model_finish[t] = rec.finish_secs;
            model_ready_ns[t] = secs_to_ns(rec.finish_secs);
            models[t] = Some(run.model);
        }
    }

    // ---- Phase 3: precompute every batch (real transforms). -------------
    let model_bytes: Vec<u64> = models
        .iter()
        .map(|m| m.as_ref().map_or(0, model_wire_bytes))
        .collect();
    let mut streams: Vec<Stream<'_>> = Vec::new();
    for (t, tenant) in spec.tenants.iter().enumerate() {
        let Some(serve) = &tenant.serve else { continue };
        let (cm, xm) = match &models[t] {
            Some(model) => {
                if serve.pool.cols() != model.input_dim() {
                    return Err(SpcaError::InvalidServing {
                        what: format!(
                            "tenant {t}: request pool has {} columns but the model expects {}",
                            serve.pool.cols(),
                            model.input_dim()
                        ),
                    });
                }
                let cm = model.latent_projection()?;
                let xm = cm.vecmat(model.mean());
                (Some(cm), xm)
            }
            None => (None, Vec::new()), // every batch will be rejected below
        };
        let ready_ns = if model_ready_ns[t] == SimNanos::MAX { 0 } else { model_ready_ns[t] };
        streams.push(Stream { tenant: t, serve, cm, xm, ready_ns });
    }
    // Batches are independent, so contiguous chunks of the (tenant, k)
    // sequence go to the pool; results come back in submission order and
    // `batches` is the sequence a serial loop would build.
    let work: Vec<(usize, usize)> = streams
        .iter()
        .enumerate()
        .flat_map(|(s, stream)| (0..stream.serve.batches).map(move |k| (s, k)))
        .collect();
    let batches: Vec<Batch> = cluster
        .pool()
        .run(
            work.chunks(PRECOMPUTE_CHUNK)
                .map(|chunk| {
                    let streams = &streams;
                    move || -> Vec<Batch> {
                        let mut x_blk = Vec::new();
                        let batch = |&(s, k): &(usize, usize)| {
                            streams[s].batch(k, cluster, spec, &mut x_blk)
                        };
                        chunk.iter().map(batch).collect()
                    }
                })
                .collect(),
        )
        .into_iter()
        .flatten()
        .collect();

    // ---- Phase 4: the serving event loop. -------------------------------
    let nodes_n = cfg.nodes;
    let mut nodes: Vec<Node> = (0..nodes_n)
        .map(|_| Node {
            alive: true,
            reserved: 0,
            active: Vec::new(),
            waiting: VecDeque::new(),
            cache: Vec::new(),
            cache_bytes: 0,
        })
        .collect();
    let mut queue: EventQueue<SEv> = EventQueue::with_capacity(batches.len() * 2 + 16);
    // Fit reservations shadow the schedule: while a fit job runs, its
    // cores are unavailable to serving on the nodes that host it (cores
    // spread round-robin from a job-index offset).
    for (pos, rec) in schedule.records.iter().enumerate() {
        queue.push(secs_to_ns(rec.start_secs), SEv::FitStart(pos));
        queue.push(secs_to_ns(rec.finish_secs), SEv::FitEnd(pos));
    }
    for (b, batch) in batches.iter().enumerate() {
        queue.push(batch.arrival_ns, SEv::Arrive { batch: b, redispatch: false });
    }

    let job_node_share = |pos: usize, node: usize| -> usize {
        let cores = schedule.records[pos].cores;
        let offset = pos % nodes_n;
        // cores dealt one at a time round-robin starting at `offset`.
        let idx = (node + nodes_n - offset) % nodes_n;
        cores / nodes_n + usize::from(idx < cores % nodes_n)
    };

    let mut attempts: Vec<u64> = vec![0; batches.len()];
    let mut use_seq: u64 = 0;
    let mut trace_hash = FNV_OFFSET;
    let mut crash_done = spec.chaos.is_none();
    let mut arrivals_seen: u64 = 0;
    let mut any_broadcast = false;
    let mut broadcasts: u64 = 0;
    let mut rebroadcasts: u64 = 0;
    let mut completed: Vec<Vec<f64>> = vec![Vec::new(); spec.tenants.len()];
    let mut rejected: Vec<u64> = vec![0; spec.tenants.len()];
    let mut hits: Vec<u64> = vec![0; spec.tenants.len()];
    let mut misses: Vec<u64> = vec![0; spec.tenants.len()];
    let mut served_rows: Vec<u64> = vec![0; spec.tenants.len()];
    let mut first_arrival: Vec<SimNanos> = vec![SimNanos::MAX; spec.tenants.len()];
    let mut last_finish: Vec<SimNanos> = vec![0; spec.tenants.len()];
    let mut makespan_ns = secs_to_ns(schedule.makespan_secs);
    let latency_hist = registry.histogram("serve.batch_latency_virtual_secs");
    let retry_ns = secs_to_ns(cfg.task_retry_delay_secs);

    // Starts `batch` on `node` at `now`: cache lookup (miss → metered
    // model push + LRU eviction), wire charges, completion event.
    macro_rules! start_batch {
        ($node:expr, $b:expr, $now:expr) => {{
            let node: usize = $node;
            let b: usize = $b;
            let batch = &batches[b];
            let t = batch.tenant;
            use_seq += 1;
            let mut extra_ns: SimNanos = 0;
            if let Some(entry) = nodes[node].cache.iter_mut().find(|e| e.tenant == t) {
                entry.last_use = ($now, use_seq);
                hits[t] += 1;
            } else {
                misses[t] += 1;
                broadcasts += 1;
                if crash_done && any_broadcast && spec.chaos.is_some() {
                    rebroadcasts += 1;
                }
                any_broadcast = true;
                let bytes = model_bytes[t];
                // Evict least-recently-used entries until the model fits.
                while nodes[node].cache_bytes + bytes > cfg.model_cache_bytes
                    && !nodes[node].cache.is_empty()
                {
                    let lru = nodes[node]
                        .cache
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.last_use)
                        .map(|(i, _)| i)
                        .expect("cache not empty");
                    let evicted = nodes[node].cache.remove(lru);
                    nodes[node].cache_bytes -= evicted.bytes;
                    registry.counter("serve.cache_evictions").add(1);
                }
                nodes[node].cache.push(CacheEntry {
                    tenant: t,
                    bytes,
                    last_use: ($now, use_seq),
                });
                nodes[node].cache_bytes += bytes;
                cluster.charge(Meter::Network, Load::Even(bytes), "serve.model");
                extra_ns = secs_to_ns(cluster.link_secs(bytes));
            }
            cluster.charge(Meter::Network, Load::Even(batch.req_bytes + batch.resp_bytes), "serve");
            let finish = $now.saturating_add(batch.service_ns).saturating_add(extra_ns);
            let seq = queue.push(finish, SEv::Complete { node, batch: b });
            nodes[node].active.push((b, seq));
        }};
    }

    macro_rules! free_slots {
        ($node:expr) => {
            cfg.cores_per_node
                .saturating_sub(nodes[$node].reserved)
                .saturating_sub(nodes[$node].active.len())
        };
    }

    while let Some(ev) = queue.pop() {
        let now = ev.time_ns;
        match ev.payload {
            SEv::FitStart(pos) => {
                for node in 0..nodes_n {
                    nodes[node].reserved += job_node_share(pos, node);
                }
            }
            SEv::FitEnd(pos) => {
                for node in 0..nodes_n {
                    let share = job_node_share(pos, node);
                    nodes[node].reserved = nodes[node].reserved.saturating_sub(share);
                    // Freed cores may unblock queued batches.
                    while free_slots!(node) > 0 && nodes[node].alive {
                        let Some(b) = nodes[node].waiting.pop_front() else { break };
                        start_batch!(node, b, now);
                    }
                }
            }
            SEv::Arrive { batch: b, redispatch } => {
                if !redispatch {
                    arrivals_seen += 1;
                    if !crash_done {
                        let chaos = spec.chaos.expect("chaos present while !crash_done");
                        if arrivals_seen > chaos.at_batch {
                            crash_done = true;
                            let victim = chaos.crash_node;
                            nodes[victim].alive = false;
                            nodes[victim].cache.clear();
                            nodes[victim].cache_bytes = 0;
                            cluster.trace_instant(
                                "serve",
                                &format!("serve.crash node={victim}"),
                            );
                            registry.counter("serve.node_crashes").add(1);
                            // In-flight completions die with the node;
                            // both they and the queued batches re-arrive
                            // at the survivors after the retry delay.
                            let active = std::mem::take(&mut nodes[victim].active);
                            for (ab, seq) in active {
                                queue.cancel(seq);
                                queue.push(
                                    now.saturating_add(retry_ns),
                                    SEv::Arrive { batch: ab, redispatch: true },
                                );
                            }
                            let waiting = std::mem::take(&mut nodes[victim].waiting);
                            for wb in waiting {
                                queue.push(
                                    now.saturating_add(retry_ns),
                                    SEv::Arrive { batch: wb, redispatch: true },
                                );
                            }
                        }
                    }
                }
                let t = batches[b].tenant;
                first_arrival[t] = first_arrival[t].min(batches[b].arrival_ns);
                if models[t].is_none() {
                    rejected[t] += 1;
                    registry.counter("serve.rejected").add(1);
                    trace_hash = fnv(trace_hash, t as u64);
                    trace_hash = fnv(trace_hash, batches[b].index);
                    trace_hash = fnv(trace_hash, now);
                    trace_hash = fnv(trace_hash, 2); // status: rejected
                    makespan_ns = makespan_ns.max(now);
                    continue;
                }
                // Route over the currently-alive nodes, salted by the
                // attempt count so a re-dispatch re-rolls the node.
                let alive: Vec<usize> =
                    (0..nodes_n).filter(|&n| nodes[n].alive).collect();
                let h = mix(spec.seed
                    ^ mix((t as u64) << 17 ^ batches[b].index)
                    ^ (attempts[b] << 48));
                attempts[b] += 1;
                let node = alive[(h % alive.len() as u64) as usize];
                if free_slots!(node) > 0 {
                    start_batch!(node, b, now);
                } else if nodes[node].waiting.len() < cfg.admission_queue_capacity {
                    nodes[node].waiting.push_back(b);
                } else {
                    rejected[t] += 1;
                    registry.counter("serve.rejected").add(1);
                    trace_hash = fnv(trace_hash, t as u64);
                    trace_hash = fnv(trace_hash, batches[b].index);
                    trace_hash = fnv(trace_hash, now);
                    trace_hash = fnv(trace_hash, 2);
                    makespan_ns = makespan_ns.max(now);
                }
            }
            SEv::Complete { node, batch: b } => {
                let Some(pos) = nodes[node].active.iter().position(|&(ab, _)| ab == b)
                else {
                    continue; // stale completion of a cancelled attempt
                };
                nodes[node].active.remove(pos);
                let t = batches[b].tenant;
                let latency = ns_to_secs(now.saturating_sub(batches[b].arrival_ns));
                completed[t].push(latency);
                served_rows[t] += spec.tenants[t]
                    .serve
                    .as_ref()
                    .map_or(0, |s| s.batch_rows as u64);
                latency_hist.record(latency);
                registry.counter("serve.batches").add(1);
                last_finish[t] = last_finish[t].max(now);
                makespan_ns = makespan_ns.max(now);
                trace_hash = fnv(trace_hash, t as u64);
                trace_hash = fnv(trace_hash, batches[b].index);
                trace_hash = fnv(trace_hash, batches[b].arrival_ns);
                trace_hash = fnv(trace_hash, now);
                trace_hash = fnv(trace_hash, node as u64);
                trace_hash = fnv(trace_hash, 1); // status: completed
                trace_hash = fnv(trace_hash, batches[b].checksum);
                // A freed slot serves the queue head next.
                while free_slots!(node) > 0 {
                    let Some(nb) = nodes[node].waiting.pop_front() else { break };
                    start_batch!(node, nb, now);
                }
            }
        }
    }

    // ---- Phase 5: fold the statistics. ----------------------------------
    for t in 0..spec.tenants.len() {
        registry.counter("serve.requests").add(served_rows[t]);
        registry.counter("serve.cache_hits").add(hits[t]);
        registry.counter("serve.cache_misses").add(misses[t]);
    }
    registry.counter("serve.model_broadcasts").add(broadcasts);
    registry.counter("serve.model_rebroadcasts").add(rebroadcasts);

    let mut tenants = Vec::new();
    let mut all_latencies: Vec<f64> = Vec::new();
    for (t, tenant) in spec.tenants.iter().enumerate() {
        let recs: Vec<_> = schedule.records.iter().filter(|r| r.tenant == t).collect();
        let my_job_ids: Vec<&String> =
            jobs.iter().filter(|j| j.tenant == t).map(|j| &j.id).collect();
        let jobs_rejected =
            schedule.rejected.iter().filter(|id| my_job_ids.contains(id)).count();
        let mut lat = completed[t].clone();
        lat.sort_by(f64::total_cmp);
        all_latencies.extend_from_slice(&lat);
        let window =
            ns_to_secs(last_finish[t].saturating_sub(first_arrival[t].min(last_finish[t])));
        tenants.push(TenantServeStats {
            name: tenant.name.clone(),
            jobs_completed: recs.len(),
            jobs_rejected,
            // fold, not sum: `Sum<&f64>` yields -0.0 on an empty iterator.
            wait_secs_total: recs.iter().fold(0.0, |a, r| a + r.wait_secs()),
            run_secs_total: recs.iter().fold(0.0, |a, r| a + r.run_secs()),
            requests: served_rows[t],
            batches: completed[t].len() as u64,
            batches_rejected: rejected[t],
            cache_hits: hits[t],
            cache_misses: misses[t],
            latency_p50_secs: percentile(&lat, 50.0),
            latency_p99_secs: percentile(&lat, 99.0),
            qps: if window > 0.0 { served_rows[t] as f64 / window } else { 0.0 },
            model_hash: models[t].as_ref().map(PcaModel::content_hash),
        });
    }
    all_latencies.sort_by(f64::total_cmp);

    for rec in &schedule.records {
        cluster.dfs().release_job(&rec.id);
    }

    let events_processed = schedule.events_processed + queue.processed();
    Ok(ServingOutcome {
        requests_total: served_rows.iter().sum(),
        batches_total: completed.iter().map(|c| c.len() as u64).sum(),
        rejected_total: rejected.iter().sum(),
        broadcasts,
        rebroadcasts,
        latency_p50_secs: percentile(&all_latencies, 50.0),
        latency_p99_secs: percentile(&all_latencies, 99.0),
        makespan_secs: ns_to_secs(makespan_ns),
        events_processed,
        tenants,
        schedule,
        models,
        trace_hash,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mean_prop::latent_row;
    use dcluster::ClusterConfig;
    use linalg::Prng;

    fn small_pool(seed: u64) -> Arc<SparseMat> {
        let mut rng = Prng::seed_from_u64(seed);
        let spec = datasets::LowRankSpec { rows: 60, cols: 24, ..datasets::LowRankSpec::small_test() };
        Arc::new(datasets::sparse_lowrank(&spec, &mut rng))
    }

    fn fit_job(id: &str, pool: &Arc<SparseMat>, submit: f64) -> FitJob {
        FitJob {
            id: id.into(),
            submit_secs: submit,
            cores: 8,
            y: Arc::clone(pool),
            config: SpcaConfig::new(3).with_max_iters(3).with_seed(7),
        }
    }

    fn serve_load(pool: &Arc<SparseMat>) -> ServeLoad {
        ServeLoad {
            pool: Arc::clone(pool),
            batches: 40,
            batch_rows: 5,
            rate_per_sec: 50.0,
            start_secs: 0.0,
        }
    }

    #[test]
    fn blocked_batch_equals_the_row_at_a_time_precompute() {
        // 7 rows × 12 columns, row 3 empty, row 6 full; a 5-row window
        // wraps the pool's end from batch 1 on, and a 9-row one laps it.
        let mut rng = Prng::seed_from_u64(0xb10c);
        let rows: Vec<Vec<(u32, f64)>> = (0..7)
            .map(|r| {
                let keep = |c: u32| r == 6 || (r != 3 && c % 3 == r % 3);
                (0..12).filter(|&c| keep(c)).map(|c| (c, rng.normal())).collect()
            })
            .collect();
        let pool = Arc::new(SparseMat::from_rows(7, 12, rows));
        let cluster = SimCluster::new(ClusterConfig::scaled_cluster());
        let spec = ServeSpec::new(0x5eed);
        for d in [1, 8, 50] {
            let cm = rng.normal_mat(12, d);
            let xm = rng.normal_vec(d);
            for batch_rows in [5, 9] {
                let serve = ServeLoad { batch_rows, ..serve_load(&pool) };
                let (cm_, xm_) = (Some(cm.clone()), xm.clone());
                let stream = Stream { tenant: 2, serve: &serve, cm: cm_, xm: xm_, ready_ns: 0 };
                let mut x_blk = Vec::new();
                for k in 0..serve.batches {
                    let got = stream.batch(k, &cluster, &spec, &mut x_blk);
                    // What `run_serving` computed before the block kernel.
                    let start = (k * batch_rows) % pool.rows();
                    let window: Vec<usize> =
                        (0..batch_rows).map(|i| (start + i) % pool.rows()).collect();
                    let mut checksum = FNV_OFFSET;
                    let mut flops = 0.0_f64;
                    for &r in &window {
                        let row = pool.row(r);
                        flops += (2 * row.nnz() * d + 2 * d) as f64;
                        for v in latent_row(row, &cm, &xm) {
                            checksum = fnv(checksum, v.to_bits());
                        }
                    }
                    let views: Vec<_> = window.iter().map(|&r| pool.row(r)).collect();
                    let req_bytes = SparseMat::from_row_views(12, &views).encoded_size();
                    let resp_bytes = wire::f64_payload_len(batch_rows * d);
                    let wire_secs = (req_bytes + resp_bytes) as f64
                        / cluster.config().network_bytes_per_sec;
                    let service_ns = secs_to_ns(flops / spec.flops_per_sec_per_core + wire_secs);
                    assert_eq!(
                        (got.checksum, got.req_bytes, got.resp_bytes, got.service_ns),
                        (checksum, req_bytes, resp_bytes, service_ns),
                        "d = {d}, batch_rows = {batch_rows}, k = {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn serving_without_a_model_is_rejected() {
        let cluster = SimCluster::new(ClusterConfig::scaled_cluster());
        let pool = small_pool(1);
        let mut spec = ServeSpec::new(9);
        spec.tenants.push(TenantWorkload {
            name: "modelless".into(),
            fit_jobs: vec![],
            serve: Some(serve_load(&pool)),
            model: None,
        });
        let err = run_serving(&cluster, &spec).unwrap_err();
        assert!(matches!(err, SpcaError::InvalidServing { .. }), "got {err:?}");
        assert!(err.to_string().contains("without a fitted model"));
    }

    #[test]
    fn empty_spec_is_rejected() {
        let cluster = SimCluster::new(ClusterConfig::scaled_cluster());
        let err = run_serving(&cluster, &ServeSpec::new(1)).unwrap_err();
        assert!(matches!(err, SpcaError::InvalidServing { .. }));
    }

    #[test]
    fn duplicate_job_ids_fail_the_run() {
        let cluster = SimCluster::new(ClusterConfig::scaled_cluster());
        let pool = small_pool(2);
        let mut spec = ServeSpec::new(3);
        spec.tenants.push(TenantWorkload {
            name: "a".into(),
            fit_jobs: vec![fit_job("same-id", &pool, 0.0)],
            serve: None,
            model: None,
        });
        spec.tenants.push(TenantWorkload {
            name: "b".into(),
            fit_jobs: vec![fit_job("same-id", &pool, 1.0)],
            serve: None,
            model: None,
        });
        let err = run_serving(&cluster, &spec).unwrap_err();
        assert!(
            matches!(
                err,
                SpcaError::Cluster(dcluster::ClusterError::DuplicateJob { .. })
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn mixed_fit_and_serve_completes_every_batch() {
        let cluster = SimCluster::new(ClusterConfig::scaled_cluster());
        let pool = small_pool(4);
        let mut spec = ServeSpec::new(11);
        spec.tenants.push(TenantWorkload {
            name: "t0".into(),
            fit_jobs: vec![fit_job("t0-fit", &pool, 0.0)],
            serve: Some(serve_load(&pool)),
            model: None,
        });
        let out = run_serving(&cluster, &spec).unwrap();
        assert_eq!(out.batches_total, 40);
        assert_eq!(out.requests_total, 200);
        assert_eq!(out.rejected_total, 0);
        assert!(out.broadcasts >= 1, "first use on each node is a push");
        assert!(out.latency_p99_secs >= out.latency_p50_secs);
        assert!(out.models[0].is_some());
        assert_eq!(out.tenants[0].jobs_completed, 1);
        assert!(out.tenants[0].qps > 0.0);
        // The DFS namespace was released at the end of the run.
        assert!(cluster.dfs().registered_jobs().is_empty());
    }

    #[test]
    fn serving_is_deterministic_across_runs() {
        let run = || {
            let cluster = SimCluster::new(ClusterConfig::scaled_cluster());
            let pool = small_pool(5);
            let mut spec = ServeSpec::new(21);
            spec.tenants.push(TenantWorkload {
                name: "t0".into(),
                fit_jobs: vec![fit_job("fit-a", &pool, 0.0)],
                serve: Some(serve_load(&pool)),
                model: None,
            });
            run_serving(&cluster, &spec).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.makespan_secs, b.makespan_secs);
        assert_eq!(
            a.models[0].as_ref().unwrap().content_hash(),
            b.models[0].as_ref().unwrap().content_hash()
        );
    }
}
