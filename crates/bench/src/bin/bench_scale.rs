//! Event-engine scale benchmark: raw queue throughput, shared-bandwidth
//! flow-storm throughput, and end-to-end fit arms at 8 / 100 / 1000
//! virtual nodes under both timing models.
//!
//! Four sections, all seeded and deterministic in everything but the
//! host wall-clock:
//!
//! * `queue_storm` — a push/pop/cancel storm through the raw
//!   [`EventQueue`]: the engine's core data structure must sustain at
//!   least 1M processed events per host second (asserted in release
//!   builds; tombstone pops count — they cost a heap operation).
//! * `sim_storm`  — a 1000-virtual-node shared-bandwidth simulation:
//!   waves of per-downlink flows with deliberate skew and two
//!   mid-transfer cancellations. The yardstick is flows simulated per
//!   host second (at least 100k, asserted in release builds): the
//!   simulator re-solves max-min rates once per virtual instant, so
//!   its event count falls as it gets better and events/sec — still
//!   reported — says little. Plus the contention invariant: peak
//!   utilization ≤ 100 % on every one of the 3001 links.
//! * `stage_storm` — no-op 4 096-task stages through
//!   [`SimCluster::run_stage`] on 64 and on 4 096 virtual cores. A stage's
//!   bookkeeping (three LPT list schedules) must cost per *task*, not per
//!   task × core: the per-task time on the large cluster over that on
//!   the small one is at most 4 (asserted in release builds; a
//!   scan-every-core scheduler reads ~14).
//! * `fit_arms`   — sPCA-on-Spark fits at 8 / 100 / 1000 virtual nodes
//!   (partitions = 2·nodes + 1, so partition-to-node skew is
//!   systematic) under `Uncontended` and `Contended` timing. The model
//!   must be bit-identical across timing models; the contended network
//!   time must stretch measurably versus the arithmetic model (the
//!   skewed downlinks are the bottleneck the old model could not see).
//!
//! Usage:
//!   bench_scale                  # full shape, writes BENCH_scale.json
//!   bench_scale --smoke          # small shape, quick CI sanity run
//!   bench_scale --out FILE.json  # override the output path

use std::time::Instant;

use dcluster::netsim::{simulate, FlowSpec};
use dcluster::{
    CancelSpec, ClusterConfig, EventQueue, SimCluster, StageOptions, TimingModel, Topology,
};
use linalg::{Prng, SparseMat};
use spca_core::{Spca, SpcaConfig, SpcaRun};

/// The asserted engine throughput floor, in processed events per host
/// second (release builds only — debug heaps are an order slower).
const FLOOR_EVENTS_PER_SEC: f64 = 1_000_000.0;

/// The asserted `sim_storm` floor, in flows simulated per host second
/// (release builds only).
const FLOOR_FLOWS_PER_SEC: f64 = 100_000.0;

/// The asserted `stage_storm` ceiling on per-task stage cost at 4 096
/// virtual cores over that at 64 (release builds only).
const CEILING_CORE_SCALING: f64 = 4.0;

/// Tasks per `stage_storm` stage.
const STORM_TASKS: usize = 4_096;

fn random_sparse(rng: &mut Prng, rows: usize, cols: usize, density: f64) -> SparseMat {
    let target = ((rows * cols) as f64 * density) as usize;
    let mut triplets = Vec::with_capacity(target);
    for _ in 0..target {
        triplets.push((rng.index(rows), rng.index(cols) as u32, rng.normal()));
    }
    SparseMat::from_triplets(rows, cols, &triplets)
}

fn model_bits(run: &SpcaRun) -> (Vec<u64>, Vec<u64>, u64) {
    (
        run.model.components().data().iter().map(|v| v.to_bits()).collect(),
        run.model.mean().iter().map(|v| v.to_bits()).collect(),
        run.model.noise_variance().to_bits(),
    )
}

struct StormResult {
    events: u64,
    cancelled: u64,
    host_secs: f64,
}

/// Raw event-queue storm: batches of timestamp-jittered pushes, a cancel
/// wave every other batch, half-drains in between, full drain at the end.
/// Every push is eventually popped (live or as a tombstone), so
/// `processed()` equals the push count and the workload is deterministic.
fn queue_storm(total: usize) -> StormResult {
    let mut q: EventQueue<u64> = EventQueue::with_capacity(1 << 20);
    let mut rng = Prng::seed_from_u64(0x5ca1e);
    let batch = 1024usize;
    let batches = total / batch;
    let mut cancel_pool: Vec<u64> = Vec::with_capacity(batch);
    let mut cancelled = 0u64;
    let start = Instant::now();
    for b in 0..batches {
        let base = (b as u64) * 1_000;
        for i in 0..batch {
            let seq = q.push(base + rng.index(997) as u64, (b * batch + i) as u64);
            if i % 16 == 0 {
                cancel_pool.push(seq);
            }
        }
        if b % 2 == 1 {
            cancelled += cancel_pool.len() as u64;
            for seq in cancel_pool.drain(..) {
                q.cancel(seq);
            }
        }
        // Half-drain: pops stay behind the next batch's minimum time, so
        // virtual time is monotone while the heap stays ~half full.
        for _ in 0..batch / 2 {
            if q.pop().is_none() {
                break;
            }
        }
    }
    while q.pop().is_some() {}
    let host_secs = start.elapsed().as_secs_f64();
    StormResult { events: q.processed(), cancelled, host_secs }
}

struct SimStormResult {
    virtual_nodes: usize,
    flows: usize,
    events: u64,
    resolves: u64,
    peak_flows: usize,
    makespan_secs: f64,
    host_secs: f64,
}

/// 1000-virtual-node flow storm through the full shared-bandwidth stack:
/// `waves` rounds of one flow per downlink, every third wave doubling up
/// on 100 downlinks (contention), plus two mid-transfer cancellations.
fn sim_storm(waves: usize) -> SimStormResult {
    let nodes = 1_000usize;
    let cfg = ClusterConfig::scaled_cluster();
    let topo = Topology::new(nodes, cfg.network_bytes_per_sec, cfg.disk_bytes_per_sec);
    let mut flows = Vec::new();
    for w in 0..waves {
        let start = w as f64 * 3.0;
        for n in 0..nodes {
            let bytes = 1_000_000 + 1_733 * ((n * 7 + w * 13) % 97) as u64;
            flows.push(FlowSpec::new(bytes, [topo.downlink(n), topo.fabric()]).at(start));
        }
        if w % 3 == 0 {
            for k in 0..100 {
                flows.push(
                    FlowSpec::new(2_500_000, [topo.downlink(k * 9 % nodes), topo.fabric()])
                        .at(start),
                );
            }
        }
    }
    let cancels = vec![
        CancelSpec { flow: 7, at_secs: 0.4, requeue_delay_secs: 0.5 },
        CancelSpec { flow: nodes + 3, at_secs: 3.2, requeue_delay_secs: 1.0 },
    ];
    let start = Instant::now();
    let out = simulate(&topo, &flows, &cancels, 1 << 16);
    let host_secs = start.elapsed().as_secs_f64();
    for (l, &util) in out.link_peak_util.iter().enumerate() {
        assert!(util <= 1.0 + 1e-9, "link {l} over capacity at {util}");
    }
    SimStormResult {
        virtual_nodes: nodes,
        flows: flows.len(),
        events: out.events,
        resolves: out.resolves,
        peak_flows: out.peak_flows,
        makespan_secs: out.makespan_secs,
        host_secs,
    }
}

/// Host nanoseconds per task of `stages` no-op stages of [`STORM_TASKS`]
/// tasks on an uncontended 64-node × `cores_per_node` cluster — what
/// `run_stage` costs besides the tasks themselves.
fn stage_storm(cores_per_node: usize, stages: usize) -> f64 {
    let cluster = SimCluster::new(
        ClusterConfig::scaled_cluster().with_nodes(64).with_cores_per_node(cores_per_node),
    );
    let start = Instant::now();
    for _ in 0..stages {
        let tasks: Vec<_> = (0..STORM_TASKS).map(|i| move || i).collect();
        let out = cluster.run_stage(StageOptions::new("storm").with_task_overhead(0.005), tasks);
        assert_eq!(out.len(), STORM_TASKS);
    }
    start.elapsed().as_secs_f64() * 1e9 / (stages * STORM_TASKS) as f64
}

struct FitArm {
    nodes: usize,
    partitions: usize,
    timing: TimingModel,
    virtual_secs: f64,
    network_us: u64,
    disk_us: u64,
    engine_events: u64,
    engine_resolves: u64,
    host_secs: f64,
    bits: (Vec<u64>, Vec<u64>, u64),
}

fn fit_arm(y: &SparseMat, config: &SpcaConfig, nodes: usize, timing: TimingModel) -> FitArm {
    let partitions = 2 * nodes + 1;
    let cluster =
        SimCluster::new(ClusterConfig::scaled_cluster().with_nodes(nodes).with_timing(timing));
    let start = Instant::now();
    let run = Spca::new(config.clone().with_partitions(partitions))
        .fit_spark(&cluster, y)
        .expect("fit must succeed");
    let host_secs = start.elapsed().as_secs_f64();
    let cats = cluster.category_time_us();
    let engine = cluster.engine_stats().unwrap_or_default();
    if timing == TimingModel::Contended {
        for l in cluster.link_stats() {
            assert!(l.peak_util <= 1.0 + 1e-9, "{nodes} nodes: link {} at {}", l.label, l.peak_util);
        }
    }
    FitArm {
        nodes,
        partitions,
        timing,
        virtual_secs: run.virtual_time_secs,
        network_us: cats[2],
        disk_us: cats[3],
        engine_events: engine.events,
        engine_resolves: engine.resolves,
        host_secs,
        bits: model_bits(&run),
    }
}

fn arm_json(a: &FitArm) -> String {
    format!(
        "    {{\n      \"virtual_nodes\": {},\n      \"partitions\": {},\n      \"timing\": \"{}\",\n      \"virtual_time_secs\": {:.4},\n      \"network_us\": {},\n      \"disk_us\": {},\n      \"engine_events\": {},\n      \"engine_resolves\": {},\n      \"host\": {{\"secs\": {:.4}}}\n    }}",
        a.nodes,
        a.partitions,
        a.timing.label(),
        a.virtual_secs,
        a.network_us,
        a.disk_us,
        a.engine_events,
        a.engine_resolves,
        a.host_secs,
    )
}

fn main() {
    let (_trace, smoke, out_path) = spca_bench::cli::bench_args(
        "bench_scale",
        "Event-engine scale benchmark: queue throughput, 1000-node flow storm, fit arms",
        "Small shape (quick CI sanity run)",
        &[],
    );

    // -- queue storm ------------------------------------------------------
    let storm_events = if smoke { 1 << 20 } else { 1 << 22 };
    let qs = queue_storm(storm_events);
    let qs_rate = qs.events as f64 / qs.host_secs.max(1e-12);
    println!(
        "queue_storm: {} events ({} cancelled) in {:.3}s host = {:.2}M events/sec",
        qs.events,
        qs.cancelled,
        qs.host_secs,
        qs_rate / 1e6
    );
    // Debug heaps are ~10x slower; the throughput bar is a release claim.
    #[cfg(not(debug_assertions))]
    assert!(
        qs_rate >= FLOOR_EVENTS_PER_SEC,
        "event queue sustained only {qs_rate:.0} events/sec (floor {FLOOR_EVENTS_PER_SEC})"
    );

    // -- 1000-node flow storm --------------------------------------------
    let ss = sim_storm(if smoke { 6 } else { 24 });
    let ss_rate = ss.events as f64 / ss.host_secs.max(1e-12);
    let ss_flow_rate = ss.flows as f64 / ss.host_secs.max(1e-12);
    println!(
        "sim_storm: {} nodes, {} flows, {} events / {} resolves (peak {} concurrent) \
         in {:.3}s host = {:.0}k flows/sec ({:.0}k events/sec), makespan {:.2} virtual s",
        ss.virtual_nodes,
        ss.flows,
        ss.events,
        ss.resolves,
        ss.peak_flows,
        ss.host_secs,
        ss_flow_rate / 1e3,
        ss_rate / 1e3,
        ss.makespan_secs,
    );
    #[cfg(not(debug_assertions))]
    assert!(
        ss_flow_rate >= FLOOR_FLOWS_PER_SEC,
        "flow storm sustained only {ss_flow_rate:.0} flows/sec (floor {FLOOR_FLOWS_PER_SEC})"
    );

    // -- stage storm -----------------------------------------------------
    // Alternating rounds, best of each side: a slow spell of the host
    // lands on both cluster sizes or is dropped, never on one.
    let storm_stages = if smoke { 4 } else { 16 };
    let (mut small_ns, mut large_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        small_ns = small_ns.min(stage_storm(1, storm_stages));
        large_ns = large_ns.min(stage_storm(64, storm_stages));
    }
    let core_scaling = large_ns / small_ns;
    println!(
        "stage_storm: {STORM_TASKS}-task no-op stages cost {small_ns:.0} ns/task on 64 cores, \
         {large_ns:.0} ns/task on 4096 = {core_scaling:.2}x"
    );
    #[cfg(not(debug_assertions))]
    assert!(
        core_scaling <= CEILING_CORE_SCALING,
        "a stage's per-task cost grew {core_scaling:.1}x from 64 to 4096 virtual cores \
         (ceiling {CEILING_CORE_SCALING}): the list scheduler is scanning cores again"
    );

    // -- fit arms ---------------------------------------------------------
    let (rows, cols, density, d, iters) =
        if smoke { (3_000, 200, 1e-2, 4, 2) } else { (8_000, 1_000, 2e-3, 8, 3) };
    let mut rng = Prng::seed_from_u64(2015);
    let y = random_sparse(&mut rng, rows, cols, density);
    let config = SpcaConfig::new(d).with_max_iters(iters).with_rel_tolerance(None).with_seed(7);
    println!("Y: {rows}x{cols} ({} nnz), d={d}, {iters} iterations, Spark engine", y.nnz());

    let mut arms: Vec<FitArm> = Vec::new();
    let mut stretches: Vec<(usize, f64)> = Vec::new();
    for &nodes in &[8usize, 100, 1000] {
        let u = fit_arm(&y, &config, nodes, TimingModel::Uncontended);
        let c = fit_arm(&y, &config, nodes, TimingModel::Contended);
        assert_eq!(u.bits, c.bits, "{nodes} nodes: timing model changed the model");
        let stretch = c.network_us as f64 / (u.network_us as f64).max(1.0);
        println!(
            "{nodes:>5} nodes: uncontended {:>9.2}s / contended {:>9.2}s virtual; \
             shuffle stretch {:.3}x ({} engine events, {} resolves; \
             host {:.3}s / {:.3}s)",
            u.virtual_secs,
            c.virtual_secs,
            stretch,
            c.engine_events,
            c.engine_resolves,
            u.host_secs,
            c.host_secs,
        );
        assert!(
            stretch > 1.001,
            "{nodes} nodes: contended shuffles must stretch past the arithmetic \
             model (got {stretch})"
        );
        stretches.push((nodes, stretch));
        arms.push(u);
        arms.push(c);
    }

    // -- JSON -------------------------------------------------------------
    let arm_body: Vec<String> = arms.iter().map(arm_json).collect();
    let stretch_body: Vec<String> = stretches
        .iter()
        .map(|(n, s)| format!("    \"nodes_{n}\": {s:.4}"))
        .collect();
    let json = format!(
        "{{\n  \"mode\": \"{}\",\n  \"queue_storm\": {{\n    \"events\": {},\n    \"cancelled\": {},\n    \"host\": {{\"secs\": {:.4}}},\n    \"events_per_sec\": {:.0},\n    \"floor_events_per_sec\": {:.0}\n  }},\n  \"sim_storm\": {{\n    \"virtual_nodes\": {},\n    \"flows\": {},\n    \"events\": {},\n    \"resolves\": {},\n    \"peak_flows\": {},\n    \"makespan_virtual_secs\": {:.4},\n    \"host\": {{\"secs\": {:.4}}},\n    \"events_per_sec\": {:.0},\n    \"flows_per_sec\": {:.0},\n    \"floor_flows_per_sec\": {:.0}\n  }},\n  \"stage_storm\": {{\n    \"tasks_per_stage\": {STORM_TASKS},\n    \"stages\": {storm_stages},\n    \"per_task_ns_small\": {small_ns:.0},\n    \"per_task_ns_large\": {large_ns:.0},\n    \"core_scaling_ratio\": {core_scaling:.3},\n    \"ceiling_core_scaling_ratio\": {CEILING_CORE_SCALING:.0}\n  }},\n  \"shape\": {{\"rows\": {rows}, \"cols\": {cols}, \"density\": {density}, \"nnz\": {}, \"d\": {d}, \"iters\": {iters}}},\n  \"fit_arms\": [\n{}\n  ],\n  \"virtual_shuffle_stretch\": {{\n{}\n  }},\n  \"model_bitwise_equal_across_timing\": true\n}}\n",
        if smoke { "smoke" } else { "full" },
        qs.events,
        qs.cancelled,
        qs.host_secs,
        qs_rate,
        FLOOR_EVENTS_PER_SEC,
        ss.virtual_nodes,
        ss.flows,
        ss.events,
        ss.resolves,
        ss.peak_flows,
        ss.makespan_secs,
        ss.host_secs,
        ss_rate,
        ss_flow_rate,
        FLOOR_FLOWS_PER_SEC,
        y.nnz(),
        arm_body.join(",\n"),
        stretch_body.join(",\n"),
    );
    obs::json::validate(&json).expect("benchmark JSON must be valid");
    std::fs::write(&out_path, &json).expect("write benchmark output");
    println!("wrote {out_path}");
}
