//! Event-engine contract tests: deterministic ordering, max-min fair
//! sharing, arithmetic-model reproduction, and fault composition.
//!
//! The properties pinned here are the ones the contended timing model's
//! credibility rests on:
//!
//! 1. **Seq-deterministic ordering** — events scheduled for the same
//!    virtual instant pop in push order, and a whole contended simulation
//!    (charges, stages, link stats) is bit-identical whether the host
//!    pool has 1, 2, or 8 workers. Virtual time never reads host time.
//! 2. **Fair sharing** — concurrent flows through a saturated link get
//!    max-min fair rates that sum exactly to the link's capacity, at any
//!    concurrency (2 / 8 / 64 tested), and no link is ever allocated past
//!    100 %.
//! 3. **Arithmetic reproduction** — with one transfer active at a time,
//!    the event-driven model reproduces the legacy aggregate-bandwidth
//!    charges to within 1 µs. This is the regression guard that keeps
//!    every committed baseline meaningful under the default model.
//! 4. **Fault composition** — a crash mid-transfer cancels the flow's
//!    completion event and re-enqueues the reattempt; results and
//!    recovery logs stay identical to the uncontended engine's.

use std::sync::Arc;

use dcluster::netsim::{simulate, solve_rates, FlowSpec, NO_LINK};
use dcluster::{
    CancelSpec, ClusterConfig, EventQueue, FaultPlan, FaultSpec, Load, Meter, SimCluster,
    TimingModel, Topology,
};
use linalg::WorkerPool;

fn contended_cfg() -> ClusterConfig {
    ClusterConfig::scaled_cluster().with_timing(TimingModel::Contended)
}

// ---------------------------------------------------------------- ordering

#[test]
fn timestamp_ties_pop_in_push_order_regardless_of_interleaving() {
    // Three batches pushed at interleaved times; within each timestamp the
    // pop order must equal push order (seq tiebreak), so the flattened
    // pop sequence is a pure function of the push sequence.
    let mut q = EventQueue::with_capacity(64);
    for i in 0..20u32 {
        q.push(u64::from(i % 3), i);
    }
    let mut popped = Vec::new();
    while let Some(ev) = q.pop() {
        popped.push((ev.time_ns, ev.payload));
    }
    let mut expect: Vec<(u64, u32)> = (0..20u32).map(|i| (u64::from(i % 3), i)).collect();
    expect.sort_by_key(|&(t, i)| (t, i));
    assert_eq!(popped, expect);
}

/// One contended "workload": mixed skewed charges plus a compute stage.
/// Returns everything virtual the run produced.
fn contended_run(workers: usize) -> (u64, Vec<(u64, u64, u64)>, u64, u64) {
    let c = SimCluster::new_with_pool(contended_cfg(), Arc::new(WorkerPool::new(workers)));
    let skew_a = [700_001, 0, 13, 0, 250_000, 1, 0, 99_999];
    c.charge(Meter::Network, Load::PerEndpoint(&skew_a), "skew-a");
    c.charge(Meter::DfsWrite, Load::PerEndpoint(&[0, 480_000, 0, 0, 0, 120_000, 0, 7]), "skew-b");
    c.charge(Meter::Network, Load::EachNode(33_333), "broadcast");
    let tasks: Vec<_> = (0..24u64).map(|i| move || i * 3).collect();
    let out = c.run_stage(dcluster::StageOptions::new("stage"), tasks);
    assert_eq!(out.len(), 24);
    c.charge(Meter::DfsRead, Load::Even(614_400), "dfs-read");
    let links = c
        .link_stats()
        .into_iter()
        .map(|l| (l.bytes.to_bits(), l.busy_secs.to_bits(), l.peak_util.to_bits()))
        .collect();
    let m = c.metrics();
    let engine = c.engine_stats().unwrap();
    // Stage durations are measured host time, so total virtual time is
    // host-dependent — compare only the I/O-side quantities, which must
    // be bit-exact: the charges consume bytes and config, never clocks.
    let io_us: u64 = {
        let cats = c.category_time_us();
        cats[2] + cats[3] // network + disk
    };
    (io_us, links, m.network_bytes, engine.resolves)
}

#[test]
fn contended_simulation_is_bitwise_identical_across_1_2_8_host_workers() {
    let one = contended_run(1);
    let two = contended_run(2);
    let eight = contended_run(8);
    assert_eq!(one, two, "1 vs 2 host workers");
    assert_eq!(one, eight, "1 vs 8 host workers");
}

// ------------------------------------------------------------ fair sharing

#[test]
fn fair_share_rates_sum_to_link_capacity_at_2_8_64_transfers() {
    let topo = Topology::new(8, 100.0, 50.0);
    for &n in &[2usize, 8, 64] {
        // All n flows cross the same uplink: it is the bottleneck.
        let flows: Vec<[u32; 2]> = (0..n).map(|_| [topo.uplink(3), topo.fabric()]).collect();
        let rates = solve_rates(&topo, &flows);
        assert_eq!(rates.len(), n);
        let sum: f64 = rates.iter().sum();
        let cap = topo.capacity(topo.uplink(3));
        assert!(
            (sum - cap).abs() < 1e-9 * n as f64,
            "{n} transfers: rates sum {sum} != capacity {cap}"
        );
        // Max-min on a single shared bottleneck is an even split.
        for r in &rates {
            assert!((r - cap / n as f64).abs() < 1e-9, "{n} transfers: {rates:?}");
        }
    }
}

#[test]
fn saturating_fabric_carries_exactly_its_capacity() {
    // 64 flows, 8 per downlink: each downlink splits its 100 B/s over 8
    // flows (12.5 B/s each) and the fabric carries all 64 — exactly its
    // 800 B/s capacity, never more.
    let nodes = 8;
    let topo = Topology::new(nodes, 100.0, 50.0);
    let flows: Vec<FlowSpec> = (0..64)
        .map(|i| FlowSpec::new(10_000, [topo.downlink(i % nodes), topo.fabric()]))
        .collect();
    let out = simulate(&topo, &flows, &[], 256);
    for (l, &util) in out.link_peak_util.iter().enumerate() {
        assert!(util <= 1.0 + 1e-9, "link {l} over capacity: {util}");
    }
    assert!((out.link_peak_util[0] - 1.0).abs() < 1e-9, "fabric fully allocated");
    let rates = solve_rates(&topo, &flows.iter().map(|f| f.links).collect::<Vec<_>>());
    let total: f64 = rates.iter().sum();
    assert!((total - topo.capacity(topo.fabric())).abs() < 1e-6, "sum {total}");
}

#[test]
fn concurrent_transfers_never_exceed_link_capacity_at_any_instant() {
    let c = SimCluster::new(contended_cfg());
    // Heavy mixed traffic with strong skew.
    c.charge(Meter::Network, Load::PerEndpoint(&[5_000_000, 3_000_000, 0, 0, 0, 0, 0, 1]), "skew");
    let spill = [2_000_000, 0, 0, 2_000_000, 0, 0, 0, 0];
    c.charge(Meter::DfsWrite, Load::PerEndpoint(&spill), "spill");
    c.charge(Meter::Network, Load::EachNode(250_000), "broadcast");
    for l in c.link_stats() {
        assert!(
            l.peak_util <= 1.0 + 1e-9,
            "link {} peaked at {} > 100%",
            l.label,
            l.peak_util
        );
    }
}

// --------------------------------------------- arithmetic reproduction

#[test]
fn single_active_transfer_reproduces_arithmetic_charges_within_1us() {
    // Property sweep: for a spread of byte counts and every charge kind,
    // the event-driven time of a single (uniformly decomposed) transfer
    // matches the legacy arithmetic charge to within 1 µs.
    let sizes = [
        0u64,
        1,
        7,
        4_096,
        65_537,
        1_000_000,
        1_500_000,
        8_388_608,
        123_456_789,
    ];
    for &bytes in &sizes {
        for kind in 0..4 {
            let u = SimCluster::new(ClusterConfig::scaled_cluster());
            let e = SimCluster::new(contended_cfg());
            for c in [&u, &e] {
                match kind {
                    0 => c.charge(Meter::Network, Load::Even(bytes), "network"),
                    1 => c.charge(Meter::DfsWrite, Load::Even(bytes), "dfs-write"),
                    2 => c.charge(Meter::DfsRead, Load::Even(bytes), "dfs-read"),
                    _ => c.charge(Meter::Network, Load::EachNode(bytes), "broadcast"),
                }
            }
            let tu = u.metrics().virtual_time_secs;
            let te = e.metrics().virtual_time_secs;
            assert!(
                (tu - te).abs() < 1e-6,
                "kind {kind}, {bytes} bytes: arithmetic {tu} vs event-driven {te}"
            );
        }
    }
}

#[test]
fn uniform_reproduction_holds_on_the_paper_cluster_too() {
    let u = SimCluster::new(ClusterConfig::paper_cluster());
    let e = SimCluster::new(ClusterConfig::paper_cluster().with_timing(TimingModel::Contended));
    for c in [&u, &e] {
        c.charge(Meter::Network, Load::Even(960_000_000), "network");
        c.charge(Meter::DfsWrite, Load::Even(500_000_000), "dfs-write");
        c.charge(Meter::Network, Load::EachNode(12_345_678), "broadcast");
    }
    let (tu, te) = (u.metrics().virtual_time_secs, e.metrics().virtual_time_secs);
    assert!((tu - te).abs() < 3e-6, "3 charges: {tu} vs {te}");
}

// ------------------------------------------------------ fault composition

#[test]
fn crash_mid_transfer_cancels_and_requeues_deterministically() {
    let topo = Topology::new(4, 1000.0, 500.0);
    let flows = vec![
        FlowSpec::new(10_000, [topo.disk(0), NO_LINK]),
        FlowSpec::new(4_000, [topo.disk(1), NO_LINK]),
    ];
    let cancels = vec![CancelSpec { flow: 0, at_secs: 5.0, requeue_delay_secs: 1.0 }];
    let a = simulate(&topo, &flows, &cancels, 32);
    let b = simulate(&topo, &flows, &cancels, 32);
    // Deterministic across reruns, bitwise.
    assert_eq!(a.finish_secs, b.finish_secs);
    assert_eq!(a.link_bytes, b.link_bytes);
    // Flow 0: cancelled at 5 s (2500 B in), requeued at 6 s, full 10 000 B
    // re-read at 500 B/s → finishes 26 s. Flow 1 unaffected: 8 s.
    assert!((a.finish_secs[0] - 26.0).abs() < 1e-5, "{:?}", a.finish_secs);
    assert!((a.finish_secs[1] - 8.0).abs() < 1e-5, "{:?}", a.finish_secs);
    // The wasted first-attempt bytes stay visible in the link statistics.
    assert!((a.link_bytes[topo.disk(0) as usize] - 12_500.0).abs() < 1.0);
}

#[test]
fn fault_plans_compose_identically_on_both_engines() {
    // Same stage workload + crash plan under both timing models: results
    // and recovery logs (both structural) must be identical; only virtual
    // durations may differ.
    let run = |timing| {
        let c = SimCluster::new(
            ClusterConfig::scaled_cluster()
                .with_nodes(4)
                .with_cores_per_node(2)
                .with_timing(timing),
        );
        c.install_fault_plan(
            FaultSpec::new(7).with_straggler_rate(0.25).with_speculation(true),
            FaultPlan::new().with_crash(2, 0).with_crash(1, 1),
        )
        .unwrap();
        let mut outs = Vec::new();
        for s in 0..3u64 {
            let tasks: Vec<_> = (0..16u64).map(|i| move || i * 31 + s).collect();
            outs.push(c.run_stage(
                dcluster::StageOptions::new("t").with_reexec_read_bytes(2_048),
                tasks,
            ));
        }
        (outs, c.recovery_log())
    };
    let (out_u, log_u) = run(TimingModel::Uncontended);
    let (out_c, log_c) = run(TimingModel::Contended);
    assert_eq!(out_u, out_c);
    assert_eq!(log_u, log_c);
}

// ------------------------------------------------------- pinned pricing

/// One transfer of the pinned pricing script.
#[derive(Clone, Copy)]
enum Transfer {
    Network(u64, &'static str),
    NetworkTo(&'static [u64], &'static str),
    DfsWriteTo(&'static [u64], &'static str),
    DfsRead(u64, &'static str),
    Broadcast(u64),
    Put(&'static str, u64),
    Get(&'static str),
}

/// Prices one transfer through the cluster's public charge surface.
fn price(c: &SimCluster, t: Transfer) {
    match t {
        Transfer::Network(bytes, label) => c.charge(Meter::Network, Load::Even(bytes), label),
        Transfer::NetworkTo(shares, label) => c.charge(Meter::Network, Load::PerEndpoint(shares), label),
        Transfer::DfsWriteTo(shares, label) => c.charge(Meter::DfsWrite, Load::PerEndpoint(shares), label),
        Transfer::DfsRead(bytes, label) => c.charge(Meter::DfsRead, Load::Even(bytes), label),
        Transfer::Broadcast(bytes) => c.charge_broadcast(bytes),
        Transfer::Put(name, bytes) => c.dfs().put(c, name, bytes),
        Transfer::Get(name) => {
            c.dfs().get(c, name).unwrap();
        }
    }
}

/// Every charge kind: even, skewed (wider than 8 nodes, so endpoints
/// wrap) and empty network charges, a broadcast, skewed and even DFS
/// writes, and DFS reads.
const SCRIPT: [Transfer; 9] = [
    Transfer::Network(3_000_001, "shuffle"),
    Transfer::NetworkTo(&[700_001, 0, 13, 0, 250_000, 1, 0, 99_999, 4_096, 0, 0, 65_537], "skew"),
    Transfer::Network(0, "empty"),
    Transfer::Broadcast(33_333),
    Transfer::DfsWriteTo(&[0, 480_000, 0, 0, 0, 120_000, 0, 7], "spill"),
    Transfer::Put("input", 5_000_007),
    Transfer::Put("side", 1_200_007),
    Transfer::Get("input"),
    Transfer::DfsRead(600_013, "reread"),
];

/// What one cluster priced: everything here is a function of bytes and
/// config alone, so it is pinned bit for bit.
#[derive(Debug, PartialEq)]
struct Priced {
    /// `to_bits()` of each script step's virtual-clock delta.
    deltas: Vec<u64>,
    /// `category_time_us` after the script, before the crash stage.
    categories: [u64; 5],
    /// Network and disk µs after the crash stage (its CPU is measured).
    io_us_after_crash: [u64; 2],
    /// Network, DFS-written and DFS-read meters after the crash stage.
    meters: [u64; 3],
    /// FNV-1a over every link's `bytes`, `busy_secs` and `peak_util` bits.
    links: (usize, u64),
    /// `engine_stats()` as `(events, resolves, peak_flows)`.
    engine: Option<(u64, u64, usize)>,
    /// Critical-path segment labels, in emission order.
    segments: Vec<String>,
}

fn fnv(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn priced(timing: TimingModel, nodes: usize) -> Priced {
    let c = SimCluster::new(ClusterConfig::scaled_cluster().with_nodes(nodes).with_timing(timing));
    let probe = format!("pricing probe {timing} {nodes}");
    c.trace_instant("pin", &probe);
    let mut deltas = Vec::new();
    for t in SCRIPT {
        let before = c.metrics().virtual_time_secs;
        price(&c, t);
        deltas.push((c.metrics().virtual_time_secs - before).to_bits());
    }
    let categories = c.category_time_us();
    // Crash a node that holds a replica of `input`: its tasks re-read
    // their split (cancelled mid-flight under contended timing) and the
    // DFS re-replicates what it held.
    let node = c.dfs().replicas("input").unwrap()[0];
    c.install_fault_plan(FaultSpec::new(11), FaultPlan::new().with_crash(node, c.next_stage_index()))
        .unwrap();
    let tasks: Vec<_> = (0..2 * nodes).map(|i| move || i).collect();
    c.run_stage(dcluster::StageOptions::new("crash").with_reexec_read_bytes(65_536), tasks);
    let cats = c.category_time_us();
    let m = c.metrics();
    let stats = c.link_stats();
    let links = stats.iter().fold(0xcbf2_9ce4_8422_2325, |h, l| {
        [l.bytes, l.busy_secs, l.peak_util].iter().fold(h, |h, v| fnv(h, v.to_bits()))
    });
    let segments = obs::collector()
        .map(|col| {
            let events = col.events();
            let pid = events.iter().find(|e| e.name == probe).map(|e| e.pid);
            events
                .into_iter()
                .filter(|e| e.cat == "segment" && Some(e.pid) == pid)
                .map(|e| e.name)
                .collect()
        })
        .unwrap_or_default();
    Priced {
        deltas,
        categories,
        io_us_after_crash: [cats[2], cats[3]],
        meters: [m.network_bytes, m.dfs_bytes_written, m.dfs_bytes_read],
        links: (stats.len(), links),
        engine: c.engine_stats().map(|e| (e.events, e.resolves, e.peak_flows)),
        segments,
    }
}

/// Segment labels of the script plus the crash stage. The 8-node crash
/// re-replicates both files; on 1 000 nodes `side` has no replica on the
/// crashed node.
fn segments(re_replicated_files: usize) -> Vec<String> {
    let mut s: Vec<&str> =
        vec!["shuffle", "skew", "broadcast", "spill", "dfs-write", "dfs-write", "dfs-read", "reread"];
    for _ in 0..re_replicated_files {
        s.extend(["re-replicate", "re-replicate"]);
    }
    s.extend(["reexec-read", "stage:crash", "stage-recovery"]);
    s.into_iter().map(String::from).collect()
}

#[test]
fn every_charge_kind_prices_bit_for_bit_on_both_models() {
    // Recorded before the timing models shared one charging path; any
    // change here is a change to the pricing, not to its plumbing.
    obs::install_new();
    let got: Vec<Priced> = [
        (TimingModel::Uncontended, 8),
        (TimingModel::Contended, 8),
        (TimingModel::Uncontended, 1_000),
        (TimingModel::Contended, 1_000),
    ]
    .into_iter()
    .map(|(timing, nodes)| priced(timing, nodes))
    .collect();
    obs::uninstall();
    let want = [
        Priced {
            deltas: vec![
                0x3fd00000597a7e04, 0x3fb7e2c3f6ac0afc, 0, 0x3f96c15d2d01c0d0, 0x3fb0000c3bbf3a84,
                0x3fe0aaac322291fc, 0x3fc000061ddf9d40, 0x3fe0aaac322291fc, 0x3fb00016b819fef0,
            ],
            categories: [0, 0, 365_526, 1_291_670, 0],
            io_us_after_crash: [882_194, 1_951_158],
            meters: [10_586_326, 13_000_035, 5_731_092],
            links: (0, 0xcbf29ce484222325),
            engine: None,
            segments: segments(2),
        },
        Priced {
            deltas: vec![
                0x3fd00002cc2f905e, 0x3fde0a9de8b3b322, 0, 0x3f96c15d2d01c0c0, 0x3fd999999999999c,
                0x3fe0aaac6a3cf0de, 0x3fc00006fcda97d0, 0x3fe0aaac6a3cf0de, 0x3fb0001bf7b5e220,
            ],
            categories: [0, 0, 741_620, 1_629_171, 0],
            io_us_after_crash: [1_258_287, 2_438_847],
            meters: [10_586_326, 13_000_035, 5_731_092],
            links: (25, 0x4cbfae95db09632c),
            engine: Some((234, 44, 8)),
            segments: segments(2),
        },
        Priced {
            deltas: vec![
                0x3f60624e2e91e97d, 0x3f487585152b0d4c, 0, 0x3f96c15d2d01c0ca, 0x3f40625a59da58a0,
                0x3f711112a1ee26e4, 0x3f50625416660150, 0x3f711112a1ee26e4, 0x3f40626516a1c9c0,
            ],
            categories: [0, 0, 24_968, 10_333, 0],
            io_us_after_crash: [28_302, 14_609],
            meters: [42_452_655, 11_800_028, 5_731_092],
            links: (0, 0xcbf29ce484222325),
            engine: None,
            segments: segments(1),
        },
        Priced {
            deltas: vec![
                0x3f6063b3eab9d8e6, 0x3fdddde0a9562dbd, 0, 0x3f96c15d2d01c0d0, 0x3fd999999999999a,
                0x3f7111f0c34c1a80, 0x3f5065cc403d9000, 0x3f7111f0c34c1a80, 0x3f40694aad897800,
            ],
            categories: [0, 0, 490_890, 409_836, 0],
            io_us_after_crash: [494_224, 577_844],
            meters: [42_452_655, 11_800_028, 5_731_092],
            links: (3_001, 0x410e5ff6c4fededd),
            engine: Some((22_025, 38, 1_000)),
            segments: segments(1),
        },
    ];
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "cluster {i} of (uncontended, contended) x (8, 1 000) nodes");
    }
}
