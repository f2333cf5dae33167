//! Shared-bandwidth network/disk model: concurrent transfers split link
//! capacity max-min-fairly, with rates re-solved once per virtual instant
//! at which a transfer starts, finishes, or is cancelled.
//!
//! # Topology
//!
//! The cluster is modeled as `3n + 1` capacity-constrained links for `n`
//! nodes: one **fabric** (the switch backplane, capacity `n ×` the
//! per-node link), an **uplink** and a **downlink** per node (each at the
//! configured `network_bytes_per_sec`), and one **disk** per node (at
//! `disk_bytes_per_sec`). A network flow crosses its endpoint's
//! uplink/downlink plus the fabric; a DFS flow crosses one disk. With the
//! fabric at exactly `n ×` the node links, a *balanced* transfer (equal
//! bytes per node) gets the full aggregate bandwidth — reproducing the
//! old arithmetic model — while *skewed* transfers saturate some links
//! and idle others, which is precisely the contention the arithmetic
//! model could never express.
//!
//! # Fair sharing
//!
//! Rates come from progressive filling (max-min fairness): all unfrozen
//! flows gain rate uniformly until some link saturates; flows crossing a
//! saturated link freeze at the waterline; repeat. The solver never
//! allocates more than a link's capacity, so per-link utilization is
//! ≤ 100 % at every virtual instant by construction.
//!
//! # One re-solve per instant
//!
//! Rates can only change when the active set does, and a rate set that
//! lasts zero virtual time moves no bytes. So [`simulate`] drains every
//! event sharing the popped `time_ns` — in `(time_ns, seq)` order, the
//! order a one-event-at-a-time loop would apply them — accounts the
//! elapsed interval once, and re-solves once for the state the instant
//! ends in. A stage whose 2001 equal partials arrive together and finish
//! on the same nanosecond costs 3 solves, not 4002; the work follows the
//! number of distinct instants, not the number of flows. Each solve
//! visits only the active flows and the links they cross.
//!
//! # Determinism
//!
//! The simulation consumes only byte counts, start offsets, and config
//! capacities — never host time. Events order through the
//! [`EventQueue`]'s `(time_ns, seq)` key, links and flows iterate in
//! fixed index order, and the arithmetic is pure `f64`, so every outcome
//! field is bit-identical across machines and host worker counts.

use crate::events::{secs_to_ns, EventQueue, SimNanos};

/// Sentinel for an unused slot in a flow's link list.
pub const NO_LINK: u32 = u32::MAX;

/// The link layout for an `n`-node cluster.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: usize,
    caps: Vec<f64>,
}

impl Topology {
    /// Builds the `3n + 1` link set from per-node bandwidths.
    pub fn new(nodes: usize, network_bytes_per_sec: f64, disk_bytes_per_sec: f64) -> Self {
        assert!(nodes > 0, "topology: need at least one node");
        let mut caps = Vec::with_capacity(3 * nodes + 1);
        caps.push(network_bytes_per_sec * nodes as f64); // fabric
        caps.extend(std::iter::repeat(network_bytes_per_sec).take(2 * nodes)); // up, down
        caps.extend(std::iter::repeat(disk_bytes_per_sec).take(nodes)); // disks
        Topology { nodes, caps }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The switch backplane link.
    pub fn fabric(&self) -> u32 {
        0
    }

    /// Node `i`'s transmit link.
    pub fn uplink(&self, node: usize) -> u32 {
        (1 + node % self.nodes) as u32
    }

    /// Node `i`'s receive link.
    pub fn downlink(&self, node: usize) -> u32 {
        (1 + self.nodes + node % self.nodes) as u32
    }

    /// Node `i`'s disk.
    pub fn disk(&self, node: usize) -> u32 {
        (1 + 2 * self.nodes + node % self.nodes) as u32
    }

    /// Total number of links.
    pub fn len(&self) -> usize {
        self.caps.len()
    }

    /// True for the degenerate empty topology (never constructed; kept
    /// for the `len`/`is_empty` pairing lint).
    pub fn is_empty(&self) -> bool {
        self.caps.is_empty()
    }

    /// Capacity of `link` in bytes/sec.
    pub fn capacity(&self, link: u32) -> f64 {
        self.caps[link as usize]
    }

    /// All capacities, fabric first.
    pub fn capacities(&self) -> &[f64] {
        &self.caps
    }

    /// Human-readable link name (`fabric`, `up:3`, `down:0`, `disk:7`).
    pub fn label(&self, link: u32) -> String {
        let l = link as usize;
        if l == 0 {
            "fabric".to_string()
        } else if l <= self.nodes {
            format!("up:{}", l - 1)
        } else if l <= 2 * self.nodes {
            format!("down:{}", l - 1 - self.nodes)
        } else {
            format!("disk:{}", l - 1 - 2 * self.nodes)
        }
    }
}

/// One transfer: `bytes` crossing up to two links, arriving at
/// `start_secs` on the simulation's relative clock.
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    /// Arrival offset from the simulation origin, in virtual seconds.
    pub start_secs: f64,
    /// Payload size.
    pub bytes: u64,
    /// Links the flow crosses ([`NO_LINK`] for unused slots).
    pub links: [u32; 2],
}

impl FlowSpec {
    /// A flow starting at the origin.
    pub fn new(bytes: u64, links: [u32; 2]) -> Self {
        FlowSpec { start_secs: 0.0, bytes, links }
    }

    /// Builder-style arrival offset.
    pub fn at(mut self, start_secs: f64) -> Self {
        self.start_secs = start_secs;
        self
    }
}

/// A mid-transfer crash: at `at_secs`, flow `flow` (by spec index) is
/// cancelled — its completion event is tombstoned — and a reattempt
/// carrying the full byte count is re-enqueued `requeue_delay_secs`
/// later. The reattempt's finish is reported under the original flow's
/// index. A cancel aimed at an already-finished flow is a no-op.
#[derive(Debug, Clone, Copy)]
pub struct CancelSpec {
    /// Index into the `flows` slice passed to [`simulate`].
    pub flow: usize,
    /// When the crash fires, in virtual seconds.
    pub at_secs: f64,
    /// Extra delay before the reattempt starts (failure detection +
    /// rescheduling, the `task_retry_delay_secs` knob).
    pub requeue_delay_secs: f64,
}

/// What the flow simulation produced.
#[derive(Debug, Clone, Default)]
pub struct FlowOutcome {
    /// Completion time of the last flow, in virtual seconds from the
    /// simulation origin (0 for an empty flow set).
    pub makespan_secs: f64,
    /// Per-input-flow completion time (reattempts report under the
    /// original index).
    pub finish_secs: Vec<f64>,
    /// Heap events processed (arrivals, completions, cancels, and
    /// completions a later re-solve made stale).
    pub events: u64,
    /// Rate re-solves performed: one per distinct virtual instant at which
    /// the active set changed, however many events share that instant.
    pub resolves: u64,
    /// Bytes carried per link, indexed like [`Topology::capacities`].
    pub link_bytes: Vec<f64>,
    /// Virtual seconds each link spent with at least one active flow.
    pub link_busy_secs: Vec<f64>,
    /// Peak allocated-rate / capacity per link (≤ 1.0 by construction),
    /// over the rate sets that lasted. A state that stands for zero
    /// virtual time — between two events of one instant, or while a
    /// zero-byte flow is nominally active — carries no bytes and is not
    /// recorded.
    pub link_peak_util: Vec<f64>,
    /// Maximum number of flows active together for a non-zero interval (a
    /// flow arriving on the nanosecond another completes does not overlap
    /// it).
    pub peak_flows: usize,
}

/// Progressive-filling solver with its per-link and per-flow scratch
/// sized once, so a re-solve allocates nothing and visits only the links
/// its flows cross.
struct Solver {
    /// Unfrozen flows per link. All-zero between solves: every flow
    /// freezes and takes its count back out.
    nflows: Vec<u32>,
    cap_left: Vec<f64>,
    frozen: Vec<bool>,
    /// Links the last solve's flows cross, in order of first appearance.
    live: Vec<u32>,
}

impl Solver {
    fn new(nlinks: usize) -> Self {
        Solver {
            nflows: vec![0; nlinks],
            cap_left: vec![0.0; nlinks],
            frozen: Vec::new(),
            live: Vec::new(),
        }
    }

    /// Max-min fair rates for `flows` (each a link pair) over `caps`.
    /// `out` is overwritten.
    fn solve(&mut self, caps: &[f64], flows: &[(usize, [u32; 2])], out: &mut [f64]) {
        self.live.clear();
        for (_, links) in flows {
            for &l in links {
                if l != NO_LINK {
                    if self.nflows[l as usize] == 0 {
                        self.live.push(l);
                        self.cap_left[l as usize] = caps[l as usize];
                    }
                    self.nflows[l as usize] += 1;
                }
            }
        }
        self.frozen.clear();
        self.frozen.resize(flows.len(), false);
        let mut water = 0.0_f64;
        let mut remaining = flows.len();
        while remaining > 0 {
            let mut delta = f64::INFINITY;
            for &l in &self.live {
                let l = l as usize;
                if self.nflows[l] > 0 {
                    let share = self.cap_left[l] / self.nflows[l] as f64;
                    if share < delta {
                        delta = share;
                    }
                }
            }
            if !delta.is_finite() {
                // No constrained link left (flows with no links): unreachable
                // through the public API, but freeze defensively.
                for (i, fr) in self.frozen.iter().enumerate() {
                    if !*fr {
                        out[i] = f64::INFINITY;
                    }
                }
                break;
            }
            water += delta;
            // Drain every constrained link by the uniform fill; links whose
            // pre-fill share equals the minimum saturate exactly.
            let mut any_saturated = false;
            for &l in &self.live {
                let l = l as usize;
                if self.nflows[l] > 0 {
                    let share = self.cap_left[l] / self.nflows[l] as f64;
                    self.cap_left[l] -= delta * self.nflows[l] as f64;
                    if share == delta {
                        self.cap_left[l] = 0.0;
                        any_saturated = true;
                    }
                }
            }
            for (i, (_, links)) in flows.iter().enumerate() {
                if self.frozen[i] {
                    continue;
                }
                let hit_bottleneck = !any_saturated
                    || links.iter().any(|&l| l != NO_LINK && self.nflows[l as usize] > 0 && {
                        self.cap_left[l as usize] == 0.0
                    });
                if hit_bottleneck {
                    self.frozen[i] = true;
                    out[i] = water;
                    remaining -= 1;
                    for &l in links {
                        if l != NO_LINK {
                            self.nflows[l as usize] -= 1;
                        }
                    }
                }
            }
        }
    }
}

/// Max-min fair rates for concurrent `flows` over `topo` — the solver the
/// event loop re-runs at every instant the active set changes. Exposed for
/// the fair-share property tests.
pub fn solve_rates(topo: &Topology, flows: &[[u32; 2]]) -> Vec<f64> {
    let indexed: Vec<(usize, [u32; 2])> = flows.iter().copied().enumerate().collect();
    let mut out = vec![0.0; flows.len()];
    Solver::new(topo.len()).solve(topo.capacities(), &indexed, &mut out);
    out
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum FlowState {
    Pending,
    Active,
    Done,
}

#[derive(Debug)]
struct FlowInstance {
    links: [u32; 2],
    remaining: f64,
    rate: f64,
    epoch: u64,
    state: FlowState,
    /// Index into the caller's spec slice this instance reports under.
    origin: usize,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrival(usize),
    Completion { inst: usize, epoch: u64 },
    Cancel(usize),
}

/// Runs the shared-bandwidth simulation: every flow arrives at its start
/// offset, rates re-solve max-min-fairly once per instant at which flows
/// arrive, complete or are cancelled, and the outcome reports completion
/// times plus per-link contention statistics. `queue_capacity` pre-sizes
/// the event heap.
pub fn simulate(
    topo: &Topology,
    flows: &[FlowSpec],
    cancels: &[CancelSpec],
    queue_capacity: usize,
) -> FlowOutcome {
    let nlinks = topo.len();
    let mut out = FlowOutcome {
        finish_secs: vec![0.0; flows.len()],
        link_bytes: vec![0.0; nlinks],
        link_busy_secs: vec![0.0; nlinks],
        link_peak_util: vec![0.0; nlinks],
        ..FlowOutcome::default()
    };
    if flows.is_empty() {
        return out;
    }

    let mut insts: Vec<FlowInstance> = flows
        .iter()
        .enumerate()
        .map(|(i, f)| FlowInstance {
            links: f.links,
            remaining: f.bytes as f64,
            rate: 0.0,
            epoch: 0,
            state: FlowState::Pending,
            origin: i,
        })
        .collect();

    let mut queue: EventQueue<Ev> = EventQueue::with_capacity(queue_capacity);
    for (i, f) in flows.iter().enumerate() {
        queue.push(secs_to_ns(f.start_secs), Ev::Arrival(i));
    }
    for (c, spec) in cancels.iter().enumerate() {
        assert!(spec.flow < flows.len(), "cancel names flow {} of {}", spec.flow, flows.len());
        queue.push(secs_to_ns(spec.at_secs), Ev::Cancel(c));
    }

    // Everything below is kept per instant, not rebuilt: the active flows
    // in instance-index order (so per-link sums add in a fixed order),
    // their rates, the per-link allocated rate under the standing rate
    // set, and the solver's scratch — whose `live` list is exactly the
    // links that carry a flow, the only ones accounting has to visit.
    // The full topology is 3000+ links at 1000 virtual nodes and a long
    // simulation has far more instances than live flows.
    let mut solver = Solver::new(nlinks);
    let mut link_alloc = vec![0.0_f64; nlinks];
    let mut active: Vec<(usize, [u32; 2])> = Vec::with_capacity(flows.len());
    let mut rates: Vec<f64> = Vec::with_capacity(flows.len());
    let mut now_ns: SimNanos = 0;

    while let Some(first) = queue.pop() {
        // Account the elapsed interval against the standing rate set.
        // Between instants no flow changes state, so `active` is exactly
        // the set that moved bytes. Peaks are taken here, not at the
        // re-solve, so they cover only rate sets that lasted: an instant
        // can be solved twice (a zero-byte flow completes the moment it
        // starts) and the first of those states carries nothing.
        let dt = (first.time_ns.saturating_sub(now_ns)) as f64 * 1e-9;
        if dt > 0.0 {
            out.peak_flows = out.peak_flows.max(active.len());
            for &l in &solver.live {
                let l = l as usize;
                let alloc = link_alloc[l];
                if alloc > 0.0 {
                    out.link_busy_secs[l] += dt;
                    out.link_bytes[l] += alloc * dt;
                    let util = alloc / topo.capacities()[l];
                    if util > out.link_peak_util[l] {
                        out.link_peak_util[l] = util;
                    }
                }
            }
            for &(i, _) in &active {
                let inst = &mut insts[i];
                inst.remaining = (inst.remaining - inst.rate * dt).max(0.0);
            }
        }
        now_ns = first.time_ns;

        // Apply every event of this instant in (time_ns, seq) order; rates
        // are re-solved once, for the state the instant ends in.
        let mut changed = false;
        let mut next = Some(first.payload);
        while let Some(ev) = next {
            match ev {
                Ev::Arrival(i) => {
                    if insts[i].state == FlowState::Pending {
                        insts[i].state = FlowState::Active;
                        let at = active.partition_point(|a| a.0 < i);
                        active.insert(at, (i, insts[i].links));
                        changed = true;
                    }
                }
                Ev::Completion { inst, epoch } => {
                    let f = &mut insts[inst];
                    if f.state == FlowState::Active && f.epoch == epoch {
                        f.state = FlowState::Done;
                        f.remaining = 0.0;
                        let t = now_ns as f64 * 1e-9;
                        out.finish_secs[f.origin] = t;
                        out.makespan_secs = out.makespan_secs.max(t);
                        changed = true;
                    }
                }
                Ev::Cancel(c) => {
                    let spec = cancels[c];
                    let f = &mut insts[spec.flow];
                    if f.state == FlowState::Active || f.state == FlowState::Pending {
                        // Drop the attempt (its completion event goes stale via
                        // the epoch bump below) and re-enqueue a full-size
                        // reattempt after the detection delay.
                        f.state = FlowState::Done;
                        f.epoch += 1;
                        let origin = f.origin;
                        let links = f.links;
                        let bytes = flows[spec.flow].bytes as f64;
                        insts.push(FlowInstance {
                            links,
                            remaining: bytes,
                            rate: 0.0,
                            epoch: 0,
                            state: FlowState::Pending,
                            origin,
                        });
                        let reattempt = insts.len() - 1;
                        queue.push(
                            now_ns.saturating_add(secs_to_ns(spec.requeue_delay_secs)),
                            Ev::Arrival(reattempt),
                        );
                        changed = true;
                    }
                }
            }
            next = match queue.peek_time() {
                Some(t) if t == now_ns => queue.pop().map(|e| e.payload),
                _ => None,
            };
        }
        if !changed {
            continue; // only stale completions — costs the heap pops
        }
        active.retain(|&(i, _)| insts[i].state == FlowState::Active);

        // Re-solve rates for the active set and re-schedule completions
        // for flows whose rate moved.
        out.resolves += 1;
        for &l in &solver.live {
            link_alloc[l as usize] = 0.0;
        }
        rates.resize(active.len(), 0.0);
        solver.solve(topo.capacities(), &active, &mut rates);
        for (k, (_, links)) in active.iter().enumerate() {
            for &l in links {
                if l != NO_LINK {
                    link_alloc[l as usize] += rates[k];
                }
            }
        }
        for (k, &(i, _)) in active.iter().enumerate() {
            let inst = &mut insts[i];
            let new_rate = rates[k];
            if new_rate.to_bits() != inst.rate.to_bits() || inst.epoch == 0 {
                inst.rate = new_rate;
                inst.epoch += 1;
                let dur_secs = if new_rate > 0.0 { inst.remaining / new_rate } else { 0.0 };
                queue.push(now_ns.saturating_add(secs_to_ns(dur_secs)), Ev::Completion {
                    inst: i,
                    epoch: inst.epoch,
                });
            }
        }
    }
    out.events = queue.processed();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo8() -> Topology {
        Topology::new(8, 100.0, 50.0)
    }

    #[test]
    fn topology_layout_and_labels() {
        let t = topo8();
        assert_eq!(t.len(), 25);
        assert_eq!(t.capacity(t.fabric()), 800.0);
        assert_eq!(t.capacity(t.uplink(3)), 100.0);
        assert_eq!(t.capacity(t.downlink(0)), 100.0);
        assert_eq!(t.capacity(t.disk(7)), 50.0);
        assert_eq!(t.label(t.fabric()), "fabric");
        assert_eq!(t.label(t.uplink(3)), "up:3");
        assert_eq!(t.label(t.downlink(5)), "down:5");
        assert_eq!(t.label(t.disk(2)), "disk:2");
    }

    #[test]
    fn single_flow_gets_its_bottleneck_rate() {
        let t = topo8();
        let rates = solve_rates(&t, &[[t.uplink(0), t.fabric()]]);
        assert_eq!(rates, vec![100.0], "one flow is capped by its uplink");
    }

    #[test]
    fn balanced_flows_saturate_every_uplink() {
        let t = topo8();
        let flows: Vec<[u32; 2]> = (0..8).map(|n| [t.uplink(n), t.fabric()]).collect();
        let rates = solve_rates(&t, &flows);
        assert!(rates.iter().all(|&r| r == 100.0), "{rates:?}");
    }

    #[test]
    fn fair_share_splits_a_shared_link_evenly() {
        let t = topo8();
        // 4 flows on one uplink: each gets a quarter of it.
        let flows = vec![[t.uplink(2), t.fabric()]; 4];
        let rates = solve_rates(&t, &flows);
        assert!(rates.iter().all(|&r| (r - 25.0).abs() < 1e-12), "{rates:?}");
        assert!((rates.iter().sum::<f64>() - 100.0).abs() < 1e-9, "shares sum to capacity");
    }

    #[test]
    fn max_min_gives_unconstrained_flows_the_leftovers() {
        // 3 flows share uplink 0 (rate 100/3 each); 1 flow alone on
        // uplink 1 takes the full 100. Fabric (800) never binds.
        let t = topo8();
        let flows = vec![
            [t.uplink(0), t.fabric()],
            [t.uplink(0), t.fabric()],
            [t.uplink(0), t.fabric()],
            [t.uplink(1), t.fabric()],
        ];
        let rates = solve_rates(&t, &flows);
        for r in &rates[..3] {
            assert!((r - 100.0 / 3.0).abs() < 1e-9, "{rates:?}");
        }
        assert!((rates[3] - 100.0).abs() < 1e-9, "{rates:?}");
    }

    #[test]
    fn fabric_binds_when_oversubscribed() {
        // 16 flows across 8 uplinks (2 each): uplink share would be 50,
        // but with a narrow fabric of 400 the fabric share 400/16 = 25
        // binds first.
        let t = Topology::new(8, 100.0, 50.0);
        let narrow = {
            let mut t2 = t.clone();
            t2.caps[0] = 400.0;
            t2
        };
        let flows: Vec<[u32; 2]> =
            (0..16).map(|i| [narrow.uplink(i % 8), narrow.fabric()]).collect();
        let rates = solve_rates(&narrow, &flows);
        assert!(rates.iter().all(|&r| (r - 25.0).abs() < 1e-9), "{rates:?}");
        assert!((rates.iter().sum::<f64>() - 400.0).abs() < 1e-6, "fabric fully used");
    }

    #[test]
    fn simulate_single_flow_matches_arithmetic() {
        let t = topo8();
        let out = simulate(&t, &[FlowSpec::new(1000, [t.uplink(0), t.fabric()])], &[], 16);
        assert!((out.makespan_secs - 10.0).abs() < 1e-6, "{}", out.makespan_secs);
        assert!((out.finish_secs[0] - 10.0).abs() < 1e-6);
        assert!(out.events >= 2);
        assert_eq!(out.peak_flows, 1);
    }

    #[test]
    fn skewed_flows_finish_at_their_own_pace() {
        let t = topo8();
        let flows = vec![
            FlowSpec::new(1000, [t.uplink(0), t.fabric()]), // 10 s alone
            FlowSpec::new(500, [t.uplink(1), t.fabric()]),  // 5 s alone
        ];
        let out = simulate(&t, &flows, &[], 16);
        assert!((out.finish_secs[0] - 10.0).abs() < 1e-6, "{:?}", out.finish_secs);
        assert!((out.finish_secs[1] - 5.0).abs() < 1e-6, "{:?}", out.finish_secs);
        // Uplink 1 idles after 5 s: busy 5 s, uplink 0 busy 10 s.
        assert!((out.link_busy_secs[t.uplink(0) as usize] - 10.0).abs() < 1e-6);
        assert!((out.link_busy_secs[t.uplink(1) as usize] - 5.0).abs() < 1e-6);
        assert!(out.link_peak_util.iter().all(|&u| u <= 1.0 + 1e-9));
    }

    #[test]
    fn shared_link_contention_stretches_completions() {
        let t = topo8();
        // Two 500-byte flows on the same uplink: 10 s together, not 5.
        let flows = vec![
            FlowSpec::new(500, [t.uplink(0), t.fabric()]),
            FlowSpec::new(500, [t.uplink(0), t.fabric()]),
        ];
        let out = simulate(&t, &flows, &[], 16);
        assert!((out.makespan_secs - 10.0).abs() < 1e-6, "{}", out.makespan_secs);
        // Both finish at 10 s (equal shares, equal sizes).
        assert!((out.finish_secs[0] - 10.0).abs() < 1e-6);
        assert!((out.finish_secs[1] - 10.0).abs() < 1e-6);
    }

    #[test]
    fn late_arrival_resolves_rates_mid_flight() {
        let t = topo8();
        // Flow A: 1000 bytes on uplink 0 from t=0. Flow B: 250 bytes on
        // the same uplink from t=5. A runs at 100 for 5 s (500 left),
        // then both at 50; B finishes at t=10, A's last 250 run at 100
        // again: A finishes at 12.5 s.
        let flows = vec![
            FlowSpec::new(1000, [t.uplink(0), t.fabric()]),
            FlowSpec::new(250, [t.uplink(0), t.fabric()]).at(5.0),
        ];
        let out = simulate(&t, &flows, &[], 16);
        assert!((out.finish_secs[1] - 10.0).abs() < 1e-5, "{:?}", out.finish_secs);
        assert!((out.finish_secs[0] - 12.5).abs() < 1e-5, "{:?}", out.finish_secs);
        assert!(out.resolves >= 4, "start/finish re-solves must happen");
    }

    #[test]
    fn cancel_mid_transfer_requeues_the_reattempt() {
        let t = topo8();
        // 1000 bytes at 100 B/s = 10 s nominally; crash at 4 s, 2 s
        // detection delay, full re-send: finish = 4 + 2 + 10 = 16 s.
        let flows = vec![FlowSpec::new(1000, [t.uplink(0), t.fabric()])];
        let cancels = vec![CancelSpec { flow: 0, at_secs: 4.0, requeue_delay_secs: 2.0 }];
        let out = simulate(&t, &flows, &cancels, 16);
        assert!((out.finish_secs[0] - 16.0).abs() < 1e-5, "{:?}", out.finish_secs);
        // The first attempt's 400 bytes still crossed the link.
        assert!((out.link_bytes[t.uplink(0) as usize] - 1400.0).abs() < 1.0);
    }

    #[test]
    fn cancel_after_completion_is_a_no_op() {
        let t = topo8();
        let flows = vec![FlowSpec::new(100, [t.uplink(0), t.fabric()])];
        let cancels = vec![CancelSpec { flow: 0, at_secs: 50.0, requeue_delay_secs: 2.0 }];
        let out = simulate(&t, &flows, &cancels, 16);
        assert!((out.finish_secs[0] - 1.0).abs() < 1e-6, "{:?}", out.finish_secs);
    }

    #[test]
    fn zero_byte_flows_finish_instantly() {
        let t = topo8();
        let out = simulate(&t, &[FlowSpec::new(0, [t.uplink(0), t.fabric()])], &[], 4);
        assert_eq!(out.finish_secs[0], 0.0);
        assert_eq!(out.makespan_secs, 0.0);
    }

    #[test]
    fn outcome_is_deterministic() {
        let t = topo8();
        let flows: Vec<FlowSpec> = (0..32)
            .map(|i| {
                FlowSpec::new(100 + 37 * i as u64, [t.uplink(i % 8), t.fabric()])
                    .at((i % 5) as f64 * 0.25)
            })
            .collect();
        let a = simulate(&t, &flows, &[], 64);
        let b = simulate(&t, &flows, &[], 64);
        assert_eq!(a.finish_secs, b.finish_secs);
        assert_eq!(a.events, b.events);
        assert_eq!(a.link_bytes, b.link_bytes);
        assert_eq!(a.link_peak_util, b.link_peak_util);
    }

    /// The PR-8 event loop, kept as the oracle the per-instant loop is
    /// checked against: one full rescan and one full-topology re-solve per
    /// live event, transient same-instant states included.
    fn simulate_per_event(
        topo: &Topology,
        flows: &[FlowSpec],
        cancels: &[CancelSpec],
    ) -> FlowOutcome {
        let nlinks = topo.len();
        let mut out = FlowOutcome {
            finish_secs: vec![0.0; flows.len()],
            link_bytes: vec![0.0; nlinks],
            link_busy_secs: vec![0.0; nlinks],
            link_peak_util: vec![0.0; nlinks],
            ..FlowOutcome::default()
        };
        let mut insts: Vec<FlowInstance> = flows
            .iter()
            .enumerate()
            .map(|(i, f)| FlowInstance {
                links: f.links,
                remaining: f.bytes as f64,
                rate: 0.0,
                epoch: 0,
                state: FlowState::Pending,
                origin: i,
            })
            .collect();
        let mut queue: EventQueue<Ev> = EventQueue::with_capacity(64);
        for (i, f) in flows.iter().enumerate() {
            queue.push(secs_to_ns(f.start_secs), Ev::Arrival(i));
        }
        for (c, spec) in cancels.iter().enumerate() {
            queue.push(secs_to_ns(spec.at_secs), Ev::Cancel(c));
        }
        let mut link_alloc = vec![0.0_f64; nlinks];
        let mut active: Vec<usize> = Vec::new();
        let mut now_ns: SimNanos = 0;
        while let Some(ev) = queue.pop() {
            let dt = (ev.time_ns - now_ns) as f64 * 1e-9;
            if dt > 0.0 {
                for (l, &alloc) in link_alloc.iter().enumerate() {
                    if alloc > 0.0 {
                        out.link_busy_secs[l] += dt;
                        out.link_bytes[l] += alloc * dt;
                    }
                }
                for &i in &active {
                    insts[i].remaining = (insts[i].remaining - insts[i].rate * dt).max(0.0);
                }
            }
            now_ns = ev.time_ns;
            match ev.payload {
                Ev::Arrival(i) if insts[i].state == FlowState::Pending => {
                    insts[i].state = FlowState::Active;
                }
                Ev::Completion { inst, epoch }
                    if insts[inst].state == FlowState::Active && insts[inst].epoch == epoch =>
                {
                    insts[inst].state = FlowState::Done;
                    let t = now_ns as f64 * 1e-9;
                    out.finish_secs[insts[inst].origin] = t;
                    out.makespan_secs = out.makespan_secs.max(t);
                }
                Ev::Cancel(c) if insts[cancels[c].flow].state != FlowState::Done => {
                    let spec = cancels[c];
                    insts[spec.flow].state = FlowState::Done;
                    insts[spec.flow].epoch += 1;
                    insts.push(FlowInstance {
                        links: insts[spec.flow].links,
                        remaining: flows[spec.flow].bytes as f64,
                        rate: 0.0,
                        epoch: 0,
                        state: FlowState::Pending,
                        origin: spec.flow,
                    });
                    queue.push(
                        now_ns + secs_to_ns(spec.requeue_delay_secs),
                        Ev::Arrival(insts.len() - 1),
                    );
                }
                _ => continue,
            }
            out.resolves += 1;
            active = (0..insts.len()).filter(|&i| insts[i].state == FlowState::Active).collect();
            out.peak_flows = out.peak_flows.max(active.len());
            let pairs: Vec<[u32; 2]> = active.iter().map(|&i| insts[i].links).collect();
            let rates = solve_rates(topo, &pairs);
            link_alloc.iter_mut().for_each(|a| *a = 0.0);
            for (links, rate) in pairs.iter().zip(&rates) {
                for &l in links.iter().filter(|&&l| l != NO_LINK) {
                    link_alloc[l as usize] += rate;
                }
            }
            for (l, &alloc) in link_alloc.iter().enumerate() {
                out.link_peak_util[l] = out.link_peak_util[l].max(alloc / topo.capacities()[l]);
            }
            for (&i, &rate) in active.iter().zip(&rates) {
                let inst = &mut insts[i];
                if rate.to_bits() != inst.rate.to_bits() || inst.epoch == 0 {
                    inst.rate = rate;
                    inst.epoch += 1;
                    let dur_secs = if rate > 0.0 { inst.remaining / rate } else { 0.0 };
                    queue.push(now_ns + secs_to_ns(dur_secs), Ev::Completion {
                        inst: i,
                        epoch: inst.epoch,
                    });
                }
            }
        }
        out.events = queue.processed();
        out
    }

    /// A seeded flow set mixing everything the loop distinguishes: starts
    /// on a coarse grid (so many coincide) or staggered to the ns, the
    /// three link-pair shapes the cluster builds, zero-byte flows, repeated
    /// sizes (simultaneous completions), and cancels landing before,
    /// during and after their flow's transfer.
    fn random_case(seed: u64) -> (Topology, Vec<FlowSpec>, Vec<CancelSpec>) {
        let mut rng = linalg::Prng::seed_from_u64(seed ^ 0x5ca1e);
        let nodes = 2 + rng.index(7);
        let topo =
            Topology::new(nodes, 100.0 + rng.index(900) as f64, 50.0 + rng.index(200) as f64);
        let nflows = 1 + rng.index(40);
        let coincident = rng.index(3) != 0;
        let flows: Vec<FlowSpec> = (0..nflows)
            .map(|_| {
                let (a, b) = (rng.index(nodes), rng.index(nodes));
                let links = match rng.index(3) {
                    0 => [topo.disk(a), NO_LINK],
                    1 => [topo.downlink(a), topo.fabric()],
                    _ => [topo.uplink(a), topo.downlink(b)],
                };
                let bytes = match rng.index(8) {
                    0 => 0,
                    1..=3 => 1_000 * (1 + rng.index(4) as u64),
                    _ => 1 + rng.index(20_000) as u64,
                };
                let start = if coincident {
                    rng.index(4) as f64 * 2.5
                } else {
                    rng.index(30_000_000_000) as f64 * 1e-9
                };
                FlowSpec::new(bytes, links).at(start)
            })
            .collect();
        let cancels: Vec<CancelSpec> = (0..rng.index(4))
            .map(|_| CancelSpec {
                flow: rng.index(nflows),
                at_secs: rng.index(16) as f64 * 2.5,
                requeue_delay_secs: rng.index(3) as f64 * 1.25,
            })
            .collect();
        (topo, flows, cancels)
    }

    #[test]
    fn per_instant_loop_matches_the_per_event_oracle() {
        const TOL: f64 = 10e-9;
        let (mut fewer_resolves, mut lower_peak) = (0, 0);
        for seed in 0..400u64 {
            let (topo, flows, cancels) = random_case(seed);
            let new = simulate(&topo, &flows, &cancels, 64);
            let old = simulate_per_event(&topo, &flows, &cancels);
            for (i, (a, b)) in new.finish_secs.iter().zip(&old.finish_secs).enumerate() {
                assert!((a - b).abs() <= TOL, "seed {seed} flow {i}: finish {a} vs {b}");
            }
            assert!((new.makespan_secs - old.makespan_secs).abs() <= TOL, "seed {seed}");
            for l in 0..topo.len() {
                let cap = topo.capacities()[l];
                assert!(
                    (new.link_busy_secs[l] - old.link_busy_secs[l]).abs() <= TOL,
                    "seed {seed} link {l}: busy {} vs {}",
                    new.link_busy_secs[l],
                    old.link_busy_secs[l]
                );
                assert!(
                    (new.link_bytes[l] - old.link_bytes[l]).abs() <= cap * TOL,
                    "seed {seed} link {l}: bytes {} vs {}",
                    new.link_bytes[l],
                    old.link_bytes[l]
                );
                // ≤ 1 up to the rounding of summing a link's shares.
                let (pn, po) = (new.link_peak_util[l], old.link_peak_util[l]);
                assert!(pn <= 1.0 + 1e-12, "seed {seed} link {l} over capacity: {pn}");
                assert!(pn <= po, "seed {seed} link {l}: peak {pn} above the oracle's {po}");
            }
            assert!(new.peak_flows <= old.peak_flows, "seed {seed}");
            assert!(new.resolves <= old.resolves && new.events <= old.events, "seed {seed}");
            fewer_resolves += usize::from(new.resolves < old.resolves);
            lower_peak += usize::from(new.peak_flows < old.peak_flows);
        }
        // The generator must actually reach the cases where the loops differ.
        assert!(fewer_resolves > 100, "only {fewer_resolves} cases batched anything");
        assert!(lower_peak > 0, "no case had a same-instant arrival/completion overlap");
    }

    #[test]
    fn equal_flows_on_distinct_links_cost_two_resolves() {
        let n = 64;
        let t = Topology::new(n, 100.0, 50.0);
        let flows: Vec<FlowSpec> =
            (0..n).map(|p| FlowSpec::new(5_000, [t.downlink(p), t.fabric()])).collect();
        let out = simulate(&t, &flows, &[], 256);
        assert_eq!(out.resolves, 2, "one solve for the arrivals, one for the completions");
        assert_eq!(out.events, 2 * n as u64, "no completion was ever re-scheduled");
        assert!(out.finish_secs.iter().all(|&f| f == 50.0), "{:?}", out.finish_secs);
    }

    #[test]
    fn accumulator_stage_at_1000_nodes_costs_a_handful_of_resolves() {
        // The shape `SimCluster` charges per stage: 2n + 1 equal partials,
        // partition p onto downlink p % n, all arriving together. Downlink
        // 0 carries three flows (a third of the link each), the rest two,
        // so there are three distinct instants. The per-event loop paid
        // 4002 solves for this.
        let n = 1000;
        let t = Topology::new(n, 1.25e8, 1.0e8);
        let flows: Vec<FlowSpec> =
            (0..2 * n + 1).map(|p| FlowSpec::new(65_536, [t.downlink(p), t.fabric()])).collect();
        let out = simulate(&t, &flows, &[], 1 << 12);
        assert!(out.resolves <= 4, "{} resolves", out.resolves);
        assert_eq!(out.peak_flows, 2 * n + 1);
        // Conservation: every network flow crosses the fabric once, so the
        // fabric carried exactly the bytes offered.
        let offered = (2 * n + 1) as f64 * 65_536.0;
        let carried = out.link_bytes[t.fabric() as usize];
        assert!((carried - offered).abs() <= 1e-9 * offered, "{carried} vs {offered}");
    }

    #[test]
    fn fabric_bytes_are_conserved_under_skew_and_staggered_starts() {
        let t = topo8();
        let flows: Vec<FlowSpec> = (0..40)
            .map(|i| {
                FlowSpec::new(10_000 + 977 * i as u64, [t.downlink(i * i % 8), t.fabric()])
                    .at((i % 7) as f64 * 1.5)
            })
            .collect();
        let out = simulate(&t, &flows, &[], 128);
        let offered: f64 = flows.iter().map(|f| f.bytes as f64).sum();
        let carried = out.link_bytes[t.fabric() as usize];
        assert!((carried - offered).abs() <= 1e-9 * offered, "{carried} vs {offered}");
    }

    #[test]
    fn peaks_describe_states_that_persist() {
        let t = topo8();
        // A and B arrive together and share downlink 1. Between the two
        // arrivals A alone would hold uplink 0 at 100 % — for zero virtual
        // time. The standing state is 50 % on each uplink.
        let flows = vec![
            FlowSpec::new(500, [t.uplink(0), t.downlink(1)]),
            FlowSpec::new(500, [t.uplink(2), t.downlink(1)]),
            // C arrives on the nanosecond A and B complete: it never
            // overlaps them, though its arrival event pops first.
            FlowSpec::new(500, [t.uplink(0), t.downlink(1)]).at(10.0),
        ];
        let new = simulate(&t, &flows, &[], 16);
        let old = simulate_per_event(&t, &flows, &[]);
        for (got, want) in new.finish_secs.iter().zip([10.0, 10.0, 15.0]) {
            assert!((got - want).abs() < 1e-9, "{:?}", new.finish_secs);
        }
        assert_eq!(new.link_peak_util[t.uplink(2) as usize], 0.5);
        assert_eq!(new.link_peak_util[t.downlink(1) as usize], 1.0);
        assert_eq!(new.link_peak_util[t.uplink(0) as usize], 1.0, "C alone, for 5 s");
        assert_eq!(new.peak_flows, 2);
        assert_eq!(new.resolves, 3, "t = 0, 10 and 15 s");
        // What the per-event loop recorded for the same input.
        assert_eq!(old.peak_flows, 3);
        assert!(old.resolves > new.resolves);
    }

    #[test]
    fn saturated_times_do_not_overflow() {
        // u64::MAX bytes at 1 B/s and a 1e30 s requeue delay both saturate
        // `secs_to_ns`; added to a non-zero `now` they used to wrap (or
        // panic in debug builds).
        let t = Topology::new(2, 1.0, 1.0);
        let flows = vec![
            FlowSpec::new(u64::MAX, [t.disk(0), NO_LINK]).at(1.0),
            FlowSpec::new(u64::MAX, [t.disk(1), NO_LINK]).at(1.0),
        ];
        let cancels = vec![CancelSpec { flow: 1, at_secs: 2.0, requeue_delay_secs: 1e30 }];
        let out = simulate(&t, &flows, &cancels, 8);
        let end = u64::MAX as f64 * 1e-9;
        assert_eq!(out.finish_secs, vec![end, end]);
        assert_eq!(out.makespan_secs, end);
    }
}
