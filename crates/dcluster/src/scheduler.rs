//! Virtual-core task scheduling.
//!
//! Given the measured durations of a stage's tasks, compute how long the
//! stage would have taken on `cores` parallel cores. Greedy longest-
//! processing-time (LPT) list scheduling is within 4/3 of optimal makespan
//! and matches how MapReduce/Spark slot schedulers behave on skewed task
//! sets closely enough for the paper's shape claims.

/// Makespan of scheduling `durations` onto `cores` identical cores with
/// greedy LPT. Returns 0 for an empty task set.
pub fn makespan(durations: &[f64], cores: usize) -> f64 {
    makespan_with_critical(durations, cores).0
}

/// Like [`makespan`], but also identifies the **critical task**: the task
/// (by original index) that finishes last on the makespan core — the task
/// whose completion releases the stage barrier. The critical-path profiler
/// attaches it to stage segments so "which task dominated this barrier" is
/// answerable from the trace.
///
/// **Cost:** O(n log n) for the sort plus O(n log c) for the placements —
/// each task goes to the top of a binary min-heap of core loads: ~0.1 ms
/// for 1 024 tasks on 1 024 cores. `run_stage` calls this three times a
/// stage, so it must never cost O(n·c) (`bench_scale`'s `stage_storm`
/// fails if it does).
///
/// **Tie-breaks**, which every virtual number downstream depends on:
/// tasks are placed longest first, equal durations in index order; a task
/// goes to the least-loaded core, equal loads to the lowest core index
/// (the heap key is `(load, core index)`); of several cores that end at
/// the makespan the highest-indexed one names the critical task, and only
/// a core that ran a task can — so the critical task is always a real
/// index, also when every duration is 0.0.
pub fn makespan_with_critical(durations: &[f64], cores: usize) -> (f64, Option<usize>) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    assert!(cores > 0, "makespan: need at least one core");
    if durations.is_empty() {
        return (0.0, None);
    }
    let order = lpt_order(durations);
    let cores = cores.min(durations.len());
    let mut heap: BinaryHeap<Reverse<CoreLoad>> =
        (0..cores).map(|core| Reverse(CoreLoad { load: 0.0, core })).collect();
    // Last task assigned to each core: on a single core tasks run back to
    // back, so the last-assigned one is the one that finishes at the
    // core's final load. `usize::MAX` marks a core that never ran a task.
    let mut last_task = vec![usize::MAX; cores];
    for t in order {
        let mut top = heap.peek_mut().expect("at least one core");
        top.0.load += durations[t];
        last_task[top.0.core] = t;
    }
    let busiest = heap
        .into_iter()
        .map(|Reverse(c)| c)
        .filter(|c| last_task[c.core] != usize::MAX)
        .max()
        .expect("a non-empty task set puts a task on some core");
    (busiest.load, Some(last_task[busiest.core]))
}

/// Task indices longest first, equal durations in index order.
fn lpt_order(durations: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..durations.len()).collect();
    order.sort_by(|&a, &b| {
        durations[b].partial_cmp(&durations[a]).expect("finite durations").then(a.cmp(&b))
    });
    order
}

/// A core's accumulated load, ordered by `(load, core index)`.
#[derive(PartialEq)]
struct CoreLoad {
    load: f64,
    core: usize,
}

impl Eq for CoreLoad {}

impl PartialOrd for CoreLoad {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CoreLoad {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.load.partial_cmp(&other.load).expect("finite loads").then(self.core.cmp(&other.core))
    }
}

/// Number of scheduling waves `ceil(tasks / cores)` — used to charge
/// per-wave overheads the way Hadoop's slot scheduler does.
pub fn waves(tasks: usize, cores: usize) -> usize {
    assert!(cores > 0, "waves: need at least one core");
    tasks.div_ceil(cores)
}

/// Event-driven per-host slot schedule — the contended timing model's
/// replacement for global LPT. Task `i` is pinned to node `i % nodes`
/// (the same locality rule caches, crashes, and DFS placement already
/// use) and each node runs its tasks FIFO on `cores_per_node` slots; a
/// task completion event frees its slot for the node's next queued task.
/// Unlike LPT, a node cannot steal another node's backlog, so per-node
/// skew stretches the stage — the slot-scheduler behaviour LPT averages
/// away.
///
/// Returns `(makespan_secs, critical_task, events_processed)`. The
/// critical task is the one whose completion releases the stage barrier
/// (the last completion popped at the makespan instant — deterministic
/// through the queue's seq tiebreak).
pub fn host_schedule(
    durations: &[f64],
    nodes: usize,
    cores_per_node: usize,
    queue_capacity: usize,
) -> (f64, Option<usize>, u64) {
    use crate::events::{ns_to_secs, secs_to_ns, EventQueue};
    use std::collections::VecDeque;
    assert!(nodes > 0 && cores_per_node > 0, "host_schedule: need a non-empty cluster");
    if durations.is_empty() {
        return (0.0, None, 0);
    }
    let mut backlog: Vec<VecDeque<usize>> = vec![VecDeque::new(); nodes];
    for i in 0..durations.len() {
        backlog[i % nodes].push_back(i);
    }
    let mut queue: EventQueue<(usize, usize)> = EventQueue::with_capacity(queue_capacity);
    for (node, q) in backlog.iter_mut().enumerate() {
        for _ in 0..cores_per_node {
            match q.pop_front() {
                Some(task) => {
                    queue.push(secs_to_ns(durations[task]), (task, node));
                }
                None => break,
            }
        }
    }
    let mut last_ns = 0;
    let mut critical = None;
    while let Some(ev) = queue.pop() {
        let (task, node) = ev.payload;
        if ev.time_ns >= last_ns {
            last_ns = ev.time_ns;
            critical = Some(task);
        }
        if let Some(next) = backlog[node].pop_front() {
            queue.push(ev.time_ns + secs_to_ns(durations[next]), (next, node));
        }
    }
    (ns_to_secs(last_ns), critical, queue.processed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_core_is_sum() {
        let d = [1.0, 2.0, 3.0];
        assert!((makespan(&d, 1) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn enough_cores_is_max() {
        let d = [1.0, 2.0, 3.0];
        assert!((makespan(&d, 8) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn equal_tasks_divide_evenly() {
        let d = vec![1.0; 16];
        assert!((makespan(&d, 4) - 4.0).abs() < 1e-12);
        assert!((makespan(&d, 8) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lpt_handles_skew() {
        // One long task dominates no matter the core count.
        let d = [10.0, 1.0, 1.0, 1.0];
        assert!((makespan(&d, 4) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(makespan(&[], 4), 0.0);
    }

    #[test]
    fn makespan_monotone_in_cores() {
        let d: Vec<f64> = (1..40).map(|i| (i % 7) as f64 + 0.5).collect();
        let mut prev = f64::INFINITY;
        for cores in [1, 2, 4, 8, 16, 32] {
            let m = makespan(&d, cores);
            assert!(m <= prev + 1e-12, "makespan must not grow with more cores");
            prev = m;
        }
    }

    #[test]
    fn near_linear_speedup_for_divisible_work() {
        // 256 equal tasks: 16→32→64 cores halves the makespan each time,
        // the shape of the paper's Table 4.
        let d = vec![0.25; 256];
        let t16 = makespan(&d, 16);
        let t32 = makespan(&d, 32);
        let t64 = makespan(&d, 64);
        assert!((t16 / t32 - 2.0).abs() < 1e-9);
        assert!((t16 / t64 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn critical_task_finishes_at_the_makespan() {
        // One long task dominates: it is the critical task.
        let d = [1.0, 10.0, 1.0, 1.0];
        let (span, crit) = makespan_with_critical(&d, 4);
        assert!((span - 10.0).abs() < 1e-12);
        assert_eq!(crit, Some(1));
        // Single core: the critical task is the last one to run — with
        // ties broken by index, LPT runs equal tasks in index order.
        let (span1, crit1) = makespan_with_critical(&[2.0, 2.0, 2.0], 1);
        assert!((span1 - 6.0).abs() < 1e-12);
        assert_eq!(crit1, Some(2));
        assert_eq!(makespan_with_critical(&[], 4), (0.0, None));
    }

    /// The placement loop `makespan_with_critical` had before the heap:
    /// every task scans every core for the first least-loaded one. Kept as
    /// the differential oracle; it differs from the heap only where every
    /// load ends 0.0, where it names `usize::MAX` critical.
    fn makespan_scan(durations: &[f64], cores: usize) -> (f64, Option<usize>) {
        let mut loads = vec![0.0_f64; cores.min(durations.len())];
        let mut last_task = vec![usize::MAX; loads.len()];
        for t in lpt_order(durations) {
            let (idx, _) = loads
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite loads"))
                .expect("non-empty loads");
            loads[idx] += durations[t];
            last_task[idx] = t;
        }
        let (max_core, span) = loads
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite loads"))
            .expect("non-empty loads");
        (*span, Some(last_task[max_core]))
    }

    #[test]
    fn heap_matches_the_linear_scan_bit_for_bit() {
        let mut rng = linalg::Prng::seed_from_u64(0x5c4ed);
        let mut cases = 0;
        for case in 0..60 {
            // Small n often (ties and n ≈ cores matter most there), the
            // full range to 3 000 sometimes.
            let n = 1 + if case % 4 == 0 { rng.index(3_000) } else { rng.index(200) };
            let palette = [rng.uniform(), rng.uniform() * 10.0, 0.25];
            let durations: Vec<f64> = match case % 5 {
                // Heavy ties: three distinct values.
                0 => (0..n).map(|_| palette[rng.index(3)]).collect(),
                // Zeros mixed in.
                1 => (0..n).map(|_| if rng.index(3) == 0 { 0.0 } else { rng.uniform() }).collect(),
                // Twelve orders of magnitude between tasks.
                2 => (0..n).map(|_| if rng.index(2) == 0 { 1e-9 } else { 1e3 }).collect(),
                // Measured-looking: microseconds with noise.
                3 => (0..n).map(|_| 1.5e-6 + rng.uniform() * 1e-6).collect(),
                _ => (0..n).map(|_| rng.uniform() * rng.uniform() * 100.0).collect(),
            };
            if durations.iter().all(|&d| d == 0.0) {
                continue; // the one case the heap changes on purpose
            }
            for cores in [1, 2, 7, 64, n.saturating_sub(1).max(1), n, n + 1, 4_096] {
                let (span, critical) = makespan_with_critical(&durations, cores);
                let (want_span, want_critical) = makespan_scan(&durations, cores);
                assert_eq!(
                    (span.to_bits(), critical),
                    (want_span.to_bits(), want_critical),
                    "case {case}: n = {n}, cores = {cores}"
                );
                cases += 1;
            }
        }
        assert!(cases >= 400, "only {cases} vectors compared");
    }

    #[test]
    fn all_zero_durations_name_a_real_critical_task() {
        // Every task lands on core 0 (load 0.0 stays the first minimum),
        // so the last one placed — the highest index — is critical; the
        // idle cores tie at 0.0 and must not be picked.
        for n in [1, 3, 17] {
            let d = vec![0.0; n];
            for cores in [1, n.saturating_sub(1).max(1), n, n + 1, 64] {
                assert_eq!(
                    makespan_with_critical(&d, cores),
                    (0.0, Some(n - 1)),
                    "n = {n}, cores = {cores}"
                );
            }
        }
    }

    #[test]
    fn waves_rounds_up() {
        assert_eq!(waves(10, 4), 3);
        assert_eq!(waves(8, 4), 2);
        assert_eq!(waves(0, 4), 0);
        assert_eq!(waves(1, 64), 1);
    }

    #[test]
    fn host_schedule_matches_simple_shapes() {
        // 1 node × 1 core: serial sum.
        let (span, crit, _) = host_schedule(&[1.0, 2.0, 3.0], 1, 1, 16);
        assert!((span - 6.0).abs() < 1e-6);
        assert_eq!(crit, Some(2));
        // Enough slots everywhere: max.
        let (span, crit, _) = host_schedule(&[1.0, 2.0, 3.0], 1, 8, 16);
        assert!((span - 3.0).abs() < 1e-6);
        assert_eq!(crit, Some(2));
        assert_eq!(host_schedule(&[], 4, 4, 16), (0.0, None, 0));
    }

    #[test]
    fn host_schedule_cannot_steal_across_nodes() {
        // 2 nodes × 1 core; node 0 owns tasks 0 and 2 (3 s + 3 s), node 1
        // owns task 1 (1 s). LPT on 2 global cores balances to 4 s; the
        // per-host schedule cannot move task 2 to the idle node: 6 s.
        let d = [3.0, 1.0, 3.0];
        assert!((makespan(&d, 2) - 4.0).abs() < 1e-12);
        let (span, crit, _) = host_schedule(&d, 2, 1, 16);
        assert!((span - 6.0).abs() < 1e-6, "got {span}");
        assert_eq!(crit, Some(2));
    }

    #[test]
    fn host_schedule_is_deterministic_under_ties() {
        let d = vec![2.0; 12];
        let a = host_schedule(&d, 4, 2, 32);
        let b = host_schedule(&d, 4, 2, 32);
        assert_eq!(a, b);
        // 12 equal tasks over 4 nodes × 2 slots: 3 per node on 2 slots →
        // two waves → 4 s.
        assert!((a.0 - 4.0).abs() < 1e-6, "got {}", a.0);
        assert!(a.2 >= 12, "every completion is an event");
    }
}
