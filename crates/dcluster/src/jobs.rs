//! Job-level scheduling: admitting a queue of tenant-submitted fit jobs
//! onto one shared cluster's core pool through the discrete-event queue.
//!
//! The scheduler is deliberately *above* the stage scheduler: a job here
//! is an opaque `(cores, runtime)` reservation whose internal stages run
//! through [`crate::SimCluster`] once the job is dispatched. Everything
//! in this module is pure — virtual times come in through [`JobSpec`],
//! flow through the integer-nanosecond [`EventQueue`], and come back out
//! as [`JobRecord`]s, so the schedule is bitwise identical on every
//! machine, host-pool size and run (the determinism contract the serving
//! subsystem inherits).
//!
//! Two policies are modeled, selected via
//! [`crate::ClusterConfig::scheduler`]:
//!
//! * **FIFO** — strict arrival order with head-of-line blocking: if the
//!   head job does not fit in the free cores, nothing behind it runs.
//! * **Fair-share** — weighted max-min across tenants: the tenant with
//!   the smallest accumulated `usage / weight` ratio dispatches next
//!   (usage is charged as `cores x runtime` at dispatch). A flood from
//!   one tenant can no longer starve the others, which is exactly the
//!   p99-wait gap `bench_serving` measures.
//!
//! Admission control is a bounded pending queue: an arrival that finds
//! the queue at `admission_queue_capacity` is rejected, counted, and
//! never runs — deterministically, because arrivals order through the
//! event queue's `(time, seq)` key.

use crate::events::{ns_to_secs, secs_to_ns, EventQueue, SimNanos};

/// Which job-level scheduling policy admits pending jobs onto the
/// cluster's core pool.
///
/// Like [`crate::TimingModel`], the policy moves only *when* jobs run:
/// each job's fitted model is computed by the same deterministic fit and
/// is bitwise identical under every policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerPolicy {
    /// Strict arrival order with head-of-line blocking (the default).
    Fifo,
    /// Weighted fair share across tenants.
    FairShare,
}

impl SchedulerPolicy {
    /// Parses the CLI spelling (`fifo` | `fair-share`).
    pub fn parse(s: &str) -> Option<SchedulerPolicy> {
        match s.trim().to_ascii_lowercase().as_str() {
            "fifo" => Some(SchedulerPolicy::Fifo),
            "fair" | "fairshare" | "fair-share" | "fair_share" => Some(SchedulerPolicy::FairShare),
            _ => None,
        }
    }

    /// Canonical lowercase label (fingerprints, reports, JSON).
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerPolicy::Fifo => "fifo",
            SchedulerPolicy::FairShare => "fair-share",
        }
    }

    /// All policies, in a stable order (test matrices, reports).
    pub fn all() -> [SchedulerPolicy; 2] {
        [SchedulerPolicy::Fifo, SchedulerPolicy::FairShare]
    }
}

impl Default for SchedulerPolicy {
    fn default() -> Self {
        SchedulerPolicy::Fifo
    }
}

impl std::fmt::Display for SchedulerPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One job submitted to the scheduler: an opaque core reservation with a
/// modeled runtime. `submit_secs` and `runtime_secs` are *virtual*
/// seconds — the caller models them from shapes and config, never from
/// host clocks.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Unique job id (also the DFS namespace key, see `Dfs::register_job`).
    pub id: String,
    /// Owning tenant index (keys `fair_share_weights`).
    pub tenant: usize,
    /// Virtual submission time.
    pub submit_secs: f64,
    /// Cores the job occupies while running.
    pub cores: usize,
    /// Modeled virtual runtime once dispatched.
    pub runtime_secs: f64,
}

/// The scheduler's verdict on one admitted job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job id, copied from the spec.
    pub id: String,
    /// Owning tenant index.
    pub tenant: usize,
    /// Virtual submission time.
    pub submit_secs: f64,
    /// Virtual dispatch time.
    pub start_secs: f64,
    /// Virtual completion time.
    pub finish_secs: f64,
    /// Cores occupied while running.
    pub cores: usize,
}

impl JobRecord {
    /// Queueing delay: dispatch minus submission.
    pub fn wait_secs(&self) -> f64 {
        self.start_secs - self.submit_secs
    }

    /// Service time: completion minus dispatch.
    pub fn run_secs(&self) -> f64 {
        self.finish_secs - self.start_secs
    }
}

/// Everything `schedule_jobs` decides, in deterministic order.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleOutcome {
    /// One record per *admitted* job, in input order.
    pub records: Vec<JobRecord>,
    /// Job ids in dispatch order (the event-trace structure the
    /// determinism tests compare across policies and worker counts).
    pub start_order: Vec<String>,
    /// Job ids rejected by admission control (queue full at arrival) or
    /// because they can never fit the cluster, in arrival order.
    pub rejected: Vec<String>,
    /// Heap operations the event queue performed.
    pub events_processed: u64,
    /// Virtual completion time of the last job.
    pub makespan_secs: f64,
}

/// Scheduler event payloads: a job arriving at the pending queue or a
/// running job releasing its cores.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrive(usize),
    Finish(usize),
}

/// Runs the full job queue to completion under `policy` and returns the
/// resulting schedule. `weights` is indexed by tenant (missing tenants
/// weigh 1.0); `queue_capacity` bounds the pending queue for admission
/// control. Jobs asking for more than `total_cores` are rejected at
/// arrival — they could never run and would deadlock the queue.
pub fn schedule_jobs(
    jobs: &[JobSpec],
    weights: &[f64],
    total_cores: usize,
    policy: SchedulerPolicy,
    queue_capacity: usize,
) -> ScheduleOutcome {
    assert!(total_cores > 0, "scheduler needs at least one core");
    assert!(queue_capacity > 0, "admission queue capacity must be >= 1");

    let mut queue: EventQueue<Ev> = EventQueue::with_capacity(jobs.len() * 2 + 1);
    for (idx, job) in jobs.iter().enumerate() {
        queue.push(secs_to_ns(job.submit_secs), Ev::Arrive(idx));
    }

    let tenants = jobs.iter().map(|j| j.tenant + 1).max().unwrap_or(1);
    let mut usage = vec![0.0_f64; tenants];
    let mut pending: Vec<usize> = Vec::new(); // job indices, arrival order
    let mut free = total_cores;
    let mut starts: Vec<Option<SimNanos>> = vec![None; jobs.len()];
    let mut finishes: Vec<Option<SimNanos>> = vec![None; jobs.len()];
    let mut start_order: Vec<String> = Vec::new();
    let mut rejected: Vec<String> = Vec::new();
    let mut makespan_ns: SimNanos = 0;

    while let Some(ev) = queue.pop() {
        let now = ev.time_ns;
        match ev.payload {
            Ev::Arrive(idx) => {
                if jobs[idx].cores > total_cores {
                    rejected.push(jobs[idx].id.clone());
                } else if pending.len() >= queue_capacity {
                    rejected.push(jobs[idx].id.clone());
                } else {
                    pending.push(idx);
                }
            }
            Ev::Finish(idx) => {
                free += jobs[idx].cores;
                finishes[idx] = Some(now);
                makespan_ns = makespan_ns.max(now);
            }
        }
        dispatch(
            policy,
            jobs,
            weights,
            &mut pending,
            &mut free,
            &mut usage,
            &mut starts,
            &mut start_order,
            &mut queue,
            now,
        );
    }

    let mut records = Vec::new();
    for (idx, job) in jobs.iter().enumerate() {
        let (Some(s), Some(f)) = (starts[idx], finishes[idx]) else { continue };
        records.push(JobRecord {
            id: job.id.clone(),
            tenant: job.tenant,
            submit_secs: job.submit_secs,
            start_secs: ns_to_secs(s),
            finish_secs: ns_to_secs(f),
            cores: job.cores,
        });
    }
    ScheduleOutcome {
        records,
        start_order,
        rejected,
        events_processed: queue.processed(),
        makespan_secs: ns_to_secs(makespan_ns),
    }
}

/// Starts every pending job the policy allows at virtual time `now`.
#[allow(clippy::too_many_arguments)]
fn dispatch(
    policy: SchedulerPolicy,
    jobs: &[JobSpec],
    weights: &[f64],
    pending: &mut Vec<usize>,
    free: &mut usize,
    usage: &mut [f64],
    starts: &mut [Option<SimNanos>],
    start_order: &mut Vec<String>,
    queue: &mut EventQueue<Ev>,
    now: SimNanos,
) {
    let mut start = |idx: usize, pending: &mut Vec<usize>, free: &mut usize, usage: &mut [f64]| {
        let job = &jobs[idx];
        *free -= job.cores;
        usage[job.tenant] += job.cores as f64 * job.runtime_secs;
        starts[idx] = Some(now);
        start_order.push(job.id.clone());
        let finish_ns = now.saturating_add(secs_to_ns(job.runtime_secs));
        queue.push(finish_ns, Ev::Finish(idx));
        pending.retain(|&p| p != idx);
    };

    match policy {
        SchedulerPolicy::Fifo => {
            while let Some(&head) = pending.first() {
                if jobs[head].cores > *free {
                    break;
                }
                start(head, pending, free, usage);
            }
        }
        SchedulerPolicy::FairShare => loop {
            // Pick the tenant with the smallest weighted service so far
            // among tenants with pending work; ties break on the lower
            // tenant index so the choice is total and deterministic.
            let mut best: Option<(f64, usize, usize)> = None; // (share, tenant, job idx)
            for &idx in pending.iter() {
                let t = jobs[idx].tenant;
                let w = weights.get(t).copied().unwrap_or(1.0);
                let share = usage[t] / w;
                match best {
                    Some((s, bt, _)) if (s, bt) <= (share, t) => {}
                    _ => best = Some((share, t, idx)),
                }
            }
            // pending is in arrival order, so the first hit for the
            // winning tenant is its earliest job.
            let Some((_, _, idx)) = best else { break };
            if jobs[idx].cores > *free {
                break; // strict: the entitled tenant blocks the pool
            }
            start(idx, pending, free, usage);
        },
    }
}

/// Exact nearest-rank percentile of a *sorted* slice (`p` in [0, 100]).
/// Returns 0.0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: &str, tenant: usize, submit: f64, cores: usize, runtime: f64) -> JobSpec {
        JobSpec {
            id: id.into(),
            tenant,
            submit_secs: submit,
            cores,
            runtime_secs: runtime,
        }
    }

    #[test]
    fn policy_parse_and_labels() {
        assert_eq!(SchedulerPolicy::parse("fifo"), Some(SchedulerPolicy::Fifo));
        assert_eq!(SchedulerPolicy::parse("Fair-Share"), Some(SchedulerPolicy::FairShare));
        assert_eq!(SchedulerPolicy::parse("fairshare"), Some(SchedulerPolicy::FairShare));
        assert_eq!(SchedulerPolicy::parse("bogus"), None);
        assert_eq!(SchedulerPolicy::default().label(), "fifo");
        assert_eq!(SchedulerPolicy::FairShare.to_string(), "fair-share");
    }

    #[test]
    fn fifo_runs_in_arrival_order_with_head_of_line_blocking() {
        // Job b (8 cores) blocks job c (1 core) even though c would fit.
        let jobs = vec![
            job("a", 0, 0.0, 4, 10.0),
            job("b", 0, 1.0, 8, 10.0),
            job("c", 1, 2.0, 1, 1.0),
        ];
        let out = schedule_jobs(&jobs, &[1.0], 8, SchedulerPolicy::Fifo, 16);
        assert_eq!(out.start_order, ["a", "b", "c"]);
        assert!(out.rejected.is_empty());
        let c = out.records.iter().find(|r| r.id == "c").unwrap();
        assert!(c.start_secs >= 20.0, "c must wait behind b: {}", c.start_secs);
    }

    #[test]
    fn fair_share_interleaves_a_flooding_tenant() {
        // Tenant 0 floods 6 jobs at t=0; tenant 1 submits one job just
        // after. Under FIFO it waits behind the whole flood; under
        // fair-share it runs as soon as the first flood job finishes.
        let mut jobs: Vec<JobSpec> =
            (0..6).map(|i| job(&format!("f{i}"), 0, 0.0, 8, 10.0)).collect();
        jobs.push(job("light", 1, 0.5, 8, 1.0));
        let fifo = schedule_jobs(&jobs, &[1.0, 1.0], 8, SchedulerPolicy::Fifo, 16);
        let fair = schedule_jobs(&jobs, &[1.0, 1.0], 8, SchedulerPolicy::FairShare, 16);
        let w = |out: &ScheduleOutcome| {
            out.records.iter().find(|r| r.id == "light").unwrap().wait_secs()
        };
        assert!(
            w(&fair) < w(&fifo),
            "fair-share wait {} must beat FIFO wait {}",
            w(&fair),
            w(&fifo)
        );
        assert_eq!(fair.records.len(), jobs.len());
    }

    #[test]
    fn fair_share_respects_weights() {
        // Two tenants trade 1-core jobs; tenant 1 has 3x the weight so
        // it should accumulate ~3x the service in any prefix.
        let mut jobs = Vec::new();
        for i in 0..8 {
            jobs.push(job(&format!("a{i}"), 0, 0.0, 8, 1.0));
            jobs.push(job(&format!("b{i}"), 1, 0.0, 8, 1.0));
        }
        let out = schedule_jobs(&jobs, &[1.0, 3.0], 8, SchedulerPolicy::FairShare, 32);
        // In the first 4 dispatches, tenant 1 should get 3 slots.
        let heavy = out.start_order[..4].iter().filter(|id| id.starts_with('b')).count();
        assert_eq!(heavy, 3, "weighted tenant gets 3 of the first 4 slots: {:?}", out.start_order);
    }

    #[test]
    fn admission_control_rejects_deterministically() {
        // Capacity 2: with an 8-core job running, arrivals 3.. find the
        // queue full and bounce.
        let mut jobs = vec![job("run", 0, 0.0, 8, 100.0)];
        for i in 0..5 {
            jobs.push(job(&format!("q{i}"), 0, 1.0 + i as f64 * 0.001, 8, 1.0));
        }
        let out = schedule_jobs(&jobs, &[1.0], 8, SchedulerPolicy::Fifo, 2);
        assert_eq!(out.rejected, ["q2", "q3", "q4"]);
        assert_eq!(out.records.len(), 3, "run + q0 + q1 complete");
    }

    #[test]
    fn oversized_jobs_are_rejected_not_deadlocked() {
        let jobs = vec![job("huge", 0, 0.0, 9, 1.0), job("ok", 0, 0.0, 8, 1.0)];
        let out = schedule_jobs(&jobs, &[1.0], 8, SchedulerPolicy::Fifo, 4);
        assert_eq!(out.rejected, ["huge"]);
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.makespan_secs, 1.0);
    }

    #[test]
    fn schedules_are_bitwise_repeatable() {
        let jobs: Vec<JobSpec> = (0..40)
            .map(|i| {
                job(
                    &format!("j{i}"),
                    i % 3,
                    (i as f64) * 0.37,
                    1 + (i * 7) % 8,
                    0.5 + (i % 5) as f64,
                )
            })
            .collect();
        for policy in SchedulerPolicy::all() {
            let a = schedule_jobs(&jobs, &[1.0, 2.0, 4.0], 16, policy, 64);
            let b = schedule_jobs(&jobs, &[1.0, 2.0, 4.0], 16, policy, 64);
            assert_eq!(a, b, "{policy} schedule must be deterministic");
            assert_eq!(
                a.records.len() + a.rejected.len(),
                jobs.len(),
                "{policy}: every job is either admitted+finished or rejected"
            );
        }
    }

    #[test]
    fn percentile_is_exact_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
