//! The benchmark's vocabulary: every workload and every metric name, with
//! unit, direction and regression rule. `BENCHMARK.json` at the repo root
//! lists exactly these names (a test holds the two together); every later
//! performance claim in this repo is made in them.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where a metric is measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Level {
    /// Something a user of the system sees. `bound` is the relative
    /// worsening allowed before it counts as a regression.
    ///
    /// Metrics with a bound are defined and never zero on all six
    /// workloads and vary little from seed to seed; they form
    /// `BENCHMARK.json`'s `end_to_end` list and are what `--trace 0`
    /// prints. The others exist on one workload only, are zero when all
    /// is well, or (the reconstruction error) differ from seed to seed by
    /// more than any bound that list allows; they ride in `per_layer`,
    /// print with `--trace 1`, and are held exact on one seed by
    /// `compare`.
    EndToEnd { bound: Option<f64> },
    /// A single layer's meter or replay timing.
    Layer,
}

/// One metric of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`; a layer metric starts with its module.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end or per-layer.
    pub level: Level,
    /// The value is a pure function of seed and code — no host clock in
    /// it — so two runs of one commit on one seed must agree exactly and
    /// `compare` treats any difference as a failure.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64, exact: bool) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        level: Level::EndToEnd { bound: Some(bound) },
        exact,
    }
}

const fn e2e_partial(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        level: Level::EndToEnd { bound: None },
        exact: true,
    }
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        level: Level::Layer,
        exact: false,
    }
}

const fn meter(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        level: Level::Layer,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Every metric, in print order. Two things set the bounds. The
/// acceptance rule compares runs on *different* seeds, whose inputs
/// differ, so the byte metrics get 1 % where one seed repeats them to the
/// last digit (`exact`). And the sandbox the benchmark was defined on
/// changes speed under it — whole minutes run 30 % slower than the
/// minutes before, on every workload alike — so every metric with host
/// time in it gets the widest bound the contract allows (see README,
/// "Noise").
pub const METRICS: &[Metric] = &[
    e2e("setup_s", "s", 0.25, false),
    e2e("host_s", "s", 0.25, false),
    e2e("virtual_s", "s", 0.25, false),
    e2e("intermediate_bytes", "bytes", 0.01, true),
    e2e("driver_peak_bytes", "bytes", 0.01, true),
    e2e("peak_rss_mb", "MiB", 0.25, false),
    e2e_partial("final_error", "ratio"),
    e2e_partial("failed_share", "ratio"),
    e2e_partial("serve_p50_virtual_s", "s"),
    e2e_partial("serve_p99_virtual_s", "s"),
    e2e_partial("serve_rejected_share", "ratio"),
    host("linalg.kernels.busy_s", "s", Lower),
    meter("linalg.kernels.flops", "count", Lower),
    host("linalg.kernels.gflops", "Gflop/s", Higher),
    host("core.mean_prop.busy_s", "s", Lower),
    host("core.mean_prop.self_s", "s", Lower),
    host("linalg.wire.size_s", "s", Lower),
    host("linalg.wire.encode_s", "s", Lower),
    host("linalg.wire.decode_s", "s", Lower),
    meter("linalg.wire.bytes", "bytes", Lower),
    host("linalg.decomp.busy_s", "s", Lower),
    host("sparkle.engine_s", "s", Lower),
    host("mapreduce.engine_s", "s", Lower),
    host("dcluster.hdfs.io_s", "s", Lower),
    host("dcluster.stage.dispatch_s", "s", Lower),
    host("dcluster.netsim.solve_s", "s", Lower),
    host("dcluster.events.queue_events_per_host_s", "1/s", Higher),
    meter("dcluster.netsim.events", "count", Lower),
    meter("dcluster.netsim.resolves", "count", Lower),
    meter("dcluster.netsim.peak_link_util", "ratio", Lower),
    host("dcluster.netsim.events_per_host_s", "1/s", Higher),
    meter("dcluster.network_bytes", "bytes", Lower),
    meter("dcluster.dfs_bytes_written", "bytes", Lower),
    meter("dcluster.dfs_bytes_read", "bytes", Lower),
    meter("dcluster.stages", "count", Lower),
    meter("dcluster.tasks", "count", Lower),
    meter("dcluster.clock_violations", "count", Lower),
    // Per-category virtual µs are cut from a clock that also carries
    // measured task time, so even the byte-driven ones round ±1 µs
    // differently from run to run: not exact.
    host("dcluster.virtual_cpu_us", "us", Lower),
    host("dcluster.virtual_scheduler_us", "us", Lower),
    host("dcluster.virtual_network_us", "us", Lower),
    host("dcluster.virtual_disk_us", "us", Lower),
    host("dcluster.virtual_recovery_us", "us", Lower),
    host("dcluster.task_cpu_s", "s", Lower),
    meter("core.passes", "count", Lower),
    host("dcluster.jobs.schedule_s", "s", Lower),
    meter("dcluster.jobs.light_wait_p99_virtual_s", "s", Lower),
    meter("dcluster.jobs.makespan_virtual_s", "s", Lower),
    host("core.serving.transform_s", "s", Lower),
    meter("core.serving.requests", "count", Higher),
    meter("core.serving.events", "count", Lower),
    meter("core.serving.cache_hit_rate", "ratio", Higher),
    meter("core.serving.model_broadcasts", "count", Lower),
    host("obs.overhead_share", "ratio", Lower),
    host("bench.replay_cover_share", "ratio", Higher),
    host("bench.host_cold_s", "s", Lower),
    host("bench.host_min_s", "s", Lower),
    host("bench.host_max_s", "s", Lower),
    meter("bench.host_samples", "count", Higher),
];

/// Looks a metric up by name.
pub fn metric(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

/// Metrics printed with `--trace 0` (`BENCHMARK.json`'s `end_to_end`).
pub fn end_to_end() -> impl Iterator<Item = &'static Metric> {
    METRICS
        .iter()
        .filter(|m| matches!(m.level, Level::EndToEnd { bound: Some(_) }))
}

/// Metrics printed with `--trace 1` (`BENCHMARK.json`'s `per_layer`).
pub fn per_layer() -> impl Iterator<Item = &'static Metric> {
    METRICS
        .iter()
        .filter(|m| !matches!(m.level, Level::EndToEnd { bound: Some(_) }))
}

/// The six workloads, in run order, each with the one-line reason it
/// exists (`BENCHMARK.json` carries the same lines).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "em_spark_sparse",
        "paper headline shape: hyper-sparse 100000x10000 EM on sparkle; kernels are ~40% of host time, bytes rule virtual time",
    ),
    (
        "em_mr_sparse",
        "same matrix through fit_mapreduce: combiner, composite-key shuffle, DFS bytes and per-job overheads do work only here",
    ),
    (
        "em_spark_dense",
        "dense 12000x1000 rows on EC2-like links: kernel-bound in host and virtual time, codec and engine are noise",
    ),
    (
        "rpca_spark_sparse",
        "randomized arm on the sparse matrix: few fat passes, driver-side linalg::decomp dominates, EM changes do not show",
    ),
    (
        "sim_contended_1000n",
        "1000 nodes, 2001 partitions, contended timing: simulator-bound, kernels idle; virtual numbers must not move",
    ),
    (
        "serve_fair_128n",
        "read side of a model: fair-share job admission, serving event loop, per-node LRU cache, 1.04M row transforms",
    ),
];
