//! The `run` subcommand: the protocol around one workload, and the
//! one-child-per-workload driver around all six.
//!
//! Per workload, closed loop, one client: set-up (inputs from the seed,
//! cluster config, one untimed warm-up operation that fills
//! `linalg::scratch` and faults pages) → timed operations with tracing
//! off, each on a fresh `SimCluster` → correctness checks → traced run
//! (the harness's replay spans, then one operation under the `obs`
//! collector) → print. End-to-end metrics never come from the traced
//! run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::replay::replay;
use crate::spans::Recorder;
use crate::spec::{self, Metric, WORKLOADS};
use crate::stats::{median, trimmed_mean};
use crate::workloads::{check, generate, light_wait_p99, operate, Detail, Inputs, Meters, Outcome};

/// Timed operations per workload: never fewer, more only while
/// `--seconds` of measuring have not passed.
pub const MIN_OPERATIONS: usize = 5;
/// Set-ups timed per run (this process's plus fresh child processes'),
/// so `setup_s` is a median of cold set-ups.
const SETUP_SAMPLES: usize = 3;

/// Arguments of `run`.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload and `SpcaConfig` seed.
    pub seed: u64,
    /// One workload, in this process; `None` runs all six, each in its
    /// own child process.
    pub workload: Option<String>,
    /// Directory for `results.json` and `trace-<workload>.json`.
    pub out: PathBuf,
    /// Keep timing operations until this many seconds have passed.
    pub seconds: f64,
    /// `Some(false)`: end-to-end metrics only. `Some(true)`: per-layer
    /// metrics only. `None`: both.
    pub trace: Option<bool>,
}

/// What one workload's run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Operations attempted (timed ones and the traced one).
    pub attempted: u64,
    /// Operations that returned `Err` or failed a check.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// The one-object JSON line a run ends with:
    /// `{"correct":…, "attempted":…, "failed":…, "metrics": {name: {"value":…, "unit":…}}}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = spec::METRICS
            .iter()
            .filter_map(|m| self.values.get(m.name).map(|v| (m, *v)))
            .map(|(m, v)| {
                let v = if v.is_finite() { v } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One set-up: inputs, cluster config, warm-up operation. Returns the
/// inputs, the set-up's seconds, the warm-up's host seconds and any
/// warm-up error.
fn set_up(workload: &str, seed: u64) -> Result<(Inputs, f64, f64, Option<String>), String> {
    let start = Instant::now();
    let inputs =
        generate(workload, seed).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let (cold_s, warm_error) = match operate(&inputs) {
        Ok((_, host_s)) => (host_s, None),
        Err(e) => (0.0, Some(e)),
    };
    Ok((inputs, start.elapsed().as_secs_f64(), cold_s, warm_error))
}

/// The `setup` subcommand's body: one cold set-up in this (fresh)
/// process, its seconds on stdout.
pub fn setup_probe(workload: &str, seed: u64) -> Result<(), String> {
    let (_, setup_s, _, _) = set_up(workload, seed)?;
    println!("{setup_s}");
    Ok(())
}

/// Times one more cold set-up in a fresh child process.
fn child_setup_s(workload: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["setup", "--workload", workload, "--seed", &seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn set-up probe: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up probe exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("set-up probe printed no time: {e}"))
}

fn insert_meters(values: &mut BTreeMap<&'static str, f64>, last: &Outcome, host_s: f64) {
    let m: &Meters = &last.meters;
    let mut put = |name, v| {
        values.insert(name, v);
    };
    put("dcluster.netsim.events", m.engine_events as f64);
    put("dcluster.netsim.resolves", m.engine_resolves as f64);
    put("dcluster.netsim.peak_link_util", m.peak_link_util);
    put(
        "dcluster.netsim.events_per_host_s",
        m.engine_events as f64 / host_s,
    );
    put("dcluster.network_bytes", m.network_bytes as f64);
    put("dcluster.dfs_bytes_written", m.dfs_bytes_written as f64);
    put("dcluster.dfs_bytes_read", m.dfs_bytes_read as f64);
    put("dcluster.stages", m.stage_tasks.len() as f64);
    put("dcluster.tasks", m.stage_tasks.iter().sum::<usize>() as f64);
    put("dcluster.clock_violations", m.clock_violations as f64);
    put("dcluster.virtual_cpu_us", m.time_us[0] as f64);
    put("dcluster.virtual_scheduler_us", m.time_us[1] as f64);
    put("dcluster.virtual_network_us", m.time_us[2] as f64);
    put("dcluster.virtual_disk_us", m.time_us[3] as f64);
    put("dcluster.virtual_recovery_us", m.time_us[4] as f64);
    put("dcluster.task_cpu_s", m.task_cpu_s);
    put("core.passes", last.passes as f64);
    if let Detail::Serve(out) = &last.detail {
        let lookups: u64 = out
            .tenants
            .iter()
            .map(|t| t.cache_hits + t.cache_misses)
            .sum();
        let hits: u64 = out.tenants.iter().map(|t| t.cache_hits).sum();
        put("serve_p50_virtual_s", out.latency_p50_secs);
        put("serve_p99_virtual_s", out.latency_p99_secs);
        put(
            "serve_rejected_share",
            out.rejected_total as f64 / (out.batches_total + out.rejected_total).max(1) as f64,
        );
        put(
            "dcluster.jobs.light_wait_p99_virtual_s",
            light_wait_p99(out),
        );
        put(
            "dcluster.jobs.makespan_virtual_s",
            out.schedule.makespan_secs,
        );
        put("core.serving.requests", out.requests_total as f64);
        put("core.serving.events", out.events_processed as f64);
        put(
            "core.serving.cache_hit_rate",
            hits as f64 / lookups.max(1) as f64,
        );
        put("core.serving.model_broadcasts", out.broadcasts as f64);
    }
}

/// Runs one workload in this process and prints its metrics.
pub fn run_workload(workload: &'static str, args: &RunArgs) -> Result<Report, String> {
    let (want_e2e, want_layers) = (args.trace != Some(true), args.trace != Some(false));
    let mut failures: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // -- Set-up, timed here and (for `setup_s`) in fresh processes too.
    let (inputs, setup_here, cold_s, warm_error) = set_up(workload, args.seed)?;
    if let Some(e) = warm_error {
        failures.push(format!("warm-up operation: {e}"));
    }
    let mut setups = vec![setup_here];
    if want_e2e {
        for _ in 1..SETUP_SAMPLES {
            setups.push(child_setup_s(workload, args.seed)?);
        }
    }

    // -- Timed operations, tracing off.
    let mut host: Vec<f64> = Vec::new();
    let mut virtuals: Vec<f64> = Vec::new();
    let mut first: Option<(u64, Meters)> = None;
    let mut last: Option<Outcome> = None;
    let measuring = Instant::now();
    while (attempted as usize) < MIN_OPERATIONS
        || (want_e2e && measuring.elapsed().as_secs_f64() < args.seconds)
    {
        attempted += 1;
        match operate(&inputs) {
            Ok((op, host_s)) => {
                let (hash, meters) = first.get_or_insert_with(|| (op.hash, op.meters.clone()));
                let bad = check(&inputs, *hash, meters, &op);
                failed += u64::from(!bad.is_empty());
                failures.extend(
                    bad.into_iter()
                        .map(|b| format!("operation {attempted}: {b}")),
                );
                host.push(host_s);
                virtuals.push(op.virtual_s);
                last = Some(op);
            }
            Err(e) => {
                failed += 1;
                failures.push(format!("operation {attempted}: {e}"));
            }
        }
    }
    let rss_mb = peak_rss_mb();

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut layer_self_times = Vec::new();
    if let Some(last) = &last {
        let host_s = trimmed_mean(&host);
        values.insert("setup_s", median(&setups));
        values.insert("host_s", host_s);
        values.insert("virtual_s", trimmed_mean(&virtuals));
        values.insert("intermediate_bytes", last.intermediate_bytes as f64);
        values.insert("driver_peak_bytes", last.meters.driver_peak_bytes as f64);
        values.insert("final_error", last.final_error);
        values.insert("peak_rss_mb", rss_mb);
        values.insert("bench.host_cold_s", cold_s);
        values.insert(
            "bench.host_min_s",
            host.iter().copied().fold(f64::INFINITY, f64::min),
        );
        values.insert("bench.host_max_s", host.iter().copied().fold(0.0, f64::max));
        values.insert("bench.host_samples", host.len() as f64);
        insert_meters(&mut values, last, host_s);

        // -- Traced run: replay spans, then one operation under `obs`.
        if want_layers {
            let mut rec = Recorder::new(workload);
            match replay(&mut rec, workload, &inputs, last) {
                Ok((layers, self_times)) => {
                    values.extend(layers);
                    let covered_s: f64 = self_times.iter().map(|(_, s)| s).sum();
                    values.insert("bench.replay_cover_share", covered_s / host_s);
                    layer_self_times = self_times;
                }
                Err(e) => failures.push(format!("replay: {e}")),
            }
            write_file(
                &args.out,
                &format!("trace-{workload}.json"),
                &rec.chrome_trace(),
            )?;

            attempted += 1;
            obs::install_new();
            let traced = operate(&inputs);
            obs::uninstall();
            match traced {
                Ok((_, traced_s)) => {
                    values.insert("obs.overhead_share", (traced_s - host_s) / host_s);
                }
                Err(e) => {
                    failed += 1;
                    failures.push(format!("traced operation: {e}"));
                }
            }
        }
    }
    if !failures.is_empty() && failed == 0 {
        // A failure outside any operation (warm-up, replay) still fails
        // the run.
        failed = 1;
    }
    values.insert("failed_share", failed as f64 / attempted.max(1) as f64);

    // Keep what this mode reports, defaulting layer metrics the workload
    // does not have to zero.
    let wanted: Vec<&Metric> = spec::end_to_end()
        .filter(|_| want_e2e)
        .chain(spec::per_layer().filter(|_| want_layers))
        .collect();
    let values: BTreeMap<&'static str, f64> = wanted
        .iter()
        .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0)))
        .collect();

    for m in &wanted {
        println!("{workload} {} {} {}", m.name, values[m.name], m.unit);
    }
    let samples: Vec<String> = host.iter().map(|s| format!("{s:.3}")).collect();
    println!("# {workload} operation host seconds: {}", samples.join(" "));
    for f in &failures {
        println!("# {workload} FAILED {f}");
    }
    if let Some((top, secs)) = layer_self_times.iter().max_by(|a, b| a.1.total_cmp(&b.1)) {
        let all: Vec<String> = layer_self_times
            .iter()
            .map(|(l, s)| format!("{l} {s:.4}"))
            .collect();
        println!("# {workload} layer self times (s): {}", all.join(", "));
        println!("# {workload} largest self time: {top} ({secs:.4} s)");
    }
    Ok(Report {
        attempted,
        failed,
        values,
    })
}

/// Runs all six workloads, each in its own child process (so
/// `peak_rss_mb` is per workload), and writes `results.json`.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut entries = Vec::new();
    let mut all_ok = true;
    for (workload, _) in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "run",
            "--workload",
            workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--out")
        .arg(&args.out)
        .args(["--seconds", &args.seconds.to_string()]);
        if let Some(trace) = args.trace {
            cmd.args(["--trace", if trace { "1" } else { "0" }]);
        }
        let out = cmd
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        all_ok &= out.status.success();
        match stdout.lines().last().filter(|l| l.starts_with('{')) {
            Some(json) => entries.push((*workload, json.to_string())),
            None => {
                return Err(format!(
                    "{workload} printed no result (exit {})",
                    out.status
                ))
            }
        }
    }
    let doc = results_doc(args.seed, &entries);
    obs::json::validate(&doc).map_err(|e| format!("results.json would be invalid: {e}"))?;
    write_file(&args.out, "results.json", &doc)?;
    println!("# wrote {}", args.out.join("results.json").display());
    Ok(all_ok)
}

/// The result file: the seed, the host's parallelism (every host time
/// depends on it) and each workload's final JSON line.
pub fn results_doc(seed: u64, workloads: &[(&str, String)]) -> String {
    let entries: Vec<String> = workloads
        .iter()
        .map(|(name, json)| format!("    \"{name}\": {json}"))
        .collect();
    format!(
        "{{\n  \"seed\": {seed},\n  \"host_parallelism\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        std::thread::available_parallelism().map_or(0, usize::from),
        entries.join(",\n")
    )
}

fn write_file(dir: &Path, name: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    std::fs::write(dir.join(name), text).map_err(|e| format!("write {name} in {dir:?}: {e}"))
}

/// The `run` subcommand. `Ok(true)` when every operation of every
/// workload run was correct.
pub fn run(args: &RunArgs) -> Result<bool, String> {
    let Some(name) = &args.workload else {
        return run_all(args);
    };
    let workload = WORKLOADS
        .iter()
        .map(|(w, _)| *w)
        .find(|w| w == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let report = run_workload(workload, args)?;
    println!("{}", report.to_json());
    Ok(report.failed == 0)
}
