//! Versioned machine-readable run ledger.
//!
//! A [`RunLedger`] is the durable record of one tool invocation: the
//! config fingerprint of every fit it performed (engine, codec, fault
//! plan, cluster shape), per-pass convergence telemetry (the `em.*` /
//! `rpca.*` `error` and `objective`), the
//! critical-path category attribution, the bytes-moved totals, and a full
//! [`RegistrySnapshot`] — everything `perf_gate` needs to decide whether a
//! commit regressed the system, in one JSON file (`RUN_*.json`).
//!
//! Producers don't build ledgers by hand: a **sink** is installed
//! process-wide (like the trace [`crate::Collector`]), `spca_core`'s pass
//! loop — one loop for the EM and the randomized arm — appends a
//! [`RunRecord`] per fit when one is active, and the owning harness drains
//! it into a [`RunLedger`] at exit. The JSON is written by a deterministic
//! std-only writer (object keys in fixed order, non-finite floats
//! stringified) and always passes [`crate::json::validate`].

use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::critpath::CATEGORIES;
use crate::export::{escape_into, push_f64};
use crate::registry::RegistrySnapshot;

/// Schema version of the emitted JSON. Bump on any breaking layout change;
/// `perf_gate` refuses to diff ledgers of different versions.
pub const LEDGER_VERSION: u64 = 1;

/// One EM iteration's telemetry row.
#[derive(Debug, Clone, Default)]
pub struct IterationRow {
    /// 1-based iteration number.
    pub iteration: u64,
    /// Reconstruction error `1 - cos(C_new, C_old)` proxy (`em.error`).
    pub error: f64,
    /// Objective proxy (`em.objective`).
    pub objective: f64,
    /// Cluster clock at the end of the iteration, seconds.
    pub virtual_secs: f64,
    /// Per-category virtual µs spent in this iteration, indexed like
    /// [`CATEGORIES`].
    pub cat_us: [u64; 5],
}

/// Ledger record of one fit.
#[derive(Debug, Clone, Default)]
pub struct RunRecord {
    /// Engine label, e.g. `"sPCA-Spark"`.
    pub label: String,
    /// Config fingerprint as ordered key/value pairs (engine, codec, fault
    /// plan, cluster shape, seeds).
    pub config: Vec<(String, String)>,
    /// Content hash of the fitted model (hex string — kept out of JSON
    /// number space so no f64 rounding can corrupt it).
    pub model_hash: String,
    /// Iterations executed.
    pub iterations_run: u64,
    /// Final reconstruction error.
    pub final_error: f64,
    /// Total virtual time of the fit, seconds.
    pub virtual_time_secs: f64,
    /// Bytes-moved totals as ordered key/value pairs (network, dfs read /
    /// written, intermediate).
    pub bytes: Vec<(String, u64)>,
    /// Whole-run per-category attribution, µs, indexed like [`CATEGORIES`].
    pub attribution_us: [u64; 5],
    /// Backwards/NaN clock steps dropped by the cluster during this fit.
    pub clock_violations: u64,
    /// The cluster's full metrics registry at the end of the fit.
    pub registry: RegistrySnapshot,
    /// Per-iteration telemetry.
    pub iterations: Vec<IterationRow>,
}

/// A complete run ledger: every fit the tool performed plus collector-level
/// integrity counters.
#[derive(Debug, Clone, Default)]
pub struct RunLedger {
    /// Producing binary, e.g. `"bench_em"` or `"spca-cli"`.
    pub tool: String,
    /// Fit records in execution order.
    pub runs: Vec<RunRecord>,
    /// Trace events dropped at the collector's capacity bound. Non-zero
    /// means the trace (and any attribution derived from it) is truncated.
    pub dropped_events: u64,
    /// Span-nesting violations observed by the collector.
    pub nesting_violations: u64,
    /// The installed collector's own registry (kernel FLOPs, pool depth).
    pub collector_registry: RegistrySnapshot,
}

// ---------------------------------------------------------------------------
// Global sink
// ---------------------------------------------------------------------------

fn sink_slot() -> &'static Mutex<Option<Vec<RunRecord>>> {
    static SLOT: OnceLock<Mutex<Option<Vec<RunRecord>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

fn lock_sink() -> MutexGuard<'static, Option<Vec<RunRecord>>> {
    sink_slot().lock().unwrap_or_else(|e| e.into_inner())
}

/// Starts collecting [`RunRecord`]s process-wide. Replaces (discards) any
/// records a previously installed sink had accumulated.
pub fn install_sink() {
    *lock_sink() = Some(Vec::new());
}

/// True when a sink is installed — producers skip record construction
/// entirely otherwise, keeping fits ledger-free by default.
pub fn sink_enabled() -> bool {
    lock_sink().is_some()
}

/// Appends a record to the installed sink; a no-op without one.
pub fn record_run(record: RunRecord) {
    if let Some(records) = lock_sink().as_mut() {
        records.push(record);
    }
}

/// Removes the sink and returns everything it accumulated.
pub fn drain_sink() -> Vec<RunRecord> {
    lock_sink().take().unwrap_or_default()
}

// ---------------------------------------------------------------------------
// JSON writer
// ---------------------------------------------------------------------------

fn push_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

fn push_key(out: &mut String, first: &mut bool, key: &str) {
    if !*first {
        out.push(',');
    }
    *first = false;
    push_str(out, key);
    out.push(':');
}

fn push_registry(out: &mut String, snap: &RegistrySnapshot) {
    out.push('{');
    let mut first = true;
    push_key(out, &mut first, "counters");
    out.push('{');
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str(out, name);
        out.push_str(&format!(":{v}"));
    }
    out.push('}');
    push_key(out, &mut first, "gauges");
    out.push('{');
    for (i, (name, v)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str(out, name);
        out.push(':');
        push_f64(out, *v);
    }
    out.push('}');
    push_key(out, &mut first, "histograms");
    out.push('{');
    for (i, (name, count, mean, p50, p99)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str(out, name);
        out.push_str(&format!(":{{\"count\":{count},\"mean\":"));
        push_f64(out, *mean);
        out.push_str(",\"p50\":");
        push_f64(out, *p50);
        out.push_str(",\"p99\":");
        push_f64(out, *p99);
        out.push('}');
    }
    out.push('}');
    out.push('}');
}

fn push_attribution(out: &mut String, cat_us: &[u64; 5]) {
    out.push('{');
    for (i, label) in CATEGORIES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{label}_us\":{}", cat_us[i]));
    }
    out.push('}');
}

fn push_run(out: &mut String, run: &RunRecord) {
    out.push('{');
    let mut first = true;
    push_key(out, &mut first, "label");
    push_str(out, &run.label);
    push_key(out, &mut first, "config");
    out.push('{');
    for (i, (k, v)) in run.config.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str(out, k);
        out.push(':');
        push_str(out, v);
    }
    out.push('}');
    push_key(out, &mut first, "model_hash");
    push_str(out, &run.model_hash);
    push_key(out, &mut first, "iterations_run");
    out.push_str(&run.iterations_run.to_string());
    push_key(out, &mut first, "final_error");
    push_f64(out, run.final_error);
    push_key(out, &mut first, "virtual_time_secs");
    push_f64(out, run.virtual_time_secs);
    push_key(out, &mut first, "bytes");
    out.push('{');
    for (i, (k, v)) in run.bytes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str(out, k);
        out.push_str(&format!(":{v}"));
    }
    out.push('}');
    push_key(out, &mut first, "attribution");
    push_attribution(out, &run.attribution_us);
    push_key(out, &mut first, "integrity");
    out.push_str(&format!("{{\"clock_violations\":{}}}", run.clock_violations));
    push_key(out, &mut first, "iterations");
    out.push('[');
    for (i, row) in run.iterations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"iteration\":{},\"error\":", row.iteration));
        push_f64(out, row.error);
        out.push_str(",\"objective\":");
        push_f64(out, row.objective);
        out.push_str(",\"virtual_secs\":");
        push_f64(out, row.virtual_secs);
        out.push_str(",\"attribution\":");
        push_attribution(out, &row.cat_us);
        out.push('}');
    }
    out.push(']');
    push_key(out, &mut first, "registry");
    push_registry(out, &run.registry);
    out.push('}');
}

impl RunLedger {
    /// Serializes the ledger as deterministic JSON (fixed key order,
    /// non-finite floats stringified). The output always passes
    /// [`crate::json::validate`].
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push('{');
        let mut first = true;
        push_key(&mut out, &mut first, "ledger_version");
        out.push_str(&LEDGER_VERSION.to_string());
        push_key(&mut out, &mut first, "tool");
        push_str(&mut out, &self.tool);
        push_key(&mut out, &mut first, "integrity");
        out.push_str(&format!(
            "{{\"dropped_events\":{},\"nesting_violations\":{}}}",
            self.dropped_events, self.nesting_violations
        ));
        push_key(&mut out, &mut first, "collector_registry");
        push_registry(&mut out, &self.collector_registry);
        push_key(&mut out, &mut first, "runs");
        out.push('[');
        for (i, run) in self.runs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_run(&mut out, run);
        }
        out.push(']');
        out.push('}');
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_ledger() -> RunLedger {
        let mut reg = RegistrySnapshot::default();
        reg.counters.push(("cluster.network_bytes".into(), 1234));
        reg.gauges.push(("stage.util".into(), 0.75));
        reg.histograms.push(("stage.secs".into(), 3, 1.5, 2.0, 4.0));
        RunLedger {
            tool: "bench_em".into(),
            dropped_events: 0,
            nesting_violations: 0,
            collector_registry: RegistrySnapshot::default(),
            runs: vec![RunRecord {
                label: "sPCA-Spark".into(),
                config: vec![("engine".into(), "spark".into()), ("seed".into(), "7".into())],
                model_hash: "0x1f2e3d4c5b6a7988".into(),
                iterations_run: 2,
                final_error: 0.125,
                virtual_time_secs: 12.5,
                bytes: vec![("network".into(), 100), ("dfs_written".into(), 50)],
                attribution_us: [7, 1, 2, 3, 0],
                clock_violations: 0,
                registry: reg,
                iterations: vec![IterationRow {
                    iteration: 1,
                    error: 0.5,
                    objective: f64::NAN,
                    virtual_secs: 6.0,
                    cat_us: [4, 0, 1, 1, 0],
                }],
            }],
        }
    }

    #[test]
    fn ledger_json_is_valid_and_versioned() {
        let json_text = sample_ledger().to_json();
        json::validate(&json_text).expect("ledger must serialize to valid JSON");
        let dom = json::parse(&json_text).unwrap();
        assert_eq!(
            dom.get("ledger_version").and_then(json::Json::as_num),
            Some(LEDGER_VERSION as f64)
        );
        let runs = match dom.get("runs") {
            Some(json::Json::Arr(rs)) => rs,
            other => panic!("runs: {other:?}"),
        };
        let run = &runs[0];
        assert_eq!(run.get("model_hash").and_then(json::Json::as_str), Some("0x1f2e3d4c5b6a7988"));
        assert_eq!(run.get("config").and_then(|c| c.get("engine")).and_then(json::Json::as_str), Some("spark"));
        // A NaN objective serialized as a string, not a bare literal.
        assert!(json_text.contains("\"objective\":\"NaN\""), "{json_text}");
        let attr = run.get("attribution").unwrap();
        assert_eq!(attr.get("cpu_us").and_then(json::Json::as_num), Some(7.0));
    }

    #[test]
    fn sink_collects_and_drains() {
        // The sink is process-global; this test owns it end to end.
        install_sink();
        assert!(sink_enabled());
        record_run(RunRecord { label: "a".into(), ..RunRecord::default() });
        record_run(RunRecord { label: "b".into(), ..RunRecord::default() });
        let runs = drain_sink();
        assert_eq!(runs.iter().map(|r| r.label.as_str()).collect::<Vec<_>>(), vec!["a", "b"]);
        assert!(!sink_enabled());
        record_run(RunRecord::default());
        assert!(drain_sink().is_empty(), "records without a sink are dropped");
    }
}
