//! The performance regression gate: diff a freshly produced run ledger or
//! benchmark JSON against a committed baseline.
//!
//! Every leaf of both JSON documents is flattened to a dotted path and
//! classified by a tolerance rule:
//!
//! * **exact** — byte counts, record counts, iteration counts, model
//!   hashes, integrity counters, convergence errors. The simulator is
//!   deterministic, so these must match bit for bit; any drift is either
//!   a real behavior change or a broken reproducibility contract.
//! * **band** — virtual-time metrics (`virtual_time_secs`, per-category
//!   `*_us` attribution). Deliberate cost-model changes move these, so
//!   they pass within a configurable relative band and fail beyond it.
//!   µs-unit metrics additionally tolerate a few µs of absolute delta
//!   (integer-µs truncation jitter on near-zero windows).
//! * **ignore** — host wall-clock measurements (`*_mb_per_sec`, kernel
//!   `*_secs` timings, `speedup`), host shape (`pool_workers`, the core
//!   count a bench found), the cpu attribution slot and `*cpu_us`
//!   counters (the one *measured* clock in the simulator — host compute
//!   time in disguise), and histogram shape statistics (mean/p50/p99):
//!   machine-dependent noise with no gate value.
//!
//! A baseline key missing from the fresh document is always a regression
//! — a metric silently vanishing is exactly the failure mode a gate
//! exists to catch. Keys only present in the fresh document are reported
//! but do not fail (new telemetry should not require a same-commit
//! baseline refresh to land).

use obs::json::Json;

/// Absolute slop for µs-unit band metrics: virtual timestamps are
/// truncated to integer µs, so every window boundary carries ±1µs of
/// truncation jitter. A 2µs disk window reading 3µs on the next run is
/// not a regression; a real cost-model change moves µs metrics by orders
/// of magnitude more.
const US_SLOP: f64 = 8.0;

/// How a metric is compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Bit-exact match required.
    Exact,
    /// Relative band: `|fresh - base| <= band * max(|base|, 1e-9)`.
    Band,
    /// Relative band for µs-unit metrics: as [`Rule::Band`], but an
    /// absolute delta within [`US_SLOP`] also passes (truncation jitter
    /// dominates the relative delta of near-zero windows).
    BandUs,
    /// Not compared.
    Ignore,
}

impl Rule {
    fn label(self) -> &'static str {
        match self {
            Rule::Exact => "exact",
            Rule::Band | Rule::BandUs => "band",
            Rule::Ignore => "ignore",
        }
    }
}

/// Classifies a flattened path. Rules are ordered: host-noise patterns
/// win over the time-band patterns (`rowwise_secs` is host time even
/// though it ends in `_secs`).
pub fn classify(path: &str) -> Rule {
    let last = path.rsplit('.').next().unwrap_or(path);
    // Host wall-clock measurements: noise on any shared CI runner. The
    // `per_sec` pattern covers rate gauges and whole rate histograms
    // (including their observation counts — adaptive kernel batching
    // makes even the number of rate samples host-dependent).
    if path.contains("per_sec")
        || path.contains("speedup")
        || path.contains("per_task_ns")
        || last == "secs"
        || last == "rowwise_secs"
        || last == "batched_secs"
        || last == "core_scaling_ratio"
    {
        return Rule::Ignore;
    }
    // Host shape, not a result: the benches record how many pool workers
    // the machine gave them, and a baseline recorded on one core is not a
    // regression on two.
    if last == "pool_workers" {
        return Rule::Ignore;
    }
    // Serving latency histograms are virtual-time quantities, not host
    // noise: their shape statistics get the relative band (a deliberate
    // cost-model change moves them) and their counts stay exact — one
    // lost or duplicated request is a determinism bug, not noise.
    if path.contains("serve") && path.contains("virtual") && path.contains("histograms") {
        return if matches!(last, "mean" | "p50" | "p99") { Rule::Band } else { Rule::Exact };
    }
    // Histogram shape statistics (count stays exact).
    if path.contains("histograms") && matches!(last, "mean" | "p50" | "p99") {
        return Rule::Ignore;
    }
    // The cpu category is the one *measured* (not modeled) clock in the
    // simulator: cpu attribution slots and `*cpu_us` counters are host
    // compute time in disguise, with unbounded relative variance across
    // machines. The other category slots are config-derived and stay
    // banded via the rules below.
    if last.ends_with("cpu_us") || path.ends_with("cat_us.0") || path.ends_with("attribution_us.0")
    {
        return Rule::Ignore;
    }
    // Virtual-time metrics: the quantity the gate actually guards, with
    // room for deliberate cost-model changes.
    if path.contains("attribution") || path.contains("cat_us") || last.ends_with("_us") {
        return Rule::BandUs;
    }
    if path.contains("virtual")
        || last.ends_with("_secs")
        || last == "recovery_overhead"
        || last == "speculation_saving"
    {
        return Rule::Band;
    }
    Rule::Exact
}

fn flatten_into(prefix: &str, v: &Json, out: &mut Vec<(String, Json)>) {
    match v {
        Json::Obj(fields) => {
            for (k, val) in fields {
                let path = if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
                flatten_into(&path, val, out);
            }
        }
        Json::Arr(items) => {
            for (i, val) in items.iter().enumerate() {
                flatten_into(&format!("{prefix}.{i}"), val, out);
            }
        }
        leaf => out.push((prefix.to_string(), leaf.clone())),
    }
}

/// Flattens a JSON document to sorted `(dotted.path, leaf)` pairs.
pub fn flatten(doc: &Json) -> Vec<(String, Json)> {
    let mut out = Vec::new();
    flatten_into("", doc, &mut out);
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

fn fmt_leaf(v: &Json) -> String {
    match v {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => format!("{n}"),
        Json::Str(s) => s.clone(),
        other => format!("{other:?}"),
    }
}

/// One metric that failed its rule.
#[derive(Debug, Clone)]
pub struct Regression {
    /// Dotted path of the metric.
    pub path: String,
    /// Baseline value rendered as text (`<missing>` never occurs here).
    pub baseline: String,
    /// Fresh value rendered as text, or `<missing>`.
    pub fresh: String,
    /// Relative delta for numeric pairs, `None` otherwise.
    pub rel_delta: Option<f64>,
    /// The rule that failed.
    pub rule: Rule,
}

/// Outcome of diffing one fresh document against its baseline.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Metrics compared under exact/band rules.
    pub compared: usize,
    /// Metrics skipped by the ignore rule.
    pub ignored: usize,
    /// Keys present only in the fresh document (informational).
    pub fresh_only: usize,
    /// Every rule failure, in path order.
    pub regressions: Vec<Regression>,
}

impl GateReport {
    /// True when nothing regressed.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Renders the delta table of failures (empty string when passing).
    pub fn render(&self) -> String {
        if self.passed() {
            return String::new();
        }
        let mut out = String::new();
        let mut width = "metric".len();
        for r in &self.regressions {
            width = width.max(r.path.len());
        }
        out.push_str(&format!(
            "{:<width$}  {:>16}  {:>16}  {:>9}  {}\n",
            "metric", "baseline", "fresh", "delta", "rule"
        ));
        for r in &self.regressions {
            let delta = match r.rel_delta {
                Some(d) => format!("{:+.1}%", d * 100.0),
                None => "-".into(),
            };
            out.push_str(&format!(
                "{:<width$}  {:>16}  {:>16}  {:>9}  {}\n",
                r.path,
                truncate(&r.baseline, 16),
                truncate(&r.fresh, 16),
                delta,
                r.rule.label()
            ));
        }
        out
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let head: String = s.chars().take(max - 1).collect();
        format!("{head}…")
    }
}

fn values_match(rule: Rule, base: &Json, fresh: &Json, band: f64) -> (bool, Option<f64>) {
    match (base, fresh) {
        (Json::Num(b), Json::Num(f)) => {
            let rel = if *b == 0.0 && *f == 0.0 {
                0.0
            } else {
                (f - b) / b.abs().max(1e-9)
            };
            let ok = match rule {
                Rule::Exact => b == f,
                Rule::Band => rel.abs() <= band,
                Rule::BandUs => rel.abs() <= band || (f - b).abs() <= US_SLOP,
                Rule::Ignore => true,
            };
            (ok, Some(rel))
        }
        // Non-numeric leaves (strings incl. stringified NaN/inf, bools,
        // nulls) are always compared exactly — a band on a hash or label
        // makes no sense.
        (b, f) => (matches!(rule, Rule::Ignore) || b == f, None),
    }
}

/// Diffs `fresh` against `baseline` under the tolerance rules, with
/// `band` as the relative tolerance for virtual-time metrics.
pub fn compare(baseline: &Json, fresh: &Json, band: f64) -> GateReport {
    let base_flat = flatten(baseline);
    let fresh_flat = flatten(fresh);
    let fresh_map: std::collections::BTreeMap<&str, &Json> =
        fresh_flat.iter().map(|(k, v)| (k.as_str(), v)).collect();
    let base_keys: std::collections::BTreeSet<&str> =
        base_flat.iter().map(|(k, _)| k.as_str()).collect();

    let mut report = GateReport {
        fresh_only: fresh_flat.iter().filter(|(k, _)| !base_keys.contains(k.as_str())).count(),
        ..GateReport::default()
    };
    for (path, base_val) in &base_flat {
        let rule = classify(path);
        if rule == Rule::Ignore {
            report.ignored += 1;
            continue;
        }
        report.compared += 1;
        match fresh_map.get(path.as_str()) {
            None => report.regressions.push(Regression {
                path: path.clone(),
                baseline: fmt_leaf(base_val),
                fresh: "<missing>".into(),
                rel_delta: None,
                rule,
            }),
            Some(fresh_val) => {
                let (ok, rel) = values_match(rule, base_val, fresh_val, band);
                if !ok {
                    report.regressions.push(Regression {
                        path: path.clone(),
                        baseline: fmt_leaf(base_val),
                        fresh: fmt_leaf(fresh_val),
                        rel_delta: rel,
                        rule,
                    });
                }
            }
        }
    }
    report
}

/// Whether the dotted `path` matches `glob`: `*` stands for any run of
/// characters (dots included), `?` for any one.
pub fn glob_match(glob: &str, path: &str) -> bool {
    fn matches(g: &[u8], p: &[u8]) -> bool {
        match g.split_first() {
            None => p.is_empty(),
            Some((b'*', rest)) => (0..=p.len()).any(|i| matches(rest, &p[i..])),
            Some((&c, rest)) => p
                .split_first()
                .is_some_and(|(&q, tail)| (c == b'?' || c == q) && matches(rest, tail)),
        }
    }
    matches(glob.as_bytes(), path.as_bytes())
}

/// A baseline whose gated leaves matching one of `globs` carry the fresh
/// document's text, every other byte kept (ignored leaves too); with the
/// paths that changed.
///
/// Refused, with the gate's delta table, when a leaf matching no glob fails
/// its rule (as [`compare`] judges it under `band`) — a rebaseline moves
/// only what it names — or when a matching leaf has no fresh counterpart;
/// and when a glob matches leaves of `base` but only ignored ones, whose
/// splice would gate nothing.
pub fn rebaseline(
    base: &str,
    fresh: &str,
    globs: &[&str],
    band: f64,
) -> Result<(String, Vec<String>), String> {
    let base_spans = obs::json::leaf_spans(base)?;
    for glob in globs {
        let mut hits = base_spans.iter().map(|(p, _)| p).filter(|p| glob_match(glob, p));
        if let Some(first) = hits.clone().next() {
            if hits.all(|p| classify(p) == Rule::Ignore) {
                return Err(format!(
                    "{glob} matches no gated leaf, only ones the gate ignores ({first} ...)"
                ));
            }
        }
    }
    let named = |path: &str| globs.iter().any(|g| glob_match(g, path));
    let report = compare(&obs::json::parse(base)?, &obs::json::parse(fresh)?, band);
    let regressions: Vec<Regression> =
        report.regressions.into_iter().filter(|r| !named(&r.path)).collect();
    if !regressions.is_empty() {
        return Err(GateReport { regressions, ..GateReport::default() }.render());
    }
    let fresh_spans: std::collections::BTreeMap<String, std::ops::Range<usize>> =
        obs::json::leaf_spans(fresh)?.into_iter().collect();
    let (mut out, mut kept_to, mut spliced) = (String::new(), 0, Vec::new());
    let gated = base_spans.into_iter().filter(|(p, _)| named(p) && classify(p) != Rule::Ignore);
    for (path, span) in gated {
        let new = fresh_spans.get(&path).ok_or(format!("{path}: no fresh leaf to splice"))?;
        if base[span.clone()] != fresh[new.clone()] {
            out.push_str(&base[kept_to..span.start]);
            out.push_str(&fresh[new.clone()]);
            kept_to = span.end;
            spliced.push(path);
        }
    }
    out.push_str(&base[kept_to..]);
    Ok((out, spliced))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledgerish(scale: f64) -> Json {
        let doc = format!(
            r#"{{
              "ledger_version": 1,
              "tool": "bench_em",
              "integrity": {{"dropped_events": 0, "nesting_violations": 0}},
              "runs": [{{
                "label": "sPCA-Spark",
                "model_hash": "00baadf00dcafe42",
                "iterations_run": 3,
                "final_error": 0.125,
                "virtual_time_secs": {},
                "bytes": {{"network_bytes": 123456, "dfs_bytes_written": 789}},
                "attribution": {{"disk_us": {}, "network_us": {}}},
                "host": {{"encode_mb_per_sec": 472.7, "rowwise_secs": 0.52}}
              }}]
            }}"#,
            10.0 * scale,
            8_000_000.0 * scale,
            2_000_000.0 * scale,
        );
        obs::json::parse(&doc).unwrap()
    }

    #[test]
    fn identical_documents_pass() {
        let report = compare(&ledgerish(1.0), &ledgerish(1.0), 0.05);
        assert!(report.passed(), "{:?}", report.regressions);
        assert!(report.compared > 0);
        assert!(report.ignored >= 2, "host metrics must be ignored");
        assert_eq!(report.render(), "");
    }

    #[test]
    fn ten_percent_virtual_slowdown_fails_a_five_percent_band() {
        let report = compare(&ledgerish(1.0), &ledgerish(1.10), 0.05);
        assert!(!report.passed());
        // All three virtual-time metrics trip; nothing else does.
        assert_eq!(report.regressions.len(), 3, "{:?}", report.regressions);
        assert!(report.regressions.iter().all(|r| r.rule.label() == "band"));
        let table = report.render();
        assert!(table.contains("virtual_time_secs"), "{table}");
        assert!(table.contains("+10.0%"), "{table}");
        // And the same slowdown passes a wide CI band.
        assert!(compare(&ledgerish(1.0), &ledgerish(1.10), 0.75).passed());
    }

    #[test]
    fn byte_counts_are_bit_exact() {
        let base = obs::json::parse(r#"{"bytes": {"network_bytes": 123456}}"#).unwrap();
        let fresh = obs::json::parse(r#"{"bytes": {"network_bytes": 123457}}"#).unwrap();
        // Even the widest band never excuses a byte-count drift.
        let report = compare(&base, &fresh, 0.75);
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].rule, Rule::Exact);
    }

    #[test]
    fn missing_baseline_key_is_a_regression_but_fresh_only_is_not() {
        let base = obs::json::parse(r#"{"a": 1, "b": 2}"#).unwrap();
        let fresh = obs::json::parse(r#"{"a": 1, "c": 3}"#).unwrap();
        let report = compare(&base, &fresh, 0.05);
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].path, "b");
        assert_eq!(report.regressions[0].fresh, "<missing>");
        assert_eq!(report.fresh_only, 1);
    }

    #[test]
    fn hashes_and_labels_never_band() {
        let base = obs::json::parse(r#"{"model_hash": "aa", "label": "x"}"#).unwrap();
        let fresh = obs::json::parse(r#"{"model_hash": "ab", "label": "x"}"#).unwrap();
        let report = compare(&base, &fresh, 10.0);
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].path, "model_hash");
    }

    #[test]
    fn classification_table() {
        assert_eq!(classify("runs.0.virtual_time_secs"), Rule::Band);
        assert_eq!(classify("engines.0.recovery_overhead"), Rule::Band);
        assert_eq!(classify("runs.0.registry.counters.time.disk_us"), Rule::BandUs);
        // Modeled category slots are banded; the measured cpu slot (index
        // 0) and `*cpu_us` counters are host noise, ignored.
        assert_eq!(classify("runs.0.attribution_us.1"), Rule::BandUs);
        assert_eq!(classify("runs.0.iterations.2.cat_us.3"), Rule::BandUs);
        assert_eq!(classify("runs.0.attribution_us.0"), Rule::Ignore);
        assert_eq!(classify("runs.0.iterations.2.cat_us.0"), Rule::Ignore);
        assert_eq!(classify("runs.0.registry.counters.time.cpu_us"), Rule::Ignore);
        assert_eq!(classify("stage_storm.per_task_ns_large"), Rule::Ignore);
        assert_eq!(classify("stage_storm.core_scaling_ratio"), Rule::Ignore);
        assert_eq!(classify("stage_storm.ceiling_core_scaling_ratio"), Rule::Exact);
        assert_eq!(classify("runs.0.bytes.network_bytes"), Rule::Exact);
        assert_eq!(classify("runs.0.model_hash"), Rule::Exact);
        assert_eq!(classify("integrity.dropped_events"), Rule::Exact);
        assert_eq!(classify("records.0.encode_mb_per_sec"), Rule::Ignore);
        assert_eq!(classify("speedup"), Rule::Ignore);
        assert_eq!(classify("rowwise_secs"), Rule::Ignore);
        // Host shape: the core count a bench ran on is not a result.
        assert_eq!(classify("pool_workers"), Rule::Ignore);
        assert_eq!(classify("registry.histograms.stage.compute_secs.p99"), Rule::Ignore);
        assert_eq!(classify("registry.histograms.stage.compute_secs.count"), Rule::Exact);
        // Serving latency histograms are virtual time: banded shape
        // statistics, exact request counts.
        let serve = "runs.4.registry.histograms.serve.batch_latency_virtual_secs";
        assert_eq!(classify(&format!("{serve}.p50")), Rule::Band);
        assert_eq!(classify(&format!("{serve}.p99")), Rule::Band);
        assert_eq!(classify(&format!("{serve}.mean")), Rule::Band);
        assert_eq!(classify(&format!("{serve}.count")), Rule::Exact);
        assert_eq!(classify("runs.4.registry.counters.serve.rejected"), Rule::Exact);
        assert_eq!(classify("serving.latency_p99_virtual_secs"), Rule::Band);
        assert_eq!(classify("serving.trace_hash"), Rule::Exact);
    }

    #[test]
    fn glob_matches_dotted_paths() {
        assert!(glob_match("runs.*.model_hash", "runs.0.model_hash"));
        assert!(glob_match("*flops", "collector_registry.counters.kernel.flops"));
        assert!(glob_match("runs.?.bytes.*", "runs.3.bytes.network_bytes"));
        assert!(!glob_match("runs.?.bytes.*", "runs.10.bytes.network_bytes"));
        assert!(!glob_match("runs.*.model_hash", "runs.0.final_error"));
        assert!(glob_match("*", ""));
    }

    #[test]
    fn rebaseline_splices_named_leaves_and_refuses_the_rest() {
        let base = "{\n  \"model_hash\": \"aa\",\n  \"bytes\": 10, \"virtual_secs\": 1.0\n}\n";
        let fresh = r#"{"model_hash": "ab", "bytes": 10, "virtual_secs": 1.01, "new": 1}"#;
        let (text, spliced) = rebaseline(base, fresh, &["*hash"], 0.05).unwrap();
        assert_eq!(text, base.replace("\"aa\"", "\"ab\""), "only the named leaf moves");
        assert_eq!(spliced, ["model_hash"]);
        assert!(compare(&obs::json::parse(&text).unwrap(), &obs::json::parse(fresh).unwrap(), 0.05)
            .passed());

        // A differing leaf the globs do not name is refused.
        let moved = fresh.replace("\"bytes\": 10", "\"bytes\": 11");
        let refused = rebaseline(base, &moved, &["*hash"], 0.05).unwrap_err();
        assert!(refused.contains("bytes"), "{refused}");
        assert!(rebaseline(base, &moved, &["*hash", "bytes"], 0.05).is_ok());

        // Leaves the gate ignores keep their baseline text, and a glob that
        // matches only such leaves is refused: its splice would gate nothing.
        let base = "{\"bytes\": 10, \"mb_per_sec\": {\"count\": 5}}";
        let fresh = "{\"bytes\": 11, \"mb_per_sec\": {\"count\": 6}}";
        let (text, spliced) = rebaseline(base, fresh, &["*"], 0.05).unwrap();
        assert_eq!(text, fresh.replace("6", "5"), "the ignored count keeps its baseline text");
        assert_eq!(spliced, ["bytes"]);
        let refused = rebaseline(base, fresh, &["bytes", "*per_sec.count"], 0.05).unwrap_err();
        assert!(refused.contains("*per_sec.count matches no gated leaf"), "{refused}");
    }
}
