//! Reading result files back: the `compare` rule between two runs and
//! the `spread` rule across many.
//!
//! A result file is what `run --out DIR` writes as `DIR/results.json`:
//! `{"seed":…, "workloads": {name: {"correct":…, "attempted":…,
//! "failed":…, "metrics": {metric: {"value":…, "unit":…}}}}}`. Bounds
//! and directions come from `BENCHMARK.json`; which metrics must repeat
//! exactly comes from [`crate::spec`].

use std::collections::BTreeMap;

use obs::json::{self, Json};

use crate::spec::{self, Better};
use crate::stats::{median, spread};

/// One parsed result file.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    /// The seed the run was made with.
    pub seed: u64,
    /// Metric values per workload, both in file order.
    pub workloads: Vec<(String, BTreeMap<String, f64>)>,
}

fn members(v: &Json) -> &[(String, Json)] {
    match v {
        Json::Obj(m) => m,
        _ => &[],
    }
}

/// Parses a result file.
pub fn parse_results(text: &str) -> Result<Results, String> {
    let doc = json::parse(text)?;
    let seed = doc
        .get("seed")
        .and_then(Json::as_num)
        .ok_or("result file has no \"seed\"")? as u64;
    let workloads = doc
        .get("workloads")
        .ok_or("result file has no \"workloads\"")?;
    let workloads = members(workloads)
        .iter()
        .map(|(name, entry)| {
            let metrics = entry.get("metrics").map(members).unwrap_or_default();
            let values = metrics
                .iter()
                .filter_map(|(m, v)| Some((m.clone(), v.get("value")?.as_num()?)))
                .collect();
            (name.clone(), values)
        })
        .collect();
    Ok(Results { seed, workloads })
}

/// `BENCHMARK.json`'s end-to-end metrics: name → (direction, bound).
pub fn parse_bounds(benchmark_json: &str) -> Result<Vec<(String, Better, f64)>, String> {
    let doc = json::parse(benchmark_json)?;
    let Some(Json::Arr(list)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no \"end_to_end\" list".into());
    };
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = match m.get("better").and_then(Json::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("{name}: bad \"better\" {other:?}")),
            };
            let bound = m
                .get("bound")
                .and_then(Json::as_num)
                .ok_or(format!("{name}: no \"bound\""))?;
            Ok((name.to_string(), better, bound))
        })
        .collect()
}

/// One compared (workload, metric) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    /// Value in the base file A.
    pub a: f64,
    /// Value in file B.
    pub b: f64,
    /// Why the pair fails, if it does.
    pub failure: Option<String>,
}

impl Row {
    /// `B ÷ A`, the ratio against its base (1 when both are zero).
    pub fn ratio(&self) -> f64 {
        if self.a == self.b {
            1.0
        } else {
            self.b / self.a
        }
    }
}

/// Compares B against its base A. A metric fails when it is worse in B
/// by more than its `BENCHMARK.json` bound (as a share of A's value) or,
/// if [`spec::Metric::exact`] and both files are of one seed, when it
/// differs at all. Metrics with neither rule (host-time layer numbers)
/// are not compared. Rows come back for every end-to-end metric the
/// workload has (not for zeros in both files) and for every other metric
/// that fails.
pub fn compare(benchmark_json: &str, a: &Results, b: &Results) -> Result<Vec<Row>, String> {
    let bounds = parse_bounds(benchmark_json)?;
    let same_seed = a.seed == b.seed;
    let mut rows = Vec::new();
    for (workload, a_values) in &a.workloads {
        let b_values = b
            .workloads
            .iter()
            .find(|(w, _)| w == workload)
            .map(|(_, v)| v)
            .ok_or(format!("{workload} is missing from the second file"))?;
        for metric in spec::METRICS {
            let (Some(&va), Some(&vb)) = (a_values.get(metric.name), b_values.get(metric.name))
            else {
                continue;
            };
            let bound = bounds.iter().find(|(n, _, _)| n == metric.name);
            let failure = if metric.exact && same_seed {
                (va != vb).then(|| "must repeat exactly".to_string())
            } else if let Some((_, better, bound)) = bound {
                let worse = match better {
                    Better::Lower => vb - va,
                    Better::Higher => va - vb,
                };
                (worse > bound * va.abs())
                    .then(|| format!("worse by more than {:.1}% of A", bound * 100.0))
            } else {
                None
            };
            let end_to_end = matches!(metric.level, spec::Level::EndToEnd { .. });
            if (end_to_end && (va != 0.0 || vb != 0.0)) || failure.is_some() {
                rows.push(Row {
                    workload: workload.clone(),
                    metric: metric.name.to_string(),
                    a: va,
                    b: vb,
                    failure,
                });
            }
        }
    }
    Ok(rows)
}

/// One (workload, end-to-end metric) pair across several runs.
#[derive(Debug, Clone, PartialEq)]
pub struct SpreadRow {
    pub workload: String,
    pub metric: String,
    pub median: f64,
    /// Interquartile distance as a share of the median.
    pub spread: f64,
    pub bound: f64,
}

impl SpreadRow {
    /// The benchmark is refused when a spread (other than `setup_s`'s)
    /// exceeds the metric's bound.
    pub fn too_wide(&self) -> bool {
        self.metric != "setup_s" && self.spread > self.bound
    }
}

/// The spread of every `BENCHMARK.json` end-to-end metric on every
/// workload across `runs` (at least two, normally ten seeds).
pub fn spreads(benchmark_json: &str, runs: &[Results]) -> Result<Vec<SpreadRow>, String> {
    let bounds = parse_bounds(benchmark_json)?;
    let first = runs.first().ok_or("no result files")?;
    let mut rows = Vec::new();
    for (workload, _) in &first.workloads {
        for (metric, _, bound) in &bounds {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.workloads.iter().find(|(w, _)| w == workload))
                .filter_map(|(_, v)| v.get(metric).copied())
                .collect();
            if values.len() < 2 {
                return Err(format!(
                    "{workload} {metric}: fewer than two runs report it"
                ));
            }
            rows.push(SpreadRow {
                workload: workload.clone(),
                metric: metric.clone(),
                median: median(&values),
                spread: spread(&values),
                bound: *bound,
            });
        }
    }
    Ok(rows)
}
