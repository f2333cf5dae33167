//! Harness tests: the names and rules the benchmark is defined by, and a
//! small fit through `operate` → `check` → `replay` so the traced run is
//! exercised without the minutes the real workloads take in a debug
//! build. (Span arithmetic and the median/spread helpers are unit-tested
//! beside their code.)

use std::collections::{BTreeMap, BTreeSet};

use dcluster::{ClusterConfig, TimingModel};
use linalg::Prng;
use obs::json::{self, Json};
use spca_benchmark::compare::{compare, parse_bounds, parse_results, spreads, Results};
use spca_benchmark::replay::replay;
use spca_benchmark::run::{results_doc, Report};
use spca_benchmark::spans::Recorder;
use spca_benchmark::spec::{self, Better, Level, METRICS, WORKLOADS};
use spca_benchmark::workloads::{check, generate, operate, Engine, Inputs};
use spca_core::{Algorithm, SpcaConfig};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Hand-made bounds for the `compare` and `spread` rules, so those tests
/// hold whatever bounds the real file carries.
const RULES: &str = r#"{"end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "host_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "virtual_s", "unit": "s", "better": "lower", "bound": 0.02},
    {"name": "intermediate_bytes", "unit": "bytes", "better": "lower", "bound": 0.05}
]}"#;

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn names_are_well_formed_and_unique() {
    let mut seen = BTreeSet::new();
    for m in METRICS {
        assert!(well_formed(m.name), "metric name {:?}", m.name);
        assert!(
            m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        );
        assert!(seen.insert(m.name), "metric {} listed twice", m.name);
    }
    for (w, why) in WORKLOADS {
        assert!(well_formed(w), "workload name {w:?}");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{w}: why must be one short line"
        );
        assert!(seen.insert(w), "name {w} used twice");
        assert!(generate(w, 1).is_some(), "{w} must have a generator");
    }
    assert!(generate("no_such_workload", 1).is_none());
}

fn named<'a>(doc: &'a Json, list: &str) -> Vec<&'a Json> {
    match doc.get(list) {
        Some(Json::Arr(items)) => items.iter().collect(),
        _ => panic!("BENCHMARK.json has no {list:?} list"),
    }
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string {key:?}"))
}

#[test]
fn benchmark_json_lists_exactly_what_the_harness_prints() {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");

    let listed: Vec<(&str, &str)> = named(&doc, "workloads")
        .into_iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    assert_eq!(listed, WORKLOADS.to_vec());

    let e2e: Vec<(&str, &str, &str, f64)> = named(&doc, "end_to_end")
        .into_iter()
        .map(|m| {
            let bound = m.get("bound").and_then(Json::as_num).expect("bound");
            (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
        })
        .collect();
    let expected: Vec<(&str, &str, &str, f64)> = spec::end_to_end()
        .map(|m| match m.level {
            Level::EndToEnd { bound: Some(bound) } => (m.name, m.unit, m.better.label(), bound),
            _ => unreachable!("end_to_end() yields bounded metrics only"),
        })
        .collect();
    assert_eq!(e2e, expected);
    assert!(e2e
        .iter()
        .all(|(_, _, _, bound)| *bound > 0.0 && *bound <= 0.25));
    assert!(e2e.contains(&("setup_s", "s", "lower", 0.25)));

    let layers: Vec<(&str, &str, &str)> = named(&doc, "per_layer")
        .into_iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    let expected: Vec<(&str, &str, &str)> = spec::per_layer()
        .map(|m| (m.name, m.unit, m.better.label()))
        .collect();
    assert_eq!(layers, expected);
    assert_eq!(e2e.len() + layers.len(), METRICS.len());

    assert_eq!(named(&doc, "paths").len(), 1);
    assert_eq!(named(&doc, "paths")[0].as_str(), Some("benchmark"));
    let command: Vec<&str> = named(&doc, "command")
        .into_iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(command.last(), Some(&"run"));
    assert!(command.contains(&"benchmark/Cargo.toml"));
}

fn small_fit(algorithm: Algorithm, engine: Engine, cluster: ClusterConfig) -> Inputs {
    let spec = datasets::LowRankSpec {
        rows: 240,
        cols: 80,
        ..datasets::LowRankSpec::small_test()
    };
    Inputs::Fit {
        y: datasets::sparse_lowrank(&spec, &mut Prng::seed_from_u64(5)),
        config: SpcaConfig::new(3)
            .with_max_iters(2)
            .with_rel_tolerance(None)
            .with_partitions(7)
            .with_algorithm(algorithm)
            .with_rpca_power_iters(1)
            .with_seed(5),
        cluster,
        engine,
        error_ceiling: f64::INFINITY,
    }
}

#[test]
fn replay_covers_every_fit_arm_in_the_spec_names() {
    let contended = ClusterConfig::scaled_cluster()
        .with_nodes(5)
        .with_timing(TimingModel::Contended);
    let arms = [
        (
            Algorithm::PpcaEm,
            Engine::Spark,
            ClusterConfig::paper_cluster(),
            "sparkle.engine_s",
        ),
        (
            Algorithm::PpcaEm,
            Engine::MapReduce,
            ClusterConfig::paper_cluster(),
            "mapreduce.engine_s",
        ),
        (
            Algorithm::Randomized,
            Engine::Spark,
            ClusterConfig::scaled_cluster(),
            "sparkle.engine_s",
        ),
        (
            Algorithm::PpcaEm,
            Engine::Spark,
            contended,
            "dcluster.netsim.solve_s",
        ),
    ];
    for (algorithm, engine, cluster, must_be_positive) in arms {
        let inputs = small_fit(algorithm, engine, cluster);
        let (first, _) = operate(&inputs).expect("small fit succeeds");
        let (again, host_s) = operate(&inputs).expect("small fit succeeds twice");
        assert_eq!(
            check(&inputs, first.hash, &first.meters, &again),
            Vec::<String>::new()
        );
        assert!(host_s > 0.0);

        let mut rec = Recorder::new("small");
        let (values, self_times) = replay(&mut rec, "small", &inputs, &again).expect("replay");
        assert!(self_times.iter().all(|(_, s)| *s >= 0.0));
        assert!(self_times.iter().map(|(_, s)| s).sum::<f64>() > 0.0);
        for (name, value) in &values {
            let metric = spec::metric(name).unwrap_or_else(|| panic!("{name} is not in the spec"));
            assert_eq!(metric.level, Level::Layer);
            assert!(value.is_finite() && *value >= 0.0, "{name} = {value}");
        }
        for name in [
            "linalg.kernels.busy_s",
            "linalg.wire.bytes",
            "linalg.decomp.busy_s",
            must_be_positive,
        ] {
            assert!(
                values[name] > 0.0,
                "{name} must be measured on {algorithm:?}/{engine:?}"
            );
        }
        // workload → replay → layer → call, one root, every span closed.
        let spans = rec.spans();
        assert_eq!(spans.iter().filter(|s| s.parent.is_none()).count(), 1);
        assert_eq!(spans[1].name, "replay");
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        json::validate(&rec.chrome_trace()).expect("trace is valid JSON");
    }
}

#[test]
fn check_counts_a_changed_result_and_a_broken_ceiling() {
    let mut inputs = small_fit(
        Algorithm::PpcaEm,
        Engine::Spark,
        ClusterConfig::paper_cluster(),
    );
    let (op, _) = operate(&inputs).unwrap();
    assert_eq!(check(&inputs, op.hash ^ 1, &op.meters, &op).len(), 1);
    let mut meters = op.meters.clone();
    meters.network_bytes += 1;
    assert_eq!(check(&inputs, op.hash, &meters, &op).len(), 1);
    if let Inputs::Fit { error_ceiling, .. } = &mut inputs {
        *error_ceiling = op.final_error * 0.5;
    }
    assert_eq!(check(&inputs, op.hash, &op.meters, &op).len(), 1);
}

fn report(values: &[(&'static str, f64)]) -> Report {
    Report {
        attempted: 5,
        failed: 0,
        values: values.iter().copied().collect(),
    }
}

#[test]
fn emitted_json_is_valid_and_round_trips() {
    let r = report(&[
        ("host_s", 1.25),
        ("final_error", f64::NAN),
        ("dcluster.tasks", 448.0),
    ]);
    let line = r.to_json();
    json::validate(&line).expect("result line is valid JSON");
    assert!(!line.contains('\n'));
    let doc = json::parse(&line).unwrap();
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("attempted").and_then(Json::as_num), Some(5.0));
    let metrics = doc.get("metrics").unwrap();
    assert_eq!(
        metrics.get("host_s").unwrap().get("unit").unwrap().as_str(),
        Some("s")
    );
    // A non-finite value can not be written as a JSON number.
    assert_eq!(
        metrics
            .get("final_error")
            .unwrap()
            .get("value")
            .unwrap()
            .as_num(),
        Some(0.0)
    );

    let file = results_doc(
        7,
        &[("em_spark_sparse", line.clone()), ("serve_fair_128n", line)],
    );
    json::validate(&file).expect("results.json is valid JSON");
    let parsed = parse_results(&file).unwrap();
    assert_eq!(parsed.seed, 7);
    assert_eq!(parsed.workloads.len(), 2);
    assert_eq!(parsed.workloads[0].1["host_s"], 1.25);
}

fn results(seed: u64, values: &[(&str, f64)]) -> Results {
    let map: BTreeMap<String, f64> = values.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    Results {
        seed,
        workloads: vec![("em_spark_sparse".to_string(), map)],
    }
}

#[test]
fn compare_applies_bounds_and_exactness() {
    let base = results(
        1,
        &[
            ("host_s", 1.0),
            ("intermediate_bytes", 800.0),
            ("linalg.kernels.busy_s", 0.4),
        ],
    );
    let failures = |b: &Results| -> Vec<String> {
        compare(RULES, &base, b)
            .unwrap()
            .into_iter()
            .filter(|r| r.failure.is_some())
            .map(|r| r.metric)
            .collect()
    };
    // Identical files pass, and every end-to-end metric present gets a row.
    let rows = compare(RULES, &base, &base).unwrap();
    assert_eq!(
        rows.iter().map(|r| r.metric.as_str()).collect::<Vec<_>>(),
        ["host_s", "intermediate_bytes"]
    );
    assert!(rows.iter().all(|r| r.failure.is_none() && r.ratio() == 1.0));
    // host_s may worsen by 10 % of the base, not more; improving is free;
    // an unbounded host-time layer metric is never judged.
    assert!(failures(&results(
        1,
        &[
            ("host_s", 1.09),
            ("intermediate_bytes", 800.0),
            ("linalg.kernels.busy_s", 9.0)
        ]
    ))
    .is_empty());
    assert_eq!(
        failures(&results(
            1,
            &[("host_s", 1.11), ("intermediate_bytes", 800.0)]
        )),
        ["host_s"]
    );
    assert!(failures(&results(
        1,
        &[("host_s", 0.5), ("intermediate_bytes", 800.0)]
    ))
    .is_empty());
    // On one seed an exact metric may not move at all, in either direction.
    assert_eq!(
        failures(&results(
            1,
            &[("host_s", 1.0), ("intermediate_bytes", 799.0)]
        )),
        ["intermediate_bytes"]
    );
    // Across seeds the inputs differ, so only its bound applies.
    assert!(failures(&results(
        2,
        &[("host_s", 1.0), ("intermediate_bytes", 801.0)]
    ))
    .is_empty());
    assert_eq!(
        failures(&results(
            2,
            &[("host_s", 1.0), ("intermediate_bytes", 900.0)]
        )),
        ["intermediate_bytes"]
    );
    // A workload missing from B is an error, not a pass.
    assert!(compare(
        RULES,
        &base,
        &Results {
            seed: 1,
            workloads: vec![]
        }
    )
    .is_err());
}

#[test]
fn spread_rows_follow_the_contract_rule() {
    let runs: Vec<Results> = (1..=10)
        .map(|i| {
            let x = f64::from(i);
            let all: Vec<(String, f64)> = parse_bounds(RULES)
                .unwrap()
                .into_iter()
                .map(|(name, _, _)| (name, 100.0))
                .collect();
            let mut r = results(i as u64, &[]);
            r.workloads[0].1.extend(all);
            r.workloads[0].1.insert("host_s".into(), 100.0 + x);
            r.workloads[0].1.insert("setup_s".into(), 10.0 * x);
            r
        })
        .collect();
    let rows = spreads(RULES, &runs).unwrap();
    assert_eq!(rows.len(), 4);
    let row = |name: &str| rows.iter().find(|r| r.metric == name).unwrap();
    // quantiles(101..=110) = [102.75, 105.5, 108.25]
    assert!((row("host_s").spread - 5.5 / 105.5).abs() < 1e-12);
    assert!(!row("host_s").too_wide());
    assert_eq!(row("virtual_s").spread, 0.0);
    // setup_s is reported but never refuses the benchmark.
    assert!(row("setup_s").spread > row("setup_s").bound && !row("setup_s").too_wide());
    assert!(spreads(RULES, &runs[..1]).is_err());
    assert_eq!(Better::Lower.label(), "lower");
}
