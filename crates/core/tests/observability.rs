//! Cross-engine observability properties.
//!
//! Three invariants of the tracing/metrics layer, checked over real
//! workloads rather than unit fixtures:
//!
//! 1. **Byte accounting** — `intermediate_bytes` always equals
//!    `network_bytes + dfs_bytes_written`, no matter how MapReduce jobs,
//!    sparkle stages, broadcasts and DFS traffic interleave on one
//!    cluster. This is the paper's "intermediate data" measure (Table 3),
//!    so an off-by-one here silently skews a headline result.
//! 2. **Span well-formedness** — after a full sPCA run on both engines
//!    every begin has a matching end, properly nested per (pid, tid), and
//!    the Chrome-trace export is valid JSON.
//! 3. **Clock monotonicity** — backwards `advance_time` is dropped and
//!    counted in `clock_violations` instead of corrupting virtual time.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

use dcluster::{ClusterConfig, Dfs, Load, Meter, SimCluster};
use linalg::Prng;
use mapreduce::{Emitter, MapReduceEngine, MapReduceJob};
use sparkle::SparkleContext;
use spca_core::{Algorithm, Spca, SpcaConfig};

/// The obs collector is process-global; a test that installs one must not
/// overlap any other test that drives a cluster, or that test's spans land
/// in the installed collector half-open and count as nesting violations
/// (cargo runs `#[test]`s on parallel threads). Every test here takes it.
static COLLECTOR_LOCK: Mutex<()> = Mutex::new(());

fn collector_guard() -> MutexGuard<'static, ()> {
    COLLECTOR_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn small_cluster() -> SimCluster {
    SimCluster::new(ClusterConfig::paper_cluster().with_nodes(2).with_cores_per_node(2))
}

fn assert_byte_invariant(cluster: &SimCluster, context: &str) {
    let m = cluster.metrics();
    assert_eq!(
        m.intermediate_bytes,
        m.network_bytes + m.dfs_bytes_written,
        "{context}: intermediate {} != network {} + dfs written {}",
        m.intermediate_bytes,
        m.network_bytes,
        m.dfs_bytes_written
    );
}

/// A trivial word-count-shaped job: keys 0..buckets, one f64 per row.
struct SumJob {
    buckets: usize,
}

impl MapReduceJob for SumJob {
    type Input = Vec<f64>;
    type Key = u32;
    type Value = f64;
    type Output = f64;

    fn map(&self, partition: &Vec<f64>, emitter: &mut Emitter<'_, u32, f64>) {
        for (i, v) in partition.iter().enumerate() {
            emitter.emit((i % self.buckets) as u32, *v);
        }
    }

    fn combine(&self, _key: &u32, values: Vec<f64>) -> Vec<f64> {
        vec![values.iter().sum()]
    }

    fn reduce(&self, _key: u32, values: Vec<f64>) -> f64 {
        values.iter().sum()
    }
}

#[test]
fn intermediate_bytes_equals_network_plus_dfs_under_interleaving() {
    let _guard = collector_guard();
    let cluster = small_cluster();
    let hdfs = Dfs::new();
    let mut rng = Prng::seed_from_u64(42);

    for round in 0..40 {
        match rng.index(5) {
            // MapReduce job: shuffles over the network AND spills the
            // pre-combine map output to the DFS.
            0 => {
                let engine = MapReduceEngine::new(&cluster);
                let parts: Vec<Vec<f64>> =
                    (0..4).map(|_| (0..32).map(|_| rng.normal()).collect()).collect();
                let buckets = 1 + rng.index(6);
                let (_out, stats) = engine.run_job("sumJob", &SumJob { buckets }, &parts, 2);
                assert!(stats.shuffle_bytes > 0);
            }
            // Sparkle aggregate: accumulator partials cross the network.
            1 => {
                let ctx = SparkleContext::new(&cluster);
                let n = 16 + rng.index(64);
                let rdd = ctx.parallelize((0..n).map(|i| i as f64).collect(), 4);
                let (sum, bytes) = rdd.aggregate(
                    "sumStage",
                    || 0.0f64,
                    |acc, v| *acc += v,
                    |acc, p| *acc += p,
                );
                assert!(sum >= 0.0 && bytes > 0);
            }
            // Sparkle collect: everything to the driver over the network.
            2 => {
                let ctx = SparkleContext::new(&cluster);
                let n = 8 + rng.index(32);
                let rdd = ctx.parallelize(vec![1.0f64; n], 2);
                let collected = rdd.collect();
                assert_eq!(collected.len(), n);
            }
            // Broadcast: driver value fanned out to every node.
            3 => {
                let bytes = 64 + rng.index(4096) as u64;
                cluster.charge(Meter::Network, Load::EachNode(bytes), "broadcast");
            }
            // DFS round trip.
            _ => {
                let name = format!("file-{round}");
                let bytes = 8 * (16 + rng.index(64) as u64);
                hdfs.put(&cluster, name.clone(), bytes);
                assert_eq!(hdfs.get(&cluster, &name).unwrap(), bytes);
            }
        }
        assert_byte_invariant(&cluster, &format!("after round {round}"));
    }

    let end = cluster.metrics();
    assert!(end.network_bytes > 0 && end.dfs_bytes_written > 0);
    assert_eq!(end.clock_violations, 0);
}

#[test]
fn byte_invariant_survives_reset() {
    let _guard = collector_guard();
    let cluster = small_cluster();
    cluster.charge(Meter::Network, Load::Even(1000), "network");
    cluster.charge(Meter::DfsWrite, Load::Even(500), "dfs-write");
    assert_byte_invariant(&cluster, "before reset");
    cluster.reset_metrics();
    let m = cluster.metrics();
    assert_eq!((m.intermediate_bytes, m.network_bytes, m.dfs_bytes_written), (0, 0, 0));
    cluster.charge(Meter::DfsWrite, Load::Even(77), "dfs-write");
    assert_byte_invariant(&cluster, "after reset");
}

#[test]
fn spans_nest_well_formed_across_both_engines() {
    let _guard = collector_guard();
    let collector = obs::install_new();

    let y = datasets::tweets::generate(400, 120, &mut Prng::seed_from_u64(9));
    let config = SpcaConfig::new(4).with_max_iters(2).with_partitions(4).with_seed(9);

    let spark_cluster = small_cluster();
    Spca::new(config.clone()).fit_spark(&spark_cluster, &y).expect("spark run");
    let mr_cluster = small_cluster();
    Spca::new(config).fit_mapreduce(&mr_cluster, &y).expect("mapreduce run");

    let collector = obs::uninstall().unwrap_or(collector);
    let events = collector.events();
    assert!(!events.is_empty(), "tracing produced no events");
    assert_eq!(collector.nesting_violations(), 0);
    let violations = obs::validate_nesting(&events);
    assert!(violations.is_empty(), "nesting violations: {violations:?}");

    // Both engines appear as distinct virtual processes, and the export
    // is valid Chrome-trace JSON.
    let json = obs::export::export_collector(&collector);
    obs::json::validate(&json).expect("chrome trace export must be valid JSON");
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("sPCA-Spark"), "spark cluster process label missing");
    assert!(json.contains("sPCA-MR"), "mapreduce cluster process label missing");
    assert_byte_invariant(&spark_cluster, "spark after traced run");
    assert_byte_invariant(&mr_cluster, "mapreduce after traced run");
}

/// `(name, enclosing span, previous sibling under that span)` of every host
/// span, in begin order.
fn host_span_context(events: &[obs::Event]) -> Vec<(String, Option<String>, Option<String>)> {
    // Per thread: the open spans, each with the last child it has begun
    // (index 0 is the thread's root, which has no span of its own).
    let mut stacks: HashMap<u64, Vec<(Option<&str>, Option<&str>)>> = HashMap::new();
    let mut out = Vec::new();
    for ev in events.iter().filter(|ev| ev.pid == obs::HOST_PID) {
        let stack = stacks.entry(ev.tid).or_insert_with(|| vec![(None, None)]);
        match ev.phase {
            obs::Phase::Begin => {
                let (parent, last_child) = stack.last_mut().expect("root frame");
                let sibling = last_child.replace(&ev.name);
                out.push((ev.name.clone(), parent.map(String::from), sibling.map(String::from)));
                stack.push((Some(&ev.name), None));
            }
            obs::Phase::End => {
                stack.pop();
            }
            _ => {}
        }
    }
    out
}

/// The driver-side work between the distributed stages has spans of its
/// own, so the host tree accounts for a whole pass: the sampled error under
/// every pass of both arms on both engines, the accumulator merge right
/// after every Spark `YtXJob` stage, the shuffle sort between the map and
/// reduce stages of every MapReduce job, and the three big pieces of the
/// EM assemble step inside it.
#[test]
fn driver_side_work_of_every_pass_is_spanned() {
    let _guard = collector_guard();
    let collector = obs::install_new();

    let y = datasets::tweets::generate(400, 120, &mut Prng::seed_from_u64(9));
    let em = SpcaConfig::new(4).with_max_iters(3).with_partitions(4).with_seed(9);
    let rpca = em.clone().with_algorithm(Algorithm::Randomized).with_rpca_power_iters(2);
    Spca::new(em.clone()).fit_spark(&small_cluster(), &y).expect("spark EM");
    Spca::new(em).fit_mapreduce(&small_cluster(), &y).expect("mapreduce EM");
    Spca::new(rpca.clone()).fit_spark(&small_cluster(), &y).expect("spark randomized");
    Spca::new(rpca).fit_mapreduce(&small_cluster(), &y).expect("mapreduce randomized");

    let collector = obs::uninstall().unwrap_or(collector);
    let spans = host_span_context(&collector.events());
    let children = |parent: &str, child: &str| {
        spans.iter().filter(|(n, p, _)| n == child && p.as_deref() == Some(parent)).count()
    };

    // 3 EM iterations, and 1 sketch + 2 power passes, on each of 2 engines.
    let passes: Vec<String> =
        (1..=3).flat_map(|i| [format!("em iteration {i}"), format!("rpca pass {i}")]).collect();
    for pass in &passes {
        assert_eq!(spans.iter().filter(|(n, _, _)| n == pass).count(), 2, "{pass}");
        assert_eq!(children(pass, "sampled error"), 2, "{pass}: no sampled error under it");
    }
    assert_eq!(spans.iter().filter(|(n, _, _)| n == "sampled error").count(), 2 * passes.len());

    // The spans whose previous sibling is `sibling`, in begin order.
    let after = |sibling: &str| -> Vec<&str> {
        spans
            .iter()
            .filter(|(_, _, s)| s.as_deref() == Some(sibling))
            .map(|(name, _, _)| name.as_str())
            .collect()
    };
    // Spark only: the MapReduce YtXJob runs as `stage:YtXJob/map` + `/reduce`.
    assert_eq!(after("stage:YtXJob"), vec!["accumulator merge"; 3], "merge follows every YtXJob");

    // MapReduce: the driver's merge of the mappers' sorted runs is the next
    // sibling of every map stage and hands over to the reduce stage, under
    // the pass that ran the job — no pass hides a sort in its self time.
    assert_eq!(after("stage:YtXJob/map"), vec!["shuffle sort"; 3], "sort follows every map");
    let sorts = spans.iter().filter(|(n, _, _)| n == "shuffle sort").count();
    let reduces = after("shuffle sort");
    assert_eq!(reduces.len(), sorts, "a reduce stage follows every sort");
    assert!(reduces.iter().all(|n| n.starts_with("stage:") && n.ends_with("/reduce")));
    // One distributed job per EM iteration: `YtXJob` on Spark, its map and
    // reduce on MapReduce. ss3 is driver algebra, never a stage.
    for i in 1..=3 {
        let pass = format!("em iteration {i}");
        assert_eq!(children(&pass, "shuffle sort"), 1, "iteration {i}");
        let mut stages: Vec<&str> = spans
            .iter()
            .filter(|(n, p, _)| n.starts_with("stage:") && p.as_deref() == Some(pass.as_str()))
            .map(|(name, _, _)| name.as_str())
            .collect();
        stages.sort_unstable();
        assert_eq!(stages, ["stage:YtXJob", "stage:YtXJob/map", "stage:YtXJob/reduce"], "{pass}");
    }
    assert!(!spans.iter().any(|(n, _, _)| n.starts_with("stage:ss3Job")), "an ss3Job stage ran");

    assert_eq!(children("em driver assemble", "finalize_ytx"), 6);
    assert_eq!(children("em driver assemble", "solve_spd_right"), 6);
    // XtX is CM'·YtX on the driver: no task folds a Gram.
    assert_eq!(children("em driver assemble", "xtx from ytx"), 6);
    let grams_in_tasks = spans.iter().filter(|(n, p, _)| {
        n.starts_with("matmul_tn") && p.as_deref().is_some_and(|p| p.starts_with("ytx add_block"))
    });
    assert_eq!(grams_in_tasks.count(), 0, "a YtXJob task folded XtX");
    // M⁻¹ and CM are formed once per iteration, at its end, for the
    // sampled error and the next iteration.
    let projections = spans.iter().filter(|(n, _, _)| n == "em driver projection").count();
    assert_eq!(projections, 6);
}

/// The `route` argument of every `sparse_mul_dense` and `spmm_tn` kernel
/// span a traced Spark + MapReduce EM fit of `y` closes, by kernel.
fn kernel_routes(y: &linalg::SparseMat) -> HashMap<String, Vec<String>> {
    let collector = obs::install_new();
    let config = SpcaConfig::new(4).with_max_iters(2).with_partitions(4).with_seed(9);
    Spca::new(config.clone()).fit_spark(&small_cluster(), y).expect("spark run");
    Spca::new(config).fit_mapreduce(&small_cluster(), y).expect("mapreduce run");
    let collector = obs::uninstall().unwrap_or(collector);

    let mut routes: HashMap<String, Vec<String>> = HashMap::new();
    for ev in collector.events() {
        let kernel = ev.name.split(' ').next().unwrap_or_default();
        if !matches!(ev.phase, obs::Phase::End)
            || ev.cat != "kernel"
            || !["sparse_mul_dense", "spmm_tn"].contains(&kernel)
        {
            continue;
        }
        let route = ev.args.iter().find(|(key, _)| *key == "route");
        match route {
            Some((_, obs::ArgValue::Str(route))) => {
                routes.entry(kernel.to_string()).or_default().push(route.clone())
            }
            other => panic!("{}: no route argument ({other:?})", ev.name),
        }
    }
    routes
}

/// The kernels that choose between a sparse and a dense route say which
/// one ran: `dense` on every span of a fit over full-row spectra, `sparse`
/// on every span of a fit over tweets.
#[test]
fn kernel_spans_report_the_route_they_took() {
    let _guard = collector_guard();
    let spectra = datasets::diabetes::generate_sparse(400, 60, &mut Prng::seed_from_u64(9));
    let tweets = datasets::tweets::generate(400, 120, &mut Prng::seed_from_u64(9));
    for (y, want) in [(&spectra, "dense"), (&tweets, "sparse")] {
        let routes = kernel_routes(y);
        for kernel in ["sparse_mul_dense", "spmm_tn"] {
            let seen = routes.get(kernel).unwrap_or_else(|| panic!("no {kernel} span ({want})"));
            assert!(seen.iter().all(|r| r == want), "{kernel} on the {want} input: {seen:?}");
        }
    }
}

#[test]
fn tracing_disabled_is_inert_and_runs_unchanged() {
    let _guard = collector_guard();
    assert!(obs::uninstall().is_none() || !obs::enabled());

    let y = datasets::tweets::generate(300, 100, &mut Prng::seed_from_u64(3));
    let config = SpcaConfig::new(3).with_max_iters(2).with_partitions(4).with_seed(3);
    let cluster = small_cluster();
    let run = Spca::new(config).fit_spark(&cluster, &y).expect("untraced run");
    assert_eq!(run.iterations.len(), 2);
    assert!(!obs::enabled(), "run must not have installed a collector");
    assert_byte_invariant(&cluster, "untraced run");
}

/// Regression for the wire-codec rollout: every metered path charges real
/// encoded lengths, and none of them may double-charge the same traffic.
/// The ledger invariant `intermediate == network + dfs_written` must hold
/// for full fits on both engines, and under fault-driven re-execution
/// (whose re-read charging derives from the same sized inputs as the
/// original attempt).
#[test]
fn byte_invariant_holds_on_both_engines_and_under_faults() {
    let _guard = collector_guard();
    let y = datasets::tweets::generate(400, 120, &mut Prng::seed_from_u64(7));
    let config = SpcaConfig::new(3).with_max_iters(2).with_partitions(4).with_seed(7);

    let cluster = || {
        SimCluster::new(ClusterConfig::paper_cluster().with_nodes(4).with_cores_per_node(2))
    };

    let spark = cluster();
    Spca::new(config.clone()).fit_spark(&spark, &y).expect("spark fit");
    assert_byte_invariant(&spark, "spark fit");

    let mr = cluster();
    Spca::new(config.clone()).fit_mapreduce(&mr, &y).expect("mapreduce fit");
    assert_byte_invariant(&mr, "mapreduce fit");

    // Compose with crashes: re-executed tasks re-read their split at the
    // same sized bytes; re-replication charges network + disk in lockstep,
    // so the ledger must still balance.
    let faulty = cluster();
    let spec = dcluster::FaultSpec::new(0xb0u64).with_speculation(true);
    // One crash in each EM iteration's `YtXJob`.
    let plan = dcluster::FaultPlan::new().with_crash(1, 2).with_crash(3, 3);
    faulty.install_fault_plan(spec, plan).unwrap();
    Spca::new(config).fit_spark(&faulty, &y).expect("faulty fit");
    assert_byte_invariant(&faulty, "spark fit under faults");
    assert!(
        !faulty.recovery_log().is_empty(),
        "the fault plan must actually have fired for this regression to bite"
    );
}

/// `[begin, end]` host-µs windows of every span named `name`.
fn windows(events: &[obs::Event], name: &str) -> Vec<(u64, u64)> {
    let mut open: HashMap<u64, u64> = HashMap::new();
    let mut out = Vec::new();
    for ev in events.iter().filter(|ev| ev.pid == obs::HOST_PID && ev.name == name) {
        match ev.phase {
            obs::Phase::Begin => {
                open.insert(ev.tid, ev.ts_us);
            }
            obs::Phase::End => out.push((open.remove(&ev.tid).expect("begun"), ev.ts_us)),
            _ => {}
        }
    }
    out
}

/// A stage runs one thread per core: the pool's workers and the driver
/// thread that helps drain them, never more (a task time-sliced against a
/// sibling also stalls the in-order delivery behind it). And the Spark
/// `YtXJob`'s partials are folded while the stage runs: one `ytx fold
/// block` span per block carried, each inside a `stage:YtXJob` window
/// (`accumulator merge` after the stage is left the final collapse).
#[test]
fn stages_run_one_thread_per_core_and_fold_ytx_partials_inside_the_stage() {
    let _guard = collector_guard();
    let collector = obs::install_new();
    // Partitions of 100 rows × ~400 entries can touch all D = 20 000
    // columns, which at d = 16 sizes the fold at blocks of four partials:
    // with 13 partitions, three carries per pass and one partial left over.
    let spec = datasets::LowRankSpec { words_per_row: 400.0, ..datasets::tweets::spec(1_300, 20_000) };
    let y = datasets::sparse_lowrank(&spec, &mut Prng::seed_from_u64(31));
    let em = SpcaConfig::new(16).with_max_iters(2).with_rel_tolerance(None).with_partitions(13);
    let rpca = em.clone().with_algorithm(Algorithm::Randomized).with_rpca_power_iters(1);
    Spca::new(em).fit_spark(&small_cluster(), &y).expect("spark EM");
    Spca::new(rpca).fit_spark(&small_cluster(), &y).expect("spark randomized");
    let collector = obs::uninstall().unwrap_or(collector);
    let events = collector.events();

    let threads: std::collections::HashSet<u64> =
        events.iter().filter(|ev| ev.pid == obs::HOST_PID).map(|ev| ev.tid).collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(
        threads.len() <= cores.max(2),
        "{} threads ran stage work on {cores} cores",
        threads.len()
    );

    let stages = windows(&events, "stage:YtXJob");
    let folds = windows(&events, "ytx fold block");
    assert_eq!(stages.len(), 2);
    assert_eq!(folds.len(), 2 * 3, "three blocks of four carried per pass");
    for (b, e) in &folds {
        assert!(
            stages.iter().any(|(sb, se)| sb <= b && e <= se),
            "a fold block ran outside every YtXJob window"
        );
    }
}

#[test]
fn backwards_clock_is_dropped_and_counted() {
    let _guard = collector_guard();
    let cluster = small_cluster();
    cluster.advance_time(2.0);
    cluster.advance_time(-5.0);
    cluster.advance_time(f64::NAN);
    cluster.advance_time(1.0);
    let m = cluster.metrics();
    assert_eq!(m.clock_violations, 2);
    assert!((m.virtual_time_secs - 3.0).abs() < 1e-12, "time corrupted: {}", m.virtual_time_secs);
}
