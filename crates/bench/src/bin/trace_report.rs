//! One small sPCA run on *both* engines with full tracing, printed as a
//! hierarchical text report and (optionally) exported as Chrome-trace
//! JSON — the quickest way to see the run → iteration → stage span tree
//! and compare sPCA-on-Spark with sPCA-on-MapReduce side by side in both
//! clock domains.
//!
//! Usage:
//!   trace_report                     # print the text report
//!   trace_report --trace T.json      # also write the Chrome trace file
//!   trace_report --timing contended  # price I/O with the event-driven
//!                                    # shared-bandwidth model and print
//!                                    # the per-link contention tables

use std::collections::BTreeMap;
use std::sync::Arc;

use dcluster::{
    ClusterConfig, FaultPlan, FaultSpec, SchedulerPolicy, SimCluster, TimingModel,
};
use linalg::WireCodec;
use spca_bench::{data, fmt_bytes, fmt_secs, fresh_cluster, Table};
use spca_core::serving::{run_serving, FitJob, ServeLoad, ServeSpec, TenantWorkload};
use spca_core::{Spca, SpcaConfig, SpcaError, SpcaRun};

fn stage_table(label: &str, cluster: &SimCluster) {
    let metrics = cluster.metrics();
    let cores = cluster.config().total_cores();
    println!("\n-- stages: {label} --");
    let mut table = Table::new(&["Stage", "Tasks", "Virtual (s)", "CPU (s)", "Utilization"]);
    for s in &metrics.stages {
        table.row(&[
            s.label.clone(),
            s.tasks.to_string(),
            format!("{:.4}", s.compute_secs),
            format!("{:.4}", s.cpu_secs),
            format!("{:.1}%", 100.0 * s.utilization(cores)),
        ]);
    }
    table.print();
    println!(
        "{label}: {} virtual s, {} intermediate ({} network, {} DFS written), {} clock violations",
        fmt_secs(metrics.virtual_time_secs),
        fmt_bytes(metrics.intermediate_bytes),
        fmt_bytes(metrics.network_bytes),
        fmt_bytes(metrics.dfs_bytes_written),
        metrics.clock_violations,
    );
}

/// Per-link contention table (contended timing only): capacity, carried
/// bytes, busy time and peak utilization for every modeled link, plus the
/// engine counters. The peak-utilization column doubles as the invariant
/// check — no link is ever allocated past 100 % at any virtual instant.
fn link_table(label: &str, cluster: &SimCluster) {
    let stats = cluster.link_stats();
    if stats.is_empty() {
        return;
    }
    println!("\n-- link contention: {label} --");
    let mut table = Table::new(&["Link", "Capacity (B/s)", "Bytes", "Busy (s)", "Peak util"]);
    for l in &stats {
        assert!(
            l.peak_util <= 1.0 + 1e-9,
            "link {} allocated past capacity: {}",
            l.label,
            l.peak_util
        );
        table.row(&[
            l.label.clone(),
            format!("{:.0}", l.capacity),
            fmt_bytes(l.bytes as u64),
            format!("{:.4}", l.busy_secs),
            format!("{:.1}%", 100.0 * l.peak_util),
        ]);
    }
    table.print();
    if let Some(engine) = cluster.engine_stats() {
        println!(
            "{label}: {} events, {} rate re-solves, {} peak concurrent flows; \
             every link ≤ 100% at every virtual instant",
            engine.events, engine.resolves, engine.peak_flows
        );
    }
}

fn main() {
    let trace = spca_bench::cli::trace_args(
        "trace_report",
        "Trace one small sPCA run on both engines and print the span-tree report",
        &[
            ("--timing MODEL", "I/O timing model: uncontended (default) | contended"),
            ("--tenant NAME", "Only show NAME's row in the serving table"),
        ],
    );
    let tenant_filter = trace.args.value("--tenant").map(String::from);
    let timing = match trace.args.value("--timing") {
        None => TimingModel::default(),
        Some(value) => TimingModel::parse(value).unwrap_or_else(|| {
            eprintln!("error: --timing needs uncontended|contended, got {value:?}");
            std::process::exit(2);
        }),
    };
    // With no --trace flag, still collect (for the text report) — install
    // a collector ourselves.
    let collector = match trace.collector() {
        Some(c) => c.clone(),
        None => obs::install_new(),
    };

    let y = data::tweets(4_000, 800, 1);
    let config = SpcaConfig::new(8).with_max_iters(3).with_partitions(16).with_seed(7);

    let timed_cluster =
        || SimCluster::new(ClusterConfig::scaled_cluster().with_timing(timing));
    let spark_cluster = timed_cluster();
    let spark_run =
        Spca::new(config.clone()).fit_spark(&spark_cluster, &y).expect("sPCA-Spark run");
    let mr_cluster = timed_cluster();
    let mr_run =
        Spca::new(config.clone()).fit_mapreduce(&mr_cluster, &y).expect("sPCA-MapReduce run");

    println!(
        "=== trace report: sPCA-Spark vs sPCA-MapReduce (4000 x 800, d=8, {timing} timing) ==="
    );
    println!(
        "Spark: {} virtual s over {} iterations; MapReduce: {} virtual s over {} iterations",
        fmt_secs(spark_run.virtual_time_secs),
        spark_run.iterations.len(),
        fmt_secs(mr_run.virtual_time_secs),
        mr_run.iterations.len(),
    );

    stage_table("sPCA-Spark", &spark_cluster);
    stage_table("sPCA-MapReduce", &mr_cluster);
    link_table("sPCA-Spark", &spark_cluster);
    link_table("sPCA-MapReduce", &mr_cluster);

    // Under contended timing, quantify the contention the arithmetic
    // model cannot see: the same Spark fit priced by both models. The
    // byte meters must agree exactly; only virtual time moves.
    if timing == TimingModel::Contended {
        let reference = fresh_cluster();
        let reference_run = Spca::new(config.clone())
            .fit_spark(&reference, &y)
            .expect("uncontended reference run");
        assert_eq!(
            reference.metrics().network_bytes,
            spark_cluster.metrics().network_bytes,
            "byte meters must be timing-model-invariant"
        );
        let contended_net_us = spark_cluster.category_time_us()[2];
        let reference_net_us = reference.category_time_us()[2];
        println!(
            "\ncontention delta (sPCA-Spark): {} virtual s contended vs {} uncontended; \
             network {:.3}s vs {:.3}s ({:+.1}% from shared-bandwidth queueing)",
            fmt_secs(spark_run.virtual_time_secs),
            fmt_secs(reference_run.virtual_time_secs),
            contended_net_us as f64 * 1e-6,
            reference_net_us as f64 * 1e-6,
            100.0 * (contended_net_us as f64 / reference_net_us as f64 - 1.0),
        );
        assert!(
            contended_net_us > reference_net_us,
            "concurrent shuffles must contend under the event-driven model \
             ({contended_net_us}us vs {reference_net_us}us)"
        );
    }

    // A cheap-arm run — the quantized v3 shuffle codec — traced alongside
    // the reference arms and summarized per arm below.
    let v3q_cluster = SimCluster::new(
        ClusterConfig::scaled_cluster()
            .with_wire_codec(WireCodec::V3Quantized)
            .with_timing(timing),
    );
    let v3q_run = Spca::new(config.clone()).fit_spark(&v3q_cluster, &y).expect("sPCA-Spark v3q run");
    stage_table("sPCA-Spark v3q", &v3q_cluster);

    println!("\n-- arms: codec --");
    let mut arms = Table::new(&["Run", "Codec", "Virtual (s)", "Intermediate", "Final error"]);
    let mut arm_row = |label: &str, cluster: &SimCluster, run: &SpcaRun| {
        arms.row(&[
            label.to_string(),
            cluster.wire_codec().label().to_string(),
            format!("{:.4}", run.virtual_time_secs),
            fmt_bytes(run.intermediate_bytes),
            format!("{:.4}", run.final_error()),
        ]);
    };
    arm_row("sPCA-Spark", &spark_cluster, &spark_run);
    arm_row("sPCA-MapReduce", &mr_cluster, &mr_run);
    arm_row("sPCA-Spark v3q", &v3q_cluster, &v3q_run);
    arms.print();
    assert!(
        v3q_run.intermediate_bytes < spark_run.intermediate_bytes,
        "the v3q arm must shrink the shuffle byte meter"
    );

    // A third run under chaos — two node crashes, stragglers, speculation,
    // a checkpointed driver crash with resume — to exercise the recovery
    // event log end to end. The node crashes land in the `YtXJob`s of EM
    // iterations 1 and 2 (stages 2 and 3), before the driver crash. The
    // resumed model must equal the clean Spark run bit for bit.
    let faulty_cluster = timed_cluster();
    let spec = FaultSpec::new(7)
        .with_straggler_rate(0.2)
        .with_straggler_slowdown(5.0)
        .with_speculation(true);
    faulty_cluster
        .install_fault_plan(spec, FaultPlan::new().with_crash(1, 2).with_crash(4, 3))
        .expect("valid fault plan");
    let faulty_config = config.clone().with_checkpoint_every(1);
    match Spca::new(faulty_config.clone().with_crash_at_iteration(2))
        .fit_spark(&faulty_cluster, &y)
    {
        Err(SpcaError::DriverCrashed { .. }) => {}
        other => panic!("expected the injected driver crash, got {other:?}"),
    }
    let resumed =
        Spca::new(faulty_config).fit_spark(&faulty_cluster, &y).expect("resumed run");
    let bitwise_equal = resumed
        .model
        .components()
        .data()
        .iter()
        .zip(spark_run.model.components().data())
        .all(|(a, b)| a.to_bits() == b.to_bits())
        && resumed.model.noise_variance().to_bits() == spark_run.model.noise_variance().to_bits();
    assert!(bitwise_equal, "recovery must reproduce the clean model bit for bit");

    println!("\n-- recovery events: sPCA-Spark under chaos (crash/resume) --");
    let mut kinds: BTreeMap<&'static str, usize> = BTreeMap::new();
    for event in faulty_cluster.recovery_log() {
        *kinds.entry(event.kind()).or_insert(0) += 1;
    }
    let mut table = Table::new(&["Event", "Count"]);
    for (kind, count) in &kinds {
        table.row(&[kind.to_string(), count.to_string()]);
    }
    table.print();
    let faulty_reg = faulty_cluster.registry();
    let saved = faulty_reg.histogram("faults.speculation_saved_secs");
    println!(
        "recovered bitwise-identical model; {} re-replicated, {} checkpointed, {} saved by speculation",
        fmt_bytes(faulty_reg.counter("faults.replication_bytes").get()),
        fmt_bytes(faulty_reg.counter("faults.checkpoint_bytes").get()),
        fmt_secs(saved.mean() * saved.count() as f64),
    );

    // A fourth workload — multi-tenant: a heavy tenant flooding the fit
    // queue under the fair-share scheduler while two tenants serve
    // projection requests against their fitted models. Runs after the
    // resumed fit so the ledger's long-standing run indices (spark, mr,
    // v3q, resumed) stay put; the serving fits append behind them.
    println!("\n-- serving: fit queue + projection requests (fair-share) --");
    let serve_cluster = SimCluster::new(
        ClusterConfig::scaled_cluster()
            .with_timing(timing)
            .with_scheduler(SchedulerPolicy::FairShare)
            .with_fair_share_weights(vec![1.0, 1.0, 1.0]),
    );
    let total_cores = serve_cluster.config().total_cores();
    let y_small = Arc::new(data::tweets(600, 200, 3));
    let small_config =
        SpcaConfig::new(4).with_max_iters(2).with_seed(11).with_rel_tolerance(None);
    let mut serve_spec = ServeSpec::new(0x7e);
    let mut heavy = TenantWorkload { name: "heavy".into(), ..Default::default() };
    for i in 0..3 {
        heavy.fit_jobs.push(FitJob {
            id: format!("heavy-{i}"),
            submit_secs: 0.01 * i as f64,
            cores: total_cores,
            y: Arc::clone(&y_small),
            config: small_config.clone(),
        });
    }
    serve_spec.tenants.push(heavy);
    serve_spec.tenants.push(TenantWorkload {
        name: "alpha".into(),
        fit_jobs: vec![FitJob {
            id: "alpha-fit".into(),
            submit_secs: 0.5,
            cores: (total_cores / 8).max(1),
            y: Arc::clone(&y_small),
            config: small_config,
        }],
        serve: Some(ServeLoad {
            pool: Arc::clone(&y_small),
            batches: 40,
            batch_rows: 5,
            rate_per_sec: 40.0,
            start_secs: 0.0,
        }),
        model: None,
    });
    serve_spec.tenants.push(TenantWorkload {
        name: "gamma".into(),
        fit_jobs: vec![],
        serve: Some(ServeLoad {
            pool: Arc::new(y.clone()),
            batches: 30,
            batch_rows: 4,
            rate_per_sec: 30.0,
            start_secs: 0.0,
        }),
        // Serves from the clean Spark run's model, ready at t=0.
        model: Some(spark_run.model.clone()),
    });
    let serving = run_serving(&serve_cluster, &serve_spec).expect("serving run");
    let mut serve_table = Table::new(&[
        "Tenant",
        "Jobs",
        "Rejected",
        "Wait (s)",
        "Run (s)",
        "Requests",
        "QPS",
        "Cache hit",
        "p50 (s)",
        "p99 (s)",
    ]);
    let mut filter_matched = false;
    for t in &serving.tenants {
        if let Some(only) = &tenant_filter {
            if &t.name != only {
                continue;
            }
        }
        filter_matched = true;
        serve_table.row(&[
            t.name.clone(),
            format!("{} (-{})", t.jobs_completed, t.jobs_rejected),
            t.batches_rejected.to_string(),
            format!("{:.3}", t.wait_secs_total),
            format!("{:.3}", t.run_secs_total),
            t.requests.to_string(),
            format!("{:.1}", t.qps),
            format!("{:.1}%", 100.0 * t.cache_hit_rate()),
            format!("{:.4}", t.latency_p50_secs),
            format!("{:.4}", t.latency_p99_secs),
        ]);
    }
    serve_table.print();
    if let Some(only) = &tenant_filter {
        assert!(filter_matched, "--tenant {only:?} matches no tenant in the serving mix");
    }
    println!(
        "serving: {} requests in {} batches ({} rejected), {} model pushes, \
         p50 {} / p99 {} virtual latency, makespan {}, trace {:#018x}",
        serving.requests_total,
        serving.batches_total,
        serving.rejected_total,
        serving.broadcasts,
        fmt_secs(serving.latency_p50_secs),
        fmt_secs(serving.latency_p99_secs),
        fmt_secs(serving.makespan_secs),
        serving.trace_hash,
    );
    assert!(serving.latency_p99_secs >= serving.latency_p50_secs);
    assert_eq!(serving.batches_total + serving.rejected_total, 70);

    // Critical-path profile: reconstruct the per-iteration causality chain
    // from the segment events and attribute every window's makespan to
    // cpu / scheduler / network / disk / recovery / idle.
    println!("\n-- critical path: per-window makespan attribution --");
    let profiles = obs::critpath::analyze(&collector.events());
    print!("{}", obs::critpath::render(&profiles));
    for p in &profiles {
        for w in p.iterations.iter().chain(p.run.iter()) {
            let makespan = w.makespan_us();
            assert!(
                w.path_us() <= makespan,
                "{}/{}: critical path {}us exceeds makespan {}us",
                p.name,
                w.label,
                w.path_us(),
                makespan
            );
            assert_eq!(
                w.attribution.total_us(),
                makespan,
                "{}/{}: category attribution must sum to the makespan",
                p.name,
                w.label
            );
        }
    }

    if let Some(warning) = obs::report::dropped_warning(collector.dropped()) {
        print!("{warning}");
    }
    println!("\n-- span tree (virtual + host clock domains) --");
    let spark_reg = spark_cluster.registry();
    let mr_reg = mr_cluster.registry();
    let report = obs::report::text_report(
        &collector.events(),
        &[
            ("sPCA-Spark cluster", &spark_reg),
            ("sPCA-MapReduce cluster", &mr_reg),
            ("collector", collector.registry()),
        ],
    );
    print!("{report}");

    assert_eq!(collector.nesting_violations(), 0, "span nesting must be well-formed");
    // The TraceGuard exports on drop when --trace was given.
}
