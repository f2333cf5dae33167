//! `spca-cli` — command-line front end for the sPCA reproduction.
//!
//! ```text
//! spca-cli generate tweets 20000 4000 --seed 1 -o tweets.sm
//! spca-cli info -i tweets.sm
//! spca-cli fit -i tweets.sm -o model.txt -d 10 --engine spark --iters 8
//! spca-cli fit -i tweets.sm -o model.txt -d 10 --algorithm randomized --power-iters 3
//! spca-cli transform -i tweets.sm -m model.txt -o latent.dm
//! ```
//!
//! Matrices use the `spca-sparse`/`spca-dense` text formats of
//! [`linalg::io`]; models use [`spca_core::PcaModel`]'s text format.

use std::cell::RefCell;
use std::process::ExitCode;

use dcluster::{ClusterConfig, SimCluster};
use linalg::{io as mio, Prng, SparseMat};
use spca_core::model::PcaModel;
use spca_core::{Spca, SpcaConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  spca-cli generate <tweets|biotext|diabetes|images|lowrank> <rows> <cols>
           [--seed N] -o FILE
  spca-cli info -i FILE
  spca-cli fit -i DATA -o MODEL [-d N] [--engine spark|mapreduce]
           [--algorithm em|randomized] [--iters N] [--seed N] [--nodes N]
           [--partitions N] [--oversample N] [--power-iters N]
           [--codec v2|v3|v3q] [--timing uncontended|contended]
           [--ledger FILE]
  spca-cli transform -i DATA -m MODEL -o OUT
  spca-cli serve -i DATA -m MODEL [--tenants N] [--batches N]
           [--batch-rows N] [--rate R] [--policy fifo|fair]
           [--fit-jobs N] [--nodes N] [--seed N] [--queue-cap N]
           [--cache-bytes N]";

/// Minimal flag parser: positional arguments plus `--flag value` pairs.
struct Args<'a> {
    positional: Vec<&'a str>,
    flags: Vec<(&'a str, &'a str)>,
    /// Every flag name a command asked for, so [`Args::reject_unread`] can
    /// name the ones it did not.
    read: RefCell<Vec<String>>,
}

impl<'a> Args<'a> {
    fn parse(args: &'a [String]) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix('-') {
                let name = name.strip_prefix('-').unwrap_or(name);
                let value =
                    it.next().ok_or_else(|| format!("flag --{name} needs a value"))?;
                flags.push((name, value.as_str()));
            } else {
                positional.push(a.as_str());
            }
        }
        Ok(Args { positional, flags, read: RefCell::default() })
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.read.borrow_mut().push(name.to_string());
        self.flags.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.flag(name).ok_or_else(|| format!("missing required flag --{name}"))
    }

    fn numeric<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{name}: {e}")),
        }
    }

    /// Fails on the first flag `command` never read: a misspelt or
    /// unsupported flag is an error, not a silent default.
    fn reject_unread(&self, command: &str) -> Result<(), String> {
        let read = self.read.borrow();
        match self.flags.iter().find(|(name, _)| !read.iter().any(|r| r == name)) {
            Some((name, _)) => Err(format!("unknown flag --{name} for `{command}`")),
            None => Ok(()),
        }
    }
}

fn run(raw: &[String]) -> Result<(), String> {
    let command = raw.first().map(String::as_str).ok_or("no command given")?;
    let args = Args::parse(&raw[1..])?;
    match command {
        "generate" => generate(&args),
        "info" => info(&args),
        "fit" => fit(&args),
        "transform" => transform(&args),
        "serve" => serve(&args),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn load_data(args: &Args<'_>) -> Result<SparseMat, String> {
    let path = args.required("i")?;
    mio::load_sparse(path).map_err(|e| format!("{path}: {e}"))
}

fn load_model(args: &Args<'_>) -> Result<PcaModel, String> {
    let path = args.required("m")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    PcaModel::from_text(&text).map_err(|e| format!("{path}: {e}"))
}

fn generate(args: &Args<'_>) -> Result<(), String> {
    let [kind, rows, cols] = args.positional[..] else {
        return Err("generate needs: <kind> <rows> <cols>".into());
    };
    let rows: usize = rows.parse().map_err(|e| format!("rows: {e}"))?;
    let cols: usize = cols.parse().map_err(|e| format!("cols: {e}"))?;
    let seed: u64 = args.numeric("seed", 42)?;
    let out = args.required("o")?;
    args.reject_unread("generate")?;

    let mut rng = Prng::seed_from_u64(seed);
    let m = match kind {
        "tweets" => datasets::tweets::generate(rows, cols, &mut rng),
        "biotext" => datasets::biotext::generate(rows, cols, &mut rng),
        "diabetes" => datasets::diabetes::generate_sparse(rows, cols, &mut rng),
        "images" => datasets::images::generate_sparse(rows, cols, &mut rng),
        "lowrank" => {
            let spec = datasets::LowRankSpec {
                rows,
                cols,
                ..datasets::LowRankSpec::small_test()
            };
            datasets::sparse_lowrank(&spec, &mut rng)
        }
        other => return Err(format!("unknown dataset kind {other:?}")),
    };
    mio::save_sparse(out, &m).map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out}: {} x {} with {} non-zeros", m.rows(), m.cols(), m.nnz());
    Ok(())
}

fn info(args: &Args<'_>) -> Result<(), String> {
    let m = load_data(args)?;
    args.reject_unread("info")?;
    println!("rows     : {}", m.rows());
    println!("columns  : {}", m.cols());
    println!("non-zeros: {}", m.nnz());
    println!("density  : {:.6}%", 100.0 * m.density());
    let means = m.col_means();
    let max_mean = means.iter().cloned().fold(0.0_f64, f64::max);
    println!("max column mean: {max_mean:.4}");
    Ok(())
}

fn fit(args: &Args<'_>) -> Result<(), String> {
    let y = load_data(args)?;
    let out = args.required("o")?;
    let d: usize = args.numeric("d", 10)?;
    let iters: usize = args.numeric("iters", 10)?;
    let seed: u64 = args.numeric("seed", 0x5bca)?;
    let nodes: usize = args.numeric("nodes", 8)?;
    let engine = args.flag("engine").unwrap_or("spark");

    let mut cluster_cfg = ClusterConfig::paper_cluster().with_nodes(nodes);
    if let Some(codec) = args.flag("codec") {
        let codec = linalg::WireCodec::parse(codec)
            .ok_or_else(|| format!("--codec: unknown codec {codec:?} (use v2|v3|v3q)"))?;
        cluster_cfg = cluster_cfg.with_wire_codec(codec);
    }
    if let Some(timing) = args.flag("timing") {
        let timing = dcluster::TimingModel::parse(timing).ok_or_else(|| {
            format!("--timing: unknown model {timing:?} (use uncontended|contended)")
        })?;
        cluster_cfg = cluster_cfg.with_timing(timing);
    }
    let cluster = SimCluster::new(cluster_cfg);
    let mut config = SpcaConfig::new(d).with_max_iters(iters).with_seed(seed);
    if let Some(parts) = args.flag("partitions") {
        config = config.with_partitions(parts.parse().map_err(|e| format!("--partitions: {e}"))?);
    }
    if let Some(alg) = args.flag("algorithm") {
        let alg = spca_core::Algorithm::parse(alg)
            .ok_or_else(|| format!("--algorithm: unknown algorithm {alg:?} (use em|randomized)"))?;
        config = config.with_algorithm(alg);
    }
    if let Some(p) = args.flag("oversample") {
        config = config.with_rpca_oversample(p.parse().map_err(|e| format!("--oversample: {e}"))?);
    }
    if let Some(q) = args.flag("power-iters") {
        config =
            config.with_rpca_power_iters(q.parse().map_err(|e| format!("--power-iters: {e}"))?);
    }
    config.validate(y.cols()).map_err(|e| e.to_string())?;

    // --ledger FILE: capture a versioned machine-readable run ledger of
    // the fit (config fingerprint, per-iteration telemetry, category
    // attribution) — the artifact perf_gate diffs against baselines.
    let ledger_path = args.flag("ledger");
    args.reject_unread("fit")?;
    let ledger_collector = ledger_path.map(|_| {
        obs::ledger::install_sink();
        obs::install_new()
    });

    let run = match engine {
        "spark" => Spca::new(config).fit_spark(&cluster, &y),
        "mapreduce" | "mr" => Spca::new(config).fit_mapreduce(&cluster, &y),
        other => return Err(format!("unknown engine {other:?} (use spark|mapreduce)")),
    }
    .map_err(|e| e.to_string())?;

    if let (Some(path), Some(c)) = (ledger_path, ledger_collector) {
        let _ = obs::uninstall();
        let ledger = obs::ledger::RunLedger {
            tool: "spca-cli".to_string(),
            runs: obs::ledger::drain_sink(),
            dropped_events: c.dropped(),
            nesting_violations: c.nesting_violations(),
            collector_registry: c.registry().snapshot(),
        };
        std::fs::write(path, ledger.to_json()).map_err(|e| format!("{path}: {e}"))?;
        println!("run ledger written to: {path}");
    }

    std::fs::write(out, run.model.to_text()).map_err(|e| format!("{out}: {e}"))?;
    println!("fit {} components on the {engine} engine:", run.model.output_dim());
    for it in &run.iterations {
        println!(
            "  iter {:>2}: error {:.4}  ss {:.5}  t={:.1}s",
            it.iteration, it.error, it.ss, it.virtual_time_secs
        );
    }
    println!("simulated time    : {:.1} s", run.virtual_time_secs);
    if let Some(engine) = cluster.engine_stats() {
        let peak = cluster.link_stats().iter().map(|l| l.peak_util).fold(0.0_f64, f64::max);
        println!(
            "contended engine  : {} events, {} rate re-solves, peak link util {:.1}%",
            engine.events,
            engine.resolves,
            100.0 * peak
        );
    }
    println!("intermediate data : {} bytes", run.intermediate_bytes);
    println!("model written to  : {out}");
    Ok(())
}

fn transform(args: &Args<'_>) -> Result<(), String> {
    let y = load_data(args)?;
    let model = load_model(args)?;
    let out = args.required("o")?;
    args.reject_unread("transform")?;
    let x = model.transform_sparse(&y).map_err(|e| e.to_string())?;
    mio::save_dense(out, &x).map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out}: {} x {} latent coordinates", x.rows(), x.cols());
    Ok(())
}

/// Replays a multi-tenant serving mix on the simulated cluster: N
/// tenants answer batched transform requests against MODEL (drawn from
/// DATA's rows), optionally interleaved with background fit jobs, under
/// the selected job scheduler. All reported latencies are virtual
/// (modeled) time and bitwise reproducible for a given seed.
fn serve(args: &Args<'_>) -> Result<(), String> {
    use spca_core::serving::{run_serving, FitJob, ServeLoad, ServeSpec, TenantWorkload};

    let y = std::sync::Arc::new(load_data(args)?);
    let model = load_model(args)?;
    if y.cols() != model.input_dim() {
        return Err(format!(
            "data has {} columns but the model expects {}",
            y.cols(),
            model.input_dim()
        ));
    }
    let tenants: usize = args.numeric("tenants", 2)?;
    let batches: usize = args.numeric("batches", 100)?;
    let batch_rows: usize = args.numeric("batch-rows", 8)?;
    let rate: f64 = args.numeric("rate", 50.0)?;
    let fit_jobs: usize = args.numeric("fit-jobs", 0)?;
    let nodes: usize = args.numeric("nodes", 8)?;
    let seed: u64 = args.numeric("seed", 0x5eaf)?;
    let policy = args.flag("policy").unwrap_or("fair");
    let policy = dcluster::SchedulerPolicy::parse(policy)
        .ok_or_else(|| format!("--policy: unknown policy {policy:?} (use fifo|fair)"))?;

    let mut cluster_cfg = ClusterConfig::paper_cluster()
        .with_nodes(nodes)
        .with_scheduler(policy)
        .with_fair_share_weights(vec![1.0; tenants + 1]);
    if let Some(cap) = args.flag("queue-cap") {
        cluster_cfg = cluster_cfg
            .with_admission_queue_capacity(cap.parse().map_err(|e| format!("--queue-cap: {e}"))?);
    }
    if let Some(bytes) = args.flag("cache-bytes") {
        cluster_cfg = cluster_cfg
            .with_model_cache_bytes(bytes.parse().map_err(|e| format!("--cache-bytes: {e}"))?);
    }
    args.reject_unread("serve")?;
    let cluster = SimCluster::new(cluster_cfg);
    let total_cores = cluster.config().total_cores();

    let mut spec = ServeSpec::new(seed);
    let mut background = TenantWorkload { name: "background".into(), ..Default::default() };
    for i in 0..fit_jobs {
        background.fit_jobs.push(FitJob {
            id: format!("background-{i}"),
            submit_secs: 0.01 * i as f64,
            cores: total_cores,
            y: std::sync::Arc::clone(&y),
            config: SpcaConfig::new(model.output_dim()).with_max_iters(3).with_seed(seed),
        });
    }
    spec.tenants.push(background);
    for t in 0..tenants {
        spec.tenants.push(TenantWorkload {
            name: format!("tenant-{t}"),
            fit_jobs: vec![],
            serve: Some(ServeLoad {
                pool: std::sync::Arc::clone(&y),
                batches,
                batch_rows,
                rate_per_sec: rate,
                start_secs: 0.0,
            }),
            model: Some(model.clone()),
        });
    }

    let out = run_serving(&cluster, &spec).map_err(|e| e.to_string())?;
    println!("scheduler {policy}: {} fit jobs dispatched, {} rejected", out.schedule.records.len(), out.schedule.rejected.len());
    println!(
        "served {} requests in {} batches ({} rejected) across {nodes} nodes",
        out.requests_total, out.batches_total, out.rejected_total
    );
    for t in &out.tenants {
        if t.requests == 0 && t.jobs_completed == 0 {
            continue;
        }
        println!(
            "  {:<12} jobs {} (wait {:.2}s, run {:.2}s)  requests {:>8}  qps {:>8.1}  \
             cache hit {:>5.1}%  p50 {:.4}s  p99 {:.4}s",
            t.name,
            t.jobs_completed,
            t.wait_secs_total,
            t.run_secs_total,
            t.requests,
            t.qps,
            100.0 * t.cache_hit_rate(),
            t.latency_p50_secs,
            t.latency_p99_secs,
        );
    }
    println!("model pushes      : {} ({} re-broadcasts)", out.broadcasts, out.rebroadcasts);
    println!("virtual p50 / p99 : {:.4} s / {:.4} s", out.latency_p50_secs, out.latency_p99_secs);
    println!("virtual makespan  : {:.1} s", out.makespan_secs);
    println!("trace hash        : {:#018x}", out.trace_hash);
    Ok(())
}
