//! Fault-domain benchmark: recovery overhead, speculation payoff, and
//! checkpoint/restart cost, on both engines.
//!
//! Four arms per engine, all fitting the same matrix with the same seed:
//!
//! * `baseline`      — fault-free run (the reference model + time).
//! * `faults_nospec` — generated node-crash plan (25% of nodes) plus
//!   stragglers, speculative execution OFF.
//! * `faults_spec`   — the same fault spec with speculation ON; simulated
//!   wall-clock must drop versus `faults_nospec`.
//! * `checkpoint`    — checkpointing every 2 iterations, driver killed
//!   mid-loop, run resumed from the DFS checkpoint.
//!
//! Every faulted arm must produce a model bit-identical to `baseline` —
//! the subsystem's core invariant — and the JSON records the recovery
//! counters (reattempts, recomputed partitions, re-replicated blocks,
//! speculation wins) plus the virtual-time overhead of each arm.
//!
//! Usage:
//!   bench_faults                  # full shape, writes BENCH_faults.json
//!   bench_faults --smoke          # small shape, quick CI sanity run
//!   bench_faults --out FILE.json  # override the output path

use dcluster::{ClusterConfig, FaultPlan, FaultSpec, SimCluster};
use linalg::{Prng, SparseMat};
use spca_core::{Spca, SpcaConfig, SpcaError, SpcaRun};

fn random_sparse(rng: &mut Prng, rows: usize, cols: usize, density: f64) -> SparseMat {
    let target = ((rows * cols) as f64 * density) as usize;
    let mut triplets = Vec::with_capacity(target);
    for _ in 0..target {
        triplets.push((rng.index(rows), rng.index(cols) as u32, rng.normal()));
    }
    SparseMat::from_triplets(rows, cols, &triplets)
}

fn model_bits(run: &SpcaRun) -> (Vec<u64>, Vec<u64>, u64) {
    (
        run.model.components().data().iter().map(|v| v.to_bits()).collect(),
        run.model.mean().iter().map(|v| v.to_bits()).collect(),
        run.model.noise_variance().to_bits(),
    )
}

fn fit(engine: &str, cluster: &SimCluster, y: &SparseMat, config: &SpcaConfig) -> SpcaRun {
    let r = match engine {
        "spark" => Spca::new(config.clone()).fit_spark(cluster, y),
        _ => Spca::new(config.clone()).fit_mapreduce(cluster, y),
    };
    r.expect("fit must succeed")
}

/// The chaos applied to the faulted arms: a quarter of the nodes crash
/// at seeded stages among the fit's `stages`, a fifth of all tasks
/// straggle at 6x.
fn fault_spec(stages: u64, speculation: bool) -> FaultSpec {
    FaultSpec::new(0xbe7c)
        .with_node_crash_rate(0.25)
        .with_crash_horizon_stages(stages)
        .with_straggler_rate(0.2)
        .with_straggler_slowdown(6.0)
        .with_speculation(speculation)
}

struct FaultCounts {
    reattempts: u64,
    recomputed: u64,
    blocks_lost: u64,
    replication_bytes: u64,
    spec_wins: u64,
}

fn counts(cluster: &SimCluster) -> FaultCounts {
    let reg = cluster.registry();
    FaultCounts {
        reattempts: reg.counter("faults.task_reattempts").get(),
        recomputed: reg.counter("faults.partitions_recomputed").get(),
        blocks_lost: reg.counter("faults.blocks_lost").get(),
        replication_bytes: reg.counter("faults.replication_bytes").get(),
        spec_wins: reg.counter("faults.speculative_wins").get(),
    }
}

struct EngineResult {
    engine: String,
    t_base: f64,
    t_nospec: f64,
    t_spec: f64,
    t_checkpoint: f64,
    nospec: FaultCounts,
    spec: FaultCounts,
    checkpoint_writes: u64,
    checkpoint_restores: u64,
}

fn run_engine(engine: &str, y: &SparseMat, config: &SpcaConfig) -> EngineResult {
    let nodes = ClusterConfig::paper_cluster().nodes;

    // Arm 1: fault-free reference.
    let c = SimCluster::new(ClusterConfig::paper_cluster());
    let base = fit(engine, &c, y, config);
    let bits = model_bits(&base);

    // Arm 2: crashes + stragglers, no speculation. Every planned crash
    // must land inside the fit: one stage per job on Spark (meanJob,
    // FnormJob, a YtXJob per iteration), a map and a reduce on MapReduce.
    let stages = c.metrics().stages.len() as u64;
    let c_nospec = SimCluster::new(ClusterConfig::paper_cluster());
    let spec = fault_spec(stages, false);
    let plan = FaultPlan::generate(&spec, nodes);
    assert!(!plan.events().is_empty(), "the generated plan must crash something");
    let planned = plan.events().len() as u64;
    c_nospec.install_fault_plan(spec, plan.clone()).unwrap();
    let nospec = fit(engine, &c_nospec, y, config);
    assert_eq!(bits, model_bits(&nospec), "{engine}: faulted model diverged from baseline");

    // Arm 3: identical chaos with speculative backups.
    let c_spec = SimCluster::new(ClusterConfig::paper_cluster());
    c_spec.install_fault_plan(fault_spec(stages, true), plan).unwrap();
    let spec_run = fit(engine, &c_spec, y, config);
    assert_eq!(bits, model_bits(&spec_run), "{engine}: speculation changed the model");
    for cluster in [&c_nospec, &c_spec] {
        let fired = cluster.registry().counter("faults.node_crashes").get();
        assert_eq!(fired, planned, "{engine}: {fired} of {planned} planned crashes fired");
    }
    assert!(
        spec_run.virtual_time_secs < nospec.virtual_time_secs,
        "{engine}: speculation must cut simulated wall-clock ({:.1}s vs {:.1}s)",
        spec_run.virtual_time_secs,
        nospec.virtual_time_secs
    );

    // Arm 4: checkpoint every 2 iterations, kill the driver mid-loop,
    // resume. Cost = crashed attempt + resumed run, both on one cluster.
    let c_ckpt = SimCluster::new(ClusterConfig::paper_cluster());
    let ckpt_config = config.clone().with_checkpoint_every(2);
    let crash_at = (config.max_iters / 2).max(1);
    let before = c_ckpt.metrics().virtual_time_secs;
    let crashing = ckpt_config.clone().with_crash_at_iteration(crash_at);
    let crashed = match engine {
        "spark" => Spca::new(crashing).fit_spark(&c_ckpt, y),
        _ => Spca::new(crashing).fit_mapreduce(&c_ckpt, y),
    };
    assert!(
        matches!(crashed, Err(SpcaError::DriverCrashed { .. })),
        "{engine}: the injected driver crash must surface"
    );
    let resumed = fit(engine, &c_ckpt, y, &ckpt_config);
    assert_eq!(bits, model_bits(&resumed), "{engine}: resumed model diverged from baseline");
    let t_checkpoint = c_ckpt.metrics().virtual_time_secs - before;
    let reg = c_ckpt.registry();
    assert!(reg.counter("faults.checkpoint_restores").get() > 0, "{engine}: no restore happened");

    EngineResult {
        engine: engine.to_string(),
        t_base: base.virtual_time_secs,
        t_nospec: nospec.virtual_time_secs,
        t_spec: spec_run.virtual_time_secs,
        t_checkpoint,
        nospec: counts(&c_nospec),
        spec: counts(&c_spec),
        checkpoint_writes: reg.counter("faults.checkpoint_writes").get(),
        checkpoint_restores: reg.counter("faults.checkpoint_restores").get(),
    }
}

fn engine_json(r: &EngineResult) -> String {
    let overhead = r.t_nospec / r.t_base.max(1e-12);
    let spec_saving = 1.0 - r.t_spec / r.t_nospec.max(1e-12);
    format!(
        "    {{\n      \"engine\": \"{}\",\n      \"baseline_secs\": {:.3},\n      \"faults_nospec_secs\": {:.3},\n      \"faults_spec_secs\": {:.3},\n      \"checkpoint_crash_resume_secs\": {:.3},\n      \"recovery_overhead\": {:.4},\n      \"speculation_saving\": {:.4},\n      \"task_reattempts\": {},\n      \"partitions_recomputed\": {},\n      \"blocks_lost\": {},\n      \"replication_bytes\": {},\n      \"speculative_wins\": {},\n      \"checkpoint_writes\": {},\n      \"checkpoint_restores\": {},\n      \"model_bitwise_equal\": true\n    }}",
        r.engine,
        r.t_base,
        r.t_nospec,
        r.t_spec,
        r.t_checkpoint,
        overhead,
        spec_saving,
        r.nospec.reattempts,
        r.nospec.recomputed,
        r.nospec.blocks_lost,
        r.nospec.replication_bytes,
        r.spec.spec_wins,
        r.checkpoint_writes,
        r.checkpoint_restores,
    )
}

fn main() {
    let (_trace, smoke, out_path) = spca_bench::cli::bench_args(
        "bench_faults",
        "Fault-domain benchmark: recovery overhead, speculation payoff, checkpoint/restart",
        "Small shape (quick CI sanity run)",
        &[],
    );

    let (n, d_in, density, d, iters) =
        if smoke { (600, 150, 2e-2, 4, 4) } else { (20_000, 2_000, 2e-3, 16, 6) };
    let mut rng = Prng::seed_from_u64(2015);
    let y = random_sparse(&mut rng, n, d_in, density);
    let config = SpcaConfig::new(d).with_max_iters(iters).with_rel_tolerance(None);

    println!(
        "Y: {n}x{d_in} ({} nnz), d={d}, {iters} iterations, 8-node paper cluster",
        y.nnz()
    );

    let mut engines = Vec::new();
    for engine in ["spark", "mapreduce"] {
        let r = run_engine(engine, &y, &config);
        println!(
            "{:<9}  base {:>8.1}s  faults {:>8.1}s  +spec {:>8.1}s  ckpt {:>8.1}s  \
             reattempts {}  recomputed {}  spec-wins {}",
            r.engine,
            r.t_base,
            r.t_nospec,
            r.t_spec,
            r.t_checkpoint,
            r.nospec.reattempts,
            r.nospec.recomputed,
            r.spec.spec_wins,
        );
        engines.push(r);
    }

    let body: Vec<String> = engines.iter().map(engine_json).collect();
    let json = format!(
        "{{\n  \"mode\": \"{}\",\n  \"shape\": {{\"rows\": {n}, \"cols\": {d_in}, \"density\": {density}, \"nnz\": {}, \"d\": {d}, \"iters\": {iters}}},\n  \"engines\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        y.nnz(),
        body.join(",\n"),
    );
    obs::json::validate(&json).expect("benchmark JSON must be valid");
    std::fs::write(&out_path, &json).expect("write benchmark output");
    println!("wrote {out_path}");
}
