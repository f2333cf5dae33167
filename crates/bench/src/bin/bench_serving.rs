//! Multi-tenant serving benchmark: scheduler policies under mixed
//! fit+serve load.
//!
//! Replays one skewed tenant mix — a heavy tenant flooding the fit queue
//! plus light tenants that both fit and serve — under each scheduler
//! policy on one simulated cluster, and reports the serving latency
//! distribution (virtual p50/p99), throughput, admission/rejection and
//! model-cache counters, and the light tenants' p99 fit-job wait. The
//! headline claims the numbers back:
//!
//! * fair-share keeps the light tenants' p99 wait measurably below
//!   FIFO's convoy on the same queue;
//! * the full shape pushes ≥1M simulated transform requests across
//!   ≥128 virtual nodes, every one really projected through the fitted
//!   model (the trace hash pins the response bits).
//!
//! All latencies are virtual (modeled) time — bitwise identical on every
//! host — so the perf gate holds the counts and trace hashes exact and
//! bands only deliberate cost-model changes.
//!
//! Usage:
//!   bench_serving             # full shape (128 nodes, 1M+ requests), writes BENCH_serving.json
//!   bench_serving --smoke     # paper cluster, small mix, quick CI sanity run
//!   bench_serving --out FILE.json  # override the output path

use std::sync::Arc;

use dcluster::jobs::percentile;
use dcluster::{ClusterConfig, SchedulerPolicy, SimCluster};
use linalg::{Prng, SparseMat};
use spca_core::serving::{run_serving, FitJob, ServeLoad, ServeSpec, ServingOutcome, TenantWorkload};
use spca_core::SpcaConfig;

struct Shape {
    nodes: usize,
    cores_per_node: usize,
    heavy_jobs: usize,
    light_tenants: usize,
    batches_per_tenant: usize,
    batch_rows: usize,
    rate_per_sec: f64,
    fit_rows: usize,
    fit_cols: usize,
    d: usize,
    iters: usize,
}

impl Shape {
    fn requests(&self) -> u64 {
        (self.light_tenants * self.batches_per_tenant * self.batch_rows) as u64
    }
}

fn fit_matrix(shape: &Shape, seed: u64) -> Arc<SparseMat> {
    let mut rng = Prng::seed_from_u64(seed);
    let spec = datasets::LowRankSpec {
        rows: shape.fit_rows,
        cols: shape.fit_cols,
        ..datasets::LowRankSpec::small_test()
    };
    Arc::new(datasets::sparse_lowrank(&spec, &mut rng))
}

/// The skewed mix: tenant 0 floods whole-cluster fit jobs at t≈0 and
/// never serves; each light tenant submits one small fit job behind the
/// flood and serves its batch stream as soon as that model lands.
fn build_spec(shape: &Shape, total_cores: usize) -> ServeSpec {
    let heavy_y = fit_matrix(shape, 101);
    let mut spec = ServeSpec::new(0x5e41);
    let mut heavy = TenantWorkload { name: "heavy".into(), ..Default::default() };
    for i in 0..shape.heavy_jobs {
        heavy.fit_jobs.push(FitJob {
            id: format!("heavy-{i}"),
            submit_secs: 0.01 * i as f64,
            cores: total_cores,
            y: Arc::clone(&heavy_y),
            config: SpcaConfig::new(shape.d)
                .with_max_iters(shape.iters)
                .with_seed(29)
                .with_rel_tolerance(None),
        });
    }
    spec.tenants.push(heavy);
    for t in 0..shape.light_tenants {
        let y = fit_matrix(shape, 200 + t as u64);
        spec.tenants.push(TenantWorkload {
            name: format!("light-{t}"),
            fit_jobs: vec![FitJob {
                id: format!("light-{t}-fit"),
                submit_secs: 0.5 + 0.1 * t as f64,
                cores: (total_cores / 8).max(1),
                y: Arc::clone(&y),
                config: SpcaConfig::new(shape.d)
                    .with_max_iters(shape.iters)
                    .with_seed(31 + t as u64)
                    .with_rel_tolerance(None),
            }],
            serve: Some(ServeLoad {
                pool: y,
                batches: shape.batches_per_tenant,
                batch_rows: shape.batch_rows,
                rate_per_sec: shape.rate_per_sec,
                start_secs: 0.0,
            }),
            model: None,
        });
    }
    spec
}

struct PolicyResult {
    policy: SchedulerPolicy,
    out: ServingOutcome,
    light_p99_wait: f64,
}

fn run_policy(shape: &Shape, policy: SchedulerPolicy) -> PolicyResult {
    let cfg = ClusterConfig::paper_cluster()
        .with_nodes(shape.nodes)
        .with_cores_per_node(shape.cores_per_node)
        .with_scheduler(policy)
        .with_fair_share_weights(vec![1.0; shape.light_tenants + 1]);
    let total = cfg.total_cores();
    let cluster = SimCluster::new(cfg);
    let spec = build_spec(shape, total);
    let out = run_serving(&cluster, &spec).expect("serving run");
    let mut waits: Vec<f64> = out
        .schedule
        .records
        .iter()
        .filter(|r| r.tenant != 0)
        .map(|r| r.wait_secs())
        .collect();
    waits.sort_by(f64::total_cmp);
    let light_p99_wait = percentile(&waits, 99.0);
    PolicyResult { policy, out, light_p99_wait }
}

fn tenant_json(out: &ServingOutcome) -> String {
    out.tenants
        .iter()
        .map(|t| {
            format!(
                "        {{\"name\": \"{}\", \"jobs_completed\": {}, \"jobs_rejected\": {}, \
                 \"wait_virtual_secs\": {:.4}, \"run_virtual_secs\": {:.4}, \
                 \"requests\": {}, \"batches_rejected\": {}, \"cache_hit_rate\": {:.4}, \
                 \"qps_virtual\": {:.2}}}",
                t.name,
                t.jobs_completed,
                t.jobs_rejected,
                t.wait_secs_total,
                t.run_secs_total,
                t.requests,
                t.batches_rejected,
                t.cache_hit_rate(),
                t.qps,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

fn policy_json(r: &PolicyResult) -> String {
    format!(
        "    {{\n      \"policy\": \"{}\",\n      \"requests\": {},\n      \"batches\": {},\n      \
         \"rejected\": {},\n      \"model_broadcasts\": {},\n      \"model_rebroadcasts\": {},\n      \
         \"latency_p50_virtual_secs\": {:.6},\n      \"latency_p99_virtual_secs\": {:.6},\n      \
         \"light_p99_wait_virtual_secs\": {:.4},\n      \"makespan_virtual_secs\": {:.4},\n      \
         \"trace_hash\": \"{:#018x}\",\n      \"tenants\": [\n{}\n      ]\n    }}",
        r.policy.label(),
        r.out.requests_total,
        r.out.batches_total,
        r.out.rejected_total,
        r.out.broadcasts,
        r.out.rebroadcasts,
        r.out.latency_p50_secs,
        r.out.latency_p99_secs,
        r.light_p99_wait,
        r.out.makespan_secs,
        r.out.trace_hash,
        tenant_json(&r.out),
    )
}

fn main() {
    let (_trace, smoke, out_path) = spca_bench::cli::bench_args(
        "bench_serving",
        "Multi-tenant serving benchmark: scheduler policies under mixed fit+serve load",
        "Small mix on the paper cluster (quick CI sanity run)",
        &[],
    );

    let shape = if smoke {
        Shape {
            nodes: 8,
            cores_per_node: 8,
            heavy_jobs: 6,
            light_tenants: 2,
            batches_per_tenant: 50,
            batch_rows: 5,
            rate_per_sec: 40.0,
            fit_rows: 200,
            fit_cols: 60,
            d: 3,
            iters: 3,
        }
    } else {
        Shape {
            nodes: 128,
            cores_per_node: 8,
            heavy_jobs: 10,
            light_tenants: 4,
            batches_per_tenant: 2_600,
            batch_rows: 100,
            rate_per_sec: 60.0,
            fit_rows: 2_000,
            fit_cols: 500,
            d: 8,
            iters: 3,
        }
    };
    println!(
        "{} nodes x {} cores, {} heavy fit jobs, {} serving tenants, {} transform requests",
        shape.nodes,
        shape.cores_per_node,
        shape.heavy_jobs,
        shape.light_tenants,
        shape.requests(),
    );
    if !smoke {
        assert!(shape.nodes >= 100, "full shape must span >=100 virtual nodes");
        assert!(shape.requests() >= 1_000_000, "full shape must serve >=1M requests");
    }

    let mut results = Vec::new();
    for policy in SchedulerPolicy::all() {
        let r = run_policy(&shape, policy);
        println!(
            "{:<11}  served {:>9}  rejected {:>6}  p50 {:>9.4}s  p99 {:>9.4}s  \
             light-wait p99 {:>8.2}s  makespan {:>8.1}s",
            r.policy.label(),
            r.out.requests_total,
            r.out.rejected_total,
            r.out.latency_p50_secs,
            r.out.latency_p99_secs,
            r.light_p99_wait,
            r.out.makespan_secs,
        );
        results.push(r);
    }

    let fifo = results
        .iter()
        .find(|r| r.policy == SchedulerPolicy::Fifo)
        .expect("fifo result");
    let fair = results
        .iter()
        .find(|r| r.policy == SchedulerPolicy::FairShare)
        .expect("fair-share result");
    assert!(
        fair.light_p99_wait < fifo.light_p99_wait,
        "fair-share p99 light-tenant wait ({:.2}s) must beat FIFO ({:.2}s)",
        fair.light_p99_wait,
        fifo.light_p99_wait
    );
    let ratio = fair.light_p99_wait / fifo.light_p99_wait.max(1e-12);
    println!(
        "fair-share light-tenant p99 wait is {:.1}% of FIFO's",
        100.0 * ratio
    );

    let body: Vec<String> = results.iter().map(policy_json).collect();
    let json = format!(
        "{{\n  \"mode\": \"{}\",\n  \"shape\": {{\"nodes\": {}, \"cores_per_node\": {}, \
         \"heavy_jobs\": {}, \"light_tenants\": {}, \"batches_per_tenant\": {}, \
         \"batch_rows\": {}, \"requests\": {}}},\n  \
         \"fair_over_fifo_p99_wait_virtual_ratio\": {:.4},\n  \"policies\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        shape.nodes,
        shape.cores_per_node,
        shape.heavy_jobs,
        shape.light_tenants,
        shape.batches_per_tenant,
        shape.batch_rows,
        shape.requests(),
        ratio,
        body.join(",\n"),
    );
    obs::json::validate(&json).expect("benchmark JSON must be valid");
    std::fs::write(&out_path, &json).expect("write benchmark output");
    println!("wrote {out_path}");
}
