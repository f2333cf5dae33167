//! Scheduler-policy and serving-path determinism properties.
//!
//! The contract under test extends the fault-domain one to the new
//! multi-tenant layer: the job schedule, every fitted model, and the
//! full request/completion trace are pure functions of the spec, the
//! cluster config and the seeds — independent of host worker counts,
//! and bitwise-stable under chaos (node crash mid-serve, fault plans
//! during fits). On top of that, the policies must *differ* in the way
//! the paper's motivation says they should: fair-share keeps a skewed
//! tenant mix's light tenants out of the heavy tenant's convoy.

use std::sync::Arc;

use dcluster::jobs::percentile;
use dcluster::{ClusterConfig, FaultPlan, FaultSpec, SchedulerPolicy, SimCluster};
use linalg::{Prng, SparseMat, WorkerPool};
use spca_core::serving::{
    run_serving, FitJob, ServeChaos, ServeLoad, ServeSpec, ServingOutcome, TenantWorkload,
};
use spca_core::{PcaModel, Spca, SpcaConfig};

fn test_matrix(seed: u64) -> Arc<SparseMat> {
    let mut rng = Prng::seed_from_u64(seed);
    let spec = datasets::LowRankSpec::small_test();
    Arc::new(datasets::sparse_lowrank(&spec, &mut rng))
}

fn fit_config() -> SpcaConfig {
    SpcaConfig::new(3).with_max_iters(3).with_seed(17).with_rel_tolerance(None)
}

fn fit_job(id: &str, y: &Arc<SparseMat>, submit: f64, cores: usize) -> FitJob {
    FitJob {
        id: id.into(),
        submit_secs: submit,
        cores,
        y: Arc::clone(y),
        config: fit_config(),
    }
}

fn serve_load(pool: &Arc<SparseMat>, batches: usize) -> ServeLoad {
    ServeLoad {
        pool: Arc::clone(pool),
        batches,
        batch_rows: 4,
        rate_per_sec: 40.0,
        start_secs: 0.0,
    }
}

/// Two fitting+serving tenants plus one serve-only tenant with a
/// pre-fitted model — exercises scheduling, parking until model-ready,
/// and t=0 serving in one spec.
fn mixed_spec(prefit: &PcaModel) -> ServeSpec {
    let ya = test_matrix(31);
    let yb = test_matrix(32);
    let mut spec = ServeSpec::new(0xc0ffee);
    spec.tenants.push(TenantWorkload {
        name: "alpha".into(),
        fit_jobs: vec![fit_job("alpha-0", &ya, 0.0, 16), fit_job("alpha-1", &ya, 2.0, 8)],
        serve: Some(serve_load(&ya, 30)),
        model: None,
    });
    spec.tenants.push(TenantWorkload {
        name: "beta".into(),
        fit_jobs: vec![fit_job("beta-0", &yb, 0.5, 32)],
        serve: Some(serve_load(&yb, 20)),
        model: None,
    });
    spec.tenants.push(TenantWorkload {
        name: "gamma".into(),
        fit_jobs: vec![],
        serve: Some(serve_load(&ya, 25)),
        model: Some(prefit.clone()),
    });
    spec
}

fn prefit_model() -> PcaModel {
    let y = test_matrix(31);
    let cluster = SimCluster::new(ClusterConfig::paper_cluster());
    Spca::new(fit_config()).fit_spark(&cluster, &y).unwrap().model
}

fn run_on(workers: usize, policy: SchedulerPolicy, spec: &ServeSpec) -> ServingOutcome {
    let cfg = ClusterConfig::paper_cluster()
        .with_scheduler(policy)
        .with_fair_share_weights(vec![1.0, 1.0, 1.0]);
    let cluster = SimCluster::new_with_pool(cfg, Arc::new(WorkerPool::new(workers)));
    run_serving(&cluster, spec).unwrap()
}

fn model_hashes(out: &ServingOutcome) -> Vec<Option<u64>> {
    out.models.iter().map(|m| m.as_ref().map(PcaModel::content_hash)).collect()
}

#[test]
fn every_policy_is_bitwise_identical_across_host_worker_counts() {
    let prefit = prefit_model();
    let mut spec = mixed_spec(&prefit);
    // 350 batches in all: the batch precompute runs as three chunks on the
    // pool — one straddling two tenants, the last one short — that 1, 2
    // and 8 workers pick up in different orders.
    spec.tenants[2].serve.as_mut().expect("gamma serves").batches = 300;
    for policy in SchedulerPolicy::all() {
        let base = run_on(1, policy, &spec);
        assert!(base.batches_total > 0, "{policy}: nothing served");
        for workers in [2usize, 8] {
            let other = run_on(workers, policy, &spec);
            assert_eq!(
                base.trace_hash, other.trace_hash,
                "{policy}: trace diverged at {workers} workers"
            );
            assert_eq!(
                base.schedule.start_order, other.schedule.start_order,
                "{policy}: dispatch order diverged at {workers} workers"
            );
            assert_eq!(
                model_hashes(&base),
                model_hashes(&other),
                "{policy}: fitted models diverged at {workers} workers"
            );
            assert_eq!(base.makespan_secs, other.makespan_secs);
            assert_eq!(base.rejected_total, other.rejected_total);
        }
    }
}

#[test]
fn fair_share_beats_fifo_p99_wait_on_a_skewed_tenant_mix() {
    // Tenant 0 floods the queue with whole-cluster jobs at t≈0; tenants
    // 1 and 2 each submit a couple of small jobs just behind the flood.
    // Under FIFO the light jobs sit through the convoy; fair-share lets
    // them through as soon as their share is lowest.
    let y = test_matrix(40);
    let mut spec = ServeSpec::new(5);
    let mut heavy = TenantWorkload { name: "heavy".into(), ..Default::default() };
    for i in 0..10 {
        heavy.fit_jobs.push(fit_job(&format!("heavy-{i}"), &y, 0.01 * i as f64, 64));
    }
    spec.tenants.push(heavy);
    for (t, name) in ["light-a", "light-b"].iter().enumerate() {
        let mut tenant = TenantWorkload { name: (*name).into(), ..Default::default() };
        for i in 0..2 {
            tenant
                .fit_jobs
                .push(fit_job(&format!("{name}-{i}"), &y, 0.5 + t as f64 + i as f64, 8));
        }
        spec.tenants.push(tenant);
    }

    let p99_light_wait = |policy: SchedulerPolicy| -> f64 {
        let out = run_on(1, policy, &spec);
        let mut waits: Vec<f64> = out
            .schedule
            .records
            .iter()
            .filter(|r| r.tenant != 0)
            .map(|r| r.wait_secs())
            .collect();
        assert_eq!(waits.len(), 4, "{policy}: a light job went missing");
        waits.sort_by(f64::total_cmp);
        percentile(&waits, 99.0)
    };

    let fifo = p99_light_wait(SchedulerPolicy::Fifo);
    let fair = p99_light_wait(SchedulerPolicy::FairShare);
    assert!(
        fair < fifo,
        "fair-share p99 light-tenant wait ({fair:.3}s) should beat FIFO ({fifo:.3}s)"
    );
}

#[test]
fn crash_mid_serve_rebroadcasts_models_from_survivors() {
    let prefit = prefit_model();
    let mut spec = mixed_spec(&prefit);
    spec.chaos = Some(ServeChaos { crash_node: 2, at_batch: 10 });

    let clean = {
        let mut s = spec.clone();
        s.chaos = None;
        run_on(1, SchedulerPolicy::FairShare, &s)
    };
    let chaotic = run_on(1, SchedulerPolicy::FairShare, &spec);

    // No batch is lost: the crashed node's in-flight and queued work
    // re-dispatches to survivors (possibly re-pushing the model there).
    assert_eq!(chaotic.batches_total + chaotic.rejected_total, 75);
    assert!(chaotic.rebroadcasts >= 1, "survivors must re-receive an already-pushed model");
    // Chaos changes when and where — never what: same models, and the
    // fault-free run sees no rebroadcasts at all.
    assert_eq!(model_hashes(&clean), model_hashes(&chaotic));
    assert_eq!(clean.rebroadcasts, 0);

    // The chaotic timeline itself is deterministic across worker counts.
    let chaotic8 = run_on(8, SchedulerPolicy::FairShare, &spec);
    assert_eq!(chaotic.trace_hash, chaotic8.trace_hash);
    assert_eq!(chaotic.rebroadcasts, chaotic8.rebroadcasts);
}

#[test]
fn serve_chaos_composes_with_fit_side_fault_plans() {
    let prefit = prefit_model();
    let mut spec = mixed_spec(&prefit);
    spec.chaos = Some(ServeChaos { crash_node: 1, at_batch: 6 });

    let run = |faults: bool| -> ServingOutcome {
        let cfg = ClusterConfig::paper_cluster()
            .with_scheduler(SchedulerPolicy::FairShare)
            .with_fair_share_weights(vec![1.0, 1.0, 1.0]);
        let cluster = SimCluster::new_with_pool(cfg, Arc::new(WorkerPool::new(2)));
        if faults {
            let fault_spec = FaultSpec::new(0xfa).with_straggler_rate(0.2);
            // Both in alpha-0's first `YtXJob`.
            let plan = FaultPlan::new().with_crash(1, 2).with_crash(5, 2);
            cluster.install_fault_plan(fault_spec, plan).unwrap();
        }
        run_serving(&cluster, &spec).unwrap()
    };

    let clean = run(false);
    let faulty = run(true);
    // Fit-side crashes and stragglers never reach the models or the
    // serve trace: both hash identically (virtual fit *times* may move,
    // but the scheduler timeline is modeled, not measured).
    assert_eq!(model_hashes(&clean), model_hashes(&faulty));
    assert_eq!(clean.trace_hash, faulty.trace_hash);
}

#[test]
fn admission_control_rejects_deterministically_under_overload() {
    // Two 1-core nodes, queue depth 1, slow modeled compute, and a
    // 200-batch burst: most arrivals must bounce — identically on every
    // run and worker count.
    let prefit = prefit_model();
    let pool = test_matrix(31);
    let mut spec = ServeSpec::new(77);
    spec.flops_per_sec_per_core = 1e4; // milliseconds per batch
    spec.tenants.push(TenantWorkload {
        name: "burst".into(),
        fit_jobs: vec![],
        serve: Some(ServeLoad {
            pool,
            batches: 200,
            batch_rows: 4,
            rate_per_sec: 2000.0,
            start_secs: 0.0,
        }),
        model: Some(prefit),
    });
    let run = |workers: usize| {
        let cfg = ClusterConfig::paper_cluster()
            .with_nodes(2)
            .with_cores_per_node(1)
            .with_admission_queue_capacity(1);
        let cluster = SimCluster::new_with_pool(cfg, Arc::new(WorkerPool::new(workers)));
        run_serving(&cluster, &spec).unwrap()
    };
    let a = run(1);
    assert!(a.rejected_total > 0, "overload must trip admission control");
    assert_eq!(a.batches_total + a.rejected_total, 200);
    for workers in [2usize, 8] {
        let b = run(workers);
        assert_eq!(a.rejected_total, b.rejected_total);
        assert_eq!(a.trace_hash, b.trace_hash);
    }
}

#[test]
fn model_cache_evicts_lru_when_bytes_overflow() {
    // One node whose cache holds exactly one model, two tenants with
    // alternating traffic: every switch of tenant is a miss + eviction.
    let prefit = prefit_model();
    let pool = test_matrix(31);
    let mut spec = ServeSpec::new(13);
    for name in ["ping", "pong"] {
        spec.tenants.push(TenantWorkload {
            name: name.into(),
            fit_jobs: vec![],
            serve: Some(ServeLoad {
                pool: Arc::clone(&pool),
                batches: 12,
                batch_rows: 2,
                rate_per_sec: 5.0,
                start_secs: 0.0,
            }),
            model: Some(prefit.clone()),
        });
    }
    let cfg = ClusterConfig::paper_cluster()
        .with_nodes(1)
        .with_cores_per_node(8)
        .with_fair_share_weights(vec![1.0, 1.0])
        // Fits one encoded model (~a few hundred bytes), never two.
        .with_model_cache_bytes(1200);
    let cluster = SimCluster::new_with_pool(cfg, Arc::new(WorkerPool::new(1)));
    let out = run_serving(&cluster, &spec).unwrap();
    let evictions = cluster.registry().counter("serve.cache_evictions").get();
    assert!(evictions > 0, "cache thrash must evict");
    let misses: u64 = out.tenants.iter().map(|t| t.cache_misses).sum();
    let hits: u64 = out.tenants.iter().map(|t| t.cache_hits).sum();
    assert!(misses > 2, "alternating tenants on one node must re-miss, got {misses}");
    assert_eq!(hits + misses, 24, "every batch does exactly one cache lookup");
}

#[test]
fn job_scoped_checkpoints_do_not_cross_tenants() {
    // Two checkpointing fits share one cluster through the scheduler;
    // each model must equal its solo fresh-cluster, unscoped fit bit for
    // bit, and the run must leave no job namespaces behind.
    let ya = test_matrix(51);
    let yb = test_matrix(52);
    let config = fit_config().with_checkpoint_every(1);
    let solo = |y: &Arc<SparseMat>| {
        let cluster = SimCluster::new(ClusterConfig::paper_cluster());
        Spca::new(config.clone()).fit_spark(&cluster, y).unwrap().model.content_hash()
    };
    let (solo_a, solo_b) = (solo(&ya), solo(&yb));

    let mut spec = ServeSpec::new(3);
    for (name, y) in [("ckpt-a", &ya), ("ckpt-b", &yb)] {
        spec.tenants.push(TenantWorkload {
            name: name.into(),
            fit_jobs: vec![FitJob {
                id: name.into(),
                submit_secs: 0.0,
                cores: 32,
                y: Arc::clone(y),
                config: config.clone(),
            }],
            serve: None,
            model: None,
        });
    }
    let cluster = SimCluster::new(
        ClusterConfig::paper_cluster().with_fair_share_weights(vec![1.0, 1.0]),
    );
    let out = run_serving(&cluster, &spec).unwrap();
    assert_eq!(out.models[0].as_ref().unwrap().content_hash(), solo_a);
    assert_eq!(out.models[1].as_ref().unwrap().content_hash(), solo_b);
    assert!(cluster.dfs().registered_jobs().is_empty(), "namespaces must be released");
}
