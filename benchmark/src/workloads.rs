//! The six workloads: how each builds its inputs from the seed, what one
//! operation is, and what a correct operation looks like.
//!
//! Work per operation is fixed — iterations, passes and request counts
//! are constants of the workload and the tolerance stop is off — so
//! `host_s` compares like with like and `final_error` carries accuracy.
//! The program under test sees only the generated inputs, never the seed
//! itself (it reaches `SpcaConfig::seed` the way a user would set it).

use std::sync::Arc;

use dcluster::jobs::percentile;
use dcluster::{ClusterConfig, SchedulerPolicy, SimCluster, TimingModel};
use linalg::{Prng, SparseMat};
use spca_core::serving::{
    run_serving, FitJob, ServeLoad, ServeSpec, ServingOutcome, TenantWorkload,
};
use spca_core::{Algorithm, Spca, SpcaConfig, SpcaRun};

/// Which simulated platform a fit workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `Spca::fit_spark`.
    Spark,
    /// `Spca::fit_mapreduce`.
    MapReduce,
}

/// Everything an operation consumes, built once per set-up (one value
/// per process, so the variants' sizes do not matter).
#[allow(clippy::large_enum_variant)]
pub enum Inputs {
    /// One whole `fit_*` call.
    Fit {
        /// The input matrix.
        y: SparseMat,
        /// Fit configuration (fixed work, seed-derived RNG seed).
        config: SpcaConfig,
        /// Hardware description; every operation gets a fresh cluster.
        cluster: ClusterConfig,
        /// Platform.
        engine: Engine,
        /// `final_error` must stay under this on every seed.
        error_ceiling: f64,
    },
    /// One `run_serving` call over a mixed fit+serve tenant mix.
    Serve {
        /// The tenant mix.
        spec: ServeSpec,
        /// Hardware description.
        cluster: ClusterConfig,
        /// Transform requests the spec asks for.
        requests: u64,
        /// Ceiling on the served models' mean reconstruction error.
        error_ceiling: f64,
    },
}

/// Cluster meters read through the public API after an operation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Meters {
    pub network_bytes: u64,
    pub dfs_bytes_written: u64,
    pub dfs_bytes_read: u64,
    pub intermediate_bytes: u64,
    pub driver_peak_bytes: u64,
    /// Tasks per executed stage, in execution order.
    pub stage_tasks: Vec<usize>,
    pub clock_violations: u64,
    /// Virtual µs per `TimeCategory` (cpu, scheduler, network, disk,
    /// recovery); cpu is derived from measured host task time.
    pub time_us: [u64; 5],
    /// Σ `StageRecord::cpu_secs` (host).
    pub task_cpu_s: f64,
    pub engine_events: u64,
    pub engine_resolves: u64,
    pub peak_link_util: f64,
}

impl Meters {
    /// Reads every meter `cluster` exposes.
    pub fn read(cluster: &SimCluster) -> Meters {
        let m = cluster.metrics();
        let engine = cluster.engine_stats().unwrap_or_default();
        Meters {
            network_bytes: m.network_bytes,
            dfs_bytes_written: m.dfs_bytes_written,
            dfs_bytes_read: m.dfs_bytes_read,
            intermediate_bytes: m.intermediate_bytes,
            driver_peak_bytes: m.driver_peak_bytes,
            stage_tasks: m.stages.iter().map(|s| s.tasks).collect(),
            clock_violations: m.clock_violations,
            time_us: m.time_us,
            task_cpu_s: m.stages.iter().map(|s| s.cpu_secs).sum(),
            engine_events: engine.events,
            engine_resolves: engine.resolves,
            peak_link_util: cluster
                .link_stats()
                .iter()
                .map(|l| l.peak_util)
                .fold(0.0, f64::max),
        }
    }

    /// The meters that are pure functions of the inputs: two operations
    /// of one workload must agree on every one of them.
    fn deterministic(&self) -> ([u64; 5], &[usize]) {
        let bytes = [
            self.network_bytes,
            self.dfs_bytes_written,
            self.dfs_bytes_read,
            self.intermediate_bytes,
            self.driver_peak_bytes,
        ];
        (bytes, &self.stage_tasks)
    }
}

/// What the program returned, kept from the last operation for the replay.
pub enum Detail {
    Fit(SpcaRun),
    Serve(Box<ServingOutcome>),
}

/// One operation's numbers.
pub struct Outcome {
    /// `PcaModel::content_hash` or `ServingOutcome::trace_hash`.
    pub hash: u64,
    /// Virtual cluster seconds the operation consumed (serve: makespan).
    pub virtual_s: f64,
    /// The paper's §5.2 number (`SpcaRun::intermediate_bytes`; serve: the
    /// cluster meter over the whole mix).
    pub intermediate_bytes: u64,
    /// Sampled reconstruction error after the first pass (serve: infinite
    /// — the outcome carries no per-pass history to compare with).
    pub first_error: f64,
    /// Sampled reconstruction error after the last pass (serve: mean over
    /// the served models, each on a 256-row sample of its request pool).
    pub final_error: f64,
    /// Passes the fit ran (serve: 0).
    pub passes: u64,
    pub meters: Meters,
    pub detail: Detail,
}

fn random_sparse(rng: &mut Prng, rows: usize, cols: usize, density: f64) -> SparseMat {
    let target = ((rows * cols) as f64 * density) as usize;
    let mut triplets = Vec::with_capacity(target);
    for _ in 0..target {
        triplets.push((rng.index(rows), rng.index(cols) as u32, rng.normal()));
    }
    SparseMat::from_triplets(rows, cols, &triplets)
}

fn em_config(seed: u64, d: usize, iters: usize, partitions: usize) -> SpcaConfig {
    SpcaConfig::new(d)
        .with_max_iters(iters)
        .with_rel_tolerance(None)
        .with_partitions(partitions)
        .with_seed(seed)
}

fn tweets(seed: u64) -> SparseMat {
    datasets::tweets::generate(100_000, 10_000, &mut Prng::seed_from_u64(seed))
}

/// The `bench_serving` full mix under fair-share: tenant 0 floods ten
/// whole-cluster fits at t≈0 and never serves; four light tenants each
/// fit a 2 000×500 model behind the flood and serve 2 600 batches of 100
/// rows at 60 batches per virtual second as soon as it lands. The
/// request stream is open-loop in virtual time; on the host it is one
/// call.
fn serving_mix(seed: u64) -> Inputs {
    const LIGHT_TENANTS: usize = 4;
    const HEAVY_JOBS: usize = 10;
    const BATCHES: usize = 2_600;
    const BATCH_ROWS: usize = 100;
    let cluster = ClusterConfig::paper_cluster()
        .with_nodes(128)
        .with_cores_per_node(8)
        .with_scheduler(SchedulerPolicy::FairShare)
        .with_fair_share_weights(vec![1.0; LIGHT_TENANTS + 1]);
    let total_cores = cluster.total_cores();
    let fit_matrix = |salt: u64| {
        let spec = datasets::LowRankSpec {
            rows: 2_000,
            cols: 500,
            ..datasets::LowRankSpec::small_test()
        };
        Arc::new(datasets::sparse_lowrank(
            &spec,
            &mut Prng::seed_from_u64(seed ^ salt),
        ))
    };
    let fit_config = |salt: u64| {
        SpcaConfig::new(8)
            .with_max_iters(3)
            .with_rel_tolerance(None)
            .with_seed(seed ^ salt)
    };

    let mut spec = ServeSpec::new(seed ^ 0x5e41);
    let heavy_y = fit_matrix(101);
    let mut heavy = TenantWorkload {
        name: "heavy".into(),
        ..Default::default()
    };
    for i in 0..HEAVY_JOBS {
        heavy.fit_jobs.push(FitJob {
            id: format!("heavy-{i}"),
            submit_secs: 0.01 * i as f64,
            cores: total_cores,
            y: Arc::clone(&heavy_y),
            config: fit_config(29),
        });
    }
    spec.tenants.push(heavy);
    for t in 0..LIGHT_TENANTS {
        let y = fit_matrix(200 + t as u64);
        spec.tenants.push(TenantWorkload {
            name: format!("light-{t}"),
            fit_jobs: vec![FitJob {
                id: format!("light-{t}-fit"),
                submit_secs: 0.5 + 0.1 * t as f64,
                cores: (total_cores / 8).max(1),
                y: Arc::clone(&y),
                config: fit_config(31 + t as u64),
            }],
            serve: Some(ServeLoad {
                pool: y,
                batches: BATCHES,
                batch_rows: BATCH_ROWS,
                rate_per_sec: 60.0,
                start_secs: 0.0,
            }),
            model: None,
        });
    }
    Inputs::Serve {
        spec,
        cluster,
        requests: (LIGHT_TENANTS * BATCHES * BATCH_ROWS) as u64,
        error_ceiling: SERVE_ERROR_CEILING,
    }
}

// Ceilings on `final_error`: at least 5 % above the largest value seen on
// seeds 0..=13 and 2015 when the benchmark was defined (largest seen in
// brackets). The error is a property of the generated data as much as of
// the fit — on the dense spectra it ranges 0.025..0.047 from seed to seed
// — so a ceiling catches a collapse in accuracy on any seed, and
// `compare` (exact on one seed) catches a drift.
const EM_SPARSE_ERROR_CEILING: f64 = 1.98; // [1.886]
const EM_DENSE_ERROR_CEILING: f64 = 0.07; // [0.0469]
const RPCA_ERROR_CEILING: f64 = 2.07; // [1.966]
const SIM_ERROR_CEILING: f64 = 1.75; // [1.575]
const SERVE_ERROR_CEILING: f64 = 1.82; // [1.699; one tenant alone 1.731]

/// Builds the named workload's inputs from `seed`; `None` for a name
/// [`crate::spec::WORKLOADS`] does not list.
pub fn generate(workload: &str, seed: u64) -> Option<Inputs> {
    let fit = |y, config, cluster, engine, error_ceiling| {
        Some(Inputs::Fit {
            y,
            config,
            cluster,
            engine,
            error_ceiling,
        })
    };
    match workload {
        "em_spark_sparse" => fit(
            tweets(seed),
            em_config(seed, 50, 6, 32),
            ClusterConfig::scaled_cluster(),
            Engine::Spark,
            EM_SPARSE_ERROR_CEILING,
        ),
        "em_mr_sparse" => fit(
            tweets(seed),
            em_config(seed, 50, 6, 32),
            ClusterConfig::scaled_cluster(),
            Engine::MapReduce,
            EM_SPARSE_ERROR_CEILING,
        ),
        "em_spark_dense" => fit(
            datasets::diabetes::generate_sparse(12_000, 1_000, &mut Prng::seed_from_u64(seed)),
            em_config(seed, 50, 6, 64),
            ClusterConfig::paper_cluster(),
            Engine::Spark,
            EM_DENSE_ERROR_CEILING,
        ),
        "rpca_spark_sparse" => fit(
            tweets(seed),
            // Passes are set by the power-iteration count, not `max_iters`.
            em_config(seed, 50, 3, 32)
                .with_algorithm(Algorithm::Randomized)
                .with_rpca_oversample(10)
                .with_rpca_power_iters(2),
            ClusterConfig::scaled_cluster(),
            Engine::Spark,
            RPCA_ERROR_CEILING,
        ),
        "sim_contended_1000n" => fit(
            random_sparse(&mut Prng::seed_from_u64(seed), 8_000, 1_000, 2e-3),
            em_config(seed, 8, 12, 2_001),
            ClusterConfig::scaled_cluster()
                .with_nodes(1_000)
                .with_timing(TimingModel::Contended),
            Engine::Spark,
            SIM_ERROR_CEILING,
        ),
        "serve_fair_128n" => Some(serving_mix(seed)),
        _ => None,
    }
}

/// Runs one operation on a fresh cluster. Returns the outcome and the
/// host seconds of the `fit_*` / `run_serving` call alone.
pub fn operate(inputs: &Inputs) -> Result<(Outcome, f64), String> {
    match inputs {
        Inputs::Fit {
            y,
            config,
            cluster,
            engine,
            ..
        } => {
            let cluster = SimCluster::new(cluster.clone());
            let spca = Spca::new(config.clone());
            let start = std::time::Instant::now();
            let run = match engine {
                Engine::Spark => spca.fit_spark(&cluster, y),
                Engine::MapReduce => spca.fit_mapreduce(&cluster, y),
            };
            let host_s = start.elapsed().as_secs_f64();
            let run = run.map_err(|e| e.to_string())?;
            let outcome = Outcome {
                hash: run.model.content_hash(),
                virtual_s: run.virtual_time_secs,
                intermediate_bytes: run.intermediate_bytes,
                first_error: run.iterations.first().map_or(f64::NAN, |s| s.error),
                final_error: run.final_error(),
                passes: run.iterations.len() as u64,
                meters: Meters::read(&cluster),
                detail: Detail::Fit(run),
            };
            Ok((outcome, host_s))
        }
        Inputs::Serve { spec, cluster, .. } => {
            let cluster = SimCluster::new(cluster.clone());
            let start = std::time::Instant::now();
            let out = run_serving(&cluster, spec);
            let host_s = start.elapsed().as_secs_f64();
            let out = out.map_err(|e| e.to_string())?;
            let meters = Meters::read(&cluster);
            // Accuracy of what is being served: each serving tenant's
            // model against a sample of the rows it is asked to project.
            let mut errors = Vec::new();
            for (tenant, model) in spec.tenants.iter().zip(&out.models) {
                if let (Some(serve), Some(model)) = (&tenant.serve, model) {
                    let sample = spca_core::accuracy::sample_rows(&serve.pool, 256, spec.seed);
                    errors.push(
                        spca_core::accuracy::reconstruction_error(&sample, model)
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
            let final_error = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
            let outcome = Outcome {
                hash: out.trace_hash,
                virtual_s: out.makespan_secs,
                intermediate_bytes: meters.intermediate_bytes,
                first_error: f64::INFINITY,
                final_error,
                passes: 0,
                meters,
                detail: Detail::Serve(Box::new(out)),
            };
            Ok((outcome, host_s))
        }
    }
}

/// p99 queueing delay of the light tenants' fit jobs, virtual seconds.
pub fn light_wait_p99(out: &ServingOutcome) -> f64 {
    let mut waits: Vec<f64> = out
        .schedule
        .records
        .iter()
        .filter(|r| r.tenant != 0)
        .map(|r| r.wait_secs())
        .collect();
    waits.sort_by(f64::total_cmp);
    percentile(&waits, 99.0)
}

/// EM does not diverge: the last pass's error stays near or under the
/// first's. Not `<=` outright — the error is a 1-norm over 256 sampled
/// rows, not the objective EM descends, and on data with nothing to find
/// (`sim_contended_1000n` is pure noise; the dense spectra converge in
/// one pass) it wanders a few percent either way from seed to seed.
const FIRST_PASS_SLACK: f64 = 1.25;

/// Checks one operation against the first of its workload (its result
/// hash and meters) and the workload's own invariants; returns one line
/// per failed check.
pub fn check(inputs: &Inputs, first_hash: u64, first_meters: &Meters, op: &Outcome) -> Vec<String> {
    let mut bad = Vec::new();
    if op.hash != first_hash {
        bad.push(format!(
            "result hash {:#018x} differs from the first operation's {first_hash:#018x}",
            op.hash
        ));
    }
    if op.meters.deterministic() != first_meters.deterministic() {
        bad.push("byte / stage meters differ from the first operation's".into());
    }
    let ceiling = match inputs {
        Inputs::Fit { error_ceiling, .. } | Inputs::Serve { error_ceiling, .. } => *error_ceiling,
    };
    if !op.final_error.is_finite() {
        bad.push(format!("final_error {} is not finite", op.final_error));
    } else if op.final_error > FIRST_PASS_SLACK * op.first_error {
        bad.push(format!(
            "final_error {} is more than {FIRST_PASS_SLACK} x the first pass's {}",
            op.final_error, op.first_error
        ));
    } else if op.final_error > ceiling {
        bad.push(format!(
            "final_error {} above the workload's ceiling {ceiling}",
            op.final_error
        ));
    }
    if op.meters.clock_violations != 0 {
        bad.push(format!("{} clock violations", op.meters.clock_violations));
    }
    if op.meters.peak_link_util > 1.0 + 1e-9 {
        bad.push(format!(
            "a link ran at {} of its capacity",
            op.meters.peak_link_util
        ));
    }
    if let (Inputs::Serve { requests, .. }, Detail::Serve(out)) = (inputs, &op.detail) {
        if out.requests_total != *requests {
            bad.push(format!(
                "served {} requests, the spec asks for {requests}",
                out.requests_total
            ));
        }
    }
    bad
}
