//! The pass loop all four arms run on — Algorithm 4's driver program,
//! written once.
//!
//! The paper's driver is "distributed job, then small algebra on a single
//! machine", repeated, wrapped in resume / score / checkpoint / stop. The
//! randomized arm and both baselines (a Mahout-SSVD round, MLlib-PCA's one
//! Gram pass) have that shape with other pass bodies, so the wrapping lives
//! here and only the body is per-arm.
//!
//! **[`run_passes`] owns the pass policy:** the input checks, the driver
//! memory reservation, the checkpoint restore, and per pass the trace
//! window, the sampled reconstruction error and its [`IterationStat`], the
//! per-category time deltas, the trace counters and ledger row, the stop
//! decision, the pass-boundary checkpoint, the injected crash; then the
//! checkpoint delete, the `RunRecord` and the [`SpcaRun`]. It never looks
//! at `SpcaConfig::algorithm`.
//!
//! **A [`PassArm`] owns the algorithm:** its engine jobs, the one-time
//! jobs, the state the passes update (`C`/`ss` for EM, the basis `W` for
//! randomized), the pass body, how that state becomes a [`PcaModel`], what
//! the driver reserves, the ledger's config fingerprint, and whether it may
//! be checkpointed as a run's last word: [`crate::em::EmArm`] and
//! [`crate::rpca::RpcaArm`] (each engine's `fit_with_input` picks one), and
//! `baselines`' `MahoutArm` and `MllibArm`, which never checkpoint.
//!
//! **[`ArmNames`] exists because the arms' output spellings are an
//! interface.** `run_em` / `run_rpca`, `iteration N` / `pass N` and the
//! `em.*` / `rpca.*` counter families are read by `obs::critpath`,
//! `trace_report`, the committed ledgers and the docs; they predate this
//! module and do not follow one pattern (`em.iter.*` but `iteration N`), so
//! each arm states them in a table instead of the loop deriving them:
//!
//! | Arm | `run` | `count_key` | `pass` | `counters` | `category_infix` |
//! |---|---|---|---|---|---|
//! | PPCA-EM | `run_em` | `iterations` | `iteration` | `em` | `iter` |
//! | randomized | `run_rpca` | `passes` | `pass` | `rpca` | `pass` |
//! | Mahout-SSVD | `run_mahout` | `rounds` | `round` | `mahout` | `round` |
//! | MLlib-PCA | `run_mllib` | `passes` | `pass` | `mllib` | `pass` |

use dcluster::SimCluster;
use linalg::{Mat, SparseMat};

use crate::accuracy;
use crate::checkpoint::EmCheckpoint;
use crate::config::SpcaConfig;
use crate::error::SpcaError;
use crate::model::{IterationStat, PcaModel, SpcaRun};
use crate::Result;

/// One arm's spellings in traces and ledgers (see the module docs).
pub struct ArmNames {
    /// The virtual `run` window and host span: `run_em` / `run_rpca`.
    pub run: &'static str,
    /// Key of the pass count on the `run` window's end: `iterations` /
    /// `passes`.
    pub count_key: &'static str,
    /// What a pass is called in window labels: `iteration 3` / `pass 3`.
    pub pass: &'static str,
    /// Counter family: `em` / `rpca`.
    pub counters: &'static str,
    /// Infix of the per-category series: `em.iter.cpu_secs` /
    /// `rpca.pass.cpu_secs`.
    pub category_infix: &'static str,
}

/// Input shape and the width of the arm's D×`width` driver state (`d` for
/// EM's `C`, the sketch width `K` for the randomized `W`): what sizes the
/// default driver reservation and what a checkpoint must match.
pub struct Dims {
    pub n: usize,
    pub d_in: usize,
    pub width: usize,
}

/// The per-algorithm half of the driver program.
pub trait PassArm {
    fn names(&self) -> &'static ArmNames;
    fn dims(&self) -> Dims;
    /// Pass cap: the loop runs passes `1..=max_passes` unless a stop
    /// condition ends it earlier.
    fn max_passes(&self) -> usize;
    /// Bytes the driver reserves for the run. By default the D×`width`
    /// state, its broadcast form, the pass's result and scratch, plus the
    /// mean: Figure 8's point is that sPCA's driver does not grow with D².
    fn driver_bytes(&self) -> u64 {
        let Dims { d_in, width, .. } = self.dims();
        4 * (d_in * width * 8) as u64 + (d_in * 8) as u64
    }
    /// The ledger's config fingerprint, before the cluster's keys join it.
    fn fingerprint(&self, config: &SpcaConfig) -> Vec<(String, String)> {
        config.fingerprint()
    }
    /// DFS name of this fit's checkpoint. Distinct per arm, so one arm's
    /// crash state is invisible to the other. (The checkpoint defaults
    /// suit an arm whose fits set no `checkpoint_every`.)
    fn checkpoint_file(&self) -> String {
        String::new()
    }
    /// The arm's own arguments on the `run` trace window, after `N`/`D`/`d`.
    fn run_args(&self) -> Vec<(&'static str, obs::ArgValue)> {
        Vec::new()
    }
    /// One-time jobs and initial state. Also runs on a resume: the jobs
    /// are deterministic, so recomputing them reproduces the original
    /// values.
    fn prepare(&mut self);
    /// Replaces the pass state with a checkpoint's.
    fn restore(&mut self, _state: Mat, _ss: f64) {
        unreachable!("restore on an arm that never checkpoints")
    }
    /// Runs pass number `pass` and returns the arm's convergence objective
    /// (a ledger/trace series).
    fn pass(&mut self, pass: usize) -> Result<f64>;
    /// The model the current state stands for.
    fn model(&self) -> PcaModel;
    /// The sampled reconstruction error of `model`, this pass's
    /// [`Self::model`]. An arm that already holds the model's `CM` lends it
    /// here; the result must be [`accuracy::reconstruction_error`]'s bits.
    fn sampled_error(&self, sample: &SparseMat, model: &PcaModel) -> Result<f64> {
        accuracy::reconstruction_error(sample, model)
    }
    /// The state to checkpoint after the pass just run, or `None` when
    /// `run_over` and that state does not carry the finished model: the
    /// previous checkpoint then stays, and a resume re-runs the pass.
    fn checkpoint_state(&self, _run_over: bool) -> Option<(Mat, f64)> {
        None
    }
}

/// STOP_CONDITION: the target error is reached, or the sampled error moved
/// by no more than the relative tolerance since the previous pass.
fn stop_fired(config: &SpcaConfig, error: f64, prev_error: f64) -> bool {
    config.target_error.is_some_and(|target| error <= target)
        || config.rel_tolerance.is_some_and(|tol| {
            prev_error.is_finite() && (prev_error - error).abs() <= tol * prev_error.abs()
        })
}

/// Runs `arm`'s passes to completion on `cluster`.
///
/// `error_sample` is the pre-drawn row sample the per-pass accuracy
/// estimate uses; it is instrumentation and charged to neither engine.
pub fn run_passes(
    cluster: &SimCluster,
    arm: &mut dyn PassArm,
    error_sample: &SparseMat,
    config: &SpcaConfig,
) -> Result<SpcaRun> {
    let names = arm.names();
    let Dims { n, d_in, width } = arm.dims();
    let d = config.components;
    if n == 0 || d_in == 0 {
        return Err(SpcaError::EmptyInput);
    }
    if d > d_in.min(n) {
        return Err(SpcaError::TooManyComponents { requested: d, available: d_in.min(n) });
    }
    let max_passes = arm.max_passes();

    let start = cluster.metrics();
    // Run-ledger capture: skipped entirely (no record construction) when
    // no sink is installed.
    let ledger_on = obs::ledger::sink_enabled();
    let mut ledger_rows: Vec<obs::ledger::IterationRow> = Vec::new();

    // Before the `run` window opens, so a driver OOM leaves none unclosed.
    let _driver_guard = cluster.alloc_driver(arm.driver_bytes())?;

    let _run_host_span = obs::span_lazy("run", || format!("{} N={n} D={d_in} d={d}", names.run));
    if obs::enabled() {
        let mut args =
            vec![("N", (n as u64).into()), ("D", (d_in as u64).into()), ("d", (d as u64).into())];
        args.extend(arm.run_args());
        args.push(("codec", cluster.wire_codec().label().into()));
        cluster.trace_begin("run", names.run, args);
    }

    arm.prepare();

    let mut iterations: Vec<IterationStat> = Vec::new();
    let mut prev_error = f64::INFINITY;

    // Resume: with checkpointing enabled and a readable checkpoint of the
    // right shape on the DFS, continue from it instead of restarting. A
    // missing/lost/corrupt/mismatched blob is a fresh start — recovery
    // code must tolerate anything a crash can leave behind. A checkpoint
    // of a run-ending pass names the pass cap, so nothing is left to run
    // and the restored state is the model.
    let mut first_pass = 1;
    let checkpoint_file = arm.checkpoint_file();
    if config.checkpoint_every.is_some() {
        let restored = cluster
            .dfs()
            .get_blob(cluster, &checkpoint_file)
            .ok()
            .and_then(|blob| EmCheckpoint::decode(&blob).ok())
            .filter(|ck| (ck.c.rows(), ck.c.cols()) == (d_in, width));
        if let Some(ck) = restored {
            cluster.note_checkpoint_restored(ck.iteration as u64);
            first_pass = ck.iteration + 1;
            prev_error = ck.prev_error;
            arm.restore(ck.c, ck.ss);
        }
    }

    for pass in first_pass..=max_passes {
        let cat_start = cluster.category_time_us();
        let window = format!("{} {pass}", names.pass);
        if obs::enabled() {
            cluster.trace_begin("iteration", &window, Vec::new());
        }
        let _pass_host_span =
            obs::span_lazy("iteration", || format!("{} {window}", names.counters));

        let objective = arm.pass(pass)?;

        // Instrumentation: sampled reconstruction error (not charged).
        let error_span = obs::span("driver", "sampled error");
        let model = arm.model();
        let error = arm.sampled_error(error_sample, &model)?;
        drop(error_span);
        let ss = model.noise_variance();
        let virtual_time_secs = cluster.metrics().virtual_time_secs - start.virtual_time_secs;
        iterations.push(IterationStat { iteration: pass, error, ss, virtual_time_secs });

        // Per-category time this pass spent, by diffing the cluster's
        // category meters across it.
        let cat_end = cluster.category_time_us();
        let cat_us: [u64; 5] = std::array::from_fn(|i| cat_end[i].saturating_sub(cat_start[i]));
        if obs::enabled() {
            let family = names.counters;
            cluster.trace_counter(&format!("{family}.error"), error);
            cluster.trace_counter(&format!("{family}.ss"), ss);
            cluster.trace_counter(&format!("{family}.objective"), objective);
            for (i, category) in obs::critpath::CATEGORIES.iter().enumerate() {
                cluster.trace_counter(
                    &format!("{family}.{}.{category}_secs", names.category_infix),
                    cat_us[i] as f64 / 1e6,
                );
            }
            cluster.trace_end(
                "iteration",
                &window,
                vec![("error", error.into()), ("objective", objective.into())],
            );
        }
        if ledger_on {
            ledger_rows.push(obs::ledger::IterationRow {
                iteration: pass as u64,
                error,
                objective,
                virtual_secs: virtual_time_secs,
                cat_us,
            });
        }

        // The stop is decided before the checkpoint is written, so the
        // checkpoint can say the run is over: a run-ending pass records
        // the pass cap as the last pass a resume may skip (the blob has
        // no other way to say "a stop condition fired here"), while the
        // recovery log keeps the real pass number.
        let run_over = pass == max_passes || stop_fired(config, error, prev_error);
        if config.checkpoint_every.is_some_and(|every| pass % every == 0) {
            if let Some((c, ss)) = arm.checkpoint_state(run_over) {
                let iteration = if run_over { max_passes } else { pass };
                let blob = EmCheckpoint { iteration, c, ss, prev_error: error }.encode();
                let bytes = blob.len() as u64;
                cluster.dfs().put_blob(cluster, checkpoint_file.clone(), blob);
                cluster.note_checkpoint_written(pass as u64, bytes);
            }
        }
        // Injected driver crash (fault testing): state is on the DFS (if
        // checkpointing is on); the next fit on this cluster resumes.
        if config.crash_at_iteration == Some(pass) {
            return Err(SpcaError::DriverCrashed { iteration: pass });
        }
        if run_over {
            break;
        }
        prev_error = error;
    }

    // The run completed: its checkpoint (if any) is spent. Removing it
    // keeps a later, unrelated fit on this cluster from resuming into the
    // wrong run.
    if config.checkpoint_every.is_some() {
        let _ = cluster.dfs().delete(&checkpoint_file);
    }

    if obs::enabled() {
        cluster.trace_end(
            "run",
            names.run,
            vec![(names.count_key, (iterations.len() as u64).into())],
        );
    }
    let end = cluster.metrics();
    let model = arm.model();
    let virtual_time_secs = end.virtual_time_secs - start.virtual_time_secs;
    let intermediate_bytes = end.intermediate_bytes - start.intermediate_bytes;
    if ledger_on {
        let mut fingerprint = arm.fingerprint(config);
        fingerprint.extend(cluster.config().fingerprint());
        fingerprint.push(("engine".to_string(), cluster.trace_label()));
        fingerprint.sort();
        obs::ledger::record_run(obs::ledger::RunRecord {
            label: cluster.trace_label(),
            config: fingerprint,
            model_hash: format!("{:016x}", model.content_hash()),
            iterations_run: iterations.len() as u64,
            final_error: iterations.last().map_or(f64::INFINITY, |s| s.error),
            virtual_time_secs,
            bytes: vec![
                ("network_bytes".into(), end.network_bytes - start.network_bytes),
                ("dfs_bytes_written".into(), end.dfs_bytes_written - start.dfs_bytes_written),
                ("dfs_bytes_read".into(), end.dfs_bytes_read - start.dfs_bytes_read),
                ("intermediate_bytes".into(), intermediate_bytes),
            ],
            attribution_us: std::array::from_fn(|i| {
                end.time_us[i].saturating_sub(start.time_us[i])
            }),
            clock_violations: end.clock_violations - start.clock_violations,
            registry: cluster.registry().snapshot(),
            iterations: ledger_rows,
        });
    }
    Ok(SpcaRun { model, iterations, virtual_time_secs, intermediate_bytes })
}
