//! Randomized subspace iteration as a competing algorithm family.
//!
//! Implements randomized PCA (Halko et al., arXiv:1007.5510; distributed
//! formulation after Li/Kluger/Tygert, arXiv:1612.08709) on both simulated
//! engines, selected via `SpcaConfig::with_algorithm(Algorithm::Randomized)`.
//! Where EM runs *many thin iterations* (two small accumulator jobs per
//! iteration), randomized iteration runs *few fat passes*: each pass
//! broadcasts the D×K sketch basis `W`, streams the sparse input once, and
//! ships one D×K covariance-sketch partial per partition back to the
//! driver.
//!
//! Per pass, partition `p` computes with the batched kernels
//!
//! ```text
//! P_p    = Y_p·W − 1⊗(Wᵀμ)          (its slab of the centered range sketch)
//! Zraw_p = Y_pᵀ·P_p                  (spmm_tn)
//! t_p    = 1ᵀP_p                     (column sums of the slab)
//! ```
//!
//! and the driver folds the partials **sequentially in partition order**:
//!
//! ```text
//! Z = Σ_p Zraw_p − μ⊗(Σ_p t_p)  =  YcᵀYc·W        (Yc = Y − 1⊗μ)
//! ```
//!
//! so the N×K sketch `Q` is never materialized or shuffled — the paper's
//! minimized-intermediate-data discipline carried over to the challenger.
//! The driver then factors the small D×K `Z` **once** per pass
//! (`linalg::decomp::singular_basis`: `Z = U·diag(s)·Vᵀ` through the K×K
//! Gram matrix, two rounds). Halko et al. only ask for *an* orthonormal
//! basis of range(Z) for the next power step, so `U` is both answers: its
//! first `d` columns with `s[..d]` are the current model, all `K` columns
//! are the next basis `W` — and a checkpoint's `c` slot, so a checkpoint
//! written after the last pass already holds the model. `driver_bytes =
//! 4·D·K·8 + D·8` bounds the driver's live set: `W`, `Z`, the
//! factorisation's two D×K products (`U₁` is gone before the D×d model
//! copy is made) and the mean; the rest of its scratch is K×K.
//!
//! When that Gram matrix is numerically singular (rank < K, or cond(Z) ≳
//! 3·10⁴ as on the dense diabetes shape) the same call returns what the
//! arm computed before it existed, bit for bit: the model from one-sided
//! Jacobi, the next basis from Householder QR. The basis then does not
//! carry the model, so a last-pass checkpoint is not written (a resume
//! re-runs that pass from the one before), and the live set is the old
//! one: `W`, `Z`, QR's copy and `Q`, plus the D×d Jacobi model that
//! `driver_bytes` never counted.
//!
//! **Bitwise determinism.** EM's two engines agree only to round-off
//! (their reduction trees differ); the randomized arm is held to a harder
//! bar — the *same* model hash across engines, worker counts, timing
//! models and fault plans. Three design rules buy that: both engines split
//! rows with the same `split_rows` layout, both run the identical
//! `pass_partial` kernel per partition, and every cross-partition fold
//! happens on the driver in partition index order (the MapReduce path keys
//! partials by partition index, so its sorted job output *is* partition
//! order; the Spark path `collect`s, which preserves partition order).
//! The engines still differ in what they charge — Spark persists the RDD
//! and pays per-partition collect flows, MapReduce pays job init, spills
//! and shuffle — which is exactly the comparison the three-way bench
//! measures.

use dcluster::SimCluster;
use linalg::decomp::singular_basis;
use linalg::sparse::SparseRow;
use linalg::{Mat, SparseMat};
use mapreduce::{Emitter, MapReduceEngine, MapReduceJob};
use sparkle::{Lineage, Rdd, SparkleContext};

use crate::accuracy;
use crate::checkpoint::{self, EmCheckpoint};
use crate::config::SpcaConfig;
use crate::error::SpcaError;
use crate::frobenius;
use crate::model::{IterationStat, PcaModel, SpcaRun};
use crate::spark::{partition_range, to_rows, SpRow};
use crate::Result;

/// One partition's pass contribution: (`Zraw_p` = Y_pᵀP_p, `t_p` = 1ᵀP_p).
/// Travels as a plain tuple — `Mat` and `Vec<f64>` are `Wire`, so the
/// partial moves through the versioned codec like every other intermediate.
pub type PassPartial = (Mat, Vec<f64>);

/// The distributed surface of the randomized driver, one impl per engine.
/// Every method returns *per-partition* partials in partition index order;
/// all folding happens in [`run_rpca`] so both engines reduce identically.
pub trait RpcaJobs {
    /// Number of input rows N.
    fn num_rows(&self) -> usize;
    /// Number of input columns D.
    fn num_cols(&self) -> usize;
    /// Per-partition column sums of `Y` (one vector per partition).
    fn colsum_job(&mut self) -> Vec<Vec<f64>>;
    /// Per-partition centered squared-Frobenius partials (Algorithm 3).
    fn fnorm_job(&mut self, mean: &[f64], mean_norm_sq: f64) -> Vec<f64>;
    /// One fat pass: broadcast `w` (D×K) and `shift = Wᵀμ`, return each
    /// partition's [`PassPartial`].
    fn pass_job(&mut self, w: &Mat, shift: &[f64], pass: usize) -> Vec<PassPartial>;
}

/// The per-partition pass kernel, shared verbatim by both engines so their
/// partials are bit-identical. `block` is the partition's CSR slab.
pub(crate) fn pass_partial(block: &SparseMat, w: &Mat, shift: &[f64]) -> PassPartial {
    // P = Y_p·W − 1⊗shift: the centered range-sketch slab, via the batched
    // sparse-dense kernel (row layout is deterministic on any pool size).
    let mut p = block.mul_dense(w);
    for r in 0..p.rows() {
        linalg::vector::axpy(-1.0, shift, p.row_mut(r));
    }
    let mut colsum = vec![0.0; w.cols()];
    for r in 0..p.rows() {
        linalg::vector::axpy(1.0, p.row(r), &mut colsum);
    }
    let zraw = linalg::kernels::spmm_tn(block, &p);
    (zraw, colsum)
}

/// Runs the randomized driver loop over the given engine jobs.
///
/// `error_sample` is the pre-drawn row sample for the per-pass accuracy
/// estimate — instrumentation, charged to neither engine (same contract as
/// `run_em`).
pub fn run_rpca(
    cluster: &SimCluster,
    jobs: &mut dyn RpcaJobs,
    error_sample: &SparseMat,
    config: &SpcaConfig,
) -> Result<SpcaRun> {
    let n = jobs.num_rows();
    let d_in = jobs.num_cols();
    let d = config.components;
    if n == 0 || d_in == 0 {
        return Err(SpcaError::EmptyInput);
    }
    if d > d_in.min(n) {
        return Err(SpcaError::TooManyComponents { requested: d, available: d_in.min(n) });
    }
    config.validate(d_in)?;
    let k = d + config.rpca_oversample;
    // Total distributed passes: the range sketch plus q power iterations.
    let passes = config.rpca_power_iters + 1;

    let start_metrics = cluster.metrics();
    let start_time = start_metrics.virtual_time_secs;
    let start_intermediate = start_metrics.intermediate_bytes;
    let ledger_on = obs::ledger::sink_enabled();
    let mut ledger_rows: Vec<obs::ledger::IterationRow> = Vec::new();

    let _run_host_span = obs::span_lazy("run", || format!("run_rpca N={n} D={d_in} d={d} K={k}"));
    if obs::enabled() {
        cluster.trace_begin(
            "run",
            "run_rpca",
            vec![
                ("N", (n as u64).into()),
                ("D", (d_in as u64).into()),
                ("d", (d as u64).into()),
                ("K", (k as u64).into()),
                ("passes", (passes as u64).into()),
                ("codec", cluster.wire_codec().label().into()),
            ],
        );
    }

    // The driver holds W, Z, the small SVD factors and the mean — all
    // O(D·K), the same no-D² guarantee as the EM driver (Figure 8).
    let driver_bytes = 4 * (d_in * k * 8) as u64 + (d_in * 8) as u64;
    let _driver_guard = cluster.alloc_driver(driver_bytes)?;

    // One-time jobs, folded in partition order. Also re-run on a resume:
    // deterministic, so recomputation reproduces the original values.
    let mut colsum = vec![0.0; d_in];
    for part in jobs.colsum_job() {
        linalg::vector::axpy(1.0, &part, &mut colsum);
    }
    let mut mean = colsum;
    linalg::vector::scale(1.0 / n as f64, &mut mean);
    let mean_norm_sq = linalg::vector::norm2_sq(&mean);
    let fnorm_c: f64 = jobs.fnorm_job(&mean, mean_norm_sq).into_iter().sum();

    // Seeded Gaussian test matrix Ω (D×K): the only randomness in the
    // whole arm, derived from the config seed alone.
    let mut w = linalg::Prng::seed_from_u64(config.seed ^ 0x03e6a).normal_mat(d_in, k);

    // The model is `w[:, ..d]` — or `left`, Jacobi's columns, after a pass
    // that took the singular-Gram fallback — with noise variance `ss`: set
    // by the first pass or by the checkpoint, whichever the run starts from.
    let mut ss = f64::NAN;
    let mut left: Option<Mat> = None;

    let mut iterations: Vec<IterationStat> = Vec::new();
    let mut prev_error = f64::INFINITY;

    // Resume: the blob layout is shared with EM (`W` travels in the `c`
    // slot) but under a distinct DFS name, so the two arms' crash state
    // can never cross-contaminate. Anything unreadable is a fresh start.
    // A checkpoint of the last pass leaves no pass to run: it is only
    // written when `W` and `ss` are the finished model.
    let mut start_pass = 1;
    let checkpoint_file = checkpoint::rpca_file_name(config.job_id.as_deref());
    if config.checkpoint_every.is_some() {
        let restored = cluster
            .dfs()
            .get_blob(cluster, &checkpoint_file)
            .ok()
            .and_then(|blob| EmCheckpoint::decode(&blob).ok())
            .filter(|ck| (ck.c.rows(), ck.c.cols()) == (d_in, k));
        if let Some(ck) = restored {
            cluster.note_checkpoint_restored(ck.iteration as u64);
            start_pass = ck.iteration + 1;
            prev_error = ck.prev_error;
            w = ck.c;
            ss = ck.ss;
        }
    }

    for pass in start_pass..=passes {
        let pass_cat_start = cluster.category_time_us();
        if obs::enabled() {
            cluster.trace_begin("iteration", &format!("pass {pass}"), Vec::new());
        }
        let _pass_host_span = obs::span_lazy("iteration", || format!("rpca pass {pass}"));

        // Driver: shift = Wᵀμ, so tasks center their sketch slab without
        // ever touching a dense D-vector per row.
        let shift = w.vecmat(&mean);

        // The fat pass (distributed): per-partition covariance-sketch
        // partials, folded sequentially in partition order.
        let partials = jobs.pass_job(&w, &shift, pass);
        let (mut z, mut tsum) = (Mat::zeros(d_in, k), vec![0.0; k]);
        {
            let _s = obs::span("driver", "rpca driver fold");
            // By value: each D×K partial is freed as soon as it is folded.
            for (zraw, t) in partials {
                z.add_assign(&zraw);
                linalg::vector::axpy(1.0, &t, &mut tsum);
            }
            // Mean correction: Z = YᵀP − μ⊗(1ᵀP) = YcᵀP.
            for j in 0..d_in {
                linalg::vector::axpy(-mean[j], &tsum, z.row_mut(j));
            }
        }

        // Driver: the pass's one decomposition. Z = YcᵀYc·W has singular
        // values ≤ σᵢ²(Yc), so the captured energy Σ_{i<d} sᵢ(Z) never
        // exceeds ‖Yc‖²_F and the residual noise estimate stays
        // non-negative by construction.
        let captured;
        (w, left, ss, captured) = cluster.run_driver("rpca/recover", || -> Result<_> {
            let (basis, s, left) = singular_basis(&z, d).map_err(SpcaError::Numeric)?;
            let captured: f64 = s[..d].iter().sum();
            let residual = (fnorm_c - captured).max(0.0);
            let free_dims = (n * (d_in - d)).max(1) as f64;
            Ok((basis, left, (residual / free_dims).max(1e-12), captured))
        })?;

        // Instrumentation: sampled reconstruction error (not charged).
        let c = left.clone().unwrap_or_else(|| w.leading_cols(d));
        let model = PcaModel::new(c, mean.clone(), ss);
        let error = accuracy::reconstruction_error(error_sample, &model)?;
        iterations.push(IterationStat {
            iteration: pass,
            error,
            ss,
            virtual_time_secs: cluster.metrics().virtual_time_secs - start_time,
        });

        // Convergence telemetry: fraction of centered energy the top-d
        // sketch captures — the randomized analogue of EM's objective.
        let objective = captured / fnorm_c.max(f64::MIN_POSITIVE);
        let pass_cat_end = cluster.category_time_us();
        let mut cat_us = [0u64; 5];
        for (i, slot) in cat_us.iter_mut().enumerate() {
            *slot = pass_cat_end[i].saturating_sub(pass_cat_start[i]);
        }
        if obs::enabled() {
            cluster.trace_counter("rpca.error", error);
            cluster.trace_counter("rpca.ss", ss);
            cluster.trace_counter("rpca.objective", objective);
            for (i, name) in obs::critpath::CATEGORIES.iter().enumerate() {
                cluster.trace_counter(&format!("rpca.pass.{name}_secs"), cat_us[i] as f64 / 1e6);
            }
            cluster.trace_end(
                "iteration",
                &format!("pass {pass}"),
                vec![("error", error.into()), ("objective", objective.into())],
            );
        }
        if ledger_on {
            ledger_rows.push(obs::ledger::IterationRow {
                iteration: pass as u64,
                error,
                objective,
                // No reduced-precision arms on the randomized path (yet):
                // the precision knob is inert here, as for f64 EM.
                divergence: f64::NAN,
                virtual_secs: cluster.metrics().virtual_time_secs - start_time,
                cat_us,
            });
        }

        // Pass-boundary checkpoint, written before the stop checks so a
        // crash at any point resumes to exactly this state. After the last
        // pass that state is the model, which `W` does not carry on the
        // fallback route: the earlier checkpoint stays, and a resume
        // re-runs the pass.
        if let Some(every) = config.checkpoint_every {
            if pass % every == 0 && (pass < passes || left.is_none()) {
                let blob =
                    EmCheckpoint { iteration: pass, c: w.clone(), ss, prev_error: error }.encode();
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

        // STOP_CONDITION — same knobs as EM.
        if let Some(target) = config.target_error {
            if error <= target {
                break;
            }
        }
        if let Some(tol) = config.rel_tolerance {
            if prev_error.is_finite() && (prev_error - error).abs() <= tol * prev_error.abs() {
                break;
            }
        }
        prev_error = error;
    }

    // The run completed: its checkpoint (if any) is spent.
    if config.checkpoint_every.is_some() {
        let _ = cluster.dfs().delete(&checkpoint_file);
    }

    if obs::enabled() {
        cluster.trace_end("run", "run_rpca", vec![("passes", (iterations.len() as u64).into())]);
    }
    let end = cluster.metrics();
    let model = PcaModel::new(left.unwrap_or_else(|| w.leading_cols(d)), mean, ss);
    if ledger_on {
        let mut fingerprint = config.fingerprint();
        fingerprint.extend(cluster.config().fingerprint());
        fingerprint.push(("engine".to_string(), cluster.trace_label()));
        fingerprint.sort();
        let mut attribution_us = [0u64; 5];
        for (i, slot) in attribution_us.iter_mut().enumerate() {
            *slot = end.time_us[i].saturating_sub(start_metrics.time_us[i]);
        }
        obs::ledger::record_run(obs::ledger::RunRecord {
            label: cluster.trace_label(),
            config: fingerprint,
            model_hash: format!("{:016x}", model.content_hash()),
            iterations_run: iterations.len() as u64,
            final_error: iterations.last().map_or(f64::INFINITY, |s| s.error),
            virtual_time_secs: end.virtual_time_secs - start_time,
            bytes: vec![
                ("network_bytes".into(), end.network_bytes - start_metrics.network_bytes),
                (
                    "dfs_bytes_written".into(),
                    end.dfs_bytes_written - start_metrics.dfs_bytes_written,
                ),
                ("dfs_bytes_read".into(), end.dfs_bytes_read - start_metrics.dfs_bytes_read),
                ("intermediate_bytes".into(), end.intermediate_bytes - start_intermediate),
            ],
            attribution_us,
            clock_violations: end.clock_violations - start_metrics.clock_violations,
            registry: cluster.registry().snapshot(),
            iterations: ledger_rows,
        });
    }
    Ok(SpcaRun {
        model,
        iterations,
        virtual_time_secs: end.virtual_time_secs - start_time,
        intermediate_bytes: end.intermediate_bytes - start_intermediate,
    })
}

// ---------------------------------------------------------------------------
// Spark-like engine
// ---------------------------------------------------------------------------

struct SparkRpcaJobs<'a> {
    rdd: Rdd<'a, SpRow>,
    n: usize,
    d_in: usize,
}

impl RpcaJobs for SparkRpcaJobs<'_> {
    fn num_rows(&self) -> usize {
        self.n
    }

    fn num_cols(&self) -> usize {
        self.d_in
    }

    fn colsum_job(&mut self) -> Vec<Vec<f64>> {
        let d_in = self.d_in;
        self.rdd
            .map_partitions("rpca/colsumJob", |part| {
                let views: Vec<SparseRow> = part.iter().map(SpRow::view).collect();
                vec![SparseMat::from_row_views(d_in, &views).col_sums()]
            })
            .collect()
    }

    fn fnorm_job(&mut self, mean: &[f64], mean_norm_sq: f64) -> Vec<f64> {
        let d_in = self.d_in;
        self.rdd
            .map_partitions("rpca/FnormJob", |part| {
                let views: Vec<SparseRow> = part.iter().map(SpRow::view).collect();
                let block = SparseMat::from_row_views(d_in, &views);
                vec![frobenius::centered_sq_block(&block, mean, mean_norm_sq)]
            })
            .collect()
    }

    fn pass_job(&mut self, w: &Mat, shift: &[f64], pass: usize) -> Vec<PassPartial> {
        // Broadcast the pass's basis W (D×K) and shift vector to every
        // node — the fat part of the fat pass, priced like every other
        // broadcast.
        let cluster = self.rdd.cluster();
        cluster.charge_broadcast(cluster.wire_size(w) + cluster.sizing().f64_payload(shift.len()));
        let d_in = self.d_in;
        self.rdd
            .map_partitions(&format!("rpca/pass{pass}"), |part| {
                let views: Vec<SparseRow> = part.iter().map(SpRow::view).collect();
                let block = SparseMat::from_row_views(d_in, &views);
                vec![pass_partial(&block, w, shift)]
            })
            // collect() preserves partition order and charges one flow
            // per partition — the D×K partial each executor ships home.
            .collect()
    }
}

/// Fits randomized PCA on the Spark-like engine. Input pipeline (DFS
/// seeding, persisted RDD with re-read lineage, job scoping) is identical
/// to the EM path, so fault plans and multi-tenant scoping compose
/// unchanged.
pub fn fit_spark(cluster: &SimCluster, y: &SparseMat, config: &SpcaConfig) -> Result<SpcaRun> {
    config.validate(y.cols())?;
    let input_file = crate::scoped_input(config, "input/Y");
    let run = (|| {
        if obs::enabled() {
            cluster.set_trace_label("rPCA-Spark");
        }
        cluster.set_job_scope(config.job_id.as_deref());
        let ctx = SparkleContext::new(cluster);
        let partitions = config
            .partitions
            .unwrap_or_else(|| cluster.config().total_cores())
            .min(y.rows().max(1));

        cluster.dfs().seed(cluster, &input_file, cluster.wire_size(y));

        let blocks: Vec<Vec<SpRow>> = y.split_rows(partitions).iter().map(to_rows).collect();
        let mut rdd = ctx.from_partitions(blocks);
        let n_rows = y.rows();
        let lineage_input = input_file.clone();
        rdd.persist_with_lineage(
            Lineage::new(
                vec![format!("textFile({lineage_input})"), "parse".into()],
                Box::new(move |p| {
                    let (start, len) = partition_range(n_rows, partitions, p);
                    to_rows(&y.row_block(start, start + len))
                }),
            )
            .with_source(&input_file),
        );

        let error_sample = accuracy::sample_rows(y, config.error_sample_rows, config.seed);
        let mut jobs = SparkRpcaJobs { rdd, n: y.rows(), d_in: y.cols() };
        run_rpca(cluster, &mut jobs, &error_sample, config)
    })();
    cluster.set_job_scope(None);
    run
}

// ---------------------------------------------------------------------------
// MapReduce engine
// ---------------------------------------------------------------------------
//
// Unlike the EM jobs (which reduce across partitions at the reducers), the
// randomized jobs key every partial by its *partition index*: exactly one
// value per key, so the reducer is an identity pass-through and the sorted
// job output is the partials in partition order — the property the
// cross-engine bitwise bar rests on. The engine still meters the partials
// as shuffle data (they really do cross the network to wherever the
// driver-side fold runs) and still pays job init, spills and re-execution.

/// `colsumJob`: per-partition column sums, keyed by partition.
struct ColsumJob;

impl MapReduceJob for ColsumJob {
    type Input = (u32, SparseMat);
    type Key = u32;
    type Value = Vec<f64>;
    type Output = Vec<f64>;

    fn map(&self, block: &(u32, SparseMat), emitter: &mut Emitter<u32, Vec<f64>>) {
        emitter.emit(block.0, block.1.col_sums());
    }

    fn reduce(&self, _key: u32, mut values: Vec<Vec<f64>>) -> Vec<f64> {
        values.pop().expect("one partial per partition key")
    }
}

/// `FnormJob`: per-partition Algorithm-3 partial, keyed by partition.
struct RpcaFnormJob {
    mean: Vec<f64>,
    mean_norm_sq: f64,
}

impl MapReduceJob for RpcaFnormJob {
    type Input = (u32, SparseMat);
    type Key = u32;
    type Value = f64;
    type Output = f64;

    fn map(&self, block: &(u32, SparseMat), emitter: &mut Emitter<u32, f64>) {
        emitter.emit(block.0, frobenius::centered_sq_block(&block.1, &self.mean, self.mean_norm_sq));
    }

    fn reduce(&self, _key: u32, mut values: Vec<f64>) -> f64 {
        values.pop().expect("one partial per partition key")
    }
}

/// The fat pass: stateful mapper runs the shared kernel once per block and
/// emits its D×K partial under its partition key.
struct PassJob {
    w: Mat,
    shift: Vec<f64>,
}

impl MapReduceJob for PassJob {
    type Input = (u32, SparseMat);
    type Key = u32;
    type Value = PassPartial;
    type Output = PassPartial;

    fn map(&self, block: &(u32, SparseMat), emitter: &mut Emitter<u32, PassPartial>) {
        emitter.emit(block.0, pass_partial(&block.1, &self.w, &self.shift));
    }

    fn reduce(&self, _key: u32, mut values: Vec<PassPartial>) -> PassPartial {
        values.pop().expect("one partial per partition key")
    }
}

struct MrRpcaJobs<'a> {
    engine: MapReduceEngine<'a>,
    blocks: Vec<(u32, SparseMat)>,
    n: usize,
    d_in: usize,
    reducers: usize,
}

impl RpcaJobs for MrRpcaJobs<'_> {
    fn num_rows(&self) -> usize {
        self.n
    }

    fn num_cols(&self) -> usize {
        self.d_in
    }

    fn colsum_job(&mut self) -> Vec<Vec<f64>> {
        let (out, _) = self.engine.run_job("rpca/colsumJob", &ColsumJob, &self.blocks, 1);
        out.into_iter().map(|(_, v)| v).collect()
    }

    fn fnorm_job(&mut self, mean: &[f64], mean_norm_sq: f64) -> Vec<f64> {
        let job = RpcaFnormJob { mean: mean.to_vec(), mean_norm_sq };
        let (out, _) = self.engine.run_job("rpca/FnormJob", &job, &self.blocks, 1);
        out.into_iter().map(|(_, v)| v).collect()
    }

    fn pass_job(&mut self, w: &Mat, shift: &[f64], pass: usize) -> Vec<PassPartial> {
        // Distributed-cache shipment of W and the shift vector (each MR
        // job re-reads its cache; nothing persists across jobs).
        let cluster = self.engine.cluster();
        cluster.charge_broadcast(cluster.wire_size(w) + cluster.sizing().f64_payload(shift.len()));
        let job = PassJob { w: w.clone(), shift: shift.to_vec() };
        let (out, _) =
            self.engine.run_job(&format!("rpca/pass{pass}"), &job, &self.blocks, self.reducers);
        out.into_iter().map(|(_, v)| v).collect()
    }
}

/// Fits randomized PCA on the MapReduce engine: HDFS-materialized input,
/// per-job overheads, partials metered as shuffle data.
pub fn fit_mapreduce(cluster: &SimCluster, y: &SparseMat, config: &SpcaConfig) -> Result<SpcaRun> {
    config.validate(y.cols())?;
    let input_file = crate::scoped_input(config, "input/Y");
    let run = (|| {
        if obs::enabled() {
            cluster.set_trace_label("rPCA-MR");
        }
        cluster.set_job_scope(config.job_id.as_deref());
        let partitions = config
            .partitions
            .unwrap_or_else(|| cluster.config().total_cores())
            .min(y.rows().max(1));
        let blocks: Vec<(u32, SparseMat)> = y
            .split_rows(partitions)
            .into_iter()
            .enumerate()
            .map(|(i, b)| (i as u32, b))
            .collect();

        cluster.dfs().seed(cluster, &input_file, cluster.wire_size(y));

        let error_sample = accuracy::sample_rows(y, config.error_sample_rows, config.seed);
        let reducers = cluster.config().nodes.max(1);
        let mut jobs = MrRpcaJobs {
            engine: MapReduceEngine::new(cluster),
            blocks,
            n: y.rows(),
            d_in: y.cols(),
            reducers,
        };
        run_rpca(cluster, &mut jobs, &error_sample, config)
    })();
    cluster.set_job_scope(None);
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use dcluster::ClusterConfig;

    fn lowrank() -> SparseMat {
        let mut rng = linalg::Prng::seed_from_u64(7);
        let spec = datasets::LowRankSpec::small_test();
        datasets::sparse_lowrank(&spec, &mut rng)
    }

    fn config() -> SpcaConfig {
        SpcaConfig::new(3)
            .with_algorithm(Algorithm::Randomized)
            .with_rpca_oversample(4)
            .with_rpca_power_iters(2)
            .with_rel_tolerance(None)
    }

    #[test]
    fn randomized_fit_runs_and_improves() {
        let y = lowrank();
        let cluster = SimCluster::new(ClusterConfig::paper_cluster());
        let run = fit_spark(&cluster, &y, &config()).unwrap();
        assert_eq!(run.model.output_dim(), 3);
        assert_eq!(run.iterations.len(), 3, "q + 1 passes");
        assert!(run.final_error() <= run.iterations[0].error * 1.0 + 1e-12);
        assert!(run.model.noise_variance() > 0.0);
        assert!(run.virtual_time_secs > 0.0);
        assert!(run.intermediate_bytes > 0);
    }

    #[test]
    fn engines_agree_bitwise() {
        let y = lowrank();
        let c1 = SimCluster::new(ClusterConfig::paper_cluster());
        let spark = fit_spark(&c1, &y, &config()).unwrap();
        let c2 = SimCluster::new(ClusterConfig::paper_cluster());
        let mr = fit_mapreduce(&c2, &y, &config()).unwrap();
        assert_eq!(
            spark.model.content_hash(),
            mr.model.content_hash(),
            "randomized models must be bitwise identical across engines"
        );
        // MapReduce pays job overheads the Spark engine does not.
        assert!(mr.virtual_time_secs > spark.virtual_time_secs);
    }

    #[test]
    fn pass_partial_matches_direct_computation() {
        let y = lowrank();
        let mut rng = linalg::Prng::seed_from_u64(11);
        let w = rng.normal_mat(y.cols(), 5);
        let mean = y.col_means();
        let shift = w.vecmat(&mean);
        let (zraw, colsum) = pass_partial(&y, &w, &shift);
        // Reference: dense Yc, P = Yc·W, Z = YᵀP, t = 1ᵀP.
        let mut yc = y.to_dense();
        yc.sub_row_vector(&mean);
        let p_ref = yc.matmul(&w);
        for j in 0..w.cols() {
            let t: f64 = (0..y.rows()).map(|r| p_ref[(r, j)]).sum();
            assert!((colsum[j] - t).abs() <= 1e-9 * (1.0 + t.abs()));
        }
        // Driver-side fold of a single partition reproduces YcᵀYc·W.
        let mut z = zraw;
        for j in 0..y.cols() {
            linalg::vector::axpy(-mean[j], &colsum, z.row_mut(j));
        }
        let z_ref = yc.matmul_tn(&p_ref);
        assert!(z.approx_eq(&z_ref, 1e-8), "max diff {:.3e}", z.max_abs_diff(&z_ref));
    }
}
