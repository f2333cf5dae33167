//! Randomized subspace iteration as a competing algorithm family.
//!
//! Implements randomized PCA (Halko et al., arXiv:1007.5510; distributed
//! formulation after Li/Kluger/Tygert, arXiv:1612.08709) on both simulated
//! engines, selected via `SpcaConfig::with_algorithm(Algorithm::Randomized)`.
//! Where EM runs *many thin iterations* (one accumulator job per
//! iteration), randomized iteration runs *few fat passes*: each pass
//! broadcasts the D×K sketch basis `W`, streams the sparse input once, and
//! ships one covariance-sketch partial per partition back to the driver.
//!
//! Per pass, partition `p` computes
//!
//! ```text
//! P_p    = Y_p·W − 1⊗(Wᵀμ)          (its slab of the centered range sketch)
//! Zraw_p = Y_pᵀ·P_p                  (spmm_tn)
//! t_p    = 1ᵀP_p                     (column sums of the slab)
//! ```
//!
//! with EM's accumulator: `P_p` is EM's `Y_p·CM − 1⊗Xm` with `W` for `CM`
//! and `Wᵀμ` for `Xm`, so a [`YtxPartial`] of width K after
//! `add_block(Y_p, W, Wᵀμ)` holds `Zraw_p`'s rows at the columns the
//! partition touches (the other rows are zero) and `t_p` as `sum_x`. The
//! partial is O(z·K), not O(D·K): the paper's §4.2 sparsity rule, which
//! on the benchmark's tweets shape ships 0.534× the bytes of a dense D×K
//! partial per pass (DESIGN.md §15 has the byte formula).
//!
//! The driver folds the partials **sequentially in partition order**,
//! each as soon as it and every earlier partial have arrived, each packed
//! row onto its row of `Z`:
//!
//! ```text
//! Z = Σ_p Zraw_p − μ⊗(Σ_p t_p)  =  YcᵀYc·W        (Yc = Y − 1⊗μ)
//! ```
//!
//! so the N×K sketch `Q` is never materialized or shuffled — the paper's
//! minimized-intermediate-data discipline carried over to the challenger —
//! and the host holds a few partials at a time, not one per partition.
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
//! carry the model, so a run-ending pass writes no checkpoint (a resume
//! re-runs that pass from the one before), and the live set is the old
//! one: `W`, `Z`, QR's copy and `Q`, plus the D×d Jacobi model that
//! `driver_bytes` never counted.
//!
//! **Bitwise determinism.** EM's two engines agree only to round-off
//! (their reduction trees differ); the randomized arm is held to a harder
//! bar — the *same* model hash across engines, worker counts, timing
//! models and fault plans. Three design rules buy that: both engines split
//! rows with the same `split_rows` layout, both run the identical
//! `sketch_partial` per partition, and every cross-partition fold
//! happens in one driver closure, in partition index order. The Spark path
//! streams partials into it with `Rdd::collect_each`, which delivers in
//! partition order while the stage runs. The MapReduce path keys partials
//! by partition index, so its sorted job output *is* partition order, and
//! feeds that output through the same closure.
//! The engines still differ in what they charge — Spark persists the RDD
//! and pays per-partition collect flows, MapReduce pays job init, spills
//! and shuffle — which is exactly the comparison the three-way bench
//! measures.
//!
//! **What lives here.** The arm only: [`RpcaJobs`] (the distributed
//! surface), the shared `sketch_partial`, `RpcaArm` (the pass body
//! described above, as a [`crate::driver::PassArm`]) and the MapReduce
//! jobs behind `MrRpcaJobs`. The loop the passes run in — resume, sampled
//! error, telemetry, checkpoint, stop — is [`crate::driver::run_passes`],
//! the same copy EM runs on; the input pipeline is each engine's one
//! `fit_with_input`, and the Spark [`RpcaJobs`] are three more stages on
//! the RDD `spark::SparkJobs` already persists for EM.

use dcluster::{Load, Meter, SimCluster};
use linalg::decomp::singular_basis;
use linalg::sparse::{Block, PartitionBlock};
use linalg::{wire, Mat, Wire};
use mapreduce::{Emitter, MapReduceEngine, MapReduceJob};

use crate::checkpoint;
use crate::config::SpcaConfig;
use crate::driver::{ArmNames, Dims, PassArm};
use crate::error::SpcaError;
use crate::frobenius;
use crate::mean_prop::YtxPartial;
use crate::model::PcaModel;
use crate::Result;

/// The distributed surface of the randomized driver, one impl per engine.
/// Every method yields *per-partition* partials in partition index order;
/// all folding happens in `RpcaArm::pass` so both engines reduce identically.
pub trait RpcaJobs {
    /// Per-partition column sums of `Y` (one vector per partition).
    fn colsum_job(&mut self) -> Vec<Vec<f64>>;
    /// Per-partition centered squared-Frobenius partials (Algorithm 3).
    fn fnorm_job(&mut self, mean: &[f64], mean_norm_sq: f64) -> Vec<f64>;
    /// One fat pass: broadcast `w` (D×K) and `shift = Wᵀμ`, and hand each
    /// partition's [`sketch_partial`] to `fold`, in partition order: its
    /// packed rows are the touched rows of `Y_pᵀP_p`, its `sum_x` is
    /// `1ᵀP_p`.
    fn pass_job(
        &mut self,
        w: &Mat,
        shift: &[f64],
        pass: usize,
        fold: &mut (dyn FnMut(YtxPartial) + Send),
    );
}

/// One partition's sketch partial, built the same way on both engines: a
/// [`YtxPartial`] of width K after `add_block(block, w, shift)`.
pub(crate) fn sketch_partial<B: Block + ?Sized>(block: &B, w: &Mat, shift: &[f64]) -> YtxPartial {
    let mut partial = YtxPartial::new(w.cols());
    partial.add_block(block, w, shift);
    partial
}

static NAMES: ArmNames = ArmNames {
    run: "run_rpca",
    count_key: "passes",
    pass: "pass",
    counters: "rpca",
    category_infix: "pass",
};

/// Randomized subspace iteration as a [`PassArm`]: one pass is one fat
/// pass over the engine's [`RpcaJobs`], a driver-side fold in partition
/// order, and one factorisation of the D×K sketch.
pub(crate) struct RpcaArm<'a> {
    cluster: &'a SimCluster,
    jobs: &'a mut dyn RpcaJobs,
    config: &'a SpcaConfig,
    /// Input shape N×D.
    n: usize,
    d_in: usize,
    /// Sketch width `K = d + p`.
    k: usize,
    mean: Vec<f64>,
    /// `‖Y − 1⊗mean‖²_F`.
    fnorm_c: f64,
    /// The model is `w[:, ..d]` — or `left`, Jacobi's columns, after a pass
    /// that took the singular-Gram fallback — with noise variance `ss`: set
    /// by the first pass or by the checkpoint, whichever the run starts from.
    w: Mat,
    left: Option<Mat>,
    ss: f64,
}

impl<'a> RpcaArm<'a> {
    /// `jobs` run over the `n`×`d_in` input.
    pub(crate) fn new(
        cluster: &'a SimCluster,
        jobs: &'a mut dyn RpcaJobs,
        config: &'a SpcaConfig,
        (n, d_in): (usize, usize),
    ) -> Self {
        RpcaArm {
            cluster,
            jobs,
            config,
            n,
            d_in,
            k: config.components + config.rpca_oversample,
            mean: Vec::new(),
            fnorm_c: f64::NAN,
            w: Mat::zeros(0, 0),
            left: None,
            ss: f64::NAN,
        }
    }
}

impl PassArm for RpcaArm<'_> {
    fn names(&self) -> &'static ArmNames {
        &NAMES
    }

    fn dims(&self) -> Dims {
        Dims { n: self.n, d_in: self.d_in, width: self.k }
    }

    fn max_passes(&self) -> usize {
        // The range sketch plus q power iterations.
        self.config.rpca_power_iters + 1
    }

    fn checkpoint_file(&self) -> String {
        // The blob layout is shared with EM (`W` travels in the `c` slot)
        // but under a distinct DFS name, so the two arms' crash state can
        // never cross-contaminate.
        checkpoint::rpca_file_name(self.config.job_id.as_deref())
    }

    fn run_args(&self) -> Vec<(&'static str, obs::ArgValue)> {
        vec![("K", (self.k as u64).into()), ("passes", (self.max_passes() as u64).into())]
    }

    fn prepare(&mut self) {
        let (n, d_in) = (self.n, self.d_in);
        // One-time jobs, folded in partition order.
        let mut colsum = vec![0.0; d_in];
        for part in self.jobs.colsum_job() {
            linalg::vector::axpy(1.0, &part, &mut colsum);
        }
        self.mean = colsum;
        linalg::vector::scale(1.0 / n as f64, &mut self.mean);
        let mean_norm_sq = linalg::vector::norm2_sq(&self.mean);
        self.fnorm_c = self.jobs.fnorm_job(&self.mean, mean_norm_sq).into_iter().sum();

        // Seeded Gaussian test matrix Ω (D×K): the only randomness in the
        // whole arm, derived from the config seed alone.
        self.w = linalg::Prng::seed_from_u64(self.config.seed ^ 0x03e6a).normal_mat(d_in, self.k);
    }

    fn restore(&mut self, state: Mat, ss: f64) {
        self.w = state;
        self.ss = ss;
    }

    fn pass(&mut self, pass: usize) -> Result<f64> {
        let (n, d_in) = (self.n, self.d_in);
        let (d, k, fnorm_c) = (self.config.components, self.k, self.fnorm_c);
        let mean = &self.mean;

        // Driver: shift = Wᵀμ, so tasks center their sketch slab without
        // ever touching a dense D-vector per row.
        let shift = self.w.vecmat(mean);

        // The fat pass (distributed): per-partition covariance-sketch
        // partials, folded sequentially in partition order as the engine
        // delivers them, each touched row onto its row of `Z`. An untouched
        // row would add +0.0, which leaves `Z` (never −0.0: it starts at
        // +0.0) as it is. Each slab is retired as soon as it is folded, for
        // the pass's later tasks to take.
        let (mut z, mut tsum) = (Mat::zeros(d_in, k), vec![0.0; k]);
        self.jobs.pass_job(&self.w, &shift, pass, &mut |mut part| {
            let _s = obs::span("driver", "rpca fold partial");
            let (cols, slab) = part.take_packed_ytx();
            for (&c, row) in cols.iter().zip(slab.chunks_exact(k)) {
                linalg::vector::axpy(1.0, row, z.row_mut(c as usize));
            }
            linalg::vector::axpy(1.0, &part.sum_x, &mut tsum);
            linalg::scratch::recycle(slab);
        });
        {
            let _s = obs::span("driver", "rpca driver fold");
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
        (self.w, self.left, self.ss, captured) =
            self.cluster.run_driver("rpca/recover", || -> Result<_> {
                let (basis, s, left) = singular_basis(&z, d).map_err(SpcaError::Numeric)?;
                let captured: f64 = s[..d].iter().sum();
                let residual = (fnorm_c - captured).max(0.0);
                let free_dims = (n * (d_in - d)).max(1) as f64;
                Ok((basis, left, (residual / free_dims).max(1e-12), captured))
            })?;

        // Convergence telemetry: fraction of centered energy the top-d
        // sketch captures — the randomized analogue of EM's objective.
        Ok(captured / fnorm_c.max(f64::MIN_POSITIVE))
    }

    fn model(&self) -> PcaModel {
        let c = self.left.clone().unwrap_or_else(|| self.w.leading_cols(self.config.components));
        PcaModel::new(c, self.mean.clone(), self.ss)
    }

    fn checkpoint_state(&self, run_over: bool) -> Option<(Mat, f64)> {
        // After a run-ending pass the checkpoint must hold the model,
        // which `W` does not carry on the fallback route: the earlier
        // checkpoint stays, and a resume re-runs the pass.
        (!run_over || self.left.is_none()).then(|| (self.w.clone(), self.ss))
    }
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
    type Input = (u32, PartitionBlock);
    type Key = u32;
    type Value = Vec<f64>;
    type Output = Vec<f64>;

    fn map(&self, block: &(u32, PartitionBlock), emitter: &mut Emitter<u32, Vec<f64>>) {
        emitter.emit(block.0, block.1.csr().col_sums());
    }

    fn reduce(&self, _key: u32, mut values: Vec<Vec<f64>>) -> Vec<f64> {
        values.pop().expect("one partial per partition key")
    }
}

/// `FnormJob`: per-partition Algorithm-3 partial, keyed by partition.
struct RpcaFnormJob<'a> {
    mean: &'a [f64],
    mean_norm_sq: f64,
}

impl MapReduceJob for RpcaFnormJob<'_> {
    type Input = (u32, PartitionBlock);
    type Key = u32;
    type Value = f64;
    type Output = f64;

    fn map(&self, block: &(u32, PartitionBlock), emitter: &mut Emitter<u32, f64>) {
        let sq = frobenius::centered_sq_block(block.1.csr(), self.mean, self.mean_norm_sq);
        emitter.emit(block.0, sq);
    }

    fn reduce(&self, _key: u32, mut values: Vec<f64>) -> f64 {
        values.pop().expect("one partial per partition key")
    }
}

/// The fat pass: the mapper folds its block into one sketch partial, as
/// the Spark task does, and emits it under its partition key.
struct PassJob<'a> {
    w: &'a Mat,
    shift: &'a [f64],
}

impl MapReduceJob for PassJob<'_> {
    type Input = (u32, PartitionBlock);
    type Key = u32;
    type Value = YtxPartial;
    type Output = YtxPartial;

    fn map(&self, block: &(u32, PartitionBlock), emitter: &mut Emitter<u32, YtxPartial>) {
        emitter.emit(block.0, sketch_partial(&block.1, self.w, self.shift));
    }

    fn reduce(&self, _key: u32, mut values: Vec<YtxPartial>) -> YtxPartial {
        values.pop().expect("one partial per partition key")
    }
}

pub(crate) struct MrRpcaJobs<'a> {
    engine: MapReduceEngine<'a>,
    blocks: Vec<(u32, PartitionBlock)>,
    reducers: usize,
}

impl<'a> MrRpcaJobs<'a> {
    /// `blocks` is the input's `split_rows` layout, in partition order;
    /// each is keyed by its index here.
    pub(crate) fn new(
        engine: MapReduceEngine<'a>,
        blocks: Vec<PartitionBlock>,
        reducers: usize,
    ) -> Self {
        let blocks = blocks.into_iter().enumerate().map(|(i, b)| (i as u32, b)).collect();
        MrRpcaJobs { engine, blocks, reducers }
    }
}

impl RpcaJobs for MrRpcaJobs<'_> {
    fn colsum_job(&mut self) -> Vec<Vec<f64>> {
        let (out, _) = self.engine.run_job("rpca/colsumJob", &ColsumJob, &self.blocks, 1);
        out.into_iter().map(|(_, v)| v).collect()
    }

    fn fnorm_job(&mut self, mean: &[f64], mean_norm_sq: f64) -> Vec<f64> {
        let job = RpcaFnormJob { mean, mean_norm_sq };
        let (out, _) = self.engine.run_job("rpca/FnormJob", &job, &self.blocks, 1);
        out.into_iter().map(|(_, v)| v).collect()
    }

    fn pass_job(
        &mut self,
        w: &Mat,
        shift: &[f64],
        pass: usize,
        fold: &mut (dyn FnMut(YtxPartial) + Send),
    ) {
        // Distributed-cache shipment of W and the shift vector (each MR
        // job re-reads its cache; nothing persists across jobs).
        let cluster = self.engine.cluster();
        let bytes = w.encoded_size() + wire::f64_payload_len(shift.len());
        cluster.charge(Meter::Network, Load::EachNode(bytes), "broadcast");
        let job = PassJob { w, shift };
        let (out, _) =
            self.engine.run_job(&format!("rpca/pass{pass}"), &job, &self.blocks, self.reducers);
        out.into_iter().for_each(|(_, v)| fold(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use dcluster::ClusterConfig;
    use linalg::SparseMat;

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
        let run = crate::spark::fit(&cluster, &y, &config()).unwrap();
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
        let spark = crate::spark::fit(&c1, &y, &config()).unwrap();
        let c2 = SimCluster::new(ClusterConfig::paper_cluster());
        let mr = crate::mr::fit(&c2, &y, &config()).unwrap();
        assert_eq!(
            spark.model.content_hash(),
            mr.model.content_hash(),
            "randomized models must be bitwise identical across engines"
        );
        // MapReduce pays job overheads the Spark engine does not.
        assert!(mr.virtual_time_secs > spark.virtual_time_secs);
    }

    /// One block's sketch partial: every packed row is that row of the
    /// dense `Y_pᵀP_p` bit for bit, every row it leaves out is zero there,
    /// and `sum_x` is `1ᵀP_p` — on a sparse, a full and two empty blocks.
    #[test]
    fn sketch_partial_is_the_touched_rows_of_the_dense_product() {
        let mut rng = linalg::Prng::seed_from_u64(11);
        let full = datasets::diabetes::generate_sparse(40, 24, &mut rng);
        assert!(linalg::kernels::takes_full_routes(&full), "the diabetes block is full");
        let blocks = [
            ("sparse", lowrank()),
            ("full", full),
            ("no rows", SparseMat::from_rows(0, 30, Vec::new())),
            ("no entries", SparseMat::from_rows(5, 30, vec![Vec::new(); 5])),
        ];
        for (what, y) in blocks {
            let w = rng.normal_mat(y.cols(), 5);
            let shift = w.vecmat(&rng.normal_mat(1, y.cols()).into_vec());
            let partial = sketch_partial(&y, &w, &shift);

            // P_p row by row (the block pass's bits), then the D-wide scatter.
            let mut p = Mat::zeros(y.rows(), 5);
            let mut colsum = vec![0.0; 5];
            for r in 0..y.rows() {
                let row = crate::mean_prop::latent_row(y.row(r), &w, &shift);
                linalg::vector::axpy(1.0, &row, &mut colsum);
                p.row_mut(r).copy_from_slice(&row);
            }
            let dense = linalg::kernels::spmm_tn(&y, &p);
            let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let mut touched = vec![false; y.cols()];
            for (c, row) in partial.ytx_iter() {
                assert_eq!(bits(row), bits(dense.row(c as usize)), "{what}: row {c}");
                touched[c as usize] = true;
            }
            for c in (0..y.cols()).filter(|&c| !touched[c]) {
                assert!(dense.row(c).iter().all(|&v| v == 0.0), "{what}: row {c} left out");
            }
            assert_eq!(partial.sum_x, colsum, "{what}: sum_x");
            assert_eq!(partial.rows_seen, y.rows() as u64, "{what}");
        }
    }
}
