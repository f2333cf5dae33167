//! Mahout-PCA: stochastic SVD with the PCA (mean-propagation) option, on
//! MapReduce.
//!
//! Faithful to the structure the paper analyzes (Sections 2.3 and 5.2):
//!
//! 1. **Q job** — project `Yc·Ω` onto a random `D×K` matrix
//!    (`K = d + oversampling`), orthonormalize with TSQR. Mahout
//!    materializes both the projection and the N×K `Q` matrix in HDFS —
//!    the O(N·d) communication term of Table 1.
//! 2. **Bt job** — `B = Q'·Yc`. Mahout's mapper emits, *for every non-zero
//!    of every row*, a K-vector partial keyed by column: O(nnz·K) mapper
//!    output. This is the job whose mapper output explodes 654× on Tweets
//!    in the paper's analysis; the engine meters it exactly.
//! 3. **Power iterations** — optionally recompute the projection as
//!    `Yc·B'` and repeat; each round adds accuracy and repeats the
//!    expensive passes. This is Mahout-PCA's accuracy/time knob, the
//!    counterpart of sPCA's EM iterations in Figures 4–6.
//! 4. A small K×K eigendecomposition of `B·B'` on the driver finishes the
//!    SVD; the top-d right singular vectors are the principal components.
//!
//! The PCA option keeps `Y` sparse and propagates the mean:
//! `Yc·Ω = Y·Ω − 1⊗(Ym·Ω)` and `Q'·Yc = Q'·Y − (Q'·1)⊗Ym`.

use dcluster::{Load, Meter, SimCluster, StageOptions};
use linalg::decomp::eig::sym_eigen;
use linalg::decomp::tsqr::tsqr;
use linalg::wire::{self, Wire, WireError, WireReader};
use linalg::{Mat, Prng, SparseMat};
use mapreduce::{Emitter, MapReduceEngine, MapReduceJob};
use spca_core::accuracy;
use spca_core::driver::{run_passes, ArmNames, Dims, PassArm};
use spca_core::model::{PcaModel, SpcaRun};
use spca_core::{SpcaConfig, SpcaError};

/// Configuration of the Mahout-PCA baseline.
#[derive(Debug, Clone)]
pub struct MahoutConfig {
    /// Principal components to produce.
    pub components: usize,
    /// Oversampling added to the projection width (Mahout's `p`, def. 15).
    pub oversample: usize,
    /// Maximum power-iteration rounds (≥ 1; round 1 is the base SSVD).
    pub max_iters: usize,
    /// RNG seed for Ω and the error sample.
    pub seed: u64,
    /// Stop early once the sampled error reaches this value.
    pub target_error: Option<f64>,
    /// Rows sampled for error estimation.
    pub error_sample_rows: usize,
    /// Number of input partitions (`None`: one per virtual core).
    pub partitions: Option<usize>,
}

impl MahoutConfig {
    /// Defaults matching the paper's setup (d components, p = 15).
    pub fn new(components: usize) -> Self {
        MahoutConfig {
            components,
            oversample: 15,
            max_iters: 3,
            seed: 0x55d,
            target_error: None,
            error_sample_rows: 256,
            partitions: None,
        }
    }

    /// Sets the power-iteration budget.
    pub fn with_max_iters(mut self, iters: usize) -> Self {
        assert!(iters >= 1, "need at least one SSVD round");
        self.max_iters = iters;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the early-stop target error.
    pub fn with_target_error(mut self, err: f64) -> Self {
        self.target_error = Some(err);
        self
    }

    /// Fixes the partition count.
    pub fn with_partitions(mut self, parts: usize) -> Self {
        assert!(parts > 0);
        self.partitions = Some(parts);
        self
    }
}

/// The Bt job: `B = Q'·Yc` with per-row, per-non-zero emissions.
struct BtJob {
    /// This mapper's Q block rows, parallel to the input block rows.
    k: usize,
}

/// Bt-job shuffle key: one per matrix column, plus the Q column-sum needed
/// by the PCA option's mean correction.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum BtKey {
    /// `Σᵢ qᵢ` (for `(Q'·1)⊗Ym`).
    SumQ,
    /// Column `j` of the input: accumulates `Σᵢ y_ij·qᵢ`.
    Col(u32),
}

impl Wire for BtKey {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            BtKey::SumQ => out.push(0),
            BtKey::Col(c) => {
                out.push(1);
                wire::write_uvarint(out, u64::from(*c));
            }
        }
    }

    fn encoded_size(&self) -> u64 {
        match self {
            BtKey::SumQ => 1,
            BtKey::Col(c) => 1 + wire::uvarint_len(u64::from(*c)),
        }
    }

    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(BtKey::SumQ),
            1 => Ok(BtKey::Col(u32::decode_from(r)?)),
            _ => Err(WireError::Malformed("unknown BtKey tag")),
        }
    }
}

impl MapReduceJob for BtJob {
    /// One partition: the sparse block and its Q rows.
    type Input = (SparseMat, Mat);
    type Key = BtKey;
    type Value = Vec<f64>;
    type Output = Vec<f64>;

    fn map(&self, (block, q): &(SparseMat, Mat), emitter: &mut Emitter<BtKey, Vec<f64>>) {
        assert_eq!(block.rows(), q.rows(), "Q block misaligned with input block");
        let mut sum_q = vec![0.0; self.k];
        for r in 0..block.rows() {
            let q_row = q.row(r);
            // Mahout's mapper: one K-vector emission per non-zero. This is
            // the intermediate-data pathology the paper measures — do NOT
            // accumulate in mapper memory here; Mahout didn't.
            for (c, v) in block.row(r).iter() {
                let mut contrib = q_row.to_vec();
                linalg::vector::scale(v, &mut contrib);
                emitter.emit(BtKey::Col(c as u32), contrib);
            }
            linalg::vector::axpy(1.0, q_row, &mut sum_q);
        }
        emitter.emit(BtKey::SumQ, sum_q);
    }

    fn combine(&self, _key: &BtKey, values: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
        vec![sum_vectors(values)]
    }

    fn reduce(&self, _key: BtKey, values: Vec<Vec<f64>>) -> Vec<f64> {
        sum_vectors(values)
    }
}

fn sum_vectors(mut values: Vec<Vec<f64>>) -> Vec<f64> {
    let mut acc = values.pop().expect("at least one value per key");
    for v in values {
        linalg::vector::axpy(1.0, &v, &mut acc);
    }
    acc
}

static NAMES: ArmNames = ArmNames {
    run: "run_mahout",
    count_key: "rounds",
    pass: "round",
    counters: "mahout",
    category_infix: "round",
};

/// SSVD-PCA as a [`PassArm`]: one pass is one SSVD round — the Q job,
/// TSQR, the Bt job and the driver's SVD finish — leaving `Bᵀ` as the next
/// round's projector.
struct MahoutArm<'a> {
    cluster: &'a SimCluster,
    config: &'a MahoutConfig,
    y: &'a SparseMat,
    blocks: Vec<SparseMat>,
    /// Projection width `K = d + p`.
    k: usize,
    /// D×K: the next Q job computes `Yc·projector` — Ω, then `Bᵀ`.
    projector: Mat,
    mean: Vec<f64>,
    c: Mat,
}

impl PassArm for MahoutArm<'_> {
    fn names(&self) -> &'static ArmNames {
        &NAMES
    }

    fn dims(&self) -> Dims {
        Dims { n: self.y.rows(), d_in: self.y.cols(), width: self.k }
    }

    fn max_passes(&self) -> usize {
        self.config.max_iters
    }

    /// Ω (D×K) and later B (K×D). Unlike sPCA this driver must also hold
    /// K·D, but that is still O(D·d) — Mahout's problem is communication,
    /// not driver memory.
    fn driver_bytes(&self) -> u64 {
        (2 * self.y.cols() * self.k * 8) as u64
    }

    fn fingerprint(&self, _: &SpcaConfig) -> Vec<(String, String)> {
        vec![("mahout.config".into(), format!("{:?}", self.config))]
    }

    fn prepare(&mut self) {
        let mut rng = Prng::seed_from_u64(self.config.seed);
        self.projector = rng.normal_mat(self.y.cols(), self.k);
        self.mean = self.cluster.run_driver("meanJob(driver)", || self.y.col_means());
    }

    fn pass(&mut self, round: usize) -> spca_core::Result<f64> {
        let (cluster, k, d) = (self.cluster, self.k, self.config.components);
        let (n, d_in) = (self.y.rows(), self.y.cols());
        let (blocks, mean) = (&self.blocks, &self.mean);

        // ---- Q job: proj = Yc·projector = Y·projector − 1⊗(Ym·projector).
        cluster.advance_time(6.0); // Hadoop job init for the Q job
        // The D×K projector ships to every node via distributed cache.
        let bytes = self.projector.encoded_size();
        cluster.charge(Meter::Network, Load::EachNode(bytes), "broadcast");
        let shift = self.projector.vecmat(mean); // K
        let (projector, shift) = (&self.projector, &shift);
        let tasks: Vec<_> = blocks
            .iter()
            .map(|b| {
                move || {
                    let mut p = b.mul_dense(projector);
                    for r in 0..p.rows() {
                        linalg::vector::axpy(-1.0, shift, p.row_mut(r));
                    }
                    p
                }
            })
            .collect();
        let proj_blocks: Vec<Mat> = cluster.run_stage(
            StageOptions::new(format!("Mahout/Qjob/{round}")).with_task_overhead(1.0),
            tasks,
        );
        // Mahout writes the projection, then Q, to HDFS; Bt re-reads Q.
        let proj_bytes: u64 = proj_blocks.iter().map(Wire::encoded_size).sum();
        cluster.charge(Meter::DfsWrite, Load::Even(proj_bytes), "dfs-write");
        let tsqr_out = cluster.run_driver("Mahout/TSQR-final", || tsqr(&proj_blocks));
        cluster.charge(Meter::DfsWrite, Load::Even(proj_bytes), "dfs-write"); // Q matrix
        cluster.charge(Meter::DfsRead, Load::Even(proj_bytes), "dfs-read"); // Bt mappers read Q

        // ---- Bt job: B = Q'·Yc.
        let bt_inputs: Vec<(SparseMat, Mat)> =
            blocks.iter().cloned().zip(tsqr_out.q_blocks).collect();
        let (bt_out, _stats) = MapReduceEngine::new(cluster).run_job(
            &format!("Mahout/Btjob/{round}"),
            &BtJob { k },
            &bt_inputs,
            8,
        );

        // Assemble B (K×D) on the driver, applying the mean correction
        // B = Q'Y − (Q'1)⊗Ym.
        let mut b = Mat::zeros(k, d_in);
        let mut sum_q = vec![0.0; k];
        for (key, value) in bt_out {
            match key {
                BtKey::SumQ => sum_q = value,
                BtKey::Col(j) => {
                    for (row, &v) in value.iter().enumerate() {
                        b[(row, j as usize)] = v;
                    }
                }
            }
        }
        for (i, &sq) in sum_q.iter().enumerate() {
            linalg::vector::axpy(-sq, mean, b.row_mut(i));
        }

        // ---- Small driver-side SVD finish: eig of B·B' (K×K).
        let (c, values) = cluster.run_driver("Mahout/finishSVD", || {
            let bbt = b.matmul_nt(&b);
            let eig = sym_eigen(&bbt)?;
            // Right singular vectors of Yc ≈ rows of B mapped through
            // U_B: V = B'·U_B·Σ⁻¹; keep the top d columns.
            let mut c = Mat::zeros(d_in, d);
            for comp in 0..d {
                let sigma = eig.values[comp].max(0.0).sqrt();
                if sigma <= 1e-300 {
                    continue;
                }
                let u_col = eig.vectors.col(comp);
                // column = B'·u / σ.
                for (ki, &u) in u_col.iter().enumerate() {
                    if u != 0.0 {
                        for j in 0..d_in {
                            c[(j, comp)] += b[(ki, j)] * u;
                        }
                    }
                }
                for j in 0..d_in {
                    c[(j, comp)] /= sigma;
                }
            }
            Ok::<_, SpcaError>((c, eig.values))
        })?;

        // Mahout finishes each SSVD pass with separate U-job and V-job
        // MR passes that materialize the factors in HDFS.
        cluster.advance_time(2.0 * 6.0);
        for rows in [n, d_in] {
            let bytes = wire::f64_payload_len(rows * d);
            cluster.charge(Meter::DfsWrite, Load::Even(bytes), "dfs-write");
        }
        self.c = c;

        // ---- Power iteration: the next projector is B' (D×K).
        self.projector = b.transpose();
        Ok(crate::top_share(&values, d))
    }

    fn model(&self) -> PcaModel {
        PcaModel::new(self.c.clone(), self.mean.clone(), 1e-9)
    }
}

/// The Mahout-PCA baseline algorithm.
#[derive(Debug, Clone)]
pub struct MahoutPca {
    config: MahoutConfig,
}

impl MahoutPca {
    /// Creates the baseline with the given configuration.
    pub fn new(config: MahoutConfig) -> Self {
        MahoutPca { config }
    }

    /// Runs SSVD-PCA on the MapReduce engine: [`MahoutArm`]'s rounds on
    /// [`run_passes`], stopping at the round cap or the target error.
    pub fn fit(&self, cluster: &SimCluster, y: &SparseMat) -> spca_core::Result<SpcaRun> {
        let cfg = &self.config;
        let (n, d_in) = (y.rows(), y.cols());
        spca_core::label_trace(cluster, "Mahout", "MR");
        let partitions =
            cfg.partitions.unwrap_or_else(|| cluster.config().total_cores()).min(n.max(1));
        let mut arm = MahoutArm {
            cluster,
            config: cfg,
            y,
            blocks: y.split_rows(partitions),
            k: (cfg.components + cfg.oversample).min(n.min(d_in)),
            projector: Mat::zeros(0, 0),
            mean: Vec::new(),
            c: Mat::zeros(d_in, cfg.components),
        };
        let error_sample = accuracy::sample_rows(y, cfg.error_sample_rows, cfg.seed);
        // The loop's stop policy; the round cap is the arm's `max_passes`.
        let mut policy = SpcaConfig::new(cfg.components).with_rel_tolerance(None);
        policy.target_error = cfg.target_error;
        run_passes(cluster, &mut arm, &error_sample, &policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcluster::ClusterConfig;

    fn tiny_data() -> SparseMat {
        let mut rng = Prng::seed_from_u64(8);
        datasets::sparse_lowrank(&datasets::LowRankSpec::small_test(), &mut rng)
    }

    #[test]
    fn fits_and_reports_iterations() {
        let y = tiny_data();
        let cluster = SimCluster::new(ClusterConfig::paper_cluster());
        let run = MahoutPca::new(MahoutConfig::new(4).with_max_iters(2))
            .fit(&cluster, &y)
            .unwrap();
        assert_eq!(run.model.output_dim(), 4);
        assert_eq!(run.iterations.len(), 2);
        assert!(run.intermediate_bytes > 0);
    }

    #[test]
    fn components_match_exact_svd_subspace() {
        // SSVD with oversampling on low-rank data recovers the principal
        // subspace accurately.
        let y = tiny_data();
        let cluster = SimCluster::new(ClusterConfig::paper_cluster());
        let run = MahoutPca::new(MahoutConfig::new(3).with_max_iters(3))
            .fit(&cluster, &y)
            .unwrap();

        let mut yc = y.to_dense();
        yc.sub_row_vector(&y.col_means());
        let svd = linalg::decomp::svd_jacobi(&yc).unwrap();
        // Compare subspaces via QR overlap.
        let qa = linalg::decomp::qr_thin(run.model.components()).q;
        let mut vt_top = Mat::zeros(y.cols(), 3);
        for j in 0..3 {
            for r in 0..y.cols() {
                vt_top[(r, j)] = svd.vt[(j, r)];
            }
        }
        let overlap = qa.matmul_tn(&vt_top);
        let s = linalg::decomp::svd_jacobi(&overlap).unwrap();
        assert!(s.s.last().unwrap() > &0.98, "subspace alignment {:?}", s.s);
    }

    #[test]
    fn bt_job_emissions_dwarf_spca() {
        // The headline intermediate-data claim: Mahout emits far more than
        // sPCA on the same data and cluster shape. sPCA's mapper output is
        // independent of N, Mahout's grows with nnz — so the gap needs a
        // tall matrix to show (and widens with scale, as in the paper).
        let mut rng = Prng::seed_from_u64(8);
        let spec = datasets::LowRankSpec {
            rows: 5000,
            cols: 150,
            ..datasets::LowRankSpec::small_test()
        };
        let y = datasets::sparse_lowrank(&spec, &mut rng);
        let c1 = SimCluster::new(ClusterConfig::paper_cluster());
        let mahout = MahoutPca::new(MahoutConfig::new(4).with_max_iters(1))
            .fit(&c1, &y)
            .unwrap();
        let c2 = SimCluster::new(ClusterConfig::paper_cluster());
        let spca = spca_core::Spca::new(
            spca_core::SpcaConfig::new(4).with_max_iters(1).with_rel_tolerance(None),
        )
        .fit_mapreduce(&c2, &y)
        .unwrap();
        assert!(
            mahout.intermediate_bytes > 3 * spca.intermediate_bytes,
            "mahout {} vs spca {}",
            mahout.intermediate_bytes,
            spca.intermediate_bytes
        );
    }

    #[test]
    fn power_iterations_do_not_hurt_accuracy() {
        let y = tiny_data();
        let run = |iters| {
            let cluster = SimCluster::new(ClusterConfig::paper_cluster());
            MahoutPca::new(MahoutConfig::new(3).with_max_iters(iters))
                .fit(&cluster, &y)
                .unwrap()
                .final_error()
        };
        let e1 = run(1);
        let e3 = run(3);
        assert!(e3 <= e1 * 1.05, "power iterations regressed error: {e1} → {e3}");
    }

    #[test]
    fn rejects_empty_input() {
        let y = SparseMat::from_rows(0, 5, vec![]);
        let cluster = SimCluster::new(ClusterConfig::paper_cluster());
        assert!(matches!(
            MahoutPca::new(MahoutConfig::new(2)).fit(&cluster, &y),
            Err(SpcaError::EmptyInput)
        ));
    }
}
