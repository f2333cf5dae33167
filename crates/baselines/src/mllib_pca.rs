//! MLlib-PCA: covariance matrix + driver-side eigendecomposition, on the
//! Spark-like engine.
//!
//! The method Section 2.1 analyzes: build the D×D Gram/covariance matrix
//! by aggregating per-partition partials to the driver, then
//! eigendecompose it *on the driver*. Deterministic — no iterations — and
//! fast when D is small (it wins on the 128-dimensional Images dataset in
//! Table 2), but:
//!
//! * every aggregation partial is a dense D×D matrix (O(D²)
//!   communication, Table 1), and
//! * the driver must hold the D×D matrix in one process's memory, which is
//!   why MLlib-PCA "fails when D exceeds 6,000" on the paper's 32 GB
//!   machines (Figures 7–8). The failure is reproduced through the
//!   simulated driver-memory cap and surfaces as
//!   [`SpcaError::Cluster`]`(`[`dcluster::ClusterError::DriverOom`]`)`.

use dcluster::SimCluster;
use linalg::decomp::eig::sym_eigen;
use linalg::{Mat, SparseMat};
use sparkle::{Rdd, SparkleContext};
use spca_core::accuracy;
use spca_core::driver::{run_passes, ArmNames, Dims, PassArm};
use spca_core::model::{PcaModel, SpcaRun};
use spca_core::spark::SpRow;
use spca_core::{SpcaConfig, SpcaError};

/// Configuration of the MLlib-PCA baseline.
#[derive(Debug, Clone)]
pub struct MllibConfig {
    /// Principal components to produce.
    pub components: usize,
    /// Rows sampled for the (instrumentation-only) error estimate.
    pub error_sample_rows: usize,
    /// Seed for the error sample.
    pub seed: u64,
    /// Number of input partitions. MLlib's tree-aggregation fan-in is
    /// modelled by a modest partial count (default 8): more partials means
    /// proportionally more O(D²) traffic.
    pub partitions: usize,
}

impl MllibConfig {
    /// Defaults: 8 aggregation partials, 256-row error sample.
    pub fn new(components: usize) -> Self {
        MllibConfig { components, error_sample_rows: 256, seed: 0x111b, partitions: 8 }
    }

    /// Sets the partition/partial count.
    pub fn with_partitions(mut self, parts: usize) -> Self {
        assert!(parts > 0);
        self.partitions = parts;
        self
    }
}

static NAMES: ArmNames = ArmNames {
    run: "run_mllib",
    count_key: "passes",
    pass: "pass",
    counters: "mllib",
    category_infix: "pass",
};

/// Covariance PCA as a [`PassArm`] of one pass: the column means, the
/// Gram fold and the driver's eigendecomposition.
struct MllibArm<'a> {
    cluster: &'a SimCluster,
    config: &'a MllibConfig,
    y: &'a SparseMat,
    /// The persisted input RDD, built by `prepare`.
    rdd: Option<Rdd<'a, SpRow>>,
    mean: Vec<f64>,
    c: Mat,
}

impl PassArm for MllibArm<'_> {
    fn names(&self) -> &'static ArmNames {
        &NAMES
    }

    fn dims(&self) -> Dims {
        Dims { n: self.y.rows(), d_in: self.y.cols(), width: self.y.cols() }
    }

    fn max_passes(&self) -> usize {
        1
    }

    /// The defining resource demand: the driver holds the dense D×D
    /// covariance (plus the eigenvector matrix of the same size). If this
    /// does not fit, MLlib dies before doing any distributed work worth
    /// charging — exactly the observed behaviour.
    fn driver_bytes(&self) -> u64 {
        2 * (self.y.cols() as u64).pow(2) * 8
    }

    fn fingerprint(&self, _: &SpcaConfig) -> Vec<(String, String)> {
        vec![("mllib.config".into(), format!("{:?}", self.config))]
    }

    fn prepare(&mut self) {
        let ctx = SparkleContext::new(self.cluster);
        let partitions = self.config.partitions.min(self.y.rows().max(1));
        let blocks: Vec<Vec<SpRow>> =
            self.y.split_rows(partitions).iter().map(spca_core::spark::to_rows).collect();
        let mut rdd = ctx.from_partitions(blocks);
        rdd.persist();
        self.rdd = Some(rdd);
    }

    fn pass(&mut self, _pass: usize) -> spca_core::Result<f64> {
        let rdd = self.rdd.as_ref().expect("prepare builds the RDD");
        let (n, d_in, d) = (self.y.rows(), self.y.cols(), self.config.components);

        // Column means (cheap aggregate).
        let (mean, _) = rdd.aggregate(
            "MLlib/colMeans",
            || vec![0.0_f64; d_in],
            |acc, row| {
                for (c, v) in row.view().iter() {
                    acc[c] += v;
                }
            },
            |acc, other| linalg::vector::axpy(1.0, &other, acc),
        );
        let mean: Vec<f64> = mean.into_iter().map(|s| s / n as f64).collect();

        // Gram matrix: per-task dense D×D partials, aggregated to the
        // driver. Sparse rows only touch O(z²) entries per row, but the
        // *partial* that ships is dense D×D — the communication pathology.
        // Each row updates only the upper triangle (indices ascend), as
        // MLlib's `computeGramianMatrix` does with BLAS `spr`.
        let (gram, _bytes) = rdd.aggregate(
            "MLlib/gram",
            || Mat::zeros(d_in, d_in),
            |acc, row| add_upper_outer(acc, row),
            |acc, other| acc.add_assign(&other),
        );

        // Covariance = (Gram − N·μ⊗μ)/(N−1), then eigendecomposition — all
        // on the driver, charged as driver compute.
        let (c, values) = self.cluster.run_driver("MLlib/eigendecomposition", || {
            let mut cov = gram;
            mirror_upper(&mut cov);
            cov.add_outer(-(n as f64), &mean, &mean);
            let denom = (n.max(2) - 1) as f64;
            cov.scale(1.0 / denom);
            let eig = sym_eigen(&cov)?;
            let mut c = Mat::zeros(d_in, d);
            for j in 0..d {
                for r in 0..d_in {
                    c[(r, j)] = eig.vectors[(r, j)];
                }
            }
            Ok::<_, SpcaError>((c, eig.values))
        })?;
        self.c = c;
        self.mean = mean;
        Ok(crate::top_share(&values, d))
    }

    fn model(&self) -> PcaModel {
        PcaModel::new(self.c.clone(), self.mean.clone(), 1e-9)
    }
}

/// The MLlib-PCA baseline algorithm.
#[derive(Debug, Clone)]
pub struct MllibPca {
    config: MllibConfig,
}

impl MllibPca {
    /// Creates the baseline with the given configuration.
    pub fn new(config: MllibConfig) -> Self {
        MllibPca { config }
    }

    /// Runs covariance-PCA on the Spark-like engine: [`MllibArm`]'s one
    /// pass on [`run_passes`]. Fails with `DriverOom` when the D×D
    /// covariance does not fit in driver memory.
    pub fn fit(&self, cluster: &SimCluster, y: &SparseMat) -> spca_core::Result<SpcaRun> {
        let cfg = &self.config;
        spca_core::label_trace(cluster, "MLlib", "Spark");
        let mut arm = MllibArm {
            cluster,
            config: cfg,
            y,
            rdd: None,
            mean: Vec::new(),
            c: Mat::zeros(y.cols(), cfg.components),
        };
        let error_sample = accuracy::sample_rows(y, cfg.error_sample_rows, cfg.seed);
        let policy = SpcaConfig::new(cfg.components).with_rel_tolerance(None);
        run_passes(cluster, &mut arm, &error_sample, &policy)
    }
}

/// `acc += rowᵀ·row` on the upper triangle only (MLlib's `spr`); the
/// row's indices ascend, so pairs (a, b ≥ a) are entries (i, j ≥ i).
fn add_upper_outer(acc: &mut Mat, row: &SpRow) {
    let (idx, val) = (&row.indices[..], &row.values[..]);
    for (a, (&ci, &vi)) in idx.iter().zip(val).enumerate() {
        let target = acc.row_mut(ci as usize);
        for (&cj, &vj) in idx[a..].iter().zip(&val[a..]) {
            target[cj as usize] += vi * vj;
        }
    }
}

/// Copies the upper triangle onto the lower (MLlib's `triuToFull`). Entry
/// (j, i) of a both-triangle fold sums the same products in the same
/// order, so the result is that fold's matrix bit for bit.
fn mirror_upper(m: &mut Mat) {
    for r in 1..m.rows() {
        for c in 0..r {
            m[(r, c)] = m[(c, r)];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcluster::ClusterConfig;
    use linalg::Prng;

    fn tiny_data() -> SparseMat {
        let mut rng = Prng::seed_from_u64(9);
        datasets::sparse_lowrank(&datasets::LowRankSpec::small_test(), &mut rng)
    }

    #[test]
    fn matches_exact_eigenvectors() {
        let y = tiny_data();
        let cluster = SimCluster::new(ClusterConfig::paper_cluster());
        let run = MllibPca::new(MllibConfig::new(3)).fit(&cluster, &y).unwrap();

        // Oracle: eigenvectors of the explicitly centered covariance.
        let mut yc = y.to_dense();
        yc.sub_row_vector(&y.col_means());
        let cov = {
            let mut g = yc.matmul_tn(&yc);
            g.scale(1.0 / (y.rows() - 1) as f64);
            g
        };
        let eig = sym_eigen(&cov).unwrap();
        for j in 0..3 {
            let got = run.model.components().col(j);
            let want = eig.vectors.col(j);
            let cos = linalg::vector::dot(&got, &want).abs();
            assert!(cos > 0.999, "eigenvector {j} cosine {cos}");
        }
    }

    #[test]
    fn upper_fold_mirrored_is_bitwise_the_full_fold() {
        let y = tiny_data();
        let d = y.cols();
        let (mut upper, mut full) = (Mat::zeros(d, d), Mat::zeros(d, d));
        for row in spca_core::spark::to_rows(&y) {
            add_upper_outer(&mut upper, &row);
            for (ci, vi) in row.view().iter() {
                for (cj, vj) in row.view().iter() {
                    full[(ci, cj)] += vi * vj;
                }
            }
        }
        mirror_upper(&mut upper);
        let bits = |m: &Mat| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert!(full.data().iter().any(|&v| v != 0.0));
        assert_eq!(bits(&upper), bits(&full));
    }

    /// The Gram partials are priced under the cluster's codec as the `Mat`
    /// they are: from codec to codec the fit's bytes move by exactly the
    /// difference in its partials' sizes (column sums and Gram matrices).
    #[test]
    fn gram_partials_price_as_their_matrix_under_every_codec() {
        use linalg::WireCodec;
        let y = tiny_data();
        let codecs = [WireCodec::V2, WireCodec::V3, WireCodec::V3Quantized];
        let config = MllibConfig::new(3);
        let bytes = codecs.map(|codec| {
            let cluster =
                SimCluster::new(ClusterConfig::paper_cluster().with_wire_codec(codec));
            MllibPca::new(config.clone()).fit(&cluster, &y).unwrap().intermediate_bytes
        });
        let d = y.cols();
        let partials: Vec<(Vec<f64>, Mat)> = y
            .split_rows(config.partitions)
            .iter()
            .map(|block| {
                let mut gram = Mat::zeros(d, d);
                for row in spca_core::spark::to_rows(block) {
                    add_upper_outer(&mut gram, &row);
                }
                (block.col_sums(), gram)
            })
            .collect();
        let size = |codec: WireCodec| -> u64 {
            partials.iter().map(|(s, g)| codec.shuffle_size(s) + codec.shuffle_size(g)).sum()
        };
        let fixed = bytes[0] - size(WireCodec::V2);
        for (codec, bytes) in codecs.iter().zip(bytes) {
            assert_eq!(bytes, fixed + size(*codec), "{codec}: Gram partials mispriced");
        }
        // Binary input: integral Gram entries take v3's varint payload.
        assert!(bytes[1] * 2 < bytes[0], "v3 must engage on the Gram partials: {bytes:?}");
    }

    #[test]
    fn driver_oom_past_memory_cap() {
        // D = 1000 → 2·8 MB driver demand; cap the driver below that.
        let y = SparseMat::from_triplets(10, 1000, &[(0, 0, 1.0), (1, 999, 1.0)]);
        let cluster = SimCluster::new(
            ClusterConfig::paper_cluster().with_driver_memory(4 << 20),
        );
        match MllibPca::new(MllibConfig::new(2)).fit(&cluster, &y) {
            Err(SpcaError::Cluster(dcluster::ClusterError::DriverOom { .. })) => {}
            other => panic!("expected DriverOom, got {other:?}"),
        }
    }

    #[test]
    fn quadratic_intermediate_data_in_dimensionality() {
        let run_bytes = |cols: usize| {
            let mut rng = Prng::seed_from_u64(10);
            let spec = datasets::LowRankSpec {
                rows: 100,
                cols,
                ..datasets::LowRankSpec::small_test()
            };
            let y = datasets::sparse_lowrank(&spec, &mut rng);
            let cluster = SimCluster::new(ClusterConfig::paper_cluster());
            MllibPca::new(MllibConfig::new(2)).fit(&cluster, &y).unwrap().intermediate_bytes
        };
        let b100 = run_bytes(100);
        let b400 = run_bytes(400);
        let ratio = b400 as f64 / b100 as f64;
        assert!(ratio > 10.0, "Gram traffic must grow ~quadratically, got ×{ratio}");
    }

    #[test]
    fn driver_peak_reflects_covariance() {
        let y = tiny_data(); // D = 100 → ≥ 160 kB tracked
        let cluster = SimCluster::new(ClusterConfig::paper_cluster());
        let _ = MllibPca::new(MllibConfig::new(2)).fit(&cluster, &y).unwrap();
        assert!(cluster.metrics().driver_peak_bytes >= 2 * 100 * 100 * 8);
    }

    #[test]
    fn single_deterministic_iteration() {
        let y = tiny_data();
        let cluster = SimCluster::new(ClusterConfig::paper_cluster());
        let a = MllibPca::new(MllibConfig::new(2)).fit(&cluster, &y).unwrap();
        let b = MllibPca::new(MllibConfig::new(2)).fit(&cluster, &y).unwrap();
        assert_eq!(a.iterations.len(), 1);
        assert!(a.model.components().approx_eq(b.model.components(), 1e-12));
    }
}
