//! The fitted model and per-run diagnostics.

use linalg::decomp::lu::Lu;
use linalg::decomp::qr::qr_thin;
use linalg::{Mat, SparseMat};

use crate::error::SpcaError;
use crate::Result;

/// A fitted probabilistic PCA model: `y ≈ C·x + μ + ε`, `ε ~ N(0, ss·I)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PcaModel {
    /// Transformation matrix `C` (D × d); its columns span the principal
    /// subspace (equal to the principal components up to rotation, as
    /// Tipping & Bishop prove).
    components: Mat,
    /// Column means `Ym` (length D).
    mean: Vec<f64>,
    /// Isotropic noise variance `ss`.
    ss: f64,
}

impl PcaModel {
    /// Builds a model; panics on inconsistent dimensions (programmer error).
    pub fn new(components: Mat, mean: Vec<f64>, ss: f64) -> Self {
        assert_eq!(components.rows(), mean.len(), "C rows must equal mean length");
        assert!(ss >= 0.0, "noise variance must be non-negative");
        PcaModel { components, mean, ss }
    }

    /// The transformation matrix `C` (D × d).
    pub fn components(&self) -> &Mat {
        &self.components
    }

    /// The column means.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// The noise variance `ss`.
    pub fn noise_variance(&self) -> f64 {
        self.ss
    }

    /// Input dimensionality D.
    pub fn input_dim(&self) -> usize {
        self.components.rows()
    }

    /// Number of components d.
    pub fn output_dim(&self) -> usize {
        self.components.cols()
    }

    /// The posterior-mean projection matrix `CM = C·(C'C + ss·I)⁻¹`
    /// (D × d): the latent coordinates of a row `y` are
    /// `x = (y − μ)·CM`.
    pub fn latent_projection(&self) -> Result<Mat> {
        let mut m = self.components.matmul_tn(&self.components);
        m.add_diag(self.ss);
        let m_inv = Lu::new(&m).map_err(SpcaError::from)?.inverse();
        Ok(self.components.matmul(&m_inv))
    }

    /// Projects sparse rows into latent space: `X = (Y − 1⊗μ)·CM`,
    /// computed with mean propagation (never densifying `Y`).
    pub fn transform_sparse(&self, y: &SparseMat) -> Result<Mat> {
        SpcaError::check_dims(y.cols(), self.input_dim())?;
        Ok(self.project_sparse(y, &self.latent_projection()?))
    }

    /// [`Self::transform_sparse`] through a `CM` the caller already holds
    /// (the EM driver's, which is [`Self::latent_projection`] bit for bit).
    pub(crate) fn project_sparse(&self, y: &SparseMat, cm: &Mat) -> Mat {
        let xm = cm.vecmat(&self.mean);
        let mut x = y.mul_dense(cm);
        for r in 0..x.rows() {
            linalg::vector::axpy(-1.0, &xm, x.row_mut(r));
        }
        x
    }

    /// Projects dense rows into latent space.
    pub fn transform_dense(&self, y: &Mat) -> Result<Mat> {
        SpcaError::check_dims(y.cols(), self.input_dim())?;
        let cm = self.latent_projection()?;
        let xm = cm.vecmat(&self.mean);
        let mut x = y.matmul(&cm);
        for r in 0..x.rows() {
            linalg::vector::axpy(-1.0, &xm, x.row_mut(r));
        }
        Ok(x)
    }

    /// Reconstructs rows from latent coordinates: `Ŷ = X·C' + 1⊗μ`.
    pub fn reconstruct(&self, x: &Mat) -> Mat {
        assert_eq!(x.cols(), self.output_dim(), "reconstruct: dimension mismatch");
        let mut y = x.matmul_nt(&self.components);
        for r in 0..y.rows() {
            linalg::vector::axpy(1.0, &self.mean, y.row_mut(r));
        }
        y
    }

    /// Orthonormal basis of the principal subspace (thin QR of `C`).
    pub fn orthonormal_basis(&self) -> Mat {
        qr_thin(&self.components).q
    }

    /// Per-component variances along the principal directions, descending.
    ///
    /// Under PPCA the data covariance along component `i` is `σᵢ² + ss`
    /// where `σᵢ²` are the eigenvalues of `CᵀC`; these are the scree
    /// values used to decide how many components to keep.
    pub fn component_variances(&self) -> Result<Vec<f64>> {
        let ctc = self.components.matmul_tn(&self.components);
        let eig = linalg::decomp::sym_eigen(&ctc).map_err(SpcaError::from)?;
        Ok(eig.values.iter().map(|&l| l.max(0.0) + self.ss).collect())
    }

    /// Fraction of total modelled variance explained by the first `k`
    /// components (`k` capped at d).
    pub fn explained_variance_ratio(&self, k: usize) -> Result<f64> {
        let vars = self.component_variances()?;
        let modelled: f64 = vars.iter().sum::<f64>()
            + (self.input_dim() - self.output_dim()) as f64 * self.ss;
        let head: f64 = vars.iter().take(k).sum();
        Ok(head / modelled.max(f64::MIN_POSITIVE))
    }

    /// Content hash over the exact bit patterns of every parameter —
    /// dimensions, `C`, `μ`, and `ss`. Two models hash equal iff they are
    /// bitwise identical, which is the reproducibility contract the run
    /// ledger's `model_hash` field and the perf gate check: same config on
    /// any worker count must produce the same hash. FNV-1a, so the value
    /// is stable across platforms and releases.
    pub fn content_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(&(self.input_dim() as u64).to_le_bytes());
        eat(&(self.output_dim() as u64).to_le_bytes());
        eat(&self.ss.to_bits().to_le_bytes());
        for v in &self.mean {
            eat(&v.to_bits().to_le_bytes());
        }
        for v in self.components.data() {
            eat(&v.to_bits().to_le_bytes());
        }
        h
    }

    /// Serializes to a small self-describing text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("spca-model v1\n");
        out.push_str(&format!("dims {} {}\n", self.input_dim(), self.output_dim()));
        out.push_str(&format!("ss {:e}\n", self.ss));
        out.push_str("mean");
        for v in &self.mean {
            out.push_str(&format!(" {v:e}"));
        }
        out.push('\n');
        for r in 0..self.components.rows() {
            out.push('c');
            for v in self.components.row(r) {
                out.push_str(&format!(" {v:e}"));
            }
            out.push('\n');
        }
        out
    }

    /// Parses the text format produced by [`Self::to_text`].
    pub fn from_text(text: &str) -> std::result::Result<Self, String> {
        let mut lines = text.lines();
        if lines.next() != Some("spca-model v1") {
            return Err("missing header".into());
        }
        let dims_line = lines.next().ok_or("missing dims")?;
        let mut it = dims_line.split_whitespace();
        if it.next() != Some("dims") {
            return Err("expected dims line".into());
        }
        let d_in: usize = it.next().ok_or("missing D")?.parse().map_err(|e| format!("D: {e}"))?;
        let d_out: usize = it.next().ok_or("missing d")?.parse().map_err(|e| format!("d: {e}"))?;

        let ss_line = lines.next().ok_or("missing ss")?;
        let ss = finite(ss_line.strip_prefix("ss ").ok_or("expected ss line")?)
            .map_err(|e| format!("ss: {e}"))?;
        if ss < 0.0 {
            return Err(format!("ss: {ss} is negative"));
        }

        let mean_line = lines.next().ok_or("missing mean")?;
        let mean: Vec<f64> = mean_line
            .strip_prefix("mean")
            .ok_or("expected mean line")?
            .split_whitespace()
            .map(|t| finite(t).map_err(|e| format!("mean: {e}")))
            .collect::<std::result::Result<_, _>>()?;
        if mean.len() != d_in {
            return Err(format!("mean has {} entries, expected {d_in}", mean.len()));
        }

        let mut c = Mat::zeros(d_in, d_out);
        for r in 0..d_in {
            let line = lines.next().ok_or_else(|| format!("missing C row {r}"))?;
            let vals: Vec<f64> = line
                .strip_prefix("c")
                .ok_or("expected c line")?
                .split_whitespace()
                .map(|t| finite(t).map_err(|e| format!("C[{r}]: {e}")))
                .collect::<std::result::Result<_, _>>()?;
            if vals.len() != d_out {
                return Err(format!("C row {r} has {} entries, expected {d_out}", vals.len()));
            }
            c.row_mut(r).copy_from_slice(&vals);
        }
        Ok(PcaModel::new(c, mean, ss))
    }
}

/// Parses one entry of a model file, which must be finite: a file is
/// input from outside the program, and a NaN or infinite entry would
/// reach every projection the model makes.
fn finite(token: &str) -> std::result::Result<f64, String> {
    match token.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        Ok(v) => Err(format!("{v} is not finite")),
        Err(e) => Err(e.to_string()),
    }
}

/// Per-iteration progress record — the raw series behind the paper's
/// accuracy-vs-time figures (4 and 5).
#[derive(Debug, Clone, PartialEq)]
pub struct IterationStat {
    /// 1-based EM iteration index.
    pub iteration: usize,
    /// Sampled reconstruction error after this iteration.
    pub error: f64,
    /// Noise variance after this iteration.
    pub ss: f64,
    /// Cluster virtual clock when the iteration finished (seconds).
    pub virtual_time_secs: f64,
}

/// Result of one distributed fit.
#[derive(Debug, Clone)]
pub struct SpcaRun {
    /// The fitted model.
    pub model: PcaModel,
    /// One entry per EM iteration, in order.
    pub iterations: Vec<IterationStat>,
    /// Virtual seconds the fit consumed (clock delta across the fit).
    pub virtual_time_secs: f64,
    /// Intermediate bytes the fit generated (shuffles + DFS writes).
    pub intermediate_bytes: u64,
}

impl SpcaRun {
    /// Reconstruction error after the last iteration.
    pub fn final_error(&self) -> f64 {
        self.iterations.last().map_or(f64::INFINITY, |s| s.error)
    }

    /// Virtual time at which the sampled error first reached `target`, if
    /// it ever did.
    pub fn time_to_error(&self, target: f64) -> Option<f64> {
        self.iterations.iter().find(|s| s.error <= target).map(|s| s.virtual_time_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::Prng;

    fn sample_model() -> PcaModel {
        let mut rng = Prng::seed_from_u64(1);
        let c = rng.normal_mat(6, 2);
        let mean = vec![0.5; 6];
        PcaModel::new(c, mean, 0.25)
    }

    #[test]
    fn dimensions_are_exposed() {
        let m = sample_model();
        assert_eq!(m.input_dim(), 6);
        assert_eq!(m.output_dim(), 2);
        assert_eq!(m.mean().len(), 6);
        assert_eq!(m.noise_variance(), 0.25);
    }

    #[test]
    fn transform_then_reconstruct_reduces_error() {
        // Rows generated from the model should reconstruct well.
        let m = sample_model();
        let mut rng = Prng::seed_from_u64(2);
        let latent = rng.normal_mat(40, 2);
        let mut y = m.reconstruct(&latent);
        // Add mild noise.
        let noise = rng.normal_mat(40, 6);
        y.add_scaled(0.05, &noise);

        let x = m.transform_dense(&y).unwrap();
        let y_hat = m.reconstruct(&x);
        let err = linalg::norms::diff_norm1(&y, &y_hat) / y.norm1();
        assert!(err < 0.25, "reconstruction error {err}");
    }

    #[test]
    fn sparse_and_dense_transforms_agree() {
        let m = sample_model();
        let dense = Mat::from_rows(&[&[1.0, 0.0, 0.0, 2.0, 0.0, 0.0], &[0.0, 3.0, 0.0, 0.0, 0.0, 1.0]]);
        let sparse = SparseMat::from_dense(&dense);
        let xd = m.transform_dense(&dense).unwrap();
        let xs = m.transform_sparse(&sparse).unwrap();
        assert!(xd.approx_eq(&xs, 1e-12));
    }

    #[test]
    fn orthonormal_basis_is_orthonormal() {
        let m = sample_model();
        let q = m.orthonormal_basis();
        let qtq = q.matmul_tn(&q);
        assert!(qtq.approx_eq(&Mat::identity(2), 1e-10));
    }

    #[test]
    fn component_variances_are_descending_and_variance_ratio_monotone() {
        let m = sample_model();
        let vars = m.component_variances().unwrap();
        assert_eq!(vars.len(), 2);
        assert!(vars[0] >= vars[1]);
        assert!(vars.iter().all(|&v| v >= m.noise_variance()));
        let r1 = m.explained_variance_ratio(1).unwrap();
        let r2 = m.explained_variance_ratio(2).unwrap();
        assert!(r1 > 0.0 && r1 <= r2 && r2 <= 1.0, "{r1} vs {r2}");
    }

    #[test]
    fn text_roundtrip_is_exact_enough() {
        let m = sample_model();
        let text = m.to_text();
        let back = PcaModel::from_text(&text).unwrap();
        assert_eq!(back.input_dim(), 6);
        assert!(back.components().approx_eq(m.components(), 1e-12));
        assert!((back.noise_variance() - m.noise_variance()).abs() < 1e-12);
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(PcaModel::from_text("not a model").is_err());
        assert!(PcaModel::from_text("spca-model v1\ndims 2 1\nss abc\n").is_err());
        // Truncated C rows.
        let text = "spca-model v1\ndims 2 1\nss 0.5\nmean 0 0\nc 1\n";
        assert!(PcaModel::from_text(text).is_err());
        // A negative or non-finite noise variance, mean or component is
        // an `Err`, never the panic of `PcaModel::new`'s contract.
        let model = |ss: &str, mean: &str, c: &str| {
            PcaModel::from_text(&format!("spca-model v1\ndims 2 1\nss {ss}\nmean {mean}\nc 1\nc {c}\n"))
        };
        assert!(model("0.5", "0 0", "2").is_ok());
        for ss in ["-1", "-1e-300", "NaN", "inf", "-inf"] {
            let err = model(ss, "0 0", "2").unwrap_err();
            assert!(err.starts_with("ss: "), "ss {ss}: {err}");
        }
        for bad in ["NaN", "inf", "-infinity"] {
            assert!(model("0.5", &format!("0 {bad}"), "2").unwrap_err().starts_with("mean: "));
            assert!(model("0.5", "0 0", bad).unwrap_err().starts_with("C[1]: "));
        }
    }

    #[test]
    fn run_helpers() {
        let run = SpcaRun {
            model: sample_model(),
            iterations: vec![
                IterationStat { iteration: 1, error: 0.8, ss: 1.0, virtual_time_secs: 10.0 },
                IterationStat { iteration: 2, error: 0.4, ss: 0.5, virtual_time_secs: 20.0 },
            ],
            virtual_time_secs: 20.0,
            intermediate_bytes: 123,
        };
        assert_eq!(run.final_error(), 0.4);
        assert_eq!(run.time_to_error(0.5), Some(20.0));
        assert_eq!(run.time_to_error(0.1), None);
    }
}
