//! The engine-agnostic EM arm (Algorithm 4, lines 3–14).
//!
//! The paper distributes three computations — the consolidated
//! `YtX`/`XtX` job, the `ss3` job, and the one-time mean/Frobenius jobs —
//! while "all other operations can easily run on a single machine" in the
//! driver. Here `ss3` joins the driver side too: it is `tr(C_newᵀ·YtX)`
//! over the `YtX` the driver already holds, so an iteration makes one
//! distributed pass, not two. The [`EmJobs`] trait is the distributed
//! surface (implemented once per engine in [`crate::spark`] and
//! [`crate::mr`]) and `EmArm` is one EM iteration's driver algebra around
//! it, shared verbatim by both platforms. Everything around the iteration
//! — resume, sampled error, telemetry, checkpoint, stop — is
//! [`crate::driver::run_passes`], which the randomized arm runs on too.

use linalg::decomp::cholesky::solve_spd_right;
use linalg::decomp::lu::Lu;
use linalg::{Mat, SparseMat};

use crate::checkpoint;
use crate::config::SpcaConfig;
use crate::driver::{ArmNames, Dims, PassArm, PassStats};
use crate::mean_prop::YtxPartial;
use crate::model::PcaModel;
use crate::Result;

/// The distributed jobs an engine must provide.
pub trait EmJobs {
    /// `meanJob`: column means of `Y` (Algorithm 4, line 3).
    fn mean_job(&mut self) -> Vec<f64>;
    /// `FnormJob`: `‖Y − 1⊗mean‖²_F` via Algorithm 3 (line 4).
    fn fnorm_job(&mut self, mean: &[f64]) -> f64;
    /// Consolidated `YtXJob` (line 9): one distributed pass computing the
    /// `XtX` and `YtX` contributions and the hoisted `Σx`, recomputing `X`
    /// on demand from the broadcast `CM` and `Xm`.
    fn ytx_job(&mut self, cm: &Mat, xm: &[f64]) -> YtxPartial;
}

/// Relative max-abs divergence between the reduced-precision arm's
/// `YtXJob` partial and the `f64` reference, both computed on the same
/// small row sample. Driver-local instrumentation: never shipped, never
/// charged.
fn precision_divergence(
    sample: &SparseMat,
    cm: &Mat,
    xm: &[f64],
    d: usize,
    precision: linalg::Precision,
) -> f64 {
    let mut arm = YtxPartial::new(d);
    arm.add_block_prec(sample, cm, xm, precision);
    let mut reference = YtxPartial::new(d);
    reference.add_block(sample, cm, xm);
    let abs = arm.xtx.max_abs_diff(&reference.xtx);
    let scale = reference.xtx.data().iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1e-300);
    abs / scale
}

static NAMES: ArmNames = ArmNames {
    run: "run_em",
    count_key: "iterations",
    pass: "iteration",
    counters: "em",
    category_infix: "iter",
};

/// PPCA-EM as a [`PassArm`]: one pass is one EM iteration over the
/// engine's [`EmJobs`], updating `C` and `ss`.
pub(crate) struct EmArm<'a> {
    jobs: &'a mut dyn EmJobs,
    config: &'a SpcaConfig,
    /// Input shape N×D.
    n: usize,
    d_in: usize,
    c: Mat,
    ss: f64,
    mean: Vec<f64>,
    /// `‖Y − 1⊗mean‖²_F`.
    ss1: f64,
}

impl<'a> EmArm<'a> {
    /// `jobs` run over the `n`×`d_in` input; `init` is the starting
    /// `(C, ss)` — random or smart-guess.
    pub(crate) fn new(
        jobs: &'a mut dyn EmJobs,
        config: &'a SpcaConfig,
        (n, d_in): (usize, usize),
        init: (Mat, f64),
    ) -> Self {
        let (c, ss) = init;
        assert_eq!((c.rows(), c.cols()), (d_in, config.components), "init C has wrong shape");
        EmArm { jobs, config, n, d_in, c, ss, mean: Vec::new(), ss1: f64::NAN }
    }
}

impl PassArm for EmArm<'_> {
    fn names(&self) -> &'static ArmNames {
        &NAMES
    }

    fn dims(&self) -> Dims {
        Dims { n: self.n, d_in: self.d_in, width: self.config.components }
    }

    fn max_passes(&self) -> usize {
        self.config.max_iters
    }

    fn checkpoint_file(&self) -> String {
        checkpoint::file_name(self.config.job_id.as_deref())
    }

    fn run_args(&self) -> Vec<(&'static str, obs::ArgValue)> {
        vec![("precision", self.config.precision.label().into())]
    }

    fn prepare(&mut self) {
        // Lines 3–4: one-time jobs.
        self.mean = self.jobs.mean_job();
        self.ss1 = self.jobs.fnorm_job(&self.mean);
    }

    fn restore(&mut self, state: Mat, ss: f64) {
        self.c = state;
        self.ss = ss;
    }

    fn pass(&mut self, _pass: usize, error_sample: &SparseMat) -> Result<PassStats> {
        let (n, d_in) = (self.n, self.d_in);
        let (c, ss, mean) = (&self.c, self.ss, &self.mean);

        // Lines 6–8 (driver): M, CM = C·M⁻¹, Xm = Ym·CM.
        let (m_inv, cm, xm) = {
            let _s = obs::span("driver", "em driver update");
            let mut m = c.matmul_tn(c);
            m.add_diag(ss);
            let m_inv = Lu::new(&m)?.inverse();
            let cm = c.matmul(&m_inv);
            let xm = cm.vecmat(mean);
            (m_inv, cm, xm)
        };

        // Line 9 (distributed): consolidated XtX/YtX pass.
        let partial = self.jobs.ytx_job(&cm, &xm);
        debug_assert_eq!(partial.rows_seen as usize, n, "YtXJob must see every row");

        // Lines 10–13 (driver).
        let (c_new, ss2, ss3) = {
            let _s = obs::span("driver", "em driver assemble");
            // Line 10: XtX += N·ss·M⁻¹.
            let mut xtx = partial.xtx.clone();
            xtx.add_scaled(n as f64 * ss, &m_inv);
            // Driver-side assembly of the dense YtX.
            let ytx = {
                let _s = obs::span("driver", "finalize_ytx");
                partial.finalize_ytx(mean)
            };

            // Line 11: C = YtX / XtX.
            let c_new = {
                let _s = obs::span("driver", "solve_spd_right");
                solve_spd_right(&xtx, &ytx)?
            };

            // Line 12: ss2 = tr(XtX·C'C).
            let ctc = c_new.matmul_tn(&c_new);
            let ss2 = xtx.matmul(&ctc).trace();

            // Line 13, without a pass over Y: with xᵢ = ycᵢ·CM, the
            // finalized YtX is Σᵢ ycᵢ'⊗xᵢ (the hoisted mean term already
            // applied), so ss3 = Σᵢ xᵢ·(C'ycᵢ') = tr(C'·YtX): the sum of
            // C ∘ YtX, one `dot` over the two row-major D×d buffers (four
            // strided lanes, then the tail), the same order on any pool.
            let ss3 = linalg::vector::dot(c_new.data(), ytx.data());
            (c_new, ss2, ss3)
        };

        // Line 14: variance update.
        self.c = c_new;
        self.ss = ((self.ss1 + ss2 - 2.0 * ss3) / (n as f64) / (d_in as f64)).max(1e-12);

        // Convergence telemetry: the paper's 1 − ss·N·D/‖Y−mean‖²_F
        // objective, plotted with the sampled error against virtual time.
        let objective = 1.0 - self.ss * (n as f64) * (d_in as f64) / self.ss1;
        // Reduced-precision arms: track how far this iteration's arm
        // drifts from the f64 reference on the (uncharged) error sample —
        // the divergence meter the precision ladder is judged by. One
        // small local block, never shipped.
        let precision = self.config.precision;
        let recording = obs::enabled() || obs::ledger::sink_enabled();
        let divergence = (precision != linalg::Precision::F64 && recording).then(|| {
            precision_divergence(error_sample, &cm, &xm, self.config.components, precision)
        });
        Ok(PassStats { objective, divergence })
    }

    fn model(&self) -> PcaModel {
        PcaModel::new(self.c.clone(), self.mean.clone(), self.ss)
    }

    fn checkpoint_state(&self, _run_over: bool) -> Option<(Mat, f64)> {
        // `C` and `ss` are the model, so any pass may be a run's last word.
        Some((self.c.clone(), self.ss))
    }
}
