//! The engine-agnostic EM arm (Algorithm 4, lines 3–14).
//!
//! The paper distributes three computations — the consolidated
//! `YtX`/`XtX` job, the `ss3` job, and the one-time mean/Frobenius jobs —
//! while "all other operations can easily run on a single machine" in the
//! driver. Here `ss3 = tr(C_newᵀ·YtX)` and `XtX = CMᵀ·YtX` join the driver
//! side too, over the `YtX` it already holds: an iteration makes one
//! distributed pass, and its tasks fold no Θ(N·d²) Gram. Line 12's `CᵀC`
//! of the new `C` is the next iteration's `M`, whose `M⁻¹` and `CM` the
//! driver forms once, also to score the sampled error. The [`EmJobs`]
//! trait is the distributed surface (implemented once per engine in
//! [`crate::spark`] and [`crate::mr`]) and `EmArm` is one EM iteration's
//! driver algebra around it, shared verbatim by both platforms.
//! Everything around the iteration — resume, sampled error, telemetry,
//! checkpoint, stop — is [`crate::driver::run_passes`], which the
//! randomized arm runs on too.

use linalg::decomp::cholesky::solve_spd_right;
use linalg::decomp::lu::Lu;
use linalg::{Mat, SparseMat};

use crate::accuracy;
use crate::checkpoint;
use crate::config::SpcaConfig;
use crate::driver::{ArmNames, Dims, PassArm};
use crate::mean_prop::{xtx_from_ytx, YtxPartial};
use crate::model::PcaModel;
use crate::Result;

/// The distributed jobs an engine must provide.
pub trait EmJobs {
    /// `meanJob`: column means of `Y` (Algorithm 4, line 3).
    fn mean_job(&mut self) -> Vec<f64>;
    /// `FnormJob`: `‖Y − 1⊗mean‖²_F` via Algorithm 3 (line 4).
    fn fnorm_job(&mut self, mean: &[f64]) -> f64;
    /// Consolidated `YtXJob` (line 9): one distributed pass computing the
    /// `YtX` contributions and the hoisted `Σx`, recomputing `X` on demand
    /// from the broadcast `CM` and `Xm`. (`XtX` is derived on the driver.)
    fn ytx_job(&mut self, cm: &Mat, xm: &[f64]) -> YtxPartial;
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
    /// `(M⁻¹, CM)` of the current `(C, ss)`, formed once at the end of the
    /// pass that produced them: the sampled error scores through `CM`, and
    /// the next pass starts from both. `None` before the first pass and
    /// after a restore.
    projection: Option<(Mat, Mat)>,
}

/// Algorithm 4, lines 6–7: `M = CᵀC + ss·I`, `M⁻¹` and `CM = C·M⁻¹`, from
/// a `CᵀC` already formed — [`PcaModel::latent_projection`]'s operations,
/// so its bits.
fn projection(c: &Mat, mut ctc: Mat, ss: f64) -> Result<(Mat, Mat)> {
    ctc.add_diag(ss);
    let m_inv = Lu::new(&ctc)?.inverse();
    let cm = c.matmul(&m_inv);
    Ok((m_inv, cm))
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
        EmArm { jobs, config, n, d_in, c, ss, mean: Vec::new(), ss1: f64::NAN, projection: None }
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

    fn prepare(&mut self) {
        // Lines 3–4: one-time jobs.
        self.mean = self.jobs.mean_job();
        self.ss1 = self.jobs.fnorm_job(&self.mean);
    }

    fn restore(&mut self, state: Mat, ss: f64) {
        self.c = state;
        self.ss = ss;
        self.projection = None;
    }

    fn pass(&mut self, _pass: usize) -> Result<f64> {
        let (n, d_in) = (self.n, self.d_in);
        let (c, ss, mean) = (&self.c, self.ss, &self.mean);

        // Lines 6–8 (driver): M, CM = C·M⁻¹ (the previous pass's, past the
        // first pass and a restore), Xm = Ym·CM.
        let (m_inv, cm, xm) = {
            let _s = obs::span("driver", "em driver update");
            let (m_inv, cm) = match self.projection.take() {
                Some(shared) => shared,
                None => projection(c, c.matmul_tn(c), ss)?,
            };
            let xm = cm.vecmat(mean);
            (m_inv, cm, xm)
        };

        // Line 9 (distributed): consolidated YtX pass.
        let partial = self.jobs.ytx_job(&cm, &xm);
        debug_assert_eq!(partial.rows_seen as usize, n, "YtXJob must see every row");

        // Lines 10–13 (driver).
        let (c_new, ctc, ss2, ss3) = {
            let _s = obs::span("driver", "em driver assemble");
            // Driver-side assembly of the dense YtX.
            let ytx = {
                let _s = obs::span("driver", "finalize_ytx");
                partial.finalize_ytx(mean)
            };
            // Line 10: XtX = Σᵢ xᵢ'xᵢ + N·ss·M⁻¹, the sum without a pass
            // over Y: CM'·YtX (see `xtx_from_ytx`).
            let mut xtx = {
                let _s = obs::span("driver", "xtx from ytx");
                xtx_from_ytx(&cm, &ytx)
            };
            xtx.add_scaled(n as f64 * ss, &m_inv);

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
            (c_new, ctc, ss2, ss3)
        };

        // Line 14: variance update.
        self.c = c_new;
        self.ss = ((self.ss1 + ss2 - 2.0 * ss3) / (n as f64) / (d_in as f64)).max(1e-12);
        // The next pass's lines 6–7, on line 12's C'C: formed once here for
        // the sampled error and the next update.
        self.projection = {
            let _s = obs::span("driver", "em driver projection");
            Some(projection(&self.c, ctc, self.ss)?)
        };

        // Convergence telemetry: the paper's 1 − ss·N·D/‖Y−mean‖²_F
        // objective, plotted with the sampled error against virtual time.
        Ok(1.0 - self.ss * (n as f64) * (d_in as f64) / self.ss1)
    }

    fn model(&self) -> PcaModel {
        PcaModel::new(self.c.clone(), self.mean.clone(), self.ss)
    }

    fn sampled_error(&self, sample: &SparseMat, model: &PcaModel) -> Result<f64> {
        match &self.projection {
            Some((_, cm)) => Ok(accuracy::projected_error(sample, model, cm)),
            None => accuracy::reconstruction_error(sample, model),
        }
    }

    fn checkpoint_state(&self, _run_over: bool) -> Option<(Mat, f64)> {
        // `C` and `ss` are the model, so any pass may be a run's last word.
        Some((self.c.clone(), self.ss))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::Prng;

    /// The EM jobs in one process, the whole input one partition.
    struct LocalJobs(SparseMat);

    impl EmJobs for LocalJobs {
        fn mean_job(&mut self) -> Vec<f64> {
            self.0.col_means()
        }
        fn fnorm_job(&mut self, mean: &[f64]) -> f64 {
            crate::frobenius::centered_sq_block(&self.0, mean, linalg::vector::norm2_sq(mean))
        }
        fn ytx_job(&mut self, cm: &Mat, xm: &[f64]) -> YtxPartial {
            let mut partial = YtxPartial::new(cm.cols());
            partial.add_block(&self.0, cm, xm);
            partial
        }
    }

    /// The sampled error through the `CM` a pass leaves behind is the
    /// model's own error bit for bit, on every pass and on the pass right
    /// after a restore (which forms `M⁻¹` and `CM` afresh) — and that pass
    /// repeats the uninterrupted run's state bit for bit.
    #[test]
    fn shared_projection_scores_every_pass_like_the_model() {
        let mut rng = Prng::seed_from_u64(31);
        let (n, d_in, d) = (90, 40, 3);
        let triplets: Vec<_> =
            (0..400).map(|_| (rng.index(n), rng.index(d_in) as u32, rng.normal())).collect();
        let y = SparseMat::from_triplets(n, d_in, &triplets);
        let sample = accuracy::sample_rows(&y, 25, 7);
        let config = SpcaConfig::new(d);
        let mut jobs = LocalJobs(y);
        let mut arm = EmArm::new(&mut jobs, &config, (n, d_in), (rng.normal_mat(d_in, d), 1.0));
        arm.prepare();

        let run = |arm: &mut EmArm, pass| {
            arm.pass(pass).unwrap();
            let model = arm.model();
            let shared = arm.sampled_error(&sample, &model).unwrap();
            let own = accuracy::reconstruction_error(&sample, &model).unwrap();
            assert_eq!(shared.to_bits(), own.to_bits(), "pass {pass}");
            model
        };
        let models: Vec<PcaModel> = (1..=4).map(|pass| run(&mut arm, pass)).collect();
        arm.restore(models[1].components().clone(), models[1].noise_variance());
        assert!(arm.projection.is_none(), "a restore keeps no projection");
        for pass in 3..=4 {
            let model = run(&mut arm, pass);
            assert_eq!(model.content_hash(), models[pass - 1].content_hash(), "pass {pass}");
        }
    }
}
