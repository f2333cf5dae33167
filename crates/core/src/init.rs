//! Initialization of `C` and `ss`: random (Algorithm 4, lines 1–2) and
//! smart-guess (sPCA-SG, Section 5.2). Both engines' EM scaffolds get their
//! starting point from the one `initial_state` here; the smart-guess
//! warm-up is a fit of a row sample on the engine that asked, so the
//! caller hands in its own `fit_with_input`.

use dcluster::SimCluster;
use linalg::{Mat, Prng, SparseMat};

use crate::config::{SmartGuess, SpcaConfig};
use crate::model::SpcaRun;
use crate::Result;

/// Random initialization — the paper's `C = normrnd(D, d)`,
/// `ss = normrnd(1,1)` (made positive: a non-positive variance is
/// meaningless and the reference implementation clamps it too).
pub fn random_init(d_in: usize, d: usize, seed: u64) -> (Mat, f64) {
    let mut rng = Prng::seed_from_u64(seed);
    let c = rng.normal_mat(d_in, d);
    let ss = rng.normal().powi(2) + 0.5;
    (c, ss)
}

/// An engine's `fit_with_input`: fit `y` under an explicit DFS input name.
pub(crate) type FitWithInput = fn(&SimCluster, &SparseMat, &SpcaConfig, &str) -> Result<SpcaRun>;

/// What initialization cost on the cluster. The paper reports sPCA-SG's
/// (527 s) warm-up delay as part of its timeline, so the engine charges
/// this to the run it starts.
pub(crate) struct WarmUp {
    virtual_secs: f64,
    intermediate_bytes: u64,
}

impl WarmUp {
    /// Adds the warm-up's time and intermediate data to `run`'s.
    pub(crate) fn charge_to(&self, run: &mut SpcaRun) {
        for it in &mut run.iterations {
            it.virtual_time_secs += self.virtual_secs;
        }
        run.virtual_time_secs += self.virtual_secs;
        run.intermediate_bytes += self.intermediate_bytes;
    }
}

/// The EM starting point `(C, ss)` the config asks for — random, or the
/// smart-guess warm start (sPCA-SG) fitted with the calling engine's own
/// `fit_with_input` — inside an `init` trace window, with what it cost.
pub(crate) fn initial_state(
    cluster: &SimCluster,
    y: &SparseMat,
    config: &SpcaConfig,
    fit_with_input: FitWithInput,
) -> Result<((Mat, f64), WarmUp)> {
    let before = cluster.metrics();
    if obs::enabled() {
        cluster.trace_begin("init", "init", Vec::new());
    }
    let state = match &config.smart_guess {
        Some(sg) => smart_guess_init(cluster, y, config, sg, fit_with_input)?,
        None => random_init(y.cols(), config.components, config.seed),
    };
    if obs::enabled() {
        let kind = if config.smart_guess.is_some() { "smart-guess" } else { "random" };
        cluster.trace_end("init", "init", vec![("kind", kind.into())]);
    }
    let after = cluster.metrics();
    let warm_up = WarmUp {
        virtual_secs: after.virtual_time_secs - before.virtual_time_secs,
        intermediate_bytes: after.intermediate_bytes - before.intermediate_bytes,
    };
    Ok((state, warm_up))
}

/// Smart-guess initialization: fit on a small random row sample and return
/// the resulting `(C, ss)` as the starting point for the full run.
///
/// The paper notes this is only possible because sPCA's state is the small
/// D×d matrix `C` — independent of N — whereas Mahout-PCA's random
/// initialization has N rows and cannot be transplanted from a sample.
/// `sg.sample_fraction` is in `(0, 1]`: `SpcaConfig::validate` ran first.
fn smart_guess_init(
    cluster: &SimCluster,
    y: &SparseMat,
    config: &SpcaConfig,
    sg: &SmartGuess,
    fit_with_input: FitWithInput,
) -> Result<(Mat, f64)> {
    let want = ((y.rows() as f64) * sg.sample_fraction).ceil() as usize;
    // Enough rows for the EM to see a d-dimensional subspace.
    let k = want.max(2 * config.components + 2).min(y.rows());
    let mut rng = Prng::seed_from_u64(config.seed ^ 0x5650);
    let idx = rng.sample_indices(y.rows(), k);
    let sample = y.select_rows(&idx);

    // The warm-up must not inherit fault knobs: checkpointing would
    // collide with the full run's checkpoint file, and an injected crash
    // belongs to the main loop only.
    let warm_config = SpcaConfig {
        smart_guess: None,
        max_iters: sg.iterations,
        rel_tolerance: None,
        target_error: None,
        checkpoint_every: None,
        crash_at_iteration: None,
        ..config.clone()
    };
    let run = fit_with_input(
        cluster,
        &sample,
        &warm_config,
        &crate::scoped_input(&warm_config, "input/Y.sample"),
    )?;
    Ok((run.model.components().clone(), run.model.noise_variance()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_init_shapes_and_positivity() {
        let (c, ss) = random_init(20, 4, 1);
        assert_eq!((c.rows(), c.cols()), (20, 4));
        assert!(ss > 0.0);
    }

    #[test]
    fn random_init_is_seeded() {
        let (c1, s1) = random_init(5, 2, 9);
        let (c2, s2) = random_init(5, 2, 9);
        assert!(c1.approx_eq(&c2, 0.0));
        assert_eq!(s1, s2);
        let (c3, _) = random_init(5, 2, 10);
        assert!(!c1.approx_eq(&c3, 1e-9));
    }
}
