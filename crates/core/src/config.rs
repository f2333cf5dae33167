//! Configuration of a PCA fit.

use crate::error::SpcaError;

/// Which algorithm family a fit runs. Both produce a [`crate::PcaModel`],
/// share the input pipeline, byte meters, fault plans and checkpoint
/// machinery, and are each bitwise deterministic across worker counts,
/// engines and timing models — but their communication patterns differ
/// fundamentally (DESIGN.md §15): EM runs many thin iterations, randomized
/// subspace iteration runs few fat passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// The paper's probabilistic-PCA EM (default).
    #[default]
    PpcaEm,
    /// Randomized subspace iteration (Halko et al., arXiv:1007.5510):
    /// seeded Gaussian range sketch, q power passes with per-pass
    /// orthonormalization, final small SVD of the covariance sketch.
    Randomized,
}

impl Algorithm {
    /// Stable label used in fingerprints, trace names and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::PpcaEm => "ppca-em",
            Algorithm::Randomized => "randomized",
        }
    }

    /// The arm's family in trace labels: `sPCA` / `rPCA`.
    pub fn family(&self) -> &'static str {
        match self {
            Algorithm::PpcaEm => "sPCA",
            Algorithm::Randomized => "rPCA",
        }
    }

    /// Parses a CLI/user spelling. Accepts the fingerprint labels plus the
    /// common shorthands (`em`, `rpca`).
    pub fn parse(s: &str) -> Option<Algorithm> {
        match s {
            "em" | "ppca" | "ppca-em" => Some(Algorithm::PpcaEm),
            "randomized" | "rpca" | "rand" => Some(Algorithm::Randomized),
            _ => None,
        }
    }
}

/// Smart-guess initialization (the paper's sPCA-SG, Section 5.2): run the
/// algorithm on a small random row sample first and seed the full run with
/// the resulting `C` and `ss`.
#[derive(Debug, Clone, PartialEq)]
pub struct SmartGuess {
    /// Fraction of rows to sample for the warm-up run (0 < f ≤ 1).
    pub sample_fraction: f64,
    /// EM iterations to spend on the sample.
    pub iterations: usize,
}

impl Default for SmartGuess {
    fn default() -> Self {
        SmartGuess { sample_fraction: 0.05, iterations: 5 }
    }
}

/// Configuration for [`crate::Spca`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpcaConfig {
    /// Number of principal components `d` (the paper uses 50 everywhere).
    pub components: usize,
    /// Hard cap on EM iterations (the paper caps at 10 in Table 2).
    pub max_iters: usize,
    /// Stop when the relative change of the reconstruction error between
    /// iterations falls below this (`None` disables the check).
    pub rel_tolerance: Option<f64>,
    /// Stop as soon as the sampled reconstruction error reaches this value
    /// (`None` disables). Used for "time to 95% of ideal accuracy" runs.
    pub target_error: Option<f64>,
    /// RNG seed: initialization of `C`/`ss` and the error-estimation row
    /// sample derive from it.
    pub seed: u64,
    /// Rows sampled for the reconstruction-error estimate (the paper also
    /// measures error on a random row subset to keep it affordable).
    pub error_sample_rows: usize,
    /// Number of input partitions (defaults to the cluster's core count at
    /// fit time when `None`).
    pub partitions: Option<usize>,
    /// Optional smart-guess initialization (sPCA-SG).
    pub smart_guess: Option<SmartGuess>,
    /// Checkpoint the EM state (`C`, `ss`, error) to the cluster's DFS
    /// every this many iterations (`None` disables). With a checkpoint
    /// present on the cluster, `fit` resumes from it instead of
    /// restarting — bitwise identically to the uninterrupted run.
    pub checkpoint_every: Option<usize>,
    /// Fault injection: kill the driver right after this iteration
    /// completes (and after any due checkpoint is written — which, when
    /// the iteration ended the run, says so: the resume has nothing left
    /// to run). The fit returns `SpcaError::DriverCrashed`; `None` disables.
    pub crash_at_iteration: Option<usize>,
    /// Job id scoping this fit's DFS namespace (input files, checkpoint
    /// blobs). `None` keeps the legacy shared names; multi-tenant runs
    /// must set distinct ids so concurrent checkpoints never collide
    /// (see `dcluster::hdfs::job_scoped`). Never changes the fitted
    /// model — only where its transient state lives.
    pub job_id: Option<String>,
    /// Algorithm family: the paper's PPCA-EM (default) or randomized
    /// subspace iteration. See [`Algorithm`].
    pub algorithm: Algorithm,
    /// Randomized arm only: oversampling columns `p` added to the sketch
    /// width (`K = d + p`). Halko et al. recommend 5–10; zero oversampling
    /// makes the sketch exactly square and is rejected by [`Self::validate`].
    pub rpca_oversample: usize,
    /// Randomized arm only: number of power-iteration passes `q` after the
    /// initial range sketch (total distributed passes = `q + 1`).
    pub rpca_power_iters: usize,
}

impl SpcaConfig {
    /// Defaults for `d` components: 10 iterations max, relative tolerance
    /// 1e-3, 256-row error sample.
    pub fn new(components: usize) -> Self {
        assert!(components > 0, "need at least one component");
        SpcaConfig {
            components,
            max_iters: 10,
            rel_tolerance: Some(1e-3),
            target_error: None,
            seed: 0x5bca,
            error_sample_rows: 256,
            partitions: None,
            smart_guess: None,
            checkpoint_every: None,
            crash_at_iteration: None,
            job_id: None,
            algorithm: Algorithm::PpcaEm,
            rpca_oversample: 10,
            rpca_power_iters: 2,
        }
    }

    /// Selects the algorithm family (PPCA-EM or randomized).
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the randomized sketch oversampling `p` (sketch width `d + p`).
    pub fn with_rpca_oversample(mut self, p: usize) -> Self {
        self.rpca_oversample = p;
        self
    }

    /// Sets the number of randomized power-iteration passes `q`.
    pub fn with_rpca_power_iters(mut self, q: usize) -> Self {
        self.rpca_power_iters = q;
        self
    }

    /// Rejects nonsensical knob combinations before any cluster work runs;
    /// both engines' `fit` call it first. `n_cols` is the input width `D`
    /// (the sketch `d + p` must fit in it). A smart-guess sample fraction
    /// outside `(0, 1]` is rejected on either arm; the randomized arm has
    /// two more rejectable combinations, each pinned by a test in
    /// `crates/core/tests/rpca.rs`, and its knobs are inert on the EM arm.
    pub fn validate(&self, n_cols: usize) -> Result<(), SpcaError> {
        if let Some(fraction) = self.smart_guess.as_ref().map(|sg| sg.sample_fraction) {
            // Written so that NaN fails it too.
            if !(fraction > 0.0 && fraction <= 1.0) {
                return Err(SpcaError::InvalidConfig {
                    what: format!("smart-guess sample_fraction = {fraction} is not in (0, 1]"),
                });
            }
        }
        if self.algorithm != Algorithm::Randomized {
            return Ok(());
        }
        if self.rpca_oversample == 0 {
            return Err(SpcaError::InvalidConfig {
                what: "randomized sketch needs oversampling >= 1 (rpca_oversample = 0 \
                       leaves no slack columns to capture the tail)"
                    .into(),
            });
        }
        let width = self.components + self.rpca_oversample;
        if width > n_cols {
            return Err(SpcaError::InvalidConfig {
                what: format!(
                    "sketch width d + p = {width} exceeds the input's {n_cols} columns; \
                     lower components or rpca_oversample"
                ),
            });
        }
        Ok(())
    }

    /// Scopes this fit's DFS namespace (checkpoints, inputs) to a job id.
    pub fn with_job_id(mut self, job: impl Into<String>) -> Self {
        self.job_id = Some(job.into());
        self
    }

    /// Sets the iteration cap.
    pub fn with_max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }

    /// Sets (or disables) the relative-change stop condition.
    pub fn with_rel_tolerance(mut self, tol: Option<f64>) -> Self {
        self.rel_tolerance = tol;
        self
    }

    /// Sets the target-error stop condition.
    pub fn with_target_error(mut self, err: f64) -> Self {
        self.target_error = Some(err);
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the error-estimation sample size.
    pub fn with_error_sample_rows(mut self, rows: usize) -> Self {
        self.error_sample_rows = rows;
        self
    }

    /// Fixes the number of input partitions.
    pub fn with_partitions(mut self, parts: usize) -> Self {
        assert!(parts > 0, "need at least one partition");
        self.partitions = Some(parts);
        self
    }

    /// Enables smart-guess initialization.
    pub fn with_smart_guess(mut self, sg: SmartGuess) -> Self {
        self.smart_guess = Some(sg);
        self
    }

    /// Enables DFS checkpointing of the EM state every `iters` iterations.
    pub fn with_checkpoint_every(mut self, iters: usize) -> Self {
        assert!(iters > 0, "checkpoint interval must be at least one iteration");
        self.checkpoint_every = Some(iters);
        self
    }

    /// Injects a driver crash after the given iteration completes.
    pub fn with_crash_at_iteration(mut self, iter: usize) -> Self {
        assert!(iter > 0, "iterations are 1-based");
        self.crash_at_iteration = Some(iter);
        self
    }

    /// Stable key/value description of the config for run ledgers. Every
    /// knob that can change the fitted model or the run's shape appears;
    /// optional knobs render as "none" when disabled so two fingerprints
    /// always have the same keys.
    pub fn fingerprint(&self) -> Vec<(String, String)> {
        let opt_usize = |v: Option<usize>| v.map_or("none".to_string(), |x| x.to_string());
        let opt_f64 = |v: Option<f64>| v.map_or("none".to_string(), |x| format!("{x}"));
        vec![
            ("spca.algorithm".into(), self.algorithm.label().to_string()),
            ("spca.checkpoint_every".into(), opt_usize(self.checkpoint_every)),
            ("spca.components".into(), self.components.to_string()),
            ("spca.error_sample_rows".into(), self.error_sample_rows.to_string()),
            (
                "spca.job_id".into(),
                self.job_id.clone().unwrap_or_else(|| "none".to_string()),
            ),
            ("spca.max_iters".into(), self.max_iters.to_string()),
            ("spca.partitions".into(), opt_usize(self.partitions)),
            ("spca.rel_tolerance".into(), opt_f64(self.rel_tolerance)),
            ("spca.rpca_oversample".into(), self.rpca_oversample.to_string()),
            ("spca.rpca_power_iters".into(), self.rpca_power_iters.to_string()),
            ("spca.seed".into(), self.seed.to_string()),
            (
                "spca.smart_guess".into(),
                self.smart_guess.as_ref().map_or("none".to_string(), |sg| {
                    format!("{}x{}", sg.sample_fraction, sg.iterations)
                }),
            ),
            ("spca.target_error".into(), opt_f64(self.target_error)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = SpcaConfig::new(50);
        assert_eq!(c.components, 50);
        assert_eq!(c.max_iters, 10);
        assert!(c.smart_guess.is_none());
    }

    #[test]
    fn builders_chain() {
        let c = SpcaConfig::new(3)
            .with_max_iters(7)
            .with_seed(9)
            .with_target_error(0.25)
            .with_rel_tolerance(None)
            .with_partitions(4)
            .with_error_sample_rows(64)
            .with_smart_guess(SmartGuess::default());
        assert_eq!(c.max_iters, 7);
        assert_eq!(c.seed, 9);
        assert_eq!(c.target_error, Some(0.25));
        assert_eq!(c.rel_tolerance, None);
        assert_eq!(c.partitions, Some(4));
        assert_eq!(c.error_sample_rows, 64);
        assert!(c.smart_guess.is_some());
        let c = c.with_checkpoint_every(2).with_crash_at_iteration(3);
        assert_eq!(c.checkpoint_every, Some(2));
        assert_eq!(c.crash_at_iteration, Some(3));
        assert_eq!(c.job_id, None);
        let c = c.with_job_id("tenantA-fit0");
        assert_eq!(c.job_id.as_deref(), Some("tenantA-fit0"));
    }

    #[test]
    fn fingerprint_carries_job_id() {
        let fp = SpcaConfig::new(2).fingerprint();
        assert!(fp.contains(&("spca.job_id".into(), "none".into())));
        let fp = SpcaConfig::new(2).with_job_id("j7").fingerprint();
        assert!(fp.contains(&("spca.job_id".into(), "j7".into())));
        let keys: Vec<&String> = fp.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "fingerprint keys must stay sorted");
    }

    #[test]
    fn algorithm_labels_round_trip_through_parse() {
        for alg in [Algorithm::PpcaEm, Algorithm::Randomized] {
            assert_eq!(Algorithm::parse(alg.label()), Some(alg));
        }
        assert_eq!(Algorithm::parse("em"), Some(Algorithm::PpcaEm));
        assert_eq!(Algorithm::parse("rpca"), Some(Algorithm::Randomized));
        assert_eq!(Algorithm::parse("qr"), None);
    }

    #[test]
    fn fingerprint_carries_algorithm_and_rpca_knobs() {
        let fp = SpcaConfig::new(2).fingerprint();
        assert!(fp.contains(&("spca.algorithm".into(), "ppca-em".into())));
        let fp = SpcaConfig::new(2)
            .with_algorithm(Algorithm::Randomized)
            .with_rpca_oversample(4)
            .with_rpca_power_iters(3)
            .fingerprint();
        assert!(fp.contains(&("spca.algorithm".into(), "randomized".into())));
        assert!(fp.contains(&("spca.rpca_oversample".into(), "4".into())));
        assert!(fp.contains(&("spca.rpca_power_iters".into(), "3".into())));
        let keys: Vec<&String> = fp.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "fingerprint keys must stay sorted");
    }

    #[test]
    fn validate_ignores_rpca_knobs_on_the_em_arm() {
        // EM with absurd rpca knobs still validates: the knobs are inert.
        let c = SpcaConfig::new(50).with_rpca_oversample(0);
        assert!(c.validate(10).is_ok());
    }

    #[test]
    #[should_panic(expected = "checkpoint interval")]
    fn zero_checkpoint_interval_rejected() {
        let _ = SpcaConfig::new(2).with_checkpoint_every(0);
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn zero_components_rejected() {
        let _ = SpcaConfig::new(0);
    }
}
