//! The two distributed baselines' outputs, pinned bit for bit at one small
//! shape: the model hash, the intermediate and network bytes, the driver
//! peak, the pass count and every pass's sampled error. How a baseline is
//! driven (its loop, its bookkeeping, its trace and ledger output) may
//! change; none of these may move with it.

use baselines::{MahoutConfig, MahoutPca, MllibConfig, MllibPca};
use dcluster::{ClusterConfig, SimCluster};
use linalg::{Prng, SparseMat};
use spca_core::{Result, SpcaRun};

fn data() -> SparseMat {
    let mut rng = Prng::seed_from_u64(36);
    let spec = datasets::LowRankSpec { rows: 600, cols: 120, ..datasets::LowRankSpec::small_test() };
    datasets::sparse_lowrank(&spec, &mut rng)
}

/// Fits on a fresh paper cluster and renders every pinned quantity.
fn pin(fit: impl FnOnce(&SimCluster) -> Result<SpcaRun>) -> String {
    let cluster = SimCluster::new(ClusterConfig::paper_cluster());
    let run = fit(&cluster).unwrap();
    let m = cluster.metrics();
    let errors: Vec<String> =
        run.iterations.iter().map(|s| format!("{:016x}", s.error.to_bits())).collect();
    format!(
        "model {:016x} intermediate {} network {} driver_peak {} passes {} errors {}",
        run.model.content_hash(),
        run.intermediate_bytes,
        m.network_bytes,
        m.driver_peak_bytes,
        run.iterations.len(),
        errors.join(",")
    )
}

#[test]
fn mahout_ssvd_bits_are_pinned() {
    let y = data();
    let config = MahoutConfig::new(4).with_max_iters(3).with_partitions(4).with_seed(7);
    let got = pin(|c| MahoutPca::new(config).fit(c, &y));
    assert_eq!(
        got,
        "model 701fb3a662f392b0 intermediate 3132738 network 657276 driver_peak 36480 \
         passes 3 errors 3ff9c4eb80cf1525,3ff87e778526cac3,3ff86db97c93c0c9"
    );
}

#[test]
fn mahout_ssvd_target_stop_is_pinned() {
    // The target is the second round's error: the stop fires there, one
    // round before the cap.
    let y = data();
    let config = MahoutConfig::new(4)
        .with_max_iters(3)
        .with_partitions(4)
        .with_seed(7)
        .with_target_error(f64::from_bits(0x3ff8_7e77_8526_cac3));
    let got = pin(|c| MahoutPca::new(config).fit(c, &y));
    assert_eq!(
        got,
        "model 4d86d6a7c2f38b7f intermediate 2088492 network 438184 driver_peak 36480 \
         passes 2 errors 3ff9c4eb80cf1525,3ff87e778526cac3"
    );
}

#[test]
fn mllib_pca_bits_are_pinned() {
    let y = data();
    let got = pin(|c| MllibPca::new(MllibConfig::new(4).with_partitions(4)).fit(c, &y));
    assert_eq!(
        got,
        "model 5415d9a6f8059cc3 intermediate 464652 network 464652 driver_peak 230400 \
         passes 1 errors 3ff7f01162d7f192"
    );
}
