//! NMR spectra analysis — the paper's Diabetes dataset scenario: 353
//! patients, tens of thousands of resonance frequencies, real-valued
//! magnitudes. Classic "short and wide" PCA.
//!
//! Fits 8 latent metabolic factors to the spectra replica on the
//! simulated Spark cluster and reports how well they reconstruct it.
//!
//! ```text
//! cargo run --release --example diabetes_spectra
//! ```

use spca_repro::prelude::*;

fn main() {
    let mut rng = Prng::seed_from_u64(31);
    let spectra = diabetes::generate(353, 4_000, &mut rng);
    let y = linalg::SparseMat::from_dense(&spectra);
    println!("spectra: {} patients x {} frequencies", y.rows(), y.cols());

    let cluster = SimCluster::new(ClusterConfig::paper_cluster());
    let run = Spca::new(SpcaConfig::new(8).with_max_iters(12).with_seed(3))
        .fit_spark(&cluster, &y)
        .expect("fit");
    let x = run.model.transform_sparse(&y).expect("project");
    let recon = run.model.reconstruct(&x);
    let rel = spca_repro::linalg::norms::diff_norm1(&spectra, &recon) / spectra.norm1();
    println!(
        "\n8 components reconstruct the spectra to {:.2}% relative L1 error",
        100.0 * rel
    );
    println!("(simulated fit: {:.1} s on an 8-node cluster)", run.virtual_time_secs);
}
