//! Figure 4 — accuracy vs time on the Bio-Text dataset,
//! sPCA-MapReduce vs Mahout-PCA.
//!
//! The paper's shape: sPCA crosses 90% of ideal accuracy within its first
//! couple of iterations and converges quickly; Mahout-PCA needs several
//! times longer to approach the same accuracy.

use baselines::{MahoutConfig, MahoutPca};
use spca_bench::{data, fresh_cluster, ideal_error, D_COMPONENTS};
use spca_core::{accuracy, Spca, SpcaConfig};

fn main() {
    let _trace = spca_bench::cli::trace_args("fig4_accuracy_biotext", "Figure 4: accuracy vs time on Bio-Text, sPCA-MapReduce vs Mahout-PCA", &[]);
    println!("=== Figure 4: accuracy (% of ideal) vs time, Bio-Text ===\n");
    let y = data::biotext(40_000, 8_000, 2);
    let d = D_COMPONENTS;
    eprintln!("reference run for ideal accuracy…");
    let ideal = ideal_error(&y, d, 7);
    println!("ideal error (25-iteration reference): {ideal:.4}\n");

    let cluster = fresh_cluster();
    let spca = Spca::new(
        SpcaConfig::new(d)
            .with_max_iters(8)
            .with_rel_tolerance(None)
            .with_partitions(8)
            .with_seed(7),
    )
    .fit_mapreduce(&cluster, &y)
    .expect("sPCA-MapReduce run");

    let cluster = fresh_cluster();
    let mahout = MahoutPca::new(
        MahoutConfig::new(d).with_max_iters(4).with_partitions(8).with_seed(7),
    )
    .fit(&cluster, &y)
    .expect("Mahout-PCA run");

    let runs = [("sPCA-MapReduce", &spca), ("Mahout-PCA", &mahout)];
    spca_bench::print_accuracy_curves(&runs, ideal, false);

    let to_90 = |run: &spca_core::SpcaRun| {
        let mut passes = run.iterations.iter();
        let hit = passes.find(|it| accuracy::percent_of_ideal(it.error, ideal) >= 90.0);
        hit.map(|it| spca_bench::fmt_secs(it.virtual_time_secs))
    };
    println!(
        "\ntime to 90% of ideal: sPCA-MapReduce {}, Mahout-PCA {}",
        to_90(&spca).unwrap_or("n/a".into()),
        to_90(&mahout).unwrap_or("not reached".into()),
    );
}
