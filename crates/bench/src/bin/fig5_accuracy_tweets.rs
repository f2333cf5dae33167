//! Figure 5 — accuracy vs time on the Tweets dataset:
//! sPCA-SG (smart guess), sPCA-MapReduce, Mahout-PCA.
//!
//! Shapes from the paper: sPCA dominates Mahout throughout; the
//! smart-guess variant pays a warm-up delay and then starts from a much
//! higher accuracy than cold-started sPCA. (Mahout cannot use smart
//! guesses at all — its random initialization is N×k.)

use baselines::{MahoutConfig, MahoutPca};
use spca_bench::{data, fresh_cluster, ideal_error, D_COMPONENTS};
use spca_core::config::SmartGuess;
use spca_core::{accuracy, Spca, SpcaConfig};

fn main() {
    let _trace = spca_bench::cli::trace_args("fig5_accuracy_tweets", "Figure 5: accuracy vs time on Tweets, sPCA-Spark vs MLlib-PCA", &[]);
    println!("=== Figure 5: accuracy (% of ideal) vs time, Tweets ===\n");
    let y = data::tweets(150_000, 8_000, 1);
    let d = D_COMPONENTS;
    eprintln!("reference run for ideal accuracy…");
    let ideal = ideal_error(&y, d, 7);
    println!("ideal error (25-iteration reference): {ideal:.4}\n");

    let base = SpcaConfig::new(d)
        .with_max_iters(8)
        .with_rel_tolerance(None)
        .with_partitions(8)
        .with_seed(7);

    let cluster = fresh_cluster();
    let spca = Spca::new(base.clone()).fit_mapreduce(&cluster, &y).expect("sPCA-MapReduce");

    let cluster = fresh_cluster();
    let spca_sg = Spca::new(
        base.clone()
            .with_smart_guess(SmartGuess { sample_fraction: 0.05, iterations: 5 }),
    )
    .fit_mapreduce(&cluster, &y)
    .expect("sPCA-SG");

    let cluster = fresh_cluster();
    let mahout = MahoutPca::new(
        MahoutConfig::new(d).with_max_iters(4).with_partitions(8).with_seed(7),
    )
    .fit(&cluster, &y)
    .expect("Mahout-PCA");

    let runs = [("sPCA-SG", &spca_sg), ("sPCA-MapReduce", &spca), ("Mahout-PCA", &mahout)];
    spca_bench::print_accuracy_curves(&runs, ideal, true);

    println!(
        "\nfirst-iteration accuracy: sPCA-SG {:.1}% vs sPCA cold {:.1}% (warm-up cost {} s)",
        accuracy::percent_of_ideal(spca_sg.iterations[0].error, ideal),
        accuracy::percent_of_ideal(spca.iterations[0].error, ideal),
        spca_bench::fmt_secs(
            spca_sg.iterations[0].virtual_time_secs - spca.iterations[0].virtual_time_secs
        ),
    );
}
