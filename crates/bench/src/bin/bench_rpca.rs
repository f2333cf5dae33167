//! Three-way time-to-accuracy comparison: PPCA-EM vs Mahout-SSVD vs the
//! randomized subspace-iteration arm, on the paper's dataset shapes.
//!
//! The question this benchmark answers is the communication-pattern
//! tradeoff documented in DESIGN.md §15: EM runs *many thin iterations*
//! (each shuffling d-width partials), the randomized family runs *a few
//! fat passes* (each shuffling K = d + p width partials). Per arm it
//! records virtual time, shuffle (network) bytes, intermediate bytes,
//! the sampled final error as a percent of the ideal accuracy, and the
//! derived figure of merit: **shuffle bytes per accuracy point**. The
//! full run asserts the randomized arm moves fewer shuffle bytes per
//! unit accuracy than EM on at least one shape.
//!
//! All quantities are simulator outputs (virtual clock + byte meters),
//! so every metric is deterministic: the perf gate holds byte counts,
//! hashes and accuracies exact and bands only the `*_secs` keys. A
//! side-check re-runs the randomized arm on 1- and 2-worker host pools
//! and requires an identical model hash (the conformance-suite invariant,
//! re-verified at benchmark shapes).
//!
//! Usage:
//!   bench_rpca                  # full shapes, writes BENCH_rpca.json
//!   bench_rpca --smoke          # small shapes, quick CI sanity run
//!   bench_rpca --out FILE.json  # override the output path

use std::sync::Arc;

use baselines::{MahoutConfig, MahoutPca};
use dcluster::{ClusterConfig, SimCluster};
use linalg::{SparseMat, WorkerPool};
use spca_bench::{data, fresh_cluster, ideal_error, Table};
use spca_core::{accuracy, Algorithm, Spca, SpcaConfig, SpcaRun};

/// One arm's measured outputs (all virtual/deterministic).
struct ArmResult {
    run: SpcaRun,
    network_bytes: u64,
    accuracy_pct: f64,
    to_90pct_secs: Option<f64>,
}

fn measure(run: SpcaRun, cluster: &SimCluster, ideal: f64) -> ArmResult {
    let target = accuracy::target_error_for(ideal, 90.0);
    ArmResult {
        accuracy_pct: accuracy::percent_of_ideal(run.final_error(), ideal),
        to_90pct_secs: run.time_to_error(target),
        network_bytes: cluster.metrics().network_bytes,
        run,
    }
}

fn em_arm(y: &SparseMat, d: usize, iters: usize, ideal: f64) -> ArmResult {
    let cluster = fresh_cluster();
    let run = Spca::new(
        SpcaConfig::new(d)
            .with_max_iters(iters)
            .with_rel_tolerance(None)
            .with_partitions(8)
            .with_seed(7),
    )
    .fit_spark(&cluster, y)
    .expect("PPCA-EM arm");
    measure(run, &cluster, ideal)
}

fn mahout_arm(y: &SparseMat, d: usize, iters: usize, ideal: f64) -> ArmResult {
    let cluster = fresh_cluster();
    let run = MahoutPca::new(
        MahoutConfig::new(d).with_max_iters(iters).with_partitions(8).with_seed(7),
    )
    .fit(&cluster, y)
    .expect("Mahout-SSVD arm");
    measure(run, &cluster, ideal)
}

fn rpca_config(d: usize, power_iters: usize) -> SpcaConfig {
    SpcaConfig::new(d)
        .with_algorithm(Algorithm::Randomized)
        .with_rpca_oversample(10)
        .with_rpca_power_iters(power_iters)
        .with_rel_tolerance(None)
        .with_partitions(8)
        .with_seed(7)
}

fn randomized_arm(y: &SparseMat, d: usize, power_iters: usize, ideal: f64) -> ArmResult {
    let cluster = fresh_cluster();
    let run =
        Spca::new(rpca_config(d, power_iters)).fit_spark(&cluster, y).expect("randomized arm");
    measure(run, &cluster, ideal)
}

fn arm_json(a: &ArmResult) -> String {
    // Bytes-per-accuracy-point: the benchmark's figure of merit. Guard
    // against a degenerate zero-accuracy arm rather than emitting inf.
    let per_acc = a.network_bytes as f64 / a.accuracy_pct.max(1e-9);
    format!(
        "{{\"virtual_secs\": {:.6e}, \"to_90pct_secs\": {:.6e}, \"network_bytes\": {}, \
         \"intermediate_bytes\": {}, \"final_error\": {:.12e}, \"accuracy_pct\": {:.6}, \
         \"net_bytes_per_accuracy_pct\": {:.6e}, \"iterations\": {}, \"model_hash\": \"{:016x}\"}}",
        a.run.virtual_time_secs,
        a.to_90pct_secs.unwrap_or(-1.0),
        a.network_bytes,
        a.run.intermediate_bytes,
        a.run.final_error(),
        a.accuracy_pct,
        per_acc,
        a.run.iterations.len(),
        a.run.model.content_hash(),
    )
}

fn main() {
    let (_trace, smoke, out_path) = spca_bench::cli::bench_args(
        "bench_rpca",
        "Three-way time-to-accuracy: PPCA-EM vs Mahout-SSVD vs randomized subspace iteration",
        "Small shapes (quick CI sanity run)",
        &[],
    );

    // Shapes: a tweets-like tall sparse matrix and a diabetes-like dense
    // short one — the two communication regimes (D large vs D small).
    let shapes: Vec<(&str, SparseMat, usize, usize, usize)> = if smoke {
        vec![
            ("tweets", data::tweets(1_500, 400, 2), 10, 5, 2),
            ("diabetes", data::diabetes(800, 150, 3), 8, 5, 2),
        ]
    } else {
        vec![
            ("tweets", data::tweets(40_000, 8_000, 2), 50, 8, 2),
            ("diabetes", data::diabetes(12_000, 1_000, 3), 50, 8, 2),
        ]
    };
    let mahout_iters = if smoke { 2 } else { 3 };

    let mut shape_jsons = Vec::new();
    let mut randomized_wins = false;
    for (name, y, d, em_iters, power_iters) in &shapes {
        let (name, d, em_iters, power_iters) = (*name, *d, *em_iters, *power_iters);
        eprintln!("{name}: {}x{} ({} nnz), d={d} — ideal reference run…", y.rows(), y.cols(), y.nnz());
        let ideal = ideal_error(y, d, 7);

        let em = em_arm(y, d, em_iters, ideal);
        let mahout = mahout_arm(y, d, mahout_iters, ideal);
        let rand = randomized_arm(y, d, power_iters, ideal);

        let mut table = Table::new(&[
            "Arm", "Iters", "Time (s)", "Shuffle", "Acc (%)", "Shuffle/Acc",
        ]);
        for (label, a) in [("PPCA-EM", &em), ("Mahout-SSVD", &mahout), ("Randomized", &rand)] {
            table.row(&[
                label.into(),
                a.run.iterations.len().to_string(),
                spca_bench::fmt_secs(a.run.virtual_time_secs),
                spca_bench::fmt_bytes(a.network_bytes),
                format!("{:.1}", a.accuracy_pct),
                spca_bench::fmt_bytes((a.network_bytes as f64 / a.accuracy_pct.max(1e-9)) as u64),
            ]);
        }
        println!("\n=== {name}: {}x{}, d={d} (ideal error {ideal:.4}) ===", y.rows(), y.cols());
        table.print();

        let em_per_acc = em.network_bytes as f64 / em.accuracy_pct.max(1e-9);
        let rand_per_acc = rand.network_bytes as f64 / rand.accuracy_pct.max(1e-9);
        if rand_per_acc < em_per_acc {
            randomized_wins = true;
        }
        shape_jsons.push(format!(
            "    {{\"name\": \"{name}\", \"rows\": {}, \"cols\": {}, \"nnz\": {}, \"d\": {d}, \
             \"ideal_error\": {ideal:.12e},\n     \"ppca_em\": {},\n     \"mahout_ssvd\": {},\n     \
             \"randomized\": {},\n     \"randomized_beats_em_on_shuffle_per_accuracy\": {}}}",
            y.rows(),
            y.cols(),
            y.nnz(),
            arm_json(&em),
            arm_json(&mahout),
            arm_json(&rand),
            rand_per_acc < em_per_acc,
        ));
    }

    // Worker-count determinism at a benchmark shape: the conformance
    // suite's invariant, re-checked here so the committed baseline also
    // certifies it (the hash below is Exact-gated).
    let dy = data::tweets(800, 200, 5);
    let det_hashes: Vec<u64> = [1usize, 2]
        .iter()
        .map(|&w| {
            let cl = SimCluster::new_with_pool(
                ClusterConfig::scaled_cluster(),
                Arc::new(WorkerPool::new(w)),
            );
            Spca::new(rpca_config(8, 2)).fit_spark(&cl, &dy).expect("determinism run").model.content_hash()
        })
        .collect();
    let deterministic = det_hashes[0] == det_hashes[1];
    assert!(deterministic, "randomized arm is not worker-count deterministic");
    println!("\nworker-count deterministic: {deterministic} (hash {:016x})", det_hashes[0]);

    if !smoke {
        // The acceptance bar: fewer shuffle bytes per accuracy point than
        // EM on at least one paper shape.
        assert!(
            randomized_wins,
            "randomized arm never beat EM on shuffle bytes per unit accuracy"
        );
    }

    let json = format!(
        "{{\n  \"mode\": \"{}\",\n  \"shapes\": [\n{}\n  ],\n  \
         \"randomized_wins_shuffle_per_accuracy\": {randomized_wins},\n  \
         \"worker_count_deterministic\": {deterministic},\n  \
         \"determinism_model_hash\": \"{:016x}\"\n}}\n",
        if smoke { "smoke" } else { "full" },
        shape_jsons.join(",\n"),
        det_hashes[0],
    );
    obs::json::validate(&json).expect("benchmark JSON must be valid");
    std::fs::write(&out_path, &json).expect("write benchmark output");
    println!("wrote {out_path}");
}
