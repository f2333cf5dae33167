//! Table 3 — effect of the individual optimizations (Section 5.4).
//!
//! Each of sPCA's three core optimizations is exercised with and without,
//! on the same operation it accelerates, on a Tweets-like subset (the
//! paper used a 100K-row Tweets subset):
//!
//! 1. **Mean propagation** (line 7: computing X) — sparse `y·CM − Xm` vs
//!    materializing each dense centered row.
//! 2. **Minimizing intermediate data** (line 8: XtX/YtX) — recompute X on
//!    demand inside one consolidated job vs materialize X, ship it
//!    through the DFS, and read it back in each consuming job. Its
//!    "XtX/on-demand" arm models the paper's pipeline, whose tasks fold
//!    `XtX`, not the fit's, which derives `XtX` from `YtX` on the driver.
//! 3. **Frobenius norm** (line 13's ss1) — Algorithm 3 vs Algorithm 2.
//!
//! Expect order-of-magnitude gaps whose absolute size grows with scale
//! (the paper's 100K-row numbers: 2 s vs 5,400 s; 3 s vs 2,640 s; 0.4 s
//! vs 102 s).

use dcluster::StageOptions;
use linalg::bytes::ByteSized;
use linalg::wire::{Wire, WireError, WireReader};
use linalg::Mat;
use sparkle::SparkleContext;
use spca_bench::{data, fmt_bytes, fresh_cluster, Table, D_COMPONENTS};
use spca_core::spark::{to_rows, SpRow};
use spca_core::{frobenius, init, mean_prop};

/// Sub-second precision: the optimized arms finish in milliseconds.
fn fmt_secs(secs: f64) -> String {
    if secs < 1.0 {
        format!("{secs:.3}")
    } else {
        spca_bench::fmt_secs(secs)
    }
}

struct Scalar(f64);

impl ByteSized for Scalar {
    fn size_bytes(&self) -> u64 {
        8
    }
}

impl Wire for Scalar {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
    }

    fn encoded_size(&self) -> u64 {
        8
    }

    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Scalar(f64::decode_from(r)?))
    }
}

struct SmallMat(Mat);

impl ByteSized for SmallMat {
    fn size_bytes(&self) -> u64 {
        ByteSized::size_bytes(&self.0)
    }
}

impl Wire for SmallMat {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
    }

    fn encoded_size(&self) -> u64 {
        self.0.encoded_size()
    }

    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(SmallMat(Mat::decode_from(r)?))
    }
}

fn main() {
    let _trace = spca_bench::cli::trace_args("table3_optimizations", "Table 3: per-optimization ablation", &[]);
    println!("=== Table 3: per-optimization ablation (virtual seconds) ===\n");
    let rows = 100_000;
    let cols = 2_000;
    let d = D_COMPONENTS;
    let y = data::tweets(rows, cols, 1);
    let mean = y.col_means();
    let (c, ss) = init::random_init(cols, d, 7);
    let mut m = c.matmul_tn(&c);
    m.add_diag(ss);
    let m_inv = linalg::decomp::lu::Lu::new(&m).unwrap().inverse();
    let cm = c.matmul(&m_inv);
    let xm = cm.vecmat(&mean);

    let partitioned: Vec<Vec<SpRow>> = y.split_rows(16).iter().map(to_rows).collect();

    let mut table = Table::new(&["Optimization", "With (s)", "Without (s)", "Speedup"]);

    // ---- 1. Mean propagation (X computation). -----------------------------
    let with = {
        let cluster = fresh_cluster();
        let ctx = SparkleContext::new(&cluster);
        let rdd = ctx.from_partitions(partitioned.clone());
        let (_, _) = rdd.aggregate(
            "X/mean-prop",
            || Scalar(0.0),
            |acc, row: &SpRow| {
                let x = mean_prop::latent_row(row.view(), &cm, &xm);
                acc.0 += x.iter().sum::<f64>();
            },
            |acc, o| acc.0 += o.0,
        );
        cluster.metrics().virtual_time_secs
    };
    let without = {
        let cluster = fresh_cluster();
        let ctx = SparkleContext::new(&cluster);
        let rdd = ctx.from_partitions(partitioned.clone());
        let (_, _) = rdd.aggregate(
            "X/dense",
            || Scalar(0.0),
            |acc, row: &SpRow| {
                let x = mean_prop::latent_row_dense(row.view(), &mean, &cm);
                acc.0 += x.iter().sum::<f64>();
            },
            |acc, o| acc.0 += o.0,
        );
        cluster.metrics().virtual_time_secs
    };
    table.row(&[
        "Mean propagation".into(),
        fmt_secs(with),
        fmt_secs(without),
        format!("{:.0}x", without / with),
    ]);

    // ---- 2. Intermediate-data minimization (XtX from Y vs from stored X). --
    let (with, with_bytes) = {
        let cluster = fresh_cluster();
        let ctx = SparkleContext::new(&cluster);
        let rdd = ctx.from_partitions(partitioned.clone());
        // Consolidated: recompute X on demand, fold XtX locally.
        let (_, _) = rdd.aggregate(
            "XtX/on-demand",
            || SmallMat(Mat::zeros(d, d)),
            |acc, row: &SpRow| {
                let x = mean_prop::latent_row(row.view(), &cm, &xm);
                acc.0.add_outer(1.0, &x, &x);
            },
            |acc, o| acc.0.add_assign(&o.0),
        );
        let mx = cluster.metrics();
        (mx.virtual_time_secs, mx.intermediate_bytes)
    };
    let (without, without_bytes) = {
        let cluster = fresh_cluster();
        let ctx = SparkleContext::new(&cluster);
        let rdd = ctx.from_partitions(partitioned.clone());
        // Materialize X…
        let x_rdd = rdd.map_partitions("X/materialize", |part| {
            part.iter()
                .map(|row| mean_prop::latent_row(row.view(), &cm, &xm))
                .collect::<Vec<Vec<f64>>>()
        });
        // …ship it through the DFS (the unconsolidated pipeline exchanges
        // X between the X job and each of its three consumers)…
        let x_bytes = (rows * d * 8) as u64;
        cluster.charge_dfs_write(x_bytes);
        cluster.charge_dfs_read(x_bytes); // XtX job reads X
        cluster.charge_dfs_read(x_bytes); // YtX job reads X
        cluster.charge_dfs_read(x_bytes); // ss3 job reads X
        // …and compute XtX from the stored X.
        let (_, _) = x_rdd.aggregate(
            "XtX/from-stored-X",
            || SmallMat(Mat::zeros(d, d)),
            |acc, x: &Vec<f64>| acc.0.add_outer(1.0, x, x),
            |acc, o| acc.0.add_assign(&o.0),
        );
        let mx = cluster.metrics();
        (mx.virtual_time_secs, mx.intermediate_bytes)
    };
    table.row(&[
        "Minimize intermediate data".into(),
        fmt_secs(with),
        fmt_secs(without),
        format!("{:.0}x", without / with),
    ]);
    println!(
        "intermediate bytes for the XtX pipeline: consolidated {} vs materialized-X {}\n",
        fmt_bytes(with_bytes),
        fmt_bytes(without_bytes)
    );

    // ---- 3. Frobenius norm (Algorithm 3 vs Algorithm 2). -------------------
    let msum = linalg::vector::norm2_sq(&mean);
    let blocks = y.split_rows(16);
    let with = {
        let cluster = fresh_cluster();
        let tasks: Vec<_> = blocks
            .iter()
            .map(|b| {
                let mean = &mean;
                move || frobenius::centered_sq_block(b, mean, msum)
            })
            .collect();
        let parts = cluster.run_stage(StageOptions::new("Fnorm/alg3"), tasks);
        let _total: f64 = parts.iter().sum();
        cluster.metrics().virtual_time_secs
    };
    let without = {
        let cluster = fresh_cluster();
        let tasks: Vec<_> = blocks
            .iter()
            .map(|b| {
                let mean = &mean;
                move || frobenius::centered_sq_simple_block(b, mean)
            })
            .collect();
        let parts = cluster.run_stage(StageOptions::new("Fnorm/alg2"), tasks);
        let _total: f64 = parts.iter().sum();
        cluster.metrics().virtual_time_secs
    };
    table.row(&[
        "Frobenius norm".into(),
        fmt_secs(with),
        fmt_secs(without),
        format!("{:.0}x", without / with),
    ]);

    table.print();
    println!("\n(paper, 100K-row Tweets subset at full 71.5K dimensionality:");
    println!(" mean propagation 2 s vs 5,400 s; intermediate data 3 s vs 2,640 s;");
    println!(" Frobenius 0.4 s vs 102 s — gaps grow with scale)");
}
