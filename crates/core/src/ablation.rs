//! Optimization ablations — the library form of the paper's Section 5.4.
//!
//! Each of sPCA's three distributed optimizations can be exercised *with*
//! and *without*, on the operation it accelerates, returning the virtual
//! seconds and intermediate bytes of each arm. The `paper` binary's
//! `table3_optimizations` experiment prints these; having them as API makes
//! the ablation reusable (and testable) outside the bench harness.

use dcluster::{Load, Meter, SimCluster, StageOptions};
use linalg::wire::{Wire, WireError, WireReader};
use linalg::{Mat, SparseMat};
use sparkle::SparkleContext;

use crate::frobenius;
use crate::init;
use crate::mean_prop;
use crate::spark::{to_rows, SpRow};
use crate::Result;

/// Outcome of one optimization ablation: the optimized and unoptimized
/// arms' virtual costs on the same input and cluster model.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResult {
    /// Virtual seconds with the optimization.
    pub with_secs: f64,
    /// Virtual seconds without it.
    pub without_secs: f64,
    /// Intermediate bytes with the optimization.
    pub with_bytes: u64,
    /// Intermediate bytes without it.
    pub without_bytes: u64,
}

impl AblationResult {
    /// `without / with` time ratio.
    pub fn speedup(&self) -> f64 {
        self.without_secs / self.with_secs.max(1e-12)
    }
}

struct Scalar(f64);

impl Wire for Scalar {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
    }

    fn encoded_size(&self) -> u64 {
        8
    }

    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        Ok(Scalar(f64::decode_from(r)?))
    }
}

struct SmallMat(Mat);

impl Wire for SmallMat {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
    }

    fn encoded_size(&self) -> u64 {
        self.0.encoded_size()
    }

    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        Ok(SmallMat(Mat::decode_from(r)?))
    }
}

fn broadcast_state(y: &SparseMat, d: usize, seed: u64) -> Result<(Vec<f64>, Mat, Vec<f64>)> {
    let mean = y.col_means();
    let (c, ss) = init::random_init(y.cols(), d, seed);
    let mut m = c.matmul_tn(&c);
    m.add_diag(ss);
    let m_inv = linalg::decomp::lu::Lu::new(&m)?.inverse();
    let cm = c.matmul(&m_inv);
    let xm = cm.vecmat(&mean);
    Ok((mean, cm, xm))
}

fn measure<R>(
    make_cluster: impl Fn() -> SimCluster,
    f: impl FnOnce(&SimCluster) -> R,
) -> (f64, u64) {
    let cluster = make_cluster();
    let _ = f(&cluster);
    let m = cluster.metrics();
    (m.virtual_time_secs, m.intermediate_bytes)
}

/// Ablation 1 — **mean propagation** (Section 3.1): one full latent-row
/// pass with the sparse O(z·d) kernel vs the densifying O(D·d) kernel.
pub fn mean_propagation(
    make_cluster: impl Fn() -> SimCluster,
    y: &SparseMat,
    d: usize,
    partitions: usize,
    seed: u64,
) -> Result<AblationResult> {
    let (mean, cm, xm) = broadcast_state(y, d, seed)?;
    let parts: Vec<Vec<SpRow>> = y.split_rows(partitions).iter().map(to_rows).collect();

    let run = |dense: bool| {
        measure(&make_cluster, |cluster| {
            let ctx = SparkleContext::new(cluster);
            let rdd = ctx.from_partitions(parts.clone());
            rdd.aggregate(
                if dense { "X/dense" } else { "X/mean-prop" },
                || Scalar(0.0),
                |acc, row: &SpRow| {
                    let x = if dense {
                        mean_prop::latent_row_dense(row.view(), &mean, &cm)
                    } else {
                        mean_prop::latent_row(row.view(), &cm, &xm)
                    };
                    acc.0 += x.iter().sum::<f64>();
                },
                |acc, o| acc.0 += o.0,
            )
        })
    };
    let (with_secs, with_bytes) = run(false);
    let (without_secs, without_bytes) = run(true);
    Ok(AblationResult { with_secs, without_secs, with_bytes, without_bytes })
}

/// Ablation 2 — **intermediate-data minimization** (Section 3.2): compute
/// `XtX` by recomputing `X` on demand in one consolidated pass vs
/// materializing `X`, shipping it through the DFS, and reading it back in
/// each of its three consumer jobs. Both arms model the paper's pipeline,
/// whose tasks fold `XtX`; the fit's tasks do not (it is `CMᵀ·YtX` on the
/// driver, [`crate::em`]).
pub fn intermediate_data(
    make_cluster: impl Fn() -> SimCluster,
    y: &SparseMat,
    d: usize,
    partitions: usize,
    seed: u64,
) -> Result<AblationResult> {
    let (_, cm, xm) = broadcast_state(y, d, seed)?;
    let parts: Vec<Vec<SpRow>> = y.split_rows(partitions).iter().map(to_rows).collect();

    let (with_secs, with_bytes) = measure(&make_cluster, |cluster| {
        let ctx = SparkleContext::new(cluster);
        let rdd = ctx.from_partitions(parts.clone());
        rdd.aggregate(
            "XtX/on-demand",
            || SmallMat(Mat::zeros(d, d)),
            |acc, row: &SpRow| {
                let x = mean_prop::latent_row(row.view(), &cm, &xm);
                acc.0.add_outer(1.0, &x, &x);
            },
            |acc, o| acc.0.add_assign(&o.0),
        )
    });

    let (without_secs, without_bytes) = measure(&make_cluster, |cluster| {
        let ctx = SparkleContext::new(cluster);
        let rdd = ctx.from_partitions(parts.clone());
        let x_rdd = rdd.map_partitions("X/materialize", |part| {
            part.iter()
                .map(|row| mean_prop::latent_row(row.view(), &cm, &xm))
                .collect::<Vec<Vec<f64>>>()
        });
        // The unconsolidated pipeline writes X once and re-reads it in the
        // XtX, YtX and ss3 jobs.
        let x_bytes = (y.rows() * d * 8) as u64;
        cluster.charge(Meter::DfsWrite, Load::Even(x_bytes), "dfs-write");
        for _ in 0..3 {
            cluster.charge(Meter::DfsRead, Load::Even(x_bytes), "dfs-read");
        }
        x_rdd.aggregate(
            "XtX/from-stored-X",
            || SmallMat(Mat::zeros(d, d)),
            |acc, x: &Vec<f64>| acc.0.add_outer(1.0, x, x),
            |acc, o| acc.0.add_assign(&o.0),
        )
    });
    Ok(AblationResult { with_secs, without_secs, with_bytes, without_bytes })
}

/// Ablation 3 — **sparse Frobenius norm** (Section 3.4): Algorithm 3 vs
/// Algorithm 2 as distributed stages over the same blocks.
pub fn frobenius_norm(
    make_cluster: impl Fn() -> SimCluster,
    y: &SparseMat,
    partitions: usize,
) -> Result<AblationResult> {
    let mean = y.col_means();
    let msum = linalg::vector::norm2_sq(&mean);
    let blocks = y.split_rows(partitions);

    let run = |simple: bool| {
        measure(&make_cluster, |cluster| {
            let tasks: Vec<_> = blocks
                .iter()
                .map(|b| {
                    let mean = &mean;
                    move || {
                        if simple {
                            frobenius::centered_sq_simple_block(b, mean)
                        } else {
                            frobenius::centered_sq_block(b, mean, msum)
                        }
                    }
                })
                .collect();
            let parts = cluster
                .run_stage(StageOptions::new(if simple { "Fnorm/alg2" } else { "Fnorm/alg3" }), tasks);
            parts.iter().sum::<f64>()
        })
    };
    let (with_secs, with_bytes) = run(false);
    let (without_secs, without_bytes) = run(true);
    Ok(AblationResult { with_secs, without_secs, with_bytes, without_bytes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcluster::ClusterConfig;
    use linalg::Prng;

    fn data() -> SparseMat {
        // Large enough that the optimized arms are well clear of timer
        // noise: the dense arm does ~250x the flops of the sparse arm.
        let mut rng = Prng::seed_from_u64(60);
        let spec = datasets::LowRankSpec {
            rows: 20_000,
            cols: 1_500,
            ..datasets::LowRankSpec::small_test()
        };
        datasets::sparse_lowrank(&spec, &mut rng)
    }

    fn cluster() -> SimCluster {
        SimCluster::new(ClusterConfig::paper_cluster())
    }

    #[test]
    fn mean_propagation_wins_on_sparse_data() {
        let y = data();
        let r = mean_propagation(cluster, &y, 10, 8, 1).unwrap();
        // Sparse rows have ~6 of 1500 entries: the dense arm does ~250x
        // the flops. Host timing is noisy, so just require a clear win.
        assert!(
            r.speedup() > 2.0,
            "dense centering should be much slower: {:?}",
            r
        );
    }

    #[test]
    fn consolidation_wins_on_bytes_and_time() {
        let y = data();
        // A small cluster keeps aggregate disk bandwidth low, so the
        // deterministic DFS charge for the materialized X dominates host
        // timing noise in the virtual-time comparison.
        let small = || SimCluster::new(ClusterConfig::paper_cluster().with_nodes(2));
        let r = intermediate_data(small, &y, 10, 8, 1).unwrap();
        assert!(
            r.without_bytes > 2 * r.with_bytes,
            "materialized X must ship more bytes: {:?}",
            r
        );
        assert!(r.without_secs > r.with_secs, "{r:?}");
    }

    #[test]
    fn frobenius_algorithm3_wins() {
        let y = data();
        let r = frobenius_norm(cluster, &y, 8).unwrap();
        assert!(r.speedup() > 2.0, "Algorithm 3 should be much faster: {:?}", r);
    }
}
