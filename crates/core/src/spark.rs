//! sPCA on the Spark-like engine (Section 4.2, Algorithm 5).
//!
//! The input matrix is split once into one [`RowRecords`] element per
//! partition — the partition's CSR block with its column-major copy,
//! analysed when the RDD is built (and rebuilt by lineage after a crash),
//! cached and priced as its rows' [`SpRow`] records — and persisted in the
//! cluster's aggregate memory. Each EM iteration runs exactly one
//! accumulator stage against it, paying for its sparse products and nothing
//! else: `YtXSparkJob`, one streaming `aggregate_each` whose per-task
//! accumulator is a [`YtxPartial`]. Each task hands its cached block to the
//! batched `add_block` kernels (latent rows recomputed on the fly from the
//! broadcast `CM`/`Xm`, `YtX` gathered through the column-major copy), and
//! only the partials cross the network (the paper's `YtXSum` accumulator,
//! "eliminating the need for reduce operations"; its `XtXSum` is driver
//! algebra over the merged `YtX`, see [`crate::em`]). The `YtX` partial
//! stores touched rows only — the O(z·d) sparsity trick of Section 4.2.
//! The driver folds the partials as they arrive, in partition order: a
//! [`TreeFold`] merges each complete aligned block of them in one column
//! pass ([`YtxPartial::tree_merged`]), with `tree_merge`'s bits, so a pass
//! holds a few partials instead of all of them. The paper's second stage,
//! `ss3SparkJob`, is driver algebra over the merged `YtX` here (see
//! [`crate::em`]), so `C_new` is never broadcast.
//!
//! The randomized arm ([`crate::rpca`]) runs over the same persisted RDD:
//! `SparkJobs` implements both arms' job traits, and `fit_with_input` is
//! the engine's one scaffold — it builds the RDD and the jobs once, then
//! hands them to the arm `config.algorithm` names and to the shared pass
//! loop ([`crate::driver`]).

use dcluster::{Load, Meter, SimCluster};
use linalg::sparse::{Block, PartitionBlock, RowRecords, SparseRow};
use linalg::wire::{self, Wire, WireError, WireReader};
use linalg::{Mat, SparseMat};
use sparkle::{Lineage, Rdd, SparkleContext, TreeFold};

use crate::config::{Algorithm, SpcaConfig};
use crate::driver::run_passes;
use crate::em::{EmArm, EmJobs};
use crate::frobenius;
use crate::init;
use crate::error::SpcaError;
use crate::mean_prop::{latent_matrix, ytx_counter_snapshot, YtxPartial};
use crate::model::SpcaRun;
use crate::rpca::{sketch_partial, RpcaArm, RpcaJobs};
use crate::Result;

/// One sparse matrix row as an RDD element.
#[derive(Debug, Clone, PartialEq)]
pub struct SpRow {
    /// Column indices of non-zeros, ascending.
    pub indices: Vec<u32>,
    /// Values parallel to `indices`.
    pub values: Vec<f64>,
}

impl SpRow {
    /// Borrowed view compatible with the linalg kernels.
    pub fn view(&self) -> SparseRow<'_> {
        SparseRow { indices: &self.indices, values: &self.values }
    }
}

/// Wire layout: the per-row record a Spark shuffle file would hold
/// ([`wire::write_row_record`]: `varint nnz`, delta-encoded ascending
/// indices, raw f64 values).
impl Wire for SpRow {
    fn encode_into(&self, out: &mut Vec<u8>) {
        wire::write_row_record(out, &self.indices, &self.values);
    }
    fn encoded_size(&self) -> u64 {
        wire::row_record_len(&self.indices)
    }
    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        wire::read_row_record(r).map(|(indices, values)| SpRow { indices, values })
    }
    // v3 fast path: bitpacked index deltas + mode-tagged value payload —
    // the sparse shuffle record the codec's ≥2x reduction target is about
    // (on the binary text datasets the values collapse to one byte each).
    fn encode_v3_into(&self, out: &mut Vec<u8>, quantize: bool) {
        wire::write_uvarint(out, self.indices.len() as u64);
        wire::write_bitpacked_u32(out, &self.indices);
        wire::write_f64_slice_v3(out, &self.values, quantize);
    }
    fn encoded_size_v3(&self, quantize: bool) -> u64 {
        wire::uvarint_len(self.indices.len() as u64)
            + wire::bitpacked_u32_len(&self.indices)
            + wire::f64_slice_v3_len(&self.values, quantize)
    }
    fn decode_v3_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        let n = r.ulen()?;
        let indices = wire::read_bitpacked_u32(r, n, u64::from(u32::MAX) + 1)?;
        let values = wire::read_f64_slice_v3(r, n)?;
        Ok(SpRow { indices, values })
    }
}

/// Row range `(start, len)` of partition `p` when `n` rows are split into
/// `parts` — the exact layout of [`SparseMat::split_rows`], so lineage
/// recomputation rebuilds precisely the rows the lost partition held.
pub(crate) fn partition_range(n: usize, parts: usize, p: usize) -> (usize, usize) {
    let base = n / parts;
    let extra = n % parts;
    let start = p * base + p.min(extra);
    (start, base + usize::from(p < extra))
}

/// Converts a sparse matrix into row elements (for RDDs of rows).
pub fn to_rows(y: &SparseMat) -> Vec<SpRow> {
    (0..y.rows())
        .map(|r| {
            let row = y.row(r);
            SpRow { indices: row.indices.to_vec(), values: row.values.to_vec() }
        })
        .collect()
}

/// Accumulator wrapper so `f64` partials get a wire size.
#[derive(Debug, Clone, Copy, Default)]
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

/// Dense vector accumulator (column sums of the mean job).
struct DenseAcc(Vec<f64>);

impl Wire for DenseAcc {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
    }
    fn encoded_size(&self) -> u64 {
        self.0.encoded_size()
    }
    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        Ok(DenseAcc(Vec::<f64>::decode_from(r)?))
    }
}

/// The cached element of partition `p` of `y` split into `parts`.
fn partition_block(y: &SparseMat, parts: usize, p: usize) -> RowRecords {
    let (start, len) = partition_range(y.rows(), parts, p);
    RowRecords(PartitionBlock::new(y.row_block(start, start + len)))
}

struct SparkJobs<'a> {
    rdd: Rdd<'a, RowRecords>,
    n: usize,
    d_in: usize,
    d: usize,
    /// Most packed rows a `YtXJob` partial can hold: one per column its
    /// partition touches, so at most `min(D, nnz)` of the widest partition.
    partial_rows: usize,
}

/// The driver's budget for one block of `YtXJob` partials merged at once
/// (DESIGN.md §16): a handful on the paper's wide shapes, the whole stage
/// when partitions touch few columns.
const FOLD_BLOCK_BYTES: usize = 16 << 20;

/// Block size of the `YtXJob` fold, from the input's shape only: the
/// largest power of two `g ≥ 2` whose `g` partials of `rows × d` `f64`s
/// fit in [`FOLD_BLOCK_BYTES`], where `rows` bounds a partial's packed rows.
fn fold_block(rows: usize, d: usize) -> usize {
    let fit = FOLD_BLOCK_BYTES / (rows * d * 8).max(1);
    1 << fit.max(2).ilog2()
}

impl EmJobs for SparkJobs<'_> {
    fn mean_job(&mut self) -> Vec<f64> {
        let d_in = self.d_in;
        let (sums, _) = self.rdd.aggregate(
            "meanJob",
            || DenseAcc(vec![0.0; d_in]),
            |acc, block| {
                let y = block.0.csr();
                for r in 0..y.rows() {
                    for (c, v) in y.row(r).iter() {
                        acc.0[c] += v;
                    }
                }
            },
            |acc, other| linalg::vector::axpy(1.0, &other.0, &mut acc.0),
        );
        let mut mean = sums.0;
        linalg::vector::scale(1.0 / self.n as f64, &mut mean);
        mean
    }

    fn fnorm_job(&mut self, mean: &[f64]) -> f64 {
        let msum = linalg::vector::norm2_sq(mean);
        let (total, _) = self.rdd.aggregate_partitions(
            "FnormJob",
            || Scalar(0.0),
            |acc, part| {
                // Algorithm 3 over the partition's block — the MapReduce
                // engine's per-block pass.
                for block in part {
                    acc.0 += frobenius::centered_sq_block(block.0.csr(), mean, msum);
                }
            },
            |acc, other| acc.0 += other.0,
        );
        total.0
    }

    fn ytx_job(&mut self, cm: &Mat, xm: &[f64]) -> YtxPartial {
        // Broadcast the iteration's in-memory matrices (Section 3.3) to
        // every node: CM (D×d) and Xm (d), at their encoded sizes like
        // every other metered value.
        let cluster = self.rdd.cluster();
        let bytes = cm.encoded_size() + wire::f64_payload_len(xm.len());
        cluster.charge(Meter::Network, Load::EachNode(bytes), "broadcast");
        let d = self.d;
        let before = ytx_counter_snapshot();
        // Batched path: each task runs the blocked kernels over its cached
        // block — one add_block per partition, so reassociation happens
        // only at partition boundaries, same as the merge tree. The driver
        // folds the partials in aligned blocks as they arrive and collapses
        // what is left in one fused, column-banded pass at the end.
        let pool = cluster.pool();
        let merge = |block| YtxPartial::tree_merged(pool, d, block);
        let mut fold = TreeFold::new(fold_block(self.partial_rows, d));
        self.rdd.aggregate_each(
            "YtXJob",
            || YtxPartial::new(d),
            |acc, part| {
                for block in part {
                    acc.add_block(&block.0, cm, xm);
                }
            },
            |partial| {
                fold.push(partial, |block| {
                    let _s = obs::span("driver", "ytx fold block");
                    merge(block)
                })
            },
        );
        let partial = {
            let _s = obs::span("driver", "accumulator merge");
            fold.finish(merge).unwrap_or_else(|| YtxPartial::new(d))
        };
        if obs::enabled() {
            let after = ytx_counter_snapshot();
            let cluster = self.rdd.cluster();
            cluster.trace_counter("em.ytx.flops", (after.0 - before.0) as f64);
            cluster.trace_counter("em.ytx.batch_rows", (after.1 - before.1) as f64);
        }
        partial
    }
}

/// The randomized arm's stages over the same persisted RDD.
impl RpcaJobs for SparkJobs<'_> {
    fn colsum_job(&mut self) -> Vec<Vec<f64>> {
        self.rdd
            .map_partitions("rpca/colsumJob", |part| {
                part.iter().map(|block| block.0.csr().col_sums()).collect()
            })
            .collect()
    }

    fn fnorm_job(&mut self, mean: &[f64], mean_norm_sq: f64) -> Vec<f64> {
        self.rdd
            .map_partitions("rpca/FnormJob", |part| {
                part.iter()
                    .map(|block| frobenius::centered_sq_block(block.0.csr(), mean, mean_norm_sq))
                    .collect()
            })
            .collect()
    }

    fn pass_job(
        &mut self,
        w: &Mat,
        shift: &[f64],
        pass: usize,
        fold: &mut (dyn FnMut(YtxPartial) + Send),
    ) {
        // Broadcast the pass's basis W (D×K) and shift vector to every
        // node — the fat part of the fat pass, priced like every other
        // broadcast.
        let cluster = self.rdd.cluster();
        let bytes = w.encoded_size() + wire::f64_payload_len(shift.len());
        cluster.charge(Meter::Network, Load::EachNode(bytes), "broadcast");
        // A streaming collect: partials reach the fold in partition order
        // while the stage runs, charged one flow per partition — the
        // touched rows of the sketch each executor ships home.
        self.rdd.collect_each(
            &format!("rpca/pass{pass}"),
            |part| part.iter().map(|block| sketch_partial(&block.0, w, shift)).collect(),
            fold,
        );
    }
}

/// Distributed projection: computes the reduced matrix `X = (Y − 1⊗μ)·CM`
/// (the paper's §2.1 dimensionality-reduction output, `X = Y*C`) as one
/// narrow stage over the cluster, returning the N×d latent matrix — bit
/// for bit [`PcaModel::transform_sparse`](crate::model::PcaModel::transform_sparse).
///
/// This is what feeds "other machine learning algorithms such as k-means
/// clustering" downstream; the N×d result is small enough to collect, one
/// row record per input row.
pub fn transform(
    cluster: &SimCluster,
    y: &SparseMat,
    model: &crate::model::PcaModel,
    partitions: usize,
) -> Result<Mat> {
    SpcaError::check_dims(y.cols(), model.input_dim())?;
    let ctx = SparkleContext::new(cluster);
    let parts = partitions.min(y.rows().max(1)).max(1);
    let rdd = ctx.from_partitions((0..parts).map(|p| vec![partition_block(y, parts, p)]).collect());

    let cm = model.latent_projection()?;
    let xm = cm.vecmat(model.mean());
    let bytes = cm.encoded_size() + wire::f64_payload_len(xm.len());
    cluster.charge(Meter::Network, Load::EachNode(bytes), "broadcast");

    let latent = rdd.map_partitions("transform", |part| {
        let blocks = part.iter().map(|block| latent_matrix(block.0.csr(), &cm, &xm));
        blocks.flat_map(|x| (0..x.rows()).map(move |r| x.row(r).to_vec())).collect::<Vec<_>>()
    });
    let rows = latent.collect();
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    Ok(Mat::from_rows(&refs))
}

/// Fits on the Spark-like engine — PPCA-EM or the randomized arm, as
/// `config.algorithm` says. With a `job_id` set the input file and stage
/// labels are scoped to `jobs/<id>/` so concurrent tenants on one cluster
/// never collide (checkpoints scope through the arm's `checkpoint_file`).
/// Every caller — the serving subsystem included — comes through here.
pub fn fit(cluster: &SimCluster, y: &SparseMat, config: &SpcaConfig) -> Result<SpcaRun> {
    config.validate(y.cols())?;
    let input = crate::scoped_input(config, "input/Y");
    let run = fit_with_input(cluster, y, config, &input);
    cluster.set_job_scope(None);
    run
}

/// [`fit`] with an explicit DFS name for the materialized input — the
/// smart-guess warm-up fits its row sample under a different name so it
/// does not clobber the full run's input file. The one Spark scaffold:
/// both arms get the same job scope, partitioning, seeded input file and
/// persisted RDD, so fault plans and multi-tenant scoping compose with
/// either.
fn fit_with_input(
    cluster: &SimCluster,
    y: &SparseMat,
    config: &SpcaConfig,
    input_file: &str,
) -> Result<SpcaRun> {
    crate::label_trace(cluster, config.algorithm.family(), "Spark");
    cluster.set_job_scope(config.job_id.as_deref());
    let ctx = SparkleContext::new(cluster);
    let partitions = config
        .partitions
        .unwrap_or_else(|| cluster.config().total_cores())
        .min(y.rows().max(1));

    // The input pre-exists the run on the DFS (seeded, not charged). It is
    // both what lineage recomputation re-reads after a cache loss and what
    // node crashes re-replicate — sized at its encoded CSR length so
    // re-reads and re-replication charge the same bytes a real file holds.
    cluster.dfs().seed(cluster, input_file, y.encoded_size());

    // Build and persist the input RDD (cached across all passes), one
    // analysed block per partition, with the lineage that rebuilds any
    // partition a node crash evicts: re-read the partition's slice of the
    // input file, re-parse and re-analyse it.
    let blocks: Vec<Vec<RowRecords>> =
        (0..partitions).map(|p| vec![partition_block(y, partitions, p)]).collect();
    let (n, d_in) = (y.rows(), y.cols());
    let partial_rows = blocks.iter().map(|b| b[0].0.csr().nnz()).max().unwrap_or(0).min(d_in);
    let mut rdd = ctx.from_partitions(blocks);
    rdd.persist_with_lineage(
        Lineage::new(
            vec![format!("textFile({input_file})"), "parse".into()],
            Box::new(move |p| vec![partition_block(y, partitions, p)]),
        )
        .with_source(input_file),
    );

    let error_sample = crate::accuracy::sample_rows(y, config.error_sample_rows, config.seed);
    let mut jobs = SparkJobs { rdd, n, d_in, d: config.components, partial_rows };
    // The engine's one algorithm dispatch: which arm runs over the jobs.
    match config.algorithm {
        Algorithm::PpcaEm => {
            let (init, warm_up) = init::initial_state(cluster, y, config, fit_with_input)?;
            let mut arm = EmArm::new(&mut jobs, config, (n, d_in), init);
            let mut run = run_passes(cluster, &mut arm, &error_sample, config)?;
            warm_up.charge_to(&mut run);
            Ok(run)
        }
        Algorithm::Randomized => {
            let mut arm = RpcaArm::new(cluster, &mut jobs, config, (n, d_in));
            run_passes(cluster, &mut arm, &error_sample, config)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcluster::ClusterConfig;

    #[test]
    fn sp_row_roundtrip_and_size() {
        let y = SparseMat::from_triplets(2, 5, &[(0, 1, 2.0), (0, 4, 1.0), (1, 0, 3.0)]);
        let rows = to_rows(&y);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].indices, vec![1, 4]);
        // Encoded: varint nnz (1) + indices 1,Δ2 (2) + two raw f64 (16).
        assert_eq!(rows[0].encoded_size(), 19);
        assert_eq!(rows[0].encode().len(), 19);
        assert_eq!(SpRow::decode(&rows[0].encode()).unwrap(), rows[0]);
        assert_eq!(rows[1].view().dot_dense(&[1.0, 0.0, 0.0, 0.0, 0.0]), 3.0);
    }

    #[test]
    fn partition_range_mirrors_split_rows() {
        for &(n, parts) in &[(1usize, 1usize), (7, 3), (8, 3), (100, 7), (5, 5), (3, 8)] {
            let parts = parts.min(n); // fit clamps the same way
            let y = SparseMat::from_triplets(n, 2, &[]);
            let blocks = y.split_rows(parts);
            let mut start_seen = 0;
            for (p, block) in blocks.iter().enumerate() {
                let (start, len) = partition_range(n, parts, p);
                assert_eq!(start, start_seen, "partition {p} start for n={n} parts={parts}");
                assert_eq!(len, block.rows(), "partition {p} len for n={n} parts={parts}");
                start_seen += len;
            }
            assert_eq!(start_seen, n);
        }
    }

    #[test]
    fn distributed_transform_matches_local() {
        let mut rng = linalg::Prng::seed_from_u64(8);
        let spec = datasets::LowRankSpec::small_test();
        let y = datasets::sparse_lowrank(&spec, &mut rng);
        let cluster = SimCluster::new(dcluster::ClusterConfig::paper_cluster());
        let run = fit(&cluster, &y, &SpcaConfig::new(3).with_max_iters(3)).unwrap();
        let distributed = transform(&cluster, &y, &run.model, 8).unwrap();
        let local = run.model.transform_sparse(&y).unwrap();
        // Both sides are sequential axpys per row: bit for bit.
        let bits = |m: &Mat| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&distributed), bits(&local));
        assert_eq!(distributed.rows(), y.rows());

        // Rows of another width are an error, not a panic.
        let wide = SparseMat::from_triplets(2, y.cols() + 1, &[(0, 0, 1.0)]);
        let want = SpcaError::DimensionMismatch { expected: y.cols(), found: y.cols() + 1 };
        assert_eq!(transform(&cluster, &wide, &run.model, 2).unwrap_err(), want);
        assert_eq!(run.model.transform_sparse(&wide).unwrap_err(), want);
        assert_eq!(run.model.transform_dense(&wide.to_dense()).unwrap_err(), want);
    }

    #[test]
    fn cached_blocks_are_priced_as_the_rows_they_replace() {
        let mut rng = linalg::Prng::seed_from_u64(9);
        let y = datasets::sparse_lowrank(&datasets::LowRankSpec::small_test(), &mut rng);
        for (p, split) in y.split_rows(7).into_iter().enumerate() {
            // Spark: one element per partition, sized as its rows.
            let cached = partition_block(&y, 7, p);
            let rows: u64 = to_rows(&split).iter().map(Wire::encoded_size).sum();
            assert_eq!(cached.encoded_size(), rows, "partition {p}");
            let records: Vec<u8> = to_rows(&split).iter().flat_map(|r| r.encode()).collect();
            assert_eq!(cached.encode(), records);
            // The lineage rebuild is the element the split cached.
            assert_eq!(cached, RowRecords(PartitionBlock::new(split.clone())));
            assert_eq!(cached.0.csr().rows(), partition_range(y.rows(), 7, p).1);
            // MapReduce: the split is sized as its CSR block.
            let block = PartitionBlock::new(split.clone());
            assert_eq!(block.encoded_size(), split.encoded_size());
        }
    }

    #[test]
    fn fit_runs_and_converges_on_tiny_data() {
        let mut rng = linalg::Prng::seed_from_u64(3);
        let spec = datasets::LowRankSpec::small_test();
        let y = datasets::sparse_lowrank(&spec, &mut rng);
        let cluster = SimCluster::new(ClusterConfig::paper_cluster());
        let run = fit(&cluster, &y, &SpcaConfig::new(4).with_max_iters(6)).unwrap();
        assert_eq!(run.model.output_dim(), 4);
        assert!(!run.iterations.is_empty());
        // Error must improve from the first iteration to the last.
        let first = run.iterations.first().unwrap().error;
        let last = run.final_error();
        assert!(last <= first, "error should not increase: {first} → {last}");
        assert!(run.intermediate_bytes > 0);
        assert!(run.virtual_time_secs > 0.0);
    }
}
