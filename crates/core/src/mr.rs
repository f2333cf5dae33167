//! sPCA on the MapReduce engine (Section 4.1).
//!
//! Three job types, mirroring the paper's implementation:
//!
//! * `meanJob`, `FnormJob` — one-time lightweight jobs before the loop.
//! * `YtXJob` — the consolidated pass. Its mapper is a *stateful
//!   combiner*: per-partition `YtX-p` partials and the hoisted `Σx` are
//!   accumulated in mapper memory and emitted once at cleanup, so mapper
//!   output stays O(z·d) per mapper instead of O(rows·d). A *composite
//!   key* routes the small `Σx` and count partials to one reducer each
//!   while `YtX` rows spread across reducers by row index — the paper's
//!   key design, less its `XtX-p` key.
//!
//! The paper's `XtX-p` partials and its fourth job, `ss3Job` (one scalar
//! per mapper, §4.1), are driver algebra over the reduced `YtX` here (see
//! [`crate::em`]): an EM iteration runs one job, its mappers emit no d×d
//! Gram, and nothing re-ships `CM`/`Xm` or the new `C`.
//!
//! `fit_with_input` is the engine's one scaffold for both algorithm
//! families: it splits and seeds the input once — each split a
//! [`PartitionBlock`], its structure analysed once for the whole fit and
//! priced as the `SparseMat` it holds — then builds the jobs of the arm
//! `config.algorithm` names — these, or the partition-keyed ones in
//! [`crate::rpca`] — and runs them under the shared pass loop
//! ([`crate::driver`]).

use std::sync::Arc;

use dcluster::{Load, Meter, SimCluster};
use linalg::sparse::{Block, PartitionBlock};
use linalg::wire::{self, Wire, WireError, WireReader};
use linalg::{Mat, SparseMat};
use mapreduce::{Emitter, MapReduceEngine, MapReduceJob};

use crate::config::{Algorithm, SpcaConfig};
use crate::driver::run_passes;
use crate::em::{EmArm, EmJobs};
use crate::frobenius;
use crate::init;
use crate::mean_prop::{ytx_counter_snapshot, YtxPartial};
use crate::model::SpcaRun;
use crate::rpca::{MrRpcaJobs, RpcaArm};
use crate::Result;

/// Composite shuffle key of the `YtXJob`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum MrKey {
    /// All hoisted `Σx` partials — single reducer.
    SumX,
    /// Row-count partials (sanity bookkeeping).
    Count,
    /// One key per touched `YtX` row — spreads across reducers.
    Row(u32),
}

/// Wire layout: one tag byte, plus a varint row index for [`MrKey::Row`].
/// Tag 0 was the paper's `XtX-p` key; it is retired, and decodes as
/// malformed.
impl Wire for MrKey {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            MrKey::SumX => out.push(1),
            MrKey::Count => out.push(2),
            MrKey::Row(c) => {
                out.push(3);
                wire::write_uvarint(out, u64::from(*c));
            }
        }
    }
    fn encoded_size(&self) -> u64 {
        match self {
            MrKey::Row(c) => 1 + wire::uvarint_len(u64::from(*c)),
            _ => 1,
        }
    }
    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        match r.u8()? {
            1 => Ok(MrKey::SumX),
            2 => Ok(MrKey::Count),
            3 => Ok(MrKey::Row(u32::decode_from(r)?)),
            _ => Err(WireError::Malformed("unknown MrKey tag")),
        }
    }
}

/// `meanJob`: column sums, reduced to one vector (driver divides by N).
struct MeanJob;

impl MapReduceJob for MeanJob {
    type Input = PartitionBlock;
    type Key = ();
    type Value = Vec<f64>;
    type Output = Vec<f64>;

    fn map(&self, block: &PartitionBlock, emitter: &mut Emitter<(), Vec<f64>>) {
        emitter.emit((), block.csr().col_sums());
    }

    fn reduce(&self, _key: (), values: Vec<Vec<f64>>) -> Vec<f64> {
        sum_vectors(&values)
    }
}

/// `FnormJob`: Algorithm 3 partial per block.
struct FnormJob<'a> {
    mean: &'a [f64],
    mean_norm_sq: f64,
}

impl MapReduceJob for FnormJob<'_> {
    type Input = PartitionBlock;
    type Key = ();
    type Value = f64;
    type Output = f64;

    fn map(&self, block: &PartitionBlock, emitter: &mut Emitter<(), f64>) {
        emitter.emit((), frobenius::centered_sq_block(block.csr(), self.mean, self.mean_norm_sq));
    }

    fn reduce(&self, _key: (), values: Vec<f64>) -> f64 {
        values.iter().sum()
    }
}

/// One shuffle value of the `YtXJob`: a window into a buffer its mapper
/// filled. The touched rows of a partition's `Σ y'⊗x` leave the mapper as
/// one packed slab; every `Row(c)` value is that slab (shared, never
/// copied) plus the row's offset, so emitting a row allocates nothing and
/// the slab is retired once, by whoever drops its last row. On the wire and
/// to the byte meters a view is exactly the `Vec<f64>` it shows.
#[derive(Debug, Clone)]
struct RowView {
    slab: Arc<Slab>,
    start: usize,
    len: usize,
}

/// A mapper's packed rows, retired to `linalg::scratch` when the last
/// view drops, for the next pass's mappers to take: freed instead, the
/// slabs of a reduce wave went back to the system and were faulted in
/// again by the next map wave.
#[derive(Debug)]
struct Slab(Vec<f64>);

impl Drop for Slab {
    fn drop(&mut self) {
        linalg::scratch::recycle(std::mem::take(&mut self.0));
    }
}

impl RowView {
    /// A view of all of `values`.
    fn whole(values: Vec<f64>) -> Self {
        RowView { len: values.len(), slab: Arc::new(Slab(values)), start: 0 }
    }
}

impl AsRef<[f64]> for RowView {
    fn as_ref(&self) -> &[f64] {
        &self.slab.0[self.start..self.start + self.len]
    }
}

/// Byte for byte the `Vec<f64>` layouts (v2, and v3 exact / quantized).
impl Wire for RowView {
    fn encode_into(&self, out: &mut Vec<u8>) {
        wire::write_uvarint(out, self.len as u64);
        for v in self.as_ref() {
            v.encode_into(out);
        }
    }
    fn encoded_size(&self) -> u64 {
        wire::f64_payload_len(self.len)
    }
    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        Vec::<f64>::decode_from(r).map(RowView::whole)
    }
    fn encode_v3_into(&self, out: &mut Vec<u8>, quantize: bool) {
        wire::write_uvarint(out, self.len as u64);
        wire::write_f64_slice_v3(out, self.as_ref(), quantize);
    }
    fn encoded_size_v3(&self, quantize: bool) -> u64 {
        wire::uvarint_len(self.len as u64) + wire::f64_slice_v3_len(self.as_ref(), quantize)
    }
    fn decode_v3_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        Vec::<f64>::decode_v3_from(r).map(RowView::whole)
    }
}

/// The consolidated `YtXJob` with a stateful-combiner mapper.
struct YtXJob<'a> {
    cm: &'a Mat,
    xm: &'a [f64],
    d: usize,
}

impl MapReduceJob for YtXJob<'_> {
    type Input = PartitionBlock;
    type Key = MrKey;
    type Value = RowView;
    type Output = Vec<f64>;

    fn map(&self, block: &PartitionBlock, emitter: &mut Emitter<MrKey, RowView>) {
        // Stateful combiner: fold the whole partition into in-memory
        // partials through the batched kernels (the split is the block,
        // analysed once per fit), emit once at "cleanup".
        let mut partial = YtxPartial::new(self.d);
        partial.add_block(block, self.cm, self.xm);
        let (cols, slab) = partial.take_packed_ytx();
        emitter.emit(MrKey::SumX, RowView::whole(partial.sum_x));
        emitter.emit(MrKey::Count, RowView::whole(vec![partial.rows_seen as f64]));
        let slab = Arc::new(Slab(slab));
        for (i, c) in cols.into_iter().enumerate() {
            let row = RowView { slab: Arc::clone(&slab), start: i * self.d, len: self.d };
            emitter.emit(MrKey::Row(c), row);
        }
    }

    fn reduce(&self, _key: MrKey, values: Vec<RowView>) -> Vec<f64> {
        sum_vectors(&values)
    }
}

/// Sums a reducer's vectors in the association every EM-on-MapReduce model
/// hash rests on: the *last* value is the accumulator, the others are added
/// onto it in the order they arrived (mapper order).
fn sum_vectors<R: AsRef<[f64]>>(values: &[R]) -> Vec<f64> {
    let (last, rest) = values.split_last().expect("reducer gets at least one value");
    let mut acc = last.as_ref().to_vec();
    for v in rest {
        linalg::vector::axpy(1.0, v.as_ref(), &mut acc);
    }
    acc
}

struct MrJobs<'a> {
    engine: MapReduceEngine<'a>,
    blocks: Vec<PartitionBlock>,
    n: usize,
    d: usize,
    reducers: usize,
}

impl EmJobs for MrJobs<'_> {
    fn mean_job(&mut self) -> Vec<f64> {
        let (out, _) = self.engine.run_job("meanJob", &MeanJob, &self.blocks, 1);
        let mut mean = out.into_iter().next().expect("meanJob output").1;
        linalg::vector::scale(1.0 / self.n as f64, &mut mean);
        mean
    }

    fn fnorm_job(&mut self, mean: &[f64]) -> f64 {
        let job = FnormJob { mean, mean_norm_sq: linalg::vector::norm2_sq(mean) };
        let (out, _) = self.engine.run_job("FnormJob", &job, &self.blocks, 1);
        out.into_iter().next().expect("FnormJob output").1
    }

    fn ytx_job(&mut self, cm: &Mat, xm: &[f64]) -> YtxPartial {
        // Distributed-cache shipment of the broadcast matrices (CM, Xm),
        // at their encoded sizes.
        let cluster = self.engine.cluster();
        let bytes = cm.encoded_size() + wire::f64_payload_len(xm.len());
        cluster.charge(Meter::Network, Load::EachNode(bytes), "broadcast");
        let job = YtXJob { cm, xm, d: self.d };
        let before = ytx_counter_snapshot();
        let (out, _) = self.engine.run_job("YtXJob", &job, &self.blocks, self.reducers);
        if obs::enabled() {
            let after = ytx_counter_snapshot();
            let cluster = self.engine.cluster();
            cluster.trace_counter("em.ytx.flops", (after.0 - before.0) as f64);
            cluster.trace_counter("em.ytx.batch_rows", (after.1 - before.1) as f64);
        }
        let mut partial = YtxPartial::new(self.d);
        for (key, value) in out {
            match key {
                MrKey::SumX => partial.sum_x = value,
                MrKey::Count => partial.rows_seen = value[0] as u64,
                // Reduced keys arrive in ascending MrKey order, so the
                // packed insert is an append each time.
                MrKey::Row(c) => partial.set_ytx_row(c, &value),
            }
        }
        partial
    }
}

/// Fits on the MapReduce engine — PPCA-EM or the randomized arm, as
/// `config.algorithm` says. With a `job_id` set the input file and stage
/// labels are scoped to `jobs/<id>/` like the Spark engine's, so
/// concurrent tenants on one cluster never collide.
pub fn fit(cluster: &SimCluster, y: &SparseMat, config: &SpcaConfig) -> Result<SpcaRun> {
    config.validate(y.cols())?;
    let input = crate::scoped_input(config, "input/Y");
    let run = fit_with_input(cluster, y, config, &input);
    cluster.set_job_scope(None);
    run
}

/// [`fit`] with an explicit DFS name for the materialized input (the
/// smart-guess warm-up uses a separate name for its row sample). The one
/// MapReduce scaffold: both arms get the same job scope, split blocks and
/// HDFS-materialized input.
fn fit_with_input(
    cluster: &SimCluster,
    y: &SparseMat,
    config: &SpcaConfig,
    input_file: &str,
) -> Result<SpcaRun> {
    crate::label_trace(cluster, config.algorithm.family(), "MR");
    cluster.set_job_scope(config.job_id.as_deref());
    let partitions = config
        .partitions
        .unwrap_or_else(|| cluster.config().total_cores())
        .min(y.rows().max(1));
    // The splits, each analysed once for the whole fit.
    let blocks: Vec<PartitionBlock> =
        y.split_rows(partitions).into_iter().map(PartitionBlock::new).collect();

    // HDFS-materialized input: MapReduce recovery re-reads failed tasks'
    // splits from here (sized per task by the engine), and node crashes
    // re-replicate it like any other file — sized at its encoded CSR
    // length, so re-reads match the real file.
    cluster.dfs().seed(cluster, input_file, y.encoded_size());

    let error_sample = crate::accuracy::sample_rows(y, config.error_sample_rows, config.seed);
    let engine = MapReduceEngine::new(cluster);
    let (n, d_in) = (y.rows(), y.cols());
    let reducers = cluster.config().nodes.max(1);
    // The engine's one algorithm dispatch: which jobs the blocks feed and
    // which arm runs over them. (The randomized jobs key each block by its
    // partition index, so the two arms' job inputs differ in type.)
    match config.algorithm {
        Algorithm::PpcaEm => {
            let (init, warm_up) = init::initial_state(cluster, y, config, fit_with_input)?;
            let mut jobs = MrJobs { engine, blocks, n, d: config.components, reducers };
            let mut arm = EmArm::new(&mut jobs, config, (n, d_in), init);
            let mut run = run_passes(cluster, &mut arm, &error_sample, config)?;
            warm_up.charge_to(&mut run);
            Ok(run)
        }
        Algorithm::Randomized => {
            let mut jobs = MrRpcaJobs::new(engine, blocks, reducers);
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
    fn mr_key_ordering_groups_small_keys_first() {
        let mut keys = vec![MrKey::Row(7), MrKey::SumX, MrKey::Row(0), MrKey::Count];
        keys.sort();
        assert_eq!(keys, vec![MrKey::SumX, MrKey::Count, MrKey::Row(0), MrKey::Row(7)]);
        // The surviving tags keep their bytes; the retired `XtX` tag 0 and
        // unknown tags are malformed.
        for (key, bytes) in [
            (MrKey::SumX, vec![1]),
            (MrKey::Count, vec![2]),
            (MrKey::Row(0), vec![3, 0]),
            (MrKey::Row(300), vec![3, 0xac, 0x02]),
        ] {
            assert_eq!(key.encode(), bytes, "{key:?}");
            assert_eq!(key.encoded_size(), bytes.len() as u64);
            assert_eq!(MrKey::decode(&bytes).unwrap(), key);
        }
        for tag in [0u8, 4] {
            assert!(matches!(MrKey::decode(&[tag]), Err(WireError::Malformed(_))), "tag {tag}");
        }
    }

    #[test]
    fn row_view_is_its_vec_on_the_wire() {
        let rows: Vec<Vec<f64>> = vec![
            vec![],
            vec![-0.0],
            vec![1.5, -0.0, f64::from_bits(0x7ff8_0000_dead_beef), f64::NEG_INFINITY, 1e-300],
            vec![0.0, 1.0, -17.0, 1e6, 42.0], // all-integer: bit-packs under v3
            vec![0.1, std::f64::consts::PI, -2.0 / 3.0],
        ];
        // Every row both as a view of its own buffer and at an offset
        // inside a slab of all of them.
        let slab = Arc::new(Slab(rows.concat()));
        let mut start = 0;
        for row in &rows {
            let inside = RowView { slab: Arc::clone(&slab), start, len: row.len() };
            start += row.len();
            for view in [RowView::whole(row.clone()), inside] {
                assert_eq!(view.encode(), row.encode());
                assert_eq!(view.encoded_size(), row.encoded_size());
                for quantize in [false, true] {
                    assert_eq!(view.encode_v3(quantize), row.encode_v3(quantize));
                    assert_eq!(view.encoded_size_v3(quantize), row.encoded_size_v3(quantize));
                }

                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(RowView::decode(&row.encode()).unwrap().as_ref()), bits(row));
                for quantize in [false, true] {
                    // Quantized bytes decode to whatever the `Vec` decodes to.
                    let bytes = row.encode_v3(quantize);
                    let want = Vec::<f64>::decode_v3_from(&mut WireReader::new(&bytes)).unwrap();
                    let mut r = WireReader::new(&bytes);
                    let got = RowView::decode_v3_from(&mut r).unwrap();
                    r.finish().unwrap();
                    assert_eq!(bits(got.as_ref()), bits(&want));
                }
            }
        }
    }

    #[test]
    fn reducer_sums_last_value_first() {
        // (a + b) + c ≠ (c + a) + b in floating point: pin the latter.
        let (a, b, c) = (1e16, 1.0, -1e16);
        assert_eq!(sum_vectors(&[vec![a], vec![b], vec![c]]), vec![(c + a) + b]);
        assert_ne!((a + b) + c, (c + a) + b);
    }

    #[test]
    fn fit_runs_on_tiny_data() {
        let mut rng = linalg::Prng::seed_from_u64(4);
        let spec = datasets::LowRankSpec::small_test();
        let y = datasets::sparse_lowrank(&spec, &mut rng);
        let cluster = SimCluster::new(ClusterConfig::paper_cluster());
        let run = fit(&cluster, &y, &SpcaConfig::new(3).with_max_iters(4)).unwrap();
        assert_eq!(run.model.output_dim(), 3);
        let first = run.iterations.first().unwrap().error;
        assert!(run.final_error() <= first);
        // MapReduce pays per-job overheads: 2 + 2·iters jobs at ≥6 s each.
        assert!(run.virtual_time_secs >= 6.0 * 2.0);
    }

    #[test]
    fn mapreduce_matches_spark_exactly() {
        // Same seed, same math: the two platforms must agree to numerical
        // round-off — the paper's claim that the design is platform
        // independent.
        let mut rng = linalg::Prng::seed_from_u64(5);
        let spec = datasets::LowRankSpec::small_test();
        let y = datasets::sparse_lowrank(&spec, &mut rng);
        let config = SpcaConfig::new(3).with_max_iters(3).with_rel_tolerance(None);

        let c1 = SimCluster::new(ClusterConfig::paper_cluster());
        let mr_run = fit(&c1, &y, &config).unwrap();
        let c2 = SimCluster::new(ClusterConfig::paper_cluster());
        let spark_run = crate::spark::fit(&c2, &y, &config).unwrap();

        assert!(
            mr_run
                .model
                .components()
                .approx_eq(spark_run.model.components(), 1e-8),
            "C diverged between platforms"
        );
        assert!(
            (mr_run.model.noise_variance() - spark_run.model.noise_variance()).abs() < 1e-10
        );
    }
}
