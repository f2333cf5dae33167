//! sPCA on the MapReduce engine (Section 4.1).
//!
//! Four job types, mirroring the paper's implementation:
//!
//! * `meanJob`, `FnormJob` — one-time lightweight jobs before the loop.
//! * `YtXJob` — the consolidated pass. Its mapper is a *stateful
//!   combiner*: per-partition `XtX-p`/`YtX-p` partials and the hoisted
//!   `Σx` are accumulated in mapper memory and emitted once at cleanup,
//!   so mapper output stays O(d² + z·d) per mapper instead of O(rows·d).
//!   A *composite key* routes all `XtX-p` partials to one reducer (they
//!   are d×d and tiny) while `YtX` rows spread across reducers by row
//!   index — exactly the paper's key design.
//! * `ss3Job` — emits a single scalar per mapper (the paper: "the mapper
//!   output of this job is a scalar, which reduces the amount of
//!   intermediate data").
//!
//! `fit_with_input` is the engine's one scaffold for both algorithm
//! families: it splits and seeds the input once, then builds the jobs of
//! the arm `config.algorithm` names — these, or the partition-keyed ones in
//! [`crate::rpca`] — and runs them under the shared pass loop
//! ([`crate::driver`]).

use dcluster::SimCluster;
use linalg::bytes::ByteSized;
use linalg::wire::{self, Wire, WireError, WireReader};
use linalg::{Mat, SparseMat};
use mapreduce::{Emitter, MapReduceEngine, MapReduceJob};

use crate::config::{Algorithm, SpcaConfig};
use crate::driver::run_passes;
use crate::em::{EmArm, EmJobs};
use crate::frobenius;
use crate::init;
use crate::mean_prop::{ss3_block_prec, ytx_counter_snapshot, YtxPartial};
use crate::model::SpcaRun;
use crate::rpca::{MrRpcaJobs, RpcaArm};
use crate::Result;

/// Composite shuffle key of the `YtXJob`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum MrKey {
    /// All `XtX-p` partials — routed to a single reducer.
    XtX,
    /// All hoisted `Σx` partials — single reducer.
    SumX,
    /// Row-count partials (sanity bookkeeping).
    Count,
    /// One key per touched `YtX` row — spreads across reducers.
    Row(u32),
}

impl ByteSized for MrKey {
    fn size_bytes(&self) -> u64 {
        match self {
            MrKey::Row(_) => 5,
            _ => 1,
        }
    }
}

/// Wire layout: one tag byte, plus a varint row index for [`MrKey::Row`].
impl Wire for MrKey {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            MrKey::XtX => out.push(0),
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
            0 => Ok(MrKey::XtX),
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
    type Input = SparseMat;
    type Key = ();
    type Value = Vec<f64>;
    type Output = Vec<f64>;

    fn map(&self, block: &SparseMat, emitter: &mut Emitter<(), Vec<f64>>) {
        emitter.emit((), block.col_sums());
    }

    fn reduce(&self, _key: (), values: Vec<Vec<f64>>) -> Vec<f64> {
        sum_vectors(values)
    }
}

/// `FnormJob`: Algorithm 3 partial per block.
struct FnormJob {
    mean: Vec<f64>,
    mean_norm_sq: f64,
}

impl MapReduceJob for FnormJob {
    type Input = SparseMat;
    type Key = ();
    type Value = f64;
    type Output = f64;

    fn map(&self, block: &SparseMat, emitter: &mut Emitter<(), f64>) {
        emitter.emit((), frobenius::centered_sq_block(block, &self.mean, self.mean_norm_sq));
    }

    fn reduce(&self, _key: (), values: Vec<f64>) -> f64 {
        values.iter().sum()
    }
}

/// The consolidated `YtXJob` with a stateful-combiner mapper.
struct YtXJob {
    cm: Mat,
    xm: Vec<f64>,
    d: usize,
    precision: linalg::Precision,
}

impl MapReduceJob for YtXJob {
    type Input = SparseMat;
    type Key = MrKey;
    type Value = Vec<f64>;
    type Output = Vec<f64>;

    fn map(&self, block: &SparseMat, emitter: &mut Emitter<MrKey, Vec<f64>>) {
        // Stateful combiner: fold the whole partition into in-memory
        // partials through the batched kernels (the block is already a
        // CSR matrix — no reassembly needed), emit once at "cleanup".
        let mut partial = YtxPartial::new(self.d);
        partial.add_block_prec(block, &self.cm, &self.xm, self.precision);
        emitter.emit(MrKey::XtX, partial.xtx.data().to_vec());
        emitter.emit(MrKey::SumX, partial.sum_x.clone());
        emitter.emit(MrKey::Count, vec![partial.rows_seen as f64]);
        for (c, row) in partial.ytx_iter() {
            emitter.emit(MrKey::Row(c), row.to_vec());
        }
    }

    fn reduce(&self, _key: MrKey, values: Vec<Vec<f64>>) -> Vec<f64> {
        sum_vectors(values)
    }
}

/// `ss3Job`: scalar mapper output.
struct Ss3Job {
    cm: Mat,
    xm: Vec<f64>,
    c_new: Mat,
    precision: linalg::Precision,
}

impl MapReduceJob for Ss3Job {
    type Input = SparseMat;
    type Key = ();
    type Value = f64;
    type Output = f64;

    fn map(&self, block: &SparseMat, emitter: &mut Emitter<(), f64>) {
        emitter.emit((), ss3_block_prec(block, &self.cm, &self.xm, &self.c_new, self.precision));
    }

    fn reduce(&self, _key: (), values: Vec<f64>) -> f64 {
        values.iter().sum()
    }
}

fn sum_vectors(mut values: Vec<Vec<f64>>) -> Vec<f64> {
    let mut acc = values.pop().expect("reducer gets at least one value");
    for v in values {
        linalg::vector::axpy(1.0, &v, &mut acc);
    }
    acc
}

struct MrJobs<'a> {
    engine: MapReduceEngine<'a>,
    blocks: Vec<SparseMat>,
    n: usize,
    d: usize,
    reducers: usize,
    precision: linalg::Precision,
}

impl EmJobs for MrJobs<'_> {
    fn mean_job(&mut self) -> Vec<f64> {
        let (out, _) = self.engine.run_job("meanJob", &MeanJob, &self.blocks, 1);
        let mut mean = out.into_iter().next().expect("meanJob output").1;
        linalg::vector::scale(1.0 / self.n as f64, &mut mean);
        mean
    }

    fn fnorm_job(&mut self, mean: &[f64]) -> f64 {
        let job =
            FnormJob { mean: mean.to_vec(), mean_norm_sq: linalg::vector::norm2_sq(mean) };
        let (out, _) = self.engine.run_job("FnormJob", &job, &self.blocks, 1);
        out.into_iter().next().expect("FnormJob output").1
    }

    fn ytx_job(&mut self, cm: &Mat, xm: &[f64]) -> YtxPartial {
        // Distributed-cache shipment of the broadcast matrices (CM, Xm),
        // priced under the cluster's sizing policy.
        let cluster = self.engine.cluster();
        cluster.charge_broadcast(cluster.wire_size(cm) + cluster.sizing().f64_payload(xm.len()));
        let job =
            YtXJob { cm: cm.clone(), xm: xm.to_vec(), d: self.d, precision: self.precision };
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
                MrKey::XtX => partial.xtx = Mat::from_vec(self.d, self.d, value),
                MrKey::SumX => partial.sum_x = value,
                MrKey::Count => partial.rows_seen = value[0] as u64,
                // Reduced keys arrive in ascending MrKey order, so the
                // packed insert is an append each time.
                MrKey::Row(c) => partial.set_ytx_row(c, &value),
            }
        }
        partial
    }

    fn ss3_job(&mut self, cm: &Mat, xm: &[f64], c_new: &Mat) -> f64 {
        // ss3Job re-ships CM/Xm plus the updated C (each MR job re-reads
        // its distributed cache; nothing persists across jobs).
        let cluster = self.engine.cluster();
        cluster.charge_broadcast(
            cluster.wire_size(cm)
                + cluster.sizing().f64_payload(xm.len())
                + cluster.wire_size(c_new),
        );
        let job = Ss3Job {
            cm: cm.clone(),
            xm: xm.to_vec(),
            c_new: c_new.clone(),
            precision: self.precision,
        };
        let (out, _) = self.engine.run_job("ss3Job", &job, &self.blocks, 1);
        out.into_iter().next().expect("ss3Job output").1
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
    crate::label_trace(cluster, config, "MR");
    cluster.set_job_scope(config.job_id.as_deref());
    let partitions = config
        .partitions
        .unwrap_or_else(|| cluster.config().total_cores())
        .min(y.rows().max(1));
    let blocks = y.split_rows(partitions);

    // HDFS-materialized input: MapReduce recovery re-reads failed tasks'
    // splits from here (sized per task by the engine), and node crashes
    // re-replicate it like any other file — sized at its encoded CSR
    // length under the default policy, so re-reads match the real file.
    cluster.dfs().seed(cluster, input_file, cluster.wire_size(y));

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
            let mut jobs = MrJobs {
                engine,
                blocks,
                n,
                d: config.components,
                reducers,
                precision: config.precision,
            };
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
        let mut keys = vec![MrKey::Row(7), MrKey::SumX, MrKey::Row(0), MrKey::XtX, MrKey::Count];
        keys.sort();
        assert_eq!(
            keys,
            vec![MrKey::XtX, MrKey::SumX, MrKey::Count, MrKey::Row(0), MrKey::Row(7)]
        );
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
