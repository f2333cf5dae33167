//! The traced run: one operation's worth of each layer's work, done by
//! the harness itself through the layer's public functions and timed
//! under the harness's own spans.
//!
//! The replay runs on the workload's own row blocks, shapes, partition
//! count and cluster config, with the warm model the timed operations
//! produced, so each layer does the arithmetic (or moves the bytes, or
//! simulates the flows) it does inside a real operation — but alone, so
//! its time can be named. Layers are module names. What the replay cannot
//! see (the engines' row copies into `SpRow`s, the driver's partial
//! folds, allocation) is exactly what `bench.replay_cover_share` leaves
//! uncovered.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

use dcluster::netsim::{simulate, FlowSpec};
use dcluster::{
    schedule_jobs, ClusterConfig, EventQueue, JobSpec, SimCluster, StageOptions, Topology,
};
use linalg::bytes::ByteSized;
use linalg::decomp::cholesky::solve_spd_right;
use linalg::decomp::lu::Lu;
use linalg::decomp::{orthonormal_columns, top_singular_triplets};
use linalg::wire::{WireError, WireReader};
use linalg::{kernels, Mat, Prng, SparseMat, Wire, WireCodec};
use mapreduce::{Emitter, MapReduceEngine, MapReduceJob};
use sparkle::SparkleContext;
use spca_core::mean_prop::{latent_row, ss3_block, YtxPartial};
use spca_core::serving::{ServeSpec, ServingOutcome};
use spca_core::spark::{to_rows, SpRow};
use spca_core::{frobenius, Algorithm, PcaModel, SpcaConfig, SpcaRun};

use crate::spans::Recorder;
use crate::workloads::{Detail, Engine, Inputs, Outcome};

/// Layer metric values by name (only the replay's own; meters are added
/// by the caller).
pub type Values = BTreeMap<&'static str, f64>;

/// Self time per layer, seconds: a layer's probe minus the probes of what
/// it calls into (`core.mean_prop` minus the kernels, an engine minus the
/// `dcluster` work it drove). Their sum over `host_s` is
/// `bench.replay_cover_share`.
pub type SelfTimes = Vec<(&'static str, f64)>;

/// An accumulator that carries no payload, only the wire size the real
/// partial would have — what lets the engine probes move realistic
/// byte counts through the simulator without doing any arithmetic.
#[derive(Debug, Clone, Copy, Default)]
struct Declared(u64);

impl ByteSized for Declared {
    fn size_bytes(&self) -> u64 {
        self.0
    }
}

impl Wire for Declared {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.resize(out.len() + self.0 as usize, 0);
    }
    fn encoded_size(&self) -> u64 {
        self.0
    }
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.remaining();
        r.take(n)?;
        Ok(Declared(n as u64))
    }
}

/// One distributed stage of an operation, as the engine probes see it.
struct Stage {
    label: &'static str,
    /// Bytes broadcast to every node before the stage (0 = none).
    broadcast_bytes: u64,
    /// Wire size of partition `p`'s accumulator.
    partial_sizes: Arc<Vec<u64>>,
    /// MapReduce view: `(key, value bytes)` records mapper `p` emits.
    emits: Arc<Vec<Vec<(u32, u64)>>>,
    reducers: usize,
}

impl Stage {
    /// A stage whose every task ships one `bytes`-sized value.
    fn uniform(label: &'static str, parts: usize, bytes: u64) -> Stage {
        Stage {
            label,
            broadcast_bytes: 0,
            partial_sizes: Arc::new(vec![bytes; parts]),
            emits: Arc::new(vec![vec![(0, bytes)]; parts]),
            reducers: 1,
        }
    }
}

/// The per-operation traffic the engine and simulator probes reproduce.
struct Traffic {
    stages: Vec<Stage>,
    /// `SimCluster::run_driver` calls per operation.
    driver_calls: usize,
}

/// One fit workload as the layer replays see it.
struct Fit<'a> {
    y: &'a SparseMat,
    /// `y.split_rows(partitions)`: what the tasks of every stage hold.
    blocks: &'a [SparseMat],
    config: &'a SpcaConfig,
    cfg: &'a ClusterConfig,
    engine: Engine,
    /// The warm model the timed operations produced.
    model: &'a PcaModel,
    passes: usize,
}

fn encode_under<T: Wire>(codec: WireCodec, v: &T) -> Vec<u8> {
    match codec {
        WireCodec::V2 => v.encode(),
        WireCodec::V3 => v.encode_v3(false),
        WireCodec::V3Quantized => v.encode_v3(true),
    }
}

fn decode_under<T: Wire>(codec: WireCodec, buf: &[u8]) -> Result<T, WireError> {
    match codec {
        WireCodec::V2 => T::decode(buf),
        WireCodec::V3 | WireCodec::V3Quantized => T::decode_v3(buf),
    }
}

/// `linalg.wire` over one operation's items: the input blocks once
/// (exact v2, like every persisted partition), then once per pass the
/// shuffle-family partials under the cluster's codec and the broadcast
/// matrix (exact v2). Each listed partial stands for `partial_reps`
/// partitions that ship one of its shape.
fn replay_wire<P: Wire>(
    rec: &mut Recorder,
    fit: &Fit<'_>,
    partials: &[P],
    partial_reps: usize,
    broadcast: &Mat,
    out: &mut Values,
) {
    let (blocks, passes) = (fit.blocks, fit.passes);
    let (sizing, codec) = (fit.cfg.byte_sizing, fit.cfg.wire_codec);
    let (mut bytes, mut size_s, mut encode_s, mut decode_s) = (0u64, 0.0, 0.0, 0.0);
    rec.scope("linalg.wire", |rec| {
        size_s += rec
            .scope("encoded_size", |_| {
                bytes += blocks.iter().map(|b| sizing.size_of(b)).sum::<u64>();
                for _ in 0..passes {
                    for _ in 0..partial_reps {
                        bytes += partials
                            .iter()
                            .map(|p| codec.shuffle_size_of(sizing, p))
                            .sum::<u64>();
                    }
                    bytes += sizing.size_of(broadcast);
                }
            })
            .1;
        let (block_bufs, t) = rec.scope("encode", |_| -> Vec<Vec<u8>> {
            blocks.iter().map(Wire::encode).collect()
        });
        encode_s += t;
        decode_s += rec
            .scope("decode", |_| {
                for buf in &block_bufs {
                    black_box(SparseMat::decode(buf).expect("block round-trips"));
                }
            })
            .1;
        drop(block_bufs);
        for _ in 0..passes {
            for rep in 0..partial_reps {
                let (bufs, t) = rec.scope("encode", |_| -> Vec<Vec<u8>> {
                    partials.iter().map(|p| encode_under(codec, p)).collect()
                });
                encode_s += t;
                decode_s += rec
                    .scope("decode", |_| {
                        for buf in &bufs {
                            black_box(decode_under::<P>(codec, buf).expect("partial round-trips"));
                        }
                    })
                    .1;
                if rep == 0 {
                    let (buf, t) = rec.scope("encode", |_| broadcast.encode());
                    encode_s += t;
                    let dec = rec.scope("decode", |_| {
                        black_box(Mat::decode(&buf).expect("broadcast round-trips"));
                    });
                    decode_s += dec.1;
                }
            }
        }
    });
    out.insert("linalg.wire.size_s", size_s);
    out.insert("linalg.wire.encode_s", encode_s);
    out.insert("linalg.wire.decode_s", decode_s);
    out.insert("linalg.wire.bytes", bytes as f64);
}

/// Layers of one EM operation: bare kernels, the `mean_prop` fold around
/// them, the codec, and the driver algebra. Returns the traffic the
/// engine probes replay.
fn em_layers(rec: &mut Recorder, fit: &Fit<'_>, out: &mut Values) -> Result<Traffic, String> {
    let Fit {
        y,
        blocks,
        config,
        cfg,
        engine,
        model,
        passes,
    } = *fit;
    let d = config.components;
    let (n, d_in) = (y.rows(), y.cols());
    let mean = model.mean();
    let c = model.components();
    let ss = model.noise_variance();
    let cm = model.latent_projection().map_err(|e| e.to_string())?;
    let xm = cm.vecmat(mean);
    let mean_norm_sq = linalg::vector::norm2_sq(mean);

    // Column → slab-row tables `spmm_tn_packed` scatters through, one per
    // block, built the way `add_block` builds them (outside the timed
    // kernels: it is `mean_prop`'s work, not the kernel's).
    let maps: Vec<(Vec<u32>, usize)> = blocks
        .iter()
        .map(|b| {
            let mut map = vec![u32::MAX; d_in];
            for &col in b.col_indices() {
                map[col as usize] = 0;
            }
            let mut touched = 0u32;
            for slot in map.iter_mut().filter(|s| **s == 0) {
                *slot = touched;
                touched += 1;
            }
            (map, touched as usize)
        })
        .collect();

    // -- linalg.kernels: the five kernel calls per block per iteration.
    let mut flops = 0u64;
    let ((), kernels_s) = rec.scope("linalg.kernels", |rec| {
        for _ in 0..passes {
            let (xs, _) = rec.scope("sparse_mul_dense", |_| -> Vec<Mat> {
                for b in blocks {
                    black_box(kernels::sparse_mul_dense(b, &cm));
                    black_box(kernels::sparse_mul_dense(b, c));
                }
                blocks
                    .iter()
                    .map(|b| kernels::sparse_mul_dense(b, &cm))
                    .collect()
            });
            rec.scope("syrk_tn", |_| {
                for x in &xs {
                    black_box(kernels::syrk_tn(x));
                }
            });
            rec.scope("spmm_tn", |_| {
                for ((b, x), (map, touched)) in blocks.iter().zip(&xs).zip(&maps) {
                    let mut slab = vec![0.0; touched * d];
                    kernels::spmm_tn_packed(b, x, map, &mut slab);
                    black_box(slab);
                }
            });
        }
    });
    for b in blocks {
        // 3 × 2·z·d (Y·B) + n·d·(d+1) (Gram) + 2·z·d (scatter), per pass.
        flops += (passes * (8 * b.nnz() * d + b.rows() * d * (d + 1))) as u64;
    }
    out.insert("linalg.kernels.busy_s", kernels_s);
    out.insert("linalg.kernels.flops", flops as f64);
    out.insert("linalg.kernels.gflops", flops as f64 / kernels_s / 1e9);

    // -- core.mean_prop: the per-partition fold and the driver assembly.
    let mut partials: Vec<YtxPartial> = Vec::new();
    let mut merged = YtxPartial::new(d);
    let mut ytx = Mat::zeros(d_in, d);
    let ((), mean_prop_s) = rec.scope("core.mean_prop", |rec| {
        rec.scope("centered_sq_block", |_| {
            for b in blocks {
                black_box(frobenius::centered_sq_block(b, mean, mean_norm_sq));
            }
        });
        for pass in 0..passes {
            let (fresh, _) = rec.scope("add_block", |_| -> Vec<YtxPartial> {
                blocks
                    .iter()
                    .map(|b| {
                        let mut p = YtxPartial::new(d);
                        p.add_block(b, &cm, &xm);
                        p
                    })
                    .collect()
            });
            if pass == 0 {
                partials = fresh.clone();
            }
            merged = rec
                .scope("merge", |_| {
                    let mut acc = YtxPartial::new(d);
                    for p in fresh {
                        acc.merge(p);
                    }
                    acc
                })
                .0;
            ytx = rec.scope("finalize_ytx", |_| merged.finalize_ytx(mean)).0;
            rec.scope("ss3_block", |_| {
                for b in blocks {
                    black_box(ss3_block(b, &cm, &xm, c));
                }
            });
        }
    });
    out.insert("core.mean_prop.busy_s", mean_prop_s);
    out.insert("core.mean_prop.self_s", (mean_prop_s - kernels_s).max(0.0));

    replay_wire(rec, fit, &partials, 1, &cm, out);

    // -- linalg.decomp: the EM driver update at workload shapes.
    let (solved, decomp_s) = rec.scope("linalg.decomp", |rec| -> linalg::Result<()> {
        for _ in 0..passes {
            rec.scope("em_driver_update", |_| -> linalg::Result<()> {
                let mut m = c.matmul_tn(c);
                m.add_diag(ss);
                let m_inv = Lu::new(&m)?.inverse();
                black_box(c.matmul(&m_inv));
                let mut xtx = merged.xtx.clone();
                xtx.add_scaled(n as f64 * ss, &m_inv);
                black_box(solve_spd_right(&xtx, &ytx)?);
                Ok(())
            })
            .0?;
        }
        Ok(())
    });
    solved.map_err(|e| format!("decomp replay: {e}"))?;
    out.insert("linalg.decomp.busy_s", decomp_s);

    // -- The stages of one operation, for the engine probes.
    let parts = blocks.len();
    let (sizing, codec) = (cfg.byte_sizing, cfg.wire_codec);
    let vec_bytes = |len: usize| sizing.f64_payload(len);
    let partial_sizes: Arc<Vec<u64>> = Arc::new(
        partials
            .iter()
            .map(|p| codec.shuffle_size_of(sizing, p))
            .collect(),
    );
    let emits: Arc<Vec<Vec<(u32, u64)>>> = Arc::new(
        partials
            .iter()
            .map(|p| {
                let mut records = vec![(0, vec_bytes(d * d)), (1, vec_bytes(d)), (2, vec_bytes(1))];
                records.extend(p.ytx_iter().map(|(col, _)| (3 + col, vec_bytes(d))));
                records
            })
            .collect(),
    );
    let cm_bytes = sizing.size_of(&cm) + vec_bytes(d);
    let c_bytes = sizing.size_of(c);
    let mut stages = vec![
        Stage::uniform("meanJob", parts, vec_bytes(d_in)),
        Stage::uniform("FnormJob", parts, 8),
    ];
    for _ in 0..passes {
        stages.push(Stage {
            label: "YtXJob",
            broadcast_bytes: cm_bytes,
            partial_sizes: Arc::clone(&partial_sizes),
            emits: Arc::clone(&emits),
            reducers: cfg.nodes,
        });
        // Spark keeps CM resident and ships only the new C; every
        // MapReduce job re-reads its whole distributed cache.
        let ss3_broadcast = match engine {
            Engine::Spark => c_bytes,
            Engine::MapReduce => cm_bytes + c_bytes,
        };
        stages.push(Stage {
            broadcast_bytes: ss3_broadcast,
            ..Stage::uniform("ss3Job", parts, 8)
        });
    }
    Ok(Traffic {
        stages,
        driver_calls: 0,
    })
}

/// Layers of one randomized-PCA operation.
fn rpca_layers(rec: &mut Recorder, fit: &Fit<'_>, out: &mut Values) -> Result<Traffic, String> {
    let Fit {
        y,
        blocks,
        config,
        cfg,
        model,
        passes,
        ..
    } = *fit;
    let d = config.components;
    let k = d + config.rpca_oversample;
    let d_in = y.cols();
    let mean = model.mean();
    let mean_norm_sq = linalg::vector::norm2_sq(mean);
    // A basis of the workload's shape: orthonormal D×K, like every pass
    // after the first sees.
    let w = orthonormal_columns(&Prng::seed_from_u64(config.seed).normal_mat(d_in, k));
    let shift = w.vecmat(mean);

    // Z = Σ_p Y_pᵀ(Y_p·W), one untimed pass: the sketch the decomposition
    // replay factors, and (the last block's term) a pass partial of the
    // real shape for the codec and engine replays.
    let mut z = Mat::zeros(d_in, k);
    let mut partial: Option<(Mat, Vec<f64>)> = None;
    for b in blocks {
        let zraw = kernels::spmm_tn(b, &kernels::sparse_mul_dense(b, &w));
        z.add_assign(&zraw);
        partial = Some((zraw, shift.clone()));
    }
    let partial = partial.ok_or("rpca replay needs at least one block")?;

    // -- linalg.kernels: Y_p·W and Y_pᵀ·P_p per block per pass.
    let ((), kernels_s) = rec.scope("linalg.kernels", |rec| {
        for _ in 0..passes {
            let (ps, _) = rec.scope("sparse_mul_dense", |_| -> Vec<Mat> {
                blocks
                    .iter()
                    .map(|b| kernels::sparse_mul_dense(b, &w))
                    .collect()
            });
            rec.scope("spmm_tn", |_| {
                for (b, p) in blocks.iter().zip(&ps) {
                    black_box(kernels::spmm_tn(b, p));
                }
            });
        }
    });
    let flops: u64 = blocks
        .iter()
        .map(|b| (passes * 4 * b.nnz() * k) as u64)
        .sum();
    out.insert("linalg.kernels.busy_s", kernels_s);
    out.insert("linalg.kernels.flops", flops as f64);
    out.insert("linalg.kernels.gflops", flops as f64 / kernels_s / 1e9);

    // -- core.mean_prop: the randomized arm uses none of the EM fold; the
    // one public per-partition function it shares is Algorithm 3.
    let ((), mean_prop_s) = rec.scope("core.mean_prop", |rec| {
        rec.scope("centered_sq_block", |_| {
            for b in blocks {
                black_box(frobenius::centered_sq_block(b, mean, mean_norm_sq));
            }
        });
    });
    out.insert("core.mean_prop.busy_s", mean_prop_s);
    out.insert("core.mean_prop.self_s", mean_prop_s);

    // Every partition's pass partial is a dense D×K matrix plus a
    // K-vector: one stands for all (same shape, same encoded size).
    replay_wire(
        rec,
        fit,
        std::slice::from_ref(&partial),
        blocks.len(),
        &w,
        out,
    );

    // -- linalg.decomp: model recovery and re-orthonormalization of Z.
    let (recovered, decomp_s) = rec.scope("linalg.decomp", |rec| -> linalg::Result<()> {
        for _ in 0..passes {
            black_box(
                rec.scope("top_singular_triplets", |_| top_singular_triplets(&z, d))
                    .0?,
            );
            rec.scope("orthonormal_columns", |_| {
                black_box(orthonormal_columns(&z))
            });
        }
        Ok(())
    });
    recovered.map_err(|e| format!("decomp replay: {e}"))?;
    out.insert("linalg.decomp.busy_s", decomp_s);

    let parts = blocks.len();
    let (sizing, codec) = (cfg.byte_sizing, cfg.wire_codec);
    let mut stages = vec![
        Stage::uniform("rpca/colsumJob", parts, sizing.f64_payload(d_in)),
        Stage::uniform("rpca/FnormJob", parts, 8),
    ];
    for _ in 0..passes {
        stages.push(Stage {
            broadcast_bytes: sizing.size_of(&w) + sizing.f64_payload(k),
            ..Stage::uniform("rpca/pass", parts, codec.shuffle_size_of(sizing, &partial))
        });
    }
    // `rpca/recover` and `rpca/orthonormalize` per pass.
    Ok(Traffic {
        stages,
        driver_calls: 2 * passes,
    })
}

/// `sparkle.engine_s`: build and persist the input RDD, then one
/// `aggregate_partitions` per stage whose fold only declares the size
/// the real accumulator would have.
fn replay_sparkle(
    rec: &mut Recorder,
    cfg: &ClusterConfig,
    blocks: &[SparseMat],
    traffic: &Traffic,
) -> f64 {
    let cluster = SimCluster::new(cfg.clone());
    let ctx = SparkleContext::new(&cluster);
    let rows: Vec<Vec<(u32, SpRow)>> = blocks
        .iter()
        .enumerate()
        .map(|(p, b)| to_rows(b).into_iter().map(|r| (p as u32, r)).collect())
        .collect();
    rec.scope("sparkle.engine", |rec| {
        let (rdd, _) = rec.scope("from_partitions+persist", |_| {
            let mut rdd = ctx.from_partitions(rows);
            rdd.persist();
            rdd
        });
        for stage in &traffic.stages {
            let sizes = &stage.partial_sizes;
            rec.scope("aggregate_partitions", |_| {
                if stage.broadcast_bytes > 0 {
                    cluster.charge_broadcast(stage.broadcast_bytes);
                }
                rdd.aggregate_partitions(
                    stage.label,
                    Declared::default,
                    |acc, part| acc.0 = part.first().map_or(0, |(p, _)| sizes[*p as usize]),
                    |acc, other| acc.0 = acc.0.max(other.0),
                )
            });
        }
    })
    .1
}

/// Mapper that does no arithmetic: emits the records the real job's
/// mapper would, at their real sizes.
struct PassThrough {
    emits: Arc<Vec<Vec<(u32, u64)>>>,
}

impl MapReduceJob for PassThrough {
    type Input = (u32, SparseMat);
    type Key = u32;
    type Value = Declared;
    type Output = ();

    fn map(&self, split: &(u32, SparseMat), emitter: &mut Emitter<'_, u32, Declared>) {
        for &(key, bytes) in &self.emits[split.0 as usize] {
            emitter.emit(key, Declared(bytes));
        }
    }

    fn reduce(&self, _key: u32, _values: Vec<Declared>) {}
}

/// `mapreduce.engine_s` and `dcluster.hdfs.io_s`: one pass-through
/// `run_job` per stage over the same splits, and the blocks written to
/// and read back from the DFS as real blobs.
fn replay_mapreduce(
    rec: &mut Recorder,
    cfg: &ClusterConfig,
    blocks: &[SparseMat],
    traffic: &Traffic,
) -> (f64, f64) {
    let cluster = SimCluster::new(cfg.clone());
    let engine = MapReduceEngine::new(&cluster);
    let splits: Vec<(u32, SparseMat)> = blocks
        .iter()
        .enumerate()
        .map(|(p, b)| (p as u32, b.clone()))
        .collect();
    let ((), engine_s) = rec.scope("mapreduce.engine", |rec| {
        for stage in &traffic.stages {
            rec.scope("run_job", |_| {
                if stage.broadcast_bytes > 0 {
                    cluster.charge_broadcast(stage.broadcast_bytes);
                }
                let job = PassThrough {
                    emits: Arc::clone(&stage.emits),
                };
                black_box(engine.run_job(stage.label, &job, &splits, stage.reducers));
            });
        }
    });
    let blobs: Vec<Vec<u8>> = blocks.iter().map(Wire::encode).collect();
    let cluster = SimCluster::new(cfg.clone());
    let ((), io_s) = rec.scope("dcluster.hdfs", |rec| {
        rec.scope("put_blob", |_| {
            for (p, blob) in blobs.into_iter().enumerate() {
                cluster
                    .dfs()
                    .put_blob(&cluster, format!("replay/split-{p}"), blob);
            }
        });
        rec.scope("get_blob", |_| {
            for p in 0..blocks.len() {
                black_box(
                    cluster
                        .dfs()
                        .get_blob(&cluster, &format!("replay/split-{p}"))
                        .ok(),
                );
            }
        });
    });
    (engine_s, io_s)
}

/// One `run_stage` over `tasks` tasks that do nothing.
fn noop_stage(cluster: &SimCluster, label: &str, tasks: usize, overhead_secs: f64) {
    let tasks: Vec<_> = (0..tasks).map(|p| move || black_box(p)).collect();
    let opts = StageOptions::new(label).with_task_overhead(overhead_secs);
    black_box(cluster.run_stage(opts, tasks));
}

/// `dcluster.stage.dispatch_s`: every stage of the operation as
/// `run_stage` over no-op tasks, plus its no-op `run_driver` calls.
fn replay_dispatch(
    rec: &mut Recorder,
    cfg: &ClusterConfig,
    parts: usize,
    engine: Engine,
    traffic: &Traffic,
) -> f64 {
    let cluster = SimCluster::new(cfg.clone());
    // Spark tasks launch in milliseconds, Hadoop slots in seconds; a
    // MapReduce job is a map stage and a reduce stage.
    let (overhead, stages_per_job) = match engine {
        Engine::Spark => (0.005, 1),
        Engine::MapReduce => (1.0, 2),
    };
    rec.scope("dcluster.stage", |rec| {
        rec.scope("run_stage", |_| {
            for stage in &traffic.stages {
                for _ in 0..stages_per_job {
                    noop_stage(&cluster, stage.label, parts, overhead);
                }
            }
        });
        rec.scope("run_driver", |_| {
            for _ in 0..traffic.driver_calls {
                cluster.run_driver("noop", || black_box(0));
            }
        });
    })
    .1
}

/// `dcluster.netsim.solve_s`: the shared-bandwidth simulation of every
/// flow set one operation charges — a per-node broadcast fan-out and one
/// flow per partition accumulator per stage — at the workload's node
/// count. Zero under uncontended timing, where the program never calls
/// the simulator. Returns the seconds and the events simulated.
fn replay_netsim(rec: &mut Recorder, cfg: &ClusterConfig, traffic: &Traffic) -> (f64, u64) {
    if cfg.timing != dcluster::TimingModel::Contended {
        return (0.0, 0);
    }
    let topo = Topology::new(cfg.nodes, cfg.network_bytes_per_sec, cfg.disk_bytes_per_sec);
    let mut events = 0;
    let ((), solve_s) = rec.scope("dcluster.netsim", |rec| {
        for stage in &traffic.stages {
            rec.scope("simulate", |_| {
                if stage.broadcast_bytes > 0 {
                    let flows: Vec<FlowSpec> = (0..cfg.nodes)
                        .map(|n| {
                            FlowSpec::new(stage.broadcast_bytes, [topo.downlink(n), topo.fabric()])
                        })
                        .collect();
                    events += simulate(&topo, &flows, &[], cfg.event_queue_capacity).events;
                }
                let flows: Vec<FlowSpec> = stage
                    .partial_sizes
                    .iter()
                    .enumerate()
                    .filter(|(_, &bytes)| bytes > 0)
                    .map(|(p, &bytes)| {
                        FlowSpec::new(bytes, [topo.downlink(p % cfg.nodes), topo.fabric()])
                    })
                    .collect();
                events += simulate(&topo, &flows, &[], cfg.event_queue_capacity).events;
            });
        }
    });
    (solve_s, events)
}

/// `dcluster.events.queue_events_per_host_s`: a push/pop/cancel storm
/// through the bare event queue (the `bench_scale` queue storm at a
/// quarter of a million events). The same on every workload: it is the
/// ceiling the simulator's event rate is read against.
fn replay_queue_storm(rec: &mut Recorder) -> f64 {
    const BATCH: usize = 1024;
    const BATCHES: usize = 256;
    let mut q: EventQueue<u64> = EventQueue::with_capacity(BATCH * BATCHES);
    let mut rng = Prng::seed_from_u64(0x5ca1e);
    let mut cancel_pool: Vec<u64> = Vec::with_capacity(BATCH);
    let ((), secs) = rec.scope("dcluster.events", |rec| {
        rec.scope("queue_storm", |_| {
            for b in 0..BATCHES {
                let base = (b as u64) * 1_000;
                for i in 0..BATCH {
                    let seq = q.push(base + rng.index(997) as u64, (b * BATCH + i) as u64);
                    if i % 16 == 0 {
                        cancel_pool.push(seq);
                    }
                }
                if b % 2 == 1 {
                    for seq in cancel_pool.drain(..) {
                        q.cancel(seq);
                    }
                }
                for _ in 0..BATCH / 2 {
                    if q.pop().is_none() {
                        break;
                    }
                }
            }
            while q.pop().is_some() {}
        });
    });
    q.processed() as f64 / secs
}

fn replay_fit(
    rec: &mut Recorder,
    y: &SparseMat,
    config: &SpcaConfig,
    cfg: &ClusterConfig,
    engine: Engine,
    run: &SpcaRun,
    out: &mut Values,
) -> Result<SelfTimes, String> {
    let parts = config
        .partitions
        .unwrap_or_else(|| cfg.total_cores())
        .min(y.rows().max(1));
    let blocks = y.split_rows(parts);
    let fit = Fit {
        y,
        blocks: &blocks,
        config,
        cfg,
        engine,
        model: &run.model,
        passes: run.iterations.len(),
    };
    let traffic = match config.algorithm {
        Algorithm::PpcaEm => em_layers(rec, &fit, out)?,
        Algorithm::Randomized => rpca_layers(rec, &fit, out)?,
    };
    let dispatch_s = replay_dispatch(rec, cfg, parts, engine, &traffic);
    let (solve_s, _) = replay_netsim(rec, cfg, &traffic);
    out.insert("dcluster.stage.dispatch_s", dispatch_s);
    out.insert("dcluster.netsim.solve_s", solve_s);
    // An engine's self time is its probe minus the dcluster work the
    // probe drove (measured alone just above).
    let (engine_layer, engine_s) = match engine {
        Engine::Spark => {
            let engine_s = replay_sparkle(rec, cfg, &blocks, &traffic);
            out.insert("sparkle.engine_s", engine_s);
            ("sparkle", engine_s)
        }
        Engine::MapReduce => {
            let (engine_s, io_s) = replay_mapreduce(rec, cfg, &blocks, &traffic);
            out.insert("mapreduce.engine_s", engine_s);
            out.insert("dcluster.hdfs.io_s", io_s);
            ("mapreduce", engine_s)
        }
    };
    Ok(vec![
        ("linalg.kernels", out["linalg.kernels.busy_s"]),
        ("core.mean_prop", out["core.mean_prop.self_s"]),
        ("linalg.wire", out["linalg.wire.size_s"]),
        ("linalg.decomp", out["linalg.decomp.busy_s"]),
        (engine_layer, (engine_s - dispatch_s - solve_s).max(0.0)),
        ("dcluster.stage", dispatch_s),
        ("dcluster.netsim", solve_s),
    ])
}

fn replay_serve(
    rec: &mut Recorder,
    spec: &ServeSpec,
    cfg: &ClusterConfig,
    served: &ServingOutcome,
    stage_tasks: &[usize],
    out: &mut Values,
) -> Result<SelfTimes, String> {
    // -- dcluster.jobs: the mix's job list through the scheduler again.
    let jobs: Vec<JobSpec> = served
        .schedule
        .records
        .iter()
        .map(|r| JobSpec {
            id: r.id.clone(),
            tenant: r.tenant,
            submit_secs: r.submit_secs,
            cores: r.cores,
            runtime_secs: r.run_secs(),
        })
        .collect();
    let ((), schedule_s) = rec.scope("dcluster.jobs", |rec| {
        rec.scope("schedule_jobs", |_| {
            black_box(schedule_jobs(
                &jobs,
                &cfg.fair_share_weights,
                cfg.total_cores(),
                cfg.scheduler,
                cfg.admission_queue_capacity,
            ));
        });
    });
    out.insert("dcluster.jobs.schedule_s", schedule_s);

    // -- core.serving: every request row through `latent_row`, in the
    // rotating-window order the serving loop draws them.
    let mut projections = Vec::new();
    for (tenant, model) in spec.tenants.iter().zip(&served.models) {
        if let (Some(serve), Some(model)) = (&tenant.serve, model) {
            let cm = model.latent_projection().map_err(|e| e.to_string())?;
            let xm = cm.vecmat(model.mean());
            projections.push((serve, cm, xm));
        }
    }
    let ((), transform_s) = rec.scope("core.serving", |rec| {
        for (serve, cm, xm) in &projections {
            rec.scope("latent_row", |_| {
                let pool_rows = serve.pool.rows();
                for k in 0..serve.batches {
                    let start = (k * serve.batch_rows) % pool_rows;
                    for i in 0..serve.batch_rows {
                        black_box(latent_row(serve.pool.row((start + i) % pool_rows), cm, xm));
                    }
                }
            });
        }
    });
    out.insert("core.serving.transform_s", transform_s);

    // -- dcluster.stage: the tenants' fits spread every stage over the
    // whole 1 024-core cluster; the same stages again with no-op tasks.
    let cluster = SimCluster::new(cfg.clone());
    let ((), dispatch_s) = rec.scope("dcluster.stage", |rec| {
        rec.scope("run_stage", |_| {
            for &tasks in stage_tasks {
                noop_stage(&cluster, "fit-stage", tasks, 0.005);
            }
        });
    });
    out.insert("dcluster.stage.dispatch_s", dispatch_s);
    Ok(vec![
        ("dcluster.jobs", schedule_s),
        ("core.serving", transform_s),
        ("dcluster.stage", dispatch_s),
    ])
}

/// Runs the whole replay for one workload under `rec` and returns the
/// replay-derived layer values and the layers' self times.
pub fn replay(
    rec: &mut Recorder,
    workload: &'static str,
    inputs: &Inputs,
    last: &Outcome,
) -> Result<(Values, SelfTimes), String> {
    let mut out = Values::new();
    let (self_times, _) = rec.scope(workload, |rec| {
        rec.scope("replay", |rec| {
            let self_times = match (inputs, &last.detail) {
                (
                    Inputs::Fit {
                        y,
                        config,
                        cluster,
                        engine,
                        ..
                    },
                    Detail::Fit(run),
                ) => replay_fit(rec, y, config, cluster, *engine, run, &mut out),
                (Inputs::Serve { spec, cluster, .. }, Detail::Serve(served)) => replay_serve(
                    rec,
                    spec,
                    cluster,
                    served,
                    &last.meters.stage_tasks,
                    &mut out,
                ),
                _ => Err("inputs and outcome are of different workloads".to_string()),
            };
            out.insert(
                "dcluster.events.queue_events_per_host_s",
                replay_queue_storm(rec),
            );
            self_times
        })
        .0
    });
    Ok((out, self_times?))
}
