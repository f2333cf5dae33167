//! `Rdd::collect_each`: a streaming `map_partitions(..).collect()` that
//! hands partitions over while the stage runs, charged like the collect.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dcluster::{ClusterConfig, SimCluster, TimingModel};
use linalg::WorkerPool;
use sparkle::SparkleContext;

#[test]
fn partitions_reach_the_sink_while_the_stage_runs() {
    // Task i ≥ 4 cannot finish until partition i − 4 has been delivered: a
    // collect that hands partitions over only after the whole stage times
    // out here.
    const PARTS: usize = 24;
    const LAG: usize = 4;
    const TIMEOUT: Duration = Duration::from_secs(20);
    for workers in [1, 2, 8] {
        let c = SimCluster::new_with_pool(
            ClusterConfig::scaled_cluster(),
            Arc::new(WorkerPool::new(workers)),
        );
        let ctx = SparkleContext::new(&c);
        let rdd = ctx.parallelize((0..PARTS as u64).collect(), PARTS);
        let delivered = AtomicUsize::new(0);
        let delivered = &delivered;
        let mut seen = Vec::new();
        rdd.collect_each(
            "lagged",
            |part: &[u64]| {
                let i = part[0] as usize;
                if i >= LAG {
                    let start = Instant::now();
                    while delivered.load(Ordering::SeqCst) <= i - LAG {
                        assert!(
                            start.elapsed() < TIMEOUT,
                            "task {i} waited {TIMEOUT:?} for partition {} ({workers} workers)",
                            i - LAG
                        );
                        thread::sleep(Duration::from_micros(50));
                    }
                }
                vec![part[0] * 3]
            },
            |v| {
                seen.push(v);
                delivered.fetch_add(1, Ordering::SeqCst);
            },
        );
        assert_eq!(
            seen,
            (0..PARTS as u64).map(|v| v * 3).collect::<Vec<_>>(),
            "{workers} workers"
        );
    }
}

#[test]
fn charges_and_records_exactly_what_map_partitions_then_collect_does() {
    for timing in [TimingModel::Uncontended, TimingModel::Contended] {
        let run = |streamed: bool| {
            let c = SimCluster::new(ClusterConfig::scaled_cluster().with_timing(timing));
            let ctx = SparkleContext::new(&c).with_task_overhead(0.01);
            let rdd = ctx.parallelize((0..5_000u64).collect(), 7);
            let f = |part: &[u64]| part.iter().map(|x| x * x + 1).collect::<Vec<_>>();
            let out = if streamed {
                let mut out = Vec::new();
                rdd.collect_each("squares", f, |v| out.push(v));
                out
            } else {
                rdd.map_partitions("squares", f).collect()
            };
            let m = c.metrics();
            let stages: Vec<_> = m
                .stages
                .iter()
                .map(|s| (s.label.clone(), s.tasks))
                .collect();
            (
                out,
                stages,
                m.network_bytes,
                m.intermediate_bytes,
                m.virtual_time_secs,
            )
        };
        let (collected, streamed) = (run(false), run(true));
        assert_eq!(collected.0, streamed.0);
        assert_eq!(collected.1, streamed.1, "same stage under the same label");
        assert_eq!(
            (collected.2, collected.3),
            (streamed.2, streamed.3),
            "same bytes"
        );
        // Virtual time holds the measured task durations; the rest of it is
        // the same charges.
        assert!(
            (collected.4 - streamed.4).abs() < 0.01,
            "{} vs {}",
            collected.4,
            streamed.4
        );
    }
}
