//! `SimCluster::run_stage_with`'s delivery contract: the sink sees every
//! task's result once, in ascending task index, only after that task and
//! every earlier one have finished, and outside every measured interval.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use dcluster::{ClusterConfig, SimCluster, StageOptions};
use linalg::WorkerPool;

const POOLS: [usize; 3] = [1, 2, 8];

fn cluster(workers: usize) -> SimCluster {
    SimCluster::new_with_pool(
        ClusterConfig::paper_cluster()
            .with_nodes(2)
            .with_cores_per_node(2),
        Arc::new(WorkerPool::new(workers)),
    )
}

/// Sleep lengths that finish tasks far out of index order.
fn scrambled_micros(i: usize) -> u64 {
    ((i * 7_919) % 13) as u64 * 300
}

#[test]
fn uneven_tasks_are_delivered_in_order_exactly_once() {
    const TASKS: usize = 40;
    let task = |i: usize| {
        thread::sleep(Duration::from_micros(scrambled_micros(i)));
        (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    };
    for workers in POOLS {
        let c = cluster(workers);
        let collected = c.run_stage(
            StageOptions::new("collected"),
            (0..TASKS).map(|i| move || task(i)).collect(),
        );

        let finished: Vec<AtomicBool> = (0..TASKS).map(|_| AtomicBool::new(false)).collect();
        let finished = &finished;
        let tasks: Vec<_> = (0..TASKS)
            .map(|i| {
                move || {
                    let out = task(i);
                    finished[i].store(true, Ordering::SeqCst);
                    out
                }
            })
            .collect();
        let mut delivered = Vec::new();
        c.run_stage_with(StageOptions::new("streamed"), tasks, |i, out| {
            assert!(
                finished[..=i].iter().all(|f| f.load(Ordering::SeqCst)),
                "result {i} delivered before an earlier task finished ({workers} workers)"
            );
            delivered.push((i, out));
        });
        let indices: Vec<usize> = delivered.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, (0..TASKS).collect::<Vec<_>>(), "{workers} workers");
        let values: Vec<u64> = delivered.into_iter().map(|(_, v)| v).collect();
        assert_eq!(values, collected, "{workers} workers");
    }
}

#[test]
fn sink_time_is_in_no_task_duration_and_no_virtual_time() {
    const TASKS: usize = 8;
    const SINK: Duration = Duration::from_millis(20);
    for workers in POOLS {
        let c = cluster(workers);
        let tasks: Vec<_> = (0..TASKS)
            .map(|i| move || thread::sleep(Duration::from_micros(scrambled_micros(i))))
            .collect();
        let start = std::time::Instant::now();
        let mut calls = 0;
        c.run_stage_with(StageOptions::new("slow-sink"), tasks, |_, ()| {
            thread::sleep(SINK);
            calls += 1;
        });
        assert_eq!(calls, TASKS);
        assert!(
            start.elapsed() >= SINK * TASKS as u32,
            "the sink really ran"
        );
        // The tasks' own sleeps sum to ~15 ms; the sink's calls to 160 ms.
        let m = c.metrics();
        let stage = &m.stages[0];
        let bound = (SINK * TASKS as u32).as_secs_f64() / 2.0;
        assert!(
            stage.cpu_secs < bound,
            "cpu_secs {} holds sink time ({workers} workers)",
            stage.cpu_secs
        );
        assert!(
            stage.compute_secs < bound,
            "makespan {} holds sink time",
            stage.compute_secs
        );
        assert!(
            m.virtual_time_secs < bound,
            "virtual {} holds sink time",
            m.virtual_time_secs
        );
    }
}

#[test]
fn empty_and_one_task_stages() {
    for workers in POOLS {
        let c = cluster(workers);
        let mut calls = Vec::new();
        c.run_stage_with(
            StageOptions::new("empty"),
            Vec::<fn() -> u8>::new(),
            |i, v| calls.push((i, v)),
        );
        assert!(calls.is_empty());
        c.run_stage_with(StageOptions::new("one"), vec![|| 7u8], |i, v| {
            calls.push((i, v))
        });
        assert_eq!(calls, vec![(0, 7)]);
        let stages = c.metrics().stages;
        assert_eq!((stages[0].tasks, stages[1].tasks), (0, 1));
    }
}

#[test]
fn a_panicking_task_re_raises_without_hanging() {
    for workers in POOLS {
        let c = cluster(workers);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..12)
            .map(|i| -> Box<dyn FnOnce() -> usize + Send> {
                Box::new(move || {
                    thread::sleep(Duration::from_micros(scrambled_micros(i)));
                    assert_ne!(i, 5, "task 5 fails");
                    i
                })
            })
            .collect();
        let delivered = Mutex::new(Vec::new());
        let r = catch_unwind(AssertUnwindSafe(|| {
            c.run_stage_with(StageOptions::new("boom"), tasks, |i, _| {
                delivered.lock().unwrap().push(i)
            });
        }));
        assert!(
            r.is_err(),
            "the task's panic reaches the caller ({workers} workers)"
        );
        // Nothing past the failed task can be due; everything before it is.
        assert_eq!(*delivered.lock().unwrap(), (0..5).collect::<Vec<_>>());
        // The cluster and its pool stay usable.
        let ok = c.run_stage(
            StageOptions::new("after"),
            (0..4).map(|i| move || i).collect(),
        );
        assert_eq!(ok, vec![0, 1, 2, 3]);
    }
}

#[test]
fn a_nested_stage_delivers_inline_in_order() {
    for workers in POOLS {
        let c = cluster(workers);
        let c = &c;
        let outer: Vec<_> = (0..6)
            .map(|o| {
                move || {
                    let me = thread::current().id();
                    let inner: Vec<_> = (0..5).map(|j| move || o * 10 + j).collect();
                    let mut got = Vec::new();
                    c.run_stage_with(StageOptions::new("inner"), inner, |j, v| {
                        assert_eq!(
                            thread::current().id(),
                            me,
                            "an inline stage delivers on its thread"
                        );
                        got.push((j, v));
                    });
                    got
                }
            })
            .collect();
        let mut seen = Vec::new();
        c.run_stage_with(StageOptions::new("outer"), outer, |o, got| {
            seen.push((o, got))
        });
        for (o, (at, got)) in seen.into_iter().enumerate() {
            assert_eq!(at, o);
            assert_eq!(got, (0..5).map(|j| (j, o * 10 + j)).collect::<Vec<_>>());
        }
    }
}
