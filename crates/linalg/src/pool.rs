//! Persistent worker pool — the one parallel substrate of the reproduction.
//!
//! Every layer that fans work out — the blocked kernels in
//! [`crate::kernels`], `dcluster`'s simulated stages (and through those the
//! `sparkle` RDD stages and `mapreduce` map/reduce waves), and driver-side
//! products — submits to the same pool instead of spawning threads per
//! call. Threads are spawned once ([`WorkerPool::new`], or lazily for the
//! process-wide [`WorkerPool::global`]) and pull tasks from a shared
//! work queue.
//!
//! # Determinism contract
//!
//! [`WorkerPool::run`] returns results **in submission order**, whatever
//! order tasks finish in, so a batch of deterministic tasks yields an
//! identical result vector on pools of 1, 2, or 64 workers. Callers that
//! reduce across tasks (e.g. the chunked `matmul_tn` kernel) are required
//! to pick split points from the *problem size only* — never from the
//! worker count — and to merge partials in index order; that is what makes
//! kernel output bit-for-bit independent of parallelism.
//!
//! # Nested submission
//!
//! A task running on a pool may itself call [`WorkerPool::run`], on that
//! pool or another (a simulated stage whose tasks call a parallel kernel,
//! say). Such a nested batch never reaches a queue: it runs **inline on
//! the calling thread, in submission order**, and returns the result
//! vector a queued batch would.
//!
//! A stage task models one core of the virtual cluster and `dcluster`
//! prices it by its wall time, so it gets one host core and its measured
//! interval must hold its own work only. Queued behind its siblings in a
//! FIFO, a task's kernel chunks made the waiting task pop a *sibling* and
//! run it on its own stack: stage tasks nested 16–32 deep and their
//! measured durations summed to many times wall × threads. Inline, that
//! cannot happen, and a batch that never waits cannot deadlock. Kernels
//! keep their pool parallelism exactly when called from outside any pool
//! task — the driver — which is a property of the call site, not an
//! option. A one-task batch never enters the queue, so it is not a pool
//! task and a lone task's kernels still fan out.
//!
//! # One thread per core
//!
//! The submitting thread drains the queue beside the workers, so a pool of
//! `w` workers runs a batch on `w + 1` threads. [`WorkerPool::global`]
//! therefore spawns one worker fewer than the host has cores. With one
//! worker per core, a stage ran `n + 1` threads on `n` cores: the kernel
//! time-sliced them, every measured task interval (a simulated task's
//! virtual duration) included a sibling's slices, and a preempted task
//! held up the in-order delivery of every result behind it, so a driver
//! folding a stage's partials as they arrived still held most of them.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

thread_local! {
    /// True while this thread is inside a queued task of some batch — what
    /// makes a [`WorkerPool::run`] call *nested* (see the module docs).
    static IN_POOL_TASK: Cell<bool> = const { Cell::new(false) };
}

/// A queued unit of work. Closures are lifetime-erased by [`WorkerPool::run`],
/// which is sound because `run` never returns before every task it enqueued
/// has finished executing.
type Task = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    queue: Mutex<VecDeque<Task>>,
    /// Signalled when tasks are enqueued or shutdown begins.
    available: Condvar,
    shutdown: AtomicBool,
}

/// Completion state for one `run` batch.
struct BatchState<T> {
    /// Tasks not yet finished.
    remaining: usize,
    /// Result slots, in submission order.
    results: Vec<Option<T>>,
    /// First panic payload observed, re-raised on the submitting thread.
    panic: Option<Box<dyn Any + Send>>,
}

struct Batch<T> {
    state: Mutex<BatchState<T>>,
    done: Condvar,
}

/// Ignore lock poisoning: panics inside tasks are caught before any batch
/// lock is taken, and a poisoned queue would only ever hold plain data.
fn lock_unpoisoned<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Fixed-size pool of worker threads draining a shared FIFO work queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: usize,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool with `workers` threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("spca-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool { shared, workers, handles }
    }

    /// The process-wide pool, spawned on first use with one worker fewer
    /// than the host's available parallelism (at least one): the thread
    /// that submits a batch helps drain it, so a batch runs one thread per
    /// core (module docs, *One thread per core*). Kernels and simulated
    /// clusters default to this pool, so driver-side products and
    /// distributed stages share one set of threads.
    pub fn global() -> &'static Arc<WorkerPool> {
        static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            Arc::new(WorkerPool::new(cores - 1))
        })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every task to completion and returns their results **in
    /// submission order**. The calling thread participates in execution, so
    /// a 1-worker pool (or a pool whose workers are all busy) still makes
    /// progress. If any task panics, the first panic is re-raised here
    /// after the whole batch has finished.
    ///
    /// Called from inside a pool task, the batch runs inline on the calling
    /// thread (module docs, *Nested submission*): same results, no queue
    /// traffic, no `pool.*` counters, and a panic unwinds into the
    /// enclosing task at once.
    pub fn run<'env, T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            // One task: nothing to overlap, skip the queue round-trip.
            let mut tasks = tasks;
            return vec![tasks.pop().expect("len checked")()];
        }
        if IN_POOL_TASK.get() {
            return tasks.into_iter().map(|task| task()).collect();
        }

        let batch: Arc<Batch<T>> = Arc::new(Batch {
            state: Mutex::new(BatchState {
                remaining: n,
                results: (0..n).map(|_| None).collect(),
                panic: None,
            }),
            done: Condvar::new(),
        });

        let queue_depth;
        {
            let mut queue = lock_unpoisoned(&self.shared.queue);
            queue_depth = queue.len();
            for (i, task) in tasks.into_iter().enumerate() {
                let batch = Arc::clone(&batch);
                let erased: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                    // Queued tasks start only from `worker_loop` and from
                    // the helping loop below, neither of which is reached
                    // with the flag set, so clearing restores it.
                    IN_POOL_TASK.set(true);
                    let out = catch_unwind(AssertUnwindSafe(task));
                    IN_POOL_TASK.set(false);
                    let mut st = lock_unpoisoned(&batch.state);
                    match out {
                        Ok(v) => st.results[i] = Some(v),
                        Err(p) => {
                            if st.panic.is_none() {
                                st.panic = Some(p);
                            }
                        }
                    }
                    st.remaining -= 1;
                    if st.remaining == 0 {
                        batch.done.notify_all();
                    }
                });
                // SAFETY: the closure (and everything it borrows from 'env)
                // is only invoked before this function returns — we block
                // below until `remaining == 0`, and a task is only counted
                // done after it has fully run. Nothing retains the closure
                // afterwards: the queue hands ownership to the executing
                // thread, which drops it on completion.
                let erased: Task = unsafe {
                    std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Task>(erased)
                };
                queue.push_back(erased);
            }
            self.shared.available.notify_all();
        }
        if obs::enabled() {
            if let Some(c) = obs::collector() {
                let reg = c.registry();
                reg.counter("pool.batches").inc();
                reg.counter("pool.tasks").add(n as u64);
                // Depth *before* this batch enqueued: how backed up the
                // queue already was when we arrived.
                reg.histogram("pool.queue_depth").record(queue_depth as f64);
                reg.gauge("pool.queue_depth_peak").set_max((queue_depth + n) as f64);
            }
        }

        // Work-conserving wait: drain the queue ourselves (our own batch's
        // tasks or another submitter's — progress either way), then sleep
        // until the batch completes.
        loop {
            let task = lock_unpoisoned(&self.shared.queue).pop_front();
            match task {
                Some(t) => t(),
                None => break,
            }
        }
        let mut st = lock_unpoisoned(&batch.state);
        while st.remaining > 0 {
            st = batch
                .done
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
        if let Some(p) = st.panic.take() {
            drop(st);
            resume_unwind(p);
        }
        st.results.iter_mut().map(|slot| slot.take().expect("task completed")).collect()
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut queue = lock_unpoisoned(&shared.queue);
            loop {
                if let Some(t) = queue.pop_front() {
                    break Some(t);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        match task {
            Some(t) => t(),
            None => return,
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // A worker checks `shutdown` and then waits without releasing the
        // queue lock in between, so passing through the lock here means
        // every worker either has yet to check (and sees the store) or is
        // already waiting (and gets the notification). Without it the
        // notification can fall between a worker's check and its wait,
        // and the join below never returns.
        drop(lock_unpoisoned(&self.shared.queue));
        self.shared.available.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.workers).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropping_a_pool_never_strands_a_worker() {
        // A shutdown notification sent without passing through the queue
        // lock can land between a worker's check and its wait; the join in
        // `drop` then hangs. Fresh pools dropped at once are the window.
        for _ in 0..500 {
            drop(WorkerPool::new(2));
        }
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<_> = (0..100).map(|i| move || i * i).collect();
        let out = pool.run(tasks);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<i32>>());
    }

    #[test]
    fn identical_results_for_any_worker_count() {
        let compute = |pool: &WorkerPool| {
            let tasks: Vec<_> = (0..64u64)
                .map(|i| move || (0..1000).fold(i, |acc, k| acc.wrapping_mul(31).wrapping_add(k)))
                .collect();
            pool.run(tasks)
        };
        let one = compute(&WorkerPool::new(1));
        let two = compute(&WorkerPool::new(2));
        let eight = compute(&WorkerPool::new(8));
        assert_eq!(one, two);
        assert_eq!(one, eight);
    }

    #[test]
    fn borrowed_environment_is_usable() {
        let pool = WorkerPool::new(2);
        let data: Vec<u64> = (0..1000).collect();
        let chunks: Vec<&[u64]> = data.chunks(100).collect();
        let sums = pool.run(chunks.iter().map(|c| move || c.iter().sum::<u64>()).collect());
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn nested_batch_runs_inline_on_the_submitting_thread_in_order() {
        let pool = Arc::new(WorkerPool::new(2));
        let outer: Vec<_> = (0..8)
            .map(|i| {
                let pool = Arc::clone(&pool);
                move || {
                    let me = std::thread::current().id();
                    let order = Mutex::new(Vec::new());
                    let inner: Vec<_> = (0..8)
                        .map(|j| {
                            let order = &order;
                            move || {
                                assert_eq!(std::thread::current().id(), me, "inner task migrated");
                                order.lock().unwrap().push(j);
                                i * 10 + j
                            }
                        })
                        .collect();
                    let out = pool.run(inner);
                    assert_eq!(order.into_inner().unwrap(), (0..8).collect::<Vec<_>>());
                    out
                }
            })
            .collect();
        let out = pool.run(outer);
        for (i, inner) in out.iter().enumerate() {
            assert_eq!(*inner, (0..8).map(|j| i as i32 * 10 + j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn panic_in_nested_batch_propagates_and_pool_survives() {
        let pool = Arc::new(WorkerPool::new(2));
        let outer: Vec<_> = (0..4)
            .map(|i| {
                let pool = Arc::clone(&pool);
                move || {
                    let inner: Vec<Box<dyn FnOnce() -> i32 + Send>> = vec![
                        Box::new(move || i),
                        Box::new(move || if i == 2 { panic!("inner boom") } else { i }),
                    ];
                    pool.run(inner).into_iter().sum::<i32>()
                }
            })
            .collect();
        let r = catch_unwind(AssertUnwindSafe(|| pool.run(outer)));
        assert!(r.is_err(), "nested panic must reach the outer submitter");
        // Neither the pool nor any thread's nested-flag is left poisoned:
        // a fresh batch is queued (not inlined) and completes.
        assert!(!IN_POOL_TASK.get());
        let ok = pool.run((0..4).map(|i| move || (i, IN_POOL_TASK.get())).collect::<Vec<_>>());
        assert_eq!(ok, vec![(0, true), (1, true), (2, true), (3, true)]);
    }

    /// The regression test for the nesting bug: with a FIFO queue and a
    /// helping submitter, a stage task that queued its kernel chunks behind
    /// its siblings popped a *sibling* and ran it on its own stack.
    #[test]
    fn sibling_tasks_never_run_on_each_others_stack() {
        thread_local! {
            static DEPTH: Cell<u32> = const { Cell::new(0) };
        }
        let pool = WorkerPool::new(2);
        // 2·160³ ≈ 8.2 Mflop ≥ PAR_MIN_FLOPS: the kernel splits into chunks
        // and submits them to the same pool.
        let a = crate::Prng::seed_from_u64(3).normal_mat(160, 160);
        assert!(crate::kernels::chunk_count(160, 2 * 160 * 160) > 1);
        let expected = crate::kernels::matmul_with_pool(&pool, &a, &a);
        let (pool, a, expected) = (&pool, &a, &expected);
        let outer: Vec<_> = (0..8)
            .map(|_| {
                move || {
                    DEPTH.set(DEPTH.get() + 1);
                    assert_eq!(DEPTH.get(), 1, "a sibling task is running on this stack");
                    let got = crate::kernels::matmul_with_pool(pool, a, a);
                    assert_eq!(DEPTH.get(), 1);
                    DEPTH.set(DEPTH.get() - 1);
                    got == *expected
                }
            })
            .collect();
        assert_eq!(pool.run(outer), vec![true; 8]);
    }

    #[test]
    fn empty_batch_is_free() {
        let pool = WorkerPool::new(2);
        let out: Vec<i32> = pool.run(Vec::<fn() -> i32>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn panic_in_task_propagates_after_batch_completes() {
        let pool = WorkerPool::new(2);
        let tasks: Vec<Box<dyn FnOnce() -> i32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("boom")),
            Box::new(|| 3),
        ];
        let r = catch_unwind(AssertUnwindSafe(|| pool.run(tasks)));
        assert!(r.is_err(), "panic must propagate to the submitter");
        // The pool must remain usable afterwards.
        let ok = pool.run((0..4).map(|i| move || i).collect::<Vec<_>>());
        assert_eq!(ok, vec![0, 1, 2, 3]);
    }

    #[test]
    fn global_pool_is_shared() {
        let a = WorkerPool::global();
        let b = WorkerPool::global();
        assert!(Arc::ptr_eq(a, b));
        assert!(a.workers() >= 1);
    }
}
