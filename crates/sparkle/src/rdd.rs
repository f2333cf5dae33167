//! Resilient distributed datasets (eager, simulated) — now actually
//! *resilient*: a persisted RDD can carry a [`Lineage`], and cached
//! partitions dropped by a simulated node crash are recomputed from it
//! (charged to the virtual clock and logged as recovery events) before
//! the next stage reads them. Recomputation reproduces the exact bytes
//! the crash destroyed, so results stay bitwise identical under any
//! fault plan.

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dcluster::{Load, Meter, SimCluster, StageOptions};
use linalg::{Wire, WorkerPool};

/// Deterministic pairwise tree reduction: adjacent values merge in rounds
/// until one remains. The merge structure is a function of the input count
/// only — never of worker count or completion order — so drivers reducing
/// per-partition partials this way keep the bit-determinism contract while
/// cutting the reduction's dependency depth from `P − 1` to `⌈log₂ P⌉`.
///
/// An empty input returns `init()`; a single value is returned unmerged
/// (matching the old sequential fold's semantics for those cases).
pub fn tree_merge<A, FI, FM>(mut parts: Vec<A>, init: FI, merge: FM) -> A
where
    FI: FnOnce() -> A,
    FM: Fn(&mut A, A),
{
    if parts.is_empty() {
        return init();
    }
    while parts.len() > 1 {
        let mut next = Vec::with_capacity((parts.len() + 1) / 2);
        let mut it = parts.into_iter();
        while let Some(mut a) = it.next() {
            if let Some(b) = it.next() {
                merge(&mut a, b);
            }
            next.push(a);
        }
        parts = next;
    }
    parts.into_iter().next().expect("non-empty after rounds")
}

/// [`tree_merge`]'s association, streamed: values are pushed one at a time
/// in input order, and each complete aligned block of `g` inputs, or of `g`
/// level-`j` block results, is replaced at once by `merge_block` of that
/// block. Between pushes a level holds fewer than `g` values, so with `L`
/// levels (`⌈log_g n⌉` for `n` inputs) the fold never holds more than
/// `(g − 1)·L + 1`. [`Self::finish`] collapses the levels bottom-up: each
/// level's pending values, then the carry from below, are one last
/// (short) block.
///
/// *Aligned-block lemma.* For `g = 2^k`, round `r` of [`tree_merge`]
/// holds at position `t` the merge of exactly the inputs with `i >> r ==
/// t`. Rounds below `k` therefore never merge across an aligned block of
/// `g` inputs, and after round `k` position `b` is `tree_merge` of block
/// `b` alone (a short last block included: its pairs start at an even
/// position). Rounds from `k` on are `tree_merge` of those block results
/// as leaves. So when `merge_block` has [`tree_merge`]'s association,
/// applied level by level it gives `tree_merge`'s result bit for bit. Any
/// `g` qualifies when at most `g` values are pushed (one block).
pub struct TreeFold<A> {
    g: usize,
    /// `levels[j]`: merges of consecutive aligned blocks of `g^j` inputs
    /// not yet merged further, in input order.
    levels: Vec<Vec<A>>,
    held: usize,
    peak: usize,
}

impl<A> TreeFold<A> {
    /// An empty fold over blocks of `g ≥ 2`.
    pub fn new(g: usize) -> Self {
        assert!(g >= 2, "TreeFold: a block of {g} never completes a level");
        TreeFold { g, levels: Vec::new(), held: 0, peak: 0 }
    }

    /// Pushes the next value; every level it completes is merged and
    /// carried up at once.
    pub fn push(&mut self, value: A, mut merge_block: impl FnMut(Vec<A>) -> A) {
        let mut carry = value;
        for j in 0.. {
            if j == self.levels.len() {
                self.levels.push(Vec::new());
            }
            self.levels[j].push(carry);
            self.held += 1;
            self.peak = self.peak.max(self.held);
            if self.levels[j].len() < self.g {
                return;
            }
            self.held -= self.g;
            carry = merge_block(std::mem::take(&mut self.levels[j]));
        }
    }

    /// The most values ever held at once.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// The fold of everything pushed, `None` if nothing was.
    pub fn finish(self, mut merge_block: impl FnMut(Vec<A>) -> A) -> Option<A> {
        let mut carry = None;
        for mut level in self.levels {
            level.extend(carry);
            carry = if level.len() > 1 { Some(merge_block(level)) } else { level.pop() };
        }
        carry
    }
}

/// [`tree_merge`]'s association for partials of packed rows keyed by
/// column, where a merge adds the rows two partials share (`left + right`
/// per element) and keeps the others. `parts[i]` is partial `i`'s strictly
/// ascending columns and its `d`-wide rows back to back; the result is the
/// union of the columns and their merged rows, each written once.
///
/// In [`tree_merge`], round `r`'s position `t` holds the merge of exactly
/// the partials whose index `i` has `i >> r == t`. A merge that finds a
/// column on both sides adds the right row onto the left; a side that
/// lacks it passes the other's row through untouched. So a column's merged
/// row is a binary trie over the indices of the partials that hold it:
/// split them at the highest bit in which they differ, merge each side the
/// same way, and add the right onto the left. Evaluated per column in L1
/// (`merge_row`), that is `tree_merge`'s result bit for bit, with no
/// intermediate slabs.
///
/// The holders of every column are bucketed once, in partition order, and
/// the output rows run in bands on `pool`. The band count is a function of
/// the shape only (one band below the kernels' parallel threshold), and a
/// row's bits do not depend on its band.
pub fn tree_merge_rows(
    pool: &WorkerPool,
    parts: &[(&[u32], &[f64])],
    d: usize,
) -> (Vec<u32>, Vec<f64>) {
    // Counting sort of (partial, position) by column, stable in partial
    // order. `end[c]` counts column c's holders, then is its fill cursor,
    // and once filled is the end of its holders (which start at `end[c−1]`).
    let width = parts.iter().filter_map(|(cols, _)| cols.last()).max();
    let mut end = vec![0usize; width.map_or(0, |&c| c as usize + 1)];
    for (cols, _) in parts {
        for &c in *cols {
            end[c as usize] += 1;
        }
    }
    let mut cols = Vec::new();
    let mut total = 0;
    for (c, slot) in end.iter_mut().enumerate() {
        if *slot > 0 {
            cols.push(c as u32);
        }
        (*slot, total) = (total, total + *slot);
    }
    let mut holders = vec![(0u32, 0u32); total];
    for (i, (pcols, _)) in parts.iter().enumerate() {
        for (k, &c) in pcols.iter().enumerate() {
            holders[end[c as usize]] = (i as u32, k as u32);
            end[c as usize] += 1;
        }
    }
    let row_start: Vec<usize> =
        std::iter::once(0).chain(cols.iter().map(|&c| end[c as usize])).collect();

    let m = cols.len();
    let mut slab = linalg::scratch::take_zeroed(m * d);
    if d == 0 {
        return (cols, slab);
    }
    // Bands of near-equal holder counts; `levels` bounds the trie's depth.
    let bands = linalg::kernels::chunk_count(m, (total * d).div_ceil(m.max(1)));
    let levels = (usize::BITS - parts.len().saturating_sub(1).leading_zeros()) as usize;
    let mut bounds = vec![0];
    for b in 1..bands {
        let at = row_start.partition_point(|&s| s < total * b / bands).min(m);
        bounds.push(at.max(bounds[b - 1]));
    }
    bounds.push(m);
    let (holders, row_start) = (&holders, &row_start);
    let mut rest = &mut slab[..];
    let mut tasks = Vec::with_capacity(bands);
    for w in bounds.windows(2) {
        let (band, tail) = std::mem::take(&mut rest).split_at_mut((w[1] - w[0]) * d);
        rest = tail;
        let rows = w[0]..w[1];
        tasks.push(move || {
            let mut stack = Stack { slots: vec![0.0; levels * d], leaf: [None; 33], bit: [0; 33] };
            for (r, out) in rows.zip(band.chunks_exact_mut(d)) {
                merge_row(&holders[row_start[r]..row_start[r + 1]], parts, out, &mut stack);
            }
        });
    }
    pool.run(tasks);
    (cols, slab)
}

/// [`merge_row`]'s stack of merged subtries, bottom first: position 0 is
/// the output row, position `p > 0` lives in `slots[(p − 1)·d..p·d]` —
/// unless `leaf[p]` holds a subtrie that is still one partial's row, which
/// is read in place. `bit[p]` is the bit that separates position `p` from
/// position `p − 1`; those fall strictly up the stack, so a `u32` partial
/// index bounds it at 33 positions.
struct Stack<'p> {
    slots: Vec<f64>,
    leaf: [Option<&'p [f64]>; 33],
    bit: [u32; 33],
}

/// One output row of [`tree_merge_rows`] from its holders, (partial,
/// position) pairs in ascending partial order: the trie evaluated left to
/// right. Before a holder is pushed, every stacked subtrie separated from
/// its left neighbour by a lower bit than the holder's own is complete and
/// folds into that neighbour; at the end the stack folds right to left.
fn merge_row<'p>(
    holders: &[(u32, u32)],
    parts: &[(&[u32], &'p [f64])],
    out: &mut [f64],
    stack: &mut Stack<'p>,
) {
    let d = out.len();
    let row = |(i, k): (u32, u32)| &parts[i as usize].1[k as usize * d..(k as usize + 1) * d];
    let (&first, rest) = holders.split_first().expect("a merged row has a holder");
    stack.leaf[0] = Some(row(first));
    let mut top = 1;
    let mut prev = first.0;
    for &h in rest {
        let bit = 31 - (prev ^ h.0).leading_zeros();
        while top >= 2 && stack.bit[top - 1] < bit {
            fold(top - 2, out, stack);
            top -= 1;
        }
        stack.bit[top] = bit;
        stack.leaf[top] = Some(row(h));
        top += 1;
        prev = h.0;
    }
    while top >= 2 {
        fold(top - 2, out, stack);
        top -= 1;
    }
    if let Some(row) = stack.leaf[0].take() {
        out.copy_from_slice(row);
    }
}

/// Adds stack position `j + 1` onto position `j`.
fn fold(j: usize, out: &mut [f64], stack: &mut Stack<'_>) {
    let d = out.len();
    let (below, above) = stack.slots.split_at_mut(j * d);
    let dst = if j == 0 { out } else { &mut below[(j - 1) * d..] };
    let right = stack.leaf[j + 1].take().unwrap_or(&above[..d]);
    match stack.leaf[j].take() {
        Some(left) => {
            for ((o, &l), &r) in dst.iter_mut().zip(left).zip(right) {
                *o = l + r;
            }
        }
        None => {
            for (o, &r) in dst.iter_mut().zip(right) {
                *o += r;
            }
        }
    }
}

/// How a lost cached partition is rebuilt: a human-readable chain of
/// stage labels (for reports), the DFS file the chain starts from (its
/// per-partition share is re-read when recomputing), and the recompute
/// closure itself, which must return exactly the bytes partition `pidx`
/// held before the crash.
pub struct Lineage<'a, T> {
    /// Stage labels from source to cached RDD (reporting only).
    pub chain: Vec<String>,
    /// DFS file the chain reads from, if any.
    pub source: Option<String>,
    /// Rebuilds partition `pidx` from scratch.
    pub recompute: Box<dyn Fn(usize) -> Vec<T> + Send + Sync + 'a>,
}

impl<'a, T> Lineage<'a, T> {
    /// A lineage with the given label chain and recompute function.
    pub fn new(
        chain: Vec<String>,
        recompute: Box<dyn Fn(usize) -> Vec<T> + Send + Sync + 'a>,
    ) -> Self {
        Lineage { chain, source: None, recompute }
    }

    /// Names the DFS file the chain reads from; its per-partition share is
    /// charged as a DFS read on every recomputation.
    pub fn with_source(mut self, file: impl Into<String>) -> Self {
        self.source = Some(file.into());
        self
    }
}

impl<T> fmt::Debug for Lineage<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lineage")
            .field("chain", &self.chain)
            .field("source", &self.source)
            .finish_non_exhaustive()
    }
}

/// A cache registered with the cluster's fault domain: the partition
/// blocks live behind a mutex because a crash invalidates them and the
/// next stage rebuilds them in place.
struct CachedStorage<'a, T> {
    /// Id from [`SimCluster::register_cache`].
    id: u64,
    /// Element count per partition (layout metadata survives crashes —
    /// the driver knows it).
    sizes: Vec<usize>,
    /// Dataset bytes (for `persist` bookkeeping).
    total_bytes: u64,
    lineage: Lineage<'a, T>,
    /// The resident blocks. A slot whose partition was marked lost by a
    /// crash holds stale data that is overwritten from lineage before any
    /// stage can read it (see [`Rdd::snapshot`]).
    slots: Mutex<Vec<Arc<Vec<T>>>>,
}

enum Storage<'a, T> {
    /// Uncached: plain shared partition blocks (crashes don't touch them —
    /// they model ephemeral stage outputs consumed before any crash).
    Plain(Vec<Arc<Vec<T>>>),
    /// Persisted with lineage: blocks registered with the fault domain.
    Cached(Arc<CachedStorage<'a, T>>),
}

impl<T> Clone for Storage<'_, T> {
    fn clone(&self) -> Self {
        match self {
            Storage::Plain(p) => Storage::Plain(p.clone()),
            Storage::Cached(c) => Storage::Cached(Arc::clone(c)),
        }
    }
}

impl<T> fmt::Debug for Storage<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Storage::Plain(p) => write!(f, "Plain({} partitions)", p.len()),
            Storage::Cached(c) => write!(f, "Cached(id={}, {} partitions)", c.id, c.sizes.len()),
        }
    }
}

/// A partitioned in-memory dataset bound to a simulated cluster.
///
/// Cloning is cheap (partitions are shared `Arc`s) — the pattern for
/// iterative algorithms is to build the input RDD once, `persist` it, and
/// run one narrow stage per iteration against it, exactly how sPCA-Spark
/// keeps `Y` cached across EM iterations.
#[derive(Debug, Clone)]
pub struct Rdd<'a, T> {
    cluster: &'a SimCluster,
    task_overhead_secs: f64,
    storage: Storage<'a, T>,
    /// Bytes that do not fit in aggregate cluster memory and are re-read
    /// from disk by every stage over this RDD (0 unless `persist` finds the
    /// dataset oversized).
    spill_bytes: u64,
}

impl<'a, T: Send + Sync> Rdd<'a, T> {
    pub(crate) fn from_parts(
        cluster: &'a SimCluster,
        task_overhead_secs: f64,
        partitions: Vec<Arc<Vec<T>>>,
    ) -> Self {
        Rdd { cluster, task_overhead_secs, storage: Storage::Plain(partitions), spill_bytes: 0 }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        match &self.storage {
            Storage::Plain(p) => p.len(),
            Storage::Cached(c) => c.sizes.len(),
        }
    }

    /// Element count per partition.
    pub fn partition_sizes(&self) -> Vec<usize> {
        match &self.storage {
            Storage::Plain(p) => p.iter().map(|p| p.len()).collect(),
            Storage::Cached(c) => c.sizes.clone(),
        }
    }

    /// Total number of elements. Free — the layout is known to the driver.
    pub fn count(&self) -> usize {
        self.partition_sizes().iter().sum()
    }

    /// The partition blocks every stage over this RDD reads, healing the
    /// cache first if a crash invalidated blocks: each lost partition is
    /// recomputed from lineage (in ascending partition order — the order,
    /// like the loss itself, is a pure function of indices, so recovery
    /// logs are deterministic), its source share re-read from the DFS, the
    /// recompute time charged to the virtual clock.
    fn snapshot(&self) -> Vec<Arc<Vec<T>>> {
        match &self.storage {
            Storage::Plain(p) => p.clone(),
            Storage::Cached(c) => {
                let lost = self.cluster.take_lost_partitions(c.id);
                let mut slots = c.slots.lock().unwrap_or_else(|e| e.into_inner());
                for p in lost {
                    if let Some(src) = &c.lineage.source {
                        let share = self
                            .cluster
                            .dfs()
                            .stat(src)
                            .unwrap_or_else(|| {
                                panic!(
                                    "lineage recompute of partition {p}: source {src:?} is \
                                     gone from the DFS (under-replicated input?)"
                                )
                            })
                            / slots.len().max(1) as u64;
                        self.cluster.charge(Meter::DfsRead, Load::Even(share), "lineage-reread");
                    }
                    let start = Instant::now();
                    let data = (c.lineage.recompute)(p);
                    assert_eq!(
                        data.len(),
                        c.sizes[p],
                        "lineage recompute of partition {p} changed its size"
                    );
                    slots[p] = Arc::new(data);
                    self.cluster.note_partition_recomputed(
                        c.id,
                        p,
                        start.elapsed().as_secs_f64(),
                    );
                }
                slots.clone()
            }
        }
    }

    /// The cluster this RDD lives on.
    pub fn cluster(&self) -> &'a SimCluster {
        self.cluster
    }

    fn stage_options(&self, label: &str) -> StageOptions {
        StageOptions::new(label).with_task_overhead(self.task_overhead_secs)
    }

    /// Charges the per-stage disk penalty for the cached-but-spilled
    /// fraction, if any.
    fn charge_spill(&self) {
        if self.spill_bytes > 0 {
            self.cluster.charge(Meter::DfsRead, Load::Even(self.spill_bytes), "spill-reread");
            if obs::enabled() {
                self.cluster.registry().counter("sparkle.spill_bytes").add(self.spill_bytes);
            }
        }
    }

    /// Runs one task per partition, each producing a new output partition.
    /// The fundamental narrow transformation; everything else builds on it.
    pub fn map_partitions<U, F>(&self, label: &str, f: F) -> Rdd<'a, U>
    where
        U: Send + Sync,
        F: Fn(&[T]) -> Vec<U> + Sync,
    {
        self.charge_spill();
        let f = &f;
        let tasks: Vec<_> = self
            .snapshot()
            .into_iter()
            .map(|p| move || f(&p))
            .collect();
        let outputs = self.cluster.run_stage(self.stage_options(label), tasks);
        Rdd {
            cluster: self.cluster,
            task_overhead_secs: self.task_overhead_secs,
            storage: Storage::Plain(outputs.into_iter().map(Arc::new).collect()),
            spill_bytes: 0,
        }
    }

    /// [`Self::map_partitions`] with the partition's index passed to the
    /// task — Spark's `mapPartitionsWithIndex`. The index comes from the
    /// RDD's layout, not from execution order, so per-partition seeding
    /// derived from it is deterministic under any scheduling.
    pub fn map_partitions_with_index<U, F>(&self, label: &str, f: F) -> Rdd<'a, U>
    where
        U: Send + Sync,
        F: Fn(usize, &[T]) -> Vec<U> + Sync,
    {
        self.charge_spill();
        let f = &f;
        let tasks: Vec<_> = self
            .snapshot()
            .into_iter()
            .enumerate()
            .map(|(idx, p)| move || f(idx, &p))
            .collect();
        let outputs = self.cluster.run_stage(self.stage_options(label), tasks);
        Rdd {
            cluster: self.cluster,
            task_overhead_secs: self.task_overhead_secs,
            storage: Storage::Plain(outputs.into_iter().map(Arc::new).collect()),
            spill_bytes: 0,
        }
    }

    /// Element-wise map.
    pub fn map<U, F>(&self, label: &str, f: F) -> Rdd<'a, U>
    where
        U: Send + Sync,
        F: Fn(&T) -> U + Sync,
    {
        self.map_partitions(label, |part| part.iter().map(&f).collect())
    }

    /// Keeps the elements satisfying the predicate.
    pub fn filter<F>(&self, label: &str, f: F) -> Rdd<'a, T>
    where
        T: Clone,
        F: Fn(&T) -> bool + Sync,
    {
        self.map_partitions(label, |part| part.iter().filter(|t| f(t)).cloned().collect())
    }

    /// Accumulator-style aggregation (Spark `aggregate` / the paper's
    /// Algorithm 5 accumulators): each task folds its partition into a
    /// fresh local value (`init` + `fold`), then the per-task partials —
    /// and only those — cross the network to the driver, where `merge`
    /// combines them.
    ///
    /// Returns the merged value together with the number of accumulator
    /// bytes that travelled, so callers can report it (sPCA's 131 MB of
    /// intermediate data on Tweets is exactly this number).
    pub fn aggregate<A, FI, FF, FM>(
        &self,
        label: &str,
        init: FI,
        fold: FF,
        merge: FM,
    ) -> (A, u64)
    where
        A: Send + Wire,
        FI: Fn() -> A + Sync,
        FF: Fn(&mut A, &T) + Sync,
        FM: Fn(&mut A, A),
    {
        let fold_part = |acc: &mut A, part: &[T]| part.iter().for_each(|t| fold(acc, t));
        self.aggregate_partitions(label, init, fold_part, merge)
    }

    /// Partition-at-a-time aggregation: like [`Self::aggregate`], but each
    /// task hands its *whole partition slice* to `fold_part` instead of
    /// folding element by element. This is the entry point of the batched
    /// EM path — the fold can assemble the slice into a block and run the
    /// blocked kernels over it, instead of paying per-row dispatch.
    ///
    /// The partials are collected from [`Self::aggregate_each`] and merged
    /// by [`tree_merge`], whose association is a function of the partition
    /// count only, so any worker count produces the same result.
    pub fn aggregate_partitions<A, FI, FF, FM>(
        &self,
        label: &str,
        init: FI,
        fold_part: FF,
        merge: FM,
    ) -> (A, u64)
    where
        A: Send + Wire,
        FI: Fn() -> A + Sync,
        FF: Fn(&mut A, &[T]) + Sync,
        FM: Fn(&mut A, A),
    {
        let mut partials = Vec::with_capacity(self.num_partitions());
        let bytes = self.aggregate_each(label, &init, fold_part, |p| partials.push(p));
        let _merge_span = obs::span("driver", "accumulator merge");
        (tree_merge(partials, init, merge), bytes)
    }

    /// The one aggregate stage: each task folds its partition into a fresh
    /// `init()` with `fold_part`, and the partials reach `sink` while the
    /// stage runs, in partition order, each as soon as it and every earlier
    /// partition have finished ([`SimCluster::run_stage_with`]). A driver
    /// that folds them as they come holds only the few that finished ahead
    /// of an earlier, still running partition. Returns the accumulator
    /// bytes.
    ///
    /// Partial accumulators are shuffle-family records, so they are priced
    /// under the cluster's negotiated wire codec — the one charge site in
    /// sparkle where the v3 fast path applies. Collects, broadcasts and
    /// persisted partitions stay on exact v2 pricing. Each partial is sized
    /// before the sink takes it, and the sizes are charged after the stage
    /// as one `"accumulator-merge"` flow per partition endpoint (partition
    /// `p` lives on node `p % nodes`, for the contended timing model); the
    /// byte meter charges their sum.
    pub fn aggregate_each<A, FI, FF>(
        &self,
        label: &str,
        init: FI,
        fold_part: FF,
        mut sink: impl FnMut(A) + Send,
    ) -> u64
    where
        A: Send + Wire,
        FI: Fn() -> A + Sync,
        FF: Fn(&mut A, &[T]) + Sync,
    {
        self.charge_spill();
        let init = &init;
        let fold_part = &fold_part;
        let tasks: Vec<_> = self
            .snapshot()
            .into_iter()
            .map(|p| {
                move || {
                    let mut acc = init();
                    fold_part(&mut acc, &p);
                    acc
                }
            })
            .collect();
        let cluster = self.cluster;
        let mut sizes = Vec::with_capacity(tasks.len());
        cluster.run_stage_with(self.stage_options(label), tasks, |_, partial: A| {
            sizes.push(cluster.wire_codec().shuffle_size(&partial));
            sink(partial);
        });
        let bytes: u64 = sizes.iter().sum();
        cluster.charge(Meter::Network, Load::PerEndpoint(&sizes), "accumulator-merge");
        if obs::enabled() {
            cluster.registry().counter("sparkle.accumulator_bytes").add(bytes);
        }
        bytes
    }

    /// Brings every element to the driver, charging the transfer. Consumes
    /// the handle: blocks nothing else holds (the stage output this is
    /// usually called on) are *moved* out; blocks a cache or another handle
    /// still shares are cloned and stay where they are.
    pub fn collect(self) -> Vec<T>
    where
        T: Clone + Wire,
    {
        self.charge_spill();
        let cluster = self.cluster;
        let parts = self.snapshot();
        // Release this handle's references: unshared blocks are now unique.
        drop(self);
        // One flow per partition endpoint for the contended timing model;
        // the byte meter charges the per-partition sum as before.
        let sizes: Vec<u64> =
            parts.iter().map(|p| p.iter().map(Wire::encoded_size).sum()).collect();
        cluster.charge(Meter::Network, Load::PerEndpoint(&sizes), "collect");
        let mut out = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        for p in parts {
            out.extend(Arc::try_unwrap(p).unwrap_or_else(|shared| shared.to_vec()));
        }
        out
    }

    /// The streaming form of `map_partitions(label, f).collect()`: the same
    /// stage under the same label, but the elements reach `sink` while the
    /// stage runs, in partition order, each partition's as soon as it and
    /// every earlier partition have finished
    /// ([`SimCluster::run_stage_with`]). A driver that folds what it
    /// collects holds only the outputs that finished ahead of an earlier,
    /// still running partition, not all of them. Charged as the collect
    /// is: one `"collect"` flow per partition, at the encoded size of its
    /// output before the sink consumed it, after the stage.
    pub fn collect_each<U, F>(&self, label: &str, f: F, mut sink: impl FnMut(U) + Send)
    where
        U: Send + Wire,
        F: Fn(&[T]) -> Vec<U> + Sync,
    {
        self.charge_spill();
        let f = &f;
        let tasks: Vec<_> = self.snapshot().into_iter().map(|p| move || f(&p)).collect();
        let cluster = self.cluster;
        let mut sizes = Vec::with_capacity(tasks.len());
        cluster.run_stage_with(self.stage_options(label), tasks, |_, part: Vec<U>| {
            sizes.push(part.iter().map(Wire::encoded_size).sum());
            part.into_iter().for_each(&mut sink);
        });
        cluster.charge(Meter::Network, Load::PerEndpoint(&sizes), "collect");
    }

    /// Marks the RDD as cached and accounts for the fraction that does not
    /// fit in the cluster's aggregate memory: that spill is re-read from
    /// disk by every subsequent stage over this RDD. Returns the dataset's
    /// size in bytes.
    ///
    /// This is the paper's point that sPCA's small footprint "allows for
    /// the analysis of much larger datasets in the limited aggregate memory
    /// of the cluster".
    pub fn persist(&mut self) -> u64
    where
        T: Wire,
    {
        let total = match &self.storage {
            Storage::Plain(parts) => parts
                .iter()
                .map(|p| p.iter().map(Wire::encoded_size).sum::<u64>())
                .sum(),
            Storage::Cached(c) => c.total_bytes,
        };
        let memory = self.cluster.config().total_memory();
        self.spill_bytes = total.saturating_sub(memory);
        total
    }

    /// [`Self::persist`] plus fault tolerance: registers the cached blocks
    /// with the cluster's fault domain (cached partition `p` lives on node
    /// `p % nodes`) and keeps `lineage` so that partitions dropped by a
    /// node crash are recomputed — not silently kept — before the next
    /// stage reads them. Returns the dataset's size in bytes.
    pub fn persist_with_lineage(&mut self, lineage: Lineage<'a, T>) -> u64
    where
        T: Wire,
    {
        let parts = match &self.storage {
            Storage::Plain(parts) => parts.clone(),
            // Re-persisting a cached RDD keeps the existing registration.
            Storage::Cached(c) => return c.total_bytes,
        };
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        let total: u64 = parts
            .iter()
            .map(|p| p.iter().map(Wire::encoded_size).sum::<u64>())
            .sum();
        self.spill_bytes = total.saturating_sub(self.cluster.config().total_memory());
        let id = self.cluster.register_cache(parts.len());
        self.storage = Storage::Cached(Arc::new(CachedStorage {
            id,
            sizes,
            total_bytes: total,
            lineage,
            slots: Mutex::new(parts),
        }));
        total
    }

    /// The fault-domain cache id, if this RDD is persisted with lineage.
    pub fn cache_id(&self) -> Option<u64> {
        match &self.storage {
            Storage::Plain(_) => None,
            Storage::Cached(c) => Some(c.id),
        }
    }

    /// Spill bytes charged per stage (0 if the dataset fits in memory).
    pub fn spill_bytes(&self) -> u64 {
        self.spill_bytes
    }

    /// Concatenates two RDDs on the same cluster (partition lists are
    /// appended; no data moves).
    pub fn union(&self, other: &Rdd<'a, T>) -> Rdd<'a, T> {
        assert!(
            std::ptr::eq(self.cluster, other.cluster),
            "union: RDDs live on different clusters"
        );
        let mut partitions = self.snapshot();
        partitions.extend(other.snapshot());
        Rdd {
            cluster: self.cluster,
            task_overhead_secs: self.task_overhead_secs,
            storage: Storage::Plain(partitions),
            spill_bytes: self.spill_bytes + other.spill_bytes,
        }
    }

    /// Bernoulli sample of the elements with probability `fraction`,
    /// seeded — the primitive behind sPCA-SG's warm-up sample.
    pub fn sample(&self, label: &str, fraction: f64, seed: u64) -> Rdd<'a, T>
    where
        T: Clone,
    {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be a probability");
        // One independent stream per partition, seeded from the partition's
        // *layout* index — not from a shared counter bumped during parallel
        // execution, whose value would depend on task scheduling order.
        self.map_partitions_with_index(label, move |pidx, part| {
            let mut rng = linalg::Prng::seed_from_u64(seed ^ ((pidx as u64).wrapping_mul(0x9e37)));
            part.iter().filter(|_| rng.uniform() < fraction).cloned().collect()
        })
    }

    /// Zips two RDDs with identical partitioning, partition by partition
    /// (Spark's `zipPartitions`) — the join pattern Mahout's Bt job uses
    /// to align `Q` rows with input rows.
    pub fn zip_partitions<U, V, F>(&self, label: &str, other: &Rdd<'a, U>, f: F) -> Rdd<'a, V>
    where
        U: Send + Sync,
        V: Send + Sync,
        F: Fn(&[T], &[U]) -> Vec<V> + Sync,
    {
        assert_eq!(
            self.num_partitions(),
            other.num_partitions(),
            "zip_partitions: partition counts differ"
        );
        self.charge_spill();
        other.charge_spill();
        let f = &f;
        let tasks: Vec<_> = self
            .snapshot()
            .into_iter()
            .zip(other.snapshot())
            .map(|(a, b)| move || f(&a, &b))
            .collect();
        let outputs = self.cluster.run_stage(self.stage_options(label), tasks);
        Rdd {
            cluster: self.cluster,
            task_overhead_secs: self.task_overhead_secs,
            storage: Storage::Plain(outputs.into_iter().map(Arc::new).collect()),
            spill_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SparkleContext;
    use dcluster::ClusterConfig;

    fn cluster() -> SimCluster {
        SimCluster::new(ClusterConfig::paper_cluster())
    }

    #[test]
    fn map_and_collect_roundtrip() {
        let c = cluster();
        let ctx = SparkleContext::new(&c);
        let rdd = ctx.parallelize((0_u64..100).collect(), 8);
        let doubled = rdd.map("double", |x| x * 2);
        let out = doubled.collect();
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn filter_keeps_matching() {
        let c = cluster();
        let ctx = SparkleContext::new(&c);
        let rdd = ctx.parallelize((0_u64..20).collect(), 3);
        let evens = rdd.filter("evens", |x| x % 2 == 0);
        assert_eq!(evens.count(), 10);
    }

    #[test]
    fn aggregate_sums_partials_and_charges_network() {
        let c = cluster();
        let ctx = SparkleContext::new(&c);
        let rdd = ctx.parallelize((1_u64..=100).collect(), 4);
        let (sum, bytes) = rdd.aggregate(
            "sum",
            || 0_u64,
            |acc, x| *acc += x,
            |acc, other| *acc += other,
        );
        assert_eq!(sum, 5050);
        // 4 u64 partials (325, 950, 1575, 2200), each a 2-byte varint.
        assert_eq!(bytes, 8);
        assert_eq!(c.metrics().network_bytes, 8);
    }

    #[test]
    fn aggregate_of_empty_rdd_returns_init() {
        let c = cluster();
        let ctx = SparkleContext::new(&c);
        let rdd = ctx.parallelize(Vec::<u64>::new(), 2);
        let (sum, _) = rdd.aggregate("sum", || 7_u64, |a, x| *a += x, |a, b| *a += b);
        assert_eq!(sum, 7 + 7, "two empty partials merge into init+init");
    }

    #[test]
    fn collect_charges_transfer_bytes() {
        let c = cluster();
        let ctx = SparkleContext::new(&c);
        let rdd = ctx.parallelize((0_u64..10).collect(), 2);
        let _ = rdd.collect();
        // Each u64 in 0..10 encodes to a 1-byte varint.
        assert_eq!(c.metrics().network_bytes, 10);
    }

    /// A `u64` on the wire that counts how often it is cloned.
    #[derive(Debug)]
    struct Counted(u64, Arc<std::sync::atomic::AtomicUsize>);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Counted(self.0, Arc::clone(&self.1))
        }
    }

    impl Wire for Counted {
        fn encode_into(&self, out: &mut Vec<u8>) {
            self.0.encode_into(out)
        }
        fn encoded_size(&self) -> u64 {
            self.0.encoded_size()
        }
        fn decode_from(r: &mut linalg::WireReader<'_>) -> Result<Self, linalg::WireError> {
            Ok(Counted(u64::decode_from(r)?, Arc::default()))
        }
    }

    #[test]
    fn collect_moves_unshared_partitions_and_charges_like_a_cloning_collect() {
        use dcluster::TimingModel;
        // `keep_handle` holds a second handle on the stage output across
        // the collect, which forces the clone-every-element path — the only
        // path there was before `collect` consumed its receiver.
        let run = |keep_handle: bool| {
            let c = SimCluster::new(
                ClusterConfig::scaled_cluster().with_timing(TimingModel::Contended),
            );
            let ctx = SparkleContext::new(&c);
            let clones = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let rdd = ctx.parallelize((0_u64..1_000).collect(), 7);
            let counter = Arc::clone(&clones);
            let staged = rdd.map("wrap", move |x| Counted(x * 1_000, Arc::clone(&counter)));
            let kept = keep_handle.then(|| staged.clone());
            let out: Vec<u64> = staged.collect().iter().map(|c| c.0).collect();
            drop(kept);
            let links: Vec<(f64, f64)> =
                c.link_stats().iter().map(|l| (l.bytes, l.busy_secs)).collect();
            let n_clones = clones.load(std::sync::atomic::Ordering::Relaxed);
            (out, n_clones, c.metrics().network_bytes, links)
        };
        let (moved, moved_clones, moved_bytes, moved_links) = run(false);
        let (cloned, cloned_clones, cloned_bytes, cloned_links) = run(true);
        assert_eq!(moved_clones, 0, "a temporary's partitions must move, not clone");
        assert_eq!(cloned_clones, 1_000, "shared partitions are cloned, one clone per element");
        assert_eq!(moved, cloned, "same elements, same order");
        assert_eq!(moved, (0..1_000).map(|x| x * 1_000).collect::<Vec<u64>>());
        assert!(moved_bytes > 0);
        assert_eq!(moved_bytes, cloned_bytes, "same bytes charged");
        assert_eq!(moved_links, cloned_links, "same per-partition flows on every link");
    }

    #[test]
    fn collect_over_a_persisted_rdd_leaves_the_cache_readable() {
        use dcluster::{FaultPlan, FaultSpec};
        let c = SimCluster::new(ClusterConfig::paper_cluster().with_nodes(2));
        let ctx = SparkleContext::new(&c);
        let mut rdd = ctx.parallelize((0_u64..40).collect(), 8);
        let layout = rdd.partition_sizes();
        rdd.persist_with_lineage(Lineage::new(
            vec!["parallelize".into()],
            Box::new(move |pidx| {
                let start: u64 = layout[..pidx].iter().sum::<usize>() as u64;
                (start..start + layout[pidx] as u64).collect()
            }),
        ));
        let want: Vec<u64> = (0..40).collect();
        // The cache holds every block, so collecting through a handle
        // clones; the blocks stay put for the stages that follow.
        assert_eq!(rdd.clone().collect(), want);
        assert_eq!(rdd.map("id", |x| *x).collect(), want, "a later stage still reads the cache");
        // And a crash between collects heals from lineage as for any stage.
        let plan = FaultPlan::new().with_crash(1, c.next_stage_index());
        c.install_fault_plan(FaultSpec::new(0), plan).unwrap();
        let _ = c.run_stage(StageOptions::new("tick"), vec![|| ()]);
        assert_eq!(rdd.clone().collect(), want, "collect after a crash reads recomputed blocks");
        assert_eq!(c.registry().counter("faults.partitions_recomputed").get(), 4);
        assert_eq!(rdd.map("id", |x| *x).collect(), want);
    }

    #[test]
    fn persist_detects_oversized_dataset_and_charges_spill() {
        let small = SimCluster::new(
            ClusterConfig::paper_cluster().with_nodes(1).with_memory_per_node(100),
        );
        let ctx = SparkleContext::new(&small);
        // 50 f64 elements encode to 8 B each: 400 B total.
        let mut rdd = ctx.parallelize((0..50).map(|x| x as f64).collect(), 2);
        let total = rdd.persist();
        assert_eq!(total, 400);
        assert_eq!(rdd.spill_bytes(), 300);
        let before = small.metrics().dfs_bytes_read;
        let _ = rdd.map("touch", |x| *x);
        assert_eq!(small.metrics().dfs_bytes_read - before, 300);
    }

    #[test]
    fn persist_fits_in_memory_means_no_spill() {
        let c = cluster();
        let ctx = SparkleContext::new(&c);
        let mut rdd = ctx.parallelize((0_u64..50).collect(), 2);
        rdd.persist();
        assert_eq!(rdd.spill_bytes(), 0);
        let _ = rdd.map("touch", |x| *x);
        assert_eq!(c.metrics().dfs_bytes_read, 0);
    }

    #[test]
    fn map_partitions_sees_whole_partition() {
        let c = cluster();
        let ctx = SparkleContext::new(&c);
        let rdd = ctx.parallelize((0_u64..12).collect(), 3);
        let sums = rdd.map_partitions("psum", |part| vec![part.iter().sum::<u64>()]);
        assert_eq!(sums.count(), 3);
        let total: u64 = sums.collect().iter().sum();
        assert_eq!(total, 66);
    }

    #[test]
    fn union_concatenates_partitions() {
        let c = cluster();
        let ctx = SparkleContext::new(&c);
        let a = ctx.parallelize((0_u64..5).collect(), 2);
        let b = ctx.parallelize((5_u64..8).collect(), 1);
        let u = a.union(&b);
        assert_eq!(u.num_partitions(), 3);
        assert_eq!(u.collect(), (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn sample_is_seeded_and_roughly_proportional() {
        let c = cluster();
        let ctx = SparkleContext::new(&c);
        let rdd = ctx.parallelize((0_u64..10_000).collect(), 4);
        let s1 = rdd.sample("s", 0.2, 9);
        let s2 = rdd.sample("s", 0.2, 9);
        let count = s1.count() as f64;
        assert!((count / 10_000.0 - 0.2).abs() < 0.03, "got fraction {}", count / 10_000.0);
        let first = s1.collect();
        assert_eq!(first, s2.collect(), "same seed, same sample");
        let s3 = rdd.sample("s", 0.2, 10);
        assert_ne!(first, s3.collect(), "different seed, different sample");
    }

    #[test]
    fn tree_merge_covers_every_count() {
        assert_eq!(tree_merge(Vec::<u64>::new(), || 9, |a, b| *a += b), 9);
        for n in 1..=17u64 {
            let parts: Vec<u64> = (1..=n).collect();
            assert_eq!(tree_merge(parts, || 0, |a, b| *a += b), n * (n + 1) / 2);
        }
        // The merge structure depends only on the count: pairwise rounds.
        let order = std::cell::RefCell::new(Vec::new());
        let _ = tree_merge(
            vec!["a".to_string(), "b".into(), "c".into(), "d".into(), "e".into()],
            String::new,
            |a, b| {
                order.borrow_mut().push(format!("{a}+{b}"));
                a.push_str(&b);
            },
        );
        assert_eq!(
            order.into_inner(),
            vec!["a+b", "c+d", "ab+cd", "abcd+e"],
            "fixed pairwise rounds"
        );
    }

    /// The streamed fold against `tree_merge` with a merge that records its
    /// association, `(a b)`: any other pairing, order or block boundary
    /// changes the string. Every block merge is `tree_merge` itself.
    #[test]
    fn tree_fold_is_tree_merge_for_every_count_and_block() {
        let merge = |a: &mut String, b: String| *a = format!("({a} {b})");
        let block = |vals: Vec<String>| tree_merge(vals, String::new, merge);
        let counts = (1..=130).chain([255, 256, 257, 1_023, 1_024, 1_025, 2_001, 4_096]);
        for n in counts {
            let leaves: Vec<String> = (0..n).map(|i| i.to_string()).collect();
            let want = tree_merge(leaves.clone(), String::new, merge);
            for g in [2, 4, 8, 16, n.max(2)] {
                let mut fold = TreeFold::new(g);
                for leaf in leaves.iter().cloned() {
                    fold.push(leaf, block);
                }
                // The memory bound: below the top level, never more than
                // g − 1 values wait at a level, plus the one that
                // completes a block.
                let levels = std::iter::successors(Some(1usize), |w| w.checked_mul(g))
                    .take_while(|&w| w < n)
                    .count();
                assert!(
                    fold.peak() <= (g - 1) * levels + 1,
                    "n = {n}, g = {g}: held {} values over {levels} levels",
                    fold.peak()
                );
                assert_eq!(fold.finish(block).as_ref(), Some(&want), "n = {n}, g = {g}");
            }
        }
        assert_eq!(TreeFold::<String>::new(4).finish(block), None);
    }

    /// `tree_merge_rows` against `tree_merge` of the same packed partials,
    /// on values from ±2^±40 plus exact and negative zeros: any other
    /// association, or a pass-through turned into an add, changes a bit.
    #[test]
    fn tree_merge_rows_is_tree_merge_per_column() {
        type Packed = (Vec<u32>, Vec<f64>);
        let merge = |a: &mut Packed, b: Packed| {
            let mut out: Packed = (Vec::new(), Vec::new());
            let (mut i, mut j) = (0, 0);
            while i < a.0.len() || j < b.0.len() {
                let (ca, cb) = (a.0.get(i).copied(), b.0.get(j).copied());
                if ca.is_some() && (cb.is_none() || ca < cb) {
                    out.0.push(a.0[i]);
                    out.1.push(a.1[i]);
                    i += 1;
                } else if ca == cb {
                    out.0.push(a.0[i]);
                    out.1.push(a.1[i] + b.1[j]);
                    (i, j) = (i + 1, j + 1);
                } else {
                    out.0.push(b.0[j]);
                    out.1.push(b.1[j]);
                    j += 1;
                }
            }
            *a = out;
        };
        let bits = |p: &Packed| (p.0.clone(), p.1.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        let pools = [WorkerPool::new(1), WorkerPool::new(3)];
        let mut rng = linalg::Prng::seed_from_u64(22);
        for n in 0..=70usize {
            let parts: Vec<Packed> = (0..n)
                .map(|_| {
                    let cols: Vec<u32> = (0..12).filter(|_| rng.uniform() < 0.4).collect();
                    let vals = cols
                        .iter()
                        .map(|_| match rng.index(8) {
                            0 => 0.0,
                            1 => -0.0,
                            k => (k as f64 - 4.5) * 2f64.powi(rng.index(81) as i32 - 40),
                        })
                        .collect();
                    (cols, vals)
                })
                .collect();
            let want = bits(&tree_merge(parts.clone(), Packed::default, merge));
            let views: Vec<(&[u32], &[f64])> =
                parts.iter().map(|(c, v)| (&c[..], &v[..])).collect();
            for pool in &pools {
                assert_eq!(bits(&tree_merge_rows(pool, &views, 1)), want, "n = {n}");
            }
        }
    }

    #[test]
    fn map_partitions_with_index_sees_layout_index() {
        let c = cluster();
        let ctx = SparkleContext::new(&c);
        let rdd = ctx.from_partitions(vec![vec![10_u64], vec![20, 21], vec![30]]);
        let tagged = rdd.map_partitions_with_index("tag", |idx, part| {
            part.iter().map(|x| (idx as u64, *x)).collect::<Vec<_>>()
        });
        assert_eq!(tagged.collect(), vec![(0, 10), (1, 20), (1, 21), (2, 30)]);
    }

    #[test]
    fn sample_is_identical_across_worker_counts() {
        use linalg::WorkerPool;
        let run_with = |workers: usize| {
            let c = SimCluster::new_with_pool(
                ClusterConfig::paper_cluster(),
                Arc::new(WorkerPool::new(workers)),
            );
            let ctx = SparkleContext::new(&c);
            let rdd = ctx.parallelize((0_u64..5_000).collect(), 7);
            let out = rdd.sample("s", 0.3, 42).collect();
            out
        };
        let one = run_with(1);
        assert_eq!(one, run_with(2), "1 vs 2 workers");
        assert_eq!(one, run_with(8), "1 vs 8 workers");
    }

    #[test]
    fn aggregate_partitions_matches_elementwise_aggregate() {
        let c = cluster();
        let ctx = SparkleContext::new(&c);
        let rdd = ctx.parallelize((1_u64..=100).collect(), 5);
        let (by_elem, bytes_elem) =
            rdd.aggregate("sum", || 0_u64, |a, x| *a += x, |a, b| *a += b);
        let (by_part, bytes_part) = rdd.aggregate_partitions(
            "psum",
            || 0_u64,
            |a, part| *a += part.iter().sum::<u64>(),
            |a, b| *a += b,
        );
        assert_eq!(by_elem, by_part);
        assert_eq!(bytes_elem, bytes_part, "same partial count, same accumulator bytes");
    }

    /// The streaming aggregate charges exactly what the collecting stage
    /// it replaced did — that stage's partials, sized one by one, then one
    /// `"accumulator-merge"` flow per partition after the stage — under
    /// every codec and both timing models: same bytes, same
    /// flows (contended network time depends on them), same result.
    #[test]
    fn streaming_aggregate_charges_what_the_collecting_stage_did() {
        use dcluster::TimingModel;
        use linalg::WireCodec;
        type Partial = Vec<f64>;
        let init = Partial::new;
        // ~5–10 KB partials: their flows take whole virtual microseconds.
        let fold = |acc: &mut Partial, part: &[u64]| {
            acc.extend(part.iter().flat_map(|&x| (0..8).map(move |k| (x * k) as f64 / 7.0)));
        };
        let merge = |a: &mut Partial, b: Partial| a.extend(b);
        let data: Vec<u64> = (0..1_000).map(|i| i * i % 977).collect();
        let base = ClusterConfig::paper_cluster().with_nodes(3);
        let configs = [
            base.clone(),
            base.clone().with_wire_codec(WireCodec::V3),
            base.clone().with_wire_codec(WireCodec::V3Quantized),
        ];
        for timing in [TimingModel::Uncontended, TimingModel::Contended] {
            for cfg in &configs {
                let cfg = cfg.clone().with_timing(timing);
                let run = |path: u8| {
                    let c = SimCluster::new(cfg.clone());
                    let rdd = SparkleContext::new(&c).parallelize(data.clone(), 11);
                    let (value, bytes) = match path {
                        // The collecting stage and driver reduction the
                        // aggregates ran before the streaming one.
                        0 => {
                            let tasks: Vec<_> = rdd
                                .snapshot()
                                .into_iter()
                                .map(|p| {
                                    move || {
                                        let mut acc = init();
                                        fold(&mut acc, &p);
                                        acc
                                    }
                                })
                                .collect();
                            let partials = c.run_stage(StageOptions::new("agg"), tasks);
                            let sizes: Vec<u64> =
                                partials.iter().map(|p| c.wire_codec().shuffle_size(p)).collect();
                            c.charge(Meter::Network, Load::PerEndpoint(&sizes), "accumulator-merge");
                            (tree_merge(partials, init, merge), sizes.iter().sum())
                        }
                        1 => rdd.aggregate_partitions("agg", init, fold, merge),
                        _ => {
                            let mut tf = TreeFold::new(2);
                            let block = |vals| tree_merge(vals, init, merge);
                            let bytes = rdd.aggregate_each("agg", init, fold, |p| {
                                tf.push(p, block)
                            });
                            (tf.finish(block).unwrap(), bytes)
                        }
                    };
                    let m = c.metrics();
                    let bits: Vec<u64> = value.iter().map(|v| v.to_bits()).collect();
                    // The clock's network share, to the µs its rounding
                    // against a measured (CPU) start allows.
                    let net_us = m.time_us[dcluster::metrics::TimeCategory::Network.index()];
                    ((bits, bytes, m.network_bytes, m.intermediate_bytes, m.stages.len()), net_us)
                };
                let (want, want_us) = run(0);
                assert!(want.1 > 0 && want_us > 10, "{cfg:?}: nothing was charged");
                for (path, name) in [(1, "aggregate_partitions"), (2, "aggregate_each")] {
                    let (got, got_us) = run(path);
                    assert_eq!(got, want, "{name} under {cfg:?}");
                    assert!(got_us.abs_diff(want_us) <= 1, "{name} under {cfg:?}: network time");
                }
            }
        }
    }

    #[test]
    fn zip_partitions_aligns_by_partition() {
        let c = cluster();
        let ctx = SparkleContext::new(&c);
        let a = ctx.from_partitions(vec![vec![1_u64, 2], vec![3]]);
        let b = ctx.from_partitions(vec![vec![10_u64, 20], vec![30]]);
        let z = a.zip_partitions("zip", &b, |xs, ys| {
            xs.iter().zip(ys).map(|(x, y)| x + y).collect::<Vec<u64>>()
        });
        assert_eq!(z.collect(), vec![11, 22, 33]);
    }

    #[test]
    #[should_panic(expected = "partition counts differ")]
    fn zip_partitions_rejects_mismatched_layout() {
        let c = cluster();
        let ctx = SparkleContext::new(&c);
        let a = ctx.parallelize((0_u64..4).collect(), 2);
        let b = ctx.parallelize((0_u64..4).collect(), 4);
        let _ = a.zip_partitions("zip", &b, |x, _| x.to_vec());
    }

    #[test]
    fn lineage_recomputes_lost_partitions_exactly() {
        use dcluster::{FaultPlan, FaultSpec, RecoveryEvent};
        let c = SimCluster::new(ClusterConfig::paper_cluster().with_nodes(2));
        let ctx = SparkleContext::new(&c);
        let source: Vec<u64> = (0..40).collect();
        let mut rdd = ctx.parallelize(source.clone(), 8);
        let layout = rdd.partition_sizes();
        let src = source.clone();
        rdd.persist_with_lineage(Lineage::new(
            vec!["parallelize".into()],
            Box::new(move |pidx| {
                let start: usize = layout[..pidx].iter().sum();
                src[start..start + layout[pidx]].to_vec()
            }),
        ));
        let before = rdd.map("sum", |x| *x).collect();

        // Crash node 1: cached partitions 1,3,5,7 drop; the next stage
        // must heal them from lineage and read identical data.
        c.install_fault_plan(FaultSpec::new(0), FaultPlan::new().with_crash(1, c.next_stage_index())).unwrap();
        let _ = c.run_stage(StageOptions::new("tick"), vec![|| ()]);
        let after = rdd.map("sum", |x| *x).collect();
        assert_eq!(before, after, "recomputed partitions must be identical");

        let recomputed: Vec<usize> = c
            .recovery_log()
            .iter()
            .filter_map(|e| match e {
                RecoveryEvent::PartitionRecomputed { partition, .. } => Some(*partition),
                _ => None,
            })
            .collect();
        assert_eq!(recomputed, vec![1, 3, 5, 7], "node 1 of 2 owns the odd partitions");
        assert!(c.registry().counter("faults.partitions_recomputed").get() >= 4);
    }

    #[test]
    fn lineage_source_share_is_charged_on_recompute() {
        use dcluster::{FaultPlan, FaultSpec};
        let c = SimCluster::new(ClusterConfig::paper_cluster().with_nodes(2));
        c.dfs().seed(&c, "input", 8_000);
        let ctx = SparkleContext::new(&c);
        let mut rdd = ctx.parallelize((0_u64..16).collect(), 4);
        rdd.persist_with_lineage(
            Lineage::new(vec!["read".into()], Box::new(|pidx| {
                (pidx as u64 * 4..pidx as u64 * 4 + 4).collect()
            }))
            .with_source("input"),
        );
        c.install_fault_plan(FaultSpec::new(0), FaultPlan::new().with_crash(0, c.next_stage_index())).unwrap();
        let _ = c.run_stage(StageOptions::new("tick"), vec![|| ()]);
        let read_before = c.metrics().dfs_bytes_read;
        let _ = rdd.map("touch", |x| *x);
        // Node 0 owns partitions 0 and 2: two recomputes x 2000 B share.
        assert_eq!(c.metrics().dfs_bytes_read - read_before, 4_000);
    }

    #[test]
    fn unharmed_cache_is_never_recomputed() {
        let c = cluster();
        let ctx = SparkleContext::new(&c);
        let mut rdd = ctx.parallelize((0_u64..16).collect(), 4);
        rdd.persist_with_lineage(Lineage::new(
            vec!["x".into()],
            Box::new(|_| panic!("no partition was lost — recompute must not run")),
        ));
        assert_eq!(rdd.map("touch", |x| *x + 1).count(), 16);
        assert!(rdd.cache_id().is_some());
    }

    #[test]
    fn stages_are_recorded_with_labels() {
        let c = cluster();
        let ctx = SparkleContext::new(&c);
        let rdd = ctx.parallelize((0_u64..4).collect(), 2);
        let _ = rdd.map("step-one", |x| x + 1).map("step-two", |x| x * 2);
        let labels: Vec<String> = c.metrics().stages.iter().map(|s| s.label.clone()).collect();
        assert_eq!(labels, vec!["step-one".to_string(), "step-two".to_string()]);
    }
}
