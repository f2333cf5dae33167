//! Job execution: map stage, combine, shuffle, reduce stage.

use dcluster::{SimCluster, StageOptions};

use crate::job::{for_each_group, Emitter, MapReduceJob};

/// Per-job byte and record counters (the Hadoop counters the paper quotes).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobStats {
    /// Bytes emitted by mappers before combining ("map output bytes") —
    /// charged to the simulated local disk as the spill.
    pub map_emit_bytes: u64,
    /// Records emitted by mappers before combining.
    pub map_emit_records: usize,
    /// Bytes crossing the network after per-mapper combining.
    pub shuffle_bytes: u64,
    /// Number of distinct shuffle keys.
    pub distinct_keys: usize,
}

/// Sorted `(key, output)` pairs a job produces.
pub type JobOutput<J> =
    Vec<(<J as MapReduceJob>::Key, <J as MapReduceJob>::Output)>;

/// Executes [`MapReduceJob`]s on a simulated cluster with Hadoop-flavoured
/// overheads.
#[derive(Debug, Clone, Copy)]
pub struct MapReduceEngine<'a> {
    cluster: &'a SimCluster,
    /// Flat virtual job-initialization cost (Hadoop: several seconds).
    job_overhead_secs: f64,
    /// Per-task virtual slot launch cost.
    task_overhead_secs: f64,
}

impl<'a> MapReduceEngine<'a> {
    /// Engine with Hadoop-like default overheads (6 s per job, 1 s per
    /// task), the regime in which the paper observes "the overheads of the
    /// Hadoop framework and job initialization have a larger relative
    /// impact in the smaller case".
    pub fn new(cluster: &'a SimCluster) -> Self {
        MapReduceEngine { cluster, job_overhead_secs: 6.0, task_overhead_secs: 1.0 }
    }

    /// Overrides both overhead knobs.
    pub fn with_overheads(mut self, job_secs: f64, task_secs: f64) -> Self {
        self.job_overhead_secs = job_secs;
        self.task_overhead_secs = task_secs;
        self
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &'a SimCluster {
        self.cluster
    }

    /// Runs a job over row partitions with the given reduce parallelism.
    /// Outputs come back sorted by key (as Hadoop delivers them).
    pub fn run_job<J: MapReduceJob>(
        &self,
        name: &str,
        job: &J,
        partitions: &[J::Input],
        reducers: usize,
    ) -> (JobOutput<J>, JobStats) {
        assert!(reducers > 0, "run_job: need at least one reducer");
        if obs::enabled() {
            self.cluster.trace_begin(
                "job",
                &format!("job:{name}"),
                vec![("partitions", (partitions.len() as u64).into())],
            );
        }
        self.cluster.advance_time_labeled(self.job_overhead_secs, "job-init");
        // Byte meters price records under the cluster's sizing policy:
        // real encoded lengths by default. Shuffle-family records (map
        // emits, spills, the shuffle itself) additionally go through the
        // negotiated wire codec; input splits stay exact v2.
        let sizing = self.cluster.sizing();
        let codec = self.cluster.wire_codec();

        // ---- Map stage (with per-mapper combine and shuffle sizing, inside
        // the timed task). A mapper's output is a run sorted by key.
        type MapOut<K, V> = (Vec<(K, V)>, u64, usize, u64);
        let map_tasks: Vec<_> = partitions
            .iter()
            .map(|p| {
                move || -> MapOut<J::Key, J::Value> {
                    let combiner = |k: &J::Key, vs: Vec<J::Value>| job.combine(k, vs);
                    let mut emitter =
                        Emitter::with_combiner(&combiner).with_sizing(sizing).with_codec(codec);
                    job.map(p, &mut emitter);
                    let (pairs, bytes, records) = emitter.into_parts();
                    let mut combined = Vec::with_capacity(pairs.len());
                    let mut shuffle_bytes = 0;
                    for_each_group(pairs, |k, vs| {
                        for v in job.combine(&k, vs) {
                            shuffle_bytes += codec.shuffle_size_of(sizing, &k)
                                + codec.shuffle_size_of(sizing, &v);
                            combined.push((k.clone(), v));
                        }
                    });
                    (combined, bytes, records, shuffle_bytes)
                }
            })
            .collect();
        // Recovery sizing: a map task killed by a node crash re-reads its
        // HDFS split (MapReduce's recovery path — inputs are materialized,
        // unlike Spark's recompute-from-lineage).
        let input_bytes: u64 = partitions.iter().map(|p| sizing.size_of(p)).sum();
        let map_reexec_bytes = input_bytes / partitions.len().max(1) as u64;
        let map_outputs = self.cluster.run_stage(
            StageOptions::new(format!("{name}/map"))
                .with_task_overhead(self.task_overhead_secs)
                .with_reexec_read_bytes(map_reexec_bytes),
            map_tasks,
        );

        // ---- Sort & group (Hadoop's merge sort), on the driver: the
        // mappers' sorted runs back to back in mapper order, one stable
        // sort (a merge of presorted runs, so a key's values stay in
        // mapper order), then contiguous key ranges for the reducers.
        let sort_span = obs::span("driver", "shuffle sort");
        let mut stats = JobStats::default();
        // Per-mapper byte counts feed the contended timing model as one
        // flow per mapper endpoint (mapper m spills to node m % nodes's
        // disk and ships through its link); totals meter as before.
        let mut spill_sizes = Vec::with_capacity(map_outputs.len());
        let mut shuffle_sizes = Vec::with_capacity(map_outputs.len());
        let mut merged: Vec<(J::Key, J::Value)> =
            Vec::with_capacity(map_outputs.iter().map(|m| m.0.len()).sum());
        for (pairs, bytes, records, shuffle_bytes) in map_outputs {
            stats.map_emit_bytes += bytes;
            stats.map_emit_records += records;
            stats.shuffle_bytes += shuffle_bytes;
            spill_sizes.push(bytes);
            shuffle_sizes.push(shuffle_bytes);
            merged.extend(pairs);
        }
        merged.sort_by(|a, b| a.0.cmp(&b.0));
        // Index of the first pair of every distinct key.
        let key_starts: Vec<usize> = (0..merged.len())
            .filter(|&i| i == 0 || merged[i - 1].0 != merged[i].0)
            .collect();
        stats.distinct_keys = key_starts.len();
        // Cut from the back, so every `split_off` moves one range only.
        let keys_per_reducer = key_starts.len().div_ceil(reducers).max(1);
        let mut ranges: Vec<Vec<(J::Key, J::Value)>> = key_starts
            .chunks(keys_per_reducer)
            .rev()
            .map(|keys| merged.split_off(keys[0]))
            .collect();
        ranges.reverse();
        drop(sort_span);
        // Mapper spill to local disk at pre-combine size; shuffle over the
        // network at post-combine size.
        self.cluster.charge_dfs_write_flows(&spill_sizes, "map-spill");
        self.cluster.charge_network_flows(&shuffle_sizes, "shuffle");

        // ---- Reduce stage: each task walks the runs of its key range.
        let reduce_chunks = ranges.len();
        let reduce_tasks: Vec<_> = ranges
            .into_iter()
            .map(|range| {
                move || -> Vec<(J::Key, J::Output)> {
                    let mut out = Vec::new();
                    for_each_group(range, |k, vs| out.push((k.clone(), job.reduce(k, vs))));
                    out
                }
            })
            .collect();
        // A re-executed reducer re-fetches its share of the (disk-backed)
        // map output.
        let reduce_reexec_bytes = stats.shuffle_bytes / reduce_chunks.max(1) as u64;
        let reduce_outputs = self.cluster.run_stage(
            StageOptions::new(format!("{name}/reduce"))
                .with_task_overhead(self.task_overhead_secs)
                .with_reexec_read_bytes(reduce_reexec_bytes),
            reduce_tasks,
        );

        if obs::enabled() {
            let reg = self.cluster.registry();
            reg.counter("mr.jobs").inc();
            reg.counter("mr.shuffle_bytes").add(stats.shuffle_bytes);
            self.cluster.trace_end(
                "job",
                &format!("job:{name}"),
                vec![
                    ("shuffle_bytes", stats.shuffle_bytes.into()),
                    ("map_emit_bytes", stats.map_emit_bytes.into()),
                    ("distinct_keys", (stats.distinct_keys as u64).into()),
                ],
            );
        }
        (reduce_outputs.into_iter().flatten().collect(), stats)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::job::SPILL_THRESHOLD;
    use dcluster::ClusterConfig;
    use linalg::{Prng, WireCodec};

    /// Word-count over integer "documents": key = value % modulus.
    struct ModCount {
        modulus: u64,
    }

    impl MapReduceJob for ModCount {
        type Input = Vec<u64>;
        type Key = u64;
        type Value = u64;
        type Output = u64;

        fn map(&self, partition: &Vec<u64>, emitter: &mut Emitter<u64, u64>) {
            for &x in partition {
                emitter.emit(x % self.modulus, 1);
            }
        }

        fn combine(&self, _key: &u64, values: Vec<u64>) -> Vec<u64> {
            vec![values.iter().sum()]
        }

        fn reduce(&self, _key: u64, values: Vec<u64>) -> u64 {
            values.iter().sum()
        }
    }

    fn cluster() -> SimCluster {
        SimCluster::new(ClusterConfig::paper_cluster())
    }

    #[test]
    fn counts_are_correct_and_sorted() {
        let c = cluster();
        let engine = MapReduceEngine::new(&c).with_overheads(0.0, 0.0);
        let parts: Vec<Vec<u64>> = vec![(0..50).collect(), (50..100).collect()];
        let (out, stats) = engine.run_job("modcount", &ModCount { modulus: 3 }, &parts, 2);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], (0, 34)); // 0,3,…,99
        assert_eq!(out[1], (1, 33));
        assert_eq!(out[2], (2, 33));
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "outputs sorted by key");
        assert_eq!(stats.map_emit_records, 100);
        assert_eq!(stats.distinct_keys, 3);
    }

    #[test]
    fn combiner_shrinks_shuffle_but_not_map_output() {
        let c = cluster();
        let engine = MapReduceEngine::new(&c).with_overheads(0.0, 0.0);
        let parts: Vec<Vec<u64>> = vec![(0..1000).collect()];
        let (_, stats) = engine.run_job("modcount", &ModCount { modulus: 2 }, &parts, 1);
        // 1000 emitted records of 2 encoded bytes each (1-byte varint key
        // 0/1 + 1-byte varint value 1), combined to 2 pairs per mapper of
        // (key, 500) = 1 + 2 encoded bytes.
        assert_eq!(stats.map_emit_bytes, 2_000);
        assert_eq!(stats.shuffle_bytes, 6);
    }

    #[test]
    fn estimated_sizing_restores_legacy_byte_counts() {
        let c = SimCluster::new(ClusterConfig::paper_cluster().with_estimated_sizes());
        let engine = MapReduceEngine::new(&c).with_overheads(0.0, 0.0);
        let parts: Vec<Vec<u64>> = vec![(0..1000).collect()];
        let (_, stats) = engine.run_job("modcount", &ModCount { modulus: 2 }, &parts, 1);
        // Legacy flat estimate: 1000 records of 8 + 8 B, combined to 2.
        assert_eq!(stats.map_emit_bytes, 16_000);
        assert_eq!(stats.shuffle_bytes, 32);
    }

    #[test]
    fn bytes_are_charged_to_cluster_meters() {
        let c = cluster();
        let engine = MapReduceEngine::new(&c).with_overheads(0.0, 0.0);
        let parts: Vec<Vec<u64>> = vec![(0..100).collect()];
        let (_, stats) = engine.run_job("modcount", &ModCount { modulus: 5 }, &parts, 1);
        let m = c.metrics();
        assert_eq!(m.dfs_bytes_written, stats.map_emit_bytes);
        assert_eq!(m.network_bytes, stats.shuffle_bytes);
        assert_eq!(m.intermediate_bytes, stats.map_emit_bytes + stats.shuffle_bytes);
    }

    #[test]
    fn job_overhead_advances_virtual_clock() {
        let c = cluster();
        let engine = MapReduceEngine::new(&c); // defaults: 6 s job, 1 s task
        let parts: Vec<Vec<u64>> = vec![vec![1, 2, 3]];
        let _ = engine.run_job("tiny", &ModCount { modulus: 2 }, &parts, 1);
        // ≥ 6 s job init + 1 s map task + 1 s reduce task.
        assert!(c.metrics().virtual_time_secs >= 8.0);
    }

    #[test]
    fn many_reducers_with_few_keys() {
        let c = cluster();
        let engine = MapReduceEngine::new(&c).with_overheads(0.0, 0.0);
        let parts: Vec<Vec<u64>> = vec![(0..10).collect()];
        let (out, _) = engine.run_job("modcount", &ModCount { modulus: 2 }, &parts, 16);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn empty_input_produces_no_output() {
        let c = cluster();
        let engine = MapReduceEngine::new(&c).with_overheads(0.0, 0.0);
        let parts: Vec<Vec<u64>> = vec![vec![]];
        let (out, stats) = engine.run_job("modcount", &ModCount { modulus: 2 }, &parts, 4);
        assert!(out.is_empty());
        assert_eq!(stats.map_emit_bytes, 0);
    }

    // ---- Differential oracle: the `BTreeMap` regrouping the sorted runs
    // replaced, kept as the reference the engine must agree with.

    /// A reference reducer's slice of grouped key/value lists.
    type ReduceChunk<J> = Vec<(<J as MapReduceJob>::Key, Vec<<J as MapReduceJob>::Value>)>;

    /// Groups `pairs` through a `BTreeMap`, combines every group, and lays
    /// the results out in key order — one spill of the reference mapper.
    fn reference_combine<J: MapReduceJob>(
        job: &J,
        pairs: Vec<(J::Key, J::Value)>,
    ) -> Vec<(J::Key, J::Value)> {
        let mut grouped: BTreeMap<J::Key, Vec<J::Value>> = BTreeMap::new();
        for (k, v) in pairs {
            grouped.entry(k).or_default().push(v);
        }
        let mut combined = Vec::new();
        for (k, vs) in grouped {
            for v in job.combine(&k, vs) {
                combined.push((k.clone(), v));
            }
        }
        combined
    }

    impl MapReduceEngine<'_> {
        /// `run_job` as it was before sorted runs: three `BTreeMap`
        /// regroupings (spill, per-mapper combine, driver) and reducers
        /// handed materialized key/value lists. The emitter here never
        /// spills; the spill schedule (combine the buffer in place every
        /// time it reaches `SPILL_THRESHOLD`) is replayed over what it
        /// collected, so the reference shares no grouping code with the
        /// engine.
        fn reference_run_job<J: MapReduceJob>(
            &self,
            name: &str,
            job: &J,
            partitions: &[J::Input],
            reducers: usize,
        ) -> (JobOutput<J>, JobStats) {
            self.cluster.advance_time_labeled(self.job_overhead_secs, "job-init");
            let sizing = self.cluster.sizing();
            let codec = self.cluster.wire_codec();
            let map_tasks: Vec<_> = partitions
                .iter()
                .map(|p| {
                    move || {
                        let mut emitter = Emitter::new().with_sizing(sizing).with_codec(codec);
                        job.map(p, &mut emitter);
                        let (pairs, bytes, records) = emitter.into_parts();
                        let mut buffer = Vec::new();
                        for pair in pairs {
                            buffer.push(pair);
                            if buffer.len() >= SPILL_THRESHOLD {
                                buffer = reference_combine(job, buffer);
                            }
                        }
                        (reference_combine(job, buffer), bytes, records)
                    }
                })
                .collect();
            let input_bytes: u64 = partitions.iter().map(|p| sizing.size_of(p)).sum();
            let map_outputs = self.cluster.run_stage(
                StageOptions::new(format!("{name}/map"))
                    .with_task_overhead(self.task_overhead_secs)
                    .with_reexec_read_bytes(input_bytes / partitions.len().max(1) as u64),
                map_tasks,
            );

            let mut stats = JobStats::default();
            let mut grouped: BTreeMap<J::Key, Vec<J::Value>> = BTreeMap::new();
            let mut spill_sizes = Vec::new();
            let mut shuffle_sizes = Vec::new();
            for (pairs, bytes, records) in map_outputs {
                stats.map_emit_bytes += bytes;
                stats.map_emit_records += records;
                let mapper_shuffle: u64 = pairs
                    .iter()
                    .map(|(k, v)| {
                        codec.shuffle_size_of(sizing, k) + codec.shuffle_size_of(sizing, v)
                    })
                    .sum();
                stats.shuffle_bytes += mapper_shuffle;
                spill_sizes.push(bytes);
                shuffle_sizes.push(mapper_shuffle);
                for (k, v) in pairs {
                    grouped.entry(k).or_default().push(v);
                }
            }
            self.cluster.charge_dfs_write_flows(&spill_sizes, "map-spill");
            self.cluster.charge_network_flows(&shuffle_sizes, "shuffle");
            stats.distinct_keys = grouped.len();

            let chunk = grouped.len().div_ceil(reducers).max(1);
            let mut chunks: Vec<ReduceChunk<J>> = Vec::new();
            let mut entries = grouped.into_iter().peekable();
            while entries.peek().is_some() {
                chunks.push(entries.by_ref().take(chunk).collect());
            }
            let reduce_reexec_bytes = stats.shuffle_bytes / chunks.len().max(1) as u64;
            let reduce_tasks: Vec<_> = chunks
                .into_iter()
                .map(|chunk| {
                    move || -> Vec<(J::Key, J::Output)> {
                        chunk.into_iter().map(|(k, vs)| (k.clone(), job.reduce(k, vs))).collect()
                    }
                })
                .collect();
            let reduce_outputs = self.cluster.run_stage(
                StageOptions::new(format!("{name}/reduce"))
                    .with_task_overhead(self.task_overhead_secs)
                    .with_reexec_read_bytes(reduce_reexec_bytes),
                reduce_tasks,
            );
            (reduce_outputs.into_iter().flatten().collect(), stats)
        }
    }

    /// How [`Reveal`] combines one key's values on the mapper.
    #[derive(Debug, Clone, Copy)]
    enum Combine {
        /// The trait's default: values pass through.
        Passthrough,
        /// One value: the concatenation, closed by a group-size marker.
        Concat,
        /// Two values: the first one untouched, then the rest concatenated.
        Split,
    }

    /// A job whose outputs spell out every grouping decision the engine
    /// made: `combine` and `reduce` concatenate instead of adding, and mark
    /// where each value began and how many values each call saw.
    struct Reveal(Combine);

    const MARK: u64 = 1 << 40;

    impl MapReduceJob for Reveal {
        type Input = Vec<(u32, u64)>;
        type Key = u32;
        type Value = Vec<u64>;
        type Output = Vec<u64>;

        fn map(&self, partition: &Vec<(u32, u64)>, emitter: &mut Emitter<'_, u32, Vec<u64>>) {
            for &(k, v) in partition {
                emitter.emit(k, vec![v]);
            }
        }

        fn combine(&self, _key: &u32, mut values: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
            let marker = MARK + values.len() as u64;
            match self.0 {
                Combine::Passthrough => values,
                Combine::Concat => vec![values.into_iter().flatten().chain([marker]).collect()],
                Combine::Split => {
                    let rest = values.split_off(1);
                    values.push(rest.into_iter().flatten().chain([marker]).collect());
                    values
                }
            }
        }

        fn reduce(&self, key: u32, values: Vec<Vec<u64>>) -> Vec<u64> {
            let mut out = vec![u64::from(key), values.len() as u64];
            for v in values {
                out.push(2 * MARK);
                out.extend(v);
            }
            out
        }
    }

    /// Runs `job` through the engine and through the reference, each on a
    /// fresh cluster of `config`, and asserts that nothing observable
    /// differs: outputs, job counters, stage task counts, byte meters.
    fn assert_matches_reference(
        config: &ClusterConfig,
        job: &Reveal,
        partitions: &[Vec<(u32, u64)>],
        reducers: usize,
    ) {
        let context = format!("{:?}, {} mappers, {reducers} reducers", job.0, partitions.len());
        let (ours, theirs) = (SimCluster::new(config.clone()), SimCluster::new(config.clone()));
        let got = MapReduceEngine::new(&ours).run_job("reveal", job, partitions, reducers);
        let want =
            MapReduceEngine::new(&theirs).reference_run_job("reveal", job, partitions, reducers);
        assert_eq!(got.1, want.1, "{context}: job stats");
        assert_eq!(got.0, want.0, "{context}: outputs");
        let (ours, theirs) = (ours.metrics(), theirs.metrics());
        let stages = |m: &dcluster::MetricsSnapshot| -> Vec<(String, usize)> {
            m.stages.iter().map(|s| (s.label.clone(), s.tasks)).collect()
        };
        assert_eq!(stages(&ours), stages(&theirs), "{context}: stages");
        let meters = |m: &dcluster::MetricsSnapshot| {
            [m.network_bytes, m.dfs_bytes_written, m.dfs_bytes_read, m.intermediate_bytes]
        };
        assert_eq!(meters(&ours), meters(&theirs), "{context}: byte meters");
    }

    /// `records` pairs with keys drawn from `0..keys` in no particular
    /// order (duplicates within a mapper and across mappers) and distinct
    /// values, so every output position names the record that landed there.
    fn random_partition(rng: &mut Prng, records: usize, keys: usize, tag: u64) -> Vec<(u32, u64)> {
        (0..records).map(|i| (rng.index(keys) as u32, tag * 1_000_000 + i as u64)).collect()
    }

    #[test]
    fn sorted_runs_agree_with_the_btreemap_oracle_on_random_jobs() {
        let configs = [
            ClusterConfig::paper_cluster(),
            ClusterConfig::paper_cluster().with_estimated_sizes(),
            ClusterConfig::paper_cluster().with_wire_codec(WireCodec::V3),
        ];
        let mut rng = Prng::seed_from_u64(22);
        for round in 0..60 {
            let mappers = 1 + rng.index(6);
            let keys = 1 + rng.index(40);
            let partitions: Vec<Vec<(u32, u64)>> = (0..mappers)
                .map(|m| {
                    let records = rng.index(120);
                    random_partition(&mut rng, records, keys, m as u64)
                })
                .collect();
            let combine = [Combine::Passthrough, Combine::Concat, Combine::Split][round % 3];
            // One reducer, a few, the cluster's usual eight, more than keys.
            for reducers in [1, 3, 8, keys + 5] {
                let config = &configs[round % configs.len()];
                assert_matches_reference(config, &Reveal(combine), &partitions, reducers);
            }
        }
    }

    #[test]
    fn sorted_runs_agree_with_the_btreemap_oracle_across_spills() {
        let config = ClusterConfig::paper_cluster();
        let mut rng = Prng::seed_from_u64(23);
        // A real combiner empties the buffer at every spill: two spills and
        // a remainder on the big mapper, none on the small one.
        let partitions = vec![
            random_partition(&mut rng, 2 * SPILL_THRESHOLD + 1_000, 500, 0),
            random_partition(&mut rng, 3_000, 700, 1),
        ];
        for combine in [Combine::Concat, Combine::Split] {
            assert_matches_reference(&config, &Reveal(combine), &partitions, 3);
        }
        // Without one the buffer stays full and every further record
        // spills again; a few records past the threshold cover that.
        let partitions = vec![
            random_partition(&mut rng, SPILL_THRESHOLD + 20, 300, 0),
            random_partition(&mut rng, 100, 300, 1),
        ];
        assert_matches_reference(&config, &Reveal(Combine::Passthrough), &partitions, 8);
    }

    /// The speed the sorted runs bought, as an in-run ratio so no absolute
    /// time is pinned: 32 mappers × 5 000 presorted records (the `YtXJob`
    /// shape — a stateful-combiner mapper emits ascending keys), engine
    /// against reference in alternation, best of five each.
    #[cfg(not(debug_assertions))]
    #[test]
    fn sorted_runs_outrun_the_btreemap_oracle() {
        let partitions: Vec<Vec<u64>> = vec![(0..5_000).collect(); 32];
        let job = ModCount { modulus: 5_000 };
        let cluster = cluster();
        let engine = MapReduceEngine::new(&cluster).with_overheads(0.0, 0.0);
        let best = |run: &dyn Fn() -> JobOutput<ModCount>, best: &mut f64| {
            let start = std::time::Instant::now();
            let out = run();
            *best = best.min(start.elapsed().as_secs_f64());
            assert!(out.len() == 5_000 && out.iter().all(|&(_, n)| n == 32));
        };
        let (mut ours, mut theirs) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..5 {
            best(&|| engine.run_job("runs", &job, &partitions, 8).0, &mut ours);
            best(&|| engine.reference_run_job("runs", &job, &partitions, 8).0, &mut theirs);
        }
        let ratio = theirs / ours;
        println!("sorted runs vs BTreeMap oracle: {ratio:.2}x records/s");
        // 2.8–3.2x on two cores; the floor is half of the low end.
        assert!(ratio >= 1.4, "engine only {ratio:.2}x the BTreeMap oracle");
    }
}
