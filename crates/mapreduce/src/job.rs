//! Job definition: the user-facing mapper/combiner/reducer traits.

use linalg::{Wire, WireCodec};

/// How many buffered records trigger an in-memory spill-combine.
///
/// Hadoop mappers don't hold their full output in memory either: the
/// output buffer is combined and spilled when it fills. The emitted byte
/// and record counters are unaffected — they meter what the mapper
/// *produced*, which is what the paper's intermediate-data numbers count.
pub(crate) const SPILL_THRESHOLD: usize = 65_536;

type CombineFn<'a, K, V> = &'a dyn Fn(&K, Vec<V>) -> Vec<V>;

/// The engine's one grouping step: calls `f(key, values)` once per distinct
/// key of `pairs`, keys ascending, each key's values in the order they were
/// pushed — what collecting into a `BTreeMap<K, Vec<V>>` yields. A stable
/// sort and a walk over the runs of equal keys: no node per key, and an
/// input that is already sorted (a stateful-combiner mapper's output, a
/// reducer's slice of the merged shuffle) costs one pass of comparisons.
pub(crate) fn for_each_group<K: Ord, V>(mut pairs: Vec<(K, V)>, mut f: impl FnMut(K, Vec<V>)) {
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut pairs = pairs.into_iter().peekable();
    while let Some((key, first)) = pairs.next() {
        let mut values = vec![first];
        while let Some((_, v)) = pairs.next_if(|(k, _)| *k == key) {
            values.push(v);
        }
        f(key, values);
    }
}

/// Collects the `(key, value)` pairs a mapper emits and meters their wire
/// size at emission time — the "map output bytes" Hadoop counter. Sizes
/// are real `wire` encoded lengths under the cluster's negotiated shuffle
/// [`WireCodec`]: map output is shuffle-family data, so the v3 fast path
/// applies here (input splits and DFS blocks stay exact v2).
pub struct Emitter<'a, K, V> {
    pairs: Vec<(K, V)>,
    bytes: u64,
    records: usize,
    combiner: Option<CombineFn<'a, K, V>>,
    codec: WireCodec,
}

impl<K: Wire + Ord + Clone, V: Wire> Emitter<'_, K, V> {
    /// Creates an empty emitter with no spill combining, metering encoded
    /// sizes.
    pub fn new() -> Self {
        Emitter {
            pairs: Vec::new(),
            bytes: 0,
            records: 0,
            combiner: None,
            codec: WireCodec::V2,
        }
    }

    /// Creates an emitter that compacts its buffer through `combiner`
    /// whenever it exceeds the spill threshold (what the engine uses).
    pub fn with_combiner(combiner: CombineFn<'_, K, V>) -> Emitter<'_, K, V> {
        Emitter {
            pairs: Vec::new(),
            bytes: 0,
            records: 0,
            combiner: Some(combiner),
            codec: WireCodec::V2,
        }
    }

    /// Builder-style override of the shuffle codec (the engine passes its
    /// cluster's negotiated one).
    pub fn with_codec(mut self, codec: WireCodec) -> Self {
        self.codec = codec;
        self
    }

    /// Emits one pair.
    pub fn emit(&mut self, key: K, value: V) {
        self.bytes += self.codec.shuffle_size(&key) + self.codec.shuffle_size(&value);
        self.records += 1;
        self.pairs.push((key, value));
        if self.combiner.is_some() && self.pairs.len() >= SPILL_THRESHOLD {
            self.compact();
        }
    }

    /// Total bytes emitted so far (pre-combine).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of records emitted so far (pre-combine).
    pub fn records(&self) -> usize {
        self.records
    }

    /// Spill-combine the buffered pairs in place.
    fn compact(&mut self) {
        let Some(combiner) = self.combiner else { return };
        let spilled = std::mem::take(&mut self.pairs);
        for_each_group(spilled, |k, vs| {
            for v in combiner(&k, vs) {
                self.pairs.push((k.clone(), v));
            }
        });
    }

    /// Consumes the emitter, returning (possibly spill-combined) pairs and
    /// the pre-combine byte/record counters.
    pub(crate) fn into_parts(self) -> (Vec<(K, V)>, u64, usize) {
        (self.pairs, self.bytes, self.records)
    }
}

impl<K: Wire + Ord + Clone, V: Wire> Default for Emitter<'_, K, V> {
    fn default() -> Self {
        Emitter::new()
    }
}

/// A MapReduce job over row-partitioned input.
///
/// Implementations are shared read-only across map tasks (`Sync`); any
/// broadcast state — the paper's in-memory `CM` matrix, the mean vector —
/// lives in the job struct, mirroring Hadoop's distributed-cache pattern.
pub trait MapReduceJob: Sync {
    /// One input partition (e.g. a block of matrix rows). `Wire` so the
    /// engine knows how many HDFS bytes a crashed task's re-execution
    /// must re-read (MapReduce's recovery path: inputs are materialized,
    /// failed tasks restart against their split).
    type Input: Sync + Wire;
    /// Shuffle key. `Ord` because the engine does what Hadoop does between
    /// map and reduce: every mapper's combined output is a run sorted by
    /// key, the runs are merged by one stable sort, and each reducer walks
    /// a contiguous key range of the result — so a key's values reach
    /// `reduce` in mapper order, and outputs come back in key order.
    /// `Clone` because a combiner may return several values for one key
    /// (and spills re-insert combined pairs).
    type Key: Ord + Clone + Send + Wire;
    /// Shuffle value.
    type Value: Send + Wire;
    /// Per-key reducer output.
    type Output: Send;

    /// Processes one partition, emitting intermediate pairs.
    ///
    /// Emit per record for a Mahout-style mapper; accumulate in locals and
    /// emit once at the end for the paper's stateful-combiner pattern.
    fn map(&self, partition: &Self::Input, emitter: &mut Emitter<'_, Self::Key, Self::Value>);

    /// Per-mapper combiner: folds this mapper's values for one key before
    /// the shuffle. The default keeps the values as-is (no combiner).
    fn combine(&self, _key: &Self::Key, values: Vec<Self::Value>) -> Vec<Self::Value> {
        values
    }

    /// Reduces all (post-combine) values for one key into an output.
    fn reduce(&self, key: Self::Key, values: Vec<Self::Value>) -> Self::Output;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_counts_encoded_bytes_and_records() {
        let mut e: Emitter<'_, u32, f64> = Emitter::new();
        assert_eq!(e.bytes(), 0);
        e.emit(1, 2.0);
        e.emit(2, 3.0);
        assert_eq!(e.records(), 2);
        // Encoded: 1-byte varint key + 8-byte raw f64 value.
        assert_eq!(e.bytes(), 2 * (1 + 8));
        let (pairs, bytes, records) = e.into_parts();
        assert_eq!(pairs, vec![(1, 2.0), (2, 3.0)]);
        assert_eq!(bytes, 18);
        assert_eq!(records, 2);
    }

    #[test]
    fn emitter_charges_what_encode_produces() {
        let mut e: Emitter<'_, u32, Vec<f64>> = Emitter::new();
        let (k, v) = (300u32, vec![1.5, -0.0, f64::NAN]);
        let expect = (k.encode().len() + v.encode().len()) as u64;
        e.emit(k, v);
        assert_eq!(e.bytes(), expect);
    }

    #[test]
    fn spill_combine_bounds_memory_but_not_counters() {
        let combine = |_k: &u32, vs: Vec<f64>| vec![vs.iter().sum::<f64>()];
        let mut e = Emitter::with_combiner(&combine);
        let n = SPILL_THRESHOLD * 2 + 10;
        for i in 0..n {
            e.emit((i % 3) as u32, 1.0);
        }
        // Counters reflect every emission (keys 0..3 are 1-byte varints)…
        assert_eq!(e.records(), n);
        assert_eq!(e.bytes(), (n as u64) * 9);
        // …but the buffer was compacted down to a few combined pairs.
        let (pairs, _, _) = e.into_parts();
        assert!(pairs.len() < SPILL_THRESHOLD, "buffer was not compacted: {}", pairs.len());
        let total: f64 = pairs.iter().map(|(_, v)| v).sum();
        assert_eq!(total, n as f64);
    }
}
