//! The driver's fused `YtXJob` merge against the pairwise rounds it
//! replaces: `YtxPartial::tree_merged` must return exactly the bits of
//! `sparkle::tree_merge(.., YtxPartial::merge)` for every partial count,
//! every support pattern and every pool size — and so must the streamed
//! fold the Spark driver runs, partials pushed one at a time through a
//! `sparkle::TreeFold` whose blocks `tree_merged` merges.
//!
//! Values span 10^±16 with both signs (plus exact and negative zeros), so
//! any change in the order rows are added in, or an added zero where a
//! side should pass its row through, shows in the bits.

use linalg::{Prng, WorkerPool};
use spca_core::mean_prop::YtxPartial;

/// How the partials' touched columns are laid out.
#[derive(Debug, Clone, Copy)]
enum Support {
    /// Random subsets of a shared range; every seventh partial is empty.
    Random,
    /// Partial `i` alone holds columns `2i` and `2i + 1`.
    Disjoint,
    /// Every partial holds the same eight columns.
    Identical,
    /// One column every partial holds, beside columns of its own.
    SingleShared,
    /// No partial holds any column.
    Empty,
}

fn value(rng: &mut Prng) -> f64 {
    match rng.index(16) {
        0 => 0.0,
        1 => -0.0,
        k => {
            let v = (rng.uniform() + 0.5) * 10f64.powi(rng.index(33) as i32 - 16);
            if k % 2 == 0 { -v } else { v }
        }
    }
}

fn row(rng: &mut Prng, d: usize) -> Vec<f64> {
    (0..d).map(|_| value(rng)).collect()
}

fn partials(n: usize, d: usize, support: Support, seed: u64) -> Vec<YtxPartial> {
    let mut rng = Prng::seed_from_u64(seed);
    let width = if n >= 1_000 { 128 } else { 40 };
    (0..n)
        .map(|i| {
            let mut p = YtxPartial::new(d);
            p.sum_x = row(&mut rng, d);
            p.rows_seen = rng.index(1_000) as u64;
            let cols: Vec<u32> = match support {
                Support::Random if i % 7 == 3 => Vec::new(),
                Support::Random => {
                    let density = if n >= 1_000 { 0.5 } else { 0.3 };
                    (0..width).filter(|_| rng.uniform() < density).collect()
                }
                Support::Disjoint => vec![2 * i as u32, 2 * i as u32 + 1],
                Support::Identical => (3..11).collect(),
                Support::SingleShared => vec![i as u32, n as u32 + 5, n as u32 + 6 + i as u32],
                Support::Empty => Vec::new(),
            };
            for c in cols {
                p.set_ytx_row(c, &row(&mut rng, d));
            }
            p
        })
        .collect()
}

/// The packed rows, `sum_x` and `rows_seen` as bits.
type Bits = (Vec<(u32, Vec<u64>)>, Vec<u64>, u64);

/// Every bit of a partial: `PartialEq` on `f64` would let `-0.0 == 0.0`.
fn bits(p: &YtxPartial) -> Bits {
    let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    (
        p.ytx_iter().map(|(c, r)| (c, to_bits(r))).collect(),
        to_bits(&p.sum_x),
        p.rows_seen,
    )
}

#[test]
fn fused_merge_is_bitwise_the_pairwise_rounds() {
    let pools: Vec<WorkerPool> = [1, 2, 8].into_iter().map(WorkerPool::new).collect();
    let counts = (1..=130).chain([255, 256, 257, 1_023, 1_024, 1_025, 2_001]);
    let supports = [
        Support::Random,
        Support::Disjoint,
        Support::Identical,
        Support::SingleShared,
        Support::Empty,
    ];
    let mut cases = 0;
    for n in counts {
        for d in [1, 3, 8, 50] {
            for support in supports {
                // Past 130 partials only the random supports (with empty
                // partials among them): those counts are about the rounds.
                if n > 130 && !matches!(support, Support::Random) {
                    continue;
                }
                let parts = partials(n, d, support, (n * 131 + d) as u64);
                let want = bits(&sparkle::tree_merge(
                    parts.clone(),
                    || YtxPartial::new(d),
                    YtxPartial::merge,
                ));
                for pool in &pools {
                    let got = bits(&YtxPartial::tree_merged(pool, d, parts.clone()));
                    assert!(
                        got == want,
                        "n={n} d={d} {support:?} on {} workers: fused merge diverged",
                        pool.workers()
                    );
                }
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 130 * 4 * supports.len() + 7 * 4);
}

#[test]
fn streamed_blocks_are_bitwise_the_pairwise_rounds() {
    let pool = WorkerPool::new(2);
    let counts = (1..=130).chain([255, 256, 257, 1_023, 1_024, 1_025, 2_001]);
    for n in counts {
        for d in [1, 3, 8, 50] {
            for support in [Support::Random, Support::Disjoint, Support::Identical, Support::Empty] {
                if n > 130 && !matches!(support, Support::Random) {
                    continue;
                }
                let parts = partials(n, d, support, (n * 257 + d) as u64);
                let want = bits(&sparkle::tree_merge(
                    parts.clone(),
                    || YtxPartial::new(d),
                    YtxPartial::merge,
                ));
                for g in [2, 4, 16] {
                    let merge = |block| YtxPartial::tree_merged(&pool, d, block);
                    let mut fold = sparkle::TreeFold::new(g);
                    for p in parts.clone() {
                        fold.push(p, merge);
                    }
                    let got = bits(&fold.finish(merge).expect("n ≥ 1"));
                    assert!(got == want, "n={n} d={d} {support:?} g={g}: streamed fold diverged");
                }
            }
        }
    }
}

#[test]
fn fused_merge_of_nothing_is_the_empty_partial() {
    let pool = WorkerPool::new(2);
    assert_eq!(YtxPartial::tree_merged(&pool, 4, Vec::new()), YtxPartial::new(4));
    let one = partials(1, 4, Support::Random, 9);
    assert_eq!(YtxPartial::tree_merged(&pool, 4, one.clone()), one[0]);
}
