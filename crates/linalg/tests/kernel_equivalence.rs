//! Kernel equivalence suite: the blocked/threaded kernels in
//! [`linalg::kernels`] against the seed's naive loops, preserved verbatim
//! in [`linalg::kernels::naive`].
//!
//! Three tiers of guarantees:
//!
//! * **Exact** on structured inputs — small-integer-valued matrices sum
//!   exactly in any association order (all intermediate values are
//!   integers far below 2⁵³), so blocked and naive results must be
//!   bit-for-bit equal.
//! * **≤ 1e-12** max-abs-diff on random inputs, where reassociation is
//!   allowed to perturb the last bits.
//! * **Bitwise deterministic across pool sizes** — the `_with_pool`
//!   variants must return identical bytes on 1, 2, and 8 workers.

use linalg::kernels::{self, naive};
use linalg::sparse::{Block, PartitionBlock};
use linalg::{Mat, Prng, SparseMat, WorkerPool};

/// Shapes that exercise every path: empty, zero-dim, 1×1, remainder rows
/// around the 4-row/2-row/4-col micro-kernel groups, and sizes large
/// enough to cross the parallel-dispatch threshold.
const SHAPES: &[(usize, usize, usize)] = &[
    (0, 0, 0),
    (0, 3, 2),
    (3, 0, 2),
    (3, 2, 0),
    (1, 1, 1),
    (2, 2, 2),
    (4, 4, 4),
    (5, 3, 7),
    (6, 1, 5),
    (7, 8, 9),
    (8, 5, 6),
    (9, 9, 2),
    (13, 11, 10),
    (33, 17, 21),
    (130, 70, 50),
];

/// Integer-valued matrix in [-4, 4]: every product and partial sum is an
/// integer well below 2^53, so any summation order gives the same f64.
fn int_mat(rng: &mut Prng, rows: usize, cols: usize) -> Mat {
    let mut m = Mat::zeros(rows, cols);
    for v in m.data_mut() {
        *v = rng.index(9) as f64 - 4.0;
    }
    m
}

fn random_sparse(rng: &mut Prng, rows: usize, cols: usize, density: f64, int: bool) -> SparseMat {
    let mut triplets = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if rng.uniform() < density {
                let v = if int { rng.index(9) as f64 - 4.0 } else { rng.normal() };
                if v != 0.0 {
                    triplets.push((r, c as u32, v));
                }
            }
        }
    }
    SparseMat::from_triplets(rows, cols, &triplets)
}

fn assert_bits_eq(a: &Mat, b: &Mat, what: &str) {
    assert_eq!(a.rows(), b.rows(), "{what}: row mismatch");
    assert_eq!(a.cols(), b.cols(), "{what}: col mismatch");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert!(
            x.to_bits() == y.to_bits() || (*x == 0.0 && *y == 0.0),
            "{what}: element {i} differs: {x:?} vs {y:?}"
        );
    }
}

#[test]
fn structured_inputs_match_naive_exactly() {
    // Integer-valued inputs: exact equality (up to the sign of zero, which
    // the kernels' zero-skip may normalize) on every shape.
    for (case, &(m, k, n)) in SHAPES.iter().enumerate() {
        let mut rng = Prng::seed_from_u64(case as u64);
        let a = int_mat(&mut rng, m, k);
        let b = int_mat(&mut rng, k, n);
        assert_bits_eq(&kernels::matmul(&a, &b), &naive::matmul(&a, &b), "matmul");

        let at = int_mat(&mut rng, m, k);
        let bt = int_mat(&mut rng, m, n);
        assert_bits_eq(&kernels::matmul_tn(&at, &bt), &naive::matmul_tn(&at, &bt), "matmul_tn");

        let bn = int_mat(&mut rng, n, k);
        assert_bits_eq(&kernels::matmul_nt(&a, &bn), &naive::matmul_nt(&a, &bn), "matmul_nt");

        let x: Vec<f64> = (0..k).map(|_| rng.index(9) as f64 - 4.0).collect();
        let mv = kernels::matvec(&a, &x);
        let mv_ref = naive::matvec(&a, &x);
        assert_eq!(mv.len(), mv_ref.len());
        for (u, v) in mv.iter().zip(&mv_ref) {
            assert!(u.to_bits() == v.to_bits() || (*u == 0.0 && *v == 0.0), "matvec");
        }

        let y = random_sparse(&mut rng, m, k, 0.3, true);
        let c = int_mat(&mut rng, k, n);
        assert_bits_eq(
            &kernels::sparse_mul_dense(&y, &c),
            &naive::sparse_mul_dense(&y, &c),
            "sparse_mul_dense",
        );

        let t = int_mat(&mut rng, m, n);
        assert_bits_eq(&t.transpose(), &naive::transpose(&t), "transpose");
    }
}

#[test]
fn random_inputs_match_naive_to_1e12() {
    for (case, &(m, k, n)) in SHAPES.iter().enumerate() {
        let mut rng = Prng::seed_from_u64(1000 + case as u64);
        let a = rng.normal_mat(m, k);
        let b = rng.normal_mat(k, n);
        assert!(kernels::matmul(&a, &b).max_abs_diff(&naive::matmul(&a, &b)) <= 1e-12);

        let at = rng.normal_mat(m, k);
        let bt = rng.normal_mat(m, n);
        assert!(kernels::matmul_tn(&at, &bt).max_abs_diff(&naive::matmul_tn(&at, &bt)) <= 1e-12);

        let bn = rng.normal_mat(n, k);
        assert!(kernels::matmul_nt(&a, &bn).max_abs_diff(&naive::matmul_nt(&a, &bn)) <= 1e-12);

        let x = rng.normal_vec(k);
        for (u, v) in kernels::matvec(&a, &x).iter().zip(&naive::matvec(&a, &x)) {
            assert!((u - v).abs() <= 1e-12);
        }

        let y = random_sparse(&mut rng, m, k, 0.3, false);
        let c = rng.normal_mat(k, n);
        assert!(
            kernels::sparse_mul_dense(&y, &c).max_abs_diff(&naive::sparse_mul_dense(&y, &c))
                <= 1e-12
        );
    }
}

#[test]
fn all_zero_rows_are_harmless() {
    // The zero-skip fast paths must not desynchronize the blocked loops.
    let mut rng = Prng::seed_from_u64(99);
    let mut a = rng.normal_mat(11, 6);
    for j in 0..6 {
        a[(0, j)] = 0.0;
        a[(4, j)] = 0.0; // inside a 4-row group
        a[(10, j)] = 0.0; // remainder row
    }
    let b = rng.normal_mat(11, 5);
    assert!(kernels::matmul_tn(&a, &b).max_abs_diff(&naive::matmul_tn(&a, &b)) <= 1e-12);
    let b2 = rng.normal_mat(6, 5);
    assert!(kernels::matmul(&a, &b2).max_abs_diff(&naive::matmul(&a, &b2)) <= 1e-12);

    // A sparse matrix with explicit empty rows.
    let y = SparseMat::from_triplets(5, 6, &[(1, 2, 3.0), (3, 0, -1.0), (3, 5, 2.0)]);
    assert!(
        kernels::sparse_mul_dense(&y, &b2).max_abs_diff(&naive::sparse_mul_dense(&y, &b2))
            <= 1e-12
    );
}

#[test]
fn large_products_cross_the_parallel_threshold_and_still_match() {
    // 400×120 × 400×80: ~7.7 Mflops > PAR_MIN_FLOPS, so the chunked
    // reduction path runs; the single-chunk seed ordering is the oracle.
    let mut rng = Prng::seed_from_u64(2024);
    let a = rng.normal_mat(400, 120);
    let b = rng.normal_mat(400, 80);
    assert!(kernels::matmul_tn(&a, &b).max_abs_diff(&naive::matmul_tn(&a, &b)) <= 1e-12);

    let c = rng.normal_mat(300, 90);
    let d = rng.normal_mat(90, 70);
    assert!(kernels::matmul(&c, &d).max_abs_diff(&naive::matmul(&c, &d)) <= 1e-12);

    let y = random_sparse(&mut rng, 3000, 500, 0.02, false);
    let e = rng.normal_mat(500, 32);
    assert!(
        kernels::sparse_mul_dense(&y, &e).max_abs_diff(&naive::sparse_mul_dense(&y, &e)) <= 1e-12
    );
}

#[test]
fn kernels_are_bitwise_deterministic_across_pool_sizes() {
    let pools = [WorkerPool::new(1), WorkerPool::new(2), WorkerPool::new(8)];
    let mut rng = Prng::seed_from_u64(7777);
    let a = rng.normal_mat(400, 120);
    let b = rng.normal_mat(400, 80);
    let am = rng.normal_mat(300, 90);
    let bm = rng.normal_mat(90, 70);
    let ant = rng.normal_mat(200, 60);
    let bnt = rng.normal_mat(150, 60);
    let x = rng.normal_vec(120);
    let y = random_sparse(&mut rng, 3000, 500, 0.02, false);
    let c = rng.normal_mat(500, 32);

    let tn: Vec<Mat> = pools.iter().map(|p| kernels::matmul_tn_with_pool(p, &a, &b)).collect();
    let mm: Vec<Mat> = pools.iter().map(|p| kernels::matmul_with_pool(p, &am, &bm)).collect();
    let nt: Vec<Mat> = pools.iter().map(|p| kernels::matmul_nt_with_pool(p, &ant, &bnt)).collect();
    let mv: Vec<Vec<f64>> = pools.iter().map(|p| kernels::matvec_with_pool(p, &a, &x)).collect();
    let sd: Vec<Mat> =
        pools.iter().map(|p| kernels::sparse_mul_dense_with_pool(p, &y, &c)).collect();

    // Widths off the 8-wide register tile: the remainder columns accumulate
    // into the output, so a pool that folded chunks straight into it gave
    // other bits than one that reduces per-chunk partials.
    let tn_off_tile: Vec<Vec<Mat>> = [(1_000, 50), (10_000, 50), (10_000, 60)]
        .iter()
        .map(|&(rows, cols)| {
            let m = rng.normal_mat(rows, cols);
            pools.iter().map(|p| kernels::matmul_tn_with_pool(p, &m, &m)).collect()
        })
        .collect();

    for i in 1..pools.len() {
        assert_bits_eq(&tn[0], &tn[i], "matmul_tn across pools");
        for tn in &tn_off_tile {
            assert_bits_eq(&tn[0], &tn[i], "off-tile matmul_tn across pools");
        }
        assert_bits_eq(&mm[0], &mm[i], "matmul across pools");
        assert_bits_eq(&nt[0], &nt[i], "matmul_nt across pools");
        assert_bits_eq(&sd[0], &sd[i], "sparse_mul_dense across pools");
        assert_eq!(
            mv[0].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            mv[i].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "matvec across pools"
        );
    }
}

// ---------------------------------------------------------------------------
// Full-row blocks and the Gram: the register-tile routes against the
// row-at-a-time folds, bit for bit. Inputs are random normals throughout —
// integer inputs sum exactly in any order and under a fused multiply-add,
// so they cannot see either mistake.
// ---------------------------------------------------------------------------

/// A CSR block storing every column of every row, values standard normal.
fn full_block(rng: &mut Prng, rows: usize, cols: usize) -> SparseMat {
    let y = SparseMat::from_dense(&rng.normal_mat(rows, cols));
    assert_eq!(y.nnz(), rows * cols, "a normal deviate was exactly zero");
    y
}

/// `full` with the entry at `(r, c)` left out: one stored value short of
/// full, so it must take the sparse route.
fn with_hole(full: &SparseMat, r: usize, c: usize) -> SparseMat {
    let entries = (0..full.rows())
        .map(|i| full.row(i).iter().filter(|&(j, _)| (i, j) != (r, c)).map(|(j, v)| (j as u32, v)).collect())
        .collect();
    SparseMat::from_rows(full.rows(), full.cols(), entries)
}

/// `out += Y·B` one stored entry at a time, no skips: the sparse kernel's
/// per-element operation sequence as scalar code.
fn mul_reference(y: &SparseMat, b: &Mat, out: &mut [f64]) {
    let n = b.cols();
    for r in 0..y.rows() {
        for (c, v) in y.row(r).iter() {
            for j in 0..n {
                out[r * n + j] += v * b[(c, j)];
            }
        }
    }
}

/// `out[map[c]] += y[r][c]·x_r` in ascending `(r, c)`, no skips: the
/// scatter's per-element operation sequence as scalar code.
fn scatter_reference(y: &SparseMat, x: &Mat, map: &[u32], out: &mut [f64]) {
    let d = x.cols();
    for r in 0..y.rows() {
        for (c, v) in y.row(r).iter() {
            let t = map[c] as usize;
            for j in 0..d {
                out[t * d + j] += v * x[(r, j)];
            }
        }
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Pools of 1, 2 and 8 workers, built once per test.
struct Pools([WorkerPool; 3]);

impl Pools {
    fn new() -> Pools {
        Pools([WorkerPool::new(1), WorkerPool::new(2), WorkerPool::new(8)])
    }

    /// Runs `f` on every pool, and from inside a task of a two-task batch
    /// (where kernels run inline), handing each result to `check`.
    fn each<T: Send>(&self, f: impl Fn(&WorkerPool) -> T + Sync, check: impl Fn(T, &str)) {
        for pool in &self.0 {
            check(f(pool), &format!("{} workers", pool.workers()));
        }
        let f = &f;
        let inner = &self.0[1];
        for got in inner.run((0..2).map(|_| move || f(inner)).collect()) {
            check(got, "inside a pool task");
        }
    }
}

#[test]
fn full_blocks_are_bitwise_the_row_at_a_time_folds() {
    let pools = Pools::new();
    let mut rng = Prng::seed_from_u64(2101);
    // Rows on both sides of the kernels' cut-over (one tile's height) and
    // of a tile boundary.
    for &rows in &[1usize, 3, 4, 5, 7, 8, 9, 13, 187] {
        for &cols in &[1usize, 7, 8, 9, 1000] {
            for &d in &[1usize, 8, 50, 56] {
                let what = format!("{rows}x{cols}x{d}");
                let y = full_block(&mut rng, rows, cols);
                let b = rng.normal_mat(cols, d);
                let x = rng.normal_mat(rows, d);
                let identity: Vec<u32> = (0..cols as u32).collect();

                let mul = naive::sparse_mul_dense(&y, &b);
                pools.each(
                    |pool| kernels::sparse_mul_dense_with_pool(pool, &y, &b),
                    |got, on| assert_eq!(bits(got.data()), bits(mul.data()), "Y*B {what} on {on}"),
                );
                let tn = naive::matmul_tn(&y.to_dense(), &x);
                pools.each(
                    |pool| kernels::spmm_tn_with_pool(pool, &y, &x),
                    |got, on| assert_eq!(bits(got.data()), bits(tn.data()), "YtX {what} on {on}"),
                );

                // The `_into` contract is accumulate: a tile seeded with
                // zeros and added at the end rounds differently from one
                // that continues the output's own sum.
                let init = rng.normal_vec(rows.max(cols) * d);
                let mut mul_into = init[..rows * d].to_vec();
                mul_reference(&y, &b, &mut mul_into);
                let mut tn_into = init[..cols * d].to_vec();
                scatter_reference(&y, &x, &identity, &mut tn_into);
                pools.each(
                    |pool| {
                        let mut out = init[..rows * d].to_vec();
                        kernels::sparse_mul_dense_into_with_pool(pool, &y, &b, &mut out);
                        out
                    },
                    |got, on| assert_eq!(bits(&got), bits(&mul_into), "out += Y*B {what} on {on}"),
                );
                pools.each(
                    |pool| {
                        let mut out = init[..cols * d].to_vec();
                        kernels::spmm_tn_packed_with_pool(pool, &y, &x, &identity, &mut out);
                        out
                    },
                    |got, on| assert_eq!(bits(&got), bits(&tn_into), "out += YtX {what} on {on}"),
                );
            }
        }
    }
}

#[test]
fn stored_zeros_keep_a_block_full_and_a_hole_does_not() {
    let pools = Pools::new();
    let mut rng = Prng::seed_from_u64(2102);
    let (rows, cols, d) = (37, 19, 5);
    let full = full_block(&mut rng, rows, cols);
    // `map_values` keeps the structure: the block stays full, now holding
    // explicit `0.0` and `-0.0` entries the kernels must not skip.
    let zeros = full.map_values(|v| if v > 0.8 { 0.0 } else if v < -0.8 { -0.0 } else { v });
    assert_eq!(zeros.nnz(), rows * cols);
    assert!(zeros.row(0).values.iter().chain(zeros.row(1).values).any(|v| *v == 0.0));
    let hole = with_hole(&full, 20, 7);
    assert_eq!(hole.nnz(), rows * cols - 1);

    let b = rng.normal_mat(cols, d);
    let x = rng.normal_mat(rows, d);
    let identity: Vec<u32> = (0..cols as u32).collect();
    // A `-0.0` in the initial output tells a skipped `+= 0.0·x` (stays
    // `-0.0`) from an executed one (becomes `+0.0`).
    let mut init = rng.normal_vec(rows.max(cols) * d);
    init[3] = -0.0;
    for y in [&zeros, &hole] {
        let mut mul = init[..rows * d].to_vec();
        mul_reference(y, &b, &mut mul);
        let mut tn = init[..cols * d].to_vec();
        scatter_reference(y, &x, &identity, &mut tn);
        pools.each(
            |pool| {
                let mut out = init[..rows * d].to_vec();
                kernels::sparse_mul_dense_into_with_pool(pool, y, &b, &mut out);
                out
            },
            |got, on| assert_eq!(bits(&got), bits(&mul), "out += Y*B on {on}"),
        );
        pools.each(
            |pool| {
                let mut out = init[..cols * d].to_vec();
                kernels::spmm_tn_packed_with_pool(pool, y, &x, &identity, &mut out);
                out
            },
            |got, on| assert_eq!(bits(&got), bits(&tn), "out += YtX on {on}"),
        );
    }
}

#[test]
fn packed_scatter_of_a_full_block_honours_any_map() {
    let pools = Pools::new();
    // A map that is not the identity — here one that folds columns onto
    // shared output rows — interleaves two columns' terms in one sum,
    // which only the scatter's (row, column) order reproduces.
    let mut rng = Prng::seed_from_u64(2103);
    let (rows, cols, d) = (187, 24, 9);
    let y = full_block(&mut rng, rows, cols);
    let x = rng.normal_mat(rows, d);
    let reversed: Vec<u32> = (0..cols as u32).rev().collect();
    let folded: Vec<u32> = (0..cols as u32).map(|c| c / 2).collect();
    let by_column = kernels::spmm_tn(&y, &x);
    let mut out = vec![0.0; cols * d];
    kernels::spmm_tn_packed(&y, &x, &reversed, &mut out);
    for (c, &t) in reversed.iter().enumerate() {
        let t = t as usize;
        assert_eq!(bits(&out[t * d..(t + 1) * d]), bits(by_column.row(c)), "column {c}");
    }
    let mut want = vec![0.0; cols * d];
    scatter_reference(&y, &x, &folded, &mut want);
    pools.each(
        |pool| {
            let mut out = vec![0.0; cols * d];
            kernels::spmm_tn_packed_with_pool(pool, &y, &x, &folded, &mut out);
            out
        },
        |got, on| assert_eq!(bits(&got), bits(&want), "folded map on {on}"),
    );
}

/// The blocks the `YᵀX` gather must reproduce the scatter on: an empty
/// block, empty rows, columns held by one row, a full block under eight
/// rows (the sparse route takes it), stored `±0.0`, `1e±300` and NaN.
fn gather_cases(rng: &mut Prng) -> Vec<(&'static str, SparseMat)> {
    let edge = [0.0, -0.0, 1e300, -1e300, 1e-300, f64::NAN, 2.5, -1.0];
    let edges = random_sparse(rng, 23, 17, 0.3, false).map_values(|v| edge[(v.to_bits() % 8) as usize]);
    vec![
        ("empty block", SparseMat::from_rows(0, 6, vec![])),
        ("empty rows", SparseMat::from_rows(4, 5, vec![vec![], vec![(3, 1.5)], vec![], vec![(0, -2.0), (3, 0.25)]])),
        ("one-row columns", SparseMat::from_triplets(6, 9, &[(0, 8, 1.0), (2, 1, -3.0), (5, 4, 0.5), (5, 8, 2.0)])),
        ("full under 8 rows", full_block(rng, 5, 7)),
        ("edge values", edges),
        ("random", random_sparse(rng, 61, 40, 0.12, false)),
    ]
}

/// [`bits`] with every NaN as one: which operand's NaN an add passes on
/// (`inf·0` makes a negative one on x86, a stored NaN is positive) follows
/// the operand order the compiler picks for each loop, which Rust does not
/// pin; every other bit must match.
fn nan_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| if x.is_nan() { f64::NAN.to_bits() } else { x.to_bits() }).collect()
}

/// The column-support table `add_block` built per call before blocks
/// were cached: touched columns ascending, each mapped to its slab row.
fn support_table(y: &SparseMat) -> (Vec<u32>, usize) {
    let mut map = vec![u32::MAX; y.cols()];
    for &c in y.col_indices() {
        map[c as usize] = 0;
    }
    let mut touched = 0;
    for slot in map.iter_mut().filter(|s| **s == 0) {
        *slot = touched;
        touched += 1;
    }
    (map, touched as usize)
}

#[test]
fn gather_is_bitwise_the_packed_scatter() {
    let pools = Pools::new();
    let mut rng = Prng::seed_from_u64(2104);
    for (what, y) in gather_cases(&mut rng) {
        let block = PartitionBlock::new(y.clone());
        let csc = block.csc().into_owned().expect("the sparse route keeps a copy");
        let (map, touched) = support_table(&y);
        assert_eq!(csc.support().len(), touched, "{what}: support");
        for d in [1, 7, 8, 9, 50] {
            let mut x = rng.normal_mat(y.rows(), d);
            if let Some(v) = x.data_mut().first_mut() {
                *v = -0.0;
            }
            let mut gathered = Vec::new();
            kernels::spmm_gather(&csc, x.data(), d, &mut gathered);
            pools.each(
                |pool| {
                    let mut out = vec![0.0; touched * d];
                    kernels::spmm_tn_packed_with_pool(pool, &y, &x, &map, &mut out);
                    out
                },
                |got, on| assert_eq!(nan_bits(&got), nan_bits(&gathered), "{what} d={d} on {on}"),
            );
            // Placed by column: `spmm_tn`.
            let mut by_column = vec![0.0; y.cols() * d];
            for (&c, row) in csc.support().iter().zip(gathered.chunks_exact(d)) {
                by_column[c as usize * d..][..d].copy_from_slice(row);
            }
            assert_eq!(nan_bits(&by_column), nan_bits(kernels::spmm_tn(&y, &x).data()), "{what} d={d}");
        }
    }
}

#[test]
fn mul_dense_each_is_bitwise_the_blocked_product() {
    let pools = Pools::new();
    let mut rng = Prng::seed_from_u64(2105);
    for (what, y) in gather_cases(&mut rng) {
        for n in [1, 8, 50] {
            let b = rng.normal_mat(y.cols(), n);
            let mut rows = Vec::new();
            kernels::sparse_mul_dense_each(&y, b.data(), n, &mut rows, |_| ());
            pools.each(
                |pool| kernels::sparse_mul_dense_with_pool(pool, &y, &b),
                |got, on| assert_eq!(bits(got.data()), bits(&rows), "{what} n={n} on {on}"),
            );
        }
    }
}

#[test]
fn syrk_tn_is_bitwise_the_naive_gram_on_both_sides_of_its_cut_over() {
    let pools = Pools::new();
    let mut rng = Prng::seed_from_u64(2104);
    for &rows in &[0usize, 1, 7, 8, 9, 63, 64, 65, 3125] {
        for &d in &[1usize, 7, 8, 9, 50] {
            let x = rng.normal_mat(rows, d);
            let want = naive::matmul_tn(&x, &x);
            pools.each(
                |pool| kernels::syrk_tn_with_pool(pool, &x),
                |got, on| assert_eq!(bits(got.data()), bits(want.data()), "syrk {rows}x{d} on {on}"),
            );
        }
    }
}
