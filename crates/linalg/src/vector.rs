//! Dense vector kernels on `&[f64]` slices.
//!
//! Vectors are plain slices/`Vec<f64>` rather than a newtype: the hot paths
//! of the engines hand rows of [`crate::Mat`] and partition buffers around,
//! and a zero-cost view type would add friction without catching any bug the
//! length asserts here don't.
//!
//! The inner loops are unrolled 4-wide: `dot` keeps four independent
//! accumulators (breaking the add-latency chain so the FMA units stay fed),
//! `axpy` updates four lanes per iteration, and the `axpy2`/`axpy4` fused
//! variants apply several rank-1 updates in a single pass over `y` — the
//! primitive the blocked kernels in [`crate::kernels`] are built from.
//! Every update rounds its multiply and its add separately, element by
//! element.

/// Dot product `a · b`. Panics if the lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch {} vs {}", a.len(), b.len());
    let mut acc = [0.0f64; 4];
    let (a4, a_tail) = a.split_at(a.len() & !3);
    let (b4, b_tail) = b.split_at(a4.len());
    for (xa, xb) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
        acc[0] += xa[0] * xb[0];
        acc[1] += xa[1] * xb[1];
        acc[2] += xa[2] * xb[2];
        acc[3] += xa[3] * xb[3];
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in a_tail.iter().zip(b_tail) {
        sum += x * y;
    }
    sum
}

/// `y += alpha * x` (BLAS axpy). Panics if the lengths differ.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch {} vs {}", x.len(), y.len());
    let split = x.len() & !3;
    let (x4, x_tail) = x.split_at(split);
    let (y4, y_tail) = y.split_at_mut(split);
    for (ys, xs) in y4.chunks_exact_mut(4).zip(x4.chunks_exact(4)) {
        ys[0] += alpha * xs[0];
        ys[1] += alpha * xs[1];
        ys[2] += alpha * xs[2];
        ys[3] += alpha * xs[3];
    }
    for (yi, xi) in y_tail.iter_mut().zip(x_tail) {
        *yi += alpha * *xi;
    }
}

/// Fused pair of axpys: `y += a0*x0 + a1*x1` in one pass over `y`.
///
/// Per element the adds associate left-to-right, so the result is
/// bit-identical to two sequential [`axpy`] calls while halving the
/// read-modify-write traffic on `y`.
#[inline]
pub fn axpy2(a0: f64, x0: &[f64], a1: f64, x1: &[f64], y: &mut [f64]) {
    let n = y.len();
    assert!(x0.len() == n && x1.len() == n, "axpy2: length mismatch");
    for j in 0..n {
        y[j] = (y[j] + a0 * x0[j]) + a1 * x1[j];
    }
}

/// Fused quad of axpys: `y += a0*x0 + a1*x1 + a2*x2 + a3*x3` in one pass
/// over `y`, adds associated left-to-right (bit-identical to four
/// sequential [`axpy`] calls).
#[inline]
pub fn axpy4(
    a0: f64,
    x0: &[f64],
    a1: f64,
    x1: &[f64],
    a2: f64,
    x2: &[f64],
    a3: f64,
    x3: &[f64],
    y: &mut [f64],
) {
    let n = y.len();
    assert!(
        x0.len() == n && x1.len() == n && x2.len() == n && x3.len() == n,
        "axpy4: length mismatch"
    );
    for j in 0..n {
        y[j] = (((y[j] + a0 * x0[j]) + a1 * x1[j]) + a2 * x2[j]) + a3 * x3[j];
    }
}

/// Scales `x` in place by `alpha`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Sum of absolute values (1-norm). The paper's accuracy metric is built on
/// 1-norms of reconstruction residuals.
#[inline]
pub fn norm1(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// Squared Euclidean norm.
#[inline]
pub fn norm2_sq(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum()
}

/// Euclidean norm.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    norm2_sq(x).sqrt()
}

/// `a - b` into a fresh vector. Panics if the lengths differ.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch {} vs {}", a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// `a + b` into a fresh vector. Panics if the lengths differ.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add: length mismatch {} vs {}", a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Normalizes `x` to unit Euclidean norm in place and returns the original
/// norm. Leaves a zero vector untouched and returns 0.
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        scale(1.0 / n, x);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_hand_computation() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn dot_handles_lengths_around_the_unroll() {
        for n in 0..13usize {
            let a: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
            let b: Vec<f64> = (0..n).map(|i| (2 * i + 1) as f64).collect();
            let expect: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert_eq!(dot(&a, &b), expect, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_rejects_mismatched_lengths() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn axpy_handles_lengths_around_the_unroll() {
        for n in 0..13usize {
            let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let mut y = vec![1.0; n];
            axpy(3.0, &x, &mut y);
            for (i, v) in y.iter().enumerate() {
                assert_eq!(*v, 1.0 + 3.0 * i as f64, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn fused_axpys_match_sequential() {
        let n = 11;
        let xs: Vec<Vec<f64>> =
            (0..4).map(|k| (0..n).map(|i| ((i * 7 + k * 3) % 5) as f64 - 2.0).collect()).collect();
        let alphas = [1.5, -2.0, 0.25, 3.0];

        let mut seq = vec![0.5; n];
        for (a, x) in alphas.iter().zip(&xs) {
            axpy(*a, x, &mut seq);
        }

        let mut fused2 = vec![0.5; n];
        axpy2(alphas[0], &xs[0], alphas[1], &xs[1], &mut fused2);
        axpy2(alphas[2], &xs[2], alphas[3], &xs[3], &mut fused2);
        assert_eq!(seq, fused2);

        let mut fused4 = vec![0.5; n];
        axpy4(
            alphas[0], &xs[0], alphas[1], &xs[1], alphas[2], &xs[2], alphas[3], &xs[3],
            &mut fused4,
        );
        assert_eq!(seq, fused4);
    }

    #[test]
    fn norms_agree_on_simple_cases() {
        let v = [3.0, -4.0];
        assert_eq!(norm1(&v), 7.0);
        assert_eq!(norm2_sq(&v), 25.0);
        assert_eq!(norm2(&v), 5.0);
    }

    #[test]
    fn normalize_makes_unit_norm() {
        let mut v = vec![3.0, 4.0];
        let n = normalize(&mut v);
        assert_eq!(n, 5.0);
        assert!((norm2(&v) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn normalize_of_zero_is_noop() {
        let mut v = vec![0.0, 0.0];
        assert_eq!(normalize(&mut v), 0.0);
        assert_eq!(v, vec![0.0, 0.0]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = vec![1.0, 2.0];
        let b = vec![0.5, -1.0];
        assert_eq!(sub(&add(&a, &b), &b), a);
    }

    #[test]
    fn scale_in_place() {
        let mut v = vec![1.0, -2.0];
        scale(-3.0, &mut v);
        assert_eq!(v, vec![-3.0, 6.0]);
    }
}
