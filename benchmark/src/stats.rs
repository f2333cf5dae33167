//! Order statistics the harness reports: medians of timed samples and the
//! quartile spread the acceptance rule is stated in.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice — every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of what is left of `values` after dropping the lowest and the
/// highest fifth (one sample each side for five to nine samples; none
/// below five). The central estimate for operation times: as deaf to a
/// stalled operation as the median, but steadier when the times fall in
/// two clusters (`rpca_spark_sparse` runs 2.3 s or 3.1 s per operation,
/// and a median of five flips between the two from run to run).
pub fn trimmed_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "trimmed mean of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let drop = v.len() / 5;
    let kept = &v[drop..v.len() - drop];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The three quartile cut points of `values`, computed exactly like
/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), which is what the benchmark contract's spread rule uses.
/// Needs at least two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median — the run-to-run spread a metric's bound is judged against.
/// Zero when every sample is equal (including an all-zero metric).
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    if q3 == q1 {
        return 0.0;
    }
    (q3 - q1) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn trimmed_mean_drops_a_fifth_from_each_end() {
        assert_eq!(trimmed_mean(&[4.0]), 4.0);
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0, 3.0]), 3.0);
        // One stalled operation among five does not move it.
        assert_eq!(trimmed_mean(&[2.0, 100.0, 3.0, 1.0, 4.0]), 3.0);
        // Two clusters: between them, not on one of them.
        assert_eq!(trimmed_mean(&[2.0, 2.0, 3.0, 3.0, 3.0]), 8.0 / 3.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(trimmed_mean(&ten), 5.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-15);
        assert_eq!(spread(&[7.0; 10]), 0.0);
        assert_eq!(spread(&[0.0; 4]), 0.0);
    }
}
