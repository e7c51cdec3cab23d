//! Order statistics over small samples.

/// Sorted copy of `xs` (NaNs last; the harness never produces them).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median; the mean of the two middle values for an even count.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let v = sorted(xs);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile, `p` in (0, 100].
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let v = sorted(xs);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The p99 when at least ten samples lie beyond it, else the highest
/// percentile that has ten beyond it (choosing-metrics §1).
pub fn p99_or_highest_supported(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n >= 1000 {
        percentile(xs, 99.0)
    } else if n > 10 {
        percentile(xs, 100.0 * (n - 10) as f64 / n as f64)
    } else {
        percentile(xs, 100.0)
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// (the exclusive method) gives them — the driver's definition of spread.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let v = sorted(xs);
    let m = v.len();
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let med = median(xs);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        // 100 samples: the highest percentile with ten beyond it is p90.
        assert_eq!(p99_or_highest_supported(&xs), 90.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
    }
}
