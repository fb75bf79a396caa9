//! Order statistics for the report: median, percentiles, the quartile
//! spread the acceptance rule uses, and the "highest percentile the sample
//! supports" rule.

/// Sort a sample in place (NaNs are a bug upstream; total order keeps the
/// sort from panicking on them).
pub fn sort(values: &mut [f64]) {
    values.sort_unstable_by(f64::total_cmp);
}

/// Nearest-rank percentile of an ascending sample, `p` in `[0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an ascending sample (mean of the middle two when even).
pub fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

pub fn median(mut values: Vec<f64>) -> f64 {
    sort(&mut values);
    median_sorted(&values)
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the default exclusive method) — the rule the acceptance check states.
/// Needs two values at least; fewer collapse to the one value.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    sort(&mut data);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        // Signed: for tiny samples the clamp can push `j*n` past `i*m`.
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median: the spread the
/// acceptance rule bounds.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it; a median-only report when the sample is too small.
pub fn supported_tail(n: usize) -> f64 {
    [99.99, 99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| (n as f64) * (100.0 - p) / 100.0 >= 10.0 - 1e-6)
        .unwrap_or(50.0)
}

/// Median, supported tail and count of a timing sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub tail_p: f64,
    pub tail: f64,
}

pub fn summarize(mut values: Vec<f64>) -> Summary {
    sort(&mut values);
    let tail_p = supported_tail(values.len());
    Summary {
        n: values.len(),
        median: median_sorted(&values),
        tail_p,
        tail: percentile(&values, tail_p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(vec![]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(50), 50.0);
        assert_eq!(supported_tail(100), 90.0);
        assert_eq!(supported_tail(200), 95.0);
        assert_eq!(supported_tail(1_000), 99.0);
        assert_eq!(supported_tail(10_000), 99.9);
        assert_eq!(supported_tail(100_000), 99.99);
        let s = summarize((1..=1_000).map(f64::from).collect());
        assert_eq!(
            (s.n, s.median, s.tail_p, s.tail),
            (1_000, 500.5, 99.0, 990.0)
        );
    }
}
