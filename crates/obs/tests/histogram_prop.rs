//! Histogram algebra, machine-checked: merging per-worker snapshots must
//! behave like one histogram that saw every observation (associative,
//! commutative, count/sum/max-preserving), every recorded value must land
//! in a bucket whose range contains it, and quantile estimates must stay
//! inside the recorded value range with the documented error bound: exact
//! below 16, at most 1.125× the true value above.

use ftsl_obs::metrics::{bucket_bounds, BUCKETS};
use ftsl_obs::{Histogram, HistogramSnapshot};
use ftsl_testkit::prop_cases;
use proptest::prelude::*;

fn snap(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

/// Values spread across bucket scales: small latencies, mid-range, and
/// the extremes that exercise the first and last buckets.
fn arb_values() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        prop_oneof![Just(0u64), 1u64..100, 100u64..1_000_000, any::<u64>(),],
        0..64,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(128)))]

    #[test]
    fn merge_is_associative_and_commutative(
        a in arb_values(),
        b in arb_values(),
        c in arb_values(),
    ) {
        let (sa, sb, sc) = (snap(&a), snap(&b), snap(&c));
        prop_assert_eq!(sa.merge(&sb), sb.merge(&sa));
        prop_assert_eq!(
            sa.merge(&sb).merge(&sc),
            sa.merge(&sb.merge(&sc))
        );
        // Merging equals recording everything into one histogram.
        let mut all = a.clone();
        all.extend(&b);
        all.extend(&c);
        prop_assert_eq!(sa.merge(&sb).merge(&sc), snap(&all));
    }

    #[test]
    fn merge_with_empty_is_identity(a in arb_values()) {
        let s = snap(&a);
        prop_assert_eq!(s.merge(&HistogramSnapshot::empty()), s.clone());
        prop_assert_eq!(HistogramSnapshot::empty().merge(&s), s);
    }

    #[test]
    fn every_value_lands_in_a_containing_bucket(v in any::<u64>()) {
        let s = snap(&[v]);
        prop_assert_eq!(s.count(), 1);
        prop_assert_eq!(s.sum, v);
        prop_assert_eq!(s.max, v);
        let i = s.counts.iter().position(|&c| c == 1).unwrap();
        let (lo, hi) = bucket_bounds(i);
        prop_assert!(lo <= v && v <= hi, "{} outside bucket {} [{},{}]", v, i, lo, hi);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(values in arb_values()) {
        let s = snap(&values);
        if values.is_empty() {
            prop_assert_eq!(s.quantile(0.5), 0);
            return Ok(());
        }
        let min = *values.iter().min().unwrap();
        let max = *values.iter().max().unwrap();
        let mut prev = 0u64;
        for q in [0.01, 0.25, 0.50, 0.75, 0.95, 0.99, 1.0] {
            let est = s.quantile(q);
            // Monotone in q.
            prop_assert!(est >= prev, "q={} gave {} < {}", q, est, prev);
            prev = est;
            // Never below the smallest or above the largest observation
            // (the estimate is a bucket upper bound clamped by max).
            prop_assert!(est <= max, "q={} gave {} > max {}", q, est, max);
            prop_assert!(est >= min, "q={} gave {} < min {}", q, est, min);
        }
        // The documented error bound: the estimate is the upper bound of
        // the bucket holding the true quantile observation, so it is at
        // least that observation and at most 1.125× it (clamped by max),
        // and it is the observation itself below 16.
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for (q, idx) in [(0.50, values.len().div_ceil(2)), (0.95, (values.len() * 95).div_ceil(100))] {
            let truth = sorted[idx.clamp(1, values.len()) - 1];
            let est = s.quantile(q);
            prop_assert!(est >= truth, "q={} est {} below true {}", q, est, truth);
            prop_assert!(
                u128::from(est) * 8 <= u128::from(truth) * 9,
                "q={} est {} above 1.125x true {}", q, est, truth
            );
            if truth < 16 {
                prop_assert_eq!(est, truth);
            }
        }
    }

    #[test]
    fn bucket_bounds_are_contiguous_and_monotone(i in 1usize..BUCKETS) {
        let (lo, hi) = bucket_bounds(i);
        let (_, prev_hi) = bucket_bounds(i - 1);
        prop_assert_eq!(lo, prev_hi.wrapping_add(1));
        prop_assert!(lo <= hi);
    }
}
