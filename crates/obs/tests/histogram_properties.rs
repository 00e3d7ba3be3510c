//! Property tests for the log2 histogram: cumulative monotonicity and
//! nearest-rank percentile agreement with an exact sorted-sample oracle.
//! The histogram is the workspace's one latency record, so bracketing
//! the exact percentile here is what makes its `/metrics` percentiles
//! trustworthy.

use ascend_obs::{HistSnapshot, Histogram, HIST_BUCKETS};
use proptest::prelude::*;

fn cumulative(snap: &HistSnapshot) -> Vec<u64> {
    let mut cum = Vec::with_capacity(HIST_BUCKETS);
    let mut acc = 0u64;
    for &c in &snap.buckets {
        acc += c;
        cum.push(acc);
    }
    cum
}

/// Exact nearest-rank percentile over raw samples.
fn exact_percentile(sorted: &[u64], p: f64) -> u64 {
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

proptest! {
    #[test]
    fn cumulative_counts_are_monotone_and_end_at_total(
        samples in proptest::collection::vec(0u64..u64::MAX, 1..200)
    ) {
        let h = Histogram::new();
        for &v in &samples {
            h.observe_ns(v);
        }
        let snap = h.snapshot();
        let cum = cumulative(&snap);
        for w in cum.windows(2) {
            prop_assert!(w[0] <= w[1], "cumulative counts decreased");
        }
        prop_assert_eq!(*cum.last().unwrap(), samples.len() as u64);
        prop_assert_eq!(snap.count(), samples.len() as u64);
    }

    #[test]
    fn percentile_bounds_bracket_exact_nearest_rank(
        samples in proptest::collection::vec(0u64..10_000_000_000u64, 1..150),
        p in 0.0f64..100.0
    ) {
        let h = Histogram::new();
        for &v in &samples {
            h.observe_ns(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let exact = exact_percentile(&sorted, p);
        let (lo, hi) = h.snapshot().percentile_bounds_ns(p);
        prop_assert!(
            lo <= exact && exact <= hi,
            "p{}: exact {} outside histogram bucket [{}, {}]", p, exact, lo, hi
        );
    }

    #[test]
    fn percentiles_are_monotone_in_p(
        samples in proptest::collection::vec(0u64..1_000_000_000u64, 1..100)
    ) {
        let h = Histogram::new();
        for &v in &samples {
            h.observe_ns(v);
        }
        let snap = h.snapshot();
        let mut last = 0u64;
        for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0] {
            let v = snap.percentile_ns(p);
            prop_assert!(v >= last, "p{} = {} < previous {}", p, v, last);
            last = v;
        }
    }

    #[test]
    fn sum_matches_sample_sum(
        samples in proptest::collection::vec(0u64..1_000_000u64, 0..100)
    ) {
        let h = Histogram::new();
        for &v in &samples {
            h.observe_ns(v);
        }
        prop_assert_eq!(h.snapshot().sum_ns, samples.iter().sum::<u64>());
    }
}
