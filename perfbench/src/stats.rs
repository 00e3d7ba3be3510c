//! Percentiles and quartiles computed from raw samples — never from
//! bucketed histograms, whose bucket bounds cannot resolve small changes.

/// Nearest-rank percentile (`p` in `[0, 100]`) of an ascending slice:
/// the smallest sample with at least `p`% of the samples at or below it.
/// Returns 0 for an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorted copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median, p95 and maximum of raw samples, with their count.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Tail {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 95th percentile.
    pub p95: f64,
    /// Largest sample.
    pub max: f64,
}

impl Tail {
    /// Summarizes `values` (any order).
    pub fn of(values: &[f64]) -> Tail {
        let s = sorted(values);
        Tail {
            n: s.len(),
            p50: nearest_rank(&s, 50.0),
            p95: nearest_rank(&s, 95.0),
            max: s.last().copied().unwrap_or(0.0),
        }
    }
}

/// First quartile, median and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the benchmark's spreads match what an outside checker computes.
/// A single value is its own quartiles; an empty slice gives zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    match s.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (s[0], s[0], s[0]),
        n => {
            let m = n as i64 + 1;
            let q = |i: i64| {
                let j = (i * m / 4).clamp(1, n as i64 - 1);
                let delta = (i * m - j * 4) as f64;
                let (lo, hi) = (s[j as usize - 1], s[j as usize]);
                (lo * (4.0 - delta) + hi * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

/// Median by the same method as [`quartiles`].
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_samples() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), 50.0);
        assert_eq!(nearest_rank(&s, 95.0), 95.0);
        assert_eq!(nearest_rank(&s, 99.0), 99.0);
        assert_eq!(nearest_rank(&s, 100.0), 100.0);
        assert_eq!(nearest_rank(&s, 0.0), 1.0);
        assert_eq!(nearest_rank(&[], 50.0), 0.0);
        let t = Tail::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((t.n, t.p50, t.p95, t.max), (5, 3.0, 5.0, 5.0));
        // Ten samples: p50 is the 5th, p95 the 10th.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&ten, 50.0), 5.0);
        assert_eq!(nearest_rank(&ten, 95.0), 10.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }
}
