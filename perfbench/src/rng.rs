//! Seeded randomness of the benchmark's own: the arrival schedule, model
//! choice and image streams all derive from `--seed` through SplitMix64,
//! so the same seed gives the same inputs on every build.

use std::time::Duration;

/// SplitMix64 (Steele, Lea & Flood): a tiny, fast, well-mixed generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derives an independent stream seed from `seed` and a stream label.
pub fn mix(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Open-loop arrival times over `[0, seconds)`: a Poisson process at
/// `rate` requests per second, conditioned on its count. The count is
/// fixed at `round(rate × seconds)` and the arrival instants are sorted
/// uniform draws, which is exactly the distribution of a Poisson
/// process's arrivals given their number. Fixing the count keeps the
/// offered load identical across seeds.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<Duration> {
    let n = (rate * seconds).round().max(1.0) as usize;
    let mut rng = SplitMix64::new(seed);
    let mut at: Vec<f64> = (0..n).map(|_| rng.next_f64() * seconds).collect();
    at.sort_by(f64::total_cmp);
    at.into_iter().map(Duration::from_secs_f64).collect()
}

/// Draws an index with probability proportional to `weights`.
pub fn weighted_choice(rng: &mut SplitMix64, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    let mut x = rng.next_f64() * total;
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return i;
        }
        x -= w;
    }
    weights.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_seeds_give_identical_schedules() {
        let a = poisson_schedule(7, 16.0, 20.0);
        let b = poisson_schedule(7, 16.0, 20.0);
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(8, 16.0, 20.0));
        assert_eq!(a.len(), 320);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals are sorted");
        assert!(a.iter().all(|t| t.as_secs_f64() < 20.0));
    }

    #[test]
    fn schedule_has_poisson_gaps() {
        // Mean gap ≈ 1/rate and the gaps' coefficient of variation ≈ 1,
        // as for exponential inter-arrival times.
        let s = poisson_schedule(3, 100.0, 100.0);
        let gaps: Vec<f64> = s.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.01).abs() < 0.001, "mean gap {mean}");
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.1, "cv {cv}");
    }

    #[test]
    fn weighted_choice_follows_weights() {
        let mut rng = SplitMix64::new(11);
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[weighted_choice(&mut rng, &[0.6, 0.3, 0.1])] += 1;
        }
        assert!((5_700..6_300).contains(&counts[0]), "{counts:?}");
        assert!((2_700..3_300).contains(&counts[1]), "{counts:?}");
        assert!((800..1_200).contains(&counts[2]), "{counts:?}");
    }

    #[test]
    fn mixed_streams_differ() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(5, 9), mix(5, 9));
    }
}
