//! Error-evaluation harness: input distributions and MAE/RMSE metrics.
//!
//! The paper evaluates blocks on "test vectors sampled from the overall
//! distribution" of real ViT layer inputs (§VI-A). This module provides
//! seeded synthetic distributions with matching shapes plus the metric
//! plumbing shared by the table/figure benches; the network-derived
//! distribution itself comes from the `ascend` crate's taps.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A seeded generator of scalar test inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum InputDist {
    /// Gaussian `N(mean, sigma²)`, clipped to `[min, max]`.
    Gaussian {
        /// Mean.
        mean: f64,
        /// Standard deviation.
        sigma: f64,
        /// Lower clip.
        min: f64,
        /// Upper clip.
        max: f64,
    },
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
}

impl InputDist {
    /// The GELU-input distribution used by the Table III bench: standard
    /// normal clipped to ±4, matching pre-activation statistics.
    pub fn gelu_default() -> Self {
        InputDist::Gaussian {
            mean: 0.0,
            sigma: 1.0,
            min: -4.0,
            max: 4.0,
        }
    }

    /// The softmax-logit distribution used by the Table IV bench:
    /// attention logits after `1/√d` scaling concentrate in roughly ±2.
    pub fn softmax_default() -> Self {
        InputDist::Gaussian {
            mean: 0.0,
            sigma: 1.0,
            min: -2.0,
            max: 2.0,
        }
    }

    /// Draws `n` samples with the given seed.
    pub fn sample(&self, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| self.draw(&mut rng)).collect()
    }

    /// Draws `rows × m` logit rows with the given seed.
    pub fn sample_rows(&self, rows: usize, m: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..rows)
            .map(|_| (0..m).map(|_| self.draw(&mut rng)).collect())
            .collect()
    }

    fn draw(&self, rng: &mut StdRng) -> f64 {
        match *self {
            InputDist::Gaussian {
                mean,
                sigma,
                min,
                max,
            } => {
                // Box–Muller.
                let u1: f64 = rng.random::<f64>().max(1e-12);
                let u2: f64 = rng.random();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                (mean + sigma * z).clamp(min, max)
            }
            InputDist::Uniform { lo, hi } => rng.random_range(lo..hi),
        }
    }
}

/// Mean absolute error between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn mae(got: &[f64], want: &[f64]) -> f64 {
    assert_eq!(got.len(), want.len(), "length mismatch");
    assert!(!got.is_empty(), "empty inputs");
    got.iter()
        .zip(want.iter())
        .map(|(g, w)| (g - w).abs())
        .sum::<f64>()
        / got.len() as f64
}

/// Root-mean-square error between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn rmse(got: &[f64], want: &[f64]) -> f64 {
    assert_eq!(got.len(), want.len(), "length mismatch");
    assert!(!got.is_empty(), "empty inputs");
    (got.iter()
        .zip(want.iter())
        .map(|(g, w)| (g - w).powi(2))
        .sum::<f64>()
        / got.len() as f64)
        .sqrt()
}

/// MAE of a scalar function against a reference over sampled inputs.
pub fn function_mae<F, G>(f: F, reference: G, dist: &InputDist, n: usize, seed: u64) -> f64
where
    F: Fn(f64) -> f64,
    G: Fn(f64) -> f64,
{
    let xs = dist.sample(n, seed);
    let got: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
    let want: Vec<f64> = xs.iter().map(|&x| reference(x)).collect();
    mae(&got, &want)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_statistics() {
        let xs = InputDist::gelu_default().sample(20_000, 7);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
        assert!(xs.iter().all(|x| (-4.0..=4.0).contains(x)));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let d = InputDist::softmax_default();
        assert_eq!(d.sample(64, 1), d.sample(64, 1));
        assert_ne!(d.sample(64, 1), d.sample(64, 2));
    }

    #[test]
    fn sample_rows_shape() {
        let rows = InputDist::Uniform { lo: -1.0, hi: 1.0 }.sample_rows(5, 7, 3);
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r.len() == 7));
    }

    #[test]
    fn metrics_basics() {
        assert!((mae(&[1.0, 2.0], &[2.0, 0.0]) - 1.5).abs() < 1e-12);
        assert!((rmse(&[3.0], &[0.0]) - 3.0).abs() < 1e-12);
        assert!(rmse(&[1.0, 1.0], &[0.0, 0.0]) >= mae(&[1.0, 1.0], &[0.0, 0.0]));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mae_checks_lengths() {
        mae(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn function_mae_of_identity_is_zero() {
        let d = InputDist::Uniform { lo: 0.0, hi: 1.0 };
        let e = function_mae(|x| x, |x| x, &d, 100, 9);
        assert_eq!(e, 0.0);
    }
}
