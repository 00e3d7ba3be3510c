//! Bernstein-polynomial SC blocks (baseline \[18\], paper §II-B / §III-A).
//!
//! A degree-`n` Bernstein polynomial with coefficients in `[0, 1]` can be
//! evaluated stochastically: per clock, draw `n` independent bits of the
//! input probability `z`, count the 1s (`i`), and emit one bit of the
//! coefficient stream `c_i`. The output probability is
//! `Σᵢ cᵢ·C(n,i)·zⁱ(1−z)^{n−i}`.
//!
//! The family's weaknesses — the reason ASCEND replaces it — are visible in
//! the implementation: it needs `n + 1` stochastic number generators, one
//! clock per stream bit, and long streams to tame fluctuation, while a
//! low-degree polynomial cannot capture GELU's dip.

use sc_core::sng::{Lfsr, RandomSource};
use sc_core::ScError;

/// Binomial coefficient C(n, k) in f64 (exact for the small n used here).
fn binomial(n: usize, k: usize) -> f64 {
    let mut r = 1.0;
    for i in 0..k {
        r = r * (n - i) as f64 / (i + 1) as f64;
    }
    r
}

/// Evaluates the Bernstein basis polynomial `B_{i,n}(z)`.
pub fn bernstein_basis(i: usize, n: usize, z: f64) -> f64 {
    binomial(n, i) * z.powi(i as i32) * (1.0 - z).powi((n - i) as i32)
}

/// Least-squares fit of Bernstein coefficients for `f` on `[0, 1]`,
/// projected onto the SC-realizable box `[0, 1]` by cyclic coordinate
/// descent (a few projected Gauss–Seidel sweeps after the closed-form
/// solve).
///
/// `terms` is the number of coefficients (`degree + 1`), matching the
/// paper's "4-term / 5-term / 6-term" naming.
///
/// # Errors
///
/// Returns [`ScError::InvalidParam`] if `terms == 0`.
pub fn fit_coefficients<F: Fn(f64) -> f64>(f: F, terms: usize) -> Result<Vec<f64>, ScError> {
    if terms == 0 {
        return Err(ScError::InvalidParam {
            name: "terms",
            reason: "need at least one coefficient".into(),
        });
    }
    let n = terms - 1;
    let samples = 512;
    let zs: Vec<f64> = (0..samples)
        .map(|j| (j as f64 + 0.5) / samples as f64)
        .collect();
    // Normal equations A c = b with A[i][j] = Σ B_i B_j, b[i] = Σ B_i f.
    let basis: Vec<Vec<f64>> = zs
        .iter()
        .map(|&z| (0..terms).map(|i| bernstein_basis(i, n, z)).collect())
        .collect();
    let mut a = vec![vec![0.0; terms]; terms];
    let mut b = vec![0.0; terms];
    for (row, &z) in basis.iter().zip(zs.iter()) {
        let fz = f(z);
        for i in 0..terms {
            b[i] += row[i] * fz;
            for j in 0..terms {
                a[i][j] += row[i] * row[j];
            }
        }
    }
    let mut c = solve_gaussian(a.clone(), b.clone());
    // Projected Gauss–Seidel to respect the [0,1] box.
    for _ in 0..200 {
        for i in 0..terms {
            let mut r = b[i];
            for j in 0..terms {
                if j != i {
                    r -= a[i][j] * c[j];
                }
            }
            c[i] = (r / a[i][i]).clamp(0.0, 1.0);
        }
    }
    Ok(c)
}

fn solve_gaussian(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .unwrap_or(col);
        a.swap(col, pivot);
        b.swap(col, pivot);
        let p = a[col][col];
        for row in col + 1..n {
            let factor = a[row][col] / p;
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut s = b[row];
        for k in row + 1..n {
            s -= a[row][k] * x[k];
        }
        x[row] = s / a[row][row];
    }
    x
}

/// Configuration of a Bernstein-polynomial SC block.
#[derive(Debug, Clone, PartialEq)]
pub struct BernsteinConfig {
    /// Number of coefficients (`degree + 1`); the paper evaluates 4/5/6.
    pub terms: usize,
    /// Stream length; the paper evaluates 128/256/1024.
    pub bsl: usize,
    /// Input domain `[lo, hi]` mapped onto the unipolar `[0, 1]`.
    pub domain: (f64, f64),
    /// Output range `[lo, hi]` the unipolar output is mapped back to.
    pub out_range: (f64, f64),
    /// Base LFSR seed; the block derives independent seeds per SNG.
    pub seed: u32,
}

impl Default for BernsteinConfig {
    fn default() -> Self {
        BernsteinConfig {
            terms: 4,
            bsl: 1024,
            domain: (-4.0, 4.0),
            out_range: (-0.5, 4.0),
            seed: 0x5EED,
        }
    }
}

/// A stochastic Bernstein-polynomial evaluator for an arbitrary `f`.
///
/// ```
/// use sc_nonlinear::bernstein::{BernsteinBlock, BernsteinConfig};
/// use sc_nonlinear::ref_fn;
///
/// let cfg = BernsteinConfig { terms: 6, bsl: 4096, ..Default::default() };
/// let block = BernsteinBlock::for_function(ref_fn::gelu, cfg)?;
/// let y = block.eval(2.0);
/// assert!((y - ref_fn::gelu(2.0)).abs() < 0.35);
/// # Ok::<(), sc_core::ScError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BernsteinBlock {
    coeffs: Vec<f64>,
    config: BernsteinConfig,
}

impl BernsteinBlock {
    /// Fits coefficients for `f` over the configured domain and builds the
    /// block.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParam`] for zero `terms`/`bsl` or an empty
    /// domain/output range.
    pub fn for_function<F: Fn(f64) -> f64>(f: F, config: BernsteinConfig) -> Result<Self, ScError> {
        Self::validate(&config)?;
        let (lo, hi) = config.domain;
        let (olo, ohi) = config.out_range;
        let normalized = |z: f64| {
            let x = lo + z * (hi - lo);
            ((f(x) - olo) / (ohi - olo)).clamp(0.0, 1.0)
        };
        let coeffs = fit_coefficients(normalized, config.terms)?;
        Ok(BernsteinBlock { coeffs, config })
    }

    /// Builds the block from explicit coefficients in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParam`] if the coefficient count mismatches
    /// `terms`, any coefficient leaves `[0, 1]`, or the configuration is
    /// invalid (see [`BernsteinBlock::for_function`]).
    pub fn from_coefficients(coeffs: Vec<f64>, config: BernsteinConfig) -> Result<Self, ScError> {
        Self::validate(&config)?;
        if coeffs.len() != config.terms {
            return Err(ScError::InvalidParam {
                name: "coeffs",
                reason: format!(
                    "expected {} coefficients, got {}",
                    config.terms,
                    coeffs.len()
                ),
            });
        }
        if coeffs.iter().any(|c| !(0.0..=1.0).contains(c)) {
            return Err(ScError::InvalidParam {
                name: "coeffs",
                reason: "coefficients must lie in [0, 1] (they are probabilities)".into(),
            });
        }
        Ok(BernsteinBlock { coeffs, config })
    }

    fn validate(config: &BernsteinConfig) -> Result<(), ScError> {
        if config.terms == 0 {
            return Err(ScError::InvalidParam {
                name: "terms",
                reason: "must be non-zero".into(),
            });
        }
        if config.bsl == 0 {
            return Err(ScError::InvalidParam {
                name: "bsl",
                reason: "must be non-zero".into(),
            });
        }
        if config.domain.1 <= config.domain.0 {
            return Err(ScError::InvalidParam {
                name: "domain",
                reason: "domain must be a non-empty interval".into(),
            });
        }
        if config.out_range.1 <= config.out_range.0 {
            return Err(ScError::InvalidParam {
                name: "out_range",
                reason: "output range must be a non-empty interval".into(),
            });
        }
        Ok(())
    }

    /// The fitted coefficients.
    pub fn coefficients(&self) -> &[f64] {
        &self.coeffs
    }

    /// The configuration.
    pub fn config(&self) -> &BernsteinConfig {
        &self.config
    }

    /// The deterministic polynomial value (infinite-stream limit) at `x`.
    pub fn ideal(&self, x: f64) -> f64 {
        let (lo, hi) = self.config.domain;
        let (olo, ohi) = self.config.out_range;
        let z = ((x - lo) / (hi - lo)).clamp(0.0, 1.0);
        let n = self.config.terms - 1;
        let p: f64 = self
            .coeffs
            .iter()
            .enumerate()
            .map(|(i, c)| c * bernstein_basis(i, n, z))
            .sum();
        olo + p * (ohi - olo)
    }

    /// Bit-accurate stochastic evaluation at `x`.
    ///
    /// Spawns `terms − 1` input SNGs plus `terms` coefficient SNGs (LFSRs
    /// with derived seeds), walks `bsl` clocks and decodes the output
    /// counter.
    pub fn eval(&self, x: f64) -> f64 {
        let c = &self.config;
        let (lo, hi) = c.domain;
        let (olo, ohi) = c.out_range;
        let z = ((x - lo) / (hi - lo)).clamp(0.0, 1.0);
        let degree = c.terms - 1;

        #[expect(
            clippy::expect_used,
            reason = "Lfsr::new only rejects unsupported widths and 16 is statically valid; any seed is accepted"
        )]
        let mut input_sngs: Vec<Lfsr> = (0..degree)
            .map(|i| {
                let seed = c
                    .seed
                    .wrapping_mul(2654435761)
                    .wrapping_add(i as u32 * 7919 + 1);
                Lfsr::new(16, seed).expect("valid width")
            })
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "Lfsr::new only rejects unsupported widths and 16 is statically valid; any seed is accepted"
        )]
        let mut coeff_sngs: Vec<Lfsr> = (0..c.terms)
            .map(|i| {
                let seed = c
                    .seed
                    .wrapping_add(0x9E3779B9)
                    .wrapping_add(i as u32 * 104729 + 1);
                Lfsr::new(16, seed).expect("valid width")
            })
            .collect();

        let mut ones = 0usize;
        for _ in 0..c.bsl {
            let count = input_sngs
                .iter_mut()
                .map(|s| s.next_fraction() < z)
                .filter(|b| *b)
                .count();
            let coeff_bit = coeff_sngs[count].next_fraction() < self.coeffs[count];
            if coeff_bit {
                ones += 1;
            }
        }
        let p = ones as f64 / c.bsl as f64;
        olo + p * (ohi - olo)
    }

    /// Evaluates over a slice of inputs.
    pub fn eval_many(&self, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| self.eval(x)).collect()
    }

    /// Latency in clock cycles: one bit per cycle (sequential design).
    pub fn cycles(&self) -> usize {
        self.config.bsl
    }

    /// Number of SNGs the hardware needs (`terms` coefficient SNGs plus
    /// `terms − 1` input copies) — the dominant area term (\[18\]).
    pub fn sng_count(&self) -> usize {
        2 * self.config.terms - 1
    }
}

/// Convenience constructor: the GELU block the paper benchmarks, with the
/// default domain and output range.
///
/// # Errors
///
/// Propagates [`BernsteinBlock::for_function`] errors.
pub fn gelu_block(terms: usize, bsl: usize) -> Result<BernsteinBlock, ScError> {
    BernsteinBlock::for_function(
        crate::ref_fn::gelu,
        BernsteinConfig {
            terms,
            bsl,
            ..Default::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ref_fn;

    #[test]
    fn basis_partition_of_unity() {
        for z in [0.0, 0.3, 0.77, 1.0] {
            let s: f64 = (0..=5).map(|i| bernstein_basis(i, 5, z)).sum();
            assert!((s - 1.0).abs() < 1e-12, "z={z}");
        }
    }

    #[test]
    fn fit_recovers_exact_bernstein_function() {
        // f already a Bernstein polynomial → fit must recover it closely.
        let target = [0.2, 0.9, 0.1, 0.7];
        let f = |z: f64| -> f64 {
            target
                .iter()
                .enumerate()
                .map(|(i, c)| c * bernstein_basis(i, 3, z))
                .sum()
        };
        let c = fit_coefficients(f, 4).unwrap();
        for (got, want) in c.iter().zip(target.iter()) {
            assert!((got - want).abs() < 1e-6, "{c:?}");
        }
    }

    #[test]
    fn fit_respects_box_constraints() {
        // A function needing out-of-box coefficients: clamped fit stays in box.
        let f = |z: f64| 2.0 * z - 0.5;
        let c = fit_coefficients(f, 4).unwrap();
        assert!(c.iter().all(|v| (0.0..=1.0).contains(v)), "{c:?}");
    }

    #[test]
    fn more_terms_fit_gelu_better() {
        let ideal_mae = |terms: usize| -> f64 {
            let b = gelu_block(terms, 16).unwrap();
            let mut acc = 0.0;
            let mut n = 0;
            let mut x = -3.0;
            while x <= 0.5 {
                acc += (b.ideal(x) - ref_fn::gelu(x)).abs();
                n += 1;
                x += 0.05;
            }
            acc / n as f64
        };
        let m4 = ideal_mae(4);
        let m6 = ideal_mae(6);
        assert!(m6 < m4, "6-term {m6} should beat 4-term {m4}");
    }

    #[test]
    fn low_degree_misses_the_dip() {
        // Fig. 2(b): a 4-term polynomial cannot track the negative dip.
        let b = gelu_block(4, 16).unwrap();
        let worst = (-30..=5)
            .map(|i| {
                let x = i as f64 / 10.0;
                (b.ideal(x) - ref_fn::gelu(x)).abs()
            })
            .fold(0.0, f64::max);
        assert!(
            worst > 0.03,
            "4-term ideal fit is suspiciously good: {worst}"
        );
    }

    #[test]
    fn stochastic_eval_converges_to_ideal() {
        let long = gelu_block(5, 8192).unwrap();
        let x = -0.5;
        let err_long = (long.eval(x) - long.ideal(x)).abs();
        assert!(
            err_long < 0.12,
            "long stream should track ideal, err {err_long}"
        );
        // Fluctuation with BSL: spread across seeds must shrink.
        let spread = |bsl: usize| {
            let ys: Vec<f64> = (0..6)
                .map(|s| {
                    let cfg = BernsteinConfig {
                        terms: 5,
                        bsl,
                        seed: 42 + s,
                        ..Default::default()
                    };
                    BernsteinBlock::for_function(ref_fn::gelu, cfg)
                        .unwrap()
                        .eval(x)
                })
                .collect();
            let mean = ys.iter().sum::<f64>() / ys.len() as f64;
            (ys.iter().map(|y| (y - mean).powi(2)).sum::<f64>() / ys.len() as f64).sqrt()
        };
        assert!(
            spread(4096) < spread(128) + 0.02,
            "fluctuation should shrink with BSL"
        );
    }

    #[test]
    fn validation_errors() {
        assert!(gelu_block(0, 128).is_err());
        assert!(gelu_block(4, 0).is_err());
        let bad = BernsteinConfig {
            domain: (1.0, 1.0),
            ..Default::default()
        };
        assert!(BernsteinBlock::for_function(ref_fn::gelu, bad).is_err());
        assert!(BernsteinBlock::from_coefficients(
            vec![0.5, 1.5, 0.0, 0.0],
            BernsteinConfig::default()
        )
        .is_err());
        assert!(
            BernsteinBlock::from_coefficients(vec![0.5, 0.5], BernsteinConfig::default()).is_err()
        );
    }

    #[test]
    fn resource_counts() {
        let b = gelu_block(4, 1024).unwrap();
        assert_eq!(b.cycles(), 1024);
        assert_eq!(b.sng_count(), 7);
    }
}
