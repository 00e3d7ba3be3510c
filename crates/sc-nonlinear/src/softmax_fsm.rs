//! FSM/binary-hybrid softmax baseline (paper Table IV, design of \[17\]).
//!
//! Prior SC softmax designs (\[16\], \[17\]) bolt binary compute units onto
//! stochastic inputs: each input stream is counted down to a binary value
//! (one clock per stream bit), the exponential is a small fixed-point LUT,
//! and — to avoid a hardware divider entirely — the normalization is a
//! *fixed* power-of-two scaling chosen for the expected denominator rather
//! than the actual row sum. That is cheap and order-preserving, but the
//! values carry a large data-dependent error that longer streams cannot
//! fix. The paper's critique (§II-B): "only the relative order of outputs
//! is preserved while the computed values still exhibit a large error".
//! This module reproduces that design point bit-accurately.

use sc_core::sng::{ComparatorSng, Lfsr};
use sc_core::ScError;

/// Configuration of the FSM/binary softmax baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FsmSoftmaxConfig {
    /// Row-vector length `m` (64 in Table IV).
    pub m: usize,
    /// Stream length for the SC→binary conversion (128/256/1024 in Table IV).
    pub bsl: usize,
    /// Input clipping range: logits are encoded bipolar as `x / range`.
    pub range: f64,
    /// Fixed-point fractional bits of the exp LUT and the output.
    pub frac_bits: u32,
    /// Number of exp LUT entries (input quantization of the exponent).
    pub lut_entries: usize,
    /// Base LFSR seed.
    pub seed: u32,
}

impl Default for FsmSoftmaxConfig {
    fn default() -> Self {
        FsmSoftmaxConfig {
            m: 64,
            bsl: 128,
            range: 8.0,
            frac_bits: 8,
            lut_entries: 32,
            seed: 0xFACE,
        }
    }
}

/// The FSM/binary softmax baseline block.
///
/// ```
/// use sc_nonlinear::softmax_fsm::{FsmSoftmax, FsmSoftmaxConfig};
///
/// let block = FsmSoftmax::new(FsmSoftmaxConfig {
///     m: 8, bsl: 1024, ..Default::default()
/// })?;
/// let y = block.run(&[2.0, 0.0, -1.0, 0.5, 0.1, -0.3, 1.0, 0.0])?;
/// // Order is preserved: the largest logit wins.
/// assert!(y[0] > y[2]);
/// # Ok::<(), sc_core::ScError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FsmSoftmax {
    config: FsmSoftmaxConfig,
}

impl FsmSoftmax {
    /// Builds the block.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParam`] for zero `m`/`bsl`/`lut_entries`,
    /// a non-positive range, or `frac_bits` outside 1..=24.
    pub fn new(config: FsmSoftmaxConfig) -> Result<Self, ScError> {
        if config.m == 0 {
            return Err(ScError::InvalidParam {
                name: "m",
                reason: "must be non-zero".into(),
            });
        }
        if config.bsl == 0 {
            return Err(ScError::InvalidParam {
                name: "bsl",
                reason: "must be non-zero".into(),
            });
        }
        if config.lut_entries < 2 {
            return Err(ScError::InvalidParam {
                name: "lut_entries",
                reason: "need at least 2 LUT entries".into(),
            });
        }
        if !(config.range.is_finite() && config.range > 0.0) {
            return Err(ScError::InvalidParam {
                name: "range",
                reason: format!("range must be positive, got {}", config.range),
            });
        }
        if !(1..=24).contains(&config.frac_bits) {
            return Err(ScError::InvalidParam {
                name: "frac_bits",
                reason: format!("frac_bits must be in 1..=24, got {}", config.frac_bits),
            });
        }
        Ok(FsmSoftmax { config })
    }

    /// The configuration.
    pub fn config(&self) -> &FsmSoftmaxConfig {
        &self.config
    }

    /// Latency in clock cycles: the SC→binary counters dominate (`bsl`
    /// cycles), plus a binary epilogue of ~`2·m` cycles for max/sum and the
    /// shift-normalize.
    pub fn cycles(&self) -> usize {
        self.config.bsl + 2 * self.config.m
    }

    /// Runs the baseline on a logit row.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::LengthMismatch`] if `x.len() != m`.
    pub fn run(&self, x: &[f64]) -> Result<Vec<f64>, ScError> {
        let c = &self.config;
        if x.len() != c.m {
            return Err(ScError::LengthMismatch {
                left: x.len(),
                right: c.m,
            });
        }
        // Stage 1 — SC→binary: count each bipolar stream (bsl cycles).
        // The draw noise (~1/√bsl) is the family's stream-length error.
        let binary: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, &xi)| {
                let seed = c.seed.wrapping_add(i as u32 * 48271 + 1);
                #[expect(clippy::expect_used, reason = "Lfsr::new only rejects unsupported widths and 16 is statically valid; any seed is accepted")]
                let mut sng = ComparatorSng::new(Lfsr::new(16, seed).expect("valid width"));
                let v = (xi / c.range).clamp(-1.0, 1.0);
                #[expect(clippy::expect_used, reason = "v was clamped to [-1, 1] on the previous line, the only range bipolar rejects")]
                let s = sng.bipolar(v, c.bsl).expect("clamped value in range");
                (2.0 * s.frac_ones() - 1.0) * c.range
            })
            .collect();

        // Stage 2 — binary max-subtract and LUT exp in fixed point.
        let max = binary.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let lut_step = 2.0 * c.range / (c.lut_entries - 1) as f64;
        let fp = f64::from(1u32 << c.frac_bits);
        let exps: Vec<u64> = binary
            .iter()
            .map(|&b| {
                // Quantize the (non-positive) exponent onto the LUT grid.
                let d = (b - max).max(-2.0 * c.range);
                let idx = ((-d) / lut_step).round() as usize;
                let idx = idx.min(c.lut_entries - 1);
                let val = (-(idx as f64) * lut_step).exp();
                (val * fp).round() as u64
            })
            .collect();

        // Stage 3 — division-free normalization: y_i = e_i / 2^shift with a
        // *fixed* shift sized for the nominal denominator (m·fp/2, the sum
        // of exponentials under near-uniform logits). Real rows have
        // data-dependent sums, so the outputs mis-normalize — the large,
        // BSL-independent value error the paper attributes to this family.
        // The output keeps `frac_bits` fractional bits.
        let nominal: u64 = (c.m as u64) * (1u64 << c.frac_bits) / 2;
        let shift = 64 - nominal.leading_zeros();
        Ok(exps
            .iter()
            .map(|&e| {
                let y_fp = if shift >= c.frac_bits {
                    e >> (shift - c.frac_bits)
                } else {
                    e << (c.frac_bits - shift)
                };
                y_fp as f64 / fp
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ref_fn;

    fn logits(m: usize) -> Vec<f64> {
        (0..m).map(|i| ((i as f64) * 0.61).sin() * 2.0).collect()
    }

    #[test]
    fn validation_rejects_nonsense() {
        let bad = |f: fn(&mut FsmSoftmaxConfig)| {
            let mut c = FsmSoftmaxConfig::default();
            f(&mut c);
            FsmSoftmax::new(c).is_err()
        };
        assert!(bad(|c| c.m = 0));
        assert!(bad(|c| c.bsl = 0));
        assert!(bad(|c| c.lut_entries = 1));
        assert!(bad(|c| c.range = 0.0));
        assert!(bad(|c| c.frac_bits = 0));
        assert!(bad(|c| c.frac_bits = 30));
    }

    #[test]
    fn rejects_wrong_row_length() {
        let block = FsmSoftmax::new(FsmSoftmaxConfig {
            m: 4,
            ..Default::default()
        })
        .unwrap();
        assert!(block.run(&[0.0; 5]).is_err());
    }

    #[test]
    fn preserves_order_of_well_separated_logits() {
        let block = FsmSoftmax::new(FsmSoftmaxConfig {
            m: 6,
            bsl: 1024,
            ..Default::default()
        })
        .unwrap();
        let x = [3.0, 1.5, 0.0, -1.5, -3.0, -4.5];
        let y = block.run(&x).unwrap();
        for w in y.windows(2) {
            assert!(w[0] >= w[1], "order violated: {y:?}");
        }
    }

    #[test]
    fn values_have_large_systematic_error() {
        // The paper's critique: order ok, values off. The shift-divide
        // produces outputs whose sum deviates substantially from 1.
        let block = FsmSoftmax::new(FsmSoftmaxConfig {
            m: 16,
            bsl: 1024,
            ..Default::default()
        })
        .unwrap();
        let x = logits(16);
        let y = block.run(&x).unwrap();
        let sum: f64 = y.iter().sum();
        assert!(
            (sum - 1.0).abs() > 0.02,
            "shift-divide should misnormalize, sum = {sum}"
        );
    }

    #[test]
    fn longer_streams_help_but_do_not_fix_systematic_error() {
        let mae = |bsl: usize| -> f64 {
            let block = FsmSoftmax::new(FsmSoftmaxConfig {
                m: 16,
                bsl,
                ..Default::default()
            })
            .unwrap();
            let x = logits(16);
            let y = block.run(&x).unwrap();
            let want = ref_fn::softmax(&x);
            y.iter()
                .zip(want.iter())
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / 16.0
        };
        // Matches the paper's Table IV trend: going 128 → 1024 buys little.
        let short = mae(128);
        let long = mae(1024);
        assert!(long < short * 1.5 + 0.05, "short {short} long {long}");
        assert!(long > 1e-4, "FSM baseline cannot be near-exact");
    }

    #[test]
    fn cycles_dominated_by_bsl() {
        let block = FsmSoftmax::new(FsmSoftmaxConfig::default()).unwrap();
        assert_eq!(block.cycles(), 128 + 128);
    }
}
