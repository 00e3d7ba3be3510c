//! FSM-based stochastic nonlinear blocks (baselines \[6\]–\[9\]).
//!
//! The classic SC approach drives a saturating counter with the input
//! bitstream and derives the output bit from the counter state. The designs
//! here are sequential: they need one clock per stream bit, so accuracy
//! costs latency (paper §II-B, §III-A).

use sc_core::sng::{ComparatorSng, Lfsr};
use sc_core::{Bitstream, ScError};

/// A `2^bits`-state saturating up/down counter — the storage element of
/// every FSM block in this module.
///
/// ```
/// use sc_nonlinear::fsm::SaturatingCounter;
///
/// let mut c = SaturatingCounter::new(8)?; // 8 states, starts centered
/// assert_eq!(c.state(), 4);
/// c.step(true);
/// assert_eq!(c.state(), 5);
/// for _ in 0..10 { c.step(true); }
/// assert_eq!(c.state(), 7); // saturates
/// # Ok::<(), sc_core::ScError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaturatingCounter {
    states: u32,
    state: u32,
}

impl SaturatingCounter {
    /// Creates a counter with `states ≥ 2` states, initialized to the middle.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParam`] if `states < 2`.
    pub fn new(states: u32) -> Result<Self, ScError> {
        if states < 2 {
            return Err(ScError::InvalidParam {
                name: "states",
                reason: format!("need at least 2 states, got {states}"),
            });
        }
        Ok(SaturatingCounter { states, state: states / 2 })
    }

    /// Number of states.
    pub fn states(&self) -> u32 {
        self.states
    }

    /// Current state in `0..states`.
    pub fn state(&self) -> u32 {
        self.state
    }

    /// Steps up (input bit 1) or down (input bit 0), saturating at the ends.
    pub fn step(&mut self, up: bool) {
        if up {
            if self.state < self.states - 1 {
                self.state += 1;
            }
        } else if self.state > 0 {
            self.state -= 1;
        }
    }

    /// True when the state is in the upper half — the standard output rule.
    pub fn in_upper_half(&self) -> bool {
        self.state >= self.states / 2
    }

    /// Resets to the middle state.
    pub fn reset(&mut self) {
        self.state = self.states / 2;
    }
}

/// Brown–Card stochastic tanh: an `n`-state FSM whose upper-half output
/// approximates `tanh(n/2 · x)` for a bipolar input stream of value `x`.
///
/// Returns the output bipolar stream (same length as the input).
///
/// # Errors
///
/// Returns [`ScError::InvalidParam`] if `states < 2`.
pub fn stanh(input: &Bitstream, states: u32) -> Result<Bitstream, ScError> {
    let mut fsm = SaturatingCounter::new(states)?;
    Ok(Bitstream::from_fn(input.len(), |i| {
        fsm.step(input.get(i));
        fsm.in_upper_half()
    }))
}

/// Stochastic ReLU in bipolar encoding, after the HEIF \[9\] construction: the
/// output follows the input when the FSM believes the value is positive and
/// emits the zero-value pattern (alternating bits, p = 1/2) otherwise.
///
/// # Errors
///
/// Returns [`ScError::InvalidParam`] if `states < 2`.
pub fn srelu(input: &Bitstream, states: u32) -> Result<Bitstream, ScError> {
    let mut fsm = SaturatingCounter::new(states)?;
    let mut toggle = false;
    Ok(Bitstream::from_fn(input.len(), |i| {
        let bit = input.get(i);
        fsm.step(bit);
        if fsm.in_upper_half() {
            bit
        } else {
            // Alternating 0101… decodes to bipolar 0.
            toggle = !toggle;
            toggle
        }
    }))
}

/// Configuration of the FSM-based GELU baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FsmGeluConfig {
    /// Bitstream length (BSL). Paper's Fig. 2(a) uses 128 and 1024.
    pub bsl: usize,
    /// FSM state count; tunes the sigmoid sharpness. 16 by default.
    pub states: u32,
    /// Input clipping range: values are encoded bipolar as `x / range`.
    pub range: f64,
    /// LFSR seed for the input SNG (the baseline is stochastic; different
    /// seeds give different draws, which is the fluctuation the paper shows).
    pub seed: u32,
}

impl Default for FsmGeluConfig {
    fn default() -> Self {
        FsmGeluConfig { bsl: 128, states: 16, range: 4.0, seed: 0xBEEF }
    }
}

/// FSM-based GELU baseline: the HEIF-style smooth-ReLU FSM pressed into
/// GELU service, as the CNN-oriented prior work does (\[9\], paper §III-A).
///
/// A MUX forwards the input stream when the saturating FSM (driven by an
/// independent draw of the input) sits in its upper half and emits the
/// zero pattern otherwise, so the output approximates `x · P(upper)` with
/// `P(upper) ≈ (tanh(n/2 · x/range) + 1)/2` — a smooth ReLU. For negative
/// inputs the output saturates at value 0 instead of following GELU's dip:
/// the systematic error of Fig. 2(a). For positive inputs the finite stream
/// length leaves random fluctuation.
#[derive(Debug, Clone)]
pub struct FsmGelu {
    config: FsmGeluConfig,
}

impl FsmGelu {
    /// Creates the block.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParam`] for `states < 2`, a zero BSL or a
    /// non-positive range.
    pub fn new(config: FsmGeluConfig) -> Result<Self, ScError> {
        if config.states < 2 {
            return Err(ScError::InvalidParam {
                name: "states",
                reason: format!("need at least 2 states, got {}", config.states),
            });
        }
        if config.bsl == 0 {
            return Err(ScError::InvalidParam { name: "bsl", reason: "BSL must be non-zero".into() });
        }
        if !(config.range.is_finite() && config.range > 0.0) {
            return Err(ScError::InvalidParam {
                name: "range",
                reason: format!("range must be positive, got {}", config.range),
            });
        }
        Ok(FsmGelu { config })
    }

    /// The configuration.
    pub fn config(&self) -> &FsmGeluConfig {
        &self.config
    }

    /// Evaluates GELU on a single value, returning the decoded output.
    ///
    /// The input is clipped to `[−range, range]`.
    pub fn eval(&self, x: f64) -> f64 {
        let c = &self.config;
        let xv = (x / c.range).clamp(-1.0, 1.0);
        // Two independent SNG draws of the input: one feeds the FSM (scaled
        // so the FSM's effective gain matches σ(1.702x)), one is the value
        // path the MUX forwards.
        let gate_seed = c.seed.wrapping_mul(2654435761).max(1);
        let val_seed = c.seed.wrapping_add(0x9E3779B9).max(1);
        #[expect(clippy::expect_used, reason = "Lfsr::new only rejects unsupported widths and 16 is statically valid; any seed is accepted")]
        let mut sng_gate = ComparatorSng::new(Lfsr::new(16, gate_seed).expect("valid width"));
        #[expect(clippy::expect_used, reason = "Lfsr::new only rejects unsupported widths and 16 is statically valid; any seed is accepted")]
        let mut sng_val = ComparatorSng::new(Lfsr::new(16, val_seed).expect("valid width"));
        #[expect(clippy::expect_used, reason = "xv was clamped to [-1, 1] above, the only range bipolar rejects")]
        let gate_stream = sng_gate.bipolar(xv, c.bsl).expect("clamped value is in range");
        #[expect(clippy::expect_used, reason = "xv was clamped to [-1, 1] above, the only range bipolar rejects")]
        let val_stream = sng_val.bipolar(xv, c.bsl).expect("clamped value is in range");

        #[expect(clippy::expect_used, reason = "c.states was validated by FsmGelu::new before eval can run")]
        let mut fsm = SaturatingCounter::new(c.states).expect("validated in new");
        let mut toggle = false;
        let out = Bitstream::from_fn(c.bsl, |i| {
            fsm.step(gate_stream.get(i));
            if fsm.in_upper_half() {
                val_stream.get(i)
            } else {
                toggle = !toggle;
                toggle
            }
        });
        (2.0 * out.frac_ones() - 1.0) * c.range
    }

    /// Evaluates GELU over a slice of inputs.
    pub fn eval_many(&self, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| self.eval(x)).collect()
    }

    /// Latency in clock cycles: one bit per cycle (sequential design).
    pub fn cycles(&self) -> usize {
        self.config.bsl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ref_fn;

    #[test]
    fn counter_validates_and_saturates() {
        assert!(SaturatingCounter::new(1).is_err());
        let mut c = SaturatingCounter::new(4).unwrap();
        for _ in 0..10 {
            c.step(false);
        }
        assert_eq!(c.state(), 0);
        assert!(!c.in_upper_half());
        c.reset();
        assert_eq!(c.state(), 2);
    }

    #[test]
    fn stanh_tracks_tanh_shape() {
        // stanh(n) ≈ tanh(n/2·x): check sign and saturation behaviour.
        let mut sng = ComparatorSng::new(Lfsr::new(16, 77).unwrap());
        for &x in &[-0.9, -0.5, 0.5, 0.9] {
            let s = sng.bipolar(x, 8192).unwrap();
            let y = stanh(&s, 8).unwrap();
            let v = 2.0 * y.frac_ones() - 1.0;
            let expect = (4.0 * x).tanh();
            assert!((v - expect).abs() < 0.15, "x={x}: {v} vs {expect}");
        }
    }

    #[test]
    fn srelu_zeroes_negatives_passes_positives() {
        let mut sng = ComparatorSng::new(Lfsr::new(16, 5).unwrap());
        let neg = sng.bipolar(-0.8, 8192).unwrap();
        let y = srelu(&neg, 16).unwrap();
        let v = 2.0 * y.frac_ones() - 1.0;
        assert!(v.abs() < 0.1, "negative input should give ~0, got {v}");

        let pos = sng.bipolar(0.8, 8192).unwrap();
        let y = srelu(&pos, 16).unwrap();
        let v = 2.0 * y.frac_ones() - 1.0;
        assert!((v - 0.8).abs() < 0.1, "positive input should pass, got {v}");
    }

    #[test]
    fn fsm_gelu_saturates_at_zero_for_negative_inputs() {
        // The paper's Fig. 2(a) point: systematic error — FSM GELU outputs
        // ~0 where real GELU dips below zero.
        let block = FsmGelu::new(FsmGeluConfig { bsl: 1024, ..Default::default() }).unwrap();
        let y = block.eval(-1.0);
        assert!(y.abs() < 0.12, "expected saturation near 0, got {y}");
        // Real GELU(-1) ≈ −0.159: the baseline misses the dip entirely.
        assert!((y - ref_fn::gelu(-1.0)).abs() > 0.05);
    }

    #[test]
    fn fsm_gelu_tracks_positive_range_with_noise() {
        let block = FsmGelu::new(FsmGeluConfig { bsl: 1024, ..Default::default() }).unwrap();
        for &x in &[1.0, 2.0, 3.0] {
            let y = block.eval(x);
            assert!(
                (y - ref_fn::gelu(x)).abs() < 0.4,
                "x={x}: {y} vs {}",
                ref_fn::gelu(x)
            );
        }
    }

    #[test]
    fn fsm_gelu_longer_streams_reduce_fluctuation() {
        // The random error component must shrink with BSL: compare the
        // spread of outputs across seeds at a fixed input.
        let spread = |bsl: usize| -> f64 {
            let ys: Vec<f64> = (0..8)
                .map(|seed| {
                    FsmGelu::new(FsmGeluConfig { bsl, seed: 1000 + seed, ..Default::default() })
                        .unwrap()
                        .eval(1.5)
                })
                .collect();
            let mean = ys.iter().sum::<f64>() / ys.len() as f64;
            (ys.iter().map(|y| (y - mean).powi(2)).sum::<f64>() / ys.len() as f64).sqrt()
        };
        assert!(
            spread(4096) < spread(128),
            "long {} short {}",
            spread(4096),
            spread(128)
        );
    }

    #[test]
    fn fsm_gelu_validation() {
        assert!(FsmGelu::new(FsmGeluConfig { states: 1, ..Default::default() }).is_err());
        assert!(FsmGelu::new(FsmGeluConfig { bsl: 0, ..Default::default() }).is_err());
        assert!(FsmGelu::new(FsmGeluConfig { range: 0.0, ..Default::default() }).is_err());
    }

    #[test]
    fn fsm_gelu_cycles_equals_bsl() {
        let block = FsmGelu::new(FsmGeluConfig { bsl: 256, ..Default::default() }).unwrap();
        assert_eq!(block.cycles(), 256);
    }
}
