//! Gate-assisted selective interconnect — ASCEND's GELU block (§IV-A).
//!
//! Naive SI outputs selected input bits directly, which forces the output
//! ones-count to be monotone in the input ones-count. Gate-assisted SI
//! interposes *assist logic* (NOT/AND/OR over the selected threshold
//! signals), so each output bit can be an arbitrary function of the input
//! level — enabling non-monotonic transfers like GELU exactly, with zero
//! random fluctuation, in a single combinational pass (Fig. 4).
//!
//! The compiler here takes any target function, quantizes it onto the
//! input/output thermometer grids, assigns output-bit patterns, and reports
//! the threshold taps and assist-gate counts the hardware model consumes.

use sc_core::encoding::Thermometer;
use sc_core::{Bitstream, ScError, ThermStream};

/// A compiled gate-assisted SI block.
///
/// ```
/// use sc_nonlinear::gate_si::GateAssistedSi;
/// use sc_nonlinear::ref_fn;
/// use sc_core::encoding::Thermometer;
///
/// // The paper's 8b→8b GELU at α = 0.5 (range ±2).
/// let input = Thermometer::new(8, 0.5)?;
/// let output = Thermometer::new(8, 0.5)?;
/// let block = GateAssistedSi::compile(ref_fn::gelu, input, output)?;
/// // Exact on the quantization grid: error ≤ half an output LSB.
/// let y = block.eval_value(-1.0);
/// assert!((y - ref_fn::gelu(-1.0)).abs() <= 0.25 + 1e-12);
/// # Ok::<(), sc_core::ScError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GateAssistedSi {
    input: Thermometer,
    output: Thermometer,
    /// Output ones-count per input ones-count `t ∈ 0..=Bx` — arbitrary, not
    /// necessarily monotone.
    ones_table: Vec<usize>,
    /// For each output bit `j`, the sorted list of input levels `t` where
    /// bit `j` toggles (the threshold signals feeding its assist logic).
    bit_transitions: Vec<Vec<usize>>,
}

impl GateAssistedSi {
    /// Compiles `f` onto the thermometer grids.
    ///
    /// Output bit `j` is assigned the predicate `ones(t) > j`, the canonical
    /// choice that makes each unit change of the table toggle exactly one
    /// output bit (minimizing assist logic).
    ///
    /// # Errors
    ///
    /// Currently infallible for valid codecs; the `Result` keeps the
    /// signature uniform with the other compilers.
    pub fn compile<F: Fn(f64) -> f64>(
        f: F,
        input: Thermometer,
        output: Thermometer,
    ) -> Result<Self, ScError> {
        let bx = input.len();
        let by = output.len();
        let half_in = (bx / 2) as i64;
        let half_out = (by / 2) as i64;
        let ones_table: Vec<usize> = (0..=bx)
            .map(|t| {
                let x = input.scale() * (t as i64 - half_in) as f64;
                let q = (f(x) / output.scale())
                    .round()
                    .clamp(-(half_out as f64), half_out as f64) as i64;
                (q + half_out) as usize
            })
            .collect();
        Ok(Self::from_ones_table(ones_table, input, output))
    }

    /// Builds a block directly from an output ones-count table
    /// (`table[t]` for `t ∈ 0..=Bx`, each entry `≤ By`).
    ///
    /// # Panics
    ///
    /// Panics if the table length is not `input.len() + 1` or an entry
    /// exceeds `output.len()`.
    pub fn from_ones_table(
        ones_table: Vec<usize>,
        input: Thermometer,
        output: Thermometer,
    ) -> Self {
        assert_eq!(ones_table.len(), input.len() + 1, "table must cover t = 0..=Bx");
        assert!(
            ones_table.iter().all(|&o| o <= output.len()),
            "table entry exceeds output BSL"
        );
        let by = output.len();
        let bit_transitions = (0..by)
            .map(|j| {
                let mut toggles = Vec::new();
                let mut prev = ones_table[0] > j;
                for (t, &o) in ones_table.iter().enumerate().skip(1) {
                    let cur = o > j;
                    if cur != prev {
                        toggles.push(t);
                        prev = cur;
                    }
                }
                toggles
            })
            .collect();
        GateAssistedSi { input, output, ones_table, bit_transitions }
    }

    /// Input codec.
    pub fn input(&self) -> &Thermometer {
        &self.input
    }

    /// Output codec.
    pub fn output(&self) -> &Thermometer {
        &self.output
    }

    /// The compiled transfer table (output ones-count per input level).
    pub fn ones_table(&self) -> &[usize] {
        &self.ones_table
    }

    /// Per-output-bit toggle positions (threshold signals).
    pub fn bit_transitions(&self) -> &[Vec<usize>] {
        &self.bit_transitions
    }

    /// Number of distinct threshold signals (selection taps `s_i` in Fig. 4).
    pub fn threshold_count(&self) -> usize {
        let mut ts: Vec<usize> =
            self.bit_transitions.iter().flatten().copied().collect();
        ts.sort_unstable();
        ts.dedup();
        ts.len()
    }

    /// Number of assist gates: a bit with `T` toggles needs `T − 1` two-input
    /// gates to combine its threshold windows, plus an inverter when it
    /// starts high (the `!s\[2\] & s\[1\]` pattern of Fig. 4).
    pub fn assist_gate_count(&self) -> usize {
        self.bit_transitions
            .iter()
            .enumerate()
            .map(|(j, toggles)| {
                if toggles.is_empty() {
                    0
                } else {
                    let starts_high = self.ones_table[0] > j;
                    (toggles.len() - 1) + usize::from(starts_high)
                }
            })
            .sum()
    }

    /// Evaluates the block on a thermometer stream (bit-level).
    ///
    /// The stream is normalized first (the block follows a BSN).
    ///
    /// # Panics
    ///
    /// Panics if the stream length differs from the compiled input codec.
    #[expect(clippy::expect_used, reason = "the output codec's even length and positive scale were validated at compile() time; ThermStream::new re-checks the same invariants")]
    pub fn eval(&self, x: &ThermStream) -> ThermStream {
        assert_eq!(x.len(), self.input.len(), "input BSL mismatch");
        let sorted = x.normalized();
        // Threshold signal s_t = input bit (t−1) = [ones ≥ t]; each output
        // bit XORs its toggle signals — evaluate by counting raised toggles.
        let bits = Bitstream::from_bits(self.bit_transitions.iter().enumerate().map(
            |(j, toggles)| {
                let mut level = self.ones_table[0] > j;
                for &t in toggles {
                    // toggle fires when ones ≥ t, i.e. input bit t−1 is set.
                    if sorted.bits().get(t - 1) {
                        level = !level;
                    } else {
                        break;
                    }
                }
                level
            },
        ));
        ThermStream::new(bits, self.output.scale()).expect("compiled output codec is valid")
    }

    /// Evaluates on a real value (encode → block → decode).
    pub fn eval_value(&self, x: f64) -> f64 {
        self.eval(&self.input.encode(x)).value()
    }

    /// Worst-case on-grid error against `f` (the compile-time bound).
    pub fn max_grid_error<F: Fn(f64) -> f64>(&self, f: F) -> f64 {
        let half_in = (self.input.len() / 2) as i64;
        let half_out = (self.output.len() / 2) as i64;
        (0..=self.input.len())
            .map(|t| {
                let x = self.input.scale() * (t as i64 - half_in) as f64;
                let y = self.output.scale() * (self.ones_table[t] as i64 - half_out) as f64;
                (y - f(x)).abs()
            })
            .fold(0.0, f64::max)
    }
}

/// The paper's Fig. 4 instance: ternary GELU with an 8-bit input
/// (α_x = 1.0, range ±4) and a 2-bit ternary output whose level step is
/// 0.17 (covering GELU's dip at ≈ −0.17).
///
/// # Errors
///
/// Propagates codec construction errors (none for these fixed parameters).
pub fn ternary_gelu() -> Result<GateAssistedSi, ScError> {
    let input = Thermometer::new(8, 1.0)?;
    let output = Thermometer::new(2, 0.17)?;
    GateAssistedSi::compile(crate::ref_fn::gelu, input, output)
}

/// A GELU block with equal input/output BSL over the range ±4, used by the
/// Fig. 2 transfer-curve harness.
///
/// # Errors
///
/// Returns [`ScError::InvalidParam`] if `bsl` is odd or zero.
pub fn gelu_block(bsl: usize) -> Result<GateAssistedSi, ScError> {
    let input = Thermometer::with_range(bsl, 4.0)?;
    let output = Thermometer::with_range(bsl, 4.0)?;
    GateAssistedSi::compile(crate::ref_fn::gelu, input, output)
}

/// The Table III GELU block: a wide thermometer input (the accumulated
/// pre-activation stream, `bx` bits over ±4) compressed to a `by`-bit output
/// whose scale is *calibrated* to minimize MAE over a sample of the layer's
/// input distribution — the circuit-aware quantization step of the
/// co-design.
///
/// The output scale is found by golden-section search over candidate scales.
///
/// # Errors
///
/// Returns [`ScError::InvalidParam`] for invalid BSLs or an empty sample.
pub fn gelu_block_calibrated(
    bx: usize,
    by: usize,
    samples: &[f64],
) -> Result<GateAssistedSi, ScError> {
    if samples.is_empty() {
        return Err(ScError::InvalidParam {
            name: "samples",
            reason: "need at least one calibration sample".into(),
        });
    }
    let input = Thermometer::with_range(bx, 4.0)?;
    let mae_for = |scale: f64| -> Result<f64, ScError> {
        let output = Thermometer::new(by, scale)?;
        let block = GateAssistedSi::compile(crate::ref_fn::gelu, input, output)?;
        Ok(samples
            .iter()
            .map(|&x| (block.eval_value(x) - crate::ref_fn::gelu(x)).abs())
            .sum::<f64>()
            / samples.len() as f64)
    };
    // Golden-section search on log-scale over α ∈ [1e-3, 8/by].
    let (mut lo, mut hi) = ((1e-3f64).ln(), (8.0 / by as f64).ln());
    let phi = (5.0f64.sqrt() - 1.0) / 2.0;
    for _ in 0..40 {
        let a = hi - phi * (hi - lo);
        let b = lo + phi * (hi - lo);
        if mae_for(a.exp())? < mae_for(b.exp())? {
            hi = b;
        } else {
            lo = a;
        }
    }
    let best = ((lo + hi) / 2.0).exp();
    let output = Thermometer::new(by, best)?;
    GateAssistedSi::compile(crate::ref_fn::gelu, input, output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ref_fn;

    #[test]
    fn ternary_gelu_matches_fig4_table() {
        let block = ternary_gelu().unwrap();
        // Levels per input t = 0..=8 (x = t − 4): 0 0 0 −1 0 1 1 1 1 as
        // ones-counts (level + 1): 1 1 1 0 1 2 2 2 2.
        assert_eq!(block.ones_table(), &[1, 1, 1, 0, 1, 2, 2, 2, 2]);
        // Fig. 4 uses exactly three selection signals.
        assert_eq!(block.threshold_count(), 3);
    }

    #[test]
    fn ternary_gelu_end_to_end_values() {
        let block = ternary_gelu().unwrap();
        for (x, want_level) in
            [(-4.0, 0i64), (-3.0, 0), (-1.0, -1), (0.0, 0), (1.0, 1), (4.0, 1)]
        {
            let y = block.eval(&block.input().encode(x));
            assert_eq!(y.level(), want_level, "x={x}");
        }
    }

    #[test]
    fn non_monotone_transfer_is_exact_on_grid() {
        // The whole point vs naive SI: the dip is representable.
        let block = gelu_block(8).unwrap();
        let grid_err = block.max_grid_error(ref_fn::gelu);
        // On-grid error bounded by half an output LSB.
        assert!(
            grid_err <= block.output().scale() / 2.0 + 1e-12,
            "grid error {grid_err}"
        );
    }

    #[test]
    fn precision_improves_with_bsl() {
        // Fig. 2(d): 8b strictly better than 4b, which beats 2b.
        let mae = |bsl: usize| -> f64 {
            let block = gelu_block(bsl).unwrap();
            let mut acc = 0.0;
            let mut n = 0;
            let mut x = -4.0;
            while x <= 4.0 {
                acc += (block.eval_value(x) - ref_fn::gelu(x)).abs();
                n += 1;
                x += 0.01;
            }
            acc / n as f64
        };
        let (m2, m4, m8) = (mae(2), mae(4), mae(8));
        assert!(m8 < m4 && m4 < m2, "m2={m2} m4={m4} m8={m8}");
    }

    #[test]
    fn deterministic_no_fluctuation() {
        // Same input → identical output bits, every time (contrast with the
        // stochastic baselines).
        let block = gelu_block(8).unwrap();
        let x = block.input().encode(-0.9);
        let y1 = block.eval(&x);
        let y2 = block.eval(&x);
        assert_eq!(y1.bits(), y2.bits());
    }

    #[test]
    fn eval_normalizes_unsorted_input() {
        let block = gelu_block(8).unwrap();
        let sorted = block.input().encode(1.5);
        let shuffled = ThermStream::new(
            Bitstream::from_bits(sorted.bits().iter().rev()),
            sorted.scale(),
        )
        .unwrap();
        assert_eq!(block.eval(&sorted).level(), block.eval(&shuffled).level());
    }

    #[test]
    fn from_ones_table_roundtrip() {
        let input = Thermometer::new(4, 1.0).unwrap();
        let output = Thermometer::new(4, 1.0).unwrap();
        let table = vec![2, 0, 4, 1, 3];
        let block = GateAssistedSi::from_ones_table(table.clone(), input, output);
        for (t, &want) in table.iter().enumerate() {
            let x = ThermStream::from_level(t as i64 - 2, 4, 1.0).unwrap();
            let got = (block.eval(&x).level() + 2) as usize;
            assert_eq!(got, want, "t={t}");
        }
    }

    #[test]
    #[should_panic(expected = "table must cover")]
    fn from_ones_table_checks_length() {
        let enc = Thermometer::new(4, 1.0).unwrap();
        GateAssistedSi::from_ones_table(vec![0, 1], enc, enc);
    }

    #[test]
    fn calibrated_block_beats_naive_scale_and_tracks_by() {
        // Standard-normal GELU inputs.
        let samples: Vec<f64> = (0..400)
            .map(|i| {
                // Deterministic quasi-normal grid via inverse-ish transform:
                // equally spaced quantiles of a clipped normal.
                let u = (i as f64 + 0.5) / 400.0;
                // Rough probit approximation is fine for a test fixture.
                let z = (2.0 * u - 1.0) * 2.2;
                z - 0.14 * z * z * z * (1.0 - u) * u * 4.0
            })
            .collect();
        let mae = |block: &GateAssistedSi| {
            samples
                .iter()
                .map(|&x| (block.eval_value(x) - ref_fn::gelu(x)).abs())
                .sum::<f64>()
                / samples.len() as f64
        };
        let b2 = gelu_block_calibrated(256, 2, &samples).unwrap();
        let b4 = gelu_block_calibrated(256, 4, &samples).unwrap();
        let b8 = gelu_block_calibrated(256, 8, &samples).unwrap();
        assert!(mae(&b8) < mae(&b4) && mae(&b4) < mae(&b2));
        assert!(gelu_block_calibrated(256, 8, &[]).is_err());
    }

    #[test]
    fn assist_gate_count_zero_for_monotone() {
        // A monotone staircase has ≤1 toggle per bit → zero assist gates.
        let enc = Thermometer::new(8, 1.0).unwrap();
        let block = GateAssistedSi::compile(|x| x, enc, enc).unwrap();
        assert_eq!(block.assist_gate_count(), 0);
        // GELU with a dip-resolving output grid needs real assist logic.
        let gelu = ternary_gelu().unwrap();
        assert!(gelu.assist_gate_count() > 0);
    }
}
