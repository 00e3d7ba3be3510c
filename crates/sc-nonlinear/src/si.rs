//! Naive selective interconnect (SI) blocks (baselines \[5\], \[15\]).
//!
//! SI processes a *thermometer* input in parallel: each output bit taps one
//! input bit position, so the output ones-count is a non-decreasing function
//! of the input ones-count. That makes SI exact for monotonic transfer
//! functions and structurally unable to express GELU's dip (paper §III-A,
//! Fig. 2c): the best it can do is the *isotonic regression* of the target,
//! which this module computes so the baseline is as strong as possible.

use sc_core::encoding::Thermometer;
use sc_core::{Bitstream, ScError, ThermStream};

/// L2 isotonic regression via the pool-adjacent-violators algorithm.
///
/// Returns the non-decreasing sequence closest (least squares) to `y`.
pub fn isotonic_regression(y: &[f64]) -> Vec<f64> {
    // Blocks of (sum, count) that are merged while out of order.
    let mut sums: Vec<f64> = Vec::with_capacity(y.len());
    let mut counts: Vec<usize> = Vec::with_capacity(y.len());
    for &v in y {
        sums.push(v);
        counts.push(1);
        while sums.len() > 1 {
            let n = sums.len();
            let mean_last = sums[n - 1] / counts[n - 1] as f64;
            let mean_prev = sums[n - 2] / counts[n - 2] as f64;
            if mean_prev <= mean_last {
                break;
            }
            #[expect(
                clippy::expect_used,
                reason = "the `sums.len() > 1` loop guard proves both stacks are non-empty here"
            )]
            let s = sums.pop().expect("non-empty");
            #[expect(
                clippy::expect_used,
                reason = "counts grows in lockstep with sums, so the same guard applies"
            )]
            let c = counts.pop().expect("non-empty");
            sums[n - 2] += s;
            counts[n - 2] += c;
        }
    }
    let mut out = Vec::with_capacity(y.len());
    for (s, c) in sums.iter().zip(counts.iter()) {
        let mean = s / *c as f64;
        out.extend(std::iter::repeat_n(mean, *c));
    }
    out
}

/// A naive SI block: per-output-bit input taps, monotone transfer only.
///
/// ```
/// use sc_core::encoding::Thermometer;
/// use sc_nonlinear::si::SiBlock;
///
/// // ReLU on [−4, 4] with an 8-bit input and output: exact (monotone).
/// let enc = Thermometer::new(8, 1.0)?;
/// let block = SiBlock::compile(|x| x.max(0.0), enc, enc)?;
/// let y = block.eval(&enc.encode(2.0));
/// assert!((y.value() - 2.0).abs() < 1e-12);
/// let y = block.eval(&enc.encode(-3.0));
/// assert!((y.value() - 0.0).abs() < 1e-12);
/// # Ok::<(), sc_core::ScError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SiBlock {
    /// `taps[j]`: input bit index whose value drives output bit `j`;
    /// `None` with `false`/`true` constants handled via sentinels below.
    taps: Vec<Tap>,
    input: Thermometer,
    output: Thermometer,
    /// Output ones-count per input ones-count (the compiled transfer).
    ones_table: Vec<usize>,
}

/// Where an SI output bit comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tap {
    /// Constant 0 (target never reaches this bit).
    Zero,
    /// Constant 1 (target always includes this bit).
    One,
    /// Wired to input bit `i`: output is 1 iff the input ones-count `> i`.
    Input(usize),
}

impl SiBlock {
    /// Compiles the best monotone (isotonic) approximation of `f` for the
    /// given input/output thermometer codecs.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParam`] if the codecs are degenerate
    /// (propagated from quantization).
    pub fn compile<F: Fn(f64) -> f64>(
        f: F,
        input: Thermometer,
        output: Thermometer,
    ) -> Result<Self, ScError> {
        let bx = input.len();
        let by = output.len();
        let half_in = (bx / 2) as i64;
        let half_out = (by / 2) as i64;
        // Desired output level per input ones-count t (t = q + Bx/2).
        let desired: Vec<f64> = (0..=bx)
            .map(|t| {
                let x = input.scale() * (t as i64 - half_in) as f64;
                f(x) / output.scale()
            })
            .collect();
        let iso = isotonic_regression(&desired);
        let ones_table: Vec<usize> = iso
            .iter()
            .map(|&lvl| {
                let q = lvl.round().clamp(-(half_out as f64), half_out as f64) as i64;
                (q + half_out) as usize
            })
            .collect();
        // Rounding a non-decreasing sequence keeps it non-decreasing.
        debug_assert!(ones_table.windows(2).all(|w| w[0] <= w[1]));
        let taps = (0..by)
            .map(|j| {
                // Output bit j is 1 iff ones_out ≥ j+1 iff t > θ_j where
                // θ_j = max{t : ones_table[t] ≤ j} — i.e. tap input bit θ_j.
                if ones_table[0] > j {
                    Tap::One
                } else if ones_table[bx] <= j {
                    Tap::Zero
                } else {
                    // t = 0 always satisfies the predicate on this branch (ones_table[0] ≤ j
                    // was just established), so the fallback is never an approximation.
                    let theta = (0..=bx).rev().find(|&t| ones_table[t] <= j).unwrap_or(0);
                    Tap::Input(theta)
                }
            })
            .collect();
        Ok(SiBlock {
            taps,
            input,
            output,
            ones_table,
        })
    }

    /// Input codec.
    pub fn input(&self) -> &Thermometer {
        &self.input
    }

    /// Output codec.
    pub fn output(&self) -> &Thermometer {
        &self.output
    }

    /// The compiled transfer: output ones-count per input ones-count.
    pub fn ones_table(&self) -> &[usize] {
        &self.ones_table
    }

    /// Number of output bits wired to real input taps (vs constants) —
    /// proportional to the interconnect cost.
    pub fn wired_taps(&self) -> usize {
        self.taps
            .iter()
            .filter(|t| matches!(t, Tap::Input(_)))
            .count()
    }

    /// Evaluates the block on a thermometer stream (bit-level).
    ///
    /// The stream is normalized first, as the hardware sits behind a BSN.
    ///
    /// # Panics
    ///
    /// Panics if the stream length differs from the compiled input codec.
    #[expect(
        clippy::expect_used,
        reason = "the output codec's even length and positive scale were validated at compile() time; ThermStream::new re-checks the same invariants"
    )]
    pub fn eval(&self, x: &ThermStream) -> ThermStream {
        assert_eq!(x.len(), self.input.len(), "input BSL mismatch");
        let sorted = x.normalized();
        let bits = Bitstream::from_bits(self.taps.iter().map(|tap| match tap {
            Tap::Zero => false,
            Tap::One => true,
            Tap::Input(i) => sorted.bits().get(*i),
        }));
        ThermStream::new(bits, self.output.scale()).expect("compiled output codec is valid")
    }

    /// Evaluates on a real value (encode → block → decode).
    pub fn eval_value(&self, x: f64) -> f64 {
        self.eval(&self.input.encode(x)).value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ref_fn;

    #[test]
    fn isotonic_identity_on_sorted_input() {
        let y = vec![1.0, 2.0, 2.0, 5.0];
        assert_eq!(isotonic_regression(&y), y);
    }

    #[test]
    fn isotonic_pools_violators() {
        let y = vec![3.0, 1.0];
        assert_eq!(isotonic_regression(&y), vec![2.0, 2.0]);
        let y = vec![1.0, 4.0, 2.0, 3.0];
        let iso = isotonic_regression(&y);
        assert!(iso.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(iso, vec![1.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn isotonic_handles_empty_and_single() {
        assert!(isotonic_regression(&[]).is_empty());
        assert_eq!(isotonic_regression(&[7.0]), vec![7.0]);
    }

    #[test]
    fn monotone_functions_are_exact_on_grid() {
        let enc = Thermometer::new(16, 0.5).unwrap();
        let block = SiBlock::compile(|x| x.max(0.0), enc, enc).unwrap();
        for q in -8..=8i64 {
            let x = q as f64 * 0.5;
            let y = block.eval_value(x);
            assert!((y - x.max(0.0)).abs() < 1e-12, "x={x} y={y}");
        }
    }

    #[test]
    fn sigmoid_si_is_monotone_and_accurate() {
        let input = Thermometer::new(32, 0.25).unwrap();
        let output = Thermometer::with_range(32, 1.0).unwrap();
        let block = SiBlock::compile(ref_fn::sigmoid, input, output).unwrap();
        let mut last = f64::NEG_INFINITY;
        for q in -16..=16i64 {
            let x = q as f64 * 0.25;
            let y = block.eval_value(x);
            assert!(y >= last);
            last = y;
            assert!((y - ref_fn::sigmoid(x)).abs() < 0.06, "x={x} y={y}");
        }
    }

    #[test]
    fn gelu_si_fails_in_negative_range() {
        // Fig. 2(c): naive SI cannot dip; the compiled transfer is the
        // isotonic hull, which is ~0 over the dip.
        let input = Thermometer::new(8, 1.0).unwrap();
        let output = Thermometer::new(8, 1.0).unwrap();
        let block = SiBlock::compile(ref_fn::gelu, input, output).unwrap();
        let y_at_dip = block.eval_value(-1.0);
        assert!(
            (y_at_dip - ref_fn::gelu(-1.0)).abs() > 0.05,
            "naive SI should miss the dip, got {y_at_dip}"
        );
        // …while the positive range is fine (within half an output LSB)
        // even at short BSL (§III-A).
        for x in [1.0, 2.0, 3.0] {
            let y = block.eval_value(x);
            assert!((y - ref_fn::gelu(x)).abs() <= 0.5 + 0.05, "x={x} y={y}");
        }
        // And the transfer is monotone by construction.
        assert!(block.ones_table().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn eval_normalizes_unsorted_inputs() {
        let enc = Thermometer::new(8, 1.0).unwrap();
        let block = SiBlock::compile(|x| x, enc, enc).unwrap();
        let bits = sc_core::Bitstream::from_str_binary("01010101").unwrap();
        let x = ThermStream::new(bits, 1.0).unwrap();
        assert_eq!(block.eval(&x).level(), 0);
    }

    #[test]
    #[should_panic(expected = "BSL mismatch")]
    fn eval_rejects_wrong_length() {
        let enc = Thermometer::new(8, 1.0).unwrap();
        let block = SiBlock::compile(|x| x, enc, enc).unwrap();
        let x = ThermStream::from_level(0, 4, 1.0).unwrap();
        block.eval(&x);
    }

    #[test]
    fn constant_taps_for_saturating_targets() {
        // A function pinned at the max level everywhere → all-One taps.
        let enc = Thermometer::new(4, 1.0).unwrap();
        let block = SiBlock::compile(|_| 100.0, enc, enc).unwrap();
        assert_eq!(block.wired_taps(), 0);
        assert_eq!(block.eval_value(-2.0), 2.0);
    }
}
