//! Scaled thermometer-coded values: the deterministic SC number format.
//!
//! A [`ThermStream`] is a bitstream together with a scaling factor `α`.
//! Its value is `α · q` where the *level* `q = popcount − L/2` (paper §II-A).
//! The value is invariant under bit permutation, so intermediate results may
//! be unsorted; a bitonic sorting network ([`crate::bsn`]) restores the
//! all-ones-first normal form whenever position-sensitive operations
//! (sub-sampling, selective interconnect) follow.

use std::fmt;

use crate::{Bitstream, ScError};

/// A thermometer-coded scaled value: `value = scale · (popcount − len/2)`.
///
/// ```
/// use sc_core::ThermStream;
///
/// let x = ThermStream::from_level(3, 8, 0.25)?; // q = 3, L = 8, α = 0.25
/// assert_eq!(x.level(), 3);
/// assert!((x.value() - 0.75).abs() < 1e-12);
/// assert_eq!(x.bits().to_string(), "11111110"); // 7 ones = 3 + 8/2
/// # Ok::<(), sc_core::ScError>(())
/// ```
#[derive(Clone, PartialEq)]
pub struct ThermStream {
    bits: Bitstream,
    scale: f64,
}

impl ThermStream {
    /// Wraps raw bits with a scaling factor.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParam`] if `bits` has odd length (the level
    /// offset `L/2` must be integral) or `scale` is not finite and positive.
    pub fn new(bits: Bitstream, scale: f64) -> Result<Self, ScError> {
        if !bits.len().is_multiple_of(2) {
            return Err(ScError::InvalidParam {
                name: "bits",
                reason: format!("thermometer length must be even, got {}", bits.len()),
            });
        }
        if !(scale.is_finite() && scale > 0.0) {
            return Err(ScError::InvalidParam {
                name: "scale",
                reason: format!("scale must be finite and positive, got {scale}"),
            });
        }
        Ok(ThermStream { bits, scale })
    }

    /// Builds the sorted (normal-form) stream for an integer level `q`.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::ValueOutOfRange`] if `|q| > len/2` and
    /// [`ScError::InvalidParam`] for an odd `len` or non-positive `scale`.
    pub fn from_level(q: i64, len: usize, scale: f64) -> Result<Self, ScError> {
        if !len.is_multiple_of(2) {
            return Err(ScError::InvalidParam {
                name: "len",
                reason: format!("thermometer length must be even, got {len}"),
            });
        }
        let half = (len / 2) as i64;
        if q < -half || q > half {
            return Err(ScError::ValueOutOfRange {
                value: q as f64,
                min: -half as f64,
                max: half as f64,
            });
        }
        let ones = (q + half) as usize;
        Self::new(Bitstream::from_fn(len, |i| i < ones), scale)
    }

    /// Encodes a real `x`, rounding to the nearest representable level and
    /// clamping to `[−scale·len/2, scale·len/2]`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is odd or `scale` is not finite and positive; use
    /// [`ThermStream::from_level`] for fallible construction.
    #[expect(clippy::expect_used, reason = "q was just clamped into [-len/2, len/2] and len/scale were asserted above, so from_level cannot reject")]
    pub fn encode_clamped(x: f64, len: usize, scale: f64) -> Self {
        assert!(len.is_multiple_of(2), "thermometer length must be even");
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        let half = (len / 2) as i64;
        let q = (x / scale).round().clamp(-(half as f64), half as f64) as i64;
        Self::from_level(q, len, scale).expect("clamped level is always in range")
    }

    /// The integer level `q = popcount − len/2`.
    pub fn level(&self) -> i64 {
        self.bits.count_ones() as i64 - (self.bits.len() / 2) as i64
    }

    /// The represented value `scale · level`.
    pub fn value(&self) -> f64 {
        self.scale * self.level() as f64
    }

    /// The scaling factor `α`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Bitstream length `L` (the BSL).
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Largest representable magnitude, `scale · len/2`.
    pub fn max_value(&self) -> f64 {
        self.scale * (self.bits.len() / 2) as f64
    }

    /// Borrows the raw bits.
    pub fn bits(&self) -> &Bitstream {
        &self.bits
    }

    /// Consumes the stream and returns the raw bits.
    pub fn into_bits(self) -> Bitstream {
        self.bits
    }

    /// Returns the stream in sorted (ones-first) normal form.
    ///
    /// Behavioural model of a pass through a bitonic sorting network.
    pub fn normalized(&self) -> ThermStream {
        ThermStream { bits: self.bits.sort_ones_first(), scale: self.scale }
    }

    /// True if the bits are in ones-first normal form.
    pub fn is_normalized(&self) -> bool {
        self.bits.is_sorted_ones_first()
    }

    /// Negation: bitwise NOT flips the level sign (`q → −q`).
    ///
    /// The result is *reversed-form* (ones at the tail) when the input was
    /// normal-form; value semantics are unaffected.
    pub fn negate(&self) -> ThermStream {
        ThermStream { bits: self.bits.not(), scale: self.scale }
    }

    /// Re-interprets the same bits under a new scale (hardware-free rescale,
    /// e.g. the `÷k` of the iterative softmax, which only edits `α`).
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParam`] if `scale` is not finite and positive.
    pub fn with_scale(&self, scale: f64) -> Result<ThermStream, ScError> {
        if !(scale.is_finite() && scale > 0.0) {
            return Err(ScError::InvalidParam {
                name: "scale",
                reason: format!("scale must be finite and positive, got {scale}"),
            });
        }
        Ok(ThermStream { bits: self.bits.clone(), scale })
    }
}

impl fmt::Debug for ThermStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ThermStream {{ len: {}, scale: {}, level: {}, value: {} }}",
            self.len(),
            self.scale,
            self.level(),
            self.value()
        )
    }
}

impl fmt::Display for ThermStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}·{}", self.scale, self.level())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_level_roundtrip() {
        for q in -4..=4 {
            let s = ThermStream::from_level(q, 8, 0.5).unwrap();
            assert_eq!(s.level(), q);
            assert!((s.value() - 0.5 * q as f64).abs() < 1e-12);
            assert!(s.is_normalized());
        }
    }

    #[test]
    fn rejects_odd_length_and_bad_scale() {
        assert!(ThermStream::from_level(0, 7, 1.0).is_err());
        assert!(ThermStream::new(Bitstream::zeros(4), 0.0).is_err());
        assert!(ThermStream::new(Bitstream::zeros(4), f64::NAN).is_err());
        assert!(ThermStream::from_level(5, 8, 1.0).is_err());
    }

    #[test]
    fn encode_clamped_rounds_and_clamps() {
        let s = ThermStream::encode_clamped(0.6, 4, 0.5);
        assert_eq!(s.level(), 1); // 0.6/0.5 = 1.2 → 1
        let s = ThermStream::encode_clamped(10.0, 4, 0.5);
        assert_eq!(s.level(), 2); // clamped to L/2
        let s = ThermStream::encode_clamped(-10.0, 4, 0.5);
        assert_eq!(s.level(), -2);
    }

    #[test]
    fn negate_flips_level() {
        let s = ThermStream::from_level(3, 8, 0.25).unwrap();
        let n = s.negate();
        assert_eq!(n.level(), -3);
        assert!((n.value() + s.value()).abs() < 1e-12);
    }

    #[test]
    fn value_is_permutation_invariant() {
        let bits = Bitstream::from_str_binary("01100101").unwrap();
        let s = ThermStream::new(bits, 1.0).unwrap();
        let n = s.normalized();
        assert_eq!(s.level(), n.level());
        assert!(n.is_normalized());
        assert!(!s.is_normalized());
    }

    #[test]
    fn with_scale_keeps_bits() {
        let s = ThermStream::from_level(2, 8, 1.0).unwrap();
        let t = s.with_scale(0.5).unwrap();
        assert_eq!(t.level(), 2);
        assert!((t.value() - 1.0).abs() < 1e-12);
        assert!(s.with_scale(-1.0).is_err());
    }

    #[test]
    fn max_value_matches_range() {
        let s = ThermStream::from_level(0, 16, 0.125).unwrap();
        assert!((s.max_value() - 1.0).abs() < 1e-12);
    }
}
