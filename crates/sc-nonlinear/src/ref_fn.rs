//! Float-exact reference implementations of the nonlinear functions.
//!
//! Every SC block in this crate is scored against these references by the
//! MAE harness ([`crate::mae`]).

/// Error function via Abramowitz & Stegun 7.1.26 (|ε| ≤ 1.5·10⁻⁷).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Exact GELU: `x · Φ(x)` with `Φ` the standard normal CDF.
///
/// ```
/// use sc_nonlinear::ref_fn::gelu;
///
/// assert!((gelu(0.0)).abs() < 1e-12);
/// assert!((gelu(3.0) - 3.0).abs() < 1e-2);     // ≈ identity for large x
/// assert!(gelu(-0.5) < 0.0 && gelu(-0.5) > -0.2); // the dip
/// ```
pub fn gelu(x: f64) -> f64 {
    x * 0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// The tanh-based GELU approximation many accelerators use; provided so the
/// approximation error itself can be measured.
pub fn gelu_tanh(x: f64) -> f64 {
    let c = (2.0 / std::f64::consts::PI).sqrt();
    0.5 * x * (1.0 + (c * (x + 0.044_715 * x * x * x)).tanh())
}

/// Logistic sigmoid.
pub fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Numerically stable softmax.
///
/// Returns an empty vector for empty input.
pub fn softmax(x: &[f64]) -> Vec<f64> {
    if x.is_empty() {
        return Vec::new();
    }
    let max = x.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = x.iter().map(|v| (v - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// ReLU.
pub fn relu(x: f64) -> f64 {
    x.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-9);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(3.0) - 0.999_977_9).abs() < 1e-6);
    }

    #[test]
    fn gelu_matches_published_points() {
        // Values computed from the exact definition x·Φ(x).
        assert!((gelu(1.0) - 0.841_345).abs() < 1e-4);
        assert!((gelu(-1.0) + 0.158_655).abs() < 1e-4);
        assert!((gelu(-2.0) + 0.045_500).abs() < 1e-4);
    }

    #[test]
    fn gelu_dip_minimum_near_expected_location() {
        // The GELU minimum sits near x ≈ −0.751 with value ≈ −0.170.
        let (mut best_x, mut best_y) = (0.0, 0.0);
        let mut x = -2.0;
        while x < 0.0 {
            let y = gelu(x);
            if y < best_y {
                best_y = y;
                best_x = x;
            }
            x += 1e-3;
        }
        assert!((best_x + 0.751).abs() < 0.01, "min at {best_x}");
        assert!((best_y + 0.170).abs() < 0.005, "min value {best_y}");
    }

    #[test]
    fn tanh_gelu_close_to_exact() {
        let mut x = -4.0;
        while x <= 4.0 {
            assert!((gelu(x) - gelu_tanh(x)).abs() < 5e-3, "x={x}");
            x += 0.05;
        }
    }

    #[test]
    fn softmax_is_simplex() {
        let y = softmax(&[1.0, 2.0, 3.0, -1.0]);
        let s: f64 = y.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert!(y.iter().all(|v| *v > 0.0));
        // Order preserved.
        assert!(y[2] > y[1] && y[1] > y[0] && y[0] > y[3]);
    }

    #[test]
    fn softmax_handles_extremes() {
        let y = softmax(&[1000.0, 0.0]);
        assert!((y[0] - 1.0).abs() < 1e-12);
        assert!(softmax(&[]).is_empty());
        let u = softmax(&[5.0; 7]);
        for v in u {
            assert!((v - 1.0 / 7.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sigmoid_tanh_relation() {
        for x in [-3.0, -0.5, 0.0, 0.7, 2.5] {
            let lhs = sigmoid(x);
            let rhs = 0.5 * (1.0 + (x / 2.0_f64).tanh());
            assert!((lhs - rhs).abs() < 1e-12);
        }
    }
}
