//! Shared plumbing for the table/figure harness binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! ASCEND paper; see DESIGN.md §3 for the index. This library holds the
//! input distributions, metric helpers and formatting they share.

#![warn(missing_docs)]

use sc_nonlinear::mae::InputDist;

/// Samples the GELU-input test vectors used by Table III / Fig. 7
/// (standard normal clipped to ±4, documented in EXPERIMENTS.md).
pub fn gelu_inputs(n: usize, seed: u64) -> Vec<f64> {
    InputDist::gelu_default().sample(n, seed)
}

/// Samples softmax logit rows used by Table IV / Fig. 8: `N(0, 2.5²)`
/// clipped to ±6 per element — the wider, peakier shape of attention
/// logits collected from trained ViT layers (the paper gathers its test
/// vectors the same way, §VI-A; see EXPERIMENTS.md).
pub fn softmax_rows(rows: usize, m: usize, seed: u64) -> Vec<Vec<f64>> {
    InputDist::Gaussian { mean: 0.0, sigma: 2.5, min: -6.0, max: 6.0 }.sample_rows(rows, m, seed)
}

/// MAE of a scalar SC GELU block against the exact reference over samples.
pub fn gelu_mae<F: Fn(f64) -> f64>(block: F, xs: &[f64]) -> f64 {
    let got: Vec<f64> = xs.iter().map(|&x| block(x)).collect();
    let want: Vec<f64> = xs.iter().map(|&x| sc_nonlinear::ref_fn::gelu(x)).collect();
    sc_nonlinear::mae::mae(&got, &want)
}

/// Prints the standard harness banner.
pub fn banner(what: &str, paper_ref: &str) {
    println!("=== ASCEND reproduction: {what} ({paper_ref}) ===");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributions_are_deterministic() {
        assert_eq!(gelu_inputs(16, 1), gelu_inputs(16, 1));
        assert_eq!(softmax_rows(2, 8, 1), softmax_rows(2, 8, 1));
    }

    #[test]
    fn gelu_mae_zero_for_exact() {
        let xs = gelu_inputs(64, 2);
        assert_eq!(gelu_mae(sc_nonlinear::ref_fn::gelu, &xs), 0.0);
    }
}
