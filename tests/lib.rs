//! Shared fixtures for the cross-crate integration tests.

#![warn(missing_docs)]

/// A deterministic pseudo-random logit row (no rand dependency needed at
/// call sites).
pub fn logit_row(m: usize, seed: u64) -> Vec<f64> {
    (0..m)
        .map(|i| (((i as f64) + seed as f64 * 1.7) * 0.613).sin() * 2.0)
        .collect()
}
