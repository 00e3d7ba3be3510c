//! Shared helpers for the cross-crate integration suite (included per test
//! binary via `mod support;`).

use ascend_tensor::Tensor;

/// Asserts two logit tensors are equal to the last bit — the workspace's
/// one definition of the bit-identity contract that the serve-determinism,
/// golden-regression, and backend-parity suites all enforce.
pub fn assert_bit_identical(a: &Tensor, b: &Tensor, context: &str) {
    assert_eq!(a.shape(), b.shape(), "{context}: shapes differ");
    for (i, (x, y)) in a.data().iter().zip(b.data().iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{context}: logit {i} differs: {x} vs {y}"
        );
    }
}
