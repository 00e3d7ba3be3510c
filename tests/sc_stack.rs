//! Integration: the deterministic SC stack composes correctly across
//! crates — thermometer GEMM equals integer GEMM, and the nonlinear blocks
//! plug into the same streams.

use sc_core::encoding::Thermometer;
use sc_core::rescale::{rescale, RescaleMode};
use sc_core::{bsn, ttmul, ThermStream};
use sc_nonlinear::gate_si::GateAssistedSi;
use sc_nonlinear::ref_fn;

/// A dot product computed entirely with SC primitives must equal the
/// integer dot product of the quantized operands.
#[test]
fn sc_dot_product_equals_integer_dot_product() {
    let w_enc = Thermometer::new(2, 0.5).unwrap(); // ternary weights
    let x_enc = Thermometer::new(2, 0.25).unwrap(); // ternary activations
    let weights = [-0.5, 0.0, 0.5, 0.5, -0.5, 0.0, 0.5, -0.5];
    let acts = [0.25, -0.25, 0.25, 0.0, -0.25, 0.25, 0.0, 0.25];

    // SC path: truth-table multiply every pair, BSN-accumulate.
    let products: Vec<ThermStream> = weights
        .iter()
        .zip(acts.iter())
        .map(|(&w, &x)| ttmul::mul(&w_enc.encode(w), &x_enc.encode(x)).unwrap())
        .collect();
    let refs: Vec<&ThermStream> = products.iter().collect();
    let acc = bsn::add(&refs).unwrap();

    // Integer path.
    let exact: f64 = weights.iter().zip(acts.iter()).map(|(w, x)| w * x).sum();
    assert!(
        (acc.value() - exact).abs() < 1e-12,
        "{} vs {exact}",
        acc.value()
    );

    // The accumulated stream re-scales into a narrower residual stream with
    // bounded error.
    let narrowed = rescale(&acc, 4, RescaleMode::Round).unwrap();
    assert!((narrowed.value() - exact).abs() <= narrowed.scale() + 1e-12);
}

/// A full "linear layer + GELU" slice: accumulate, rescale, and feed the
/// gate-assisted SI block, comparing against the float reference within the
/// compiled grid error.
#[test]
fn linear_then_gelu_slice_matches_reference_within_grid() {
    let w_enc = Thermometer::new(2, 0.5).unwrap();
    let x_enc = Thermometer::new(2, 0.5).unwrap();
    let weights = [0.5, -0.5, 0.5, 0.5, 0.0, -0.5];
    let acts = [0.5, 0.5, -0.5, 0.5, 0.5, 0.5];

    let products: Vec<ThermStream> = weights
        .iter()
        .zip(acts.iter())
        .map(|(&w, &x)| ttmul::mul(&w_enc.encode(w), &x_enc.encode(x)).unwrap())
        .collect();
    let refs: Vec<&ThermStream> = products.iter().collect();
    let pre = bsn::add(&refs).unwrap(); // scale 0.25, len 12

    // Compile a GELU for exactly this stream geometry.
    let gelu_in = Thermometer::new(pre.len(), pre.scale()).unwrap();
    let gelu_out = Thermometer::new(8, 0.125).unwrap();
    let block = GateAssistedSi::compile(ref_fn::gelu, gelu_in, gelu_out).unwrap();
    let y = block.eval(&pre);

    let exact = ref_fn::gelu(weights.iter().zip(acts.iter()).map(|(w, x)| w * x).sum());
    assert!(
        (y.value() - exact).abs() <= 0.125 / 2.0 + 1e-9,
        "{} vs {exact}",
        y.value()
    );
}

/// Negation, addition and subtraction compose across the whole stack.
#[test]
fn signed_arithmetic_composes() {
    let enc = Thermometer::new(16, 0.125).unwrap();
    let a = enc.encode(0.875);
    let b = enc.encode(-0.375);
    let diff = bsn::sub(&a, &b).unwrap();
    assert!((diff.value() - 1.25).abs() < 1e-12);
    let back = bsn::add(&[&diff, &b]).unwrap();
    assert!((back.value() - 0.875).abs() < 1e-12);
}
