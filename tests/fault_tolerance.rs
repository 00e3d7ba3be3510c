//! Integration: fault injection — the SC motivation that a single bit flip
//! perturbs a thermometer value by exactly one LSB, while positional binary
//! can lose half the range.

use sc_core::encoding::Thermometer;
use sc_core::{bsn, ThermStream};

/// Flip each bit of a thermometer stream in turn: the decoded value must
/// move by exactly one LSB.
#[test]
fn single_bit_flip_moves_value_by_one_lsb() {
    let enc = Thermometer::new(16, 0.125).unwrap();
    let x = enc.encode(0.5);
    for i in 0..x.len() {
        let mut bits = x.bits().clone();
        bits.flip(i);
        let corrupted = ThermStream::new(bits, x.scale()).unwrap();
        let delta = (corrupted.value() - x.value()).abs();
        assert!(
            (delta - x.scale()).abs() < 1e-12,
            "bit {i}: delta {delta} should be one LSB ({})",
            x.scale()
        );
    }
}

/// Positional binary worst case for comparison: flipping the MSB of an
/// 8-bit two's-complement value moves it by 128 LSBs.
#[test]
fn binary_msb_flip_is_catastrophic_by_contrast() {
    let value: i8 = 64;
    let flipped = value ^ (1i8 << 6); // flip bit 6
    assert_eq!(
        (value as i16 - flipped as i16).abs(),
        64,
        "positional weight"
    );
    // Thermometer: any flip = 1 LSB (shown above). The ratio grows with
    // word size; this is the fault-tolerance argument for SC ([11]).
}

/// Fault tolerance must survive arithmetic: flips before a BSN addition
/// still move the sum by exactly one LSB each.
#[test]
fn flips_propagate_linearly_through_bsn_addition() {
    let enc = Thermometer::new(8, 0.25).unwrap();
    let a = enc.encode(0.75);
    let b = enc.encode(-0.25);
    let clean = bsn::add(&[&a, &b]).unwrap();

    let mut worst = 0.0f64;
    for i in 0..a.len() {
        let mut bits = a.bits().clone();
        bits.flip(i);
        let fa = ThermStream::new(bits, a.scale()).unwrap();
        let sum = bsn::add(&[&fa, &b]).unwrap();
        worst = worst.max((sum.value() - clean.value()).abs());
    }
    assert!(
        (worst - a.scale()).abs() < 1e-12,
        "worst-case deviation {worst} should equal one input LSB"
    );
}

/// Multi-flip: k random flips move the value by at most k LSBs.
#[test]
fn k_flips_bounded_by_k_lsb() {
    let enc = Thermometer::new(32, 0.0625).unwrap();
    let x = enc.encode(1.0);
    let mut bits = x.bits().clone();
    for i in [3usize, 7, 20, 31] {
        bits.flip(i);
    }
    let corrupted = ThermStream::new(bits, x.scale()).unwrap();
    let delta = (corrupted.value() - x.value()).abs();
    assert!(
        delta <= 4.0 * x.scale() + 1e-12,
        "4 flips moved value by {delta}"
    );
}
