//! Property-based tests for the SC substrate invariants.

#![allow(clippy::expect_used, reason = "an integration test fails by panicking, helpers included")]

use proptest::prelude::*;
use sc_core::bsn::{self, BitonicNetwork};
use sc_core::rescale::{rescale, RescaleMode};
use sc_core::sng::{Lfsr, RandomSource, VanDerCorput};
use sc_core::{arith, ttmul, Bitstream, ThermStream};

fn arb_bits(max_len: usize) -> impl Strategy<Value = Bitstream> {
    proptest::collection::vec(any::<bool>(), 0..max_len).prop_map(Bitstream::from_bits)
}

/// Lengths straddling the packed-word boundaries: one under, at, and one
/// over a whole `u64`, for one and two words.
fn word_boundary_lengths() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![63usize, 64, 65, 127, 128, 129])
}

/// Arbitrary bit vectors exactly at the word-boundary lengths.
fn arb_boundary_bits() -> impl Strategy<Value = Vec<bool>> {
    word_boundary_lengths()
        .prop_flat_map(|len| proptest::collection::vec(any::<bool>(), len..=len))
}

fn arb_therm(max_half: i64) -> impl Strategy<Value = ThermStream> {
    (1..=max_half, 0.01f64..4.0).prop_flat_map(|(half, scale)| {
        (-half..=half).prop_map(move |q| {
            ThermStream::from_level(q, (half * 2) as usize, scale).expect("valid level")
        })
    })
}

proptest! {
    #[test]
    fn bitstream_not_is_involution(s in arb_bits(200)) {
        prop_assert_eq!(s.not().not(), s);
    }

    #[test]
    fn bitstream_popcount_plus_zeros_is_len(s in arb_bits(200)) {
        prop_assert_eq!(s.count_ones() + s.not().count_ones(), s.len());
    }

    #[test]
    fn xor_with_self_is_zero(s in arb_bits(200)) {
        prop_assert_eq!(s.xor(&s).unwrap().count_ones(), 0);
    }

    #[test]
    fn and_or_counts_are_inclusion_exclusion(a in arb_bits(128), b in arb_bits(128)) {
        if a.len() == b.len() {
            let and = a.and(&b).unwrap().count_ones();
            let or = a.or(&b).unwrap().count_ones();
            prop_assert_eq!(and + or, a.count_ones() + b.count_ones());
        }
    }

    #[test]
    fn concat_count_is_sum(a in arb_bits(100), b in arb_bits(100)) {
        let c = a.concat(&b);
        prop_assert_eq!(c.count_ones(), a.count_ones() + b.count_ones());
        prop_assert_eq!(c.len(), a.len() + b.len());
    }

    #[test]
    fn bsn_sorts_and_preserves_popcount(s in arb_bits(130)) {
        if !s.is_empty() {
            let net = BitonicNetwork::new(s.len());
            let sorted = net.sort(&s);
            prop_assert!(sorted.is_sorted_ones_first());
            prop_assert_eq!(sorted.count_ones(), s.count_ones());
        }
    }

    /// Sorting networks must sort every 0/1 input; by the 0-1 principle this
    /// certifies the comparator schedule sorts arbitrary keys.
    #[test]
    fn bsn_output_equals_behavioural_sort(s in arb_bits(64)) {
        if !s.is_empty() {
            let net = BitonicNetwork::new(s.len());
            prop_assert_eq!(net.sort(&s), s.sort_ones_first());
        }
    }

    #[test]
    fn therm_negate_is_involution(x in arb_therm(16)) {
        let n = x.negate().negate();
        prop_assert_eq!(n.level(), x.level());
    }

    #[test]
    fn bsn_add_matches_integer_addition(a in arb_therm(16), b in -8i64..=8) {
        let y = ThermStream::from_level(b, 16, a.scale()).unwrap();
        let sum = bsn::add(&[&a, &y]).unwrap();
        prop_assert_eq!(sum.level(), a.level() + b);
        prop_assert!((sum.value() - (a.value() + y.value())).abs() < 1e-9);
    }

    #[test]
    fn ttmul_matches_integer_multiplication(a in arb_therm(8), b in arb_therm(8)) {
        let p = ttmul::mul(&a, &b).unwrap();
        prop_assert_eq!(p.level(), a.level() * b.level());
        prop_assert!((p.value() - a.value() * b.value()).abs() < 1e-9);
    }

    #[test]
    fn rescale_error_bounded_by_one_lsb(
        q in -32i64..=32,
        s in prop::sample::select(vec![2usize, 4, 8, 16]),
        mode in prop::sample::select(vec![RescaleMode::Floor, RescaleMode::Round, RescaleMode::Ceil]),
    ) {
        let x = ThermStream::from_level(q, 64, 0.25).unwrap();
        let y = rescale(&x, s, mode).unwrap();
        prop_assert!((y.value() - x.value()).abs() <= y.scale() + 1e-12);
        prop_assert_eq!(y.len(), 64 / s);
    }

    #[test]
    fn scc_is_bounded(a in arb_bits(100), b in arb_bits(100)) {
        if a.len() == b.len() && !a.is_empty() {
            let c = arith::scc(&a, &b).unwrap();
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&c));
        }
    }

    #[test]
    fn lfsr_streams_hit_probability_within_tolerance(
        seed in 1u32..5000,
        p in 0.0f64..=1.0,
    ) {
        let mut l = Lfsr::new(12, seed).unwrap();
        let s = l.bitstream(p, 4095).unwrap();
        prop_assert!((s.frac_ones() - p).abs() < 0.03);
    }

    #[test]
    fn vdc_streams_hit_probability_tightly(p in 0.0f64..=1.0) {
        let mut v = VanDerCorput::new(16).unwrap();
        let s = v.bitstream(p, 256).unwrap();
        prop_assert!((s.frac_ones() - p).abs() <= 1.0 / 256.0 + 1e-9);
    }

    /// `ones` at word-boundary lengths: the popcount is exactly the length,
    /// every materialized bit is set, and the complement is empty — i.e.
    /// the packed tail past `len` stays masked to zero.
    #[test]
    fn ones_is_exact_at_word_boundaries(len in word_boundary_lengths()) {
        let s = Bitstream::ones(len);
        prop_assert_eq!(s.len(), len);
        prop_assert_eq!(s.count_ones(), len);
        prop_assert!(s.to_vec().iter().all(|&b| b));
        prop_assert_eq!(s.not().count_ones(), 0);
    }

    /// `from_bits` round-trips through `to_vec`, `count_ones`, and
    /// `FromIterator` at word-boundary lengths.
    #[test]
    fn from_bits_round_trips_at_word_boundaries(bits in arb_boundary_bits()) {
        let s = Bitstream::from_bits(bits.clone());
        prop_assert_eq!(s.len(), bits.len());
        prop_assert_eq!(s.count_ones(), bits.iter().filter(|&&b| b).count());
        prop_assert_eq!(s.to_vec(), bits.clone());
        let collected: Bitstream = bits.into_iter().collect();
        prop_assert_eq!(collected, s);
    }

    /// Iterator round-trips at word-boundary lengths, forward and reversed,
    /// and the masked-tail invariant keeps complement popcounts exact.
    #[test]
    fn iterator_round_trips_at_word_boundaries(bits in arb_boundary_bits()) {
        let s = Bitstream::from_bits(bits);
        let rebuilt = Bitstream::from_bits(s.iter());
        prop_assert_eq!(&rebuilt, &s);
        let mut reversed: Vec<bool> = s.iter().rev().collect();
        reversed.reverse();
        prop_assert_eq!(reversed, s.to_vec());
        prop_assert_eq!(s.iter().len(), s.len());
        prop_assert_eq!(s.not().count_ones(), s.len() - s.count_ones());
    }
}
