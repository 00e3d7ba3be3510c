//! Property tests across the nonlinear-block families.

#![allow(
    clippy::unwrap_used,
    reason = "an integration test fails by panicking, helpers included"
)]

use proptest::prelude::*;
use sc_core::encoding::Thermometer;
use sc_core::rescale::RescaleMode;
use sc_core::ThermStream;
use sc_nonlinear::gate_si::GateAssistedSi;
use sc_nonlinear::ref_fn;
use sc_nonlinear::si::SiBlock;
use sc_nonlinear::softmax_iter::{IterSoftmaxBlock, IterSoftmaxConfig, SoftmaxLevels};

proptest! {
    /// Gate-assisted SI must realize its compiled table exactly for every
    /// input level — the "exact, fluctuation-free" claim of §IV-A.
    #[test]
    fn gate_si_realizes_its_table_exactly(
        bx in prop::sample::select(vec![4usize, 8, 16, 32]),
        by in prop::sample::select(vec![2usize, 4, 8]),
        scale_num in 1u32..8,
    ) {
        let input = Thermometer::new(bx, 0.25 * scale_num as f64).unwrap();
        let output = Thermometer::new(by, 0.1).unwrap();
        let block = GateAssistedSi::compile(ref_fn::gelu, input, output).unwrap();
        for t in 0..=bx {
            let x = ThermStream::from_level(t as i64 - (bx / 2) as i64, bx, input.scale()).unwrap();
            let y = block.eval(&x);
            let expect = block.ones_table()[t] as i64 - (by / 2) as i64;
            prop_assert_eq!(y.level(), expect, "t={}", t);
        }
    }

    /// Naive SI can never beat gate-assisted SI on the same grids (its
    /// transfer is the isotonic projection of the gate-SI table).
    #[test]
    fn naive_si_never_beats_gate_si(
        bx in prop::sample::select(vec![8usize, 16, 32]),
        by in prop::sample::select(vec![4usize, 8]),
    ) {
        let input = Thermometer::with_range(bx, 4.0).unwrap();
        let output = Thermometer::new(by, 0.17).unwrap();
        let gate = GateAssistedSi::compile(ref_fn::gelu, input, output).unwrap();
        let naive = SiBlock::compile(ref_fn::gelu, input, output).unwrap();
        let mut gate_err = 0.0;
        let mut naive_err = 0.0;
        let mut x = -4.0;
        while x <= 4.0 {
            gate_err += (gate.eval_value(x) - ref_fn::gelu(x)).abs();
            naive_err += (naive.eval_value(x) - ref_fn::gelu(x)).abs();
            x += 0.05;
        }
        prop_assert!(gate_err <= naive_err + 1e-9, "gate {} vs naive {}", gate_err, naive_err);
    }

    /// Softmax block outputs stay within the representable state range and
    /// are deterministic.
    #[test]
    fn softmax_outputs_bounded_and_deterministic(seed in 0u64..30) {
        let block = IterSoftmaxBlock::new(IterSoftmaxConfig {
            m: 8,
            k: 3,
            bx: 4,
            ax: 1.0,
            by: 16,
            ay: 0.125,
            s1: 4,
            s2: 4,
            mode: RescaleMode::Round,
        })
        .unwrap();
        let x: Vec<f64> = (0..8).map(|i| ((i as f64 * 1.3) + seed as f64).sin() * 2.0).collect();
        let a = block.run_levels(&x).unwrap();
        let b = block.run_levels(&x).unwrap();
        prop_assert_eq!(&a, &b);
        let bound = 0.125 * 8.0 + 1e-12;
        for v in a {
            prop_assert!(v.abs() <= bound, "out of state range: {}", v);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The softmax block's compiled program matches the bit-level circuit
    /// exactly — every rounding mode, sub-sample rates from none to the
    /// paper's 32, odd and even row lengths up to the engine's m = 65 (so
    /// the long `y·sum(z)/k` re-scaling legs are reached), engine-like
    /// grids (`αx = 2·range/Bx`, `αy = (2/By)·{¼, ½, 1}`), input BSLs
    /// up to 16 (17 levels, so a level histogram sized for Bx = 4 fails),
    /// and logits past the `±αx·Bx/2` input clamp. Infeasible
    /// configurations are skipped, as construction rejects them.
    #[test]
    fn softmax_level_twin_matches_bits(
        mode in prop::sample::select(vec![RescaleMode::Floor, RescaleMode::Round, RescaleMode::Ceil]),
        s1 in prop::sample::select(vec![1usize, 2, 4, 8, 32]),
        s2 in prop::sample::select(vec![1usize, 2, 4, 8, 32]),
        m in prop::sample::select(vec![4usize, 5, 16, 17, 64, 65]),
        k in 1usize..=4,
        bx in prop::sample::select(vec![2usize, 4, 8, 16]),
        by in prop::sample::select(vec![4usize, 8, 16]),
        range in 0.5f64..4.0,
        ay_mult in prop::sample::select(vec![0.25f64, 0.5, 1.0]),
        overdrive in 1.0f64..3.0,
        seed in 0u64..1000,
    ) {
        let ax = 2.0 * range / bx as f64;
        let cfg = IterSoftmaxConfig { m, k, bx, ax, by, ay: 2.0 / by as f64 * ay_mult, s1, s2, mode };
        if let Ok(block) = IterSoftmaxBlock::new(cfg) {
            // Amplitudes up to 3x the clamp: most rows saturate some inputs.
            let amp = overdrive * ax * (bx / 2) as f64;
            let x: Vec<f64> = (0..m)
                .map(|i| ((i as f64 + seed as f64) * 0.77).sin() * amp)
                .collect();
            let bits = block.run(&x).unwrap();
            let levels = block.run_levels(&x).unwrap();
            for (i, (b, l)) in bits.iter().zip(levels.iter()).enumerate() {
                prop_assert_eq!(b.to_bits(), l.to_bits(), "{:?} element {}: {} vs {}", cfg, i, b, l);
            }
        }
    }
}

/// A softmax block at every input BSL the twin test samples, at row
/// length `m`, with `αy = 1/(4m)` so that `y⁰ = 1/m` sits on state level 4
/// and the state moves.
fn level_block(bx: usize, m: usize) -> IterSoftmaxBlock {
    IterSoftmaxBlock::new(IterSoftmaxConfig {
        m,
        k: 3,
        bx,
        ax: 4.0 / bx as f64,
        by: 16,
        ay: 0.25 / m as f64,
        s1: 4,
        s2: 4,
        mode: RescaleMode::Round,
    })
    .unwrap()
}

/// Asserts the compiled program equals the bit-level circuit on `row`,
/// through both the `f64` and the in-place `f32` entry points, and
/// returns the output.
fn assert_program_matches_bits(block: &IterSoftmaxBlock, row: &[f32]) -> Vec<f64> {
    let wide: Vec<f64> = row.iter().map(|&v| f64::from(v)).collect();
    let bits = block.run(&wide).unwrap();
    let levels = block.run_levels(&wide).unwrap();
    let as_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(as_bits(&bits), as_bits(&levels), "{:?}", block.config());
    let mut in_place = row.to_vec();
    block
        .run_in_place(&mut in_place, &mut SoftmaxLevels::default())
        .unwrap();
    let want: Vec<f32> = levels.iter().map(|&v| v as f32).collect();
    assert_eq!(in_place, want, "{:?}", block.config());
    levels
}

/// Every lane on one input level, for each level and past both clamps:
/// all lanes share one trajectory, so the output is one value.
#[test]
fn softmax_program_matches_bits_with_every_lane_on_one_level() {
    for bx in [2usize, 4, 8, 16] {
        for m in [5usize, 65] {
            let block = level_block(bx, m);
            let ax = block.config().ax;
            let half = (bx / 2) as i64;
            for level in -half - 1..=half + 1 {
                let row = vec![(level as f64 * ax) as f32; m];
                let out = assert_program_matches_bits(&block, &row);
                assert!(
                    out.iter().all(|&v| v == out[0]),
                    "Bx {bx}, level {level}: {out:?}"
                );
            }
        }
    }
}

/// Every input level held by some lane, from one lane each (m = Bx + 1)
/// to several (m = 65).
#[test]
fn softmax_program_matches_bits_with_every_level_present() {
    for bx in [2usize, 4, 8, 16] {
        for m in [bx + 1, 65] {
            let block = level_block(bx, m);
            let ax = block.config().ax;
            let levels = bx + 1;
            let row: Vec<f32> = (0..m)
                .map(|i| (((i * 7) % levels) as f64 - (bx / 2) as f64) * ax)
                .map(|v| v as f32)
                .collect();
            let out = assert_program_matches_bits(&block, &row);
            let distinct = out
                .iter()
                .map(|v| v.to_bits())
                .collect::<std::collections::BTreeSet<_>>();
            assert!(distinct.len() > 1, "Bx {bx}, m {m}: the state never moved");
        }
    }
}
