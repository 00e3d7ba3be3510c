//! Integration: the analytic synthesis model reproduces the paper's
//! cost *shapes* across crates (structural scalings, headline ratios).

use sc_hw::{blocks, CellLibrary};
use sc_nonlinear::bernstein::BernsteinConfig;
use sc_nonlinear::gate_si;
use sc_nonlinear::softmax_fsm::FsmSoftmaxConfig;
use sc_nonlinear::softmax_iter::{IterSoftmaxBlock, IterSoftmaxConfig};

fn lib() -> CellLibrary {
    CellLibrary::paper_calibrated()
}

#[test]
fn table3_shape_gate_si_beats_bernstein_on_adp_and_mae() {
    let xs: Vec<f64> = (0..500).map(|i| -4.0 + i as f64 * 0.016).collect();
    let ours = gate_si::gelu_block_calibrated(256, 8, &xs).unwrap();
    let ours_cost = blocks::gate_si(&lib(), &ours);
    let base_cost = blocks::bernstein(
        &lib(),
        &BernsteinConfig {
            terms: 4,
            bsl: 1024,
            ..Default::default()
        },
        false,
    );
    // ADP reduction in the paper: 3.36–5.29x; accept anything clearly > 2x.
    let adp_ratio = base_cost.adp() / ours_cost.adp();
    assert!(adp_ratio > 2.0, "ADP ratio {adp_ratio}");
    // Delay: parallel vs stream-serial — orders of magnitude.
    assert!(base_cost.delay_ns() / ours_cost.delay_ns() > 50.0);
}

#[test]
fn table4_shape_iterative_beats_fsm_on_adp() {
    let ours = IterSoftmaxBlock::new(IterSoftmaxConfig::default()).unwrap();
    let ours_cost = blocks::iter_softmax(&lib(), &ours);
    let fsm_cost = blocks::fsm_softmax(
        &lib(),
        &FsmSoftmaxConfig {
            bsl: 1024,
            ..Default::default()
        },
    );
    let ratio = fsm_cost.adp() / ours_cost.adp();
    // Paper: 12.6x vs the 1024b FSM row at By = 8.
    assert!(ratio > 3.0, "ADP ratio vs FSM@1024 too small: {ratio}");
    // FSM area must be BSL-independent while its delay grows.
    let fsm128 = blocks::fsm_softmax(
        &lib(),
        &FsmSoftmaxConfig {
            bsl: 128,
            ..Default::default()
        },
    );
    assert_eq!(fsm128.area_um2, fsm_cost.area_um2);
    assert!(fsm_cost.delay_ns() > 4.0 * fsm128.delay_ns());
}

#[test]
fn softmax_area_scales_superlinearly_in_by() {
    // Table IV/VI: By 4 → 16 grows area drastically (paper ~20x 4→16).
    let cost_for = |by: usize| {
        let block = IterSoftmaxBlock::new(IterSoftmaxConfig {
            by,
            ay: 1.0 / 64.0,
            ..IterSoftmaxConfig::default()
        })
        .unwrap();
        blocks::iter_softmax(&lib(), &block).area_um2
    };
    let a4 = cost_for(4);
    let a16 = cost_for(16);
    assert!(a16 / a4 > 8.0, "area 4→16 ratio {}", a16 / a4);
}

#[test]
fn paper_magnitude_anchors() {
    // Absolute magnitudes within ~3x of the paper's reported values.
    let xs: Vec<f64> = (0..500).map(|i| -4.0 + i as f64 * 0.016).collect();
    let g8 = blocks::gate_si(
        &lib(),
        &gate_si::gelu_block_calibrated(256, 8, &xs).unwrap(),
    );
    assert!(
        (900.0..8000.0).contains(&g8.area_um2),
        "paper: 2581.7, got {}",
        g8.area_um2
    );
    assert!(
        (0.2..1.7).contains(&g8.delay_ns()),
        "paper: 0.55, got {}",
        g8.delay_ns()
    );

    let fsm = blocks::fsm_softmax(&lib(), &FsmSoftmaxConfig::default());
    assert!(
        (4.2e3..3.8e4).contains(&fsm.area_um2),
        "paper: 1.26e4, got {}",
        fsm.area_um2
    );
}
