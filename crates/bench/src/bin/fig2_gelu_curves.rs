//! Fig. 2 — GELU transfer curves of the four circuit families.
//!
//! Prints a TSV of `x`, exact GELU, and each design's output over the
//! paper's plotting window `x ∈ [−3, 0.5]`: (a) FSM at BSL 128/1024,
//! (b) 4-term Bernstein at BSL 128/1024, (c) naive SI at BSL 4/8,
//! (d) gate-assisted SI at BSL 4/8.

use sc_core::encoding::Thermometer;
use sc_core::ScError;
use sc_nonlinear::bernstein::gelu_block as bernstein_gelu;
use sc_nonlinear::fsm::{FsmGelu, FsmGeluConfig};
use sc_nonlinear::gate_si::gelu_block_calibrated;
use sc_nonlinear::ref_fn;
use sc_nonlinear::si::SiBlock;

fn main() -> Result<(), ScError> {
    ascend_bench::banner("GELU transfer curves", "Fig. 2");

    let fsm128 = FsmGelu::new(FsmGeluConfig { bsl: 128, ..Default::default() })?;
    let fsm1024 = FsmGelu::new(FsmGeluConfig { bsl: 1024, ..Default::default() })?;
    let bern128 = bernstein_gelu(4, 128)?;
    let bern1024 = bernstein_gelu(4, 1024)?;

    // Both SI families run the paper's wide-input configuration: a 256-bit
    // accumulated thermometer input compressed to a 4b/8b output whose
    // scale is calibrated on the plotting window — the setup where Fig. 2
    // (c) and (d) differ *only* in the assist gates.
    let window: Vec<f64> = (0..700).map(|i| -3.0 + i as f64 * 0.005).collect();
    let gate4 = gelu_block_calibrated(256, 4, &window)?;
    let gate8 = gelu_block_calibrated(256, 8, &window)?;
    let naive_like = |gate: &sc_nonlinear::gate_si::GateAssistedSi| -> Result<SiBlock, ScError> {
        let input = Thermometer::with_range(256, 4.0)?;
        let output =
            Thermometer::new(gate.output().len(), gate.output().scale())?;
        SiBlock::compile(ref_fn::gelu, input, output)
    };
    let naive4 = naive_like(&gate4)?;
    let naive8 = naive_like(&gate8)?;

    println!(
        "{}",
        [
            "x", "gelu", "fsm_bsl128", "fsm_bsl1024", "bern4_bsl128", "bern4_bsl1024",
            "naive_si_4b", "naive_si_8b", "gate_si_4b", "gate_si_8b",
        ]
        .join("\t")
    );
    let mut x = -3.0f64;
    while x <= 0.5 + 1e-9 {
        let row = [
            x,
            ref_fn::gelu(x),
            fsm128.eval(x),
            fsm1024.eval(x),
            bern128.eval(x),
            bern1024.eval(x),
            naive4.eval_value(x),
            naive8.eval_value(x),
            gate4.eval_value(x),
            gate8.eval_value(x),
        ];
        println!(
            "{}",
            row.iter().map(|v| format!("{v:.4}")).collect::<Vec<_>>().join("\t")
        );
        x += 0.05;
    }

    // The qualitative claims of Fig. 2, checked numerically.
    let xs = ascend_bench::gelu_inputs(2000, 42);
    let dip: Vec<f64> = xs.iter().copied().filter(|v| (-2.0..=-0.3).contains(v)).collect();
    let fsm_dip = ascend_bench::gelu_mae(|v| fsm1024.eval(v), &dip);
    let gate_dip = ascend_bench::gelu_mae(|v| gate8.eval_value(v), &dip);
    let naive_dip = ascend_bench::gelu_mae(|v| naive8.eval_value(v), &dip);
    println!();
    println!("# dip-region (−2 ≤ x ≤ −0.3) MAE:");
    println!("#   FSM @1024b        {fsm_dip:.4}   (saturates at 0 — Fig. 2a)");
    println!("#   naive SI @8b      {naive_dip:.4}   (monotone hull — Fig. 2c)");
    println!("#   gate-assisted @8b {gate_dip:.4}   (tracks the dip — Fig. 2d)");
    Ok(())
}
