//! Quickstart: the SC substrate in five minutes.
//!
//! Walks the deterministic thermometer pipeline end to end: encode values,
//! multiply with a truth table, accumulate with a bitonic sorting network,
//! re-scale, and push a value through the paper's two nonlinear blocks —
//! the Fig. 4 ternary GELU and the iterative approximate softmax.
//!
//! Run with: `cargo run -p ascend-examples --bin quickstart`

use ascend_examples::section;
use sc_core::encoding::Thermometer;
use sc_core::rescale::{rescale, RescaleMode};
use sc_core::{bsn, ttmul};
use sc_nonlinear::gate_si::ternary_gelu;
use sc_nonlinear::ref_fn;
use sc_nonlinear::softmax_iter::{IterSoftmaxBlock, IterSoftmaxConfig};

fn main() -> Result<(), sc_core::ScError> {
    section("thermometer encoding (paper §II-A)");
    let enc = Thermometer::new(8, 0.25)?; // 8-bit BSL, scale α = 0.25
    let a = enc.encode(0.75);
    let b = enc.encode(-0.5);
    println!("encode( 0.75) -> bits {} (level {:+})", a.bits(), a.level());
    println!("encode(-0.50) -> bits {} (level {:+})", b.bits(), b.level());

    section("truth-table multiplication (exact)");
    let prod = ttmul::mul(&a, &b)?;
    println!(
        "0.75 x -0.5 = {} (level {:+} at scale {})",
        prod.value(),
        prod.level(),
        prod.scale()
    );

    section("BSN addition = concatenate + sort (paper §II-A)");
    let sum = bsn::add(&[&a, &b])?;
    println!("0.75 + -0.5 = {} over {} bits: {}", sum.value(), sum.len(), sum.bits());

    section("re-scaling block: sub-sample by 4 (scale x4)");
    let shorter = rescale(&sum, 4, RescaleMode::Round)?;
    println!(
        "same value, quarter the bits: {} over {} bits (1 LSB = {})",
        shorter.value(),
        shorter.len(),
        shorter.scale()
    );

    section("gate-assisted SI ternary GELU (paper Fig. 4)");
    let gelu = ternary_gelu()?;
    for x in [-3.0, -1.0, 0.0, 1.0, 3.0] {
        let y = gelu.eval(&gelu.input().encode(x));
        println!(
            "GELU({x:+.1}) -> level {:+} (value {:+.2}, exact {:+.3})",
            y.level(),
            y.value(),
            ref_fn::gelu(x)
        );
    }
    println!(
        "threshold signals: {} (paper uses 3), assist gates: {}",
        gelu.threshold_count(),
        gelu.assist_gate_count()
    );

    section("iterative approximate softmax (paper Alg. 1 / Fig. 5)");
    let block = IterSoftmaxBlock::new(IterSoftmaxConfig {
        m: 8,
        k: 3,
        bx: 4,
        ax: 1.0,
        by: 16,
        ay: 0.125,
        s1: 4,
        s2: 8,
        mode: RescaleMode::Round,
    })?;
    let logits = [2.0, -1.0, 0.5, 0.0, -0.5, 1.0, -2.0, 0.2];
    let sc = block.run(&logits)?;
    let exact = ref_fn::softmax(&logits);
    println!("logit   SC-softmax   exact");
    for ((l, s), e) in logits.iter().zip(sc.iter()).zip(exact.iter()) {
        println!("{l:+.1}     {s:.4}      {e:.4}");
    }
    Ok(())
}
