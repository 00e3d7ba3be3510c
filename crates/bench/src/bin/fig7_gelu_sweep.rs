//! Fig. 7 — GELU ADP and MAE across BSLs.
//!
//! Bernstein 4/5/6-term at BSL ∈ {128, 256, 1024} vs gate-assisted SI at
//! output BSL ∈ {2, 4, 8}: two aligned series (ADP bars, MAE bars).

use ascend::report::{eng, TextTable};
use sc_hw::{blocks, CellLibrary};
use sc_nonlinear::bernstein::{gelu_block as bernstein_gelu, BernsteinConfig};
use sc_nonlinear::gate_si::gelu_block_calibrated;

fn main() -> Result<(), sc_core::ScError> {
    ascend_bench::banner("GELU blocks across BSLs", "Fig. 7");
    let lib = CellLibrary::paper_calibrated();
    let xs = ascend_bench::gelu_inputs(3000, 42);

    let mut table =
        TextTable::new(vec!["Series", "BSL", "ADP (um2*ns)", "MAE"]);

    for terms in [4usize, 5, 6] {
        for bsl in [128usize, 256, 1024] {
            let block = bernstein_gelu(terms, bsl)?;
            let cost = blocks::bernstein(
                &lib,
                &BernsteinConfig { terms, bsl, ..Default::default() },
                false,
            );
            let mae = ascend_bench::gelu_mae(|x| block.eval(x), &xs);
            table.row(vec![
                format!("{terms}-term Bern. poly."),
                format!("{bsl}b"),
                eng(cost.adp()),
                format!("{mae:.4}"),
            ]);
        }
    }
    for by in [2usize, 4, 8] {
        let block = gelu_block_calibrated(256, by, &xs)?;
        let cost = blocks::gate_si(&lib, &block);
        let mae = ascend_bench::gelu_mae(|x| block.eval_value(x), &xs);
        table.row(vec![
            "Gate-Assisted SI (ours)".into(),
            format!("{by}b"),
            eng(cost.adp()),
            format!("{mae:.4}"),
        ]);
    }
    println!("{}", table.render());
    println!("Expected shape: Bernstein ADP grows with BSL while MAE falls slowly;");
    println!("gate-SI sits orders of magnitude lower in delay-driven ADP at equal or better MAE.");
    Ok(())
}
