//! Table III — GELU blocks: area / delay / ADP / MAE.
//!
//! Baselines: Bernstein polynomial \[18\] with 4/5/6 terms at 1024-bit BSL.
//! Ours: gate-assisted SI with 2/4/8-bit output BSL (256-bit accumulated
//! input stream), output scale calibrated on the input distribution.

use ascend::report::{eng, TextTable};
use sc_hw::{blocks, CellLibrary};
use sc_nonlinear::bernstein::{BernsteinConfig, gelu_block as bernstein_gelu};
use sc_nonlinear::gate_si::gelu_block_calibrated;

fn main() -> Result<(), sc_core::ScError> {
    ascend_bench::banner("GELU block comparison", "Table III");
    let lib = CellLibrary::paper_calibrated();
    let xs = ascend_bench::gelu_inputs(4000, 42);

    let mut table = TextTable::new(vec![
        "Design", "Config", "Area (um2)", "Delay (ns)", "ADP (um2*ns)", "MAE",
    ]);

    let mut bern_adp = Vec::new();
    let mut bern_mae = Vec::new();
    for terms in [4usize, 5, 6] {
        let block = bernstein_gelu(terms, 1024)?;
        let cost = blocks::bernstein(
            &lib,
            &BernsteinConfig { terms, bsl: 1024, ..Default::default() },
            false,
        );
        let mae = ascend_bench::gelu_mae(|x| block.eval(x), &xs);
        bern_adp.push(cost.adp());
        bern_mae.push(mae);
        table.row(vec![
            "Bernstein [18]".into(),
            format!("{terms}-term, 1024b"),
            eng(cost.area_um2),
            eng(cost.delay_ns()),
            eng(cost.adp()),
            format!("{mae:.4}"),
        ]);
    }

    let mut ours_adp = Vec::new();
    let mut ours_mae = Vec::new();
    for by in [2usize, 4, 8] {
        let block = gelu_block_calibrated(256, by, &xs)?;
        let cost = blocks::gate_si(&lib, &block);
        let mae = ascend_bench::gelu_mae(|x| block.eval_value(x), &xs);
        ours_adp.push(cost.adp());
        ours_mae.push(mae);
        table.row(vec![
            "Ours (gate-SI)".into(),
            format!("{by}b BSL"),
            eng(cost.area_um2),
            eng(cost.delay_ns()),
            eng(cost.adp()),
            format!("{mae:.4}"),
        ]);
    }

    println!("{}", table.render());
    println!("Headline comparisons (paper: 3.36–5.29x ADP reduction, 56.3–71.7% MAE reduction):");
    println!(
        "  8b gate-SI vs 4-term/1024b Bernstein: ADP x{:.2}, MAE -{:.1}%",
        bern_adp[0] / ours_adp[2],
        100.0 * (1.0 - ours_mae[2] / bern_mae[0])
    );
    println!(
        "  8b gate-SI vs 6-term/1024b Bernstein: ADP x{:.2}, MAE -{:.1}%",
        bern_adp[2] / ours_adp[2],
        100.0 * (1.0 - ours_mae[2] / bern_mae[2])
    );
    println!(
        "  2b vs 8b gate-SI (allowing larger error): ADP x{:.2} further reduction",
        ours_adp[2] / ours_adp[0]
    );
    Ok(())
}
