//! Attention softmax on SC hardware: accuracy and cost of the iterative
//! approximate softmax block versus the FSM baseline, on attention-shaped
//! logit rows.
//!
//! Run with: `cargo run -p ascend-examples --bin sc_attention`

#![forbid(unsafe_code)]
use ascend::report::{eng, TextTable};
use ascend_examples::section;
use sc_core::rescale::RescaleMode;
use sc_hw::{blocks, CellLibrary};
use sc_nonlinear::mae::InputDist;
use sc_nonlinear::ref_fn;
use sc_nonlinear::softmax_fsm::{FsmSoftmax, FsmSoftmaxConfig};
use sc_nonlinear::softmax_iter::{IterSoftmaxBlock, IterSoftmaxConfig};

fn main() -> Result<(), sc_core::ScError> {
    let m = 64;
    let rows = InputDist::Gaussian { mean: 0.0, sigma: 2.0, min: -5.0, max: 5.0 }
        .sample_rows(40, m, 99);

    section("one attention row through both designs");
    let ours = IterSoftmaxBlock::new(IterSoftmaxConfig {
        m,
        ay: 1.0 / m as f64,
        ax: 2.5,
        ..IterSoftmaxConfig::default()
    })?;
    let fsm = FsmSoftmax::new(FsmSoftmaxConfig { m, bsl: 1024, ..Default::default() })?;
    let row = &rows[0];
    let exact = ref_fn::softmax(row);
    let got_ours = ours.run(row)?;
    let got_fsm = fsm.run(row)?;
    let top = exact
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .expect("non-empty");
    println!("top token {top}: exact {:.4}  ours {:.4}  fsm {:.4}", exact[top], got_ours[top], got_fsm[top]);

    section("batch MAE and hardware cost");
    let lib = CellLibrary::paper_calibrated();
    let mut table = TextTable::new(vec!["Design", "MAE", "Area (um2)", "Delay (ns)", "ADP"]);
    let mae_ours = ours.mae_levels(&rows)?;
    let cost_ours = blocks::iter_softmax(&lib, &ours);
    table.row(vec![
        "iterative (ours)".into(),
        format!("{mae_ours:.4}"),
        eng(cost_ours.area_um2),
        eng(cost_ours.delay_ns()),
        eng(cost_ours.adp()),
    ]);
    let mut mae_fsm = 0.0;
    for row in &rows {
        let got = fsm.run(row)?;
        let want = ref_fn::softmax(row);
        mae_fsm += got
            .iter()
            .zip(want.iter())
            .map(|(g, w)| (g - w).abs())
            .sum::<f64>()
            / m as f64;
    }
    mae_fsm /= rows.len() as f64;
    let cost_fsm =
        blocks::fsm_softmax(&lib, &FsmSoftmaxConfig { m, bsl: 1024, ..Default::default() });
    table.row(vec![
        "FSM baseline [17]".into(),
        format!("{mae_fsm:.4}"),
        eng(cost_fsm.area_um2),
        eng(cost_fsm.delay_ns()),
        eng(cost_fsm.adp()),
    ]);
    println!("{}", table.render());
    println!(
        "ADP advantage: x{:.1} in favour of the iterative block",
        cost_fsm.adp() / cost_ours.adp()
    );

    section("effect of the rounding mode (re-scaling blocks)");
    for mode in [RescaleMode::Floor, RescaleMode::Round, RescaleMode::Ceil] {
        let block = IterSoftmaxBlock::new(IterSoftmaxConfig {
            m,
            ay: 1.0 / m as f64,
            ax: 2.5,
            mode,
            ..IterSoftmaxConfig::default()
        })?;
        println!("{mode:?}: MAE {:.4}", block.mae_levels(&rows)?);
    }
    Ok(())
}
