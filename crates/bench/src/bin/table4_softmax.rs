//! Table IV — softmax blocks: area / delay / ADP / MAE at m = 64.
//!
//! Baseline: the FSM/binary softmax of \[17\] at BSL ∈ {128, 256, 1024}.
//! Ours: the iterative approximate softmax at Bx = 4 and By ∈ {4, 8, 16}
//! (`[s1, s2, k] = [32, 8, 3]`, the paper's recommended rates) with the
//! paper's full-range state grid αy = 2/By.

use ascend::report::{eng, TextTable};
use sc_core::rescale::RescaleMode;
use sc_core::ScError;
use sc_hw::{blocks, CellLibrary};
use sc_nonlinear::softmax_fsm::{FsmSoftmax, FsmSoftmaxConfig};
use sc_nonlinear::softmax_iter::{IterSoftmaxBlock, IterSoftmaxConfig};

const M: usize = 64;

fn main() -> Result<(), ScError> {
    ascend_bench::banner("softmax block comparison (m = 64)", "Table IV");
    let lib = CellLibrary::paper_calibrated();
    let rows = ascend_bench::softmax_rows(120, M, 7);

    let mut table = TextTable::new(vec![
        "Design", "Config", "Area (um2)", "Delay (ns)", "ADP (um2*ns)", "MAE",
    ]);

    let mut fsm_adp = Vec::new();
    let mut fsm_mae = Vec::new();
    for bsl in [128usize, 256, 1024] {
        // The [17] design point: 6 fractional output bits, coarse exp LUT.
        let cfg = FsmSoftmaxConfig { m: M, bsl, frac_bits: 6, lut_entries: 16, ..Default::default() };
        let block = FsmSoftmax::new(cfg)?;
        let cost = blocks::fsm_softmax(&lib, &cfg);
        let mae = mae_of(|r| block.run(r), &rows)?;
        fsm_adp.push(cost.adp());
        fsm_mae.push(mae);
        table.row(vec![
            "FSM [17]".into(),
            format!("{bsl}b BSL"),
            eng(cost.area_um2),
            eng(cost.delay_ns()),
            eng(cost.adp()),
            format!("{mae:.4}"),
        ]);
    }

    let mut ours_adp = Vec::new();
    let mut ours_mae = Vec::new();
    for by in [4usize, 8, 16] {
        let block = paper_grid_block(by)?;
        let mae = block.mae_levels(&rows)?;
        let cost = blocks::iter_softmax(&lib, &block);
        ours_adp.push(cost.adp());
        ours_mae.push(mae);
        table.row(vec![
            "Ours (iterative)".into(),
            format!("By = {by}"),
            eng(cost.area_um2),
            eng(cost.delay_ns()),
            eng(cost.adp()),
            format!("{mae:.4}"),
        ]);
    }

    println!("{}", table.render());
    println!("Headline comparisons (paper: 1.58–12.6x ADP reduction, 22.6–29.1% MAE reduction @By=8):");
    println!(
        "  By=8 vs FSM@128b:  ADP x{:.2}, MAE {:+.1}%",
        fsm_adp[0] / ours_adp[1],
        100.0 * (ours_mae[1] / fsm_mae[0] - 1.0)
    );
    println!(
        "  By=8 vs FSM@1024b: ADP x{:.2}, MAE {:+.1}%",
        fsm_adp[2] / ours_adp[1],
        100.0 * (ours_mae[1] / fsm_mae[2] - 1.0)
    );
    println!(
        "  By 8→4: ADP x{:.2} further reduction, MAE {:+.1}%",
        ours_adp[1] / ours_adp[0],
        100.0 * (ours_mae[0] / ours_mae[1] - 1.0)
    );
    Ok(())
}

/// Builds the By-block on the paper's grids: αx spans ±6 over Bx = 4
/// levels; αy = 1/m so the anchor y(0) = 1/m is exactly one level and the
/// representable output range (±By/2m) grows with By — the mechanism
/// behind Table IV/VI's accuracy-vs-By trend.
fn paper_grid_block(by: usize) -> Result<IterSoftmaxBlock, ScError> {
    IterSoftmaxBlock::new(IterSoftmaxConfig {
        m: M,
        k: 3,
        bx: 4,
        ax: 3.0,
        by,
        ay: 1.0 / M as f64,
        s1: 32,
        s2: 8,
        mode: RescaleMode::Round,
    })
}

fn mae_of<F: Fn(&[f64]) -> Result<Vec<f64>, ScError>>(
    block: F,
    rows: &[Vec<f64>],
) -> Result<f64, ScError> {
    let mut total = 0.0;
    let mut n = 0usize;
    for row in rows {
        let got = block(row)?;
        let want = sc_nonlinear::ref_fn::softmax(row);
        for (g, w) in got.iter().zip(want.iter()) {
            total += (g - w).abs();
            n += 1;
        }
    }
    Ok(total / n as f64)
}
