//! Ablation — the re-scaling blocks' rounding mode and the `/k` gain error.
//!
//! DESIGN.md calls out two design choices the paper leaves implicit:
//! (1) which bit of each sub-sample group the re-scaler taps (floor /
//! round / ceil behaviour), and (2) the gain error absorbed when the `/k`
//! scale folding does not land on an even tap count. This harness
//! quantifies both on the recommended softmax configuration.

use ascend::report::TextTable;
use sc_core::rescale::RescaleMode;
use sc_core::ScError;
use sc_nonlinear::softmax_iter::{IterSoftmaxBlock, IterSoftmaxConfig};

fn main() -> Result<(), ScError> {
    ascend_bench::banner("re-scaling ablations", "DESIGN.md §3 / paper Table II");
    let rows = ascend_bench::softmax_rows(120, 64, 7);

    // (1) Rounding mode of every re-scaler in the block.
    let mut table = TextTable::new(vec!["Rescale mode", "MAE (By=8)", "MAE (By=16)"]);
    for mode in [RescaleMode::Floor, RescaleMode::Round, RescaleMode::Ceil] {
        let mae = |by: usize| -> Result<f64, ScError> {
            IterSoftmaxBlock::new(IterSoftmaxConfig {
                by,
                ay: 1.0 / 64.0,
                ax: 3.0,
                mode,
                ..IterSoftmaxConfig::default()
            })?
            .mae_levels(&rows)
        };
        table.row(vec![format!("{mode:?}"), format!("{:.4}", mae(8)?), format!("{:.4}", mae(16)?)]);
    }
    println!("{}", table.render());

    // (2) k sweep: the iteration-error vs gain-error trade.
    let mut table = TextTable::new(vec!["k", "MAE (By=8)", "note"]);
    for k in [1usize, 2, 3, 4, 6, 8] {
        let block = IterSoftmaxBlock::new(IterSoftmaxConfig {
            k,
            by: 8,
            ay: 1.0 / 64.0,
            ax: 3.0,
            ..IterSoftmaxConfig::default()
        })?;
        let mae = block.mae_levels(&rows)?;
        let note = match k {
            1 => "single Euler step",
            3 => "paper's recommended k (and k blocks in the accelerator)",
            _ => "",
        };
        table.row(vec![k.to_string(), format!("{mae:.4}"), note.into()]);
    }
    println!("{}", table.render());
    println!("Euler error falls with k while area grows k-fold (Table VI note);");
    println!("non-power-of-two k additionally pays the /k gain error documented in");
    println!("sc_core::rescale::align_scale.");
    Ok(())
}
