//! Interactive-scale design-space exploration: a reduced Fig. 8 sweep that
//! prints the ADP/MAE cloud and its Pareto front for one `Bx`.
//!
//! Run with: `cargo run --release -p ascend-examples --bin pareto_explorer [bx]`

use ascend::report::{eng, TextTable};
use ascend_examples::section;
use sc_core::rescale::RescaleMode;
use sc_hw::pareto::{pareto_front, DesignPoint};
use sc_hw::{blocks, CellLibrary};
use sc_nonlinear::mae::InputDist;
use sc_nonlinear::softmax_iter::{IterSoftmaxBlock, IterSoftmaxConfig};

fn main() {
    let bx: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(4);
    let m = 64usize;
    let lib = CellLibrary::paper_calibrated();
    let rows = InputDist::Gaussian { mean: 0.0, sigma: 2.5, min: -6.0, max: 6.0 }
        .sample_rows(16, m, 5);

    section(&format!("sweeping Bx = {bx}, m = {m}"));
    let mut points = Vec::new();
    let mut infeasible = 0usize;
    for by in [4usize, 8, 16] {
        for k in [2usize, 3, 4] {
            for s1 in [8usize, 32, 128] {
                for s2 in [2usize, 8, 16] {
                    let cfg = IterSoftmaxConfig {
                        m,
                        k,
                        bx,
                        ax: 12.0 / bx as f64,
                        by,
                        ay: 1.0 / m as f64,
                        s1,
                        s2,
                        mode: RescaleMode::Round,
                    };
                    let Ok(block) = IterSoftmaxBlock::new(cfg) else {
                        infeasible += 1;
                        continue;
                    };
                    let Ok(mae) = block.mae_levels(&rows) else { continue };
                    let cost = blocks::iter_softmax(&lib, &block);
                    points.push(DesignPoint { id: (by, k, s1, s2), adp: cost.adp(), mae });
                }
            }
        }
    }
    println!("{} feasible, {} infeasible designs", points.len(), infeasible);

    let front = pareto_front(points);
    section(&format!("Pareto front ({} optima)", front.len()));
    let mut table = TextTable::new(vec!["By", "k", "s1", "s2", "ADP (um2*ns)", "MAE"]);
    for p in &front {
        let (by, k, s1, s2) = p.id;
        table.row(vec![
            by.to_string(),
            k.to_string(),
            s1.to_string(),
            s2.to_string(),
            eng(p.adp),
            format!("{:.4}", p.mae),
        ]);
    }
    println!("{}", table.render());
    println!("pick the knee: small ADP step up for the last big MAE drop.");
}
