//! Fig. 8 — design-space exploration of the iterative softmax block.
//!
//! Sweeps the full Table II parameter grid — 2916 designs:
//! `Bx ∈ {2,4} × m ∈ {64,128} × By ∈ {4,8,16} × k ∈ {2,3,4} ×
//! s1 ∈ {8,32,128} × s2 ∈ {2,8,16} × αx-mult ∈ {0.5,1,2} ×
//! αy ∈ {0.5,1,2}/m` (state grids anchored at the y(0) = 1/m level) —
//! evaluates ADP (analytic synthesis model) and MAE
//! (level-domain circuit sim, property-tested equal to the bit-level one),
//! and extracts the per-Bx Pareto fronts.
#![forbid(unsafe_code)]

use ascend::report::{eng, TextTable};
use ascend::serve::{parallel_map, ServeConfig};
use sc_core::rescale::RescaleMode;
use sc_hw::pareto::{pareto_front, DesignPoint};
use sc_hw::{blocks, CellLibrary};
use sc_nonlinear::softmax_iter::{IterSoftmaxBlock, IterSoftmaxConfig};

fn main() {
    ascend_bench::banner("iterative-softmax design-space exploration", "Fig. 8");
    let lib = CellLibrary::paper_calibrated();

    // The 2916-point grid.
    let mut grid = Vec::new();
    for bx in [2usize, 4] {
        for m in [64usize, 128] {
            for by in [4usize, 8, 16] {
                for k in [2usize, 3, 4] {
                    for s1 in [8usize, 32, 128] {
                        for s2 in [2usize, 8, 16] {
                            for ax_mult in [0.5f64, 1.0, 2.0] {
                                for ay_mult in [0.5f64, 1.0, 2.0] {
                                    grid.push(IterSoftmaxConfig {
                                        m,
                                        k,
                                        bx,
                                        ax: ax_mult * 4.0 / bx as f64,
                                        by,
                                        ay: ay_mult / m as f64,
                                        s1,
                                        s2,
                                        mode: RescaleMode::Round,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    println!("design grid: {} points (paper: 2916)", grid.len());

    // Evaluate in parallel on the workspace's shared parallel-map primitive;
    // small chunks keep the workers load-balanced across the ragged
    // per-design evaluation times.
    let threads = ServeConfig::auto().resolved_workers();
    let results = parallel_map(threads, 64, &grid, |_, cfg| evaluate(&lib, *cfg));

    let feasible: Vec<(IterSoftmaxConfig, f64, f64)> =
        results.into_iter().flatten().collect();
    println!(
        "feasible designs: {} ({} infeasible by stream-divisibility)",
        feasible.len(),
        grid.len() - feasible.len()
    );
    println!();

    for bx in [2usize, 4] {
        let points: Vec<DesignPoint<IterSoftmaxConfig>> = feasible
            .iter()
            .filter(|(c, _, _)| c.bx == bx)
            .map(|(c, adp, mae)| DesignPoint { id: *c, adp: *adp, mae: *mae })
            .collect();
        let n_points = points.len();
        let front = pareto_front(points);
        println!(
            "Bx = {bx}: {} designs, {} Pareto optima (paper: {} optima)",
            n_points,
            front.len(),
            if bx == 2 { 12 } else { 21 }
        );
        let adp_lo = front.first().map(|p| p.adp).unwrap_or(0.0);
        let adp_hi = front.last().map(|p| p.adp).unwrap_or(0.0);
        let mae_lo = front.last().map(|p| p.mae).unwrap_or(0.0);
        let mae_hi = front.first().map(|p| p.mae).unwrap_or(0.0);
        println!(
            "  front spans ADP {} … {} | MAE {:.4} … {:.4}",
            eng(adp_lo),
            eng(adp_hi),
            mae_hi,
            mae_lo
        );
        let mut table = TextTable::new(vec![
            "m", "By", "k", "s1", "s2", "ax", "ay", "ADP (um2*ns)", "MAE",
        ]);
        for p in &front {
            let c = &p.id;
            table.row(vec![
                c.m.to_string(),
                c.by.to_string(),
                c.k.to_string(),
                c.s1.to_string(),
                c.s2.to_string(),
                format!("{:.3}", c.ax),
                format!("{:.4}", c.ay),
                eng(p.adp),
                format!("{:.4}", p.mae),
            ]);
        }
        println!("{}", table.render());
    }
}

fn evaluate(
    lib: &CellLibrary,
    cfg: IterSoftmaxConfig,
) -> Option<(IterSoftmaxConfig, f64, f64)> {
    let block = IterSoftmaxBlock::new(cfg).ok()?;
    let rows = ascend_bench::softmax_rows(24, cfg.m, 11);
    let mae = block.mae_levels(&rows).ok()?;
    let cost = blocks::iter_softmax(lib, &block);
    Some((cfg, cost.adp(), mae))
}
