//! Table VI — accelerator-level evaluation of softmax configurations.
//!
//! Trains one SC-friendly ViT with the two-stage pipeline, then sweeps the
//! paper's `[By, s1, s2, k]` quadruples: for each, compiles the SC engine,
//! measures end-to-end SC accuracy, and costs `k` parallel softmax blocks
//! inside the full accelerator area model. Pass `--quick` for a smoke run.
#![forbid(unsafe_code)]

use ascend::accelerator::{AcceleratorConfig, AcceleratorModel};
use ascend::engine::{EngineConfig, ScEngine};
use ascend::InferenceBackend;
use ascend::pipeline::{Pipeline, PipelineConfig};
use ascend::report::{eng, TextTable};
use sc_hw::CellLibrary;

/// The paper's Table VI configuration quadruples `[By, s1, s2, k]`.
const QUADS: [(usize, usize, usize, usize); 4] =
    [(4, 128, 2, 2), (8, 32, 8, 3), (16, 128, 16, 4), (32, 128, 16, 4)];

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    ascend_bench::banner("SC accelerator configurations", "Table VI");

    let cfg = if quick {
        PipelineConfig {
            classes: 10,
            n_train: 300,
            n_test: 120,
            stage1_epochs: 2,
            stage2_epochs: 1,
            ..PipelineConfig::default()
        }
    } else {
        PipelineConfig {
            classes: 10,
            n_train: 1200,
            n_test: 400,
            stage1_epochs: 8,
            stage2_epochs: 3,
            verbose: true,
            ..PipelineConfig::default()
        }
    };
    println!("training the SC-friendly ViT (two-stage pipeline)…");
    let mut pipeline = Pipeline::new(cfg);
    let report = pipeline.run();
    println!("{}", report.table());

    let model = pipeline.final_model.as_ref().expect("pipeline trains the final model");
    let (train_set, test_set) = pipeline.datasets();
    let calib_idx: Vec<usize> = (0..32.min(train_set.len())).collect();
    let calib = train_set.patches(&calib_idx, model.config.patch);
    let lib = CellLibrary::paper_calibrated();

    let mut table = TextTable::new(vec![
        "[By, s1, s2, k]",
        "Softmax area (um2)",
        "*Accelerator area (um2)",
        "Softmax share",
        "SC accuracy (%)",
    ]);

    for (by, s1, s2, k) in QUADS {
        let ecfg = EngineConfig::from_quad(by, s1, s2, k);
        let engine = ScEngine::compile(model, ecfg, &calib, calib_idx.len())
            .expect("engine compiles for trained model");
        let acc_cfg = AcceleratorConfig {
            softmax_by: by,
            softmax_s1: s1,
            softmax_s2: s2,
            softmax_k: k,
            array_rows: 16,
        };
        // Arrays are costed at the paper's accelerator tile geometry
        // (dim 256 ViT, 16 tokens/wave); the softmax blocks are the ones
        // compiled for this model. This reproduces the share narrative of
        // Table VI without pretending our reduced-width ViT fills a full
        // accelerator.
        let tile = ascend_vit::VitConfig { dim: 256, mlp_ratio: 2, ..model.config };
        let hw = AcceleratorModel::cost(&lib, &engine, &tile, &acc_cfg);
        let accuracy = engine.accuracy(test_set, 64).expect("SC inference runs") * 100.0;
        table.row(vec![
            format!("[{by}, {s1}, {s2}, {k}]"),
            eng(hw.breakdown().softmax),
            eng(hw.breakdown().total()),
            format!("{:.2}%", hw.breakdown().softmax_share_pct()),
            format!("{accuracy:.2}"),
        ]);
    }
    println!("{}", table.render());
    println!("* k softmax blocks are instantiated for full parallelism (Table VI note).");
    println!("Expected shape: softmax share small at the low end (~1.5% in the paper),");
    println!("area grows >30x across configs while accuracy improves by a point or two;");
    println!("[8, 32, 8, 3] is the recommended knee.");
}
