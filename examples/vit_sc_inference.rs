//! End-to-end demo: train a small SC-friendly ViT with the two-stage
//! pipeline, compile the SC inference engine, and compare float vs SC
//! classification on held-out images.
//!
//! Run with: `cargo run --release -p ascend-examples --bin vit_sc_inference`

use ascend::engine::{EngineConfig, ScEngine};
use ascend::InferenceBackend;
use ascend::pipeline::{Pipeline, PipelineConfig};
use ascend_examples::section;
use ascend_vit::train::evaluate;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    section("two-stage pipeline (reduced scale)");
    let cfg = PipelineConfig {
        classes: 10,
        n_train: 600,
        n_test: 200,
        stage1_epochs: 4,
        stage2_epochs: 2,
        verbose: true,
        ..PipelineConfig::default()
    };
    let mut pipeline = Pipeline::new(cfg);
    let report = pipeline.run();
    println!("{}", report.table());

    let model = pipeline.final_model.as_ref().ok_or("pipeline trained no final model")?;
    let (train_set, test_set) = pipeline.datasets();

    section("compiling the SC engine ([By, s1, s2, k] = [8, 32, 8, 3])");
    let calib_idx: Vec<usize> = (0..32).collect();
    let calib = train_set.patches(&calib_idx, model.config.patch);
    let engine = ScEngine::compile(model, EngineConfig::default(), &calib, calib_idx.len())?;
    let sm = engine.softmax_block().config();
    println!(
        "softmax block: m={} Bx={} ax={:.3} By={} ay={:.4} s1={} s2={} k={}",
        sm.m, sm.bx, sm.ax, sm.by, sm.ay, sm.s1, sm.s2, sm.k
    );

    section("float vs SC classification");
    let float_acc = evaluate(model, test_set, 64) * 100.0;
    let sc_acc = engine.accuracy(test_set, 64)? * 100.0;
    println!("float (quantized) model accuracy: {float_acc:.2}%");
    println!("SC engine accuracy:               {sc_acc:.2}%");

    let idx: Vec<usize> = (0..10).collect();
    let patches = test_set.patches(&idx, model.config.patch);
    let sc_logits = engine.forward(&patches, 10)?;
    let float_logits = model.predict(&patches, 10);
    println!();
    println!("sample  label  float-pred  sc-pred");
    for (i, label) in test_set.labels_for(&idx).iter().enumerate() {
        println!(
            "{i:>6}  {label:>5}  {:>10}  {:>7}",
            float_logits.argmax_rows()[i],
            sc_logits.argmax_rows()[i]
        );
    }
    Ok(())
}
