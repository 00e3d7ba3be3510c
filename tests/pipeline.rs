//! Integration: the two-stage training pipeline produces the Table V rows
//! with the paper's qualitative ordering.

use ascend::pipeline::{Pipeline, PipelineConfig};

#[test]
fn pipeline_rows_reproduce_paper_ordering_at_smoke_scale() {
    // Slightly larger than the unit smoke test so the ordering claims have
    // room to show; still seconds-scale.
    let cfg = PipelineConfig {
        n_train: 160,
        n_test: 80,
        stage1_epochs: 4,
        stage2_epochs: 2,
        ..PipelineConfig::smoke_test()
    };
    let mut pipeline = Pipeline::new(cfg);
    let report = pipeline.run();

    let fp = report.accuracy("FP LN-ViT [24]").unwrap();
    let prog = report.accuracy("BN-ViT + progressive quant").unwrap();
    let ft = report
        .accuracy("BN-ViT + progressive quant + appr-aware ft")
        .unwrap();

    // The FP reference must be strong on the smoke task.
    assert!(fp > 40.0, "FP reference too weak: {fp}");
    // Progressive quantization must stay within reach of FP (the paper's
    // headline: it recovers most of the direct-quantization collapse).
    assert!(prog > 25.0, "progressive quant collapsed: {prog}");
    // The final SC-friendly model must be usable.
    assert!(ft > 25.0, "fine-tuned model unusable: {ft}");
    // Artifacts exposed.
    assert!(pipeline.final_model.is_some());
    assert!(pipeline.teacher_fp.is_some());
    let final_model = pipeline.final_model.as_ref().unwrap();
    assert_eq!(
        final_model.plan(),
        ascend_vit::PrecisionPlan::w2_a2_r16(),
        "final model must be at SC precision"
    );
}
