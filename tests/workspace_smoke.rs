//! Workspace wiring smoke test: the full crate DAG (sc-core → sc-nonlinear /
//! sc-hw → tensor → vit → core) must link, and a tiny end-to-end run of the
//! two-stage pipeline must produce finite accuracies for every Table V row.

use ascend::pipeline::{Pipeline, PipelineConfig};

#[test]
fn tiny_pipeline_runs_end_to_end_with_finite_outputs() {
    let cfg = PipelineConfig {
        n_train: 32,
        n_test: 16,
        stage1_epochs: 1,
        stage2_epochs: 1,
        batch: 16,
        ..PipelineConfig::smoke_test()
    };
    let mut pipeline = Pipeline::new(cfg);
    let report = pipeline.run();

    assert!(!report.rows.is_empty(), "pipeline produced no Table V rows");
    for row in &report.rows {
        assert!(
            row.accuracy.is_finite(),
            "row {:?} has non-finite accuracy {}",
            row.name,
            row.accuracy
        );
        assert!(
            (0.0..=100.0).contains(&row.accuracy),
            "row {:?} accuracy {} outside [0, 100]",
            row.name,
            row.accuracy
        );
    }
    // The rendered table must mention every row label.
    let table = report.table();
    for row in &report.rows {
        assert!(
            table.contains(&row.name),
            "table is missing row {:?}",
            row.name
        );
    }
}
