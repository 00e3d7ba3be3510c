//! Table V — ViT accuracy under the two-stage training pipeline.
//!
//! Runs the full pipeline (paper §V) on SynthCIFAR-10 and SynthCIFAR-100
//! (the documented CIFAR substitutions, DESIGN.md S2/S3) and prints the
//! five Table V rows per dataset. Pass `--quick` for a smoke-scale run.

use ascend::pipeline::{Pipeline, PipelineConfig};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    ascend_bench::banner("two-stage training pipeline accuracy", "Table V");

    for classes in [10usize, 100] {
        let cfg = if quick {
            PipelineConfig {
                classes,
                n_train: 300,
                n_test: 120,
                stage1_epochs: 2,
                stage2_epochs: 1,
                verbose: false,
                ..PipelineConfig::default()
            }
        } else {
            PipelineConfig {
                classes,
                n_train: if classes == 10 { 1200 } else { 2000 },
                n_test: if classes == 10 { 400 } else { 600 },
                stage1_epochs: 8,
                stage2_epochs: 3,
                verbose: true,
                ..PipelineConfig::default()
            }
        };
        println!("--- SynthCIFAR-{classes} ---");
        let report = Pipeline::new(cfg).run();
        println!("{}", report.table());

        let prog = report.accuracy("BN-ViT + progressive quant").unwrap_or(0.0);
        let base = report.accuracy("Baseline low-precision BN-ViT").unwrap_or(0.0);
        let appr = report.accuracy("BN-ViT + progressive quant + appr").unwrap_or(0.0);
        let ft = report
            .accuracy("BN-ViT + progressive quant + appr-aware ft")
            .unwrap_or(0.0);
        println!("progressive quantization gain: {:+.2} pts (paper: +32.99 / +21.4)", prog - base);
        println!("approximate-softmax cost:     {:+.2} pts (paper: −1.85 / −1.8)", appr - prog);
        println!("fine-tuning recovery:          {:+.2} pts (paper: +1.52 / +0.82)", ft - appr);
        println!();
    }
}
