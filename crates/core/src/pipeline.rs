//! The two-stage SC-friendly training pipeline (paper §V, Fig. 6).
//!
//! Stage 1 — *progressive quantization*: starting from a full-precision
//! model, step through FP → W16-A16-R16 → W16-A2-R16 → W2-A2-R16, warm-
//! starting each step from the previous one. The FP model teaches the first
//! step; W16-A16-R16 teaches the last two (it is closer to the student and
//! "provides sufficient information", §V).
//!
//! Stage 2 — *approximate-softmax-aware fine-tuning*: swap the exact
//! softmax for the iterative approximation (Algorithm 1) and fine-tune
//! briefly at a small LR to win back the accuracy the swap costs.
//!
//! [`Pipeline::run`] produces every Table V row: the FP LN-ViT reference,
//! the direct-quantization baseline, and the progressive/approximate/
//! fine-tuned variants.

use ascend_vit::data::{synth_cifar, Dataset};
use ascend_vit::train::{evaluate, train_model, TrainConfig};
use ascend_vit::{NormKind, PrecisionPlan, SoftmaxKind, VitConfig, VitModel};

/// Pipeline hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Model geometry (norm/softmax fields are managed by the pipeline).
    pub model: VitConfig,
    /// Classes in the synthetic dataset (10 ↔ CIFAR10, 100 ↔ CIFAR100).
    pub classes: usize,
    /// Training-set size.
    pub n_train: usize,
    /// Test-set size.
    pub n_test: usize,
    /// Epochs for the FP teachers and each progressive step (paper: 300).
    pub stage1_epochs: usize,
    /// Epochs for the approximate-softmax fine-tune (paper: 30).
    pub stage2_epochs: usize,
    /// Stage-1 peak LR (paper: 7.5e-4).
    pub lr_stage1: f32,
    /// Stage-2 LR (paper: 5e-6; scaled up here for the shorter schedule).
    pub lr_stage2: f32,
    /// Batch size (paper: 128).
    pub batch: usize,
    /// KD balance β (paper: 2).
    pub beta_kd: f32,
    /// Iterative-softmax Euler steps for stage 2.
    pub softmax_k: usize,
    /// Dataset seed.
    pub data_seed: u64,
    /// Print progress.
    pub verbose: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            model: VitConfig::default(),
            classes: 10,
            n_train: 2000,
            n_test: 500,
            stage1_epochs: 8,
            stage2_epochs: 3,
            lr_stage1: 1.5e-3,
            lr_stage2: 2e-4,
            batch: 64,
            beta_kd: 2.0,
            softmax_k: 3,
            data_seed: 20240220,
            verbose: false,
        }
    }
}

impl PipelineConfig {
    /// A seconds-scale configuration for tests.
    pub fn smoke_test() -> Self {
        PipelineConfig {
            model: VitConfig {
                image: 8,
                patch: 4,
                dim: 16,
                layers: 2,
                heads: 2,
                classes: 4,
                ..Default::default()
            },
            classes: 4,
            n_train: 96,
            n_test: 48,
            stage1_epochs: 2,
            stage2_epochs: 1,
            ..Default::default()
        }
    }
}

/// Accuracy of one pipeline variant (a Table V row).
#[derive(Debug, Clone, PartialEq)]
pub struct StageResult {
    /// Row label, matching the paper's Table V naming.
    pub name: String,
    /// Top-1 test accuracy, percent.
    pub accuracy: f32,
}

/// The full Table V row set for one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Dataset label (`SynthCIFAR-10` etc.).
    pub dataset: String,
    /// Rows in paper order.
    pub rows: Vec<StageResult>,
}

impl PipelineReport {
    /// Formats the rows as an aligned text table.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<46} {:>9}\n",
            format!("Model ({})", self.dataset),
            "Acc (%)"
        );
        for row in &self.rows {
            out.push_str(&format!("{:<46} {:>9.2}\n", row.name, row.accuracy));
        }
        out
    }

    /// Accuracy of a named row.
    pub fn accuracy(&self, name: &str) -> Option<f32> {
        self.rows
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.accuracy)
    }
}

/// The two-stage pipeline driver. Owns the datasets and every intermediate
/// model so callers can inspect (or reuse) the trained artifacts.
pub struct Pipeline {
    cfg: PipelineConfig,
    train_set: Dataset,
    test_set: Dataset,
    /// The final SC-friendly low-precision model, populated by `run`.
    pub final_model: Option<VitModel>,
    /// The FP BatchNorm teacher, populated by `run`.
    pub teacher_fp: Option<VitModel>,
}

impl Pipeline {
    /// Creates the pipeline, generating the datasets.
    pub fn new(cfg: PipelineConfig) -> Self {
        let (train_set, test_set) = synth_cifar(
            cfg.classes,
            cfg.n_train,
            cfg.n_test,
            cfg.model.image,
            cfg.data_seed,
        );
        Pipeline {
            cfg,
            train_set,
            test_set,
            final_model: None,
            teacher_fp: None,
        }
    }

    /// The generated datasets (train, test).
    pub fn datasets(&self) -> (&Dataset, &Dataset) {
        (&self.train_set, &self.test_set)
    }

    fn train_cfg(&self, epochs: usize, lr: f32, seed: u64) -> TrainConfig {
        TrainConfig {
            epochs,
            batch: self.cfg.batch,
            lr,
            weight_decay: 0.01,
            beta_kd: self.cfg.beta_kd,
            seed,
            verbose: self.cfg.verbose,
        }
    }

    fn log(&self, msg: &str) {
        if self.cfg.verbose {
            println!("[pipeline] {msg}");
        }
    }

    /// Runs everything and returns the Table V rows. The trained
    /// artifacts remain available via `final_model` / `teacher_fp`.
    pub fn run(&mut self) -> PipelineReport {
        let c = self.cfg.clone();
        let mut rows = Vec::new();
        let mut model_cfg = c.model;
        model_cfg.classes = c.classes;

        // Row 1 — FP LN-ViT reference [24].
        self.log("training FP LN-ViT reference");
        let mut ln_vit = VitModel::new(VitConfig {
            norm: NormKind::Layer,
            ..model_cfg
        });
        train_model(
            &mut ln_vit,
            None,
            &self.train_set,
            &self.test_set,
            &self.train_cfg(c.stage1_epochs, c.lr_stage1, 1),
        );
        let acc_ln = evaluate(&ln_vit, &self.test_set, c.batch) * 100.0;
        rows.push(StageResult {
            name: "FP LN-ViT [24]".into(),
            accuracy: acc_ln,
        });

        // FP BN-ViT (LN→BN swap under KD; <0.1% impact in the paper).
        self.log("training FP BN-ViT (LN->BN swap, KD from LN-ViT)");
        let mut bn_vit = VitModel::new(VitConfig {
            norm: NormKind::Batch,
            ..model_cfg
        });
        train_model(
            &mut bn_vit,
            Some(&ln_vit),
            &self.train_set,
            &self.test_set,
            &self.train_cfg(c.stage1_epochs, c.lr_stage1, 2),
        );

        // Row 2 — baseline: direct quantization to W2-A2-R16 (with KD).
        self.log("training direct-quantization baseline (W2-A2-R16, no progressive steps)");
        let mut direct = bn_vit.clone();
        direct.set_plan(PrecisionPlan::w2_a2_r16());
        let calib = self.train_set.patches(&[0, 1, 2, 3], model_cfg.patch);
        direct.calibrate_steps(&calib, 4);
        train_model(
            &mut direct,
            Some(&bn_vit),
            &self.train_set,
            &self.test_set,
            &self.train_cfg(c.stage1_epochs, c.lr_stage1, 3),
        );
        let acc_direct = evaluate(&direct, &self.test_set, c.batch) * 100.0;
        rows.push(StageResult {
            name: "Baseline low-precision BN-ViT".into(),
            accuracy: acc_direct,
        });

        // Stage 1 — progressive quantization.
        self.log("progressive quantization: W16-A16-R16 (teacher: FP BN-ViT)");
        let mut prog = bn_vit.clone();
        prog.set_plan(PrecisionPlan::w16_a16_r16());
        prog.calibrate_sites(&calib, 4, true, true, true);
        train_model(
            &mut prog,
            Some(&bn_vit),
            &self.train_set,
            &self.test_set,
            &self.train_cfg(c.stage1_epochs, c.lr_stage1, 4),
        );
        let teacher_w16 = prog.clone();

        self.log("progressive quantization: W16-A2-R16 (teacher: W16-A16-R16)");
        prog.set_plan(PrecisionPlan::w16_a2_r16());
        // Only the activation BSL changed: recalibrate those sites alone.
        prog.calibrate_sites(&calib, 4, false, true, false);
        train_model(
            &mut prog,
            Some(&teacher_w16),
            &self.train_set,
            &self.test_set,
            &self.train_cfg(c.stage1_epochs, c.lr_stage1, 5),
        );

        self.log("progressive quantization: W2-A2-R16 (teacher: W16-A16-R16)");
        prog.set_plan(PrecisionPlan::w2_a2_r16());
        // Only the weight BSL changed: recalibrate weight steps alone.
        prog.calibrate_sites(&calib, 4, true, false, false);
        train_model(
            &mut prog,
            Some(&teacher_w16),
            &self.train_set,
            &self.test_set,
            &self.train_cfg(c.stage1_epochs, c.lr_stage1, 6),
        );
        let acc_prog = evaluate(&prog, &self.test_set, c.batch) * 100.0;
        rows.push(StageResult {
            name: "BN-ViT + progressive quant".into(),
            accuracy: acc_prog,
        });

        // Row 4 — swap in the approximate softmax, no adaptation.
        self.log("swapping in iterative approximate softmax");
        let mut appr = prog.clone();
        appr.set_softmax(SoftmaxKind::IterApprox { k: c.softmax_k });
        let acc_appr = evaluate(&appr, &self.test_set, c.batch) * 100.0;
        rows.push(StageResult {
            name: "BN-ViT + progressive quant + appr".into(),
            accuracy: acc_appr,
        });

        // Stage 2 — approximate-softmax-aware fine-tune.
        self.log("stage 2: approximate-softmax-aware fine-tune");
        train_model(
            &mut appr,
            Some(&teacher_w16),
            &self.train_set,
            &self.test_set,
            &self.train_cfg(c.stage2_epochs, c.lr_stage2, 7),
        );
        let acc_ft = evaluate(&appr, &self.test_set, c.batch) * 100.0;
        rows.push(StageResult {
            name: "BN-ViT + progressive quant + appr-aware ft".into(),
            accuracy: acc_ft,
        });

        self.final_model = Some(appr);
        self.teacher_fp = Some(bn_vit);
        PipelineReport {
            dataset: format!("SynthCIFAR-{}", c.classes),
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_pipeline_produces_all_rows() {
        let mut pipeline = Pipeline::new(PipelineConfig::smoke_test());
        let report = pipeline.run();
        assert_eq!(report.rows.len(), 5);
        assert!(report.accuracy("FP LN-ViT [24]").is_some());
        assert!(report.table().contains("appr-aware ft"));
        for row in &report.rows {
            assert!((0.0..=100.0).contains(&row.accuracy), "{row:?}");
        }
    }

    #[test]
    fn report_table_formats_all_rows() {
        let report = PipelineReport {
            dataset: "X".into(),
            rows: vec![
                StageResult {
                    name: "a".into(),
                    accuracy: 1.0,
                },
                StageResult {
                    name: "b".into(),
                    accuracy: 2.0,
                },
            ],
        };
        let t = report.table();
        assert_eq!(t.lines().count(), 3);
        assert!(report.accuracy("nope").is_none());
    }
}
