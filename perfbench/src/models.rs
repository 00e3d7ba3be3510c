//! The models the workloads serve, and the seeded images they are fed.
//!
//! Models are trained once from a fixed training seed and cached as
//! checkpoints (and, for the registry workload, compiled engine
//! artifacts) under the benchmark's cache directory. Training happens in
//! a child process before anything is timed, so neither its time nor its
//! memory reaches a metric. The workload seed drives only the inputs.

use std::path::{Path, PathBuf};

use ascend::{EngineConfig, ScEngine};
use ascend_io::ModelCheckpoint;
use ascend_tensor::Tensor;
use ascend_vit::data::synth_cifar;
use ascend_vit::train::{train_model, TrainConfig};
use ascend_vit::{PrecisionPlan, SoftmaxKind, VitConfig, VitModel};

use crate::rng::mix;

/// Seed of every model's training data and initialization.
const TRAIN_SEED: u64 = 2024;

/// Classes of the SynthCIFAR task every model solves.
pub const CLASSES: usize = 4;

/// Images in the calibration batch stored with each checkpoint.
const CALIB_N: usize = 16;

/// One model: geometry plus training schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recipe {
    /// Cache and registry name.
    pub name: &'static str,
    /// Square image side (patch 4, so `m = (image / 4)² + 1`).
    pub image: usize,
    /// Embedding width.
    pub dim: usize,
    /// Training images.
    pub n_train: usize,
    /// Epochs before and after quantization.
    pub epochs: usize,
}

impl Recipe {
    /// The model geometry: patch 4, 2 layers, 2 heads.
    pub fn vit(&self) -> VitConfig {
        VitConfig {
            image: self.image,
            patch: 4,
            dim: self.dim,
            layers: 2,
            heads: 2,
            classes: CLASSES,
            seed: TRAIN_SEED,
            ..Default::default()
        }
    }

    /// Attention row length `m` (patches plus the class token).
    pub fn m(&self) -> usize {
        self.vit().seq_len()
    }

    fn stem(&self) -> String {
        // The schedule is part of the name, so a changed recipe never
        // reuses a stale cache entry.
        format!(
            "{}-i{}-d{}-n{}-e{}-s{TRAIN_SEED}",
            self.name, self.image, self.dim, self.n_train, self.epochs
        )
    }

    /// Cached checkpoint path.
    pub fn checkpoint(&self, cache: &Path) -> PathBuf {
        cache.join(format!("{}.ckpt", self.stem()))
    }

    /// Cached compiled-engine artifact path.
    pub fn engine(&self, cache: &Path) -> PathBuf {
        cache.join(format!("{}.sceng", self.stem()))
    }
}

/// The paper's geometry: 32×32 images, patch 4, m = 65, dim 32.
pub const M65: Recipe = Recipe {
    name: "vit-m65",
    image: 32,
    dim: 32,
    n_train: 128,
    epochs: 4,
};

/// The CI smoke geometry: 8×8 images, m = 5, dim 16.
pub const M5: Recipe = Recipe {
    name: "vit-m5",
    image: 8,
    dim: 16,
    n_train: 512,
    epochs: 8,
};

/// The registry workload's three models, smallest first.
pub const REGISTRY: [Recipe; 3] = [
    Recipe {
        name: "tiny-m5",
        image: 8,
        dim: 16,
        n_train: 512,
        epochs: 8,
    },
    Recipe {
        name: "small-m10",
        image: 12,
        dim: 16,
        n_train: 384,
        epochs: 8,
    },
    Recipe {
        name: "mid-m17",
        image: 16,
        dim: 24,
        n_train: 384,
        epochs: 8,
    },
];

/// Every recipe the benchmark uses.
pub fn all() -> Vec<Recipe> {
    let mut v = vec![M65, M5];
    v.extend(REGISTRY);
    v
}

/// Whether every cache entry exists.
pub fn cached(cache: &Path) -> bool {
    all()
        .iter()
        .all(|r| r.checkpoint(cache).is_file() && r.engine(cache).is_file())
}

/// Trains (float, then W2-A2-R16 QAT with the iterative softmax, as in
/// the paper's two-stage pipeline) and writes the checkpoint and the
/// compiled engine artifact of every recipe missing from the cache.
///
/// # Errors
///
/// I/O and compile failures, as text.
pub fn prepare(cache: &Path) -> Result<(), String> {
    std::fs::create_dir_all(cache).map_err(|e| format!("{}: {e}", cache.display()))?;
    for r in all() {
        let (ckpt_path, engine_path) = (r.checkpoint(cache), r.engine(cache));
        if ckpt_path.is_file() && engine_path.is_file() {
            continue;
        }
        let (train, test) = synth_cifar(CLASSES, r.n_train, 32, r.image, TRAIN_SEED);
        let mut model = VitModel::new(r.vit());
        let tc = TrainConfig {
            epochs: r.epochs,
            batch: 16,
            lr: 3e-3,
            seed: TRAIN_SEED,
            ..Default::default()
        };
        train_model(&mut model, None, &train, &test, &tc);
        let calib_idx: Vec<usize> = (0..CALIB_N).collect();
        let calib = train.patches(&calib_idx, 4);
        model.set_plan(PrecisionPlan::w2_a2_r16());
        model.calibrate_steps(&calib, CALIB_N);
        model.set_softmax(SoftmaxKind::IterApprox { k: 3 });
        train_model(&mut model, None, &train, &test, &tc);
        let engine = ScEngine::compile(&model, EngineConfig::default(), &calib, CALIB_N)
            .map_err(|e| format!("{}: compile: {e}", r.name))?;
        let ckpt = ModelCheckpoint::capture(&model).with_calib(calib, CALIB_N);
        // Write under a temporary name and rename, so a killed run never
        // leaves a truncated cache entry behind.
        let tmp = cache.join(format!("{}.tmp", r.name));
        ckpt.save(&tmp)
            .map_err(|e| format!("{}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &ckpt_path).map_err(|e| e.to_string())?;
        engine
            .save(&tmp)
            .map_err(|e| format!("{}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &engine_path).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// A block of seeded images for one model: patches and labels.
pub struct Images {
    /// `[n · num_patches, patch_dim]` patches.
    pub patches: Tensor,
    /// Class labels.
    pub labels: Vec<usize>,
    /// Values per image.
    pub per_image: usize,
}

impl Images {
    /// `n` distinct images from stream `stream` of workload seed `seed`.
    /// Distinct streams give disjoint images.
    pub fn generate(r: &Recipe, seed: u64, stream: u64, n: usize) -> Images {
        let (_, test) = synth_cifar(CLASSES, 0, n, r.image, mix(seed, stream));
        let idx: Vec<usize> = (0..n).collect();
        let cfg = r.vit();
        Images {
            patches: test.patches(&idx, 4),
            labels: test.labels_for(&idx),
            per_image: cfg.num_patches() * cfg.patch_dim(),
        }
    }

    /// The patch values of images `lo..hi`.
    pub fn slice(&self, lo: usize, hi: usize) -> &[f32] {
        &self.patches.data()[lo * self.per_image..hi * self.per_image]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_seeds_give_identical_images() {
        let a = Images::generate(&M5, 42, 1, 8);
        let b = Images::generate(&M5, 42, 1, 8);
        assert_eq!(a.patches.data(), b.patches.data());
        assert_eq!(a.labels, b.labels);
        let c = Images::generate(&M5, 43, 1, 8);
        assert_ne!(a.patches.data(), c.patches.data());
        let d = Images::generate(&M5, 42, 2, 8);
        assert_ne!(a.patches.data(), d.patches.data());
    }

    #[test]
    fn images_within_a_block_are_distinct() {
        let a = Images::generate(&M5, 9, 0, 16);
        for i in 0..16 {
            for j in i + 1..16 {
                assert_ne!(a.slice(i, i + 1), a.slice(j, j + 1), "images {i} and {j}");
            }
        }
    }

    #[test]
    fn geometries_have_the_stated_row_lengths() {
        assert_eq!(M65.m(), 65);
        assert_eq!(M5.m(), 5);
        let ms: Vec<usize> = REGISTRY.iter().map(Recipe::m).collect();
        assert_eq!(ms, vec![5, 10, 17]);
    }
}
