//! Shared train-or-load fixtures for tests, benches, and examples.
//!
//! Before this module, every integration test, bench, and example carried
//! its own copy of the "train a tiny QAT ViT, calibrate, compile an
//! engine" boilerplate and paid the training cost on every run. A
//! [`FixtureRecipe`] names that flow once; [`train_or_load`] executes it
//! the first time and caches the result as an [`ascend_io`] checkpoint
//! under `target/ascend-fixtures/`, so every later run — same test binary
//! or a different one — restores the bit-identical model in milliseconds.
//!
//! The cache is *correctness-neutral by construction*: a checkpoint
//! restores the exact parameters, quantizer steps, and BN statistics that
//! training produced (the round-trip is bit-exact, proven in
//! `tests/golden_regression.rs`), and a cache entry whose geometry, plan,
//! or recipe fingerprint disagrees with the request is discarded and
//! retrained. Delete `target/ascend-fixtures/` (or `cargo clean`) to
//! force retraining everywhere.

use std::path::PathBuf;

use ascend_io::ModelCheckpoint;
use ascend_vit::data::{synth_cifar, Dataset};
use ascend_vit::train::{train_model, TrainConfig};
use ascend_vit::{PrecisionPlan, VitConfig, VitModel};
use sc_core::ScError;

use crate::engine::{EngineConfig, ScEngine};

/// Bump to invalidate every cached fixture (e.g. after a change to the
/// training loop's numerics).
const FIXTURE_VERSION: u32 = 1;

/// One named train-once recipe: dataset, model geometry, and the QAT
/// schedule `train FP → set plan → calibrate steps → (optionally) train
/// quantized`.
#[derive(Debug, Clone, PartialEq)]
pub struct FixtureRecipe {
    /// Cache key (also the checkpoint file stem). Distinct recipes must
    /// use distinct names.
    pub name: &'static str,
    /// Model geometry/flavour.
    pub model: VitConfig,
    /// Dataset classes.
    pub classes: usize,
    /// Training-set size.
    pub n_train: usize,
    /// Test-set size.
    pub n_test: usize,
    /// Dataset seed.
    pub data_seed: u64,
    /// Epochs of the initial (pre-quantization) training run.
    pub pre_epochs: usize,
    /// Epochs of the post-calibration quantized run (0 to skip).
    pub qat_epochs: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Peak learning rate.
    pub lr: f32,
    /// Precision plan switched to after the first run (FP skips the
    /// switch and calibration entirely).
    pub plan: PrecisionPlan,
    /// Images in the calibration batch (taken from the head of the
    /// training set; also stored in the checkpoint for engine
    /// compilation).
    pub calib_n: usize,
}

impl FixtureRecipe {
    /// The shared tiny geometry every integration fixture uses: 8×8
    /// images, 2 layers, 2 heads, dim 16, 4 classes.
    pub fn tiny(name: &'static str, data_seed: u64) -> Self {
        FixtureRecipe {
            name,
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
            data_seed,
            pre_epochs: 3,
            qat_epochs: 3,
            batch: 16,
            lr: 1e-3,
            plan: PrecisionPlan::w2_a2_r16(),
            calib_n: 16,
        }
    }

    /// The *converged* variant of [`FixtureRecipe::tiny`]: 8 + 8 epochs at
    /// lr 2e-3 — trained far enough that argmax comparisons between
    /// backends are signal rather than near-tie noise. The engine unit
    /// tests and `tests/backend_parity.rs` share this one definition (and
    /// therefore one cached checkpoint per name).
    pub fn tiny_converged(name: &'static str, data_seed: u64) -> Self {
        let mut recipe = Self::tiny(name, data_seed);
        recipe.pre_epochs = 8;
        recipe.qat_epochs = 8;
        recipe.lr = 2e-3;
        recipe
    }

    /// A short fingerprint of every numerics-relevant field, stored as the
    /// checkpoint's seed-adjacent guard: a cache hit must match it.
    fn fingerprint(&self) -> u64 {
        // FNV-1a over the debug rendering — stable, dependency-free, and
        // automatically covers every field.
        let repr = format!("v{FIXTURE_VERSION}:{self:?}");
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in repr.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// The regenerated `(train, test)` datasets for this recipe.
    pub fn datasets(&self) -> (Dataset, Dataset) {
        synth_cifar(
            self.classes,
            self.n_train,
            self.n_test,
            self.model.image,
            self.data_seed,
        )
    }
}

/// Cache directory: `<target>/ascend-fixtures`.
fn cache_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target")))
        .join("ascend-fixtures")
}

fn cache_path(recipe: &FixtureRecipe) -> PathBuf {
    cache_dir().join(format!(
        "{}-{:016x}.ckpt",
        recipe.name,
        recipe.fingerprint()
    ))
}

/// The one cache-or-train primitive behind every public fixture entry
/// point: the trained model *and* its captured checkpoint (with the
/// recipe's calibration batch attached), plus the datasets.
fn train_or_load_full(recipe: &FixtureRecipe) -> (VitModel, ModelCheckpoint, Dataset, Dataset) {
    let (train, test) = recipe.datasets();
    let path = cache_path(recipe);
    if let Ok(ckpt) = ModelCheckpoint::load(&path) {
        if let Ok(model) = ckpt.restore() {
            if model.config == recipe.model && model.plan() == recipe.plan && ckpt.calib.is_some() {
                return (model, ckpt, train, test);
            }
        }
    }

    let mut model = VitModel::new(recipe.model);
    let tc = TrainConfig {
        epochs: recipe.pre_epochs,
        batch: recipe.batch,
        lr: recipe.lr,
        ..Default::default()
    };
    train_model(&mut model, None, &train, &test, &tc);
    let calib_idx: Vec<usize> = (0..recipe.calib_n).collect();
    let calib = train.patches(&calib_idx, recipe.model.patch);
    if !recipe.plan.is_fp() {
        model.set_plan(recipe.plan);
        model.calibrate_steps(&calib, recipe.calib_n);
        if recipe.qat_epochs > 0 {
            let qat = TrainConfig {
                epochs: recipe.qat_epochs,
                ..tc
            };
            train_model(&mut model, None, &train, &test, &qat);
        }
    }

    // Best-effort cache write: a read-only target dir must not fail the
    // caller, it only costs the next run a retrain.
    let ckpt = ModelCheckpoint::capture(&model).with_calib(calib, recipe.calib_n);
    let _ = ckpt.save(&path);
    (model, ckpt, train, test)
}

/// Returns the recipe's trained model plus its datasets, training only on
/// the first call per cache lifetime.
///
/// The restored model is bit-identical to the freshly trained one, so
/// numeric snapshots (golden tests) hold across cache hits and misses.
///
/// # Panics
///
/// Panics if training itself fails to produce a restorable checkpoint —
/// a programming error, not an I/O condition (cache write failures are
/// swallowed; the trained model is returned regardless).
pub fn train_or_load(recipe: &FixtureRecipe) -> (VitModel, Dataset, Dataset) {
    let (model, _, train, test) = train_or_load_full(recipe);
    (model, train, test)
}

/// [`train_or_load`] plus engine compilation with the recipe's calibration
/// batch: the one-call fixture for engine-level tests.
///
/// # Errors
///
/// Propagates [`ScEngine::compile`] errors.
pub fn engine_or_load(
    recipe: &FixtureRecipe,
    config: EngineConfig,
) -> Result<(ScEngine, Dataset, Dataset), ScError> {
    let (model, ckpt, train, test) = train_or_load_full(recipe);
    let calib = ckpt.calib.as_ref().ok_or_else(|| ScError::InvalidParam {
        name: "checkpoint.calib",
        reason: "fixture checkpoint carries no calibration batch".to_string(),
    })?;
    let engine = ScEngine::compile(&model, config, &calib.patches, calib.batch)?;
    Ok((engine, train, test))
}

/// [`train_or_load`] as an in-memory [`ModelCheckpoint`] with the recipe's
/// calibration batch attached — the shape
/// [`crate::SessionBuilder::checkpoint`] consumes.
pub fn checkpoint_or_load(recipe: &FixtureRecipe) -> (ModelCheckpoint, Dataset, Dataset) {
    let (_, ckpt, train, test) = train_or_load_full(recipe);
    (ckpt, train, test)
}

/// [`train_or_load`] driven all the way to a ready [`crate::Session`]: the
/// one-call fixture for tests and benches that exercise the stack through
/// the public facade rather than a concrete engine.
///
/// # Errors
///
/// Propagates backend compilation errors from
/// [`crate::SessionBuilder::build`].
pub fn session_or_load(
    recipe: &FixtureRecipe,
    config: EngineConfig,
    kind: crate::BackendKind,
) -> Result<(crate::Session, Dataset, Dataset), ScError> {
    let (ckpt, train, test) = checkpoint_or_load(recipe);
    let session = crate::Session::builder()
        .checkpoint(ckpt)
        .engine_config(config)
        .backend(kind)
        .build()?;
    Ok((session, train, test))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_hit_restores_a_bit_identical_model() {
        let mut recipe = FixtureRecipe::tiny("fixture-selftest", 11);
        recipe.pre_epochs = 1;
        recipe.qat_epochs = 0;
        recipe.n_train = 32;
        recipe.n_test = 16;
        let _ = std::fs::remove_file(cache_path(&recipe));
        let (a, _, test) = train_or_load(&recipe); // trains, caches
        let (b, _, _) = train_or_load(&recipe); // cache hit
        let idx: Vec<usize> = (0..8).collect();
        let patches = test.patches(&idx, recipe.model.patch);
        let la = a.predict(&patches, 8);
        let lb = b.predict(&patches, 8);
        for (x, y) in la.data().iter().zip(lb.data().iter()) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "cached model must be bit-identical"
            );
        }
    }

    #[test]
    fn distinct_recipes_use_distinct_cache_paths() {
        let a = FixtureRecipe::tiny("fixture-a", 1);
        let mut b = FixtureRecipe::tiny("fixture-a", 1);
        b.pre_epochs += 1;
        assert_ne!(
            cache_path(&a),
            cache_path(&b),
            "fingerprint must cover the schedule"
        );
        let c = FixtureRecipe::tiny("fixture-c", 1);
        assert_ne!(cache_path(&a), cache_path(&c));
    }
}
