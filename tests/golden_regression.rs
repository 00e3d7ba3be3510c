//! Golden regression: a fixed-seed tiny pipeline snapshot, plus the
//! artifact round-trip guarantees built on top of it.
//!
//! The constants below were captured from a known-good build. Any engine
//! refactor that silently changes numerics — calibration, softmax scale
//! selection, quantization order, weight pre-quantization — fails here in
//! tier-1 instead of drifting unnoticed. Intentional numeric changes must
//! update the constants (run with `--nocapture` to see the fresh values).
//!
//! Because the trained model now comes from the shared checkpoint-cached
//! fixture, this file also pins the *persistence* contract: a cache hit
//! (model restored from an `ascend-io` artifact) must reproduce the same
//! golden numbers as a cache miss (freshly trained model) — and the
//! explicit round-trip tests below assert bit equality for both artifact
//! kinds, which is the PR's acceptance criterion.
//!
//! Comparisons against the golden constants use a small tolerance rather
//! than bit equality so the snapshot survives last-ulp differences in
//! `exp`/`tanh` across platforms; the round-trip tests, by contrast,
//! demand exact bit equality — serialization has no platform-dependent
//! math to excuse.

#![allow(clippy::expect_used, reason = "an integration test fails by panicking, helpers included")]

use ascend::engine::{EngineConfig, ScEngine};
use ascend::InferenceBackend;
use ascend::fixture::{train_or_load, FixtureRecipe};
use ascend_io::ModelCheckpoint;
use ascend_vit::data::Dataset;
use ascend_vit::VitModel;
use std::path::PathBuf;

/// SC engine top-1 accuracy on the 24-image fixed-seed test split.
const GOLDEN_SC_ACCURACY: f32 = 0.375;

/// SC logits of the first three test images (4 classes each).
const GOLDEN_LOGITS: [[f32; 4]; 3] = [
    [0.48290414, 0.709514, -0.69589436, 0.35470432],
    [-0.0073154382, -1.5145624, -2.2707572, -0.1737375],
    [1.6445307, -1.4789618, 1.8848817, -1.4585421],
];

const LOGIT_TOLERANCE: f32 = 5e-3;
const ACCURACY_TOLERANCE: f32 = 0.05;

/// The fixed-seed recipe: every seed is pinned (model init 42 via
/// `VitConfig::default`, data 7, shuffling 0 via `TrainConfig::default`).
/// The schedule reproduces the original golden capture exactly: 3 FP
/// epochs, calibrate on 16 train images, 3 QAT epochs.
fn golden_recipe() -> FixtureRecipe {
    let mut recipe = FixtureRecipe::tiny("golden-tiny", 7);
    recipe.n_test = 24;
    recipe.pre_epochs = 3;
    recipe.qat_epochs = 3;
    recipe
}

fn golden_model() -> (VitModel, Dataset, Dataset) {
    train_or_load(&golden_recipe())
}

fn golden_engine() -> (ScEngine, Dataset) {
    let (model, train, test) = golden_model();
    let calib = train.patches(&(0..16).collect::<Vec<_>>(), 4);
    let engine = ScEngine::compile(&model, EngineConfig::default(), &calib, 16)
        .expect("golden engine compiles");
    (engine, test)
}

fn scratch_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ascend-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

mod support;
use support::assert_bit_identical;

#[test]
fn fixed_seed_pipeline_matches_golden_snapshot() {
    let (engine, test) = golden_engine();

    let accuracy = engine.accuracy(&test, 8).expect("SC accuracy");
    let idx: Vec<usize> = (0..3).collect();
    let patches = test.patches(&idx, 4);
    let logits = engine.forward(&patches, 3).expect("SC forward");

    // Fresh values, for updating the constants after intentional changes.
    eprintln!("golden accuracy: {accuracy:?}");
    for r in 0..3 {
        eprintln!("golden logits[{r}]: {:?}", &logits.data()[r * 4..(r + 1) * 4]);
    }

    assert!(
        (accuracy - GOLDEN_SC_ACCURACY).abs() <= ACCURACY_TOLERANCE,
        "SC accuracy drifted: got {accuracy}, golden {GOLDEN_SC_ACCURACY}"
    );
    for (r, want_row) in GOLDEN_LOGITS.iter().enumerate() {
        for (c, want) in want_row.iter().enumerate() {
            let got = logits.data()[r * 4 + c];
            assert!(
                (got - want).abs() <= LOGIT_TOLERANCE,
                "logit [{r}][{c}] drifted: got {got}, golden {want}"
            );
        }
    }
}

#[test]
fn checkpoint_roundtrip_compiles_a_bit_identical_engine() {
    // model → save → load → compile must equal the in-memory
    // model → compile path, bit for bit — the train-once guarantee.
    let (model, train, test) = golden_model();
    let calib = train.patches(&(0..16).collect::<Vec<_>>(), 4);
    let in_memory = ScEngine::compile(&model, EngineConfig::default(), &calib, 16)
        .expect("in-memory engine compiles");

    let path = scratch_path("roundtrip-model.ckpt");
    ModelCheckpoint::capture(&model)
        .with_calib(calib, 16)
        .save(&path)
        .expect("checkpoint saves");
    let loaded = ModelCheckpoint::load(&path).expect("checkpoint loads");
    let from_disk = ScEngine::compile_from_checkpoint(&loaded, EngineConfig::default())
        .expect("engine compiles from checkpoint");
    std::fs::remove_file(&path).ok();

    let idx: Vec<usize> = (0..test.len()).collect();
    let patches = test.patches(&idx, 4);
    let want = in_memory.forward(&patches, idx.len()).expect("in-memory forward");
    let got = from_disk.forward(&patches, idx.len()).expect("from-disk forward");
    assert_bit_identical(&got, &want, "checkpoint round-trip");
}

#[test]
fn engine_artifact_roundtrip_is_bit_identical() {
    // engine → save → load must reproduce the exact logits *and* the
    // exact compiled configuration, with no model or dataset in sight.
    let (engine, test) = golden_engine();
    let path = scratch_path("roundtrip-engine.sceng");
    engine.save(&path).expect("engine saves");
    let loaded = ScEngine::load(&path).expect("engine loads");
    std::fs::remove_file(&path).ok();

    assert_eq!(loaded.config(), engine.config(), "engine config must round-trip");
    assert_eq!(
        loaded.softmax_block().config(),
        engine.softmax_block().config(),
        "calibrated softmax config must round-trip"
    );
    assert_eq!(loaded.vit_config(), engine.vit_config());
    assert_eq!(loaded.plan(), engine.plan());
    assert_eq!(loaded.num_layers(), engine.num_layers());

    let idx: Vec<usize> = (0..test.len()).collect();
    let patches = test.patches(&idx, 4);
    let want = engine.forward(&patches, idx.len()).expect("original forward");
    let got = loaded.forward(&patches, idx.len()).expect("loaded forward");
    assert_bit_identical(&got, &want, "engine round-trip");

    let want_acc = engine.accuracy(&test, 8).expect("original accuracy");
    let got_acc = loaded.accuracy(&test, 8).expect("loaded accuracy");
    assert_eq!(want_acc.to_bits(), got_acc.to_bits(), "accuracy must match exactly");
}

#[test]
fn cached_fixture_matches_fresh_training_bit_for_bit() {
    // The fixture cache must be numerics-neutral: a model restored from
    // the cached checkpoint and a freshly trained one produce identical
    // logits. (`train_or_load` caches on first call; retraining the same
    // recipe by hand reproduces it deterministically.)
    let recipe = golden_recipe();
    let (cached, _, test) = train_or_load(&recipe); // cache hit or fresh — either way
    let (fresh, _, _) = {
        // Train from scratch, bypassing the cache, by replaying the
        // recipe's schedule manually.
        use ascend_vit::train::{train_model, TrainConfig};
        let (train, test2) = recipe.datasets();
        let mut model = VitModel::new(recipe.model);
        let tc = TrainConfig {
            epochs: recipe.pre_epochs,
            batch: recipe.batch,
            lr: recipe.lr,
            ..Default::default()
        };
        train_model(&mut model, None, &train, &test2, &tc);
        model.set_plan(recipe.plan);
        let calib = train.patches(&(0..recipe.calib_n).collect::<Vec<_>>(), recipe.model.patch);
        model.calibrate_steps(&calib, recipe.calib_n);
        let qat = TrainConfig { epochs: recipe.qat_epochs, ..tc };
        train_model(&mut model, None, &train, &test2, &qat);
        (model, train, test2)
    };
    let idx: Vec<usize> = (0..8).collect();
    let patches = test.patches(&idx, 4);
    assert_bit_identical(
        &cached.predict(&patches, 8),
        &fresh.predict(&patches, 8),
        "fixture cache",
    );
}
