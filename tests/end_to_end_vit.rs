//! Integration: trained quantized ViT → SC engine, end to end.

use ascend::engine::{EngineConfig, ScEngine};
use ascend::fixture::{train_or_load, FixtureRecipe};
use ascend::InferenceBackend;
use ascend_vit::train::evaluate;
use ascend_vit::{SoftmaxKind, VitConfig, VitModel};

fn trained_model() -> (
    VitModel,
    ascend_vit::data::Dataset,
    ascend_vit::data::Dataset,
) {
    // Checkpoint-cached fixture: 6 + 6 epochs at lr 2e-3 on a larger
    // split (trains once per cache lifetime).
    let mut recipe = FixtureRecipe::tiny("e2e-qat", 21);
    recipe.n_train = 128;
    recipe.n_test = 64;
    recipe.pre_epochs = 6;
    recipe.qat_epochs = 6;
    recipe.lr = 2e-3;
    recipe.calib_n = 8;
    train_or_load(&recipe)
}

#[test]
fn quantized_training_reaches_useful_accuracy() {
    let (model, _, test) = trained_model();
    let acc = evaluate(&model, &test, 16);
    assert!(
        acc > 0.4,
        "W2-A2-R16 model should beat 25% chance clearly, got {acc}"
    );
}

#[test]
fn sc_engine_accuracy_tracks_float_accuracy() {
    let (model, train, test) = trained_model();
    let calib = train.patches(&(0..16).collect::<Vec<_>>(), 4);
    let engine = ScEngine::compile(&model, EngineConfig::default(), &calib, 16).unwrap();
    let sc = engine.accuracy(&test, 16).unwrap();
    let float = evaluate(&model, &test, 16);
    assert!(
        (sc - float).abs() < 0.25,
        "SC engine accuracy {sc} should track float accuracy {float}"
    );
}

#[test]
fn engine_deterministic_across_runs() {
    let (model, train, test) = trained_model();
    let calib = train.patches(&(0..16).collect::<Vec<_>>(), 4);
    let engine = ScEngine::compile(&model, EngineConfig::default(), &calib, 16).unwrap();
    let idx: Vec<usize> = (0..8).collect();
    let patches = test.patches(&idx, 4);
    let a = engine.forward(&patches, 8).unwrap();
    let b = engine.forward(&patches, 8).unwrap();
    assert_eq!(a, b, "deterministic SC pipeline must be reproducible");
}

#[test]
fn float_model_softmax_swap_changes_little_after_training_with_it() {
    // Train *with* the approximate softmax (as stage 2 does), then verify
    // exact-softmax eval is close — the adaptation argument of §V.
    let mut recipe = FixtureRecipe::tiny("e2e-approx-softmax", 31);
    recipe.model = VitConfig {
        softmax: SoftmaxKind::IterApprox { k: 3 },
        ..recipe.model
    };
    recipe.pre_epochs = 6;
    recipe.lr = 2e-3;
    recipe.plan = ascend_vit::PrecisionPlan::fp(); // FP: no plan switch
    let (mut model, _train, test) = train_or_load(&recipe);
    let acc_approx = evaluate(&model, &test, 16);
    model.set_softmax(SoftmaxKind::Exact);
    let acc_exact = evaluate(&model, &test, 16);
    assert!(
        (acc_approx - acc_exact).abs() < 0.3,
        "approx-trained model should transfer: approx {acc_approx} exact {acc_exact}"
    );
}
