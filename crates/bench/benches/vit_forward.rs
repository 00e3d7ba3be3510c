//! Criterion benchmarks of ViT inference: float model vs SC engine, plus
//! the encoder kernel at the paper's geometry (m = 65): the per-image SC
//! and float-reference forwards and `ScEngine::compile` with a
//! calibration batch of 16, which is also timed at the m = 5 geometry.

#![allow(clippy::expect_used, reason = "a criterion bench aborts on a set-up failure")]

use ascend::engine::{EngineConfig, ScEngine};
use ascend::fixture::{train_or_load, FixtureRecipe};
use ascend::{InferenceBackend, RefEngine};
use ascend_vit::{PrecisionPlan, VitConfig, VitModel};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_vit(c: &mut Criterion) {
    // Checkpoint-cached fixture shared with the other benches.
    let mut recipe = FixtureRecipe::tiny("bench-vit", 5);
    recipe.n_train = 64;
    recipe.n_test = 16;
    recipe.pre_epochs = 1;
    recipe.qat_epochs = 0;
    let (model, train, _test) = train_or_load(&recipe);
    let calib = train.patches(&(0..16).collect::<Vec<_>>(), 4);
    let engine = ScEngine::compile(&model, EngineConfig::default(), &calib, 16).expect("compiles");

    let patches = train.patches(&(0..8).collect::<Vec<_>>(), 4);
    c.bench_function("vit_float_predict_batch8", |b| {
        b.iter(|| black_box(model.predict(black_box(&patches), 8)))
    });
    c.bench_function("vit_sc_engine_batch8", |b| {
        b.iter(|| black_box(engine.forward(black_box(&patches), 8)))
    });
}

/// An untrained BatchNorm model of a served geometry (`image`×`image`
/// images, patch 4, width `dim`, 2 layers, 2 heads), quantized to
/// W2-A2-R16 with its steps calibrated on the first 16 images of the
/// returned set.
fn served_geometry(image: usize, dim: usize) -> (VitModel, ascend_vit::data::Dataset) {
    let cfg = VitConfig {
        image,
        patch: 4,
        dim,
        layers: 2,
        heads: 2,
        classes: 4,
        ..Default::default()
    };
    let mut model = VitModel::new(cfg);
    let (train, _) = ascend_vit::data::synth_cifar(4, 16, 2, image, 2024);
    let calib = train.patches(&(0..16).collect::<Vec<_>>(), 4);
    model.set_plan(PrecisionPlan::w2_a2_r16());
    model.calibrate_steps(&calib, 16);
    (model, train)
}

/// The encoder kernel at m = 65 (32×32 images, dim 32) — the per-image SC
/// and float-reference forwards and compile with a calibration batch of
/// 16 — plus compile at the m = 5 smoke geometry (8×8, dim 16), where the
/// calibration batch is too small to pay for a helper thread: a kernel or
/// calibration regression shows here without a full benchmark run.
fn bench_paper_geometry(c: &mut Criterion) {
    let calib16 =
        |train: &ascend_vit::data::Dataset| train.patches(&(0..16).collect::<Vec<_>>(), 4);
    let (model, train) = served_geometry(32, 32);
    let calib = calib16(&train);
    let engine = ScEngine::compile(&model, EngineConfig::default(), &calib, 16).expect("compiles");
    let reference = RefEngine::compile(&model).expect("compiles");
    let image = train.patches(&[0], 4);

    let backends: [(&str, &dyn InferenceBackend); 2] = [
        ("vit_m65_sc_forward_one", &engine),
        ("vit_m65_ref_forward_one", &reference),
    ];
    for (name, backend) in backends {
        let mut scratch = backend.make_scratch();
        c.bench_function(name, |b| {
            b.iter(|| black_box(backend.forward_with(black_box(&image), 1, &mut scratch)))
        });
    }
    let (small, small_train) = served_geometry(8, 16);
    let small_calib = calib16(&small_train);
    let compiles = [
        ("vit_m65_sc_compile_calib16", &model, &calib),
        ("vit_m5_sc_compile_calib16", &small, &small_calib),
    ];
    for (name, model, calib) in compiles {
        c.bench_function(name, |b| {
            b.iter(|| {
                black_box(ScEngine::compile(
                    model,
                    EngineConfig::default(),
                    black_box(calib),
                    16,
                ))
            })
        });
    }
}

criterion_group!(benches, bench_vit, bench_paper_geometry);
criterion_main!(benches);
