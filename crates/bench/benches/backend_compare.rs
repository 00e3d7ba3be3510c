//! Criterion comparison of the [`InferenceBackend`] implementations on the
//! same checkpoint: SC-exact vs float-reference (vs the zero-rate fault
//! wrapper, to price the decorator).
//!
//! This is the paper's accuracy/efficiency trade measured end to end in
//! software: `backend_ref_batch32` should beat `backend_sc_batch32` by a
//! wide margin (no bit-level nonlinear blocks), and
//! `backend_fault0_sc_batch32` should cost the same as bare SC (rate 0
//! passes inputs through untouched).

#![allow(clippy::expect_used, reason = "a criterion bench aborts on a set-up failure")]

use ascend::engine::EngineConfig;
use ascend::fixture::{session_or_load, FixtureRecipe};
use ascend::{BackendKind, InferenceBackend};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_backends(c: &mut Criterion) {
    let mut recipe = FixtureRecipe::tiny("bench-backends", 5);
    recipe.n_train = 64;
    recipe.n_test = 32;
    recipe.pre_epochs = 1;
    recipe.qat_epochs = 0;

    let (sc, _train, test) =
        session_or_load(&recipe, EngineConfig::default(), BackendKind::Sc).expect("sc session");
    let (reference, _, _) =
        session_or_load(&recipe, EngineConfig::default(), BackendKind::Ref).expect("ref session");

    let n = 32usize;
    let patches = test.patches(&(0..n).collect::<Vec<_>>(), 4);

    c.bench_function("backend_sc_batch32", |b| {
        b.iter(|| black_box(sc.forward(black_box(&patches), n).expect("sc forward")))
    });
    c.bench_function("backend_ref_batch32", |b| {
        b.iter(|| black_box(reference.forward(black_box(&patches), n).expect("ref forward")))
    });

    // The decorator at rate 0: the delegation overhead must be noise.
    let fault0 = ascend::FaultInjectingBackend::new(sc.backend(), 0.0, 7).expect("wrapper");
    c.bench_function("backend_fault0_sc_batch32", |b| {
        b.iter(|| black_box(fault0.forward(black_box(&patches), n).expect("fault forward")))
    });
}

criterion_group!(benches, bench_backends);
criterion_main!(benches);
