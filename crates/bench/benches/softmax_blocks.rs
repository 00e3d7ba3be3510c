//! Criterion benchmarks of the softmax blocks (ours vs FSM baseline),
//! including the bit-level simulator vs compiled-program gap.

use criterion::{criterion_group, criterion_main, Criterion};
use sc_nonlinear::softmax_fsm::{FsmSoftmax, FsmSoftmaxConfig};
use sc_nonlinear::softmax_iter::{
    iterative_softmax_float, IterSoftmaxBlock, IterSoftmaxConfig, SoftmaxLevels,
};
use std::hint::black_box;

fn logits(m: usize) -> Vec<f64> {
    (0..m).map(|i| ((i as f64) * 0.37).sin() * 1.5).collect()
}

fn bench_iterative(c: &mut Criterion) {
    let block = IterSoftmaxBlock::new(IterSoftmaxConfig::default()).expect("feasible");
    let x = logits(64);
    c.bench_function("iter_softmax_bit_level_m64", |b| {
        b.iter(|| black_box(block.run(black_box(&x))))
    });
    c.bench_function("iter_softmax_level_domain_m64", |b| {
        b.iter(|| black_box(block.run_levels(black_box(&x))))
    });
    c.bench_function("iter_softmax_float_reference_m64", |b| {
        b.iter(|| black_box(iterative_softmax_float(black_box(&x), 3)))
    });
}

/// The SC engine's softmax at the paper's m = 65 geometry (65 tokens:
/// 64 patches plus cls): the default `[By, s1, s2, k] = [8, 32, 8, 3]`
/// degraded to the feasible `s1 = 8`, `s2 = 4`, run in place on an `f32`
/// score row as the engine's forward does.
fn bench_engine_m65(c: &mut Criterion) {
    let block = IterSoftmaxBlock::new(IterSoftmaxConfig {
        m: 65,
        ax: 0.75,
        ay: 0.125,
        s1: 8,
        s2: 4,
        ..Default::default()
    })
    .expect("feasible");
    let x = logits(65);
    let row: Vec<f32> = x.iter().map(|&v| v as f32).collect();
    let mut buf = row.clone();
    let mut levels = SoftmaxLevels::with_capacity(65);
    c.bench_function("iter_softmax_in_place_m65_engine", |b| {
        b.iter(|| {
            buf.copy_from_slice(&row);
            black_box(block.run_in_place(black_box(&mut buf), &mut levels))
        })
    });
    c.bench_function("iter_softmax_bit_level_m65_engine", |b| {
        b.iter(|| black_box(block.run(black_box(&x))))
    });
}

fn bench_fsm_baseline(c: &mut Criterion) {
    let block =
        FsmSoftmax::new(FsmSoftmaxConfig { m: 64, bsl: 128, ..Default::default() }).expect("valid");
    let x = logits(64);
    c.bench_function("fsm_softmax_128b_m64", |b| b.iter(|| black_box(block.run(black_box(&x)))));
}

criterion_group!(benches, bench_iterative, bench_engine_m65, bench_fsm_baseline);
criterion_main!(benches);
