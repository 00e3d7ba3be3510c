//! Criterion benchmarks of the GELU blocks across circuit families.

#![allow(clippy::expect_used, reason = "a criterion bench aborts on a set-up failure")]

use criterion::{criterion_group, criterion_main, Criterion};
use sc_nonlinear::bernstein::gelu_block as bernstein_gelu;
use sc_nonlinear::fsm::{FsmGelu, FsmGeluConfig};
use sc_nonlinear::gate_si::gelu_block_calibrated;
use std::hint::black_box;

fn bench_gelu_families(c: &mut Criterion) {
    let xs: Vec<f64> = (0..64).map(|i| -3.0 + i as f64 * 0.1).collect();

    let fsm = FsmGelu::new(FsmGeluConfig { bsl: 1024, ..Default::default() }).expect("valid");
    c.bench_function("gelu_fsm_1024b", |b| {
        b.iter(|| {
            for &x in &xs {
                black_box(fsm.eval(black_box(x)));
            }
        })
    });

    let bern = bernstein_gelu(4, 1024).expect("valid");
    c.bench_function("gelu_bernstein_4term_1024b", |b| {
        b.iter(|| {
            for &x in &xs {
                black_box(bern.eval(black_box(x)));
            }
        })
    });

    let dist: Vec<f64> = (0..200).map(|i| -3.0 + i as f64 * 0.03).collect();
    let gate = gelu_block_calibrated(256, 8, &dist).expect("calibrates");
    c.bench_function("gelu_gate_si_8b", |b| {
        b.iter(|| {
            for &x in &xs {
                black_box(gate.eval_value(black_box(x)));
            }
        })
    });
}

criterion_group!(benches, bench_gelu_families);
criterion_main!(benches);
