//! Criterion micro-benchmarks of the SC arithmetic substrate.

#![allow(clippy::expect_used, reason = "a criterion bench aborts on a set-up failure")]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sc_core::bsn::{self, BitonicNetwork};
use sc_core::rescale::{rescale, RescaleMode};
use sc_core::{ttmul, Bitstream, ThermStream};
use std::hint::black_box;

fn bench_bsn_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("bsn_sort");
    for n in [64usize, 256, 1024] {
        let net = BitonicNetwork::new(n);
        let bits = Bitstream::from_fn(n, |i| i % 3 == 0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(net.sort(black_box(&bits))))
        });
    }
    group.finish();
}

fn bench_bsn_add(c: &mut Criterion) {
    let streams: Vec<ThermStream> =
        (0..64).map(|i| ThermStream::from_level((i % 9) - 4, 16, 1.0).expect("valid")).collect();
    let refs: Vec<&ThermStream> = streams.iter().collect();
    c.bench_function("bsn_add_64x16b", |b| b.iter(|| black_box(bsn::add(black_box(&refs)))));
}

fn bench_ttmul(c: &mut Criterion) {
    let a = ThermStream::from_level(-1, 2, 0.5).expect("valid");
    let y = ThermStream::from_level(3, 16, 0.125).expect("valid");
    c.bench_function("ttmul_2b_x_16b", |b| {
        b.iter(|| black_box(ttmul::mul(black_box(&a), black_box(&y))))
    });
}

fn bench_rescale(c: &mut Criterion) {
    let x = ThermStream::from_level(100, 1024, 0.01).expect("valid");
    c.bench_function("rescale_1024_by_32", |b| {
        b.iter(|| black_box(rescale(black_box(&x), 32, RescaleMode::Round)))
    });
}

criterion_group!(benches, bench_bsn_sort, bench_bsn_add, bench_ttmul, bench_rescale);
criterion_main!(benches);
