//! Criterion benchmarks of the serving runtime: serial `ScEngine::forward`
//! vs the persistent `ServePool` at increasing worker counts, plus the
//! pool-reuse vs spawn-per-call comparison that justifies keeping the
//! workers alive.
//!
//! Acceptance bars:
//! * parallel speedup — `serve_pool_w4_batch32` > 1.5× images/s over
//!   `serve_serial_batch32` on a multi-core runner;
//! * pool persistence — `serve_pool_reuse_tiny_requests` measurably
//!   faster than `serve_pool_spawn_per_call_tiny_requests`, since the
//!   spawn-per-call variant pays thread spawn + join on every call, which
//!   dominates for small-request workloads;
//! * observability overhead — `forward_instrumented_batch32` within
//!   noise of `forward_bare_batch32` (the [`InstrumentedBackend`] adds a
//!   handful of monotonic-clock reads and relaxed atomic adds per
//!   forward, nothing on the per-element path).
//!
//! These are micro-benchmarks only and write no file; end-to-end serving
//! numbers come from the `perfbench` harness declared in `BENCHMARK.json`.

#![allow(clippy::expect_used, reason = "a criterion bench aborts on a set-up failure")]

use ascend::engine::EngineConfig;
use ascend::fixture::{engine_or_load, FixtureRecipe};
use ascend::instrument::InstrumentedBackend;
use ascend::serve::{ServeConfig, ServePool};
use ascend::InferenceBackend;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn bench_throughput(c: &mut Criterion) {
    // Checkpoint-cached fixture: 1 FP epoch, calibrate, no QAT — bench
    // runs reuse the trained model instead of paying training on every
    // invocation.
    let mut recipe = FixtureRecipe::tiny("bench-throughput", 5);
    recipe.n_train = 64;
    recipe.n_test = 32;
    recipe.pre_epochs = 1;
    recipe.qat_epochs = 0;
    let (engine, _train, test) =
        engine_or_load(&recipe, EngineConfig::default()).expect("compiles");
    let engine = Arc::new(engine);

    let n = 32usize;
    let patches = test.patches(&(0..n).collect::<Vec<_>>(), 4);

    c.bench_function("serve_serial_batch32", |b| {
        b.iter(|| black_box(engine.forward(black_box(&patches), n).expect("forward")))
    });
    for workers in [1usize, 2, 4] {
        let pool = ServePool::new(
            Arc::clone(&engine),
            ServeConfig { workers, micro_batch: 4, queue_depth: 0 },
        )
        .expect("pool builds");
        c.bench_function(&format!("serve_pool_w{workers}_batch32"), |b| {
            b.iter(|| black_box(pool.run_batch(black_box(&patches), n).expect("run_batch")))
        });
    }

    // Pool reuse vs spawn-per-call, on a small-request workload where the
    // per-call thread churn is proportionally largest: a 4-image call
    // carved into single-image requests, the shape of interactive traffic.
    let tiny_n = 4usize;
    let tiny = test.patches(&(0..tiny_n).collect::<Vec<_>>(), 4);
    let small = ServeConfig { workers: 4, micro_batch: 1, queue_depth: 8 };
    let reused = ServePool::new(Arc::clone(&engine), small).expect("pool builds");
    c.bench_function("serve_pool_reuse_tiny_requests", |b| {
        b.iter(|| black_box(reused.run_batch(black_box(&tiny), tiny_n).expect("run_batch")))
    });
    c.bench_function("serve_pool_spawn_per_call_tiny_requests", |b| {
        b.iter(|| {
            // The anti-pattern the persistent pool replaces: spawn the
            // workers, serve once, join them — every single call.
            let pool = ServePool::new(Arc::clone(&engine), small).expect("pool builds");
            let out = black_box(pool.run_batch(black_box(&tiny), tiny_n).expect("run_batch"));
            pool.shutdown();
            out
        })
    });

    // Instrumentation overhead: the same forward with and without the
    // per-stage StageTimer wrapped around it. The wrapper must stay
    // within noise — it reads the clock a handful of times per forward
    // and never touches the per-element compute.
    let instrumented = InstrumentedBackend::new(&*engine);
    c.bench_function("forward_bare_batch32", |b| {
        b.iter(|| black_box(engine.forward(black_box(&patches), n).expect("forward")))
    });
    c.bench_function("forward_instrumented_batch32", |b| {
        b.iter(|| black_box(instrumented.forward(black_box(&patches), n).expect("forward")))
    });
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
