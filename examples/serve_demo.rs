//! Serving-runtime demo: compile an SC engine once, then serve through a
//! persistent `ServePool` — long-lived workers, streaming submit/collect,
//! bounded-queue backpressure, graceful shutdown — and prove the parallel
//! logits are bit-for-bit identical to the serial engine while the same
//! pool serves round after round.
//!
//! Run with: `cargo run --release -p ascend-examples --bin serve_demo`

#![forbid(unsafe_code)]
use ascend::engine::{EngineConfig, ScEngine};
use ascend::fixture::{engine_or_load, FixtureRecipe};
use ascend::serve::{ServeConfig, ServePool, ServeRequest};
use ascend::InferenceBackend;
use ascend_examples::section;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    section("training a tiny SC-friendly ViT (checkpoint-cached)");
    let mut recipe = FixtureRecipe::tiny("serve-demo", 5);
    recipe.pre_epochs = 4;
    recipe.qat_epochs = 4;
    let (compiled, _train, test) =
        engine_or_load(&recipe, EngineConfig::default()).expect("engine compiles");

    section("persisting and re-loading the engine artifact");
    let artifact = std::env::temp_dir().join(format!("serve-demo-{}.sceng", std::process::id()));
    compiled.save(&artifact).expect("engine saves");
    // From here on the demo serves from the *loaded* engine — exactly what
    // a serving process does: no model, no dataset, no training code.
    let engine = Arc::new(ScEngine::load(&artifact).expect("engine loads"));
    println!(
        "saved + re-loaded {} ({} bytes) — serving from the loaded artifact",
        artifact.display(),
        std::fs::metadata(&artifact).map(|m| m.len()).unwrap_or(0)
    );

    section("session facade: one persistent pool across rounds");
    // The one documented entry point: the builder sniffs the artifact kind
    // and the session owns one persistent pool — repeated serve calls
    // reuse the same worker threads.
    let session = ascend::Session::builder()
        .artifact(&artifact)
        .backend(ascend::BackendKind::Sc)
        .workers(2)
        .micro_batch(4)
        .build()
        .expect("session builds");
    let demo = test.patches(&(0..8).collect::<Vec<_>>(), 4);
    for round in 1..=3 {
        let t0 = Instant::now();
        let logits = session.serve_batch(&demo, 8).expect("session serves");
        println!(
            "`{}` round {round}: {:?} logits in {:.1} ms",
            session.backend().name(),
            logits.shape(),
            t0.elapsed().as_secs_f64() * 1e3
        );
    }
    std::fs::remove_file(&artifact).ok();

    section("serial baseline");
    let n = test.len();
    let patches = test.patches(&(0..n).collect::<Vec<_>>(), 4);
    let t0 = Instant::now();
    let serial = engine.forward(&patches, n).expect("serial forward");
    let serial_wall = t0.elapsed();
    println!(
        "serial: {n} images in {:.1} ms — {:.1} images/s",
        serial_wall.as_secs_f64() * 1e3,
        n as f64 / serial_wall.as_secs_f64()
    );

    section("persistent pool (reused across rounds, determinism checked)");
    for workers in [1usize, 2, 4] {
        let pool = ServePool::new(
            Arc::clone(&engine),
            ServeConfig { workers, micro_batch: 4, queue_depth: 0 },
        )
        .expect("pool builds");
        // Two rounds on the SAME pool: the long-lived workers (one
        // reusable scratch each) must be numerically invisible.
        for round in 1..=2 {
            let t0 = Instant::now();
            let logits = pool.run_batch(&patches, n).expect("parallel run");
            let wall = t0.elapsed();
            let identical = logits
                .data()
                .iter()
                .zip(serial.data().iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            println!(
                "workers={workers} round {round}: {n} images in {:.1} ms — {:.1} images/s",
                wall.as_secs_f64() * 1e3,
                n as f64 / wall.as_secs_f64()
            );
            println!("          bit-identical to serial: {identical}");
            assert!(identical, "parallel output diverged from serial");
        }
        // Per-request latency is the pool's own record: log2-bucket
        // histograms, so percentiles come out as bucket bounds.
        let service = pool.obs().service().snapshot();
        let (lo, hi) = service.percentile_bounds_ns(95.0);
        println!(
            "          {} requests served, service p95 within [{:.2}, {:.2}] ms",
            service.count(),
            lo as f64 / 1e6,
            hi as f64 / 1e6
        );
        pool.shutdown(); // graceful: queue closes, workers join
    }

    section("streaming submit/collect through a bounded queue");
    // queue_depth = 2: once two requests are waiting, submit blocks until
    // a worker frees a slot — backpressure instead of unbounded buffering,
    // and a slow request only ever occupies its own worker.
    let pool = ServePool::new(
        Arc::clone(&engine),
        ServeConfig { workers: 2, micro_batch: 4, queue_depth: 2 },
    )
    .expect("pool builds");
    let sizes = [5usize, 1, 9, 3, 14, 2, 8, 6];
    let mut handles = Vec::new();
    let mut offset = 0usize;
    for &sz in &sizes {
        let idx: Vec<usize> = (offset..offset + sz).collect();
        handles.push(
            pool.submit(ServeRequest::new(test.patches(&idx, 4), sz)).expect("submit"),
        );
        offset += sz;
    }
    let mut images = 0usize;
    let mut max_latency = std::time::Duration::ZERO;
    for handle in handles {
        images += handle.images();
        let (_logits, timing) = handle.collect().expect("collect");
        max_latency = max_latency.max(timing.total());
    }
    println!(
        "streamed {images} images over {} ragged requests (max request latency {:.2} ms)",
        sizes.len(),
        max_latency.as_secs_f64() * 1e3
    );
    pool.shutdown();
    println!();
    println!("serve demo OK");
}
