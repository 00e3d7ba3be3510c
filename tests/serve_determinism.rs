//! Tier-1 determinism contract of the serving runtime: the persistent
//! [`ServePool`] must produce **bit-for-bit** the same logits as the
//! serial [`ScEngine::forward`] for the same inputs, across worker counts,
//! odd batch sizes that do not divide evenly into `micro_batch`-sized
//! requests, and — since the pool is long-lived — across successive runs
//! on one pool.
//!
//! This is what makes the runtime safe to drop into accuracy experiments:
//! parallelism is purely a scheduling concern and never a numerics one.
//! The same file proves the pool's queueing semantics: a bounded queue
//! blocks submitters (real backpressure) without ever dropping or
//! reordering a request, and the `queued` gauge never wraps below zero.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "an integration test fails by panicking, helpers included"
)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use ascend::engine::{EngineConfig, ScEngine};
use ascend::fixture::{engine_or_load, FixtureRecipe};
use ascend::serve::{ServeConfig, ServePool, ServeRequest};
use ascend::{
    FaultInjectingBackend, ForwardScratch, InferenceBackend, InstrumentedBackend, RefEngine,
    StageStats,
};
use ascend_obs::NoopObserver;
use ascend_tensor::Tensor;
use ascend_vit::data::Dataset;
use ascend_vit::{PrecisionPlan, VitConfig};
use sc_core::ScError;

/// The one definition of this file's fixture: 2 FP epochs, calibrate, no
/// QAT — determinism tests only need *a* compiled engine, trained once.
fn tiny_recipe() -> FixtureRecipe {
    let mut recipe = FixtureRecipe::tiny("serve-tiny", 5);
    recipe.n_train = 48;
    recipe.n_test = 24;
    recipe.pre_epochs = 2;
    recipe.qat_epochs = 0;
    recipe
}

fn tiny_engine() -> (Arc<ScEngine>, Dataset) {
    let (engine, _train, test) =
        engine_or_load(&tiny_recipe(), EngineConfig::default()).expect("tiny engine compiles");
    (Arc::new(engine), test)
}

mod support;
use support::assert_bit_identical;

/// The wall clock, for this test's deadlines and latency checks. It is the
/// one sanctioned clock read here, so the crate keeps the rest of the
/// `disallowed_methods` ban (a bare `Condvar::wait` among them).
#[expect(
    clippy::disallowed_methods,
    reason = "a test's deadlines and latency checks read the clock"
)]
fn now() -> std::time::Instant {
    std::time::Instant::now()
}

#[test]
fn batch_runner_is_bit_identical_across_worker_counts() {
    let (engine, test) = tiny_engine();
    // Odd batch sizes: 7 = 4 + 3 and 13 = 3·4 + 1 leave a ragged final
    // request at micro_batch = 4.
    for &n in &[7usize, 13] {
        let idx: Vec<usize> = (0..n).collect();
        let patches = test.patches(&idx, 4);
        let serial = engine.forward(&patches, n).expect("serial forward");
        for workers in [1usize, 2, 4] {
            let runner = ServePool::new(
                Arc::clone(&engine),
                ServeConfig {
                    workers,
                    micro_batch: 4,
                    queue_depth: 0,
                },
            )
            .expect("runner builds");
            let before = runner.obs().service().snapshot().count();
            let parallel = runner.run_batch(&patches, n).expect("parallel run");
            assert_bit_identical(&parallel, &serial, &format!("n={n} workers={workers}"));
            assert_eq!(parallel.shape()[0], n);
            // One request per `micro_batch` images, each recorded once in
            // the pool's service histogram.
            let served = runner.obs().service().snapshot().count() - before;
            assert_eq!(served, n.div_ceil(4) as u64);
            // The pool runs exactly the long-lived threads asked for.
            assert_eq!(runner.workers(), workers);
        }
    }
}

#[test]
fn request_queue_matches_per_request_serial_forward() {
    let (engine, test) = tiny_engine();
    // Heterogeneous request sizes through a bounded work queue.
    let sizes = [3usize, 1, 5, 2];
    let mut requests = Vec::new();
    let mut offset = 0usize;
    for &sz in &sizes {
        let idx: Vec<usize> = (offset..offset + sz).collect();
        requests.push(ServeRequest::new(test.patches(&idx, 4), sz));
        offset += sz;
    }
    let pool = ServePool::new(
        Arc::clone(&engine),
        ServeConfig {
            workers: 3,
            micro_batch: 4,
            queue_depth: 2,
        },
    )
    .expect("pool builds");
    let handles: Vec<_> = requests
        .iter()
        .map(|req| pool.submit(req.clone()).expect("submit"))
        .collect();
    for (req, handle) in requests.iter().zip(handles) {
        let (got, _) = handle.collect().expect("collect");
        let want = engine
            .forward(&req.patches, req.images)
            .expect("serial forward");
        assert_bit_identical(&got, &want, &format!("request of {} images", req.images));
    }
    assert_eq!(pool.obs().service().snapshot().count(), sizes.len() as u64);
}

#[test]
fn pool_reuse_is_bit_identical_to_fresh_pools_for_both_backends() {
    // The acceptance bar of the persistent pool: successive `run_batch`
    // calls on ONE pool must match both the serial forward and a freshly
    // spawned pool per call, bit for bit, for the SC and ref backends
    // alike, across worker counts and a ragged `micro_batch` split.
    let recipe = tiny_recipe();
    let (ckpt, _, test) = ascend::fixture::checkpoint_or_load(&recipe);
    let sc: Arc<dyn InferenceBackend> = Arc::new(
        ScEngine::compile_from_checkpoint(&ckpt, EngineConfig::default()).expect("sc compiles"),
    );
    let reference: Arc<dyn InferenceBackend> =
        Arc::new(RefEngine::compile_from_checkpoint(&ckpt).expect("ref compiles"));
    let n = 13usize; // 3·4 + 1: ragged at micro_batch = 4
    let patches = test.patches(&(0..n).collect::<Vec<_>>(), 4);
    for (backend, label) in [(&sc, "sc"), (&reference, "ref")] {
        let serial = backend.forward(&patches, n).expect("serial forward");
        for workers in [1usize, 2, 4] {
            let cfg = ServeConfig {
                workers,
                micro_batch: 4,
                queue_depth: 0,
            };
            let reused = ServePool::new(Arc::clone(backend), cfg).expect("pool builds");
            for round in 0..3 {
                let from_reused = reused.run_batch(&patches, n).expect("reused-pool run");
                assert_bit_identical(
                    &from_reused,
                    &serial,
                    &format!("{label} reused pool round {round} workers={workers}"),
                );
                assert_eq!(reused.workers(), workers);
                // A spawn-per-call pool must agree with the reused one.
                let fresh = ServePool::new(Arc::clone(backend), cfg).expect("fresh pool");
                let from_fresh = fresh.run_batch(&patches, n).expect("fresh-pool run");
                assert_bit_identical(
                    &from_fresh,
                    &from_reused,
                    &format!("{label} fresh vs reused round {round} workers={workers}"),
                );
                fresh.shutdown();
            }
            reused.shutdown();
        }
    }
}

#[test]
fn streaming_submit_collect_preserves_request_order() {
    let (engine, test) = tiny_engine();
    let pool = ServePool::new(
        Arc::clone(&engine),
        ServeConfig {
            workers: 2,
            micro_batch: 4,
            queue_depth: 3,
        },
    )
    .expect("pool builds");
    // Submit a stream of single-image requests, collect handles in
    // submission order, and check each against the serial forward.
    let sizes = [2usize, 1, 3, 1, 2];
    let mut offset = 0usize;
    let mut handles = Vec::new();
    let mut wants = Vec::new();
    for &sz in &sizes {
        let idx: Vec<usize> = (offset..offset + sz).collect();
        let patches = test.patches(&idx, 4);
        wants.push(engine.forward(&patches, sz).expect("serial forward"));
        let handle = pool.submit(ServeRequest::new(patches, sz)).expect("submit");
        assert_eq!(handle.images(), sz);
        handles.push(handle);
        offset += sz;
    }
    for ((handle, want), sz) in handles.into_iter().zip(&wants).zip(&sizes) {
        let (got, _latency) = handle.collect().expect("collect");
        assert_bit_identical(&got, want, &format!("streamed request of {sz} images"));
    }
    pool.shutdown();
}

#[test]
fn pool_with_more_workers_than_requests_drains_cleanly() {
    let (engine, test) = tiny_engine();
    let pool = ServePool::new(
        Arc::clone(&engine),
        ServeConfig {
            workers: 8,
            micro_batch: 4,
            queue_depth: 1,
        },
    )
    .expect("pool builds");
    let patches = test.patches(&[0, 1], 4);
    let serial = engine.forward(&patches, 2).expect("serial forward");
    let (logits, _) = pool
        .submit(ServeRequest::new(patches, 2))
        .and_then(|handle| handle.collect())
        .expect("underfull pool run");
    assert_bit_identical(&logits, &serial, "workers > requests");
    assert_eq!(pool.workers(), 8, "the pool runs the threads asked for");
    // Idle workers must not wedge shutdown.
    pool.shutdown();
}

/// A controllable backend for queueing tests: every `forward_one` blocks
/// until the gate opens, then echoes a deterministic function of its
/// input, so tests can hold the pool stalled and observe the queue.
struct GatedBackend {
    cfg: VitConfig,
    plan: PrecisionPlan,
    gate: Mutex<bool>,
    opened: Condvar,
}

impl GatedBackend {
    fn new() -> Self {
        let cfg = VitConfig {
            image: 8,
            patch: 4,
            dim: 16,
            layers: 1,
            heads: 2,
            classes: 2,
            ..Default::default()
        };
        GatedBackend {
            cfg,
            plan: PrecisionPlan::fp(),
            gate: Mutex::new(false),
            opened: Condvar::new(),
        }
    }

    fn open(&self) {
        *self.gate.lock().unwrap() = true;
        self.opened.notify_all();
    }
}

impl InferenceBackend for GatedBackend {
    fn name(&self) -> &str {
        "gated"
    }
    fn vit_config(&self) -> &VitConfig {
        &self.cfg
    }
    fn plan(&self) -> &PrecisionPlan {
        &self.plan
    }
    fn make_scratch(&self) -> ForwardScratch {
        ForwardScratch::empty()
    }
    fn forward_one(
        &self,
        patches: &[f32],
        _scratch: &mut ForwardScratch,
        _observer: &mut dyn ascend_obs::StageObserver,
    ) -> Result<Vec<f32>, ScError> {
        let open = self.gate.lock().unwrap();
        let open = self.opened.wait_while(open, |open| !*open).unwrap();
        drop(open);
        let sum: f32 = patches.iter().sum();
        Ok(vec![sum, -sum])
    }
}

#[test]
fn full_queue_blocks_submitters_without_dropping_or_reordering() {
    let backend = Arc::new(GatedBackend::new());
    let (p, pd) = (backend.cfg.num_patches(), backend.cfg.patch_dim());
    // One worker, queue depth 1: with the gate closed the worker stalls on
    // request 0, the queue holds one more, and every further submit must
    // block — that is the backpressure contract.
    let pool = ServePool::new(
        Arc::clone(&backend),
        ServeConfig {
            workers: 1,
            micro_batch: 1,
            queue_depth: 1,
        },
    )
    .expect("pool builds");
    let total = 6usize;
    let submitted = AtomicUsize::new(0);
    let make = |v: f32| ServeRequest::new(Tensor::from_vec(vec![v; p * pd], &[p, pd]), 1);

    std::thread::scope(|scope| {
        let submitter = scope.spawn(|| {
            (0..total)
                .map(|i| {
                    let handle = pool.submit(make(i as f32)).expect("submit");
                    submitted.fetch_add(1, Ordering::SeqCst);
                    handle
                })
                .collect::<Vec<_>>()
        });
        // Give the submitter real time: while the pool is stalled, at most
        // the in-flight request plus the one queue slot can be admitted.
        std::thread::sleep(std::time::Duration::from_millis(150));
        let admitted = submitted.load(Ordering::SeqCst);
        let submitter_done = submitter.is_finished();
        // Open the gate BEFORE asserting on the captured observations: a
        // failed assertion must unwind through the scope's implicit join,
        // and the submitter can only finish once the pool drains —
        // asserting first would turn a test failure into a deadlock.
        backend.open();
        assert!(
            admitted <= 2,
            "bounded queue (depth 1) admitted {admitted} submissions while the pool was stalled"
        );
        assert!(!submitter_done, "submitter must be blocked, not done");

        // Everything drains, nothing was dropped, and the results come
        // back in submission order with the right payloads.
        let handles = submitter.join().expect("submitter thread");
        assert_eq!(handles.len(), total);
        for (i, handle) in handles.into_iter().enumerate() {
            let (logits, _) = handle.collect().expect("collect");
            let want = i as f32 * (p * pd) as f32;
            assert_eq!(logits.data()[0], want, "request {i} dropped or reordered");
            assert_eq!(logits.data()[1], -want, "request {i} corrupted");
        }
    });
    pool.shutdown();
}

#[test]
fn try_submit_sheds_on_a_full_queue_and_the_gauges_track_it() {
    let backend = Arc::new(GatedBackend::new());
    let (p, pd) = (backend.cfg.num_patches(), backend.cfg.patch_dim());
    let make = |v: f32| ServeRequest::new(Tensor::from_vec(vec![v; p * pd], &[p, pd]), 1);
    // On timeout, open the gate BEFORE panicking: the pool's Drop joins
    // its worker, and a worker parked on a closed gate would turn a test
    // failure into a deadlock.
    let wait_until = |what: &str, mut done: Box<dyn FnMut() -> bool + '_>| {
        let start = now();
        while !done() {
            if start.elapsed() >= std::time::Duration::from_secs(5) {
                backend.open();
                panic!("timed out waiting for {what}");
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    };
    let pool = ServePool::new(
        Arc::clone(&backend),
        ServeConfig {
            workers: 1,
            micro_batch: 1,
            queue_depth: 1,
        },
    )
    .expect("pool builds");
    assert_eq!(pool.queue_capacity(), 1);

    // A is admitted and picked up by the gated (stalled) worker; B fills
    // the single queue slot.
    let a = pool.try_submit(make(1.0)).expect("A admitted");
    wait_until("A in flight", Box::new(|| pool.in_flight() == 1));
    let b = pool.try_submit(make(2.0)).expect("B queued");
    wait_until("B queued", Box::new(|| pool.queued() == 1));

    // C must be shed *now*, with the typed error — never block, never
    // enqueue. (`submit` would block here; that contract is proved by
    // `full_queue_blocks_submitters_without_dropping_or_reordering`.)
    match pool.try_submit(make(3.0)) {
        Err(ScError::QueueFull { depth }) => assert_eq!(depth, 1),
        other => {
            backend.open(); // never leave the pool wedged on a failure
            panic!(
                "full queue must shed with QueueFull, got {:?}",
                other.map(|_| "an admitted handle")
            );
        }
    }

    // Drain: A and B were untouched by the shed, in order and intact.
    backend.open();
    for (handle, v) in [(a, 1.0f32), (b, 2.0f32)] {
        let (logits, _) = handle.collect().expect("collect");
        let want = v * (p * pd) as f32;
        assert_eq!(
            logits.data(),
            &[want, -want],
            "request {v} dropped or corrupted"
        );
    }
    wait_until(
        "gauges drain to zero",
        Box::new(|| pool.queued() == 0 && pool.in_flight() == 0),
    );

    // The shed request was never enqueued: the drained pool serves again.
    let (logits, _) = pool
        .try_submit(make(4.0))
        .expect("post-drain admit")
        .collect()
        .expect("ok");
    assert_eq!(logits.data()[0], 4.0 * (p * pd) as f32);
    pool.shutdown();
}

#[test]
fn queued_gauge_never_wraps_below_zero() {
    // A worker that claims a job before its submitter has counted it
    // decrements the gauge below zero, and `queued()` reads `usize::MAX`
    // until the submitter catches up. That window is a few instructions
    // wide; many short round trips on an echo backend, watched by a
    // spinning sampler, hit it within milliseconds if it exists.
    const SUBMITTERS: usize = 4;
    const ROUND_TRIPS: usize = 25_000; // per submitter
    let backend = Arc::new(GatedBackend::new());
    backend.open(); // an echo backend: every request is served at once
    let (p, pd) = (backend.cfg.num_patches(), backend.cfg.patch_dim());
    let patches = Tensor::from_vec(vec![1.0; p * pd], &[p, pd]);
    let pool = ServePool::new(
        Arc::clone(&backend),
        ServeConfig {
            workers: 2,
            micro_batch: 1,
            queue_depth: 0,
        },
    )
    .expect("pool builds");
    let worst = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut seen = 0;
            while !done.load(Ordering::Relaxed) {
                let now = pool.queued();
                if now > seen {
                    seen = now;
                    worst.store(seen, Ordering::Relaxed);
                }
            }
        });
        // Each submitter keeps one request outstanding at a time, so at
        // most SUBMITTERS requests are ever queued.
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|_| {
                scope.spawn(|| {
                    for _ in 0..ROUND_TRIPS {
                        if worst.load(Ordering::Relaxed) > SUBMITTERS {
                            break;
                        }
                        let request = ServeRequest::new(patches.clone(), 1);
                        pool.submit(request)
                            .expect("submit")
                            .collect()
                            .expect("collect");
                    }
                })
            })
            .collect();
        // Stop the sampler before re-raising a submitter's panic, or the
        // scope would wait on it forever.
        let joined: Vec<_> = submitters.into_iter().map(|s| s.join()).collect();
        done.store(true, Ordering::Relaxed);
        for result in joined {
            result.expect("submitter thread");
        }
    });
    let worst = worst.into_inner();
    assert!(
        worst <= SUBMITTERS,
        "queued() read {worst} with {SUBMITTERS} requests outstanding"
    );
    pool.shutdown();
}

/// A backend whose worker dies on first contact, for the pool-loss path.
struct PanickingBackend {
    cfg: VitConfig,
    plan: PrecisionPlan,
}

impl InferenceBackend for PanickingBackend {
    fn name(&self) -> &str {
        "panicking"
    }
    fn vit_config(&self) -> &VitConfig {
        &self.cfg
    }
    fn plan(&self) -> &PrecisionPlan {
        &self.plan
    }
    fn make_scratch(&self) -> ForwardScratch {
        ForwardScratch::empty()
    }
    fn forward_one(
        &self,
        _patches: &[f32],
        _scratch: &mut ForwardScratch,
        _observer: &mut dyn ascend_obs::StageObserver,
    ) -> Result<Vec<f32>, ScError> {
        panic!("worker down (intentional, this test kills the pool)");
    }
}

#[test]
fn worker_loss_surfaces_pool_gone_instead_of_hanging() {
    let gated = GatedBackend::new(); // only for its VitConfig geometry
    let (p, pd) = (gated.cfg.num_patches(), gated.cfg.patch_dim());
    let make = |v: f32| ServeRequest::new(Tensor::from_vec(vec![v; p * pd], &[p, pd]), 1);
    let backend = Arc::new(PanickingBackend {
        cfg: gated.cfg,
        plan: PrecisionPlan::fp(),
    });
    let pool = ServePool::new(
        backend,
        ServeConfig {
            workers: 1,
            micro_batch: 1,
            queue_depth: 1,
        },
    )
    .expect("pool builds");

    // The first request kills the only worker; its dropped reply channel
    // must surface as the typed pool-gone error, not a hang.
    let handle = pool.submit(make(1.0)).expect("first submit is admitted");
    let err = handle.collect().map(|_| ()).unwrap_err();
    assert!(matches!(err, ScError::PoolGone), "got {err:?}");

    // Once the dead worker's queue handle is gone, both admission paths
    // answer PoolGone promptly. The unwind races us, so poll briefly: an
    // `Ok` admission just means the queue still looked open — collecting
    // it must itself report PoolGone, never block.
    let start = now();
    loop {
        match pool.try_submit(make(2.0)) {
            Err(ScError::PoolGone) => break,
            Err(other) => panic!("expected PoolGone, got {other:?}"),
            Ok(handle) => {
                let err = handle.collect().map(|_| ()).unwrap_err();
                assert!(matches!(err, ScError::PoolGone), "got {err:?}");
            }
        }
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "try_submit after worker loss never reported PoolGone"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let err = pool.submit(make(3.0)).map(|_| ()).unwrap_err();
    assert!(
        matches!(err, ScError::PoolGone),
        "blocking submit must error too, got {err:?}"
    );
    pool.shutdown();
}

#[test]
fn forward_one_composes_to_batched_forward() {
    // Image-by-image `forward_one` through every way of holding a backend —
    // the engine itself, a reference, both smart pointers, and the
    // decorators at their identity settings — must reproduce the bare
    // batched forward bit for bit.
    let (engine, test) = tiny_engine();
    let n = 5;
    let idx: Vec<usize> = (0..n).collect();
    let patches = test.patches(&idx, 4);
    let batched = engine.forward(&patches, n).expect("batched forward");
    let cfg = engine.vit_config();
    let (p, pd) = (cfg.num_patches(), cfg.patch_dim());

    let bare: &ScEngine = &engine;
    let boxed: Box<dyn InferenceBackend> = Box::new(Arc::clone(&engine));
    let arced: Arc<dyn InferenceBackend> = engine.clone();
    let fault = FaultInjectingBackend::new(Arc::clone(&engine), 0.0, 7).expect("rate 0");
    let instrumented = InstrumentedBackend::new(Arc::clone(&engine));
    let stacked = InstrumentedBackend::new(InstrumentedBackend::new(Arc::clone(&engine)));
    let cases: [(&str, &dyn InferenceBackend, Vec<&StageStats>); 7] = [
        ("ScEngine", bare, vec![]),
        ("&ScEngine", &bare, vec![]),
        ("Box<dyn>", &boxed, vec![]),
        ("Arc<dyn>", &arced, vec![]),
        ("fault rate 0", &fault, vec![]),
        ("instrumented", &instrumented, vec![instrumented.stats()]),
        (
            "instrumented over instrumented",
            &stacked,
            vec![stacked.stats(), stacked.inner().stats()],
        ),
    ];
    for (label, backend, stats) in cases {
        let mut scratch = backend.make_scratch();
        let mut rows = Vec::new();
        for img in patches.data().chunks_exact(p * pd) {
            rows.extend(
                backend
                    .forward_one(img, &mut scratch, &mut NoopObserver)
                    .expect("forward_one"),
            );
        }
        let composed = Tensor::from_vec(rows, &[n, cfg.classes]);
        assert_bit_identical(&composed, &batched, &format!("forward_one via {label}"));
        // Each forward is timed into exactly one `StageStats`, however
        // deep the instrumented stack.
        if !stats.is_empty() {
            let recorded: u64 = stats.iter().map(|s| s.forwards()).sum();
            assert_eq!(
                recorded, n as u64,
                "{label}: one recorded forward per image"
            );
        }
    }
}

#[test]
fn session_facade_preserves_the_bit_identity_contract() {
    // The same parallel == serial proof, driven end to end through the
    // public `Session` facade on the SC backend: build from the fixture
    // checkpoint, serve repeatedly through `Session::serve_batch` (which
    // reuses the session's one persistent pool), compare against
    // `Session::forward`.
    let recipe = tiny_recipe();
    for workers in [1usize, 2, 4] {
        let (ckpt, _, test) = ascend::fixture::checkpoint_or_load(&recipe);
        let session = ascend::Session::builder()
            .checkpoint(ckpt)
            .backend(ascend::BackendKind::Sc)
            .workers(workers)
            .micro_batch(4)
            .build()
            .expect("session builds");
        assert_eq!(session.backend().name(), "sc-exact");
        let n = 13usize;
        let patches = test.patches(&(0..n).collect::<Vec<_>>(), 4);
        let serial = session.forward(&patches, n).expect("serial forward");
        for round in 0..2 {
            let pool = session.runner().expect("session pool");
            let before = pool.obs().service().snapshot().count();
            let parallel = session.serve_batch(&patches, n).expect("parallel serve");
            assert_bit_identical(
                &parallel,
                &serial,
                &format!("session workers={workers} round={round}"),
            );
            assert_eq!(parallel.shape()[0], n);
            let served = pool.obs().service().snapshot().count() - before;
            assert_eq!(served, n.div_ceil(4) as u64);
            assert_eq!(pool.workers(), workers, "session pool size must be stable");
        }
    }
}

#[test]
fn session_compiles_the_same_engine_as_the_direct_path() {
    // Facade neutrality: a session built from the fixture checkpoint must
    // produce logits bit-identical to the directly compiled engine.
    let (engine, test) = tiny_engine();
    let (session, _, _) = ascend::fixture::session_or_load(
        &tiny_recipe(),
        EngineConfig::default(),
        ascend::BackendKind::Sc,
    )
    .expect("session builds");
    let patches = test.patches(&(0..5).collect::<Vec<_>>(), 4);
    let direct = engine.forward(&patches, 5).expect("direct forward");
    let via_session = session.forward(&patches, 5).expect("session forward");
    assert_bit_identical(&via_session, &direct, "session vs direct engine");
}

#[test]
fn runner_rejects_malformed_configs_and_requests() {
    let (engine, test) = tiny_engine();
    assert!(
        ServePool::new(
            Arc::clone(&engine),
            ServeConfig {
                micro_batch: 0,
                ..ServeConfig::auto()
            }
        )
        .is_err(),
        "micro_batch = 0 must be rejected"
    );
    let pool = ServePool::new(Arc::clone(&engine), ServeConfig::auto()).expect("pool builds");
    // Claiming 3 images while providing 2 images' worth of patches.
    let two = test.patches(&[0, 1], 4);
    assert!(pool.run_batch(&two, 3).is_err());
    assert!(pool.submit(ServeRequest::new(two.clone(), 3)).is_err());
    // A rejected request must not poison the pool for valid ones.
    let serial = engine.forward(&two, 2).expect("serial forward");
    let (logits, _) = pool
        .submit(ServeRequest::new(two, 2))
        .and_then(|handle| handle.collect())
        .expect("valid run after reject");
    assert_bit_identical(&logits, &serial, "pool healthy after rejection");
}
