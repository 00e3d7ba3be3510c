//! The observability layer's cross-crate contracts:
//!
//! * **Instrumentation is invisible to numerics** — a `ServePool` over an
//!   [`InstrumentedBackend`] produces logits bit-for-bit equal to the bare
//!   pool's, while the wrapped backend's [`StageStats`] actually fill.
//! * **Traces cover exactly the served requests** — every job a worker
//!   claims leaves a queue-wait and a service span attributed to its trace
//!   id; a shed request (bounded queue full) leaves none.

#![allow(
    clippy::expect_used,
    reason = "an integration test fails by panicking, helpers included"
)]

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use ascend::engine::{EngineConfig, ScEngine};
use ascend::fixture::{engine_or_load, FixtureRecipe};
use ascend::instrument::{InstrumentedBackend, StageStats};
use ascend::serve::{ServeConfig, ServePool, ServeRequest};
use ascend::{ForwardScratch, InferenceBackend};
use ascend_obs::TraceId;
use ascend_tensor::Tensor;
use ascend_vit::data::Dataset;
use ascend_vit::{PrecisionPlan, VitConfig};
use sc_core::ScError;

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

/// This file's fixture: 2 FP epochs, calibrate, no QAT — observability
/// tests need *a* compiled engine, not an accurate one.
fn tiny_engine() -> (Arc<ScEngine>, Dataset) {
    let mut recipe = FixtureRecipe::tiny("serve-tiny", 5);
    recipe.n_train = 48;
    recipe.n_test = 24;
    recipe.pre_epochs = 2;
    recipe.qat_epochs = 0;
    let (engine, _train, test) =
        engine_or_load(&recipe, EngineConfig::default()).expect("tiny engine compiles");
    (Arc::new(engine), test)
}

#[test]
fn instrumented_pool_is_bit_identical_to_bare_pool() {
    let (engine, test) = tiny_engine();
    let n = 13usize; // ragged: 3 full requests of 4 images plus a tail of 1
    let idx: Vec<usize> = (0..n).collect();
    let patches = test.patches(&idx, 4);
    let cfg = ServeConfig {
        workers: 2,
        micro_batch: 4,
        queue_depth: 0,
    };

    let bare = ServePool::new(Arc::clone(&engine), cfg).expect("bare pool builds");
    let reference = bare.run_batch(&patches, n).expect("bare run");

    let stats = Arc::new(StageStats::new());
    let wrapped = InstrumentedBackend::with_stats(Arc::clone(&engine), Arc::clone(&stats));
    let instrumented = ServePool::new(Arc::new(wrapped), cfg).expect("instrumented pool builds");
    let before = instrumented.obs().service().snapshot().count();
    let observed = instrumented
        .run_batch(&patches, n)
        .expect("instrumented run");

    assert_bit_identical(&observed, &reference, "instrumented vs bare pool");
    // One request per 4 images, one counted forward per image.
    let served = instrumented.obs().service().snapshot().count() - before;
    assert_eq!(served, n.div_ceil(4) as u64);
    assert_eq!(stats.forwards(), n as u64);
    // Every stage of the ViT forward showed up in the per-stage breakdown.
    for stage in ascend_obs::Stage::ALL {
        assert!(
            stats.stage_snapshot(stage).count() > 0,
            "stage {stage:?} recorded no samples"
        );
    }
}

/// A controllable backend: `forward_one` blocks until the gate opens, then
/// echoes `[sum, -sum]` — lets the test hold a worker busy, queue a second
/// request, and shed a third, all deterministically.
struct GatedBackend {
    cfg: VitConfig,
    plan: PrecisionPlan,
    gate: Mutex<bool>,
    opened: Condvar,
}

impl GatedBackend {
    fn new() -> Self {
        GatedBackend {
            cfg: VitConfig {
                image: 8,
                patch: 4,
                dim: 16,
                layers: 1,
                heads: 2,
                classes: 2,
                ..Default::default()
            },
            plan: PrecisionPlan::fp(),
            gate: Mutex::new(false),
            opened: Condvar::new(),
        }
    }

    fn open(&self) {
        *self.gate.lock().expect("gate lock") = true;
        self.opened.notify_all();
    }

    fn payload(&self) -> Tensor {
        let values = self.cfg.num_patches() * self.cfg.patch_dim();
        Tensor::from_vec(
            (0..values).map(|i| i as f32 * 0.01).collect(),
            &[self.cfg.num_patches(), self.cfg.patch_dim()],
        )
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
        let open = self.gate.lock().expect("gate lock");
        let open = self
            .opened
            .wait_while(open, |open| !*open)
            .expect("gate wait");
        drop(open);
        let sum: f32 = patches.iter().sum();
        Ok(vec![sum, -sum])
    }
}

#[test]
fn spans_cover_every_served_request_and_never_a_shed_one() {
    let backend = Arc::new(GatedBackend::new());
    let pool = ServePool::new(
        Arc::clone(&backend),
        ServeConfig {
            workers: 1,
            micro_batch: 1,
            queue_depth: 1,
        },
    )
    .expect("pool builds");

    let ids: Vec<TraceId> = (0..3).map(|_| TraceId::mint()).collect();
    let request = |i: usize| ServeRequest::new(backend.payload(), 1).with_trace(ids[i]);

    // A is claimed by the lone worker and blocks on the gate; wait until
    // the queue slot frees up so B deterministically occupies it.
    let a = pool.submit(request(0)).expect("submit A");
    let deadline = now() + Duration::from_secs(5);
    while pool.queued() > 0 {
        assert!(now() < deadline, "worker never claimed A");
        std::thread::yield_now();
    }
    let b = pool.try_submit(request(1)).expect("submit B");
    // C: queue full — shed at admission, before any worker involvement.
    match pool.try_submit(request(2)) {
        Err(ScError::QueueFull { .. }) => {}
        Err(e) => panic!("expected QueueFull for C, got {e}"),
        Ok(_) => panic!("C was admitted despite a full queue"),
    }

    // Hold the gate shut a beat longer: A is mid-service and B is queued
    // for all of it, so the split must attribute that time to A's service
    // and B's queue wait respectively.
    let held = Duration::from_millis(50);
    std::thread::sleep(held);
    backend.open();
    let (_, timing_a) = a.collect().expect("collect A");
    let (_, timing_b) = b.collect().expect("collect B");
    assert!(
        timing_a.service >= held,
        "A's gate-blocked time must land in service"
    );
    assert!(
        timing_b.queue_wait >= held,
        "B's queued time must land in queue_wait"
    );

    let obs = pool.obs();
    assert_eq!(
        obs.queue_wait().snapshot().count(),
        2,
        "queue-wait histogram"
    );
    assert_eq!(obs.service().snapshot().count(), 2, "service histogram");

    let spans = obs.trace().snapshot();
    assert_eq!(
        spans.len(),
        4,
        "two spans per served request, none for the shed one"
    );
    for (i, expect_served) in [(0usize, true), (1, true), (2, false)] {
        let mine: Vec<_> = spans.iter().filter(|s| s.trace_id == ids[i]).collect();
        if expect_served {
            assert_eq!(mine.len(), 2, "request {i} span count");
            let names: Vec<&str> = mine.iter().map(|s| s.name).collect();
            assert!(names.contains(&"queue_wait") && names.contains(&"service"));
        } else {
            assert!(mine.is_empty(), "shed request {i} leaked spans: {mine:?}");
        }
    }
    let json = obs.trace().to_chrome_json();
    assert!(json.starts_with("{\"traceEvents\":["), "chrome envelope");
    assert!(
        !json.contains(&format!("\"trace_id\":{}", ids[2].0)),
        "shed id in chrome export"
    );
}
