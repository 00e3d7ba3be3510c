//! Registry correctness over real artifacts and live pools:
//!
//! * two models registered over one artifact path share a single
//!   `Arc`-held copy of the weights and serve bit-identically to the
//!   serial engine;
//! * a model evicted under the memory budget re-warms to a backend that
//!   is bit-for-bit identical to its first load;
//! * eviction with requests still in flight never drops or reorders a
//!   response (the evicted pool drains; it is never killed);
//! * a property test over random access sequences: once warm, the
//!   deduplicated resident total never exceeds the budget.

use std::sync::{Arc, Condvar, Mutex};

use ascend::engine::{EngineConfig, ScEngine};
use ascend::fixture::{engine_or_load, FixtureRecipe};
use ascend::{ForwardScratch, InferenceBackend, ServeConfig, ServeRequest};
use ascend_registry::{ModelRegistry, ModelSpec, ModelState, RegistryConfig};
use ascend_tensor::Tensor;
use ascend_vit::data::Dataset;
use ascend_vit::{PrecisionPlan, VitConfig};
use proptest::prelude::*;
use sc_core::ScError;

/// This file's one fixture: a tiny engine trained once and cached under
/// `target/ascend-fixtures` (2 FP epochs, no QAT — registry tests need
/// *a* compiled engine, not an accurate one).
fn tiny_engine() -> (Arc<ScEngine>, Dataset) {
    let mut recipe = FixtureRecipe::tiny("registry-tiny", 7);
    recipe.n_train = 32;
    recipe.n_test = 16;
    recipe.pre_epochs = 1;
    recipe.qat_epochs = 0;
    let (engine, _train, test) =
        engine_or_load(&recipe, EngineConfig::default()).expect("tiny engine compiles");
    (Arc::new(engine), test)
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ascend-registry-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn serve_cfg() -> ServeConfig {
    ServeConfig { workers: 1, micro_batch: 1, queue_depth: 0 }
}

fn assert_bit_identical(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (g, w)) in got.data().iter().zip(want.data().iter()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: logit {i} differs");
    }
}

#[test]
fn two_models_over_one_artifact_share_weights_and_serve_bit_identically() {
    let (engine, test) = tiny_engine();
    let dir = scratch_dir("shared");
    let path = dir.join("engine.sceng");
    engine.save(&path).expect("save artifact");

    let registry = ModelRegistry::new(RegistryConfig::default());
    registry.register(ModelSpec::artifact("alpha", &path).serve(serve_cfg())).expect("register");
    registry.register(ModelSpec::artifact("beta", &path).serve(serve_cfg())).expect("register");

    let alpha = registry.acquire("alpha").expect("warm alpha");
    let beta = registry.acquire("beta").expect("warm beta");

    // One artifact, two sessions, ONE copy of the weights.
    assert!(
        std::ptr::addr_eq(alpha.session().backend(), beta.session().backend()),
        "sessions over one artifact must share the backend"
    );
    assert_eq!(registry.resident_bytes(), engine.resident_bytes(), "shared copy charged once");
    assert_eq!(alpha.resident_bytes(), beta.resident_bytes());

    // Both pools serve bit-identically to the serial forward.
    let patch = engine.vit_config().patch;
    let patches = test.patches(&[0, 1, 2], patch);
    let want = engine.forward(&patches, 3).expect("serial forward");
    for handle in [&alpha, &beta] {
        let got = handle.session().serve_batch(&patches, 3).expect("served batch");
        assert_bit_identical(&got, &want, &format!("model {}", handle.name()));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rewarm_after_eviction_is_bit_identical_to_first_load() {
    let (engine, test) = tiny_engine();
    let dir = scratch_dir("rewarm");
    let path_a = dir.join("a.sceng");
    let path_b = dir.join("b.sceng");
    engine.save(&path_a).expect("save a");
    // A byte-identical copy under a different path: distinct paths do
    // NOT share, so warming `b` really costs a second residency.
    std::fs::copy(&path_a, &path_b).expect("copy artifact");

    // Budget admits exactly one engine: every cross-model acquire evicts.
    let registry = ModelRegistry::new(RegistryConfig {
        memory_budget_bytes: engine.resident_bytes(),
        ..Default::default()
    });
    registry.register(ModelSpec::artifact("a", &path_a).serve(serve_cfg())).expect("register");
    registry.register(ModelSpec::artifact("b", &path_b).serve(serve_cfg())).expect("register");

    let patch = engine.vit_config().patch;
    let patches = test.patches(&[3, 4], patch);

    let first = registry.acquire("a").expect("first warm of a");
    let out_first = first.session().serve_batch(&patches, 2).expect("first serve");
    drop(first);

    registry.acquire("b").expect("warm b evicts a");
    assert_eq!(registry.state("a"), Some(ModelState::Cold), "a was the LRU");
    assert_eq!(registry.evictions_total("a"), Some(1));

    let again = registry.acquire("a").expect("re-warm a evicts b");
    assert_eq!(registry.state("b"), Some(ModelState::Cold));
    assert_eq!(registry.loads_total("a"), Some(2), "re-warm is a fresh lazy load");
    let out_again = again.session().serve_batch(&patches, 2).expect("re-warmed serve");
    assert_bit_identical(&out_again, &out_first, "re-warm after eviction");

    assert!(registry.resident_bytes() <= registry.budget_bytes());
    std::fs::remove_dir_all(&dir).ok();
}

/// A controllable backend: `forward_one` blocks until the gate opens,
/// then echoes a deterministic function of its input — so the test can
/// hold a pool mid-request while the registry evicts it.
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
        // Poison-recovery so one panicked worker cannot cascade
        // PoisonError panics through every other gated thread.
        let mut open = match self.gate.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        *open = true;
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
    fn resident_bytes(&self) -> usize {
        1000
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
        let mut open = match self.gate.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        while !*open {
            open = match self.opened.wait(open) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        drop(open);
        let sum: f32 = patches.iter().sum();
        Ok(vec![sum, -sum])
    }
}

/// A trivially warm backend used as the eviction trigger.
struct StubBackend {
    cfg: VitConfig,
    plan: PrecisionPlan,
}

impl StubBackend {
    fn new() -> Self {
        StubBackend { cfg: GatedBackend::new().cfg, plan: PrecisionPlan::fp() }
    }
}

impl InferenceBackend for StubBackend {
    fn name(&self) -> &str {
        "stub"
    }
    fn vit_config(&self) -> &VitConfig {
        &self.cfg
    }
    fn plan(&self) -> &PrecisionPlan {
        &self.plan
    }
    fn resident_bytes(&self) -> usize {
        1000
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
        Ok(vec![0.0, 0.0])
    }
}

#[test]
fn eviction_mid_flight_never_drops_or_reorders_responses() {
    let gated = Arc::new(GatedBackend::new());
    // Budget fits exactly one model, so warming `other` must evict
    // `victim` — while `victim`'s pool still has queued work.
    let registry = ModelRegistry::new(RegistryConfig {
        memory_budget_bytes: 1000,
        ..Default::default()
    });
    registry
        .register(
            ModelSpec::shared("victim", Arc::clone(&gated) as Arc<dyn InferenceBackend>)
                .serve(serve_cfg()),
        )
        .expect("register victim");
    registry
        .register(ModelSpec::shared("other", Arc::new(StubBackend::new())).serve(serve_cfg()))
        .expect("register other");

    let victim = registry.acquire("victim").expect("warm victim");
    let (np, pd) = (gated.cfg.num_patches(), gated.cfg.patch_dim());

    // With the gate closed, the single worker stalls on request 0 and
    // the rest queue up behind it: genuinely in-flight work.
    let mut handles = Vec::new();
    let mut wants = Vec::new();
    for i in 0..6 {
        let fill = i as f32 + 1.0;
        let patches = Tensor::from_vec(vec![fill; np * pd], &[np, pd]);
        wants.push(vec![fill * (np * pd) as f32, -fill * (np * pd) as f32]);
        let pool = victim.session().runner().expect("victim pool");
        handles.push(pool.submit(ServeRequest::new(patches, 1)).expect("submit"));
    }

    // Evict the victim mid-flight.
    registry.acquire("other").expect("warm other");
    assert_eq!(registry.state("victim"), Some(ModelState::Cold), "victim evicted");
    assert_eq!(registry.state("other"), Some(ModelState::Warm));
    assert_eq!(registry.evictions_total("victim"), Some(1));

    // The evicted pool still answers EVERY admitted request, in order.
    gated.open();
    for (i, (handle, want)) in handles.into_iter().zip(&wants).enumerate() {
        let (got, _latency) = handle.collect().expect("evicted pool completes its work");
        assert_eq!(got.data(), &want[..], "request {i} dropped or reordered by eviction");
    }
    // Only now does the last reference drop and the pool drain.
    drop(victim);
}

/// Shared specs for the property test: three models whose sizes force
/// evictions under a 180-byte budget but each fit individually.
fn prop_registry() -> ModelRegistry {
    struct Sized {
        cfg: VitConfig,
        plan: PrecisionPlan,
        bytes: usize,
    }
    impl InferenceBackend for Sized {
        fn name(&self) -> &str {
            "sized"
        }
        fn vit_config(&self) -> &VitConfig {
            &self.cfg
        }
        fn plan(&self) -> &PrecisionPlan {
            &self.plan
        }
        fn resident_bytes(&self) -> usize {
            self.bytes
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
            Ok(vec![0.0, 0.0])
        }
    }
    let registry = ModelRegistry::new(RegistryConfig {
        memory_budget_bytes: 180,
        ..Default::default()
    });
    for (name, bytes) in [("m0", 60), ("m1", 80), ("m2", 100)] {
        let backend = Sized { cfg: GatedBackend::new().cfg, plan: PrecisionPlan::fp(), bytes };
        registry
            .register(ModelSpec::shared(name, Arc::new(backend)).serve(serve_cfg()))
            .expect("register");
    }
    registry
}

proptest! {
    #[test]
    fn resident_bytes_never_exceed_the_budget_once_warm(
        accesses in proptest::collection::vec(0usize..3, 1..16)
    ) {
        let registry = prop_registry();
        for &i in &accesses {
            let name = ["m0", "m1", "m2"][i];
            let handle = registry.acquire(name).expect("every model fits alone");
            prop_assert_eq!(registry.state(name), Some(ModelState::Warm));
            prop_assert!(handle.resident_bytes() <= 180);
            let resident = registry.resident_bytes();
            prop_assert!(
                resident <= 180,
                "resident {} exceeds budget after acquiring {}", resident, name
            );
        }
    }
}
