//! # ascend-registry — multi-model, multi-tenant serving registry
//!
//! One process, N named models. Each model is registered as a
//! [`ModelSpec`] — a name plus where its weights come from — and is
//! **lazily materialized** on first request: the registry opens the
//! ASCNDART artifact through [`ascend_io`]'s lazy [`ArtifactReader`]
//! (per-section CRC validation, no whole-file read), compiles the
//! backend, wraps it in a [`Session`], and spawns the session's
//! [`ServePool`] — all while the model is in the `Warming` state, so a
//! cold model's first request pays the load once and every concurrent
//! request for the same model waits on that single flight instead of
//! loading again.
//!
//! [`ArtifactReader`]: ascend_io::format::ArtifactReader
//! [`ServePool`]: ascend::ServePool
//!
//! A model registered over a built session ([`ModelSpec::session`]) is
//! served on that session's own pool: a single-model front-end is a
//! pre-warmed registry of one.
//!
//! ## State machine
//!
//! ```text
//!            acquire() on a cold slot
//!   Cold ───────────────────────────────▶ Warming
//!    ▲                                       │
//!    │ load fails, or budget                 │ load + pool spawn
//!    │ eviction (LRU)                        ▼ succeed
//!    └─────────────────────────────────── Warm
//! ```
//!
//! * `Cold` — registered, nothing resident. The first [`acquire`] moves
//!   the slot to `Warming` and performs the load **outside** the
//!   registry lock.
//! * `Warming` — one thread (the *warmer*) is loading; every other
//!   [`acquire`] for the same model blocks on a condvar until the slot
//!   settles. A failed warm returns the slot to `Cold` and wakes the
//!   waiters, which retry (and typically surface the same typed error).
//! * `Warm` — an [`Arc<ModelHandle>`] holds the live [`Session`] and its
//!   running pool. Eviction only drops the *registry's* reference: any
//!   in-flight request still holds the handle (and the pool completes
//!   every admitted request before its workers exit), so eviction
//!   **drains gracefully and never kills in-flight work**.
//!
//! [`acquire`]: ModelRegistry::acquire
//!
//! ## Memory budget & LRU eviction
//!
//! [`RegistryConfig::memory_budget_bytes`] bounds the total
//! [`InferenceBackend::resident_bytes`] of warm models (`0` = unlimited).
//! When a warm completes and the total exceeds the budget, the registry
//! evicts least-recently-*acquired* warm models (a logical u64 tick, not
//! wall-clock time) until it fits. If evicting every other model still
//! leaves the newcomer over budget — the model alone is bigger than the
//! budget — the warm is rolled back and [`ScError::BudgetExceeded`] is
//! returned, which serving front-ends map to `503 Retry-After`.
//!
//! ## Zero-copy sharing
//!
//! Two registered models backed by the **same artifact path** share one
//! backend: the registry keeps a weak cache of loaded artifacts keyed by
//! `(path, backend kind)`, so the second warm finds the live `Arc` and
//! skips the load entirely. Shared backends are charged against the
//! budget **once** (residency is deduplicated by `Arc` identity).

#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};

use ascend::{load_backend, BackendKind, EngineConfig, InferenceBackend, ServeConfig, Session};
use ascend_obs::{Counter, Gauge, Registry as MetricsRegistry};
use sc_core::ScError;

/// Observable lifecycle state of a registered model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelState {
    /// Registered; nothing resident.
    Cold,
    /// One thread is loading the artifact and spawning the pool.
    Warming,
    /// Live: session and worker pool resident and serving.
    Warm,
}

impl ModelState {
    /// The HTTP/metrics-facing name (`"cold"` / `"warming"` / `"warm"`).
    pub fn as_str(self) -> &'static str {
        match self {
            ModelState::Cold => "cold",
            ModelState::Warming => "warming",
            ModelState::Warm => "warm",
        }
    }

    /// The `/metrics` gauge encoding (cold 0, warming 1, warm 2).
    pub fn gauge_value(self) -> u64 {
        match self {
            ModelState::Cold => 0,
            ModelState::Warming => 1,
            ModelState::Warm => 2,
        }
    }
}

/// Where a model's weights come from.
#[derive(Clone)]
pub enum ModelSource {
    /// Lazily loaded from an ASCNDART artifact file on first request.
    Artifact {
        /// Path to the `.sceng` engine or `.ckpt` checkpoint artifact.
        path: PathBuf,
        /// Which backend to materialize from the artifact.
        backend: BackendKind,
    },
    /// An already-constructed backend, shared with the caller. Used by
    /// embedders and tests that need controllable backends; artifact
    /// sources are the production path.
    Shared(Arc<dyn InferenceBackend>),
    /// An already-built session, served as-is: warming spawns (or reuses)
    /// the session's own pool, which the caller keeps observing.
    Session(Arc<Session>),
}

/// A named model registration: name, weight source, and the serving
/// configuration its pool is spawned with when it warms.
#[derive(Clone)]
pub struct ModelSpec {
    /// Registry-unique model name (`[A-Za-z0-9._-]`, at most 64 chars).
    pub name: String,
    /// Where the weights come from.
    pub source: ModelSource,
    /// Pool shape used when the model warms.
    pub serve: ServeConfig,
}

impl ModelSpec {
    /// A spec serving `path` (an ASCNDART artifact) under `name` with the
    /// default SC backend and serving configuration (machine worker count,
    /// bounded queue: [`ServeConfig::with_bounded_queue`]).
    pub fn artifact(name: impl Into<String>, path: impl Into<PathBuf>) -> Self {
        ModelSpec {
            name: name.into(),
            source: ModelSource::Artifact {
                path: path.into(),
                backend: BackendKind::Sc,
            },
            serve: ServeConfig::default().with_bounded_queue(),
        }
    }

    /// A spec serving an already-constructed shared backend under `name`
    /// with the default serving configuration (bounded queue, as for
    /// [`ModelSpec::artifact`]).
    pub fn shared(name: impl Into<String>, backend: Arc<dyn InferenceBackend>) -> Self {
        ModelSpec {
            name: name.into(),
            source: ModelSource::Shared(backend),
            serve: ServeConfig::default().with_bounded_queue(),
        }
    }

    /// A spec serving an already-built session (and its pool) under
    /// `name`; the serving configuration is the session's own.
    pub fn session(name: impl Into<String>, session: Arc<Session>) -> Self {
        let serve = *session.serve_config();
        ModelSpec {
            name: name.into(),
            source: ModelSource::Session(session),
            serve,
        }
    }

    /// Overrides the backend kind (artifact sources only; no-op for
    /// shared sources).
    pub fn backend(mut self, kind: BackendKind) -> Self {
        if let ModelSource::Artifact { backend, .. } = &mut self.source {
            *backend = kind;
        }
        self
    }

    /// Overrides the serving configuration used at warm time (no-op for
    /// session sources, whose pool shape is the session's).
    pub fn serve(mut self, serve: ServeConfig) -> Self {
        if !matches!(self.source, ModelSource::Session(_)) {
            self.serve = serve;
        }
        self
    }
}

/// A live, warm model: the session (with its running pool) and the
/// resident-byte charge the registry accounted for it.
///
/// Handles are reference-counted: the registry holds one reference while
/// the model is warm, and every in-flight request holds its own, so
/// eviction never tears down a pool that still has work outstanding.
pub struct ModelHandle {
    name: String,
    session: Arc<Session>,
    bytes: usize,
}

impl ModelHandle {
    /// The model's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The live session (its pool was spawned during warming). Two
    /// models over one artifact share one backend: their
    /// `session().backend()` pointers are equal.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Bytes this model contributes to the registry's resident total
    /// (deduplicated across handles sharing one backend).
    pub fn resident_bytes(&self) -> usize {
        self.bytes
    }
}

/// Registry-wide configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RegistryConfig {
    /// Upper bound on the summed resident bytes of warm models; `0`
    /// means unlimited (no eviction).
    pub memory_budget_bytes: usize,
    /// Engine configuration used when compiling checkpoint artifacts.
    pub engine_config: EngineConfig,
}

/// Per-model `/metrics` handles, labeled with the model name.
struct ModelMetrics {
    state: Arc<Gauge>,
    resident: Arc<Gauge>,
    loads: Arc<Counter>,
    evictions: Arc<Counter>,
}

enum SlotState {
    Cold,
    Warming,
    Warm(Arc<ModelHandle>),
}

struct Slot {
    spec: ModelSpec,
    state: SlotState,
    /// Logical LRU tick of the last acquire (or warm completion). A u64
    /// counter, not wall-clock time: eviction order is deterministic and
    /// clock-independent.
    last_used: u64,
    metrics: ModelMetrics,
}

impl Slot {
    fn state_enum(&self) -> ModelState {
        match self.state {
            SlotState::Cold => ModelState::Cold,
            SlotState::Warming => ModelState::Warming,
            SlotState::Warm(_) => ModelState::Warm,
        }
    }

    /// Moves the slot to `state`, keeping its state and resident gauges
    /// in step, and returns the previous state (dropped by the caller
    /// outside the registry lock).
    fn set_state(&mut self, state: SlotState) -> SlotState {
        let bytes = match &state {
            SlotState::Warm(handle) => u64::try_from(handle.bytes).unwrap_or(u64::MAX),
            _ => 0,
        };
        let previous = std::mem::replace(&mut self.state, state);
        self.metrics.state.set(self.state_enum().gauge_value());
        self.metrics.resident.set(bytes);
        previous
    }
}

/// Weak cache entry enabling zero-copy backend sharing across models
/// registered over the same artifact.
struct SharedLoad {
    path: PathBuf,
    kind: BackendKind,
    backend: Weak<dyn InferenceBackend>,
}

struct Inner {
    slots: Vec<Slot>,
    shared: Vec<SharedLoad>,
    clock: u64,
}

/// The multi-model serving registry. See the [module docs](self) for the
/// state machine, budget semantics, and sharing model.
pub struct ModelRegistry {
    inner: Mutex<Inner>,
    /// Signaled whenever a `Warming` slot settles (either way), waking
    /// the acquires parked on it.
    warmed: Condvar,
    budget: usize,
    engine_config: EngineConfig,
    metrics: MetricsRegistry,
    resident_gauge: Arc<Gauge>,
    models_gauge: Arc<Gauge>,
}

impl ModelRegistry {
    /// An empty registry with the given budget and engine configuration.
    pub fn new(config: RegistryConfig) -> Self {
        let metrics = MetricsRegistry::new();
        let resident_gauge = metrics.gauge(
            "ascend_registry_resident_bytes",
            "Deduplicated resident bytes across all warm models",
        );
        // The budget never changes after construction; set it once and
        // let the metrics registry keep the gauge alive.
        metrics
            .gauge(
                "ascend_registry_budget_bytes",
                "Configured memory budget in bytes (0 = unlimited)",
            )
            .set(u64::try_from(config.memory_budget_bytes).unwrap_or(u64::MAX));
        let models_gauge = metrics.gauge("ascend_registry_models", "Number of registered models");
        ModelRegistry {
            inner: Mutex::new(Inner {
                slots: Vec::new(),
                shared: Vec::new(),
                clock: 0,
            }),
            warmed: Condvar::new(),
            budget: config.memory_budget_bytes,
            engine_config: config.engine_config,
            metrics,
            resident_gauge,
            models_gauge,
        }
    }

    /// The configured memory budget in bytes (`0` = unlimited).
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn slot_index(inner: &Inner, name: &str) -> Option<usize> {
        inner.slots.iter().position(|s| s.spec.name == name)
    }

    fn state_locked(inner: &Inner, name: &str) -> Option<ModelState> {
        let idx = Self::slot_index(inner, name)?;
        inner.slots.get(idx).map(Slot::state_enum)
    }

    /// Total resident bytes across warm models, charging each distinct
    /// backend once (models sharing one artifact share one copy).
    fn resident_locked(inner: &Inner) -> usize {
        let mut seen: Vec<&dyn InferenceBackend> = Vec::new();
        let mut total = 0usize;
        for slot in &inner.slots {
            if let SlotState::Warm(handle) = &slot.state {
                let backend = handle.session.backend();
                if seen.iter().any(|b| std::ptr::addr_eq(*b, backend)) {
                    continue;
                }
                seen.push(backend);
                total = total.saturating_add(handle.bytes);
            }
        }
        total
    }

    fn update_registry_gauges_locked(&self, inner: &Inner) {
        self.resident_gauge
            .set(u64::try_from(Self::resident_locked(inner)).unwrap_or(u64::MAX));
        self.models_gauge
            .set(u64::try_from(inner.slots.len()).unwrap_or(u64::MAX));
    }

    fn validate_name(name: &str) -> Result<(), ScError> {
        if name.is_empty() || name.len() > 64 {
            return Err(ScError::InvalidParam {
                name: "model",
                reason: format!("model name must be 1..=64 characters, got {}", name.len()),
            });
        }
        if !name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
        {
            return Err(ScError::InvalidParam {
                name: "model",
                reason: format!("model name `{name}` contains characters outside [A-Za-z0-9._-]"),
            });
        }
        Ok(())
    }

    /// Registers a model. Registration is cheap — nothing is loaded until
    /// the first [`acquire`](Self::acquire).
    ///
    /// # Errors
    ///
    /// [`ScError::InvalidParam`] for a malformed or duplicate name.
    pub fn register(&self, spec: ModelSpec) -> Result<(), ScError> {
        Self::validate_name(&spec.name)?;
        let mut inner = self.lock();
        if Self::slot_index(&inner, &spec.name).is_some() {
            return Err(ScError::InvalidParam {
                name: "model",
                reason: format!("model `{}` is already registered", spec.name),
            });
        }
        let label = |metric: &str| format!("{metric}{{model=\"{}\"}}", spec.name);
        let metrics = ModelMetrics {
            state: self.metrics.gauge(
                &label("ascend_model_state"),
                "Model lifecycle state (0 cold, 1 warming, 2 warm)",
            ),
            resident: self.metrics.gauge(
                &label("ascend_model_resident_bytes"),
                "Resident weight bytes while the model is warm",
            ),
            loads: self.metrics.counter(
                &label("ascend_model_loads_total"),
                "Completed cold loads (warm transitions) of this model",
            ),
            evictions: self.metrics.counter(
                &label("ascend_model_evictions_total"),
                "Times this model was evicted back to cold",
            ),
        };
        inner.slots.push(Slot {
            spec,
            state: SlotState::Cold,
            last_used: 0,
            metrics,
        });
        self.update_registry_gauges_locked(&inner);
        Ok(())
    }

    /// Acquires a live handle for `name`, warming the model first if it
    /// is cold (see the [module docs](self) for the single-flight and
    /// eviction protocol). The returned handle stays valid even if the
    /// model is evicted while the caller still uses it.
    ///
    /// # Errors
    ///
    /// * [`ScError::UnknownModel`] — no such registration.
    /// * [`ScError::Io`] with `not_found` — the artifact path does not
    ///   exist (front-ends map this to 404).
    /// * [`ScError::CorruptArtifact`] — the artifact exists but fails
    ///   validation (500).
    /// * [`ScError::BudgetExceeded`] — the model alone does not fit in
    ///   the memory budget even after evicting everything else (503).
    pub fn acquire(&self, name: &str) -> Result<Arc<ModelHandle>, ScError> {
        let mut inner = self.lock();
        loop {
            let Some(idx) = Self::slot_index(&inner, name) else {
                return Err(ScError::UnknownModel {
                    model: name.to_string(),
                });
            };
            let state = inner.slots.get(idx).map(Slot::state_enum);
            match state {
                None => {
                    return Err(ScError::UnknownModel {
                        model: name.to_string(),
                    });
                }
                Some(ModelState::Warm) => {
                    inner.clock += 1;
                    let tick = inner.clock;
                    let Some(slot) = inner.slots.get_mut(idx) else {
                        continue;
                    };
                    slot.last_used = tick;
                    if let SlotState::Warm(handle) = &slot.state {
                        return Ok(Arc::clone(handle));
                    }
                }
                Some(ModelState::Warming) => {
                    // Sleep until this warm ends either way; the next pass
                    // re-reads the state, so a failed warm (back to Cold)
                    // passes the warm on to this caller.
                    inner = match self.warmed.wait_while(inner, |inner| {
                        Self::state_locked(inner, name) == Some(ModelState::Warming)
                    }) {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                }
                Some(ModelState::Cold) => {
                    let (source, serve) = {
                        let Some(slot) = inner.slots.get_mut(idx) else {
                            continue;
                        };
                        slot.set_state(SlotState::Warming);
                        (slot.spec.source.clone(), slot.spec.serve)
                    };
                    drop(inner);
                    return self.warm_slot(name, &source, serve);
                }
            }
        }
    }

    /// Returns the warm handle for `name` without warming a cold model
    /// (and without touching the LRU clock).
    pub fn peek(&self, name: &str) -> Option<Arc<ModelHandle>> {
        let inner = self.lock();
        let idx = Self::slot_index(&inner, name)?;
        match &inner.slots.get(idx)?.state {
            SlotState::Warm(handle) => Some(Arc::clone(handle)),
            _ => None,
        }
    }

    /// Force-evicts a warm model back to cold, returning whether anything
    /// was evicted. The drained pool is dropped outside the registry
    /// lock, so a slow drain never blocks other models.
    pub fn evict(&self, name: &str) -> bool {
        let mut inner = self.lock();
        let Some(idx) = Self::slot_index(&inner, name) else {
            return false;
        };
        let Some(slot) = inner.slots.get_mut(idx) else {
            return false;
        };
        if !matches!(slot.state, SlotState::Warm(_)) {
            return false;
        }
        let previous = slot.set_state(SlotState::Cold);
        slot.metrics.evictions.inc();
        self.update_registry_gauges_locked(&inner);
        drop(inner);
        drop(previous);
        true
    }

    /// Current state of `name`, or `None` if it is not registered.
    pub fn state(&self, name: &str) -> Option<ModelState> {
        Self::state_locked(&self.lock(), name)
    }

    /// `(name, state)` for every registered model, in registration order.
    pub fn states(&self) -> Vec<(String, ModelState)> {
        self.lock()
            .slots
            .iter()
            .map(|s| (s.spec.name.clone(), s.state_enum()))
            .collect()
    }

    /// Every currently-warm handle, in registration order (used by the
    /// HTTP front-end to render per-pool metrics).
    pub fn warm_handles(&self) -> Vec<Arc<ModelHandle>> {
        self.lock()
            .slots
            .iter()
            .filter_map(|s| match &s.state {
                SlotState::Warm(handle) => Some(Arc::clone(handle)),
                _ => None,
            })
            .collect()
    }

    /// Deduplicated resident bytes across all warm models.
    pub fn resident_bytes(&self) -> usize {
        Self::resident_locked(&self.lock())
    }

    /// Completed loads of `name` (`None` if unregistered).
    pub fn loads_total(&self, name: &str) -> Option<u64> {
        let inner = self.lock();
        let idx = Self::slot_index(&inner, name)?;
        inner.slots.get(idx).map(|s| s.metrics.loads.get())
    }

    /// Evictions of `name` (`None` if unregistered).
    pub fn evictions_total(&self, name: &str) -> Option<u64> {
        let inner = self.lock();
        let idx = Self::slot_index(&inner, name)?;
        inner.slots.get(idx).map(|s| s.metrics.evictions.get())
    }

    /// Renders the registry's `/metrics` block (per-model
    /// state/resident/loads/evictions plus registry-wide totals) as
    /// Prometheus text. Every state transition keeps the gauges current.
    pub fn metrics_render(&self) -> String {
        self.metrics.render()
    }

    /// The warmer's off-lock work: materialize the session, spawn its
    /// pool, then re-lock to publish the result and enforce the budget.
    fn warm_slot(
        &self,
        name: &str,
        source: &ModelSource,
        serve: ServeConfig,
    ) -> Result<Arc<ModelHandle>, ScError> {
        let warmed = self.materialize(source, serve).and_then(|session| {
            let bytes = session.backend().resident_bytes();
            // Spawn the worker pool *during* warming so the first real
            // request hits a ready pool, and so a spawn failure surfaces
            // here as a typed error instead of on the request path.
            session.runner()?;
            Ok(Arc::new(ModelHandle {
                name: name.to_string(),
                session,
                bytes,
            }))
        });
        let mut inner = self.lock();
        let handle = match warmed {
            Err(e) => {
                if let Some(slot) =
                    Self::slot_index(&inner, name).and_then(|i| inner.slots.get_mut(i))
                {
                    slot.set_state(SlotState::Cold);
                }
                drop(inner);
                self.warmed.notify_all();
                return Err(e);
            }
            Ok(handle) => handle,
        };
        inner.clock += 1;
        let tick = inner.clock;
        let Some(idx) = Self::slot_index(&inner, name) else {
            drop(inner);
            self.warmed.notify_all();
            return Err(ScError::UnknownModel {
                model: name.to_string(),
            });
        };
        if let Some(slot) = inner.slots.get_mut(idx) {
            slot.set_state(SlotState::Warm(Arc::clone(&handle)));
            slot.last_used = tick;
            slot.metrics.loads.inc();
        }
        let mut evicted: Vec<Arc<ModelHandle>> = Vec::new();
        let mut budget_err = None;
        if self.budget > 0 {
            while Self::resident_locked(&inner) > self.budget {
                match Self::evict_lru_locked(&mut inner, idx) {
                    Some(h) => evicted.push(h),
                    None => break,
                }
            }
            if Self::resident_locked(&inner) > self.budget {
                // Everything else is already out and the newcomer alone
                // still busts the budget: roll the warm back.
                if let Some(slot) = inner.slots.get_mut(idx) {
                    slot.set_state(SlotState::Cold);
                }
                budget_err = Some(ScError::BudgetExceeded {
                    needed: handle.bytes,
                    budget: self.budget,
                });
            }
        }
        self.update_registry_gauges_locked(&inner);
        drop(inner);
        self.warmed.notify_all();
        // Evicted pools drain (workers join) here, outside the lock, so a
        // slow drain never blocks routing or other warms.
        drop(evicted);
        match budget_err {
            Some(e) => Err(e),
            None => Ok(handle),
        }
    }

    /// Evicts the least-recently-used warm slot other than `exclude`,
    /// returning its handle (dropped by the caller outside the lock).
    fn evict_lru_locked(inner: &mut Inner, exclude: usize) -> Option<Arc<ModelHandle>> {
        let mut lru: Option<(usize, u64)> = None;
        for (i, slot) in inner.slots.iter().enumerate() {
            if i == exclude || !matches!(slot.state, SlotState::Warm(_)) {
                continue;
            }
            if lru.is_none_or(|(_, tick)| slot.last_used < tick) {
                lru = Some((i, slot.last_used));
            }
        }
        let (i, _) = lru?;
        let slot = inner.slots.get_mut(i)?;
        let previous = slot.set_state(SlotState::Cold);
        slot.metrics.evictions.inc();
        match previous {
            SlotState::Warm(handle) => Some(handle),
            _ => None,
        }
    }

    /// Produces the session for a source: session sources are served
    /// as-is, shared backends are wrapped in a fresh session, and artifact
    /// sources go through [`Self::load_shared`].
    fn materialize(
        &self,
        source: &ModelSource,
        serve: ServeConfig,
    ) -> Result<Arc<Session>, ScError> {
        let backend = match source {
            ModelSource::Session(session) => return Ok(Arc::clone(session)),
            ModelSource::Shared(backend) => Arc::clone(backend),
            ModelSource::Artifact { path, backend } => self.load_shared(path, *backend)?,
        };
        Ok(Arc::new(Session::from_shared_backend(backend, serve)?))
    }

    /// Loads an artifact's backend through the weak `(path, kind)` cache,
    /// so two models over one artifact share one copy of the weights.
    fn load_shared(
        &self,
        path: &Path,
        kind: BackendKind,
    ) -> Result<Arc<dyn InferenceBackend>, ScError> {
        if let Some(hit) = Self::cached_locked(&self.lock(), path, kind) {
            return Ok(hit);
        }
        let loaded = load_backend(path, kind, self.engine_config)?;
        let backend: Arc<dyn InferenceBackend> = Arc::from(loaded);
        let mut inner = self.lock();
        inner.shared.retain(|s| s.backend.strong_count() > 0);
        // A racing warm over the same artifact may have published first;
        // prefer its copy so both models share.
        if let Some(hit) = Self::cached_locked(&inner, path, kind) {
            return Ok(hit);
        }
        inner.shared.push(SharedLoad {
            path: path.to_path_buf(),
            kind,
            backend: Arc::downgrade(&backend),
        });
        Ok(backend)
    }

    fn cached_locked(
        inner: &Inner,
        path: &Path,
        kind: BackendKind,
    ) -> Option<Arc<dyn InferenceBackend>> {
        inner
            .shared
            .iter()
            .find_map(|s| (s.path == path && s.kind == kind).then(|| s.backend.upgrade())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascend::ForwardScratch;
    use ascend_vit::{PrecisionPlan, VitConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A tiny controllable backend for registry unit tests: explicit
    /// resident size, an optional warm gate (blocks `resident_bytes`
    /// until opened, which stalls the warmer outside the registry lock),
    /// and a deterministic `forward_one`.
    struct TinyBackend {
        cfg: VitConfig,
        plan: PrecisionPlan,
        bytes: usize,
        gate: Option<(Mutex<bool>, Condvar)>,
        resident_calls: AtomicUsize,
    }

    impl TinyBackend {
        fn new(bytes: usize) -> Self {
            let cfg = VitConfig {
                image: 8,
                patch: 4,
                dim: 16,
                layers: 1,
                heads: 2,
                classes: 2,
                ..Default::default()
            };
            TinyBackend {
                cfg,
                plan: PrecisionPlan::fp(),
                bytes,
                gate: None,
                resident_calls: AtomicUsize::new(0),
            }
        }

        fn gated(bytes: usize) -> Self {
            let mut b = Self::new(bytes);
            b.gate = Some((Mutex::new(false), Condvar::new()));
            b
        }

        fn open_gate(&self) {
            // Poison-recovery, not unwrap: if a test thread panics while
            // holding the gate, recovering keeps the failure singular
            // instead of cascading PoisonError panics through every
            // other waiter (the gate payload is a plain bool, so the
            // poisoned state is still coherent).
            if let Some((lock, cv)) = &self.gate {
                let mut open = match lock.lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                *open = true;
                cv.notify_all();
            }
        }
    }

    impl InferenceBackend for TinyBackend {
        fn name(&self) -> &str {
            "tiny"
        }
        fn vit_config(&self) -> &VitConfig {
            &self.cfg
        }
        fn plan(&self) -> &PrecisionPlan {
            &self.plan
        }
        fn resident_bytes(&self) -> usize {
            self.resident_calls.fetch_add(1, Ordering::SeqCst);
            if let Some((lock, cv)) = &self.gate {
                let open = match lock.lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                let open = match cv.wait_while(open, |open| !*open) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                drop(open);
            }
            self.bytes
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
            let sum: f32 = patches.iter().sum();
            Ok(vec![sum, -sum])
        }
    }

    fn serve_cfg() -> ServeConfig {
        ServeConfig {
            workers: 1,
            micro_batch: 1,
            queue_depth: 0,
        }
    }

    fn registry(budget: usize) -> ModelRegistry {
        ModelRegistry::new(RegistryConfig {
            memory_budget_bytes: budget,
            ..Default::default()
        })
    }

    fn shared_spec(name: &str, bytes: usize) -> ModelSpec {
        ModelSpec::shared(name, Arc::new(TinyBackend::new(bytes))).serve(serve_cfg())
    }

    #[test]
    fn names_are_validated_and_unique() {
        let reg = registry(0);
        for bad in ["", "has space", "sla/sh", "q?", &"x".repeat(65)] {
            let err = reg
                .register(ModelSpec::shared(bad, Arc::new(TinyBackend::new(1))))
                .unwrap_err();
            assert!(
                matches!(err, ScError::InvalidParam { name: "model", .. }),
                "{bad:?}: {err}"
            );
        }
        reg.register(shared_spec("ok-model.v1_2", 1)).unwrap();
        let dup = reg.register(shared_spec("ok-model.v1_2", 1)).unwrap_err();
        assert!(matches!(dup, ScError::InvalidParam { .. }), "{dup}");
    }

    #[test]
    fn unknown_model_is_a_typed_error() {
        let reg = registry(0);
        let err = reg.acquire("ghost").map(|_| ()).unwrap_err();
        assert_eq!(
            err,
            ScError::UnknownModel {
                model: "ghost".into()
            }
        );
        assert_eq!(reg.state("ghost"), None);
        assert!(!reg.evict("ghost"));
    }

    #[test]
    fn acquire_warms_lazily_and_reuses_the_handle() {
        let reg = registry(0);
        reg.register(shared_spec("m", 128)).unwrap();
        assert_eq!(reg.state("m"), Some(ModelState::Cold));
        assert!(reg.peek("m").is_none(), "peek must not warm");
        assert_eq!(reg.state("m"), Some(ModelState::Cold));

        let h1 = reg.acquire("m").unwrap();
        assert_eq!(reg.state("m"), Some(ModelState::Warm));
        assert_eq!(h1.resident_bytes(), 128);
        assert_eq!(reg.resident_bytes(), 128);
        assert_eq!(reg.loads_total("m"), Some(1));

        let h2 = reg.acquire("m").unwrap();
        assert!(
            Arc::ptr_eq(&h1, &h2),
            "second acquire must reuse the warm handle"
        );
        assert_eq!(reg.loads_total("m"), Some(1), "no reload on a warm hit");
        assert!(reg.peek("m").is_some());
    }

    #[test]
    fn lru_eviction_follows_interleaved_access_order() {
        let reg = registry(200);
        for name in ["a", "b", "c"] {
            reg.register(shared_spec(name, 100)).unwrap();
        }
        reg.acquire("a").unwrap();
        reg.acquire("b").unwrap();
        // Touch `a` so `b` becomes the LRU, then warm `c`: `b` must go.
        reg.acquire("a").unwrap();
        reg.acquire("c").unwrap();
        assert_eq!(reg.state("a"), Some(ModelState::Warm));
        assert_eq!(reg.state("b"), Some(ModelState::Cold));
        assert_eq!(reg.state("c"), Some(ModelState::Warm));
        assert_eq!(reg.evictions_total("b"), Some(1));
        assert_eq!(reg.resident_bytes(), 200);

        // Re-warm `b`: now `a` (older tick than `c`) is evicted.
        reg.acquire("b").unwrap();
        assert_eq!(reg.state("a"), Some(ModelState::Cold));
        assert_eq!(reg.loads_total("b"), Some(2), "re-warm is a second load");
        assert!(reg.resident_bytes() <= 200);
    }

    #[test]
    fn a_model_bigger_than_the_budget_is_a_typed_error() {
        let reg = registry(200);
        reg.register(shared_spec("small", 150)).unwrap();
        reg.register(shared_spec("huge", 300)).unwrap();
        reg.acquire("small").unwrap();
        let err = reg.acquire("huge").map(|_| ()).unwrap_err();
        assert_eq!(
            err,
            ScError::BudgetExceeded {
                needed: 300,
                budget: 200
            }
        );
        // The failed warm must not leave the slot wedged in Warming, and
        // the small model was sacrificed to try to make room.
        assert_eq!(reg.state("huge"), Some(ModelState::Cold));
        let err2 = reg.acquire("huge").map(|_| ()).unwrap_err();
        assert!(matches!(err2, ScError::BudgetExceeded { .. }));
        // The small model can come back.
        reg.acquire("small").unwrap();
        assert_eq!(reg.state("small"), Some(ModelState::Warm));
    }

    #[test]
    fn models_sharing_a_backend_are_charged_once() {
        let backend: Arc<dyn InferenceBackend> = Arc::new(TinyBackend::new(100));
        // Budget admits one 100-byte model; both fit because they share.
        let reg = registry(150);
        reg.register(ModelSpec::shared("a", Arc::clone(&backend)).serve(serve_cfg()))
            .unwrap();
        reg.register(ModelSpec::shared("b", Arc::clone(&backend)).serve(serve_cfg()))
            .unwrap();
        let ha = reg.acquire("a").unwrap();
        let hb = reg.acquire("b").unwrap();
        assert!(std::ptr::addr_eq(
            ha.session().backend(),
            hb.session().backend()
        ));
        assert_eq!(
            reg.resident_bytes(),
            100,
            "shared backend must be counted once"
        );
        assert_eq!(reg.state("a"), Some(ModelState::Warm));
        assert_eq!(reg.state("b"), Some(ModelState::Warm));
    }

    #[test]
    fn explicit_evict_drops_residency_and_rewarm_reloads() {
        let reg = registry(0);
        reg.register(shared_spec("m", 64)).unwrap();
        let handle = reg.acquire("m").unwrap();
        assert!(reg.evict("m"));
        assert!(!reg.evict("m"), "already cold");
        assert_eq!(reg.state("m"), Some(ModelState::Cold));
        assert_eq!(reg.resident_bytes(), 0);
        assert_eq!(reg.evictions_total("m"), Some(1));
        // The caller's handle survives eviction.
        assert_eq!(handle.resident_bytes(), 64);
        reg.acquire("m").unwrap();
        assert_eq!(reg.loads_total("m"), Some(2));
    }

    #[test]
    fn concurrent_cold_acquires_are_single_flight() {
        let backend = Arc::new(TinyBackend::gated(32));
        let reg = Arc::new(registry(0));
        reg.register(
            ModelSpec::shared("m", Arc::clone(&backend) as Arc<dyn InferenceBackend>)
                .serve(serve_cfg()),
        )
        .unwrap();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || reg.acquire("m").map(|h| Arc::as_ptr(&h) as usize))
            })
            .collect();
        // The warmer is parked on the gate inside `resident_bytes`; every
        // other thread must be waiting on the condvar, not loading.
        backend.open_gate();
        let ptrs: Vec<_> = threads
            .into_iter()
            .map(|t| t.join().unwrap().unwrap())
            .collect();
        assert!(
            ptrs.windows(2).all(|w| w[0] == w[1]),
            "all acquires share one handle"
        );
        assert_eq!(
            reg.loads_total("m"),
            Some(1),
            "exactly one flight warms the model"
        );
        assert_eq!(
            backend.resident_calls.load(Ordering::SeqCst),
            1,
            "only the single warmer touched the backend"
        );
    }

    #[test]
    fn failed_warm_resets_to_cold_and_reports_not_found() {
        let reg = registry(0);
        reg.register(
            ModelSpec::artifact("missing", "/nonexistent/ascend/engine.sceng").serve(serve_cfg()),
        )
        .unwrap();
        let err = reg.acquire("missing").map(|_| ()).unwrap_err();
        assert!(
            matches!(
                err,
                ScError::Io {
                    not_found: true,
                    ..
                }
            ),
            "got {err}"
        );
        assert_eq!(
            reg.state("missing"),
            Some(ModelState::Cold),
            "slot must not wedge in Warming"
        );
        // Retry surfaces the same typed error, not a hang.
        let err2 = reg.acquire("missing").map(|_| ()).unwrap_err();
        assert!(matches!(
            err2,
            ScError::Io {
                not_found: true,
                ..
            }
        ));
    }

    #[test]
    fn metrics_render_labels_every_model() {
        let reg = registry(512);
        reg.register(shared_spec("alpha", 96)).unwrap();
        reg.register(shared_spec("beta", 128)).unwrap();
        reg.acquire("alpha").unwrap();
        let text = reg.metrics_render();
        assert!(
            text.contains("ascend_model_state{model=\"alpha\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("ascend_model_state{model=\"beta\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("ascend_model_resident_bytes{model=\"alpha\"} 96"),
            "{text}"
        );
        assert!(
            text.contains("ascend_model_loads_total{model=\"alpha\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("ascend_model_evictions_total{model=\"alpha\"} 0"),
            "{text}"
        );
        assert!(text.contains("ascend_registry_resident_bytes 96"), "{text}");
        assert!(text.contains("ascend_registry_budget_bytes 512"), "{text}");
        assert!(text.contains("ascend_registry_models 2"), "{text}");
    }

    #[test]
    fn a_spec_without_serve_warms_with_the_bounded_default_queue() {
        let reg = registry(0);
        reg.register(ModelSpec::shared("m", Arc::new(TinyBackend::new(8))))
            .unwrap();
        let handle = reg.acquire("m").unwrap();
        let pool = handle.session().runner().unwrap();
        assert_eq!(pool.queue_capacity(), 4 * pool.workers());
        assert!(pool.queue_capacity() > 0, "the default queue is bounded");
        let spec = ModelSpec::artifact("a", "/nonexistent/ascend/engine.sceng");
        assert_eq!(spec.serve, ServeConfig::default().with_bounded_queue());
    }

    #[test]
    fn session_sources_serve_on_the_callers_own_pool() {
        let session = Arc::new(
            Session::from_shared_backend(Arc::new(TinyBackend::new(48)), serve_cfg()).unwrap(),
        );
        let other = ServeConfig {
            workers: 3,
            micro_batch: 2,
            queue_depth: 9,
        };
        let spec = ModelSpec::session("default", Arc::clone(&session)).serve(other);
        assert_eq!(
            spec.serve,
            serve_cfg(),
            "the spec's pool shape is the session's"
        );
        let reg = registry(0);
        reg.register(spec).unwrap();
        let caller_pool = session.runner().unwrap();
        // Warming serves the session as-is on its one pool; eviction drops
        // only the registry's reference, and a re-warm picks it back up.
        for load in 1..=2 {
            let handle = reg.acquire("default").unwrap();
            assert!(
                std::ptr::eq(handle.session(), &*session),
                "served as-is, not rebuilt"
            );
            assert!(
                std::ptr::eq(handle.session().runner().unwrap(), caller_pool),
                "one pool"
            );
            assert_eq!(
                (reg.resident_bytes(), reg.loads_total("default")),
                (48, Some(load))
            );
            assert!(reg.evict("default"));
        }
    }

    #[test]
    fn states_reports_registration_order() {
        let reg = registry(0);
        reg.register(shared_spec("z", 1)).unwrap();
        reg.register(shared_spec("a", 1)).unwrap();
        reg.acquire("a").unwrap();
        let states = reg.states();
        assert_eq!(
            states,
            vec![
                ("z".to_string(), ModelState::Cold),
                ("a".to_string(), ModelState::Warm)
            ]
        );
        assert_eq!(reg.warm_handles().len(), 1);
        assert_eq!(reg.warm_handles()[0].name(), "a");
    }
}
