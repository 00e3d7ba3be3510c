//! The [`Session`] facade: the one documented entry point for the whole
//! load → infer → serve flow.
//!
//! A session owns a backend chosen at runtime ([`BackendKind`]) behind the
//! [`InferenceBackend`] trait object, plus the serving configuration, so a
//! consumer writes the same five lines regardless of which point of the
//! accuracy/efficiency curve it wants to run:
//!
//! ```no_run
//! use ascend::{BackendKind, Session};
//! # fn demo(patches: &ascend_tensor::Tensor) -> Result<(), sc_core::ScError> {
//! let session = Session::builder()
//!     .artifact("model.ckpt")       // checkpoint or compiled engine artifact
//!     .backend(BackendKind::Sc)     // or BackendKind::Ref for the float oracle
//!     .workers(0)                   // 0 = auto
//!     .build()?;
//! let logits = session.serve_batch(patches, 64)?;
//! println!("{} served {:?}", session.backend().name(), logits.shape());
//! # Ok(()) }
//! ```
//!
//! The builder accepts either artifact kind: a **model checkpoint** can
//! compile any backend (the SC engine calibrates from the checkpoint's
//! stored calibration batch; the float reference needs no calibration),
//! while a **compiled engine artifact** loads the SC backend directly and
//! is rejected for the reference backend, which needs the model itself.
//!
//! Serving defaults are production-lean: unless
//! [`SessionBuilder::queue_depth`] says otherwise, the admission queue is
//! **bounded** at `4 × workers` so a traffic burst backpressures (or is
//! shed via [`ServePool::try_submit`]) instead of growing the queue until
//! the process dies. An unbounded queue is an explicit `.queue_depth(0)`
//! opt-in.

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use ascend_io::format::{ArtifactKind, ArtifactReader};
use ascend_io::ModelCheckpoint;
use ascend_tensor::Tensor;
use sc_core::ScError;

use crate::backend::{FaultInjectingBackend, InferenceBackend, RefEngine};
use crate::engine::{EngineConfig, ScEngine};
use crate::instrument::{InstrumentedBackend, StageStats};
use crate::serve::{ServeConfig, ServePool};

/// Which implementation of [`InferenceBackend`] a [`Session`] executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The exact bit-level stochastic-computing engine ([`ScEngine`]).
    #[default]
    Sc,
    /// The fake-quantized float reference ([`RefEngine`]).
    Ref,
}

impl BackendKind {
    /// The CLI-facing name (`"sc"` / `"ref"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            BackendKind::Sc => "sc",
            BackendKind::Ref => "ref",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for BackendKind {
    type Err = ScError;

    fn from_str(s: &str) -> Result<Self, ScError> {
        match s.to_ascii_lowercase().as_str() {
            "sc" => Ok(BackendKind::Sc),
            "ref" => Ok(BackendKind::Ref),
            other => Err(ScError::InvalidParam {
                name: "backend",
                reason: format!("unknown backend `{other}` (expected sc|ref)"),
            }),
        }
    }
}

/// Where the builder gets its network state from.
enum Source {
    /// An artifact file — sniffed at build time: checkpoint or engine.
    Path(PathBuf),
    /// An in-memory model checkpoint (tests and embedding use).
    Checkpoint(Box<ModelCheckpoint>),
    /// An already-compiled SC engine (adopt it as-is).
    Engine(Box<ScEngine>),
}

/// Builder for [`Session`]; see the [module docs](self) for the flow.
pub struct SessionBuilder {
    source: Option<Source>,
    kind: BackendKind,
    engine_config: EngineConfig,
    serve: ServeConfig,
    /// `None` until [`SessionBuilder::queue_depth`] is called; resolved to
    /// a **bounded** default (`4 × workers`) at build time. An unbounded
    /// queue is an explicit opt-in via `.queue_depth(0)` — never a
    /// default a network-facing session can stumble into.
    queue_depth: Option<usize>,
    fault: Option<(f64, u64)>,
    instrument: Option<Arc<StageStats>>,
}

impl SessionBuilder {
    fn new() -> Self {
        SessionBuilder {
            source: None,
            kind: BackendKind::Sc,
            engine_config: EngineConfig::default(),
            serve: ServeConfig::auto(),
            queue_depth: None,
            fault: None,
            instrument: None,
        }
    }

    /// Loads network state from an artifact file — either a model
    /// checkpoint (`ascend-cli train` output) or a compiled engine
    /// artifact (`ascend-cli compile` output); the kind is sniffed from
    /// the container header at [`SessionBuilder::build`] time.
    pub fn artifact(mut self, path: impl AsRef<Path>) -> Self {
        self.source = Some(Source::Path(path.as_ref().to_path_buf()));
        self
    }

    /// Uses an in-memory model checkpoint instead of a file.
    pub fn checkpoint(mut self, ckpt: ModelCheckpoint) -> Self {
        self.source = Some(Source::Checkpoint(Box::new(ckpt)));
        self
    }

    /// Adopts an already-compiled SC engine. An adopted engine can only
    /// serve [`BackendKind::Sc`] (the default): selecting any other kind —
    /// in either call order — makes [`SessionBuilder::build`] fail rather
    /// than silently serving SC.
    pub fn engine(mut self, engine: ScEngine) -> Self {
        self.source = Some(Source::Engine(Box::new(engine)));
        self
    }

    /// Selects the backend to execute (default: [`BackendKind::Sc`]).
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.kind = kind;
        self
    }

    /// Engine compilation knobs for the SC backend (softmax quadruple
    /// etc.); ignored when loading a pre-compiled engine artifact.
    pub fn engine_config(mut self, cfg: EngineConfig) -> Self {
        self.engine_config = cfg;
        self
    }

    /// Serving worker-thread count; `0` means auto (machine parallelism).
    pub fn workers(mut self, workers: usize) -> Self {
        self.serve.workers = workers;
        self
    }

    /// Images per serving work unit (see [`ServeConfig::micro_batch`]).
    pub fn micro_batch(mut self, micro_batch: usize) -> Self {
        self.serve.micro_batch = micro_batch;
        self
    }

    /// Bounded admission-queue depth. Unset, the session defaults to a
    /// **bounded** queue of `4 × workers` — a full queue then blocks
    /// [`ServePool::submit`] or sheds on [`ServePool::try_submit`] rather
    /// than growing without limit. Passing `0` explicitly opts into an
    /// unbounded queue (see [`ServeConfig::queue_depth`]); that is an OOM
    /// footgun for any network-facing pool, which is exactly why it
    /// cannot happen by default.
    pub fn queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = Some(queue_depth);
        self
    }

    /// Wraps the chosen backend in a [`FaultInjectingBackend`] flipping
    /// input bits with probability `rate` under `seed`. A rate of `0.0`
    /// still wraps (and is proven bit-identical to the bare backend in
    /// `tests/backend_parity.rs`).
    pub fn fault(mut self, rate: f64, seed: u64) -> Self {
        self.fault = Some((rate, seed));
        self
    }

    /// Wraps the chosen backend in an [`InstrumentedBackend`] folding
    /// per-stage timings into `stats` — the same `Arc` the caller keeps,
    /// so `/metrics` renders and `ascend-cli profile` tables read live
    /// numbers. Applied *outside* any fault decorator, so under `.fault`
    /// the instrumented forward measures the faulted computation.
    pub fn instrument(mut self, stats: Arc<StageStats>) -> Self {
        self.instrument = Some(stats);
        self
    }

    /// Resolves the source, compiles/loads the backend, and assembles the
    /// session.
    ///
    /// # Errors
    ///
    /// [`ScError::InvalidParam`] if no source was given, the serving config
    /// is malformed, the fault rate is out of range, compilation rejects
    /// the model, or the requested backend cannot be built from the given
    /// source (the reference backend needs a checkpoint, not a compiled
    /// engine artifact); [`ScError::Io`] / [`ScError::CorruptArtifact`]
    /// for unreadable or corrupt artifact files.
    pub fn build(self) -> Result<Session, ScError> {
        let source = self.source.ok_or_else(|| ScError::InvalidParam {
            name: "source",
            reason: "Session::builder() needs .artifact(path), .checkpoint(..), or .engine(..)"
                .into(),
        })?;
        // Resolve the admission queue: bounded by default; only an
        // explicit `.queue_depth(0)` opts out.
        let mut serve = self.serve.with_bounded_queue();
        if let Some(depth) = self.queue_depth {
            serve.queue_depth = depth;
        }
        // Validate the serving shape and fault parameters up front — a bad
        // knob must fail before the expensive load/compile, not after.
        serve.validate()?;
        if let Some((rate, _)) = self.fault {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(ScError::InvalidParam {
                    name: "rate",
                    reason: format!("bit-flip rate {rate} must be in [0, 1]"),
                });
            }
        }

        let kind = self.kind;
        let backend: Box<dyn InferenceBackend> = match source {
            Source::Engine(engine) => {
                if kind != BackendKind::Sc {
                    return Err(ScError::InvalidParam {
                        name: "backend",
                        reason: format!(
                            "an adopted pre-compiled engine can only serve the `sc` backend, \
                             but `{kind}` was requested"
                        ),
                    });
                }
                Box::new(*engine)
            }
            Source::Checkpoint(ckpt) => Self::compile(kind, &ckpt, self.engine_config)?,
            Source::Path(path) => load_backend(&path, kind, self.engine_config)?,
        };
        let backend: Box<dyn InferenceBackend> = match self.fault {
            None => backend,
            Some((rate, seed)) => Box::new(FaultInjectingBackend::new(backend, rate, seed)?),
        };
        let stats = self.instrument;
        let backend: Box<dyn InferenceBackend> = match &stats {
            None => backend,
            Some(s) => Box::new(InstrumentedBackend::with_stats(backend, Arc::clone(s))),
        };
        Ok(Session {
            backend: Arc::from(backend),
            serve,
            pool: OnceLock::new(),
            stats,
        })
    }

    fn compile(
        kind: BackendKind,
        ckpt: &ModelCheckpoint,
        cfg: EngineConfig,
    ) -> Result<Box<dyn InferenceBackend>, ScError> {
        Ok(match kind {
            BackendKind::Sc => Box::new(ScEngine::compile_from_checkpoint(ckpt, cfg)?),
            BackendKind::Ref => Box::new(RefEngine::compile_from_checkpoint(ckpt)?),
        })
    }
}

/// Loads (or compiles) the backend for `kind` from an artifact file — the
/// one artifact-to-backend path shared by [`SessionBuilder::build`] and
/// `ascend-registry`'s lazy warming. The artifact kind is sniffed from the
/// container header via a lazy [`ArtifactReader`], so only the sections
/// the decoder touches are read and CRC-checked.
///
/// # Errors
///
/// [`ScError::Io`] (with `not_found` set for a missing file) if the
/// artifact cannot be read, [`ScError::CorruptArtifact`] for a malformed
/// one, [`ScError::InvalidParam`] if the requested backend cannot be built
/// from the artifact (the reference backend needs a model checkpoint, not
/// a pre-compiled engine), plus compilation errors.
pub fn load_backend(
    path: &Path,
    kind: BackendKind,
    engine_config: EngineConfig,
) -> Result<Box<dyn InferenceBackend>, ScError> {
    let reader = ArtifactReader::open(path)?;
    match reader.kind() {
        ArtifactKind::Engine => match kind {
            BackendKind::Sc => Ok(Box::new(ScEngine::from_reader(&reader)?)),
            // The artifact itself is valid — only the backend request
            // cannot be satisfied from it — so this is a parameter error,
            // not corruption.
            BackendKind::Ref => Err(ScError::InvalidParam {
                name: "backend",
                reason: format!(
                    "the `{kind}` backend compiles from a model checkpoint; \
                     this artifact is a pre-compiled SC engine — pass the checkpoint instead"
                ),
            }),
        },
        ArtifactKind::ModelCheckpoint => {
            let ckpt = ModelCheckpoint::from_reader(&reader)?;
            SessionBuilder::compile(kind, &ckpt, engine_config)
        }
    }
}

/// A ready-to-serve inference session: one backend plus its serving
/// configuration and (created on first serve) its persistent
/// [`ServePool`]. See the [module docs](self) for the flow.
pub struct Session {
    backend: Arc<dyn InferenceBackend>,
    serve: ServeConfig,
    /// The session's one persistent worker pool, spawned lazily on the
    /// first serving call and reused by every later one — repeated serve
    /// rounds never re-spawn threads.
    pool: OnceLock<ServePool<dyn InferenceBackend>>,
    /// Per-stage profiling stats, present iff the session was built with
    /// [`SessionBuilder::instrument`].
    stats: Option<Arc<StageStats>>,
}

impl Session {
    /// Starts building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// Wraps an already-constructed backend — shared, so the caller keeps
    /// its own handle — as a session with the given serving configuration,
    /// exactly as `serve` says (no bounded-queue defaulting: embedders
    /// and tests state the queue shape they mean). This is the embedding
    /// hook the HTTP front-end's tests use to drive the serving stack
    /// with controllable (gated, panicking) backends.
    ///
    /// # Errors
    ///
    /// [`ScError::InvalidParam`] if `serve.micro_batch` is zero.
    pub fn from_shared_backend(
        backend: Arc<dyn InferenceBackend>,
        serve: ServeConfig,
    ) -> Result<Session, ScError> {
        serve.validate()?;
        Ok(Session {
            backend,
            serve,
            pool: OnceLock::new(),
            stats: None,
        })
    }

    /// The session's backend, as the trait object every consumer codes
    /// against.
    pub fn backend(&self) -> &dyn InferenceBackend {
        &*self.backend
    }

    /// The serving configuration the session was built with.
    pub fn serve_config(&self) -> &ServeConfig {
        &self.serve
    }

    /// The per-stage profiling stats, if the session was built with
    /// [`SessionBuilder::instrument`].
    pub fn stage_stats(&self) -> Option<&Arc<StageStats>> {
        self.stats.as_ref()
    }

    /// The session's persistent [`ServePool`], spawned on first use and
    /// shared by every subsequent serving call ([`Session::serve_batch`]
    /// included) — the worker threads live for the whole session. Use
    /// [`ServePool::submit`] on the returned pool for streaming serving;
    /// dropping the session shuts the pool down gracefully.
    ///
    /// # Errors
    ///
    /// [`ScError::InvalidParam`] for a malformed serving configuration
    /// (also rejected earlier, at [`SessionBuilder::build`]), or
    /// [`ScError::Io`] if the OS refuses to spawn a worker thread.
    pub fn runner(&self) -> Result<&ServePool<dyn InferenceBackend>, ScError> {
        if let Some(pool) = self.pool.get() {
            return Ok(pool);
        }
        let pool = ServePool::new(Arc::clone(&self.backend), self.serve)?;
        // A concurrent first call may have won the race; its pool is kept
        // and this one shuts down cleanly on drop.
        Ok(self.pool.get_or_init(|| pool))
    }

    /// Serial batched inference on the session's backend; see
    /// [`InferenceBackend::forward`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`InferenceBackend::forward`].
    pub fn forward(&self, patches: &Tensor, batch: usize) -> Result<Tensor, ScError> {
        self.backend().forward(patches, batch)
    }

    /// Top-1 accuracy on the session's backend; see
    /// [`InferenceBackend::accuracy`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`InferenceBackend::accuracy`].
    pub fn accuracy(&self, data: &ascend_vit::data::Dataset, batch: usize) -> Result<f32, ScError> {
        self.backend().accuracy(data, batch)
    }

    /// Serves one large batch through the session's persistent pool,
    /// returning `[images, classes]` logits in input order; see
    /// [`ServePool::run_batch`]. Repeated calls reuse the same long-lived
    /// workers, and per-request latency lands in the pool's
    /// [`ServePool::obs`] histograms.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ServePool::run_batch`].
    pub fn serve_batch(&self, patches: &Tensor, images: usize) -> Result<Tensor, ScError> {
        self.runner()?.run_batch(patches, images)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn backend_kind_parses_and_displays() {
        assert_eq!(BackendKind::from_str("sc").unwrap(), BackendKind::Sc);
        assert_eq!(BackendKind::from_str("REF").unwrap(), BackendKind::Ref);
        assert!(BackendKind::from_str("fpga").is_err());
        assert_eq!(BackendKind::Sc.to_string(), "sc");
        assert_eq!(BackendKind::Ref.to_string(), "ref");
        assert_eq!(BackendKind::default(), BackendKind::Sc);
    }

    #[test]
    fn builder_without_a_source_is_rejected() {
        let err = Session::builder().build().map(|_| ()).unwrap_err();
        assert!(
            matches!(err, ScError::InvalidParam { name: "source", .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn builder_rejects_zero_micro_batch_up_front() {
        let err = Session::builder()
            .artifact("/nonexistent.ckpt")
            .micro_batch(0)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(
                err,
                ScError::InvalidParam {
                    name: "micro_batch",
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn invalid_fault_rate_fails_before_the_artifact_is_touched() {
        // The path does not exist, so an Io error would mean the builder
        // loaded first; InvalidParam proves the rate check runs up front.
        let err = Session::builder()
            .artifact("/nonexistent/no-such.ckpt")
            .fault(-1.0, 7)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(err, ScError::InvalidParam { name: "rate", .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn adopted_engine_rejects_non_sc_backend() {
        // Shares the cached "artifact-unit" fixture of the artifact tests.
        let mut recipe = crate::fixture::FixtureRecipe::tiny("artifact-unit", 13);
        recipe.n_train = 32;
        recipe.n_test = 16;
        recipe.pre_epochs = 1;
        recipe.qat_epochs = 0;
        let (engine, _, _) =
            crate::fixture::engine_or_load(&recipe, EngineConfig::default()).expect("engine");
        let err = Session::builder()
            .engine(engine)
            .backend(BackendKind::Ref)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(
                err,
                ScError::InvalidParam {
                    name: "backend",
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    fn unit_engine() -> crate::engine::ScEngine {
        // Shares the cached "artifact-unit" fixture of the artifact tests.
        let mut recipe = crate::fixture::FixtureRecipe::tiny("artifact-unit", 13);
        recipe.n_train = 32;
        recipe.n_test = 16;
        recipe.pre_epochs = 1;
        recipe.qat_epochs = 0;
        let (engine, _, _) =
            crate::fixture::engine_or_load(&recipe, EngineConfig::default()).expect("engine");
        engine
    }

    #[test]
    fn builder_defaults_to_a_bounded_queue_scaled_to_workers() {
        let session = Session::builder()
            .engine(unit_engine())
            .workers(2)
            .build()
            .expect("session builds");
        // The production-lean default: 4 slots per worker, not unbounded.
        assert_eq!(session.runner().expect("pool").queue_capacity(), 8);
    }

    #[test]
    fn explicit_zero_queue_depth_opts_back_into_unbounded() {
        let session = Session::builder()
            .engine(unit_engine())
            .workers(2)
            .queue_depth(0)
            .build()
            .expect("session builds");
        assert_eq!(session.runner().expect("pool").queue_capacity(), 0);
    }

    #[test]
    fn shared_backend_session_takes_the_serve_config_literally() {
        let backend: Arc<dyn InferenceBackend> = Arc::new(unit_engine());
        let session = Session::from_shared_backend(
            Arc::clone(&backend),
            ServeConfig {
                workers: 1,
                micro_batch: 4,
                queue_depth: 3,
            },
        )
        .expect("session builds");
        // No defaulting on this path: the embedder's config is law.
        assert_eq!(session.runner().expect("pool").queue_capacity(), 3);
        let err = Session::from_shared_backend(
            backend,
            ServeConfig {
                workers: 1,
                micro_batch: 0,
                queue_depth: 3,
            },
        )
        .map(|_| ())
        .unwrap_err();
        assert!(
            matches!(
                err,
                ScError::InvalidParam {
                    name: "micro_batch",
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn missing_artifact_file_is_an_io_error() {
        // Satellite of the registry work: a plain file miss must surface
        // as a typed not-found Io error (HTTP 404), never as corruption.
        let err = Session::builder()
            .artifact("/nonexistent/no-such.ckpt")
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(
                err,
                ScError::Io {
                    not_found: true,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn load_backend_distinguishes_not_found_from_corruption() {
        let err = load_backend(
            Path::new("/nonexistent/no-such.sceng"),
            BackendKind::Sc,
            EngineConfig::default(),
        )
        .map(|_| ())
        .unwrap_err();
        assert!(
            matches!(
                err,
                ScError::Io {
                    not_found: true,
                    ..
                }
            ),
            "got {err:?}"
        );

        let dir = std::env::temp_dir().join(format!("ascend-loadbk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let garbage = dir.join("garbage.sceng");
        std::fs::write(&garbage, b"ASCNDARTthis is not a valid artifact").unwrap();
        let err = load_backend(&garbage, BackendKind::Sc, EngineConfig::default())
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(err, ScError::CorruptArtifact { .. }),
            "got {err:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
