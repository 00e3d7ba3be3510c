//! # ascend — end-to-end stochastic-computing acceleration of ViT
//!
//! The co-design core of the ASCEND reproduction (DATE 2024,
//! arXiv:2402.12820), tying the circuit level and the network level
//! together:
//!
//! * [`pipeline`] — the **two-stage training pipeline** (paper §V, Fig. 6):
//!   progressive quantization FP → W16-A16-R16 → W16-A2-R16 → W2-A2-R16
//!   with per-step knowledge distillation, then approximate-softmax-aware
//!   fine-tuning. Regenerates the rows of Table V.
//! * [`backend`] — the **execution contract**: the [`InferenceBackend`]
//!   trait every consumer codes against, with the SC-exact engine, the
//!   fake-quantized float reference ([`backend::RefEngine`]), and the
//!   composable fault-injection decorator
//!   ([`backend::FaultInjectingBackend`]) as its implementations.
//! * [`session`] — the **[`Session`] facade**: one builder for the whole
//!   load → infer → serve flow, with the backend chosen at runtime
//!   ([`BackendKind`]).
//! * [`engine`] — the **end-to-end SC inference engine**: runs the trained
//!   low-precision ViT with thermometer-coded arithmetic — gate-assisted SI
//!   GELU blocks, the iterative approximate softmax block, and BN affines
//!   folded into scale factors.
//! * [`accelerator`] — the **accelerator area model** (Table VI): the
//!   compute arrays plus `k` parallel softmax blocks, costed with
//!   [`sc_hw`]'s analytic synthesis model.
//! * [`serve`] — the **parallel batched serving runtime**: a persistent
//!   [`ServePool`] of long-lived workers pulls requests off a bounded
//!   queue, sharing the immutable compiled engine, bit-for-bit identical
//!   to the serial path.
//! * [`artifact`] — **persisted engine snapshots**: `ScEngine::save` /
//!   `ScEngine::load` / `ScEngine::compile_from_checkpoint` over the
//!   [`ascend_io`] container, so serving processes start from artifact
//!   files instead of retraining (train-once / serve-many).
//! * [`fixture`] — the shared train-or-load helper for tests, benches,
//!   and examples, backed by cached checkpoints under `target/`.
//! * [`report`] — table formatting shared by the benchmark harness.
//!
//! ## Quickstart
//!
//! ```no_run
//! use ascend::pipeline::{Pipeline, PipelineConfig};
//!
//! // A miniature run of the full two-stage pipeline (Table V).
//! let cfg = PipelineConfig::smoke_test();
//! let mut pipeline = Pipeline::new(cfg);
//! let report = pipeline.run();
//! println!("{}", report.table());
//! ```
//!
//! For inference/serving, start from [`Session`] instead:
//!
//! ```no_run
//! use ascend::{BackendKind, Session};
//! # fn demo() -> Result<(), sc_core::ScError> {
//! let session = Session::builder()
//!     .artifact("model.ckpt")
//!     .backend(BackendKind::Sc)
//!     .workers(0) // auto
//!     .build()?;
//! # Ok(()) }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod accelerator;
pub mod artifact;
pub mod backend;
pub mod engine;
pub mod fixture;
pub mod instrument;
#[cfg(test)]
mod oracle;
pub mod pipeline;
pub mod report;
pub mod serve;
pub mod session;

pub use accelerator::{AcceleratorConfig, AcceleratorModel};
pub use backend::{FaultInjectingBackend, InferenceBackend, RefEngine};
pub use engine::{EngineConfig, ForwardScratch, ScEngine};
pub use instrument::{InstrumentedBackend, StageStats};
pub use pipeline::{Pipeline, PipelineConfig, PipelineReport};
pub use serve::{JobTiming, PoolObs, ServeConfig, ServeHandle, ServePool, ServeRequest};
pub use session::{load_backend, BackendKind, Session, SessionBuilder};
