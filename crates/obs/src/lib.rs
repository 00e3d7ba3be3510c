//! ascend-obs: the workspace's single observability and timing authority.
//!
//! Every other crate in the workspace is either *compute* (the SC kernels,
//! tensor ops, the engine forward) or *serving glue* (pool, HTTP front-end,
//! CLI). Compute must stay clock-free so outputs are bit-reproducible — the
//! workspace `clippy::disallowed_methods` lint denies `Instant::now()` there — yet the
//! serving layer has to answer "where did this request spend its time?".
//! This crate resolves the tension by concentrating all timing in one place:
//!
//! - [`metrics`] — lock-free metric primitives ([`Counter`], [`Gauge`],
//!   log2-bucketed [`Histogram`]) plus a named [`Registry`] that renders
//!   Prometheus text for `GET /metrics`. Update paths are single relaxed
//!   atomic ops; the registry mutex is touched only at registration and
//!   render time.
//! - [`trace`] — request tracing: a [`TraceId`] minted at admission flows
//!   through `ServePool` jobs; workers record queue-wait and service spans
//!   into a bounded [`TraceBuffer`] ring; [`chrome_json`] exports one or
//!   several rings as one chrome://tracing document via `GET /debug/trace`.
//! - [`stage`] — the clock-free [`StageObserver`] protocol. The engine's
//!   forward emits `enter`/`exit` events for each [`Stage`] (patch-embed,
//!   attention, softmax, GELU, MLP, head) without ever reading a clock;
//!   the [`StageTimer`] implementation here is the sanctioned place where
//!   those events become durations.
//!
//! Benchmarking lives outside this crate: the stand-alone `perfbench`
//! harness declared by `BENCHMARK.json` reads these metrics and traces.
//!
//! The crate is std-only, dependency-free, safe Rust (like every member,
//! under the workspace's `unsafe_code = "forbid"`), and held to the
//! panic-free workspace lints: a metrics update must never be able to take
//! down a worker thread.

// The one crate that reads the clock: every duration in the workspace is
// taken here, on the observer side of the kernels.
#![expect(
    clippy::disallowed_methods,
    reason = "ascend-obs is the timing authority; its clock reads feed metrics and traces, never the logits"
)]
#![warn(missing_docs)]

pub mod metrics;
pub mod stage;
pub mod trace;

pub use metrics::{Counter, Gauge, HistSnapshot, Histogram, Registry, HIST_BUCKETS};
pub use stage::{NoopObserver, Stage, StageObserver, StageTimer};
pub use trace::{chrome_json, Span, TraceBuffer, TraceId};
