//! The three workloads: how each sets up, drives and checks the program.
//!
//! * `batch-m65` (`batch.rs`) — closed loop in process on a `Session`'s
//!   `ServePool` (`submit` / `collect`), multi-image requests, the paper's
//!   geometry.
//! * `interactive-m5` (`http.rs`) — two HTTP keep-alive callers posting one
//!   distinct image per request to `POST /v1/infer` on the smoke model.
//! * `registry-churn` (`http.rs`) — the same callers against
//!   `POST /v1/models/{name}/infer`, three models under a byte budget that
//!   keeps only two warm.
//!
//! Every workload measures set-up (checkpoint on disk → first response)
//! several times and reports the median, warms up, measures for the
//! requested time, and then checks outputs outside the timed window
//! against a serial `InferenceBackend::forward` of the same inputs. A
//! traced run (`--trace 1`) spends the first half of its time untraced
//! and the second half on a freshly built, instrumented server; the
//! per-layer numbers come from the second half, and the difference in
//! median latency is the tracing overhead.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ascend::{Session, StageStats};
use ascend_obs::Stage;
use ascend_tensor::Tensor;

use crate::json::Value;
use crate::rng::{mix, SplitMix64};
use crate::stats::{median, Tail};
use crate::trace::Span;

mod batch;
mod http;

/// Set-ups measured per run (`setup_s` is their median): fewer where
/// one set-up compiles the m = 65 engine, more where set-up takes
/// milliseconds and host noise would otherwise dominate the median.
fn setup_reps(m: usize) -> usize {
    if m >= 65 {
        7
    } else {
        100
    }
}

/// The client's arrival after an HTTP server's `bind` returns: a seeded
/// pause of up to 5 ms, not counted in set-up time. The server's accept
/// loop polls every few milliseconds, so the first request waits for the
/// next poll; arriving at a random phase samples that wait uniformly
/// instead of racing the accept thread's start.
fn arrival_pause(seed: u64, rep: usize) -> Duration {
    Duration::from_secs_f64(
        0.005 * SplitMix64::new(mix(seed, STREAM_ARRIVAL + rep as u64)).next_f64(),
    )
}
/// Serving workers in every pool, and connections in every HTTP server
/// and client.
const WORKERS: usize = 2;
/// Warm-up before the measured window.
const WARMUP: Duration = Duration::from_secs(1);

/// Seed streams, so each input family is independent of the others.
const STREAM_THINK: u64 = 1;
const STREAM_MODELS: u64 = 2;
const STREAM_SETUP: u64 = 3;
const STREAM_WARMUP: u64 = 4;
const STREAM_ARRIVAL: u64 = 5;
const STREAM_IMAGES: u64 = 100;

/// The stream base of one phase of a run: warm-up or measured, untraced
/// or traced.
fn phase(stream: u64, traced: bool) -> u64 {
    (stream << 32) | (u64::from(traced) << 16)
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop in process, m = 65.
    BatchM65,
    /// HTTP callers, m = 5.
    InteractiveM5,
    /// HTTP callers against a churning model registry.
    RegistryChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::BatchM65,
        Workload::InteractiveM5,
        Workload::RegistryChurn,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchM65 => "batch-m65",
            Workload::InteractiveM5 => "interactive-m5",
            Workload::RegistryChurn => "registry-churn",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

/// The end-to-end metrics, in `BENCHMARK.json` order, with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("images_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("top1_acc", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of the traced run, with units. Every workload
/// reports every one; a layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("engine.forward_us", "us"),
    ("engine.patch_embed_us", "us"),
    ("engine.attention_us", "us"),
    ("engine.softmax_us", "us"),
    ("engine.gelu_us", "us"),
    ("engine.mlp_us", "us"),
    ("engine.head_us", "us"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p95", "ms"),
    ("serve.service_ms.p50", "ms"),
    ("serve.service_ms.p95", "ms"),
    ("serve.busy_frac", "ratio"),
    ("http.e2e_ms.p50", "ms"),
    ("http.e2e_ms.p95", "ms"),
    ("http.attributed_ms.p50", "ms"),
    ("http.unattributed_ms.p50", "ms"),
    ("http.unattributed_ms.p95", "ms"),
    ("http.coverage", "ratio"),
    ("http.matched", "ratio"),
    ("http.reconnects", "count"),
    ("http.status_503", "count"),
    ("registry.loads", "count"),
    ("registry.evictions", "count"),
    ("registry.hit_ratio", "ratio"),
    ("registry.resident_bytes_peak", "bytes"),
    ("io.artifact_load_ms", "ms"),
    ("io.artifact_load_ms.tiny-m5", "ms"),
    ("io.artifact_load_ms.small-m10", "ms"),
    ("io.artifact_load_ms.mid-m17", "ms"),
    ("setup.compile_ms", "ms"),
    ("setup.pool_ms", "ms"),
    ("setup.bind_ms", "ms"),
    ("setup.first_response_ms", "ms"),
    ("gen.lag_ms.p95", "ms"),
    ("gen.lag_ms.max", "ms"),
    ("gen.self_ms", "ms"),
    ("serve.queue_self_ms", "ms"),
    ("serve.service_self_ms", "ms"),
    ("engine.self_ms", "ms"),
    ("trace.unaccounted_share", "ratio"),
    ("trace.overhead_ms.p50", "ms"),
];

/// What one run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Requests sent (set-up requests included).
    pub attempted: u64,
    /// Requests that got no correct `200`: other statuses, socket errors
    /// and wrong bodies.
    pub failed: u64,
    /// Responses compared bit for bit with the serial forward.
    pub checked: u64,
    /// Compared responses that differed.
    pub mismatched: u64,
    /// Metric values by name.
    pub metrics: HashMap<&'static str, f64>,
    /// Workload parameters and sample counts for the provenance block.
    pub params: Vec<(String, Value)>,
    /// Human-readable notes and the per-layer self-time table.
    pub report: String,
    /// Spans of the traced phase.
    pub spans: Vec<Span>,
    /// Time zero of the spans.
    pub epoch: Option<Instant>,
}

impl RunResult {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn param(&mut self, key: &str, value: impl Into<Value>) {
        self.params.push((key.to_string(), value.into()));
    }

    fn note(&mut self, line: impl AsRef<str>) {
        self.report.push_str(line.as_ref());
        self.report.push('\n');
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Set-up failures (a model that does not load, a port that cannot be
/// bound), as text. Wrong outputs are not errors: they are counted.
pub fn run(cfg: &RunConfig, cache: &Path) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    out.param("workload", cfg.workload.name());
    out.param("seed", cfg.seed);
    out.param("seconds", cfg.seconds);
    out.param("trace", cfg.trace);
    out.param("workers", WORKERS);
    out.param(
        "tails",
        "nearest-rank p50 and p95 over raw per-request samples",
    );
    match cfg.workload {
        Workload::BatchM65 => batch::run(cfg, cache, &mut out)?,
        Workload::InteractiveM5 => http::interactive(cfg, cache, &mut out)?,
        Workload::RegistryChurn => http::churn(cfg, cache, &mut out)?,
    }
    out.set("peak_rss_mb", crate::host::peak_rss_mb());
    Ok(out)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn err(what: &str) -> impl Fn(sc_core::ScError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Wall time of each set-up step.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    compile: Duration,
    pool: Duration,
    bind: Duration,
    first: Duration,
}

impl SetupTimes {
    fn total(&self) -> Duration {
        self.compile + self.pool + self.bind + self.first
    }
}

/// Records the median of each set-up step.
fn record_setup(out: &mut RunResult, reps: &[SetupTimes]) {
    let med = |f: fn(&SetupTimes) -> Duration| {
        median(&reps.iter().map(|s| f(s).as_secs_f64()).collect::<Vec<_>>())
    };
    out.set("setup_s", med(SetupTimes::total));
    out.param("setup_reps", reps.len());
    out.set("setup.compile_ms", med(|s| s.compile) * 1e3);
    out.set("setup.pool_ms", med(|s| s.pool) * 1e3);
    out.set("setup.bind_ms", med(|s| s.bind) * 1e3);
    out.set("setup.first_response_ms", med(|s| s.first) * 1e3);
    let all: Vec<String> = reps
        .iter()
        .map(|s| format!("{:.4}", s.total().as_secs_f64()))
        .collect();
    out.note(format!("setup_s samples: [{}]", all.join(", ")));
}

/// The response body a correct server sends for `logits`: `u32 images`,
/// `u32 classes`, then the logits as little-endian `f32`s.
pub fn expected_body(logits: &Tensor, images: usize) -> Vec<u8> {
    let mut body = Vec::with_capacity(8 + logits.data().len() * 4);
    body.extend_from_slice(&(images as u32).to_le_bytes());
    body.extend_from_slice(&((logits.data().len() / images.max(1)) as u32).to_le_bytes());
    for v in logits.data() {
        body.extend_from_slice(&v.to_le_bytes());
    }
    body
}

/// The request body for `images` images: `u32 images`, `u32 values`,
/// then the patch values as little-endian `f32`s.
pub fn request_body(patches: &[f32], images: usize) -> Vec<u8> {
    let mut body = Vec::with_capacity(8 + patches.len() * 4);
    body.extend_from_slice(&(images as u32).to_le_bytes());
    body.extend_from_slice(&(patches.len() as u32).to_le_bytes());
    for v in patches {
        body.extend_from_slice(&v.to_le_bytes());
    }
    body
}

/// Argmax of each `classes`-wide row.
fn argmax_rows(values: &[f32], classes: usize) -> Vec<usize> {
    values
        .chunks(classes)
        .map(|row| {
            row.iter()
                .enumerate()
                .fold((0, f32::NEG_INFINITY), |best, (i, &v)| {
                    if v > best.1 {
                        (i, v)
                    } else {
                        best
                    }
                })
                .0
        })
        .collect()
}

/// The logits in a `200` body.
fn body_logits(body: &[u8]) -> Vec<f32> {
    body.get(8..)
        .unwrap_or(&[])
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect()
}

fn session_from(ckpt: &Path, stats: Option<Arc<StageStats>>) -> Result<Session, String> {
    let mut builder = Session::builder().artifact(ckpt).workers(WORKERS);
    if let Some(stats) = stats {
        builder = builder.instrument(stats);
    }
    builder.build().map_err(err("session"))
}

/// Per-stage means (µs per forward) from instrumented stats.
fn record_engine(out: &mut RunResult, stats: &StageStats) {
    let forwards = stats.forwards().max(1) as f64;
    let mean_us = |sum_ns: u64| sum_ns as f64 / 1e3 / forwards;
    out.set(
        "engine.forward_us",
        mean_us(stats.forward_snapshot().sum_ns),
    );
    for stage in Stage::ALL {
        let name = match stage {
            Stage::PatchEmbed => "engine.patch_embed_us",
            Stage::Attention => "engine.attention_us",
            Stage::Softmax => "engine.softmax_us",
            Stage::Gelu => "engine.gelu_us",
            Stage::Mlp => "engine.mlp_us",
            Stage::Head => "engine.head_us",
        };
        out.set(name, mean_us(stats.stage_snapshot(stage).sum_ns));
    }
    out.param("engine_forwards", stats.forwards());
}

/// Median wall time of `reps` calls of `load`, in ms.
fn median_load_ms<T>(
    reps: usize,
    mut load: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(load()?);
        times.push(ms(t.elapsed()));
    }
    Ok((median(&times), last.expect("at least one load")))
}

/// `io.artifact_load_ms` for a workload served from one checkpoint: the
/// checkpoint read through the public load path, outside the timed window.
fn record_checkpoint_io(out: &mut RunResult, ckpt: &Path, reps: usize) -> Result<(), String> {
    let (load, _) = median_load_ms(reps, || {
        ascend_io::ModelCheckpoint::load(ckpt).map_err(err("checkpoint"))
    })?;
    out.set("io.artifact_load_ms", load);
    out.note("io.artifact_load_ms: median of repeated ModelCheckpoint::load calls, outside the timed window");
    Ok(())
}

/// Records the end-to-end latency metrics from raw samples (ms).
fn record_latency(out: &mut RunResult, latencies: &[f64]) {
    let t = Tail::of(latencies);
    out.set("latency_p50_ms", t.p50);
    out.set("latency_p95_ms", t.p95);
    out.param("latency_samples", t.n);
}

/// Per-request mean self time of each layer, and the share of client
/// time no layer accounts for.
struct SelfTimes {
    requests: usize,
    latency: f64,
    gen: f64,
    queue: f64,
    service: f64,
    engine: f64,
}

impl SelfTimes {
    fn record(&self, out: &mut RunResult, attribution: &str) {
        let n = self.requests.max(1) as f64;
        let accounted = self.gen + self.queue + self.service;
        let unaccounted = (self.latency - accounted).max(0.0);
        out.set("gen.self_ms", self.gen / n);
        out.set("serve.queue_self_ms", self.queue / n);
        out.set(
            "serve.service_self_ms",
            (self.service - self.engine).max(0.0) / n,
        );
        out.set("engine.self_ms", self.engine / n);
        let share = if self.latency > 0.0 {
            unaccounted / self.latency
        } else {
            0.0
        };
        out.set("trace.unaccounted_share", share);
        out.note(format!(
            "per-layer self time, mean per request over {} traced requests ({attribution}):",
            self.requests
        ));
        let row = |name: &str, v: f64| {
            format!(
                "  {name:<26} {:>10.4} ms {:>6.1}%",
                v / n,
                if self.latency > 0.0 {
                    100.0 * v / self.latency
                } else {
                    0.0
                }
            )
        };
        out.note(row("client latency (total)", self.latency));
        out.note(row("gen (send lag)", self.gen));
        out.note(row("serve queue wait", self.queue));
        out.note(row(
            "serve service (self)",
            (self.service - self.engine).max(0.0),
        ));
        out.note(row("engine forward", self.engine));
        out.note(row("unaccounted (no layer)", unaccounted));
    }
}
