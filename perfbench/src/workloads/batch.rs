//! `batch-m65`: a closed loop in process. One client thread keeps
//! [`BATCH_OUTSTANDING`] requests of [`BATCH_IMAGES`] images outstanding on
//! a `Session`'s `ServePool`, at the paper's geometry (m = 65), where the
//! engine's softmax dominates and no HTTP is involved.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ascend::serve::{JobTiming, ServeRequest};
use ascend::{InferenceBackend, Session, StageStats};
use ascend_tensor::Tensor;

use super::*;
use crate::models::{Images, Recipe, CLASSES, M65};
use crate::rng::mix;
use crate::stats::Tail;
use crate::trace::Span;

/// `batch-m65`: images per request.
const BATCH_IMAGES: usize = 2;
/// `batch-m65`: requests the client keeps outstanding.
const BATCH_OUTSTANDING: usize = 4;
/// `batch-m65`: requests compared bit for bit (a seeded subset).
const BATCH_CHECK_CAP: usize = 24;
/// `batch-m65`: roughly one request in this many is checked.
const BATCH_CHECK_EVERY: u64 = 8;

/// A lazily generated stream of distinct seeded images.
struct Feed<'a> {
    recipe: &'a Recipe,
    seed: u64,
    stream: u64,
    block: Option<Images>,
    pos: usize,
}

const FEED_BLOCK: usize = 64;

impl<'a> Feed<'a> {
    fn new(recipe: &'a Recipe, seed: u64, stream: u64) -> Self {
        Feed {
            recipe,
            seed,
            stream,
            block: None,
            pos: FEED_BLOCK,
        }
    }

    /// The next `k` images (`k ≤ FEED_BLOCK`): patches and labels.
    fn take(&mut self, k: usize) -> (Vec<f32>, Vec<usize>) {
        if self.pos + k > FEED_BLOCK {
            self.stream += 1;
            self.block = Some(Images::generate(
                self.recipe,
                self.seed,
                self.stream,
                FEED_BLOCK,
            ));
            self.pos = 0;
        }
        let block = self.block.as_ref().expect("generated above");
        let out = (
            block.slice(self.pos, self.pos + k).to_vec(),
            block.labels[self.pos..self.pos + k].to_vec(),
        );
        self.pos += k;
        out
    }
}

/// One `batch-m65` phase's raw results.
#[derive(Default)]
struct BatchPhase {
    latencies: Vec<f64>,
    timings: Vec<JobTiming>,
    images: usize,
    correct_top1: usize,
    attempted: u64,
    failed: u64,
    /// `(patches, logits)` of the checked subset.
    checks: Vec<(Vec<f32>, Vec<f32>)>,
    spans: Vec<Span>,
    /// Time zero to the last response inside the measured window.
    window: Duration,
}

/// A submitted `batch-m65` request awaiting collection.
struct Pending {
    id: u64,
    submitted: Instant,
    patches: Vec<f32>,
    labels: Vec<usize>,
    handle: ascend::ServeHandle,
}

fn batch_loop(
    session: &Session,
    seed: u64,
    stream: u64,
    seconds: f64,
    check: bool,
) -> Result<BatchPhase, String> {
    let pool = session.runner().map_err(err("pool"))?;
    let mut feed = Feed::new(&M65, seed, stream);
    let mut c = BatchPhase::default();
    let mut inflight: VecDeque<Pending> = VecDeque::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut next_id = 0u64;
    loop {
        let now = Instant::now();
        while now < deadline && inflight.len() < BATCH_OUTSTANDING {
            let (patches, labels) = feed.take(BATCH_IMAGES);
            let tensor = Tensor::from_vec(
                patches.clone(),
                &[
                    BATCH_IMAGES * M65.vit().num_patches(),
                    M65.vit().patch_dim(),
                ],
            );
            let submitted = Instant::now();
            let handle = pool
                .submit(ServeRequest::new(tensor, BATCH_IMAGES))
                .map_err(err("submit"))?;
            c.attempted += 1;
            inflight.push_back(Pending {
                id: next_id,
                submitted,
                patches,
                labels,
                handle,
            });
            next_id += 1;
        }
        let Some(Pending {
            id,
            submitted,
            patches,
            labels,
            handle,
        }) = inflight.pop_front()
        else {
            break;
        };
        let result = handle.collect();
        let done = Instant::now();
        let (logits, timing) = match result {
            Ok(ok) => ok,
            Err(_) => {
                c.failed += 1;
                continue;
            }
        };
        if done <= deadline {
            c.window = done - start;
            c.latencies.push(ms(done - submitted));
            c.timings.push(timing);
            c.images += BATCH_IMAGES;
            let preds = argmax_rows(logits.data(), CLASSES);
            c.correct_top1 += preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
            let q_end = submitted + timing.queue_wait;
            c.spans
                .push(Span::new(id, "client", "submit_collect", submitted, done));
            c.spans
                .push(Span::new(id, "serve", "queue_wait", submitted, q_end));
            c.spans.push(Span::new(
                id,
                "serve",
                "service",
                q_end,
                q_end + timing.service,
            ));
        }
        if check
            && c.checks.len() < BATCH_CHECK_CAP
            && mix(seed, id).is_multiple_of(BATCH_CHECK_EVERY)
        {
            c.checks.push((patches, logits.data().to_vec()));
        }
    }
    Ok(c)
}

/// Compares `(patches, logits)` pairs with the serial forward of
/// `backend`, returning `(checked, mismatched)`.
fn check_serial(
    backend: &dyn InferenceBackend,
    pairs: &[(Vec<f32>, Vec<f32>)],
) -> Result<(u64, u64), String> {
    let cfg = backend.vit_config();
    let per_image = cfg.num_patches() * cfg.patch_dim();
    let mut mismatched = 0;
    for (patches, logits) in pairs {
        let images = patches.len() / per_image;
        let tensor = Tensor::from_vec(
            patches.clone(),
            &[images * cfg.num_patches(), cfg.patch_dim()],
        );
        let want = backend
            .forward(&tensor, images)
            .map_err(err("serial forward"))?;
        let same = want.data().len() == logits.len()
            && want
                .data()
                .iter()
                .zip(logits)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            mismatched += 1;
        }
    }
    Ok((pairs.len() as u64, mismatched))
}

pub(super) fn run(cfg: &RunConfig, cache: &Path, out: &mut RunResult) -> Result<(), String> {
    let ckpt = M65.checkpoint(cache);
    out.param(
        "model",
        "vit-m65: 32x32 images, patch 4, m = 65, dim 32, 2 layers, 2 heads",
    );
    out.param("loop", "closed, in process: ServePool submit/collect");
    out.param("images_per_request", BATCH_IMAGES);
    out.param("outstanding_requests", BATCH_OUTSTANDING);
    let first = Images::generate(&M65, cfg.seed, STREAM_SETUP, BATCH_IMAGES);
    let mut reps = Vec::new();
    let mut session = None;
    let mut first_pairs = Vec::new();
    for _ in 0..setup_reps(M65.m()) {
        drop(session.take());
        let t0 = Instant::now();
        let s = session_from(&ckpt, None)?;
        let t1 = Instant::now();
        let pool = s.runner().map_err(err("pool"))?;
        let t2 = Instant::now();
        let (logits, _) = pool
            .submit(ServeRequest::new(first.patches.clone(), BATCH_IMAGES))
            .and_then(|h| h.collect())
            .map_err(err("first request"))?;
        let t3 = Instant::now();
        reps.push(SetupTimes {
            compile: t1 - t0,
            pool: t2 - t1,
            bind: Duration::ZERO,
            first: t3 - t2,
        });
        first_pairs.push((first.patches.data().to_vec(), logits.data().to_vec()));
        out.attempted += 1;
        session = Some(s);
    }
    record_setup(out, &reps);
    let session = session.ok_or("no session")?;

    batch_loop(
        &session,
        cfg.seed,
        phase(STREAM_WARMUP, false),
        WARMUP.as_secs_f64(),
        false,
    )?;
    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let c = batch_loop(
        &session,
        cfg.seed,
        phase(STREAM_IMAGES, false),
        seconds,
        true,
    )?;
    out.attempted += c.attempted;
    out.failed += c.failed;
    out.set(
        "images_per_s",
        c.images as f64 / c.window.as_secs_f64().max(1e-9),
    );
    out.set("top1_acc", c.correct_top1 as f64 / c.images.max(1) as f64);
    out.set(
        "ok_ratio",
        c.latencies.len() as f64 / (c.latencies.len() as u64 + c.failed).max(1) as f64,
    );
    out.param("images_served", c.images);
    record_latency(out, &c.latencies);
    let mut pairs = c.checks;
    pairs.extend(first_pairs);
    let (checked, mismatched) = check_serial(session.backend(), &pairs)?;
    out.checked += checked;
    out.mismatched += mismatched;
    out.failed += mismatched;
    out.param("checked_requests", checked);
    out.param("checked_subset", format!("about 1 in {BATCH_CHECK_EVERY} requests by seeded hash, at most {BATCH_CHECK_CAP}, plus every set-up response"));

    if cfg.trace {
        let untraced_p50 = Tail::of(&c.latencies).p50;
        drop(session);
        let stats = Arc::new(StageStats::new());
        let traced_session = session_from(&ckpt, Some(Arc::clone(&stats)))?;
        batch_loop(
            &traced_session,
            cfg.seed,
            phase(STREAM_WARMUP, true),
            WARMUP.as_secs_f64(),
            false,
        )?;
        let t = batch_loop(
            &traced_session,
            cfg.seed,
            phase(STREAM_IMAGES, true),
            seconds,
            true,
        )?;
        out.attempted += t.attempted;
        out.failed += t.failed;
        let (checked, mismatched) = check_serial(traced_session.backend(), &t.checks)?;
        out.checked += checked;
        out.mismatched += mismatched;
        out.failed += mismatched;
        record_engine(out, &stats);
        out.set(
            "trace.overhead_ms.p50",
            Tail::of(&t.latencies).p50 - untraced_p50,
        );
        let q: Vec<f64> = t.timings.iter().map(|j| ms(j.queue_wait)).collect();
        let s: Vec<f64> = t.timings.iter().map(|j| ms(j.service)).collect();
        let (qt, st) = (Tail::of(&q), Tail::of(&s));
        out.set("serve.queue_wait_ms.p50", qt.p50);
        out.set("serve.queue_wait_ms.p95", qt.p95);
        out.set("serve.service_ms.p50", st.p50);
        out.set("serve.service_ms.p95", st.p95);
        let busy: f64 = s.iter().sum::<f64>() / 1e3;
        out.set(
            "serve.busy_frac",
            busy / (WORKERS as f64 * t.window.as_secs_f64()),
        );
        let engine_ms = out.metrics.get("engine.forward_us").copied().unwrap_or(0.0) / 1e3
            * BATCH_IMAGES as f64;
        SelfTimes {
            requests: t.latencies.len(),
            latency: t.latencies.iter().sum(),
            gen: 0.0,
            queue: q.iter().sum(),
            service: s.iter().sum(),
            engine: engine_ms * t.latencies.len() as f64,
        }
        .record(out, "request id = submit order; queue/service from each handle's JobTiming; engine = mean instrumented forward × images");
        record_checkpoint_io(out, &ckpt, setup_reps(M65.m()))?;
        out.note("http, registry and gen: not on this workload's path (in-process closed loop), reported as 0");
        out.epoch = Some(t.spans.first().map_or_else(Instant::now, |s| s.start));
        out.spans = t.spans;
    }
    Ok(())
}
