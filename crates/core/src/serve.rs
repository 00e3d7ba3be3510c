//! Parallel batched inference: the serving runtime over any
//! [`InferenceBackend`].
//!
//! ASCEND's accelerator is a throughput design — Table VI instantiates `k`
//! softmax blocks *in parallel* precisely so attention rows can be served
//! concurrently. This module gives the software model the same shape: a
//! persistent [`ServePool`] of long-lived worker threads fed by a bounded
//! channel-based work queue. A backend is immutable once compiled (`Sync`
//! is a supertrait of [`InferenceBackend`]), so workers share it through
//! one [`Arc`] — no cloning, no locking on the hot path.
//!
//! The pool is generic over `B: InferenceBackend`: the SC-exact engine,
//! the float reference, and any decorator stack
//! ([`crate::backend::FaultInjectingBackend`]) serve through the very same
//! workers.
//!
//! Three properties are hard contracts, not best efforts:
//!
//! * **Determinism** — every worker runs the same per-image
//!   [`InferenceBackend::forward_one`] loop the serial path runs, each
//!   request is served by exactly one worker, and results are reassembled
//!   in submission order, so parallel output is **bit-for-bit identical**
//!   to serial output for any worker count, request size, or pool age
//!   (`tests/serve_determinism.rs` proves it, including across repeated
//!   [`ServePool::run_batch`] calls on one pool).
//! * **Backpressure, blocking or shedding** — with a non-zero
//!   [`ServeConfig::queue_depth`] the work queue is a bounded channel and
//!   the caller picks the admission policy per call: once `queue_depth`
//!   requests are waiting, [`ServePool::submit`] *blocks* the submitter
//!   until a slot frees, while [`ServePool::try_submit`] *refuses* with a
//!   typed [`ScError::QueueFull`] and enqueues nothing — the building
//!   block a network front-end needs to shed load (`503`) instead of
//!   wedging its socket threads. Admitted requests are never dropped and
//!   never reordered, and [`ServePool::queued`] exposes the live queue
//!   depth as a gauge.
//! * **No head-of-line blocking** — there are no inter-request barriers:
//!   workers pull the next request the moment they finish the previous
//!   one, so one slow request occupies one worker while the rest of the
//!   pool keeps serving unrelated work.
//!
//! ```no_run
//! use ascend::serve::{ServeConfig, ServePool};
//! use std::sync::Arc;
//! # fn demo(engine: ascend::ScEngine, patches: &ascend_tensor::Tensor) {
//! let pool = ServePool::new(Arc::new(engine), ServeConfig::auto()).unwrap();
//! for _ in 0..3 {
//!     // Every round reuses the same long-lived workers.
//!     let logits = pool.run_batch(patches, 64).unwrap();
//!     println!("{:?}", logits.shape());
//! }
//! // Per-request latency lives in the pool's histograms.
//! let service = pool.obs().service().snapshot();
//! println!("{} requests, p95 ≤ {} ns", service.count(), service.percentile_ns(95.0));
//! pool.shutdown(); // graceful: close the queue, join the workers
//! # }
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ascend_obs::{Histogram, Registry, TraceBuffer, TraceId};
use ascend_tensor::Tensor;
use sc_core::ScError;

use crate::backend::{check_patch_count, InferenceBackend};

/// Spans retained by the pool's trace ring (two spans — queue-wait and
/// service — per request, so this covers the last ~2048 requests).
pub const TRACE_SPAN_CAPACITY: usize = 4096;

/// Runtime knobs of the [`ServePool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker-thread count; `0` resolves to the machine's
    /// [`std::thread::available_parallelism`]. The pool spawns exactly
    /// this many long-lived threads at construction and
    /// [`ServePool::workers`] reports the same number.
    pub workers: usize,
    /// Images per request when [`ServePool::run_batch`] carves a large
    /// batch; nothing else reads it. Smaller requests balance load better;
    /// larger ones amortize per-request bookkeeping. Must be at least 1.
    pub micro_batch: usize,
    /// Capacity of the pool's work queue, in requests. `0` means
    /// **unbounded**: [`ServePool::submit`] never blocks (and
    /// [`ServePool::try_submit`] never sheds) — memory is the only limit,
    /// which makes `0` an opt-in footgun for network-facing pools. Any
    /// other value bounds admission: once `queue_depth` requests are
    /// waiting beyond the ones workers already hold, `submit` blocks the
    /// caller until a worker frees a slot, while `try_submit` returns
    /// [`ScError::QueueFull`] immediately. Neither drops or reorders an
    /// admitted request.
    pub queue_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            micro_batch: 8,
            queue_depth: 0,
        }
    }
}

impl ServeConfig {
    /// Auto mode: worker count from the machine, default `micro_batch`,
    /// unbounded queue.
    pub fn auto() -> Self {
        Self::default()
    }

    /// This shape with the bounded admission queue every serving entry
    /// point (session, registry model, `serve --listen`) defaults to:
    /// `4 ×` [`Self::resolved_workers`] requests keeps every worker busy
    /// with headroom while capping the memory a burst can pin. Only an
    /// explicit `queue_depth: 0` opts out.
    pub fn with_bounded_queue(self) -> Self {
        ServeConfig {
            queue_depth: 4 * self.resolved_workers(),
            ..self
        }
    }

    /// Rejects a malformed shape.
    ///
    /// # Errors
    ///
    /// [`ScError::InvalidParam`] if `micro_batch` is zero.
    pub(crate) fn validate(&self) -> Result<(), ScError> {
        if self.micro_batch == 0 {
            return Err(ScError::InvalidParam {
                name: "micro_batch",
                reason: "micro_batch must be at least 1".into(),
            });
        }
        Ok(())
    }

    /// The effective worker count (`workers`, or the machine's available
    /// parallelism when `workers == 0`; always at least 1).
    ///
    /// The machine's count is looked up once per process and kept:
    /// [`std::thread::available_parallelism`] reads cgroup files on every
    /// call (tens of µs), and every `ScEngine::compile` asks for it. So a
    /// CPU quota or affinity change after the first lookup is not seen.
    pub fn resolved_workers(&self) -> usize {
        static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        if self.workers > 0 {
            self.workers
        } else {
            *CORES.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
        }
    }
}

/// One unit of serving work: a patch tensor holding `images` images.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Pre-extracted patches, `[images · num_patches, patch_dim]`.
    pub patches: Tensor,
    /// Number of images in `patches`.
    pub images: usize,
    /// Trace id minted at admission (the HTTP handler or CLI entry); when
    /// `None`, the pool mints one at submit so every job is attributable.
    pub trace: Option<TraceId>,
}

impl ServeRequest {
    /// Wraps a patch tensor as a request.
    pub fn new(patches: Tensor, images: usize) -> Self {
        ServeRequest {
            patches,
            images,
            trace: None,
        }
    }

    /// Tags the request with a trace id minted at admission, so the spans
    /// the pool records for it are attributable to the original request.
    pub fn with_trace(mut self, trace: TraceId) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// The two-way timing split of one served request.
///
/// `queue_wait` runs from admission (the queue `send`) to the moment a
/// worker claims the job; `service` is the time that worker spent in the
/// backend forward. Their sum is the pool-side request latency; a network
/// front-end's socket read, parsing and response write come on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobTiming {
    /// Admission → worker claim.
    pub queue_wait: Duration,
    /// Worker claim → reply (the backend forward).
    pub service: Duration,
}

impl JobTiming {
    /// Pool-side latency: `queue_wait + service`.
    pub fn total(&self) -> Duration {
        self.queue_wait.saturating_add(self.service)
    }
}

/// One queued unit of work: an owned request plus its reply channel and
/// the admission bookkeeping (trace id, submit instant) the worker needs
/// to attribute and split its timing.
struct Job {
    patches: Tensor,
    images: usize,
    trace: TraceId,
    submitted: Instant,
    reply: SyncSender<Served>,
}

/// What a worker sends back for one job.
struct Served {
    result: Result<Tensor, ScError>,
    timing: JobTiming,
}

/// Pool-owned observability state: the queue-wait/service histograms every
/// worker records into (rendered under `/metrics`) and the bounded span
/// ring behind `GET /debug/trace`.
///
/// Spans are recorded only for jobs a worker actually claimed — a request
/// refused at admission ([`ScError::QueueFull`]) never reaches the ring,
/// so shed traffic cannot leak spans.
pub struct PoolObs {
    registry: Registry,
    trace: TraceBuffer,
    queue_wait: Arc<Histogram>,
    service: Arc<Histogram>,
}

impl PoolObs {
    fn new() -> Self {
        let registry = Registry::new();
        let queue_wait = registry.histogram(
            "ascend_request_queue_wait_seconds",
            "Time a request spent admitted but unclaimed in the pool queue.",
        );
        let service = registry.histogram(
            "ascend_request_service_seconds",
            "Time a worker spent serving a request (backend forward only).",
        );
        PoolObs {
            registry,
            trace: TraceBuffer::new(TRACE_SPAN_CAPACITY),
            queue_wait,
            service,
        }
    }

    /// The bounded span ring (chrome://tracing export via
    /// [`TraceBuffer::to_chrome_json`]).
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// Queue-wait histogram across all served requests.
    pub fn queue_wait(&self) -> &Histogram {
        &self.queue_wait
    }

    /// Service-time histogram across all served requests.
    pub fn service(&self) -> &Histogram {
        &self.service
    }

    /// Prometheus text for the pool's histograms.
    pub fn render(&self) -> String {
        self.registry.render()
    }
}

/// The pool's submission side: bounded (backpressure) or unbounded.
enum WorkQueue {
    Unbounded(Sender<Job>),
    Bounded(SyncSender<Job>),
}

impl WorkQueue {
    /// Enqueues a job; a bounded queue blocks until a slot frees up.
    fn send(&self, job: Job) -> Result<(), ScError> {
        let sent = match self {
            WorkQueue::Unbounded(tx) => tx.send(job).is_ok(),
            WorkQueue::Bounded(tx) => tx.send(job).is_ok(),
        };
        if sent {
            Ok(())
        } else {
            Err(pool_gone())
        }
    }

    /// Enqueues a job without ever blocking: a full bounded queue is a
    /// typed [`ScError::QueueFull`] (the job is handed back untouched
    /// inside the mpsc error and dropped here — nothing was admitted).
    fn try_send(&self, job: Job, depth: usize) -> Result<(), ScError> {
        match self {
            // An unbounded queue is never full; only disconnection fails.
            WorkQueue::Unbounded(tx) => tx.send(job).map_err(|_| pool_gone()),
            WorkQueue::Bounded(tx) => tx.try_send(job).map_err(|e| match e {
                mpsc::TrySendError::Full(_) => ScError::QueueFull { depth },
                mpsc::TrySendError::Disconnected(_) => pool_gone(),
            }),
        }
    }
}

/// The error surfaced when the worker side of the pool has vanished
/// (a worker panicked, or every worker exited) — never silent.
fn pool_gone() -> ScError {
    ScError::PoolGone
}

/// Live occupancy gauges of a pool, shared with its workers.
///
/// `queued` counts requests entering or waiting in the work queue, not yet
/// claimed by a worker (see [`ServePool::queued`]); `in_flight` counts
/// requests a worker is serving right now.
/// Both are monotonic counters' differences maintained with relaxed
/// atomics — a metrics gauge, not a synchronization primitive.
#[derive(Debug, Default)]
struct Gauges {
    queued: AtomicUsize,
    in_flight: AtomicUsize,
}

/// A pending request submitted to a [`ServePool`]: redeem it with
/// [`ServeHandle::collect`] to block for the logits.
///
/// Dropping a handle without collecting abandons the result (the worker's
/// reply is discarded); the request itself still runs to completion.
pub struct ServeHandle {
    rx: Receiver<Served>,
    images: usize,
}

impl ServeHandle {
    /// Number of images in the submitted request.
    pub fn images(&self) -> usize {
        self.images
    }

    /// Blocks until the request has been served, returning its logits and
    /// the request's [`JobTiming`] — queue wait and service time,
    /// separately, so backpressure never masquerades as backend cost.
    ///
    /// # Errors
    ///
    /// Propagates the backend's execution error for this request, or
    /// [`ScError::PoolGone`] if the serving worker disappeared (panicked)
    /// before replying.
    pub fn collect(self) -> Result<(Tensor, JobTiming), ScError> {
        match self.rx.recv() {
            Ok(served) => served.result.map(|t| (t, served.timing)),
            Err(_) => Err(pool_gone()),
        }
    }
}

/// A persistent pool of long-lived inference workers over a shared
/// backend.
///
/// Construction spawns the worker threads once; every
/// [`ServePool::submit`], [`ServePool::try_submit`], and
/// [`ServePool::run_batch`] afterwards reuses them (each worker holds one
/// [`crate::engine::ForwardScratch`] for its whole lifetime). Work flows
/// through an mpsc channel — bounded by [`ServeConfig::queue_depth`] for
/// real backpressure — and each request is claimed by exactly one worker
/// the moment it is free, so there are no admission waves and no
/// inter-request barriers. The pool is `Sync`: submitters on any thread
/// share it by reference.
///
/// Shutdown is graceful via [`ServePool::shutdown`] or `Drop`: the queue
/// closes, workers finish what they hold and exit, and the threads are
/// joined.
///
/// Generic over `B: InferenceBackend` (including unsized trait objects, so
/// [`crate::Session`] holds a `ServePool<dyn InferenceBackend>`).
pub struct ServePool<B: InferenceBackend + ?Sized + 'static = crate::engine::ScEngine> {
    backend: Arc<B>,
    cfg: ServeConfig,
    /// `Some` for the pool's whole life; taken (dropped) on shutdown to
    /// close the channel and release the workers.
    queue: Option<WorkQueue>,
    gauges: Arc<Gauges>,
    observability: Arc<PoolObs>,
    workers: Vec<JoinHandle<()>>,
}

impl<B: InferenceBackend + ?Sized + 'static> ServePool<B> {
    /// Spawns the pool: `cfg.resolved_workers()` threads, each parked on
    /// the work queue with its own reusable scratch.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParam`] if `micro_batch` is zero, and
    /// [`ScError::Io`] if the OS refuses to spawn a worker thread.
    pub fn new(backend: Arc<B>, cfg: ServeConfig) -> Result<Self, ScError> {
        cfg.validate()?;
        let (queue, rx): (WorkQueue, Receiver<Job>) = if cfg.queue_depth == 0 {
            let (tx, rx) = mpsc::channel();
            (WorkQueue::Unbounded(tx), rx)
        } else {
            let (tx, rx) = mpsc::sync_channel(cfg.queue_depth);
            (WorkQueue::Bounded(tx), rx)
        };
        let rx = Arc::new(Mutex::new(rx));
        let gauges = Arc::new(Gauges::default());
        let observability = Arc::new(PoolObs::new());
        let workers = (0..cfg.resolved_workers())
            .map(|i| {
                let rx = Arc::clone(&rx);
                let backend = Arc::clone(&backend);
                let gauges = Arc::clone(&gauges);
                let observability = Arc::clone(&observability);
                std::thread::Builder::new()
                    .name(format!("ascend-serve-{i}"))
                    .spawn(move || worker_loop(&*backend, &rx, &gauges, &observability, i as u32))
                    .map_err(|e| ScError::Io {
                        path: format!("thread ascend-serve-{i}"),
                        reason: e.to_string(),
                        not_found: false,
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ServePool {
            backend,
            cfg,
            queue: Some(queue),
            gauges,
            observability,
            workers,
        })
    }

    /// The pool's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The shared backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Number of live worker threads the pool was spawned with.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Live queue depth: requests entering or waiting in the work queue
    /// that no worker has claimed yet. A request is counted just *before*
    /// it reaches the channel, so a [`ServePool::submit`] blocked on a full
    /// bounded queue counts as queued, and a [`ServePool::try_submit`]
    /// being shed counts for the instant before its refusal is undone.
    /// Counting first is what keeps the gauge from wrapping below zero: a
    /// worker can only uncount a job it received, and it can only receive
    /// a job already counted. A relaxed-atomic gauge for metrics and
    /// load-shedding decisions, not a synchronization primitive — the
    /// value can be momentarily stale under concurrent submitters.
    pub fn queued(&self) -> usize {
        self.gauges.queued.load(Ordering::Relaxed)
    }

    /// Requests a worker is serving right now (claimed, not yet replied).
    /// Same relaxed-gauge semantics as [`ServePool::queued`].
    pub fn in_flight(&self) -> usize {
        self.gauges.in_flight.load(Ordering::Relaxed)
    }

    /// The queue's configured capacity in requests (`0` = unbounded).
    pub fn queue_capacity(&self) -> usize {
        self.cfg.queue_depth
    }

    /// The pool's observability state: queue-wait/service histograms and
    /// the span ring behind `GET /debug/trace`.
    pub fn obs(&self) -> &PoolObs {
        &self.observability
    }

    /// Submits one owned request to the pool, returning a [`ServeHandle`]
    /// to collect its logits later — the streaming half of the API.
    ///
    /// With a bounded queue ([`ServeConfig::queue_depth`] `> 0`) this call
    /// **blocks** while the queue is full; it never drops the request and
    /// never reorders it past requests submitted earlier from the same
    /// thread.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParam`] if the request's patch tensor
    /// does not hold exactly `images` images, and [`ScError::PoolGone`] if
    /// the pool has no live workers left.
    pub fn submit(&self, request: ServeRequest) -> Result<ServeHandle, ScError> {
        self.enqueue(request, |queue, job| queue.send(job))
    }

    /// Non-blocking admission: like [`ServePool::submit`], but a full
    /// bounded queue **refuses** the request with a typed
    /// [`ScError::QueueFull`] instead of blocking the caller — nothing is
    /// enqueued on refusal, so the caller can shed the load (an HTTP
    /// front-end answers `503 Retry-After`) and stay responsive. On an
    /// unbounded queue (`queue_depth == 0`) this is identical to `submit`:
    /// admission never fails for capacity reasons.
    ///
    /// # Errors
    ///
    /// [`ScError::QueueFull`] when the bounded queue is at capacity,
    /// [`ScError::InvalidParam`] for a malformed request, and
    /// [`ScError::PoolGone`] when no live workers remain.
    pub fn try_submit(&self, request: ServeRequest) -> Result<ServeHandle, ScError> {
        self.enqueue(request, |queue, job| {
            queue.try_send(job, self.cfg.queue_depth)
        })
    }

    /// The shared body of [`ServePool::submit`] and
    /// [`ServePool::try_submit`]: validates the request, packages it as a
    /// queue job with its reply endpoint, and hands it to `send` under the
    /// `queued` gauge (see [`ServePool::queued`]).
    fn enqueue(
        &self,
        request: ServeRequest,
        send: impl FnOnce(&WorkQueue, Job) -> Result<(), ScError>,
    ) -> Result<ServeHandle, ScError> {
        check_patch_count(
            "request",
            request.patches.data().len(),
            request.images,
            self.backend.vit_config(),
        )?;
        // The queue is `Some` for the pool's whole life (taken only during
        // drop); a typed error keeps this hot path panic-free even if that
        // invariant ever breaks.
        let queue = self.queue.as_ref().ok_or_else(pool_gone)?;
        // Capacity 1 and exactly one message: the worker's reply never
        // blocks, so a slow collector cannot stall the pool.
        let (reply, rx) = mpsc::sync_channel(1);
        let images = request.images;
        let trace = request.trace.unwrap_or_else(TraceId::mint);
        #[expect(
            clippy::disallowed_methods,
            reason = "admission timestamp for the queue-wait split; never reaches the logits"
        )]
        let submitted = Instant::now();
        let job = Job {
            patches: request.patches,
            images,
            trace,
            submitted,
            reply,
        };
        // Count before the send: the worker's decrement on claim must
        // never precede this increment. A refused send is uncounted.
        self.gauges.queued.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = send(queue, job) {
            self.gauges.queued.fetch_sub(1, Ordering::Relaxed);
            return Err(e);
        }
        Ok(ServeHandle { rx, images })
    }

    /// The one batch helper over [`ServePool::submit`]: carves a large
    /// batch into requests of [`ServeConfig::micro_batch`] images, submits
    /// them all, and reassembles the `[images, classes]` logits in input
    /// order. Each request's timing lands in [`ServePool::obs`], like any
    /// other submitted request's.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParam`] if `patches` does not hold exactly
    /// `images` images (checked before anything is enqueued), and
    /// propagates backend errors (the first in request order,
    /// deterministically).
    pub fn run_batch(&self, patches: &Tensor, images: usize) -> Result<Tensor, ScError> {
        let cfg = self.backend.vit_config();
        check_patch_count("patches", patches.data().len(), images, cfg)?;
        let (p, pd, classes) = (cfg.num_patches(), cfg.patch_dim(), cfg.classes);
        let mb = self.cfg.micro_batch;
        // Each request tensor is built owned and moved straight into the
        // queue — no intermediate request vector, no clone.
        let handles: Vec<ServeHandle> = (0..images)
            .step_by(mb)
            .map(|lo| {
                let hi = (lo + mb).min(images);
                self.submit(ServeRequest::new(
                    Tensor::from_vec(
                        patches.data()[lo * p * pd..hi * p * pd].to_vec(),
                        &[(hi - lo) * p, pd],
                    ),
                    hi - lo,
                ))
            })
            .collect::<Result<_, _>>()?;
        // Collect in submission order; the first error abandons the
        // replies still outstanding.
        let mut all = Vec::with_capacity(images * classes);
        for handle in handles {
            all.extend_from_slice(handle.collect()?.0.data());
        }
        Ok(Tensor::from_vec(all, &[images, classes]))
    }

    /// Graceful shutdown: closes the work queue, lets every worker finish
    /// the request it holds, and joins the threads. Dropping the pool does
    /// the same; this method just makes the point explicit at call sites.
    pub fn shutdown(self) {
        // Drop runs close_and_join.
    }

    fn close_and_join(&mut self) {
        self.queue.take();
        for handle in self.workers.drain(..) {
            // A panicked worker already surfaced as an error on its
            // handle; re-raising here would abort during unwinding.
            let _ = handle.join();
        }
    }
}

impl<B: InferenceBackend + ?Sized + 'static> Drop for ServePool<B> {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// The worker body: pull a job, serve it with the thread's one reusable
/// scratch, reply, repeat until the queue closes.
fn worker_loop<B: InferenceBackend + ?Sized>(
    backend: &B,
    rx: &Mutex<Receiver<Job>>,
    gauges: &Gauges,
    observability: &PoolObs,
    worker: u32,
) {
    let mut scratch = backend.make_scratch();
    loop {
        // Hold the receiver lock only for the blocking pull, never while
        // serving — the other workers keep draining the queue.
        let job = {
            let guard = match rx.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            // ascend-lint: allow(no-blocking-under-lock) -- this IS the worker pull point: the receiver mutex exists only to serialize recv() across workers, guards nothing else, and is released before serving
            match guard.recv() {
                Ok(job) => job,
                Err(_) => break, // queue closed: graceful shutdown
            }
        };
        gauges.queued.fetch_sub(1, Ordering::Relaxed);
        gauges.in_flight.fetch_add(1, Ordering::Relaxed);
        #[expect(
            clippy::disallowed_methods,
            reason = "queue-wait/service split for the pool histograms and the trace ring; timing never reaches the output tensor"
        )]
        let t0 = Instant::now();
        let queue_wait = t0.saturating_duration_since(job.submitted);
        let result = backend.forward_with(&job.patches, job.images, &mut scratch);
        let service = t0.elapsed();
        // Record metrics and spans only after the timed region is closed,
        // so the ring's mutex never sits inside a measured interval.
        observability.queue_wait.observe(queue_wait);
        observability.service.observe(service);
        observability
            .trace
            .record(job.trace, "queue_wait", worker, job.submitted, queue_wait);
        observability
            .trace
            .record(job.trace, "service", worker, t0, service);
        // A dropped handle just means nobody wants this answer.
        let _ = job.reply.send(Served {
            result,
            timing: JobTiming {
                queue_wait,
                service,
            },
        });
        gauges.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Order-preserving parallel map over a slice — **the** workspace-wide
/// parallel-map primitive (the bench binaries use it too, so there is one
/// chunked-scope pattern, not many). For borrowed, run-to-completion
/// sweeps this scoped form stays the right tool; request serving uses the
/// persistent [`ServePool`] instead.
///
/// Splits `items` into chunks of `chunk` and lets `workers` workers — the
/// calling thread and `workers − 1` scoped threads — claim chunks
/// dynamically off a shared atomic cursor; results come back in input
/// order regardless of which worker computed what. With `workers <= 1` it
/// degenerates to a plain serial map.
///
/// # Panics
///
/// Panics if `chunk == 0` — a zero chunk size is a caller bug (it would
/// make no progress), not a degraded mode. A panic inside `f` on any
/// worker is re-raised on the caller with its original payload.
pub fn parallel_map<T, R, F>(workers: usize, chunk: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    assert!(chunk > 0, "parallel_map chunk size must be at least 1");
    let n_chunks = items.len().div_ceil(chunk);
    let workers = workers.max(1).min(n_chunks.max(1));
    if workers == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut mine = Vec::new();
        loop {
            let c = cursor.fetch_add(1, Ordering::Relaxed);
            if c >= n_chunks {
                break;
            }
            let lo = c * chunk;
            let hi = (lo + chunk).min(items.len());
            let out: Vec<R> = items[lo..hi]
                .iter()
                .enumerate()
                .map(|(i, t)| f(lo + i, t))
                .collect();
            mine.push((c, out));
        }
        mine
    };
    let parts: Vec<Vec<(usize, Vec<R>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
        // The calling thread is the last worker.
        let own = claim();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(mine) => mine,
                // Re-raise a worker's panic with its original payload
                // instead of wrapping it in a second panic message.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .chain(std::iter::once(own))
            .collect()
    });

    // Reassemble in chunk order: worker scheduling never leaks into output
    // order, which is what the determinism contract rests on. Sorting by
    // the chunk index (each claimed exactly once off the atomic cursor)
    // restores input order without any partially-filled slot state.
    let mut chunks: Vec<(usize, Vec<R>)> = parts.into_iter().flatten().collect();
    chunks.sort_unstable_by_key(|&(c, _)| c);
    chunks.into_iter().flat_map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order_for_ragged_chunks() {
        let items: Vec<usize> = (0..103).collect();
        let want: Vec<usize> = items.iter().map(|x| x * 3 + 1).collect();
        for workers in [1usize, 2, 3, 8] {
            for chunk in [1usize, 4, 7, 64, 1000] {
                let got = parallel_map(workers, chunk, &items, |_, x| x * 3 + 1);
                assert_eq!(got, want, "workers={workers} chunk={chunk}");
            }
        }
    }

    #[test]
    fn parallel_map_passes_global_indices() {
        let items = vec![10usize; 37];
        let got = parallel_map(4, 5, &items, |i, x| i * 100 + x);
        let want: Vec<usize> = (0..37).map(|i| i * 100 + 10).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn parallel_map_handles_empty_input() {
        let got: Vec<usize> = parallel_map(8, 16, &[], |_, x: &usize| *x);
        assert!(got.is_empty());
    }

    #[test]
    fn parallel_map_with_more_workers_than_items() {
        // 16 workers over 3 items: the pool must cap itself and still
        // produce every item exactly once, in order.
        let items = vec![5usize, 6, 7];
        let got = parallel_map(16, 1, &items, |i, x| (i, *x));
        assert_eq!(got, vec![(0, 5), (1, 6), (2, 7)]);
        let got = parallel_map(64, 2, &items, |i, x| (i, *x));
        assert_eq!(got, vec![(0, 5), (1, 6), (2, 7)]);
    }

    #[test]
    fn parallel_map_is_exhaustive_for_every_worker_chunk_shape() {
        // Property sweep: every (workers, chunk, len) shape visits each
        // index exactly once and preserves order.
        for len in [0usize, 1, 2, 9, 33] {
            let items: Vec<usize> = (0..len).collect();
            let want: Vec<usize> = items.iter().map(|x| x + 1).collect();
            for workers in [1usize, 2, 5, 9] {
                for chunk in [1usize, 2, 3, 8, 100] {
                    let got = parallel_map(workers, chunk, &items, |_, x| x + 1);
                    assert_eq!(got, want, "len={len} workers={workers} chunk={chunk}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "chunk size must be at least 1")]
    fn parallel_map_rejects_zero_chunk() {
        let _ = parallel_map(2, 0, &[1usize, 2], |_, x| *x);
    }

    #[test]
    #[should_panic(expected = "item 7 failed")]
    fn parallel_map_reraises_a_worker_panic_with_its_payload() {
        // Four scoped workers over eight chunks: the panic happens on a
        // spawned thread and must surface on the caller unchanged.
        let items: Vec<usize> = (0..16).collect();
        let _ = parallel_map(4, 2, &items, |_, &x| {
            assert!(x != 7, "item 7 failed");
            x
        });
    }

    #[test]
    fn serve_config_resolves_workers() {
        let auto = ServeConfig::auto().resolved_workers();
        assert!(auto >= 1);
        assert_eq!(
            ServeConfig::auto().resolved_workers(),
            auto,
            "looked up once, then kept"
        );
        let cfg = ServeConfig {
            workers: 3,
            ..ServeConfig::default()
        };
        assert_eq!(cfg.resolved_workers(), 3);
    }
}
