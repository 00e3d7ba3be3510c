//! The HTTP workloads, `interactive-m5` and `registry-churn`: two
//! keep-alive callers, each sending one distinct image per request,
//! waiting for the response, and thinking for a short exponential time
//! before the next.
//!
//! Why callers and not an open arrival schedule: the server writes each
//! response head and body in two writes without `TCP_NODELAY`, so the
//! body waits for the client's ACK of the head. A client that sends its
//! next request soon after a response is in delayed-ACK mode and holds
//! that ACK ~40 ms; one that waited longer ACKs at once. Under a Poisson
//! schedule below capacity the stalled share therefore swings with the
//! arrival gaps (measured on 2 cores: 7–24% of requests at 16 req/s,
//! 41–49% at 24 req/s, 63–67% at 32 req/s, with p95 spreading 0.48 across
//! seeds at 32 req/s). Callers with a 10 ms mean think time keep ~97% of
//! responses in the stalled regime, so the stall shows in the median and
//! the numbers repeat. The open-loop generator in [`crate::client`] stays
//! for a future workload once the stall is fixed.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ascend::serve::ServeConfig;
use ascend::{load_backend, BackendKind, EngineConfig, InferenceBackend, StageStats};
use ascend_http::{HttpConfig, HttpServer};
use ascend_registry::{ModelRegistry, ModelSpec, RegistryConfig};
use ascend_tensor::Tensor;

use super::*;
use crate::client::{closed_loop, post_bytes, Conn, LoadRun};
use crate::json::Value;
use crate::models::{Images, Recipe, CLASSES, M5, REGISTRY};
use crate::rng::{mix, weighted_choice, SplitMix64};
use crate::stats::{median, Tail};
use crate::trace::{coverage, match_by_containment, unattributed, Job, Span};

/// Mean think time of an HTTP caller between a response and its next
/// request.
const THINK_MEAN: Duration = Duration::from_millis(10);
/// `registry-churn`: request share of each model in [`REGISTRY`].
const MODEL_WEIGHTS: [f64; 3] = [0.5, 0.3, 0.2];

/// The single-image requests of an HTTP workload. Which model a request
/// targets, its image and the caller's think time before it are pure
/// functions of the seed, the phase, the connection and the request
/// number, so the checker can regenerate every input after the run.
struct Traffic<'a> {
    seed: u64,
    phase: u64,
    models: &'a [Recipe],
    paths: &'a [String],
    weights: &'a [f64],
}

impl Traffic<'_> {
    fn key(&self, conn: usize, k: usize) -> u64 {
        mix(mix(self.seed, self.phase + conn as u64), k as u64)
    }

    /// The model request `k` of connection `conn` targets.
    fn model(&self, conn: usize, k: usize) -> usize {
        weighted_choice(
            &mut SplitMix64::new(self.key(conn, k) ^ STREAM_MODELS),
            self.weights,
        )
    }

    /// Exponential think time before request `k`.
    fn think(&self, conn: usize, k: usize) -> Duration {
        let u = SplitMix64::new(self.key(conn, k) ^ STREAM_THINK).next_f64();
        THINK_MEAN.mul_f64(-(1.0 - u).ln())
    }

    /// Model, patches and label of request `k` on connection `conn`.
    fn image(&self, conn: usize, k: usize) -> (usize, Vec<f32>, usize) {
        let m = self.model(conn, k);
        // One image per class, so labels vary with `k`.
        let block = Images::generate(&self.models[m], self.seed, self.key(conn, k), CLASSES);
        let j = k % CLASSES;
        (m, block.slice(j, j + 1).to_vec(), block.labels[j])
    }

    fn request(&self, conn: usize, k: usize) -> Vec<u8> {
        let (m, patches, _) = self.image(conn, k);
        post_bytes(&self.paths[m], &request_body(&patches, 1))
    }

    /// Drives `addr` with [`WORKERS`] callers for `seconds`.
    fn run(
        &self,
        addr: SocketAddr,
        seconds: f64,
        after: &(dyn Fn(usize, usize) + Sync),
    ) -> LoadRun {
        closed_loop(
            addr,
            WORKERS,
            Duration::from_secs_f64(seconds),
            &|c, k| self.think(c, k),
            &|c, k| self.request(c, k),
            after,
        )
    }
}

/// Counts, checks and scores a run against per-model reference
/// backends: every `200` body is compared bit for bit with the serial
/// forward of the regenerated input. Returns `(ok images, top-1 hits)`.
fn score(
    out: &mut RunResult,
    traffic: &Traffic<'_>,
    run: &LoadRun,
    refs: &[Arc<dyn InferenceBackend>],
) -> Result<(usize, usize), String> {
    let (mut ok, mut hits) = (0, 0);
    for s in &run.samples {
        out.attempted += 1;
        let Some(resp) = s.response.as_ref().filter(|r| r.status == 200) else {
            out.failed += 1;
            continue;
        };
        let (m, patches, label) = traffic.image(s.conn, s.seq);
        let backend = &refs[m];
        let cfg = backend.vit_config();
        let tensor = Tensor::from_vec(patches, &[cfg.num_patches(), cfg.patch_dim()]);
        let want = backend.forward(&tensor, 1).map_err(err("serial forward"))?;
        out.checked += 1;
        if resp.body != expected_body(&want, 1) {
            out.mismatched += 1;
            out.failed += 1;
            continue;
        }
        ok += 1;
        if argmax_rows(&body_logits(&resp.body), cfg.classes).first() == Some(&label) {
            hits += 1;
        }
    }
    Ok((ok, hits))
}

/// Records the end-to-end metrics of a measured run.
fn record_load(out: &mut RunResult, run: &LoadRun, ok: usize, hits: usize) {
    let lat: Vec<f64> = run.samples.iter().map(|s| ms(s.latency())).collect();
    record_latency(out, &lat);
    out.set(
        "images_per_s",
        ok as f64 / run.elapsed().as_secs_f64().max(1e-9),
    );
    out.set("ok_ratio", ok as f64 / run.samples.len().max(1) as f64);
    out.set("top1_acc", hits as f64 / ok.max(1) as f64);
    let stalled = lat.iter().filter(|&&l| l > 20.0).count();
    out.note(format!(
        "requests slower than 20 ms: {stalled} of {}",
        lat.len()
    ));
}

/// Pool jobs read back from trace rings, keyed by trace id.
type Jobs = HashMap<u64, (Option<(Instant, Duration)>, Option<(Instant, Duration)>)>;

/// Folds a pool's trace ring into `jobs`.
fn harvest(jobs: &mut Jobs, ring: &ascend_obs::TraceBuffer) {
    let epoch = ring.epoch();
    for s in ring.snapshot() {
        let at = epoch + Duration::from_micros(s.start_us);
        let dur = Duration::from_micros(s.dur_us);
        let entry = jobs.entry(s.trace_id.0).or_default();
        match s.name {
            "queue_wait" => entry.0 = Some((at, dur)),
            "service" => entry.1 = Some((at, dur)),
            _ => {}
        }
    }
}

/// The traced phase's per-layer numbers for an HTTP run.
fn record_http_trace(out: &mut RunResult, run: &LoadRun, jobs: &Jobs, engine_ms: f64) {
    let jobs: Vec<Job> = jobs
        .values()
        .filter_map(|(q, s)| {
            let ((submitted, _), (claimed, service)) = ((*q)?, (*s)?);
            Some(Job {
                submitted,
                claimed,
                finished: claimed + service,
            })
        })
        .collect();
    let requests: Vec<(Instant, Instant)> = run.samples.iter().map(|s| (s.sent, s.done)).collect();
    let (matched, ambiguous) = match_by_containment(&requests, &jobs, Duration::from_micros(2));
    let (mut e2e, mut att, mut un, mut q, mut svc, mut pairs) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let (mut latency, mut gen) = (0.0, 0.0);
    for (s, m) in run.samples.iter().zip(&matched) {
        let wire = s.wire();
        e2e.push(ms(wire));
        let id = ((s.conn as u64) << 32) | s.seq as u64;
        out.spans.push(Span::new(id, "gen", "lag", s.due, s.sent));
        out.spans
            .push(Span::new(id, "http", "request", s.sent, s.done));
        let Some(job) = m.map(|j| jobs[j]) else {
            continue;
        };
        out.spans.push(Span::new(
            id,
            "serve",
            "queue_wait",
            job.submitted,
            job.claimed,
        ));
        out.spans
            .push(Span::new(id, "serve", "service", job.claimed, job.finished));
        let a = job.attributed();
        att.push(ms(a));
        un.push(ms(unattributed(wire, a)));
        q.push(ms(job.claimed - job.submitted));
        svc.push(ms(job.finished - job.claimed));
        pairs.push((wire, a));
        latency += ms(s.latency());
        gen += ms(s.lag());
    }
    let (e, a, u, qt, stt) = (
        Tail::of(&e2e),
        Tail::of(&att),
        Tail::of(&un),
        Tail::of(&q),
        Tail::of(&svc),
    );
    out.set("http.e2e_ms.p50", e.p50);
    out.set("http.e2e_ms.p95", e.p95);
    out.set("http.attributed_ms.p50", a.p50);
    out.set("http.unattributed_ms.p50", u.p50);
    out.set("http.unattributed_ms.p95", u.p95);
    out.set("http.coverage", coverage(&pairs));
    out.set(
        "http.matched",
        pairs.len() as f64 / run.samples.len().max(1) as f64,
    );
    out.set("http.reconnects", run.reconnects as f64);
    let shed = run
        .samples
        .iter()
        .filter(|s| s.response.as_ref().is_some_and(|r| r.status == 503))
        .count();
    out.set("http.status_503", shed as f64);
    out.set("serve.queue_wait_ms.p50", qt.p50);
    out.set("serve.queue_wait_ms.p95", qt.p95);
    out.set("serve.service_ms.p50", stt.p50);
    out.set("serve.service_ms.p95", stt.p95);
    out.set(
        "serve.busy_frac",
        svc.iter().sum::<f64>() / 1e3 / (WORKERS as f64 * run.elapsed().as_secs_f64().max(1e-9)),
    );
    let lag: Vec<f64> = run.samples.iter().map(|s| ms(s.lag())).collect();
    out.set("gen.lag_ms.p95", Tail::of(&lag).p95);
    out.set("gen.lag_ms.max", Tail::of(&lag).max);
    out.note(format!(
        "pool spans matched to requests by time containment (the wire protocol carries no request id): \
         {} of {} matched, {ambiguous} had more than one candidate",
        pairs.len(),
        run.samples.len()
    ));
    SelfTimes {
        requests: pairs.len(),
        latency,
        gen,
        queue: q.iter().sum(),
        service: svc.iter().sum(),
        engine: engine_ms * pairs.len() as f64,
    }
    .record(
        out,
        "http has no server-side read/parse/write spans, so its self time is the unaccounted row",
    );
    out.epoch = Some(run.start);
}

fn http_config() -> HttpConfig {
    let mut cfg = HttpConfig::new("127.0.0.1:0");
    cfg.conn_workers = WORKERS;
    cfg
}

/// Sends one request on a fresh connection.
fn first_response(addr: SocketAddr, bytes: &[u8]) -> Result<Vec<u8>, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let resp = conn
        .round_trip(bytes)
        .map_err(|e| format!("first request: {e}"))?;
    if resp.status != 200 {
        return Err(format!("first request answered {}", resp.status));
    }
    Ok(resp.body)
}

fn noop(_: usize, _: usize) {}

fn p50_latency(run: &LoadRun) -> f64 {
    Tail::of(
        &run.samples
            .iter()
            .map(|s| ms(s.latency()))
            .collect::<Vec<_>>(),
    )
    .p50
}

fn http_params(out: &mut RunResult) {
    out.param(
        "loop",
        "closed: each connection is a caller that sends one image per request over HTTP/1.1 keep-alive, \
         waits for the response, then thinks for an exponential time",
    );
    out.param("think_mean_ms", ms(THINK_MEAN));
    out.param("connections", WORKERS);
}

pub(super) fn interactive(
    cfg: &RunConfig,
    cache: &Path,
    out: &mut RunResult,
) -> Result<(), String> {
    let ckpt = M5.checkpoint(cache);
    let paths = ["/v1/infer".to_string()];
    out.param(
        "model",
        "vit-m5: 8x8 images, patch 4, m = 5, dim 16, 2 layers, 2 heads",
    );
    http_params(out);
    let traffic = |phase: u64| Traffic {
        seed: cfg.seed,
        phase,
        models: &[M5],
        paths: &paths,
        weights: &[1.0],
    };
    let first = Images::generate(&M5, cfg.seed, STREAM_SETUP, 1);
    let first_bytes = post_bytes(&paths[0], &request_body(first.slice(0, 1), 1));
    let mut reps = Vec::new();
    let mut server: Option<HttpServer> = None;
    let mut first_bodies = Vec::new();
    for rep in 0..setup_reps(M5.m()) {
        drop(server.take());
        let t0 = Instant::now();
        let session = Arc::new(session_from(&ckpt, None)?);
        let t1 = Instant::now();
        session.runner().map_err(err("pool"))?;
        let t2 = Instant::now();
        let srv = HttpServer::bind(session, http_config()).map_err(err("bind"))?;
        let bound = Instant::now();
        std::thread::sleep(arrival_pause(cfg.seed, rep));
        let t3 = Instant::now();
        first_bodies.push(first_response(srv.local_addr(), &first_bytes)?);
        let t4 = Instant::now();
        reps.push(SetupTimes {
            compile: t1 - t0,
            pool: t2 - t1,
            bind: bound - t2,
            first: t4 - t3,
        });
        out.attempted += 1;
        server = Some(srv);
    }
    record_setup(out, &reps);
    let server = server.ok_or("no server")?;
    let reference: Arc<dyn InferenceBackend> = Arc::from(
        load_backend(&ckpt, BackendKind::Sc, EngineConfig::default()).map_err(err("reference"))?,
    );
    let want = expected_body(
        &reference
            .forward(&first.patches, 1)
            .map_err(err("serial forward"))?,
        1,
    );
    for body in &first_bodies {
        out.checked += 1;
        if *body != want {
            out.mismatched += 1;
            out.failed += 1;
        }
    }

    let addr = server.local_addr();
    traffic(phase(STREAM_WARMUP, false)).run(addr, WARMUP.as_secs_f64(), &noop);
    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let measured = traffic(phase(STREAM_IMAGES, false));
    let run = measured.run(addr, seconds, &noop);
    let refs = [Arc::clone(&reference)];
    let (ok, hits) = score(out, &measured, &run, &refs)?;
    record_load(out, &run, ok, hits);
    out.param("checked_subset", "every response");

    if cfg.trace {
        let untraced_p50 = p50_latency(&run);
        drop(server);
        let stats = Arc::new(StageStats::new());
        let traced = Arc::new(session_from(&ckpt, Some(Arc::clone(&stats)))?);
        let srv = HttpServer::bind(Arc::clone(&traced), http_config()).map_err(err("bind"))?;
        traffic(phase(STREAM_WARMUP, true)).run(srv.local_addr(), WARMUP.as_secs_f64(), &noop);
        let ring = traced.runner().map_err(err("pool"))?.obs().trace();
        ring.clear();
        let traced_traffic = traffic(phase(STREAM_IMAGES, true));
        let run = traced_traffic.run(srv.local_addr(), seconds, &noop);
        score(out, &traced_traffic, &run, &refs)?;
        let mut jobs = Jobs::new();
        harvest(&mut jobs, ring);
        record_engine(out, &stats);
        let engine_ms = out.metrics.get("engine.forward_us").copied().unwrap_or(0.0) / 1e3;
        record_http_trace(out, &run, &jobs, engine_ms);
        out.set("trace.overhead_ms.p50", p50_latency(&run) - untraced_p50);
        record_checkpoint_io(out, &ckpt, setup_reps(M5.m()))?;
        out.note("registry: not on this workload's path, reported as 0");
    }
    Ok(())
}

pub(super) fn churn(cfg: &RunConfig, cache: &Path, out: &mut RunResult) -> Result<(), String> {
    let paths: Vec<String> = REGISTRY
        .iter()
        .map(|r| format!("/v1/models/{}/infer", r.name))
        .collect();
    let artifacts: Vec<_> = REGISTRY.iter().map(|r| r.engine(cache)).collect();
    // Reference backends through the public load path; their sizes set a
    // budget that holds any two models but never all three.
    let mut refs: Vec<Arc<dyn InferenceBackend>> = Vec::new();
    let mut load_ms = Vec::new();
    for path in &artifacts {
        let (load, backend) = median_load_ms(setup_reps(REGISTRY[0].m()), || {
            load_backend(path, BackendKind::Sc, EngineConfig::default()).map_err(err("artifact"))
        })?;
        load_ms.push(load);
        refs.push(Arc::from(backend));
    }
    let sizes: Vec<usize> = refs.iter().map(|b| b.resident_bytes()).collect();
    let budget = sizes.iter().sum::<usize>().saturating_sub(1);
    out.param(
        "models",
        REGISTRY
            .iter()
            .map(|r| Value::from(format!("{} (m = {}, dim {})", r.name, r.m(), r.dim)))
            .collect::<Vec<_>>(),
    );
    out.param(
        "model_weights",
        MODEL_WEIGHTS
            .iter()
            .map(|w| Value::from(*w))
            .collect::<Vec<_>>(),
    );
    out.param(
        "resident_bytes",
        sizes.iter().map(|s| Value::from(*s)).collect::<Vec<_>>(),
    );
    out.param("budget_bytes", budget);
    http_params(out);
    let traffic = |phase: u64| Traffic {
        seed: cfg.seed,
        phase,
        models: &REGISTRY,
        paths: &paths,
        weights: &MODEL_WEIGHTS,
    };

    let build = || -> Result<(Arc<ModelRegistry>, Duration), String> {
        let t = Instant::now();
        let registry = Arc::new(ModelRegistry::new(RegistryConfig {
            memory_budget_bytes: budget,
            engine_config: EngineConfig::default(),
        }));
        for (r, path) in REGISTRY.iter().zip(&artifacts) {
            let serve = ServeConfig {
                workers: WORKERS,
                micro_batch: 8,
                queue_depth: 4 * WORKERS,
            };
            registry
                .register(ModelSpec::artifact(r.name, path).serve(serve))
                .map_err(err("register"))?;
        }
        Ok((registry, t.elapsed()))
    };
    let first = Images::generate(&REGISTRY[0], cfg.seed, STREAM_SETUP, 1);
    let first_bytes = post_bytes(&paths[0], &request_body(first.slice(0, 1), 1));
    let want = expected_body(
        &refs[0]
            .forward(&first.patches, 1)
            .map_err(err("serial forward"))?,
        1,
    );
    let mut reps = Vec::new();
    let mut server: Option<(HttpServer, Arc<ModelRegistry>)> = None;
    for rep in 0..setup_reps(REGISTRY[0].m()) {
        drop(server.take());
        let (registry, compile) = build()?;
        let t = Instant::now();
        let srv =
            HttpServer::bind_registry(Arc::clone(&registry), http_config()).map_err(err("bind"))?;
        let bind = t.elapsed();
        std::thread::sleep(arrival_pause(cfg.seed, rep));
        let t = Instant::now();
        let body = first_response(srv.local_addr(), &first_bytes)?;
        let first_time = t.elapsed();
        out.attempted += 1;
        out.checked += 1;
        if body != want {
            out.mismatched += 1;
            out.failed += 1;
        }
        reps.push(SetupTimes {
            compile,
            pool: Duration::ZERO,
            bind,
            first: first_time,
        });
        server = Some((srv, registry));
    }
    record_setup(out, &reps);
    out.note(
        "registry set-up: compile = registry build and registration (artifacts load lazily); \
         first response includes the first model's artifact load and pool spawn",
    );
    let (server, registry) = server.ok_or("no server")?;
    let addr = server.local_addr();
    let loads = |reg: &ModelRegistry| -> (u64, u64) {
        REGISTRY.iter().fold((0, 0), |(l, e), r| {
            (
                l + reg.loads_total(r.name).unwrap_or(0),
                e + reg.evictions_total(r.name).unwrap_or(0),
            )
        })
    };

    traffic(phase(STREAM_WARMUP, false)).run(addr, WARMUP.as_secs_f64(), &noop);
    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let measured = traffic(phase(STREAM_IMAGES, false));
    let before = loads(&registry);
    let run = measured.run(addr, seconds, &noop);
    let after = loads(&registry);
    let (ok, hits) = score(out, &measured, &run, &refs)?;
    record_load(out, &run, ok, hits);
    out.param("loads_in_window", after.0 - before.0);
    out.param("evictions_in_window", after.1 - before.1);
    out.param("checked_subset", "every response");

    if cfg.trace {
        let untraced_p50 = p50_latency(&run);
        for (name, l) in [
            "io.artifact_load_ms.tiny-m5",
            "io.artifact_load_ms.small-m10",
            "io.artifact_load_ms.mid-m17",
        ]
        .into_iter()
        .zip(&load_ms)
        {
            out.set(name, *l);
        }
        out.set("io.artifact_load_ms", median(&load_ms));
        // Pools live only while their model is warm, so each response's
        // pool ring is read right after it (by peek, which leaves the LRU
        // order alone), and the registry's resident bytes sampled with it.
        let traced = traffic(phase(STREAM_IMAGES, true));
        let jobs = Mutex::new(Jobs::new());
        let peak = Mutex::new(registry.resident_bytes());
        let hook = |c: usize, k: usize| {
            if let Some(handle) = registry.peek(REGISTRY[traced.model(c, k)].name) {
                if let Ok(pool) = handle.session().runner() {
                    harvest(
                        &mut jobs.lock().expect("no hook panics holding the jobs lock"),
                        pool.obs().trace(),
                    );
                }
            }
            let mut peak = peak.lock().expect("no hook panics holding the peak lock");
            *peak = (*peak).max(registry.resident_bytes());
        };
        let before = loads(&registry);
        let run = traced.run(addr, seconds, &hook);
        let after = loads(&registry);
        let jobs = jobs.into_inner().expect("load generation has ended");
        score(out, &traced, &run, &refs)?;
        record_http_trace(out, &run, &jobs, 0.0);
        let requests = run.samples.len().max(1) as f64;
        out.set("registry.loads", (after.0 - before.0) as f64);
        out.set("registry.evictions", (after.1 - before.1) as f64);
        out.set(
            "registry.hit_ratio",
            (requests - (after.0 - before.0) as f64).max(0.0) / requests,
        );
        out.set(
            "registry.resident_bytes_peak",
            peak.into_inner().expect("load generation has ended") as f64,
        );
        out.set("trace.overhead_ms.p50", p50_latency(&run) - untraced_p50);
        out.note(
            "engine: the registry builds its backends from artifacts, so no instrumented forward is on \
             this path; engine metrics read 0 and engine time sits inside serve service",
        );
        out.note("io.artifact_load_ms: median of repeated load_backend calls per artifact, outside the timed window");
    }
    drop(server);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traffic<'a>(seed: u64, paths: &'a [String]) -> Traffic<'a> {
        Traffic {
            seed,
            phase: phase(STREAM_IMAGES, false),
            models: &REGISTRY,
            paths,
            weights: &MODEL_WEIGHTS,
        }
    }

    #[test]
    fn identical_seeds_give_identical_traffic() {
        let paths: Vec<String> = REGISTRY
            .iter()
            .map(|r| format!("/v1/models/{}/infer", r.name))
            .collect();
        let (a, b, c) = (traffic(7, &paths), traffic(7, &paths), traffic(8, &paths));
        for conn in 0..WORKERS {
            for k in 0..32 {
                assert_eq!(a.request(conn, k), b.request(conn, k));
                assert_eq!(a.think(conn, k), b.think(conn, k));
                assert_eq!(a.image(conn, k), b.image(conn, k));
            }
        }
        let differs = (0..32).any(|k| a.request(0, k) != c.request(0, k));
        assert!(differs, "another seed gives other inputs");
        // Every request of a run carries a distinct image.
        let mut seen = std::collections::HashSet::new();
        for conn in 0..WORKERS {
            for k in 0..64 {
                let (_, patches, _) = a.image(conn, k);
                let bits: Vec<u32> = patches.iter().map(|v| v.to_bits()).collect();
                assert!(
                    seen.insert(bits),
                    "request {k} on connection {conn} repeats an image"
                );
            }
        }
    }

    #[test]
    fn wire_encodings_match_the_servers() {
        let patches = [0.5f32, -1.25, 3.0, 0.0];
        assert_eq!(
            request_body(&patches, 1),
            ascend_http::encode_infer_request(&patches, 1)
        );
        let logits = Tensor::from_vec(vec![0.1, 0.2, -0.3, 0.4, 1.0, -2.0, 0.0, 9.5], &[2, 4]);
        assert_eq!(
            expected_body(&logits, 2),
            ascend_http::encode_logits(&logits, 2, 4)
        );
    }

    #[test]
    fn think_times_have_the_stated_mean() {
        let paths = vec![String::new(); 3];
        let t = traffic(3, &paths);
        let mean = (0..4000).map(|k| t.think(0, k).as_secs_f64()).sum::<f64>() / 4000.0;
        assert!(
            (mean - THINK_MEAN.as_secs_f64()).abs() < 0.1 * THINK_MEAN.as_secs_f64(),
            "mean {mean}"
        );
    }
}
