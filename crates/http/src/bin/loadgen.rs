//! `loadgen` — the self-hosted stress smoke for `ascend-http`.
//!
//! Boots an [`HttpServer`] in-process over a [`ModelRegistry`] of saved
//! artifacts, hammers it with keep-alive connections round-robin across
//! its models, and verifies the serving contract under overload:
//!
//! * every request is answered `200` or shed with `503 Retry-After` —
//!   nothing is dropped without a response and nothing hangs;
//! * every `200` body is byte-identical to a serial forward of the same
//!   payload on that model (the pool's bit-identity contract survives the
//!   wire, even while LRU eviction thrashes residency);
//! * `/metrics` is live at the end of the run and carries the queue-wait
//!   histogram and every model's registry gauges;
//! * with a `--budget` and two or more round-robin models, at least one
//!   eviction actually happened (the budget was not silently ignored);
//! * with `--trace`, `/debug/trace` is a chrome://tracing export whose
//!   spans cover exactly the `200`s (while no model was evicted);
//! * graceful drain completes (shutdown + join returns).
//!
//! `--engine PATH` is shorthand for `--artifact default=PATH`, pre-warmed
//! before bind as [`HttpServer::bind`] does and driven through the
//! `POST /v1/infer` alias. Exit status is non-zero when any check fails,
//! so CI can run this directly as a gate:
//!
//! ```text
//! loadgen --engine target/smoke/engine.sceng \
//!         --requests 200 --connections 8 --workers 2 --queue-depth 2
//! ```
//!
//! It is a correctness smoke, not a benchmark: performance numbers come
//! from the `perfbench` harness declared in `BENCHMARK.json`.

#![forbid(unsafe_code)]

use std::io::BufReader;
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ascend::serve::ServeConfig;
use ascend::{BackendKind, Session};
use ascend_http::{client, HttpConfig, HttpServer};
use ascend_registry::{ModelRegistry, ModelSpec, RegistryConfig};

struct Args {
    /// The hosted models as `NAME=PATH` pairs, in registration order.
    artifacts: Vec<(String, String)>,
    /// Set by `--engine`: the one model `default` is pre-warmed before
    /// bind and requested through the `POST /v1/infer` alias.
    engine: bool,
    /// Round-robin request targets (default: every registered model, in
    /// registration order).
    models: Vec<String>,
    /// Registry memory budget: byte count, or `single` for
    /// "largest model only" (forces LRU eviction under round-robin).
    budget: Option<String>,
    backend: BackendKind,
    connections: usize,
    requests: usize,
    images: usize,
    workers: usize,
    queue_depth: usize,
    conn_workers: usize,
    trace: bool,
}

const USAGE: &str = "\
loadgen — stress smoke for the ascend-http serving front-end

usage:
    loadgen --engine PATH [options]
    loadgen --artifact NAME=PATH [--artifact NAME=PATH ...] [options]

options:
    --engine PATH       serve one model from artifact PATH as `default`,
                        warm before bind, behind POST /v1/infer
    --artifact N=P      host model N from artifact P behind
                        POST /v1/models/N/infer, cold until first request
                        (repeatable; exclusive with --engine)
    --model NAME        round-robin requests across these models
                        (repeatable; default: all registered models)
    --budget B          registry memory budget in bytes, or `single` to
                        admit only the largest model at a time (forces LRU
                        eviction; the run fails if none happens)
    --backend sc|ref    inference backend (sc; ref needs a checkpoint)
    --requests N        total requests across all connections (200)
    --connections N     concurrent keep-alive client connections (8)
    --images N          images per request (1)
    --workers N         serving-pool worker threads per model (2)
    --queue-depth N     bounded admission queue depth (2; small forces shedding)
    --conn-workers N    server connection-handler threads (4)
    --trace             fetch /debug/trace after the storm and verify the
                        chrome://tracing export covers exactly the 200s
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        artifacts: Vec::new(),
        engine: false,
        models: Vec::new(),
        budget: None,
        backend: BackendKind::Sc,
        connections: 8,
        requests: 200,
        images: 1,
        workers: 2,
        queue_depth: 2,
        conn_workers: 4,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err(USAGE.into());
        }
        if flag == "--trace" {
            args.trace = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("flag {flag} needs a value"))?;
        let parse = |v: &str| v.parse::<usize>().map_err(|_| format!("bad number for {flag}: {v}"));
        match flag.as_str() {
            "--engine" => {
                args.engine = true;
                args.artifacts.push(("default".into(), value));
            }
            "--artifact" => {
                let Some((name, path)) = value.split_once('=') else {
                    return Err(format!("--artifact expects NAME=PATH, got `{value}`"));
                };
                if name.is_empty() || path.is_empty() {
                    return Err(format!("--artifact expects NAME=PATH, got `{value}`"));
                }
                args.artifacts.push((name.to_string(), path.to_string()));
            }
            "--model" => args.models.push(value),
            "--budget" => args.budget = Some(value),
            "--backend" => {
                args.backend = match value.as_str() {
                    "sc" => BackendKind::Sc,
                    "ref" => BackendKind::Ref,
                    other => return Err(format!("unknown backend {other} (want sc|ref)")),
                }
            }
            "--requests" => args.requests = parse(&value)?,
            "--connections" => args.connections = parse(&value)?,
            "--images" => args.images = parse(&value)?,
            "--workers" => args.workers = parse(&value)?,
            "--queue-depth" => args.queue_depth = parse(&value)?,
            "--conn-workers" => args.conn_workers = parse(&value)?,
            other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
        }
    }
    if args.artifacts.is_empty() {
        return Err(format!("--engine or --artifact is required\n\n{USAGE}"));
    }
    if args.engine && args.artifacts.len() > 1 {
        return Err("--engine serves exactly one model; it excludes --artifact".into());
    }
    if args.models.is_empty() {
        args.models = args.artifacts.iter().map(|(n, _)| n.clone()).collect();
    }
    for model in &args.models {
        if !args.artifacts.iter().any(|(n, _)| n == model) {
            return Err(format!("--model {model} names no registered model"));
        }
    }
    if args.requests == 0 || args.connections == 0 || args.images == 0 {
        return Err("--requests, --connections, and --images must be nonzero".into());
    }
    Ok(args)
}

/// One round-robin request target: the URL path plus the payload it
/// carries and the serial-forward bytes every 200 must equal.
struct Target {
    path: String,
    payload: Vec<u8>,
    expected: Vec<u8>,
}

/// Everything one client thread tallies.
#[derive(Default)]
struct Tally {
    ok: AtomicU64,
    shed: AtomicU64,
    shed_without_retry_after: AtomicU64,
    unexpected_status: AtomicU64,
    body_mismatch: AtomicU64,
    io_failures: AtomicU64,
}

/// The one driver: build the targets, bind, run the storm, scrape, drain,
/// and check.
fn run() -> Result<(), String> {
    let args = parse_args()?;

    // Per-model payloads and expected bodies from throwaway serial
    // sessions, computed before the server exists so the reference is
    // independent of everything under test. Also each model's resident
    // size, which `--budget single` needs.
    let mut per_model: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let mut sizes: Vec<usize> = Vec::new();
    for (name, path) in &args.artifacts {
        let session = Session::builder()
            .artifact(path)
            .backend(args.backend)
            .build()
            .map_err(|e| format!("model `{name}`: serial session build failed: {e}"))?;
        let vit = session.backend().vit_config();
        let values = args.images * vit.num_patches() * vit.patch_dim();
        let patches: Vec<f32> =
            (0..values).map(|i| (i % 17) as f32 * 0.0625 - 0.5).collect();
        let payload = ascend_http::encode_infer_request(&patches, args.images);
        let (tensor, images) = ascend_http::decode_infer_request(&payload, vit)
            .map_err(|e| format!("model `{name}`: payload does not decode: {e}"))?;
        let serial = session
            .backend()
            .forward(&tensor, images)
            .map_err(|e| format!("model `{name}`: serial forward failed: {e}"))?;
        let expected = ascend_http::encode_logits(&serial, images, vit.classes);
        sizes.push(session.backend().resident_bytes());
        per_model.push((payload, expected));
    }

    let budget_bytes = match args.budget.as_deref() {
        None => 0,
        // `artifacts` is non-empty here (parse_args requires it), so the
        // max exists; an empty list would mean "unlimited", which is safe.
        Some("single") => sizes.iter().copied().max().unwrap_or(0),
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("--budget wants a byte count or `single`, got `{v}`"))?,
    };

    let serve_cfg = ServeConfig {
        workers: args.workers,
        queue_depth: args.queue_depth,
        ..ServeConfig::default()
    };
    let registry = Arc::new(ModelRegistry::new(RegistryConfig {
        memory_budget_bytes: budget_bytes,
        ..Default::default()
    }));
    for (name, path) in &args.artifacts {
        registry
            .register(ModelSpec::artifact(name.as_str(), path.as_str()).backend(args.backend).serve(serve_cfg))
            .map_err(|e| format!("registering `{name}`: {e}"))?;
    }
    if args.engine {
        registry.acquire("default").map_err(|e| format!("warming `default`: {e}"))?;
    }

    let mut targets = Vec::with_capacity(args.models.len());
    for name in &args.models {
        // parse_args checked every --model against the registrations.
        let Some(i) = args.artifacts.iter().position(|(n, _)| n == name) else {
            return Err(format!("--model {name} names no registered model"));
        };
        let path =
            if args.engine { "/v1/infer".to_string() } else { format!("/v1/models/{name}/infer") };
        let (payload, expected) = per_model[i].clone();
        targets.push(Target { path, payload, expected });
    }
    let targets = Arc::new(targets);

    let mut cfg = HttpConfig::new("127.0.0.1:0");
    cfg.conn_workers = args.conn_workers;
    let server = HttpServer::bind_registry(Arc::clone(&registry), cfg)
        .map_err(|e| format!("bind failed: {e}"))?;
    let addr = server.local_addr();
    eprintln!(
        "loadgen: {} model(s) on {addr}, round-robin over {:?} ({} pool workers, \
         queue depth {}, budget {})",
        args.artifacts.len(),
        args.models,
        args.workers,
        args.queue_depth,
        if budget_bytes == 0 { "unlimited".to_string() } else { format!("{budget_bytes} B") },
    );

    let tally = Arc::new(Tally::default());
    let next = Arc::new(AtomicUsize::new(0));
    let started = Instant::now();
    let mut clients = Vec::with_capacity(args.connections);
    for _ in 0..args.connections {
        let tally = Arc::clone(&tally);
        let next = Arc::clone(&next);
        let targets = Arc::clone(&targets);
        clients.push(std::thread::spawn(move || {
            client_loop(addr, args.requests, &next, &targets, &tally);
        }));
    }
    for c in clients {
        let _ = c.join();
    }
    let wall = started.elapsed();

    // /metrics must be live after the storm.
    let metrics_text = fetch_text(addr, "/metrics")?;
    let trace_json = if args.trace { Some(fetch_text(addr, "/debug/trace")?) } else { None };

    // Graceful drain: this returning IS the assertion.
    server.shutdown_handle().shutdown();
    server.join();

    let ok = tally.ok.load(Ordering::Relaxed);
    let shed = tally.shed.load(Ordering::Relaxed);
    let loads: u64 =
        args.artifacts.iter().map(|(n, _)| registry.loads_total(n).unwrap_or(0)).sum();
    let evictions: u64 =
        args.artifacts.iter().map(|(n, _)| registry.evictions_total(n).unwrap_or(0)).sum();
    eprintln!(
        "loadgen: {} requests in {:.2}s — {ok} ok, {shed} shed (503), \
         {loads} model loads, {evictions} evictions",
        args.requests,
        wall.as_secs_f64(),
    );
    eprintln!("loadgen: final /metrics:\n{metrics_text}");

    let mut failures = Vec::new();
    if ok + shed != args.requests as u64 {
        failures.push(format!(
            "{} of {} requests got neither 200 nor 503",
            args.requests as u64 - (ok + shed),
            args.requests
        ));
    }
    if ok == 0 {
        failures.push("no request succeeded at all".into());
    }
    for (count, what) in [
        (tally.unexpected_status.load(Ordering::Relaxed), "unexpected status"),
        (tally.body_mismatch.load(Ordering::Relaxed), "200 body != serial forward bytes"),
        (tally.shed_without_retry_after.load(Ordering::Relaxed), "503 without Retry-After"),
        (tally.io_failures.load(Ordering::Relaxed), "request dropped on i/o error"),
    ] {
        if count > 0 {
            failures.push(format!("{count} × {what}"));
        }
    }
    if !metrics_text.contains("ascend_http_responses_ok_total") {
        failures.push("/metrics response lacks counters".into());
    }
    if !metrics_text.contains("# TYPE ascend_request_queue_wait_seconds histogram") {
        failures.push("/metrics response lacks the queue-wait histogram".into());
    }
    if !metrics_text.contains("ascend_registry_resident_bytes") {
        failures.push("/metrics lacks the registry residency gauge".into());
    }
    for (name, _) in &args.artifacts {
        let gauge = format!("ascend_model_state{{model=\"{name}\"}}");
        // The pre-warmed `--engine` model is the only one, so nothing can
        // evict it: it must still read warm (2).
        let want = if args.engine { format!("{gauge} 2\n") } else { gauge };
        if !metrics_text.contains(&want) {
            failures.push(format!("/metrics lacks `{want}`"));
        }
    }
    if budget_bytes > 0 && args.models.len() >= 2 && evictions == 0 {
        failures.push(format!(
            "budget {budget_bytes} B with {} round-robin models forced no eviction",
            args.models.len()
        ));
    }
    if let Some(json) = &trace_json {
        check_trace(json, ok, evictions == 0, &mut failures);
    }
    if failures.is_empty() {
        eprintln!("loadgen: PASS");
        Ok(())
    } else {
        Err(format!("loadgen: FAIL\n  {}", failures.join("\n  ")))
    }
}

/// One client thread: keep a connection alive, claim request slots off
/// the shared counter (round-robin over `targets` by slot number), and
/// tally every outcome. Reconnects when the server closes the connection
/// (keep-alive cap, shed, or drain).
fn client_loop(
    addr: std::net::SocketAddr,
    total: usize,
    next: &AtomicUsize,
    targets: &[Target],
    tally: &Tally,
) {
    let mut conn: Option<(BufReader<TcpStream>, TcpStream)> = None;
    loop {
        let slot = next.fetch_add(1, Ordering::Relaxed);
        if slot >= total {
            break;
        }
        let target = &targets[slot % targets.len()];
        // Each claimed slot gets a few attempts so a connection the
        // server closed under us (keep-alive cap) is retried, but a
        // genuinely dead server cannot loop forever.
        let mut answered = false;
        for _attempt in 0..3 {
            if conn.is_none() {
                conn = connect(addr);
            }
            let Some((reader, writer)) = conn.as_mut() else {
                continue;
            };
            if client::write_request(writer, "POST", &target.path, &target.payload, false)
                .is_err()
            {
                conn = None;
                continue;
            }
            let response = match client::read_response(reader) {
                Ok(r) => r,
                Err(_) => {
                    conn = None;
                    continue;
                }
            };
            match response.status {
                200 => {
                    tally.ok.fetch_add(1, Ordering::Relaxed);
                    if response.body != target.expected {
                        tally.body_mismatch.fetch_add(1, Ordering::Relaxed);
                    }
                }
                503 => {
                    tally.shed.fetch_add(1, Ordering::Relaxed);
                    if response.header("retry-after").is_none() {
                        tally.shed_without_retry_after.fetch_add(1, Ordering::Relaxed);
                    }
                }
                _ => {
                    tally.unexpected_status.fetch_add(1, Ordering::Relaxed);
                }
            }
            if response.wants_close() {
                conn = None;
            }
            answered = true;
            break;
        }
        if !answered {
            tally.io_failures.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn connect(addr: std::net::SocketAddr) -> Option<(BufReader<TcpStream>, TcpStream)> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2)).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(10))).ok()?;
    stream.set_write_timeout(Some(Duration::from_secs(10))).ok()?;
    let reader = BufReader::new(stream.try_clone().ok()?);
    Some((reader, stream))
}

fn fetch_text(addr: std::net::SocketAddr, path: &str) -> Result<String, String> {
    let (mut reader, mut writer) =
        connect(addr).ok_or_else(|| format!("could not connect for {path}"))?;
    client::write_request(&mut writer, "GET", path, &[], true)
        .map_err(|e| format!("{path} write failed: {e}"))?;
    let response =
        client::read_response(&mut reader).map_err(|e| format!("{path} read failed: {e}"))?;
    if response.status != 200 {
        return Err(format!("{path} answered {}", response.status));
    }
    String::from_utf8(response.body).map_err(|_| format!("{path} body is not utf-8"))
}

/// Validates the `/debug/trace` chrome://tracing export against the run's
/// outcome: well-formed envelope, paired queue-wait/service spans, and —
/// because shed requests are never claimed by a worker — span counts that
/// match the number of 200s exactly (modulo the bounded ring). Exact
/// coverage needs every serving pool still warm (`none_evicted`): an
/// eviction drops that model's pool and its trace ring with it.
fn check_trace(json: &str, ok: u64, none_evicted: bool, failures: &mut Vec<String>) {
    if !json.starts_with("{\"traceEvents\":[") || !json.trim_end().ends_with('}') {
        failures.push("/debug/trace is not a chrome traceEvents object".into());
        return;
    }
    if !json.contains("\"displayTimeUnit\"") {
        failures.push("/debug/trace lacks displayTimeUnit".into());
    }
    let count = |needle: &str| json.matches(needle).count() as u64;
    let queue_spans = count("\"name\":\"queue_wait\"");
    let service_spans = count("\"name\":\"service\"");
    if queue_spans != service_spans {
        failures.push(format!(
            "trace has {queue_spans} queue_wait spans but {service_spans} service spans"
        ));
    }
    if !none_evicted {
        // An evicted model took its ring along: only the pairing holds.
        return;
    }
    // The ring is bounded, so only expect exact coverage while it cannot
    // have wrapped; past that, it must still be non-empty.
    let ring = ascend::serve::TRACE_SPAN_CAPACITY as u64;
    if 2 * ok <= ring {
        if queue_spans != ok {
            failures.push(format!(
                "trace covers {queue_spans} requests but {ok} got a 200 \
                 (shed requests must leave no spans)"
            ));
        }
    } else if queue_spans == 0 && ok > 0 {
        failures.push("trace is empty despite served requests".into());
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
