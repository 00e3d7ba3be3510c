//! End-to-end contract of the HTTP front-end, over real sockets:
//! protocol errors get the right status codes, keep-alive works and is
//! capped, a full admission queue sheds with `503 Retry-After` instead of
//! blocking, a connection shed at a full backlog reads its `503` and a
//! clean EOF, a dead pool answers `503` instead of hanging, a fresh
//! connection is accepted at once, shutdown is prompt and idempotent and
//! not held up by an idle connection in the backlog,
//! graceful drain completes in-flight work, and `200` bodies are
//! bit-identical to the in-process serial forward — also under a
//! many-connection storm, for one model and for two models thrashing one
//! memory budget.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "an integration test fails by panicking, helpers included"
)]

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ascend::engine::EngineConfig;
use ascend::fixture::{engine_or_load, FixtureRecipe};
use ascend::serve::{ServeConfig, TRACE_SPAN_CAPACITY};
use ascend::{ForwardScratch, InferenceBackend, ScEngine, Session};
use ascend_http::{client, HttpConfig, HttpServer};
use ascend_registry::{ModelRegistry, ModelSpec, RegistryConfig};
use ascend_vit::data::Dataset;
use ascend_vit::{PrecisionPlan, VitConfig};
use sc_core::ScError;

/// The wall clock, for this test's deadlines and latency checks. It is the
/// one sanctioned clock read here, so the crate keeps the rest of the
/// `disallowed_methods` ban (a bare `Condvar::wait` among them).
#[expect(
    clippy::disallowed_methods,
    reason = "a test's deadlines and latency checks read the clock"
)]
fn now() -> Instant {
    Instant::now()
}

fn tiny_vit() -> VitConfig {
    VitConfig { image: 8, patch: 4, dim: 16, layers: 1, heads: 2, classes: 2, ..Default::default() }
}

/// A controllable backend: `forward_one` blocks until the gate opens,
/// then echoes `[sum, -sum]` of its input — tests hold the pool stalled
/// to observe admission behavior, then open the gate to drain.
struct GatedBackend {
    cfg: VitConfig,
    plan: PrecisionPlan,
    gate: Mutex<bool>,
    opened: Condvar,
}

impl GatedBackend {
    fn new(open: bool) -> Self {
        GatedBackend {
            cfg: tiny_vit(),
            plan: PrecisionPlan::fp(),
            gate: Mutex::new(open),
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
    fn make_scratch(&self) -> ForwardScratch {
        ForwardScratch::empty()
    }
    fn forward_one(
        &self,
        patches: &[f32],
        _scratch: &mut ForwardScratch,
        _observer: &mut dyn ascend_obs::StageObserver,
    ) -> Result<Vec<f32>, ScError> {
        let open = match self.gate.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let open = match self.opened.wait_while(open, |open| !*open) {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        drop(open);
        let sum: f32 = patches.iter().sum();
        Ok(vec![sum, -sum])
    }
}

/// A backend whose worker dies on first contact — for proving that a
/// pool with no live workers surfaces `503`, never a hang.
struct PanickingBackend {
    cfg: VitConfig,
    plan: PrecisionPlan,
}

impl InferenceBackend for PanickingBackend {
    fn name(&self) -> &str {
        "panicking"
    }
    fn vit_config(&self) -> &VitConfig {
        &self.cfg
    }
    fn plan(&self) -> &PrecisionPlan {
        &self.plan
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
        panic!("worker down (intentional, this test kills the pool)");
    }
}

fn gated_server(
    open: bool,
    queue_depth: usize,
    cfg: HttpConfig,
) -> (HttpServer, Arc<GatedBackend>, Arc<Session>) {
    let backend = Arc::new(GatedBackend::new(open));
    let session = Arc::new(
        Session::from_shared_backend(
            Arc::clone(&backend) as Arc<dyn InferenceBackend>,
            ServeConfig { workers: 1, micro_batch: 1, queue_depth },
        )
        .expect("session builds"),
    );
    let server = HttpServer::bind(Arc::clone(&session), cfg).expect("server binds");
    (server, backend, session)
}

fn short_timeouts(mut cfg: HttpConfig) -> HttpConfig {
    cfg.read_timeout = Duration::from_millis(300);
    cfg.write_timeout = Duration::from_secs(2);
    cfg
}

fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2)).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    stream.set_write_timeout(Some(Duration::from_secs(10))).expect("write timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (reader, stream)
}

/// One request's payload for the gated backend's geometry: `p × pd`
/// scalars all equal to `v`, so the expected logits are `[v·p·pd, -v·p·pd]`.
fn gated_payload(v: f32) -> Vec<u8> {
    let cfg = tiny_vit();
    let n = cfg.num_patches() * cfg.patch_dim();
    ascend_http::encode_infer_request(&vec![v; n], 1)
}

fn wait_until(what: &str, deadline: Duration, mut done: impl FnMut() -> bool) {
    let start = now();
    while !done() {
        assert!(start.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn keep_alive_reuses_a_connection_and_caps_it() {
    let mut cfg = HttpConfig::new("127.0.0.1:0");
    cfg.keep_alive_requests = 3;
    let (server, _backend, _session) = gated_server(true, 4, cfg);
    let (mut reader, mut writer) = connect(server.local_addr());

    // Three requests ride one connection; the third hits the cap and the
    // server announces the close.
    for i in 0..3 {
        client::write_request(&mut writer, "GET", "/healthz", &[], false).expect("write");
        let response = client::read_response(&mut reader).expect("response");
        assert_eq!(response.status, 200, "request {i}");
        assert_eq!(response.wants_close(), i == 2, "request {i} close flag");
    }
    // The server hung up: the next read sees EOF, not a stall.
    client::write_request(&mut writer, "GET", "/healthz", &[], false).ok();
    assert!(client::read_response(&mut reader).is_err(), "connection must be closed");
    server.join();
}

#[test]
fn protocol_errors_get_typed_statuses() {
    use std::io::Write;
    let mut cfg = short_timeouts(HttpConfig::new("127.0.0.1:0"));
    cfg.max_header_bytes = 256;
    let (server, _backend, _session) = gated_server(true, 4, cfg);
    let addr = server.local_addr();

    // Malformed request line → 400.
    let (mut reader, mut writer) = connect(addr);
    writer.write_all(b"utter garbage\r\n\r\n").expect("write");
    let response = client::read_response(&mut reader).expect("response");
    assert_eq!(response.status, 400);
    assert!(response.wants_close());

    // Header block over the limit → 431.
    let (mut reader, mut writer) = connect(addr);
    let big = "x".repeat(400);
    writer
        .write_all(format!("GET / HTTP/1.1\r\nbloat: {big}\r\n\r\n").as_bytes())
        .expect("write");
    assert_eq!(client::read_response(&mut reader).expect("response").status, 431);

    // Wrong method on a real route → 405 with Allow.
    let (mut reader, mut writer) = connect(addr);
    client::write_request(&mut writer, "GET", "/v1/infer", &[], false).expect("write");
    let response = client::read_response(&mut reader).expect("response");
    assert_eq!(response.status, 405);
    assert_eq!(response.header("allow"), Some("POST"));

    // Unknown path → 404.
    client::write_request(&mut writer, "POST", "/nope", &[], false).expect("write");
    assert_eq!(client::read_response(&mut reader).expect("response").status, 404);

    // HTTP/1.0 → 505.
    let (mut reader, mut writer) = connect(addr);
    writer.write_all(b"GET / HTTP/1.0\r\n\r\n").expect("write");
    assert_eq!(client::read_response(&mut reader).expect("response").status, 505);

    // Body over the limit → 413, rejected on the declared length alone.
    let (mut reader, mut writer) = connect(addr);
    writer
        .write_all(b"POST /v1/infer HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n")
        .expect("write");
    assert_eq!(client::read_response(&mut reader).expect("response").status, 413);

    // POST without content-length → 411.
    let (mut reader, mut writer) = connect(addr);
    writer.write_all(b"POST /v1/infer HTTP/1.1\r\n\r\n").expect("write");
    assert_eq!(client::read_response(&mut reader).expect("response").status, 411);

    // A malformed infer body on the happy route → 400, not a hang.
    let (mut reader, mut writer) = connect(addr);
    client::write_request(&mut writer, "POST", "/v1/infer", &[1, 2, 3], false).expect("write");
    let response = client::read_response(&mut reader).expect("response");
    assert_eq!(response.status, 400);

    server.join();
}

#[test]
fn stalled_request_hits_the_read_deadline_with_408() {
    use std::io::Write;
    let cfg = short_timeouts(HttpConfig::new("127.0.0.1:0"));
    let (server, _backend, _session) = gated_server(true, 4, cfg);
    let (mut reader, mut writer) = connect(server.local_addr());
    // A few bytes of a request line, then silence: the 300ms read
    // deadline must expire and answer 408 — never hold the handler.
    writer.write_all(b"POS").expect("write");
    let started = now();
    let response = client::read_response(&mut reader).expect("response");
    assert_eq!(response.status, 408);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "deadline response took {:?}",
        started.elapsed()
    );
    server.join();
}

#[test]
fn full_queue_sheds_with_503_retry_after_and_drains_clean() {
    // One pool worker, queue depth 1, gate closed: request A stalls the
    // worker, B fills the queue, C must be shed immediately.
    let (server, backend, session) =
        gated_server(false, 1, HttpConfig::new("127.0.0.1:0"));
    let addr = server.local_addr();
    let pool = session.runner().expect("pool");

    let (mut reader_a, mut writer_a) = connect(addr);
    client::write_request(&mut writer_a, "POST", "/v1/infer", &gated_payload(1.0), false)
        .expect("write A");
    // A is admitted and picked up by the (stalled) worker.
    wait_until("A in flight", Duration::from_secs(5), || pool.in_flight() == 1);

    let (mut reader_b, mut writer_b) = connect(addr);
    client::write_request(&mut writer_b, "POST", "/v1/infer", &gated_payload(2.0), false)
        .expect("write B");
    // B occupies the single queue slot.
    wait_until("B queued", Duration::from_secs(5), || pool.queued() == 1);

    // C: the queue is full — non-blocking admission must answer 503 with
    // Retry-After *now*, while the pool is still wedged.
    let (mut reader_c, mut writer_c) = connect(addr);
    client::write_request(&mut writer_c, "POST", "/v1/infer", &gated_payload(3.0), false)
        .expect("write C");
    let started = now();
    let shed = client::read_response(&mut reader_c).expect("C response");
    assert_eq!(shed.status, 503, "full queue must shed");
    assert_eq!(shed.header("retry-after"), Some("1"));
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "shedding took {:?}, admission must not block",
        started.elapsed()
    );

    // Metrics are live mid-overload and see the queue.
    let (mut reader_m, mut writer_m) = connect(addr);
    client::write_request(&mut writer_m, "GET", "/metrics", &[], true).expect("write metrics");
    let metrics = client::read_response(&mut reader_m).expect("metrics");
    let text = String::from_utf8(metrics.body).expect("utf-8");
    assert!(text.contains("ascend_queue_depth 1\n"), "{text}");
    assert!(text.contains("ascend_queue_capacity 1\n"), "{text}");
    assert!(text.contains("ascend_in_flight 1\n"), "{text}");
    assert!(text.contains("ascend_http_shed_total 1\n"), "{text}");

    // Open the gate: A and B were never dropped and complete with the
    // right payloads, in order.
    backend.open();
    let n = tiny_vit().num_patches() * tiny_vit().patch_dim();
    for (reader, v) in [(&mut reader_a, 1.0f32), (&mut reader_b, 2.0f32)] {
        let response = client::read_response(reader).expect("drained response");
        assert_eq!(response.status, 200);
        let (images, classes, logits) =
            ascend_http::decode_logits(&response.body).expect("logits decode");
        assert_eq!((images, classes), (1, 2));
        let want = v * n as f32;
        assert_eq!(logits, vec![want, -want]);
    }
    server.join();
}

#[test]
fn traces_cover_every_200_and_never_a_shed() {
    // Same overload shape as the shedding test: A stalls the worker, B
    // queues, C is shed. After the drain, the two served requests — and
    // only they — must have queue-wait and service spans in /debug/trace,
    // and /metrics must carry the queue-wait/service histogram split.
    let (server, backend, session) =
        gated_server(false, 1, HttpConfig::new("127.0.0.1:0"));
    let addr = server.local_addr();
    let pool = session.runner().expect("pool");

    let (mut reader_a, mut writer_a) = connect(addr);
    client::write_request(&mut writer_a, "POST", "/v1/infer", &gated_payload(1.0), false)
        .expect("write A");
    wait_until("A in flight", Duration::from_secs(5), || pool.in_flight() == 1);
    let (mut reader_b, mut writer_b) = connect(addr);
    client::write_request(&mut writer_b, "POST", "/v1/infer", &gated_payload(2.0), false)
        .expect("write B");
    wait_until("B queued", Duration::from_secs(5), || pool.queued() == 1);
    let (mut reader_c, mut writer_c) = connect(addr);
    client::write_request(&mut writer_c, "POST", "/v1/infer", &gated_payload(3.0), false)
        .expect("write C");
    assert_eq!(client::read_response(&mut reader_c).expect("C response").status, 503);

    backend.open();
    for reader in [&mut reader_a, &mut reader_b] {
        assert_eq!(client::read_response(reader).expect("drained").status, 200);
    }

    // /metrics: the pool's queue-wait and service histograms saw exactly
    // the two served requests; the shed one never reached a worker.
    let (mut reader_m, mut writer_m) = connect(addr);
    client::write_request(&mut writer_m, "GET", "/metrics", &[], false).expect("write metrics");
    let metrics = client::read_response(&mut reader_m).expect("metrics");
    let text = String::from_utf8(metrics.body).expect("utf-8");
    assert!(text.contains("# TYPE ascend_request_queue_wait_seconds histogram"), "{text}");
    assert!(text.contains("ascend_request_queue_wait_seconds_count 2\n"), "{text}");
    assert!(text.contains("ascend_request_service_seconds_count 2\n"), "{text}");
    assert!(text.contains("ascend_http_request_seconds_count 2\n"), "{text}");
    // The single model is served through the registry as `default`.
    assert!(text.contains("ascend_model_state{model=\"default\"} 2\n"), "{text}");

    // /debug/trace: chrome://tracing JSON with one queue_wait and one
    // service span per 200, two distinct trace ids, and nothing from C.
    client::write_request(&mut writer_m, "GET", "/debug/trace", &[], true).expect("write trace");
    let trace = client::read_response(&mut reader_m).expect("trace");
    assert_eq!(trace.status, 200);
    assert_eq!(trace.header("content-type"), Some("application/json"));
    let json = String::from_utf8(trace.body).expect("utf-8");
    assert!(json.starts_with("{\"traceEvents\":["), "{json}");
    assert!(json.trim_end().ends_with('}'), "{json}");
    assert_eq!(json.matches("\"name\":\"queue_wait\"").count(), 2, "{json}");
    assert_eq!(json.matches("\"name\":\"service\"").count(), 2, "{json}");
    let mut ids: Vec<&str> = json
        .split("\"trace_id\":")
        .skip(1)
        .map(|s| s.split(|c: char| !c.is_ascii_digit()).next().unwrap_or(""))
        .collect();
    assert_eq!(ids.len(), 4, "two spans per served request: {json}");
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 2, "one trace id per request, none leaked for the shed: {json}");
    server.join();
}

#[test]
fn dead_pool_answers_503_never_hangs() {
    let backend: Arc<dyn InferenceBackend> =
        Arc::new(PanickingBackend { cfg: tiny_vit(), plan: PrecisionPlan::fp() });
    let session = Arc::new(
        Session::from_shared_backend(
            backend,
            ServeConfig { workers: 1, micro_batch: 1, queue_depth: 2 },
        )
        .expect("session builds"),
    );
    let server =
        HttpServer::bind(Arc::clone(&session), HttpConfig::new("127.0.0.1:0")).expect("binds");
    let addr = server.local_addr();

    // First request kills the only worker mid-service; the reply channel
    // drops and the response must be 503, not a hang.
    let (mut reader, mut writer) = connect(addr);
    client::write_request(&mut writer, "POST", "/v1/infer", &gated_payload(1.0), false)
        .expect("write");
    let started = now();
    let response = client::read_response(&mut reader).expect("response");
    assert_eq!(response.status, 503, "dead worker must surface as 503");
    assert!(started.elapsed() < Duration::from_secs(5));

    // With zero live workers, later submits see the disconnected queue:
    // still 503, still immediate.
    let (mut reader, mut writer) = connect(addr);
    client::write_request(&mut writer, "POST", "/v1/infer", &gated_payload(2.0), false)
        .expect("write");
    let response = client::read_response(&mut reader).expect("response");
    assert_eq!(response.status, 503, "pool-gone must surface as 503");
    assert_eq!(response.header("retry-after"), Some("1"));
    server.join();
}

#[test]
fn graceful_drain_completes_in_flight_work() {
    let (server, backend, session) =
        gated_server(false, 4, HttpConfig::new("127.0.0.1:0"));
    let addr = server.local_addr();
    let pool = session.runner().expect("pool");

    let (mut reader, mut writer) = connect(addr);
    client::write_request(&mut writer, "POST", "/v1/infer", &gated_payload(5.0), false)
        .expect("write");
    wait_until("request in flight", Duration::from_secs(5), || pool.in_flight() == 1);

    // Shutdown lands while the request is mid-service; the drain must
    // still deliver its response before the connection closes.
    let handle = server.shutdown_handle();
    handle.shutdown();
    assert!(handle.is_shutdown());
    backend.open();
    let response = client::read_response(&mut reader).expect("drained response");
    assert_eq!(response.status, 200, "in-flight work must complete through drain");
    assert!(response.wants_close(), "drain responses announce the close");
    server.join();

    // And the listener is really gone.
    assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
}

#[test]
fn fresh_connections_are_served_without_an_accept_wait() {
    // The accept thread blocks in `accept`, so a new connection is taken
    // the moment it arrives: a fresh connection's whole round trip costs
    // well under a millisecond, with no poll interval sampled at a random
    // phase in front of it.
    let (server, _backend, _session) = gated_server(true, 4, HttpConfig::new("127.0.0.1:0"));
    let addr = server.local_addr();
    let mut round_trips: Vec<Duration> = (0..40)
        .map(|_| {
            let started = now();
            let (mut reader, mut writer) = connect(addr);
            client::write_request(&mut writer, "GET", "/healthz", &[], true).expect("write");
            assert_eq!(client::read_response(&mut reader).expect("response").status, 200);
            started.elapsed()
        })
        .collect();
    round_trips.sort_unstable();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(1),
        "median connect → GET /healthz → 200 took {median:?}: {round_trips:?}"
    );
    server.join();
}

#[test]
fn idle_server_shuts_down_promptly_from_another_thread() {
    let (server, _backend, _session) = gated_server(true, 4, HttpConfig::new("127.0.0.1:0"));
    let handle = server.shutdown_handle();
    let started = now();
    std::thread::spawn(move || handle.shutdown()).join().expect("shutdown thread");
    server.join();
    assert!(started.elapsed() < Duration::from_secs(1), "idle drain took {:?}", started.elapsed());
}

#[test]
fn shutdown_is_idempotent_before_and_after_join() {
    let (server, _backend, _session) = gated_server(true, 4, HttpConfig::new("127.0.0.1:0"));
    let handle = server.shutdown_handle();
    handle.shutdown();
    handle.shutdown();
    assert!(handle.is_shutdown());
    server.join();
    handle.shutdown();
    assert!(handle.is_shutdown());
}

#[test]
fn server_on_an_unspecified_address_serves_and_drains() {
    // The wake connection for an unspecified bind address goes to
    // loopback of its family.
    let (server, _backend, _session) = gated_server(true, 4, HttpConfig::new("0.0.0.0:0"));
    let addr = SocketAddr::from(([127, 0, 0, 1], server.local_addr().port()));
    assert!(server.local_addr().ip().is_unspecified());
    assert_eq!(fetch_text(addr, "/healthz"), "default=warm\n");
    let started = now();
    server.join();
    assert!(started.elapsed() < Duration::from_secs(1), "drain took {:?}", started.elapsed());
}

#[test]
fn connections_shed_at_a_full_backlog_read_their_503_then_a_clean_eof() {
    use std::io::Read;
    let mut cfg = HttpConfig::new("127.0.0.1:0");
    cfg.conn_workers = 1;
    let (server, _backend, _session) = gated_server(true, 4, cfg);
    let addr = server.local_addr();

    // The only handler holds a keep-alive connection, and an idle
    // connection fills the one-slot hand-off backlog behind it.
    let (mut held_reader, mut held_writer) = connect(addr);
    client::write_request(&mut held_writer, "GET", "/healthz", &[], false).expect("write");
    assert_eq!(client::read_response(&mut held_reader).expect("response").status, 200);
    let idle = connect(addr);

    // Every further connection is shed. Its request is still unread when
    // the server is done with it, yet the client, reading late, must see
    // the whole 503 and then a clean EOF, not a reset.
    for i in 0..20 {
        let (mut reader, mut writer) = connect(addr);
        client::write_request(&mut writer, "GET", "/healthz", &[], false).expect("write");
        std::thread::sleep(Duration::from_millis(30));
        let response = client::read_response(&mut reader).expect("shed response");
        assert_eq!(response.status, 503, "connection {i}");
        assert_eq!(response.header("retry-after"), Some("1"), "connection {i}");
        assert!(response.wants_close(), "connection {i}");
        let mut rest = Vec::new();
        let tail = reader.read_to_end(&mut rest);
        assert!(
            matches!(tail, Ok(0)),
            "connection {i}: after the 503 want a clean EOF, got {tail:?}"
        );
    }
    drop((held_reader, held_writer, idle));
    server.join();
}

#[test]
fn an_idle_backlog_connection_does_not_hold_up_join() {
    let mut cfg = HttpConfig::new("127.0.0.1:0");
    cfg.conn_workers = 1;
    let (server, _backend, _session) = gated_server(true, 4, cfg);
    let addr = server.local_addr();

    // The only handler holds a keep-alive connection, and an idle
    // connection waits in the one-slot hand-off backlog behind it.
    let (mut held_reader, mut held_writer) = connect(addr);
    client::write_request(&mut held_writer, "GET", "/healthz", &[], false).expect("write");
    assert_eq!(client::read_response(&mut held_reader).expect("response").status, 200);
    let (mut idle_reader, _idle_writer) = connect(addr);
    std::thread::sleep(Duration::from_millis(50));

    // Drain begins, then the held connection goes away. The handler takes
    // the idle connection next; it has sent nothing, so it is closed after
    // a short read instead of being waited on for the 5 s read deadline.
    let started = now();
    server.shutdown_handle().shutdown();
    drop((held_reader, held_writer));
    server.join();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "join took {took:?}");
    assert!(client::read_response(&mut idle_reader).is_err(), "idle connection must be closed");
}

#[test]
fn an_idle_keep_alive_connection_does_not_hold_up_join() {
    let mut cfg = HttpConfig::new("127.0.0.1:0");
    cfg.read_timeout = Duration::from_secs(5);
    let (server, _backend, _session) = gated_server(true, 4, cfg);

    // One exchange, then the connection stays open and idle: its handler
    // is waiting for the next request's first byte.
    let (mut reader, mut writer) = connect(server.local_addr());
    client::write_request(&mut writer, "GET", "/healthz", &[], false).expect("write");
    let response = client::read_response(&mut reader).expect("response");
    assert_eq!(response.status, 200);
    assert!(!response.wants_close(), "the connection must be kept alive");
    std::thread::sleep(Duration::from_millis(50));

    // Drain must close the idle connection at once, not after the 5 s
    // read deadline.
    let started = now();
    server.shutdown_handle().shutdown();
    server.join();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "join took {took:?}");
    assert!(client::read_response(&mut reader).is_err(), "idle connection must be closed");
}

#[test]
fn non_inference_200s_are_not_counted_as_server_errors() {
    let (server, _backend, _session) = gated_server(true, 4, HttpConfig::new("127.0.0.1:0"));
    let addr = server.local_addr();
    for path in ["/metrics", "/healthz", "/debug/trace"] {
        fetch_text(addr, path);
    }
    let metrics = fetch_text(addr, "/metrics");
    assert!(metrics.contains("ascend_http_server_error_total 0\n"), "{metrics}");
    server.join();
}

/// The cached `http-tiny` SC engine under `config`, plus its test set.
fn tiny_engine(config: EngineConfig) -> (ScEngine, Dataset) {
    let mut recipe = FixtureRecipe::tiny("http-tiny", 5);
    recipe.n_train = 48;
    recipe.n_test = 24;
    recipe.pre_epochs = 2;
    recipe.qat_epochs = 0;
    let (engine, _train, test) = engine_or_load(&recipe, config).expect("tiny engine compiles");
    (engine, test)
}

#[test]
fn http_logits_are_bit_identical_to_the_serial_forward() {
    let (engine, test) = tiny_engine(EngineConfig::default());
    let engine = Arc::new(engine);

    let n = 3usize;
    let patches = test.patches(&(0..n).collect::<Vec<_>>(), 4);
    let serial = engine.forward(&patches, n).expect("serial forward");
    let classes = engine.vit_config().classes;
    let expected = ascend_http::encode_logits(&serial, n, classes);

    let session = Arc::new(
        Session::from_shared_backend(
            Arc::clone(&engine) as Arc<dyn InferenceBackend>,
            ServeConfig { workers: 2, micro_batch: 4, queue_depth: 8 },
        )
        .expect("session builds"),
    );
    let server =
        HttpServer::bind(Arc::clone(&session), HttpConfig::new("127.0.0.1:0")).expect("binds");
    let payload = ascend_http::encode_infer_request(patches.data(), n);

    // Twice over one keep-alive connection, on the alias and on the
    // registry route it names: byte-for-byte the serial logits every time
    // — the wire adds nothing and loses nothing.
    let (mut reader, mut writer) = connect(server.local_addr());
    for round in 0..2 {
        for route in ["/v1/infer", "/v1/models/default/infer"] {
            client::write_request(&mut writer, "POST", route, &payload, false).expect("write");
            let response = client::read_response(&mut reader).expect("response");
            assert_eq!(response.status, 200, "round {round} {route}");
            assert_eq!(
                response.body, expected,
                "round {round} {route}: HTTP logits differ from the serial forward bytes"
            );
        }
    }
    server.join();
}

/// One storm route: its path, its payload, and the serial-forward bytes
/// every `200` on it must equal.
struct Target {
    path: String,
    payload: Vec<u8>,
    expected: Vec<u8>,
}

impl Target {
    /// Image 0 of `test` on `path`, answered as `engine`'s serial forward.
    fn new(path: &str, engine: &ScEngine, test: &Dataset) -> Self {
        let patches = test.patches(&[0], engine.vit_config().patch);
        let serial = engine.forward(&patches, 1).expect("serial forward");
        Target {
            path: path.to_string(),
            payload: ascend_http::encode_infer_request(patches.data(), 1),
            expected: ascend_http::encode_logits(&serial, 1, engine.vit_config().classes),
        }
    }
}

/// What a storm's clients saw, summed over every client thread.
#[derive(Debug, Default)]
struct Tally {
    ok: usize,
    shed: usize,
    shed_without_retry_after: usize,
    other_status: usize,
    body_mismatch: usize,
    dropped: usize,
}

impl Tally {
    /// The serving contract under overload: every request is answered
    /// `200` with the serial-forward bytes, or shed `503 Retry-After`;
    /// nothing is dropped, and the storm is not all sheds.
    fn assert_contract(&self, requests: usize) {
        assert_eq!(self.ok + self.shed, requests, "{self:?}");
        assert_eq!(self.shed_without_retry_after, 0, "503 without Retry-After: {self:?}");
        assert_eq!(self.other_status, 0, "status other than 200/503: {self:?}");
        assert_eq!(self.body_mismatch, 0, "200 body != serial forward bytes: {self:?}");
        assert_eq!(self.dropped, 0, "request dropped on an i/o error: {self:?}");
        assert!(self.ok > 0, "no request was served: {self:?}");
    }
}

/// Sends `requests` requests from `connections` keep-alive client
/// threads. Each claims slots off one shared counter and posts slot `i`
/// to `targets[i % len]`. A client reconnects only when the server
/// announces a close; a request that meets an i/o error is counted as
/// dropped, never retried.
fn storm(addr: SocketAddr, connections: usize, requests: usize, targets: &[Target]) -> Tally {
    let next = AtomicUsize::new(0);
    let client = || {
        let mut tally = Tally::default();
        let mut conn = None;
        loop {
            let slot = next.fetch_add(1, Ordering::Relaxed);
            if slot >= requests {
                return tally;
            }
            let target = &targets[slot % targets.len()];
            let (reader, writer) = conn.get_or_insert_with(|| connect(addr));
            let response =
                client::write_request(writer, "POST", &target.path, &target.payload, false)
                    .and_then(|()| client::read_response(reader));
            let Ok(response) = response else {
                tally.dropped += 1;
                conn = None;
                continue;
            };
            match response.status {
                200 => {
                    tally.ok += 1;
                    tally.body_mismatch += usize::from(response.body != target.expected);
                }
                503 => {
                    tally.shed += 1;
                    tally.shed_without_retry_after +=
                        usize::from(response.header("retry-after").is_none());
                }
                _ => tally.other_status += 1,
            }
            if response.wants_close() {
                conn = None;
            }
        }
    };
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..connections).map(|_| s.spawn(client)).collect();
        clients.into_iter().fold(Tally::default(), |mut sum, c| {
            let t = c.join().expect("storm client");
            sum.ok += t.ok;
            sum.shed += t.shed;
            sum.shed_without_retry_after += t.shed_without_retry_after;
            sum.other_status += t.other_status;
            sum.body_mismatch += t.body_mismatch;
            sum.dropped += t.dropped;
            sum
        })
    })
}

/// A server config with `handlers` connection-handler threads.
fn storm_config(handlers: usize) -> HttpConfig {
    let mut cfg = HttpConfig::new("127.0.0.1:0");
    cfg.conn_workers = handlers;
    cfg
}

/// One `GET` on a fresh connection, as text.
fn fetch_text(addr: SocketAddr, path: &str) -> String {
    let (mut reader, mut writer) = connect(addr);
    client::write_request(&mut writer, "GET", path, &[], true).expect("write");
    let response = client::read_response(&mut reader).expect("response");
    assert_eq!(response.status, 200, "{path}");
    String::from_utf8(response.body).expect("utf-8")
}

#[test]
fn storm_on_one_model_is_answered_bit_identically_or_shed() {
    // Eight keep-alive clients against four connection handlers and two
    // workers behind a queue of two: admission sheds, a client beyond the
    // handlers waits in the backlog or has its connection shed (and reads
    // that 503 in full), and every 200 still carries the serial bytes.
    let (engine, test) = tiny_engine(EngineConfig::default());
    let targets = [Target::new("/v1/infer", &engine, &test)];
    let session = Arc::new(
        Session::from_shared_backend(
            Arc::new(engine) as Arc<dyn InferenceBackend>,
            ServeConfig { workers: 2, queue_depth: 2, ..ServeConfig::default() },
        )
        .expect("session builds"),
    );
    let server = HttpServer::bind(session, storm_config(4)).expect("binds");
    let addr = server.local_addr();

    let requests = 120;
    let tally = storm(addr, 8, requests, &targets);
    tally.assert_contract(requests);

    let metrics = fetch_text(addr, "/metrics");
    assert!(metrics.contains("ascend_model_state{model=\"default\"} 2\n"), "{metrics}");
    assert!(
        metrics.contains(&format!("ascend_http_responses_ok_total {}\n", tally.ok)),
        "server and clients disagree on the 200s ({tally:?}): {metrics}"
    );
    // A shed request never reaches a worker, so it leaves no span: while
    // the ring cannot have wrapped, the spans are exactly the 200s.
    assert!(2 * tally.ok <= TRACE_SPAN_CAPACITY);
    let trace = fetch_text(addr, "/debug/trace");
    assert_eq!(trace.matches("\"name\":\"queue_wait\"").count(), tally.ok, "{tally:?}");
    assert_eq!(trace.matches("\"name\":\"service\"").count(), tally.ok, "{tally:?}");
    server.join();
}

#[test]
fn storm_across_two_models_under_a_one_model_budget_evicts_and_stays_bit_identical() {
    // Two SC configurations compiled from one cached checkpoint, served
    // from artifact files under a budget that admits only the larger:
    // round-robin clients force LRU eviction and cold re-loads mid-storm.
    let (alpha, test) = tiny_engine(EngineConfig::default());
    let (beta, _) = tiny_engine(EngineConfig {
        softmax_by: 8,
        softmax_s1: 32,
        softmax_s2: 8,
        softmax_k: 4,
        ..EngineConfig::default()
    });
    let targets = [
        Target::new("/v1/models/alpha/infer", &alpha, &test),
        Target::new("/v1/models/beta/infer", &beta, &test),
    ];
    assert_ne!(
        targets[0].expected, targets[1].expected,
        "the two models must answer differently for a mix-up to show"
    );
    let dir = std::env::temp_dir().join(format!("ascend-http-storm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let budget = alpha.resident_bytes().max(beta.resident_bytes());
    let registry = Arc::new(ModelRegistry::new(RegistryConfig {
        memory_budget_bytes: budget,
        ..Default::default()
    }));
    for (name, engine) in [("alpha", &alpha), ("beta", &beta)] {
        let path = dir.join(format!("{name}.sceng"));
        engine.save(&path).expect("save artifact");
        let serve = ServeConfig { workers: 2, queue_depth: 2, ..ServeConfig::default() };
        registry.register(ModelSpec::artifact(name, path).serve(serve)).expect("register");
    }
    let server =
        HttpServer::bind_registry(Arc::clone(&registry), storm_config(6)).expect("binds");
    let addr = server.local_addr();

    let requests = 120;
    let tally = storm(addr, 6, requests, &targets);
    tally.assert_contract(requests);

    let metrics = fetch_text(addr, "/metrics");
    for name in ["alpha", "beta"] {
        assert!(metrics.contains(&format!("ascend_model_state{{model=\"{name}\"}}")), "{metrics}");
    }
    let evictions: u64 =
        ["alpha", "beta"].iter().map(|n| registry.evictions_total(n).unwrap_or(0)).sum();
    assert!(evictions >= 1, "a one-model budget under round-robin forced no eviction");
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}
