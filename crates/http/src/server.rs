//! The listener, connection-thread pool, router, and graceful drain.
//!
//! Every server fronts one [`ModelRegistry`], and every route goes through
//! it: a single-model server ([`HttpServer::bind`]) is a registry of one
//! pre-warmed model named `default`, and `POST /v1/infer` is served exactly
//! as `POST /v1/models/default/infer`.
//!
//! Threading model: one accept thread blocks in `accept` on the listener,
//! so a connection is taken the moment it arrives, and hands accepted
//! sockets to a small bounded channel; `conn_workers` handler threads each
//! own one connection at a time and run its keep-alive loop. Inference
//! admission inside a handler is strictly non-blocking
//! ([`ServePool::try_submit`]): a full work queue answers `503
//! Retry-After` immediately, so a traffic burst can never wedge the socket
//! threads behind a blocking submit — the bugfix this crate is built
//! around. When every handler is busy and the hand-off backlog is full,
//! whole connections are shed with `503` the same way. A connection closed
//! after an error response (a shed, or a `4xx`/`5xx` for a request that
//! failed to parse) is half-closed and its unread bytes discarded first
//! (`respond_and_close`), so the peer reads the response and a clean EOF
//! instead of a reset.
//!
//! Shutdown is graceful: [`ShutdownHandle::shutdown`] sets the stop flag
//! and wakes the blocked `accept` with one loopback connection, which the
//! accept loop drops unserved; handler threads finish the request they are
//! serving (responses for admitted work are always written), a handler
//! waiting on an idle keep-alive connection closes it within `IDLE_READ`
//! (it waits for a request's first byte in slices that short), remaining
//! backlogged connections get one final exchange with `Connection: close`
//! if their request is already arriving (each read waits at most
//! `LINGER_READ`, so an idle one is closed at once), and
//! [`HttpServer::join`] joins every thread.

use std::io::{BufRead, BufReader, ErrorKind, Read};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ascend::serve::{JobTiming, ServeRequest};
use ascend::Session;
use ascend_obs::TraceId;
use ascend_registry::{ModelRegistry, ModelSpec, ModelState, RegistryConfig};
use sc_core::ScError;

use crate::http1::{self, Limits, ParseError, Request, Response};
use crate::metrics::ServerMetrics;
use crate::HttpConfig;

/// How long the accept loop backs off after a failed `accept` (e.g.
/// `EMFILE`), so a persistent error does not spin the thread.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(5);

/// How long [`ShutdownHandle::shutdown`] waits for its wake connection.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// How many discarding reads [`respond_and_close`] makes at most.
const LINGER_READS: usize = 16;
/// The most bytes one discarding read takes.
const LINGER_BUF: usize = 4 * 1024;
/// The longest one discarding read waits.
const LINGER_READ: Duration = Duration::from_millis(5);
/// The longest one read for a kept-alive connection's next request
/// waits before the handler re-checks the stop flag.
const IDLE_READ: Duration = Duration::from_millis(25);

/// The model `POST /v1/infer` serves; [`HttpServer::bind`] registers
/// its session under this name.
const DEFAULT_MODEL: &str = "default";

/// A clonable remote control for stopping the server from any thread.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    stop: Arc<AtomicBool>,
    /// Where a connection wakes the blocked accept loop: the bound
    /// address, an unspecified IP mapped to loopback of its family.
    wake: SocketAddr,
}

impl ShutdownHandle {
    /// Requests shutdown: sets the stop flag and wakes the listener with
    /// one loopback connection, so the accept loop exits at once; in-flight
    /// requests finish, and [`HttpServer::join`] returns once every thread
    /// has exited. Idempotent: only the first call connects.
    pub fn shutdown(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            // If the wake cannot connect, the loop still exits on the
            // next connection it accepts.
            let _ = TcpStream::connect_timeout(&self.wake, WAKE_TIMEOUT);
        }
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// The running HTTP front-end over one [`ModelRegistry`], which its
/// connection handlers share; see the [module docs](self).
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds a **single-model** front-end: `session` becomes the model
    /// `default` of an unlimited registry of one, warmed here on the
    /// session's own pool, so a broken session fails at bind and the first
    /// request never pays pool construction.
    ///
    /// # Errors
    ///
    /// Same conditions as [`HttpServer::bind_registry`], plus
    /// [`ScError::InvalidParam`] for a malformed session serving
    /// configuration and [`ScError::Io`] if the pool cannot spawn.
    pub fn bind(session: Arc<Session>, cfg: HttpConfig) -> Result<HttpServer, ScError> {
        let registry = ModelRegistry::new(RegistryConfig::default());
        registry.register(ModelSpec::session(DEFAULT_MODEL, session))?;
        registry.acquire(DEFAULT_MODEL)?;
        Self::bind_registry(Arc::new(registry), cfg)
    }

    /// Binds a front-end over a registry, spawning the accept thread and
    /// `cfg.conn_workers` connection-handler threads. Nothing is loaded
    /// here: each cold model warms on its first
    /// `POST /v1/models/{name}/infer` (and `GET /healthz` answers `503`
    /// until at least one model is warm).
    ///
    /// # Errors
    ///
    /// [`ScError::Io`] if the address cannot be bound or a thread cannot
    /// be spawned; [`ScError::InvalidParam`] for a zero
    /// `conn_workers`/`keep_alive_requests`.
    pub fn bind_registry(
        registry: Arc<ModelRegistry>,
        cfg: HttpConfig,
    ) -> Result<HttpServer, ScError> {
        if cfg.conn_workers == 0 {
            return Err(ScError::InvalidParam {
                name: "conn_workers",
                reason: "the server needs at least one connection-handler thread".into(),
            });
        }
        if cfg.keep_alive_requests == 0 {
            return Err(ScError::InvalidParam {
                name: "keep_alive_requests",
                reason: "a connection must be allowed at least one request".into(),
            });
        }
        let sock_err = |addr: &str, e: std::io::Error| ScError::Io {
            path: addr.to_string(),
            reason: e.to_string(),
            not_found: false,
        };
        let listener = TcpListener::bind(&cfg.addr).map_err(|e| sock_err(&cfg.addr, e))?;
        let addr = listener.local_addr().map_err(|e| sock_err(&cfg.addr, e))?;

        let stop = Arc::new(AtomicBool::new(false));
        let wake_ip = match addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
            ip => ip,
        };
        let wake = SocketAddr::new(wake_ip, addr.port());
        let shutdown = ShutdownHandle { stop: Arc::clone(&stop), wake };
        let metrics = Arc::new(ServerMetrics::new());
        let cfg = Arc::new(cfg);
        let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(cfg.conn_workers);
        let conn_rx = Arc::new(Mutex::new(conn_rx));

        let spawn_err = |name: &str, e: std::io::Error| ScError::Io {
            path: format!("thread {name}"),
            reason: e.to_string(),
            not_found: false,
        };
        let mut workers = Vec::with_capacity(cfg.conn_workers);
        for i in 0..cfg.conn_workers {
            let rx = Arc::clone(&conn_rx);
            let registry = Arc::clone(&registry);
            let metrics = Arc::clone(&metrics);
            let cfg = Arc::clone(&cfg);
            let stop = Arc::clone(&stop);
            let name = format!("ascend-http-{i}");
            workers.push(
                std::thread::Builder::new()
                    .name(name.clone())
                    .spawn(move || conn_worker(&rx, &registry, &metrics, &cfg, &stop))
                    .map_err(|e| spawn_err(&name, e))?,
            );
        }
        let accept = {
            let write_timeout = cfg.write_timeout;
            std::thread::Builder::new()
                .name("ascend-http-accept".into())
                .spawn(move || accept_loop(&listener, &conn_tx, &stop, &metrics, write_timeout))
                .map_err(|e| spawn_err("ascend-http-accept", e))?
        };
        Ok(HttpServer { addr, shutdown, accept: Some(accept), workers })
    }

    /// The address the listener actually bound (resolves `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A clonable handle that can stop the server from any thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// Graceful drain: stop accepting, let handlers finish their
    /// in-flight work, and join every thread. Also triggered by `Drop`;
    /// calling it explicitly just makes shutdown visible at the call
    /// site.
    pub fn join(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        self.shutdown.shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Blocks in `accept` on the listener, handing each socket to the worker
/// channel as it arrives; a full channel means every handler is busy and
/// the backlog is taken, so the connection is shed with a `503` instead of
/// queueing without bound. The stop flag is checked after every accept:
/// once it is set the loop exits, dropping the accepted socket (the wake
/// connection from [`ShutdownHandle::shutdown`]) unserved and the sender,
/// so workers drain the backlog and exit too.
fn accept_loop(
    listener: &TcpListener,
    conn_tx: &SyncSender<TcpStream>,
    stop: &AtomicBool,
    metrics: &ServerMetrics,
    write_timeout: Duration,
) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => match conn_tx.try_send(stream) {
                Ok(()) => {}
                Err(TrySendError::Full(stream)) => {
                    metrics.conn_shed.inc();
                    shed_connection(stream, write_timeout);
                }
                Err(TrySendError::Disconnected(_)) => break,
            },
            // Transient accept failures (e.g. per-connection resource
            // limits) must not kill the listener.
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

/// Best-effort `503` on a connection there is no handler capacity for.
/// Runs on the accept thread, which [`respond_and_close`]'s bounds keep
/// from being held by a slow peer.
fn shed_connection(mut stream: TcpStream, write_timeout: Duration) {
    let _ = stream.set_write_timeout(Some(write_timeout));
    let response = Response::text(503, "server at connection capacity; retry later")
        .with_header("retry-after", "1");
    respond_and_close(&mut stream, &response);
}

/// Writes `response` with `Connection: close`, then closes without a
/// reset: half-closes the write side and reads and discards what the
/// peer still sends until EOF or a socket error. The discard makes at
/// most [`LINGER_READS`] reads of at most [`LINGER_BUF`] bytes, each
/// waiting at most [`LINGER_READ`], so it takes at most 64 KiB and ends
/// within 80 ms. (Closing a socket with unread bytes makes the kernel send
/// a reset, which can destroy the response before the peer reads it.)
fn respond_and_close(stream: &mut TcpStream, response: &Response) {
    if response.write_to(stream, true).is_err()
        || stream.shutdown(Shutdown::Write).is_err()
        || stream.set_read_timeout(Some(LINGER_READ)).is_err()
    {
        return;
    }
    let mut discard = [0u8; LINGER_BUF];
    for _ in 0..LINGER_READS {
        match stream.read(&mut discard) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if http1::is_timeout(&e) || e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// A connection-handler thread: pull sockets until the channel closes.
fn conn_worker(
    rx: &Mutex<Receiver<TcpStream>>,
    registry: &ModelRegistry,
    metrics: &ServerMetrics,
    cfg: &HttpConfig,
    stop: &AtomicBool,
) {
    loop {
        let stream = {
            let guard = match rx.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            // ascend-lint: allow(no-blocking-under-lock) -- the handler pull point: the receiver mutex only serializes recv() across connection workers and is dropped before the socket is served
            match guard.recv() {
                Ok(stream) => stream,
                Err(_) => break, // accept loop gone: shutdown
            }
        };
        metrics.connections.inc();
        handle_connection(stream, registry, metrics, cfg, stop);
    }
}

/// Runs one connection's keep-alive loop to completion. A connection
/// taken from the backlog after drain has begun is served only if its
/// request arrives within [`LINGER_READ`] per read, not the full
/// `read_timeout`, and the wait for each request's first byte sees a
/// drain within [`IDLE_READ`] (see [`await_request`]), so an idle peer
/// cannot hold up [`HttpServer::join`].
fn handle_connection(
    mut stream: TcpStream,
    registry: &ModelRegistry,
    metrics: &ServerMetrics,
    cfg: &HttpConfig,
    stop: &AtomicBool,
) {
    let read_timeout = if stop.load(Ordering::SeqCst) { LINGER_READ } else { cfg.read_timeout };
    if stream.set_read_timeout(Some(read_timeout)).is_err()
        || stream.set_write_timeout(Some(cfg.write_timeout)).is_err()
    {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let limits = Limits {
        max_header_bytes: cfg.max_header_bytes,
        max_headers: cfg.max_headers,
        max_body_bytes: cfg.max_body_bytes,
    };

    for served in 0..cfg.keep_alive_requests {
        // During drain, finish what was started but take nothing new.
        if stop.load(Ordering::SeqCst) && served > 0 {
            break;
        }
        if !await_request(&mut reader, &stream, read_timeout, stop) {
            return;
        }
        let request = match http1::read_request(&mut reader, &limits) {
            Ok(request) => request,
            Err(e) => {
                respond_parse_error(&mut stream, metrics, &e);
                return;
            }
        };
        let last = served + 1 == cfg.keep_alive_requests;
        let (response, served_infer) = route(&request, registry, metrics);
        // Decide keep-alive AFTER serving: a shutdown that lands while
        // this request was in flight must close (and announce it) now.
        let close =
            last || request.wants_close() || stop.load(Ordering::SeqCst);
        match served_infer {
            Some((timing, images)) => metrics.record_served(timing, images),
            None => metrics.record_status(response.status),
        }
        if response.write_to(&mut stream, close).is_err() || close {
            return;
        }
    }
}

/// Waits for the first byte of a connection's next request, reading in
/// slices of at most [`IDLE_READ`] and re-checking `stop` after each, so
/// a drain that begins while the peer is idle closes the connection
/// within one slice instead of after `read_timeout`. Returns `true` once
/// request bytes are buffered, with the socket's read timeout back at
/// `read_timeout` for the parse; `false` means close quietly: the peer
/// sent nothing for `read_timeout` (the sum of the slices that timed
/// out, so no clock is read), closed, failed, or drain began.
fn await_request(
    reader: &mut BufReader<TcpStream>,
    stream: &TcpStream,
    read_timeout: Duration,
    stop: &AtomicBool,
) -> bool {
    if !reader.buffer().is_empty() {
        return true; // a pipelined request is already here
    }
    let mut left = read_timeout;
    while !left.is_zero() {
        let slice = left.min(IDLE_READ);
        if stream.set_read_timeout(Some(slice)).is_err() {
            return false;
        }
        match reader.fill_buf() {
            Ok([]) => return false,
            Ok(_) => return stream.set_read_timeout(Some(read_timeout)).is_ok(),
            Err(e) if http1::is_timeout(&e) || e.kind() == ErrorKind::Interrupted => {
                if stop.load(Ordering::SeqCst) {
                    return false;
                }
                left -= slice;
            }
            Err(_) => return false,
        }
    }
    false
}

/// Answers a request-parse failure with the right status (or a quiet
/// close for idle/io), always with `Connection: close`.
fn respond_parse_error(stream: &mut TcpStream, metrics: &ServerMetrics, e: &ParseError) {
    let response = match e {
        ParseError::Idle | ParseError::Io(_) => return,
        ParseError::Timeout => Response::text(408, "read deadline expired mid-request"),
        ParseError::BadRequest(msg) => Response::text(400, format!("bad request: {msg}")),
        ParseError::HeadersTooLarge => Response::text(431, "header block over limit"),
        ParseError::BodyTooLarge => Response::text(413, "body over limit"),
        ParseError::LengthRequired => Response::text(411, "content-length required"),
        ParseError::VersionUnsupported(v) => {
            Response::text(505, format!("only HTTP/1.1 is served, got {v}"))
        }
        ParseError::NotImplemented(what) => {
            Response::text(501, format!("`{what}` is not implemented"))
        }
    };
    metrics.record_status(response.status);
    respond_and_close(stream, &response);
}

/// Dispatches one parsed request; a `200` inference also returns the
/// queue-wait/service timing split and image count for metrics.
fn route(
    request: &Request,
    registry: &ModelRegistry,
    metrics: &ServerMetrics,
) -> (Response, Option<(JobTiming, usize)>) {
    let method = request.method.as_str();
    let path = request.target.as_str();
    match (method, path) {
        (_, "/v1/infer") => model_route(method, DEFAULT_MODEL, "infer", request, registry),
        ("GET", "/metrics") => (Response::text(200, render_metrics(registry, metrics)), None),
        ("GET", "/debug/trace") => (render_trace(registry), None),
        (_, "/metrics" | "/debug/trace") => {
            (Response::text(405, "use GET").with_header("allow", "GET"), None)
        }
        ("GET", "/") | ("GET", "/healthz") => (healthz(registry), None),
        _ => match path.strip_prefix("/v1/models/").and_then(|rest| rest.split_once('/')) {
            Some((name, action)) => model_route(method, name, action, request, registry),
            None => (Response::text(404, format!("no route for {path}")), None),
        },
    }
}

/// Routes `action` (only `infer` exists) on model `name`: look the model
/// up in the registry (warming it on first use) and serve on its pool.
/// Typed errors map to HTTP statuses in [`registry_error_response`].
fn model_route(
    method: &str,
    name: &str,
    action: &str,
    request: &Request,
    registry: &ModelRegistry,
) -> (Response, Option<(JobTiming, usize)>) {
    match (method, action) {
        ("POST", "infer") => match registry.acquire(name) {
            Ok(handle) => infer(request, handle.session()),
            Err(e) => (registry_error_response(&e), None),
        },
        ("GET", "infer") | ("HEAD", "infer") => {
            (Response::text(405, "use POST").with_header("allow", "POST"), None)
        }
        _ => (Response::text(404, format!("no route for {}", request.target)), None),
    }
}

/// Maps a registry acquire failure to its HTTP status: unknown model or
/// missing artifact file is the client's problem (`404`), a model over
/// the memory budget is transient pressure (`503 Retry-After`), and a
/// corrupt artifact or other load failure is the server's (`500`).
fn registry_error_response(e: &ScError) -> Response {
    match e {
        ScError::UnknownModel { .. } => Response::text(404, e.to_string()),
        ScError::Io { not_found: true, .. } => {
            Response::text(404, format!("model artifact missing: {e}"))
        }
        ScError::BudgetExceeded { .. } => {
            Response::text(503, format!("warming over budget: {e}"))
                .with_header("retry-after", "1")
        }
        ScError::QueueFull { .. } | ScError::PoolGone => shed_response(e),
        ScError::InvalidParam { .. } => Response::text(400, format!("rejected: {e}")),
        _ => Response::text(500, format!("model load failed: {e}")),
    }
}

/// `GET /healthz`: one `name=state` line per registered model, `200` once
/// at least one model is warm (a single-model server is, from bind on)
/// and `503 Retry-After` before that, so orchestrators never route traffic
/// at a process that would eat the first request's cold-load latency.
fn healthz(registry: &ModelRegistry) -> Response {
    let states = registry.states();
    let mut body = String::new();
    let mut any_warm = false;
    for (name, state) in &states {
        any_warm |= *state == ModelState::Warm;
        body.push_str(&format!("{name}={}\n", state.as_str()));
    }
    if states.is_empty() {
        body.push_str("no models registered\n");
    }
    if any_warm {
        Response::text(200, body)
    } else {
        Response::text(503, body).with_header("retry-after", "1")
    }
}

/// The `/metrics` body: server counters and the request-latency histogram
/// with the pool gauges summed across warm models, then the registry's
/// per-model block (state/resident/loads/evictions), then each warm
/// pool's own queue-wait and service histograms under a `# model` marker,
/// so one scrape covers the whole request path.
fn render_metrics(registry: &ModelRegistry, metrics: &ServerMetrics) -> String {
    let handles = registry.warm_handles();
    let (mut queued, mut capacity, mut in_flight, mut workers) = (0usize, 0usize, 0usize, 0usize);
    let mut pools = Vec::new();
    for handle in &handles {
        if let Ok(pool) = handle.session().runner() {
            queued += pool.queued();
            capacity += pool.queue_capacity();
            in_flight += pool.in_flight();
            workers += pool.workers();
            pools.push((handle.name(), pool));
        }
    }
    let mut out = metrics.render(queued, capacity, in_flight, workers);
    out.push_str(&registry.metrics_render());
    for (name, pool) in pools {
        out.push_str(&format!("# model {name} pool\n"));
        out.push_str(&pool.obs().render());
    }
    out
}

/// The `GET /debug/trace` body: the warm pools' recent request spans as
/// one chrome://tracing document (load it via `chrome://tracing` or
/// Perfetto), one `pid` per warm model in registration order.
fn render_trace(registry: &ModelRegistry) -> Response {
    let handles = registry.warm_handles();
    let rings: Vec<_> = handles
        .iter()
        .filter_map(|h| Some(h.session().runner().ok()?.obs().trace()))
        .collect();
    Response::json(200, ascend_obs::chrome_json(&rings))
}

/// Runs `POST /v1/infer`: decode, **non-blocking** admission, collect,
/// encode. The admission policy is the whole point: `try_submit` answers
/// a full queue with `503 Retry-After` immediately instead of blocking
/// this socket thread until the pool drains.
fn infer(request: &Request, session: &Session) -> (Response, Option<(JobTiming, usize)>) {
    let vit = session.backend().vit_config();
    let (patches, images) = match crate::decode_infer_request(&request.body, vit) {
        Ok(decoded) => decoded,
        Err(e) => return (Response::text(400, format!("bad payload: {e}")), None),
    };
    let pool = match session.runner() {
        Ok(pool) => pool,
        Err(e) => return (shed_response(&e), None),
    };
    // The trace id is minted here, at admission: a request the pool refuses
    // (shed below) dies with its id and must leave no spans behind.
    let trace = TraceId::mint();
    let handle = match pool.try_submit(ServeRequest::new(patches, images).with_trace(trace)) {
        Ok(handle) => handle,
        Err(e @ (ScError::QueueFull { .. } | ScError::PoolGone)) => {
            return (shed_response(&e), None)
        }
        Err(e) => return (Response::text(400, format!("rejected: {e}")), None),
    };
    match handle.collect() {
        Ok((logits, timing)) => {
            let body = crate::encode_logits(&logits, images, vit.classes);
            (Response::binary(200, body), Some((timing, images)))
        }
        Err(ScError::PoolGone) => (shed_response(&ScError::PoolGone), None),
        Err(e) => (Response::text(500, format!("inference failed: {e}")), None),
    }
}

/// The `503 Retry-After` load-shedding response.
fn shed_response(e: &ScError) -> Response {
    Response::text(503, format!("shed: {e}")).with_header("retry-after", "1")
}
