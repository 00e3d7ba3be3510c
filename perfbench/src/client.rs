//! The benchmark's own HTTP/1.1 client and load generators.
//!
//! Each request goes out in **one** `write` on a socket with
//! `TCP_NODELAY` set, so the numbers measure the server rather than a
//! client-side split write. Responses are read with a plain
//! `Content-Length` parser.
//!
//! Every request is timed **from when it was due**. In the open loop a
//! request is due at its place in the schedule and goes out on whichever
//! connection is free, so a stall that holds a connection shows up in the
//! latency of every request that had to wait for it (no coordinated
//! omission). In the closed loop a request is due when its caller's think
//! time after the previous response ends.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long a socket read or write may block before the request counts
/// as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Whether the server announced `Connection: close`.
    pub close: bool,
    /// The body bytes.
    pub body: Vec<u8>,
}

/// The complete bytes of a `POST` with a binary body.
pub fn post_bytes(path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/octet-stream\r\n\
         content-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// One keep-alive connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects with `TCP_NODELAY` and read/write deadlines.
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(IO_TIMEOUT))?;
        writer.set_write_timeout(Some(IO_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    /// Sends complete request bytes in one write and reads the response.
    ///
    /// # Errors
    ///
    /// Socket errors and malformed responses.
    pub fn round_trip(&mut self, request: &[u8]) -> io::Result<Response> {
        self.writer.write_all(request)?;
        read_response(&mut self.reader)
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Reads one `Content-Length`-framed HTTP/1.1 response.
///
/// # Errors
///
/// Socket errors, a closed connection, or a malformed head.
pub fn read_response(r: &mut impl BufRead) -> io::Result<Response> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let (mut length, mut close) = (0usize, false);
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(bad("connection closed inside the head"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse().map_err(|_| bad("bad content-length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
    }
    let mut body = vec![0u8; length];
    r.read_exact(&mut body)?;
    Ok(Response {
        status,
        close,
        body,
    })
}

/// What happened to one request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The connection (and generator thread) that sent it.
    pub conn: usize,
    /// Its number: the schedule index in an open loop, the per-connection
    /// sequence number in a closed loop.
    pub seq: usize,
    /// When the request was due.
    pub due: Instant,
    /// When its bytes were handed to the socket.
    pub sent: Instant,
    /// When its response was fully read (or the failure was seen).
    pub done: Instant,
    /// The response, or `None` after a socket error.
    pub response: Option<Response>,
}

impl Sample {
    /// Client-observed latency, from the due time.
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }

    /// How late the generator sent the request.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }

    /// Time on the wire: send to last response byte.
    pub fn wire(&self) -> Duration {
        self.done.saturating_duration_since(self.sent)
    }
}

/// The outcome of one load-generation run.
#[derive(Debug)]
pub struct LoadRun {
    /// Time zero.
    pub start: Instant,
    /// Every request, ordered by connection then number.
    pub samples: Vec<Sample>,
    /// Connections re-opened after a close or an error.
    pub reconnects: u64,
}

impl LoadRun {
    /// Time zero to the last response.
    pub fn elapsed(&self) -> Duration {
        let end = self
            .samples
            .iter()
            .map(|s| s.done)
            .max()
            .unwrap_or(self.start);
        end.saturating_duration_since(self.start)
    }
}

/// One generator thread's keep-alive connection.
struct Caller {
    addr: SocketAddr,
    conn: Option<Conn>,
    opened: u64,
    samples: Vec<Sample>,
}

impl Caller {
    fn new(addr: SocketAddr) -> Self {
        Caller {
            addr,
            conn: None,
            opened: 0,
            samples: Vec::new(),
        }
    }

    /// Waits until `due`, sends `request`, and records the sample.
    fn call(&mut self, conn: usize, seq: usize, due: Instant, request: &[u8]) -> &Sample {
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        if self.conn.is_none() {
            self.conn = Conn::connect(self.addr).ok();
            self.opened += 1;
        }
        let response = self.conn.as_mut().and_then(|c| c.round_trip(request).ok());
        let done = Instant::now();
        if response.as_ref().is_none_or(|r| r.close) {
            self.conn = None;
        }
        self.samples.push(Sample {
            conn,
            seq,
            due,
            sent,
            done,
            response,
        });
        self.samples.last().expect("pushed above")
    }
}

/// Runs `callers` generator threads, each with one connection, and
/// gathers their samples.
fn drive(
    addr: SocketAddr,
    callers: usize,
    body: &(dyn Fn(usize, &mut Caller) + Sync),
) -> (Vec<Sample>, u64) {
    let samples = Mutex::new(Vec::new());
    let reconnects = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for c in 0..callers.max(1) {
            let (samples, reconnects) = (&samples, &reconnects);
            scope.spawn(move || {
                let mut caller = Caller::new(addr);
                body(c, &mut caller);
                reconnects.fetch_add(caller.opened.saturating_sub(1), Ordering::Relaxed);
                samples
                    .lock()
                    .expect("no generator thread panics while holding the sample lock")
                    .extend(caller.samples);
            });
        }
    });
    let mut samples = samples.into_inner().expect("generator threads have ended");
    samples.sort_by_key(|s| (s.conn, s.seq));
    (samples, reconnects.into_inner())
}

/// Open loop: sends `requests[i]` at `start + schedule[i]` on whichever of
/// the `conns` connections is free, timing each from its due time.
/// `after(conn, i)` runs on the sending thread once a response is timed.
pub fn open_loop(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    schedule: &[Duration],
    conns: usize,
    after: &(dyn Fn(usize, usize) + Sync),
) -> LoadRun {
    let n = requests.len().min(schedule.len());
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let (samples, reconnects) = drive(addr, conns, &|c, caller| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        caller.call(c, i, start + schedule[i], &requests[i]);
        after(c, i);
    });
    LoadRun {
        start,
        samples,
        reconnects,
    }
}

/// Closed loop: each of `conns` callers sends request `request(conn, k)`,
/// waits for its response, thinks for `think(conn, k)`, and sends the
/// next, until `seconds` have passed. A request is due when its think time
/// ends. `after(conn, k)` runs once a response is timed.
pub fn closed_loop(
    addr: SocketAddr,
    conns: usize,
    seconds: Duration,
    think: &(dyn Fn(usize, usize) -> Duration + Sync),
    request: &(dyn Fn(usize, usize) -> Vec<u8> + Sync),
    after: &(dyn Fn(usize, usize) + Sync),
) -> LoadRun {
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + seconds;
    let (samples, reconnects) = drive(addr, conns, &|c, caller| {
        let mut due = start + think(c, 0);
        for k in 0.. {
            if due >= end {
                break;
            }
            let done = caller.call(c, k, due, &request(c, k)).done;
            after(c, k);
            due = done + think(c, k + 1);
        }
    });
    LoadRun {
        start,
        samples,
        reconnects,
    }
}
