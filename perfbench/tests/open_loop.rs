//! The load generator against a fake server that stalls. In an open
//! loop, latency is counted from each request's due time, so one stalled
//! response shows in the latency of every request queued behind it; in a
//! closed loop the next request is due only when the stall has ended.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::time::Duration;

use perfbench::client::{closed_loop, open_loop, post_bytes};

/// Serves up to `n` requests on one keep-alive connection, holding the
/// first response for `stall`; stops early when the client hangs up.
fn fake_server(n: usize, stall: Duration) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        for i in 0..n {
            let mut length = 0usize;
            loop {
                let mut line = String::new();
                if reader.read_line(&mut line).expect("head") == 0 {
                    return;
                }
                let line = line.trim_end();
                if line.is_empty() {
                    break;
                }
                if let Some(v) = line.strip_prefix("content-length: ") {
                    length = v.parse().expect("length");
                }
            }
            let mut body = vec![0u8; length];
            reader.read_exact(&mut body).expect("body");
            if i == 0 {
                std::thread::sleep(stall);
            }
            writer
                .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok")
                .expect("write");
        }
    });
    (addr, handle)
}

#[test]
fn a_stall_shows_in_the_latency_of_later_requests() {
    let stall = Duration::from_millis(200);
    let (addr, server) = fake_server(4, stall);
    let requests: Vec<Vec<u8>> = (0..4).map(|_| post_bytes("/v1/infer", b"x")).collect();
    let schedule: Vec<Duration> = (0..4).map(|i| Duration::from_millis(10 * i)).collect();
    let run = open_loop(addr, &requests, &schedule, 1, &|_, _| {});
    server.join().expect("server");

    assert_eq!(run.samples.len(), 4);
    assert!(run.samples.iter().all(|s| s
        .response
        .as_ref()
        .is_some_and(|r| r.status == 200 && r.body == b"ok")));
    // The stalled request itself.
    assert!(run.samples[0].latency() >= stall);
    for s in &run.samples[1..] {
        let due_ms = 10 * s.seq as u64;
        // Each later request was answered at once ...
        assert!(
            s.wire() < Duration::from_millis(100),
            "request {} wire {:?}",
            s.seq,
            s.wire()
        );
        // ... but waited behind the stall, and that wait is in its latency.
        let waited = stall - Duration::from_millis(due_ms);
        assert!(
            s.latency() >= waited,
            "request {} latency {:?} < {waited:?}",
            s.seq,
            s.latency()
        );
        assert!(
            s.lag() >= waited - Duration::from_millis(5),
            "request {} lag {:?}",
            s.seq,
            s.lag()
        );
    }
}

#[test]
fn a_prompt_server_gives_small_lag() {
    let (addr, server) = fake_server(3, Duration::ZERO);
    let requests: Vec<Vec<u8>> = (0..3).map(|_| post_bytes("/v1/infer", b"x")).collect();
    let schedule: Vec<Duration> = (0..3).map(|i| Duration::from_millis(30 * i)).collect();
    let run = open_loop(addr, &requests, &schedule, 1, &|_, _| {});
    server.join().expect("server");
    assert_eq!(run.reconnects, 0);
    for s in &run.samples {
        assert!(
            s.lag() < Duration::from_millis(25),
            "request {} lag {:?}",
            s.seq,
            s.lag()
        );
        assert!(s.latency() >= s.wire());
    }
}

#[test]
fn a_closed_loop_is_due_after_each_response_and_think_time() {
    let stall = Duration::from_millis(150);
    let (addr, server) = fake_server(100, stall);
    let think = |_: usize, k: usize| Duration::from_millis(if k == 0 { 0 } else { 20 });
    let request = |_: usize, _: usize| post_bytes("/v1/infer", b"x");
    let run = closed_loop(
        addr,
        1,
        Duration::from_millis(250),
        &think,
        &request,
        &|_, _| {},
    );
    server.join().expect("server");
    assert!(run.samples.len() >= 2, "{} samples", run.samples.len());
    assert!(run.samples.iter().all(|s| s.response.is_some()));
    assert!(run.samples[0].latency() >= stall);
    for pair in run.samples.windows(2) {
        // Each request is due a think time after the previous response,
        // so the stall does not reach its latency ...
        assert!(pair[1].due >= pair[0].done + Duration::from_millis(20));
        assert!(
            pair[1].lag() < Duration::from_millis(25),
            "lag {:?}",
            pair[1].lag()
        );
    }
    assert!(run.samples[1].latency() < Duration::from_millis(100));
}
