//! Spans for the traced run, and the arithmetic that turns them into
//! per-layer numbers.
//!
//! Spans are recorded only by the benchmark, around its calls into each
//! layer, and kept in memory until the run ends. Spans of one request
//! share its id. The HTTP wire protocol carries no request id, so a
//! request's pool spans (queue wait and service, read from the pool's
//! trace ring after the run) are matched to it by time containment: the
//! job must start after the request was sent and finish before its
//! response was read.

use std::time::{Duration, Instant};

use crate::json::Value;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The request (or setup step) the span belongs to.
    pub id: u64,
    /// The layer whose call the span brackets (`http`, `serve`, ...).
    pub layer: &'static str,
    /// What the span measures.
    pub name: &'static str,
    /// Start.
    pub start: Instant,
    /// End.
    pub end: Instant,
}

impl Span {
    /// A span of request `id` in `layer`.
    pub fn new(
        id: u64,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> Span {
        Span {
            id,
            layer,
            name,
            start,
            end,
        }
    }

    /// Duration of the span.
    pub fn dur(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// A pool job as read back from a pool's trace ring: admission, the
/// moment a worker claimed it, and the end of its service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Admission (start of queue wait).
    pub submitted: Instant,
    /// Worker claim (start of service).
    pub claimed: Instant,
    /// End of service.
    pub finished: Instant,
}

impl Job {
    /// Queue wait plus service: the time the server attributes.
    pub fn attributed(&self) -> Duration {
        self.finished.saturating_duration_since(self.submitted)
    }
}

/// Assigns pool jobs to client requests by time containment.
///
/// `requests` are `(sent, done)` intervals. A job is a candidate for a
/// request when `sent ≤ submitted` and `finished ≤ done` (with `slack`
/// for the microsecond rounding of the ring's timestamps). Requests are
/// taken in send order and each gets the earliest-admitted unclaimed
/// candidate. Returns the job index per request and the number of
/// requests that had more than one candidate (ambiguous matches).
pub fn match_by_containment(
    requests: &[(Instant, Instant)],
    jobs: &[Job],
    slack: Duration,
) -> (Vec<Option<usize>>, usize) {
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by_key(|&i| requests[i].0);
    let mut job_order: Vec<usize> = (0..jobs.len()).collect();
    job_order.sort_by_key(|&j| jobs[j].submitted);
    let mut taken = vec![false; jobs.len()];
    let mut out = vec![None; requests.len()];
    let mut ambiguous = 0;
    for i in order {
        let (sent, done) = requests[i];
        let candidates: Vec<usize> = job_order
            .iter()
            .copied()
            .filter(|&j| {
                !taken[j] && jobs[j].submitted + slack >= sent && jobs[j].finished <= done + slack
            })
            .collect();
        if candidates.len() > 1 {
            ambiguous += 1;
        }
        if let Some(&j) = candidates.first() {
            taken[j] = true;
            out[i] = Some(j);
        }
    }
    (out, ambiguous)
}

/// Client time the server does not account for: `e2e − attributed`,
/// never negative.
pub fn unattributed(e2e: Duration, attributed: Duration) -> Duration {
    e2e.saturating_sub(attributed)
}

/// Share of client time the server accounts for: `Σ attributed ÷ Σ e2e`
/// over the matched requests (0 when there is no client time).
pub fn coverage(pairs: &[(Duration, Duration)]) -> f64 {
    let e2e: f64 = pairs.iter().map(|(e, _)| e.as_secs_f64()).sum();
    let att: f64 = pairs.iter().map(|(e, a)| a.min(e).as_secs_f64()).sum();
    if e2e > 0.0 {
        att / e2e
    } else {
        0.0
    }
}

/// The spans as a chrome://tracing document, timestamps relative to
/// `epoch`.
pub fn chrome_json(spans: &[Span], epoch: Instant) -> String {
    let events: Vec<Value> = spans
        .iter()
        .map(|s| {
            Value::obj()
                .with("name", s.name)
                .with("cat", s.layer)
                .with("ph", "X")
                .with(
                    "ts",
                    s.start.saturating_duration_since(epoch).as_secs_f64() * 1e6,
                )
                .with("dur", s.dur().as_secs_f64() * 1e6)
                .with("pid", 1u64)
                .with("tid", s.id)
        })
        .collect();
    Value::obj()
        .with("traceEvents", events)
        .with("displayTimeUnit", "ms")
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    #[test]
    fn coverage_and_unattributed_arithmetic() {
        // Two requests: 44 ms on the wire with 0.2 ms attributed, and
        // 10 ms with 10 ms attributed.
        let a = (Duration::from_micros(44_000), Duration::from_micros(200));
        let b = (ms(10), ms(10));
        assert_eq!(unattributed(a.0, a.1), Duration::from_micros(43_800));
        assert_eq!(unattributed(b.0, b.1), Duration::ZERO);
        // Attributed above e2e (clock rounding) never yields negative time
        // or coverage above 1.
        assert_eq!(unattributed(ms(1), ms(2)), Duration::ZERO);
        assert!((coverage(&[(ms(1), ms(2))]) - 1.0).abs() < 1e-12);
        let c = coverage(&[a, b]);
        assert!((c - 10.2 / 54.0).abs() < 1e-9, "coverage {c}");
        assert_eq!(coverage(&[]), 0.0);
    }

    #[test]
    fn containment_matches_overlapping_requests() {
        let t0 = Instant::now();
        let at = |x: u64| t0 + ms(x);
        // Two overlapping requests on two connections; each job starts
        // after its own send.
        let requests = [(at(0), at(50)), (at(1), at(51))];
        let jobs = [
            Job {
                submitted: at(2),
                claimed: at(2),
                finished: at(3),
            },
            Job {
                submitted: at(1),
                claimed: at(1),
                finished: at(2),
            },
        ];
        let (m, ambiguous) = match_by_containment(&requests, &jobs, Duration::ZERO);
        assert_eq!(m, vec![Some(1), Some(0)]);
        assert_eq!(ambiguous, 1, "the first request could contain either job");
        // A job outside every request is left unmatched.
        let stray = [Job {
            submitted: at(60),
            claimed: at(60),
            finished: at(61),
        }];
        let (m, _) = match_by_containment(&requests, &stray, Duration::ZERO);
        assert_eq!(m, vec![None, None]);
    }

    #[test]
    fn chrome_json_parses() {
        let t0 = Instant::now();
        let spans = [Span::new(3, "http", "request", t0, t0 + ms(2))];
        let doc = crate::json::parse(&chrome_json(&spans, t0)).unwrap();
        let events = doc
            .get("traceEvents")
            .and_then(crate::json::Value::as_arr)
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].get("dur").and_then(crate::json::Value::as_f64),
            Some(2000.0)
        );
    }
}
