//! Request tracing: trace ids, spans, and the bounded trace ring.
//!
//! A [`TraceId`] is minted once per request at admission (the HTTP handler
//! or the CLI entry point) and carried through the `ServePool` job so the
//! worker that executes the request can attribute its spans. Spans land in
//! a [`TraceBuffer`] — a bounded ring that keeps the most recent spans and
//! renders them as chrome://tracing "complete" (`"ph":"X"`) events, viewable
//! in `chrome://tracing` or Perfetto via `GET /debug/trace`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A process-unique request identifier.
///
/// Ids are minted from a process-global counter starting at 1; id 0 never
/// occurs, so it can serve as an "untraced" sentinel in wire formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Mints the next process-unique trace id.
    pub fn mint() -> TraceId {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        TraceId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// One completed span: a named interval attributed to a trace and a worker.
///
/// Timestamps are microseconds since the owning [`TraceBuffer`]'s creation,
/// which is exactly the `ts` convention chrome://tracing expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The request this span belongs to.
    pub trace_id: TraceId,
    /// Span name (e.g. `"queue_wait"`, `"service"`).
    pub name: &'static str,
    /// Worker index (rendered as the chrome `tid`); 0 for non-pool spans.
    pub worker: u32,
    /// Start, in microseconds since the buffer epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// A bounded ring of the most recent [`Span`]s.
///
/// Recording takes a short mutex (push + possible pop-front); the buffer is
/// written on the request path but only after the response latency has been
/// determined, so the lock never sits inside a timed region.
#[derive(Debug)]
pub struct TraceBuffer {
    epoch: Instant,
    capacity: usize,
    spans: Mutex<VecDeque<Span>>,
}

impl TraceBuffer {
    /// A buffer retaining at most `capacity` spans (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            capacity: capacity.max(1),
            spans: Mutex::new(VecDeque::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<Span>> {
        match self.spans.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The instant all span timestamps are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Maximum number of retained spans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently retained spans.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the buffer holds no spans.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Records a completed interval `[start, start + dur)` for `trace_id`,
    /// evicting the oldest span if the ring is full. A `start` predating the
    /// buffer epoch clamps to the epoch.
    pub fn record(
        &self,
        trace_id: TraceId,
        name: &'static str,
        worker: u32,
        start: Instant,
        dur: Duration,
    ) {
        let start_us = u64::try_from(start.saturating_duration_since(self.epoch).as_micros())
            .unwrap_or(u64::MAX);
        let dur_us = u64::try_from(dur.as_micros()).unwrap_or(u64::MAX);
        let span = Span {
            trace_id,
            name,
            worker,
            start_us,
            dur_us,
        };
        let mut spans = self.lock();
        if spans.len() >= self.capacity {
            spans.pop_front();
        }
        spans.push_back(span);
    }

    /// A copy of the retained spans, oldest first.
    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().iter().copied().collect()
    }

    /// Drops all retained spans.
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Renders the retained spans as a chrome://tracing JSON object
    /// (`{"traceEvents": [...]}` with complete `"ph":"X"` events): the
    /// one-ring case of [`chrome_json`]. Load the output directly in
    /// `chrome://tracing` or Perfetto.
    pub fn to_chrome_json(&self) -> String {
        chrome_json(&[self])
    }
}

/// Renders several span rings as one chrome://tracing JSON object. Ring
/// `i` becomes process `pid` `i + 1` (its spans keep their worker `tid`),
/// and every timestamp is rebased to the earliest ring epoch so the
/// processes share one timeline.
pub fn chrome_json(rings: &[&TraceBuffer]) -> String {
    let origin = rings
        .iter()
        .map(|r| r.epoch)
        .min()
        .unwrap_or_else(Instant::now);
    let mut events = Vec::new();
    for (pid, ring) in (1u64..).zip(rings) {
        let shift = u64::try_from(ring.epoch.saturating_duration_since(origin).as_micros())
            .unwrap_or(u64::MAX);
        events.extend(ring.snapshot().iter().map(|s| {
            format!(
                "{{\"name\":\"{}\",\"cat\":\"serve\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{pid},\"tid\":{},\"args\":{{\"trace_id\":{}}}}}",
                escape_json(s.name),
                s.start_us.saturating_add(shift),
                s.dur_us,
                s.worker,
                s.trace_id.0
            )
        }));
    }
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
        events.join(",")
    )
}

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = TraceId::mint();
        let b = TraceId::mint();
        assert_ne!(a, b);
        assert_ne!(a.0, 0);
        assert_ne!(b.0, 0);
    }

    #[test]
    fn ring_evicts_oldest_at_capacity() {
        let buf = TraceBuffer::new(3);
        let t0 = buf.epoch();
        for i in 0..5u64 {
            buf.record(TraceId(i + 1), "service", 0, t0, Duration::from_micros(i));
        }
        let spans = buf.snapshot();
        assert_eq!(spans.len(), 3);
        let ids: Vec<u64> = spans.iter().map(|s| s.trace_id.0).collect();
        assert_eq!(ids, vec![3, 4, 5]);
    }

    #[test]
    fn record_clamps_pre_epoch_starts() {
        let before = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let buf = TraceBuffer::new(4);
        buf.record(
            TraceId(1),
            "queue_wait",
            2,
            before,
            Duration::from_micros(9),
        );
        let spans = buf.snapshot();
        assert_eq!(spans[0].start_us, 0);
        assert_eq!(spans[0].dur_us, 9);
        assert_eq!(spans[0].worker, 2);
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let buf = TraceBuffer::new(8);
        let t0 = buf.epoch();
        buf.record(TraceId(7), "queue_wait", 1, t0, Duration::from_micros(3));
        buf.record(TraceId(7), "service", 1, t0, Duration::from_micros(40));
        // Byte-exact: one ring renders as pid 1 on its own epoch.
        assert_eq!(
            buf.to_chrome_json(),
            "{\"traceEvents\":[{\"name\":\"queue_wait\",\"cat\":\"serve\",\"ph\":\"X\",\"ts\":0,\
             \"dur\":3,\"pid\":1,\"tid\":1,\"args\":{\"trace_id\":7}},{\"name\":\"service\",\
             \"cat\":\"serve\",\"ph\":\"X\",\"ts\":0,\"dur\":40,\"pid\":1,\"tid\":1,\
             \"args\":{\"trace_id\":7}}],\"displayTimeUnit\":\"ms\"}"
        );
    }

    #[test]
    fn several_rings_share_one_envelope_and_timeline() {
        let early = TraceBuffer::new(4);
        std::thread::sleep(Duration::from_millis(2));
        let late = TraceBuffer::new(4);
        early.record(
            TraceId(1),
            "service",
            0,
            early.epoch(),
            Duration::from_micros(5),
        );
        late.record(
            TraceId(2),
            "service",
            0,
            late.epoch(),
            Duration::from_micros(5),
        );
        // `late` is ring 0 (pid 1), shifted by at least the 2 ms sleep onto
        // the timeline of `early` (pid 2), which is the origin.
        let json = chrome_json(&[&late, &early]);
        let events: Vec<&str> = json.split("{\"name\"").skip(1).collect();
        assert_eq!(
            (json.matches("traceEvents").count(), events.len()),
            (1, 2),
            "{json}"
        );
        let ts = |e: &str| {
            e.split("\"ts\":")
                .nth(1)?
                .split(',')
                .next()?
                .parse::<u64>()
                .ok()
        };
        assert!(
            events[0].contains("\"pid\":1,") && ts(events[0]) >= Some(2000),
            "{json}"
        );
        assert!(
            events[1].contains("\"pid\":2,") && ts(events[1]) == Some(0),
            "{json}"
        );
    }

    #[test]
    fn empty_buffer_renders_empty_event_list() {
        let buf = TraceBuffer::new(2);
        assert!(buf.is_empty());
        assert_eq!(
            buf.to_chrome_json(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"
        );
    }

    #[test]
    fn escape_json_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
