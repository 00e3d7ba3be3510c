//! Server-side counters and the `/metrics` exporter, backed by the
//! [`ascend_obs`] registry.
//!
//! Every update path is a single relaxed atomic operation on an
//! [`ascend_obs`] primitive — no locks, no allocation — so connection
//! threads can record at any rate. The old bounded `Mutex<VecDeque>`
//! latency window is gone: request latency lives in a fixed-bucket log2
//! [`Histogram`], which renders in Prometheus exposition format and keeps
//! percentile cost and memory flat no matter how long the server runs.
//! The serving pool's own histograms (queue wait vs service time) are
//! appended by the route handler from [`ascend::serve::PoolObs`], so one
//! scrape sees the whole request path.

use std::sync::Arc;
use std::time::Instant;

use ascend::serve::JobTiming;
use ascend_obs::{Counter, Gauge, HistSnapshot, Histogram, Registry};

/// Live counters of one [`crate::HttpServer`].
pub struct ServerMetrics {
    registry: Registry,
    /// Requests that produced a `200`.
    pub ok: Arc<Counter>,
    /// Requests shed with `503` (queue full or pool gone).
    pub shed: Arc<Counter>,
    /// Requests answered with a `4xx`.
    pub client_error: Arc<Counter>,
    /// Requests answered with a `5xx` other than shedding.
    pub server_error: Arc<Counter>,
    /// Connections accepted onto a handler thread.
    pub connections: Arc<Counter>,
    /// Connections refused with `503` because the hand-off backlog was
    /// full (every handler busy).
    pub conn_shed: Arc<Counter>,
    /// Images served across all `200` responses.
    pub images: Arc<Counter>,
    /// Pool-side request latency (queue wait + service) per `200`.
    request_seconds: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
    queue_capacity: Arc<Gauge>,
    in_flight: Arc<Gauge>,
    workers: Arc<Gauge>,
    started: Instant,
}

impl ServerMetrics {
    /// Fresh, zeroed metrics; the clock for throughput starts now.
    #[expect(
        clippy::disallowed_methods,
        reason = "serve-layer uptime anchor for the throughput gauge; never reaches the logits"
    )]
    pub fn new() -> Self {
        let registry = Registry::new();
        let ok = registry.counter("ascend_http_responses_ok_total", "Requests answered 200.");
        let shed = registry
            .counter("ascend_http_shed_total", "Requests shed with 503 (queue full or pool gone).");
        let client_error =
            registry.counter("ascend_http_client_error_total", "Requests answered 4xx.");
        let server_error = registry
            .counter("ascend_http_server_error_total", "Requests answered 5xx other than shed.");
        let connections =
            registry.counter("ascend_http_connections_total", "Connections accepted.");
        let conn_shed = registry.counter(
            "ascend_http_connections_shed_total",
            "Connections refused 503: hand-off backlog full.",
        );
        let images =
            registry.counter("ascend_images_total", "Images served across all 200 responses.");
        let request_seconds = registry.histogram(
            "ascend_http_request_seconds",
            "Pool-side request latency per 200: queue wait + service. Excludes socket read, \
             request parsing and the response write.",
        );
        let queue_depth =
            registry.gauge("ascend_queue_depth", "Admission queue depth at scrape time.");
        let queue_capacity =
            registry.gauge("ascend_queue_capacity", "Admission queue capacity (0 = unbounded).");
        let in_flight = registry.gauge("ascend_in_flight", "Jobs being computed at scrape time.");
        let workers = registry.gauge("ascend_workers", "Serving pool worker threads.");
        ServerMetrics {
            registry,
            ok,
            shed,
            client_error,
            server_error,
            connections,
            conn_shed,
            images,
            request_seconds,
            queue_depth,
            queue_capacity,
            in_flight,
            workers,
            started: Instant::now(),
        }
    }

    /// Records one served request: its queue-wait/service split and image
    /// count. The exported latency histogram observes the pool-side total
    /// (queue wait + service); the split itself is exported by the pool's
    /// own histograms.
    pub fn record_served(&self, timing: JobTiming, images: usize) {
        self.ok.inc();
        self.images.add(images as u64);
        self.request_seconds.observe(timing.total());
    }

    /// Tallies an error response under the right counter: `503` as shed,
    /// other `4xx` and `5xx` as client or server errors. Any other status
    /// (the `200` of `/metrics`, `/healthz` or `/debug/trace`) is not an
    /// error and is not counted here.
    pub fn record_status(&self, status: u16) {
        let counter = match status {
            503 => &self.shed,
            400..=499 => &self.client_error,
            500..=599 => &self.server_error,
            _ => return,
        };
        counter.inc();
    }

    /// Snapshot of the pool-side (queue wait + service) request-latency
    /// histogram.
    pub fn latency_snapshot(&self) -> HistSnapshot {
        self.request_seconds.snapshot()
    }

    /// Images served per second of server uptime.
    pub fn throughput(&self) -> f64 {
        let secs = self.started.elapsed().as_secs_f64();
        if secs > 0.0 {
            self.images.get() as f64 / secs
        } else {
            0.0
        }
    }

    /// Renders the Prometheus-style text exposition for `GET /metrics`.
    ///
    /// `queued`/`queue_capacity`/`in_flight` come from the pool's live
    /// gauges; `workers` is the pool size. The caller appends the pool's
    /// own registry (queue-wait/service histograms) for the full picture.
    pub fn render(
        &self,
        queued: usize,
        queue_capacity: usize,
        in_flight: usize,
        workers: usize,
    ) -> String {
        self.queue_depth.set(queued as u64);
        self.queue_capacity.set(queue_capacity as u64);
        self.in_flight.set(in_flight as u64);
        self.workers.set(workers as u64);
        let mut out = self.registry.render();
        out.push_str(&format!(
            "# HELP ascend_throughput_images_per_second Images per second of uptime.\n\
             # TYPE ascend_throughput_images_per_second gauge\n\
             ascend_throughput_images_per_second {:.3}\n",
            self.throughput()
        ));
        out
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn timing(ms: u64) -> JobTiming {
        JobTiming { queue_wait: Duration::ZERO, service: Duration::from_millis(ms) }
    }

    #[test]
    fn render_reports_counters_gauges_and_the_latency_histogram() {
        let m = ServerMetrics::new();
        m.record_served(timing(10), 2);
        m.record_served(timing(30), 1);
        m.record_status(503);
        m.record_status(400);
        m.record_status(500);
        m.record_status(200);
        let text = m.render(3, 8, 1, 4);
        assert!(text.contains("ascend_http_responses_ok_total 2\n"), "{text}");
        assert!(text.contains("ascend_http_shed_total 1\n"), "{text}");
        assert!(text.contains("ascend_http_client_error_total 1\n"), "{text}");
        assert!(text.contains("ascend_http_server_error_total 1\n"), "{text}");
        assert!(text.contains("ascend_images_total 3\n"), "{text}");
        assert!(text.contains("ascend_queue_depth 3\n"), "{text}");
        assert!(text.contains("ascend_queue_capacity 8\n"), "{text}");
        assert!(text.contains("ascend_in_flight 1\n"), "{text}");
        assert!(text.contains("ascend_workers 4\n"), "{text}");
        assert!(text.contains("# TYPE ascend_http_request_seconds histogram"), "{text}");
        assert!(text.contains("ascend_http_request_seconds_count 2\n"), "{text}");
        assert!(text.contains("ascend_throughput_images_per_second"), "{text}");
    }

    #[test]
    fn latency_histogram_observes_the_end_to_end_total() {
        let m = ServerMetrics::new();
        m.record_served(
            JobTiming {
                queue_wait: Duration::from_millis(6),
                service: Duration::from_millis(10),
            },
            1,
        );
        let snap = m.latency_snapshot();
        assert_eq!(snap.count(), 1);
        // 16 ms total lands in the 2^24 ns bucket, not the 2^23 service one.
        assert_eq!(snap.sum_ns, 16_000_000);
        let (lo, hi) = snap.percentile_bounds_ns(50.0);
        assert!(lo <= 16_000_000 && 16_000_000 <= hi, "[{lo}, {hi}]");
    }

    #[test]
    fn memory_stays_flat_no_matter_how_many_requests() {
        // The histogram replaces the old sliding window: recording far more
        // requests than the old window held still renders fine and counts
        // every one of them.
        let m = ServerMetrics::new();
        for i in 0..10_000u64 {
            m.record_served(
                JobTiming {
                    queue_wait: Duration::ZERO,
                    service: Duration::from_micros(i),
                },
                1,
            );
        }
        assert_eq!(m.latency_snapshot().count(), 10_000);
        assert!(m.render(0, 0, 0, 1).contains("ascend_http_responses_ok_total 10000\n"));
    }

    #[test]
    fn empty_metrics_render_without_panicking() {
        let text = ServerMetrics::new().render(0, 0, 0, 1);
        assert!(text.contains("ascend_http_responses_ok_total 0\n"));
        assert!(text.contains("ascend_throughput_images_per_second 0.000\n"));
    }
}
