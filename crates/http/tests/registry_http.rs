//! Multi-model serving over real sockets: `/v1/models/{name}/infer`
//! routes by model id, `/debug/trace` is one chrome://tracing document
//! with one pid per warm model, typed registry failures map to the right HTTP
//! statuses (404 unknown model / missing artifact, 500 corrupt artifact,
//! 503 + Retry-After over budget), `/healthz` reports per-model state
//! and refuses traffic until one model is warm, and `/metrics` carries
//! the per-model registry gauges.

#![allow(clippy::expect_used, reason = "an integration test fails by panicking, helpers included")]

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use ascend::serve::ServeConfig;
use ascend::{ForwardScratch, InferenceBackend};
use ascend_http::{client, HttpConfig, HttpServer};
use ascend_registry::{ModelRegistry, ModelSpec, RegistryConfig};
use ascend_vit::{PrecisionPlan, VitConfig};
use sc_core::ScError;

fn tiny_vit() -> VitConfig {
    VitConfig { image: 8, patch: 4, dim: 16, layers: 1, heads: 2, classes: 2, ..Default::default() }
}

/// Echoes `[scale·sum, -scale·sum]` so each model's responses are
/// distinguishable on the wire.
struct ScaledBackend {
    cfg: VitConfig,
    plan: PrecisionPlan,
    scale: f32,
    bytes: usize,
}

impl ScaledBackend {
    fn new(scale: f32, bytes: usize) -> Self {
        ScaledBackend { cfg: tiny_vit(), plan: PrecisionPlan::fp(), scale, bytes }
    }
}

impl InferenceBackend for ScaledBackend {
    fn name(&self) -> &str {
        "scaled"
    }
    fn vit_config(&self) -> &VitConfig {
        &self.cfg
    }
    fn plan(&self) -> &PrecisionPlan {
        &self.plan
    }
    fn resident_bytes(&self) -> usize {
        self.bytes
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
        let sum: f32 = patches.iter().sum::<f32>() * self.scale;
        Ok(vec![sum, -sum])
    }
}

fn serve_cfg() -> ServeConfig {
    ServeConfig { workers: 1, micro_batch: 1, queue_depth: 4 }
}

fn spec(name: &str, scale: f32, bytes: usize) -> ModelSpec {
    ModelSpec::shared(name, Arc::new(ScaledBackend::new(scale, bytes))).serve(serve_cfg())
}

fn bind(registry: Arc<ModelRegistry>) -> HttpServer {
    HttpServer::bind_registry(registry, HttpConfig::new("127.0.0.1:0")).expect("server binds")
}

fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2)).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    stream.set_write_timeout(Some(Duration::from_secs(10))).expect("write timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (reader, stream)
}

fn payload(v: f32) -> Vec<u8> {
    let cfg = tiny_vit();
    ascend_http::encode_infer_request(&vec![v; cfg.num_patches() * cfg.patch_dim()], 1)
}

fn roundtrip(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> client::ClientResponse {
    let (mut reader, mut writer) = connect(addr);
    client::write_request(&mut writer, method, target, body, true).expect("write");
    client::read_response(&mut reader).expect("response")
}

#[test]
fn routes_by_model_name_and_404s_the_unknown() {
    let registry = Arc::new(ModelRegistry::new(RegistryConfig::default()));
    registry.register(spec("alpha", 1.0, 100)).expect("register");
    registry.register(spec("beta", 3.0, 100)).expect("register");
    let server = bind(Arc::clone(&registry));
    let addr = server.local_addr();

    let n = (tiny_vit().num_patches() * tiny_vit().patch_dim()) as f32;
    for (model, scale) in [("alpha", 1.0f32), ("beta", 3.0), ("alpha", 1.0)] {
        let response =
            roundtrip(addr, "POST", &format!("/v1/models/{model}/infer"), &payload(2.0));
        assert_eq!(response.status, 200, "{model}");
        let (images, classes, logits) =
            ascend_http::decode_logits(&response.body).expect("decode");
        assert_eq!((images, classes), (1, 2));
        assert_eq!(logits[0].to_bits(), (2.0 * n * scale).to_bits(), "{model} logit");
    }

    let missing = roundtrip(addr, "POST", "/v1/models/ghost/infer", &payload(1.0));
    assert_eq!(missing.status, 404);
    assert!(
        String::from_utf8_lossy(&missing.body).contains("unknown model `ghost`"),
        "body: {}",
        String::from_utf8_lossy(&missing.body)
    );

    // `/v1/infer` aliases the model `default`, which this registry lacks.
    let single = roundtrip(addr, "POST", "/v1/infer", &payload(1.0));
    assert_eq!(single.status, 404);
    // And the method guard still applies per model.
    let get = roundtrip(addr, "GET", "/v1/models/alpha/infer", &[]);
    assert_eq!(get.status, 405);
    assert_eq!(get.header("allow"), Some("POST"));

    // Exactly one load per model despite repeated requests.
    assert_eq!(registry.loads_total("alpha"), Some(1));
    assert_eq!(registry.loads_total("beta"), Some(1));

    // /debug/trace is ONE chrome://tracing document covering both warm
    // models, one pid each, with a queue_wait and a service span per 200.
    let json = String::from_utf8(roundtrip(addr, "GET", "/debug/trace", &[]).body).expect("utf-8");
    assert!(json.starts_with("{\"traceEvents\":["), "{json}");
    assert_eq!(json.matches("\"name\":\"queue_wait\"").count(), 3, "{json}");
    assert_eq!(json.matches("\"name\":\"service\"").count(), 3, "{json}");
    let mut pids: Vec<&str> =
        json.split("\"pid\":").skip(1).filter_map(|s| s.split(',').next()).collect();
    pids.sort_unstable();
    pids.dedup();
    assert_eq!(pids, ["1", "2"], "one pid per warm model: {json}");
    server.join();
}

#[test]
fn healthz_reports_per_model_state_and_503s_until_one_model_is_warm() {
    let registry = Arc::new(ModelRegistry::new(RegistryConfig::default()));
    registry.register(spec("alpha", 1.0, 100)).expect("register");
    registry.register(spec("beta", 1.0, 100)).expect("register");
    let server = bind(Arc::clone(&registry));
    let addr = server.local_addr();

    // Nothing warm yet: not ready, and the body says why.
    let cold = roundtrip(addr, "GET", "/healthz", &[]);
    assert_eq!(cold.status, 503);
    assert_eq!(cold.header("retry-after"), Some("1"));
    let body = String::from_utf8_lossy(&cold.body).to_string();
    assert!(body.contains("alpha=cold") && body.contains("beta=cold"), "body: {body}");

    // One inference warms alpha; the process becomes ready.
    assert_eq!(roundtrip(addr, "POST", "/v1/models/alpha/infer", &payload(1.0)).status, 200);
    let warm = roundtrip(addr, "GET", "/healthz", &[]);
    assert_eq!(warm.status, 200);
    let body = String::from_utf8_lossy(&warm.body).to_string();
    assert!(body.contains("alpha=warm") && body.contains("beta=cold"), "body: {body}");
    server.join();
}

#[test]
fn metrics_carry_per_model_registry_gauges_and_pool_histograms() {
    let registry = Arc::new(ModelRegistry::new(RegistryConfig {
        memory_budget_bytes: 4096,
        ..Default::default()
    }));
    registry.register(spec("alpha", 1.0, 1234)).expect("register");
    registry.register(spec("beta", 1.0, 999)).expect("register");
    let server = bind(Arc::clone(&registry));
    let addr = server.local_addr();

    assert_eq!(roundtrip(addr, "POST", "/v1/models/alpha/infer", &payload(1.0)).status, 200);
    let scrape = roundtrip(addr, "GET", "/metrics", &[]);
    assert_eq!(scrape.status, 200);
    let text = String::from_utf8_lossy(&scrape.body).to_string();
    assert!(text.contains("ascend_model_state{model=\"alpha\"} 2"), "{text}");
    assert!(text.contains("ascend_model_state{model=\"beta\"} 0"), "{text}");
    assert!(text.contains("ascend_model_resident_bytes{model=\"alpha\"} 1234"), "{text}");
    assert!(text.contains("ascend_model_loads_total{model=\"alpha\"} 1"), "{text}");
    assert!(text.contains("ascend_registry_budget_bytes 4096"), "{text}");
    assert!(text.contains("ascend_registry_resident_bytes 1234"), "{text}");
    // The warm model's pool histograms ride the same scrape.
    assert!(text.contains("# model alpha pool"), "{text}");
    assert!(text.contains("# TYPE ascend_request_queue_wait_seconds histogram"), "{text}");
    // Server-level counters still render.
    assert!(text.contains("ascend_http_responses_ok_total"), "{text}");
    server.join();
}

#[test]
fn over_budget_warming_is_shed_with_retry_after() {
    // Budget admits `small` but never `huge`.
    let registry = Arc::new(ModelRegistry::new(RegistryConfig {
        memory_budget_bytes: 500,
        ..Default::default()
    }));
    registry.register(spec("small", 1.0, 100)).expect("register");
    registry.register(spec("huge", 1.0, 10_000)).expect("register");
    let server = bind(Arc::clone(&registry));
    let addr = server.local_addr();

    assert_eq!(roundtrip(addr, "POST", "/v1/models/small/infer", &payload(1.0)).status, 200);
    let over = roundtrip(addr, "POST", "/v1/models/huge/infer", &payload(1.0));
    assert_eq!(over.status, 503);
    assert_eq!(over.header("retry-after"), Some("1"));
    assert!(
        String::from_utf8_lossy(&over.body).contains("memory budget exceeded"),
        "body: {}",
        String::from_utf8_lossy(&over.body)
    );
    // The shed request must not have wedged the rest of the fleet.
    assert_eq!(roundtrip(addr, "POST", "/v1/models/small/infer", &payload(1.0)).status, 200);
    server.join();
}

#[test]
fn artifact_failures_map_to_404_for_missing_and_500_for_corrupt() {
    let dir = std::env::temp_dir()
        .join(format!("ascend-registry-http-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let corrupt_path = dir.join("corrupt.sceng");
    // Right magic, garbage after it: opens as ASCNDART traffic but fails
    // validation — a server-side problem, not the client's.
    let mut bytes = b"ASCNDART".to_vec();
    bytes.extend_from_slice(&[0x5a; 64]);
    std::fs::write(&corrupt_path, bytes).expect("write corrupt artifact");

    let registry = Arc::new(ModelRegistry::new(RegistryConfig::default()));
    registry
        .register(ModelSpec::artifact("missing", dir.join("nope.sceng")).serve(serve_cfg()))
        .expect("register");
    registry
        .register(ModelSpec::artifact("corrupt", &corrupt_path).serve(serve_cfg()))
        .expect("register");
    let server = bind(Arc::clone(&registry));
    let addr = server.local_addr();

    let missing = roundtrip(addr, "POST", "/v1/models/missing/infer", &payload(1.0));
    assert_eq!(missing.status, 404, "file-not-found is the client's 404");
    assert!(
        String::from_utf8_lossy(&missing.body).contains("no such file"),
        "body: {}",
        String::from_utf8_lossy(&missing.body)
    );

    let corrupt = roundtrip(addr, "POST", "/v1/models/corrupt/infer", &payload(1.0));
    assert_eq!(corrupt.status, 500, "corruption is the server's 500");
    assert!(
        String::from_utf8_lossy(&corrupt.body).contains("model load failed"),
        "body: {}",
        String::from_utf8_lossy(&corrupt.body)
    );

    // Neither failure leaves the slot wedged: states went back to cold.
    let health = roundtrip(addr, "GET", "/healthz", &[]);
    assert_eq!(health.status, 503);
    let body = String::from_utf8_lossy(&health.body).to_string();
    assert!(body.contains("missing=cold") && body.contains("corrupt=cold"), "body: {body}");
    std::fs::remove_dir_all(&dir).ok();
    server.join();
}
