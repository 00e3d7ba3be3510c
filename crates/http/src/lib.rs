//! `ascend-http` — the network front door of the serving stack: a
//! hand-rolled, offline, std-only HTTP/1.1 server over a model registry
//! of [`ascend::Session`]s and their persistent `ServePool`s. One model
//! is a registry of one, named `default` ([`HttpServer::bind`]).
//!
//! The runtime below this crate already proves "parallel batched
//! inference"; this crate turns it into "serves traffic": a listener
//! accepting connections onto a small connection-thread pool, keep-alive
//! with per-connection request limits and read/write deadlines, a
//! `POST /v1/models/{name}/infer` route (`POST /v1/infer` is
//! `/v1/models/default/infer`) running length-prefixed patch payloads
//! through the model's pool, a `GET /metrics` endpoint exporting
//! Prometheus histograms with log2 buckets (request latency, and each
//! warm pool's queue wait and service time) plus the live queue depth,
//! and graceful drain on shutdown.
//!
//! The load-bearing design rule is **non-blocking admission**: socket
//! threads submit work with `ServePool::try_submit`, so a full bounded
//! queue is answered with `503 Retry-After` (load shedding) instead of
//! wedging the connection thread in a blocking `submit` — under overload
//! the server stays responsive and every request gets *an* answer.
//!
//! ```no_run
//! use std::sync::Arc;
//! use ascend_http::{HttpConfig, HttpServer};
//! # fn demo(session: ascend::Session) -> Result<(), sc_core::ScError> {
//! let server = HttpServer::bind(Arc::new(session), HttpConfig::new("127.0.0.1:0"))?;
//! println!("listening on {}", server.local_addr());
//! let handle = server.shutdown_handle();
//! // ... later, from any thread:
//! handle.shutdown();
//! server.join(); // graceful: stop accepting, finish in-flight, join workers
//! # Ok(()) }
//! ```
//!
//! ## Wire format of `POST /v1/infer` (and `/v1/models/{name}/infer`)
//!
//! The request body is a length-prefixed little-endian binary payload:
//! `u32 images`, `u32 values`, then exactly `values` IEEE-754 `f32`
//! patch scalars (`values` must equal `images × num_patches × patch_dim`
//! for the served model). A `200` response mirrors the shape: `u32
//! images`, `u32 classes`, then `images × classes` logit `f32`s — byte
//! layout chosen so "bit-identical to the in-process serial path" is
//! checkable by comparing raw bodies.

pub mod client;
pub mod http1;
pub mod metrics;
pub mod server;

use std::time::Duration;

use ascend_tensor::Tensor;
use ascend_vit::VitConfig;
use sc_core::ScError;

pub use server::{HttpServer, ShutdownHandle};

/// Runtime knobs of the [`HttpServer`].
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Address to bind, e.g. `"127.0.0.1:8080"` (`:0` picks a free port;
    /// [`HttpServer::local_addr`] reports the real one).
    pub addr: String,
    /// Connection-handler threads. Each owns one connection at a time, so
    /// this is also the cap on concurrently served connections; accepted
    /// connections beyond the small hand-off backlog are shed with `503`.
    pub conn_workers: usize,
    /// Maximum requests served over one keep-alive connection before the
    /// server closes it (`Connection: close` on the last response).
    pub keep_alive_requests: usize,
    /// Per-connection read deadline (`set_read_timeout`): a keep-alive
    /// connection idle this long is closed quietly (sooner once drain
    /// begins); a connection that stalls mid-request gets `408 Request
    /// Timeout`.
    pub read_timeout: Duration,
    /// Per-connection write deadline (`set_write_timeout`).
    pub write_timeout: Duration,
    /// Maximum request-body size in bytes; larger bodies get `413`.
    pub max_body_bytes: usize,
    /// Maximum total header-block size in bytes; larger gets `431`.
    pub max_header_bytes: usize,
    /// Maximum header count; more get `431`.
    pub max_headers: usize,
}

impl HttpConfig {
    /// Production-lean defaults on the given listen address.
    pub fn new(addr: impl Into<String>) -> Self {
        HttpConfig {
            addr: addr.into(),
            conn_workers: 4,
            keep_alive_requests: 1024,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_body_bytes: 1 << 22,
            max_header_bytes: 8 << 10,
            max_headers: 64,
        }
    }
}

/// Reads a little-endian `u32` at `offset`, as a `usize` via `try_from`
/// (codec paths never truncate silently).
fn read_u32(body: &[u8], offset: usize) -> Result<usize, ScError> {
    let bytes = body.get(offset..offset + 4).ok_or_else(|| ScError::InvalidParam {
        name: "body",
        reason: format!("payload truncated: no u32 at byte {offset}"),
    })?;
    let mut w = [0u8; 4];
    w.copy_from_slice(bytes);
    usize::try_from(u32::from_le_bytes(w)).map_err(|_| ScError::InvalidParam {
        name: "body",
        reason: "u32 does not fit this platform's usize".into(),
    })
}

/// Encodes an inference request body: `u32 images`, `u32 values`, then
/// the patch scalars (little-endian `f32`s). The inverse of
/// [`decode_infer_request`]; clients and tests build their payloads with
/// this.
pub fn encode_infer_request(patches: &[f32], images: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + patches.len() * 4);
    out.extend_from_slice(&(images as u32).to_le_bytes());
    out.extend_from_slice(&(patches.len() as u32).to_le_bytes());
    for v in patches {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes and validates a `POST /v1/infer` body against the served
/// model's shape, returning the patch tensor and image count.
///
/// # Errors
///
/// [`ScError::InvalidParam`] for truncated payloads, value counts that
/// disagree with the length prefix, or shapes the model cannot serve.
pub fn decode_infer_request(body: &[u8], cfg: &VitConfig) -> Result<(Tensor, usize), ScError> {
    let images = read_u32(body, 0)?;
    let values = read_u32(body, 4)?;
    if images == 0 {
        return Err(ScError::InvalidParam {
            name: "body",
            reason: "request holds zero images".into(),
        });
    }
    let (p, pd) = (cfg.num_patches(), cfg.patch_dim());
    let want = images.checked_mul(p * pd).ok_or_else(|| ScError::InvalidParam {
        name: "body",
        reason: "image count overflows the payload size".into(),
    })?;
    if values != want {
        return Err(ScError::InvalidParam {
            name: "body",
            reason: format!(
                "length prefix says {values} values, but {images} images of [{p}, {pd}] \
                 patches need {want}"
            ),
        });
    }
    let data = body.get(8..).unwrap_or(&[]);
    if data.len() != values * 4 {
        return Err(ScError::InvalidParam {
            name: "body",
            reason: format!(
                "payload carries {} data bytes, expected {} for {values} f32 values",
                data.len(),
                values * 4
            ),
        });
    }
    let mut vals = Vec::with_capacity(values);
    for chunk in data.chunks_exact(4) {
        let mut w = [0u8; 4];
        w.copy_from_slice(chunk);
        vals.push(f32::from_le_bytes(w));
    }
    Ok((Tensor::from_vec(vals, &[images * p, pd]), images))
}

/// Encodes a `200` logits body: `u32 images`, `u32 classes`, then the
/// logit scalars row-major (little-endian `f32`s).
pub fn encode_logits(logits: &Tensor, images: usize, classes: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + logits.data().len() * 4);
    out.extend_from_slice(&(images as u32).to_le_bytes());
    out.extend_from_slice(&(classes as u32).to_le_bytes());
    for v in logits.data() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes a logits body back into `(images, classes, values)`.
///
/// # Errors
///
/// [`ScError::InvalidParam`] for truncated or inconsistent payloads.
pub fn decode_logits(body: &[u8]) -> Result<(usize, usize, Vec<f32>), ScError> {
    let images = read_u32(body, 0)?;
    let classes = read_u32(body, 4)?;
    let data = body.get(8..).unwrap_or(&[]);
    let want = images.checked_mul(classes).and_then(|n| n.checked_mul(4)).ok_or_else(|| {
        ScError::InvalidParam { name: "body", reason: "logits shape overflows".into() }
    })?;
    if data.len() != want {
        return Err(ScError::InvalidParam {
            name: "body",
            reason: format!(
                "logits body carries {} data bytes, expected {want} for [{images}, {classes}]",
                data.len(),
            ),
        });
    }
    let mut vals = Vec::with_capacity(want / 4);
    for chunk in data.chunks_exact(4) {
        let mut w = [0u8; 4];
        w.copy_from_slice(chunk);
        vals.push(f32::from_le_bytes(w));
    }
    Ok((images, classes, vals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg() -> VitConfig {
        VitConfig { image: 8, patch: 4, dim: 16, layers: 1, heads: 2, classes: 2, ..Default::default() }
    }

    #[test]
    fn infer_request_round_trips() {
        let c = cfg();
        let n = c.num_patches() * c.patch_dim() * 3;
        let patches: Vec<f32> = (0..n).map(|i| i as f32 * 0.25).collect();
        let body = encode_infer_request(&patches, 3);
        let (tensor, images) = decode_infer_request(&body, &c).expect("decodes");
        assert_eq!(images, 3);
        assert_eq!(tensor.data(), &patches[..]);
    }

    #[test]
    fn infer_request_rejects_malformed_payloads() {
        let c = cfg();
        // Truncated header.
        assert!(decode_infer_request(&[1, 0, 0], &c).is_err());
        // Zero images.
        let body = encode_infer_request(&[], 0);
        assert!(decode_infer_request(&body, &c).is_err());
        // Length prefix disagrees with the model shape.
        let body = encode_infer_request(&[0.0; 7], 1);
        assert!(decode_infer_request(&body, &c).is_err());
        // Prefix right, data bytes short.
        let good = encode_infer_request(&vec![0.0; c.num_patches() * c.patch_dim()], 1);
        assert!(decode_infer_request(&good[..good.len() - 1], &c).is_err());
    }

    #[test]
    fn logits_round_trip_is_bit_exact() {
        let vals = vec![1.5f32, -0.0, f32::MIN_POSITIVE, 3.25e-20, 7.0, -2.5];
        let t = Tensor::from_vec(vals.clone(), &[3, 2]);
        let body = encode_logits(&t, 3, 2);
        let (images, classes, got) = decode_logits(&body).expect("decodes");
        assert_eq!((images, classes), (3, 2));
        for (a, b) in got.iter().zip(vals.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(decode_logits(&body[..body.len() - 2]).is_err());
        // A hostile header whose byte count overflows: typed error, no
        // overflow panic and no capacity-overflow abort.
        let hostile = [0, 0, 0, 0x80, 0, 0, 0, 0x80];
        assert!(matches!(
            decode_logits(&hostile),
            Err(ScError::InvalidParam { name: "body", .. })
        ));
    }

    /// A body that starts with the given `u32` header words.
    fn framed(a: u32, b: u32, data: &[u8]) -> Vec<u8> {
        let mut body = a.to_le_bytes().to_vec();
        body.extend_from_slice(&b.to_le_bytes());
        body.extend_from_slice(data);
        body
    }

    /// A hostile body: raw bytes (`mode` 0), random header words `a`, `b`
    /// over raw data (1), or header words `x`, `y` declaring `floats`
    /// values over data one byte short (2), exact (3) or one byte long (4).
    fn body(
        mode: u8,
        (a, b): (u32, u32),
        (x, y): (u32, u32),
        floats: usize,
        data: &[u8],
    ) -> Vec<u8> {
        match mode {
            0 => data.to_vec(),
            1 => framed(a, b, data),
            _ => {
                let len = (4 * floats + usize::from(mode - 2)).saturating_sub(1);
                framed(x, y, &data.iter().copied().cycle().take(len).collect::<Vec<_>>())
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A logits body decodes only when its data is exactly the
        /// `images × classes` floats its header declares.
        #[test]
        fn any_logits_body_decodes_or_fails_typed(
            mode in 0u8..5,
            words in (any::<u32>(), any::<u32>()),
            images in 0u32..5,
            classes in 0u32..5,
            data in prop::collection::vec(any::<u8>(), 1..96),
        ) {
            let floats = (images * classes) as usize;
            let body = body(mode, words, (images, classes), floats, &data);
            match decode_logits(&body) {
                Ok((i, c, vals)) => {
                    prop_assert_eq!(vals.len(), i * c);
                    prop_assert_eq!(body.len(), 8 + 4 * i * c);
                }
                Err(e) => prop_assert!(matches!(e, ScError::InvalidParam { name: "body", .. })),
            }
            if mode == 3 {
                prop_assert!(decode_logits(&body).is_ok(), "an exact body must decode");
            }
        }

        /// An infer body decodes only into a tensor of whole images of the
        /// served geometry.
        #[test]
        fn any_infer_body_decodes_or_fails_typed(
            mode in 0u8..5,
            words in (any::<u32>(), any::<u32>()),
            images in 0u32..4,
            data in prop::collection::vec(any::<u8>(), 1..96),
        ) {
            let c = VitConfig { image: 4, patch: 2, channels: 1, ..cfg() };
            let per_image = (c.num_patches() * c.patch_dim()) as u32;
            let floats = (images * per_image) as usize;
            let body = body(mode, words, (images, images * per_image), floats, &data);
            match decode_infer_request(&body, &c) {
                Ok((t, n)) => {
                    prop_assert!(n > 0);
                    prop_assert_eq!(t.shape(), &[n * c.num_patches(), c.patch_dim()][..]);
                    prop_assert_eq!(body.len(), 8 + 4 * t.numel());
                }
                Err(e) => prop_assert!(matches!(e, ScError::InvalidParam { name: "body", .. })),
            }
            if mode == 3 && images > 0 {
                prop_assert!(decode_infer_request(&body, &c).is_ok(), "an exact body must decode");
            }
        }
    }
}
