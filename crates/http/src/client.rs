//! A minimal blocking HTTP/1.1 client — just enough for the integration
//! tests and the CLI's tests to talk to [`crate::HttpServer`] without
//! duplicating request/response plumbing. Not a general client:
//! it only understands `Content-Length` bodies, which is all the server
//! emits.

use std::io::{self, BufRead, Write};

/// One parsed response from the server.
#[derive(Debug)]
pub struct ClientResponse {
    /// The numeric status code from the status line.
    pub status: u16,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The first header with this (case-insensitive) name, if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// Whether the server announced it will close the connection.
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Writes one HTTP/1.1 request with a `Content-Length` body (empty body
/// is fine) and flushes.
///
/// # Errors
///
/// Propagates the underlying socket write error.
pub fn write_request(
    w: &mut impl Write,
    method: &str,
    target: &str,
    body: &[u8],
    close: bool,
) -> io::Result<()> {
    write!(
        w,
        "{method} {target} HTTP/1.1\r\nhost: ascend-client\r\ncontent-length: {}\r\n",
        body.len()
    )?;
    if close {
        w.write_all(b"connection: close\r\n")?;
    }
    w.write_all(b"\r\n")?;
    w.write_all(body)?;
    w.flush()
}

fn protocol_error(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

fn read_line(r: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    let n = r.read_line(&mut line)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Reads and parses one response off the wire.
///
/// # Errors
///
/// Socket errors pass through; malformed response framing becomes
/// [`io::ErrorKind::InvalidData`].
pub fn read_response(r: &mut impl BufRead) -> io::Result<ClientResponse> {
    let status_line = read_line(r)?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if version != "HTTP/1.1" {
        return Err(protocol_error(format!("bad status line `{status_line}`")));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| protocol_error(format!("bad status in `{status_line}`")))?;
    let mut headers = Vec::new();
    loop {
        let line = read_line(r)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| protocol_error(format!("bad header line `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let len: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .ok_or_else(|| protocol_error("response lacks a valid content-length"))?;
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(ClientResponse { status, headers, body })
}
