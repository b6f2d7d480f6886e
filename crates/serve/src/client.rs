//! A small *blocking* HTTP/1.1 client — the test- and probe-side
//! counterpart of [`crate::http`].
//!
//! Connections are **reused** across requests (HTTP/1.1 keep-alive):
//! responses are read by their framing (`Content-Length` or chunked
//! transfer encoding), never to EOF, so one TCP connection serves a whole
//! probe session instead of paying a connect per request. A reused
//! connection the server has since closed (its idle timeout is 30 s) is
//! detected on the next request and transparently replaced by a fresh one.
//! Blocking is a feature here: the probe and the integration tests *want*
//! "wait until the job finishes" semantics, which is exactly what reading
//! a chunked NDJSON stream to its terminal chunk gives.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

use serde::Value;

/// A decoded HTTP response.
#[derive(Debug, Clone)]
pub struct HttpReply {
    /// Status code.
    pub status: u16,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body, de-chunked when the response was chunked.
    pub body: Vec<u8>,
}

impl HttpReply {
    /// The first header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// The body parsed as JSON, if it is valid JSON.
    pub fn json(&self) -> Option<Value> {
        serde_json::from_str(&self.text()).ok()
    }

    /// The body as NDJSON: one parsed value per non-empty line.
    pub fn ndjson(&self) -> Vec<Value> {
        self.text()
            .lines()
            .filter(|l| !l.trim().is_empty())
            .filter_map(|l| serde_json::from_str(l).ok())
            .collect()
    }

    /// Whether the server will keep the connection open for another
    /// request (explicit `Connection: keep-alive`; [`crate::http`] always
    /// sets the header, so absence is treated as close).
    fn keeps_connection(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
    }
}

/// A blocking client bound to one server address, holding at most one
/// reusable keep-alive connection.
#[derive(Debug)]
pub struct HttpClient {
    addr: SocketAddr,
    timeout: Duration,
    conn: Mutex<Option<TcpStream>>,
}

impl Clone for HttpClient {
    /// Clones the address and timeout; the clone starts without a pooled
    /// connection (sockets cannot be shared, and each clone is typically a
    /// separate worker wanting its own connection anyway).
    fn clone(&self) -> Self {
        HttpClient {
            addr: self.addr,
            timeout: self.timeout,
            conn: Mutex::new(None),
        }
    }
}

impl HttpClient {
    /// A client for `addr` with a 120 s per-read timeout (long enough for
    /// a `--quick` campaign's training phase between event lines).
    pub fn new(addr: SocketAddr) -> Self {
        HttpClient {
            addr,
            timeout: Duration::from_secs(120),
            conn: Mutex::new(None),
        }
    }

    /// Overrides the per-read timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// `GET path`.
    ///
    /// # Errors
    ///
    /// Any socket error, a read timeout, or a malformed response.
    pub fn get(&self, path: &str) -> std::io::Result<HttpReply> {
        self.request("GET", path, &[], b"")
    }

    /// `DELETE path`.
    ///
    /// # Errors
    ///
    /// See [`HttpClient::get`].
    pub fn delete(&self, path: &str) -> std::io::Result<HttpReply> {
        self.request("DELETE", path, &[], b"")
    }

    /// `POST path` with a JSON body.
    ///
    /// # Errors
    ///
    /// See [`HttpClient::get`].
    pub fn post_json(&self, path: &str, body: &str) -> std::io::Result<HttpReply> {
        self.request("POST", path, &[("Content-Type", "application/json")], body.as_bytes())
    }

    /// [`HttpClient::post_json`] that honors load shedding: a `503` with a
    /// `Retry-After` header is retried up to `max_retries` times, sleeping
    /// the server's hint scaled by a deterministic jitter factor in
    /// `[0.5, 1.0)` (keyed off the path and attempt, so a fleet of probes
    /// hitting the same shed does not retry in lockstep). Any other reply —
    /// including a final `503` — is returned as-is.
    ///
    /// # Errors
    ///
    /// See [`HttpClient::get`].
    pub fn post_json_retrying(
        &self,
        path: &str,
        body: &str,
        max_retries: usize,
    ) -> std::io::Result<HttpReply> {
        let mut attempt = 0;
        loop {
            let reply = self.post_json(path, body)?;
            attempt += 1;
            let retry_after = reply.header("retry-after").and_then(|v| v.parse::<u64>().ok());
            let sheds = reply.status == 503 && retry_after.is_some();
            if !sheds || attempt > max_retries {
                return Ok(reply);
            }
            let hint = Duration::from_secs(retry_after.unwrap_or(1).clamp(1, 60));
            std::thread::sleep(hint.mul_f64(retry_jitter(path, attempt)));
        }
    }

    /// Sends one request and reads the framed response, reusing the pooled
    /// keep-alive connection when one is open. A pooled connection the
    /// server closed in the meantime (idle timeout, restart) fails the
    /// first attempt; the request is then retried exactly once on a fresh
    /// connection — safe because the server never processed a byte of the
    /// failed attempt's response. A chunked response body, such as the
    /// NDJSON event stream, blocks until the server finishes it; that is
    /// the intended way to wait for a job.
    ///
    /// # Errors
    ///
    /// Any socket error, a read timeout, or a malformed response head.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> std::io::Result<HttpReply> {
        let pooled = self.conn.lock().map_or(None, |mut guard| guard.take());
        if let Some(stream) = pooled {
            match self.attempt(stream, method, path, headers, body) {
                Ok(reply) => return Ok(reply),
                // only a connection found dead *before any response byte*
                // is retried — a mid-stream failure must surface, because
                // the server may already be processing the request
                Err(e) if connection_was_stale(&e) => {}
                Err(e) => return Err(e),
            }
        }
        let stream = TcpStream::connect(self.addr)?;
        self.attempt(stream, method, path, headers, body)
    }

    /// One request/response exchange on `stream`; pools the stream back
    /// for reuse when the server kept the connection open.
    fn attempt(
        &self,
        mut stream: TcpStream,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> std::io::Result<HttpReply> {
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;

        let mut req = format!("{method} {path} HTTP/1.1\r\nHost: ftclipd\r\nConnection: keep-alive\r\n");
        for (name, value) in headers {
            req.push_str(&format!("{name}: {value}\r\n"));
        }
        req.push_str(&format!("Content-Length: {}\r\n", body.len()));
        req.push_str("\r\n");
        // head and body in one write: a second small write on a keep-alive
        // socket would stall on the peer's delayed ACK (Nagle)
        let mut request = req.into_bytes();
        request.extend_from_slice(body);
        stream.write_all(&request)?;

        let reply = read_framed_reply(&mut stream)?;
        if reply.keeps_connection() {
            if let Ok(mut guard) = self.conn.lock() {
                *guard = Some(stream);
            }
        }
        Ok(reply)
    }
}

/// Deterministic retry jitter in `[0.5, 1.0)` from the request path and
/// attempt number — replayable under test, decorrelated across callers.
fn retry_jitter(path: &str, attempt: usize) -> f64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in path.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^= attempt as u64;
    h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 29;
    0.5 + 0.5 * ((h >> 11) as f64 / (1u64 << 53) as f64)
}

/// Errors that mean the pooled connection was already dead when the
/// request started: the server closed it (idle timeout, restart) without
/// sending a byte of this exchange. Safe to retry on a fresh connection.
fn connection_was_stale(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::NotConnected
            | ErrorKind::BrokenPipe
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
    )
}

/// Reads one complete response from the stream by its framing: head to the
/// `\r\n\r\n` terminator, then a `Content-Length` body, a chunked body to
/// its terminal chunk, or (absent both) the legacy read-to-EOF close.
fn read_framed_reply(stream: &mut TcpStream) -> std::io::Result<HttpReply> {
    let bad = |msg: &str| std::io::Error::new(ErrorKind::InvalidData, msg.to_string());
    let mut raw = Vec::with_capacity(1024);
    let mut buf = [0u8; 8192];
    let head_end = loop {
        if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            // clean close before any byte → the keep-alive went stale
            // (retryable); a torn-off partial head is real corruption
            return if raw.is_empty() {
                Err(ErrorKind::NotConnected.into())
            } else {
                Err(bad("connection closed mid response head"))
            };
        }
        raw.extend_from_slice(&buf[..n]);
    };
    let (status, headers) = parse_head(&raw[..head_end])?;

    let mut rest = raw[head_end + 4..].to_vec();
    let chunked = headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok());
    let body = if chunked {
        loop {
            match decode_chunked(&rest) {
                ChunkState::Complete(body) => break body,
                ChunkState::Malformed => return Err(bad("malformed chunked body")),
                ChunkState::NeedMore => {
                    let n = stream.read(&mut buf)?;
                    if n == 0 {
                        return Err(bad("chunked body truncated"));
                    }
                    rest.extend_from_slice(&buf[..n]);
                }
            }
        }
    } else if let Some(len) = content_length {
        while rest.len() < len {
            let n = stream.read(&mut buf)?;
            if n == 0 {
                return Err(ErrorKind::UnexpectedEof.into());
            }
            rest.extend_from_slice(&buf[..n]);
        }
        rest.truncate(len);
        rest
    } else {
        // no framing: the server signals the end by closing (HTTP/1.0
        // style); such a connection is never pooled
        stream.read_to_end(&mut rest)?;
        rest
    };
    Ok(HttpReply { status, headers, body })
}

/// Parses the status line and headers of a response head.
fn parse_head(head: &[u8]) -> std::io::Result<(u16, Vec<(String, String)>)> {
    let bad = |msg: &str| std::io::Error::new(ErrorKind::InvalidData, msg.to_string());
    let head = std::str::from_utf8(head).map_err(|_| bad("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let headers = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok((status, headers))
}

/// Parses a full raw response (head + body already in memory) — the
/// non-incremental view the unit tests use to pin the framing rules.
#[cfg(test)]
fn parse_reply(raw: &[u8]) -> std::io::Result<HttpReply> {
    let bad = |msg: &str| std::io::Error::new(ErrorKind::InvalidData, msg.to_string());
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response head never terminated"))?;
    let (status, headers) = parse_head(&raw[..head_end])?;

    let rest = &raw[head_end + 4..];
    let chunked = headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let body = if chunked {
        match decode_chunked(rest) {
            ChunkState::Complete(body) => body,
            _ => return Err(bad("malformed chunked body")),
        }
    } else {
        let len = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse::<usize>().ok())
            .unwrap_or(rest.len());
        rest.get(..len.min(rest.len())).unwrap_or_default().to_vec()
    };
    Ok(HttpReply { status, headers, body })
}

/// Outcome of decoding a (possibly still-arriving) chunked body.
enum ChunkState {
    /// The terminal chunk arrived; the de-chunked body.
    Complete(Vec<u8>),
    /// The prefix is valid but the body is not finished yet.
    NeedMore,
    /// The framing is invalid (non-hex size line, missing CRLF).
    Malformed,
}

/// Decodes as much of a chunked body as `rest` holds.
fn decode_chunked(mut rest: &[u8]) -> ChunkState {
    let mut body = Vec::new();
    loop {
        let Some(line_end) = rest.windows(2).position(|w| w == b"\r\n") else {
            // an impossible size line (too long to still lack its CRLF)
            // is framing corruption, not a short read
            return if rest.len() > 18 { ChunkState::Malformed } else { ChunkState::NeedMore };
        };
        let Ok(size_line) = std::str::from_utf8(&rest[..line_end]) else {
            return ChunkState::Malformed;
        };
        let Ok(size) = usize::from_str_radix(size_line.trim(), 16) else {
            return ChunkState::Malformed;
        };
        rest = &rest[line_end + 2..];
        if size == 0 {
            return ChunkState::Complete(body);
        }
        let Some(data) = rest.get(..size) else {
            return ChunkState::NeedMore;
        };
        body.extend_from_slice(data);
        match rest.get(size..size + 2) {
            Some(b"\r\n") => rest = &rest[size + 2..],
            Some(_) => return ChunkState::Malformed,
            None => return ChunkState::NeedMore,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_response_parses() {
        let raw = b"HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: 4\r\n\r\ngone";
        let reply = parse_reply(raw).unwrap();
        assert_eq!(reply.status, 404);
        assert_eq!(reply.header("Content-Type"), Some("text/plain"));
        assert_eq!(reply.text(), "gone");
    }

    #[test]
    fn chunked_response_dechunks_and_ndjson_splits() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                    10\r\n{\"event\":\"a\"}\n{\"\r\n9\r\nx\":true}\n\r\n0\r\n\r\n";
        let reply = parse_reply(raw).unwrap();
        assert_eq!(reply.text(), "{\"event\":\"a\"}\n{\"x\":true}\n");
        let values = reply.ndjson();
        assert_eq!(values.len(), 2);
        assert_eq!(values[0].get("event").and_then(Value::as_str), Some("a"));
        assert_eq!(values[1].get("x").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn truncated_chunked_body_is_an_error() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n10\r\n{\"ev";
        assert!(parse_reply(raw).is_err());
    }

    #[test]
    fn incremental_chunk_decoding_distinguishes_short_from_malformed() {
        assert!(matches!(decode_chunked(b"4\r\nab"), ChunkState::NeedMore), "data still arriving");
        assert!(matches!(decode_chunked(b"4"), ChunkState::NeedMore), "size line still arriving");
        assert!(matches!(decode_chunked(b"xyz\r\nab"), ChunkState::Malformed), "non-hex size");
        assert!(matches!(decode_chunked(b"4\r\nabcdXX"), ChunkState::Malformed), "missing chunk CRLF");
        match decode_chunked(b"4\r\nabcd\r\n0\r\n\r\n") {
            ChunkState::Complete(body) => assert_eq!(body, b"abcd"),
            _ => panic!("complete body must decode"),
        }
    }

    #[test]
    fn retry_jitter_is_deterministic_and_bounded() {
        for attempt in 1..=5 {
            let j = retry_jitter("/v1/specs", attempt);
            assert_eq!(j.to_bits(), retry_jitter("/v1/specs", attempt).to_bits());
            assert!((0.5..1.0).contains(&j), "attempt {attempt}: {j}");
        }
        assert_ne!(
            retry_jitter("/v1/specs", 1).to_bits(),
            retry_jitter("/v1/jobs", 1).to_bits(),
            "different paths must decorrelate"
        );
    }

    #[test]
    fn keep_alive_header_gates_connection_reuse() {
        let keep =
            parse_reply(b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nContent-Length: 0\r\n\r\n").unwrap();
        assert!(keep.keeps_connection());
        let close =
            parse_reply(b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 0\r\n\r\n").unwrap();
        assert!(!close.keeps_connection());
        let silent = parse_reply(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n").unwrap();
        assert!(!silent.keeps_connection(), "absent header must not pool the connection");
    }
}
