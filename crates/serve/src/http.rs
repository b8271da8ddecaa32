//! A deliberately minimal HTTP/1.1 subset over [`std::net`] — just enough
//! for the daemon's JSON endpoints and its load-generator clients, with no
//! vendored dependencies.
//!
//! Supported: request line + headers + `Content-Length` bodies, one
//! request per connection (`Connection: close` semantics on both sides).
//! Not supported (and not needed by the protocol): keep-alive, chunked
//! transfer, multi-line headers, trailers. Both sides bound header and
//! body sizes so a misbehaving peer cannot balloon a worker.
//!
//! The server side parses *incrementally* through [`RequestParser`]: the
//! readiness-driven front feeds it whatever bytes `epoll` says have
//! arrived, and only a **complete** request ever reaches a worker thread —
//! a byte-trickling (slowloris-style) client occupies a parser buffer, not
//! a worker. The blocking [`read_request`] used by tests and simple tools
//! is a thin loop over the same parser, so both paths accept exactly the
//! same requests.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Bound on the request line + headers (a schedule request's headers are
/// a few hundred bytes).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Bound on a request body (an inline ResNet-50 network is ~100 KB of
/// JSON; 16 MB leaves two orders of magnitude of headroom).
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Per-connection socket read/write timeout for the *blocking* helpers: a
/// stalled peer frees the calling thread instead of wedging it. The
/// readiness-driven front enforces its own per-phase deadlines instead.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Client-side response-read timeout. Deliberately much longer than
/// [`IO_TIMEOUT`]: a cold `POST /v1/schedule` answer arrives only after the
/// MILP solve, which can take tens of seconds per unique shape (the warm
/// path answers in microseconds).
pub const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(600);

/// One parsed request: method, path and (possibly empty) body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Absolute path, e.g. `/v1/schedule`.
    pub path: String,
    /// The raw body bytes as UTF-8 (JSON for every protocol endpoint).
    pub body: String,
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Parsed head fields, held while the body streams in.
#[derive(Debug)]
struct Head {
    method: String,
    path: String,
    content_length: usize,
    /// Offset of the first body byte in the parser's buffer.
    body_start: usize,
}

/// An incremental request parser: feed it bytes as they arrive, get a
/// [`Request`] back once the head and `Content-Length` body are complete.
///
/// The parser enforces [`MAX_HEAD_BYTES`] / [`MAX_BODY_BYTES`] as the
/// bytes stream in, so a hostile peer is cut off at the bound instead of
/// ballooning the buffer. One parser serves one connection for one
/// request (`Connection: close` protocol).
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    head: Option<Head>,
    /// Bytes of `buf` already searched for the end of the head, so each
    /// feed scans only what is new (a head trickled byte by byte costs
    /// O(head), not O(head²)).
    scanned: usize,
}

impl RequestParser {
    /// A fresh parser.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Total bytes buffered so far (head + partial body).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// `true` once at least one byte has arrived — distinguishes a
    /// stalled mid-request peer from a silent idle connection.
    pub fn started(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Feed freshly-arrived bytes. Returns `Ok(Some(request))` when the
    /// request is complete, `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for malformed or oversized requests; the
    /// connection should answer 400 and close.
    pub fn feed(&mut self, bytes: &[u8]) -> io::Result<Option<Request>> {
        self.buf.extend_from_slice(bytes);
        self.advance()
    }

    /// Try to complete a request from the bytes buffered so far.
    fn advance(&mut self) -> io::Result<Option<Request>> {
        if self.head.is_none() {
            // Resume 3 bytes back: the terminator may straddle two feeds.
            let from = self.scanned.saturating_sub(3);
            let Some(head_end) = find_head_end(&self.buf[from..]).map(|at| from + at) else {
                if self.buf.len() > MAX_HEAD_BYTES {
                    return Err(invalid("request head exceeds 16 KiB"));
                }
                self.scanned = self.buf.len();
                return Ok(None);
            };
            let head = std::str::from_utf8(&self.buf[..head_end])
                .map_err(|_| invalid("head is not UTF-8"))?;
            let mut lines = head.split("\r\n");
            let request_line = lines.next().unwrap_or_default();
            let mut parts = request_line.split_whitespace();
            let (method, path) = match (parts.next(), parts.next()) {
                (Some(m), Some(p)) if !m.is_empty() && p.starts_with('/') => (m, p),
                _ => return Err(invalid(format!("bad request line `{request_line}`"))),
            };
            let mut content_length = 0usize;
            for line in lines {
                if let Some((name, value)) = line.split_once(':') {
                    if name.trim().eq_ignore_ascii_case("content-length") {
                        content_length = value
                            .trim()
                            .parse()
                            .map_err(|_| invalid("bad Content-Length"))?;
                    }
                }
            }
            if content_length > MAX_BODY_BYTES {
                return Err(invalid("request body exceeds 16 MiB"));
            }
            self.head = Some(Head {
                method: method.to_string(),
                path: path.to_string(),
                content_length,
                body_start: head_end + 4,
            });
        }
        let head = self.head.as_ref().expect("head parsed above");
        if self.buf.len() < head.body_start + head.content_length {
            return Ok(None);
        }
        let head = self.head.take().expect("head parsed above");
        let body = self.buf[head.body_start..head.body_start + head.content_length].to_vec();
        let body = String::from_utf8(body).map_err(|_| invalid("body is not UTF-8"))?;
        // One request per connection: trailing bytes are ignored.
        self.buf.clear();
        Ok(Some(Request {
            method: head.method,
            path: head.path,
            body,
        }))
    }
}

/// Read one request from `stream`, blocking (with [`IO_TIMEOUT`]) until it
/// is complete. A thin loop over [`RequestParser`], so the blocking and
/// readiness-driven paths accept identical requests.
///
/// # Errors
///
/// Returns `InvalidData` for malformed or oversized requests and any
/// underlying socket error (including read-timeout) verbatim.
pub fn read_request(stream: &mut TcpStream) -> io::Result<Request> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    let mut parser = RequestParser::new();
    let mut chunk = [0u8; 2048];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(invalid(if parser.head.is_none() {
                "connection closed mid-head"
            } else {
                "connection closed mid-body"
            }));
        }
        if let Some(request) = parser.feed(&chunk[..n])? {
            return Ok(request);
        }
    }
}

/// Offset of the `\r\n\r\n` that ends a head, when `buf` holds one.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    (3..buf.len())
        .find(|&i| buf[i] == b'\n' && buf[i - 3..i] == *b"\r\n\r")
        .map(|i| i - 3)
}

/// The standard reason phrase for the status codes the daemon uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Serialize one complete `application/json` response (head + body) into
/// the byte buffer the readiness-driven front writes out as the socket
/// drains. `extra_headers` carries route-level additions. The connection
/// is single-request, so `Connection: close` is always sent.
pub fn response_bytes(status: u16, body: &str, extra_headers: &[(&str, &str)]) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len(),
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// Write one `application/json` response and flush (blocking helper for
/// tests and simple tools; the daemon's front writes [`response_bytes`]
/// incrementally instead).
///
/// # Errors
///
/// Returns the underlying socket error.
pub fn write_response(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(&response_bytes(status, body, &[]))?;
    stream.flush()
}

/// A client-side response: status code, headers and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response headers as `(lowercased-name, value)` pairs, in wire order.
    pub headers: Vec<(String, String)>,
    /// Response body (JSON for every protocol endpoint).
    pub body: String,
}

impl Response {
    /// `true` for 2xx statuses.
    pub fn is_ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// The first header named `name` (case-insensitive), when present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// One-shot client request: connect, send, read the full response.
///
/// The protocol is one request per connection, so this is the entire
/// client surface — `serve_probe`, the integration tests and the example
/// all go through here.
///
/// # Errors
///
/// Returns connect/socket errors and `InvalidData` for malformed
/// responses.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Response> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// Parse a full raw response (head + body) into a [`Response`].
fn parse_response(raw: &[u8]) -> io::Result<Response> {
    let head_end = find_head_end(raw).ok_or_else(|| invalid("response missing head"))?;
    let head =
        std::str::from_utf8(&raw[..head_end]).map_err(|_| invalid("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("bad status line `{status_line}`")))?;
    let headers = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let body = String::from_utf8(raw[head_end + 4..].to_vec())
        .map_err(|_| invalid("response body is not UTF-8"))?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn round_trips_one_request() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let req = read_request(&mut conn).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/echo");
            write_response(&mut conn, 200, &req.body).unwrap();
        });
        let resp = request(addr, "POST", "/echo", r#"{"x":1}"#).unwrap();
        assert!(resp.is_ok());
        assert_eq!(resp.body, r#"{"x":1}"#);
        assert_eq!(resp.header("content-type"), Some("application/json"));
        assert_eq!(resp.header("retry-after"), None);
        server.join().unwrap();
    }

    #[test]
    fn rejects_malformed_request_line() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            assert!(read_request(&mut conn).is_err());
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
        server.join().unwrap();
    }

    /// A request whose head is `head_len` bytes (terminator included),
    /// padded with `X: aaa…` headers of at most 64 bytes — many lone CRLFs
    /// for the head scan to pass over — plus a small body.
    fn request_with_head_of(head_len: usize) -> Vec<u8> {
        let body = r#"{"x":1}"#;
        let mut head = format!(
            "POST /v1/schedule HTTP/1.1\r\nContent-Length: {}\r\n",
            body.len()
        )
        .into_bytes();
        let mut filler = head_len - 2 - head.len();
        while filler > 0 {
            let line = if filler >= 69 { 64 } else { filler };
            head.extend_from_slice(b"X: ");
            head.resize(head.len() + line - 5, b'a');
            head.extend_from_slice(b"\r\n");
            filler -= line;
        }
        head.extend_from_slice(b"\r\n");
        assert_eq!(head.len(), head_len);
        head.extend_from_slice(body.as_bytes());
        head
    }

    #[test]
    fn parser_completes_byte_at_a_time() {
        let raw = b"POST /v1/schedule HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"x\":1}";
        let mut parser = RequestParser::new();
        let mut result = None;
        for (i, byte) in raw.iter().enumerate() {
            assert!(result.is_none(), "complete before the last byte at {i}");
            result = parser.feed(std::slice::from_ref(byte)).unwrap();
        }
        let request = result.expect("request completes on the final byte");
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/v1/schedule");
        assert_eq!(request.body, r#"{"x":1}"#);

        // A head of nearly `MAX_HEAD_BYTES`, split into two feeds at every
        // point — the `\r\n\r\n` straddling them included — and trickled
        // one byte per feed, parses to the one-chunk request each time.
        let raw = request_with_head_of(MAX_HEAD_BYTES - 8);
        let whole = RequestParser::new()
            .feed(&raw)
            .unwrap()
            .expect("one chunk parses");
        assert_eq!(whole.body, r#"{"x":1}"#);
        for split in 1..raw.len() {
            let mut parser = RequestParser::new();
            let first = parser.feed(&raw[..split]).unwrap();
            assert!(
                first.is_none(),
                "complete after {split} of {} bytes",
                raw.len()
            );
            let second = parser.feed(&raw[split..]).unwrap();
            assert_eq!(second.as_ref(), Some(&whole), "split at {split}");
        }
        let mut parser = RequestParser::new();
        let mut result = None;
        for byte in &raw {
            assert!(result.is_none(), "complete before the last byte");
            result = parser.feed(std::slice::from_ref(byte)).unwrap();
        }
        assert_eq!(result, Some(whole), "byte at a time");
    }

    #[test]
    fn parser_enforces_head_and_body_bounds() {
        // A head that never terminates is cut off at the bound.
        let mut parser = RequestParser::new();
        let flood = vec![b'a'; MAX_HEAD_BYTES + 8];
        assert!(parser.feed(&flood).is_err(), "oversized head rejected");

        // An honest head declaring an oversized body is rejected at the
        // head, before any body byte arrives.
        let mut parser = RequestParser::new();
        let head = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(parser.feed(head.as_bytes()).is_err());
    }

    #[test]
    fn response_bytes_carries_extra_headers() {
        let bytes = response_bytes(200, "{}", &[("Retry-After", "1")]);
        let resp = parse_response(&bytes).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("Retry-After"), Some("1"));
        assert_eq!(resp.body, "{}");
    }
}
