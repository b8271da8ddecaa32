//! The daemon under test, in process, and the benchmark's HTTP client.
//!
//! The client is the benchmark's own (rather than `cosa_serve::http::request`)
//! because the traced run times the connect apart from the exchange. One
//! connection carries one request, as the protocol requires.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::Duration;

use cosa_serve::{ServeConfig, Server, ServerHandle};

/// Socket timeout of the benchmark's client: a warm answer takes
/// microseconds, so anything near this is a failure, not a slow success.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// A running in-process daemon.
pub struct Daemon {
    handle: Option<ServerHandle>,
    addr: SocketAddr,
}

impl Daemon {
    /// Start a daemon on an ephemeral loopback port with `workers` worker
    /// threads and its cache directory at `cache_dir`.
    pub fn start(cache_dir: &Path, workers: usize) -> io::Result<Daemon> {
        let config = ServeConfig::builder()
            .workers(workers)
            .cache_dir(cache_dir)
            .build();
        let handle = Server::start(config)?;
        Ok(Daemon {
            addr: handle.addr(),
            handle: Some(handle),
        })
    }

    /// Where it listens.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drain and join every daemon thread.
    pub fn stop(&mut self) -> io::Result<()> {
        match self.handle.take() {
            Some(handle) => handle.shutdown(),
            None => Ok(()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// One answered request.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: String,
}

/// Open the one connection a request uses.
pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT)?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    Ok(stream)
}

/// The bytes a client sends for `method path` with `body`.
pub fn request_bytes(addr: SocketAddr, method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Send `request` on `stream` and read the response to the end.
pub fn exchange(stream: &mut TcpStream, request: &[u8]) -> io::Result<(u16, String)> {
    stream.write_all(request)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response has no head"))?;
    let status = std::str::from_utf8(&raw[..head_end])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("response has no status"))?;
    let body = String::from_utf8(raw.split_off(head_end + 4)).map_err(|_| bad("body not UTF-8"))?;
    Ok((status, body))
}

/// One whole request on a fresh connection.
pub fn send(addr: SocketAddr, request: &[u8]) -> io::Result<Reply> {
    let (status, body) = exchange(&mut connect(addr)?, request)?;
    Ok(Reply { status, body })
}

/// Read one integer setting under `/proc/sys/net/ipv4`.
fn ipv4_setting(name: &str) -> Option<Vec<u64>> {
    let raw = std::fs::read_to_string(format!("/proc/sys/net/ipv4/{name}")).ok()?;
    raw.split_whitespace().map(|t| t.parse().ok()).collect()
}

/// A warning when `connections` one-request loopback connections within a
/// minute could run the client out of ports: every closed connection holds
/// its port in TIME_WAIT for 60 s unless the kernel may reuse it.
pub fn port_exhaustion_warning(connections: u64) -> Option<String> {
    let reuse = ipv4_setting("tcp_tw_reuse")?.first().copied()?;
    let range = ipv4_setting("ip_local_port_range")?;
    let ports = range.get(1)?.saturating_sub(*range.first()?);
    (reuse == 0 && connections > ports).then(|| {
        format!(
            "{connections} loopback connections but only {ports} local ports and tcp_tw_reuse=0: \
             connects may fail with EADDRNOTAVAIL and will be counted as failed operations"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scratch;

    #[test]
    fn daemon_starts_answers_and_stops() {
        let scratch = Scratch::new("daemon-test").unwrap();
        let mut daemon = Daemon::start(scratch.path(), 1).unwrap();
        let request = request_bytes(daemon.addr(), "GET", "/v1/healthz", "");
        let reply = send(daemon.addr(), &request).unwrap();
        assert_eq!(reply.status, 200);
        assert!(reply.body.contains("\"ok\""), "{}", reply.body);
        daemon.stop().unwrap();
        assert!(
            send(daemon.addr(), &request).is_err(),
            "nothing listens after stop"
        );
    }
}
