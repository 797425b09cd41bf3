//! The one HTTP/1.1 client for the JSON API: the remote fan-out
//! backend, the end-to-end tests and the socket benches all speak to a
//! server through it.
//!
//! * [`read_response`] reads one `Content-Length`-framed response off
//!   any reader, keeping the bytes read past it in a carry-over buffer
//!   so pipelined responses parse in order. It is the only response
//!   parser in the workspace; it refuses what it cannot frame safely (a
//!   head over `MAX_HEAD`, a body over [`MAX_RESPONSE_BODY`],
//!   `Transfer-Encoding`) before allocating for it.
//! * [`connect`] dials every resolved address in turn with a timeout.
//! * [`Client`] keeps one connection alive across requests, gives each
//!   request a deadline, and retries once on a fresh socket when a
//!   *reused* one turns out to be stale.
//!
//! Only the head scan and the `Connection` token test are shared with
//! the server's request parser: the two parse different first lines
//! and headers.

use crate::http::{connection_has_token, find_head_end, MAX_HEAD};
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Largest response body [`read_response`] accepts — the same cap the
/// replication protocol puts on one frame.
pub const MAX_RESPONSE_BODY: usize = 64 * 1024 * 1024;

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Status line and headers, without the blank line that ends them.
    pub head: String,
    /// Response body (the server only sends UTF-8).
    pub body: String,
    /// Whether the connection may carry another request: HTTP/1.1
    /// unless `Connection: close`, HTTP/1.0 only with `keep-alive`.
    pub keep_alive: bool,
}

impl Reply {
    /// The value of the first header named `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.head.split("\r\n").skip(1).find_map(|line| {
            let (key, value) = line.split_once(':')?;
            key.trim().eq_ignore_ascii_case(name).then(|| value.trim())
        })
    }
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Appends one read's worth of bytes from `r` to `buf`; EOF is an error
/// because a response is never complete at that point.
fn fill<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut chunk = [0u8; 8192];
    let got = r.read(&mut chunk)?;
    if got == 0 {
        let what = if buf.is_empty() { "before a response" } else { "mid-response" };
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, format!("peer closed {what}")));
    }
    buf.extend_from_slice(&chunk[..got]);
    Ok(())
}

/// Reads exactly one response from `r`, starting with whatever `buf`
/// already holds. Bytes past the response stay in `buf` for the next
/// call. The body is framed by `Content-Length` (required); a head
/// longer than `MAX_HEAD`, a body longer than [`MAX_RESPONSE_BODY`] and
/// any `Transfer-Encoding` are refused with `InvalidData` before the
/// body is read.
pub fn read_response<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> io::Result<Reply> {
    let head_end = loop {
        match find_head_end(buf) {
            Some(pos) if pos <= MAX_HEAD => break pos,
            None if buf.len() <= MAX_HEAD => fill(r, buf)?,
            _ => return Err(invalid(format!("response head longer than {MAX_HEAD} bytes"))),
        }
    };
    let head =
        std::str::from_utf8(&buf[..head_end]).map_err(|_| invalid("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.split(' ');
    let version = parts.next().unwrap_or("");
    let status = parts.next().and_then(|code| code.parse::<u16>().ok());
    let status = match (version, status) {
        ("HTTP/1.1" | "HTTP/1.0", Some(status)) => status,
        _ => return Err(invalid(format!("bad status line {status_line:?}"))),
    };
    let mut content_length = None;
    let mut connection = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            let length = value
                .parse::<usize>()
                .map_err(|_| invalid(format!("bad Content-Length {value:?}")))?;
            if length > MAX_RESPONSE_BODY {
                return Err(invalid(format!(
                    "Content-Length {length} exceeds the {MAX_RESPONSE_BODY}-byte limit"
                )));
            }
            content_length = Some(length);
        } else if name.eq_ignore_ascii_case("connection") {
            connection = Some(value);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(invalid("Transfer-Encoding is not supported"));
        }
    }
    let length = content_length.ok_or_else(|| invalid("response has no Content-Length"))?;
    let keep_alive = if version == "HTTP/1.1" {
        !connection_has_token(connection, "close")
    } else {
        connection_has_token(connection, "keep-alive")
    };
    let head = head.to_string();

    let end = head_end + 4 + length;
    buf.reserve(end.saturating_sub(buf.len()));
    while buf.len() < end {
        fill(r, buf)?;
    }
    let body = String::from_utf8(buf[head_end + 4..end].to_vec())
        .map_err(|_| invalid("response body is not UTF-8"))?;
    buf.drain(..end);
    Ok(Reply { status, head, body, keep_alive })
}

/// Connects to the first of `addr`'s resolved addresses that accepts
/// within `timeout`, then gives the socket `timeout` as its read and
/// write timeouts and disables Nagle (requests go out in one write).
pub fn connect(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let mut last = io::Error::other(format!("no addresses resolved for {addr:?}"));
    for resolved in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&resolved, timeout) {
            Ok(conn) => {
                conn.set_read_timeout(Some(timeout))?;
                conn.set_write_timeout(Some(timeout))?;
                conn.set_nodelay(true)?;
                return Ok(conn);
            }
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// A reader that fails once `until` has passed: each read may block
/// only for the time the request has left.
struct Deadline<'a> {
    stream: &'a TcpStream,
    until: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        self.stream.set_read_timeout(Some(time_left(self.until)?))?;
        self.stream.read(out)
    }
}

fn time_left(until: Instant) -> io::Result<Duration> {
    let left = until.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(io::Error::new(io::ErrorKind::TimedOut, "request deadline passed"));
    }
    Ok(left)
}

/// A keep-alive HTTP/1.1 client for one server.
///
/// Every request must finish (connect, send and receive, a retry
/// included) within the client's timeout. When a request fails on a
/// connection that already served one — the server may have closed it
/// as idle in between — it is sent once more on a fresh connection; a
/// timeout is not retried, since the deadline is spent. A response
/// saying `Connection: close` drops the connection and the next request
/// dials again.
#[derive(Debug)]
pub struct Client {
    addr: String,
    timeout: Duration,
    conn: Option<TcpStream>,
    /// Carry-over bytes of the kept-alive connection.
    buf: Vec<u8>,
    retries: u64,
}

impl Client {
    /// A client for `addr` (`host:port`). Nothing is dialed until the
    /// first request.
    pub fn new(addr: impl ToString, timeout: Duration) -> Self {
        Self { addr: addr.to_string(), timeout, conn: None, buf: Vec::new(), retries: 0 }
    }

    /// How many requests were re-sent on a fresh connection after a
    /// reused one failed.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> io::Result<Reply> {
        self.request("GET", path, b"")
    }

    /// `POST path` with a JSON body.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<Reply> {
        self.request("POST", path, body.as_bytes())
    }

    /// Sends one request and reads its response. Any status is `Ok`;
    /// `Err` means no complete response arrived.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        let until = Instant::now() + self.timeout;
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body);

        let reused = self.conn.is_some();
        match self.attempt(&request, until) {
            Err(e)
                if reused
                    && !matches!(e.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock) =>
            {
                self.retries += 1;
                self.attempt(&request, until)
            }
            result => result,
        }
    }

    /// One try on the kept-alive connection, dialed first if there is
    /// none. The connection is kept only after a keep-alive response.
    fn attempt(&mut self, request: &[u8], until: Instant) -> io::Result<Reply> {
        let mut stream = match self.conn.take() {
            Some(stream) => stream,
            None => {
                self.buf.clear();
                connect(&self.addr, time_left(until)?)?
            }
        };
        stream.set_write_timeout(Some(time_left(until)?))?;
        stream.write_all(request)?;
        let reply = read_response(&mut Deadline { stream: &stream, until }, &mut self.buf)?;
        if reply.keep_alive {
            self.conn = Some(stream);
        }
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{serve, Catalog, ServerConfig};
    use std::net::TcpListener;
    use std::sync::Arc;

    fn response(status: u16, connection: &str, body: &str) -> String {
        format!(
            "HTTP/1.1 {status} X\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
            body.len()
        )
    }

    #[test]
    fn a_stale_reused_socket_is_retried_once_on_a_fresh_one() {
        let config = ServerConfig {
            idle_timeout: Duration::from_millis(200),
            ..ServerConfig::with_workers(1)
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = serve(Arc::new(Catalog::new(1)), listener, config).unwrap();
        let mut client = Client::new(handle.addr(), Duration::from_secs(5));
        let first = client.get("/healthz").unwrap();
        assert_eq!(first.status, 200, "{}", first.body);
        let first_local = client.conn.as_ref().unwrap().local_addr().unwrap();

        // the server evicts the idle connection; the client still holds it
        std::thread::sleep(Duration::from_millis(500));
        let second = client.get("/healthz").unwrap();
        assert_eq!(second.status, 200, "{}", second.body);
        assert!(client.retries() >= 1, "the stale socket was retried");
        assert_ne!(client.conn.as_ref().unwrap().local_addr().unwrap(), first_local);
        handle.shutdown();
    }

    #[test]
    fn connection_close_drops_the_socket_and_the_next_request_dials() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for (i, conn) in listener.incoming().take(2).enumerate() {
                let mut conn = conn.unwrap();
                let mut request = [0u8; 1024];
                let _ = conn.read(&mut request).unwrap();
                conn.write_all(response(200, "close", &format!("conn {i}")).as_bytes()).unwrap();
            }
        });
        let mut client = Client::new(addr, Duration::from_secs(5));
        let first = client.get("/").unwrap();
        assert_eq!((first.body.as_str(), first.keep_alive), ("conn 0", false));
        assert!(client.conn.is_none(), "Connection: close drops the socket");
        // a second connection is accepted only because the client dialed
        let second = client.get("/").unwrap();
        assert_eq!(second.body, "conn 1");
        assert_eq!(client.retries(), 0);
        server.join().unwrap();
    }

    #[test]
    fn a_silent_server_fails_the_request_at_its_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let timeout = Duration::from_millis(300);
        let mut client = Client::new(addr, timeout);
        let started = Instant::now();
        let err = client.get("/healthz").unwrap_err();
        assert!(started.elapsed() < 3 * timeout, "took {:?}", started.elapsed());
        assert!(matches!(err.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock), "{err}");
        drop(listener); // held until here: the connection sat in its backlog
    }

    #[test]
    fn responses_that_arrive_in_one_read_parse_in_order() {
        let both = response(200, "keep-alive", "first") + &response(404, "close", "second");
        // a slice reader hands over both responses in its first read
        let mut reader = both.as_bytes();
        let mut buf = Vec::new();
        let first = read_response(&mut reader, &mut buf).unwrap();
        assert!(reader.is_empty(), "both responses were read at once");
        assert_eq!((first.status, first.body.as_str(), first.keep_alive), (200, "first", true));
        let second = read_response(&mut reader, &mut buf).unwrap();
        assert_eq!(
            (second.status, second.body.as_str(), second.keep_alive),
            (404, "second", false)
        );
        assert_eq!(second.header("connection"), Some("close"));
        assert!(buf.is_empty());
    }

    #[test]
    fn unframeable_responses_are_refused_before_allocating() {
        let refused = |raw: &str| {
            let err = read_response(&mut raw.as_bytes(), &mut Vec::new()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{raw:?}: {err}");
        };
        refused("HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n");
        refused(&format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", MAX_RESPONSE_BODY + 1));
        refused("HTTP/1.1 200 OK\r\nContent-Length: 99999999999999999999999\r\n\r\n");
        refused("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n");
        refused("HTTP/1.1 200 OK\r\n\r\n");
        refused("SSH-2.0-OpenSSH\r\n\r\n");
        refused(&format!("HTTP/1.1 200 OK\r\nX-Pad: {}\r\n\r\n", "a".repeat(MAX_HEAD)));
        // a head that never ends stops at MAX_HEAD, not at EOF
        let endless = format!("HTTP/1.1 200 OK\r\nX-Pad: {}", "a".repeat(2 * MAX_HEAD));
        refused(&endless);
    }
}
