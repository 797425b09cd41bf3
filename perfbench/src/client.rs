//! A minimal HTTP/1.1 client: keep-alive connections, incremental
//! response parsing, and one-shot `GET`s for probes and scrapes.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long any single read or write may stall before the request
/// counts as failed.
pub const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// A parsed response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub status: u16,
    /// The server announced it will close the connection after this one.
    pub close: bool,
    pub body: Vec<u8>,
}

/// Parses one complete response from the front of `buf`, returning it
/// with the bytes it used; `None` until the whole response has arrived.
pub fn parse_response(buf: &[u8]) -> io::Result<Option<(Response, usize)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let (mut length, mut close) = (None, false);
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(value.parse::<usize>().map_err(|_| bad("bad Content-Length"))?);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or_else(|| bad("no Content-Length"))?;
    let end = head_end + 4 + length;
    if buf.len() < end {
        return Ok(None);
    }
    Ok(Some((Response { status, close, body: buf[head_end + 4..end].to_vec() }, end)))
}

/// Opens a client socket with the benchmark's options.
pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

/// A blocking keep-alive connection that reconnects when the server
/// closes it.
pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Self> {
        Ok(Self { addr, stream: connect(addr)?, buf: Vec::with_capacity(64 * 1024) })
    }

    /// Sends `request` and waits for its response.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Response> {
        self.stream.write_all(request)?;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some((response, used)) = parse_response(&self.buf)? {
                self.buf.drain(..used);
                if response.close {
                    self.reconnect()?;
                }
                return Ok(response);
            }
            let read = self.stream.read(&mut chunk)?;
            if read == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
            }
            self.buf.extend_from_slice(&chunk[..read]);
        }
    }

    /// Replaces the socket (after a close or a failed exchange).
    pub fn reconnect(&mut self) -> io::Result<()> {
        self.buf.clear();
        self.stream = connect(self.addr)?;
        Ok(())
    }
}

/// One `GET` on a fresh connection.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<Response> {
    let request = format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n");
    Conn::open(addr)?.exchange(request.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_responses_incrementally() {
        let one = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}";
        let two = b"HTTP/1.1 404 Not Found\r\nContent-Length: 3\r\nConnection: close\r\n\r\nabc";
        let mut wire = one.to_vec();
        wire.extend_from_slice(two);
        assert_eq!(parse_response(&wire[..one.len() - 1]).unwrap(), None);
        let (first, used) = parse_response(&wire).unwrap().unwrap();
        assert_eq!((first.status, first.close, first.body.as_slice()), (200, false, &b"{}"[..]));
        assert_eq!(used, one.len());
        let (second, used) = parse_response(&wire[used..]).unwrap().unwrap();
        assert_eq!((second.status, second.close, second.body.as_slice()), (404, true, &b"abc"[..]));
        assert_eq!(used, two.len());
    }

    #[test]
    fn rejects_a_response_without_length() {
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
    }
}
