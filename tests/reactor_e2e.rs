//! End-to-end exercise of the epoll connection engine's edge cases:
//! idle connections surviving without pinning workers, a stalled
//! connection never holding up another one, socket-level pipelining,
//! peer resets, idle-timeout eviction ordering, the `max_connections`
//! 503, shutdown promptness (eventfd wake, no throwaway connection),
//! and a socket that turns readable mid-shutdown.
//!
//! Everything here runs through the public `serve()` entry point, so
//! the whole worker loop — epoll registration, one-shot readiness,
//! serve on the waking worker, re-arm — is under test, not internals.
//! The file is Linux-only like the engine; on other targets each
//! worker serves one connection at a time and these properties (idle
//! conns ≫ workers in particular) don't hold.
#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use usi::prelude::*;
use usi::server::client::{read_response, Reply};
use usi::server::json::Json;
use usi::server::{serve, Catalog, ServerConfig, ServerHandle};

fn catalog() -> Arc<Catalog> {
    let catalog = Catalog::new(2);
    let ws = WeightedString::new(b"abracadabra_abracadabra".to_vec(), vec![1.0; 23]).unwrap();
    let index = UsiBuilder::new().with_k(12).deterministic(42).build(ws);
    catalog.insert("abra", index);
    Arc::new(catalog)
}

fn start(config: ServerConfig) -> ServerHandle {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    serve(catalog(), listener, config).unwrap()
}

/// Writes one keep-alive GET and reads its response, leaving the
/// connection open.
fn keep_alive_get(stream: &mut TcpStream, addr: SocketAddr, path: &str) -> Reply {
    stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes()).unwrap();
    read_response(stream, &mut Vec::new()).expect("response")
}

/// Polls `probe` until it returns true or the deadline passes.
fn eventually(what: &str, deadline: Duration, probe: impl Fn() -> bool) {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if probe() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out after {deadline:?} waiting for {what}");
}

#[test]
fn idle_connections_outnumber_workers() {
    // The engine's whole point: 64 parked keep-alive connections served
    // from ONE worker. Thread-per-connection serving would deadlock here
    // (the first connection would pin the only worker forever).
    let handle = start(ServerConfig::with_workers(1));
    let addr = handle.addr();

    let mut conns: Vec<TcpStream> = (0..64).map(|_| TcpStream::connect(addr).unwrap()).collect();
    for conn in &mut conns {
        let reply = keep_alive_get(conn, addr, "/healthz");
        assert_eq!(reply.status, 200);
        assert!(reply.body.contains(r#""status":"ok""#), "{}", reply.body);
    }
    eventually("64 open connections", Duration::from_secs(5), || handle.open_connections() == 64);

    // every connection still answers a second round while the other 63
    // sit parked in the epoll set
    for conn in &mut conns {
        assert_eq!(keep_alive_get(conn, addr, "/healthz").status, 200);
    }
    assert_eq!(handle.open_connections(), 64);
    drop(conns);
    eventually("connections drained", Duration::from_secs(5), || handle.open_connections() == 0);
    handle.shutdown();
}

#[test]
fn peer_reset_evicts_the_parked_connection() {
    // EPOLLHUP/EPOLLERR path: a client that vanishes with response
    // bytes unread makes the kernel send RST; the parked socket's error
    // event must reach a worker and the server must reap the connection.
    let handle = start(ServerConfig::with_workers(2));
    let addr = handle.addr();

    for _ in 0..8 {
        let mut stream = TcpStream::connect(addr).unwrap();
        assert_eq!(keep_alive_get(&mut stream, addr, "/healthz").status, 200);
        // second response is written by the server but never read here:
        // closing with unread receive-buffer data turns FIN into RST
        stream
            .write_all(format!("GET /healthz HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())
            .unwrap();
        drop(stream);
    }
    eventually("reset connections reaped", Duration::from_secs(5), || {
        handle.open_connections() == 0
    });
    handle.shutdown();
}

#[test]
fn idle_timeout_evicts_older_connections_first() {
    let config =
        ServerConfig { idle_timeout: Duration::from_millis(300), ..ServerConfig::with_workers(1) };
    let handle = start(config);
    let addr = handle.addr();

    // A parks ~200ms before B, well past the wheel's granularity
    // (300ms/16 clamped to 20ms), so A's deadline tick strictly
    // precedes B's.
    let mut a = TcpStream::connect(addr).unwrap();
    assert_eq!(keep_alive_get(&mut a, addr, "/healthz").status, 200);
    std::thread::sleep(Duration::from_millis(200));
    let mut b = TcpStream::connect(addr).unwrap();
    assert_eq!(keep_alive_get(&mut b, addr, "/healthz").status, 200);

    // blocking read on A returns 0 when the server evicts it
    let mut sink = [0u8; 64];
    a.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert_eq!(a.read(&mut sink).expect("EOF, not an error"), 0, "A evicted by idle timeout");
    // …at which point B (deadline ~200ms later) must still be live
    assert_eq!(keep_alive_get(&mut b, addr, "/healthz").status, 200, "B outlives A's eviction");
    handle.shutdown();
}

#[test]
fn over_capacity_connects_get_503_with_the_uniform_error_body() {
    let config = ServerConfig { max_connections: 2, ..ServerConfig::with_workers(2) };
    let handle = start(config);
    let addr = handle.addr();

    let mut first = TcpStream::connect(addr).unwrap();
    let mut second = TcpStream::connect(addr).unwrap();
    assert_eq!(keep_alive_get(&mut first, addr, "/healthz").status, 200);
    assert_eq!(keep_alive_get(&mut second, addr, "/healthz").status, 200);
    eventually("both connections counted", Duration::from_secs(5), || {
        handle.open_connections() == 2
    });

    // third connect: answered 503 and closed without entering the set
    let mut third = TcpStream::connect(addr).unwrap();
    third.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = Vec::new();
    let reply = read_response(&mut third, &mut buf).expect("503");
    assert_eq!(reply.status, 503, "{}", reply.head);
    assert!(!reply.keep_alive, "{}", reply.head);
    third.read_to_end(&mut buf).expect("EOF after the 503");
    assert!(buf.is_empty(), "bytes after the 503");
    let body = reply.body;
    let parsed = Json::parse(&body).unwrap_or_else(|e| panic!("{e}: {body}"));
    assert!(parsed.get("error").and_then(Json::as_str).is_some(), "{body}");
    assert_eq!(parsed.get("status").and_then(Json::as_f64), Some(503.0), "{body}");
    assert_eq!(handle.open_connections(), 2, "rejected connect never counted");

    // capacity freed: closing one admits the next client
    drop(first);
    eventually("slot freed", Duration::from_secs(5), || handle.open_connections() == 1);
    let mut replacement = TcpStream::connect(addr).unwrap();
    assert_eq!(keep_alive_get(&mut replacement, addr, "/healthz").status, 200);
    handle.shutdown();
}

#[test]
fn shutdown_is_prompt_with_zero_connections() {
    // the eventfd wake: no live or throwaway connection is needed to
    // interrupt the workers' epoll_wait
    let handle = start(ServerConfig::with_workers(2));
    let started = Instant::now();
    handle.shutdown();
    assert!(started.elapsed() < Duration::from_secs(2), "took {:?}", started.elapsed());
}

#[test]
fn shutdown_is_prompt_with_parked_and_readable_connections() {
    let handle = start(ServerConfig::with_workers(1));
    let addr = handle.addr();

    // one connection parked idle…
    let mut parked = TcpStream::connect(addr).unwrap();
    assert_eq!(keep_alive_get(&mut parked, addr, "/healthz").status, 200);
    // …and one that turns readable right as shutdown begins
    let mut readable = TcpStream::connect(addr).unwrap();
    assert_eq!(keep_alive_get(&mut readable, addr, "/healthz").status, 200);
    readable
        .write_all(format!("GET /healthz HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())
        .unwrap();

    let started = Instant::now();
    handle.shutdown();
    assert!(started.elapsed() < Duration::from_secs(2), "took {:?}", started.elapsed());

    // both sockets end at EOF (or a reset) — never a hang
    for (name, stream) in [("parked", &mut parked), ("readable", &mut readable)] {
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut rest = Vec::new();
        match stream.read_to_end(&mut rest) {
            Ok(_) => {}
            Err(e) => assert_ne!(
                e.kind(),
                std::io::ErrorKind::WouldBlock,
                "{name} still open after shutdown"
            ),
        }
    }
}

#[test]
fn a_stalled_connection_does_not_hold_up_another() {
    // Two connections opened back-to-back are typically accepted by the
    // same worker. A sends half a request head, so whichever worker
    // takes A blocks in `read`; B must still be served by the other
    // worker. An engine that pinned connections to the worker that
    // accepted them would queue B behind A's stalled read.
    let handle = start(ServerConfig::with_workers(2));
    let addr = handle.addr();
    let mut a = TcpStream::connect(addr).unwrap();
    let mut b = TcpStream::connect(addr).unwrap();
    eventually("both connections accepted", Duration::from_secs(5), || {
        handle.open_connections() == 2
    });

    a.write_all(b"GET /healthz HTTP/1.1\r\nHo").unwrap();
    // give a worker time to pick A up; were it too short, B would just
    // be served first and the test would pass without proving anything
    std::thread::sleep(Duration::from_millis(100));
    let started = Instant::now();
    b.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
    let reply = keep_alive_get(&mut b, addr, "/healthz");
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert!(started.elapsed() < Duration::from_secs(1), "took {:?}", started.elapsed());

    // the rest of A's head arrives: A is answered too
    a.write_all(format!("st: {addr}\r\n\r\n").as_bytes()).unwrap();
    let reply = read_response(&mut a, &mut Vec::new()).unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
    handle.shutdown();
}

#[test]
fn pipelined_requests_in_one_write_get_responses_in_order() {
    let handle = start(ServerConfig::with_workers(2));
    let addr = handle.addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    assert_eq!(keep_alive_get(&mut stream, addr, "/healthz").status, 200);

    // two requests in one segment on the kept-alive socket: a query,
    // then a health check asking to close
    let body = r#"{"doc":"abra","patterns":["abra"]}"#;
    let pipelined = format!(
        "POST /v1/query HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}\
         GET /healthz HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(pipelined.as_bytes()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = Vec::new();
    let first = read_response(&mut stream, &mut buf).expect("first response");
    assert_eq!(first.status, 200, "{}", first.head);
    assert!(first.keep_alive, "{}", first.head);
    assert!(first.body.contains(r#""occurrences":4"#), "{}", first.body);

    let second = read_response(&mut stream, &mut buf).expect("second response");
    assert_eq!(second.status, 200, "{}", second.head);
    assert!(!second.keep_alive, "{}", second.head);
    assert!(second.body.starts_with(r#"{"status":"ok""#), "{}", second.body);
    stream.read_to_end(&mut buf).expect("EOF after the second response");
    assert!(buf.is_empty(), "bytes after the second response");
    handle.shutdown();
}
