//! End-to-end exercise of the serving layer: several indexes in a
//! sharded [`Catalog`], the HTTP server on an ephemeral port, and every
//! response checked **byte-for-byte** against answers computed directly
//! on the in-process [`UsiIndex`]es — so the whole path (routing, batch
//! spread, fan-out merge, JSON encoding) is pinned to the library's
//! ground truth.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use usi::prelude::*;
use usi::server::client::{read_response, Client, Reply};
use usi::server::json::{fan_out_response_json, query_response_json, Json};
use usi::server::{serve, FanOut};
use usi::strings::UtilityAccumulator;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sample_index(seed: u64, n: usize) -> UsiIndex {
    let mut rng = StdRng::seed_from_u64(seed);
    let text: Vec<u8> = (0..n).map(|_| b'a' + rng.gen_range(0..3u8)).collect();
    let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..2.0)).collect();
    let ws = WeightedString::new(text, weights).unwrap();
    UsiBuilder::new().with_k(80).deterministic(seed).build(ws)
}

fn query_body(doc: &str, patterns: &[&[u8]]) -> String {
    let items = patterns
        .iter()
        .map(|p| Json::str(String::from_utf8(p.to_vec()).expect("test patterns are UTF-8")))
        .collect();
    Json::Obj(vec![("doc".into(), Json::str(doc)), ("patterns".into(), Json::Arr(items))]).encode()
}

#[test]
fn catalog_server_answers_match_direct_queries_byte_for_byte() {
    // three documents, kept in hand for ground-truth answers
    let names = ["alpha", "beta", "gamma"];
    let indexes: Vec<UsiIndex> =
        [(1u64, 1_500), (2, 2_200), (3, 900)].iter().map(|&(s, n)| sample_index(s, n)).collect();

    let catalog = Arc::new(Catalog::new(4));
    for (name, index) in names.iter().zip(&indexes) {
        catalog.insert(*name, index.clone());
    }

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let handle =
        serve(Arc::clone(&catalog), listener, ServerConfig::with_workers(3)).expect("start server");
    let addr = handle.addr();
    let mut client = Client::new(addr, Duration::from_secs(10));

    // ---- health and listing --------------------------------------------
    let reply = client.get("/healthz").unwrap();
    assert_eq!(reply.status, 200);
    // healthz carries extra fields (version, uptime); the leading keys
    // stay pinned so grep-style probes keep working
    assert!(reply.body.starts_with(r#"{"status":"ok","docs":3"#), "healthz: {}", reply.body);

    let reply = client.get("/v1/docs").unwrap();
    assert_eq!(reply.status, 200);
    let parsed = Json::parse(&reply.body).unwrap();
    let listed: Vec<&str> = parsed
        .get("docs")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|d| d.get("id").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(listed, names);

    let reply = client.get("/v1/docs/beta/stats").unwrap();
    assert_eq!(reply.status, 200);
    let parsed = Json::parse(&reply.body).unwrap();
    assert_eq!(parsed.get("n").and_then(Json::as_f64), Some(indexes[1].text().len() as f64));

    // ---- a mixed pattern batch -----------------------------------------
    let mut rng = StdRng::seed_from_u64(99);
    let beta_text = indexes[1].text().to_vec();
    let mut patterns: Vec<Vec<u8>> = (0..40)
        .map(|_| {
            let m = rng.gen_range(1..10usize);
            let i = rng.gen_range(0..beta_text.len() - m);
            beta_text[i..i + m].to_vec()
        })
        .collect();
    patterns.push(b"zzzz".to_vec());
    let refs: Vec<&[u8]> = patterns.iter().map(Vec::as_slice).collect();

    // ---- single-document batch: byte-for-byte vs direct queries -------
    let direct: Vec<UsiQuery> = refs.iter().map(|p| indexes[1].query(p)).collect();
    let expected = query_response_json("beta", &refs, &direct).encode();
    let Reply { status, body, .. } = client.post("/v1/query", &query_body("beta", &refs)).unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, expected, "server batch answers must equal direct UsiIndex::query answers");

    // ---- fan-out: byte-for-byte vs per-index ground truth --------------
    let fans: Vec<FanOut> = refs
        .iter()
        .map(|p| {
            let mut merged = UtilityAccumulator::new();
            let per_doc: Vec<(String, UsiQuery)> = names
                .iter()
                .zip(&indexes)
                .map(|(name, index)| {
                    let (acc, _) = index.query_accumulator(p);
                    merged.merge(&acc);
                    (name.to_string(), index.query(p))
                })
                .collect();
            FanOut {
                per_doc,
                total_occurrences: merged.count(),
                total_value: merged.finish(indexes[0].utility().aggregator),
                total_acc: merged,
                utility: Some(indexes[0].utility()),
            }
        })
        .collect();
    let expected = fan_out_response_json(&refs, &fans).encode();
    let reply = client.post("/v1/query", &query_body("*", &refs)).unwrap();
    assert_eq!(reply.status, 200);
    assert_eq!(reply.body, expected, "fan-out must merge exactly the per-index accumulators");

    // ---- catalog batch spread equals the serial loop at any width ------
    for threads in [1usize, 3, 16] {
        assert_eq!(catalog.query_batch("beta", &refs, threads).unwrap(), direct);
    }

    // ---- error paths ----------------------------------------------------
    assert_eq!(client.post("/v1/query", &query_body("missing", &refs)).unwrap().status, 404);
    assert_eq!(client.post("/v1/query", "{broken").unwrap().status, 400);
    assert_eq!(client.get("/v1/docs/missing/stats").unwrap().status, 404);

    handle.shutdown();
    assert!(
        TcpStream::connect(addr).is_err(),
        "server must stop accepting connections after shutdown"
    );
}

#[test]
fn keep_alive_connection_stays_open_across_sequential_requests() {
    let index = sample_index(7, 1_200);
    let catalog = Arc::new(Catalog::new(2));
    catalog.insert("solo", index.clone());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let handle =
        serve(Arc::clone(&catalog), listener, ServerConfig::with_workers(1)).expect("start server");
    let addr = handle.addr();

    // one TCP connection, several request/response exchanges on it —
    // the pre-keep-alive server closed after the first
    let mut stream = TcpStream::connect(addr).expect("connect once");
    let local = stream.local_addr().unwrap();
    let mut buf = Vec::new();

    for round in 0..3 {
        stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let reply = read_response(&mut stream, &mut buf).unwrap();
        assert_eq!(reply.status, 200, "round {round}");
        assert!(reply.body.starts_with(r#"{"status":"ok","docs":1"#), "round {round}");
        assert!(reply.keep_alive, "round {round}: server must advertise keep-alive");
        // the socket is provably the same one: the local port never changed
        assert_eq!(stream.local_addr().unwrap(), local, "round {round}");
    }

    // a query on the same connection answers byte-for-byte like a
    // direct index call — keep-alive changes framing, not answers
    let patterns: Vec<&[u8]> = vec![b"ab", b"zzz"];
    let body = query_body("solo", &patterns);
    stream
        .write_all(
            format!(
                "POST /v1/query HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let direct: Vec<UsiQuery> = patterns.iter().map(|p| index.query(p)).collect();
    let expected = query_response_json("solo", &patterns, &direct).encode();
    let reply = read_response(&mut stream, &mut buf).unwrap();
    assert_eq!(reply.status, 200);
    assert_eq!(reply.body, expected);
    assert!(reply.keep_alive);

    // asking to close ends the connection cleanly (EOF after response)
    stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").unwrap();
    let reply = read_response(&mut stream, &mut buf).unwrap();
    assert_eq!(reply.status, 200);
    assert!(!reply.keep_alive, "final response must say Connection: close");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "no bytes after the final response");

    handle.shutdown();
}
