//! End-to-end exercise of the observability surface: real HTTP traffic
//! (queries, appends, an error) against a live server, then `/metrics`
//! must expose the Prometheus series the dashboards are built on —
//! request-latency histograms, busy-worker gauges, cache hit/miss
//! counters, WAL fsync latency — and `/v1/trace` must return the
//! recent spans as JSON.
//!
//! Metrics are process-global, so every assertion is a `>=` on the
//! scraped value, never an exact count.

use std::io::Read;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;
use usi::ingest::{IngestConfig, IngestPipeline};
use usi::prelude::*;
use usi::server::client::{Client, Reply};
use usi::server::json::Json;
use usi::server::{serve, AccessLog};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sample_index(seed: u64, n: usize) -> UsiIndex {
    let mut rng = StdRng::seed_from_u64(seed);
    let text: Vec<u8> = (0..n).map(|_| b'a' + rng.gen_range(0..3u8)).collect();
    let ws = WeightedString::new(text, vec![1.0; n]).unwrap();
    UsiBuilder::new().with_k(25).deterministic(seed).build(ws)
}

/// The value of the first sample whose line starts with `series`
/// (pass the full name-plus-labels prefix, e.g.
/// `usi_http_requests_total{route="/v1/query",status="200"}`).
fn sample(metrics: &str, series: &str) -> Option<f64> {
    metrics.lines().filter(|l| !l.starts_with('#')).find_map(|line| {
        let rest = line.strip_prefix(series)?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

#[test]
fn metrics_and_trace_reflect_real_traffic() {
    let dir = std::env::temp_dir().join("usi-obs-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let wal_path = dir.join("live.usil");
    let _ = std::fs::remove_file(&wal_path);

    // one static document plus one ingest-enabled one; the default
    // IngestConfig keeps sync_wal on, so every append fsyncs (and
    // shows up in usi_wal_fsync_seconds)
    let catalog = Arc::new(Catalog::new(2));
    catalog.insert("alpha", sample_index(1, 400));
    let (pipeline, _) =
        IngestPipeline::open(sample_index(2, 200), &wal_path, IngestConfig::default()).unwrap();
    catalog.insert_ingest("live", pipeline);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    // slow_query_ms = 0: every request crosses the threshold, so the
    // slow-query path (log line + counter) is exercised; the JSON
    // access log is exercised the same way
    let config = ServerConfig {
        slow_query_ms: Some(0),
        access_log: AccessLog::Json,
        ..ServerConfig::with_workers(2)
    };
    let handle = serve(Arc::clone(&catalog), listener, config).unwrap();
    let mut client = Client::new(handle.addr(), Duration::from_secs(10));

    // ---- healthz keeps its contract and gains version + uptime ---------
    let Reply { status, body, .. } = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    assert!(body.starts_with(r#"{"status":"ok","docs":2"#), "healthz: {body}");
    let parsed = Json::parse(&body).unwrap();
    assert_eq!(parsed.get("version").and_then(Json::as_str), Some(env!("CARGO_PKG_VERSION")));
    assert!(parsed.get("uptime_seconds").and_then(Json::as_f64).is_some(), "healthz: {body}");

    // ---- traffic: queries (repeated batch → cache hits), an append,
    // ---- and a 404 -----------------------------------------------------
    let query = r#"{"doc":"alpha","patterns":["ab","ba","aab"]}"#;
    for _ in 0..2 {
        let Reply { status, body, .. } = client.post("/v1/query", query).unwrap();
        assert_eq!(status, 200, "{body}");
    }
    let append = r#"{"text":"abcabc","weight":1.0}"#;
    let Reply { status, body, .. } = client.post("/v1/docs/live/append", append).unwrap();
    assert_eq!(status, 200, "{body}");
    let Reply { status, body, .. } = client.get("/v1/definitely-not-a-route").unwrap();
    assert_eq!(status, 404);
    // every HTTP error shares one JSON body shape
    let parsed = Json::parse(&body).expect("error bodies are JSON");
    assert!(parsed.get("error").and_then(Json::as_str).is_some(), "error body: {body}");
    assert_eq!(parsed.get("status").and_then(Json::as_f64), Some(404.0), "error body: {body}");

    // ---- /metrics: Prometheus text with the advertised series ----------
    let Reply { status, body: metrics, .. } = client.get("/metrics").unwrap();
    assert_eq!(status, 200);

    // request-latency histogram, labelled by route
    assert!(
        metrics.contains("# TYPE usi_http_request_seconds histogram"),
        "missing histogram TYPE line:\n{metrics}"
    );
    assert!(
        sample(&metrics, r#"usi_http_request_seconds_count{route="/v1/query"}"#)
            .is_some_and(|v| v >= 2.0),
        "query latency count:\n{metrics}"
    );
    assert!(
        metrics.lines().any(|l| l.starts_with("usi_http_request_seconds_bucket")
            && l.contains(r#"le="+Inf""#)),
        "histogram must expose +Inf bucket:\n{metrics}"
    );
    assert!(
        sample(&metrics, r#"usi_http_requests_total{route="/v1/query",status="200"}"#)
            .is_some_and(|v| v >= 2.0),
        "query request counter:\n{metrics}"
    );
    assert!(
        sample(&metrics, r#"usi_http_requests_total{route="/v1/docs/{id}/append",status="200"}"#)
            .is_some_and(|v| v >= 1.0),
        "append request counter:\n{metrics}"
    );
    assert!(
        sample(&metrics, r#"usi_http_requests_total{route="other",status="404"}"#)
            .is_some_and(|v| v >= 1.0),
        "404 request counter:\n{metrics}"
    );
    assert!(
        sample(&metrics, "usi_http_slow_requests_total").is_some_and(|v| v >= 1.0),
        "slow-query counter (threshold 0):\n{metrics}"
    );

    // worker gauges exist (busy workers drain back to 0 between requests)
    assert!(sample(&metrics, "usi_pool_jobs_in_flight").is_some(), "pool in-flight:\n{metrics}");
    assert!(sample(&metrics, "usi_pool_saturation_total").is_some(), "saturation:\n{metrics}");

    // cache counters: first batch misses, identical second batch hits
    assert!(
        sample(&metrics, "usi_cache_misses_total").is_some_and(|v| v >= 3.0),
        "cache misses:\n{metrics}"
    );
    assert!(
        sample(&metrics, "usi_cache_hits_total").is_some_and(|v| v >= 3.0),
        "cache hits:\n{metrics}"
    );
    assert!(
        sample(&metrics, r#"usi_doc_queries_total{doc="alpha"}"#).is_some_and(|v| v >= 6.0),
        "per-doc query counter:\n{metrics}"
    );
    assert!(
        sample(&metrics, "usi_query_batch_size_count").is_some_and(|v| v >= 2.0),
        "batch-size histogram:\n{metrics}"
    );

    // WAL durability: the synced append fsynced at least once
    assert!(
        sample(&metrics, "usi_wal_fsync_seconds_count").is_some_and(|v| v >= 1.0),
        "wal fsync histogram:\n{metrics}"
    );
    assert!(
        sample(&metrics, "usi_wal_bytes_written_total").is_some_and(|v| v >= 6.0),
        "wal bytes:\n{metrics}"
    );
    assert!(
        sample(&metrics, "usi_wal_appends_total").is_some_and(|v| v >= 1.0),
        "wal appends:\n{metrics}"
    );

    // index builds ran in-process (sample_index): build timings exist
    assert!(
        sample(&metrics, "usi_index_build_seconds_count").is_some_and(|v| v >= 2.0),
        "build histogram:\n{metrics}"
    );

    // ---- /v1/trace: recent spans as JSON -------------------------------
    let Reply { status, body, .. } = client.get("/v1/trace").unwrap();
    assert_eq!(status, 200);
    let parsed = Json::parse(&body).unwrap();
    let spans = parsed.get("spans").and_then(Json::as_array).expect("spans array");
    assert!(
        spans.iter().any(|s| s.get("name").and_then(Json::as_str) == Some("http.request")),
        "trace must hold http.request spans: {body}"
    );
    assert!(parsed.get("dropped").and_then(Json::as_f64).is_some(), "trace: {body}");

    handle.shutdown();
}

/// The tentpole acceptance path: a slow query's `X-Request-Id` resolves
/// via `GET /v1/trace/{id}` to a stage tree whose children sum to no
/// more than the root span, the same id shows up in the flight recorder
/// at `GET /debug/requests`, and the queue-wait histogram plus both
/// drop counters are live in `/metrics`.
#[test]
fn request_ids_correlate_trace_flight_and_headers() {
    let catalog = Arc::new(Catalog::new(2));
    catalog.insert("tracy", sample_index(7, 400));

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    // slow_query_ms = 0 doubles as the flight threshold default, so
    // every request is captured by the flight recorder
    let config = ServerConfig { slow_query_ms: Some(0), ..ServerConfig::with_workers(2) };
    let handle = serve(Arc::clone(&catalog), listener, config).unwrap();
    let mut client = Client::new(handle.addr(), Duration::from_secs(10));

    let reply = client.post("/v1/query", r#"{"doc":"tracy","patterns":["ab","ba"]}"#).unwrap();
    assert_eq!(reply.status, 200);
    let id = reply.header("X-Request-Id").expect("every response carries X-Request-Id");
    assert_eq!(id.len(), 16, "ids are 16 hex digits: {id}");
    assert!(id.bytes().all(|b| b.is_ascii_hexdigit()), "hex id: {id}");
    let timing = reply.header("Server-Timing").expect("routed responses carry Server-Timing");
    assert!(timing.contains("engine;dur="), "Server-Timing lists stages: {timing}");

    // ---- /v1/trace/{id}: the request's full stage tree -----------------
    let Reply { status, body, .. } = client.get(&format!("/v1/trace/{id}")).unwrap();
    assert_eq!(status, 200, "{body}");
    let parsed = Json::parse(&body).unwrap();
    assert_eq!(parsed.get("trace_id").and_then(Json::as_str), Some(id));
    let root = parsed.get("root").expect("tree has a root span");
    assert_eq!(root.get("name").and_then(Json::as_str), Some("http.request"));
    let root_us = root.get("duration_us").and_then(Json::as_f64).expect("root duration");
    let stages = parsed.get("stages").and_then(Json::as_array).expect("stages array");
    let names: Vec<&str> =
        stages.iter().filter_map(|s| s.get("name").and_then(Json::as_str)).collect();
    for expected in ["queue", "parse", "engine", "serialize", "write"] {
        assert!(names.contains(&expected), "stage {expected} missing from {names:?}");
    }
    let child_sum: f64 =
        stages.iter().filter_map(|s| s.get("duration_us").and_then(Json::as_f64)).sum();
    assert!(
        child_sum <= root_us,
        "stages must nest inside the root: {child_sum}us > {root_us}us in {body}"
    );
    for stage in stages {
        assert_eq!(stage.get("parent").and_then(Json::as_str), Some("http.request"), "{body}");
    }

    // ---- /debug/requests: the flight recorder holds the same id --------
    let Reply { status, body, .. } = client.get("/debug/requests").unwrap();
    assert_eq!(status, 200);
    let parsed = Json::parse(&body).unwrap();
    let requests = parsed.get("requests").and_then(Json::as_array).expect("requests array");
    assert!(
        requests.iter().any(|r| r.get("trace_id").and_then(Json::as_str) == Some(id)),
        "flight recorder must hold {id}: {body}"
    );

    // an induced 404 is always captured (status >= 400), filterable by id
    let reply = client.get("/v1/definitely-not-a-route").unwrap();
    assert_eq!(reply.status, 404);
    let err_id = reply.header("X-Request-Id").expect("errors carry ids too").to_string();
    assert_ne!(err_id, id, "ids are unique per request");
    let body = client.get("/debug/requests").unwrap().body;
    assert!(body.contains(&err_id), "404 {err_id} must reach the flight recorder: {body}");

    // ---- /metrics: queue-wait histogram and both drop counters ---------
    let Reply { status, body: metrics, .. } = client.get("/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(
        sample(&metrics, "usi_pool_queue_wait_seconds_count").is_some_and(|v| v >= 1.0),
        "queue-wait histogram:\n{metrics}"
    );
    assert!(
        sample(&metrics, "usi_trace_dropped_total").is_some(),
        "trace drop counter:\n{metrics}"
    );
    assert!(
        sample(&metrics, "usi_flight_dropped_total").is_some(),
        "flight drop counter:\n{metrics}"
    );

    handle.shutdown();
}

/// Spawns the real binary and proves the id a client reads from
/// `X-Request-Id` is the same one the JSON access log emits — the
/// cross-machine correlation story (client header ↔ server log).
#[test]
fn access_log_lines_carry_the_request_id() {
    use std::io::BufRead;
    use std::process::{Command, Stdio};

    let dir = std::env::temp_dir().join("usi-obs-e2e-log");
    std::fs::create_dir_all(&dir).unwrap();
    let text_path = dir.join("corpus.txt");
    std::fs::write(&text_path, b"abracadabra".repeat(40)).unwrap();
    let index_path = dir.join("corpus.usix");
    let built = Command::new(env!("CARGO_BIN_EXE_usi"))
        .args([
            "build",
            text_path.to_str().unwrap(),
            "--k",
            "8",
            "--seed",
            "7",
            "-o",
            index_path.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    assert!(built.success());

    let mut child = Command::new(env!("CARGO_BIN_EXE_usi"))
        .args([
            "serve",
            index_path.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--access-log",
            "json",
            "--slow-query-ms",
            "0",
            "--flight-slow-ms",
            "0",
            "--trace-capacity",
            "64",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let stdin = child.stdin.take().unwrap();
    let mut stderr = std::io::BufReader::new(child.stderr.take().unwrap());

    // the startup banner names the bound address (we asked for port 0)
    let addr: SocketAddr = loop {
        let mut line = String::new();
        assert_ne!(stderr.read_line(&mut line).unwrap(), 0, "server exited before banner");
        if let Some(rest) = line.split("http://").nth(1) {
            break rest.split_whitespace().next().unwrap().parse().unwrap();
        }
    };

    let reply = Client::new(addr, Duration::from_secs(10)).get("/healthz").unwrap();
    assert_eq!(reply.status, 200);
    let id = reply.header("X-Request-Id").expect("X-Request-Id over the wire");

    drop(stdin); // EOF → graceful shutdown flushes the logs
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).unwrap();
    assert!(child.wait().unwrap().success(), "server exit: {rest}");
    let log_line = rest
        .lines()
        .find(|l| l.contains(r#""path":"/healthz""#))
        .unwrap_or_else(|| panic!("access log line for /healthz in: {rest}"));
    assert!(
        log_line.contains(&format!(r#""request_id":"{id}""#)),
        "access log must carry the client-visible id {id}: {log_line}"
    );
}
