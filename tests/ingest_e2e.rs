//! End-to-end exercise of the ingestion subsystem across the stack:
//! durable appends through the HTTP serving layer, a simulated crash
//! (process state dropped, WAL survives — torn tail included), and a
//! replay that must answer exactly like a from-scratch build over the
//! concatenated weighted string.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;
use usi::ingest::{replay_file, IngestConfig, IngestPipeline};
use usi::prelude::*;
use usi::server::client::Client;
use usi::server::json::Json;
use usi::server::serve;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("usi-ingest-e2e").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Dyadic weights: aggregates are exact in f64, so recovered answers
/// can be compared with `==` against a from-scratch build.
fn dyadic_weights(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..8) as f64 * 0.25).collect()
}

fn build_base(seed: u64, n: usize) -> (UsiIndex, Vec<u8>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let text: Vec<u8> = (0..n).map(|_| b'a' + rng.gen_range(0..3u8)).collect();
    let weights = dyadic_weights(seed ^ 1, n);
    let index = UsiBuilder::new()
        .with_k(25)
        .deterministic(seed)
        .build(WeightedString::new(text.clone(), weights.clone()).unwrap());
    (index, text, weights)
}

#[test]
fn kill_and_replay_restores_the_served_state() {
    let dir = tmp_dir("kill-replay");
    let wal_path = dir.join("doc.usil");
    let _ = std::fs::remove_file(&wal_path);
    let (base, mut full_text, mut full_weights) = build_base(5, 300);

    let config = IngestConfig {
        seal_threshold: 32,
        compact_fanout: 2,
        background_compaction: true, // exercise the compactor thread too
        ..IngestConfig::default()
    };
    let (pipeline, _) = IngestPipeline::open(base.clone(), &wal_path, config.clone()).unwrap();

    // durable appends in several batches
    let mut rng = StdRng::seed_from_u64(77);
    for batch in 0..8 {
        let len = rng.gen_range(1..60usize);
        let text: Vec<u8> = (0..len).map(|_| b'a' + rng.gen_range(0..3u8)).collect();
        let weights = dyadic_weights(1000 + batch, len);
        pipeline.append(&text, &weights).unwrap();
        full_text.extend_from_slice(&text);
        full_weights.extend_from_slice(&weights);
    }
    assert_eq!(pipeline.with_state(|s| s.text()), full_text);
    drop(pipeline); // kill: no shutdown step beyond the per-append fsyncs

    // a torn half-record at the tail, as a crash mid-write would leave
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let clean_len = bytes.len();
    bytes.extend_from_slice(&[0x55; 7]);
    std::fs::write(&wal_path, &bytes).unwrap();

    let (recovered, replay) = IngestPipeline::open(base, &wal_path, config).unwrap();
    assert!(replay.truncated, "the torn tail must be detected");
    assert_eq!(replay.valid_len as usize, clean_len);
    assert_eq!(replay.records.len(), 8, "all acknowledged appends survive");
    assert_eq!(recovered.with_state(|s| s.text()), full_text);

    // recovered answers ≡ a from-scratch build over the concatenation
    let scratch = UsiBuilder::new()
        .with_k(25)
        .deterministic(5)
        .build(WeightedString::new(full_text.clone(), full_weights).unwrap());
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..120 {
        let m = rng.gen_range(1..40usize).min(full_text.len());
        let i = rng.gen_range(0..=full_text.len() - m);
        let pattern = &full_text[i..i + m];
        let got = recovered.query(pattern);
        let want = scratch.query(pattern);
        assert_eq!(got.occurrences, want.occurrences, "pattern {pattern:?}");
        assert_eq!(got.value, want.value, "pattern {pattern:?}");
    }

    // and the reopened log is clean again: replaying it finds no tear
    drop(recovered);
    assert!(!replay_file(&wal_path).unwrap().truncated);
}

#[test]
fn http_appends_survive_a_server_kill() {
    let dir = tmp_dir("http-kill");
    let wal_path = dir.join("live.usil");
    let _ = std::fs::remove_file(&wal_path);
    let (base, base_text, base_weights) = build_base(9, 120);

    let config = IngestConfig {
        seal_threshold: 16,
        compact_fanout: 2,
        background_compaction: true,
        ..IngestConfig::default()
    };
    let catalog = Arc::new(Catalog::new(2));
    let (pipeline, _) = IngestPipeline::open(base.clone(), &wal_path, config.clone()).unwrap();
    catalog.insert_ingest("live", pipeline);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = serve(Arc::clone(&catalog), listener, ServerConfig::with_workers(2)).unwrap();
    let mut client = Client::new(handle.addr(), Duration::from_secs(10));

    // appends through the HTTP API, some with explicit dyadic weights
    let reply = client.post("/v1/docs/live/append", r#"{"text":"abcabcab","weight":0.5}"#).unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
    let reply =
        client.post("/v1/docs/live/append", r#"{"text":"cab","weights":[0.25,1.75,1.0]}"#).unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
    let parsed = Json::parse(&reply.body).unwrap();
    assert_eq!(parsed.get("n").and_then(Json::as_f64), Some(120.0 + 11.0));

    // the served answer equals the in-process one
    let reply = client.post("/v1/query", r#"{"doc":"live","patterns":["abc","cab"]}"#).unwrap();
    assert_eq!(reply.status, 200);
    let doc = catalog.get("live").unwrap();
    let direct = doc.query(b"abc");
    let parsed = Json::parse(&reply.body).unwrap();
    let results = parsed.get("results").and_then(Json::as_array).unwrap();
    assert_eq!(
        results[0].get("occurrences").and_then(Json::as_f64),
        Some(direct.occurrences as f64)
    );

    // kill the server and the in-process state
    handle.shutdown();
    drop(catalog);

    // replay from the WAL alone: the full string is base + both appends
    let mut full_text = base_text;
    let mut full_weights = base_weights;
    full_text.extend_from_slice(b"abcabcab");
    full_weights.extend_from_slice(&[0.5; 8]);
    full_text.extend_from_slice(b"cab");
    full_weights.extend_from_slice(&[0.25, 1.75, 1.0]);

    let (recovered, replay) = IngestPipeline::open(base, &wal_path, config).unwrap();
    assert_eq!(replay.records.len(), 2);
    assert_eq!(recovered.with_state(|s| s.text()), full_text);
    let scratch = UsiBuilder::new()
        .with_k(25)
        .deterministic(9)
        .build(WeightedString::new(full_text, full_weights).unwrap());
    for pattern in [&b"abc"[..], b"cab", b"bca", b"ab", b"zzz"] {
        let got = recovered.query(pattern);
        let want = scratch.query(pattern);
        assert_eq!(got.occurrences, want.occurrences, "pattern {pattern:?}");
        assert_eq!(got.value, want.value, "pattern {pattern:?}");
    }
}
