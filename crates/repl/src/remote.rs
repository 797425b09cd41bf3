//! [`RemoteDoc`]: a [`QueryEngine`] whose index lives in another
//! process, reached over the JSON HTTP API.
//!
//! A front end registers one `RemoteDoc` per shard (via
//! `usi_server::Catalog::insert_engine`) and the catalog's existing
//! `"doc": "*"` fan-out merges their per-shard accumulators through
//! `usi_core::merge` — the same associative merge a single process uses
//! across local documents. Each `RemoteDoc` targets `"*"` on its shard
//! by default, so a shard may itself hold many documents.
//!
//! Each `RemoteDoc` talks to its shard through its own
//! [`usi_server::client::Client`] (the workspace's one HTTP client)
//! behind a mutex: one kept-alive HTTP/1.1 connection, so concurrent
//! queries to the same shard from the server's workers take turns on
//! it (the fan-out spreads across shards, not within one). The client
//! gives every request a deadline and retries once on a fresh
//! connection when a reused one turns out to be stale (counted in
//! `usi_remote_retries_total`). A shard that still fails degrades to
//! empty accumulators — a fan-out answer then under-counts rather than
//! erroring, which the staleness-tolerant read path already accepts;
//! the error is logged and counted in `usi_remote_failures_total`.

use crate::metrics;
use std::io;
use std::sync::Mutex;
use std::time::Duration;
use usi_core::index::IndexSize;
use usi_core::{QueryEngine, QuerySource, UsiQuery};
use usi_server::client::Client;
use usi_server::json::{acc_from_json, pattern_string, utility_from_json, Json};
use usi_strings::{GlobalUtility, UtilityAccumulator};

/// A remote shard behind the JSON HTTP API, usable anywhere a local
/// index is.
pub struct RemoteDoc {
    /// `host:port` of the remote server.
    addr: String,
    /// The `"doc"` member sent with every query (`"*"` = whole shard).
    target: String,
    /// The kept-alive connection to the shard.
    client: Mutex<Client>,
    utility: GlobalUtility,
    indexed_len: usize,
    cached_substrings: usize,
}

impl RemoteDoc {
    /// Connects to `addr` and probes it: fails fast when the server is
    /// unreachable or does not serve `target`, and learns the shard's
    /// utility function and sizes for the local `/v1/docs` listing.
    pub fn connect(
        addr: impl Into<String>,
        target: impl Into<String>,
        timeout: Duration,
    ) -> io::Result<Self> {
        let addr = addr.into();
        let doc = Self {
            client: Mutex::new(Client::new(&addr, timeout)),
            addr,
            target: target.into(),
            utility: GlobalUtility::default(),
            indexed_len: 0,
            cached_substrings: 0,
        };
        // sizes (and target existence for "*") from the docs listing
        let listing = doc.fetch_json("GET", "/v1/docs", "")?;
        let docs = listing
            .get("docs")
            .and_then(Json::as_array)
            .ok_or_else(|| bad(format!("{}: /v1/docs returned no docs array", doc.addr)))?;
        let mine = |d: &&Json| {
            doc.target == "*" || d.get("id").and_then(Json::as_str) == Some(&doc.target)
        };
        let indexed_len = docs
            .iter()
            .filter(mine)
            .map(|d| d.get("n").and_then(Json::as_f64).unwrap_or(0.0) as usize)
            .sum();
        let cached_substrings = docs
            .iter()
            .filter(mine)
            .map(|d| d.get("cached_substrings").and_then(Json::as_f64).unwrap_or(0.0) as usize)
            .sum();
        if doc.target != "*" && !docs.iter().any(|d| mine(&d)) {
            return Err(bad(format!("{} does not serve doc {:?}", doc.addr, doc.target)));
        }
        // the utility function from a probe query (the response carries
        // it whenever the shard's documents agree; a mixed "*" shard
        // degrades to the default and is reported)
        let probe = doc.query_request(&[b"\x01".as_slice()])?;
        let utility = probe.get("utility").and_then(utility_from_json).unwrap_or_else(|| {
            eprintln!(
                "usi-repl: shard {} target {:?} has no single utility function; \
                 merged values may be null",
                doc.addr, doc.target
            );
            GlobalUtility::default()
        });
        Ok(Self { utility, indexed_len, cached_substrings, ..doc })
    }

    /// The remote address this doc proxies to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Issues one `POST /v1/query` with `"acc": true` and returns the
    /// parsed response object.
    fn query_request(&self, patterns: &[&[u8]]) -> io::Result<Json> {
        let body = Json::Obj(vec![
            ("doc".into(), Json::str(self.target.clone())),
            (
                "patterns".into(),
                Json::Arr(patterns.iter().map(|p| Json::Str(pattern_string(p))).collect()),
            ),
            ("acc".into(), Json::Bool(true)),
        ])
        .encode();
        self.fetch_json("POST", "/v1/query", &body)
    }

    /// One exchange with the shard; anything but a `200` with a JSON
    /// body is an error.
    fn fetch_json(&self, method: &str, path: &str, body: &str) -> io::Result<Json> {
        let reply = {
            let mut client = self.client.lock().expect("remote client poisoned");
            let retries = client.retries();
            let reply = client.request(method, path, body.as_bytes());
            metrics::repl().remote_retries_total.add(client.retries() - retries);
            reply?
        };
        if reply.status != 200 {
            return Err(bad(format!(
                "{path} returned HTTP {}: {}",
                reply.status,
                reply.body.trim()
            )));
        }
        Json::parse(&reply.body).map_err(|e| bad(format!("{path} returned unparseable JSON: {e}")))
    }

    /// The accumulator batch, degrading to empty answers (logged) when
    /// the shard stays unreachable through the retry.
    fn try_accumulator_batch(
        &self,
        patterns: &[&[u8]],
    ) -> io::Result<Vec<(UtilityAccumulator, QuerySource)>> {
        let response = self.query_request(patterns)?;
        let results = response
            .get("results")
            .and_then(Json::as_array)
            .ok_or_else(|| bad(format!("{}: query response has no results", self.addr)))?;
        if results.len() != patterns.len() {
            return Err(bad(format!(
                "{}: asked {} patterns, got {} results",
                self.addr,
                patterns.len(),
                results.len()
            )));
        }
        results
            .iter()
            .map(|r| {
                let acc = r
                    .get("acc")
                    .and_then(acc_from_json)
                    .ok_or_else(|| bad(format!("{}: result carries no accumulator", self.addr)))?;
                // fan-out results carry no per-shard source; count the
                // remote hop as the computed path
                let source = match r.get("source").and_then(Json::as_str) {
                    Some("cached") => QuerySource::HashTable,
                    _ => QuerySource::TextIndex,
                };
                Ok((acc, source))
            })
            .collect()
    }
}

impl std::fmt::Debug for RemoteDoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteDoc")
            .field("addr", &self.addr)
            .field("target", &self.target)
            .finish_non_exhaustive()
    }
}

impl QueryEngine for RemoteDoc {
    fn query(&self, pattern: &[u8]) -> UsiQuery {
        let (acc, source) = self.query_accumulator(pattern);
        UsiQuery { value: acc.finish(self.utility.aggregator), occurrences: acc.count(), source }
    }

    fn query_accumulator(&self, pattern: &[u8]) -> (UtilityAccumulator, QuerySource) {
        self.query_accumulator_batch(&[pattern]).pop().expect("one answer per pattern")
    }

    fn query_accumulator_batch(
        &self,
        patterns: &[&[u8]],
    ) -> Vec<(UtilityAccumulator, QuerySource)> {
        match self.try_accumulator_batch(patterns) {
            Ok(answers) => answers,
            Err(e) => {
                metrics::repl().remote_failures_total.inc();
                eprintln!(
                    "usi-repl: shard {} failed ({e}); answering {} patterns empty",
                    self.addr,
                    patterns.len()
                );
                patterns
                    .iter()
                    .map(|_| (UtilityAccumulator::new(), QuerySource::TextIndex))
                    .collect()
            }
        }
    }

    fn utility(&self) -> GlobalUtility {
        self.utility
    }

    fn indexed_len(&self) -> usize {
        self.indexed_len
    }

    fn cached_substrings(&self) -> usize {
        self.cached_substrings
    }

    fn size_breakdown(&self) -> IndexSize {
        // the bytes live in the remote process; report nothing local
        IndexSize::default()
    }
}

fn bad(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::sync::Arc;
    use usi_core::UsiBuilder;
    use usi_server::{serve, Catalog, ServerConfig, ServerHandle};
    use usi_strings::WeightedString;

    /// The real server on an ephemeral port, holding `text` as doc `id`.
    fn shard(text: &[u8], id: &str, config: ServerConfig) -> (Arc<Catalog>, ServerHandle) {
        let catalog = Arc::new(Catalog::new(4));
        let index = UsiBuilder::new()
            .with_k(8)
            .deterministic(7)
            .build(WeightedString::uniform(text.to_vec(), 1.0));
        catalog.insert(id.to_string(), index);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = serve(Arc::clone(&catalog), listener, config).unwrap();
        (catalog, handle)
    }

    /// A `RemoteDoc` for `addr` that skips `connect`'s probe.
    fn unprobed(addr: &str) -> RemoteDoc {
        RemoteDoc {
            addr: addr.into(),
            target: "d".into(),
            client: Mutex::new(Client::new(addr, Duration::from_millis(500))),
            utility: GlobalUtility::default(),
            indexed_len: 0,
            cached_substrings: 0,
        }
    }

    #[test]
    fn remote_doc_answers_match_the_local_index() {
        let config = ServerConfig {
            idle_timeout: Duration::from_millis(200),
            ..ServerConfig::with_workers(2)
        };
        let (catalog, handle) = shard(b"abracadabra", "d", config);
        let remote =
            RemoteDoc::connect(handle.addr().to_string(), "d", Duration::from_secs(5)).unwrap();

        let local = catalog.get("d").unwrap();
        assert_eq!(remote.utility(), local.utility());
        assert_eq!(remote.indexed_len(), 11);
        for pattern in [b"abra".as_slice(), b"a", b"cad", b"zzz"] {
            let want = local.engine().query(pattern);
            let got = remote.query(pattern);
            assert_eq!(got.occurrences, want.occurrences, "pattern {pattern:?}");
            assert_eq!(got.value, want.value, "pattern {pattern:?}");
        }
        // batches reuse the same kept-alive connection
        let patterns: Vec<&[u8]> = vec![b"ab", b"ra"];
        let batch = remote.query_accumulator_batch(&patterns);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].0.count(), local.engine().query(b"ab").occurrences);

        // the server idles the connection out; the next query retries
        // on a fresh one and still answers
        let retries = metrics::repl().remote_retries_total.get();
        std::thread::sleep(Duration::from_millis(500));
        assert_eq!(remote.query(b"abra").occurrences, 2);
        assert!(metrics::repl().remote_retries_total.get() > retries);
        handle.shutdown();
    }

    #[test]
    fn connect_fails_fast_on_missing_doc_and_dead_server() {
        let (_, handle) = shard(b"abc", "d", ServerConfig::with_workers(1));
        let addr = handle.addr().to_string();
        assert!(RemoteDoc::connect(&addr, "nope", Duration::from_secs(5)).is_err());
        // a dead address: bind-then-drop guarantees nothing listens
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        assert!(RemoteDoc::connect(&dead, "d", Duration::from_millis(300)).is_err());
        handle.shutdown();
    }

    #[test]
    fn unreachable_shard_degrades_to_empty_answers() {
        let failures = metrics::repl().remote_failures_total.get();
        let answers = unprobed("127.0.0.1:1").query_accumulator_batch(&[b"ab".as_slice(), b"c"]);
        assert_eq!(answers.len(), 2);
        assert_eq!(answers[0].0.count(), 0);
        assert_eq!(answers[1].0.count(), 0);
        assert!(metrics::repl().remote_failures_total.get() > failures);
    }

    #[test]
    fn a_hostile_content_length_degrades_to_empty_answers() {
        // a peer announcing a body of usize::MAX bytes must be refused
        // before anything is allocated for it, not crash the caller
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut request = [0u8; 4096];
            let _ = conn.read(&mut request).unwrap();
            conn.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n")
                .unwrap();
        });
        let failures = metrics::repl().remote_failures_total.get();
        let answers = unprobed(&addr).query_accumulator_batch(&[b"ab".as_slice()]);
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].0.count(), 0);
        assert!(metrics::repl().remote_failures_total.get() > failures);
        peer.join().unwrap();
    }
}
