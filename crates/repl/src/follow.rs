//! The follower: replays shipped WAL records into per-document
//! [`IngestIndex`]es while serving reads the whole time.
//!
//! Each followed document is a [`FollowerDoc`]: an `RwLock`'d
//! [`IngestIndex`] (queries take the read lock, replay takes the write
//! lock briefly per frame) plus the applied/committed bookkeeping that
//! feeds the staleness gauges. Replay re-verifies every record with the
//! WAL's own parser — a flipped bit on the wire fails the CRC and drops
//! the connection rather than corrupting the replica — and compacts to
//! quiescence after each frame, so a follower's structure converges to
//! the same deterministic quiescent state regardless of how records
//! were batched in flight.
//!
//! Two transports share all of that:
//!
//! * [`FollowSource::Tcp`] — the streaming protocol of [`crate::ship`],
//!   with reconnect/backoff (100 ms doubling to 5 s) and byte-offset
//!   resume;
//! * [`FollowSource::Dir`] — a directory watcher for air-gapped setups:
//!   polls `<dir>/<doc>.usil` (rsync'd, scp'd, …) and applies whatever
//!   complete records have appeared past the applied offset; a torn
//!   tail mid-copy is simply retried next poll.

use crate::metrics;
use crate::proto::{self, AckStatus, Frame};
use std::io::{self, BufReader, BufWriter};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use usi_core::index::IndexSize;
use usi_core::{QueryEngine, QuerySource, UsiIndex, UsiQuery};
use usi_ingest::wal;
use usi_ingest::{IngestIndex, IngestOptions};
use usi_strings::{GlobalUtility, UtilityAccumulator};

/// Where a follower's records come from.
#[derive(Debug, Clone)]
pub enum FollowSource {
    /// Stream from a primary's `--repl-listen` address.
    Tcp(String),
    /// Watch `<dir>/<doc>.usil` files shipped by other means.
    Dir(PathBuf),
}

/// Follower tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct FollowerConfig {
    /// Directory-watch poll interval (TCP streams are push-driven).
    pub poll_interval: Duration,
    /// First reconnect delay after a broken stream (doubles per retry).
    pub backoff_initial: Duration,
    /// Reconnect delay cap.
    pub backoff_max: Duration,
}

impl Default for FollowerConfig {
    fn default() -> Self {
        Self {
            poll_interval: Duration::from_millis(100),
            backoff_initial: Duration::from_millis(100),
            backoff_max: Duration::from_secs(5),
        }
    }
}

/// One replicated document: a replaying index behind a read-write lock,
/// served as a [`QueryEngine`] (register it with
/// `usi_server::Catalog::insert_engine`) while replication feeds it.
pub struct FollowerDoc {
    id: String,
    state: RwLock<IngestIndex>,
    /// Next WAL byte to apply (replication resume offset).
    applied_bytes: AtomicU64,
    applied_records: AtomicU64,
    committed_bytes: AtomicU64,
    committed_records: AtomicU64,
    connected: AtomicBool,
    /// When the doc last fell behind; `None` while caught up.
    behind_since: Mutex<Option<Instant>>,
    lag_records_gauge: Arc<usi_obs::Gauge>,
    lag_seconds_gauge: Arc<usi_obs::Gauge>,
    connected_gauge: Arc<usi_obs::Gauge>,
}

impl FollowerDoc {
    /// Wraps a loaded base index for following. The base must be the
    /// same `.usix` the primary serves (ship the file); records then
    /// replay on top exactly as the primary applied them.
    pub fn new(id: impl Into<String>, base: UsiIndex, opts: IngestOptions) -> Self {
        let id = id.into();
        let m = metrics::repl();
        Self {
            state: RwLock::new(IngestIndex::new(base, opts)),
            applied_bytes: AtomicU64::new(wal::MAGIC.len() as u64),
            applied_records: AtomicU64::new(0),
            committed_bytes: AtomicU64::new(wal::MAGIC.len() as u64),
            committed_records: AtomicU64::new(0),
            connected: AtomicBool::new(false),
            behind_since: Mutex::new(None),
            lag_records_gauge: m.lag_records.with(&[&id]),
            lag_seconds_gauge: m.lag_seconds.with(&[&id]),
            connected_gauge: m.connected.with(&[&id]),
            id,
        }
    }

    /// The document id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Next WAL byte offset to apply (the resume offset).
    pub fn applied_bytes(&self) -> u64 {
        self.applied_bytes.load(Ordering::SeqCst)
    }

    /// Records applied so far.
    pub fn applied_records(&self) -> u64 {
        self.applied_records.load(Ordering::SeqCst)
    }

    /// Shipped-but-unapplied records (the primary's committed count
    /// minus what replayed here).
    pub fn lag_records(&self) -> u64 {
        self.committed_records.load(Ordering::SeqCst).saturating_sub(self.applied_records())
    }

    /// Whether the replication stream (or watched file) is live.
    pub fn is_connected(&self) -> bool {
        self.connected.load(Ordering::SeqCst)
    }

    /// Runs `f` on the replaying index under the read lock.
    pub fn with_state<T>(&self, f: impl FnOnce(&IngestIndex) -> T) -> T {
        f(&self.state.read().expect("follower state poisoned"))
    }

    fn set_connected(&self, connected: bool) {
        self.connected.store(connected, Ordering::SeqCst);
        self.connected_gauge.set(connected as i64);
    }

    /// Records the primary's committed state and refreshes the lag
    /// gauges.
    fn note_committed(&self, committed_bytes: u64, committed_records: u64) {
        self.committed_bytes.store(committed_bytes, Ordering::SeqCst);
        self.committed_records.store(committed_records, Ordering::SeqCst);
        self.refresh_lag();
    }

    fn refresh_lag(&self) {
        let lag = self.lag_records();
        self.lag_records_gauge.set(lag as i64);
        let mut behind = self.behind_since.lock().expect("behind_since poisoned");
        if lag == 0 {
            *behind = None;
            self.lag_seconds_gauge.set(0);
        } else {
            let since = behind.get_or_insert_with(Instant::now);
            self.lag_seconds_gauge.set(since.elapsed().as_secs() as i64);
        }
    }

    /// Applies a chunk of raw WAL record bytes starting at WAL offset
    /// `start`. Every record is re-parsed (and CRC-verified) with the
    /// WAL's own parser; the chunk must continue exactly at the applied
    /// offset and contain only whole records.
    pub fn apply_records(&self, start: u64, bytes: &[u8]) -> io::Result<u64> {
        let applied = self.applied_bytes.load(Ordering::SeqCst);
        if start != applied {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("records start at WAL byte {start} but {applied} is next to apply"),
            ));
        }
        let mut records = Vec::new();
        let mut pos = 0;
        while pos < bytes.len() {
            let Some((record, next)) = wal::parse_record_at(bytes, pos) else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("corrupt shipped record at chunk byte {pos} (CRC or framing)"),
                ));
            };
            records.push(record);
            pos = next;
        }
        let applied_now = records.len() as u64;
        {
            let mut state = self.state.write().expect("follower state poisoned");
            for record in &records {
                state.append(&record.text, &record.weights);
            }
            // converge to the deterministic quiescent structure — the
            // same state the primary's compactor reaches — so answers
            // are reproducible regardless of frame batching
            state.compact_to_quiescence();
        }
        self.applied_bytes.store(start + bytes.len() as u64, Ordering::SeqCst);
        self.applied_records.fetch_add(applied_now, Ordering::SeqCst);
        metrics::repl().applied_records_total.add(applied_now);
        self.refresh_lag();
        Ok(applied_now)
    }
}

impl std::fmt::Debug for FollowerDoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FollowerDoc")
            .field("id", &self.id)
            .field("applied_bytes", &self.applied_bytes())
            .field("applied_records", &self.applied_records())
            .field("lag_records", &self.lag_records())
            .field("connected", &self.is_connected())
            .finish_non_exhaustive()
    }
}

impl QueryEngine for FollowerDoc {
    fn query(&self, pattern: &[u8]) -> UsiQuery {
        self.with_state(|s| s.query(pattern))
    }

    fn query_accumulator(&self, pattern: &[u8]) -> (UtilityAccumulator, QuerySource) {
        self.with_state(|s| s.query_accumulator(pattern))
    }

    fn query_batch(&self, patterns: &[&[u8]]) -> Vec<UsiQuery> {
        self.with_state(|s| s.query_batch(patterns))
    }

    fn query_accumulator_batch(
        &self,
        patterns: &[&[u8]],
    ) -> Vec<(UtilityAccumulator, QuerySource)> {
        self.with_state(|s| s.query_accumulator_batch(patterns))
    }

    fn utility(&self) -> GlobalUtility {
        self.with_state(IngestIndex::utility)
    }

    fn indexed_len(&self) -> usize {
        self.with_state(IngestIndex::len)
    }

    fn cached_substrings(&self) -> usize {
        self.with_state(QueryEngine::cached_substrings)
    }

    fn size_breakdown(&self) -> IndexSize {
        self.with_state(QueryEngine::size_breakdown)
    }
}

/// The follower-side replication status `/healthz` reports; implements
/// `usi_server::ReplicationStatus` over all followed documents.
pub struct FollowerStatus {
    docs: Vec<Arc<FollowerDoc>>,
}

impl usi_server::ReplicationStatus for FollowerStatus {
    fn connected(&self) -> bool {
        !self.docs.is_empty() && self.docs.iter().all(|d| d.is_connected())
    }

    fn lag_records(&self) -> u64 {
        self.docs.iter().map(|d| d.lag_records()).sum()
    }
}

/// A running follower: one replication thread per document.
pub struct Follower {
    docs: Vec<Arc<FollowerDoc>>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Follower {
    /// Starts following `source` for every doc in `docs`.
    pub fn start(
        docs: Vec<Arc<FollowerDoc>>,
        source: &FollowSource,
        config: FollowerConfig,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = docs
            .iter()
            .map(|doc| {
                let doc = Arc::clone(doc);
                let stop = Arc::clone(&stop);
                let source = source.clone();
                std::thread::Builder::new()
                    .name(format!("usi-repl-follow-{}", doc.id()))
                    .spawn(move || match source {
                        FollowSource::Tcp(addr) => follow_tcp(&doc, &addr, &stop, config),
                        FollowSource::Dir(dir) => follow_dir(&doc, &dir, &stop, config),
                    })
                    .expect("spawn follower thread")
            })
            .collect();
        Self { docs, stop, threads }
    }

    /// The followed documents.
    pub fn docs(&self) -> &[Arc<FollowerDoc>] {
        &self.docs
    }

    /// A status handle for `usi_server::Catalog::set_replication`.
    pub fn status(&self) -> Arc<FollowerStatus> {
        Arc::new(FollowerStatus { docs: self.docs.clone() })
    }

    /// Stops every replication thread and joins them.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for Follower {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Streams one document from a primary, reconnecting with exponential
/// backoff on any error. Read timeouts double as liveness checks: the
/// primary heartbeats every poll interval, so a silent stream means a
/// dead peer.
fn follow_tcp(doc: &FollowerDoc, addr: &str, stop: &AtomicBool, config: FollowerConfig) {
    let mut backoff = config.backoff_initial;
    while !stop.load(Ordering::SeqCst) {
        match stream_once(doc, addr, stop) {
            Ok(()) => return, // clean stop
            Err(_) => {
                doc.set_connected(false);
                metrics::repl().reconnects_total.inc();
                // sleep in small slices so shutdown stays prompt
                let deadline = Instant::now() + backoff;
                while Instant::now() < deadline && !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(20));
                }
                backoff = (backoff * 2).min(config.backoff_max);
            }
        }
    }
}

/// One connection lifetime: handshake at the applied offset, then apply
/// frames until error or stop.
fn stream_once(doc: &FollowerDoc, addr: &str, stop: &AtomicBool) -> io::Result<()> {
    let conn = usi_server::client::connect(addr, Duration::from_secs(5))?;
    conn.set_read_timeout(Some(Duration::from_secs(10)))?;
    conn.set_write_timeout(Some(Duration::from_secs(10)))?;
    let mut reader = BufReader::new(conn.try_clone()?);
    let mut writer = BufWriter::new(conn);
    proto::write_hello(
        &mut writer,
        &proto::Hello { doc: doc.id().to_string(), offset: doc.applied_bytes() },
    )?;
    let ack = proto::read_ack(&mut reader)?;
    match ack.status {
        AckStatus::Ok => {}
        AckStatus::UnknownDoc => {
            return Err(io::Error::other(format!("primary does not ship doc {:?}", doc.id())))
        }
        AckStatus::BadOffset => {
            return Err(io::Error::other(format!(
                "primary rejected resume offset {} (its WAL has {} committed bytes — \
                 was it recreated?)",
                doc.applied_bytes(),
                ack.committed_bytes,
            )))
        }
    }
    doc.note_committed(ack.committed_bytes, ack.committed_records);
    doc.set_connected(true);
    while !stop.load(Ordering::SeqCst) {
        match proto::read_frame(&mut reader)? {
            Frame::Records { start, records: _, bytes } => {
                doc.apply_records(start, &bytes)
                    .map_err(|e| io::Error::other(format!("applying shipped records: {e}")))?;
            }
            Frame::Heartbeat { committed_bytes, committed_records } => {
                doc.note_committed(committed_bytes, committed_records);
            }
        }
    }
    Ok(())
}

/// The air-gapped fallback: polls `<dir>/<doc>.usil` and applies the
/// complete records past the applied offset. A torn tail (a copy in
/// progress) parses to a record boundary and the rest is retried next
/// poll — exactly the WAL's own crash-recovery discipline.
fn follow_dir(doc: &FollowerDoc, dir: &std::path::Path, stop: &AtomicBool, config: FollowerConfig) {
    let path = dir.join(format!("{}.usil", doc.id()));
    while !stop.load(Ordering::SeqCst) {
        match std::fs::metadata(&path) {
            Err(_) => doc.set_connected(false),
            Ok(meta) => {
                doc.set_connected(true);
                let len = meta.len();
                let applied = doc.applied_bytes();
                if len > applied {
                    // `len` may end mid-record; read_tail trims to the
                    // last complete boundary and errors only when not
                    // even one whole record is readable — wait, retry
                    if let Ok(chunk) = wal::read_tail(&path, applied, len, 4 * 1024 * 1024) {
                        if chunk.records > 0 && doc.apply_records(applied, &chunk.bytes).is_ok() {
                            // committed == what we can see in the file
                            doc.note_committed(doc.applied_bytes(), doc.applied_records());
                            continue; // immediately look for more
                        }
                    }
                } else {
                    doc.note_committed(doc.applied_bytes(), doc.applied_records());
                }
            }
        }
        std::thread::sleep(config.poll_interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usi_core::UsiBuilder;
    use usi_strings::WeightedString;

    fn base(seed: u64) -> UsiIndex {
        UsiBuilder::new()
            .with_k(8)
            .deterministic(seed)
            .build(WeightedString::uniform(b"abcabc".to_vec(), 1.0))
    }

    fn opts() -> IngestOptions {
        IngestOptions { seal_threshold: 16, compact_fanout: 2, ..IngestOptions::default() }
    }

    /// Encodes WAL records byte-identically to the primary by writing
    /// through a real `Wal` and reading the file back (magic stripped).
    /// The scratch file is unique to this call — pid, a per-process
    /// counter and the calling test's name — so parallel tests never
    /// share it.
    fn wal_bytes(test: &str, records: &[(&[u8], Vec<f64>)]) -> Vec<u8> {
        static CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join("usi-repl-follow-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("enc-{}-{call}-{test}.usil", std::process::id()));
        let (mut w, _) = usi_ingest::Wal::open(&path, false).unwrap();
        for (text, weights) in records {
            w.append(text, weights).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        bytes[wal::MAGIC.len()..].to_vec()
    }

    #[test]
    fn applies_records_and_tracks_lag() {
        let doc = FollowerDoc::new("d", base(1), opts());
        assert_eq!(doc.query(b"abc").occurrences, 2);

        let bytes = wal_bytes("applies_records_and_tracks_lag", &[(b"abcabc", vec![1.0; 6])]);
        doc.note_committed(wal::MAGIC.len() as u64 + bytes.len() as u64, 1);
        assert_eq!(doc.lag_records(), 1);

        let start = doc.applied_bytes();
        assert_eq!(doc.apply_records(start, &bytes).unwrap(), 1);
        assert_eq!(doc.lag_records(), 0);
        assert_eq!(doc.applied_records(), 1);
        // the replayed doc answers like a from-scratch build over the
        // concatenated text
        let scratch = UsiBuilder::new()
            .with_k(8)
            .deterministic(1)
            .build(WeightedString::uniform(b"abcabcabcabc".to_vec(), 1.0));
        assert_eq!(doc.query(b"abc").occurrences, scratch.query(b"abc").occurrences);
        assert_eq!(doc.query(b"abc").value, scratch.query(b"abc").value);

        // a chunk that does not continue at the applied offset is refused
        assert!(doc.apply_records(start, &bytes).is_err());
        // corrupt bytes fail the CRC re-verification and nothing applies
        let mut corrupt = wal_bytes("applies_records_and_tracks_lag", &[(b"xy", vec![1.0; 2])]);
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xff;
        let n_before = doc.indexed_len();
        assert!(doc.apply_records(doc.applied_bytes(), &corrupt).is_err());
        assert_eq!(doc.indexed_len(), n_before);
    }

    #[test]
    fn batching_does_not_change_the_converged_state() {
        // one record at a time vs all at once: same quiescent answers
        let one = FollowerDoc::new("one", base(2), opts());
        let all = FollowerDoc::new("all", base(2), opts());
        let records: Vec<(&[u8], Vec<f64>)> =
            vec![(b"abc", vec![1.0; 3]), (b"cab", vec![0.5; 3]), (b"bca", vec![2.0; 3])];
        for record in &records {
            let bytes = wal_bytes("batching_one_by_one", std::slice::from_ref(record));
            one.apply_records(one.applied_bytes(), &bytes).unwrap();
        }
        let bytes = wal_bytes("batching_all_at_once", &records);
        all.apply_records(all.applied_bytes(), &bytes).unwrap();
        for pattern in [b"abc".as_slice(), b"ca", b"b", b"bcab"] {
            assert_eq!(one.query(pattern), all.query(pattern), "pattern {pattern:?}");
        }
    }

    #[test]
    fn dir_watcher_applies_shipped_wal_and_tolerates_torn_tails() {
        let dir = std::env::temp_dir().join(format!("usi-repl-dirwatch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // "ship" a WAL with two records, the second torn mid-copy
        let full = {
            let path = dir.join("enc.usil");
            let (mut w, _) = usi_ingest::Wal::open(&path, false).unwrap();
            w.append(b"abcabc", &[1.0; 6]).unwrap();
            w.append(b"cba", &[1.0; 3]).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            bytes
        };
        std::fs::write(dir.join("d.usil"), &full[..full.len() - 2]).unwrap();

        let doc = Arc::new(FollowerDoc::new("d", base(3), opts()));
        let follower = Follower::start(
            vec![Arc::clone(&doc)],
            &FollowSource::Dir(dir.clone()),
            FollowerConfig { poll_interval: Duration::from_millis(5), ..FollowerConfig::default() },
        );
        // the first (complete) record lands; the torn one waits
        let deadline = Instant::now() + Duration::from_secs(10);
        while doc.applied_records() < 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(doc.applied_records(), 1);
        // the copy completes: the second record lands too
        std::fs::write(dir.join("d.usil"), &full).unwrap();
        while doc.applied_records() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(doc.applied_records(), 2);
        assert!(doc.is_connected());
        assert_eq!(doc.lag_records(), 0);
        follower.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
