//! Replication telemetry, pre-registered once (the same handle-caching
//! pattern as `usi_server::metrics`): per-doc staleness gauges the CI
//! smoke polls to zero, shipping counters for capacity planning, and
//! the remote fan-out backend's failure counters.

use std::sync::OnceLock;
use usi_obs::{Counter, Gauge, GaugeVec};

/// Every handle the replication paths record into.
pub(crate) struct ReplMetrics {
    /// `usi_repl_lag_records{doc}` — shipped-but-unapplied records.
    pub lag_records: GaugeVec,
    /// `usi_repl_lag_seconds{doc}` — seconds since this doc was last
    /// fully caught up (0 while caught up).
    pub lag_seconds: GaugeVec,
    /// `usi_repl_connected{doc}` — 1 while the replication stream (or
    /// watched directory) is live.
    pub connected: GaugeVec,
    /// Raw WAL bytes shipped to followers (primary side).
    pub shipped_bytes_total: std::sync::Arc<Counter>,
    /// Records shipped to followers (primary side).
    pub shipped_records_total: std::sync::Arc<Counter>,
    /// Records replayed into follower indexes (follower side).
    pub applied_records_total: std::sync::Arc<Counter>,
    /// Reconnect attempts after a broken replication stream.
    pub reconnects_total: std::sync::Arc<Counter>,
    /// Follower connections currently streaming (primary side).
    pub followers: std::sync::Arc<Gauge>,
    /// Remote-shard requests re-sent on a fresh connection after a
    /// kept-alive one went stale (front end side).
    pub remote_retries_total: std::sync::Arc<Counter>,
    /// Remote-shard query batches answered empty because the shard
    /// failed (front end side).
    pub remote_failures_total: std::sync::Arc<Counter>,
}

impl ReplMetrics {
    fn new() -> Self {
        let registry = usi_obs::global();
        Self {
            lag_records: registry.gauge_vec(
                "usi_repl_lag_records",
                "Records shipped by the primary but not yet applied, by document",
                &["doc"],
            ),
            lag_seconds: registry.gauge_vec(
                "usi_repl_lag_seconds",
                "Seconds since the document was last fully caught up (0 while caught up)",
                &["doc"],
            ),
            connected: registry.gauge_vec(
                "usi_repl_connected",
                "1 while the document's replication stream is connected",
                &["doc"],
            ),
            shipped_bytes_total: registry
                .counter("usi_repl_shipped_bytes_total", "Raw WAL bytes shipped to followers"),
            shipped_records_total: registry
                .counter("usi_repl_shipped_records_total", "WAL records shipped to followers"),
            applied_records_total: registry.counter(
                "usi_repl_applied_records_total",
                "WAL records replayed into follower indexes",
            ),
            reconnects_total: registry.counter(
                "usi_repl_reconnects_total",
                "Reconnect attempts after a broken replication stream",
            ),
            followers: registry
                .gauge("usi_repl_followers", "Follower connections currently streaming"),
            remote_retries_total: registry.counter(
                "usi_remote_retries_total",
                "Remote-shard requests retried on a fresh connection after a stale one",
            ),
            remote_failures_total: registry.counter(
                "usi_remote_failures_total",
                "Remote-shard query batches answered empty because the shard failed",
            ),
        }
    }
}

/// The process-global handle set, registered on first touch.
pub(crate) fn repl() -> &'static ReplMetrics {
    static METRICS: OnceLock<ReplMetrics> = OnceLock::new();
    METRICS.get_or_init(ReplMetrics::new)
}
