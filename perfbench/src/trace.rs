//! The traced run (`--trace 1`): per-layer numbers, measured from
//! outside the program in two ways.
//!
//! * **Served process.** The same open-loop schedule runs against
//!   `usi serve`; the first half of the rounds is left alone, the second
//!   half is bracketed by `/metrics` scrapes (taken outside each timed
//!   stretch) whose histogram and counter diffs give the reactor, pool,
//!   HTTP, cache and WAL numbers.
//! * **In-process.** The traced stretches' requests are replayed
//!   through each layer's public functions in turn, each call timed:
//!   `usi_server::respond`, `Json::parse`,
//!   `json::query_response_json(..).encode()`, `Doc::query_batch` /
//!   `Doc::query` / `cache_counters`, `UsiIndex::query`,
//!   `UsiBuilder::build` (its `BuildStats` phases), `UsiIndex::read_from`
//!   and `IngestPipeline::{append, query, stats}`.
//!
//! Nothing inside the program is instrumented for this run.

use crate::server::Server;
use crate::stats::{median, Scrape, Summary};
use crate::workload::{self, Op};
use crate::{
    open_loop, open_slices, read_index, verify, verify_ingest, warm_up, Metric, Prepared, RunResult,
};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};
use usi_core::{QuerySource, UsiBuilder, UsiIndex};
use usi_ingest::{IngestConfig, IngestPipeline};
use usi_server::json::query_response_json;
use usi_server::{respond, Catalog, Json, LoadOptions};
use usi_strings::WeightedString;

/// Upper bound on the requests and on the pattern lookups one
/// in-process pass replays.
const REPLAY_REQUESTS: usize = 20_000;
const REPLAY_LOOKUPS: usize = 100_000;
/// Reads of the `.usix` file timed for `core.open_ms`.
const OPEN_REPEATS: usize = 3;
/// How long the ingest pass waits for background compaction to settle.
const QUIESCENCE: Duration = Duration::from_secs(30);
/// Appends the ingest pass feeds on workloads without appends of their
/// own (128 Ki letters: enough for seals and tier compactions).
const STATIC_APPENDS: usize = 2_048;
/// The fingerprint seed `usi build` uses by default.
const BUILD_SEED: u64 = 0xbeef;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Sums histogram and counter deltas over several scrape windows.
#[derive(Default)]
struct Windows(Vec<(Scrape, Scrape)>);

impl Windows {
    fn delta(&self, series: &str) -> f64 {
        self.0.iter().map(|(before, after)| after.delta(before, series)).sum()
    }

    /// Mean observation in µs of a seconds histogram over all windows.
    fn mean_us(&self, name: &str, labels: &str) -> (f64, f64) {
        let (sum, count) = self.0.iter().fold((0.0, 0.0), |(s, c), (before, after)| {
            let (ds, dc) = after.histogram_delta(before, name, labels);
            (s + ds, c + dc)
        });
        (if count > 0.0 { sum / count * 1e6 } else { f64::NAN }, count)
    }
}

/// The requests the in-process passes replay: the traced stretches'
/// ops, capped.
fn replay_ops(ops: &[Op]) -> &[Op] {
    let mut lookups = 0;
    let mut end = 0;
    for op in ops.iter().take(REPLAY_REQUESTS) {
        if let Op::Query(ids) = op {
            lookups += ids.len();
        }
        end += 1;
        if lookups >= REPLAY_LOOKUPS {
            break;
        }
    }
    &ops[..end]
}

fn patterns<'a>(p: &'a Prepared, ids: &[u32]) -> Vec<&'a [u8]> {
    ids.iter().map(|&id| p.inputs.patterns[id as usize].as_slice()).collect()
}

struct Collected {
    metrics: Vec<Metric>,
}

impl Collected {
    fn push(&mut self, name: &'static str, unit: &'static str, value: f64, n: usize) {
        self.metrics.push(Metric { name, unit, value, n });
    }

    fn get(&self, name: &str) -> f64 {
        self.metrics.iter().find(|m| m.name == name).map_or(f64::NAN, |m| m.value)
    }
}

pub fn run(p: &Prepared) -> io::Result<RunResult> {
    let mut out = Collected { metrics: Vec::new() };
    let index_path = p.work.path(&format!("{}.usix", workload::DOC));

    // core.build: the builder with `usi build`'s parameters, in process
    let ws = WeightedString::new(p.corpus.text.clone(), p.corpus.weights.clone()).map_err(other)?;
    let index =
        UsiBuilder::new().with_k(p.corpus.k()).with_threads(2).deterministic(BUILD_SEED).build(ws);
    let stats = index.stats().clone();
    out.push("core.build.topk_s", "s", stats.phase_topk.as_secs_f64(), 1);
    out.push("core.build.populate_s", "s", stats.phase_populate.as_secs_f64(), 1);
    out.push("core.build.index_s", "s", stats.phase_index.as_secs_f64(), 1);
    {
        let mut file = BufWriter::new(std::fs::File::create(&index_path)?);
        index.write_to(&mut file)?;
        file.flush()?;
    }
    let opens: Vec<f64> = (0..OPEN_REPEATS)
        .map(|_| timed(|| read_index(&index_path)).1.as_secs_f64() * 1e3)
        .collect();
    out.push("core.open_ms", "ms", median(&opens), OPEN_REPEATS);
    out.push("core.index_bytes", "B", index.size_breakdown().total() as f64, 1);
    println!(
        "layers: core.build n={} k_stored={} tau={:?} distinct_lengths={}",
        stats.n, stats.k_stored, stats.tau, stats.distinct_lengths
    );

    // the served process: untraced rounds, then /metrics-bracketed rounds
    let wal = p.fresh_wal("trace");
    let server = Server::start(&p.usi, &index_path, &crate::server::serve_flags(wal.as_deref()))?;
    let expected = verify::expected_answers(&index, &p.inputs);
    let checker = verify::Checker::new(&expected, p.spec.ingest());
    let warm = warm_up(p, &server, &checker)?;
    let slices = open_slices(p, crate::ROUNDS);
    let half = slices.len() / 2;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut windows = Windows::default();
    let (mut attempted, mut failed, mut wrong) = (warm.attempted, warm.failed, warm.wrong);
    let mut late = Vec::new();
    let mut traced_us = Vec::new();
    for (r, &slice) in slices.iter().enumerate() {
        let before = (r >= half).then(|| server.scrape()).transpose()?;
        let o = open_loop(p, &server, slice, &checker)?;
        if let Some(before) = before {
            windows.0.push((before, server.scrape()?));
            late.extend_from_slice(&o.late_us);
            traced_us.extend_from_slice(&o.query_us);
            traced.push(Summary::of(&o.query_us).p50);
        } else {
            untraced.push(Summary::of(&o.query_us).p50);
        }
        (attempted, failed, wrong) = (attempted + o.attempted, failed + o.failed, wrong + o.wrong);
    }
    let (sent, mismatched, _) = verify_ingest(p, &server, &checker, &index_path)?;
    (attempted, failed, wrong) = (attempted + sent, failed + mismatched, wrong + mismatched);
    server.stop()?;
    let p50 = median(&traced);
    let p50_untraced = median(&untraced);

    let (dispatch, dispatches) = windows.mean_us("usi_reactor_dispatch_seconds", "");
    let (queue_wait, jobs) = windows.mean_us("usi_pool_queue_wait_seconds", "");
    let (server_us, served) = windows.mean_us("usi_http_request_seconds", "route=\"/v1/query\"");
    let (_, appends_served) =
        windows.mean_us("usi_http_request_seconds", "route=\"/v1/docs/{id}/append\"");
    let requests = served + appends_served;
    let hits = windows.delta("usi_cache_hits_total");
    let misses = windows.delta("usi_cache_misses_total");
    out.push("reactor.dispatch_us_mean", "us", dispatch, dispatches as usize);
    out.push(
        "reactor.wakeups_per_request",
        "count",
        windows.delta("usi_reactor_wakeups_total") / requests.max(1.0),
        requests as usize,
    );
    out.push("pool.queue_wait_us_mean", "us", queue_wait, jobs as usize);
    out.push("http.server_us_mean", "us", server_us, served as usize);
    out.push(
        "catalog.cache_hit_ratio_served",
        "ratio",
        hits / (hits + misses).max(1.0),
        (hits + misses) as usize,
    );
    if p.spec.ingest() {
        let (fsync, n) = windows.mean_us("usi_wal_fsync_seconds", "");
        println!("layers: served wal.fsync_us_mean = {fsync:.3} us (n={n})");
    }

    // in-process replay of the traced stretches' requests
    let traced_ops = &p.inputs.open[slices[half].0..slices.last().map_or(0, |s| s.1)];
    let ops = replay_ops(traced_ops);
    println!("layers: replaying {} of {} traced requests in process", ops.len(), traced_ops.len());
    http_pass(p, &index_path, ops, &mut out)?;
    json_pass(p, ops, &expected, &mut out);
    catalog_pass(p, &index_path, ops, &mut out)?;
    core_pass(p, &index, ops, &mut out);
    ingest_pass(p, &index_path, ops, &mut out)?;

    out.push("transport.residual_us", "us", p50 - out.get("http.respond_us_p50"), traced.len());
    out.push("loadgen.late_us_p99", "us", Summary::of(&late).p99, late.len());
    out.push("trace.overhead_pct", "%", (p50 - p50_untraced) / p50_untraced * 100.0, traced.len());
    // the served layers are histogram means, so they are summed against
    // the mean latency; the share of p50_us is printed beside it
    let mean = Summary::of(&traced_us).mean;
    let accounted = dispatch + server_us;
    out.push("layer_sum.accounted_share", "ratio", accounted / mean, traced_us.len());
    out.push("layer_sum.unattributed_us", "us", mean - accounted, traced_us.len());
    print_layer_sum(&out, p50, p50_untraced, mean);
    println!("metric trace.p50_us = {p50} us (median of {} traced rounds)", traced.len());
    println!(
        "metric error_ratio = {} fraction (n={attempted}; wrong answers {wrong})",
        failed as f64 / attempted.max(1) as f64
    );
    Ok(RunResult { correct: wrong == 0, attempted, failed, metrics: out.metrics })
}

fn print_layer_sum(out: &Collected, p50: f64, p50_untraced: f64, mean: f64) {
    let g = |name| out.get(name);
    let respond = g("http.respond_us_p50");
    let inner = g("json.parse_us_p50") + g("catalog.query_us_p50") + g("json.encode_us_p50");
    println!(
        "layers: traced rounds p50_us = {p50:.1} us, mean = {mean:.1} us; untraced rounds p50_us = {p50_untraced:.1} us"
    );
    println!(
        "layers:   reactor.dispatch_us_mean = {:.1} us (pool.queue_wait_us_mean {:.1} us of it)",
        g("reactor.dispatch_us_mean"),
        g("pool.queue_wait_us_mean")
    );
    println!("layers:   http.server_us_mean      = {:.1} us", g("http.server_us_mean"));
    println!("layers:     http.respond_us_p50    = {respond:.1} us (in process, batch threads 1)");
    println!("layers:       json.parse_us_p50    = {:.1} us", g("json.parse_us_p50"));
    println!("layers:       catalog.query_us_p50 = {:.1} us", g("catalog.query_us_p50"));
    println!("layers:       json.encode_us_p50   = {:.1} us", g("json.encode_us_p50"));
    println!("layers:       respond residual     = {:.1} us", respond - inner);
    println!(
        "layers:     server − respond         = {:.1} us (head parse, write, batch threads)",
        g("http.server_us_mean") - respond
    );
    let accounted = g("reactor.dispatch_us_mean") + g("http.server_us_mean");
    println!(
        "layers:   accounted = {accounted:.1} us = {:.1}% of the mean ({:.1} us unattributed), \
         {:.1}% of p50_us ({:.1} us unattributed: client, loopback, reactor wake)",
        accounted / mean * 100.0,
        mean - accounted,
        accounted / p50 * 100.0,
        p50 - accounted,
    );
}

/// A catalog holding the served document as the served process does.
fn served_catalog(p: &Prepared, index_path: &Path, wal: &Path, sync: bool) -> io::Result<Catalog> {
    let catalog = Catalog::new(8);
    let opts = LoadOptions { mmap: false, threads: 0 };
    if p.spec.ingest() {
        let config =
            IngestConfig { background_compaction: true, sync_wal: sync, ..IngestConfig::default() };
        catalog.load_usix_ingest_with(index_path, wal, config, opts).map_err(other)?;
    } else {
        catalog.load_usix_with(index_path, opts).map_err(other)?;
    }
    Ok(catalog)
}

/// `respond()` per request on a fresh catalog: the whole handler
/// (JSON, catalog cache, engine, encoding) without the transport.
fn http_pass(p: &Prepared, index_path: &Path, ops: &[Op], out: &mut Collected) -> io::Result<()> {
    let catalog = served_catalog(p, index_path, &p.work.path("http.usil"), true)?;
    let doc = catalog.get(workload::DOC).expect("document loaded");
    let (hits0, misses0) = doc.cache_counters();
    let mut respond_us = Vec::new();
    let mut errors = 0;
    let append_path = format!("/v1/docs/{}/append", workload::DOC);
    for op in ops {
        let (path, body) = match op {
            Op::Query(ids) => ("/v1/query", workload::query_body(&patterns(p, ids))),
            Op::Append(i) => (append_path.as_str(), workload::append_body(&p.inputs.chunks[*i])),
        };
        let (response, took) = timed(|| respond(&catalog, "POST", path, body.as_bytes()));
        errors += usize::from(response.status != 200);
        if matches!(op, Op::Query(_)) {
            respond_us.push(us(took));
        }
    }
    if errors > 0 {
        return Err(other(format!("{errors} in-process requests failed")));
    }
    let (hits, misses) = doc.cache_counters();
    let (hits, misses) = ((hits - hits0) as f64, (misses - misses0) as f64);
    let s = Summary::of(&respond_us);
    out.push("http.respond_us_p50", "us", s.p50, s.n);
    out.push(
        "catalog.cache_hit_ratio",
        "ratio",
        hits / (hits + misses).max(1.0),
        (hits + misses) as usize,
    );
    Ok(())
}

/// Request parsing and response encoding, each timed alone.
fn json_pass(p: &Prepared, ops: &[Op], expected: &[usi_core::UsiQuery], out: &mut Collected) {
    let (mut parse_us, mut encode_us) = (Vec::new(), Vec::new());
    for op in ops {
        let Op::Query(ids) = op else { continue };
        let pats = patterns(p, ids);
        let body = workload::query_body(&pats);
        let (parsed, took) = timed(|| Json::parse(&body));
        assert!(parsed.is_ok(), "benchmark request bodies are valid JSON");
        parse_us.push(us(took));
        let answers: Vec<_> = ids.iter().map(|&id| expected[id as usize]).collect();
        let (encoded, took) =
            timed(|| query_response_json(workload::DOC, &pats, &answers).encode());
        std::hint::black_box(encoded);
        encode_us.push(us(took));
    }
    let (parse, encode) = (Summary::of(&parse_us), Summary::of(&encode_us));
    out.push("json.parse_us_p50", "us", parse.p50, parse.n);
    out.push("json.encode_us_p50", "us", encode.p50, encode.n);
}

/// `Doc::query_batch` per request (the catalog layer: pattern cache and
/// engine), with appends applied untimed so the cache sees the same
/// invalidations as the served document.
fn catalog_pass(
    p: &Prepared,
    index_path: &Path,
    ops: &[Op],
    out: &mut Collected,
) -> io::Result<()> {
    let catalog = served_catalog(p, index_path, &p.work.path("catalog.usil"), false)?;
    let doc = catalog.get(workload::DOC).expect("document loaded");
    let threads = std::thread::available_parallelism().map_or(1, usize::from).clamp(1, 8);
    let mut query_us = Vec::new();
    for op in ops {
        match op {
            Op::Query(ids) => {
                let pats = patterns(p, ids);
                let (answers, took) = timed(|| doc.query_batch(&pats, threads));
                std::hint::black_box(answers);
                query_us.push(us(took));
            }
            Op::Append(i) => {
                let chunk = &p.inputs.chunks[*i];
                doc.append(&chunk.text, &chunk.weights).map_err(other)?;
            }
        }
    }
    let s = Summary::of(&query_us);
    out.push("catalog.query_us_p50", "us", s.p50, s.n);
    Ok(())
}

/// `UsiIndex::query` per pattern (the paper's engine: `H` probe, or SA
/// search plus one PSW lookup per occurrence), and the per-pattern cost
/// the catalog's cache path adds on top of it.
fn core_pass(p: &Prepared, index: &UsiIndex, ops: &[Op], out: &mut Collected) {
    let (mut all, mut h, mut sa) = (Vec::new(), Vec::new(), Vec::new());
    let mut sa_occ = 0u64;
    let lookups: Vec<&[u8]> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Query(ids) => Some(patterns(p, ids)),
            Op::Append(_) => None,
        })
        .flatten()
        .collect();
    for &pattern in &lookups {
        let (q, took) = timed(|| index.query(pattern));
        let t = ns(took);
        all.push(t);
        if q.source == QuerySource::HashTable {
            h.push(t);
        } else {
            sa.push(t);
            sa_occ += q.occurrences;
        }
    }
    let catalog = Catalog::new(8);
    let doc = catalog.insert(workload::DOC, index.clone());
    let doc_ns: Vec<f64> =
        lookups.iter().map(|&pattern| ns(timed(|| doc.query(pattern)).1)).collect();
    let (all_s, h_s, sa_s) = (Summary::of(&all), Summary::of(&h), Summary::of(&sa));
    out.push("core.query_ns_p50", "ns", all_s.p50, all_s.n);
    out.push("core.h_share", "ratio", h.len() as f64 / all.len().max(1) as f64, all.len());
    out.push("core.h_probe_ns_p50", "ns", h_s.p50, h_s.n);
    out.push("core.sa_query_ns_p50", "ns", sa_s.p50, sa_s.n);
    out.push("core.occ_per_sa_query", "count", sa_occ as f64 / sa.len().max(1) as f64, sa.len());
    out.push(
        "catalog.cache_overhead_ns",
        "ns",
        Summary::of(&doc_ns).mean - all_s.mean,
        doc_ns.len(),
    );
}

/// `IngestPipeline::{append, query, stats}` with the served flush
/// policy (fdatasync per append, background compaction). On
/// `ingest_mix` it replays the traced appends and queries in order; on
/// the other workloads it spreads the seed's first 128 Ki append
/// letters over the workload's own queries.
fn ingest_pass(p: &Prepared, index_path: &Path, ops: &[Op], out: &mut Collected) -> io::Result<()> {
    let config = IngestConfig { background_compaction: true, ..IngestConfig::default() };
    let (pipeline, _) =
        IngestPipeline::open(read_index(index_path)?, &p.work.path("ingest.usil"), config)
            .map_err(other)?;
    let mixed: Vec<Op> = if p.spec.ingest() {
        ops.to_vec()
    } else {
        // the seed's first STATIC_APPENDS chunks, spread evenly over the
        // workload's replayed requests
        let mut mixed = Vec::with_capacity(ops.len() + STATIC_APPENDS);
        for (i, op) in ops.iter().enumerate() {
            let due = (i + 1) * STATIC_APPENDS / ops.len().max(1);
            while mixed.len() - i < due {
                mixed.push(Op::Append(mixed.len() - i));
            }
            mixed.push(op.clone());
        }
        mixed
    };
    let registry_before = Scrape::parse(&usi_obs::global().encode());
    let (mut append_us, mut query_ns) = (Vec::new(), Vec::new());
    let mut letters = 0;
    for op in &mixed {
        match op {
            Op::Append(i) => {
                let chunk = &p.inputs.chunks[*i];
                let (result, took) = timed(|| pipeline.append(&chunk.text, &chunk.weights));
                result.map_err(other)?;
                append_us.push(us(took));
                letters += chunk.text.len();
            }
            Op::Query(ids) => {
                for pattern in patterns(p, ids) {
                    let (q, took) = timed(|| pipeline.query(pattern));
                    std::hint::black_box(q);
                    query_ns.push(ns(took));
                }
            }
        }
    }
    if !pipeline.wait_for_quiescence(QUIESCENCE) {
        return Err(other("background compaction did not settle"));
    }
    let registry = Scrape::parse(&usi_obs::global().encode());
    let stats = pipeline.stats();
    let (appends, queries) = (Summary::of(&append_us), Summary::of(&query_ns));
    let fsync = registry.histogram_mean(&registry_before, "usi_wal_fsync_seconds", "") * 1e6;
    let (_, fsyncs) = registry.histogram_delta(&registry_before, "usi_wal_fsync_seconds", "");
    out.push("ingest.append_us_p50", "us", appends.p50, appends.n);
    out.push("ingest.append_us_p99", "us", appends.p99, appends.n);
    out.push("ingest.query_ns_p50", "ns", queries.p50, queries.n);
    out.push("ingest.segments", "count", stats.segments as f64, 1);
    out.push("ingest.seals", "count", stats.seals as f64, 1);
    out.push("ingest.compactions", "count", stats.compactions as f64, 1);
    out.push("wal.fsync_us_mean", "us", fsync, fsyncs as usize);
    out.push(
        "ingest.seal_s_total",
        "s",
        registry.histogram_delta(&registry_before, "usi_ingest_seal_seconds", "").0,
        stats.seals as usize,
    );
    out.push(
        "ingest.compaction_s_total",
        "s",
        registry.histogram_delta(&registry_before, "usi_ingest_compaction_seconds", "").0,
        stats.compactions as usize,
    );
    out.push(
        "ingest.wal_bytes_per_letter",
        "B/letter",
        stats.wal_bytes as f64 / letters.max(1) as f64,
        letters,
    );
    println!(
        "layers: ingest replay appended {letters} letters; n = {} segments = {}",
        stats.n, stats.segments
    );
    Ok(())
}
