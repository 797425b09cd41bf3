//! `perfbench` — the repository benchmark: what a client of `usi serve`
//! sees, end to end, and what each layer costs, measured from outside.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload point_w1|batch_zipf|ingest_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run builds the release `usi` binary from the repository, writes
//! a seeded 2^20-letter HUM corpus, and serves it with `usi serve` as a
//! child process. `--trace 0` measures the end-to-end metrics (set-up
//! time, open-loop latency at the workload's fixed rate, closed-loop
//! throughput, peak memory, index size); `--trace 1` is the traced run
//! that splits a request into its layers (see `trace.rs`). Each run
//! checks every answer and prints a report followed, on the last line,
//! by one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! A wrong answer makes the exit code non-zero.

mod client;
mod closedloop;
mod openloop;
mod server;
mod stats;
mod trace;
mod verify;
mod workload;

use server::Server;
use stats::{median, Summary};
use std::io::{self, BufReader};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use usi_core::oracle::TopKOracle;
use usi_core::UsiIndex;
use usi_ingest::{IngestConfig, IngestPipeline};
use workload::{Corpus, Inputs, Op, Spec};

/// Set-ups timed per run; the median is reported.
const SETUP_REPEATS: usize = 5;
/// Entries in the server's per-document pattern LRU.
const LRU_CAPACITY: usize = 1024;
/// Patterns re-queried on `ingest_mix` once the run is over and compared
/// exactly with an in-process pipeline fed the same appends.
const FINAL_SAMPLE: usize = 256;
/// Appends generated beyond the open loop's (closed loop and replays).
const SPARE_APPENDS: usize = 8_192;
/// Longest warm-up before anything is timed.
const WARM_UP: Duration = Duration::from_secs(1);
/// Interleaved (open-loop, closed-loop) rounds per run.
const ROUNDS: usize = 40;
/// Appends one closed-loop window may send on `ingest_mix`. A fixed
/// count (reached within the first 160 requests of a window) keeps the
/// document's growth, and so the next rounds' query cost, independent of
/// how fast the window ran.
const CLOSED_APPENDS_PER_ROUND: usize = 16;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = raw.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        raw.get(at + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let spec = Spec::by_name(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if seconds.is_nan() || seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args { spec, seed, seconds, trace })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
}

/// What a run hands back for printing.
pub struct RunResult {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

/// A per-run work directory inside the working directory, removed
/// when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create(label: &str) -> io::Result<Self> {
        let dir = std::env::current_dir()?
            .join(".bench_work")
            .join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only succeeds once empty
        }
    }
}

/// Everything both run kinds share: the binary, the corpus on disk and
/// the generated request streams.
pub struct Prepared {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
    pub usi: PathBuf,
    pub work: WorkDir,
    pub corpus: Corpus,
    pub text_path: PathBuf,
    pub weights_path: PathBuf,
    pub inputs: Inputs,
}

impl Prepared {
    /// A fresh WAL directory for one server lifetime (`ingest_mix`).
    pub fn fresh_wal(&self, label: &str) -> Option<PathBuf> {
        self.spec.ingest().then(|| self.work.path(&format!("wal-{label}")))
    }

    /// Chunks the open loop appends.
    pub fn open_appends(&self) -> usize {
        self.inputs.open.iter().filter(|op| matches!(op, Op::Append(_))).count()
    }
}

fn prepare(args: &Args) -> io::Result<Prepared> {
    let usi = server::build_usi()?;
    let work = WorkDir::create(args.spec.name)?;
    let corpus = Corpus::generate(workload::CORPUS_LETTERS, args.seed);
    let text_path = work.path(&format!("{}.txt", workload::DOC));
    let weights_path = work.path("weights.txt");
    std::fs::write(&text_path, &corpus.text)?;
    std::fs::write(&weights_path, corpus.weights_file())?;
    let (oracle, sa) = TopKOracle::from_text(&corpus.text);
    let pool = workload::w1_pool(&corpus.text, &oracle, &sa);
    drop((oracle, sa));
    let open_seconds = open_window(args.seconds);
    let expected_appends =
        (args.spec.rate_rps * open_seconds / workload::APPEND_EVERY as f64).ceil() as usize;
    let inputs = Inputs::generate(
        args.spec,
        &corpus,
        pool,
        open_seconds,
        expected_appends * 2 + SPARE_APPENDS,
        args.seed,
    );
    Ok(Prepared {
        spec: args.spec,
        seed: args.seed,
        seconds: args.seconds,
        usi,
        work,
        corpus,
        text_path,
        weights_path,
        inputs,
    })
}

/// The open-loop share of a run's measured seconds (the rest is the
/// closed-loop throughput phase).
fn open_window(seconds: f64) -> f64 {
    seconds * 0.5
}

pub fn read_index(path: &Path) -> io::Result<UsiIndex> {
    let mut input = BufReader::new(std::fs::File::open(path)?);
    UsiIndex::read_from(&mut input).map_err(|e| io::Error::other(e.to_string()))
}

/// A closed-loop request source cycling through query ops (at most
/// `limit` of them); with [`Cycle::with_appends`], also one ordered
/// append after every nine queries while its append budget lasts.
struct Cycle<'a> {
    inputs: &'a Inputs,
    ops: &'a [Op],
    at: usize,
    limit: Option<usize>,
    next_append: Option<usize>,
    appends_issued: usize,
    append_budget: usize,
    current: Op,
    bytes: Vec<u8>,
}

impl<'a> Cycle<'a> {
    fn new(inputs: &'a Inputs, ops: &'a [Op], limit: Option<usize>) -> Self {
        Self {
            inputs,
            ops,
            at: 0,
            limit,
            next_append: None,
            appends_issued: 0,
            append_budget: 0,
            current: Op::Query(Vec::new()),
            bytes: Vec::new(),
        }
    }

    fn with_appends(mut self, first_chunk: usize) -> Self {
        self.next_append = Some(first_chunk);
        self
    }

    /// Allows `n` more appends (one closed-loop window's worth).
    fn grant_appends(&mut self, n: usize) {
        self.append_budget = n;
    }
}

impl closedloop::Source for Cycle<'_> {
    fn next(&mut self) -> Option<(&Op, &[u8])> {
        let sent = self.at + self.appends_issued;
        if self.limit.is_some_and(|limit| self.at >= limit) {
            return None;
        }
        self.current = match self.next_append {
            Some(chunk)
                if self.append_budget > 0
                    && sent % workload::APPEND_EVERY == workload::APPEND_EVERY - 1 =>
            {
                if chunk >= self.inputs.chunks.len() {
                    return None;
                }
                self.next_append = Some(chunk + 1);
                self.appends_issued += 1;
                self.append_budget -= 1;
                Op::Append(chunk)
            }
            _ => {
                let op = self.ops[self.at % self.ops.len()].clone();
                self.at += 1;
                op
            }
        };
        self.bytes = self.inputs.request_bytes(&self.current);
        Some((&self.current, &self.bytes))
    }
}

/// Sends the warm-up queries (closed loop, two clients) so caches fill
/// and lazy set-up finishes before anything is timed.
pub fn warm_up(
    p: &Prepared,
    server: &Server,
    checker: &verify::Checker,
) -> io::Result<closedloop::Outcome> {
    let half = p.inputs.warm.len() / 2;
    let mut sources = [
        Cycle::new(&p.inputs, &p.inputs.warm[..half], Some(half)),
        Cycle::new(&p.inputs, &p.inputs.warm[half..], Some(p.inputs.warm.len() - half)),
    ];
    closedloop::run(server.addr, &mut sources, WARM_UP, &|op, r| checker.check(op, r))
}

/// Splits the open-loop schedule into `rounds` equal stretches of time,
/// as `(from, to)` op ranges.
pub fn open_slices(p: &Prepared, rounds: usize) -> Vec<(usize, usize)> {
    let span = open_window(p.seconds) / rounds as f64;
    let offsets = &p.inputs.offsets;
    let cut = |r: usize| offsets.partition_point(|o| o.as_secs_f64() < span * r as f64);
    (0..rounds).map(|r| (cut(r), cut(r + 1))).filter(|(a, b)| a < b).collect()
}

/// Runs open-loop ops `from..to` against `server`.
pub fn open_loop(
    p: &Prepared,
    server: &Server,
    (from, to): (usize, usize),
    checker: &verify::Checker,
) -> io::Result<openloop::Outcome> {
    let ops = &p.inputs.open[from..to];
    let bytes: Vec<Vec<u8>> = ops.iter().map(|op| p.inputs.request_bytes(op)).collect();
    let base = p.inputs.offsets[from];
    let schedule: Vec<openloop::Scheduled> = ops
        .iter()
        .zip(&bytes)
        .zip(&p.inputs.offsets[from..to])
        .map(|((op, bytes), &offset)| openloop::Scheduled {
            offset: offset - base,
            bytes,
            append: matches!(op, Op::Append(_)),
        })
        .collect();
    openloop::run(server.addr, &schedule, &|i, r| checker.check(&ops[i], r))
}

/// Feeds `chunks` (in order) to an in-process pipeline over `base`,
/// without fsync: the logical state the served document must reach.
pub fn replay_appends(
    base: UsiIndex,
    chunks: &[usize],
    inputs: &Inputs,
    wal: &Path,
) -> io::Result<IngestPipeline> {
    let config = IngestConfig { sync_wal: false, ..IngestConfig::default() };
    let (pipeline, _) =
        IngestPipeline::open(base, wal, config).map_err(|e| io::Error::other(e.to_string()))?;
    for &chunk in chunks {
        let chunk = &inputs.chunks[chunk];
        pipeline
            .append(&chunk.text, &chunk.weights)
            .map_err(|e| io::Error::other(e.to_string()))?;
    }
    Ok(pipeline)
}

/// Seconds of CPU time the hypervisor took from this machine so far
/// (`steal` in `/proc/stat`, summed over its CPUs), to flag runs
/// measured under contention.
fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse::<f64>().ok())
        .map_or(f64::NAN, |jiffies| jiffies / 100.0)
}

/// CPUs whose time `/proc/stat` sums into its `steal` figure.
fn stat_cpus() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpus = stat
        .lines()
        .filter(|l| {
            l.strip_prefix("cpu").is_some_and(|n| n.starts_with(|c: char| c.is_ascii_digit()))
        })
        .count();
    cpus.max(1) as f64
}

/// Times one phase of a round and the share of the machine's CPU time
/// stolen during it.
fn stolen_share<T>(cpus: f64, phase: impl FnOnce() -> io::Result<T>) -> io::Result<(T, f64)> {
    let (start, before) = (Instant::now(), steal_seconds());
    let out = phase()?;
    let share = (steal_seconds() - before) / (start.elapsed().as_secs_f64() * cpus);
    Ok((out, if share.is_finite() { share } else { 0.0 }))
}

/// Prints one per-round series.
fn print_rounds(label: &str, values: &[f64]) {
    let shown: Vec<String> = values.iter().map(|v| format!("{v:.1}")).collect();
    println!("rounds: {label} = [{}]", shown.join(", "));
}

/// The end-to-end run (`--trace 0`).
fn run_e2e(p: &Prepared) -> io::Result<RunResult> {
    let index_path = p.work.path(&format!("{}.usix", workload::DOC));
    let k = p.corpus.k();
    // set-up: corpus on disk → usi build → usi serve answering /healthz
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut server = None;
    for rep in 0..SETUP_REPEATS {
        if let Some(previous) = server.take() {
            Server::stop(previous)?;
        }
        let _ = std::fs::remove_file(&index_path);
        let wal = p.fresh_wal(&format!("setup{rep}"));
        let start = Instant::now();
        server::usi_build(&p.usi, &p.text_path, &p.weights_path, k, &index_path)?;
        let running = Server::start(&p.usi, &index_path, &server::serve_flags(wal.as_deref()))?;
        setups.push(start.elapsed().as_secs_f64());
        server = Some(running);
    }
    let server = server.expect("at least one set-up");
    let index_bytes = std::fs::metadata(&index_path)?.len() as f64;
    let expected = verify::expected_answers(&read_index(&index_path)?, &p.inputs);
    let checker = verify::Checker::new(&expected, p.spec.ingest());
    print_facts(p, &expected);

    // ROUNDS × (open-loop stretch, closed-loop window), interleaved so a
    // burst of outside contention (CPU stolen by neighbours only ever
    // slows a round down) lands in few rounds; the gated metrics read
    // only the rounds that lost little CPU time to it
    let steal_before = steal_seconds();
    let warm = warm_up(p, &server, &checker)?;
    let closed_window =
        Duration::from_secs_f64((p.seconds - open_window(p.seconds)) / ROUNDS as f64);
    let mut cycles = closed_cycles(p);
    let (mut opens, mut closeds) = (Vec::new(), Vec::new());
    let (mut open_steal, mut closed_steal) = (Vec::new(), Vec::new());
    let cpus = stat_cpus();
    for slice in open_slices(p, ROUNDS) {
        let (open, stolen) = stolen_share(cpus, || open_loop(p, &server, slice, &checker))?;
        opens.push(open);
        open_steal.push(stolen);
        cycles[0].grant_appends(CLOSED_APPENDS_PER_ROUND);
        let (closed, stolen) = stolen_share(cpus, || {
            closedloop::run(server.addr, &mut cycles, closed_window, &|op, r| checker.check(op, r))
        })?;
        closeds.push(closed);
        closed_steal.push(stolen);
    }
    let steal = steal_seconds() - steal_before;
    let rss_mib = server.peak_rss_mib()?;

    let mut wrong = warm.wrong;
    let mut failed = warm.failed;
    let mut attempted = warm.attempted;
    for o in &opens {
        (wrong, failed, attempted) = (wrong + o.wrong, failed + o.failed, attempted + o.attempted);
    }
    for c in &closeds {
        (wrong, failed, attempted) = (wrong + c.wrong, failed + c.failed, attempted + c.attempted);
    }
    let (sent, mismatched, appended) = verify_ingest(p, &server, &checker, &index_path)?;
    wrong += mismatched;
    failed += mismatched;
    attempted += sent;
    server.stop()?;

    let all = |f: fn(&openloop::Outcome) -> &Vec<f64>| -> Vec<f64> {
        opens.iter().flat_map(|o| f(o).iter().copied()).collect()
    };
    let late = Summary::of(&all(|o| &o.late_us));
    let service = Summary::of(&all(|o| &o.service_us));
    let queries = Summary::of(&all(|o| &o.query_us));
    println!("facts: letters_appended={appended}");
    println!(
        "loadgen: rate_rps={} late_us_p50={:.3} late_us_p99={:.3} (n={}) service_us_p50={:.3} \
         service_us_p99={:.3} warm_up_requests={} steal_s={steal:.2}",
        p.spec.rate_rps, late.p50, late.p99, late.n, service.p50, service.p99, warm.attempted
    );
    let percent = |shares: &[f64]| shares.iter().map(|s| s * 100.0).collect::<Vec<_>>();
    print_rounds("open_steal_pct", &percent(&open_steal));
    print_rounds("closed_steal_pct", &percent(&closed_steal));
    let clean = |shares: &[f64]| shares.iter().filter(|&&s| s <= stats::CLEAN_STEAL_SHARE).count();
    println!(
        "rounds: clean (at most {}% stolen) open={} closed={} of {}",
        stats::CLEAN_STEAL_SHARE * 100.0,
        clean(&open_steal),
        clean(&closed_steal),
        opens.len()
    );
    let round_p50: Vec<f64> = opens.iter().map(|o| Summary::of(&o.query_us).p50).collect();
    print_rounds("p50_us", &round_p50);
    let p50 = stats::clean_quantile(&round_p50, &open_steal, 0.25);
    let round_rps: Vec<f64> = closeds.iter().map(closedloop::Outcome::rps).collect();
    print_rounds("sat_rps", &round_rps);
    let sat = stats::clean_quantile(&round_rps, &closed_steal, 0.75);
    println!(
        "metric error_ratio = {} fraction (n={attempted}; wrong answers {wrong})",
        failed as f64 / attempted.max(1) as f64
    );
    let appends = Summary::of(&all(|o| &o.append_us));
    for (name, value, n) in [
        ("p90_us", queries.p90, queries.n),
        ("p99_us", queries.p99, queries.n),
        ("append_p50_us", appends.p50, appends.n),
        ("append_p99_us", appends.p99, appends.n),
    ] {
        if n == 0 {
            println!("metric {name} = n/a us (n=0: this workload sends no appends)");
        } else {
            println!("metric {name} = {value} us (n={n}, all rounds pooled; reported, not gated)");
        }
    }
    let completed: usize = closeds.iter().map(|c| c.completed).sum();
    let metrics = vec![
        Metric { name: "setup_s", unit: "s", value: median(&setups), n: setups.len() },
        Metric { name: "p50_us", unit: "us", value: p50, n: queries.n },
        Metric { name: "sat_rps", unit: "1/s", value: sat, n: completed },
        Metric { name: "rss_mb", unit: "MiB", value: rss_mib, n: 1 },
        Metric {
            name: "index_bytes_per_letter",
            unit: "B/letter",
            value: index_bytes / p.corpus.text.len() as f64,
            n: 1,
        },
    ];
    Ok(RunResult { correct: wrong == 0, attempted, failed, metrics })
}

/// The two closed-loop clients. On `ingest_mix` the first also sends
/// the append stream's next chunks (one per nine queries, up to
/// [`CLOSED_APPENDS_PER_ROUND`] a window), continuing after the open
/// loop's.
fn closed_cycles(p: &Prepared) -> [Cycle<'_>; 2] {
    let half = p.inputs.closed.len() / 2;
    let mut first = Cycle::new(&p.inputs, &p.inputs.closed[..half], None);
    if p.spec.ingest() {
        first = first.with_appends(p.open_appends());
    }
    [first, Cycle::new(&p.inputs, &p.inputs.closed[half..], None)]
}

/// On `ingest_mix`, checks the served document against an in-process
/// pipeline fed the same acknowledged appends in the same order: every
/// recorded answer must lie between the base index's and the final
/// pipeline's, and a sample re-queried once no append is in flight
/// must match exactly. Returns `(requests sent, wrong answers, letters
/// appended)`; a no-op on static workloads.
pub fn verify_ingest(
    p: &Prepared,
    server: &Server,
    checker: &verify::Checker,
    index_path: &Path,
) -> io::Result<(usize, usize, usize)> {
    if !p.spec.ingest() {
        return Ok((0, 0, 0));
    }
    let chunks = checker.appended.lock().expect("append log lock poisoned").clone();
    let pipeline =
        replay_appends(read_index(index_path)?, &chunks, &p.inputs, &p.work.path("final.usil"))?;
    let fin: Vec<_> = p.inputs.patterns.iter().map(|pat| pipeline.query(pat)).collect();
    let outside = checker.check_growing(&fin);
    let queried: Vec<u32> =
        checker.recorded.lock().expect("answer log lock poisoned").iter().map(|r| r.0).collect();
    let (sent, mismatched) = final_sample(p, server, &queried, &fin)?;
    println!(
        "verify: {} answers within [base, final]: {outside} outside; final sample of {sent} \
         patterns: {mismatched} mismatched",
        checker.recorded.lock().expect("answer log lock poisoned").len(),
    );
    Ok((sent, outside + mismatched, chunks.len() * workload::APPEND_LETTERS))
}

/// Re-queries a sample of the patterns the run queried (the ones most
/// likely to sit in the server's cache) once no append is in flight,
/// and compares them exactly with the in-process pipeline:
/// `(sent, wrong)`.
fn final_sample(
    p: &Prepared,
    server: &Server,
    queried: &[u32],
    fin: &[usi_core::UsiQuery],
) -> io::Result<(usize, usize)> {
    let mut conn = client::Conn::open(server.addr)?;
    let mut rng = workload::Rng::new(p.seed ^ 0xf1a1);
    let mut wrong = 0;
    for _ in 0..FINAL_SAMPLE {
        let id = queried[rng.below(queried.len())] as usize;
        let body = workload::query_body(&[&p.inputs.patterns[id]]);
        let r = conn.exchange(&workload::http_post("/v1/query", &body))?;
        let ok = r.status == 200
            && verify::parse_results(&r.body)
                .is_some_and(|res| res.len() == 1 && verify::same_answer(res[0].0, &fin[id]));
        wrong += usize::from(!ok);
    }
    Ok((FINAL_SAMPLE, wrong))
}

/// The workload facts every run prints.
fn print_facts(p: &Prepared, expected: &[usi_core::UsiQuery]) {
    let mut lookups = 0usize;
    let mut from_h = 0usize;
    for ids in p.inputs.open_queries() {
        for &id in ids {
            lookups += 1;
            from_h += usize::from(expected[id as usize].source == usi_core::QuerySource::HashTable);
        }
    }
    println!(
        "facts: seed={} corpus=HUM n={} k={} pool={} lru_capacity={LRU_CAPACITY} pool_over_lru={:.2} \
         core.h_share={:.4} cache_fit_share={:.4} mean_pattern_len={:.2} open_requests={} rate_rps={}",
        p.seed,
        p.corpus.text.len(),
        p.corpus.k(),
        p.inputs.pool_len,
        p.inputs.pool_len as f64 / LRU_CAPACITY as f64,
        from_h as f64 / lookups.max(1) as f64,
        p.inputs.cache_fit_share(LRU_CAPACITY),
        p.inputs.mean_pattern_len(),
        p.inputs.open.len(),
        p.spec.rate_rps,
    );
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the paths and bytes of the program's sources, so a run
/// names the code it measured even where the checkout has no git
/// metadata.
fn source_digest() -> String {
    fn walk(path: &Path, files: &mut Vec<PathBuf>) {
        if path.is_dir() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
                .map(|d| d.filter_map(Result::ok).map(|e| e.path()).collect())
                .unwrap_or_default();
            entries.sort();
            for entry in entries {
                walk(&entry, files);
            }
        } else if path.is_file() {
            files.push(path.to_path_buf());
        }
    }
    let root = server::repo_root();
    let mut files = Vec::new();
    for part in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor"] {
        walk(&root.join(part), &mut files);
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let name = file.strip_prefix(&root).unwrap_or(file).to_string_lossy().into_owned();
        for byte in name.bytes().chain(std::fs::read(file).unwrap_or_default()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x} ({} files)", files.len())
}

fn print_metadata(p: &Prepared) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let commit = command_line(
        "git",
        &["-C", &server::repo_root().display().to_string(), "rev-parse", "HEAD"],
    );
    let rustc = command_line("rustc", &["--version"]);
    let wal = p.spec.ingest().then(|| PathBuf::from("<wal dir>"));
    println!(
        "meta: workload={} seed={} seconds={} nproc={nproc} cpu={cpu:?} commit={commit} \
         source_digest={} rustc={rustc:?} serve=\"usi serve {}.usix {}\"",
        p.spec.name,
        p.seed,
        p.seconds,
        source_digest(),
        workload::DOC,
        server::serve_flags(wal.as_deref()).join(" "),
    );
}

/// The `(name, unit)` pairs `BENCHMARK.json` promises for this kind of run.
fn promised_metrics(trace: bool) -> io::Result<Vec<(String, String)>> {
    let path = server::repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)?;
    let parsed = usi_server::Json::parse(&text).map_err(|e| io::Error::other(e.to_string()))?;
    let list = parsed
        .get(if trace { "per_layer" } else { "end_to_end" })
        .and_then(usi_server::Json::as_array)
        .ok_or_else(|| io::Error::other("BENCHMARK.json lists no metrics"))?;
    Ok(list
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?.into(), m.get("unit")?.as_str()?.into())))
        .collect())
}

/// Fails unless the run measured exactly the metrics `BENCHMARK.json`
/// declares, each a finite number.
fn check_promised(r: &RunResult, trace: bool) -> io::Result<()> {
    let mut promised = promised_metrics(trace)?;
    let mut measured: Vec<(String, String)> =
        r.metrics.iter().map(|m| (m.name.into(), m.unit.into())).collect();
    promised.sort();
    measured.sort();
    if promised != measured {
        return Err(io::Error::other(format!(
            "measured metrics {measured:?} differ from BENCHMARK.json's {promised:?}"
        )));
    }
    match r.metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(io::Error::other(format!("metric {} has no value", m.name))),
        None => Ok(()),
    }
}

fn json_result(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload point_w1|batch_zipf|ingest_mix --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let outcome = prepare(&args).and_then(|p| {
        print_metadata(&p);
        let result = if args.trace { trace::run(&p)? } else { run_e2e(&p)? };
        check_promised(&result, args.trace)?;
        Ok(result)
    });
    match outcome {
        Ok(result) => {
            for m in &result.metrics {
                println!("metric {} = {} {} (n={})", m.name, m.value, m.unit, m.n);
            }
            println!("{}", json_result(&result));
            if !result.correct {
                eprintln!("perfbench: wrong answers — see the report above");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
