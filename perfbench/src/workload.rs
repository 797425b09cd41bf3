//! Seeded inputs: the HUM corpus, the `W1` pattern pool, and each
//! workload's request streams. Everything here is a pure function of
//! the seed (and the corpus size), so a fixed seed replays byte for
//! byte.

use std::collections::HashMap;
use std::time::Duration;
use usi_core::oracle::TopKOracle;
use usi_datasets::corpora::Dataset;

/// Letters in the benchmark corpus (`2^20`).
pub const CORPUS_LETTERS: usize = 1 << 20;
/// The served document id (the `.usix` file stem).
pub const DOC: &str = "hum";
/// Letters per append on `ingest_mix`.
pub const APPEND_LETTERS: usize = 64;
/// `ingest_mix` sends one append per this many requests (1 append, 9 queries).
pub const APPEND_EVERY: usize = 10;
/// Patterns per request on `batch_zipf`.
pub const BATCH: usize = 64;
/// Zipf exponent of `batch_zipf`.
pub const ZIPF_S: f64 = 1.0;
/// The paper's `W1` pool: top-`n/50` frequent substrings.
pub const W1_TOP_DENOMINATOR: usize = 50;
/// Requests in the closed-loop cycle (each client thread walks it).
const CLOSED_CYCLE: usize = 20_000;

/// Which traffic mix a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PointW1,
    BatchZipf,
    IngestMix,
}

/// A workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// Open-loop arrival rate (requests per second, Poisson): a quarter
    /// to a sixth of the closed-loop saturation rate on a 2-vCPU Xeon VM,
    /// where at half of it the generator fell behind its own schedule.
    pub rate_rps: f64,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec { kind: Kind::PointW1, name: "point_w1", rate_rps: 5000.0 },
    Spec { kind: Kind::BatchZipf, name: "batch_zipf", rate_rps: 400.0 },
    Spec { kind: Kind::IngestMix, name: "ingest_mix", rate_rps: 2000.0 },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn ingest(&self) -> bool {
        self.kind == Kind::IngestMix
    }
}

/// SplitMix64: a tiny, fully specified generator, so request streams
/// stay byte-identical whatever the workspace's RNG shim does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The weighted corpus a run indexes.
pub struct Corpus {
    pub text: Vec<u8>,
    pub weights: Vec<f64>,
}

impl Corpus {
    pub fn generate(letters: usize, seed: u64) -> Self {
        let ws = Dataset::Hum.generate(letters, seed);
        Self { text: ws.text().to_vec(), weights: ws.weights().to_vec() }
    }

    /// `K = n / 100`, the index's top-K budget.
    pub fn k(&self) -> usize {
        self.text.len() / 100
    }

    /// The weights file `usi build --weights` reads.
    pub fn weights_file(&self) -> String {
        let mut out = String::with_capacity(self.weights.len() * 5);
        for w in &self.weights {
            out.push_str(&w.to_string());
            out.push('\n');
        }
        out
    }
}

/// One request of a stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `POST /v1/query` for these pattern ids (into [`Inputs::patterns`]).
    Query(Vec<u32>),
    /// `POST /v1/docs/{DOC}/append` of append chunk `i` (in stream order).
    Append(usize),
}

/// One append chunk: HUM letters with their weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    pub text: Vec<u8>,
    pub weights: Vec<f64>,
}

/// Everything a run sends, generated up front from the seed.
pub struct Inputs {
    /// Distinct pattern table; ops refer to patterns by index.
    pub patterns: Vec<Vec<u8>>,
    /// How many leading entries of `patterns` are the `W1` top-`n/50` pool.
    pub pool_len: usize,
    /// The open-loop schedule: due offsets from the start, and ops.
    pub offsets: Vec<Duration>,
    pub open: Vec<Op>,
    /// Closed-loop query cycle (queries only).
    pub closed: Vec<Op>,
    /// Warm-up queries, sent before anything is timed.
    pub warm: Vec<Op>,
    /// The ordered append stream (open-loop appends first, then the
    /// closed loop's, then the traced ingest replay's).
    pub chunks: Vec<Chunk>,
}

/// Builds the distinct top-`n/50` pool, in the oracle's order.
pub fn w1_pool(text: &[u8], oracle: &TopKOracle, sa: &[u32]) -> Vec<Vec<u8>> {
    oracle
        .top_k(text.len() / W1_TOP_DENOMINATOR)
        .into_iter()
        .map(|t| {
            let pos = sa[t.lb as usize] as usize;
            text[pos..pos + t.len as usize].to_vec()
        })
        .collect()
}

/// Poisson arrival offsets at `rate` per second over `seconds`.
pub fn poisson_offsets(rate: f64, seconds: f64, rng: &mut Rng) -> Vec<Duration> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// Interns patterns into the shared table.
struct Table {
    patterns: Vec<Vec<u8>>,
    ids: HashMap<Vec<u8>, u32>,
}

impl Table {
    fn new(pool: Vec<Vec<u8>>) -> Self {
        let mut table = Self { patterns: Vec::new(), ids: HashMap::new() };
        for p in pool {
            table.id(&p);
        }
        table
    }

    fn id(&mut self, pattern: &[u8]) -> u32 {
        if let Some(&id) = self.ids.get(pattern) {
            return id;
        }
        let id = self.patterns.len() as u32;
        self.patterns.push(pattern.to_vec());
        self.ids.insert(pattern.to_vec(), id);
        id
    }
}

/// Zipf(`s`) over `n` ranks by inverse-CDF lookup.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

impl Inputs {
    /// Generates every stream of `spec` for an open loop of `seconds`.
    /// `appends_needed` sizes the append stream (every workload gets
    /// one: the traced run replays it through the ingest layer).
    pub fn generate(
        spec: Spec,
        corpus: &Corpus,
        pool: Vec<Vec<u8>>,
        seconds: f64,
        appends_needed: usize,
        seed: u64,
    ) -> Self {
        let text = &corpus.text;
        let pool_len = pool.len();
        let mut table = Table::new(pool);
        let mut rng = Rng::new(seed ^ 0x5eed_0000_0000_0001);
        let offsets = poisson_offsets(spec.rate_rps, seconds, &mut rng);
        let len_range = Dataset::Hum.spec().pattern_len_range;
        // the paper's W1 mix: 90% pool picks, 10% repeats or random fragments
        let mut w1_picks: Vec<u32> = Vec::new();
        let mut w1_next = |table: &mut Table, rng: &mut Rng| -> u32 {
            let id = if rng.below(10) < 9 || w1_picks.is_empty() {
                rng.below(pool_len) as u32
            } else if rng.below(2) == 0 {
                w1_picks[rng.below(w1_picks.len())]
            } else {
                let hi = len_range.1.min(text.len());
                let len = len_range.0.max(1) + rng.below(hi - len_range.0.max(1) + 1);
                let start = rng.below(text.len() - len + 1);
                table.id(&text[start..start + len])
            };
            w1_picks.push(id);
            id
        };
        // batch_zipf: Zipf ranks over the pool, rank → pattern shuffled by the seed
        let mut rank_to_id: Vec<u32> = (0..pool_len as u32).collect();
        for i in (1..rank_to_id.len()).rev() {
            let j = rng.below(i + 1);
            rank_to_id.swap(i, j);
        }
        let zipf = Zipf::new(pool_len, ZIPF_S);
        let mut next_query = |table: &mut Table, rng: &mut Rng| -> Op {
            match spec.kind {
                Kind::PointW1 | Kind::IngestMix => Op::Query(vec![w1_next(table, rng)]),
                Kind::BatchZipf => {
                    Op::Query((0..BATCH).map(|_| rank_to_id[zipf.sample(rng)]).collect())
                }
            }
        };
        let warm: Vec<Op> = (0..2_000).map(|_| next_query(&mut table, &mut rng)).collect();
        let mut appends = 0;
        let open: Vec<Op> = (0..offsets.len())
            .map(|i| {
                if spec.ingest() && i % APPEND_EVERY == APPEND_EVERY - 1 {
                    appends += 1;
                    Op::Append(appends - 1)
                } else {
                    next_query(&mut table, &mut rng)
                }
            })
            .collect();
        let closed: Vec<Op> = (0..CLOSED_CYCLE).map(|_| next_query(&mut table, &mut rng)).collect();
        let stream = Dataset::Hum.generate(APPEND_LETTERS * appends_needed.max(1), seed ^ 0xa99e);
        let chunks = stream
            .text()
            .chunks(APPEND_LETTERS)
            .zip(stream.weights().chunks(APPEND_LETTERS))
            .map(|(t, w)| Chunk { text: t.to_vec(), weights: w.to_vec() })
            .collect();
        Self { patterns: table.patterns, pool_len, offsets, open, closed, warm, chunks }
    }

    /// The full HTTP/1.1 request bytes for one op.
    pub fn request_bytes(&self, op: &Op) -> Vec<u8> {
        match op {
            Op::Query(ids) => {
                let patterns: Vec<&[u8]> =
                    ids.iter().map(|&id| self.patterns[id as usize].as_slice()).collect();
                http_post("/v1/query", &query_body(&patterns))
            }
            Op::Append(i) => {
                let chunk = &self.chunks[*i];
                http_post(&format!("/v1/docs/{DOC}/append"), &append_body(chunk))
            }
        }
    }

    /// Query ops of the open loop with their pattern ids, in order.
    pub fn open_queries(&self) -> impl Iterator<Item = &[u32]> {
        self.open.iter().filter_map(|op| match op {
            Op::Query(ids) => Some(ids.as_slice()),
            Op::Append(_) => None,
        })
    }

    /// Mean letters per queried pattern over the open loop.
    pub fn mean_pattern_len(&self) -> f64 {
        let (mut letters, mut count) = (0usize, 0usize);
        for ids in self.open_queries() {
            for &id in ids {
                letters += self.patterns[id as usize].len();
                count += 1;
            }
        }
        letters as f64 / count.max(1) as f64
    }

    /// Share of open-loop pattern lookups that an ideal cache of
    /// `capacity` entries could serve: lookups of the `capacity` most
    /// requested patterns, over all lookups.
    pub fn cache_fit_share(&self, capacity: usize) -> f64 {
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for ids in self.open_queries() {
            for &id in ids {
                *counts.entry(id).or_default() += 1;
            }
        }
        let mut freq: Vec<usize> = counts.into_values().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = freq.iter().sum();
        freq.iter().take(capacity).sum::<usize>() as f64 / total.max(1) as f64
    }
}

/// Escapes a JSON string body (the corpus is ASCII letters, but a
/// request must stay valid whatever the table holds).
fn json_string(out: &mut String, s: &[u8]) {
    out.push('"');
    for &b in s {
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            0x20..=0x7e => out.push(b as char),
            _ => out.push_str(&format!("\\u{b:04x}")),
        }
    }
    out.push('"');
}

pub fn query_body(patterns: &[&[u8]]) -> String {
    let mut out = format!("{{\"doc\":\"{DOC}\",\"patterns\":[");
    for (i, p) in patterns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_string(&mut out, p);
    }
    out.push_str("]}");
    out
}

pub fn append_body(chunk: &Chunk) -> String {
    let mut out = String::from("{\"text\":");
    json_string(&mut out, &chunk.text);
    out.push_str(",\"weights\":[");
    for (i, w) in chunk.weights.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&w.to_string());
    }
    out.push_str("]}");
    out
}

/// A keep-alive `POST` with a JSON body.
pub fn http_post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(spec: Spec, seed: u64) -> Inputs {
        let corpus = Corpus::generate(8_192, 3);
        let (oracle, sa) = TopKOracle::from_text(&corpus.text);
        let pool = w1_pool(&corpus.text, &oracle, &sa);
        Inputs::generate(spec, &corpus, pool, 0.5, 1_000, seed)
    }

    fn wire(inputs: &Inputs) -> Vec<u8> {
        let mut out = Vec::new();
        for (offset, op) in inputs.offsets.iter().zip(&inputs.open) {
            out.extend_from_slice(&offset.as_nanos().to_le_bytes());
            out.extend_from_slice(&inputs.request_bytes(op));
        }
        for op in inputs.closed.iter().chain(&inputs.warm) {
            out.extend_from_slice(&inputs.request_bytes(op));
        }
        out
    }

    #[test]
    fn request_streams_are_byte_identical_for_a_fixed_seed() {
        for spec in WORKLOADS {
            let (a, b) = (inputs(spec, 7), inputs(spec, 7));
            assert_eq!(wire(&a), wire(&b), "{}", spec.name);
            assert_eq!(a.chunks, b.chunks);
            assert_ne!(wire(&a), wire(&inputs(spec, 8)), "{}: seed must matter", spec.name);
        }
    }

    #[test]
    fn ingest_mix_sends_one_append_per_nine_queries_in_stream_order() {
        let spec = Spec::by_name("ingest_mix").unwrap();
        let inputs = inputs(spec, 1);
        let appends: Vec<usize> = inputs
            .open
            .iter()
            .filter_map(|op| match op {
                Op::Append(i) => Some(*i),
                Op::Query(_) => None,
            })
            .collect();
        assert_eq!(appends, (0..appends.len()).collect::<Vec<_>>());
        assert_eq!(appends.len(), inputs.open.len() / APPEND_EVERY);
        assert!(inputs.chunks.iter().all(|c| c.text.len() == APPEND_LETTERS));
    }

    #[test]
    fn batch_zipf_requests_carry_a_full_batch_from_the_pool() {
        let inputs = inputs(Spec::by_name("batch_zipf").unwrap(), 2);
        for ids in inputs.open_queries() {
            assert_eq!(ids.len(), BATCH);
            assert!(ids.iter().all(|&id| (id as usize) < inputs.pool_len));
        }
    }

    #[test]
    fn poisson_offsets_match_the_rate() {
        let offsets = poisson_offsets(1_000.0, 20.0, &mut Rng::new(5));
        let n = offsets.len() as f64;
        assert!((n - 20_000.0).abs() < 600.0, "{n}");
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let zipf = Zipf::new(1_000, 1.0);
        let mut rng = Rng::new(9);
        let ones = (0..10_000).filter(|_| zipf.sample(&mut rng) == 0).count();
        // P(rank 1) = 1 / H_1000 ≈ 0.134
        assert!((1_100..1_600).contains(&ones), "{ones}");
    }

    #[test]
    fn bodies_are_valid_json() {
        let body = query_body(&[b"AC\"GT", b"\\x"]);
        let parsed = usi_server::Json::parse(&body).unwrap();
        let items = parsed.get("patterns").and_then(usi_server::Json::as_array).unwrap();
        assert_eq!(items[0].as_str(), Some("AC\"GT"));
        let chunk = Chunk { text: b"ACGT".to_vec(), weights: vec![0.7, 0.75, 1.0, 0.85] };
        let parsed = usi_server::Json::parse(&append_body(&chunk)).unwrap();
        assert_eq!(parsed.get("weights").and_then(usi_server::Json::as_array).unwrap().len(), 4);
    }
}
