//! Connection-scale benchmark: active-request latency while the idle
//! keep-alive pool grows from 0 to ~10k connections.
//!
//! The connection engine's contract is that parked connections are
//! free at serve time — a request on an **active** connection must
//! cost the same whether 0 or 10 000 idle sockets sit in the epoll set.
//! Each tier opens N idle keep-alive connections (parked in the shared
//! epoll set, never written to), then measures `POST /v1/query` round
//! trips on one active connection through the same server. A
//! regression here means the engine is doing per-idle-connection work
//! on the serve path (or idle sockets are starving the workers),
//! exactly the failure mode the pre-reactor server had.
//!
//! The 10k tier adapts to the process fd budget (each idle connection
//! costs two descriptors in-process: the client end and the server
//! end) but keeps a fixed benchmark name, so thresholds stay
//! comparable on one box. Tracked by the nightly gate via
//! `ci/nightly-thresholds.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use usi_core::{UsiBuilder, UsiIndex};
use usi_datasets::Dataset;
use usi_server::client::read_response;
use usi_server::{serve, Catalog, ServerConfig};

/// Indexed letters: large enough that queries do real work.
const N: usize = 1 << 18; // 256 Ki
/// Distinct request bodies — 4× the server's per-doc LRU capacity.
const BODIES: usize = 4096;
/// Idle-pool sizes. Tier names are fixed; the last tier is clamped to
/// the fd budget at runtime (see [`fd_budget`]).
const TIERS: &[(usize, &str)] =
    &[(0, "idle_0"), (256, "idle_256"), (2048, "idle_2048"), (10_240, "idle_10k")];

/// How many idle connections this process can afford: half the
/// `RLIMIT_NOFILE` soft limit (client + server end per connection),
/// minus headroom for the workspace's own descriptors.
fn fd_budget() -> usize {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct Rlimit {
            rlim_cur: u64,
            rlim_max: u64,
        }
        extern "C" {
            fn getrlimit(resource: std::ffi::c_int, rlim: *mut Rlimit) -> std::ffi::c_int;
        }
        const RLIMIT_NOFILE: std::ffi::c_int = 7;
        let mut limit = Rlimit { rlim_cur: 0, rlim_max: 0 };
        // SAFETY: plain syscall filling the struct we hand it.
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut limit) } == 0 {
            return (limit.rlim_cur as usize).saturating_sub(1024) / 2;
        }
    }
    512
}

fn built_index() -> UsiIndex {
    let ws = Dataset::Hum.generate(N, 23);
    UsiBuilder::new().with_k(N / 200).deterministic(5).build(ws)
}

/// Pre-rendered keep-alive HTTP requests, one single-pattern query
/// each, patterns sampled from the indexed text.
fn rendered_requests(index: &UsiIndex) -> Vec<Vec<u8>> {
    let text = index.text();
    let mut rng = StdRng::seed_from_u64(17);
    (0..BODIES)
        .map(|_| {
            let m = rng.gen_range(8..24usize);
            let i = rng.gen_range(0..text.len() - m);
            let pattern: String = text[i..i + m].iter().map(|&b| b as char).collect();
            let body = format!(r#"{{"doc":"bench","patterns":["{pattern}"]}}"#);
            format!(
                "POST /v1/query HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        })
        .collect()
}

/// Opens `n` connections and parks them idle (never written to). The
/// burst outruns the accept loop, so retry transient connect failures
/// instead of failing the bench.
fn open_idle_pool(addr: std::net::SocketAddr, n: usize) -> Vec<TcpStream> {
    let mut pool = Vec::with_capacity(n);
    let mut failures = 0usize;
    while pool.len() < n {
        match TcpStream::connect(addr) {
            Ok(stream) => pool.push(stream),
            Err(e) => {
                failures += 1;
                assert!(failures < 1000, "cannot grow idle pool past {}: {e}", pool.len());
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    pool
}

fn bench_conn_scale(c: &mut Criterion) {
    let catalog = Arc::new(Catalog::new(2));
    catalog.insert("bench", built_index());
    let requests = rendered_requests(catalog.get("bench").unwrap().index().unwrap());

    // long idle timeout so parked connections survive the whole run;
    // two workers serve every tier — the point is that idle
    // connections don't occupy them
    let config = ServerConfig {
        idle_timeout: Duration::from_secs(600),
        max_connections: 100_000,
        ..ServerConfig::with_workers(2)
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = serve(Arc::clone(&catalog), listener, config).unwrap();
    let addr = handle.addr();

    let budget = fd_budget();
    let mut group = c.benchmark_group("conn_scale");
    group.sample_size(30);
    group.throughput(Throughput::Elements(1));

    let mut cursor = 0usize;
    let mut buf = Vec::with_capacity(8192);

    for &(tier, name) in TIERS {
        let n = tier.min(budget);
        if n < tier {
            eprintln!("conn_scale: fd budget {budget} clamps the {tier}-idle tier to {n}");
        }
        let idle = open_idle_pool(addr, n);
        // wait until the server has accepted (and parked) every one
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while handle.open_connections() < n {
            assert!(
                std::time::Instant::now() < deadline,
                "only {} of {n} idle connections accepted",
                handle.open_connections()
            );
            std::thread::sleep(Duration::from_millis(10));
        }

        let mut active = TcpStream::connect(addr).unwrap();
        active.set_nodelay(true).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| {
                active.write_all(&requests[cursor % BODIES]).unwrap();
                assert_eq!(read_response(&mut active, &mut buf).unwrap().status, 200);
                cursor += 1;
            })
        });
        drop(active);
        drop(idle);
        // let the server reap the pool before the next tier doubles up
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while handle.open_connections() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    group.finish();
    handle.shutdown();
}

criterion_group!(benches, bench_conn_scale);
criterion_main!(benches);
