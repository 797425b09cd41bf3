//! The closed-loop throughput phase: each client thread holds one
//! keep-alive connection and sends its next request only after the
//! previous reply, for a fixed wall-clock window.

use crate::client::{Conn, Response};
use crate::workload::Op;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// What one closed-loop window measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct Outcome {
    pub completed: usize,
    pub attempted: usize,
    pub failed: usize,
    pub wrong: usize,
    pub elapsed: Duration,
}

impl Outcome {
    pub fn rps(&self) -> f64 {
        self.completed as f64 / self.elapsed.as_secs_f64()
    }
}

/// One client's request source: `next()` yields the op (for `check`)
/// and its request bytes, or `None` to stop early.
pub trait Source: Send {
    fn next(&mut self) -> Option<(&Op, &[u8])>;
}

/// Runs one thread per source until `window` has passed.
pub fn run<S: Source>(
    addr: SocketAddr,
    sources: &mut [S],
    window: Duration,
    check: &(dyn Fn(&Op, &Response) -> bool + Sync),
) -> io::Result<Outcome> {
    let start = Instant::now();
    let deadline = start + window;
    let per_thread: Vec<io::Result<Outcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .iter_mut()
            .map(|source| {
                scope.spawn(move || -> io::Result<Outcome> {
                    let mut conn = Conn::open(addr)?;
                    let mut out = Outcome::default();
                    while Instant::now() < deadline {
                        let Some((op, request)) = source.next() else { break };
                        out.attempted += 1;
                        match conn.exchange(request) {
                            Ok(r) if r.status == 200 && check(op, &r) => out.completed += 1,
                            Ok(r) => {
                                out.failed += 1;
                                out.wrong += usize::from(r.status == 200);
                            }
                            Err(_) => {
                                out.failed += 1;
                                conn.reconnect()?;
                            }
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut total = Outcome { elapsed: start.elapsed(), ..Outcome::default() };
    for out in per_thread {
        let out = out?;
        total.completed += out.completed;
        total.attempted += out.attempted;
        total.failed += out.failed;
        total.wrong += out.wrong;
    }
    Ok(total)
}
