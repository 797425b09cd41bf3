//! The open-loop generator: requests go out at their scheduled due
//! times whatever the server is doing, over a fixed set of keep-alive
//! connections, from one sender thread; one receiver thread multiplexes
//! the replies with epoll. Latency is due → reply, so a stall charges
//! its wait to every request it held back.
//!
//! A query goes out on an idle query connection, or waits in a backlog
//! the receiver drains as connections free up. Appends have their own
//! connection and go strictly one after another, so the server applies
//! them in stream order.

use crate::client::{connect, parse_response, Response, IO_TIMEOUT};
use crate::stats::{due_latency, lateness};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Query connections held open by the generator.
pub const QUERY_CONNECTIONS: usize = 16;
/// How long after the last due time the receiver waits for stragglers.
const DRAIN: Duration = Duration::from_secs(10);

mod ffi {
    //! The epoll and prctl calls the generator needs, declared locally
    //! (std only, no `libc`). Constants match the kernel UAPI headers.
    use std::ffi::c_int;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLLIN: u32 = 0x001;
    pub const PR_SET_TIMERSLACK: c_int = 29;

    /// The kernel's `struct epoll_event`: packed on x86-64 only.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn prctl(option: c_int, ...) -> c_int;
    }
}

/// An epoll instance, closed on drop.
struct Epoll(i32);

impl Epoll {
    fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes no pointers; a negative return is an error.
        let fd = unsafe { ffi::epoll_create1(ffi::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self(fd))
    }

    fn ctl(&self, op: i32, stream: &TcpStream, token: u64) -> io::Result<()> {
        let mut event = ffi::EpollEvent { events: ffi::EPOLLIN, data: token };
        // SAFETY: both fds are open for the duration of the call and
        // `event` is a valid, initialised epoll_event the kernel only reads.
        let rc = unsafe { ffi::epoll_ctl(self.0, op, stream.as_raw_fd(), &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Ready tokens, waiting at most `timeout`.
    fn wait(&self, events: &mut [ffi::EpollEvent], timeout: Duration) -> io::Result<usize> {
        // SAFETY: `events` is a writable buffer of `events.len()` entries.
        let n = unsafe {
            ffi::epoll_wait(
                self.0,
                events.as_mut_ptr(),
                events.len() as i32,
                timeout.as_millis().min(i32::MAX as u128) as i32,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            return if err.kind() == io::ErrorKind::Interrupted { Ok(0) } else { Err(err) };
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: the fd is owned by this value and closed exactly once.
        unsafe { ffi::close(self.0) };
    }
}

/// Asks the kernel to wake this thread's sleeps within 1 µs of their
/// deadline instead of the default 50 µs slack.
fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
    // no memory of ours; failure only leaves the default slack.
    unsafe { ffi::prctl(ffi::PR_SET_TIMERSLACK, 1_000 as std::ffi::c_ulong) };
}

/// The checker's verdict on a 200 response.
pub type Check<'a> = &'a (dyn Fn(usize, &Response) -> bool + Sync);

/// What one open-loop window measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Due-time latency of each successful query, in µs.
    pub query_us: Vec<f64>,
    /// Due-time latency of each successful append, in µs.
    pub append_us: Vec<f64>,
    /// How late the sender got to each request, in µs.
    pub late_us: Vec<f64>,
    /// Send → reply time of each successful query, in µs (what the
    /// latency would read without the coordinated-omission correction).
    pub service_us: Vec<f64>,
    pub attempted: usize,
    /// Non-200 answers, wrong answers, timeouts and resets.
    pub failed: usize,
    /// Wrong answers (a subset of `failed`).
    pub wrong: usize,
}

struct Inflight {
    op: usize,
    due: Instant,
    sent: Instant,
}

struct Slot {
    write: TcpStream,
    inflight: Option<Inflight>,
    /// The socket failed; the receiver reconnects it and puts it back
    /// to work.
    broken: bool,
}

struct Shared {
    slots: Vec<Slot>,
    idle: Vec<usize>,
    backlog: VecDeque<(usize, Instant)>,
    append_backlog: VecDeque<(usize, Instant)>,
    append_busy: bool,
    /// Ops finished one way or another (answered, failed, abandoned).
    resolved: usize,
    outcome: Outcome,
}

/// One request of the schedule.
pub struct Scheduled<'a> {
    pub offset: Duration,
    pub bytes: &'a [u8],
    pub append: bool,
}

/// Index of the append connection (queries use the others).
const APPEND_SLOT: usize = 0;

impl Shared {
    /// Sends `op` on slot `c`; a failed write resolves the op as failed.
    fn send(&mut self, c: usize, op: usize, due: Instant, bytes: &[u8]) {
        match self.slots[c].write.write_all(bytes) {
            Ok(()) => self.slots[c].inflight = Some(Inflight { op, due, sent: Instant::now() }),
            Err(_) => {
                self.outcome.failed += 1;
                self.resolved += 1;
                self.slots[c].broken = true;
            }
        }
    }

    /// Hands a free slot its next waiting op, or parks it.
    fn next_for(&mut self, c: usize, schedule: &[Scheduled]) {
        let queue = if c == APPEND_SLOT { &mut self.append_backlog } else { &mut self.backlog };
        match queue.pop_front() {
            Some((op, due)) => self.send(c, op, due, schedule[op].bytes),
            None if c == APPEND_SLOT => self.append_busy = false,
            None => self.idle.push(c),
        }
    }
}

/// Runs `schedule` (offsets ascending) against `addr` and checks every
/// 200 answer with `check(op index, response)`.
pub fn run(addr: SocketAddr, schedule: &[Scheduled], check: Check) -> io::Result<Outcome> {
    let slots = (0..=QUERY_CONNECTIONS)
        .map(|_| Ok(Slot { write: connect(addr)?, inflight: None, broken: false }))
        .collect::<io::Result<Vec<_>>>()?;
    let mut reads: Vec<TcpStream> =
        slots.iter().map(|s| s.write.try_clone()).collect::<io::Result<_>>()?;
    let epoll = Epoll::new()?;
    for (c, stream) in reads.iter().enumerate() {
        epoll.ctl(ffi::EPOLL_CTL_ADD, stream, c as u64)?;
    }
    let shared = Mutex::new(Shared {
        slots,
        idle: (1..=QUERY_CONNECTIONS).rev().collect(),
        backlog: VecDeque::new(),
        append_backlog: VecDeque::new(),
        append_busy: false,
        resolved: 0,
        outcome: Outcome { attempted: schedule.len(), ..Outcome::default() },
    });
    let abort = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(20);
    let lock = || shared.lock().expect("generator state lock poisoned");

    std::thread::scope(|scope| -> io::Result<()> {
        let sender = scope.spawn(|| {
            tighten_timer_slack();
            let mut late = Vec::with_capacity(schedule.len());
            for (op, req) in schedule.iter().enumerate() {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                let due = start + req.offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                late.push(lateness(due, Instant::now()).as_secs_f64() * 1e6);
                let mut s = lock();
                if req.append {
                    if s.append_busy {
                        s.append_backlog.push_back((op, due));
                    } else {
                        s.append_busy = true;
                        s.send(APPEND_SLOT, op, due, req.bytes);
                    }
                } else if let Some(c) = s.idle.pop() {
                    s.send(c, op, due, req.bytes);
                } else {
                    s.backlog.push_back((op, due));
                }
            }
            late
        });

        let deadline = start + schedule.last().map_or(Duration::ZERO, |r| r.offset) + DRAIN;
        let mut events = [ffi::EpollEvent { events: 0, data: 0 }; 64];
        let mut bufs: Vec<Vec<u8>> = vec![Vec::with_capacity(64 * 1024); reads.len()];
        let mut chunk = vec![0u8; 256 * 1024];
        let reconnect =
            |c: usize, s: &mut Shared, reads: &mut [TcpStream], bufs: &mut [Vec<u8>]| {
                let _ = epoll.ctl(ffi::EPOLL_CTL_DEL, &reads[c], 0);
                bufs[c].clear();
                match connect(addr).and_then(|w| Ok((w.try_clone()?, w))) {
                    Ok((r, w)) if epoll.ctl(ffi::EPOLL_CTL_ADD, &r, c as u64).is_ok() => {
                        reads[c] = r;
                        s.slots[c].write = w;
                        true
                    }
                    _ => false,
                }
            };
        let result = loop {
            if lock().resolved == schedule.len() {
                break Ok(());
            }
            if Instant::now() > deadline {
                // abandon whatever is still queued or in flight
                abort.store(true, Ordering::Relaxed);
                let mut s = lock();
                let pending = schedule.len() - s.resolved;
                s.outcome.failed += pending;
                s.resolved = schedule.len();
                break Ok(());
            }
            let ready = match epoll.wait(&mut events, Duration::from_millis(20)) {
                Ok(n) => n,
                Err(e) => break Err(e),
            };
            let mut closed: Vec<usize> = Vec::new();
            for event in &events[..ready] {
                let c = event.data as usize;
                let mut answers: Vec<Response> = Vec::new();
                match reads[c].read(&mut chunk) {
                    Ok(0) | Err(_) => closed.push(c),
                    Ok(n) => {
                        bufs[c].extend_from_slice(&chunk[..n]);
                        loop {
                            match parse_response(&bufs[c]) {
                                Ok(Some((response, used))) => {
                                    bufs[c].drain(..used);
                                    answers.push(response);
                                }
                                Ok(None) => break,
                                Err(_) => {
                                    closed.push(c);
                                    break;
                                }
                            }
                        }
                    }
                }
                for response in answers {
                    let done = Instant::now();
                    let Some(inflight) = lock().slots[c].inflight.take() else { continue };
                    // checked without the lock, so the sender never waits
                    // on answer parsing
                    let ok = response.status == 200 && check(inflight.op, &response);
                    let us = due_latency(inflight.due, done).as_secs_f64() * 1e6;
                    let mut s = lock();
                    s.resolved += 1;
                    if !ok {
                        s.outcome.failed += 1;
                        s.outcome.wrong += usize::from(response.status == 200);
                    } else if schedule[inflight.op].append {
                        s.outcome.append_us.push(us);
                    } else {
                        s.outcome.query_us.push(us);
                        s.outcome
                            .service_us
                            .push(due_latency(inflight.sent, done).as_secs_f64() * 1e6);
                    }
                    if response.close && !reconnect(c, &mut s, &mut reads, &mut bufs) {
                        s.slots[c].broken = true;
                        continue;
                    }
                    s.next_for(c, schedule);
                }
            }
            // resets, EOFs and requests stuck past the I/O timeout fail
            // their op; the slot gets a fresh connection
            let now = Instant::now();
            let mut s = lock();
            for c in 0..reads.len() {
                let stuck = s.slots[c]
                    .inflight
                    .as_ref()
                    .is_some_and(|f| now.saturating_duration_since(f.due) > IO_TIMEOUT);
                if !(stuck || s.slots[c].broken || closed.contains(&c)) {
                    continue;
                }
                // a slot with work outstanding is in neither the idle
                // list nor the append hand-off: it resumes after reconnecting
                let busy = s.slots[c].broken || s.slots[c].inflight.is_some();
                if s.slots[c].inflight.take().is_some() {
                    s.outcome.failed += 1;
                    s.resolved += 1;
                }
                s.slots[c].broken = true;
                if reconnect(c, &mut s, &mut reads, &mut bufs) {
                    s.slots[c].broken = false;
                    if busy {
                        s.next_for(c, schedule);
                    }
                }
            }
        };
        let late = sender.join().expect("sender thread panicked");
        lock().outcome.late_us = late;
        result
    })?;
    Ok(shared.into_inner().expect("generator state lock poisoned").outcome)
}
