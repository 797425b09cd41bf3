//! The connection engine: `config.workers` threads share one epoll set,
//! so an idle keep-alive socket costs a file descriptor, not a thread,
//! and readiness and service happen on the same thread.
//!
//! Every worker blocks in `epoll_wait` for **one** event on the shared
//! set. The listener and every idle connection are registered
//! `EPOLLIN|EPOLLRDHUP|EPOLLONESHOT`, so an event goes to exactly one
//! worker and the descriptor stays disarmed until that worker re-arms
//! it. A worker that gets a connection's event takes the connection out
//! of the idle map, serves it ([`crate::http::serve_ready`]: pipelined
//! requests already in the buffer included), then puts it back under a
//! fresh token and re-arms it with `EPOLL_CTL_MOD` — in that order, so
//! the next event always finds it. Any free worker serves any
//! connection: nothing is pinned to the worker that accepted it.
//!
//! The pieces, all std-only in the same locally-declared-FFI style
//! `usi_core::storage` uses for `mmap`:
//!
//! * `ffi` — `epoll_create1`/`epoll_ctl`/`epoll_wait` and `eventfd`
//!   (fds are closed by `OwnedFd`, so no `close` declaration);
//! * `TimerWheel` — coarse hashed-wheel idle timeouts: expiring ten
//!   thousand idle connections costs one wheel tick, not ten thousand
//!   blocked threads. Worker 0 alone sleeps with the wheel's timeout
//!   and evicts;
//! * one **eventfd**, written only by [`crate::ServerHandle::shutdown`]:
//!   it is never drained, so every worker's `epoll_wait` returns and
//!   sees the stop flag;
//! * `max_connections` admission control: a connect past the limit is
//!   answered `503` (uniform JSON error body) and closed before it can
//!   consume a slot.
//!
//! On non-Linux targets a minimal loop replaces the engine: each worker
//! blocks in `accept` on a cloned listener and serves that connection
//! to completion, so there an open connection occupies its worker.

use crate::catalog::Catalog;
use crate::http::{
    close_connection, reject_over_capacity, ConnState, ServerConfig, SOCKET_TIMEOUT,
};
use crate::metrics;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

pub(crate) use imp::{serve, Workers};

/// Admits a freshly accepted connection: `503` past `max_connections`,
/// otherwise socket options set and both open-connection counts bumped.
fn admit(stream: TcpStream, config: &ServerConfig, open: &AtomicUsize) -> Option<ConnState> {
    // answers are single writes; never let Nagle hold one back
    let _ = stream.set_nodelay(true);
    if open.load(Ordering::SeqCst) >= config.max_connections.max(1) {
        reject_over_capacity(stream);
        return None;
    }
    // a read that stalls mid-request is bounded by the idle timeout
    let _ = stream.set_read_timeout(Some(config.idle_timeout.max(Duration::from_millis(1))));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    open.fetch_add(1, Ordering::SeqCst);
    metrics::server().connections_open.inc();
    Some(ConnState::new(stream))
}

/// Closes an admitted connection, keeping both counts right.
fn close(conn: ConnState, open: &AtomicUsize) {
    open.fetch_sub(1, Ordering::SeqCst);
    close_connection(conn);
}

/// Serves one connection's ready requests as a worker, keeping the busy
/// count behind `usi_pool_jobs_in_flight` and `usi_pool_saturation_total`
/// (a worker started serving and no worker was idle). `woke` is when
/// this worker's wait returned: the interval to here is the first
/// request's `queue` stage. Returns whether the connection stays open.
fn serve_as_worker(
    conn: &mut ConnState,
    catalog: &Catalog,
    config: ServerConfig,
    busy: &AtomicUsize,
    woke: std::time::Instant,
) -> bool {
    let m = metrics::server();
    let queue_wait = woke.elapsed();
    m.reactor_dispatch_seconds.observe(queue_wait.as_secs_f64());
    m.pool_queue_wait.observe(queue_wait.as_secs_f64());
    if busy.fetch_add(1, Ordering::SeqCst) + 1 >= config.workers.max(1) {
        m.pool_saturation_total.inc();
    }
    m.pool_in_flight.inc();
    let keep = crate::http::serve_ready(conn, catalog, config, queue_wait);
    m.pool_in_flight.dec();
    busy.fetch_sub(1, Ordering::SeqCst);
    keep
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{admit, close, serve_as_worker};
    use crate::catalog::Catalog;
    use crate::http::{ConnState, ServerConfig, ServerHandle};
    use crate::metrics;
    use std::collections::HashMap;
    use std::fs::File;
    use std::io::{self, Write};
    use std::net::TcpListener;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    mod ffi {
        //! The Linux calls a readiness loop needs, declared locally
        //! because the workspace is std-only (no `libc` crate) — the
        //! same pattern as `usi_core::storage`'s mmap FFI. Constants
        //! match the kernel UAPI headers.

        use std::ffi::{c_int, c_uint};

        pub const EPOLL_CLOEXEC: c_int = 0o2000000;
        pub const EPOLL_CTL_ADD: c_int = 1;
        pub const EPOLL_CTL_MOD: c_int = 3;
        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLRDHUP: u32 = 0x2000;
        pub const EPOLLONESHOT: u32 = 1 << 30;
        pub const EFD_CLOEXEC: c_int = 0o2000000;

        /// Mirror of the kernel's `struct epoll_event`. x86-64 is the
        /// one ABI where the struct is packed (12 bytes); everywhere
        /// else it is naturally aligned (16 bytes).
        #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
        #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            /// User cookie: the engine stores its connection token here.
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
            pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        }
    }

    /// Thin safe wrapper over one epoll instance.
    struct Epoll {
        fd: OwnedFd,
    }

    impl Epoll {
        fn new() -> io::Result<Self> {
            // SAFETY: plain syscall; the kernel validates the flags and
            // reports failure as a negative return.
            let fd = unsafe { ffi::epoll_create1(ffi::EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: `fd` is a freshly created, unowned epoll descriptor.
            Ok(Self { fd: unsafe { OwnedFd::from_raw_fd(fd) } })
        }

        /// `EPOLL_CTL_ADD` or `EPOLL_CTL_MOD` of `fd` for `events`,
        /// reported under `token`.
        fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut event = ffi::EpollEvent { events, data: token };
            // SAFETY: `event` outlives the call; the kernel copies it.
            let rc = unsafe { ffi::epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut event) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Arms `fd` for exactly one readable-or-peer-shutdown event,
        /// delivered to one waiter (`EPOLLERR`/`EPOLLHUP` are always
        /// reported; they need no subscription).
        fn arm(&self, op: i32, fd: RawFd, token: u64) -> io::Result<()> {
            self.ctl(op, fd, ffi::EPOLLIN | ffi::EPOLLRDHUP | ffi::EPOLLONESHOT, token)
        }

        /// Blocks up to `timeout_ms` (-1 = forever) for one event; EINTR
        /// reads as no event, letting the caller loop.
        fn wait_one(&self, timeout_ms: i32) -> io::Result<Option<u64>> {
            let mut event = ffi::EpollEvent { events: 0, data: 0 };
            // SAFETY: `event` is a live, writable buffer of length 1.
            let n = unsafe { ffi::epoll_wait(self.fd.as_raw_fd(), &mut event, 1, timeout_ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(None);
                }
                return Err(err);
            }
            Ok((n == 1).then_some(event.data))
        }
    }

    /// Creates the shutdown eventfd.
    fn new_eventfd() -> io::Result<File> {
        // SAFETY: plain syscall; failure is a negative return.
        let fd = unsafe { ffi::eventfd(0, ffi::EFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is a freshly created, unowned eventfd.
        Ok(File::from(unsafe { OwnedFd::from_raw_fd(fd) }))
    }

    /// A coarse hashed timer wheel for idle-connection deadlines.
    ///
    /// Deadlines land in one of `slots.len()` buckets by tick number
    /// (ceil-rounded, so an entry never fires before its deadline);
    /// advancing the wheel to "now" drains every passed bucket. All
    /// entries share one horizon (the idle timeout), so the wheel never
    /// needs cascading — a token scheduled now always fits within one
    /// revolution. Entries are lazily validated against the idle map on
    /// expiry, so a token whose connection was served (and parked again
    /// under a fresh token) simply misses and is dropped.
    struct TimerWheel {
        slots: Vec<Vec<u64>>,
        granularity: Duration,
        /// The wheel's time origin; tick numbers count from here.
        start: Instant,
        /// Last tick whose bucket has been drained.
        cursor: u64,
        /// Live (scheduled, not yet drained) entries.
        entries: usize,
    }

    impl TimerWheel {
        fn new(horizon: Duration, now: Instant) -> Self {
            // granularity: ~1/16 of the horizon, clamped to sane bounds;
            // eviction precision is one granule late at worst
            let granularity =
                (horizon / 16).clamp(Duration::from_millis(20), Duration::from_secs(1));
            let slots = (horizon.as_nanos() / granularity.as_nanos()) as usize + 2;
            Self { slots: vec![Vec::new(); slots], granularity, start: now, cursor: 0, entries: 0 }
        }

        fn tick_of(&self, t: Instant) -> u64 {
            (t.saturating_duration_since(self.start).as_nanos() / self.granularity.as_nanos())
                as u64
        }

        /// Schedules `token` to fire at the first tick boundary at or
        /// after `deadline` (never early, at most one granule late).
        fn schedule(&mut self, token: u64, deadline: Instant) {
            let tick = (self.tick_of(deadline) + 1).max(self.cursor + 1);
            let slot = (tick % self.slots.len() as u64) as usize;
            self.slots[slot].push(token);
            self.entries += 1;
        }

        /// Advances the wheel to `now`, appending every due token to
        /// `out`.
        fn expire_into(&mut self, now: Instant, out: &mut Vec<u64>) {
            let now_tick = self.tick_of(now);
            while self.cursor < now_tick {
                self.cursor += 1;
                let slot = (self.cursor % self.slots.len() as u64) as usize;
                self.entries -= self.slots[slot].len();
                out.append(&mut self.slots[slot]);
            }
        }

        /// Milliseconds until the next tick boundary, or `None` when no
        /// entry is scheduled.
        fn next_timeout_ms(&self, now: Instant) -> Option<i32> {
            if self.entries == 0 {
                return None;
            }
            let next = self.start
                + Duration::from_nanos(
                    (self.granularity.as_nanos() as u64).saturating_mul(self.cursor + 1),
                );
            let ms = next.saturating_duration_since(now).as_millis() as i32;
            Some(ms.max(1))
        }
    }

    /// An idle connection parked in the epoll set.
    struct Parked {
        conn: ConnState,
        deadline: Instant,
    }

    /// The parked connections and their deadlines, under one lock.
    struct Idle {
        /// Idle connections by token. Tokens are never reused, so a
        /// stale wheel entry or event can only miss, never hit the
        /// wrong socket.
        parked: HashMap<u64, Parked>,
        wheel: TimerWheel,
        next_token: u64,
    }

    const TOKEN_LISTENER: u64 = u64::MAX;
    const TOKEN_WAKE: u64 = u64::MAX - 1;

    /// Everything the workers share.
    struct Engine {
        epoll: Epoll,
        listener: TcpListener,
        wake: File,
        catalog: Arc<Catalog>,
        config: ServerConfig,
        /// Per-server open-connection count (also the `max_connections`
        /// admission test); mirrors the process-global gauge.
        open: Arc<AtomicUsize>,
        stop: AtomicBool,
        /// Workers currently serving a connection.
        busy: AtomicUsize,
        idle: Mutex<Idle>,
    }

    impl Engine {
        /// Locks the idle set. A worker that panicked while holding it
        /// left it valid: a token in only one of map and wheel just
        /// misses or delays one eviction.
        fn idle(&self) -> MutexGuard<'_, Idle> {
            self.idle.lock().unwrap_or_else(PoisonError::into_inner)
        }

        fn run(&self, worker: usize) {
            let m = metrics::server();
            let mut due = Vec::new();
            loop {
                // only worker 0 keeps time; the others block until an
                // event. An empty wheel still ticks, because other
                // workers may park a connection while worker 0 sleeps.
                let timeout = if worker == 0 {
                    let idle = self.idle();
                    let granule = idle.wheel.granularity.as_millis() as i32;
                    idle.wheel.next_timeout_ms(Instant::now()).unwrap_or(granule)
                } else {
                    -1
                };
                let token = match self.epoll.wait_one(timeout) {
                    Ok(token) => token,
                    Err(e) => {
                        // an unusable epoll fd is unrecoverable; leaving
                        // the loop lets shutdown proceed instead of
                        // spinning
                        eprintln!("usi-worker: epoll_wait failed, stopping: {e}");
                        break;
                    }
                };
                let woke = Instant::now();
                m.reactor_wakeups_total.inc();
                if self.stop.load(Ordering::SeqCst) {
                    break;
                }
                match token {
                    Some(TOKEN_LISTENER) => self.accept_ready(),
                    Some(TOKEN_WAKE) => break,
                    Some(token) => self.serve(token, woke),
                    None => {}
                }
                if worker == 0 {
                    self.evict_expired(&mut due);
                }
            }
        }

        /// Accepts until the listener runs dry (it is non-blocking),
        /// then re-arms it.
        fn accept_ready(&self) {
            loop {
                let stream = match self.listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        // EMFILE/ECONNABORTED under flood: brief backoff;
                        // the re-armed listener fires again if
                        // connections are still pending
                        std::thread::sleep(Duration::from_millis(10));
                        break;
                    }
                };
                // accepted sockets inherit nothing from the non-blocking
                // listener: workers read them blocking
                if let Some(conn) = admit(stream, &self.config, &self.open) {
                    self.park(conn, ffi::EPOLL_CTL_ADD);
                }
            }
            if let Err(e) =
                self.epoll.arm(ffi::EPOLL_CTL_MOD, self.listener.as_raw_fd(), TOKEN_LISTENER)
            {
                eprintln!("usi-worker: cannot re-arm the listener: {e}");
            }
        }

        /// Inserts a connection into the idle map under a fresh token
        /// and idle deadline, then arms it — under the lock, so no
        /// event for the token can arrive before the map holds it, and
        /// no eviction can close the descriptor in between.
        fn park(&self, conn: ConnState, op: i32) {
            let fd = conn.stream().as_raw_fd();
            let idle_gauge = &metrics::server().connections_idle;
            idle_gauge.inc();
            let mut idle = self.idle();
            let token = idle.next_token;
            idle.next_token += 1;
            let deadline = Instant::now() + self.config.idle_timeout;
            idle.parked.insert(token, Parked { conn, deadline });
            if let Err(e) = self.epoll.arm(op, fd, token) {
                // registration failure (EMFILE on the epoll side, bad
                // fd): the connection cannot be waited on — drop it
                let parked = idle.parked.remove(&token).expect("inserted above");
                drop(idle);
                idle_gauge.dec();
                eprintln!("usi-worker: cannot register connection: {e}");
                close(parked.conn, &self.open);
                return;
            }
            idle.wheel.schedule(token, deadline);
        }

        /// A parked socket turned readable (or hung up): take it out of
        /// the idle map, serve it on this thread, then park it again or
        /// close it. Error'd/hung-up sockets take the same path — the
        /// read observes the EOF or reset and closes cleanly.
        fn serve(&self, token: u64, woke: Instant) {
            let Some(parked) = self.idle().parked.remove(&token) else {
                return; // evicted since the event fired
            };
            metrics::server().connections_idle.dec();
            let mut conn = parked.conn;
            if serve_as_worker(&mut conn, &self.catalog, self.config, &self.busy, woke) {
                self.park(conn, ffi::EPOLL_CTL_MOD);
            } else {
                close(conn, &self.open);
            }
        }

        /// Closes every parked connection whose idle deadline passed.
        /// The wheel hands tokens back in deadline order, so eviction
        /// order equals expiry order.
        fn evict_expired(&self, due: &mut Vec<u64>) {
            let now = Instant::now();
            let mut expired = Vec::new();
            {
                let mut idle = self.idle();
                idle.wheel.expire_into(now, due);
                for token in due.drain(..) {
                    let Some(parked) = idle.parked.get(&token) else {
                        continue; // served or closed since scheduling
                    };
                    if parked.deadline > now {
                        // only possible via clock coarseness; re-schedule
                        let deadline = parked.deadline;
                        idle.wheel.schedule(token, deadline);
                        continue;
                    }
                    expired.push(idle.parked.remove(&token).expect("checked above").conn);
                }
            }
            // closing drops the descriptor from the epoll set
            for conn in expired {
                metrics::server().connections_idle.dec();
                close(conn, &self.open);
            }
        }
    }

    /// The running workers of one server.
    pub(crate) struct Workers {
        engine: Arc<Engine>,
        threads: Vec<JoinHandle<()>>,
    }

    impl Workers {
        /// Stops every worker: in-flight requests finish, then every
        /// parked connection is closed.
        pub(crate) fn stop(self) {
            let Workers { engine, threads } = self;
            engine.stop.store(true, Ordering::SeqCst);
            // the eventfd stays readable (nobody drains it), so every
            // worker's epoll_wait returns and sees the stop flag
            let _ = (&engine.wake).write_all(&1u64.to_ne_bytes());
            for thread in threads {
                if thread.join().is_err() {
                    eprintln!("usi-worker: a worker thread panicked");
                }
            }
            let parked = std::mem::take(&mut engine.idle().parked);
            for (_, parked) in parked {
                metrics::server().connections_idle.dec();
                close(parked.conn, &engine.open);
            }
            // epoll fd, eventfd and listener close when the last
            // reference drops
        }
    }

    /// Starts `config.workers` worker threads serving `catalog` on
    /// `listener`.
    pub(crate) fn serve(
        catalog: Arc<Catalog>,
        listener: TcpListener,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        let wake = new_eventfd()?;
        epoll.arm(ffi::EPOLL_CTL_ADD, listener.as_raw_fd(), TOKEN_LISTENER)?;
        epoll.ctl(ffi::EPOLL_CTL_ADD, wake.as_raw_fd(), ffi::EPOLLIN, TOKEN_WAKE)?;
        let open = Arc::new(AtomicUsize::new(0));
        let idle_timeout = config.idle_timeout.max(Duration::from_millis(1));
        let engine = Arc::new(Engine {
            epoll,
            listener,
            wake,
            catalog,
            config,
            open: Arc::clone(&open),
            stop: AtomicBool::new(false),
            busy: AtomicUsize::new(0),
            idle: Mutex::new(Idle {
                parked: HashMap::new(),
                wheel: TimerWheel::new(idle_timeout, Instant::now()),
                next_token: 0,
            }),
        });
        let mut workers = Workers { engine, threads: Vec::new() };
        for worker in 0..config.workers.max(1) {
            let engine = Arc::clone(&workers.engine);
            let spawned = std::thread::Builder::new()
                .name(format!("usi-worker-{worker}"))
                .spawn(move || engine.run(worker));
            match spawned {
                Ok(thread) => workers.threads.push(thread),
                Err(e) => {
                    workers.stop();
                    return Err(e);
                }
            }
        }
        Ok(ServerHandle { addr, open, workers: Some(workers) })
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn timer_wheel_fires_in_order_and_never_early() {
            let t0 = Instant::now();
            let mut wheel = TimerWheel::new(Duration::from_millis(320), t0);
            assert_eq!(wheel.next_timeout_ms(t0), None, "empty wheel blocks forever");

            wheel.schedule(1, t0 + Duration::from_millis(100));
            wheel.schedule(2, t0 + Duration::from_millis(300));
            wheel.schedule(3, t0 + Duration::from_millis(100));
            assert!(wheel.next_timeout_ms(t0).is_some());

            let mut due = Vec::new();
            // before the first deadline nothing may fire
            wheel.expire_into(t0 + Duration::from_millis(80), &mut due);
            assert!(due.is_empty(), "{due:?}");
            // one granule past 100ms: tokens 1 and 3, not 2
            wheel.expire_into(t0 + Duration::from_millis(160), &mut due);
            due.sort_unstable();
            assert_eq!(due, [1, 3]);
            due.clear();
            wheel.expire_into(t0 + Duration::from_millis(400), &mut due);
            assert_eq!(due, [2]);
            due.clear();
            assert_eq!(wheel.next_timeout_ms(t0), None, "drained wheel is idle again");
        }

        #[test]
        fn timer_wheel_deadline_past_means_next_tick() {
            // a deadline already in the past still fires on the next
            // tick after "now", never on a tick the cursor passed
            let t0 = Instant::now();
            let mut wheel = TimerWheel::new(Duration::from_millis(320), t0);
            let mut due = Vec::new();
            wheel.expire_into(t0 + Duration::from_millis(200), &mut due);
            assert!(due.is_empty());
            wheel.schedule(7, t0 + Duration::from_millis(100)); // before the cursor
            wheel.expire_into(t0 + Duration::from_millis(500), &mut due);
            assert_eq!(due, [7]);
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::{admit, close, serve_as_worker};
    use crate::catalog::Catalog;
    use crate::http::{ServerConfig, ServerHandle};
    use std::io;
    use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    /// The running workers of one server.
    pub(crate) struct Workers {
        addr: SocketAddr,
        stop: Arc<AtomicBool>,
        threads: Vec<JoinHandle<()>>,
    }

    impl Workers {
        /// Stops every worker: each blocked `accept` is woken by one
        /// throwaway loopback connection; a worker serving a connection
        /// finishes it first.
        pub(crate) fn stop(self) {
            self.stop.store(true, Ordering::SeqCst);
            // a wildcard bind (0.0.0.0 / ::) is not connectable
            // everywhere, so aim at the loopback of the same family
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake.ip() {
                    IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                    IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
                });
            }
            let wakers: Vec<_> = (0..self.threads.len())
                .filter_map(|_| TcpStream::connect_timeout(&wake, Duration::from_secs(1)).ok())
                .collect();
            for thread in self.threads {
                if thread.join().is_err() {
                    eprintln!("usi-worker: a worker thread panicked");
                }
            }
            drop(wakers);
        }
    }

    /// Starts `config.workers` threads, each accepting on a clone of
    /// `listener` and serving one connection at a time.
    pub(crate) fn serve(
        catalog: Arc<Catalog>,
        listener: TcpListener,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let addr = listener.local_addr()?;
        let open = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let busy = Arc::new(AtomicUsize::new(0));
        let mut workers = Workers { addr, stop: Arc::clone(&stop), threads: Vec::new() };
        for worker in 0..config.workers.max(1) {
            let (catalog, open, stop, busy) =
                (Arc::clone(&catalog), Arc::clone(&open), Arc::clone(&stop), Arc::clone(&busy));
            let spawned = listener.try_clone().and_then(|listener| {
                std::thread::Builder::new().name(format!("usi-worker-{worker}")).spawn(move || {
                    loop {
                        let accepted = listener.accept();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok((stream, _)) = accepted else {
                            // EMFILE/ECONNABORTED under flood: back off
                            std::thread::sleep(Duration::from_millis(50));
                            continue;
                        };
                        let Some(mut conn) = admit(stream, &config, &open) else { continue };
                        while serve_as_worker(&mut conn, &catalog, config, &busy, Instant::now()) {}
                        close(conn, &open);
                    }
                })
            });
            match spawned {
                Ok(thread) => workers.threads.push(thread),
                Err(e) => {
                    workers.stop();
                    return Err(e);
                }
            }
        }
        Ok(ServerHandle { addr, open, workers: Some(workers) })
    }
}
