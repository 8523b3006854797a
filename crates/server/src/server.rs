//! The request loop: accept connections on TCP and Unix-domain
//! listeners, serve framed requests from a fixed worker pool, and land
//! changes through a background processor thread.
//!
//! ## Threading model
//!
//! No async runtime (the build is fully vendored, so no tokio): the
//! server runs `workers` connection threads — defaulting to one per
//! core with a floor of two — plus one acceptor thread per listener
//! and one processor thread that drives
//! [`DurableSubmitQueue::process_next`]. A connection occupies one
//! worker for its lifetime; concurrency is bounded by the pool size,
//! which is the point — the paper's queue is the throughput governor,
//! not the socket layer.
//!
//! Nothing waits by spinning. The processor, the verdict subscribers
//! and the idle connection workers each sleep on a condvar whose
//! condition is written under its mutex by whoever changes it (an
//! enqueue bumps the `work` generation, a verdict the `verdicts` one),
//! so no wake-up is lost and `poll_interval` is only a fallback; the
//! acceptors are the one polling loop, and they sleep after *every*
//! failed `accept`, `WouldBlock` or not.
//!
//! ## Backpressure
//!
//! Bounded at three layers, each with an explicit refusal instead of
//! unbounded buffering:
//!
//! * **accept**: at most `max_pending_conns` connections may wait for a
//!   free worker; beyond that the acceptor writes one `Busy` frame and
//!   closes the socket.
//! * **per connection**: one in-flight request at a time — pipelined
//!   frames wait in the reader buffer and are answered in order, so
//!   frame boundaries and reply order are preserved exactly.
//! * **enqueue admission**: when the speculation queue holds
//!   `max_queue_depth` acked-but-unlanded changes, `Enqueue` gets a
//!   `Busy` reply (carrying the observed depth) rather than journaling
//!   more work the builders are behind on.
//!
//! ## Ack durability
//!
//! `Enqueue` is answered only after [`DurableSubmitQueue::submit`]
//! returns — the journal append (and quorum ship, when replicated) has
//! completed before the ack byte is written to the socket. A client
//! that reads an `Enqueued { ticket }` can crash, reconnect after a
//! server restart, and find the ticket again.
//!
//! ## Graceful drain
//!
//! [`Server::shutdown`] stops the acceptors, lets every in-flight
//! request finish, answers outstanding verdict subscriptions with
//! `Error { code: Draining }`, stops the processor after its current
//! build, and joins all threads. Acked-but-unprocessed enqueues stay
//! in the journal and resume on the next open — zero acked work is
//! lost across a drain/restart cycle (the `bench_server --smoke` gate).

use crate::protocol::{
    status_of, write_frame, ErrorCode, FramePoll, FrameReadError, FrameReader, Request, Response,
    WireTicketState, MAX_FRAME_BYTES,
};
use sq_core::durable::DurableSubmitQueue;
use sq_core::service::StepAction;
use sq_core::TicketId;
use sq_obs::MetricsRegistry;
use sq_store::Wal;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Where the server listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:0` (0 = ephemeral port).
    Tcp(String),
    /// A Unix-domain socket path (unlinked before bind and on drain).
    Uds(PathBuf),
}

/// Tunables for the request loop.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connection worker threads. Defaults to one per core with a
    /// floor of two so a single-core host still overlaps a slow
    /// subscriber with an active submitter.
    pub workers: usize,
    /// Enqueue admission bound: above this many acked-but-unlanded
    /// changes, `Enqueue` answers `Busy`.
    pub max_queue_depth: usize,
    /// Accepted connections allowed to wait for a free worker before
    /// the acceptor answers `Busy` and closes.
    pub max_pending_conns: usize,
    /// Per-frame payload cap (both directions).
    pub max_frame_bytes: u32,
    /// Read-timeout granularity for shutdown polling.
    pub poll_interval: Duration,
    /// Run the processor thread that drives
    /// [`DurableSubmitQueue::process_next`]. `false` serves a queue
    /// something else drives (maintenance mode, admission-control
    /// tests): enqueues are acked and journaled but nothing lands.
    pub drive_queue: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        ServerConfig {
            workers: cores.max(2),
            max_queue_depth: 256,
            max_pending_conns: 64,
            max_frame_bytes: MAX_FRAME_BYTES,
            poll_interval: Duration::from_millis(20),
            drive_queue: true,
        }
    }
}

/// One accepted connection, either transport.
enum Conn {
    Tcp(TcpStream),
    Uds(UnixStream),
}

impl Conn {
    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(t),
            Conn::Uds(s) => s.set_read_timeout(t),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Uds(s) => s.flush(),
        }
    }
}

struct Shared<W: Wal> {
    queue: DurableSubmitQueue<W>,
    action: Box<StepAction>,
    cfg: ServerConfig,
    shutdown: AtomicBool,
    /// Set when the processor hit a store error; enqueues then refuse.
    store_failed: AtomicBool,
    pending: Mutex<VecDeque<Conn>>,
    pending_cv: Condvar,
    /// Bumped by the processor after every landed/rejected ticket;
    /// verdict subscribers wait on it instead of busy-polling.
    verdicts: Mutex<u64>,
    verdicts_cv: Condvar,
    /// Bumped, under the lock, by every acked enqueue. The processor
    /// reads it before `process_next` and, finding the queue empty,
    /// waits only while it is unchanged — so an enqueue that lands
    /// between the two is never slept through.
    work: Mutex<u64>,
    work_cv: Condvar,
    metrics: Mutex<MetricsRegistry>,
    /// Top-level directories ever exported as `server.shard.*` gauges —
    /// a shard whose queue empties must re-export as zero, not linger
    /// at its last depth.
    shard_dirs: Mutex<std::collections::BTreeSet<String>>,
}

impl<W: Wal> Shared<W> {
    fn new(queue: DurableSubmitQueue<W>, action: Box<StepAction>, cfg: ServerConfig) -> Self {
        Shared {
            queue,
            action,
            cfg,
            shutdown: AtomicBool::new(false),
            store_failed: AtomicBool::new(false),
            pending: Mutex::new(VecDeque::new()),
            pending_cv: Condvar::new(),
            verdicts: Mutex::new(0),
            verdicts_cv: Condvar::new(),
            work: Mutex::new(0),
            work_cv: Condvar::new(),
            shard_dirs: Mutex::new(Default::default()),
            metrics: Mutex::new(MetricsRegistry::new()),
        }
    }

    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A running server. Dropping without [`Server::shutdown`] aborts the
/// threads less gracefully (they still exit on the shutdown flag set
/// by `Drop`), so prefer an explicit shutdown.
pub struct Server<W: Wal + Send + 'static> {
    shared: Arc<Shared<W>>,
    threads: Vec<JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    uds_path: Option<PathBuf>,
}

impl<W: Wal + Send + 'static> Server<W> {
    /// Bind every endpoint, spawn the thread pool, and serve.
    ///
    /// `action` is the build-step oracle handed to
    /// [`DurableSubmitQueue::process_next`] — tests pass a stub, a real
    /// deployment passes the executor bridge.
    pub fn start(
        queue: DurableSubmitQueue<W>,
        action: Box<StepAction>,
        cfg: ServerConfig,
        endpoints: &[Endpoint],
    ) -> io::Result<Server<W>> {
        let shared = Arc::new(Shared::new(queue, action, cfg.clone()));
        let mut threads = Vec::new();
        let mut tcp_addr = None;
        let mut uds_path = None;
        for ep in endpoints {
            match ep {
                Endpoint::Tcp(addr) => {
                    let listener = TcpListener::bind(addr)?;
                    listener.set_nonblocking(true)?;
                    tcp_addr = Some(listener.local_addr()?);
                    let s = Arc::clone(&shared);
                    threads.push(thread::spawn(move || {
                        accept_loop(&s, || listener.accept().map(|(c, _)| Conn::Tcp(c)))
                    }));
                }
                Endpoint::Uds(path) => {
                    let _ = std::fs::remove_file(path);
                    let listener = UnixListener::bind(path)?;
                    listener.set_nonblocking(true)?;
                    uds_path = Some(path.clone());
                    let s = Arc::clone(&shared);
                    threads.push(thread::spawn(move || {
                        accept_loop(&s, || listener.accept().map(|(c, _)| Conn::Uds(c)))
                    }));
                }
            }
        }
        for _ in 0..cfg.workers.max(1) {
            let s = Arc::clone(&shared);
            threads.push(thread::spawn(move || worker_loop(&s)));
        }
        if cfg.drive_queue {
            let s = Arc::clone(&shared);
            threads.push(thread::spawn(move || processor_loop(&s)));
        }
        Ok(Server {
            shared,
            threads,
            tcp_addr,
            uds_path,
        })
    }

    /// The bound TCP address, when a TCP endpoint was requested.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound Unix-socket path, when a UDS endpoint was requested.
    pub fn uds_path(&self) -> Option<&Path> {
        self.uds_path.as_deref()
    }

    /// Graceful drain: stop accepting, finish in-flight requests,
    /// answer open subscriptions with `Draining`, stop the processor
    /// after its current build, join every thread, and hand back the
    /// queue (still open — acked work stays journaled) plus the final
    /// metrics registry.
    pub fn shutdown(self) -> (DurableSubmitQueue<W>, MetricsRegistry) {
        let shared = Arc::clone(&self.shared);
        // Drop performs the actual drain: sets the flag, wakes every
        // condvar, joins all threads, unlinks the UDS path.
        drop(self);
        match Arc::try_unwrap(shared) {
            Ok(s) => (s.queue, s.metrics.into_inner().unwrap()),
            Err(_) => unreachable!("all server threads joined, no Arc clones remain"),
        }
    }
}

impl<W: Wal + Send + 'static> Drop for Server<W> {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Each waiter reads the flag under its lock: taking that lock
        // before notifying means none can miss both flag and notify.
        drop(self.shared.pending.lock());
        self.shared.pending_cv.notify_all();
        drop(self.shared.work.lock());
        self.shared.work_cv.notify_all();
        drop(self.shared.verdicts.lock());
        self.shared.verdicts_cv.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Some(path) = &self.uds_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Accept on one non-blocking listener until drain. Any failed
/// `accept` backs off before the next: `WouldBlock` is the idle case,
/// and anything else (`EMFILE`, say) may persist, so it is counted and
/// must not spin either.
fn accept_loop<W: Wal>(shared: &Shared<W>, accept: impl Fn() -> io::Result<Conn>) {
    loop {
        match accept() {
            Ok(conn) => admit(shared, conn),
            Err(e) => {
                if shared.draining() {
                    return;
                }
                if e.kind() != io::ErrorKind::WouldBlock {
                    shared.metrics.lock().unwrap().inc("server.accept_errors");
                }
                thread::sleep(shared.cfg.poll_interval.min(Duration::from_millis(5)));
            }
        }
    }
}

/// Hand an accepted connection to the worker pool, or refuse it with
/// one `Busy` frame when the pending queue is at its bound.
fn admit<W: Wal>(shared: &Shared<W>, conn: Conn) {
    // The listener is non-blocking and accepted sockets inherit that
    // on some platforms; workers want blocking reads with a timeout.
    let _ = match &conn {
        Conn::Tcp(s) => s.set_nonblocking(false),
        Conn::Uds(s) => s.set_nonblocking(false),
    };
    if shared.draining() {
        refuse(conn, ErrorCode::Draining, "server is draining");
        return;
    }
    let mut pending = shared.pending.lock().unwrap();
    if pending.len() >= shared.cfg.max_pending_conns {
        drop(pending);
        shared.metrics.lock().unwrap().inc("server.conns.refused");
        let mut conn = conn;
        let _ = write_frame(
            &mut conn,
            &Response::Busy {
                queue_depth: shared.queue.queue_depth() as u64,
            }
            .encode(),
        );
        return;
    }
    pending.push_back(conn);
    drop(pending);
    shared.metrics.lock().unwrap().inc("server.conns.accepted");
    shared.pending_cv.notify_one();
}

fn refuse(mut conn: Conn, code: ErrorCode, detail: &str) {
    let _ = write_frame(
        &mut conn,
        &Response::Error {
            code,
            detail: detail.to_string(),
        }
        .encode(),
    );
}

fn worker_loop<W: Wal>(shared: &Shared<W>) {
    loop {
        let conn = {
            let mut pending = shared.pending.lock().unwrap();
            loop {
                if let Some(c) = pending.pop_front() {
                    break Some(c);
                }
                if shared.draining() {
                    break None;
                }
                let (guard, _) = shared
                    .pending_cv
                    .wait_timeout(pending, shared.cfg.poll_interval)
                    .unwrap();
                pending = guard;
            }
        };
        match conn {
            Some(c) => serve_conn(shared, c),
            None => return,
        }
    }
}

/// Serve one connection to completion: frames are answered strictly in
/// arrival order, one in flight at a time.
fn serve_conn<W: Wal>(shared: &Shared<W>, mut conn: Conn) {
    let _ = conn.set_read_timeout(Some(shared.cfg.poll_interval));
    let mut reader = FrameReader::new(shared.cfg.max_frame_bytes);
    loop {
        match reader.poll(&mut conn) {
            Ok(FramePoll::Frame(payload)) => {
                let reply = match Request::decode(&payload) {
                    Ok(req) => handle(shared, req),
                    Err(e) => {
                        // Refused whole; the stream is no longer
                        // trustworthy, so answer and hang up.
                        shared.metrics.lock().unwrap().inc("server.frames.refused");
                        let _ = write_frame(
                            &mut conn,
                            &Response::Error {
                                code: ErrorCode::Malformed,
                                detail: e.to_string(),
                            }
                            .encode(),
                        );
                        return;
                    }
                };
                if write_frame(&mut conn, &reply.encode()).is_err() {
                    return;
                }
                let _ = conn.flush();
            }
            Ok(FramePoll::Idle) => {
                // Between frames (or mid-frame on a slow peer): drain
                // closes idle connections; in-flight requests already
                // finished above.
                if shared.draining() && reader.buffered() == 0 {
                    return;
                }
            }
            Ok(FramePoll::Eof) => return,
            Err(FrameReadError::Frame(e)) => {
                shared.metrics.lock().unwrap().inc("server.frames.refused");
                let code = match e {
                    crate::protocol::FrameError::TooLarge { .. } => ErrorCode::TooLarge,
                    crate::protocol::FrameError::Corrupt { .. } => ErrorCode::Malformed,
                };
                let _ = write_frame(
                    &mut conn,
                    &Response::Error {
                        code,
                        detail: e.to_string(),
                    }
                    .encode(),
                );
                return;
            }
            Err(FrameReadError::Io(_)) => return,
        }
    }
}

fn handle<W: Wal>(shared: &Shared<W>, req: Request) -> Response {
    match req {
        Request::Enqueue {
            author,
            description,
            base,
            patch,
        } => {
            shared
                .metrics
                .lock()
                .unwrap()
                .inc("server.requests.enqueue");
            if shared.draining() {
                return Response::Error {
                    code: ErrorCode::Draining,
                    detail: "server is draining".into(),
                };
            }
            if shared.store_failed.load(Ordering::SeqCst) {
                return Response::Error {
                    code: ErrorCode::Store,
                    detail: "durable store previously failed; restart required".into(),
                };
            }
            let depth = shared.queue.queue_depth();
            if depth >= shared.cfg.max_queue_depth {
                shared.metrics.lock().unwrap().inc("server.busy_replies");
                return Response::Busy {
                    queue_depth: depth as u64,
                };
            }
            match shared.queue.submit(author, description, base, patch) {
                Ok(ticket) => {
                    // The journal append (and quorum ship) is durable;
                    // only now does the ack go to the wire.
                    shared.metrics.lock().unwrap().inc("server.enqueues.acked");
                    *shared.work.lock().unwrap() += 1;
                    shared.work_cv.notify_one();
                    crate::protocol::enqueued(ticket)
                }
                Err(e) => Response::Error {
                    code: ErrorCode::for_store_error(&e),
                    detail: e.to_string(),
                },
            }
        }
        Request::Status { ticket } => {
            shared.metrics.lock().unwrap().inc("server.requests.status");
            status_of(shared.queue.status(TicketId(ticket)))
        }
        Request::SubscribeVerdict { ticket, timeout_ms } => {
            shared
                .metrics
                .lock()
                .unwrap()
                .inc("server.requests.subscribe");
            subscribe(shared, ticket, timeout_ms)
        }
        Request::Stats => {
            shared.metrics.lock().unwrap().inc("server.requests.stats");
            // Refresh the store/replication sections from the live
            // queue. These exporters reconcile cumulative totals
            // (idempotent), so periodic Stats calls do not inflate the
            // counters — the regression the double-counting fix covers.
            let mut m = shared.metrics.lock().unwrap();
            shared.queue.record_into(&mut m);
            m.set_gauge("server.queue_depth", shared.queue.queue_depth() as f64);
            // Per-shard depths (queued submissions grouped by patch
            // top-level directory): purely additive JSON keys, and a
            // shard that drained re-exports as zero rather than
            // lingering at its last depth.
            let by_dir = shared.queue.queue_depth_by_dir();
            let mut dirs = shared.shard_dirs.lock().unwrap();
            for known in dirs.iter() {
                m.set_gauge(&format!("server.shard.{known}.queue_depth"), 0.0);
            }
            for (dir, depth) in by_dir {
                m.set_gauge(&format!("server.shard.{dir}.queue_depth"), depth as f64);
                dirs.insert(dir);
            }
            drop(dirs);
            Response::StatsJson { json: m.to_json() }
        }
        Request::Head => {
            shared.metrics.lock().unwrap().inc("server.requests.head");
            Response::HeadIs {
                commit: shared.queue.head(),
            }
        }
    }
}

/// Long-poll a ticket until terminal, timeout, drain, or the processor
/// stopping on a store failure.
fn subscribe<W: Wal>(shared: &Shared<W>, ticket: u64, timeout_ms: u32) -> Response {
    let deadline = if timeout_ms == 0 {
        None
    } else {
        Some(Instant::now() + Duration::from_millis(u64::from(timeout_ms)))
    };
    let mut gen = shared.verdicts.lock().unwrap();
    loop {
        match shared.queue.status(TicketId(ticket)) {
            None => {
                return Response::StatusIs { state: None };
            }
            Some(state) => {
                let wire = WireTicketState::from(state);
                if wire.is_terminal() {
                    return Response::Verdict {
                        ticket,
                        state: wire,
                    };
                }
            }
        }
        if shared.draining() {
            return Response::Error {
                code: ErrorCode::Draining,
                detail: "server draining before verdict".into(),
            };
        }
        if shared.store_failed.load(Ordering::SeqCst) {
            return Response::Error {
                code: ErrorCode::Store,
                detail: "durable store failed before verdict; restart required".into(),
            };
        }
        if let Some(d) = deadline {
            if Instant::now() >= d {
                return Response::VerdictTimeout { ticket };
            }
        }
        let (guard, _) = shared
            .verdicts_cv
            .wait_timeout(gen, shared.cfg.poll_interval)
            .unwrap();
        gen = guard;
    }
}

/// Drive the queue: process acked changes in order, waking verdict
/// subscribers after each one. Exits on drain (current build finishes
/// first) or on a store failure (flagged so enqueues refuse).
fn processor_loop<W: Wal>(shared: &Shared<W>) {
    loop {
        if shared.draining() {
            return;
        }
        let seen = *shared.work.lock().unwrap();
        match shared.queue.process_next(&shared.action) {
            Ok(Some(_)) => {
                let mut gen = shared.verdicts.lock().unwrap();
                *gen += 1;
                drop(gen);
                shared.verdicts_cv.notify_all();
                shared
                    .metrics
                    .lock()
                    .unwrap()
                    .inc("server.tickets.processed");
            }
            Ok(None) => {
                let work = shared.work.lock().unwrap();
                let _ = shared
                    .work_cv
                    .wait_timeout_while(work, shared.cfg.poll_interval, |work| {
                        *work == seen && !shared.draining()
                    })
                    .unwrap();
            }
            Err(e) => {
                shared.store_failed.store(true, Ordering::SeqCst);
                shared
                    .metrics
                    .lock()
                    .unwrap()
                    .set_gauge("server.store_failed", 1.0);
                // Subscribers would otherwise wait forever on a dead
                // processor.
                shared.verdicts_cv.notify_all();
                let _ = e;
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sq_core::RecoveryConfig;
    use sq_exec::StepOutcome;
    use sq_store::{DurableStoreConfig, MemStorage};
    use sq_vcs::Repository;

    /// `accept` failing with something other than `WouldBlock` for as
    /// long as it is called (a process out of descriptors): the acceptor
    /// sleeps between attempts like the idle case, and counts each one.
    #[test]
    fn a_persistent_accept_error_backs_off_and_is_counted() {
        let repo = Repository::init([("lib/BUILD", "library(name = \"lib\", srcs = [])")]).unwrap();
        let queue = DurableSubmitQueue::open(
            repo,
            1,
            RecoveryConfig::disabled(),
            Arc::new(Mutex::new(MemStorage::new())),
            DurableStoreConfig::with_snapshot_every(u64::MAX),
        )
        .unwrap();
        let shared = Shared::new(
            queue,
            Box::new(|_, _| StepOutcome::Success),
            ServerConfig::default(),
        );
        const EMFILE: i32 = 24;
        let started = Instant::now();
        thread::scope(|scope| {
            scope.spawn(|| accept_loop(&shared, || Err(io::Error::from_raw_os_error(EMFILE))));
            thread::sleep(Duration::from_millis(60));
            shared.shutdown.store(true, Ordering::SeqCst);
        });
        let errors = shared
            .metrics
            .lock()
            .unwrap()
            .counter("server.accept_errors");
        let at_most = started.elapsed().as_millis() as u64 / 5 + 1;
        assert!(
            (1..=at_most).contains(&errors),
            "{errors} accept attempts, at most {at_most} fit a 5 ms back-off"
        );
    }
}
