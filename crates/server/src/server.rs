//! The request loop: accept connections on TCP and Unix-domain
//! listeners, serve each admitted connection on a thread of its own,
//! and land changes through a background processor thread.
//!
//! ## Threading model
//!
//! No async runtime (the build is fully vendored, so no tokio): the
//! server runs one acceptor thread per listener, one processor thread
//! that drives [`DurableSubmitQueue::process_next`], and one thread per
//! admitted connection, spawned by its acceptor in a `thread::scope`
//! that joins it. A connection that sends nothing holds only its own
//! thread, so it cannot keep another from being answered; at most
//! `MAX_CONNS` are open at once. The paper's queue, not the socket
//! layer, is the throughput governor.
//!
//! No thread wakes on a timer. The processor and the verdict
//! subscribers each sleep on a condvar whose condition is written
//! under its mutex by whoever changes it (an enqueue bumps the `work`
//! generation, a verdict the `verdicts` one), so no wake-up is lost.
//! Acceptors block in `accept` and connections in `read`: drain shuts
//! down each listener, which wakes its `accept` with `EINVAL` (Linux),
//! and then the read half of every admitted connection. Only a failing
//! `accept` backs off, by 5 ms, and a blocked write times out.
//!
//! ## Backpressure
//!
//! Bounded at three layers, each with an explicit refusal instead of
//! unbounded buffering:
//!
//! * **accept**: at most `MAX_CONNS` connections are open at once;
//!   beyond that (or when no thread or descriptor is left for one) the
//!   acceptor writes one `Busy` frame and closes the socket.
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
//! request finish, answers the frames each connection had already sent
//! (a half-sent one is a torn tail and does not hold the drain),
//! answers outstanding verdict subscriptions with
//! `Error { code: Draining }`, stops the processor after its current
//! build, and joins all threads. Acked-but-unprocessed enqueues stay
//! in the journal and resume on the next open — zero acked work is
//! lost across a drain/restart cycle (`tests/server_loop.rs` holds it,
//! with the drain before the processor starts and in mid-queue).

use crate::protocol::{
    write_frame, ErrorCode, FramePoll, FrameReadError, FrameReader, Request, Response,
    MAX_FRAME_BYTES,
};
use sq_core::durable::DurableSubmitQueue;
use sq_core::service::StepAction;
use sq_core::TicketId;
use sq_obs::MetricsRegistry;
use sq_store::Wal;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::OwnedFd;
use std::os::unix::fs::{FileTypeExt, MetadataExt};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle, Scope};
use std::time::{Duration, Instant};

/// Where the server listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:0` (0 = ephemeral port).
    Tcp(String),
    /// A Unix-domain socket path (unlinked before bind if it names a
    /// socket file, any other file fails the bind; and unlinked on drain
    /// while it still names the socket this server bound).
    Uds(PathBuf),
}

/// Tunables for the request loop.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Enqueue admission bound: above this many acked-but-unlanded
    /// changes, `Enqueue` answers `Busy`.
    pub max_queue_depth: usize,
    /// Run the processor thread that drives
    /// [`DurableSubmitQueue::process_next`]. `false` serves a queue
    /// something else drives (maintenance mode, admission-control
    /// tests): enqueues are acked and journaled but nothing lands.
    pub drive_queue: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_queue_depth: 256,
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
    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            Conn::Uds(s) => s.try_clone().map(Conn::Uds),
        }
    }

    /// Wake a worker blocked reading this connection: bytes that have
    /// already arrived are still read, then EOF.
    fn shutdown_read(&self) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Read),
            Conn::Uds(s) => s.shutdown(Shutdown::Read),
        };
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

/// A bound listener's accept call; its thread starts only once every
/// endpoint is bound.
type Acceptor = Box<dyn Fn() -> io::Result<Conn> + Send>;

/// Open connections. `admit` reads the drain flag under this lock and
/// drain shuts the registered clones down under it, so every
/// connection is either refused as draining or shut down by drain.
#[derive(Default)]
struct Conns {
    /// A clone of every connection not yet served to its end, by
    /// admission number: drain shuts down their read halves.
    open: HashMap<u64, Conn>,
    admitted: u64,
}

struct Shared<W: Wal> {
    queue: DurableSubmitQueue<W>,
    action: Box<StepAction>,
    cfg: ServerConfig,
    shutdown: AtomicBool,
    /// Set when the processor hit a store error; enqueues then refuse.
    store_failed: AtomicBool,
    conns: Mutex<Conns>,
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
            conns: Mutex::default(),
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

/// The device and inode of the file at `path`, not following a symlink.
fn file_id(path: &Path) -> Option<(u64, u64)> {
    std::fs::symlink_metadata(path)
        .ok()
        .map(|m| (m.dev(), m.ino()))
}

/// Unlink a socket file this server bound (`id` as recorded after its
/// `bind`), but not one a later server bound at the same path after
/// unlinking ours. A server that rebinds the path between the check
/// and the unlink still loses it: that window remains.
fn unlink_own(path: &Path, id: Option<(u64, u64)>) {
    if file_id(path) == id {
        let _ = std::fs::remove_file(path);
    }
}

/// A running server. Dropping without [`Server::shutdown`] aborts the
/// threads less gracefully (they still exit on the shutdown flag set
/// by `Drop`), so prefer an explicit shutdown.
pub struct Server<W: Wal + Send + 'static> {
    shared: Arc<Shared<W>>,
    /// Each acceptor joins the connections it admitted before it ends.
    acceptors: Vec<JoinHandle<()>>,
    /// A descriptor of each listener: drain shuts the listener down
    /// through it, which wakes a blocked `accept`.
    listeners: Vec<OwnedFd>,
    processor: Option<JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    /// Every bound UDS path, with the socket file's device and inode.
    uds_paths: Vec<(PathBuf, Option<(u64, u64)>)>,
}

impl<W: Wal + Send + 'static> Server<W> {
    /// Bind every endpoint, spawn the acceptors and the processor, and
    /// serve.
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
        // Bind every endpoint before anything is spawned: a bind that
        // fails then leaves no acceptor running and no socket file behind.
        let mut accepts: Vec<Acceptor> = Vec::new();
        let mut listeners = Vec::new();
        let mut tcp_addr = None;
        let mut uds_paths = Vec::new();
        let bound = endpoints.iter().try_for_each(|ep| -> io::Result<()> {
            match ep {
                Endpoint::Tcp(addr) => {
                    let listener = TcpListener::bind(addr)?;
                    tcp_addr = Some(listener.local_addr()?);
                    listeners.push(listener.try_clone()?.into());
                    accepts.push(Box::new(move || {
                        listener.accept().map(|(c, _)| Conn::Tcp(c))
                    }));
                }
                Endpoint::Uds(path) => {
                    // Replace a stale socket file, and nothing else.
                    if std::fs::symlink_metadata(path).is_ok_and(|m| m.file_type().is_socket()) {
                        let _ = std::fs::remove_file(path);
                    }
                    let listener = UnixListener::bind(path)?;
                    uds_paths.push((path.clone(), file_id(path)));
                    listeners.push(listener.try_clone()?.into());
                    accepts.push(Box::new(move || {
                        listener.accept().map(|(c, _)| Conn::Uds(c))
                    }));
                }
            }
            Ok(())
        });
        if let Err(e) = bound {
            for (path, id) in &uds_paths {
                unlink_own(path, *id);
            }
            return Err(e);
        }
        let shared = Arc::new(Shared::new(queue, action, cfg));
        let acceptors = accepts
            .into_iter()
            .map(|accept| {
                let s = Arc::clone(&shared);
                thread::spawn(move || accept_loop(&s, accept))
            })
            .collect();
        let processor = shared.cfg.drive_queue.then(|| {
            let s = Arc::clone(&shared);
            thread::spawn(move || processor_loop(&s))
        });
        Ok(Server {
            shared,
            acceptors,
            listeners,
            processor,
            tcp_addr,
            uds_paths,
        })
    }

    /// The bound TCP address, when a TCP endpoint was requested.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The last bound Unix-socket path, when a UDS endpoint was
    /// requested.
    pub fn uds_path(&self) -> Option<&Path> {
        self.uds_paths.last().map(|(path, _)| path.as_path())
    }

    /// Graceful drain: stop accepting, finish in-flight requests,
    /// answer open subscriptions with `Draining`, stop the processor
    /// after its current build, join every thread, and hand back the
    /// queue (still open — acked work stays journaled) plus the final
    /// metrics registry.
    pub fn shutdown(self) -> (DurableSubmitQueue<W>, MetricsRegistry) {
        let shared = Arc::clone(&self.shared);
        // Drop performs the actual drain: sets the flag, wakes every
        // acceptor, connection and condvar, joins all threads, unlinks
        // the UDS paths.
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
        // On Linux, shutting a listener down makes its `accept` fail
        // at once (`EINVAL`), even when its path was unlinked or now
        // names another server's socket. `shutdown(2)` is one call for
        // any socket; `UnixStream` is only the safe handle exposing it.
        for listener in self.listeners.drain(..) {
            let _ = UnixStream::from(listener).shutdown(Shutdown::Read);
        }
        // `admit` reads the flag under this lock: a connection it
        // registered before this pass is shut down here, and one it
        // sees after is refused. Each condvar waiter reads the flag
        // under its lock: taking that lock before notifying means none
        // can miss both flag and notify.
        let conns = self.shared.conns.lock();
        for conn in conns.unwrap_or_else(PoisonError::into_inner).open.values() {
            conn.shutdown_read();
        }
        drop(self.shared.work.lock());
        self.shared.work_cv.notify_all();
        drop(self.shared.verdicts.lock());
        self.shared.verdicts_cv.notify_all();
        for acceptor in self.acceptors.drain(..) {
            let _ = acceptor.join();
        }
        for (path, id) in &self.uds_paths {
            unlink_own(path, *id);
        }
        if let Some(processor) = self.processor.take() {
            let _ = processor.join();
        }
    }
}

/// How long an acceptor waits after a failed `accept`.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Accept on one blocking listener until drain shuts it down, then
/// join every connection admitted here. A failed `accept` (`EMFILE`,
/// say) may persist, so it is counted and backs off before the next.
fn accept_loop<W: Wal + Send>(shared: &Shared<W>, accept: impl Fn() -> io::Result<Conn>) {
    thread::scope(|scope| {
        while !shared.draining() {
            match accept() {
                Ok(conn) => admit(shared, scope, conn),
                Err(_) if shared.draining() => {}
                Err(_) => {
                    shared.metrics.lock().unwrap().inc("server.accept_errors");
                    thread::sleep(ACCEPT_BACKOFF);
                }
            }
        }
    });
}

/// Connections open at once; the acceptor answers one more `Busy` and
/// closes it.
const MAX_CONNS: usize = 64;

/// How long one write may block before its connection ends: a peer that
/// never reads its replies holds a slot, and the drain, no longer.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Serve an accepted connection on a thread of its own in `scope`, or
/// refuse it with one frame: `Draining` once drain has begun, `Busy`
/// when `MAX_CONNS` are open or no thread or descriptor is left for it.
fn admit<'scope, W: Wal + Send>(
    shared: &'scope Shared<W>,
    scope: &'scope Scope<'scope, '_>,
    conn: Conn,
) {
    // Set here: set at drain, it would not wake a write already blocked.
    let _ = match &conn {
        Conn::Tcp(s) => s.set_write_timeout(Some(WRITE_TIMEOUT)),
        Conn::Uds(s) => s.set_write_timeout(Some(WRITE_TIMEOUT)),
    };
    let clone = conn.try_clone();
    let mut conns = shared.conns.lock().unwrap();
    if shared.draining() {
        drop(conns);
        return refuse(conn, error(ErrorCode::Draining, "server is draining"));
    }
    let (Ok(clone), true) = (clone, conns.open.len() < MAX_CONNS) else {
        drop(conns);
        return busy(shared, conn);
    };
    let id = conns.admitted;
    let serve = move || {
        serve_conn(shared, conn);
        // The clone holds the socket open: the peer sees EOF only once
        // it is gone too.
        shared.conns.lock().unwrap().open.remove(&id);
    };
    // Spawned under the lock, so the thread cannot remove its clone
    // before it is registered. A failed spawn dropped `conn`; its
    // clone answers.
    if thread::Builder::new().spawn_scoped(scope, serve).is_err() {
        drop(conns);
        return busy(shared, clone);
    }
    conns.admitted += 1;
    conns.open.insert(id, clone);
    drop(conns);
    shared.metrics.lock().unwrap().inc("server.conns.accepted");
}

/// Count a refused connection and answer it `Busy`.
fn busy<W: Wal>(shared: &Shared<W>, conn: Conn) {
    shared.metrics.lock().unwrap().inc("server.conns.refused");
    let queue_depth = shared.queue.queue_depth() as u64;
    refuse(conn, Response::Busy { queue_depth });
}

/// Answer with one last frame and close.
fn refuse(mut conn: Conn, reply: Response) {
    let _ = write_frame(&mut conn, &reply.encode());
}

/// An `Error` reply.
fn error(code: ErrorCode, detail: impl ToString) -> Response {
    Response::Error {
        code,
        detail: detail.to_string(),
    }
}

/// Serve one connection to completion: frames are answered strictly in
/// arrival order, one in flight at a time.
fn serve_conn<W: Wal>(shared: &Shared<W>, mut conn: Conn) {
    let mut reader = FrameReader::new(MAX_FRAME_BYTES);
    loop {
        match reader.poll(&mut conn) {
            Ok(FramePoll::Frame(payload)) => {
                let reply = match Request::decode(&payload) {
                    Ok(req) => handle(shared, req),
                    Err(e) => {
                        // Refused whole; the stream is no longer
                        // trustworthy, so answer and hang up.
                        shared.metrics.lock().unwrap().inc("server.frames.refused");
                        return refuse(conn, error(ErrorCode::Malformed, e));
                    }
                };
                if write_frame(&mut conn, &reply.encode()).is_err() {
                    return;
                }
                let _ = conn.flush();
            }
            Ok(FramePoll::Eof) => return,
            Err(FrameReadError::Frame(e)) => {
                shared.metrics.lock().unwrap().inc("server.frames.refused");
                let code = match e {
                    crate::protocol::FrameError::TooLarge { .. } => ErrorCode::TooLarge,
                    crate::protocol::FrameError::Corrupt { .. } => ErrorCode::Malformed,
                };
                return refuse(conn, error(code, e));
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
                return error(ErrorCode::Draining, "server is draining");
            }
            if shared.store_failed.load(Ordering::SeqCst) {
                return error(
                    ErrorCode::Store,
                    "durable store previously failed; restart required",
                );
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
                Err(e) => error(ErrorCode::for_store_error(&e), e),
            }
        }
        Request::Status { ticket } => {
            shared.metrics.lock().unwrap().inc("server.requests.status");
            Response::StatusIs {
                state: shared.queue.status(TicketId(ticket)),
            }
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
            Some(state) if state.is_terminal() => {
                return Response::Verdict { ticket, state };
            }
            Some(_) => {}
        }
        if shared.draining() {
            return error(ErrorCode::Draining, "server draining before verdict");
        }
        if shared.store_failed.load(Ordering::SeqCst) {
            return error(
                ErrorCode::Store,
                "durable store failed before verdict; restart required",
            );
        }
        if let Some(d) = deadline {
            if Instant::now() >= d {
                return Response::VerdictTimeout { ticket };
            }
        }
        gen = match deadline {
            None => shared.verdicts_cv.wait(gen).unwrap(),
            Some(d) => {
                let left = d.saturating_duration_since(Instant::now());
                shared.verdicts_cv.wait_timeout(gen, left).unwrap().0
            }
        };
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
                drop(
                    shared
                        .work_cv
                        .wait_while(work, |work| *work == seen && !shared.draining())
                        .unwrap(),
                );
            }
            Err(_) => {
                // Written under `verdicts`, where subscribers read it:
                // they would otherwise wait forever on a dead processor.
                let verdicts = shared.verdicts.lock().unwrap();
                shared.store_failed.store(true, Ordering::SeqCst);
                drop(verdicts);
                shared.verdicts_cv.notify_all();
                shared
                    .metrics
                    .lock()
                    .unwrap()
                    .set_gauge("server.store_failed", 1.0);
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
    use sq_store::{DurableStore, DurableStoreConfig, MemStorage};
    use sq_vcs::Repository;

    /// Server state over an in-memory journal, with no thread running.
    fn idle_shared() -> Shared<DurableStore<Arc<Mutex<MemStorage>>>> {
        let repo = Repository::init([("lib/BUILD", "library(name = \"lib\", srcs = [])")]).unwrap();
        let queue = DurableSubmitQueue::open(
            repo,
            1,
            RecoveryConfig::disabled(),
            Arc::new(Mutex::new(MemStorage::new())),
            DurableStoreConfig {
                snapshot_every: u64::MAX,
            },
        )
        .unwrap();
        Shared::new(
            queue,
            Box::new(|_, _| StepOutcome::Success),
            ServerConfig::default(),
        )
    }

    /// `accept` failing for as long as it is called (a process out of
    /// descriptors): the acceptor sleeps between attempts, and counts
    /// each one.
    #[test]
    fn a_persistent_accept_error_backs_off_and_is_counted() {
        let shared = idle_shared();
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

    /// With `MAX_CONNS` connections open, the next one is answered with
    /// one `Busy` frame, counted, and closed; it gets no thread.
    #[test]
    fn the_connection_past_the_bound_gets_busy() {
        let shared = idle_shared();
        {
            let mut conns = shared.conns.lock().unwrap();
            for id in 0..MAX_CONNS as u64 {
                let (open, _peer) = UnixStream::pair().unwrap();
                conns.open.insert(id, Conn::Uds(open));
            }
        }
        let (conn, mut peer) = UnixStream::pair().unwrap();
        thread::scope(|scope| admit(&shared, scope, Conn::Uds(conn)));
        match FrameReader::new(MAX_FRAME_BYTES).poll(&mut peer) {
            Ok(FramePoll::Frame(payload)) => assert!(matches!(
                Response::decode(&payload),
                Ok(Response::Busy { .. })
            )),
            other => panic!("expected one Busy frame, got {other:?}"),
        }
        let metrics = shared.metrics.lock().unwrap();
        assert_eq!(metrics.counter("server.conns.refused"), 1);
        assert_eq!(metrics.counter("server.conns.accepted"), 0);
        assert_eq!(shared.conns.lock().unwrap().open.len(), MAX_CONNS);
    }
}
