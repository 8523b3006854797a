//! End-to-end tests of the request loop over real loopback sockets:
//! journal-before-ack enqueues, long-poll verdicts, admission-control
//! `Busy` replies, refused-whole malformed frames, idempotent `Stats`
//! exports, and the graceful-drain/restart zero-loss guarantee.

use sq_core::durable::DurableSubmitQueue;
use sq_core::service::StepAction;
use sq_core::{RecoveryConfig, TicketState};
use sq_exec::StepOutcome;
use sq_server::protocol::encode_frame;
use sq_server::{Client, Endpoint, ErrorCode, Request, Response, Server, ServerConfig};
use sq_store::{DurableStore, DurableStoreConfig, MemStorage};
use sq_vcs::{Patch, RepoPath, Repository};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

type Shared = Arc<Mutex<MemStorage>>;
type Queue = DurableSubmitQueue<DurableStore<Shared>>;

fn shared() -> Shared {
    Arc::new(Mutex::new(MemStorage::new()))
}

fn demo_repo() -> Repository {
    Repository::init([
        ("lib/BUILD", "library(name = \"lib\", srcs = [\"l.rs\"])"),
        ("lib/l.rs", "pub fn l() {}"),
    ])
    .unwrap()
}

fn lib_patch(v: u32) -> Patch {
    Patch::write(
        RepoPath::new("lib/l.rs").unwrap(),
        format!("pub fn l() {{ /* v{v} */ }}"),
    )
}

/// `n` one-file library packages: `disjoint_patch(v)` edits package
/// `v`'s source, so same-base submissions don't conflict (every acked
/// enqueue can land) and each build has a step.
fn packages_repo(n: u32) -> Repository {
    let files: Vec<(String, String)> = (0..n)
        .flat_map(|v| {
            [
                (
                    format!("pkg{v}/BUILD"),
                    format!("library(name = \"pkg{v}\", srcs = [\"lib.rs\"])"),
                ),
                (format!("pkg{v}/lib.rs"), format!("pub fn f{v}() {{}}")),
            ]
        })
        .collect();
    Repository::init(files.iter().map(|(p, c)| (p.as_str(), c.as_str()))).unwrap()
}

fn disjoint_patch(v: u32) -> Patch {
    Patch::write(
        RepoPath::new(format!("pkg{v}/lib.rs")).unwrap(),
        format!("pub fn f{v}() {{ /* acked */ }}"),
    )
}

fn open_queue(repo: Repository, storage: &Shared) -> Queue {
    DurableSubmitQueue::open(
        repo,
        2,
        RecoveryConfig::disabled(),
        storage.clone(),
        DurableStoreConfig {
            snapshot_every: u64::MAX,
        },
    )
    .unwrap()
}

fn always_pass() -> Box<StepAction> {
    Box::new(|_step, _tree| StepOutcome::Success)
}

fn head_of(client: &mut Client) -> sq_vcs::CommitId {
    match client.call(&Request::Head).unwrap() {
        Response::HeadIs { commit } => commit,
        other => panic!("expected HeadIs, got {other:?}"),
    }
}

fn enqueue(client: &mut Client, author: &str, v: u32) -> u64 {
    let base = head_of(client);
    match client
        .call(&Request::Enqueue {
            author: author.into(),
            description: format!("v{v}"),
            base,
            patch: lib_patch(v),
        })
        .unwrap()
    {
        Response::Enqueued { ticket } => ticket,
        other => panic!("expected Enqueued, got {other:?}"),
    }
}

#[test]
fn enqueue_subscribe_status_over_tcp() {
    let storage = shared();
    let server = Server::start(
        open_queue(demo_repo(), &storage),
        always_pass(),
        ServerConfig::default(),
        &[Endpoint::Tcp("127.0.0.1:0".into())],
    )
    .unwrap();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();

    let head_before = head_of(&mut client);
    let ticket = enqueue(&mut client, "alice", 1);
    match client
        .call(&Request::SubscribeVerdict {
            ticket,
            timeout_ms: 10_000,
        })
        .unwrap()
    {
        Response::Verdict { state, .. } => assert!(matches!(state, TicketState::Landed(_))),
        other => panic!("expected Verdict, got {other:?}"),
    }
    match client.call(&Request::Status { ticket }).unwrap() {
        Response::StatusIs { state: Some(s) } => assert!(s.is_terminal()),
        other => panic!("expected terminal StatusIs, got {other:?}"),
    }
    assert_ne!(head_of(&mut client), head_before, "landing advanced HEAD");

    // Unknown tickets answer None, not an error.
    match client.call(&Request::Status { ticket: 999 }).unwrap() {
        Response::StatusIs { state: None } => {}
        other => panic!("expected unknown StatusIs, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn enqueue_lands_over_unix_socket() {
    let storage = shared();
    let path = std::env::temp_dir().join(format!("sq-server-test-{}.sock", std::process::id()));
    let server = Server::start(
        open_queue(demo_repo(), &storage),
        always_pass(),
        ServerConfig::default(),
        &[Endpoint::Uds(path.clone())],
    )
    .unwrap();
    let mut client = Client::connect_uds(server.uds_path().unwrap()).unwrap();
    let ticket = enqueue(&mut client, "bob", 2);
    match client
        .call(&Request::SubscribeVerdict {
            ticket,
            timeout_ms: 10_000,
        })
        .unwrap()
    {
        Response::Verdict { state, .. } => assert!(matches!(state, TicketState::Landed(_))),
        other => panic!("expected Verdict, got {other:?}"),
    }
    server.shutdown();
    assert!(!path.exists(), "drain unlinks the socket path");
}

#[test]
fn admission_control_answers_busy_at_the_queue_bound() {
    // No processor: the queue only fills, modelling builders that are
    // far behind the submit rate.
    let storage = shared();
    let server = Server::start(
        open_queue(demo_repo(), &storage),
        always_pass(),
        ServerConfig {
            max_queue_depth: 2,
            drive_queue: false,
        },
        &[Endpoint::Tcp("127.0.0.1:0".into())],
    )
    .unwrap();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
    let base = head_of(&mut client);
    let mut acked = 0;
    let mut busy = 0;
    for v in 0..4 {
        match client
            .call(&Request::Enqueue {
                author: "carol".into(),
                description: format!("v{v}"),
                base,
                patch: lib_patch(v),
            })
            .unwrap()
        {
            Response::Enqueued { .. } => acked += 1,
            Response::Busy { queue_depth } => {
                busy += 1;
                assert!(queue_depth >= 2);
            }
            other => panic!("expected Enqueued or Busy, got {other:?}"),
        }
    }
    assert_eq!(acked, 2, "exactly the window is admitted");
    assert_eq!(busy, 2, "the rest get explicit Busy replies");
    let (queue, metrics) = server.shutdown();
    assert_eq!(queue.queue_depth(), 2);
    assert_eq!(metrics.counter("server.busy_replies"), 2);
    assert_eq!(metrics.counter("server.enqueues.acked"), 2);
}

#[test]
fn malformed_frames_are_refused_whole_and_close_the_connection() {
    let storage = shared();
    let server = Server::start(
        open_queue(demo_repo(), &storage),
        always_pass(),
        ServerConfig::default(),
        &[Endpoint::Tcp("127.0.0.1:0".into())],
    )
    .unwrap();

    // Valid framing, garbage payload: Error { Malformed }, then EOF.
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
    client.send_raw(&encode_frame(&[0xEE, 1, 2, 3])).unwrap();
    match client.recv().unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Error, got {other:?}"),
    }
    assert!(client.recv().is_err(), "server hangs up after refusal");

    // Corrupt CRC: refused whole at the framing layer.
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
    let mut frame = encode_frame(&Request::Stats.encode());
    let last = frame.len() - 1;
    frame[last] ^= 0x40;
    client.send_raw(&frame).unwrap();
    match client.recv().unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Error, got {other:?}"),
    }

    // A fresh connection still works: refusal poisoned one connection,
    // not the server.
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
    let ticket = enqueue(&mut client, "dave", 3);
    match client
        .call(&Request::SubscribeVerdict {
            ticket,
            timeout_ms: 10_000,
        })
        .unwrap()
    {
        Response::Verdict { state, .. } => assert!(matches!(state, TicketState::Landed(_))),
        other => panic!("expected Verdict, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn stats_export_is_idempotent_over_the_wire() {
    let storage = shared();
    let server = Server::start(
        open_queue(demo_repo(), &storage),
        always_pass(),
        ServerConfig::default(),
        &[Endpoint::Tcp("127.0.0.1:0".into())],
    )
    .unwrap();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
    let ticket = enqueue(&mut client, "erin", 4);
    client
        .call(&Request::SubscribeVerdict {
            ticket,
            timeout_ms: 10_000,
        })
        .unwrap();

    let stats = |client: &mut Client| -> String {
        match client.call(&Request::Stats).unwrap() {
            Response::StatsJson { json } => json,
            other => panic!("expected StatsJson, got {other:?}"),
        }
    };
    // Two sequential Stats exports with no intervening queue work:
    // the store.* counters must be identical (the double-counting
    // regression), while the server's own request counters advance.
    let a = stats(&mut client);
    let b = stats(&mut client);
    let counter = |json: &str, name: &str| -> String {
        let key = format!("\"{name}\":");
        let at = json
            .find(&key)
            .unwrap_or_else(|| panic!("{name} in {json}"));
        json[at + key.len()..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect()
    };
    assert_eq!(
        counter(&a, "store.journal.appends"),
        counter(&b, "store.journal.appends"),
        "periodic Stats must not double-count journal appends"
    );
    assert!(a.contains("server.requests.enqueue"));
    assert!(a.contains("server.enqueues.acked"));
    server.shutdown();
}

#[test]
fn graceful_drain_loses_no_acked_enqueues_across_restart() {
    // First pass: no processor and one round trip per enqueue, so every
    // ack is still queued at drain time, the worst case for durability.
    // Second pass: the enqueues are pipelined (every send before any
    // recv) while the processor runs, and the drain comes mid-queue:
    // builds park until a subscriber has been told the drain began.
    for pipelined in [false, true] {
        let n: u32 = if pipelined { 8 } else { 3 };
        let storage = shared();
        let parked = Arc::new(AtomicBool::new(pipelined));
        let action: Box<StepAction> = {
            let parked = Arc::clone(&parked);
            Box::new(move |_step, _tree| {
                // The bound only limits a failure: nobody released us.
                let start = Instant::now();
                while parked.load(Ordering::SeqCst) && start.elapsed() < Duration::from_secs(10) {
                    thread::sleep(Duration::from_millis(1));
                }
                StepOutcome::Success
            })
        };
        let server = Server::start(
            open_queue(packages_repo(n), &storage),
            action,
            ServerConfig {
                drive_queue: pipelined,
                ..ServerConfig::default()
            },
            &[Endpoint::Tcp("127.0.0.1:0".into())],
        )
        .unwrap();
        let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
        let base = head_of(&mut client);
        let request = |v| Request::Enqueue {
            author: "frank".into(),
            description: format!("v{v}"),
            base,
            patch: disjoint_patch(v),
        };
        let acked = |reply| match reply {
            Response::Enqueued { ticket } => ticket,
            other => panic!("expected Enqueued, got {other:?}"),
        };
        let tickets: Vec<u64> = if pipelined {
            for v in 0..n {
                client.send(&request(v)).unwrap();
            }
            (0..n).map(|_| acked(client.recv().unwrap())).collect()
        } else {
            (0..n)
                .map(|v| acked(client.call(&request(v)).unwrap()))
                .collect()
        };
        // Any reply to a subscription on the last ticket (it cannot land
        // while the builds are parked) means the drain has begun.
        let watcher = pipelined.then(|| {
            let mut watcher = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
            // A round trip first: a worker serves this connection
            // before the drain begins.
            head_of(&mut watcher);
            let ticket = *tickets.last().unwrap();
            let subscribe = Request::SubscribeVerdict {
                ticket,
                timeout_ms: 10_000,
            };
            watcher.send(&subscribe).unwrap();
            let parked = Arc::clone(&parked);
            thread::spawn(move || {
                let _ = watcher.recv();
                parked.store(false, Ordering::SeqCst);
            })
        });
        let (queue, _) = server.shutdown();
        if let Some(watcher) = watcher {
            watcher.join().unwrap();
            // Mid-queue: the parked build let at most the first land.
            for &t in &tickets[1..] {
                assert_eq!(
                    queue.status(sq_core::TicketId(t)),
                    Some(TicketState::Queued),
                    "acked ticket {t} is queued at the drain"
                );
            }
        }
        let drained = queue.state();
        let repo_after = queue.repository();
        drop(queue);

        // "Restart": recover from the same storage, serve again.
        let recovered = open_queue(repo_after, &storage);
        assert_eq!(
            recovered.state(),
            drained,
            "recovery is identical to the drained state"
        );
        let server = Server::start(
            recovered,
            always_pass(),
            ServerConfig::default(),
            &[Endpoint::Tcp("127.0.0.1:0".into())],
        )
        .unwrap();
        let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
        for &t in &tickets {
            match client
                .call(&Request::SubscribeVerdict {
                    ticket: t,
                    timeout_ms: 10_000,
                })
                .unwrap()
            {
                Response::Verdict { state, .. } => assert!(
                    matches!(state, TicketState::Landed(_)),
                    "acked ticket {t} must land after restart"
                ),
                other => panic!("expected Verdict, got {other:?}"),
            }
        }
        let (queue, _) = server.shutdown();
        assert_eq!(queue.queue_depth(), 0);
        for &t in &tickets {
            assert!(matches!(
                queue.status(sq_core::TicketId(t)),
                Some(TicketState::Landed(_))
            ));
        }
        let landed = queue.stats().landed;
        assert_eq!(landed, u64::from(n), "pipelined: {pipelined}");
        let repo = queue.repository();
        let commits = repo.log(repo.head()).unwrap().len() as u64;
        assert_eq!(commits, landed + 1, "one commit per landing, plus the root");
    }
}

#[test]
fn subscribe_honours_its_timeout_when_nothing_lands() {
    let storage = shared();
    let server = Server::start(
        open_queue(demo_repo(), &storage),
        always_pass(),
        ServerConfig {
            drive_queue: false,
            ..ServerConfig::default()
        },
        &[Endpoint::Tcp("127.0.0.1:0".into())],
    )
    .unwrap();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
    let base = head_of(&mut client);
    let ticket = match client
        .call(&Request::Enqueue {
            author: "gina".into(),
            description: "v0".into(),
            base,
            patch: lib_patch(0),
        })
        .unwrap()
    {
        Response::Enqueued { ticket } => ticket,
        other => panic!("expected Enqueued, got {other:?}"),
    };
    match client
        .call(&Request::SubscribeVerdict {
            ticket,
            timeout_ms: 50,
        })
        .unwrap()
    {
        Response::VerdictTimeout { ticket: t } => assert_eq!(t, ticket),
        other => panic!("expected VerdictTimeout, got {other:?}"),
    }
    server.shutdown();
}

/// The processor stops on a store failure; a subscriber with no
/// deadline must be told, not left polling a ticket nobody will judge.
#[test]
fn subscribers_learn_of_a_store_failure() {
    use sq_store::{CrashKind, CrashPlan};
    // Mutating ops on a fresh store: 0 = journal magic, 1 = Enqueue,
    // 2 = SpeculationStarted — the processor's first append dies.
    let storage: Shared = Arc::new(Mutex::new(MemStorage::with_crashes(CrashPlan::at_op(
        2,
        CrashKind::Torn,
    ))));
    let server = Server::start(
        open_queue(demo_repo(), &storage),
        always_pass(),
        ServerConfig::default(),
        &[Endpoint::Tcp("127.0.0.1:0".into())],
    )
    .unwrap();
    let addr = server.tcp_addr().unwrap();
    let mut client = Client::connect_tcp(addr).unwrap();
    let ticket = enqueue(&mut client, "hana", 1);
    let (answered, answer) = std::sync::mpsc::channel();
    let subscriber = std::thread::spawn(move || {
        let reply = client.call(&Request::SubscribeVerdict {
            ticket,
            timeout_ms: 0,
        });
        let _ = answered.send(reply);
    });
    // The wait only bounds the failure: without the check the
    // subscriber polls until the drain below answers it.
    let got = answer.recv_timeout(Duration::from_secs(10));
    let mut client = Client::connect_tcp(addr).unwrap();
    let base = head_of(&mut client);
    let later = client
        .call(&Request::Enqueue {
            author: "hana".into(),
            description: "after the failure".into(),
            base,
            patch: lib_patch(2),
        })
        .unwrap();
    let (queue, _) = server.shutdown();
    subscriber.join().unwrap();
    match got.expect("subscriber still polling a dead processor") {
        Ok(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Store),
        other => panic!("expected Error{{Store}}, got {other:?}"),
    }
    match later {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Store),
        other => panic!("expected Error{{Store}}, got {other:?}"),
    }
    // Nothing was judged: the ticket is still queued for the restart.
    assert_eq!(
        queue.status(sq_core::TicketId(ticket)),
        Some(TicketState::Queued)
    );
}

/// The idle processor waits with no time-out, so the only thing that
/// can wake it is the enqueue itself. Three hundred enqueue → verdict
/// round trips, one after the other, each finding the processor idle:
/// had a single enqueue slipped between the processor's "queue is
/// empty" and its wait, that trip would never end. The drain at the
/// end is held to the same standard.
#[test]
fn an_enqueue_always_wakes_the_idle_processor() {
    let storage = shared();
    let server = Server::start(
        open_queue(demo_repo(), &storage),
        always_pass(),
        ServerConfig::default(),
        &[Endpoint::Tcp("127.0.0.1:0".into())],
    )
    .unwrap();
    let started = std::time::Instant::now();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
    for v in 0..300 {
        let ticket = enqueue(&mut client, "ines", v);
        match client
            .call(&Request::SubscribeVerdict {
                ticket,
                timeout_ms: 0,
            })
            .unwrap()
        {
            Response::Verdict { state, .. } => {
                assert!(matches!(state, TicketState::Landed(_)))
            }
            other => panic!("expected Verdict, got {other:?}"),
        }
    }
    drop(client);
    let (queue, _) = server.shutdown();
    assert_eq!(queue.queue_depth(), 0);
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "300 round trips and a drain took {:?}: something waited for more than a peer",
        started.elapsed()
    );
}

/// Connections that send nothing do not stop the server answering
/// another: each holds only its own thread. There are as many silent
/// ones as the host has cores, and at least two.
#[test]
fn silent_clients_do_not_starve_a_third() {
    let storage = shared();
    let server = Server::start(
        open_queue(demo_repo(), &storage),
        always_pass(),
        ServerConfig::default(),
        &[Endpoint::Tcp("127.0.0.1:0".into())],
    )
    .unwrap();
    let addr = server.tcp_addr().unwrap();
    let silent = thread::available_parallelism().map_or(2, |n| n.get().max(2));
    let silent: Vec<Client> = (0..silent)
        .map(|_| Client::connect_tcp(addr).unwrap())
        .collect();
    let (answered, answer) = std::sync::mpsc::channel();
    thread::spawn(move || {
        let mut client = Client::connect_tcp(addr).unwrap();
        let _ = answered.send(client.call(&Request::Head));
    });
    match answer.recv_timeout(Duration::from_secs(5)) {
        Ok(Ok(Response::HeadIs { .. })) => {}
        other => panic!(
            "{} silent connections: expected HeadIs within 5 s, got {other:?}",
            silent.len()
        ),
    }
    drop(silent);
    drains_within_10s(server, "silent connections");
}

/// A failed bind leaves nothing running: the TCP endpoint binds, the
/// Unix socket under a missing directory does not, and `start` hands
/// back the error with no acceptor left holding the queue (and through
/// it the journal's storage).
#[test]
fn a_failed_bind_leaves_no_acceptor_holding_the_queue() {
    let storage = shared();
    let missing = std::env::temp_dir()
        .join(format!("sq-server-missing-{}", std::process::id()))
        .join("sq.sock");
    let started = Server::start(
        open_queue(demo_repo(), &storage),
        always_pass(),
        ServerConfig::default(),
        &[Endpoint::Tcp("127.0.0.1:0".into()), Endpoint::Uds(missing)],
    );
    assert!(started.is_err());
    assert_eq!(Arc::strong_count(&storage), 1);
}

/// A UDS endpoint replaces only a socket file: a regular file at its
/// path makes `start` fail and is left as it was.
#[test]
fn a_uds_path_naming_a_regular_file_is_refused_not_deleted() {
    let storage = shared();
    let path = std::env::temp_dir().join(format!("sq-server-precious-{}.txt", std::process::id()));
    std::fs::write(&path, "data").unwrap();
    let started = Server::start(
        open_queue(demo_repo(), &storage),
        always_pass(),
        ServerConfig::default(),
        &[Endpoint::Uds(path.clone())],
    );
    let kept = std::fs::read_to_string(&path);
    let _ = std::fs::remove_file(&path);
    assert!(started.is_err(), "bind over a regular file must fail");
    assert_eq!(kept.ok().as_deref(), Some("data"), "the file was deleted");
    assert_eq!(Arc::strong_count(&storage), 1);
}

/// A peer that sends part of a frame and then stops, on either
/// transport: drain ends its connection anyway (the part is a torn
/// tail), so `shutdown` returns. The tail goes out in one write with a
/// whole `Head` frame, so the `Head` reply shows the server has read it.
#[test]
fn a_half_sent_frame_does_not_hold_the_drain() {
    let path = std::env::temp_dir().join(format!("sq-server-half-{}.sock", std::process::id()));
    for endpoint in [
        Endpoint::Tcp("127.0.0.1:0".into()),
        Endpoint::Uds(path.clone()),
    ] {
        let storage = shared();
        let server = Server::start(
            open_queue(demo_repo(), &storage),
            always_pass(),
            ServerConfig::default(),
            std::slice::from_ref(&endpoint),
        )
        .unwrap();
        let mut client = match &endpoint {
            Endpoint::Tcp(_) => Client::connect_tcp(server.tcp_addr().unwrap()),
            Endpoint::Uds(path) => Client::connect_uds(path),
        }
        .unwrap();
        let mut bytes = encode_frame(&Request::Head.encode());
        bytes.extend_from_slice(&encode_frame(&Request::Stats.encode())[..3]);
        client.send_raw(&bytes).unwrap();
        assert!(matches!(client.recv().unwrap(), Response::HeadIs { .. }));
        drains_within_10s(server, &format!("a half-sent frame on {endpoint:?}"));
    }
}

/// A peer that pipelines `Stats` requests and never reads a reply:
/// once the socket buffers fill, the connection's thread blocks writing
/// a reply, and drain must end the connection anyway. The peer sends
/// until a send has blocked for 200 ms, so drain starts with the server
/// blocked; one reply can block twice, so `shutdown` may take about
/// twice the write time-out.
#[test]
fn a_peer_that_never_reads_does_not_hold_the_drain() {
    let storage = shared();
    let server = Server::start(
        open_queue(demo_repo(), &storage),
        always_pass(),
        ServerConfig::default(),
        &[Endpoint::Tcp("127.0.0.1:0".into())],
    )
    .unwrap();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
    let sent = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&sent);
    let peer = thread::spawn(move || {
        while client.send(&Request::Stats).is_ok() {
            counter.fetch_add(1, Ordering::SeqCst);
        }
    });
    let mut last = u64::MAX;
    for _ in 0..50 {
        thread::sleep(Duration::from_millis(200));
        let now = sent.load(Ordering::SeqCst);
        if now == last {
            break;
        }
        last = now;
    }
    drains_within_10s(server, "a peer that never reads");
    peer.join()
        .expect("the peer's sends end with its connection");
}

/// Run `shutdown` on its own thread and fail, not hang, if it has not
/// returned within 10 s.
fn drains_within_10s(server: Server<DurableStore<Shared>>, held_by: &str) {
    let (drained, done) = std::sync::mpsc::channel();
    let drain = thread::spawn(move || {
        server.shutdown();
        let _ = drained.send(());
    });
    if let Err(RecvTimeoutError::Timeout) = done.recv_timeout(Duration::from_secs(10)) {
        panic!("{held_by} held the drain for 10 s");
    }
    drain.join().expect("shutdown panicked");
}

/// Drain wakes an acceptor through its listener, not its path: a
/// socket file unlinked while the server runs does not hold the drain.
#[test]
fn an_unlinked_socket_path_does_not_hold_the_drain() {
    let path = std::env::temp_dir().join(format!("sq-server-gone-{}.sock", std::process::id()));
    let storage = shared();
    let server = Server::start(
        open_queue(demo_repo(), &storage),
        always_pass(),
        ServerConfig::default(),
        &[Endpoint::Uds(path.clone())],
    )
    .unwrap();
    let mut client = Client::connect_uds(&path).unwrap();
    assert!(matches!(
        client.call(&Request::Head).unwrap(),
        Response::HeadIs { .. }
    ));
    std::fs::remove_file(&path).unwrap();
    drains_within_10s(server, "an unlinked socket path");
}

/// `start` unlinks and rebinds a path another server holds. Draining the
/// first server must not depend on the path reaching it, must not unlink
/// the second server's socket file, and neither server's drain holds the
/// other's.
#[test]
fn a_second_server_on_the_same_path_does_not_hold_the_first_drain() {
    let path = std::env::temp_dir().join(format!("sq-server-twice-{}.sock", std::process::id()));
    let (first_storage, second_storage) = (shared(), shared());
    let start = |storage| {
        Server::start(
            open_queue(demo_repo(), storage),
            always_pass(),
            ServerConfig::default(),
            &[Endpoint::Uds(path.clone())],
        )
        .unwrap()
    };
    let first = start(&first_storage);
    let second = start(&second_storage);
    let mut client = Client::connect_uds(&path).unwrap();
    drains_within_10s(first, "a second server on the same path");
    assert!(
        matches!(
            client.call(&Request::Head).unwrap(),
            Response::HeadIs { .. }
        ),
        "the second server's connection outlives the first server's drain"
    );
    // The first drain left the path alone: it names the second socket.
    let mut fresh = Client::connect_uds(&path).expect("the path still reaches the second server");
    assert!(matches!(
        fresh.call(&Request::Head).unwrap(),
        Response::HeadIs { .. }
    ));
    drop((client, fresh));
    drains_within_10s(second, "the first server's drained listener");
    assert_eq!(Arc::strong_count(&first_storage), 1);
    assert_eq!(Arc::strong_count(&second_storage), 1);
}
