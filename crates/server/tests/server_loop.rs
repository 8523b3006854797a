//! End-to-end tests of the request loop over real loopback sockets:
//! journal-before-ack enqueues, long-poll verdicts, admission-control
//! `Busy` replies, refused-whole malformed frames, idempotent `Stats`
//! exports, and the graceful-drain/restart zero-loss guarantee.

use sq_core::durable::DurableSubmitQueue;
use sq_core::service::StepAction;
use sq_core::{RecoveryConfig, TicketState};
use sq_exec::StepOutcome;
use sq_server::protocol::encode_frame;
use sq_server::{
    Client, Endpoint, ErrorCode, Request, Response, Server, ServerConfig, WireTicketState,
};
use sq_store::{DurableStore, DurableStoreConfig, MemStorage};
use sq_vcs::{Patch, RepoPath, Repository};
use std::sync::{Arc, Mutex};
use std::time::Duration;

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

/// Per-ticket disjoint patches: same-base submissions that don't
/// conflict, so every acked enqueue can land.
fn disjoint_patch(v: u32) -> Patch {
    Patch::write(
        RepoPath::new(format!("lib/gen_{v}.rs")).unwrap(),
        format!("pub fn gen_{v}() {{}}"),
    )
}

fn open_queue(repo: Repository, storage: &Shared) -> Queue {
    DurableSubmitQueue::open(
        repo,
        2,
        RecoveryConfig::disabled(),
        storage.clone(),
        DurableStoreConfig::with_snapshot_every(u64::MAX),
    )
    .unwrap()
}

fn always_pass() -> Box<StepAction> {
    Box::new(|_step, _tree| StepOutcome::Success)
}

fn fast_config() -> ServerConfig {
    ServerConfig {
        poll_interval: Duration::from_millis(5),
        ..ServerConfig::default()
    }
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
        fast_config(),
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
        Response::Verdict { state, .. } => assert!(matches!(state, WireTicketState::Landed(_))),
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
        fast_config(),
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
        Response::Verdict { state, .. } => assert!(matches!(state, WireTicketState::Landed(_))),
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
            ..fast_config()
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
        fast_config(),
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
        Response::Verdict { state, .. } => assert!(matches!(state, WireTicketState::Landed(_))),
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
        fast_config(),
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
    let storage = shared();
    let repo = demo_repo();
    let server = Server::start(
        open_queue(repo.clone(), &storage),
        always_pass(),
        // No processor: every ack is still queued at drain time, the
        // worst case for durability.
        ServerConfig {
            drive_queue: false,
            ..fast_config()
        },
        &[Endpoint::Tcp("127.0.0.1:0".into())],
    )
    .unwrap();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
    let base = head_of(&mut client);
    let mut tickets = Vec::new();
    for v in 0..3 {
        match client
            .call(&Request::Enqueue {
                author: "frank".into(),
                description: format!("v{v}"),
                base,
                patch: disjoint_patch(v),
            })
            .unwrap()
        {
            Response::Enqueued { ticket } => tickets.push(ticket),
            other => panic!("expected Enqueued, got {other:?}"),
        }
    }
    let (queue, _) = server.shutdown();
    let exported = queue.export_state_json();
    let repo_after = queue.repository();
    drop(queue);

    // "Restart": recover from the same storage, serve again.
    let recovered = open_queue(repo_after, &storage);
    assert_eq!(
        recovered.export_state_json(),
        exported,
        "recovery is byte-identical to the drained state"
    );
    let server = Server::start(
        recovered,
        always_pass(),
        fast_config(),
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
                matches!(state, WireTicketState::Landed(_)),
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
}

#[test]
fn subscribe_honours_its_timeout_when_nothing_lands() {
    let storage = shared();
    let server = Server::start(
        open_queue(demo_repo(), &storage),
        always_pass(),
        ServerConfig {
            drive_queue: false,
            ..fast_config()
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
        fast_config(),
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

/// With a poll interval of seconds, the only thing that can wake the
/// idle processor in time is the enqueue itself. Three hundred
/// enqueue → verdict round trips, one after the other, each finding the
/// processor idle: had a single enqueue slipped between the processor's
/// "queue is empty" and its wait, that trip alone would cost a whole
/// interval. The drain at the end is held to the same standard.
#[test]
fn an_enqueue_always_wakes_the_idle_processor() {
    let interval = Duration::from_secs(4);
    let storage = shared();
    let server = Server::start(
        open_queue(demo_repo(), &storage),
        always_pass(),
        ServerConfig {
            poll_interval: interval,
            ..ServerConfig::default()
        },
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
                assert!(matches!(state, WireTicketState::Landed(_)))
            }
            other => panic!("expected Verdict, got {other:?}"),
        }
    }
    drop(client);
    let (queue, _) = server.shutdown();
    assert_eq!(queue.queue_depth(), 0);
    assert!(
        started.elapsed() < interval / 2,
        "300 round trips and a drain took {:?}: something slept out a {interval:?} poll interval",
        started.elapsed()
    );
}
