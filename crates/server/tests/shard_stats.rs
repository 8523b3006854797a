//! Stats round-trip for the per-shard queue-depth export: queued
//! submissions grouped by patch top-level directory surface as
//! `server.shard.<dir>.queue_depth` gauges — purely additive JSON keys
//! next to the existing `server.queue_depth` — and a shard that drains
//! re-exports as zero instead of lingering at its last depth.

use sq_core::durable::DurableSubmitQueue;
use sq_core::service::StepAction;
use sq_core::RecoveryConfig;
use sq_exec::StepOutcome;
use sq_server::{Client, Endpoint, Request, Response, Server, ServerConfig};
use sq_store::{DurableStore, DurableStoreConfig, MemStorage};
use sq_vcs::{FileOp, Patch, RepoPath, Repository};
use std::sync::{Arc, Mutex};

type Shared = Arc<Mutex<MemStorage>>;
type Queue = DurableSubmitQueue<DurableStore<Shared>>;

fn demo_repo() -> Repository {
    Repository::init([
        ("lib/BUILD", "library(name = \"lib\", srcs = [\"l.rs\"])"),
        ("lib/l.rs", "pub fn l() {}"),
        ("app/BUILD", "binary(name = \"app\", srcs = [\"main.rs\"])"),
        ("app/main.rs", "fn main() {}"),
    ])
    .unwrap()
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

fn write(path: &str, content: &str) -> FileOp {
    FileOp::Write {
        path: RepoPath::new(path).unwrap(),
        content: content.into(),
    }
}

fn head_of(client: &mut Client) -> sq_vcs::CommitId {
    match client.call(&Request::Head).unwrap() {
        Response::HeadIs { commit } => commit,
        other => panic!("expected HeadIs, got {other:?}"),
    }
}

fn enqueue(client: &mut Client, desc: &str, patch: Patch) -> u64 {
    let base = head_of(client);
    match client
        .call(&Request::Enqueue {
            author: "shard-tester".into(),
            description: desc.into(),
            base,
            patch,
        })
        .unwrap()
    {
        Response::Enqueued { ticket } => ticket,
        other => panic!("expected Enqueued, got {other:?}"),
    }
}

fn stats(client: &mut Client) -> String {
    match client.call(&Request::Stats).unwrap() {
        Response::StatsJson { json } => json,
        other => panic!("expected StatsJson, got {other:?}"),
    }
}

/// Extract a numeric JSON value by key, or None when the key is absent.
fn number(json: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":");
    let at = json.find(&key)?;
    let raw: String = json[at + key.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
        .collect();
    Some(raw.parse().expect("numeric value"))
}

#[test]
fn stats_surface_per_shard_queue_depth_over_the_wire() {
    // No processor: the queue only fills, so the grouped depths are
    // deterministic when Stats reads them.
    let storage: Shared = Arc::new(Mutex::new(MemStorage::new()));
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

    // Two lib-only submissions, one app-only, one straddling both
    // top-level directories (a cross-shard footprint).
    enqueue(
        &mut client,
        "lib-1",
        Patch::from_ops([write("lib/a.rs", "pub fn a() {}")]),
    );
    enqueue(
        &mut client,
        "lib-2",
        Patch::from_ops([write("lib/b.rs", "pub fn b() {}")]),
    );
    enqueue(
        &mut client,
        "app-1",
        Patch::from_ops([write("app/a.rs", "pub fn a() {}")]),
    );
    enqueue(
        &mut client,
        "wide",
        Patch::from_ops([
            write("lib/w.rs", "pub fn w() {}"),
            write("app/w.rs", "pub fn w() {}"),
        ]),
    );

    let json = stats(&mut client);
    // The pre-existing global key is untouched (backward compatible)…
    assert_eq!(number(&json, "server.queue_depth"), Some(4.0));
    // …and the per-shard keys are added next to it.
    assert_eq!(number(&json, "server.shard.lib.queue_depth"), Some(2.0));
    assert_eq!(number(&json, "server.shard.app.queue_depth"), Some(1.0));
    assert_eq!(number(&json, "server.shard.(cross).queue_depth"), Some(1.0));

    // The wire export matches the queue's own grouping exactly.
    let (queue, _) = server.shutdown();
    assert_eq!(
        queue.queue_depth_by_dir(),
        vec![
            ("(cross)".to_string(), 1),
            ("app".to_string(), 1),
            ("lib".to_string(), 2),
        ]
    );
}

#[test]
fn drained_shards_re_export_as_zero_not_stale_depths() {
    let storage: Shared = Arc::new(Mutex::new(MemStorage::new()));
    let server = Server::start(
        open_queue(demo_repo(), &storage),
        always_pass(),
        ServerConfig::default(),
        &[Endpoint::Tcp("127.0.0.1:0".into())],
    )
    .unwrap();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();

    let ticket = enqueue(
        &mut client,
        "lib-1",
        Patch::from_ops([write("lib/a.rs", "pub fn a() {}")]),
    );
    // Export once while the submission may still be queued (seeds the
    // shard key set), then wait for it to land.
    let _ = stats(&mut client);
    match client
        .call(&Request::SubscribeVerdict {
            ticket,
            timeout_ms: 10_000,
        })
        .unwrap()
    {
        Response::Verdict { .. } => {}
        other => panic!("expected Verdict, got {other:?}"),
    }

    // After landing, any shard gauge present must read zero — never a
    // stale pre-drain depth.
    let json = stats(&mut client);
    assert_eq!(number(&json, "server.queue_depth"), Some(0.0));
    if let Some(depth) = number(&json, "server.shard.lib.queue_depth") {
        assert_eq!(depth, 0.0, "drained shard must re-export as zero");
    }
    server.shutdown();
}
