//! An idle server sleeps: with one connection open on each transport,
//! no request in flight and nothing queued, no server thread wakes
//! until a peer has something for it. The count is the kernel's:
//! voluntary context switches of every thread of this process, from
//! `/proc/self/task/*/status`, over half a second.

use sq_core::durable::DurableSubmitQueue;
use sq_core::RecoveryConfig;
use sq_exec::StepOutcome;
use sq_server::{Client, Endpoint, Request, Response, Server, ServerConfig};
use sq_store::{DurableStoreConfig, MemStorage};
use sq_vcs::Repository;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Voluntary context switches so far, by thread id.
fn voluntary_switches() -> BTreeMap<String, u64> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| {
            let task = task.ok()?;
            let status = std::fs::read_to_string(task.path().join("status")).ok()?;
            let count = status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?
                .trim()
                .parse()
                .ok()?;
            Some((task.file_name().to_string_lossy().into_owned(), count))
        })
        .collect()
}

#[test]
fn an_idle_server_sleeps() {
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
    let path = std::env::temp_dir().join(format!("sq-server-idle-{}.sock", std::process::id()));
    let server = Server::start(
        queue,
        Box::new(|_, _| StepOutcome::Success),
        ServerConfig::default(),
        &[Endpoint::Tcp("127.0.0.1:0".into()), Endpoint::Uds(path)],
    )
    .unwrap();
    // A round trip on each connection: when the window opens, each
    // connection's thread is blocked reading it.
    let mut tcp = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
    let mut uds = Client::connect_uds(server.uds_path().unwrap()).unwrap();
    for client in [&mut tcp, &mut uds] {
        assert!(matches!(
            client.call(&Request::Head).unwrap(),
            Response::HeadIs { .. }
        ));
    }
    thread::sleep(Duration::from_millis(50));

    let before = voluntary_switches();
    thread::sleep(Duration::from_millis(500));
    let after = voluntary_switches();
    let woke: BTreeMap<&String, u64> = after
        .iter()
        .map(|(tid, n)| (tid, n - before.get(tid).copied().unwrap_or(0)))
        .filter(|&(_, n)| n > 0)
        .collect();
    let total: u64 = woke.values().sum();
    // This thread's own sleep is one of them.
    assert!(
        total <= 5,
        "{total} voluntary context switches in 500 ms of idle, by thread id: {woke:?}"
    );
    drop((tcp, uds));
    server.shutdown();
}
