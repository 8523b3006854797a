//! The serving-layer load generator: the `server` suite. `--uds` serves
//! over a Unix-domain socket instead of TCP.
//!
//! Replays an `sq-workload` trace against a **live loopback server**
//! (`sq-server` fronting a [`DurableSubmitQueue`]) and checks two
//! things over the same seeded run:
//!
//! * **Sequential replay** — every workload change goes over the wire
//!   as `Head` → `Enqueue` → `SubscribeVerdict`, waiting for the
//!   verdict before the next change, so ticket assignment, commit
//!   order, and every counter are deterministic.
//! * **Drain durability** — a pipelined burst of enqueues is acked,
//!   the server is gracefully drained mid-queue, the queue is
//!   reopened from the same storage, and a fresh server proves every
//!   acked ticket still reaches `Landed`. `lost` must be zero: an ack
//!   is a journal-backed promise that survives a restart.
//!
//! The document holds deterministic counters only (changes landed,
//! commits, journal appends summed across both server lives, acks,
//! losses), so it is byte-reproducible — `--smoke` runs the whole
//! benchmark twice and fails unless the two documents are identical.
//! Wall-clock numbers for this path (throughput, ack and verdict
//! latency) are the `benchmark/` package's.

use crate::suite::{pick, Report, Suite};
use sq_core::durable::DurableSubmitQueue;
use sq_core::{RecoveryConfig, TicketState};
use sq_obs::JsonWriter;
use sq_server::{Client, Endpoint, Request, Response, Server, ServerConfig};
use sq_store::{DurableStore, DurableStoreConfig, MemStorage};
use sq_vcs::{CommitId, Patch, RepoPath};
use sq_workload::repo_model::MaterializedRepo;
use sq_workload::{WorkloadBuilder, WorkloadParams};
use std::sync::{Arc, Mutex};
use std::time::Duration;

type Shared = Arc<Mutex<MemStorage>>;
type Queue = DurableSubmitQueue<DurableStore<Shared>>;

/// Parameters of one serving-layer benchmark run.
#[derive(Debug, Clone)]
pub struct ServerBenchParams {
    /// Master seed for the workload and repository.
    pub seed: u64,
    /// Logical parts (= packages) in the materialized repo.
    pub n_parts: usize,
    /// Workload changes replayed sequentially over the wire.
    pub n_changes: usize,
    /// Pipelined enqueues acked right before the graceful drain.
    pub burst: usize,
    /// Build-executor threads of the queue under test (the document
    /// key is `window`).
    pub window: usize,
    /// Snapshot cadence of the store.
    pub snapshot_every: u64,
    /// Serve over a Unix-domain socket instead of TCP loopback.
    pub use_uds: bool,
}

impl ServerBenchParams {
    /// The recorded configuration (what `sq-bench server` runs by default
    /// and what `BENCH_server.json` at the repo root reports).
    pub fn standard() -> Self {
        ServerBenchParams {
            seed: crate::BENCH_SEED,
            n_parts: 32,
            n_changes: 48,
            burst: 8,
            window: 2,
            snapshot_every: 16,
            use_uds: false,
        }
    }

    /// A small configuration for CI smoke runs.
    pub fn smoke() -> Self {
        ServerBenchParams {
            seed: crate::BENCH_SEED,
            n_parts: 16,
            n_changes: 12,
            burst: 4,
            window: 2,
            snapshot_every: 8,
            use_uds: false,
        }
    }
}

/// Deterministic counters from the sequential replay phase.
#[derive(Debug, Clone)]
pub struct SequentialCell {
    /// Workload changes replayed.
    pub changes: u64,
    /// Changes that landed (must equal `changes`).
    pub landed: u64,
}

/// Deterministic counters from the drain-durability phase.
#[derive(Debug, Clone)]
pub struct DurabilityCell {
    /// Pipelined enqueues sent before the drain.
    pub burst: u64,
    /// Enqueues acked before the drain (must equal `burst`).
    pub acked: u64,
    /// Acked tickets that reached `Landed` after the restart.
    pub landed_after_restart: u64,
    /// Acked tickets lost across the drain/restart (must be 0).
    pub lost: u64,
    /// Queue depth once every burst ticket reached a verdict.
    pub queue_depth_after: u64,
}

/// End-of-run totals summed across both server lives.
#[derive(Debug, Clone)]
pub struct TotalsCell {
    /// `server.requests.enqueue` across both lives.
    pub requests_enqueue: u64,
    /// `server.enqueues.acked` across both lives.
    pub enqueues_acked: u64,
    /// `server.busy_replies` across both lives (must be 0).
    pub busy_replies: u64,
    /// `server.tickets.processed` across both lives.
    pub tickets_processed: u64,
    /// Journal appends summed across both store lives.
    pub journal_appends: u64,
    /// Changes landed across the whole run, burst included.
    pub landed: u64,
    /// Mainline commits including the root, at the end of the run.
    pub commits: u64,
}

/// A full benchmark report.
#[derive(Debug, Clone)]
pub struct ServerBenchReport {
    /// The parameters the run used.
    pub params: ServerBenchParams,
    /// The sequential replay phase.
    pub sequential: SequentialCell,
    /// The drain-durability phase.
    pub durability: DurabilityCell,
    /// End-of-run totals across both server lives.
    pub totals: TotalsCell,
}

impl ServerBenchReport {
    /// Render the committed machine-readable document. Every field is
    /// deterministic for a given seed, so reruns are byte-identical.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", "sq-bench-server/v1");
        w.key("params");
        w.begin_object();
        w.field_u64("seed", self.params.seed);
        w.field_u64("n_parts", self.params.n_parts as u64);
        w.field_u64("n_changes", self.params.n_changes as u64);
        w.field_u64("burst", self.params.burst as u64);
        w.field_u64("window", self.params.window as u64);
        w.field_u64("snapshot_every", self.params.snapshot_every);
        w.field_str("transport", if self.params.use_uds { "uds" } else { "tcp" });
        w.end_object();
        w.key("sequential");
        w.begin_object();
        w.field_u64("changes", self.sequential.changes);
        w.field_u64("landed", self.sequential.landed);
        w.end_object();
        w.key("durability");
        w.begin_object();
        w.field_u64("burst", self.durability.burst);
        w.field_u64("acked", self.durability.acked);
        w.field_u64("landed_after_restart", self.durability.landed_after_restart);
        w.field_u64("lost", self.durability.lost);
        w.field_u64("queue_depth_after", self.durability.queue_depth_after);
        w.end_object();
        w.key("totals");
        w.begin_object();
        w.field_u64("requests_enqueue", self.totals.requests_enqueue);
        w.field_u64("enqueues_acked", self.totals.enqueues_acked);
        w.field_u64("busy_replies", self.totals.busy_replies);
        w.field_u64("tickets_processed", self.totals.tickets_processed);
        w.field_u64("journal_appends", self.totals.journal_appends);
        w.field_u64("landed", self.totals.landed);
        w.field_u64("commits", self.totals.commits);
        w.end_object();
        w.end_object();
        w.finish()
    }

    /// The CI gate: every workload change landed, every acked burst
    /// enqueue survived the drain/restart, nothing was refused, and
    /// the queue fully drained.
    pub fn smoke_gate(&self) -> Result<(), String> {
        if self.sequential.landed != self.sequential.changes {
            return Err(format!(
                "sequential: {} of {} changes landed",
                self.sequential.landed, self.sequential.changes
            ));
        }
        if self.durability.acked != self.durability.burst {
            return Err(format!(
                "durability: only {} of {} burst enqueues acked",
                self.durability.acked, self.durability.burst
            ));
        }
        if self.durability.lost != 0 {
            return Err(format!(
                "durability: {} acked enqueues lost across the restart",
                self.durability.lost
            ));
        }
        if self.durability.queue_depth_after != 0 {
            return Err(format!(
                "durability: {} tickets still queued after all verdicts",
                self.durability.queue_depth_after
            ));
        }
        if self.totals.busy_replies != 0 {
            return Err(format!(
                "{} Busy refusals under an in-bounds load",
                self.totals.busy_replies
            ));
        }
        Ok(())
    }
}

fn open_queue(repo: sq_vcs::Repository, storage: &Shared, params: &ServerBenchParams) -> Queue {
    DurableSubmitQueue::open(
        repo,
        params.window,
        RecoveryConfig::disabled(),
        storage.clone(),
        DurableStoreConfig::with_snapshot_every(params.snapshot_every),
    )
    .expect("open durable queue")
}

fn start_server(queue: Queue, params: &ServerBenchParams) -> Server<DurableStore<Shared>> {
    let endpoint = if params.use_uds {
        Endpoint::Uds(
            std::env::temp_dir().join(format!("sq-bench-server-{}.sock", std::process::id())),
        )
    } else {
        Endpoint::Tcp("127.0.0.1:0".into())
    };
    Server::start(
        queue,
        crate::always_pass(),
        ServerConfig {
            poll_interval: Duration::from_millis(2),
            ..ServerConfig::default()
        },
        &[endpoint],
    )
    .expect("start loopback server")
}

fn connect(server: &Server<DurableStore<Shared>>, params: &ServerBenchParams) -> Client {
    if params.use_uds {
        Client::connect_uds(server.uds_path().expect("uds endpoint")).expect("connect uds")
    } else {
        Client::connect_tcp(server.tcp_addr().expect("tcp endpoint")).expect("connect tcp")
    }
}

fn head(client: &mut Client) -> CommitId {
    match client.call(&Request::Head).expect("head round trip") {
        Response::HeadIs { commit } => commit,
        other => panic!("expected HeadIs, got {other:?}"),
    }
}

/// Run the full benchmark: sequential replay over a live socket, then
/// the pipelined-burst drain/restart durability phase.
pub fn run_server_bench(params: &ServerBenchParams) -> ServerBenchReport {
    let mut wl = WorkloadParams::ios();
    wl.n_parts = params.n_parts;
    let m = MaterializedRepo::generate(&wl).expect("valid repo params");
    let w = WorkloadBuilder::new(wl)
        .seed(params.seed)
        .n_changes(params.n_changes)
        .build()
        .expect("valid workload params");

    let storage: Shared = Arc::new(Mutex::new(MemStorage::new()));
    let server = start_server(open_queue(m.repo.clone(), &storage, params), params);
    let mut client = connect(&server, params);

    // Phase 1 — sequential replay: Head → Enqueue → SubscribeVerdict
    // per change, so every counter is deterministic.
    let mut landed = 0u64;
    for c in &w.changes {
        let base = head(&mut client);
        let ticket = match client
            .call(&Request::Enqueue {
                author: format!("dev{}", c.developer.0),
                description: format!("change {}", c.id),
                base,
                patch: m.patch_for(c),
            })
            .expect("enqueue round trip")
        {
            Response::Enqueued { ticket } => ticket,
            other => panic!("expected Enqueued, got {other:?}"),
        };
        match client
            .call(&Request::SubscribeVerdict {
                ticket,
                timeout_ms: 60_000,
            })
            .expect("subscribe round trip")
        {
            Response::Verdict { state, .. } => {
                landed += u64::from(matches!(state, TicketState::Landed(_)));
            }
            other => panic!("expected Verdict, got {other:?}"),
        }
    }

    // Phase 2 — drain durability: pipeline a burst of disjoint-file
    // enqueues, collect the acks, then gracefully drain mid-queue.
    let base = head(&mut client);
    for i in 0..params.burst {
        client
            .send(&Request::Enqueue {
                author: "burst".into(),
                description: format!("burst {i}"),
                base,
                patch: Patch::write(
                    RepoPath::new(format!("bench/acked_{i}.rs")).expect("valid path"),
                    format!("pub fn acked_{i}() {{}}"),
                ),
            })
            .expect("pipelined enqueue");
    }
    let mut tickets = Vec::new();
    for _ in 0..params.burst {
        match client.recv().expect("pipelined ack") {
            Response::Enqueued { ticket } => tickets.push(ticket),
            Response::Busy { .. } => {}
            other => panic!("expected Enqueued or Busy, got {other:?}"),
        }
    }
    let acked = tickets.len() as u64;
    drop(client);
    let (queue, metrics_a) = server.shutdown();
    let appends_a = queue.store_stats().appends;

    // "Restart": recover from the same storage, serve again, and
    // demand a verdict for every acked ticket.
    let repo = queue.repository();
    drop(queue);
    let server = start_server(open_queue(repo, &storage, params), params);
    let mut client = connect(&server, params);
    let mut landed_after_restart = 0u64;
    for &t in &tickets {
        match client
            .call(&Request::SubscribeVerdict {
                ticket: t,
                timeout_ms: 60_000,
            })
            .expect("post-restart subscribe")
        {
            Response::Verdict { state, .. } => {
                if matches!(state, TicketState::Landed(_)) {
                    landed_after_restart += 1;
                }
            }
            Response::StatusIs { state: None } => {} // lost: counted below
            other => panic!("expected Verdict, got {other:?}"),
        }
    }
    drop(client);
    let (queue, metrics_b) = server.shutdown();
    let appends_b = queue.store_stats().appends;
    let landed_total = queue.service().stats().landed;
    let commits = {
        let repo = queue.repository();
        repo.log(repo.head()).expect("mainline log").len() as u64
    };
    let queue_depth_after = queue.queue_depth() as u64;

    let both = |name: &str| metrics_a.counter(name) + metrics_b.counter(name);
    ServerBenchReport {
        params: params.clone(),
        sequential: SequentialCell {
            changes: w.changes.len() as u64,
            landed,
        },
        durability: DurabilityCell {
            burst: params.burst as u64,
            acked,
            landed_after_restart,
            lost: acked - landed_after_restart,
            queue_depth_after,
        },
        totals: TotalsCell {
            requests_enqueue: both("server.requests.enqueue"),
            enqueues_acked: both("server.enqueues.acked"),
            busy_replies: both("server.busy_replies"),
            tickets_processed: both("server.tickets.processed"),
            journal_appends: appends_a + appends_b,
            landed: landed_total,
            commits,
        },
    }
}

/// The `server` row of the suite table.
pub const SUITE: Suite = Suite {
    name: "server",
    schema: "sq-bench-server/v1",
    keys: &[
        "params: seed n_parts n_changes burst window snapshot_every transport",
        "sequential: changes landed",
        "durability: burst acked landed_after_restart lost queue_depth_after",
        "totals: requests_enqueue enqueues_acked busy_replies tickets_processed",
        "totals: journal_appends landed commits",
    ],
    run: |smoke, flags| {
        let mut params = pick(smoke, ServerBenchParams::smoke, ServerBenchParams::standard);
        for flag in flags {
            match flag.as_str() {
                "--uds" => params.use_uds = true,
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Box::new(run_server_bench(&params)))
    },
};

impl Report for ServerBenchReport {
    fn summary(&self) -> Vec<String> {
        let d = &self.durability;
        vec![
            format!("{:?}", self.params),
            format!(
                "sequential: {} of {} changes landed",
                self.sequential.landed, self.sequential.changes
            ),
            format!(
                "durability: {} acked | {} landed after restart | {} lost",
                d.acked, d.landed_after_restart, d.lost
            ),
        ]
    }

    fn gate(&self) -> Vec<String> {
        self.smoke_gate().err().into_iter().collect()
    }

    fn doc(&self) -> String {
        self.to_json()
    }
}
