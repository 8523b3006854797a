//! The WAL-shipping replication benchmark: the `replication` suite.
//!
//! Two measurements over the same seeded workload, deterministic
//! counters only (wall-clock shipping and promotion cost are the
//! `benchmark/` package's `store.ship_quorum2_us` and
//! `core.failover.promote_ms`), so the document is byte-reproducible:
//!
//! * **Throughput cells** — a replicated [`DurableSubmitQueue`] (a
//!   leader and N synchronous followers) lands the whole workload, for every
//!   `(ack mode, follower count)` combination: ships, shipped
//!   records/bytes, journal appends, epoch.
//! * **Failover cells** — per ack mode, the leader's medium is killed
//!   mid-run by a seeded crash plan after a fixed number of landed
//!   changes. The harness promotes the best surviving replica
//!   ([`best_promotion_candidate`] + [`promote_from_follower`]), rejoins
//!   the deposed medium, and finishes the workload. The cell records
//!   the promotion report and whether the final exported state is
//!   byte-identical to an uncrashed twin — the zero-loss gate, enforced
//!   in every mode.

use crate::suite::{pick, Report, Suite};
use sq_core::durable::DurableSubmitQueue;
use sq_core::failover::{best_promotion_candidate, open_leader, promote_from_follower};
use sq_core::service::TicketId;
use sq_core::RecoveryConfig;
use sq_obs::JsonWriter;
use sq_store::{
    AckMode, CrashKind, CrashPlan, DurableStoreConfig, Leader, MemStorage, ReplicationConfig,
};
use sq_workload::repo_model::MaterializedRepo;
use sq_workload::{WorkloadBuilder, WorkloadParams};
use std::sync::{Arc, Mutex};

type Shared = Arc<Mutex<MemStorage>>;
type ReplQueue = DurableSubmitQueue<Leader<Shared>>;

/// Parameters of one replication-benchmark run.
#[derive(Debug, Clone)]
pub struct ReplicationParams {
    /// Master seed for the workload and repository.
    pub seed: u64,
    /// Logical parts (= packages) in the materialized repo.
    pub n_parts: usize,
    /// Changes landed per cell.
    pub n_changes: usize,
    /// Follower counts to measure throughput at.
    pub follower_counts: Vec<usize>,
    /// Changes fully landed before the seeded leader kill in the
    /// failover cells.
    pub kill_after: usize,
    /// Snapshot cadence of every replica's store.
    pub snapshot_every: u64,
}

impl ReplicationParams {
    /// The recorded configuration (what `sq-bench replication` runs by
    /// default and what `BENCH_replication.json` at the repo root
    /// reports).
    pub fn standard() -> Self {
        ReplicationParams {
            seed: crate::BENCH_SEED,
            n_parts: 32,
            n_changes: 24,
            follower_counts: vec![1, 2, 3],
            kill_after: 8,
            snapshot_every: 8,
        }
    }

    /// A small configuration for CI smoke runs.
    pub fn smoke() -> Self {
        ReplicationParams {
            seed: crate::BENCH_SEED,
            n_parts: 16,
            n_changes: 10,
            follower_counts: vec![1, 2],
            kill_after: 4,
            snapshot_every: 4,
        }
    }
}

/// Deterministic counters from one `(mode, followers)` throughput cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Ack mode the cell ran under.
    pub mode: AckMode,
    /// Attached followers.
    pub followers: usize,
    /// Changes submitted (all acked).
    pub changes: u64,
    /// Changes that landed on the mainline.
    pub landed: u64,
    /// Mainline commits including the root.
    pub commits: u64,
    /// Fencing epoch at the end of the run (1: no failover happened).
    pub epoch: u64,
    /// Per-link ship frames sent.
    pub ships: u64,
    /// Journal records shipped across all links.
    pub shipped_records: u64,
    /// Encoded ship-frame bytes across all links.
    pub shipped_bytes: u64,
    /// Leader-local journal appends.
    pub journal_appends: u64,
    /// Appends acked below quorum (must be 0 with healthy followers).
    pub degraded_acks: u64,
}

/// One seeded leader-kill + promotion measurement.
#[derive(Debug, Clone)]
pub struct FailoverResult {
    /// Ack mode the cell ran under.
    pub mode: AckMode,
    /// Attached followers.
    pub followers: usize,
    /// Changes fully landed before the kill was armed.
    pub kill_after: u64,
    /// Observed leader deaths (exactly one is armed).
    pub crashes: u64,
    /// Epoch claimed by the promotion.
    pub epoch: u64,
    /// Durable LSN the promoted replica served from.
    pub durable_lsn: u64,
    /// Journal records replayed during promotion.
    pub replayed_records: u64,
    /// Torn-tail bytes the promoted replica had to repair (followers
    /// never crash here, so this must be 0).
    pub truncated_bytes: u64,
    /// Changes that landed across the whole run, failover included.
    pub landed: u64,
    /// Whether the final exported state is byte-identical to the
    /// uncrashed twin's — the zero-loss gate.
    pub export_identical: bool,
}

/// A full benchmark report: parameters, throughput cells, failover cells.
#[derive(Debug, Clone)]
pub struct ReplicationReport {
    /// The parameters the run used.
    pub params: ReplicationParams,
    /// One entry per `(mode, followers)` combination.
    pub cells: Vec<CellResult>,
    /// One seeded failover per ack mode.
    pub failover: Vec<FailoverResult>,
}

fn mode_name(mode: AckMode) -> &'static str {
    match mode {
        AckMode::Async => "async",
        AckMode::Quorum => "quorum",
    }
}

impl ReplicationReport {
    /// Render the committed machine-readable document. Every field is
    /// deterministic for a given seed, so reruns are byte-identical.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", "sq-bench-replication/v1");
        w.key("params");
        w.begin_object();
        w.field_u64("seed", self.params.seed);
        w.field_u64("n_parts", self.params.n_parts as u64);
        w.field_u64("n_changes", self.params.n_changes as u64);
        w.field_u64("kill_after", self.params.kill_after as u64);
        w.field_u64("snapshot_every", self.params.snapshot_every);
        w.end_object();
        w.key("cells");
        w.begin_array();
        for c in &self.cells {
            w.begin_object();
            w.field_str("mode", mode_name(c.mode));
            w.field_u64("followers", c.followers as u64);
            w.field_u64("changes", c.changes);
            w.field_u64("landed", c.landed);
            w.field_u64("commits", c.commits);
            w.field_u64("epoch", c.epoch);
            w.field_u64("ships", c.ships);
            w.field_u64("shipped_records", c.shipped_records);
            w.field_u64("shipped_bytes", c.shipped_bytes);
            w.field_u64("journal_appends", c.journal_appends);
            w.field_u64("degraded_acks", c.degraded_acks);
            w.end_object();
        }
        w.end_array();
        w.key("failover");
        w.begin_array();
        for f in &self.failover {
            w.begin_object();
            w.field_str("mode", mode_name(f.mode));
            w.field_u64("followers", f.followers as u64);
            w.field_u64("kill_after", f.kill_after);
            w.field_u64("crashes", f.crashes);
            w.field_u64("epoch", f.epoch);
            w.field_u64("durable_lsn", f.durable_lsn);
            w.field_u64("replayed_records", f.replayed_records);
            w.field_u64("truncated_bytes", f.truncated_bytes);
            w.field_u64("landed", f.landed);
            w.key("export_identical");
            w.value_bool(f.export_identical);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// The CI gate: every failover cell must have reproduced the
    /// uncrashed twin's state byte-identically under a bumped epoch with
    /// a clean promoted tail, every throughput cell must have acked everything at full
    /// quorum, and the chaos must actually have fired.
    pub fn smoke_gate(&self) -> Result<(), String> {
        if self.cells.is_empty() || self.failover.is_empty() {
            return Err("no cells measured".to_string());
        }
        for c in &self.cells {
            if c.degraded_acks != 0 {
                return Err(format!(
                    "cell {}x{}: {} degraded acks with healthy followers",
                    mode_name(c.mode),
                    c.followers,
                    c.degraded_acks
                ));
            }
            if c.changes != c.landed {
                return Err(format!(
                    "cell {}x{}: {} of {} changes landed",
                    mode_name(c.mode),
                    c.followers,
                    c.landed,
                    c.changes
                ));
            }
        }
        for f in &self.failover {
            if f.crashes == 0 {
                return Err(format!(
                    "failover {}: the seeded leader kill never fired",
                    mode_name(f.mode)
                ));
            }
            if f.epoch < 2 {
                return Err(format!(
                    "failover {}: the promotion did not bump the epoch",
                    mode_name(f.mode)
                ));
            }
            if f.truncated_bytes != 0 {
                return Err(format!(
                    "failover {}: promoted replica repaired {} torn bytes",
                    mode_name(f.mode),
                    f.truncated_bytes
                ));
            }
            if !f.export_identical {
                return Err(format!(
                    "failover {}: state diverged from the uncrashed twin",
                    mode_name(f.mode)
                ));
            }
        }
        Ok(())
    }
}

fn store_cfg(params: &ReplicationParams) -> DurableStoreConfig {
    DurableStoreConfig::with_snapshot_every(params.snapshot_every)
}

struct Cluster {
    dq: ReplQueue,
    leader: Shared,
    followers: Vec<Shared>,
}

fn open_cluster(
    repo: sq_vcs::Repository,
    params: &ReplicationParams,
    mode: AckMode,
    followers: usize,
) -> Cluster {
    let leader: Shared = Arc::new(Mutex::new(MemStorage::with_crashes(CrashPlan::none())));
    let dq = open_leader(
        repo,
        3,
        RecoveryConfig::disabled(),
        leader.clone(),
        store_cfg(params),
        ReplicationConfig::with_ack_mode(mode),
    )
    .expect("open replicated leader");
    let followers: Vec<Shared> = (0..followers)
        .map(|_| {
            let s: Shared = Arc::new(Mutex::new(MemStorage::with_crashes(CrashPlan::none())));
            dq.attach_follower(s.clone(), store_cfg(params))
                .expect("attach follower");
            s
        })
        .collect();
    Cluster {
        dq,
        leader,
        followers,
    }
}

fn workload(params: &ReplicationParams) -> (MaterializedRepo, sq_workload::Workload) {
    let mut wl = WorkloadParams::ios();
    wl.n_parts = params.n_parts;
    let m = MaterializedRepo::generate(&wl).expect("valid repo params");
    let w = WorkloadBuilder::new(wl)
        .seed(params.seed)
        .n_changes(params.n_changes)
        .build()
        .expect("valid workload params");
    (m, w)
}

/// One healthy throughput cell; also returns the final exported state
/// (the failover cells compare against it).
fn run_cell(params: &ReplicationParams, mode: AckMode, followers: usize) -> (CellResult, String) {
    let (m, w) = workload(params);
    let Cluster { dq, .. } = open_cluster(m.repo.clone(), params, mode, followers);
    let action = crate::always_pass();
    for c in &w.changes {
        dq.submit(
            format!("dev{}", c.developer.0),
            format!("change {}", c.id),
            dq.head(),
            m.patch_for(c),
        )
        .expect("healthy submit");
        dq.run_until_idle(&action).expect("healthy drain");
    }
    let stats = dq.replication_stats();
    let st = dq.store_stats();
    let repo = dq.repository();
    let cell = CellResult {
        mode,
        followers,
        changes: w.changes.len() as u64,
        landed: dq.service().stats().landed,
        commits: repo.log(repo.head()).expect("mainline log").len() as u64,
        epoch: dq.epoch(),
        ships: stats.ships,
        shipped_records: stats.shipped_records,
        shipped_bytes: stats.shipped_bytes,
        journal_appends: st.appends,
        degraded_acks: stats.degraded_acks,
    };
    (cell, dq.export_state_json())
}

/// One seeded leader-kill cell: land `kill_after` changes, arm a crash
/// on the leader's next mutating storage op, fail over on the death,
/// finish the workload on the promoted replica, and compare against the
/// uncrashed twin's export.
fn run_failover(params: &ReplicationParams, mode: AckMode, clean_export: &str) -> FailoverResult {
    let followers_n = params.follower_counts.iter().copied().max().unwrap_or(2);
    let (m, w) = workload(params);
    let Cluster {
        mut dq,
        leader,
        followers,
    } = open_cluster(m.repo.clone(), params, mode, followers_n);
    let action = crate::always_pass();
    let mut crashes = 0u64;
    let mut report = None;

    for (i, c) in w.changes.iter().enumerate() {
        if i == params.kill_after {
            // Arm the death: the leader's next mutating op tears.
            let ops = leader.lock().unwrap().ops();
            leader
                .lock()
                .unwrap()
                .set_plan(CrashPlan::at_op(ops, CrashKind::Torn));
        }
        let expected = i as u64 + 1;
        loop {
            match dq.submit(
                format!("dev{}", c.developer.0),
                format!("change {}", c.id),
                dq.head(),
                m.patch_for(c),
            ) {
                Ok(t) => {
                    assert_eq!(t, TicketId(expected), "ticket assignment diverged");
                    break;
                }
                Err(_) => {
                    crashes += 1;
                    let (next, r) = fail_over(dq, &leader, &followers, params, mode);
                    dq = next;
                    report = Some(r);
                    if dq.status(TicketId(expected)).is_some() {
                        break;
                    }
                }
            }
        }
        loop {
            match dq.process_next(&action) {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => {
                    crashes += 1;
                    let (next, r) = fail_over(dq, &leader, &followers, params, mode);
                    dq = next;
                    report = Some(r);
                }
            }
        }
    }
    let report = report.expect("the armed kill fired and forced a promotion");
    FailoverResult {
        mode,
        followers: followers_n,
        kill_after: params.kill_after as u64,
        crashes,
        epoch: report.epoch,
        durable_lsn: report.durable_lsn,
        replayed_records: report.replayed_records,
        truncated_bytes: report.truncated_bytes,
        landed: dq.service().stats().landed,
        export_identical: dq.export_state_json() == clean_export,
    }
}

/// Fenced failover: promote the best surviving follower, then rebuild
/// the cluster around it (revived deposed medium included).
fn fail_over(
    dead: ReplQueue,
    dead_leader: &Shared,
    followers: &[Shared],
    params: &ReplicationParams,
    mode: AckMode,
) -> (ReplQueue, sq_core::failover::PromotionReport) {
    let repo = dead.repository();
    let dead_epoch = dead.epoch();
    drop(dead);
    let candidate = best_promotion_candidate(
        followers,
        &store_cfg(params),
        &ReplicationConfig::with_ack_mode(mode),
    )
    .expect("surviving replicas are readable");
    let (dq, report) = promote_from_follower(
        repo,
        3,
        RecoveryConfig::disabled(),
        followers[candidate.index].clone(),
        store_cfg(params),
        ReplicationConfig::with_ack_mode(mode),
        candidate.cluster_epoch.max(dead_epoch),
    )
    .expect("promotion from best candidate");
    for (i, s) in followers.iter().enumerate() {
        if i != candidate.index {
            dq.attach_follower(s.clone(), store_cfg(params))
                .expect("reattach survivor");
        }
    }
    dead_leader.lock().unwrap().revive();
    dead_leader.lock().unwrap().set_plan(CrashPlan::none());
    dq.attach_follower(dead_leader.clone(), store_cfg(params))
        .expect("reattach deposed leader");
    (dq, report)
}

/// Run the full benchmark: every `(mode, followers)` throughput cell,
/// then one seeded failover per ack mode at the largest follower count.
pub fn run_replication(params: &ReplicationParams) -> ReplicationReport {
    let mut cells = Vec::new();
    let mut failover = Vec::new();
    for mode in [AckMode::Async, AckMode::Quorum] {
        let mut twin_export = None;
        let max_followers = params.follower_counts.iter().copied().max().unwrap_or(2);
        for &f in &params.follower_counts {
            let (cell, export) = run_cell(params, mode, f);
            if f == max_followers {
                twin_export = Some(export);
            }
            cells.push(cell);
        }
        let twin = twin_export.expect("at least one follower count");
        failover.push(run_failover(params, mode, &twin));
    }
    ReplicationReport {
        params: params.clone(),
        cells,
        failover,
    }
}

/// The `replication` row of the suite table.
pub const SUITE: Suite = Suite {
    name: "replication",
    schema: "sq-bench-replication/v1",
    keys: &[
        "params: seed n_parts n_changes kill_after snapshot_every",
        "cells: mode followers changes landed commits epoch ships shipped_records",
        "cells: shipped_bytes journal_appends degraded_acks",
        "failover: mode followers kill_after crashes epoch durable_lsn replayed_records",
        "failover: truncated_bytes landed export_identical",
    ],
    run: |smoke| {
        let params = pick(smoke, ReplicationParams::smoke, ReplicationParams::standard);
        Box::new(run_replication(&params))
    },
};

impl Report for ReplicationReport {
    fn summary(&self) -> Vec<String> {
        let mut lines = vec![format!("{:?}", self.params)];
        lines.extend(self.cells.iter().map(|c| {
            format!(
                "cell {:>6?} x{}: {:>3} landed | {:>5} ships | {:>6} records | {:>9} bytes",
                c.mode, c.followers, c.landed, c.ships, c.shipped_records, c.shipped_bytes,
            )
        }));
        lines.extend(self.failover.iter().map(|f| {
            format!(
                "failover {:>6?}: epoch {} | durable_lsn {} | {} replayed | identical={}",
                f.mode, f.epoch, f.durable_lsn, f.replayed_records, f.export_identical
            )
        }));
        lines
    }

    fn gate(&self) -> Vec<String> {
        self.smoke_gate().err().into_iter().collect()
    }

    fn doc(&self) -> String {
        self.to_json()
    }
}
