//! Fenced failover coordination: replicated leaders and follower
//! promotion.
//!
//! `store::replicate` provides the *mechanism* — frame shipping, epoch
//! fencing, resync. This module is the *policy* layer that turns it
//! into an operable service:
//!
//! * [`open_leader`] — a [`DurableSubmitQueue`] journaling through a
//!   replicating [`Leader`] instead of a single-node store; the service
//!   layer is otherwise identical (the [`Wal`](sq_store::Wal) seam).
//! * [`promote_from_follower`] — fenced promotion: claim a strictly
//!   newer epoch (durably, *before* serving), replay the replica's
//!   journal to its last durable LSN and start the service from that
//!   state. Returns a [`PromotionReport`] with what recovery had to do.
//! * [`best_promotion_candidate`] — pick the replica with the highest
//!   (epoch, durable LSN); under synchronous shipping that replica
//!   holds every acked record, which is what makes failover zero-loss.
//!
//! Promotion safety model: a *single coordinator* (this module's
//! caller — the chaos harness, an operator, a control plane) decides
//! who is promoted. The epoch fence then guarantees that however late
//! the deposed leader comes back, it can never ack work the new
//! timeline does not contain — promotion persists the new epoch before
//! the new leader accepts anything, and every receive path re-reads the
//! persisted epoch, so the race is decided by the medium, not by
//! in-memory state.

use crate::durable::DurableSubmitQueue;
use crate::recovery::RecoveryConfig;
use sq_store::{
    DurableStoreConfig, Follower, Leader, ReplicationConfig, ReplicationStats, Storage, StoreError,
};
use sq_vcs::Repository;

/// Open a replicated durable service: the queue journals through a
/// [`Leader`] (local WAL + shipping) instead of a single-node store.
/// Attach followers afterwards with
/// [`DurableSubmitQueue::attach_follower`].
pub fn open_leader<S: Storage + Clone>(
    repo: Repository,
    threads: usize,
    recovery: RecoveryConfig,
    storage: S,
    store_config: DurableStoreConfig,
    replication: ReplicationConfig,
) -> Result<DurableSubmitQueue<Leader<S>>, StoreError> {
    let (leader, recovered) = Leader::open(storage, store_config, replication)?;
    DurableSubmitQueue::from_recovered(repo, threads, recovery, leader, &recovered)
}

/// What a promotion had to do to bring a replica into service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromotionReport {
    /// The epoch claimed (strictly above everything observed).
    pub epoch: u64,
    /// Highest LSN durable on the promoted replica — the exact
    /// acknowledged prefix it serves from.
    pub durable_lsn: u64,
    /// Journal records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Torn-tail bytes truncated during the open (nonzero when the
    /// replica's medium was itself mid-write at the crash).
    pub truncated_bytes: u64,
    /// True when a snapshot seeded the replay.
    pub snapshot_loaded: bool,
}

/// Promote the replica on `storage` to a serving leader.
///
/// Fencing order matters: the new epoch — strictly above both the
/// replica's own and `fence_above` (the coordinator's highest known
/// epoch, typically the dead leader's) — is persisted to the medium
/// *before* any state is served, so a stale leader returning from the
/// dead is refused by every replica that has seen the new epoch.
/// Recovery then replays `snapshot ⊕ journal suffix` to the last
/// durable LSN and starts the service from that state.
pub fn promote_from_follower<S: Storage + Clone>(
    repo: Repository,
    threads: usize,
    recovery: RecoveryConfig,
    storage: S,
    store_config: DurableStoreConfig,
    replication: ReplicationConfig,
    fence_above: u64,
) -> Result<(DurableSubmitQueue<Leader<S>>, PromotionReport), StoreError> {
    let (mut follower, _) = Follower::open(storage.clone(), store_config.clone(), &replication)?;
    let claimed = follower.promote_to(fence_above.max(follower.epoch()) + 1)?;
    drop(follower);
    let (leader, recovered) = Leader::open(storage, store_config, replication)?;
    assert_eq!(leader.epoch(), claimed, "promotion epoch must persist");
    let report = PromotionReport {
        epoch: claimed,
        durable_lsn: leader.durable_lsn(),
        replayed_records: recovered.replay_stats().replayed_records,
        truncated_bytes: recovered.truncated_tail_bytes,
        snapshot_loaded: recovered.snapshot.is_some(),
    };
    let queue = DurableSubmitQueue::from_recovered(repo, threads, recovery, leader, &recovered)?;
    Ok((queue, report))
}

/// The best replica to promote, and the cluster-wide epoch horizon the
/// promotion must fence above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromotionCandidate {
    /// Index into the candidate slice.
    pub index: usize,
    /// That replica's persisted epoch.
    pub epoch: u64,
    /// That replica's durable LSN.
    pub durable_lsn: u64,
    /// Highest epoch observed across *all* candidates — pass as
    /// `fence_above` so the claimed epoch exceeds every survivor's.
    pub cluster_epoch: u64,
}

/// Inspect every surviving replica and pick the one with the highest
/// `(epoch, durable LSN)` — the longest acknowledged history on the
/// newest timeline. Opening a candidate repairs (truncates) any torn
/// tail its medium holds, exactly as promotion itself would.
pub fn best_promotion_candidate<S: Storage + Clone>(
    storages: &[S],
    store_config: &DurableStoreConfig,
    replication: &ReplicationConfig,
) -> Result<PromotionCandidate, StoreError> {
    assert!(!storages.is_empty(), "no replicas to promote");
    let mut best: Option<PromotionCandidate> = None;
    let mut cluster_epoch = 0;
    for (index, storage) in storages.iter().enumerate() {
        let (follower, _) = Follower::open(storage.clone(), store_config.clone(), replication)?;
        let (epoch, durable_lsn) = (follower.epoch(), follower.durable_lsn());
        cluster_epoch = cluster_epoch.max(epoch);
        if best
            .map(|b| (epoch, durable_lsn) > (b.epoch, b.durable_lsn))
            .unwrap_or(true)
        {
            best = Some(PromotionCandidate {
                index,
                epoch,
                durable_lsn,
                cluster_epoch: 0,
            });
        }
    }
    let mut best = best.expect("non-empty candidate set");
    best.cluster_epoch = cluster_epoch;
    Ok(best)
}

impl<S: Storage + Clone> DurableSubmitQueue<Leader<S>> {
    /// Attach and synchronize a follower (see [`Leader::attach_follower`]).
    pub fn attach_follower(
        &self,
        storage: S,
        config: DurableStoreConfig,
    ) -> Result<usize, StoreError> {
        self.store.lock().attach_follower(storage, config)
    }

    /// The leader's fencing epoch.
    pub fn epoch(&self) -> u64 {
        self.store.lock().epoch()
    }

    /// Shipping and failover counters.
    pub fn replication_stats(&self) -> ReplicationStats {
        *self.store.lock().replication_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{StepAction, TicketState};
    use sq_exec::StepOutcome;
    use sq_store::{AckMode, CrashKind, CrashPlan, MemStorage};
    use sq_vcs::{Patch, RepoPath};
    use std::sync::{Arc, Mutex as StdMutex};

    type Shared = Arc<StdMutex<MemStorage>>;

    fn shared() -> Shared {
        Arc::new(StdMutex::new(MemStorage::new()))
    }

    fn always_pass() -> Box<StepAction> {
        Box::new(|_step, _tree| StepOutcome::Success)
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

    fn cfg() -> DurableStoreConfig {
        DurableStoreConfig::with_snapshot_every(u64::MAX)
    }

    fn repl(mode: AckMode) -> ReplicationConfig {
        ReplicationConfig::with_ack_mode(mode)
    }

    fn open_two_follower_leader(
        mode: AckMode,
    ) -> (DurableSubmitQueue<Leader<Shared>>, Shared, Shared, Shared) {
        let (ls, f1, f2) = (shared(), shared(), shared());
        let dq = open_leader(
            demo_repo(),
            2,
            RecoveryConfig::disabled(),
            ls.clone(),
            cfg(),
            repl(mode),
        )
        .unwrap();
        dq.attach_follower(f1.clone(), cfg()).unwrap();
        dq.attach_follower(f2.clone(), cfg()).unwrap();
        (dq, ls, f1, f2)
    }

    #[test]
    fn replicated_queue_lands_changes_and_stays_healthy() {
        let (dq, _ls, _f1, _f2) = open_two_follower_leader(AckMode::Quorum);
        let t = dq.submit("alice", "v1", dq.head(), lib_patch(1)).unwrap();
        dq.run_until_idle(&always_pass()).unwrap();
        assert!(matches!(dq.status(t), Some(TicketState::Landed(_))));
        assert_eq!(dq.epoch(), 1);
        let stats = dq.replication_stats();
        assert!(stats.ships >= 6, "3 batches x 2 followers, got {stats:?}");
        assert_eq!((stats.degraded_acks, stats.link_drops), (0, 0));
    }

    #[test]
    fn promoted_follower_serves_identical_state_and_fences_the_dead_leader() {
        let (dq, ls, f1, f2) = open_two_follower_leader(AckMode::Quorum);
        let t1 = dq.submit("alice", "v1", dq.head(), lib_patch(1)).unwrap();
        dq.run_until_idle(&always_pass()).unwrap();
        let t2 = dq.submit("bob", "v2", dq.head(), lib_patch(2)).unwrap();
        let exported = dq.export_state_json();
        let repo = dq.repository();
        drop(dq); // leader process dies

        let candidate =
            best_promotion_candidate(&[f1.clone(), f2.clone()], &cfg(), &repl(AckMode::Quorum))
                .unwrap();
        assert_eq!(candidate.epoch, 1);
        assert_eq!(candidate.cluster_epoch, 1);
        let storage = [f1.clone(), f2.clone()][candidate.index].clone();
        let (promoted, report) = promote_from_follower(
            repo,
            2,
            RecoveryConfig::disabled(),
            storage,
            cfg(),
            repl(AckMode::Quorum),
            candidate.cluster_epoch,
        )
        .unwrap();
        assert_eq!(report.epoch, 2);
        assert_eq!(report.durable_lsn, candidate.durable_lsn);
        assert_eq!(report.truncated_bytes, 0);
        // Zero acked enqueues lost: the promoted replica's export is
        // byte-identical to the dead leader's last acknowledged state.
        assert_eq!(promoted.export_state_json(), exported);
        assert!(matches!(promoted.status(t1), Some(TicketState::Landed(_))));
        assert_eq!(promoted.status(t2), Some(TicketState::Queued));
        promoted.run_until_idle(&always_pass()).unwrap();
        assert!(matches!(promoted.status(t2), Some(TicketState::Landed(_))));

        // The dead leader restarts at its old epoch and tries to serve:
        // the first shipped frame is fenced and the submit fails.
        let revenant = open_leader(
            promoted.repository(),
            2,
            RecoveryConfig::disabled(),
            ls.clone(),
            cfg(),
            repl(AckMode::Quorum),
        )
        .unwrap();
        assert_eq!(revenant.epoch(), 1);
        let err = revenant.attach_follower(f1.clone(), cfg()).unwrap_err();
        assert!(matches!(err, StoreError::Fenced { .. }));
    }

    #[test]
    fn promotion_claims_a_strictly_increasing_epoch_chain() {
        let (dq, _ls, f1, f2) = open_two_follower_leader(AckMode::Async);
        dq.submit("alice", "v1", dq.head(), lib_patch(1)).unwrap();
        let repo = dq.repository();
        drop(dq);
        let (second, report) = promote_from_follower(
            repo,
            2,
            RecoveryConfig::disabled(),
            f1.clone(),
            cfg(),
            repl(AckMode::Async),
            1,
        )
        .unwrap();
        assert_eq!(report.epoch, 2);
        second.attach_follower(f2.clone(), cfg()).unwrap();
        let repo = second.repository();
        drop(second);
        let (third, report) = promote_from_follower(
            repo,
            2,
            RecoveryConfig::disabled(),
            f2.clone(),
            cfg(),
            repl(AckMode::Async),
            2,
        )
        .unwrap();
        assert_eq!(report.epoch, 3);
        assert_eq!(third.epoch(), 3);
    }

    #[test]
    fn degraded_quorum_keeps_serving_and_is_visible() {
        let (dq, _ls, f1, f2) = open_two_follower_leader(AckMode::Quorum);
        for f in [&f1, &f2] {
            let ops = f.lock().unwrap().ops();
            f.lock()
                .unwrap()
                .set_plan(CrashPlan::at_op(ops, CrashKind::Torn));
        }
        let t = dq.submit("alice", "v1", dq.head(), lib_patch(1)).unwrap();
        dq.run_until_idle(&always_pass()).unwrap();
        assert!(matches!(dq.status(t), Some(TicketState::Landed(_))));
        let stats = dq.replication_stats();
        assert_eq!(stats.link_drops, 2);
        assert!(stats.degraded_acks > 0);
    }

    #[test]
    fn promotion_mid_flight_does_not_double_commit() {
        // Crash between the VCS commit and the verdict journal (op 4 on
        // a replicated leader: 0 magic, 1 meta, 2 enqueue, 3 spec-start,
        // 4 verdict batch), then promote: the journal says Queued while
        // the repo already has the commit, and reprocessing must land
        // the ticket there without a second commit.
        let ls = Arc::new(StdMutex::new(MemStorage::with_crashes(CrashPlan::at_op(
            4,
            CrashKind::Torn,
        ))));
        let fs = shared();
        let dq = open_leader(
            demo_repo(),
            2,
            RecoveryConfig::disabled(),
            ls.clone(),
            cfg(),
            repl(AckMode::Quorum),
        )
        .unwrap();
        dq.attach_follower(fs.clone(), cfg()).unwrap();
        let t = dq.submit("alice", "v1", dq.head(), lib_patch(1)).unwrap();
        let err = dq.process_next(&always_pass()).unwrap_err();
        assert!(matches!(err, StoreError::Crashed { .. }));
        let repo = dq.repository();
        let commits_before = repo.log(repo.head()).unwrap().len();
        drop(dq);
        let (promoted, report) = promote_from_follower(
            repo,
            2,
            RecoveryConfig::disabled(),
            fs.clone(),
            cfg(),
            repl(AckMode::Quorum),
            1,
        )
        .unwrap();
        assert_eq!(report.epoch, 2);
        assert_eq!(promoted.status(t), Some(TicketState::Queued));
        promoted.run_until_idle(&always_pass()).unwrap();
        match promoted.status(t) {
            Some(TicketState::Landed(c)) => assert_eq!(c, promoted.head()),
            other => panic!("expected landed, got {other:?}"),
        }
        let repo2 = promoted.repository();
        assert_eq!(
            repo2.log(repo2.head()).unwrap().len(),
            commits_before,
            "promotion must not double-commit"
        );
    }
}
