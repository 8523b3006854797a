//! The SubmitQueue service over a real repository, and its one queue
//! type, [`DurableSubmitQueue`].
//!
//! The simulations measure *scheduling policy*; this module wires the
//! full concrete stack together the way the paper's production system
//! does (Section 7.1's API service + core service, minus the RPC):
//! patches land against a live `sq-vcs` repository one at a time — a
//! serial queue: the front change is rebased onto HEAD, its affected
//! targets are computed from the two snapshots' target hashes, the
//! `sq-exec` executor runs real build steps with artifact caching, and
//! the change commits only if every step passes — so the mainline is
//! green at every commit point, by construction, and `verify_history`
//! re-checks it from scratch. No conflict analyzer runs here: nothing
//! is built speculatively or committed in parallel yet (ROADMAP item 1).
//!
//! Tickets, the queue and the counters exist once, as a
//! [`DurableState`], and change only by applying the [`ServiceEvent`]s
//! the queue emits where it decides: enqueue, speculation start,
//! abort, quarantine, verdict, commit, reject. Every batch goes through
//! `transition`, which appends it to the queue's [`Wal`] first and
//! applies it second, so a recovered queue, a replica and the live one
//! all read the same stream. [`SubmitQueueService`] is the queue over
//! an in-memory journal; `sq-server` serves it over files.

use crate::durable::{encode_batch, DurableState, QueuedChange, ServiceEvent, Verdict};
use crate::recovery::{QuarantineList, RecoveryConfig};
use parking_lot::Mutex;
use sq_build::affected::SnapshotAnalysis;
use sq_build::{AffectedSet, TargetName};
use sq_exec::{ArtifactCache, BuildController, BuildStep, ExecReport, RealExecutor, StepOutcome};
use sq_obs::MetricsRegistry;
use sq_store::{
    DurableStore, DurableStoreConfig, MemStorage, Recovery, Storage, StoreError, StoreStats, Wal,
};
use sq_vcs::merge::merge_patches;
use sq_vcs::{CommitId, CommitMeta, Patch, Repository, Tree, VcsError};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;

/// Ticket identifying a submitted change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TicketId(pub u64);

impl fmt::Display for TicketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// State of a submitted change (what the paper's web UI shows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TicketState {
    /// Enqueued, not yet processed.
    Queued,
    /// Landed at this mainline commit.
    Landed(CommitId),
    /// Rejected with a reason.
    Rejected(String),
}

impl TicketState {
    /// True for landed/rejected, false for queued.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, TicketState::Queued)
    }
}

/// A step action: decides the outcome of one build step given the
/// snapshot it runs against. Runs on executor worker threads.
pub type StepAction = dyn Fn(&BuildStep, &Tree) -> StepOutcome + Send + Sync;

struct Inner {
    repo: Repository,
    /// Tickets, queue and counters: the fold of every event applied.
    /// A change stays in the queue until its commit or reject event,
    /// so the one being built is still at the front.
    state: DurableState,
    /// Infra-red whole-build attempts, per ticket.
    rebuilds: HashMap<u64, u32>,
    /// Per-target flake accounting.
    quarantine: QuarantineList<TargetName>,
    /// Step attempts retried in place, since this process started.
    step_retries: u64,
    /// Infra-red whole builds redone, since this process started.
    infra_rebuilds: u64,
}

/// The SubmitQueue, with its state journaled through any [`Wal`] — an
/// in-memory or file-backed [`DurableStore`], or the replicating
/// [`Leader`](sq_store::Leader): a submission is acked only once its
/// enqueue is durable per the `Wal`'s ack discipline, and
/// [`DurableSubmitQueue::open`] (or
/// [`failover::promote_from_follower`](crate::failover)) reconstructs
/// the exact acknowledged state after a crash.
///
/// Every mutating call returns `Result`: a [`StoreError`] means the
/// backing medium failed (or, under fault injection, the simulated
/// process died) and the handle must be abandoned — reopen to recover.
/// A [`StoreError::Fenced`] additionally means a newer leader exists
/// and this node must never serve again under its current epoch.
///
/// Crash consistency around the one external side effect — the VCS
/// commit — leans on idempotence rather than two-phase commit: if the
/// process dies after `commit_patch` but before the verdict batch is
/// journaled, the ticket never left `Queued`, recovery finds the change
/// still pending and reprocesses it; the rebase then absorbs the patch
/// (it is already in HEAD), the repository reports
/// [`VcsError::EmptyCommit`], and the queue lands the ticket at the
/// existing commit — converging to identical state with no double
/// commit.
pub struct DurableSubmitQueue<W: Wal> {
    /// The state lock: held for a read, a decision or an `apply`, never
    /// across a build or a journal append.
    inner: Mutex<Inner>,
    /// The store lock: appends serialise on it, and a batch is applied
    /// to the state before it is released. Never held across a build.
    pub(crate) store: Mutex<W>,
    /// Incremental builds for landing changes (persistent artifact
    /// cache — the paper's Section 6 controller).
    controller: BuildController,
    /// From-scratch builds for `verify_history` (no cache reuse: the
    /// audit must not trust prior artifacts).
    executor: RealExecutor,
    /// Infra-failure recovery policy (step retries, rebuild bound,
    /// quarantine threshold).
    recovery: RecoveryConfig,
}

/// The queue over an in-memory journal: nothing survives the process,
/// and nothing but an injected crash can fail.
pub type SubmitQueueService = DurableSubmitQueue<DurableStore<MemStorage>>;

/// A red commit found by [`DurableSubmitQueue::verify_history`]: which
/// commit broke the audit, at which step, and why.
#[derive(Debug, Clone)]
pub struct HistoryViolation {
    /// Position of the commit in mainline order (0 = root commit).
    pub commit_index: usize,
    /// The red commit.
    pub commit: CommitId,
    /// The failing step, when a build step failed (as opposed to the
    /// snapshot being unreadable or unanalyzable).
    pub step: Option<BuildStep>,
    /// Human-readable reason.
    pub reason: String,
    /// True when the failure was infrastructure — the audit could not
    /// complete — rather than the commit being genuinely red.
    pub infra: bool,
}

impl fmt::Display for HistoryViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let blame = if self.infra {
            "unverifiable (infrastructure)"
        } else {
            "red"
        };
        write!(
            f,
            "commit {} (#{} in mainline) is {blame}",
            self.commit, self.commit_index
        )?;
        if let Some(step) = &self.step {
            write!(f, ": step '{step}'")?;
        }
        write!(f, ": {}", self.reason)
    }
}

impl std::error::Error for HistoryViolation {}

/// Service statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Changes landed.
    pub landed: u64,
    /// Changes rejected.
    pub rejected: u64,
    /// Changes still queued.
    pub queued: usize,
    /// Artifact-cache hit/miss counters.
    pub cache_hits: u64,
    /// Artifact-cache misses.
    pub cache_misses: u64,
    /// Step-level infra retries absorbed without failing a build.
    pub step_retries: u64,
    /// Whole-build rebuilds caused by infra-red builds.
    pub infra_rebuilds: u64,
    /// Changes rejected for infrastructure (not change) reasons.
    pub infra_rejected: u64,
    /// Targets currently quarantined as chronically flaky.
    pub quarantined: usize,
}

impl SubmitQueueService {
    /// Wrap a repository; `threads` sizes the build executor. Infra
    /// failures are not retried (the change sees them directly); open a
    /// queue with a [`RecoveryConfig`] for the failure-aware one.
    pub fn new(repo: Repository, threads: usize) -> Self {
        let (storage, config) = (MemStorage::new(), DurableStoreConfig::default());
        Self::open(repo, threads, RecoveryConfig::disabled(), storage, config)
            .expect("a fresh in-memory journal opens")
    }
}

impl<S: Storage> DurableSubmitQueue<DurableStore<S>> {
    /// Open the queue: recover `snapshot ⊕ journal suffix` from
    /// `storage`, then start from exactly that state over `repo` (the
    /// VCS is the system of record for commits and survives
    /// independently of this store).
    ///
    /// `recovery` is the infra-failure policy: steps retry under
    /// `recovery.retry`, infra-red builds are redone up to
    /// `recovery.max_rebuilds` times before the change is rejected with
    /// an explicit infrastructure reason, and chronically flaky targets
    /// are quarantined (advisorily — they keep gating, so the always-
    /// green invariant is never weakened; the list is the state's
    /// `quarantined` map, journaled as `Quarantined` events).
    pub fn open(
        repo: Repository,
        threads: usize,
        recovery: RecoveryConfig,
        storage: S,
        config: DurableStoreConfig,
    ) -> Result<Self, StoreError> {
        let (store, recovered) = DurableStore::open(storage, config)?;
        Self::from_recovered(repo, threads, recovery, store, &recovered)
    }
}

impl<W: Wal> DurableSubmitQueue<W> {
    /// Fold a recovery (`snapshot ⊕ journal suffix`) and start the
    /// queue from exactly that state — the shared tail of every open
    /// path (single-node, leader, promotion). The repository is taken
    /// as it is: commits live in the VCS, which recovers independently.
    pub(crate) fn from_recovered(
        repo: Repository,
        threads: usize,
        recovery: RecoveryConfig,
        store: W,
        recovered: &Recovery,
    ) -> Result<Self, StoreError> {
        let state = DurableState::recovered(recovered)?;
        let mut quarantine = QuarantineList::new(recovery.quarantine_threshold);
        for (target, observations) in &state.quarantined {
            // Quarantined events journal canonical `//pkg:name` labels,
            // which always re-resolve; a malformed label would mean a
            // corrupt journal, which decoding already rejected.
            if let Ok(name) = TargetName::resolve(target, "") {
                quarantine.restore(name, *observations);
            }
        }
        Ok(DurableSubmitQueue {
            inner: Mutex::new(Inner {
                repo,
                state,
                rebuilds: HashMap::new(),
                quarantine,
                step_retries: 0,
                infra_rebuilds: 0,
            }),
            store: Mutex::new(store),
            controller: BuildController::with_retry_policy(threads, recovery.retry),
            executor: RealExecutor::new(threads),
            recovery,
        })
    }

    /// The queue itself: `benchmark/` reaches `stats` and
    /// `verify_history` through this call, and it goes once that
    /// harness calls the queue directly.
    pub fn service(&self) -> &Self {
        self
    }

    /// The current mainline HEAD.
    pub fn head(&self) -> CommitId {
        self.inner.lock().repo.head()
    }

    /// A clone of the underlying repository. The VCS is the system of
    /// record for commits: a crash-recovery harness extracts it from a
    /// dead queue the way a real deployment's repository survives a
    /// service restart.
    pub fn repository(&self) -> Repository {
        self.inner.lock().repo.clone()
    }

    /// A copy of tickets, queue and counters, taken under the state
    /// lock: two queues (a live one and a recovered one, a dead leader
    /// and a promoted replica) are in the same state iff these are
    /// equal.
    pub fn state(&self) -> DurableState {
        self.inner.lock().state.clone()
    }

    /// The one place tickets, queue and counters change. `decide` runs
    /// under both locks and returns the events that say what it decided
    /// (none: nothing happened). They are journaled with the state lock
    /// released, so readers never wait for an fsync, and applied only
    /// once the append has returned, so nothing shows before it is
    /// durable. After an `Err` nothing is applied.
    fn transition<T>(
        &self,
        decide: impl FnOnce(&mut Inner) -> (T, Vec<ServiceEvent>),
    ) -> Result<T, StoreError> {
        let mut store = self.store.lock();
        let (decided, batch) = decide(&mut self.inner.lock());
        if !batch.is_empty() {
            store.append(&encode_batch(&batch))?;
            let mut inner = self.inner.lock();
            batch.iter().for_each(|ev| inner.state.apply(ev));
        }
        Ok(decided)
    }

    /// Snapshot and compact the journal if the cadence says so. Runs
    /// where a ticket was just acked or judged, not at a speculation
    /// start. Under the store lock the state is exactly the fold of the
    /// journal, so this is a critical section of its own.
    fn checkpoint(&self) -> Result<(), StoreError> {
        let mut store = self.store.lock();
        if store.should_snapshot() {
            // Encoded under the state lock, written outside it.
            let snapshot = self.inner.lock().state.encode();
            store.write_snapshot(&snapshot)?;
        }
        Ok(())
    }

    /// Submit a change: a patch made against `base` (usually the HEAD the
    /// developer branched from — step 5 of the Figure 3 life cycle). The
    /// returned ticket is the durable ack: the enqueue event is
    /// journaled and synced before this returns.
    pub fn submit(
        &self,
        author: impl Into<String>,
        description: impl Into<String>,
        base: CommitId,
        patch: Patch,
    ) -> Result<TicketId, StoreError> {
        let ticket = self.transition(|inner| {
            let ticket = inner.state.next_ticket;
            let enqueue = ServiceEvent::Enqueue {
                ticket,
                author: author.into(),
                description: description.into(),
                base,
                patch,
            };
            (TicketId(ticket), vec![enqueue])
        })?;
        self.checkpoint()?;
        Ok(ticket)
    }

    /// The state of a change (the service's second API call).
    pub fn status(&self, ticket: TicketId) -> Option<TicketState> {
        self.inner.lock().state.states.get(&ticket.0).cloned()
    }

    /// Number of changes waiting in the speculation queue (acked but
    /// not yet landed or rejected). The serving layer uses this as its
    /// admission-control signal: past a configured bound it answers
    /// `Busy` instead of journaling another enqueue.
    pub fn queue_depth(&self) -> usize {
        self.inner.lock().state.queue.len()
    }

    /// Per-shard view of the speculation queue: queued submissions
    /// grouped by the top-level directory their patch touches — the
    /// serving layer's approximation of the planner's part → shard
    /// routing. A submission whose ops span several top-level
    /// directories has a cross-shard footprint and groups under
    /// `"(cross)"`; an empty patch groups under `"(none)"`; a file at
    /// the repository root counts as its own directory. Keys are sorted,
    /// so the export is deterministic.
    pub fn queue_depth_by_dir(&self) -> Vec<(String, usize)> {
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for q in &self.inner.lock().state.queue {
            let mut dirs: BTreeSet<&str> = BTreeSet::new();
            for op in q.patch.ops() {
                let path = op.path();
                dirs.insert(path.components().next().unwrap_or(path.as_str()));
            }
            let key = match dirs.len() {
                0 => "(none)".to_string(),
                1 => dirs.into_iter().next().unwrap().to_string(),
                _ => "(cross)".to_string(),
            };
            *counts.entry(key).or_default() += 1;
        }
        counts.into_iter().collect()
    }

    /// Process one queued change end to end, journaling the speculation
    /// start before the build and the verdict batch after it. Returns
    /// the ticket handled, or `None` if the queue was empty.
    ///
    /// Pipeline: rebase (three-way merge onto the current HEAD) →
    /// affected-target analysis → real builds of every affected target →
    /// commit on success.
    pub fn process_next(&self, action: &StepAction) -> Result<Option<TicketId>, StoreError> {
        // Take what the build reads under the lock, then build outside
        // both locks so submissions and status queries stay responsive.
        let started = self.transition(|inner| {
            let Some(change) = inner.state.queue.front().cloned() else {
                return (None, Vec::new());
            };
            let started = ServiceEvent::SpeculationStarted {
                ticket: change.ticket,
            };
            let base_tree = inner.repo.tree_at(change.base);
            let head_tree = inner.repo.head_tree().expect("mainline readable");
            let store = inner.repo.store().clone();
            let snapshot = (change, inner.repo.head(), base_tree, head_tree, store);
            (Some(snapshot), vec![started])
        })?;
        let Some((change, head, base_tree, head_tree, store)) = started else {
            return Ok(None);
        };
        // `build` releases the snapshot before the commit: the
        // repository's store is then the sole owner of its objects again
        // and takes the commit's in place. What was staged for a
        // rejected change goes with the snapshot.
        let built = self.build(&change.patch, base_tree, head_tree, store, action);
        self.transition(|inner| ((), self.conclude(inner, &change, head, built)))?;
        self.checkpoint()?;
        Ok(Some(TicketId(change.ticket)))
    }

    /// Drain the queue; returns how many changes were processed.
    pub fn run_until_idle(&self, action: &StepAction) -> Result<usize, StoreError> {
        let mut processed = 0;
        while self.process_next(action)?.is_some() {
            processed += 1;
        }
        Ok(processed)
    }

    /// Rebase, analyze and build one patch against the snapshot taken
    /// when it started. `Err` is the reason the change itself is at
    /// fault before any step ran.
    fn build(
        &self,
        patch: &Patch,
        base_tree: Result<Tree, VcsError>,
        head_tree: Tree,
        mut store: sq_vcs::ObjectStore,
        action: &StepAction,
    ) -> Result<(Patch, ExecReport), String> {
        let base_tree = base_tree.map_err(|e| format!("bad base: {e}"))?;
        // 1. Rebase: merge the patch with what landed since its base.
        let rebased = rebase(patch, &base_tree, &head_tree, &store)
            .map_err(|e| format!("merge conflict: {e}"))?;
        // 2. Analyze: affected targets of the rebased patch on HEAD.
        let base_analysis = SnapshotAnalysis::analyze(&head_tree, &store)
            .map_err(|e| format!("HEAD unanalyzable: {e}"))?;
        let new_tree = rebased
            .apply(&head_tree, &mut store)
            .map_err(|e| format!("patch failed to apply: {e}"))?;
        let new_analysis = SnapshotAnalysis::analyze(&new_tree, &store)
            .map_err(|e| format!("build graph broken: {e}"))?;
        let delta = AffectedSet::between(&base_analysis, &new_analysis);
        // 3. Build every affected target for real (incremental via the
        // controller's artifact cache).
        let report = self.controller.execute_affected(
            &new_analysis.graph,
            &new_analysis.hashes,
            &delta,
            |step| action(step, &new_tree),
        );
        Ok((rebased, report))
    }

    /// Decide what a finished build means, under the state lock, and
    /// say it as events: quarantines first, then an abort (the change
    /// is rebuilt), or the verdict with its commit or reject.
    fn conclude(
        &self,
        inner: &mut Inner,
        change: &QueuedChange,
        head: CommitId,
        built: Result<(Patch, ExecReport), String>,
    ) -> Vec<ServiceEvent> {
        let batch = self.decide(inner, change, head, built);
        // The rebuild count only matters while the ticket is queued.
        if batch.iter().any(|e| {
            matches!(
                e,
                ServiceEvent::Committed { .. } | ServiceEvent::Rejected { .. }
            )
        }) {
            inner.rebuilds.remove(&change.ticket);
        }
        batch
    }

    /// The decision itself; [`Self::conclude`] wraps it.
    fn decide(
        &self,
        inner: &mut Inner,
        change: &QueuedChange,
        head: CommitId,
        built: Result<(Patch, ExecReport), String>,
    ) -> Vec<ServiceEvent> {
        let ticket = change.ticket;
        // A second processor got here first: its verdict stands.
        if inner.state.states.get(&ticket) != Some(&TicketState::Queued) {
            return Vec::new();
        }
        let rejected = |verdict, reason: String| {
            [
                ServiceEvent::BuildVerdict {
                    ticket,
                    verdict,
                    detail: reason.clone(),
                },
                ServiceEvent::Rejected {
                    ticket,
                    reason,
                    infra: verdict == Verdict::Infra,
                },
            ]
        };
        let (rebased, report) = match built {
            Ok(built) => built,
            Err(reason) => return rejected(Verdict::Fail, reason).into(),
        };
        let mut batch = Vec::new();
        // Flake accounting: every infra event — recovered or not —
        // counts toward the per-target quarantine threshold.
        for (step, _fault) in &report.infra_events {
            if let Some(observations) = inner.quarantine.record_flake(step.target.clone()) {
                batch.push(ServiceEvent::Quarantined {
                    target: step.target.to_string(),
                    observations,
                });
            }
        }
        inner.step_retries += report.infra_retries;
        if let Some((step, fault)) = report.infra_failure {
            // Infra-red: the build says nothing about the change.
            // Rebuild up to the policy bound instead of rejecting;
            // successful steps are already cached, so the rebuild
            // only redoes what the fault interrupted.
            let attempts = inner.rebuilds.entry(ticket).or_insert(0);
            *attempts += 1;
            let attempt = *attempts;
            if attempt <= self.recovery.max_rebuilds {
                inner.infra_rebuilds += 1;
                batch.push(ServiceEvent::SpeculationAborted {
                    ticket,
                    reason: format!("infra-red build; rebuild #{attempt} after {fault}"),
                });
            } else {
                batch.extend(rejected(
                    Verdict::Infra,
                    format!(
                        "infrastructure failure (change not at fault): step '{step}' \
                         hit {fault} after {attempt} build(s)"
                    ),
                ));
            }
            return batch;
        }
        if let Some((step, reason)) = report.failure {
            batch.extend(rejected(
                Verdict::Fail,
                format!("build step '{step}' failed: {reason}"),
            ));
            return batch;
        }
        // 4. Commit — but only if HEAD did not move underneath us
        // (single-threaded processing here; the check keeps the
        // invariant explicit). If it did, the change is still at the
        // front and the next call rebuilds it.
        if inner.repo.head() != head {
            return batch;
        }
        let meta = CommitMeta::new(
            change.author.clone(),
            format!("[{}] {}", TicketId(ticket), change.description),
            0,
        );
        let commit = match inner
            .repo
            .commit_patch(sq_vcs::repo::MAINLINE, &rebased, meta)
        {
            Ok(commit) => commit,
            // The rebase absorbed the patch entirely (someone landed
            // the same edit): treat as landed at HEAD.
            Err(VcsError::EmptyCommit) => inner.repo.head(),
            Err(e) => {
                batch.extend(rejected(Verdict::Fail, format!("commit failed: {e}")));
                return batch;
            }
        };
        batch.push(ServiceEvent::BuildVerdict {
            ticket,
            verdict: Verdict::Pass,
            detail: String::new(),
        });
        batch.push(ServiceEvent::Committed { ticket, commit });
        batch
    }

    /// Service counters.
    pub fn stats(&self) -> ServiceStats {
        let cs = self.controller.cache_stats();
        let inner = self.inner.lock();
        ServiceStats {
            landed: inner.state.landed,
            rejected: inner.state.rejected,
            queued: inner.state.queue.len(),
            cache_hits: cs.hits,
            cache_misses: cs.misses,
            step_retries: inner.step_retries,
            infra_rebuilds: inner.infra_rebuilds,
            infra_rejected: inner.state.infra_rejected,
            quarantined: inner.quarantine.len(),
        }
    }

    /// Read a file at the current HEAD (inspection helper for examples).
    pub fn read_head_file(&self, path: &str) -> Option<String> {
        let inner = self.inner.lock();
        let p = sq_vcs::RepoPath::new(path).ok()?;
        inner.repo.read_file(inner.repo.head(), &p).ok()
    }

    /// Replay the whole mainline history, rebuilding every commit point
    /// from scratch — the literal "always green" check. The audit runs
    /// under the service's step-retry policy, so infra flakes in the
    /// action are absorbed rather than misreported as red commits; a
    /// fault that survives the retries is reported as *unverifiable*,
    /// not red.
    ///
    /// Returns the number of commit points verified, or the exact
    /// commit (id, mainline position, failing step) that broke the
    /// audit.
    pub fn verify_history(&self, action: &StepAction) -> Result<usize, Box<HistoryViolation>> {
        // Audit a snapshot, outside the lock: the audit rebuilds every
        // commit, and `status`/`submit`/`head` must not wait for it.
        let repo = self.repository();
        let head = repo.head();
        let infra_err = |index: usize, commit: CommitId, reason: String| {
            Box::new(HistoryViolation {
                commit_index: index,
                commit,
                step: None,
                reason,
                infra: true,
            })
        };
        let log = repo
            .log(head)
            .map_err(|e| infra_err(0, head, e.to_string()))?;
        let mut verified = 0;
        for (index, id) in log.iter().rev().enumerate() {
            let tree = repo
                .tree_at(*id)
                .map_err(|e| infra_err(index, *id, e.to_string()))?;
            let analysis = SnapshotAnalysis::analyze(&tree, repo.store())
                .map_err(|e| infra_err(index, *id, e.to_string()))?;
            let targets: HashSet<sq_build::TargetName> = analysis.graph.names().cloned().collect();
            let cache = Mutex::new(ArtifactCache::new());
            let report = self.executor.execute_with_recovery(
                &analysis.graph,
                &targets,
                &analysis.hashes,
                &cache,
                &self.recovery.retry,
                |step| action(step, &tree),
            );
            if let Some((step, reason)) = report.failure {
                return Err(Box::new(HistoryViolation {
                    commit_index: index,
                    commit: *id,
                    step: Some(step),
                    reason: format!("failed: {reason}"),
                    infra: false,
                }));
            }
            if let Some((step, fault)) = report.infra_failure {
                return Err(Box::new(HistoryViolation {
                    commit_index: index,
                    commit: *id,
                    step: Some(step),
                    reason: format!("infra fault survived retries: {fault}"),
                    infra: true,
                }));
            }
            verified += 1;
        }
        Ok(verified)
    }

    /// Storage-layer counters (appends, fsyncs, snapshots, replay).
    pub fn store_stats(&self) -> StoreStats {
        *self.store.lock().stats()
    }

    /// Record storage counters and recovery gauges into a metrics
    /// registry (under `store.*`). `StoreStats` carries cumulative
    /// lifetime totals, so counters are reconciled via
    /// [`MetricsRegistry::record_total`] and the point-in-time values
    /// (last snapshot size, recovery replay cost) are gauges — the
    /// export is idempotent under the periodic re-export a serving
    /// process performs.
    pub fn record_into(&self, metrics: &mut MetricsRegistry) {
        let st = self.store_stats();
        metrics.record_total("store.journal.appends", st.appends);
        metrics.record_total("store.journal.appended_bytes", st.appended_bytes);
        metrics.record_total("store.journal.fsyncs", st.fsyncs);
        metrics.record_total("store.snapshot.writes", st.snapshots);
        metrics.record_total("store.recovery.replayed_records", st.replayed_records);
        metrics.record_total(
            "store.recovery.truncated_tail_bytes",
            st.truncated_tail_bytes,
        );
        metrics.set_gauge("store.snapshot.bytes", st.last_snapshot_bytes as f64);
        metrics.set_gauge("store.recovery.replay_micros", st.replay_micros as f64);
    }
}

/// The developer's patch as it applies on `head_tree`: merged with what
/// landed since `base_tree`, restricted to the paths the patch touched.
fn rebase(
    patch: &Patch,
    base_tree: &Tree,
    head_tree: &Tree,
    store: &sq_vcs::ObjectStore,
) -> Result<Patch, VcsError> {
    // Mainline drift since the base = a synthetic patch transforming
    // base_tree into head_tree; merge the developer patch with it.
    let mut drift = Patch::new();
    for path in base_tree.changed_paths(head_tree) {
        match head_tree.get(path) {
            Some(blob) => {
                let content = store
                    .get_text(&blob)
                    .ok_or_else(|| VcsError::MissingObject(blob.to_hex()))?;
                drift.push(sq_vcs::FileOp::Write {
                    path: path.clone(),
                    content,
                });
            }
            None => drift.push(sq_vcs::FileOp::Delete { path: path.clone() }),
        }
    }
    let merged = merge_patches(base_tree, store, &drift, patch)?;
    // The drift part is already in HEAD; restrict to paths the
    // developer touched (their ops after merging with the drift).
    let dev_paths: HashSet<&sq_vcs::RepoPath> = patch.paths().collect();
    Ok(Patch::from_ops(
        merged
            .ops()
            .filter(|op| dev_paths.contains(op.path()))
            .cloned(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sq_vcs::RepoPath;

    fn always_pass() -> Box<StepAction> {
        Box::new(|_step, _tree| StepOutcome::Success)
    }

    /// Fail any step whose target name contains "bug": content access
    /// requires the store, so the service tests encode bugs in paths.
    fn fail_on_bug() -> Box<StepAction> {
        Box::new(|step, _tree| {
            if step.target.short_name().contains("bug") {
                StepOutcome::Failure("intentional bug".into())
            } else {
                StepOutcome::Success
            }
        })
    }

    fn demo_repo() -> Repository {
        Repository::init([
            ("lib/BUILD", "library(name = \"lib\", srcs = [\"l.rs\"])"),
            ("lib/l.rs", "pub fn l() {}"),
            (
                "app/BUILD",
                "binary(name = \"app\", srcs = [\"m.rs\"], deps = [\"//lib:lib\"])",
            ),
            ("app/m.rs", "fn main() {}"),
        ])
        .unwrap()
    }

    /// The queue over an in-memory journal, under an infra-failure policy.
    fn with_recovery(recovery: RecoveryConfig) -> SubmitQueueService {
        let config = DurableStoreConfig::default();
        DurableSubmitQueue::open(demo_repo(), 2, recovery, MemStorage::new(), config).unwrap()
    }

    #[test]
    fn land_a_clean_change() {
        let service = SubmitQueueService::new(demo_repo(), 2);
        let base = service.head();
        let t = service
            .submit(
                "alice",
                "improve lib",
                base,
                Patch::write(
                    RepoPath::new("lib/l.rs").unwrap(),
                    "pub fn l() { /* v2 */ }",
                ),
            )
            .unwrap();
        assert_eq!(service.status(t), Some(TicketState::Queued));
        let action = always_pass();
        service.run_until_idle(&action).unwrap();
        match service.status(t) {
            Some(TicketState::Landed(commit)) => assert_eq!(service.head(), commit),
            other => panic!("expected landed, got {other:?}"),
        }
        assert_eq!(
            service.read_head_file("lib/l.rs").unwrap(),
            "pub fn l() { /* v2 */ }"
        );
        let stats = service.stats();
        assert_eq!((stats.landed, stats.rejected, stats.queued), (1, 0, 0));
    }

    #[test]
    fn failing_build_step_rejects_and_mainline_unchanged() {
        let mut repo = demo_repo();
        // Add a target whose name triggers the failure action.
        repo.commit_patch(
            sq_vcs::repo::MAINLINE,
            &Patch::from_ops([
                sq_vcs::FileOp::Write {
                    path: RepoPath::new("buggy/BUILD").unwrap(),
                    content: "library(name = \"bugzone\", srcs = [\"b.rs\"])".into(),
                },
                sq_vcs::FileOp::Write {
                    path: RepoPath::new("buggy/b.rs").unwrap(),
                    content: "ok".into(),
                },
            ]),
            CommitMeta::new("setup", "add buggy pkg", 0),
        )
        .unwrap();
        let service = SubmitQueueService::new(repo, 2);
        let head_before = service.head();
        let objects_before = service.repository().store().len();
        let t = service
            .submit(
                "bob",
                "touch the buggy package",
                head_before,
                Patch::write(RepoPath::new("buggy/b.rs").unwrap(), "edited"),
            )
            .unwrap();
        let action = fail_on_bug();
        service.run_until_idle(&action).unwrap();
        match service.status(t) {
            Some(TicketState::Rejected(reason)) => {
                assert!(reason.contains("intentional bug"), "reason = {reason}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        // The faulty patch never landed: master stays green, and the
        // blob staged for it went with the snapshot it was staged in.
        assert_eq!(service.head(), head_before);
        assert_eq!(service.repository().store().len(), objects_before);
    }

    /// A flat path → blob map held `lib/l.rs` and `lib/l.rs/x` side by
    /// side and landed the change; no checkout can hold both.
    #[test]
    fn a_write_through_a_file_or_onto_a_directory_is_rejected_not_committed() {
        let service = SubmitQueueService::new(demo_repo(), 2);
        let head_before = service.head();
        let objects_before = service.repository().store().len();
        let action = always_pass();
        for colliding in ["lib/l.rs/nested.rs", "lib"] {
            let t = service
                .submit(
                    "mallory",
                    "shadow a path",
                    head_before,
                    Patch::write(RepoPath::new(colliding).unwrap(), "x"),
                )
                .unwrap();
            assert_eq!(service.process_next(&action).unwrap(), Some(t));
            let expected = sq_vcs::VcsError::PathConflict(RepoPath::new(colliding).unwrap());
            match service.status(t) {
                Some(TicketState::Rejected(reason)) => {
                    assert!(reason.contains(&expected.to_string()), "reason = {reason}")
                }
                other => panic!("expected rejection, got {other:?}"),
            }
        }
        assert_eq!(service.head(), head_before);
        assert_eq!(service.repository().store().len(), objects_before);
        assert_eq!(service.stats().rejected, 2);
    }

    #[test]
    fn stale_base_gets_rebased() {
        let service = SubmitQueueService::new(demo_repo(), 2);
        let old_base = service.head();
        let action = always_pass();
        // First change lands, moving HEAD.
        service
            .submit(
                "alice",
                "edit app",
                old_base,
                Patch::write(RepoPath::new("app/m.rs").unwrap(), "fn main() { /* a */ }"),
            )
            .unwrap();
        service.run_until_idle(&action).unwrap();
        let mid = service.head();
        assert_ne!(mid, old_base);
        // Second change was developed against the *old* base but touches
        // a different file: the rebase integrates it.
        let t2 = service
            .submit(
                "bob",
                "edit lib from a stale branch",
                old_base,
                Patch::write(RepoPath::new("lib/l.rs").unwrap(), "pub fn l() { /* b */ }"),
            )
            .unwrap();
        service.run_until_idle(&action).unwrap();
        assert!(matches!(service.status(t2), Some(TicketState::Landed(_))));
        // Both edits are present at HEAD.
        assert_eq!(
            service.read_head_file("app/m.rs").unwrap(),
            "fn main() { /* a */ }"
        );
        assert_eq!(
            service.read_head_file("lib/l.rs").unwrap(),
            "pub fn l() { /* b */ }"
        );
    }

    #[test]
    fn textual_conflict_on_rebase_rejects() {
        let service = SubmitQueueService::new(demo_repo(), 2);
        let base = service.head();
        let action = always_pass();
        service
            .submit(
                "alice",
                "first writer",
                base,
                Patch::write(RepoPath::new("lib/l.rs").unwrap(), "alice version"),
            )
            .unwrap();
        service.run_until_idle(&action).unwrap();
        let t2 = service
            .submit(
                "bob",
                "second writer, same file, stale base",
                base,
                Patch::write(RepoPath::new("lib/l.rs").unwrap(), "bob version"),
            )
            .unwrap();
        service.run_until_idle(&action).unwrap();
        match service.status(t2) {
            Some(TicketState::Rejected(reason)) => {
                assert!(reason.contains("merge conflict"), "reason = {reason}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(service.read_head_file("lib/l.rs").unwrap(), "alice version");
    }

    #[test]
    fn artifact_cache_accumulates_across_changes() {
        let service = SubmitQueueService::new(demo_repo(), 2);
        let action = always_pass();
        for i in 0..3 {
            let base = service.head();
            service
                .submit(
                    "alice",
                    format!("lib v{i}"),
                    base,
                    Patch::write(
                        RepoPath::new("lib/l.rs").unwrap(),
                        format!("pub fn l() {{ /* v{i} */ }}"),
                    ),
                )
                .unwrap();
            service.run_until_idle(&action).unwrap();
        }
        let stats = service.stats();
        assert_eq!(stats.landed, 3);
        assert!(stats.cache_misses > 0);
    }

    #[test]
    fn verify_history_confirms_green_mainline() {
        let service = SubmitQueueService::new(demo_repo(), 2);
        let action = always_pass();
        for i in 0..3 {
            let base = service.head();
            service
                .submit(
                    "alice",
                    format!("v{i}"),
                    base,
                    Patch::write(
                        RepoPath::new("app/m.rs").unwrap(),
                        format!("fn main() {{ /* {i} */ }}"),
                    ),
                )
                .unwrap();
            service.run_until_idle(&action).unwrap();
        }
        let verified = service.verify_history(&action).unwrap();
        assert_eq!(verified, 4); // root + 3 commits
    }

    #[test]
    fn verify_history_pinpoints_the_bad_commit() {
        // Plant a bad commit directly on mainline (bypassing the queue,
        // as if the gate had been circumvented), then audit.
        let mut repo = demo_repo();
        let planted = repo
            .commit_patch(
                sq_vcs::repo::MAINLINE,
                &Patch::from_ops([
                    sq_vcs::FileOp::Write {
                        path: RepoPath::new("buggy/BUILD").unwrap(),
                        content: "library(name = \"bugzone\", srcs = [\"b.rs\"])".into(),
                    },
                    sq_vcs::FileOp::Write {
                        path: RepoPath::new("buggy/b.rs").unwrap(),
                        content: "broken".into(),
                    },
                ]),
                CommitMeta::new("rogue", "sneak a red target in", 0),
            )
            .unwrap();
        let service = SubmitQueueService::new(repo, 2);
        // A good change lands on top of the planted commit.
        let base = service.head();
        service
            .submit(
                "alice",
                "innocent lib edit",
                base,
                Patch::write(
                    RepoPath::new("lib/l.rs").unwrap(),
                    "pub fn l() { /* ok */ }",
                ),
            )
            .unwrap();
        // Landing succeeds: the gate only rebuilds *affected* targets,
        // and the lib edit does not touch the planted red target.
        service.run_until_idle(&always_pass()).unwrap();
        // The from-scratch audit rebuilds everything and catches it.
        let violation = service.verify_history(&fail_on_bug()).unwrap_err();
        assert_eq!(violation.commit, planted);
        assert_eq!(violation.commit_index, 1); // root is #0
        assert!(!violation.infra);
        let step = violation.step.as_ref().expect("failing step reported");
        assert!(step.target.to_string().contains("bugzone"));
        assert!(violation.reason.contains("intentional bug"));
        let shown = violation.to_string();
        assert!(shown.contains(&planted.to_string()), "display: {shown}");
        assert!(shown.contains("bugzone"), "display: {shown}");
    }

    /// The audit rebuilds every commit; the service must keep answering
    /// meanwhile. The first audit step parks on a barrier, and `status`,
    /// `head` and `submit` have to return while it is parked.
    #[test]
    fn verify_history_does_not_hold_the_service_lock() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{mpsc, Arc, Barrier};
        use std::time::Duration;
        let service = SubmitQueueService::new(demo_repo(), 2);
        let queued = service
            .submit(
                "alice",
                "waits in the queue",
                service.head(),
                Patch::write(RepoPath::new("lib/l.rs").unwrap(), "pub fn l() { /* q */ }"),
            )
            .unwrap();
        let parked = Arc::new(Barrier::new(2));
        let resume = Arc::new(Barrier::new(2));
        let first_step = AtomicBool::new(true);
        let action: Box<StepAction> = {
            let (parked, resume) = (Arc::clone(&parked), Arc::clone(&resume));
            Box::new(move |_step, _tree| {
                if first_step.swap(false, Ordering::SeqCst) {
                    parked.wait();
                    resume.wait();
                }
                StepOutcome::Success
            })
        };
        std::thread::scope(|scope| {
            let audit = scope.spawn(|| service.verify_history(&action));
            parked.wait();
            let (answered, answer) = mpsc::channel();
            let service = &service;
            scope.spawn(move || {
                let status = service.status(queued);
                let head = service.head();
                let ticket = service
                    .submit("bob", "mid-audit", head, Patch::new())
                    .unwrap();
                let _ = answered.send((status, ticket));
            });
            // The wait only bounds the failure: with the lock held the
            // reader never answers, and the audit must still be let go.
            let got = answer.recv_timeout(Duration::from_secs(10));
            resume.wait();
            assert_eq!(audit.join().unwrap().unwrap(), 1);
            let (status, ticket) = got.expect("status/head/submit stalled behind the audit");
            assert_eq!(status, Some(TicketState::Queued));
            assert_eq!(service.status(ticket), Some(TicketState::Queued));
        });
    }

    #[test]
    fn infra_red_build_is_rebuilt_not_rejected() {
        use sq_exec::{InfraFault, InfraFaultKind, RetryPolicy};
        use std::sync::atomic::{AtomicU32, Ordering};
        let config = RecoveryConfig {
            retry: RetryPolicy::none(), // no step retries: force whole-build redos
            max_rebuilds: 2,
            quarantine_threshold: u32::MAX,
        };
        let service = with_recovery(config);
        let base = service.head();
        let t = service
            .submit(
                "alice",
                "lands despite a crashed worker",
                base,
                Patch::write(RepoPath::new("lib/l.rs").unwrap(), "pub fn l() { /* r */ }"),
            )
            .unwrap();
        // The very first step call crashes; every later call succeeds.
        let calls = AtomicU32::new(0);
        let action: Box<StepAction> = Box::new(move |_step, _tree| {
            if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                StepOutcome::InfraFailure(InfraFault {
                    kind: InfraFaultKind::WorkerCrash,
                    attempt: 1,
                })
            } else {
                StepOutcome::Success
            }
        });
        service.run_until_idle(&action).unwrap();
        assert!(matches!(service.status(t), Some(TicketState::Landed(_))));
        let stats = service.stats();
        assert_eq!((stats.landed, stats.rejected), (1, 0));
        assert_eq!((stats.infra_rebuilds, stats.infra_rejected), (1, 0));
    }

    #[test]
    fn rebuild_counts_are_dropped_with_the_verdict() {
        use sq_exec::{InfraFault, InfraFaultKind, RetryPolicy};
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let config = RecoveryConfig {
            retry: RetryPolicy::none(),
            max_rebuilds: 1,
            quarantine_threshold: u32::MAX,
        };
        let service = with_recovery(config);
        // Armed before each change: exactly one step of its first build
        // crashes, so every ticket gets a rebuild count of one.
        let armed = Arc::new(AtomicBool::new(false));
        let trigger = armed.clone();
        let action: Box<StepAction> = Box::new(move |_step, _tree| {
            if trigger.swap(false, Ordering::SeqCst) {
                StepOutcome::InfraFailure(InfraFault {
                    kind: InfraFaultKind::WorkerCrash,
                    attempt: 1,
                })
            } else {
                StepOutcome::Success
            }
        });
        for i in 0..50 {
            service
                .submit(
                    "alice",
                    format!("change {i}"),
                    service.head(),
                    Patch::write(
                        RepoPath::new("lib/l.rs").unwrap(),
                        format!("pub fn l() {{ /* rev {i} */ }}"),
                    ),
                )
                .unwrap();
            armed.store(true, Ordering::SeqCst);
            service.run_until_idle(&action).unwrap();
        }
        let stats = service.stats();
        assert_eq!((stats.landed, stats.rejected), (50, 0));
        assert_eq!(stats.infra_rebuilds, 50);
        assert!(service.inner.lock().rebuilds.is_empty());
    }

    #[test]
    fn exhausted_rebuilds_reject_with_infrastructure_reason() {
        use sq_exec::{InfraFault, InfraFaultKind, RetryPolicy};
        let config = RecoveryConfig {
            retry: RetryPolicy::none(),
            max_rebuilds: 1,
            quarantine_threshold: u32::MAX,
        };
        let service = with_recovery(config);
        let head_before = service.head();
        let t = service
            .submit(
                "bob",
                "doomed by the cluster",
                head_before,
                Patch::write(RepoPath::new("app/m.rs").unwrap(), "fn main() { /* x */ }"),
            )
            .unwrap();
        let action: Box<StepAction> = Box::new(|_step, _tree| {
            StepOutcome::InfraFailure(InfraFault {
                kind: InfraFaultKind::Timeout,
                attempt: 1,
            })
        });
        service.run_until_idle(&action).unwrap();
        match service.status(t) {
            Some(TicketState::Rejected(reason)) => {
                assert!(reason.contains("infrastructure"), "reason = {reason}");
                assert!(reason.contains("change not at fault"), "reason = {reason}");
            }
            other => panic!("expected infra rejection, got {other:?}"),
        }
        assert_eq!(service.head(), head_before);
        let stats = service.stats();
        assert_eq!(stats.infra_rejected, 1);
        assert_eq!(stats.infra_rebuilds, 1); // one redo, then gave up
    }

    #[test]
    fn chronic_flakes_quarantine_the_target_but_changes_still_land() {
        use sq_exec::{InfraFault, InfraFaultKind, RetryPolicy};
        use std::collections::HashMap as StdHashMap;
        let config = RecoveryConfig {
            retry: RetryPolicy::standard(3, 11),
            max_rebuilds: 2,
            quarantine_threshold: 2,
        };
        let service = with_recovery(config);
        // The lib compile flakes on every odd-numbered call (so: once
        // per landing, since each flake is retried to success); retries
        // absorb each flake and every change still lands.
        let seen: Mutex<StdHashMap<BuildStep, u32>> = Mutex::new(StdHashMap::new());
        let action: Box<StepAction> = Box::new(move |step, _tree| {
            let is_lib_compile = step.target.to_string().contains("//lib")
                && step.kind == sq_exec::StepKind::Compile;
            let mut seen = seen.lock();
            let n = seen.entry(step.clone()).or_insert(0);
            *n += 1;
            if is_lib_compile && *n % 2 == 1 {
                StepOutcome::InfraFailure(InfraFault {
                    kind: InfraFaultKind::TransientTooling,
                    attempt: 1,
                })
            } else {
                StepOutcome::Success
            }
        });
        for i in 0..2 {
            let base = service.head();
            service
                .submit(
                    "alice",
                    format!("lib v{i}"),
                    base,
                    Patch::write(
                        RepoPath::new("lib/l.rs").unwrap(),
                        format!("pub fn l() {{ /* q{i} */ }}"),
                    ),
                )
                .unwrap();
            service.run_until_idle(&action).unwrap();
        }
        let stats = service.stats();
        assert_eq!((stats.landed, stats.rejected), (2, 0));
        assert_eq!(stats.step_retries, 2);
        // Two observed flakes on //lib:lib crossed the threshold.
        assert_eq!(stats.quarantined, 1);
        let quarantined = service.state().quarantined;
        assert_eq!(
            quarantined.into_iter().collect::<Vec<_>>(),
            [("//lib:lib".to_string(), 2)]
        );
        // Quarantine is advisory: the audit still verifies everything.
        assert!(service.verify_history(&always_pass()).is_ok());
    }
}
