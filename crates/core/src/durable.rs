//! Durable SubmitQueue: every externally visible state transition is
//! journaled to `sq-store` *before* it is applied or acknowledged, so a
//! process death at any instant loses nothing that was acked and
//! half-applies nothing that was torn.
//!
//! The paper's SubmitQueue is a long-running service; its value is a
//! standing guarantee about mainline state, which a restart must not
//! void. This module holds:
//!
//! * [`ServiceEvent`] — what [`SubmitQueueService`] emits and the
//!   journal carries: enqueue, speculation start/abort, build verdict,
//!   commit, reject, quarantine. One journal record carries one *batch*
//!   of events (a whole transition), so a torn append loses the
//!   transition atomically rather than leaving a half-recorded verdict.
//! * [`DurableState`] — the service's tickets, queue and counters: the
//!   fold of all events, snapshotted between batches and reconstructed
//!   on open as `snapshot ⊕ journal suffix`. The service owns the only
//!   live copy.
//! * [`DurableSubmitQueue`] — the service plus a [`Wal`]: the same
//!   `submit` and `process_next`, with the `Wal` as the sink every
//!   batch is appended to before the service applies it, and a
//!   snapshot when the `Wal`'s cadence asks for one.
//!
//! Crash consistency around the one external side effect — the VCS
//! commit — leans on idempotence rather than two-phase commit: if the
//! process dies after `commit_patch` but before the verdict batch is
//! journaled, the ticket never left `Queued`, recovery finds the change
//! still pending and reprocesses it; the rebase then absorbs the patch
//! (it is already in HEAD), the repository reports
//! [`VcsError::EmptyCommit`](sq_vcs::VcsError), and the service lands
//! the ticket at the existing commit — converging to byte-identical
//! state with no double commit.

use crate::recovery::RecoveryConfig;
use crate::service::{JournalSink, StepAction, SubmitQueueService, TicketId, TicketState};
use parking_lot::Mutex;
use sq_obs::{JsonWriter, MetricsRegistry};
use sq_store::{
    CodecError, Decoder, DurableStore, DurableStoreConfig, Encoder, Recovery, Storage, StoreError,
    Wal,
};
use sq_vcs::{CommitId, FileOp, ObjectId, Patch, RepoPath, Repository};
use std::collections::{BTreeMap, VecDeque};

/// Outcome class of a speculation build, as journaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every affected step passed.
    Pass,
    /// A step failed: the change is at fault.
    Fail,
    /// Infrastructure failed: the change is not implicated.
    Infra,
}

impl Verdict {
    fn to_u8(self) -> u8 {
        match self {
            Verdict::Pass => 0,
            Verdict::Fail => 1,
            Verdict::Infra => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Self, CodecError> {
        match v {
            0 => Ok(Verdict::Pass),
            1 => Ok(Verdict::Fail),
            2 => Ok(Verdict::Infra),
            _ => Err(CodecError {
                what: "unknown verdict tag",
                offset: 0,
            }),
        }
    }
}

/// One journaled service event. The tags are the wire format — append
/// new variants with new tags, never renumber.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceEvent {
    /// A change entered the queue (acked to the submitter only after
    /// this event is durable).
    Enqueue {
        /// Ticket id assigned to the change.
        ticket: u64,
        /// Submitting author.
        author: String,
        /// Change description.
        description: String,
        /// Mainline commit the patch was developed against.
        base: CommitId,
        /// The patch itself.
        patch: Patch,
    },
    /// The planner picked the change and started its speculation build.
    SpeculationStarted {
        /// The change being built.
        ticket: u64,
    },
    /// The speculation attempt ended without a terminal verdict (e.g.
    /// an infra-red build scheduled for rebuild); the change re-enters
    /// the queue.
    SpeculationAborted {
        /// The change whose attempt aborted.
        ticket: u64,
        /// Why (audit trail; not replayed into state).
        reason: String,
    },
    /// The build controller's verdict on the change.
    BuildVerdict {
        /// The change judged.
        ticket: u64,
        /// Pass / fail / infrastructure.
        verdict: Verdict,
        /// Failure detail (empty on pass).
        detail: String,
    },
    /// The change landed on mainline at `commit`.
    Committed {
        /// The landed change.
        ticket: u64,
        /// Its mainline commit.
        commit: CommitId,
    },
    /// The change was rejected.
    Rejected {
        /// The rejected change.
        ticket: u64,
        /// Human-readable reason.
        reason: String,
        /// True when infrastructure (not the change) was at fault.
        infra: bool,
    },
    /// A build target crossed the flake threshold and was quarantined.
    Quarantined {
        /// The chronically flaky target (canonical `//pkg:name` label).
        target: String,
        /// Infra faults observed on it when it crossed.
        observations: u32,
    },
}

/// Append a commit id to `enc` as a 32-byte length-prefixed blob.
/// Shared wire idiom between the journal events here and the
/// `sq-server` request protocol, so both layers refuse the same
/// malformed shapes.
pub fn encode_commit(enc: &mut Encoder, c: CommitId) {
    enc.put_bytes(c.0.as_bytes());
}

/// Inverse of [`encode_commit`]; refuses blobs that are not exactly 32
/// bytes.
pub fn decode_commit(dec: &mut Decoder<'_>) -> Result<CommitId, CodecError> {
    let raw = dec.bytes()?;
    let arr: [u8; 32] = raw.try_into().map_err(|_| CodecError {
        what: "commit id is not 32 bytes",
        offset: 0,
    })?;
    Ok(CommitId(ObjectId::from_raw(arr)))
}

/// Append a patch to `enc` as a tagged file-op list (also shared with
/// the `sq-server` wire protocol).
pub fn encode_patch(enc: &mut Encoder, patch: &Patch) {
    let ops: Vec<&FileOp> = patch.ops().collect();
    enc.put_u32(u32::try_from(ops.len()).expect("patch op count fits in u32"));
    for op in ops {
        match op {
            FileOp::Write { path, content } => {
                enc.put_u8(0);
                enc.put_str(path.as_str());
                enc.put_str(content);
            }
            FileOp::Delete { path } => {
                enc.put_u8(1);
                enc.put_str(path.as_str());
            }
        }
    }
}

/// Inverse of [`encode_patch`]; refuses unknown file-op tags and
/// invalid repo paths.
pub fn decode_patch(dec: &mut Decoder<'_>) -> Result<Patch, CodecError> {
    let bad_path = |_| CodecError {
        what: "invalid repo path in patch",
        offset: 0,
    };
    let n = dec.u32()?;
    let mut patch = Patch::new();
    for _ in 0..n {
        match dec.u8()? {
            0 => {
                let path = RepoPath::new(dec.str()?).map_err(bad_path)?;
                let content = dec.str()?.to_string();
                patch.push(FileOp::Write { path, content });
            }
            1 => {
                let path = RepoPath::new(dec.str()?).map_err(bad_path)?;
                patch.push(FileOp::Delete { path });
            }
            _ => {
                return Err(CodecError {
                    what: "unknown file-op tag",
                    offset: 0,
                })
            }
        }
    }
    Ok(patch)
}

impl ServiceEvent {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            ServiceEvent::Enqueue {
                ticket,
                author,
                description,
                base,
                patch,
            } => {
                enc.put_u8(1);
                enc.put_u64(*ticket);
                enc.put_str(author);
                enc.put_str(description);
                encode_commit(enc, *base);
                encode_patch(enc, patch);
            }
            ServiceEvent::SpeculationStarted { ticket } => {
                enc.put_u8(2);
                enc.put_u64(*ticket);
            }
            ServiceEvent::SpeculationAborted { ticket, reason } => {
                enc.put_u8(3);
                enc.put_u64(*ticket);
                enc.put_str(reason);
            }
            ServiceEvent::BuildVerdict {
                ticket,
                verdict,
                detail,
            } => {
                enc.put_u8(4);
                enc.put_u64(*ticket);
                enc.put_u8(verdict.to_u8());
                enc.put_str(detail);
            }
            ServiceEvent::Committed { ticket, commit } => {
                enc.put_u8(5);
                enc.put_u64(*ticket);
                encode_commit(enc, *commit);
            }
            ServiceEvent::Rejected {
                ticket,
                reason,
                infra,
            } => {
                enc.put_u8(6);
                enc.put_u64(*ticket);
                enc.put_str(reason);
                enc.put_u8(u8::from(*infra));
            }
            ServiceEvent::Quarantined {
                target,
                observations,
            } => {
                enc.put_u8(7);
                enc.put_str(target);
                enc.put_u32(*observations);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match dec.u8()? {
            1 => Ok(ServiceEvent::Enqueue {
                ticket: dec.u64()?,
                author: dec.str()?.to_string(),
                description: dec.str()?.to_string(),
                base: decode_commit(dec)?,
                patch: decode_patch(dec)?,
            }),
            2 => Ok(ServiceEvent::SpeculationStarted { ticket: dec.u64()? }),
            3 => Ok(ServiceEvent::SpeculationAborted {
                ticket: dec.u64()?,
                reason: dec.str()?.to_string(),
            }),
            4 => Ok(ServiceEvent::BuildVerdict {
                ticket: dec.u64()?,
                verdict: Verdict::from_u8(dec.u8()?)?,
                detail: dec.str()?.to_string(),
            }),
            5 => Ok(ServiceEvent::Committed {
                ticket: dec.u64()?,
                commit: decode_commit(dec)?,
            }),
            6 => Ok(ServiceEvent::Rejected {
                ticket: dec.u64()?,
                reason: dec.str()?.to_string(),
                infra: dec.u8()? != 0,
            }),
            7 => Ok(ServiceEvent::Quarantined {
                target: dec.str()?.to_string(),
                observations: dec.u32()?,
            }),
            _ => Err(CodecError {
                what: "unknown service-event tag",
                offset: 0,
            }),
        }
    }
}

/// Encode a batch of events as one journal-record payload (one state
/// transition = one record, so tearing is all-or-nothing).
pub fn encode_batch(events: &[ServiceEvent]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u32(u32::try_from(events.len()).expect("batch fits in u32"));
    for ev in events {
        ev.encode(&mut enc);
    }
    enc.finish()
}

/// Decode one journal-record payload back into its event batch.
pub fn decode_batch(payload: &[u8]) -> Result<Vec<ServiceEvent>, CodecError> {
    let mut dec = Decoder::new(payload);
    let n = dec.u32()?;
    // The count is input: reserve no more than the payload could hold
    // (every event is at least its tag byte).
    let mut out = Vec::with_capacity((n as usize).min(dec.remaining()));
    for _ in 0..n {
        out.push(ServiceEvent::decode(&mut dec)?);
    }
    if !dec.is_empty() {
        return Err(CodecError {
            what: "trailing bytes after event batch",
            offset: 0,
        });
    }
    Ok(out)
}

/// A change as it sits in the durable queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuedChange {
    /// Ticket id.
    pub ticket: u64,
    /// Submitting author.
    pub author: String,
    /// Change description.
    pub description: String,
    /// Base commit the patch was developed against.
    pub base: CommitId,
    /// The patch.
    pub patch: Patch,
}

/// The tickets, queue and counters of [`SubmitQueueService`]: the fold
/// of every [`ServiceEvent`] since the beginning of time. This is what
/// the service reads and applies to, what snapshots serialize and what
/// recovery rebuilds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DurableState {
    /// Next ticket id to assign.
    pub next_ticket: u64,
    /// Pending changes in processing order.
    pub queue: VecDeque<QueuedChange>,
    /// Terminal and pending ticket states, by ticket id.
    pub states: BTreeMap<u64, TicketState>,
    /// Mainline head as of the last journaled commit (None before any).
    pub head: Option<CommitId>,
    /// Changes landed.
    pub landed: u64,
    /// Changes rejected (all reasons).
    pub rejected: u64,
    /// Changes rejected for infrastructure reasons (subset of
    /// `rejected`).
    pub infra_rejected: u64,
    /// Quarantined targets (canonical label → observations when
    /// quarantined).
    pub quarantined: BTreeMap<String, u32>,
}

impl DurableState {
    /// Fresh state: the fold over zero events.
    pub fn new() -> Self {
        DurableState {
            next_ticket: 1,
            ..DurableState::default()
        }
    }

    /// Fold one event into the state. Must stay deterministic: recovery
    /// replays exactly this function over the journal.
    pub fn apply(&mut self, event: &ServiceEvent) {
        match event {
            ServiceEvent::Enqueue {
                ticket,
                author,
                description,
                base,
                patch,
            } => {
                self.next_ticket = self.next_ticket.max(ticket + 1);
                self.states.insert(*ticket, TicketState::Queued);
                self.queue.push_back(QueuedChange {
                    ticket: *ticket,
                    author: author.clone(),
                    description: description.clone(),
                    base: *base,
                    patch: patch.clone(),
                });
            }
            // Audit-trail events: no state effect. (A change being
            // built stays at the front of the queue, so an aborted
            // attempt leaves it exactly where it was.)
            ServiceEvent::SpeculationStarted { .. }
            | ServiceEvent::SpeculationAborted { .. }
            | ServiceEvent::BuildVerdict { .. } => {}
            ServiceEvent::Committed { ticket, commit } => {
                self.queue.retain(|q| q.ticket != *ticket);
                self.states.insert(*ticket, TicketState::Landed(*commit));
                self.landed += 1;
                self.head = Some(*commit);
            }
            ServiceEvent::Rejected {
                ticket,
                reason,
                infra,
            } => {
                self.queue.retain(|q| q.ticket != *ticket);
                self.states
                    .insert(*ticket, TicketState::Rejected(reason.clone()));
                self.rejected += 1;
                if *infra {
                    self.infra_rejected += 1;
                }
            }
            ServiceEvent::Quarantined {
                target,
                observations,
            } => {
                self.quarantined.insert(target.clone(), *observations);
            }
        }
    }

    /// Serialize for a snapshot payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u64(self.next_ticket);
        enc.put_u64(self.landed);
        enc.put_u64(self.rejected);
        enc.put_u64(self.infra_rejected);
        match self.head {
            Some(c) => {
                enc.put_u8(1);
                encode_commit(&mut enc, c);
            }
            None => enc.put_u8(0),
        }
        enc.put_u32(u32::try_from(self.queue.len()).expect("queue fits in u32"));
        for q in &self.queue {
            enc.put_u64(q.ticket);
            enc.put_str(&q.author);
            enc.put_str(&q.description);
            encode_commit(&mut enc, q.base);
            encode_patch(&mut enc, &q.patch);
        }
        enc.put_u32(u32::try_from(self.states.len()).expect("states fit in u32"));
        for (ticket, state) in &self.states {
            enc.put_u64(*ticket);
            match state {
                TicketState::Queued => enc.put_u8(0),
                TicketState::Landed(c) => {
                    enc.put_u8(1);
                    encode_commit(&mut enc, *c);
                }
                TicketState::Rejected(reason) => {
                    enc.put_u8(2);
                    enc.put_str(reason);
                }
            }
        }
        enc.put_u32(u32::try_from(self.quarantined.len()).expect("quarantine fits in u32"));
        for (target, observations) in &self.quarantined {
            enc.put_str(target);
            enc.put_u32(*observations);
        }
        enc.finish()
    }

    /// Deserialize a snapshot payload.
    pub fn decode(payload: &[u8]) -> Result<Self, CodecError> {
        let mut dec = Decoder::new(payload);
        let mut state = DurableState {
            next_ticket: dec.u64()?,
            landed: dec.u64()?,
            rejected: dec.u64()?,
            infra_rejected: dec.u64()?,
            ..DurableState::default()
        };
        if dec.u8()? == 1 {
            state.head = Some(decode_commit(&mut dec)?);
        }
        for _ in 0..dec.u32()? {
            state.queue.push_back(QueuedChange {
                ticket: dec.u64()?,
                author: dec.str()?.to_string(),
                description: dec.str()?.to_string(),
                base: decode_commit(&mut dec)?,
                patch: decode_patch(&mut dec)?,
            });
        }
        for _ in 0..dec.u32()? {
            let ticket = dec.u64()?;
            let ts = match dec.u8()? {
                0 => TicketState::Queued,
                1 => TicketState::Landed(decode_commit(&mut dec)?),
                2 => TicketState::Rejected(dec.str()?.to_string()),
                _ => {
                    return Err(CodecError {
                        what: "unknown ticket-state tag",
                        offset: 0,
                    })
                }
            };
            state.states.insert(ticket, ts);
        }
        for _ in 0..dec.u32()? {
            let target = dec.str()?.to_string();
            let observations = dec.u32()?;
            state.quarantined.insert(target, observations);
        }
        if !dec.is_empty() {
            return Err(CodecError {
                what: "trailing bytes after durable state",
                offset: 0,
            });
        }
        Ok(state)
    }

    /// Deterministic sorted-key JSON export, for byte-exact comparison
    /// of recovered state against an uncrashed run.
    pub fn export_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("head");
        match self.head {
            Some(c) => w.value_str(&c.0.to_hex()),
            None => w.value_null(),
        }
        w.field_u64("infra_rejected", self.infra_rejected);
        w.field_u64("landed", self.landed);
        w.field_u64("next_ticket", self.next_ticket);
        w.key("queue");
        w.begin_array();
        for q in &self.queue {
            w.begin_object();
            w.field_str("author", &q.author);
            w.field_str("base", &q.base.0.to_hex());
            w.field_str("description", &q.description);
            w.key("ops");
            w.begin_array();
            for op in q.patch.ops() {
                w.begin_object();
                match op {
                    FileOp::Write { path, content } => {
                        w.field_str("content", content);
                        w.field_str("kind", "write");
                        w.field_str("path", path.as_str());
                    }
                    FileOp::Delete { path } => {
                        w.field_str("kind", "delete");
                        w.field_str("path", path.as_str());
                    }
                }
                w.end_object();
            }
            w.end_array();
            w.field_u64("ticket", q.ticket);
            w.end_object();
        }
        w.end_array();
        w.key("quarantined");
        w.begin_object();
        for (target, observations) in &self.quarantined {
            w.field_u64(target, u64::from(*observations));
        }
        w.end_object();
        w.field_u64("rejected", self.rejected);
        w.key("states");
        w.begin_object();
        for (ticket, state) in &self.states {
            w.key(&ticket.to_string());
            w.begin_object();
            match state {
                TicketState::Queued => w.field_str("state", "queued"),
                TicketState::Landed(c) => {
                    w.field_str("commit", &c.0.to_hex());
                    w.field_str("state", "landed");
                }
                TicketState::Rejected(reason) => {
                    w.field_str("reason", reason);
                    w.field_str("state", "rejected");
                }
            }
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }
}

fn corrupt_snapshot(e: CodecError) -> StoreError {
    StoreError::CorruptSnapshot {
        detail: format!("undecodable durable state: {e}"),
    }
}

fn corrupt_record(e: CodecError) -> StoreError {
    StoreError::CorruptJournal {
        offset: 0,
        detail: format!("undecodable event batch: {e}"),
    }
}

impl<W: Wal> JournalSink for W {
    fn append(&mut self, batch: &[ServiceEvent]) -> Result<(), StoreError> {
        Wal::append(self, &encode_batch(batch)).map(|_lsn| ())
    }
}

/// [`SubmitQueueService`] with its state journaled through any
/// [`Wal`] — the single-node [`DurableStore`] or the replicating
/// [`Leader`](sq_store::Leader): submissions are acked only once
/// durable per the WAL's ack discipline, and [`DurableSubmitQueue::open`]
/// (or [`failover::promote_from_follower`](crate::failover)) reconstructs
/// the exact acknowledged state after a crash.
///
/// Every mutating call returns `Result`: a [`StoreError`] means the
/// backing medium failed (or, under fault injection, the simulated
/// process died) and the handle must be abandoned — reopen to recover.
/// A [`StoreError::Fenced`] additionally means a newer leader exists
/// and this node must never serve again under its current epoch.
pub struct DurableSubmitQueue<W: Wal> {
    service: SubmitQueueService,
    /// The store lock: appends serialise on it, and a batch is applied
    /// to the service's state before it is released. Never held across
    /// a build.
    pub(crate) store: Mutex<W>,
}

impl<S: Storage> DurableSubmitQueue<DurableStore<S>> {
    /// Open the durable service: recover `snapshot ⊕ journal suffix`
    /// from `storage`, then start the service from exactly that state
    /// over `repo` (the VCS is the system of record for commits and
    /// survives independently of this store).
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
    /// service from exactly that state — the shared tail of every open
    /// path (single-node, leader, promotion).
    pub(crate) fn from_recovered(
        repo: Repository,
        threads: usize,
        recovery: RecoveryConfig,
        store: W,
        recovered: &Recovery,
    ) -> Result<Self, StoreError> {
        let mut state = match &recovered.snapshot {
            Some(payload) => DurableState::decode(payload).map_err(corrupt_snapshot)?,
            None => DurableState::new(),
        };
        for payload in &recovered.events {
            for ev in decode_batch(payload).map_err(corrupt_record)? {
                state.apply(&ev);
            }
        }
        Ok(DurableSubmitQueue {
            service: SubmitQueueService::recovered(repo, threads, recovery, state),
            store: Mutex::new(store),
        })
    }

    /// Submit a change. The returned ticket is the durable ack: the
    /// enqueue event is journaled and synced before this returns.
    pub fn submit(
        &self,
        author: impl Into<String>,
        description: impl Into<String>,
        base: CommitId,
        patch: Patch,
    ) -> Result<TicketId, StoreError> {
        let ticket = self
            .service
            .submit_through(&self.store, author, description, base, patch)?;
        self.checkpoint()?;
        Ok(ticket)
    }

    /// Process one queued change end to end, journaling the speculation
    /// start before the build and the terminal verdict after it.
    /// Returns the ticket handled, or `None` on an empty queue.
    pub fn process_next(&self, action: &StepAction) -> Result<Option<TicketId>, StoreError> {
        let processed = self.service.process_next_through(&self.store, action)?;
        if processed.is_some() {
            self.checkpoint()?;
        }
        Ok(processed)
    }

    /// Snapshot and compact the journal if the cadence says so. Runs
    /// where a ticket was just acked or judged, not at a speculation
    /// start. Under the store lock the service's state is exactly the
    /// fold of the journal, so this is a critical section of its own.
    fn checkpoint(&self) -> Result<(), StoreError> {
        let mut store = self.store.lock();
        if store.should_snapshot() {
            store.write_snapshot(&self.service.read_state(DurableState::encode))?;
        }
        Ok(())
    }

    /// Drain the queue. Returns how many process steps ran.
    pub fn run_until_idle(&self, action: &StepAction) -> Result<usize, StoreError> {
        let mut processed = 0;
        while self.process_next(action)?.is_some() {
            processed += 1;
        }
        Ok(processed)
    }

    /// The state of a change.
    pub fn status(&self, ticket: TicketId) -> Option<TicketState> {
        self.service.status(ticket)
    }

    /// Number of changes waiting in the speculation queue (acked but
    /// not yet landed or rejected). The serving layer uses this as its
    /// admission-control signal: past a configured bound it answers
    /// `Busy` instead of journaling another enqueue.
    pub fn queue_depth(&self) -> usize {
        self.service.read_state(|state| state.queue.len())
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
        self.service.read_state(|state| {
            let mut counts: BTreeMap<String, usize> = BTreeMap::new();
            for q in &state.queue {
                let mut dirs: std::collections::BTreeSet<&str> = Default::default();
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
        })
    }

    /// Current mainline HEAD.
    pub fn head(&self) -> CommitId {
        self.service.head()
    }

    /// The wrapped service (read-only access to stats and history
    /// verification).
    pub fn service(&self) -> &SubmitQueueService {
        &self.service
    }

    /// A clone of the underlying repository. The VCS is external state:
    /// a crash-recovery harness extracts it from a dead handle the way
    /// a real deployment's repository survives a service restart.
    pub fn repository(&self) -> Repository {
        self.service.repository()
    }

    /// Deterministic sorted-key JSON export of the service's state, for
    /// byte-exact state comparison across crash/recovery boundaries.
    pub fn export_state_json(&self) -> String {
        self.service.export_state_json()
    }

    /// Storage-layer counters (appends, fsyncs, snapshots, replay).
    pub fn store_stats(&self) -> sq_store::StoreStats {
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

#[cfg(test)]
mod tests {
    use super::*;
    use sq_exec::StepOutcome;
    use sq_store::{CrashKind, CrashPlan, MemStorage};
    use std::sync::{Arc, Mutex as StdMutex};

    type Shared = Arc<StdMutex<MemStorage>>;

    fn shared(plan: CrashPlan) -> Shared {
        Arc::new(StdMutex::new(MemStorage::with_crashes(plan)))
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

    fn open(repo: Repository, storage: &Shared) -> DurableSubmitQueue<DurableStore<Shared>> {
        DurableSubmitQueue::open(
            repo,
            2,
            RecoveryConfig::disabled(),
            storage.clone(),
            DurableStoreConfig::default(),
        )
        .unwrap()
    }

    fn lib_patch(v: u32) -> Patch {
        Patch::write(
            RepoPath::new("lib/l.rs").unwrap(),
            format!("pub fn l() {{ /* v{v} */ }}"),
        )
    }

    #[test]
    fn event_batches_round_trip() {
        let events = vec![
            ServiceEvent::Enqueue {
                ticket: 1,
                author: "alice".into(),
                description: "desc with \"quotes\"".into(),
                base: CommitId(ObjectId::from_raw([7; 32])),
                patch: Patch::from_ops([
                    FileOp::Write {
                        path: RepoPath::new("a/b.rs").unwrap(),
                        content: "content\nlines".into(),
                    },
                    FileOp::Delete {
                        path: RepoPath::new("c/d.rs").unwrap(),
                    },
                ]),
            },
            ServiceEvent::SpeculationStarted { ticket: 1 },
            ServiceEvent::SpeculationAborted {
                ticket: 1,
                reason: "why".into(),
            },
            ServiceEvent::BuildVerdict {
                ticket: 1,
                verdict: Verdict::Infra,
                detail: "timeout".into(),
            },
            ServiceEvent::Committed {
                ticket: 1,
                commit: CommitId(ObjectId::from_raw([9; 32])),
            },
            ServiceEvent::Rejected {
                ticket: 2,
                reason: "red".into(),
                infra: false,
            },
            ServiceEvent::Quarantined {
                target: "//lib:lib".into(),
                observations: 3,
            },
        ];
        assert_eq!(decode_batch(&encode_batch(&events)).unwrap(), events);
        assert_eq!(decode_batch(&encode_batch(&[])).unwrap(), vec![]);
    }

    #[test]
    fn decode_batch_refuses_a_count_its_payload_cannot_hold() {
        assert!(decode_batch(&[0xFF; 4]).is_err());
        let mut short = encode_batch(&[ServiceEvent::SpeculationStarted { ticket: 1 }]);
        short[..4].copy_from_slice(&3u32.to_le_bytes());
        assert!(decode_batch(&short).is_err());
    }

    #[test]
    fn durable_state_round_trips_through_snapshot_encoding() {
        let mut state = DurableState::new();
        state.apply(&ServiceEvent::Enqueue {
            ticket: 1,
            author: "alice".into(),
            description: "one".into(),
            base: CommitId(ObjectId::from_raw([1; 32])),
            patch: lib_patch(1),
        });
        state.apply(&ServiceEvent::Committed {
            ticket: 1,
            commit: CommitId(ObjectId::from_raw([2; 32])),
        });
        state.apply(&ServiceEvent::Enqueue {
            ticket: 2,
            author: "bob".into(),
            description: "two".into(),
            base: CommitId(ObjectId::from_raw([2; 32])),
            patch: lib_patch(2),
        });
        state.apply(&ServiceEvent::Quarantined {
            target: "//lib:lib".into(),
            observations: 4,
        });
        let decoded = DurableState::decode(&state.encode()).unwrap();
        assert_eq!(decoded, state);
        assert_eq!(decoded.export_json(), state.export_json());
    }

    #[test]
    fn lands_and_survives_clean_reopen() {
        let storage = shared(CrashPlan::none());
        let dq = open(demo_repo(), &storage);
        let t = dq.submit("alice", "v1", dq.head(), lib_patch(1)).unwrap();
        dq.run_until_idle(&always_pass()).unwrap();
        assert!(matches!(dq.status(t), Some(TicketState::Landed(_))));
        let exported = dq.export_state_json();
        let repo = dq.repository();
        drop(dq);
        let dq2 = open(repo, &storage);
        assert_eq!(dq2.export_state_json(), exported);
        assert!(matches!(dq2.status(t), Some(TicketState::Landed(_))));
    }

    #[test]
    fn queued_submission_survives_reopen_and_lands() {
        let storage = shared(CrashPlan::none());
        let dq = open(demo_repo(), &storage);
        let t = dq.submit("alice", "v1", dq.head(), lib_patch(1)).unwrap();
        // Simulated death before processing; the enqueue was acked.
        let repo = dq.repository();
        drop(dq);
        let dq2 = open(repo, &storage);
        assert_eq!(dq2.status(t), Some(TicketState::Queued));
        dq2.run_until_idle(&always_pass()).unwrap();
        match dq2.status(t) {
            Some(TicketState::Landed(c)) => assert_eq!(dq2.head(), c),
            other => panic!("expected landed, got {other:?}"),
        }
    }

    // Mutating-op ordinals on a fresh store, first submission:
    //   0 = journal magic append, 1 = Enqueue append,
    //   2 = SpeculationStarted append, 3 = verdict-batch append.

    #[test]
    fn crash_between_commit_and_journal_does_not_double_commit() {
        // The build commits to the repo, then the verdict append (op 3)
        // tears: the journal says "still pending" while the VCS has the
        // commit. Recovery must converge without a second commit.
        let storage = shared(CrashPlan::at_op(3, CrashKind::Torn));
        let dq = open(demo_repo(), &storage);
        let t = dq.submit("alice", "v1", dq.head(), lib_patch(1)).unwrap();
        let err = dq.process_next(&always_pass()).unwrap_err();
        assert!(matches!(err, StoreError::Crashed { .. }));
        // The verdict never became durable, so it never became visible.
        assert_eq!(dq.status(t), Some(TicketState::Queued));
        let repo = dq.repository();
        let commits_before = repo.log(repo.head()).unwrap().len();
        drop(dq);
        storage.lock().unwrap().revive();
        let dq2 = open(repo, &storage);
        assert_eq!(dq2.status(t), Some(TicketState::Queued));
        dq2.run_until_idle(&always_pass()).unwrap();
        match dq2.status(t) {
            // EmptyCommit path: landed at the existing commit.
            Some(TicketState::Landed(c)) => assert_eq!(c, dq2.head()),
            other => panic!("expected landed, got {other:?}"),
        }
        let repo2 = dq2.repository();
        assert_eq!(
            repo2.log(repo2.head()).unwrap().len(),
            commits_before,
            "recovery must not create a second commit"
        );
    }

    #[test]
    fn after_write_crash_on_verdict_preserves_the_landing() {
        // The verdict batch reaches the medium but the ack is lost:
        // recovery must see the change as landed, not reprocess it.
        let storage = shared(CrashPlan::at_op(3, CrashKind::AfterWrite));
        let dq = open(demo_repo(), &storage);
        let t = dq.submit("alice", "v1", dq.head(), lib_patch(1)).unwrap();
        assert!(dq.process_next(&always_pass()).is_err());
        let repo = dq.repository();
        drop(dq);
        storage.lock().unwrap().revive();
        let dq2 = open(repo, &storage);
        assert!(matches!(dq2.status(t), Some(TicketState::Landed(_))));
        // Nothing left to do.
        assert!(dq2.process_next(&always_pass()).unwrap().is_none());
    }

    #[test]
    fn torn_enqueue_is_not_acked_and_not_recovered() {
        let storage = shared(CrashPlan::at_op(1, CrashKind::Torn));
        let dq = open(demo_repo(), &storage);
        let err = dq
            .submit("alice", "v1", dq.head(), lib_patch(1))
            .unwrap_err();
        assert!(matches!(err, StoreError::Crashed { .. }));
        let repo = dq.repository();
        drop(dq);
        storage.lock().unwrap().revive();
        let dq2 = open(repo, &storage);
        // The un-acked enqueue vanished with the torn tail; a resubmit
        // deterministically reuses the ticket id.
        assert!(dq2.process_next(&always_pass()).unwrap().is_none());
        let t = dq2.submit("alice", "v1", dq2.head(), lib_patch(1)).unwrap();
        assert_eq!(t, TicketId(1));
    }

    #[test]
    fn after_write_crash_on_enqueue_preserves_the_submission() {
        let storage = shared(CrashPlan::at_op(1, CrashKind::AfterWrite));
        let dq = open(demo_repo(), &storage);
        assert!(dq.submit("alice", "v1", dq.head(), lib_patch(1)).is_err());
        let repo = dq.repository();
        drop(dq);
        storage.lock().unwrap().revive();
        let dq2 = open(repo, &storage);
        // Journaled-but-unacked: the submission IS durable.
        assert_eq!(dq2.status(TicketId(1)), Some(TicketState::Queued));
        dq2.run_until_idle(&always_pass()).unwrap();
        assert!(matches!(
            dq2.status(TicketId(1)),
            Some(TicketState::Landed(_))
        ));
    }

    #[test]
    fn snapshot_cadence_compacts_and_recovery_matches() {
        let storage = shared(CrashPlan::none());
        let dq = DurableSubmitQueue::open(
            demo_repo(),
            2,
            RecoveryConfig::disabled(),
            storage.clone(),
            DurableStoreConfig::with_snapshot_every(3),
        )
        .unwrap();
        for v in 0..4 {
            dq.submit("alice", format!("v{v}"), dq.head(), lib_patch(v))
                .unwrap();
            dq.run_until_idle(&always_pass()).unwrap();
        }
        assert!(dq.store_stats().snapshots >= 1);
        let exported = dq.export_state_json();
        let repo = dq.repository();
        drop(dq);
        let dq2 = open(repo, &storage);
        assert_eq!(dq2.export_state_json(), exported);
    }

    #[test]
    fn metrics_recording_exposes_store_counters() {
        let storage = shared(CrashPlan::none());
        let dq = open(demo_repo(), &storage);
        dq.submit("alice", "v1", dq.head(), lib_patch(1)).unwrap();
        dq.run_until_idle(&always_pass()).unwrap();
        let mut metrics = MetricsRegistry::new();
        dq.record_into(&mut metrics);
        assert!(metrics.counter("store.journal.appends") >= 2);
        assert!(metrics.counter("store.journal.fsyncs") >= 2);
        assert!(metrics.gauge("store.recovery.replay_micros").is_some());
    }

    #[test]
    fn store_export_is_idempotent_across_repeated_exports() {
        // Regression for the cumulative-total-into-counter bug class:
        // exporting the same StoreStats snapshot twice must report the
        // same values as exporting it once.
        let storage = shared(CrashPlan::none());
        let dq = open(demo_repo(), &storage);
        dq.submit("alice", "v1", dq.head(), lib_patch(1)).unwrap();
        dq.run_until_idle(&always_pass()).unwrap();
        sq_obs::assert_idempotent_export(|m| dq.record_into(m));
    }
}
