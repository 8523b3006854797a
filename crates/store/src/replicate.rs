//! WAL-shipping replication: a [`Leader`] streams journal records to N
//! [`Follower`] replicas over the [`Storage`] abstraction.
//!
//! ## Wire format
//!
//! Records travel in [`ShipBatch`] frames:
//!
//! ```text
//! "SQSHIP1\n"            8-byte magic
//! [u64 epoch]            the shipping leader's fencing epoch
//! [u64 first_lsn]        LSN of the first record in the batch
//! [u32 count]            number of records
//! [u32 body_len]         bytes of body
//! [u32 crc]              CRC-32 over epoch ‖ first_lsn ‖ count ‖ body
//! body                   `count` journal-encoded records, contiguous LSNs
//! ```
//!
//! The outer CRC plus the per-record journal checksums mean any bit
//! flip or truncation anywhere in a frame is refused as
//! [`StoreError::CorruptShip`] before a single byte reaches the
//! follower's journal.
//!
//! ## Epoch fencing
//!
//! Every frame carries the leader's **epoch**, persisted in a small
//! atomic meta file next to the journal. Promotion bumps the epoch and
//! persists it *before* the new leader accepts work; a replica that has
//! adopted epoch E+1 answers any epoch-E frame with
//! [`StoreError::Fenced`], which deposes the stale leader (it marks
//! itself fenced and refuses all further appends). That is what makes
//! failover double-commit-free: the old leader can never ack work the
//! new timeline does not contain. Epoch *adoption* (batch epoch greater
//! than ours) is only legal when the batch extends our journal exactly;
//! otherwise the follower demands a resync, because a tail written
//! under a deposed epoch can diverge from the new leader's log and must
//! be discarded, never merged.
//!
//! ## Ack modes and graceful degradation
//!
//! Shipping is synchronous within [`Wal::append`]: local journal first
//! (write-ahead), then every live link. [`AckMode::Quorum`] counts the
//! leader plus followers as voters and records whether each append was
//! journaled on a majority before the caller was acked; when links are
//! down the append still succeeds — the guarantee degrades *visibly*
//! (`degraded_acks`, [`ReplicationStatus::Degraded`]) rather than
//! blocking the queue, matching the paper's always-on service bias.
//! [`AckMode::Async`] is explicit best-effort. [`Leader::reconnect`] is
//! one mechanical attempt; when to call it is the caller's decision.

use crate::checksum::Crc32;
use crate::journal;
use crate::storage::{Storage, StoreError};
use crate::{DurableStore, DurableStoreConfig, Recovery};

/// Ship-frame magic: identifies the format and its version.
pub const SHIP_MAGIC: &[u8; 8] = b"SQSHIP1\n";

/// Replica meta-file magic (persisted epoch).
pub const META_MAGIC: &[u8; 8] = b"SQMETA1\n";

/// When does an append count as acknowledged?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckMode {
    /// Best-effort: the local journal alone acks; shipping failures
    /// only mark links down.
    Async,
    /// The append should be journaled on a majority of (leader +
    /// followers) before ack; shortfalls are recorded as
    /// `degraded_acks` and surface in [`ReplicationStatus::Degraded`]
    /// instead of blocking.
    Quorum,
}

/// A link whose durable LSN trails the leader by more than this counts
/// as *lagging* in [`ReplicationStatus::Degraded`].
const MAX_LAG: u64 = 64;

/// Resync suffixes are shipped in chunks of at most this many records
/// per frame.
const BATCH_MAX_RECORDS: usize = 32;

/// Tuning for a [`Leader`] and its [`Follower`] links.
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// Acknowledgement discipline.
    pub ack_mode: AckMode,
    /// Name of the epoch meta file within the backend.
    pub meta_file: String,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            ack_mode: AckMode::Quorum,
            meta_file: "replica.meta".to_string(),
        }
    }
}

impl ReplicationConfig {
    /// Defaults with an explicit ack mode.
    pub fn with_ack_mode(ack_mode: AckMode) -> Self {
        ReplicationConfig {
            ack_mode,
            ..Self::default()
        }
    }
}

fn encode_meta(epoch: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(META_MAGIC.len() + 12);
    out.extend_from_slice(META_MAGIC);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&crate::checksum::crc32(&epoch.to_le_bytes()).to_le_bytes());
    out
}

fn decode_meta(bytes: &[u8]) -> Result<u64, StoreError> {
    let corrupt = |detail: &str| StoreError::CorruptSnapshot {
        detail: format!("replica meta: {detail}"),
    };
    if bytes.len() != META_MAGIC.len() + 12 {
        return Err(corrupt("wrong length"));
    }
    if &bytes[..META_MAGIC.len()] != META_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let epoch_bytes: [u8; 8] = bytes[8..16].try_into().expect("8 bytes");
    let crc = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
    if crate::checksum::crc32(&epoch_bytes) != crc {
        return Err(corrupt("checksum mismatch"));
    }
    Ok(u64::from_le_bytes(epoch_bytes))
}

/// One replication frame: a contiguous run of journal records stamped
/// with the shipping leader's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShipBatch {
    /// The shipping leader's fencing epoch.
    pub epoch: u64,
    /// LSN of the first record (records are contiguous from here).
    pub first_lsn: u64,
    /// The records, in LSN order.
    pub records: Vec<journal::Record>,
}

impl ShipBatch {
    /// Frame a contiguous run of records (empty batches are legal and
    /// decode back to empty).
    pub fn new(epoch: u64, records: Vec<journal::Record>) -> Self {
        let first_lsn = records.first().map(|r| r.lsn).unwrap_or(0);
        ShipBatch {
            epoch,
            first_lsn,
            records,
        }
    }

    /// Serialize to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        for r in &self.records {
            body.extend_from_slice(&journal::encode_record(r.lsn, &r.payload));
        }
        let count = u32::try_from(self.records.len()).expect("batch count fits in u32");
        let body_len = u32::try_from(body.len()).expect("batch body fits in u32");
        let mut crc = Crc32::new();
        crc.update(&self.epoch.to_le_bytes());
        crc.update(&self.first_lsn.to_le_bytes());
        crc.update(&count.to_le_bytes());
        crc.update(&body);
        let mut out = Vec::with_capacity(SHIP_MAGIC.len() + 28 + body.len());
        out.extend_from_slice(SHIP_MAGIC);
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.first_lsn.to_le_bytes());
        out.extend_from_slice(&count.to_le_bytes());
        out.extend_from_slice(&body_len.to_le_bytes());
        out.extend_from_slice(&crc.finish().to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Parse and fully validate wire bytes. Any truncation, bit flip,
    /// count mismatch, or LSN discontinuity is [`StoreError::CorruptShip`]:
    /// a frame either arrives exactly as framed or is refused whole.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let corrupt = |detail: &str| StoreError::CorruptShip {
            detail: detail.to_string(),
        };
        const HEAD: usize = 8 + 8 + 8 + 4 + 4 + 4;
        if bytes.len() < HEAD {
            return Err(corrupt("short header"));
        }
        if &bytes[..SHIP_MAGIC.len()] != SHIP_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        let epoch = u64_at(8);
        let first_lsn = u64_at(16);
        let count = u32_at(24) as usize;
        let body_len = u32_at(28) as usize;
        let crc = u32_at(32);
        let body = &bytes[HEAD..];
        if body.len() != body_len {
            return Err(corrupt("body length mismatch"));
        }
        let mut check = Crc32::new();
        check.update(&epoch.to_le_bytes());
        check.update(&first_lsn.to_le_bytes());
        check.update(&(count as u32).to_le_bytes());
        check.update(body);
        if check.finish() != crc {
            return Err(corrupt("frame checksum mismatch"));
        }
        // The body is journal framing without the file magic; re-frame
        // it and reuse the hardened journal scanner. A "torn tail" in a
        // fully-delivered frame is damage, not a crash artifact.
        let mut framed = journal::MAGIC.to_vec();
        framed.extend_from_slice(body);
        let scan = match journal::scan(&framed) {
            Ok(scan) => scan,
            Err(StoreError::CorruptJournal { detail, .. }) => {
                return Err(corrupt(&format!("record: {detail}")))
            }
            Err(e) => return Err(e),
        };
        if scan.torn_bytes > 0 {
            return Err(corrupt("torn record framing"));
        }
        if scan.records.len() != count {
            return Err(corrupt("record count mismatch"));
        }
        for (i, r) in scan.records.iter().enumerate() {
            if r.lsn != first_lsn + i as u64 {
                return Err(corrupt("non-contiguous lsns"));
            }
        }
        Ok(ShipBatch {
            epoch,
            first_lsn,
            records: scan.records,
        })
    }
}

/// A replica: a [`DurableStore`] that accepts shipped frames instead of
/// assigning its own LSNs, plus the persisted fencing epoch.
#[derive(Debug)]
pub struct Follower<S: Storage> {
    store: DurableStore<S>,
    epoch: u64,
    meta_file: String,
}

impl<S: Storage> Follower<S> {
    /// Open (or create) a replica over `storage`, recovering whatever
    /// the medium holds — including truncating a torn tail left by a
    /// crash mid-ship.
    pub fn open(
        storage: S,
        store_config: DurableStoreConfig,
        replication: &ReplicationConfig,
    ) -> Result<(Self, Recovery), StoreError> {
        let (mut store, recovery) = DurableStore::open(storage, store_config)?;
        let epoch = match store.storage.read(&replication.meta_file)? {
            None => 0,
            Some(bytes) => decode_meta(&bytes)?,
        };
        Ok((
            Follower {
                store,
                epoch,
                meta_file: replication.meta_file.clone(),
            },
            recovery,
        ))
    }

    /// The persisted fencing epoch (0 = never led or followed anyone).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Highest LSN durably journaled here.
    pub fn durable_lsn(&self) -> u64 {
        self.store.next_lsn() - 1
    }

    /// The underlying store (read-only).
    pub fn store(&self) -> &DurableStore<S> {
        &self.store
    }

    fn persist_epoch(&mut self, epoch: u64) -> Result<(), StoreError> {
        let bytes = encode_meta(epoch);
        self.store.storage.write_atomic(&self.meta_file, &bytes)?;
        self.store.storage.sync(&self.meta_file)?;
        self.epoch = epoch;
        Ok(())
    }

    /// The fence lives on the *medium*, not in this handle: a promotion
    /// may have gone through another handle over the same storage (the
    /// deposed-leader-still-holds-a-link case), so every receive path
    /// re-reads the persisted epoch before judging the sender's.
    fn refresh_epoch(&mut self) -> Result<(), StoreError> {
        if let Some(bytes) = self.store.storage.read(&self.meta_file)? {
            self.epoch = self.epoch.max(decode_meta(&bytes)?);
        }
        Ok(())
    }

    /// Decode and apply one wire frame; returns the new durable LSN.
    pub fn append_encoded(&mut self, bytes: &[u8]) -> Result<u64, StoreError> {
        let batch = ShipBatch::decode(bytes)?;
        self.append_batch(&batch)
    }

    /// Apply one frame. Stale epochs are [`StoreError::Fenced`]; newer
    /// epochs are adopted only when the frame extends our journal
    /// exactly (anything else needs a leader-driven resync); re-shipped
    /// records at or below our durable LSN are skipped idempotently.
    pub fn append_batch(&mut self, batch: &ShipBatch) -> Result<u64, StoreError> {
        self.refresh_epoch()?;
        if batch.epoch < self.epoch {
            return Err(StoreError::Fenced {
                ours: self.epoch,
                theirs: batch.epoch,
            });
        }
        let durable = self.durable_lsn();
        if batch.epoch > self.epoch {
            if !batch.records.is_empty() && batch.first_lsn != durable + 1 {
                // Our tail was written under a deposed epoch and may
                // diverge; refuse to graft the new timeline onto it.
                return Err(StoreError::ReplicaGap {
                    expected: durable + 1,
                    got: batch.first_lsn,
                });
            }
            self.persist_epoch(batch.epoch)?;
        }
        let mut applied = self.durable_lsn();
        for r in &batch.records {
            if r.lsn <= applied {
                continue;
            }
            self.store.append_at(r.lsn, &r.payload)?;
            applied = r.lsn;
        }
        Ok(applied)
    }

    /// Install a leader-shipped snapshot, replacing local state (the
    /// catch-up path when the suffix we miss was already compacted, and
    /// the rebase path for a rejoining deposed leader).
    pub fn install_snapshot(
        &mut self,
        epoch: u64,
        lsn: u64,
        state: &[u8],
    ) -> Result<(), StoreError> {
        self.refresh_epoch()?;
        if epoch < self.epoch {
            return Err(StoreError::Fenced {
                ours: self.epoch,
                theirs: epoch,
            });
        }
        if epoch > self.epoch {
            self.persist_epoch(epoch)?;
        }
        self.store.install_snapshot(lsn, state)
    }

    /// Erase local state and adopt `epoch`, ahead of a full resync from
    /// a leader with no snapshot to ship.
    pub(crate) fn reset_to_epoch(&mut self, epoch: u64) -> Result<(), StoreError> {
        self.refresh_epoch()?;
        if epoch < self.epoch {
            return Err(StoreError::Fenced {
                ours: self.epoch,
                theirs: epoch,
            });
        }
        self.store.reset()?;
        if epoch > self.epoch {
            self.persist_epoch(epoch)?;
        }
        Ok(())
    }

    /// Claim leadership at exactly `epoch` (must exceed ours), persisting
    /// it *before* returning — the fence is durable before the new
    /// leader accepts any work. The coordinator (`core::failover`)
    /// passes max-known-epoch + 1 so successive leaders never collide.
    pub fn promote_to(&mut self, epoch: u64) -> Result<u64, StoreError> {
        self.refresh_epoch()?;
        if epoch <= self.epoch {
            return Err(StoreError::Fenced {
                ours: self.epoch,
                theirs: epoch,
            });
        }
        self.persist_epoch(epoch)?;
        Ok(epoch)
    }

    /// Claim leadership at our epoch + 1 (single-coordinator shortcut).
    pub fn promote(&mut self) -> Result<u64, StoreError> {
        self.promote_to(self.epoch + 1)
    }
}

/// Per-link snapshot for status and observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkState {
    /// True when the link is down (follower unreachable since the last
    /// failed ship; [`Leader::reconnect`] revives it).
    pub down: bool,
    /// Highest LSN known durable on the follower.
    pub durable_lsn: u64,
    /// LSN delta behind the leader.
    pub lag: u64,
}

/// Replication health, coarsest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationStatus {
    /// Every link up and within 64 records of the leader.
    Healthy,
    /// Serving, but the durability guarantee is weaker than configured.
    Degraded {
        /// Links currently down.
        down: usize,
        /// Links (up or down) trailing by more than 64 records.
        lagging: usize,
        /// Whether live replicas still form a majority of voters.
        quorum_ok: bool,
    },
    /// A newer epoch exists: this leader is deposed and refuses all
    /// appends until it rejoins as a follower.
    Fenced {
        /// Our (stale) epoch.
        epoch: u64,
        /// The newer epoch that refused us.
        newer: u64,
    },
}

/// Shipping and failover counters (plain integers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Frames shipped successfully (appends and resync chunks).
    pub ships: u64,
    /// Records shipped successfully.
    pub shipped_records: u64,
    /// Wire bytes shipped successfully.
    pub shipped_bytes: u64,
    /// Appends journaled on a majority before ack (Quorum mode).
    pub acked_quorum: u64,
    /// Appends acked *without* a majority (Quorum mode only).
    pub degraded_acks: u64,
    /// Ship failures that marked a link down.
    pub link_drops: u64,
    /// Times a follower refused us with a newer epoch.
    pub fence_refusals: u64,
    /// Resyncs performed (attach and reconnect).
    pub resyncs: u64,
    /// Snapshots installed on followers during resync or compaction.
    pub snapshots_installed: u64,
    /// Successful reconnects of a down link.
    pub reconnects: u64,
    /// Torn-tail bytes truncated while opening followers (crash
    /// residue on replica media, repaired during resync).
    pub follower_truncated_bytes: u64,
}

#[derive(Debug)]
struct Link<S: Storage> {
    storage: S,
    store_config: DurableStoreConfig,
    follower: Option<Follower<S>>,
    last_durable: u64,
}

/// A [`DurableStore`] that ships every append to its followers.
///
/// `S: Clone` must alias the same medium (true of [`FsStorage`]
/// (shared root) and `Arc<Mutex<MemStorage>>`): the leader keeps a
/// clone per link so a down follower can be reopened over its
/// surviving medium.
///
/// [`FsStorage`]: crate::FsStorage
#[derive(Debug)]
pub struct Leader<S: Storage + Clone> {
    local: DurableStore<S>,
    epoch: u64,
    config: ReplicationConfig,
    links: Vec<Link<S>>,
    stats: ReplicationStats,
    fenced: Option<(u64, u64)>,
}

impl<S: Storage + Clone> Leader<S> {
    /// Open (or create) a leader with no links yet. A fresh medium
    /// starts at epoch 1; a promoted or recovering one resumes the
    /// epoch persisted in its meta file.
    pub fn open(
        storage: S,
        store_config: DurableStoreConfig,
        config: ReplicationConfig,
    ) -> Result<(Self, Recovery), StoreError> {
        let (mut local, recovery) = DurableStore::open(storage, store_config)?;
        let epoch = match local.storage.read(&config.meta_file)? {
            Some(bytes) => decode_meta(&bytes)?,
            None => {
                let bytes = encode_meta(1);
                local.storage.write_atomic(&config.meta_file, &bytes)?;
                local.storage.sync(&config.meta_file)?;
                1
            }
        };
        Ok((
            Leader {
                local,
                epoch,
                config,
                links: Vec::new(),
                stats: ReplicationStats::default(),
                fenced: None,
            },
            recovery,
        ))
    }

    /// Our fencing epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The local store (read-only).
    pub fn local(&self) -> &DurableStore<S> {
        &self.local
    }

    /// Replication configuration.
    pub fn config(&self) -> &ReplicationConfig {
        &self.config
    }

    /// Shipping and failover counters.
    pub fn replication_stats(&self) -> &ReplicationStats {
        &self.stats
    }

    /// Highest LSN durably journaled locally.
    pub fn durable_lsn(&self) -> u64 {
        self.local.next_lsn() - 1
    }

    /// Per-link health and lag, in attach order.
    pub fn link_states(&self) -> Vec<LinkState> {
        let durable = self.durable_lsn();
        self.links
            .iter()
            .map(|l| LinkState {
                down: l.follower.is_none(),
                durable_lsn: l.last_durable,
                lag: durable.saturating_sub(l.last_durable),
            })
            .collect()
    }

    /// Attach a follower over `storage` and synchronize it to our
    /// state, whatever the medium holds — fresh, lagging, or a deposed
    /// leader's divergent history. Returns the link index.
    pub fn attach_follower(
        &mut self,
        storage: S,
        store_config: DurableStoreConfig,
    ) -> Result<usize, StoreError> {
        let (mut follower, recovery) =
            Follower::open(storage.clone(), store_config.clone(), &self.config)?;
        self.stats.follower_truncated_bytes += recovery.truncated_tail_bytes;
        let durable = resync(&mut self.local, self.epoch, &mut self.stats, &mut follower)?;
        self.links.push(Link {
            storage,
            store_config,
            follower: Some(follower),
            last_durable: durable,
        });
        Ok(self.links.len() - 1)
    }

    /// Reopen a down link over its surviving medium and resync it.
    /// Scheduling (attempt caps, backoff) is the caller's job; each
    /// call is one attempt and errors if the medium is still dead.
    pub fn reconnect(&mut self, idx: usize) -> Result<(), StoreError> {
        let link = &mut self.links[idx];
        let (mut follower, recovery) = Follower::open(
            link.storage.clone(),
            link.store_config.clone(),
            &self.config,
        )?;
        self.stats.follower_truncated_bytes += recovery.truncated_tail_bytes;
        let durable = resync(&mut self.local, self.epoch, &mut self.stats, &mut follower)?;
        let link = &mut self.links[idx];
        link.follower = Some(follower);
        link.last_durable = durable;
        self.stats.reconnects += 1;
        Ok(())
    }

    /// Current replication health.
    pub fn status(&self) -> ReplicationStatus {
        if let Some((epoch, newer)) = self.fenced {
            return ReplicationStatus::Fenced { epoch, newer };
        }
        let durable = self.durable_lsn();
        let mut down = 0usize;
        let mut lagging = 0usize;
        let mut live = 1usize; // the leader votes for itself
        for link in &self.links {
            if link.follower.is_none() {
                down += 1;
            } else {
                live += 1;
            }
            if durable.saturating_sub(link.last_durable) > MAX_LAG {
                lagging += 1;
            }
        }
        if down == 0 && lagging == 0 {
            ReplicationStatus::Healthy
        } else {
            let voters = 1 + self.links.len();
            ReplicationStatus::Degraded {
                down,
                lagging,
                quorum_ok: live > voters / 2,
            }
        }
    }

    fn ship_to_links(&mut self, lsn: u64, payload: &[u8]) -> Result<(), StoreError> {
        let batch = ShipBatch::new(
            self.epoch,
            vec![journal::Record {
                lsn,
                payload: payload.to_vec(),
            }],
        );
        let bytes = batch.encode();
        let mut acked = 1usize; // local journal already holds it
        for link in &mut self.links {
            let Some(follower) = link.follower.as_mut() else {
                continue;
            };
            match follower.append_encoded(&bytes) {
                Ok(durable) => {
                    link.last_durable = durable;
                    acked += 1;
                    self.stats.ships += 1;
                    self.stats.shipped_records += 1;
                    self.stats.shipped_bytes += bytes.len() as u64;
                }
                Err(StoreError::Fenced { ours, theirs }) => {
                    // `ours` is the follower's (newer) epoch: we are
                    // the stale party. Depose ourselves durably-enough
                    // (in memory; our epoch on disk is already stale)
                    // and refuse this and every future append.
                    self.stats.fence_refusals += 1;
                    self.fenced = Some((theirs, ours));
                    link.follower = None;
                    return Err(StoreError::Fenced { ours, theirs });
                }
                Err(_) => {
                    link.follower = None;
                    self.stats.link_drops += 1;
                }
            }
        }
        if self.config.ack_mode == AckMode::Quorum {
            let voters = 1 + self.links.len();
            if acked > voters / 2 {
                self.stats.acked_quorum += 1;
            } else {
                self.stats.degraded_acks += 1;
            }
        }
        Ok(())
    }
}

/// Bring one follower to the leader's exact state. Same epoch and a
/// journal within ours: ship the missing suffix. Anything else — a
/// different epoch (its tail cannot be trusted) or a journal whose
/// suffix we already compacted — rebase it on our snapshot (or erase it
/// when we have none) and ship everything after, chunked.
fn resync<S: Storage>(
    local: &mut DurableStore<S>,
    epoch: u64,
    stats: &mut ReplicationStats,
    follower: &mut Follower<S>,
) -> Result<u64, StoreError> {
    if follower.epoch() > epoch {
        return Err(StoreError::Fenced {
            ours: follower.epoch(),
            theirs: epoch,
        });
    }
    let leader_durable = local.next_lsn() - 1;
    let snapshot = local.read_snapshot()?;
    let snapshot_lsn = snapshot.as_ref().map(|(lsn, _)| *lsn).unwrap_or(0);
    let same_stream = follower.epoch() == epoch && follower.durable_lsn() <= leader_durable;
    let from = if same_stream && follower.durable_lsn() >= snapshot_lsn {
        follower.durable_lsn()
    } else if let Some((lsn, state)) = snapshot {
        follower.install_snapshot(epoch, lsn, &state)?;
        stats.snapshots_installed += 1;
        lsn
    } else {
        follower.reset_to_epoch(epoch)?;
        0
    };
    let records = local.read_records_after(from)?;
    for chunk in records.chunks(BATCH_MAX_RECORDS) {
        let batch = ShipBatch::new(epoch, chunk.to_vec());
        let bytes = batch.encode();
        follower.append_encoded(&bytes)?;
        stats.ships += 1;
        stats.shipped_records += chunk.len() as u64;
        stats.shipped_bytes += bytes.len() as u64;
    }
    stats.resyncs += 1;
    Ok(follower.durable_lsn())
}

impl<S: Storage + Clone> crate::Wal for Leader<S> {
    /// Write-ahead locally, then ship to every live link. A fenced
    /// leader refuses outright; a local journal failure is fatal as for
    /// [`DurableStore`]; link failures degrade, they never fail the
    /// append — except a fence, which deposes us.
    fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        if let Some((epoch, newer)) = self.fenced {
            return Err(StoreError::Fenced {
                ours: newer,
                theirs: epoch,
            });
        }
        let lsn = self.local.append(payload)?;
        self.ship_to_links(lsn, payload)?;
        Ok(lsn)
    }

    fn should_snapshot(&self) -> bool {
        self.local.should_snapshot()
    }

    /// Snapshot locally, then install it on every live follower so
    /// their journals compact in step with ours.
    fn write_snapshot(&mut self, state: &[u8]) -> Result<(), StoreError> {
        if let Some((epoch, newer)) = self.fenced {
            return Err(StoreError::Fenced {
                ours: newer,
                theirs: epoch,
            });
        }
        let covered = self.local.next_lsn() - 1;
        self.local.write_snapshot(state)?;
        for link in &mut self.links {
            let Some(follower) = link.follower.as_mut() else {
                continue;
            };
            match follower.install_snapshot(self.epoch, covered, state) {
                Ok(()) => self.stats.snapshots_installed += 1,
                Err(StoreError::Fenced { ours, theirs }) => {
                    self.stats.fence_refusals += 1;
                    self.fenced = Some((theirs, ours));
                    link.follower = None;
                    return Err(StoreError::Fenced { ours, theirs });
                }
                Err(_) => {
                    link.follower = None;
                    self.stats.link_drops += 1;
                }
            }
        }
        Ok(())
    }

    fn next_lsn(&self) -> u64 {
        self.local.next_lsn()
    }

    fn stats(&self) -> &crate::StoreStats {
        self.local.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{CrashKind, CrashPlan};
    use crate::{MemStorage, Wal};
    use std::sync::{Arc, Mutex};

    type Shared = Arc<Mutex<MemStorage>>;

    fn shared() -> Shared {
        Arc::new(Mutex::new(MemStorage::new()))
    }

    fn cfg(every: u64) -> DurableStoreConfig {
        DurableStoreConfig::with_snapshot_every(every)
    }

    fn leader(s: &Shared, every: u64, mode: AckMode) -> Leader<Shared> {
        Leader::open(
            s.clone(),
            cfg(every),
            ReplicationConfig::with_ack_mode(mode),
        )
        .unwrap()
        .0
    }

    fn replay_payloads(s: &Shared) -> Vec<Vec<u8>> {
        let (_, rec) = DurableStore::open(s.clone(), cfg(u64::MAX)).unwrap();
        rec.events
    }

    #[test]
    fn meta_round_trip_and_corruption_refused() {
        let bytes = encode_meta(42);
        assert_eq!(decode_meta(&bytes).unwrap(), 42);
        for byte in 0..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[byte] ^= 1;
            assert!(decode_meta(&damaged).is_err(), "flip at {byte} undetected");
        }
        assert!(decode_meta(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn ship_batch_round_trip() {
        let records = vec![
            journal::Record {
                lsn: 7,
                payload: b"seven".to_vec(),
            },
            journal::Record {
                lsn: 8,
                payload: Vec::new(),
            },
            journal::Record {
                lsn: 9,
                payload: b"nine".to_vec(),
            },
        ];
        let batch = ShipBatch::new(3, records);
        assert_eq!(batch.first_lsn, 7);
        let decoded = ShipBatch::decode(&batch.encode()).unwrap();
        assert_eq!(decoded, batch);
        // Empty batches are legal.
        let empty = ShipBatch::new(1, Vec::new());
        assert_eq!(ShipBatch::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn every_bit_flip_and_truncation_of_a_frame_is_refused() {
        let batch = ShipBatch::new(
            2,
            vec![
                journal::Record {
                    lsn: 1,
                    payload: b"alpha".to_vec(),
                },
                journal::Record {
                    lsn: 2,
                    payload: b"beta".to_vec(),
                },
            ],
        );
        let bytes = batch.encode();
        for byte in 0..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[byte] ^= 1;
            assert!(
                matches!(
                    ShipBatch::decode(&damaged),
                    Err(StoreError::CorruptShip { .. })
                ),
                "flip at byte {byte} went undetected"
            );
        }
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    ShipBatch::decode(&bytes[..cut]),
                    Err(StoreError::CorruptShip { .. })
                ),
                "truncation to {cut} went undetected"
            );
        }
    }

    #[test]
    fn non_contiguous_lsns_are_refused() {
        let batch = ShipBatch::new(
            1,
            vec![
                journal::Record {
                    lsn: 1,
                    payload: b"a".to_vec(),
                },
                journal::Record {
                    lsn: 3,
                    payload: b"skip".to_vec(),
                },
            ],
        );
        assert!(matches!(
            ShipBatch::decode(&batch.encode()),
            Err(StoreError::CorruptShip { .. })
        ));
    }

    #[test]
    fn leader_ships_every_append_to_all_followers() {
        let (ls, f1, f2) = (shared(), shared(), shared());
        let mut leader = leader(&ls, u64::MAX, AckMode::Quorum);
        leader.attach_follower(f1.clone(), cfg(u64::MAX)).unwrap();
        leader.attach_follower(f2.clone(), cfg(u64::MAX)).unwrap();
        for i in 0..5u8 {
            assert_eq!(leader.append(&[i]).unwrap(), u64::from(i) + 1);
        }
        assert_eq!(leader.status(), ReplicationStatus::Healthy);
        assert_eq!(leader.replication_stats().acked_quorum, 5);
        assert_eq!(leader.replication_stats().degraded_acks, 0);
        let want: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i]).collect();
        assert_eq!(replay_payloads(&f1), want);
        assert_eq!(replay_payloads(&f2), want);
    }

    #[test]
    fn follower_attached_late_catches_up_via_suffix() {
        let (ls, fs) = (shared(), shared());
        let mut leader = leader(&ls, u64::MAX, AckMode::Async);
        for i in 0..7u8 {
            leader.append(&[i]).unwrap();
        }
        let idx = leader.attach_follower(fs.clone(), cfg(u64::MAX)).unwrap();
        assert_eq!(leader.link_states()[idx].durable_lsn, 7);
        assert_eq!(replay_payloads(&fs), replay_payloads(&ls));
    }

    #[test]
    fn follower_behind_a_compaction_catches_up_via_snapshot() {
        let (ls, fs) = (shared(), shared());
        let mut leader = leader(&ls, u64::MAX, AckMode::Async);
        for i in 0..4u8 {
            leader.append(&[i]).unwrap();
        }
        leader.write_snapshot(b"state@4").unwrap();
        leader.append(&[100]).unwrap();
        let idx = leader.attach_follower(fs.clone(), cfg(u64::MAX)).unwrap();
        assert_eq!(leader.link_states()[idx].durable_lsn, 5);
        assert_eq!(leader.replication_stats().snapshots_installed, 1);
        let (_, rec) = DurableStore::open(fs.clone(), cfg(u64::MAX)).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(b"state@4".as_slice()));
        assert_eq!(rec.snapshot_lsn, 4);
        assert_eq!(rec.events, vec![vec![100]]);
    }

    #[test]
    fn leader_snapshot_compacts_followers_in_step() {
        let (ls, fs) = (shared(), shared());
        let mut leader = leader(&ls, u64::MAX, AckMode::Quorum);
        leader.attach_follower(fs.clone(), cfg(u64::MAX)).unwrap();
        for i in 0..3u8 {
            leader.append(&[i]).unwrap();
        }
        leader.write_snapshot(b"state@3").unwrap();
        let (_, rec) = DurableStore::open(fs.clone(), cfg(u64::MAX)).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(b"state@3".as_slice()));
        assert!(rec.events.is_empty());
    }

    #[test]
    fn down_follower_degrades_then_reconnect_heals() {
        let (ls, f1, f2) = (shared(), shared(), shared());
        let mut leader = leader(&ls, u64::MAX, AckMode::Quorum);
        leader.attach_follower(f1.clone(), cfg(u64::MAX)).unwrap();
        let idx2 = leader.attach_follower(f2.clone(), cfg(u64::MAX)).unwrap();
        leader.append(b"both up").unwrap();
        // f2's medium dies mid-flight: the next ship tears and drops
        // the link, but the append still acks (leader + f1 = quorum).
        f2.lock()
            .unwrap()
            .set_plan(CrashPlan::at_op(1_000_000, CrashKind::Torn));
        let ops = f2.lock().unwrap().ops();
        f2.lock()
            .unwrap()
            .set_plan(CrashPlan::at_op(ops, CrashKind::Torn));
        leader.append(b"f2 dies here").unwrap();
        assert_eq!(leader.replication_stats().link_drops, 1);
        match leader.status() {
            ReplicationStatus::Degraded {
                down, quorum_ok, ..
            } => {
                assert_eq!(down, 1);
                assert!(quorum_ok);
            }
            other => panic!("expected degraded, got {other:?}"),
        }
        leader.append(b"still serving").unwrap();
        assert_eq!(leader.replication_stats().acked_quorum, 3);
        // Reconnect over the revived medium: the torn tail is repaired
        // and the suffix re-shipped.
        f2.lock().unwrap().revive();
        f2.lock().unwrap().set_plan(CrashPlan::none());
        leader.reconnect(idx2).unwrap();
        assert_eq!(leader.status(), ReplicationStatus::Healthy);
        assert_eq!(replay_payloads(&f2), replay_payloads(&ls));
        assert!(leader.replication_stats().reconnects == 1);
    }

    #[test]
    fn losing_quorum_degrades_but_never_blocks() {
        let (ls, f1) = (shared(), shared());
        let mut leader = leader(&ls, u64::MAX, AckMode::Quorum);
        leader.attach_follower(f1.clone(), cfg(u64::MAX)).unwrap();
        let ops = f1.lock().unwrap().ops();
        f1.lock()
            .unwrap()
            .set_plan(CrashPlan::at_op(ops, CrashKind::Torn));
        leader.append(b"follower lost").unwrap();
        leader.append(b"alone now").unwrap();
        assert_eq!(leader.replication_stats().degraded_acks, 2);
        match leader.status() {
            ReplicationStatus::Degraded { quorum_ok, .. } => assert!(!quorum_ok),
            other => panic!("expected degraded, got {other:?}"),
        }
    }

    #[test]
    fn promoted_follower_fences_the_old_leader() {
        let (ls, fs) = (shared(), shared());
        let mut old = leader(&ls, u64::MAX, AckMode::Quorum);
        old.attach_follower(fs.clone(), cfg(u64::MAX)).unwrap();
        old.append(b"acked before the coup").unwrap();
        // Promote the follower out-of-band (as failover would).
        let (mut promoted, _) =
            Follower::open(fs.clone(), cfg(u64::MAX), &ReplicationConfig::default()).unwrap();
        assert_eq!(promoted.epoch(), 1);
        assert_eq!(promoted.promote().unwrap(), 2);
        // The old leader's next append is refused and deposes it.
        let err = old.append(b"split brain attempt").unwrap_err();
        assert!(matches!(err, StoreError::Fenced { ours: 2, theirs: 1 }));
        assert!(matches!(
            old.status(),
            ReplicationStatus::Fenced { epoch: 1, newer: 2 }
        ));
        // ... and it stays deposed even without touching the link.
        assert!(old.append(b"again").is_err());
        assert_eq!(old.replication_stats().fence_refusals, 1);
    }

    #[test]
    fn deposed_leader_rejoins_and_discards_divergent_tail() {
        let (a, b) = (shared(), shared());
        let mut old = leader(&a, u64::MAX, AckMode::Quorum);
        old.attach_follower(b.clone(), cfg(u64::MAX)).unwrap();
        old.append(b"replicated").unwrap();
        // The link to b dies; a keeps appending un-replicated records.
        let ops = b.lock().unwrap().ops();
        b.lock()
            .unwrap()
            .set_plan(CrashPlan::at_op(ops, CrashKind::Torn));
        old.append(b"un-replicated tail 1").unwrap();
        b.lock().unwrap().revive();
        b.lock().unwrap().set_plan(CrashPlan::none());
        // b is promoted and serves new writes; a's tail has diverged.
        let (mut bf, _) =
            Follower::open(b.clone(), cfg(u64::MAX), &ReplicationConfig::default()).unwrap();
        bf.promote().unwrap();
        let mut new = Leader::open(b.clone(), cfg(u64::MAX), ReplicationConfig::default())
            .unwrap()
            .0;
        assert_eq!(new.epoch(), 2);
        new.append(b"new timeline").unwrap();
        // a rejoins as a follower: its divergent tail is discarded and
        // it converges on the new timeline, byte for byte.
        new.attach_follower(a.clone(), cfg(u64::MAX)).unwrap();
        assert_eq!(replay_payloads(&a), replay_payloads(&b));
        assert_eq!(
            replay_payloads(&b),
            vec![b"replicated".to_vec(), b"new timeline".to_vec()]
        );
    }

    #[test]
    fn follower_refuses_stale_epoch_and_gap_on_adoption() {
        let fs = shared();
        let (mut f, _) =
            Follower::open(fs.clone(), cfg(u64::MAX), &ReplicationConfig::default()).unwrap();
        // Adopt epoch 2 with a clean extension.
        let one = ShipBatch::new(
            2,
            vec![journal::Record {
                lsn: 1,
                payload: b"one".to_vec(),
            }],
        );
        assert_eq!(f.append_batch(&one).unwrap(), 1);
        assert_eq!(f.epoch(), 2);
        // Stale epoch refused.
        let stale = ShipBatch::new(
            1,
            vec![journal::Record {
                lsn: 2,
                payload: b"stale".to_vec(),
            }],
        );
        assert!(matches!(
            f.append_batch(&stale),
            Err(StoreError::Fenced { ours: 2, theirs: 1 })
        ));
        // Newer epoch with a gap demands a resync.
        let gap = ShipBatch::new(
            3,
            vec![journal::Record {
                lsn: 5,
                payload: b"gap".to_vec(),
            }],
        );
        assert!(matches!(
            f.append_batch(&gap),
            Err(StoreError::ReplicaGap {
                expected: 2,
                got: 5
            })
        ));
        // Same epoch, re-shipped prefix: idempotent skip.
        let reship = ShipBatch::new(
            2,
            vec![
                journal::Record {
                    lsn: 1,
                    payload: b"one".to_vec(),
                },
                journal::Record {
                    lsn: 2,
                    payload: b"two".to_vec(),
                },
            ],
        );
        assert_eq!(f.append_batch(&reship).unwrap(), 2);
        assert_eq!(replay_payloads(&fs), vec![b"one".to_vec(), b"two".to_vec()]);
    }

    #[test]
    fn promote_to_requires_a_strictly_newer_epoch() {
        let fs = shared();
        let (mut f, _) =
            Follower::open(fs.clone(), cfg(u64::MAX), &ReplicationConfig::default()).unwrap();
        f.promote_to(3).unwrap();
        assert!(matches!(f.promote_to(3), Err(StoreError::Fenced { .. })));
        assert!(matches!(f.promote_to(2), Err(StoreError::Fenced { .. })));
        assert_eq!(f.promote_to(7).unwrap(), 7);
        // The epoch survives a reopen.
        drop(f);
        let (f2, _) =
            Follower::open(fs.clone(), cfg(u64::MAX), &ReplicationConfig::default()).unwrap();
        assert_eq!(f2.epoch(), 7);
    }

    #[test]
    fn follower_crash_mid_ship_leaves_prefix_and_resync_repairs() {
        let (ls, fs) = (shared(), shared());
        let mut leader = leader(&ls, u64::MAX, AckMode::Async);
        let idx = leader.attach_follower(fs.clone(), cfg(u64::MAX)).unwrap();
        leader.append(b"safe").unwrap();
        let ops = fs.lock().unwrap().ops();
        fs.lock()
            .unwrap()
            .set_plan(CrashPlan::at_op(ops, CrashKind::Torn));
        leader.append(b"torn on the follower").unwrap(); // link drops
        leader.append(b"while down").unwrap();
        fs.lock().unwrap().revive();
        fs.lock().unwrap().set_plan(CrashPlan::none());
        leader.reconnect(idx).unwrap();
        // The torn record was repaired (counted) and everything
        // re-shipped: follower is byte-equal with the leader.
        assert!(leader.replication_stats().follower_truncated_bytes > 0);
        assert_eq!(replay_payloads(&fs), replay_payloads(&ls));
    }
}
