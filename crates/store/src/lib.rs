//! # sq-store — durable state for the SubmitQueue
//!
//! The paper's SubmitQueue is a long-running service whose entire value
//! is a *guarantee about mainline state*; a reproduction that forgets
//! its pending queue and audit trail on process death cannot honestly
//! claim the guarantee. This crate is the durability substrate:
//!
//! * [`journal`] — a length-prefixed, CRC-checksummed **write-ahead
//!   journal**: torn tails (crash artifacts) are truncated on open,
//!   while checksum failures away from the tail (silent damage) refuse
//!   the file.
//! * [`snapshot`] — whole-state snapshots, written atomically and
//!   stamped with the journal position they cover, so recovery replays
//!   only the journal *suffix*.
//! * [`storage`] — the [`Storage`] backend trait: real files
//!   ([`FsStorage`]) or a deterministic in-memory medium
//!   ([`MemStorage`]) whose seeded [`CrashPlan`] can kill the simulated
//!   process mid-write (the `exec::fault` decision pattern, one layer
//!   down).
//! * [`checksum`] — the one CRC-32 implementation both encoders share.
//! * [`DurableStore`] — journal + snapshot over one backend: append,
//!   cadence-driven snapshotting, and crash-consistent recovery.
//!
//! The contract the chaos suite holds this crate to: after *any*
//! injected crash point, reopening yields exactly the acknowledged
//! prefix of history — nothing acknowledged is lost, nothing torn is
//! half-applied.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod codec;
pub mod fault;
pub mod journal;
pub mod replicate;
pub mod snapshot;
pub mod storage;

pub use codec::{CodecError, Decoder, Encoder};
pub use fault::{CrashKind, CrashPlan};
pub use replicate::{
    AckMode, Follower, Leader, LinkState, ReplicationConfig, ReplicationStats, ShipBatch,
};
pub use storage::{FsStorage, MemStorage, Storage, StoreError};

/// The write-ahead-log surface a durable service journals through.
///
/// Implemented by the single-node [`DurableStore`] and by the
/// replicating [`Leader`](replicate::Leader), so the service layer is
/// agnostic to whether appends are local-only or shipped to followers.
/// The contract every implementation upholds: a returned LSN means the
/// payload is durable per the implementation's ack discipline, and an
/// `Err` means the handle must be abandoned and recovery re-opened.
pub trait Wal {
    /// Append one payload as a journal record (write-ahead, synced).
    /// Returns the record's LSN.
    fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError>;
    /// True when the snapshot cadence says it is time to compact.
    fn should_snapshot(&self) -> bool;
    /// Snapshot the caller's current state and compact the journal.
    fn write_snapshot(&mut self, state: &[u8]) -> Result<(), StoreError>;
    /// The LSN the next append will carry.
    fn next_lsn(&self) -> u64;
    /// Operation counters of the local store.
    fn stats(&self) -> &StoreStats;
}

/// Journal file name within the backend.
const JOURNAL_FILE: &str = "journal.wal";
/// Snapshot file name within the backend.
const SNAPSHOT_FILE: &str = "snapshot.bin";

/// Configuration of a [`DurableStore`].
#[derive(Debug, Clone)]
pub struct DurableStoreConfig {
    /// Take a snapshot after this many journal appends (and truncate
    /// the absorbed journal prefix). `u64::MAX` disables snapshotting.
    pub snapshot_every: u64,
}

impl Default for DurableStoreConfig {
    fn default() -> Self {
        DurableStoreConfig { snapshot_every: 64 }
    }
}

/// Everything recovered by [`DurableStore::open`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// The latest snapshot payload, if one exists.
    pub snapshot: Option<Vec<u8>>,
    /// The journal position the snapshot covers (0 if none).
    pub snapshot_lsn: u64,
    /// Journal payloads *after* the snapshot, in append order — the
    /// suffix the caller must replay on top of the snapshot.
    pub events: Vec<Vec<u8>>,
    /// Torn-tail bytes truncated away during open (0 for a clean file).
    pub truncated_tail_bytes: u64,
}

impl Recovery {
    /// What this open did to reconstruct state — the operator-facing
    /// distinction between a clean open and a tail repair.
    pub fn replay_stats(&self) -> ReplayStats {
        ReplayStats {
            replayed_records: self.events.len() as u64,
            truncated_bytes: self.truncated_tail_bytes,
            snapshot_loaded: self.snapshot.is_some(),
        }
    }
}

/// How an open reconstructed state: records replayed, whether a
/// snapshot seeded the fold, and — the crash tell — how many torn-tail
/// bytes had to be truncated away. A clean shutdown always reopens with
/// `truncated_bytes == 0`; a nonzero count means the journal's tail was
/// repaired, which operators (and the chaos suite's uncrashed twin,
/// which asserts 0) use to distinguish clean opens from crash recovery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Journal records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Torn-tail bytes truncated during the open (0 = clean open).
    pub truncated_bytes: u64,
    /// True when a snapshot seeded the replay.
    pub snapshot_loaded: bool,
}

/// Operation counters for observability (exported into `sq-obs` by the
/// service layer; kept here as plain integers so the crate stays
/// dependency-free).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Journal records appended through this handle.
    pub appends: u64,
    /// Journal bytes appended (framing included).
    pub appended_bytes: u64,
    /// Sync (fsync) calls issued.
    pub fsyncs: u64,
    /// Snapshots written.
    pub snapshots: u64,
    /// Size of the most recent snapshot file, bytes.
    pub last_snapshot_bytes: u64,
    /// Journal records replayed by [`DurableStore::open`].
    pub replayed_records: u64,
    /// Torn-tail bytes truncated by [`DurableStore::open`].
    pub truncated_tail_bytes: u64,
    /// Wall-clock cost of the open-and-replay, microseconds. (The only
    /// non-deterministic field; exports that must be byte-stable omit
    /// it.)
    pub replay_micros: u64,
}

/// A write-ahead journal plus snapshots over one [`Storage`] backend.
#[derive(Debug)]
pub struct DurableStore<S: Storage> {
    storage: S,
    config: DurableStoreConfig,
    /// LSN the next append will carry (1-based, monotone across
    /// truncations and reopenings).
    next_lsn: u64,
    records_since_snapshot: u64,
    stats: StoreStats,
}

impl<S: Storage> DurableStore<S> {
    /// Open (or create) the store: load the snapshot, scan the journal,
    /// truncate any torn tail, and hand back the replay suffix.
    pub fn open(
        mut storage: S,
        config: DurableStoreConfig,
    ) -> Result<(Self, Recovery), StoreError> {
        let started = std::time::Instant::now();
        let (snapshot, snapshot_lsn) = match storage.read(SNAPSHOT_FILE)? {
            None => (None, 0),
            Some(bytes) => {
                let (lsn, payload) = snapshot::decode(&bytes)?;
                (Some(payload), lsn)
            }
        };
        let journal_bytes = storage.read(JOURNAL_FILE)?.unwrap_or_default();
        let scan = journal::scan(&journal_bytes)?;
        if scan.torn_bytes > 0 {
            storage.truncate(JOURNAL_FILE, scan.valid_len)?;
        }
        if scan.valid_len == 0 {
            // Fresh (or torn-at-creation) journal: lay down the magic.
            storage.append(JOURNAL_FILE, journal::MAGIC)?;
            storage.sync(JOURNAL_FILE)?;
        }
        let max_lsn = scan
            .records
            .last()
            .map(|r| r.lsn)
            .unwrap_or(0)
            .max(snapshot_lsn);
        let events: Vec<Vec<u8>> = scan
            .records
            .into_iter()
            .filter(|r| r.lsn > snapshot_lsn)
            .map(|r| r.payload)
            .collect();
        let stats = StoreStats {
            replayed_records: events.len() as u64,
            truncated_tail_bytes: scan.torn_bytes,
            last_snapshot_bytes: snapshot.as_ref().map(|s| s.len() as u64).unwrap_or(0),
            replay_micros: u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
            ..StoreStats::default()
        };
        let store = DurableStore {
            storage,
            config,
            next_lsn: max_lsn + 1,
            records_since_snapshot: events.len() as u64,
            stats,
        };
        let recovery = Recovery {
            snapshot,
            snapshot_lsn,
            events,
            truncated_tail_bytes: store.stats.truncated_tail_bytes,
        };
        Ok((store, recovery))
    }

    /// Append one payload as a journal record and sync it. Returns the
    /// record's LSN. On error the owning process must treat itself as
    /// dead: the record may or may not have reached the medium, and
    /// only a fresh [`DurableStore::open`] can tell.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        let lsn = self.next_lsn;
        self.append_at(lsn, payload)?;
        Ok(lsn)
    }

    /// True when the snapshot cadence says it is time to compact.
    pub fn should_snapshot(&self) -> bool {
        self.records_since_snapshot >= self.config.snapshot_every
    }

    /// Write a snapshot of the caller's current state (which must
    /// reflect every appended record), then truncate the absorbed
    /// journal prefix. Crash-ordering: the snapshot lands atomically
    /// first; records up to its LSN that linger in the journal after a
    /// crash-before-truncate are skipped on replay by their LSN stamp.
    pub fn write_snapshot(&mut self, state: &[u8]) -> Result<(), StoreError> {
        self.install_snapshot(self.next_lsn - 1, state)
    }

    /// The LSN the next append will carry.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Operation counters.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Append a record at an *exact* LSN — the replication path, where
    /// the leader (not this store) owns LSN assignment. Refuses gaps
    /// and replays: the record must be the next one in sequence.
    pub fn append_at(&mut self, lsn: u64, payload: &[u8]) -> Result<(), StoreError> {
        if lsn != self.next_lsn {
            return Err(StoreError::ReplicaGap {
                expected: self.next_lsn,
                got: lsn,
            });
        }
        let record = journal::encode_record(lsn, payload);
        self.storage.append(JOURNAL_FILE, &record)?;
        self.storage.sync(JOURNAL_FILE)?;
        self.next_lsn += 1;
        self.records_since_snapshot += 1;
        self.stats.appends += 1;
        self.stats.appended_bytes += record.len() as u64;
        self.stats.fsyncs += 1;
        Ok(())
    }

    /// Install a snapshot shipped from a leader, replacing whatever
    /// this store holds. Unlike [`write_snapshot`](Self::write_snapshot)
    /// the covered LSN comes from the *sender*, and the local position
    /// moves to it unconditionally — including backwards, which is how
    /// a rejoining deposed leader discards a divergent un-acked tail.
    pub fn install_snapshot(&mut self, lsn: u64, state: &[u8]) -> Result<(), StoreError> {
        let encoded = snapshot::encode(lsn, state);
        // Durable on return (on disk: the file's sync, then its
        // directory's), counted as the snapshot's one fsync.
        self.storage.write_atomic(SNAPSHOT_FILE, &encoded)?;
        self.stats.fsyncs += 1;
        self.storage
            .truncate(JOURNAL_FILE, journal::MAGIC.len() as u64)?;
        self.next_lsn = lsn + 1;
        self.records_since_snapshot = 0;
        self.stats.snapshots += 1;
        self.stats.last_snapshot_bytes = encoded.len() as u64;
        Ok(())
    }

    /// Erase this store back to empty (position 0) ahead of a full
    /// resync from a leader that has no snapshot to ship. Ordering
    /// matters for crash consistency: the journal is truncated *first*,
    /// then the snapshot removed — a crash in between leaves an empty
    /// journal over a stale snapshot, which is consistent (stale) state,
    /// never a journal replaying on top of the wrong base.
    pub fn reset(&mut self) -> Result<(), StoreError> {
        self.storage
            .truncate(JOURNAL_FILE, journal::MAGIC.len() as u64)?;
        self.storage.sync(JOURNAL_FILE)?;
        self.stats.fsyncs += 1;
        self.storage.remove(SNAPSHOT_FILE)?;
        self.next_lsn = 1;
        self.records_since_snapshot = 0;
        Ok(())
    }

    /// Read the current snapshot (covered LSN, payload) without
    /// mutating anything — what a leader ships to a lagging follower.
    pub fn read_snapshot(&mut self) -> Result<Option<(u64, Vec<u8>)>, StoreError> {
        match self.storage.read(SNAPSHOT_FILE)? {
            None => Ok(None),
            Some(bytes) => Ok(Some(snapshot::decode(&bytes)?)),
        }
    }

    /// Read every journal record with LSN strictly greater than `lsn` —
    /// the suffix a leader ships to catch a follower up.
    pub fn read_records_after(&mut self, lsn: u64) -> Result<Vec<journal::Record>, StoreError> {
        let bytes = self.storage.read(JOURNAL_FILE)?.unwrap_or_default();
        let scan = journal::scan(&bytes)?;
        Ok(scan.records.into_iter().filter(|r| r.lsn > lsn).collect())
    }
}

impl<S: Storage> Wal for DurableStore<S> {
    fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        DurableStore::append(self, payload)
    }
    fn should_snapshot(&self) -> bool {
        DurableStore::should_snapshot(self)
    }
    fn write_snapshot(&mut self, state: &[u8]) -> Result<(), StoreError> {
        DurableStore::write_snapshot(self, state)
    }
    fn next_lsn(&self) -> u64 {
        DurableStore::next_lsn(self)
    }
    fn stats(&self) -> &StoreStats {
        DurableStore::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    type Shared = Arc<Mutex<MemStorage>>;

    fn shared(plan: CrashPlan) -> Shared {
        Arc::new(Mutex::new(MemStorage::with_crashes(plan)))
    }

    fn open(s: &Shared, snapshot_every: u64) -> (DurableStore<Shared>, Recovery) {
        DurableStore::open(s.clone(), DurableStoreConfig { snapshot_every }).unwrap()
    }

    #[test]
    fn append_reopen_replays_everything() {
        let s = shared(CrashPlan::none());
        let (mut store, rec) = open(&s, u64::MAX);
        assert_eq!(rec.events.len(), 0);
        for i in 0..10u8 {
            assert_eq!(store.append(&[i, i + 1]).unwrap(), u64::from(i) + 1);
        }
        let (_, rec) = open(&s, u64::MAX);
        assert_eq!(rec.snapshot, None);
        assert_eq!(
            rec.events,
            (0..10u8).map(|i| vec![i, i + 1]).collect::<Vec<_>>()
        );
    }

    #[test]
    fn snapshot_absorbs_prefix_and_replay_uses_suffix() {
        let s = shared(CrashPlan::none());
        let (mut store, _) = open(&s, u64::MAX);
        for i in 0..5u8 {
            store.append(&[i]).unwrap();
        }
        store.write_snapshot(b"state@5").unwrap();
        store.append(&[100]).unwrap();
        store.append(&[101]).unwrap();
        let (store2, rec) = open(&s, u64::MAX);
        assert_eq!(rec.snapshot.as_deref(), Some(b"state@5".as_slice()));
        assert_eq!(rec.snapshot_lsn, 5);
        assert_eq!(rec.events, vec![vec![100], vec![101]]);
        // LSNs keep counting across the compaction.
        assert_eq!(store2.next_lsn(), 8);
    }

    #[test]
    fn cadence_drives_should_snapshot() {
        let s = shared(CrashPlan::none());
        let (mut store, _) = open(&s, 3);
        assert!(!store.should_snapshot());
        store.append(b"a").unwrap();
        store.append(b"b").unwrap();
        assert!(!store.should_snapshot());
        store.append(b"c").unwrap();
        assert!(store.should_snapshot());
        store.write_snapshot(b"abc").unwrap();
        assert!(!store.should_snapshot());
    }

    #[test]
    fn torn_append_is_truncated_and_store_continues() {
        // Ops: 0 = magic append, 1 = magic sync is NOT a mutating op...
        // sync is not counted; op 1 = first record append.
        let s = shared(CrashPlan::at_op(2, CrashKind::Torn));
        let (mut store, _) = open(&s, u64::MAX);
        store.append(b"survives").unwrap(); // op 1
        let err = store.append(b"torn away").unwrap_err(); // op 2
        assert!(matches!(err, StoreError::Crashed { .. }));
        s.lock().unwrap().revive();
        let (mut store, rec) = open(&s, u64::MAX);
        assert_eq!(rec.events, vec![b"survives".to_vec()]);
        assert!(rec.truncated_tail_bytes > 0);
        // The journal is clean again: appends pick up at the next LSN.
        assert_eq!(store.append(b"after recovery").unwrap(), 2);
        let (_, rec) = open(&s, u64::MAX);
        assert_eq!(
            rec.events,
            vec![b"survives".to_vec(), b"after recovery".to_vec()]
        );
    }

    #[test]
    fn after_write_crash_preserves_the_record() {
        let s = shared(CrashPlan::at_op(2, CrashKind::AfterWrite));
        let (mut store, _) = open(&s, u64::MAX);
        store.append(b"first").unwrap();
        assert!(store.append(b"acked-by-medium").is_err());
        s.lock().unwrap().revive();
        let (_, rec) = open(&s, u64::MAX);
        // The "journaled but never acked" record IS recovered.
        assert_eq!(
            rec.events,
            vec![b"first".to_vec(), b"acked-by-medium".to_vec()]
        );
        assert_eq!(rec.truncated_tail_bytes, 0);
    }

    #[test]
    fn crash_between_snapshot_and_truncate_skips_absorbed_records() {
        // Ops: 0 magic, 1..=3 appends, 4 snapshot write_atomic,
        // 5 journal truncate — crash there, before it applies.
        let s = shared(CrashPlan::at_op(5, CrashKind::Torn));
        let (mut store, _) = open(&s, u64::MAX);
        for p in [b"a".as_slice(), b"b", b"c"] {
            store.append(p).unwrap();
        }
        assert!(store.write_snapshot(b"state@3").is_err());
        s.lock().unwrap().revive();
        let (_, rec) = open(&s, u64::MAX);
        // Snapshot landed; the journal still holds records 1..=3 but
        // their LSNs are covered, so replay is empty.
        assert_eq!(rec.snapshot.as_deref(), Some(b"state@3".as_slice()));
        assert_eq!(rec.snapshot_lsn, 3);
        assert_eq!(rec.events, Vec::<Vec<u8>>::new());
    }

    #[test]
    fn bit_flip_in_mid_journal_is_refused_as_corruption() {
        let s = shared(CrashPlan::none());
        let (mut store, _) = open(&s, u64::MAX);
        store.append(b"one").unwrap();
        store.append(b"two").unwrap();
        // Flip a payload bit of the first record (offset: 8 magic + 20
        // header+lsn puts us in its payload).
        s.lock().unwrap().flip_bit("journal.wal", 8 + 20 + 1, 3);
        let err = DurableStore::open(s.clone(), DurableStoreConfig::default()).unwrap_err();
        assert!(matches!(err, StoreError::CorruptJournal { .. }));
    }

    #[test]
    fn stats_count_appends_fsyncs_snapshots() {
        let s = shared(CrashPlan::none());
        let (mut store, _) = open(&s, u64::MAX);
        store.append(b"abc").unwrap();
        store.append(b"defg").unwrap();
        store.write_snapshot(b"state").unwrap();
        let st = store.stats();
        assert_eq!(st.appends, 2);
        assert_eq!(st.fsyncs, 3); // 2 appends + 1 snapshot
        assert_eq!(st.snapshots, 1);
        assert!(st.appended_bytes > 7);
        assert!(st.last_snapshot_bytes > 5);
    }

    #[test]
    fn fs_backend_end_to_end() {
        let root = std::env::temp_dir().join(format!("sq-store-ds-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        {
            let fs = FsStorage::open(&root).unwrap();
            let (mut store, _) =
                DurableStore::open(fs, DurableStoreConfig { snapshot_every: 2 }).unwrap();
            store.append(b"one").unwrap();
            store.append(b"two").unwrap();
            assert!(store.should_snapshot());
            store.write_snapshot(b"state@2").unwrap();
            store.append(b"three").unwrap();
        }
        let fs = FsStorage::open(&root).unwrap();
        let (_, rec) = DurableStore::open(fs, DurableStoreConfig::default()).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(b"state@2".as_slice()));
        assert_eq!(rec.events, vec![b"three".to_vec()]);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
