//! The storage abstraction under the journal and snapshot files.
//!
//! Two backends:
//!
//! * [`FsStorage`] — real `std::fs` under a root directory, with
//!   fsync-on-request and atomic replace via write-to-temp + rename.
//! * [`MemStorage`] — a deterministic in-memory map with seeded
//!   **crash-point injection** ([`CrashPlan`]): any mutating operation
//!   can "kill the process" mid-write, leaving either a torn prefix
//!   (strictly fewer bytes than were written) or the full bytes with
//!   the acknowledgement lost. Once crashed, the backend refuses every
//!   further operation until [`MemStorage::revive`] — exactly the
//!   discipline a real crash imposes, so recovery code cannot cheat by
//!   touching post-crash state.
//!
//! The trait is object-safe-free and generic-friendly; share one
//! backend between a service and a test harness by wrapping it in
//! `Arc<Mutex<_>>` (the blanket impl below), which is how the chaos
//! suite keeps hold of the "disk" across simulated process deaths.

use crate::fault::{CrashKind, CrashPlan};
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Errors from the durability layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An I/O failure from the real filesystem backend.
    Io(String),
    /// The simulated process died at this mutating-operation ordinal.
    /// The storage contents reflect the crash point; reopen and replay.
    Crashed {
        /// The mutating-operation ordinal the crash landed on.
        op: u64,
    },
    /// A journal record failed validation away from the torn tail —
    /// silent data damage, not an interrupted append.
    CorruptJournal {
        /// Byte offset of the bad record.
        offset: u64,
        /// What failed (header checksum, payload checksum, magic).
        detail: String,
    },
    /// The snapshot file failed validation.
    CorruptSnapshot {
        /// What failed.
        detail: String,
    },
    /// A replication message failed validation (bad magic, checksum
    /// mismatch, non-contiguous LSNs) — damage on the "wire", refused
    /// before any byte reaches the follower's journal.
    CorruptShip {
        /// What failed.
        detail: String,
    },
    /// An append or snapshot install carried a stale epoch: the sender
    /// was deposed by a promotion it has not yet learned about. The
    /// fenced party must stop accepting work (no split-brain).
    Fenced {
        /// The receiver's (current) epoch.
        ours: u64,
        /// The stale sender's epoch.
        theirs: u64,
    },
    /// A shipped batch does not continue the receiver's journal: the
    /// leader must fall back to a snapshot + suffix resync.
    ReplicaGap {
        /// The LSN the receiver expected next.
        expected: u64,
        /// The first LSN the batch actually carried.
        got: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage I/O error: {e}"),
            StoreError::Crashed { op } => write!(f, "simulated crash at storage op {op}"),
            StoreError::CorruptJournal { offset, detail } => {
                write!(f, "corrupt journal record at byte {offset}: {detail}")
            }
            StoreError::CorruptSnapshot { detail } => write!(f, "corrupt snapshot: {detail}"),
            StoreError::CorruptShip { detail } => write!(f, "corrupt ship batch: {detail}"),
            StoreError::Fenced { ours, theirs } => {
                write!(f, "fenced: stale epoch {theirs} refused at epoch {ours}")
            }
            StoreError::ReplicaGap { expected, got } => {
                write!(
                    f,
                    "replica gap: expected lsn {expected}, batch starts at {got}"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

/// A keyed byte store: the minimal surface a write-ahead journal needs.
///
/// `append`/`write_atomic`/`truncate` are the mutating operations; a
/// crash-injecting backend may fail any of them with
/// [`StoreError::Crashed`]. `sync` makes previous writes durable (a
/// counter hook on the real backend; the simulated backend persists
/// appends immediately and models data loss as torn appends instead).
pub trait Storage {
    /// Full contents of `name`, or `None` if it does not exist.
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, StoreError>;
    /// Append bytes to `name`, creating it if missing.
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError>;
    /// Truncate `name` to `len` bytes (no-op if already shorter).
    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StoreError>;
    /// Replace `name` with `bytes` atomically and durably: a crash
    /// leaves the old contents or the new, never a mixture, and once
    /// this returns, the new. No `sync` need follow.
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError>;
    /// Delete `name` (no-op if it does not exist). Removal is atomic:
    /// after a crash the file is either fully present or fully gone.
    fn remove(&mut self, name: &str) -> Result<(), StoreError>;
    /// Flush `name` to the durable medium.
    fn sync(&mut self, name: &str) -> Result<(), StoreError>;
}

/// Share one backend between an owner and a harness: the chaos tests
/// keep an `Arc<Mutex<MemStorage>>` "disk" alive across simulated
/// process deaths while each service generation owns a clone.
impl<S: Storage> Storage for Arc<Mutex<S>> {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
        self.lock().expect("storage lock").read(name)
    }
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.lock().expect("storage lock").append(name, bytes)
    }
    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StoreError> {
        self.lock().expect("storage lock").truncate(name, len)
    }
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.lock().expect("storage lock").write_atomic(name, bytes)
    }
    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        self.lock().expect("storage lock").remove(name)
    }
    fn sync(&mut self, name: &str) -> Result<(), StoreError> {
        self.lock().expect("storage lock").sync(name)
    }
}

/// Real files under a root directory. `Clone` shares the root: clones
/// address the same files, which is what a replication link needs to
/// reopen a follower over its surviving medium.
#[derive(Debug, Clone)]
pub struct FsStorage {
    root: PathBuf,
}

impl FsStorage {
    /// Open (creating if needed) a storage root.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(FsStorage { root })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Storage for FsStorage {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
        match std::fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))?;
        f.write_all(bytes)?;
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StoreError> {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(self.path(name))?;
        if f.metadata()?.len() > len {
            f.set_len(len)?;
        }
        Ok(())
    }

    /// The bytes are synced before the rename, and the directory after
    /// it: that second sync is what makes the rename itself durable.
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let tmp = self.path(&format!("{name}.tmp"));
        std::fs::write(&tmp, bytes)?;
        std::fs::File::open(&tmp)?.sync_all()?;
        std::fs::rename(&tmp, self.path(name))?;
        std::fs::File::open(&self.root)?.sync_all()?;
        Ok(())
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn sync(&mut self, name: &str) -> Result<(), StoreError> {
        // The file may legitimately not exist yet (sync after a no-op).
        match std::fs::File::open(self.path(name)) {
            Ok(f) => Ok(f.sync_all()?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }
}

/// Deterministic in-memory storage with crash-point injection.
#[derive(Debug, Clone)]
pub struct MemStorage {
    files: BTreeMap<String, Vec<u8>>,
    plan: CrashPlan,
    /// Mutating-operation ordinal; continues across [`Self::revive`] so
    /// one seed describes one complete multi-crash history.
    ops: u64,
    /// True between a crash and the next revive: every operation fails.
    dead: bool,
}

impl MemStorage {
    /// An empty store that never crashes.
    pub fn new() -> Self {
        Self::with_crashes(CrashPlan::none())
    }

    /// An empty store crashing per `plan`.
    pub fn with_crashes(plan: CrashPlan) -> Self {
        MemStorage {
            files: BTreeMap::new(),
            plan,
            ops: 0,
            dead: false,
        }
    }

    /// Bring a crashed store back to life (the "process restart"); the
    /// contents are whatever the crash left behind and the operation
    /// ordinal keeps counting, so the seeded crash schedule continues.
    pub fn revive(&mut self) {
        self.dead = false;
    }

    /// True between a crash and the next [`Self::revive`].
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Swap the crash plan (e.g. disable crashes for a final audit).
    pub fn set_plan(&mut self, plan: CrashPlan) {
        self.plan = plan;
    }

    /// Mutating operations issued so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Test hook: raw contents of `name`.
    pub fn file(&self, name: &str) -> Option<&Vec<u8>> {
        self.files.get(name)
    }

    /// Test hook: flip one bit in `name` (simulated silent bit rot).
    pub fn flip_bit(&mut self, name: &str, byte: usize, bit: u8) {
        let f = self.files.get_mut(name).expect("file exists");
        f[byte] ^= 1 << (bit % 8);
    }

    /// Test hook: drop the last `n` bytes of `name` (simulated torn
    /// tail beyond what the crash plan produces).
    pub fn chop(&mut self, name: &str, n: usize) {
        let f = self.files.get_mut(name).expect("file exists");
        let keep = f.len().saturating_sub(n);
        f.truncate(keep);
    }

    /// Decide whether the next mutating operation crashes. Returns the
    /// decision; the ordinal advances either way.
    fn mutating_op(&mut self) -> Result<Option<crate::fault::CrashDecision>, StoreError> {
        if self.dead {
            return Err(StoreError::Crashed { op: self.ops });
        }
        let op = self.ops;
        self.ops += 1;
        Ok(self.plan.decide(op).inspect(|_| {
            self.dead = true;
        }))
    }
}

impl Default for MemStorage {
    fn default() -> Self {
        Self::new()
    }
}

impl Storage for MemStorage {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
        if self.dead {
            return Err(StoreError::Crashed { op: self.ops });
        }
        Ok(self.files.get(name).cloned())
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let crash = self.mutating_op()?;
        let file = self.files.entry(name.to_string()).or_default();
        match crash {
            None => {
                file.extend_from_slice(bytes);
                Ok(())
            }
            Some(d) => {
                let keep = match d.kind {
                    // A torn append persists a strict prefix: at least
                    // one byte is always lost, so a torn record can
                    // never masquerade as a complete valid one.
                    CrashKind::Torn => ((bytes.len() as f64 * d.torn_fraction) as usize)
                        .min(bytes.len().saturating_sub(1)),
                    CrashKind::AfterWrite => bytes.len(),
                };
                file.extend_from_slice(&bytes[..keep]);
                Err(StoreError::Crashed { op: self.ops - 1 })
            }
        }
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StoreError> {
        let crash = self.mutating_op()?;
        match crash {
            None => {
                if let Some(f) = self.files.get_mut(name) {
                    let len = len as usize;
                    if f.len() > len {
                        f.truncate(len);
                    }
                }
                Ok(())
            }
            Some(d) => {
                // Truncation is atomic on any sane filesystem: the crash
                // lands either before or after it took effect.
                if d.kind == CrashKind::AfterWrite {
                    if let Some(f) = self.files.get_mut(name) {
                        let len = len as usize;
                        if f.len() > len {
                            f.truncate(len);
                        }
                    }
                }
                Err(StoreError::Crashed { op: self.ops - 1 })
            }
        }
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let crash = self.mutating_op()?;
        match crash {
            None => {
                self.files.insert(name.to_string(), bytes.to_vec());
                Ok(())
            }
            Some(d) => {
                // Atomic replace never tears: old or new, whole.
                if d.kind == CrashKind::AfterWrite {
                    self.files.insert(name.to_string(), bytes.to_vec());
                }
                Err(StoreError::Crashed { op: self.ops - 1 })
            }
        }
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        let crash = self.mutating_op()?;
        match crash {
            None => {
                self.files.remove(name);
                Ok(())
            }
            Some(d) => {
                // Removal is atomic: the crash lands before or after.
                if d.kind == CrashKind::AfterWrite {
                    self.files.remove(name);
                }
                Err(StoreError::Crashed { op: self.ops - 1 })
            }
        }
    }

    fn sync(&mut self, name: &str) -> Result<(), StoreError> {
        if self.dead {
            return Err(StoreError::Crashed { op: self.ops });
        }
        let _ = name;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_round_trip() {
        let mut s = MemStorage::new();
        assert_eq!(s.read("j").unwrap(), None);
        s.append("j", b"abc").unwrap();
        s.append("j", b"def").unwrap();
        assert_eq!(s.read("j").unwrap().unwrap(), b"abcdef");
        s.truncate("j", 4).unwrap();
        assert_eq!(s.read("j").unwrap().unwrap(), b"abcd");
        s.write_atomic("snap", b"state").unwrap();
        assert_eq!(s.read("snap").unwrap().unwrap(), b"state");
        s.sync("j").unwrap();
    }

    #[test]
    fn torn_crash_keeps_a_strict_prefix_then_store_is_dead() {
        use crate::fault::CrashKind;
        let mut s = MemStorage::with_crashes(CrashPlan::at_op(1, CrashKind::Torn));
        s.append("j", b"first").unwrap(); // op 0
        let err = s.append("j", b"0123456789").unwrap_err(); // op 1: crash
        assert_eq!(err, StoreError::Crashed { op: 1 });
        let contents = s.file("j").unwrap().clone();
        assert!(
            contents.len() >= 5 && contents.len() < 15,
            "torn: {contents:?}"
        );
        assert!(s.is_dead());
        // Every operation refuses until revive.
        assert!(s.read("j").is_err());
        assert!(s.append("j", b"x").is_err());
        s.revive();
        assert_eq!(s.read("j").unwrap().unwrap(), contents);
    }

    #[test]
    fn after_write_crash_keeps_all_bytes() {
        use crate::fault::CrashKind;
        let mut s = MemStorage::with_crashes(CrashPlan::at_op(0, CrashKind::AfterWrite));
        let err = s.append("j", b"payload").unwrap_err();
        assert!(matches!(err, StoreError::Crashed { op: 0 }));
        s.revive();
        assert_eq!(s.read("j").unwrap().unwrap(), b"payload");
    }

    #[test]
    fn atomic_replace_never_tears_under_crash() {
        use crate::fault::CrashKind;
        for (kind, expect_new) in [(CrashKind::Torn, false), (CrashKind::AfterWrite, true)] {
            let mut s = MemStorage::with_crashes(CrashPlan::at_op(1, kind));
            s.write_atomic("snap", b"old").unwrap(); // op 0
            assert!(s.write_atomic("snap", b"new").is_err()); // op 1
            s.revive();
            let got = s.read("snap").unwrap().unwrap();
            assert_eq!(
                got,
                if expect_new {
                    b"new".to_vec()
                } else {
                    b"old".to_vec()
                }
            );
        }
    }

    #[test]
    fn same_seed_same_crash_history() {
        let run = || {
            let mut s = MemStorage::with_crashes(CrashPlan::at_rate(77, 0.3));
            let mut log = Vec::new();
            for i in 0..50u32 {
                match s.append("j", &i.to_le_bytes()) {
                    Ok(()) => log.push(Ok(())),
                    Err(e) => {
                        log.push(Err(e));
                        s.revive();
                    }
                }
            }
            (log, s.file("j").cloned())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fs_round_trip() {
        let root = std::env::temp_dir().join(format!("sq-store-fs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut s = FsStorage::open(&root).unwrap();
        assert_eq!(s.read("j").unwrap(), None);
        s.append("j", b"abc").unwrap();
        s.append("j", b"def").unwrap();
        s.sync("j").unwrap();
        assert_eq!(s.read("j").unwrap().unwrap(), b"abcdef");
        s.truncate("j", 2).unwrap();
        assert_eq!(s.read("j").unwrap().unwrap(), b"ab");
        s.write_atomic("snap", b"state-v1").unwrap();
        s.write_atomic("snap", b"state-v2").unwrap();
        assert_eq!(s.read("snap").unwrap().unwrap(), b"state-v2");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
