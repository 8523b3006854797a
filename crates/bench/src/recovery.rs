//! The recovery benchmark: the `recovery` suite. Measures
//! crash-recovery replay throughput of the durable SubmitQueue
//! (`sq-store` journal + snapshots).
//!
//! Drives a real `DurableSubmitQueue` over an in-memory backend through
//! a landing workload, then repeatedly reopens the store and times the
//! snapshot + journal-suffix replay. Two phases isolate what snapshots
//! buy: `journal_only` (snapshotting disabled — every record replays on
//! open) and `snapshot_suffix` (periodic snapshots — only the tail
//! replays). The document reports wall time and is not committed; the
//! gate is that every reopen reconstructs byte-identical exported state.

use crate::suite::{no_flags, Report, Suite};
use sq_core::durable::DurableSubmitQueue;
use sq_core::RecoveryConfig;
use sq_obs::JsonWriter;
use sq_store::{CrashPlan, DurableStoreConfig, MemStorage};
use sq_vcs::{Patch, RepoPath, Repository};
use std::sync::{Arc, Mutex};

type Shared = Arc<Mutex<MemStorage>>;

/// Parameters of one recovery-benchmark run.
#[derive(Debug, Clone)]
pub struct RecoveryParams {
    /// `"smoke"` or `"standard"`, as the document records it.
    pub mode: &'static str,
    /// Changes landed before the store is reopened.
    pub n_changes: u32,
    /// Timed recoveries per phase.
    pub opens: u64,
}

/// One phase's measurements.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    name: &'static str,
    journal_records: u64,
    journal_bytes: u64,
    snapshot_bytes: u64,
    opens: u64,
    replay_micros_min: u64,
    replay_micros_mean: f64,
    records_per_sec: f64,
    /// Reopens whose exported state differed from the live state's.
    diverged_opens: u64,
}

/// A full benchmark report.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The parameters the run used.
    pub params: RecoveryParams,
    /// `journal_only`, then `snapshot_suffix`.
    pub phases: Vec<PhaseReport>,
}

fn bench_repo() -> Repository {
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

/// Run `n_changes` landings against a fresh store with the given
/// snapshot cadence, then time `opens` recoveries.
fn run_phase(name: &'static str, n_changes: u32, snapshot_every: u64, opens: u64) -> PhaseReport {
    let storage: Shared = Arc::new(Mutex::new(MemStorage::with_crashes(CrashPlan::none())));
    let config = DurableStoreConfig::with_snapshot_every(snapshot_every);
    let dq = DurableSubmitQueue::open(
        bench_repo(),
        2,
        RecoveryConfig::disabled(),
        storage.clone(),
        config.clone(),
    )
    .expect("open fresh store");
    let action = crate::always_pass();
    for i in 0..n_changes {
        dq.submit(
            "bench",
            format!("change {i}"),
            dq.head(),
            Patch::write(
                RepoPath::new("lib/l.rs").unwrap(),
                format!("pub fn l() {{ /* rev {i} */ }}"),
            ),
        )
        .expect("submit");
        dq.process_next(&action).expect("process");
    }
    let live_export = dq.export_state_json();
    let write_stats = dq.store_stats();
    let repo = dq.repository();
    drop(dq);

    let journal_bytes = storage
        .lock()
        .unwrap()
        .file(&config.journal_file)
        .map(|f| f.len() as u64)
        .unwrap_or(0);
    let mut total_micros = 0u64;
    let mut min_micros = u64::MAX;
    let mut replayed = 0u64;
    let mut snapshot_bytes = 0u64;
    let mut diverged_opens = 0u64;
    for _ in 0..opens {
        let dq = DurableSubmitQueue::open(
            repo.clone(),
            2,
            RecoveryConfig::disabled(),
            storage.clone(),
            config.clone(),
        )
        .expect("reopen");
        let st = dq.store_stats();
        total_micros += st.replay_micros;
        min_micros = min_micros.min(st.replay_micros);
        replayed = st.replayed_records;
        snapshot_bytes = st.last_snapshot_bytes;
        diverged_opens += u64::from(dq.export_state_json() != live_export);
    }
    let mean = total_micros as f64 / opens as f64;
    PhaseReport {
        name,
        journal_records: write_stats.appends,
        journal_bytes,
        snapshot_bytes,
        opens,
        replay_micros_min: min_micros,
        replay_micros_mean: mean,
        records_per_sec: replayed as f64 / (min_micros.max(1) as f64 / 1e6),
        diverged_opens,
    }
}

/// Run both phases.
pub fn run_recovery(params: &RecoveryParams) -> RecoveryReport {
    let (n, opens) = (params.n_changes, params.opens);
    RecoveryReport {
        params: params.clone(),
        phases: vec![
            run_phase("journal_only", n, u64::MAX, opens),
            run_phase("snapshot_suffix", n, 16, opens),
        ],
    }
}

/// The `recovery` row of the suite table.
pub const SUITE: Suite = Suite {
    name: "recovery",
    schema: "sq-bench-recovery/v1",
    deterministic: false,
    keys: &[
        ": mode n_changes",
        "phases: name journal_records journal_bytes snapshot_bytes opens",
        "phases: replay_micros_min replay_micros_mean records_per_sec",
    ],
    run: |smoke, flags| {
        no_flags(flags)?;
        let (mode, n_changes, opens) = if smoke {
            ("smoke", 8, 3)
        } else {
            ("standard", 64, 10)
        };
        Ok(Box::new(run_recovery(&RecoveryParams {
            mode,
            n_changes,
            opens,
        })))
    },
};

impl Report for RecoveryReport {
    fn summary(&self) -> Vec<String> {
        let mut lines = vec![format!("{:?}", self.params)];
        lines.extend(self.phases.iter().map(|p| {
            format!(
                "{}: {} records, {} journal bytes, {} snapshot bytes, \
                 min replay {} us, {:.0} records/s",
                p.name,
                p.journal_records,
                p.journal_bytes,
                p.snapshot_bytes,
                p.replay_micros_min,
                p.records_per_sec
            )
        }));
        lines
    }

    fn gate(&self) -> Vec<String> {
        let diverged = self.phases.iter().filter(|p| p.diverged_opens > 0);
        (diverged.map(|p| {
            format!(
                "{}: {} of {} recovered states differ from the live state",
                p.name, p.diverged_opens, p.opens
            )
        }))
        .collect()
    }

    fn doc(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", "sq-bench-recovery/v1");
        w.field_str("mode", self.params.mode);
        w.field_u64("n_changes", u64::from(self.params.n_changes));
        w.key("phases");
        w.begin_array();
        for p in &self.phases {
            w.begin_object();
            w.field_str("name", p.name);
            w.field_u64("journal_records", p.journal_records);
            w.field_u64("journal_bytes", p.journal_bytes);
            w.field_u64("snapshot_bytes", p.snapshot_bytes);
            w.field_u64("opens", p.opens);
            w.field_u64("replay_micros_min", p.replay_micros_min);
            w.field_f64("replay_micros_mean", p.replay_micros_mean);
            w.field_f64("records_per_sec", p.records_per_sec);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}
