//! The names and units this benchmark prints. `BENCHMARK.json` carries
//! the same names with their direction and regression bound; a test
//! holds the two together.

use std::collections::BTreeMap;

pub const WORKLOADS: [&str; 4] = ["serve_queue", "serve_build", "serve_open", "plan_sim"];

/// End-to-end metrics: (name, unit). Every workload prints every one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("verdict_ms_p50", "ms"),
    ("verdict_ms_p90", "ms"),
    ("cpu_ms_per_change", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    // sq-build, from the layer replay.
    ("build.parse_us", "us"),
    ("build.hash_us", "us"),
    ("build.affected_us", "us"),
    ("build.targets", "count"),
    ("build.affected_targets", "count"),
    // sq-vcs, from the layer replay.
    ("vcs.snapshot_us", "us"),
    ("vcs.merge_us", "us"),
    ("vcs.apply_us", "us"),
    ("vcs.commit_us", "us"),
    // sq-exec, from the layer replay.
    ("exec.execute_us", "us"),
    ("exec.step_us", "us"),
    ("exec.steps_per_change", "count"),
    ("exec.parallelism", "ratio"),
    ("exec.cache_hit_rate", "ratio"),
    // sq-core's service and durable wrapper, opaque twins in the replay.
    ("core.service.process_us", "us"),
    ("core.service.replay_coverage", "ratio"),
    ("core.durable.process_us", "us"),
    ("core.durable.submit_us", "us"),
    ("core.durable.journal_share", "ratio"),
    // sq-store.
    ("store.append_fs_us", "us"),
    ("store.append_mem_us", "us"),
    ("store.appends_per_change", "count"),
    ("store.fsyncs_per_change", "count"),
    ("store.bytes_per_change", "bytes"),
    ("store.snapshot_us", "us"),
    ("store.snapshot_bytes", "bytes"),
    ("store.recover_ms", "ms"),
    ("store.ship_quorum2_us", "us"),
    ("store.ship_bytes_per_change", "bytes"),
    ("core.failover.promote_ms", "ms"),
    // sq-server.
    ("server.protocol.encode_us", "us"),
    ("server.protocol.decode_us", "us"),
    ("server.protocol.frame_bytes", "bytes"),
    ("server.rtt_head_tcp_us", "us"),
    ("server.rtt_head_uds_us", "us"),
    ("server.requests", "count"),
    ("server.busy_replies", "count"),
    ("server.conns_accepted", "count"),
    // The planner core, on fixed pending windows and the reference sim.
    ("core.speculation.select_us_w64", "us"),
    ("core.speculation.select_us_w256", "us"),
    ("core.index.matrix_us_w256", "us"),
    ("core.index.pairs_checked", "count"),
    ("core.index.cache_hit_rate", "ratio"),
    ("core.analyzer.admit_us_w256", "us"),
    ("core.predict.score_us", "us"),
    ("ml.train_ms", "ms"),
    ("core.planner.us_per_change", "us"),
    ("core.planner.epochs", "count"),
    ("core.planner.builds_started", "count"),
    ("core.planner.builds_aborted", "count"),
    ("core.planner.wasted_share", "ratio"),
    ("core.planner.sim_throughput_per_h", "1/sim_h"),
    ("core.planner.sim_turnaround_p95_min", "sim_min"),
    // The load generator's own view, and the harness itself.
    ("client.samples", "count"),
    ("client.verdict_ms_p99", "ms"),
    ("client.ack_ms_p50", "ms"),
    ("client.ack_ms_p90", "ms"),
    ("client.ack_ms_p99", "ms"),
    ("client.status_us_p50", "us"),
    ("client.status_us_p90", "us"),
    ("client.late_ms_p99", "ms"),
    ("client.offered_per_s", "1/s"),
    ("client.rejected_share", "ratio"),
    ("client.slowdown_ratio", "ratio"),
    ("workload.generate_ms", "ms"),
    ("workload.materialize_ms", "ms"),
    ("obs.trace_overhead_share", "ratio"),
    ("obs.observer_overhead_share", "ratio"),
];

/// What one run found: the metric values by name, the operations it
/// attempted and how many failed, and the failed checks by description.
#[derive(Debug, Default)]
pub struct Report {
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failed_checks: Vec<String>,
    /// Lines for the reader, not parsed by anything.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Record a correctness gate; a failed one counts as a failed
    /// operation and makes the run exit non-zero.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failed_checks.push(what());
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn merge(&mut self, other: Report) {
        self.values.extend(other.values);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failed_checks.extend(other.failed_checks);
        self.notes.extend(other.notes);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}
