//! The sharded-planner scaling benchmark: the `shard` suite.
//!
//! Runs the **same** workload through the planner twice under the
//! **same** planning-cost model (`PlanningCost`, the paper's Section 6
//! epoch made load-adaptive):
//!
//! * **single-queue** — one global pending window over the whole fleet.
//!   At monorepo-scale arrival rates the window grows, each planning
//!   round slows down (`base + per_pending · n`), scheduling falls
//!   behind, and throughput collapses: the planner, not the workers,
//!   saturates.
//! * **sharded** — a [`ShardPlan`] routes each change to its shard's
//!   planning lane (multi-shard footprints to the arbiter lane), each
//!   lane plans only its own small window on its own worker split, and
//!   the conflict graph stays global. Per-lane windows stay bounded, so
//!   ticks stay fast and throughput tracks the arrival rate.
//!
//! The committed document (`BENCH_shard.json` at the repo root) is a
//! pure function of the parameters — simulated time only, deterministic
//! floats — so same-seed reruns are byte-identical, which `--smoke`
//! asserts along with the correctness gates: both runs always-green on
//! the merged trunk, zero wrongful rejections globally *and per lane*,
//! and sharded sustained throughput at least the single-queue's. The
//! recorded configuration additionally gates the headline scale claim:
//! sharded sustains ≥ 10k changes/hour where single-queue saturates
//! below.

use crate::suite::{no_flags, pick, Report, Suite};
use sq_core::audit;
use sq_core::planner::{run_simulation, PlannerConfig, SimResult};
use sq_core::shard::{PlanningCost, ShardPlan, ShardReport, ShardSpec};
use sq_core::strategy::{Strategy, StrategyKind};
use sq_obs::JsonWriter;
use sq_sim::SimDuration;
use sq_workload::{Workload, WorkloadBuilder, WorkloadParams};

/// Salt for the predictor-training history (mirrors the scenario
/// runner's convention: same statistics, disjoint trace).
const HISTORY_SALT: u64 = 0xA11CE;

/// Parameters of one sharding benchmark run.
#[derive(Debug, Clone)]
pub struct ShardBenchParams {
    /// Master seed (the training history salts it).
    pub seed: u64,
    /// Arrival rate in changes/hour.
    pub rate_per_hour: f64,
    /// Hours of arrivals replayed.
    pub hours: f64,
    /// Logical parts in the cell's repository model.
    pub n_parts: usize,
    /// Shards the part space is partitioned into (lanes = shards + 1).
    pub n_shards: usize,
    /// Total worker fleet, identical for both configurations.
    pub total_workers: usize,
    /// Fixed planning-round cost, in milliseconds of simulated time.
    pub planning_base_ms: u64,
    /// Marginal planning cost per pending change, in milliseconds.
    pub planning_per_pending_ms: u64,
    /// Training-history size for the SubmitQueue predictor.
    pub history_changes: usize,
    /// Headline gate: sharded must sustain at least this rate and
    /// single-queue must saturate below it (`0.0` disables, as the
    /// smoke configuration does — relative ordering is still gated).
    pub throughput_floor: f64,
}

impl ShardBenchParams {
    /// The recorded configuration (what `BENCH_shard.json` reports): a
    /// large cell where the arrival rate exceeds what one planning
    /// window can schedule but not what the fleet can build.
    pub fn standard() -> Self {
        ShardBenchParams {
            seed: crate::BENCH_SEED,
            rate_per_hour: 14_000.0,
            hours: 0.5,
            n_parts: 8_192,
            n_shards: 16,
            total_workers: 3_600,
            planning_base_ms: 2_000,
            planning_per_pending_ms: 700,
            history_changes: 4_000,
            throughput_floor: 10_000.0,
        }
    }

    /// A small configuration for CI smoke runs: the same saturation
    /// regime (arrival rate × per-pending cost ≈ 2.3 ≫ 1 for the single
    /// window, ≲ 0.3 for every lane) at a fraction of the scale.
    pub fn smoke() -> Self {
        ShardBenchParams {
            seed: crate::BENCH_SEED,
            rate_per_hour: 2_400.0,
            hours: 0.5,
            n_parts: 2_048,
            n_shards: 8,
            total_workers: 400,
            planning_base_ms: 2_000,
            planning_per_pending_ms: 3_500,
            history_changes: 800,
            throughput_floor: 0.0,
        }
    }

    /// Changes replayed (`rate × hours`).
    pub fn n_changes(&self) -> usize {
        (self.rate_per_hour * self.hours).round() as usize
    }

    /// The cell's workload profile: iOS-shaped contention over a larger
    /// part space, with mostly single-part changes (so shard routing has
    /// a meaningful fast path) and short builds (so the fleet, not build
    /// latency, sets the worker-bound ceiling).
    pub fn workload_params(&self) -> WorkloadParams {
        let mut p = WorkloadParams::ios().with_rate(self.rate_per_hour);
        p.n_parts = self.n_parts;
        // At 10k+ changes/hour the repository is far larger than the
        // iOS cell's 300 parts — contention must scale down with rate
        // or every run drowns in justified conflict rejections instead
        // of exercising the planner. A flat-ish popularity curve over a
        // wide part space keeps real conflicts present but rare.
        p.part_zipf_s = 0.3;
        p.mean_parts_per_change = 1.1;
        p.duration_median_mins = 5.0;
        p.duration_min_mins = 1.0;
        p.duration_max_mins = 20.0;
        p
    }

    fn planning_cost(&self) -> PlanningCost {
        PlanningCost {
            base: SimDuration::from_millis(self.planning_base_ms),
            per_pending: SimDuration::from_millis(self.planning_per_pending_ms),
        }
    }
}

/// One configuration's outcome (single-queue or sharded).
#[derive(Debug, Clone)]
pub struct QueueCell {
    /// `"single-queue"` or `"sharded"`.
    pub label: String,
    /// Changes replayed.
    pub changes: u64,
    /// Changes that resolved (must equal `changes`).
    pub resolved: u64,
    /// Commits on the merged trunk.
    pub commits: u64,
    /// Rejections.
    pub rejects: u64,
    /// Whether the merged trunk passed `audit_green`.
    pub green: bool,
    /// Whether every rejection had a ground-truth justification.
    pub rejections_justified: bool,
    /// Wrongful rejections (must be 0).
    pub wrongful: u64,
    /// Sustained commit throughput (inter-quartile window), changes/h.
    pub sustained_per_hour: f64,
    /// Average throughput over the makespan, changes/h.
    pub throughput_per_hour: f64,
    /// Turnaround P50 in minutes.
    pub p50_mins: f64,
    /// Turnaround P95 in minutes.
    pub p95_mins: f64,
    /// Turnaround P99 in minutes.
    pub p99_mins: f64,
    /// Builds started.
    pub builds_started: u64,
    /// Builds aborted.
    pub builds_aborted: u64,
    /// Makespan in hours.
    pub makespan_hours: f64,
}

impl QueueCell {
    fn from_result(label: &str, workload: &Workload, r: &SimResult) -> QueueCell {
        let (p50, p95, p99) = r.turnaround_p50_p95_p99();
        QueueCell {
            label: label.to_string(),
            changes: workload.changes.len() as u64,
            resolved: r.records.len() as u64,
            commits: r.committed() as u64,
            rejects: r.rejected() as u64,
            green: audit::audit_green(workload, r).is_ok(),
            rejections_justified: audit::audit_rejections_justified(workload, r).is_ok(),
            wrongful: audit::count_wrongful_rejections(workload, r) as u64,
            sustained_per_hour: r.sustained_throughput_per_hour(),
            throughput_per_hour: r.throughput_per_hour(),
            p50_mins: p50,
            p95_mins: p95,
            p99_mins: p99,
            builds_started: r.builds_started,
            builds_aborted: r.builds_aborted,
            makespan_hours: r.makespan.as_hours_f64(),
        }
    }
}

/// One lane's slice of the sharded run.
#[derive(Debug, Clone)]
pub struct LaneCell {
    /// Lane name (`s00`…, `arbiter`).
    pub name: String,
    /// Workers allotted to the lane.
    pub workers: u64,
    /// Changes routed to the lane.
    pub routed: u64,
    /// Commits from the lane.
    pub committed: u64,
    /// Rejections from the lane.
    pub rejected: u64,
    /// Wrongful rejections attributed to the lane (must be 0).
    pub wrongful: u64,
}

/// A full benchmark report.
#[derive(Debug, Clone)]
pub struct ShardBenchReport {
    /// The parameters the run used.
    pub params: ShardBenchParams,
    /// The single-global-window configuration.
    pub single: QueueCell,
    /// The sharded multi-lane configuration.
    pub sharded: QueueCell,
    /// Per-lane breakdown of the sharded run.
    pub lanes: Vec<LaneCell>,
}

impl ShardBenchReport {
    /// Render the committed machine-readable document. Every field is a
    /// pure function of the parameters (simulated time only), so reruns
    /// are byte-identical.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", "sq-bench-shard/v1");
        w.key("params");
        w.begin_object();
        w.field_u64("seed", self.params.seed);
        w.field_f64("rate_per_hour", self.params.rate_per_hour);
        w.field_f64("hours", self.params.hours);
        w.field_u64("n_changes", self.params.n_changes() as u64);
        w.field_u64("n_parts", self.params.n_parts as u64);
        w.field_u64("n_shards", self.params.n_shards as u64);
        w.field_u64("total_workers", self.params.total_workers as u64);
        w.field_u64("planning_base_ms", self.params.planning_base_ms);
        w.field_u64(
            "planning_per_pending_ms",
            self.params.planning_per_pending_ms,
        );
        w.field_u64("history_changes", self.params.history_changes as u64);
        w.field_f64("throughput_floor", self.params.throughput_floor);
        w.end_object();
        for cell in [&self.single, &self.sharded] {
            w.key(&cell.label);
            w.begin_object();
            w.field_u64("changes", cell.changes);
            w.field_u64("resolved", cell.resolved);
            w.field_u64("commits", cell.commits);
            w.field_u64("rejects", cell.rejects);
            w.key("green");
            w.value_bool(cell.green);
            w.key("rejections_justified");
            w.value_bool(cell.rejections_justified);
            w.field_u64("wrongful_rejections", cell.wrongful);
            w.field_f64("sustained_per_hour", cell.sustained_per_hour);
            w.field_f64("throughput_per_hour", cell.throughput_per_hour);
            w.key("turnaround_mins");
            w.begin_object();
            w.field_f64("p50", cell.p50_mins);
            w.field_f64("p95", cell.p95_mins);
            w.field_f64("p99", cell.p99_mins);
            w.end_object();
            w.field_u64("builds_started", cell.builds_started);
            w.field_u64("builds_aborted", cell.builds_aborted);
            w.field_f64("makespan_hours", cell.makespan_hours);
            w.end_object();
        }
        w.key("lanes");
        w.begin_array();
        for l in &self.lanes {
            w.begin_object();
            w.field_str("name", &l.name);
            w.field_u64("workers", l.workers);
            w.field_u64("routed", l.routed);
            w.field_u64("committed", l.committed);
            w.field_u64("rejected", l.rejected);
            w.field_u64("wrongful", l.wrongful);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// The CI gate: both configurations resolve everything and keep the
    /// merged trunk green with zero wrongful rejections (globally and
    /// per lane), the lanes are one per shard plus the arbiter and
    /// account for every change, and sharding never loses throughput. With a
    /// `throughput_floor`, the headline claim is gated too: sharded
    /// sustains at least the floor while single-queue saturates below.
    pub fn smoke_gate(&self) -> Result<(), String> {
        for cell in [&self.single, &self.sharded] {
            if cell.resolved != cell.changes {
                return Err(format!(
                    "{}: only {} of {} changes resolved",
                    cell.label, cell.resolved, cell.changes
                ));
            }
            if !cell.green {
                return Err(format!("{}: merged trunk is not always-green", cell.label));
            }
            if !cell.rejections_justified {
                return Err(format!("{}: a rejection lacks justification", cell.label));
            }
            if cell.wrongful != 0 {
                return Err(format!(
                    "{}: {} wrongful rejection(s)",
                    cell.label, cell.wrongful
                ));
            }
        }
        for l in &self.lanes {
            if l.wrongful != 0 {
                return Err(format!(
                    "lane {}: {} wrongful rejection(s)",
                    l.name, l.wrongful
                ));
            }
        }
        if self.lanes.len() != self.params.n_shards + 1 {
            return Err(format!(
                "{} lanes for {} shards and one arbiter",
                self.lanes.len(),
                self.params.n_shards
            ));
        }
        let routed: u64 = self.lanes.iter().map(|l| l.routed).sum();
        if routed != self.sharded.resolved {
            return Err(format!(
                "lanes account for {routed} of {} resolved changes",
                self.sharded.resolved
            ));
        }
        if self.sharded.sustained_per_hour < self.single.sustained_per_hour {
            return Err(format!(
                "sharded sustained {:.0}/h below single-queue {:.0}/h",
                self.sharded.sustained_per_hour, self.single.sustained_per_hour
            ));
        }
        let floor = self.params.throughput_floor;
        if floor > 0.0 {
            if self.sharded.sustained_per_hour < floor {
                return Err(format!(
                    "sharded sustained {:.0}/h misses the {floor:.0}/h floor",
                    self.sharded.sustained_per_hour
                ));
            }
            if self.single.sustained_per_hour >= floor {
                return Err(format!(
                    "single-queue sustained {:.0}/h did not saturate below {floor:.0}/h",
                    self.single.sustained_per_hour
                ));
            }
        }
        Ok(())
    }
}

/// Run the benchmark: one workload, two planner configurations, one
/// per-lane report.
pub fn run_shard_bench(params: &ShardBenchParams) -> ShardBenchReport {
    let wl = params.workload_params();
    let w = WorkloadBuilder::new(wl.clone())
        .seed(params.seed)
        .n_changes(params.n_changes())
        .build()
        .expect("valid cell parameters");
    let history = WorkloadBuilder::new(wl)
        .seed(params.seed ^ HISTORY_SALT)
        .n_changes(params.history_changes)
        .build()
        .expect("valid history parameters");
    let strategy = Strategy::build(StrategyKind::SubmitQueue, &w, Some(&history));
    let cost = params.planning_cost();

    let single_cfg = PlannerConfig {
        workers: params.total_workers,
        planning_cost: Some(cost),
        ..PlannerConfig::default()
    };
    let plan = ShardPlan::round_robin(params.n_parts, params.n_shards);
    let spec = ShardSpec::proportional(plan.clone(), &w, params.total_workers);
    let lane_workers = spec.lane_workers.clone();
    let sharded_cfg = PlannerConfig {
        shards: Some(spec),
        planning_cost: Some(cost),
        ..PlannerConfig::default()
    };

    let r_single = run_simulation(&w, &strategy, &single_cfg);
    let r_sharded = run_simulation(&w, &strategy, &sharded_cfg);

    let report = ShardReport::from_result(&w, &r_sharded, &plan);
    let lanes = report
        .lanes
        .iter()
        .map(|l| LaneCell {
            name: l.name.clone(),
            workers: lane_workers[l.lane] as u64,
            routed: l.routed as u64,
            committed: l.committed as u64,
            rejected: l.rejected as u64,
            wrongful: l.wrongful as u64,
        })
        .collect();

    ShardBenchReport {
        params: params.clone(),
        single: QueueCell::from_result("single-queue", &w, &r_single),
        sharded: QueueCell::from_result("sharded", &w, &r_sharded),
        lanes,
    }
}

/// The `shard` row of the suite table.
pub const SUITE: Suite = Suite {
    name: "shard",
    schema: "sq-bench-shard/v1",
    keys: &[
        "params: seed rate_per_hour hours n_changes n_parts n_shards total_workers",
        "params: planning_base_ms planning_per_pending_ms history_changes throughput_floor",
        "single-queue: changes resolved commits rejects green rejections_justified",
        "single-queue: wrongful_rejections sustained_per_hour throughput_per_hour turnaround_mins",
        "single-queue: builds_started builds_aborted makespan_hours",
        "sharded: changes resolved commits rejects green rejections_justified",
        "sharded: wrongful_rejections sustained_per_hour throughput_per_hour turnaround_mins",
        "sharded: builds_started builds_aborted makespan_hours",
        "lanes: name workers routed committed rejected wrongful",
    ],
    run: |smoke, flags| {
        no_flags(flags)?;
        let params = pick(smoke, ShardBenchParams::smoke, ShardBenchParams::standard);
        Ok(Box::new(run_shard_bench(&params)))
    },
};

impl Report for ShardBenchReport {
    fn summary(&self) -> Vec<String> {
        let mut lines = vec![format!("{:?}", self.params)];
        lines.extend([&self.single, &self.sharded].map(|cell| {
            format!(
                "{:<12} sustained {:>8.0}/h | commits {:>5} | rejects {:>4} | \
                 P50 {:>7.1}m P95 {:>7.1}m | green={} wrongful={}",
                cell.label,
                cell.sustained_per_hour,
                cell.commits,
                cell.rejects,
                cell.p50_mins,
                cell.p95_mins,
                cell.green,
                cell.wrongful,
            )
        }));
        lines.extend(self.lanes.iter().map(|l| {
            format!(
                "  lane {:<8} workers {:>4} | routed {:>5} | committed {:>5} | \
                 rejected {:>4} | wrongful {}",
                l.name, l.workers, l.routed, l.committed, l.rejected, l.wrongful
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
