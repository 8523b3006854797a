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

use crate::suite::{pick, write_record, Report, Suite};
use sq_core::audit::AuditedRun;
use sq_core::planner::{run_simulation, PlannerConfig};
use sq_core::shard::{PlanningCost, ShardPlan, ShardSpec};
use sq_core::strategy::{Strategy, StrategyKind};
use sq_obs::JsonWriter;
use sq_sim::SimDuration;
use sq_workload::{WorkloadBuilder, WorkloadParams};

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

/// A full benchmark report: one workload, two planner configurations.
#[derive(Debug)]
pub struct ShardBenchReport {
    /// The parameters the run used.
    pub params: ShardBenchParams,
    /// The single-global-window configuration.
    pub single: AuditedRun,
    /// The sharded multi-lane configuration, with its per-lane report.
    pub sharded: AuditedRun,
}

impl ShardBenchReport {
    /// The two runs under their document keys.
    fn runs(&self) -> [(&'static str, &AuditedRun); 2] {
        [("single-queue", &self.single), ("sharded", &self.sharded)]
    }

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
        for (label, run) in self.runs() {
            w.key(label);
            w.begin_object();
            write_record(&mut w, run);
            w.end_object();
        }
        w.end_object();
        w.finish()
    }

    /// The CI gate: both configurations pass [`AuditedRun::problems`]
    /// (wrongful rejections gated per lane too), the lanes are one per
    /// shard plus the arbiter and account for every change, and sharding
    /// never loses throughput. With a `throughput_floor`, the headline
    /// claim is gated too: sharded sustains at least the floor while
    /// single-queue saturates below. Returns every violation found.
    pub fn violations(&self) -> Vec<String> {
        let mut problems: Vec<String> = (self.runs().iter())
            .flat_map(|(label, run)| run.problems(label))
            .collect();
        let lanes = self
            .sharded
            .lanes
            .as_ref()
            .map_or(&[][..], |r| &r.lanes[..]);
        if lanes.len() != self.params.n_shards + 1 {
            problems.push(format!(
                "{} lanes for {} shards and one arbiter",
                lanes.len(),
                self.params.n_shards
            ));
        }
        let routed: usize = lanes.iter().map(|l| l.routed).sum();
        let resolved = self.sharded.result.records.len();
        if routed != resolved {
            problems.push(format!(
                "lanes account for {routed} of {resolved} resolved changes"
            ));
        }
        let single = self.single.result.sustained_throughput_per_hour();
        let sharded = self.sharded.result.sustained_throughput_per_hour();
        if sharded < single {
            problems.push(format!(
                "sharded sustained {sharded:.0}/h below single-queue {single:.0}/h"
            ));
        }
        let floor = self.params.throughput_floor;
        if floor > 0.0 && sharded < floor {
            problems.push(format!(
                "sharded sustained {sharded:.0}/h misses the {floor:.0}/h floor"
            ));
        }
        if floor > 0.0 && single >= floor {
            problems.push(format!(
                "single-queue sustained {single:.0}/h did not saturate below {floor:.0}/h"
            ));
        }
        problems
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
    let spec = ShardSpec::proportional(plan, &w, params.total_workers);
    let sharded_cfg = PlannerConfig {
        shards: Some(spec),
        planning_cost: Some(cost),
        ..PlannerConfig::default()
    };

    let r_single = run_simulation(&w, &strategy, &single_cfg);
    let r_sharded = run_simulation(&w, &strategy, &sharded_cfg);
    ShardBenchReport {
        params: params.clone(),
        single: AuditedRun::new(&w, r_single, None),
        sharded: AuditedRun::new(&w, r_sharded, sharded_cfg.shards.as_ref()),
    }
}

/// The `shard` row of the suite table.
pub const SUITE: Suite = Suite {
    name: "shard",
    schema: "sq-bench-shard/v1",
    keys: &[
        "params: seed rate_per_hour hours n_changes n_parts n_shards total_workers",
        "params: planning_base_ms planning_per_pending_ms history_changes throughput_floor",
        "sharded: lanes",
    ],
    records: &["single-queue", "sharded"],
    run: |smoke| {
        let params = pick(smoke, ShardBenchParams::smoke, ShardBenchParams::standard);
        Box::new(run_shard_bench(&params))
    },
};

impl Report for ShardBenchReport {
    fn summary(&self) -> Vec<String> {
        let mut lines = vec![format!("{:?}", self.params)];
        lines.extend(self.runs().map(|(label, run)| {
            let r = &run.result;
            let (p50, p95, _) = r.turnaround_p50_p95_p99();
            format!(
                "{label:<12} sustained {:>8.0}/h | commits {:>5} | rejects {:>4} | \
                 P50 {p50:>7.1}m P95 {p95:>7.1}m | green={} wrongful={}",
                r.sustained_throughput_per_hour(),
                r.committed(),
                r.rejected(),
                run.green.is_ok(),
                run.wrongful,
            )
        }));
        lines.extend(self.sharded.lanes.iter().flat_map(|r| &r.lanes).map(|l| {
            format!(
                "  lane {:<8} workers {:>4} | routed {:>5} | committed {:>5} | \
                 rejected {:>4} | wrongful {}",
                l.name, l.workers, l.routed, l.committed, l.rejected, l.wrongful
            )
        }));
        lines
    }

    fn gate(&self) -> Vec<String> {
        self.violations()
    }

    fn doc(&self) -> String {
        self.to_json()
    }
}
