//! The planner engine (paper Section 6) as a discrete-event simulation:
//! the first driver of the decision core.
//!
//! [`crate::decision::Core`] decides — which builds a lane wants, which
//! running builds are contradicted, when a change commits or is
//! rejected. This module owns what the core may not know: the event
//! queue and its simulated clock, one [`WorkerPool`] per lane, ground
//! truth, the seeded infra-fault dice, build durations and backoff, the
//! result's accounting, and every [`Observer`] call.
//!
//! On every event (change arrival, build completion) the driver tells
//! the core what happened, then has it plan every lane (the paper's
//! planner contacts the speculation engine "on every epoch"; replanning
//! event-driven is the epoch limit → 0, and `epoch` / `planning_cost`
//! defer each lane to its next tick instead), and carries the core's
//! actions out in order. Build outcomes come from the workload's ground
//! truth, so every strategy replays the identical reality; the audit
//! module then verifies the headline invariant (an always-green commit
//! log) after the fact.

use crate::decision::{Action, BuildId, Core, Outcome};
use crate::fasthash::FastMap;
use crate::lean::LeanReport;
use crate::pending::{ChangeOutcome, ChangeRecord};
use crate::shard::{PlanningCost, ShardSpec};
use crate::speculation::BuildKey;
use crate::strategy::{Strategy, StrategyKind};
use sq_exec::fault::{fraction, mix64};
use sq_exec::{RetryPolicy, WorkerPool};
use sq_obs::{Observer, SpanId};
use sq_sim::{run as run_des, EventQueue, Scheduler, SimDuration, SimTime};
use sq_workload::{ChangeId, ChangeSpec, GroundTruth, Workload};

/// Fixed scheduling/fetch overhead added to every build (and, in
/// [`crate::batching`], to every batch build).
pub(crate) const BUILD_OVERHEAD: SimDuration = SimDuration::from_secs(60);

/// Safety valve on simulation events: a run that has not drained by then
/// panics rather than reading as a finished one.
const MAX_EVENTS: u64 = 50_000_000;

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Worker fleet size (each build occupies one worker).
    pub workers: usize,
    /// Whether the conflict analyzer is enabled (Figure 13 ablates this;
    /// disabled ⇒ every pair of pending changes is treated as
    /// conflicting, the Section 4 baseline assumption).
    pub conflict_analyzer: bool,
    /// Section 10 "Change Reordering": when enabled, a change may commit
    /// as soon as its build against the *current* committed prefix
    /// succeeds, even if earlier conflicting changes are still pending —
    /// small changes no longer wait behind a large refactor. The paper
    /// flags the starvation/fairness tradeoff; the greedy policy here
    /// surfaces it as increased aborted-build counts for the overtaken
    /// changes.
    pub reorder: bool,
    /// Section 10 "Build Preemption": when set, a running build whose
    /// progress fraction is at least this value is never preempted for a
    /// gating build ("if a build is near its completion, it might be
    /// beneficial to continue running its build steps").
    pub preemption_guard: Option<f64>,
    /// Section 6 epochs: when set, the planner contacts the speculation
    /// engine only every `epoch` of simulated time instead of on every
    /// event ("the planner engine contacts the speculation engine on
    /// every epoch"). `None` replans event-driven (epoch → 0), which is
    /// strictly more reactive; the ablation quantifies what longer
    /// epochs cost.
    pub epoch: Option<SimDuration>,
    /// Deterministic infra-fault model: when set, each finished build
    /// attempt may come back infra-red and is retried (worker retained,
    /// backoff charged) instead of being treated as a change failure.
    pub faults: Option<SimFaults>,
    /// Sharded multi-lane planning (ROADMAP item 1): when set, changes
    /// route to per-shard planning lanes (multi-shard footprints to the
    /// arbiter lane), each lane plans only its own pending window with
    /// its own worker sub-fleet, and the conflict graph + resolution
    /// rule stay global so always-green holds over the merged trunk.
    /// `None` keeps today's single global lane, bit for bit.
    pub shards: Option<ShardSpec>,
    /// Model of the planning round's own cost: when set, each lane's
    /// replans are deferred to adaptive ticks `base + per_pending · n`
    /// behind its window size `n` (composing with [`Self::epoch`], which
    /// adds its fixed period on top). This is what a huge single-lane
    /// window saturates on; `None` models free planning rounds.
    pub planning_cost: Option<PlanningCost>,
}

/// Deterministic infra-failure model for the simulation.
///
/// An infra-red attempt carries no information about the change, so the
/// planner *never* rejects on it: the build reruns on the same worker
/// after a charged backoff, for as long as it takes. The retry policy's
/// attempt bound only sets where the backoff schedule plateaus and when
/// a change is flagged for quarantine — infra evidence alone can never
/// turn into a rejection, which is what keeps wrongly-rejected-change
/// counts at zero under flake-rate sweeps.
#[derive(Debug, Clone)]
pub struct SimFaults {
    /// Probability that any single build attempt ends infra-red.
    pub rate: f64,
    /// Seed for the per-(build, attempt) fault decisions.
    pub seed: u64,
    /// Backoff schedule charged (as queue time on the retained worker)
    /// before each infra retry.
    pub retry: RetryPolicy,
    /// Infra-red attempts observed on one change before it is flagged
    /// in the result's quarantine list (retrying continues regardless).
    pub quarantine_threshold: u32,
}

impl SimFaults {
    /// A uniform fault model at `rate` with production-shaped backoff.
    /// Panics unless `rate` is a probability in `[0, 1]`.
    pub fn at_rate(rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate must be in [0,1]");
        SimFaults {
            rate,
            seed,
            retry: RetryPolicy::standard(4, seed),
            quarantine_threshold: 3,
        }
    }

    /// Decide whether `attempt` (1-based) of the build `key` is
    /// infra-red. Pure function of `(seed, key, attempt)` — identical
    /// across runs, independent of event interleaving.
    pub fn infra_red(&self, key: &BuildKey, attempt: u32) -> bool {
        if self.rate <= 0.0 {
            return false;
        }
        let mut h = mix64(self.seed ^ 0x5EED_FA17);
        h = mix64(h ^ key.subject.0);
        for a in &key.assumed {
            h = mix64(h ^ a.0.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        h = mix64(h ^ u64::from(attempt));
        fraction(h) < self.rate
    }
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            workers: 100,
            conflict_analyzer: true,
            reorder: false,
            preemption_guard: None,
            epoch: None,
            faults: None,
            shards: None,
            planning_cost: None,
        }
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The policy that ran.
    pub strategy: StrategyKind,
    /// Per-change records, in resolution order.
    pub records: Vec<ChangeRecord>,
    /// Commit log: change ids in mainline order.
    pub commit_log: Vec<ChangeId>,
    /// Simulated time when the last change resolved.
    pub makespan: SimTime,
    /// Builds started / aborted (wasted work measure).
    pub builds_started: u64,
    /// Builds aborted before finishing.
    pub builds_aborted: u64,
    /// Mean worker utilization over the run.
    pub utilization: f64,
    /// Build attempts that came back infra-red and were retried
    /// (0 unless [`PlannerConfig::faults`] is set).
    pub infra_retries: u64,
    /// Total backoff charged before infra retries (adds latency, never
    /// rejections).
    pub infra_backoff: SimDuration,
    /// Changes flagged as chronically infra-flaky (quarantine list).
    pub quarantined: Vec<ChangeId>,
    /// Lean-speculation accounting (skips, hits, misses, bypasses) —
    /// present exactly when the strategy is a lean instance.
    pub lean: Option<LeanReport>,
}

impl SimResult {
    /// Committed change count.
    pub fn committed(&self) -> usize {
        self.commit_log.len()
    }

    /// Rejected change count.
    pub fn rejected(&self) -> usize {
        self.records.len() - self.commit_log.len()
    }

    /// Turnaround percentiles in minutes: (P50, P95, P99).
    pub fn turnaround_p50_p95_p99(&self) -> (f64, f64, f64) {
        let mut p = sq_sim::Percentiles::with_capacity(self.records.len());
        for r in &self.records {
            p.push(r.turnaround.as_mins_f64());
        }
        p.p50_p95_p99().unwrap_or((0.0, 0.0, 0.0))
    }

    /// Mean turnaround in minutes.
    pub fn mean_turnaround_mins(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records
            .iter()
            .map(|r| r.turnaround.as_mins_f64())
            .sum::<f64>()
            / self.records.len() as f64
    }

    /// Average commit throughput in changes/hour over the makespan.
    pub fn throughput_per_hour(&self) -> f64 {
        let hours = self.makespan.as_hours_f64();
        if hours <= 0.0 {
            return 0.0;
        }
        self.committed() as f64 / hours
    }

    /// Sustained commit throughput: the rate over the inter-quartile
    /// window of commit times. Robust to the warm-up ramp and to the
    /// drain-phase stragglers at the end of a finite replay, which is
    /// what the paper's steady-state "average throughput" reports.
    pub fn sustained_throughput_per_hour(&self) -> f64 {
        let mut commit_times: Vec<f64> = self
            .records
            .iter()
            .filter(|r| matches!(r.outcome, crate::pending::ChangeOutcome::Committed))
            .map(|r| r.resolved.as_hours_f64())
            .collect();
        if commit_times.len() < 4 {
            return self.throughput_per_hour();
        }
        commit_times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        let n = commit_times.len();
        let t25 = commit_times[n / 4];
        let t75 = commit_times[(3 * n) / 4];
        let span = t75 - t25;
        if span <= 1e-9 {
            return self.throughput_per_hour();
        }
        (n as f64 / 2.0) / span
    }

    /// Turnaround values in minutes (for CDFs).
    pub fn turnarounds_mins(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.turnaround.as_mins_f64())
            .collect()
    }
}

/// Run a strategy over a workload.
///
/// ```
/// use sq_core::planner::{run_simulation, PlannerConfig};
/// use sq_core::strategy::{Strategy, StrategyKind};
/// use sq_workload::{WorkloadBuilder, WorkloadParams};
///
/// let workload = WorkloadBuilder::new(WorkloadParams::ios().with_rate(100.0))
///     .seed(1)
///     .n_changes(20)
///     .build()
///     .unwrap();
/// let oracle = Strategy::build(StrategyKind::Oracle, &workload, None);
/// let result = run_simulation(&workload, &oracle, &PlannerConfig::default());
/// assert_eq!(result.records.len(), 20);
/// sq_core::audit::audit_green(&workload, &result).unwrap();
/// ```
pub fn run_simulation(
    workload: &Workload,
    strategy: &Strategy,
    config: &PlannerConfig,
) -> SimResult {
    let mut obs = Observer::disabled();
    run_simulation_observed(workload, strategy, config, &mut obs)
}

/// [`run_simulation`] with observability: planner decisions, speculation
/// pressure, build spans, and recovery events are recorded into `obs`
/// as the simulation runs.
///
/// Everything recorded is a pure function of `(workload, strategy,
/// config)` — timestamps are simulated, names are sorted at export — so
/// two same-seed runs produce byte-identical `obs.to_json()` output.
/// Passing [`Observer::disabled`] makes every hook a no-op;
/// [`run_simulation`] is exactly that.
pub fn run_simulation_observed(
    workload: &Workload,
    strategy: &Strategy,
    config: &PlannerConfig,
    obs: &mut Observer,
) -> SimResult {
    run_capped(workload, strategy, config, obs, MAX_EVENTS)
}

fn run_capped(
    workload: &Workload,
    strategy: &Strategy,
    config: &PlannerConfig,
    obs: &mut Observer,
    max_events: u64,
) -> SimResult {
    let core = Core::new(workload, strategy, config);
    let mut sim = Driver {
        workload,
        truth: workload.truth(),
        config,
        pools: (0..core.n_lanes())
            .map(|l| WorkerPool::new(core.budget(l)))
            .collect(),
        lane_labels: match &config.shards {
            Some(s) => (0..core.n_lanes()).map(|l| s.plan.lane_name(l)).collect(),
            None => vec![String::new()],
        },
        epoch_scheduled: vec![false; core.n_lanes()],
        core,
        live: FastMap::default(),
        actions: Vec::new(),
        builds_started: 0,
        builds_aborted: 0,
        records: Vec::with_capacity(workload.changes.len()),
        commit_log: Vec::new(),
        makespan: SimTime::ZERO,
        infra_attempts: FastMap::default(),
        infra_retries: 0,
        infra_backoff: SimDuration::ZERO,
        obs,
    };
    let mut queue: EventQueue<Event> = EventQueue::new();
    for (i, c) in workload.changes.iter().enumerate() {
        queue.schedule(c.submit_time, Event::Arrival(i));
    }
    let outcome = run_des(&mut sim, &mut queue, max_events);
    // Not a debug assertion: everything runs in release, and a run cut
    // short must not read as a finished one.
    assert!(
        outcome.drained,
        "simulation stopped at max_events: {} events handled, {} of {} changes still pending",
        outcome.events_handled,
        workload.changes.len() - sim.records.len(),
        workload.changes.len()
    );
    // Fleet-wide utilization: per-pool utilization weighted by lane
    // size (reduces to the single pool's value with one lane).
    let makespan = sim.makespan;
    let total_workers: usize = sim.pools.iter().map(WorkerPool::total).sum();
    let busy_weighted: f64 = sim
        .pools
        .iter_mut()
        .map(|p| p.utilization(makespan) * p.total() as f64)
        .sum();
    let utilization = busy_weighted / total_workers as f64;
    let lean = sim.core.lean_report();
    if sim.obs.is_enabled() {
        let per_worker: Vec<f64> = sim
            .pools
            .iter()
            .flat_map(|p| p.per_worker_utilization(makespan))
            .collect();
        let metrics = &mut sim.obs.metrics;
        metrics.set_gauge("planner.utilization", utilization);
        metrics.set_gauge("planner.makespan_mins", sim.makespan.as_secs_f64() / 60.0);
        let needed = metrics.counter("planner.builds_needed");
        metrics.set_gauge(
            "planner.builds_wasted",
            sim.builds_started.saturating_sub(needed) as f64,
        );
        for u in per_worker {
            metrics.observe("planner.worker_utilization", u);
        }
        // Conflict-index counters: pure functions of the queries made.
        sim.core.analyzer_stats().record_into(metrics);
        // Lean counters exist only for lean strategies, so every other
        // strategy's export stays byte-identical to the pre-lean planner.
        if let Some(report) = &lean {
            report.record_into(metrics);
        }
    }
    SimResult {
        strategy: strategy.kind(),
        records: sim.records,
        commit_log: sim.commit_log,
        makespan: sim.makespan,
        builds_started: sim.builds_started,
        builds_aborted: sim.builds_aborted,
        utilization,
        infra_retries: sim.infra_retries,
        infra_backoff: sim.infra_backoff,
        quarantined: sim.core.quarantined(),
        lean,
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// Index into `workload.changes`.
    Arrival(usize),
    /// A build's current attempt finished (stale if aborted meanwhile).
    BuildDone(BuildId),
    /// Planning tick for one lane (epoch / planning-cost modes only;
    /// lane 0 is the only lane without sharding).
    Epoch(usize),
}

/// What the driver knows about a build the core has running.
#[derive(Debug, Clone, Copy)]
struct LiveBuild {
    /// Start and scheduled finish of the current attempt.
    start: SimTime,
    finish: SimTime,
    /// The worker it occupies: pool (by lane) and slot there.
    lane: usize,
    slot: usize,
    /// Trace span opened at the first start, closed at finish/abort.
    span: SpanId,
}

struct Driver<'a> {
    workload: &'a Workload,
    truth: GroundTruth,
    config: &'a PlannerConfig,
    core: Core<'a>,
    /// One worker pool per lane (a single pool without sharding).
    pools: Vec<WorkerPool>,
    /// Display label per lane (empty without sharding — the single-lane
    /// export must stay byte-identical to the pre-shard planner).
    lane_labels: Vec<String>,
    live: FastMap<BuildId, LiveBuild>,
    /// The core's orders, carried out and drained after every input.
    actions: Vec<Action>,
    builds_started: u64,
    builds_aborted: u64,
    records: Vec<ChangeRecord>,
    commit_log: Vec<ChangeId>,
    makespan: SimTime,
    /// Whether a planning tick is scheduled, per lane.
    epoch_scheduled: Vec<bool>,
    /// Attempt ordinal per build key (for fault decisions).
    infra_attempts: FastMap<BuildKey, u32>,
    infra_retries: u64,
    infra_backoff: SimDuration,
    obs: &'a mut Observer,
}

impl<'a> Driver<'a> {
    fn spec(&self, id: ChangeId) -> &'a ChangeSpec {
        // Change ids are dense indices by construction.
        &self.workload.changes[id.0 as usize]
    }

    /// Carry out, in order, what the core ordered since the last call.
    fn apply(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>) {
        let mut actions = std::mem::take(&mut self.actions);
        for action in actions.drain(..) {
            match action {
                Action::Start {
                    build,
                    key,
                    lane,
                    gating,
                } => {
                    let slot = self.pools[lane]
                        .acquire_worker(now)
                        .expect("the core starts no build beyond a lane's budget");
                    let duration = self.spec(key.subject).build_duration + BUILD_OVERHEAD;
                    sched.at(now + duration, Event::BuildDone(build));
                    let tracer = &mut self.obs.tracer;
                    let span = tracer.start_span("build", now);
                    tracer.span_field(span, "subject", key.subject.0 as f64);
                    tracer.span_field(span, "assumed", key.assumed.len() as f64);
                    tracer.span_field(span, "worker", slot as f64);
                    self.obs.metrics.inc("planner.builds_started");
                    if gating {
                        self.obs.metrics.inc("planner.gating_builds_started");
                    }
                    let (start, finish) = (now, now + duration);
                    let b = LiveBuild {
                        start,
                        finish,
                        lane,
                        slot,
                        span,
                    };
                    self.live.insert(build, b);
                    self.builds_started += 1;
                }
                Action::Abort { build, preempted } => {
                    let b = self.live.remove(&build).expect("aborted build is live");
                    self.pools[b.lane].release_worker(b.slot, now);
                    self.builds_aborted += 1;
                    self.obs.metrics.inc("planner.builds_aborted");
                    self.obs.tracer.span_field(b.span, "aborted", 1.0);
                    self.obs.tracer.end_span(b.span, now);
                    if preempted {
                        self.obs.metrics.inc("planner.preemptions");
                    }
                }
                // The build reruns on the *same* worker (not released)
                // after a charged backoff.
                Action::Retry { build, quarantined } => {
                    let key = self.core.key_of(build).expect("retried build is running");
                    let (subject, attempt) = (key.subject, self.infra_attempts[key]);
                    let faults = self.config.faults.as_ref().expect("only the dice retry");
                    if quarantined {
                        self.obs.metrics.inc("planner.quarantined");
                        let fields = [("change", subject.0 as f64)];
                        self.obs.tracer.event("quarantine", now, &fields);
                    }
                    let backoff = faults.retry.backoff(attempt);
                    let duration = backoff + self.spec(subject).build_duration + BUILD_OVERHEAD;
                    sched.at(now + duration, Event::BuildDone(build));
                    self.obs.metrics.inc("planner.infra_retries");
                    self.obs
                        .metrics
                        .observe("planner.infra_backoff_secs", backoff.as_secs_f64());
                    let fields = [
                        ("change", subject.0 as f64),
                        ("attempt", f64::from(attempt)),
                        ("backoff_secs", backoff.as_secs_f64()),
                    ];
                    self.obs.tracer.event("infra_retry", now, &fields);
                    let b = self.live.get_mut(&build).expect("retried build is live");
                    (b.start, b.finish) = (now, now + duration);
                    self.infra_retries += 1;
                    self.infra_backoff += backoff;
                    self.builds_started += 1;
                }
                Action::Resolved {
                    change,
                    committed,
                    builds_scheduled,
                    builds_aborted,
                } => {
                    let (counter, event, outcome) = if committed {
                        self.commit_log.push(change);
                        ("planner.commits", "commit", ChangeOutcome::Committed)
                    } else {
                        ("planner.rejects", "reject", ChangeOutcome::Rejected)
                    };
                    let submitted = self.spec(change).submit_time;
                    let turnaround_mins = now.since(submitted).as_mins_f64();
                    // The realized build's result was consumed: that
                    // build was *needed* (vs merely selected or wasted).
                    self.obs.metrics.inc("planner.builds_needed");
                    self.obs.metrics.inc(counter);
                    self.obs
                        .metrics
                        .observe("planner.turnaround_mins", turnaround_mins);
                    let fields = [
                        ("change", change.0 as f64),
                        ("turnaround_mins", turnaround_mins),
                    ];
                    self.obs.tracer.event(event, now, &fields);
                    self.records.push(ChangeRecord::new(
                        change,
                        submitted,
                        now,
                        outcome,
                        builds_scheduled,
                        builds_aborted,
                    ));
                    self.makespan = self.makespan.max(now);
                }
            }
        }
        self.actions = actions;
    }

    /// Delay until a lane's next planning tick: the fixed epoch period
    /// (if any) plus the modeled cost of a planning round over the lane's
    /// current pending window (if any).
    fn tick_delay(&self, lane: usize) -> SimDuration {
        let cost = self.config.planning_cost.as_ref();
        self.config.epoch.unwrap_or(SimDuration::ZERO)
            + cost.map_or(SimDuration::ZERO, |pc| pc.tick(self.core.pending_in(lane)))
    }

    /// Event-driven mode replans every lane immediately; epoch /
    /// planning-cost mode defers each lane to its next tick (scheduling
    /// one if none is pending — every lane, so a quiet lane can't stall
    /// forever behind a busy one).
    fn maybe_replan(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>) {
        let event_driven = self.config.epoch.is_none() && self.config.planning_cost.is_none();
        for lane in 0..self.core.n_lanes() {
            if event_driven {
                self.plan_lane(lane, now, sched);
            } else if !self.epoch_scheduled[lane] {
                self.epoch_scheduled[lane] = true;
                sched.at(now + self.tick_delay(lane), Event::Epoch(lane));
            }
        }
    }

    /// One planning round of one lane: the core decides, the driver
    /// observes the round and carries it out.
    fn plan_lane(&mut self, lane: usize, now: SimTime, sched: &mut Scheduler<'_, Event>) {
        let live = &self.live;
        // Fraction of its current attempt a running build has behind it
        // (a zero-length attempt has none).
        let progress = |build: BuildId| {
            let b = &live[&build];
            let done = now.since(b.start).as_secs_f64();
            let total = b.finish.since(b.start).as_secs_f64();
            if total > 0.0 {
                done / total
            } else {
                0.0
            }
        };
        let round = self.core.plan(lane, &progress, &mut self.actions);
        if self.obs.is_enabled() {
            // Speculation pressure per planning round: how deep the queue
            // is, how wide the strategy's speculation tree grew, and how
            // much success probability mass (`P_needed`) the picks carry.
            // With one lane the counts are the global ones — the export
            // stays byte-identical to the pre-shard planner.
            let metrics = &mut self.obs.metrics;
            metrics.observe("planner.queue_depth", round.queue_depth as f64);
            metrics.observe("planner.running_builds", round.running as f64);
            metrics.observe("planner.gating_builds", round.gating as f64);
            metrics.observe("planner.speculation_tree_size", round.tree_size as f64);
            metrics.observe("planner.p_needed_mass", round.p_needed_mass);
            if self.core.n_lanes() > 1 {
                let label = &self.lane_labels[lane];
                metrics.observe(
                    &format!("planner.shard.{label}.queue_depth"),
                    round.queue_depth as f64,
                );
                let stalls = self.core.arbiter_stalls(lane);
                if stalls > 0 {
                    metrics.observe("planner.shard.arbiter_stalls", stalls as f64);
                }
            }
        }
        self.apply(now, sched);
    }
}

impl<'a> sq_sim::Simulation for Driver<'a> {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<'_, Event>) {
        match event {
            Event::Arrival(i) => {
                self.obs.metrics.inc("planner.arrivals");
                let spec = &self.workload.changes[i];
                self.core.arrive(spec);
                if self.core.n_lanes() > 1 && self.obs.is_enabled() {
                    let cross = self.core.cross_lane_conflicts(spec.id);
                    if cross > 0 {
                        self.obs
                            .metrics
                            .add("planner.shard.cross_conflicts", cross as u64);
                    }
                }
                self.maybe_replan(now, sched);
            }
            Event::BuildDone(build) => {
                let Some(key) = self.core.key_of(build) else {
                    // Aborted meanwhile; its worker went back then.
                    return;
                };
                // The dice first: an infra-red attempt carries no
                // information about the change, so ground truth is not
                // even consulted.
                let infra = self.config.faults.as_ref().is_some_and(|faults| {
                    let attempts = self.infra_attempts.entry(key.clone()).or_insert(0);
                    *attempts += 1;
                    faults.infra_red(key, *attempts)
                });
                if infra {
                    self.core.finished(build, Outcome::Infra, &mut self.actions);
                    self.apply(now, sched);
                    return;
                }
                let assumed = key.assumed.iter().map(|&a| self.spec(a));
                let ok = self.truth.build_succeeds(self.spec(key.subject), assumed);
                let b = self.live.remove(&build).expect("running build is live");
                self.pools[b.lane].release_worker(b.slot, now);
                self.obs
                    .metrics
                    .observe("planner.build_mins", now.since(b.start).as_mins_f64());
                self.obs.metrics.inc("planner.builds_finished");
                self.obs
                    .tracer
                    .span_field(b.span, "ok", if ok { 1.0 } else { 0.0 });
                self.obs.tracer.end_span(b.span, now);
                let outcome = if ok { Outcome::Green } else { Outcome::Red };
                self.core.finished(build, outcome, &mut self.actions);
                self.apply(now, sched);
                self.maybe_replan(now, sched);
            }
            Event::Epoch(lane) => {
                self.epoch_scheduled[lane] = false;
                self.obs.metrics.inc("planner.epochs");
                self.plan_lane(lane, now, sched);
                // Keep the lane ticking while it has anything to plan for.
                if self.core.pending_in(lane) > 0 || self.core.busy(lane) > 0 {
                    self.epoch_scheduled[lane] = true;
                    sched.at(now + self.tick_delay(lane), Event::Epoch(lane));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::audit_green;
    use sq_workload::{WorkloadBuilder, WorkloadParams};

    fn workload(rate: f64, n: usize, seed: u64) -> Workload {
        WorkloadBuilder::new(WorkloadParams::ios().with_rate(rate))
            .seed(seed)
            .n_changes(n)
            .build()
            .unwrap()
    }

    fn config(workers: usize) -> PlannerConfig {
        PlannerConfig {
            workers,
            ..PlannerConfig::default()
        }
    }

    #[test]
    fn oracle_resolves_every_change() {
        let w = workload(100.0, 200, 1);
        let strategy = Strategy::build(StrategyKind::Oracle, &w, None);
        let r = run_simulation(&w, &strategy, &config(200));
        assert_eq!(r.records.len(), 200);
        assert!(r.committed() > 0);
        assert_eq!(r.committed() + r.rejected(), 200);
    }

    #[test]
    fn all_strategies_keep_master_green() {
        let w = workload(150.0, 150, 2);
        let history = workload(100.0, 4000, 99);
        for kind in StrategyKind::all() {
            let strategy = Strategy::build(kind, &w, Some(&history));
            let r = run_simulation(&w, &strategy, &config(150));
            assert_eq!(r.records.len(), 150, "{} must resolve all", kind.name());
            audit_green(&w, &r).unwrap_or_else(|e| {
                panic!("{} broke the mainline: {e}", kind.name());
            });
        }
    }

    #[test]
    fn oracle_never_wastes_builds() {
        let w = workload(100.0, 150, 3);
        let strategy = Strategy::build(StrategyKind::Oracle, &w, None);
        let r = run_simulation(&w, &strategy, &config(300));
        // Perfect prediction: every started build is the realized one.
        assert_eq!(r.builds_aborted, 0, "oracle aborted builds");
        assert_eq!(r.builds_started as usize, 150);
    }

    #[test]
    fn speculate_all_wastes_builds() {
        let w = workload(200.0, 150, 4);
        let oracle = Strategy::build(StrategyKind::Oracle, &w, None);
        let all = Strategy::build(StrategyKind::SpeculateAll, &w, None);
        let r_oracle = run_simulation(&w, &oracle, &config(100));
        let r_all = run_simulation(&w, &all, &config(100));
        assert!(
            r_all.builds_started > r_oracle.builds_started,
            "speculate-all must run more builds ({} vs {})",
            r_all.builds_started,
            r_oracle.builds_started
        );
        assert!(r_all.builds_aborted > 0);
    }

    #[test]
    fn oracle_has_best_turnaround() {
        let w = workload(200.0, 200, 5);
        let history = workload(100.0, 4000, 98);
        let workers = 150;
        let oracle = run_simulation(
            &w,
            &Strategy::build(StrategyKind::Oracle, &w, None),
            &config(workers),
        );
        let (o50, _, _) = oracle.turnaround_p50_p95_p99();
        for kind in [
            StrategyKind::SubmitQueue,
            StrategyKind::SpeculateAll,
            StrategyKind::Optimistic,
            StrategyKind::SingleQueue,
        ] {
            let r = run_simulation(
                &w,
                &Strategy::build(kind, &w, Some(&history)),
                &config(workers),
            );
            let (p50, _, _) = r.turnaround_p50_p95_p99();
            assert!(
                p50 >= o50 * 0.999,
                "{} beat the oracle: {p50} < {o50}",
                kind.name()
            );
        }
    }

    #[test]
    fn rejections_always_have_a_ground_truth_reason() {
        // Commit sets can legitimately differ across strategies (a slower
        // strategy widens concurrency windows, exposing more real
        // conflicts), but every individual decision must be justified: a
        // rejection needs either an intrinsic failure or a real conflict
        // with a change that committed while it was in flight.
        let w = workload(150.0, 120, 6);
        let history = workload(100.0, 4000, 97);
        for kind in StrategyKind::all() {
            let strategy = Strategy::build(kind, &w, Some(&history));
            let r = run_simulation(&w, &strategy, &config(200));
            crate::audit::audit_rejections_justified(&w, &r)
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        }
    }

    #[test]
    fn single_queue_is_slowest() {
        let w = workload(500.0, 300, 7);
        let oracle = run_simulation(
            &w,
            &Strategy::build(StrategyKind::Oracle, &w, None),
            &config(200),
        );
        let sq = run_simulation(
            &w,
            &Strategy::build(StrategyKind::SingleQueue, &w, None),
            &config(200),
        );
        // Independent changes proceed in parallel under Single-Queue, so
        // the median gap is modest; the conflict chains dominate the tail
        // (the paper's P95/P99 blow-ups of 129–132×).
        let (o50, o95, _) = oracle.turnaround_p50_p95_p99();
        let (s50, s95, _) = sq.turnaround_p50_p95_p99();
        assert!(s50 > o50 * 1.3, "P50: {s50} vs oracle {o50}");
        assert!(s95 > o95 * 2.0, "P95: {s95} vs oracle {o95}");
    }

    #[test]
    fn more_workers_never_hurt_oracle() {
        let w = workload(300.0, 200, 8);
        let few = run_simulation(
            &w,
            &Strategy::build(StrategyKind::Oracle, &w, None),
            &config(50),
        );
        let many = run_simulation(
            &w,
            &Strategy::build(StrategyKind::Oracle, &w, None),
            &config(400),
        );
        let (f50, _, _) = few.turnaround_p50_p95_p99();
        let (m50, _, _) = many.turnaround_p50_p95_p99();
        assert!(
            m50 <= f50 * 1.001,
            "more workers worsened oracle: {m50} vs {f50}"
        );
    }

    #[test]
    fn conflict_analyzer_improves_submitqueue() {
        let w = workload(300.0, 250, 9);
        let history = workload(100.0, 4000, 96);
        let strategy = Strategy::build(StrategyKind::SubmitQueue, &w, Some(&history));
        let with = run_simulation(&w, &strategy, &config(150));
        let without = run_simulation(
            &w,
            &strategy,
            &PlannerConfig {
                workers: 150,
                conflict_analyzer: false,
                ..PlannerConfig::default()
            },
        );
        let (_, w95, _) = with.turnaround_p50_p95_p99();
        let (_, wo95, _) = without.turnaround_p50_p95_p99();
        assert!(
            w95 <= wo95 * 1.05,
            "analyzer should help (with {w95} vs without {wo95})"
        );
        // Both remain green.
        audit_green(&w, &with).unwrap();
        audit_green(&w, &without).unwrap();
    }

    #[test]
    fn utilization_is_a_fraction() {
        let w = workload(100.0, 100, 10);
        let r = run_simulation(
            &w,
            &Strategy::build(StrategyKind::Optimistic, &w, None),
            &config(100),
        );
        assert!((0.0..=1.0).contains(&r.utilization));
        assert!(r.makespan > SimTime::ZERO);
        assert!(r.throughput_per_hour() > 0.0);
    }

    #[test]
    fn reorder_mode_stays_green_and_helps_small_changes() {
        // Section 10 "Change Reordering": a small change submitted after
        // a long-running conflicting change no longer waits for it.
        let w = workload(300.0, 200, 11);
        let base = PlannerConfig {
            workers: 150,
            ..PlannerConfig::default()
        };
        let reordered = PlannerConfig {
            reorder: true,
            ..base.clone()
        };
        let strategy = Strategy::build(StrategyKind::Oracle, &w, None);
        let in_order = run_simulation(&w, &strategy, &base);
        let out_of_order = run_simulation(&w, &strategy, &reordered);
        // Safety first: reordering must not break the mainline.
        audit_green(&w, &out_of_order).unwrap();
        assert_eq!(out_of_order.records.len(), 200);
        // Reordering is the paper's fairness/starvation tradeoff: jumped
        // changes finish sooner, overtaken ones rebuild on the grown
        // prefix. Net median must stay in the same band, not regress
        // wholesale.
        let (p50_in, _, _) = in_order.turnaround_p50_p95_p99();
        let (p50_re, _, _) = out_of_order.turnaround_p50_p95_p99();
        assert!(
            p50_re <= p50_in * 1.25,
            "reordering regressed median turnaround badly ({p50_re} vs {p50_in})"
        );
        // The commit order genuinely deviates from submission order.
        let monotone = out_of_order.commit_log.windows(2).all(|p| p[0] < p[1]);
        assert!(
            !monotone || in_order.commit_log == out_of_order.commit_log,
            "reorder mode should produce out-of-order commits on a contended workload"
        );
    }

    #[test]
    fn preemption_guard_protects_nearly_finished_builds() {
        // Section 10 "Build Preemption": with a guard, builds past the
        // threshold are never aborted for gating work. The run must still
        // terminate, stay green, and abort no more than the unguarded run.
        let w = workload(400.0, 150, 12);
        let strategy = Strategy::build(StrategyKind::SpeculateAll, &w, None);
        let unguarded = run_simulation(
            &w,
            &strategy,
            &PlannerConfig {
                workers: 60,
                ..PlannerConfig::default()
            },
        );
        let guarded = run_simulation(
            &w,
            &strategy,
            &PlannerConfig {
                workers: 60,
                preemption_guard: Some(0.8),
                ..PlannerConfig::default()
            },
        );
        audit_green(&w, &guarded).unwrap();
        assert_eq!(guarded.records.len(), 150);
        assert!(
            guarded.builds_aborted <= unguarded.builds_aborted,
            "guard must not increase aborts ({} vs {})",
            guarded.builds_aborted,
            unguarded.builds_aborted
        );
    }

    #[test]
    fn epoch_mode_is_green_and_close_to_event_driven() {
        // Section 6: planning on epochs instead of every event. Short
        // epochs should cost little; the run must stay green and resolve
        // everything either way.
        let w = workload(200.0, 150, 14);
        let strategy = Strategy::build(StrategyKind::Oracle, &w, None);
        let event_driven = run_simulation(&w, &strategy, &config(150));
        let epoch = run_simulation(
            &w,
            &strategy,
            &PlannerConfig {
                workers: 150,
                epoch: Some(SimDuration::from_secs(30)),
                ..PlannerConfig::default()
            },
        );
        audit_green(&w, &epoch).unwrap();
        assert_eq!(epoch.records.len(), 150);
        let (p50_event, _, _) = event_driven.turnaround_p50_p95_p99();
        let (p50_epoch, _, _) = epoch.turnaround_p50_p95_p99();
        // A 30s epoch adds at most ~1 tick of latency per planning round.
        assert!(
            p50_epoch <= p50_event + 5.0,
            "30s epochs should cost little: {p50_epoch} vs {p50_event}"
        );
        // Long epochs visibly hurt.
        let slow = run_simulation(
            &w,
            &strategy,
            &PlannerConfig {
                workers: 150,
                epoch: Some(SimDuration::from_mins(20)),
                ..PlannerConfig::default()
            },
        );
        audit_green(&w, &slow).unwrap();
        let (p50_slow, _, _) = slow.turnaround_p50_p95_p99();
        assert!(
            p50_slow > p50_epoch,
            "20-minute epochs should be slower: {p50_slow} vs {p50_epoch}"
        );
    }

    #[test]
    fn empty_workload_terminates_immediately() {
        let w = WorkloadBuilder::new(WorkloadParams::ios())
            .seed(20)
            .n_changes(0)
            .build()
            .unwrap();
        let strategy = Strategy::build(StrategyKind::Oracle, &w, None);
        let r = run_simulation(&w, &strategy, &config(10));
        assert!(r.records.is_empty());
        assert!(r.commit_log.is_empty());
        assert_eq!(r.builds_started, 0);
        assert_eq!(r.makespan, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "10 events handled, 50 of 50 changes still pending")]
    fn a_run_cut_short_by_max_events_panics_in_release_too() {
        let w = workload(100.0, 50, 26);
        let strategy = Strategy::build(StrategyKind::Oracle, &w, None);
        run_capped(&w, &strategy, &config(50), &mut Observer::disabled(), 10);
    }

    #[test]
    fn single_change_workload() {
        let w = workload(100.0, 1, 21);
        let strategy = Strategy::build(StrategyKind::Oracle, &w, None);
        let r = run_simulation(&w, &strategy, &config(1));
        assert_eq!(r.records.len(), 1);
        let c = &w.changes[0];
        assert_eq!(r.commit_log.len(), usize::from(c.intrinsic_success));
        // Turnaround = build duration + overhead (no queueing).
        let expected = c.build_duration + BUILD_OVERHEAD;
        assert_eq!(r.records[0].turnaround, expected);
    }

    #[test]
    fn all_changes_failing_still_terminates_green() {
        let mut params = WorkloadParams::ios().with_rate(200.0);
        params.success_base_logit = -50.0; // nobody passes
        let w = WorkloadBuilder::new(params)
            .seed(22)
            .n_changes(60)
            .build()
            .unwrap();
        assert_eq!(w.isolated_success_rate(), 0.0);
        for kind in [
            StrategyKind::Oracle,
            StrategyKind::SpeculateAll,
            StrategyKind::SingleQueue,
        ] {
            let strategy = Strategy::build(kind, &w, None);
            let r = run_simulation(&w, &strategy, &config(50));
            assert_eq!(r.records.len(), 60, "{}", kind.name());
            assert!(r.commit_log.is_empty(), "{}", kind.name());
            audit_green(&w, &r).unwrap();
        }
    }

    #[test]
    fn one_worker_never_deadlocks() {
        let w = workload(300.0, 40, 23);
        for kind in [
            StrategyKind::Oracle,
            StrategyKind::SpeculateAll,
            StrategyKind::Optimistic,
        ] {
            let strategy = Strategy::build(kind, &w, None);
            let r = run_simulation(&w, &strategy, &config(1));
            assert_eq!(r.records.len(), 40, "{} starved", kind.name());
            audit_green(&w, &r).unwrap();
        }
    }

    #[test]
    fn uncontended_oracle_turnarounds_are_exactly_duration_plus_overhead() {
        let w = workload(10.0, 10, 24); // very sparse arrivals
        let strategy = Strategy::build(StrategyKind::Oracle, &w, None);
        let r = run_simulation(&w, &strategy, &config(100));
        // With no contention and no conflicts gating at this sparsity for
        // most changes, most turnarounds equal the build's own time exactly.
        let exact = r
            .records
            .iter()
            .filter(|rec| {
                rec.turnaround == w.changes[rec.id.0 as usize].build_duration + BUILD_OVERHEAD
            })
            .count();
        assert!(exact >= 7, "only {exact}/10 exact");
    }

    #[test]
    fn simulations_are_bit_for_bit_deterministic() {
        let w = workload(250.0, 120, 25);
        let history = workload(100.0, 3000, 94);
        for kind in [StrategyKind::Oracle, StrategyKind::SubmitQueue] {
            let strategy = Strategy::build(kind, &w, Some(&history));
            let r1 = run_simulation(&w, &strategy, &config(120));
            let r2 = run_simulation(&w, &strategy, &config(120));
            assert_eq!(r1.commit_log, r2.commit_log, "{}", kind.name());
            assert_eq!(r1.builds_started, r2.builds_started);
            assert_eq!(r1.builds_aborted, r2.builds_aborted);
            assert_eq!(r1.makespan, r2.makespan);
            for (a, b) in r1.records.iter().zip(&r2.records) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.resolved, b.resolved);
                assert_eq!(a.outcome, b.outcome);
            }
        }
    }

    #[test]
    fn infra_faults_cost_latency_but_never_reject_passing_changes() {
        let w = workload(150.0, 100, 30);
        let strategy = Strategy::build(StrategyKind::Oracle, &w, None);
        let clean = run_simulation(&w, &strategy, &config(100));
        assert_eq!(clean.infra_retries, 0);
        assert!(clean.quarantined.is_empty());
        let faulty = run_simulation(
            &w,
            &strategy,
            &PlannerConfig {
                workers: 100,
                faults: Some(SimFaults::at_rate(0.2, 7)),
                ..PlannerConfig::default()
            },
        );
        // Everything still resolves; the flakes only cost retries and
        // charged backoff.
        assert_eq!(faulty.records.len(), 100);
        assert!(faulty.infra_retries > 0, "a 20% flake rate must fire");
        assert!(faulty.infra_backoff > SimDuration::ZERO);
        audit_green(&w, &faulty).unwrap();
        // The headline: no genuinely-passing change is wrongly rejected.
        crate::audit::audit_rejections_justified(&w, &faulty).unwrap();
    }

    #[test]
    fn fault_model_is_bit_for_bit_deterministic_per_seed() {
        let w = workload(250.0, 80, 31);
        let history = workload(100.0, 3000, 93);
        let strategy = Strategy::build(StrategyKind::SubmitQueue, &w, Some(&history));
        let cfg = PlannerConfig {
            workers: 80,
            faults: Some(SimFaults::at_rate(0.25, 9)),
            ..PlannerConfig::default()
        };
        let r1 = run_simulation(&w, &strategy, &cfg);
        let r2 = run_simulation(&w, &strategy, &cfg);
        assert_eq!(r1.commit_log, r2.commit_log);
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.infra_retries, r2.infra_retries);
        assert_eq!(r1.infra_backoff, r2.infra_backoff);
        assert_eq!(r1.quarantined, r2.quarantined);
        for (a, b) in r1.records.iter().zip(&r2.records) {
            assert_eq!((a.id, a.resolved, a.outcome), (b.id, b.resolved, b.outcome));
        }
        // A different fault seed still resolves everything, still green.
        let other = run_simulation(
            &w,
            &strategy,
            &PlannerConfig {
                workers: 80,
                faults: Some(SimFaults::at_rate(0.25, 10)),
                ..PlannerConfig::default()
            },
        );
        assert_eq!(other.records.len(), 80);
        audit_green(&w, &other).unwrap();
    }

    #[test]
    fn chronic_flakes_land_in_the_quarantine_list() {
        let w = workload(100.0, 30, 32);
        let strategy = Strategy::build(StrategyKind::Oracle, &w, None);
        let mut faults = SimFaults::at_rate(0.6, 3);
        faults.quarantine_threshold = 2;
        let r = run_simulation(
            &w,
            &strategy,
            &PlannerConfig {
                workers: 30,
                faults: Some(faults),
                ..PlannerConfig::default()
            },
        );
        // At a 60% per-attempt fault rate, some change must flake twice.
        assert!(!r.quarantined.is_empty(), "quarantine list stayed empty");
        assert_eq!(r.records.len(), 30);
        audit_green(&w, &r).unwrap();
        crate::audit::audit_rejections_justified(&w, &r).unwrap();
        let report = crate::audit::recovery_report(&r);
        assert!(report.contains("quarantined"), "report = {report}");
    }

    #[test]
    fn observed_runs_are_unperturbed_and_export_identical_json() {
        let w = workload(200.0, 100, 33);
        let history = workload(100.0, 3000, 92);
        let strategy = Strategy::build(StrategyKind::SubmitQueue, &w, Some(&history));
        let cfg = PlannerConfig {
            workers: 100,
            faults: Some(SimFaults::at_rate(0.1, 5)),
            ..PlannerConfig::default()
        };
        let mut o1 = Observer::new();
        let r1 = run_simulation_observed(&w, &strategy, &cfg, &mut o1);
        let mut o2 = Observer::new();
        let r2 = run_simulation_observed(&w, &strategy, &cfg, &mut o2);
        // Same seed ⇒ byte-identical exports (the layer's acceptance
        // criterion) and identical results.
        assert_eq!(o1.to_json(), o2.to_json());
        assert_eq!(r1.commit_log, r2.commit_log);
        // Observability must not perturb the simulation itself.
        let r0 = run_simulation(&w, &strategy, &cfg);
        assert_eq!(r0.commit_log, r1.commit_log);
        assert_eq!(r0.makespan, r1.makespan);
        assert_eq!(r0.builds_started, r1.builds_started);
        // Counters agree with the result's own accounting.
        let m = &o1.metrics;
        assert_eq!(m.counter("planner.commits") as usize, r1.committed());
        assert_eq!(m.counter("planner.rejects") as usize, r1.rejected());
        assert_eq!(m.counter("planner.builds_aborted"), r1.builds_aborted);
        assert_eq!(m.counter("planner.infra_retries"), r1.infra_retries);
        // A retry re-uses its span, so scheduled spans + retries =
        // total started builds.
        assert_eq!(
            m.counter("planner.builds_started") + m.counter("planner.infra_retries"),
            r1.builds_started
        );
        assert_eq!(
            o1.tracer.spans().len() as u64,
            m.counter("planner.builds_started")
        );
        // The run drains fully: every build span is closed.
        assert!(o1.tracer.spans().iter().all(|s| s.end.is_some()));
        assert!(m.counter("planner.builds_needed") > 0);
        assert!(m.histogram("planner.queue_depth").is_some());
        assert!(m.histogram("planner.p_needed_mass").is_some());
        assert!(m.gauge("planner.utilization").is_some());
        // Conflict-index counters: the pairwise relation is served from
        // cached bitsets (admitting a change misses once for the
        // newcomer, then every pending neighbour is a hit).
        assert!(m.counter("analyzer.pairs_checked") > 0);
        assert!(m.counter("analyzer.cache_misses") > 0);
        assert!(
            m.counter("analyzer.cache_hits") > m.counter("analyzer.cache_misses"),
            "pending-window re-queries must be served from cache ({} hits vs {} misses)",
            m.counter("analyzer.cache_hits"),
            m.counter("analyzer.cache_misses")
        );
    }

    #[test]
    fn disabled_observer_records_nothing() {
        let w = workload(100.0, 30, 34);
        let strategy = Strategy::build(StrategyKind::Oracle, &w, None);
        let mut obs = Observer::disabled();
        let r = run_simulation_observed(&w, &strategy, &config(30), &mut obs);
        assert_eq!(r.records.len(), 30);
        assert_eq!(obs.metrics.counter("planner.builds_started"), 0);
        assert!(obs.tracer.spans().is_empty());
        assert!(obs.tracer.events().is_empty());
    }

    #[test]
    fn sharded_planner_stays_green_with_zero_wrongful_rejections() {
        use crate::shard::{ShardPlan, ShardReport, ShardSpec};
        let w = workload(300.0, 200, 40);
        let history = workload(100.0, 3000, 91);
        let plan = ShardPlan::round_robin(300, 4);
        for kind in [StrategyKind::Oracle, StrategyKind::SubmitQueue] {
            let strategy = Strategy::build(kind, &w, Some(&history));
            let cfg = PlannerConfig {
                shards: Some(ShardSpec::proportional(plan.clone(), &w, 200)),
                ..PlannerConfig::default()
            };
            let r = run_simulation(&w, &strategy, &cfg);
            assert_eq!(r.records.len(), 200, "{} must resolve all", kind.name());
            audit_green(&w, &r).unwrap_or_else(|e| {
                panic!("{} broke the merged trunk: {e}", kind.name());
            });
            crate::audit::audit_rejections_justified(&w, &r)
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            // Per-lane attribution: every record in exactly one lane,
            // zero wrongful rejections in each.
            let report = ShardReport::from_result(&w, &r, &plan);
            assert_eq!(
                report.lanes.iter().map(|l| l.routed).sum::<usize>(),
                r.records.len()
            );
            assert_eq!(report.total_wrongful(), 0, "{}", kind.name());
        }
    }

    #[test]
    fn sharded_simulations_are_bit_for_bit_deterministic() {
        use crate::shard::{PlanningCost, ShardPlan, ShardSpec};
        let w = workload(400.0, 150, 41);
        let plan = ShardPlan::round_robin(300, 3);
        let strategy = Strategy::build(StrategyKind::Oracle, &w, None);
        let cfg = PlannerConfig {
            shards: Some(ShardSpec::even(plan, 120)),
            planning_cost: Some(PlanningCost {
                base: SimDuration::from_secs(2),
                per_pending: SimDuration::from_secs(1),
            }),
            ..PlannerConfig::default()
        };
        let r1 = run_simulation(&w, &strategy, &cfg);
        let r2 = run_simulation(&w, &strategy, &cfg);
        assert_eq!(r1.commit_log, r2.commit_log);
        assert_eq!(r1.builds_started, r2.builds_started);
        assert_eq!(r1.builds_aborted, r2.builds_aborted);
        assert_eq!(r1.makespan, r2.makespan);
        for (a, b) in r1.records.iter().zip(&r2.records) {
            assert_eq!((a.id, a.resolved, a.outcome), (b.id, b.resolved, b.outcome));
        }
    }

    #[test]
    fn sharded_observed_runs_surface_per_lane_metrics() {
        use crate::shard::{ShardPlan, ShardSpec};
        let w = workload(300.0, 120, 42);
        let plan = ShardPlan::round_robin(300, 3);
        let strategy = Strategy::build(StrategyKind::Oracle, &w, None);
        let cfg = PlannerConfig {
            shards: Some(ShardSpec::proportional(plan.clone(), &w, 120)),
            ..PlannerConfig::default()
        };
        let mut obs = Observer::new();
        let r = run_simulation_observed(&w, &strategy, &cfg, &mut obs);
        assert_eq!(r.records.len(), 120);
        audit_green(&w, &r).unwrap();
        // Every lane that planned a round recorded its own queue depth;
        // the routing guarantees the arbiter sees the multi-shard tail.
        let m = &obs.metrics;
        assert!(m.histogram("planner.shard.arbiter.queue_depth").is_some());
        assert!(m.histogram("planner.shard.s00.queue_depth").is_some());
        // Multi-part changes crossing shards produce arbiter conflicts.
        assert!(
            m.counter("planner.shard.cross_conflicts") > 0,
            "a contended multi-shard workload must show cross-shard conflicts"
        );
        // Observability still does not perturb the run.
        let r0 = run_simulation(&w, &strategy, &cfg);
        assert_eq!(r0.commit_log, r.commit_log);
        assert_eq!(r0.makespan, r.makespan);
    }

    #[test]
    fn planning_cost_saturates_one_window_but_not_sharded_lanes() {
        use crate::shard::{PlanningCost, ShardPlan, ShardSpec};
        // The tentpole claim in miniature: under the same planning-cost
        // model, one global window slows down as it grows, while sharded
        // lanes keep their windows (and ticks) small.
        let w = workload(900.0, 300, 43);
        let strategy = Strategy::build(StrategyKind::Oracle, &w, None);
        let cost = PlanningCost {
            base: SimDuration::from_secs(5),
            per_pending: SimDuration::from_secs(10),
        };
        let single = run_simulation(
            &w,
            &strategy,
            &PlannerConfig {
                workers: 240,
                planning_cost: Some(cost),
                ..PlannerConfig::default()
            },
        );
        let plan = ShardPlan::round_robin(300, 6);
        let sharded = run_simulation(
            &w,
            &strategy,
            &PlannerConfig {
                shards: Some(ShardSpec::proportional(plan, &w, 240)),
                planning_cost: Some(cost),
                ..PlannerConfig::default()
            },
        );
        audit_green(&w, &single).unwrap();
        audit_green(&w, &sharded).unwrap();
        assert_eq!(sharded.records.len(), 300);
        let (p50_single, _, _) = single.turnaround_p50_p95_p99();
        let (p50_sharded, _, _) = sharded.turnaround_p50_p95_p99();
        assert!(
            p50_sharded < p50_single,
            "sharded lanes must beat the saturating global window \
             ({p50_sharded} vs {p50_single} min)"
        );
        // No throughput assertion here: this burst cell is
        // drain-dominated, where a single flexible pool always empties a
        // fixed backlog fast. The steady-state throughput claim — where
        // planning ticks, not worker drain, bound the rate — is
        // bench_shard's, over a long arrival window.
    }

    #[test]
    fn reorder_with_learned_predictor_is_green() {
        let w = workload(250.0, 120, 13);
        let history = workload(100.0, 3000, 95);
        let strategy = Strategy::build(StrategyKind::SubmitQueue, &w, Some(&history));
        let r = run_simulation(
            &w,
            &strategy,
            &PlannerConfig {
                workers: 100,
                reorder: true,
                preemption_guard: Some(0.9),
                ..PlannerConfig::default()
            },
        );
        audit_green(&w, &r).unwrap();
        assert_eq!(r.records.len(), 120);
    }
}
