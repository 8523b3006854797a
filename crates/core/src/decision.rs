//! The decision core of the planner engine (paper Sections 4–6): events
//! in, actions out.
//!
//! A driver tells the core that a change arrived ([`Core::arrive`]) or a
//! build attempt finished green, red or infra-red ([`Core::finished`]),
//! and asks it to plan a lane ([`Core::plan`]). The core answers with
//! [`Action`]s in the order they must be carried out. It holds the
//! pending specs and the committed ones they build on, the conflict
//! graph, the running builds by identity (not by worker), the build
//! results, and the rule that keeps the mainline green:
//!
//! * a change **resolves** once every earlier conflicting change has
//!   resolved and the build against the exact committed prefix has
//!   finished (reorder mode: as soon as the build against the current
//!   prefix has) — the serializability rule;
//! * a running build is **contradicted**, and aborted at its lane's next
//!   round, once its outcome pattern can no longer be the realized one;
//! * only a **gating** build may preempt, and only speculation;
//! * an **infra-red** attempt says nothing about the change: it is
//!   retried, counted towards quarantine, and never becomes a result.
//!
//! The core names no workload, clock, randomness, worker pool or
//! observer (`scripts/check.sh` greps for them): which changes exist and
//! when, how long a build takes, whether an attempt flakes and which
//! worker runs it are the driver's — [`crate::planner`] is the first, on
//! simulated time. Developers are read through a [`Roster`]. Every
//! output is a function of the sequence of inputs alone.

use crate::analyzer::{ConflictGraph, IndexedAnalyzer};
use crate::fasthash::{FastMap, FastSet};
use crate::index::IndexStats;
use crate::lean::LeanReport;
use crate::planner::PlannerConfig;
use crate::predict::{Roster, SpeculationCounters};
use crate::recovery::QuarantineList;
use crate::speculation::BuildKey;
use crate::strategy::Strategy;
use sq_workload::{ChangeId, ChangeSpec};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// Infra-red attempts observed on one change before it is flagged in
/// the quarantine list (retrying continues regardless).
const QUARANTINE_THRESHOLD: u32 = 3;

/// Identity of one started build. It survives infra retries and is
/// never reused: a completion for an id no longer running is stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BuildId(pub u64);

/// How one build attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every step passed.
    Green,
    /// A step failed on the change's own account.
    Red,
    /// The infrastructure failed: no information about the change.
    Infra,
}

/// One order to the driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Start building `key` on a worker of `lane`.
    Start {
        /// The new build's identity.
        build: BuildId,
        /// What to build: the subject on top of the changes it assumes.
        key: BuildKey,
        /// Planning lane whose worker budget the build counts against.
        lane: usize,
        /// The build that decides its subject, not speculation.
        gating: bool,
    },
    /// Stop a running build and free its worker.
    Abort {
        /// The build to stop.
        build: BuildId,
        /// Made room for a gating build (else: was contradicted).
        preempted: bool,
    },
    /// Run the same build again on the worker it holds: the attempt
    /// came back infra-red.
    Retry {
        /// The build to run again.
        build: BuildId,
        /// This flake put the build's subject on the quarantine list.
        quarantined: bool,
    },
    /// A change left the queue.
    Resolved {
        /// The change.
        change: ChangeId,
        /// Committed to the mainline (true) or rejected (false).
        committed: bool,
        /// Build attempts started with this change as subject.
        builds_scheduled: u32,
        /// Of those, how many were aborted.
        builds_aborted: u32,
    },
}

/// Speculation pressure of one planning round (observability only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Round {
    /// Pending changes in the lane.
    pub queue_depth: usize,
    /// The lane's running builds once the contradicted ones are gone.
    pub running: usize,
    /// Gating builds without a result yet.
    pub gating: usize,
    /// Builds the strategy asked for.
    pub tree_size: usize,
    /// Success-probability mass (`P_needed`) those builds carry.
    pub p_needed_mass: f64,
}

struct PendingChange {
    spec: Rc<ChangeSpec>,
    /// Planning lane the change routed to (0 without sharding).
    lane: usize,
    /// Committed neighbours to build on; the last holder frees a spec.
    fixed_committed: Vec<Rc<ChangeSpec>>,
    counters: SpeculationCounters,
    builds_scheduled: u32,
    builds_aborted: u32,
    /// Lean marks (sticky): a round skipped its speculation / bypassed it.
    skipped: bool,
    bypassed: bool,
}

/// The decision core. See the module documentation.
pub struct Core<'a> {
    roster: &'a dyn Roster,
    strategy: &'a Strategy,
    config: &'a PlannerConfig,
    analyzer: IndexedAnalyzer,
    graph: ConflictGraph,
    pending: BTreeMap<ChangeId, PendingChange>,
    /// Running builds by what they build, with identity and lane.
    running: FastMap<BuildKey, (BuildId, usize)>,
    keys: FastMap<BuildId, BuildKey>,
    build_results: FastMap<BuildKey, bool>,
    /// Changes that resolved as rejected (for contradiction checks).
    resolved_rejected: FastSet<ChangeId>,
    /// Worker budget per lane (a single lane without sharding).
    budgets: Vec<usize>,
    /// Pending-window size and running-build count per lane.
    pending_count: Vec<usize>,
    running_count: Vec<usize>,
    next_build: u64,
    quarantine: QuarantineList<ChangeId>,
    /// Lean accounting, present only for lean strategies.
    lean: Option<LeanReport>,
}

impl<'a> Core<'a> {
    /// A core with nothing pending. Of `config` it reads
    /// `conflict_analyzer`, `reorder`, `preemption_guard`, the lanes
    /// (`shards`, or one lane of `workers`) and whether `faults` is set;
    /// the rest is the driver's.
    pub fn new(roster: &'a dyn Roster, strategy: &'a Strategy, config: &'a PlannerConfig) -> Self {
        let analyzer = if config.conflict_analyzer {
            IndexedAnalyzer::new()
        } else {
            IndexedAnalyzer::disabled()
        };
        // One global lane, or (sharded) one lane per shard plus the
        // arbiter, each with its own worker budget.
        let budgets = match &config.shards {
            Some(s) => {
                assert_eq!(
                    s.lane_workers.len(),
                    s.plan.n_lanes(),
                    "one worker count per lane (shards + arbiter)"
                );
                assert!(
                    s.lane_workers.iter().all(|&w| w >= 1),
                    "every lane needs at least one worker"
                );
                s.lane_workers.clone()
            }
            None => vec![config.workers],
        };
        let threshold = if config.faults.is_some() {
            QUARANTINE_THRESHOLD
        } else {
            u32::MAX
        };
        Core {
            roster,
            strategy,
            config,
            analyzer,
            graph: ConflictGraph::new(),
            pending: BTreeMap::new(),
            running: FastMap::default(),
            keys: FastMap::default(),
            build_results: FastMap::default(),
            resolved_rejected: FastSet::default(),
            pending_count: vec![0; budgets.len()],
            running_count: vec![0; budgets.len()],
            budgets,
            next_build: 0,
            quarantine: QuarantineList::new(threshold),
            lean: strategy.lean().map(|_| LeanReport::default()),
        }
    }

    /// Number of planning lanes (1 without sharding; arbiter last).
    pub fn n_lanes(&self) -> usize {
        self.budgets.len()
    }

    /// Worker budget of a lane.
    pub fn budget(&self, lane: usize) -> usize {
        self.budgets[lane]
    }

    /// Pending changes routed to a lane.
    pub fn pending_in(&self, lane: usize) -> usize {
        self.pending_count[lane]
    }

    /// Running builds of a lane.
    pub fn busy(&self, lane: usize) -> usize {
        self.running_count[lane]
    }

    /// What a running build builds; `None` once it finished or was
    /// aborted (a completion for it is stale).
    pub fn key_of(&self, build: BuildId) -> Option<&BuildKey> {
        self.keys.get(&build)
    }

    /// Lean-speculation accounting so far (lean strategies only).
    pub fn lean_report(&self) -> Option<LeanReport> {
        self.lean
    }

    /// Changes flagged as chronically infra-flaky, ascending.
    pub fn quarantined(&self) -> Vec<ChangeId> {
        self.quarantine.quarantined().copied().collect()
    }

    /// Conflict-index counters.
    pub fn analyzer_stats(&self) -> &IndexStats {
        self.analyzer.index().stats()
    }

    /// A pending change's earlier conflicts pending in a *different*
    /// lane (by the partition theorem one endpoint is the arbiter).
    pub fn cross_lane_conflicts(&self, id: ChangeId) -> usize {
        let lane = self.pending[&id].lane;
        let earlier = self.graph.earlier_conflicts(id);
        let elsewhere = |d: &&ChangeId| self.pending[*d].lane != lane;
        earlier.iter().filter(elsewhere).count()
    }

    /// Arbiter stalls of a shard lane: its pending changes whose gating
    /// build cannot run yet because an *arbiter-lane* earlier conflict
    /// is still pending — the cross-shard coordination price.
    pub fn arbiter_stalls(&self, lane: usize) -> usize {
        let arbiter = self.n_lanes() - 1;
        if lane == arbiter {
            return 0;
        }
        let in_arbiter = |d: &ChangeId| self.pending[d].lane == arbiter;
        let stalled = |id| self.graph.earlier_conflicts(id).iter().any(in_arbiter);
        self.in_lane(lane).filter(|&(id, _)| stalled(id)).count()
    }

    /// A lane's pending changes, in submission (id) order.
    fn in_lane(&self, lane: usize) -> impl Iterator<Item = (ChangeId, &PendingChange)> + '_ {
        self.pending
            .iter()
            .filter(move |(_, p)| p.lane == lane)
            .map(|(&id, p)| (id, p))
    }

    /// A change entered the queue (ids ascend); the core keeps the spec.
    pub fn arrive(&mut self, spec: &ChangeSpec) {
        let arbiter = self.n_lanes() - 1;
        let lane = match &self.config.shards {
            Some(s) => s.plan.lane_of(spec),
            None => 0,
        };
        // Admission: a shard-lane newcomer can only really conflict
        // with its own lane or the arbiter lane (its parts all live in
        // one shard; a conflicting partner must touch one of them, so
        // it routed to the same lane or — multi-shard — to the
        // arbiter). Probing only those yields the identical graph with
        // fewer analyzer queries. Arbiter arrivals probe everyone.
        let probe: Vec<&ChangeSpec> = self
            .pending
            .iter()
            .filter(|(_, p)| lane == arbiter || p.lane == lane || p.lane == arbiter)
            .map(|(_, p)| &*p.spec)
            .collect();
        self.graph.admit(spec, &probe, &mut self.analyzer);
        let entry = PendingChange {
            spec: Rc::new(spec.clone()),
            lane,
            fixed_committed: Vec::new(),
            counters: SpeculationCounters::default(),
            builds_scheduled: 0,
            builds_aborted: 0,
            skipped: false,
            bypassed: false,
        };
        self.pending.insert(spec.id, entry);
        self.pending_count[lane] += 1;
    }

    /// A build attempt finished (stale ids change nothing). Green and
    /// red become the build's result, evidence for the speculation
    /// counters, and every `Resolved` the result unblocks; infra-red
    /// becomes a `Retry`.
    pub fn finished(&mut self, build: BuildId, outcome: Outcome, out: &mut Vec<Action>) {
        if outcome == Outcome::Infra {
            let Some(key) = self.keys.get(&build) else {
                return;
            };
            let quarantined = self.quarantine.record_flake(key.subject).is_some();
            if let Some(p) = self.pending.get_mut(&key.subject) {
                p.builds_scheduled += 1;
            }
            out.push(Action::Retry { build, quarantined });
            return;
        }
        let Some(key) = self.keys.remove(&build) else {
            return;
        };
        let (_, lane) = self.running.remove(&key).expect("known build is running");
        self.running_count[lane] -= 1;
        let ok = outcome == Outcome::Green;
        // Dynamic speculation counters (Section 7.2): a finished
        // speculation is evidence for its subject and, on success, for
        // every change it stacked on.
        if let Some(p) = self.pending.get_mut(&key.subject) {
            if ok {
                p.counters.succeeded += 1;
            } else {
                p.counters.failed += 1;
            }
        }
        if ok {
            for a in &key.assumed {
                if let Some(p) = self.pending.get_mut(a) {
                    p.counters.succeeded += 1;
                }
            }
        }
        self.build_results.insert(key, ok);
        self.try_resolve(out);
    }

    /// The build that decides `id` right now: in submission-order mode,
    /// only once every earlier conflict is resolved; in reorder mode
    /// (Section 10), always — the gating build runs against whatever has
    /// committed so far, and the change lands the moment it passes.
    fn realized_key_of(&self, id: ChangeId) -> Option<BuildKey> {
        if !self.config.reorder && self.graph.has_earlier_conflicts(id) {
            return None;
        }
        let p = self.pending.get(&id)?;
        let mut assumed: Vec<ChangeId> = p.fixed_committed.iter().map(|c| c.id).collect();
        assumed.sort_unstable();
        assumed.dedup();
        Some(BuildKey {
            subject: id,
            assumed,
        })
    }

    /// Union a strategy pattern with the subject's committed prefix.
    fn finalize_key(&self, mut key: BuildKey) -> BuildKey {
        if let Some(p) = self.pending.get(&key.subject) {
            key.assumed.extend(p.fixed_committed.iter().map(|c| c.id));
            key.assumed.sort_unstable();
            key.assumed.dedup();
        }
        key
    }

    fn try_resolve(&mut self, out: &mut Vec<Action>) {
        loop {
            let candidates: Vec<ChangeId> = self.pending.keys().copied().collect();
            let mut resolved_any = false;
            for id in candidates {
                let key = self.realized_key_of(id);
                if let Some(&ok) = key.and_then(|k| self.build_results.get(&k)) {
                    self.resolve(id, ok, out);
                    resolved_any = true;
                }
            }
            if !resolved_any {
                return;
            }
        }
    }

    fn resolve(&mut self, id: ChangeId, ok: bool, out: &mut Vec<Action>) {
        let p = self
            .pending
            .remove(&id)
            .expect("resolving a pending change");
        self.pending_count[p.lane] -= 1;
        // In submission-order mode only later neighbours can still be
        // pending; in reorder mode an overtaken *earlier* neighbour must
        // also rebase onto this commit.
        if ok {
            for n in self.graph.neighbors(id) {
                if let Some(q) = self.pending.get_mut(&n) {
                    q.fixed_committed.push(Rc::clone(&p.spec));
                }
            }
        } else {
            self.resolved_rejected.insert(id);
        }
        self.graph.remove(id);
        // The change's cached affected bitset can never be queried again.
        self.analyzer.forget(id);
        // Lean accounting: a skip was a *hit* when the change resolved
        // without a single aborted build (the speculation we didn't run
        // would have been pure waste), a *miss* otherwise.
        if let Some(report) = self.lean.as_mut() {
            if p.skipped {
                report.skipped += 1;
                if p.builds_aborted == 0 {
                    report.skip_hits += 1;
                } else {
                    report.skip_misses += 1;
                }
            }
            if p.bypassed {
                report.bypassed += 1;
            }
        }
        out.push(Action::Resolved {
            change: id,
            committed: ok,
            builds_scheduled: p.builds_scheduled,
            builds_aborted: p.builds_aborted,
        });
    }

    /// A running build whose outcome pattern can no longer be the
    /// realized one (`P_needed = 0`). The paper's Section 10 refinement
    /// — abort only builds "very unlikely to be needed" — with certainty
    /// substituted for likelihood: such a build is *never* needed.
    fn contradicted(&self, key: &BuildKey) -> bool {
        let Some(p) = self.pending.get(&key.subject) else {
            return true; // subject already resolved
        };
        let assumed_rejected = |d| self.resolved_rejected.contains(d);
        let unassumed_commit = |d: &Rc<ChangeSpec>| !key.assumed.contains(&d.id);
        key.assumed.iter().any(assumed_rejected) || p.fixed_committed.iter().any(unassumed_commit)
    }

    fn abort(&mut self, key: &BuildKey, preempted: bool, out: &mut Vec<Action>) {
        let (build, lane) = self.running.remove(key).expect("aborting a running build");
        self.keys.remove(&build);
        self.running_count[lane] -= 1;
        if let Some(p) = self.pending.get_mut(&key.subject) {
            p.builds_aborted += 1;
        }
        out.push(Action::Abort { build, preempted });
    }

    /// One lane's planning round: abort contradicted builds, re-query
    /// the strategy over the lane's own pending window, and start what
    /// it wants while the lane has budget. Planning is a pure function
    /// of the lane view — the only global inputs are the conflict graph
    /// and the build-result table, both append-only facts. `progress`
    /// (the fraction of its current attempt a running build has behind
    /// it) is asked only under a `preemption_guard`.
    pub fn plan(
        &mut self,
        lane: usize,
        progress: &dyn Fn(BuildId) -> f64,
        out: &mut Vec<Action>,
    ) -> Round {
        let budget = self.budgets[lane];
        // 1. Abort this lane's contradicted builds. Sorted: the action
        // list must not depend on hash iteration order.
        let mut dead: Vec<BuildKey> = self
            .running
            .iter()
            .filter(|&(k, &(_, l))| l == lane && self.contradicted(k))
            .map(|(k, _)| k.clone())
            .collect();
        dead.sort_unstable();
        for key in dead {
            self.abort(&key, false, out);
        }

        // 2. Desired list: gating builds first, then the strategy's picks
        // over the lane's pending window.
        let mut desired: Vec<BuildKey> = Vec::with_capacity(budget);
        let mut must_run: FastSet<BuildKey> = FastSet::default();
        let mut seen: FastSet<BuildKey> = FastSet::default();
        let mut window: Vec<&ChangeSpec> = Vec::with_capacity(self.pending_count[lane]);
        let mut counters: HashMap<ChangeId, SpeculationCounters> =
            HashMap::with_capacity(self.pending_count[lane]);
        let mut fixed: HashMap<ChangeId, Vec<&ChangeSpec>> = HashMap::new();
        for (id, p) in self.in_lane(lane) {
            if let Some(key) = self.realized_key_of(id) {
                if !self.build_results.contains_key(&key) && seen.insert(key.clone()) {
                    must_run.insert(key.clone());
                    desired.push(key);
                }
            }
            window.push(&p.spec);
            counters.insert(id, p.counters);
            if !p.fixed_committed.is_empty() {
                fixed.insert(id, p.fixed_committed.iter().map(|c| &**c).collect());
            }
        }
        let plan = self.strategy.desired_builds(
            self.roster,
            &window,
            &self.graph,
            &counters,
            &fixed,
            budget,
        );
        // The round's lean marks stick to the change until it resolves.
        for id in &plan.skipped {
            if let Some(p) = self.pending.get_mut(id) {
                p.skipped = true;
            }
        }
        for id in &plan.bypassed {
            if let Some(p) = self.pending.get_mut(id) {
                p.bypassed = true;
            }
        }
        let round = Round {
            queue_depth: self.pending_count[lane],
            running: self.running_count[lane],
            gating: must_run.len(),
            tree_size: plan.builds.len(),
            p_needed_mass: plan.builds.iter().map(|pb| pb.value).sum(),
        };
        for pb in plan.builds {
            if desired.len() >= budget {
                break;
            }
            let key = self.finalize_key(pb.key);
            if !self.build_results.contains_key(&key) && seen.insert(key.clone()) {
                desired.push(key);
            }
        }
        desired.truncate(budget);
        // Only a preemption consults it; most rounds never build it.
        let mut desired_set: Option<FastSet<&BuildKey>> = None;

        // 3. Start in priority order. Running builds that are merely
        // out of fashion keep their workers (no thrash); only a *gating*
        // build may preempt, and only victims outside the desired set or
        // non-gating (latest-subject first — the least valuable
        // speculation under submission-order fairness).
        for key in &desired {
            if self.running.contains_key(key) {
                continue;
            }
            let gating = must_run.contains(key);
            if self.running_count[lane] >= budget {
                if !gating {
                    break;
                }
                let desired_set = desired_set.get_or_insert_with(|| desired.iter().collect());
                let guard = self.config.preemption_guard;
                let victim = self
                    .running
                    .iter()
                    .filter(|&(k, &(b, l))| {
                        l == lane && !must_run.contains(k) && guard.is_none_or(|g| progress(b) < g)
                    })
                    .max_by(|(a, _), (b, _)| {
                        let a_out = !desired_set.contains(*a);
                        let b_out = !desired_set.contains(*b);
                        a_out.cmp(&b_out).then_with(|| a.cmp(b))
                    })
                    .map(|(k, _)| k.clone());
                let Some(victim) = victim else { break };
                self.abort(&victim, true, out);
            }
            let build = BuildId(self.next_build);
            self.next_build += 1;
            self.running.insert(key.clone(), (build, lane));
            self.keys.insert(build, key.clone());
            self.running_count[lane] += 1;
            if let Some(p) = self.pending.get_mut(&key.subject) {
                p.builds_scheduled += 1;
            }
            out.push(Action::Start {
                build,
                key: key.clone(),
                lane,
                gating,
            });
        }
        round
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StrategyKind;
    use sq_workload::{change::DevId, DevProfile, WorkloadBuilder, WorkloadParams};
    use std::collections::VecDeque;

    /// The paper's Figure 5, fed by hand: C1, C2, C3 conflict with one
    /// another and seven workers hold the whole speculation tree.
    #[test]
    fn figure_5_tree_then_c1_fails() {
        let w = WorkloadBuilder::new(WorkloadParams::ios())
            .seed(5)
            .n_changes(3)
            .build()
            .unwrap();
        let strategy = Strategy::build(StrategyKind::SpeculateAll, &w, None);
        let config = PlannerConfig {
            workers: 7,
            conflict_analyzer: false,
            ..PlannerConfig::default()
        };
        let mut core = Core::new(&w, &strategy, &config);
        let mut out = Vec::new();
        for c in &w.changes {
            core.arrive(c);
        }
        let key = |subject: u64, assumed: &[u64]| BuildKey {
            subject: ChangeId(subject),
            assumed: assumed.iter().map(|&a| ChangeId(a)).collect(),
        };
        // Round one: B1 gates C1; everything else is speculation, in
        // the engine's order (ids 0, 1, 2 are the paper's C1, C2, C3).
        let round = core.plan(0, &|_| 0.0, &mut out);
        assert_eq!((round.queue_depth, round.running, round.gating), (3, 0, 1));
        let started: Vec<(BuildId, BuildKey, bool)> = out
            .drain(..)
            .map(|a| match a {
                Action::Start {
                    build, key, gating, ..
                } => (build, key, gating),
                other => panic!("the first round only starts builds, got {other:?}"),
            })
            .collect();
        let tree = [
            key(0, &[]),     // B1
            key(1, &[0]),    // B1.2
            key(1, &[]),     // B2
            key(2, &[0]),    // B1.3
            key(2, &[]),     // B3
            key(2, &[1]),    // B2.3
            key(2, &[0, 1]), // B1.2.3
        ];
        let keys: Vec<BuildKey> = started.iter().map(|(_, k, _)| k.clone()).collect();
        assert_eq!(keys, tree);
        let gating: Vec<bool> = started.iter().map(|&(_, _, g)| g).collect();
        assert_eq!(gating, [true, false, false, false, false, false, false]);

        // C1 fails: it is rejected on the spot, nothing else can resolve.
        core.finished(started[0].0, Outcome::Red, &mut out);
        let rejected = Action::Resolved {
            change: ChangeId(0),
            committed: false,
            builds_scheduled: 1,
            builds_aborted: 0,
        };
        assert_eq!(out, [rejected]);
        out.clear();

        // Round two aborts exactly the builds that assumed C1, in key
        // order; B2 now gates C2, and B3 / B2.3 keep running.
        let round = core.plan(0, &|_| 0.0, &mut out);
        let assumed_c1 = started
            .iter()
            .filter(|(_, k, _)| k.assumed.contains(&ChangeId(0)));
        let aborts: Vec<Action> = assumed_c1
            .map(|&(build, _, _)| Action::Abort {
                build,
                preempted: false,
            })
            .collect();
        assert_eq!(aborts.len(), 3);
        assert_eq!(out, aborts);
        assert_eq!((round.queue_depth, round.running, round.gating), (2, 3, 1));
        assert_eq!(core.key_of(started[1].0), None);
        assert_eq!(core.key_of(started[2].0), Some(&tree[2]));
    }

    /// A core needs nothing but its inputs: one over a roster that is not
    /// a `Workload`, handed copies of the specs that drop as soon as
    /// `arrive` returns, decides exactly as one over the workload. The
    /// lean strategy reads developers on every round, and with the
    /// analyzer off every change conflicts, so committed prefixes are
    /// scored too.
    #[test]
    fn the_core_needs_nothing_but_its_inputs() {
        struct Devs(Vec<DevProfile>);
        impl Roster for Devs {
            fn developer(&self, id: DevId) -> &DevProfile {
                &self.0[id.0 as usize]
            }
        }
        let params = || WorkloadBuilder::new(WorkloadParams::ios());
        let w = params().seed(8).n_changes(40).build().unwrap();
        let history = params().seed(77).n_changes(400).build().unwrap();
        let strategy = Strategy::build(StrategyKind::LeanSpeculation, &w, Some(&history));
        let config = PlannerConfig {
            workers: 4,
            conflict_analyzer: false,
            ..PlannerConfig::default()
        };
        let devs = Devs(w.developers.clone());
        let mut by_workload = Core::new(&w, &strategy, &config);
        let mut by_roster = Core::new(&devs, &strategy, &config);
        let truth = w.truth();
        let spec = |id: ChangeId| &w.changes[id.0 as usize];
        let (mut out, mut other) = (Vec::new(), Vec::new());
        let mut live: VecDeque<(BuildId, BuildKey)> = VecDeque::new();
        let (mut next, mut resolved, mut committed) = (0, 0, 0);
        for step in 0.. {
            if next < w.changes.len() && (live.is_empty() || step % 2 == 0) {
                by_workload.arrive(&w.changes[next]);
                by_roster.arrive(&w.changes[next].clone());
                next += 1;
            } else if let Some((build, key)) = live.pop_front() {
                let assumed = key.assumed.iter().map(|&a| spec(a));
                let outcome = match truth.build_succeeds(spec(key.subject), assumed) {
                    true => Outcome::Green,
                    false => Outcome::Red,
                };
                by_workload.finished(build, outcome, &mut out);
                by_roster.finished(build, outcome, &mut other);
            } else {
                break;
            }
            by_workload.plan(0, &|_| 0.0, &mut out);
            by_roster.plan(0, &|_| 0.0, &mut other);
            assert_eq!(out, other, "step {step}");
            other.clear();
            for action in out.drain(..) {
                match action {
                    Action::Start { build, key, .. } => live.push_back((build, key)),
                    Action::Abort { build, .. } => live.retain(|(b, _)| *b != build),
                    Action::Resolved { committed: ok, .. } => {
                        resolved += 1;
                        committed += usize::from(ok);
                    }
                    Action::Retry { .. } => unreachable!("no attempt is infra-red"),
                }
            }
        }
        assert_eq!(resolved, w.changes.len(), "every change resolves");
        assert!(committed > 1, "committed prefixes were scored");
    }
}
