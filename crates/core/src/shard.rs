//! Sharded multi-lane planning (ROADMAP item 1).
//!
//! One global pending window caps throughput: every planning round is
//! quadratic-ish in the whole queue, so at monorepo-scale arrival rates
//! the planner itself becomes the bottleneck long before the workers do.
//! The fix, following Google's *Smart Build Targets Batching Service*
//! and Uber's *CI at Scale* (PAPERS.md): partition the target universe
//! into mostly-independent **shards**, route each change to the lane
//! owning its affected set, and run one speculation engine per lane over
//! that lane's — much smaller — pending window.
//!
//! **Routing rule.** A change whose parts all map to one shard plans in
//! that shard's lane. A change spanning several shards (or touching no
//! parts) goes to the designated **arbiter lane**. Because the ground
//! truth only lets changes with overlapping parts conflict, two changes
//! routed to *different shard lanes* can never really conflict — every
//! cross-shard conflict has the arbiter on one side. The planner
//! therefore keeps one **global** conflict graph (the `ConflictIndex`
//! bitset intersections are the cheap global arbiter) and one global
//! resolution rule, so the always-green argument of the single-queue
//! planner carries over verbatim to the union of all lanes' commits:
//! the merged trunk is the planner's one commit log, and `audit_green`
//! verifies it directly.
//!
//! This module owns the shard *plan* (part → shard routing), the lane
//! worker split, the planner's planning-cost model (what makes the
//! single global window saturate), and the per-shard report.

use crate::pending::ChangeOutcome;
use crate::planner::SimResult;
use sq_sim::SimDuration;
use sq_workload::change::PartId;
use sq_workload::{ChangeSpec, Workload};

/// Part → shard routing table.
///
/// Parts are the workload's logical repository regions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// `PartId.0 as usize` → shard id. Out-of-range parts wrap
    /// (deterministically) so the plan is total.
    shard_of_part: Vec<u32>,
    n_shards: usize,
}

impl ShardPlan {
    /// Round-robin plan: part `p` lives in shard `p % n_shards`.
    ///
    /// The synthetic workloads draw hot parts from a Zipf over low part
    /// ids, so interleaving (rather than contiguous ranges) spreads the
    /// hot parts across shards evenly.
    pub fn round_robin(n_parts: usize, n_shards: usize) -> ShardPlan {
        assert!(n_shards >= 1, "need at least one shard");
        assert!(n_parts >= 1, "need at least one part");
        ShardPlan {
            shard_of_part: (0..n_parts).map(|p| (p % n_shards) as u32).collect(),
            n_shards,
        }
    }

    /// Number of planning lanes: one per shard plus the arbiter.
    pub fn n_lanes(&self) -> usize {
        self.n_shards + 1
    }

    /// The arbiter lane's index (always the last lane).
    pub fn arbiter_lane(&self) -> usize {
        self.n_shards
    }

    /// Shard owning a part.
    pub fn shard_of_part(&self, part: PartId) -> u32 {
        self.shard_of_part[part.0 as usize % self.shard_of_part.len()]
    }

    /// Lane a change with these parts plans in: the owning shard's lane
    /// when every part maps to one shard, the arbiter lane otherwise
    /// (multi-shard footprint, or no parts at all).
    pub fn lane_of_parts(&self, parts: &[PartId]) -> usize {
        let mut shards = parts.iter().map(|&p| self.shard_of_part(p));
        let Some(first) = shards.next() else {
            return self.arbiter_lane();
        };
        if shards.all(|s| s == first) {
            first as usize
        } else {
            self.arbiter_lane()
        }
    }

    /// Lane of a change spec.
    pub fn lane_of(&self, spec: &ChangeSpec) -> usize {
        self.lane_of_parts(&spec.parts)
    }

    /// Display name of a lane (`s00`, `s01`, …, `arbiter`).
    pub fn lane_name(&self, lane: usize) -> String {
        if lane == self.arbiter_lane() {
            "arbiter".to_string()
        } else {
            format!("s{lane:02}")
        }
    }
}

/// A full sharding configuration for the planner: the routing plan plus
/// the per-lane worker fleet split.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Part → shard routing.
    pub plan: ShardPlan,
    /// Worker count per lane, indexed by lane (last = arbiter). Every
    /// lane gets at least one worker.
    pub lane_workers: Vec<usize>,
}

impl ShardSpec {
    /// Split `total_workers` evenly across all lanes (arbiter included);
    /// the remainder goes to the arbiter, and every lane gets ≥ 1.
    pub fn even(plan: ShardPlan, total_workers: usize) -> ShardSpec {
        let lanes = plan.n_lanes();
        let base = (total_workers / lanes).max(1);
        let mut lane_workers = vec![base; lanes];
        let used = base * lanes;
        if total_workers > used {
            lane_workers[plan.arbiter_lane()] += total_workers - used;
        }
        ShardSpec { plan, lane_workers }
    }

    /// Split `total_workers` proportionally to each lane's routed change
    /// count in `workload` (deterministic; every lane gets ≥ 1). Lanes
    /// that receive no traffic still get one standby worker.
    pub fn proportional(plan: ShardPlan, workload: &Workload, total_workers: usize) -> ShardSpec {
        let lanes = plan.n_lanes();
        let mut routed = vec![0usize; lanes];
        for c in &workload.changes {
            routed[plan.lane_of(c)] += 1;
        }
        let total_routed: usize = routed.iter().sum();
        let mut lane_workers = vec![1usize; lanes];
        if total_routed > 0 && total_workers > lanes {
            let spare = total_workers - lanes;
            let mut assigned = 0usize;
            for lane in 0..lanes {
                let share = spare * routed[lane] / total_routed;
                lane_workers[lane] += share;
                assigned += share;
            }
            // Integer-division remainder goes to the arbiter (cross-shard
            // changes gate other lanes, so spare capacity helps there most).
            lane_workers[plan.arbiter_lane()] += spare - assigned;
        }
        ShardSpec { plan, lane_workers }
    }
}

/// Model of the planning step's own cost (paper Section 6: the planner
/// contacts the speculation engine *on every epoch*, and each round's
/// conflict analysis + speculation-tree walk grows with the pending
/// window). The planner turns this into a per-lane adaptive epoch:
/// after a round over `n` pending changes, the lane's next planning
/// tick fires after `base + per_pending · n`.
///
/// This is what makes one global window saturate: at high arrival rates
/// the single lane's window grows, its rounds slow down, scheduling
/// falls further behind, and throughput collapses — while sharded lanes
/// keep their windows (and therefore their rounds) small. `bench_shard`
/// runs both configurations under the *same* cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanningCost {
    /// Fixed cost per planning round.
    pub base: SimDuration,
    /// Marginal cost per pending change in the planned window.
    pub per_pending: SimDuration,
}

impl PlanningCost {
    /// Delay until a lane's next planning round, given its window size.
    pub fn tick(&self, pending: usize) -> SimDuration {
        self.base + self.per_pending * pending as u64
    }
}

/// Per-lane outcome statistics extracted from a finished run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneStats {
    /// Display name (`s00`…, `arbiter`).
    pub name: String,
    /// Workers allotted to this lane.
    pub workers: usize,
    /// Changes routed to this lane.
    pub routed: usize,
    /// Commits from this lane.
    pub committed: usize,
    /// Rejections from this lane.
    pub rejected: usize,
    /// Wrongful rejections among this lane's changes (must be 0).
    pub wrongful: usize,
}

/// Per-shard report over a finished simulation: how traffic, commits,
/// and (hopefully zero) wrongful rejections distributed across lanes.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// One entry per lane, in lane order.
    pub lanes: Vec<LaneStats>,
}

impl ShardReport {
    /// Build the report by routing every record of `result` through
    /// `spec`'s plan. Wrongful rejections are judged against the *full*
    /// run (a rejection can be justified by a commit in another lane),
    /// then attributed to the rejected change's lane.
    pub fn from_result(workload: &Workload, result: &SimResult, spec: &ShardSpec) -> ShardReport {
        let plan = &spec.plan;
        let wrongful = crate::audit::wrongful_rejections(workload, result);
        let mut lanes: Vec<LaneStats> = (0..plan.n_lanes())
            .map(|lane| LaneStats {
                name: plan.lane_name(lane),
                workers: spec.lane_workers[lane],
                routed: 0,
                committed: 0,
                rejected: 0,
                wrongful: 0,
            })
            .collect();
        for r in &result.records {
            let lane = plan.lane_of(&workload.changes[r.id.0 as usize]);
            lanes[lane].routed += 1;
            match r.outcome {
                ChangeOutcome::Committed => lanes[lane].committed += 1,
                ChangeOutcome::Rejected => lanes[lane].rejected += 1,
            }
        }
        for id in wrongful {
            let lane = plan.lane_of(&workload.changes[id.0 as usize]);
            lanes[lane].wrongful += 1;
        }
        ShardReport { lanes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{run_simulation, PlannerConfig};
    use crate::strategy::{Strategy, StrategyKind};
    use sq_workload::{WorkloadBuilder, WorkloadParams};

    fn pid(p: u32) -> PartId {
        PartId(p)
    }

    #[test]
    fn round_robin_routes_single_shard_footprints() {
        let plan = ShardPlan::round_robin(10, 3);
        assert_eq!(plan.n_shards, 3);
        assert_eq!(plan.n_lanes(), 4);
        assert_eq!(plan.arbiter_lane(), 3);
        // Parts 0, 3, 6, 9 all live in shard 0.
        assert_eq!(plan.lane_of_parts(&[pid(0), pid(3), pid(9)]), 0);
        // Parts 1 and 2 live in different shards → arbiter.
        assert_eq!(plan.lane_of_parts(&[pid(1), pid(2)]), plan.arbiter_lane());
        // No parts → arbiter.
        assert_eq!(plan.lane_of_parts(&[]), plan.arbiter_lane());
        // Out-of-range parts wrap deterministically.
        assert_eq!(plan.shard_of_part(pid(17)), plan.shard_of_part(pid(7)));
    }

    #[test]
    fn lane_names_are_stable() {
        let plan = ShardPlan::round_robin(8, 2);
        assert_eq!(plan.lane_name(0), "s00");
        assert_eq!(plan.lane_name(1), "s01");
        assert_eq!(plan.lane_name(2), "arbiter");
    }

    #[test]
    fn even_split_covers_every_lane() {
        let spec = ShardSpec::even(ShardPlan::round_robin(20, 4), 103);
        assert_eq!(spec.lane_workers.len(), 5);
        assert!(spec.lane_workers.iter().all(|&w| w >= 1));
        assert_eq!(spec.lane_workers.iter().sum::<usize>(), 103);
        // Tiny fleets still give every lane a worker.
        let tiny = ShardSpec::even(ShardPlan::round_robin(20, 4), 2);
        assert!(tiny.lane_workers.iter().all(|&w| w >= 1));
    }

    #[test]
    fn proportional_split_follows_traffic() {
        let w = WorkloadBuilder::new(WorkloadParams::ios().with_rate(200.0))
            .seed(11)
            .n_changes(400)
            .build()
            .unwrap();
        let plan = ShardPlan::round_robin(300, 4);
        let spec = ShardSpec::proportional(plan.clone(), &w, 200);
        assert_eq!(spec.lane_workers.iter().sum::<usize>(), 200);
        assert!(spec.lane_workers.iter().all(|&l| l >= 1));
        // The busiest lane by traffic gets the most workers (modulo the
        // arbiter's remainder bonus).
        let mut routed = vec![0usize; plan.n_lanes()];
        for c in &w.changes {
            routed[plan.lane_of(c)] += 1;
        }
        let busiest = (0..plan.n_shards).max_by_key(|&l| routed[l]).unwrap();
        let quietest = (0..plan.n_shards).min_by_key(|&l| routed[l]).unwrap();
        assert!(spec.lane_workers[busiest] >= spec.lane_workers[quietest]);
    }

    #[test]
    fn planning_cost_grows_with_window() {
        let cost = PlanningCost {
            base: SimDuration::from_secs(5),
            per_pending: SimDuration::from_secs(2),
        };
        assert_eq!(cost.tick(0), SimDuration::from_secs(5));
        assert_eq!(cost.tick(10), SimDuration::from_secs(25));
    }

    #[test]
    fn shard_report_partitions_the_run() {
        let w = WorkloadBuilder::new(WorkloadParams::ios().with_rate(150.0))
            .seed(41)
            .n_changes(120)
            .build()
            .unwrap();
        let strategy = Strategy::build(StrategyKind::Oracle, &w, None);
        let r = run_simulation(&w, &strategy, &PlannerConfig::default());
        let spec = ShardSpec::even(ShardPlan::round_robin(300, 4), 20);
        let report = ShardReport::from_result(&w, &r, &spec);
        assert_eq!(report.lanes.len(), 5);
        assert_eq!(report.lanes.iter().map(|l| l.workers).sum::<usize>(), 20);
        // Every record lands in exactly one lane.
        assert_eq!(
            report.lanes.iter().map(|l| l.routed).sum::<usize>(),
            r.records.len()
        );
        assert_eq!(
            report.lanes.iter().map(|l| l.committed).sum::<usize>(),
            r.committed()
        );
        assert!(report.lanes.iter().all(|l| l.wrongful == 0));
    }
}
