//! `plan_sim`: the planner core alone. `run_simulation` over the iOS
//! preset with SubmitQueue's learned predictor and a 5 % infra-fault
//! model; no socket, journal or VCS code runs.

use crate::metrics::Report;
use crate::spans::Recorder;
use crate::stats::Samples;
use crate::sys;
use sq_core::audit::{audit_green, count_wrongful_rejections};
use sq_core::planner::{
    run_simulation, run_simulation_observed, PlannerConfig, SimFaults, SimResult,
};
use sq_core::predict::LearnedPredictor;
use sq_core::strategy::Strategy;
use sq_obs::Observer;
use sq_workload::{Workload, WorkloadBuilder, WorkloadParams};
use std::time::{Duration, Instant};

/// Ingestion rate, changes per simulated hour, and the worker fleet.
const RATE_PER_H: f64 = 300.0;
const WORKERS: usize = 300;
const FAULT_RATE: f64 = 0.05;

/// Sizes that `--smoke` divides by twenty.
#[derive(Debug, Clone, Copy)]
pub struct PlanScale {
    /// Changes of the disjoint history the predictor trains on.
    pub history_changes: usize,
    /// Changes of one timed simulation.
    pub sim_changes: usize,
    /// Changes of the warm-up (and reference) simulation.
    pub reference_changes: usize,
    pub setups: usize,
}

pub fn workload(seed: u64, n_changes: usize) -> (Workload, f64) {
    let t = Instant::now();
    let w = WorkloadBuilder::new(WorkloadParams::ios().with_rate(RATE_PER_H))
        .seed(seed)
        .n_changes(n_changes)
        .build()
        .expect("the iOS preset is valid");
    (w, t.elapsed().as_secs_f64() * 1e3)
}

/// Train SubmitQueue's predictor on a history disjoint from every
/// workload of this seed. Returns it with the training time in ms.
pub fn train(seed: u64, history_changes: usize) -> (LearnedPredictor, f64) {
    let history = WorkloadBuilder::new(WorkloadParams::ios())
        .seed(seed ^ 0xA11CE)
        .n_changes(history_changes)
        .build()
        .expect("the iOS preset is valid");
    let t = Instant::now();
    let (predictor, _) = LearnedPredictor::train(&history, seed);
    (predictor, t.elapsed().as_secs_f64() * 1e3)
}

pub fn config(seed: u64) -> PlannerConfig {
    PlannerConfig {
        workers: WORKERS,
        faults: Some(SimFaults::at_rate(FAULT_RATE, seed)),
        ..PlannerConfig::default()
    }
}

/// The counts of a simulation that must repeat exactly for one seed.
fn behaviour(r: &SimResult) -> (u64, u64, usize, usize, u64, u64) {
    (
        r.builds_started,
        r.builds_aborted,
        r.committed(),
        r.rejected(),
        r.infra_retries,
        r.makespan.as_micros(),
    )
}

/// Always green, no wrongful rejection, every change decided.
fn audit(report: &mut Report, what: &str, w: &Workload, r: &SimResult) {
    let green = audit_green(w, r);
    report.check(green.is_ok(), || format!("{what}: {green:?}"));
    let wrongful = count_wrongful_rejections(w, r);
    report.check(wrongful == 0, || {
        format!("{what}: {wrongful} wrongful rejections")
    });
    report.check(r.records.len() == w.changes.len(), || {
        format!(
            "{what}: {} of {} changes decided",
            r.records.len(),
            w.changes.len()
        )
    });
}

/// The workloads one run cycles through: the seed's own and three
/// derived from it, so that one seed's luck with conflict clusters does
/// not set the run's numbers.
const SUB_WORKLOADS: u64 = 4;

fn sub_seed(seed: u64, j: u64) -> u64 {
    seed.wrapping_add(j.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Simulate the run's workloads in turn, cycle after cycle, until
/// `seconds` have passed (at least two cycles, so every simulation
/// repeats). Its latency is the wall time of planner work per verdict,
/// one sample per simulation: the simulated clock supplies the waiting,
/// so no change waits on the wall clock.
pub fn run_plan(
    seed: u64,
    seconds: Duration,
    scale: &PlanScale,
    trace: bool,
    rec: &Recorder,
) -> Report {
    let mut report = Report::default();

    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..scale.setups.max(1) {
        let t = Instant::now();
        let (predictor, _) = train(seed, scale.history_changes);
        let strategy = Strategy::submit_queue_with(predictor);
        let workloads: Vec<(Workload, f64)> = (0..SUB_WORKLOADS)
            .map(|j| workload(sub_seed(seed, j), scale.sim_changes))
            .collect();
        let (reference, _) = workload(seed, scale.reference_changes);
        let cfg = config(seed);
        let warm = run_simulation(&reference, &strategy, &cfg);
        setups.push(t.elapsed().as_secs_f64());
        kept = Some((strategy, workloads, reference, warm, cfg));
    }
    let (strategy, workloads, reference, warm, cfg) = kept.expect("at least one set-up ran");
    report.set("setup_s", Samples::new(setups).median());
    report.set(
        "workload.generate_ms",
        workloads.iter().map(|(_, ms)| ms).sum(),
    );
    audit(&mut report, "warm-up simulation", &reference, &warm);

    rec.set_enabled(trace);
    let n = scale.sim_changes;
    let mut per_verdict_ms: Vec<(f64, bool)> = Vec::new();
    let mut first_cycle: Vec<SimResult> = Vec::new();
    let mut repeats_exactly = true;
    let cpu0 = sys::cpu_seconds();
    let started = Instant::now();
    let mut cycle = 0;
    while cycle < 2 || started.elapsed() < seconds {
        for (j, (w, _)) in workloads.iter().enumerate() {
            // A traced run observes every other cycle.
            let observed = trace && cycle % 2 == 1;
            let span = rec.begin("core.planner.run", 0, j as u64);
            let t = Instant::now();
            let result = if observed {
                run_simulation_observed(w, &strategy, &cfg, &mut Observer::new())
            } else {
                run_simulation(w, &strategy, &cfg)
            };
            let wall = t.elapsed();
            rec.end(span);
            per_verdict_ms.push((wall.as_secs_f64() * 1e3 / n as f64, observed));
            match first_cycle.get(j) {
                Some(first) => repeats_exactly &= behaviour(first) == behaviour(&result),
                None => first_cycle.push(result),
            }
        }
        cycle += 1;
    }
    let cpu_s = sys::cpu_seconds() - cpu0;
    rec.set_enabled(false);
    let peak_rss_mb = sys::peak_rss_mb();

    let sims = per_verdict_ms.len();
    let verdicts = sims * n;
    let busy_s: f64 = per_verdict_ms.iter().map(|(v, _)| v * n as f64 / 1e3).sum();
    let lat = Samples::new(per_verdict_ms.iter().map(|(v, _)| *v).collect());
    report.set("verdicts_per_s", verdicts as f64 / busy_s.max(1e-9));
    report.set("verdict_ms_p50", lat.percentile(0.5));
    report.set("verdict_ms_p90", lat.percentile(0.9));
    report.set("cpu_ms_per_change", cpu_s * 1e3 / verdicts as f64);
    report.set("peak_rss_mb", peak_rss_mb);
    let median_of = |observed: bool| {
        let of: Vec<f64> = per_verdict_ms
            .iter()
            .filter(|(_, o)| *o == observed)
            .map(|(v, _)| *v)
            .collect();
        Samples::new(of).median()
    };
    if trace && median_of(false) > 0.0 {
        report.set(
            "obs.trace_overhead_share",
            median_of(true) / median_of(false) - 1.0,
        );
    }
    report.note(format!(
        "{cycle} cycles over {SUB_WORKLOADS} workloads of {n} changes: {verdicts} verdicts in {busy_s:.3} s \
         of planner time; verdict_ms_* is wall time per verdict, one sample per simulation"
    ));

    report.attempted += verdicts as u64;
    for ((w, _), result) in workloads.iter().zip(&first_cycle) {
        audit(&mut report, "simulation", w, result);
    }
    report.check(repeats_exactly, || {
        "repetitions of one simulation disagree on builds, commits, rejections or makespan".into()
    });
    report
}
