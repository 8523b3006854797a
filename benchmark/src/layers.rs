//! Per-layer numbers of the traced run.
//!
//! The crates record no spans yet, so the benchmark records them from
//! here, around the calls into each layer:
//!
//! * the **layer replay** — single-threaded, in-process, over the first
//!   changes of the workload's own input — calls the public functions in
//!   `SubmitQueueService::process_next`'s order, one root span per
//!   change. Two opaque twins fed the same changes (`SubmitQueueService`
//!   and `DurableSubmitQueue`) cross-check it: if the replay's covered
//!   time drifts from the service's, the replay no longer mirrors the
//!   code;
//! * the **planner lab** times the decision core's pieces on fixed
//!   pending windows and runs one observed reference simulation.

use crate::input::{Footprint, ServeInput};
use crate::metrics::Report;
use crate::plan::{self, PlanScale};
use crate::serve::{step_action, BUILD_THREADS};
use crate::spans::{totals_by_name, Recorder, Span};
use crate::stats::Samples;
use sq_build::{parse_workspace, AffectedSet, SnapshotAnalysis, TargetHashes};
use sq_core::analyzer::{ConflictGraph, IndexedAnalyzer};
use sq_core::durable::{encode_batch, DurableState, DurableSubmitQueue, ServiceEvent, Verdict};
use sq_core::failover::{best_promotion_candidate, promote_from_follower};
use sq_core::index::{ConflictIndex, TrunkHash};
use sq_core::planner::{run_simulation, run_simulation_observed};
use sq_core::predict::{Predictor, SpeculationCounters};
use sq_core::service::SubmitQueueService;
use sq_core::speculation::SpeculationEngine;
use sq_core::strategy::Strategy;
use sq_core::RecoveryConfig;
use sq_exec::BuildController;
use sq_obs::Observer;
use sq_server::{encode_frame, Request};
use sq_store::{
    DurableStore, DurableStoreConfig, FsStorage, Leader, MemStorage, ReplicationConfig, Wal,
};
use sq_vcs::merge::merge_patches;
use sq_vcs::{CommitMeta, Patch};
use sq_workload::ChangeSpec;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

type SharedMem = Arc<Mutex<MemStorage>>;

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Replay the first `n` changes of `input` layer by layer and fill in
/// the `build.*`, `vcs.*`, `exec.*`, `core.service.*`, `core.durable.*`,
/// `store.*` and `server.protocol.*` metrics. Returns the spans.
pub fn replay(
    input: &ServeInput,
    footprint: Footprint,
    n: usize,
    step_delay: Duration,
    out_dir: &Path,
    rec: &Arc<Recorder>,
    report: &mut Report,
) -> Vec<Span> {
    let delay_us = Arc::new(AtomicU64::new(step_delay.as_micros() as u64));
    let action = step_action(delay_us, Arc::clone(rec), false);
    let dir = out_dir.join(format!("replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fs = |name: &str| FsStorage::open(dir.join(name)).expect("replay directory is writable");
    let store_cfg = DurableStoreConfig::default;
    let repl_cfg = ReplicationConfig::default;

    // The transparent replay's own state.
    let mut repo = input.repo.repo.clone();
    let controller = BuildController::new(BUILD_THREADS);
    let mut mirror = DurableState::new();
    let (mut fs_store, _) = DurableStore::open(fs("raw"), store_cfg()).expect("fresh store");
    let (mut mem_store, _) =
        DurableStore::open(MemStorage::new(), store_cfg()).expect("fresh store");
    let shared = || -> SharedMem { Arc::new(Mutex::new(MemStorage::new())) };
    let (mut leader, _) = Leader::open(shared(), store_cfg(), repl_cfg()).expect("fresh leader");
    let followers = [shared(), shared()];
    for f in &followers {
        leader
            .attach_follower(f.clone(), store_cfg())
            .expect("fresh follower attaches");
    }
    // The opaque twins.
    let twin = SubmitQueueService::new(repo.clone(), BUILD_THREADS);
    let durable = DurableSubmitQueue::open(
        repo.clone(),
        BUILD_THREADS,
        RecoveryConfig::disabled(),
        fs("durable"),
        store_cfg(),
    )
    .expect("fresh journal");

    let mut frame_bytes = 0u64;
    let mut affected_targets = 0u64;
    let mut targets = 0usize;
    let mut snapshot_bytes = 0u64;
    rec.set_enabled(true);
    for (i, original) in input.changes.iter().take(n).enumerate() {
        let change: ChangeSpec = footprint.shape(i, original);
        let id = change.id.0;
        let author = format!("dev{}", change.developer.0);
        let description = format!("change {id}");
        let patch = input.repo.patch_for(&change);
        let root = rec.begin("replay.change", 0, id);

        // sq-server: what the wire costs for this change's enqueue.
        let request = Request::Enqueue {
            author: author.clone(),
            description: description.clone(),
            base: repo.head(),
            patch: patch.clone(),
        };
        let payload = rec.time("server.protocol.encode", root, id, || request.encode());
        frame_bytes += encode_frame(&payload).len() as u64;
        let decoded = rec.time("server.protocol.decode", root, id, || {
            Request::decode(&payload)
        });
        report.check(decoded.is_ok(), || {
            format!("change {id}: enqueue frame did not decode")
        });

        // The opaque twins: the durable wrapper, then the bare service.
        let base = durable.head();
        let submitted = rec.time("core.durable.submit", root, id, || {
            durable.submit(author.clone(), description.clone(), base, patch.clone())
        });
        rec.set_step_parent(0);
        let processed = rec.time("core.durable.process", root, id, || {
            durable.process_next(&*action)
        });
        report.check(
            submitted.is_ok() && matches!(processed, Ok(Some(_))),
            || format!("change {id}: durable twin failed"),
        );
        twin.submit(
            author.clone(),
            description.clone(),
            twin.head(),
            patch.clone(),
        );
        rec.time("core.service.process", root, id, || {
            twin.process_next(&*action)
        });

        // The transparent replay, in process_next's order.
        let process = rec.begin("replay.process", root, id);
        let head = repo.head();
        let (base_tree, head_tree, mut store) = rec.time("vcs.snapshot", process, id, || {
            let base_tree = repo.tree_at(head).expect("mainline readable");
            let head_tree = repo.head_tree().expect("mainline readable");
            (base_tree, head_tree, repo.store().clone())
        });
        let rebased = rec.time("vcs.merge", process, id, || {
            // The replay is serial, so nothing landed since the base and
            // the drift the rebase merges with is empty.
            let drifted = base_tree.changed_paths(&head_tree);
            assert!(drifted.is_empty(), "serial replay has no drift");
            let drift = Patch::new();
            let merged =
                merge_patches(&base_tree, &store, &drift, &patch).expect("no drift, no conflict");
            let dev_paths: HashSet<&sq_vcs::RepoPath> = patch.paths().collect();
            Patch::from_ops(
                merged
                    .ops()
                    .filter(|op| dev_paths.contains(op.path()))
                    .cloned(),
            )
        });
        let analyze = |tree: &sq_vcs::Tree, store: &sq_vcs::ObjectStore| {
            let graph = rec
                .time("build.parse", process, id, || parse_workspace(tree, store))
                .expect("generated BUILD files parse");
            let hashes = rec
                .time("build.hash", process, id, || {
                    TargetHashes::compute(&graph, tree, store)
                })
                .expect("generated targets hash");
            SnapshotAnalysis {
                tree: tree.clone(),
                graph,
                hashes,
            }
        };
        let base_analysis = analyze(&head_tree, &store);
        let new_tree = rec
            .time("vcs.apply", process, id, || {
                rebased.apply(&head_tree, &mut store)
            })
            .expect("a rebased patch applies");
        let new_analysis = analyze(&new_tree, &store);
        let delta = rec.time("build.affected", process, id, || {
            AffectedSet::between(&base_analysis, &new_analysis)
        });
        targets = new_analysis.graph.len();
        affected_targets += delta.len() as u64;
        let execute = rec.begin("exec.execute", process, id);
        rec.set_step_parent(execute);
        let built = controller.execute_affected(
            &new_analysis.graph,
            &new_analysis.hashes,
            &delta,
            |step| action(step, &new_tree),
        );
        rec.set_step_parent(0);
        rec.end(execute);
        report.check(built.is_success(), || {
            format!("change {id}: replayed build failed")
        });
        let meta = CommitMeta::new(author.clone(), format!("[T{}] {description}", i + 1), 0);
        let commit = rec
            .time("vcs.commit", process, id, || {
                repo.commit_patch(sq_vcs::repo::MAINLINE, &rebased, meta)
            })
            .expect("a generated change is never empty");
        // process_next frees its snapshot of the repository on return.
        rec.time("vcs.release", process, id, || {
            drop((
                base_tree,
                head_tree,
                new_tree,
                store,
                base_analysis,
                new_analysis,
                delta,
            ));
        });
        rec.end(process);

        // sq-store: the three records a landed change journals, on real
        // files, in memory, and shipped to a quorum of two followers.
        let ticket = i as u64 + 1;
        let batches = [
            vec![ServiceEvent::Enqueue {
                ticket,
                author,
                description,
                base: head,
                patch,
            }],
            vec![ServiceEvent::SpeculationStarted { ticket }],
            vec![
                ServiceEvent::BuildVerdict {
                    ticket,
                    verdict: Verdict::Pass,
                    detail: String::new(),
                },
                ServiceEvent::Committed { ticket, commit },
            ],
        ];
        for batch in &batches {
            let payload = encode_batch(batch);
            batch.iter().for_each(|ev| mirror.apply(ev));
            let on_fs = rec.time("store.append_fs", root, id, || fs_store.append(&payload));
            let in_mem = rec.time("store.append_mem", root, id, || mem_store.append(&payload));
            let shipped = rec.time("store.ship_quorum2", root, id, || leader.append(&payload));
            report.check(on_fs.is_ok() && in_mem.is_ok() && shipped.is_ok(), || {
                format!("change {id}: journal append failed")
            });
            if fs_store.should_snapshot() {
                let state = mirror.encode();
                snapshot_bytes = state.len() as u64;
                let ok = rec
                    .time("store.snapshot", root, id, || {
                        fs_store.write_snapshot(&state)
                    })
                    .and_then(|()| mem_store.write_snapshot(&state))
                    .and_then(|()| leader.write_snapshot(&state));
                report.check(ok.is_ok(), || format!("change {id}: snapshot failed"));
            }
        }
        rec.end(root);
    }
    rec.set_enabled(false);
    let n = input.changes.len().min(n).max(1) as f64;

    // Twin, replay and journal agree on where mainline ended up.
    report.check(
        twin.head() == repo.head() && durable.head() == repo.head(),
        || "the replay and its twins ended on different commits".into(),
    );
    report.check(mirror.landed == twin.stats().landed, || {
        format!(
            "mirror landed {}, twin landed {}",
            mirror.landed,
            twin.stats().landed
        )
    });

    // Failover: promote the better follower over the replayed repository.
    let shipped = *leader.replication_stats();
    drop(leader);
    let t = Instant::now();
    let promoted = best_promotion_candidate(&followers, &store_cfg(), &repl_cfg()).and_then(|c| {
        promote_from_follower(
            repo.clone(),
            BUILD_THREADS,
            RecoveryConfig::disabled(),
            followers[c.index].clone(),
            store_cfg(),
            repl_cfg(),
            c.cluster_epoch,
        )
    });
    report.set("core.failover.promote_ms", t.elapsed().as_secs_f64() * 1e3);
    report.check(
        matches!(&promoted, Ok((q, _)) if q.service().stats().landed == mirror.landed),
        || "promotion did not recover every landed change".into(),
    );

    let spans = rec.take();
    let by_name = totals_by_name(&spans);
    let get = |name: &str| by_name.get(name).copied().unwrap_or((0, 0, 0));
    let mean_us = |name: &str| {
        let (count, total, _) = get(name);
        us(total) / count.max(1) as f64
    };
    report.set("build.parse_us", mean_us("build.parse"));
    report.set("build.hash_us", mean_us("build.hash"));
    report.set("build.affected_us", mean_us("build.affected"));
    report.set("build.targets", targets as f64);
    report.set("build.affected_targets", affected_targets as f64 / n);
    report.set(
        "vcs.snapshot_us",
        mean_us("vcs.snapshot") + mean_us("vcs.release"),
    );
    report.set("vcs.merge_us", mean_us("vcs.merge"));
    report.set("vcs.apply_us", mean_us("vcs.apply"));
    report.set("vcs.commit_us", mean_us("vcs.commit"));
    let (_, execute_total, execute_self) = get("exec.execute");
    let (steps, step_total, _) = get("exec.step");
    report.set("exec.execute_us", us(execute_self) / n);
    report.set("exec.step_us", mean_us("exec.step"));
    report.set("exec.steps_per_change", steps as f64 / n);
    report.set(
        "exec.parallelism",
        step_total as f64 / execute_total.max(1) as f64,
    );
    let (_, service_total, _) = get("core.service.process");
    let (_, durable_total, _) = get("core.durable.process");
    let (_, process_total, process_self) = get("replay.process");
    report.set("core.service.process_us", mean_us("core.service.process"));
    report.set(
        "core.service.replay_coverage",
        (process_total - process_self) as f64 / service_total.max(1) as f64,
    );
    report.set("core.durable.process_us", mean_us("core.durable.process"));
    report.set("core.durable.submit_us", mean_us("core.durable.submit"));
    report.set(
        "core.durable.journal_share",
        (1.0 - service_total as f64 / durable_total.max(1) as f64).max(0.0),
    );
    let st = durable.store_stats();
    report.set("store.append_fs_us", mean_us("store.append_fs"));
    report.set("store.append_mem_us", mean_us("store.append_mem"));
    report.set("store.appends_per_change", st.appends as f64 / n);
    report.set("store.fsyncs_per_change", st.fsyncs as f64 / n);
    report.set("store.bytes_per_change", st.appended_bytes as f64 / n);
    report.set("store.snapshot_us", mean_us("store.snapshot"));
    report.set("store.snapshot_bytes", snapshot_bytes as f64);
    report.set("store.ship_quorum2_us", mean_us("store.ship_quorum2"));
    report.set(
        "store.ship_bytes_per_change",
        shipped.shipped_bytes as f64 / n,
    );
    report.set(
        "server.protocol.encode_us",
        mean_us("server.protocol.encode"),
    );
    report.set(
        "server.protocol.decode_us",
        mean_us("server.protocol.decode"),
    );
    report.set("server.protocol.frame_bytes", frame_bytes as f64 / n);
    drop(durable);
    let _ = std::fs::remove_dir_all(dir);
    spans
}

/// Median wall time of `f` over `iterations` calls, in microseconds.
fn median_us<T>(iterations: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples = (0..iterations)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    Samples::new(samples).median()
}

/// Time the decision core's pieces on fixed pending windows of this
/// seed's changes, and run the reference simulation observed and plain.
pub fn planner_lab(seed: u64, scale: &PlanScale, report: &mut Report) {
    let (predictor, train_ms) = plan::train(seed, scale.history_changes);
    report.set("ml.train_ms", train_ms);
    let window = scale.reference_changes.min(256);
    let (w, _) = plan::workload(seed, window);

    // Admission: the window's changes enter the conflict graph one by
    // one through the index-backed analyzer, as the planner admits them.
    let mut analyzer = IndexedAnalyzer::new();
    let mut graph = ConflictGraph::new();
    let mut pending: Vec<&ChangeSpec> = Vec::new();
    let t = Instant::now();
    for c in &w.changes {
        graph.admit(c, &pending, &mut analyzer);
        pending.push(c);
    }
    report.set(
        "core.analyzer.admit_us_w256",
        t.elapsed().as_secs_f64() * 1e6 / window as f64,
    );
    let index_stats = *analyzer.index().stats();
    report.set("core.index.pairs_checked", index_stats.pairs_checked as f64);
    let lookups = (index_stats.cache_hits + index_stats.cache_misses).max(1);
    report.set(
        "core.index.cache_hit_rate",
        index_stats.cache_hits as f64 / lookups as f64,
    );

    let mut index = ConflictIndex::new(TrunkHash(0));
    let ids: Vec<_> = w.changes.iter().map(|c| c.id).collect();
    for c in &w.changes {
        index.ensure_with(c.id, || c.parts.iter().map(|p| p.0).collect());
    }
    report.set(
        "core.index.matrix_us_w256",
        median_us(21, || index.matrix_serial(&ids)),
    );

    let (counters, fixed) = (HashMap::new(), HashMap::new());
    let mut select = |name, n: usize| {
        let pending = &pending[..n.min(pending.len())];
        let us = median_us(11, || {
            SpeculationEngine::select_builds(
                &w, pending, &graph, &predictor, &counters, &fixed, 300,
            )
        });
        report.set(name, us);
    };
    select("core.speculation.select_us_w64", 64);
    select("core.speculation.select_us_w256", 256);
    let pairs: Vec<_> = w.changes.windows(2).collect();
    let scored = median_us(11, || {
        pairs
            .iter()
            .map(|p| {
                predictor.p_success(&w, &p[0], SpeculationCounters::default())
                    + predictor.p_conflict(&w, &p[0], &p[1])
            })
            .sum::<f64>()
    });
    report.set(
        "core.predict.score_us",
        scored / (2 * pairs.len().max(1)) as f64,
    );

    // The reference simulation: behavioural counts on the simulated
    // clock, which repeat exactly for one seed.
    let strategy = Strategy::submit_queue_with(predictor);
    let (reference, _) = plan::workload(seed, scale.reference_changes);
    let cfg = plan::config(seed);
    let t = Instant::now();
    let plain = run_simulation(&reference, &strategy, &cfg);
    let plain_s = t.elapsed().as_secs_f64();
    let mut obs = Observer::new();
    let t = Instant::now();
    let observed = run_simulation_observed(&reference, &strategy, &cfg, &mut obs);
    let observed_s = t.elapsed().as_secs_f64();
    report.check(
        (
            plain.builds_started,
            plain.builds_aborted,
            plain.committed(),
        ) == (
            observed.builds_started,
            observed.builds_aborted,
            observed.committed(),
        ),
        || "observing the reference simulation changed its behaviour".into(),
    );
    let n = reference.changes.len().max(1) as f64;
    report.set("core.planner.us_per_change", plain_s * 1e6 / n);
    let replans = obs
        .metrics
        .histogram("planner.queue_depth")
        .map_or(0, |h| h.count());
    report.set("core.planner.epochs", replans as f64);
    report.set("core.planner.builds_started", plain.builds_started as f64);
    report.set("core.planner.builds_aborted", plain.builds_aborted as f64);
    report.set(
        "core.planner.wasted_share",
        plain.builds_aborted as f64 / plain.builds_started.max(1) as f64,
    );
    report.set(
        "core.planner.sim_throughput_per_h",
        plain.throughput_per_hour(),
    );
    report.set(
        "core.planner.sim_turnaround_p95_min",
        plain.turnaround_p50_p95_p99().1,
    );
    report.set(
        "obs.observer_overhead_share",
        observed_s / plain_s.max(1e-9) - 1.0,
    );
}
