//! Thread-safety of the embeddable service: the paper's API service is
//! "a stateless backend service" hit by many developers at once; our
//! in-process equivalent must accept concurrent submissions and status
//! queries while a processor drains the queue.

use keeping_master_green::core::durable::DurableSubmitQueue;
use keeping_master_green::core::service::{StepAction, SubmitQueueService, TicketState};
use keeping_master_green::core::RecoveryConfig;
use keeping_master_green::exec::StepOutcome;
use keeping_master_green::store::{DurableStoreConfig, MemStorage};
use keeping_master_green::vcs::{Patch, RepoPath, Repository};
use std::sync::Arc;

fn repo() -> Repository {
    let mut files: Vec<(String, String)> = Vec::new();
    for i in 0..8 {
        files.push((
            format!("pkg{i}/BUILD"),
            format!("library(name = \"pkg{i}\", srcs = [\"lib.rs\"])"),
        ));
        files.push((format!("pkg{i}/lib.rs"), format!("pub fn f{i}() {{}}")));
    }
    Repository::init(files.iter().map(|(p, c)| (p.as_str(), c.as_str()))).unwrap()
}

#[test]
fn concurrent_submitters_and_one_processor() {
    let service = Arc::new(SubmitQueueService::new(repo(), 2));
    let n_threads = 4;
    let per_thread = 5;

    // Phase 1: submitters race (each on its own package: no conflicts).
    let tickets: Vec<_> = crossbeam::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..n_threads {
            let service = Arc::clone(&service);
            handles.push(scope.spawn(move |_| {
                let mut mine = Vec::new();
                for k in 0..per_thread {
                    // All submissions race against the same (root) HEAD;
                    // distinct files keep the rebases textual-conflict
                    // free, which is the point of this test — concurrency
                    // of the service itself, not of the patches.
                    let base = service.head();
                    let path = RepoPath::new(format!("pkg{t}/note_{k}.rs")).unwrap();
                    let ticket = service
                        .submit(
                            format!("dev{t}"),
                            format!("edit {k} from thread {t}"),
                            base,
                            Patch::write(path, format!("// note {k} from thread {t}\n")),
                        )
                        .unwrap();
                    mine.push(ticket);
                }
                mine
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    })
    .unwrap();

    assert_eq!(tickets.len(), n_threads * per_thread);
    // All tickets distinct.
    let mut sorted = tickets.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), tickets.len());

    // Phase 2: drain with concurrent status readers.
    let readers_done = std::sync::atomic::AtomicBool::new(false);
    crossbeam::scope(|scope| {
        let svc = Arc::clone(&service);
        let readers_done_ref = &readers_done;
        let tickets_ref = &tickets;
        scope.spawn(move |_| {
            svc.run_until_idle(&|_s, _t| StepOutcome::Success).unwrap();
            readers_done_ref.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        let svc2 = Arc::clone(&service);
        scope.spawn(move |_| {
            // Poll statuses while processing happens; every answer must
            // be a valid state (never a poisoned lock or a panic).
            while !readers_done_ref.load(std::sync::atomic::Ordering::SeqCst) {
                for &t in tickets_ref {
                    let st = svc2.status(t);
                    assert!(st.is_some());
                }
                std::thread::yield_now();
            }
        });
    })
    .unwrap();

    // Everything landed: same-thread edits chain (later ones rebase), and
    // cross-thread edits touch disjoint packages.
    let mut landed = 0;
    for t in tickets {
        match service.status(t).unwrap() {
            TicketState::Landed(_) => landed += 1,
            other => panic!("expected landed, got {other:?}"),
        }
    }
    assert_eq!(landed, n_threads * per_thread);
    // Final contents: every submitted file is present at HEAD.
    for t in 0..n_threads {
        for k in 0..per_thread {
            let content = service
                .read_head_file(&format!("pkg{t}/note_{k}.rs"))
                .unwrap_or_else(|| panic!("pkg{t}/note_{k}.rs missing at HEAD"));
            assert!(content.contains(&format!("thread {t}")));
        }
    }
}

/// Readers take snapshots (`repository()`) and poll `status()`/`head()`
/// while the processor lands 200 changes: snapshots share the store and
/// the commit map with the live repository, so every reader must see a
/// self-consistent repository whose head only ever moves forward.
#[test]
fn readers_take_snapshots_while_two_hundred_changes_land() {
    let service = SubmitQueueService::new(repo(), 2);
    let root = service.head();
    let tickets: Vec<_> = (0..200)
        .map(|k| {
            let path = RepoPath::new(format!("pkg{}/note_{k}.rs", k % 8)).unwrap();
            service
                .submit(
                    "dev",
                    format!("change {k}"),
                    root,
                    Patch::write(path, format!("// {k}\n")),
                )
                .unwrap()
        })
        .collect();
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(|| {
                    let mut last = root;
                    let mut last_len = 1;
                    loop {
                        // Read the flag first: the final pass then sees
                        // the fully drained queue.
                        let finished = done.load(std::sync::atomic::Ordering::SeqCst);
                        let snapshot = service.repository();
                        let head = snapshot.head();
                        let log = snapshot.log(head).expect("snapshot history is complete");
                        assert!(log.len() >= last_len, "head moved backwards");
                        assert_eq!(log[log.len() - last_len], last, "history was rewritten");
                        assert_eq!(log.len(), snapshot.commit_count());
                        let tree = snapshot.tree_at(head).expect("head tree readable");
                        assert_eq!(tree.iter().count(), 16 + log.len() - 1);
                        for (_, blob) in tree.iter() {
                            assert!(snapshot.store().contains(blob));
                        }
                        (last, last_len) = (head, log.len());
                        assert!(service.status(tickets[0]).is_some());
                        // Whatever landed since is not in the snapshot.
                        let live = service.head();
                        assert!(live == head || snapshot.commit(live).is_err());
                        if finished {
                            return last_len;
                        }
                    }
                })
            })
            .collect();
        assert_eq!(
            service
                .run_until_idle(&|_s, _t| StepOutcome::Success)
                .unwrap(),
            200
        );
        done.store(true, std::sync::atomic::Ordering::SeqCst);
        for reader in readers {
            assert_eq!(reader.join().unwrap(), 201);
        }
    });
    for t in tickets {
        assert!(matches!(service.status(t), Some(TicketState::Landed(_))));
    }
    assert_eq!(
        service
            .verify_history(&|_s, _t| StepOutcome::Success)
            .unwrap(),
        201
    );
}

/// A build blocks no one: the first build step parks on a barrier, and
/// every other call on the durable queue — a journaled `submit`
/// included — has to answer while it is parked. Neither the store lock
/// nor the state lock is held across a build.
#[test]
fn durable_queue_answers_while_a_build_is_parked() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;
    let queue = DurableSubmitQueue::open(
        repo(),
        2,
        RecoveryConfig::disabled(),
        MemStorage::new(),
        DurableStoreConfig::default(),
    )
    .unwrap();
    let root = queue.head();
    // An edit to a target's source, so the build has a step to park on.
    let edit = |k: u32| Patch::write(RepoPath::new(format!("pkg{k}/lib.rs")).unwrap(), "// e\n");
    let building = queue.submit("alice", "being built", root, edit(0)).unwrap();
    let parked = Arc::new(Barrier::new(2));
    let resume = Arc::new(Barrier::new(2));
    let first_step = AtomicBool::new(true);
    let action: Box<StepAction> = {
        let (parked, resume) = (Arc::clone(&parked), Arc::clone(&resume));
        Box::new(move |_step, _tree| {
            if first_step.swap(false, Ordering::SeqCst) {
                parked.wait();
                resume.wait();
            }
            StepOutcome::Success
        })
    };
    std::thread::scope(|scope| {
        let processor = scope.spawn(|| queue.process_next(&action));
        parked.wait();
        let (answered, answer) = mpsc::channel();
        let queue = &queue;
        scope.spawn(move || {
            let submitted = queue.submit("bob", "mid-build", root, edit(1));
            let answers = (
                submitted,
                queue.queue_depth(),
                queue.queue_depth_by_dir(),
                queue.store_stats().appends,
                queue.state(),
                queue.status(building),
                queue.head(),
            );
            let _ = answered.send(answers);
        });
        // The wait only bounds the failure: with a lock held across the
        // build nobody answers, and the build must still be let go.
        let got = answer.recv_timeout(Duration::from_secs(10));
        resume.wait();
        assert_eq!(processor.join().unwrap().unwrap(), Some(building));
        let (submitted, depth, by_dir, appends, state, status, head) =
            got.expect("a call on the durable queue stalled behind the build");
        let submitted = submitted.unwrap();
        // Mid-build: the change being built is still queued and counted,
        // its Enqueue, its SpeculationStarted and bob's Enqueue are
        // journaled, and nothing has landed.
        assert_eq!(depth, 2);
        assert_eq!(by_dir, vec![("pkg0".into(), 1), ("pkg1".into(), 1)]);
        assert_eq!(appends, 3);
        assert_eq!(state.landed, 0, "state: {state:?}");
        assert_eq!(status, Some(TicketState::Queued));
        assert_eq!(head, root);
        assert!(matches!(
            queue.status(building),
            Some(TicketState::Landed(_))
        ));
        assert_eq!(queue.status(submitted), Some(TicketState::Queued));
    });
}
