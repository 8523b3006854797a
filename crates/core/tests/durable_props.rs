//! Property tests for the durable-event wire format: arbitrary
//! [`ServiceEvent`] batches must survive `encode_batch` →
//! `decode_batch` exactly, and the [`DurableState`] fold must be
//! insensitive to snapshot placement — folding all events directly
//! equals snapshotting (encode/decode) at any intermediate point and
//! folding the rest on top. That equivalence is precisely what makes
//! `snapshot ⊕ journal-suffix` recovery correct at every cut point.
//!
//! The last property is differential: one script of submissions run
//! through the in-memory service and through a `DurableSubmitQueue`
//! ends in the same state, and the journal the durable one wrote folds
//! to that state too — one event stream, three readers.

use proptest::prelude::*;
use sq_core::durable::{
    decode_batch, encode_batch, DurableState, DurableSubmitQueue, ServiceEvent, Verdict,
};
use sq_core::service::{StepAction, SubmitQueueService};
use sq_core::{RecoveryConfig, TicketId, TicketState};
use sq_exec::{InfraFault, InfraFaultKind, RetryPolicy, StepOutcome};
use sq_store::{DurableStore, DurableStoreConfig, MemStorage};
use sq_vcs::{CommitId, FileOp, ObjectId, Patch, RepoPath, Repository};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

fn arb_string() -> impl Strategy<Value = String> {
    // Cover the JSON/codec-hostile characters: quotes, backslashes,
    // newlines, multi-byte UTF-8.
    proptest::collection::vec(
        prop_oneof![
            Just("a"),
            Just("B"),
            Just("\""),
            Just("\\"),
            Just("\n"),
            Just("é"),
            Just("日"),
            Just(" "),
        ],
        0..12,
    )
    .prop_map(|parts| parts.concat())
}

fn arb_commit() -> impl Strategy<Value = CommitId> {
    any::<u8>().prop_map(|b| {
        let mut raw = [0u8; 32];
        for (i, slot) in raw.iter_mut().enumerate() {
            *slot = b.wrapping_add(i as u8);
        }
        CommitId(ObjectId::from_raw(raw))
    })
}

fn arb_patch() -> impl Strategy<Value = Patch> {
    proptest::collection::vec(
        (0u8..4, 0u8..4, arb_string(), any::<bool>()).prop_map(|(d, f, content, write)| {
            let path = RepoPath::new(format!("d{d}/f{f}.rs")).unwrap();
            if write {
                FileOp::Write { path, content }
            } else {
                FileOp::Delete { path }
            }
        }),
        0..5,
    )
    .prop_map(Patch::from_ops)
}

fn arb_verdict() -> impl Strategy<Value = Verdict> {
    prop_oneof![
        Just(Verdict::Pass),
        Just(Verdict::Fail),
        Just(Verdict::Infra)
    ]
}

fn arb_event() -> impl Strategy<Value = ServiceEvent> {
    prop_oneof![
        (
            any::<u64>(),
            arb_string(),
            arb_string(),
            arb_commit(),
            arb_patch()
        )
            .prop_map(
                |(ticket, author, description, base, patch)| ServiceEvent::Enqueue {
                    ticket,
                    author,
                    description,
                    base,
                    patch,
                }
            ),
        any::<u64>().prop_map(|ticket| ServiceEvent::SpeculationStarted { ticket }),
        (any::<u64>(), arb_string())
            .prop_map(|(ticket, reason)| ServiceEvent::SpeculationAborted { ticket, reason }),
        (any::<u64>(), arb_verdict(), arb_string()).prop_map(|(ticket, verdict, detail)| {
            ServiceEvent::BuildVerdict {
                ticket,
                verdict,
                detail,
            }
        }),
        (any::<u64>(), arb_commit())
            .prop_map(|(ticket, commit)| ServiceEvent::Committed { ticket, commit }),
        (any::<u64>(), arb_string(), any::<bool>()).prop_map(|(ticket, reason, infra)| {
            ServiceEvent::Rejected {
                ticket,
                reason,
                infra,
            }
        }),
        (arb_string(), any::<u32>()).prop_map(|(target, observations)| {
            ServiceEvent::Quarantined {
                target,
                observations,
            }
        }),
    ]
}

/// What every build of one submission does.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    /// Every step passes.
    Pass,
    /// Every step fails: the change is at fault.
    Red,
    /// The first `n` builds end infra-red, the rest pass. The queues
    /// allow [`MAX_REBUILDS`] redos, so `n` beyond that is rejected for
    /// infrastructure reasons.
    Infra(u32),
}

const MAX_REBUILDS: u32 = 2;

/// One submission: `lib.rs` of package `pkg` rewritten to one of three
/// contents. Two of a round on one package are a merge conflict when
/// the contents differ and a duplicate edit (`EmptyCommit`) when not.
#[derive(Debug, Clone)]
struct Submission {
    pkg: u8,
    version: u8,
    bad_base: bool,
    fate: Fate,
}

fn arb_submission() -> impl Strategy<Value = Submission> {
    let fate = prop_oneof![
        4 => Just(Fate::Pass),
        1 => Just(Fate::Red),
        2 => (1..MAX_REBUILDS + 3).prop_map(Fate::Infra),
    ];
    (0u8..3, 0u8..3, 0u8..8, fate).prop_map(|(pkg, version, base, fate)| Submission {
        pkg,
        version,
        bad_base: base == 0,
        fate,
    })
}

/// Rounds of submissions; a round shares one base and is then drained.
fn arb_script() -> impl Strategy<Value = Vec<Vec<Submission>>> {
    proptest::collection::vec(proptest::collection::vec(arb_submission(), 1..4), 1..4)
}

fn script_repo() -> Repository {
    let files: Vec<(String, String)> = (0..3)
        .flat_map(|i| {
            [
                (
                    format!("pkg{i}/BUILD"),
                    format!("library(name = \"pkg{i}\", srcs = [\"lib.rs\"])"),
                ),
                (format!("pkg{i}/lib.rs"), format!("pub fn f{i}() {{}}")),
            ]
        })
        .collect();
    Repository::init(files.iter().map(|(p, c)| (p.as_str(), c.as_str()))).unwrap()
}

fn script_recovery() -> RecoveryConfig {
    RecoveryConfig {
        retry: RetryPolicy::none(),
        max_rebuilds: MAX_REBUILDS,
        quarantine_threshold: 2,
    }
}

type Shared = Arc<Mutex<MemStorage>>;

/// The two queues a script runs through.
trait Twin: Send + Sync + 'static {
    fn service(&self) -> &SubmitQueueService;
    fn submit(&self, base: CommitId, patch: Patch) -> TicketId;
    fn step(&self, action: &StepAction) -> Option<TicketId>;
    fn depth(&self) -> usize;
}

impl Twin for SubmitQueueService {
    fn service(&self) -> &SubmitQueueService {
        self
    }
    fn submit(&self, base: CommitId, patch: Patch) -> TicketId {
        SubmitQueueService::submit(self, "dev", "change", base, patch)
    }
    fn step(&self, action: &StepAction) -> Option<TicketId> {
        self.process_next(action)
    }
    fn depth(&self) -> usize {
        self.stats().queued
    }
}

impl Twin for DurableSubmitQueue<DurableStore<Shared>> {
    fn service(&self) -> &SubmitQueueService {
        DurableSubmitQueue::service(self)
    }
    fn submit(&self, base: CommitId, patch: Patch) -> TicketId {
        DurableSubmitQueue::submit(self, "dev", "change", base, patch).unwrap()
    }
    fn step(&self, action: &StepAction) -> Option<TicketId> {
        self.process_next(action).unwrap()
    }
    fn depth(&self) -> usize {
        self.queue_depth()
    }
}

const NOT_BUILT: usize = usize::MAX;

/// Run `script` through `queue`. Returns the tickets in submission
/// order. Checks on the way that the change being built stays counted
/// as queued, and that the two depth readings agree after every step.
fn drive<Q: Twin>(queue: Arc<Q>, script: &[Vec<Submission>]) -> Vec<TicketId> {
    let fate = Arc::new(Mutex::new(Fate::Pass));
    let seen_in_flight = Arc::new(AtomicUsize::new(NOT_BUILT));
    let action: Box<StepAction> = {
        let (queue, fate, seen) = (
            Arc::clone(&queue),
            Arc::clone(&fate),
            Arc::clone(&seen_in_flight),
        );
        Box::new(move |_step, _tree| {
            seen.store(queue.service().stats().queued, Ordering::SeqCst);
            match *fate.lock().unwrap() {
                Fate::Pass => StepOutcome::Success,
                Fate::Red => StepOutcome::Failure("scripted red step".into()),
                Fate::Infra(_) => StepOutcome::InfraFailure(InfraFault {
                    kind: InfraFaultKind::WorkerCrash,
                    attempt: 1,
                }),
            }
        })
    };
    let mut tickets = Vec::new();
    for round in script {
        let head = queue.service().head();
        let submitted: Vec<_> = round
            .iter()
            .map(|s| {
                let base = if s.bad_base {
                    CommitId(ObjectId::from_raw([0xEE; 32]))
                } else {
                    head
                };
                let path = RepoPath::new(format!("pkg{}/lib.rs", s.pkg)).unwrap();
                let content = format!("pub fn f() {{ /* v{} */ }}", s.version);
                queue.submit(base, Patch::write(path, content))
            })
            .collect();
        for (ticket, s) in submitted.iter().zip(round) {
            let mut builds = 0;
            while queue.service().status(*ticket) == Some(TicketState::Queued) {
                *fate.lock().unwrap() = match s.fate {
                    Fate::Infra(n) if builds >= n => Fate::Pass,
                    fate => fate,
                };
                let depth = queue.depth();
                seen_in_flight.store(NOT_BUILT, Ordering::SeqCst);
                assert_eq!(queue.step(&action), Some(*ticket));
                builds += 1;
                let seen = seen_in_flight.load(Ordering::SeqCst);
                assert!(
                    seen == NOT_BUILT || seen == depth,
                    "{ticket} left the queue while it was built: {seen} of {depth} queued"
                );
                assert_eq!(queue.service().stats().queued, queue.depth());
            }
        }
        assert_eq!(queue.step(&action), None);
        tickets.extend(submitted);
    }
    tickets
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn event_batches_round_trip(events in proptest::collection::vec(arb_event(), 0..8)) {
        let decoded = decode_batch(&encode_batch(&events)).expect("decode");
        prop_assert_eq!(decoded, events);
    }

    #[test]
    fn state_fold_commutes_with_snapshot_at_any_cut(
        events in proptest::collection::vec(arb_event(), 0..12),
        cut in any::<u64>(),
    ) {
        // Direct fold over everything.
        let mut direct = DurableState::new();
        for ev in &events {
            direct.apply(ev);
        }
        // Fold a prefix, round-trip it through the snapshot encoding
        // (as recovery does), then fold the suffix on top.
        let k = (cut as usize) % (events.len() + 1);
        let mut prefix = DurableState::new();
        for ev in &events[..k] {
            prefix.apply(ev);
        }
        let mut resumed = DurableState::decode(&prefix.encode()).expect("state decode");
        for ev in &events[k..] {
            resumed.apply(ev);
        }
        prop_assert_eq!(&resumed, &direct);
        prop_assert_eq!(resumed.export_json(), direct.export_json());
    }

    #[test]
    fn one_event_stream_three_readers(script in arb_script(), snapshot_every in 2u64..12) {
        let memory = Arc::new(SubmitQueueService::with_recovery(
            script_repo(),
            2,
            script_recovery(),
        ));
        let storage: Shared = Arc::new(Mutex::new(MemStorage::new()));
        let config = DurableStoreConfig::with_snapshot_every(snapshot_every);
        let durable = Arc::new(
            DurableSubmitQueue::open(
                script_repo(),
                2,
                script_recovery(),
                storage.clone(),
                config.clone(),
            )
            .expect("fresh store"),
        );
        let tickets = drive(Arc::clone(&memory), &script);
        prop_assert_eq!(&drive(Arc::clone(&durable), &script), &tickets);

        // Reader one and two: the live services agree.
        for ticket in &tickets {
            prop_assert_eq!(memory.status(*ticket), durable.status(*ticket));
        }
        prop_assert_eq!(memory.stats(), durable.service().stats());
        prop_assert_eq!(memory.head(), durable.head());
        let export = durable.export_state_json();
        prop_assert_eq!(&memory.export_state_json(), &export);

        // Reader three: the journal, folded as recovery folds it.
        let (_store, recovered) = DurableStore::open(storage, config).expect("clean journal");
        let mut folded = match &recovered.snapshot {
            Some(payload) => DurableState::decode(payload).expect("snapshot decodes"),
            None => DurableState::new(),
        };
        for payload in &recovered.events {
            for event in decode_batch(payload).expect("record decodes") {
                folded.apply(&event);
            }
        }
        prop_assert_eq!(folded.export_json(), export);
    }
}
