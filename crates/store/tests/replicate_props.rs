//! Property tests for WAL shipping and fenced promotion: any prefix of
//! shipped batches must replay to a valid (prefix-exact) replica state,
//! any truncation or bit flip of a ship frame must be refused as
//! corruption, and arbitrary interleavings of leader crashes and
//! coordinated promotions must never yield two leaders with the same
//! epoch whose appends are accepted.

use proptest::prelude::*;
use sq_store::{
    journal, AckMode, CrashPlan, DurableStore, DurableStoreConfig, Follower, Leader, MemStorage,
    ReplicationConfig, ShipBatch, StoreError,
};
use std::sync::{Arc, Mutex};

type Shared = Arc<Mutex<MemStorage>>;

fn fresh() -> Shared {
    Arc::new(Mutex::new(MemStorage::with_crashes(CrashPlan::none())))
}

fn store_cfg() -> DurableStoreConfig {
    DurableStoreConfig {
        snapshot_every: u64::MAX,
    }
}

fn repl_cfg() -> ReplicationConfig {
    ReplicationConfig {
        ack_mode: AckMode::Quorum,
    }
}

/// Replay a replica's journal from scratch and return the payloads.
fn replayed(storage: &Shared) -> Vec<Vec<u8>> {
    let (_, rec) = DurableStore::open(storage.clone(), store_cfg()).expect("reopen");
    rec.events
}

/// Arbitrary payloads partitioned into batches at arbitrary points.
fn arb_batched_payloads() -> impl Strategy<Value = Vec<Vec<Vec<u8>>>> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 1..6),
        1..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Shipping is prefix-closed: a follower that received only the
    /// first `k` batches of a stream holds exactly the payloads of
    /// those batches, survives reopen byte-identically, and keeps
    /// accepting the remaining batches afterwards.
    #[test]
    fn any_prefix_of_shipped_batches_replays_to_a_valid_state(
        batches in arb_batched_payloads(),
        k_seed in any::<u64>(),
    ) {
        // Frame the payload batches as contiguous-LSN ship batches.
        let mut lsn = 0u64;
        let frames: Vec<ShipBatch> = batches
            .iter()
            .map(|b| {
                let records = b
                    .iter()
                    .map(|p| {
                        lsn += 1;
                        journal::Record { lsn, payload: p.clone() }
                    })
                    .collect();
                ShipBatch::new(1, records)
            })
            .collect();
        let k = (k_seed as usize) % (frames.len() + 1);

        let storage = fresh();
        let (mut follower, _) =
            Follower::open(storage.clone(), store_cfg()).expect("open");
        for frame in &frames[..k] {
            follower.append_batch(frame).expect("apply prefix");
        }
        let expected: Vec<Vec<u8>> =
            batches[..k].iter().flatten().cloned().collect();
        prop_assert_eq!(follower.durable_lsn(), expected.len() as u64);
        drop(follower);
        prop_assert_eq!(replayed(&storage), expected.clone());

        // The prefix is a valid resume point: the rest still applies.
        let (mut follower, _) =
            Follower::open(storage.clone(), store_cfg()).expect("reopen");
        for frame in &frames[k..] {
            follower.append_batch(frame).expect("apply suffix");
        }
        drop(follower);
        let all: Vec<Vec<u8>> = batches.iter().flatten().cloned().collect();
        prop_assert_eq!(replayed(&storage), all);
    }

    /// A damaged frame — truncated anywhere, or with any single bit
    /// flipped — must be refused outright, never partially applied or
    /// misread as a shorter valid batch.
    #[test]
    fn truncated_or_bit_flipped_frames_are_refused(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 1..6),
        first_lsn in 1u64..1000,
        epoch in 1u64..100,
        pos in any::<u64>(),
        bit in 0u8..8,
        chop in any::<u64>(),
    ) {
        let records = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| journal::Record { lsn: first_lsn + i as u64, payload: p.clone() })
            .collect();
        let frame = ShipBatch::new(epoch, records).encode();
        prop_assert_eq!(ShipBatch::decode(&frame).expect("intact").first_lsn, first_lsn);

        let mut flipped = frame.clone();
        let byte = (pos as usize) % flipped.len();
        flipped[byte] ^= 1 << bit;
        let err = ShipBatch::decode(&flipped).unwrap_err();
        prop_assert!(matches!(err, StoreError::CorruptShip { .. }), "flip: got {err}");

        let cut = (chop as usize) % frame.len(); // strictly shorter
        let err = ShipBatch::decode(&frame[..cut]).unwrap_err();
        prop_assert!(matches!(err, StoreError::CorruptShip { .. }), "chop: got {err}");
    }

    /// Coordinated failover safety: across an arbitrary interleaving of
    /// leader crashes and promotions (fencing above the cluster-max
    /// epoch), claimed epochs are strictly increasing — no two leaders
    /// ever share one — every deposed leader's appends are refused
    /// once a successor exists, and all live replicas converge on the
    /// surviving leader's exact payload stream.
    #[test]
    fn interleaved_crash_promote_sequences_never_double_accept(
        script in proptest::collection::vec((0usize..3, 1usize..4), 1..6),
    ) {
        let cluster: Vec<Shared> = (0..3).map(|_| fresh()).collect();
        let (mut leader, _) =
            Leader::open(cluster[0].clone(), store_cfg(), repl_cfg()).expect("open");
        let mut leader_at = 0usize;
        for (i, s) in cluster.iter().enumerate() {
            if i != leader_at {
                leader.attach_follower(s.clone(), store_cfg()).expect("attach");
            }
        }
        let mut epochs = vec![leader.epoch()];
        let mut next_payload = 0u32;

        for (target, n_appends) in script {
            // The old leader "crashes": its handle survives as a zombie
            // that still owns its local medium (a partitioned stale
            // leader) and will try to keep serving below.
            let target = if target == leader_at { (target + 1) % 3 } else { target };
            let zombie_at = leader_at;
            let mut zombie = leader;

            // Coordinated promotion: fence above the cluster-max epoch
            // of the replicas reachable without the zombie's medium.
            let cluster_epoch = cluster
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != zombie_at)
                .map(|(_, s)| {
                    Follower::open(s.clone(), store_cfg())
                        .expect("inspect")
                        .0
                        .epoch()
                })
                .max()
                .unwrap();
            let (mut f, _) =
                Follower::open(cluster[target].clone(), store_cfg()).expect("open");
            let claimed = f.promote_to(cluster_epoch + 1).expect("promote");
            drop(f);
            prop_assert!(claimed > *epochs.last().unwrap(), "epochs must strictly increase");
            epochs.push(claimed);

            let (next, _) =
                Leader::open(cluster[target].clone(), store_cfg(), repl_cfg()).expect("reopen");
            prop_assert_eq!(next.epoch(), claimed);
            leader = next;
            leader_at = target;
            let third = (0..3).find(|i| *i != leader_at && *i != zombie_at).unwrap();
            leader
                .attach_follower(cluster[third].clone(), store_cfg())
                .expect("reattach survivor");

            // The stale leader tries to keep serving: its first ship
            // hits a replica that has seen the new epoch and is fenced
            // — the append is refused, not acked into a dead timeline.
            let err = sq_store::Wal::append(&mut zombie, b"stale").unwrap_err();
            prop_assert!(
                matches!(err, StoreError::Fenced { .. }),
                "zombie epoch {} got {err}",
                zombie.epoch()
            );
            // Once fenced, it stays fenced.
            let err = sq_store::Wal::append(&mut zombie, b"stale again").unwrap_err();
            prop_assert!(matches!(err, StoreError::Fenced { .. }));

            // The zombie process dies for real; only then does its
            // medium rejoin the cluster (resync discards the divergent
            // unacked tail and adopts the new epoch).
            drop(zombie);
            leader
                .attach_follower(cluster[zombie_at].clone(), store_cfg())
                .expect("reattach deposed");

            for _ in 0..n_appends {
                next_payload += 1;
                sq_store::Wal::append(&mut leader, format!("r{next_payload}").as_bytes())
                    .expect("current leader appends");
            }
        }

        // No two leaders ever claimed the same epoch.
        let mut unique = epochs.clone();
        unique.dedup();
        prop_assert_eq!(unique.len(), epochs.len());

        // Every replica converged on the survivor's exact stream.
        let reference = replayed(&cluster[leader_at]);
        drop(leader);
        for s in &cluster {
            prop_assert_eq!(&replayed(s), &reference);
        }
    }
}
