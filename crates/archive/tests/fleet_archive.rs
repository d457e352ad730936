//! Fleet-archive integration: per-train shards ingest independently,
//! cross-train contamination is refused at every boundary (ingest,
//! recovery, audit), and fleet-wide queries route through the cross
//! index.

mod common;

use zugchain_archive::{FleetArchive, IngestError, IngestLock};
use zugchain_crypto::Keystore;
use zugchain_wire::TrainId;

use common::{certified_chain_for_train, keys, QUORUM};

#[test]
fn shards_ingest_and_query_independently() {
    let (pairs, keystore) = keys();
    let fleet = FleetArchive::in_memory(QUORUM);
    let trains = [TrainId(1), TrainId(2), TrainId(3)];
    for train in trains {
        fleet.register_train(train, keystore.clone()).unwrap();
        for certified in certified_chain_for_train(train, &pairs, 2, 3) {
            fleet.ingest(&certified).unwrap();
        }
    }
    assert_eq!(fleet.trains(), trains.to_vec());
    assert_eq!(fleet.segment_count(), 6);
    for train in trains {
        assert_eq!(fleet.segment_count_of(train), 2);
        // Identical chains per train → identical shard heads.
        assert_eq!(fleet.head_of(train), fleet.head_of(trains[0]));
    }
    // Fleet-wide time-range query returns every train's records, tagged.
    let all = fleet.requests_in(0, u64::MAX);
    assert_eq!(all.len(), 3 * 12);
    for train in trains {
        assert_eq!(all.iter().filter(|(t, ..)| *t == train).count(), 12);
    }
    let timelines = fleet.timelines_in(0, u64::MAX);
    assert_eq!(timelines.len(), 3);
    // A window covering nothing routes to no shard at all.
    assert!(fleet.trains_in(u64::MAX - 1, u64::MAX).is_empty());
}

#[test]
fn cross_train_segments_and_unknown_trains_are_refused() {
    let (pairs, keystore) = keys();
    let fleet = FleetArchive::in_memory(QUORUM);
    fleet.register_train(TrainId(1), keystore.clone()).unwrap();

    // Unregistered origin train.
    let stray = certified_chain_for_train(TrainId(9), &pairs, 1, 2);
    assert_eq!(
        fleet.ingest(&stray[0]),
        Err(IngestError::UnknownTrain { train: TrainId(9) })
    );

    // Another train's segment relabeled to a registered train fails:
    // train 9's replicas are a different keyset, so its checkpoint
    // certificate never verifies against train 1's shard.
    let (foreign_pairs, _) = Keystore::generate(4, 0x9999);
    let foreign = certified_chain_for_train(TrainId(9), &foreign_pairs, 1, 2);
    let mut relabeled = foreign[0].clone();
    relabeled.train = TrainId(1);
    assert!(matches!(
        fleet.ingest(&relabeled),
        Err(IngestError::Invalid(_))
    ));
    assert_eq!(fleet.segment_count(), 0);

    // Re-registering is refused, as is registering under a shared fleet
    // with a different keyset for the same id.
    let (_, other_keys) = Keystore::generate(4, 0xFEED);
    assert!(fleet.register_train(TrainId(1), other_keys).is_err());
}

#[test]
fn per_train_keysets_isolate_equivocating_neighbors() {
    // Train 2's replicas (a different keystore) certify a chain; train
    // 1's shard must reject it even when the segment claims train 1,
    // because the certificate never verifies against train 1's keys.
    let (pairs_1, keystore_1) = keys();
    let (pairs_2, keystore_2) = Keystore::generate(4, 0xB0B0);
    let fleet = FleetArchive::in_memory(QUORUM);
    fleet.register_train(TrainId(1), keystore_1).unwrap();
    fleet.register_train(TrainId(2), keystore_2).unwrap();

    let mut forged = certified_chain_for_train(TrainId(1), &pairs_2, 1, 2);
    assert!(matches!(
        fleet.ingest(&forged.remove(0)),
        Err(IngestError::Invalid(_))
    ));
    // The honest chains still land.
    for certified in certified_chain_for_train(TrainId(1), &pairs_1, 1, 2) {
        fleet.ingest(&certified).unwrap();
    }
    for certified in certified_chain_for_train(TrainId(2), &pairs_2, 1, 2) {
        fleet.ingest(&certified).unwrap();
    }
    assert_eq!(fleet.segment_count_of(TrainId(1)), 1);
    assert_eq!(fleet.segment_count_of(TrainId(2)), 1);
}

#[test]
fn durable_shards_recover_independently() {
    let (pairs, keystore) = keys();
    let dir = std::env::temp_dir().join(format!("zugchain-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    {
        let fleet = FleetArchive::open(&dir, QUORUM).unwrap();
        for train in [TrainId(1), TrainId(2)] {
            fleet.register_train(train, keystore.clone()).unwrap();
            for certified in certified_chain_for_train(train, &pairs, 2, 3) {
                fleet.ingest(&certified).unwrap();
            }
        }
    }

    // Corrupt train 1's second segment record; train 2's shard and a
    // cross-planted foreign record must not survive either.
    let log = |train: u64| {
        dir.join("trains")
            .join(train.to_string())
            .join("segments.zal")
    };
    let (log_1, log_2) = (
        std::fs::read(log(1)).unwrap(),
        std::fs::read(log(2)).unwrap(),
    );
    let first_record = |raw: &[u8]| 4 + u32::from_le_bytes(raw[..4].try_into().unwrap()) as usize;
    let mut raw = log_1.clone();
    let mid = first_record(&log_1) + (log_1.len() - first_record(&log_1)) / 2;
    raw[mid] ^= 0xFF;
    // Append train 2's first record to train 1's log as the next record
    // — recovery must discard it as a wrong-train record.
    raw.extend_from_slice(&log_2[..first_record(&log_2)]);
    std::fs::write(log(1), &raw).unwrap();

    let fleet = FleetArchive::open(&dir, QUORUM).unwrap();
    let report_1 = fleet.register_train(TrainId(1), keystore.clone()).unwrap();
    let report_2 = fleet.register_train(TrainId(2), keystore.clone()).unwrap();
    assert_eq!(report_1.segments_recovered, 1);
    assert_eq!(report_1.segments_discarded, vec![1, 2]);
    assert_eq!(report_2.segments_recovered, 2);
    assert!(report_2.segments_discarded.is_empty());
    assert_eq!(fleet.segment_count_of(TrainId(1)), 1);
    assert_eq!(fleet.segment_count_of(TrainId(2)), 2);
    // The cross index reflects only recovered records, and each shard
    // directory holds its log alone.
    assert_eq!(fleet.request_count(), 6 + 12);
    assert_eq!(
        std::fs::read(log(1)).unwrap(),
        &log_1[..first_record(&log_1)]
    );
    assert_eq!(std::fs::read(log(2)).unwrap(), log_2);
    for train in [1, 2] {
        let shard = dir.join("trains").join(train.to_string());
        let names: Vec<_> = std::fs::read_dir(shard)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["segments.zal"]);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn global_lock_mode_matches_per_shard_results() {
    let (pairs, keystore) = keys();
    let per_shard = FleetArchive::in_memory(QUORUM);
    let global = FleetArchive::in_memory(QUORUM).with_lock_mode(IngestLock::Global);
    assert_eq!(global.lock_mode(), IngestLock::Global);
    for fleet in [&per_shard, &global] {
        for train in [TrainId(1), TrainId(2)] {
            fleet.register_train(train, keystore.clone()).unwrap();
        }
        std::thread::scope(|scope| {
            for train in [TrainId(1), TrainId(2)] {
                let fleet = fleet.clone();
                let pairs = &pairs;
                scope.spawn(move || {
                    for certified in certified_chain_for_train(train, pairs, 3, 2) {
                        fleet.ingest(&certified).unwrap();
                    }
                });
            }
        });
    }
    assert_eq!(per_shard.segment_count(), global.segment_count());
    assert_eq!(per_shard.request_count(), global.request_count());
    assert_eq!(per_shard.head_of(TrainId(1)), global.head_of(TrainId(1)));
}

#[test]
fn fleet_audit_bundles_verify_per_train_only() {
    let (pairs, keystore) = keys();
    let (_, foreign_keys) = Keystore::generate(4, 0xD00D);
    let fleet = FleetArchive::in_memory(QUORUM);
    fleet.register_train(TrainId(7), keystore.clone()).unwrap();
    for certified in certified_chain_for_train(TrainId(7), &pairs, 1, 3) {
        fleet.ingest(&certified).unwrap();
    }
    let bundle = fleet.audit_bundle(TrainId(7), 2).expect("archived height");
    assert_eq!(bundle.train, TrainId(7));
    assert!(bundle.verify(&keystore, QUORUM).is_ok());
    // Another train's keyset never vouches for this bundle.
    assert!(bundle.verify(&foreign_keys, QUORUM).is_err());
    assert!(fleet.audit_bundle(TrainId(8), 2).is_none());
}
