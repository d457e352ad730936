//! Byte pin for what leaves the train as juridical evidence.
//!
//! From fixed keys and payloads, two blocks are recorded onto four
//! replicas' chains, one Fig. 4 export round certifies them into a data
//! center, the certified segment is ingested into a disk archive, and an
//! audit bundle is cut for the second block. Four digests are pinned:
//!
//! * the SHA-256 of that block's canonical encoding, and its block hash;
//! * the SHA-256 of the segment file (`seg-*.zas`) as the archive's
//!   `write_record` wrote it;
//! * the SHA-256 of the `.zab` bundle.
//!
//! The constants were printed by this test at the commit before block
//! encoding sizes were computed from lengths and payload hashes streamed
//! into SHA-256 (the test only uses API that commit already had), and
//! they hold unchanged after it. A change to how blocks are hashed,
//! encoded, exported, certified or archived must leave all four
//! byte-identical; if one moves, the evidence a court receives changed.
//!
//! The replicas hold different 2f+1 certificates for the same
//! checkpoint (different signer subsets), and one replica's checkpoint
//! is a block older, so the archived certificate, and with it the
//! segment and bundle bytes, also pin which reply the data center picks.

use zugchain_archive::Archive;
use zugchain_blockchain::{Block, BlockBuilder, ChainStore, LoggedRequest};
use zugchain_crypto::{Digest, KeyPair, Keystore};
use zugchain_export::{
    CertifiedSegment, DataCenter, DcAddr, DcConfig, DcEffect, DcId, ExportReplica,
    ReplicaExportConfig,
};
use zugchain_pbft::{Checkpoint, CheckpointProof, Message, NodeId};
use zugchain_wire::TrainId;

/// SHA-256 of `to_bytes(&block)` for the block at height 2 (10 requests,
/// 34 618 bytes).
const BLOCK_BYTES_SHA256: &str = "8e599c482920d0e0e417716ac746507c82cbc117200c5b77237e8351137124fb";
/// `block.hash()` of the block at height 2.
const BLOCK_HASH: &str = "d5a86654690a2e8696da36265b4d9fe31a7371ae5af20d618ba20b7599c3554f";
/// SHA-256 of the one segment file the ingest wrote (`seg-0000000000.zas`,
/// 69 682 bytes; its certificate is replica 2's, signed by 2, 3 and 0).
const SEGMENT_FILE_SHA256: &str =
    "f2f22c57309516b1152052de4fb4b1e36e63c699a53cb07699e334372debd1a2";
/// SHA-256 of the `.zab` bundle for height 2 (34 989 bytes).
const BUNDLE_SHA256: &str = "7c4938077a6a37e0e21e4203bca256217d8e14432634d5f090c8ea9dacdca94a";

const REPLICAS: usize = 4;
const QUORUM: usize = 3;
/// Payload lengths of the ten requests of each block: both sides of the
/// one- and two-byte varint length prefixes, and a few ordinary sizes.
const PAYLOAD_LENGTHS: [usize; 10] = [0, 1, 127, 128, 16_383, 16_384, 3, 1_000, 64, 255];

fn request(sn: u64) -> LoggedRequest {
    let index = (sn - 1) as usize % PAYLOAD_LENGTHS.len();
    LoggedRequest {
        sn,
        origin: sn % REPLICAS as u64,
        payload: (0..PAYLOAD_LENGTHS[index])
            .map(|i| (sn as usize * 7 + i * 13) as u8)
            .collect(),
    }
}

/// A certificate over `block` signed by `signers`, in that order.
fn certify(pairs: &[KeyPair], signers: [usize; 3], block: &Block) -> CheckpointProof {
    let checkpoint = Checkpoint {
        sn: block.header.last_sn,
        state_digest: block.hash(),
    };
    let message = zugchain_wire::to_bytes(&Message::Checkpoint(checkpoint));
    CheckpointProof {
        checkpoint,
        signatures: signers
            .iter()
            .map(|&id| (NodeId(id as u64), pairs[id].sign(&message)))
            .collect(),
    }
}

/// Records two blocks onto four chains, runs one export round, and
/// returns the two blocks, the replica keystore and the certified
/// segment the data center queued.
fn export_two_blocks() -> (Vec<Block>, Keystore, CertifiedSegment) {
    let (pairs, keystore) = Keystore::generate(REPLICAS, 0x1ED6);
    let (dc_pairs, dc_keystore) = Keystore::generate(1, 0xDC);
    let mut builder = BlockBuilder::new(10);
    let blocks: Vec<Block> = (1..=20)
        .filter_map(|sn| builder.push(request(sn), sn * 64))
        .collect();
    assert_eq!(blocks.len(), 2);

    let mut chains: Vec<ChainStore> = (0..REPLICAS).map(|_| ChainStore::new()).collect();
    for chain in &mut chains {
        for block in &blocks {
            chain.append(block.clone()).expect("recorded blocks chain");
        }
    }
    let proofs = [
        vec![certify(&pairs, [0, 1, 2], &blocks[0])],
        vec![certify(&pairs, [1, 2, 3], &blocks[1])],
        vec![certify(&pairs, [2, 3, 0], &blocks[1])],
        vec![certify(&pairs, [3, 0, 1], &blocks[1])],
    ];
    let mut replicas: Vec<ExportReplica> = (0..REPLICAS)
        .map(|r| {
            ExportReplica::new(
                NodeId(r as u64),
                pairs[r].clone(),
                dc_keystore.clone(),
                ReplicaExportConfig { delete_quorum: 1 },
            )
        })
        .collect();
    let mut dc = DataCenter::new(
        DcConfig {
            id: DcId(0),
            train: TrainId::DEFAULT,
            n_replicas: REPLICAS,
            replica_quorum: QUORUM,
            peers: vec![],
        },
        dc_pairs[0].clone(),
        keystore.clone(),
        QUORUM,
    );

    let mut effects = dc.begin_export(NodeId(1));
    while let Some(effect) = effects.pop() {
        let (targets, message) = match effect {
            DcEffect::Broadcast { message } => ((0..REPLICAS).collect::<Vec<_>>(), message),
            DcEffect::Send {
                to: DcAddr::Replica(to),
                message,
            } => (vec![to.0 as usize], message),
            _ => continue,
        };
        for r in targets {
            for reply in replicas[r].handle(message.clone(), &mut chains[r], &proofs[r]) {
                effects.extend(dc.on_replica_message(NodeId(r as u64), reply));
            }
        }
    }
    assert_eq!(dc.archive_height(), 2, "the round exported both blocks");
    assert!(
        chains.iter().all(|chain| chain.is_empty()),
        "every replica pruned"
    );
    let mut segments = dc.drain_certified_segments();
    assert_eq!(segments.len(), 1);
    (blocks, keystore, segments.remove(0))
}

#[test]
fn juridical_bytes_are_pinned() {
    let (blocks, keystore, segment) = export_two_blocks();
    let block = &blocks[1];
    let block_bytes = zugchain_wire::to_bytes(block);
    assert_eq!(
        Digest::of(&block_bytes).to_string(),
        BLOCK_BYTES_SHA256,
        "block encoding changed ({} bytes)",
        block_bytes.len()
    );
    assert_eq!(block.hash().to_string(), BLOCK_HASH, "block hash changed");

    let dir = std::env::temp_dir().join(format!("zugchain-juridical-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut archive, _) = Archive::open(&dir, keystore, QUORUM).expect("open archive");
    archive.ingest(&segment).expect("certified segment ingests");
    let segment_files: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .expect("archive directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "zas"))
        .collect();
    assert_eq!(segment_files.len(), 1, "one ingest writes one segment file");
    let segment_bytes = std::fs::read(&segment_files[0]).expect("segment file");
    assert_eq!(
        Digest::of(&segment_bytes).to_string(),
        SEGMENT_FILE_SHA256,
        "segment file changed ({} bytes)",
        segment_bytes.len()
    );

    let bundle = archive
        .audit_bundle(block.height())
        .expect("bundle for height 2");
    let bundle_bytes = bundle.to_zab_bytes();
    let bundle_path = dir.join("height-2.zab");
    bundle.write_to(&bundle_path).expect("bundle written");
    assert_eq!(
        std::fs::read(&bundle_path).expect("bundle file"),
        bundle_bytes,
        "the written bundle file is the bundle's bytes"
    );
    assert_eq!(
        Digest::of(&bundle_bytes).to_string(),
        BUNDLE_SHA256,
        "bundle changed ({} bytes)",
        bundle_bytes.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
