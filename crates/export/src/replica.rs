use std::collections::{BTreeMap, HashMap};

use zugchain_blockchain::{ChainStore, PrunedBase};
use zugchain_crypto::Keystore;
use zugchain_crypto::{Digest, KeyPair};
use zugchain_pbft::{CheckpointProof, NodeId};
use zugchain_wire::{encode_seq, TrainId, Writer};

use crate::{CheckpointReply, DeleteStatus, ExportMessage, SignedAck, SignedDelete};

/// Configuration of the replica-side export handler.
#[derive(Debug, Clone)]
pub struct ReplicaExportConfig {
    /// Signed deletes from distinct data centers required before pruning
    /// ("a certain, configurable number", step ⑥).
    pub delete_quorum: usize,
}

impl Default for ReplicaExportConfig {
    fn default() -> Self {
        Self { delete_quorum: 2 }
    }
}

/// The record a replica proposes through consensus before reclaiming
/// memory without an export (paper §III-D, scenario (v)): the joint
/// agreement is stored on the blockchain to show the reclamation was not
/// faulty behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmergencyPrune {
    /// Heights whose payloads will be dropped (headers retained).
    pub first_height: u64,
    /// Last height (inclusive) to stub.
    pub last_height: u64,
}

impl EmergencyPrune {
    /// Encodes the agreement as a request payload for consensus.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.write_bytes(b"zugchain-emergency-prune");
        w.write_u64(self.first_height);
        w.write_u64(self.last_height);
        w.into_bytes()
    }
}

/// The replica side of the export protocol.
///
/// Stateless with respect to the chain (the caller owns the
/// [`ChainStore`]); owns only the delete-collection state: signatures per
/// delete command, delayed deletes, and executed history.
#[derive(Debug)]
pub struct ExportReplica {
    id: NodeId,
    /// The train this replica belongs to; reads addressed to another
    /// train are ignored (its blocks belong to a different chain).
    train: TrainId,
    key: KeyPair,
    dc_keystore: Keystore,
    config: ReplicaExportConfig,
    /// Valid delete signatures collected per command.
    deletes: HashMap<(u64, Digest), BTreeMap<u64, SignedDelete>>,
    /// Deletes that arrived before their block existed (scenario (i)),
    /// keyed by height.
    delayed: BTreeMap<u64, Vec<SignedDelete>>,
    /// Highest height already pruned.
    executed_up_to: u64,
}

impl ExportReplica {
    /// Creates the handler for replica `id`.
    ///
    /// `dc_keystore` holds the data centers' public keys (step ⑤
    /// verification); `key` signs acknowledgements (step ⑦).
    pub fn new(
        id: NodeId,
        key: KeyPair,
        dc_keystore: Keystore,
        config: ReplicaExportConfig,
    ) -> Self {
        Self {
            id,
            train: TrainId::DEFAULT,
            key,
            dc_keystore,
            config,
            deletes: HashMap::new(),
            delayed: BTreeMap::new(),
            executed_up_to: 0,
        }
    }

    /// Assigns this replica to a train's replica group (builder style).
    /// Replicas created with [`new`](Self::new) serve the single-train
    /// [`TrainId::DEFAULT`] identity.
    #[must_use]
    pub fn with_train(mut self, train: TrainId) -> Self {
        self.train = train;
        self
    }

    /// The train this replica serves.
    pub fn train(&self) -> TrainId {
        self.train
    }

    /// Handles an export message, reading/mutating the node's chain and
    /// stable proofs. Returns the replies to send back to the requesting
    /// data center (acks are meant for *all* data centers — the caller
    /// broadcasts [`ExportMessage::Ack`]).
    pub fn handle(
        &mut self,
        message: ExportMessage,
        store: &mut ChainStore,
        stable_proofs: &[CheckpointProof],
    ) -> Vec<ExportMessage> {
        match message {
            ExportMessage::Read {
                train,
                last_height,
                blocks_from,
            } => {
                if train != self.train {
                    // A read for another train cannot be answered from this
                    // chain; stay silent so the data center retries against
                    // the right replica group.
                    return Vec::new();
                }
                self.on_read(last_height, blocks_from, store, stable_proofs)
            }
            ExportMessage::BlockRange {
                from_height,
                to_height,
            } => vec![ExportMessage::Blocks {
                blocks: store.range(from_height, to_height),
            }],
            ExportMessage::Delete(delete) => {
                let (_, replies) = self.process_delete(delete, store);
                replies
            }
            // Checkpoint/Blocks/Ack/DcSync are data-center-bound; a
            // replica receiving one ignores it.
            _ => Vec::new(),
        }
    }

    /// Step ②: answer a read with the latest stable checkpoint, plus the
    /// full blocks if this replica was chosen.
    fn on_read(
        &self,
        last_height: u64,
        blocks_from: NodeId,
        store: &ChainStore,
        stable_proofs: &[CheckpointProof],
    ) -> Vec<ExportMessage> {
        let latest = stable_proofs.last();
        let reply = match latest {
            None => CheckpointReply {
                proof: None,
                block_height: 0,
                block_hash: Digest::ZERO,
            },
            Some(proof) => {
                // The checkpoint digest is the hash of the block it covers;
                // locate that block to report its height. The newest stable
                // checkpoint covers the head or a block just below it, so
                // the search runs from the head down: one header hashed in
                // the common case. At most one resident block has a given
                // hash, so the direction does not change the answer.
                let digest = proof.checkpoint.state_digest;
                let block = store.blocks().iter().rev().find(|b| b.hash() == digest);
                match block {
                    Some(block) => CheckpointReply {
                        proof: Some(proof.clone()),
                        block_height: block.height(),
                        block_hash: digest,
                    },
                    // The checkpointed block was already pruned (the data
                    // center is behind our base): report the base.
                    None => {
                        let (height, hash) = store.base();
                        CheckpointReply {
                            proof: Some(proof.clone()),
                            block_height: height,
                            block_hash: hash,
                        }
                    }
                }
            }
        };
        let mut replies = vec![ExportMessage::Checkpoint(reply.clone())];
        if blocks_from == self.id && reply.proof.is_some() {
            replies.push(ExportMessage::Blocks {
                blocks: store.range(last_height, reply.block_height),
            });
        }
        replies
    }

    /// Steps ⑤–⑦: collect data-center deletes; prune and acknowledge at
    /// quorum. Returns the status and any replies.
    pub fn process_delete(
        &mut self,
        delete: SignedDelete,
        store: &mut ChainStore,
    ) -> (DeleteStatus, Vec<ExportMessage>) {
        if !delete.verify(&self.dc_keystore) {
            return (DeleteStatus::Rejected, Vec::new());
        }
        let cmd = delete.cmd;
        if cmd.height <= self.executed_up_to {
            return (DeleteStatus::AlreadyExecuted, Vec::new());
        }
        // Scenario (i): the delete references a block this replica has not
        // created yet — delay until the block exists.
        if cmd.height > store.height() {
            self.delayed.entry(cmd.height).or_default().push(delete);
            return (DeleteStatus::DelayedUntilBlockExists, Vec::new());
        }
        // The delete must match our chain: same hash at that height.
        let matches = store
            .get(cmd.height)
            .map(|b| b.hash() == cmd.hash)
            .or_else(|| Some(store.base() == (cmd.height, cmd.hash)))
            .unwrap_or(false);
        if !matches {
            return (DeleteStatus::Rejected, Vec::new());
        }

        let votes = self.deletes.entry((cmd.height, cmd.hash)).or_default();
        votes.insert(delete.dc.0, delete);
        let have = votes.len();
        let need = self.config.delete_quorum;
        if have < need {
            // Scenario (iii): without a quorum the delete is not executed.
            return (DeleteStatus::AwaitingQuorum { have, need }, Vec::new());
        }

        // Execute: prune up to the block, keep it as the new base, and
        // keep the signed deletes as the prune's authorization proof.
        let proof_bytes = {
            let mut w = Writer::new();
            let signed: Vec<SignedDelete> = votes.values().cloned().collect();
            encode_seq(&signed, &mut w);
            w.into_bytes()
        };
        let pruned = store
            .prune_to(PrunedBase {
                height: cmd.height,
                hash: cmd.hash,
                delete_proof: proof_bytes,
            })
            .expect("height <= store.height() was checked");
        self.executed_up_to = cmd.height;
        self.deletes.retain(|(height, _), _| *height > cmd.height);
        self.delayed.retain(|height, _| *height > cmd.height);

        let ack = SignedAck::sign(cmd, self.id, &self.key);
        (
            DeleteStatus::Executed { pruned },
            vec![ExportMessage::Ack(ack)],
        )
    }

    /// Re-processes delayed deletes after the chain grew (call when a new
    /// block is appended). Returns acks to broadcast, if any delete
    /// reached execution.
    pub fn on_block_appended(&mut self, store: &mut ChainStore) -> Vec<ExportMessage> {
        let ready: Vec<u64> = self
            .delayed
            .range(..=store.height())
            .map(|(height, _)| *height)
            .collect();
        let mut replies = Vec::new();
        for height in ready {
            let Some(deletes) = self.delayed.remove(&height) else {
                continue;
            };
            for delete in deletes {
                let (_, mut r) = self.process_delete(delete, store);
                replies.append(&mut r);
            }
        }
        replies
    }

    /// Scenario (v): reclaim memory without an export by dropping the
    /// payloads of the `count` oldest blocks (headers retained). Returns
    /// the consensus record the caller must order so that the joint
    /// agreement is on the blockchain, or `None` if nothing was stubbed.
    pub fn emergency_reclaim(
        &mut self,
        store: &mut ChainStore,
        count: usize,
    ) -> Option<EmergencyPrune> {
        let first = store.blocks().first()?.height();
        let stubbed = store.retain_headers_only(count);
        if stubbed == 0 {
            return None;
        }
        Some(EmergencyPrune {
            first_height: first,
            last_height: first + stubbed as u64 - 1,
        })
    }

    /// Highest height this replica has pruned.
    pub fn executed_up_to(&self) -> u64 {
        self.executed_up_to
    }

    /// Number of delete commands still awaiting quorum or their block.
    pub fn pending_deletes(&self) -> usize {
        self.deletes.len() + self.delayed.values().map(Vec::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DcId, DeleteCmd};
    use zugchain_blockchain::{Block, BlockBuilder, LoggedRequest};
    use zugchain_crypto::Keystore;

    fn chain_of(n: u64, store: &mut ChainStore) -> Vec<Block> {
        let mut builder = BlockBuilder::new(2);
        let mut blocks = Vec::new();
        for sn in 1..=n * 2 {
            if let Some(block) = builder.push(
                LoggedRequest {
                    sn,
                    origin: 0,
                    payload: vec![sn as u8; 16],
                },
                sn * 64,
            ) {
                store.append(block.clone()).unwrap();
                blocks.push(block);
            }
        }
        blocks
    }

    fn setup() -> (
        ExportReplica,
        ChainStore,
        Vec<Block>,
        Vec<zugchain_crypto::KeyPair>,
        Keystore,
    ) {
        let (node_pairs, _) = Keystore::generate(4, 10);
        let (dc_pairs, dc_keystore) = Keystore::generate(3, 20);
        let replica = ExportReplica::new(
            NodeId(1),
            node_pairs[1].clone(),
            dc_keystore.clone(),
            ReplicaExportConfig { delete_quorum: 2 },
        );
        let mut store = ChainStore::new();
        let blocks = chain_of(5, &mut store);
        (replica, store, blocks, dc_pairs, dc_keystore)
    }

    #[test]
    fn read_replies_with_latest_checkpoint_and_blocks_if_chosen() {
        let (mut replica, mut store, blocks, _, _) = setup();
        use zugchain_pbft::Checkpoint;
        let proof = CheckpointProof {
            checkpoint: Checkpoint {
                sn: blocks[2].header.last_sn,
                state_digest: blocks[2].hash(),
            },
            signatures: vec![],
        };
        let replies = replica.handle(
            ExportMessage::Read {
                train: TrainId::DEFAULT,
                last_height: 0,
                blocks_from: NodeId(1),
            },
            &mut store,
            std::slice::from_ref(&proof),
        );
        assert_eq!(replies.len(), 2);
        let ExportMessage::Checkpoint(reply) = &replies[0] else {
            panic!("first reply is the checkpoint");
        };
        assert_eq!(reply.block_height, 3);
        assert_eq!(reply.proof.as_ref(), Some(&proof));
        let ExportMessage::Blocks { blocks: sent } = &replies[1] else {
            panic!("second reply carries blocks");
        };
        assert_eq!(sent.len(), 3, "blocks 1..=3");
    }

    #[test]
    fn read_behind_the_head_reports_the_checkpointed_block() {
        let (mut replica, mut store, blocks, dc_pairs, _) = setup();
        use zugchain_pbft::Checkpoint;
        let proof_of = |block: &Block| CheckpointProof {
            checkpoint: Checkpoint {
                sn: block.header.last_sn,
                state_digest: block.hash(),
            },
            signatures: vec![],
        };
        let read = |replica: &mut ExportReplica, store: &mut ChainStore, proofs: &[_]| {
            let replies = replica.handle(
                ExportMessage::Read {
                    train: TrainId::DEFAULT,
                    last_height: 0,
                    blocks_from: NodeId(3),
                },
                store,
                proofs,
            );
            let ExportMessage::Checkpoint(reply) = &replies[0] else {
                panic!("first reply is the checkpoint");
            };
            (reply.block_height, reply.block_hash)
        };
        // The newest of several stable proofs covers block 3 of 5.
        let proofs = [proof_of(&blocks[0]), proof_of(&blocks[2])];
        assert_eq!(
            read(&mut replica, &mut store, &proofs),
            (3, blocks[2].hash())
        );
        // Once block 3 is pruned away (the base is now block 4), the
        // reply reports the base, as before.
        let cmd = DeleteCmd {
            height: 4,
            hash: blocks[3].hash(),
        };
        for dc in 0..2u64 {
            replica.process_delete(
                SignedDelete::sign(cmd, DcId(dc), &dc_pairs[dc as usize]),
                &mut store,
            );
        }
        assert_eq!(store.base(), (4, blocks[3].hash()));
        assert_eq!(
            read(&mut replica, &mut store, &proofs),
            (4, blocks[3].hash())
        );
    }

    #[test]
    fn read_on_unchosen_replica_sends_no_blocks() {
        let (mut replica, mut store, blocks, _, _) = setup();
        use zugchain_pbft::Checkpoint;
        let proof = CheckpointProof {
            checkpoint: Checkpoint {
                sn: blocks[0].header.last_sn,
                state_digest: blocks[0].hash(),
            },
            signatures: vec![],
        };
        let replies = replica.handle(
            ExportMessage::Read {
                train: TrainId::DEFAULT,
                last_height: 0,
                blocks_from: NodeId(3),
            },
            &mut store,
            &[proof],
        );
        assert_eq!(replies.len(), 1);
        assert!(matches!(replies[0], ExportMessage::Checkpoint(_)));
    }

    #[test]
    fn read_for_another_train_is_ignored() {
        let (mut replica, mut store, blocks, _, _) = setup();
        use zugchain_pbft::Checkpoint;
        let proof = CheckpointProof {
            checkpoint: Checkpoint {
                sn: blocks[2].header.last_sn,
                state_digest: blocks[2].hash(),
            },
            signatures: vec![],
        };
        let replies = replica.handle(
            ExportMessage::Read {
                train: TrainId(42),
                last_height: 0,
                blocks_from: NodeId(1),
            },
            &mut store,
            &[proof],
        );
        assert!(replies.is_empty(), "foreign train's read answered");
    }

    #[test]
    fn delete_quorum_prunes_and_acks() {
        let (mut replica, mut store, blocks, dc_pairs, _) = setup();
        let cmd = DeleteCmd {
            height: 3,
            hash: blocks[2].hash(),
        };
        let (status, _) =
            replica.process_delete(SignedDelete::sign(cmd, DcId(0), &dc_pairs[0]), &mut store);
        assert_eq!(status, DeleteStatus::AwaitingQuorum { have: 1, need: 2 });
        assert_eq!(store.len(), 5, "no pruning before quorum");

        let (status, replies) =
            replica.process_delete(SignedDelete::sign(cmd, DcId(2), &dc_pairs[2]), &mut store);
        assert_eq!(status, DeleteStatus::Executed { pruned: 3 });
        assert_eq!(store.len(), 2);
        assert_eq!(store.base(), (3, blocks[2].hash()));
        assert_eq!(replies.len(), 1);
        let ExportMessage::Ack(ack) = &replies[0] else {
            panic!("ack expected");
        };
        assert_eq!(ack.cmd, cmd);
        assert_eq!(ack.node, NodeId(1));
    }

    #[test]
    fn duplicate_dc_signature_does_not_reach_quorum() {
        let (mut replica, mut store, blocks, dc_pairs, _) = setup();
        let cmd = DeleteCmd {
            height: 2,
            hash: blocks[1].hash(),
        };
        let delete = SignedDelete::sign(cmd, DcId(0), &dc_pairs[0]);
        let (status1, _) = replica.process_delete(delete.clone(), &mut store);
        let (status2, _) = replica.process_delete(delete, &mut store);
        assert_eq!(status1, DeleteStatus::AwaitingQuorum { have: 1, need: 2 });
        assert_eq!(status2, DeleteStatus::AwaitingQuorum { have: 1, need: 2 });
    }

    #[test]
    fn forged_delete_is_rejected() {
        let (mut replica, mut store, blocks, dc_pairs, _) = setup();
        let cmd = DeleteCmd {
            height: 2,
            hash: blocks[1].hash(),
        };
        // DC 0's command signed with DC 1's key.
        let mut forged = SignedDelete::sign(cmd, DcId(0), &dc_pairs[1]);
        forged.dc = DcId(0);
        let (status, _) = replica.process_delete(forged, &mut store);
        assert_eq!(status, DeleteStatus::Rejected);
    }

    #[test]
    fn delete_with_wrong_hash_is_rejected() {
        let (mut replica, mut store, _, dc_pairs, _) = setup();
        let cmd = DeleteCmd {
            height: 2,
            hash: Digest::of(b"a different chain"),
        };
        let (status, _) =
            replica.process_delete(SignedDelete::sign(cmd, DcId(0), &dc_pairs[0]), &mut store);
        assert_eq!(status, DeleteStatus::Rejected);
    }

    #[test]
    fn early_delete_is_delayed_until_block_exists() {
        let (mut replica, mut store, _, dc_pairs, _) = setup();
        // Height 9 does not exist yet (store has 5 blocks).
        let future_hash = Digest::of(b"future");
        let cmd = DeleteCmd {
            height: 9,
            hash: future_hash,
        };
        for dc in 0..2u64 {
            let (status, _) = replica.process_delete(
                SignedDelete::sign(cmd, DcId(dc), &dc_pairs[dc as usize]),
                &mut store,
            );
            assert_eq!(status, DeleteStatus::DelayedUntilBlockExists);
        }
        assert_eq!(replica.pending_deletes(), 2);
        assert_eq!(store.len(), 5, "nothing pruned early");
    }

    #[test]
    fn delayed_delete_executes_when_chain_catches_up() {
        let (mut replica, mut store, _, dc_pairs, _) = setup();
        // Build what blocks 6 and 7 will look like, issue deletes for 6,
        // then append and replay.
        let mut builder = BlockBuilder::new(2);
        // Recreate the same chain the store has (block size 2, 5 blocks).
        let mut all = Vec::new();
        for sn in 1..=14u64 {
            if let Some(block) = builder.push(
                LoggedRequest {
                    sn,
                    origin: 0,
                    payload: vec![sn as u8; 16],
                },
                sn * 64,
            ) {
                all.push(block);
            }
        }
        let block6 = all[5].clone();
        let cmd = DeleteCmd {
            height: 6,
            hash: block6.hash(),
        };
        for dc in 0..2u64 {
            let (status, _) = replica.process_delete(
                SignedDelete::sign(cmd, DcId(dc), &dc_pairs[dc as usize]),
                &mut store,
            );
            assert_eq!(status, DeleteStatus::DelayedUntilBlockExists);
        }
        store.append(block6).unwrap();
        let replies = replica.on_block_appended(&mut store);
        assert_eq!(replies.len(), 1, "ack after delayed execution");
        assert_eq!(store.base().0, 6);
        assert_eq!(replica.executed_up_to(), 6);
    }

    #[test]
    fn emergency_reclaim_stubs_headers_and_produces_record() {
        let (mut replica, mut store, _, _, _) = setup();
        let before = store.resident_bytes();
        let record = replica.emergency_reclaim(&mut store, 2).expect("stubbed");
        assert_eq!(
            record,
            EmergencyPrune {
                first_height: 1,
                last_height: 2
            }
        );
        assert!(store.resident_bytes() < before);
        assert_eq!(store.header_stubs().len(), 2);
        let payload = record.to_payload();
        assert!(!payload.is_empty());
    }

    #[test]
    fn executed_delete_is_idempotent() {
        let (mut replica, mut store, blocks, dc_pairs, _) = setup();
        let cmd = DeleteCmd {
            height: 2,
            hash: blocks[1].hash(),
        };
        for dc in 0..2u64 {
            replica.process_delete(
                SignedDelete::sign(cmd, DcId(dc), &dc_pairs[dc as usize]),
                &mut store,
            );
        }
        let (status, _) =
            replica.process_delete(SignedDelete::sign(cmd, DcId(1), &dc_pairs[1]), &mut store);
        assert_eq!(status, DeleteStatus::AlreadyExecuted);
    }
}
