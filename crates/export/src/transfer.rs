use std::fmt;

use zugchain_blockchain::Block;
use zugchain_blockchain::{verify_chain, ChainStore, ChainViolation, PrunedBase};
use zugchain_crypto::Keystore;
use zugchain_pbft::CheckpointProof;

use crate::SignedDelete;

/// The state package transferred to a lagging or recovering replica
/// (paper §III-D, error scenario (ii)).
///
/// Because replicas prune after export, verification cannot start at the
/// genesis block: the package therefore includes the signed deletes that
/// authorize — and cryptographically anchor — the base of the pruned
/// chain.
#[derive(Debug, Clone)]
pub struct TransferPackage {
    /// The stable checkpoint the transfer ends at.
    pub proof: CheckpointProof,
    /// Blocks from the (pruned) base up to the checkpointed block.
    pub blocks: Vec<Block>,
    /// The signed deletes anchoring the first block's predecessor, empty
    /// if the chain still starts at genesis.
    pub base_deletes: Vec<SignedDelete>,
}

/// Why a transfer package was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StateTransferError {
    /// The checkpoint proof did not verify.
    BadCheckpointProof,
    /// The chain segment is internally inconsistent.
    BadChain(ChainViolation),
    /// The last block does not match the checkpoint digest.
    CheckpointMismatch,
    /// The base is not anchored: deletes missing, unverifiable, or not
    /// matching the first block's `prev_hash`.
    UnanchoredBase,
}

impl fmt::Display for StateTransferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateTransferError::BadCheckpointProof => write!(f, "checkpoint proof does not verify"),
            StateTransferError::BadChain(v) => write!(f, "invalid chain segment: {v}"),
            StateTransferError::CheckpointMismatch => {
                write!(f, "last block does not match the checkpoint digest")
            }
            StateTransferError::UnanchoredBase => {
                write!(f, "pruned base is not anchored by signed deletes")
            }
        }
    }
}

impl std::error::Error for StateTransferError {}

/// Verifies a transfer package and installs it as the replica's chain.
///
/// Checks, in order: the 2f+1-signed checkpoint proof, the chain segment's
/// internal integrity, that the segment ends at the checkpointed block,
/// and — when the segment does not start at genesis — that its base is
/// anchored by at least `delete_quorum` valid data-center deletes for
/// exactly the first block's predecessor.
///
/// # Errors
///
/// A [`StateTransferError`] naming the first failed check; the returned
/// store is only produced when everything verifies.
pub fn install_transfer(
    package: &TransferPackage,
    replica_keystore: &Keystore,
    dc_keystore: &Keystore,
    checkpoint_quorum: usize,
    delete_quorum: usize,
) -> Result<ChainStore, StateTransferError> {
    if !package.proof.verify(replica_keystore, checkpoint_quorum) {
        return Err(StateTransferError::BadCheckpointProof);
    }
    let first = package
        .blocks
        .first()
        .ok_or(StateTransferError::BadChain(ChainViolation::Empty))?;

    let genesis = Block::genesis();
    let mut store = if first.header.prev_hash == genesis.hash() {
        ChainStore::new()
    } else {
        // Pruned chain: the base must be anchored by signed deletes for
        // the block the segment chains onto.
        let base_height = first.height() - 1;
        let base_hash = first.header.prev_hash;
        let mut distinct = std::collections::BTreeSet::new();
        for delete in &package.base_deletes {
            if delete.cmd.height == base_height
                && delete.cmd.hash == base_hash
                && delete.verify(dc_keystore)
            {
                distinct.insert(delete.dc.0);
            }
        }
        if distinct.len() < delete_quorum {
            return Err(StateTransferError::UnanchoredBase);
        }
        ChainStore::resume(PrunedBase {
            height: base_height,
            hash: base_hash,
            delete_proof: zugchain_wire::to_bytes(&{
                let mut w = zugchain_wire::Writer::new();
                zugchain_wire::encode_seq(&package.base_deletes, &mut w);
                w.into_bytes()
            }),
        })
    };

    let head_hash = verify_chain(&package.blocks, Some(first.header.prev_hash))
        .map_err(StateTransferError::BadChain)?;

    let last = package.blocks.last().expect("nonempty checked above");
    if head_hash != package.proof.checkpoint.state_digest
        || last.header.last_sn != package.proof.checkpoint.sn
    {
        return Err(StateTransferError::CheckpointMismatch);
    }

    for block in &package.blocks {
        store
            .append(block.clone())
            .map_err(|_| StateTransferError::BadChain(ChainViolation::Empty))?;
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DcId, DeleteCmd};
    use zugchain_blockchain::{BlockBuilder, LoggedRequest};
    use zugchain_pbft::{Checkpoint, NodeId};

    fn chain(n_blocks: u64) -> Vec<Block> {
        let mut builder = BlockBuilder::new(2);
        let mut blocks = Vec::new();
        for sn in 1..=n_blocks * 2 {
            if let Some(block) = builder.push(
                LoggedRequest {
                    sn,
                    origin: 0,
                    payload: vec![sn as u8; 8],
                },
                sn * 64,
            ) {
                blocks.push(block);
            }
        }
        blocks
    }

    fn proof_for(block: &Block, pairs: &[zugchain_crypto::KeyPair]) -> CheckpointProof {
        let checkpoint = Checkpoint {
            sn: block.header.last_sn,
            state_digest: block.hash(),
        };
        let message = zugchain_wire::to_bytes(&zugchain_pbft::Message::Checkpoint(checkpoint));
        CheckpointProof {
            checkpoint,
            signatures: (0..3)
                .map(|id| (NodeId(id as u64), pairs[id].sign(&message)))
                .collect(),
        }
    }

    #[test]
    fn transfer_from_genesis_installs() {
        let (pairs, keystore) = Keystore::generate(4, 80);
        let (_, dc_keystore) = Keystore::generate(2, 81);
        let blocks = chain(3);
        let package = TransferPackage {
            proof: proof_for(&blocks[2], &pairs),
            blocks: blocks.clone(),
            base_deletes: vec![],
        };
        let store = install_transfer(&package, &keystore, &dc_keystore, 3, 2).unwrap();
        assert_eq!(store.height(), 3);
        assert_eq!(store.head_hash(), blocks[2].hash());
    }

    #[test]
    fn pruned_transfer_requires_anchoring_deletes() {
        let (pairs, keystore) = Keystore::generate(4, 80);
        let (dc_pairs, dc_keystore) = Keystore::generate(2, 81);
        let blocks = chain(5);
        // Transfer blocks 3..=5; base is block 2.
        let cmd = DeleteCmd {
            height: 2,
            hash: blocks[1].hash(),
        };
        let package = TransferPackage {
            proof: proof_for(&blocks[4], &pairs),
            blocks: blocks[2..].to_vec(),
            base_deletes: vec![
                SignedDelete::sign(cmd, DcId(0), &dc_pairs[0]),
                SignedDelete::sign(cmd, DcId(1), &dc_pairs[1]),
            ],
        };
        let store = install_transfer(&package, &keystore, &dc_keystore, 3, 2).unwrap();
        assert_eq!(store.base(), (2, blocks[1].hash()));
        assert_eq!(store.height(), 5);

        // Without the deletes the base is unanchored.
        let unanchored = TransferPackage {
            base_deletes: vec![],
            ..package
        };
        assert_eq!(
            install_transfer(&unanchored, &keystore, &dc_keystore, 3, 2).unwrap_err(),
            StateTransferError::UnanchoredBase
        );
    }

    #[test]
    fn tampered_segment_is_rejected() {
        let (pairs, keystore) = Keystore::generate(4, 80);
        let (_, dc_keystore) = Keystore::generate(2, 81);
        let mut blocks = chain(3);
        let proof = proof_for(&blocks[2], &pairs);
        blocks[1].requests[0].payload = vec![0xAB];
        let package = TransferPackage {
            proof,
            blocks,
            base_deletes: vec![],
        };
        assert!(matches!(
            install_transfer(&package, &keystore, &dc_keystore, 3, 2),
            Err(StateTransferError::BadChain(_))
        ));
    }

    #[test]
    fn checkpoint_mismatch_is_rejected() {
        let (pairs, keystore) = Keystore::generate(4, 80);
        let (_, dc_keystore) = Keystore::generate(2, 81);
        let blocks = chain(3);
        // The proof certifies block 2 but the segment ends at block 3.
        let package = TransferPackage {
            proof: proof_for(&blocks[1], &pairs),
            blocks: blocks.clone(),
            base_deletes: vec![],
        };
        assert_eq!(
            install_transfer(&package, &keystore, &dc_keystore, 3, 2).unwrap_err(),
            StateTransferError::CheckpointMismatch
        );
    }

    #[test]
    fn underquorum_proof_is_rejected() {
        let (pairs, keystore) = Keystore::generate(4, 80);
        let (_, dc_keystore) = Keystore::generate(2, 81);
        let blocks = chain(2);
        let mut proof = proof_for(&blocks[1], &pairs);
        proof.signatures.truncate(2);
        let package = TransferPackage {
            proof,
            blocks,
            base_deletes: vec![],
        };
        assert_eq!(
            install_transfer(&package, &keystore, &dc_keystore, 3, 2).unwrap_err(),
            StateTransferError::BadCheckpointProof
        );
    }
}
