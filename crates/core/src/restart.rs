//! The one restart rule: what a node resumes from after a power cut.
//!
//! The live clusters apply it to what a node's data directory holds, and
//! the chaos executor to its simulated disk images, so both restart a
//! node the same way.

use zugchain_blockchain::{Block, ChainStore, PrunedBase};
use zugchain_pbft::CheckpointProof;

/// Finds the newest verifiable prefix of a damaged disk image: the
/// longest chain prefix whose head is covered by a surviving stable
/// checkpoint proof. Returns the rebuilt store plus the proofs up to
/// that head, or `None` if no prefix is proof-covered. A node restarts
/// from the result through [`ZugchainNode::restart`](crate::ZugchainNode::restart).
pub fn rebuild_recovered_state(
    blocks: &[Block],
    base: Option<PrunedBase>,
    proofs: &[CheckpointProof],
) -> Option<(ChainStore, Vec<CheckpointProof>)> {
    let base_hash = match &base {
        Some(b) => b.hash,
        None => Block::genesis().hash(),
    };
    for cut in (0..=blocks.len()).rev() {
        let head_hash = if cut == 0 {
            base_hash
        } else {
            blocks[cut - 1].hash()
        };
        let Some(covered) = proofs
            .iter()
            .rposition(|p| p.checkpoint.state_digest == head_hash)
        else {
            continue;
        };
        let mut store = match &base {
            Some(b) => ChainStore::resume(b.clone()),
            None => ChainStore::new(),
        };
        store
            .extend_verified(blocks[..cut].iter().cloned())
            .expect("surviving prefix extends its own base");
        return Some((store, proofs[..=covered].to_vec()));
    }
    None
}
