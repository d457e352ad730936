use std::fmt;

use zugchain_crypto::Digest;
use zugchain_wire::Encode;

use crate::{Block, BlockHeader, SealedBlock};

/// Errors from [`ChainStore`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChainError {
    /// The appended block does not extend the current head.
    DoesNotExtendHead {
        /// Hash of the current head.
        head: Digest,
        /// `prev_hash` of the rejected block.
        got: Digest,
    },
    /// The appended block's height is not `head + 1`.
    WrongHeight {
        /// Expected height.
        expected: u64,
        /// Height of the rejected block.
        actual: u64,
    },
    /// The block's payload hash does not match its requests.
    InconsistentPayload,
    /// A prune was requested up to a height the store does not contain.
    UnknownHeight(u64),
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::DoesNotExtendHead { head, got } => {
                write!(f, "block prev {got} does not extend head {head}")
            }
            ChainError::WrongHeight { expected, actual } => {
                write!(f, "expected height {expected}, got {actual}")
            }
            ChainError::InconsistentPayload => write!(f, "block payload does not match header"),
            ChainError::UnknownHeight(height) => write!(f, "height {height} is not in the store"),
        }
    }
}

impl std::error::Error for ChainError {}

/// The base of a pruned chain: the last exported block's identity plus the
/// evidence that the prune was authorized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrunedBase {
    /// Height of the block kept as the new chain base.
    pub height: u64,
    /// Hash of that block.
    pub hash: Digest,
    /// Opaque proof that the deletion was authorized: the canonical
    /// encoding of the data centers' signed *delete* messages (§III-D) or
    /// the on-chain joint agreement for emergency header-only retention.
    pub delete_proof: Vec<u8>,
}

/// The replica-side blockchain store.
///
/// Holds the suffix of the chain that has not yet been exported, the
/// genesis or pruned base it chains onto, and header-only stubs for blocks
/// whose payloads were discarded in an emergency (paper §III-D, error
/// scenario (v)). Tracks an estimate of resident bytes for the memory
/// accounting used in the evaluation.
///
/// # Examples
///
/// ```
/// use zugchain_blockchain::{Block, ChainStore, LoggedRequest};
///
/// let mut store = ChainStore::new();
/// let block = Block::next(
///     1,
///     Block::genesis().hash(),
///     vec![LoggedRequest { sn: 1, origin: 0, payload: vec![1, 2] }],
///     64,
/// );
/// store.append(block).unwrap();
/// assert_eq!(store.height(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ChainStore {
    /// Blocks currently resident, oldest first. The front block's
    /// `prev_hash` equals `base_hash`.
    blocks: Vec<Block>,
    /// Height of the block the resident suffix chains onto.
    base_height: u64,
    /// Hash of that block.
    base_hash: Digest,
    /// Evidence for the most recent prune, if any.
    pruned_base: Option<PrunedBase>,
    /// Header-only stubs kept during emergency memory reclamation.
    header_stubs: Vec<BlockHeader>,
    resident_bytes: usize,
}

impl ChainStore {
    /// Creates a store rooted at the genesis block.
    pub fn new() -> Self {
        let genesis = Block::genesis();
        Self {
            blocks: Vec::new(),
            base_height: genesis.height(),
            base_hash: genesis.hash(),
            pruned_base: None,
            header_stubs: Vec::new(),
            resident_bytes: genesis.encoded_size(),
        }
    }

    /// Creates a store resuming from a pruned base (e.g. after restart or
    /// state transfer).
    pub fn resume(base: PrunedBase) -> Self {
        Self {
            blocks: Vec::new(),
            base_height: base.height,
            base_hash: base.hash,
            resident_bytes: base.delete_proof.len(),
            pruned_base: Some(base),
            header_stubs: Vec::new(),
        }
    }

    /// Height of the newest block (the base if no blocks are resident).
    pub fn height(&self) -> u64 {
        self.blocks.last().map_or(self.base_height, Block::height)
    }

    /// Hash of the newest block (the base hash if no blocks are resident).
    pub fn head_hash(&self) -> Digest {
        self.blocks.last().map_or(self.base_hash, Block::hash)
    }

    /// Height and hash of the base the resident suffix chains onto.
    pub fn base(&self) -> (u64, Digest) {
        (self.base_height, self.base_hash)
    }

    /// Evidence for the most recent prune, if the chain was ever pruned.
    pub fn pruned_base(&self) -> Option<&PrunedBase> {
        self.pruned_base.as_ref()
    }

    /// Number of blocks currently resident.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` if no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Estimated resident bytes (blocks + stubs + proofs).
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// The resident blocks, oldest first.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Looks up a resident block by height.
    pub fn get(&self, height: u64) -> Option<&Block> {
        let first = self.blocks.first()?.height();
        let index = height.checked_sub(first)? as usize;
        self.blocks.get(index)
    }

    /// Returns the resident blocks in `(from, to]`, oldest first — the
    /// read range of the export protocol (`last_sn` exclusive to
    /// `curr_sn` inclusive, in block heights).
    pub fn range(&self, from_exclusive: u64, to_inclusive: u64) -> Vec<Block> {
        self.blocks
            .iter()
            .filter(|b| b.height() > from_exclusive && b.height() <= to_inclusive)
            .cloned()
            .collect()
    }

    /// Header-only stubs kept during emergency memory reclamation.
    pub fn header_stubs(&self) -> &[BlockHeader] {
        &self.header_stubs
    }

    /// Appends a block to the chain head.
    ///
    /// # Errors
    ///
    /// * [`ChainError::WrongHeight`] if the height is not `head + 1`;
    /// * [`ChainError::DoesNotExtendHead`] if the hash link is wrong;
    /// * [`ChainError::InconsistentPayload`] if the payload hash lies.
    pub fn append(&mut self, block: Block) -> Result<(), ChainError> {
        self.check_extends_head(&block)?;
        if !block.payload_is_consistent() {
            return Err(ChainError::InconsistentPayload);
        }
        self.push(block);
        Ok(())
    }

    /// Appends a block this replica's own [`BlockBuilder`](crate::BlockBuilder)
    /// just built. Its payload hash was computed from its requests when it
    /// was built, so only the height and the link are checked.
    ///
    /// # Errors
    ///
    /// * [`ChainError::WrongHeight`] if the height is not `head + 1`;
    /// * [`ChainError::DoesNotExtendHead`] if the hash link is wrong.
    pub fn append_sealed(&mut self, block: SealedBlock) -> Result<(), ChainError> {
        self.check_extends_head(block.block())?;
        self.push(block.into_block());
        Ok(())
    }

    fn check_extends_head(&self, block: &Block) -> Result<(), ChainError> {
        let expected_height = self.height() + 1;
        if block.height() != expected_height {
            return Err(ChainError::WrongHeight {
                expected: expected_height,
                actual: block.height(),
            });
        }
        let head = self.head_hash();
        if block.header.prev_hash != head {
            return Err(ChainError::DoesNotExtendHead {
                head,
                got: block.header.prev_hash,
            });
        }
        Ok(())
    }

    fn push(&mut self, block: Block) {
        self.resident_bytes += block.encoded_size();
        self.blocks.push(block);
    }

    /// Prunes all blocks up to and including `base.height`, keeping that
    /// block's identity as the new chain base (paper §III-D step ⑥:
    /// "remove the blocks up to this index, keeping the last exported
    /// block to serve as the first block for the pruned blockchain").
    ///
    /// # Errors
    ///
    /// [`ChainError::UnknownHeight`] if `base.height` is above the head;
    /// pruning below the current base is a no-op.
    pub fn prune_to(&mut self, base: PrunedBase) -> Result<usize, ChainError> {
        if base.height > self.height() {
            return Err(ChainError::UnknownHeight(base.height));
        }
        let keep_from = self
            .blocks
            .iter()
            .position(|b| b.height() > base.height)
            .unwrap_or(self.blocks.len());
        let removed = keep_from;
        for block in self.blocks.drain(..keep_from) {
            self.resident_bytes = self.resident_bytes.saturating_sub(block.encoded_size());
        }
        if base.height >= self.base_height {
            self.base_height = base.height;
            self.base_hash = base.hash;
            self.resident_bytes += base.delete_proof.len();
            self.pruned_base = Some(base);
        }
        Ok(removed)
    }

    /// Emergency memory reclamation: drops the payloads of the `count`
    /// oldest resident blocks, keeping only their headers so chain
    /// integrity remains verifiable (paper §III-D, scenario (v)).
    ///
    /// Returns the number of blocks stubbed.
    pub fn retain_headers_only(&mut self, count: usize) -> usize {
        let mut stubbed = 0;
        for _ in 0..count {
            // Never stub past the head: the head must stay appendable.
            if self.blocks.len() <= 1 {
                break;
            }
            let block = self.blocks.remove(0);
            let height = block.height();
            self.resident_bytes = self.resident_bytes.saturating_sub(block.encoded_size());
            let header = block.header;
            self.resident_bytes += header.encoded_len();
            self.header_stubs.push(header);
            stubbed += 1;
            // The suffix now chains onto the stubbed block.
            self.base_height = height;
            self.base_hash = self.header_stubs.last().expect("just pushed").hash();
        }
        stubbed
    }
}

impl Default for ChainStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LoggedRequest;

    fn block_at(height: u64, prev: Digest) -> Block {
        let first_sn = (height - 1) * 2 + 1;
        let requests = (first_sn..first_sn + 2)
            .map(|sn| LoggedRequest {
                sn,
                origin: 0,
                payload: vec![sn as u8; 32],
            })
            .collect();
        Block::next(height, prev, requests, height * 64)
    }

    fn store_with(n: u64) -> ChainStore {
        let mut store = ChainStore::new();
        let mut prev = store.head_hash();
        for height in 1..=n {
            let block = block_at(height, prev);
            prev = block.hash();
            store.append(block).unwrap();
        }
        store
    }

    #[test]
    fn append_rejects_wrong_height() {
        let mut store = store_with(2);
        let block = block_at(5, store.head_hash());
        assert!(matches!(
            store.append(block),
            Err(ChainError::WrongHeight {
                expected: 3,
                actual: 5
            })
        ));
    }

    #[test]
    fn append_rejects_broken_link() {
        let mut store = store_with(2);
        let block = block_at(3, Digest::of(b"garbage"));
        assert!(matches!(
            store.append(block),
            Err(ChainError::DoesNotExtendHead { .. })
        ));
    }

    #[test]
    fn append_rejects_tampered_payload() {
        let mut store = store_with(1);
        let mut block = block_at(2, store.head_hash());
        block.requests[0].payload = vec![0xBB];
        assert_eq!(store.append(block), Err(ChainError::InconsistentPayload));
    }

    #[test]
    fn append_rejects_a_block_whose_payload_hash_lies() {
        let mut store = store_with(2);
        let mut block = block_at(3, store.head_hash());
        block.header.payload_hash = Digest::of(b"not these requests");
        assert_eq!(store.append(block), Err(ChainError::InconsistentPayload));
        assert_eq!(store.height(), 2, "nothing appended");
    }

    #[test]
    fn range_is_exclusive_inclusive() {
        let store = store_with(5);
        let blocks = store.range(1, 4);
        let heights: Vec<u64> = blocks.iter().map(Block::height).collect();
        assert_eq!(heights, vec![2, 3, 4]);
    }

    #[test]
    fn sealed_blocks_append_without_a_payload_check_but_with_a_link_check() {
        let mut builder = crate::BlockBuilder::new(2);
        let mut store = ChainStore::new();
        let mut other = ChainStore::new();
        for sn in 1..=4 {
            let request = LoggedRequest {
                sn,
                origin: 0,
                payload: vec![sn as u8; 32],
            };
            if let Some(sealed) = builder.seal(request, sn * 64) {
                other.append(sealed.block().clone()).unwrap();
                let hash = sealed.hash();
                store.append_sealed(sealed).unwrap();
                assert_eq!(store.head_hash(), hash);
            }
        }
        assert_eq!(store.blocks(), other.blocks());
        assert_eq!(store.resident_bytes(), other.resident_bytes());
        // A sealed block that does not extend this store's head is refused.
        let mut fresh = ChainStore::new();
        let mut builder = crate::BlockBuilder::resume(1, 5, Digest::of(b"elsewhere"));
        let sealed = builder
            .seal(
                LoggedRequest {
                    sn: 99,
                    origin: 0,
                    payload: vec![1],
                },
                0,
            )
            .unwrap();
        assert!(matches!(
            fresh.append_sealed(sealed),
            Err(ChainError::WrongHeight {
                expected: 1,
                actual: 6
            })
        ));
    }

    #[test]
    fn prune_keeps_exported_block_as_base() {
        let mut store = store_with(5);
        let block3 = store.get(3).unwrap().clone();
        let removed = store
            .prune_to(PrunedBase {
                height: 3,
                hash: block3.hash(),
                delete_proof: vec![1, 2, 3],
            })
            .unwrap();
        assert_eq!(removed, 3);
        assert_eq!(store.len(), 2);
        assert_eq!(store.base(), (3, block3.hash()));
        // Appending continues seamlessly on the pruned chain.
        let mut next = block_at(6, store.head_hash());
        next.header.first_sn = 11;
        next.header.last_sn = 12;
        assert_eq!(store.height(), 5);
        let _ = next;
    }

    #[test]
    fn prune_above_head_is_rejected() {
        let mut store = store_with(2);
        let err = store
            .prune_to(PrunedBase {
                height: 9,
                hash: Digest::ZERO,
                delete_proof: vec![],
            })
            .unwrap_err();
        assert_eq!(err, ChainError::UnknownHeight(9));
    }

    #[test]
    fn prune_is_idempotent_below_base() {
        let mut store = store_with(4);
        let block2 = store.get(2).unwrap().clone();
        let base = PrunedBase {
            height: 2,
            hash: block2.hash(),
            delete_proof: vec![],
        };
        assert_eq!(store.prune_to(base.clone()).unwrap(), 2);
        assert_eq!(store.prune_to(base).unwrap(), 0);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn memory_accounting_shrinks_on_prune() {
        let mut store = store_with(10);
        let before = store.resident_bytes();
        let block5 = store.get(5).unwrap().clone();
        store
            .prune_to(PrunedBase {
                height: 5,
                hash: block5.hash(),
                delete_proof: vec![],
            })
            .unwrap();
        assert!(store.resident_bytes() < before);
    }

    #[test]
    fn header_stubs_preserve_linkage() {
        let mut store = store_with(5);
        let stubbed = store.retain_headers_only(2);
        assert_eq!(stubbed, 2);
        assert_eq!(store.header_stubs().len(), 2);
        assert_eq!(store.len(), 3);
        // The remaining front block chains onto the last stub.
        assert_eq!(
            store.blocks().first().unwrap().header.prev_hash,
            store.header_stubs().last().unwrap().hash()
        );
    }

    #[test]
    fn header_stubbing_never_consumes_the_head() {
        let mut store = store_with(2);
        let stubbed = store.retain_headers_only(10);
        assert_eq!(stubbed, 1, "head block must remain");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn get_by_height() {
        let store = store_with(3);
        assert_eq!(store.get(2).unwrap().height(), 2);
        assert!(store.get(9).is_none());
        assert!(store.get(0).is_none(), "genesis is not resident");
    }
}
