use zugchain_crypto::Digest;

use crate::{Block, LoggedRequest};

/// Deterministically bundles ordered requests into blocks.
///
/// Replicas create a block "once a certain threshold of ordered requests
/// has been reached" (paper §III-C). Since all correct replicas feed the
/// builder the same totally ordered requests, all produce bit-identical
/// blocks. The evaluation uses a block size of 10 requests.
///
/// # Examples
///
/// ```
/// use zugchain_blockchain::{BlockBuilder, LoggedRequest};
///
/// let mut builder = BlockBuilder::new(3);
/// assert!(builder.push(LoggedRequest { sn: 1, origin: 0, payload: vec![1] }, 64).is_none());
/// assert!(builder.push(LoggedRequest { sn: 2, origin: 1, payload: vec![2] }, 128).is_none());
/// let block = builder.push(LoggedRequest { sn: 3, origin: 0, payload: vec![3] }, 192).unwrap();
/// assert_eq!(block.requests.len(), 3);
/// assert_eq!(block.height(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct BlockBuilder {
    block_size: usize,
    pending: Vec<LoggedRequest>,
    next_height: u64,
    prev_hash: Digest,
}

impl BlockBuilder {
    /// Creates a builder chaining onto the genesis block.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(block_size: usize) -> Self {
        let genesis = Block::genesis();
        Self::resume(block_size, genesis.height(), genesis.hash())
    }

    /// Creates a builder that chains onto an existing block — used when a
    /// replica restarts from a pruned chain or a transferred checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn resume(block_size: usize, last_height: u64, last_hash: Digest) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Self {
            block_size,
            pending: Vec::new(),
            next_height: last_height + 1,
            prev_hash: last_hash,
        }
    }

    /// The configured number of requests per block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Requests buffered but not yet bundled into a block.
    pub fn pending(&self) -> &[LoggedRequest] {
        &self.pending
    }

    /// Appends the next ordered request; returns a finished block once
    /// `block_size` requests have accumulated.
    ///
    /// `time_ms` is the logical time of the decide, stamped into the block
    /// header when the block completes.
    ///
    /// # Panics
    ///
    /// Panics if `request.sn` is not greater than the last buffered
    /// sequence number — the BFT layer delivers in order.
    pub fn push(&mut self, request: LoggedRequest, time_ms: u64) -> Option<Block> {
        self.seal(request, time_ms).map(SealedBlock::into_block)
    }

    /// [`push`](Self::push) for a replica's own chain: the finished block
    /// comes as a [`SealedBlock`], which
    /// [`ChainStore::append_sealed`](crate::ChainStore::append_sealed)
    /// takes without hashing its payload a second time.
    ///
    /// # Panics
    ///
    /// As [`push`](Self::push).
    pub fn seal(&mut self, request: LoggedRequest, time_ms: u64) -> Option<SealedBlock> {
        if let Some(last) = self.pending.last() {
            assert!(
                request.sn > last.sn,
                "decides must arrive in sequence order ({} after {})",
                request.sn,
                last.sn
            );
        }
        self.pending.push(request);
        if self.pending.len() < self.block_size {
            return None;
        }
        Some(self.finish_block(time_ms))
    }

    /// Flushes buffered requests into a (possibly undersized) block.
    ///
    /// Used at shutdown or before an urgent export so that no ordered
    /// request stays outside the chain. Returns `None` if nothing is
    /// buffered.
    pub fn flush(&mut self, time_ms: u64) -> Option<Block> {
        if self.pending.is_empty() {
            return None;
        }
        Some(self.finish_block(time_ms).into_block())
    }

    fn finish_block(&mut self, time_ms: u64) -> SealedBlock {
        let requests = std::mem::take(&mut self.pending);
        let block = Block::next(self.next_height, self.prev_hash, requests, time_ms);
        let hash = block.hash();
        self.next_height += 1;
        self.prev_hash = hash;
        SealedBlock { block, hash }
    }
}

/// A block exactly as a [`BlockBuilder`] made it, with its hash.
///
/// Only a builder can create one, and it computed the header's payload
/// hash from these very requests, so the payload hash is consistent by
/// construction: [`ChainStore::append_sealed`](crate::ChainStore::append_sealed)
/// checks the block's height and link but does not re-hash its payload.
/// Blocks from anywhere else — disk, a state transfer, an export — are
/// plain [`Block`]s and go through [`ChainStore::append`](crate::ChainStore::append),
/// which does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlock {
    block: Block,
    hash: Digest,
}

impl SealedBlock {
    /// The block.
    pub fn block(&self) -> &Block {
        &self.block
    }

    /// The block's hash, computed once when it was built.
    pub fn hash(&self) -> Digest {
        self.hash
    }

    /// Unwraps the block.
    pub fn into_block(self) -> Block {
        self.block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(sn: u64) -> LoggedRequest {
        LoggedRequest {
            sn,
            origin: sn % 4,
            payload: vec![sn as u8; 16],
        }
    }

    #[test]
    fn blocks_chain_correctly() {
        let mut builder = BlockBuilder::new(2);
        assert!(builder.push(req(1), 0).is_none());
        let b1 = builder
            .push(req(2), 64)
            .expect("second push completes the block");
        assert!(builder.push(req(3), 128).is_none());
        let b2 = builder.push(req(4), 192).expect("fourth push completes");
        assert_eq!(b1.height(), 1);
        assert_eq!(b2.height(), 2);
        assert_eq!(b2.header.prev_hash, b1.hash());
        assert_eq!(b1.header.prev_hash, Block::genesis().hash());
    }

    #[test]
    fn identical_input_gives_identical_blocks() {
        let run = || {
            let mut builder = BlockBuilder::new(3);
            let mut blocks = Vec::new();
            for sn in 1..=9 {
                if let Some(block) = builder.push(req(sn), sn * 64) {
                    blocks.push(block);
                }
            }
            blocks
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert_eq!(
            a.iter().map(Block::hash).collect::<Vec<_>>(),
            b.iter().map(Block::hash).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "sequence order")]
    fn out_of_order_decide_panics() {
        let mut builder = BlockBuilder::new(10);
        builder.push(req(5), 0);
        builder.push(req(4), 0);
    }

    #[test]
    fn flush_produces_undersized_block() {
        let mut builder = BlockBuilder::new(10);
        builder.push(req(1), 0);
        builder.push(req(2), 64);
        let block = builder.flush(100).expect("pending requests flush");
        assert_eq!(block.requests.len(), 2);
        assert!(builder.flush(200).is_none());
    }

    #[test]
    fn sealed_blocks_are_the_pushed_blocks_with_their_hashes() {
        let mut pushed = BlockBuilder::new(2);
        let mut sealed = BlockBuilder::new(2);
        for sn in 1..=6 {
            let block = pushed.push(req(sn), sn * 64);
            let sealed_block = sealed.seal(req(sn), sn * 64);
            assert_eq!(block.is_some(), sealed_block.is_some());
            if let (Some(block), Some(sealed_block)) = (block, sealed_block) {
                assert_eq!(sealed_block.hash(), block.hash());
                assert_eq!(sealed_block.into_block(), block);
            }
        }
    }

    #[test]
    fn resume_continues_a_pruned_chain() {
        let mut first = BlockBuilder::new(1);
        let b1 = first.push(req(1), 0).unwrap();
        let mut resumed = BlockBuilder::resume(1, b1.height(), b1.hash());
        let b2 = resumed.push(req(2), 64).unwrap();
        assert_eq!(b2.height(), 2);
        assert_eq!(b2.header.prev_hash, b1.hash());
    }
}
