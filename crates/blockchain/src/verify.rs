use std::fmt;

use zugchain_crypto::Digest;

use crate::Block;

/// A violation detected while verifying a chain segment.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChainViolation {
    /// The segment is empty.
    Empty,
    /// A block's `prev_hash` does not match its predecessor's hash.
    BrokenLink {
        /// Height of the block whose link is broken.
        height: u64,
    },
    /// Heights are not consecutive.
    HeightGap {
        /// Expected height.
        expected: u64,
        /// Actual height found.
        actual: u64,
    },
    /// A block's payload hash does not match its requests (tampering).
    PayloadMismatch {
        /// Height of the inconsistent block.
        height: u64,
    },
    /// The first block does not chain onto the expected base hash.
    WrongBase {
        /// The base hash the segment was expected to extend.
        expected: Digest,
        /// The `prev_hash` actually found on the first block.
        actual: Digest,
    },
    /// Sequence numbers overlap or go backwards between blocks.
    SequenceOverlap {
        /// Height of the offending block.
        height: u64,
    },
}

impl fmt::Display for ChainViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainViolation::Empty => write!(f, "chain segment is empty"),
            ChainViolation::BrokenLink { height } => {
                write!(f, "block {height} does not link to its predecessor")
            }
            ChainViolation::HeightGap { expected, actual } => {
                write!(f, "expected block height {expected}, found {actual}")
            }
            ChainViolation::PayloadMismatch { height } => {
                write!(f, "block {height} payload does not match its header")
            }
            ChainViolation::WrongBase { expected, actual } => {
                write!(
                    f,
                    "segment base {actual} does not match expected {expected}"
                )
            }
            ChainViolation::SequenceOverlap { height } => {
                write!(
                    f,
                    "block {height} overlaps its predecessor's sequence numbers"
                )
            }
        }
    }
}

impl std::error::Error for ChainViolation {}

/// Verifies a contiguous chain segment and returns the hash of its last
/// block, which the check computes anyway.
///
/// Checks, per block: payload consistency, consecutive heights, hash
/// linkage, and monotonically increasing sequence-number ranges. If
/// `base` is given, the first block's `prev_hash` must equal it — data
/// centers use this to verify exported segments against the last block
/// they already hold; replicas use it when ingesting a transferred
/// checkpoint onto a pruned chain (paper §III-D, scenario (ii)).
///
/// # Errors
///
/// The first [`ChainViolation`] encountered, scanning front to back.
pub fn verify_chain(blocks: &[Block], base: Option<Digest>) -> Result<Digest, ChainViolation> {
    let mut check = ChainCheck::new(base, None);
    let mut head = Err(ChainViolation::Empty);
    for block in blocks {
        head = Ok(check.next(block)?);
    }
    head
}

/// [`verify_chain`]'s checks, one block at a time, so a store can make
/// them as it appends.
#[derive(Debug)]
pub(crate) struct ChainCheck {
    /// The hash the first block must link to, if known.
    base_hash: Option<Digest>,
    /// The height the first block must follow, if known.
    base_height: Option<u64>,
    /// Height, hash and last sn of the block checked last.
    prev: Option<(u64, Digest, u64)>,
}

impl ChainCheck {
    pub(crate) fn new(base_hash: Option<Digest>, base_height: Option<u64>) -> Self {
        ChainCheck {
            base_hash,
            base_height,
            prev: None,
        }
    }

    /// Checks the next block of the segment and returns its hash.
    pub(crate) fn next(&mut self, block: &Block) -> Result<Digest, ChainViolation> {
        let height = block.height();
        if let (None, Some(expected)) = (self.prev, self.base_hash) {
            if block.header.prev_hash != expected {
                return Err(ChainViolation::WrongBase {
                    expected,
                    actual: block.header.prev_hash,
                });
            }
        }
        if !block.payload_is_consistent() {
            return Err(ChainViolation::PayloadMismatch { height });
        }
        let (expected_height, link) = match self.prev {
            None => (self.base_height.map(|h| h + 1), None),
            Some((prev_height, prev_hash, last_sn)) => {
                (Some(prev_height + 1), Some((prev_hash, last_sn)))
            }
        };
        if let Some(expected) = expected_height.filter(|&expected| expected != height) {
            return Err(ChainViolation::HeightGap {
                expected,
                actual: height,
            });
        }
        if let Some((prev_hash, last_sn)) = link {
            if block.header.prev_hash != prev_hash {
                return Err(ChainViolation::BrokenLink { height });
            }
            // Genesis carries sn 0..=0; real blocks start at sn ≥ 1.
            if block.header.first_sn <= last_sn && !(last_sn == 0 && block.header.first_sn == 1) {
                return Err(ChainViolation::SequenceOverlap { height });
            }
        }
        let hash = block.hash();
        self.prev = Some((height, hash, block.header.last_sn));
        Ok(hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockBuilder, LoggedRequest};

    fn chain(n_blocks: u64) -> Vec<Block> {
        let mut builder = BlockBuilder::new(2);
        let mut blocks = vec![Block::genesis()];
        for sn in 1..=n_blocks * 2 {
            if let Some(block) = builder.push(
                LoggedRequest {
                    sn,
                    origin: 0,
                    payload: vec![sn as u8],
                },
                sn * 64,
            ) {
                blocks.push(block);
            }
        }
        blocks
    }

    #[test]
    fn valid_chain_verifies() {
        let blocks = chain(5);
        assert_eq!(verify_chain(&blocks, None), Ok(blocks[5].hash()));
    }

    #[test]
    fn valid_chain_verifies_against_base() {
        let blocks = chain(3);
        // Segment starting after genesis, verified against genesis hash.
        assert_eq!(
            verify_chain(&blocks[1..], Some(blocks[0].hash())),
            Ok(blocks[3].hash())
        );
    }

    #[test]
    fn wrong_base_is_detected() {
        let blocks = chain(3);
        let err = verify_chain(&blocks[1..], Some(Digest::of(b"bogus"))).unwrap_err();
        assert!(matches!(err, ChainViolation::WrongBase { .. }));
    }

    #[test]
    fn empty_segment_is_rejected() {
        assert_eq!(verify_chain(&[], None), Err(ChainViolation::Empty));
    }

    #[test]
    fn missing_block_is_detected() {
        let mut blocks = chain(4);
        blocks.remove(2);
        let err = verify_chain(&blocks, None).unwrap_err();
        assert!(matches!(err, ChainViolation::HeightGap { .. }));
    }

    #[test]
    fn tampered_payload_is_detected() {
        let mut blocks = chain(3);
        blocks[2].requests[0].payload = vec![0xFF, 0xFF];
        assert_eq!(
            verify_chain(&blocks, None),
            Err(ChainViolation::PayloadMismatch { height: 2 })
        );
    }

    #[test]
    fn relinked_header_is_detected() {
        let mut blocks = chain(3);
        // Tamper with a payload *and* fix up the payload hash: the broken
        // hash link to the next block still exposes it.
        blocks[2].requests[0].payload = vec![0xFF, 0xFF];
        blocks[2].header.payload_hash = Block::payload_hash_of(&blocks[2].requests);
        let err = verify_chain(&blocks, None).unwrap_err();
        assert_eq!(err, ChainViolation::BrokenLink { height: 3 });
    }

    #[test]
    fn sequence_overlap_is_detected() {
        let blocks = chain(2);
        let mut overlapping = blocks.clone();
        // Forge block 2 to re-bundle block 1's sequence numbers.
        let forged_requests: Vec<LoggedRequest> = blocks[1].requests.clone();
        overlapping[2] = Block::next(2, blocks[1].hash(), forged_requests, 0);
        assert_eq!(
            verify_chain(&overlapping, None),
            Err(ChainViolation::SequenceOverlap { height: 2 })
        );
    }
}
