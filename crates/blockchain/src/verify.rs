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
    let first = blocks.first().ok_or(ChainViolation::Empty)?;
    if let Some(expected) = base {
        if first.header.prev_hash != expected {
            return Err(ChainViolation::WrongBase {
                expected,
                actual: first.header.prev_hash,
            });
        }
    }

    let mut prev_hash: Option<Digest> = None;
    let mut prev_height = None;
    let mut prev_last_sn = None;
    for block in blocks {
        let height = block.height();
        if !block.payload_is_consistent() {
            return Err(ChainViolation::PayloadMismatch { height });
        }
        if let Some(expected) = prev_height.map(|h: u64| h + 1) {
            if height != expected {
                return Err(ChainViolation::HeightGap {
                    expected,
                    actual: height,
                });
            }
        }
        if let Some(prev) = prev_hash {
            if block.header.prev_hash != prev {
                return Err(ChainViolation::BrokenLink { height });
            }
        }
        if let Some(last_sn) = prev_last_sn {
            // Genesis carries sn 0..=0; real blocks start at sn ≥ 1.
            if block.header.first_sn <= last_sn && !(last_sn == 0 && block.header.first_sn == 1) {
                return Err(ChainViolation::SequenceOverlap { height });
            }
        }
        prev_hash = Some(block.hash());
        prev_height = Some(height);
        prev_last_sn = Some(block.header.last_sn);
    }
    Ok(prev_hash.expect("the segment is not empty"))
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
