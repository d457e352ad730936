use std::fmt;

use zugchain_crypto::{Digest, DigestHasher};
use zugchain_wire::{
    decode_seq, encode_seq, put_varint, varint_len, Decode, Encode, Reader, WireError, Writer,
    MAX_VARINT_LEN,
};

/// One totally ordered request as logged by the ZugChain layer.
///
/// Carries the BFT sequence number and the id of the node that received
/// the request from the bus (paper Alg. 1: `LOG(req, id, sn)` — "append
/// to log, include id of origin node").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedRequest {
    /// BFT sequence number assigned by consensus.
    pub sn: u64,
    /// Id of the node that proposed/received this request.
    pub origin: u64,
    /// The request payload (a consolidated bus cycle, canonically encoded).
    pub payload: Vec<u8>,
}

/// The longest encoding of a request's fields before its payload bytes.
const REQUEST_HEAD_LEN: usize = 8 + 8 + MAX_VARINT_LEN;

impl LoggedRequest {
    /// Digest of the payload only — the identity used for duplicate
    /// filtering (content-based, independent of `sn`/`origin`).
    pub fn payload_digest(&self) -> Digest {
        Digest::of(&self.payload)
    }

    /// The encoding up to the payload bytes — `sn`, `origin` and the
    /// payload's length prefix — and how many of the buffer's bytes it
    /// uses. The encoding is this head followed by the payload.
    fn head(&self) -> ([u8; REQUEST_HEAD_LEN], usize) {
        let mut head = [0u8; REQUEST_HEAD_LEN];
        head[..8].copy_from_slice(&self.sn.to_le_bytes());
        head[8..16].copy_from_slice(&self.origin.to_le_bytes());
        let mut prefix = [0u8; MAX_VARINT_LEN];
        let prefix_len = put_varint(&mut prefix, self.payload.len() as u64);
        head[16..16 + prefix_len].copy_from_slice(&prefix[..prefix_len]);
        (head, 16 + prefix_len)
    }
}

impl Encode for LoggedRequest {
    fn encode(&self, w: &mut Writer) {
        let (head, len) = self.head();
        w.write_raw(&head[..len]);
        w.write_raw(&self.payload);
    }

    fn encoded_len(&self) -> usize {
        16 + varint_len(self.payload.len() as u64) + self.payload.len()
    }
}

impl Decode for LoggedRequest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(LoggedRequest {
            sn: r.read_u64()?,
            origin: r.read_u64()?,
            payload: r.read_bytes()?.to_vec(),
        })
    }
}

/// The header of a block: everything needed to verify chain linkage
/// without the request payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockHeader {
    /// Height in the chain; the genesis block has height 0.
    pub height: u64,
    /// Hash of the previous block ([`Digest::ZERO`] for genesis).
    pub prev_hash: Digest,
    /// Digest over the block's logged requests.
    pub payload_hash: Digest,
    /// First BFT sequence number bundled in this block (0 for genesis).
    pub first_sn: u64,
    /// Last BFT sequence number bundled in this block (0 for genesis).
    pub last_sn: u64,
    /// Bus time at block creation in milliseconds.
    pub time_ms: u64,
}

impl BlockHeader {
    /// The block hash: digest of the canonically encoded header.
    ///
    /// Because the header commits to `payload_hash`, the hash covers the
    /// full block content.
    pub fn hash(&self) -> Digest {
        Digest::of_encoded(self)
    }
}

impl Encode for BlockHeader {
    fn encode(&self, w: &mut Writer) {
        w.write_u64(self.height);
        self.prev_hash.encode(w);
        self.payload_hash.encode(w);
        w.write_u64(self.first_sn);
        w.write_u64(self.last_sn);
        w.write_u64(self.time_ms);
    }

    fn encoded_len(&self) -> usize {
        8 + 32 + 32 + 8 + 8 + 8
    }
}

impl Decode for BlockHeader {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(BlockHeader {
            height: r.read_u64()?,
            prev_hash: Digest::decode(r)?,
            payload_hash: Digest::decode(r)?,
            first_sn: r.read_u64()?,
            last_sn: r.read_u64()?,
            time_ms: r.read_u64()?,
        })
    }
}

/// A block: header plus the ordered requests it bundles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The block header.
    pub header: BlockHeader,
    /// Requests in sequence-number order.
    pub requests: Vec<LoggedRequest>,
}

impl Block {
    /// The well-known genesis block that every ZugChain deployment starts
    /// from.
    pub fn genesis() -> Self {
        Block {
            header: BlockHeader {
                height: 0,
                prev_hash: Digest::ZERO,
                payload_hash: Self::payload_hash_of(&[]),
                first_sn: 0,
                last_sn: 0,
                time_ms: 0,
            },
            requests: Vec::new(),
        }
    }

    /// Computes the payload digest over a request list: the SHA-256 of
    /// the list's canonical encoding (`encode_seq`), fed to the hash
    /// piece by piece instead of encoded into a buffer first.
    pub fn payload_hash_of(requests: &[LoggedRequest]) -> Digest {
        let mut hasher = DigestHasher::new();
        let mut count = [0u8; MAX_VARINT_LEN];
        let count_len = put_varint(&mut count, requests.len() as u64);
        hasher.update(&count[..count_len]);
        for request in requests {
            let (head, len) = request.head();
            hasher.update(&head[..len]);
            hasher.update(&request.payload);
        }
        hasher.finish()
    }

    /// Builds the successor of the block with hash `prev_hash` at
    /// `height`, bundling `requests`.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is empty or not sorted by `sn` — block
    /// creation is deterministic on ordered input by construction.
    pub fn next(
        height: u64,
        prev_hash: Digest,
        requests: Vec<LoggedRequest>,
        time_ms: u64,
    ) -> Self {
        assert!(
            !requests.is_empty(),
            "a non-genesis block bundles at least one request"
        );
        assert!(
            requests.windows(2).all(|w| w[0].sn < w[1].sn),
            "requests must be strictly ordered by sequence number"
        );
        let header = BlockHeader {
            height,
            prev_hash,
            payload_hash: Self::payload_hash_of(&requests),
            first_sn: requests.first().expect("nonempty").sn,
            last_sn: requests.last().expect("nonempty").sn,
            time_ms,
        };
        Block { header, requests }
    }

    /// The block hash (see [`BlockHeader::hash`]).
    pub fn hash(&self) -> Digest {
        self.header.hash()
    }

    /// Height accessor, for symmetry with `hash`.
    pub fn height(&self) -> u64 {
        self.header.height
    }

    /// Checks that the header's payload hash matches the actual requests.
    pub fn payload_is_consistent(&self) -> bool {
        self.header.payload_hash == Self::payload_hash_of(&self.requests)
    }

    /// Encoded size in bytes — the unit of memory and bandwidth accounting.
    pub fn encoded_size(&self) -> usize {
        self.encoded_len()
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "block #{} ({} requests, sn {}..={}, hash {})",
            self.header.height,
            self.requests.len(),
            self.header.first_sn,
            self.header.last_sn,
            self.hash().short()
        )
    }
}

impl Encode for Block {
    fn encode(&self, w: &mut Writer) {
        self.header.encode(w);
        encode_seq(&self.requests, w);
    }

    fn encoded_len(&self) -> usize {
        self.header.encoded_len()
            + varint_len(self.requests.len() as u64)
            + self
                .requests
                .iter()
                .map(LoggedRequest::encoded_len)
                .sum::<usize>()
    }
}

impl Decode for Block {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Block {
            header: BlockHeader::decode(r)?,
            requests: decode_seq(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests(range: std::ops::RangeInclusive<u64>) -> Vec<LoggedRequest> {
        range
            .map(|sn| LoggedRequest {
                sn,
                origin: 0,
                payload: vec![sn as u8; 8],
            })
            .collect()
    }

    #[test]
    fn genesis_is_stable() {
        assert_eq!(Block::genesis().hash(), Block::genesis().hash());
        assert_eq!(Block::genesis().header.prev_hash, Digest::ZERO);
        assert_eq!(Block::genesis().height(), 0);
    }

    #[test]
    fn block_hash_commits_to_payload() {
        let genesis = Block::genesis();
        let a = Block::next(1, genesis.hash(), requests(1..=3), 100);
        let mut tampered_requests = requests(1..=3);
        tampered_requests[1].payload = vec![0xFF];
        let b = Block::next(1, genesis.hash(), tampered_requests, 100);
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn block_hash_commits_to_prev() {
        let a = Block::next(1, Digest::of(b"x"), requests(1..=1), 0);
        let b = Block::next(1, Digest::of(b"y"), requests(1..=1), 0);
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn tampering_breaks_payload_consistency() {
        let mut block = Block::next(1, Digest::ZERO, requests(1..=3), 0);
        assert!(block.payload_is_consistent());
        block.requests[0].payload = vec![9, 9, 9];
        assert!(!block.payload_is_consistent());
    }

    #[test]
    #[should_panic(expected = "strictly ordered")]
    fn unordered_requests_panic() {
        let mut reqs = requests(1..=2);
        reqs.reverse();
        let _ = Block::next(1, Digest::ZERO, reqs, 0);
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn empty_block_panics() {
        let _ = Block::next(1, Digest::ZERO, vec![], 0);
    }

    #[test]
    fn block_wire_round_trip() {
        let block = Block::next(4, Digest::of(b"prev"), requests(10..=19), 640);
        let back: Block = zugchain_wire::from_bytes(&zugchain_wire::to_bytes(&block)).unwrap();
        assert_eq!(back, block);
        assert_eq!(back.hash(), block.hash());
    }

    #[test]
    fn payload_hash_is_the_hash_of_the_encoded_requests() {
        for count in [0, 1, 3, 200] {
            let requests: Vec<LoggedRequest> = (1..=count)
                .map(|sn| LoggedRequest {
                    sn,
                    origin: sn % 4,
                    payload: vec![sn as u8; (sn as usize * 37) % 300],
                })
                .collect();
            let mut w = Writer::new();
            encode_seq(&requests, &mut w);
            assert_eq!(
                Block::payload_hash_of(&requests),
                Digest::of(w.as_bytes()),
                "{count} requests"
            );
        }
    }

    #[test]
    fn sequence_range_is_recorded() {
        let block = Block::next(2, Digest::ZERO, requests(5..=9), 0);
        assert_eq!(block.header.first_sn, 5);
        assert_eq!(block.header.last_sn, 9);
    }
}
