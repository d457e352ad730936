//! `encoded_len` is computed from lengths for the chain types, not by
//! encoding; it must equal the length of the encoding, including at the
//! payload lengths where the varint length prefix grows a byte (128 and
//! 16 384).

use proptest::prelude::*;
use zugchain_blockchain::{Block, BlockHeader, LoggedRequest};
use zugchain_crypto::Digest;
use zugchain_wire::{to_bytes, Encode};

/// Both sides of the one-, two- and three-byte length prefixes.
const PAYLOAD_LENGTHS: [usize; 5] = [0, 127, 128, 16_383, 16_384];

fn request(sn: u64, origin: u64, payload_len: usize) -> LoggedRequest {
    LoggedRequest {
        sn,
        origin,
        payload: vec![sn as u8; payload_len],
    }
}

fn block_of(height: u64, requests: Vec<LoggedRequest>, time_ms: u64) -> Block {
    Block {
        header: BlockHeader {
            height,
            prev_hash: Digest::of(&height.to_le_bytes()),
            payload_hash: Block::payload_hash_of(&requests),
            first_sn: requests.first().map_or(0, |r| r.sn),
            last_sn: requests.last().map_or(0, |r| r.sn),
            time_ms,
        },
        requests,
    }
}

fn assert_exact(block: &Block) {
    for request in &block.requests {
        assert_eq!(request.encoded_len(), to_bytes(request).len());
    }
    assert_eq!(block.header.encoded_len(), to_bytes(&block.header).len());
    assert_eq!(block.encoded_len(), to_bytes(block).len());
    assert_eq!(block.encoded_size(), to_bytes(block).len());
}

#[test]
fn encoded_len_is_exact_at_every_prefix_boundary() {
    for (i, len) in PAYLOAD_LENGTHS.into_iter().enumerate() {
        assert_exact(&block_of(i as u64, vec![request(1, 0, len)], 64));
    }
    assert_exact(&block_of(
        1,
        PAYLOAD_LENGTHS
            .into_iter()
            .zip(1..)
            .map(|(len, sn)| request(sn, sn % 4, len))
            .collect(),
        64,
    ));
    // 0, 127 and 128 requests: the request count's prefix grows too.
    for count in [0u64, 127, 128] {
        assert_exact(&block_of(
            7,
            (1..=count).map(|sn| request(sn, 0, 3)).collect(),
            0,
        ));
    }
    assert_exact(&Block::genesis());
}

fn payload_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(PAYLOAD_LENGTHS[0]),
        Just(PAYLOAD_LENGTHS[1]),
        Just(PAYLOAD_LENGTHS[2]),
        Just(PAYLOAD_LENGTHS[3]),
        Just(PAYLOAD_LENGTHS[4]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any field values, any mix of the boundary payload lengths.
    #[test]
    fn encoded_len_equals_encoding_length(
        height in any::<u64>(),
        first_sn in any::<u64>(),
        origin in any::<u64>(),
        time_ms in any::<u64>(),
        lengths in proptest::collection::vec(payload_len(), 0..6),
    ) {
        let requests: Vec<LoggedRequest> = lengths
            .iter()
            .zip(0u64..)
            .map(|(&len, i)| request(first_sn.wrapping_add(i), origin, len))
            .collect();
        for request in &requests {
            prop_assert_eq!(request.encoded_len(), to_bytes(request).len());
        }
        let block = block_of(height, requests, time_ms);
        prop_assert_eq!(block.header.encoded_len(), to_bytes(&block.header).len());
        prop_assert_eq!(block.encoded_len(), to_bytes(&block).len());
    }
}
