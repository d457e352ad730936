//! Property tests for batch signature verification: the outcome of
//! [`verify_batch`] is a pure function of the *set* of items — it must
//! not depend on the order the items are presented in. Whatever mix of
//! valid and corrupted signatures the generator produces, every
//! permutation must flag exactly the corrupted items.

use proptest::prelude::*;
use zugchain_crypto::{verify_batch, BatchItem, KeyPair};

/// Builds `n` items from independently seeded keypairs; items whose
/// index is in `corrupt` get a signature over different bytes than the
/// message carried, so exactly those indices must come back invalid.
fn build_items(n: usize, seed: u64, corrupt: &[bool]) -> (Vec<BatchItem>, Vec<usize>) {
    let mut items = Vec::with_capacity(n);
    let mut expected_invalid = Vec::new();
    for index in 0..n {
        let key = KeyPair::from_seed(seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let message = format!("batch item {index} of {n} (seed {seed})").into_bytes();
        let bad = corrupt.get(index).copied().unwrap_or(false);
        let signature = if bad {
            key.sign(b"a different message entirely")
        } else {
            key.sign(&message)
        };
        if bad {
            expected_invalid.push(index);
        }
        items.push((key.public_key(), message, signature));
    }
    (items, expected_invalid)
}

/// Applies a deterministic permutation driven by `order_seed` and
/// returns (shuffled items, position of original index i in the
/// shuffled slice).
fn shuffle(items: &[BatchItem], order_seed: u64) -> (Vec<BatchItem>, Vec<usize>) {
    let n = items.len();
    let mut order: Vec<usize> = (0..n).collect();
    // Fisher–Yates with a splitmix-style stream, so the permutation is
    // reproducible from the seed alone.
    let mut state = order_seed;
    for i in (1..n).rev() {
        state = state
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let j = (state >> 16) as usize % (i + 1);
        order.swap(i, j);
    }
    let shuffled: Vec<BatchItem> = order.iter().map(|&i| items[i].clone()).collect();
    let mut position_of = vec![0usize; n];
    for (position, &original) in order.iter().enumerate() {
        position_of[original] = position;
    }
    (shuffled, position_of)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn verify_batch_is_worker_count_and_order_independent(
        seed in any::<u64>(),
        n in 0usize..20,
        corrupt in proptest::collection::vec(any::<bool>(), 20..21),
        order_seed in any::<u64>(),
    ) {
        let (items, expected_invalid) = build_items(n, seed, &corrupt);
        let (shuffled, position_of) = shuffle(&items, order_seed);

        let outcome = verify_batch(&items);
        prop_assert_eq!(
            outcome.invalid(),
            &expected_invalid[..],
            "invalid set in presentation order"
        );
        prop_assert_eq!(outcome.all_valid(), expected_invalid.is_empty());

        // The same items shuffled: the invalid *positions* move with the
        // permutation, the invalid *items* are identical.
        let shuffled_outcome = verify_batch(&shuffled);
        let mut expected_shuffled: Vec<usize> = expected_invalid
            .iter()
            .map(|&original| position_of[original])
            .collect();
        expected_shuffled.sort_unstable();
        prop_assert_eq!(
            shuffled_outcome.invalid(),
            &expected_shuffled[..],
            "invalid set under permutation"
        );
    }
}
