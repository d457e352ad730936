//! Verification of a batch of signatures with a per-item answer.
//!
//! Consensus verifies the view-change votes inside a NewView as one
//! batch. [`verify_batch`] checks every `(public key, message,
//! signature)` item on the calling thread and reports failures by input
//! index in ascending order, so the [`BatchOutcome`] depends only on the
//! items. At the deployment shape (n ≤ 7, so at most 2f+1 = 5 votes) a
//! batch is a few microseconds of hashing, less than handing it to
//! another thread would cost.
//!
//! The all-or-nothing answer is [`BatchOutcome::all_valid`]; callers that
//! need per-item fallback (drop the one bad vote, keep the rest) read
//! [`BatchOutcome::invalid`].

use crate::{PublicKey, Signature};

/// One verification work item: `(signer, message bytes, signature)`.
pub type BatchItem = (PublicKey, Vec<u8>, Signature);

/// The deterministic result of a batch verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    invalid: Vec<usize>,
}

impl BatchOutcome {
    /// `true` when every item in the batch verified.
    pub fn all_valid(&self) -> bool {
        self.invalid.is_empty()
    }

    /// Indices (into the input slice) of the items that failed, ascending.
    pub fn invalid(&self) -> &[usize] {
        &self.invalid
    }

    /// Whether the item at `index` verified.
    pub fn is_valid(&self, index: usize) -> bool {
        self.invalid.binary_search(&index).is_err()
    }
}

/// Verifies every item, returning which indices failed.
pub fn verify_batch(items: &[BatchItem]) -> BatchOutcome {
    let invalid = items
        .iter()
        .enumerate()
        .filter(|(_, (key, message, signature))| key.verify(message, signature).is_err())
        .map(|(i, _)| i)
        .collect();
    BatchOutcome { invalid }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KeyPair;

    fn items(n: usize, corrupt: &[usize]) -> Vec<BatchItem> {
        (0..n)
            .map(|i| {
                let key = KeyPair::from_seed(i as u64);
                let message = format!("vote {i}").into_bytes();
                let mut signature = key.sign(&message);
                if corrupt.contains(&i) {
                    let mut bytes = signature.to_bytes();
                    bytes[0] ^= 0xff;
                    signature = crate::Signature::from_bytes(&bytes);
                }
                (key.public_key(), message, signature)
            })
            .collect()
    }

    #[test]
    fn empty_batch_is_valid() {
        assert!(verify_batch(&[]).all_valid());
    }

    #[test]
    fn all_valid_batch() {
        let outcome = verify_batch(&items(20, &[]));
        assert!(outcome.all_valid());
        assert!(outcome.is_valid(0));
        assert!(outcome.is_valid(19));
    }

    #[test]
    fn per_item_fallback_reports_exact_indices() {
        let outcome = verify_batch(&items(20, &[3, 17]));
        assert!(!outcome.all_valid());
        assert_eq!(outcome.invalid(), &[3, 17]);
        assert!(outcome.is_valid(2));
        assert!(!outcome.is_valid(3));
        assert!(!outcome.is_valid(17));
    }

    #[test]
    fn small_batch_takes_inline_path() {
        // A NewView-sized batch: still correct, still sorted.
        let outcome = verify_batch(&items(3, &[1]));
        assert_eq!(outcome.invalid(), &[1]);
    }
}
