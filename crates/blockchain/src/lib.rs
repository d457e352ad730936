//! The ZugChain blockchain: tamper-evident storage for ordered train
//! events.
//!
//! Once the BFT layer has ordered requests, replicas deterministically
//! bundle them into blocks (paper §III-C, "Blockchain Application"): each
//! block carries the digest of its predecessor, so deleting, reordering or
//! modifying logged events after the fact is impossible without detection —
//! even if only a single replica's chain survives an accident.
//!
//! The crate provides:
//!
//! * [`Block`]/[`BlockHeader`]/[`LoggedRequest`] — the chain data model,
//!   with canonical encoding and hashing;
//! * [`BlockBuilder`] — deterministic bundling of ordered requests into
//!   blocks at a configured block size;
//! * [`ChainStore`] — the replica-side store with pruning after export
//!   (the last exported block is kept as the base of the pruned chain) and
//!   header-only retention as the memory-exhaustion fallback (§III-D,
//!   error scenario (v));
//! * [`DiskStore`] — simple, crash-tolerant persistence of blocks to disk,
//!   satisfying the JRU requirement that data survive power loss;
//! * [`verify_chain`] — validation used by data centers and when
//!   transferring state between replicas.
//!
//! # Examples
//!
//! ```
//! use zugchain_blockchain::{BlockBuilder, ChainStore, LoggedRequest, verify_chain};
//!
//! let mut builder = BlockBuilder::new(2); // 2 requests per block
//! let mut store = ChainStore::new();
//!
//! for sn in 1..=4u64 {
//!     let request = LoggedRequest { sn, origin: 0, payload: vec![sn as u8] };
//!     if let Some(block) = builder.push(request, sn * 64) {
//!         store.append(block).unwrap();
//!     }
//! }
//! assert_eq!(store.height(), 2);
//! assert!(verify_chain(store.blocks(), None).is_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod block;
mod builder;
mod disk;
mod store;
mod verify;

pub use block::{Block, BlockHeader, LoggedRequest};
pub use builder::{BlockBuilder, SealedBlock};
pub use disk::{DiskStore, RecoveredChain};
pub use store::{ChainError, ChainStore, PrunedBase};
pub use verify::{verify_chain, ChainViolation};
