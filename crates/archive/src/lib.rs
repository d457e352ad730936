//! Data-center-side juridical archive for exported ZugChain blocks.
//!
//! The export protocol (paper §III-D) moves checkpoint-certified block
//! segments off the train; this crate is what catches them. The paper's
//! juridical premise — recordings must hold up "in front of a court" —
//! does not end at export: the data center must be able to prove, years
//! later and to a skeptical third party, that a stored block is exactly
//! what the consensus group logged. The archive therefore:
//!
//! * **re-verifies before storing** — every ingested segment is checked
//!   for chain linkage, continuity with the pruned base, and a 2f+1
//!   checkpoint certificate ([`Segment::verify`]); the archive never
//!   trusts the export pipeline, only the replicas' signatures;
//! * **stores durably** — one append-only file per segment, framed
//!   magic ‖ SHA-256 ‖ body and written tmp, fsync, rename, directory
//!   fsync before ingest returns, and restart recovery to the longest
//!   *verified* prefix ([`Archive::open`]);
//! * **answers queries** — by sequence number, time range, and decoded
//!   signal-event kind ([`EventKind`]), feeding the timeline
//!   reconstruction in `zugchain-signals`; a [`QueryEngine`] handle
//!   serves concurrent readers while ingestion continues;
//! * **emits proofs** — every answer can be escorted by an
//!   [`AuditBundle`]: block bytes, Merkle inclusion path, hash-chain
//!   links to the certified head, and the checkpoint certificate. The
//!   standalone `zugchain-audit` binary verifies bundles offline with
//!   nothing but the replica public keys ([`keyfile`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod archive;
mod bundle;
mod fleet;
mod index;
pub mod keyfile;
mod merkle;
mod segment;

pub use archive::{Archive, BlockInfo, IngestError, QueryEngine, RecoveryReport, SEGMENT_MAGIC};
pub use bundle::{AuditBundle, AuditError, BUNDLE_MAGIC};
pub use fleet::{FleetArchive, IngestLock};
pub use index::{ArchiveIndex, EventKind, RequestLocation};
pub use merkle::{leaf_digest, merkle_root, MerklePath, MerkleStep};
pub use segment::{block_leaves, Segment, SegmentHeader, SegmentViolation};
