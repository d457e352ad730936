//! Court-ready audit bundles: self-contained proofs for a single block.
//!
//! An [`AuditBundle`] lets a verifier holding nothing but the replica
//! public keys check that one block was logged by the consensus group:
//!
//! 1. the block bytes decode to a payload-consistent block;
//! 2. a Merkle path ties the bytes to the archive segment's root — this
//!    binds the bundle to *what the archive stored*, and lets the archive
//!    later prove the same block to multiple parties from one commitment;
//! 3. a run of successor headers hash-links the block to a head hash;
//! 4. a checkpoint certificate with 2f+1 replica signatures covers that
//!    head hash.
//!
//! Steps 3–4 carry the juridical weight: they chain the block to a
//! digest that a signature quorum of replicas vouched for, so forging a
//! bundle requires breaking the hash chain or the signature scheme. The
//! Merkle root (step 2) is the *archive's own* commitment — it is checked
//! for internal consistency but is not what makes the block court-proof.

use std::fmt;
use std::io;
use std::path::Path;

use zugchain_blockchain::{Block, BlockHeader};
use zugchain_crypto::{Digest, Keystore};
use zugchain_pbft::CheckpointProof;
use zugchain_wire::{decode_seq, encode_seq, Decode, Encode, Reader, TrainId, WireError, Writer};

use crate::archive::{frame, invalid_data, unframe, write_record};
use crate::merkle::{leaf_digest, MerklePath};

/// Magic prefix of an audit-bundle (`.zab`) file.
pub const BUNDLE_MAGIC: &[u8; 4] = b"ZAB1";

/// A self-contained, offline-verifiable proof that one block was logged
/// by the consensus group and archived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditBundle {
    /// Origin train of the audited block. Bound into the Merkle leaf
    /// (the leaf covers the train id followed by the block bytes), so a
    /// tampered train id fails inclusion rather than attributing the
    /// record to another vehicle. Cross-train forgery is additionally
    /// blocked by the keys: another train's certificate never verifies
    /// against this train's replica keyset.
    pub train: TrainId,
    /// Canonical encoding of the block under audit.
    pub block_bytes: Vec<u8>,
    /// Merkle inclusion path of `block_bytes` in the archived segment.
    pub merkle_path: MerklePath,
    /// The segment's Merkle root the path must resolve to.
    pub merkle_root: Digest,
    /// Headers of the blocks *after* this one up to the certified head,
    /// lowest height first; empty when the block is the head itself.
    pub link_headers: Vec<BlockHeader>,
    /// Checkpoint certificate covering the head hash.
    pub proof: CheckpointProof,
}

/// Why an audit bundle failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AuditError {
    /// The block bytes do not decode to a canonical block.
    MalformedBlock(WireError),
    /// The decoded block's payload hash disagrees with its requests.
    PayloadMismatch,
    /// The Merkle path does not resolve to the declared root.
    NotInSegment,
    /// A link header does not extend the chain from the block.
    BrokenLink {
        /// Height of the offending header.
        height: u64,
    },
    /// The hash chain ends at a head the certificate does not cover.
    UncertifiedHead {
        /// Head hash the link headers resolve to.
        linked: Digest,
        /// `state_digest` the certificate actually covers.
        certified: Digest,
    },
    /// The certificate lacks a quorum of valid replica signatures.
    BadCertificate,
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::MalformedBlock(e) => write!(f, "block bytes malformed: {e}"),
            AuditError::PayloadMismatch => {
                write!(f, "block payload does not match its header")
            }
            AuditError::NotInSegment => {
                write!(f, "Merkle path does not tie the block to the segment root")
            }
            AuditError::BrokenLink { height } => {
                write!(f, "link header at height {height} breaks the hash chain")
            }
            AuditError::UncertifiedHead { linked, certified } => write!(
                f,
                "chain links to head {} but certificate covers {}",
                linked.short(),
                certified.short()
            ),
            AuditError::BadCertificate => {
                write!(f, "checkpoint certificate lacks a valid signature quorum")
            }
        }
    }
}

impl std::error::Error for AuditError {}

impl AuditBundle {
    /// Verifies the bundle against replica public keys only.
    ///
    /// Returns the decoded block on success so callers can inspect the
    /// juridical content they just proved.
    ///
    /// # Errors
    ///
    /// The first [`AuditError`] found, in the order documented on the
    /// type: decode, payload, Merkle inclusion, chain links, certificate.
    pub fn verify(&self, keystore: &Keystore, quorum: usize) -> Result<Block, AuditError> {
        let block: Block =
            zugchain_wire::from_bytes(&self.block_bytes).map_err(AuditError::MalformedBlock)?;
        if !block.payload_is_consistent() {
            return Err(AuditError::PayloadMismatch);
        }

        let leaf = {
            let mut content = Vec::with_capacity(8 + self.block_bytes.len());
            content.extend_from_slice(&self.train.to_le_bytes());
            content.extend_from_slice(&self.block_bytes);
            leaf_digest(&content)
        };
        if self.merkle_path.root_for(leaf) != self.merkle_root {
            return Err(AuditError::NotInSegment);
        }

        let mut linked = block.hash();
        let mut height = block.height();
        for header in &self.link_headers {
            if header.prev_hash != linked || header.height != height + 1 {
                return Err(AuditError::BrokenLink {
                    height: header.height,
                });
            }
            linked = header.hash();
            height = header.height;
        }
        let certified = self.proof.checkpoint.state_digest;
        if linked != certified {
            return Err(AuditError::UncertifiedHead { linked, certified });
        }

        if !self.proof.verify(keystore, quorum) {
            return Err(AuditError::BadCertificate);
        }
        Ok(block)
    }

    /// The bundle in `.zab` framing: magic, content digest, canonical
    /// encoding. The digest is an integrity checksum for transport
    /// damage — verification never trusts it. This is the byte shape of
    /// a `.zab` file *and* of the serving layer's bundle download, so a
    /// bundle fetched over HTTP pipes straight into `zugchain-audit -`.
    pub fn to_zab_bytes(&self) -> Vec<u8> {
        frame(BUNDLE_MAGIC, &zugchain_wire::to_bytes(self))
    }

    /// Decodes `.zab` framing produced by [`AuditBundle::to_zab_bytes`],
    /// checking magic, checksum, and canonical decoding.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] on any mismatch.
    pub fn from_zab_bytes(raw: &[u8]) -> io::Result<Self> {
        let body = unframe(raw, BUNDLE_MAGIC)
            .map_err(|e| invalid_data(format!("not an intact audit bundle: {e}")))?;
        zugchain_wire::from_bytes(body).map_err(|e| invalid_data(format!("bundle malformed: {e}")))
    }

    /// Durably writes the bundle as a `.zab` file
    /// (see [`AuditBundle::to_zab_bytes`]) the way the archive writes a
    /// segment: a power cut leaves the old file or the new one, and the
    /// new one is on disk once this returns `Ok`.
    ///
    /// # Errors
    ///
    /// Any underlying I/O error.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        write_record(path, BUNDLE_MAGIC, &zugchain_wire::to_bytes(self))
    }

    /// Reads a bundle back from a `.zab` file, checking magic, checksum,
    /// and canonical decoding.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] on any mismatch, or the underlying
    /// I/O error.
    pub fn read_from(path: &Path) -> io::Result<Self> {
        Self::from_zab_bytes(&std::fs::read(path)?)
    }
}

impl Encode for AuditBundle {
    fn encode(&self, w: &mut Writer) {
        self.train.encode(w);
        self.block_bytes.encode(w);
        self.merkle_path.encode(w);
        self.merkle_root.encode(w);
        encode_seq(&self.link_headers, w);
        self.proof.encode(w);
    }
}

impl Decode for AuditBundle {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(AuditBundle {
            train: TrainId::decode(r)?,
            block_bytes: Vec::<u8>::decode(r)?,
            merkle_path: MerklePath::decode(r)?,
            merkle_root: Digest::decode(r)?,
            link_headers: decode_seq(r)?,
            proof: CheckpointProof::decode(r)?,
        })
    }
}
