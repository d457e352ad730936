use zugchain_crypto::{Digest, KeyPair, Keystore, Signature};
use zugchain_wire::{decode_seq, encode_seq, Decode, Encode, Reader, WireError, Writer};

use crate::{NodeId, ProposedBatch};

/// The primary's proposal assigning a run of sequence numbers to a batch
/// of requests in `view` (PBFT preprepare phase).
///
/// The batch's `i`-th request takes sequence number `sn + i`; the whole
/// run `sn ..= end_sn` is agreed by one three-phase round certifying the
/// batch digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrePrepare {
    /// View in which the proposal is made.
    pub view: u64,
    /// Sequence number assigned to the batch's first request.
    pub sn: u64,
    /// The proposed batch.
    pub batch: ProposedBatch,
}

impl PrePrepare {
    /// Sequence number of the batch's last request (inclusive).
    pub fn end_sn(&self) -> u64 {
        self.sn + self.batch.len() as u64 - 1
    }
}

impl Encode for PrePrepare {
    fn encode(&self, w: &mut Writer) {
        w.write_u64(self.view);
        w.write_u64(self.sn);
        self.batch.encode(w);
    }
}

impl Decode for PrePrepare {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PrePrepare {
            view: r.read_u64()?,
            sn: r.read_u64()?,
            batch: ProposedBatch::decode(r)?,
        })
    }
}

/// A backup's confirmation that it accepted the preprepare for
/// `(view, sn, digest)` (PBFT prepare phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prepare {
    /// View of the confirmed proposal.
    pub view: u64,
    /// Base sequence number of the confirmed proposal.
    pub sn: u64,
    /// Digest of the confirmed batch.
    pub digest: Digest,
}

impl Encode for Prepare {
    fn encode(&self, w: &mut Writer) {
        w.write_u64(self.view);
        w.write_u64(self.sn);
        self.digest.encode(w);
    }
}

impl Decode for Prepare {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Prepare {
            view: r.read_u64()?,
            sn: r.read_u64()?,
            digest: Digest::decode(r)?,
        })
    }
}

/// A replica's commitment to execute `(view, sn, digest)` once 2f+1
/// replicas commit (PBFT commit phase). Same fields as [`Prepare`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Commit {
    /// View of the committed proposal.
    pub view: u64,
    /// Base sequence number of the committed proposal.
    pub sn: u64,
    /// Digest of the committed batch.
    pub digest: Digest,
}

impl Encode for Commit {
    fn encode(&self, w: &mut Writer) {
        w.write_u64(self.view);
        w.write_u64(self.sn);
        self.digest.encode(w);
    }
}

impl Decode for Commit {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Commit {
            view: r.read_u64()?,
            sn: r.read_u64()?,
            digest: Digest::decode(r)?,
        })
    }
}

/// A replica's signed snapshot declaration at sequence number `sn`.
///
/// ZugChain creates one checkpoint per block (§III-C): `state_digest` is
/// the hash of the block covering everything up to `sn`, so a stable
/// checkpoint's 2f+1 signatures prove that block's place in the chain —
/// the export protocol (§III-D) is built on exactly this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Sequence number the snapshot covers (inclusive).
    pub sn: u64,
    /// Application state digest (the block hash in ZugChain).
    pub state_digest: Digest,
}

impl Encode for Checkpoint {
    fn encode(&self, w: &mut Writer) {
        w.write_u64(self.sn);
        self.state_digest.encode(w);
    }
}

impl Decode for Checkpoint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Checkpoint {
            sn: r.read_u64()?,
            state_digest: Digest::decode(r)?,
        })
    }
}

/// Proof that a checkpoint became stable: 2f+1 replica signatures over the
/// same [`Checkpoint`] message.
///
/// This is the verifiable artifact data centers download during export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointProof {
    /// The checkpoint the signatures cover.
    pub checkpoint: Checkpoint,
    /// `(signer, signature)` pairs; signatures are over the canonical
    /// encoding of `checkpoint`.
    pub signatures: Vec<(NodeId, Signature)>,
}

impl CheckpointProof {
    /// Verifies the proof: at least `quorum` distinct, valid signatures
    /// from keys in `keystore`.
    ///
    /// Signatures are over the canonical encoding of
    /// `Message::Checkpoint(checkpoint)` — exactly the bytes each replica
    /// signed when broadcasting its checkpoint message, so proofs are
    /// assembled from the protocol messages without re-signing.
    pub fn verify(&self, keystore: &Keystore, quorum: usize) -> bool {
        let message = zugchain_wire::to_bytes(&Message::Checkpoint(self.checkpoint));
        let mut seen = std::collections::BTreeSet::new();
        let mut valid = 0usize;
        for (signer, signature) in &self.signatures {
            if !seen.insert(signer.0) {
                continue; // duplicate signer never counts twice
            }
            if keystore.verify(signer.0, &message, signature).is_ok() {
                valid += 1;
            }
        }
        valid >= quorum
    }
}

impl Encode for CheckpointProof {
    fn encode(&self, w: &mut Writer) {
        self.checkpoint.encode(w);
        w.write_varint(self.signatures.len() as u64);
        for (signer, signature) in &self.signatures {
            signer.encode(w);
            signature.encode(w);
        }
    }
}

impl Decode for CheckpointProof {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let checkpoint = Checkpoint::decode(r)?;
        let count = r.read_varint()?;
        if count > 1024 {
            return Err(WireError::LengthLimitExceeded {
                declared: count,
                limit: 1024,
            });
        }
        let mut signatures = Vec::with_capacity(count as usize);
        for _ in 0..count {
            signatures.push((NodeId::decode(r)?, Signature::decode(r)?));
        }
        Ok(CheckpointProof {
            checkpoint,
            signatures,
        })
    }
}

/// Evidence that `(view, sn, batch)` was prepared: the batch itself
/// plus 2f prepare signatures, carried in view-change messages so the new
/// primary can re-propose in-flight batches bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedCert {
    /// View in which the batch prepared.
    pub view: u64,
    /// Base sequence number of the prepared batch.
    pub sn: u64,
    /// The prepared batch (full payloads, so the new primary can
    /// re-propose it even if it never saw the original preprepare).
    pub batch: ProposedBatch,
    /// Prepare signatures from distinct backups over the canonical
    /// encoding of the matching [`Prepare`].
    pub prepare_signatures: Vec<(NodeId, Signature)>,
}

impl PreparedCert {
    /// Sequence number of the batch's last request (inclusive).
    pub fn end_sn(&self) -> u64 {
        self.sn + self.batch.len() as u64 - 1
    }

    /// Verifies the certificate: at least `prepare_quorum` distinct valid
    /// prepare signatures matching this view/sn/batch digest.
    pub fn verify(&self, keystore: &Keystore, prepare_quorum: usize) -> bool {
        let prepare = Prepare {
            view: self.view,
            sn: self.sn,
            digest: self.batch.digest(),
        };
        let message = zugchain_wire::to_bytes(&Message::Prepare(prepare));
        let mut seen = std::collections::BTreeSet::new();
        let mut valid = 0usize;
        for (signer, signature) in &self.prepare_signatures {
            if !seen.insert(signer.0) {
                continue;
            }
            if keystore.verify(signer.0, &message, signature).is_ok() {
                valid += 1;
            }
        }
        valid >= prepare_quorum
    }
}

impl Encode for PreparedCert {
    fn encode(&self, w: &mut Writer) {
        w.write_u64(self.view);
        w.write_u64(self.sn);
        self.batch.encode(w);
        w.write_varint(self.prepare_signatures.len() as u64);
        for (signer, signature) in &self.prepare_signatures {
            signer.encode(w);
            signature.encode(w);
        }
    }
}

impl Decode for PreparedCert {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let view = r.read_u64()?;
        let sn = r.read_u64()?;
        let batch = ProposedBatch::decode(r)?;
        let count = r.read_varint()?;
        if count > 1024 {
            return Err(WireError::LengthLimitExceeded {
                declared: count,
                limit: 1024,
            });
        }
        let mut prepare_signatures = Vec::with_capacity(count as usize);
        for _ in 0..count {
            prepare_signatures.push((NodeId::decode(r)?, Signature::decode(r)?));
        }
        Ok(PreparedCert {
            view,
            sn,
            batch,
            prepare_signatures,
        })
    }
}

/// A replica's vote to move to `new_view`, reporting its stable checkpoint
/// and prepared-but-undecided requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewChange {
    /// The view the sender wants to move to.
    pub new_view: u64,
    /// Sequence number of the sender's last stable checkpoint.
    pub last_stable_sn: u64,
    /// Proof of that checkpoint (absent before the first checkpoint).
    pub checkpoint_proof: Option<CheckpointProof>,
    /// Prepared certificates for requests above the stable checkpoint.
    pub prepared: Vec<PreparedCert>,
}

impl Encode for ViewChange {
    fn encode(&self, w: &mut Writer) {
        w.write_u64(self.new_view);
        w.write_u64(self.last_stable_sn);
        self.checkpoint_proof.encode(w);
        encode_seq(&self.prepared, w);
    }
}

impl Decode for ViewChange {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ViewChange {
            new_view: r.read_u64()?,
            last_stable_sn: r.read_u64()?,
            checkpoint_proof: Option::<CheckpointProof>::decode(r)?,
            prepared: decode_seq(r)?,
        })
    }
}

/// The new primary's announcement of `view`: the 2f+1 view-change votes it
/// collected and the preprepares that re-propose every prepared request
/// (gaps filled with no-ops).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewView {
    /// The view being started.
    pub view: u64,
    /// The signed view-change votes justifying the new view.
    pub view_changes: Vec<SignedMessage>,
    /// Re-issued preprepares, in ascending sequence order.
    pub preprepares: Vec<PrePrepare>,
}

impl Encode for NewView {
    fn encode(&self, w: &mut Writer) {
        w.write_u64(self.view);
        encode_seq(&self.view_changes, w);
        encode_seq(&self.preprepares, w);
    }
}

impl Decode for NewView {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(NewView {
            view: r.read_u64()?,
            view_changes: decode_seq(r)?,
            preprepares: decode_seq(r)?,
        })
    }
}

/// The PBFT protocol message set.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(clippy::large_enum_variant)]
pub enum Message {
    /// Primary's proposal.
    PrePrepare(PrePrepare),
    /// Backup's acceptance.
    Prepare(Prepare),
    /// Replica's commitment.
    Commit(Commit),
    /// Snapshot declaration.
    Checkpoint(Checkpoint),
    /// Vote to change view.
    ViewChange(ViewChange),
    /// New primary's announcement.
    NewView(NewView),
}

impl Message {
    const TAG_PREPREPARE: u8 = 0;
    const TAG_PREPARE: u8 = 1;
    const TAG_COMMIT: u8 = 2;
    const TAG_CHECKPOINT: u8 = 3;
    const TAG_VIEWCHANGE: u8 = 4;
    const TAG_NEWVIEW: u8 = 5;

    /// Short name for logs and counters.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::PrePrepare(_) => "preprepare",
            Message::Prepare(_) => "prepare",
            Message::Commit(_) => "commit",
            Message::Checkpoint(_) => "checkpoint",
            Message::ViewChange(_) => "viewchange",
            Message::NewView(_) => "newview",
        }
    }

    /// The bytes a message's signature covers.
    ///
    /// For every message except the preprepare this is the canonical
    /// encoding of the whole message. A preprepare instead authenticates
    /// a compact header — `(tag, view, sn, batch digest)` — because the
    /// batch digest already binds the full request run (count, order,
    /// headers, and payload digests, all recomputed on decode), and
    /// signing ~50 bytes instead of the encoded batch takes the
    /// per-proposal signature cost off the payload-size axis. Only this
    /// compact form is ever signed for a preprepare, so there is no
    /// ambiguity with the full encoding.
    pub fn auth_bytes(&self) -> Vec<u8> {
        match self {
            Message::PrePrepare(pp) => {
                // tag ‖ view ‖ sn ‖ batch digest
                let mut w = Writer::with_capacity(1 + 8 + 8 + 32);
                w.write_u8(Self::TAG_PREPREPARE);
                w.write_u64(pp.view);
                w.write_u64(pp.sn);
                pp.batch.digest().encode(&mut w);
                w.into_bytes()
            }
            other => zugchain_wire::to_bytes(other),
        }
    }
}

impl Encode for Message {
    fn encode(&self, w: &mut Writer) {
        match self {
            Message::PrePrepare(m) => {
                w.write_u8(Self::TAG_PREPREPARE);
                m.encode(w);
            }
            Message::Prepare(m) => {
                w.write_u8(Self::TAG_PREPARE);
                m.encode(w);
            }
            Message::Commit(m) => {
                w.write_u8(Self::TAG_COMMIT);
                m.encode(w);
            }
            Message::Checkpoint(m) => {
                w.write_u8(Self::TAG_CHECKPOINT);
                m.encode(w);
            }
            Message::ViewChange(m) => {
                w.write_u8(Self::TAG_VIEWCHANGE);
                m.encode(w);
            }
            Message::NewView(m) => {
                w.write_u8(Self::TAG_NEWVIEW);
                m.encode(w);
            }
        }
    }
}

impl Decode for Message {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            Self::TAG_PREPREPARE => Ok(Message::PrePrepare(PrePrepare::decode(r)?)),
            Self::TAG_PREPARE => Ok(Message::Prepare(Prepare::decode(r)?)),
            Self::TAG_COMMIT => Ok(Message::Commit(Commit::decode(r)?)),
            Self::TAG_CHECKPOINT => Ok(Message::Checkpoint(Checkpoint::decode(r)?)),
            Self::TAG_VIEWCHANGE => Ok(Message::ViewChange(ViewChange::decode(r)?)),
            Self::TAG_NEWVIEW => Ok(Message::NewView(NewView::decode(r)?)),
            tag => Err(WireError::InvalidDiscriminant {
                type_name: "Message",
                value: u64::from(tag),
            }),
        }
    }
}

/// A protocol message with its sender id and the sender's Ed25519
/// signature over the message's [`auth_bytes`](Message::auth_bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedMessage {
    /// Claimed sender (verified against the keystore).
    pub from: NodeId,
    /// The protocol message.
    pub message: Message,
    /// Set only by [`sign`](Self::sign) or by decoding.
    pub(crate) signature: Signature,
}

impl SignedMessage {
    /// The one-byte tag written ahead of the signature. It is always
    /// `0`, so every encoding keeps the length it had when a second
    /// (MAC) form existed — the simulator charges link and CPU time by
    /// [`wire_size`](Self::wire_size). Any other value fails to decode.
    const SIG_TAG: u8 = 0;

    /// Signs `message` as `from`.
    pub fn sign(from: NodeId, message: Message, key: &KeyPair) -> Self {
        let signature = key.sign(&message.auth_bytes());
        Self {
            from,
            message,
            signature,
        }
    }

    /// The sender's signature over the message's
    /// [`auth_bytes`](Message::auth_bytes).
    pub fn signature(&self) -> Signature {
        self.signature
    }

    /// Verifies the signature against the sender's registered key — the
    /// check every message must pass on arrival.
    pub fn verify(&self, keystore: &Keystore) -> bool {
        keystore
            .verify(self.from.0, &self.message.auth_bytes(), &self.signature)
            .is_ok()
    }

    /// Encoded size in bytes — used for network accounting.
    pub fn wire_size(&self) -> usize {
        self.encoded_len()
    }
}

impl Encode for SignedMessage {
    fn encode(&self, w: &mut Writer) {
        self.from.encode(w);
        self.message.encode(w);
        w.write_u8(Self::SIG_TAG);
        self.signature.encode(w);
    }
}

impl Decode for SignedMessage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let from = NodeId::decode(r)?;
        let message = Message::decode(r)?;
        match r.read_u8()? {
            Self::SIG_TAG => Ok(SignedMessage {
                from,
                message,
                signature: Signature::decode(r)?,
            }),
            tag => Err(WireError::InvalidDiscriminant {
                type_name: "SignedMessage",
                value: u64::from(tag),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProposedRequest;
    use zugchain_crypto::Keystore;

    /// A `Commit { view: 0, sn: 1, digest: Digest::of(b"forged") }`
    /// claiming to come from replica 0, authenticated only by session
    /// MACs (envelope tag `1`, three `(peer, tag)` pairs, no signature).
    /// Captured from the last encoder that wrote this form. Its tags were
    /// derived from the public keystore of `Keystore::generate(4, 42)`
    /// and nothing else, and every replica, in every mode, accepted such
    /// frames. That forgery is why the form was removed.
    const FORGED_MAC_COMMIT: &str = concat!(
        "0000000000000000", // from: replica 0
        "02",               // Message::Commit
        "0000000000000000", // view 0
        "0100000000000000", // sn 1
        "ccdd35168ab474fa5764a526cfb83621351e23682c5075b2e18d56bddf96aa30",
        "01", // envelope tag: MAC
        "03", // three (peer, tag) pairs
        "0100000000000000cf37364f2c37f9494450f0549237082ff1fb915f25a05c2e8ae5bccb5fbaff98",
        "020000000000000076e31863dbee368865caf252e7ade0a05ede3bf7da12d4f0f6d8972d726cdc6a",
        "03000000000000005cde79166ebb9e655db6fcfca34fd8024dabf0a56f8b3fd028cfc4a37696bbb3",
        "00", // no signature
    );

    #[test]
    fn forged_mac_is_rejected() {
        let bytes: Vec<u8> = (0..FORGED_MAC_COMMIT.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&FORGED_MAC_COMMIT[i..i + 2], 16).unwrap())
            .collect();
        // Sender and message still parse; only the envelope is refused.
        let mut r = Reader::new(&bytes);
        assert_eq!(NodeId::decode(&mut r), Ok(NodeId(0)));
        assert_eq!(
            Message::decode(&mut r),
            Ok(Message::Commit(Commit {
                view: 0,
                sn: 1,
                digest: Digest::of(b"forged"),
            }))
        );
        assert!(matches!(
            zugchain_wire::from_bytes::<SignedMessage>(&bytes),
            Err(WireError::InvalidDiscriminant { value: 1, .. })
        ));
    }

    #[test]
    fn preprepare_auth_bytes_bind_the_batch_digest() {
        let pp = |payload: Vec<u8>| {
            Message::PrePrepare(PrePrepare {
                view: 1,
                sn: 2,
                batch: ProposedBatch::single(ProposedRequest::application(payload, NodeId(0))),
            })
        };
        let a = pp(vec![1, 2, 3]);
        let b = pp(vec![1, 2, 4]);
        assert_ne!(
            a.auth_bytes(),
            b.auth_bytes(),
            "payload change reaches auth bytes"
        );
        assert!(
            a.auth_bytes().len() < 64,
            "compact header stays constant-size, got {}",
            a.auth_bytes().len()
        );
        // Non-preprepare messages authenticate their full encoding.
        let commit = Message::Commit(Commit {
            view: 1,
            sn: 2,
            digest: Digest::of(b"x"),
        });
        assert_eq!(commit.auth_bytes(), zugchain_wire::to_bytes(&commit));
    }

    fn request() -> ProposedRequest {
        ProposedRequest::application(vec![7; 32], NodeId(1))
    }

    fn batch() -> ProposedBatch {
        ProposedBatch::new(vec![
            request(),
            ProposedRequest::application(vec![8; 16], NodeId(2)),
        ])
    }

    #[test]
    fn every_message_round_trips() {
        let messages = vec![
            Message::PrePrepare(PrePrepare {
                view: 1,
                sn: 2,
                batch: batch(),
            }),
            Message::Prepare(Prepare {
                view: 1,
                sn: 2,
                digest: batch().digest(),
            }),
            Message::Commit(Commit {
                view: 1,
                sn: 2,
                digest: batch().digest(),
            }),
            Message::Checkpoint(Checkpoint {
                sn: 10,
                state_digest: Digest::of(b"block"),
            }),
            Message::ViewChange(ViewChange {
                new_view: 3,
                last_stable_sn: 10,
                checkpoint_proof: None,
                prepared: vec![PreparedCert {
                    view: 2,
                    sn: 11,
                    batch: batch(),
                    prepare_signatures: vec![],
                }],
            }),
            Message::NewView(NewView {
                view: 3,
                view_changes: vec![],
                preprepares: vec![PrePrepare {
                    view: 3,
                    sn: 11,
                    batch: ProposedBatch::single(ProposedRequest::noop(NodeId(3))),
                }],
            }),
        ];
        for message in messages {
            let back: Message =
                zugchain_wire::from_bytes(&zugchain_wire::to_bytes(&message)).unwrap();
            assert_eq!(back, message);
        }
    }

    #[test]
    fn signed_message_verifies_and_rejects_tampering() {
        let (pairs, keystore) = Keystore::generate(4, 0);
        let message = Message::Prepare(Prepare {
            view: 0,
            sn: 1,
            digest: Digest::of(b"r"),
        });
        let signed = SignedMessage::sign(NodeId(2), message, &pairs[2]);
        assert!(signed.verify(&keystore));

        // Wrong claimed sender.
        let mut forged = signed.clone();
        forged.from = NodeId(3);
        assert!(!forged.verify(&keystore));

        // Tampered content.
        let mut tampered = signed;
        tampered.message = Message::Prepare(Prepare {
            view: 0,
            sn: 2,
            digest: Digest::of(b"r"),
        });
        assert!(!tampered.verify(&keystore));
    }

    #[test]
    fn checkpoint_proof_requires_distinct_quorum() {
        let (pairs, keystore) = Keystore::generate(4, 0);
        let checkpoint = Checkpoint {
            sn: 10,
            state_digest: Digest::of(b"block"),
        };
        let message = zugchain_wire::to_bytes(&Message::Checkpoint(checkpoint));
        let sign = |id: usize| (NodeId(id as u64), pairs[id].sign(&message));

        let valid = CheckpointProof {
            checkpoint,
            signatures: vec![sign(0), sign(1), sign(2)],
        };
        assert!(valid.verify(&keystore, 3));

        // Same signer repeated does not reach quorum.
        let duplicated = CheckpointProof {
            checkpoint,
            signatures: vec![sign(0), sign(0), sign(0)],
        };
        assert!(!duplicated.verify(&keystore, 3));

        // A forged signature does not count.
        let mut forged = valid.clone();
        forged.signatures[2] = (NodeId(2), pairs[3].sign(&message));
        assert!(!forged.verify(&keystore, 3));
        assert!(forged.verify(&keystore, 2));
    }

    #[test]
    fn prepared_cert_verification() {
        let (pairs, keystore) = Keystore::generate(4, 0);
        let batch = batch();
        let prepare = Prepare {
            view: 1,
            sn: 5,
            digest: batch.digest(),
        };
        let message = zugchain_wire::to_bytes(&Message::Prepare(prepare));
        let cert = PreparedCert {
            view: 1,
            sn: 5,
            batch,
            prepare_signatures: vec![
                (NodeId(1), pairs[1].sign(&message)),
                (NodeId(2), pairs[2].sign(&message)),
            ],
        };
        assert_eq!(cert.end_sn(), 6, "two-request batch spans sn 5..=6");
        assert!(cert.verify(&keystore, 2));
        assert!(!cert.verify(&keystore, 3));

        // A cert over a different batch does not verify.
        let mut wrong = cert;
        wrong.batch = ProposedBatch::single(ProposedRequest::application(vec![1], NodeId(0)));
        assert!(!wrong.verify(&keystore, 2));
    }
}
