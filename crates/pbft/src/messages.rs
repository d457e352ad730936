use zugchain_crypto::{Digest, KeyPair, Keystore, MacTag, SessionKeys, Signature};
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

    /// The bytes authentication (signature or MAC) covers.
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
                let mut w = Writer::new();
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

/// How a [`SignedMessage`] is authenticated on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Auth {
    /// An Ed25519 signature over the message's
    /// [`auth_bytes`](Message::auth_bytes) — transferable evidence any
    /// third party can check against the keystore.
    Sig(Signature),
    /// Pairwise session MACs, one per addressed peer, each over the same
    /// [`auth_bytes`](Message::auth_bytes). A MAC convinces only the one
    /// peer holding the session key, so messages whose authentication
    /// must outlive a view (prepares and checkpoints, which feed
    /// view-change certificates) also embed the signature the fast path
    /// skipped verifying.
    Mac {
        /// `(addressee, tag)` pairs; each receiver looks up its own tag.
        tags: Vec<(NodeId, MacTag)>,
        /// The fallback/evidence signature, where one is required.
        sig: Option<Signature>,
    },
}

impl Auth {
    const TAG_SIG: u8 = 0;
    const TAG_MAC: u8 = 1;
}

impl Encode for Auth {
    fn encode(&self, w: &mut Writer) {
        match self {
            Auth::Sig(signature) => {
                w.write_u8(Self::TAG_SIG);
                signature.encode(w);
            }
            Auth::Mac { tags, sig } => {
                w.write_u8(Self::TAG_MAC);
                w.write_varint(tags.len() as u64);
                for (peer, tag) in tags {
                    peer.encode(w);
                    tag.encode(w);
                }
                sig.encode(w);
            }
        }
    }
}

impl Decode for Auth {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            Self::TAG_SIG => Ok(Auth::Sig(Signature::decode(r)?)),
            Self::TAG_MAC => {
                let count = r.read_varint()?;
                if count > 1024 {
                    return Err(WireError::LengthLimitExceeded {
                        declared: count,
                        limit: 1024,
                    });
                }
                let mut tags = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    tags.push((NodeId::decode(r)?, MacTag::decode(r)?));
                }
                Ok(Auth::Mac {
                    tags,
                    sig: Option::<Signature>::decode(r)?,
                })
            }
            tag => Err(WireError::InvalidDiscriminant {
                type_name: "Auth",
                value: u64::from(tag),
            }),
        }
    }
}

/// The receiving replica's judgement of a message's authentication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthVerdict {
    /// A valid signature (the plain [`Auth::Sig`] path).
    SigValid,
    /// A valid session MAC addressed to this replica — the fast path.
    /// Any embedded signature was *not* checked; callers that later use
    /// it as evidence must verify it first.
    MacValid,
    /// No usable MAC for this replica, but the embedded fallback
    /// signature verified.
    SigFallback,
    /// Neither a valid MAC nor a valid signature.
    Invalid,
}

impl AuthVerdict {
    /// `true` when the message is authentic and may be processed.
    pub fn accepted(self) -> bool {
        !matches!(self, AuthVerdict::Invalid)
    }

    /// `true` when the embedded signature was checked and found valid.
    pub fn signature_checked(self) -> bool {
        matches!(self, AuthVerdict::SigValid | AuthVerdict::SigFallback)
    }
}

/// A protocol message with its sender id and authentication over the
/// message's [`auth_bytes`](Message::auth_bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedMessage {
    /// Claimed sender (verified against the keystore or session keys).
    pub from: NodeId,
    /// The protocol message.
    pub message: Message,
    /// Signature or MAC-vector authentication.
    pub auth: Auth,
}

impl SignedMessage {
    /// Signs `message` as `from` (the [`Auth::Sig`] form).
    pub fn sign(from: NodeId, message: Message, key: &KeyPair) -> Self {
        let signature = key.sign(&message.auth_bytes());
        Self {
            from,
            message,
            auth: Auth::Sig(signature),
        }
    }

    /// Authenticates `message` with one session MAC per peer (the
    /// [`Auth::Mac`] fast path).
    ///
    /// When `sig_key` is given, the same bytes are also signed and the
    /// signature embedded — required for prepares and checkpoints, whose
    /// signatures become view-change evidence, and for interoperating
    /// with signature-only receivers.
    pub fn sign_mac(
        from: NodeId,
        message: Message,
        session: &SessionKeys,
        sig_key: Option<&KeyPair>,
    ) -> Self {
        let bytes = message.auth_bytes();
        let tags = session
            .peers()
            .filter_map(|peer| session.tag_for(peer, &bytes).map(|tag| (NodeId(peer), tag)))
            .collect();
        let sig = sig_key.map(|key| key.sign(&bytes));
        Self {
            from,
            message,
            auth: Auth::Mac { tags, sig },
        }
    }

    /// The embedded signature, if the message carries one.
    pub fn signature(&self) -> Option<Signature> {
        match &self.auth {
            Auth::Sig(signature) => Some(*signature),
            Auth::Mac { sig, .. } => *sig,
        }
    }

    /// Verifies the *signature* against the sender's registered key.
    ///
    /// MAC tags are ignored here: this is the check for contexts that
    /// need transferable evidence (view-change votes carried inside a
    /// NewView). A MAC-only message fails it by design.
    pub fn verify(&self, keystore: &Keystore) -> bool {
        match self.signature() {
            Some(signature) => keystore
                .verify(self.from.0, &self.message.auth_bytes(), &signature)
                .is_ok(),
            None => false,
        }
    }

    /// Full receive-path authentication: try the session-MAC fast path,
    /// fall back to the signature, reject if neither holds.
    pub fn verify_auth(&self, keystore: &Keystore, session: &SessionKeys) -> AuthVerdict {
        let bytes = self.message.auth_bytes();
        match &self.auth {
            Auth::Sig(signature) => {
                if keystore.verify(self.from.0, &bytes, signature).is_ok() {
                    AuthVerdict::SigValid
                } else {
                    AuthVerdict::Invalid
                }
            }
            Auth::Mac { tags, sig } => {
                let me = session.local_id();
                let my_tag = tags.iter().find(|(peer, _)| peer.0 == me);
                if let Some((_, tag)) = my_tag {
                    if session.verify_from(self.from.0, &bytes, tag) {
                        return AuthVerdict::MacValid;
                    }
                }
                match sig {
                    Some(signature) if keystore.verify(self.from.0, &bytes, signature).is_ok() => {
                        AuthVerdict::SigFallback
                    }
                    _ => AuthVerdict::Invalid,
                }
            }
        }
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
        self.auth.encode(w);
    }
}

impl Decode for SignedMessage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SignedMessage {
            from: NodeId::decode(r)?,
            message: Message::decode(r)?,
            auth: Auth::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProposedRequest;
    use zugchain_crypto::Keystore;

    #[test]
    fn mac_fast_path_and_sig_fallback() {
        let (pairs, keystore) = Keystore::generate(4, 0);
        let session: Vec<SessionKeys> = (0..4).map(|i| SessionKeys::derive(&keystore, i)).collect();
        let message = Message::Commit(Commit {
            view: 0,
            sn: 1,
            digest: Digest::of(b"batch"),
        });

        // MAC-only: accepted via the fast path at every peer, not
        // transferable (verify() fails — no signature).
        let mac_only = SignedMessage::sign_mac(NodeId(2), message.clone(), &session[2], None);
        for receiver in [0usize, 1, 3] {
            assert_eq!(
                mac_only.verify_auth(&keystore, &session[receiver]),
                AuthVerdict::MacValid,
                "receiver {receiver}"
            );
        }
        assert!(!mac_only.verify(&keystore));
        assert_eq!(mac_only.signature(), None);

        // MAC + embedded signature: fast path at addressed peers, and the
        // signature alone satisfies evidence contexts.
        let with_sig =
            SignedMessage::sign_mac(NodeId(2), message.clone(), &session[2], Some(&pairs[2]));
        assert_eq!(
            with_sig.verify_auth(&keystore, &session[0]),
            AuthVerdict::MacValid
        );
        assert!(with_sig.verify(&keystore));

        // A receiver with no tag (sender somehow omitted it) falls back to
        // the signature.
        let mut stripped = with_sig.clone();
        if let Auth::Mac { tags, .. } = &mut stripped.auth {
            tags.retain(|(peer, _)| peer.0 != 0);
        }
        assert_eq!(
            stripped.verify_auth(&keystore, &session[0]),
            AuthVerdict::SigFallback
        );

        // Plain signature mode still verdicts SigValid.
        let plain = SignedMessage::sign(NodeId(2), message, &pairs[2]);
        assert_eq!(
            plain.verify_auth(&keystore, &session[0]),
            AuthVerdict::SigValid
        );
    }

    #[test]
    fn forged_mac_is_rejected() {
        let (_, keystore) = Keystore::generate(4, 0);
        let (_, other_keystore) = Keystore::generate(4, 99);
        let honest: Vec<SessionKeys> = (0..4).map(|i| SessionKeys::derive(&keystore, i)).collect();
        let outsider = SessionKeys::derive(&other_keystore, 2);
        let message = Message::Commit(Commit {
            view: 0,
            sn: 1,
            digest: Digest::of(b"batch"),
        });

        // Valid-looking tags under the wrong session keys, no signature:
        // rejected outright.
        let forged = SignedMessage::sign_mac(NodeId(2), message.clone(), &outsider, None);
        assert_eq!(
            forged.verify_auth(&keystore, &honest[0]),
            AuthVerdict::Invalid
        );

        // Tampering with a tag of an honest message: the tag no longer
        // verifies and there is no fallback signature.
        let mut tampered = SignedMessage::sign_mac(NodeId(2), message, &honest[2], None);
        if let Auth::Mac { tags, .. } = &mut tampered.auth {
            let mut bytes = *tags[0].1.as_bytes();
            bytes[0] ^= 0x80;
            tags[0].1 = MacTag::from_bytes(bytes);
        }
        let victim = if let Auth::Mac { tags, .. } = &tampered.auth {
            tags[0].0 .0
        } else {
            unreachable!()
        };
        assert_eq!(
            tampered.verify_auth(&keystore, &honest[victim as usize]),
            AuthVerdict::Invalid
        );
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
