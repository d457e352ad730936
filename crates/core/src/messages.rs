use zugchain_crypto::{Digest, KeyPair, Keystore, Signature};
use zugchain_pbft::{ProposedRequest, ReplicaTimer, SignedMessage};
use zugchain_wire::{Decode, Encode, Reader, WireError, Writer};

/// A bus request signed by the node that received it: `r ← sign(req, id)`
/// of Algorithm 1 (ln. 8/22). The signature authenticates both the payload
/// and the claimed origin, so a faulty node cannot attribute fabricated
/// data to others.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedRequest {
    /// The request with its origin id.
    pub request: ProposedRequest,
    /// Origin's signature over the canonical encoding of `request`.
    pub signature: Signature,
}

impl SignedRequest {
    /// Signs `request` with the origin's key.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `request.origin` does not match the id
    /// the key belongs to — callers construct requests for themselves.
    pub fn sign(request: ProposedRequest, key: &KeyPair) -> Self {
        let signature = key.sign(&zugchain_wire::to_bytes(&request));
        Self { request, signature }
    }

    /// Verifies the origin signature against the keystore.
    pub fn verify(&self, keystore: &Keystore) -> bool {
        keystore
            .verify(
                self.request.origin.0,
                &zugchain_wire::to_bytes(&self.request),
                &self.signature,
            )
            .is_ok()
    }

    /// The content identity used for duplicate filtering.
    pub fn payload_digest(&self) -> Digest {
        self.request.payload_digest()
    }
}

impl Encode for SignedRequest {
    fn encode(&self, w: &mut Writer) {
        self.request.encode(w);
        self.signature.encode(w);
    }
}

impl Decode for SignedRequest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SignedRequest {
            request: ProposedRequest::decode(r)?,
            signature: Signature::decode(r)?,
        })
    }
}

/// ZugChain-layer messages exchanged between nodes, outside consensus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerMessage {
    /// Soft-timeout broadcast of an unordered request (Alg. 1 ln. 24).
    BroadcastRequest(SignedRequest),
    /// A backup forwarding a broadcast request to the primary so a faulty
    /// broadcaster cannot cause a false suspicion (Alg. 1 ln. 32).
    ForwardRequest(SignedRequest),
    /// Baseline mode only: a traditional BFT client submitting its request
    /// to the primary.
    ClientRequest(SignedRequest),
}

impl LayerMessage {
    const TAG_BROADCAST: u8 = 0;
    const TAG_FORWARD: u8 = 1;
    const TAG_CLIENT: u8 = 2;

    /// The request carried by this message.
    pub fn request(&self) -> &SignedRequest {
        match self {
            LayerMessage::BroadcastRequest(r)
            | LayerMessage::ForwardRequest(r)
            | LayerMessage::ClientRequest(r) => r,
        }
    }
}

impl Encode for LayerMessage {
    fn encode(&self, w: &mut Writer) {
        match self {
            LayerMessage::BroadcastRequest(r) => {
                w.write_u8(Self::TAG_BROADCAST);
                r.encode(w);
            }
            LayerMessage::ForwardRequest(r) => {
                w.write_u8(Self::TAG_FORWARD);
                r.encode(w);
            }
            LayerMessage::ClientRequest(r) => {
                w.write_u8(Self::TAG_CLIENT);
                r.encode(w);
            }
        }
    }
}

impl Decode for LayerMessage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            Self::TAG_BROADCAST => Ok(LayerMessage::BroadcastRequest(SignedRequest::decode(r)?)),
            Self::TAG_FORWARD => Ok(LayerMessage::ForwardRequest(SignedRequest::decode(r)?)),
            Self::TAG_CLIENT => Ok(LayerMessage::ClientRequest(SignedRequest::decode(r)?)),
            tag => Err(WireError::InvalidDiscriminant {
                type_name: "LayerMessage",
                value: u64::from(tag),
            }),
        }
    }
}

/// Everything a ZugChain node can receive over the replica network: either
/// a PBFT protocol message or a ZugChain-layer message.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(clippy::large_enum_variant)]
pub enum NodeMessage {
    /// A PBFT protocol message.
    Consensus(SignedMessage),
    /// A ZugChain communication-layer message.
    Layer(LayerMessage),
}

impl NodeMessage {
    const TAG_CONSENSUS: u8 = 0;
    const TAG_LAYER: u8 = 1;

    /// Encoded size in bytes, for network accounting.
    pub fn wire_size(&self) -> usize {
        self.encoded_len()
    }

    /// Short label for traffic statistics.
    pub fn kind(&self) -> &'static str {
        match self {
            NodeMessage::Consensus(m) => m.message.kind(),
            NodeMessage::Layer(LayerMessage::BroadcastRequest(_)) => "layer-broadcast",
            NodeMessage::Layer(LayerMessage::ForwardRequest(_)) => "layer-forward",
            NodeMessage::Layer(LayerMessage::ClientRequest(_)) => "client-request",
        }
    }
}

impl Encode for NodeMessage {
    fn encode(&self, w: &mut Writer) {
        match self {
            NodeMessage::Consensus(m) => {
                w.write_u8(Self::TAG_CONSENSUS);
                m.encode(w);
            }
            NodeMessage::Layer(m) => {
                w.write_u8(Self::TAG_LAYER);
                m.encode(w);
            }
        }
    }
}

impl Decode for NodeMessage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            Self::TAG_CONSENSUS => Ok(NodeMessage::Consensus(SignedMessage::decode(r)?)),
            Self::TAG_LAYER => Ok(NodeMessage::Layer(LayerMessage::decode(r)?)),
            tag => Err(WireError::InvalidDiscriminant {
                type_name: "NodeMessage",
                value: u64::from(tag),
            }),
        }
    }
}

/// The canonical encoding used by wire transports. Frames built from a
/// `NodeMessage` are encoded at most once per broadcast (see
/// `zugchain_machine::Frame`).
impl zugchain_machine::WireMessage for NodeMessage {
    fn encode_wire(&self) -> Vec<u8> {
        zugchain_wire::to_bytes(self)
    }
}

/// Timers a node asks its runtime to schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TimerId {
    /// Soft timeout for the request with this payload digest
    /// (Alg. 1 ln. 11).
    Soft(Digest),
    /// Hard timeout for the request with this payload digest
    /// (Alg. 1 ln. 23/31).
    Hard(Digest),
    /// PBFT view-change timer for the given target view.
    ViewChange(u64),
    /// PBFT partial-batch flush timer (primary only).
    BatchFlush,
}

impl TimerId {
    /// The payload digest for request timers, if any.
    pub fn digest(&self) -> Option<Digest> {
        match self {
            TimerId::Soft(d) | TimerId::Hard(d) => Some(*d),
            TimerId::ViewChange(_) | TimerId::BatchFlush => None,
        }
    }

    /// The PBFT replica timer this id names, or `None` for the layer's
    /// own request timers — the inverse of `TimerId::from(ReplicaTimer)`.
    pub fn replica_timer(self) -> Option<ReplicaTimer> {
        match self {
            TimerId::Soft(_) | TimerId::Hard(_) => None,
            TimerId::ViewChange(view) => Some(ReplicaTimer::ViewChange(view)),
            TimerId::BatchFlush => Some(ReplicaTimer::BatchFlush),
        }
    }
}

/// Relabels a timer the PBFT replica arms into the node's vocabulary.
impl From<ReplicaTimer> for TimerId {
    fn from(timer: ReplicaTimer) -> Self {
        match timer {
            ReplicaTimer::ViewChange(view) => TimerId::ViewChange(view),
            ReplicaTimer::BatchFlush => TimerId::BatchFlush,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zugchain_crypto::Keystore;
    use zugchain_pbft::NodeId;

    #[test]
    fn signed_request_verifies_origin() {
        let (pairs, keystore) = Keystore::generate(4, 1);
        let request = ProposedRequest::application(vec![1, 2, 3], NodeId(2));
        let signed = SignedRequest::sign(request, &pairs[2]);
        assert!(signed.verify(&keystore));
    }

    #[test]
    fn misattributed_request_fails_verification() {
        let (pairs, keystore) = Keystore::generate(4, 1);
        // Node 3 signs a request claiming node 1 received it.
        let request = ProposedRequest::application(vec![1, 2, 3], NodeId(1));
        let forged = SignedRequest::sign(request, &pairs[3]);
        assert!(!forged.verify(&keystore));
    }

    #[test]
    fn node_message_round_trip() {
        let (pairs, _) = Keystore::generate(4, 1);
        let request = ProposedRequest::application(vec![5; 64], NodeId(0));
        let signed = SignedRequest::sign(request, &pairs[0]);
        for message in [
            NodeMessage::Layer(LayerMessage::BroadcastRequest(signed.clone())),
            NodeMessage::Layer(LayerMessage::ForwardRequest(signed.clone())),
            NodeMessage::Layer(LayerMessage::ClientRequest(signed)),
        ] {
            let back: NodeMessage =
                zugchain_wire::from_bytes(&zugchain_wire::to_bytes(&message)).unwrap();
            assert_eq!(back, message);
            assert!(back.wire_size() > 64);
        }
    }

    #[test]
    fn timer_ids_expose_digest() {
        let digest = Digest::of(b"r");
        assert_eq!(TimerId::Soft(digest).digest(), Some(digest));
        assert_eq!(TimerId::Hard(digest).digest(), Some(digest));
        assert_eq!(TimerId::ViewChange(3).digest(), None);
        assert_eq!(TimerId::BatchFlush.digest(), None);
    }

    #[test]
    fn replica_timers_round_trip_and_request_timers_stay_local() {
        for timer in [ReplicaTimer::ViewChange(3), ReplicaTimer::BatchFlush] {
            assert_eq!(TimerId::from(timer).replica_timer(), Some(timer));
        }
        let digest = Digest::of(b"r");
        assert_eq!(TimerId::Soft(digest).replica_timer(), None);
        assert_eq!(TimerId::Hard(digest).replica_timer(), None);
    }
}
