use std::fmt;
use std::sync::Arc;

use zugchain_crypto::Digest;
use zugchain_wire::{decode_seq, encode_seq, Decode, Encode, Reader, WireError, Writer};

/// Identifier of a replica in the permissioned group.
///
/// Node ids double as key ids in the [`Keystore`](zugchain_crypto::Keystore).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node {}", self.0)
    }
}

impl Encode for NodeId {
    fn encode(&self, w: &mut Writer) {
        w.write_u64(self.0);
    }
}

impl Decode for NodeId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(NodeId(r.read_u64()?))
    }
}

/// Discriminates real application requests from protocol-internal no-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// A request carrying application data to be logged.
    Application,
    /// A gap filler assigned by a new primary during view change so that
    /// sequence numbers stay contiguous; never logged by the application.
    Noop,
}

impl Encode for RequestKind {
    fn encode(&self, w: &mut Writer) {
        w.write_u8(match self {
            RequestKind::Application => 0,
            RequestKind::Noop => 1,
        });
    }
}

impl Decode for RequestKind {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            0 => Ok(RequestKind::Application),
            1 => Ok(RequestKind::Noop),
            tag => Err(WireError::InvalidDiscriminant {
                type_name: "RequestKind",
                value: u64::from(tag),
            }),
        }
    }
}

/// A request as handed to consensus: the opaque payload plus the id of the
/// node that received it from the bus.
///
/// The ZugChain layer signs `(payload, origin)` before proposing
/// (Alg. 1 ln. 8, "authenticate and include node id"); that outer
/// signature travels in the layer's own messages. Inside PBFT, the
/// request is opaque — ordering binds to its [`digest`](Self::digest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProposedRequest {
    /// What kind of request this is.
    pub kind: RequestKind,
    /// The opaque request payload (a consolidated bus cycle).
    pub payload: Vec<u8>,
    /// Node that read the payload from the bus.
    pub origin: NodeId,
    /// Bus time at which the origin received the payload, in
    /// milliseconds. Part of the ordered request (and thus identical on
    /// every replica), so deterministic block bundling can stamp block
    /// headers with it — replicas must never consult local clocks for
    /// agreed state.
    pub time_ms: u64,
}

impl ProposedRequest {
    /// Creates an application request with origin time 0 (tests and
    /// benchmarks); production paths use [`with_time`](Self::with_time).
    pub fn application(payload: Vec<u8>, origin: NodeId) -> Self {
        Self {
            kind: RequestKind::Application,
            payload,
            origin,
            time_ms: 0,
        }
    }

    /// Stamps the origin's bus reception time.
    #[must_use]
    pub fn with_time(mut self, time_ms: u64) -> Self {
        self.time_ms = time_ms;
        self
    }

    /// Creates a no-op gap filler attributed to the new primary.
    pub fn noop(origin: NodeId) -> Self {
        Self {
            kind: RequestKind::Noop,
            payload: Vec::new(),
            origin,
            time_ms: 0,
        }
    }

    /// Returns `true` for protocol no-ops.
    pub fn is_noop(&self) -> bool {
        self.kind == RequestKind::Noop
    }

    /// Digest binding the whole request (kind, payload, origin) — what
    /// prepares and commits certify.
    pub fn digest(&self) -> Digest {
        Digest::of_encoded(self)
    }

    /// Digest of the payload only — the content identity the ZugChain
    /// layer filters duplicates on (two nodes reading the same bus cycle
    /// produce the same payload digest but different request digests).
    pub fn payload_digest(&self) -> Digest {
        Digest::of(&self.payload)
    }
}

impl Encode for ProposedRequest {
    fn encode(&self, w: &mut Writer) {
        self.kind.encode(w);
        w.write_bytes(&self.payload);
        self.origin.encode(w);
        w.write_u64(self.time_ms);
    }
}

impl Decode for ProposedRequest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ProposedRequest {
            kind: RequestKind::decode(r)?,
            payload: r.read_bytes()?.to_vec(),
            origin: NodeId::decode(r)?,
            time_ms: r.read_u64()?,
        })
    }
}

/// A request together with the digest of its payload, hashed once where
/// the payload entered the node.
///
/// The ZugChain layer hashes every bus payload on intake for its
/// duplicate filter; carrying that digest with the request lets the
/// primary build its [`ProposedBatch`] without hashing the payload again
/// ([`ProposedBatch::from_digested`]). The fields are private and every
/// way to make one hashes the payload, so the digest is always the
/// payload's.
#[derive(Debug, Clone)]
pub struct DigestedRequest {
    request: ProposedRequest,
    payload_digest: Digest,
}

impl DigestedRequest {
    /// Hashes the request's payload and keeps the digest with it.
    pub fn new(request: ProposedRequest) -> Self {
        let payload_digest = request.payload_digest();
        Self {
            request,
            payload_digest,
        }
    }

    /// The request.
    pub fn request(&self) -> &ProposedRequest {
        &self.request
    }

    /// The digest of the request's payload.
    pub fn payload_digest(&self) -> Digest {
        self.payload_digest
    }
}

impl From<ProposedRequest> for DigestedRequest {
    fn from(request: ProposedRequest) -> Self {
        Self::new(request)
    }
}

/// Upper bound on requests per batch accepted off the wire, far above any
/// sane [`Config::max_batch_size`](crate::Config) — a length-prefix
/// poisoning guard, not a protocol parameter.
pub const MAX_WIRE_BATCH_LEN: usize = 4096;

/// The unit of agreement: an ordered run of requests proposed together
/// under one preprepare.
///
/// A batch proposed at base sequence number `s` occupies sequence numbers
/// `s .. s + len - 1`; prepares and commits certify the *batch digest*,
/// computed in a single pass: each request's payload is hashed exactly
/// once, and the batch digest chains the per-request headers with those
/// payload digests in order. Binding the *payload digests* (not just the
/// concatenated bytes) into the order-binding chain means flipping one
/// payload byte anywhere changes the batch digest, while no payload byte
/// is ever hashed twice. Batches are never empty — a single-request batch
/// is exactly the pre-batching protocol.
///
/// The request run and cached digests live behind an [`Arc`], so cloning
/// a batch into consensus slots, certificates, and decide paths is O(1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProposedBatch {
    inner: Arc<BatchInner>,
}

#[derive(Debug, PartialEq, Eq)]
struct BatchInner {
    requests: Vec<ProposedRequest>,
    /// Order-binding digest chaining per-request headers and payload
    /// digests.
    digest: Digest,
    /// Each request's payload digest, hashed once at construction.
    payload_digests: Vec<Digest>,
}

impl ProposedBatch {
    /// Builds a batch from a non-empty run of requests, hashing each
    /// payload once and caching the batch digest.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is empty.
    pub fn new(requests: Vec<ProposedRequest>) -> Self {
        let payload_digests = requests
            .iter()
            .map(ProposedRequest::payload_digest)
            .collect();
        Self::assemble(requests, payload_digests)
    }

    /// Builds a batch from requests whose payloads were already hashed,
    /// reusing those digests: the batch and its digest are the ones
    /// [`new`](Self::new) builds from the same requests.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is empty.
    pub fn from_digested(requests: Vec<DigestedRequest>) -> Self {
        let (requests, payload_digests) = requests
            .into_iter()
            .map(|digested| (digested.request, digested.payload_digest))
            .unzip();
        Self::assemble(requests, payload_digests)
    }

    /// Wraps a single request — the unbatched protocol's unit.
    pub fn single(request: ProposedRequest) -> Self {
        Self::new(vec![request])
    }

    fn assemble(requests: Vec<ProposedRequest>, payload_digests: Vec<Digest>) -> Self {
        assert!(!requests.is_empty(), "batches are never empty");
        let digest = Self::digest_of(&requests, &payload_digests);
        Self {
            inner: Arc::new(BatchInner {
                requests,
                digest,
                payload_digests,
            }),
        }
    }

    fn digest_of(requests: &[ProposedRequest], payload_digests: &[Digest]) -> Digest {
        // One chained hash binds the request count, the order, every
        // header field, and every payload digest. Payload bytes are not
        // touched again here.
        let mut parts = Vec::with_capacity(requests.len() * 2);
        let headers: Vec<[u8; 25]> = requests
            .iter()
            .map(|request| {
                let mut header = [0u8; 25];
                header[0] = match request.kind {
                    RequestKind::Application => 0,
                    RequestKind::Noop => 1,
                };
                header[1..9].copy_from_slice(&request.origin.0.to_le_bytes());
                header[9..17].copy_from_slice(&request.time_ms.to_le_bytes());
                header[17..25].copy_from_slice(&(request.payload.len() as u64).to_le_bytes());
                header
            })
            .collect();
        for (header, payload_digest) in headers.iter().zip(payload_digests) {
            parts.push(header.as_slice());
            parts.push(payload_digest.as_bytes().as_slice());
        }
        Digest::chain(parts)
    }

    /// The batch digest — what prepares and commits certify.
    pub fn digest(&self) -> Digest {
        self.inner.digest
    }

    /// Number of requests in the batch (always ≥ 1).
    pub fn len(&self) -> usize {
        self.inner.requests.len()
    }

    /// Always `false`; kept for idiomatic slice-likeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The ordered requests.
    pub fn requests(&self) -> &[ProposedRequest] {
        &self.inner.requests
    }

    /// The cached payload digest of each request, in batch order.
    pub fn payload_digests(&self) -> &[Digest] {
        &self.inner.payload_digests
    }

    /// Consumes the batch, yielding its requests in order.
    ///
    /// O(1) when this is the last handle to the batch; clones the
    /// requests otherwise.
    pub fn into_requests(self) -> Vec<ProposedRequest> {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => inner.requests,
            Err(shared) => shared.requests.clone(),
        }
    }

    /// Sum of payload lengths, for memory accounting.
    pub fn payload_bytes(&self) -> usize {
        self.inner.requests.iter().map(|r| r.payload.len()).sum()
    }

    /// `true` if every request in the batch is a protocol no-op.
    pub fn is_all_noop(&self) -> bool {
        self.inner.requests.iter().all(ProposedRequest::is_noop)
    }
}

impl Encode for ProposedBatch {
    fn encode(&self, w: &mut Writer) {
        encode_seq(&self.inner.requests, w);
    }
}

impl Decode for ProposedBatch {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let requests: Vec<ProposedRequest> = decode_seq(r)?;
        if requests.is_empty() {
            return Err(WireError::InvalidLength {
                expected: 1,
                actual: 0,
            });
        }
        if requests.len() > MAX_WIRE_BATCH_LEN {
            return Err(WireError::LengthLimitExceeded {
                declared: requests.len() as u64,
                limit: MAX_WIRE_BATCH_LEN as u64,
            });
        }
        Ok(ProposedBatch::new(requests))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_digests_distinguish_origin() {
        let a = ProposedRequest::application(vec![1, 2, 3], NodeId(0));
        let b = ProposedRequest::application(vec![1, 2, 3], NodeId(1));
        assert_ne!(a.digest(), b.digest(), "request digest binds origin");
        assert_eq!(
            a.payload_digest(),
            b.payload_digest(),
            "payload digest is content-only"
        );
    }

    #[test]
    fn noop_is_flagged() {
        assert!(ProposedRequest::noop(NodeId(2)).is_noop());
        assert!(!ProposedRequest::application(vec![], NodeId(2)).is_noop());
    }

    #[test]
    fn request_wire_round_trip() {
        let request = ProposedRequest::application(vec![9; 100], NodeId(3));
        let back: ProposedRequest =
            zugchain_wire::from_bytes(&zugchain_wire::to_bytes(&request)).unwrap();
        assert_eq!(back, request);
    }

    #[test]
    fn kind_rejects_unknown_tag() {
        assert!(zugchain_wire::from_bytes::<RequestKind>(&[7]).is_err());
    }

    #[test]
    fn batch_wire_round_trip_preserves_order_and_digest() {
        let batch = ProposedBatch::new(vec![
            ProposedRequest::application(vec![1], NodeId(0)).with_time(10),
            ProposedRequest::application(vec![2], NodeId(1)).with_time(20),
            ProposedRequest::noop(NodeId(2)),
        ]);
        let back: ProposedBatch =
            zugchain_wire::from_bytes(&zugchain_wire::to_bytes(&batch)).unwrap();
        assert_eq!(back, batch);
        assert_eq!(
            back.digest(),
            batch.digest(),
            "digest is recomputed on decode"
        );
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn batch_digest_binds_order_and_contents() {
        let a = ProposedRequest::application(vec![1], NodeId(0));
        let b = ProposedRequest::application(vec![2], NodeId(1));
        let ab = ProposedBatch::new(vec![a.clone(), b.clone()]);
        let ba = ProposedBatch::new(vec![b.clone(), a.clone()]);
        assert_ne!(ab.digest(), ba.digest(), "digest binds request order");
        let mut tampered = ab.requests().to_vec();
        tampered[1].payload.push(0xFF);
        assert_ne!(ab.digest(), ProposedBatch::new(tampered).digest());
    }

    #[test]
    fn single_request_batch_matches_explicit_construction() {
        let request = ProposedRequest::application(vec![7; 32], NodeId(3));
        assert_eq!(
            ProposedBatch::single(request.clone()),
            ProposedBatch::new(vec![request])
        );
    }

    #[test]
    fn empty_batch_is_rejected_off_the_wire() {
        // A varint count of zero followed by nothing.
        assert!(matches!(
            zugchain_wire::from_bytes::<ProposedBatch>(&[0]),
            Err(WireError::InvalidLength { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "never empty")]
    fn empty_batch_construction_panics() {
        let _ = ProposedBatch::new(Vec::new());
    }

    #[test]
    fn payload_digests_are_cached_in_batch_order() {
        let requests = vec![
            ProposedRequest::application(vec![1; 40], NodeId(0)),
            ProposedRequest::application(vec![2; 40], NodeId(1)),
            ProposedRequest::noop(NodeId(2)),
        ];
        let batch = ProposedBatch::new(requests.clone());
        let expected: Vec<Digest> = requests
            .iter()
            .map(ProposedRequest::payload_digest)
            .collect();
        assert_eq!(batch.payload_digests(), expected.as_slice());
    }

    #[test]
    fn payload_byte_flip_inside_encoded_batch_changes_digest() {
        // Regression guard for the single-pass digest: if the chain bound
        // only per-request headers (or only the concatenated request
        // bytes) a payload flip deep inside a batch could leave the batch
        // digest unchanged. Flip one payload byte in the wire encoding;
        // the decoded batch must recompute a different digest.
        let batch = ProposedBatch::new(vec![
            ProposedRequest::application(vec![0x11; 64], NodeId(0)).with_time(5),
            ProposedRequest::application(vec![0xAA; 64], NodeId(1)).with_time(6),
        ]);
        let mut bytes = zugchain_wire::to_bytes(&batch);
        let pos = bytes
            .iter()
            .position(|&b| b == 0xAA)
            .expect("payload bytes present in encoding");
        bytes[pos] ^= 0x01;
        let tampered: ProposedBatch = zugchain_wire::from_bytes(&bytes).unwrap();
        assert_ne!(
            tampered.digest(),
            batch.digest(),
            "payload mutation must change the order-binding batch digest"
        );
        assert_ne!(tampered.payload_digests()[1], batch.payload_digests()[1]);
        assert_eq!(tampered.payload_digests()[0], batch.payload_digests()[0]);
    }

    #[test]
    fn into_requests_is_unchanged_by_sharing() {
        let batch = ProposedBatch::new(vec![
            ProposedRequest::application(vec![3; 8], NodeId(0)),
            ProposedRequest::application(vec![4; 8], NodeId(1)),
        ]);
        let shared = batch.clone();
        let via_shared = shared.into_requests();
        let via_unique = batch.clone().into_requests();
        assert_eq!(via_shared, via_unique);
        assert_eq!(via_unique, batch.requests().to_vec());
    }
}
