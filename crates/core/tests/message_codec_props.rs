//! Property tests for the wire codec over every message the node layer
//! exchanges: each [`NodeMessage`] variant (covering all six PBFT
//! [`Message`] kinds and all three [`LayerMessage`] kinds) must survive
//! an encode/decode roundtrip unchanged, every strict prefix of an
//! encoding must be rejected (a torn read never yields a phantom
//! message), and trailing garbage after a valid encoding must be
//! rejected (framing bugs cannot smuggle extra bytes past the decoder).
//! The retired vote-certificate tags 6 and 7 must not decode at all.
//! A signed envelope is exactly `from ‖ message ‖ 0x00 ‖ signature`,
//! and any other authentication tag byte fails to decode. That includes
//! the MAC-tagged envelope (tag `1`) of the removed session-key
//! authenticator: it is refused at its tag byte whatever its tags, so a
//! MAC forged from the public keystore never reaches a replica, while a
//! signed envelope tampered with after signing fails verification.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use zugchain::{LayerMessage, NodeMessage, SignedRequest};
use zugchain_crypto::{Digest, KeyPair, Keystore, Signature};
use zugchain_pbft::{
    Checkpoint, CheckpointProof, Message, NewView, NodeId, PrePrepare, Prepare, PreparedCert,
    ProposedBatch, ProposedRequest, SignedMessage, ViewChange,
};
use zugchain_wire::{from_bytes, to_bytes, Decode, Encode, WireError, Writer};

/// Roundtrip + truncation + trailing-garbage checks for one value.
fn check_codec<T>(value: &T, garbage: &[u8]) -> Result<(), TestCaseError>
where
    T: Encode + Decode + PartialEq + std::fmt::Debug,
{
    let bytes = to_bytes(value);

    let decoded: T = match from_bytes(&bytes) {
        Ok(decoded) => decoded,
        Err(e) => return Err(TestCaseError::fail(format!("decode failed: {e:?}"))),
    };
    prop_assert_eq!(&decoded, value);

    // Every field is consumed in order and the reader demands full
    // consumption, so no strict prefix may parse as a message.
    for cut in 0..bytes.len() {
        prop_assert!(
            from_bytes::<T>(&bytes[..cut]).is_err(),
            "prefix of length {} of a {}-byte encoding decoded",
            cut,
            bytes.len(),
        );
    }

    let mut extended = bytes;
    extended.extend_from_slice(garbage);
    prop_assert!(
        from_bytes::<T>(&extended).is_err(),
        "encoding with {} trailing garbage bytes decoded",
        garbage.len(),
    );
    Ok(())
}

/// One exemplar of every PBFT [`Message`] variant, driven by the
/// property inputs. The certificate-bearing variants get both populated
/// and empty option/list fields.
fn pbft_messages(
    view: u64,
    sn: u64,
    payload: &[u8],
    time_ms: u64,
    keys: &[KeyPair],
) -> Vec<Message> {
    let origin = NodeId(payload.len() as u64 % keys.len() as u64);
    let request = ProposedRequest::application(payload.to_vec(), origin).with_time(time_ms);
    let digest = Digest::of(payload);
    // A multi-request batch, so the length-prefixed batch codec is part
    // of the property.
    let batch = ProposedBatch::new(vec![
        request.clone(),
        ProposedRequest::noop(origin),
        ProposedRequest::application(payload.to_vec(), NodeId(0)),
    ]);
    let preprepare = PrePrepare {
        view,
        sn,
        batch: batch.clone(),
    };
    let checkpoint = Checkpoint {
        sn,
        state_digest: digest,
    };
    let proof = CheckpointProof {
        checkpoint,
        signatures: keys
            .iter()
            .enumerate()
            .map(|(id, key)| (NodeId(id as u64), key.sign(&to_bytes(&checkpoint))))
            .collect(),
    };
    let prepared = PreparedCert {
        view,
        sn,
        batch,
        prepare_signatures: vec![(NodeId(1), keys[1].sign(payload))],
    };
    let full_vc = ViewChange {
        new_view: view + 1,
        last_stable_sn: sn,
        checkpoint_proof: Some(proof),
        prepared: vec![prepared],
    };
    let empty_vc = ViewChange {
        new_view: view + 1,
        last_stable_sn: 0,
        checkpoint_proof: None,
        prepared: Vec::new(),
    };
    let new_view = NewView {
        view: view + 1,
        view_changes: vec![
            SignedMessage::sign(NodeId(2), Message::ViewChange(full_vc.clone()), &keys[2]),
            SignedMessage::sign(NodeId(3), Message::ViewChange(empty_vc.clone()), &keys[3]),
        ],
        preprepares: vec![preprepare.clone()],
    };
    vec![
        Message::PrePrepare(preprepare),
        Message::Prepare(Prepare { view, sn, digest }),
        Message::Commit(zugchain_pbft::Commit { view, sn, digest }),
        Message::Checkpoint(checkpoint),
        Message::ViewChange(full_vc),
        Message::ViewChange(empty_vc),
        Message::NewView(new_view),
    ]
}

/// The envelope the removed session-key authenticator wrote:
/// `from ‖ message ‖ 0x01 ‖ count ‖ (peer ‖ tag)* ‖ Option<signature>`,
/// one 32-byte tag from `tag_bytes` for each other replica of four.
fn mac_envelope(
    from: NodeId,
    message: &Message,
    tag_bytes: &[u8],
    fallback: Option<Signature>,
) -> Vec<u8> {
    let mut w = Writer::new();
    from.encode(&mut w);
    message.encode(&mut w);
    w.write_u8(1);
    w.write_varint(3);
    let peers = (0..4u64).filter(|peer| *peer != from.0);
    for (peer, tag) in peers.zip(tag_bytes.chunks(32)) {
        NodeId(peer).encode(&mut w);
        w.write_raw(tag);
    }
    fallback.encode(&mut w);
    w.into_bytes()
}

/// The error every MAC-tagged envelope decodes to.
const MAC_TAG_REFUSED: WireError = WireError::InvalidDiscriminant {
    type_name: "SignedMessage",
    value: 1,
};

/// Every [`NodeMessage`] variant: each PBFT message wrapped as
/// consensus traffic, plus all three layer-message kinds.
fn node_messages(
    view: u64,
    sn: u64,
    payload: &[u8],
    time_ms: u64,
    keys: &[KeyPair],
) -> Vec<NodeMessage> {
    let mut messages: Vec<NodeMessage> = pbft_messages(view, sn, payload, time_ms, keys)
        .into_iter()
        .map(|m| NodeMessage::Consensus(SignedMessage::sign(NodeId(0), m, &keys[0])))
        .collect();
    let origin = NodeId(payload.len() as u64 % keys.len() as u64);
    let request = ProposedRequest::application(payload.to_vec(), origin).with_time(time_ms);
    let signed = SignedRequest::sign(request, &keys[origin.0 as usize]);
    messages.push(NodeMessage::Layer(LayerMessage::BroadcastRequest(
        signed.clone(),
    )));
    messages.push(NodeMessage::Layer(LayerMessage::ForwardRequest(
        signed.clone(),
    )));
    messages.push(NodeMessage::Layer(LayerMessage::ClientRequest(signed)));
    messages
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    /// All PBFT consensus message kinds roundtrip and reject torn or
    /// padded encodings, both bare and wrapped in a signed envelope.
    fn pbft_message_codec_is_exact(
        view in 0u64..1000,
        sn in 0u64..100_000,
        payload in proptest::collection::vec(any::<u8>(), 0..48),
        time_ms in any::<u64>(),
        garbage in proptest::collection::vec(any::<u8>(), 1..8),
        bad_tag in 1u8..=255,
    ) {
        let (keys, _) = Keystore::generate(4, 0xC0DEC);
        for message in pbft_messages(view, sn, &payload, time_ms, &keys) {
            check_codec(&message, &garbage)?;
            // The envelope is the sender, the message, a zero tag byte
            // and the signature, nothing else.
            let signed = SignedMessage::sign(NodeId(1), message.clone(), &keys[1]);
            check_codec(&signed, &garbage)?;
            let mut expected = to_bytes(&NodeId(1));
            expected.extend_from_slice(&to_bytes(&message));
            let tag_at = expected.len();
            expected.push(0);
            expected.extend_from_slice(&to_bytes(&signed.signature()));
            let mut retagged = to_bytes(&signed);
            prop_assert_eq!(&retagged, &expected);
            // Any other tag byte names an authentication form that does
            // not exist.
            retagged[tag_at] = bad_tag;
            prop_assert_eq!(
                from_bytes::<SignedMessage>(&retagged),
                Err(WireError::InvalidDiscriminant {
                    type_name: "SignedMessage",
                    value: u64::from(bad_tag),
                })
            );
        }
        // Tags 6 and 7 carried the removed vote certificates: a
        // well-formed former body behind either tag is an unknown kind.
        for tag in [6u8, 7] {
            let mut w = Writer::new();
            w.write_u8(tag);
            w.write_u64(view);
            w.write_u64(sn);
            Digest::of(&payload).encode(&mut w);
            w.write_varint(0);
            prop_assert_eq!(
                from_bytes::<Message>(&w.into_bytes()),
                Err(WireError::InvalidDiscriminant { type_name: "Message", value: u64::from(tag) })
            );
        }
    }

    #[test]
    /// All node-layer message kinds (consensus envelope and the three
    /// layer requests) roundtrip and reject torn or padded encodings.
    fn node_message_codec_is_exact(
        view in 0u64..1000,
        sn in 0u64..100_000,
        payload in proptest::collection::vec(any::<u8>(), 0..48),
        time_ms in any::<u64>(),
        garbage in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let (keys, _) = Keystore::generate(4, 0xC0DEC);
        for message in node_messages(view, sn, &payload, time_ms, &keys) {
            check_codec(&message, &garbage)?;
        }
    }

    #[test]
    /// The MAC-tagged envelope, with and without the embedded fallback
    /// signature, is refused exactly at its tag byte over every PBFT
    /// message kind: whole, padded with garbage, or cut anywhere past the
    /// tag, it fails with the same error. Its sender and message bytes
    /// followed by a zero tag and the sender's signature are exactly the
    /// signed envelope.
    fn mac_envelope_codec_is_exact(
        view in 0u64..1000,
        sn in 0u64..100_000,
        payload in proptest::collection::vec(any::<u8>(), 0..48),
        time_ms in any::<u64>(),
        garbage in proptest::collection::vec(any::<u8>(), 1..8),
        tag_bytes in proptest::collection::vec(any::<u8>(), 96..97),
    ) {
        let (keys, _) = Keystore::generate(4, 0xC0DEC);
        for message in pbft_messages(view, sn, &payload, time_ms, &keys) {
            let signed = SignedMessage::sign(NodeId(0), message.clone(), &keys[0]);
            let tag_at = to_bytes(&NodeId(0)).len() + to_bytes(&message).len();
            for fallback in [None, Some(signed.signature())] {
                let frame = mac_envelope(NodeId(0), &message, &tag_bytes, fallback);
                prop_assert_eq!(frame[tag_at], 1);
                for cut in tag_at + 1..=frame.len() {
                    prop_assert_eq!(
                        from_bytes::<SignedMessage>(&frame[..cut]),
                        Err(MAC_TAG_REFUSED)
                    );
                }
                let mut padded = frame.clone();
                padded.extend_from_slice(&garbage);
                prop_assert_eq!(from_bytes::<SignedMessage>(&padded), Err(MAC_TAG_REFUSED));

                let mut resigned = frame[..tag_at].to_vec();
                resigned.push(0);
                resigned.extend_from_slice(&to_bytes(&signed.signature()));
                prop_assert_eq!(&resigned, &to_bytes(&signed));
            }
        }
    }

    #[test]
    /// At arbitrary keysets and senders: a MAC-tagged envelope is
    /// refused before any key is consulted, whatever its tags (which
    /// covers every tag the public keystore lets anyone compute) and
    /// whether or not it embeds the sender's valid signature. The
    /// signed envelope of the same message verifies; flipping any one
    /// bit of its signature on the wire, changing its sn after signing
    /// or rewriting its sender makes verification fail.
    fn forged_and_tampered_macs_are_rejected(
        keyset_seed in any::<u64>(),
        sender in 0u64..4,
        sn in 0u64..100_000,
        payload in proptest::collection::vec(any::<u8>(), 1..48),
        tag_bytes in proptest::collection::vec(any::<u8>(), 96..97),
        flip_byte in 0usize..64,
        flip_bit in 0u8..8,
    ) {
        let (keys, keystore) = Keystore::generate(4, keyset_seed);
        let digest = Digest::of(&payload);
        let message = Message::Commit(zugchain_pbft::Commit { view: 0, sn, digest });
        let genuine = SignedMessage::sign(NodeId(sender), message.clone(), &keys[sender as usize]);
        prop_assert!(genuine.verify(&keystore));

        for fallback in [None, Some(genuine.signature())] {
            let forged = mac_envelope(NodeId(sender), &message, &tag_bytes, fallback);
            prop_assert_eq!(from_bytes::<SignedMessage>(&forged), Err(MAC_TAG_REFUSED));
        }

        let mut bytes = to_bytes(&genuine);
        let signature_at = bytes.len() - 64;
        bytes[signature_at + flip_byte] ^= 1 << flip_bit;
        let flipped = match from_bytes::<SignedMessage>(&bytes) {
            Ok(flipped) => flipped,
            Err(e) => return Err(TestCaseError::fail(format!("decode failed: {e:?}"))),
        };
        prop_assert_eq!(&flipped.message, &genuine.message);
        prop_assert!(!flipped.verify(&keystore));

        let mut tampered = genuine.clone();
        tampered.message = Message::Commit(zugchain_pbft::Commit { view: 0, sn: sn + 1, digest });
        prop_assert!(!tampered.verify(&keystore));

        let mut impersonated = genuine;
        impersonated.from = NodeId((sender + 1) % 4);
        prop_assert!(!impersonated.verify(&keystore));
    }
}
