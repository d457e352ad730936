//! Property tests for the wire codec over every message the node layer
//! exchanges: each [`NodeMessage`] variant (covering all six PBFT
//! [`Message`] kinds and all three [`LayerMessage`] kinds) must survive
//! an encode/decode roundtrip unchanged, every strict prefix of an
//! encoding must be rejected (a torn read never yields a phantom
//! message), and trailing garbage after a valid encoding must be
//! rejected (framing bugs cannot smuggle extra bytes past the decoder).
//! The retired vote-certificate tags 6 and 7 must not decode at all.
//!
//! The MAC-authenticated envelope ([`Auth::Mac`]) gets the same codec
//! treatment plus its authentication properties: at arbitrary key
//! pairs, a forged tag (computed under a different master secret) and a
//! tampered tag byte must both fail verification.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use zugchain::{LayerMessage, NodeMessage, SignedRequest};
use zugchain_crypto::{Digest, KeyPair, Keystore, SessionKeys};
use zugchain_pbft::{
    Auth, AuthVerdict, Checkpoint, CheckpointProof, Message, NewView, NodeId, PrePrepare, Prepare,
    PreparedCert, ProposedBatch, ProposedRequest, SignedMessage, ViewChange,
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
    ) {
        let (keys, _) = Keystore::generate(4, 0xC0DEC);
        for message in pbft_messages(view, sn, &payload, time_ms, &keys) {
            check_codec(&message, &garbage)?;
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
    /// MAC-tagged envelopes — with and without the embedded signature
    /// fallback — roundtrip exactly and reject every strict prefix and
    /// any trailing garbage, over every PBFT message kind.
    fn mac_envelope_codec_is_exact(
        view in 0u64..1000,
        sn in 0u64..100_000,
        payload in proptest::collection::vec(any::<u8>(), 0..48),
        time_ms in any::<u64>(),
        garbage in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let (keys, keystore) = Keystore::generate(4, 0xC0DEC);
        let session = SessionKeys::derive(&keystore, 0);
        for message in pbft_messages(view, sn, &payload, time_ms, &keys) {
            let tagged = SignedMessage::sign_mac(NodeId(0), message.clone(), &session, None);
            check_codec(&tagged, &garbage)?;
            let with_fallback =
                SignedMessage::sign_mac(NodeId(0), message, &session, Some(&keys[0]));
            check_codec(&with_fallback, &garbage)?;
        }
    }

    #[test]
    /// At arbitrary key pairs: a genuine MAC envelope verifies on the
    /// fast path; one forged under a different master secret is
    /// rejected outright (no fallback signature) or demoted to the
    /// signature fallback (valid embedded signature); and flipping any
    /// single byte of the receiver's tag kills the fast path.
    fn forged_and_tampered_macs_are_rejected(
        keyset_seed in any::<u64>(),
        forged_seed in any::<u64>(),
        sn in 0u64..100_000,
        payload in proptest::collection::vec(any::<u8>(), 1..48),
        flip_byte in 0usize..32,
    ) {
        prop_assume!(keyset_seed != forged_seed);
        let (keys, keystore) = Keystore::generate(4, keyset_seed);
        let sender = SessionKeys::derive(&keystore, 1);
        let receiver = SessionKeys::derive(&keystore, 2);
        let message = Message::Commit(zugchain_pbft::Commit {
            view: 0,
            sn,
            digest: Digest::of(&payload),
        });

        // Genuine envelope: fast path.
        let genuine = SignedMessage::sign_mac(NodeId(1), message.clone(), &sender, None);
        prop_assert_eq!(
            genuine.verify_auth(&keystore, &receiver),
            AuthVerdict::MacValid
        );

        // Forged under a different permissioned keyset: the pairwise
        // keys differ, so every tag fails. Without a fallback signature
        // the envelope is dead; with a *valid* embedded signature it
        // survives, but only via the (counted) signature fallback.
        let (_, forged_keystore) = Keystore::generate(4, forged_seed);
        let forger = SessionKeys::derive(&forged_keystore, 1);
        let forged = SignedMessage::sign_mac(NodeId(1), message.clone(), &forger, None);
        prop_assert_eq!(
            forged.verify_auth(&keystore, &receiver),
            AuthVerdict::Invalid
        );
        let forged_with_sig =
            SignedMessage::sign_mac(NodeId(1), message.clone(), &forger, Some(&keys[1]));
        prop_assert_eq!(
            forged_with_sig.verify_auth(&keystore, &receiver),
            AuthVerdict::SigFallback
        );

        // Tamper with the receiver's tag: any single flipped byte must
        // break it.
        let mut tampered = genuine;
        if let Auth::Mac { ref mut tags, .. } = tampered.auth {
            for (peer, tag) in tags.iter_mut() {
                if peer.0 == 2 {
                    let mut bytes = *tag.as_bytes();
                    bytes[flip_byte] ^= 0x01;
                    *tag = zugchain_crypto::MacTag::from_bytes(bytes);
                }
            }
        }
        prop_assert_eq!(
            tampered.verify_auth(&keystore, &receiver),
            AuthVerdict::Invalid
        );
    }
}
