//! Causal trace context carried in wire envelopes (DESIGN.md §16).
//!
//! A [`TraceCtx`] names one request's journey through the pipeline: a
//! 64-bit trace id derived **deterministically** from `(train, origin,
//! payload digest)` — no randomness, no wall clock — so two runs of the
//! same simulated seed produce byte-identical trace dumps, and every
//! layer (consensus, export, archive, serving) re-derives the same id
//! from the data it already holds instead of threading state around.
//!
//! On the wire the context rides in a *tagged envelope* in front of the
//! canonical message bytes: one magic byte that no legacy frame can
//! start with, then the 16-byte context, then the unchanged inner
//! encoding. Frames without the magic byte decode as before with a
//! default (untraced) context, so old recordings and mixed-version
//! clusters keep working.

use crate::{Decode, Encode, Reader, WireError, Writer};

/// First byte of a traced envelope. Legacy top-level messages
/// (`NodeMessage`, export messages) start with a small enum tag (0–2),
/// so this value is unreachable in the old format and cleanly
/// distinguishes enveloped frames from bare ones.
pub const TRACE_ENVELOPE_MAGIC: u8 = 0xC7;

/// The causal context of one in-flight message: which end-to-end trace
/// it belongs to and which span caused it to be sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceCtx {
    /// Trace id ([`derive_trace_id`]); 0 means untraced.
    pub trace_id: u64,
    /// Span id of the sender-side span that caused this message; 0 when
    /// unknown.
    pub parent_span: u64,
}

impl TraceCtx {
    /// The untraced context (all zeros) — what legacy frames decode to.
    pub const NONE: TraceCtx = TraceCtx {
        trace_id: 0,
        parent_span: 0,
    };

    /// Whether this context actually names a trace.
    pub fn is_traced(&self) -> bool {
        self.trace_id != 0
    }
}

impl Encode for TraceCtx {
    fn encode(&self, w: &mut Writer) {
        w.write_u64(self.trace_id);
        w.write_u64(self.parent_span);
    }
}

impl Decode for TraceCtx {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(TraceCtx {
            trace_id: r.read_u64()?,
            parent_span: r.read_u64()?,
        })
    }
}

/// FNV-1a 64-bit — the simplest well-distributed deterministic hash
/// that needs no dependency and no key material. Trace ids are
/// correlation handles, not security tokens; collisions merely merge
/// two lifecycles in a dump.
fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash = seed;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Derives the trace id of one request from its stable identity:
/// the train it was recorded on, the node that read it off the bus, and
/// the digest of its payload (the same content identity consensus uses
/// for duplicate filtering). Never returns 0, so a derived id is always
/// [`TraceCtx::is_traced`].
pub fn derive_trace_id(train: u64, origin: u64, payload_digest: &[u8]) -> u64 {
    let mut hash = fnv1a(FNV_OFFSET, &train.to_le_bytes());
    hash = fnv1a(hash, &origin.to_le_bytes());
    hash = fnv1a(hash, payload_digest);
    if hash == 0 {
        1
    } else {
        hash
    }
}

/// Derives a span id from the trace, pipeline stage, and recording
/// node — a pure function, so any layer can name another layer's span
/// (e.g. a child naming its parent) without coordination. Never 0.
pub fn derive_span_id(trace_id: u64, stage: &str, node: u64) -> u64 {
    SpanIds::new(trace_id).derive(stage, node)
}

/// The span ids of one trace, with the trace id's share of the hash
/// taken once: `SpanIds::new(t).derive(stage, node)` is
/// [`derive_span_id`]`(t, stage, node)`. For code that names several
/// spans of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanIds {
    trace_id: u64,
    /// FNV-1a state after the trace id's bytes.
    prefix: u64,
}

impl SpanIds {
    /// Starts the span ids of `trace_id`.
    pub fn new(trace_id: u64) -> Self {
        Self {
            trace_id,
            prefix: fnv1a(FNV_OFFSET, &trace_id.to_le_bytes()),
        }
    }

    /// The trace these span ids belong to.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The id of `stage`'s span on `node`. Never 0.
    pub fn derive(&self, stage: &str, node: u64) -> u64 {
        let hash = fnv1a(fnv1a(self.prefix, stage.as_bytes()), &node.to_le_bytes());
        if hash == 0 {
            1
        } else {
            hash
        }
    }
}

/// Wraps canonical message bytes in a traced envelope:
/// `magic ‖ TraceCtx ‖ inner`.
pub fn encode_traced(ctx: TraceCtx, inner: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.write_u8(TRACE_ENVELOPE_MAGIC);
    ctx.encode(&mut w);
    let mut bytes = w.into_bytes();
    bytes.extend_from_slice(inner);
    bytes
}

/// Splits a frame into its trace context and inner message bytes.
///
/// Frames starting with [`TRACE_ENVELOPE_MAGIC`] must carry a complete
/// context; anything else is a legacy bare frame and decodes to
/// [`TraceCtx::NONE`] with the whole input as the inner message. The
/// caller decodes the returned slice with [`crate::from_bytes`], which
/// preserves strict-prefix and trailing-garbage rejection.
///
/// # Errors
///
/// [`WireError::UnexpectedEof`] if the magic byte is present but the
/// context is truncated.
pub fn decode_traced(bytes: &[u8]) -> Result<(TraceCtx, &[u8]), WireError> {
    match bytes.first() {
        Some(&TRACE_ENVELOPE_MAGIC) => {
            let mut r = Reader::new(&bytes[1..]);
            let ctx = TraceCtx::decode(&mut r)?;
            let consumed = 1 + (bytes.len() - 1 - r.remaining());
            Ok((ctx, &bytes[consumed..]))
        }
        _ => Ok((TraceCtx::NONE, bytes)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_bytes, to_bytes};

    #[test]
    fn ctx_round_trips_and_rejects_strict_prefixes() {
        let ctx = TraceCtx {
            trace_id: 0xDEAD_BEEF_0123_4567,
            parent_span: 42,
        };
        let bytes = to_bytes(&ctx);
        assert_eq!(bytes.len(), 16, "fixed-width context");
        assert_eq!(from_bytes::<TraceCtx>(&bytes).unwrap(), ctx);
        for cut in 0..bytes.len() {
            assert!(
                from_bytes::<TraceCtx>(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn ctx_rejects_trailing_garbage() {
        let mut bytes = to_bytes(&TraceCtx::NONE);
        bytes.push(0);
        assert!(matches!(
            from_bytes::<TraceCtx>(&bytes),
            Err(WireError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn derivation_is_deterministic_and_sensitive_to_every_input() {
        let digest = [7u8; 32];
        let id = derive_trace_id(3, 1, &digest);
        assert_eq!(id, derive_trace_id(3, 1, &digest));
        assert_ne!(id, 0);
        assert_ne!(id, derive_trace_id(4, 1, &digest));
        assert_ne!(id, derive_trace_id(3, 2, &digest));
        assert_ne!(id, derive_trace_id(3, 1, &[8u8; 32]));
        let span = derive_span_id(id, "decide", 2);
        assert_ne!(span, 0);
        assert_ne!(span, derive_span_id(id, "decide", 3));
        assert_ne!(span, derive_span_id(id, "commit", 2));
    }

    #[test]
    fn span_ids_equal_the_one_pass_hash() {
        for (trace_id, stage, node) in [
            (1, "decide", 0u64),
            (u64::MAX, "batch_flush", 6),
            (77, "", 3),
        ] {
            let mut bytes = trace_id.to_le_bytes().to_vec();
            bytes.extend_from_slice(stage.as_bytes());
            bytes.extend_from_slice(&node.to_le_bytes());
            let one_pass = fnv1a(FNV_OFFSET, &bytes);
            assert_eq!(derive_span_id(trace_id, stage, node), one_pass);
            assert_eq!(SpanIds::new(trace_id).derive(stage, node), one_pass);
            assert_eq!(SpanIds::new(trace_id).trace_id(), trace_id);
        }
    }

    #[test]
    fn envelope_round_trips() {
        let ctx = TraceCtx {
            trace_id: 9,
            parent_span: 4,
        };
        let inner = to_bytes(&123u64);
        let framed = encode_traced(ctx, &inner);
        assert_eq!(framed[0], TRACE_ENVELOPE_MAGIC);
        let (back, rest) = decode_traced(&framed).unwrap();
        assert_eq!(back, ctx);
        assert_eq!(from_bytes::<u64>(rest).unwrap(), 123);
    }

    #[test]
    fn bare_frames_decode_with_the_default_ctx() {
        // A legacy frame (no envelope) — e.g. a tag byte 0/1 message.
        let inner = to_bytes(&55u64);
        let (ctx, rest) = decode_traced(&inner).unwrap();
        assert_eq!(ctx, TraceCtx::NONE);
        assert_eq!(rest, &inner[..]);
        // Even the empty frame: envelope detection never consumes it.
        let (ctx, rest) = decode_traced(&[]).unwrap();
        assert_eq!(ctx, TraceCtx::NONE);
        assert!(rest.is_empty());
    }

    #[test]
    fn truncated_envelope_ctx_is_rejected() {
        let framed = encode_traced(TraceCtx::NONE, &to_bytes(&1u8));
        for cut in 1..17 {
            assert!(
                matches!(
                    decode_traced(&framed[..cut]),
                    Err(WireError::UnexpectedEof { .. })
                ),
                "envelope cut at {cut} must reject"
            );
        }
    }
}
