//! Deterministic, canonical binary wire format for ZugChain.
//!
//! The paper exchanges blockchain data in Protobuf format. ZugChain,
//! however, *hashes* encoded messages and blocks, which requires a
//! **canonical** encoding: the same value must always serialize to the same
//! bytes on every node. Protobuf does not guarantee canonical encoding, so
//! this reproduction substitutes a small, explicit, length-prefixed binary
//! codec (see `DESIGN.md` §3).
//!
//! The format is deliberately simple:
//!
//! * fixed-width little-endian integers for protocol fields,
//! * LEB128 varints for lengths and counts,
//! * length-prefixed byte strings,
//! * sequences as a varint count followed by the elements,
//! * `Option<T>` as a presence byte (`0`/`1`) followed by the value.
//!
//! # Examples
//!
//! ```
//! use zugchain_wire::{Encode, Decode, Reader, Writer, WireError};
//!
//! # fn main() -> Result<(), WireError> {
//! let mut w = Writer::new();
//! 42u64.encode(&mut w);
//! "brake applied".to_string().encode(&mut w);
//! let bytes = w.into_bytes();
//!
//! let mut r = Reader::new(&bytes);
//! assert_eq!(u64::decode(&mut r)?, 42);
//! assert_eq!(String::decode(&mut r)?, "brake applied");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod reader;
mod trace;
mod train;
mod traits;
mod writer;

pub use error::WireError;
pub use reader::Reader;
pub use reader::MAX_FIELD_LEN;
pub use trace::{
    decode_traced, derive_span_id, derive_trace_id, encode_traced, SpanIds, TraceCtx,
    TRACE_ENVELOPE_MAGIC,
};
pub use train::TrainId;
pub use traits::{decode_seq, encode_seq, Decode, Encode};
pub use writer::{put_varint, varint_len, Writer, MAX_VARINT_LEN};

/// The capacity [`to_bytes`] and the default [`Encode::encoded_len`]
/// start from. Every fixed-size consensus frame fits in that first
/// allocation (a signed Prepare or Commit is 123 bytes, a Checkpoint
/// 115), and larger values double from there instead of from 8 bytes.
pub(crate) const FRAME_CAPACITY: usize = 128;

/// Encodes a value into a fresh byte vector.
///
/// # Examples
///
/// ```
/// let bytes = zugchain_wire::to_bytes(&7u32);
/// assert_eq!(bytes, [7, 0, 0, 0]);
/// ```
pub fn to_bytes<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut w = Writer::with_capacity(FRAME_CAPACITY);
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes a value from a byte slice, requiring that all input is consumed.
///
/// # Errors
///
/// Returns [`WireError::TrailingBytes`] if the value does not span the whole
/// slice, or any decode error produced by `T`.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), zugchain_wire::WireError> {
/// let n: u32 = zugchain_wire::from_bytes(&[7, 0, 0, 0])?;
/// assert_eq!(n, 7);
/// # Ok(())
/// # }
/// ```
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    if !r.is_empty() {
        return Err(WireError::TrailingBytes {
            remaining: r.remaining(),
        });
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_requires_full_consumption() {
        let mut bytes = to_bytes(&5u16);
        bytes.push(0xff);
        let err = from_bytes::<u16>(&bytes).unwrap_err();
        assert!(matches!(err, WireError::TrailingBytes { remaining: 1 }));
    }
}
