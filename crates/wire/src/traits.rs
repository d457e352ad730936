use crate::{Reader, WireError, Writer};

/// Types that serialize canonically to the ZugChain wire format.
///
/// Implementations must be deterministic: the same value always produces
/// the same bytes. This invariant is load-bearing — block hashes and
/// message signatures are computed over encoded bytes.
pub trait Encode {
    /// Appends this value's canonical encoding to `w`.
    fn encode(&self, w: &mut Writer);

    /// Size in bytes of the canonical encoding.
    ///
    /// The default implementation encodes into a scratch buffer; override
    /// for hot paths if needed.
    fn encoded_len(&self) -> usize {
        let mut w = Writer::with_capacity(crate::FRAME_CAPACITY);
        self.encode(&mut w);
        w.len()
    }
}

/// Types that deserialize from the ZugChain wire format.
pub trait Decode: Sized {
    /// Reads one value from `r`.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] from malformed or truncated input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

impl Encode for u8 {
    fn encode(&self, w: &mut Writer) {
        w.write_u8(*self);
    }
}

impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.read_u8()
    }
}

impl Encode for u16 {
    fn encode(&self, w: &mut Writer) {
        w.write_u16(*self);
    }
}

impl Decode for u16 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.read_u16()
    }
}

impl Encode for u32 {
    fn encode(&self, w: &mut Writer) {
        w.write_u32(*self);
    }
}

impl Decode for u32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.read_u32()
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut Writer) {
        w.write_u64(*self);
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.read_u64()
    }
}

impl Encode for i64 {
    fn encode(&self, w: &mut Writer) {
        w.write_i64(*self);
    }
}

impl Decode for i64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.read_i64()
    }
}

impl Encode for f64 {
    fn encode(&self, w: &mut Writer) {
        w.write_f64(*self);
    }
}

impl Decode for f64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.read_f64()
    }
}

impl Encode for bool {
    fn encode(&self, w: &mut Writer) {
        w.write_u8(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::InvalidDiscriminant {
                type_name: "bool",
                value: u64::from(other),
            }),
        }
    }
}

impl Encode for [u8] {
    fn encode(&self, w: &mut Writer) {
        w.write_bytes(self);
    }
}

impl Encode for Vec<u8> {
    fn encode(&self, w: &mut Writer) {
        w.write_bytes(self);
    }
}

impl Decode for Vec<u8> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.read_bytes()?.to_vec())
    }
}

impl Encode for str {
    fn encode(&self, w: &mut Writer) {
        w.write_bytes(self.as_bytes());
    }
}

impl Encode for String {
    fn encode(&self, w: &mut Writer) {
        w.write_bytes(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes = r.read_bytes()?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| WireError::InvalidUtf8)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.write_u8(0),
            Some(value) => {
                w.write_u8(1);
                value.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::InvalidOptionTag(tag)),
        }
    }
}

// Sequences of non-byte elements. `Vec<u8>` has a dedicated, denser impl
// above; Rust's coherence rules allow both because this impl is bounded by
// a local trait the byte impls don't go through.
macro_rules! impl_seq {
    ($ty:ty) => {
        impl Encode for Vec<$ty> {
            fn encode(&self, w: &mut Writer) {
                w.write_varint(self.len() as u64);
                for item in self {
                    item.encode(w);
                }
            }
        }

        impl Decode for Vec<$ty> {
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let len = r.read_varint()?;
                if len > crate::reader::MAX_FIELD_LEN {
                    return Err(WireError::LengthLimitExceeded {
                        declared: len,
                        limit: crate::reader::MAX_FIELD_LEN,
                    });
                }
                let mut items = Vec::with_capacity((len as usize).min(1024));
                for _ in 0..len {
                    items.push(<$ty>::decode(r)?);
                }
                Ok(items)
            }
        }
    };
}

impl_seq!(u64);

/// Encodes a sequence of encodable items with a varint count prefix.
///
/// Used by higher-level crates for `Vec<T>` fields of domain types, since a
/// blanket `impl Encode for Vec<T>` would conflict with the dense `Vec<u8>`
/// impl.
pub fn encode_seq<T: Encode>(items: &[T], w: &mut Writer) {
    w.write_varint(items.len() as u64);
    for item in items {
        item.encode(w);
    }
}

/// Decodes a sequence written by [`encode_seq`].
///
/// # Errors
///
/// Length-limit and element decode errors.
pub fn decode_seq<T: Decode>(r: &mut Reader<'_>) -> Result<Vec<T>, WireError> {
    let len = r.read_varint()?;
    if len > crate::reader::MAX_FIELD_LEN {
        return Err(WireError::LengthLimitExceeded {
            declared: len,
            limit: crate::reader::MAX_FIELD_LEN,
        });
    }
    let mut items = Vec::with_capacity((len as usize).min(1024));
    for _ in 0..len {
        items.push(T::decode(r)?);
    }
    Ok(items)
}

impl<const N: usize> Encode for [u8; N] {
    fn encode(&self, w: &mut Writer) {
        w.write_raw(self);
    }
}

impl<const N: usize> Decode for [u8; N] {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes = r.read_raw(N)?;
        Ok(bytes.try_into().expect("read_raw returns exactly N bytes"))
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_bytes, to_bytes};

    #[test]
    fn option_round_trip() {
        assert_eq!(
            from_bytes::<Option<u64>>(&to_bytes(&Some(9u64))).unwrap(),
            Some(9)
        );
        assert_eq!(
            from_bytes::<Option<u64>>(&to_bytes(&None::<u64>)).unwrap(),
            None
        );
    }

    #[test]
    fn option_rejects_bad_tag() {
        assert_eq!(
            from_bytes::<Option<u64>>(&[2]),
            Err(WireError::InvalidOptionTag(2))
        );
    }

    #[test]
    fn bool_rejects_bad_discriminant() {
        assert!(matches!(
            from_bytes::<bool>(&[7]),
            Err(WireError::InvalidDiscriminant { .. })
        ));
    }

    #[test]
    fn string_round_trip_and_utf8_rejection() {
        let s = "Notbremse aktiviert".to_string();
        assert_eq!(from_bytes::<String>(&to_bytes(&s)).unwrap(), s);
        // Length 1, invalid UTF-8 byte.
        assert_eq!(
            from_bytes::<String>(&[1, 0xff]),
            Err(WireError::InvalidUtf8)
        );
    }

    #[test]
    fn fixed_array_round_trip() {
        let a = [7u8; 32];
        assert_eq!(from_bytes::<[u8; 32]>(&to_bytes(&a)).unwrap(), a);
        assert_eq!(to_bytes(&a).len(), 32, "fixed arrays have no length prefix");
    }

    #[test]
    fn seq_helpers_round_trip() {
        let items = vec!["a".to_string(), "bb".to_string()];
        let mut w = crate::Writer::new();
        encode_seq(&items, &mut w);
        let bytes = w.into_bytes();
        let mut r = crate::Reader::new(&bytes);
        let back: Vec<String> = decode_seq(&mut r).unwrap();
        assert_eq!(back, items);
    }
}
