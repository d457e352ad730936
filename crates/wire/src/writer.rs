/// The longest LEB128 varint a `u64` takes, in bytes.
pub const MAX_VARINT_LEN: usize = 10;

/// Number of bytes `value` takes as a minimal LEB128 varint — what
/// [`Writer::write_varint`] appends for it.
pub fn varint_len(value: u64) -> usize {
    let bits = 64 - (value | 1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Writes `value` as a minimal LEB128 varint to the front of `out` and
/// returns the number of bytes written: the one varint encoder, shared by
/// [`Writer::write_varint`] and by callers that hash an encoding without
/// building it.
pub fn put_varint(out: &mut [u8; MAX_VARINT_LEN], mut value: u64) -> usize {
    let mut len = 0;
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out[len] = byte;
            return len + 1;
        }
        out[len] = byte | 0x80;
        len += 1;
    }
}

/// An append-only buffer for encoding values in the ZugChain wire format.
///
/// Writing is infallible; the writer grows as needed.
///
/// # Examples
///
/// ```
/// use zugchain_wire::Writer;
///
/// let mut w = Writer::new();
/// w.write_u32(0xdead_beef);
/// w.write_bytes(b"jru");
/// assert_eq!(w.len(), 4 + 1 + 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Creates a writer with `capacity` bytes preallocated.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// A view of the bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends a single byte.
    pub fn write_u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    /// Appends a little-endian `u16`.
    pub fn write_u16(&mut self, value: u16) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn write_u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn write_u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn write_i64(&mut self, value: i64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a little-endian IEEE-754 `f64`.
    pub fn write_f64(&mut self, value: f64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a LEB128 varint.
    ///
    /// The encoding is minimal (canonical): no redundant trailing groups.
    pub fn write_varint(&mut self, value: u64) {
        let mut bytes = [0u8; MAX_VARINT_LEN];
        let len = put_varint(&mut bytes, value);
        self.buf.extend_from_slice(&bytes[..len]);
    }

    /// Appends a varint length prefix followed by the raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_varint(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends raw bytes without a length prefix.
    ///
    /// Use only for fixed-size fields whose length is known to the decoder
    /// (digests, keys, signatures).
    pub fn write_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_single_byte() {
        let mut w = Writer::new();
        w.write_varint(0);
        w.write_varint(127);
        assert_eq!(w.as_bytes(), &[0x00, 0x7f]);
    }

    #[test]
    fn varint_multi_byte() {
        let mut w = Writer::new();
        w.write_varint(128);
        assert_eq!(w.as_bytes(), &[0x80, 0x01]);
        let mut w = Writer::new();
        w.write_varint(u64::MAX);
        assert_eq!(w.len(), 10);
    }

    #[test]
    fn varint_len_matches_the_encoding() {
        for value in [
            0,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut w = Writer::new();
            w.write_varint(value);
            assert_eq!(varint_len(value), w.len(), "value {value}");
        }
    }

    #[test]
    fn length_prefixed_bytes() {
        let mut w = Writer::new();
        w.write_bytes(b"abc");
        assert_eq!(w.as_bytes(), &[3, b'a', b'b', b'c']);
    }

    #[test]
    fn fixed_width_little_endian() {
        let mut w = Writer::new();
        w.write_u32(1);
        assert_eq!(w.as_bytes(), &[1, 0, 0, 0]);
    }
}
