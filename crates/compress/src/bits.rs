//! Bit-granular writer and reader used by every log encoder.

/// Append-only bit stream writer.
///
/// Bits are packed least-significant-bit first within each byte, which
/// keeps the encoding independent of entry width: a 4-bit PI-log entry
/// followed by a 32-bit CS-log entry round-trips exactly.
///
/// # Examples
///
/// ```
/// use delorean_compress::BitWriter;
/// let mut w = BitWriter::new();
/// w.write_bits(5, 3);
/// assert_eq!(w.bit_len(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Number of valid bits in the stream.
    bit_len: u64,
}

impl BitWriter {
    /// Creates an empty bit stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.bit_len
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.bit_len == 0
    }

    /// Appends the low `width` bits of `value` (LSB first).
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or if `value` has bits set above `width`.
    pub fn write_bits(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "bit width {width} exceeds 64");
        if width < 64 {
            assert!(
                value < (1u64 << width),
                "value {value:#x} does not fit in {width} bits"
            );
        }
        // Fill the free high bits of the partial last byte, then append
        // the rest as whole bytes: all eight, cut back to the bytes the
        // stream now spans. `value` has no bits above `width`, so whatever
        // lands past it is zero padding.
        let used = (self.bit_len % 8) as u32;
        let mut rest = value;
        if used != 0 {
            if let Some(last) = self.bytes.last_mut() {
                *last |= (value << used) as u8;
            }
            rest >>= (8 - used).min(width);
        }
        self.bytes.extend_from_slice(&rest.to_le_bytes());
        self.bit_len += u64::from(width);
        self.bytes.truncate(self.bit_len.div_ceil(8) as usize);
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(u64::from(bit), 1);
    }

    /// Appends an unsigned value in Elias-gamma-style variable width:
    /// `width` of the value is chosen by the caller as `chunks` of
    /// `group` bits each followed by a continuation bit.
    ///
    /// This is the generic varint used by the baseline recorders for
    /// instruction-count deltas.
    pub fn write_varint(&mut self, mut value: u64, group: u32) {
        assert!((1..=32).contains(&group), "group must be in 1..=32");
        loop {
            let low = value & ((1u64 << group) - 1);
            value >>= group;
            self.write_bits(low, group);
            self.write_bit(value != 0);
            if value == 0 {
                break;
            }
        }
    }

    /// Consumes the writer and returns the packed bytes (final partial
    /// byte zero-padded).
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Borrows the packed bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Reader over a bit stream produced by [`BitWriter`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: u64,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Current bit position.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Reads `width` bits; returns `None` when the stream is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn read_bits(&mut self, width: u32) -> Option<u64> {
        assert!(width <= 64, "bit width {width} exceeds 64");
        let end = self.pos + u64::from(width);
        if end > self.bytes.len() as u64 * 8 {
            return None;
        }
        // The bits span at most nine bytes: load sixteen (fewer near the
        // end), then shift and mask once.
        let first = (self.pos / 8) as usize;
        let window = match self.bytes[first..].first_chunk::<16>() {
            Some(window) => *window,
            None => {
                let mut window = [0u8; 16];
                window[..self.bytes.len() - first].copy_from_slice(&self.bytes[first..]);
                window
            }
        };
        let bits = u128::from_le_bytes(window) >> (self.pos % 8);
        self.pos = end;
        Some((bits & ((1u128 << width) - 1)) as u64)
    }

    /// Reads a single bit.
    pub fn read_bit(&mut self) -> Option<bool> {
        self.read_bits(1).map(|b| b != 0)
    }

    /// Reads a varint written by [`BitWriter::write_varint`] with the
    /// same `group` width.
    pub fn read_varint(&mut self, group: u32) -> Option<u64> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let low = self.read_bits(group)?;
            value |= low << shift;
            shift += group;
            if !self.read_bit()? {
                break;
            }
        }
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A writer that stores one bit per step, the reference for
    /// [`BitWriter::write_bits`]: its bytes and bit length.
    fn reference_write(items: &[(u64, u32)]) -> (Vec<u8>, u64) {
        let (mut bytes, mut bit_len) = (Vec::new(), 0u64);
        for &(value, width) in items {
            for i in 0..width {
                let pos = bit_len + u64::from(i);
                if (pos / 8) as usize == bytes.len() {
                    bytes.push(0);
                }
                bytes[(pos / 8) as usize] |= (((value >> i) & 1) as u8) << (pos % 8);
            }
            bit_len += u64::from(width);
        }
        (bytes, bit_len)
    }

    /// A reader that loads one bit per step, the reference for
    /// [`BitReader::read_bits`].
    fn reference_read(bytes: &[u8], pos: u64, width: u32) -> Option<u64> {
        if pos + u64::from(width) > bytes.len() as u64 * 8 {
            return None;
        }
        let mut value = 0u64;
        for i in 0..width {
            let p = pos + u64::from(i);
            value |= u64::from((bytes[(p / 8) as usize] >> (p % 8)) & 1) << i;
        }
        Some(value)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Whole-byte writes and reads equal the per-bit reference, up to
        /// a read that ends exactly at the end of the buffer, and a read
        /// one bit longer is `None`.
        #[test]
        fn whole_byte_io_matches_per_bit_reference(
            items in proptest::collection::vec((0u32..=64, any::<u64>()), 0..64),
            tail in 0u64..=64,
            stride in 1u32..=64,
        ) {
            let items: Vec<(u64, u32)> = items
                .iter()
                .map(|&(width, v)| (if width == 64 { v } else { v & ((1u64 << width) - 1) }, width))
                .collect();
            let mut w = BitWriter::new();
            for &(value, width) in &items {
                w.write_bits(value, width);
            }
            let (bytes, bit_len) = reference_write(&items);
            prop_assert_eq!(w.bit_len(), bit_len);
            prop_assert_eq!(w.as_bytes(), &bytes[..]);

            let mut r = BitReader::new(&bytes);
            for &(value, width) in &items {
                prop_assert_eq!(r.read_bits(width), Some(value));
            }
            // Re-read at `stride`-bit steps up to `tail` bits before the
            // end, then read exactly to the end.
            let end = bytes.len() as u64 * 8;
            let last = end.saturating_sub(tail);
            let mut r = BitReader::new(&bytes);
            while r.position() < last {
                let width = stride.min((last - r.position()) as u32);
                let want = reference_read(&bytes, r.position(), width);
                prop_assert_eq!(r.read_bits(width), want);
            }
            let exact = (end - last) as u32;
            if exact < 64 {
                prop_assert_eq!(r.clone().read_bits(exact + 1), None);
            }
            let want = reference_read(&bytes, last, exact);
            prop_assert!(want.is_some());
            prop_assert_eq!(r.read_bits(exact), want);
            prop_assert_eq!(r.read_bits(0), Some(0));
            prop_assert_eq!(r.read_bits(1), None);
        }
    }

    #[test]
    fn round_trip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.write_bits(0b1010, 4);
        w.write_bits(0xdead, 16);
        w.write_bits(0, 7);
        w.write_bits(u64::MAX, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(1), Some(1));
        assert_eq!(r.read_bits(4), Some(0b1010));
        assert_eq!(r.read_bits(16), Some(0xdead));
        assert_eq!(r.read_bits(7), Some(0));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3), Some(0b101));
        // The padding bits of the final byte are readable but a
        // request past the byte length fails.
        assert_eq!(r.read_bits(6), None);
    }

    #[test]
    fn empty_writer() {
        let w = BitWriter::new();
        assert!(w.is_empty());
        assert_eq!(w.bit_len(), 0);
        assert!(w.into_bytes().is_empty());
    }

    #[test]
    fn bit_len_tracks_writes() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.write_bits(3, 2);
        assert_eq!(w.bit_len(), 3);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_panics() {
        let mut w = BitWriter::new();
        w.write_bits(0b100, 2);
    }

    #[test]
    fn varint_round_trip() {
        let values = [0u64, 1, 7, 8, 127, 128, 1 << 20, u64::MAX / 3];
        for group in [1u32, 3, 7, 8, 16] {
            let mut w = BitWriter::new();
            for &v in &values {
                w.write_varint(v, group);
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &v in &values {
                assert_eq!(r.read_varint(group), Some(v), "group={group}");
            }
        }
    }

    #[test]
    fn small_varint_is_small() {
        let mut w = BitWriter::new();
        w.write_varint(3, 4);
        assert_eq!(w.bit_len(), 5);
    }
}
