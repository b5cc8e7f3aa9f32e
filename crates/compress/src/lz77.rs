//! A from-scratch sliding-window LZ77 codec.
//!
//! DeLorean's log buffers are compressed by LZ77 hardware; this module is
//! the software model of that block. The format is a classic
//! literal/match token stream:
//!
//! * `0` bit + 8-bit literal byte, or
//! * `1` bit + `DIST_BITS`-bit backward distance (1-based) +
//!   `LEN_BITS`-bit match length (stored as `len - MIN_MATCH`).
//!
//! Matching is greedy over hash chains of 3-byte prefixes. A position's
//! chain link lives in a ring of [`WINDOW`] slots, because a match
//! reaches back at most that far; each lookup tries up to 32 candidates
//! and keeps the first strictly longest match. That is close to what a
//! small hardware window achieves.
//!
//! The codec works one block at a time. [`compress`] makes a
//! self-contained block, whose matches never reach before its first
//! byte, and [`decompress`] decodes one with no state from earlier
//! blocks. Every `.dlrn` segment is one such block, so a reader can
//! start at any segment.
//!
//! # Examples
//!
//! ```
//! use delorean_compress::lz77;
//! let data = b"abcabcabcabcabc";
//! let packed = lz77::compress(data);
//! assert_eq!(lz77::decompress(&packed).unwrap(), data);
//! assert!(lz77::compressed_bits(data) < data.len() as u64 * 8);
//! ```

use crate::{BitReader, BitWriter};

/// Sliding-window size in bytes (hardware-plausible 4 KiB).
pub const WINDOW: usize = 4096;
/// Bits used to encode a match distance.
pub const DIST_BITS: u32 = 12;
/// Bits used to encode a match length.
pub const LEN_BITS: u32 = 8;
/// Minimum match length worth encoding as a match token.
pub const MIN_MATCH: usize = 3;
/// Maximum match length (`MIN_MATCH + 2^LEN_BITS - 1`).
pub const MAX_MATCH: usize = MIN_MATCH + (1 << LEN_BITS) - 1;

const HASH_SIZE: usize = 1 << 13;
const MAX_CHAIN: usize = 32;
/// The end of a hash chain.
const NIL: usize = usize::MAX;

/// Error returned by [`decompress`] on a malformed block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecompressError;

impl core::fmt::Display for DecompressError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "malformed LZ77 stream")
    }
}

impl std::error::Error for DecompressError {}

fn hash3(data: &[u8], i: usize) -> usize {
    let h = u32::from(data[i])
        .wrapping_mul(0x9e37)
        .wrapping_add(u32::from(data[i + 1]).wrapping_mul(0x79b9))
        .wrapping_add(u32::from(data[i + 2]).wrapping_mul(0x85eb));
    (h as usize) & (HASH_SIZE - 1)
}

/// Hash chains over 3-byte prefixes: `head[h]` is the latest position
/// whose prefix hashes to `h`, and `prev[p % WINDOW]` the position before
/// `p` on its chain. A lookup at `i` follows the link of `p` only when
/// `i - p <= WINDOW`; the next position to reuse that slot is
/// `p + WINDOW >= i`, which is inserted after the lookup.
struct Chains {
    head: Vec<usize>,
    prev: Vec<usize>,
}

impl Chains {
    fn new() -> Self {
        Self {
            head: vec![NIL; HASH_SIZE],
            prev: vec![NIL; WINDOW],
        }
    }

    /// Links every position in `from..to` that has a full prefix.
    fn insert(&mut self, data: &[u8], from: usize, to: usize) {
        for j in from..to.min(data.len().saturating_sub(MIN_MATCH - 1)) {
            let h = hash3(data, j);
            self.prev[j % WINDOW] = self.head[h];
            self.head[h] = j;
        }
    }
}

/// Compresses `data` into one self-contained block: a 32-bit
/// uncompressed length, then the bit-packed token stream. No match
/// reaches before the block's first byte, so [`decompress`] needs
/// nothing but the block.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut w = BitWriter::new();
    w.write_bits(data.len() as u64, 32);
    write_tokens(data, &mut w);
    w.into_bytes()
}

/// Number of bits the compressed form of `data` occupies (excluding the
/// 32-bit length header), the quantity used for log-size reporting.
pub fn compressed_bits(data: &[u8]) -> u64 {
    let mut w = BitWriter::new();
    write_tokens(data, &mut w);
    w.bit_len()
}

/// Emits the tokens for all of `data`.
fn write_tokens(data: &[u8], w: &mut BitWriter) {
    let mut chains = Chains::new();
    let mut i = 0;
    while i < data.len() {
        let (len, dist) = best_match(data, i, &chains);
        // One write per token: the flag bit, then the literal byte or the
        // distance and length.
        let step = if len >= MIN_MATCH {
            let fields = (dist - 1) as u64 | ((len - MIN_MATCH) as u64) << DIST_BITS;
            w.write_bits(1 | fields << 1, 1 + DIST_BITS + LEN_BITS);
            len
        } else {
            w.write_bits(u64::from(data[i]) << 1, 9);
            1
        };
        // Insert every covered position so later matches can reference it.
        chains.insert(data, i, i + step);
        i += step;
    }
}

fn best_match(data: &[u8], i: usize, chains: &Chains) -> (usize, usize) {
    if i + MIN_MATCH > data.len() {
        return (0, 0);
    }
    let max_len = (data.len() - i).min(MAX_MATCH);
    let mut best_len = 0usize;
    let mut best_dist = 0usize;
    let mut cand = chains.head[hash3(data, i)];
    let mut chain = 0usize;
    while cand != NIL && chain < MAX_CHAIN {
        let dist = i - cand;
        if dist > WINDOW {
            break;
        }
        // Only a candidate that also matches at `best_len` can be longer.
        if data[cand + best_len] == data[i + best_len] {
            let l = match_len(data, cand, i, max_len);
            if l > best_len {
                best_len = l;
                best_dist = dist;
                if l == max_len {
                    break;
                }
            }
        }
        cand = chains.prev[cand % WINDOW];
        chain += 1;
    }
    (best_len, best_dist)
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, at most
/// `max_len`, compared eight bytes at a time.
fn match_len(data: &[u8], a: usize, b: usize, max_len: usize) -> usize {
    let (x, y) = (&data[a..a + max_len], &data[b..b + max_len]);
    let word = |s: &[u8], at: usize| {
        let mut w = [0u8; 8];
        w.copy_from_slice(&s[at..at + 8]);
        u64::from_le_bytes(w)
    };
    let mut l = 0;
    while l + 8 <= max_len {
        let diff = word(x, l) ^ word(y, l);
        if diff != 0 {
            return l + diff.trailing_zeros() as usize / 8;
        }
        l += 8;
    }
    l + x[l..]
        .iter()
        .zip(&y[l..])
        .take_while(|(p, q)| p == q)
        .count()
}

/// Decompresses one block produced by [`compress`], straight into the
/// returned buffer.
///
/// # Errors
///
/// Returns [`DecompressError`] if the block is truncated or a match
/// reaches before the block's first byte.
pub fn decompress(packed: &[u8]) -> Result<Vec<u8>, DecompressError> {
    let mut r = BitReader::new(packed);
    let total = r.read_bits(32).ok_or(DecompressError)? as usize;
    // `total` is untrusted input: cap the up-front reservation so a
    // corrupt header cannot force a huge allocation (the vec still
    // grows as far as the bitstream actually decodes).
    let mut out = Vec::with_capacity(total.min(1 << 20));
    while out.len() < total {
        if r.read_bit().ok_or(DecompressError)? {
            let fields = r.read_bits(DIST_BITS + LEN_BITS).ok_or(DecompressError)? as usize;
            let dist = (fields & ((1 << DIST_BITS) - 1)) + 1;
            let len = (fields >> DIST_BITS) + MIN_MATCH;
            let start = out.len().checked_sub(dist).ok_or(DecompressError)?;
            if dist >= len {
                out.extend_from_within(start..start + len);
            } else {
                // The match overlaps the bytes it produces.
                for k in start..start + len {
                    out.push(out[k]);
                }
            }
        } else {
            out.push(r.read_bits(8).ok_or(DecompressError)? as u8);
        }
    }
    out.truncate(total);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// A plain matcher with one `usize` link per input byte and a
    /// byte-at-a-time comparison: every token stream must equal the one
    /// it emits.
    mod reference {
        use super::super::{
            hash3, DIST_BITS, HASH_SIZE, LEN_BITS, MAX_CHAIN, MAX_MATCH, MIN_MATCH, WINDOW,
        };
        use crate::BitWriter;

        fn best_match(data: &[u8], i: usize, head: &[usize], prev: &[usize]) -> (usize, usize) {
            if i + MIN_MATCH > data.len() {
                return (0, 0);
            }
            let max_len = (data.len() - i).min(MAX_MATCH);
            let (mut best_len, mut best_dist) = (0, 0);
            let mut cand = head[hash3(data, i)];
            let mut chain = 0;
            while cand != usize::MAX && chain < MAX_CHAIN {
                let dist = i - cand;
                if dist > WINDOW {
                    break;
                }
                let mut l = 0;
                while l < max_len && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = dist;
                    if l == max_len {
                        break;
                    }
                }
                cand = prev[cand];
                chain += 1;
            }
            (best_len, best_dist)
        }

        /// The block `compress` emits for `data`, and its token-stream
        /// bits.
        pub fn block(data: &[u8]) -> (Vec<u8>, u64) {
            let mut w = BitWriter::new();
            w.write_bits(data.len() as u64, 32);
            let mut head = vec![usize::MAX; HASH_SIZE];
            let mut prev = vec![usize::MAX; data.len()];
            let mut i = 0;
            while i < data.len() {
                let (len, dist) = best_match(data, i, &head, &prev);
                let step = if len >= MIN_MATCH {
                    w.write_bit(true);
                    w.write_bits((dist - 1) as u64, DIST_BITS);
                    w.write_bits((len - MIN_MATCH) as u64, LEN_BITS);
                    len
                } else {
                    w.write_bit(false);
                    w.write_bits(u64::from(data[i]), 8);
                    1
                };
                for _ in 0..step {
                    if i + MIN_MATCH <= data.len() {
                        let h = hash3(data, i);
                        prev[i] = head[h];
                        head[h] = i;
                    }
                    i += 1;
                }
            }
            let bits = w.bit_len() - 32;
            (w.into_bytes(), bits)
        }
    }

    /// `len` bytes of one input shape: `0` little-endian `u64` words with
    /// zero high bytes (the PI-log footprint), `1` long runs, else random
    /// bytes.
    fn shaped(shape: u8, len: usize, seed: u64) -> Vec<u8> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(len + MAX_MATCH * 2);
        while data.len() < len {
            match shape {
                0 => {
                    let word = if rng.gen_range(0u32..4) == 0 {
                        rng.gen_range(0u64..1 << 24)
                    } else {
                        0x1000 + 8 * rng.gen_range(0u64..32)
                    };
                    data.extend_from_slice(&word.to_le_bytes());
                }
                1 => {
                    let byte = rng.gen_range(0u8..3);
                    data.resize(data.len() + rng.gen_range(1usize..2 * MAX_MATCH), byte);
                }
                _ => data.push(rng.gen()),
            }
        }
        data.truncate(len);
        data
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// `compress` and `compressed_bits` emit exactly the reference's
        /// tokens, and `decompress` restores the input.
        #[test]
        fn token_streams_equal_the_reference(
            shape in 0u8..3,
            seed in any::<u64>(),
            near in 0usize..5,
            jitter in 0usize..5,
            free in 0usize..12_000,
        ) {
            let len = [MAX_MATCH, WINDOW, WINDOW + MAX_MATCH, 2 * WINDOW, free][near] + jitter;
            let data = shaped(shape, len.saturating_sub(2), seed);

            let (block, bits) = reference::block(&data);
            let packed = compress(&data);
            prop_assert_eq!(&packed, &block);
            prop_assert_eq!(compressed_bits(&data), bits);
            prop_assert_eq!(decompress(&packed).unwrap(), data);
        }
    }

    #[test]
    fn empty_round_trip() {
        assert_eq!(decompress(&compress(&[])).unwrap(), Vec::<u8>::new());
        assert_eq!(compressed_bits(&[]), 0);
    }

    #[test]
    fn literal_only_round_trip() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
        // Too short for a match: two 9-bit literal tokens.
        assert_eq!(compressed_bits(b"ab"), 18);
    }

    #[test]
    fn repetitive_data_compresses() {
        let data = vec![7u8; 10_000];
        let bits = compressed_bits(&data);
        assert!(bits < 10_000 * 8 / 10, "got {bits} bits");
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    }

    #[test]
    fn overlapping_match_round_trip() {
        // "aaaa..." forces dist=1 matches that overlap the output cursor.
        let data = vec![b'a'; 501];
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    }

    #[test]
    fn pi_log_like_stream_compresses() {
        // Round-robin-ish 4-bit processor IDs packed into bytes: the
        // structure the PI log exhibits in steady state.
        let mut data = Vec::new();
        for i in 0..4096u32 {
            data.push(((i % 8) | ((i + 1) % 8) << 4) as u8);
        }
        let bits = compressed_bits(&data);
        assert!(bits < data.len() as u64 * 8 / 2);
    }

    #[test]
    fn random_data_round_trips_and_does_not_explode() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
        for len in [1usize, 2, 3, 64, 1000, 5000] {
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let packed = compress(&data);
            assert_eq!(decompress(&packed).unwrap(), data);
            // Worst case adds the 1 flag bit per literal + header.
            assert!(packed.len() <= data.len() + data.len() / 8 + 8);
        }
    }

    #[test]
    fn truncated_stream_errors() {
        let data = b"hello hello hello hello".to_vec();
        let packed = compress(&data);
        assert_eq!(decompress(&packed[..2]), Err(DecompressError));
    }

    #[test]
    fn display_error() {
        assert_eq!(DecompressError.to_string(), "malformed LZ77 stream");
    }

    #[test]
    fn streaming_round_trips_random_splits() {
        // A stream cut at random points into blocks, each compressed and
        // decompressed alone, as the segments of a `.dlrn` stream are.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
        let data: Vec<u8> = (0..20_000)
            .map(|i: u32| ((i % 11) | ((i % 5) << 4)) as u8)
            .collect();
        let mut out = Vec::new();
        let mut i = 0usize;
        while i < data.len() {
            let n = (rng.gen_range(1usize..2_000)).min(data.len() - i);
            out.extend(decompress(&compress(&data[i..i + n])).unwrap());
            i += n;
        }
        assert_eq!(out, data);
    }

    #[test]
    fn streaming_empty_blocks_are_valid() {
        // An empty block is its length header alone.
        let empty = compress(&[]);
        assert_eq!(empty, [0; 4]);
        assert_eq!(decompress(&empty).unwrap(), Vec::<u8>::new());
        assert_eq!(decompress(&compress(b"data")).unwrap(), b"data");
    }

    #[test]
    fn segmented_bits_track_one_shot() {
        // Cutting a log into 8 KiB blocks, each compressed alone, costs
        // the matches that would have reached into the block before:
        // more bits than one block, but less than twice as many.
        let data: Vec<u8> = (0..64 * 1024u32)
            .map(|i| ((i % 9) | ((i % 7) << 4)) as u8)
            .collect();
        let seg: u64 = data.chunks(8 * 1024).map(compressed_bits).sum();
        let one = compressed_bits(&data);
        assert!(seg >= one, "segmented {seg} < one-shot {one}");
        assert!(seg < one * 2, "segmented {seg} vs one-shot {one}");
    }

    #[test]
    fn decompress_caps_an_untrusted_length() {
        // The header claims 4 GiB of output that the stream does not hold.
        assert_eq!(decompress(&[0xff; 4]), Err(DecompressError));
    }

    #[test]
    fn streaming_decoder_rejects_bad_distance() {
        // A block that opens with a match into the block before it: each
        // block decodes alone, so the match reaches before the output.
        let first = b"abcdefgh";
        assert_eq!(decompress(&compress(first)).unwrap(), first);
        let mut w = crate::BitWriter::new();
        w.write_bits(4, 32); // claims 4 bytes
        w.write_bit(true); // match token...
        w.write_bits(first.len() as u64 - 1, DIST_BITS); // ...back into `first`
        w.write_bits(1, LEN_BITS);
        assert_eq!(decompress(&w.into_bytes()), Err(DecompressError));

        // A match inside the block's own output decodes.
        let mut w = crate::BitWriter::new();
        w.write_bits(4, 32);
        w.write_bits(u64::from(b'x') << 1, 9);
        w.write_bit(true);
        w.write_bits(0, DIST_BITS);
        w.write_bits(0, LEN_BITS);
        assert_eq!(decompress(&w.into_bytes()).unwrap(), b"xxxx");
    }

    #[test]
    fn streaming_decoder_rejects_truncated_block() {
        // Every cut of a block short of its last token fails.
        let block = compress(b"hello hello hello hello");
        let whole = decompress(&block).unwrap();
        for cut in 0..block.len() {
            match decompress(&block[..cut]) {
                Err(DecompressError) => {}
                // The last byte may hold only padding bits.
                Ok(out) => assert!(cut + 1 == block.len() && out == whole, "cut {cut}"),
            }
        }
    }
}
