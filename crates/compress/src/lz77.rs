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

/// Error returned by [`decompress`] on a malformed stream.
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

/// Compresses `data`, returning the bit-packed token stream prefixed by
/// a 32-bit little-endian uncompressed length.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut w = BitWriter::new();
    w.write_bits(data.len() as u64, 32);
    compress_from(data, 0, &mut Chains::new(), &mut w);
    w.into_bytes()
}

/// Number of bits the compressed form of `data` occupies (excluding the
/// 32-bit length header), the quantity used for log-size reporting.
pub fn compressed_bits(data: &[u8]) -> u64 {
    let mut w = BitWriter::new();
    compress_from(data, 0, &mut Chains::new(), &mut w);
    w.bit_len()
}

/// Emits tokens for `data[start..]`; positions below `start` must already
/// be inserted in the chains so matches can reach into that history.
fn compress_from(data: &[u8], start: usize, chains: &mut Chains, w: &mut BitWriter) {
    let mut i = start;
    while i < data.len() {
        let (len, dist) = best_match(data, i, chains);
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

/// Compressed size of `data` in bits when an [`Encoder`] flushes a block
/// every `block_size` bytes: the sum of every block's token-stream bits,
/// excluding the per-block length headers. Slightly larger than
/// [`compressed_bits`], because no match runs past the end of its block.
///
/// # Panics
///
/// Panics if `block_size` is zero.
pub fn compressed_bits_segmented(data: &[u8], block_size: usize) -> u64 {
    assert!(block_size > 0, "block size must be positive");
    let mut enc = Encoder::new();
    data.chunks(block_size)
        .map(|block| {
            enc.push(block);
            enc.flush().bit_len() - 32
        })
        .sum()
}

/// Decompresses a stream produced by [`compress`].
///
/// # Errors
///
/// Returns [`DecompressError`] if the stream is truncated or a match
/// references data before the start of the output.
pub fn decompress(packed: &[u8]) -> Result<Vec<u8>, DecompressError> {
    Decoder::new().decode_block(packed)
}

/// Incremental LZ77 encoder for streaming log persistence.
///
/// Bytes are buffered with [`push`](Encoder::push) and emitted as
/// self-contained *blocks* with [`flush_block`](Encoder::flush_block).
/// Each block carries its own 32-bit uncompressed-length header and
/// token stream (the same format as [`compress`]), but match distances
/// may reach back up to [`WINDOW`] bytes into *previously flushed*
/// data, so a long run flushed in segments compresses almost as well as
/// a single [`compress`] call while the encoder's live state stays
/// bounded by `WINDOW + pending` bytes — the property the streaming
/// `.dlrn` writer needs for O(segment) peak buffering.
///
/// Blocks must be decoded in order by a [`Decoder`] that has seen the
/// same prefix of the stream.
///
/// # Examples
///
/// ```
/// use delorean_compress::lz77::{Decoder, Encoder};
/// let mut enc = Encoder::new();
/// let mut dec = Decoder::new();
/// let mut out = Vec::new();
/// for chunk in [&b"abcabcabc"[..], b"abcabcabcabc", b"xyzxyz"] {
///     enc.push(chunk);
///     let block = enc.flush_block();
///     out.extend(dec.decode_block(&block).unwrap());
/// }
/// assert_eq!(out, b"abcabcabcabcabcabcabcxyzxyz");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Encoder {
    /// Last `<= WINDOW` bytes of already-flushed output.
    history: Vec<u8>,
    /// Bytes pushed since the last flush.
    pending: Vec<u8>,
}

impl Encoder {
    /// Creates an encoder with empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffers `bytes` for the next block.
    pub fn push(&mut self, bytes: &[u8]) {
        self.pending.extend_from_slice(bytes);
    }

    /// Number of bytes buffered but not yet flushed.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Compresses and drains the pending bytes into one block.
    ///
    /// Returns the packed block (possibly encoding zero bytes, which
    /// yields a valid empty block). The flushed bytes enter the match
    /// window for subsequent blocks.
    pub fn flush_block(&mut self) -> Vec<u8> {
        self.flush().into_bytes()
    }

    /// Compresses and drains the pending bytes into one block's bits.
    fn flush(&mut self) -> BitWriter {
        let mut w = BitWriter::new();
        w.write_bits(self.pending.len() as u64, 32);

        // Append the pending bytes to the retained history, seed the hash
        // chains with every history position, then emit tokens only for
        // the pending region. Distances stay within WINDOW, so matches
        // can span the flush boundary without unbounded state.
        let start = self.history.len();
        let mut data = std::mem::take(&mut self.history);
        data.extend_from_slice(&self.pending);
        let mut chains = Chains::new();
        chains.insert(&data, 0, start);
        compress_from(&data, start, &mut chains, &mut w);

        data.drain(..data.len() - data.len().min(WINDOW));
        self.history = data;
        self.pending.clear();
        w
    }
}

/// Incremental LZ77 decoder matching [`Encoder`].
///
/// Decodes blocks in stream order, retaining the last [`WINDOW`] bytes
/// of output so cross-block match distances resolve.
#[derive(Debug, Clone, Default)]
pub struct Decoder {
    /// Last `<= WINDOW` bytes of already-decoded output.
    history: Vec<u8>,
}

impl Decoder {
    /// Creates a decoder with empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decodes one block produced by [`Encoder::flush_block`].
    ///
    /// # Errors
    ///
    /// Returns [`DecompressError`] if the block is truncated or a match
    /// references data before the start of the stream.
    pub fn decode_block(&mut self, packed: &[u8]) -> Result<Vec<u8>, DecompressError> {
        let mut r = BitReader::new(packed);
        let total = r.read_bits(32).ok_or(DecompressError)? as usize;

        // Decode into history + new output so distances can cross the
        // block boundary, then split the new bytes back out.
        let base = self.history.len();
        let mut out = std::mem::take(&mut self.history);
        // `total` is untrusted input: cap the up-front reservation so a
        // corrupt header cannot force a huge allocation (the vec still
        // grows as far as the bitstream actually decodes).
        out.reserve(total.min(1 << 20));
        while out.len() - base < total {
            let is_match = r.read_bit().ok_or(DecompressError)?;
            if is_match {
                let fields = r.read_bits(DIST_BITS + LEN_BITS).ok_or(DecompressError)? as usize;
                let dist = (fields & ((1 << DIST_BITS) - 1)) + 1;
                let len = (fields >> DIST_BITS) + MIN_MATCH;
                if dist > out.len() {
                    self.history = out;
                    self.history.truncate(base);
                    return Err(DecompressError);
                }
                let start = out.len() - dist;
                if dist >= len {
                    out.extend_from_within(start..start + len);
                } else {
                    // The match overlaps the bytes it produces.
                    for k in start..start + len {
                        out.push(out[k]);
                    }
                }
            } else {
                let b = r.read_bits(8).ok_or(DecompressError)? as u8;
                out.push(b);
            }
        }
        out.truncate(base + total);
        let produced = out[base..].to_vec();
        let keep = out.len().min(WINDOW);
        self.history = out.split_off(out.len() - keep);
        Ok(produced)
    }
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

        fn compress_from(
            data: &[u8],
            start: usize,
            head: &mut [usize],
            prev: &mut [usize],
            w: &mut BitWriter,
        ) {
            let mut i = start;
            while i < data.len() {
                let (len, dist) = best_match(data, i, head, prev);
                if len >= MIN_MATCH {
                    w.write_bit(true);
                    w.write_bits((dist - 1) as u64, DIST_BITS);
                    w.write_bits((len - MIN_MATCH) as u64, LEN_BITS);
                    let end = (i + len).min(data.len());
                    let mut j = i;
                    while j < end && j + MIN_MATCH <= data.len() {
                        let h = hash3(data, j);
                        prev[j] = head[h];
                        head[h] = j;
                        j += 1;
                    }
                    i += len;
                } else {
                    w.write_bit(false);
                    w.write_bits(u64::from(data[i]), 8);
                    if i + MIN_MATCH <= data.len() {
                        let h = hash3(data, i);
                        prev[i] = head[h];
                        head[h] = i;
                    }
                    i += 1;
                }
            }
        }

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

        /// The block an `Encoder` flushes for `data[start..end]` after
        /// flushing `data[..start]`, and its token-stream bits.
        pub fn block(data: &[u8], start: usize, end: usize) -> (Vec<u8>, u64) {
            let hist_start = start.saturating_sub(WINDOW);
            let slice = &data[hist_start..end];
            let local_start = start - hist_start;
            let mut w = BitWriter::new();
            w.write_bits((end - start) as u64, 32);
            let mut head = vec![usize::MAX; HASH_SIZE];
            let mut prev = vec![usize::MAX; slice.len()];
            let indexed = local_start.min(slice.len().saturating_sub(MIN_MATCH - 1));
            for (j, slot) in prev.iter_mut().enumerate().take(indexed) {
                let h = hash3(slice, j);
                *slot = head[h];
                head[h] = j;
            }
            compress_from(slice, local_start, &mut head, &mut prev, &mut w);
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

        /// `compress`, an `Encoder` flushed at random cuts and the
        /// segmented bit count emit exactly the reference's tokens.
        #[test]
        fn token_streams_equal_the_reference(
            shape in 0u8..3,
            seed in any::<u64>(),
            near in 0usize..5,
            jitter in 0usize..5,
            free in 0usize..12_000,
            cuts in proptest::collection::vec(1usize..3 * WINDOW, 1..6),
            block_size in 1usize..3 * WINDOW,
        ) {
            let len = [MAX_MATCH, WINDOW, WINDOW + MAX_MATCH, 2 * WINDOW, free][near] + jitter;
            let data = shaped(shape, len.saturating_sub(2), seed);

            let packed = compress(&data);
            prop_assert_eq!(&packed, &reference::block(&data, 0, data.len()).0);
            prop_assert_eq!(decompress(&packed).unwrap(), data.clone());

            let mut enc = Encoder::new();
            let mut start = 0;
            for &cut in cuts.iter().cycle() {
                let end = (start + cut).min(data.len());
                enc.push(&data[start..end]);
                prop_assert_eq!(enc.flush_block(), reference::block(&data, start, end).0);
                start = end;
                if start == data.len() {
                    break;
                }
            }

            let bits: u64 = (0..data.len())
                .step_by(block_size)
                .map(|at| reference::block(&data, at, (at + block_size).min(data.len())).1)
                .sum();
            prop_assert_eq!(compressed_bits_segmented(&data, block_size), bits);
        }
    }

    #[test]
    fn empty_round_trip() {
        assert_eq!(decompress(&compress(&[])).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn literal_only_round_trip() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
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
        let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
        let data: Vec<u8> = (0..20_000)
            .map(|i: u32| ((i % 11) | ((i % 5) << 4)) as u8)
            .collect();
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        let mut out = Vec::new();
        let mut i = 0usize;
        while i < data.len() {
            let n = (rng.gen_range(1usize..2_000)).min(data.len() - i);
            enc.push(&data[i..i + n]);
            assert_eq!(enc.pending_len(), n);
            let block = enc.flush_block();
            out.extend(dec.decode_block(&block).unwrap());
            i += n;
        }
        assert_eq!(out, data);
    }

    #[test]
    fn streaming_matches_cross_block_boundaries() {
        // Second block is an exact repeat of the first; with history
        // carry-over it must compress to far less than its raw size.
        let rep = vec![0xabu8; 2_000];
        let mut enc = Encoder::new();
        enc.push(&rep);
        enc.flush_block();
        enc.push(&rep[..1_000]);
        let block2 = enc.flush_block();
        assert!(block2.len() < 100, "block2 is {} bytes", block2.len());

        let mut dec = Decoder::new();
        let mut enc2 = Encoder::new();
        enc2.push(&rep);
        assert_eq!(dec.decode_block(&enc2.flush_block()).unwrap(), rep);
        assert_eq!(dec.decode_block(&block2).unwrap(), rep[..1_000]);
    }

    #[test]
    fn streaming_empty_blocks_are_valid() {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        let empty = enc.flush_block();
        assert_eq!(dec.decode_block(&empty).unwrap(), Vec::<u8>::new());
        enc.push(b"data");
        let block = enc.flush_block();
        assert_eq!(dec.decode_block(&block).unwrap(), b"data");
    }

    #[test]
    fn streaming_close_to_one_shot_ratio() {
        // PI-log-like stream: segmented compression with window
        // carry-over should stay within 2x of the one-shot size.
        let data: Vec<u8> = (0..32 * 1024u32)
            .map(|i| ((i % 9) | ((i % 7) << 4)) as u8)
            .collect();
        let one_shot = compress(&data).len();
        let mut enc = Encoder::new();
        let mut segmented = 0usize;
        for chunk in data.chunks(1024) {
            enc.push(chunk);
            segmented += enc.flush_block().len();
        }
        assert!(
            segmented < one_shot * 2,
            "segmented {segmented} vs one-shot {one_shot}"
        );
    }

    /// Bits of a block's token stream, its length header excluded,
    /// counted by walking the tokens.
    fn token_bits(block: &[u8]) -> u64 {
        let mut r = BitReader::new(block);
        let total = r.read_bits(32).unwrap();
        let mut produced = 0;
        while produced < total {
            produced += if r.read_bit().unwrap() {
                r.read_bits(DIST_BITS).unwrap();
                r.read_bits(LEN_BITS).unwrap() + MIN_MATCH as u64
            } else {
                r.read_bits(8).unwrap();
                1
            };
        }
        r.position() - 32
    }

    #[test]
    fn segmented_bits_match_streaming_encoder() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let data: Vec<u8> = (0..40_000u32)
            .map(|i| ((i % 13) | ((rng.gen::<u8>() as u32 % 5) << 4)) as u8)
            .collect();
        let block = 8 * 1024;
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        let (mut bits, mut out) = (0, Vec::new());
        for chunk in data.chunks(block) {
            enc.push(chunk);
            let packed = enc.flush_block();
            bits += token_bits(&packed);
            out.extend(dec.decode_block(&packed).unwrap());
        }
        assert_eq!(compressed_bits_segmented(&data, block), bits);
        assert_eq!(out, data);
    }

    #[test]
    fn segmented_bits_track_one_shot() {
        let data: Vec<u8> = (0..64 * 1024u32)
            .map(|i| ((i % 9) | ((i % 7) << 4)) as u8)
            .collect();
        let seg = compressed_bits_segmented(&data, 8 * 1024);
        let one = compressed_bits(&data);
        assert!(seg >= one, "segmented {seg} < one-shot {one}");
        assert!(seg < one * 2, "segmented {seg} vs one-shot {one}");
    }

    #[test]
    fn segmented_empty_and_tiny_inputs() {
        assert_eq!(compressed_bits_segmented(&[], 1024), 0);
        assert_eq!(compressed_bits_segmented(b"ab", 1024), 18);
    }

    #[test]
    fn decompress_caps_an_untrusted_length() {
        // The header claims 4 GiB of output that the stream does not hold.
        assert_eq!(decompress(&[0xff; 4]), Err(DecompressError));
    }

    #[test]
    fn streaming_decoder_rejects_bad_distance() {
        let mut w = crate::BitWriter::new();
        w.write_bits(4, 32); // claims 4 bytes
        w.write_bit(true); // match token...
        w.write_bits(100, DIST_BITS); // ...reaching before the stream start
        w.write_bits(0, LEN_BITS);
        let mut dec = Decoder::new();
        assert_eq!(dec.decode_block(&w.into_bytes()), Err(DecompressError));
    }

    #[test]
    fn streaming_decoder_rejects_truncated_block() {
        let mut enc = Encoder::new();
        enc.push(b"hello hello hello hello");
        let block = enc.flush_block();
        let mut dec = Decoder::new();
        assert_eq!(dec.decode_block(&block[..2]), Err(DecompressError));
    }
}
