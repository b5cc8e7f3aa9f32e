//! Low-level binary encoding helpers shared by the streaming log
//! format ([`crate::stream`]), its whole-buffer entry points
//! ([`crate::serialize`]), salvage ([`crate::recover`]) and the
//! `.dlrnx` checkpoint index ([`crate::checkpoint`]): the reader and
//! writer, the FNV-1a hasher, and the frame and segment checksums.

use crate::mode::Mode;
use crate::serialize::DecodeError;
use delorean_mem::BLOCK_WORDS;

/// Format magic: "DLRN".
pub(crate) const MAGIC: u32 = 0x444c_524e;
/// Format version (v2: streamed, self-delimiting segments).
pub(crate) const VERSION: u16 = 2;

/// Segment kind: LZ77-compressed commit events.
pub(crate) const SEG_EVENTS: u8 = 1;
/// Segment kind: the trailing digest + statistics.
pub(crate) const SEG_TRAILER: u8 = 2;

pub(crate) struct Writer {
    pub(crate) buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Self { buf: Vec::new() }
    }
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }
    pub(crate) fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
    /// Appends `n` zero words.
    pub(crate) fn zero_words(&mut self, n: usize) {
        self.buf.resize(self.buf.len() + 8 * n, 0);
    }
    /// Appends `v` as little-endian words, in one pass over one span.
    pub(crate) fn words(&mut self, v: &[u64]) {
        let at = self.buf.len();
        self.buf.resize(at + 8 * v.len(), 0);
        for (out, w) in self.buf[at..].chunks_exact_mut(8).zip(v) {
            out.copy_from_slice(&w.to_le_bytes());
        }
    }
}

pub(crate) struct Reader<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    pub(crate) fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError::Truncated(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], DecodeError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N, what)?);
        Ok(a)
    }
    pub(crate) fn u8(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, what)?[0])
    }
    pub(crate) fn u16(&mut self, what: &'static str) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array(what)?))
    }
    pub(crate) fn u32(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }
    pub(crate) fn u64(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }
    pub(crate) fn f64(&mut self, what: &'static str) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.array(what)?))
    }
    pub(crate) fn len(&mut self, what: &'static str) -> Result<usize, DecodeError> {
        let n = self.u64(what)?;
        if n > self.buf.len() as u64 {
            return Err(DecodeError::Truncated(what));
        }
        Ok(n as usize)
    }
    pub(crate) fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], DecodeError> {
        let n = self.len(what)?;
        self.take(n, what)
    }
    /// Reads `n` little-endian words.
    pub(crate) fn words(&mut self, n: usize, what: &'static str) -> Result<Vec<u64>, DecodeError> {
        let len = n.checked_mul(8).ok_or(DecodeError::Truncated(what))?;
        Ok(self
            .take(len, what)?
            .chunks_exact(8)
            .map(|w| {
                let mut a = [0u8; 8];
                a.copy_from_slice(w);
                u64::from_le_bytes(a)
            })
            .collect())
    }
    pub(crate) fn str(&mut self, what: &'static str) -> Result<String, DecodeError> {
        String::from_utf8(self.bytes(what)?.to_vec()).map_err(|_| DecodeError::Truncated(what))
    }
    pub(crate) fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
    /// Bytes not read yet.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// The prime to the eighth power.
const FNV_PRIME_8: u64 = FNV_PRIME.wrapping_pow(8);

/// One FNV-1a step.
#[inline]
fn fold(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// Folds eight bytes one at a time, or, when all eight are zero, as one
/// multiplication by the prime's eighth power: a zero byte xors nothing
/// into the hash, so folding it only multiplies by the prime. The
/// result is the same either way.
#[inline]
fn fold8(h: u64, bytes: &[u8; 8]) -> u64 {
    if u64::from_ne_bytes(*bytes) == 0 {
        h.wrapping_mul(FNV_PRIME_8)
    } else {
        bytes.iter().fold(h, |h, &b| fold(h, u64::from(b)))
    }
}

/// Incremental 64-bit FNV-1a: the checksum of every `.dlrn` and
/// `.dlrnx` frame, the fingerprint that binds sidecars to their source
/// stream, and the fold behind checkpoint ids.
#[derive(Debug)]
pub struct Fnv(u64);

impl Fnv {
    /// FNV-1a of `bytes`, in one call.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut f = Self::default();
        f.update(bytes);
        f.value()
    }

    /// Folds in `bytes`, one byte per step, except that eight zero bytes
    /// in a row fold as one multiplication by the prime's eighth power,
    /// with the same result.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let (chunks, rest) = bytes.as_chunks();
        let h = chunks.iter().fold(self.0, fold8);
        self.0 = rest.iter().fold(h, |h, &b| fold(h, u64::from(b)));
    }

    /// Folds in a whole 64-bit word in one step, as checkpoint ids do.
    #[inline]
    pub fn word(&mut self, x: u64) {
        self.0 = fold(self.0, x);
    }

    /// Folds in `n` zero words, as `n` calls of [`word`](Self::word)
    /// with `0` would: each multiplies the hash by the prime, so a block
    /// of them multiplies it once by the prime's power.
    pub(crate) fn zero_words(&mut self, n: usize) {
        const P_BLOCK: u64 = FNV_PRIME.wrapping_pow(BLOCK_WORDS as u32);
        let power = if n == BLOCK_WORDS {
            P_BLOCK
        } else {
            FNV_PRIME.wrapping_pow(n as u32)
        };
        self.0 = self.0.wrapping_mul(power);
    }

    /// Folds `bytes` into `self` and `other_bytes` into `other` in one
    /// loop. The two multiply chains do not depend on each other, so the
    /// CPU runs them side by side: both cost about what one costs alone.
    /// Each chain folds its own zero runs as [`update`](Self::update) does.
    pub(crate) fn update_pair(&mut self, bytes: &[u8], other: &mut Fnv, other_bytes: &[u8]) {
        let n = bytes.len().min(other_bytes.len()) / 8 * 8;
        let (chunks, _) = bytes[..n].as_chunks();
        let (other_chunks, _) = other_bytes[..n].as_chunks();
        let (mut x, mut y) = (self.0, other.0);
        for (a, b) in chunks.iter().zip(other_chunks) {
            x = fold8(x, a);
            y = fold8(y, b);
        }
        (self.0, other.0) = (x, y);
        self.update(&bytes[n..]);
        other.update(&other_bytes[n..]);
    }

    /// The hash of everything folded in so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// A hasher at the FNV-1a offset basis.
impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

/// Size of the `magic u32 | version u16 | checksum u64` head that starts
/// every `.dlrn` and `.dlrnx` frame.
pub(crate) const FILE_HEAD: usize = 14;
/// Size of the `kind u8 | body_len u64 | checksum u64` segment head.
pub(crate) const SEGMENT_HEAD: usize = 17;

/// Checksum of a frame body: `fnv(len ‖ body)`.
pub(crate) fn frame_checksum(body: &[u8]) -> u64 {
    let mut f = Fnv::default();
    f.update(&(body.len() as u64).to_le_bytes());
    f.update(body);
    f.value()
}

/// Encodes `frame := magic u32 | version u16 | fnv(len ‖ body) u64 |
/// len u64 | body`, the layout of the `.dlrn` header and of a whole
/// `.dlrnx` file.
pub(crate) fn frame(magic: u32, version: u16, body: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(magic);
    w.u16(version);
    w.u64(frame_checksum(body));
    w.bytes(body);
    w.buf
}

/// Checksum of a `.dlrn` segment: `fnv(kind ‖ body_len ‖ body)`.
pub(crate) fn segment_checksum(kind: u8, body: &[u8]) -> u64 {
    let mut f = Fnv::default();
    f.update(&[kind]);
    f.update(&(body.len() as u64).to_le_bytes());
    f.update(body);
    f.value()
}

pub(crate) fn mode_tag(m: Mode) -> u8 {
    match m {
        Mode::OrderSize => 0,
        Mode::OrderOnly => 1,
        Mode::PicoLog => 2,
    }
}

pub(crate) fn mode_from(tag: u8) -> Result<Mode, DecodeError> {
    Ok(match tag {
        0 => Mode::OrderSize,
        1 => Mode::OrderOnly,
        2 => Mode::PicoLog,
        _ => return Err(DecodeError::Truncated("mode tag")),
    })
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use proptest::prelude::*;

    #[test]
    fn incremental_fnv_matches_oneshot() {
        // FNV-1a 64 reference values.
        assert_eq!(Fnv::of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::of(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv::of(b"foobar"), 0x8594_4171_f739_67e8);
        let data = b"delorean streaming segments";
        let mut inc = Fnv::default();
        inc.update(&data[..7]);
        inc.update(&data[7..]);
        assert_eq!(inc.value(), Fnv::of(data));
    }

    #[test]
    fn paired_fnv_matches_two_single_passes() {
        let data = b"delorean streaming segments";
        for (a, b) in [(0, 27), (27, 0), (5, 20), (20, 5), (13, 13)] {
            let (mut x, mut y) = (Fnv::default(), Fnv::default());
            x.update(&data[..3]);
            x.update_pair(&data[..a], &mut y, &data[27 - b..]);
            let mut want = Fnv::default();
            want.update(&data[..3]);
            want.update(&data[..a]);
            assert_eq!(
                (x.value(), y.value()),
                (want.value(), Fnv::of(&data[27 - b..]))
            );
        }
    }

    /// FNV-1a one byte at a time, from `h`: the definition every fold
    /// must match.
    fn reference(h: u64, bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
    }

    /// `offset` non-zero bytes, then `run` zero bytes, then one non-zero
    /// byte and `tail`.
    fn zero_run_at(offset: usize, run: usize, fill: u8, tail: &[u8]) -> Vec<u8> {
        let mut bytes = vec![fill | 1; offset];
        bytes.resize(offset + run, 0);
        bytes.push(fill | 0x80);
        bytes.extend_from_slice(tail);
        bytes
    }

    /// Bytes that are zero about half the time, so that they hold zero
    /// runs of every length.
    fn sparse_bytes() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(prop_oneof![Just(0u8), any::<u8>()], 0..48)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// `update` equals the byte-at-a-time reference for a zero run
        /// of every length 0–24 at every offset 0–7 from where the
        /// update starts, from any hash state, whether the bytes come in
        /// one call or two.
        #[test]
        fn update_folds_zero_runs_like_the_reference(
            fill in any::<u8>(),
            tail in sparse_bytes(),
            start in any::<u64>(),
            cut in any::<usize>(),
        ) {
            for offset in 0..8 {
                for run in 0..=24 {
                    let bytes = zero_run_at(offset, run, fill, &tail);
                    let want = reference(start, &bytes);
                    let mut one = Fnv(start);
                    one.update(&bytes);
                    prop_assert_eq!(one.value(), want, "offset {offset}, run {run}");
                    let at = cut % (bytes.len() + 1);
                    let mut two = Fnv(start);
                    two.update(&bytes[..at]);
                    two.update(&bytes[at..]);
                    prop_assert_eq!(two.value(), want, "offset {offset}, run {run}, cut {at}");
                }
            }
        }

        /// `update_pair` folds each of two spans of unequal length like
        /// the reference, each span with its own zero runs.
        #[test]
        fn update_pair_folds_each_span_like_the_reference(
            fills in (any::<u8>(), any::<u8>()),
            tails in (sparse_bytes(), sparse_bytes()),
            starts in (any::<u64>(), any::<u64>()),
        ) {
            for offset in 0..8 {
                for run in 0..=24 {
                    let a = zero_run_at(offset, run, fills.0, &tails.0);
                    let b = zero_run_at(7 - offset, 24 - run, fills.1, &tails.1);
                    let (mut x, mut y) = (Fnv(starts.0), Fnv(starts.1));
                    x.update_pair(&a, &mut y, &b);
                    prop_assert_eq!(
                        (x.value(), y.value()),
                        (reference(starts.0, &a), reference(starts.1, &b)),
                        "spans of {} and {} bytes", a.len(), b.len()
                    );
                }
            }
        }
    }

    #[test]
    fn zero_words_fold_like_words_of_zero() {
        for n in [0, 1, 4, 63, 64, 65] {
            let (mut folded, mut stepped) = (Fnv(7), Fnv(7));
            folded.zero_words(n);
            for _ in 0..n {
                stepped.word(0);
            }
            assert_eq!(folded.value(), stepped.value(), "{n} words");
        }
    }

    #[test]
    fn reader_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(1 << 40);
        w.f64(2.5);
        w.str("barnes");
        let mut r = Reader::new(&w.buf);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u16("b").unwrap(), 300);
        assert_eq!(r.u32("c").unwrap(), 70_000);
        assert_eq!(r.u64("d").unwrap(), 1 << 40);
        assert_eq!(r.f64("e").unwrap(), 2.5);
        assert_eq!(r.str("f").unwrap(), "barnes");
        assert!(r.done());
        assert!(r.u8("g").is_err());
    }
}
