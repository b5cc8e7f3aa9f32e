//! Bulk-style address signatures.
//!
//! BulkSC hash-encodes the line addresses read and written by a chunk
//! into 2-Kbit Read/Write signatures; address disambiguation, chunk
//! commit and squash are signature operations (Appendix A of the
//! paper). We model the signature as a 2048-bit Bloom filter with two
//! hash functions, which gives hardware-faithful false positives while
//! guaranteeing no false negatives.

/// Signature size in bits (the paper's Table 5 uses 2 Kbit).
pub const SIG_BITS: usize = 2048;
const SIG_WORDS: usize = SIG_BITS / 64;

/// A 2-Kbit address signature.
///
/// # Examples
///
/// ```
/// use delorean_mem::Signature;
/// let mut s = Signature::default();
/// s.insert(42);
/// assert!(s.may_contain(42));
/// assert!(!s.is_empty());
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    bits: [u64; SIG_WORDS],
}

impl Default for Signature {
    fn default() -> Self {
        Self {
            bits: [0; SIG_WORDS],
        }
    }
}

impl core::fmt::Debug for Signature {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Signature({} bits set)", self.popcount())
    }
}

fn hash1(line: u64) -> usize {
    (line.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 53) as usize & (SIG_BITS - 1)
}

fn hash2(line: u64) -> usize {
    (line.wrapping_mul(0xc2b2_ae3d_27d4_eb4f).rotate_left(31) >> 52) as usize & (SIG_BITS - 1)
}

/// The two signature bit positions a cache-line index hash-encodes to.
///
/// Exposed so analyses can reason in the *signature domain*: two lines
/// alias exactly when their bit pairs overlap, which is what turns a
/// hardware signature intersection into a false-positive conflict.
pub fn bit_indices(line: u64) -> [usize; 2] {
    [hash1(line), hash2(line)]
}

impl Signature {
    /// Creates an empty signature.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the signature a chunk with exactly these line accesses
    /// would carry in hardware.
    pub fn from_lines(lines: impl IntoIterator<Item = u64>) -> Self {
        let mut s = Self::new();
        for l in lines {
            s.insert(l);
        }
        s
    }

    /// Inserts a cache-line index.
    pub fn insert(&mut self, line: u64) {
        for h in bit_indices(line) {
            self.bits[h / 64] |= 1u64 << (h % 64);
        }
    }

    /// Whether signature bit `bit` is set. Bits outside
    /// [`SIG_BITS`] are never set.
    pub fn bit(&self, bit: usize) -> bool {
        bit < SIG_BITS && self.bits[bit / 64] & (1u64 << (bit % 64)) != 0
    }

    /// Whether a positive [`Signature::may_contain`] answer for `line`
    /// is a *false positive* given the exact (sorted) line set the
    /// signature was built from: the signature says yes but no inserted
    /// line is `line` itself.
    pub fn is_aliased_hit(&self, line: u64, exact_lines_sorted: &[u64]) -> bool {
        self.may_contain(line) && exact_lines_sorted.binary_search(&line).is_err()
    }

    /// Membership test. May return `true` for lines never inserted
    /// (false positive) but never `false` for an inserted line.
    pub fn may_contain(&self, line: u64) -> bool {
        self.may_contain_bits(bit_indices(line))
    }

    /// [`Signature::may_contain`] for a line whose [`bit_indices`] were
    /// computed once up front, as a commit does before testing its
    /// written lines against every in-flight chunk.
    pub fn may_contain_bits(&self, [a, b]: [usize; 2]) -> bool {
        self.bit(a) && self.bit(b)
    }

    /// Whether no line was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Signature intersection test (chunk conflict detection).
    pub fn intersects(&self, other: &Signature) -> bool {
        self.bits
            .iter()
            .zip(other.bits.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        self.bits = [0; SIG_WORDS];
    }

    /// Number of set bits (diagnostics).
    pub fn popcount(&self) -> u32 {
        self.bits.iter().map(|w| w.count_ones()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn no_false_negatives() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let mut sig = Signature::new();
        let lines: Vec<u64> = (0..200).map(|_| rng.gen::<u64>() >> 10).collect();
        for &l in &lines {
            sig.insert(l);
        }
        for &l in &lines {
            assert!(sig.may_contain(l));
        }
    }

    #[test]
    fn false_positives_exist_but_are_rare_when_sparse() {
        let mut sig = Signature::new();
        for l in 0..64u64 {
            sig.insert(l * 977);
        }
        let fp = (100_000..110_000u64)
            .filter(|&l| sig.may_contain(l))
            .count();
        // 128 of 2048 bits set, two hashes: fp rate ~ (128/2048)^2 ~ 0.4%.
        assert!(fp < 300, "false-positive rate too high: {fp}/10000");
    }

    #[test]
    fn intersection_reflects_shared_lines() {
        let mut a = Signature::new();
        let mut b = Signature::new();
        a.insert(5);
        b.insert(9);
        // Note: could be a false positive in principle, but these two
        // specific lines hash apart.
        assert!(!a.intersects(&b));
        b.insert(5);
        assert!(a.intersects(&b));
    }

    #[test]
    fn clear_empties() {
        let mut a = Signature::new();
        a.insert(77);
        assert!(!a.is_empty());
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.popcount(), 0);
    }

    #[test]
    fn debug_is_nonempty() {
        let s = Signature::new();
        assert!(!format!("{s:?}").is_empty());
    }

    #[test]
    fn bit_reports_exactly_the_hashed_positions() {
        let lines = [3u64, 977, 40_000];
        let sig = Signature::from_lines(lines);
        let bits: Vec<usize> = (0..SIG_BITS).filter(|&b| sig.bit(b)).collect();
        let mut expected: Vec<usize> = lines.iter().flat_map(|&l| bit_indices(l)).collect();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(bits, expected);
        assert!(!sig.bit(SIG_BITS), "out-of-range bits are never set");
        assert_eq!(bits.len() as u32, sig.popcount());
    }

    #[test]
    fn from_lines_equals_insert_loop() {
        let mut manual = Signature::new();
        for l in [5u64, 9, 5] {
            manual.insert(l);
        }
        assert_eq!(Signature::from_lines([5u64, 9, 5]), manual);
    }

    #[test]
    fn aliased_hits_are_distinguished_from_exact_members() {
        let lines: Vec<u64> = (0..64).map(|l| l * 977).collect();
        let sig = Signature::from_lines(lines.iter().copied());
        // A genuine member is a hit but never an aliased one.
        assert!(!sig.is_aliased_hit(977, &lines));
        // Scan for a false positive; with 128/2048 bits set one exists
        // in a modest range.
        let alias = (100_000..200_000u64)
            .find(|&l| sig.may_contain(l))
            .expect("a false positive exists");
        assert!(sig.is_aliased_hit(alias, &lines));
        // A clean miss is neither.
        let miss = (100_000..200_000u64)
            .find(|&l| !sig.may_contain(l))
            .expect("a miss exists");
        assert!(!sig.is_aliased_hit(miss, &lines));
    }
}
