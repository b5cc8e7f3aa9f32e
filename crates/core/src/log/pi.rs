//! The Processor Interleaving (PI) log.

use delorean_chunk::Committer;
use delorean_compress::LogSize;

/// The arbiter's record of the total chunk-commit order.
///
/// Each entry is a committing processor's ID or the DMA engine's
/// pseudo-ID, packed at `ceil(log2(n_procs + 1))` bits per entry
/// (4 bits for the paper's 8-processor machine plus DMA, Table 5).
///
/// # Examples
///
/// ```
/// use delorean::log::PiLog;
/// use delorean_chunk::Committer;
/// let mut pi = PiLog::new(8);
/// pi.push(Committer::Proc(3));
/// pi.push(Committer::Dma);
/// assert_eq!(pi.entry_bits(), 4);
/// assert_eq!(pi.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PiLog {
    n_procs: u32,
    entries: Vec<Committer>,
}

impl PiLog {
    /// Creates an empty PI log for an `n_procs`-processor machine.
    ///
    /// # Panics
    ///
    /// Panics if `n_procs` is zero.
    pub fn new(n_procs: u32) -> Self {
        assert!(n_procs > 0, "need at least one processor");
        Self {
            n_procs,
            entries: Vec::new(),
        }
    }

    /// Appends a commit.
    pub fn push(&mut self, c: Committer) {
        if let Committer::Proc(p) = c {
            assert!(p < self.n_procs, "processor id out of range");
        }
        self.entries.push(c);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `i`-th commit, if present.
    pub fn get(&self, i: usize) -> Option<Committer> {
        self.entries.get(i).copied()
    }

    /// Iterates over the commit order.
    pub fn iter(&self) -> impl Iterator<Item = Committer> + '_ {
        self.entries.iter().copied()
    }

    /// Bits per entry: processor IDs plus the DMA pseudo-ID.
    pub fn entry_bits(&self) -> u32 {
        let symbols = self.n_procs + 1;
        32 - (symbols - 1).leading_zeros().min(31)
    }

    fn encode_symbol(&self, c: Committer) -> u64 {
        match c {
            Committer::Proc(p) => u64::from(p),
            Committer::Dma => u64::from(self.n_procs),
        }
    }

    /// Raw and LZ77-compressed size.
    ///
    /// The raw size is the bit-packed form (`entry_bits` per commit);
    /// the compressor — like the paper's hardware LZ77 block — operates
    /// on the symbol stream (one committer ID per byte), where commit
    /// patterns such as near-round-robin phases are visible as byte
    /// repeats.
    pub fn measure(&self) -> LogSize {
        let symbols: Vec<u8> = self
            .entries
            .iter()
            .map(|&e| self.encode_symbol(e) as u8)
            .collect();
        let raw = self.entries.len() as u64 * u64::from(self.entry_bits());
        LogSize::from_bits(&symbols, raw)
    }
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn entry_bits_grow_with_processor_count() {
        assert_eq!(PiLog::new(1).entry_bits(), 1);
        assert_eq!(PiLog::new(3).entry_bits(), 2);
        assert_eq!(PiLog::new(7).entry_bits(), 3);
        assert_eq!(PiLog::new(8).entry_bits(), 4); // 8 procs + DMA = 9 symbols
        assert_eq!(PiLog::new(15).entry_bits(), 4);
        assert_eq!(PiLog::new(16).entry_bits(), 5);
    }

    #[test]
    fn measure_counts_logical_bits() {
        let mut pi = PiLog::new(8);
        for i in 0..1000u32 {
            pi.push(Committer::Proc(i % 8));
        }
        let size = pi.measure();
        assert_eq!(size.raw_bits, 4000);
        // Round-robin pattern compresses extremely well.
        assert!(size.compressed_bits < size.raw_bits / 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_foreign_processor() {
        let mut pi = PiLog::new(2);
        pi.push(Committer::Proc(2));
    }
}
