//! PI-log stratification (Section 4.3 of the paper).
//!
//! Instead of one processor-ID entry per chunk commit, the stratified
//! PI log records *chunk strata*: vectors of per-processor counters of
//! chunks committed since the previous stratum. Chunks inside a stratum
//! have no cross-processor conflicts, so replay may commit them in any
//! order (same-processor chunks still serialize by construction). A new
//! stratum is cut when the chunk to log next (i) conflicts with chunks
//! committed by *other* processors since the last stratum, or (ii)
//! would overflow its processor's counter.
//!
//! The hardware design keeps one Signature Register per processor; this
//! model uses exact line sets, consistent with the engine's conflict
//! detection. A *conflict* requires a write on one side: read-read
//! sharing never cuts a stratum.

use delorean_compress::{BitWriter, LogSize};
use std::collections::HashSet;
use std::num::NonZeroU32;

/// The stratified form of a PI log.
///
/// Column `n_procs` counts DMA commits (the DMA engine behaves as an
/// extra processor at the arbiter).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StratifiedPiLog {
    n_cols: u32,
    max_per_stratum: u32,
    strata: Vec<Vec<u32>>,
}

impl StratifiedPiLog {
    /// Counter width in bits.
    pub fn counter_bits(&self) -> u32 {
        32 - self.max_per_stratum.leading_zeros()
    }

    /// Number of strata.
    pub fn len(&self) -> usize {
        self.strata.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.strata.is_empty()
    }

    /// The strata, oldest first. Each is a vector of `n_procs + 1`
    /// counters (the last column is DMA).
    pub fn strata(&self) -> &[Vec<u32>] {
        &self.strata
    }

    /// Total chunk commits covered.
    pub fn total_chunks(&self) -> u64 {
        self.strata.iter().flatten().map(|&c| u64::from(c)).sum()
    }

    /// Raw and compressed size: one counter per column per stratum.
    pub fn measure(&self) -> LogSize {
        let mut w = BitWriter::new();
        let bits = self.counter_bits();
        for s in &self.strata {
            for &c in s {
                w.write_bits(u64::from(c.min(self.max_per_stratum)), bits);
            }
        }
        let total = w.bit_len();
        LogSize::from_bits(&w.into_bytes(), total)
    }
}

/// The Stratifier Module (Figure 5(b)): consumes the commit sequence
/// with per-chunk footprints and produces a [`StratifiedPiLog`].
#[derive(Debug, Clone)]
pub struct Stratifier {
    max_per_stratum: u32,
    counters: Vec<u32>,
    footprints: Vec<HashSet<u64>>,
    write_footprints: Vec<HashSet<u64>>,
    strata: Vec<Vec<u32>>,
}

impl Stratifier {
    /// Creates a stratifier for `n_cols` committers (processors plus
    /// DMA) allowing at most `max_per_stratum` chunks per committer per
    /// stratum.
    pub fn new(n_cols: NonZeroU32, max_per_stratum: NonZeroU32) -> Self {
        let n = n_cols.get() as usize;
        Self {
            max_per_stratum: max_per_stratum.get(),
            counters: vec![0; n],
            footprints: vec![HashSet::new(); n],
            write_footprints: vec![HashSet::new(); n],
            strata: Vec::new(),
        }
    }

    fn cut(&mut self) {
        self.strata.push(self.counters.clone());
        for c in &mut self.counters {
            *c = 0;
        }
        for f in &mut self.footprints {
            f.clear();
        }
        for f in &mut self.write_footprints {
            f.clear();
        }
    }

    /// Observes one committed chunk from committer column `col` with
    /// its accessed and written lines (`writes` must be a subset of
    /// `lines`).
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn observe(&mut self, col: usize, lines: &[u64], writes: &[u64]) {
        assert!(col < self.counters.len(), "committer column out of range");
        let counter_full = self.counters[col] >= self.max_per_stratum;
        // A cross-processor conflict needs a write on one side: the
        // incoming chunk's writes against anything accessed, or the
        // incoming chunk's accesses against anything written.
        let conflicts = !counter_full
            && (0..self.counters.len()).any(|i| {
                i != col
                    && (writes.iter().any(|l| self.footprints[i].contains(l))
                        || lines.iter().any(|l| self.write_footprints[i].contains(l)))
            });
        if counter_full || conflicts {
            self.cut();
        }
        self.footprints[col].extend(lines.iter().copied());
        self.write_footprints[col].extend(writes.iter().copied());
        self.counters[col] += 1;
    }

    /// Flushes the final partial stratum and returns the log.
    pub fn finish(mut self) -> StratifiedPiLog {
        if self.counters.iter().any(|&c| c > 0) {
            self.cut();
        }
        StratifiedPiLog {
            n_cols: self.counters.len() as u32,
            max_per_stratum: self.max_per_stratum,
            strata: self.strata,
        }
    }
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    fn nz(n: u32) -> NonZeroU32 {
        NonZeroU32::new(n).unwrap()
    }

    #[test]
    fn conflict_cuts_stratum() {
        // Mirrors Figure 5(a): processors 3 and 0 conflict.
        let mut s = Stratifier::new(nz(4), nz(2));
        s.observe(1, &[10], &[10]);
        s.observe(3, &[20], &[20]); // will conflict with proc 0's chunk below
        s.observe(2, &[30], &[30]);
        s.observe(0, &[20], &[]); // reads proc 3's written line -> cut S1 first
        s.observe(1, &[40], &[]);
        s.observe(1, &[50], &[]);
        s.observe(1, &[60], &[]); // counter for proc 1 overflows -> cut S2
        let log = s.finish();
        assert_eq!(log.len(), 3);
        assert_eq!(log.strata()[0], vec![0, 1, 1, 1]);
        assert_eq!(log.strata()[1], vec![1, 2, 0, 0]);
        assert_eq!(log.strata()[2], vec![0, 1, 0, 0]);
        assert_eq!(log.total_chunks(), 7);
    }

    #[test]
    fn same_processor_conflicts_do_not_cut() {
        let mut s = Stratifier::new(nz(2), nz(4));
        s.observe(0, &[1], &[1]);
        s.observe(0, &[1], &[1]); // within-processor cross-chunk conflict: fine
        s.observe(0, &[1], &[1]);
        let log = s.finish();
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn counter_width_matches_capacity() {
        assert_eq!(Stratifier::new(nz(2), nz(1)).finish().counter_bits(), 1);
        assert_eq!(Stratifier::new(nz(2), nz(3)).finish().counter_bits(), 2);
        assert_eq!(Stratifier::new(nz(2), nz(7)).finish().counter_bits(), 3);
    }

    #[test]
    fn capacity_one_packs_disjoint_chunks_together() {
        // With 1 chunk/proc/stratum and no conflicts, 8 processors'
        // chunks share a stratum: 8 counters of 1 bit = 8 bits per 8
        // chunks, versus 32 bits of plain 4-bit PI entries.
        let mut s = Stratifier::new(nz(8), nz(1));
        for round in 0..10u64 {
            for p in 0..8usize {
                let line = [round * 100 + p as u64];
                s.observe(p, &line, &line);
            }
        }
        let log = s.finish();
        assert_eq!(log.len(), 10);
        assert_eq!(log.measure().raw_bits, 10 * 8);
    }

    #[test]
    fn conflict_heavy_sequences_waste_space_at_high_capacity() {
        // Every chunk conflicts with the previous one from the other
        // processor: each stratum holds one chunk, so wider counters
        // only waste bits (the paper sees this for 7 chunks/stratum on
        // SPECweb2005).
        let make = |cap: u32| {
            let mut s = Stratifier::new(nz(2), nz(cap));
            for i in 0..20usize {
                s.observe(i % 2, &[7], &[7]); // same written line every time
            }
            s.finish().measure().raw_bits
        };
        assert!(make(7) > make(1));
    }

    #[test]
    fn read_read_sharing_never_cuts() {
        let mut s = Stratifier::new(nz(4), nz(8));
        for i in 0..16usize {
            s.observe(i % 4, &[42], &[]); // everyone reads line 42
        }
        assert_eq!(s.finish().len(), 1);
    }

    #[test]
    fn empty_stratifier_measures_zero() {
        let log = Stratifier::new(nz(8), nz(3)).finish();
        assert!(log.is_empty());
        assert_eq!(log.measure().raw_bits, 0);
        assert_eq!(log.total_chunks(), 0);
    }
}
