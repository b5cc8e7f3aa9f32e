//! Exact per-chunk footprints and their signature-domain views.
//!
//! The engine disambiguates chunks with hash-encoded 2-Kbit
//! [`Signature`]s (Appendix A): a signature intersection is how the
//! hardware decides two chunks conflict, and hash aliasing makes that
//! test conservative — it can report conflicts between chunks whose
//! exact line sets are disjoint. This module gives inspectors both
//! views of one committed chunk side by side: the exact sorted
//! read/write line sets, and the signatures hardware would have built
//! from them. Diffing conflict answers between the two views is what
//! quantifies signature-aliasing false positives (the `deps` analysis
//! pass consumes exactly this interface).

use delorean_mem::Signature;

/// The exact memory footprint of one committed chunk (or DMA
/// transfer): sorted, deduplicated cache-line index sets.
///
/// `write_lines` is a subset of the chunk's accesses; `read_lines`
/// holds the lines the chunk read (a line both read and written
/// appears in both sets, matching the engine's `access`/`write` split).
///
/// Footprints are the currency of every conflict argument in this
/// workspace: two chunks may execute (or replay) in either relative
/// order iff their footprints do not conflict under
/// [`ChunkFootprint::conflicts_exact`]. The `deps` analysis pass builds
/// its dependence DAG from them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChunkFootprint {
    /// Cache lines read, ascending.
    pub read_lines: Vec<u64>,
    /// Cache lines written, ascending.
    pub write_lines: Vec<u64>,
}

/// Sorted-slice intersection test.
fn intersects_sorted(a: &[u64], b: &[u64]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            core::cmp::Ordering::Less => i += 1,
            core::cmp::Ordering::Greater => j += 1,
            core::cmp::Ordering::Equal => return true,
        }
    }
    false
}

impl ChunkFootprint {
    /// A footprint from already-sorted line sets (debug-asserted; the
    /// inspector and the wire both produce sorted footprints).
    pub fn new(read_lines: Vec<u64>, write_lines: Vec<u64>) -> Self {
        debug_assert!(read_lines.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(write_lines.windows(2).all(|w| w[0] < w[1]));
        Self {
            read_lines,
            write_lines,
        }
    }

    /// The read signature hardware would hash this footprint into.
    pub fn read_signature(&self) -> Signature {
        Signature::from_lines(self.read_lines.iter().copied())
    }

    /// The write signature hardware would hash this footprint into.
    pub fn write_signature(&self) -> Signature {
        Signature::from_lines(self.write_lines.iter().copied())
    }

    /// Exact conflict test: `self` (the earlier chunk) and `other`
    /// conflict iff a write on one side meets an access on the other —
    /// W∩(R∪W) in either direction on the true line sets.
    pub fn conflicts_exact(&self, other: &ChunkFootprint) -> bool {
        intersects_sorted(&self.write_lines, &other.read_lines)
            || intersects_sorted(&self.write_lines, &other.write_lines)
            || intersects_sorted(&self.read_lines, &other.write_lines)
    }

    /// Signature-domain conflict test: the same W∩(R∪W) check the
    /// commit arbiter performs, but on the hashed signatures — a
    /// conservative superset of [`ChunkFootprint::conflicts_exact`]
    /// (aliasing adds false conflicts, never removes true ones).
    pub fn conflicts_signature(&self, other: &ChunkFootprint) -> bool {
        let (wa, wb) = (self.write_signature(), other.write_signature());
        wa.intersects(&other.read_signature())
            || wa.intersects(&wb)
            || self.read_signature().intersects(&wb)
    }

    /// Whether the footprint touches nothing.
    pub fn is_empty(&self) -> bool {
        self.read_lines.is_empty() && self.write_lines.is_empty()
    }
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn exact_conflicts_need_a_write() {
        let a = ChunkFootprint::new(vec![1, 2], vec![]);
        let b = ChunkFootprint::new(vec![2, 3], vec![]);
        assert!(!a.conflicts_exact(&b), "read-read never conflicts");
        let c = ChunkFootprint::new(vec![2], vec![2]);
        assert!(a.conflicts_exact(&c));
        assert!(c.conflicts_exact(&a));
    }

    #[test]
    fn signature_conflicts_superset_exact() {
        // Any exactly-conflicting pair must also conflict in the
        // signature domain (no false negatives).
        let a = ChunkFootprint::new(vec![10, 11], vec![10]);
        let b = ChunkFootprint::new(vec![10], vec![]);
        assert!(a.conflicts_exact(&b));
        assert!(a.conflicts_signature(&b));
    }

    #[test]
    fn aliasing_produces_signature_only_conflicts() {
        // Saturate one write signature; a disjoint reader then aliases
        // with overwhelming probability.
        let writer = ChunkFootprint::new(vec![], (0..400).map(|l| l * 977).collect());
        // Line 1_000_000 is not a multiple of 977 but hashes onto two
        // bits the flooded signature already set.
        let reader = ChunkFootprint::new(vec![1_000_000], vec![]);
        assert!(!writer.conflicts_exact(&reader));
        assert!(
            writer.conflicts_signature(&reader),
            "dense signature must alias"
        );
    }

    #[test]
    fn signatures_match_manual_insertion() {
        let fp = ChunkFootprint::new(vec![5, 9], vec![9]);
        assert_eq!(fp.read_signature(), Signature::from_lines([5, 9]));
        assert_eq!(fp.write_signature(), Signature::from_lines([9]));
        assert!(!fp.is_empty());
        assert!(ChunkFootprint::default().is_empty());
    }
}
