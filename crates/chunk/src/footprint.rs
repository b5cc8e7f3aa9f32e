//! Exact footprint conflicts on sorted line sets.
//!
//! The engine disambiguates chunks on exact line sets, sorted and
//! deduplicated (the hardware it models uses hash-encoded 2-Kbit
//! signatures instead, Appendix A, which can report conflicts between
//! chunks whose exact sets are disjoint). [`footprints_conflict`] is the
//! exact test the `deps` analysis pass diffs signature conflicts
//! against.

/// Sorted-slice intersection test.
pub(crate) fn intersects_sorted(a: &[u64], b: &[u64]) -> bool {
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

/// Whether two chunks conflict, each given as its sorted `(read,
/// written)` line sets: a write on either side meets a read or a write
/// on the other, W∩(R∪W). Two chunks may execute (or replay) in either
/// relative order iff they do not.
pub fn footprints_conflict(
    (a_reads, a_writes): (&[u64], &[u64]),
    (b_reads, b_writes): (&[u64], &[u64]),
) -> bool {
    intersects_sorted(a_writes, b_reads)
        || intersects_sorted(a_writes, b_writes)
        || intersects_sorted(a_reads, b_writes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_conflicts_need_a_write() {
        let a: (&[u64], &[u64]) = (&[1, 2], &[]);
        let b: (&[u64], &[u64]) = (&[2, 3], &[]);
        assert!(!footprints_conflict(a, b), "read-read never conflicts");
        let c: (&[u64], &[u64]) = (&[2], &[2]);
        assert!(footprints_conflict(a, c));
        assert!(footprints_conflict(c, a));
    }
}
