//! The conflict relation the race and dependence passes share, and the
//! one replay that feeds it.
//!
//! DeLorean orders two chunks only when their footprints conflict: a
//! write on one side meets a read or a write on the other, W∩(R∪W). A
//! [`Tracker`] keeps that relation online. For each key (a cache line,
//! or one of the 2,048 signature bits a line hashes to) it holds the
//! last writer and the readers since that write, at most one reader per
//! committer column. Each commit first asks for its conflict edges to
//! earlier commits of other columns, then records itself; same-column
//! conflicts are program order, which both passes carry on their own.
//! The race pass folds the line edges into vector clocks, the deps pass
//! folds line and bit edges into its two DAGs, and [`walk`] is the
//! replay both run on.

use crate::races::ConflictKind;
use delorean::inspect::{CommitEvent, InspectError, ReplayInspector};
use delorean::LogSource;
use delorean_chunk::Committer;
use delorean_mem::SIG_BITS;
use std::collections::HashMap;

/// The clock column of a committer: its processor ID, or `n_procs` for
/// the DMA engine, which "acts like another processor" at the arbiter.
pub(crate) fn column(committer: Committer, n_procs: u32) -> u32 {
    match committer {
        Committer::Proc(p) => p,
        Committer::Dma => n_procs,
    }
}

/// A column's committer label (`P3` or `DMA`).
pub(crate) fn who_label(col: u32, n_procs: u32) -> String {
    if col == n_procs {
        "DMA".to_string()
    } else {
        format!("P{col}")
    }
}

/// One key's state: the last writer and the readers since that write,
/// each beside its column.
#[derive(Debug, Clone)]
pub(crate) struct Slot<C> {
    writer: Option<(u32, C)>,
    readers: Vec<(u32, C)>,
}

impl<C> Default for Slot<C> {
    fn default() -> Self {
        Self {
            writer: None,
            readers: Vec::new(),
        }
    }
}

/// The last writer and the readers since that write of every key,
/// naming each earlier commit by a `C` (a node index, or the commit's
/// vector-clock record).
#[derive(Debug)]
pub(crate) enum Tracker<C> {
    /// Keyed by the cache lines a replay touches.
    Lines(HashMap<u64, Slot<C>>),
    /// Indexed directly by signature bit, as
    /// [`delorean_mem::bit_indices`] numbers them.
    Bits(Vec<Slot<C>>),
}

impl<C: Clone> Tracker<C> {
    /// A tracker keyed by cache line.
    pub(crate) fn lines() -> Self {
        Self::Lines(HashMap::new())
    }

    /// A tracker keyed by signature bit.
    pub(crate) fn bits() -> Self {
        Self::Bits(vec![Slot::default(); SIG_BITS])
    }

    fn get(&self, key: u64) -> Option<&Slot<C>> {
        match self {
            Self::Lines(map) => map.get(&key),
            Self::Bits(bits) => bits.get(key as usize),
        }
    }

    fn slot(&mut self, key: u64) -> &mut Slot<C> {
        match self {
            Self::Lines(map) => map.entry(key).or_default(),
            Self::Bits(bits) => &mut bits[key as usize],
        }
    }

    /// Calls `edge(earlier, key, kind)` for every conflict between a
    /// commit of column `col` that reads `reads` and writes `writes`
    /// and an earlier commit of another column: W-R for each read key,
    /// then W-W and R-W for each written key.
    pub(crate) fn conflicts(
        &self,
        col: u32,
        reads: impl IntoIterator<Item = u64>,
        writes: &[u64],
        mut edge: impl FnMut(&C, u64, ConflictKind),
    ) {
        for key in reads {
            if let Some((c, w)) = self.get(key).and_then(|s| s.writer.as_ref()) {
                if *c != col {
                    edge(w, key, ConflictKind::WriteRead);
                }
            }
        }
        for &key in writes {
            let Some(slot) = self.get(key) else { continue };
            if let Some((c, w)) = &slot.writer {
                if *c != col {
                    edge(w, key, ConflictKind::WriteWrite);
                }
            }
            for (c, r) in &slot.readers {
                if *c != col {
                    edge(r, key, ConflictKind::ReadWrite);
                }
            }
        }
    }

    /// Records `commit`, of column `col`, as the last writer of its
    /// `writes` and a reader of its `reads`, in place of any earlier
    /// reader from its column.
    pub(crate) fn record(&mut self, col: u32, commit: &C, reads: &[u64], writes: &[u64]) {
        for &key in writes {
            let slot = self.slot(key);
            slot.writer = Some((col, commit.clone()));
            slot.readers.clear();
        }
        for &key in reads {
            let slot = self.slot(key);
            slot.readers.retain(|(c, _)| *c != col);
            slot.readers.push((col, commit.clone()));
        }
    }
}

/// Replays `source` to the end of its commits with footprint collection
/// on, handing each commit to `observe`, and returns the inspector so
/// the caller can check the trailer.
pub(crate) fn walk<S: LogSource>(
    source: S,
    mut observe: impl FnMut(&CommitEvent),
) -> Result<ReplayInspector<S>, InspectError> {
    let mut inspector = ReplayInspector::from_source(source)?;
    inspector.collect_footprints(true);
    while let Some(ev) = inspector.step()? {
        observe(&ev);
    }
    Ok(inspector)
}

/// A commit event with the given identity, size and footprint, for the
/// passes' unit tests.
#[cfg(test)]
pub(crate) fn commit(
    gcc: u64,
    committer: Committer,
    chunk_index: u64,
    size: u32,
    read_lines: Vec<u64>,
    write_lines: Vec<u64>,
) -> CommitEvent {
    CommitEvent {
        gcc,
        committer,
        chunk_index,
        size,
        interrupt: false,
        truncation: delorean_chunk::TruncationReason::StandardSize,
        io_loads: 0,
        dma_words: 0,
        watch_hits: Vec::new(),
        read_lines,
        write_lines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(
        t: &Tracker<u32>,
        col: u32,
        reads: &[u64],
        writes: &[u64],
    ) -> Vec<(u32, u64, &'static str)> {
        let mut out = Vec::new();
        let reads = reads.iter().copied();
        t.conflicts(col, reads, writes, |&c, k, kind| {
            out.push((c, k, kind.label()))
        });
        out
    }

    #[test]
    fn edges_come_in_read_then_write_order_and_skip_the_own_column() {
        for mut t in [Tracker::lines(), Tracker::bits()] {
            t.record(0, &1, &[], &[7]);
            t.record(1, &2, &[5], &[]);
            t.record(2, &3, &[5], &[]);
            // Column 1 reads 7 (W-R against commit 1) and writes 5: its
            // own earlier read is program order, column 2's is R-W.
            assert_eq!(edges(&t, 1, &[7], &[5]), [(1, 7, "W-R"), (3, 5, "R-W")]);
            t.record(1, &4, &[7], &[5]);
            // Writing 5 cleared its readers; 7 keeps one reader per
            // column beside its writer.
            let expected = [(4, 5, "W-R"), (1, 7, "W-W"), (4, 7, "R-W")];
            assert_eq!(edges(&t, 2, &[5], &[7]), expected);
            t.record(1, &5, &[7], &[]);
            assert_eq!(edges(&t, 0, &[], &[7]), [(5, 7, "R-W")]);
        }
    }
}
