//! The per-processor Chunk Size (CS) logs.

use delorean_compress::{BitWriter, LogSize};

/// One CS-log record: a chunk whose size must be reproduced at replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsEntry {
    /// Per-processor logical chunk index (1-based).
    pub chunk_index: u64,
    /// Committed size in instructions.
    pub size: u32,
}

/// A processor's CS log, in one of the two Table-3 shapes.
///
/// * Order&Size logs *every* chunk's size at commit, with the paper's
///   variable-width entries: 1 bit when the chunk has the maximum size,
///   a flag plus an 11-bit size otherwise.
/// * OrderOnly and PicoLog log only non-deterministically truncated
///   chunks, as fixed 32-bit entries holding a *distance* (chunks
///   committed since the previous truncated chunk) and the size —
///   21+11 bits for OrderOnly, 22+10 for PicoLog (Table 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsLog {
    /// Every chunk's size (Order&Size).
    Full {
        /// Maximum (standard) chunk size.
        max_size: u32,
        /// Index of the first logged chunk (1 for whole-execution
        /// recordings; the checkpoint's chunk count + 1 for interval
        /// recordings). `None` until the first entry arrives.
        first_index: Option<u64>,
        /// Per-chunk sizes in commit order.
        sizes: Vec<u32>,
    },
    /// Only non-deterministic truncations (OrderOnly / PicoLog).
    Sparse {
        /// Bits of the distance field.
        distance_bits: u32,
        /// Bits of the size field.
        size_bits: u32,
        /// Truncation records, in commit order.
        entries: Vec<CsEntry>,
    },
}

impl CsLog {
    /// An Order&Size-shaped log.
    pub fn full(max_size: u32) -> Self {
        CsLog::Full {
            max_size,
            first_index: None,
            sizes: Vec::new(),
        }
    }

    /// An OrderOnly-shaped log (21-bit distance, 11-bit size).
    pub fn order_only() -> Self {
        CsLog::Sparse {
            distance_bits: 21,
            size_bits: 11,
            entries: Vec::new(),
        }
    }

    /// A PicoLog-shaped log (22-bit distance, 10-bit size).
    pub fn picolog() -> Self {
        CsLog::Sparse {
            distance_bits: 22,
            size_bits: 10,
            entries: Vec::new(),
        }
    }

    /// Records a committed chunk. For `Full` logs every chunk must be
    /// passed; for `Sparse` logs only the truncated ones.
    pub fn push(&mut self, entry: CsEntry) {
        match self {
            CsLog::Full {
                first_index, sizes, ..
            } => {
                let first = *first_index.get_or_insert(entry.chunk_index);
                debug_assert_eq!(
                    first + sizes.len() as u64,
                    entry.chunk_index,
                    "Order&Size CS log must receive every chunk in order"
                );
                sizes.push(entry.size);
            }
            CsLog::Sparse { entries, .. } => entries.push(entry),
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        match self {
            CsLog::Full { sizes, .. } => sizes.len(),
            CsLog::Sparse { entries, .. } => entries.len(),
        }
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The forced size of chunk `index` during replay, if this log
    /// constrains it.
    pub fn forced_size(&self, index: u64) -> Option<u32> {
        match self {
            CsLog::Full {
                first_index, sizes, ..
            } => {
                let first = (*first_index)?;
                let off = index.checked_sub(first)?;
                sizes.get(off as usize).copied()
            }
            CsLog::Sparse { entries, .. } => entries
                .iter()
                .find(|e| e.chunk_index == index)
                .map(|e| e.size),
        }
    }

    /// Bit-packs the log in its Table-3 format and measures it.
    pub fn measure(&self) -> LogSize {
        let mut w = BitWriter::new();
        match self {
            CsLog::Full {
                max_size, sizes, ..
            } => {
                let size_bits = 32 - max_size.leading_zeros().max(1);
                for &s in sizes {
                    if s == *max_size {
                        w.write_bit(true);
                    } else {
                        w.write_bit(false);
                        w.write_bits(u64::from(s.min(*max_size)), size_bits);
                    }
                }
            }
            CsLog::Sparse {
                distance_bits,
                size_bits,
                entries,
            } => {
                let mut last = 0u64;
                for e in entries {
                    let distance = (e.chunk_index - last).min((1 << distance_bits) - 1);
                    last = e.chunk_index;
                    w.write_bits(distance, *distance_bits);
                    w.write_bits(u64::from(e.size).min((1 << size_bits) - 1), *size_bits);
                }
            }
        }
        let bits = w.bit_len();
        LogSize::from_bits(&w.into_bytes(), bits)
    }
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn full_log_replays_every_size() {
        let mut log = CsLog::full(2000);
        log.push(CsEntry {
            chunk_index: 1,
            size: 2000,
        });
        log.push(CsEntry {
            chunk_index: 2,
            size: 137,
        });
        assert_eq!(log.forced_size(1), Some(2000));
        assert_eq!(log.forced_size(2), Some(137));
        assert_eq!(log.forced_size(3), None);
    }

    #[test]
    fn full_log_entry_widths_match_table5() {
        // 1 bit for max-size chunks, 1 + 11 bits otherwise (2000 fits
        // in 11 bits).
        let mut log = CsLog::full(2000);
        for i in 0..10 {
            log.push(CsEntry {
                chunk_index: i + 1,
                size: 2000,
            });
        }
        assert_eq!(log.measure().raw_bits, 10);
        let mut log = CsLog::full(2000);
        log.push(CsEntry {
            chunk_index: 1,
            size: 5,
        });
        assert_eq!(log.measure().raw_bits, 12);
    }

    #[test]
    fn sparse_log_uses_32bit_entries() {
        let mut log = CsLog::order_only();
        log.push(CsEntry {
            chunk_index: 12,
            size: 700,
        });
        log.push(CsEntry {
            chunk_index: 90,
            size: 1999,
        });
        assert_eq!(log.measure().raw_bits, 64);
        assert_eq!(log.forced_size(12), Some(700));
        assert_eq!(log.forced_size(13), None);
        assert_eq!(log.len(), 2);

        let mut pl = CsLog::picolog();
        pl.push(CsEntry {
            chunk_index: 3,
            size: 512,
        });
        assert_eq!(pl.measure().raw_bits, 32);
    }

    #[test]
    fn empty_logs_measure_zero() {
        assert_eq!(CsLog::order_only().measure(), LogSize::default());
        assert!(CsLog::full(100).is_empty());
    }
}
