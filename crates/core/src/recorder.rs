//! The logs of one recording, as a [`StreamRecorder`](crate::stream::StreamRecorder)
//! accumulates them into a [`MemorySink`](crate::MemorySink).

use crate::log::{CsLog, DmaLog, InterruptLog, IoLog, PiLog};

/// Every log produced by one recording.
#[derive(Debug, Clone, PartialEq)]
pub struct LogSet {
    /// The PI log (empty in PicoLog mode).
    pub pi: PiLog,
    /// Per-PI-entry access footprints, kept so the log can be
    /// stratified *post hoc* at any chunks-per-stratum capacity
    /// (the hardware Stratifier of Figure 5 does this online).
    pub pi_footprints: Vec<Vec<u64>>,
    /// Per-PI-entry written lines (subsets of the access footprints).
    pub pi_write_footprints: Vec<Vec<u64>>,
    /// Per-processor CS logs.
    pub cs: Vec<CsLog>,
    /// Per-processor Interrupt logs.
    pub interrupts: Vec<InterruptLog>,
    /// Per-processor I/O logs.
    pub io: Vec<IoLog>,
    /// The DMA log.
    pub dma: DmaLog,
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::mode::Mode;
    use crate::stream::{MemorySink, StreamRecorder};
    use delorean_chunk::{CommitRecord, Committer, EventObserver, TruncationReason};

    /// The logs a recorder in `mode` keeps for `commits`.
    fn logs_of(mode: Mode, n_procs: u32, commits: &[CommitRecord]) -> LogSet {
        let mut sink = MemorySink::with_shape(mode, n_procs, 1000);
        let mut r = StreamRecorder::new(mode, n_procs, &mut sink);
        for c in commits {
            EventObserver::on_commit(&mut r, c);
        }
        sink.into_logs()
    }

    fn commit(p: u32, index: u64, size: u32, reason: TruncationReason) -> CommitRecord {
        CommitRecord {
            shard: None,
            committer: Committer::Proc(p),
            chunk_index: index,
            size,
            truncation: reason,
            global_slot: 0,
            interrupt: None,
            io_values: Vec::new(),
            dma_data: Vec::new(),
            access_lines: vec![index],
            write_lines: vec![index],
        }
    }

    #[test]
    fn order_only_logs_only_nondeterministic_sizes() {
        let logs = logs_of(
            Mode::OrderOnly,
            2,
            &[
                commit(0, 1, 1000, TruncationReason::StandardSize),
                commit(0, 2, 412, TruncationReason::Overflow),
                commit(1, 1, 300, TruncationReason::Uncached),
                commit(1, 2, 99, TruncationReason::Collision),
            ],
        );
        assert_eq!(logs.pi.len(), 4);
        assert_eq!(logs.cs[0].len(), 1);
        assert_eq!(logs.cs[0].forced_size(2), Some(412));
        assert_eq!(logs.cs[1].forced_size(2), Some(99));
        assert_eq!(logs.cs[1].forced_size(1), None, "uncached is deterministic");
    }

    #[test]
    fn order_size_logs_every_size() {
        let logs = logs_of(
            Mode::OrderSize,
            1,
            &[
                commit(0, 1, 1000, TruncationReason::StandardSize),
                commit(0, 2, 17, TruncationReason::StandardSize),
            ],
        );
        assert_eq!(logs.cs[0].len(), 2);
        assert_eq!(logs.cs[0].forced_size(2), Some(17));
    }

    #[test]
    fn picolog_has_no_pi_but_records_dma_slots() {
        let dma = CommitRecord {
            shard: None,
            committer: Committer::Dma,
            chunk_index: 0,
            size: 0,
            truncation: TruncationReason::StandardSize,
            global_slot: 2,
            interrupt: None,
            io_values: Vec::new(),
            dma_data: vec![(5, 5)],
            access_lines: vec![1],
            write_lines: vec![1],
        };
        let logs = logs_of(
            Mode::PicoLog,
            2,
            &[commit(0, 1, 1000, TruncationReason::StandardSize), dma],
        );
        assert!(logs.pi.is_empty());
        assert_eq!(logs.dma.slot(0), Some(1));
        assert_eq!(logs.dma.transfer(0), Some(&[(5u64, 5u64)][..]));
    }

    #[test]
    fn interrupt_and_io_feed_input_logs() {
        let mut rec = commit(0, 3, 1000, TruncationReason::StandardSize);
        rec.interrupt = Some((2, 0xfeed));
        rec.io_values = vec![(1, 42)];
        let logs = logs_of(Mode::OrderOnly, 1, &[rec]);
        assert_eq!(logs.interrupts[0].at_chunk(3), Some((2, 0xfeed)));
        assert_eq!(logs.io[0].value(3, 0), Some(42));
    }
}
