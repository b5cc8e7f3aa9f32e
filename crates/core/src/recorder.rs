//! The per-log view of a recording: its events regrouped into the PI,
//! CS and input logs whose sizes the paper reports (Figures 6–9).

use crate::log::{CsEntry, CsLog, DmaLog, InterruptEntry, InterruptLog, IoEntry, IoLog, PiLog};
use crate::mode::Mode;
use crate::stream::{LogEvent, StreamMeta};
use delorean_chunk::Committer;

/// A recording's logs, one per kind, as the paper measures them.
/// [`Recording::logs`](crate::Recording::logs) builds it on demand from
/// the recording's events; replay reads the events themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct LogSet {
    /// The PI log (empty in PicoLog mode).
    pub pi: PiLog,
    /// Per-processor CS logs.
    pub cs: Vec<CsLog>,
    /// Per-processor Interrupt logs.
    pub interrupts: Vec<InterruptLog>,
    /// Per-processor I/O logs.
    pub io: Vec<IoLog>,
    /// The DMA log.
    pub dma: DmaLog,
}

impl LogSet {
    /// The logs the machine `meta` describes keeps for `events`, given
    /// in commit order.
    pub(crate) fn of(meta: &StreamMeta, events: &[LogEvent]) -> Self {
        let n = meta.n_procs as usize;
        let has_pi = meta.mode.has_pi_log();
        let mut logs = LogSet {
            pi: PiLog::new(meta.n_procs),
            cs: (0..n)
                .map(|_| match meta.mode {
                    Mode::OrderSize => CsLog::full(meta.chunk_size),
                    Mode::OrderOnly => CsLog::order_only(),
                    Mode::PicoLog => CsLog::picolog(),
                })
                .collect(),
            interrupts: vec![InterruptLog::new(); n],
            io: vec![IoLog::new(); n],
            dma: DmaLog::new(),
        };
        for (slot, ev) in (0u64..).zip(events) {
            if has_pi {
                logs.pi.push(ev.committer);
            }
            match ev.committer {
                Committer::Proc(p) => {
                    let p = p as usize;
                    let chunk_index = ev.chunk_index;
                    if let Some(size) = ev.cs_size {
                        logs.cs[p].push(CsEntry { chunk_index, size });
                    }
                    if let Some((vector, payload)) = ev.interrupt {
                        logs.interrupts[p].push(InterruptEntry {
                            chunk_index,
                            vector,
                            payload,
                        });
                    }
                    if !ev.io_values.is_empty() {
                        logs.io[p].push(IoEntry {
                            chunk_index,
                            values: ev.io_values.clone(),
                        });
                    }
                }
                Committer::Dma => {
                    logs.dma.push_transfer(ev.dma_data.clone());
                    if !has_pi {
                        // The arbiter records the DMA's commit slot: the
                        // number of commits granted before it.
                        logs.dma.push_slot(slot);
                    }
                }
            }
        }
        logs
    }
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::stream::{test_meta, CommitBridge};
    use delorean_chunk::{CommitRecord, TruncationReason};

    /// The logs a recorder in `mode` keeps for `commits`.
    fn logs_of(mode: Mode, n_procs: u32, commits: &[CommitRecord]) -> LogSet {
        let mut bridge = CommitBridge::new(mode, n_procs);
        let events: Vec<LogEvent> = commits.iter().map(|c| bridge.convert(c)).collect();
        LogSet::of(&test_meta(mode, n_procs), &events)
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
