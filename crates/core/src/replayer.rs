//! The DeLorean replayer: `ExecutionHooks` that drive the engine from a
//! recorded log stream.

use crate::mode::Mode;
use crate::recorder::LogSet;
use crate::stratify::StratifiedPiLog;
use crate::stream::{LogSource, MemorySource};
use delorean_chunk::{policy, ArbiterContext, CommitRecord, Committer, ExecutionHooks};
use delorean_isa::{Addr, Word};

#[derive(Debug)]
struct StratCursor {
    strata: Vec<Vec<u32>>,
    idx: usize,
    remaining: Vec<u32>,
}

impl StratCursor {
    fn new(log: &StratifiedPiLog) -> Self {
        let strata: Vec<Vec<u32>> = log.strata().to_vec();
        let remaining = strata.first().cloned().unwrap_or_default();
        Self {
            strata,
            idx: 0,
            remaining,
        }
    }

    /// Advances past exhausted strata; returns `false` when the log is
    /// fully consumed.
    fn settle(&mut self) -> bool {
        while self.remaining.iter().all(|&c| c == 0) {
            self.idx += 1;
            match self.strata.get(self.idx) {
                Some(next) => self.remaining = next.clone(),
                None => return false,
            }
        }
        true
    }
}

/// Replay-side hooks: enforce the recorded commit order and feed the
/// input logs back into the execution.
///
/// The replayer is generic over its [`LogSource`]: [`MemorySource`]
/// replays a borrowed in-memory [`LogSet`],
/// [`FileSource`](crate::FileSource) decodes a `.dlrn` stream on
/// demand, so replay never needs the whole log resident.
///
/// For Order&Size and OrderOnly the arbiter follows the PI log
/// entry-by-entry; with [`Replayer::stratified`] it instead enforces
/// only the stratum constraints (chunks of different processors within
/// a stratum may commit in any order — they were conflict-free). For
/// PicoLog it regenerates the round-robin order and injects DMA at the
/// recorded commit slots.
#[derive(Debug)]
pub(crate) struct Replayer<S: LogSource> {
    mode: Mode,
    n_procs: u32,
    source: S,
    pi_pos: u64,
    rr_cursor: u32,
    strata: Option<StratCursor>,
    divergence: Option<String>,
}

impl<'r> Replayer<MemorySource<'r>> {
    /// A replayer following the recording's exact commit order, over
    /// in-memory logs.
    pub(crate) fn new(mode: Mode, n_procs: u32, logs: &'r LogSet) -> Self {
        Self::from_source(MemorySource::from_logs(mode, n_procs, logs))
    }

    /// A replayer driven by a *stratified* PI log (Section 4.3).
    ///
    /// # Panics
    ///
    /// Panics if `mode` is PicoLog, which has no PI log to stratify.
    pub(crate) fn stratified(
        mode: Mode,
        n_procs: u32,
        logs: &'r LogSet,
        log: &StratifiedPiLog,
    ) -> Self {
        assert!(mode.has_pi_log(), "PicoLog has no PI log to stratify");
        let mut r = Self::new(mode, n_procs, logs);
        r.strata = Some(StratCursor::new(log));
        r
    }
}

impl<S: LogSource> Replayer<S> {
    /// A replayer over any log source (e.g. a streaming
    /// [`FileSource`](crate::FileSource)).
    pub(crate) fn from_source(source: S) -> Self {
        Self {
            mode: source.mode(),
            n_procs: source.n_procs(),
            pi_pos: 0,
            // A source resumed from a checkpoint carries the PicoLog
            // round-robin phase its window starts at.
            rr_cursor: source.resume_phase().unwrap_or(0),
            strata: None,
            divergence: None,
            source,
        }
    }

    /// Consumes the replayer, returning the source and the divergence.
    pub(crate) fn into_parts(self) -> (S, Option<String>) {
        (self.source, self.divergence)
    }

    fn diverge(&mut self, msg: String) {
        if self.divergence.is_none() {
            self.divergence = Some(msg);
        }
    }
}

impl<S: LogSource> ExecutionHooks for Replayer<S> {
    fn next_grant(&mut self, ctx: &ArbiterContext<'_>) -> Option<Committer> {
        match self.mode {
            Mode::PicoLog => {
                if self.source.dma_slot_matches(ctx.total_commits) {
                    return Some(Committer::Dma);
                }
                policy::round_robin(ctx, self.rr_cursor)
            }
            Mode::OrderSize | Mode::OrderOnly => {
                if let Some(sc) = &mut self.strata {
                    if !sc.settle() {
                        return None;
                    }
                    let dma_col = self.n_procs as usize;
                    if sc.remaining.get(dma_col).copied().unwrap_or(0) > 0 {
                        return Some(Committer::Dma);
                    }
                    ctx.pending
                        .iter()
                        .filter(|pv| match pv.committer {
                            Committer::Proc(p) => sc.remaining[p as usize] > 0,
                            Committer::Dma => false,
                        })
                        .min_by_key(|pv| pv.arrival)
                        .map(|pv| pv.committer)
                } else {
                    match self.source.pi_peek() {
                        Some(Committer::Proc(p)) => {
                            let c = Committer::Proc(p);
                            ctx.has_pending(c).then_some(c)
                        }
                        Some(Committer::Dma) => Some(Committer::Dma),
                        None => None,
                    }
                }
            }
        }
    }

    fn on_commit(&mut self, rec: &CommitRecord) {
        let col = match rec.committer {
            Committer::Proc(p) => p as usize,
            Committer::Dma => self.n_procs as usize,
        };
        match self.mode {
            Mode::PicoLog => {
                if let Committer::Proc(p) = rec.committer {
                    self.rr_cursor = (p + 1) % self.n_procs;
                }
            }
            Mode::OrderSize | Mode::OrderOnly => {
                if let Some(sc) = &mut self.strata {
                    if sc.remaining.get(col).copied().unwrap_or(0) == 0 {
                        let idx = sc.idx;
                        self.diverge(format!(
                            "stratum {idx} has no budget for committer column {col}"
                        ));
                    } else {
                        sc.remaining[col] -= 1;
                    }
                } else {
                    let expected = self.source.pi_peek();
                    if expected != Some(rec.committer) {
                        self.diverge(format!(
                            "PI log position {} expected {:?}, got {:?}",
                            self.pi_pos, expected, rec.committer
                        ));
                    }
                }
            }
        }
        self.pi_pos += 1;
        self.source.note_commit(rec.committer);
    }

    fn forced_chunk_size(&mut self, core: u32, index: u64) -> Option<u32> {
        self.source.forced_size(core, index)
    }

    fn io_load(&mut self, core: u32, index: u64, seq: u32, port: u16, _dev: Word) -> Word {
        match self.source.io_value(core, index, seq) {
            Some(v) => v,
            None => {
                self.diverge(format!(
                    "I/O log miss: core {core}, chunk {index}, seq {seq}, port {port}"
                ));
                0
            }
        }
    }

    fn pending_interrupt(&mut self, core: u32, index: u64) -> Option<(u16, Word)> {
        self.source.interrupt_at(core, index)
    }

    fn dma_data(&mut self) -> Vec<(Addr, Word)> {
        match self.source.dma_next() {
            Some(d) => d,
            None => {
                self.diverge("DMA log exhausted".to_string());
                Vec::new()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::stream::{MemorySink, StreamRecorder};
    use delorean_chunk::TruncationReason;

    fn logs_with_pi(entries: &[Committer]) -> LogSet {
        let mut sink = MemorySink::with_shape(Mode::OrderOnly, 2, 1000);
        let mut r = StreamRecorder::new(Mode::OrderOnly, 2, &mut sink);
        for (i, &c) in entries.iter().enumerate() {
            r.on_commit(&CommitRecord {
                shard: None,
                committer: c,
                chunk_index: i as u64 / 2 + 1,
                size: 1000,
                truncation: TruncationReason::StandardSize,
                global_slot: i as u64 + 1,
                interrupt: None,
                io_values: Vec::new(),
                dma_data: if c == Committer::Dma {
                    vec![(1, 1)]
                } else {
                    Vec::new()
                },
                access_lines: Vec::new(),
                write_lines: Vec::new(),
            });
        }
        sink.into_logs()
    }

    #[test]
    fn pi_order_is_enforced() {
        use delorean_chunk::PendingView;
        let logs = logs_with_pi(&[Committer::Proc(1), Committer::Proc(0)]);
        let mut rp = Replayer::new(Mode::OrderOnly, 2, &logs);
        // Proc 0 is pending but the PI log wants proc 1 first.
        let pending = [PendingView {
            committer: Committer::Proc(0),
            arrival: 0,
        }];
        let finished = [false, false];
        let ctx = ArbiterContext {
            pending: &pending,
            n_procs: 2,
            committing: &[],
            total_commits: 0,
            finished: &finished,
        };
        assert_eq!(rp.next_grant(&ctx), None, "must wait for proc 1");
        let pending = [
            PendingView {
                committer: Committer::Proc(0),
                arrival: 0,
            },
            PendingView {
                committer: Committer::Proc(1),
                arrival: 1,
            },
        ];
        let ctx = ArbiterContext {
            pending: &pending,
            n_procs: 2,
            committing: &[],
            total_commits: 0,
            finished: &finished,
        };
        assert_eq!(rp.next_grant(&ctx), Some(Committer::Proc(1)));
    }

    #[test]
    fn commit_mismatch_is_flagged() {
        let logs = logs_with_pi(&[Committer::Proc(1)]);
        let mut rp = Replayer::new(Mode::OrderOnly, 2, &logs);
        rp.on_commit(&CommitRecord {
            shard: None,
            committer: Committer::Proc(0),
            chunk_index: 1,
            size: 1000,
            truncation: TruncationReason::StandardSize,
            global_slot: 1,
            interrupt: None,
            io_values: Vec::new(),
            dma_data: Vec::new(),
            access_lines: Vec::new(),
            write_lines: Vec::new(),
        });
        assert!(rp.divergence.as_deref().unwrap().contains("expected"));
    }

    #[test]
    fn io_log_misses_are_divergences() {
        let logs = logs_with_pi(&[]);
        let mut rp = Replayer::new(Mode::OrderOnly, 2, &logs);
        assert_eq!(rp.io_load(0, 1, 0, 3, 77), 0);
        assert!(rp.divergence.is_some());
    }

    #[test]
    fn dma_entries_grant_immediately() {
        let logs = logs_with_pi(&[Committer::Dma]);
        let mut rp = Replayer::new(Mode::OrderOnly, 2, &logs);
        let finished = [false, false];
        let ctx = ArbiterContext {
            pending: &[],
            n_procs: 2,
            committing: &[],
            total_commits: 0,
            finished: &finished,
        };
        assert_eq!(rp.next_grant(&ctx), Some(Committer::Dma));
        assert_eq!(rp.dma_data(), vec![(1, 1)]);
    }
}
