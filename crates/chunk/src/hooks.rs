//! The one seam between the chunk engine and an execution mode.
//!
//! [`ExecutionHooks`] is the only trait the engine drives: its decision
//! methods pick grants and supply logged values, and its observation
//! methods see commits, [`SubstrateEvent`]s and the end of the run. A
//! mode driver (the `delorean` crate's recorder or replayer)
//! implements it directly; stacking observers on a driver is the
//! caller's composition, not a second trait.

use crate::CoreId;
use delorean_isa::{Addr, Word};

/// Who is committing: a processor chunk or the DMA engine (which "acts
/// like another processor" at the arbiter, Section 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Committer {
    /// A processor.
    Proc(CoreId),
    /// The DMA engine.
    Dma,
}

/// Why a committed chunk ended where it did (Table 4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncationReason {
    /// Reached the standard (or CS-log-forced) instruction count —
    /// deterministic.
    StandardSize,
    /// Truncated before an uncached access or special system
    /// instruction — deterministic (reappears in the replay).
    Uncached,
    /// The processor reached its retired-instruction budget —
    /// deterministic end of run.
    BudgetEnd,
    /// Attempted cache overflow — **non-deterministic**, logged in the
    /// CS log.
    Overflow,
    /// Repeated chunk collision shrank the chunk — **non-deterministic**,
    /// logged in the CS log.
    Collision,
}

impl TruncationReason {
    /// Whether the truncation reappears deterministically during replay
    /// (and therefore needs no CS-log entry in OrderOnly/PicoLog).
    pub fn is_deterministic(self) -> bool {
        !matches!(
            self,
            TruncationReason::Overflow | TruncationReason::Collision
        )
    }
}

/// Everything the logs need to know about one commit, delivered at the
/// arbiter's grant point (the serialization point). Squashed execution
/// attempts never reach this callback, so logging from it is inherently
/// squash-safe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitRecord {
    /// The committer the arbiter granted.
    pub committer: Committer,
    /// Per-processor logical chunk index (1-based; 0 for DMA).
    pub chunk_index: u64,
    /// Retired instructions in the chunk (0 for DMA).
    pub size: u32,
    /// Why the chunk ended.
    pub truncation: TruncationReason,
    /// Global Commit Count *after* this commit (the PicoLog "commit
    /// slot" for DMA).
    pub global_slot: u64,
    /// Interrupt delivered at this chunk's start, if any
    /// (vector, payload) — feeds the Interrupt log.
    pub interrupt: Option<(u16, Word)>,
    /// Values returned by the chunk's uncached I/O loads, in execution
    /// order — feeds the I/O log.
    pub io_values: Vec<(u16, Word)>,
    /// DMA payload for DMA commits (empty otherwise) — feeds the DMA
    /// log.
    pub dma_data: Vec<(Addr, Word)>,
    /// Cache lines the chunk accessed (read or write) — the footprint
    /// the PI-log stratifier disambiguates on (Section 4.3).
    pub access_lines: Vec<u64>,
    /// Cache lines the chunk wrote (subset of `access_lines`); a
    /// cross-processor *conflict* requires a write on one side.
    pub write_lines: Vec<u64>,
    /// The arbiter shard that granted this commit (`None` under the
    /// global arbiter and during replay, which re-serializes through
    /// the global mechanics).
    pub shard: Option<u32>,
}

/// One eligible pending commit request, as the arbiter policy sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingView {
    /// Who requests.
    pub committer: Committer,
    /// Arrival order at the arbiter (monotone sequence number).
    pub arrival: u64,
}

/// Arbiter state exposed to [`ExecutionHooks::next_grant`].
#[derive(Debug)]
pub struct ArbiterContext<'a> {
    /// Eligible pending requests (each is its core's oldest uncommitted
    /// chunk, with no same-core commit in flight), in arrival order.
    pub pending: &'a [PendingView],
    /// Number of processors.
    pub n_procs: u32,
    /// Committers currently in the committing phase.
    pub committing: &'a [Committer],
    /// Global Commit Count so far.
    pub total_commits: u64,
    /// Per-core flag: `true` once a core has retired its full budget
    /// and committed its last chunk (it will never request again, so
    /// round-robin policies must skip it).
    pub finished: &'a [bool],
}

impl ArbiterContext<'_> {
    /// Whether `c` has an eligible pending request.
    pub fn has_pending(&self, c: Committer) -> bool {
        self.pending.iter().any(|p| p.committer == c)
    }
}

/// One observable occurrence inside the chunk substrate, stamped with
/// the simulated cycle at which it happened.
///
/// The engine emits these through [`ExecutionHooks::on_event`] purely
/// as an *observation* channel: no event carries a reply, so stacking
/// any number of observers cannot perturb the execution, its logs, or
/// its determinism digest. The heavyweight per-commit payloads (footprints,
/// I/O values, DMA words) stay on [`CommitRecord`], which only the mode
/// driver sees; `SubstrateEvent` carries the summary counters a tracer
/// or metrics stage needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubstrateEvent {
    /// A processor opened a new logical chunk.
    ChunkStart {
        /// The processor.
        core: CoreId,
        /// Its 1-based logical chunk index.
        index: u64,
        /// Target size in instructions at open time.
        target: u32,
    },
    /// The arbiter granted a commit (the serialization point).
    Commit {
        /// Who committed.
        committer: Committer,
        /// Per-processor logical chunk index (0 for DMA).
        chunk_index: u64,
        /// Retired instructions in the chunk (0 for DMA).
        size: u32,
        /// Why the chunk ended where it did.
        truncation: TruncationReason,
        /// Global Commit Count after this commit.
        global_slot: u64,
        /// Whether an interrupt was delivered at the chunk's start.
        interrupt: bool,
        /// Number of uncached I/O loads the chunk performed.
        io_loads: u32,
        /// DMA payload words (0 for processor commits).
        dma_words: u32,
    },
    /// A device raised an interrupt towards a core (recording side;
    /// delivery shows up as `interrupt` on the corresponding commit).
    Interrupt {
        /// Target core.
        core: CoreId,
        /// Interrupt vector.
        vector: u16,
    },
    /// A device generated a DMA transfer request.
    Dma {
        /// Payload size in words.
        words: u32,
    },
    /// Chunks were squashed (conflict, early interrupt delivery, or an
    /// injected storm) and will re-execute.
    Squash {
        /// The core whose chunks were squashed.
        core: CoreId,
        /// How many in-flight chunks were discarded.
        chunks: u32,
        /// Executed instructions thrown away.
        insts: u64,
    },
    /// A streaming sink flushed a segment to its backing store. The
    /// engine never emits this; recording pipelines synthesize it when
    /// their sink reports a flush.
    SegmentFlush {
        /// Total segments flushed so far.
        segments: u64,
        /// Total bytes written to the backing store so far.
        bytes: u64,
        /// Commits covered by the stream so far.
        commits: u64,
    },
}

impl SubstrateEvent {
    /// The commit-summary event for `rec`, as the engine emits it at
    /// the grant point.
    pub fn commit_of(rec: &CommitRecord) -> Self {
        SubstrateEvent::Commit {
            committer: rec.committer,
            chunk_index: rec.chunk_index,
            size: rec.size,
            truncation: rec.truncation,
            global_slot: rec.global_slot,
            interrupt: rec.interrupt.is_some(),
            io_loads: rec.io_values.len() as u32,
            dma_words: rec.dma_data.len() as u32,
        }
    }
}

/// Decision points a DeLorean execution mode plugs into the engine.
///
/// All methods have recording-side defaults (arrival-order commits,
/// device values passed through, no forced chunk sizes), so a plain
/// BulkSC machine is `ExecutionHooks` with nothing overridden — see
/// [`BulkScHooks`].
///
/// The replay-input methods (`forced_chunk_size`, `io_load`,
/// `pending_interrupt`, `dma_data`) return log values; every replayer,
/// the timing engine and the software inspector alike, consumes them in
/// recorded commit-slot order. The observation methods (`on_commit`,
/// `on_event`, `on_run_end`) return nothing the engine reads.
pub trait ExecutionHooks {
    /// Picks the next pending request to grant, or `None` to wait.
    ///
    /// The returned committer must currently be pending in `ctx`,
    /// except `Committer::Dma` during replay, which the engine
    /// synthesizes from the DMA log via [`ExecutionHooks::dma_data`].
    fn next_grant(&mut self, ctx: &ArbiterContext<'_>) -> Option<Committer> {
        crate::policy::arrival(ctx)
    }

    /// Observes a commit at the grant (serialization) point.
    fn on_commit(&mut self, rec: &CommitRecord) {
        let _ = rec;
    }

    /// Replay: the forced size of `core`'s logical chunk `index`
    /// (1-based), from the CS log. Recording returns `None`.
    fn forced_chunk_size(&mut self, core: CoreId, index: u64) -> Option<u32> {
        let _ = (core, index);
        None
    }

    /// Supplies the value of the `seq`-th I/O load of `core`'s logical
    /// chunk `index`. Recording passes `device_value` through (it is
    /// logged at commit via [`CommitRecord::io_values`]); replay
    /// returns the logged value. Keying by `(core, index, seq)` makes
    /// the value stable across squash re-executions.
    fn io_load(
        &mut self,
        core: CoreId,
        index: u64,
        seq: u32,
        port: u16,
        device_value: Word,
    ) -> Word {
        let _ = (core, index, seq, port);
        device_value
    }

    /// Replay: the interrupt to deliver at the start of `core`'s
    /// logical chunk `index`, if the Interrupt log has one there.
    fn pending_interrupt(&mut self, core: CoreId, index: u64) -> Option<(u16, Word)> {
        let _ = (core, index);
        None
    }

    /// Replay: the payload of the next DMA commit (engine calls this
    /// when [`ExecutionHooks::next_grant`] returns `Committer::Dma`
    /// with no device-generated request pending).
    fn dma_data(&mut self) -> Vec<(Addr, Word)> {
        Vec::new()
    }

    /// Called once after the run drains, with the final statistics.
    /// Streaming recorders use this to flush and finalize their log
    /// sinks at the engine's completion point.
    fn on_run_end(&mut self, stats: &crate::stats::RunStats) {
        let _ = stats;
    }

    /// Observes a [`SubstrateEvent`] at simulated cycle `time`.
    /// Observation-only: the engine ignores everything about the call,
    /// so overriding it can never perturb execution.
    fn on_event(&mut self, time: u64, ev: &SubstrateEvent) {
        let _ = (time, ev);
    }
}

/// A plain BulkSC machine: chunked execution with arrival-order
/// commits and no logging. Used for the paper's `BulkSC` bar in
/// Figure 10.
#[derive(Debug, Clone, Copy, Default)]
pub struct BulkScHooks;

impl ExecutionHooks for BulkScHooks {}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn determinism_classification_matches_table4() {
        assert!(TruncationReason::StandardSize.is_deterministic());
        assert!(TruncationReason::Uncached.is_deterministic());
        assert!(TruncationReason::BudgetEnd.is_deterministic());
        assert!(!TruncationReason::Overflow.is_deterministic());
        assert!(!TruncationReason::Collision.is_deterministic());
    }

    #[test]
    fn context_pending_lookup() {
        let pending = [PendingView {
            committer: Committer::Proc(1),
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
        assert!(ctx.has_pending(Committer::Proc(1)));
        assert!(!ctx.has_pending(Committer::Proc(0)));
        assert!(!ctx.has_pending(Committer::Dma));
    }

    #[test]
    fn default_hooks_pass_io_through() {
        let mut h = BulkScHooks;
        assert_eq!(h.io_load(0, 1, 0, 3, 77), 77);
        assert_eq!(h.forced_chunk_size(0, 1), None);
        assert_eq!(h.pending_interrupt(0, 1), None);
        assert!(h.dma_data().is_empty());
    }

    fn commit_record() -> CommitRecord {
        CommitRecord {
            committer: Committer::Proc(1),
            chunk_index: 3,
            size: 120,
            truncation: TruncationReason::Overflow,
            global_slot: 9,
            interrupt: Some((2, 5)),
            io_values: vec![(1, 7), (1, 8)],
            dma_data: Vec::new(),
            access_lines: vec![4, 5],
            write_lines: vec![5],
            shard: None,
        }
    }

    #[test]
    fn commit_event_summarizes_the_record() {
        let rec = commit_record();
        match SubstrateEvent::commit_of(&rec) {
            SubstrateEvent::Commit {
                committer,
                chunk_index,
                size,
                truncation,
                global_slot,
                interrupt,
                io_loads,
                dma_words,
            } => {
                assert_eq!(committer, Committer::Proc(1));
                assert_eq!(chunk_index, 3);
                assert_eq!(size, 120);
                assert_eq!(truncation, TruncationReason::Overflow);
                assert_eq!(global_slot, 9);
                assert!(interrupt);
                assert_eq!(io_loads, 2);
                assert_eq!(dma_words, 0);
            }
            other => panic!("expected a commit event, got {other:?}"),
        }
    }
}
