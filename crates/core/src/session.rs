//! The composable record/replay pipeline.
//!
//! A [`Session`] is the single run loop every [`Machine`] entry point
//! drives: it wires a mode driver (a recording [`StreamRecorder`] or a
//! log-following replayer) into the chunk engine and fans the engine's
//! typed [`SubstrateEvent`] stream out to a stack of passive
//! [`HookStage`]s — tracers, metrics collectors, test probes. Stages are
//! observation-only by construction, so stacking any number of them
//! leaves the execution, its logs, and its determinism digest
//! bit-identical (see `tests/session_pipeline.rs`).
//!
//! ```
//! use delorean::{Machine, Mode, HookStage, SubstrateEvent};
//! use delorean_isa::workload;
//!
//! #[derive(Default)]
//! struct CommitCounter(u64);
//! impl HookStage for CommitCounter {
//!     fn on_event(&mut self, _t: u64, ev: &SubstrateEvent) {
//!         if matches!(ev, SubstrateEvent::Commit { .. }) {
//!             self.0 += 1;
//!         }
//!     }
//! }
//!
//! let m = Machine::builder().mode(Mode::OrderOnly).procs(2).budget(4_000).build();
//! let mut counter = CommitCounter::default();
//! let recording = m
//!     .session()
//!     .with_stage(&mut counter)
//!     .record(workload::by_name("fft").unwrap(), 7);
//! assert_eq!(counter.0, recording.stats.total_commits);
//! ```

use crate::checkpoint::{IntervalCheckpoint, ReplayCursor};
use crate::error::ReplayError;
use crate::inspect::ReplayInspector;
use crate::machine::{Machine, Recording, ReplayReport};
use crate::replayer::Replayer;
use crate::stream::{LogSink, LogSource, MemorySink, StreamMeta, StreamRecorder, StreamTrailer};
use delorean_chunk::{
    run, run_from, ArbiterContext, CommitRecord, Committer, CoreId, EngineConfig, EngineError,
    ExecutionHooks, RunStats, StartState, StateDigest, SubstrateEvent,
};
use delorean_isa::layout::AddressMap;
use delorean_isa::workload::WorkloadSpec;
use delorean_isa::{Addr, Word};
use delorean_mem::Memory;
use delorean_sim::RunSpec;
use std::io::{Read, Seek};
use std::sync::Arc;

/// A passive pipeline stage stacked on a [`Session`].
///
/// Stages observe the run — they cannot steer it: the engine ignores
/// everything about an observation callback, and no stage method
/// returns a value the pipeline consumes. `on_begin` fires before the
/// engine starts (with the stream metadata the recording or replay is
/// keyed by), `on_event` for every [`SubstrateEvent`], and `on_end`
/// once with the final statistics.
pub trait HookStage {
    /// The run is about to start.
    fn on_begin(&mut self, meta: &StreamMeta) {
        let _ = meta;
    }

    /// A substrate event at simulated cycle `time`.
    fn on_event(&mut self, time: u64, ev: &SubstrateEvent) {
        let _ = (time, ev);
    }

    /// The run drained; `stats` are final.
    fn on_end(&mut self, stats: &RunStats) {
        let _ = stats;
    }
}

/// A [`HookStage`] that does nothing — the disabled-tracing fast path,
/// and the proptest probe for pipeline neutrality.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopStage;

impl HookStage for NoopStage {}

/// The one pipeline the engine drives, recording or replaying: a mode
/// driver (a [`StreamRecorder`] or a [`Replayer`]) plus the stage
/// stack. Decisions go to the driver alone; observations go to the
/// driver first, then to each stage in stack order. After each commit
/// a pipeline with stages reads the driver's sink counters through
/// `flushes` and publishes a new flush as a `SegmentFlush` event;
/// replay drivers write no log and report none. Reading the counters
/// makes a [`FileSink`](crate::FileSink) write out the segments it is
/// still compressing, so a pipeline without stages never reads them
/// and leaves the sink's compression running beside the engine.
struct Pipeline<'p, 's, D> {
    driver: D,
    flushes: fn(&mut D) -> (u64, u64),
    stages: &'p mut [&'s mut dyn HookStage],
    segments_seen: u64,
    commits_seen: u64,
}

impl<D: ExecutionHooks> ExecutionHooks for Pipeline<'_, '_, D> {
    fn next_grant(&mut self, ctx: &ArbiterContext<'_>) -> Option<Committer> {
        self.driver.next_grant(ctx)
    }

    fn on_commit(&mut self, rec: &CommitRecord) {
        self.driver.on_commit(rec);
    }

    fn forced_chunk_size(&mut self, core: CoreId, index: u64) -> Option<u32> {
        self.driver.forced_chunk_size(core, index)
    }

    fn io_load(
        &mut self,
        core: CoreId,
        index: u64,
        seq: u32,
        port: u16,
        device_value: Word,
    ) -> Word {
        self.driver.io_load(core, index, seq, port, device_value)
    }

    fn pending_interrupt(&mut self, core: CoreId, index: u64) -> Option<(u16, Word)> {
        self.driver.pending_interrupt(core, index)
    }

    fn dma_data(&mut self) -> Vec<(Addr, Word)> {
        self.driver.dma_data()
    }

    fn on_run_end(&mut self, stats: &RunStats) {
        self.driver.on_run_end(stats);
        for stage in self.stages.iter_mut() {
            stage.on_end(stats);
        }
    }

    fn on_event(&mut self, time: u64, ev: &SubstrateEvent) {
        self.driver.on_event(time, ev);
        for stage in self.stages.iter_mut() {
            stage.on_event(time, ev);
        }
        // A recording sink flushes inside `on_commit`; the engine's
        // commit event arrives right after, so polling here publishes
        // the flush at the cycle it happened.
        if matches!(ev, SubstrateEvent::Commit { .. }) {
            self.commits_seen += 1;
            if self.stages.is_empty() {
                return;
            }
            let (segments, bytes) = (self.flushes)(&mut self.driver);
            if segments > self.segments_seen {
                self.segments_seen = segments;
                let flush = SubstrateEvent::SegmentFlush {
                    segments,
                    bytes,
                    commits: self.commits_seen,
                };
                for stage in self.stages.iter_mut() {
                    stage.on_event(time, &flush);
                }
            }
        }
    }
}

/// One configured record-or-replay run: the single internal pipeline
/// behind every `Machine` record/replay entry point.
///
/// Build one with [`Machine::session`], stack [`HookStage`]s with
/// [`with_stage`](Session::with_stage), then consume it with one of the
/// run methods. The `Machine` methods (`record_to`, `replay_from`, …)
/// are thin wrappers over a stage-less `Session`.
pub struct Session<'m, 's> {
    machine: &'m Machine,
    stages: Vec<&'s mut dyn HookStage>,
}

impl std::fmt::Debug for Session<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("machine", self.machine)
            .field("stages", &self.stages.len())
            .finish()
    }
}

impl<'m, 's> Session<'m, 's> {
    pub(crate) fn new(machine: &'m Machine) -> Self {
        Session {
            machine,
            stages: Vec::new(),
        }
    }

    /// Stacks `stage` on the pipeline. Stages observe events in the
    /// order they were added.
    #[must_use]
    pub fn with_stage(mut self, stage: &'s mut dyn HookStage) -> Self {
        self.stages.push(stage);
        self
    }

    /// Records one execution of `workload` seeded by `app_seed` into an
    /// in-memory [`Recording`].
    // Infallible: `record_to` always drives the sink through begin,
    // events and trailer, after which `into_recording` is `Some`.
    #[allow(clippy::expect_used)]
    pub fn record(self, workload: &WorkloadSpec, app_seed: u64) -> Recording {
        let mut sink = MemorySink::new();
        self.record_to(workload, app_seed, &mut sink);
        sink.into_recording()
            .expect("an in-memory recording always completes")
    }

    /// Records one execution of `workload`, streaming every commit into
    /// `sink` as it is granted and fanning substrate events out to the
    /// stacked stages.
    // Infallible: a recording grants whatever is pending and starts
    // from the machine's own initial state, so the engine cannot fail.
    #[allow(clippy::expect_used)]
    pub fn record_to<S: LogSink>(
        self,
        workload: &WorkloadSpec,
        app_seed: u64,
        sink: &mut S,
    ) -> RunStats {
        let budget = self.machine.budget();
        self.run_recording(workload, app_seed, budget, None, sink)
            .expect("a recording from the initial state cannot fail")
    }

    /// Records a new interval starting from a mid-execution checkpoint,
    /// streaming into `sink` — see
    /// [`Machine::record_interval_to`] for the contract.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError::MachineMismatch`] when the checkpoint's
    /// processor count differs from this machine's, and
    /// [`ReplayError::Source`] when its state does not fit the machine.
    ///
    /// # Panics
    ///
    /// Panics if `extra_budget` is zero.
    pub fn record_interval_to<S: LogSink>(
        self,
        ck: &IntervalCheckpoint,
        extra_budget: u64,
        sink: &mut S,
    ) -> Result<RunStats, ReplayError> {
        assert!(extra_budget > 0, "extra budget must be positive");
        if ck.n_procs != self.machine.procs() {
            return Err(ReplayError::MachineMismatch {
                recorded: ck.n_procs,
                replaying: self.machine.procs(),
            });
        }
        let budget = ck.max_retired() + extra_budget;
        let interval = Some(ck.state.clone());
        self.run_recording(&ck.workload, ck.app_seed, budget, interval, sink)
            .map_err(|e| ReplayError::Source {
                detail: e.to_string(),
            })
    }

    /// The one recording run loop: announce the stream to the sink,
    /// drive the recorder through the pipeline, and let the engine's
    /// `on_run_end` deliver the trailer.
    fn run_recording<S: LogSink>(
        self,
        workload: &WorkloadSpec,
        app_seed: u64,
        budget: u64,
        interval: Option<StartState>,
        sink: &mut S,
    ) -> Result<RunStats, EngineError> {
        let m = self.machine;
        let cfg = m.recording_config(workload);
        let meta = StreamMeta {
            mode: m.mode(),
            n_procs: m.procs(),
            chunk_size: m.chunk_size(),
            budget,
            workload: *workload,
            app_seed,
            devices: cfg.devices,
            initial_mem_hash: Memory::new(AddressMap::new(m.procs()).total_words()).content_hash(),
            interval,
            arbiter: m.arbiter(),
        };
        // The machine builder validated procs, and the budget is either
        // the builder's or an interval's positive extension of it.
        #[allow(clippy::expect_used)]
        let spec = RunSpec::new(*workload, m.procs(), app_seed, budget)
            .expect("machine builder validated the shape");
        sink.begin(&meta);
        let recorder = StreamRecorder::new(meta.mode, meta.n_procs, sink);
        let (_, outcome) = self.drive(meta, &cfg, &spec, recorder, StreamRecorder::flush_stats);
        outcome
    }

    /// Replays from a log source with an explicit replay-side timing
    /// seed — see [`Machine::replay_from_with_seed`] for the contract.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError`] when the machine shape or mode does not
    /// match, or the stream turns out to be corrupt or truncated
    /// mid-replay.
    pub fn replay_from<S: LogSource>(
        self,
        source: S,
        timing_seed: u64,
    ) -> Result<ReplayReport, ReplayError> {
        let meta = checked_meta(self.machine, &source)?;
        let replayer = Replayer::from_source(source);
        let (mut source, stats, divergence) = self.run_replay(meta, timing_seed, replayer)?;
        if let Some(e) = source.error() {
            return Err(ReplayError::Source {
                detail: e.to_string(),
            });
        }
        let trailer: StreamTrailer = source
            .finish()
            .map_err(|detail| ReplayError::Source { detail })?;
        Ok(verified_report(&trailer.stats.digest, stats, divergence))
    }

    /// Replays a window of a recording through a seekable
    /// [`ReplayCursor`] — see [`Machine::replay_window`] for the
    /// contract. Run-to-end windows replay on the engine; bounded
    /// windows (`to = Some(_)`) replay on the software inspector, which
    /// can stop at an exact commit.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError`] when the window bounds are outside the
    /// recording, the machine shape or mode does not match, or the
    /// stream fails mid-window — byte-identical to a full replay
    /// truncated to the same window.
    pub fn replay_window<R: Read + Seek>(
        mut self,
        cursor: &mut ReplayCursor<R>,
        from: u64,
        to: Option<u64>,
    ) -> Result<ReplayReport, ReplayError> {
        if let Some(t) = to.filter(|&t| t < from) {
            return Err(ReplayError::Diverged {
                detail: format!("window end {t} precedes window start {from}"),
            });
        }
        let start = cursor.seek(from)?;
        cursor
            .source
            .seek_to(start)
            .map_err(|e| ReplayError::Source {
                detail: e.to_string(),
            })?;
        let Some(t) = to else {
            let seed = self.machine.replay_seed();
            return self.replay_from(&mut cursor.source, seed);
        };
        check_shape(self.machine, cursor.source.meta())?;
        for stage in &mut self.stages {
            stage.on_begin(cursor.source.meta());
        }
        let programs = Arc::clone(&cursor.programs);
        let mut ins = ReplayInspector::with_programs(&mut cursor.source, programs)?;
        while let Some(ev) = ins.step_to(from, t)? {
            let sub = ev.to_substrate();
            for stage in &mut self.stages {
                stage.on_event(ev.gcc, &sub);
            }
        }
        let divergence = cursor
            .index
            .entries
            .iter()
            .find(|e| e.gcc == t && e.state != ins.capture())
            .map(|_| format!("state at commit {t} differs from the checkpoint index"));
        let stats = RunStats {
            total_commits: ins.gcc(),
            digest: ins.digest(),
            ..RunStats::default()
        };
        for stage in &mut self.stages {
            stage.on_end(&stats);
        }
        Ok(ReplayReport {
            deterministic: divergence.is_none(),
            divergence,
            stats,
        })
    }

    /// Replays `recording` driven by a *stratified* PI log — see
    /// [`Machine::replay_stratified`] for the contract.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError`] when the machine shape or mode does not
    /// match, and [`ReplayError::Unstratifiable`] when the mode has no
    /// PI log or `max_per_stratum` is zero.
    pub fn replay_stratified(
        self,
        recording: &Recording,
        max_per_stratum: u32,
        timing_seed: u64,
    ) -> Result<ReplayReport, ReplayError> {
        let source = recording.source();
        let meta = checked_meta(self.machine, &source)?;
        let strata = recording.stratified_pi(max_per_stratum)?;
        let replayer = Replayer::from_source(source).stratified(&strata);
        let (_, stats, divergence) = self.run_replay(meta, timing_seed, replayer)?;
        Ok(verified_report(&recording.stats.digest, stats, divergence))
    }

    /// The one replay run loop: drive `replayer` through the pipeline
    /// on the machine `meta` describes, with replay-side timing seed
    /// `timing_seed`, and hand back its source, the run's statistics
    /// and any divergence it latched. A run the engine cannot finish
    /// fails as [`ReplayError::Source`], naming the source's own error
    /// first, else the latched divergence, else the engine's.
    fn run_replay<S: LogSource>(
        self,
        meta: StreamMeta,
        timing_seed: u64,
        replayer: Replayer<S>,
    ) -> Result<(S, RunStats, Option<String>), ReplayError> {
        let m = self.machine;
        let cfg = m.replay_config_for(&meta.workload, meta.chunk_size, meta.devices, timing_seed);
        // The stream decoder bounds n_procs and budget before `meta`
        // exists, and this machine's shape was checked against it.
        #[allow(clippy::expect_used)]
        let spec = RunSpec::new(meta.workload, m.procs(), meta.app_seed, meta.budget)
            .expect("stream decoder validated the shape");
        let (replayer, outcome) = self.drive(meta, &cfg, &spec, replayer, |_| (0, 0));
        let (source, divergence) = replayer.into_parts();
        match outcome {
            Ok(stats) => Ok((source, stats, divergence)),
            Err(e) => Err(ReplayError::Source {
                detail: source
                    .error()
                    .map(str::to_string)
                    .or(divergence)
                    .unwrap_or_else(|| e.to_string()),
            }),
        }
    }

    /// Announces `meta` to the stages, then runs the engine through a
    /// [`Pipeline`] over `driver`, from `meta.interval` (moved into the
    /// engine) when the stream starts mid-execution. Returns the driver
    /// with the engine's outcome.
    fn drive<D: ExecutionHooks>(
        mut self,
        meta: StreamMeta,
        cfg: &EngineConfig,
        spec: &RunSpec,
        driver: D,
        flushes: fn(&mut D) -> (u64, u64),
    ) -> (D, Result<RunStats, EngineError>) {
        for stage in &mut self.stages {
            stage.on_begin(&meta);
        }
        let mut pipeline = Pipeline {
            driver,
            flushes,
            stages: &mut self.stages,
            segments_seen: 0,
            commits_seen: 0,
        };
        let outcome = match meta.interval {
            Some(start) => run_from(spec, cfg, &mut pipeline, start),
            None => run(spec, cfg, &mut pipeline),
        };
        (pipeline.driver, outcome)
    }
}

/// The source's recording metadata, checked against the shape and mode
/// of the machine about to replay it.
pub(crate) fn checked_meta<S: LogSource>(
    m: &Machine,
    source: &S,
) -> Result<StreamMeta, ReplayError> {
    check_shape(m, source.meta())?;
    Ok(source.meta().clone())
}

/// Checks that `meta`'s stream was recorded on a machine of `m`'s
/// shape and mode.
pub(crate) fn check_shape(m: &Machine, meta: &StreamMeta) -> Result<(), ReplayError> {
    if meta.n_procs != m.procs() {
        return Err(ReplayError::MachineMismatch {
            recorded: meta.n_procs,
            replaying: m.procs(),
        });
    }
    if meta.mode != m.mode() {
        return Err(ReplayError::ModeMismatch {
            recorded: meta.mode,
            replaying: m.mode(),
        });
    }
    Ok(())
}

/// The one digest-verification body every replay path funnels through:
/// a replay is deterministic iff the driver latched no divergence *and*
/// the final state digest matches the recording's. Both the streamed
/// path (trailer digest) and the in-memory/stratified path (recording
/// digest) build their [`ReplayReport`] here, so the two can never
/// drift apart again.
pub(crate) fn verified_report(
    reference: &StateDigest,
    stats: RunStats,
    divergence: Option<String>,
) -> ReplayReport {
    let mut divergence = divergence;
    if divergence.is_none() && stats.digest != *reference {
        divergence = Some(first_digest_mismatch(reference, &stats.digest));
    }
    ReplayReport {
        deterministic: divergence.is_none(),
        divergence,
        stats,
    }
}

/// Names the first differing digest component, for divergence reports.
pub(crate) fn first_digest_mismatch(rec: &StateDigest, rep: &StateDigest) -> String {
    if rec.mem_hash != rep.mem_hash {
        return "final memory contents differ".to_string();
    }
    if rec.retired != rep.retired {
        return format!(
            "retired counts differ: {:?} vs {:?}",
            rec.retired, rep.retired
        );
    }
    if rec.committed_chunks != rep.committed_chunks {
        return format!(
            "chunk counts differ: {:?} vs {:?}",
            rec.committed_chunks, rep.committed_chunks
        );
    }
    for (i, (a, b)) in rec.stream_hashes.iter().zip(&rep.stream_hashes).enumerate() {
        if a != b {
            return format!("instruction stream of processor {i} differs");
        }
    }
    "digests differ".to_string()
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::mode::Mode;
    use delorean_isa::workload;

    #[derive(Default)]
    struct EventTally {
        begins: u32,
        ends: u32,
        commits: u64,
        chunk_starts: u64,
        flushes: u64,
    }

    impl HookStage for EventTally {
        fn on_begin(&mut self, _meta: &StreamMeta) {
            self.begins += 1;
        }
        fn on_event(&mut self, _time: u64, ev: &SubstrateEvent) {
            match ev {
                SubstrateEvent::Commit { .. } => self.commits += 1,
                SubstrateEvent::ChunkStart { .. } => self.chunk_starts += 1,
                SubstrateEvent::SegmentFlush { .. } => self.flushes += 1,
                _ => {}
            }
        }
        fn on_end(&mut self, _stats: &RunStats) {
            self.ends += 1;
        }
    }

    fn machine(mode: Mode) -> Machine {
        let mut b = Machine::builder();
        b.mode(mode).procs(2).budget(4_000);
        b.build()
    }

    #[test]
    fn record_stage_sees_every_commit_and_lifecycle_call() {
        let m = machine(Mode::OrderOnly);
        let w = workload::by_name("fft").unwrap();
        let mut tally = EventTally::default();
        let recording = m.session().with_stage(&mut tally).record(w, 7);
        assert_eq!(tally.begins, 1);
        assert_eq!(tally.ends, 1);
        assert_eq!(tally.commits, recording.stats.total_commits);
        assert!(tally.chunk_starts > 0, "chunk starts must be observed");
    }

    #[test]
    fn file_sink_sessions_emit_segment_flushes() {
        let m = machine(Mode::OrderOnly);
        let w = workload::by_name("fft").unwrap();
        let mut tally = EventTally::default();
        let mut sink = crate::stream::FileSink::with_flush_every(Vec::new(), 2);
        m.session()
            .with_stage(&mut tally)
            .record_to(w, 7, &mut sink);
        assert!(
            tally.flushes > 0,
            "a FileSink session must surface segment flushes"
        );
    }

    /// The `SegmentFlush` events a stage sees describe the log as
    /// written at that commit: the `k`-th flush is segment `k`, it
    /// arrives with the commit that filled it, and its byte count is
    /// where that segment ends in the finished `.dlrn`. A sink that
    /// reported segments still being compressed, or only those it
    /// happened to have written, would break one of the three.
    #[test]
    fn observed_segment_flushes_match_the_written_log() {
        #[derive(Default)]
        struct Flushes(Vec<(u64, u64, u64)>);
        impl HookStage for Flushes {
            fn on_event(&mut self, _time: u64, ev: &SubstrateEvent) {
                if let SubstrateEvent::SegmentFlush {
                    segments,
                    bytes,
                    commits,
                } = *ev
                {
                    self.0.push((segments, bytes, commits));
                }
            }
        }
        const EVERY: u64 = 3;
        let mut b = Machine::builder();
        b.mode(Mode::OrderOnly).procs(4).budget(20_000);
        let m = b.build();
        let w = workload::by_name("fft").unwrap();
        let mut flushes = Flushes::default();
        let mut sink = crate::stream::FileSink::with_flush_every(Vec::new(), EVERY as usize);
        let stats = m
            .session()
            .with_stage(&mut flushes)
            .record_to(w, 7, &mut sink);
        let bytes = sink.into_inner().unwrap();
        let layout = crate::recover::layout(&bytes).unwrap();
        // Every full segment is observed; the partial last one is
        // flushed by the trailer, after the last commit event.
        assert_eq!(flushes.0.len() as u64, stats.total_commits / EVERY);
        for (k, &(segments, written, commits)) in flushes.0.iter().enumerate() {
            assert_eq!(segments, k as u64 + 1);
            assert_eq!(commits, segments * EVERY);
            assert_eq!(written, layout.segments[k].end as u64, "segment {k}");
        }
    }

    #[test]
    fn replay_stages_observe_the_replayed_commits() {
        let m = machine(Mode::OrderOnly);
        let w = workload::by_name("fft").unwrap();
        let recording = m.record(w, 7);
        let mut tally = EventTally::default();
        let report = m
            .session()
            .with_stage(&mut tally)
            .replay_from(recording.source(), 99)
            .unwrap();
        assert!(report.deterministic);
        assert_eq!(tally.begins, 1);
        assert_eq!(tally.ends, 1);
        assert_eq!(tally.commits, report.stats.total_commits);
    }

    #[test]
    fn verified_report_flags_digest_drift() {
        let m = machine(Mode::OrderOnly);
        let w = workload::by_name("fft").unwrap();
        let recording = m.record(w, 7);
        let mut tampered = recording.stats.digest.clone();
        tampered.mem_hash ^= 1;
        let report = verified_report(&tampered, recording.stats.clone(), None);
        assert!(!report.deterministic);
        assert_eq!(
            report.divergence.as_deref(),
            Some("final memory contents differ")
        );
    }
}
