//! A software replayer and inspection harness over recordings.
//!
//! The paper motivates deterministic replay as a *debugging* substrate:
//! re-create the captured interleaving and illuminate what brought the
//! execution to a buggy state. This module provides exactly that
//! workflow in software: [`ReplayInspector`] interprets a recorded log
//! stream directly — executing chunks serially, one commit at a time,
//! in the recorded commit order — with:
//!
//! * **stepping**: one [`CommitEvent`] per chunk/DMA commit, carrying
//!   the committer, chunk index and size;
//! * **watchpoints**: get notified whenever a committed chunk writes a
//!   watched address, with old and new values — "which chunk clobbered
//!   this word?";
//! * **state inspection**: read any memory word between commits.
//!
//! The inspector is generic over its [`LogSource`]: it can walk an
//! in-memory [`Recording`] or decode a `.dlrn` stream incrementally
//! through a [`FileSource`](crate::FileSource), never holding the whole
//! log.
//!
//! Because the inspector shares *no code* with the event-driven timing
//! engine (`delorean-chunk`), running both against the same recording
//! and comparing digests is an independent cross-validation of the
//! replay semantics; [`ReplayInspector::run_to_end`] performs the
//! comparison automatically.
//!
//! # Examples
//!
//! ```
//! use delorean::{inspect::ReplayInspector, Machine, Mode};
//! use delorean_isa::workload;
//!
//! let machine = Machine::builder().mode(Mode::OrderOnly).procs(2).budget(4_000).build();
//! let recording = machine.record(workload::by_name("lu").unwrap(), 3);
//! let mut inspector = ReplayInspector::new(&recording).unwrap();
//! let report = inspector.run_to_end().unwrap();
//! assert!(report.matches_recording);
//! ```

use crate::chunkrun::run_chunk;
use crate::error::ReplayError;
use crate::machine::Recording;
use crate::mode::Mode;
use crate::recover::RecoveringSource;
use crate::stream::{LogSource, StreamMeta};
use delorean_chunk::{Committer, EngineError, StartState, SubstrateEvent, TruncationReason};
use delorean_isa::layout::AddressMap;
use delorean_isa::{Addr, DataMemory, IoBus, Program, Vm, Word};
use delorean_mem::Memory;
use std::collections::HashSet;
use std::sync::Arc;

/// A write to a watched address, observed at commit granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchHit {
    /// The watched address.
    pub addr: Addr,
    /// Value before the chunk.
    pub old: Word,
    /// Value after the chunk.
    pub new: Word,
}

/// One replayed commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitEvent {
    /// Global commit count after this commit (1-based).
    pub gcc: u64,
    /// Who committed.
    pub committer: Committer,
    /// Per-processor logical chunk index (0 for DMA).
    pub chunk_index: u64,
    /// Instructions in the chunk (0 for DMA).
    pub size: u32,
    /// Why the chunk ended where it did, as the software replay
    /// re-derives it. The wire does not preserve the recording-side
    /// reason: CS-forced sizes (the logged non-deterministic
    /// truncations) all decode as [`TruncationReason::Overflow`].
    pub truncation: TruncationReason,
    /// Whether an interrupt was delivered at this chunk's start.
    pub interrupt: bool,
    /// Uncached I/O loads the chunk performed.
    pub io_loads: u32,
    /// DMA payload words (0 for processor commits).
    pub dma_words: u32,
    /// Writes to watched addresses whose value changed.
    pub watch_hits: Vec<WatchHit>,
    /// Cache lines the chunk read, sorted (only populated when
    /// [`ReplayInspector::collect_footprints`] is enabled; empty for
    /// DMA commits).
    pub read_lines: Vec<u64>,
    /// Cache lines the chunk (or DMA transfer) wrote, sorted (only
    /// populated when footprint collection is enabled).
    pub write_lines: Vec<u64>,
}

impl CommitEvent {
    /// This commit as the substrate's typed commit event — the same
    /// schema the `Session` pipeline emits, so inspection output and
    /// session traces serialize through one code path.
    pub fn to_substrate(&self) -> SubstrateEvent {
        SubstrateEvent::Commit {
            committer: self.committer,
            chunk_index: self.chunk_index,
            size: self.size,
            truncation: self.truncation,
            global_slot: self.gcc,
            interrupt: self.interrupt,
            io_loads: self.io_loads,
            dma_words: self.dma_words,
        }
    }
}

/// Why inspection failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InspectError {
    /// Human-readable description.
    pub detail: String,
    /// Global commit index (1-based) of the commit being replayed when
    /// the failure was detected, when known. Streaming decode failures
    /// additionally carry their own segment/byte position inside
    /// `detail`.
    pub commit: Option<u64>,
}

impl InspectError {
    fn at(commit: u64, detail: String) -> Self {
        Self {
            detail,
            commit: Some(commit),
        }
    }
}

impl core::fmt::Display for InspectError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.commit {
            Some(c) => write!(f, "inspection failed at commit {c}: {}", self.detail),
            None => write!(f, "inspection failed: {}", self.detail),
        }
    }
}

impl std::error::Error for InspectError {}

impl From<InspectError> for ReplayError {
    fn from(e: InspectError) -> Self {
        ReplayError::Diverged {
            detail: e.to_string(),
        }
    }
}

/// `start`, when it fits an `n_procs` machine: the check the engine
/// makes before a replay, made before the state is copied.
pub(crate) fn fitting(start: &StartState, n_procs: u32) -> Result<&StartState, InspectError> {
    if start.fits(n_procs) {
        Ok(start)
    } else {
        Err(InspectError {
            detail: EngineError::StartShape { n_procs }.to_string(),
            commit: None,
        })
    }
}

/// Result of replaying a recording to completion in software.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InspectReport {
    /// Commits replayed (processors + DMA).
    pub commits: u64,
    /// Whether the software replay's final state matches the
    /// recording's digest (memory hash, per-processor stream hashes,
    /// retired counts, chunk counts).
    pub matches_recording: bool,
    /// First mismatch description, when not matching.
    pub mismatch: Option<String>,
}

fn sorted(set: HashSet<u64>) -> Vec<u64> {
    let mut v: Vec<u64> = set.into_iter().collect();
    v.sort_unstable();
    v
}

/// Memory wrapper that tracks watched addresses (and, optionally, the
/// chunk's read/write line footprint) during one chunk.
struct WatchMem<'a> {
    mem: &'a mut Memory,
    watches: &'a HashSet<Addr>,
    hits: Vec<(Addr, Word)>, // (addr, old) for first write in this chunk
    footprints: Option<&'a mut (HashSet<u64>, HashSet<u64>)>, // (read, write) lines
}

impl DataMemory for WatchMem<'_> {
    fn load(&mut self, addr: Addr) -> Word {
        if let Some(fp) = self.footprints.as_deref_mut() {
            fp.0.insert(delorean_mem::line_of(addr));
        }
        self.mem.load(addr)
    }
    fn store(&mut self, addr: Addr, value: Word) {
        if self.watches.contains(&addr) && !self.hits.iter().any(|&(a, _)| a == addr) {
            self.hits.push((addr, self.mem.peek(addr)));
        }
        if let Some(fp) = self.footprints.as_deref_mut() {
            fp.1.insert(delorean_mem::line_of(addr));
        }
        self.mem.store(addr, value);
    }
}

/// I/O bus that feeds logged values back.
struct LogIo<'a, S: LogSource> {
    source: &'a mut S,
    core: u32,
    chunk_index: u64,
    seq: u32,
    missing: bool,
}

impl<S: LogSource> IoBus for LogIo<'_, S> {
    fn io_load(&mut self, _port: u16) -> Word {
        let v = self.source.io_value(self.core, self.chunk_index, self.seq);
        self.seq += 1;
        match v {
            Some(v) => v,
            None => {
                self.missing = true;
                0
            }
        }
    }
    fn io_store(&mut self, _port: u16, _value: Word) {}
}

/// The programs of the stream's workload, one per processor.
pub(crate) fn programs(meta: &StreamMeta) -> Arc<[Program]> {
    let map = AddressMap::new(meta.n_procs);
    meta.workload
        .programs(meta.n_procs, &map, meta.app_seed)
        .into()
}

/// The architectural state an inspector starts from, built from a
/// borrowed start state (or the program entry points when there is
/// none) with one copy of its memory image.
struct Restored {
    memory: Memory,
    vms: Vec<Vm>,
    chunks_done: Vec<u64>,
}

impl Restored {
    fn new(meta: &StreamMeta, start: Option<&StartState>, programs: &[Program]) -> Self {
        let map = AddressMap::new(meta.n_procs);
        let mut vms: Vec<Vm> = (0..meta.n_procs)
            .map(|t| {
                let mut vm = Vm::new(t, &map);
                vm.set_pc(programs[t as usize].entry());
                vm
            })
            .collect();
        match start {
            Some(start) => {
                for (vm, st) in vms.iter_mut().zip(&start.vm_states) {
                    vm.restore(st);
                }
                Self {
                    memory: Memory::from_image(&start.memory),
                    vms,
                    chunks_done: start.chunks_done.clone(),
                }
            }
            None => Self {
                memory: Memory::new(map.total_words()),
                vms,
                chunks_done: vec![0; meta.n_procs as usize],
            },
        }
    }
}

/// Serial, software-only replayer over a recorded log stream.
#[derive(Debug)]
pub struct ReplayInspector<S: LogSource> {
    source: S,
    mode: Mode,
    n_procs: u32,
    budget: u64,
    chunk_size: u32,
    memory: Memory,
    vms: Vec<Vm>,
    programs: Arc<[Program]>,
    chunks_done: Vec<u64>,
    rr_cursor: u32,
    gcc: u64,
    watches: HashSet<Addr>,
    collect_footprints: bool,
    done: bool,
}

impl ReplayInspector<RecoveringSource> {
    /// Builds an inspector positioned at the recording's starting
    /// checkpoint (the initial state, or the interval checkpoint for
    /// recordings made with
    /// [`Machine::record_interval`](crate::Machine::record_interval)).
    ///
    /// # Errors
    ///
    /// As [`ReplayInspector::from_source`].
    pub fn new(recording: &Recording) -> Result<Self, InspectError> {
        Self::from_source(recording.source())
    }
}

impl<S: LogSource> ReplayInspector<S> {
    /// Builds an inspector over any log source (e.g. a streaming
    /// [`FileSource`](crate::FileSource)).
    ///
    /// # Errors
    ///
    /// Returns [`InspectError`] when the stream's start state does not
    /// fit its machine — the check the engine makes before a replay.
    pub fn from_source(source: S) -> Result<Self, InspectError> {
        let programs = programs(source.meta());
        Self::with_programs(source, programs)
    }

    /// [`ReplayInspector::from_source`] running the stream's `programs`,
    /// generated once by the caller.
    pub(crate) fn with_programs(source: S, programs: Arc<[Program]>) -> Result<Self, InspectError> {
        let meta = source.meta();
        let start = match &meta.interval {
            Some(start) => Some(fitting(start, meta.n_procs)?),
            None => None,
        };
        let state = Restored::new(meta, start, &programs);
        Ok(Self::assemble(source, programs, state))
    }

    /// An inspector over `source` that starts from `start` and runs the
    /// stream's `programs`, generated once by the caller. Callers check
    /// the state's shape with [`fitting`] first.
    pub(crate) fn with_start(source: S, start: &StartState, programs: Arc<[Program]>) -> Self {
        let state = Restored::new(source.meta(), Some(start), &programs);
        Self::assemble(source, programs, state)
    }

    fn assemble(source: S, programs: Arc<[Program]>, state: Restored) -> Self {
        let meta = source.meta();
        let Restored {
            memory,
            vms,
            chunks_done,
        } = state;
        // PicoLog's predefined commit order is strict round-robin from
        // processor 0, so under it the per-processor chunk counters
        // differ by at most one and the next committer is the first
        // processor still at the minimum. A replay resumed mid-round
        // (from an interval checkpoint) must restart the cursor at that
        // processor, not at 0. Sources that carry an explicit resume
        // phase (checkpoint seeks) override the derivation — counters
        // alone cannot recover the cursor once processors halt at
        // different chunk counts.
        let rr_cursor = source.resume_phase().unwrap_or_else(|| {
            chunks_done
                .iter()
                .copied()
                .min()
                .and_then(|lo| chunks_done.iter().position(|&c| c == lo))
                .map_or(0, |p| p as u32)
        });
        Self {
            mode: meta.mode,
            n_procs: meta.n_procs,
            budget: meta.budget,
            chunk_size: meta.chunk_size,
            source,
            memory,
            vms,
            programs,
            chunks_done,
            rr_cursor,
            gcc: 0,
            watches: HashSet::new(),
            collect_footprints: false,
            done: false,
        }
    }

    /// Enables (or disables) per-commit read/write line footprint
    /// collection; subsequent [`CommitEvent`]s carry the sorted cache
    /// lines the chunk touched. Off by default — collection costs one
    /// hash-set insert per memory access.
    pub fn collect_footprints(&mut self, enable: bool) {
        self.collect_footprints = enable;
    }

    /// Captures the full architectural state at the current replay
    /// point as an engine-consumable start state.
    pub fn capture(&self) -> StartState {
        StartState {
            memory: self.memory.image(),
            vm_states: self.vms.iter().map(|v| v.snapshot()).collect(),
            chunks_done: self.chunks_done.clone(),
        }
    }

    /// Watches a word address; subsequent commits report value changes
    /// to it.
    pub fn watch(&mut self, addr: Addr) {
        self.watches.insert(addr);
    }

    /// Stops watching an address.
    pub fn unwatch(&mut self, addr: Addr) {
        self.watches.remove(&addr);
    }

    /// Reads a memory word at the current replay point.
    pub fn memory(&self, addr: Addr) -> Word {
        self.memory.peek(addr)
    }

    /// Global commit count reached so far.
    pub fn gcc(&self) -> u64 {
        self.gcc
    }

    /// The PicoLog round-robin cursor at the current replay point (the
    /// processor the predefined order names next). Always defined;
    /// meaningful only under [`Mode::PicoLog`].
    pub fn rr_phase(&self) -> u32 {
        self.rr_cursor
    }

    /// The state digest at the current replay point — the same schema
    /// the engine publishes in [`delorean_chunk::RunStats`], so a
    /// partial software replay can be fingerprint-compared against a
    /// full run truncated to the same commit.
    pub fn digest(&self) -> delorean_chunk::StateDigest {
        delorean_chunk::StateDigest {
            mem_hash: self.memory.content_hash(),
            stream_hashes: self.vms.iter().map(Vm::stream_hash).collect(),
            retired: self.vms.iter().map(Vm::retired).collect(),
            committed_chunks: self.chunks_done.clone(),
        }
    }

    /// Retired instructions of processor `p` at the current point.
    pub fn retired(&self, p: u32) -> u64 {
        self.vms[p as usize].retired()
    }

    fn finished(&self, p: usize) -> bool {
        self.vms[p].retired() >= self.budget || self.vms[p].halted()
    }

    fn next_committer(&mut self) -> Option<Committer> {
        match self.mode {
            Mode::OrderSize | Mode::OrderOnly => self.source.pi_peek(),
            Mode::PicoLog => {
                if self.source.dma_slot_matches(self.gcc) {
                    return Some(Committer::Dma);
                }
                let n = self.n_procs;
                let mut cur = self.rr_cursor % n;
                for _ in 0..n {
                    if !self.finished(cur as usize) {
                        return Some(Committer::Proc(cur));
                    }
                    cur = (cur + 1) % n;
                }
                None
            }
        }
    }

    /// Replays one commit; returns `None` when the recording is fully
    /// consumed.
    ///
    /// # Errors
    ///
    /// Returns [`InspectError`] when the logs are inconsistent with the
    /// execution (e.g. a PI entry for a processor that already retired
    /// its budget, or a missing I/O-log value).
    pub fn step(&mut self) -> Result<Option<CommitEvent>, InspectError> {
        if self.done {
            return Ok(None);
        }
        let Some(committer) = self.next_committer() else {
            // Distinguish a cleanly consumed log from a stream that
            // died mid-decode: a corrupt segment must surface as an
            // error carrying the commit index reached, not as a silent
            // end of the recording.
            if let Some(e) = self.source.error() {
                return Err(InspectError::at(
                    self.gcc,
                    format!("log stream failed: {e}"),
                ));
            }
            self.done = true;
            return Ok(None);
        };
        match committer {
            Committer::Dma => {
                let Some(data) = self.source.dma_next() else {
                    return Err(InspectError::at(self.gcc + 1, "DMA log exhausted".into()));
                };
                let mut hits = Vec::new();
                let mut write_lines = HashSet::new();
                for &(addr, value) in &data {
                    if self.watches.contains(&addr) {
                        let old = self.memory.peek(addr);
                        if old != value {
                            hits.push(WatchHit {
                                addr,
                                old,
                                new: value,
                            });
                        }
                    }
                    if self.collect_footprints {
                        write_lines.insert(delorean_mem::line_of(addr));
                    }
                    self.memory.store(addr, value);
                }
                self.source.note_commit(Committer::Dma);
                self.gcc += 1;
                Ok(Some(CommitEvent {
                    gcc: self.gcc,
                    committer,
                    chunk_index: 0,
                    size: 0,
                    truncation: TruncationReason::StandardSize,
                    interrupt: false,
                    io_loads: 0,
                    dma_words: data.len() as u32,
                    watch_hits: hits,
                    read_lines: Vec::new(),
                    write_lines: sorted(write_lines),
                }))
            }
            Committer::Proc(p) => {
                let event = self.execute_chunk(p)?;
                self.source.note_commit(Committer::Proc(p));
                if self.mode == Mode::PicoLog {
                    self.rr_cursor = (p + 1) % self.n_procs;
                }
                Ok(Some(event))
            }
        }
    }

    /// Replays the next commit on the way to commit `target`, counting
    /// from commit `start`, the one this inspector began at. Returns
    /// `None` once `target` is reached — the one roll-forward behind
    /// checkpoints, seeks and bounded windows.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError::Diverged`] when the recording ends before
    /// `target` or its logs are inconsistent with the execution.
    pub fn step_to(&mut self, start: u64, target: u64) -> Result<Option<CommitEvent>, ReplayError> {
        if start + self.gcc >= target {
            return Ok(None);
        }
        match self.step()? {
            Some(ev) => Ok(Some(ev)),
            None => Err(ReplayError::Diverged {
                detail: format!(
                    "recording has only {} commits, cannot checkpoint at {target}",
                    start + self.gcc
                ),
            }),
        }
    }

    /// Executes processor `p`'s next logical chunk serially, matching
    /// the engine's chunking rules exactly.
    fn execute_chunk(&mut self, p: u32) -> Result<CommitEvent, InspectError> {
        let pi = p as usize;
        if self.finished(pi) {
            return Err(InspectError::at(
                self.gcc + 1,
                format!("commit order names processor {p} after it retired its budget"),
            ));
        }
        let index = self.chunks_done[pi] + 1;
        let (budget, chunk_size) = (self.budget, self.chunk_size);
        let forced = self.source.forced_size(p, index);
        let target = forced.unwrap_or(chunk_size);
        let interrupt = self.source.interrupt_at(p, index);
        let vm = &mut self.vms[pi];
        let program = &self.programs[pi];
        if let Some((_vector, payload)) = interrupt {
            if vm.in_handler() {
                return Err(InspectError::at(
                    self.gcc + 1,
                    format!("interrupt log targets chunk {index} inside a handler"),
                ));
            }
            vm.deliver_interrupt(program, payload);
        }
        let mut io = LogIo {
            source: &mut self.source,
            core: p,
            chunk_index: index,
            seq: 0,
            missing: false,
        };
        let observed = self.collect_footprints || !self.watches.is_empty();
        let (run, hits, footprints) = if observed {
            let mut footprints = self
                .collect_footprints
                .then(|| (HashSet::new(), HashSet::new()));
            let mut mem = WatchMem {
                mem: &mut self.memory,
                watches: &self.watches,
                hits: Vec::new(),
                footprints: footprints.as_mut(),
            };
            let run = run_chunk(vm, program, &mut mem, &mut io, target, chunk_size, budget);
            (run, mem.hits, footprints)
        } else {
            // Nothing observes the chunk: it runs straight on memory.
            let run = run_chunk(
                vm,
                program,
                &mut self.memory,
                &mut io,
                target,
                chunk_size,
                budget,
            );
            (run, Vec::new(), None)
        };
        let (size, truncation) = (run.size, run.truncation);
        let io_loads = io.seq;
        if io.missing {
            return Err(InspectError::at(
                self.gcc + 1,
                format!("I/O log has no value for processor {p}, chunk {index}"),
            ));
        }
        let watch_hits = hits
            .into_iter()
            .map(|(addr, old)| WatchHit {
                addr,
                old,
                new: self.memory.peek(addr),
            })
            .filter(|h| h.old != h.new)
            .collect();
        let (read_lines, write_lines) = match footprints {
            Some((r, w)) => (sorted(r), sorted(w)),
            None => (Vec::new(), Vec::new()),
        };
        self.chunks_done[pi] = index;
        self.gcc += 1;
        Ok(CommitEvent {
            gcc: self.gcc,
            committer: Committer::Proc(p),
            chunk_index: index,
            size,
            truncation,
            interrupt: interrupt.is_some(),
            io_loads,
            dma_words: 0,
            watch_hits,
            read_lines,
            write_lines,
        })
    }

    /// Replays to the end of the recording and compares the final state
    /// against the stream's trailer digest.
    ///
    /// # Errors
    ///
    /// Propagates any log inconsistency found while stepping, and any
    /// stream corruption reported by the source.
    pub fn run_to_end(&mut self) -> Result<InspectReport, InspectError> {
        let mut commits = self.gcc;
        while let Some(ev) = self.step()? {
            commits = ev.gcc;
        }
        let trailer = self.source.finish().map_err(|detail| InspectError {
            detail,
            commit: Some(commits),
        })?;
        let digest = &trailer.stats.digest;
        let mut mismatch = None;
        if self.memory.content_hash() != digest.mem_hash {
            mismatch = Some("final memory differs".to_string());
        }
        for (i, vm) in self.vms.iter().enumerate() {
            if vm.stream_hash() != digest.stream_hashes[i] {
                mismatch
                    .get_or_insert_with(|| format!("instruction stream of processor {i} differs"));
            }
            if vm.retired() != digest.retired[i] {
                mismatch.get_or_insert_with(|| format!("retired count of processor {i} differs"));
            }
        }
        if self.chunks_done != digest.committed_chunks {
            mismatch.get_or_insert_with(|| "chunk counts differ".to_string());
        }
        Ok(InspectReport {
            commits,
            matches_recording: mismatch.is_none(),
            mismatch,
        })
    }
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::Machine;
    use delorean_isa::workload;

    fn recording(mode: Mode, app: &str) -> (Machine, Recording) {
        let m = Machine::builder().mode(mode).procs(4).budget(8_000).build();
        let r = m.record(workload::by_name(app).unwrap(), 17);
        (m, r)
    }

    #[test]
    fn software_replay_matches_engine_digest_all_modes() {
        for (mode, app) in [
            (Mode::OrderOnly, "barnes"),
            (Mode::OrderSize, "radix"),
            (Mode::PicoLog, "fft"),
        ] {
            let (_, rec) = recording(mode, app);
            let report = ReplayInspector::new(&rec).unwrap().run_to_end().unwrap();
            assert!(
                report.matches_recording,
                "{mode} software replay diverged: {:?}",
                report.mismatch
            );
            assert!(report.commits > 0);
        }
    }

    #[test]
    fn software_replay_handles_full_system_recordings() {
        let m = Machine::builder()
            .mode(Mode::OrderOnly)
            .procs(4)
            .budget(12_000)
            .devices(delorean_chunk::DeviceConfig {
                irq_period: 6_000,
                dma_period: 9_000,
                dma_words: 16,
            })
            .build();
        let rec = m.record(workload::by_name("sjbb2k").unwrap(), 17);
        assert!(rec.stats.interrupts > 0 && rec.stats.dma_commits > 0);
        let report = ReplayInspector::new(&rec).unwrap().run_to_end().unwrap();
        assert!(report.matches_recording, "{:?}", report.mismatch);
    }

    #[test]
    fn stepping_reports_commit_sequence() {
        let (_, rec) = recording(Mode::OrderOnly, "lu");
        let mut ins = ReplayInspector::new(&rec).unwrap();
        let mut count = 0u64;
        while let Some(ev) = ins.step().unwrap() {
            count += 1;
            assert_eq!(ev.gcc, count);
            if let Committer::Proc(p) = ev.committer {
                assert!(p < 4);
                assert!(ev.size > 0);
            }
        }
        assert_eq!(count, rec.events.len() as u64);
    }

    #[test]
    fn streamed_inspection_matches_in_memory() {
        let (_, rec) = recording(Mode::OrderOnly, "lu");
        let bytes = crate::serialize::to_bytes(&rec);
        let source = crate::FileSource::open(&bytes[..]).unwrap();
        let report = ReplayInspector::from_source(source)
            .unwrap()
            .run_to_end()
            .unwrap();
        assert!(report.matches_recording, "{:?}", report.mismatch);
    }

    #[test]
    fn footprints_expose_exact_and_signature_views() {
        let (_, rec) = recording(Mode::OrderOnly, "radix");
        let mut ins = ReplayInspector::new(&rec).unwrap();
        ins.collect_footprints(true);
        let mut saw_lines = false;
        while let Some(ev) = ins.step().unwrap() {
            // The exact view: sorted, deduplicated line sets.
            for lines in [&ev.read_lines, &ev.write_lines] {
                assert!(lines.windows(2).all(|w| w[0] < w[1]), "{lines:?}");
            }
            // No false negatives: every exact line is a member of the
            // signature hardware would build from the set.
            let w = delorean_mem::Signature::from_lines(ev.write_lines.iter().copied());
            for &l in &ev.write_lines {
                assert!(w.may_contain(l));
            }
            saw_lines |= !ev.write_lines.is_empty();
        }
        assert!(saw_lines, "radix chunks write memory");
    }

    #[test]
    fn watchpoints_attribute_writes_to_commits() {
        let (_, rec) = recording(Mode::OrderOnly, "raytrace");
        let map = delorean_isa::layout::AddressMap::new(4);
        // Watch the contended lock word and its data word.
        let lock = map.lock_addr(0);
        let mut ins = ReplayInspector::new(&rec).unwrap();
        ins.watch(lock);
        ins.watch(lock + 1);
        let mut hits = 0usize;
        while let Some(ev) = ins.step().unwrap() {
            hits += ev.watch_hits.len();
            for h in &ev.watch_hits {
                assert!(h.addr == lock || h.addr == lock + 1);
                assert_ne!(h.old, h.new);
            }
        }
        assert!(hits > 0, "contended lock must be written at some commit");
    }

    #[test]
    fn memory_inspection_mid_replay() {
        let (_, rec) = recording(Mode::OrderOnly, "barnes");
        let map = delorean_isa::layout::AddressMap::new(4);
        let mut ins = ReplayInspector::new(&rec).unwrap();
        assert_eq!(ins.memory(map.shared_base()), 0, "initial state");
        // Half the commits in.
        let half = rec.events.len() / 2;
        for _ in 0..half {
            ins.step().unwrap().expect("log has entries left");
        }
        assert_eq!(ins.gcc(), half as u64);
        let _mid_value = ins.memory(map.shared_base());
        let report = ins.run_to_end().unwrap();
        assert!(report.matches_recording);
    }

    #[test]
    fn corrupted_log_is_reported_not_looped() {
        let (_, mut rec) = recording(Mode::OrderOnly, "lu");
        // Append a bogus commit: one too many for core 0.
        let mut bogus = rec
            .events
            .iter()
            .rfind(|e| e.committer == Committer::Proc(0))
            .unwrap()
            .clone();
        bogus.chunk_index += 1;
        rec.events.push(bogus);
        let mut ins = ReplayInspector::new(&rec).unwrap();
        let mut err = None;
        loop {
            match ins.step() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        let err = err.expect("bogus entry must be detected");
        assert!(err.to_string().contains("after it retired"), "{err}");
    }
}
