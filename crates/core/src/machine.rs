//! The top-level record/replay API.

use crate::checkpoint::{IntervalCheckpoint, ReplayCursor};
use crate::error::ReplayError;
use crate::inspect::ReplayInspector;
use crate::log::MemoryOrderingSizes;
use crate::mode::Mode;
use crate::recorder::LogSet;
use crate::session::{checked_meta, Session};
use crate::stratify::{StratifiedPiLog, Stratifier};
use crate::stream::{LogSink, LogSource, MemorySink, MemorySource};
use crate::wire::Fnv;
use delorean_chunk::{
    ArbiterConfig, Committer, DeviceConfig, EngineConfig, RunStats, StartState, StateDigest,
    SubstrateFaultConfig,
};
use delorean_isa::workload::{WorkloadKind, WorkloadSpec};
use delorean_sim::RunSpec;

/// A complete DeLorean recording: the memory-ordering log (PI + CS),
/// the input logs, what identifies the starting checkpoint and the
/// recorded run's statistics (whose digest is the determinism
/// reference).
#[derive(Debug, Clone)]
pub struct Recording {
    /// Mode the recording was made in.
    pub mode: Mode,
    /// Processors.
    pub n_procs: u32,
    /// Standard (or maximum) chunk size used.
    pub chunk_size: u32,
    /// Retired-instruction budget per processor.
    pub budget: u64,
    /// The recorded application.
    pub workload: WorkloadSpec,
    /// Program-generation seed.
    pub app_seed: u64,
    /// Device activity during the recording.
    pub devices: DeviceConfig,
    /// Commit-arbitration topology the recording was made under
    /// (replay always re-serializes through the global arbiter).
    pub arbiter: ArbiterConfig,
    /// Content hash of the initial memory image.
    pub initial_mem_hash: u64,
    /// For interval recordings: the mid-execution architectural state
    /// the interval began at (`None` for whole-execution recordings).
    pub interval: Option<StartState>,
    /// All logs.
    pub logs: LogSet,
    /// Statistics of the initial execution (incl. the digest).
    pub stats: RunStats,
}

impl Recording {
    /// The determinism reference: final memory hash, per-processor
    /// stream hashes, retired counts and chunk counts.
    pub fn digest(&self) -> &StateDigest {
        &self.stats.digest
    }

    /// Content-derived identifier of the checkpoint the recording starts
    /// from: its workload, processor count, program seed and initial
    /// memory image.
    ///
    /// ```
    /// use delorean::Machine;
    /// use delorean_isa::workload;
    /// let m = Machine::builder().procs(2).budget(2_000).build();
    /// let fft = workload::by_name("fft").unwrap();
    /// assert_eq!(m.record(fft, 7).checkpoint_id(), m.record(fft, 7).checkpoint_id());
    /// ```
    pub fn checkpoint_id(&self) -> u64 {
        let mut h = Fnv::default();
        h.update(self.workload.name.as_bytes());
        h.word(u64::from(self.n_procs));
        h.word(self.app_seed);
        h.word(self.initial_mem_hash);
        h.value()
    }

    /// Total instructions retired machine-wide.
    pub fn total_instructions(&self) -> u64 {
        self.stats.digest.retired.iter().sum()
    }

    /// Measured sizes of the memory-ordering log.
    pub fn memory_ordering_sizes(&self) -> MemoryOrderingSizes {
        let cs = self
            .logs
            .cs
            .iter()
            .map(|l| l.measure())
            .fold(delorean_compress::LogSize::default(), |a, b| a.combined(b));
        MemoryOrderingSizes {
            pi: self.logs.pi.measure(),
            cs,
        }
    }

    /// Compressed memory-ordering log size in the paper's unit, bits
    /// per processor per kilo-instruction.
    pub fn compressed_bits_per_proc_per_kiloinst(&self) -> f64 {
        self.memory_ordering_sizes()
            .total()
            .compressed_bits_per_proc_per_kiloinst(self.total_instructions(), self.n_procs)
    }

    /// Estimated compressed log production in GB/day at the given clock
    /// and IPC (Section 6.1's "20 GB per day" metric).
    pub fn gigabytes_per_day(&self, ghz: f64, ipc: f64) -> f64 {
        self.memory_ordering_sizes().total().gigabytes_per_day(
            self.total_instructions(),
            self.n_procs,
            ghz,
            ipc,
        )
    }

    /// Stratifies the PI log post hoc with the given
    /// chunks-per-processor-per-stratum capacity (Section 4.3 /
    /// Figure 9).
    ///
    /// # Panics
    ///
    /// Panics for PicoLog recordings, which have no PI log.
    pub fn stratified_pi(&self, max_per_stratum: u32) -> StratifiedPiLog {
        assert!(self.mode.has_pi_log(), "PicoLog has no PI log to stratify");
        let mut s = Stratifier::new(self.n_procs + 1, max_per_stratum);
        for ((entry, lines), writes) in self
            .logs
            .pi
            .iter()
            .zip(&self.logs.pi_footprints)
            .zip(&self.logs.pi_write_footprints)
        {
            let col = match entry {
                Committer::Proc(p) => p as usize,
                Committer::Dma => self.n_procs as usize,
            };
            s.observe(col, lines, writes);
        }
        s.finish()
    }

    pub(crate) fn run_spec(&self) -> RunSpec {
        // A Recording only exists for a machine the builder (or the
        // stream decoder) already validated, so the spec is well-formed
        // by construction.
        #[allow(clippy::expect_used)]
        RunSpec::new(self.workload, self.n_procs, self.app_seed, self.budget)
            .expect("recording carries a validated machine shape")
    }

    /// Replays the recording in software up to Global Commit Count
    /// `gcc` and captures a system checkpoint there, from which a new
    /// recording interval can start (the paper's `I(n,m)` machinery).
    ///
    /// # Errors
    ///
    /// Returns a [`ReplayError`] if `gcc` exceeds the recording's
    /// commit count or the logs are inconsistent.
    pub fn checkpoint_at(&self, gcc: u64) -> Result<IntervalCheckpoint, ReplayError> {
        let mut inspector = ReplayInspector::new(self);
        while inspector.step_to(0, gcc)?.is_some() {}
        Ok(IntervalCheckpoint {
            workload: self.workload,
            app_seed: self.app_seed,
            n_procs: self.n_procs,
            gcc,
            state: inspector.capture(),
        })
    }
}

/// Outcome of a replay run.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Statistics of the replayed execution.
    pub stats: RunStats,
    /// Whether the replay reproduced the recording exactly (digest
    /// equality).
    pub deterministic: bool,
    /// First divergence detected, if any.
    pub divergence: Option<String>,
}

/// A DeLorean machine configuration; records and replays workloads.
///
/// # Examples
///
/// ```
/// use delorean::{Machine, Mode};
/// let m = Machine::builder().mode(Mode::PicoLog).procs(4).budget(4_000).build();
/// assert_eq!(m.chunk_size(), 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    mode: Mode,
    n_procs: u32,
    chunk_size: u32,
    budget: u64,
    devices: Option<DeviceConfig>,
    timing_seed: u64,
    overflow_noise: f64,
    simultaneous_chunks: Option<u32>,
    substrate_faults: Option<SubstrateFaultConfig>,
    arbiter: ArbiterConfig,
}

impl Machine {
    /// Starts building a machine (defaults: OrderOnly, 8 processors,
    /// the mode's Table-5 chunk size, 50k instructions per processor).
    pub fn builder() -> MachineBuilder {
        MachineBuilder::default()
    }

    /// The machine's execution mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Processors.
    pub fn procs(&self) -> u32 {
        self.n_procs
    }

    /// Standard (or maximum) chunk size.
    pub fn chunk_size(&self) -> u32 {
        self.chunk_size
    }

    /// Per-processor instruction budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// The commit-arbitration backend recordings run under.
    pub fn arbiter(&self) -> ArbiterConfig {
        self.arbiter
    }

    fn device_config(&self, workload: &WorkloadSpec) -> DeviceConfig {
        self.devices.unwrap_or(match workload.kind {
            WorkloadKind::Splash => DeviceConfig::none(),
            WorkloadKind::Commercial => DeviceConfig::commercial(),
        })
    }

    /// The engine configuration used when recording `workload`.
    pub fn recording_config(&self, workload: &WorkloadSpec) -> EngineConfig {
        let mut cfg = EngineConfig::recording(self.chunk_size);
        cfg.machine.n_procs = self.n_procs;
        cfg.arbiter = self.arbiter;
        cfg.timing_seed = self.timing_seed;
        cfg.overflow_noise = self.overflow_noise;
        cfg.devices = self.device_config(workload);
        if let Some(s) = self.simultaneous_chunks {
            cfg.machine.simultaneous_chunks = s;
        }
        cfg.faults = self.substrate_faults;
        match self.mode {
            Mode::OrderSize => cfg.variable_truncate_prob = 0.25,
            Mode::OrderOnly => {}
            Mode::PicoLog => {
                cfg.collision_shrink = false;
                cfg.collect_token_stats = true;
                // Commit-token hop latency between round-robin grants.
                cfg.grant_gap = 215;
            }
        }
        cfg
    }

    /// A stage-less [`Session`] over this machine — the composable
    /// pipeline behind every record/replay entry point. Stack
    /// [`HookStage`](crate::HookStage)s with
    /// [`Session::with_stage`] to observe the run's
    /// [`SubstrateEvent`](crate::SubstrateEvent) stream.
    pub fn session<'s>(&self) -> Session<'_, 's> {
        Session::new(self)
    }

    /// Records one execution of `workload` seeded by `app_seed`.
    pub fn record(&self, workload: &WorkloadSpec, app_seed: u64) -> Recording {
        self.session().record(workload, app_seed)
    }

    /// Records one execution of `workload`, streaming every commit into
    /// `sink` as it is granted. With a [`FileSink`](crate::FileSink)
    /// the log hits the disk incrementally and peak buffering stays
    /// bounded by the sink's flush granularity instead of the run
    /// length; with a [`MemorySink`] this is equivalent to [`record`].
    ///
    /// [`record`]: Machine::record
    pub fn record_to<S: LogSink>(
        &self,
        workload: &WorkloadSpec,
        app_seed: u64,
        sink: &mut S,
    ) -> RunStats {
        self.session().record_to(workload, app_seed, sink)
    }

    /// Records a new interval starting from a mid-execution checkpoint:
    /// each processor runs until its *total* retired count reaches the
    /// checkpoint's high-water mark plus `extra_budget`. The resulting
    /// recording replays from the same checkpoint.
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
    // Infallible: a successful `record_interval_to` drives the sink
    // through begin, events and trailer, after which `into_recording`
    // is `Some`.
    #[allow(clippy::expect_used)]
    pub fn record_interval(
        &self,
        ck: &IntervalCheckpoint,
        extra_budget: u64,
    ) -> Result<Recording, ReplayError> {
        let mut sink = MemorySink::new();
        self.record_interval_to(ck, extra_budget, &mut sink)?;
        Ok(sink
            .into_recording()
            .expect("an in-memory recording always completes"))
    }

    /// Streaming counterpart of [`record_interval`]: the interval's
    /// commits flow into `sink` as they are granted.
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
    ///
    /// [`record_interval`]: Machine::record_interval
    pub fn record_interval_to<S: LogSink>(
        &self,
        ck: &IntervalCheckpoint,
        extra_budget: u64,
        sink: &mut S,
    ) -> Result<RunStats, ReplayError> {
        self.session().record_interval_to(ck, extra_budget, sink)
    }

    pub(crate) fn replay_config_for(
        &self,
        workload: &WorkloadSpec,
        chunk_size: u32,
        devices: DeviceConfig,
        timing_seed: u64,
    ) -> EngineConfig {
        let mut base = self.recording_config(workload);
        base.chunk_size = chunk_size;
        base.devices = devices;
        base.collect_token_stats = self.mode == Mode::PicoLog;
        let mut cfg = EngineConfig::replay_of(&base, timing_seed);
        // The paper's replay methodology raises the arbitration latency
        // from 30 to 50 cycles; PicoLog's commit-token circulation runs
        // through the same penalized path.
        cfg.grant_gap = cfg.grant_gap * 5 / 3;
        cfg
    }

    /// Replays `recording` with a perturbed timing seed derived from
    /// the recording seed, per the paper's replay methodology
    /// (Section 6.2.1).
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError`] when the machine shape or mode does not
    /// match the recording.
    pub fn replay(&self, recording: &Recording) -> Result<ReplayReport, ReplayError> {
        self.replay_with_seed(recording, self.timing_seed ^ 0x5a5a_5a5a)
    }

    /// Replays with an explicit replay-side timing seed.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError`] when the machine shape or mode does not
    /// match the recording.
    pub fn replay_with_seed(
        &self,
        recording: &Recording,
        timing_seed: u64,
    ) -> Result<ReplayReport, ReplayError> {
        self.replay_from_with_seed(MemorySource::of_recording(recording), timing_seed)
    }

    /// Replays directly from a log source — e.g. a streaming
    /// [`FileSource`](crate::FileSource) decoding a `.dlrn` file on
    /// demand, so the whole log never needs to be resident.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError`] when the source carries no metadata, the
    /// machine shape or mode does not match, or the stream turns out to
    /// be corrupt or truncated mid-replay.
    pub fn replay_from<S: LogSource>(&self, source: S) -> Result<ReplayReport, ReplayError> {
        self.replay_from_with_seed(source, self.timing_seed ^ 0x5a5a_5a5a)
    }

    /// [`replay_from`](Machine::replay_from) with an explicit
    /// replay-side timing seed.
    ///
    /// # Errors
    ///
    /// As [`replay_from`](Machine::replay_from).
    pub fn replay_from_with_seed<S: LogSource>(
        &self,
        source: S,
        timing_seed: u64,
    ) -> Result<ReplayReport, ReplayError> {
        self.session().replay_from(source, timing_seed)
    }

    /// The replay-side timing seed the machine's replay entry points
    /// perturb the recorded seed with.
    pub(crate) fn replay_seed(&self) -> u64 {
        self.timing_seed ^ 0x5a5a_5a5a
    }

    /// Replays a window of a recording through a seekable
    /// [`ReplayCursor`]: the nearest checkpoint at or before `from` is
    /// restored, the stream is rolled forward to `from`, and replay
    /// resumes mid-stream. With `to = None` the window runs to the end
    /// of the recording on the engine and the report is byte-identical
    /// — digest, verdict, divergence and errors — to a full replay from
    /// slot 0. With `to = Some(m)` the window stops exactly at commit
    /// `m` on the software inspector and the report's digest is the
    /// state digest at that commit.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError`] when the window bounds are outside the
    /// recording, the machine shape or mode does not match, or the
    /// stream fails mid-window.
    pub fn replay_window<R: std::io::Read + std::io::Seek>(
        &self,
        cursor: &mut ReplayCursor<R>,
        from: u64,
        to: Option<u64>,
    ) -> Result<ReplayReport, ReplayError> {
        self.session().replay_window(cursor, from, to)
    }

    /// The full architectural state at commit `gcc`, reached through
    /// the cursor's checkpoint index instead of a slot-0 replay: seek
    /// to the nearest checkpoint at or before `gcc`, roll forward, and
    /// capture. Equivalent to [`Recording::checkpoint_at`] on the same
    /// recording, at a cost proportional to the checkpoint interval
    /// rather than to `gcc`.
    ///
    /// # Errors
    ///
    /// Returns a [`ReplayError`] if `gcc` exceeds the recording's
    /// commit count, the machine shape or mode does not match, or the
    /// logs are inconsistent.
    pub fn state_at<R: std::io::Read + std::io::Seek>(
        &self,
        cursor: &mut ReplayCursor<R>,
        gcc: u64,
    ) -> Result<IntervalCheckpoint, ReplayError> {
        let meta = checked_meta(self, &cursor.source)?;
        let entry = cursor.seek(gcc)?;
        Ok(IntervalCheckpoint {
            workload: meta.workload,
            app_seed: meta.app_seed,
            n_procs: meta.n_procs,
            gcc,
            state: entry.state,
        })
    }

    /// Replays driven by a *stratified* PI log instead of the plain
    /// one (Section 4.3; Figure 11's "Stratified OrderOnly replay").
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError`] when the machine shape or mode does not
    /// match, and [`ReplayError::Unstratifiable`] when the mode has no
    /// PI log or `max_per_stratum` is zero.
    pub fn replay_stratified(
        &self,
        recording: &Recording,
        max_per_stratum: u32,
        timing_seed: u64,
    ) -> Result<ReplayReport, ReplayError> {
        self.session()
            .replay_stratified(recording, max_per_stratum, timing_seed)
    }
}

/// Builder for [`Machine`].
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    mode: Mode,
    n_procs: u32,
    chunk_size: Option<u32>,
    budget: u64,
    devices: Option<DeviceConfig>,
    timing_seed: u64,
    overflow_noise: f64,
    simultaneous_chunks: Option<u32>,
    substrate_faults: Option<SubstrateFaultConfig>,
    arbiter: ArbiterConfig,
}

impl Default for MachineBuilder {
    fn default() -> Self {
        Self {
            mode: Mode::OrderOnly,
            n_procs: 8,
            chunk_size: None,
            budget: 50_000,
            devices: None,
            timing_seed: 0xd1ce,
            overflow_noise: EngineConfig::recording(1).overflow_noise,
            simultaneous_chunks: None,
            substrate_faults: None,
            arbiter: ArbiterConfig::Global,
        }
    }
}

impl MachineBuilder {
    /// Sets the execution mode.
    pub fn mode(&mut self, mode: Mode) -> &mut Self {
        self.mode = mode;
        self
    }

    /// Sets the processor count.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the machine-wide
    /// [`MAX_PROCS`](delorean_sim::MAX_PROCS) ceiling of 256 cores.
    pub fn procs(&mut self, n: u32) -> &mut Self {
        assert!(
            delorean_sim::validate_procs(n).is_ok(),
            "processor count must be 1..={}",
            delorean_sim::MAX_PROCS
        );
        self.n_procs = n;
        self
    }

    /// Overrides the mode's default chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn chunk_size(&mut self, size: u32) -> &mut Self {
        assert!(size > 0, "chunk size must be positive");
        self.chunk_size = Some(size);
        self
    }

    /// Sets the per-processor instruction budget.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn budget(&mut self, budget: u64) -> &mut Self {
        assert!(budget > 0, "budget must be positive");
        self.budget = budget;
        self
    }

    /// Overrides device activity (default: chosen by workload kind).
    pub fn devices(&mut self, devices: DeviceConfig) -> &mut Self {
        self.devices = Some(devices);
        self
    }

    /// Sets the recording-side timing seed.
    pub fn timing_seed(&mut self, seed: u64) -> &mut Self {
        self.timing_seed = seed;
        self
    }

    /// Sets the cache-overflow noise probability.
    pub fn overflow_noise(&mut self, p: f64) -> &mut Self {
        self.overflow_noise = p;
        self
    }

    /// Overrides the simultaneous-chunks-per-processor limit.
    pub fn simultaneous_chunks(&mut self, n: u32) -> &mut Self {
        self.simultaneous_chunks = Some(n);
        self
    }

    /// Selects the commit-arbitration backend used while recording
    /// (default: the single global arbiter). Replay ignores this and
    /// always re-serializes through the global arbiter, consuming the
    /// recorded total order.
    pub fn arbiter(&mut self, arbiter: ArbiterConfig) -> &mut Self {
        self.arbiter = arbiter;
        self
    }

    /// Injects deterministic substrate-level faults while recording
    /// (squash storms, forced non-deterministic truncations, device
    /// bursts). Replay is unaffected: the recorded logs carry every
    /// effect of the injected faults, and a faulted recording must
    /// still replay deterministically.
    pub fn substrate_faults(&mut self, faults: SubstrateFaultConfig) -> &mut Self {
        self.substrate_faults = Some(faults);
        self
    }

    /// Finishes the machine.
    pub fn build(&self) -> Machine {
        Machine {
            mode: self.mode,
            n_procs: self.n_procs,
            chunk_size: self
                .chunk_size
                .unwrap_or_else(|| self.mode.default_chunk_size()),
            budget: self.budget,
            devices: self.devices,
            timing_seed: self.timing_seed,
            overflow_noise: self.overflow_noise,
            simultaneous_chunks: self.simultaneous_chunks,
            substrate_faults: self.substrate_faults,
            arbiter: self.arbiter,
        }
    }
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use delorean_isa::workload;

    #[test]
    fn builder_defaults_follow_table5() {
        let m = Machine::builder().build();
        assert_eq!(m.mode(), Mode::OrderOnly);
        assert_eq!(m.procs(), 8);
        assert_eq!(m.chunk_size(), 2_000);
        let m = Machine::builder().mode(Mode::PicoLog).build();
        assert_eq!(m.chunk_size(), 1_000);
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let rec_machine = Machine::builder().procs(2).budget(2_000).build();
        let recording = rec_machine.record(workload::by_name("lu").unwrap(), 1);
        let other = Machine::builder().procs(4).budget(2_000).build();
        assert!(matches!(
            other.replay(&recording),
            Err(ReplayError::MachineMismatch {
                recorded: 2,
                replaying: 4
            })
        ));
        let mut b = Machine::builder();
        let other = b.procs(2).mode(Mode::PicoLog).budget(2_000).build();
        assert!(matches!(
            other.replay(&recording),
            Err(ReplayError::ModeMismatch { .. })
        ));
    }

    #[test]
    fn stratified_replay_rejects_picolog_and_zero_capacity() {
        let lu = workload::by_name("lu").unwrap();
        let mut b = Machine::builder();
        let pico = b.mode(Mode::PicoLog).procs(2).budget(2_000).build();
        let rec = pico.record(lu, 1);
        assert_eq!(
            pico.replay_stratified(&rec, 1, 7).unwrap_err(),
            ReplayError::Unstratifiable {
                mode: Mode::PicoLog,
                max_per_stratum: 1
            }
        );
        let m = Machine::builder().procs(2).budget(2_000).build();
        let rec = m.record(lu, 1);
        let err = m.replay_stratified(&rec, 0, 7).unwrap_err();
        assert_eq!(
            err,
            ReplayError::Unstratifiable {
                mode: Mode::OrderOnly,
                max_per_stratum: 0
            }
        );
        assert!(err.to_string().contains("got 0"), "{err}");
        assert!(m.replay_stratified(&rec, 1, 7).unwrap().deterministic);
    }

    #[test]
    fn commercial_workloads_get_devices_by_default() {
        let m = Machine::builder().procs(2).build();
        let sweb = workload::by_name("sweb2005").unwrap();
        let lu = workload::by_name("lu").unwrap();
        assert!(m.recording_config(sweb).devices.irq_period > 0);
        assert_eq!(m.recording_config(lu).devices.irq_period, 0);
    }

    #[test]
    fn faulted_recording_replays_deterministically() {
        // The determinism invariant under substrate fault injection:
        // storms, forced truncations and device bursts only shift what
        // the logs record — replay (always fault-free) must still
        // reproduce the execution bit-exactly in every mode.
        let faults = SubstrateFaultConfig {
            seed: 42,
            storm_period: 2_000,
            force_truncate_prob: 0.05,
            device_burst: 4,
            overflow_boost: 0.0005,
        };
        for mode in Mode::all() {
            let m = Machine::builder()
                .mode(mode)
                .procs(2)
                .budget(4_000)
                .substrate_faults(faults)
                .build();
            let rec = m.record(workload::by_name("sweb2005").unwrap(), 3);
            let report = m.replay(&rec).unwrap();
            assert!(report.deterministic, "{mode}: {:?}", report.divergence);
        }
    }

    #[test]
    fn substrate_faults_are_deterministic_per_seed() {
        let faults = SubstrateFaultConfig {
            seed: 9,
            storm_period: 1_500,
            force_truncate_prob: 0.1,
            device_burst: 2,
            overflow_boost: 0.0,
        };
        let build = || {
            Machine::builder()
                .procs(2)
                .budget(3_000)
                .substrate_faults(faults)
                .build()
        };
        let a = build().record(workload::by_name("lu").unwrap(), 5);
        let b = build().record(workload::by_name("lu").unwrap(), 5);
        assert_eq!(a.stats.digest, b.stats.digest);
        assert_eq!(a.stats.squashes, b.stats.squashes);
        assert_eq!(a.logs.pi, b.logs.pi, "identical seeds, identical logs");
    }

    #[test]
    fn order_size_records_variable_chunking() {
        let m = Machine::builder().mode(Mode::OrderSize).procs(2).build();
        let cfg = m.recording_config(workload::by_name("lu").unwrap());
        assert_eq!(cfg.variable_truncate_prob, 0.25);
    }
}
