//! The crashtest matrix: fault classes × workloads × modes, each run
//! verified against the recovery invariants.
//!
//! Every scenario records a ground-truth execution, injects one fault
//! class (against the byte image, the write path, or the execution
//! substrate itself), salvages the result and then *proves* the
//! salvage: every recovered commit range must replay — through the
//! software inspector, stepped exactly as many commits as were
//! recovered — to the bit-identical architectural state the pristine
//! execution reaches at the same commit index, and every unrecovered
//! commit must be named in the [`SalvageReport`](delorean::SalvageReport).
//! A scenario that
//! panics, diverges silently, or loses commits without reporting them
//! fails the matrix.

use crate::io::{apply_to_bytes, FaultySink};
use crate::plan::{FaultClass, FaultOp, FaultPlan};
use delorean::checkpoint::IntervalCheckpoint;
use delorean::inspect::ReplayInspector;
use delorean::recover::{layout, salvage, CountingClock, RecoveringSource, RetryWriter, Salvage};
use delorean::{serialize, FileSink, Machine, Mode, Recording};
use delorean_chunk::{DeviceConfig, StartState, SubstrateFaultConfig};
use delorean_isa::workload::{self, WorkloadSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Segment granularity for crashtest recordings: small, so even short
/// runs produce enough independent segments to lose some and keep
/// others.
const FLUSH_EVERY: usize = 4;
/// Replay timing seed (arbitrary, fixed for determinism).
const REPLAY_SEED: u64 = 0x5a5a;

/// Crashtest matrix parameters.
#[derive(Debug, Clone)]
pub struct CrashtestConfig {
    /// Master seed: every fault schedule derives from it.
    pub seed: u64,
    /// Processors per recorded machine.
    pub procs: u32,
    /// Instruction budget per processor.
    pub budget: u64,
    /// Chunk size (small, so runs commit many chunks).
    pub chunk_size: u32,
    /// Workload names from the catalog.
    pub workloads: Vec<String>,
}

impl CrashtestConfig {
    /// The smoke matrix: two workloads, all modes, every fault class,
    /// sized to run in seconds.
    pub fn smoke(seed: u64) -> Self {
        Self {
            seed,
            procs: 2,
            budget: 3_000,
            chunk_size: 200,
            workloads: vec!["fft".to_string(), "lu".to_string()],
        }
    }
}

/// Outcome of one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// `workload/mode/fault-class`.
    pub name: String,
    /// Whether every recovery invariant held.
    pub passed: bool,
    /// What was verified (or how it failed).
    pub detail: String,
    /// The injected fault plan, rendered (empty for substrate classes,
    /// which are parameterized by seed instead).
    pub plan: String,
    /// The salvage report JSON, when the scenario salvaged a stream.
    pub report: Option<String>,
}

/// Outcome of the whole matrix.
#[derive(Debug, Clone)]
pub struct CrashtestReport {
    /// The master seed the matrix ran under.
    pub seed: u64,
    /// Every scenario, in matrix order.
    pub scenarios: Vec<ScenarioOutcome>,
}

impl CrashtestReport {
    /// Whether every scenario passed.
    pub fn passed(&self) -> bool {
        self.scenarios.iter().all(|s| s.passed)
    }

    /// Renders the report as deterministic text: one line per
    /// scenario plus the salvage JSON for failures.
    pub fn render(&self) -> String {
        use core::fmt::Write as _;
        let mut s = String::new();
        let total = self.scenarios.len();
        let passed = self.scenarios.iter().filter(|x| x.passed).count();
        let _ = writeln!(
            s,
            "crashtest seed={}: {passed}/{total} scenarios passed",
            self.seed
        );
        for sc in &self.scenarios {
            let tag = if sc.passed { "PASS" } else { "FAIL" };
            let _ = writeln!(s, "{tag} {:<40} {}", sc.name, sc.detail);
            if !sc.passed {
                for line in sc.plan.lines() {
                    let _ = writeln!(s, "       plan: {line}");
                }
                if let Some(r) = &sc.report {
                    let _ = writeln!(s, "       salvage: {r}");
                }
            }
        }
        s
    }
}

/// SplitMix64-style scenario-seed derivation: decorrelates the
/// per-scenario RNG streams from one master seed.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A `Write` target whose buffer outlives the sink that owns it — a
/// faulted sink latches its error and cannot hand its writer back, but
/// the crashtest still needs whatever bytes reached the "disk".
#[derive(Debug, Clone, Default)]
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl SharedBuf {
    fn take(&self) -> Vec<u8> {
        std::mem::take(&mut self.0.borrow_mut())
    }
}

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Ground truth for one (workload, mode) cell: the pristine stream,
/// its decoded recording, and its lossless salvage.
struct GroundTruth {
    machine: Machine,
    pristine: Vec<u8>,
    recording: Recording,
    salvage: Salvage,
}

fn machine_for(cfg: &CrashtestConfig, mode: Mode) -> Machine {
    let mut b = Machine::builder();
    b.mode(mode)
        .procs(cfg.procs)
        .budget(cfg.budget)
        .chunk_size(cfg.chunk_size);
    b.build()
}

fn record_pristine(
    cfg: &CrashtestConfig,
    mode: Mode,
    w: &WorkloadSpec,
    app_seed: u64,
) -> Result<GroundTruth, String> {
    let machine = machine_for(cfg, mode);
    let mut sink = FileSink::with_flush_every(Vec::new(), FLUSH_EVERY);
    machine.record_to(w, app_seed, &mut sink);
    let pristine = sink
        .into_inner()
        .map_err(|e| format!("pristine recording failed: {e}"))?;
    let recording = serialize::from_bytes(&pristine)
        .map_err(|e| format!("pristine stream undecodable: {e}"))?;
    let s = salvage(&pristine).map_err(|e| format!("pristine stream unsalvageable: {e}"))?;
    if !s.report.is_intact() {
        return Err(format!(
            "pristine stream did not salvage losslessly: {}",
            s.report
        ));
    }
    Ok(GroundTruth {
        machine,
        pristine,
        recording,
        salvage: s,
    })
}

/// Walks the pristine execution once, capturing architectural state at
/// each requested commit index.
fn pristine_states(gt: &GroundTruth, want: &[u64]) -> Result<BTreeMap<u64, StartState>, String> {
    let mut out = BTreeMap::new();
    let max = want.iter().copied().max().unwrap_or(0);
    let mut insp = ReplayInspector::new(&gt.recording).map_err(|e| e.to_string())?;
    if want.contains(&0) {
        out.insert(0, insp.capture());
    }
    while insp.gcc() < max {
        match insp.step() {
            Ok(Some(_)) => {}
            Ok(None) => {
                return Err(format!(
                    "ground truth ended at commit {} before requested {max}",
                    insp.gcc()
                ))
            }
            Err(e) => return Err(format!("ground truth replay failed: {e}")),
        }
        if want.contains(&insp.gcc()) {
            out.insert(insp.gcc(), insp.capture());
        }
    }
    Ok(out)
}

/// Steps an inspector exactly `n` commits and returns the state
/// reached. Stepping a fixed count (rather than to exhaustion) is what
/// keeps PicoLog honest: its round-robin replay would otherwise march
/// past the recovered range without consulting the log.
fn step_exactly<S: delorean::LogSource>(
    mut insp: ReplayInspector<S>,
    n: u64,
) -> Result<StartState, String> {
    for k in 0..n {
        match insp.step() {
            Ok(Some(_)) => {}
            Ok(None) => return Err(format!("replay ended after {k} of {n} recovered commits")),
            Err(e) => return Err(format!("replay failed at recovered commit {k}: {e}")),
        }
    }
    Ok(insp.capture())
}

/// Verifies every recovered region of `s` against the pristine
/// execution: event-exact decode, then replay to bit-identical state.
fn verify_regions(gt: &GroundTruth, s: &Salvage) -> Result<String, String> {
    let gt_events = &gt.salvage.regions[0].events;
    let total_gt = gt_events.len() as u64;
    let mut want = Vec::new();
    for (i, r) in s.regions.iter().enumerate() {
        if r.range.last > total_gt {
            return Err(format!(
                "salvage claims commits {} beyond ground truth {total_gt}",
                r.range
            ));
        }
        want.push(r.range.last);
        if i > 0 || r.range.first != 1 {
            want.push(r.range.first - 1);
        }
        // Decoded events must match ground truth exactly on the range.
        let slice = &gt_events[(r.range.first - 1) as usize..r.range.last as usize];
        if r.events != slice {
            return Err(format!(
                "recovered events diverge from ground truth on commits {}",
                r.range
            ));
        }
    }
    // Coverage: recovered ∪ lost must account for every commit.
    let mut covered = 0u64;
    for r in &s.report.recovered {
        covered += r.len();
    }
    for l in &s.report.lost {
        if let Some(last) = l.last {
            covered += last - l.first + 1;
        }
    }
    if let Some(total) = s.report.total_commits {
        if covered != total {
            return Err(format!(
                "report covers {covered} of {total} commits (recovered + lost must partition)"
            ));
        }
    }
    let states = pristine_states(gt, &want)?;
    let mut verified = 0u64;
    for (i, r) in s.regions.iter().enumerate() {
        let end_state = states
            .get(&r.range.last)
            .ok_or("missing ground-truth state")?;
        let reached = if i == 0 && r.range.first == 1 {
            let src = RecoveringSource::prefix(s).ok_or("salvage lost its prefix region")?;
            let insp = ReplayInspector::from_source(src).map_err(|e| e.to_string())?;
            step_exactly(insp, r.range.len())?
        } else {
            let ck = IntervalCheckpoint {
                workload: gt.recording.meta.workload,
                app_seed: gt.recording.meta.app_seed,
                n_procs: gt.recording.meta.n_procs,
                gcc: r.range.first - 1,
                state: states
                    .get(&(r.range.first - 1))
                    .ok_or("missing ground-truth checkpoint state")?
                    .clone(),
            };
            let src = RecoveringSource::resume(s, i, &ck)?;
            let insp = ReplayInspector::from_source(src).map_err(|e| e.to_string())?;
            step_exactly(insp, r.range.len())?
        };
        if &reached != end_state {
            return Err(format!(
                "replay of recovered commits {} reached a different architectural state",
                r.range
            ));
        }
        verified += r.range.len();
    }
    Ok(format!(
        "replayed {verified} recovered commits bit-exactly; {} region(s), {} lost range(s), {} quarantined",
        s.regions.len(),
        s.report.lost.len(),
        s.report.quarantined.len()
    ))
}

/// Runs one byte-image fault scenario.
fn byte_scenario(
    gt: &GroundTruth,
    class: FaultClass,
    scen_seed: u64,
) -> (bool, String, String, Option<String>) {
    let lay = match layout(&gt.pristine) {
        Ok(l) => l,
        Err(e) => {
            return (
                false,
                format!("pristine layout failed: {e}"),
                String::new(),
                None,
            )
        }
    };
    let plan = crate::plan::plan_for(class, scen_seed, &lay, gt.pristine.len() as u64);
    let damaged = apply_to_bytes(&plan, &gt.pristine);
    let rendered = plan.render();
    match salvage(&damaged) {
        Err(e) => {
            if class == FaultClass::CorruptHeader {
                (
                    true,
                    format!("structured failure as required: {e}"),
                    rendered,
                    None,
                )
            } else {
                (
                    false,
                    format!("salvage refused a recoverable stream: {e}"),
                    rendered,
                    None,
                )
            }
        }
        Ok(s) => {
            let json = s.report.to_json();
            if class == FaultClass::CorruptHeader {
                return (
                    false,
                    "header corruption went undetected".to_string(),
                    rendered,
                    Some(json),
                );
            }
            match verify_regions(gt, &s) {
                Ok(detail) => (true, detail, rendered, Some(json)),
                Err(e) => (false, e, rendered, Some(json)),
            }
        }
    }
}

/// Runs one sink-layer fault scenario (torn or transient writes during
/// a live recording).
fn sink_scenario(
    cfg: &CrashtestConfig,
    gt: &GroundTruth,
    mode: Mode,
    w: &WorkloadSpec,
    app_seed: u64,
    class: FaultClass,
    scen_seed: u64,
) -> (bool, String, String, Option<String>) {
    let mut rng = SmallRng::seed_from_u64(scen_seed);
    let machine = machine_for(cfg, mode);
    let buf = SharedBuf::default();
    if class == FaultClass::TransientWrite {
        // Behind the bounded-retry layer a transient error must be
        // absorbed completely: the stream comes out byte-identical.
        let plan = FaultPlan {
            seed: scen_seed,
            ops: vec![FaultOp::TransientWrite {
                at: rng.gen_range(1u64..6),
            }],
        };
        let rendered = plan.render();
        let writer = RetryWriter::new(
            FaultySink::new(buf.clone(), &plan),
            CountingClock::default(),
            5,
        );
        let mut sink = FileSink::with_flush_every(writer, FLUSH_EVERY);
        machine.record_to(w, app_seed, &mut sink);
        let retries = match sink.into_inner() {
            Ok(writer) => writer.retries(),
            Err(e) => {
                return (
                    false,
                    format!("retry layer failed to absorb transient error: {e}"),
                    rendered,
                    None,
                )
            }
        };
        let damaged = buf.take();
        if damaged != gt.pristine {
            return (
                false,
                "retried stream is not byte-identical to the pristine one".to_string(),
                rendered,
                None,
            );
        }
        return (
            true,
            format!("transient write absorbed after {retries} retries; stream byte-identical"),
            rendered,
            None,
        );
    }
    // Torn write, no retry layer: the sink latches the error; whatever
    // reached the medium must salvage to a verifiable prefix.
    let plan = FaultPlan {
        seed: scen_seed,
        ops: vec![FaultOp::Torn {
            at: rng.gen_range(2u64..8),
            keep: rng.gen_range(1usize..48),
        }],
    };
    let rendered = plan.render();
    let mut sink = FileSink::with_flush_every(FaultySink::new(buf.clone(), &plan), FLUSH_EVERY);
    machine.record_to(w, app_seed, &mut sink);
    drop(sink);
    let damaged = buf.take();
    match salvage(&damaged) {
        Err(e) => (
            false,
            format!("torn stream unsalvageable: {e}"),
            rendered,
            None,
        ),
        Ok(s) => {
            let json = s.report.to_json();
            match verify_regions(gt, &s) {
                Ok(detail) => (true, detail, rendered, Some(json)),
                Err(e) => (false, e, rendered, Some(json)),
            }
        }
    }
}

/// Runs one substrate-layer fault scenario: the execution itself is
/// perturbed (squash storms, forced truncations, device bursts), and
/// the recording must still replay deterministically — including
/// through the salvage path.
fn substrate_scenario(
    cfg: &CrashtestConfig,
    mode: Mode,
    w: &WorkloadSpec,
    app_seed: u64,
    class: FaultClass,
    scen_seed: u64,
) -> (bool, String, String, Option<String>) {
    let faults = match class {
        FaultClass::SubstrateStorm => SubstrateFaultConfig {
            seed: scen_seed,
            storm_period: 400,
            force_truncate_prob: 0.05,
            device_burst: 1,
            overflow_boost: 0.2,
        },
        _ => SubstrateFaultConfig {
            seed: scen_seed,
            storm_period: 0,
            force_truncate_prob: 0.0,
            device_burst: 8,
            overflow_boost: 0.0,
        },
    };
    let mut b = Machine::builder();
    b.mode(mode)
        .procs(cfg.procs)
        .budget(cfg.budget)
        .chunk_size(cfg.chunk_size)
        .devices(DeviceConfig {
            irq_period: 700,
            dma_period: 1_300,
            dma_words: 8,
        })
        .substrate_faults(faults);
    let machine = b.build();
    let recording = machine.record(w, app_seed);
    let direct = match machine.replay(&recording) {
        Ok(r) => r,
        Err(e) => {
            return (
                false,
                format!("replay rejected logs: {e}"),
                String::new(),
                None,
            )
        }
    };
    if !direct.deterministic {
        return (
            false,
            format!(
                "replay diverged under substrate faults: {}",
                direct.divergence.unwrap_or_default()
            ),
            String::new(),
            None,
        );
    }
    // The perturbed recording must also survive the salvage path.
    let bytes = serialize::to_bytes(&recording);
    let s = match salvage(&bytes) {
        Ok(s) => s,
        Err(e) => {
            return (
                false,
                format!("perturbed stream unsalvageable: {e}"),
                String::new(),
                None,
            )
        }
    };
    let json = s.report.to_json();
    if !s.report.is_intact() {
        return (
            false,
            "perturbed stream did not salvage losslessly".to_string(),
            String::new(),
            Some(json),
        );
    }
    let Some(src) = RecoveringSource::prefix(&s) else {
        return (
            false,
            "salvage lost its prefix region".to_string(),
            String::new(),
            Some(json),
        );
    };
    match machine.replay_from_with_seed(src, REPLAY_SEED) {
        Ok(r) if r.deterministic => (
            true,
            format!(
                "{} commits ({} squashes) replayed deterministically through salvage",
                recording.stats.total_commits, recording.stats.squashes
            ),
            String::new(),
            Some(json),
        ),
        Ok(r) => (
            false,
            format!(
                "salvaged replay diverged: {}",
                r.divergence.unwrap_or_default()
            ),
            String::new(),
            Some(json),
        ),
        Err(e) => (
            false,
            format!("salvaged replay rejected: {e}"),
            String::new(),
            Some(json),
        ),
    }
}

/// Runs the full crashtest matrix: every configured workload × every
/// mode × every fault class.
///
/// # Errors
///
/// Returns a description when the matrix cannot even be set up (an
/// unknown workload name, or a pristine recording that fails to
/// decode) — scenario-level violations are reported per scenario, not
/// as errors.
pub fn run_crashtest(cfg: &CrashtestConfig) -> Result<CrashtestReport, String> {
    let mut scenarios = Vec::new();
    for (wi, name) in cfg.workloads.iter().enumerate() {
        let w = workload::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
        let app_seed = mix(cfg.seed, 0xa99_5eed ^ wi as u64);
        for (mi, mode) in Mode::all().into_iter().enumerate() {
            let gt = record_pristine(cfg, mode, w, app_seed)?;
            for (ci, class) in FaultClass::all().into_iter().enumerate() {
                let scen_seed = mix(
                    cfg.seed,
                    (wi as u64) << 40 | (mi as u64) << 32 | (ci as u64) << 24 | 0x5ca1ab1e,
                );
                let (passed, detail, plan, report) = match class {
                    FaultClass::None => {
                        // Control arm: lossless salvage must replay
                        // through the real engine.
                        match RecoveringSource::prefix(&gt.salvage) {
                            None => (
                                false,
                                "intact salvage lost its prefix".to_string(),
                                String::new(),
                                None,
                            ),
                            Some(src) => match gt.machine.replay_from_with_seed(src, REPLAY_SEED) {
                                Ok(r) if r.deterministic => (
                                    true,
                                    format!(
                                        "intact stream: {} commits replayed deterministically",
                                        gt.recording.stats.total_commits
                                    ),
                                    String::new(),
                                    Some(gt.salvage.report.to_json()),
                                ),
                                Ok(r) => (
                                    false,
                                    format!(
                                        "control replay diverged: {}",
                                        r.divergence.unwrap_or_default()
                                    ),
                                    String::new(),
                                    None,
                                ),
                                Err(e) => (
                                    false,
                                    format!("control replay rejected: {e}"),
                                    String::new(),
                                    None,
                                ),
                            },
                        }
                    }
                    FaultClass::BitFlipBody
                    | FaultClass::TruncateTail
                    | FaultClass::DuplicateSegment
                    | FaultClass::GarbageBurst
                    | FaultClass::CorruptHeader => byte_scenario(&gt, class, scen_seed),
                    FaultClass::TornWrite | FaultClass::TransientWrite => {
                        sink_scenario(cfg, &gt, mode, w, app_seed, class, scen_seed)
                    }
                    FaultClass::SubstrateStorm | FaultClass::DeviceBurst => {
                        substrate_scenario(cfg, mode, w, app_seed, class, scen_seed)
                    }
                };
                scenarios.push(ScenarioOutcome {
                    name: format!("{name}/{mode}/{}", class.name()),
                    passed,
                    detail,
                    plan,
                    report,
                });
            }
        }
    }
    Ok(CrashtestReport {
        seed: cfg.seed,
        scenarios,
    })
}
