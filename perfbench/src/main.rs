//! Record, replay and checkpoint-seek benchmark over ~10^4-commit
//! DeLorean logs, timed end to end and layer by layer.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fft-warm8 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each workload is one machine configuration. A set-up records a
//! reference `.dlrn` log, builds its `.dlrnx` checkpoint index, and
//! derives the seek targets and their ground-truth states. A run then
//! repeats the user's pipeline (`record` → `replay` → `checkpoint` →
//! `inspect --at`) until `--seconds` have passed, checking every output
//! against the reference, and sets the workload up again every
//! [`SETUP_EVERY`] passes to check that set-up is deterministic.
//!
//! The last line of stdout is one JSON object. With `--trace 0` its
//! metrics are the end-to-end times; with `--trace 1` the loop instead
//! calls each layer on its own and reports per-layer times and counts.
//! Host times only: simulated statistics are checked, not reported.
//!
//! Every timed operation is deterministic work, so host noise only ever
//! adds to its time. On a shared host that noise comes in phases longer
//! than a pass, which move a run's median by tens of percent; a time is
//! therefore reported as the fastest decile of its passes, which tracks
//! the work itself. Set-up time, sampled across the run, is a median.

use delorean::inspect::ReplayInspector;
use delorean::{
    index_stream, serialize, ArbiterConfig, CheckpointIndex, FileSink, FileSource,
    IntervalCheckpoint, Machine, Mode, ReplayCursor, SegmentWalker, WalkedSegment, WorkloadSpec,
};
use delorean_chunk::BulkScHooks;
use delorean_isa::layout::AddressMap;
use delorean_isa::workload;
use delorean_sim::{ConsistencyModel, Executor, MachineConfig, RunSpec};
use std::collections::BTreeMap;
use std::io::Cursor;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Passes between two timed set-ups.
const SETUP_EVERY: u64 = 4;
/// Seek targets per log, one per stratum of the commit range. Warm
/// indexes checkpoint once per stratum, so every seed seeks the same
/// set of distances past a checkpoint.
const STRATA: u64 = 16;
/// Instructions per chunk; with `procs` and `budget` it sets the log
/// length to ~10^4 commits.
const CHUNK: u32 = 200;

/// One benchmarked machine configuration.
struct Workload {
    name: &'static str,
    why: &'static str,
    app: &'static str,
    procs: u32,
    /// Instructions per processor.
    budget: u64,
    arbiter: ArbiterConfig,
    /// Whether the `.dlrnx` index holds a checkpoint per stratum; without
    /// them it holds only commit 0 and every seek rolls forward from
    /// the start of the log.
    warm: bool,
}

/// Each workload bypasses the other's mechanism: the warm one seeks via
/// interior checkpoints on the global arbiter, the cold one rolls every
/// seek forward from commit 0 on a sharded arbiter with twice the cores.
const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fft-warm8",
        why: "SPLASH fft on 8 cores, global arbiter; the .dlrnx holds 16 checkpoints, so each seek restores one and rolls forward briefly",
        app: "fft",
        procs: 8,
        budget: 250_000,
        arbiter: ArbiterConfig::Global,
        warm: true,
    },
    Workload {
        name: "radix-cold16",
        why: "write-heavy radix on 16 cores, 4-shard arbiter; the .dlrnx holds only commit 0, so every seek bypasses checkpoints",
        app: "radix",
        procs: 16,
        budget: 125_000,
        arbiter: ArbiterConfig::Sharded { shards: 4 },
        warm: false,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value} (one of {names:?})"))?,
                );
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The `q`-quantile by nearest rank.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    v.get(rank - 1).copied().unwrap_or(f64::NAN)
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Everything a run measures against: the reference log and index plus
/// the ground truth for every seek.
struct Fixture {
    machine: Machine,
    spec: &'static WorkloadSpec,
    bytes: Vec<u8>,
    fingerprint: u64,
    commits: u64,
    interval: u64,
    index_bytes: Vec<u8>,
    targets: Vec<u64>,
    /// Checkpoint id at every target and at `restore_at`.
    truth: BTreeMap<u64, u64>,
    /// A commit the index holds a checkpoint for: seeking there restores
    /// without rolling forward.
    restore_at: u64,
    checkpoints: usize,
    /// Mean commits a seek rolls forward past its checkpoint.
    rollforward: f64,
}

impl Fixture {
    fn same_as(&self, other: &Fixture) -> bool {
        self.bytes == other.bytes
            && self.index_bytes == other.index_bytes
            && self.truth == other.truth
    }
}

fn build_machine(wl: &Workload, seed: u64) -> Machine {
    let mut b = Machine::builder();
    b.mode(Mode::OrderOnly)
        .procs(wl.procs)
        .budget(wl.budget)
        .chunk_size(CHUNK)
        .arbiter(wl.arbiter)
        .timing_seed(splitmix64(seed ^ 0x7469_6d65));
    b.build()
}

/// `delorean-rr record`: the log streamed through a `FileSink`.
fn record(
    machine: &Machine,
    spec: &WorkloadSpec,
    seed: u64,
) -> Result<(Vec<u8>, u64, u64), String> {
    let mut sink = FileSink::new(Vec::new());
    let stats = machine.record_to(spec, seed, &mut sink);
    let bytes = sink.into_inner().map_err(|e| format!("record: {e}"))?;
    Ok((bytes, stats.total_commits, stats.digest.fingerprint()))
}

/// `delorean-rr replay`: decode on demand and re-execute; returns the
/// replayed digest fingerprint.
fn replay(machine: &Machine, bytes: &[u8]) -> Result<u64, String> {
    let src = FileSource::open(bytes).map_err(|e| format!("replay: {e}"))?;
    let report = machine
        .replay_from(src)
        .map_err(|e| format!("replay: {e}"))?;
    if !report.deterministic {
        return Err(format!("replay diverged: {:?}", report.divergence));
    }
    Ok(report.stats.digest.fingerprint())
}

/// `delorean-rr checkpoint`: one indexing replay, then the `.dlrnx` bytes.
fn build_index(bytes: &[u8], interval: u64) -> Result<Vec<u8>, String> {
    index_stream(bytes, interval)
        .map(|index| index.to_bytes())
        .map_err(|e| format!("index: {e}"))
}

/// Decodes every segment of a `.dlrn` stream; returns the number of
/// event segments and the trailer's commit count.
fn decode(bytes: &[u8]) -> Result<(u64, u64), String> {
    let mut w = SegmentWalker::open(bytes).map_err(|e| format!("decode: {e}"))?;
    let (mut segments, mut commits) = (0, None);
    loop {
        match w.next_segment().map_err(|e| format!("decode: {e}"))? {
            WalkedSegment::Events(_) => segments += 1,
            WalkedSegment::Trailer(t) => commits = Some(t.stats.total_commits),
            WalkedSegment::End => {
                return commits
                    .map(|c| (segments, c))
                    .ok_or_else(|| "decode: no trailer".to_string())
            }
        }
    }
}

/// One target per stratum of `[1, commits]`. Target `i` sits inside
/// stratum `i` at the midpoint of sub-stratum `order[i]`, where `order`
/// is a seeded permutation: the seed moves targets between strata, not
/// their distances past the stratum start.
fn seek_targets(commits: u64, seed: u64) -> Vec<u64> {
    let width = commits.div_ceil(STRATA).max(1);
    let mut order: Vec<u64> = (0..STRATA).collect();
    let mut s = seed;
    for i in (1..order.len()).rev() {
        s = splitmix64(s);
        order.swap(i, (s % (i as u64 + 1)) as usize);
    }
    (0..STRATA)
        .map(|i| (i * width + (2 * order[i as usize] + 1) * width / (2 * STRATA)).clamp(1, commits))
        .collect()
}

/// Ground truth by one software walk from commit 0: the checkpoint id
/// at each of `points`.
fn truth_ids(
    bytes: &[u8],
    spec: &WorkloadSpec,
    seed: u64,
    procs: u32,
    points: &[u64],
) -> Result<BTreeMap<u64, u64>, String> {
    let src = FileSource::open(bytes).map_err(|e| format!("truth: {e}"))?;
    let mut ins = ReplayInspector::from_source(src).map_err(|e| format!("truth: {e}"))?;
    let mut want: Vec<u64> = points.to_vec();
    want.sort_unstable();
    want.dedup();
    let mut out = BTreeMap::new();
    for gcc in want {
        while ins.gcc() < gcc {
            match ins.step() {
                Ok(Some(_)) => {}
                Ok(None) => return Err(format!("truth: log ends before commit {gcc}")),
                Err(e) => return Err(format!("truth: {e}")),
            }
        }
        let ck = IntervalCheckpoint {
            workload: *spec,
            app_seed: seed,
            n_procs: procs,
            gcc,
            state: ins.capture(),
        };
        out.insert(gcc, ck.id());
    }
    Ok(out)
}

fn open_cursor<'a>(
    bytes: &'a [u8],
    index_bytes: &[u8],
) -> Result<ReplayCursor<Cursor<&'a [u8]>>, String> {
    let index = CheckpointIndex::from_bytes(index_bytes).map_err(|e| format!("dlrnx: {e}"))?;
    ReplayCursor::open(Cursor::new(bytes), index).map_err(|e| format!("cursor: {e}"))
}

/// `delorean-rr inspect --at N`, checked against the ground truth.
fn seek<R: std::io::Read + std::io::Seek>(
    fx: &Fixture,
    cursor: &mut ReplayCursor<R>,
    gcc: u64,
) -> Result<(), String> {
    let ck = fx
        .machine
        .state_at(cursor, gcc)
        .map_err(|e| format!("seek to {gcc}: {e}"))?;
    if fx.truth.get(&gcc) != Some(&ck.id()) {
        return Err(format!(
            "seek to {gcc}: state differs from a walk from commit 0"
        ));
    }
    Ok(())
}

fn setup(wl: &Workload, seed: u64) -> Result<Fixture, String> {
    let spec = workload::by_name(wl.app).ok_or_else(|| format!("unknown app {}", wl.app))?;
    let machine = build_machine(wl, seed);
    let (bytes, commits, fingerprint) = record(&machine, spec, seed)?;
    let targets = seek_targets(commits, seed);
    let interval = if wl.warm {
        commits.div_ceil(STRATA).max(1)
    } else {
        commits + 1
    };
    let index_bytes = build_index(&bytes, interval)?;
    let index = CheckpointIndex::from_bytes(&index_bytes).map_err(|e| format!("dlrnx: {e}"))?;
    let restore_at = index.entries[index.entries.len() / 2].gcc;
    let rollforward = targets
        .iter()
        .map(|&g| (g - index.nearest_at_or_before(g).map_or(0, |e| e.gcc)) as f64)
        .sum::<f64>()
        / targets.len() as f64;
    let mut points = targets.clone();
    points.push(restore_at);
    let truth = truth_ids(&bytes, spec, seed, wl.procs, &points)?;
    Ok(Fixture {
        machine,
        spec,
        bytes,
        fingerprint,
        commits,
        interval,
        index_bytes,
        targets,
        truth,
        restore_at,
        checkpoints: index.entries.len(),
        rollforward,
    })
}

/// Samples per metric, plus the operation tally.
#[derive(Default)]
struct Samples {
    series: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Samples {
    /// Times one checked operation under `name`.
    fn time<T>(&mut self, name: &'static str, op: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let t = Instant::now();
        let out = op();
        let dt = ms_since(t);
        match out {
            Ok(v) => {
                self.series.entry(name).or_default().push(dt);
                Some(v)
            }
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }

    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.fail(what.to_string());
        }
    }

    fn get(&self, name: &str) -> &[f64] {
        self.series.get(name).map_or(&[], Vec::as_slice)
    }

    /// The fastest decile of the samples under `name`.
    fn fast(&self, name: &str) -> f64 {
        quantile(self.get(name), 0.1)
    }
}

/// Seeks every target once and records the sweep's mean seek time under
/// `name`. The mean weighs every distance past a checkpoint equally, so
/// it does not hinge on which target happens to sit at the median.
fn seek_sweep<R: std::io::Read + std::io::Seek>(
    fx: &Fixture,
    cursor: &mut ReplayCursor<R>,
    s: &mut Samples,
    name: &'static str,
) {
    let failed = s.failed;
    let t = Instant::now();
    for &gcc in &fx.targets {
        s.attempted += 1;
        if let Err(e) = seek(fx, cursor, gcc) {
            s.fail(e);
        }
    }
    if s.failed == failed {
        let mean = ms_since(t) / fx.targets.len() as f64;
        s.series.entry(name).or_default().push(mean);
    }
}

/// One pass of the user's pipeline.
fn end_to_end_pass(
    fx: &Fixture,
    seed: u64,
    cursor: &mut ReplayCursor<Cursor<&[u8]>>,
    s: &mut Samples,
) {
    if let Some((bytes, _, _)) = s.time("record_ms", || record(&fx.machine, fx.spec, seed)) {
        s.check(
            bytes == fx.bytes,
            "re-recorded log differs from the reference",
        );
    }
    if let Some(fp) = s.time("replay_ms", || replay(&fx.machine, &fx.bytes)) {
        s.check(
            fp == fx.fingerprint,
            "replay digest differs from the recording's",
        );
    }
    if let Some(ib) = s.time("index_ms", || build_index(&fx.bytes, fx.interval)) {
        s.check(
            ib == fx.index_bytes,
            "rebuilt .dlrnx differs from the reference",
        );
    }
    seek_sweep(fx, cursor, s, "seek_ms");
}

/// One pass over the layers, each called on its own.
fn layer_pass(
    fx: &Fixture,
    wl: &Workload,
    seed: u64,
    cold: &mut ReplayCursor<Cursor<&[u8]>>,
    s: &mut Samples,
) {
    let map = AddressMap::new(wl.procs);
    s.time("gen_ms", || Ok(fx.spec.programs(wl.procs, &map, seed)));
    s.time("vm_cache_ms", || {
        let machine = MachineConfig::with_procs(wl.procs).map_err(|e| e.to_string())?;
        let run = RunSpec::new(*fx.spec, wl.procs, seed, wl.budget).map_err(|e| e.to_string())?;
        Ok(Executor::new(ConsistencyModel::Rc)
            .with_machine(machine)
            .run(&run))
    });
    s.time("chunk_engine_ms", || {
        let run = RunSpec::new(*fx.spec, wl.procs, seed, wl.budget).map_err(|e| e.to_string())?;
        Ok(delorean_chunk::run(
            &run,
            &fx.machine.recording_config(fx.spec),
            &mut BulkScHooks,
        ))
    });
    let Some(rec) = s.time("record_mem_ms", || Ok(fx.machine.record(fx.spec, seed))) else {
        return;
    };
    s.check(
        rec.digest().fingerprint() == fx.fingerprint,
        "in-memory recording digest differs from the streamed one",
    );
    s.series
        .entry("squashes")
        .or_default()
        .push(rec.stats.squashes as f64);
    let encoded = s.time("encode_ms", || Ok(serialize::to_bytes(&rec)));
    if let Some((segments, commits)) = s.time("decode_ms", || decode(&fx.bytes)) {
        s.check(
            commits == fx.commits,
            "decoded trailer disagrees on the commit count",
        );
        s.series
            .entry("segments")
            .or_default()
            .push(segments as f64);
        // A stream rebuilt from an in-memory recording carries no shard
        // stamps, so it can differ from the recorded log byte for byte;
        // it must still decode to the same segments and commits.
        if let Some(bytes) = encoded {
            s.check(
                decode(&bytes) == Ok((segments, commits)),
                "encoded recording decodes unlike the streamed log",
            );
        }
    }
    if let Some(r) = s.time("replay_mem_ms", || {
        fx.machine.replay(&rec).map_err(|e| format!("replay: {e}"))
    }) {
        s.check(r.deterministic, "in-memory replay diverged");
    }
    if let Some(r) = s.time("inspect_ms", || {
        let src = FileSource::open(&fx.bytes[..]).map_err(|e| format!("inspect: {e}"))?;
        ReplayInspector::from_source(src)
            .and_then(|mut ins| ins.run_to_end())
            .map_err(|e| format!("inspect: {e}"))
    }) {
        s.check(
            r.matches_recording && r.commits == fx.commits,
            "inspector walk disagrees with the recording",
        );
    }
    let Some(index) = s.time("dlrnx_decode_ms", || {
        CheckpointIndex::from_bytes(&fx.index_bytes).map_err(|e| format!("dlrnx: {e}"))
    }) else {
        return;
    };
    if let Some(ib) = s.time("dlrnx_encode_ms", || Ok(index.to_bytes())) {
        s.check(ib == fx.index_bytes, "re-encoded .dlrnx differs");
    }
    let Some(mut cursor) = s.time("cursor_open_ms", || {
        ReplayCursor::open(Cursor::new(&fx.bytes[..]), index.clone())
            .map_err(|e| format!("cursor: {e}"))
    }) else {
        return;
    };
    s.time("restore_ms", || seek(fx, &mut cursor, fx.restore_at));
    seek_sweep(fx, cold, s, "cold_seek_ms");
}

/// Peak resident set of this process, in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("rss: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "rss: no VmHWM in /proc/self/status".to_string())
}

fn timed_setup(wl: &Workload, seed: u64, setup_s: &mut Vec<f64>) -> Result<Fixture, String> {
    let t = Instant::now();
    let fx = setup(wl, seed)?;
    setup_s.push(t.elapsed().as_secs_f64());
    Ok(fx)
}

/// A reported metric: name, value and unit.
type Metric = (&'static str, f64, &'static str);

fn run(args: &Args) -> Result<(Samples, Vec<Metric>), String> {
    let wl = args.workload;
    let mut setup_s = Vec::new();
    let fx = timed_setup(wl, args.seed, &mut setup_s)?;
    let mut cursor = open_cursor(&fx.bytes, &fx.index_bytes)?;
    let cold_index = if wl.warm {
        build_index(&fx.bytes, fx.commits + 1)?
    } else {
        fx.index_bytes.clone()
    };
    let mut cold = open_cursor(&fx.bytes, &cold_index)?;
    // Verifies every segment checksum once, so timed seeks measure a
    // cursor that has been in use, as in a debugging session.
    for &gcc in &fx.targets {
        seek(&fx, &mut cursor, gcc)?;
        seek(&fx, &mut cold, gcc)?;
    }

    let mut s = Samples::default();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut passes = 0u64;
    while passes == 0 || Instant::now() < deadline {
        if args.trace {
            layer_pass(&fx, wl, args.seed, &mut cold, &mut s);
        } else {
            end_to_end_pass(&fx, args.seed, &mut cursor, &mut s);
            if passes % SETUP_EVERY == SETUP_EVERY - 1 {
                s.attempted += 1;
                match timed_setup(wl, args.seed, &mut setup_s) {
                    Ok(again) => s.check(again.same_as(&fx), "set-ups of the same seed disagree"),
                    Err(e) => s.fail(e),
                }
            }
        }
        passes += 1;
    }
    eprintln!(
        "{}: seed {}, {} commits, {} bytes, .dlrnx {} bytes, {} passes, {} set-ups in {} s",
        wl.name,
        args.seed,
        fx.commits,
        fx.bytes.len(),
        fx.index_bytes.len(),
        passes,
        setup_s.len(),
        args.seconds
    );

    let mut metrics: Vec<Metric> = Vec::new();
    if args.trace {
        for name in [
            "gen_ms",
            "vm_cache_ms",
            "chunk_engine_ms",
            "record_mem_ms",
            "encode_ms",
            "decode_ms",
            "replay_mem_ms",
            "inspect_ms",
            "dlrnx_decode_ms",
            "dlrnx_encode_ms",
            "cursor_open_ms",
            "restore_ms",
            "cold_seek_ms",
        ] {
            metrics.push((name, s.fast(name), "ms"));
        }
        metrics.push(("squashes", median(s.get("squashes")), "count"));
        metrics.push(("segments", median(s.get("segments")), "count"));
        metrics.push(("dlrn_kib", fx.bytes.len() as f64 / 1024.0, "KiB"));
        metrics.push((
            "dlrnx_kib_per_checkpoint",
            fx.index_bytes.len() as f64 / 1024.0 / fx.checkpoints as f64,
            "KiB",
        ));
        metrics.push(("rollforward_commits", fx.rollforward, "count"));
    } else {
        for name in ["record_ms", "replay_ms", "index_ms", "seek_ms"] {
            metrics.push((name, s.fast(name), "ms"));
        }
        metrics.push(("peak_rss_mib", peak_rss_mb()?, "MiB"));
        metrics.push(("setup_s", median(&setup_s), "s"));
    }
    s.series.insert("setup_s", setup_s);
    for (name, xs) in &s.series {
        eprintln!(
            "  {name:<18} n={:<4} min {:>10.3}  p10 {:>10.3}  median {:>10.3}  max {:>10.3}",
            xs.len(),
            quantile(xs, 0.0),
            quantile(xs, 0.1),
            median(xs),
            quantile(xs, 1.0)
        );
    }
    Ok((s, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            for w in WORKLOADS {
                eprintln!("  {:<16} {}", w.name, w.why);
            }
            return ExitCode::from(2);
        }
    };
    let (s, metrics) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &s.errors {
        eprintln!("check failed: {e}");
    }
    let all_finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = s.failed == 0 && all_finite;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        s.attempted,
        s.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
