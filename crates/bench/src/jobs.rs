//! The sweep's job model: every figure/table point of the paper's
//! evaluation as an independent, deterministic unit of work.
//!
//! A [`JobSpec`] fully determines its [`BenchRecord`]: all simulator
//! state is per-job and the job's seed is derived from its *identity*
//! (figure/workload/mode/chunk/procs), not from its position in the
//! sweep or the worker that runs it. Consequences:
//!
//! * results are byte-identical at any `--jobs` value, and
//! * a `--figure figNN` subset reproduces exactly the records the full
//!   sweep produces for that figure — which is what lets CI regenerate
//!   one figure and diff it against a full-sweep baseline.

use crate::record::{peak_rss_kb, BenchRecord, StageTimings};
use delorean::{serialize, Fnv, Machine, Mode, Recording};
use delorean_analyze::{deps_from_bytes, DepsOptions};
use delorean_baselines::{run_baseline, FdrRecorder, RtrRecorder, StrataRecorder};
use delorean_chunk::{run as chunk_run, ArbiterConfig, BulkScHooks, EngineConfig, RunStats};
use delorean_isa::workload;
use delorean_sim::{ConsistencyModel, Executor, MachineConfig, RunSpec};
use std::time::Instant;

/// The figures and tables the sweep regenerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Figure {
    /// OrderOnly PI+CS log size vs chunk size.
    Fig06,
    /// PicoLog CS-only log size.
    Fig07,
    /// Order&Size log size.
    Fig08,
    /// Stratified PI log size.
    Fig09,
    /// Initial-execution performance of every mode.
    Fig10,
    /// Execution vs replay performance.
    Fig11,
    /// PicoLog sensitivity to processors and chunk size.
    Fig12,
    /// Cross-scheme comparison (FDR / RTR / Strata vs DeLorean).
    Tab01,
    /// PicoLog commit-token characterization.
    Tab06,
    /// Core-count scaling study: log size and squash rate vs
    /// {8..256} processors, global vs sharded arbiter.
    Scale,
    /// Replay-parallelism characterization: available speedup and
    /// signature-aliasing noise from the chunk dependence DAG.
    Deps,
}

impl Figure {
    /// All figures, in sweep order.
    pub const ALL: [Figure; 11] = [
        Figure::Fig06,
        Figure::Fig07,
        Figure::Fig08,
        Figure::Fig09,
        Figure::Fig10,
        Figure::Fig11,
        Figure::Fig12,
        Figure::Tab01,
        Figure::Tab06,
        Figure::Scale,
        Figure::Deps,
    ];

    /// The id used in job identities, JSON and `--figure` arguments.
    pub fn as_str(self) -> &'static str {
        match self {
            Figure::Fig06 => "fig06",
            Figure::Fig07 => "fig07",
            Figure::Fig08 => "fig08",
            Figure::Fig09 => "fig09",
            Figure::Fig10 => "fig10",
            Figure::Fig11 => "fig11",
            Figure::Fig12 => "fig12",
            Figure::Tab01 => "tab01",
            Figure::Tab06 => "tab06",
            Figure::Scale => "scale",
            Figure::Deps => "deps",
        }
    }

    /// Parses a `--figure` argument.
    pub fn parse(name: &str) -> Option<Figure> {
        Figure::ALL
            .into_iter()
            .find(|f| f.as_str() == name.to_ascii_lowercase())
    }
}

impl std::fmt::Display for Figure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Release-consistency substrate baseline (the speedup
    /// denominator).
    Rc,
    /// Sequential-consistency substrate baseline.
    Sc,
    /// Chunked execution without logging (BulkSC).
    BulkSc,
    /// Record in a DeLorean mode and measure the logs.
    Record(Mode),
    /// Record, then fan out perturbed verification replays; with
    /// `stratify` the replays are driven by a stratified PI log of the
    /// given capacity.
    RecordReplay {
        /// Recording mode.
        mode: Mode,
        /// Chunks/proc/stratum for stratified replay, if any.
        stratify: Option<u32>,
        /// Number of perturbed replays.
        replays: u32,
    },
    /// Record OrderOnly and measure the stratified PI log at the given
    /// capacity against the plain log.
    Stratify(u32),
    /// FDR baseline recorder.
    Fdr,
    /// Basic RTR baseline recorder.
    Rtr,
    /// Strata baseline recorder.
    Strata,
}

impl JobKind {
    /// Stable label used in identities and the record's `mode` field.
    pub fn label(self) -> String {
        match self {
            JobKind::Rc => "rc".into(),
            JobKind::Sc => "sc".into(),
            JobKind::BulkSc => "bulksc".into(),
            JobKind::Record(m)
            | JobKind::RecordReplay {
                mode: m,
                stratify: None,
                ..
            } => mode_label(m).into(),
            JobKind::RecordReplay {
                mode,
                stratify: Some(cap),
                ..
            } => format!("{}+strat{cap}", mode_label(mode)),
            JobKind::Stratify(cap) => format!("orderonly/strat{cap}"),
            JobKind::Fdr => "fdr".into(),
            JobKind::Rtr => "rtr".into(),
            JobKind::Strata => "strata".into(),
        }
    }
}

fn mode_label(m: Mode) -> &'static str {
    match m {
        Mode::OrderSize => "ordersize",
        Mode::OrderOnly => "orderonly",
        Mode::PicoLog => "picolog",
    }
}

/// One independent point of the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Figure/table the point belongs to.
    pub figure: Figure,
    /// Workload name (must exist in the catalog).
    pub workload: String,
    /// What to run.
    pub kind: JobKind,
    /// Processor count.
    pub procs: u32,
    /// Chunk size in instructions; 0 means the mode default (or
    /// unchunked for substrate baselines).
    pub chunk_size: u32,
    /// Simultaneous chunks per processor; 0 means the machine default.
    pub simultaneous: u32,
    /// Retired-instruction budget per processor.
    pub budget: u64,
    /// User-chosen base seed, mixed into the per-job seed.
    pub base_seed: u64,
    /// Commit-arbiter topology the recording runs under.
    pub arbiter: ArbiterConfig,
}

impl JobSpec {
    /// Stable identity:
    /// `figure/workload/label/cCHUNK/pPROCS[/sSIM][/shK]`. The arbiter
    /// suffix appears only for sharded jobs, so every pre-existing id
    /// is unchanged.
    pub fn id(&self) -> String {
        let mut id = format!(
            "{}/{}/{}/c{}/p{}",
            self.figure,
            self.workload,
            self.kind.label(),
            self.chunk_size,
            self.procs
        );
        if self.simultaneous > 0 {
            id.push_str(&format!("/s{}", self.simultaneous));
        }
        if let ArbiterConfig::Sharded { shards } = self.arbiter {
            id.push_str(&format!("/sh{shards}"));
        }
        id
    }

    /// The job's seed: an FNV-1a hash of `figure/workload/pPROCS`,
    /// mixed with the base seed through a splitmix64 finalizer.
    ///
    /// Two deliberate properties:
    ///
    /// * it depends only on identity fields — never on sweep position
    ///   or worker — which is what makes figure-subset runs reproduce
    ///   full-sweep records; and
    /// * it *excludes* the mode, chunk size and arbiter topology, so
    ///   within a figure the RC/SC baselines and every recorded mode —
    ///   and the global vs sharded points of the scaling study —
    ///   execute the identical generated program. Speedup and traffic
    ///   ratios then compare like with like instead of carrying
    ///   cross-program noise.
    pub fn seed(&self) -> u64 {
        let h = Fnv::of(format!("{}/{}/p{}", self.figure, self.workload, self.procs).as_bytes());
        splitmix64(h ^ self.base_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Workloads for the heavyweight fig12 sensitivity sweep: a SPLASH-2
/// subset spanning the regular/irregular and low/high-sharing corners.
const FIG12_APPS: [&str; 4] = ["fft", "lu", "radix", "barnes"];

/// Reduced per-processor budgets per figure; `--full` multiplies by 5.
fn figure_budget(figure: Figure, full: bool, budget_div: u64) -> u64 {
    let base = match figure {
        Figure::Fig06 | Figure::Fig07 | Figure::Fig08 => 20_000,
        Figure::Fig09 => 20_000,
        Figure::Fig10 => 20_000,
        Figure::Fig11 => 15_000,
        Figure::Fig12 => 10_000,
        Figure::Tab01 => 15_000,
        Figure::Tab06 => 20_000,
        // 256-proc points make this figure machine-wide heavy even at a
        // small per-proc budget.
        Figure::Scale => 2_000,
        // The dependence pass replays every recording it makes, so the
        // budget is kept small to bound the sweep's wall time.
        Figure::Deps => 4_000,
    };
    let scaled = if full { base * 5 } else { base };
    // Deliberately no clamp: an over-aggressive divisor yields a zero
    // budget, which the runner rejects with a typed error instead of
    // running a degenerate sweep.
    scaled / budget_div.max(1)
}

/// Enumerates every job of the requested figures.
///
/// `budget_div` scales budgets *down* (for tests and smoke runs);
/// production sweeps use 1. The enumeration order is deterministic:
/// figures in [`Figure::ALL`] order, then workloads in catalog order,
/// then parameters ascending.
pub fn enumerate_jobs(
    figures: &[Figure],
    full: bool,
    base_seed: u64,
    budget_div: u64,
) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    let catalog: Vec<&str> = workload::catalog().iter().map(|w| w.name).collect();
    for &figure in figures {
        let budget = figure_budget(figure, full, budget_div);
        let job = |workload: &str, kind: JobKind, procs: u32, chunk: u32, sim: u32| JobSpec {
            figure,
            workload: workload.to_string(),
            kind,
            procs,
            chunk_size: chunk,
            simultaneous: sim,
            budget,
            base_seed,
            arbiter: ArbiterConfig::Global,
        };
        match figure {
            Figure::Fig06 => {
                for w in &catalog {
                    for chunk in [1_000, 2_000, 3_000] {
                        jobs.push(job(w, JobKind::Record(Mode::OrderOnly), 8, chunk, 0));
                    }
                }
            }
            Figure::Fig07 => {
                for w in &catalog {
                    for chunk in [1_000, 2_000, 3_000] {
                        jobs.push(job(w, JobKind::Record(Mode::PicoLog), 8, chunk, 0));
                    }
                }
            }
            Figure::Fig08 => {
                for w in &catalog {
                    for chunk in [1_000, 2_000, 3_000] {
                        jobs.push(job(w, JobKind::Record(Mode::OrderSize), 8, chunk, 0));
                    }
                }
            }
            Figure::Fig09 => {
                for w in &catalog {
                    for cap in [1, 3, 7] {
                        jobs.push(job(w, JobKind::Stratify(cap), 8, 2_000, 0));
                    }
                }
            }
            Figure::Fig10 => {
                for w in &catalog {
                    jobs.push(job(w, JobKind::Rc, 8, 0, 0));
                    jobs.push(job(w, JobKind::Sc, 8, 0, 0));
                    jobs.push(job(w, JobKind::BulkSc, 8, 2_000, 0));
                    jobs.push(job(w, JobKind::Record(Mode::OrderSize), 8, 2_000, 0));
                    jobs.push(job(w, JobKind::Record(Mode::OrderOnly), 8, 2_000, 0));
                    jobs.push(job(w, JobKind::Record(Mode::PicoLog), 8, 1_000, 0));
                }
            }
            Figure::Fig11 => {
                let replays = if full { 5 } else { 2 };
                for w in &catalog {
                    jobs.push(job(w, JobKind::Rc, 8, 0, 0));
                    jobs.push(job(
                        w,
                        JobKind::RecordReplay {
                            mode: Mode::OrderOnly,
                            stratify: None,
                            replays,
                        },
                        8,
                        2_000,
                        0,
                    ));
                    jobs.push(job(
                        w,
                        JobKind::RecordReplay {
                            mode: Mode::OrderOnly,
                            stratify: Some(1),
                            replays,
                        },
                        8,
                        2_000,
                        0,
                    ));
                    jobs.push(job(
                        w,
                        JobKind::RecordReplay {
                            mode: Mode::PicoLog,
                            stratify: None,
                            replays,
                        },
                        8,
                        1_000,
                        0,
                    ));
                }
            }
            Figure::Fig12 => {
                for w in FIG12_APPS {
                    for procs in [4, 8, 16] {
                        jobs.push(job(w, JobKind::Rc, procs, 0, 0));
                        for chunk in [1_000, 2_000] {
                            jobs.push(job(w, JobKind::Record(Mode::PicoLog), procs, chunk, 4));
                        }
                    }
                }
            }
            Figure::Tab01 => {
                for w in &catalog {
                    jobs.push(job(w, JobKind::Rc, 8, 0, 0));
                    jobs.push(job(w, JobKind::Fdr, 8, 0, 0));
                    jobs.push(job(w, JobKind::Rtr, 8, 0, 0));
                    jobs.push(job(w, JobKind::Strata, 8, 0, 0));
                    jobs.push(job(w, JobKind::Record(Mode::OrderOnly), 8, 2_000, 0));
                    jobs.push(job(w, JobKind::Record(Mode::PicoLog), 8, 1_000, 0));
                }
            }
            Figure::Tab06 => {
                for w in &catalog {
                    jobs.push(job(w, JobKind::Record(Mode::PicoLog), 8, 1_000, 0));
                }
            }
            Figure::Scale => {
                for procs in [8, 16, 64, 128, 256] {
                    for arb in [ArbiterConfig::Global, ArbiterConfig::Sharded { shards: 4 }] {
                        let mut j = job("fft", JobKind::Record(Mode::OrderOnly), procs, 2_000, 0);
                        j.arbiter = arb;
                        jobs.push(j);
                    }
                }
            }
            Figure::Deps => {
                // Small chunks give the dependence DAG enough nodes per
                // processor for the parallelism profile to be meaningful
                // at the reduced budget.
                for w in &catalog {
                    for procs in [4, 8, 16] {
                        jobs.push(job(w, JobKind::Record(Mode::OrderOnly), procs, 500, 0));
                    }
                }
            }
        }
    }
    jobs
}

/// Runs one job to completion.
///
/// The caller (the runner) has already validated the spec; this
/// function does not panic for validated specs. The returned record's
/// deterministic fields depend only on the spec.
pub fn run_job(spec: &JobSpec) -> BenchRecord {
    let t_job = Instant::now();
    let seed = spec.seed();
    // Unknown workloads are rejected by `validate` before any job runs.
    #[allow(clippy::expect_used)]
    let w = workload::by_name(&spec.workload).expect("validated workload");
    // Zero budgets and out-of-range proc counts are also rejected by
    // `validate` before any job runs.
    #[allow(clippy::expect_used)]
    let run_spec = RunSpec::new(*w, spec.procs, seed, spec.budget).expect("validated job spec");

    let mut record = BenchRecord {
        id: spec.id(),
        figure: spec.figure.to_string(),
        workload: spec.workload.clone(),
        mode: spec.kind.label(),
        chunk_size: spec.chunk_size,
        procs: spec.procs,
        budget: spec.budget,
        seed,
        cycles: 0,
        work_units: 0,
        commits: 0,
        traffic_bytes: 0,
        raw_bits_pp_pki: 0.0,
        comp_bits_pp_pki: 0.0,
        replays: 0,
        replay_cycles: 0,
        replay_deterministic: true,
        extra: Vec::new(),
        wall_ms: 0.0,
        peak_rss_kb: 0,
        timings: StageTimings::default(),
    };

    match spec.kind {
        JobKind::Rc | JobKind::Sc => {
            let model = if spec.kind == JobKind::Rc {
                ConsistencyModel::Rc
            } else {
                ConsistencyModel::Sc
            };
            let t = Instant::now();
            // Proc counts were validated alongside the rest of the spec.
            #[allow(clippy::expect_used)]
            let machine = MachineConfig::with_procs(spec.procs).expect("validated job spec");
            let res = Executor::new(model).with_machine(machine).run(&run_spec);
            record.timings.record_ms = ms(t);
            record.cycles = res.cycles;
            record.work_units = res.work_units;
            record.traffic_bytes = res.traffic_bytes;
        }
        JobKind::BulkSc => {
            let mut cfg = EngineConfig::recording(spec.chunk_size.max(1));
            cfg.machine.n_procs = spec.procs;
            let t = Instant::now();
            // Arrival-order grants leave no pending request waiting, so
            // the engine cannot starve.
            #[allow(clippy::expect_used)]
            let stats = chunk_run(&run_spec, &cfg, &mut BulkScHooks)
                .expect("an arrival-order run cannot starve");
            record.timings.record_ms = ms(t);
            absorb_stats(&mut record, &stats);
        }
        JobKind::Record(mode) => {
            let machine = build_machine(spec, mode);
            let t = Instant::now();
            let rec = machine.record(w, seed);
            record.timings.record_ms = ms(t);
            absorb_stats(&mut record, &rec.stats);
            measure_logs(&mut record, &rec);
            if let Some(token) = &rec.stats.token {
                record
                    .extra
                    .push(("proc_ready_pct".into(), token.proc_ready_pct()));
                record
                    .extra
                    .push(("wait_token_cycles".into(), token.avg_wait_token()));
                record
                    .extra
                    .push(("wait_complete_cycles".into(), token.avg_wait_complete()));
                record
                    .extra
                    .push(("token_roundtrip_cycles".into(), token.avg_roundtrip()));
                record
                    .extra
                    .push(("stall_pct".into(), rec.stats.stall_pct()));
                record.extra.push((
                    "avg_parallel_commits".into(),
                    rec.stats.parallel.avg_actual_commit(),
                ));
            }
            if spec.figure == Figure::Scale {
                // The scaling figure compares arbiter backends, so the
                // backend topology and the machine-wide squash pressure
                // ride along as extras (the record schema itself is
                // shared with every other figure and stays fixed).
                let kilo_insts = (rec.total_instructions() as f64 / 1_000.0).max(1.0);
                record.extra.push((
                    "arbiter_shards".into(),
                    f64::from(spec.arbiter.shard_count()),
                ));
                record
                    .extra
                    .push(("squashes".into(), rec.stats.squashes as f64));
                record
                    .extra
                    .push(("squash_rate".into(), rec.stats.squashes as f64 / kilo_insts));
            }
            if spec.figure == Figure::Deps {
                // Characterize the recording just made: serialize it and
                // run the dependence-graph pass, which replays the
                // stream and rebuilds the chunk DAG in both the exact
                // and the signature domain.
                let t = Instant::now();
                let bytes = serialize::to_bytes(&rec);
                let deps = deps_from_bytes(&bytes, &DepsOptions::default());
                record.timings.replay_ms = ms(t);
                record.replay_deterministic = deps.replay_complete;
                record
                    .extra
                    .push(("dep_nodes".into(), deps.nodes.len() as f64));
                record
                    .extra
                    .push(("exact_edges".into(), deps.exact_edges as f64));
                record
                    .extra
                    .push(("aliased_edges".into(), deps.aliased_edges as f64));
                record
                    .extra
                    .push(("aliasing_rate".into(), deps.aliasing_rate));
                record.extra.push((
                    "critical_path_ratio".into(),
                    deps.critical_path as f64 / deps.total_work.max(1) as f64,
                ));
                for &(k, s) in &deps.parallelism {
                    if matches!(k, 8 | 64 | 256) {
                        record.extra.push((format!("speedup_at_{k}"), s));
                    }
                }
                record
                    .extra
                    .push(("max_speedup".into(), deps.max_speedup()));
            }
        }
        JobKind::RecordReplay {
            mode,
            stratify,
            replays,
        } => {
            let machine = build_machine(spec, mode);
            let t = Instant::now();
            let rec = machine.record(w, seed);
            record.timings.record_ms = ms(t);
            absorb_stats(&mut record, &rec.stats);
            measure_logs(&mut record, &rec);
            let seeds: Vec<u64> = (0..u64::from(replays))
                .map(|k| splitmix64(seed ^ (k + 1).wrapping_mul(0x2545_f491_4f6c_dd1d)))
                .collect();
            let t = Instant::now();
            (record.replay_cycles, record.replay_deterministic) =
                replay_verdict(&machine, &rec, stratify, &seeds);
            record.timings.replay_ms = ms(t);
            record.replays = replays;
        }
        JobKind::Stratify(capacity) => {
            let machine = build_machine(spec, Mode::OrderOnly);
            let t = Instant::now();
            let rec = machine.record(w, seed);
            record.timings.record_ms = ms(t);
            absorb_stats(&mut record, &rec.stats);
            let t = Instant::now();
            measure_logs(&mut record, &rec);
            let plain = rec.logs().pi.measure().compressed_bits.max(1);
            // An OrderOnly log stratifies at any positive capacity; a
            // zero capacity records no ratio.
            let strat = rec
                .stratified_pi(capacity)
                .map(|s| s.measure().compressed_bits.max(1));
            record.timings.compress_ms += ms(t);
            if let Ok(strat) = strat {
                record
                    .extra
                    .push(("strat_pi_ratio".into(), strat as f64 / plain as f64));
            }
        }
        JobKind::Fdr | JobKind::Rtr | JobKind::Strata => {
            let t = Instant::now();
            match spec.kind {
                JobKind::Fdr => {
                    let mut rec = FdrRecorder::new(spec.procs);
                    let res = run_baseline(&run_spec, &mut rec);
                    record.timings.record_ms = ms(t);
                    let insts: u64 = res.retired.iter().sum();
                    let t = Instant::now();
                    let size = rec.finish().measure();
                    record.timings.compress_ms = ms(t);
                    record.cycles = res.cycles;
                    record.work_units = res.work_units;
                    record.traffic_bytes = res.traffic_bytes;
                    record.raw_bits_pp_pki = size.bits_per_proc_per_kiloinst(insts, spec.procs);
                    record.comp_bits_pp_pki =
                        size.compressed_bits_per_proc_per_kiloinst(insts, spec.procs);
                }
                JobKind::Rtr => {
                    let mut rec = RtrRecorder::new(spec.procs);
                    let res = run_baseline(&run_spec, &mut rec);
                    record.timings.record_ms = ms(t);
                    let insts: u64 = res.retired.iter().sum();
                    let t = Instant::now();
                    let size = rec.finish().measure();
                    record.timings.compress_ms = ms(t);
                    record.cycles = res.cycles;
                    record.work_units = res.work_units;
                    record.traffic_bytes = res.traffic_bytes;
                    record.raw_bits_pp_pki = size.bits_per_proc_per_kiloinst(insts, spec.procs);
                    record.comp_bits_pp_pki =
                        size.compressed_bits_per_proc_per_kiloinst(insts, spec.procs);
                }
                _ => {
                    let mut rec = StrataRecorder::new(spec.procs, false);
                    let res = run_baseline(&run_spec, &mut rec);
                    record.timings.record_ms = ms(t);
                    let insts: u64 = res.retired.iter().sum();
                    let t = Instant::now();
                    let log = rec.finish();
                    let size = log.measure();
                    record.timings.compress_ms = ms(t);
                    record.cycles = res.cycles;
                    record.work_units = res.work_units;
                    record.traffic_bytes = res.traffic_bytes;
                    record.raw_bits_pp_pki = size.bits_per_proc_per_kiloinst(insts, spec.procs);
                    record.comp_bits_pp_pki =
                        size.compressed_bits_per_proc_per_kiloinst(insts, spec.procs);
                    record
                        .extra
                        .push(("kb_per_million_refs".into(), log.kb_per_million_refs()));
                }
            }
        }
    }

    record.wall_ms = ms(t_job);
    record.peak_rss_kb = peak_rss_kb();
    record
}

/// Builds the machine for a chunk-mode job.
fn build_machine(spec: &JobSpec, mode: Mode) -> Machine {
    let mut b = Machine::builder();
    b.mode(mode)
        .procs(spec.procs)
        .budget(spec.budget)
        .arbiter(spec.arbiter);
    if spec.chunk_size > 0 {
        b.chunk_size(spec.chunk_size);
    }
    if spec.simultaneous > 0 {
        b.simultaneous_chunks(spec.simultaneous);
    }
    b.build()
}

/// Runs the verification replays, stratified when requested, and
/// returns their mean cycle count and whether every one reproduced the
/// recording. A replay that fails counts as non-deterministic, so the
/// flag holds only when every replay ran and matched.
fn replay_verdict(
    machine: &Machine,
    rec: &Recording,
    stratify: Option<u32>,
    seeds: &[u64],
) -> (u64, bool) {
    let reports: Result<Vec<delorean::ReplayReport>, _> = seeds
        .iter()
        .map(|&s| match stratify {
            None => machine.replay_with_seed(rec, s),
            Some(cap) => machine.replay_stratified(rec, cap, s),
        })
        .collect();
    match reports {
        Err(_) => (0, false),
        Ok(r) => (
            r.iter().map(|r| r.stats.cycles).sum::<u64>() / (r.len() as u64).max(1),
            r.iter().all(|r| r.deterministic),
        ),
    }
}

fn absorb_stats(record: &mut BenchRecord, stats: &RunStats) {
    record.cycles = stats.cycles;
    record.work_units = stats.work_units;
    record.commits = stats.total_commits;
    record.traffic_bytes = stats.traffic_bytes;
    record.timings.arb_cycles = stats.stall_cycles.iter().sum::<u64>()
        + stats
            .token
            .as_ref()
            .map_or(0, |t| t.wait_token_cycles + t.wait_complete_cycles);
}

fn measure_logs(record: &mut BenchRecord, rec: &Recording) {
    let t = Instant::now();
    let sizes = rec.memory_ordering_sizes();
    let total = sizes.total();
    let insts = rec.total_instructions();
    let n_procs = rec.meta.n_procs;
    record.raw_bits_pp_pki = total.bits_per_proc_per_kiloinst(insts, n_procs);
    record.comp_bits_pp_pki = total.compressed_bits_per_proc_per_kiloinst(insts, n_procs);
    record.extra.push((
        "pi_bits_pp_pki".into(),
        sizes
            .pi
            .compressed_bits_per_proc_per_kiloinst(insts, n_procs),
    ));
    record.extra.push((
        "cs_bits_pp_pki".into(),
        sizes
            .cs
            .compressed_bits_per_proc_per_kiloinst(insts, n_procs),
    ));
    // The paper's Section 6.1 headline: compressed log production in
    // GB/day on a 5 GHz, IPC-1 machine.
    record.extra.push((
        "gb_per_day".into(),
        total.gigabytes_per_day(insts, n_procs, 5.0, 1.0),
    ));
    record.timings.compress_ms = ms(t);
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1_000.0
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn a_replay_that_errors_is_not_deterministic() {
        let w = workload::by_name("fft").unwrap();
        let recorder = Machine::builder().procs(2).budget(2_000).build();
        let rec = recorder.record(w, 7);
        assert!(replay_verdict(&recorder, &rec, None, &[1, 2]).1);
        assert!(replay_verdict(&recorder, &rec, Some(4), &[1, 2]).1);
        let wrong = Machine::builder().procs(3).budget(2_000).build();
        for stratify in [None, Some(4)] {
            assert_eq!(
                replay_verdict(&wrong, &rec, stratify, &[1, 2]),
                (0, false),
                "stratify {stratify:?}: a failed replay counted as deterministic"
            );
        }
    }

    #[test]
    fn figure_ids_round_trip() {
        for f in Figure::ALL {
            assert_eq!(Figure::parse(f.as_str()), Some(f));
        }
        assert_eq!(Figure::parse("FIG10"), Some(Figure::Fig10));
        assert_eq!(Figure::parse("fig99"), None);
    }

    #[test]
    fn seeds_depend_on_identity_not_position() {
        let all = enumerate_jobs(&Figure::ALL, false, 42, 1);
        let only_fig10 = enumerate_jobs(&[Figure::Fig10], false, 42, 1);
        for j in &only_fig10 {
            let twin = all.iter().find(|a| a.id() == j.id()).unwrap();
            assert_eq!(twin.seed(), j.seed(), "{}", j.id());
        }
    }

    #[test]
    fn modes_of_one_workload_share_their_program() {
        // Within a figure, every mode/chunk-size of a workload must run
        // the same generated program (same seed) so speedup ratios are
        // within-program; distinct workloads and figures must not.
        let jobs = enumerate_jobs(&[Figure::Fig10, Figure::Fig11], false, 42, 1);
        let fig10_barnes: Vec<&JobSpec> = jobs
            .iter()
            .filter(|j| j.figure == Figure::Fig10 && j.workload == "barnes")
            .collect();
        assert!(fig10_barnes.len() >= 6);
        assert!(
            fig10_barnes
                .iter()
                .all(|j| j.seed() == fig10_barnes[0].seed()),
            "modes diverged"
        );
        let fig11_barnes = jobs
            .iter()
            .find(|j| j.figure == Figure::Fig11 && j.workload == "barnes")
            .unwrap();
        assert_ne!(fig11_barnes.seed(), fig10_barnes[0].seed());
        let fig10_lu = jobs
            .iter()
            .find(|j| j.figure == Figure::Fig10 && j.workload == "lu")
            .unwrap();
        assert_ne!(fig10_lu.seed(), fig10_barnes[0].seed());
    }

    #[test]
    fn base_seed_changes_every_job_seed() {
        let a = enumerate_jobs(&[Figure::Fig06], false, 42, 1);
        let b = enumerate_jobs(&[Figure::Fig06], false, 43, 1);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id(), y.id());
            assert_ne!(x.seed(), y.seed());
        }
    }

    #[test]
    fn enumeration_covers_every_figure() {
        let jobs = enumerate_jobs(&Figure::ALL, false, 42, 1);
        for f in Figure::ALL {
            assert!(jobs.iter().any(|j| j.figure == f), "no jobs for {f}");
        }
        // Identities are unique.
        let mut ids: Vec<String> = jobs.iter().map(JobSpec::id).collect();
        ids.sort();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn full_scales_budgets_and_replays() {
        let reduced = enumerate_jobs(&[Figure::Fig11], false, 42, 1);
        let full = enumerate_jobs(&[Figure::Fig11], true, 42, 1);
        assert_eq!(reduced.len(), full.len());
        assert_eq!(full[0].budget, reduced[0].budget * 5);
        let replays = |jobs: &[JobSpec]| {
            jobs.iter()
                .find_map(|j| match j.kind {
                    JobKind::RecordReplay { replays, .. } => Some(replays),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(replays(&reduced), 2);
        assert_eq!(replays(&full), 5);
    }

    #[test]
    fn run_job_produces_a_complete_record() {
        let spec = JobSpec {
            figure: Figure::Fig10,
            workload: "fft".into(),
            kind: JobKind::Record(Mode::OrderOnly),
            procs: 2,
            chunk_size: 1_000,
            simultaneous: 0,
            budget: 2_000,
            base_seed: 42,
            arbiter: ArbiterConfig::Global,
        };
        let r = run_job(&spec);
        assert_eq!(r.id, "fig10/fft/orderonly/c1000/p2");
        assert!(r.cycles > 0);
        assert!(r.commits > 0);
        assert!(r.comp_bits_pp_pki > 0.0);
        assert!(r.wall_ms > 0.0);
        // Same spec, same deterministic fields.
        let r2 = run_job(&spec);
        assert_eq!(r.canonical(), r2.canonical());
    }

    #[test]
    fn record_replay_job_verifies_determinism() {
        let spec = JobSpec {
            figure: Figure::Fig11,
            workload: "lu".into(),
            kind: JobKind::RecordReplay {
                mode: Mode::OrderOnly,
                stratify: None,
                replays: 2,
            },
            procs: 2,
            chunk_size: 1_000,
            simultaneous: 0,
            budget: 2_000,
            base_seed: 42,
            arbiter: ArbiterConfig::Global,
        };
        let r = run_job(&spec);
        assert_eq!(r.replays, 2);
        assert!(r.replay_deterministic);
        assert!(r.replay_cycles > 0);
    }
}
