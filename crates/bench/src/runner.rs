//! The sweep runner: enumerate → validate → execute → summarize →
//! serialize, plus the diff mode CI uses as its regression gate.
//!
//! The runner never emits partial output: every [`BenchError`] is
//! raised before the JSON document exists, and a panicking job aborts
//! the whole sweep (see [`crate::pool`]).

use crate::error::BenchError;
use crate::jobs::{enumerate_jobs, run_job, Figure, JobSpec};
use crate::pool::run_jobs;
use crate::record::{BenchRecord, SCHEMA_VERSION};
use crate::targets::paper_value;
use delorean::json::Json;
use delorean_isa::workload;
use std::time::Instant;

/// What to sweep and how to run it.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Figures to regenerate; empty means all of them.
    pub figures: Vec<Figure>,
    /// Worker threads; 0 means one per available core.
    pub jobs: usize,
    /// Paper-scale budgets (5x) and five verification replays per
    /// point instead of two.
    pub full: bool,
    /// Base seed mixed into every job's identity-derived seed.
    pub base_seed: u64,
    /// Divides every budget — test/smoke hook; production sweeps use 1.
    pub budget_div: u64,
    /// Per-job progress lines on stderr.
    pub verbose: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            figures: Vec::new(),
            jobs: 0,
            full: false,
            base_seed: 42,
            budget_div: 1,
            verbose: false,
        }
    }
}

/// One named number of a figure's summary, next to the paper's value
/// when published.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryMetric {
    /// Metric name, e.g. `picolog_speedup_sp2`.
    pub name: String,
    /// Measured value.
    pub measured: f64,
    /// The paper's value, if published.
    pub paper: Option<f64>,
}

/// Derived metrics for one figure.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureSummary {
    /// Figure id, e.g. `fig10`.
    pub figure: String,
    /// The figure's metrics, in a fixed order.
    pub metrics: Vec<SummaryMetric>,
}

/// Everything a sweep produced.
#[derive(Debug, Clone)]
pub struct SweepResults {
    /// One record per job, in enumeration order.
    pub records: Vec<BenchRecord>,
    /// Per-figure summary metrics derived from the records.
    pub summaries: Vec<FigureSummary>,
    /// Base seed the sweep ran with.
    pub base_seed: u64,
    /// Whether paper-scale budgets were used.
    pub full: bool,
    /// Worker threads actually used. Volatile (not part of the
    /// canonical form — parallelism must not change results).
    pub workers: usize,
    /// Total sweep wall time in milliseconds. Volatile.
    pub total_wall_ms: f64,
}

/// Runs the sweep described by `cfg`.
///
/// Determinism contract: the deterministic parts of the output (see
/// [`BenchRecord::canonical`]) depend only on `(figures, full,
/// base_seed, budget_div)` — not on `jobs` — and a figure-subset run
/// reproduces exactly the records a full sweep produces for those
/// figures.
///
/// # Errors
///
/// All specs are validated up front: a zero budget or unknown workload
/// is a typed error before any job runs, and a panicking job aborts
/// the sweep with [`BenchError::JobPanicked`] instead of partial
/// results.
pub fn run_sweep(cfg: &SweepConfig) -> Result<SweepResults, BenchError> {
    let figures: &[Figure] = if cfg.figures.is_empty() {
        &Figure::ALL
    } else {
        &cfg.figures
    };
    let specs = enumerate_jobs(figures, cfg.full, cfg.base_seed, cfg.budget_div);
    validate(&specs)?;

    let workers = if cfg.jobs == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        cfg.jobs
    };
    let t = Instant::now();
    let verbose = cfg.verbose;
    let records = run_jobs(&specs, workers, |idx, spec| {
        if verbose {
            eprintln!("[{:>4}/{}] {}", idx + 1, specs.len(), spec.id());
        }
        run_job(spec)
    })
    .map_err(|p| BenchError::JobPanicked {
        job: specs
            .get(p.job_index)
            .map_or_else(|| format!("#{}", p.job_index), JobSpec::id),
        detail: p.detail,
    })?;

    let summaries = summarize(figures, &records);
    Ok(SweepResults {
        records,
        summaries,
        base_seed: cfg.base_seed,
        full: cfg.full,
        workers,
        total_wall_ms: t.elapsed().as_secs_f64() * 1_000.0,
    })
}

/// Rejects malformed specs before anything runs.
fn validate(specs: &[JobSpec]) -> Result<(), BenchError> {
    for spec in specs {
        if spec.budget == 0 {
            return Err(BenchError::ZeroBudget { job: spec.id() });
        }
        if workload::by_name(&spec.workload).is_none() {
            return Err(BenchError::UnknownWorkload {
                job: spec.id(),
                workload: spec.workload.clone(),
            });
        }
    }
    Ok(())
}

impl SweepResults {
    /// The full `BENCH_results.json` document, volatile fields
    /// included.
    pub fn to_json(&self) -> Json {
        self.document(false)
    }

    /// The document with every volatile field zeroed: wall times, RSS,
    /// worker count. Byte-equality of two canonical documents is the
    /// `--jobs` invariance check.
    pub fn canonical_json(&self) -> Json {
        self.document(true)
    }

    fn document(&self, canonical: bool) -> Json {
        let records = self
            .records
            .iter()
            .map(|r| {
                if canonical {
                    r.canonical().to_json()
                } else {
                    r.to_json()
                }
            })
            .collect();
        let summaries = self
            .summaries
            .iter()
            .map(|s| {
                let metrics = s
                    .metrics
                    .iter()
                    .map(|m| {
                        let mut fields = vec![("measured".into(), Json::Num(m.measured))];
                        if let Some(p) = m.paper {
                            fields.push(("paper".into(), Json::Num(p)));
                        }
                        (m.name.clone(), Json::Obj(fields))
                    })
                    .collect();
                (s.figure.clone(), Json::Obj(metrics))
            })
            .collect();
        Json::Obj(vec![
            ("schema_version".into(), Json::int(SCHEMA_VERSION)),
            ("tool".into(), Json::Str("delorean bench".into())),
            ("base_seed".into(), Json::int(self.base_seed)),
            ("full".into(), Json::Bool(self.full)),
            (
                "jobs".into(),
                Json::int(if canonical { 0 } else { self.workers as u64 }),
            ),
            (
                "total_wall_ms".into(),
                Json::Num(if canonical { 0.0 } else { self.total_wall_ms }),
            ),
            ("summaries".into(), Json::Obj(summaries)),
            ("records".into(), Json::Arr(records)),
        ])
    }
}

/// Parses a `BENCH_results.json` document into its records.
///
/// # Errors
///
/// [`BenchError::Baseline`] for unreadable JSON,
/// [`BenchError::SchemaDrift`] for a version mismatch or any record
/// missing/mistyping a required field.
pub fn parse_document(text: &str) -> Result<Vec<BenchRecord>, BenchError> {
    let doc = Json::parse(text).map_err(|e| BenchError::Baseline { detail: e })?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or_else(|| BenchError::SchemaDrift {
            detail: "missing schema_version".into(),
        })?;
    if version != SCHEMA_VERSION {
        return Err(BenchError::SchemaDrift {
            detail: format!("schema_version {version}, tool expects {SCHEMA_VERSION}"),
        });
    }
    let records =
        doc.get("records")
            .and_then(Json::as_arr)
            .ok_or_else(|| BenchError::SchemaDrift {
                detail: "missing records array".into(),
            })?;
    records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            BenchRecord::from_json(r).map_err(|e| BenchError::SchemaDrift {
                detail: format!("record {i}: {e}"),
            })
        })
        .collect()
}

/// One compared field of one point.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Point identity.
    pub id: String,
    /// Field name.
    pub field: String,
    /// Baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub current: f64,
    /// Change in percent, signed so that positive means *worse*.
    pub worse_pct: f64,
}

/// Outcome of comparing a fresh sweep against a committed baseline and
/// the paper's targets.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Regressions beyond tolerance — any entry here fails the gate.
    pub regressions: Vec<DiffEntry>,
    /// In-tolerance changes, for context.
    pub changes: Vec<DiffEntry>,
    /// Point ids the baseline lacks — enumeration drift.
    pub missing_in_baseline: Vec<String>,
    /// Measured-vs-paper lines (informational; the substrate is a
    /// synthetic simulator, so paper values anchor shape, not a gate).
    pub paper_lines: Vec<String>,
    /// Tolerance in percent the gate ran with.
    pub tolerance_pct: f64,
}

impl DiffReport {
    /// Whether the gate passes: no regression and no enumeration drift.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing_in_baseline.is_empty()
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let line = |out: &mut String, e: &DiffEntry, tag: &str| {
            out.push_str(&format!(
                "{tag} {id} {field}: {base:.4} -> {cur:.4} ({pct:+.1}% worse)\n",
                id = e.id,
                field = e.field,
                base = e.baseline,
                cur = e.current,
                pct = e.worse_pct,
            ));
        };
        for e in &self.regressions {
            line(&mut out, e, "REGRESSION");
        }
        for id in &self.missing_in_baseline {
            out.push_str(&format!("MISSING in baseline: {id}\n"));
        }
        for e in &self.changes {
            line(&mut out, e, "change    ");
        }
        for p in &self.paper_lines {
            out.push_str(p);
            out.push('\n');
        }
        out.push_str(&format!(
            "diff: {} regressions, {} in-tolerance changes, {} missing points (tolerance {}%)\n",
            self.regressions.len(),
            self.changes.len(),
            self.missing_in_baseline.len(),
            self.tolerance_pct,
        ));
        out
    }
}

/// Deterministic per-record fields the gate compares, with their
/// "worse" direction (`true` = higher is worse).
const GATED_FIELDS: &[(&str, bool)] = &[
    ("cycles", true),
    ("comp_bits_pp_pki", true),
    ("replay_cycles", true),
    ("work_units", false),
];

/// Compares a fresh sweep against a baseline document's records.
///
/// Only points present in the fresh run are compared, so a
/// `--figure figNN` run diffs cleanly against a full-sweep baseline.
/// A fresh point the baseline lacks is reported as enumeration drift
/// and fails the gate.
pub fn diff_against(
    fresh: &SweepResults,
    baseline: &[BenchRecord],
    tolerance_pct: f64,
) -> DiffReport {
    let mut report = DiffReport {
        regressions: Vec::new(),
        changes: Vec::new(),
        missing_in_baseline: Vec::new(),
        paper_lines: Vec::new(),
        tolerance_pct,
    };
    for cur in &fresh.records {
        let Some(base) = baseline.iter().find(|b| b.id == cur.id) else {
            report.missing_in_baseline.push(cur.id.clone());
            continue;
        };
        if base.replay_deterministic && !cur.replay_deterministic {
            report.regressions.push(DiffEntry {
                id: cur.id.clone(),
                field: "replay_deterministic".into(),
                baseline: 1.0,
                current: 0.0,
                worse_pct: 100.0,
            });
        }
        for &(field, higher_is_worse) in GATED_FIELDS {
            let (b, c) = field_value(base, field, cur);
            if b == 0.0 {
                continue;
            }
            let mut worse_pct = (c - b) / b * 100.0;
            if !higher_is_worse {
                worse_pct = -worse_pct;
            }
            if worse_pct.abs() < 1e-9 {
                continue;
            }
            let entry = DiffEntry {
                id: cur.id.clone(),
                field: field.into(),
                baseline: b,
                current: c,
                worse_pct,
            };
            if worse_pct > tolerance_pct {
                report.regressions.push(entry);
            } else {
                report.changes.push(entry);
            }
        }
    }
    for s in &fresh.summaries {
        for m in &s.metrics {
            if let Some(p) = m.paper {
                report.paper_lines.push(format!(
                    "paper      {}/{}: paper {p:.3}, measured {:.3}",
                    s.figure, m.name, m.measured
                ));
            }
        }
    }
    report
}

fn field_value(base: &BenchRecord, field: &str, cur: &BenchRecord) -> (f64, f64) {
    let pick = |r: &BenchRecord| match field {
        "cycles" => r.cycles as f64,
        "comp_bits_pp_pki" => r.comp_bits_pp_pki,
        "replay_cycles" => r.replay_cycles as f64,
        _ => r.work_units as f64,
    };
    (pick(base), pick(cur))
}

// ---------------------------------------------------------------------
// Summaries
// ---------------------------------------------------------------------

/// Geometric mean with non-positive values clamped to a tiny epsilon —
/// summary metrics must never panic on a degenerate point (e.g. a CS
/// log of zero bits, which is the *expected* OrderOnly result).
fn gm(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|&x| x.max(1e-9).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Derives every figure's summary metrics from its records.
fn summarize(figures: &[Figure], records: &[BenchRecord]) -> Vec<FigureSummary> {
    let sp2: Vec<&str> = workload::splash2().iter().map(|w| w.name).collect();
    let mut out = Vec::new();
    for &figure in figures {
        let fig = figure.as_str();
        let recs: Vec<&BenchRecord> = records.iter().filter(|r| r.figure == fig).collect();
        let sp2_recs = |mode: &str, chunk: u32| -> Vec<&BenchRecord> {
            recs.iter()
                .filter(|r| {
                    r.mode == mode
                        && (chunk == 0 || r.chunk_size == chunk)
                        && sp2.contains(&r.workload.as_str())
                })
                .copied()
                .collect()
        };
        let mut metrics = Vec::new();
        let mut push = |name: &str, measured: f64| {
            metrics.push(SummaryMetric {
                name: name.to_string(),
                measured,
                paper: paper_value(fig, name),
            });
        };
        match figure {
            Figure::Fig06 => {
                for chunk in [1_000u32, 2_000, 3_000] {
                    let rs = sp2_recs("orderonly", chunk);
                    push(
                        &format!("oo_raw_sp2_c{chunk}"),
                        gm(&rs.iter().map(|r| r.raw_bits_pp_pki).collect::<Vec<_>>()),
                    );
                    push(
                        &format!("oo_comp_sp2_c{chunk}"),
                        gm(&rs.iter().map(|r| r.comp_bits_pp_pki).collect::<Vec<_>>()),
                    );
                }
                push(
                    "oo_cs_sp2_c2000",
                    mean(
                        &sp2_recs("orderonly", 2_000)
                            .iter()
                            .filter_map(|r| extra(r, "cs_bits_pp_pki"))
                            .collect::<Vec<_>>(),
                    ),
                );
            }
            Figure::Fig07 => {
                push(
                    "picolog_sp2_c1000",
                    gm(&sp2_recs("picolog", 1_000)
                        .iter()
                        .map(|r| r.comp_bits_pp_pki)
                        .collect::<Vec<_>>()),
                );
                push(
                    "picolog_gb_per_day_c1000",
                    mean(
                        &sp2_recs("picolog", 1_000)
                            .iter()
                            .filter_map(|r| extra(r, "gb_per_day"))
                            .collect::<Vec<_>>(),
                    ),
                );
            }
            Figure::Fig08 => {
                push(
                    "ordersize_sp2_c2000",
                    gm(&sp2_recs("ordersize", 2_000)
                        .iter()
                        .map(|r| r.comp_bits_pp_pki)
                        .collect::<Vec<_>>()),
                );
            }
            Figure::Fig09 => {
                for cap in [1u32, 3, 7] {
                    let mode = format!("orderonly/strat{cap}");
                    push(
                        &format!("strat{cap}_pi_ratio_sp2"),
                        gm(&sp2_recs(&mode, 0)
                            .iter()
                            .filter_map(|r| extra(r, "strat_pi_ratio"))
                            .collect::<Vec<_>>()),
                    );
                }
            }
            Figure::Fig10 => {
                let rc = sp2_recs("rc", 0);
                for mode in ["bulksc", "ordersize", "orderonly", "picolog", "sc"] {
                    push(
                        &format!("{mode}_speedup_sp2"),
                        gm(&speedups(&sp2_recs(mode, 0), &rc)),
                    );
                }
                push(
                    "bulksc_traffic_vs_rc",
                    gm(&ratios(&sp2_recs("bulksc", 0), &rc, |r| {
                        r.traffic_bytes as f64
                    })),
                );
                push(
                    "picolog_traffic_vs_orderonly",
                    gm(&ratios(
                        &sp2_recs("picolog", 0),
                        &sp2_recs("orderonly", 0),
                        |r| r.traffic_bytes as f64,
                    )),
                );
            }
            Figure::Fig11 => {
                let rc = sp2_recs("rc", 0);
                for (mode, name) in [
                    ("orderonly", "orderonly_replay_speedup_sp2"),
                    ("orderonly+strat1", "stratified_replay_speedup_sp2"),
                    ("picolog", "picolog_replay_speedup_sp2"),
                ] {
                    push(name, gm(&replay_speedups(&sp2_recs(mode, 0), &rc)));
                }
            }
            Figure::Fig12 => {
                for procs in [4u32, 16] {
                    let rc: Vec<&BenchRecord> = recs
                        .iter()
                        .filter(|r| r.mode == "rc" && r.procs == procs)
                        .copied()
                        .collect();
                    let pl: Vec<&BenchRecord> = recs
                        .iter()
                        .filter(|r| {
                            r.mode == "picolog" && r.procs == procs && r.chunk_size == 1_000
                        })
                        .copied()
                        .collect();
                    push(
                        &format!("picolog_rel_{procs}p_c1000"),
                        gm(&speedups(&pl, &rc)),
                    );
                }
            }
            Figure::Tab01 => {
                for (mode, name) in [
                    ("fdr", "fdr_bits_gm"),
                    ("rtr", "rtr_bits_gm"),
                    ("strata", "strata_bits_gm"),
                    ("orderonly", "orderonly_bits_gm"),
                    ("picolog", "picolog_bits_gm"),
                ] {
                    push(
                        name,
                        gm(&sp2_recs(mode, 0)
                            .iter()
                            .map(|r| r.comp_bits_pp_pki)
                            .collect::<Vec<_>>()),
                    );
                }
            }
            Figure::Scale => {
                // Core-count scaling, global vs sharded arbitration:
                // records are keyed by the `arbiter_shards` extra
                // (0 = global), so the summary needs no schema change.
                let by_backend = |procs: u32, sharded: bool| -> Vec<&BenchRecord> {
                    recs.iter()
                        .filter(|r| {
                            r.procs == procs
                                && extra(r, "arbiter_shards").map(|k| k > 0.0) == Some(sharded)
                        })
                        .copied()
                        .collect()
                };
                for procs in [8u32, 64, 256] {
                    for (sharded, label) in [(false, "global"), (true, "sharded")] {
                        let rs = by_backend(procs, sharded);
                        push(
                            &format!("{label}_bits_pki_p{procs}"),
                            gm(&rs.iter().map(|r| r.comp_bits_pp_pki).collect::<Vec<_>>()),
                        );
                        push(
                            &format!("{label}_squash_rate_p{procs}"),
                            mean(
                                &rs.iter()
                                    .filter_map(|r| extra(r, "squash_rate"))
                                    .collect::<Vec<_>>(),
                            ),
                        );
                    }
                }
            }
            Figure::Deps => {
                // Available replay parallelism and signature-aliasing
                // noise by recorded core count, over the SPLASH-2 set.
                let at = |procs: u32| -> Vec<&BenchRecord> {
                    recs.iter()
                        .filter(|r| r.procs == procs && sp2.contains(&r.workload.as_str()))
                        .copied()
                        .collect()
                };
                for procs in [4u32, 8, 16] {
                    let rs = at(procs);
                    push(
                        &format!("max_speedup_p{procs}_gm"),
                        gm(&rs
                            .iter()
                            .filter_map(|r| extra(r, "max_speedup"))
                            .collect::<Vec<_>>()),
                    );
                    push(
                        &format!("aliasing_rate_p{procs}"),
                        mean(
                            &rs.iter()
                                .filter_map(|r| extra(r, "aliasing_rate"))
                                .collect::<Vec<_>>(),
                        ),
                    );
                }
                push(
                    "critical_path_ratio_p8",
                    mean(
                        &at(8)
                            .iter()
                            .filter_map(|r| extra(r, "critical_path_ratio"))
                            .collect::<Vec<_>>(),
                    ),
                );
            }
            Figure::Tab06 => {
                let pl = sp2_recs("picolog", 1_000);
                for (key, name) in [
                    ("proc_ready_pct", "proc_ready_pct_gm"),
                    ("token_roundtrip_cycles", "token_roundtrip_gm"),
                    ("wait_token_cycles", "wait_token_gm"),
                    ("wait_complete_cycles", "wait_complete_gm"),
                ] {
                    push(
                        name,
                        gm(&pl.iter().filter_map(|r| extra(r, key)).collect::<Vec<_>>()),
                    );
                }
            }
        }
        out.push(FigureSummary {
            figure: fig.to_string(),
            metrics,
        });
    }
    out
}

fn extra(r: &BenchRecord, key: &str) -> Option<f64> {
    r.extra.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}

/// Fixed-work speedup of each record over the same workload's
/// reference: `(work/cycle) / (work_ref/cycle_ref)`.
fn speedups(records: &[&BenchRecord], reference: &[&BenchRecord]) -> Vec<f64> {
    ratios(records, reference, |r| {
        if r.cycles == 0 {
            0.0
        } else {
            r.work_units as f64 / r.cycles as f64
        }
    })
}

/// Replay-side speedup: the replayed execution's work rate (same work
/// units, averaged replay cycles) over the reference's.
fn replay_speedups(records: &[&BenchRecord], reference: &[&BenchRecord]) -> Vec<f64> {
    records
        .iter()
        .filter_map(|r| {
            let base = reference.iter().find(|b| b.workload == r.workload)?;
            if r.replay_cycles == 0 || base.cycles == 0 {
                return None;
            }
            let replay_rate = r.work_units as f64 / r.replay_cycles as f64;
            let base_rate = base.work_units as f64 / base.cycles as f64;
            Some(replay_rate / base_rate)
        })
        .collect()
}

/// Per-workload ratios of `f(record) / f(reference)`.
fn ratios(
    records: &[&BenchRecord],
    reference: &[&BenchRecord],
    f: impl Fn(&BenchRecord) -> f64,
) -> Vec<f64> {
    records
        .iter()
        .filter_map(|r| {
            let base = reference.iter().find(|b| b.workload == r.workload)?;
            let (num, den) = (f(r), f(base));
            if den == 0.0 {
                None
            } else {
                Some(num / den)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    fn tiny_config() -> SweepConfig {
        SweepConfig {
            figures: vec![Figure::Fig10],
            jobs: 1,
            // Workloads retire a work unit only every ~1k instructions,
            // so don't divide below a 2k budget.
            budget_div: 10,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn sweep_produces_records_and_summaries() {
        let res = run_sweep(&tiny_config()).unwrap();
        assert!(!res.records.is_empty());
        assert_eq!(res.summaries.len(), 1);
        let fig10 = &res.summaries[0];
        assert_eq!(fig10.figure, "fig10");
        let speedup = fig10
            .metrics
            .iter()
            .find(|m| m.name == "picolog_speedup_sp2")
            .unwrap();
        assert!(speedup.measured > 0.0);
        assert_eq!(speedup.paper, Some(0.86));
    }

    #[test]
    fn document_round_trips_and_canonical_strips_volatiles() {
        let res = run_sweep(&tiny_config()).unwrap();
        let text = res.to_json().pretty();
        let back = parse_document(&text).unwrap();
        assert_eq!(back.len(), res.records.len());
        assert_eq!(back[0], res.records[0]);

        let canon = res.canonical_json();
        assert_eq!(canon.get("jobs").and_then(Json::as_u64), Some(0));
        let recs = canon.get("records").and_then(Json::as_arr).unwrap();
        assert_eq!(recs[0].get("wall_ms").and_then(Json::as_num), Some(0.0));
    }

    #[test]
    fn version_mismatch_is_schema_drift() {
        let res = run_sweep(&tiny_config()).unwrap();
        let text = res.to_json().pretty().replace(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            "\"schema_version\": 999",
        );
        match parse_document(&text) {
            Err(BenchError::SchemaDrift { detail }) => assert!(detail.contains("999")),
            other => panic!("expected schema drift, got {other:?}"),
        }
    }

    #[test]
    fn diff_detects_regressions_and_drift() {
        let res = run_sweep(&tiny_config()).unwrap();
        // Identical baseline: clean pass.
        let clean = diff_against(&res, &res.records, 25.0);
        assert!(clean.passed(), "{}", clean.render());
        assert!(clean.regressions.is_empty());

        // A fresh run twice as slow as the baseline fails the gate.
        let mut slow = res.clone();
        slow.records[0].cycles *= 2;
        let gated = diff_against(&slow, &res.records, 25.0);
        assert!(!gated.passed());
        assert_eq!(gated.regressions[0].field, "cycles");
        assert!(gated.regressions[0].worse_pct > 90.0);
        assert!(gated.render().contains("REGRESSION"));

        // A point the baseline has never seen is enumeration drift.
        let drift = diff_against(&res, &res.records[1..], 25.0);
        assert!(!drift.passed());
        assert_eq!(drift.missing_in_baseline, vec![res.records[0].id.clone()]);
    }

    #[test]
    fn zero_budget_is_rejected_before_running() {
        // A divisor larger than every base budget drives them to zero;
        // the sweep must refuse up front with a typed error rather than
        // run degenerate jobs or emit partial output.
        let cfg = SweepConfig {
            figures: vec![Figure::Fig10],
            budget_div: u64::MAX,
            ..SweepConfig::default()
        };
        match run_sweep(&cfg) {
            Err(BenchError::ZeroBudget { job }) => {
                assert!(job.starts_with("fig10/"), "{job}");
            }
            other => panic!("expected ZeroBudget, got {other:?}"),
        }
    }

    #[test]
    fn unknown_workload_is_rejected_before_running() {
        let mut specs = enumerate_jobs(&[Figure::Fig10], false, 42, 1);
        specs[0].workload = "quake3".into();
        match validate(&specs) {
            Err(BenchError::UnknownWorkload { workload, .. }) => {
                assert_eq!(workload, "quake3");
            }
            other => panic!("expected UnknownWorkload, got {other:?}"),
        }
    }

    #[test]
    fn gm_tolerates_degenerate_points() {
        assert_eq!(gm(&[]), 0.0);
        assert!(gm(&[0.0, 4.0]) > 0.0);
        assert!((gm(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
