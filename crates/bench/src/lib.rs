//! The DeLorean experiment engine.
//!
//! Two entry points share this crate:
//!
//! * **The sweep runner** ([`runner::run_sweep`]) — enumerates every
//!   figure/table point of the paper's evaluation as independent jobs
//!   ([`jobs`]), executes them across a work-stealing pool of scoped
//!   worker threads ([`pool`]), and serializes one [`record::BenchRecord`]
//!   per point into `BENCH_results.json` ([`delorean::json`]). The `delorean bench`
//!   CLI subcommand and CI's regression gate ([`runner::diff_against`])
//!   sit on top of it. Results are byte-identical at any `--jobs` value.
//! * **The classic bench targets** (`cargo bench -p delorean-bench`) —
//!   one human-readable table/figure printout per target, using the
//!   small helpers below. Budgets are reduced by default so the whole
//!   suite finishes in minutes; set `DELOREAN_FULL=1` for 5x longer
//!   runs (the sweep's equivalent knob is `--full`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod jobs;
pub mod pool;
pub mod record;
pub mod runner;
pub mod targets;

pub use error::BenchError;
pub use jobs::{enumerate_jobs, run_job, Figure, JobKind, JobSpec};
pub use pool::{run_jobs, JobPanic};
pub use record::{BenchRecord, StageTimings, SCHEMA_VERSION};
pub use runner::{
    diff_against, parse_document, run_sweep, DiffEntry, DiffReport, FigureSummary, SummaryMetric,
    SweepConfig, SweepResults,
};
pub use targets::{paper_value, PaperTarget, PAPER_TARGETS};

use delorean_isa::workload::{self, WorkloadSpec};

/// Scales a per-processor instruction budget by the `DELOREAN_FULL`
/// environment toggle.
pub fn budget(base: u64) -> u64 {
    if std::env::var_os("DELOREAN_FULL").is_some() {
        base * 5
    } else {
        base
    }
}

/// The three workload groups the log-size figures report: the SPLASH-2
/// geometric mean and the two commercial workloads.
pub fn figure_groups() -> Vec<(&'static str, Vec<&'static WorkloadSpec>)> {
    vec![
        ("SP2-G.M.", workload::splash2().iter().collect()),
        ("sjbb2k", vec![workload::by_name("sjbb2k").unwrap()]),
        ("sweb2005", vec![workload::by_name("sweb2005").unwrap()]),
    ]
}

/// Geometric mean.
///
/// # Panics
///
/// Panics if `xs` is empty or contains non-positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geomean requires positive values");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

/// Prints a right-aligned numeric table with a left-aligned name
/// column.
pub fn print_table(title: &str, header: &[&str], rows: &[(String, Vec<f64>)], precision: usize) {
    println!();
    println!("== {title} ==");
    print!("{:<14}", header[0]);
    for h in &header[1..] {
        print!(" {h:>10}");
    }
    println!();
    for (name, vals) in rows {
        print!("{name:<14}");
        for v in vals {
            print!(" {v:>10.precision$}");
        }
        println!();
    }
}

/// One line of commentary tying measured numbers to the paper's.
pub fn note(text: &str) {
    println!("   note: {text}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[8.0]) - 8.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[0.0]);
    }

    #[test]
    fn groups_cover_the_paper() {
        let g = figure_groups();
        assert_eq!(g.len(), 3);
        assert_eq!(g[0].1.len(), 11);
    }
}
