//! The DeLorean experiment engine.
//!
//! The sweep runner ([`runner::run_sweep`]) enumerates every
//! figure/table point of the paper's evaluation as independent jobs
//! ([`jobs`]), executes them across a work-stealing pool of scoped
//! worker threads ([`pool`]), and serializes one [`record::BenchRecord`]
//! per point into `BENCH_results.json` ([`delorean::json`]). The
//! `delorean bench` CLI subcommand and CI's regression gate
//! ([`runner::diff_against`]) sit on top of it. Results are
//! byte-identical at any `--jobs` value.

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
