//! Race detection and log-invariant analysis for DeLorean recordings.
//!
//! Four passes, each usable on its own and aggregated by the
//! `delorean analyze` CLI subcommand into one [`AnalysisReport`]:
//!
//! 1. **Static footprint analysis** ([`footprint`]) — abstract
//!    interpretation over the workload's generated programs, computing
//!    per-thread may-read/may-write shared footprints without
//!    executing, and flagging unsynchronized conflicting access pairs
//!    with their program counters.
//! 2. **Chunk-granularity race detection** ([`races`]) — a replay
//!    through [`ReplayInspector`](delorean::inspect::ReplayInspector)
//!    that builds the chunk happens-before relation with vector
//!    clocks and reports conflicting chunk pairs whose order only the
//!    recorded commit log fixes, classified by what the mode pins down
//!    (PI log vs. predefined round-robin order).
//! 3. **Log lint** ([`lint`]) — structural invariant checks over raw
//!    `.dlrn` streams (framing, checksums, CS-size sanity, footprint
//!    shape, DMA payload ranges, watermark and trailer consistency)
//!    as typed [`Diagnostic`]s with severities, never panics.
//! 4. **Dependence analysis** ([`deps`]) — the full chunk dependence
//!    DAG over a recording, built twice (exact line-granular
//!    footprints vs. the hardware's aliasing-prone 2-Kbit signatures),
//!    with transitive reduction, critical path, an
//!    available-parallelism profile and a hard check that the recorded
//!    commit order is a linear extension of the exact DAG.
//!
//! Only [`Severity::Error`] findings indicate a broken artifact (and
//! drive the CLI's exit code); races are reported as warnings because
//! a racy-but-intact recording is a legitimate object of study — the
//! point of deterministic replay is to capture exactly such runs.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod conflicts;
pub mod deps;
pub mod footprint;
pub mod lint;
pub mod races;
pub mod report;

pub use deps::{deps_from_bytes, races_and_deps, DepNode, DepsOptions, DepsReport, PROFILE_CORES};
pub use footprint::{
    analyze_workload, find_static_races, AbsVal, AccessSite, FootprintReport, StaticOptions,
};
pub use lint::{lint_bytes, lint_strata, lint_stream, LintReport};
pub use races::{detect_races, ChunkRace, Detector, RaceOptions, RaceReport};
pub use report::{AnalysisReport, Diagnostic, Severity};
