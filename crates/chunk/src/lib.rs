//! BulkSC-style chunk-based execution engine.
//!
//! This crate is the execution substrate DeLorean is built on
//! (Section 3.1 / Appendix A of the paper): processors continuously
//! execute *chunks* of consecutive dynamic instructions atomically and
//! in isolation, an arbiter orders chunk commits over a generic network,
//! and chunks whose exact read/write line sets meet a commit's writes
//! are squashed and re-executed (the hardware's 2-Kbit signatures are
//! modelled by exact sets; see [`ChunkFootprint`]). The paper's
//! three DeLorean execution modes are built *on top of* this engine (in
//! the `delorean` crate) through the [`ExecutionHooks`] trait, which
//! exposes exactly the decision points the modes differ in:
//!
//! * which pending commit request the arbiter grants next
//!   ([`ExecutionHooks::next_grant`] — arrival order, round-robin, or
//!   PI-log-prescribed),
//! * chunk sizing ([`ExecutionHooks::forced_chunk_size`] — CS-log
//!   driven during replay),
//! * I/O-load values ([`ExecutionHooks::io_load`] — device during
//!   recording, I/O log during replay),
//! * interrupt and DMA injection.
//!
//! A replay whose logs the machine cannot follow ends as an
//! [`EngineError`] value, never a panic.
//!
//! The engine also models the *timing* the paper measures: per-chunk
//! durations from the Table-5 cache hierarchy, a 30-cycle commit
//! arbitration round trip overlapped with execution of subsequent
//! chunks, up to 4 parallel commits of footprint-disjoint chunks, a
//! configurable number of simultaneous chunks per processor, squash and
//! re-execution cost, cache-overflow and repeated-collision truncation,
//! processor stall accounting, and the commit-token statistics of
//! Table 6.
//!
//! The engine is one event loop: it pops `(cycle, event)` pairs from a
//! queue ordered by cycle, then by post order, and hands each event to
//! its handler. One arbiter, global or split into shards
//! ([`ArbiterConfig`]), grants commits one at a time, so the order of
//! its grants is the total order the logs record.
//!
//! # Examples
//!
//! ```
//! use delorean_chunk::{run, BulkScHooks, EngineConfig};
//! use delorean_isa::workload::WorkloadSpec;
//! use delorean_sim::RunSpec;
//!
//! let spec = RunSpec::new(WorkloadSpec::test_spec(), 2, 7, 4_000).unwrap();
//! let cfg = EngineConfig::recording(1_000);
//! let stats = run(&spec, &cfg, &mut BulkScHooks::default()).expect("recording cannot starve");
//! assert_eq!(stats.digest.retired, vec![4_000, 4_000]);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod arbiter;
pub mod config;
pub mod devices;
mod engine;
pub mod footprint;
pub mod hooks;
pub mod policy;
mod spec;
pub mod stats;

pub use config::{ArbiterConfig, DeviceConfig, EngineConfig, PerturbConfig, SubstrateFaultConfig};
pub use engine::{run, run_from, EngineError, StartState};
pub use footprint::ChunkFootprint;
pub use hooks::{
    ArbiterContext, BulkScHooks, CommitRecord, Committer, ExecutionHooks, PendingView,
    SubstrateEvent, TruncationReason,
};
pub use stats::{ParallelStats, RunStats, StateDigest, TokenStats};

/// Identifier of a processor core.
pub type CoreId = u32;
