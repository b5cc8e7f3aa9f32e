//! # DeLorean: deterministic record & replay for chunk-based multiprocessors
//!
//! A from-scratch reproduction of *"DeLorean: Recording and
//! Deterministically Replaying Shared-Memory Multiprocessor Execution
//! Efficiently"* (Montesinos, Ceze, Torrellas — ISCA 2008).
//!
//! Processors in a DeLorean machine continuously execute *chunks* of
//! instructions atomically and in isolation (the BulkSC substrate lives
//! in [`delorean_chunk`]). Inter-processor interleaving is then visible
//! only at chunk-commit boundaries, so deterministic replay needs to
//! record only the **total order of chunk commits** plus a handful of
//! input logs — orders of magnitude less than conventional
//! per-dependence recorders. Three execution modes trade speed against
//! log size (Table 2 of the paper):
//!
//! * [`Mode::OrderSize`] — non-deterministic chunking: the arbiter logs
//!   committing processor IDs (PI log) and processors log every chunk's
//!   size (CS log).
//! * [`Mode::OrderOnly`] — deterministic chunking: only the PI log,
//!   plus a tiny CS log for the rare non-deterministic truncations
//!   (cache overflow, repeated collision).
//! * [`Mode::PicoLog`] — deterministic chunking *and* a predefined
//!   (round-robin) commit order: the memory-ordering log is practically
//!   nil.
//!
//! The PI log can additionally be *stratified* (Section 4.3), halving
//! its size by recording Strata-style vectors of per-processor chunk
//! counters instead of individual processor IDs.
//!
//! # Quick start
//!
//! ```
//! use delorean::{Machine, Mode};
//! use delorean_isa::workload;
//!
//! let machine = Machine::builder()
//!     .mode(Mode::OrderOnly)
//!     .procs(2)
//!     .budget(5_000)
//!     .build();
//! let recording = machine.record(workload::by_name("fft").unwrap(), 42);
//! let replay = machine.replay(&recording).expect("logs are consistent");
//! assert!(replay.deterministic, "replay reproduced the execution");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod checkpoint;
mod chunkrun;
mod error;
pub mod inspect;
pub mod json;
pub mod log;
mod machine;
mod mode;
mod recorder;
pub mod recover;
mod replayer;
pub mod serialize;
mod session;
pub mod stratify;
pub mod stream;
mod wire;

pub use checkpoint::{
    index_stream, CheckpointEntry, CheckpointError, CheckpointIndex, IntervalCheckpoint,
    ReplayCursor,
};
pub use error::ReplayError;
pub use machine::{Machine, MachineBuilder, Recording, ReplayReport};
pub use mode::Mode;
pub use recorder::LogSet;
pub use recover::{RecoveringSource, Salvage, SalvageReport};
pub use session::{HookStage, NoopStage, Session};
pub use stream::{
    EventSegment, FileSink, FileSource, LogSink, LogSource, MemorySink, PositionedDecodeError,
    SegmentMark, SegmentWalker, SinkError, StreamPosition, WalkedSegment,
};
pub use wire::Fnv;

// Re-export the substrate types users need at the API boundary.
pub use delorean_chunk::{ArbiterConfig, RunStats, StateDigest, SubstrateEvent};
pub use delorean_isa::workload::WorkloadSpec;
pub use delorean_sim::{validate_procs, SpecError, MAX_PROCS};
