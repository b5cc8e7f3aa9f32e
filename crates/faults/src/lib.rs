//! # Deterministic fault injection for DeLorean logs.
//!
//! DeLorean's replay guarantee is only as strong as the log that
//! carries it: the PI/CS stream is a single point of failure, and the
//! paper assumes a perfect recording substrate. This crate removes
//! that assumption *testably*. It injects faults — seeded,
//! scheduled, reproducible — at the two layers where real systems
//! break:
//!
//! * **I/O layer** ([`FaultySink`]): torn writes and transient
//!   `io::Error`s while recording; bit flips, truncated tails,
//!   duplicated segments and garbage bursts against the byte image
//!   ([`apply_to_bytes`]).
//! * **Substrate layer** (via
//!   [`SubstrateFaultConfig`](delorean_chunk::SubstrateFaultConfig)):
//!   squash storms, forced non-deterministic chunk truncations and
//!   device interference bursts inside the chunk engine itself, which
//!   must flow through the OrderOnly CS-log truncation path and replay
//!   deterministically.
//!
//! Every fault derives from a [`FaultPlan`] — a seeded, serializable
//! schedule — so identical seeds produce byte-identical fault
//! sequences. The [`crashtest`] module sweeps a scenario matrix
//! (workloads × modes × fault classes) and verifies the recovery
//! invariants of [`delorean::recover`]: every injected-fault run
//! either replays bit-identically to ground truth on the recovered
//! commit ranges, or produces a
//! [`SalvageReport`](delorean::recover::SalvageReport) naming the lost
//! range. Never a panic, never silent divergence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crashtest;
pub mod io;
pub mod plan;

pub use crashtest::{run_crashtest, CrashtestConfig, CrashtestReport, ScenarioOutcome};
pub use io::{apply_to_bytes, FaultySink};
pub use plan::{FaultClass, FaultOp, FaultPlan};
