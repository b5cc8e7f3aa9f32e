//! The software chunk-execution loop.
//!
//! The value-level [`ReplayInspector`](crate::inspect::ReplayInspector)
//! must chunk the instruction stream *exactly* like the recording
//! engine did, or its digests diverge from the trailer for structural
//! rather than semantic reasons. A chunk runs until it reaches its
//! target size (the CS-forced size when the log carries one, the
//! standard size otherwise), the processor's budget, a halt, or an
//! uncached instruction — which either ends the chunk *before*
//! executing (when the chunk already holds instructions) or commits
//! solo.
//!
//! Interrupt delivery and the I/O-miss policy stay with the caller,
//! which treats log gaps as hard errors.

use delorean_chunk::TruncationReason;
use delorean_isa::{DataMemory, IoBus, Program, StepKind, Vm};

/// Outcome of executing one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChunkRun {
    /// Instructions retired by the chunk.
    pub size: u32,
    /// Why the chunk ended where it did.
    pub truncation: TruncationReason,
}

/// Executes one chunk of `vm` against `mem`/`io`, following the
/// engine's chunking rules exactly. `target` is the chunk's size limit
/// (the CS-forced size or `chunk_size`), and a target below the
/// standard `chunk_size` re-derives as a logged non-deterministic
/// truncation ([`TruncationReason::Overflow`]).
pub(crate) fn run_chunk(
    vm: &mut Vm,
    program: &Program,
    mem: &mut dyn DataMemory,
    io: &mut dyn IoBus,
    target: u32,
    chunk_size: u32,
    budget: u64,
) -> ChunkRun {
    let mut size = 0u32;
    // A chunk cut short of the standard size by its (logged) target
    // was non-deterministically truncated when recorded; uncached
    // stops re-derive themselves below before the target is hit.
    let mut truncation = if target < chunk_size {
        TruncationReason::Overflow
    } else {
        TruncationReason::StandardSize
    };
    loop {
        if size >= target {
            break;
        }
        if vm.retired() >= budget || vm.halted() {
            truncation = TruncationReason::BudgetEnd;
            break;
        }
        let Some(&inst) = vm.peek(program) else {
            truncation = TruncationReason::BudgetEnd;
            break;
        };
        if inst.is_uncached() && size > 0 {
            truncation = TruncationReason::Uncached;
            break;
        }
        let info = vm.step(program, mem, io);
        size += 1;
        if info.kind == StepKind::Uncached {
            truncation = TruncationReason::Uncached;
            break; // solo uncached chunk
        }
    }
    ChunkRun { size, truncation }
}
