//! A small register ISA, interpreter and workload generators.
//!
//! DeLorean is evaluated on SPLASH-2, SPECjbb2000 and SPECweb2005 running
//! on the SESC/Simics simulators. Neither the simulators nor the binaries
//! are available, so this crate provides the synthetic equivalent: a tiny
//! deterministic register machine (the [`Vm`]) plus seeded *program
//! generators* ([`workload`]) that produce one multithreaded program per
//! application with the sharing/synchronization/system-activity profile
//! the paper attributes to it.
//!
//! The crucial property preserved by the substitution is that program
//! behaviour is **data dependent**: loaded values feed branches and
//! address computations, spinlocks really spin, and I/O loads return
//! device values — so the interleaving chosen by the memory system
//! genuinely changes execution, and deterministic replay is a falsifiable
//! property rather than a tautology.
//!
//! # Examples
//!
//! ```
//! use delorean_isa::{workload, layout::AddressMap, FlatMemory, NullIo, Vm};
//!
//! let map = AddressMap::new(2);
//! let prog = workload::catalog()[0].generate(0, 2, &map, 7);
//! let mut vm = Vm::new(0, &map);
//! let mut mem = FlatMemory::new(map.total_words());
//! let mut io = NullIo;
//! for _ in 0..1000 {
//!     vm.step(&prog, &mut mem, &mut io);
//! }
//! assert_eq!(vm.retired(), 1000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod inst;
pub mod layout;
pub mod program;
pub mod vm;
pub mod workload;

pub use inst::{AluOp, Inst, Reg};
pub use program::{Program, ProgramBuilder};
pub use vm::{DataMemory, FlatMemory, IoBus, MemOp, NullIo, StepInfo, StepKind, Stop, Vm};

/// Machine word: every memory cell and register holds one.
pub type Word = u64;
/// Word-granular memory address.
pub type Addr = u64;
