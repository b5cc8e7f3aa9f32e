//! Cycle-approximate CMP timing substrate plus the RC and SC baseline
//! executors.
//!
//! The DeLorean paper compares its chunk-based modes against two
//! conventional machines built on the same Table-5 CMP: an aggressive
//! **RC** implementation (speculative execution across fences, hardware
//! exclusive prefetching for stores) and an aggressive **SC**
//! implementation (speculative loads + exclusive store prefetch). This
//! crate models both as interleaved per-instruction executors over the
//! shared [`MemorySystem`], parameterized by [`TimingParams`]. It also
//! exports the global memory-access interleaving stream the baseline
//! recorders (FDR / RTR / Strata) consume.
//!
//! # Examples
//!
//! ```
//! use delorean_isa::workload;
//! use delorean_sim::{ConsistencyModel, Executor, RunSpec};
//!
//! let run = RunSpec::new(workload::by_name("lu").unwrap().clone(), 2, 42, 5_000).unwrap();
//! let rc = Executor::new(ConsistencyModel::Rc).run(&run);
//! let sc = Executor::new(ConsistencyModel::Sc).run(&run);
//! assert!(sc.cycles >= rc.cycles, "aggressive SC is never faster than RC");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
mod devices;
mod executor;
mod memsys;
pub mod scheduler;
mod timing;

pub use config::{validate_procs, MachineConfig, SpecError, MAX_PROCS};
pub use devices::SeededDevices;
pub use executor::{
    AccessRecord, AccessSink, ConsistencyModel, ExecResult, Executor, NullSink, VecSink,
};
pub use memsys::{AccessClass, MemorySystem};
pub use timing::TimingParams;

/// Everything needed to reproduce one simulated run of one application.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The application to run.
    pub workload: delorean_isa::workload::WorkloadSpec,
    /// Number of processors (= threads).
    pub n_procs: u32,
    /// Seed for program generation and device contents.
    pub seed: u64,
    /// Retired-instruction budget per processor.
    pub budget: u64,
}

impl RunSpec {
    /// Creates a run spec.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if `n_procs` is zero or above
    /// [`MAX_PROCS`], or if `budget` is zero.
    pub fn new(
        workload: delorean_isa::workload::WorkloadSpec,
        n_procs: u32,
        seed: u64,
        budget: u64,
    ) -> Result<Self, SpecError> {
        validate_procs(n_procs)?;
        if budget == 0 {
            return Err(SpecError::ZeroBudget);
        }
        Ok(Self {
            workload,
            n_procs,
            seed,
            budget,
        })
    }

    /// Total machine-wide instruction budget.
    pub fn total_budget(&self) -> u64 {
        self.budget * u64::from(self.n_procs)
    }
}
