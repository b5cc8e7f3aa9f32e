//! Engine configuration.

use delorean_sim::{MachineConfig, SpecError};

/// Commit-arbiter topology: one global arbiter (the paper's machine) or
/// `K` shards, each arbitrating only its own requesters. The engine takes
/// one grant at a time, from the first shard in cursor order whose
/// requesters the policy grants, so the grants form the single recorded
/// total order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ArbiterConfig {
    /// One global arbiter serializes every commit (the paper's design).
    #[default]
    Global,
    /// `shards` arbiter shards; processor `p` requests shard
    /// `p % shards`, DMA requests shard 0.
    Sharded {
        /// Number of shards (≥ 1).
        shards: u32,
    },
}

impl ArbiterConfig {
    /// Parses the `--arbiter` CLI syntax: `global` or `sharded:<K>`.
    pub fn parse(s: &str) -> Option<Self> {
        if s == "global" {
            return Some(Self::Global);
        }
        let k = s.strip_prefix("sharded:")?.parse::<u32>().ok()?;
        if k == 0 || k > delorean_sim::MAX_PROCS {
            return None;
        }
        Some(Self::Sharded { shards: k })
    }

    /// The shard count: 0 for the global arbiter (which has no shards),
    /// `K` for `sharded:K`.
    pub fn shard_count(self) -> u32 {
        match self {
            Self::Global => 0,
            Self::Sharded { shards } => shards,
        }
    }
}

impl std::fmt::Display for ArbiterConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Global => write!(f, "global"),
            Self::Sharded { shards } => write!(f, "sharded:{shards}"),
        }
    }
}

/// Device activity configuration (interrupts and DMA are generated
/// only during recording; replay reproduces them from logs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceConfig {
    /// Mean cycles between device interrupts per processor (0 = none).
    pub irq_period: u64,
    /// Mean cycles between DMA transfers (0 = none).
    pub dma_period: u64,
    /// Words written per DMA transfer.
    pub dma_words: u32,
}

impl DeviceConfig {
    /// No device activity (SPLASH-2 runs, which the paper evaluates
    /// without system references).
    pub fn none() -> Self {
        Self {
            irq_period: 0,
            dma_period: 0,
            dma_words: 0,
        }
    }

    /// Full-system activity (the commercial workloads).
    pub fn commercial() -> Self {
        Self {
            irq_period: 120_000,
            dma_period: 400_000,
            dma_words: 64,
        }
    }
}

/// Substrate-level fault injection, applied only while recording: a
/// hostile-environment model that stresses exactly the paths the paper
/// claims tolerate non-determinism (squash storms re-exercise the
/// commit arbiter, forced truncations must flow into the CS log of the
/// OrderOnly/PicoLog modes, and device bursts flood the input logs).
/// All decisions come from a dedicated fault RNG so the timing RNG
/// streams are untouched and a faulted recording still replays
/// deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubstrateFaultConfig {
    /// Seed for the fault RNG (independent of `timing_seed`).
    pub seed: u64,
    /// Cycles between squash storms (0 = never): every period, each
    /// processor's oldest non-committing chunk is squashed.
    pub storm_period: u64,
    /// Probability that a freshly started chunk is forcibly truncated
    /// to a non-deterministic size in `[1, chunk_size]`, marked shrunk
    /// so the truncation is logged as non-deterministic.
    pub force_truncate_prob: f64,
    /// Multiplier on device activity rates (IRQ/DMA interference
    /// burst); 1 leaves the configured rates alone.
    pub device_burst: u32,
    /// Additional per-store phantom-occupancy noise, forcing extra
    /// non-deterministic overflow truncations.
    pub overflow_boost: f64,
}

impl SubstrateFaultConfig {
    /// A quiet plan: no substrate faults (useful as a base to build on).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            storm_period: 0,
            force_truncate_prob: 0.0,
            device_burst: 1,
            overflow_boost: 0.0,
        }
    }
}

/// Replay perturbation, modelling Section 6.2.1's methodology: the
/// replay simulator adds 10–300 cycle stalls before a random 30% of
/// commit operations and flips the latency of 1.5% of cache accesses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerturbConfig {
    /// Fraction of commit requests delayed.
    pub commit_delay_frac: f64,
    /// Minimum injected delay, cycles.
    pub delay_min: u64,
    /// Maximum injected delay, cycles.
    pub delay_max: u64,
    /// Fraction of cache accesses whose hit/miss latency is flipped.
    pub cache_flip_frac: f64,
}

impl Default for PerturbConfig {
    fn default() -> Self {
        Self {
            commit_delay_frac: 0.3,
            delay_min: 10,
            delay_max: 300,
            cache_flip_frac: 0.015,
        }
    }
}

/// Full configuration of one engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// The Table-5 machine (processor count, caches, latencies,
    /// parallel-commit and simultaneous-chunk limits).
    pub machine: MachineConfig,
    /// Standard chunk size in retired instructions (OrderOnly/PicoLog)
    /// or the maximum chunk size (Order&Size).
    pub chunk_size: u32,
    /// Probability that a chunk is artificially truncated to a uniform
    /// size in `[1, chunk_size]` — models Order&Size's non-deterministic
    /// chunking environment (the paper truncates 25% of chunks).
    pub variable_truncate_prob: f64,
    /// Whether repeated chunk collisions shrink the chunk (recording in
    /// Order&Size/OrderOnly; never in PicoLog or during replay).
    pub collision_shrink: bool,
    /// Squashes tolerated before shrinking begins.
    pub collision_retry: u32,
    /// Probability per speculative store of phantom set occupancy
    /// (wrong-path / cross-chunk cache interference noise that makes
    /// overflow truncation genuinely non-deterministic).
    pub overflow_noise: f64,
    /// Interrupts arriving within this many cycles of the current
    /// chunk's start squash it instead of waiting (Section 4.2.1).
    pub irq_squash_window: u64,
    /// Seed for all timing-level randomness (distinct seeds between a
    /// recording and its replay model genuinely different machine
    /// timing).
    pub timing_seed: u64,
    /// `true` for replay runs: device events are suppressed, collision
    /// shrinking is disabled and early-overflow chunks split into
    /// piggyback continuations.
    pub replay: bool,
    /// Commit arbitration round trip, cycles (30 recording; the paper
    /// penalizes replay with 50).
    pub arbitration_latency: u64,
    /// Maximum concurrent commits (4 recording; 1 during replay per the
    /// paper's methodology).
    pub max_parallel_commits: u32,
    /// Optional replay perturbation.
    pub perturb: Option<PerturbConfig>,
    /// Device activity.
    pub devices: DeviceConfig,
    /// Collect the Table-6 commit-token statistics (round-robin
    /// policies).
    pub collect_token_stats: bool,
    /// Minimum cycles between consecutive grants — models the commit
    /// token passing between processors in PicoLog's predefined order
    /// (0 for the recorded-order modes, whose arbiter grants
    /// back-to-back).
    pub grant_gap: u64,
    /// Substrate-level fault injection (recording only; replay always
    /// runs fault-free and reproduces the faults from the logs).
    pub faults: Option<SubstrateFaultConfig>,
    /// Commit-arbiter topology (recording only; replay re-serializes
    /// the recorded total order through the global mechanics whatever
    /// topology produced it).
    pub arbiter: ArbiterConfig,
}

impl EngineConfig {
    /// A recording-side configuration with the default machine and the
    /// given standard chunk size.
    pub fn recording(chunk_size: u32) -> Self {
        let machine = MachineConfig::default();
        Self {
            machine,
            chunk_size,
            variable_truncate_prob: 0.0,
            collision_shrink: true,
            collision_retry: 4,
            overflow_noise: 0.00003,
            irq_squash_window: 150,
            timing_seed: 0x5eed,
            replay: false,
            arbitration_latency: machine.arbitration_latency,
            max_parallel_commits: machine.max_parallel_commits,
            perturb: None,
            devices: DeviceConfig::none(),
            collect_token_stats: false,
            grant_gap: 0,
            faults: None,
            arbiter: ArbiterConfig::Global,
        }
    }

    /// The matching replay-side configuration per the paper's replay
    /// methodology: no device events, no collision shrinking, parallel
    /// commit disabled, 50-cycle arbitration, perturbation on.
    pub fn replay_of(recording: &EngineConfig, timing_seed: u64) -> Self {
        Self {
            replay: true,
            collision_shrink: false,
            arbitration_latency: 50,
            max_parallel_commits: 1,
            perturb: Some(PerturbConfig::default()),
            timing_seed,
            // Replay must be fault-free: the recorded logs already
            // carry every effect of the injected faults.
            faults: None,
            // Replay consumes the single recorded total order, so it
            // always runs the global arbiter mechanics, even for a
            // recording made under a sharded topology.
            arbiter: ArbiterConfig::Global,
            ..recording.clone()
        }
    }

    /// Sets the processor count (Figure 12 sweeps 4/8/16; the scaling
    /// study goes to 256), validated through
    /// [`MachineConfig::try_procs`].
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] for 0 or more than
    /// [`MAX_PROCS`](delorean_sim::MAX_PROCS) processors.
    pub fn with_procs(mut self, n: u32) -> Result<Self, SpecError> {
        self.machine = self.machine.try_procs(n)?;
        Ok(self)
    }

    /// Sets the commit-arbiter topology.
    #[must_use]
    pub fn with_arbiter(mut self, arbiter: ArbiterConfig) -> Self {
        self.arbiter = arbiter;
        self
    }

    /// Sets the simultaneous-chunks-per-processor limit.
    #[must_use]
    pub fn with_simultaneous_chunks(mut self, n: u32) -> Self {
        self.machine.simultaneous_chunks = n;
        self
    }

    /// Enables Table-6 commit-token statistics collection.
    #[must_use]
    pub fn with_token_stats(mut self) -> Self {
        self.collect_token_stats = true;
        self
    }
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn replay_config_follows_paper_methodology() {
        let rec = EngineConfig::recording(2000);
        let rep = EngineConfig::replay_of(&rec, 99);
        assert!(rep.replay);
        assert!(!rep.collision_shrink);
        assert_eq!(rep.arbitration_latency, 50);
        assert_eq!(rep.max_parallel_commits, 1);
        assert!(rep.perturb.is_some());
        assert_eq!(rep.chunk_size, 2000);
        assert_eq!(rep.timing_seed, 99);
    }

    #[test]
    fn recording_defaults() {
        let c = EngineConfig::recording(1000);
        assert!(!c.replay);
        assert_eq!(c.arbitration_latency, 30);
        assert_eq!(c.max_parallel_commits, 4);
        assert_eq!(c.variable_truncate_prob, 0.0);
    }

    #[test]
    fn replay_strips_substrate_faults() {
        let mut rec = EngineConfig::recording(2000);
        rec.faults = Some(SubstrateFaultConfig {
            seed: 7,
            storm_period: 500,
            force_truncate_prob: 0.1,
            device_burst: 2,
            overflow_boost: 0.01,
        });
        let rep = EngineConfig::replay_of(&rec, 99);
        assert!(rep.faults.is_none(), "replay always runs fault-free");
        assert_eq!(SubstrateFaultConfig::none(7).device_burst, 1);
    }

    #[test]
    fn builders_override() {
        let c = EngineConfig::recording(1000)
            .with_procs(16)
            .unwrap()
            .with_simultaneous_chunks(4);
        assert_eq!(c.machine.n_procs, 16);
        assert_eq!(c.machine.simultaneous_chunks, 4);
    }

    #[test]
    fn with_procs_enforces_the_shared_ceiling() {
        assert_eq!(
            EngineConfig::recording(1000).with_procs(0).unwrap_err(),
            SpecError::ZeroProcs
        );
        assert!(EngineConfig::recording(1000).with_procs(257).is_err());
        assert_eq!(
            EngineConfig::recording(1000)
                .with_procs(256)
                .unwrap()
                .machine
                .n_procs,
            256
        );
    }

    #[test]
    fn arbiter_syntax_round_trips() {
        assert_eq!(ArbiterConfig::parse("global"), Some(ArbiterConfig::Global));
        assert_eq!(
            ArbiterConfig::parse("sharded:4"),
            Some(ArbiterConfig::Sharded { shards: 4 })
        );
        assert_eq!(ArbiterConfig::parse("sharded:0"), None);
        assert_eq!(ArbiterConfig::parse("sharded:257"), None);
        assert_eq!(ArbiterConfig::parse("hierarchical"), None);
        for a in [ArbiterConfig::Global, ArbiterConfig::Sharded { shards: 8 }] {
            assert_eq!(ArbiterConfig::parse(&a.to_string()), Some(a));
        }
        assert_eq!(ArbiterConfig::Global.shard_count(), 0);
        assert_eq!(ArbiterConfig::Sharded { shards: 8 }.shard_count(), 8);
    }

    #[test]
    fn replay_config_always_runs_the_global_arbiter() {
        let rec = EngineConfig::recording(2000).with_arbiter(ArbiterConfig::Sharded { shards: 4 });
        let rep = EngineConfig::replay_of(&rec, 99);
        assert_eq!(rep.arbiter, ArbiterConfig::Global);
    }
}
