//! Run statistics and the determinism digest.

/// Commit-token statistics (Table 6 of the paper). Collected when the
/// grant policy is round-robin (PicoLog).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TokenStats {
    /// Grants where the processor's chunk was already complete when it
    /// acquired the token.
    pub ready_grants: u64,
    /// Grants where the token had to wait for chunk completion.
    pub not_ready_grants: u64,
    /// Total cycles ready processors waited for the token.
    pub wait_token_cycles: u64,
    /// Total cycles the token waited for chunk completion.
    pub wait_complete_cycles: u64,
    /// Sum of token round-trip times (per-processor grant-to-grant).
    pub roundtrip_cycles: u64,
    /// Round trips measured.
    pub roundtrips: u64,
}

impl TokenStats {
    /// Percentage of token acquisitions that found the chunk ready.
    pub fn proc_ready_pct(&self) -> f64 {
        let total = self.ready_grants + self.not_ready_grants;
        if total == 0 {
            return 0.0;
        }
        self.ready_grants as f64 / total as f64 * 100.0
    }

    /// Mean wait-for-token cycles (ready processors).
    pub fn avg_wait_token(&self) -> f64 {
        if self.ready_grants == 0 {
            return 0.0;
        }
        self.wait_token_cycles as f64 / self.ready_grants as f64
    }

    /// Mean wait-for-completion cycles (not-ready processors).
    pub fn avg_wait_complete(&self) -> f64 {
        if self.not_ready_grants == 0 {
            return 0.0;
        }
        self.wait_complete_cycles as f64 / self.not_ready_grants as f64
    }

    /// Mean token round trip, cycles.
    pub fn avg_roundtrip(&self) -> f64 {
        if self.roundtrips == 0 {
            return 0.0;
        }
        self.roundtrip_cycles as f64 / self.roundtrips as f64
    }
}

/// Parallel-commit statistics (Table 6's first columns).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParallelStats {
    /// Sum over grant samples of processors with a ready-to-commit
    /// chunk.
    pub ready_procs_sum: u64,
    /// Sum over grant samples of chunks committing simultaneously.
    pub committing_sum: u64,
    /// Number of samples (grants).
    pub samples: u64,
}

impl ParallelStats {
    /// Mean processors with fully-executed, ready-to-commit chunks.
    pub fn avg_ready_procs(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.ready_procs_sum as f64 / self.samples as f64
    }

    /// Mean chunks committing at the same time.
    pub fn avg_actual_commit(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.committing_sum as f64 / self.samples as f64
    }
}

/// The architectural outcome of a run; two runs replayed
/// deterministically iff their digests are equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateDigest {
    /// Hash of final committed memory.
    pub mem_hash: u64,
    /// Per-processor retired-stream hashes (include every loaded
    /// value).
    pub stream_hashes: Vec<u64>,
    /// Per-processor retired instruction counts.
    pub retired: Vec<u64>,
    /// Per-processor committed *logical* chunk counts.
    pub committed_chunks: Vec<u64>,
}

impl StateDigest {
    /// One stable 64-bit fingerprint of the whole digest: FNV-1a over
    /// every field, with each vector prefixed by its length so distinct
    /// shapes can never collide by concatenation. Two digests are equal
    /// iff their fingerprints are (modulo hash collisions), which makes
    /// this the one-line value CI jobs and scripts compare across
    /// replays — e.g. `delorean-rr replay --from N` prints it.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut fold = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
        };
        fold(self.mem_hash);
        for part in [&self.stream_hashes, &self.retired, &self.committed_chunks] {
            fold(part.len() as u64);
            for &v in part.iter() {
                fold(v);
            }
        }
        h
    }
}

/// Everything measured during one engine run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Simulated execution time in cycles.
    pub cycles: u64,
    /// Total commits granted (processors + DMA, including piggyback
    /// continuations).
    pub total_commits: u64,
    /// Chunks squashed.
    pub squashes: u64,
    /// Instructions whose execution was discarded by squashes.
    pub squashed_insts: u64,
    /// Commits truncated by attempted cache overflow.
    pub overflow_truncations: u64,
    /// Commits truncated by repeated-collision shrinking.
    pub collision_truncations: u64,
    /// Commits truncated at uncached/system instructions.
    pub uncached_truncations: u64,
    /// Interrupts delivered.
    pub interrupts: u64,
    /// DMA transfers committed.
    pub dma_commits: u64,
    /// Per-processor cycles stalled with all chunk slots full.
    pub stall_cycles: Vec<u64>,
    /// Estimated network traffic in bytes (miss fills + signature
    /// commit messages + write-backs).
    pub traffic_bytes: u64,
    /// Mean committed chunk size in instructions.
    pub avg_chunk_size: f64,
    /// Parallel-commit characterization.
    pub parallel: ParallelStats,
    /// Token statistics (round-robin policies only).
    pub token: Option<TokenStats>,
    /// Application work units completed (workload loop iterations,
    /// summed over processors): the fixed-work denominator for speedup
    /// comparisons.
    pub work_units: u64,
    /// Determinism digest.
    pub digest: StateDigest,
}

impl RunStats {
    /// Fraction of cycles processors spent stalled, machine-wide.
    pub fn stall_pct(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let total: u64 = self.stall_cycles.iter().sum();
        total as f64 / (self.cycles as f64 * self.stall_cycles.len() as f64) * 100.0
    }
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn token_stat_means() {
        let t = TokenStats {
            ready_grants: 2,
            not_ready_grants: 2,
            wait_token_cycles: 200,
            wait_complete_cycles: 100,
            roundtrip_cycles: 3000,
            roundtrips: 3,
        };
        assert_eq!(t.proc_ready_pct(), 50.0);
        assert_eq!(t.avg_wait_token(), 100.0);
        assert_eq!(t.avg_wait_complete(), 50.0);
        assert_eq!(t.avg_roundtrip(), 1000.0);
    }

    #[test]
    fn empty_stats_are_zero_not_nan() {
        let t = TokenStats::default();
        assert_eq!(t.proc_ready_pct(), 0.0);
        assert_eq!(t.avg_wait_token(), 0.0);
        assert_eq!(t.avg_wait_complete(), 0.0);
        assert_eq!(t.avg_roundtrip(), 0.0);
        let p = ParallelStats::default();
        assert_eq!(p.avg_ready_procs(), 0.0);
        assert_eq!(p.avg_actual_commit(), 0.0);
    }

    #[test]
    fn parallel_means() {
        let p = ParallelStats {
            ready_procs_sum: 12,
            committing_sum: 6,
            samples: 3,
        };
        assert_eq!(p.avg_ready_procs(), 4.0);
        assert_eq!(p.avg_actual_commit(), 2.0);
    }
}
