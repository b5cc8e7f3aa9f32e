//! Pluggable commit-arbiter backends.
//!
//! The engine serializes commits through one seam: "given the eligible
//! pending requests, who commits next?" A [`ArbiterBackend`] answers
//! that question. The mode's [`ExecutionHooks::next_grant`] (arrival
//! order, PicoLog's round-robin token, a replay log) stays in
//! charge of *which committer* wins; the backend decides *which subset
//! of requests the policy sees* and stamps the grant with its
//! provenance:
//!
//! * [`GlobalArbiter`] shows the policy every eligible request at once —
//!   the paper's single arbiter, and byte-identical to the pre-backend
//!   engine.
//! * [`ShardedArbiter`] partitions requesters across `K` shards
//!   (processor `p` → shard `p % K`, DMA → shard 0) and rotates a
//!   cursor across them, so each shard arbitrates only its own
//!   requesters. Each granted commit bumps that shard's slot in the
//!   arbiter's vector clock; because every grant still funnels through
//!   the engine's single serialization point, the vector-clock merge of
//!   the per-shard sequences *is* the recorded total order — sharding
//!   relieves arbiter contention without forking the log format.

use crate::hooks::{ArbiterContext, Committer, ExecutionHooks, PendingView};

/// One arbiter decision: who commits, and which shard (if any) issued
/// the grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The committer the policy chose.
    pub committer: Committer,
    /// Granting shard index (`None` from the global arbiter).
    pub shard: Option<u32>,
}

/// A commit-arbitration topology.
pub trait ArbiterBackend: std::fmt::Debug {
    /// Picks the next grant, delegating committer choice to the mode's
    /// policy (`policy.next_grant`). Returns `None` when nothing can be
    /// granted right now.
    fn next_grant(
        &mut self,
        policy: &mut dyn ExecutionHooks,
        ctx: &ArbiterContext<'_>,
    ) -> Option<Grant>;

    /// Per-shard grant counts (the shard vector clock); empty for
    /// topologies without shards.
    fn vector_clock(&self) -> &[u64] {
        &[]
    }
}

/// The paper's single global arbiter: the policy sees every eligible
/// request.
#[derive(Debug, Default)]
pub struct GlobalArbiter;

impl ArbiterBackend for GlobalArbiter {
    fn next_grant(
        &mut self,
        policy: &mut dyn ExecutionHooks,
        ctx: &ArbiterContext<'_>,
    ) -> Option<Grant> {
        policy.next_grant(ctx).map(|committer| Grant {
            committer,
            shard: None,
        })
    }
}

/// `K` arbiter shards with a rotating cursor and a per-shard grant
/// vector clock.
#[derive(Debug)]
pub struct ShardedArbiter {
    shards: u32,
    cursor: u32,
    vclock: Vec<u64>,
}

impl ShardedArbiter {
    /// A sharded arbiter with `shards` shards (≥ 1).
    pub fn new(shards: u32) -> Self {
        Self {
            shards: shards.max(1),
            cursor: 0,
            vclock: vec![0; shards.max(1) as usize],
        }
    }

    /// The shard committer `c` requests on, under `shards` shards.
    pub fn shard_of(c: Committer, shards: u32) -> u32 {
        match c {
            Committer::Proc(p) => p % shards,
            Committer::Dma => 0,
        }
    }
}

impl ArbiterBackend for ShardedArbiter {
    fn next_grant(
        &mut self,
        policy: &mut dyn ExecutionHooks,
        ctx: &ArbiterContext<'_>,
    ) -> Option<Grant> {
        for step in 0..self.shards {
            let k = (self.cursor + step) % self.shards;
            let local: Vec<PendingView> = ctx
                .pending
                .iter()
                .copied()
                .filter(|v| Self::shard_of(v.committer, self.shards) == k)
                .collect();
            if local.is_empty() {
                continue;
            }
            let sub = ArbiterContext {
                pending: &local,
                n_procs: ctx.n_procs,
                committing: ctx.committing,
                total_commits: ctx.total_commits,
                finished: ctx.finished,
            };
            // A policy may decline a shard (e.g. the round-robin token
            // holder lives elsewhere); the cursor then tries the next.
            if let Some(committer) = policy.next_grant(&sub) {
                self.cursor = (k + 1) % self.shards;
                self.vclock[k as usize] += 1;
                return Some(Grant {
                    committer,
                    shard: Some(k),
                });
            }
        }
        None
    }

    fn vector_clock(&self) -> &[u64] {
        &self.vclock
    }
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::hooks::BulkScHooks;

    fn view(c: Committer, arrival: u64) -> PendingView {
        PendingView {
            committer: c,
            arrival,
        }
    }

    fn ctx<'a>(pending: &'a [PendingView], finished: &'a [bool]) -> ArbiterContext<'a> {
        ArbiterContext {
            pending,
            n_procs: finished.len() as u32,
            committing: &[],
            total_commits: 0,
            finished,
        }
    }

    #[test]
    fn global_backend_is_the_policy_verbatim() {
        let pending = [view(Committer::Proc(3), 2), view(Committer::Proc(1), 1)];
        let finished = [false; 4];
        let mut hooks = BulkScHooks;
        let g = GlobalArbiter
            .next_grant(&mut hooks, &ctx(&pending, &finished))
            .unwrap();
        // Arrival-order policy: proc 1 arrived first; no shard stamp.
        assert_eq!(g.committer, Committer::Proc(1));
        assert_eq!(g.shard, None);
        assert!(GlobalArbiter.vector_clock().is_empty());
    }

    #[test]
    fn sharded_backend_rotates_and_stamps_shards() {
        // Procs 0..4 over 2 shards: {0,2} on shard 0, {1,3} on shard 1.
        let pending = [
            view(Committer::Proc(0), 1),
            view(Committer::Proc(1), 2),
            view(Committer::Proc(2), 3),
            view(Committer::Proc(3), 4),
        ];
        let finished = [false; 4];
        let mut hooks = BulkScHooks;
        let mut arb = ShardedArbiter::new(2);
        let c = ctx(&pending, &finished);
        let g0 = arb.next_grant(&mut hooks, &c).unwrap();
        assert_eq!((g0.committer, g0.shard), (Committer::Proc(0), Some(0)));
        let g1 = arb.next_grant(&mut hooks, &c).unwrap();
        assert_eq!((g1.committer, g1.shard), (Committer::Proc(1), Some(1)));
        let g2 = arb.next_grant(&mut hooks, &c).unwrap();
        assert_eq!((g2.committer, g2.shard), (Committer::Proc(0), Some(0)));
        assert_eq!(arb.vector_clock(), &[2, 1]);
    }

    #[test]
    fn sharded_backend_skips_empty_shards() {
        // Everything pends on shard 1; the cursor starts at 0.
        let pending = [view(Committer::Proc(1), 1), view(Committer::Proc(3), 2)];
        let finished = [false; 4];
        let mut hooks = BulkScHooks;
        let mut arb = ShardedArbiter::new(2);
        let g = arb
            .next_grant(&mut hooks, &ctx(&pending, &finished))
            .unwrap();
        assert_eq!((g.committer, g.shard), (Committer::Proc(1), Some(1)));
        assert_eq!(
            arb.next_grant(&mut hooks, &ctx(&[], &finished)),
            None,
            "no pending requests anywhere"
        );
    }

    #[test]
    fn dma_requests_shard_zero() {
        assert_eq!(ShardedArbiter::shard_of(Committer::Dma, 4), 0);
        assert_eq!(ShardedArbiter::shard_of(Committer::Proc(7), 4), 3);
    }
}
