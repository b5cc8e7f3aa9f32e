//! The commit arbiter.
//!
//! The engine serializes commits through one question: "given the
//! eligible pending requests, who commits next?" The mode's
//! [`ExecutionHooks::next_grant`] (arrival order, PicoLog's round-robin
//! token, a replay log) stays in charge of *which committer* wins; the
//! [`Arbiter`] decides *which subset of requests the policy sees* and
//! names the shard that issued the grant:
//!
//! * [`Arbiter::Global`] shows the policy every eligible request at
//!   once — the paper's single arbiter.
//! * [`Arbiter::Sharded`] partitions requesters across `K` shards
//!   (processor `p` → shard `p % K`, DMA → shard 0) and rotates a
//!   cursor across them, so each shard arbitrates only its own
//!   requesters.
//!
//! Either way the engine's one grant loop takes one grant at a time, and
//! the order of those grants is the recorded total order: sharding
//! changes which requester a grant goes to, not the log format.

use crate::config::{ArbiterConfig, EngineConfig};
use crate::hooks::{ArbiterContext, Committer, ExecutionHooks, PendingView};

/// A commit-arbitration topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arbiter {
    /// The paper's single global arbiter.
    Global,
    /// `shards` shards (≥ 1); `cursor` is the shard tried first.
    Sharded { shards: u32, cursor: u32 },
}

impl Arbiter {
    /// The arbiter a run under `cfg` grants through. Replay
    /// re-serializes the recorded total order, so it always runs the
    /// global arbiter, whatever topology produced the recording.
    pub(crate) fn new(cfg: &EngineConfig) -> Self {
        match (cfg.replay, cfg.arbiter) {
            (false, ArbiterConfig::Sharded { shards }) => Self::Sharded {
                shards: shards.max(1),
                cursor: 0,
            },
            _ => Self::Global,
        }
    }

    /// Picks the next grant, delegating the committer choice to the
    /// mode's policy: the committer and the granting shard (`None` from
    /// the global arbiter), or `None` when nothing can be granted right
    /// now.
    pub(crate) fn next_grant(
        &mut self,
        policy: &mut dyn ExecutionHooks,
        ctx: &ArbiterContext<'_>,
    ) -> Option<(Committer, Option<u32>)> {
        let Self::Sharded { shards, cursor } = self else {
            return policy.next_grant(ctx).map(|committer| (committer, None));
        };
        for step in 0..*shards {
            let k = (*cursor + step) % *shards;
            let local: Vec<PendingView> = ctx
                .pending
                .iter()
                .copied()
                .filter(|v| shard_of(v.committer, *shards) == k)
                .collect();
            if local.is_empty() {
                continue;
            }
            let sub = ArbiterContext {
                pending: &local,
                ..*ctx
            };
            // A policy may decline a shard (e.g. the round-robin token
            // holder lives elsewhere); the cursor then tries the next.
            if let Some(committer) = policy.next_grant(&sub) {
                *cursor = (k + 1) % *shards;
                return Some((committer, Some(k)));
            }
        }
        None
    }
}

/// The shard committer `c` requests on, under `shards` shards.
fn shard_of(c: Committer, shards: u32) -> u32 {
    match c {
        Committer::Proc(p) => p % shards,
        Committer::Dma => 0,
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

    fn sharded(shards: u32) -> Arbiter {
        Arbiter::Sharded { shards, cursor: 0 }
    }

    #[test]
    fn global_backend_is_the_policy_verbatim() {
        let pending = [view(Committer::Proc(3), 2), view(Committer::Proc(1), 1)];
        let finished = [false; 4];
        let mut hooks = BulkScHooks;
        let mut arb = Arbiter::Global;
        // Arrival-order policy: proc 1 arrived first; no shard stamp.
        assert_eq!(
            arb.next_grant(&mut hooks, &ctx(&pending, &finished)),
            Some((Committer::Proc(1), None))
        );
        assert_eq!(arb, Arbiter::Global);
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
        let mut arb = sharded(2);
        let c = ctx(&pending, &finished);
        let grants: Vec<_> = (0..3)
            .map(|_| arb.next_grant(&mut hooks, &c).unwrap())
            .collect();
        assert_eq!(
            grants,
            [
                (Committer::Proc(0), Some(0)),
                (Committer::Proc(1), Some(1)),
                (Committer::Proc(0), Some(0)),
            ]
        );
        assert_eq!(
            arb,
            Arbiter::Sharded {
                shards: 2,
                cursor: 1
            }
        );
    }

    #[test]
    fn sharded_backend_skips_empty_shards() {
        // Everything pends on shard 1; the cursor starts at 0.
        let pending = [view(Committer::Proc(1), 1), view(Committer::Proc(3), 2)];
        let finished = [false; 4];
        let mut hooks = BulkScHooks;
        let mut arb = sharded(2);
        assert_eq!(
            arb.next_grant(&mut hooks, &ctx(&pending, &finished)),
            Some((Committer::Proc(1), Some(1)))
        );
        assert_eq!(
            arb.next_grant(&mut hooks, &ctx(&[], &finished)),
            None,
            "no pending requests anywhere"
        );
    }

    #[test]
    fn dma_requests_shard_zero() {
        assert_eq!(shard_of(Committer::Dma, 4), 0);
        assert_eq!(shard_of(Committer::Proc(7), 4), 3);
    }
}
