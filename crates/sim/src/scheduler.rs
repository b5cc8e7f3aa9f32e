//! Deterministic min-heap event queue.
//!
//! Entries are ordered by `(tick, seq)`: earliest simulated cycle first,
//! then **post order** (`seq` is a global monotone stamp assigned when
//! the event is posted). Because `seq` is unique per entry the order is
//! a strict total order with no reliance on heap internals, so a run is
//! bit-reproducible across processes, platforms and `BinaryHeap`
//! implementations — the determinism the whole record/replay substrate
//! rests on.
//!
//! The scheduler is generic over the payload `P` an engine attaches to
//! each posted event; payloads take no part in the ordering.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Heap entry: the ordering key is `(tick, seq)`; the payload is
/// deliberately excluded so `P` needs no `Ord`.
#[derive(Debug)]
struct Entry<P> {
    tick: u64,
    seq: u64,
    payload: P,
}

impl<P> PartialEq for Entry<P> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl<P> Eq for Entry<P> {}
impl<P> PartialOrd for Entry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for Entry<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.tick, self.seq).cmp(&(other.tick, other.seq))
    }
}

/// Deterministic discrete-event queue.
#[derive(Debug)]
pub struct Scheduler<P> {
    heap: BinaryHeap<Reverse<Entry<P>>>,
    seq: u64,
}

impl<P> Default for Scheduler<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> Scheduler<P> {
    /// An empty scheduler.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Posts `payload` at absolute cycle `tick`, stamping it with the
    /// next post-order sequence number.
    pub fn post(&mut self, tick: u64, payload: P) {
        self.seq += 1;
        self.heap.push(Reverse(Entry {
            tick,
            seq: self.seq,
            payload,
        }));
    }

    /// Pops the earliest event, ties broken by post order, as its
    /// `(tick, payload)`.
    pub fn pop(&mut self) -> Option<(u64, P)> {
        let Reverse(e) = self.heap.pop()?;
        Some((e.tick, e.payload))
    }
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    fn drain<P>(s: &mut Scheduler<P>) -> Vec<(u64, P)> {
        std::iter::from_fn(|| s.pop()).collect()
    }

    #[test]
    fn orders_by_tick_then_post_order() {
        let mut s = Scheduler::new();
        s.post(20, "late");
        s.post(10, "first-posted");
        s.post(10, "second-posted");
        assert_eq!(
            drain(&mut s),
            vec![(10, "first-posted"), (10, "second-posted"), (20, "late")],
            "same-tick events must fire in post order"
        );
    }

    #[test]
    fn tie_breaks_are_stable_across_runs() {
        // Build the same interleaved schedule many times; the drain
        // order must be identical every time (no hidden heap
        // nondeterminism).
        let build = || {
            let mut s = Scheduler::new();
            let mut posted = 0u32;
            for i in 0..100u64 {
                // Many colliding ticks; the payload is the post order.
                for tick in [i % 7, i % 5] {
                    s.post(tick, posted);
                    posted += 1;
                }
            }
            drain(&mut s)
        };
        let first = build();
        for _ in 0..10 {
            assert_eq!(build(), first, "drain order drifted between runs");
        }
        // And the order really is sorted by (tick, post order).
        let mut sorted = first.clone();
        sorted.sort();
        assert_eq!(first, sorted);
    }
}
