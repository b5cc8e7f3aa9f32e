//! Speculative chunk state, the per-chunk memory view and the per-core
//! speculative-line occupancy tracker (for overflow truncation).

use crate::hooks::TruncationReason;
use delorean_isa::vm::VmState;
use delorean_isa::{Addr, DataMemory, Word};
use delorean_mem::{bit_indices, line_of, Memory};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The engine's fixed multiply-fold hasher: one 64×64→128-bit multiply
/// whose halves are folded together, so every key bit reaches the
/// bucket index.
///
/// It keys only addresses that the generated programs compute: word
/// addresses and the cache lines they fall in. No value decoded from a
/// `.dlrn`, such as a DMA address, is hashed with it; the engine sorts
/// those lines instead.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let p = u128::from(self.0 ^ x) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

/// A set of addresses or lines keyed by [`AddrHasher`].
pub(crate) type AddrSet = HashSet<u64, BuildHasherDefault<AddrHasher>>;
/// A map from addresses or lines keyed by [`AddrHasher`].
pub(crate) type AddrMap<V> = HashMap<u64, V, BuildHasherDefault<AddrHasher>>;

/// Lifecycle of an in-flight chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChunkState {
    /// Functionally executed; its completion event is in flight.
    Executing,
    /// Completed; commit request travelling to / queued at the arbiter.
    Completed,
    /// Granted; commit propagating through the system.
    Committing,
}

/// A committed line with its two signature bit positions, computed
/// once per commit and tested against every in-flight chunk.
pub(crate) type ScreenedLine = (u64, [usize; 2]);

/// `lines` with their signature bit positions.
pub(crate) fn screened(lines: &[u64]) -> Vec<ScreenedLine> {
    lines.iter().map(|&l| (l, bit_indices(l))).collect()
}

mod sets {
    use super::{AddrSet, ScreenedLine};
    use delorean_mem::Signature;

    /// The cache lines a chunk attempt touched: exact read and write
    /// sets, plus the 2-Kbit Bulk [`Signature`] of their union.
    ///
    /// The signature screens a commit's conflict test the way BulkSC's
    /// signature intersection does: a line whose two bits are not both
    /// set is in neither set. The exact sets decide every line that
    /// passes the screen, so an aliased signature hit never squashes.
    /// All three change only through [`LineSets::insert`] (and are
    /// emptied together by [`LineSets::clear`]), so the screen can
    /// never miss a line the exact sets hold.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub(crate) struct LineSets {
        reads: AddrSet,
        writes: AddrSet,
        signature: Signature,
    }

    impl LineSets {
        /// Records an access to `line`: a store when `write`, else a
        /// load.
        pub(crate) fn insert(&mut self, line: u64, write: bool) {
            if write {
                self.writes.insert(line);
            } else {
                self.reads.insert(line);
            }
            self.signature.insert(line);
        }

        /// Forgets every line, keeping the sets' capacity.
        pub(crate) fn clear(&mut self) {
            self.reads.clear();
            self.writes.clear();
            self.signature.clear();
        }

        /// Lines loaded.
        pub(crate) fn reads(&self) -> &AddrSet {
            &self.reads
        }

        /// Lines stored.
        pub(crate) fn writes(&self) -> &AddrSet {
            &self.writes
        }

        /// Whether `line` was loaded or stored. The exact sets are
        /// probed only when the signature holds both of its bits.
        pub(crate) fn holds(&self, &(line, bits): &ScreenedLine) -> bool {
            self.signature.may_contain_bits(bits)
                && (self.reads.contains(&line) || self.writes.contains(&line))
        }
    }
}

pub(crate) use sets::LineSets;

/// One speculative chunk.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Chunk {
    /// 1-based per-core logical index.
    pub index: u64,
    /// Instruction budget for this chunk.
    pub target: u32,
    /// VM state at chunk start (squash restore point).
    pub checkpoint: VmState,
    /// Speculative write buffer (word granular).
    pub buffer: AddrMap<Word>,
    /// Lines read and written, with their Bulk signature.
    pub lines: LineSets,
    /// Retired instructions in the current execution attempt.
    pub size: u32,
    /// Why the current attempt ended.
    pub reason: TruncationReason,
    /// Lifecycle state.
    pub state: ChunkState,
    /// Bumped on every (re-)execution; stale events are ignored.
    pub incarnation: u64,
    /// Squash count (drives collision shrinking).
    pub squashes: u32,
    /// Cycle the current attempt started.
    pub start_time: u64,
    /// Cycle the current attempt completes.
    pub complete_time: u64,
    /// Interrupt delivered at this chunk's start (redelivered on every
    /// squash re-execution so the boundary stays stable).
    pub irq: Option<(u16, delorean_isa::Word)>,
    /// I/O-load values returned during the current attempt.
    pub io_values: Vec<(u16, delorean_isa::Word)>,
    /// Replay-side spurious overflow observed during execution (the
    /// chunk commits in two back-to-back pieces; modelled as extra
    /// commit latency, Section 4.2.3).
    pub replay_split: bool,
    /// Repeated-collision shrinking reduced this chunk's target size
    /// (non-deterministic; reported as `TruncationReason::Collision`).
    pub shrunk: bool,
}

impl Chunk {
    pub(crate) fn new(index: u64, target: u32, checkpoint: VmState) -> Self {
        Self {
            index,
            target,
            checkpoint,
            buffer: AddrMap::default(),
            lines: LineSets::default(),
            size: 0,
            reason: TruncationReason::StandardSize,
            state: ChunkState::Executing,
            incarnation: 0,
            squashes: 0,
            start_time: 0,
            complete_time: 0,
            irq: None,
            io_values: Vec::new(),
            replay_split: false,
            shrunk: false,
        }
    }

    /// `Chunk::new(index, target, checkpoint)` built from a retired
    /// chunk: the new chunk keeps the capacity of the old one's write
    /// buffer, line sets and I/O vector, so it does not regrow them.
    pub(crate) fn recycled(mut self, index: u64, target: u32, checkpoint: VmState) -> Self {
        self.buffer.clear();
        self.lines.clear();
        self.io_values.clear();
        Self {
            buffer: self.buffer,
            lines: self.lines,
            io_values: self.io_values,
            ..Self::new(index, target, checkpoint)
        }
    }

    /// Clears the speculative state for a re-execution. The attached
    /// interrupt (if any) is kept: it is redelivered at the retry.
    pub(crate) fn reset_for_retry(&mut self, new_incarnation: u64) {
        self.buffer.clear();
        self.lines.clear();
        self.size = 0;
        self.reason = TruncationReason::StandardSize;
        self.state = ChunkState::Executing;
        self.incarnation = new_incarnation;
        self.io_values.clear();
        self.replay_split = false;
    }

    /// Whether a processor commit's written lines meet this chunk's
    /// accesses: the signature screens each line, the exact sets
    /// decide.
    pub(crate) fn conflicts_with(&self, committed_wlines: &[ScreenedLine]) -> bool {
        committed_wlines.iter().any(|l| self.lines.holds(l))
    }

    /// This chunk's footprint as sorted, deduplicated line vectors: all
    /// lines it accessed, and the lines it wrote. Sorted, a commit's
    /// log bytes do not depend on the order the sets iterate in.
    pub(crate) fn footprint(&self) -> (Vec<u64>, Vec<u64>) {
        let mut write: Vec<u64> = self.lines.writes().iter().copied().collect();
        write.sort_unstable();
        let mut access: Vec<u64> = self.lines.reads().iter().copied().collect();
        access.extend_from_slice(&write);
        access.sort_unstable();
        access.dedup();
        (access, write)
    }
}

/// Per-core speculative dirty-line occupancy, per L1 set. A store that
/// would push a set past the L1 associativity triggers overflow
/// truncation (Section 4.2.3).
#[derive(Debug, Clone)]
pub(crate) struct Occupancy {
    /// line -> number of in-flight chunks with the line dirty.
    refcount: AddrMap<u32>,
    /// Distinct dirty lines, indexed by L1 set.
    per_set: Vec<u32>,
}

impl Occupancy {
    /// An empty tracker over `sets` L1 sets.
    pub(crate) fn new(sets: u32) -> Self {
        Self {
            refcount: AddrMap::default(),
            per_set: vec![0; sets as usize],
        }
    }

    /// Distinct speculative dirty lines currently in `set`.
    pub(crate) fn set_count(&self, set: u32) -> u32 {
        self.per_set[set as usize]
    }

    /// Whether `line` is already dirty in some in-flight chunk.
    pub(crate) fn contains(&self, line: u64) -> bool {
        self.refcount.contains_key(&line)
    }

    /// Registers a store to `line` by one chunk.
    pub(crate) fn add(&mut self, line: u64, set: u32) {
        let r = self.refcount.entry(line).or_insert(0);
        *r += 1;
        if *r == 1 {
            self.per_set[set as usize] += 1;
        }
    }

    /// Removes one chunk's dirty lines (commit or squash).
    // Infallible: the engine only removes chunks whose lines it added
    // via `add_chunk`, so every lookup hits — a miss is an engine bug
    // worth crashing on, not untrusted input.
    #[allow(clippy::expect_used)]
    pub(crate) fn remove_chunk<'a>(
        &mut self,
        lines: impl Iterator<Item = &'a u64>,
        set_of: impl Fn(u64) -> u32,
    ) {
        for &line in lines {
            let r = self
                .refcount
                .get_mut(&line)
                .expect("occupancy refcount underflow");
            *r -= 1;
            if *r == 0 {
                self.refcount.remove(&line);
                self.per_set[set_of(line) as usize] -= 1;
            }
        }
    }
}

/// The memory view a chunk executes against: its own write buffer over
/// the buffers of older in-flight chunks on the same core, over
/// committed memory. Loads collect the read set; stores go to the
/// chunk's buffer only.
pub(crate) struct SpecView<'a> {
    pub committed: &'a Memory,
    pub older: &'a [Chunk],
    pub buffer: &'a mut AddrMap<Word>,
    pub lines: &'a mut LineSets,
}

impl DataMemory for SpecView<'_> {
    fn load(&mut self, addr: Addr) -> Word {
        self.lines.insert(line_of(addr), false);
        if let Some(&v) = self.buffer.get(&addr) {
            return v;
        }
        for ch in self.older.iter().rev() {
            if let Some(&v) = ch.buffer.get(&addr) {
                return v;
            }
        }
        self.committed.peek(addr % self.committed.len())
    }

    fn store(&mut self, addr: Addr, value: Word) {
        self.lines.insert(line_of(addr), true);
        self.buffer.insert(addr, value);
    }
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use delorean_isa::layout::AddressMap;
    use delorean_isa::Vm;
    use delorean_mem::Signature;

    fn chunk(idx: u64) -> Chunk {
        let map = AddressMap::new(1);
        let vm = Vm::new(0, &map);
        Chunk::new(idx, 100, vm.snapshot())
    }

    #[test]
    fn spec_view_layering() {
        let mem = Memory::new(64);
        let mut older = chunk(1);
        older.buffer.insert(5, 11);
        let mut oldest = chunk(0);
        oldest.buffer.insert(5, 10);
        oldest.buffer.insert(6, 20);
        let olders = vec![oldest, older];
        let mut cur = chunk(2);
        let mut view = SpecView {
            committed: &mem,
            older: &olders,
            buffer: &mut cur.buffer,
            lines: &mut cur.lines,
        };
        // Youngest older chunk wins.
        assert_eq!(view.load(5), 11);
        // Falls through to the oldest's buffer.
        assert_eq!(view.load(6), 20);
        // Committed memory (zero) when nobody buffered it.
        assert_eq!(view.load(7), 0);
        // Own store then read-own.
        view.store(5, 99);
        assert_eq!(view.load(5), 99);
        // Words 5, 6 and 7 all sit in line 1.
        assert_eq!(cur.lines.reads().iter().collect::<Vec<_>>(), [&1]);
        assert_eq!(cur.lines.writes().iter().collect::<Vec<_>>(), [&1]);
    }

    #[test]
    fn conflict_uses_read_and_write_sets() {
        let mut a = chunk(0);
        a.lines.insert(3, false);
        assert!(a.conflicts_with(&screened(&[3])));
        let mut b = chunk(1);
        b.lines.insert(4, true);
        assert!(b.conflicts_with(&screened(&[4])));
        assert!(!b.conflicts_with(&screened(&[3])));
    }

    #[test]
    fn signature_hits_on_lines_in_neither_set_do_not_conflict() {
        let mut c = chunk(0);
        let lines: Vec<u64> = (0..64).map(|l| l * 977).collect();
        for (i, &l) in lines.iter().enumerate() {
            c.lines.insert(l, i % 2 == 0);
        }
        // A line whose two bits other lines set: the screen passes it,
        // and only the exact sets can turn it away.
        let sig = Signature::from_lines(lines.iter().copied());
        let alias = (100_000..200_000u64)
            .find(|&l| sig.is_aliased_hit(l, &lines))
            .expect("a false positive exists");
        assert!(!c.conflicts_with(&screened(&[alias])));
        assert!(c.conflicts_with(&screened(&[alias, 977])));
        assert!(c.conflicts_with(&screened(&[2 * 977])));
    }

    #[test]
    fn footprint_is_sorted_and_deduplicated() {
        let mut c = chunk(0);
        for l in [9, 2, 5] {
            c.lines.insert(l, false);
        }
        for l in [5, 1] {
            c.lines.insert(l, true);
        }
        assert_eq!(c.footprint(), (vec![1, 2, 5, 9], vec![1, 5]));
    }

    #[test]
    fn retry_clears_speculative_state_and_bumps_incarnation() {
        let mut c = chunk(0);
        c.buffer.insert(1, 2);
        c.lines.insert(0, true);
        c.lines.insert(7, false);
        c.size = 50;
        let inc = c.incarnation;
        c.reset_for_retry(inc + 1);
        assert!(c.buffer.is_empty());
        assert_eq!(c.lines, LineSets::default());
        assert!(!c.conflicts_with(&screened(&[0, 7])));
        assert_eq!(c.size, 0);
        assert_eq!(c.incarnation, inc + 1);
    }

    #[test]
    fn a_recycled_chunk_is_a_new_chunk_with_the_old_capacity() {
        let map = AddressMap::new(1);
        let mut vm = Vm::new(0, &map);
        let mut old = Chunk::new(3, 100, vm.snapshot());
        for a in 0..200 {
            old.buffer.insert(a, a);
            old.lines.insert(a, a % 3 == 0);
        }
        old.io_values.push((1, 2));
        old.size = 90;
        old.reason = TruncationReason::Collision;
        old.state = ChunkState::Committing;
        old.incarnation = 17;
        old.squashes = 4;
        old.start_time = 5;
        old.complete_time = 9;
        old.irq = Some((1, 2));
        old.replay_split = true;
        old.shrunk = true;
        let capacity = old.buffer.capacity();
        vm.set_pc(7);
        let recycled = old.recycled(4, 50, vm.snapshot());
        assert_eq!(recycled, Chunk::new(4, 50, vm.snapshot()));
        assert_eq!(recycled.buffer.capacity(), capacity);
        assert!(recycled.lines.reads().capacity() >= 100);
        assert!(recycled.io_values.capacity() >= 1);
    }

    #[test]
    fn occupancy_counts_distinct_lines_per_set() {
        let set_of = |line: u64| (line % 4) as u32;
        let mut occ = Occupancy::new(4);
        occ.add(0, set_of(0));
        occ.add(4, set_of(4));
        occ.add(4, set_of(4)); // second chunk, same line
        assert_eq!(occ.set_count(0), 2);
        assert!(occ.contains(4));
        occ.remove_chunk([4u64].iter(), set_of);
        assert_eq!(occ.set_count(0), 2, "line still dirty in the other chunk");
        occ.remove_chunk([4u64].iter(), set_of);
        assert_eq!(occ.set_count(0), 1);
        occ.remove_chunk([0u64].iter(), set_of);
        assert_eq!(occ.set_count(0), 0);
        assert!(!occ.contains(0));
    }
}
