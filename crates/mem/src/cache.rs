//! Set-associative LRU cache model.

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: u32,
    /// Associativity.
    pub ways: u32,
}

impl CacheConfig {
    /// The paper's private write-back D-L1: 32 KB, 4-way, 32 B lines.
    pub fn l1() -> Self {
        // 32 KiB / 32 B / 4 ways = 256 sets.
        CacheConfig { sets: 256, ways: 4 }
    }

    /// The paper's shared L2: 8 MB, 8-way, 32 B lines.
    pub fn l2() -> Self {
        // 8 MiB / 32 B / 8 ways = 32768 sets.
        CacheConfig {
            sets: 32_768,
            ways: 8,
        }
    }
}

/// A set-associative cache with true-LRU replacement, tracking line
/// tags only (data lives in [`Memory`](crate::Memory)).
///
/// # Examples
///
/// ```
/// use delorean_mem::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig { sets: 2, ways: 2 });
/// assert!(!c.access(0)); // cold miss
/// assert!(c.access(0));  // hit
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `sets × ways` tags, one row of `ways` per set. A set's first
    /// `fill[set]` ways hold its lines, most-recently-used first; the
    /// rest are empty, whatever they contain.
    tags: Vec<u64>,
    /// Valid ways per set.
    fill: Vec<u32>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.sets.is_power_of_two(), "sets must be a power of two");
        assert!(cfg.ways > 0, "ways must be positive");
        Self {
            cfg,
            tags: vec![0; cfg.sets as usize * cfg.ways as usize],
            fill: vec![0; cfg.sets as usize],
            hits: 0,
            misses: 0,
        }
    }

    /// Geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// The set a line maps to.
    pub fn set_of(&self, line: u64) -> u32 {
        (line & u64::from(self.cfg.sets - 1)) as u32
    }

    /// Touches `line`; returns `true` on hit. Misses fill with LRU
    /// eviction.
    pub fn access(&mut self, line: u64) -> bool {
        let set = self.set_of(line) as usize;
        let ways = self.cfg.ways as usize;
        let fill = &mut self.fill[set];
        let row = &mut self.tags[set * ways..][..ways];
        if let Some(pos) = row[..*fill as usize].iter().position(|&t| t == line) {
            row[..=pos].rotate_right(1);
            self.hits += 1;
            true
        } else {
            // Shift the row down one way, dropping the LRU line when
            // the set is full, and put `line` in front.
            let last = (*fill as usize).min(ways - 1);
            *fill = (*fill + 1).min(self.cfg.ways);
            row[..=last].rotate_right(1);
            row[0] = line;
            self.misses += 1;
            false
        }
    }

    /// Hit/miss counters since construction or [`Cache::reset_stats`].
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Clears the hit/miss counters (not the contents).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Empties the cache (used when restoring system checkpoints; the
    /// paper notes caches are *not* part of architectural state).
    pub fn flush(&mut self) {
        self.fill.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference LRU model: one vector per set, most-recently-used
    /// first, that grows to `ways` lines and then drops its last.
    struct Reference {
        ways: usize,
        sets: Vec<Vec<u64>>,
        hits: u64,
        misses: u64,
    }

    impl Reference {
        fn new(cfg: CacheConfig) -> Self {
            Self {
                ways: cfg.ways as usize,
                sets: vec![Vec::new(); cfg.sets as usize],
                hits: 0,
                misses: 0,
            }
        }

        fn access(&mut self, line: u64) -> bool {
            let n = self.sets.len() as u64;
            let set = &mut self.sets[(line % n) as usize];
            if let Some(pos) = set.iter().position(|&t| t == line) {
                set[..=pos].rotate_right(1);
                self.hits += 1;
                true
            } else {
                if set.len() == self.ways {
                    set.pop();
                }
                set.insert(0, line);
                self.misses += 1;
                false
            }
        }

        fn flush(&mut self) {
            for set in &mut self.sets {
                set.clear();
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// The flat cache answers every access as the reference model
        /// does, through evictions and flushes, for lines anywhere in
        /// `u64` (`u64::MAX` and the zero its empty ways start as
        /// included) and for 1–8 sets of 1–4 ways.
        #[test]
        fn flat_cache_matches_reference_lru(
            set_bits in 0u32..4,
            ways in 1u32..=4,
            pool in proptest::collection::vec(
                prop_oneof![
                    any::<u64>(),
                    Just(u64::MAX),
                    Just(0u64),
                    0u64..64,
                    u64::MAX - 64..=u64::MAX,
                ],
                1..24,
            ),
            ops in proptest::collection::vec((0usize..64, 0u32..24), 1..400),
        ) {
            let cfg = CacheConfig { sets: 1 << set_bits, ways };
            let mut cache = Cache::new(cfg);
            let mut model = Reference::new(cfg);
            for (pick, roll) in ops {
                if roll == 0 {
                    cache.flush();
                    model.flush();
                } else {
                    let line = pool[pick % pool.len()];
                    prop_assert_eq!(cache.access(line), model.access(line), "line {:#x}", line);
                }
            }
            prop_assert_eq!(cache.stats(), (model.hits, model.misses));
        }
    }

    fn tiny() -> Cache {
        Cache::new(CacheConfig { sets: 4, ways: 2 })
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (sets=4).
        assert!(!c.access(0));
        assert!(!c.access(4));
        assert!(c.access(0)); // 0 now MRU
        assert!(!c.access(8)); // evicts 4
        assert!(c.access(0));
        assert!(!c.access(4)); // 4 was evicted
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(!c.access(1));
        assert!(!c.access(2));
        assert!(!c.access(3));
        assert!(c.access(0));
        assert!(c.access(1));
    }

    #[test]
    fn stats_count() {
        let mut c = tiny();
        c.access(0);
        c.access(0);
        assert_eq!(c.stats(), (1, 1));
        c.reset_stats();
        assert_eq!(c.stats(), (0, 0));
    }

    #[test]
    fn flush_empties() {
        let mut c = tiny();
        c.access(0);
        c.flush();
        c.reset_stats();
        assert!(!c.access(0));
    }

    #[test]
    fn paper_geometries() {
        assert_eq!(CacheConfig::l1(), CacheConfig { sets: 256, ways: 4 });
        assert_eq!(
            CacheConfig::l2(),
            CacheConfig {
                sets: 32_768,
                ways: 8
            }
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_panics() {
        Cache::new(CacheConfig { sets: 3, ways: 1 });
    }
}
