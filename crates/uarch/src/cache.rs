//! Set-associative caches and the two-level hierarchy.
//!
//! The hierarchy mirrors the paper's memory system: an L1 data cache, a
//! unified L2, and a flat memory behind it. Latencies are supplied in
//! cycles by the clock-scaling layer. For the CRAY-1S comparison (§4.2) the
//! hierarchy can run with caches disabled so that every reference pays the
//! flat memory latency.

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`; zero for an untouched cache.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// Only tags are modelled (this is a timing study); writes allocate.
/// The tag store is one contiguous `sets × ways` array of line addresses:
/// each set is an MRU-first slice whose unfilled tail holds the [`EMPTY`]
/// sentinel, so a probe is an indexed load and a whole cache is one
/// allocation.
///
/// # Examples
///
/// ```
/// use fo4depth_uarch::cache::Cache;
/// let mut c = Cache::new(64 * 1024, 2, 64);
/// assert!(!c.access(0x1000)); // cold miss
/// assert!(c.access(0x1000)); // hit
/// ```
#[derive(Debug)]
pub struct Cache {
    tags: Vec<u64>, // set s is tags[s * ways..][..ways], MRU first
    ways: usize,
    line_shift: u32,
    set_mask: u64,
    stats: CacheStats,
}

/// Marks an unfilled way. No line address equals it: lines are at least
/// two bytes, so a line address is at most `u64::MAX >> 1`.
const EMPTY: u64 = u64::MAX;

impl Cache {
    /// Creates a cache of `capacity` bytes, `ways` ways, `line` byte lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, a line shorter
    /// than two bytes, non-power-of-two line or set count).
    #[must_use]
    pub fn new(capacity: u64, ways: usize, line: u64) -> Self {
        assert!(capacity > 0 && ways > 0 && line > 0);
        assert!(line.is_power_of_two(), "line size must be a power of two");
        assert!(line >= 2, "line size must be at least two bytes");
        let num_sets = capacity / (ways as u64 * line);
        assert!(num_sets > 0, "capacity too small for geometry");
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        Self {
            tags: vec![EMPTY; num_sets as usize * ways],
            ways,
            line_shift: line.trailing_zeros(),
            set_mask: num_sets - 1,
            stats: CacheStats::default(),
        }
    }

    /// Accesses `addr`; returns whether it hit, updating LRU state and
    /// allocating on miss.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let base = (line & self.set_mask) as usize * self.ways;
        let set = &mut self.tags[base..base + self.ways];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            set[..=pos].rotate_right(1);
            self.stats.hits += 1;
            true
        } else {
            // The LRU way (or an unfilled one) rotates to the front and
            // takes the new line.
            set.rotate_right(1);
            set[0] = line;
            self.stats.misses += 1;
            false
        }
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

impl Clone for Cache {
    fn clone(&self) -> Self {
        Self {
            tags: self.tags.clone(),
            ..*self
        }
    }

    /// Copies `source`'s tags into this cache's existing buffer, so
    /// adopting a prewarmed template allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.tags.clone_from(&source.tags);
        self.ways = source.ways;
        self.line_shift = source.line_shift;
        self.set_mask = source.set_mask;
        self.stats = source.stats;
    }
}

/// Latency plumbing for the hierarchy, in cycles (already clock-scaled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data cache capacity in bytes (0 disables caches entirely —
    /// the CRAY-1S mode of §4.2).
    pub l1_capacity: u64,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L2 capacity in bytes (0 disables the L2).
    pub l2_capacity: u64,
    /// L2 associativity.
    pub l2_ways: usize,
    /// Line size for both levels.
    pub line: u64,
    /// L1 hit latency in cycles.
    pub l1_latency: u64,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
    /// Flat memory latency in cycles.
    pub memory_latency: u64,
    /// Maximum outstanding L1 misses (miss status holding registers);
    /// 0 = unbounded. The 21264 supported eight in-flight off-chip misses.
    pub mshr_limit: usize,
}

impl HierarchyConfig {
    /// The Alpha-21264-like base system: 64 KB/2-way L1, 2 MB L2.
    #[must_use]
    pub fn alpha_like(l1_latency: u64, l2_latency: u64, memory_latency: u64) -> Self {
        Self {
            l1_capacity: 64 * 1024,
            l1_ways: 2,
            l2_capacity: 2 * 1024 * 1024,
            l2_ways: 1,
            line: 64,
            l1_latency,
            l2_latency,
            memory_latency,
            mshr_limit: 8,
        }
    }

    /// The CRAY-1S-style system of §4.2: no caches, flat `memory_latency`.
    #[must_use]
    pub fn flat_memory(memory_latency: u64) -> Self {
        Self {
            l1_capacity: 0,
            l1_ways: 1,
            l2_capacity: 0,
            l2_ways: 1,
            line: 64,
            l1_latency: 0,
            l2_latency: 0,
            memory_latency,
            // The CRAY-1S issued loads from a scoreboarded register file;
            // memory banking sustained one access per cycle, so in-flight
            // parallelism is not the bottleneck we model here.
            mshr_limit: 0,
        }
    }
}

/// A two-level data-cache hierarchy returning access latency in cycles.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    config: HierarchyConfig,
    l1: Option<Cache>,
    l2: Option<Cache>,
}

impl Hierarchy {
    /// Builds the hierarchy described by `config`.
    #[must_use]
    pub fn new(config: HierarchyConfig) -> Self {
        let l1 = (config.l1_capacity > 0)
            .then(|| Cache::new(config.l1_capacity, config.l1_ways, config.line));
        let l2 = (config.l2_capacity > 0)
            .then(|| Cache::new(config.l2_capacity, config.l2_ways, config.line));
        Self { config, l1, l2 }
    }

    /// The configured latencies and geometry.
    #[must_use]
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Performs a data access and returns its latency in cycles.
    #[inline]
    pub fn access(&mut self, addr: u64) -> u64 {
        match (&mut self.l1, &mut self.l2) {
            (None, _) => self.config.memory_latency,
            (Some(l1), l2) => {
                if l1.access(addr) {
                    self.config.l1_latency
                } else if let Some(l2) = l2 {
                    if l2.access(addr) {
                        self.config.l1_latency + self.config.l2_latency
                    } else {
                        self.config.l1_latency + self.config.l2_latency + self.config.memory_latency
                    }
                } else {
                    self.config.l1_latency + self.config.memory_latency
                }
            }
        }
    }

    /// Replaces this hierarchy's cache contents and statistics with
    /// `other`'s, keeping this instance's configured latencies.
    ///
    /// Tag state is a pure function of the access sequence — it does not
    /// depend on the clock-scaled latencies — so lanes of a batched sweep
    /// that would each replay the same prewarm sequence can instead adopt
    /// one prewarmed template, bit-identical to having replayed it. The
    /// tags are copied into this hierarchy's existing buffers.
    ///
    /// # Panics
    ///
    /// Panics if the two hierarchies have different cache geometry (the
    /// adopted state would be meaningless).
    pub fn adopt_state(&mut self, other: &Self) {
        assert!(
            self.config.l1_capacity == other.config.l1_capacity
                && self.config.l1_ways == other.config.l1_ways
                && self.config.l2_capacity == other.config.l2_capacity
                && self.config.l2_ways == other.config.l2_ways
                && self.config.line == other.config.line,
            "adopt_state across different cache geometries"
        );
        self.l1.clone_from(&other.l1);
        self.l2.clone_from(&other.l2);
    }

    /// L1 statistics (zeroes when caches are disabled).
    #[must_use]
    pub fn l1_stats(&self) -> CacheStats {
        self.l1.as_ref().map(Cache::stats).unwrap_or_default()
    }

    /// L2 statistics (zeroes when absent).
    #[must_use]
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.as_ref().map(Cache::stats).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The straight-line true-LRU semantics the flat tag store must
    /// reproduce: one growable MRU-first stack per set, `remove`/`insert`
    /// on a hit and `insert`/`pop` on a miss.
    #[derive(Debug)]
    struct ReferenceCache {
        sets: Vec<Vec<u64>>,
        ways: usize,
        line_shift: u32,
        set_mask: u64,
        stats: CacheStats,
    }

    impl ReferenceCache {
        fn new(sets: usize, ways: usize, line: u64) -> Self {
            Self {
                sets: vec![Vec::with_capacity(ways); sets],
                ways,
                line_shift: line.trailing_zeros(),
                set_mask: sets as u64 - 1,
                stats: CacheStats::default(),
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            let line = addr >> self.line_shift;
            let set = &mut self.sets[(line & self.set_mask) as usize];
            if let Some(pos) = set.iter().position(|&l| l == line) {
                let l = set.remove(pos);
                set.insert(0, l);
                self.stats.hits += 1;
                true
            } else {
                set.insert(0, line);
                if set.len() > self.ways {
                    set.pop();
                }
                self.stats.misses += 1;
                false
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random address streams hit and miss identically in the flat
        /// store and the reference at 1/2/4/8 ways and 1–16 sets. Streams
        /// span about twice the capacity, so evictions and re-hits at
        /// every LRU depth are common; some addresses sit at the top of
        /// the address space, next to the empty-way sentinel.
        #[test]
        fn flat_store_matches_the_reference_model(
            ways_log in 0u32..4,
            sets_log in 0u32..5,
            line_log in 1u32..7,
            stream in proptest::collection::vec((0u64..1 << 20, 0u8..8), 1..400),
        ) {
            let (ways, sets, line) = (1usize << ways_log, 1usize << sets_log, 1u64 << line_log);
            let mut flat = Cache::new((sets * ways) as u64 * line, ways, line);
            let mut model = ReferenceCache::new(sets, ways, line);
            let span = 2 * (sets * ways) as u64 * line;
            for (raw, high) in stream {
                let addr = if high == 0 { u64::MAX - raw % span } else { raw % span };
                prop_assert_eq!(flat.access(addr), model.access(addr));
                prop_assert_eq!(flat.stats(), model.stats);
            }
        }
    }

    /// A hierarchy small enough that the test streams evict from both
    /// levels, with the given latencies.
    fn small_hierarchy(l1_latency: u64, l2_latency: u64, memory_latency: u64) -> Hierarchy {
        Hierarchy::new(HierarchyConfig {
            l1_capacity: 512,
            l1_ways: 2,
            l2_capacity: 2048,
            l2_ways: 4,
            line: 64,
            l1_latency,
            l2_latency,
            memory_latency,
            mshr_limit: 0,
        })
    }

    /// `n` pseudo-random addresses over 8 KB (16× the L1, 4× the L2).
    fn stream(seed: u64, n: u64) -> Vec<u64> {
        (0..n)
            .map(|i| fo4depth_util::SplitMix64::mix(seed << 32 | i) % 8192)
            .collect()
    }

    /// Drives both hierarchies through `probe`, asserting that every
    /// access hits or misses the same way at each level, then that the
    /// cumulative stats agree.
    fn assert_same_state(a: &mut Hierarchy, b: &mut Hierarchy, probe: &[u64]) {
        let hits = |h: &Hierarchy| (h.l1_stats().hits, h.l2_stats().hits);
        for &addr in probe {
            let (a0, b0) = (hits(a), hits(b));
            a.access(addr);
            b.access(addr);
            let (a1, b1) = (hits(a), hits(b));
            assert_eq!(
                (a1.0 - a0.0, a1.1 - a0.1),
                (b1.0 - b0.0, b1.1 - b0.1),
                "tag state diverged at {addr:#x}"
            );
        }
        assert_eq!((a.l1_stats(), a.l2_stats()), (b.l1_stats(), b.l2_stats()));
    }

    #[test]
    fn adopting_a_template_equals_replaying_its_prewarm() {
        let prewarm = stream(1, 600);
        let mut template = small_hierarchy(1, 1, 1);
        let mut replayed = small_hierarchy(3, 12, 80);
        for &a in &prewarm {
            template.access(a);
            replayed.access(a);
        }
        let mut adopted = small_hierarchy(3, 12, 80);
        adopted.adopt_state(&template);
        assert_eq!(adopted.l1_stats(), replayed.l1_stats());
        assert_eq!(adopted.l2_stats(), replayed.l2_stats());
        assert_eq!(adopted.config(), replayed.config(), "latencies are kept");
        for &a in &stream(2, 600) {
            assert_eq!(adopted.access(a), replayed.access(a), "latency at {a:#x}");
        }
        assert_same_state(&mut adopted, &mut replayed, &stream(3, 600));
    }

    #[test]
    fn adoption_replaces_existing_state_completely() {
        let mut template = small_hierarchy(3, 12, 80);
        for &a in &stream(4, 300) {
            template.access(a);
        }
        let mut adopted = small_hierarchy(3, 12, 80);
        for &a in &stream(5, 900) {
            adopted.access(a);
        }
        adopted.adopt_state(&template);
        assert_same_state(&mut adopted, &mut template, &stream(6, 900));
    }

    #[test]
    fn lru_eviction_order() {
        // 2-way, 2-set cache: lines 0,2,4 map to set 0 (line=64, sets=2).
        let mut c = Cache::new(256, 2, 64);
        assert!(!c.access(0)); // set0: [0]
        assert!(!c.access(128)); // set0: [2,0]
        assert!(c.access(0)); // set0: [0,2]
        assert!(!c.access(256)); // evicts 2 → [4,0]
        assert!(c.access(0));
        assert!(!c.access(128)); // 2 was evicted
    }

    #[test]
    fn within_line_accesses_hit() {
        let mut c = Cache::new(64 * 1024, 2, 64);
        assert!(!c.access(0x1000));
        assert!(c.access(0x1001));
        assert!(c.access(0x103f));
        assert!(!c.access(0x1040)); // next line
    }

    #[test]
    fn stats_track_rates() {
        let mut c = Cache::new(1024, 1, 64);
        for i in 0..16 {
            c.access(i * 64);
        }
        for i in 0..16 {
            c.access(i * 64);
        }
        let s = c.stats();
        assert_eq!(s.misses, 16);
        assert_eq!(s.hits, 16);
        assert!((s.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hierarchy_latency_tiers() {
        let mut h = Hierarchy::new(HierarchyConfig {
            l1_capacity: 1024,
            l1_ways: 1,
            l2_capacity: 64 * 1024,
            l2_ways: 1,
            line: 64,
            l1_latency: 3,
            l2_latency: 12,
            memory_latency: 100,
            mshr_limit: 0,
        });
        // Cold: L1 miss, L2 miss → full stack.
        assert_eq!(h.access(0x0), 115);
        // Hot in L1.
        assert_eq!(h.access(0x0), 3);
        // Thrash L1 (1 KB direct) but stay in L2.
        for i in 0..64 {
            h.access(i * 64);
        }
        assert_eq!(h.access(0x0), 15);
    }

    #[test]
    fn flat_memory_mode_charges_constant() {
        let mut h = Hierarchy::new(HierarchyConfig::flat_memory(12));
        assert_eq!(h.access(0x0), 12);
        assert_eq!(h.access(0x0), 12); // no caching whatsoever
        assert_eq!(h.l1_stats(), CacheStats::default());
    }

    #[test]
    fn alpha_like_geometry() {
        let h = Hierarchy::new(HierarchyConfig::alpha_like(3, 12, 80));
        assert_eq!(h.config().l1_capacity, 64 * 1024);
        assert_eq!(h.config().l2_capacity, 2 * 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_geometry() {
        let _ = Cache::new(3 * 64, 1, 64);
    }
}
