//! Branch direction predictors and a branch target buffer.
//!
//! The flagship model is [`Tournament`], the 21264's hybrid: a local
//! two-level predictor (1 K × 10-bit histories indexing 1 K 3-bit
//! counters), a global predictor (4 K 2-bit counters indexed by 12 bits of
//! global history), and a chooser (4 K 2-bit counters) that learns which
//! side to trust per history. All tables are size-parameterized so the
//! capacity study (§4.5) can scale them.

/// A branch direction predictor.
///
/// The simulator calls [`predict`](Self::predict) at fetch and
/// [`update`](Self::update) at resolve with the oracle outcome.
pub trait BranchPredictor: std::fmt::Debug {
    /// Predicts the direction of the branch at `pc`.
    fn predict(&mut self, pc: u64) -> bool;

    /// Trains the predictor with the actual outcome.
    fn update(&mut self, pc: u64, taken: bool);
}

#[inline]
fn counter_update(c: &mut u8, taken: bool, max: u8) {
    if taken {
        *c = (*c + 1).min(max);
    } else {
        *c = c.saturating_sub(1);
    }
}

/// Classic bimodal predictor: a table of 2-bit saturating counters indexed
/// by PC.
///
/// # Examples
///
/// ```
/// use fo4depth_uarch::branch::{Bimodal, BranchPredictor};
/// let mut p = Bimodal::new(1024);
/// for _ in 0..4 {
///     p.update(0x40, true);
/// }
/// assert!(p.predict(0x40));
/// ```
#[derive(Debug, Clone)]
pub struct Bimodal {
    table: Vec<u8>,
}

impl Bimodal {
    /// Creates a predictor with `entries` 2-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a nonzero power of two.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "table size must be a power of two"
        );
        Self {
            table: vec![1; entries], // weakly not-taken
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.table.len() - 1)
    }
}

impl BranchPredictor for Bimodal {
    fn predict(&mut self, pc: u64) -> bool {
        self.table[self.index(pc)] >= 2
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let i = self.index(pc);
        counter_update(&mut self.table[i], taken, 3);
    }
}

/// Gshare: global history XOR PC indexes a table of 2-bit counters.
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<u8>,
    history: u64,
    history_bits: u32,
}

impl Gshare {
    /// Creates a gshare predictor with `entries` counters and
    /// `log2(entries)` bits of global history.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a nonzero power of two.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "table size must be a power of two"
        );
        Self {
            table: vec![1; entries],
            history: 0,
            history_bits: entries.trailing_zeros(),
        }
    }

    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) as usize) & (self.table.len() - 1)
    }
}

impl BranchPredictor for Gshare {
    fn predict(&mut self, pc: u64) -> bool {
        self.table[self.index(pc)] >= 2
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let i = self.index(pc);
        counter_update(&mut self.table[i], taken, 3);
        self.history = ((self.history << 1) | u64::from(taken)) & ((1 << self.history_bits) - 1);
    }
}

/// Local two-level predictor: per-branch history registers indexing a
/// shared pattern table of 3-bit counters (the local side of the 21264).
#[derive(Debug, Clone)]
pub struct LocalTwoLevel {
    histories: Vec<u16>,
    pattern: Vec<u8>,
    history_bits: u32,
}

impl LocalTwoLevel {
    /// Creates a local predictor with `sites` history registers of
    /// `history_bits` bits and a `2^history_bits` pattern table.
    ///
    /// # Panics
    ///
    /// Panics if `sites` is not a power of two or `history_bits` exceeds 16.
    #[must_use]
    pub fn new(sites: usize, history_bits: u32) -> Self {
        assert!(sites.is_power_of_two(), "site count must be a power of two");
        assert!(history_bits <= 16, "history too long");
        Self {
            histories: vec![0; sites],
            pattern: vec![3; 1 << history_bits], // weakly not-taken of 3-bit
            history_bits,
        }
    }

    fn site(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.histories.len() - 1)
    }

    fn pattern_index(&self, pc: u64) -> usize {
        let h = self.histories[self.site(pc)];
        (h as usize) & ((1 << self.history_bits) - 1)
    }
}

impl BranchPredictor for LocalTwoLevel {
    fn predict(&mut self, pc: u64) -> bool {
        self.pattern[self.pattern_index(pc)] >= 4
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let pi = self.pattern_index(pc);
        counter_update(&mut self.pattern[pi], taken, 7);
        let s = self.site(pc);
        self.histories[s] =
            ((self.histories[s] << 1) | u16::from(taken)) & ((1 << self.history_bits) - 1) as u16;
    }
}

/// The Alpha 21264 tournament predictor: local + global with a
/// history-indexed chooser.
///
/// # Examples
///
/// ```
/// use fo4depth_uarch::branch::{BranchPredictor, Tournament};
/// let mut p = Tournament::alpha21264();
/// // A strongly biased branch becomes predictable once the local history
/// // register and pattern table have saturated.
/// for _ in 0..32 { p.update(0x100, true); }
/// assert!(p.predict(0x100));
/// ```
#[derive(Debug, Clone)]
pub struct Tournament {
    local: LocalTwoLevel,
    global: Vec<u8>,
    chooser: Vec<u8>,
    history: u64,
    history_mask: u64,
}

impl Tournament {
    /// The 21264 configuration: 1 K × 10-bit local, 4 K global, 4 K chooser.
    #[must_use]
    pub fn alpha21264() -> Self {
        Self::new(1024, 10, 4096)
    }

    /// Creates a tournament predictor with the given table geometry.
    ///
    /// # Panics
    ///
    /// Panics if `global_entries` is not a power of two (other parameters
    /// are checked by [`LocalTwoLevel::new`]).
    #[must_use]
    pub fn new(local_sites: usize, local_history_bits: u32, global_entries: usize) -> Self {
        assert!(
            global_entries.is_power_of_two(),
            "global table must be a power of two"
        );
        Self {
            local: LocalTwoLevel::new(local_sites, local_history_bits),
            global: vec![1; global_entries],
            chooser: vec![2; global_entries],
            history: 0,
            history_mask: (global_entries - 1) as u64,
        }
    }

    fn gindex(&self) -> usize {
        (self.history & self.history_mask) as usize
    }

    fn cindex(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & self.chooser.len().wrapping_sub(1)
    }
}

impl BranchPredictor for Tournament {
    fn predict(&mut self, pc: u64) -> bool {
        let local_pred = self.local.predict(pc);
        let global_pred = self.global[self.gindex()] >= 2;
        // McFarling-style combining: the chooser is indexed by branch
        // address so each site learns which component to trust.
        let use_global = self.chooser[self.cindex(pc)] >= 2;
        if use_global {
            global_pred
        } else {
            local_pred
        }
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let gi = self.gindex();
        let ci = self.cindex(pc);
        let local_pred = self.local.predict(pc);
        let global_pred = self.global[gi] >= 2;
        // Chooser trains toward whichever side was right (when they differ).
        if local_pred != global_pred {
            counter_update(&mut self.chooser[ci], global_pred == taken, 3);
        }
        counter_update(&mut self.global[gi], taken, 3);
        self.local.update(pc, taken);
        self.history = (self.history << 1) | u64::from(taken);
    }
}

/// Perceptron predictor (Jiménez & Lin, HPCA 2001) — contemporaneous with
/// the paper and the natural "what if the predictor were better?"
/// ablation for the pipeline-depth study: deeper pipelines pay more per
/// misprediction, so predictor quality shifts the optimal clock.
///
/// Each branch hashes to a row of small signed weights; the prediction is
/// the sign of the dot product between the weights and the global history
/// (±1 encoded). Training nudges weights when the prediction was wrong or
/// the magnitude was below the threshold.
#[derive(Debug, Clone)]
pub struct Perceptron {
    weights: Vec<Vec<i16>>,
    history: Vec<i8>,
    threshold: i32,
}

impl Perceptron {
    /// Creates a perceptron predictor with `rows` weight vectors over
    /// `history_bits` of global history.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not a power of two or `history_bits` is zero.
    #[must_use]
    pub fn new(rows: usize, history_bits: usize) -> Self {
        assert!(rows.is_power_of_two(), "row count must be a power of two");
        assert!(history_bits > 0, "history must be non-empty");
        // Jiménez's threshold heuristic: ⌊1.93·h + 14⌋.
        let threshold = (1.93 * history_bits as f64 + 14.0) as i32;
        Self {
            weights: vec![vec![0; history_bits + 1]; rows],
            history: vec![1; history_bits],
            threshold,
        }
    }

    fn row(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.weights.len() - 1)
    }

    fn output(&self, pc: u64) -> i32 {
        let w = &self.weights[self.row(pc)];
        let mut y = i32::from(w[0]); // bias weight
        for (wi, hi) in w[1..].iter().zip(&self.history) {
            y += i32::from(*wi) * i32::from(*hi);
        }
        y
    }
}

impl BranchPredictor for Perceptron {
    fn predict(&mut self, pc: u64) -> bool {
        self.output(pc) >= 0
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let y = self.output(pc);
        let predicted = y >= 0;
        let t: i32 = if taken { 1 } else { -1 };
        if predicted != taken || y.abs() <= self.threshold {
            let row = self.row(pc);
            let w = &mut self.weights[row];
            w[0] = (i32::from(w[0]) + t).clamp(-127, 127) as i16;
            for (wi, hi) in w[1..].iter_mut().zip(&self.history) {
                let delta = t * i32::from(*hi);
                *wi = (i32::from(*wi) + delta).clamp(-127, 127) as i16;
            }
        }
        self.history.rotate_right(1);
        self.history[0] = if taken { 1 } else { -1 };
    }
}

/// A direct-mapped branch target buffer. Direction prediction says *taken*;
/// the BTB must still supply the target, and a miss redirects like a
/// misprediction.
#[derive(Debug, Clone)]
pub struct Btb {
    tags: Vec<u64>,
    targets: Vec<u64>,
    stats: BtbStats,
}

/// Cumulative BTB counters (always on — the counting is two adds on a path
/// that already does a tag compare).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BtbStats {
    /// Target lookups performed.
    pub lookups: u64,
    /// Lookups that found a matching tag (target correctness is the
    /// caller's comparison; this is presence only).
    pub hits: u64,
}

impl BtbStats {
    /// Tag hit rate (0 when no lookups happened).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Counters accumulated since `earlier` (an interval delta).
    #[must_use]
    pub fn since(&self, earlier: &BtbStats) -> BtbStats {
        BtbStats {
            lookups: self.lookups - earlier.lookups,
            hits: self.hits - earlier.hits,
        }
    }
}

impl Btb {
    /// Creates a BTB with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a nonzero power of two.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "BTB size must be a power of two");
        Self {
            tags: vec![u64::MAX; entries],
            targets: vec![0; entries],
            stats: BtbStats::default(),
        }
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.tags.len() - 1)
    }

    /// Returns the predicted target for `pc`, if the BTB holds one.
    #[must_use]
    #[inline]
    pub fn lookup(&mut self, pc: u64) -> Option<u64> {
        let i = self.index(pc);
        self.stats.lookups += 1;
        let hit = self.tags[i] == pc;
        self.stats.hits += u64::from(hit);
        hit.then_some(self.targets[i])
    }

    /// Cumulative lookup counters.
    #[must_use]
    #[inline]
    pub fn stats(&self) -> BtbStats {
        self.stats
    }

    /// Installs or refreshes the mapping `pc → target`.
    #[inline]
    pub fn update(&mut self, pc: u64, target: u64) {
        let i = self.index(pc);
        self.tags[i] = pc;
        self.targets[i] = target;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fo4depth_util::{Rng64, Xoshiro256StarStar};

    fn accuracy<P: BranchPredictor>(p: &mut P, outcomes: &[(u64, bool)]) -> f64 {
        let mut right = 0;
        for &(pc, taken) in outcomes {
            if p.predict(pc) == taken {
                right += 1;
            }
            p.update(pc, taken);
        }
        right as f64 / outcomes.len() as f64
    }

    fn biased_stream(n: usize, sites: usize, bias: f64, seed: u64) -> Vec<(u64, bool)> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let site = rng.next_range(sites as u64);
                let p = if site.is_multiple_of(2) {
                    bias
                } else {
                    1.0 - bias
                };
                (0x1000 + site * 4, rng.next_bool(p))
            })
            .collect()
    }

    #[test]
    fn bimodal_learns_biased_branches() {
        let mut p = Bimodal::new(4096);
        let acc = accuracy(&mut p, &biased_stream(50_000, 64, 0.95, 1));
        assert!(acc > 0.90, "bimodal accuracy {acc}");
    }

    #[test]
    fn local_learns_periodic_patterns() {
        // A branch taken every third time defeats bimodal but not a local
        // history predictor.
        let stream: Vec<(u64, bool)> = (0..30_000).map(|i| (0x2000, i % 3 == 0)).collect();
        let mut local = LocalTwoLevel::new(1024, 10);
        let acc_local = accuracy(&mut local, &stream);
        let mut bi = Bimodal::new(4096);
        let acc_bi = accuracy(&mut bi, &stream);
        assert!(acc_local > 0.97, "local accuracy {acc_local}");
        assert!(acc_local > acc_bi);
    }

    #[test]
    fn gshare_exploits_global_correlation() {
        // Branch B is taken exactly when branch A was taken.
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let mut stream = Vec::new();
        for _ in 0..20_000 {
            let a = rng.next_bool(0.5);
            stream.push((0x3000, a));
            stream.push((0x3004, a));
        }
        let mut g = Gshare::new(4096);
        let acc = accuracy(&mut g, &stream);
        assert!(acc > 0.70, "gshare accuracy {acc}");
    }

    #[test]
    fn tournament_beats_or_matches_both_sides() {
        let stream = biased_stream(60_000, 128, 0.93, 7);
        let mut t = Tournament::alpha21264();
        let acc_t = accuracy(&mut t, &stream);
        let mut b = Bimodal::new(4096);
        let acc_b = accuracy(&mut b, &stream);
        assert!(acc_t > 0.88, "tournament accuracy {acc_t}");
        assert!(
            acc_t + 0.02 > acc_b,
            "tournament {acc_t} vs bimodal {acc_b}"
        );
    }

    #[test]
    fn tournament_handles_patterned_branch() {
        let stream: Vec<(u64, bool)> = (0..30_000).map(|i| (0x2000, i % 4 == 0)).collect();
        let mut t = Tournament::alpha21264();
        let acc = accuracy(&mut t, &stream);
        assert!(acc > 0.95, "tournament pattern accuracy {acc}");
    }

    #[test]
    fn perceptron_learns_biased_branches() {
        let mut p = Perceptron::new(512, 24);
        let acc = accuracy(&mut p, &biased_stream(50_000, 64, 0.95, 21));
        assert!(acc > 0.90, "perceptron accuracy {acc}");
    }

    #[test]
    fn perceptron_learns_long_patterns() {
        // A period-7 branch needs linearly separable history — easy for a
        // 24-bit perceptron, hard for a 2-bit counter.
        let stream: Vec<(u64, bool)> = (0..30_000).map(|i| (0x5000, i % 7 == 0)).collect();
        let mut p = Perceptron::new(512, 24);
        let acc = accuracy(&mut p, &stream);
        assert!(acc > 0.95, "perceptron pattern accuracy {acc}");
        let mut b = Bimodal::new(4096);
        let acc_b = accuracy(&mut b, &stream);
        assert!(acc > acc_b);
    }

    #[test]
    fn btb_miss_then_hit() {
        let mut btb = Btb::new(512);
        assert_eq!(btb.lookup(0x4000), None);
        btb.update(0x4000, 0x5000);
        assert_eq!(btb.lookup(0x4000), Some(0x5000));
        // A colliding PC evicts.
        let collide = 0x4000 + 512 * 4;
        btb.update(collide, 0x6000);
        assert_eq!(btb.lookup(0x4000), None);
        let s = btb.stats();
        assert_eq!((s.lookups, s.hits), (3, 1));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(
            s.since(&BtbStats {
                lookups: 1,
                hits: 0
            })
            .lookups,
            2
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = Bimodal::new(1000);
    }
}
