//! Structure and functional-unit latencies, and their quantization into
//! cycles at each candidate clock — the machinery behind Table 3.

use fo4depth_cacti::{access_time, cam_access_time, presets};
use fo4depth_fo4::{cycles_for, cycles_for_rounded, Fo4, Picoseconds, Rounding, TechNode};
use fo4depth_isa::OpClass;

/// Useful FO4 per cycle of the Alpha 21264 reference machine.
///
/// The paper derives it by attributing 10 % of the 800 MHz / 180 nm part's
/// 1250 ps period to latch overhead: 1250 ps × 0.9 / 64.8 ps ≈ 17.4 FO4.
/// The functional-unit rows of Table 3 follow exactly
/// `ceil(17.4 × alpha_cycles / t_useful)`.
pub const ALPHA_USEFUL_FO4: f64 = 17.4;

/// Flat memory latency in FO4 when modelled as absolute time — ≈ 70 ns at
/// 100 nm (36 ps/FO4), a 2002-era DRAM round trip. Used by the §4.2
/// CRAY-style experiment and available for sensitivity studies.
pub const MEMORY_LATENCY_FO4: f64 = 1950.0;

/// Main-memory latency in cycles for the primary sweeps: the Alpha-point
/// quantization of [`MEMORY_LATENCY_FO4`] (113 cycles at 17.4 FO4), held
/// constant across clocks per the era's cycle-based simulator convention.
pub const MEMORY_CYCLES: u32 = 113;

/// Access times (in FO4) of every clocked structure the study scales.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StructureSet {
    /// L1 instruction cache (fetch path).
    pub icache: Fo4,
    /// L1 data cache.
    pub dcache: Fo4,
    /// Unified L2.
    pub l2: Fo4,
    /// Branch predictor (serial local chain + chooser).
    pub predictor: Fo4,
    /// Register rename map.
    pub rename: Fo4,
    /// Instruction issue window (wakeup path).
    pub issue_window: Fo4,
    /// Register file.
    pub regfile: Fo4,
    /// Flat memory (does not scale with the clock; quantized per clock).
    pub memory: Fo4,
    /// D-cache capacity in bytes (drives both its latency above and the
    /// simulated hierarchy's hit behaviour).
    pub dcache_capacity: u64,
    /// L2 capacity in bytes.
    pub l2_capacity: u64,
    /// Predictor table entries.
    pub predictor_entries: u64,
    /// Issue-window entries the `issue_window` latency was computed for.
    pub window_entries: u32,
}

impl StructureSet {
    /// The base Alpha-21264-derived configuration of §3.1/§3.2: 64 KB
    /// caches, 2 MB L2, 512-entry register files, 32-entry window.
    ///
    /// The Cacti access-time evaluations behind it are computed once per
    /// process and reused (every sweep point and report re-requests them).
    #[must_use]
    pub fn alpha_21264() -> Self {
        static BASE: std::sync::OnceLock<StructureSet> = std::sync::OnceLock::new();
        *BASE.get_or_init(|| Self {
            icache: access_time(&presets::data_cache_64kb()).total,
            dcache: access_time(&presets::data_cache_64kb()).total,
            l2: access_time(&presets::l2_cache_2mb()).total,
            predictor: presets::branch_predictor_latency(),
            rename: cam_access_time(&presets::rename_table()).total,
            issue_window: cam_access_time(&presets::issue_window(32)).total,
            regfile: access_time(&presets::register_file_512()).total,
            memory: Fo4::new(MEMORY_LATENCY_FO4),
            dcache_capacity: 64 * 1024,
            l2_capacity: 2 * 1024 * 1024,
            predictor_entries: 1024,
            window_entries: 32,
        })
    }

    /// The structure set a cell's `structures_tag` names, or `None` for a
    /// tag no set answers to. The tag is how a cell names its structures
    /// without carrying them; this lookup is the one place tags resolve.
    #[must_use]
    pub fn for_tag(tag: &str) -> Option<Self> {
        match tag {
            "alpha_21264" => Some(Self::alpha_21264()),
            _ => None,
        }
    }

    /// Same structures with an arbitrary capacity choice (the §4.5 search):
    /// D-cache capacity in bytes, L2 capacity in bytes, window entries, and
    /// predictor table entries.
    ///
    /// Memoized per capacity tuple: the §4.5 capacity search and Figure 7
    /// revisit the same tuples at every clock point.
    ///
    /// # Panics
    ///
    /// Panics on degenerate capacities (zero, or not a whole set count).
    #[must_use]
    pub fn with_capacities(
        dcache_bytes: u64,
        l2_bytes: u64,
        window_entries: u32,
        predictor_entries: u64,
    ) -> Self {
        type Key = (u64, u64, u32, u64);
        static CACHE: std::sync::OnceLock<
            std::sync::Mutex<std::collections::HashMap<Key, StructureSet>>,
        > = std::sync::OnceLock::new();
        let key = (dcache_bytes, l2_bytes, window_entries, predictor_entries);
        let cache = CACHE.get_or_init(|| std::sync::Mutex::new(std::collections::HashMap::new()));
        if let Some(hit) = cache.lock().expect("capacity cache lock").get(&key) {
            return *hit;
        }
        let set = Self {
            dcache: access_time(&presets::data_cache(dcache_bytes)).total,
            l2: access_time(&presets::l2_cache(l2_bytes)).total,
            issue_window: cam_access_time(&presets::issue_window(window_entries)).total,
            predictor: presets::branch_predictor_latency_scaled(predictor_entries),
            dcache_capacity: dcache_bytes,
            l2_capacity: l2_bytes,
            predictor_entries,
            window_entries,
            ..Self::alpha_21264()
        };
        cache.lock().expect("capacity cache lock").insert(key, set);
        set
    }
}

/// One row of Table 3: a structure's (or operation's) latency in cycles at
/// each candidate `t_useful`, plus the Alpha 21264 column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRow {
    /// Row label.
    pub name: String,
    /// Cycles at `t_useful` = 2..=16 FO4.
    pub cycles: Vec<u32>,
    /// Cycles on the 17.4 FO4 Alpha.
    pub alpha: u32,
}

/// Structure latencies quantized for one clock point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyTable {
    /// I-cache (fetch) cycles.
    pub icache: u32,
    /// D-cache hit cycles.
    pub dcache: u32,
    /// L2 hit cycles.
    pub l2: u32,
    /// Predictor cycles.
    pub predictor: u32,
    /// Rename cycles.
    pub rename: u32,
    /// Issue-window wakeup cycles.
    pub issue_window: u32,
    /// Register file cycles.
    pub regfile: u32,
    /// Flat memory cycles.
    pub memory: u32,
    /// Integer add cycles.
    pub int_add: u32,
    /// Integer multiply cycles.
    pub int_mult: u32,
    /// FP add cycles.
    pub fp_add: u32,
    /// FP multiply cycles.
    pub fp_mult: u32,
    /// FP divide cycles.
    pub fp_div: u32,
    /// FP square root cycles.
    pub fp_sqrt: u32,
}

/// FO4 latency of a functional-unit class (Alpha cycles × 17.4 FO4).
#[must_use]
pub fn fu_latency_fo4(op: OpClass) -> Fo4 {
    Fo4::new(ALPHA_USEFUL_FO4 * f64::from(op.alpha_cycles()))
}

impl LatencyTable {
    /// Quantizes `structures` and the functional units at the given
    /// `t_useful` — the paper's §3.3 rule.
    ///
    /// # Panics
    ///
    /// Panics if `t_useful` is zero.
    #[must_use]
    pub fn at(structures: &StructureSet, t_useful: Fo4) -> Self {
        Self::at_rounded(structures, t_useful, Rounding::Ceil)
    }

    /// [`LatencyTable::at`] with an explicit quantization rule (for the
    /// rounding-sensitivity ablation).
    ///
    /// # Panics
    ///
    /// Panics if `t_useful` is zero.
    #[must_use]
    pub fn at_rounded(structures: &StructureSet, t_useful: Fo4, rounding: Rounding) -> Self {
        let q = |l: Fo4| cycles_for_rounded(l, t_useful, rounding);
        Self {
            icache: q(structures.icache),
            dcache: q(structures.dcache),
            l2: q(structures.l2),
            predictor: q(structures.predictor),
            rename: q(structures.rename),
            issue_window: q(structures.issue_window),
            regfile: q(structures.regfile),
            memory: q(structures.memory),
            int_add: q(fu_latency_fo4(OpClass::IntAlu)),
            int_mult: q(fu_latency_fo4(OpClass::IntMult)),
            fp_add: q(fu_latency_fo4(OpClass::FpAdd)),
            fp_mult: q(fu_latency_fo4(OpClass::FpMult)),
            fp_div: q(fu_latency_fo4(OpClass::FpDiv)),
            fp_sqrt: q(fu_latency_fo4(OpClass::FpSqrt)),
        }
    }
}

/// Generates the full Table 3: every structure and functional unit at
/// `t_useful` = 2..=16 FO4 plus the Alpha column.
#[must_use]
pub fn table3(structures: &StructureSet) -> Vec<TableRow> {
    let alpha = Fo4::new(ALPHA_USEFUL_FO4);
    let points: Vec<Fo4> = (2..=16).map(|t| Fo4::new(f64::from(t))).collect();
    let row = |name: &str, latency: Fo4| TableRow {
        name: name.to_string(),
        cycles: points.iter().map(|&t| cycles_for(latency, t)).collect(),
        alpha: cycles_for(latency, alpha),
    };
    vec![
        row("DL1", structures.dcache),
        row("Branch predictor", structures.predictor),
        row("Rename table", structures.rename),
        row("Issue window", structures.issue_window),
        row("Register file", structures.regfile),
        row("Int add", fu_latency_fo4(OpClass::IntAlu)),
        row("Int mult", fu_latency_fo4(OpClass::IntMult)),
        row("FP add", fu_latency_fo4(OpClass::FpAdd)),
        row("FP mult", fu_latency_fo4(OpClass::FpMult)),
        row("FP div", fu_latency_fo4(OpClass::FpDiv)),
        row("FP sqrt", fu_latency_fo4(OpClass::FpSqrt)),
    ]
}

/// The paper's own Table 3 integer/FP functional-unit rows, used by tests
/// and EXPERIMENTS.md to verify the quantization rule cell-by-cell.
#[must_use]
pub fn paper_fu_rows() -> Vec<(&'static str, Vec<u32>, u32)> {
    vec![
        (
            "Int add",
            vec![9, 6, 5, 4, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2],
            1,
        ),
        (
            "Int mult",
            vec![61, 41, 31, 25, 21, 18, 16, 14, 13, 12, 11, 10, 9, 9, 8],
            7,
        ),
        (
            "FP add",
            vec![35, 24, 18, 14, 12, 10, 9, 8, 7, 7, 6, 6, 5, 5, 5],
            4,
        ),
        (
            "FP mult",
            vec![35, 24, 18, 14, 12, 10, 9, 8, 7, 7, 6, 6, 5, 5, 5],
            4,
        ),
        (
            "FP div",
            vec![105, 70, 53, 42, 35, 30, 27, 24, 21, 19, 18, 17, 15, 14, 14],
            12,
        ),
        (
            "FP sqrt",
            vec![157, 105, 79, 63, 53, 45, 40, 35, 32, 29, 27, 25, 23, 21, 20],
            18,
        ),
    ]
}

/// Absolute memory latency backing [`MEMORY_LATENCY_FO4`], for docs/tests.
#[must_use]
pub fn memory_latency_ps() -> Picoseconds {
    Fo4::new(MEMORY_LATENCY_FO4).to_picoseconds(TechNode::NM_100)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fu_rows_match_paper_exactly() {
        let rows = table3(&StructureSet::alpha_21264());
        for (name, expected, alpha) in paper_fu_rows() {
            let row = rows.iter().find(|r| r.name == name).expect("row exists");
            assert_eq!(row.cycles, expected, "{name} cycles");
            assert_eq!(row.alpha, alpha, "{name} alpha column");
        }
    }

    #[test]
    fn alpha_column_matches_21264_structures() {
        let t = LatencyTable::at(&StructureSet::alpha_21264(), Fo4::new(ALPHA_USEFUL_FO4));
        assert_eq!(t.dcache, 3, "21264 DL1 is 3 cycles");
        assert_eq!(t.issue_window, 1, "21264 window is single-cycle");
        assert_eq!(t.rename, 1);
        assert_eq!(t.regfile, 1);
        assert_eq!(t.predictor, 1);
        assert_eq!(t.int_add, 1);
        assert_eq!(t.int_mult, 7);
        assert_eq!(t.fp_div, 12);
    }

    #[test]
    fn optimal_clock_structure_latencies_match_section_4_5_anchors() {
        // §4.5: at t_useful = 6 FO4, a 64 KB DL1 is 6 cycles and a 512 KB L2
        // is 12 cycles.
        let s = StructureSet::with_capacities(64 * 1024, 512 * 1024, 32, 1024);
        let t = LatencyTable::at(&s, Fo4::new(6.0));
        assert_eq!(t.dcache, 6);
        assert_eq!(t.l2, 12);
    }

    #[test]
    fn latencies_grow_as_clock_tightens() {
        let s = StructureSet::alpha_21264();
        let deep = LatencyTable::at(&s, Fo4::new(2.0));
        let shallow = LatencyTable::at(&s, Fo4::new(16.0));
        assert!(deep.dcache > shallow.dcache);
        assert!(deep.issue_window > shallow.issue_window);
        assert!(deep.memory > shallow.memory);
    }

    #[test]
    fn memory_latency_is_2002_dram_scale() {
        let ns = memory_latency_ps().nanoseconds();
        assert!((50.0..=100.0).contains(&ns), "memory = {ns} ns");
    }

    #[test]
    fn tags_resolve_to_their_sets() {
        assert_eq!(
            StructureSet::for_tag("alpha_21264"),
            Some(StructureSet::alpha_21264())
        );
        assert_eq!(StructureSet::for_tag("no_such_set"), None);
    }

    #[test]
    fn capacity_variants_change_latency() {
        let small = StructureSet::with_capacities(16 * 1024, 256 * 1024, 16, 512);
        let big = StructureSet::with_capacities(128 * 1024, 2 * 1024 * 1024, 64, 4096);
        assert!(small.dcache < big.dcache);
        assert!(small.l2 < big.l2);
        assert!(small.issue_window < big.issue_window);
    }
}
