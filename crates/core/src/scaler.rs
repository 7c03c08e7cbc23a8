//! From a clock point to a complete core configuration.

use fo4depth_fo4::{cycles_for, ClockPeriod, Fo4, Rounding, TechNode, WireModel};
use fo4depth_pipeline::{CoreConfig, PipelineDepths, WindowConfig};
use fo4depth_uarch::cache::HierarchyConfig;
use fo4depth_uarch::fu::ExecLatencies;

use crate::latency::{LatencyTable, StructureSet, MEMORY_CYCLES};

/// How main-memory latency behaves across clock points.
///
/// The primary sweeps use [`MemoryConvention::ConstantCycles`] — the
/// cycle-based configuration convention of the era's simulators (see
/// DESIGN.md §4); [`MemoryConvention::AbsoluteTime`] holds the latency
/// fixed in FO4 and re-quantizes it per clock, which is what the §4.2 CRAY
/// experiment does and what the memory-convention ablation compares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemoryConvention {
    /// Fixed cycle count at every clock.
    ConstantCycles(u32),
    /// Fixed absolute latency, quantized per clock.
    AbsoluteTime(Fo4),
}

/// Knobs of the clock-scaling transformation beyond `t_useful` itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleOptions {
    /// Per-stage overhead.
    pub overhead: Fo4,
    /// Issue-window capacity (latency must come from a matching
    /// [`StructureSet`]).
    pub window_entries: u32,
    /// Main-memory scaling convention.
    pub memory: MemoryConvention,
    /// Latency→cycles quantization rule.
    pub rounding: Rounding,
    /// Global-wire distance (mm) the front end must drive per instruction
    /// delivery — 0 disables the §7 wire study's transport stages.
    pub transport_mm: f64,
    /// Wire model used to convert `transport_mm` into FO4.
    pub wires: WireModel,
}

impl Default for ScaleOptions {
    fn default() -> Self {
        Self {
            overhead: Fo4::new(1.8),
            window_entries: 32,
            memory: MemoryConvention::ConstantCycles(MEMORY_CYCLES),
            rounding: Rounding::Ceil,
            transport_mm: 0.0,
            wires: WireModel::default(),
        }
    }
}

/// A machine scaled to one candidate clock: the quantized latencies, the
/// derived [`CoreConfig`], and the absolute clock period.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaledMachine {
    /// Useful logic per stage.
    pub t_useful: Fo4,
    /// The full clock decomposition.
    pub clock: ClockPeriod,
    /// Quantized structure/FU latencies at this clock.
    pub latencies: LatencyTable,
    /// The runnable core configuration.
    pub config: CoreConfig,
}

impl ScaledMachine {
    /// Scales the machine with `structures` to the clock
    /// `t_useful + overhead`, with the §4 base capacities in the core
    /// (32-entry window, 80-entry ROB, 4-wide).
    ///
    /// Computed afresh on every call. Scaling is a handful of latency
    /// quantizations, cheaper than a shared memo's lock and hash, and
    /// keeping nothing means a long-lived daemon's memory does not grow
    /// with the number of distinct clock points it simulates.
    ///
    /// # Panics
    ///
    /// Panics if `t_useful` is zero.
    #[must_use]
    pub fn at(structures: &StructureSet, t_useful: Fo4, overhead: Fo4) -> Self {
        Self::with_options(
            structures,
            t_useful,
            ScaleOptions {
                overhead,
                ..ScaleOptions::default()
            },
        )
    }

    /// [`ScaledMachine::at`] with an explicit window capacity (the §4.5
    /// search varies it; window wakeup latency must then be quantized from
    /// the matching CAM).
    ///
    /// # Panics
    ///
    /// Panics if `t_useful` is zero or `window_entries` is zero.
    #[must_use]
    pub fn with_window_entries(
        structures: &StructureSet,
        t_useful: Fo4,
        overhead: Fo4,
        window_entries: u32,
    ) -> Self {
        Self::with_options(
            structures,
            t_useful,
            ScaleOptions {
                overhead,
                window_entries,
                ..ScaleOptions::default()
            },
        )
    }

    /// The general scaling entry point: every knob explicit.
    ///
    /// # Panics
    ///
    /// Panics if `t_useful` is zero or `options.window_entries` is zero.
    #[must_use]
    pub fn with_options(structures: &StructureSet, t_useful: Fo4, options: ScaleOptions) -> Self {
        let window_entries = options.window_entries;
        assert!(window_entries > 0, "window needs entries");
        let latencies = LatencyTable::at_rounded(structures, t_useful, options.rounding);
        let clock = ClockPeriod::new(t_useful, options.overhead);

        let mut config = CoreConfig::alpha_like();
        // §7 wire study: instruction delivery crosses `transport_mm` of
        // global wire between fetch and rename ("drive" stages).
        let transport = if options.transport_mm > 0.0 {
            u64::from(
                options
                    .wires
                    .transport_stages(options.transport_mm, t_useful),
            )
        } else {
            0
        };
        config.depths = PipelineDepths {
            fetch: u64::from(latencies.icache.max(latencies.predictor)),
            decode: u64::from(latencies.rename) + transport,
            rename: u64::from(latencies.rename),
            issue: u64::from(latencies.issue_window),
            regread: u64::from(latencies.regfile),
        };
        config.window = WindowConfig::Conventional {
            capacity: window_entries as usize,
            wakeup: u64::from(latencies.issue_window),
        };
        config.exec = ExecLatencies {
            int_alu: u64::from(latencies.int_add),
            int_mult: u64::from(latencies.int_mult),
            fp_add: u64::from(latencies.fp_add),
            fp_mult: u64::from(latencies.fp_mult),
            fp_div: u64::from(latencies.fp_div),
            fp_sqrt: u64::from(latencies.fp_sqrt),
            agen: u64::from(latencies.int_add),
        };
        config.hierarchy = HierarchyConfig {
            l1_capacity: structures.dcache_capacity,
            l2_capacity: structures.l2_capacity,
            l1_latency: u64::from(latencies.dcache),
            l2_latency: u64::from(latencies.l2),
            // Main memory follows the era's cycle-based simulator
            // convention (sim-alpha configures DRAM in cycles) by default;
            // see DESIGN.md and the memory-convention ablation.
            memory_latency: match options.memory {
                MemoryConvention::ConstantCycles(c) => u64::from(c),
                MemoryConvention::AbsoluteTime(fo4) => u64::from(cycles_for(fo4, t_useful)),
            },
            ..config.hierarchy
        };
        // Predictor tables scale with the chosen capacity (local sites and
        // the global/choice tables keep the 21264's 1:4 shape).
        let pred = structures.predictor_entries.max(64) as usize;
        config.predictor = fo4depth_pipeline::config::PredictorConfig::Tournament {
            local_sites: pred,
            local_history_bits: 10,
            global_entries: (pred * 4).next_power_of_two(),
        };
        // Re-steering the fetch pipeline after a predicted-taken branch
        // costs about half the fetch depth (one bubble on the 2-stage
        // Alpha front end, six on a 12-stage one).
        config.taken_bubble = (config.depths.fetch / 2).max(1);
        config.rob_capacity = config.rob_capacity.max(window_entries as usize);
        debug_assert!(config.validate().is_ok());

        Self {
            t_useful,
            clock,
            latencies,
            config,
        }
    }

    /// Clock period in picoseconds at the study's 100 nm node.
    #[must_use]
    pub fn period_ps(&self) -> f64 {
        self.clock.period(TechNode::NM_100).get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::ALPHA_USEFUL_FO4;

    #[test]
    fn alpha_clock_reproduces_alpha_preset_shape() {
        let m = ScaledMachine::at(
            &StructureSet::alpha_21264(),
            Fo4::new(ALPHA_USEFUL_FO4),
            Fo4::new(1.8),
        );
        // The derived machine should match the hand-written Alpha preset's
        // critical latencies.
        assert_eq!(m.config.depths.regread, 1);
        assert_eq!(m.config.hierarchy.l1_latency, 3);
        assert_eq!(
            m.config.window,
            fo4depth_pipeline::WindowConfig::Conventional {
                capacity: 32,
                wakeup: 1
            }
        );
        assert_eq!(m.config.exec.int_mult, 7);
    }

    #[test]
    fn deeper_clock_means_longer_loops_and_shorter_period() {
        let s = StructureSet::alpha_21264();
        let deep = ScaledMachine::at(&s, Fo4::new(2.0), Fo4::new(1.8));
        let shallow = ScaledMachine::at(&s, Fo4::new(12.0), Fo4::new(1.8));
        assert!(deep.period_ps() < shallow.period_ps());
        assert!(deep.config.depths.front_end() > shallow.config.depths.front_end());
        assert!(deep.config.hierarchy.l1_latency > shallow.config.hierarchy.l1_latency);
    }

    #[test]
    fn optimal_point_frequency_is_3_56_ghz() {
        let m = ScaledMachine::at(&StructureSet::alpha_21264(), Fo4::new(6.0), Fo4::new(1.8));
        let ghz = 1000.0 / m.period_ps();
        assert!((ghz - 3.56).abs() < 0.01, "frequency {ghz} GHz");
    }

    #[test]
    fn window_capacity_flows_through() {
        let m = ScaledMachine::with_window_entries(
            &StructureSet::alpha_21264(),
            Fo4::new(6.0),
            Fo4::new(1.8),
            64,
        );
        assert_eq!(m.config.window.capacity(), 64);
        assert!(m.config.validate().is_ok());
    }
}
