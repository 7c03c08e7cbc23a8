//! A first-order floorplan: from structure areas to the wire distances the
//! §7 wire study charges.
//!
//! The paper's §7 notes that wire delay is roughly preserved when a fixed
//! design shrinks — the problem is *design growth*: bigger structures push
//! each other apart, and signals that used to travel within a stage start
//! crossing millimetres. This module estimates those distances from the
//! `fo4depth-cacti` area model: the core cluster (window, register files,
//! FUs, DL1) forms one region, the L2 wraps around it, and the
//! representative communication distance between two blocks is the
//! geometric mean of their region spans.

use fo4depth_cacti::area::{cam_area, sram_area};
use fo4depth_cacti::presets;
use fo4depth_fo4::{Fo4, TechNode, WireModel};

use crate::capacity::CapacityChoice;

/// Structure areas and the derived communication distances for one
/// configuration at one technology node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Floorplan {
    /// D-cache area (mm²).
    pub dcache_mm2: f64,
    /// I-cache area (mm²).
    pub icache_mm2: f64,
    /// Unified L2 area (mm²).
    pub l2_mm2: f64,
    /// Issue window area (mm²).
    pub window_mm2: f64,
    /// Both register files (mm²).
    pub regfiles_mm2: f64,
    /// Predictor tables (mm²).
    pub predictor_mm2: f64,
    /// Core-cluster area: everything except the L2 (mm²).
    pub core_mm2: f64,
    /// Total modelled silicon (mm²).
    pub total_mm2: f64,
}

impl Floorplan {
    /// Builds the floorplan for a capacity choice at `node`.
    #[must_use]
    pub fn of(choice: &CapacityChoice, node: TechNode) -> Self {
        let dcache = sram_area(&presets::data_cache(choice.dcache), node).area_mm2;
        let icache = sram_area(&presets::data_cache_64kb(), node).area_mm2;
        let l2 = sram_area(&presets::l2_cache(choice.l2), node).area_mm2;
        let window = cam_area(&presets::issue_window(choice.window), node).area_mm2;
        let regfiles = 2.0 * sram_area(&presets::register_file_512(), node).area_mm2;
        let predictor = sram_area(
            &fo4depth_cacti::SramConfig::ram(choice.predictor.max(64), 13, 1),
            node,
        )
        .area_mm2;
        // Functional units and control are roughly another core-cluster's
        // worth of logic in this era's floorplans.
        let logic = 1.5 * (window + regfiles);
        let core = dcache + icache + window + regfiles + predictor + logic;
        Self {
            dcache_mm2: dcache,
            icache_mm2: icache,
            l2_mm2: l2,
            window_mm2: window,
            regfiles_mm2: regfiles,
            predictor_mm2: predictor,
            core_mm2: core,
            total_mm2: core + l2,
        }
    }

    /// Span (mm) of the core cluster — the side of a square of its area.
    #[must_use]
    pub fn core_span_mm(&self) -> f64 {
        self.core_mm2.sqrt()
    }

    /// Span (mm) of the whole die.
    #[must_use]
    pub fn die_span_mm(&self) -> f64 {
        self.total_mm2.sqrt()
    }

    /// Representative front-end transport distance: fetch (I-cache +
    /// predictor) to the rename/dispatch cluster — roughly one core-cluster
    /// crossing.
    #[must_use]
    pub fn front_end_distance_mm(&self) -> f64 {
        self.core_span_mm()
    }

    /// Distance from the core to the far edge of the L2 — the load path a
    /// miss travels.
    #[must_use]
    pub fn l2_distance_mm(&self) -> f64 {
        0.5 * (self.core_span_mm() + self.die_span_mm())
    }

    /// The front-end transport budget in FO4 under a wire model.
    #[must_use]
    pub fn front_end_wire_fo4(&self, wires: &WireModel) -> Fo4 {
        wires.delay(self.front_end_distance_mm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_floorplan_is_die_plausible() {
        // The 21264 was ~115 mm² at 350 nm; an Alpha-class core plus a 2 MB
        // L2 at 100 nm should land in the tens of mm².
        let f = Floorplan::of(&CapacityChoice::base(), TechNode::NM_100);
        assert!(
            (10.0..120.0).contains(&f.total_mm2),
            "total {} mm2",
            f.total_mm2
        );
        assert!(f.l2_mm2 > f.core_mm2 * 0.5, "a 2 MB L2 dominates");
        assert!(f.die_span_mm() > f.core_span_mm());
    }

    #[test]
    fn bigger_caches_mean_longer_wires() {
        let small = Floorplan::of(
            &CapacityChoice {
                dcache: 16 * 1024,
                l2: 256 * 1024,
                window: 16,
                predictor: 512,
            },
            TechNode::NM_100,
        );
        let big = Floorplan::of(
            &CapacityChoice {
                dcache: 128 * 1024,
                l2: 2 * 1024 * 1024,
                window: 64,
                predictor: 4096,
            },
            TechNode::NM_100,
        );
        assert!(big.front_end_distance_mm() > small.front_end_distance_mm());
        assert!(big.l2_distance_mm() > small.l2_distance_mm());
    }

    #[test]
    fn wire_budget_is_multiple_fo4_at_scale() {
        // Crossing the core cluster costs a few FO4 — about one pipeline
        // stage at the optimal clock, several at a deep clock.
        let f = Floorplan::of(&CapacityChoice::base(), TechNode::NM_100);
        let fo4 = f.front_end_wire_fo4(&WireModel::default());
        assert!(
            (1.0..20.0).contains(&fo4.get()),
            "front-end wire {} FO4",
            fo4.get()
        );
    }
}
