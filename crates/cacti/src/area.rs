//! First-order area and access-energy estimates — the "integrated cache
//! timing, power and area model" half of Cacti 3.0's title.
//!
//! The pipeline-depth study consumes these through the floorplan module of
//! `fo4depth-study`: structure areas determine cross-chip wire distances,
//! which the §7 wire study turns into transport stages.
//!
//! Units: area in mm² at a given [`TechNode`]; energy in picojoules per
//! access. Both follow the standard first-order scalings — area ∝ bits ×
//! cell size (with port growth in both dimensions), energy ∝ switched
//! capacitance ∝ accessed bits plus decode overhead.

use fo4depth_fo4::TechNode;

use crate::cam::CamConfig;
use crate::sram::SramConfig;

/// Area/energy coefficients at the 100 nm reference node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaCoefficients {
    /// Area of a single-ported 6T SRAM cell, µm² at 100 nm.
    pub cell_um2: f64,
    /// Linear cell-pitch growth per additional port (applies in both
    /// dimensions, so area grows quadratically with ports).
    pub port_pitch_growth: f64,
    /// Overhead factor for decoders, sense amps, and wiring around the
    /// arrays.
    pub periphery_factor: f64,
    /// CAM cell area relative to an SRAM cell (match line + comparator).
    pub cam_cell_factor: f64,
    /// Energy to swing one accessed bit (read path), pJ at 100 nm.
    pub energy_per_bit_pj: f64,
    /// Fixed decode/wordline energy per access, pJ at 100 nm.
    pub energy_decode_pj: f64,
}

impl Default for AreaCoefficients {
    fn default() -> Self {
        Self {
            cell_um2: 1.0,
            port_pitch_growth: 0.3,
            periphery_factor: 1.45,
            cam_cell_factor: 1.8,
            energy_per_bit_pj: 0.006,
            energy_decode_pj: 1.2,
        }
    }
}

/// Area and per-access energy of a structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaEstimate {
    /// Silicon area in mm².
    pub area_mm2: f64,
    /// Read energy per access in pJ.
    pub energy_pj: f64,
}

fn scale_area(node: TechNode) -> f64 {
    // Area scales with the square of feature size relative to 100 nm.
    let r = node.nanometers() / 100.0;
    r * r
}

/// Estimates an SRAM structure's area and access energy.
///
/// # Examples
///
/// ```
/// use fo4depth_cacti::area::sram_area;
/// use fo4depth_cacti::SramConfig;
/// use fo4depth_fo4::TechNode;
///
/// let dl1 = sram_area(&SramConfig::cache(64 * 1024, 2, 64), TechNode::NM_100);
/// // A 64 KB cache at 100 nm is on the order of a square millimetre.
/// assert!((0.3..4.0).contains(&dl1.area_mm2));
/// ```
#[must_use]
pub fn sram_area(cfg: &SramConfig, node: TechNode) -> AreaEstimate {
    sram_area_k(cfg, node, &AreaCoefficients::default())
}

/// [`sram_area`] with explicit coefficients.
#[must_use]
pub fn sram_area_k(cfg: &SramConfig, node: TechNode, k: &AreaCoefficients) -> AreaEstimate {
    let bits = cfg.kilobits() * 1024.0;
    let tag_bits = if cfg.tagged {
        cfg.entries as f64 * f64::from(cfg.associativity) * f64::from(cfg.tag_bits)
    } else {
        0.0
    };
    let port_factor = 1.0 + k.port_growth_linear(cfg.ports);
    let cell = k.cell_um2 * port_factor * port_factor;
    let area_um2 = (bits + tag_bits) * cell * k.periphery_factor * scale_area(node);
    // Read path: one line (or word) of data plus the tag way and decode.
    let accessed_bits = f64::from(cfg.bits_per_entry) + f64::from(cfg.tag_bits);
    let energy_pj =
        k.energy_decode_pj + accessed_bits * k.energy_per_bit_pj * f64::from(cfg.ports).sqrt();
    AreaEstimate {
        area_mm2: area_um2 / 1.0e6,
        energy_pj,
    }
}

/// Estimates a CAM structure's area and search energy.
///
/// CAM searches broadcast to *every* entry, so energy scales with the full
/// array, not one row — the physical reason the paper's segmented window
/// also saves power.
#[must_use]
pub fn cam_area(cfg: &CamConfig, node: TechNode) -> AreaEstimate {
    cam_area_k(cfg, node, &AreaCoefficients::default())
}

/// [`cam_area`] with explicit coefficients.
#[must_use]
pub fn cam_area_k(cfg: &CamConfig, node: TechNode, k: &AreaCoefficients) -> AreaEstimate {
    let bits = f64::from(cfg.entries) * f64::from(cfg.entry_bits);
    let port_factor = 1.0 + k.port_growth_linear(cfg.broadcast_ports);
    let cell = k.cell_um2 * k.cam_cell_factor * port_factor * port_factor;
    let area_um2 = bits * cell * k.periphery_factor * scale_area(node);
    // Search: every entry's comparator switches on every broadcast.
    let searched_bits = f64::from(cfg.entries) * f64::from(cfg.tag_bits);
    let energy_pj =
        k.energy_decode_pj + searched_bits * k.energy_per_bit_pj * f64::from(cfg.broadcast_ports);
    AreaEstimate {
        area_mm2: area_um2 / 1.0e6,
        energy_pj,
    }
}

impl AreaCoefficients {
    fn port_growth_linear(&self, ports: u32) -> f64 {
        self.port_pitch_growth * (f64::from(ports) - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn area_scales_with_capacity() {
        let small = sram_area(&presets::data_cache(16 * 1024), TechNode::NM_100);
        let large = sram_area(&presets::data_cache(128 * 1024), TechNode::NM_100);
        let ratio = large.area_mm2 / small.area_mm2;
        assert!((6.0..10.0).contains(&ratio), "area ratio {ratio}");
    }

    #[test]
    fn area_scales_quadratically_with_feature_size() {
        let cfg = presets::data_cache_64kb();
        let a100 = sram_area(&cfg, TechNode::NM_100).area_mm2;
        let a200 = sram_area(&cfg, TechNode::from_nm(200.0)).area_mm2;
        assert!((a200 / a100 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn ports_grow_area_quadratically() {
        let one = sram_area(&crate::SramConfig::ram(512, 64, 1), TechNode::NM_100).area_mm2;
        let many = sram_area(&crate::SramConfig::ram(512, 64, 12), TechNode::NM_100).area_mm2;
        // 12 ports with 0.3 pitch growth per port: (1 + 3.3)² ≈ 18.5×.
        assert!((15.0..25.0).contains(&(many / one)), "ratio {}", many / one);
    }

    #[test]
    fn cam_search_energy_scales_with_entries() {
        let small = cam_area(&presets::issue_window(16), TechNode::NM_100).energy_pj;
        let large = cam_area(&presets::issue_window(64), TechNode::NM_100).energy_pj;
        assert!(large > small * 2.0);
    }

    #[test]
    fn l2_dominates_the_floorplan() {
        let l2 = sram_area(&presets::l2_cache_2mb(), TechNode::NM_100).area_mm2;
        let dl1 = sram_area(&presets::data_cache_64kb(), TechNode::NM_100).area_mm2;
        let iw = cam_area(&presets::issue_window(32), TechNode::NM_100).area_mm2;
        assert!(l2 > 10.0 * dl1, "L2 {l2} vs DL1 {dl1}");
        assert!(dl1 > iw, "DL1 {dl1} vs window {iw}");
        // And the whole set is die-plausible at 100 nm (tens of mm²).
        assert!((5.0..120.0).contains(&(l2 + dl1 + iw)));
    }

    #[test]
    fn sram_energy_is_row_not_array() {
        // A 2 MB L2 read should not cost 32× a 64 KB read — only the
        // accessed line plus decode.
        let l2 = sram_area(&presets::l2_cache_2mb(), TechNode::NM_100).energy_pj;
        let dl1 = sram_area(&presets::data_cache_64kb(), TechNode::NM_100).energy_pj;
        assert!(l2 < dl1 * 3.0, "L2 {l2} pJ vs DL1 {dl1} pJ");
    }
}
