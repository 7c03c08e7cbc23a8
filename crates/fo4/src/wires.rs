//! Wire-delay modelling — the paper's §7 future work.
//!
//! The paper argues (citing Sylvester & Keutzer) that wires of a *fixed*
//! design scale neutrally: resistance per unit length rises as wires
//! shrink, but the wires get proportionally shorter, so the absolute delay
//! of each connection is roughly preserved — and therefore *grows* relative
//! to a shrinking clock period. Communication that used to be free starts
//! to cost pipeline stages: the Pentium 4's two "drive" stages are the
//! canonical example.
//!
//! This module provides the standard first-order model for optimally
//! repeated global wires: delay grows *linearly* with distance,
//!
//! ```text
//! t_wire(d) ≈ k_repeated × d        k_repeated ≈ 50–80 ps/mm at 130 nm
//! ```
//!
//! expressed here in FO4 per millimetre so it composes with the rest of
//! the study. The [`wire_study`](../../fo4depth_study/wires/index.html)
//! experiment charges a configurable communication budget to the front end
//! and re-derives the optimal logic depth.

use crate::metric::Fo4;
use crate::tech::TechNode;

/// First-order repeated-wire model.
///
/// # Examples
///
/// ```
/// use fo4depth_fo4::wires::WireModel;
/// let m = WireModel::default();
/// // Crossing a 15 mm die costs tens of FO4 — multiple cycles at a deep
/// // clock.
/// let d = m.delay(15.0);
/// assert!(d.get() > 20.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireModel {
    /// Delay of an optimally repeated global wire, FO4 per millimetre.
    pub fo4_per_mm: f64,
}

impl WireModel {
    /// A typical 2002-era global-wire figure: ≈ 65 ps/mm at 130 nm is
    /// ≈ 1.4 FO4/mm; repeater spacing keeps this roughly constant in FO4
    /// across nearby nodes. Rounded to 1.5 FO4/mm.
    #[must_use]
    pub fn new(fo4_per_mm: f64) -> Self {
        assert!(
            fo4_per_mm.is_finite() && fo4_per_mm > 0.0,
            "wire delay must be positive"
        );
        Self { fo4_per_mm }
    }

    /// Delay to cross `millimetres` of repeated global wire.
    #[must_use]
    pub fn delay(&self, millimetres: f64) -> Fo4 {
        assert!(millimetres >= 0.0, "distance must be non-negative");
        Fo4::new(self.fo4_per_mm * millimetres)
    }

    /// Picosecond delay at a technology node (for absolute reporting).
    #[must_use]
    pub fn delay_ps(&self, millimetres: f64, node: TechNode) -> f64 {
        self.delay(millimetres).to_picoseconds(node).get()
    }

    /// Pipeline stages needed to transport a signal `millimetres` at a
    /// clock with `t_useful` FO4 of logic per stage — the "drive stages"
    /// of a deeply pipelined design.
    ///
    /// # Panics
    ///
    /// Panics if `t_useful` is not positive.
    #[must_use]
    pub fn transport_stages(&self, millimetres: f64, t_useful: Fo4) -> u32 {
        if millimetres <= 0.0 {
            return 0;
        }
        crate::clock::cycles_for(self.delay(millimetres), t_useful)
    }
}

impl Default for WireModel {
    fn default() -> Self {
        Self::new(1.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_is_linear_in_distance() {
        let m = WireModel::default();
        let d1 = m.delay(2.0).get();
        let d2 = m.delay(4.0).get();
        assert!((d2 - 2.0 * d1).abs() < 1e-12);
    }

    #[test]
    fn transport_stages_grow_as_clock_deepens() {
        let m = WireModel::default();
        let deep = m.transport_stages(10.0, Fo4::new(3.0));
        let shallow = m.transport_stages(10.0, Fo4::new(12.0));
        assert!(deep > shallow);
        assert_eq!(m.transport_stages(0.0, Fo4::new(6.0)), 0);
    }

    #[test]
    fn pentium4_like_drive_stages() {
        // The P4 at ~16 FO4 clock dedicated ~2 stages to cross-chip
        // transport: about 10 mm of wire in this model.
        let m = WireModel::default();
        let stages = m.transport_stages(10.0, Fo4::new(10.0));
        assert!((1..=3).contains(&stages), "drive stages {stages}");
    }

    #[test]
    fn absolute_delay_reports_in_ps() {
        let m = WireModel::default();
        let ps = m.delay_ps(1.0, TechNode::NM_100);
        assert!((ps - 1.5 * 36.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_nonpositive_rate() {
        let _ = WireModel::new(0.0);
    }
}
