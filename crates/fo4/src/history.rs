//! The historical processor dataset behind the paper's Figure 1.
//!
//! Figure 1 plots the clock period, in FO4, of seven generations of Intel
//! x86 processors (1990–2002) against year of introduction and fabrication
//! technology, and overlays the paper's optimal 7.8 FO4 clock period. The
//! span — from ≈ 84 FO4 (i486, 33 MHz, 1 µm) down to ≈ 11 FO4 (Pentium 4,
//! 2 GHz, 130 nm) — shows technology scaling and deeper pipelining each
//! contributed roughly an 8× / 7× factor.

use crate::metric::{Fo4, Picoseconds};
use crate::tech::TechNode;

/// One generation in the Figure 1 dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessorDatum {
    /// Year of introduction.
    pub year: u32,
    /// Fabrication technology.
    pub node: TechNode,
    /// Nominal clock frequency in MHz.
    pub frequency_mhz: f64,
    /// Marketing name of the representative part.
    pub name: &'static str,
}

impl ProcessorDatum {
    /// Clock period in picoseconds.
    #[must_use]
    pub fn period(&self) -> Picoseconds {
        Picoseconds::new(1.0e6 / self.frequency_mhz)
    }

    /// Clock period expressed in FO4 at the part's own technology — the
    /// y-axis of Figure 1.
    #[must_use]
    pub fn period_fo4(&self) -> Fo4 {
        self.period().to_fo4(self.node)
    }
}

/// The seven Intel generations plotted in Figure 1, oldest first.
///
/// Frequencies and nodes are the ones labelled on the figure: 33 MHz/1990/
/// 1000 nm through 2 GHz/2002/130 nm.
///
/// # Examples
///
/// ```
/// use fo4depth_fo4::intel_history;
/// let hist = intel_history();
/// // "clock frequency has increased by approximately a factor of 60":
/// let gain = hist.last().unwrap().frequency_mhz / hist[0].frequency_mhz;
/// assert!(gain > 55.0 && gain < 65.0);
/// ```
#[must_use]
pub fn intel_history() -> Vec<ProcessorDatum> {
    vec![
        ProcessorDatum {
            year: 1990,
            node: TechNode::NM_1000,
            frequency_mhz: 33.0,
            name: "i486",
        },
        ProcessorDatum {
            year: 1992,
            node: TechNode::NM_800,
            frequency_mhz: 66.0,
            name: "i486DX2",
        },
        ProcessorDatum {
            year: 1994,
            node: TechNode::NM_600,
            frequency_mhz: 100.0,
            name: "Pentium",
        },
        ProcessorDatum {
            year: 1996,
            node: TechNode::NM_350,
            frequency_mhz: 200.0,
            name: "Pentium Pro",
        },
        ProcessorDatum {
            year: 1998,
            node: TechNode::NM_250,
            frequency_mhz: 450.0,
            name: "Pentium II",
        },
        ProcessorDatum {
            year: 2000,
            node: TechNode::NM_180,
            frequency_mhz: 1000.0,
            name: "Pentium III",
        },
        ProcessorDatum {
            year: 2002,
            node: TechNode::NM_130,
            frequency_mhz: 2000.0,
            name: "Pentium 4",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i486_is_about_84_fo4() {
        // Paper §1: "The amount of logic per pipeline stage decreased from 84
        // to 12 FO4" — the 1990 point is ~84 FO4 of clock period.
        let hist = intel_history();
        let first = hist[0].period_fo4().get();
        assert!((83.0..86.0).contains(&first), "i486 period {first} FO4");
    }

    #[test]
    fn pentium4_approaches_optimum() {
        // The 2002 point sits near (just above) the 7.8 FO4 optimal line.
        let hist = intel_history();
        let last = hist.last().unwrap().period_fo4().get();
        assert!((9.0..13.0).contains(&last), "P4 period {last} FO4");
        assert!(last > 7.8);
    }

    #[test]
    fn period_in_fo4_decreases_monotonically() {
        let hist = intel_history();
        for w in hist.windows(2) {
            assert!(w[1].period_fo4() < w[0].period_fo4());
        }
    }

    #[test]
    fn logic_depth_reduction_factor_about_7() {
        // Technology contributed ~8x, logic-depth reduction ~7x of the ~60x
        // frequency gain.
        let hist = intel_history();
        let depth_factor = hist[0].period_fo4().get() / hist.last().unwrap().period_fo4().get();
        assert!(
            (6.0..9.0).contains(&depth_factor),
            "depth factor {depth_factor}"
        );
    }
}
