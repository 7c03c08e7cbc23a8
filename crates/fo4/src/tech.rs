//! CMOS technology nodes and the FO4 scaling rule.

use std::fmt;

/// A CMOS fabrication technology node, identified by **drawn gate length**.
///
/// The paper (footnote 1, citing Ho, Mai & Horowitz) assumes one FO4 delay is
/// roughly `360 ps × L_drawn(µm)`. Note the deliberate use of *drawn* rather
/// than *effective* gate length — the paper's §7 discusses how tuned
/// processes (e.g. Intel's 130 nm) blur the two; all numbers here follow the
/// paper's convention.
///
/// # Examples
///
/// ```
/// use fo4depth_fo4::TechNode;
/// assert_eq!(TechNode::NM_100.fo4_picoseconds(), 36.0);
/// assert!((TechNode::NM_180.fo4_picoseconds() - 64.8).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct TechNode {
    drawn_gate_length_nm: f64,
}

impl TechNode {
    /// Picoseconds of one FO4 per micron of drawn gate length.
    pub const PS_PER_FO4_PER_MICRON: f64 = 360.0;

    /// 1000 nm (1 µm) node — Intel 486 era (1990).
    pub const NM_1000: TechNode = TechNode {
        drawn_gate_length_nm: 1000.0,
    };
    /// 800 nm node (1992).
    pub const NM_800: TechNode = TechNode {
        drawn_gate_length_nm: 800.0,
    };
    /// 600 nm node (1994).
    pub const NM_600: TechNode = TechNode {
        drawn_gate_length_nm: 600.0,
    };
    /// 350 nm node (1996).
    pub const NM_350: TechNode = TechNode {
        drawn_gate_length_nm: 350.0,
    };
    /// 250 nm node (1998).
    pub const NM_250: TechNode = TechNode {
        drawn_gate_length_nm: 250.0,
    };
    /// 180 nm node — the Alpha 21264 reference implementation (800 MHz).
    pub const NM_180: TechNode = TechNode {
        drawn_gate_length_nm: 180.0,
    };
    /// 130 nm node (2002).
    pub const NM_130: TechNode = TechNode {
        drawn_gate_length_nm: 130.0,
    };
    /// 100 nm node — the technology all of the paper's models use.
    pub const NM_100: TechNode = TechNode {
        drawn_gate_length_nm: 100.0,
    };

    /// Creates a node from a drawn gate length in nanometres.
    ///
    /// # Panics
    ///
    /// Panics if `nm` is not strictly positive and finite.
    #[must_use]
    pub fn from_nm(nm: f64) -> Self {
        assert!(
            nm.is_finite() && nm > 0.0,
            "gate length must be positive and finite, got {nm}"
        );
        TechNode {
            drawn_gate_length_nm: nm,
        }
    }

    /// Drawn gate length in nanometres.
    #[must_use]
    pub fn nanometers(self) -> f64 {
        self.drawn_gate_length_nm
    }

    /// Drawn gate length in microns.
    #[must_use]
    pub fn microns(self) -> f64 {
        self.drawn_gate_length_nm / 1000.0
    }

    /// Duration of one FO4 at this node, in picoseconds.
    #[must_use]
    pub fn fo4_picoseconds(self) -> f64 {
        Self::PS_PER_FO4_PER_MICRON * self.microns()
    }

    /// The seven Intel-era nodes plotted in the paper's Figure 1, oldest
    /// first.
    #[must_use]
    pub fn figure1_nodes() -> [TechNode; 7] {
        [
            Self::NM_1000,
            Self::NM_800,
            Self::NM_600,
            Self::NM_350,
            Self::NM_250,
            Self::NM_180,
            Self::NM_130,
        ]
    }
}

impl fmt::Display for TechNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} nm", self.drawn_gate_length_nm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fo4_duration_scales_linearly() {
        assert_eq!(TechNode::NM_1000.fo4_picoseconds(), 360.0);
        assert_eq!(TechNode::NM_100.fo4_picoseconds(), 36.0);
        assert_eq!(TechNode::from_nm(50.0).fo4_picoseconds(), 18.0);
    }

    #[test]
    fn node_accessors() {
        let n = TechNode::NM_180;
        assert_eq!(n.nanometers(), 180.0);
        assert_eq!(n.microns(), 0.18);
        assert_eq!(n.to_string(), "180 nm");
    }

    #[test]
    fn figure1_nodes_are_descending() {
        let nodes = TechNode::figure1_nodes();
        for w in nodes.windows(2) {
            assert!(w[0].nanometers() > w[1].nanometers());
        }
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_zero_gate_length() {
        let _ = TechNode::from_nm(0.0);
    }
}
