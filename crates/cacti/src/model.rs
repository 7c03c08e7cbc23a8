//! Shared delay-model coefficients and the access-time breakdown type.

use fo4depth_fo4::Fo4;

/// Coefficients of the analytical delay model, all in FO4 units.
///
/// The defaults are calibrated against the anchors the paper states in
/// prose (register file 0.39 ns; DL1 6 cycles and L2-512K 12 cycles at
/// `t_useful` = 6 FO4; issue window 1 Alpha cycle ≈ 17 FO4) — see the crate
/// docs. They are exposed so sensitivity studies can perturb the model, but
/// every preset uses [`Coefficients::default`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coefficients {
    /// Fixed decoder overhead (predecode + wordline driver), FO4.
    pub decode_base: f64,
    /// Decoder delay per doubling of rows in a sub-array, FO4.
    pub decode_per_log_row: f64,
    /// Pre-decode/select overhead per doubling of the sub-array count, FO4.
    pub decode_per_log_subarray: f64,
    /// Wordline RC per 64 columns of a sub-array (linear term), FO4.
    pub wordline_per_64_cols: f64,
    /// Quadratic sharpening of long wordlines (distributed RC).
    pub wordline_quad: f64,
    /// Bitline discharge per 64 rows of a sub-array, FO4.
    pub bitline_per_64_rows: f64,
    /// Sense amplifier, FO4.
    pub sense_amp: f64,
    /// Tag comparator delay per doubling of tag width, FO4.
    pub compare_per_log_bit: f64,
    /// Way-select mux per doubling of associativity, FO4.
    pub mux_per_log_assoc: f64,
    /// Fixed tag-side overhead for tagged structures, FO4.
    pub tag_base: f64,
    /// Global H-tree routing coefficient: multiplies
    /// `kilobits^output_exponent`, FO4.
    pub output_route: f64,
    /// Capacity exponent of the global routing network.
    pub output_exponent: f64,
    /// Column-mux overhead per doubling of `nspd`, FO4.
    pub nspd_mux: f64,
    /// Wordline/bitline growth per additional port.
    pub port_growth: f64,
    /// Output-network growth per additional port.
    pub port_growth_output: f64,
    /// CAM broadcast coefficient (multiplies `span^cam_exponent`), FO4.
    pub cam_broadcast: f64,
    /// Span exponent of the CAM broadcast wire.
    pub cam_exponent: f64,
    /// CAM match-line OR per doubling of tag width, FO4.
    pub cam_or_per_log_bit: f64,
    /// CAM broadcast-port growth per additional port.
    pub cam_port_growth: f64,
}

impl Default for Coefficients {
    fn default() -> Self {
        Self {
            decode_base: 0.8,
            decode_per_log_row: 0.2,
            decode_per_log_subarray: 0.15,
            wordline_per_64_cols: 0.3,
            wordline_quad: 0.25,
            bitline_per_64_rows: 0.5,
            sense_amp: 0.8,
            compare_per_log_bit: 0.45,
            mux_per_log_assoc: 0.6,
            tag_base: 1.0,
            output_route: 2.37,
            output_exponent: 0.39,
            nspd_mux: 0.3,
            port_growth: 0.15,
            port_growth_output: 0.05,
            cam_broadcast: 7.0,
            cam_exponent: 0.35,
            cam_or_per_log_bit: 0.55,
            cam_port_growth: 0.10,
        }
    }
}

/// An access time decomposed into Cacti's stages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessBreakdown {
    /// Row decode (predecode, decode, wordline drive).
    pub decode: Fo4,
    /// Wordline RC across the selected sub-array.
    pub wordline: Fo4,
    /// Bitline development down the sub-array.
    pub bitline: Fo4,
    /// Sense amplification.
    pub sense: Fo4,
    /// Tag compare + way select (zero for untagged structures).
    pub tag_path: Fo4,
    /// Global output wiring back to the consumer.
    pub output: Fo4,
}

impl AccessBreakdown {
    /// Total access time.
    #[must_use]
    pub fn total(&self) -> Fo4 {
        self.decode + self.wordline + self.bitline + self.sense + self.tag_path + self.output
    }
}

/// `log2` of a positive quantity, clamped at zero below 1.
#[must_use]
pub(crate) fn log2f(x: f64) -> f64 {
    if x <= 1.0 {
        0.0
    } else {
        x.log2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_total_sums_components() {
        let b = AccessBreakdown {
            decode: Fo4::new(1.0),
            wordline: Fo4::new(2.0),
            bitline: Fo4::new(3.0),
            sense: Fo4::new(0.5),
            tag_path: Fo4::new(1.5),
            output: Fo4::new(2.0),
        };
        assert!((b.total().get() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn log2f_clamps() {
        assert_eq!(log2f(0.5), 0.0);
        assert_eq!(log2f(1.0), 0.0);
        assert!((log2f(8.0) - 3.0).abs() < 1e-12);
    }
}
