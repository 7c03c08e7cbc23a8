//! The clock-period model: per-stage overheads (Table 1) and the
//! latency→cycles quantization rule used to build the paper's Table 3.

use std::fmt;

use crate::metric::{Fo4, Picoseconds};
use crate::tech::TechNode;

/// Per-stage timing overheads, Table 1 of the paper.
///
/// | component | value |
/// |---|---|
/// | latch (pulse-latch D→Q) | 1.0 FO4 |
/// | clock skew | 0.3 FO4 |
/// | clock jitter | 0.5 FO4 |
/// | **total** | **1.8 FO4** |
///
/// The latch value comes from the paper's SPICE sweep (reproduced by the
/// `fo4depth-circuit` crate); skew and jitter are scaled from Kurd et al.'s
/// 180 nm Pentium 4 clocking measurements (20 ps skew, 35 ps jitter).
///
/// # Examples
///
/// ```
/// use fo4depth_fo4::Overheads;
/// let ovh = Overheads::isca2002();
/// assert!((ovh.total().get() - 1.8).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overheads {
    latch: Fo4,
    skew: Fo4,
    jitter: Fo4,
}

impl Overheads {
    /// Creates an overhead breakdown from its three components.
    #[must_use]
    pub fn new(latch: Fo4, skew: Fo4, jitter: Fo4) -> Self {
        Self {
            latch,
            skew,
            jitter,
        }
    }

    /// The paper's measured values: 1.0 + 0.3 + 0.5 = 1.8 FO4 (Table 1).
    #[must_use]
    pub fn isca2002() -> Self {
        Self::new(Fo4::new(1.0), Fo4::new(0.3), Fo4::new(0.5))
    }

    /// Zero overhead — the idealized machine of Figure 4a.
    #[must_use]
    pub fn none() -> Self {
        Self::new(Fo4::ZERO, Fo4::ZERO, Fo4::ZERO)
    }

    /// Kunkel & Smith's CRAY-1S-era assumption: ≈ 2.5 ECL gate delays of
    /// latch/skew overhead, ≈ 3.4 FO4 using the Appendix A equivalence.
    #[must_use]
    pub fn cray1s() -> Self {
        Self::new(Fo4::new(3.4), Fo4::ZERO, Fo4::ZERO)
    }

    /// Latch overhead component.
    #[must_use]
    pub fn latch(&self) -> Fo4 {
        self.latch
    }

    /// Clock skew component.
    #[must_use]
    pub fn skew(&self) -> Fo4 {
        self.skew
    }

    /// Clock jitter component.
    #[must_use]
    pub fn jitter(&self) -> Fo4 {
        self.jitter
    }

    /// Sum of all components — the `t_overhead` term of the clock equation.
    #[must_use]
    pub fn total(&self) -> Fo4 {
        self.latch + self.skew + self.jitter
    }
}

impl Default for Overheads {
    /// Defaults to the paper's measured 1.8 FO4 breakdown.
    fn default() -> Self {
        Self::isca2002()
    }
}

impl fmt::Display for Overheads {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "latch {} + skew {} + jitter {} = {}",
            self.latch,
            self.skew,
            self.jitter,
            self.total()
        )
    }
}

/// A clock period decomposed into useful work and overhead:
/// `T_clk = t_useful + t_overhead`.
///
/// The study sweeps `t_useful` from 2 to 16 FO4 while holding `t_overhead`
/// at 1.8 FO4 (and separately sweeps the overhead for Figure 6).
///
/// # Examples
///
/// ```
/// use fo4depth_fo4::{ClockPeriod, Fo4, TechNode};
/// let clk = ClockPeriod::new(Fo4::new(6.0), Fo4::new(1.8));
/// assert_eq!(clk.total().get(), 7.8);
/// assert!((clk.frequency_ghz(TechNode::NM_100) - 3.56).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct ClockPeriod {
    useful: Fo4,
    overhead: Fo4,
}

impl ClockPeriod {
    /// Creates a clock period from its useful and overhead portions.
    ///
    /// # Panics
    ///
    /// Panics if the useful portion is zero (a stage must do *some* work).
    #[must_use]
    pub fn new(useful: Fo4, overhead: Fo4) -> Self {
        assert!(
            useful.get() > 0.0,
            "useful logic per stage must be positive"
        );
        Self { useful, overhead }
    }

    /// Useful logic per stage (`t_useful`).
    #[must_use]
    pub fn useful(&self) -> Fo4 {
        self.useful
    }

    /// Overhead per stage (`t_overhead`).
    #[must_use]
    pub fn overhead(&self) -> Fo4 {
        self.overhead
    }

    /// Total clock period in FO4.
    #[must_use]
    pub fn total(&self) -> Fo4 {
        self.useful + self.overhead
    }

    /// Absolute period at a technology node.
    #[must_use]
    pub fn period(&self, node: TechNode) -> Picoseconds {
        self.total().to_picoseconds(node)
    }

    /// Clock frequency in GHz at a technology node.
    #[must_use]
    pub fn frequency_ghz(&self, node: TechNode) -> f64 {
        self.period(node).frequency_ghz()
    }

    /// Fraction of the period doing useful work, in `(0, 1]`.
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        self.useful / self.total()
    }
}

impl fmt::Display for ClockPeriod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} useful + {} overhead = {}",
            self.useful,
            self.overhead,
            self.total()
        )
    }
}

/// Quantizes a structure or operation latency into pipeline cycles.
///
/// The paper's rule (§3.3): *"The number of pipeline stages (clock cycles)
/// required to access an on-chip structure, at each clock frequency, is
/// determined by dividing the access time of the structure by the
/// corresponding `t_useful`"* — i.e. the overhead portion of each cycle is
/// paid by the inter-stage latch, not by the structure. The result is
/// rounded up and is at least one cycle.
///
/// This exactly reproduces the paper's functional-unit rows of Table 3,
/// which follow `ceil(17.4 × alpha_cycles / t_useful)`.
///
/// # Examples
///
/// ```
/// use fo4depth_fo4::{cycles_for, Fo4};
/// // Paper §3.3: a 0.39 ns (10.83 FO4) register file:
/// assert_eq!(cycles_for(Fo4::new(10.83), Fo4::new(10.0)), 2); // "1.1 cycles" → 2
/// assert_eq!(cycles_for(Fo4::new(10.83), Fo4::new(6.0)), 2);  // "1.8 cycles" → 2
/// assert_eq!(cycles_for(Fo4::new(10.83), Fo4::new(11.0)), 1);
/// ```
///
/// # Panics
///
/// Panics if `t_useful` is zero.
#[must_use]
pub fn cycles_for(latency: Fo4, t_useful: Fo4) -> u32 {
    cycles_for_rounded(latency, t_useful, Rounding::Ceil)
}

/// The quantization rule applied by [`cycles_for_rounded`].
///
/// The paper's rule is [`Rounding::Ceil`] ("the access latency is rounded
/// to 2 cycles" in both the 1.1- and 1.8-cycle examples of §3.3); the
/// alternative is available for the rounding-sensitivity ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rounding {
    /// Round up: a structure gets whole stages and never borrows time.
    Ceil,
    /// Round to nearest: optimistic slack-passing between stages.
    Nearest,
}

/// [`cycles_for`] with an explicit rounding rule.
///
/// # Panics
///
/// Panics if `t_useful` is zero.
#[must_use]
pub fn cycles_for_rounded(latency: Fo4, t_useful: Fo4, rounding: Rounding) -> u32 {
    assert!(t_useful.get() > 0.0, "t_useful must be positive");
    let ratio = latency / t_useful;
    // Guard against float fuzz right at integer boundaries: an access that is
    // exactly k stages of logic must fit in k cycles.
    let cycles = match rounding {
        Rounding::Ceil => (ratio - 1e-9).ceil(),
        Rounding::Nearest => (ratio - 1e-9).round(),
    };
    (cycles.max(1.0)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_total_is_1_8() {
        assert!((Overheads::isca2002().total().get() - 1.8).abs() < 1e-12);
        assert_eq!(Overheads::none().total(), Fo4::ZERO);
        assert_eq!(Overheads::default(), Overheads::isca2002());
    }

    #[test]
    fn overhead_components_accessible() {
        let o = Overheads::isca2002();
        assert_eq!(o.latch().get(), 1.0);
        assert_eq!(o.skew().get(), 0.3);
        assert_eq!(o.jitter().get(), 0.5);
        assert!(o.to_string().contains("latch"));
    }

    #[test]
    fn optimal_clock_frequencies_match_paper() {
        // §7: integer optimum 7.8 FO4 → 3.6 GHz at 100 nm;
        //     vector FP optimum 5.8 FO4 → 4.8 GHz.
        let int = ClockPeriod::new(Fo4::new(6.0), Fo4::new(1.8));
        assert!((int.frequency_ghz(TechNode::NM_100) - 3.56).abs() < 0.05);
        let vec = ClockPeriod::new(Fo4::new(4.0), Fo4::new(1.8));
        assert!((vec.frequency_ghz(TechNode::NM_100) - 4.79).abs() < 0.05);
    }

    #[test]
    fn efficiency_drops_with_depth() {
        let shallow = ClockPeriod::new(Fo4::new(16.0), Fo4::new(1.8));
        let deep = ClockPeriod::new(Fo4::new(2.0), Fo4::new(1.8));
        assert!(shallow.efficiency() > deep.efficiency());
        assert!((deep.efficiency() - 2.0 / 3.8).abs() < 1e-12);
    }

    #[test]
    fn cycles_rule_matches_fu_rows_of_table3() {
        // Functional-unit latencies in Alpha-21264 cycles at 17.4 FO4/cycle.
        let alpha = 17.4;
        let fu = [
            (
                "int add",
                1.0,
                [9, 6, 5, 4, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2],
            ),
            (
                "int mult",
                7.0,
                [61, 41, 31, 25, 21, 18, 16, 14, 13, 12, 11, 10, 9, 9, 8],
            ),
            (
                "fp add",
                4.0,
                [35, 24, 18, 14, 12, 10, 9, 8, 7, 7, 6, 6, 5, 5, 5],
            ),
            (
                "fp div",
                12.0,
                [105, 70, 53, 42, 35, 30, 27, 24, 21, 19, 18, 17, 15, 14, 14],
            ),
            (
                "fp sqrt",
                18.0,
                [157, 105, 79, 63, 53, 45, 40, 35, 32, 29, 27, 25, 23, 21, 20],
            ),
        ];
        for (name, alpha_cycles, expected) in fu {
            let latency = Fo4::new(alpha * alpha_cycles);
            for (i, &exp) in expected.iter().enumerate() {
                let t = Fo4::new((i + 2) as f64);
                assert_eq!(
                    cycles_for(latency, t),
                    exp,
                    "{name} at t_useful={} FO4",
                    i + 2
                );
            }
        }
    }

    #[test]
    fn cycles_minimum_is_one() {
        assert_eq!(cycles_for(Fo4::new(0.5), Fo4::new(16.0)), 1);
        assert_eq!(cycles_for(Fo4::ZERO, Fo4::new(2.0)), 1);
    }

    #[test]
    fn cycles_exact_boundary_is_not_bumped() {
        assert_eq!(cycles_for(Fo4::new(12.0), Fo4::new(6.0)), 2);
        assert_eq!(cycles_for(Fo4::new(12.000001), Fo4::new(6.0)), 3);
    }

    #[test]
    #[should_panic(expected = "useful logic per stage must be positive")]
    fn clock_rejects_zero_useful() {
        let _ = ClockPeriod::new(Fo4::ZERO, Fo4::new(1.8));
    }
}
