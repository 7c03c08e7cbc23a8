//! Delay quantities: [`Fo4`] (technology-independent) and [`Picoseconds`]
//! (absolute), with checked arithmetic between them via a
//! [`TechNode`].

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use crate::tech::TechNode;

/// A delay measured in fan-out-of-four inverter delays.
///
/// FO4 is the paper's universal currency: latch overhead (1 FO4), clock skew
/// (0.3 FO4), structure access times, and the useful logic per pipeline stage
/// are all expressed in it. The newtype prevents silently mixing FO4 with
/// picoseconds or cycle counts.
///
/// # Examples
///
/// ```
/// use fo4depth_fo4::{Fo4, TechNode};
/// let useful = Fo4::new(6.0);
/// let overhead = Fo4::new(1.8);
/// let period = useful + overhead;
/// assert_eq!(period.get(), 7.8);
/// // At 100 nm (36 ps/FO4) that is 280.8 ps:
/// assert!((period.to_picoseconds(TechNode::NM_100).get() - 280.8).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Fo4(f64);

impl Fo4 {
    /// Zero delay.
    pub const ZERO: Fo4 = Fo4(0.0);

    /// Creates a delay of `value` FO4.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative or non-finite: a delay is a physical
    /// quantity and every caller in this workspace constructs it from
    /// validated configuration.
    #[must_use]
    pub fn new(value: f64) -> Self {
        assert!(
            value.is_finite() && value >= 0.0,
            "FO4 delay must be finite and non-negative, got {value}"
        );
        Fo4(value)
    }

    /// The raw value in FO4 units.
    #[must_use]
    pub fn get(self) -> f64 {
        self.0
    }

    /// Converts to absolute time at a given technology node.
    #[must_use]
    pub fn to_picoseconds(self, node: TechNode) -> Picoseconds {
        Picoseconds::new(self.0 * node.fo4_picoseconds())
    }

    /// Saturating subtraction: returns zero rather than a negative delay.
    #[must_use]
    pub fn saturating_sub(self, rhs: Fo4) -> Fo4 {
        Fo4((self.0 - rhs.0).max(0.0))
    }
}

impl Add for Fo4 {
    type Output = Fo4;
    fn add(self, rhs: Fo4) -> Fo4 {
        Fo4(self.0 + rhs.0)
    }
}

impl AddAssign for Fo4 {
    fn add_assign(&mut self, rhs: Fo4) {
        self.0 += rhs.0;
    }
}

impl Sub for Fo4 {
    type Output = Fo4;
    /// # Panics
    ///
    /// Panics (in debug builds) if the result would be negative; use
    /// [`Fo4::saturating_sub`] when clamping is intended.
    fn sub(self, rhs: Fo4) -> Fo4 {
        debug_assert!(self.0 >= rhs.0, "FO4 subtraction underflow");
        Fo4((self.0 - rhs.0).max(0.0))
    }
}

impl SubAssign for Fo4 {
    fn sub_assign(&mut self, rhs: Fo4) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Fo4 {
    type Output = Fo4;
    fn mul(self, rhs: f64) -> Fo4 {
        Fo4::new(self.0 * rhs)
    }
}

impl Div<f64> for Fo4 {
    type Output = Fo4;
    fn div(self, rhs: f64) -> Fo4 {
        Fo4::new(self.0 / rhs)
    }
}

impl Div for Fo4 {
    /// Ratio of two delays (dimensionless), e.g. latency / clock period.
    type Output = f64;
    fn div(self, rhs: Fo4) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Fo4 {
    fn sum<I: Iterator<Item = Fo4>>(iter: I) -> Fo4 {
        iter.fold(Fo4::ZERO, Add::add)
    }
}

impl fmt::Display for Fo4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} FO4", self.0)
    }
}

/// An absolute delay in picoseconds.
///
/// # Examples
///
/// ```
/// use fo4depth_fo4::{Picoseconds, TechNode};
/// let regfile = Picoseconds::new(390.0); // the paper's 0.39 ns register file
/// let fo4 = regfile.to_fo4(TechNode::NM_100);
/// assert!((fo4.get() - 10.83).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Picoseconds(f64);

impl Picoseconds {
    /// Zero time.
    pub const ZERO: Picoseconds = Picoseconds(0.0);

    /// Creates a duration of `value` picoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative or non-finite.
    #[must_use]
    pub fn new(value: f64) -> Self {
        assert!(
            value.is_finite() && value >= 0.0,
            "picoseconds must be finite and non-negative, got {value}"
        );
        Picoseconds(value)
    }

    /// The raw value in picoseconds.
    #[must_use]
    pub fn get(self) -> f64 {
        self.0
    }

    /// The value in nanoseconds.
    #[must_use]
    pub fn nanoseconds(self) -> f64 {
        self.0 / 1000.0
    }

    /// Converts to FO4 units at a technology node.
    #[must_use]
    pub fn to_fo4(self, node: TechNode) -> Fo4 {
        Fo4::new(self.0 / node.fo4_picoseconds())
    }

    /// The frequency (GHz) of a clock with this period.
    ///
    /// # Panics
    ///
    /// Panics if the period is zero.
    #[must_use]
    pub fn frequency_ghz(self) -> f64 {
        assert!(self.0 > 0.0, "zero period has no frequency");
        1000.0 / self.0
    }
}

impl Add for Picoseconds {
    type Output = Picoseconds;
    fn add(self, rhs: Picoseconds) -> Picoseconds {
        Picoseconds(self.0 + rhs.0)
    }
}

impl Sub for Picoseconds {
    type Output = Picoseconds;
    fn sub(self, rhs: Picoseconds) -> Picoseconds {
        Picoseconds((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Picoseconds {
    type Output = Picoseconds;
    fn mul(self, rhs: f64) -> Picoseconds {
        Picoseconds::new(self.0 * rhs)
    }
}

impl Div for Picoseconds {
    type Output = f64;
    fn div(self, rhs: Picoseconds) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for Picoseconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} ps", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fo4_roundtrip_through_picoseconds() {
        let x = Fo4::new(7.8);
        let ps = x.to_picoseconds(TechNode::NM_100);
        let back = ps.to_fo4(TechNode::NM_100);
        assert!((back.get() - 7.8).abs() < 1e-12);
    }

    #[test]
    fn fo4_arithmetic() {
        let a = Fo4::new(2.0) + Fo4::new(3.0);
        assert_eq!(a.get(), 5.0);
        assert_eq!((a - Fo4::new(1.0)).get(), 4.0);
        assert_eq!((a * 2.0).get(), 10.0);
        assert_eq!((a / 2.0).get(), 2.5);
        assert_eq!(Fo4::new(10.0) / Fo4::new(4.0), 2.5);
        let sum: Fo4 = [Fo4::new(1.0), Fo4::new(2.5)].into_iter().sum();
        assert_eq!(sum.get(), 3.5);
    }

    #[test]
    fn fo4_saturating_sub_clamps() {
        assert_eq!(Fo4::new(1.0).saturating_sub(Fo4::new(5.0)), Fo4::ZERO);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn fo4_rejects_negative() {
        let _ = Fo4::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn fo4_rejects_nan() {
        let _ = Fo4::new(f64::NAN);
    }

    #[test]
    fn picoseconds_frequency() {
        // 280.8 ps → 3.56 GHz (the paper's optimal integer clock at 100 nm).
        let p = Picoseconds::new(280.8);
        assert!((p.frequency_ghz() - 3.5613).abs() < 1e-3);
    }

    #[test]
    fn picoseconds_display_and_nanoseconds() {
        let p = Picoseconds::new(390.0);
        assert_eq!(p.nanoseconds(), 0.39);
        assert_eq!(p.to_string(), "390.0 ps");
        assert_eq!(Fo4::new(6.0).to_string(), "6.00 FO4");
    }

    #[test]
    fn regfile_anchor_matches_paper() {
        // Paper §3.3: register file access is 0.39 ns at 100 nm; at
        // t_useful = 10 FO4 that is "approximately 1.1 cycles".
        let fo4 = Picoseconds::new(390.0).to_fo4(TechNode::NM_100);
        assert!((fo4.get() / 10.0 - 1.08).abs() < 0.01);
    }
}
