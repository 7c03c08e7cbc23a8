//! Delay-component distributions and their systematic/random split.
//!
//! Every varying delay component — the FO4 unit, latch D-Q, clock skew,
//! jitter — is modelled as its nominal value times a mean-one *factor*
//! drawn from a configurable distribution. The factor's total relative
//! sigma is split into a **systematic** channel (one draw per die, shared
//! by every stage: lithography, die-level process corner) and a **random**
//! channel (one draw per stage: dopant fluctuation, local mismatch), with
//! the split controlled by the systematic variance share `ρ`:
//!
//! ```text
//! σ_sys = σ·√ρ        σ_rand = σ·√(1−ρ)        f = f_sys · f_rand
//! ```
//!
//! All three supported shapes are parameterised so the factor has mean 1
//! and standard deviation `σ_channel` exactly (lognormal via the
//! `exp(s·g − s²/2)` mean correction), which is what lets the moment
//! fast path in [`crate::moments`] treat them uniformly.
//!
//! The inverse and forward normal CDFs are implemented locally (Acklam's
//! rational approximation and an Abramowitz & Stegun erf fit) because the
//! workspace is dependency-free by policy; both are deterministic pure
//! `f64` functions, so draws stay bit-reproducible everywhere.

use std::fmt;

/// Factors are clamped below at this value so a far-tail draw can never
/// produce a non-positive (or absurdly negative) delay component.
pub const MIN_FACTOR: f64 = 0.05;

/// A rejected variation configuration (negative sigma, unknown kind, …).
///
/// Carries a human-readable message; the serve layer maps it onto a
/// structured HTTP 400 with code `invalid_distribution`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariationError {
    message: String,
}

impl VariationError {
    /// An error with the given message.
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// The human-readable description.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for VariationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for VariationError {}

/// Shape of a delay-component factor distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistKind {
    /// Gaussian factor `1 + σ·g`.
    Normal,
    /// Lognormal factor `exp(s·g − s²/2)` with `s² = ln(1+σ²)` (mean 1,
    /// sd σ, strictly positive — the classic delay-variation shape).
    LogNormal,
    /// Uniform factor `1 + σ·√3·(2u−1)` (mean 1, sd σ, bounded support).
    Uniform,
}

impl DistKind {
    /// Parses a user-facing kind string (`"normal"`, `"lognormal"`,
    /// `"uniform"`).
    pub fn parse(kind: &str) -> Result<Self, VariationError> {
        match kind {
            "normal" => Ok(Self::Normal),
            "lognormal" => Ok(Self::LogNormal),
            "uniform" => Ok(Self::Uniform),
            other => Err(VariationError::new(format!(
                "unknown distribution kind '{other}' (expected normal, lognormal, or uniform)"
            ))),
        }
    }

    /// The canonical string form, inverse of [`DistKind::parse`].
    #[must_use]
    pub fn key(&self) -> &'static str {
        match self {
            Self::Normal => "normal",
            Self::LogNormal => "lognormal",
            Self::Uniform => "uniform",
        }
    }
}

/// One delay component's variation: shape, total relative sigma, and the
/// systematic share of the variance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentSpec {
    /// Distribution shape of the factor.
    pub kind: DistKind,
    /// Total relative standard deviation of the factor (e.g. `0.04` for
    /// 4 % delay variation).
    pub sigma: f64,
    /// Share of the *variance* carried by the die-level systematic
    /// channel, in `[0, 1]`; the rest is per-stage random.
    pub systematic: f64,
}

impl ComponentSpec {
    /// A component spec; call [`ComponentSpec::validate`] before use.
    #[must_use]
    pub fn new(kind: DistKind, sigma: f64, systematic: f64) -> Self {
        Self {
            kind,
            sigma,
            systematic,
        }
    }

    /// Checks the numeric parameters, naming the offending component.
    pub fn validate(&self, name: &str) -> Result<(), VariationError> {
        if !self.sigma.is_finite() || self.sigma < 0.0 {
            return Err(VariationError::new(format!(
                "{name}: sigma must be a finite non-negative number, got {}",
                self.sigma
            )));
        }
        if self.sigma > 0.5 {
            return Err(VariationError::new(format!(
                "{name}: sigma {} exceeds the supported maximum 0.5",
                self.sigma
            )));
        }
        if !self.systematic.is_finite() || !(0.0..=1.0).contains(&self.systematic) {
            return Err(VariationError::new(format!(
                "{name}: systematic share must be in [0, 1], got {}",
                self.systematic
            )));
        }
        Ok(())
    }

    /// Sigma of the die-level systematic channel: `σ·√ρ`.
    #[must_use]
    pub fn sigma_systematic(&self) -> f64 {
        self.sigma * self.systematic.sqrt()
    }

    /// Sigma of the per-stage random channel: `σ·√(1−ρ)`.
    #[must_use]
    pub fn sigma_random(&self) -> f64 {
        self.sigma * (1.0 - self.systematic).sqrt()
    }

    /// Mean-one factor of the systematic channel for uniform draw `u`.
    #[must_use]
    pub fn systematic_factor(&self, u: f64) -> f64 {
        factor(self.kind, self.sigma_systematic(), u)
    }

    /// Mean-one factor of the random channel for uniform draw `u`.
    #[must_use]
    pub fn random_factor(&self, u: f64) -> f64 {
        factor(self.kind, self.sigma_random(), u)
    }

    /// Random-channel factor averaged over `gates` independent gates in
    /// series: the sigma shrinks by `√gates`, the central-limit effect
    /// that makes *short* logic stages relatively noisier than long ones
    /// (each FO4 of logic carries its own independent mismatch; a stage
    /// of `t` FO4 averages `t` of them).
    #[must_use]
    pub fn random_factor_averaged(&self, u: f64, gates: f64) -> f64 {
        factor(self.kind, self.sigma_random() / gates.max(1.0).sqrt(), u)
    }
}

/// Transforms a uniform draw into a mean-one factor with sd `sigma`.
fn factor(kind: DistKind, sigma: f64, u: f64) -> f64 {
    if sigma == 0.0 {
        return 1.0;
    }
    let raw = match kind {
        DistKind::Normal => 1.0 + sigma * normal_icdf(u),
        DistKind::LogNormal => {
            let s2 = (1.0 + sigma * sigma).ln();
            (s2.sqrt() * normal_icdf(u) - 0.5 * s2).exp()
        }
        DistKind::Uniform => 1.0 + sigma * 3.0_f64.sqrt() * (2.0 * u - 1.0),
    };
    raw.max(MIN_FACTOR)
}

/// Inverse standard-normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15e-9 over the open unit interval).
///
/// Inputs are clamped away from 0 and 1 so a boundary uniform draw maps to
/// a large-but-finite quantile instead of ±∞.
#[must_use]
pub fn normal_icdf(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;

    let p = p.clamp(1e-300, 1.0 - 1e-16);
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Standard-normal CDF via the Abramowitz & Stegun 7.1.26 erf fit
/// (|error| < 1.5e-7 — ample for yield percentages).
#[must_use]
pub fn normal_cdf(x: f64) -> f64 {
    let t = x / std::f64::consts::SQRT_2;
    0.5 * (1.0 + erf(t))
}

fn erf(x: f64) -> f64 {
    const A1: f64 = 0.254_829_592;
    const A2: f64 = -0.284_496_736;
    const A3: f64 = 1.421_413_741;
    const A4: f64 = -1.453_152_027;
    const A5: f64 = 1.061_405_429;
    const P: f64 = 0.327_591_1;

    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn kind_round_trips_through_parse() {
        for kind in [DistKind::Normal, DistKind::LogNormal, DistKind::Uniform] {
            assert_eq!(DistKind::parse(kind.key()).unwrap(), kind);
        }
        let err = DistKind::parse("cauchy").unwrap_err();
        assert!(err.message().contains("cauchy"), "{err}");
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        let ok = ComponentSpec::new(DistKind::Normal, 0.04, 0.5);
        ok.validate("fo4").unwrap();
        let neg = ComponentSpec::new(DistKind::Normal, -0.1, 0.5);
        assert!(neg.validate("fo4").unwrap_err().message().contains("fo4"));
        let nan = ComponentSpec::new(DistKind::Normal, f64::NAN, 0.5);
        assert!(nan.validate("latch").is_err());
        let huge = ComponentSpec::new(DistKind::Normal, 0.9, 0.5);
        assert!(huge.validate("skew").is_err());
        let share = ComponentSpec::new(DistKind::Normal, 0.04, 1.5);
        assert!(share.validate("jitter").is_err());
    }

    #[test]
    fn icdf_matches_known_quantiles() {
        // Standard-normal quantiles to well beyond the approximation error.
        assert!((normal_icdf(0.5)).abs() < 1e-9);
        assert!((normal_icdf(0.975) - 1.959_963_985).abs() < 1e-6);
        assert!((normal_icdf(0.025) + 1.959_963_985).abs() < 1e-6);
        assert!((normal_icdf(0.841_344_746) - 1.0).abs() < 1e-6);
        // Boundary clamps stay finite.
        assert!(normal_icdf(0.0).is_finite());
        assert!(normal_icdf(1.0).is_finite());
    }

    #[test]
    fn cdf_and_icdf_are_inverse() {
        for &p in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let x = normal_icdf(p);
            assert!((normal_cdf(x) - p).abs() < 1e-6, "p = {p}");
        }
    }

    #[test]
    fn zero_sigma_is_exactly_nominal() {
        let spec = ComponentSpec::new(DistKind::LogNormal, 0.0, 0.5);
        assert_eq!(spec.systematic_factor(0.01), 1.0);
        assert_eq!(spec.random_factor(0.99), 1.0);
    }

    #[test]
    fn factor_moments_match_spec() {
        // Empirical mean ≈ 1 and sd ≈ σ_channel for each shape, over an
        // even grid of quantiles (deterministic, no sampling noise).
        for kind in [DistKind::Normal, DistKind::LogNormal, DistKind::Uniform] {
            let spec = ComponentSpec::new(kind, 0.08, 1.0);
            let n = 20_001;
            let (mut sum, mut sq) = (0.0, 0.0);
            for i in 0..n {
                let u = (i as f64 + 0.5) / n as f64;
                let f = spec.systematic_factor(u);
                sum += f;
                sq += f * f;
            }
            let mean = sum / n as f64;
            let sd = (sq / n as f64 - mean * mean).max(0.0).sqrt();
            assert!((mean - 1.0).abs() < 2e-3, "{kind:?} mean = {mean}");
            assert!((sd - 0.08).abs() < 4e-3, "{kind:?} sd = {sd}");
        }
    }

    #[test]
    fn variance_split_is_conserved() {
        let spec = ComponentSpec::new(DistKind::Normal, 0.06, 0.3);
        let sys = spec.sigma_systematic();
        let rand = spec.sigma_random();
        assert!((sys * sys + rand * rand - 0.06 * 0.06).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Factors are always positive, finite, and clamped.
        #[test]
        fn factors_are_positive_and_finite(
            u in 0.0f64..1.0,
            sigma in 0.0f64..0.5,
            share in 0.0f64..1.0,
        ) {
            for kind in [DistKind::Normal, DistKind::LogNormal, DistKind::Uniform] {
                let spec = ComponentSpec::new(kind, sigma, share);
                let f = spec.systematic_factor(u);
                prop_assert!(f.is_finite() && f >= MIN_FACTOR);
                let g = spec.random_factor(u);
                prop_assert!(g.is_finite() && g >= MIN_FACTOR);
            }
        }

        /// The CDF is monotone and the ICDF inverts it across the domain.
        #[test]
        fn cdf_monotone_and_inverted(p in 0.001f64..0.999) {
            let x = normal_icdf(p);
            prop_assert!((normal_cdf(x) - p).abs() < 1e-5);
            prop_assert!(normal_cdf(x + 0.01) > normal_cdf(x));
        }
    }
}
