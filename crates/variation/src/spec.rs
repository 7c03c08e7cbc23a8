//! The full variation configuration for one yield study.

use fo4depth_util::hash::Fnv64;

use crate::dist::{ComponentSpec, DistKind, VariationError};

/// Default relative sigma of the FO4 unit (4 %, a conservative sub-100 nm
/// figure in line with Datta et al.'s examples). Mostly systematic:
/// lithography and die-level corner dominate gate-delay variation.
pub const DEFAULT_SIGMA_FO4: f64 = 0.04;
/// Default systematic variance share of the FO4 unit.
pub const DEFAULT_SYSTEMATIC_FO4: f64 = 0.75;
/// Default relative sigma of each clocking-overhead component (10 % —
/// latch D-Q, local skew, and jitter are small structures with little
/// averaging, so they vary much more than a logic path).
pub const DEFAULT_SIGMA_OVERHEAD: f64 = 0.10;
/// Default systematic variance share of the overhead components (mostly
/// per-stage: local mismatch and local clock distribution).
pub const DEFAULT_SYSTEMATIC_OVERHEAD: f64 = 0.25;
/// Default Monte Carlo sample count per grid point.
pub const DEFAULT_SAMPLES: u32 = 128;
/// Largest accepted sample count (caps the per-query simulation load the
/// pool is asked to absorb).
pub const MAX_SAMPLES: u32 = 4096;
/// Default total logic depth of the unpipelined algorithm (FO4). The
/// paper's scaling model spreads an instruction's work over
/// `ceil(logic_depth / t_useful)` stages.
pub const DEFAULT_LOGIC_DEPTH: f64 = 96.0;
/// Default timing guardband: a die is functional when every stage delay
/// fits the clock budget inflated by this margin.
pub const DEFAULT_GUARDBAND: f64 = 0.04;

/// Everything the sampler and the fast path need: seed, sample count, one
/// [`ComponentSpec`] per delay component, and the yield model's two
/// structural knobs (logic depth and guardband).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationSpec {
    /// Root seed of the substream family; two specs with equal seeds and
    /// equal parameters draw identical dies.
    pub seed: u64,
    /// Monte Carlo dies per grid point.
    pub samples: u32,
    /// Variation of the FO4 unit itself (drives the device perturbation).
    pub fo4: ComponentSpec,
    /// Variation of the latch D-Q overhead.
    pub latch: ComponentSpec,
    /// Variation of the clock-skew overhead.
    pub skew: ComponentSpec,
    /// Variation of the clock-jitter overhead.
    pub jitter: ComponentSpec,
    /// Total useful logic per instruction (FO4); sets the stage count at
    /// each grid point.
    pub logic_depth: f64,
    /// Relative timing margin on the stage budget.
    pub guardband: f64,
}

impl VariationSpec {
    /// The default configuration rooted at `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let overhead = ComponentSpec::new(
            DistKind::Normal,
            DEFAULT_SIGMA_OVERHEAD,
            DEFAULT_SYSTEMATIC_OVERHEAD,
        );
        Self {
            seed,
            samples: DEFAULT_SAMPLES,
            fo4: ComponentSpec::new(DistKind::Normal, DEFAULT_SIGMA_FO4, DEFAULT_SYSTEMATIC_FO4),
            latch: overhead,
            skew: overhead,
            jitter: overhead,
            logic_depth: DEFAULT_LOGIC_DEPTH,
            guardband: DEFAULT_GUARDBAND,
        }
    }

    /// Checks every numeric parameter, naming the offending field.
    pub fn validate(&self) -> Result<(), VariationError> {
        if self.samples == 0 {
            return Err(VariationError::new("samples must be at least 1"));
        }
        if self.samples > MAX_SAMPLES {
            return Err(VariationError::new(format!(
                "samples {} exceeds the maximum {MAX_SAMPLES}",
                self.samples
            )));
        }
        self.fo4.validate("fo4")?;
        self.latch.validate("latch")?;
        self.skew.validate("skew")?;
        self.jitter.validate("jitter")?;
        if !self.logic_depth.is_finite() || self.logic_depth <= 0.0 {
            return Err(VariationError::new(format!(
                "logic_depth must be a positive finite number of FO4, got {}",
                self.logic_depth
            )));
        }
        if !self.guardband.is_finite() || !(0.0..=1.0).contains(&self.guardband) {
            return Err(VariationError::new(format!(
                "guardband must be in [0, 1], got {}",
                self.guardband
            )));
        }
        Ok(())
    }

    /// Number of pipeline stages at `t_useful` FO4 of logic per stage.
    #[must_use]
    pub fn stages(&self, t_useful: f64) -> u32 {
        ((self.logic_depth / t_useful).ceil() as u32).max(1)
    }

    /// A stable FNV-1a digest of every parameter — the variation half of a
    /// sample cell's cache fingerprint, so two studies share cached sample
    /// simulations exactly when their configurations are bit-equal.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str("variation-spec");
        h.write_u64(self.seed);
        h.write_u64(u64::from(self.samples));
        for component in [&self.fo4, &self.latch, &self.skew, &self.jitter] {
            h.write_str(component.kind.key());
            h.write_f64(component.sigma);
            h.write_f64(component.systematic);
        }
        h.write_f64(self.logic_depth);
        h.write_f64(self.guardband);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        VariationSpec::new(1).validate().unwrap();
    }

    #[test]
    fn validate_names_the_offending_field() {
        let mut spec = VariationSpec::new(1);
        spec.skew.sigma = -0.5;
        assert!(spec.validate().unwrap_err().message().contains("skew"));

        let mut spec = VariationSpec::new(1);
        spec.samples = 0;
        assert!(spec.validate().is_err());

        let mut spec = VariationSpec::new(1);
        spec.samples = MAX_SAMPLES + 1;
        assert!(spec.validate().is_err());

        let mut spec = VariationSpec::new(1);
        spec.logic_depth = 0.0;
        assert!(spec.validate().is_err());

        let mut spec = VariationSpec::new(1);
        spec.guardband = 2.0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn stage_count_follows_logic_depth() {
        let spec = VariationSpec::new(1);
        assert_eq!(spec.stages(6.0), 16); // 96 / 6
        assert_eq!(spec.stages(7.0), 14); // ceil(96 / 7)
        assert_eq!(spec.stages(96.0), 1);
        assert_eq!(spec.stages(200.0), 1); // floor of one stage
    }

    #[test]
    fn digest_distinguishes_every_field() {
        let base = VariationSpec::new(1).digest();
        let mut seed = VariationSpec::new(2);
        assert_ne!(seed.digest(), base);
        seed = VariationSpec::new(1);
        seed.samples = 64;
        assert_ne!(seed.digest(), base);
        let mut sigma = VariationSpec::new(1);
        sigma.latch.sigma = 0.05;
        assert_ne!(sigma.digest(), base);
        let mut kind = VariationSpec::new(1);
        kind.fo4.kind = DistKind::LogNormal;
        assert_ne!(kind.digest(), base);
        let mut depth = VariationSpec::new(1);
        depth.logic_depth = 120.0;
        assert_ne!(depth.digest(), base);
        let mut guard = VariationSpec::new(1);
        guard.guardband = 0.10;
        assert_ne!(guard.digest(), base);
        // And equal specs agree.
        assert_eq!(VariationSpec::new(1).digest(), base);
    }
}
