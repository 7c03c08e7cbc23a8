//! First-order moment propagation: the interactive yield fast path.
//!
//! Monte Carlo answers "what fraction of dies meets timing at depth `t`"
//! by materializing dies and simulating them — exact but expensive. This
//! module answers the same question in microseconds by propagating the
//! component variances through the cycle-time model:
//!
//! A stage delay at grid point `t` is (nominal FO4 units)
//!
//! ```text
//! D = t·U·R₀ + Σ_c o_c·S_c·R_c          U  = die FO4 ratio (systematic)
//!                                       S_c = die overhead factor
//!                                       R  = per-stage random factors
//! ```
//!
//! To first order `D ≈ μ(t) + σ_sys(t)·G + σ_rand(t)·Z_i`, with `G` the
//! shared die deviate and `Z_i` independent per stage. The die's FO4
//! ratio `U` is not drawn directly — it is *measured* from a perturbed
//! device — so its sigma is recovered from numeric sensitivities of the
//! FO4 measurement to the two perturbation levers (gate length and
//! threshold shift), evaluated by central differences through the actual
//! transient measurement. A die is functional when all `n(t)` stages fit
//! the guardbanded budget `T(t)`; conditioning on `G` makes the stages
//! independent, so
//!
//! ```text
//! yield(t) = ∫ φ(g) · Φ((T − μ − σ_sys·g)/σ_rand)^n(t) dg
//! ```
//!
//! evaluated by a fixed midpoint quadrature (deterministic — the fast
//! path is part of the byte-identity contract too). Monte Carlo remains
//! the verifier: `tests/yield_sweep.rs` and CI's yield-smoke job assert
//! the two agree on the yield-weighted optimum.

use fo4depth_circuit::{fo4meas, DeviceParams};

use crate::dist::normal_cdf;
use crate::sampler::VT_VOLTS_PER_SIGMA;
use crate::spec::VariationSpec;

/// Relative gate-length step for the central-difference sensitivity.
const LENGTH_STEP: f64 = 0.02;
/// Threshold-voltage step (V) for the central-difference sensitivity.
const VT_STEP: f64 = 0.01;
/// Half-width of the quadrature domain in die-deviate sigmas.
const QUAD_SPAN: f64 = 8.0;
/// Midpoint quadrature points over `[-QUAD_SPAN, QUAD_SPAN]`.
const QUAD_POINTS: usize = 129;

/// The precomputed fast path for one variation configuration.
#[derive(Debug, Clone, Copy)]
pub struct FastPath {
    spec: VariationSpec,
    /// Overhead components `[latch, skew, jitter]` (FO4).
    overhead: [f64; 3],
    overhead_total: f64,
    /// Sensitivity of the FO4 ratio to the relative gate-length factor.
    length_sensitivity: f64,
    /// Sensitivity of the FO4 ratio to a threshold shift (per volt).
    vt_sensitivity: f64,
}

impl FastPath {
    /// Builds the fast path: measures the FO4 sensitivities of `nominal`
    /// by central differences (four extra transient pairs, once).
    ///
    /// `overhead` must be the same `[latch, skew, jitter]` split the
    /// sampler uses so both paths price the same machine.
    #[must_use]
    pub fn new(spec: VariationSpec, nominal: DeviceParams, overhead: [f64; 3]) -> Self {
        let base = fo4meas::measure_fo4(&nominal).picoseconds();

        let up = nominal.scaled_to(nominal.length * (1.0 + LENGTH_STEP));
        let down = nominal.scaled_to(nominal.length * (1.0 - LENGTH_STEP));
        let length_sensitivity = (fo4meas::measure_fo4(&up).picoseconds()
            - fo4meas::measure_fo4(&down).picoseconds())
            / (2.0 * LENGTH_STEP * base);

        let mut vt_up = nominal;
        vt_up.vtn += VT_STEP;
        vt_up.vtp += VT_STEP;
        let mut vt_down = nominal;
        vt_down.vtn -= VT_STEP;
        vt_down.vtp -= VT_STEP;
        let vt_sensitivity = (fo4meas::measure_fo4(&vt_up).picoseconds()
            - fo4meas::measure_fo4(&vt_down).picoseconds())
            / (2.0 * VT_STEP * base);

        Self {
            spec,
            overhead,
            overhead_total: overhead.iter().sum(),
            length_sensitivity,
            vt_sensitivity,
        }
    }

    /// Sigma of the die-level (systematic) FO4 ratio: the two device
    /// perturbation levers, combined in quadrature.
    #[must_use]
    pub fn unit_sigma_systematic(&self) -> f64 {
        let s = self.spec.fo4.sigma_systematic();
        let length = s * self.length_sensitivity;
        let vt = s * VT_VOLTS_PER_SIGMA * self.vt_sensitivity;
        (length * length + vt * vt).sqrt()
    }

    /// Systematic sigma of a stage delay at `t_useful` (nominal FO4).
    #[must_use]
    pub fn sigma_systematic(&self, t_useful: f64) -> f64 {
        let unit = t_useful * self.unit_sigma_systematic();
        let mut var = unit * unit;
        for (o, c) in
            self.overhead
                .iter()
                .zip([&self.spec.latch, &self.spec.skew, &self.spec.jitter])
        {
            let s = o * c.sigma_systematic();
            var += s * s;
        }
        var.sqrt()
    }

    /// Random (per-stage) sigma of a stage delay at `t_useful`.
    #[must_use]
    pub fn sigma_random(&self, t_useful: f64) -> f64 {
        // Logic mismatch averages over the stage's t gates (sampler's
        // `random_factor_averaged`): absolute sigma grows as √t, not t.
        let unit = t_useful / t_useful.max(1.0).sqrt() * self.spec.fo4.sigma_random();
        let mut var = unit * unit;
        for (o, c) in
            self.overhead
                .iter()
                .zip([&self.spec.latch, &self.spec.skew, &self.spec.jitter])
        {
            let s = o * c.sigma_random();
            var += s * s;
        }
        var.sqrt()
    }

    /// Predicted functional-die fraction at grid point `t_useful`.
    #[must_use]
    pub fn yield_at(&self, t_useful: f64) -> f64 {
        let n = f64::from(self.spec.stages(t_useful));
        let mu = t_useful + self.overhead_total;
        let budget = mu * (1.0 + self.spec.guardband);
        let margin = budget - mu;
        let sigma_sys = self.sigma_systematic(t_useful);
        let sigma_rand = self.sigma_random(t_useful);

        if sigma_sys == 0.0 && sigma_rand == 0.0 {
            return if margin >= 0.0 { 1.0 } else { 0.0 };
        }

        // Condition on the shared die deviate g; stages are then i.i.d.
        let step = 2.0 * QUAD_SPAN / QUAD_POINTS as f64;
        let norm = 1.0 / (2.0 * std::f64::consts::PI).sqrt();
        let mut total = 0.0;
        for i in 0..QUAD_POINTS {
            let g = -QUAD_SPAN + (i as f64 + 0.5) * step;
            let phi = norm * (-0.5 * g * g).exp();
            let residual = margin - sigma_sys * g;
            let per_stage = if sigma_rand > 0.0 {
                normal_cdf(residual / sigma_rand)
            } else if residual >= 0.0 {
                1.0
            } else {
                0.0
            };
            total += phi * per_stage.powf(n) * step;
        }
        total.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::Sampler;

    fn fast(spec: VariationSpec) -> FastPath {
        let sampler = Sampler::new(spec, DeviceParams::at_100nm(), 1.8);
        FastPath::new(
            spec,
            DeviceParams::at_100nm(),
            sampler.overhead_components(),
        )
    }

    #[test]
    fn sensitivities_are_positive_and_sane() {
        let f = fast(VariationSpec::new(1));
        // Longer channel → slower; higher Vt → slower. The length
        // sensitivity is near 1 by the FO4-scales-with-L law.
        assert!(
            (0.5..1.5).contains(&f.length_sensitivity),
            "dln(FO4)/dln(L) = {}",
            f.length_sensitivity
        );
        assert!(f.vt_sensitivity > 0.0);
    }

    #[test]
    fn zero_sigma_yield_is_unity() {
        let mut spec = VariationSpec::new(1);
        for c in [
            &mut spec.fo4,
            &mut spec.latch,
            &mut spec.skew,
            &mut spec.jitter,
        ] {
            c.sigma = 0.0;
        }
        let f = fast(spec);
        for t in [2.0, 6.0, 16.0] {
            assert_eq!(f.yield_at(t), 1.0);
        }
    }

    #[test]
    fn deep_pipelines_lose_yield() {
        let f = fast(VariationSpec::new(1));
        // The Datta et al. mechanism: at small t_useful the (mostly
        // random) overhead variation is a large share of a small budget
        // and there are many stages to violate it, so yield climbs
        // steeply away from the deep end of the grid.
        let mut last = -1.0;
        for t in [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0] {
            let y = f.yield_at(t);
            assert!((0.0..=1.0).contains(&y), "yield({t}) = {y}");
            assert!(y >= last, "yield not monotone at t = {t}: {y} < {last}");
            last = y;
        }
        assert!(f.yield_at(2.0) < 0.7, "deep end should lose dies");
        assert!(f.yield_at(8.0) > 0.7, "shallow end should mostly yield");
        // Far out on the grid the die-level systematic corner caps the
        // curve; it must stay a sane probability there too.
        let tail = f.yield_at(16.0);
        assert!((0.5..=1.0).contains(&tail), "yield(16) = {tail}");
    }

    #[test]
    fn fast_path_tracks_monte_carlo() {
        // The yield-accuracy check in miniature: the analytic yield
        // stays within Monte Carlo sampling noise of the empirical one.
        let mut spec = VariationSpec::new(5);
        spec.samples = 96;
        let s = Sampler::new(spec, DeviceParams::at_100nm(), 1.8);
        let f = FastPath::new(spec, DeviceParams::at_100nm(), s.overhead_components());
        let dies: Vec<_> = (0..96).map(|i| s.die(i)).collect();
        for t in [3.0, 6.0, 10.0] {
            let mc = dies.iter().filter(|d| s.functional(d, t)).count() as f64 / 96.0;
            let analytic = f.yield_at(t);
            // Binomial sd at n = 96 is ≤ 0.051; allow 3 sigma plus model error.
            assert!(
                (mc - analytic).abs() < 0.22,
                "t = {t}: MC {mc} vs fast {analytic}"
            );
        }
    }
}
