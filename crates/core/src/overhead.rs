//! Overhead sensitivity — Figure 6.
//!
//! Re-runs the integer depth sweep for several values of `t_overhead`
//! (0–6 FO4) and plots BIPS against the **total clock period**. The
//! paper's finding: more overhead costs performance everywhere (deeper
//! pipelines suffer more, because overhead is a larger fraction of their
//! period), but the *optimal useful logic per stage barely moves* for
//! overheads between 1 and 5 FO4.

use fo4depth_fo4::Fo4;
use fo4depth_workload::{BenchClass, BenchProfile};

use crate::latency::StructureSet;
use crate::sim::SimParams;
use crate::sweep::{depth_sweep_with, standard_points, CoreKind, DepthSweep};

/// One overhead curve of Figure 6.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadCurve {
    /// The overhead (FO4) this curve was swept at.
    pub overhead: f64,
    /// The underlying sweep.
    pub sweep: DepthSweep,
}

impl OverheadCurve {
    /// `(clock period FO4, BIPS)` series for the integer class — Figure
    /// 6's axes.
    #[must_use]
    pub fn period_series(&self) -> Vec<(f64, f64)> {
        self.sweep
            .series(Some(BenchClass::Integer))
            .into_iter()
            .map(|(t, bips)| (t + self.overhead, bips))
            .collect()
    }

    /// The optimal `t_useful` for integer code on this curve.
    ///
    /// # Panics
    ///
    /// Panics if the sweep is empty.
    #[must_use]
    pub fn optimum_useful(&self) -> f64 {
        self.sweep.class_optimum(BenchClass::Integer).0
    }
}

/// Runs Figure 6: integer benchmarks, overheads 0–6 FO4.
#[must_use]
pub fn overhead_sensitivity(profiles: &[BenchProfile], params: &SimParams) -> Vec<OverheadCurve> {
    overhead_sensitivity_with(
        profiles,
        params,
        &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        &standard_points(),
    )
}

/// [`overhead_sensitivity`] with explicit overhead values and clock points.
#[must_use]
pub fn overhead_sensitivity_with(
    profiles: &[BenchProfile],
    params: &SimParams,
    overheads: &[f64],
    points: &[Fo4],
) -> Vec<OverheadCurve> {
    let structures = StructureSet::alpha_21264();
    overheads
        .iter()
        .map(|&ovh| OverheadCurve {
            overhead: ovh,
            sweep: depth_sweep_with(
                CoreKind::OutOfOrder,
                profiles,
                params,
                &structures,
                Fo4::new(ovh),
                points,
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fo4depth_workload::profiles;

    #[test]
    fn lower_overhead_is_always_faster_at_fixed_depth() {
        let profs = vec![profiles::by_name("164.gzip").unwrap()];
        let params = SimParams {
            warmup: 3_000,
            measure: 10_000,
            seed: 1,
        };
        let curves = overhead_sensitivity_with(
            &profs,
            &params,
            &[0.0, 4.0],
            &[Fo4::new(4.0), Fo4::new(8.0)],
        );
        // Same IPC (identical machine), shorter period ⇒ strictly more BIPS.
        for (p0, p4) in curves[0]
            .sweep
            .series(Some(BenchClass::Integer))
            .iter()
            .zip(curves[1].sweep.series(Some(BenchClass::Integer)).iter())
        {
            assert!(p0.1 > p4.1, "zero overhead must win: {p0:?} vs {p4:?}");
        }
    }

    #[test]
    fn period_series_shifts_by_overhead() {
        let profs = vec![profiles::by_name("164.gzip").unwrap()];
        let params = SimParams {
            warmup: 2_000,
            measure: 5_000,
            seed: 1,
        };
        let curves = overhead_sensitivity_with(&profs, &params, &[2.0], &[Fo4::new(6.0)]);
        let series = curves[0].period_series();
        assert_eq!(series[0].0, 8.0); // 6 useful + 2 overhead
    }
}
