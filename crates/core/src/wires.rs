//! The wire-delay study — the paper's §7 future work, realized.
//!
//! "Long wires that arise as design complexity increases can have a
//! substantial impact on the pipelining of the microarchitecture. For
//! example, the high clock rate target of the Intel Pentium IV forced the
//! designers to dedicate two pipeline stages just for data transportation.
//! We will examine the effects of wire delays on our pipeline models and
//! optimal clock rate selection in future work."
//!
//! This module performs that examination: the front end is charged a
//! communication budget (millimetres of repeated global wire the
//! instruction-delivery path must cross), which quantizes into extra
//! "drive" stages at each clock, deepening the branch-misprediction refill.
//! As the wire budget grows, deep clocks are taxed more (more drive stages)
//! and the optimal logic depth per stage moves shallower.

use fo4depth_fo4::{Fo4, WireModel};
use fo4depth_workload::{BenchClass, BenchProfile};

use crate::ablation::sweep_with_options;
use crate::scaler::ScaleOptions;
use crate::sim::SimParams;
use crate::sweep::DepthSweep;

/// One curve of the wire study.
#[derive(Debug, Clone, PartialEq)]
pub struct WireCurve {
    /// Front-end communication distance in millimetres.
    pub transport_mm: f64,
    /// The sweep under that budget.
    pub sweep: DepthSweep,
}

impl WireCurve {
    /// The integer optimum under this wire budget.
    ///
    /// # Panics
    ///
    /// Panics if the sweep has no integer benchmarks.
    #[must_use]
    pub fn integer_optimum(&self) -> f64 {
        self.sweep.class_optimum(BenchClass::Integer).0
    }
}

/// Runs the wire study over the given communication budgets.
#[must_use]
pub fn wire_study(
    profiles: &[BenchProfile],
    params: &SimParams,
    points: &[Fo4],
    budgets_mm: &[f64],
) -> Vec<WireCurve> {
    budgets_mm
        .iter()
        .map(|&transport_mm| WireCurve {
            transport_mm,
            sweep: sweep_with_options(
                profiles,
                params,
                points,
                ScaleOptions {
                    transport_mm,
                    wires: WireModel::default(),
                    ..ScaleOptions::default()
                },
            ),
        })
        .collect()
}

/// The floorplan-derived wire budget: instead of sweeping arbitrary
/// distances, derive the front-end transport distance from the configured
/// structures' silicon areas (see [`crate::floorplan`]) and run the sweep
/// under that budget.
#[must_use]
pub fn floorplan_wire_study(
    profiles: &[BenchProfile],
    params: &SimParams,
    points: &[Fo4],
) -> WireCurve {
    let plan = crate::floorplan::Floorplan::of(
        &crate::capacity::CapacityChoice::base(),
        fo4depth_fo4::TechNode::NM_100,
    );
    let mm = plan.front_end_distance_mm();
    wire_study(profiles, params, points, &[mm])
        .pop()
        .expect("one budget requested")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fo4depth_workload::profiles;

    #[test]
    fn floorplan_derived_budget_is_plausible() {
        let profs = vec![profiles::by_name("164.gzip").unwrap()];
        let params = SimParams {
            warmup: 2_000,
            measure: 8_000,
            seed: 1,
        };
        let points: Vec<Fo4> = [4.0, 6.0].into_iter().map(Fo4::new).collect();
        let c = floorplan_wire_study(&profs, &params, &points);
        assert!(
            (0.5..10.0).contains(&c.transport_mm),
            "derived distance {} mm",
            c.transport_mm
        );
        assert_eq!(c.sweep.points.len(), 2);
    }

    #[test]
    fn wire_budget_costs_performance_and_never_deepens_the_optimum() {
        let profs = vec![
            profiles::by_name("176.gcc").unwrap(),
            profiles::by_name("164.gzip").unwrap(),
        ];
        let params = SimParams {
            warmup: 4_000,
            measure: 15_000,
            seed: 1,
        };
        let points: Vec<Fo4> = [3.0, 6.0, 9.0, 12.0].into_iter().map(Fo4::new).collect();
        let curves = wire_study(&profs, &params, &points, &[0.0, 20.0]);

        // Wires cost BIPS at every clock point.
        let base = curves[0].sweep.series(Some(BenchClass::Integer));
        let wired = curves[1].sweep.series(Some(BenchClass::Integer));
        for (b, w) in base.iter().zip(&wired) {
            assert!(w.1 < b.1, "wire budget must cost: {b:?} vs {w:?}");
        }
        // And the optimum never moves deeper (less logic per stage) as the
        // communication tax grows.
        assert!(curves[1].integer_optimum() >= curves[0].integer_optimum());
    }
}
