//! The paper's closing argument (§7), made executable: once pipelining is
//! exhausted, where must performance come from?
//!
//! "Microprocessor performance has improved at about 55% per year for the
//! last three decades … our results show that pipelining can contribute at
//! most another factor of two to clock rate improvements. Subsequently, in
//! the best case, clock rates will increase at the rate of feature size
//! scaling, which is projected to be 12-20% per year. … concurrency must
//! start increasing at 33% per year and sustain a total of 50 IPC within
//! the next 15 years."

use fo4depth_workload::BenchClass;

use crate::sweep::DepthSweep;

/// Assumptions of the §7 projection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectionInputs {
    /// Historical annual performance growth to sustain (paper: 1.55).
    pub performance_growth: f64,
    /// Annual clock growth available from feature scaling alone
    /// (paper: 1.12–1.20).
    pub frequency_growth: f64,
    /// Remaining one-time clock headroom from deeper pipelining (the
    /// paper's "at most another factor of two"; measured from a sweep with
    /// [`pipelining_headroom`]).
    pub pipelining_headroom: f64,
    /// Starting sustained IPC of a current design (≈ 1–2 in 2002).
    pub start_ipc: f64,
    /// Projection horizon in years (paper: 15).
    pub years: u32,
}

impl ProjectionInputs {
    /// The paper's §7 assumptions: the conservative 12 %/year end of the
    /// quoted feature-scaling range (which is what makes its 33 %/year
    /// concurrency figure come out), and a sustained harmonic-mean IPC of
    /// ≈ 0.7 for a 2002-era design.
    #[must_use]
    pub fn isca2002() -> Self {
        Self {
            performance_growth: 1.55,
            frequency_growth: 1.12,
            pipelining_headroom: 2.0,
            start_ipc: 0.7,
            years: 15,
        }
    }
}

/// Outcome of the projection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Projection {
    /// Required annual concurrency (IPC) growth once pipelining headroom is
    /// spent.
    pub annual_ipc_growth: f64,
    /// Sustained IPC required at the horizon.
    pub required_ipc: f64,
}

/// Computes the required concurrency growth.
///
/// Over `years`, total performance must grow `performance_growth^years`;
/// frequency contributes `pipelining_headroom × frequency_growth^years`;
/// concurrency must supply the rest.
#[must_use]
pub fn project(inputs: &ProjectionInputs) -> Projection {
    let years = f64::from(inputs.years);
    let needed = inputs.performance_growth.powf(years);
    let from_clock = inputs.pipelining_headroom * inputs.frequency_growth.powf(years);
    let ipc_multiplier = needed / from_clock;
    Projection {
        annual_ipc_growth: ipc_multiplier.powf(1.0 / years),
        required_ipc: inputs.start_ipc * ipc_multiplier,
    }
}

/// Measures the remaining pipelining headroom from a depth sweep: the
/// class-optimal BIPS over the BIPS at then-current logic depths
/// (12–17 FO4 per stage in 2002).
///
/// # Panics
///
/// Panics if the sweep has no points at or beyond 12 FO4 for the class.
#[must_use]
pub fn pipelining_headroom(sweep: &DepthSweep, class: BenchClass) -> f64 {
    let series = sweep.series(Some(class));
    let best = sweep.class_optimum(class).1;
    let current = series
        .iter()
        .filter(|p| p.0 >= 12.0)
        .map(|p| p.1)
        .fold(f64::MIN, f64::max);
    assert!(current > 0.0, "sweep lacks current-design points");
    best / current
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers_reproduce() {
        // With the paper's assumptions the required concurrency growth is
        // ≈ 33 %/year and the 15-year IPC lands near 50.
        let p = project(&ProjectionInputs::isca2002());
        assert!(
            (1.30..1.36).contains(&p.annual_ipc_growth),
            "annual growth {} (paper: 1.33)",
            p.annual_ipc_growth
        );
        assert!(
            (35.0..70.0).contains(&p.required_ipc),
            "required IPC {} (paper: ~50)",
            p.required_ipc
        );
    }

    #[test]
    fn faster_scaling_demands_less_concurrency() {
        let slow = project(&ProjectionInputs {
            frequency_growth: 1.12,
            ..ProjectionInputs::isca2002()
        });
        let fast = project(&ProjectionInputs {
            frequency_growth: 1.20,
            ..ProjectionInputs::isca2002()
        });
        assert!(fast.annual_ipc_growth < slow.annual_ipc_growth);
        assert!(fast.required_ipc < slow.required_ipc);
    }

    #[test]
    fn measured_headroom_feeds_the_projection() {
        use crate::latency::StructureSet;
        use crate::sim::SimParams;
        use crate::sweep::{depth_sweep_spec, CoreKind, SweepSpec};
        use fo4depth_fo4::Fo4;
        use fo4depth_workload::profiles;

        let profs = vec![
            profiles::by_name("164.gzip").unwrap(),
            profiles::by_name("176.gcc").unwrap(),
        ];
        let params = SimParams {
            warmup: 3_000,
            measure: 10_000,
            seed: 1,
        };
        let points: Vec<Fo4> = [4.0, 6.0, 9.0, 12.0, 14.0]
            .into_iter()
            .map(Fo4::new)
            .collect();
        let spec = SweepSpec {
            core: CoreKind::OutOfOrder,
            profiles: &profs,
            params: &params,
            structures: &StructureSet::alpha_21264(),
            overhead: Fo4::new(1.8),
            points: &points,
            observed: false,
        };
        let sweep = depth_sweep_spec(&spec, fo4depth_exec::global());
        let headroom = pipelining_headroom(&sweep, BenchClass::Integer);
        // The paper's bound: at most ~2x.
        assert!(
            (1.0..2.5).contains(&headroom),
            "measured headroom {headroom}"
        );
        let p = project(&ProjectionInputs {
            pipelining_headroom: headroom,
            ..ProjectionInputs::isca2002()
        });
        assert!(p.required_ipc > 10.0);
    }
}
