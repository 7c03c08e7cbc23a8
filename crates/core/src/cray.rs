//! The CRAY-1S comparison — §4.2 and Appendix A.
//!
//! Two pieces:
//!
//! 1. **Memory-system experiment.** Replace the cache hierarchy with a
//!    CRAY-1S-style flat memory ("12 cycle access memory, no caches") and
//!    re-run the integer depth sweep. With every load paying a long,
//!    clock-independent absolute latency, deeper pipelining stops paying
//!    off sooner: the paper finds the integer optimum moves from 6 FO4 back
//!    to ≈ 11 FO4. We interpret "12 cycles" at the Alpha reference clock
//!    (12 × 17.4 FO4 of absolute latency, ≈ 7.5 ns at 100 nm), quantized to
//!    cycles at each candidate clock like every other structure.
//! 2. **ECL-gate equivalence.** The `fo4depth-circuit` crate measures one
//!    Cray gate (NAND4 → NAND5 pair) at ≈ 1.36 FO4, converting Kunkel &
//!    Smith's 8-gate/4-gate optima to ≈ 10.9 / 5.4 FO4 (Appendix A).

use fo4depth_fo4::{cycles_for, Fo4};
use fo4depth_uarch::cache::HierarchyConfig;
use fo4depth_workload::{BenchClass, BenchProfile};

use crate::latency::{StructureSet, ALPHA_USEFUL_FO4};
use crate::scaler::ScaledMachine;
use crate::sim::SimParams;
use crate::sweep::{sweep_machines, DepthSweep};

/// Absolute latency of the CRAY-like flat memory, in FO4: 12 cycles at the
/// 17.4 FO4 Alpha reference clock.
pub const CRAY_MEMORY_FO4: f64 = 12.0 * ALPHA_USEFUL_FO4;

/// Runs the §4.2 sweep at the given clock points: the benchmarks on the
/// out-of-order core with a flat, uncached memory.
#[must_use]
pub fn cray_memory_sweep_with(
    profiles: &[BenchProfile],
    params: &SimParams,
    points: &[Fo4],
) -> DepthSweep {
    let structures = StructureSet::alpha_21264();
    let overhead = Fo4::new(1.8);
    let machines: Vec<ScaledMachine> = points
        .iter()
        .map(|&t| {
            let mut machine = ScaledMachine::at(&structures, t, overhead);
            let mem_cycles = cycles_for(Fo4::new(CRAY_MEMORY_FO4), t);
            machine.config.hierarchy = HierarchyConfig::flat_memory(u64::from(mem_cycles));
            machine
        })
        .collect();
    sweep_machines(&machines, overhead, profiles, params)
}

/// Kunkel & Smith's gate-level optima converted to FO4 via the measured
/// ECL-gate equivalence (Appendix A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KunkelSmithEquivalence {
    /// Measured FO4 per Cray ECL gate (paper: 1.36).
    pub gate_fo4: f64,
    /// Scalar-code optimum: 8 gate levels (paper: ≈ 10.9 FO4).
    pub scalar_optimum_fo4: f64,
    /// Vector-code optimum: 4 gate levels (paper: ≈ 5.4 FO4).
    pub vector_optimum_fo4: f64,
}

/// Measures the equivalence with the circuit simulator.
#[must_use]
pub fn kunkel_smith_equivalence() -> KunkelSmithEquivalence {
    let m = fo4depth_circuit::ecl::measure_ecl_gate(&fo4depth_circuit::DeviceParams::at_100nm());
    KunkelSmithEquivalence {
        gate_fo4: m.gate_in_fo4(),
        scalar_optimum_fo4: m.cray_scalar_stage_fo4(),
        vector_optimum_fo4: m.cray_vector_stage_fo4(),
    }
}

/// The integer optimum under CRAY-like memory, for reporting.
///
/// # Panics
///
/// Panics if the sweep contains no integer benchmarks.
#[must_use]
pub fn integer_optimum(sweep: &DepthSweep) -> f64 {
    sweep.class_optimum(BenchClass::Integer).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use fo4depth_workload::profiles;

    #[test]
    fn flat_memory_pushes_optimum_shallower() {
        let profs = vec![
            profiles::by_name("164.gzip").unwrap(),
            profiles::by_name("197.parser").unwrap(),
        ];
        let params = SimParams {
            warmup: 3_000,
            measure: 12_000,
            seed: 1,
        };
        let points: Vec<Fo4> = [4.0, 6.0, 11.0, 14.0].into_iter().map(Fo4::new).collect();
        let cray = cray_memory_sweep_with(&profs, &params, &points);
        let spec = crate::sweep::SweepSpec {
            core: crate::sweep::CoreKind::OutOfOrder,
            profiles: &profs,
            params: &params,
            structures: &StructureSet::alpha_21264(),
            overhead: Fo4::new(1.8),
            points: &points,
            observed: false,
        };
        let cached = crate::sweep::depth_sweep_spec(&spec, &fo4depth_exec::Pool::new(1));
        let cray_opt = integer_optimum(&cray);
        let cached_opt = cached.class_optimum(BenchClass::Integer).0;
        assert!(
            cray_opt >= cached_opt,
            "CRAY memory optimum {cray_opt} should be no deeper than cached {cached_opt}"
        );
        assert!(cray_opt >= 6.0, "CRAY optimum {cray_opt} too deep");
    }

    #[test]
    fn equivalence_close_to_paper() {
        let e = kunkel_smith_equivalence();
        assert!(
            (1.0..1.7).contains(&e.gate_fo4),
            "gate = {} FO4",
            e.gate_fo4
        );
        assert!(
            (8.0..13.6).contains(&e.scalar_optimum_fo4),
            "scalar = {} FO4",
            e.scalar_optimum_fo4
        );
        assert!((e.vector_optimum_fo4 * 2.0 - e.scalar_optimum_fo4).abs() < 1e-9);
    }

    #[test]
    fn cray_memory_is_deliberately_slow() {
        // 12 Alpha cycles ≈ 7.5 ns at 100 nm.
        let ns = Fo4::new(CRAY_MEMORY_FO4)
            .to_picoseconds(fo4depth_fo4::TechNode::NM_100)
            .nanoseconds();
        assert!((7.0..8.0).contains(&ns));
    }
}
