//! Power-aware pipeline depth — the question the field asked immediately
//! after this paper (cf. Srinivasan et al., *Optimizing Pipelines for Power
//! and Performance*, MICRO 2002).
//!
//! Deeper pipelines don't just lose IPC: every extra stage adds a rank of
//! latches that burns clock energy every cycle, and a fixed workload takes
//! *more* cycles to retire at a deep clock (lower IPC), so energy per
//! instruction grows on both axes. This module combines
//!
//! * per-access structure energies from the `fo4depth-cacti` area model,
//! * a latch-count model (datapath width × total pipeline depth) with the
//!   per-latch energy measured by the `fo4depth-circuit` pulse-latch
//!   set-up's order of magnitude, and
//! * the simulator's event counts (instructions, cycles, loads, branches)
//!
//! into energy-per-instruction and the standard performance/power
//! aggregates. The qualitative result the follow-up literature reports —
//! **the power-aware optimum is shallower (more FO4 per stage) than the
//! performance-only optimum** — falls out.

use fo4depth_cacti::area::{cam_area, sram_area};
use fo4depth_cacti::presets;
use fo4depth_fo4::{Fo4, TechNode};
use fo4depth_util::harmonic_mean;
use fo4depth_workload::BenchProfile;

use crate::latency::StructureSet;
use crate::scaler::ScaledMachine;
use crate::sim::SimParams;
use crate::sweep::sweep_machines;

/// Energy coefficients (all in picojoules at 100 nm).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy of one pipeline latch toggling, per cycle, per bit (pJ).
    pub latch_bit_pj: f64,
    /// Datapath bits latched per stage rank (lanes × width).
    pub datapath_bits: f64,
    /// Fixed logic/decode energy per instruction (pJ).
    pub per_instruction_pj: f64,
    /// DL1 access energy (pJ) — from the cacti area model.
    pub dl1_access_pj: f64,
    /// L2 access energy (pJ).
    pub l2_access_pj: f64,
    /// Issue-window search energy per issued instruction (pJ).
    pub window_search_pj: f64,
    /// Register-file energy per instruction (pJ, read+write amortized).
    pub regfile_pj: f64,
}

impl EnergyModel {
    /// Coefficients for the Alpha-class machine at 100 nm, with structure
    /// energies taken from the cacti area model scaled by a wiring/clocking
    /// overhead factor, and the totals calibrated so the Alpha-point core
    /// draws single-digit-to-tens of watts (2002-class; the 21264 itself
    /// was ≈ 70 W with its I/O and clock grid).
    #[must_use]
    pub fn alpha_100nm() -> Self {
        let node = TechNode::NM_100;
        // Array-internal switching is a fraction of the delivered access
        // energy; drivers, wiring, and clocking multiply it.
        const STRUCT_OVERHEAD: f64 = 30.0;
        Self {
            latch_bit_pj: 0.03,
            // Issue lanes × operand width plus control state latched per
            // stage rank across the machine.
            datapath_bits: 2048.0,
            per_instruction_pj: 4000.0,
            dl1_access_pj: STRUCT_OVERHEAD * sram_area(&presets::data_cache_64kb(), node).energy_pj,
            l2_access_pj: STRUCT_OVERHEAD * sram_area(&presets::l2_cache_2mb(), node).energy_pj,
            window_search_pj: STRUCT_OVERHEAD
                * cam_area(&presets::issue_window(32), node).energy_pj,
            regfile_pj: 3.0
                * STRUCT_OVERHEAD
                * sram_area(&presets::register_file_512(), node).energy_pj,
        }
    }
}

/// One clock point of the power sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerPoint {
    /// Useful logic per stage.
    pub t_useful: f64,
    /// Harmonic-mean BIPS.
    pub bips: f64,
    /// Mean power in watts at 100 nm.
    pub watts: f64,
    /// Energy per instruction in nanojoules.
    pub nj_per_instruction: f64,
    /// BIPS per watt (energy efficiency).
    pub bips_per_watt: f64,
    /// BIPS³/W — the voltage-scaling-aware metric of the power-pipeline
    /// literature.
    pub bips3_per_watt: f64,
}

/// Total pipeline latch ranks of a scaled machine: the front end, register
/// read, a representative execute depth, and the D-cache pipeline.
fn stage_ranks(machine: &ScaledMachine) -> f64 {
    let d = &machine.config.depths;
    (d.front_end()
        + d.regread
        + u64::from(machine.latencies.int_add)
        + u64::from(machine.latencies.dcache)) as f64
}

/// Runs the power-performance sweep.
#[must_use]
pub fn power_sweep(
    profiles: &[BenchProfile],
    params: &SimParams,
    points: &[Fo4],
    energy: &EnergyModel,
) -> Vec<PowerPoint> {
    let structures = StructureSet::alpha_21264();
    let overhead = Fo4::new(1.8);
    let machines: Vec<ScaledMachine> = points
        .iter()
        .map(|&t| ScaledMachine::at(&structures, t, overhead))
        .collect();
    let sweep = sweep_machines(&machines, overhead, profiles, params);
    machines
        .iter()
        .zip(&sweep.points)
        .map(|(machine, point)| {
            // Per-benchmark energy/instruction, then aggregate.
            let mut epi_pj = Vec::new();
            let mut bips = Vec::new();
            for o in &point.outcomes {
                let r = &o.result;
                let instr = r.instructions as f64;
                let cycles = r.cycles as f64;
                let latch_pj =
                    cycles * stage_ranks(machine) * energy.datapath_bits * energy.latch_bit_pj;
                let struct_pj = r.loads as f64 * energy.dl1_access_pj
                    + (r.l1.misses as f64) * energy.l2_access_pj
                    + instr * (energy.window_search_pj + energy.regfile_pj);
                let logic_pj = instr * energy.per_instruction_pj;
                epi_pj.push((latch_pj + struct_pj + logic_pj) / instr);
                bips.push(r.bips(point.period_ps));
            }
            let bips = harmonic_mean(bips.iter().copied()).expect("positive BIPS");
            let epi = epi_pj.iter().sum::<f64>() / epi_pj.len() as f64;
            // P = E/instr × instructions/second = epi(pJ) × BIPS(G/s) ⇒ mW…
            // pJ × 1e9/s = mW; convert to watts.
            let watts = epi * bips / 1000.0;
            PowerPoint {
                t_useful: point.t_useful,
                bips,
                watts,
                nj_per_instruction: epi / 1000.0,
                bips_per_watt: bips / watts,
                bips3_per_watt: bips.powi(3) / watts,
            }
        })
        .collect()
}

/// The `t_useful` maximizing a metric over the sweep.
///
/// # Panics
///
/// Panics if `points` is empty.
#[must_use]
pub fn optimum_by<F: Fn(&PowerPoint) -> f64>(points: &[PowerPoint], metric: F) -> f64 {
    points
        .iter()
        .max_by(|a, b| metric(a).partial_cmp(&metric(b)).expect("finite metric"))
        .expect("non-empty sweep")
        .t_useful
}

#[cfg(test)]
mod tests {
    use super::*;
    use fo4depth_workload::profiles;

    fn sweep() -> Vec<PowerPoint> {
        let profs = vec![
            profiles::by_name("164.gzip").unwrap(),
            profiles::by_name("176.gcc").unwrap(),
            profiles::by_name("171.swim").unwrap(),
        ];
        let params = SimParams {
            warmup: 3_000,
            measure: 12_000,
            seed: 1,
        };
        let points: Vec<Fo4> = [2.0, 4.0, 6.0, 9.0, 12.0, 16.0]
            .into_iter()
            .map(Fo4::new)
            .collect();
        power_sweep(&profs, &params, &points, &EnergyModel::alpha_100nm())
    }

    #[test]
    fn deep_clocks_burn_more_energy_per_instruction() {
        let pts = sweep();
        let epi_at = |t: f64| {
            pts.iter()
                .find(|p| p.t_useful == t)
                .expect("point")
                .nj_per_instruction
        };
        assert!(epi_at(2.0) > epi_at(6.0));
        assert!(epi_at(6.0) > epi_at(16.0));
    }

    #[test]
    fn power_aware_optimum_is_shallower_than_performance_optimum() {
        // The follow-up literature's result: efficiency metrics move the
        // optimum toward fewer, fatter stages.
        let pts = sweep();
        let by_bips = optimum_by(&pts, |p| p.bips);
        let by_eff = optimum_by(&pts, |p| p.bips_per_watt);
        let by_ed2 = optimum_by(&pts, |p| p.bips3_per_watt);
        assert!(
            by_eff >= by_bips,
            "BIPS/W optimum {by_eff} vs BIPS {by_bips}"
        );
        assert!(
            (by_bips..=16.0).contains(&by_ed2),
            "BIPS^3/W optimum {by_ed2} should sit between {by_bips} and the shallow end"
        );
        // Pure efficiency pushes all the way shallow.
        assert!(by_eff >= 12.0, "BIPS/W optimum {by_eff}");
    }

    #[test]
    fn power_is_era_plausible() {
        // A 2002-class core: single-digit to low-tens of watts.
        let pts = sweep();
        for p in &pts {
            assert!(
                (0.5..80.0).contains(&p.watts),
                "{} FO4: {} W",
                p.t_useful,
                p.watts
            );
        }
    }
}
