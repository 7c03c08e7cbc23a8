//! Structure-capacity optimization — Figure 7 (§4.5).
//!
//! At each candidate clock, the fixed Alpha capacities may no longer be the
//! right trade-off: a deep clock turns the 64 KB DL1 into many cycles, and
//! a smaller, faster cache may win. Following the paper's method, we
//! measure performance sensitivity per structure (varying one capacity at a
//! time around the base configuration) and pick each structure's best
//! capacity; the "optimized" machine uses the per-structure winners.
//! The paper reports ≈ +14 % average BIPS, with the optimum still at
//! 6 FO4 of useful logic.

use std::sync::Arc;

use fo4depth_fo4::Fo4;
use fo4depth_workload::{BenchProfile, TraceArena};

use crate::latency::StructureSet;
use crate::scaler::ScaledMachine;
use crate::sim::{run_ooo, summarize, SimParams};
use crate::sweep::{
    auto_lanes, build_arenas, depth_sweep_arenas_batched, run_points, CoreKind, DepthSweep,
    SweepSpec,
};

/// Candidate D-cache capacities (bytes).
pub const DCACHE_CANDIDATES: [u64; 4] = [16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024];
/// Candidate L2 capacities (bytes).
pub const L2_CANDIDATES: [u64; 4] = [256 * 1024, 512 * 1024, 1024 * 1024, 2 * 1024 * 1024];
/// Candidate issue-window capacities (entries).
pub const WINDOW_CANDIDATES: [u32; 3] = [16, 32, 64];
/// Candidate predictor table sizes (entries).
pub const PREDICTOR_CANDIDATES: [u64; 3] = [512, 1024, 4096];

/// The capacity choice for one clock point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityChoice {
    /// D-cache bytes.
    pub dcache: u64,
    /// L2 bytes.
    pub l2: u64,
    /// Window entries.
    pub window: u32,
    /// Predictor entries.
    pub predictor: u64,
}

impl CapacityChoice {
    /// The Alpha-21264 base capacities.
    #[must_use]
    pub fn base() -> Self {
        Self {
            dcache: 64 * 1024,
            l2: 2 * 1024 * 1024,
            window: 32,
            predictor: 1024,
        }
    }

    /// The structure set this choice induces.
    #[must_use]
    pub fn structures(&self) -> StructureSet {
        StructureSet::with_capacities(self.dcache, self.l2, self.window, self.predictor)
    }
}

/// Finds the per-structure best capacities at one clock point (coordinate
/// search around the base configuration, one structure at a time — the
/// paper's sensitivity-curve method).
#[must_use]
pub fn optimize_at(
    t: Fo4,
    overhead: Fo4,
    profiles: &[BenchProfile],
    params: &SimParams,
) -> CapacityChoice {
    let arenas = build_arenas(profiles, params, fo4depth_exec::global());
    optimize_at_arenas(t, overhead, &arenas, params)
}

/// [`optimize_at`] over pre-materialized arenas, so a multi-point study
/// shares one trace set across the whole coordinate search.
fn optimize_at_arenas(
    t: Fo4,
    overhead: Fo4,
    arenas: &[Arc<TraceArena>],
    params: &SimParams,
) -> CapacityChoice {
    // Mean BIPS of a capacity choice at this clock.
    let bips_of = |choice: CapacityChoice| {
        let machine =
            ScaledMachine::with_window_entries(&choice.structures(), t, overhead, choice.window);
        let outcomes =
            fo4depth_exec::global().map(arenas, |a| run_ooo(&machine.config, a, params, false));
        summarize(&outcomes, None, machine.period_ps())
            .expect("non-empty profile set")
            .bips
    };
    let mut best = CapacityChoice::base();
    best.dcache = best_of(&DCACHE_CANDIDATES, best.dcache, |dcache| {
        bips_of(CapacityChoice { dcache, ..best })
    });
    best.l2 = best_of(&L2_CANDIDATES, best.l2, |l2| {
        bips_of(CapacityChoice { l2, ..best })
    });
    best.window = best_of(&WINDOW_CANDIDATES, best.window, |window| {
        bips_of(CapacityChoice { window, ..best })
    });
    best.predictor = best_of(&PREDICTOR_CANDIDATES, best.predictor, |predictor| {
        bips_of(CapacityChoice { predictor, ..best })
    });
    best
}

/// The first of `candidates` with the highest score, or `current` when no
/// candidate scores above −∞.
fn best_of<T: Copy>(candidates: &[T], current: T, score: impl Fn(T) -> f64) -> T {
    let mut best = (f64::NEG_INFINITY, current);
    for &c in candidates {
        let s = score(c);
        if s > best.0 {
            best = (s, c);
        }
    }
    best.1
}

/// Figure 7's two curves: the fixed-Alpha machine and the per-clock
/// capacity-optimized machine.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityStudy {
    /// Sweep with base capacities.
    pub base: DepthSweep,
    /// Sweep with per-clock optimized capacities.
    pub optimized: DepthSweep,
    /// The choices made at each point (parallel to `optimized.points`).
    pub choices: Vec<CapacityChoice>,
}

impl CapacityStudy {
    /// Mean BIPS gain of optimization over the base machine across points
    /// (the paper reports ≈ +14 % on average).
    ///
    /// # Panics
    ///
    /// Panics if the sweeps are empty or misaligned.
    #[must_use]
    pub fn mean_gain(&self) -> f64 {
        let base = self.base.series(None);
        let opt = self.optimized.series(None);
        assert_eq!(base.len(), opt.len());
        assert!(!base.is_empty());
        let gains: f64 = base
            .iter()
            .zip(&opt)
            .map(|((_, b), (_, o))| o / b - 1.0)
            .sum();
        gains / base.len() as f64
    }
}

/// Runs Figure 7 at the given clock points. One arena set serves the base
/// sweep, the capacity search and the optimized sweep.
#[must_use]
pub fn capacity_study_with(
    profiles: &[BenchProfile],
    params: &SimParams,
    points: &[Fo4],
) -> CapacityStudy {
    let core = CoreKind::OutOfOrder;
    let overhead = Fo4::new(1.8);
    let pool = fo4depth_exec::global();
    let arenas = build_arenas(profiles, params, pool);
    let spec = SweepSpec {
        core,
        profiles,
        params,
        structures: &StructureSet::alpha_21264(),
        overhead,
        points,
        observed: false,
    };
    let base = depth_sweep_arenas_batched(&spec, &arenas, pool, auto_lanes(core, points.len()));

    let choices: Vec<CapacityChoice> = points
        .iter()
        .map(|&t| optimize_at_arenas(t, overhead, &arenas, params))
        .collect();
    let machines: Vec<ScaledMachine> = points
        .iter()
        .zip(&choices)
        .map(|(&t, choice)| {
            ScaledMachine::with_window_entries(&choice.structures(), t, overhead, choice.window)
        })
        .collect();
    // The chosen DL1 and L2 sizes differ from point to point, and lanes
    // share one prewarmed cache, so each optimized cell runs on its own.
    let optimized = run_points(core, false, params, &machines, &arenas, pool, 1);
    CapacityStudy {
        base,
        optimized: DepthSweep {
            core,
            overhead: overhead.get(),
            points: optimized,
        },
        choices,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fo4depth_workload::profiles;

    #[test]
    fn optimized_never_loses_to_base_by_much() {
        // The optimizer includes the base capacities among its candidates,
        // so (modulo simulation noise between runs) it should match or beat
        // the base machine.
        let profs = vec![
            profiles::by_name("181.mcf").unwrap(),
            profiles::by_name("164.gzip").unwrap(),
        ];
        let params = SimParams {
            warmup: 2_000,
            measure: 8_000,
            seed: 1,
        };
        let study = capacity_study_with(&profs, &params, &[Fo4::new(4.0)]);
        let gain = study.mean_gain();
        assert!(gain > -0.05, "optimizer lost {gain} vs base");
    }

    #[test]
    fn deep_clocks_prefer_smaller_caches_than_shallow() {
        // At very deep clocks the big DL1 costs many cycles; the chosen
        // capacity should not exceed the shallow-clock choice.
        let profs = vec![profiles::by_name("164.gzip").unwrap()];
        let params = SimParams {
            warmup: 2_000,
            measure: 8_000,
            seed: 1,
        };
        let deep = optimize_at(Fo4::new(2.0), Fo4::new(1.8), &profs, &params);
        let shallow = optimize_at(Fo4::new(14.0), Fo4::new(1.8), &profs, &params);
        assert!(
            deep.dcache <= shallow.dcache,
            "deep {:?} vs shallow {:?}",
            deep.dcache,
            shallow.dcache
        );
    }

    #[test]
    fn base_choice_matches_alpha() {
        let b = CapacityChoice::base();
        assert_eq!(b.dcache, 64 * 1024);
        assert_eq!(b.l2, 2 * 1024 * 1024);
        assert_eq!(b.window, 32);
    }
}
