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
use serde::{Deserialize, Serialize};

use crate::latency::StructureSet;
use crate::scaler::ScaledMachine;
use crate::sim::{arenas_for, run_ooo, run_set, summarize, SimParams};
use crate::sweep::{standard_points, CoreKind, DepthSweep, SweepPoint};

/// Candidate D-cache capacities (bytes).
pub const DCACHE_CANDIDATES: [u64; 4] = [16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024];
/// Candidate L2 capacities (bytes).
pub const L2_CANDIDATES: [u64; 4] = [256 * 1024, 512 * 1024, 1024 * 1024, 2 * 1024 * 1024];
/// Candidate issue-window capacities (entries).
pub const WINDOW_CANDIDATES: [u32; 3] = [16, 32, 64];
/// Candidate predictor table sizes (entries).
pub const PREDICTOR_CANDIDATES: [u64; 3] = [512, 1024, 4096];

/// The capacity choice for one clock point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

/// Mean BIPS of a capacity choice at one clock.
fn score(
    choice: &CapacityChoice,
    t: Fo4,
    overhead: Fo4,
    arenas: &[Arc<TraceArena>],
    params: &SimParams,
) -> f64 {
    let machine =
        ScaledMachine::with_window_entries(&choice.structures(), t, overhead, choice.window);
    let outcomes = run_set(arenas, |a| run_ooo(&machine.config, a, params, false));
    summarize(&outcomes, None, machine.period_ps())
        .expect("non-empty profile set")
        .bips
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
    optimize_at_arenas(t, overhead, &arenas_for(profiles, params), params)
}

/// [`optimize_at`] over pre-materialized arenas, so a multi-point study
/// shares one trace set across the whole coordinate search.
fn optimize_at_arenas(
    t: Fo4,
    overhead: Fo4,
    arenas: &[Arc<TraceArena>],
    params: &SimParams,
) -> CapacityChoice {
    let mut best = CapacityChoice::base();

    let mut best_dcache = (f64::NEG_INFINITY, best.dcache);
    for d in DCACHE_CANDIDATES {
        let s = score(
            &CapacityChoice { dcache: d, ..best },
            t,
            overhead,
            arenas,
            params,
        );
        if s > best_dcache.0 {
            best_dcache = (s, d);
        }
    }
    best.dcache = best_dcache.1;

    let mut best_l2 = (f64::NEG_INFINITY, best.l2);
    for c in L2_CANDIDATES {
        let s = score(
            &CapacityChoice { l2: c, ..best },
            t,
            overhead,
            arenas,
            params,
        );
        if s > best_l2.0 {
            best_l2 = (s, c);
        }
    }
    best.l2 = best_l2.1;

    let mut best_window = (f64::NEG_INFINITY, best.window);
    for w in WINDOW_CANDIDATES {
        let s = score(
            &CapacityChoice { window: w, ..best },
            t,
            overhead,
            arenas,
            params,
        );
        if s > best_window.0 {
            best_window = (s, w);
        }
    }
    best.window = best_window.1;

    let mut best_pred = (f64::NEG_INFINITY, best.predictor);
    for p in PREDICTOR_CANDIDATES {
        let s = score(
            &CapacityChoice {
                predictor: p,
                ..best
            },
            t,
            overhead,
            arenas,
            params,
        );
        if s > best_pred.0 {
            best_pred = (s, p);
        }
    }
    best.predictor = best_pred.1;

    best
}

/// Figure 7's two curves: the fixed-Alpha machine and the per-clock
/// capacity-optimized machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// Runs Figure 7 over the standard clock points.
#[must_use]
pub fn capacity_study(profiles: &[BenchProfile], params: &SimParams) -> CapacityStudy {
    capacity_study_with(profiles, params, &standard_points())
}

/// [`capacity_study`] with explicit clock points.
#[must_use]
pub fn capacity_study_with(
    profiles: &[BenchProfile],
    params: &SimParams,
    points: &[Fo4],
) -> CapacityStudy {
    let overhead = Fo4::new(1.8);
    let base = crate::sweep::depth_sweep_with(
        CoreKind::OutOfOrder,
        profiles,
        params,
        &StructureSet::alpha_21264(),
        overhead,
        points,
    );

    let arenas = arenas_for(profiles, params);
    let mut optimized_points = Vec::with_capacity(points.len());
    let mut choices = Vec::with_capacity(points.len());
    for &t in points {
        let choice = optimize_at_arenas(t, overhead, &arenas, params);
        let machine =
            ScaledMachine::with_window_entries(&choice.structures(), t, overhead, choice.window);
        let outcomes = run_set(&arenas, |a| run_ooo(&machine.config, a, params, false));
        optimized_points.push(SweepPoint {
            t_useful: t.get(),
            period_ps: machine.period_ps(),
            outcomes,
        });
        choices.push(choice);
    }
    CapacityStudy {
        base,
        optimized: DepthSweep {
            core: CoreKind::OutOfOrder,
            overhead: overhead.get(),
            points: optimized_points,
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
