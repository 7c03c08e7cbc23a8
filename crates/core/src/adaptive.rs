//! Adaptive depth-sweep planning — coarse bracket, then golden-section
//! refinement around the incumbent optimum.
//!
//! The study's BIPS-vs-depth curve is unimodal (Figures 4a, 4b, 5): BIPS
//! rises as shrinking `t_useful` buys clock frequency, then falls once
//! per-stage overhead and deeper hazard loops dominate. A dense sweep
//! simulates every candidate clock point anyway; this module plans the
//! cheap alternative. A *coarse pass* evaluates the two grid endpoints
//! plus a seed point predicted by the bounded-pipeline closed form
//! (arXiv 1807.11022), then *refinement rounds* probe the unevaluated
//! grid-adjacent neighbours of the incumbent maximum; when a round moves
//! the incumbent across a wide gap, the next round adds a golden-section
//! leapfrog (0.382 of the gap, in index space) in the moving direction so
//! long climbs skip ahead instead of walking point by point. The search
//! stops when both neighbours of the incumbent are evaluated and beaten,
//! or the bracket is narrower than a caller-chosen tolerance. A
//! well-seeded search on the standard 15-point grid costs 5 points: the
//! 3-point coarse pass plus one confirmation round.
//!
//! The planner is *pull-based*: callers ask for the next batch of grid
//! indices ([`AdaptivePlanner::next_batch`]), evaluate them however they
//! like (offline pool, serve cache tiers, a remote shard), and feed back
//! one figure of merit per point ([`AdaptivePlanner::record`]). Every
//! decision is a pure function of the recorded values, so the probe
//! sequence is deterministic for a given curve — independent of thread
//! count, lane shape, or cache state. Probed points are a subset of the
//! dense grid, evaluated through the same dispatch path as a dense sweep,
//! so each per-point result is bitwise identical to its dense counterpart
//! and re-probing toward the dense answer is purely incremental.

use std::collections::BTreeSet;

use fo4depth_fo4::Fo4;

use crate::sweep::CoreKind;

/// Knobs of the adaptive planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Extra coarse-pass density: probe every `coarse_step`-th grid index
    /// in addition to the two endpoints and the analytic seed. `0` keeps
    /// the coarse pass minimal (endpoints + seed); `1` degenerates to the
    /// dense sweep in a single round.
    pub coarse_step: usize,
    /// Stop refining once the evaluated bracket around the incumbent is at
    /// most this wide (in FO4). `0.0` refines to grid resolution: both
    /// grid-adjacent neighbours of the incumbent evaluated and beaten.
    pub tolerance: f64,
    /// Seed clock (FO4) overriding the analytic closed form.
    pub seed: Option<f64>,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            coarse_step: 0,
            tolerance: 0.0,
            seed: None,
        }
    }
}

/// The bounded-pipeline closed-form optimum (arXiv 1807.11022): minimizing
/// time-per-instruction `TPI = (t + c) · (CPI₀ + γ·D/t)` over the per-stage
/// useful logic `t` — where `c` is per-stage overhead, `CPI₀` the
/// hazard-free CPI, and `γ·D` the hazard-exposed logic depth — gives
/// `t_opt = sqrt(c · γ·D / CPI₀)`.
///
/// The per-core constants are calibrated to this reproduction's Alpha-like
/// machines: the dynamically scheduled core hides most hazard latency
/// (`γ·D` ≈ 20 FO4 of its ~80 FO4 total depth) at CPI₀ ≈ 1.0, while the
/// in-order core exposes more of its loops (`γ·D` ≈ 25 FO4) from a higher
/// CPI₀ ≈ 1.25 — both land at 6 FO4 for the paper's 1.8 FO4 overhead,
/// matching the measured optimum. The seed only positions the coarse
/// pass; refinement confirms (or corrects) it against measured BIPS.
#[must_use]
pub fn analytic_optimum(core: CoreKind, overhead: Fo4) -> f64 {
    let (cpi0, hazard_depth) = match core {
        CoreKind::OutOfOrder => (1.0, 20.0),
        CoreKind::InOrder => (1.25, 25.0),
    };
    (overhead.get().max(0.0) * hazard_depth / cpi0).sqrt()
}

/// Summary of one finished adaptive search, for reports and `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveStats {
    /// Points in the dense grid.
    pub dense_points: usize,
    /// Points the planner evaluated.
    pub probed_points: usize,
    /// Batches issued (coarse pass plus refinement rounds).
    pub rounds: usize,
    /// Seed clock the coarse pass bracketed, FO4.
    pub seed_t: f64,
    /// Grid index nearest the seed clock.
    pub seed_index: usize,
}

/// The incremental search state: which grid indices have been probed, what
/// they measured, and what to probe next.
#[derive(Debug, Clone)]
pub struct AdaptivePlanner {
    /// Grid clock values (FO4), strictly increasing.
    grid: Vec<f64>,
    /// Figure of merit per grid index (higher is better), once recorded.
    values: Vec<Option<f64>>,
    /// Indices issued by `next_batch` but not yet recorded.
    pending: BTreeSet<usize>,
    /// Every index issued, in issue order.
    order: Vec<usize>,
    rounds: usize,
    tolerance: f64,
    coarse: Vec<usize>,
    seed_t: f64,
    seed_index: usize,
    started: bool,
    /// Incumbent at the time of the previous planning round, for detecting
    /// which direction the maximum is moving.
    prev_incumbent: Option<usize>,
}

impl AdaptivePlanner {
    /// Plans a search over `points` (must be strictly increasing). The
    /// seed comes from `config.seed` or [`analytic_optimum`].
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or not strictly increasing.
    #[must_use]
    pub fn new(points: &[Fo4], core: CoreKind, overhead: Fo4, config: &AdaptiveConfig) -> Self {
        assert!(
            !points.is_empty(),
            "adaptive sweep needs at least one point"
        );
        let grid: Vec<f64> = points.iter().map(|t| t.get()).collect();
        assert!(
            grid.windows(2).all(|w| w[0] < w[1]),
            "adaptive sweep points must be strictly increasing"
        );
        let seed_t = config
            .seed
            .unwrap_or_else(|| analytic_optimum(core, overhead));
        assert!(seed_t.is_finite(), "seed clock must be finite");
        let seed_index = grid
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                (*a - seed_t)
                    .abs()
                    .partial_cmp(&(*b - seed_t).abs())
                    .expect("finite grid")
            })
            .map(|(i, _)| i)
            .expect("non-empty grid");
        let mut coarse: BTreeSet<usize> = BTreeSet::new();
        coarse.insert(0);
        coarse.insert(grid.len() - 1);
        coarse.insert(seed_index);
        if config.coarse_step > 0 {
            for i in (0..grid.len()).step_by(config.coarse_step) {
                coarse.insert(i);
            }
        }
        Self {
            values: vec![None; grid.len()],
            grid,
            pending: BTreeSet::new(),
            order: Vec::new(),
            rounds: 0,
            tolerance: config.tolerance.max(0.0),
            coarse: coarse.into_iter().collect(),
            seed_t,
            seed_index,
            started: false,
            prev_incumbent: None,
        }
    }

    /// The next round of grid indices to evaluate, in ascending order: the
    /// coarse set on the first call, then bracketing probes around the
    /// incumbent. Returns an empty vector once the search has converged.
    /// Every returned index becomes *pending* and must be [`record`]ed
    /// before the next call.
    ///
    /// [`record`]: AdaptivePlanner::record
    ///
    /// # Panics
    ///
    /// Panics if a previously issued probe has not been recorded.
    pub fn next_batch(&mut self) -> Vec<usize> {
        assert!(
            self.pending.is_empty(),
            "record every outstanding probe before planning the next round"
        );
        let probes: Vec<usize> = if !self.started {
            self.coarse.clone()
        } else if self.converged() {
            Vec::new()
        } else {
            let inc = self.incumbent_index().expect("coarse pass recorded");
            let moved_left = self.prev_incumbent.is_some_and(|p| inc < p);
            let moved_right = self.prev_incumbent.is_some_and(|p| inc > p);
            let mut set = BTreeSet::new();
            self.side_probes(inc, true, moved_left, &mut set);
            self.side_probes(inc, false, moved_right, &mut set);
            self.prev_incumbent = Some(inc);
            set.into_iter().collect()
        };
        self.started = true;
        if !probes.is_empty() {
            self.rounds += 1;
        }
        for &p in &probes {
            self.pending.insert(p);
            self.order.push(p);
        }
        probes
    }

    /// Probes for the unevaluated gap on one side of the incumbent: the
    /// grid-adjacent neighbour, plus — when the incumbent just moved
    /// toward this side across a wide gap (`accelerate`) — a
    /// golden-section leapfrog 0.382 of the gap in, so a climb across a
    /// sparse region skips ahead instead of walking one index per round.
    /// Inserts nothing when the side is already resolved.
    fn side_probes(&self, inc: usize, left: bool, accelerate: bool, set: &mut BTreeSet<usize>) {
        let gap = if left {
            match (0..inc).rev().find(|&i| self.values[i].is_some()) {
                Some(lo) => inc - lo,
                None => return,
            }
        } else {
            match (inc + 1..self.grid.len()).find(|&i| self.values[i].is_some()) {
                Some(hi) => hi - inc,
                None => return,
            }
        };
        if gap <= 1 {
            return;
        }
        set.insert(if left { inc - 1 } else { inc + 1 });
        if accelerate && gap > 3 {
            #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
            #[allow(clippy::cast_sign_loss)]
            let offset = ((gap as f64 * 0.382).round() as usize).clamp(2, gap - 1);
            set.insert(if left { inc - offset } else { inc + offset });
        }
    }

    /// Feeds back the figure of merit (higher is better; BIPS in the
    /// study) for a pending probe.
    ///
    /// # Panics
    ///
    /// Panics if `index` was not pending or `merit` is not finite.
    pub fn record(&mut self, index: usize, merit: f64) {
        assert!(
            self.pending.remove(&index),
            "recorded index {index} was not a pending probe"
        );
        assert!(merit.is_finite(), "figure of merit must be finite");
        self.values[index] = Some(merit);
    }

    /// Whether the search has converged: the coarse pass ran, nothing is
    /// pending, and the incumbent's bracket is resolved (both grid-adjacent
    /// neighbours evaluated) or within tolerance.
    #[must_use]
    pub fn done(&self) -> bool {
        self.started && self.pending.is_empty() && self.converged()
    }

    fn converged(&self) -> bool {
        let Some(inc) = self.incumbent_index() else {
            return false;
        };
        let lo = (0..inc).rev().find(|&i| self.values[i].is_some());
        let hi = (inc + 1..self.grid.len()).find(|&i| self.values[i].is_some());
        let gap_l = lo.map_or(0, |l| inc - l);
        let gap_r = hi.map_or(0, |h| h - inc);
        if gap_l <= 1 && gap_r <= 1 {
            return true;
        }
        let width = self.grid[hi.unwrap_or(inc)] - self.grid[lo.unwrap_or(inc)];
        width <= self.tolerance
    }

    /// The evaluated grid index with the highest recorded merit (ties:
    /// lowest index). `None` before anything is recorded.
    #[must_use]
    pub fn incumbent_index(&self) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, v) in self.values.iter().enumerate() {
            if let Some(v) = *v {
                if best.is_none_or(|(_, bv)| v > bv) {
                    best = Some((i, v));
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// The incumbent as `(t_useful, merit)`.
    #[must_use]
    pub fn incumbent(&self) -> Option<(f64, f64)> {
        self.incumbent_index()
            .map(|i| (self.grid[i], self.values[i].expect("incumbent recorded")))
    }

    /// Every issued index, in issue order (coarse pass first).
    #[must_use]
    pub fn probe_order(&self) -> &[usize] {
        &self.order
    }

    /// Evaluated indices, ascending.
    #[must_use]
    pub fn probed(&self) -> Vec<usize> {
        (0..self.grid.len())
            .filter(|&i| self.values[i].is_some())
            .collect()
    }

    /// The recorded merit for a grid index, if evaluated.
    #[must_use]
    pub fn value(&self, index: usize) -> Option<f64> {
        self.values[index]
    }

    /// Search summary for reports.
    #[must_use]
    pub fn stats(&self) -> AdaptiveStats {
        AdaptiveStats {
            dense_points: self.grid.len(),
            probed_points: self.values.iter().filter(|v| v.is_some()).count(),
            rounds: self.rounds,
            seed_t: self.seed_t,
            seed_index: self.seed_index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::standard_points;

    /// Drives a planner to convergence against a synthetic merit curve.
    fn solve(planner: &mut AdaptivePlanner, merit: impl Fn(usize) -> f64) -> usize {
        let mut rounds = 0;
        loop {
            let batch = planner.next_batch();
            if batch.is_empty() {
                break;
            }
            rounds += 1;
            assert!(rounds <= 64, "planner failed to converge");
            for i in batch {
                planner.record(i, merit(i));
            }
        }
        rounds
    }

    /// A strictly unimodal curve peaking at grid index `peak`.
    fn unimodal(peak: usize) -> impl Fn(usize) -> f64 {
        move |i| 100.0 - (i as f64 - peak as f64).abs()
    }

    #[test]
    fn analytic_seed_lands_on_six_fo4_for_both_cores() {
        for core in [CoreKind::OutOfOrder, CoreKind::InOrder] {
            let t = analytic_optimum(core, Fo4::new(1.8));
            assert!((t - 6.0).abs() < 0.25, "{core:?} seed {t}");
        }
    }

    #[test]
    fn well_seeded_search_probes_five_of_fifteen_points() {
        // Standard grid (2..=16 FO4), peak at the seed (index 4 = 6 FO4):
        // coarse {0, 4, 14}, one confirmation round {3, 5}, done.
        let mut p = AdaptivePlanner::new(
            &standard_points(),
            CoreKind::OutOfOrder,
            Fo4::new(1.8),
            &AdaptiveConfig::default(),
        );
        assert_eq!(p.stats().seed_index, 4);
        solve(&mut p, unimodal(4));
        assert!(p.done());
        assert_eq!(p.probed(), vec![0, 3, 4, 5, 14]);
        assert_eq!(p.probe_order(), &[0, 4, 14, 3, 5]);
        assert_eq!(p.incumbent(), Some((6.0, 100.0)));
    }

    #[test]
    fn search_converges_to_the_true_peak_from_any_seed() {
        let points = standard_points();
        for peak in 0..points.len() {
            for seed in [2.0, 6.0, 11.0, 16.0] {
                let mut p = AdaptivePlanner::new(
                    &points,
                    CoreKind::OutOfOrder,
                    Fo4::new(1.8),
                    &AdaptiveConfig {
                        seed: Some(seed),
                        ..AdaptiveConfig::default()
                    },
                );
                solve(&mut p, unimodal(peak));
                assert_eq!(
                    p.incumbent_index(),
                    Some(peak),
                    "peak {peak} from seed {seed}"
                );
                assert!(p.probed().len() <= points.len());
            }
        }
    }

    #[test]
    fn loose_tolerance_stops_after_the_coarse_pass() {
        let mut p = AdaptivePlanner::new(
            &standard_points(),
            CoreKind::OutOfOrder,
            Fo4::new(1.8),
            &AdaptiveConfig {
                tolerance: 20.0,
                ..AdaptiveConfig::default()
            },
        );
        let rounds = solve(&mut p, unimodal(4));
        assert_eq!(rounds, 1, "coarse pass only");
        assert_eq!(p.probed(), vec![0, 4, 14]);
    }

    #[test]
    fn unit_coarse_step_degenerates_to_the_dense_sweep() {
        let points = standard_points();
        let mut p = AdaptivePlanner::new(
            &points,
            CoreKind::InOrder,
            Fo4::new(1.8),
            &AdaptiveConfig {
                coarse_step: 1,
                ..AdaptiveConfig::default()
            },
        );
        let rounds = solve(&mut p, unimodal(9));
        assert_eq!(rounds, 1);
        assert_eq!(p.probed().len(), points.len());
        assert_eq!(p.incumbent_index(), Some(9));
    }

    #[test]
    fn single_point_grid_converges_immediately() {
        let mut p = AdaptivePlanner::new(
            &[Fo4::new(6.0)],
            CoreKind::OutOfOrder,
            Fo4::new(1.8),
            &AdaptiveConfig::default(),
        );
        assert_eq!(p.next_batch(), vec![0]);
        p.record(0, 1.0);
        assert!(p.done());
        assert!(p.next_batch().is_empty());
    }

    #[test]
    #[should_panic(expected = "outstanding probe")]
    fn planning_with_pending_probes_panics() {
        let mut p = AdaptivePlanner::new(
            &standard_points(),
            CoreKind::OutOfOrder,
            Fo4::new(1.8),
            &AdaptiveConfig::default(),
        );
        let _ = p.next_batch();
        let _ = p.next_batch();
    }

    #[test]
    #[should_panic(expected = "was not a pending probe")]
    fn recording_an_unissued_index_panics() {
        let mut p = AdaptivePlanner::new(
            &standard_points(),
            CoreKind::OutOfOrder,
            Fo4::new(1.8),
            &AdaptiveConfig::default(),
        );
        let _ = p.next_batch();
        p.record(7, 1.0);
    }
}
