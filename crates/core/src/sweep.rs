//! The pipeline-depth sweep — Figures 4a, 4b, and 5.
//!
//! For each candidate `t_useful` from 2 to 16 FO4, scale every structure
//! into cycles, run the benchmark set, and plot harmonic-mean BIPS per
//! class. The maximum of each curve is the class's optimal logic depth per
//! stage.

use std::sync::Arc;

use fo4depth_fo4::Fo4;
use fo4depth_pipeline::CoreConfig;
use fo4depth_workload::{BenchClass, BenchProfile, TraceArena};

use crate::adaptive::{AdaptiveConfig, AdaptivePlanner, AdaptiveStats};
use crate::latency::StructureSet;
use crate::scaler::ScaledMachine;
use crate::sim::{
    arenas_for_on, run_inorder, run_ooo, run_ooo_batched, summarize, BenchOutcome, SimParams,
};

/// Which core model a sweep exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreKind {
    /// The §4.1 in-order-issue pipeline.
    InOrder,
    /// The §4.3 dynamically scheduled pipeline.
    OutOfOrder,
}

/// One clock point of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Useful logic per stage at this point.
    pub t_useful: f64,
    /// Clock period in ps (at 100 nm).
    pub period_ps: f64,
    /// Per-benchmark outcomes.
    pub outcomes: Vec<BenchOutcome>,
}

/// A complete depth sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DepthSweep {
    /// Core model used.
    pub core: CoreKind,
    /// Overhead used (FO4).
    pub overhead: f64,
    /// Points, in increasing `t_useful`.
    pub points: Vec<SweepPoint>,
}

impl DepthSweep {
    /// Harmonic-mean BIPS series for one class (or all classes with
    /// `None`), as `(t_useful, bips)` pairs.
    #[must_use]
    pub fn series(&self, class: Option<BenchClass>) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .filter_map(|p| {
                summarize(&p.outcomes, class, p.period_ps).map(|s| (p.t_useful, s.bips))
            })
            .collect()
    }

    /// The `t_useful` with maximum harmonic-mean BIPS for a class, and that
    /// BIPS value.
    ///
    /// # Panics
    ///
    /// Panics if the sweep has no points for the class.
    #[must_use]
    pub fn class_optimum(&self, class: BenchClass) -> (f64, f64) {
        self.optimum(Some(class))
    }

    /// The optimum over a class selection (`None` = all benchmarks).
    ///
    /// # Panics
    ///
    /// Panics if the sweep has no points for the selection.
    #[must_use]
    pub fn optimum(&self, class: Option<BenchClass>) -> (f64, f64) {
        self.series(class)
            .into_iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite BIPS"))
            .expect("sweep has points")
    }
}

/// The candidate clock points of the study: `t_useful` = 2..=16 FO4.
#[must_use]
pub fn standard_points() -> Vec<Fo4> {
    (2..=16).map(|t| Fo4::new(f64::from(t))).collect()
}

/// Runs the full depth sweep with the paper's 1.8 FO4 overhead.
#[must_use]
pub fn depth_sweep(core: CoreKind, profiles: &[BenchProfile], params: &SimParams) -> DepthSweep {
    depth_sweep_with(
        core,
        profiles,
        params,
        &StructureSet::alpha_21264(),
        Fo4::new(1.8),
        &standard_points(),
    )
}

/// Everything that defines a depth sweep, separated from the execution
/// resources so callers (and tests) can run the same sweep on any pool.
#[derive(Debug, Clone, Copy)]
pub struct SweepSpec<'a> {
    /// Core model to exercise.
    pub core: CoreKind,
    /// Benchmark profiles to run at every point.
    pub profiles: &'a [BenchProfile],
    /// Simulation intervals and seed.
    pub params: &'a SimParams,
    /// Structure access times to scale.
    pub structures: &'a StructureSet,
    /// Per-stage overhead.
    pub overhead: Fo4,
    /// Candidate `t_useful` points.
    pub points: &'a [Fo4],
    /// Whether every run collects stall-attribution counters.
    pub observed: bool,
}

/// Runs a depth sweep with explicit structures, overhead, and points —
/// the general entry used by Figures 4a (zero overhead), 6, and 7.
#[must_use]
pub fn depth_sweep_with(
    core: CoreKind,
    profiles: &[BenchProfile],
    params: &SimParams,
    structures: &StructureSet,
    overhead: Fo4,
    points: &[Fo4],
) -> DepthSweep {
    depth_sweep_spec(
        &SweepSpec {
            core,
            profiles,
            params,
            structures,
            overhead,
            points,
            observed: false,
        },
        fo4depth_exec::global(),
    )
}

/// Like [`depth_sweep_with`], but every run collects stall-attribution
/// counters, so each [`BenchOutcome`] in the sweep carries its CPI stack.
/// Observation is read-only: BIPS curves are bit-identical to the
/// unobserved sweep.
#[must_use]
pub fn depth_sweep_observed(
    core: CoreKind,
    profiles: &[BenchProfile],
    params: &SimParams,
    structures: &StructureSet,
    overhead: Fo4,
    points: &[Fo4],
) -> DepthSweep {
    depth_sweep_spec(
        &SweepSpec {
            core,
            profiles,
            params,
            structures,
            overhead,
            points,
            observed: true,
        },
        fo4depth_exec::global(),
    )
}

/// Materializes the sweep's benchmark traces on `pool`: one
/// [`TraceArena`] per profile, generated in parallel, positionally aligned
/// with `profiles`. Every `(point × benchmark)` cell of the sweep then
/// replays these shared arenas instead of re-synthesizing the stream.
#[must_use]
pub fn build_arenas(
    profiles: &[BenchProfile],
    params: &SimParams,
    pool: &fo4depth_exec::Pool,
) -> Vec<Arc<TraceArena>> {
    arenas_for_on(profiles, params, pool)
}

/// Runs a sweep on an explicit pool. The benchmark traces are materialized
/// once up front ([`build_arenas`]) and shared — by reference-counted
/// handle — across every clock point and worker thread; each benchmark's
/// points are then grouped at [`auto_lanes`], one pool task per group.
/// Results are assembled in grid order: the sweep is bit-identical at any
/// pool size and to the per-cell [`depth_sweep_arenas`].
#[must_use]
pub fn depth_sweep_spec(spec: &SweepSpec<'_>, pool: &fo4depth_exec::Pool) -> DepthSweep {
    let arenas = build_arenas(spec.profiles, spec.params, pool);
    let lanes = auto_lanes(spec.core, spec.points.len());
    depth_sweep_arenas_batched(spec, &arenas, pool, lanes)
}

/// The per-cell sweep over pre-materialized arenas (one per profile of the
/// spec, in order): one pool task per `(point × benchmark)` cell. It is
/// the reference every grouped sweep must reproduce bit for bit.
///
/// # Panics
///
/// Panics if `arenas` is not positionally aligned with `spec.profiles`.
#[must_use]
pub fn depth_sweep_arenas(
    spec: &SweepSpec<'_>,
    arenas: &[Arc<TraceArena>],
    pool: &fo4depth_exec::Pool,
) -> DepthSweep {
    depth_sweep_arenas_batched(spec, arenas, pool, 1)
}

/// Runs a sweep on an explicit pool with each benchmark's clock points
/// split into groups of up to `lanes` points. A group is one pool task,
/// and the grid dispatch picks its driver by size ([`MIN_BATCH_LANES`]).
/// Results are bit-identical at any pool size and any lane count —
/// `lanes = 1` is [`depth_sweep_arenas`].
///
/// # Panics
///
/// Panics if `lanes` is zero or `arenas` is not positionally aligned with
/// `spec.profiles`.
#[must_use]
pub fn depth_sweep_arenas_batched(
    spec: &SweepSpec<'_>,
    arenas: &[Arc<TraceArena>],
    pool: &fo4depth_exec::Pool,
    lanes: usize,
) -> DepthSweep {
    for (arena, profile) in arenas.iter().zip(spec.profiles) {
        assert_eq!(
            arena.profile().name,
            profile.name,
            "arena/profile misalignment"
        );
    }
    let all: Vec<usize> = (0..spec.points.len()).collect();
    DepthSweep {
        core: spec.core,
        overhead: spec.overhead.get(),
        points: run_points(spec, arenas, pool, lanes, &all),
    }
}

/// How many of a benchmark's clock points a sweep puts in one pool task.
/// Out-of-order groups take every point, so that a full grid reaches the
/// grid dispatch as one group large enough for the lanes (see
/// [`MIN_BATCH_LANES`]). The in-order core has no lane driver, so it runs
/// one cell per task, which spreads the grid widest over the pool.
#[must_use]
pub fn auto_lanes(core: CoreKind, points: usize) -> usize {
    match core {
        CoreKind::OutOfOrder => points.max(1),
        CoreKind::InOrder => 1,
    }
}

/// One adaptive sweep's result: the probed subset of the dense grid (in
/// ascending `t_useful`, so [`DepthSweep::optimum`] works unchanged), the
/// probe order, and cost accounting. Because the curve is unimodal and
/// refinement confirms the incumbent against both grid-adjacent
/// neighbours, `sweep.optimum(None)` equals the dense sweep's optimum —
/// and every probed point is bitwise identical to its dense counterpart
/// (same dispatch path, same seed).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveSweep {
    /// Probed points only, ascending.
    pub sweep: DepthSweep,
    /// Dense-grid indices in the order the planner issued them (coarse
    /// pass first, then refinement rounds).
    pub probe_order: Vec<usize>,
    /// Planner summary (points probed, rounds, seed).
    pub stats: AdaptiveStats,
    /// Cells the dense sweep would have simulated.
    pub cells_dense: usize,
    /// Cells this sweep simulated.
    pub cells_simulated: usize,
}

impl AdaptiveSweep {
    /// Completes the adaptive result into the full dense sweep by
    /// simulating only the unprobed grid points and merging — every probed
    /// point is reused as-is, so re-probing toward the dense answer costs
    /// exactly the cells the adaptive pass skipped. The result is bitwise
    /// identical to running [`depth_sweep_arenas`] from scratch.
    ///
    /// # Panics
    ///
    /// Panics if `spec` does not describe the grid this sweep was planned
    /// on (point count mismatch) or `arenas` is misaligned.
    #[must_use]
    pub fn densify(
        &self,
        spec: &SweepSpec<'_>,
        arenas: &[Arc<TraceArena>],
        pool: &fo4depth_exec::Pool,
        lanes: usize,
    ) -> DepthSweep {
        assert_eq!(
            spec.points.len(),
            self.stats.dense_points,
            "densify spec must match the planned grid"
        );
        let mut probed = self.probe_order.clone();
        probed.sort_unstable();
        let missing: Vec<usize> = (0..spec.points.len())
            .filter(|i| probed.binary_search(i).is_err())
            .collect();
        let fresh = run_points(spec, arenas, pool, lanes, &missing);
        let mut fresh = fresh.into_iter();
        let mut have = self.sweep.points.iter().cloned();
        let points = (0..spec.points.len())
            .map(|i| {
                if probed.binary_search(&i).is_ok() {
                    have.next().expect("one probed point per probed index")
                } else {
                    fresh.next().expect("one fresh point per missing index")
                }
            })
            .collect();
        DepthSweep {
            core: spec.core,
            overhead: spec.overhead.get(),
            points,
        }
    }
}

/// Simulates a subset of a sweep's grid points (by dense-grid index) over
/// shared arenas, returning one [`SweepPoint`] per requested index, in
/// request order. Each benchmark's requested points are split into groups
/// of up to `lanes` points, one pool task per group, each run through
/// [`run_grid_group`] — the dispatch every sweep shape shares, so every
/// outcome is bitwise identical to its dense equivalent.
///
/// # Panics
///
/// Panics if `lanes` is zero or `arenas` is not one per profile.
pub(crate) fn run_points(
    spec: &SweepSpec<'_>,
    arenas: &[Arc<TraceArena>],
    pool: &fo4depth_exec::Pool,
    lanes: usize,
    indices: &[usize],
) -> Vec<SweepPoint> {
    assert!(lanes > 0, "a batch needs at least one lane");
    assert_eq!(
        arenas.len(),
        spec.profiles.len(),
        "one arena per profile, in order"
    );
    let machines: Vec<ScaledMachine> = indices
        .iter()
        .map(|&pi| ScaledMachine::at(spec.structures, spec.points[pi], spec.overhead))
        .collect();
    // One task per (point group × benchmark), groups major — at one lane,
    // the points-major cell order; ragged tails (point count not divisible
    // by `lanes`) become short groups.
    let tasks: Vec<(usize, std::ops::Range<usize>)> = (0..indices.len())
        .step_by(lanes)
        .flat_map(|lo| {
            let ks = lo..lo.saturating_add(lanes).min(indices.len());
            (0..spec.profiles.len()).map(move |bi| (bi, ks.clone()))
        })
        .collect();
    let groups = pool.map(&tasks, |(bi, ks)| {
        let configs: Vec<&CoreConfig> = ks.clone().map(|k| &machines[k].config).collect();
        run_grid_group(
            spec.core,
            spec.observed,
            &configs,
            &arenas[*bi],
            spec.params,
        )
    });
    // Scatter group results back into points-major grid order.
    let mut grid: Vec<Option<BenchOutcome>> = Vec::new();
    grid.resize_with(indices.len() * spec.profiles.len(), || None);
    for ((bi, ks), group) in tasks.into_iter().zip(groups) {
        for (k, outcome) in ks.zip(group) {
            grid[k * spec.profiles.len() + bi] = Some(outcome);
        }
    }
    let mut outcomes = grid.into_iter().map(|o| o.expect("every cell filled"));
    indices
        .iter()
        .zip(&machines)
        .map(|(&pi, machine)| SweepPoint {
            t_useful: spec.points[pi].get(),
            period_ps: machine.period_ps(),
            outcomes: outcomes.by_ref().take(spec.profiles.len()).collect(),
        })
        .collect()
}

/// Runs an adaptive sweep over pre-materialized arenas: coarse pass, then
/// refinement rounds around the incumbent (see
/// [`AdaptivePlanner`](crate::adaptive::AdaptivePlanner)), each round's
/// points fanned out on `pool` in groups of up to `lanes` points through
/// the same grid dispatch as the dense sweeps. The figure of merit is the
/// harmonic-mean BIPS over *all* benchmarks at each point — the paper's
/// headline curve.
///
/// # Panics
///
/// Panics if `arenas` is misaligned with `spec.profiles`, `spec.points`
/// is empty or not strictly increasing, or `spec.profiles` is empty.
#[must_use]
pub fn adaptive_sweep_arenas(
    spec: &SweepSpec<'_>,
    arenas: &[Arc<TraceArena>],
    pool: &fo4depth_exec::Pool,
    lanes: usize,
    config: &AdaptiveConfig,
) -> AdaptiveSweep {
    assert!(!spec.profiles.is_empty(), "a sweep needs benchmarks");
    for (arena, profile) in arenas.iter().zip(spec.profiles) {
        assert_eq!(
            arena.profile().name,
            profile.name,
            "arena/profile misalignment"
        );
    }
    let mut planner = AdaptivePlanner::new(spec.points, spec.core, spec.overhead, config);
    let mut slots: Vec<Option<SweepPoint>> = vec![None; spec.points.len()];
    loop {
        let batch = planner.next_batch();
        if batch.is_empty() {
            break;
        }
        let round = run_points(spec, arenas, pool, lanes, &batch);
        for (&pi, point) in batch.iter().zip(round) {
            let merit = summarize(&point.outcomes, None, point.period_ps)
                .expect("benchmarks present")
                .bips;
            planner.record(pi, merit);
            slots[pi] = Some(point);
        }
    }
    let stats = planner.stats();
    let points: Vec<SweepPoint> = slots.into_iter().flatten().collect();
    let cells_simulated = points.len() * spec.profiles.len();
    AdaptiveSweep {
        sweep: DepthSweep {
            core: spec.core,
            overhead: spec.overhead.get(),
            points,
        },
        probe_order: planner.probe_order().to_vec(),
        stats,
        cells_dense: spec.points.len() * spec.profiles.len(),
        cells_simulated,
    }
}

/// [`adaptive_sweep_arenas`] with arena materialization included, at
/// [`auto_lanes`].
#[must_use]
pub fn adaptive_sweep_spec(
    spec: &SweepSpec<'_>,
    pool: &fo4depth_exec::Pool,
    config: &AdaptiveConfig,
) -> AdaptiveSweep {
    let arenas = build_arenas(spec.profiles, spec.params, pool);
    let lanes = auto_lanes(spec.core, spec.points.len());
    adaptive_sweep_arenas(spec, &arenas, pool, lanes, config)
}

/// The smallest out-of-order group that the grid dispatch runs as lanes
/// ([`run_ooo_batched`]); smaller groups run cell by cell. The lanes share
/// one trace decode, fetch plan and cache prewarm, which pays only for
/// wide groups. Against per-cell runs of the same group at 2 000 + 8 000
/// instructions (2-vCPU host, 6 profiles, alternating rounds), 2-cell
/// groups won 1 round of 10, 7- and 8-cell groups about 2 in 3, 9-cell
/// groups 27 of 30 (run medians 1.02–1.09×) and 15-cell groups 19 of 20.
pub const MIN_BATCH_LANES: usize = 9;

/// The one dispatch point every sweep cell goes through — dense, adaptive
/// and yield sweeps, and the cache-granular [`CellSpec::run`] and
/// [`run_cell_group`] — so a cell simulated for a cache is bit-identical
/// to the same cell simulated inside any sweep. The driver is picked by
/// group size: out-of-order groups of [`MIN_BATCH_LANES`] cells or more
/// take one lockstep pass over the shared arena ([`run_ooo_batched`]);
/// everything else runs cell by cell ([`run_ooo`], [`run_inorder`]).
///
/// [`CellSpec::run`]: crate::cells::CellSpec::run
/// [`run_cell_group`]: crate::cells::run_cell_group
pub(crate) fn run_grid_group(
    core: CoreKind,
    observed: bool,
    configs: &[&CoreConfig],
    arena: &Arc<TraceArena>,
    params: &SimParams,
) -> Vec<BenchOutcome> {
    match core {
        CoreKind::OutOfOrder if configs.len() >= MIN_BATCH_LANES => {
            run_ooo_batched(configs, arena, params, observed)
        }
        CoreKind::OutOfOrder => configs
            .iter()
            .map(|cfg| run_ooo(cfg, arena, params, observed))
            .collect(),
        CoreKind::InOrder => configs
            .iter()
            .map(|cfg| run_inorder(cfg, arena, params, observed))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fo4depth_workload::profiles;

    fn tiny_params() -> SimParams {
        SimParams {
            warmup: 3_000,
            measure: 10_000,
            seed: 1,
        }
    }

    fn some_points() -> Vec<Fo4> {
        [2.0, 6.0, 12.0].into_iter().map(Fo4::new).collect()
    }

    #[test]
    fn sweep_produces_series_for_each_class() {
        let profs = vec![
            profiles::by_name("164.gzip").unwrap(),
            profiles::by_name("171.swim").unwrap(),
            profiles::by_name("179.art").unwrap(),
        ];
        let sweep = depth_sweep_with(
            CoreKind::OutOfOrder,
            &profs,
            &tiny_params(),
            &StructureSet::alpha_21264(),
            Fo4::new(1.8),
            &some_points(),
        );
        assert_eq!(sweep.points.len(), 3);
        for class in [
            BenchClass::Integer,
            BenchClass::VectorFp,
            BenchClass::NonVectorFp,
        ] {
            let s = sweep.series(Some(class));
            assert_eq!(s.len(), 3);
            assert!(s.iter().all(|&(_, b)| b > 0.0));
        }
        let (best_t, best_bips) = sweep.optimum(None);
        assert!(best_bips > 0.0);
        assert!([2.0, 6.0, 12.0].contains(&best_t));
    }

    #[test]
    fn middle_clock_beats_extremes_for_integer_code() {
        // The headline shape on a single integer benchmark: 6 FO4 beats
        // both the 2 FO4 and the 16 FO4 extremes once overhead is charged.
        let profs = vec![profiles::by_name("164.gzip").unwrap()];
        let sweep = depth_sweep_with(
            CoreKind::OutOfOrder,
            &profs,
            &tiny_params(),
            &StructureSet::alpha_21264(),
            Fo4::new(1.8),
            &[Fo4::new(2.0), Fo4::new(6.0), Fo4::new(16.0)],
        );
        let s = sweep.series(Some(BenchClass::Integer));
        let at = |t: f64| s.iter().find(|p| p.0 == t).expect("point").1;
        assert!(at(6.0) > at(2.0), "6 FO4 {} vs 2 FO4 {}", at(6.0), at(2.0));
        assert!(
            at(6.0) > at(16.0),
            "6 FO4 {} vs 16 FO4 {}",
            at(6.0),
            at(16.0)
        );
    }
}
