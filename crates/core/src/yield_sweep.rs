//! Yield-aware depth sweeps: Monte Carlo over process variation.
//!
//! The nominal study asks "which `t_useful` maximizes BIPS when every
//! stage gets exactly its budget". This module asks the manufacturing
//! question behind it: across a population of varying dies, which depth
//! maximizes *yield-weighted* BIPS — the expected per-die performance
//! once dies that miss timing are discarded (Datta et al.'s framing).
//!
//! The plan decomposes into the same cache-granular cells as every other
//! sweep. Each Monte Carlo die `s` carries a measured FO4 ratio `u_s`
//! (its perturbed device through the real transient measurement); at grid
//! point `t` the die's stage budget holds `t / u_s` of *its own* FO4s, so
//! the die simulates as an ordinary [`CellSpec`] at that effective clock
//! point — fixed-FO4 structure latencies requantize against the die's
//! slower (or faster) unit, giving slow dies more cycles per operation at
//! the nominal binned frequency. Sample cells therefore flow through the
//! exec pool, the lane-batched engine, the LRU/persistent cell tiers, and
//! the shard ring *unchanged*: they are just cells at unusual clock
//! points.
//!
//! Everything is positional and seeded, so a yield sweep is byte-identical
//! at any worker count, lane width, or shard topology
//! (`tests/yield_sweep.rs`). The variance-propagation fast path
//! ([`FastPath`]) prices every point analytically; Monte Carlo is its
//! verifier, and [`YieldSweep::agreement`] quantifies the match.

use std::sync::Arc;

use fo4depth_fo4::Fo4;
use fo4depth_util::hash::Fnv64;
use fo4depth_variation::{DieSample, FastPath, Sampler, VariationError, VariationSpec};
use fo4depth_workload::TraceArena;

use crate::cells::{assemble_sweep, run_cell_group, sweep_cells, CellSpec, DistinctCells};
use crate::sim::{summarize, BenchOutcome};
use crate::sweep::{DepthSweep, SweepSpec};

/// Effective clock points are clamped to this range so a far-tail die
/// cannot ask the scaler for a degenerate machine.
pub const MIN_EFFECTIVE_T: f64 = 0.5;
/// Upper clamp of the effective clock point (the API's own points cap is
/// 100 FO4; stay strictly inside it).
pub const MAX_EFFECTIVE_T: f64 = 99.0;

/// The effective clock point die `unit_ratio` sees at nominal point `t`:
/// a slow die (ratio > 1) fits fewer of its own FO4s per stage, so its
/// fixed-FO4 latencies requantize against a tighter budget.
#[must_use]
pub fn effective_t_useful(t: f64, unit_ratio: f64) -> f64 {
    (t / unit_ratio).clamp(MIN_EFFECTIVE_T, MAX_EFFECTIVE_T)
}

/// The canonical per-sample extension of a base fingerprint: folds the
/// variation digest and the sample index into an FNV-1a continuation.
/// Used to key per-sample artifacts (response-tier entries, journals)
/// without disturbing the cell tier — sample *cells* keep their natural
/// [`CellSpec::fingerprint`], which is what lets them share cached
/// simulations across studies.
#[must_use]
pub fn sample_fingerprint(base: u64, variation_digest: u64, sample: u64) -> u64 {
    let mut h = Fnv64::new();
    h.write_str("yield-sample");
    h.write_u64(base);
    h.write_u64(variation_digest);
    h.write_u64(sample);
    h.finish()
}

/// One grid point of a yield sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldPoint {
    /// Nominal useful logic per stage.
    pub t_useful: f64,
    /// Nominal clock period (ps at 100 nm).
    pub period_ps: f64,
    /// Harmonic-mean BIPS of the nominal machine (all benchmarks).
    pub bips_nominal: f64,
    /// Monte Carlo functional-die fraction.
    pub yield_mc: f64,
    /// Fast-path (moment-propagation) functional-die fraction.
    pub yield_fast: f64,
    /// Monte Carlo yield-weighted BIPS: mean over dies of
    /// `functional · bips(die)`, each die simulated at its effective
    /// clock point and priced at the nominal binned period.
    pub ywbips_mc: f64,
    /// Fast-path yield-weighted BIPS: `yield_fast · bips_nominal`.
    pub ywbips_fast: f64,
}

/// How well the fast path matched Monte Carlo on this sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldAgreement {
    /// Largest absolute yield-fraction error across the grid.
    pub max_yield_abs_err: f64,
    /// Grid steps between the fast-path and Monte Carlo yield-weighted
    /// optima (0 = same point).
    pub optimum_step_delta: i64,
}

/// A complete yield-aware sweep: the nominal study plus per-point yield
/// curves from both estimators.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldSweep {
    /// The nominal depth sweep (bit-identical to a plain sweep of the
    /// same spec).
    pub nominal: DepthSweep,
    /// Yield data per grid point, aligned with `nominal.points`.
    pub points: Vec<YieldPoint>,
    /// Monte Carlo dies per point.
    pub samples: u32,
    /// Digest of the variation configuration that produced this sweep.
    pub variation_digest: u64,
}

impl YieldSweep {
    /// The nominal optimum: `(t_useful, bips)` maximizing plain BIPS.
    ///
    /// # Panics
    ///
    /// Panics on an empty sweep.
    #[must_use]
    pub fn nominal_optimum(&self) -> (f64, f64) {
        self.nominal.optimum(None)
    }

    /// The Monte Carlo yield-aware optimum: `(t_useful, ywbips_mc)`.
    ///
    /// # Panics
    ///
    /// Panics on an empty sweep.
    #[must_use]
    pub fn yield_optimum_mc(&self) -> (f64, f64) {
        self.optimum_by(|p| p.ywbips_mc)
    }

    /// The fast-path yield-aware optimum: `(t_useful, ywbips_fast)`.
    ///
    /// # Panics
    ///
    /// Panics on an empty sweep.
    #[must_use]
    pub fn yield_optimum_fast(&self) -> (f64, f64) {
        self.optimum_by(|p| p.ywbips_fast)
    }

    fn optimum_by(&self, merit: impl Fn(&YieldPoint) -> f64) -> (f64, f64) {
        self.points
            .iter()
            .map(|p| (p.t_useful, merit(p)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite merit"))
            .expect("sweep has points")
    }

    /// Fast-path-vs-Monte-Carlo agreement over this sweep.
    ///
    /// # Panics
    ///
    /// Panics on an empty sweep.
    #[must_use]
    pub fn agreement(&self) -> YieldAgreement {
        let max_yield_abs_err = self
            .points
            .iter()
            .map(|p| (p.yield_fast - p.yield_mc).abs())
            .fold(0.0, f64::max);
        let index_of = |merit: &dyn Fn(&YieldPoint) -> f64| {
            self.points
                .iter()
                .enumerate()
                .max_by(|a, b| merit(a.1).partial_cmp(&merit(b.1)).expect("finite merit"))
                .expect("sweep has points")
                .0 as i64
        };
        YieldAgreement {
            max_yield_abs_err,
            optimum_step_delta: index_of(&|p| p.ywbips_fast) - index_of(&|p| p.ywbips_mc),
        }
    }
}

/// A planned yield sweep: the dies, the fast path, and the full cell list
/// ready for any executor (local pool, serve engine, shard ring).
///
/// Cell order is: the nominal grid in [`sweep_cells`] order (points
/// major, benchmarks minor), then sample cells point-major, sample-mid,
/// benchmark-minor. [`YieldPlan::assemble`] expects outcomes back in
/// exactly this order, which every executor preserves positionally.
pub struct YieldPlan<'a> {
    spec: SweepSpec<'a>,
    variation: VariationSpec,
    sampler: Sampler,
    fast: FastPath,
    dies: Vec<DieSample>,
    cells: Vec<CellSpec>,
}

impl<'a> YieldPlan<'a> {
    /// Validates `variation`, materializes its dies on `pool` (one FO4
    /// transient pair per die), and lays out the cell plan.
    ///
    /// The nominal device is the 100 nm calibration — the same device
    /// behind every other sweep's clock model.
    ///
    /// # Panics
    ///
    /// Panics unless `spec.structures` is the Alpha 21264 set: plan cells
    /// carry its tag, and their fingerprints (which decide what
    /// [`run_yield_plan`] simulates once) scale that set.
    pub fn build(
        spec: SweepSpec<'a>,
        variation: VariationSpec,
        pool: &fo4depth_exec::Pool,
    ) -> Result<Self, VariationError> {
        variation.validate()?;
        assert_eq!(
            crate::latency::StructureSet::for_tag("alpha_21264").as_ref(),
            Some(spec.structures),
            "plan cells are tagged alpha_21264, so the spec must simulate that set"
        );
        let device = fo4depth_circuit::DeviceParams::at_100nm();
        let sampler = Sampler::new(variation, device, spec.overhead.get());
        let fast = FastPath::new(variation, device, sampler.overhead_components());
        let indices: Vec<u64> = (0..u64::from(variation.samples)).collect();
        let dies = pool.map(&indices, |&s| sampler.die(s));

        let mut cells = sweep_cells(
            spec.core,
            spec.profiles,
            spec.params,
            spec.overhead,
            spec.points,
            spec.observed,
            "alpha_21264",
        );
        for &t in spec.points {
            for die in &dies {
                let eff = Fo4::new(effective_t_useful(t.get(), die.unit_ratio));
                for profile in spec.profiles {
                    cells.push(CellSpec {
                        core: spec.core,
                        profile: profile.clone(),
                        t_useful: eff,
                        overhead: spec.overhead,
                        params: *spec.params,
                        observed: spec.observed,
                        structures_tag: "alpha_21264",
                    });
                }
            }
        }
        Ok(Self {
            spec,
            variation,
            sampler,
            fast,
            dies,
            cells,
        })
    }

    /// Every cell of the plan, nominal grid first, in assembly order.
    #[must_use]
    pub fn cells(&self) -> &[CellSpec] {
        &self.cells
    }

    /// The materialized dies, by sample index.
    #[must_use]
    pub fn dies(&self) -> &[DieSample] {
        &self.dies
    }

    /// Total Monte Carlo sample simulations in the plan (excludes the
    /// nominal grid).
    #[must_use]
    pub fn sample_cells(&self) -> usize {
        self.cells.len() - self.spec.points.len() * self.spec.profiles.len()
    }

    /// The plan-order cell index ranges of grid point `index`:
    /// `(nominal cells, sample cells)`. The two ranges are disjoint (the
    /// nominal grid leads the plan), so an executor can resolve one grid
    /// point at a time — the streamed `/v1/yield` delivery rides this.
    #[must_use]
    pub fn point_ranges(&self, index: usize) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let benches = self.spec.profiles.len();
        let grid = self.spec.points.len() * benches;
        let per_point = self.dies.len() * benches;
        (
            index * benches..(index + 1) * benches,
            grid + index * per_point..grid + (index + 1) * per_point,
        )
    }

    /// Assembles one grid point from its outcomes (each slice in plan
    /// order, as [`YieldPlan::point_ranges`] addresses them). Points are
    /// independent, so per-point assembly is bit-identical to
    /// [`YieldPlan::assemble`] over the whole grid.
    ///
    /// # Panics
    ///
    /// Panics on slice lengths that do not match the plan.
    #[must_use]
    pub fn assemble_point(
        &self,
        index: usize,
        nominal_outcomes: Vec<BenchOutcome>,
        sample_outcomes: Vec<BenchOutcome>,
    ) -> (crate::sweep::SweepPoint, YieldPoint) {
        let benches = self.spec.profiles.len();
        let samples = self.dies.len();
        assert_eq!(
            nominal_outcomes.len(),
            benches,
            "one nominal outcome per bench"
        );
        assert_eq!(
            sample_outcomes.len(),
            samples * benches,
            "one outcome per (die × bench)"
        );
        let t = self.spec.points[index];
        let single = [t];
        let nominal_point = assemble_sweep(
            self.spec.core,
            self.spec.structures,
            self.spec.overhead,
            &single,
            benches,
            nominal_outcomes,
        )
        .points
        .pop()
        .expect("one assembled point");
        let period_ps = nominal_point.period_ps;
        let bips_nominal = summarize(&nominal_point.outcomes, None, period_ps)
            .expect("benchmarks present")
            .bips;
        let mut sample_outcomes = sample_outcomes.into_iter();
        let mut functional = 0usize;
        let mut ywbips_sum = 0.0;
        for die in &self.dies {
            let die_outcomes: Vec<BenchOutcome> = sample_outcomes.by_ref().take(benches).collect();
            if self.sampler.functional(die, t.get()) {
                functional += 1;
                // Price the die at the nominal binned period: its
                // requantized CPI is what variation costs.
                ywbips_sum += summarize(&die_outcomes, None, period_ps)
                    .expect("benchmarks present")
                    .bips;
            }
        }
        let yield_mc = functional as f64 / samples as f64;
        let yield_fast = self.fast.yield_at(t.get());
        let point = YieldPoint {
            t_useful: t.get(),
            period_ps,
            bips_nominal,
            yield_mc,
            yield_fast,
            ywbips_mc: ywbips_sum / samples as f64,
            ywbips_fast: yield_fast * bips_nominal,
        };
        (nominal_point, point)
    }

    /// Wraps assembled points back into the [`YieldSweep`] envelope (used
    /// by executors that assemble point by point).
    #[must_use]
    pub fn finish(
        &self,
        nominal_points: Vec<crate::sweep::SweepPoint>,
        points: Vec<YieldPoint>,
    ) -> YieldSweep {
        YieldSweep {
            nominal: DepthSweep {
                core: self.spec.core,
                overhead: self.spec.overhead.get(),
                points: nominal_points,
            },
            points,
            samples: self.variation.samples,
            variation_digest: self.variation.digest(),
        }
    }

    /// Reassembles per-cell outcomes (in [`YieldPlan::cells`] order) into
    /// the [`YieldSweep`].
    ///
    /// # Panics
    ///
    /// Panics if `outcomes` is not exactly one per planned cell.
    #[must_use]
    pub fn assemble(&self, outcomes: Vec<BenchOutcome>) -> YieldSweep {
        assert_eq!(outcomes.len(), self.cells.len(), "one outcome per cell");
        let mut nominal_points = Vec::with_capacity(self.spec.points.len());
        let mut points = Vec::with_capacity(self.spec.points.len());
        for i in 0..self.spec.points.len() {
            let (nominal_range, sample_range) = self.point_ranges(i);
            let (nominal_point, point) = self.assemble_point(
                i,
                outcomes[nominal_range].to_vec(),
                outcomes[sample_range].to_vec(),
            );
            nominal_points.push(nominal_point);
            points.push(point);
        }
        self.finish(nominal_points, points)
    }
}

/// Runs a planned yield sweep over pre-materialized arenas on an explicit
/// pool: the plan is collapsed to one cell per fingerprint (one per
/// simulated machine — [`DistinctCells`]), each benchmark's distinct
/// cells are grouped into batches of up to `lanes` clock points (`None`:
/// one cell per batch), one pool task per batch, and the outcomes fan
/// back out to every plan cell — positional, so the result is
/// bit-identical at any lane count and pool size.
///
/// # Panics
///
/// Panics if `lanes` is `Some(0)` or `arenas` is misaligned with the
/// plan's profiles.
#[must_use]
pub fn run_yield_plan(
    plan: &YieldPlan<'_>,
    arenas: &[Arc<TraceArena>],
    pool: &fo4depth_exec::Pool,
    lanes: Option<usize>,
) -> YieldSweep {
    let spec = &plan.spec;
    let lanes = lanes.unwrap_or(1);
    assert!(lanes > 0, "a batch needs at least one lane");
    assert_eq!(
        arenas.len(),
        spec.profiles.len(),
        "one arena per profile, in order"
    );
    for (arena, profile) in arenas.iter().zip(spec.profiles) {
        assert_eq!(
            arena.profile().name,
            profile.name,
            "arena/profile misalignment"
        );
    }
    let bench_index = |cell: &CellSpec| {
        spec.profiles
            .iter()
            .position(|p| p.name == cell.profile.name)
            .expect("cell profile in spec")
    };
    // Collapse the plan to one cell per simulated machine (dies whose
    // effective points quantize alike share one), group the distinct cells
    // by benchmark in plan order, then chunk each group into lane batches.
    // One batch = one pool task; fan back out to plan slots afterwards.
    let cells = plan.cells();
    let distinct = DistinctCells::of(cells);
    let mut by_bench: Vec<Vec<usize>> = vec![Vec::new(); spec.profiles.len()];
    for (k, &i) in distinct.firsts().iter().enumerate() {
        by_bench[bench_index(&cells[i])].push(k);
    }
    let tasks: Vec<(usize, Vec<usize>)> = by_bench
        .into_iter()
        .enumerate()
        .flat_map(|(bi, ks)| {
            ks.chunks(lanes)
                .map(|chunk| (bi, chunk.to_vec()))
                .collect::<Vec<_>>()
        })
        .collect();
    let batches = pool.map(&tasks, |(bi, ks)| {
        let group: Vec<CellSpec> = ks
            .iter()
            .map(|&k| cells[distinct.firsts()[k]].clone())
            .collect();
        run_cell_group(&group, spec.structures, &arenas[*bi])
    });
    let mut unique: Vec<Option<BenchOutcome>> = vec![None; distinct.len()];
    for ((_, ks), batch) in tasks.into_iter().zip(batches) {
        for (k, outcome) in ks.into_iter().zip(batch) {
            unique[k] = Some(outcome);
        }
    }
    let unique: Vec<BenchOutcome> = unique
        .into_iter()
        .map(|o| o.expect("every distinct cell filled"))
        .collect();
    let outcomes = distinct.fan_out(&unique);
    plan.assemble(outcomes)
}

/// Plans and runs a yield sweep in one call: build the plan, materialize
/// arenas, execute at [`auto_lanes`](crate::sweep::auto_lanes), assemble.
///
/// # Errors
///
/// Returns the validation error of an invalid `variation`.
pub fn yield_sweep_spec(
    spec: &SweepSpec<'_>,
    variation: VariationSpec,
    pool: &fo4depth_exec::Pool,
) -> Result<YieldSweep, VariationError> {
    let plan = YieldPlan::build(*spec, variation, pool)?;
    let arenas = crate::sweep::build_arenas(spec.profiles, spec.params, pool);
    let lanes = crate::sweep::auto_lanes(spec.core, spec.points.len());
    Ok(run_yield_plan(&plan, &arenas, pool, Some(lanes)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::StructureSet;
    use crate::sim::SimParams;
    use crate::sweep::CoreKind;
    use fo4depth_workload::profiles;

    fn tiny_spec<'a>(
        profs: &'a [fo4depth_workload::BenchProfile],
        params: &'a SimParams,
        structures: &'a StructureSet,
        points: &'a [Fo4],
    ) -> SweepSpec<'a> {
        SweepSpec {
            core: CoreKind::OutOfOrder,
            profiles: profs,
            params,
            structures,
            overhead: Fo4::new(1.8),
            points,
            observed: false,
        }
    }

    fn tiny_variation() -> VariationSpec {
        let mut v = VariationSpec::new(9);
        v.samples = 6;
        v
    }

    #[test]
    fn effective_point_clamps_and_inverts_ratio() {
        assert_eq!(effective_t_useful(6.0, 1.0), 6.0);
        assert!(effective_t_useful(6.0, 1.05) < 6.0, "slow die: tighter");
        assert!(effective_t_useful(6.0, 0.95) > 6.0, "fast die: laxer");
        assert_eq!(effective_t_useful(6.0, 1e9), MIN_EFFECTIVE_T);
        assert_eq!(effective_t_useful(6.0, 1e-9), MAX_EFFECTIVE_T);
    }

    #[test]
    fn sample_fingerprints_separate_inputs() {
        let base = sample_fingerprint(1, 2, 3);
        assert_eq!(base, sample_fingerprint(1, 2, 3));
        assert_ne!(base, sample_fingerprint(2, 2, 3));
        assert_ne!(base, sample_fingerprint(1, 3, 3));
        assert_ne!(base, sample_fingerprint(1, 2, 4));
    }

    #[test]
    fn plan_shape_and_rejection() {
        let profs = vec![profiles::by_name("164.gzip").unwrap()];
        let params = SimParams {
            warmup: 500,
            measure: 1_500,
            seed: 1,
        };
        let structures = StructureSet::alpha_21264();
        let points = [Fo4::new(4.0), Fo4::new(8.0)];
        let spec = tiny_spec(&profs, &params, &structures, &points);

        let mut bad = tiny_variation();
        bad.fo4.sigma = -1.0;
        assert!(YieldPlan::build(spec, bad, fo4depth_exec::global()).is_err());

        let plan = YieldPlan::build(spec, tiny_variation(), fo4depth_exec::global()).unwrap();
        // 2 nominal cells + 2 points × 6 samples × 1 bench.
        assert_eq!(plan.cells().len(), 2 + 12);
        assert_eq!(plan.sample_cells(), 12);
        assert_eq!(plan.dies().len(), 6);
    }

    #[test]
    fn scalar_and_batched_agree_and_embed_the_nominal_sweep() {
        let profs = vec![
            profiles::by_name("164.gzip").unwrap(),
            profiles::by_name("171.swim").unwrap(),
        ];
        let params = SimParams {
            warmup: 500,
            measure: 2_000,
            seed: 1,
        };
        let structures = StructureSet::alpha_21264();
        let points = [Fo4::new(4.0), Fo4::new(6.0), Fo4::new(8.0)];
        let spec = tiny_spec(&profs, &params, &structures, &points);
        let pool = fo4depth_exec::global();

        let plan = YieldPlan::build(spec, tiny_variation(), pool).unwrap();
        let arenas = crate::sweep::build_arenas(&profs, &params, pool);
        let scalar = run_yield_plan(&plan, &arenas, pool, None);
        let batched = run_yield_plan(&plan, &arenas, pool, Some(crate::sweep::MIN_BATCH_LANES));
        assert_eq!(scalar, batched, "lane batching must not change results");

        // The embedded nominal sweep is the plain sweep, bit-identical.
        let direct = crate::sweep::depth_sweep_arenas(&spec, &arenas, pool);
        assert_eq!(scalar.nominal, direct);

        for p in &scalar.points {
            assert!((0.0..=1.0).contains(&p.yield_mc));
            assert!((0.0..=1.0).contains(&p.yield_fast));
            assert!(p.ywbips_mc <= p.bips_nominal * 1.5, "ywbips sane");
            assert!(p.ywbips_fast <= p.bips_nominal + 1e-12);
        }
        let agreement = scalar.agreement();
        assert!(agreement.max_yield_abs_err <= 1.0);
    }
}
