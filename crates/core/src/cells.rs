//! Cache-granular decomposition of depth sweeps.
//!
//! A depth sweep is a grid of independent `(clock point × benchmark)`
//! simulations, each a pure function of its inputs. That purity is what a
//! content-addressed result cache exploits: give every grid cell a
//! *canonical fingerprint* — a stable hash of everything that determines
//! its outcome — and two sweeps that share cells (the common shape of
//! what-if queries: same benchmarks, overlapping clock points) share the
//! cached work instead of re-simulating it.
//!
//! This module defines the cell ([`CellSpec`]), its fingerprint, how it
//! executes ([`CellSpec::run`], [`run_cell_group`] — through the same grid
//! dispatch as [`depth_sweep_arenas`](crate::sweep::depth_sweep_arenas),
//! so cached and freshly-simulated sweeps are bit-identical by
//! construction), and the reassembly of per-cell outcomes into a
//! [`DepthSweep`] ([`assemble_sweep`]).

use std::sync::Arc;

use fo4depth_fo4::Fo4;
use fo4depth_util::hash::Fnv64;
use fo4depth_workload::{BenchProfile, TraceArena};

use crate::latency::StructureSet;
use crate::scaler::ScaledMachine;
use crate::sim::{BenchOutcome, SimParams};
use crate::sweep::{run_grid_group, CoreKind, DepthSweep, SweepPoint};

/// Fingerprint-schema version: folded into every digest, bumped whenever a
/// simulation change makes previously cached outcomes stale.
pub const CELL_SCHEMA: u64 = 1;

/// Everything that determines one `(clock point × benchmark)` outcome.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Core model.
    pub core: CoreKind,
    /// Benchmark to run.
    pub profile: BenchProfile,
    /// Useful logic per stage at this cell's clock point.
    pub t_useful: Fo4,
    /// Per-stage overhead.
    pub overhead: Fo4,
    /// Simulation intervals and seed.
    pub params: SimParams,
    /// Whether stall-attribution counters are collected.
    pub observed: bool,
    /// Identity of the structure access-time set (e.g. `"alpha_21264"`).
    /// Distinct sets must use distinct tags or cells will falsely collide.
    pub structures_tag: &'static str,
}

impl CellSpec {
    /// The cell's canonical content address: a stable FNV-1a digest of
    /// every field that feeds the simulation. Equal fingerprints mean
    /// bit-identical [`BenchOutcome`]s (same platform-independent
    /// simulator, same seed); the digest is stable across processes, so
    /// it can key a cache that outlives any one run.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(CELL_SCHEMA);
        h.write_str(match self.core {
            CoreKind::InOrder => "inorder",
            CoreKind::OutOfOrder => "ooo",
        });
        h.write_str(&self.profile.name);
        h.write_f64(self.t_useful.get());
        h.write_f64(self.overhead.get());
        h.write_u64(self.params.warmup);
        h.write_u64(self.params.measure);
        h.write_u64(self.params.seed);
        h.write_u64(u64::from(self.observed));
        h.write_str(self.structures_tag);
        h.finish()
    }

    /// Runs the cell: scales `structures` to this cell's clock and
    /// simulates `arena` on the selected core.
    ///
    /// `arena` must be a trace of this cell's profile at this cell's seed;
    /// callers that cache arenas key them by `(profile, seed, len)`.
    #[must_use]
    pub fn run(&self, structures: &StructureSet, arena: &Arc<TraceArena>) -> BenchOutcome {
        debug_assert_eq!(arena.profile().name, self.profile.name, "arena mismatch");
        let machine = ScaledMachine::at(structures, self.t_useful, self.overhead);
        run_grid_group(
            self.core,
            self.observed,
            &[&machine.config],
            arena,
            &self.params,
        )
        .pop()
        .expect("one outcome per cell")
    }
}

/// Runs a group of cells that differ only in clock point over their shared
/// arena, returning outcomes positionally — as one lane-parallel batch for
/// an out-of-order group of two or more, cell by cell otherwise. Each
/// outcome is bit-identical to running the same cell through
/// [`CellSpec::run`] — a batch-filled cache entry and a per-cell one are
/// interchangeable.
///
/// # Panics
///
/// Panics if the cells disagree on anything other than `t_useful` (they
/// would not share an arena, a fetch plan, or an observation mode), or if
/// `cells` is empty.
#[must_use]
pub fn run_cell_group(
    cells: &[CellSpec],
    structures: &StructureSet,
    arena: &Arc<TraceArena>,
) -> Vec<BenchOutcome> {
    let first = cells.first().expect("a group needs at least one cell");
    for c in cells {
        assert_eq!(c.core, first.core, "mixed cores in one lane batch");
        assert_eq!(
            c.profile.name, first.profile.name,
            "mixed benchmarks in one lane batch"
        );
        assert_eq!(c.params, first.params, "mixed params in one lane batch");
        assert_eq!(
            c.observed, first.observed,
            "mixed observation in one lane batch"
        );
        assert_eq!(
            c.structures_tag, first.structures_tag,
            "mixed structure sets in one lane batch"
        );
    }
    debug_assert_eq!(arena.profile().name, first.profile.name, "arena mismatch");
    let machines: Vec<ScaledMachine> = cells
        .iter()
        .map(|c| ScaledMachine::at(structures, c.t_useful, c.overhead))
        .collect();
    let configs: Vec<&fo4depth_pipeline::CoreConfig> = machines.iter().map(|m| &m.config).collect();
    run_grid_group(first.core, first.observed, &configs, arena, &first.params)
}

/// Decomposes a sweep into its cells, in grid order (points major,
/// benchmarks minor — the order [`assemble_sweep`] expects back).
#[must_use]
pub fn sweep_cells(
    core: CoreKind,
    profiles: &[BenchProfile],
    params: &SimParams,
    overhead: Fo4,
    points: &[Fo4],
    observed: bool,
    structures_tag: &'static str,
) -> Vec<CellSpec> {
    points
        .iter()
        .flat_map(|&t| {
            profiles.iter().map(move |p| CellSpec {
                core,
                profile: p.clone(),
                t_useful: t,
                overhead,
                params: *params,
                observed,
                structures_tag,
            })
        })
        .collect()
}

/// Reassembles per-cell outcomes (in [`sweep_cells`] grid order) into a
/// [`DepthSweep`]. The inverse of the decomposition: feeding back the
/// outcomes of [`CellSpec::run`] reproduces
/// [`depth_sweep_arenas`](crate::sweep::depth_sweep_arenas) exactly,
/// whether each outcome was freshly simulated or served from a cache.
///
/// # Panics
///
/// Panics if `outcomes` is not `points.len() × bench_count` long.
#[must_use]
pub fn assemble_sweep(
    core: CoreKind,
    structures: &StructureSet,
    overhead: Fo4,
    points: &[Fo4],
    bench_count: usize,
    outcomes: Vec<BenchOutcome>,
) -> DepthSweep {
    assert_eq!(
        outcomes.len(),
        points.len() * bench_count,
        "one outcome per (point × benchmark) cell"
    );
    let mut outcomes = outcomes.into_iter();
    let points = points
        .iter()
        .map(|&t| {
            let machine = ScaledMachine::at(structures, t, overhead);
            SweepPoint {
                t_useful: t.get(),
                period_ps: machine.period_ps(),
                outcomes: outcomes.by_ref().take(bench_count).collect(),
            }
        })
        .collect();
    DepthSweep {
        core,
        overhead: overhead.get(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fo4depth_workload::profiles;

    fn cell(t: f64, seed: u64) -> CellSpec {
        CellSpec {
            core: CoreKind::OutOfOrder,
            profile: profiles::by_name("164.gzip").unwrap(),
            t_useful: Fo4::new(t),
            overhead: Fo4::new(1.8),
            params: SimParams {
                warmup: 1_000,
                measure: 3_000,
                seed,
            },
            observed: false,
            structures_tag: "alpha_21264",
        }
    }

    #[test]
    fn fingerprints_separate_every_field() {
        let base = cell(6.0, 1).fingerprint();
        assert_eq!(base, cell(6.0, 1).fingerprint(), "stable");
        assert_ne!(base, cell(8.0, 1).fingerprint(), "clock point");
        assert_ne!(base, cell(6.0, 2).fingerprint(), "seed");
        let mut other = cell(6.0, 1);
        other.core = CoreKind::InOrder;
        assert_ne!(base, other.fingerprint(), "core");
        let mut other = cell(6.0, 1);
        other.observed = true;
        assert_ne!(base, other.fingerprint(), "observed");
        let mut other = cell(6.0, 1);
        other.profile = profiles::by_name("181.mcf").unwrap();
        assert_ne!(base, other.fingerprint(), "benchmark");
    }

    #[test]
    fn decompose_run_assemble_matches_direct_sweep() {
        use crate::sweep::{depth_sweep_with, standard_points};
        let profs = vec![
            profiles::by_name("164.gzip").unwrap(),
            profiles::by_name("171.swim").unwrap(),
        ];
        let params = SimParams {
            warmup: 1_000,
            measure: 4_000,
            seed: 1,
        };
        let points: Vec<Fo4> = standard_points().into_iter().take(3).collect();
        let structures = StructureSet::alpha_21264();
        let direct = depth_sweep_with(
            CoreKind::OutOfOrder,
            &profs,
            &params,
            &structures,
            Fo4::new(1.8),
            &points,
        );

        let cells = sweep_cells(
            CoreKind::OutOfOrder,
            &profs,
            &params,
            Fo4::new(1.8),
            &points,
            false,
            "alpha_21264",
        );
        assert_eq!(cells.len(), 6);
        let arenas = crate::sim::arenas_for(&profs, &params);
        let outcomes = cells
            .iter()
            .map(|c| {
                let bi = profs.iter().position(|p| p.name == c.profile.name).unwrap();
                c.run(&structures, &arenas[bi])
            })
            .collect();
        let assembled = assemble_sweep(
            CoreKind::OutOfOrder,
            &structures,
            Fo4::new(1.8),
            &points,
            profs.len(),
            outcomes,
        );
        assert_eq!(assembled, direct);
    }
}
