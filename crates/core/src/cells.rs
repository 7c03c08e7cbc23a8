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
//! The fingerprint addresses the *simulated machine*, not the clock point:
//! Table 3 quantizes every latency into whole cycles, so many clock points
//! (and overheads) scale to the same [`CoreConfig`], and a cell's outcome
//! depends only on the core, the benchmark, that config, the simulation
//! intervals and the observation mode. Cells at two such points share one
//! fingerprint and one simulation; what differs between them — the clock
//! period an outcome is priced at — is applied at assembly, never stored.
//! [`DistinctCells`] collapses a cell list to one cell per fingerprint
//! before dispatch and fans the outcomes back out by position.
//!
//! This module defines the cell ([`CellSpec`]), its fingerprint, how it
//! executes ([`CellSpec::run`], [`run_cell_group`] — through the same grid
//! dispatch as [`depth_sweep_arenas`](crate::sweep::depth_sweep_arenas),
//! so cached and freshly-simulated sweeps are bit-identical by
//! construction), and the reassembly of per-cell outcomes into a
//! [`DepthSweep`] ([`assemble_sweep`]).

use std::collections::HashMap;
use std::sync::Arc;

use fo4depth_fo4::Fo4;
use fo4depth_pipeline::CoreConfig;
use fo4depth_util::hash::Fnv64;
use fo4depth_workload::{BenchProfile, TraceArena};

use crate::latency::StructureSet;
use crate::scaler::ScaledMachine;
use crate::sim::{BenchOutcome, SimParams};
use crate::sweep::{run_grid_group, CoreKind, DepthSweep, SweepPoint};

/// Fingerprint-schema version: folded into every digest, bumped whenever a
/// simulation change makes previously cached outcomes stale, or the
/// fingerprint itself changes what it hashes (2: the scaled machine's
/// config in place of the clock point).
pub const CELL_SCHEMA: u64 = 2;

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
    /// Identity of the structure access-time set (e.g. `"alpha_21264"`):
    /// a tag [`StructureSet::for_tag`] resolves, whose set the
    /// fingerprint scales the cell's machine over.
    pub structures_tag: &'static str,
}

impl CellSpec {
    /// The cell's canonical content address: a stable FNV-1a digest of
    /// the core, the benchmark, the [`CoreConfig`] this cell's clock point
    /// scales to (through [`ScaledMachine::at`] over the structure set its
    /// `structures_tag` names), the simulation intervals and seed, and
    /// the observation mode. `t_useful` and `overhead` enter only through
    /// that config, so two points that quantize to the same machine share
    /// a fingerprint. Equal fingerprints mean bit-identical
    /// [`BenchOutcome`]s (same platform-independent simulator, same
    /// seed); the digest is stable across processes, so it can key a
    /// cache that outlives any one run.
    ///
    /// # Panics
    ///
    /// Panics if `structures_tag` names no known structure set.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let structures = StructureSet::for_tag(self.structures_tag)
            .unwrap_or_else(|| panic!("unknown structure set {:?}", self.structures_tag));
        let machine = ScaledMachine::at(&structures, self.t_useful, self.overhead);
        let mut h = Fnv64::new();
        h.write_u64(CELL_SCHEMA);
        h.write_str(match self.core {
            CoreKind::InOrder => "inorder",
            CoreKind::OutOfOrder => "ooo",
        });
        h.write_str(&self.profile.name);
        machine.config.digest(&mut h);
        h.write_u64(self.params.warmup);
        h.write_u64(self.params.measure);
        h.write_u64(self.params.seed);
        h.write_u64(u64::from(self.observed));
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
/// an out-of-order group of at least
/// [`MIN_BATCH_LANES`](crate::sweep::MIN_BATCH_LANES) cells, cell by cell
/// otherwise. Each
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
    let configs: Vec<&CoreConfig> = machines.iter().map(|m| &m.config).collect();
    run_grid_group(first.core, first.observed, &configs, arena, &first.params)
}

/// A cell list collapsed to one cell per fingerprint — the one place a
/// list of cells is deduplicated before it reaches a simulator (the yield
/// plan, the serve engine's fill, and through it the router's scatter).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistinctCells {
    /// Input position of the first cell with each distinct fingerprint,
    /// in first-seen order.
    firsts: Vec<usize>,
    /// The distinct fingerprints, parallel to `firsts`.
    fingerprints: Vec<u64>,
    /// For every input position, the index (into `firsts`) of the
    /// distinct cell that stands for it.
    slots: Vec<usize>,
}

impl DistinctCells {
    /// Fingerprints every cell once and groups equal fingerprints.
    #[must_use]
    pub fn of(cells: &[CellSpec]) -> Self {
        let mut index: HashMap<u64, usize> = HashMap::with_capacity(cells.len());
        let mut firsts = Vec::new();
        let mut fingerprints = Vec::new();
        let slots = cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                let fingerprint = cell.fingerprint();
                *index.entry(fingerprint).or_insert_with(|| {
                    firsts.push(i);
                    fingerprints.push(fingerprint);
                    firsts.len() - 1
                })
            })
            .collect();
        Self {
            firsts,
            fingerprints,
            slots,
        }
    }

    /// Input position of the first cell with each distinct fingerprint,
    /// in first-seen order: the cells to dispatch.
    #[must_use]
    pub fn firsts(&self) -> &[usize] {
        &self.firsts
    }

    /// The distinct fingerprints, parallel to [`Self::firsts`].
    #[must_use]
    pub fn fingerprints(&self) -> &[u64] {
        &self.fingerprints
    }

    /// Number of distinct cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.firsts.len()
    }

    /// Whether the input list was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.firsts.is_empty()
    }

    /// Fans one result per distinct cell back out to every input
    /// position, in input order.
    ///
    /// # Panics
    ///
    /// Panics unless `results` holds exactly one entry per distinct cell.
    #[must_use]
    pub fn fan_out<T: Clone>(&self, results: &[T]) -> Vec<T> {
        assert_eq!(results.len(), self.len(), "one result per distinct cell");
        self.slots.iter().map(|&k| results[k].clone()).collect()
    }
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

        // Same machine ⇒ same fingerprint: the address is the scaled
        // config, not the clock point that produced it.
        let structures = StructureSet::alpha_21264();
        let config =
            |t: f64, o: f64| ScaledMachine::at(&structures, Fo4::new(t), Fo4::new(o)).config;
        assert_eq!(config(11.75, 1.8), config(11.9, 1.8), "off-grid pair");
        assert_eq!(
            cell(11.75, 1).fingerprint(),
            cell(11.9, 1).fingerprint(),
            "two off-grid points, one machine"
        );
        assert_eq!(config(6.0, 1.8), config(6.0, 3.0), "overhead pair");
        let mut other = cell(6.0, 1);
        other.overhead = Fo4::new(3.0);
        assert_eq!(base, other.fingerprint(), "one point at two overheads");
    }

    #[test]
    fn distinct_cells_collapse_and_fan_back_out() {
        let cells = [cell(11.75, 1), cell(6.0, 1), cell(11.9, 1), cell(6.0, 2)];
        let distinct = DistinctCells::of(&cells);
        assert_eq!(distinct.firsts, [0, 1, 3]);
        assert_eq!(distinct.slots, [0, 1, 0, 2]);
        assert_eq!(
            distinct.fingerprints,
            [0, 1, 3].map(|i| cells[i].fingerprint())
        );
        assert_eq!(distinct.fan_out(&["a", "b", "c"]), ["a", "b", "a", "c"]);
        assert!(DistinctCells::of(&[]).is_empty());
    }

    #[test]
    fn decompose_run_assemble_matches_direct_sweep() {
        use crate::sweep::{build_arenas, depth_sweep_spec, standard_points, SweepSpec};
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
        let spec = SweepSpec {
            core: CoreKind::OutOfOrder,
            profiles: &profs,
            params: &params,
            structures: &structures,
            overhead: Fo4::new(1.8),
            points: &points,
            observed: false,
        };
        let serial = fo4depth_exec::Pool::new(1);
        let direct = depth_sweep_spec(&spec, &serial);

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
        let arenas = build_arenas(&profs, &params, &serial);
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
