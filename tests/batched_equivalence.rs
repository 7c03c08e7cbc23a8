//! Differential equivalence of the lane driver against the per-cell
//! driver.
//!
//! There is one simulation engine: both drivers build the same core
//! structures, and the engine's reference is the golden ledger of recorded
//! cell digests (`tests/golden_cells.rs`). What this harness pins is the
//! driving. Sweeps are dispatched by group size — out-of-order groups of
//! [`MIN_BATCH_LANES`] cells or more take one lockstep pass over a shared
//! arena, every other cell runs on its own — and every shape must
//! reproduce the
//! per-cell sweep ([`depth_sweep_arenas`], [`CellSpec::run`]) **byte for
//! byte**: whole sweeps at any lane count, per-benchmark lane groups, the
//! machines the study scales outside a `SweepSpec` (flat memory, scaling
//! options, wire stages), and the serve tier's cell-granular assembly —
//! cycles, BIPS inputs,
//! per-cause stall counters, occupancy histograms, and the optimum depth
//! they imply. Any divergence is localized by the shared
//! [`common::assert_sweeps_bitwise_eq`] diagnostic down to the
//! `(clock point × benchmark × field)` that first drifted.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use fo4depth::exec::Pool;
use fo4depth::study::ablation::sweep_with_options;
use fo4depth::study::cells::{assemble_sweep, run_cell_group, sweep_cells, CellSpec};
use fo4depth::study::cray::{cray_memory_sweep_with, CRAY_MEMORY_FO4};
use fo4depth::study::latency::{StructureSet, MEMORY_LATENCY_FO4};
use fo4depth::study::scaler::{MemoryConvention, ScaleOptions, ScaledMachine};
use fo4depth::study::sim::{run_ooo, run_ooo_batched, BenchOutcome, SimParams};
use fo4depth::study::sweep::{
    build_arenas, depth_sweep_arenas, depth_sweep_arenas_batched, depth_sweep_spec, CoreKind,
    DepthSweep, SweepPoint, SweepSpec, MIN_BATCH_LANES,
};
use fo4depth::workload::{profiles, BenchProfile, TraceArena};
use fo4depth_fo4::{cycles_for, Fo4, Rounding};
use fo4depth_pipeline::{CoreConfig, WindowConfig};
use fo4depth_uarch::cache::HierarchyConfig;
use fo4depth_uarch::SelectMode;

/// The serve tier's structure-set tag for [`StructureSet::alpha_21264`].
const TAG: &str = "alpha_21264";

fn test_profiles() -> Vec<BenchProfile> {
    ["164.gzip", "171.swim", "181.mcf"]
        .into_iter()
        .map(|n| profiles::by_name(n).expect("known benchmark"))
        .collect()
}

fn test_params() -> SimParams {
    SimParams {
        warmup: 2_000,
        measure: 6_000,
        seed: 1,
    }
}

fn test_points() -> Vec<Fo4> {
    [3.0, 6.8, 12.0].into_iter().map(Fo4::new).collect()
}

/// `k` off-grid clock points from 2.5 FO4 up, 1.3 FO4 apart.
fn spread_points(k: usize) -> Vec<Fo4> {
    #[allow(clippy::cast_precision_loss)]
    (0..k).map(|i| Fo4::new(2.5 + 1.3 * i as f64)).collect()
}

/// For both cores, observed and unobserved, and every lane-count shape
/// (serial lanes, even splits, ragged tails, one all-points batch), the
/// batched sweep is bit-identical to the per-cell sweep over the same
/// arenas. The grid is wide enough that some groups reach
/// [`MIN_BATCH_LANES`] and run as lanes.
#[test]
fn batched_sweep_is_bit_identical_to_scalar() {
    let profs = test_profiles();
    let params = test_params();
    let structures = StructureSet::alpha_21264();
    let points = spread_points(MIN_BATCH_LANES + 2);
    let pool = Pool::new(2);
    let arenas = build_arenas(&profs, &params, &pool);
    for core in [CoreKind::OutOfOrder, CoreKind::InOrder] {
        for observed in [false, true] {
            let spec = SweepSpec {
                core,
                profiles: &profs,
                params: &params,
                structures: &structures,
                overhead: Fo4::new(1.8),
                points: &points,
                observed,
            };
            let scalar = depth_sweep_arenas(&spec, &arenas, &pool);
            for lanes in [1, 2, MIN_BATCH_LANES, points.len(), usize::MAX] {
                let batched = depth_sweep_arenas_batched(&spec, &arenas, &pool, lanes);
                common::assert_sweeps_bitwise_eq(
                    &format!("{core:?} observed={observed} lanes={lanes}"),
                    &scalar,
                    &batched,
                );
            }
        }
    }
}

/// A lane batch is one pool task: the batched sweep must be `--jobs`
/// invariant, like the per-cell sweep.
#[test]
fn batched_sweep_is_pool_size_invariant() {
    let profs = test_profiles();
    let params = test_params();
    let structures = StructureSet::alpha_21264();
    let points = spread_points(MIN_BATCH_LANES + 2);
    let serial = Pool::new(1);
    let wide = Pool::new(4);
    let arenas = build_arenas(&profs, &params, &serial);
    for core in [CoreKind::OutOfOrder, CoreKind::InOrder] {
        let spec = SweepSpec {
            core,
            profiles: &profs,
            params: &params,
            structures: &structures,
            overhead: Fo4::new(1.8),
            points: &points,
            observed: false,
        };
        let a = depth_sweep_arenas_batched(&spec, &arenas, &serial, MIN_BATCH_LANES);
        let b = depth_sweep_arenas_batched(&spec, &arenas, &wide, MIN_BATCH_LANES);
        common::assert_sweeps_bitwise_eq(
            &format!("{core:?}: batched sweep across pool sizes"),
            &a,
            &b,
        );
    }
}

/// Lanes whose windows are not all conventional fall back to the
/// `Box<dyn WindowModel>` lane path. That path must be just as
/// bit-faithful — including a mixed batch where a conventional lane rides
/// alongside segmented and speculative ones.
#[test]
fn non_conventional_windows_batch_bit_identically() {
    let profs = test_profiles();
    let params = test_params();
    let structures = StructureSet::alpha_21264();
    let pool = Pool::new(1);
    let arenas = build_arenas(&profs[..1], &params, &pool);
    let machine = ScaledMachine::at(&structures, Fo4::new(6.8), Fo4::new(1.8));
    let mut segmented = machine.config.clone();
    segmented.window = WindowConfig::Segmented {
        capacity: 32,
        stages: 4,
        select: SelectMode::figure12(),
    };
    let mut speculative = machine.config.clone();
    speculative.window = WindowConfig::Speculative {
        capacity: 32,
        reschedule_penalty: 2,
    };
    let conventional = machine.config.clone();
    for observed in [false, true] {
        lanes_match_cells(
            &format!("mixed-window batch, observed={observed}"),
            &[&segmented, &speculative, &conventional],
            &arenas[0],
            &params,
            observed,
        );
    }
}

/// Runs `configs` as the lanes of one batch and one by one over `arena`,
/// asserts the two bit-identical, and returns the per-cell outcomes.
fn lanes_match_cells(
    context: &str,
    configs: &[&CoreConfig],
    arena: &Arc<TraceArena>,
    params: &SimParams,
    observed: bool,
) -> Vec<BenchOutcome> {
    let batched = run_ooo_batched(configs, arena, params, observed);
    let scalar: Vec<BenchOutcome> = configs
        .iter()
        .map(|cfg| run_ooo(cfg, arena, params, observed))
        .collect();
    common::assert_outcomes_bitwise_eq(context, &scalar, &batched);
    scalar
}

/// The machine kinds the study scales outside a [`SweepSpec`] reach the
/// lanes through the shared dispatch: the §4.2 CRAY flat memory
/// ([`cray_memory_sweep_with`]) and, through [`sweep_with_options`],
/// absolute-time memory, nearest rounding and wire transport stages. For
/// each kind, over a grid wide enough to run as lanes, the lane group
/// equals per-cell runs of the same machines (observed and unobserved),
/// and the public sweep equals the sweep assembled from those per-cell
/// runs.
#[test]
fn scaled_machine_kinds_batch_bit_identically() {
    let profs = test_profiles();
    let params = test_params();
    let structures = StructureSet::alpha_21264();
    let points = spread_points(MIN_BATCH_LANES + 2);
    let flat: Vec<ScaledMachine> = points
        .iter()
        .map(|&t| {
            let mut m = ScaledMachine::at(&structures, t, Fo4::new(1.8));
            let mem = cycles_for(Fo4::new(CRAY_MEMORY_FO4), t);
            m.config.hierarchy = HierarchyConfig::flat_memory(u64::from(mem));
            m
        })
        .collect();
    let mut kinds = vec![(
        "CRAY flat memory",
        flat,
        cray_memory_sweep_with(&profs, &params, &points),
    )];
    for (label, options) in [
        (
            "absolute-time memory",
            ScaleOptions {
                memory: MemoryConvention::AbsoluteTime(Fo4::new(MEMORY_LATENCY_FO4)),
                ..ScaleOptions::default()
            },
        ),
        (
            "nearest rounding",
            ScaleOptions {
                rounding: Rounding::Nearest,
                ..ScaleOptions::default()
            },
        ),
        (
            "wire transport stages",
            ScaleOptions {
                transport_mm: 20.0,
                ..ScaleOptions::default()
            },
        ),
    ] {
        let machines = points
            .iter()
            .map(|&t| ScaledMachine::with_options(&structures, t, options))
            .collect();
        kinds.push((
            label,
            machines,
            sweep_with_options(&profs, &params, &points, options),
        ));
    }
    let arenas = build_arenas(&profs, &params, &Pool::new(1));
    for (label, machines, sweep) in &kinds {
        let configs: Vec<&CoreConfig> = machines.iter().map(|m| &m.config).collect();
        let mut reference = DepthSweep {
            core: CoreKind::OutOfOrder,
            overhead: 1.8,
            points: machines
                .iter()
                .map(|m| SweepPoint {
                    t_useful: m.t_useful.get(),
                    period_ps: m.period_ps(),
                    outcomes: Vec::new(),
                })
                .collect(),
        };
        for arena in &arenas {
            let context =
                |observed| format!("{label}: {} observed={observed}", arena.profile().name);
            lanes_match_cells(&context(true), &configs, arena, &params, true);
            let scalar = lanes_match_cells(&context(false), &configs, arena, &params, false);
            for (point, outcome) in reference.points.iter_mut().zip(scalar) {
                point.outcomes.push(outcome);
            }
        }
        common::assert_sweeps_bitwise_eq(label, &reference, sweep);
    }
}

/// The serve tier's cache-fill seam: a lane group filled through
/// [`run_cell_group`] returns, cell for cell, exactly what the per-cell
/// [`CellSpec::run`] returns — so a batch-filled cache entry and a
/// per-cell one are interchangeable. The group sizes straddle
/// [`MIN_BATCH_LANES`], so both drivers fill a group.
#[test]
fn cell_group_matches_scalar_cells() {
    let profs = test_profiles();
    let params = test_params();
    let structures = StructureSet::alpha_21264();
    let pool = Pool::new(1);
    let arenas = build_arenas(&profs, &params, &pool);
    for (points, observed) in [
        (test_points(), false),
        (test_points(), true),
        (spread_points(MIN_BATCH_LANES - 1), false),
        (spread_points(MIN_BATCH_LANES), false),
        (spread_points(MIN_BATCH_LANES), true),
    ] {
        let cells = sweep_cells(
            CoreKind::OutOfOrder,
            &profs,
            &params,
            Fo4::new(1.8),
            &points,
            observed,
            TAG,
        );
        for (bi, arena) in arenas.iter().enumerate() {
            let group: Vec<CellSpec> = (0..points.len())
                .map(|pi| cells[pi * profs.len() + bi].clone())
                .collect();
            let batched = run_cell_group(&group, &structures, arena);
            let scalar: Vec<BenchOutcome> =
                group.iter().map(|c| c.run(&structures, arena)).collect();
            common::assert_outcomes_bitwise_eq(
                &format!(
                    "cell group {} of {} observed={observed}",
                    profs[bi].name,
                    points.len()
                ),
                &scalar,
                &batched,
            );
        }
    }
}

/// End-to-end through the serve tier's decomposition: `sweep_cells` →
/// per-benchmark batched fills (with one benchmark deliberately filled by
/// the scalar path, the warm-cache case) → `assemble_sweep` reproduces
/// `depth_sweep_spec` byte for byte. This is the full cache-tier
/// round-trip the daemon performs.
#[test]
fn assembled_batched_cells_match_depth_sweep_spec() {
    let profs = test_profiles();
    let params = test_params();
    let structures = StructureSet::alpha_21264();
    let points = test_points();
    let pool = Pool::new(2);
    let arenas = build_arenas(&profs, &params, &pool);
    let spec = SweepSpec {
        core: CoreKind::OutOfOrder,
        profiles: &profs,
        params: &params,
        structures: &structures,
        overhead: Fo4::new(1.8),
        points: &points,
        observed: false,
    };
    let reference = depth_sweep_spec(&spec, &pool);
    let cells = sweep_cells(
        CoreKind::OutOfOrder,
        &profs,
        &params,
        Fo4::new(1.8),
        &points,
        false,
        TAG,
    );
    let mut grid: Vec<Option<BenchOutcome>> = Vec::new();
    grid.resize_with(cells.len(), || None);
    for (bi, arena) in arenas.iter().enumerate() {
        let group: Vec<CellSpec> = (0..points.len())
            .map(|pi| cells[pi * profs.len() + bi].clone())
            .collect();
        // Benchmark 0 plays the warm cache: its cells were filled earlier
        // by the scalar path. The rest are cold batched fills.
        let outcomes = if bi == 0 {
            group.iter().map(|c| c.run(&structures, arena)).collect()
        } else {
            run_cell_group(&group, &structures, arena)
        };
        for (pi, outcome) in outcomes.into_iter().enumerate() {
            grid[pi * profs.len() + bi] = Some(outcome);
        }
    }
    let assembled = assemble_sweep(
        CoreKind::OutOfOrder,
        &structures,
        Fo4::new(1.8),
        &points,
        profs.len(),
        grid.into_iter().map(|o| o.expect("cell filled")).collect(),
    );
    common::assert_sweeps_bitwise_eq(
        "serve-tier assembly vs direct sweep",
        &reference,
        &assembled,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Lane-count invariance over arbitrary grid shapes: any lane count
    /// (serial, ragged tails, single-point batches, more lanes than
    /// points) produces bit-identical outcomes, and the cell fingerprints
    /// that would key the persistent cache are unchanged by how the grid
    /// was batched.
    #[test]
    fn any_lane_count_is_bit_identical(
        lanes in 1usize..MIN_BATCH_LANES + 3,
        npoints in 1usize..MIN_BATCH_LANES + 3,
        observed in any::<bool>(),
    ) {
        let profs: Vec<BenchProfile> = ["164.gzip", "181.mcf"]
            .into_iter()
            .map(|n| profiles::by_name(n).expect("known benchmark"))
            .collect();
        let params = SimParams { warmup: 500, measure: 1_500, seed: 1 };
        let all_points = spread_points(MIN_BATCH_LANES + 2);
        let points = &all_points[..npoints];
        let structures = StructureSet::alpha_21264();
        let pool = Pool::new(2);
        let arenas = build_arenas(&profs, &params, &pool);
        let spec = SweepSpec {
            core: CoreKind::OutOfOrder,
            profiles: &profs,
            params: &params,
            structures: &structures,
            overhead: Fo4::new(1.8),
            points,
            observed,
        };
        let scalar = depth_sweep_arenas(&spec, &arenas, &pool);
        let batched = depth_sweep_arenas_batched(&spec, &arenas, &pool, lanes);
        common::assert_sweeps_bitwise_eq(
            &format!("lanes={lanes} npoints={npoints} observed={observed}"),
            &scalar,
            &batched,
        );
        // The cache key is a pure function of the cell spec; batching must
        // not perturb it (and the grid's cells must not collide).
        let fingerprints: Vec<u64> = sweep_cells(
            CoreKind::OutOfOrder,
            &profs,
            &params,
            Fo4::new(1.8),
            points,
            observed,
            TAG,
        )
        .iter()
        .map(CellSpec::fingerprint)
        .collect();
        let again: Vec<u64> = sweep_cells(
            CoreKind::OutOfOrder,
            &profs,
            &params,
            Fo4::new(1.8),
            points,
            observed,
            TAG,
        )
        .iter()
        .map(CellSpec::fingerprint)
        .collect();
        prop_assert_eq!(&fingerprints, &again);
        let mut unique = fingerprints.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(unique.len(), fingerprints.len());
    }
}
