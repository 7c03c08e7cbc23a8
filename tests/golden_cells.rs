//! Golden engine ledger: recorded digests of every standard-grid cell.
//!
//! `tests/golden/cells.txt` holds one line per
//! `(core × observation × window × benchmark)`:
//!
//! ```text
//! <core> <observed|unobserved> <window> <benchmark> <15 hex digests>
//! ```
//!
//! one digest per standard clock point (`t_useful` = 2..=16 FO4), each the
//! FNV-1a of the cell's `BenchOutcome` `Debug` text — the same rule the
//! benchmark driver's stored digests use. Both cores, observed and
//! unobserved, run all 18 profiles at seed 1 over 2 000 + 8 000
//! instructions; the out-of-order core additionally runs the Figure 12
//! segmented window and the speculative-wakeup window on three profiles.
//!
//! Every cell is simulated twice — through the per-cell (scalar) sweep and
//! through the lane-batched sweep at the measured-best lane count — and
//! both must reproduce the recorded bytes. The ledger is the engine's
//! reference: a change that moves any digest changes simulated behaviour
//! and must say why. There is deliberately no regeneration switch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use fo4depth::exec::Pool;
use fo4depth::study::latency::StructureSet;
use fo4depth::study::scaler::ScaledMachine;
use fo4depth::study::sim::{run_ooo, run_ooo_batched, BenchOutcome, SimParams};
use fo4depth::study::sweep::{
    auto_lanes, build_arenas, depth_sweep_arenas, depth_sweep_arenas_batched, standard_points,
    CoreKind, DepthSweep, SweepSpec,
};
use fo4depth::workload::{profiles, BenchProfile, TraceArena};
use fo4depth_fo4::Fo4;
use fo4depth_pipeline::{CoreConfig, WindowConfig};
use fo4depth_uarch::SelectMode;
use fo4depth_util::fnv1a;

const LEDGER: &str = include_str!("golden/cells.txt");

/// Profiles the non-conventional windows run on: one per class.
const WINDOW_PROFILES: [&str; 3] = ["164.gzip", "171.swim", "181.mcf"];

fn params() -> SimParams {
    SimParams {
        warmup: 2_000,
        measure: 8_000,
        seed: 1,
    }
}

fn digest(outcome: &BenchOutcome) -> u64 {
    fnv1a(format!("{outcome:?}").as_bytes())
}

fn core_name(core: CoreKind) -> &'static str {
    match core {
        CoreKind::InOrder => "inorder",
        CoreKind::OutOfOrder => "ooo",
    }
}

fn observed_name(observed: bool) -> &'static str {
    if observed {
        "observed"
    } else {
        "unobserved"
    }
}

/// Ledger key: everything on a line before the digests.
fn key(core: &str, observed: bool, window: &str, bench: &str) -> String {
    format!("{core} {} {window} {bench}", observed_name(observed))
}

/// Per-benchmark digest rows of a sweep, points in grid order.
fn sweep_rows(sweep: &DepthSweep, profs: &[BenchProfile]) -> Vec<Vec<u64>> {
    (0..profs.len())
        .map(|bi| {
            sweep
                .points
                .iter()
                .map(|p| digest(&p.outcomes[bi]))
                .collect()
        })
        .collect()
}

/// One engine's view of the ledger: key → 15 digests.
type Ledger = BTreeMap<String, Vec<u64>>;

fn parse_ledger(text: &str) -> Ledger {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert!(fields.len() > 4, "malformed ledger line: {line}");
            let digests = fields[4..]
                .iter()
                .map(|h| u64::from_str_radix(h, 16).expect("hex digest"))
                .collect();
            (fields[..4].join(" "), digests)
        })
        .collect()
}

fn render_ledger(ledger: &Ledger) -> String {
    let mut out = String::new();
    for (k, digests) in ledger {
        out.push_str(k);
        for d in digests {
            write!(out, " {d:016x}").expect("write to string");
        }
        out.push('\n');
    }
    out
}

/// The conventional-window grid for one core and observation mode, through
/// the per-cell sweep or (`batched`) the lane-batched sweep.
fn conventional_rows(
    batched: bool,
    core: CoreKind,
    observed: bool,
    profs: &[BenchProfile],
    arenas: &[Arc<TraceArena>],
    pool: &Pool,
) -> Vec<Vec<u64>> {
    let params = params();
    let structures = StructureSet::alpha_21264();
    let points = standard_points();
    let spec = SweepSpec {
        core,
        profiles: profs,
        params: &params,
        structures: &structures,
        overhead: Fo4::new(1.8),
        points: &points,
        observed,
    };
    let sweep = if batched {
        depth_sweep_arenas_batched(&spec, arenas, pool, auto_lanes(core, points.len()))
    } else {
        depth_sweep_arenas(&spec, arenas, pool)
    };
    sweep_rows(&sweep, profs)
}

/// The standard-grid configs with the window replaced by `window`.
fn window_configs(window: &WindowConfig) -> Vec<CoreConfig> {
    let structures = StructureSet::alpha_21264();
    standard_points()
        .into_iter()
        .map(|t| {
            let mut cfg = ScaledMachine::at(&structures, t, Fo4::new(1.8)).config;
            cfg.window = window.clone();
            cfg
        })
        .collect()
}

/// Simulates the whole ledger through the per-cell or the lane-batched
/// drivers.
fn compute(batched: bool, pool: &Pool) -> Ledger {
    let params = params();
    let all = profiles::all();
    assert_eq!(all.len(), 18, "the ledger covers all 18 profiles");
    let arenas = build_arenas(&all, &params, pool);
    let mut ledger = Ledger::new();
    for core in [CoreKind::OutOfOrder, CoreKind::InOrder] {
        for observed in [false, true] {
            let rows = conventional_rows(batched, core, observed, &all, &arenas, pool);
            for (p, row) in all.iter().zip(rows) {
                ledger.insert(key(core_name(core), observed, "conventional", &p.name), row);
            }
        }
    }
    let windows = [
        (
            "segmented",
            WindowConfig::Segmented {
                capacity: 32,
                stages: 4,
                select: SelectMode::figure12(),
            },
        ),
        (
            "speculative",
            WindowConfig::Speculative {
                capacity: 32,
                reschedule_penalty: 2,
            },
        ),
    ];
    for (name, window) in &windows {
        let configs = window_configs(window);
        for bench in WINDOW_PROFILES {
            let bi = all
                .iter()
                .position(|p| p.name == bench)
                .expect("window profile present");
            let arena = &arenas[bi];
            for observed in [false, true] {
                let outcomes: Vec<BenchOutcome> = if batched {
                    let refs: Vec<&CoreConfig> = configs.iter().collect();
                    run_ooo_batched(&refs, arena, &params, observed)
                } else {
                    pool.map(&configs, |cfg| run_ooo(cfg, arena, &params, observed))
                };
                ledger.insert(
                    key("ooo", observed, name, bench),
                    outcomes.iter().map(digest).collect(),
                );
            }
        }
    }
    ledger
}

/// The first `(line, point)` where `got` departs from `want`, if any.
fn first_drift(want: &Ledger, got: &Ledger) -> Option<String> {
    for (k, expected) in want {
        let Some(actual) = got.get(k) else {
            return Some(format!("{k}: missing from the engine's ledger"));
        };
        if let Some(pi) =
            (0..expected.len().max(actual.len())).find(|&i| expected.get(i) != actual.get(i))
        {
            let t = standard_points().get(pi).map_or(f64::NAN, |t| t.get());
            return Some(format!(
                "{k} at point {pi} (t_useful = {t} FO4): recorded {:016x?}, engine {:016x?}",
                expected.get(pi),
                actual.get(pi)
            ));
        }
    }
    got.keys()
        .find(|k| !want.contains_key(*k))
        .map(|k| format!("{k}: not in the recorded ledger"))
}

#[test]
fn engine_reproduces_the_golden_ledger() {
    let want = parse_ledger(LEDGER);
    let pool = Pool::new(2);
    for batched in [false, true] {
        let got = compute(batched, &pool);
        if let Some(drift) = first_drift(&want, &got) {
            let driver = if batched { "lane-batched" } else { "per-cell" };
            panic!(
                "{driver} sweep drifted from tests/golden/cells.txt\n\
                 first drift: {drift}\n\
                 --- expected (tests/golden/cells.txt) ---\n{}\
                 --- engine ---\n{}",
                render_ledger(&want),
                render_ledger(&got),
            );
        }
    }
}
