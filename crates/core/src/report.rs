//! Machine-readable run reports.
//!
//! A report is a single deterministic JSON document covering an observed
//! depth sweep: per-benchmark raw counters and stall attribution at every
//! clock point, per-class BIPS summaries, and the sweep optima. Repeated
//! runs with the same parameters and seed produce byte-identical output —
//! object keys are emitted in insertion order and numbers render through
//! one code path ([`fo4depth_util::Json`]), so reports can be diffed and
//! archived as experiment artifacts.
//!
//! The counter block's `cpi_stack` decomposes each benchmark's CPI into a
//! base (useful-issue) component plus one component per
//! [`StallCause`](fo4depth_pipeline::StallCause); the components sum to the
//! measured CPI exactly (the slot identity of `fo4depth_pipeline::counters`).

use fo4depth_fo4::Fo4;
use fo4depth_pipeline::{Counters, StallCause};
use fo4depth_uarch::OccupancyHist;
use fo4depth_util::Json;
use fo4depth_workload::{BenchClass, BenchProfile};

use crate::latency::StructureSet;
use crate::sim::{summarize, BenchOutcome, SimParams};
use crate::sweep::{depth_sweep_spec, AdaptiveSweep, CoreKind, DepthSweep, SweepSpec};

/// Report format version; bump on any incompatible schema change.
pub const SCHEMA_VERSION: u64 = 1;

/// The three benchmark classes, in report order.
const CLASSES: [BenchClass; 3] = [
    BenchClass::Integer,
    BenchClass::VectorFp,
    BenchClass::NonVectorFp,
];

fn class_key(class: BenchClass) -> &'static str {
    match class {
        BenchClass::Integer => "integer",
        BenchClass::VectorFp => "vector_fp",
        BenchClass::NonVectorFp => "non_vector_fp",
    }
}

fn core_key(core: CoreKind) -> &'static str {
    match core {
        CoreKind::InOrder => "inorder",
        CoreKind::OutOfOrder => "ooo",
    }
}

fn hist_json(h: &OccupancyHist) -> Json {
    Json::obj(vec![
        ("samples", Json::uint(h.samples())),
        ("mean", Json::Num(h.mean())),
        ("max", Json::uint(h.max() as u64)),
        (
            "buckets",
            Json::Arr(h.buckets().iter().map(|&b| Json::uint(b)).collect()),
        ),
    ])
}

/// Serializes one counter block, including the CPI stack over
/// `instructions` committed instructions.
#[must_use]
pub fn counters_json(c: &Counters, instructions: u64) -> Json {
    let stalls = StallCause::ALL
        .iter()
        .map(|&cause| (cause.key(), Json::uint(c.stalls(cause))))
        .collect();
    let cpi_stack = c
        .cpi_stack(instructions)
        .into_iter()
        .map(|(k, v)| (k, Json::Num(v)))
        .collect();
    Json::obj(vec![
        ("width", Json::uint(u64::from(c.width))),
        ("cycles", Json::uint(c.cycles)),
        ("useful_slots", Json::uint(c.useful_slots)),
        ("stall_slots", Json::obj(stalls)),
        ("cpi_stack", Json::obj(cpi_stack)),
        ("window_occupancy", hist_json(&c.window_occupancy)),
        ("rob_occupancy", hist_json(&c.rob_occupancy)),
        ("lsq_occupancy", hist_json(&c.lsq_occupancy)),
        (
            "dispatch_blocked",
            Json::obj(vec![
                ("rob", Json::uint(c.dispatch_blocked_rob)),
                ("window", Json::uint(c.dispatch_blocked_window)),
                ("lsq", Json::uint(c.dispatch_blocked_lsq)),
                ("rename", Json::uint(c.dispatch_blocked_rename)),
            ]),
        ),
        (
            "btb",
            Json::obj(vec![
                ("lookups", Json::uint(c.btb.lookups)),
                ("hits", Json::uint(c.btb.hits)),
            ]),
        ),
    ])
}

/// Serializes one benchmark outcome at a clock period.
#[must_use]
pub fn outcome_json(o: &BenchOutcome, period_ps: f64) -> Json {
    let r = &o.result;
    let mut pairs = vec![
        ("name", Json::str(o.name.clone())),
        ("class", Json::str(class_key(o.class))),
        ("instructions", Json::uint(r.instructions)),
        ("cycles", Json::uint(r.cycles)),
        ("ipc", Json::Num(r.ipc())),
        ("bips", Json::Num(r.bips(period_ps))),
        ("branches", Json::uint(r.branches)),
        ("mispredicts", Json::uint(r.mispredicts)),
        (
            "l1",
            Json::obj(vec![
                ("hits", Json::uint(r.l1.hits)),
                ("misses", Json::uint(r.l1.misses)),
            ]),
        ),
        (
            "l2",
            Json::obj(vec![
                ("hits", Json::uint(r.l2.hits)),
                ("misses", Json::uint(r.l2.misses)),
            ]),
        ),
        ("forwards", Json::uint(r.forwards)),
        ("loads", Json::uint(r.loads)),
    ];
    if let Some(c) = &o.counters {
        pairs.push(("counters", counters_json(c, r.instructions)));
    }
    Json::obj(pairs)
}

/// Serializes a (typically observed) sweep into the report document.
#[must_use]
pub fn sweep_json(sweep: &DepthSweep, params: &SimParams) -> Json {
    let points = sweep
        .points
        .iter()
        .map(|p| {
            let benchmarks = p
                .outcomes
                .iter()
                .map(|o| outcome_json(o, p.period_ps))
                .collect();
            let mut classes = Vec::new();
            for class in CLASSES {
                if let Some(s) = summarize(&p.outcomes, Some(class), p.period_ps) {
                    classes.push((
                        class_key(class),
                        Json::obj(vec![
                            ("bips", Json::Num(s.bips)),
                            ("ipc", Json::Num(s.ipc)),
                            ("count", Json::uint(s.count as u64)),
                        ]),
                    ));
                }
            }
            Json::obj(vec![
                ("t_useful", Json::Num(p.t_useful)),
                ("period_ps", Json::Num(p.period_ps)),
                ("benchmarks", Json::Arr(benchmarks)),
                ("classes", Json::obj(classes)),
            ])
        })
        .collect();

    let mut optima = Vec::new();
    if !sweep.series(None).is_empty() {
        let (t, bips) = sweep.optimum(None);
        optima.push((
            "all",
            Json::obj(vec![("t_useful", Json::Num(t)), ("bips", Json::Num(bips))]),
        ));
    }
    for class in CLASSES {
        if sweep.series(Some(class)).is_empty() {
            continue;
        }
        let (t, bips) = sweep.class_optimum(class);
        optima.push((
            class_key(class),
            Json::obj(vec![("t_useful", Json::Num(t)), ("bips", Json::Num(bips))]),
        ));
    }

    Json::obj(vec![
        ("schema_version", Json::uint(SCHEMA_VERSION)),
        ("core", Json::str(core_key(sweep.core))),
        ("overhead_fo4", Json::Num(sweep.overhead)),
        (
            "params",
            Json::obj(vec![
                ("warmup", Json::uint(params.warmup)),
                ("measure", Json::uint(params.measure)),
                ("seed", Json::uint(params.seed)),
            ]),
        ),
        ("points", Json::Arr(points)),
        ("optima", Json::obj(optima)),
    ])
}

/// Serializes an adaptive sweep: the usual report document over the probed
/// points, plus an `adaptive` block recording the search cost and seed.
#[must_use]
pub fn adaptive_sweep_json(a: &AdaptiveSweep, params: &SimParams) -> Json {
    let Json::Obj(mut fields) = sweep_json(&a.sweep, params) else {
        unreachable!("sweep_json returns an object")
    };
    fields.push(("adaptive".to_string(), adaptive_stats_json(a)));
    Json::Obj(fields)
}

/// The `adaptive` stats block shared by reports and the serve layer.
#[must_use]
pub fn adaptive_stats_json(a: &AdaptiveSweep) -> Json {
    Json::obj(vec![
        ("seed_t_useful", Json::Num(a.stats.seed_t)),
        ("rounds", Json::uint(a.stats.rounds as u64)),
        ("points_probed", Json::uint(a.stats.probed_points as u64)),
        ("points_dense", Json::uint(a.stats.dense_points as u64)),
        ("cells_simulated", Json::uint(a.cells_simulated as u64)),
        ("cells_dense", Json::uint(a.cells_dense as u64)),
        (
            "cells_saved",
            Json::uint(a.cells_dense.saturating_sub(a.cells_simulated) as u64),
        ),
        (
            "probe_order",
            Json::Arr(
                a.probe_order
                    .iter()
                    .map(|&i| Json::uint(i as u64))
                    .collect(),
            ),
        ),
    ])
}

/// Runs an observed sweep and renders the full report.
///
/// This is the engine behind `fo4depth report`: every benchmark runs with
/// counters on, so the report carries a complete CPI stack per benchmark
/// per clock point alongside the BIPS curves and their optima.
#[must_use]
pub fn generate(
    core: CoreKind,
    profiles: &[BenchProfile],
    params: &SimParams,
    points: &[Fo4],
) -> Json {
    let spec = SweepSpec {
        core,
        profiles,
        params,
        structures: &StructureSet::alpha_21264(),
        overhead: Fo4::new(1.8),
        points,
        observed: true,
    };
    sweep_json(&depth_sweep_spec(&spec, fo4depth_exec::global()), params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fo4depth_workload::profiles;

    fn tiny() -> SimParams {
        SimParams {
            warmup: 2_000,
            measure: 8_000,
            seed: 1,
        }
    }

    #[test]
    fn report_is_deterministic_and_parses() {
        let profs = vec![profiles::by_name("164.gzip").unwrap()];
        let points = [Fo4::new(6.0)];
        let a = generate(CoreKind::OutOfOrder, &profs, &tiny(), &points).pretty();
        let b = generate(CoreKind::OutOfOrder, &profs, &tiny(), &points).pretty();
        assert_eq!(a, b, "same seed must render byte-identically");
        let doc = Json::parse(&a).expect("report parses");
        assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("core").and_then(Json::as_str), Some("ooo"));
    }

    #[test]
    fn cpi_stack_in_report_sums_to_cpi() {
        let profs = vec![profiles::by_name("181.mcf").unwrap()];
        let doc = generate(CoreKind::OutOfOrder, &profs, &tiny(), &[Fo4::new(8.0)]);
        let point = &doc.get("points").and_then(Json::as_arr).unwrap()[0];
        let bench = &point.get("benchmarks").and_then(Json::as_arr).unwrap()[0];
        let cpi: f64 = 1.0 / bench.get("ipc").and_then(Json::as_f64).unwrap();
        let stack = bench
            .get("counters")
            .and_then(|c| c.get("cpi_stack"))
            .expect("counters present");
        let Json::Obj(entries) = stack else {
            panic!("cpi_stack is an object")
        };
        let sum: f64 = entries.iter().filter_map(|(_, v)| v.as_f64()).sum();
        assert!((sum - cpi).abs() < 1e-9, "stack {sum} must equal CPI {cpi}");
    }
}
