//! The paper's headline results, asserted end-to-end through the full
//! stack (circuit → cacti → workloads → cores → study).
//!
//! Tolerance policy (DESIGN.md §6): optima within ±1 FO4 of the paper's,
//! curve orderings exact, magnitudes directionally right.

use fo4depth::fo4::TechNode;
use fo4depth::study::experiments::PaperHeadlines;
use fo4depth::study::latency::StructureSet;
use fo4depth::study::scaler::ScaledMachine;
use fo4depth::study::sim::SimParams;
use fo4depth::study::sweep::{depth_sweep_spec, standard_points, CoreKind, DepthSweep, SweepSpec};
use fo4depth::workload::BenchProfile;
use fo4depth::workload::{profiles, BenchClass};
use fo4depth_fo4::Fo4;

fn params() -> SimParams {
    SimParams {
        warmup: 10_000,
        measure: 40_000,
        seed: 1,
    }
}

/// The depth sweep at `params()` over the Alpha structures.
fn run_sweep(
    core: CoreKind,
    profiles: &[BenchProfile],
    overhead: f64,
    points: &[Fo4],
) -> DepthSweep {
    let spec = SweepSpec {
        core,
        profiles,
        params: &params(),
        structures: &StructureSet::alpha_21264(),
        overhead: Fo4::new(overhead),
        points,
        observed: false,
    };
    depth_sweep_spec(&spec, fo4depth::exec::global())
}

#[test]
fn figure5_out_of_order_optima() {
    let paper = PaperHeadlines::isca2002();
    let sweep = run_sweep(
        CoreKind::OutOfOrder,
        &profiles::all(),
        1.8,
        &standard_points(),
    );

    let (int_opt, int_bips) = sweep.class_optimum(BenchClass::Integer);
    assert!(
        (int_opt - paper.ooo_integer_optimum).abs() < 0.5,
        "integer optimum {int_opt} (paper {})",
        paper.ooo_integer_optimum
    );

    let (vec_opt, vec_bips) = sweep.class_optimum(BenchClass::VectorFp);
    assert!(
        (vec_opt - paper.ooo_vector_optimum).abs() <= 1.0,
        "vector optimum {vec_opt} (paper {})",
        paper.ooo_vector_optimum
    );

    let (nv_opt, nv_bips) = sweep.class_optimum(BenchClass::NonVectorFp);
    assert!(
        (nv_opt - paper.ooo_non_vector_optimum).abs() <= 1.0,
        "non-vector optimum {nv_opt} (paper {})",
        paper.ooo_non_vector_optimum
    );

    // FP optima sit at or below (deeper than) the integer optimum, and the
    // class performance ordering matches Figure 5.
    assert!(vec_opt <= int_opt);
    assert!(
        vec_bips > int_bips,
        "vector {vec_bips} vs integer {int_bips}"
    );
    assert!(nv_bips > int_bips);

    // The optimal integer clock is ~3.6 GHz at 100 nm (§7).
    let m = ScaledMachine::at(
        &StructureSet::alpha_21264(),
        Fo4::new(int_opt),
        Fo4::new(1.8),
    );
    let ghz = 1000.0 / m.clock.period(TechNode::NM_100).get();
    assert!(
        (ghz - paper.integer_frequency_ghz).abs() < 0.3,
        "optimal frequency {ghz} GHz"
    );
}

#[test]
fn figure4b_in_order_integer_optimum() {
    let sweep = run_sweep(
        CoreKind::InOrder,
        &profiles::integer(),
        1.8,
        &standard_points(),
    );
    let (opt, _) = sweep.class_optimum(BenchClass::Integer);
    assert!(
        (opt - 6.0).abs() < 0.5,
        "in-order integer optimum {opt} (paper 6)"
    );
}

#[test]
fn figure4a_no_overhead_rewards_depth() {
    // Without overhead, performance improves as the pipeline deepens
    // (Figure 4a): the best point is at the deep end, and the gain from
    // halving t_useful is far below the ideal 2x (paper: 18% for integer
    // codes from 8 to 4 FO4).
    let points: Vec<Fo4> = [2.0, 4.0, 8.0, 16.0].into_iter().map(Fo4::new).collect();
    let sweep = run_sweep(CoreKind::InOrder, &profiles::integer(), 0.0, &points);
    let series = sweep.series(Some(BenchClass::Integer));
    let at = |t: f64| series.iter().find(|p| p.0 == t).expect("point").1;
    assert!(at(2.0) > at(8.0), "depth must pay with zero overhead");
    assert!(at(4.0) > at(8.0));
    let gain = at(4.0) / at(8.0);
    assert!(
        (1.05..1.6).contains(&gain),
        "4-vs-8 FO4 gain {gain} (ideal 2.0, paper ~1.18)"
    );
}

#[test]
fn two_x_headroom_over_current_designs() {
    // §1/§7: further pipelining can at best improve integer performance by
    // about a factor of two over designs at the then-current ~12-17 FO4.
    let sweep = run_sweep(
        CoreKind::OutOfOrder,
        &profiles::integer(),
        1.8,
        &standard_points(),
    );
    let series = sweep.series(Some(BenchClass::Integer));
    let best = sweep.class_optimum(BenchClass::Integer).1;
    let current = series
        .iter()
        .filter(|p| p.0 >= 12.0)
        .map(|p| p.1)
        .fold(f64::MIN, f64::max);
    let headroom = best / current;
    assert!(
        (1.05..2.5).contains(&headroom),
        "headroom {headroom} (paper: at most ~2x)"
    );
}

#[test]
fn full_sweep_uses_standard_points() {
    assert_eq!(standard_points().len(), 15);
    assert_eq!(standard_points()[0], Fo4::new(2.0));
    assert_eq!(standard_points()[14], Fo4::new(16.0));
}
