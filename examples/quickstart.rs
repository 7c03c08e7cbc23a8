//! Quickstart: find the optimal logic depth per pipeline stage.
//!
//! Runs a reduced version of the paper's headline experiment (Figure 5):
//! sweep the useful logic per stage of an Alpha-21264-class out-of-order
//! core from 2 to 16 FO4 and report where each benchmark class peaks.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fo4depth::fo4::Fo4;
use fo4depth::study::latency::StructureSet;
use fo4depth::study::render;
use fo4depth::study::sim::SimParams;
use fo4depth::study::sweep::{depth_sweep_spec, standard_points, CoreKind, SweepSpec};
use fo4depth::workload::{profiles, BenchClass};

fn main() {
    // Moderate instruction counts so this finishes in about a minute; the
    // bench harness (`cargo run -p fo4depth-bench --bin tables`) uses
    // longer runs.
    let params = SimParams {
        warmup: 10_000,
        measure: 40_000,
        seed: 1,
    };

    println!(
        "Sweeping t_useful = 2..16 FO4 over {} benchmarks...\n",
        profiles::all().len()
    );
    let spec = SweepSpec {
        core: CoreKind::OutOfOrder,
        profiles: &profiles::all(),
        params: &params,
        structures: &StructureSet::alpha_21264(),
        overhead: Fo4::new(1.8),
        points: &standard_points(),
        observed: false,
    };
    let sweep = depth_sweep_spec(&spec, fo4depth::exec::global());

    println!("{}", render::sweep_table(&sweep));

    for class in [
        BenchClass::Integer,
        BenchClass::VectorFp,
        BenchClass::NonVectorFp,
    ] {
        let (opt, bips) = sweep.class_optimum(class);
        println!(
            "{:14} optimum: {opt:>4.1} FO4 useful logic per stage ({bips:.2} BIPS)",
            class.label()
        );
    }
    println!();
    println!(
        "{}",
        render::ascii_plot(
            "Integer BIPS vs useful logic per stage (FO4)",
            &sweep.series(Some(BenchClass::Integer)),
            10,
        )
    );
    println!("Paper (ISCA 2002): integer 6 FO4, vector FP 4 FO4, non-vector FP 5 FO4.");
}
