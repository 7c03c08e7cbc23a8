//! The full §4 methodology walk-through on a single benchmark: how a clock
//! choice turns into structure latencies, a core configuration, and
//! performance — including the in-order vs out-of-order comparison and the
//! CRAY-1S memory experiment.
//!
//! ```text
//! cargo run --release --example sweep_pipeline_depth [benchmark]
//! ```

use std::sync::Arc;

use fo4depth::study::cray::cray_memory_sweep_with;
use fo4depth::study::latency::{table3, StructureSet};
use fo4depth::study::render;
use fo4depth::study::scaler::ScaledMachine;
use fo4depth::study::sim::{run_inorder, run_ooo, SimParams};
use fo4depth::workload::{profiles, TraceArena};
use fo4depth_fo4::Fo4;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "164.gzip".into());
    let Some(profile) = profiles::by_name(&name) else {
        eprintln!("unknown benchmark {name}; known:");
        for p in profiles::all() {
            eprintln!("  {}", p.name);
        }
        std::process::exit(1);
    };
    let params = SimParams {
        warmup: 10_000,
        measure: 40_000,
        seed: 1,
    };
    let structures = StructureSet::alpha_21264();

    println!("Table 3 (this build's structure latencies):\n");
    println!("{}", render::table3(&table3(&structures)));

    println!("{name}: per-clock machine and performance\n");
    println!(
        "  {:>8} {:>7} {:>5} {:>5} {:>5} {:>7} {:>7} {:>7} {:>7}",
        "t_useful", "GHz", "DL1", "wake", "FE", "inord", "o-o-o", "inBIPS", "oooBIPS"
    );
    let arena = Arc::new(TraceArena::generate(
        profile.clone(),
        params.seed,
        params.trace_len(),
    ));
    for t in [2.0, 4.0, 6.0, 8.0, 12.0, 16.0] {
        let m = ScaledMachine::at(&structures, Fo4::new(t), Fo4::new(1.8));
        let ino = run_inorder(&m.config, &arena, &params, false);
        let ooo = run_ooo(&m.config, &arena, &params, false);
        println!(
            "  {:>8.1} {:>7.2} {:>5} {:>5} {:>5} {:>7.3} {:>7.3} {:>7.3} {:>7.3}",
            t,
            1000.0 / m.period_ps(),
            m.latencies.dcache,
            m.latencies.issue_window,
            m.config.depths.front_end(),
            ino.result.ipc(),
            ooo.result.ipc(),
            ino.result.bips(m.period_ps()),
            ooo.result.bips(m.period_ps()),
        );
    }

    println!("\n§4.2: the same benchmark against CRAY-1S-style flat memory:\n");
    let points: Vec<Fo4> = [4.0, 6.0, 8.0, 11.0, 14.0]
        .into_iter()
        .map(Fo4::new)
        .collect();
    let sweep = cray_memory_sweep_with(std::slice::from_ref(&profile), &params, &points);
    for p in &sweep.points {
        let bips = p.outcomes[0].result.bips(p.period_ps);
        println!("  t_useful {:>4.1}: {bips:.3} BIPS", p.t_useful);
    }
    println!("\nPaper: with a flat uncached memory the optimum moves from 6 to ~11 FO4.");
}
