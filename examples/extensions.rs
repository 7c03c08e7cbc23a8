//! Beyond the paper's tables: the §6 scheduler comparison, the §7
//! wire-delay future work, and ablations of the study's modelling choices.
//!
//! ```text
//! cargo run --release --example extensions
//! ```

use fo4depth::study::ablation::{
    cluster_ablation, memory_convention_ablation, mshr_ablation, predictor_ablation,
    scheduler_comparison,
};
use fo4depth::study::latency::StructureSet;
use fo4depth::study::power::{optimum_by, power_sweep, EnergyModel};
use fo4depth::study::projection::{pipelining_headroom, project, ProjectionInputs};
use fo4depth::study::sim::SimParams;
use fo4depth::study::sweep::{depth_sweep_spec, CoreKind, SweepSpec};
use fo4depth::study::wires::wire_study;
use fo4depth::workload::{profiles, BenchClass};
use fo4depth_fo4::Fo4;

fn main() {
    let params = SimParams {
        warmup: 8_000,
        measure: 30_000,
        seed: 1,
    };
    let int_profiles = profiles::integer();
    let subset: Vec<_> = ["164.gzip", "181.mcf", "197.parser", "171.swim"]
        .iter()
        .map(|n| profiles::by_name(n).expect("known"))
        .collect();

    println!("== §6: pipelined-scheduler designs (Alpha configuration) ==\n");
    for r in scheduler_comparison(&int_profiles, &params) {
        println!(
            "  {:22} IPC {:.3}  ({:+.1}% vs ideal)",
            r.design.label(),
            r.ipc,
            (r.relative - 1.0) * 100.0
        );
    }

    println!("\n== §7: wire-delay study (front-end transport budget) ==\n");
    let points: Vec<Fo4> = [3.0, 4.0, 6.0, 9.0, 12.0]
        .into_iter()
        .map(Fo4::new)
        .collect();
    for c in wire_study(&subset, &params, &points, &[0.0, 10.0, 20.0, 40.0]) {
        let (opt, bips) = c.sweep.class_optimum(BenchClass::Integer);
        println!(
            "  {:>4.0} mm of global wire: integer optimum {opt:>4.1} FO4 ({bips:.3} BIPS)",
            c.transport_mm
        );
    }

    println!("\n== ablation: DRAM scaling convention ==\n");
    let ab = memory_convention_ablation(&subset, &params, &points);
    let (cc, _) = ab.constant_cycles.class_optimum(BenchClass::Integer);
    let (at, _) = ab.absolute_time.class_optimum(BenchClass::Integer);
    println!("  memory constant in cycles (study convention): optimum {cc} FO4");
    println!("  memory constant in absolute time:             optimum {at} FO4");
    println!("  (the load-bearing modelling choice discussed in DESIGN.md §4)");

    println!("\n== ablation: miss-level parallelism (MSHRs) ==\n");
    for p in mshr_ablation(&subset, &params, &[1, 2, 4, 8, 16, 0]) {
        let label = if p.mshr_limit == 0 {
            "unbounded".to_string()
        } else {
            format!("{:>2} MSHRs", p.mshr_limit)
        };
        println!("  {label:>10}: IPC {:.3}", p.ipc);
    }

    println!("\n== ablation: branch predictor designs ==\n");
    for p in predictor_ablation(&int_profiles, &params) {
        println!(
            "  {:22} IPC {:.3}  mispredict {:.1}%",
            p.label,
            p.ipc,
            p.mispredict_rate * 100.0
        );
    }

    println!("\n== ablation: 21264-style clustered bypass ==\n");
    for p in cluster_ablation(&subset, &params, &[0, 1, 2]) {
        println!("  cross-cluster +{} cycle: IPC {:.3}", p.penalty, p.ipc);
    }

    println!("\n== extension: power-aware pipeline depth ==\n");
    let pw_points: Vec<Fo4> = [2.0, 4.0, 6.0, 9.0, 12.0, 16.0]
        .into_iter()
        .map(Fo4::new)
        .collect();
    let pw = power_sweep(&subset, &params, &pw_points, &EnergyModel::alpha_100nm());
    println!("  t_useful   BIPS    watts   nJ/instr  BIPS/W");
    for p in &pw {
        println!(
            "  {:>8.1} {:>6.2} {:>8.2} {:>9.2} {:>7.2}",
            p.t_useful, p.bips, p.watts, p.nj_per_instruction, p.bips_per_watt
        );
    }
    println!(
        "  optima: BIPS {} | BIPS/W {} | BIPS^3/W {} FO4 — efficiency prefers shallower pipes",
        optimum_by(&pw, |p| p.bips),
        optimum_by(&pw, |p| p.bips_per_watt),
        optimum_by(&pw, |p| p.bips3_per_watt)
    );

    println!("\n== §7 projection: where must performance come from? ==\n");
    let spec = SweepSpec {
        core: CoreKind::OutOfOrder,
        profiles: &int_profiles,
        params: &params,
        structures: &StructureSet::alpha_21264(),
        overhead: Fo4::new(1.8),
        points: &pw_points,
        observed: false,
    };
    let sweep = depth_sweep_spec(&spec, fo4depth::exec::global());
    let headroom = pipelining_headroom(&sweep, BenchClass::Integer);
    let proj = project(&ProjectionInputs {
        pipelining_headroom: headroom,
        ..ProjectionInputs::isca2002()
    });
    println!("  measured pipelining headroom: {headroom:.2}x (paper: at most ~2x)");
    println!(
        "  to sustain 55%/yr: concurrency must grow {:.0}%/yr to {:.0} sustained IPC in 15 years",
        (proj.annual_ipc_growth - 1.0) * 100.0,
        proj.required_ipc
    );
    println!("  (paper: 33%/yr, ~50 IPC)");
}
