//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each [`ExperimentId`] maps to one table/figure (or prose result); the
//! driver prints the measured series next to the paper's reported outcome
//! so EXPERIMENTS.md can be filled from a single run.

use fo4depth_fo4::{intel_history, Fo4};
use fo4depth_study::capacity::capacity_study_with;
use fo4depth_study::cray::{cray_memory_sweep_with, kunkel_smith_equivalence};
use fo4depth_study::experiments::{registry, PaperHeadlines};
use fo4depth_study::latency::{table3, StructureSet};
use fo4depth_study::loops::critical_loops_with;
use fo4depth_study::overhead::overhead_sensitivity_with;
use fo4depth_study::render;
use fo4depth_study::segmented::{select_eval, window_depth_sweep};
use fo4depth_study::sim::SimParams;
use fo4depth_study::sweep::{depth_sweep_spec, standard_points, CoreKind, DepthSweep, SweepSpec};
use fo4depth_workload::{profiles, BenchClass};

/// The experiments the harness can regenerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // variants mirror the paper's table/figure numbers
pub enum ExperimentId {
    Table1,
    Figure1,
    Table2,
    Table3,
    Figure4a,
    Figure4b,
    Figure5,
    Figure6,
    Figure7,
    Figure8,
    Figure11,
    Figure12,
    Cray1s,
    AppendixA,
}

impl ExperimentId {
    /// Every experiment, in paper order.
    #[must_use]
    pub fn all() -> Vec<ExperimentId> {
        use ExperimentId::*;
        vec![
            Table1, Figure1, Table2, Table3, Figure4a, Figure4b, Figure5, Figure6, Figure7,
            Figure8, Figure11, Figure12, Cray1s, AppendixA,
        ]
    }

    /// Parses a CLI flag like `--figure5` or `--table3`.
    #[must_use]
    pub fn from_flag(flag: &str) -> Option<ExperimentId> {
        use ExperimentId::*;
        Some(
            match flag.trim_start_matches("--").to_lowercase().as_str() {
                "table1" => Table1,
                "figure1" => Figure1,
                "table2" => Table2,
                "table3" => Table3,
                "figure4a" => Figure4a,
                "figure4b" => Figure4b,
                "figure5" => Figure5,
                "figure6" => Figure6,
                "figure7" => Figure7,
                "figure8" => Figure8,
                "figure11" => Figure11,
                "figure12" => Figure12,
                "cray1s" => Cray1s,
                "appendixa" => AppendixA,
                _ => return None,
            },
        )
    }

    /// The registry entry describing this experiment.
    #[must_use]
    pub fn registry_id(self) -> &'static str {
        use ExperimentId::*;
        match self {
            Table1 => "Table 1",
            Figure1 => "Figure 1",
            Table2 => "Table 2",
            Table3 => "Table 3",
            Figure4a => "Figure 4a",
            Figure4b => "Figure 4b",
            Figure5 => "Figure 5",
            Figure6 => "Figure 6",
            Figure7 => "Figure 7",
            Figure8 => "Figure 8",
            Figure11 => "Figure 11",
            Figure12 => "Figure 12 / §5.2",
            Cray1s => "§4.2",
            AppendixA => "Appendix A",
        }
    }
}

/// Instruction budgets for a regeneration run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Simulation parameters for the sweeps.
    pub params: SimParams,
    /// Use a reduced benchmark subset for the expensive experiments
    /// (Figure 7's capacity search).
    pub quick_capacity: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            params: SimParams {
                warmup: 10_000,
                measure: 40_000,
                seed: 1,
            },
            quick_capacity: true,
        }
    }
}

/// The depth sweep of every benchmark over the standard clock points.
fn standard_sweep(core: CoreKind, overhead: f64, params: &SimParams) -> DepthSweep {
    let spec = SweepSpec {
        core,
        profiles: &profiles::all(),
        params,
        structures: &StructureSet::alpha_21264(),
        overhead: Fo4::new(overhead),
        points: &standard_points(),
        observed: false,
    };
    depth_sweep_spec(&spec, fo4depth_exec::global())
}

fn print_class_series(sweep: &DepthSweep) {
    println!("{}", render::sweep_table(sweep));
    for class in [
        BenchClass::Integer,
        BenchClass::VectorFp,
        BenchClass::NonVectorFp,
    ] {
        if sweep.series(Some(class)).is_empty() {
            continue;
        }
        let (opt, bips) = sweep.class_optimum(class);
        println!(
            "  {:14} optimum {opt:>4.1} FO4 ({bips:.3} BIPS)",
            class.label()
        );
    }
}

/// Runs one experiment, printing its regenerated table/figure and the
/// paper's reported outcome.
pub fn run_experiment(id: ExperimentId, cfg: &RunConfig) {
    let reg = registry();
    let entry = reg
        .iter()
        .find(|e| e.id == id.registry_id())
        .expect("registered experiment");
    println!("==== {} — {} ====", entry.id, entry.title);
    println!("paper: {}\n", entry.paper);

    let params = &cfg.params;
    let headlines = PaperHeadlines::isca2002();
    match id {
        ExperimentId::Table1 => {
            let p = fo4depth_circuit::DeviceParams::at_100nm();
            let fo4 = fo4depth_circuit::fo4meas::measure_fo4(&p);
            let latch = fo4depth_circuit::latch::measure_latch_overhead(&p);
            println!("measured FO4: {:.1} ps", fo4.picoseconds());
            println!(
                "latch overhead: {:.1} ps = {:.2} FO4 (paper 1.0)",
                latch.overhead_ps,
                latch.overhead_ps / fo4.picoseconds()
            );
            println!("skew (adopted from Kurd et al.): 0.3 FO4");
            println!("jitter (adopted from Kurd et al.): 0.5 FO4");
            println!(
                "total overhead: {:.2} FO4 (paper 1.8)",
                latch.overhead_ps / fo4.picoseconds() + 0.8
            );
        }
        ExperimentId::Figure1 => {
            println!(
                "{:>6} {:>8} {:>10} {:>12}",
                "year", "tech", "MHz", "period FO4"
            );
            for d in intel_history() {
                println!(
                    "{:>6} {:>8} {:>10.0} {:>12.1}",
                    d.year,
                    d.node.to_string(),
                    d.frequency_mhz,
                    d.period_fo4().get()
                );
            }
            println!("optimal line: 7.8 FO4 (6 useful + 1.8 overhead)");
        }
        ExperimentId::Table2 => {
            for class in [
                BenchClass::Integer,
                BenchClass::VectorFp,
                BenchClass::NonVectorFp,
            ] {
                let names: Vec<String> = profiles::all()
                    .into_iter()
                    .filter(|p| p.class == class)
                    .map(|p| p.name)
                    .collect();
                println!(
                    "{:14} ({}): {}",
                    class.label(),
                    names.len(),
                    names.join(", ")
                );
            }
            // Measured stream statistics — the calibration behind the
            // stand-ins (generator-level; see `fo4depth validate` for the
            // simulator-level counterpart).
            println!(
                "\n{:12} {:>6} {:>7} {:>7} {:>8} {:>8}",
                "benchmark", "loads", "branch", "fp ops", "dep dist", "taken"
            );
            for p in profiles::all() {
                let stats = fo4depth_workload::TraceStats::measure(
                    fo4depth_workload::TraceGenerator::new(p.clone(), 1).take(30_000),
                );
                let frac = |c| stats.fraction(c);
                use fo4depth_isa::OpClass;
                let fp = frac(OpClass::FpAdd)
                    + frac(OpClass::FpMult)
                    + frac(OpClass::FpDiv)
                    + frac(OpClass::FpSqrt);
                println!(
                    "{:12} {:>6.3} {:>7.3} {:>7.3} {:>8.2} {:>8.3}",
                    p.name,
                    frac(OpClass::Load),
                    frac(OpClass::Branch),
                    fp,
                    stats.mean_dep_distance(),
                    stats.taken_rate()
                );
            }
        }
        ExperimentId::Table3 => {
            println!("{}", render::table3(&table3(&StructureSet::alpha_21264())));
        }
        ExperimentId::Figure4a => {
            let sweep = standard_sweep(CoreKind::InOrder, 0.0, params);
            print_class_series(&sweep);
        }
        ExperimentId::Figure4b => {
            let sweep = standard_sweep(CoreKind::InOrder, 1.8, params);
            print_class_series(&sweep);
        }
        ExperimentId::Figure5 => {
            let sweep = standard_sweep(CoreKind::OutOfOrder, 1.8, params);
            print_class_series(&sweep);
            println!(
                "\npaper optima: integer {}, vector {}, non-vector {} FO4",
                headlines.ooo_integer_optimum,
                headlines.ooo_vector_optimum,
                headlines.ooo_non_vector_optimum
            );
        }
        ExperimentId::Figure6 => {
            let curves = overhead_sensitivity_with(
                &profiles::integer(),
                params,
                &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                &standard_points(),
            );
            println!("{:>9} {:>10} {:>12}", "overhead", "optimum", "peak BIPS");
            for c in &curves {
                let (opt, bips) = c.sweep.class_optimum(BenchClass::Integer);
                println!("{:>9.1} {:>10.1} {:>12.3}", c.overhead, opt, bips);
            }
        }
        ExperimentId::Figure7 => {
            let profs = if cfg.quick_capacity {
                ["164.gzip", "181.mcf", "300.twolf", "171.swim", "179.art"]
                    .iter()
                    .map(|n| profiles::by_name(n).expect("known"))
                    .collect()
            } else {
                profiles::all()
            };
            let points: Vec<Fo4> = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0]
                .into_iter()
                .map(Fo4::new)
                .collect();
            let study = capacity_study_with(&profs, params, &points);
            println!(
                "{:>9} {:>10} {:>11}  choice",
                "t_useful", "base", "optimized"
            );
            let base = study.base.series(None);
            let opt = study.optimized.series(None);
            for (i, ((t, b), (_, o))) in base.iter().zip(&opt).enumerate() {
                let c = &study.choices[i];
                println!(
                    "{t:>9.1} {b:>10.3} {o:>11.3}  DL1 {} KB, L2 {} KB, IW {}, pred {}",
                    c.dcache / 1024,
                    c.l2 / 1024,
                    c.window,
                    c.predictor
                );
            }
            println!(
                "\nmean gain {:+.1}% (paper ~{:+.0}%); optimum {}",
                study.mean_gain() * 100.0,
                headlines.capacity_gain * 100.0,
                study.optimized.optimum(None).0
            );
        }
        ExperimentId::Figure8 => {
            let curves =
                critical_loops_with(&profiles::integer(), params, &[0, 2, 4, 6, 8, 10, 12, 15]);
            print!("{:>16}", "extra cycles");
            for (x, _) in &curves[0].relative_ipc {
                print!(" {x:>6}");
            }
            println!();
            for c in &curves {
                print!("{:>16}", c.which.label());
                for (_, rel) in &c.relative_ipc {
                    print!(" {rel:>6.3}");
                }
                println!();
            }
        }
        ExperimentId::Figure11 => {
            let curves =
                window_depth_sweep(&profiles::all(), params, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
            print!("{:>14}", "stages");
            for (s, _) in &curves[0].relative_ipc {
                print!(" {s:>6}");
            }
            println!();
            for c in &curves {
                print!("{:>14}", c.class.label());
                for (_, rel) in &c.relative_ipc {
                    print!(" {rel:>6.3}");
                }
                println!();
            }
            println!(
                "\npaper at 10 stages: integer -{:.0}%, FP -{:.0}%",
                headlines.segmented_depth10_int_loss * 100.0,
                headlines.segmented_depth10_fp_loss * 100.0
            );
        }
        ExperimentId::Figure12 => {
            for e in select_eval(&profiles::all(), params) {
                println!(
                    "{:14} conventional {:.3}  segmented {:.3}  loss {:+.1}%",
                    e.class.label(),
                    e.conventional_ipc,
                    e.segmented_ipc,
                    e.loss() * 100.0
                );
            }
            println!(
                "\npaper: integer -{:.0}%, FP -{:.0}%",
                headlines.preselect_int_loss * 100.0,
                headlines.preselect_fp_loss * 100.0
            );
        }
        ExperimentId::Cray1s => {
            let sweep = cray_memory_sweep_with(&profiles::integer(), params, &standard_points());
            print_class_series(&sweep);
            println!(
                "\npaper: integer optimum moves to ~{} FO4",
                headlines.cray_memory_optimum
            );
        }
        ExperimentId::AppendixA => {
            let e = kunkel_smith_equivalence();
            println!(
                "1 Cray ECL gate = {:.2} FO4 (paper {})",
                e.gate_fo4, headlines.ecl_gate_fo4
            );
            println!(
                "Kunkel-Smith scalar/vector optima: {:.1} / {:.1} FO4 (paper 10.9 / 5.4)",
                e.scalar_optimum_fo4, e.vector_optimum_fo4
            );
        }
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_has_a_flag_and_registry_entry() {
        let reg = registry();
        for id in ExperimentId::all() {
            assert!(
                reg.iter().any(|e| e.id == id.registry_id()),
                "{id:?} missing from registry"
            );
        }
        assert_eq!(
            ExperimentId::from_flag("--figure5"),
            Some(ExperimentId::Figure5)
        );
        assert_eq!(
            ExperimentId::from_flag("table3"),
            Some(ExperimentId::Table3)
        );
        assert_eq!(ExperimentId::from_flag("--nope"), None);
    }

    #[test]
    fn cheap_experiments_run() {
        let cfg = RunConfig {
            params: SimParams {
                warmup: 500,
                measure: 1_500,
                seed: 1,
            },
            quick_capacity: true,
        };
        // The non-simulation experiments must run quickly and not panic.
        run_experiment(ExperimentId::Figure1, &cfg);
        run_experiment(ExperimentId::Table2, &cfg);
        run_experiment(ExperimentId::Table3, &cfg);
        run_experiment(ExperimentId::AppendixA, &cfg);
    }
}
