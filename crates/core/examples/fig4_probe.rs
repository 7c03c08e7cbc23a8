use fo4depth_fo4::Fo4;
use fo4depth_study::latency::StructureSet;
use fo4depth_study::sim::SimParams;
use fo4depth_study::sweep::{depth_sweep_spec, standard_points, CoreKind, SweepSpec};
use fo4depth_workload::{profiles, BenchClass};

fn main() {
    let params = SimParams {
        warmup: 10_000,
        measure: 40_000,
        seed: 1,
    };
    for (label, ovh) in [("4a (no overhead)", 0.0), ("4b (1.8 FO4)", 1.8)] {
        let spec = SweepSpec {
            core: CoreKind::InOrder,
            profiles: &profiles::all(),
            params: &params,
            structures: &StructureSet::alpha_21264(),
            overhead: Fo4::new(ovh),
            points: &standard_points(),
            observed: false,
        };
        let sweep = depth_sweep_spec(&spec, fo4depth_exec::global());
        println!("-- Figure {label} --");
        for class in [
            BenchClass::Integer,
            BenchClass::VectorFp,
            BenchClass::NonVectorFp,
        ] {
            let s = sweep.series(Some(class));
            print!("{:14}", class.label());
            for (t, b) in &s {
                print!(" {t:>2.0}:{b:>5.2}");
            }
            let (opt, _) = sweep.class_optimum(class);
            println!("  OPT {opt}");
        }
    }
}
