//! The in-process workload `offline_sweep` (the paper's Figure 4 dense
//! sweep), and the yield Monte Carlo pass its traced run probes.
//!
//! Each runs its simulation on a one-thread execution pool: the exec pool
//! of a second thread shares the host's two CPUs with everything else on
//! the machine, and its timings spread far wider than one thread's.

use std::fmt::Debug;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fo4depth_circuit::DeviceParams;
use fo4depth_exec::Pool;
use fo4depth_fo4::Fo4;
use fo4depth_study::cells::{assemble_sweep, run_cell_group, CellSpec};
use fo4depth_study::sweep::{
    auto_lanes, build_arenas, depth_sweep_arenas_batched, standard_points, SweepSpec,
};
use fo4depth_study::yield_sweep::run_yield_plan;
use fo4depth_study::{CoreKind, DepthSweep, SimParams, StructureSet, YieldPlan, YieldSweep};
use fo4depth_util::{fnv1a, Rng64, SplitMix64};
use fo4depth_variation::{Sampler, VariationSpec};
use fo4depth_workload::{profiles, BenchClass, BenchProfile, TraceArena};

use crate::trace::Tracer;
use crate::{peak_rss_mb, secs, stats, write_spans, Report, RunArgs};

/// Output digests the correctness checks compare against, one
/// `key hex` pair per line; regenerate with `perfbench digests` and say
/// why whenever a change moves one.
const DIGESTS: &str = include_str!("../digests.txt");

/// Fewest measured repetitions per run, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Arena set-ups before the first sweep, and again after every sweep
/// repetition; `setup_s` is the median of all of them. One set-up takes
/// about 0.15 s, and the host's speed for it moves between two levels
/// (about 0.12 and 0.17 s) in phases of a second or more, so the
/// set-ups are spread over the whole run rather than taken in one burst
/// that may fall in a single phase.
const SWEEP_SETUPS: usize = 3;

/// Per-stage overhead of every sweep (the paper's 1.8 FO4).
const OVERHEAD: f64 = 1.8;

/// Structure-set tag of the Alpha 21264 latencies, as the cell cache
/// spells it.
const STRUCTURES_TAG: &str = "alpha_21264";

/// The yield probe's benchmark subset: two integer, one vector and one
/// non-vector floating-point program.
const YIELD_BENCHES: [&str; 4] = ["164.gzip", "181.mcf", "171.swim", "179.art"];

/// Monte Carlo dies per grid point of the yield probe: enough to put
/// `Sampler::die` in the profile, few enough to keep the probe to a few
/// seconds.
const YIELD_DIES: u32 = 4;

/// The yield probe draws its variation seed from this many variants, each with
/// a stored digest.
const YIELD_VARIANTS: u64 = 4;

fn stored_digest(key: &str) -> Option<u64> {
    DIGESTS.lines().find_map(|l| {
        let (k, v) = l.split_once(' ')?;
        (k == key).then(|| u64::from_str_radix(v.trim(), 16).ok())?
    })
}

fn digest_of<T: Debug>(value: &T) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.next_range(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// The simulation interval `fo4depth sweep` runs by default; the yield
/// probe's cells run it too, so they differ from the sweep's only in
/// their clocks.
const SWEEP_PARAMS: SimParams = SimParams {
    warmup: 10_000,
    measure: 40_000,
    seed: 1,
};

/// The sweep the workload seed generates: every profile and every
/// standard clock point, in a seeded order. The order changes which lane
/// batch each point lands in and the order cells run in, never an
/// outcome, so one digest covers every seed.
struct SweepInputs {
    profiles: Vec<BenchProfile>,
    points: Vec<Fo4>,
    params: SimParams,
    structures: StructureSet,
}

impl SweepInputs {
    fn from_seed(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut profiles = profiles::all();
        let mut points = standard_points();
        shuffle(&mut profiles, &mut rng);
        shuffle(&mut points, &mut rng);
        Self {
            profiles,
            points,
            params: SWEEP_PARAMS,
            structures: StructureSet::alpha_21264(),
        }
    }

    fn spec(&self, core: CoreKind) -> SweepSpec<'_> {
        SweepSpec {
            core,
            profiles: &self.profiles,
            params: &self.params,
            structures: &self.structures,
            overhead: Fo4::new(OVERHEAD),
            points: &self.points,
            observed: false,
        }
    }

    /// Cells one full two-core sweep simulates.
    fn cells(&self) -> usize {
        CORES.len() * self.profiles.len() * self.points.len()
    }

    /// Instructions one full two-core sweep simulates.
    fn instructions(&self) -> f64 {
        self.cells() as f64 * (self.params.warmup + self.params.measure) as f64
    }
}

const CORES: [CoreKind; 2] = [CoreKind::OutOfOrder, CoreKind::InOrder];

/// One measured operation of `offline_sweep`: the dense sweep on both
/// cores with the lane-batched engine.
fn sweep_both(inputs: &SweepInputs, arenas: &[Arc<TraceArena>], pool: &Pool) -> Vec<DepthSweep> {
    CORES
        .iter()
        .map(|&core| {
            let lanes = auto_lanes(core, inputs.points.len());
            depth_sweep_arenas_batched(&inputs.spec(core), arenas, pool, lanes)
        })
        .collect()
}

/// Points in clock order, outcomes in name order: the form digests and
/// optima are taken over, independent of the seeded input order.
fn canonical(sweeps: &[DepthSweep]) -> Vec<DepthSweep> {
    sweeps
        .iter()
        .map(|s| {
            let mut s = s.clone();
            s.points.sort_by(|a, b| a.t_useful.total_cmp(&b.t_useful));
            for p in &mut s.points {
                p.outcomes.sort_by(|a, b| a.name.cmp(&b.name));
            }
            s
        })
        .collect()
}

/// Checks a two-core sweep against the stored digest and the paper's
/// out-of-order integer optimum of 6 FO4.
fn check_sweeps(report: &mut Report, sweeps: &[DepthSweep]) {
    let canon = canonical(sweeps);
    let digest = digest_of(&canon);
    let expected = stored_digest("offline_sweep");
    report.check(Some(digest) == expected, || {
        format!("offline_sweep digest {digest:016x} != stored {expected:016x?}")
    });
    let (opt, _) = canon[0].class_optimum(BenchClass::Integer);
    report.check(opt == 6.0, || {
        format!("out-of-order integer optimum at {opt} FO4, expected 6")
    });
}

/// Builds the arenas `times_run` times, each build after the previous
/// one is dropped; returns each build's wall time and the last build.
fn setup_arenas(
    times_run: usize,
    profiles: &[BenchProfile],
    params: &SimParams,
    pool: &Pool,
) -> (Vec<f64>, Vec<Arc<TraceArena>>) {
    let mut times = Vec::with_capacity(times_run);
    let mut arenas = Vec::new();
    for _ in 0..times_run {
        drop(std::mem::take(&mut arenas));
        let t = Instant::now();
        arenas = build_arenas(profiles, params, pool);
        times.push(secs(t));
    }
    (times, arenas)
}

/// Repeats `op` until `seconds` have passed and at least [`MIN_REPS`]
/// repetitions ran, returning each repetition's wall time. `between`
/// runs, untimed, after each repetition.
fn repeat(seconds: Duration, mut op: impl FnMut(), mut between: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < MIN_REPS || start.elapsed() < seconds {
        let t = Instant::now();
        op();
        walls.push(secs(t));
        between();
    }
    walls
}

fn end_to_end(report: &mut Report, setups: &[f64], walls: &[f64], inputs: &SweepInputs) {
    report.median("setup_s", setups, "s", "set-ups");
    // The speed is taken over the run's whole sweep time, not as a median
    // of its four to six repetitions: the host's speed moves between two
    // levels in phases of seconds, and a total over the run averages the
    // phases where a median of a few repetitions lands on one of them.
    let total_s: f64 = walls.iter().sum();
    let rates: Vec<f64> = walls.iter().map(|w| 1.0 / w).collect();
    let note = format!(
        "{} repetitions in {total_s:.2} s, IQR of their rates {:.1}% of median",
        walls.len(),
        100.0 * stats::iqr_share(&rates)
    );
    let reps = walls.len() as f64;
    let cells = inputs.cells() as f64;
    report.metric("ops_per_s", cells * reps / total_s, "1/s", &note);
    let minst = inputs.instructions() / 1e6;
    report.metric("sim_minst_per_s", minst * reps / total_s, "Minst/s", &note);
    match peak_rss_mb("self") {
        Some(mb) => report.metric("peak_rss_mb", mb, "MB", "VmHWM of this process"),
        None => report.fail("peak_rss_mb: /proc/self/status unreadable"),
    }
}

/// `offline_sweep`: the paper's Figure 4 dense sweep — both cores, the
/// 15-point standard grid, all 18 profiles — on the lane-batched engine.
pub fn offline_sweep(args: &RunArgs) -> io::Result<Report> {
    let inputs = SweepInputs::from_seed(args.seed);
    let pool = Pool::new(1);
    let (mut setups, arenas) = setup_arenas(SWEEP_SETUPS, &inputs.profiles, &inputs.params, &pool);
    let mut report = Report::default();
    if args.trace {
        traced_offline_sweep(&mut report, &inputs, &arenas, &pool, args)?;
        return Ok(report);
    }
    let mut sweeps = Vec::new();
    let walls = repeat(
        args.seconds,
        || sweeps.push(sweep_both(&inputs, &arenas, &pool)),
        || {
            let (times, _) = setup_arenas(SWEEP_SETUPS, &inputs.profiles, &inputs.params, &pool);
            setups.extend(times);
        },
    );
    for s in &sweeps {
        check_sweeps(&mut report, s);
    }
    end_to_end(&mut report, &setups, &walls, &inputs);
    Ok(report)
}

/// Samples a pool's busy lanes every millisecond while `op` runs;
/// returns `op`'s result and the mean busy fraction.
fn with_busy_sampling<R>(pool: &Pool, op: impl FnOnce() -> R) -> (R, f64) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let (mut busy, mut samples) = (0usize, 0usize);
            while !done.load(Ordering::Relaxed) {
                let s = pool.stats();
                busy += s.busy;
                samples += s.threads;
                std::thread::sleep(Duration::from_millis(1));
            }
            busy as f64 / samples.max(1) as f64
        });
        let out = op();
        done.store(true, Ordering::Relaxed);
        (out, sampler.join().expect("busy sampler"))
    })
}

fn sweep_span(core: CoreKind) -> &'static str {
    match core {
        CoreKind::OutOfOrder => "pipeline.ooo_sweep",
        CoreKind::InOrder => "pipeline.inorder_sweep",
    }
}

fn batched_span(core: CoreKind) -> &'static str {
    match core {
        CoreKind::OutOfOrder => "pipeline.ooo_batched",
        CoreKind::InOrder => "pipeline.inorder_batched",
    }
}

fn scalar_span(core: CoreKind) -> &'static str {
    match core {
        CoreKind::OutOfOrder => "pipeline.ooo_scalar",
        CoreKind::InOrder => "pipeline.inorder_scalar",
    }
}

fn cell(core: CoreKind, profile: &BenchProfile, t: Fo4, params: SimParams) -> CellSpec {
    CellSpec {
        core,
        profile: profile.clone(),
        t_useful: t,
        overhead: Fo4::new(OVERHEAD),
        params,
        observed: false,
        structures_tag: STRUCTURES_TAG,
    }
}

fn traced_offline_sweep(
    report: &mut Report,
    inputs: &SweepInputs,
    arenas: &[Arc<TraceArena>],
    pool: &Pool,
    args: &RunArgs,
) -> io::Result<()> {
    let before = pool.stats();
    let t = Instant::now();
    let (reference, busy_frac) = with_busy_sampling(pool, || sweep_both(inputs, arenas, pool));
    let untraced = secs(t);
    let tasks = pool.stats().tasks_executed - before.tasks_executed;

    let mut tracer = Tracer::new();
    // Set-up work, traced before the window opens.
    let traced_arenas: Vec<Arc<TraceArena>> = inputs
        .profiles
        .iter()
        .map(|p| {
            tracer.span("workload.arena_generate", 0, |_| {
                Arc::new(TraceArena::generate(
                    p.clone(),
                    inputs.params.seed,
                    inputs.params.trace_len(),
                ))
            })
        })
        .collect();
    // The window: the library's lane-batched sweep, one span per core.
    let from = tracer.now_ns();
    let traced: Vec<DepthSweep> = CORES
        .iter()
        .map(|&core| {
            let lanes = auto_lanes(core, inputs.points.len());
            tracer.span(sweep_span(core), 0, |_| {
                depth_sweep_arenas_batched(&inputs.spec(core), &traced_arenas, pool, lanes)
            })
        })
        .collect();
    let to = tracer.now_ns();
    check_sweeps(report, &reference);
    report.check(digest_of(&traced) == digest_of(&reference), || {
        "the traced sweep differs from the untraced one".to_string()
    });

    // Probes after the window, per core: one cell per benchmark at the
    // 6 FO4 point through the scalar `CellSpec::run`; one lane batch per
    // benchmark (the sweep's first `lanes` points) through
    // `run_cell_group`; and `assemble_sweep` over the untraced sweep's
    // outcomes, which must give that sweep back.
    let structures = &inputs.structures;
    let benches = inputs.profiles.len();
    for (core, sweep) in CORES.into_iter().zip(&reference) {
        let lanes = auto_lanes(core, inputs.points.len());
        for (bi, profile) in inputs.profiles.iter().enumerate() {
            let c = cell(core, profile, Fo4::new(6.0), inputs.params);
            std::hint::black_box(
                tracer.span(scalar_span(core), 0, |_| c.run(structures, &arenas[bi])),
            );
            let group: Vec<CellSpec> = inputs.points[..lanes]
                .iter()
                .map(|&t| cell(core, profile, t, inputs.params))
                .collect();
            std::hint::black_box(tracer.span(batched_span(core), 0, |_| {
                run_cell_group(&group, structures, &arenas[bi])
            }));
        }
        let outcomes = sweep
            .points
            .iter()
            .flat_map(|p| p.outcomes.iter().cloned())
            .collect();
        let assembled = tracer.span("study.assemble_sweep", 0, |_| {
            assemble_sweep(
                core,
                structures,
                Fo4::new(OVERHEAD),
                &inputs.points,
                benches,
                outcomes,
            )
        });
        report.check(digest_of(&assembled) == digest_of(sweep), || {
            format!("assemble_sweep does not reproduce the {core:?} sweep")
        });
    }

    yield_probe(report, &mut tracer, args.seed, inputs, arenas, pool);

    report.median(
        "workload.arena_gen_ms",
        &tracer.durations_ms("workload.arena_generate"),
        "ms",
        "TraceArena::generate calls",
    );
    let per_cell = (inputs.params.warmup + inputs.params.measure) as f64;
    let benches = benches as f64;
    for core in CORES {
        let lanes = auto_lanes(core, inputs.points.len());
        let (scalar_name, batched_name) = match core {
            CoreKind::OutOfOrder => (
                "pipeline.ooo_ns_per_inst",
                "pipeline.ooo_batched_ns_per_inst",
            ),
            CoreKind::InOrder => (
                "pipeline.inorder_ns_per_inst",
                "pipeline.inorder_batched_ns_per_inst",
            ),
        };
        report.metric(
            scalar_name,
            tracer.total_ms(scalar_span(core)) * 1e6 / (benches * per_cell),
            "ns",
            "CellSpec::run, one cell per benchmark",
        );
        report.metric(
            batched_name,
            tracer.total_ms(batched_span(core)) * 1e6 / (benches * lanes as f64 * per_cell),
            "ns",
            format!("run_cell_group, one {lanes}-lane batch per benchmark"),
        );
    }
    let assemble_ms = tracer.total_ms("study.assemble_sweep");
    report.metric(
        "study.assemble_ms",
        assemble_ms,
        "ms",
        "assemble_sweep, both cores",
    );
    report.metric(
        "exec.tasks",
        tasks as f64,
        "count",
        "Pool::stats tasks, one untraced sweep",
    );
    report.metric(
        "exec.busy_frac",
        busy_frac,
        "ratio",
        "busy lanes / lanes, sampled every 1 ms",
    );
    report.layers(&tracer, from, to, untraced);
    write_spans(&tracer, args)
}

/// The yield probe's inputs: the workload seed picks one of
/// [`YIELD_VARIANTS`] variation seeds.
struct YieldInputs {
    variant: u64,
    profiles: Vec<BenchProfile>,
    points: Vec<Fo4>,
    structures: StructureSet,
    variation: VariationSpec,
}

impl YieldInputs {
    fn from_seed(seed: u64) -> Self {
        let variant = seed % YIELD_VARIANTS;
        let mut variation = VariationSpec::new(variant + 1);
        variation.samples = YIELD_DIES;
        Self {
            variant,
            profiles: YIELD_BENCHES
                .iter()
                .map(|n| profiles::by_name(n).expect("known benchmark"))
                .collect(),
            points: standard_points(),
            structures: StructureSet::alpha_21264(),
            variation,
        }
    }

    fn spec(&self) -> SweepSpec<'_> {
        SweepSpec {
            core: CoreKind::OutOfOrder,
            profiles: &self.profiles,
            params: &SWEEP_PARAMS,
            structures: &self.structures,
            overhead: Fo4::new(OVERHEAD),
            points: &self.points,
            observed: false,
        }
    }

    fn lanes(&self) -> usize {
        auto_lanes(CoreKind::OutOfOrder, self.points.len())
    }

    fn plan(&self, pool: &Pool) -> YieldPlan<'_> {
        YieldPlan::build(self.spec(), self.variation, pool).expect("the default variation is valid")
    }
}

/// One yield pass through the library: plan the dies, simulate every
/// nominal and sample cell, assemble.
fn yield_once(inputs: &YieldInputs, arenas: &[Arc<TraceArena>], pool: &Pool) -> YieldSweep {
    run_yield_plan(&inputs.plan(pool), arenas, pool, Some(inputs.lanes()))
}

/// Checks a yield sweep against its variant's stored digest.
fn check_yield(report: &mut Report, inputs: &YieldInputs, sweep: &YieldSweep) {
    let key = format!("yield.v{}", inputs.variant);
    let digest = digest_of(sweep);
    let expected = stored_digest(&key);
    report.check(Some(digest) == expected, || {
        format!("{key} digest {digest:016x} != stored {expected:016x?}")
    });
}

/// The traced run's yield Monte Carlo probe: one yield pass (the
/// seed picks its variant) over the sweep's own arenas, with
/// `YieldPlan::build` and `run_yield_plan` in spans, then each die
/// re-measured alone. Its output is checked like any pass.
fn yield_probe(
    report: &mut Report,
    tracer: &mut Tracer,
    seed: u64,
    sweep: &SweepInputs,
    arenas: &[Arc<TraceArena>],
    pool: &Pool,
) {
    let inputs = YieldInputs::from_seed(seed);
    // Same seed, same interval: the sweep's arenas serve the yield cells.
    let yield_arenas: Vec<Arc<TraceArena>> = inputs
        .profiles
        .iter()
        .map(|p| {
            let i = sweep
                .profiles
                .iter()
                .position(|q| q.name == p.name)
                .expect("the sweep covers every profile");
            Arc::clone(&arenas[i])
        })
        .collect();
    let plan = tracer.span("variation.plan_build", 0, |_| inputs.plan(pool));
    let result = tracer.span("study.run_yield_plan", 0, |_| {
        run_yield_plan(&plan, &yield_arenas, pool, Some(inputs.lanes()))
    });
    check_yield(report, &inputs, &result);

    let sampler = Sampler::new(inputs.variation, DeviceParams::at_100nm(), OVERHEAD);
    for s in 0..u64::from(YIELD_DIES) {
        let die = tracer.span("variation.die", 0, |_| sampler.die(s));
        report.check(die == plan.dies()[s as usize], || {
            format!("Sampler::die({s}) differs from the plan's die")
        });
    }
    report.median(
        "variation.die_ms",
        &tracer.durations_ms("variation.die"),
        "ms",
        "Sampler::die calls",
    );
    let build_ms = tracer.total_ms("variation.plan_build");
    let run_ms = tracer.total_ms("study.run_yield_plan");
    report.metric(
        "variation.plan_share",
        build_ms / (build_ms + run_ms),
        "ratio",
        format!("YieldPlan::build {build_ms:.1} ms / (build + run_yield_plan {run_ms:.1} ms)"),
    );
}

/// The `digests.txt` content for the current code: the dense sweep's and
/// every yield variant's output digest.
pub fn compute_digests() -> String {
    let pool = Pool::new(1);
    let inputs = SweepInputs::from_seed(0);
    let arenas = build_arenas(&inputs.profiles, &inputs.params, &pool);
    let mut out = format!(
        "offline_sweep {:016x}\n",
        digest_of(&canonical(&sweep_both(&inputs, &arenas, &pool)))
    );
    for variant in 0..YIELD_VARIANTS {
        let inputs = YieldInputs::from_seed(variant);
        let arenas = build_arenas(&inputs.profiles, &SWEEP_PARAMS, &pool);
        let sweep = yield_once(&inputs, &arenas, &pool);
        out.push_str(&format!("yield.v{variant} {:016x}\n", digest_of(&sweep)));
    }
    out
}
