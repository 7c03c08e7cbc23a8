//! Simulation driving and aggregation: run benchmark sets through a core
//! configuration and summarize per paper conventions (harmonic-mean BIPS
//! per benchmark class).
//!
//! Runs are driven from materialized [`TraceArena`]s: the instruction
//! stream for each `(profile, seed)` is generated once (see
//! [`arenas_for`]) and replayed by cursor in every simulation that needs
//! it, so sweeping many machine configurations over the same benchmark
//! set pays the trace-synthesis cost once instead of per cell.

use std::sync::Arc;

use fo4depth_isa::Instruction;
use fo4depth_pipeline::{
    CoreConfig, Counters, FetchPlan, InOrderCore, OutOfOrderCore, SimResult, WindowConfig,
};
use fo4depth_uarch::cache::Hierarchy;
use fo4depth_uarch::window::WindowModel;
use fo4depth_util::harmonic_mean;
use fo4depth_workload::{BenchClass, BenchProfile, SharedCursor, SharedTrace, TraceArena};

/// Committed instructions per lane-advance step of a batched run. Lanes of
/// a batch stay within one chunk of each other in trace position, so the
/// shared arena's columns are hot across lanes.
const LANE_CHUNK: u64 = 8192;

/// Instruction counts and seeding for one simulation.
///
/// The paper skips 500 M instructions and measures 500 M; synthetic traces
/// have no start-up phase of that scale, so the defaults here warm the
/// predictor/caches and measure a window large enough for stable means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimParams {
    /// Instructions run before measurement starts.
    pub warmup: u64,
    /// Instructions measured.
    pub measure: u64,
    /// Trace seed.
    pub seed: u64,
}

impl Default for SimParams {
    fn default() -> Self {
        Self {
            warmup: 20_000,
            measure: 80_000,
            seed: 1,
        }
    }
}

impl SimParams {
    /// Short runs for unit/integration tests.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            warmup: 8_000,
            measure: 30_000,
            seed: 1,
        }
    }

    /// Long runs for the benchmark harness.
    #[must_use]
    pub fn thorough() -> Self {
        Self {
            warmup: 50_000,
            measure: 400_000,
            seed: 1,
        }
    }

    /// Number of instructions a [`TraceArena`] should materialize to cover
    /// a run with these parameters: warm-up plus measurement plus the
    /// deepest plausible fetch-ahead (fetched but never committed
    /// instructions — bounded by the fetch queue, window, and ROB, all far
    /// below this slack). A cursor that outruns the arena anyway falls
    /// back to streaming, so this is a performance bound, not a
    /// correctness one.
    #[must_use]
    pub fn trace_len(&self) -> usize {
        (self.warmup + self.measure) as usize + 4_096
    }
}

/// Materializes one [`TraceArena`] per profile at these parameters'
/// seed and length, in parallel on the shared execution pool. The result
/// is positionally aligned with `profiles` and deterministic at any pool
/// size.
#[must_use]
pub fn arenas_for(profiles: &[BenchProfile], params: &SimParams) -> Vec<Arc<TraceArena>> {
    arenas_for_on(profiles, params, fo4depth_exec::global())
}

/// [`arenas_for`] on an explicit pool.
#[must_use]
pub fn arenas_for_on(
    profiles: &[BenchProfile],
    params: &SimParams,
    pool: &fo4depth_exec::Pool,
) -> Vec<Arc<TraceArena>> {
    if profiles.is_empty() {
        return Vec::new();
    }
    let len = params.trace_len();
    pool.map(profiles, |p| {
        Arc::new(TraceArena::generate(p.clone(), params.seed, len))
    })
}

/// One benchmark's outcome at one machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchOutcome {
    /// Benchmark name.
    pub name: String,
    /// Benchmark class.
    pub class: BenchClass,
    /// Raw counters of the measured interval.
    pub result: SimResult,
    /// Per-stage stall attribution, when the run was observed.
    pub counters: Option<Counters>,
}

/// Runs one materialized trace on the out-of-order core. With `observe`,
/// stall-attribution counters are collected over the measured interval;
/// observation is read-only, so `result` is the same either way.
#[must_use]
pub fn run_ooo(
    cfg: &CoreConfig,
    trace: &Arc<TraceArena>,
    params: &SimParams,
    observe: bool,
) -> BenchOutcome {
    if matches!(cfg.window, WindowConfig::Conventional { .. }) {
        let core = OutOfOrderCore::new_conventional(cfg.clone(), trace.cursor());
        measure_ooo(core, trace, params, observe)
    } else {
        let core = OutOfOrderCore::new(cfg.clone(), trace.cursor());
        measure_ooo(core, trace, params, observe)
    }
}

fn measure_ooo<I, W>(
    mut core: OutOfOrderCore<I, W>,
    trace: &Arc<TraceArena>,
    params: &SimParams,
    observe: bool,
) -> BenchOutcome
where
    I: Iterator<Item = Instruction>,
    W: WindowModel,
{
    core.prewarm(trace.prewarm_addresses().iter().copied());
    core.run(params.warmup);
    if observe {
        core.enable_counters();
    }
    let result = core.run(params.measure);
    outcome(trace, result, core.take_counters())
}

/// Runs one materialized trace on the in-order core; `observe` as for
/// [`run_ooo`].
#[must_use]
pub fn run_inorder(
    cfg: &CoreConfig,
    trace: &Arc<TraceArena>,
    params: &SimParams,
    observe: bool,
) -> BenchOutcome {
    let mut core = InOrderCore::new(cfg.clone(), trace.cursor());
    core.prewarm(trace.prewarm_addresses().iter().copied());
    core.run(params.warmup);
    if observe {
        core.enable_counters();
    }
    let result = core.run(params.measure);
    outcome(trace, result, core.take_counters())
}

fn outcome(trace: &TraceArena, result: SimResult, counters: Option<Counters>) -> BenchOutcome {
    let profile = trace.profile();
    BenchOutcome {
        name: profile.name.clone(),
        class: profile.class,
        result,
        counters,
    }
}

/// Runs one batch of out-of-order lanes over a shared trace arena in
/// chunked lockstep: one [`FetchPlan`] is built for the arena's
/// materialized prefix and replayed by every lane whose fetch geometry
/// matches it (under [`crate::ScaledMachine`] scaling, all of them — the
/// predictor and BTB do not scale with the clock), and the lanes advance
/// through the trace within [`LANE_CHUNK`] committed instructions of each
/// other, so the arena's 21-B/inst records are decoded while hot for all
/// lanes of the batch.
///
/// `configs[i]` drives lane `i`; outcomes come back positionally. Each
/// lane's outcome is bit-identical to [`run_ooo`] on the same inputs (the
/// differential harness in `tests/batched_equivalence.rs` enforces this
/// byte-for-byte).
#[must_use]
pub fn run_ooo_batched(
    configs: &[&CoreConfig],
    trace: &Arc<TraceArena>,
    params: &SimParams,
    observe: bool,
) -> Vec<BenchOutcome> {
    let conventional = configs
        .iter()
        .all(|c| matches!(c.window, WindowConfig::Conventional { .. }));
    if conventional {
        // The hot configuration: monomorphize the lanes over the concrete
        // window so the per-cycle window probes inline.
        run_batched_with(configs, trace, params, observe, |cfg, shared| {
            OutOfOrderCore::new_conventional(cfg.clone(), shared.cursor())
        })
    } else {
        run_batched_with(configs, trace, params, observe, |cfg, shared| {
            OutOfOrderCore::new(cfg.clone(), shared.cursor())
        })
    }
}

/// Advances every lane through `total` committed instructions in
/// [`LANE_CHUNK`]-sized steps, each step aimed at an *absolute* commit
/// target. A core's run loop stops at the first cycle where the committed
/// count reaches its target, which can overshoot by a few instructions
/// (one commit burst); chaining *relative* `run(step)` calls would
/// accumulate that overshoot into a different final target than the scalar
/// path's single `run(total)`. Against absolute targets the final chunk's
/// stop condition is `committed >= base + total` — exactly the scalar
/// call's — and intermediate pauses are invisible because a core's
/// cycle-by-cycle evolution does not depend on its run target.
fn lockstep<I, W>(lanes: &mut [OutOfOrderCore<I, W>], total: u64)
where
    I: Iterator<Item = Instruction>,
    W: WindowModel,
{
    let bases: Vec<u64> = lanes.iter().map(|l| l.snapshot().instructions).collect();
    let mut done = 0;
    while done < total {
        let step = LANE_CHUNK.min(total - done);
        done += step;
        for (lane, &base) in lanes.iter_mut().zip(&bases) {
            let target = base + done;
            let committed = lane.snapshot().instructions;
            if committed < target {
                lane.run(target - committed);
            }
        }
    }
}

fn run_batched_with<W, F>(
    configs: &[&CoreConfig],
    trace: &Arc<TraceArena>,
    params: &SimParams,
    observe: bool,
    build: F,
) -> Vec<BenchOutcome>
where
    W: WindowModel,
    F: Fn(&CoreConfig, &SharedTrace) -> OutOfOrderCore<SharedCursor, W>,
{
    if configs.is_empty() {
        return Vec::new();
    }
    // One decode of the arena's 21-B/inst records serves the fetch plan
    // and every lane; per-lane fetch then reads the contiguous decoded
    // buffer instead of re-unpacking the columnar prefix N times.
    let shared = SharedTrace::decode(trace);
    let plan = Arc::new(FetchPlan::build(configs[0], shared.cursor(), trace.len()));
    // Cache prewarming is timing-independent (tag state is a pure function
    // of the access order), so one template hierarchy is warmed and its
    // state replicated into every lane instead of replaying the ~8k-access
    // prewarm sequence N times.
    let mut warm = Hierarchy::new(configs[0].hierarchy);
    for &a in trace.prewarm_addresses() {
        let _ = warm.access(a);
    }
    let mut lanes: Vec<OutOfOrderCore<SharedCursor, W>> = configs
        .iter()
        .map(|cfg| {
            let mut core = build(cfg, &shared);
            if plan.matches(cfg) {
                core.use_fetch_plan(Arc::clone(&plan));
            }
            core.adopt_warm_hierarchy(&warm);
            core
        })
        .collect();
    lockstep(&mut lanes, params.warmup);
    if observe {
        for lane in &mut lanes {
            lane.enable_counters();
        }
    }
    let starts: Vec<SimResult> = lanes.iter().map(OutOfOrderCore::snapshot).collect();
    lockstep(&mut lanes, params.measure);
    lanes
        .iter_mut()
        .zip(starts)
        .map(|(lane, start)| outcome(trace, lane.snapshot().since(&start), lane.take_counters()))
        .collect()
}

/// Runs a set of simulations in parallel on the shared execution pool
/// (they are independent and CPU-bound). `items` is typically a slice of
/// [`Arc<TraceArena>`] from [`arenas_for`]. Results come back in input
/// order and are bit-identical at any pool size.
#[must_use]
pub fn run_set<T, F>(items: &[T], run_one: F) -> Vec<BenchOutcome>
where
    T: Sync,
    F: Fn(&T) -> BenchOutcome + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    fo4depth_exec::global().map(items, run_one)
}

/// Per-class aggregate of a benchmark set at one clock point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassSummary {
    /// Harmonic-mean BIPS over the class (the paper's aggregate).
    pub bips: f64,
    /// Harmonic-mean IPC over the class.
    pub ipc: f64,
    /// Number of benchmarks aggregated.
    pub count: usize,
}

/// Aggregates outcomes for one class (or all, with `class = None`) at the
/// given clock period.
///
/// Returns `None` when no benchmark matches.
#[must_use]
pub fn summarize(
    outcomes: &[BenchOutcome],
    class: Option<BenchClass>,
    period_ps: f64,
) -> Option<ClassSummary> {
    let selected: Vec<&BenchOutcome> = outcomes
        .iter()
        .filter(|o| class.is_none_or(|c| o.class == c))
        .collect();
    if selected.is_empty() {
        return None;
    }
    let bips = harmonic_mean(selected.iter().map(|o| o.result.bips(period_ps)))?;
    let ipc = harmonic_mean(selected.iter().map(|o| o.result.ipc()))?;
    Some(ClassSummary {
        bips,
        ipc,
        count: selected.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fo4depth_pipeline::CoreConfig;
    use fo4depth_workload::profiles;

    #[test]
    fn parallel_run_set_matches_serial() {
        let cfg = CoreConfig::alpha_like();
        let params = SimParams {
            warmup: 2_000,
            measure: 8_000,
            seed: 3,
        };
        let profs: Vec<_> = profiles::all().into_iter().take(4).collect();
        let arenas = arenas_for(&profs, &params);
        let parallel = run_set(&arenas, |a| run_ooo(&cfg, a, &params, false));
        for (i, a) in arenas.iter().enumerate() {
            let serial = run_ooo(&cfg, a, &params, false);
            assert_eq!(parallel[i], serial, "{} differs", a.profile().name);
        }
    }

    #[test]
    fn empty_profile_set_short_circuits() {
        assert!(arenas_for(&[], &SimParams::quick()).is_empty());
        let out = run_set::<Arc<TraceArena>, _>(&[], |_| unreachable!("no profiles, no runs"));
        assert!(out.is_empty());
    }

    #[test]
    fn shared_arena_runs_match_fresh_arena_runs() {
        // Sharing one materialized arena across many runs must be
        // indistinguishable from generating a fresh one per run.
        let cfg = CoreConfig::alpha_like();
        let params = SimParams {
            warmup: 2_000,
            measure: 6_000,
            seed: 1,
        };
        let p = profiles::by_name("181.mcf").unwrap();
        let shared = Arc::new(TraceArena::generate(
            p.clone(),
            params.seed,
            params.trace_len(),
        ));
        let a = run_ooo(&cfg, &shared, &params, false);
        let b = run_ooo(&cfg, &shared, &params, false);
        let fresh = run_ooo(
            &cfg,
            &Arc::new(TraceArena::generate(p, params.seed, params.trace_len())),
            &params,
            false,
        );
        assert_eq!(a, b);
        assert_eq!(a, fresh);
    }

    #[test]
    fn batched_lanes_match_scalar_runs() {
        let params = SimParams {
            warmup: 2_000,
            measure: 8_000,
            seed: 1,
        };
        let p = profiles::by_name("164.gzip").unwrap();
        let arena = Arc::new(TraceArena::generate(p, params.seed, params.trace_len()));
        let cfg = CoreConfig::alpha_like();
        for observe in [false, true] {
            let batched = run_ooo_batched(&[&cfg, &cfg], &arena, &params, observe);
            let scalar = run_ooo(&cfg, &arena, &params, observe);
            assert_eq!(batched[0], scalar, "ooo observe={observe} lane 0");
            assert_eq!(batched[1], scalar, "ooo observe={observe} lane 1");
        }
    }

    #[test]
    fn batched_matches_scalar_at_scaled_points() {
        use crate::latency::StructureSet;
        use crate::scaler::ScaledMachine;
        use fo4depth_fo4::Fo4;
        let params = SimParams {
            warmup: 2_000,
            measure: 8_000,
            seed: 1,
        };
        let structures = StructureSet::alpha_21264();
        for bench in ["164.gzip", "181.mcf", "171.swim"] {
            let p = profiles::by_name(bench).unwrap();
            let arena = Arc::new(TraceArena::generate(p, params.seed, params.trace_len()));
            for t in [2.0, 6.0, 16.0] {
                let m = ScaledMachine::at(&structures, Fo4::new(t), Fo4::new(1.8));
                let cfg = &m.config;
                let batched = run_ooo_batched(&[cfg], &arena, &params, false);
                let scalar = run_ooo(cfg, &arena, &params, false);
                assert_eq!(batched[0], scalar, "ooo {bench} t={t}");
            }
        }
    }

    #[test]
    fn batched_multi_lane_matches_scalar() {
        use crate::latency::StructureSet;
        use crate::scaler::ScaledMachine;
        use fo4depth_fo4::Fo4;
        let params = SimParams {
            warmup: 10_000,
            measure: 40_000,
            seed: 1,
        };
        let structures = StructureSet::alpha_21264();
        let p = profiles::by_name("164.gzip").unwrap();
        let arena = Arc::new(TraceArena::generate(p, params.seed, params.trace_len()));
        let machines: Vec<ScaledMachine> = (2..=16)
            .map(|t| ScaledMachine::at(&structures, Fo4::new(f64::from(t)), Fo4::new(1.8)))
            .collect();
        let configs: Vec<&CoreConfig> = machines.iter().map(|m| &m.config).collect();
        let batched = run_ooo_batched(&configs, &arena, &params, false);
        for (i, cfg) in configs.iter().enumerate() {
            let scalar = run_ooo(cfg, &arena, &params, false);
            assert_eq!(batched[i], scalar, "ooo lane {i} (t={})", i + 2);
        }
    }

    #[test]
    fn summarize_filters_by_class() {
        let cfg = CoreConfig::alpha_like();
        let params = SimParams {
            warmup: 2_000,
            measure: 6_000,
            seed: 1,
        };
        let profs = vec![
            profiles::by_name("164.gzip").unwrap(),
            profiles::by_name("171.swim").unwrap(),
        ];
        let arenas = arenas_for(&profs, &params);
        let outcomes = run_set(&arenas, |a| run_ooo(&cfg, a, &params, false));
        let int = summarize(&outcomes, Some(BenchClass::Integer), 1000.0).unwrap();
        assert_eq!(int.count, 1);
        let all = summarize(&outcomes, None, 1000.0).unwrap();
        assert_eq!(all.count, 2);
        assert!(summarize(&outcomes, Some(BenchClass::NonVectorFp), 1000.0).is_none());
    }

    #[test]
    fn bips_scales_inversely_with_period() {
        let cfg = CoreConfig::alpha_like();
        let params = SimParams::quick();
        let arenas = arenas_for(&[profiles::by_name("164.gzip").unwrap()], &params);
        let o = vec![run_ooo(&cfg, &arenas[0], &params, false)];
        let fast = summarize(&o, None, 500.0).unwrap();
        let slow = summarize(&o, None, 1000.0).unwrap();
        assert!((fast.bips / slow.bips - 2.0).abs() < 1e-9);
        assert_eq!(fast.ipc, slow.ipc);
    }
}
