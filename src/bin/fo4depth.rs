//! The fo4depth command-line tool: run the study's pieces individually.
//!
//! ```text
//! fo4depth table3                               # print Table 3
//! fo4depth sweep --core ooo --measure 40000     # depth sweep (text + CSV)
//! fo4depth bench 181.mcf --t-useful 6           # one benchmark, one clock
//! fo4depth record 164.gzip 1000 trace.txt       # capture a trace
//! fo4depth replay trace.txt --t-useful 6        # drive the core with it
//! fo4depth validate                             # workload calibration table
//! fo4depth floorplan                            # areas and wire distances
//! fo4depth experiments                          # the paper's experiment registry
//! fo4depth report --quick                       # machine-readable JSON run report
//! fo4depth serve --addr 127.0.0.1:7634          # simulation-as-a-service daemon
//! fo4depth route --shard HOST:PORT [...]        # consistent-hash routing tier
//! ```
//!
//! Argument parsing is strict: unknown subcommands, unknown flags, and
//! malformed values exit with status 2 and a message naming the problem
//! (see [`fo4depth::util::args`]).

use std::io::BufReader;
use std::process::ExitCode;
use std::sync::Arc;

use fo4depth::fo4::Fo4;
use fo4depth::serve::client::{InjectedNetFault, ScriptedNetFaults};
use fo4depth::serve::store::{self, FsyncPolicy};
use fo4depth::serve::{ServeConfig, Server};
use fo4depth::study::adaptive::AdaptiveConfig;
use fo4depth::study::experiments::registry;
use fo4depth::study::floorplan::Floorplan;
use fo4depth::study::latency::{table3, StructureSet};
use fo4depth::study::render;
use fo4depth::study::report;
use fo4depth::study::scaler::ScaledMachine;
use fo4depth::study::sim::{run_inorder, run_ooo, SimParams};
use fo4depth::study::sweep::{
    adaptive_sweep_arenas, adaptive_sweep_spec, auto_lanes, build_arenas, depth_sweep_arenas,
    depth_sweep_arenas_batched, depth_sweep_spec_batched, standard_points, AdaptiveSweep, CoreKind,
    DepthSweep, SweepSpec,
};
use fo4depth::study::validation::{self, Bands};
use fo4depth::study::yield_sweep::yield_sweep_spec;
use fo4depth::util::args::{ArgError, Args};
use fo4depth::variation::{DistKind, VariationSpec};
use fo4depth::workload::{profiles, BenchProfile, TraceArena, TraceGenerator, TraceReader};
use fo4depth_fo4::TechNode;
use fo4depth_pipeline::OutOfOrderCore;

fn usage() -> ExitCode {
    eprintln!(
        "usage: fo4depth <command> [options]\n\
         commands:\n\
           table3                          print the structure/operation latency table\n\
           sweep [--core ooo|inorder] [--overhead F] [--quick] [--warmup N]\n\
                 [--measure N] [--bench NAME[,NAME...]] [--csv] [--jobs N]\n\
                 [--batch-lanes N|on|max|auto|off] [--sweep-mode dense|adaptive]\n\
                 [--tolerance FO4] [--coarse-step N] [--seed-clock FO4]\n\
           bench NAME [--t-useful F] [--warmup N] [--measure N]\n\
           record NAME COUNT [FILE]        capture a synthetic trace (default stdout)\n\
           replay FILE [--t-useful F]      run the out-of-order core on a trace file\n\
           validate                        workload calibration at the Alpha point\n\
           floorplan                       structure areas and wire distances\n\
           experiments                     list the paper's experiments\n\
           yield [--core ooo|inorder] [--overhead F] [--quick] [--warmup N]\n\
                 [--measure N] [--seed N] [--bench NAME[,NAME...]] [--samples N]\n\
                 [--variation-seed N] [--distribution normal|lognormal|uniform]\n\
                 [--sigma-fo4 F] [--sigma-overhead F] [--systematic-fo4 F]\n\
                 [--systematic-overhead F] [--logic-depth F] [--guardband F]\n\
                 [--jobs N] [--batch-lanes N|on|max|auto|off]\n\
                  yield-aware depth sweep: Monte Carlo over process\n\
                  variation plus the variance-propagation fast path;\n\
                  reports per-point yield curves and the yield-weighted\n\
                  optimum alongside the nominal one\n\
           report [--core ooo|inorder] [--bench NAME[,NAME...]] [--points F[,F...]]\n\
                  [--quick] [--warmup N] [--measure N] [--seed N] [--out FILE] [--jobs N]\n\
                  [--batch-lanes N|on|max|auto|off] [--sweep-mode dense|adaptive]\n\
                  [--tolerance FO4] [--coarse-step N] [--seed-clock FO4]\n\
                  emit a machine-readable JSON run report (counters + CPI stacks)\n\
           perf [--core ooo|inorder|both] [--quick] [--jobs N] [--out FILE]\n\
                [--batch-lanes N|on|max|auto|off] [--sweep-mode dense|adaptive]\n\
                [--tolerance FO4] [--coarse-step N] [--seed-clock FO4] [--shards N]\n\
                  time the fixed sweep workload (trace generation and\n\
                  simulation split out); emit a JSON bench report; unless\n\
                  --batch-lanes is off or 1, also time the lane-batched\n\
                  sweep and verify it against the per-cell sweep\n\
                  bit-for-bit; unless\n\
                  --sweep-mode dense, also time the adaptive planner and\n\
                  verify it lands on the dense optimum; with --shards N,\n\
                  also time the routed full-OOO sweep through 1 vs N\n\
                  fresh shard subprocesses and verify byte-identity\n\
           serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]\n\
                 [--cell-cache N] [--max-body BYTES] [--timeout-ms N]\n\
                 [--deadline-ms N] [--cache-dir DIR] [--fsync always|batch|off]\n\
                 [--jobs N]\n\
                  run the HTTP simulation service (caching, coalescing,\n\
                  backpressure; SIGTERM drains and exits); --cache-dir\n\
                  persists cell outcomes across restarts\n\
           route --shard HOST:PORT [--shard HOST:PORT ...] [serve options]\n\
                 [--shard-connections N] [--shard-retries N] [--shard-backoff-ms N]\n\
                 [--shard-timeout-ms N] [--ring-replicas N] [--replication R]\n\
                 [--net-faults SPEC]\n\
                  front a fleet of serve shards: the same HTTP surface,\n\
                  with cell simulation scattered to the owning shards by\n\
                  consistent hashing and gathered back byte-identically;\n\
                  --replication R serves each cell from any of its first\n\
                  R ring successors (reads balanced two-choices, records\n\
                  fanned out so every replica stays warm); POST /v1/ring\n\
                  adds/removes shards at runtime; dead shards fail over\n\
                  to ring successors, then local compute; --net-faults\n\
                  scripts deterministic scatter-path failures (comma-\n\
                  separated connect-refuse|connect-pass|read-hang|\n\
                  read-truncate|read-garbage|read-pass, consumed FIFO\n\
                  per operation) for chaos drills\n\
           cache <stat|verify|compact> --cache-dir DIR\n\
                  inspect or rewrite the persistent cell cache offline\n\
         `--jobs N` sizes the shared execution pool (1 = serial); the\n\
         FO4DEPTH_THREADS env var sets the default"
    );
    ExitCode::from(2)
}

/// Applies `--jobs N` to the shared execution pool. Must run before the
/// first pool use; a pool that is already built at a different size cannot
/// be resized, so that case warns instead of silently mis-running.
fn apply_jobs(args: &mut Args) -> Result<(), ArgError> {
    if let Some(n) = args.take_opt::<usize>("--jobs")? {
        if n == 0 {
            return Err(ArgError("--jobs needs a positive value".into()));
        }
        if !fo4depth::exec::set_global_threads(n) {
            eprintln!("warning: execution pool already running; --jobs {n} ignored");
        }
    }
    Ok(())
}

fn params_from(args: &mut Args) -> Result<SimParams, ArgError> {
    let mut p = SimParams {
        warmup: 10_000,
        measure: 40_000,
        seed: 1,
    };
    if let Some(w) = args.take_opt("--warmup")? {
        p.warmup = w;
    }
    if let Some(m) = args.take_opt("--measure")? {
        p.measure = m;
    }
    if let Some(s) = args.take_opt("--seed")? {
        p.seed = s;
    }
    Ok(p)
}

/// Parses `--core` with the given `extra` spelling(s) allowed (perf takes
/// `both`; everything else does not).
fn core_from(args: &mut Args) -> Result<CoreKind, ArgError> {
    match args.take_opt::<String>("--core")?.as_deref() {
        None | Some("ooo") => Ok(CoreKind::OutOfOrder),
        Some("inorder") => Ok(CoreKind::InOrder),
        Some(other) => Err(ArgError(format!(
            "unknown core {other}; expected ooo or inorder"
        ))),
    }
}

/// Parses `--bench NAME[,NAME...]`, defaulting to every benchmark.
fn benches_from(args: &mut Args) -> Result<Vec<BenchProfile>, ArgError> {
    match args.take_opt::<String>("--bench")? {
        Some(names) => names
            .split(',')
            .map(|n| {
                profiles::by_name(n).ok_or_else(|| {
                    ArgError(format!(
                        "unknown benchmark {n}; try `fo4depth validate` for the list"
                    ))
                })
            })
            .collect(),
        None => Ok(profiles::all()),
    }
}

/// How `--batch-lanes` sizes a sweep's per-benchmark point batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneMode {
    /// One cell per task.
    Off,
    /// All of a benchmark's clock points in one batch.
    Max,
    /// A fixed lane cap.
    Fixed(usize),
    /// The per-core measured-best cap ([`auto_lanes`]): every point for
    /// the out-of-order core, one cell per task for the in-order core.
    Auto,
}

impl LaneMode {
    /// The lane cap for one core's sweep over `points` clock points.
    fn resolve(self, core: CoreKind, points: usize) -> usize {
        match self {
            LaneMode::Off => 1,
            LaneMode::Max => points.max(1),
            LaneMode::Fixed(n) => n.min(points.max(1)),
            LaneMode::Auto => auto_lanes(core, points),
        }
    }
}

/// Parses `--batch-lanes N|on|max|auto|off`. `on` and `max` mean "all of a
/// benchmark's clock points in one batch"; `auto` picks the per-core
/// measured-best cap. `default` applies when the flag is absent.
fn batch_lanes_from(args: &mut Args, default: LaneMode) -> Result<LaneMode, ArgError> {
    match args.take_opt::<String>("--batch-lanes")? {
        None => Ok(default),
        Some(v) => match v.as_str() {
            "off" => Ok(LaneMode::Off),
            "on" | "max" => Ok(LaneMode::Max),
            "auto" => Ok(LaneMode::Auto),
            n => match n.parse::<usize>() {
                Ok(n) if n > 0 => Ok(LaneMode::Fixed(n)),
                _ => Err(ArgError(format!(
                    "bad --batch-lanes {n}; expected a positive lane count, on, max, auto, or off"
                ))),
            },
        },
    }
}

/// Which planning strategy a sweep-shaped command uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SweepMode {
    Dense,
    Adaptive,
}

/// Parses `--sweep-mode dense|adaptive` plus the adaptive knobs
/// (`--tolerance FO4`, `--coarse-step N`, `--seed-clock FO4`). The knobs
/// are accepted — and validated — even in dense mode so scripts can flip
/// modes without editing flags. `default` applies when the flag is absent
/// (`sweep`/`report` default dense; `perf` defaults adaptive so the
/// planner is benchmarked and verified on every run).
fn sweep_mode_from(
    args: &mut Args,
    default: SweepMode,
) -> Result<(SweepMode, AdaptiveConfig), ArgError> {
    let mode = match args.take_opt::<String>("--sweep-mode")?.as_deref() {
        None => default,
        Some("dense") => SweepMode::Dense,
        Some("adaptive") => SweepMode::Adaptive,
        Some(other) => {
            return Err(ArgError(format!(
                "unknown sweep mode {other}; expected dense or adaptive"
            )));
        }
    };
    let mut config = AdaptiveConfig::default();
    if let Some(t) = args.take_opt::<f64>("--tolerance")? {
        if !t.is_finite() || t < 0.0 {
            return Err(ArgError(format!(
                "bad --tolerance {t}; expected a non-negative FO4 width"
            )));
        }
        config.tolerance = t;
    }
    if let Some(s) = args.take_opt::<usize>("--coarse-step")? {
        config.coarse_step = s;
    }
    if let Some(seed) = args.take_opt::<f64>("--seed-clock")? {
        if !seed.is_finite() || seed <= 0.0 {
            return Err(ArgError(format!(
                "bad --seed-clock {seed}; expected a positive FO4 clock"
            )));
        }
        config.seed = Some(seed);
    }
    Ok((mode, config))
}

/// One-line search summary printed (to stderr, so CSV/JSON pipes stay
/// clean) after an adaptive run.
fn adaptive_summary(a: &AdaptiveSweep) {
    eprintln!(
        "adaptive: probed {}/{} points in {} rounds (seed {:.2} FO4): \
         {} cells simulated vs {} dense ({} saved)",
        a.stats.probed_points,
        a.stats.dense_points,
        a.stats.rounds,
        a.stats.seed_t,
        a.cells_simulated,
        a.cells_dense,
        a.cells_dense.saturating_sub(a.cells_simulated)
    );
}

fn cmd_sweep(mut args: Args) -> Result<ExitCode, ArgError> {
    apply_jobs(&mut args)?;
    let core = core_from(&mut args)?;
    let overhead = args.take_opt("--overhead")?.unwrap_or(1.8);
    let csv = args.take_flag("--csv");
    let quick = args.take_flag("--quick");
    // Default off (one cell per task); perf defaults to full batches.
    let batch = batch_lanes_from(&mut args, LaneMode::Off)?;
    let (mode, adaptive_config) = sweep_mode_from(&mut args, SweepMode::Dense)?;
    let mut params = params_from(&mut args)?;
    if quick {
        params.warmup = params.warmup.min(2_000);
        params.measure = params.measure.min(8_000);
    }
    let profs = benches_from(&mut args)?;
    args.finish()?;
    let structures = StructureSet::alpha_21264();
    let points = standard_points();
    let spec = SweepSpec {
        core,
        profiles: &profs,
        params: &params,
        structures: &structures,
        overhead: Fo4::new(overhead),
        points: &points,
        observed: false,
    };
    let pool = fo4depth::exec::global();
    let lanes = batch.resolve(core, points.len());
    let sweep = match mode {
        SweepMode::Dense => depth_sweep_spec_batched(&spec, pool, lanes),
        SweepMode::Adaptive => {
            let adaptive = adaptive_sweep_spec(&spec, pool, lanes, &adaptive_config);
            adaptive_summary(&adaptive);
            adaptive.sweep
        }
    };
    if csv {
        print!("{}", render::sweep_csv(&sweep));
    } else {
        print!("{}", render::sweep_table(&sweep));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_bench(mut args: Args) -> Result<ExitCode, ArgError> {
    let t = args.take_opt("--t-useful")?.unwrap_or(6.0);
    let params = params_from(&mut args)?;
    let name = args
        .take_positional()
        .ok_or_else(|| ArgError("bench needs a benchmark name".into()))?;
    args.finish()?;
    let Some(profile) = profiles::by_name(&name) else {
        return Err(ArgError(format!(
            "unknown benchmark {name}; try `fo4depth validate` for the list"
        )));
    };
    let machine = ScaledMachine::at(&StructureSet::alpha_21264(), Fo4::new(t), Fo4::new(1.8));
    let arena = Arc::new(TraceArena::generate(
        profile,
        params.seed,
        params.trace_len(),
    ));
    let ooo = run_ooo(&machine.config, &arena, &params, false);
    let ino = run_inorder(&machine.config, &arena, &params, false);
    println!(
        "{name} at t_useful {t} FO4 ({:.2} GHz at 100 nm):",
        1000.0 / machine.period_ps()
    );
    println!(
        "  out-of-order: IPC {:.3}  BIPS {:.3}  mispredict {:.3}  L1 miss {:.3}",
        ooo.result.ipc(),
        ooo.result.bips(machine.period_ps()),
        ooo.result.mispredict_rate(),
        ooo.result.l1.miss_rate()
    );
    println!(
        "  in-order:     IPC {:.3}  BIPS {:.3}",
        ino.result.ipc(),
        ino.result.bips(machine.period_ps())
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_record(mut args: Args) -> Result<ExitCode, ArgError> {
    let name = args
        .take_positional()
        .ok_or_else(|| ArgError("record needs NAME and COUNT".into()))?;
    let count = args
        .take_positional()
        .ok_or_else(|| ArgError("record needs NAME and COUNT".into()))?;
    let path = args.take_positional();
    args.finish()?;
    let Some(profile) = profiles::by_name(&name) else {
        return Err(ArgError(format!("unknown benchmark {name}")));
    };
    let Ok(count) = count.parse::<usize>() else {
        return Err(ArgError(format!("bad count {count}")));
    };
    let stream = TraceGenerator::new(profile, 1);
    let result = match path {
        Some(path) => {
            let file = match std::fs::File::create(&path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot create {path}: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            };
            fo4depth::workload::record(stream, count, std::io::BufWriter::new(file))
        }
        None => fo4depth::workload::record(stream, count, std::io::stdout().lock()),
    };
    match result {
        Ok(()) => Ok(ExitCode::SUCCESS),
        Err(e) => {
            eprintln!("write failed: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_replay(mut args: Args) -> Result<ExitCode, ArgError> {
    let t = args.take_opt("--t-useful")?.unwrap_or(6.0);
    let mut params = params_from(&mut args)?;
    let path = args
        .take_positional()
        .ok_or_else(|| ArgError("replay needs a trace FILE".into()))?;
    args.finish()?;
    let file = match std::fs::File::open(&path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    // A finite file cannot satisfy an open-ended run; bound the interval by
    // a cheap line count first.
    let lines = match std::fs::read_to_string(&path) {
        Ok(s) => s
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .count() as u64,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    if lines < 100 {
        eprintln!("trace too short ({lines} instructions)");
        return Ok(ExitCode::FAILURE);
    }
    params.warmup = params.warmup.min(lines / 4);
    params.measure = params.measure.min(lines - params.warmup - lines / 10);

    let machine = ScaledMachine::at(&StructureSet::alpha_21264(), Fo4::new(t), Fo4::new(1.8));
    let trace = TraceReader::new(BufReader::new(file));
    let mut core = OutOfOrderCore::new(machine.config.clone(), trace);
    core.run(params.warmup);
    let r = core.run(params.measure);
    println!(
        "{path}: {} instructions measured at t_useful {t} FO4: IPC {:.3}  BIPS {:.3}",
        r.instructions,
        r.ipc(),
        r.bips(machine.period_ps())
    );
    Ok(ExitCode::SUCCESS)
}

/// Parses the `--samples`/`--variation-seed`/`--distribution`/`--sigma-*`
/// knobs into a [`VariationSpec`], validated.
fn variation_from(args: &mut Args) -> Result<VariationSpec, ArgError> {
    let mut v = VariationSpec::new(args.take_opt("--variation-seed")?.unwrap_or(1));
    if let Some(n) = args.take_opt::<u32>("--samples")? {
        v.samples = n;
    }
    if let Some(kind) = args.take_opt::<String>("--distribution")? {
        let kind = DistKind::parse(&kind).map_err(|e| ArgError(e.message().to_string()))?;
        for c in [&mut v.fo4, &mut v.latch, &mut v.skew, &mut v.jitter] {
            c.kind = kind;
        }
    }
    if let Some(sigma) = args.take_opt::<f64>("--sigma-fo4")? {
        v.fo4.sigma = sigma;
    }
    if let Some(sigma) = args.take_opt::<f64>("--sigma-overhead")? {
        for c in [&mut v.latch, &mut v.skew, &mut v.jitter] {
            c.sigma = sigma;
        }
    }
    if let Some(share) = args.take_opt::<f64>("--systematic-fo4")? {
        v.fo4.systematic = share;
    }
    if let Some(share) = args.take_opt::<f64>("--systematic-overhead")? {
        for c in [&mut v.latch, &mut v.skew, &mut v.jitter] {
            c.systematic = share;
        }
    }
    if let Some(depth) = args.take_opt::<f64>("--logic-depth")? {
        v.logic_depth = depth;
    }
    if let Some(guardband) = args.take_opt::<f64>("--guardband")? {
        v.guardband = guardband;
    }
    v.validate()
        .map_err(|e| ArgError(e.message().to_string()))?;
    Ok(v)
}

/// The yield-aware depth sweep: Monte Carlo over process variation plus
/// the moment-propagation fast path, through the same cell machinery as
/// every other sweep.
fn cmd_yield(mut args: Args) -> Result<ExitCode, ArgError> {
    apply_jobs(&mut args)?;
    let core = core_from(&mut args)?;
    let overhead = args.take_opt("--overhead")?.unwrap_or(1.8);
    let quick = args.take_flag("--quick");
    let batch = batch_lanes_from(&mut args, LaneMode::Off)?;
    let mut variation = variation_from(&mut args)?;
    let mut params = params_from(&mut args)?;
    if quick {
        params.warmup = params.warmup.min(2_000);
        params.measure = params.measure.min(8_000);
        variation.samples = variation.samples.min(32);
    }
    let profs = benches_from(&mut args)?;
    args.finish()?;
    let structures = StructureSet::alpha_21264();
    let points = standard_points();
    let spec = SweepSpec {
        core,
        profiles: &profs,
        params: &params,
        structures: &structures,
        overhead: Fo4::new(overhead),
        points: &points,
        observed: false,
    };
    let pool = fo4depth::exec::global();
    let lanes = batch.resolve(core, points.len());
    let sweep = yield_sweep_spec(&spec, variation, pool, Some(lanes))
        .map_err(|e| ArgError(e.message().to_string()))?;
    println!(
        "yield-aware depth sweep: {} core, overhead {overhead} FO4, {} dies (seed {})",
        match core {
            CoreKind::OutOfOrder => "out-of-order",
            CoreKind::InOrder => "in-order",
        },
        sweep.samples,
        variation.seed
    );
    println!(
        "{:>8}  {:>9}  {:>8}  {:>8}  {:>10}  {:>9}  {:>11}",
        "t_useful", "period_ps", "bips_nom", "yield_mc", "yield_fast", "ywbips_mc", "ywbips_fast"
    );
    for p in &sweep.points {
        println!(
            "{:>8.2}  {:>9.1}  {:>8.3}  {:>8.3}  {:>10.3}  {:>9.3}  {:>11.3}",
            p.t_useful,
            p.period_ps,
            p.bips_nominal,
            p.yield_mc,
            p.yield_fast,
            p.ywbips_mc,
            p.ywbips_fast
        );
    }
    let (nom_t, nom_bips) = sweep.nominal_optimum();
    let (mc_t, mc_bips) = sweep.yield_optimum_mc();
    let (fast_t, fast_bips) = sweep.yield_optimum_fast();
    let agreement = sweep.agreement();
    println!("nominal optimum:      {nom_t} FO4 useful ({nom_bips:.3} BIPS)");
    println!("yield optimum (MC):   {mc_t} FO4 useful ({mc_bips:.3} yield-weighted BIPS)");
    println!("yield optimum (fast): {fast_t} FO4 useful ({fast_bips:.3} yield-weighted BIPS)");
    println!(
        "fast vs MC: max |yield error| {:.3}, optimum {} grid step(s) apart",
        agreement.max_yield_abs_err,
        agreement.optimum_step_delta.abs()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_report(mut args: Args) -> Result<ExitCode, ArgError> {
    apply_jobs(&mut args)?;
    let core = core_from(&mut args)?;
    let quick = args.take_flag("--quick");
    let out_path = args.take_opt::<String>("--out")?;
    // Default off, like `sweep`.
    let batch = batch_lanes_from(&mut args, LaneMode::Off)?;
    let (mode, adaptive_config) = sweep_mode_from(&mut args, SweepMode::Dense)?;
    let mut params = params_from(&mut args)?;
    if quick {
        // Short intervals and three representative clock points: enough for
        // CI and smoke checks; the counters and identity are still exact.
        params.warmup = params.warmup.min(2_000);
        params.measure = params.measure.min(8_000);
    }
    let points: Vec<Fo4> = match args.take_opt::<String>("--points")? {
        Some(list) => list
            .split(',')
            .map(|raw| match raw.parse::<f64>() {
                Ok(v) if v > 0.0 => Ok(Fo4::new(v)),
                _ => Err(ArgError(format!("bad clock point {raw}"))),
            })
            .collect::<Result<_, _>>()?,
        None if quick => [4.0, 6.0, 8.0].into_iter().map(Fo4::new).collect(),
        None => standard_points(),
    };
    let profs = benches_from(&mut args)?;
    args.finish()?;
    if mode == SweepMode::Adaptive && !points.windows(2).all(|w| w[0].get() < w[1].get()) {
        return Err(ArgError(
            "--sweep-mode adaptive needs strictly increasing --points".into(),
        ));
    }
    let lanes = batch.resolve(core, points.len());
    let structures = StructureSet::alpha_21264();
    let spec = SweepSpec {
        core,
        profiles: &profs,
        params: &params,
        structures: &structures,
        overhead: Fo4::new(1.8),
        points: &points,
        observed: true,
    };
    let doc = match mode {
        SweepMode::Adaptive => {
            let adaptive =
                adaptive_sweep_spec(&spec, fo4depth::exec::global(), lanes, &adaptive_config);
            report::adaptive_sweep_json(&adaptive, &params)
        }
        SweepMode::Dense => {
            let sweep = depth_sweep_spec_batched(&spec, fo4depth::exec::global(), lanes);
            report::sweep_json(&sweep, &params)
        }
    };
    let text = doc.pretty();
    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, text + "\n") {
                eprintln!("cannot write {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
        None => println!("{text}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// One `fo4depth serve` shard subprocess for the perf harness, killed on
/// drop so a panicking run cannot leak children.
struct ShardProc {
    child: std::process::Child,
}

impl Drop for ShardProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns one shard of this same binary on an ephemeral port and waits for
/// its `listening on ADDR` banner.
fn spawn_shard(jobs: usize) -> Result<(ShardProc, String), ArgError> {
    use std::io::BufRead as _;
    let exe = std::env::current_exe()
        .map_err(|e| ArgError(format!("cannot locate the fo4depth binary: {e}")))?;
    let mut child = std::process::Command::new(exe)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--jobs",
            &jobs.to_string(),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .map_err(|e| ArgError(format!("cannot spawn shard: {e}")))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let proc = ShardProc { child };
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| ArgError(format!("shard produced no address: {e}")))?;
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .ok_or_else(|| ArgError(format!("unexpected shard banner {line:?}")))?
        .to_string();
    Ok((proc, addr))
}

/// Times the routed full-OOO sweep through one shard vs `shards` shards.
/// Both measurements use fresh shard subprocesses and fresh router engines,
/// so both are equally cold; each shard gets the router's own `--jobs`, so
/// the fleet's advantage is pure horizontal scale. Byte-identity against
/// the local per-cell `reference` sweep is asserted, not sampled.
fn shard_perf(
    shards: usize,
    params: &SimParams,
    reference: Option<&DepthSweep>,
) -> Result<fo4depth::util::json::Json, ArgError> {
    use fo4depth::serve::api::{RequestLimits, SweepRequest};
    use fo4depth::util::json::Json;

    let jobs = fo4depth::exec::global().threads();
    let spec = Json::obj(vec![
        ("core", Json::str("ooo")),
        ("warmup", Json::uint(params.warmup)),
        ("measure", Json::uint(params.measure)),
        ("seed", Json::uint(params.seed)),
    ]);
    let req = SweepRequest::from_json(&spec, &RequestLimits::default())
        .expect("perf sweep spec is valid");

    let route_through = |addrs: Vec<String>| -> Result<(DepthSweep, f64), ArgError> {
        let config = ServeConfig {
            shards: addrs,
            ..ServeConfig::default()
        };
        let engine = fo4depth::serve::build_engine(&config)
            .map_err(|e| ArgError(format!("cannot build router engine: {e}")))?;
        let start = std::time::Instant::now();
        let sweep = engine.sweep(&req, false);
        Ok((sweep, start.elapsed().as_secs_f64()))
    };

    // Baseline: the whole keyspace on one shard. The wall clock starts
    // before the spawn so `*_wall_seconds` prices the whole deployment
    // (subprocess startup included), where `*_sim_seconds` prices only the
    // routed sweep — the gap between them is the fleet's fixed cost.
    let single_wall_start = std::time::Instant::now();
    let (single_proc, single_addr) = spawn_shard(jobs)?;
    let (single_sweep, single_sim) = route_through(vec![single_addr])?;
    let single_wall = single_wall_start.elapsed().as_secs_f64();
    drop(single_proc);

    // The fleet: fresh processes, so the sharded run is just as cold.
    let fleet_wall_start = std::time::Instant::now();
    let fleet: Vec<(ShardProc, String)> = (0..shards)
        .map(|_| spawn_shard(jobs))
        .collect::<Result<_, _>>()?;
    let addrs = fleet.iter().map(|(_, a)| a.clone()).collect();
    let (fleet_sweep, fleet_sim) = route_through(addrs)?;
    let fleet_wall = fleet_wall_start.elapsed().as_secs_f64();
    drop(fleet);

    assert_eq!(
        single_sweep, fleet_sweep,
        "sharded sweep diverged from the single-shard sweep"
    );
    if let Some(reference) = reference {
        assert_eq!(
            &fleet_sweep, reference,
            "routed sweep diverged from the local per-cell sweep"
        );
    }
    let speedup = single_sim / fleet_sim;
    // Horizontal scale needs physical cores: on a `cpus`-core machine the
    // ceiling is min(shards, cpus / jobs), so the report records the
    // machine alongside the measurement.
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    eprintln!(
        "sharding: {shards} shards {fleet_sim:.3} s vs 1 shard {single_sim:.3} s \
         ({speedup:.2}x) at --jobs {jobs} per shard on {cpus} cpus"
    );
    Ok(Json::obj(vec![
        ("shards", Json::uint(shards as u64)),
        ("jobs_per_shard", Json::uint(jobs as u64)),
        ("cpus", Json::uint(cpus as u64)),
        ("single_shard_sim_seconds", Json::Num(single_sim)),
        ("sharded_sim_seconds", Json::Num(fleet_sim)),
        ("single_shard_wall_seconds", Json::Num(single_wall)),
        ("sharded_wall_seconds", Json::Num(fleet_wall)),
        ("shard_speedup", Json::Num(speedup)),
    ]))
}

/// The fixed benchmarking workload: the full depth sweep at the paper's
/// overhead, timed wall-clock, reported as deterministic-schema JSON so CI
/// can track simulation throughput run-over-run. Trace generation
/// (materializing the benchmark arenas, paid once and shared by every core
/// and clock point) is timed separately from simulation.
fn cmd_perf(mut args: Args) -> Result<ExitCode, ArgError> {
    use fo4depth::util::json::Json;

    apply_jobs(&mut args)?;
    let quick = args.take_flag("--quick");
    let out_path = args.take_opt::<String>("--out")?;
    // Default on: every perf run times the lane-batched sweep alongside the
    // per-cell sweep and asserts they agree bit-for-bit.
    let batch = batch_lanes_from(&mut args, LaneMode::Max)?;
    // Default adaptive: every perf run also times the adaptive planner and
    // asserts it lands on the dense optimum. `--sweep-mode dense` skips it.
    let (mode, adaptive_config) = sweep_mode_from(&mut args, SweepMode::Adaptive)?;
    let cores: Vec<CoreKind> = match args.take_opt::<String>("--core")?.as_deref() {
        None | Some("both") => vec![CoreKind::OutOfOrder, CoreKind::InOrder],
        Some("ooo") => vec![CoreKind::OutOfOrder],
        Some("inorder") => vec![CoreKind::InOrder],
        Some(other) => {
            return Err(ArgError(format!(
                "unknown core {other}; expected ooo, inorder, or both"
            )));
        }
    };
    let shard_count = args.take_opt::<usize>("--shards")?.unwrap_or(0);
    args.finish()?;
    let params = if quick {
        SimParams {
            warmup: 2_000,
            measure: 8_000,
            seed: 1,
        }
    } else {
        SimParams {
            warmup: 10_000,
            measure: 40_000,
            seed: 1,
        }
    };
    let profs = profiles::all();
    let points = standard_points();
    let structures = StructureSet::alpha_21264();
    let pool = fo4depth::exec::global();
    let start = std::time::Instant::now();
    let arenas = build_arenas(&profs, &params, pool);
    let trace_gen = start.elapsed().as_secs_f64();
    let mut sweeps = Vec::new();
    let mut ooo_reference: Option<DepthSweep> = None;
    let (mut total_cycles, mut total_rate) = (0u64, 0.0f64);
    for &core in &cores {
        let spec = SweepSpec {
            core,
            profiles: &profs,
            params: &params,
            structures: &structures,
            overhead: Fo4::new(1.8),
            points: &points,
            observed: false,
        };
        let sim_start = std::time::Instant::now();
        let sweep = depth_sweep_arenas(&spec, &arenas, pool);
        let sim = sim_start.elapsed().as_secs_f64();
        let (mut cycles, mut instructions) = (0u64, 0u64);
        for p in &sweep.points {
            for o in &p.outcomes {
                cycles += o.result.cycles;
                instructions += o.result.instructions;
            }
        }
        let (opt_t, opt_bips) = sweep.optimum(None);
        if core == CoreKind::OutOfOrder {
            ooo_reference = Some(sweep.clone());
        }
        total_cycles += cycles;
        total_rate = cycles as f64 / sim;
        let lanes = batch.resolve(core, points.len());
        let batched = (lanes > 1).then(|| {
            let batched_start = std::time::Instant::now();
            let batched_sweep = depth_sweep_arenas_batched(&spec, &arenas, pool, lanes);
            let batched_sim = batched_start.elapsed().as_secs_f64();
            assert_eq!(
                batched_sweep, sweep,
                "batched sweep diverged from the per-cell sweep"
            );
            (lanes, batched_sim)
        });
        // The adaptive planner re-runs the same sweep through the search:
        // warm arenas, same lane shape, and a hard assert that it lands on
        // the dense optimum bit-for-bit.
        let adaptive = (mode == SweepMode::Adaptive).then(|| {
            let adaptive_start = std::time::Instant::now();
            let a = adaptive_sweep_arenas(&spec, &arenas, pool, lanes, &adaptive_config);
            let adaptive_sim = adaptive_start.elapsed().as_secs_f64();
            assert_eq!(
                a.sweep.optimum(None),
                sweep.optimum(None),
                "adaptive sweep missed the dense optimum"
            );
            (a, adaptive_sim)
        });
        let mut fields = vec![
            (
                "core",
                Json::str(match core {
                    CoreKind::OutOfOrder => "ooo",
                    CoreKind::InOrder => "inorder",
                }),
            ),
            ("sim_seconds", Json::Num(sim)),
        ];
        if let Some((lanes, batched_sim)) = batched {
            fields.push(("batched_sim_seconds", Json::Num(batched_sim)));
            fields.push(("batch_lanes", Json::uint(lanes as u64)));
            fields.push(("batched_speedup", Json::Num(sim / batched_sim)));
        }
        if let Some((a, adaptive_sim)) = &adaptive {
            fields.push(("adaptive_sim_seconds", Json::Num(*adaptive_sim)));
            fields.push(("cells_simulated_dense", Json::uint(a.cells_dense as u64)));
            fields.push((
                "cells_simulated_adaptive",
                Json::uint(a.cells_simulated as u64),
            ));
            fields.push(("adaptive_speedup", Json::Num(sim / adaptive_sim)));
        }
        fields.extend(vec![
            ("simulated_cycles", Json::uint(cycles)),
            ("simulated_instructions", Json::uint(instructions)),
            (
                "simulated_cycles_per_second",
                Json::Num(cycles as f64 / sim),
            ),
            (
                "simulated_instructions_per_second",
                Json::Num(instructions as f64 / sim),
            ),
            (
                "optimum",
                Json::obj(vec![
                    ("t_useful", Json::Num(opt_t)),
                    ("bips", Json::Num(opt_bips)),
                ]),
            ),
        ]);
        sweeps.push(Json::obj(fields));
    }
    let wall = start.elapsed().as_secs_f64();
    // The shard harness runs after the local sweeps so the OOO reference
    // exists for the byte-identity assert; `wall_seconds` is captured
    // first so it keeps meaning what it always has (local trace gen plus
    // simulation), not subprocess startup.
    let sharding = if shard_count > 0 {
        Some(shard_perf(shard_count, &params, ooo_reference.as_ref())?)
    } else {
        None
    };
    // The yield harness: the Monte Carlo variation sweep on the
    // out-of-order core, reusing the warm arenas. Runs after `wall` is
    // captured so `wall_seconds` keeps its historical meaning; the MC cost
    // is reported on its own as `mc_sim_seconds`.
    let yield_perf = {
        use fo4depth::study::yield_sweep::{run_yield_plan, YieldPlan};
        let mut variation = VariationSpec::new(1);
        if quick {
            variation.samples = 24;
        }
        let spec = SweepSpec {
            core: CoreKind::OutOfOrder,
            profiles: &profs,
            params: &params,
            structures: &structures,
            overhead: Fo4::new(1.8),
            points: &points,
            observed: false,
        };
        let plan =
            YieldPlan::build(spec, variation, pool).expect("default variation spec is valid");
        let mc_cells = plan.sample_cells();
        let lanes = batch.resolve(CoreKind::OutOfOrder, points.len());
        let mc_start = std::time::Instant::now();
        let sweep = run_yield_plan(&plan, &arenas, pool, Some(lanes));
        let mc_sim = mc_start.elapsed().as_secs_f64();
        let (nom_t, nom_bips) = sweep.nominal_optimum();
        let (mc_t, mc_yw) = sweep.yield_optimum_mc();
        let (fast_t, fast_yw) = sweep.yield_optimum_fast();
        let agreement = sweep.agreement();
        eprintln!(
            "yield: {} dies x {} points in {mc_sim:.3} s \
             ({:.0} MC cells/s), optimum {mc_t} FO4 vs nominal {nom_t} FO4",
            sweep.samples,
            points.len(),
            mc_cells as f64 / mc_sim
        );
        Json::obj(vec![
            ("samples", Json::uint(u64::from(sweep.samples))),
            ("mc_cells", Json::uint(mc_cells as u64)),
            ("mc_sim_seconds", Json::Num(mc_sim)),
            ("mc_samples_per_sec", Json::Num(mc_cells as f64 / mc_sim)),
            (
                "optimum_nominal",
                Json::obj(vec![
                    ("t_useful", Json::Num(nom_t)),
                    ("bips", Json::Num(nom_bips)),
                ]),
            ),
            (
                "optimum_yield_mc",
                Json::obj(vec![
                    ("t_useful", Json::Num(mc_t)),
                    ("ywbips", Json::Num(mc_yw)),
                ]),
            ),
            (
                "optimum_yield_fast",
                Json::obj(vec![
                    ("t_useful", Json::Num(fast_t)),
                    ("ywbips", Json::Num(fast_yw)),
                ]),
            ),
            (
                "agreement",
                Json::obj(vec![
                    ("max_yield_abs_err", Json::Num(agreement.max_yield_abs_err)),
                    (
                        "optimum_step_delta",
                        Json::Int(agreement.optimum_step_delta),
                    ),
                ]),
            ),
        ])
    };
    let mut doc_fields = vec![
        ("schema_version", Json::Int(6)),
        (
            "workload",
            Json::obj(vec![
                (
                    "cores",
                    Json::Arr(
                        cores
                            .iter()
                            .map(|c| {
                                Json::str(match c {
                                    CoreKind::OutOfOrder => "ooo",
                                    CoreKind::InOrder => "inorder",
                                })
                            })
                            .collect(),
                    ),
                ),
                (
                    "points",
                    Json::Arr(points.iter().map(|t| Json::Num(t.get())).collect()),
                ),
                (
                    "benchmarks",
                    Json::Arr(profs.iter().map(|p| Json::str(&p.name)).collect()),
                ),
                ("warmup", Json::uint(params.warmup)),
                ("measure", Json::uint(params.measure)),
                ("seed", Json::uint(params.seed)),
            ]),
        ),
        (
            "jobs",
            Json::uint(fo4depth::exec::global().threads() as u64),
        ),
        ("trace_gen_seconds", Json::Num(trace_gen)),
        ("wall_seconds", Json::Num(wall)),
        ("sweeps", Json::Arr(sweeps)),
        ("yield", yield_perf),
    ];
    if let Some(sharding) = sharding {
        doc_fields.push(("sharding", sharding));
    }
    let doc = Json::obj(doc_fields);
    let text = doc.pretty();
    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!("cannot write {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
            eprintln!(
                "wrote {path}: {wall:.3} s wall ({trace_gen:.3} s trace gen), \
                 {total_cycles} cycles, last sweep {total_rate:.0} cycles/s"
            );
        }
        None => print!("{text}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// Parses the daemon options shared by `serve` and `route` into a
/// [`ServeConfig`]. Does not call `args.finish()` — `route` still has its
/// own flags to take afterwards.
fn serve_config_from(args: &mut Args) -> Result<ServeConfig, ArgError> {
    let mut config = ServeConfig::default();
    if let Some(addr) = args.take_opt::<String>("--addr")? {
        config.addr = addr;
    }
    if let Some(n) = args.take_opt::<usize>("--workers")? {
        if n == 0 {
            return Err(ArgError("--workers needs a positive value".into()));
        }
        config.workers = n;
    }
    if let Some(n) = args.take_opt("--queue")? {
        config.queue_capacity = n;
    }
    if let Some(n) = args.take_opt("--cache")? {
        config.response_entries = n;
    }
    if let Some(n) = args.take_opt("--cell-cache")? {
        config.cell_entries = n;
    }
    if let Some(n) = args.take_opt("--max-body")? {
        config.max_body = n;
    }
    if let Some(ms) = args.take_opt::<u64>("--timeout-ms")? {
        config.io_timeout = std::time::Duration::from_millis(ms.max(1));
    }
    if let Some(ms) = args.take_opt::<u64>("--deadline-ms")? {
        config.request_deadline = std::time::Duration::from_millis(ms.max(1));
    }
    if let Some(dir) = args.take_opt::<String>("--cache-dir")? {
        config.cache_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(policy) = args.take_opt::<String>("--fsync")? {
        config.fsync = FsyncPolicy::parse(&policy).ok_or_else(|| {
            ArgError(format!(
                "unknown fsync policy {policy}; expected always, batch, or off"
            ))
        })?;
    }
    Ok(config)
}

/// Binds and runs a daemon until SIGTERM/SIGINT, then drains and exits 0.
/// Prints the bound address on stdout once listening, so scripts (and the
/// CI smoke jobs) know when to connect.
fn run_server(config: ServeConfig) -> ExitCode {
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            use std::io::Write as _;
            println!("listening on {addr}");
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("cannot query bound address: {e}");
            return ExitCode::FAILURE;
        }
    }
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the single-node simulation service.
fn cmd_serve(mut args: Args) -> Result<ExitCode, ArgError> {
    apply_jobs(&mut args)?;
    let config = serve_config_from(&mut args)?;
    args.finish()?;
    Ok(run_server(config))
}

/// Runs the routing tier: the same HTTP surface as `serve`, but cell
/// simulation scatters to the owning `--shard` daemons by consistent
/// hashing and gathers back byte-identically. The router keeps its own
/// response/cell caches (and optional `--cache-dir`), so warm traffic
/// never leaves the tier.
fn cmd_route(mut args: Args) -> Result<ExitCode, ArgError> {
    apply_jobs(&mut args)?;
    let mut config = serve_config_from(&mut args)?;
    config.shards = args.take_multi::<String>("--shard")?;
    if config.shards.is_empty() {
        return Err(ArgError(
            "route needs at least one --shard HOST:PORT".into(),
        ));
    }
    if let Some(n) = args.take_opt::<usize>("--shard-connections")? {
        if n == 0 {
            return Err(ArgError(
                "--shard-connections needs a positive value".into(),
            ));
        }
        config.upstream.connections = n;
    }
    if let Some(n) = args.take_opt::<usize>("--shard-retries")? {
        config.upstream.retries = n;
    }
    if let Some(ms) = args.take_opt::<u64>("--shard-backoff-ms")? {
        config.upstream.backoff = std::time::Duration::from_millis(ms);
    }
    if let Some(ms) = args.take_opt::<u64>("--shard-timeout-ms")? {
        config.upstream.io_timeout = std::time::Duration::from_millis(ms.max(1));
    }
    if let Some(n) = args.take_opt::<usize>("--ring-replicas")? {
        if n == 0 {
            return Err(ArgError("--ring-replicas needs a positive value".into()));
        }
        config.upstream.ring_replicas = n;
    }
    if let Some(n) = args.take_opt::<usize>("--replication")? {
        if n == 0 {
            return Err(ArgError("--replication needs a positive value".into()));
        }
        config.upstream.replication = n;
    }
    if let Some(spec) = args.take_opt::<String>("--net-faults")? {
        config.upstream.net_fault = parse_net_faults(&spec)?;
    }
    args.finish()?;
    Ok(run_server(config))
}

/// Parses a `--net-faults` schedule: comma-separated fault tokens,
/// pushed FIFO onto the per-operation scripts of a
/// [`ScriptedNetFaults`]. `connect-pass`/`read-pass` script an explicit
/// clean operation (to position later faults mid-sweep); once a script
/// runs dry that operation passes cleanly forever.
fn parse_net_faults(spec: &str) -> Result<Arc<ScriptedNetFaults>, ArgError> {
    let faults = ScriptedNetFaults::new();
    for token in spec.split(',').filter(|t| !t.is_empty()) {
        match token {
            "connect-refuse" => faults.script_connect(Some(InjectedNetFault::Refuse)),
            "connect-pass" => faults.script_connect(None),
            "read-hang" => faults.script_read(Some(InjectedNetFault::Hang)),
            "read-truncate" => faults.script_read(Some(InjectedNetFault::Truncate)),
            "read-garbage" => faults.script_read(Some(InjectedNetFault::Garbage)),
            "read-pass" => faults.script_read(None),
            other => {
                return Err(ArgError(format!(
                    "unknown net-fault token {other:?}; expected connect-refuse, \
                     connect-pass, read-hang, read-truncate, read-garbage, or read-pass"
                )))
            }
        }
    }
    Ok(faults)
}

/// Offline maintenance of a persistent cell cache directory: `stat`
/// summarizes, `verify` additionally decodes every live payload, and
/// `compact` rewrites the log atomically keeping only the winning record
/// per fingerprint. None of these may race a live daemon on the same
/// directory.
fn cmd_cache(mut args: Args) -> Result<ExitCode, ArgError> {
    let dir = args
        .take_opt::<String>("--cache-dir")?
        .ok_or_else(|| ArgError("cache needs --cache-dir DIR".into()))?;
    let action = args
        .take_positional()
        .ok_or_else(|| ArgError("cache needs an action: stat, verify, or compact".into()))?;
    args.finish()?;
    let dir = std::path::Path::new(&dir);

    let print_report = |label: &str, r: &store::LogReport| {
        println!("{label}: {}", dir.join(store::LOG_FILE).display());
        println!(
            "  header          {}",
            if r.header_ok { "ok" } else { "BAD" }
        );
        println!("  log bytes       {}", r.log_bytes);
        println!("  records         {}", r.records);
        println!("  live entries    {}", r.entries);
        println!("  live bytes      {}", r.live_bytes);
        println!("  corrupt tail    {} bytes", r.corrupt_tail_bytes);
        if !r.by_core.is_empty() {
            println!("  cells by core");
            for (core, n) in &r.by_core {
                println!("    {core:<13} {n}");
            }
        }
        if !r.by_benchmark.is_empty() {
            println!("  cells by benchmark");
            for (bench, n) in &r.by_benchmark {
                println!("    {bench:<13} {n}");
            }
        }
    };

    match action.as_str() {
        "stat" | "verify" => {
            let verify = action == "verify";
            let report = match store::inspect(dir, verify) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("cannot read cache log: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            };
            print_report(if verify { "verify" } else { "stat" }, &report);
            if verify {
                println!("  payload errors  {}", report.payload_errors);
            }
            // stat reports whatever it finds; verify fails loudly when
            // any live payload is undecodable (recovery would drop it).
            if verify && (report.payload_errors > 0 || !report.header_ok) {
                return Ok(ExitCode::FAILURE);
            }
            Ok(ExitCode::SUCCESS)
        }
        "compact" => {
            let report = match store::compact(dir) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("compact failed: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            };
            println!("compacted: {}", dir.join(store::LOG_FILE).display());
            println!(
                "  bytes           {} -> {}",
                report.bytes_before, report.bytes_after
            );
            println!("  live entries    {}", report.entries);
            println!(
                "  superseded      {} records dropped",
                report.superseded_dropped
            );
            println!(
                "  corrupt tail    {} bytes dropped",
                report.corrupt_tail_bytes
            );
            Ok(ExitCode::SUCCESS)
        }
        other => Err(ArgError(format!(
            "unknown cache action {other}; expected stat, verify, or compact"
        ))),
    }
}

fn main() -> ExitCode {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        return usage();
    }
    let cmd = raw.remove(0);
    let args = Args::new(raw);
    let result = match cmd.as_str() {
        "table3" => args.finish().map(|()| {
            print!("{}", render::table3(&table3(&StructureSet::alpha_21264())));
            ExitCode::SUCCESS
        }),
        "sweep" => cmd_sweep(args),
        "bench" => cmd_bench(args),
        "record" => cmd_record(args),
        "replay" => cmd_replay(args),
        "validate" => args.finish().map(|()| {
            let params = SimParams {
                warmup: 30_000,
                measure: 60_000,
                seed: 1,
            };
            let rows = validation::validate_all(&params, &Bands::default());
            print!("{}", validation::render(&rows));
            ExitCode::SUCCESS
        }),
        "floorplan" => args.finish().map(|()| {
            let plan = Floorplan::of(
                &fo4depth::study::capacity::CapacityChoice::base(),
                TechNode::NM_100,
            );
            println!("Alpha-class floorplan at 100 nm (fo4depth-cacti area model):");
            println!("  DL1        {:>7.2} mm2", plan.dcache_mm2);
            println!("  I-cache    {:>7.2} mm2", plan.icache_mm2);
            println!("  L2 (2 MB)  {:>7.2} mm2", plan.l2_mm2);
            println!("  window     {:>7.2} mm2", plan.window_mm2);
            println!("  regfiles   {:>7.2} mm2", plan.regfiles_mm2);
            println!("  predictor  {:>7.2} mm2", plan.predictor_mm2);
            println!(
                "  core total {:>7.2} mm2  (span {:.2} mm)",
                plan.core_mm2,
                plan.core_span_mm()
            );
            println!(
                "  die total  {:>7.2} mm2  (span {:.2} mm)",
                plan.total_mm2,
                plan.die_span_mm()
            );
            let model = fo4depth_fo4::WireModel::default();
            println!(
                "  front-end transport: {:.2} mm = {:.1} FO4 of repeated wire",
                plan.front_end_distance_mm(),
                plan.front_end_wire_fo4(&model).get()
            );
            ExitCode::SUCCESS
        }),
        "yield" => cmd_yield(args),
        "report" => cmd_report(args),
        "perf" => cmd_perf(args),
        "serve" => cmd_serve(args),
        "route" => cmd_route(args),
        "cache" => cmd_cache(args),
        "experiments" => args.finish().map(|()| {
            for e in registry() {
                println!(
                    "{:16} {}\n{:16} paper: {}\n{:16} run:   {}\n",
                    e.id, e.title, "", e.paper, "", e.target
                );
            }
            ExitCode::SUCCESS
        }),
        other => {
            eprintln!("fo4depth: unknown command {other}");
            return usage();
        }
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("fo4depth {cmd}: {e}");
            eprintln!("run `fo4depth` with no arguments for usage");
            ExitCode::from(2)
        }
    }
}
