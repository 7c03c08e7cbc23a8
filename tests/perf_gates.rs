//! Timing gates, run on demand:
//!
//! ```text
//! cargo test --release --test perf_gates -- --ignored --test-threads 1
//! ```
//!
//! A wall-clock bound cannot hold on a loaded machine or under the
//! default parallel test runner, so both gates are `#[ignore]`d in the
//! plain `cargo test` run and CI runs them in a step of their own. Each
//! pairs its timing bound with a byte-identity assert, so a fast wrong
//! answer fails too. Current numbers for every workload come from
//! `perfbench`; these gates only hold floors.
//!
//! - **The lanes pay.** On the full out-of-order sweep at 10 000 + 40 000
//!   instructions, the lane-batched sweep is at least 1.0× as fast as the
//!   per-cell sweep, and the two are bit-identical.
//! - **Shards scale.** Three cold `fo4depth serve --jobs 1` shards route
//!   the quick full out-of-order sweep at least 1.2× faster than one
//!   shard, and the routed sweeps equal the local per-cell sweep.

mod common;

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use fo4depth::serve::api::{RequestLimits, SweepRequest};
use fo4depth::serve::ServeConfig;
use fo4depth::study::latency::StructureSet;
use fo4depth::study::sim::SimParams;
use fo4depth::study::sweep::{
    auto_lanes, build_arenas, depth_sweep_arenas, depth_sweep_arenas_batched, standard_points,
    CoreKind, DepthSweep, SweepSpec,
};
use fo4depth::util::Json;
use fo4depth::workload::{profiles, TraceArena};
use fo4depth_fo4::Fo4;

/// Seconds taken by `f`, and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64(), value)
}

/// Calls `f` with the full out-of-order sweep (all 18 profiles, the
/// standard grid) and its arenas, built once on the global pool.
fn with_full_ooo_sweep<T>(
    params: &SimParams,
    f: impl FnOnce(&SweepSpec<'_>, &[Arc<TraceArena>]) -> T,
) -> T {
    let profs = profiles::all();
    let structures = StructureSet::alpha_21264();
    let points = standard_points();
    let spec = SweepSpec {
        core: CoreKind::OutOfOrder,
        profiles: &profs,
        params,
        structures: &structures,
        overhead: Fo4::new(1.8),
        points: &points,
        observed: false,
    };
    let arenas = build_arenas(&profs, params, fo4depth::exec::global());
    f(&spec, &arenas)
}

#[test]
#[ignore = "timing gate; run with --release -- --ignored --test-threads 1"]
fn batched_full_ooo_sweep_is_no_slower_than_per_cell() {
    let params = SimParams {
        warmup: 10_000,
        measure: 40_000,
        seed: 1,
    };
    let pool = fo4depth::exec::global();
    // Simulation only, over shared arenas. Three alternating rounds; each
    // driver keeps its fastest, so one descheduled round does not decide
    // the gate.
    let (per_cell_s, batched_s) = with_full_ooo_sweep(&params, |spec, arenas| {
        let lanes = auto_lanes(spec.core, spec.points.len());
        let (mut per_cell_s, mut batched_s) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            let (s, per_cell) = timed(|| depth_sweep_arenas(spec, arenas, pool));
            per_cell_s = per_cell_s.min(s);
            let (s, batched) = timed(|| depth_sweep_arenas_batched(spec, arenas, pool, lanes));
            batched_s = batched_s.min(s);
            common::assert_sweeps_bitwise_eq("batched vs per-cell", &per_cell, &batched);
        }
        (per_cell_s, batched_s)
    });
    let speedup = per_cell_s / batched_s;
    eprintln!(
        "full OOO sweep: per-cell {per_cell_s:.3} s, batched {batched_s:.3} s \
         ({speedup:.3}x) on {} pool threads",
        pool.threads()
    );
    assert!(
        speedup >= 1.0,
        "lane-batched sweep below the 1.0x floor: {speedup:.3}x"
    );
}

/// One `fo4depth serve --jobs 1` subprocess, killed on drop.
struct Shard {
    child: Child,
    addr: String,
}

impl Shard {
    fn spawn() -> Shard {
        let mut child = Command::new(env!("CARGO_BIN_EXE_fo4depth"))
            .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "1"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn fo4depth serve");
        let mut reader = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read listening line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
            .to_string();
        // Keep draining stdout so the shard can never block on the pipe.
        std::thread::spawn(move || {
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        });
        Shard { child, addr }
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Routes `req` through a fresh router engine over `count` fresh shards:
/// the sweep and the seconds it took, shard startup excluded.
fn routed_sweep(count: usize, req: &SweepRequest) -> (f64, DepthSweep) {
    let shards: Vec<Shard> = (0..count).map(|_| Shard::spawn()).collect();
    let config = ServeConfig {
        shards: shards.iter().map(|s| s.addr.clone()).collect(),
        ..ServeConfig::default()
    };
    let engine = fo4depth::serve::build_engine(&config).expect("router engine");
    timed(|| engine.sweep(req, false))
}

#[test]
#[ignore = "timing gate; run with --release -- --ignored --test-threads 1"]
fn three_cold_shards_beat_one() {
    let params = SimParams {
        warmup: 2_000,
        measure: 8_000,
        seed: 1,
    };
    let spec = Json::obj(vec![
        ("core", Json::str("ooo")),
        ("warmup", Json::uint(params.warmup)),
        ("measure", Json::uint(params.measure)),
        ("seed", Json::uint(params.seed)),
    ]);
    let req = SweepRequest::from_json(&spec, &RequestLimits::default()).expect("valid spec");
    let (single_s, single) = routed_sweep(1, &req);
    let (fleet_s, fleet) = routed_sweep(3, &req);
    common::assert_sweeps_bitwise_eq("3 shards vs 1 shard", &single, &fleet);
    let reference = with_full_ooo_sweep(&params, |spec, arenas| {
        depth_sweep_arenas(spec, arenas, fo4depth::exec::global())
    });
    common::assert_sweeps_bitwise_eq("routed vs local per-cell sweep", &reference, &fleet);

    let speedup = single_s / fleet_s;
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    eprintln!(
        "sharding: 3 shards {fleet_s:.3} s vs 1 shard {single_s:.3} s \
         ({speedup:.2}x) at --jobs 1 per shard on {cpus} cpus"
    );
    // Three one-thread shards hold three cores against the baseline's one;
    // on a single core horizontal scale is impossible.
    if cpus < 2 {
        eprintln!("single-core machine: the 1.2x shard floor does not apply");
        return;
    }
    assert!(
        speedup >= 1.2,
        "sharded tier below the 1.2x floor: {speedup:.2}x"
    );
}
