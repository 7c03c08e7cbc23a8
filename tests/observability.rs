//! Integration tests of the observability layer: slot-exact CPI identity,
//! non-perturbation, determinism, loop-sensitivity directions, and report
//! serialization.

use std::sync::Arc;

use fo4depth::pipeline::{Counters, StallCause};
use fo4depth::study::loops::{stretched_config, CriticalLoop};
use fo4depth::study::report;
use fo4depth::study::sim::{run_inorder, run_ooo, SimParams};
use fo4depth::util::Json;
use fo4depth::workload::{profiles, BenchProfile, TraceArena};
use fo4depth_pipeline::CoreConfig;

fn quick() -> SimParams {
    SimParams {
        warmup: 2_000,
        measure: 8_000,
        seed: 1,
    }
}

fn arena_of(p: &BenchProfile, params: &SimParams) -> Arc<TraceArena> {
    Arc::new(TraceArena::generate(
        p.clone(),
        params.seed,
        params.trace_len(),
    ))
}

fn arena(name: &str, params: &SimParams) -> Arc<TraceArena> {
    arena_of(&profiles::by_name(name).expect("known benchmark"), params)
}

fn counters_of(o: &fo4depth::study::sim::BenchOutcome) -> &Counters {
    o.counters.as_ref().expect("observed run carries counters")
}

/// `cycles × width == useful_slots + Σ stall_slots` for every benchmark on
/// both cores — the golden identity a CPI stack rests on.
#[test]
fn cpi_identity_holds_for_every_benchmark_on_both_cores() {
    let cfg = CoreConfig::alpha_like();
    let params = quick();
    for p in profiles::all() {
        let a = arena_of(&p, &params);
        for (label, outcome) in [
            ("ooo", run_ooo(&cfg, &a, &params, true)),
            ("inorder", run_inorder(&cfg, &a, &params, true)),
        ] {
            let c = counters_of(&outcome);
            assert!(
                c.identity_holds(),
                "{label}/{}: {} cycles × {} width != {} useful + {} stalled",
                p.name,
                c.cycles,
                c.width,
                c.useful_slots,
                c.stall_total()
            );
            assert_eq!(
                c.cycles, outcome.result.cycles,
                "{label}/{}: counters must cover exactly the measured interval",
                p.name
            );
        }
    }
}

/// Two runs with the same seed must produce bit-identical counter blocks.
#[test]
fn counters_are_bit_identical_across_same_seed_runs() {
    let cfg = CoreConfig::alpha_like();
    let params = quick();
    let t = arena("300.twolf", &params);
    let a = run_ooo(&cfg, &t, &params, true);
    let b = run_ooo(&cfg, &t, &params, true);
    assert_eq!(a, b, "observed OoO runs must be deterministic");
    let a = run_inorder(&cfg, &t, &params, true);
    let b = run_inorder(&cfg, &t, &params, true);
    assert_eq!(a, b, "observed in-order runs must be deterministic");
}

/// Enabling counters must not change any simulated outcome: the `result`
/// block is bit-identical with observation on and off.
#[test]
fn observation_does_not_perturb_the_simulation() {
    let cfg = CoreConfig::alpha_like();
    let params = quick();
    for name in ["164.gzip", "181.mcf", "171.swim", "179.art"] {
        let a = arena(name, &params);
        let plain = run_ooo(&cfg, &a, &params, false);
        let observed = run_ooo(&cfg, &a, &params, true);
        assert_eq!(
            plain.result, observed.result,
            "{name}: observation perturbed the OoO core"
        );
        let plain = run_inorder(&cfg, &a, &params, false);
        let observed = run_inorder(&cfg, &a, &params, true);
        assert_eq!(
            plain.result, observed.result,
            "{name}: observation perturbed the in-order core"
        );
    }
}

/// Occupancy histograms sample once per observed cycle: their bucket sums
/// equal the measured cycle count.
#[test]
fn occupancy_histograms_sum_to_measured_cycles() {
    let cfg = CoreConfig::alpha_like();
    let params = quick();
    let a = arena("164.gzip", &params);
    let c = run_ooo(&cfg, &a, &params, true);
    let c = counters_of(&c);
    for (name, hist) in [
        ("window", &c.window_occupancy),
        ("rob", &c.rob_occupancy),
        ("lsq", &c.lsq_occupancy),
    ] {
        let total: u64 = hist.buckets().iter().sum();
        assert_eq!(total, c.cycles, "{name} histogram misses cycles");
        assert_eq!(hist.samples(), c.cycles);
    }
}

/// Figure 8 direction test: stretching one critical loop must monotonically
/// raise that loop's attributed stalls and monotonically lower IPC.
fn assert_loop_direction(which: CriticalLoop, attributed: &[StallCause]) {
    let base = CoreConfig::alpha_like();
    let params = quick();
    let a = arena("164.gzip", &params);
    let mut last_stalls = 0u64;
    let mut last_ipc = f64::INFINITY;
    let mut stalls_path = Vec::new();
    for extra in [0u64, 4, 10] {
        let cfg = stretched_config(&base, which, extra);
        let o = run_ooo(&cfg, &a, &params, true);
        let c = counters_of(&o);
        let stalls: u64 = attributed.iter().map(|&cause| c.stalls(cause)).sum();
        let ipc = o.result.ipc();
        assert!(
            stalls >= last_stalls,
            "{which:?} at +{extra}: attributed stalls fell ({last_stalls} -> {stalls})"
        );
        assert!(
            ipc <= last_ipc + 1e-12,
            "{which:?} at +{extra}: IPC rose ({last_ipc} -> {ipc})"
        );
        stalls_path.push(stalls);
        last_stalls = stalls;
        last_ipc = ipc;
    }
    assert!(
        stalls_path.last() > stalls_path.first(),
        "{which:?}: stretching to +10 must strictly grow attributed stalls ({stalls_path:?})"
    );
}

#[test]
fn stretching_wakeup_loop_grows_wakeup_attributed_stalls() {
    assert_loop_direction(
        CriticalLoop::IssueWakeup,
        &[StallCause::WakeupWait, StallCause::WakeupChain],
    );
}

#[test]
fn stretching_load_use_loop_grows_load_use_stalls() {
    assert_loop_direction(CriticalLoop::LoadUse, &[StallCause::LoadUseWait]);
}

#[test]
fn stretching_mispredict_penalty_grows_recovery_stalls() {
    assert_loop_direction(
        CriticalLoop::BranchMispredict,
        &[StallCause::MispredictRecovery],
    );
}

/// A serialized outcome survives a render → parse round trip unchanged.
#[test]
fn outcome_json_round_trips() {
    let cfg = CoreConfig::alpha_like();
    let params = quick();
    let a = arena("181.mcf", &params);
    let outcome = run_ooo(&cfg, &a, &params, true);
    let doc = report::outcome_json(&outcome, 280.8);
    let parsed = Json::parse(&doc.render()).expect("rendered JSON parses");
    assert_eq!(parsed, doc, "render/parse must be lossless");
    assert_eq!(parsed.get("name").and_then(Json::as_str), Some("181.mcf"));
    assert_eq!(
        parsed
            .get("counters")
            .and_then(|c| c.get("cycles"))
            .and_then(Json::as_u64),
        Some(outcome.result.cycles)
    );
    let c = counters_of(&outcome);
    let parsed_stalls = parsed
        .get("counters")
        .and_then(|j| j.get("stall_slots"))
        .expect("stall block");
    for cause in StallCause::ALL {
        assert_eq!(
            parsed_stalls.get(cause.key()).and_then(Json::as_u64),
            Some(c.stalls(cause)),
            "{} mismatch after round trip",
            cause.key()
        );
    }
}
