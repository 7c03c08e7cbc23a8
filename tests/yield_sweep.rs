//! End-to-end tests of the yield subsystem: determinism of the Monte
//! Carlo sweep across execution topologies, agreement between the
//! variance-propagation fast path and the Monte Carlo verifier, and the
//! `/v1/yield` serving contract (routed byte-identity, streamed ==
//! buffered, cache-tier reuse across a restart, failover while a yield
//! sweep is in flight, and structured rejection of impossible
//! distributions).

mod common;

use std::collections::HashSet;

use common::{
    counter, metrics, post, restart_on_cache_dir, start, start_with_cache_dir, wait_for_counter,
    StreamingClient, TestServer,
};
use fo4depth::exec::Pool;
use fo4depth::serve::api::{RequestLimits, YieldRequest};
use fo4depth::serve::ServeConfig;
use fo4depth::study::cells::CellSpec;
use fo4depth::study::latency::StructureSet;
use fo4depth::study::sim::SimParams;
use fo4depth::study::sweep::{build_arenas, standard_points, CoreKind, SweepSpec, MIN_BATCH_LANES};
use fo4depth::study::yield_sweep::{run_yield_plan, yield_sweep_spec, YieldSweep};
use fo4depth::study::YieldPlan;
use fo4depth::util::{fnv1a, Json};
use fo4depth::variation::VariationSpec;
use fo4depth::workload::profiles;
use fo4depth_fo4::Fo4;

/// Starts a router fronting the given shards, on its own ephemeral port.
fn start_router(shards: &[&TestServer]) -> TestServer {
    let config = ServeConfig {
        shards: shards.iter().map(|s| s.addr.to_string()).collect(),
        ..ServeConfig::default()
    };
    start(config)
}

/// The error code of a structured error response.
fn error_code(response: &common::Response) -> String {
    response
        .json()
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .expect("structured error code")
        .to_string()
}

// ---------------------------------------------------------------------------
// Library-level determinism and model agreement
// ---------------------------------------------------------------------------

/// Runs the reference yield sweep (2 benchmarks, 3 points, 12 dies) on the
/// given pool with the given lane cap.
fn small_yield(pool: &Pool, lanes: Option<usize>) -> YieldSweep {
    let profs = vec![
        profiles::by_name("164.gzip").unwrap(),
        profiles::by_name("181.mcf").unwrap(),
    ];
    let params = SimParams {
        warmup: 1_000,
        measure: 3_000,
        seed: 1,
    };
    let structures = StructureSet::alpha_21264();
    let points: Vec<Fo4> = [3.0, 6.0, 12.0].into_iter().map(Fo4::new).collect();
    let spec = SweepSpec {
        core: CoreKind::OutOfOrder,
        profiles: &profs,
        params: &params,
        structures: &structures,
        overhead: Fo4::new(1.8),
        points: &points,
        observed: false,
    };
    let mut variation = VariationSpec::new(7);
    variation.samples = 12;
    let plan = YieldPlan::build(spec, variation, pool).expect("valid variation spec");
    let arenas = build_arenas(&profs, &params, pool);
    run_yield_plan(&plan, &arenas, pool, lanes)
}

/// The same seed must produce the same dies and the same sweep — bit for
/// bit — on a serial pool, a 2-thread pool, a machine-width pool, and
/// under any lane batching. Parallelism and batching are scheduling
/// concerns; they must never leak into sampled outcomes.
#[test]
fn yield_sweep_is_pool_and_lane_invariant() {
    let max = fo4depth::exec::default_threads().max(2);
    let reference = small_yield(&Pool::new(1), None);
    for (threads, lanes) in [
        (1, Some(2)),
        (2, None),
        (2, Some(MIN_BATCH_LANES)),
        (max, Some(15)),
    ] {
        let candidate = small_yield(&Pool::new(threads), lanes);
        common::assert_sweeps_bitwise_eq(
            &format!("yield nominal, pool {threads} lanes {lanes:?}"),
            &reference.nominal,
            &candidate.nominal,
        );
        assert_eq!(
            reference, candidate,
            "yield sweep diverged at pool {threads} lanes {lanes:?}"
        );
    }
}

/// The analytic fast path must agree with the Monte Carlo verifier on the
/// standard grid: yields within a loose per-point band (the MC estimate is
/// binomial at 128 dies) and a yield-weighted optimum within two grid
/// steps. Both must show the paper-level effect — deep pipelines (small
/// `t_useful`) lose yield, so the yield-aware optimum is at least as
/// shallow as the nominal one.
#[test]
fn fast_path_agrees_with_monte_carlo_on_the_standard_grid() {
    let profs = vec![
        profiles::by_name("164.gzip").unwrap(),
        profiles::by_name("181.mcf").unwrap(),
    ];
    let params = SimParams {
        warmup: 400,
        measure: 1_500,
        seed: 1,
    };
    let structures = StructureSet::alpha_21264();
    let points = standard_points();
    let spec = SweepSpec {
        core: CoreKind::OutOfOrder,
        profiles: &profs,
        params: &params,
        structures: &structures,
        overhead: Fo4::new(1.8),
        points: &points,
        observed: false,
    };
    let variation = VariationSpec::new(1);
    let pool = fo4depth::exec::global();
    let sweep = yield_sweep_spec(&spec, variation, pool).expect("valid variation spec");

    let agreement = sweep.agreement();
    assert!(
        agreement.max_yield_abs_err < 0.15,
        "fast path drifted from MC: max |err| {}",
        agreement.max_yield_abs_err
    );
    assert!(
        agreement.optimum_step_delta.abs() <= 3,
        "optima {} grid steps apart",
        agreement.optimum_step_delta
    );
    // The curve is flat near its top, so the argmax alone is a noisy
    // comparison: the binding check is that the point the fast path picks
    // is near-optimal under the Monte Carlo surface.
    let (fast_t, _) = sweep.yield_optimum_fast();
    let mc_best = sweep
        .points
        .iter()
        .map(|p| p.ywbips_mc)
        .fold(f64::MIN, f64::max);
    let at_fast = sweep
        .points
        .iter()
        .find(|p| p.t_useful == fast_t)
        .expect("fast optimum is on the grid")
        .ywbips_mc;
    assert!(
        at_fast >= 0.9 * mc_best,
        "fast-path optimum at {fast_t} FO4 scores {at_fast} vs MC best {mc_best}"
    );

    let first = sweep.points.first().expect("non-empty grid");
    let last = sweep.points.last().expect("non-empty grid");
    assert!(
        first.yield_mc < last.yield_mc,
        "MC yield must fall with depth: y({}) = {} vs y({}) = {}",
        first.t_useful,
        first.yield_mc,
        last.t_useful,
        last.yield_mc
    );
    assert!(
        first.yield_fast < last.yield_fast,
        "fast yield must fall with depth"
    );

    let (nominal_t, _) = sweep.nominal_optimum();
    let (mc_t, _) = sweep.yield_optimum_mc();
    let (fast_t, _) = sweep.yield_optimum_fast();
    assert!(
        mc_t >= nominal_t,
        "yield optimum (MC) at {mc_t} FO4 is deeper than nominal {nominal_t} FO4"
    );
    assert!(
        fast_t >= nominal_t,
        "yield optimum (fast) at {fast_t} FO4 is deeper than nominal {nominal_t} FO4"
    );
}

const YIELD_LEDGER: &str = include_str!("golden/yield.txt");

/// The recorded-digest form of a yield sweep: one line for the whole
/// sweep (nominal outcomes, die count and variation digest included),
/// then one per grid point, each the FNV-1a of the value's `Debug` text —
/// the rule of `tests/golden/cells.txt`.
fn yield_ledger(sweep: &YieldSweep) -> String {
    let mut out = format!("sweep {:016x}\n", fnv1a(format!("{sweep:?}").as_bytes()));
    for p in &sweep.points {
        out.push_str(&format!(
            "point {} {:016x}\n",
            p.t_useful,
            fnv1a(format!("{p:?}").as_bytes())
        ));
    }
    out
}

/// A fixed-seed yield sweep reproduces its recorded digests through both
/// library entries: `yield_sweep_spec` (lanes picked by the library) and
/// `run_yield_plan` one cell per task. Out-of-order core, three profiles
/// (one per class), 8 dies of `VariationSpec::new(1)`, 2 000 + 8 000
/// instructions, the standard grid. There is deliberately no
/// regeneration switch: a change that moves a digest changes sampled or
/// simulated behaviour and must say why.
#[test]
fn yield_sweep_reproduces_the_golden_digests() {
    let profs: Vec<_> = ["164.gzip", "171.swim", "181.mcf"]
        .into_iter()
        .map(|n| profiles::by_name(n).expect("known benchmark"))
        .collect();
    let params = SimParams {
        warmup: 2_000,
        measure: 8_000,
        seed: 1,
    };
    let structures = StructureSet::alpha_21264();
    let points = standard_points();
    let spec = SweepSpec {
        core: CoreKind::OutOfOrder,
        profiles: &profs,
        params: &params,
        structures: &structures,
        overhead: Fo4::new(1.8),
        points: &points,
        observed: false,
    };
    let mut variation = VariationSpec::new(1);
    variation.samples = 8;
    let pool = fo4depth::exec::global();
    let auto = yield_sweep_spec(&spec, variation, pool).expect("valid variation spec");
    let plan = YieldPlan::build(spec, variation, pool).expect("valid variation spec");
    let arenas = build_arenas(&profs, &params, pool);
    let per_cell = run_yield_plan(&plan, &arenas, pool, None);
    for (entry, sweep) in [
        ("yield_sweep_spec", &auto),
        ("run_yield_plan(None)", &per_cell),
    ] {
        let got = yield_ledger(sweep);
        assert_eq!(
            got, YIELD_LEDGER,
            "{entry} drifted from tests/golden/yield.txt\n--- engine ---\n{got}"
        );
    }
}

// ---------------------------------------------------------------------------
// /v1/yield serving contract
// ---------------------------------------------------------------------------

const YIELD_BODY: &str = r#"{"benchmarks":["164.gzip","181.mcf"],"points":[4.0,6.0,9.0],
    "warmup":400,"measure":1500,"seed":11,"samples":12,"variation_seed":7}"#;

/// Distinct cell fingerprints in a plan — the cells a sweep simulates,
/// one per simulated machine (dies whose effective points quantize alike
/// share one). Counted without simulating.
fn distinct_fingerprints(plan: &YieldPlan<'_>) -> u64 {
    let unique: HashSet<u64> = plan.cells().iter().map(CellSpec::fingerprint).collect();
    unique.len() as u64
}

/// Cells a `YIELD_BODY` sweep simulates: the distinct fingerprints of its
/// plan (nominal grid plus dies), built exactly as the daemon builds it.
fn yield_body_cells() -> u64 {
    let doc = Json::parse(YIELD_BODY).expect("YIELD_BODY is JSON");
    let req = YieldRequest::from_json(&doc, &RequestLimits::default()).expect("valid request");
    let structures = StructureSet::alpha_21264();
    let spec = SweepSpec {
        core: req.core,
        profiles: &req.profiles,
        params: &req.params,
        structures: &structures,
        overhead: req.overhead,
        points: &req.points,
        observed: false,
    };
    let plan = YieldPlan::build(spec, req.variation, fo4depth::exec::global()).expect("valid");
    assert_eq!(plan.cells().len(), (3 * 2) + (3 * 12 * 2), "plan shape");
    distinct_fingerprints(&plan)
}

/// The standard-grid plan behind a many-die Monte Carlo collapses to the
/// machines it actually simulates: OOO core, all 18 profiles, 24 dies of
/// `VariationSpec::new(1)` — 6 750 plan cells, 2 268 distinct
/// fingerprints. Counted, not simulated.
#[test]
fn standard_grid_yield_plan_has_one_cell_per_machine() {
    let profs = profiles::all();
    let params = SimParams {
        warmup: 2_000,
        measure: 8_000,
        seed: 1,
    };
    let structures = StructureSet::alpha_21264();
    let points = standard_points();
    let spec = SweepSpec {
        core: CoreKind::OutOfOrder,
        profiles: &profs,
        params: &params,
        structures: &structures,
        overhead: Fo4::new(1.8),
        points: &points,
        observed: false,
    };
    let mut variation = VariationSpec::new(1);
    variation.samples = 24;
    let plan = YieldPlan::build(spec, variation, fo4depth::exec::global()).expect("valid");
    assert_eq!(profs.len(), 18);
    assert_eq!(plan.cells().len(), 6_750);
    assert_eq!(distinct_fingerprints(&plan), 2_268);
}

#[test]
fn routed_yield_is_byte_identical_to_single_node_and_streams_the_same_bytes() {
    let shard_a = start(ServeConfig::default());
    let shard_b = start(ServeConfig::default());
    let router = start_router(&[&shard_a, &shard_b]);
    let single = start(ServeConfig::default());

    let routed = post(router.addr, "/v1/yield", YIELD_BODY);
    let local = post(single.addr, "/v1/yield", YIELD_BODY);
    assert_eq!(routed.status, 200, "body: {}", routed.body);
    assert_eq!(local.status, 200, "body: {}", local.body);
    assert_eq!(routed.body, local.body, "routed yield sweep diverged");

    // The scatter was real: shards served cells, the router never fell
    // back to a local fill.
    let m = metrics(router.addr);
    let records: u64 = m
        .get("router")
        .and_then(|r| r.get("shards"))
        .and_then(Json::as_arr)
        .expect("router shard stats")
        .iter()
        .map(|s| s.get("records").and_then(Json::as_u64).unwrap_or(0))
        .sum();
    assert!(records > 0, "no shard served any record");
    assert_eq!(counter(&m, &["router", "local_fills"]), 0);
    assert_eq!(counter(&m, &["yield", "sweeps"]), 1);
    assert_eq!(counter(&m, &["yield", "mc_samples"]), 3 * 12 * 2);

    // Streamed delivery: head + one fragment per point + tail, and the
    // chunks concatenate to exactly the buffered body — through the
    // router and on the single node alike.
    let streamed_body = &YIELD_BODY.replace("\"seed\":11", "\"seed\":11,\"stream\":true");
    for (name, addr) in [("router", router.addr), ("single", single.addr)] {
        let chunks = StreamingClient::post(addr, "/v1/yield", streamed_body).drain();
        assert_eq!(chunks.len(), 3 + 2, "{name}: head, per-point, tail");
        assert_eq!(chunks.concat(), local.body, "{name}: streamed != buffered");
    }
    let m = metrics(single.addr);
    assert_eq!(counter(&m, &["yield", "streamed"]), 1);
    assert_eq!(counter(&m, &["yield", "stream_chunks"]), 5);

    // The streamed run warmed the response cache for its buffered twin:
    // a repeat is served without another sweep.
    let again = post(single.addr, "/v1/yield", YIELD_BODY);
    assert_eq!(again.body, local.body);
    assert_eq!(
        counter(&metrics(single.addr), &["yield", "sweeps"]),
        2,
        "repeat was cache-served, not recomputed"
    );
}

/// Yield sample cells are ordinary cells: they land in the persistent
/// store and a restarted daemon replays them instead of resimulating.
#[test]
fn yield_samples_survive_a_restart_through_the_cell_store() {
    let yield_cells = yield_body_cells();
    let mut first = start_with_cache_dir(ServeConfig::default());
    let cold = post(first.addr, "/v1/yield", YIELD_BODY);
    assert_eq!(cold.status, 200, "body: {}", cold.body);
    wait_for_counter(
        first.addr,
        &["caches", "persistent", "appended"],
        yield_cells,
    );
    let dir = first.take_cache_dir();
    drop(first);

    let warm = restart_on_cache_dir(ServeConfig::default(), dir);
    let served = post(warm.addr, "/v1/yield", YIELD_BODY);
    assert_eq!(served.status, 200);
    assert_eq!(served.body, cold.body, "restart changed the yield bytes");
    let m = metrics(warm.addr);
    assert_eq!(
        counter(&m, &["caches", "persistent", "hits"]),
        yield_cells,
        "every distinct cell (nominal and per-die) replayed from the store"
    );
    assert_eq!(
        counter(&m, &["caches", "persistent", "recovered_entries"]),
        yield_cells
    );
}

/// A shard dying while a yield sweep is in flight must not change the
/// response: the router fails the dead shard's cells over to the survivor
/// and still returns the single-node bytes.
#[test]
fn yield_sweep_survives_a_shard_dying_mid_flight() {
    let shard_a = start(ServeConfig::default());
    let shard_b = start(ServeConfig::default());
    let router = start_router(&[&shard_a, &shard_b]);
    let single = start(ServeConfig::default());

    let addr = router.addr;
    let request = std::thread::spawn(move || post(addr, "/v1/yield", YIELD_BODY));
    // Kill a shard while the Monte Carlo scatter is (most likely) in
    // progress. Whether the kill lands before, during, or after the
    // scatter, the answer must be the same bytes.
    std::thread::sleep(std::time::Duration::from_millis(150));
    drop(shard_a);
    let routed = request.join().expect("request thread");
    let local = post(single.addr, "/v1/yield", YIELD_BODY);
    assert_eq!(routed.status, 200, "body: {}", routed.body);
    assert_eq!(
        routed.body, local.body,
        "mid-flight shard death changed bytes"
    );
}

/// Impossible distribution configurations are rejected with a structured
/// `400 invalid_distribution` — on shards and through the router — and
/// counted; shape errors keep the API-wide `422 invalid_request`.
#[test]
fn invalid_distributions_get_structured_400s() {
    let shard = start(ServeConfig::default());
    let router = start_router(&[&shard]);

    for addr in [shard.addr, router.addr] {
        for body in [
            r#"{"sigma_fo4":-0.1}"#,
            r#"{"distribution":"cauchy"}"#,
            r#"{"guardband":-0.5}"#,
        ] {
            let r = post(addr, "/v1/yield", body);
            assert_eq!(r.status, 400, "{body} => {}", r.body);
            assert_eq!(error_code(&r), "invalid_distribution", "{body}");
        }
        // Shape problems stay 422, like every other endpoint.
        let r = post(addr, "/v1/yield", r#"{"samples":0}"#);
        assert_eq!(r.status, 422, "body: {}", r.body);
        assert_eq!(error_code(&r), "invalid_request");
        let r = post(addr, "/v1/yield", r#"{"samples":100000}"#);
        assert_eq!(r.status, 422);
        // And a GET on the POST-only endpoint is a 405.
        let r = common::get(addr, "/v1/yield");
        assert_eq!(r.status, 405);
    }
    let m = metrics(shard.addr);
    assert_eq!(counter(&m, &["yield", "invalid_distribution"]), 3);
    assert_eq!(counter(&m, &["yield", "sweeps"]), 0, "nothing simulated");
}
