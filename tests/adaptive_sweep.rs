//! End-to-end guarantees of the adaptive sweep planner and the streaming
//! `/v1/sweep` endpoint.
//!
//! Three claims:
//!
//! 1. **Bitwise equivalence.** An adaptive sweep probes a subset of the
//!    dense grid through the same grid dispatch, so every probed point is
//!    bit-identical to its dense counterpart — and re-densifying the
//!    adaptive result (simulating only the skipped points) reproduces the
//!    full dense sweep byte for byte, across cores × observed ×
//!    pool sizes × lane shapes. On the full Figure 4 grid (all 18
//!    profiles, both cores) the search lands on the dense optimum while
//!    simulating at least 2.5× fewer cells.
//! 2. **Planner convergence.** For any unimodal merit curve and any knob
//!    setting, the planner converges, never re-probes a point, and never
//!    exceeds the dense budget (proptest).
//! 3. **Streaming transport.** A streamed `/v1/sweep` delivers per-point
//!    chunks that reassemble byte-identically to the buffered body, the
//!    first chunk leaves before the sweep completes, a slow reader only
//!    delays (never corrupts) the stream, and shutdown drains a stream
//!    mid-flight.

mod common;

use std::time::Duration;

use common::{counter, metrics, post, start, StreamingClient};
use fo4depth::exec::Pool;
use fo4depth::serve::ServeConfig;
use fo4depth::study::adaptive::{AdaptiveConfig, AdaptivePlanner};
use fo4depth::study::latency::StructureSet;
use fo4depth::study::sim::SimParams;
use fo4depth::study::sweep::{
    adaptive_sweep_arenas, auto_lanes, build_arenas, depth_sweep_arenas, depth_sweep_spec,
    standard_points, CoreKind, SweepSpec,
};
use fo4depth::util::Json;
use fo4depth::workload::profiles;
use fo4depth_fo4::Fo4;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// 1. Adaptive ≡ dense, bitwise, across the execution matrix
// ---------------------------------------------------------------------------

#[test]
fn redensified_adaptive_sweep_matches_dense_bitwise_everywhere() {
    let profs = vec![
        profiles::by_name("164.gzip").unwrap(),
        profiles::by_name("181.mcf").unwrap(),
    ];
    let params = SimParams {
        warmup: 2_000,
        measure: 6_000,
        seed: 1,
    };
    let structures = StructureSet::alpha_21264();
    let points = standard_points();
    let serial = Pool::new(1);
    let arenas = build_arenas(&profs, &params, &serial);
    let max = fo4depth::exec::default_threads().max(2);

    for core in [CoreKind::OutOfOrder, CoreKind::InOrder] {
        for observed in [false, true] {
            let spec = SweepSpec {
                core,
                profiles: &profs,
                params: &params,
                structures: &structures,
                overhead: Fo4::new(1.8),
                points: &points,
                observed,
            };
            let dense = depth_sweep_spec(&spec, &serial);
            let (best_t, best_bips) = dense.optimum(None);
            for jobs in [1, max] {
                let pool = Pool::new(jobs);
                for lanes in [1, 2, auto_lanes(core, points.len())] {
                    let context = format!("{core:?} observed={observed} jobs={jobs} lanes={lanes}");
                    let a = adaptive_sweep_arenas(
                        &spec,
                        &arenas,
                        &pool,
                        lanes,
                        &AdaptiveConfig::default(),
                    );
                    assert!(
                        a.cells_simulated * 2 <= a.cells_dense,
                        "{context}: probed {} of {} cells",
                        a.cells_simulated,
                        a.cells_dense
                    );
                    // The probed subset already contains the dense optimum,
                    // bit for bit (same dispatch, same seed — not "close").
                    assert_eq!(
                        a.sweep.optimum(None),
                        (best_t, best_bips),
                        "{context}: adaptive optimum differs from dense"
                    );
                    // Completing the sweep point-by-point reproduces the
                    // dense sweep exactly.
                    let full = a.densify(&spec, &arenas, &pool, lanes);
                    common::assert_sweeps_bitwise_eq(&context, &dense, &full);
                }
            }
        }
    }
}

/// The adaptive planner's claim on the paper's full grid: for both cores
/// over all 18 profiles at 2 000 + 8 000 instructions, the adaptive sweep
/// finds exactly the dense (per-cell) optimum and simulates at least 2.5×
/// fewer cells than the dense sweep.
#[test]
fn adaptive_sweep_finds_the_full_grid_optimum_with_far_fewer_cells() {
    let profs = profiles::all();
    assert_eq!(profs.len(), 18);
    let params = SimParams {
        warmup: 2_000,
        measure: 8_000,
        seed: 1,
    };
    let structures = StructureSet::alpha_21264();
    let points = standard_points();
    let pool = fo4depth::exec::global();
    let arenas = build_arenas(&profs, &params, pool);
    for core in [CoreKind::OutOfOrder, CoreKind::InOrder] {
        let spec = SweepSpec {
            core,
            profiles: &profs,
            params: &params,
            structures: &structures,
            overhead: Fo4::new(1.8),
            points: &points,
            observed: false,
        };
        let dense = depth_sweep_arenas(&spec, &arenas, pool);
        let lanes = auto_lanes(core, points.len());
        let a = adaptive_sweep_arenas(&spec, &arenas, pool, lanes, &AdaptiveConfig::default());
        assert_eq!(
            a.sweep.optimum(None),
            dense.optimum(None),
            "{core:?}: adaptive sweep missed the dense optimum"
        );
        assert_eq!(a.cells_dense, dense.points.len() * profs.len());
        #[allow(clippy::cast_precision_loss)]
        let ratio = a.cells_dense as f64 / a.cells_simulated as f64;
        assert!(
            ratio >= 2.5,
            "{core:?}: adaptive simulated {} of {} cells, only {ratio:.2}x fewer",
            a.cells_simulated,
            a.cells_dense
        );
    }
}

// ---------------------------------------------------------------------------
// 2. Planner convergence under arbitrary knobs (proptest)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// For any grid size, peak position, knob setting, and core, the
    /// planner converges in a bounded number of rounds, probes each point
    /// at most once (so it never exceeds the dense cell count), and — at
    /// grid-resolution tolerance — lands exactly on the peak.
    #[test]
    fn planner_converges_without_exceeding_the_dense_budget(
        n in 2usize..24,
        peak_sel in 0.0f64..1.0,
        coarse_step in 0usize..6,
        tolerance in prop_oneof![Just(0.0f64), 0.0f64..4.0],
        seed in proptest::option::of(2.0f64..40.0),
        inorder in any::<bool>(),
    ) {
        let points: Vec<Fo4> = (0..n).map(|i| Fo4::new(2.0 + 1.5 * i as f64)).collect();
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let peak = (((n - 1) as f64) * peak_sel).round() as usize;
        let core = if inorder { CoreKind::InOrder } else { CoreKind::OutOfOrder };
        let config = AdaptiveConfig { coarse_step, tolerance, seed };
        let mut planner = AdaptivePlanner::new(&points, core, Fo4::new(1.8), &config);
        let mut rounds = 0usize;
        loop {
            let batch = planner.next_batch();
            if batch.is_empty() {
                break;
            }
            rounds += 1;
            prop_assert!(rounds <= n + 2, "planner failed to converge");
            for i in batch {
                #[allow(clippy::cast_precision_loss)]
                planner.record(i, 100.0 - (i as f64 - peak as f64).abs());
            }
        }
        prop_assert!(planner.done());
        let order = planner.probe_order();
        prop_assert!(order.len() <= n, "{} probes exceed the {n}-point dense budget", order.len());
        let unique: std::collections::BTreeSet<&usize> = order.iter().collect();
        prop_assert_eq!(unique.len(), order.len(), "a grid point was probed twice");
        if tolerance == 0.0 {
            prop_assert_eq!(planner.incumbent_index(), Some(peak), "missed the peak");
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Streaming transport
// ---------------------------------------------------------------------------

#[test]
fn streamed_chunks_reassemble_byte_identical_to_the_buffered_body() {
    let server = start(ServeConfig::default());
    for base in [
        r#""benchmarks":["164.gzip"],"points":[4,6,8],"warmup":1000,"measure":3000"#,
        r#""benchmarks":["164.gzip"],"points":[2,4,6,8,10,12],"warmup":1000,"measure":3000,"mode":"adaptive""#,
    ] {
        let mut client = StreamingClient::post(
            server.addr,
            "/v1/sweep",
            &format!("{{{base},\"stream\":true}}"),
        );
        assert_eq!(client.status, 200);
        let chunks = client.drain();
        assert!(
            chunks.len() >= 4,
            "per-point fragments, not one blob: {} chunks",
            chunks.len()
        );

        // The streamed request warmed the response cache for its buffered
        // twin: same bytes, zero additional simulation.
        let m = metrics(server.addr);
        let cells_before = counter(&m, &["caches", "cells", "misses"]);
        let buffered = post(server.addr, "/v1/sweep", &format!("{{{base}}}"));
        assert_eq!(buffered.status, 200);
        assert_eq!(
            chunks.concat(),
            buffered.body,
            "streamed != buffered for {base}"
        );
        let m = metrics(server.addr);
        assert_eq!(
            counter(&m, &["caches", "cells", "misses"]),
            cells_before,
            "buffered twin re-simulated after a streamed sweep"
        );
    }

    let m = metrics(server.addr);
    assert_eq!(counter(&m, &["sweeps", "streamed"]), 2);
    assert!(counter(&m, &["sweeps", "stream_chunks"]) >= 8);
    assert_eq!(counter(&m, &["sweeps", "adaptive"]), 1);
    assert!(counter(&m, &["sweeps", "cells_saved"]) > 0);
}

#[test]
fn first_chunk_arrives_before_the_sweep_completes() {
    let server = start(ServeConfig::default());
    // A 15-point dense grid at a fat measure window: the head fragment
    // must arrive while most of the grid is still unsimulated.
    let mut client = StreamingClient::post(
        server.addr,
        "/v1/sweep",
        r#"{"benchmarks":["164.gzip"],"warmup":4000,"measure":40000,"stream":true}"#,
    );
    let head = client.next_chunk().expect("head fragment");
    assert!(head.contains("\"points\": ["), "head opens the point array");
    assert!(!head.contains("optima"), "head is not the whole body");
    // The stream-finished counter only moves once every fragment has been
    // rendered; holding a data chunk while it still reads 0 proves
    // delivery began before the sweep completed.
    assert_eq!(
        counter(&metrics(server.addr), &["sweeps", "streamed"]),
        0,
        "stream already finished before its first chunk was consumed"
    );
    let mut chunks = vec![head];
    chunks.extend(client.drain());
    let body = chunks.concat();
    let doc = Json::parse(&body).expect("assembled stream parses");
    assert!(
        doc.get("optima").is_some(),
        "terminal summary chunk arrived"
    );
    assert_eq!(
        doc.get("points").and_then(Json::as_arr).map(<[Json]>::len),
        Some(15),
        "every grid point streamed"
    );
    assert_eq!(counter(&metrics(server.addr), &["sweeps", "streamed"]), 1);
}

#[test]
fn slow_reader_gets_the_same_bytes_and_shutdown_drains_mid_stream() {
    let server = start(ServeConfig::default());
    let base = r#""benchmarks":["164.gzip"],"points":[3,5,7,9],"warmup":1000,"measure":3000"#;
    let buffered = post(server.addr, "/v1/sweep", &format!("{{{base}}}"));
    assert_eq!(buffered.status, 200);

    // A reader that stalls between chunks exerts TCP backpressure; the
    // server must simply wait and deliver identical bytes.
    let mut slow = StreamingClient::post(
        server.addr,
        "/v1/sweep",
        &format!("{{{base},\"stream\":true}}"),
    );
    let mut chunks = Vec::new();
    while let Some(c) = slow.next_chunk() {
        chunks.push(c);
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        chunks.concat(),
        buffered.body,
        "slow reader saw different bytes"
    );

    // Shutdown mid-stream: the in-flight stream drains to its terminator.
    let mut client = StreamingClient::post(
        server.addr,
        "/v1/sweep",
        r#"{"benchmarks":["181.mcf"],"warmup":2000,"measure":20000,"stream":true}"#,
    );
    let head = client.next_chunk().expect("head fragment");
    server.handle.shutdown();
    let mut chunks = vec![head];
    chunks.extend(client.drain());
    let doc = Json::parse(&chunks.concat()).expect("drained stream parses");
    assert!(
        doc.get("optima").is_some(),
        "mid-stream shutdown truncated the response"
    );
}
