//! End-to-end tests of the sharded serving tier: real shard daemons on
//! real sockets, fronted by a real router, driven by the shared HTTP
//! client.
//!
//! The claims under test are the routing subsystem's contract:
//! byte-identity with single-node serving (dense, adaptive, and streamed),
//! failover when a shard dies, order-independent gather reassembly,
//! single-flight across the tier, keep-alive reuse on the upstream wire
//! protocol, and structured rejection of unknown schema versions.

mod common;

use std::time::Duration;

use common::{counter, metrics, post, start, StreamingClient, TestServer};
use fo4depth::serve::api::{CellsRequest, RequestLimits, SweepRequest};
use fo4depth::serve::client::Connection;
use fo4depth::serve::router::place_records;
use fo4depth::serve::{build_engine, store, ServeConfig};
use fo4depth::study::cells::assemble_sweep;
use fo4depth::study::latency::StructureSet;
use fo4depth::util::Json;

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

#[test]
fn routed_sweeps_are_byte_identical_to_single_node() {
    let shard_a = start(ServeConfig::default());
    let shard_b = start(ServeConfig::default());
    let router = start_router(&[&shard_a, &shard_b]);
    let single = start(ServeConfig::default());

    // Dense: the router scatters the cold cells across both shards and
    // must reassemble the exact bytes a single node renders.
    let dense = r#"{"benchmarks":["164.gzip","181.mcf"],"points":[5.5,7.3,9.1],"warmup":400,"measure":1500,"seed":11}"#;
    let routed = post(router.addr, "/v1/sweep", dense);
    let local = post(single.addr, "/v1/sweep", dense);
    assert_eq!(routed.status, 200, "body: {}", routed.body);
    assert_eq!(routed.body, local.body, "routed dense sweep diverged");

    // Both shards actually served cells — the scatter was real, not a
    // local fallback.
    let m = metrics(router.addr);
    let shards = m
        .get("router")
        .and_then(|r| r.get("shards"))
        .and_then(Json::as_arr)
        .expect("router shard stats");
    let records: u64 = shards
        .iter()
        .map(|s| s.get("records").and_then(Json::as_u64).unwrap_or(0))
        .sum();
    assert!(records > 0, "no shard served any record");
    assert_eq!(counter(&m, &["router", "local_fills"]), 0);

    // Adaptive: a different search mode, same byte-identity bar. The
    // probed subset must match the single node's exactly.
    let adaptive = r#"{"benchmarks":["164.gzip","181.mcf"],"points":[5.5,7.3,9.1],"warmup":400,"measure":1500,"seed":11,"mode":"adaptive"}"#;
    let routed = post(router.addr, "/v1/sweep", adaptive);
    let local = post(single.addr, "/v1/sweep", adaptive);
    assert_eq!(routed.status, 200, "body: {}", routed.body);
    assert_eq!(routed.body, local.body, "routed adaptive sweep diverged");

    // Streamed: same chunks, same bytes, end to end through the tier.
    let streamed = r#"{"benchmarks":["164.gzip","181.mcf"],"points":[5.5,7.3,9.1],"warmup":400,"measure":1500,"seed":11,"mode":"adaptive","stream":true}"#;
    let routed = StreamingClient::post(router.addr, "/v1/sweep", streamed).drain();
    let local = StreamingClient::post(single.addr, "/v1/sweep", streamed).drain();
    assert_eq!(
        routed.len(),
        local.len(),
        "routed stream chunk count diverged"
    );
    assert_eq!(
        routed.concat(),
        local.concat(),
        "routed streamed sweep diverged"
    );
}

/// A routed `/v1/run` is a scatter of one: the shard that owns the cell
/// simulates it, the router only renders, and the bytes match a single
/// node's.
#[test]
fn routed_run_simulates_on_the_owning_shard() {
    let shard_a = start(ServeConfig::default());
    let shard_b = start(ServeConfig::default());
    let router = start_router(&[&shard_a, &shard_b]);
    let single = start(ServeConfig::default());
    let shard_misses =
        || [&shard_a, &shard_b].map(|s| counter(&metrics(s.addr), &["caches", "cells", "misses"]));
    let before = shard_misses();

    let body = r#"{"benchmark":"181.mcf","t_useful":6.7,"warmup":400,"measure":1500,"seed":31}"#;
    let routed = post(router.addr, "/v1/run", body);
    let local = post(single.addr, "/v1/run", body);
    assert_eq!(routed.status, 200, "body: {}", routed.body);
    assert_eq!(routed.body, local.body, "routed run diverged");

    let after = shard_misses();
    let mut gained = [after[0] - before[0], after[1] - before[1]];
    gained.sort_unstable();
    assert_eq!(gained, [0, 1], "exactly the owning shard simulates");
    assert_eq!(
        counter(&metrics(router.addr), &["router", "local_fills"]),
        0
    );
}

#[test]
fn router_fails_over_when_a_shard_dies() {
    let shard_a = start(ServeConfig::default());
    let shard_b = start(ServeConfig::default());
    let router = start_router(&[&shard_a, &shard_b]);
    let single = start(ServeConfig::default());

    // Kill one shard before any traffic: every cell it owned must fail
    // over to the survivor, and the sweep must still be byte-identical.
    drop(shard_a);
    let body = r#"{"benchmarks":["164.gzip","181.mcf"],"points":[5.0,6.5,8.0],"warmup":400,"measure":1500,"seed":13}"#;
    let routed = post(router.addr, "/v1/sweep", body);
    let local = post(single.addr, "/v1/sweep", body);
    assert_eq!(routed.status, 200, "body: {}", routed.body);
    assert_eq!(routed.body, local.body, "failover sweep diverged");

    let m = metrics(router.addr);
    assert!(
        counter(&m, &["router", "failovers"]) >= 1,
        "no failover recorded: {}",
        m.pretty()
    );

    // The dead shard is (or soon will be) flagged down by failures or the
    // liveness probe; the survivor stays up.
    let survivor_up = m
        .get("router")
        .and_then(|r| r.get("shards"))
        .and_then(Json::as_arr)
        .expect("router shard stats")
        .iter()
        .filter_map(|s| match s.get("up") {
            Some(Json::Bool(b)) => Some(*b),
            _ => None,
        })
        .nth(1);
    assert_eq!(survivor_up, Some(true), "survivor flagged down");
}

#[test]
fn identical_concurrent_routed_sweeps_are_single_flight_across_the_tier() {
    let shard = start(ServeConfig::default());
    let router = start_router(&[&shard]);
    let body =
        r#"{"benchmarks":["164.gzip"],"points":[6.0,8.0],"warmup":400,"measure":1500,"seed":17}"#;

    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let r = post(router.addr, "/v1/sweep", body);
                    assert_eq!(r.status, 200, "body: {}", r.body);
                    r.body
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("post"))
            .collect()
    });
    assert_eq!(bodies[0], bodies[1], "concurrent responses diverged");

    // However the two requests interleaved (coalesced in flight, or the
    // second served from the response cache), the shard saw exactly one
    // scatter — the cell set simulated once for the whole tier.
    let m = metrics(router.addr);
    let shard_requests: u64 = m
        .get("router")
        .and_then(|r| r.get("shards"))
        .and_then(Json::as_arr)
        .expect("router shard stats")
        .iter()
        .map(|s| s.get("requests").and_then(Json::as_u64).unwrap_or(0))
        .sum();
    assert_eq!(shard_requests, 1, "tier saw more than one scatter");
}

#[test]
fn cells_endpoint_streams_binary_records_over_a_kept_alive_connection() {
    let shard = start(ServeConfig::default());
    let spec = Json::parse(
        r#"{"benchmarks":["164.gzip","181.mcf"],"points":[6.0,8.0],"warmup":300,"measure":1000,"seed":19}"#,
    )
    .expect("spec");
    let req = SweepRequest::from_json(&spec, &RequestLimits::default()).expect("valid spec");
    let cells = req.cells(false);
    let body = CellsRequest::body_for(&cells);

    let mut conn = Connection::connect(
        &shard.addr.to_string(),
        Duration::from_secs(10),
        Duration::from_secs(60),
    )
    .expect("connect");

    let head = conn
        .request("POST", "/v1/cells", body.as_bytes(), true)
        .expect("send cells request");
    assert_eq!(head.status, 200);
    assert!(head.chunked(), "cells response must be chunked");
    assert_eq!(
        head.header("content-type"),
        Some("application/octet-stream")
    );
    assert!(head.keep_alive(), "server must honour keep-alive");

    // Decode every record off the wire: one binary record per cell, each
    // fingerprint matching a requested cell, each payload a decodable
    // outcome.
    let mut seen = Vec::new();
    while let Some(chunk) = conn.next_chunk().expect("chunk") {
        let mut rest = &chunk[..];
        while !rest.is_empty() {
            let (fingerprint, payload, consumed) =
                store::decode_record(rest).expect("well-formed record");
            store::decode_outcome(payload).expect("decodable outcome");
            seen.push(fingerprint);
            rest = &rest[consumed..];
        }
    }
    let mut expected: Vec<u64> = cells.iter().map(|c| c.fingerprint()).collect();
    expected.sort_unstable();
    seen.sort_unstable();
    assert_eq!(seen, expected, "wire records != requested cells");

    // The same connection serves a second request — persistent upstream
    // connections are real, not advisory.
    let head = conn
        .request("POST", "/v1/cells", body.as_bytes(), true)
        .expect("second request on kept-alive connection");
    assert_eq!(head.status, 200);
    let warm = conn.read_body(&head).expect("second body");
    assert!(!warm.is_empty(), "warm repeat returned no records");
}

#[test]
fn gathered_records_place_out_of_order_duplicated_and_missing() {
    let engine = build_engine(&ServeConfig::default()).expect("engine");
    let spec = Json::parse(
        r#"{"benchmarks":["164.gzip","181.mcf"],"points":[5.0,7.0,9.0],"warmup":300,"measure":1000,"seed":23}"#,
    )
    .expect("spec");
    let req = SweepRequest::from_json(&spec, &RequestLimits::default()).expect("valid spec");
    let reference = engine.sweep(&req, false);

    let cells = req.cells(false);
    let outcomes: Vec<_> = engine
        .fill_cells(&cells)
        .iter()
        .map(|o| (**o).clone())
        .collect();

    // A hostile gather: records arrive in reverse order, the first two
    // are duplicated, one is withheld entirely, and a record for a
    // fingerprint nobody asked for is mixed in.
    let withheld = cells.len() - 2;
    let mut records: Vec<(u64, fo4depth::study::sim::BenchOutcome)> = cells
        .iter()
        .zip(&outcomes)
        .enumerate()
        .rev()
        .filter(|(i, _)| *i != withheld)
        .map(|(_, (c, o))| (c.fingerprint(), o.clone()))
        .collect();
    records.push(records[records.len() - 1].clone());
    records.push(records[0].clone());
    records.push((0xdead_beef_dead_beef, outcomes[0].clone()));

    let mut slots: Vec<Option<fo4depth::study::sim::BenchOutcome>> = vec![None; cells.len()];
    let unknown = place_records(&cells, &records, &mut slots);
    assert_eq!(unknown, 1, "exactly the alien fingerprint is unknown");
    for (i, slot) in slots.iter().enumerate() {
        if i == withheld {
            assert!(slot.is_none(), "withheld cell {i} must stay unresolved");
        } else {
            assert!(slot.is_some(), "cell {i} not placed");
        }
    }

    // Resolve the hole the way the router does (local compute) and the
    // reassembled sweep is bit-identical to the straight-through path.
    slots[withheld] = Some(outcomes[withheld].clone());
    let assembled = assemble_sweep(
        req.core,
        &StructureSet::alpha_21264(),
        req.overhead,
        &req.points,
        req.profiles.len(),
        slots.into_iter().map(|s| s.expect("resolved")).collect(),
    );
    assert_eq!(assembled, reference, "reassembled sweep diverged");
}

#[test]
fn unknown_schema_versions_are_rejected_with_a_structured_400() {
    let shard = start(ServeConfig::default());
    let router = start_router(&[&shard]);

    // Version 1 (and absence) pass; anything else is a structured 400 on
    // every JSON endpoint, shard and router alike.
    let ok = r#"{"schema_version":1,"benchmarks":["164.gzip"],"points":[6.0],"warmup":300,"measure":1000,"seed":29}"#;
    assert_eq!(post(shard.addr, "/v1/sweep", ok).status, 200);

    let future = r#"{"schema_version":9,"benchmarks":["164.gzip"],"points":[6.0],"warmup":300,"measure":1000,"seed":29}"#;
    for addr in [shard.addr, router.addr] {
        let r = post(addr, "/v1/sweep", future);
        assert_eq!(r.status, 400, "body: {}", r.body);
        assert_eq!(error_code(&r), "unsupported_schema_version");

        let r = post(
            addr,
            "/v1/run",
            r#"{"schema_version":9,"benchmark":"164.gzip","t_useful":6.0}"#,
        );
        assert_eq!(r.status, 400, "body: {}", r.body);
        assert_eq!(error_code(&r), "unsupported_schema_version");

        let r = post(
            addr,
            "/v1/cells",
            r#"{"schema_version":3,"warmup":300,"measure":1000,"seed":29,"overhead":1.8,"observed":false,"core":"ooo","cells":[{"benchmark":"164.gzip","t_useful":6.0}]}"#,
        );
        assert_eq!(r.status, 400, "body: {}", r.body);
        assert_eq!(error_code(&r), "unsupported_schema_version");
    }
}

// ---------------------------------------------------------------------------
// Gather reassembly under replication — property tests
// ---------------------------------------------------------------------------
//
// With `--replication R` the same record can arrive from several
// replicas, a stale or buggy replica can return a conflicting payload
// for a fingerprint, and a faulted wire can deliver corrupted frames.
// `place_records` and the record codec must absorb all of it
// structurally: fill what decodes, count what doesn't, never panic.

use std::sync::OnceLock;

use fo4depth::study::cells::CellSpec;
use fo4depth::study::sim::BenchOutcome;
use proptest::prelude::*;

/// One simulated cell set, shared by every generated case (simulation
/// is deterministic, so computing it once is sound and fast).
fn gather_fixture() -> &'static (Vec<CellSpec>, Vec<BenchOutcome>) {
    static FIXTURE: OnceLock<(Vec<CellSpec>, Vec<BenchOutcome>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let engine = build_engine(&ServeConfig::default()).expect("engine");
        let spec = Json::parse(
            r#"{"benchmarks":["164.gzip","181.mcf"],"points":[5.0,7.0],"warmup":300,"measure":1000,"seed":47}"#,
        )
        .expect("spec");
        let req = SweepRequest::from_json(&spec, &RequestLimits::default()).expect("valid spec");
        let cells = req.cells(false);
        let outcomes: Vec<_> = engine.fill_cells(&cells).iter().map(|o| (**o).clone()).collect();
        (cells, outcomes)
    })
}

/// Deterministically shuffles `items` in place from a seed.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        // SplitMix64 step; any well-mixed stream works here.
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let j = ((z ^ (z >> 31)) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Replicated gathers: every record duplicated 0–3 times (0 =
    /// withheld), some replicas stale (conflicting payload for a known
    /// fingerprint), aliens mixed in, the whole pile shuffled. Placement
    /// never panics, fills exactly the delivered cells, and counts
    /// exactly the aliens as unknown.
    #[test]
    fn replicated_gathers_place_structurally(
        copy_pattern in proptest::collection::vec(0u8..4, 32..33),
        aliens in 0u8..3,
        stale in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (cells, outcomes) = gather_fixture();
        // One copy count per cell, however many cells the sweep expands
        // to (the pattern repeats if the cell set outgrows it).
        let copies: Vec<u8> = (0..cells.len())
            .map(|i| copy_pattern[i % copy_pattern.len()])
            .collect();

        let mut records: Vec<(u64, BenchOutcome)> = Vec::new();
        for ((cell, outcome), &n) in cells.iter().zip(outcomes).zip(&copies) {
            for _ in 0..n {
                records.push((cell.fingerprint(), outcome.clone()));
            }
        }
        if stale && cells.len() >= 2 {
            // A stale replica answers cell 0's fingerprint with cell 1's
            // outcome: structurally valid, semantically conflicting.
            records.push((cells[0].fingerprint(), outcomes[1].clone()));
        }
        for i in 0..aliens {
            records.push((0x5eed_0000_0000_0000 + u64::from(i), outcomes[0].clone()));
        }
        shuffle(&mut records, seed);

        let mut slots: Vec<Option<BenchOutcome>> = vec![None; cells.len()];
        let unknown = place_records(cells, &records, &mut slots);
        prop_assert_eq!(unknown, usize::from(aliens), "alien count mismatch");
        for (i, (slot, &n)) in slots.iter().zip(&copies).enumerate() {
            let delivered = n > 0 || (stale && i == 0 && cells.len() >= 2);
            prop_assert_eq!(
                slot.is_some(),
                delivered,
                "cell {} placement: {} copies delivered",
                i,
                n
            );
        }

        // Placing the same gather again over the now-filled slots is a
        // no-op, not a panic — duplicate fills across replicas are
        // benign.
        let again = place_records(cells, &records, &mut slots);
        prop_assert_eq!(again, usize::from(aliens));
    }

    /// Corrupted wire frames: a valid record stream with a byte flipped,
    /// a truncation, garbage spliced on, or a stale schema version is
    /// rejected structurally by the codec — every frame either decodes
    /// to one of the original records or errors; nothing panics and the
    /// decode loop always terminates.
    #[test]
    fn corrupted_record_frames_reject_structurally(
        flip_at in any::<u64>(),
        flip_with in 1u8..255,
        cut in any::<u64>(),
        mode in 0u8..4,
    ) {
        let (cells, outcomes) = gather_fixture();
        let mut wire = Vec::new();
        let mut originals = Vec::new();
        for (cell, outcome) in cells.iter().zip(outcomes) {
            let payload = store::encode_outcome_tagged(outcome, Some(cell.core));
            originals.push((cell.fingerprint(), payload.clone()));
            wire.extend_from_slice(&store::encode_record(cell.fingerprint(), &payload));
        }

        match mode {
            0 => {
                // Flip one byte anywhere in the stream.
                let at = (flip_at % wire.len() as u64) as usize;
                wire[at] ^= flip_with;
            }
            1 => {
                // Truncate mid-stream.
                let at = (cut % wire.len() as u64) as usize;
                wire.truncate(at);
            }
            2 => {
                // Splice garbage on the end.
                wire.extend_from_slice(&flip_at.to_le_bytes());
                wire.extend_from_slice(&cut.to_le_bytes());
            }
            _ => {
                // Stale schema: rewrite the first record with a wrong
                // outcome version byte. The frame CRC is recomputed, so
                // only the payload gate can reject it.
                let (fingerprint, payload, _) =
                    store::decode_record(&wire).expect("valid first frame");
                let mut stale_payload = payload.to_vec();
                stale_payload[0] = stale_payload[0].wrapping_add(flip_with);
                wire = store::encode_record(fingerprint, &stale_payload);
            }
        }

        // The same loop `/v1/records` install runs: decode frames until
        // a structural error, gate each payload on version + outcome
        // decode, skip what fails.
        let mut rest = &wire[..];
        let mut decoded: Vec<(u64, BenchOutcome)> = Vec::new();
        let mut rejected = 0usize;
        while !rest.is_empty() {
            match store::decode_record(rest) {
                Ok((fingerprint, payload, used)) => {
                    prop_assert!(used > 0, "decode made no progress");
                    match store::payload_core(payload)
                        .and_then(|_| store::decode_outcome(payload))
                    {
                        Ok(outcome) => {
                            // A frame that survives its CRC carries one
                            // of the payloads we encoded, bit for bit.
                            prop_assert!(
                                originals
                                    .iter()
                                    .any(|(f, p)| *f == fingerprint && p == payload),
                                "CRC-clean frame not among the originals"
                            );
                            decoded.push((fingerprint, outcome));
                        }
                        Err(_) => rejected += 1,
                    }
                    rest = &rest[used..];
                }
                Err(_) => {
                    rejected += 1;
                    break;
                }
            }
        }
        prop_assert!(
            decoded.len() + rejected <= originals.len() + 1,
            "more frames than were sent"
        );

        // Whatever survived places cleanly; nothing panics.
        let mut slots: Vec<Option<BenchOutcome>> = vec![None; cells.len()];
        let _ = place_records(cells, &decoded, &mut slots);
    }
}
