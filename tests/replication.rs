//! End-to-end tests of the replicated, self-healing shard tier: R-way
//! replication, scripted network-fault injection, and dynamic ring
//! membership — all under the same contract as plain sharding: routed
//! responses stay byte-identical to a single node no matter which
//! replica serves, which shard dies, or which fault fires. Only
//! `/metrics` may differ.

mod common;

use std::net::SocketAddr;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use common::{counter, get, metrics, post, start, StreamingClient, TestServer};
use fo4depth::serve::client::{InjectedNetFault, NetFault, ScriptedNetFaults};
use fo4depth::serve::ServeConfig;
use fo4depth::util::Json;

const DENSE: &str = r#"{"benchmarks":["164.gzip","181.mcf"],"points":[5.5,7.3,9.1],"warmup":400,"measure":1500,"seed":31}"#;
const ADAPTIVE: &str = r#"{"benchmarks":["164.gzip","181.mcf"],"points":[5.5,7.3,9.1],"warmup":400,"measure":1500,"seed":31,"mode":"adaptive"}"#;
const STREAMED: &str = r#"{"benchmarks":["164.gzip","181.mcf"],"points":[5.5,7.3,9.1],"warmup":400,"measure":1500,"seed":31,"mode":"adaptive","stream":true}"#;
const YIELD: &str = r#"{"benchmarks":["164.gzip"],"points":[5.0,7.0],"warmup":400,"measure":1500,"seed":31,"samples":6,"variation_seed":7}"#;

/// Serializes the tests in this binary. Each one stands up a full tier
/// (3-4 servers sweeping in parallel) and asserts load-sensitive
/// invariants — exact injected-fault counts, `local_fills == 0` after a
/// kill — that only hold when the tier isn't starved by a concurrent
/// test saturating the machine.
fn exclusive_tier() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Starts a router fronting `shards` with the given replication factor.
fn start_replicated(shards: &[&TestServer], replication: usize) -> TestServer {
    let mut config = ServeConfig {
        shards: shards.iter().map(|s| s.addr.to_string()).collect(),
        ..ServeConfig::default()
    };
    config.upstream.replication = replication;
    start(config)
}

/// Asserts every routed mode (dense, adaptive, streamed, yield) matches
/// the single-node oracle byte for byte.
fn assert_all_modes_identical(context: &str, router: SocketAddr, single: SocketAddr) {
    assert_dense_identical(context, router, single);
    assert_later_modes_identical(context, router, single);
}

/// The dense sweep of [`assert_all_modes_identical`].
fn assert_dense_identical(context: &str, router: SocketAddr, single: SocketAddr) {
    let routed = post(router, "/v1/sweep", DENSE);
    let local = post(single, "/v1/sweep", DENSE);
    assert_eq!(routed.status, 200, "{context}: body: {}", routed.body);
    assert_eq!(routed.body, local.body, "{context}: dense diverged");
}

/// The adaptive, streamed and yield sweeps of
/// [`assert_all_modes_identical`].
fn assert_later_modes_identical(context: &str, router: SocketAddr, single: SocketAddr) {
    let routed = post(router, "/v1/sweep", ADAPTIVE);
    let local = post(single, "/v1/sweep", ADAPTIVE);
    assert_eq!(routed.status, 200, "{context}: body: {}", routed.body);
    assert_eq!(routed.body, local.body, "{context}: adaptive diverged");

    let routed = StreamingClient::post(router, "/v1/sweep", STREAMED).drain();
    let local = StreamingClient::post(single, "/v1/sweep", STREAMED).drain();
    assert_eq!(
        routed.concat(),
        local.concat(),
        "{context}: streamed diverged"
    );

    let routed = post(router, "/v1/yield", YIELD);
    let local = post(single, "/v1/yield", YIELD);
    assert_eq!(routed.status, 200, "{context}: body: {}", routed.body);
    assert_eq!(routed.body, local.body, "{context}: yield diverged");
}

#[test]
fn replicated_tier_survives_a_dead_shard_and_injected_faults_byte_identically() {
    let _tier = exclusive_tier();
    let shard_a = start(ServeConfig::default());
    let shard_b = start(ServeConfig::default());
    let shard_c = start(ServeConfig::default());
    let single = start(ServeConfig::default());

    // Scripted network-fault schedule on the scatter path: a refused
    // dial, then reads that hit a mid-body hang, a truncated chunk, and
    // a garbage frame. Every fault must be healed by retry or failover
    // without touching response bytes.
    let faults = ScriptedNetFaults::new();

    let mut config = ServeConfig {
        shards: vec![
            shard_a.addr.to_string(),
            shard_b.addr.to_string(),
            shard_c.addr.to_string(),
        ],
        ..ServeConfig::default()
    };
    config.upstream.replication = 2;
    config.upstream.net_fault = Arc::clone(&faults) as Arc<_>;
    // The scatter groups of one request run concurrently and draw from
    // the one script, so any group may draw every fault scripted ahead
    // of its request. Two at a time is what the default budget must
    // heal whichever group draws them.
    assert!(config.upstream.retries >= 2, "two faults per request");
    let router = start(config);

    // Phase 1: faults firing, all shards alive. The cold dense sweep
    // takes the refused dial and the hang; the later modes (the yield
    // sweep is cold) take the truncation and the garbage frame.
    faults.script_connect(Some(InjectedNetFault::Refuse));
    faults.script_read(Some(InjectedNetFault::Hang));
    assert_dense_identical("faulted tier", router.addr, single.addr);
    assert_eq!(faults.injected(), 2, "first fault pair consumed");
    faults.script_read(Some(InjectedNetFault::Truncate));
    faults.script_read(Some(InjectedNetFault::Garbage));
    assert_later_modes_identical("faulted tier", router.addr, single.addr);
    assert_eq!(faults.injected(), 4, "full fault schedule consumed");

    // Phase 2: kill one replica outright; the other replica of every
    // cell keeps serving, still byte-identical. A fresh seed forces a
    // cold scatter so the dead shard is actually missed.
    drop(shard_b);
    let cold = &DENSE.replace("\"seed\":31", "\"seed\":37");
    let routed = post(router.addr, "/v1/sweep", cold);
    let local = post(single.addr, "/v1/sweep", cold);
    assert_eq!(routed.status, 200, "body: {}", routed.body);
    assert_eq!(routed.body, local.body, "post-kill sweep diverged");

    let m = metrics(router.addr);
    assert!(
        counter(&m, &["router", "injected_faults"]) >= 4,
        "injected faults not surfaced: {}",
        m.pretty()
    );
    assert!(
        counter(&m, &["router", "failovers"]) >= 1,
        "no failover recorded after a replica died: {}",
        m.pretty()
    );
    assert_eq!(counter(&m, &["router", "ring", "replication"]), 2);
    assert_eq!(counter(&m, &["router", "ring", "shards"]), 3);
    assert_eq!(counter(&m, &["router", "local_fills"]), 0);
}

#[test]
fn replica_reads_and_writes_are_counted_and_warm_the_peer_replica() {
    let _tier = exclusive_tier();
    let shard_a = start(ServeConfig::default());
    let shard_b = start(ServeConfig::default());
    let router = start_replicated(&[&shard_a, &shard_b], 2);
    let single = start(ServeConfig::default());

    assert_all_modes_identical("two-way replication", router.addr, single.addr);

    // With R = 2 over two shards every cell has a replica on each; the
    // gathered records are fanned out so the non-serving replica is
    // warm too. The fan-out is asynchronous only in the sense that it
    // happens after the serve — by the time the response returned it
    // has already been pushed.
    let m = metrics(router.addr);
    assert!(
        counter(&m, &["router", "replica_writes"]) >= 1,
        "no replica warm-writes recorded: {}",
        m.pretty()
    );

    // The peer saw real `/v1/records` installs.
    let records_requests: u64 = [shard_a.addr, shard_b.addr]
        .iter()
        .map(|&addr| counter(&metrics(addr), &["endpoints", "records", "requests"]))
        .sum();
    assert!(
        records_requests >= 1,
        "no shard-side /v1/records install observed"
    );

    // A warm rerun is served without re-simulating: the router answers
    // from its response cache or the shards from their warmed cells;
    // either way the bytes repeat exactly.
    let first = post(router.addr, "/v1/sweep", DENSE);
    let second = post(router.addr, "/v1/sweep", DENSE);
    assert_eq!(first.body, second.body, "warm rerun diverged");
}

#[test]
fn ring_membership_updates_rebuild_drain_and_stay_byte_identical() {
    let _tier = exclusive_tier();
    let shard_a = start(ServeConfig::default());
    let shard_b = start(ServeConfig::default());
    let shard_c = start(ServeConfig::default());
    let router = start_replicated(&[&shard_a, &shard_b, &shard_c], 2);
    let single = start(ServeConfig::default());

    let routed = post(router.addr, "/v1/sweep", DENSE);
    let local = post(single.addr, "/v1/sweep", DENSE);
    assert_eq!(routed.body, local.body, "pre-update sweep diverged");

    // Remove a shard: the ring rebuilds, in-flight work drains, and the
    // response reports the surviving membership.
    let remove = format!(r#"{{"remove":["{}"]}}"#, shard_c.addr);
    let r = post(router.addr, "/v1/ring", &remove);
    assert_eq!(r.status, 200, "body: {}", r.body);
    let doc = r.json();
    assert_eq!(
        doc.get("shards").and_then(Json::as_arr).map(|a| a.len()),
        Some(2),
        "membership after remove: {}",
        r.body
    );
    assert_eq!(counter(&doc, &["rebuilds"]), 1);

    // A cold sweep on the shrunk ring is still byte-identical.
    let cold = &DENSE.replace("\"seed\":31", "\"seed\":41");
    let routed = post(router.addr, "/v1/sweep", cold);
    let local = post(single.addr, "/v1/sweep", cold);
    assert_eq!(routed.body, local.body, "post-remove sweep diverged");

    // Re-add the shard: its stable identity is restored, so keys move
    // back to their original owners (~K/N movement each way).
    let add = format!(r#"{{"add":["{}"]}}"#, shard_c.addr);
    let r = post(router.addr, "/v1/ring", &add);
    assert_eq!(r.status, 200, "body: {}", r.body);
    assert_eq!(
        r.json()
            .get("shards")
            .and_then(Json::as_arr)
            .map(|a| a.len()),
        Some(3)
    );

    let colder = &DENSE.replace("\"seed\":31", "\"seed\":43");
    let routed = post(router.addr, "/v1/sweep", colder);
    let local = post(single.addr, "/v1/sweep", colder);
    assert_eq!(routed.body, local.body, "post-re-add sweep diverged");

    let m = metrics(router.addr);
    assert_eq!(
        counter(&m, &["router", "ring", "rebuilds"]),
        2,
        "both membership updates counted: {}",
        m.pretty()
    );
    assert_eq!(counter(&m, &["router", "ring", "shards"]), 3);

    // Structured rejection: removing an unknown shard, re-adding a
    // present one, or emptying the ring are all 400s, not panics.
    for bad in [
        r#"{"remove":["127.0.0.1:1"]}"#.to_string(),
        format!(r#"{{"add":["{}"]}}"#, shard_a.addr),
        format!(
            r#"{{"remove":["{}","{}","{}"]}}"#,
            shard_a.addr, shard_b.addr, shard_c.addr
        ),
        r#"{"add":[],"remove":[]}"#.to_string(),
    ] {
        let r = post(router.addr, "/v1/ring", &bad);
        assert!(
            r.status == 400 || r.status == 422,
            "accepted bad update {bad}: {} {}",
            r.status,
            r.body
        );
    }

    // On a plain shard the endpoint does not exist.
    let r = post(shard_a.addr, "/v1/ring", &remove);
    assert_eq!(r.status, 404, "shard accepted a ring update: {}", r.body);
}

#[test]
fn router_healthz_aggregates_per_shard_prober_state() {
    let _tier = exclusive_tier();
    let shard_a = start(ServeConfig::default());
    let shard_b = start(ServeConfig::default());
    let mut config = ServeConfig {
        shards: vec![shard_a.addr.to_string(), shard_b.addr.to_string()],
        ..ServeConfig::default()
    };
    // A fast prober so the test observes state changes promptly.
    config.upstream.probe_interval = Duration::from_millis(50);
    let router = start(config);

    // Healthy tier: status ok, both shards up, probes recent.
    let healthy = wait_for_health(router.addr, |doc| {
        doc.get("status").and_then(Json::as_str) == Some("ok")
            && shard_states(doc)
                .iter()
                .all(|(up, _, probed)| *up && *probed)
    });
    assert_eq!(
        shard_states(&healthy).len(),
        2,
        "healthz lists every shard: {}",
        healthy.pretty()
    );

    // Kill a shard: the prober flags it down with a rising consecutive
    // failure count, and the tier degrades — without taking /healthz
    // itself unhealthy (the router still serves).
    drop(shard_b);
    let degraded = wait_for_health(router.addr, |doc| {
        doc.get("status").and_then(Json::as_str) == Some("degraded")
    });
    let states = shard_states(&degraded);
    assert!(
        states.iter().any(|(up, fails, _)| !up && *fails >= 1),
        "dead shard not flagged with failures: {}",
        degraded.pretty()
    );
    assert!(
        states.iter().any(|(up, _, _)| *up),
        "survivor flagged down: {}",
        degraded.pretty()
    );
}

/// Polls the router's `/healthz` until `ready` accepts the document.
fn wait_for_health(addr: SocketAddr, ready: impl Fn(&Json) -> bool) -> Json {
    let mut last = Json::Null;
    for _ in 0..200 {
        let r = get(addr, "/healthz");
        assert_eq!(r.status, 200);
        last = r.json();
        if ready(&last) {
            return last;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("healthz never converged; last: {}", last.pretty());
}

/// Extracts `(up, consecutive_failures, has_probed)` per shard.
fn shard_states(doc: &Json) -> Vec<(bool, u64, bool)> {
    doc.get("shards")
        .and_then(Json::as_arr)
        .expect("healthz shards")
        .iter()
        .map(|s| {
            let up = matches!(s.get("up"), Some(Json::Bool(true)));
            let fails = s
                .get("consecutive_failures")
                .and_then(Json::as_u64)
                .expect("failure count");
            let probed = s.get("last_probe_us").and_then(Json::as_u64).is_some();
            (up, fails, probed)
        })
        .collect()
}
