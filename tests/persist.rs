//! Crash-safety tests for the persistent cell cache: warm restarts must
//! serve byte-identical responses without re-simulating, a SIGKILLed
//! daemon must recover its intact log prefix (and count the torn tail),
//! and injected I/O faults must degrade the store to memory-only without
//! ever corrupting a response. The record/outcome codecs additionally get
//! property-tested against truncation and bit flips.

mod common;

use std::net::SocketAddr;
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use common::{
    counter, metrics, post, restart_on_cache_dir, start_with_cache_dir, wait_for_counter, Daemon,
};
use fo4depth::fo4::Fo4;
use fo4depth::serve::api::{Engine, RequestLimits, SweepRequest};
use fo4depth::serve::store::{
    self, decode_outcome, decode_record, encode_record, CellStore, InjectedFault, ScriptedFaults,
    StoreConfig, LOG_FILE,
};
use fo4depth::serve::ServeConfig;
use fo4depth::study::report;
use fo4depth::study::sim::SimParams;
use fo4depth::study::sweep::CoreKind;
use fo4depth::util::{Json, TempDir};
use fo4depth::workload::profiles;
use proptest::prelude::*;

/// The request every restart test replays, and its offline twin.
const BODY: &str = r#"{"benchmarks":["164.gzip"],"points":[4,6],"warmup":1000,"measure":4000}"#;
const CELLS: u64 = 2;

fn offline_report() -> String {
    let profs = vec![profiles::by_name("164.gzip").expect("gzip")];
    let params = SimParams {
        warmup: 1_000,
        measure: 4_000,
        seed: 1,
    };
    let points: Vec<Fo4> = [4.0, 6.0].into_iter().map(Fo4::new).collect();
    report::generate(CoreKind::OutOfOrder, &profs, &params, &points).pretty()
}

fn persisted(addr: SocketAddr, path: &str) -> u64 {
    counter(&metrics(addr), &["caches", "persistent", path])
}

#[test]
fn warm_restart_serves_identical_bytes_without_resimulating() {
    let cold_body;
    let dir;
    {
        let mut server = start_with_cache_dir(ServeConfig::default());
        let cold = post(server.addr, "/v1/report", BODY);
        assert_eq!(cold.status, 200, "body: {}", cold.body);
        cold_body = cold.body;
        // Persistence is write-behind: wait for both cells to land.
        wait_for_counter(server.addr, &["caches", "persistent", "appended"], CELLS);
        dir = server.take_cache_dir();
    } // graceful shutdown drains and flushes the store

    let server = restart_on_cache_dir(ServeConfig::default(), dir);
    let warm_start = Instant::now();
    let warm = post(server.addr, "/v1/report", BODY);
    let warm_elapsed = warm_start.elapsed();
    assert_eq!(warm.status, 200, "body: {}", warm.body);
    assert_eq!(warm.body, cold_body, "warm restart changed the bytes");
    assert_eq!(warm.body, offline_report(), "served != offline report");

    let m = metrics(server.addr);
    assert_eq!(
        counter(&m, &["caches", "persistent", "recovered_entries"]),
        CELLS
    );
    assert_eq!(counter(&m, &["caches", "persistent", "hits"]), CELLS);
    assert_eq!(
        counter(&m, &["caches", "arenas", "misses"]),
        0,
        "a disk hit must not materialize a trace arena (i.e. re-simulate)"
    );
    // Not a benchmark, just a sanity bound: two disk reads must beat two
    // full simulations by a wide margin.
    println!("warm restart served in {warm_elapsed:?}");
}

#[test]
fn warm_restart_serves_a_run_from_the_persistent_tier() {
    let run = r#"{"benchmark":"164.gzip","t_useful":5,"warmup":1000,"measure":4000}"#;
    let cold_body;
    let dir;
    {
        let mut server = start_with_cache_dir(ServeConfig::default());
        let cold = post(server.addr, "/v1/run", run);
        assert_eq!(cold.status, 200, "body: {}", cold.body);
        cold_body = cold.body;
        wait_for_counter(server.addr, &["caches", "persistent", "appended"], 1);
        dir = server.take_cache_dir();
    }

    let server = restart_on_cache_dir(ServeConfig::default(), dir);
    let warm = post(server.addr, "/v1/run", run);
    assert_eq!(warm.status, 200, "body: {}", warm.body);
    assert_eq!(warm.body, cold_body, "warm restart changed the bytes");
    let m = metrics(server.addr);
    assert_eq!(counter(&m, &["caches", "persistent", "hits"]), 1);
    assert_eq!(
        counter(&m, &["caches", "arenas", "misses"]),
        0,
        "a disk hit must not materialize a trace arena"
    );
}

#[test]
fn corrupt_tail_is_dropped_counted_and_survived() {
    let cold_body;
    let dir;
    {
        let mut server = start_with_cache_dir(ServeConfig::default());
        let cold = post(server.addr, "/v1/report", BODY);
        assert_eq!(cold.status, 200);
        cold_body = cold.body;
        wait_for_counter(server.addr, &["caches", "persistent", "appended"], CELLS);
        dir = server.take_cache_dir();
    }

    // A torn in-flight append: a record prefix with no payload or CRC.
    let torn = &encode_record(0xDEAD_BEEF, b"never finished")[..10];
    let log = dir.path().join(LOG_FILE);
    let mut bytes = std::fs::read(&log).expect("read log");
    bytes.extend_from_slice(torn);
    std::fs::write(&log, &bytes).expect("tear log");

    let server = restart_on_cache_dir(ServeConfig::default(), dir);
    assert_eq!(persisted(server.addr, "recovered_entries"), CELLS);
    assert_eq!(
        persisted(server.addr, "dropped_bytes"),
        torn.len() as u64,
        "exactly the torn tail is dropped"
    );
    let warm = post(server.addr, "/v1/report", BODY);
    assert_eq!(warm.status, 200);
    assert_eq!(warm.body, cold_body, "intact prefix still serves");
    assert_eq!(persisted(server.addr, "hits"), CELLS);
}

#[test]
fn sigkilled_daemon_restarts_warm_with_byte_identical_responses() {
    let dir = TempDir::new("fo4depth-kill9").expect("scratch dir");

    let first = Daemon::spawn(Some(dir.path()));
    let cold = post(first.addr, "/v1/report", BODY);
    assert_eq!(cold.status, 200, "body: {}", cold.body);
    // Once counted as appended, a record is synced to disk.
    wait_for_counter(first.addr, &["caches", "persistent", "appended"], CELLS);
    first.kill_dash_nine();

    // Simulate the append the kill interrupted: a torn record prefix.
    let log = dir.path().join(LOG_FILE);
    let mut bytes = std::fs::read(&log).expect("read log");
    let torn = &encode_record(0xFEED_FACE, b"interrupted by SIGKILL")[..13];
    bytes.extend_from_slice(torn);
    std::fs::write(&log, &bytes).expect("tear log");

    let second = Daemon::spawn(Some(dir.path()));
    assert_eq!(persisted(second.addr, "recovered_entries"), CELLS);
    assert_eq!(persisted(second.addr, "dropped_bytes"), torn.len() as u64);

    let warm = post(second.addr, "/v1/report", BODY);
    assert_eq!(warm.status, 200);
    assert_eq!(
        warm.body, cold.body,
        "restart after kill -9 changed the bytes"
    );
    let m = metrics(second.addr);
    assert_eq!(counter(&m, &["caches", "persistent", "hits"]), CELLS);
    assert_eq!(
        counter(&m, &["caches", "arenas", "misses"]),
        0,
        "all cells came off disk; nothing re-simulated"
    );
}

#[test]
fn cache_stat_breaks_cells_down_by_core_and_benchmark() {
    let dir = TempDir::new("fo4depth-cache-stat").expect("scratch dir");
    {
        let daemon = Daemon::spawn(Some(dir.path()));
        let ooo = post(daemon.addr, "/v1/report", BODY);
        assert_eq!(ooo.status, 200, "body: {}", ooo.body);
        let inorder = post(
            daemon.addr,
            "/v1/report",
            r#"{"core":"inorder","benchmarks":["181.mcf"],"points":[6],"warmup":1000,"measure":4000}"#,
        );
        assert_eq!(inorder.status, 200, "body: {}", inorder.body);
        // Appended counts are synced to disk.
        wait_for_counter(
            daemon.addr,
            &["caches", "persistent", "appended"],
            CELLS + 1,
        );
    }

    let out = Command::new(env!("CARGO_BIN_EXE_fo4depth"))
        .args([
            "cache",
            "stat",
            "--cache-dir",
            &dir.path().display().to_string(),
        ])
        .output()
        .expect("cache stat runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cells by core"), "missing breakdown:\n{text}");
    let line = |needle: &str| {
        text.lines()
            .find(|l| l.trim_start().starts_with(needle))
            .unwrap_or_else(|| panic!("no {needle} line in:\n{text}"))
    };
    assert!(line("ooo").ends_with('2'), "two ooo cells:\n{text}");
    assert!(line("inorder").ends_with('1'), "one inorder cell:\n{text}");
    assert!(line("164.gzip").ends_with('2'), "two gzip cells:\n{text}");
    assert!(line("181.mcf").ends_with('1'), "one mcf cell:\n{text}");
}

#[test]
fn injected_faults_degrade_to_memory_only_with_correct_responses() {
    let dir = TempDir::new("fo4depth-faults").expect("scratch dir");
    let faults = ScriptedFaults::new();
    // First append hits ENOSPC; the rewind then fails too, which must
    // flip the store to degraded (memory-only) rather than crash.
    faults.script_append(Some(InjectedFault::Error(std::io::ErrorKind::StorageFull)));
    faults.script_truncate(Some(std::io::ErrorKind::Other));

    let cell_store =
        Arc::new(CellStore::open(StoreConfig::new(dir.path()), faults).expect("open store"));
    let engine = Engine::with_store(4, 16, 4, Some(Arc::clone(&cell_store)));

    let req = SweepRequest::from_json(
        &Json::parse(BODY).expect("request json"),
        &RequestLimits::default(),
    )
    .expect("valid request");
    let served = engine.report(&req);
    cell_store.flush();

    assert_eq!(*served, offline_report(), "fault changed the response");
    let stats = cell_store.stats();
    assert!(stats.degraded, "failed rewind must degrade the store");
    assert_eq!(stats.append_errors, 1);
    assert!(
        stats.appended + stats.shed == CELLS.saturating_sub(1),
        "remaining cells either landed before degradation or were shed"
    );

    // Degraded store: further work is shed, never attempted, never fatal.
    let shed_before = stats.shed;
    let served_again = engine.report(&req);
    assert_eq!(*served_again, *served);
    let wider = SweepRequest::from_json(
        &Json::parse(r#"{"benchmarks":["164.gzip"],"points":[8],"warmup":1000,"measure":4000}"#)
            .expect("json"),
        &RequestLimits::default(),
    )
    .expect("valid request");
    let _ = engine.report(&wider);
    cell_store.flush();
    assert!(
        cell_store.stats().shed > shed_before,
        "new cells under degradation are shed, not persisted"
    );

    // Nothing (or only a valid prefix) reached disk; recovery still works.
    let inspection = store::inspect(dir.path(), true).expect("inspect log");
    assert!(inspection.header_ok);
    assert_eq!(inspection.payload_errors, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn record_codec_round_trips(
        fp in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let record = encode_record(fp, &payload);
        let (got_fp, got_payload, consumed) =
            decode_record(&record).expect("fresh record decodes");
        prop_assert_eq!(got_fp, fp);
        prop_assert_eq!(got_payload, &payload[..]);
        prop_assert_eq!(consumed, record.len());
    }

    #[test]
    fn truncated_records_fail_cleanly(
        fp in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        cut_frac in 0.0f64..1.0,
    ) {
        let record = encode_record(fp, &payload);
        let cut = ((record.len() as f64) * cut_frac) as usize;
        prop_assert!(cut < record.len());
        // Every proper prefix is an error — and a clean one, not a panic.
        prop_assert!(decode_record(&record[..cut]).is_err());
    }

    #[test]
    fn flipped_bits_never_pass_the_crc(
        fp in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        pos_frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let mut record = encode_record(fp, &payload);
        let pos = (((record.len() as f64) * pos_frac) as usize).min(record.len() - 1);
        record[pos] ^= 1 << bit;
        prop_assert!(
            decode_record(&record).is_err(),
            "single-bit flip at byte {} accepted",
            pos
        );
    }

    #[test]
    fn arbitrary_bytes_never_panic_either_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        // Both decoders must return a clean error (or a value) on any
        // input — a panic here is a daemon crash on a corrupt log.
        let _ = decode_record(&bytes);
        let _ = decode_outcome(&bytes);
    }
}
