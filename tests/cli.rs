//! End-to-end tests of the `fo4depth` command-line tool.

use std::process::Command;

fn fo4depth() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fo4depth"))
}

fn run(args: &[&str]) -> (String, String, bool) {
    let out = fo4depth().args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn no_args_prints_usage_and_fails() {
    let (_, err, ok) = run(&[]);
    assert!(!ok);
    assert!(err.contains("usage:"));
}

#[test]
fn unknown_command_fails_with_usage() {
    // `perf` was a second timing harness; timing now lives in `perfbench`
    // and the gates in `tests/perf_gates.rs`.
    for cmd in ["frobnicate", "perf"] {
        let out = fo4depth().arg(cmd).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "command: {cmd}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }
}

#[test]
fn unknown_flags_fail_with_exit_2() {
    // Every subcommand rejects leftovers instead of silently ignoring
    // them — a typo'd flag must never run with defaults.
    for args in [
        &["report", "--bogus"][..],
        &["sweep", "--meausre", "10"],
        &["yield", "--samles", "8"],
        &["sweep", "--batch-lanes", "off"],
        &["report", "--batch-lanes", "max"],
        &["yield", "--batch-lanes", "1"],
        &["serve", "--port", "1"],
        &["bench", "164.gzip", "--warmpu", "10"],
        &["table3", "--verbose"],
        &["experiments", "stray"],
    ] {
        let out = fo4depth().args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("unknown option") || err.contains("unexpected argument"),
            "args {args:?} gave: {err}"
        );
    }
}

#[test]
fn missing_and_malformed_option_values_fail_with_exit_2() {
    let out = fo4depth()
        .args(["report", "--points"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--points needs a value"));

    let out = fo4depth()
        .args(["sweep", "--warmup", "lots"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad value for --warmup: lots"));
}

#[test]
fn table3_prints_all_rows() {
    let (out, _, ok) = run(&["table3"]);
    assert!(ok);
    for row in ["DL1", "Issue window", "FP sqrt", "Alpha"] {
        assert!(out.contains(row), "missing {row} in:\n{out}");
    }
}

#[test]
fn experiments_lists_the_registry() {
    let (out, _, ok) = run(&["experiments"]);
    assert!(ok);
    assert!(out.contains("Figure 5"));
    assert!(out.contains("Appendix A"));
}

#[test]
fn bench_runs_one_benchmark() {
    let (out, _, ok) = run(&[
        "bench",
        "164.gzip",
        "--t-useful",
        "6",
        "--warmup",
        "1000",
        "--measure",
        "4000",
    ]);
    assert!(ok, "bench failed: {out}");
    assert!(out.contains("out-of-order"));
    assert!(out.contains("IPC"));
}

#[test]
fn adaptive_sweep_prints_probe_summary_and_rejects_bad_knobs() {
    let (out, err, ok) = run(&[
        "sweep",
        "--bench",
        "164.gzip",
        "--quick",
        "--sweep-mode",
        "adaptive",
    ]);
    assert!(ok, "adaptive sweep failed: {err}");
    // The search summary goes to stderr so piped CSV/JSON stays clean.
    assert!(err.contains("adaptive: probed"), "stderr: {err}");
    assert!(err.contains("saved"), "stderr: {err}");
    assert!(out.contains("t_useful"), "stdout: {out}");

    let (_, err, ok) = run(&["sweep", "--sweep-mode", "quantum"]);
    assert!(!ok);
    assert!(err.contains("unknown sweep mode"), "stderr: {err}");
}

#[test]
fn bench_rejects_unknown_benchmark() {
    let (_, err, ok) = run(&["bench", "999.nope"]);
    assert!(!ok);
    assert!(err.contains("unknown benchmark"));
}

#[test]
fn floorplan_reports_areas() {
    let (out, _, ok) = run(&["floorplan"]);
    assert!(ok);
    assert!(out.contains("mm2"));
    assert!(out.contains("front-end transport"));
}

#[test]
fn record_then_replay_round_trips() {
    let dir = std::env::temp_dir().join(format!("fo4depth-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("t.trace");
    let trace_str = trace.to_str().expect("utf-8 path");

    let (_, err, ok) = run(&["record", "300.twolf", "20000", trace_str]);
    assert!(ok, "record failed: {err}");
    let text = std::fs::read_to_string(&trace).expect("trace written");
    assert_eq!(text.lines().count(), 20000);

    let (out, err, ok) = run(&["replay", trace_str, "--t-useful", "6"]);
    assert!(ok, "replay failed: {err}");
    assert!(out.contains("IPC"), "no IPC in: {out}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_rejects_missing_and_short_files() {
    let (_, err, ok) = run(&["replay", "/nonexistent/x.trace"]);
    assert!(!ok);
    assert!(err.contains("cannot open"));

    let dir = std::env::temp_dir().join(format!("fo4depth-cli-short-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let short = dir.join("short.trace");
    std::fs::write(&short, "120000|nop|-|-|-|-|-|-\n").expect("write");
    let (_, err, ok) = run(&["replay", short.to_str().expect("utf-8")]);
    assert!(!ok);
    assert!(err.contains("too short"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_quick_emits_exact_deterministic_json() {
    let args = &[
        "report",
        "--quick",
        "--bench",
        "164.gzip,171.swim",
        "--points",
        "6,8",
    ];
    let (out, err, ok) = run(args);
    assert!(ok, "report failed: {err}");
    let (out2, _, ok2) = run(args);
    assert!(ok2);
    assert_eq!(out, out2, "same-seed reports must be byte-identical");

    let doc = fo4depth::util::Json::parse(&out).expect("report is valid JSON");
    assert_eq!(
        doc.get("schema_version")
            .and_then(fo4depth::util::Json::as_u64),
        Some(1)
    );
    let points = doc
        .get("points")
        .and_then(fo4depth::util::Json::as_arr)
        .expect("points array");
    assert_eq!(points.len(), 2);
    for point in points {
        let benches = point
            .get("benchmarks")
            .and_then(fo4depth::util::Json::as_arr)
            .expect("benchmarks");
        assert_eq!(benches.len(), 2);
        for b in benches {
            // The slot identity, checked from the serialized document alone:
            // cycles × width == useful_slots + Σ stall_slots.
            let c = b.get("counters").expect("counters present");
            let u = |j: Option<&fo4depth::util::Json>| {
                j.and_then(fo4depth::util::Json::as_u64).expect("uint")
            };
            let cycles = u(c.get("cycles"));
            let width = u(c.get("width"));
            let useful = u(c.get("useful_slots"));
            let fo4depth::util::Json::Obj(stalls) = c.get("stall_slots").expect("stalls") else {
                panic!("stall_slots must be an object");
            };
            let stalled: u64 = stalls.iter().map(|(_, v)| u(Some(v))).sum();
            assert_eq!(
                cycles * width,
                useful + stalled,
                "CPI identity broken in {} report",
                b.get("name")
                    .and_then(fo4depth::util::Json::as_str)
                    .unwrap_or("?")
            );
        }
    }
    assert!(doc.get("optima").is_some());
}

#[test]
fn sweep_csv_emits_parseable_output() {
    let (out, _, ok) = run(&[
        "sweep",
        "--bench",
        "164.gzip",
        "--csv",
        "--warmup",
        "500",
        "--measure",
        "2000",
    ]);
    assert!(ok);
    let lines: Vec<&str> = out.lines().collect();
    assert!(lines[0].starts_with("t_useful,period_ps"));
    assert_eq!(lines.len(), 16, "header + 15 clock points");
    for line in &lines[1..] {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), lines[0].split(',').count());
        for f in fields {
            f.parse::<f64>().expect("numeric CSV field");
        }
    }
}
