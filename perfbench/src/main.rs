//! `perfbench` — the fo4depth benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench digests
//! ```
//!
//! Runs one workload (see `perfbench/README.md` for why each exists),
//! checks its outputs, and prints as its last stdout line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` measures
//! the workload's end-to-end metrics with no tracing; `--trace 1` runs
//! the traced tour of every workload (see [`layer_tour`]) and reports the
//! per-layer metrics instead. Either way the result line holds exactly
//! the metrics `BENCHMARK.json` lists for that mode. `digests` prints the
//! output digests the correctness checks compare against.

mod offline;
mod serving;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fo4depth_util::{ArgError, Args, Json};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["offline_sweep", "serve_mix", "route_scatter"];

/// `BENCHMARK.json`, whose metric lists the result line must match.
const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// The metric names of the manifest's `end_to_end` or `per_layer` list.
/// Per-layer names that start with a workload are taken in that
/// workload's traced window; the rest come from probes.
fn manifest_metrics(list: &str) -> Vec<String> {
    let manifest = Json::parse(MANIFEST).expect("BENCHMARK.json is valid JSON");
    manifest
        .get(list)
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists the metrics")
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_string))
        .collect()
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Human-readable provenance (sample count, percentile actually used).
    pub note: String,
}

/// What a workload run produced: operation counts, correctness failures,
/// and metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed output check.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Reports the `wanted` percentile of latency samples in ms (falling
    /// back per [`stats::tail`]), noting the percentile used and the
    /// sample count. A metric with no samples is an error: the workload
    /// is sized so every latency it reports has some.
    pub fn latency(&mut self, name: &str, samples_ms: &[f64], wanted: u32) {
        match stats::tail(samples_ms, wanted) {
            Some(t) => self.metric(
                name,
                t.value,
                "ms",
                format!("p{} of {} samples", t.percentile, t.samples),
            ),
            None => self.fail(format!("{name}: no samples")),
        }
    }

    /// Reports the median of repeated measurements, noting their count
    /// and their interquartile range as a share of the median.
    pub fn median(&mut self, name: &str, values: &[f64], unit: &'static str, what: &str) {
        if values.is_empty() {
            self.fail(format!("{name}: no samples"));
            return;
        }
        let spread = if values.len() >= 2 {
            format!(", IQR {:.1}% of median", 100.0 * stats::iqr_share(values))
        } else {
            String::new()
        };
        self.metric(
            name,
            stats::median(values),
            unit,
            format!("median of {} {what}{spread}", values.len()),
        );
    }

    /// Reports each layer's self time over the traced window
    /// `[from, to)`, the unattributed remainder, the window's wall time,
    /// and the tracing overhead against an untraced run of the same work.
    pub fn layers(&mut self, tracer: &trace::Tracer, from: u64, to: u64, untraced_s: f64) {
        let b = trace::breakdown(tracer.spans(), from, to);
        for (layer, ns) in &b.layers {
            self.metric(
                &format!("self_ms.{layer}"),
                *ns as f64 / 1e6,
                "ms",
                "self time in the traced window",
            );
        }
        self.metric(
            "self_ms.unattributed",
            b.unattributed_ns as f64 / 1e6,
            "ms",
            "traced window time outside every span",
        );
        let wall_ms = b.window_ns as f64 / 1e6;
        self.metric("trace.wall_ms", wall_ms, "ms", "traced window");
        self.metric(
            "trace.untraced_ms",
            untraced_s * 1e3,
            "ms",
            "same work, untraced",
        );
        self.metric(
            "trace.overhead_ms",
            wall_ms - untraced_s * 1e3,
            "ms",
            "traced minus untraced wall time",
        );
    }

    /// Adds another report's counts, failures and metrics to this one,
    /// naming each metric of `window`'s traced window `window.<name>`.
    fn absorb(&mut self, window: &str, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        for mut m in other.metrics {
            if in_window(&m.name) {
                m.name = format!("{window}.{}", m.name);
            }
            self.metrics.push(m);
        }
    }

    /// Records a failed output check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.errors.push(what.into());
    }

    /// Records a check: counts it as an attempted operation, and as
    /// failed when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }
}

/// Whether a traced run's metric describes its traced window (the layer
/// breakdown and the server's view of the traced pass) rather than a
/// probe; more than one workload reports these under the same name.
fn in_window(name: &str) -> bool {
    name.starts_with("self_ms.")
        || name.starts_with("trace.")
        || name.ends_with("_hit_ratio")
        || matches!(name, "serve.server_side_ms" | "serve.accept_wait_ms")
}

/// Runs one workload, untraced or traced per `args.trace`.
fn run_workload(args: &RunArgs) -> std::io::Result<Report> {
    match args.workload.as_str() {
        "offline_sweep" => offline::offline_sweep(args),
        "serve_mix" => serving::serve_mix(args),
        "route_scatter" => serving::route_scatter(args),
        _ => unreachable!("validated in parse"),
    }
}

/// The traced run. `BENCHMARK.json` keeps one per-layer list for every
/// workload, and each workload's traced window reaches only some layers,
/// so the traced run of any workload is the same tour: every workload's
/// traced window and probes, in turn, on `args.seed`.
fn layer_tour(args: &RunArgs) -> std::io::Result<Report> {
    let mut report = Report::default();
    for window in WORKLOADS {
        let sub = RunArgs {
            workload: window.to_string(),
            ..args.clone()
        };
        let part = run_workload(&sub)
            .map_err(|e| std::io::Error::other(format!("traced {window}: {e}")))?;
        report.absorb(window, part);
    }
    Ok(report)
}

/// Scratch space inside the checkout for stores, logs, and span files.
pub fn work_dir() -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(".bench_work");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Writes a traced run's spans under the work directory.
pub fn write_spans(tracer: &trace::Tracer, args: &RunArgs) -> std::io::Result<()> {
    let path = work_dir()?.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    tracer.write_jsonl(&path)
}

/// VmHWM (peak resident set) of a process, in MB, from `/proc`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The host facts every result records.
fn host_record(args: &RunArgs) -> Json {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(-1.0);
    Json::obj(vec![
        ("workload", Json::str(&args.workload)),
        ("seed", Json::uint(args.seed)),
        ("seconds", Json::Num(args.seconds.as_secs_f64())),
        ("trace", Json::Bool(args.trace)),
        ("cpus", Json::uint(cpus as u64)),
        ("cpu_model", Json::str(model)),
        ("rustc", Json::str(rustc)),
        ("loadavg_1m_at_start", Json::Num(loadavg)),
    ])
}

fn parse(raw: Vec<String>) -> Result<RunArgs, ArgError> {
    let mut args = Args::new(raw);
    let workload: String = args
        .take_opt("--workload")?
        .ok_or_else(|| ArgError("--workload is required".into()))?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(ArgError(format!(
            "unknown workload {workload:?}; expected one of {}",
            WORKLOADS.join(", ")
        )));
    }
    let seed = args.take_opt("--seed")?.unwrap_or(1);
    let seconds: u64 = args.take_opt("--seconds")?.unwrap_or(10);
    if seconds == 0 {
        return Err(ArgError("--seconds needs a positive value".into()));
    }
    let trace = match args.take_opt::<u8>("--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        _ => return Err(ArgError("--trace takes 0 or 1".into())),
    };
    args.finish()?;
    Ok(RunArgs {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("digests") {
        print!("{}", offline::compute_digests());
        return ExitCode::SUCCESS;
    }
    let args = match parse(raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {}", e.0);
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let host = host_record(&args);
    let result = if args.trace {
        layer_tour(&args)
    } else {
        run_workload(&args)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!("{}", Json::obj(vec![("host", host)]).render());
    for m in &report.metrics {
        println!(
            "  {:<34} {:>14.6} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    for e in &report.errors {
        println!("  FAILED CHECK: {e}");
    }
    // The result line carries exactly the manifest's metrics for this
    // mode; the lines above also show the figures it leaves out.
    let wanted = manifest_metrics(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    });
    let missing: Vec<&str> = wanted
        .iter()
        .map(String::as_str)
        .filter(|w| !report.metrics.iter().any(|m| m.name == *w))
        .collect();
    if !missing.is_empty() {
        eprintln!(
            "perfbench: {} did not report {}",
            args.workload,
            missing.join(", ")
        );
        return ExitCode::FAILURE;
    }
    let metrics = report
        .metrics
        .iter()
        .filter(|m| wanted.contains(&m.name))
        .map(|m| {
            (
                m.name.clone(),
                Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    let last = Json::obj(vec![
        (
            "correct",
            Json::Bool(report.failed == 0 && report.errors.is_empty()),
        ),
        ("attempted", Json::uint(report.attempted)),
        ("failed", Json::uint(report.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", last.render());
    ExitCode::SUCCESS
}
