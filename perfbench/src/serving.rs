//! The HTTP workloads: `serve_mix` (one `fo4depth serve` daemon over a
//! persistent cell store) and `route_scatter` (`fo4depth route` over two
//! replicated shards).
//!
//! Load comes from this one process: [`CLIENTS`] closed-loop clients,
//! each opening a new connection per request and sending its next request
//! only after the previous reply's last byte, as a script or a CI job
//! that waits for each reply does. The endpoint shares of each mix are
//! chosen, not measured from real callers (see `next_mix`). Every
//! simulating process runs a one-thread exec pool (`--jobs 1`), so the
//! two CPUs are shared by the service's simulation and this generator
//! rather than oversubscribed.

use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead as _, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fo4depth_serve::api::{Engine, RequestLimits, RunRequest, SweepRequest};
use fo4depth_serve::client::Connection;
use fo4depth_serve::router::{Upstream, UpstreamConfig};
use fo4depth_serve::store::{CellStore, NoFault, StoreConfig};
use fo4depth_study::cells::CellSpec;
use fo4depth_util::{Json, Rng64, SplitMix64};
use fo4depth_workload::profiles;

use crate::stats::{KeyHistory, Kind};
use crate::trace::Tracer;
use crate::{secs, write_spans, Report, RunArgs};

/// Concurrent closed-loop clients: one per CPU of the two-CPU host the
/// benchmark is sized for.
const CLIENTS: u64 = 2;

/// Simulation interval of every cell the HTTP workloads request: the
/// CLI's `--quick` interval. Service-side costs, not simulation length,
/// are what these workloads measure.
const WARMUP: u64 = 2_000;
const MEASURE: u64 = 8_000;

/// Benchmarks the fixed key set of `serve_mix` covers.
const KEY_BENCHES: [&str; 6] = [
    "164.gzip",
    "176.gcc",
    "181.mcf",
    "171.swim",
    "179.art",
    "183.equake",
];

const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
const IO_TIMEOUT: Duration = Duration::from_secs(60);
const READY_TIMEOUT: Duration = Duration::from_secs(30);

/// Set-ups per `serve_mix` run (each fills the store) and per
/// `route_scatter` run (each spawns three processes, a few milliseconds
/// of which the accept loop's poll interval makes jittery); `setup_s` is
/// the median.
const SERVE_SETUPS: usize = 5;
const ROUTE_SETUPS: usize = 25;

/// Requests in each third of the traced run's single-client stream (see
/// [`traced_passes`]); a routed cold sweep takes far longer than a
/// `serve_mix` request.
const SERVE_TRACED_REQUESTS: usize = 400;
const ROUTE_TRACED_REQUESTS: usize = 100;

// ---------------------------------------------------------------------------
// Processes under test
// ---------------------------------------------------------------------------

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// One spawned `fo4depth` daemon. Dropping it kills and reaps the
/// process; [`Daemon::stop`] shuts it down gracefully instead.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawns `fo4depth <args>` and waits for its "listening on" line.
    fn spawn(args: &[String]) -> io::Result<Self> {
        let mut child = Command::new(fo4depth_bin()?)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take();
        let mut daemon = Self {
            child,
            addr: String::new(),
        };
        let mut line = String::new();
        if let Some(out) = stdout {
            BufReader::new(out).read_line(&mut line)?;
        }
        daemon.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| io::Error::other(format!("fo4depth {args:?} did not start: {line:?}")))?
            .to_string();
        Ok(daemon)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// VmHWM of the daemon, in MB.
    fn peak_rss_mb(&self) -> io::Result<f64> {
        crate::peak_rss_mb(&self.pid())
            .ok_or_else(|| io::Error::other("daemon /proc status unreadable"))
    }

    /// SIGTERM, then wait for the drain (the store flushes on the way
    /// out); SIGKILL if it has not exited within ten seconds.
    fn stop(mut self) -> io::Result<()> {
        let pid = i32::try_from(self.child.id()).map_err(io::Error::other)?;
        // SAFETY: kill(2) takes plain integers. The pid is our own child,
        // not yet reaped, so it cannot name any other process.
        unsafe {
            kill(pid, SIGTERM);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(io::Error::other("daemon did not drain within 10 s"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The `fo4depth` binary built beside this one.
fn fo4depth_bin() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let bin = exe.with_file_name("fo4depth");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(io::Error::other(format!("{} not built", bin.display())))
    }
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(ToString::to_string).collect()
}

/// Common daemon flags: ephemeral port, `workers` connection workers, a
/// one-thread exec pool.
fn daemon_args(cmd: &str, workers: &str) -> Vec<String> {
    args(&[
        cmd,
        "--addr",
        "127.0.0.1:0",
        "--workers",
        workers,
        "--jobs",
        "1",
    ])
}

/// Connection workers of each `route_scatter` shard. A keep-alive
/// connection holds a shard worker while it idles, and each shard serves
/// two pooled connections from the router, two from the traced run's
/// in-process `Upstream`, and the router's health probe; with fewer
/// workers the probe queues behind idle connections, times out, and the
/// router fails the shard over.
const SHARD_WORKERS: &str = "8";

/// One GET, returning status and body.
fn get(addr: &str, path: &str) -> io::Result<(u16, Vec<u8>)> {
    let mut conn = Connection::connect(addr, CONNECT_TIMEOUT, IO_TIMEOUT)?;
    let head = conn.request("GET", path, b"", false)?;
    let body = conn.read_body(&head)?;
    Ok((head.status, body))
}

/// Polls `/healthz` until it answers 200 with `"status":"ok"`.
fn wait_ready(addr: &str) -> io::Result<()> {
    let start = Instant::now();
    loop {
        if let Ok((200, body)) = get(addr, "/healthz") {
            if String::from_utf8_lossy(&body).contains("\"status\":\"ok\"") {
                return Ok(());
            }
        }
        if start.elapsed() > READY_TIMEOUT {
            return Err(io::Error::other(format!("{addr} not ready in time")));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn metrics(addr: &str) -> io::Result<Json> {
    let (status, body) = get(addr, "/metrics")?;
    if status != 200 {
        return Err(io::Error::other(format!("/metrics answered {status}")));
    }
    Json::parse(&String::from_utf8_lossy(&body)).map_err(|e| io::Error::other(e.to_string()))
}

fn num(doc: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |d, k| d.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

// ---------------------------------------------------------------------------
// Requests and their generator
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    Run,
    Sweep,
    Report,
    /// A `"stream":true` sweep, read chunk by chunk.
    Stream,
}

#[derive(Debug, Clone)]
struct Req {
    endpoint: Endpoint,
    body: String,
}

impl Req {
    fn path(&self) -> &'static str {
        match self.endpoint {
            Endpoint::Run => "/v1/run",
            Endpoint::Sweep | Endpoint::Stream => "/v1/sweep",
            Endpoint::Report => "/v1/report",
        }
    }

    fn key(&self) -> String {
        format!("{} {}", self.path(), self.body)
    }

    fn run(core: &str, bench: &str, t: f64) -> Self {
        let body = Json::obj(vec![
            ("core", Json::str(core)),
            ("benchmark", Json::str(bench)),
            ("t_useful", Json::Num(t)),
            ("warmup", Json::uint(WARMUP)),
            ("measure", Json::uint(MEASURE)),
        ]);
        Self {
            endpoint: Endpoint::Run,
            body: body.render(),
        }
    }

    fn sweep(endpoint: Endpoint, core: &str, benches: &[&str], points: &[f64]) -> Self {
        let mut pairs = vec![
            ("core", Json::str(core)),
            (
                "benchmarks",
                Json::Arr(benches.iter().map(|b| Json::str(*b)).collect()),
            ),
            (
                "points",
                Json::Arr(points.iter().map(|&p| Json::Num(p)).collect()),
            ),
            ("warmup", Json::uint(WARMUP)),
            ("measure", Json::uint(MEASURE)),
        ];
        if endpoint == Endpoint::Stream {
            pairs.push(("stream", Json::Bool(true)));
        }
        Self {
            endpoint,
            body: Json::obj(pairs).render(),
        }
    }
}

fn grid() -> Vec<f64> {
    (2..=16).map(f64::from).collect()
}

/// `serve_mix`'s fixed key set, filled during set-up: every
/// (benchmark × grid point) `/v1/run` cell of [`KEY_BENCHES`] on the
/// out-of-order core, sweep summaries over both halves of the set on both
/// cores, and two observed reports.
fn fixed_keys() -> Vec<Req> {
    let mut keys = Vec::new();
    for bench in KEY_BENCHES {
        for t in grid() {
            keys.push(Req::run("ooo", bench, t));
        }
    }
    for core in ["ooo", "inorder"] {
        for half in KEY_BENCHES.chunks(3) {
            keys.push(Req::sweep(Endpoint::Sweep, core, half, &grid()));
        }
    }
    for half in KEY_BENCHES.chunks(3) {
        keys.push(Req::sweep(
            Endpoint::Report,
            "ooo",
            &half[..2],
            &[4.0, 6.0, 8.0, 10.0],
        ));
    }
    keys
}

/// One client's seeded request stream. Fresh cells sit at off-grid
/// clock points whose last digit is the client's index, so the clients
/// never request the same fresh cell and each stream is a function of
/// the seed alone.
struct Generator {
    rng: SplitMix64,
    client: u64,
    history: KeyHistory,
    used: HashSet<(usize, u64)>,
    /// Every benchmark name, indexed by [`Generator::fresh_grid`].
    names: Vec<String>,
    /// `route_scatter`: sweeps this client has sent, for repeats.
    sent: Vec<Req>,
}

impl Generator {
    fn new(seed: u64, client: u64, known: &[Req]) -> Self {
        let mut history = KeyHistory::default();
        for r in known {
            history.remember(&r.key());
        }
        Self {
            rng: SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ client),
            client,
            history,
            used: HashSet::new(),
            names: profiles::all().into_iter().map(|p| p.name).collect(),
            sent: Vec::new(),
        }
    }

    /// `benches` distinct benchmarks (by index) and `points` distinct
    /// off-grid clock points whose every pairing this client has never
    /// requested. A point is `2 + k / 10_000` FO4 with
    /// `k % 10 == 1 + client`: never integral, never another client's.
    fn fresh_grid(&mut self, benches: usize, points: usize) -> (Vec<usize>, Vec<f64>) {
        loop {
            let mut bs: Vec<usize> = Vec::with_capacity(benches);
            while bs.len() < benches {
                let b = self.rng.next_range(self.names.len() as u64) as usize;
                if !bs.contains(&b) {
                    bs.push(b);
                }
            }
            let mut ks: Vec<u64> = (0..points)
                .map(|_| self.rng.next_range(14_000) * 10 + 1 + self.client)
                .collect();
            ks.sort_unstable();
            ks.dedup();
            let cells: Vec<(usize, u64)> = bs
                .iter()
                .flat_map(|&b| ks.iter().map(move |&k| (b, k)))
                .collect();
            if ks.len() == points && cells.iter().all(|c| !self.used.contains(c)) {
                self.used.extend(cells);
                return (bs, ks.iter().map(|&k| 2.0 + k as f64 / 10_000.0).collect());
            }
        }
    }

    fn core(&mut self) -> &'static str {
        if self.rng.next_bool(0.5) {
            "ooo"
        } else {
            "inorder"
        }
    }

    /// `serve_mix`: 86.5 % repeats over the fixed key set (70 % runs,
    /// 20 % sweep summaries, 10 % reports), 13 % fresh `/v1/run` cells,
    /// 0.5 % cold streamed sweeps of four fresh points. The shares are
    /// chosen, not measured from callers: repeats are the large majority
    /// so `hit_p50_ms` has many samples; streams stay rare so that
    /// `miss_p50_ms` measures single fresh cells.
    fn next_mix(&mut self, keys: &[Req]) -> Req {
        let roll = self.rng.next_f64();
        if roll < 0.865 {
            let runs = KEY_BENCHES.len() * grid().len();
            let pick = self.rng.next_f64();
            let i = if pick < 0.70 {
                self.rng.next_range(runs as u64) as usize
            } else if pick < 0.90 {
                runs + self.rng.next_range(4) as usize
            } else {
                runs + 4 + self.rng.next_range(2) as usize
            };
            keys[i].clone()
        } else if roll < 0.995 {
            let core = self.core();
            let (bench, t) = self.fresh_grid(1, 1);
            Req::run(core, &self.names[bench[0]], t[0])
        } else {
            let core = self.core();
            let (bench, points) = self.fresh_grid(1, 4);
            Req::sweep(Endpoint::Stream, core, &[&self.names[bench[0]]], &points)
        }
    }

    /// `route_scatter`: 30 % cold sweeps of six fresh cells (three
    /// benchmarks at two off-grid points), 70 % repeats of a sweep this
    /// client already sent. The cold sweeps take nearly all the time.
    /// Keeping hits a clear majority keeps `req_p50_ms` inside the hit
    /// mode, and six cells land on both shards in 31 of 32 sweeps, so the
    /// miss percentiles sit inside the two-shard mode instead of on the
    /// edge between the one- and two-shard modes.
    fn next_scatter(&mut self) -> Req {
        if self.sent.is_empty() || self.rng.next_f64() < 0.3 {
            let core = self.core();
            let (benches, points) = self.fresh_grid(3, 2);
            let names: Vec<&str> = benches.iter().map(|&b| self.names[b].as_str()).collect();
            let req = Req::sweep(Endpoint::Sweep, core, &names, &points);
            self.sent.push(req.clone());
            req
        } else {
            let i = self.rng.next_range(self.sent.len() as u64) as usize;
            self.sent[i].clone()
        }
    }
}

// ---------------------------------------------------------------------------
// Sending and recording
// ---------------------------------------------------------------------------

/// One answered request as the client saw it.
struct Answer {
    status: u16,
    body: Vec<u8>,
    /// Connect to last byte.
    ms: f64,
    /// Streamed sweeps: connect to the first point's chunk.
    first_point_ms: Option<f64>,
}

/// Sends `req` on a fresh connection and reads the whole reply. With a
/// tracer, the connect, the wait for the response head, and the body read
/// each get a span under one request span.
fn send(addr: &str, req: &Req, mut tracer: Option<(&mut Tracer, u64)>) -> io::Result<Answer> {
    let start = Instant::now();
    let mut step = |name: &'static str, f: &mut dyn FnMut() -> io::Result<()>| match &mut tracer {
        Some((t, id)) => t.span(name, *id, |_| f()),
        None => f(),
    };
    let mut conn = None;
    step("client.connect", &mut || {
        conn = Some(Connection::connect(addr, CONNECT_TIMEOUT, IO_TIMEOUT)?);
        Ok(())
    })?;
    let conn = conn.as_mut().expect("connected");
    let mut head = None;
    step("serve.response_head", &mut || {
        head = Some(conn.request("POST", req.path(), req.body.as_bytes(), false)?);
        Ok(())
    })?;
    let head = head.expect("head read");
    let mut body = Vec::new();
    let mut first_point_ms = None;
    step("client.read_body", &mut || {
        if req.endpoint == Endpoint::Stream && head.status == 200 {
            // Chunk 0 is the document head; chunk 1 is the first point.
            let mut chunks = 0;
            while let Some(chunk) = conn.next_chunk()? {
                chunks += 1;
                if chunks == 2 {
                    first_point_ms = Some(secs(start) * 1e3);
                }
                body.extend_from_slice(&chunk);
            }
        } else {
            body = conn.read_body(&head)?;
        }
        Ok(())
    })?;
    Ok(Answer {
        status: head.status,
        body,
        ms: secs(start) * 1e3,
        first_point_ms,
    })
}

/// [`send`] inside a `serve.request` span when tracing.
fn send_traced(addr: &str, req: &Req, tracer: &mut Tracer, id: u64) -> io::Result<Answer> {
    tracer.span("serve.request", id, |t| send(addr, req, Some((t, id))))
}

/// One request's outcome in the measured phase.
struct Sample {
    kind: Kind,
    ms: f64,
    first_point_ms: Option<f64>,
}

/// Bodies received, by request key: the first body of each key, which
/// every later body of the key must equal byte for byte and which is
/// checked against the single-node reference after the run.
#[derive(Default)]
struct Bodies {
    first: Mutex<HashMap<String, FirstBody>>,
}

/// A request and the first body received for it.
type FirstBody = (Req, Arc<Vec<u8>>);

impl Bodies {
    /// Records `body` for `req`; false if it differs from the key's
    /// first body.
    fn record(&self, req: &Req, body: Vec<u8>) -> bool {
        let mut first = self.first.lock().expect("bodies lock");
        match first.get(&req.key()) {
            Some((_, seen)) => **seen == body,
            None => {
                first.insert(req.key(), (req.clone(), Arc::new(body)));
                true
            }
        }
    }
}

/// Everything a phase of closed-loop load produced.
#[derive(Default)]
struct Phase {
    samples: Vec<Sample>,
    attempted: u64,
    errors: Vec<String>,
    seconds: f64,
}

/// Runs one closed-loop client per generator against `addr` until
/// `seconds` pass; each client draws its requests from its own generator
/// through `next`.
fn closed_loop(
    addr: &str,
    seconds: Duration,
    gens: Vec<Generator>,
    next: &(dyn Fn(&mut Generator) -> Req + Sync),
    bodies: &Bodies,
) -> Phase {
    let start = Instant::now();
    let logs: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = gens
            .into_iter()
            .map(|mut gen| {
                scope.spawn(move || {
                    let mut log = Phase::default();
                    while start.elapsed() < seconds {
                        let req = next(&mut gen);
                        let kind = gen.history.observe(&req.key());
                        log.attempted += 1;
                        match send(addr, &req, None) {
                            Ok(a) if a.status == 200 => {
                                if !bodies.record(&req, a.body) {
                                    log.errors.push(format!(
                                        "{} body changed between replies",
                                        req.key()
                                    ));
                                }
                                log.samples.push(Sample {
                                    kind,
                                    ms: a.ms,
                                    first_point_ms: a.first_point_ms,
                                });
                            }
                            Ok(a) => {
                                log.errors
                                    .push(format!("{} answered {}", req.key(), a.status))
                            }
                            Err(e) => log.errors.push(format!("{}: {e}", req.key())),
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut phase = Phase {
        seconds: secs(start),
        ..Phase::default()
    };
    for log in logs {
        phase.samples.extend(log.samples);
        phase.attempted += log.attempted;
        phase.errors.extend(log.errors);
    }
    phase
}

/// The single-node answer for `req`, from an in-process engine.
fn reference(engine: &Engine, req: &Req) -> io::Result<Arc<String>> {
    let doc = Json::parse(&req.body).map_err(|e| io::Error::other(e.to_string()))?;
    let limits = RequestLimits::default();
    let invalid = |e: fo4depth_serve::api::ApiError| io::Error::other(e.message);
    Ok(match req.endpoint {
        Endpoint::Run => engine.run(&RunRequest::from_json(&doc, &limits).map_err(invalid)?),
        Endpoint::Sweep | Endpoint::Stream => {
            engine.sweep_summary(&SweepRequest::from_json(&doc, &limits).map_err(invalid)?)
        }
        Endpoint::Report => {
            engine.report(&SweepRequest::from_json(&doc, &limits).map_err(invalid)?)
        }
    })
}

/// Byte-compares every distinct body received against the in-process
/// single-node engine's answer, on two threads once the load has
/// stopped. Returns `(checked, mismatches)`.
fn verify(bodies: &Bodies) -> io::Result<(u64, Vec<String>)> {
    let first = bodies.first.lock().expect("bodies lock");
    let all: Vec<&(Req, Arc<Vec<u8>>)> = first.values().collect();
    let engine = Engine::new(1 << 12, 1 << 16, 64);
    let results: Vec<io::Result<Vec<String>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = all
            .chunks(all.len().div_ceil(2).max(1))
            .map(|part| {
                let engine = &engine;
                scope.spawn(move || {
                    let mut bad = Vec::new();
                    for (req, body) in part {
                        if reference(engine, req)?.as_bytes() != body.as_slice() {
                            bad.push(format!("{} differs from the single-node answer", req.key()));
                        }
                    }
                    Ok(bad)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verify thread"))
            .collect()
    });
    let mut bad = Vec::new();
    for r in results {
        bad.extend(r?);
    }
    Ok((all.len() as u64, bad))
}

/// The end-to-end latency metrics of a phase. `tails` adds the tail
/// percentiles `req_p99_ms` and `miss_p90_ms`. There is no hit tail: a
/// hit's tail is the time it waits for a CPU while both are simulating,
/// which follows the host's load more than the program's.
fn latency_metrics(report: &mut Report, phase: &Phase, tails: bool) {
    let ms = |f: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        phase
            .samples
            .iter()
            .filter(|s| f(s))
            .map(|s| s.ms)
            .collect()
    };
    report.metric(
        "ops_per_s",
        phase.samples.len() as f64 / phase.seconds,
        "1/s",
        format!("{} replies in {:.2} s", phase.samples.len(), phase.seconds),
    );
    let all = ms(&|_| true);
    let hits = ms(&|s| s.kind == Kind::Hit);
    let misses = ms(&|s| s.kind == Kind::Miss);
    report.latency("req_p50_ms", &all, 50);
    report.latency("hit_p50_ms", &hits, 50);
    report.latency("miss_p50_ms", &misses, 50);
    if tails {
        report.latency("req_p99_ms", &all, 99);
        report.latency("miss_p90_ms", &misses, 90);
    }
}

fn fold_phase(report: &mut Report, phase: Phase) {
    report.attempted += phase.attempted;
    for e in phase.errors {
        report.fail(e);
    }
}

fn fold_verify(report: &mut Report, bodies: &Bodies) -> io::Result<()> {
    let (checked, bad) = verify(bodies)?;
    report.attempted += checked;
    for b in bad {
        report.fail(b);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// serve_mix
// ---------------------------------------------------------------------------

/// Removes a scratch directory when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn fresh(name: &str) -> io::Result<Self> {
        let dir = crate::work_dir()?.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A set-up `serve_mix` daemon over its store directory (fields drop in
/// order: the daemon dies before its directory goes).
struct ServeSetup {
    daemon: Daemon,
    dir: ScratchDir,
}

/// `serve_mix` set-up: spawn the daemon on a fresh store until
/// `/healthz` answers, fill the fixed key set, stop it (the store
/// flushes on the way out), and restart it warm on the same store.
fn serve_setup(keys: &[Req], bodies: &Bodies, report: &mut Report) -> io::Result<ServeSetup> {
    let dir = ScratchDir::fresh("serve_mix")?;
    let mut flags = daemon_args("serve", "2");
    flags.extend(args(&["--cache-dir", &dir.0.to_string_lossy()]));
    let cold = Daemon::spawn(&flags)?;
    wait_ready(&cold.addr)?;
    for req in keys {
        report.attempted += 1;
        match send(&cold.addr, req, None) {
            Ok(a) if a.status == 200 => {
                if !bodies.record(req, a.body) {
                    report.fail(format!("{} body changed between set-ups", req.key()));
                }
            }
            Ok(a) => report.fail(format!("set-up {} answered {}", req.key(), a.status)),
            Err(e) => report.fail(format!("set-up {}: {e}", req.key())),
        }
    }
    cold.stop()?;
    let daemon = Daemon::spawn(&flags)?;
    wait_ready(&daemon.addr)?;
    Ok(ServeSetup { daemon, dir })
}

/// Runs `setup` `times` times, keeping the last and returning every
/// set-up's seconds.
fn repeated_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> io::Result<T>,
) -> io::Result<(Vec<f64>, T)> {
    let mut secs_each = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        // The previous set-up is torn down before the next one starts.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        secs_each.push(secs(t));
    }
    Ok((secs_each, last.expect("at least one set-up")))
}

/// `serve_mix`: one warm-restarted `fo4depth serve --cache-dir` daemon
/// under the seeded mix of [`Generator::next_mix`].
pub fn serve_mix(args: &RunArgs) -> io::Result<Report> {
    let keys = fixed_keys();
    let bodies = Bodies::default();
    let mut report = Report::default();
    let times = if args.trace { 1 } else { SERVE_SETUPS };
    let (setups, setup) = repeated_setup(times, || serve_setup(&keys, &bodies, &mut report))?;
    if args.trace {
        traced_serve_mix(&mut report, args, &keys, setup, &bodies)?;
        return Ok(report);
    }
    let gens = (0..CLIENTS)
        .map(|c| Generator::new(args.seed, c, &keys))
        .collect();
    let phase = closed_loop(
        &setup.daemon.addr,
        args.seconds,
        gens,
        &|g| g.next_mix(&keys),
        &bodies,
    );
    let rss = setup.daemon.peak_rss_mb()?;
    setup.daemon.stop()?;

    report.median("setup_s", &setups, "s", "set-ups");
    // No tail percentiles here: the tails of this mix are CPU-bound
    // misses under two-client contention, and between runs on a shared
    // two-CPU host they moved by up to 26 % of their median (see
    // README.md), more than any bound the benchmark may set.
    latency_metrics(&mut report, &phase, false);
    let streams: Vec<f64> = phase
        .samples
        .iter()
        .filter_map(|s| s.first_point_ms)
        .collect();
    report.latency("stream_first_point_ms", &streams, 50);
    report.metric("peak_rss_mb", rss, "MB", "VmHWM of the serve daemon");
    fold_phase(&mut report, phase);
    fold_verify(&mut report, &bodies)?;
    Ok(report)
}

/// One request of a traced-run pass: counted, status-checked, and its
/// body recorded for verification.
fn exchange(
    report: &mut Report,
    bodies: &Bodies,
    addr: &str,
    req: &Req,
    tracer: Option<(&mut Tracer, u64)>,
) -> Option<Answer> {
    report.attempted += 1;
    let answer = match tracer {
        Some((t, id)) => send_traced(addr, req, t, id),
        None => send(addr, req, None),
    };
    match answer {
        Ok(a) if a.status == 200 => {
            if !bodies.record(req, a.body.clone()) {
                report.fail(format!("{} body changed between replies", req.key()));
            }
            Some(a)
        }
        Ok(a) => {
            report.fail(format!("{} answered {}", req.key(), a.status));
            None
        }
        Err(e) => {
            report.fail(format!("{}: {e}", req.key()));
            None
        }
    }
}

/// Server-side totals of the simulation endpoints in a `/metrics`
/// document: `(requests, total µs)`.
fn server_totals(doc: &Json) -> (f64, f64) {
    ["run", "sweep", "report"]
        .iter()
        .fold((0.0, 0.0), |(n, us), e| {
            (
                n + num(doc, &["endpoints", e, "requests"]),
                us + num(doc, &["endpoints", e, "total_us"]),
            )
        })
}

/// Hit ratio of one cache tier between two `/metrics` snapshots, and the
/// number of lookups it is taken over (a tier with none reads 0).
fn hit_ratio(before: &Json, after: &Json, tier: &str) -> (f64, f64) {
    let delta = |k: &str| num(after, &["caches", tier, k]) - num(before, &["caches", tier, k]);
    let lookups = delta("hits") + delta("misses");
    let ratio = if lookups > 0.0 {
        delta("hits") / lookups
    } else {
        0.0
    };
    (ratio, lookups)
}

/// The single-client passes every traced HTTP run makes over `stream`,
/// client 0's requests, in thirds: a warm-up (so the two measured thirds
/// see the same mix of repeats and fresh requests), an untraced pass,
/// and the traced pass. Reports the server-side and accept-wait split of
/// the traced pass, the cache tiers' hit ratios over it, the per-layer
/// self times, and the tracing overhead; returns the tracer.
fn traced_passes(
    report: &mut Report,
    addr: &str,
    stream: &[Req],
    bodies: &Bodies,
) -> io::Result<Tracer> {
    let n = stream.len() / 3;
    for req in &stream[..n] {
        exchange(report, bodies, addr, req, None);
    }
    let (untraced, traced) = (&stream[n..2 * n], &stream[2 * n..]);
    let t = Instant::now();
    for req in untraced {
        exchange(report, bodies, addr, req, None);
    }
    let untraced_s = secs(t);

    let before = metrics(addr)?;
    let mut tracer = Tracer::new();
    let mut client_ms = Vec::new();
    let from = tracer.now_ns();
    for (i, req) in traced.iter().enumerate() {
        if let Some(a) = exchange(report, bodies, addr, req, Some((&mut tracer, i as u64 + 1))) {
            client_ms.push(a.ms);
        }
    }
    let to = tracer.now_ns();
    let after = metrics(addr)?;

    let (n0, us0) = server_totals(&before);
    let (n1, us1) = server_totals(&after);
    let server_ms = (us1 - us0) / 1e3 / (n1 - n0);
    let client_mean = client_ms.iter().sum::<f64>() / client_ms.len() as f64;
    report.metric(
        "serve.server_side_ms",
        server_ms,
        "ms",
        format!("/metrics total_us / requests over {} requests", n1 - n0),
    );
    report.metric(
        "serve.accept_wait_ms",
        client_mean - server_ms,
        "ms",
        "mean client latency minus server-side time",
    );
    for tier in ["cells", "responses", "arenas"] {
        let (ratio, lookups) = hit_ratio(&before, &after, tier);
        report.metric(
            &format!("serve.{tier}_hit_ratio"),
            ratio,
            "ratio",
            format!("hits / {lookups} lookups over the traced pass"),
        );
    }
    report.layers(&tracer, from, to, untraced_s);
    Ok(tracer)
}

fn traced_serve_mix(
    report: &mut Report,
    args: &RunArgs,
    keys: &[Req],
    setup: ServeSetup,
    bodies: &Bodies,
) -> io::Result<()> {
    let addr = &setup.daemon.addr;
    let mut gen = Generator::new(args.seed, 0, keys);
    let stream: Vec<Req> = (0..3 * SERVE_TRACED_REQUESTS)
        .map(|_| gen.next_mix(keys))
        .collect();
    let mut tracer = traced_passes(report, addr, &stream, bodies)?;

    // How much of a hit's latency is the accept loop: a pass of pure
    // fixed-key repeats, split the same way.
    let before = metrics(addr)?;
    let mut hit_ms = Vec::new();
    for req in keys.iter().cycle().take(SERVE_TRACED_REQUESTS / 2) {
        if let Some(a) = exchange(report, bodies, addr, req, None) {
            hit_ms.push(a.ms);
        }
    }
    let after = metrics(addr)?;
    let (n0, us0) = server_totals(&before);
    let (n1, us1) = server_totals(&after);
    let hit_mean = hit_ms.iter().sum::<f64>() / hit_ms.len() as f64;
    report.metric(
        "serve.hit_accept_wait_ms",
        hit_mean - (us1 - us0) / 1e3 / (n1 - n0),
        "ms",
        format!("fixed-key repeats only; mean client latency {hit_mean:.3} ms"),
    );

    // The same request stream through an in-process engine: the fixed
    // keys and the untraced pass first, so hits and misses line up with
    // the generator's history.
    let engine = Engine::new(1 << 12, 1 << 16, 64);
    let mut history = KeyHistory::default();
    for req in keys.iter().chain(&stream[..2 * SERVE_TRACED_REQUESTS]) {
        history.observe(&req.key());
        reference(&engine, req)?;
    }
    for req in &stream[2 * SERVE_TRACED_REQUESTS..] {
        let name = match history.observe(&req.key()) {
            Kind::Hit => "serve.engine_hit",
            Kind::Miss => "serve.engine_miss",
        };
        tracer.span(name, 0, |_| reference(&engine, req))?;
    }
    report.median(
        "serve.engine_hit_ms",
        &tracer.durations_ms("serve.engine_hit"),
        "ms",
        "in-process hits",
    );
    report.median(
        "serve.engine_miss_ms",
        &tracer.durations_ms("serve.engine_miss"),
        "ms",
        "in-process misses",
    );

    // JSON render: every distinct traced-pass body, parsed and rendered
    // again. Then a warm /v1/sweep (cells cached, response not): its JSON
    // share is `Engine::sweep_body` time not spent in `Engine::sweep`,
    // the same sweep without the body.
    let first = bodies.first.lock().expect("bodies lock");
    let mut seen = HashSet::new();
    for req in &stream[2 * SERVE_TRACED_REQUESTS..] {
        if !seen.insert(req.key()) {
            continue;
        }
        if let Some((_, body)) = first.get(&req.key()) {
            let doc = Json::parse(&String::from_utf8_lossy(body))
                .map_err(|e| io::Error::other(e.to_string()))?;
            std::hint::black_box(tracer.span("util.json_render", 0, |_| doc.pretty()));
        }
    }
    drop(first);
    report.median(
        "util.json_render_ms",
        &tracer.durations_ms("util.json_render"),
        "ms",
        "Json::pretty renders",
    );
    let limits = RequestLimits::default();
    for req in keys.iter().filter(|r| r.endpoint == Endpoint::Sweep) {
        let doc = Json::parse(&req.body).map_err(|e| io::Error::other(e.to_string()))?;
        let sweep =
            SweepRequest::from_json(&doc, &limits).map_err(|e| io::Error::other(e.message))?;
        for _ in 0..5 {
            std::hint::black_box(
                tracer.span("serve.warm_sweep", 0, |_| engine.sweep(&sweep, false)),
            );
            std::hint::black_box(tracer.span("serve.warm_sweep_body", 0, |_| {
                engine.sweep_body(&sweep, false, &mut |_| {})
            }));
        }
    }
    let data = tracer.total_ms("serve.warm_sweep");
    let body = tracer.durations_ms("serve.warm_sweep_body");
    report.metric(
        "util.json_share_warm_sweep",
        1.0 - data / body.iter().sum::<f64>(),
        "ratio",
        format!(
            "1 - Engine::sweep / Engine::sweep_body over {} warm sweeps",
            body.len()
        ),
    );

    // The store: what the daemon appended and shed, then recovery and
    // point loads in-process once it has drained.
    let last = metrics(addr)?;
    report.metric(
        "store.appends",
        num(&last, &["caches", "persistent", "appended"]),
        "count",
        "cells.log appends, warm daemon",
    );
    report.metric(
        "store.shed",
        num(&last, &["caches", "persistent", "shed"]),
        "count",
        "write-behind appends shed",
    );
    // The store must not be opened while a daemon still owns it.
    setup.daemon.stop()?;
    let dir = setup.dir.0.clone();
    let store = tracer.span("store.open", 0, |_| {
        CellStore::open(StoreConfig::new(&dir), Arc::new(NoFault))
    })?;
    report.metric(
        "store.recovery_ms",
        tracer.total_ms("store.open"),
        "ms",
        "CellStore::open on the filled store",
    );
    let cells: Vec<CellSpec> = keys
        .iter()
        .filter(|r| r.endpoint == Endpoint::Run)
        .map(|r| {
            let doc = Json::parse(&r.body).map_err(|e| io::Error::other(e.to_string()))?;
            RunRequest::from_json(&doc, &limits)
                .map(|r| r.cell())
                .map_err(|e| io::Error::other(e.message))
        })
        .collect::<io::Result<_>>()?;
    for c in &cells {
        let found = tracer.span("store.load", 0, |_| store.load(c.fingerprint()));
        report.check(found.is_some(), || {
            format!("{} missing from the store", c.profile.name)
        });
    }
    let load_us: Vec<f64> = tracer
        .durations_ms("store.load")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    report.median("store.load_us", &load_us, "us", "CellStore::load calls");
    write_spans(&tracer, args)
}

// ---------------------------------------------------------------------------
// route_scatter
// ---------------------------------------------------------------------------

/// A router over two shards (fields drop in order: the router first).
struct Tier {
    router: Daemon,
    shards: Vec<Daemon>,
}

impl Tier {
    fn peak_rss_mb(&self) -> io::Result<f64> {
        let mut total = self.router.peak_rss_mb()?;
        for s in &self.shards {
            total += s.peak_rss_mb()?;
        }
        Ok(total)
    }
}

/// `route_scatter` set-up: two shards and a `--replication 2` router,
/// until the router's `/healthz` reports every shard up.
fn route_setup() -> io::Result<Tier> {
    let shard = daemon_args("serve", SHARD_WORKERS);
    let shards = vec![Daemon::spawn(&shard)?, Daemon::spawn(&shard)?];
    for s in &shards {
        wait_ready(&s.addr)?;
    }
    let mut flags = daemon_args("route", "2");
    for s in &shards {
        flags.extend(args(&["--shard", &s.addr]));
    }
    flags.extend(args(&["--replication", "2"]));
    let router = Daemon::spawn(&flags)?;
    wait_ready(&router.addr)?;
    Ok(Tier { router, shards })
}

/// `route_scatter`: `fo4depth route --replication 2` over two shards
/// under the cold-heavy sweep mix of [`Generator::next_scatter`].
pub fn route_scatter(args: &RunArgs) -> io::Result<Report> {
    let bodies = Bodies::default();
    let mut report = Report::default();
    let times = if args.trace { 1 } else { ROUTE_SETUPS };
    let (setups, tier) = repeated_setup(times, route_setup)?;
    if args.trace {
        traced_route(&mut report, args, &tier, &bodies)?;
        return Ok(report);
    }
    let gens = (0..CLIENTS)
        .map(|c| Generator::new(args.seed, c, &[]))
        .collect();
    let phase = closed_loop(
        &tier.router.addr,
        args.seconds,
        gens,
        &|g| g.next_scatter(),
        &bodies,
    );
    let rss = tier.peak_rss_mb()?;
    let m = metrics(&tier.router.addr)?;
    let disturbed = num(&m, &["router", "failovers"]) + num(&m, &["router", "local_fills"]);
    if disturbed > 0.0 {
        eprintln!("perfbench: route_scatter disturbed: {disturbed} failovers + local fills");
    }
    drop(tier);

    report.median("setup_s", &setups, "s", "set-ups");
    latency_metrics(&mut report, &phase, true);
    report.metric(
        "peak_rss_mb",
        rss,
        "MB",
        "VmHWM summed over router and shards",
    );
    fold_phase(&mut report, phase);
    fold_verify(&mut report, &bodies)?;
    Ok(report)
}

fn traced_route(
    report: &mut Report,
    args: &RunArgs,
    tier: &Tier,
    bodies: &Bodies,
) -> io::Result<()> {
    let addr = &tier.router.addr;
    let mut gen = Generator::new(args.seed, 0, &[]);
    let stream: Vec<Req> = (0..3 * ROUTE_TRACED_REQUESTS)
        .map(|_| gen.next_scatter())
        .collect();
    let mut tracer = traced_passes(report, addr, &stream, bodies)?;

    let m = metrics(addr)?;
    let records: Vec<f64> = m
        .get("router")
        .and_then(|r| r.get("shards"))
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|s| num(s, &["records"]))
        .collect();
    let mean = records.iter().sum::<f64>() / records.len().max(1) as f64;
    let max = records.iter().copied().fold(0.0, f64::max);
    report.metric(
        "router.records_max_over_mean",
        max / mean,
        "ratio",
        format!("records per shard {records:?}"),
    );
    for (metric, key) in [
        ("router.replica_writes", "replica_writes"),
        ("router.failovers", "failovers"),
        ("router.local_fills", "local_fills"),
    ] {
        report.metric(
            metric,
            num(&m, &["router", key]),
            "count",
            "router /metrics",
        );
    }

    // Upstream::fetch driven in-process against the same shards, each
    // call on the six fresh cells of a cold sweep.
    let upstream = Upstream::new(
        tier.shards.iter().map(|s| s.addr.clone()).collect(),
        UpstreamConfig {
            replication: 2,
            ..UpstreamConfig::default()
        },
    );
    let limits = RequestLimits::default();
    let mut probe = Generator::new(args.seed, 1, &[]);
    for _ in 0..ROUTE_TRACED_REQUESTS / 4 {
        let (benches, points) = probe.fresh_grid(3, 2);
        let names: Vec<&str> = benches.iter().map(|&b| probe.names[b].as_str()).collect();
        let req = Req::sweep(Endpoint::Sweep, "ooo", &names, &points);
        let doc = Json::parse(&req.body).map_err(|e| io::Error::other(e.to_string()))?;
        let cells = SweepRequest::from_json(&doc, &limits)
            .map_err(|e| io::Error::other(e.message))?
            .cells(false);
        let got = tracer.span("router.fetch", 0, |_| upstream.fetch(&cells));
        report.check(got.iter().all(Option::is_some), || {
            format!("Upstream::fetch left cells of {} unresolved", req.key())
        });
    }
    report.median(
        "router.fetch_ms",
        &tracer.durations_ms("router.fetch"),
        "ms",
        "Upstream::fetch calls",
    );
    write_spans(&tracer, args)
}
