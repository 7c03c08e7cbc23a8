//! Shared harness for the end-to-end service tests: a real server on an
//! ephemeral port (optionally backed by a per-test persistent cache
//! directory), a `fo4depth serve` subprocess for what only the binary
//! does (signals), plus a hand-rolled HTTP/1.1 client.
//!
//! Hygiene rules the harness enforces so `cargo test`'s parallel runners
//! cannot interfere with each other:
//!
//! * every server binds `127.0.0.1:0` — the kernel picks a free port;
//! * every cache-backed server gets its own unique scratch directory
//!   ([`fo4depth::util::TempDir`]), removed when the test's server drops;
//! * drop order is server-then-directory, so the daemon's shutdown flush
//!   never races the cleanup.

// Each integration-test binary compiles its own copy of this module and
// uses a subset of it.
#![allow(dead_code, unused_imports)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use fo4depth::serve::{ServeConfig, Server, ShutdownHandle};
use fo4depth::util::{Json, TempDir};

/// A live server on an ephemeral port, shut down (gracefully) on drop.
/// When started with [`start_with_cache_dir`], also owns the cache
/// scratch directory, removed after the server has fully drained.
pub struct TestServer {
    pub addr: SocketAddr,
    pub handle: ShutdownHandle,
    thread: Option<std::thread::JoinHandle<()>>,
    /// Dropped after the shutdown in `Drop` runs, never before.
    cache_dir: Option<TempDir>,
}

impl TestServer {
    /// The persistent cache directory, when this server has one.
    pub fn cache_path(&self) -> &Path {
        self.cache_dir
            .as_ref()
            .expect("server was started with a cache dir")
            .path()
    }

    /// Releases ownership of the cache directory (so a later server can
    /// reuse it) while still shutting this server down on drop.
    pub fn take_cache_dir(&mut self) -> TempDir {
        self.cache_dir
            .take()
            .expect("server was started with a cache dir")
    }
}

/// Starts a server on an ephemeral port.
pub fn start(mut config: ServeConfig) -> TestServer {
    config.addr = "127.0.0.1:0".to_string();
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run().expect("server runs"));
    TestServer {
        addr,
        handle,
        thread: Some(thread),
        cache_dir: None,
    }
}

/// Starts a server with a fresh, unique persistent cache directory.
pub fn start_with_cache_dir(mut config: ServeConfig) -> TestServer {
    let dir = TempDir::new("fo4depth-serve-test").expect("test cache dir");
    config.cache_dir = Some(dir.path().to_path_buf());
    let mut server = start(config);
    server.cache_dir = Some(dir);
    server
}

/// Starts a server on an existing cache directory (warm restart), taking
/// ownership so the directory is removed when this server drops.
pub fn restart_on_cache_dir(mut config: ServeConfig, dir: TempDir) -> TestServer {
    config.cache_dir = Some(dir.path().to_path_buf());
    let mut server = start(config);
    server.cache_dir = Some(dir);
    server
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            t.join().expect("server thread joins");
        }
        // `cache_dir` (if still owned) drops here, after the drain.
    }
}

/// A `fo4depth serve` subprocess — the real binary, on an ephemeral port,
/// stopped with SIGKILL on drop unless it already exited.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts `fo4depth serve`, backed by `cache_dir` when given, and
    /// waits for its `listening on` line.
    pub fn spawn(cache_dir: Option<&Path>) -> Daemon {
        let mut args = vec!["serve".to_string(), "--addr".into(), "127.0.0.1:0".into()];
        if let Some(dir) = cache_dir {
            args.extend(["--cache-dir".to_string(), dir.display().to_string()]);
        }
        let mut child = Command::new(env!("CARGO_BIN_EXE_fo4depth"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn fo4depth serve");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        reader.read_line(&mut line).expect("read listening line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
            .parse()
            .expect("bound address");
        // Keep draining stdout so the daemon can never block on the pipe.
        std::thread::spawn(move || {
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        });
        Daemon { child, addr }
    }

    pub fn kill_dash_nine(mut self) {
        self.child.kill().expect("SIGKILL");
        self.child.wait().expect("reap");
        // Disarm Drop's double-kill.
        std::mem::forget(self);
    }

    /// Sends SIGTERM through `/bin/kill`, as an operator would, without
    /// waiting for the drain.
    pub fn sigterm(&self) {
        let status = Command::new("/bin/kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("run /bin/kill");
        assert!(status.success(), "kill -TERM exited with {status}");
    }

    /// Waits for the daemon to exit and asserts it exited with status 0.
    pub fn assert_clean_exit(mut self) {
        let status = self.child.wait().expect("reap");
        assert!(status.success(), "daemon exited with {status}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl Response {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    pub fn json(&self) -> Json {
        Json::parse(&self.body).expect("response body is valid JSON")
    }
}

/// Sends raw request bytes and reads the (connection-close delimited)
/// response.
pub fn send(addr: SocketAddr, raw: &[u8]) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("client timeout");
    stream.write_all(raw).expect("send request");
    read_response(&mut stream)
}

/// Reads one connection-close delimited response off an open stream.
pub fn read_response(stream: &mut TcpStream) -> Response {
    let mut buf = Vec::new();
    // A shed connection may be reset once the response is written; what
    // was read before the reset is still the complete response.
    if let Err(e) = stream.read_to_end(&mut buf) {
        assert!(
            buf.windows(4).any(|w| w == b"\r\n\r\n"),
            "connection failed before a complete response arrived: {e}"
        );
    }
    let text = String::from_utf8(buf).expect("UTF-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("complete response head");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_string(), v.trim().to_string()))
        .collect();
    Response {
        status,
        headers,
        body: body.to_string(),
    }
}

pub fn post(addr: SocketAddr, path: &str, body: &str) -> Response {
    send(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

pub fn get(addr: SocketAddr, path: &str) -> Response {
    send(
        addr,
        format!("GET {path} HTTP/1.1\r\nhost: test\r\n\r\n").as_bytes(),
    )
}

pub fn metrics(addr: SocketAddr) -> Json {
    let r = get(addr, "/metrics");
    assert_eq!(r.status, 200);
    r.json()
}

pub fn counter(doc: &Json, path: &[&str]) -> u64 {
    let mut node = doc;
    for key in path {
        node = node.get(key).unwrap_or_else(|| panic!("missing {key}"));
    }
    node.as_u64().expect("integer counter")
}

/// Polls `/metrics` until `path` reaches at least `target` (write-behind
/// persistence means a response can arrive before its cells are on
/// disk). Panics after ~5 s.
pub fn wait_for_counter(addr: SocketAddr, path: &[&str], target: u64) -> u64 {
    for _ in 0..200 {
        let value = counter(&metrics(addr), path);
        if value >= target {
            return value;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("counter {path:?} never reached {target}");
}

// ---------------------------------------------------------------------------
// Chunked (streamed) responses
// ---------------------------------------------------------------------------

// The incremental chunked-response client lives with the serving crate now
// (the router's upstream client grew out of it); tests keep their old name.
pub use fo4depth::serve::client::StreamingClient;

// ---------------------------------------------------------------------------
// Bitwise sweep equivalence
// ---------------------------------------------------------------------------

use fo4depth::study::sim::BenchOutcome;
use fo4depth::study::sweep::DepthSweep;
use fo4depth_pipeline::StallCause;

/// Names every field on which two outcomes differ, in declaration order —
/// the diagnostic backbone of [`assert_outcomes_bitwise_eq`].
fn outcome_divergences(a: &BenchOutcome, b: &BenchOutcome) -> Vec<String> {
    fn record(diffs: &mut Vec<String>, name: &str, ne: bool) {
        if ne {
            diffs.push(name.to_string());
        }
    }
    let mut diffs = Vec::new();
    let mut field = |name: &str, ne: bool| record(&mut diffs, name, ne);
    field("name", a.name != b.name);
    field("class", a.class != b.class);
    let (r, s) = (&a.result, &b.result);
    field("result.instructions", r.instructions != s.instructions);
    field("result.cycles", r.cycles != s.cycles);
    field("result.branches", r.branches != s.branches);
    field("result.mispredicts", r.mispredicts != s.mispredicts);
    field("result.l1", r.l1 != s.l1);
    field("result.l2", r.l2 != s.l2);
    field("result.forwards", r.forwards != s.forwards);
    field("result.loads", r.loads != s.loads);
    match (&a.counters, &b.counters) {
        (None, None) => {}
        (Some(_), None) | (None, Some(_)) => field("counters presence", true),
        (Some(c), Some(d)) => {
            field("counters.width", c.width != d.width);
            field("counters.cycles", c.cycles != d.cycles);
            field("counters.useful_slots", c.useful_slots != d.useful_slots);
            for cause in StallCause::ALL {
                field(
                    &format!("counters.stall_slots[{}]", cause.key()),
                    c.stalls(cause) != d.stalls(cause),
                );
            }
            field(
                "counters.window_occupancy",
                c.window_occupancy != d.window_occupancy,
            );
            field("counters.rob_occupancy", c.rob_occupancy != d.rob_occupancy);
            field("counters.lsq_occupancy", c.lsq_occupancy != d.lsq_occupancy);
            field(
                "counters.dispatch_blocked_rob",
                c.dispatch_blocked_rob != d.dispatch_blocked_rob,
            );
            field(
                "counters.dispatch_blocked_window",
                c.dispatch_blocked_window != d.dispatch_blocked_window,
            );
            field(
                "counters.dispatch_blocked_lsq",
                c.dispatch_blocked_lsq != d.dispatch_blocked_lsq,
            );
            field(
                "counters.dispatch_blocked_rename",
                c.dispatch_blocked_rename != d.dispatch_blocked_rename,
            );
            field("counters.btb", c.btb != d.btb);
        }
    }
    diffs
}

/// Asserts `candidate` reproduces `reference` bit for bit, outcome by
/// outcome. On divergence, panics naming the first differing benchmark,
/// every differing field, and the cycle-count delta — enough to tell a
/// scheduling bug (cycles drift) from an accounting bug (counters only).
pub fn assert_outcomes_bitwise_eq(
    context: &str,
    reference: &[BenchOutcome],
    candidate: &[BenchOutcome],
) {
    assert_eq!(
        reference.len(),
        candidate.len(),
        "{context}: outcome count mismatch"
    );
    for (i, (r, c)) in reference.iter().zip(candidate).enumerate() {
        let diffs = outcome_divergences(r, c);
        assert!(
            diffs.is_empty(),
            "{context}: first divergence at outcome {i} (benchmark {}): \
             fields [{}], cycle delta {:+}",
            r.name,
            diffs.join(", "),
            c.result.cycles as i128 - r.result.cycles as i128,
        );
    }
}

/// Asserts two sweeps are bit-identical, localizing the first divergence to
/// its `(clock point × benchmark)` cell before delegating the field-level
/// diagnostic to [`assert_outcomes_bitwise_eq`].
pub fn assert_sweeps_bitwise_eq(context: &str, reference: &DepthSweep, candidate: &DepthSweep) {
    assert_eq!(reference.core, candidate.core, "{context}: core mismatch");
    assert_eq!(
        reference.overhead, candidate.overhead,
        "{context}: overhead mismatch"
    );
    assert_eq!(
        reference.points.len(),
        candidate.points.len(),
        "{context}: point count mismatch"
    );
    for (pi, (r, c)) in reference.points.iter().zip(&candidate.points).enumerate() {
        assert_eq!(
            r.t_useful, c.t_useful,
            "{context}: point {pi} t_useful mismatch"
        );
        assert_eq!(
            r.period_ps, c.period_ps,
            "{context}: point {pi} period mismatch"
        );
        assert_outcomes_bitwise_eq(
            &format!("{context}, point {pi} (t_useful {})", r.t_useful),
            &r.outcomes,
            &c.outcomes,
        );
    }
    // The walk above localizes any divergence; this full-struct equality
    // (plus the rendered CSV, the artifact the study ships) is the backstop
    // that no field escaped the walk.
    assert_eq!(reference, candidate, "{context}: sweeps differ");
    assert_eq!(
        fo4depth::study::render::sweep_csv(reference),
        fo4depth::study::render::sweep_csv(candidate),
        "{context}: rendered CSV bytes differ"
    );
}
