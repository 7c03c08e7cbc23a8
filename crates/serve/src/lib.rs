//! `fo4depth serve` — the study's simulation-as-a-service daemon.
//!
//! A small, dependency-free HTTP/1.1 JSON server over `std::net` that
//! turns the offline sweep machinery into a long-lived service:
//!
//! * **Content-addressed caching** — requests are canonicalized and
//!   fingerprinted ([`api`]); responses, per-cell outcomes, and trace
//!   arenas are cached in bounded LRU tiers ([`cache`]), so a repeated
//!   Figure-4 sweep is a hash lookup and partially overlapping sweeps
//!   reuse each other's cells.
//! * **Request coalescing** — concurrent identical requests (at response
//!   or cell granularity) join one in-flight computation instead of
//!   duplicating it.
//! * **Backpressure** — a bounded connection queue sheds excess load with
//!   `429` + `Retry-After` instead of stacking unbounded work; per-socket
//!   timeouts and size caps ([`http`]) bound each accepted request.
//! * **Observability** — `GET /metrics` reports queue depth, worker and
//!   pool utilization, per-tier cache counters, and per-endpoint latency
//!   histograms ([`metrics`]).
//!
//! Simulation responses are byte-identical to their offline CLI
//! equivalents: both run through the same grid-cell code path
//! (`fo4depth_study::cells`) and the same deterministic JSON renderer.
//!
//! Shutdown is graceful: `SIGTERM`/`SIGINT` (or a [`ShutdownHandle`])
//! stop the accept loop, queued and in-flight requests drain, workers
//! join, and [`Server::run`] returns.

pub mod api;
pub mod cache;
pub mod client;
pub mod http;
pub mod metrics;
pub mod router;
pub mod store;

use std::collections::VecDeque;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fo4depth_util::{Json, JsonLimits};

use api::{
    ApiError, CellsRequest, Engine, RequestLimits, RingRequest, RunRequest, SweepRequest,
    YieldRequest,
};
use http::{
    error_body, read_request, write_error, write_response, ChunkedWriter, HttpError, Request,
};
use metrics::{cache_json, store_json, sweeps_json, yields_json, Endpoint, RequestMetrics};
use router::{Upstream, UpstreamConfig};
use store::{CellStore, FsyncPolicy, NoFault, StoreConfig};

/// Everything configurable about one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7634`.
    pub addr: String,
    /// Connection worker threads (simulation itself additionally fans out
    /// on the shared execution pool).
    pub workers: usize,
    /// Bounded pending-connection queue; beyond this, load is shed
    /// with `429`.
    pub queue_capacity: usize,
    /// Response-cache capacity (rendered bodies).
    pub response_entries: usize,
    /// Cell-cache capacity (per-`(core × benchmark × scaled machine)`
    /// outcomes).
    pub cell_entries: usize,
    /// Arena-cache capacity (materialized traces).
    pub arena_entries: usize,
    /// Request body cap in bytes.
    pub max_body: usize,
    /// Per-socket read/write timeout.
    pub io_timeout: Duration,
    /// Whole-request read deadline (head + body); a slowloris peer
    /// trickling bytes under `io_timeout` is cut off here.
    pub request_deadline: Duration,
    /// Request validation bounds.
    pub limits: RequestLimits,
    /// Directory for the persistent cell cache; `None` serves from
    /// memory only.
    pub cache_dir: Option<PathBuf>,
    /// Durability policy for persistent-cache appends.
    pub fsync: FsyncPolicy,
    /// Shard addresses (`host:port`). Empty means single-node serving;
    /// non-empty turns this instance into a router (`fo4depth route`)
    /// that scatters cold cells to the owning shards.
    pub shards: Vec<String>,
    /// Shard-tier tuning; consulted only when `shards` is non-empty.
    pub upstream: UpstreamConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7634".to_string(),
            workers: 4,
            queue_capacity: 64,
            response_entries: 256,
            cell_entries: 4096,
            arena_entries: 64,
            max_body: 1 << 20,
            io_timeout: Duration::from_secs(10),
            request_deadline: Duration::from_secs(30),
            limits: RequestLimits::default(),
            cache_dir: None,
            fsync: FsyncPolicy::default(),
            shards: Vec::new(),
            upstream: UpstreamConfig::default(),
        }
    }
}

/// Process-wide signal flag. Signal handlers may only touch
/// async-signal-safe state; a relaxed atomic store is exactly that.
static SIGNALED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sig {
    use super::{AtomicBool, Ordering, SIGNALED};

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        SIGNALED.store(true, Ordering::Relaxed);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Routes `SIGINT` and `SIGTERM` into the shutdown flag. Installed
    /// once per process; re-installation is harmless.
    pub fn install() {
        static INSTALLED: AtomicBool = AtomicBool::new(false);
        if INSTALLED.swap(true, Ordering::SeqCst) {
            return;
        }
        // SAFETY: `signal(2)` with a plain function pointer whose body is
        // a single atomic store — the canonical async-signal-safe handler.
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    /// No signal routing off unix; ctrl-c terminates the process and a
    /// [`ShutdownHandle`](super::ShutdownHandle) remains available.
    pub fn install() {}
}

/// Longest the accept loop waits for a connection before it looks at the
/// shutdown flags again — the same bound as a worker's queue wait. It
/// bounds how late a signal is seen; a [`ShutdownHandle`] wakes the loop
/// at once.
const ACCEPT_WAIT: Duration = Duration::from_millis(100);

#[cfg(unix)]
mod readiness {
    use std::os::unix::io::AsRawFd;
    use std::time::Duration;

    /// `struct pollfd`.
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 1;

    #[cfg(any(target_os = "linux", target_os = "android"))]
    type NFds = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type NFds = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: i32) -> i32;
    }

    /// Blocks until `socket` is readable (a pending connection, request
    /// bytes, or the peer hanging up) or `timeout` passes, and returns
    /// whether it woke for an event. A signal cuts the wait short
    /// (`poll(2)` is never restarted), and any wake-up is only a hint:
    /// the caller's next `accept` or read decides.
    pub fn wait(socket: &impl AsRawFd, timeout: Duration) -> bool {
        let mut fd = PollFd {
            fd: socket.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
        // SAFETY: one valid, exclusively borrowed `pollfd` for the length
        // of the call; `poll(2)` writes only its `revents`.
        unsafe { poll(&mut fd, 1, ms) > 0 }
    }
}

#[cfg(not(unix))]
mod readiness {
    use std::time::Duration;

    /// No `poll(2)` off unix: a short sleep, after which the socket is
    /// reported readable so the caller's blocking read decides.
    pub fn wait<S>(_socket: &S, timeout: Duration) -> bool {
        std::thread::sleep(timeout.min(Duration::from_millis(5)));
        true
    }
}

/// Shared server state: the engine, the bounded queue, and the counters.
struct State {
    config: ServeConfig,
    /// A dialable address of the listener, for [`ShutdownHandle`]'s
    /// wake-up connection.
    wake_addr: SocketAddr,
    engine: Engine,
    metrics: RequestMetrics,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    shed: AtomicU64,
    busy_workers: AtomicUsize,
    shutdown: AtomicBool,
}

impl State {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || SIGNALED.load(Ordering::Relaxed)
    }
}

/// A clonable remote control that stops a running [`Server`] the same way
/// `SIGTERM` does: stop accepting, drain, return.
#[derive(Clone)]
pub struct ShutdownHandle {
    state: Arc<State>,
}

impl ShutdownHandle {
    /// Requests a graceful shutdown.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.queue_cv.notify_all();
        // A throwaway connection ends the accept loop's readiness wait,
        // so the flag is seen now rather than after `ACCEPT_WAIT`.
        // Best-effort: a server that is not running never accepts it.
        let _ = TcpStream::connect_timeout(&self.state.wake_addr, ACCEPT_WAIT);
    }
}

/// One bound daemon instance.
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

impl Server {
    /// Binds the configured address.
    ///
    /// # Errors
    ///
    /// Returns the bind error (address in use, permission, …).
    pub fn bind(config: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let engine = build_engine(&config)?;
        Ok(Self {
            listener,
            state: Arc::new(State {
                config,
                wake_addr,
                engine,
                metrics: RequestMetrics::new(),
                queue: Mutex::new(VecDeque::new()),
                queue_cv: Condvar::new(),
                shed: AtomicU64::new(0),
                busy_workers: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The actually-bound address (resolves `:0` to the assigned port).
    ///
    /// # Errors
    ///
    /// Propagates the socket query error.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop this server from another thread.
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serves until `SIGTERM`/`SIGINT` or a [`ShutdownHandle`] fires, then
    /// drains queued and in-flight requests and joins the workers.
    ///
    /// # Errors
    ///
    /// Returns socket-setup errors; per-connection failures are handled
    /// as error responses, not propagated.
    pub fn run(self) -> io::Result<()> {
        sig::install();
        // The loop blocks in `poll(2)` until a connection is pending, at
        // most `ACCEPT_WAIT`, so a new connection is taken at once and a
        // signal is still seen promptly (a `ShutdownHandle` dials in to
        // end the wait). The listener stays nonblocking: a wake-up with
        // nothing to accept just loops.
        self.listener.set_nonblocking(true)?;

        // Router mode: a prober thread keeps the per-shard liveness
        // flags fresh so the scatter path prefers shards known to be up.
        let prober = self.state.engine.upstream().map(|_| {
            let state = Arc::clone(&self.state);
            std::thread::Builder::new()
                .name("serve-prober".to_string())
                .spawn(move || {
                    let upstream = state.engine.upstream().expect("router state");
                    while !state.shutting_down() {
                        // A pass that panics (a poisoned lock, a broken
                        // resolver) must not silently kill the prober:
                        // frozen liveness flags would misroute forever.
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            upstream.probe();
                        }));
                        // Sleep in short steps so shutdown is not held up
                        // by the probe interval.
                        let interval = upstream.probe_interval();
                        let mut slept = Duration::ZERO;
                        while slept < interval && !state.shutting_down() {
                            let step = Duration::from_millis(50).min(interval - slept);
                            std::thread::sleep(step);
                            slept += step;
                        }
                    }
                })
                .expect("spawn shard prober")
        });

        let workers: Vec<_> = (0..self.state.config.workers.max(1))
            .map(|i| {
                let state = Arc::clone(&self.state);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&state))
                    .expect("spawn connection worker")
            })
            .collect();

        while !self.state.shutting_down() {
            match self.listener.accept() {
                Ok((stream, _peer)) => enqueue(&self.state, stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    readiness::wait(&self.listener, ACCEPT_WAIT);
                }
                Err(_) => {
                    // Transient accept failure (e.g. aborted handshake).
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }

        // Drain: no new connections are accepted; workers finish the
        // queue (worker_loop only exits on shutdown AND empty queue).
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.queue_cv.notify_all();
        for w in workers {
            let _ = w.join();
        }
        if let Some(p) = prober {
            let _ = p.join();
        }
        // With the workers gone no new cell outcomes can be produced;
        // drain the write-behind queue so a clean shutdown leaves every
        // computed cell (and a fresh sidecar index) on disk.
        if let Some(cell_store) = self.state.engine.store() {
            cell_store.flush();
        }
        Ok(())
    }
}

/// Builds the engine a [`ServeConfig`] describes — cache tiers, optional
/// persistent store, optional shard tier. Shared by [`Server::bind`] and
/// embedded callers (`tests/perf_gates.rs` drives a router engine
/// directly, without a listener).
///
/// Opening the store recovers whatever a previous process left:
/// corruption is truncated and counted, never fatal.
///
/// # Errors
///
/// Genuine store-environment failures (unreachable cache directory).
pub fn build_engine(config: &ServeConfig) -> io::Result<Engine> {
    let cell_store = match &config.cache_dir {
        Some(dir) => {
            let mut store_config = StoreConfig::new(dir);
            store_config.fsync = config.fsync;
            Some(Arc::new(CellStore::open(store_config, Arc::new(NoFault))?))
        }
        None => None,
    };
    let mut engine = Engine::with_store(
        config.response_entries,
        config.cell_entries,
        config.arena_entries,
        cell_store,
    );
    if !config.shards.is_empty() {
        engine = engine.with_upstream(Arc::new(Upstream::new(
            config.shards.clone(),
            config.upstream.clone(),
        )));
    }
    Ok(engine)
}

/// Admits a connection into the bounded queue or sheds it with `429`.
fn enqueue(state: &Arc<State>, stream: TcpStream) {
    // Every response leaves in whole messages; Nagle's algorithm would
    // only hold the last segment of one back for the peer's delayed ACK.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(state.config.io_timeout));
    let _ = stream.set_write_timeout(Some(state.config.io_timeout));
    let mut queue = state.queue.lock().expect("queue lock");
    if queue.len() >= state.config.queue_capacity {
        drop(queue);
        state.shed.fetch_add(1, Ordering::Relaxed);
        let mut stream = stream;
        write_response(
            &mut stream,
            429,
            &[("retry-after", "1")],
            error_body("queue_full", "server is at capacity; retry shortly").as_bytes(),
            false,
        );
        // Discard whatever request bytes already arrived: closing with
        // unread data makes the kernel RST the connection, which can
        // destroy the 429 before the peer reads it. Nonblocking, so a
        // slow peer cannot stall the accept loop.
        if stream.set_nonblocking(true).is_ok() {
            let mut scratch = [0u8; 1024];
            use std::io::Read as _;
            while matches!(stream.read(&mut scratch), Ok(n) if n > 0) {}
        }
        state.metrics.record(Endpoint::Other, 429, 0);
        return;
    }
    queue.push_back(stream);
    drop(queue);
    state.queue_cv.notify_one();
}

/// Takes connections off the queue until shutdown, then drains what is
/// left and exits.
fn worker_loop(state: &Arc<State>) {
    loop {
        let stream = {
            let mut queue = state.queue.lock().expect("queue lock");
            loop {
                if let Some(s) = queue.pop_front() {
                    break Some(s);
                }
                if state.shutting_down() {
                    break None;
                }
                let (guard, _) = state
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(100))
                    .expect("queue lock");
                queue = guard;
            }
        };
        let Some(mut stream) = stream else {
            return;
        };
        state.busy_workers.fetch_add(1, Ordering::SeqCst);
        handle_connection(state, &mut stream);
        state.busy_workers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Reads, routes, answers, and records requests on one connection until
/// it closes. A connection serves one request and closes by default; a
/// peer that sent `Connection: keep-alive` loops for the next request
/// after each successful response (the router's upstream pool rides
/// this), with a fresh read deadline per request. Error responses always
/// close — an errored exchange leaves no framing guarantees worth
/// preserving.
fn handle_connection(state: &State, stream: &mut TcpStream) {
    loop {
        if !await_next_request(state, stream) {
            return;
        }
        let started = Instant::now();
        let request =
            match read_request(stream, state.config.max_body, state.config.request_deadline) {
                Ok(r) => r,
                Err(e) => {
                    // `CLOSED` is the peer going away between (or before)
                    // requests: nothing to answer, nothing to record.
                    if e.status != http::CLOSED {
                        write_error(stream, &e);
                        record(state, Endpoint::Other, e.status, started);
                    }
                    return;
                }
            };
        // During drain, answer the in-flight request but drop the
        // keep-alive so the connection (and its worker) winds down.
        let keep = request.keep_alive && !state.shutting_down();
        // The sweep and cells endpoints own their own delivery: their
        // bodies can leave as chunked fragments, which the buffered
        // `route` plumbing cannot express.
        let alive = if request.method == "POST" && request.path == "/v1/sweep" {
            let (status, alive) = handle_sweep(state, stream, &request, keep);
            record(state, Endpoint::Sweep, status, started);
            alive
        } else if request.method == "POST" && request.path == "/v1/cells" {
            let (status, alive) = handle_cells(state, stream, &request, keep);
            record(state, Endpoint::Cells, status, started);
            alive
        } else if request.method == "POST" && request.path == "/v1/yield" {
            let (status, alive) = handle_yield(state, stream, &request, keep);
            record(state, Endpoint::Yield, status, started);
            alive
        } else {
            let (endpoint, outcome) = route(state, &request);
            match outcome {
                Ok(body) => {
                    write_response(stream, 200, &[], body.as_bytes(), keep);
                    record(state, endpoint, 200, started);
                    keep
                }
                Err(e) => {
                    write_error(stream, &e);
                    record(state, endpoint, e.status, started);
                    false
                }
            }
        };
        if !alive {
            return;
        }
    }
}

/// Waits for a connection's next request (its first included) in
/// `ACCEPT_WAIT` slices, looking at the shutdown flags between them, so a
/// drain does not sit out an idle peer's read timeout. Returns whether
/// request bytes (or the peer's close) arrived; `false` means the server
/// is shutting down or the connection stayed idle for `io_timeout`, and
/// it closes silently as an idle read timeout always did.
fn await_next_request(state: &State, stream: &TcpStream) -> bool {
    let idle_until = Instant::now() + state.config.io_timeout;
    loop {
        let slice = idle_until.saturating_duration_since(Instant::now());
        if readiness::wait(stream, slice.min(ACCEPT_WAIT)) {
            return true;
        }
        if state.shutting_down() || Instant::now() >= idle_until {
            return false;
        }
    }
}

/// `POST /v1/sweep`, buffered or streamed. Returns the response status
/// and whether the connection remains reusable.
fn handle_sweep(
    state: &State,
    stream: &mut TcpStream,
    request: &Request,
    keep: bool,
) -> (u16, bool) {
    let req = match parse_body(state, request)
        .and_then(|doc| to_http(SweepRequest::from_json(&doc, &state.config.limits)))
    {
        Ok(req) => req,
        Err(e) => {
            write_error(stream, &e);
            return (e.status, false);
        }
    };
    if !req.stream {
        let body = state.engine.sweep_summary(&req);
        write_response(stream, 200, &[], body.as_bytes(), keep);
        return (200, keep);
    }
    // Streamed delivery bypasses the response tier's single-flight (the
    // point is progress, not deduplication — and the cell tier still
    // dedups the actual simulation work underneath). The assembled body
    // is installed into the response cache afterwards, so a streamed
    // sweep warms its buffered twin: `stream` is excluded from the
    // fingerprint and both render the same bytes.
    let mut writer = ChunkedWriter::start(stream, 200, "application/json", keep);
    let body = state.engine.sweep_body(&req, true, &mut |frag| {
        writer.chunk(frag.as_bytes());
    });
    // Count the finished stream and warm the response tier before the
    // terminator goes out: the instant the peer sees the end of the
    // stream it may query /metrics or send the buffered twin, and both
    // must already see the completed stream.
    state.engine.sweeps.record_stream(writer.chunks());
    if !writer.failed() {
        state
            .engine
            .responses
            .insert(req.fingerprint("sweep"), Arc::new(body));
    }
    let (_, finished) = writer.finish();
    (200, keep && finished)
}

/// `POST /v1/yield`, buffered or streamed — the same delivery contract as
/// `/v1/sweep`: the streamed fragment sequence concatenates to the
/// buffered body byte for byte, and a delivered streamed body is
/// installed into the response tier so it warms its buffered twin.
fn handle_yield(
    state: &State,
    stream: &mut TcpStream,
    request: &Request,
    keep: bool,
) -> (u16, bool) {
    let req = match parse_body(state, request)
        .and_then(|doc| to_http(YieldRequest::from_json(&doc, &state.config.limits)))
    {
        Ok(req) => req,
        Err(e) => {
            if e.code == "invalid_distribution" {
                state
                    .engine
                    .yields
                    .invalid_distribution
                    .fetch_add(1, Ordering::Relaxed);
            }
            write_error(stream, &e);
            return (e.status, false);
        }
    };
    if !req.stream {
        let body = state.engine.yield_summary(&req);
        write_response(stream, 200, &[], body.as_bytes(), keep);
        return (200, keep);
    }
    let mut writer = ChunkedWriter::start(stream, 200, "application/json", keep);
    let body = state.engine.yield_body(&req, true, &mut |frag| {
        writer.chunk(frag.as_bytes());
    });
    // Same ordering as `handle_sweep`: record and cache before the
    // terminator, so a peer that races straight to /metrics or to the
    // buffered twin sees the finished stream.
    state.engine.yields.record_stream(writer.chunks());
    if !writer.failed() {
        state
            .engine
            .responses
            .insert(req.fingerprint(), Arc::new(body));
    }
    let (_, finished) = writer.finish();
    (200, keep && finished)
}

/// `POST /v1/cells` — the shard-internal scatter endpoint. The request
/// names a batch of cells; the response is the store codec's binary
/// framing ([`store::encode_record`] around a tagged outcome payload),
/// one CRC-guarded record per cell in request order, streamed as one
/// chunk per record. Routers decode with [`store::decode_record`] /
/// [`store::decode_outcome`] — the exact all-integer codec the
/// persistence tier already proves byte-faithful — so a gathered outcome
/// is bit-identical to a locally simulated one.
fn handle_cells(
    state: &State,
    stream: &mut TcpStream,
    request: &Request,
    keep: bool,
) -> (u16, bool) {
    let req = match parse_body(state, request)
        .and_then(|doc| to_http(CellsRequest::from_json(&doc, &state.config.limits)))
    {
        Ok(req) => req,
        Err(e) => {
            write_error(stream, &e);
            return (e.status, false);
        }
    };
    let outcomes = state.engine.fill_cells(&req.cells);
    let mut writer = ChunkedWriter::start(stream, 200, "application/octet-stream", keep);
    for (cell, outcome) in req.cells.iter().zip(&outcomes) {
        let payload = store::encode_outcome_tagged(outcome, Some(cell.core));
        if !writer.chunk(&store::encode_record(cell.fingerprint(), &payload)) {
            break;
        }
    }
    let (_, finished) = writer.finish();
    (200, keep && finished)
}

/// Parses a request body as JSON under the configured limits.
fn parse_body(state: &State, request: &Request) -> Result<Json, HttpError> {
    let json_limits = JsonLimits {
        max_bytes: state.config.max_body,
        ..JsonLimits::default()
    };
    Json::parse_bytes(&request.body, &json_limits).map_err(|e| HttpError {
        status: 400,
        code: "bad_json",
        message: e.to_string(),
    })
}

/// Lifts a validation failure into the HTTP error shape.
fn to_http<T>(r: Result<T, ApiError>) -> Result<T, HttpError> {
    r.map_err(|e| HttpError {
        status: e.status,
        code: e.code,
        message: e.message,
    })
}

fn record(state: &State, endpoint: Endpoint, status: u16, started: Instant) {
    let elapsed_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    state.metrics.record(endpoint, status, elapsed_us);
}

/// Maps a request to its endpoint and response body.
fn route(state: &State, request: &Request) -> (Endpoint, Result<Arc<String>, HttpError>) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/report") => (
            Endpoint::Report,
            simulate(state, request, |engine, doc, limits| {
                let req = SweepRequest::from_json(doc, limits)?;
                if req.stream {
                    return Err(ApiError {
                        status: 422,
                        code: "invalid_request",
                        message: "\"stream\" is only supported on /v1/sweep".to_string(),
                    });
                }
                Ok(engine.report(&req))
            }),
        ),
        // ("POST", "/v1/sweep") is intercepted in `handle_connection`.
        ("POST", "/v1/run") => (
            Endpoint::Run,
            simulate(state, request, |engine, doc, limits| {
                Ok(engine.run(&RunRequest::from_json(doc, limits)?))
            }),
        ),
        ("POST", "/v1/records") => (Endpoint::Records, install_records(state, request)),
        ("POST", "/v1/ring") => (Endpoint::Ring, ring_update(state, request)),
        ("GET", "/metrics") => (Endpoint::Metrics, Ok(Arc::new(metrics_body(state)))),
        // Router mode aggregates per-shard prober state so an external
        // load balancer can front multiple routers on this document;
        // a shard's own health stays the minimal liveness ack.
        ("GET", "/healthz") => (
            Endpoint::Health,
            Ok(Arc::new(match state.engine.upstream() {
                Some(upstream) => upstream.healthz_json().render(),
                None => Json::obj(vec![("status", Json::str("ok"))]).render(),
            })),
        ),
        (
            "GET" | "POST",
            "/v1/report" | "/v1/sweep" | "/v1/run" | "/v1/yield" | "/v1/records" | "/v1/ring"
            | "/metrics" | "/healthz",
        ) => (
            Endpoint::Other,
            Err(HttpError {
                status: 405,
                code: "method_not_allowed",
                message: format!("{} is not supported on {}", request.method, request.path),
            }),
        ),
        _ => (
            Endpoint::Other,
            Err(HttpError {
                status: 404,
                code: "not_found",
                message: format!("no route for {}", request.path),
            }),
        ),
    }
}

/// `POST /v1/records` — the shard-internal replica-warming endpoint:
/// the body is a concatenation of the store codec's CRC-guarded binary
/// records (the exact bytes a `/v1/cells` gather delivers), installed
/// into this instance's cache tiers without simulating. Tolerance is
/// structural: an undecodable payload is rejected and skipped, an
/// unframeable tail is rejected wholesale — never a panic, never a
/// partial record installed (the CRC gate decides).
fn install_records(state: &State, request: &Request) -> Result<Arc<String>, HttpError> {
    if request.body.is_empty() {
        return Err(HttpError {
            status: 400,
            code: "bad_records",
            message: "a record push needs a non-empty binary body".to_string(),
        });
    }
    let (mut installed, mut rejected) = (0u64, 0u64);
    let mut rest: &[u8] = &request.body;
    while !rest.is_empty() {
        match store::decode_record(rest) {
            Ok((fingerprint, payload, used)) => {
                let decoded = store::payload_core(payload)
                    .and_then(|core| store::decode_outcome(payload).map(|o| (core, o)));
                match decoded {
                    Ok((core, outcome)) => {
                        state.engine.install_record(fingerprint, core, outcome);
                        installed += 1;
                    }
                    // A framed record with an undecodable payload (e.g.
                    // a stale schema version): skip it, keep the rest.
                    Err(_) => rejected += 1,
                }
                rest = &rest[used..];
            }
            Err(_) => {
                // The frame boundary itself is gone; nothing after this
                // point can be attributed to a record.
                rejected += 1;
                break;
            }
        }
    }
    Ok(Arc::new(
        Json::obj(vec![
            ("installed", Json::uint(installed)),
            ("rejected", Json::uint(rejected)),
        ])
        .render(),
    ))
}

/// `POST /v1/ring` — the router's membership admin endpoint: adds and
/// removes shard addresses as one ring rebuild, draining departing
/// shards before their pools drop. Rejected on non-router instances.
fn ring_update(state: &State, request: &Request) -> Result<Arc<String>, HttpError> {
    let Some(upstream) = state.engine.upstream() else {
        return Err(HttpError {
            status: 404,
            code: "not_found",
            message: "ring membership is a router endpoint".to_string(),
        });
    };
    let doc = parse_body(state, request)?;
    let req = to_http(RingRequest::from_json(&doc))?;
    match upstream.update_ring(&req.add, &req.remove) {
        Ok(update) => Ok(Arc::new(
            Json::obj(vec![
                (
                    "shards",
                    Json::Arr(update.shards.iter().map(Json::str).collect()),
                ),
                ("rebuilds", Json::uint(update.rebuilds)),
                ("drained", Json::uint(update.drained as u64)),
            ])
            .render(),
        )),
        Err(message) => Err(HttpError {
            status: 400,
            code: "bad_ring_update",
            message,
        }),
    }
}

/// Shared body-parse + validate + compute wrapper for the POST endpoints.
fn simulate(
    state: &State,
    request: &Request,
    f: impl FnOnce(&Engine, &Json, &RequestLimits) -> Result<Arc<String>, ApiError>,
) -> Result<Arc<String>, HttpError> {
    let doc = parse_body(state, request)?;
    to_http(f(&state.engine, &doc, &state.config.limits))
}

/// Renders the `/metrics` document.
fn metrics_body(state: &State) -> String {
    let queue_depth = state.queue.lock().expect("queue lock").len();
    let pool = fo4depth_exec::global().stats();
    let mut doc = vec![
        ("schema_version", Json::uint(1)),
        (
            "queue",
            Json::obj(vec![
                ("depth", Json::uint(queue_depth as u64)),
                ("capacity", Json::uint(state.config.queue_capacity as u64)),
                ("shed", Json::uint(state.shed.load(Ordering::Relaxed))),
            ]),
        ),
        (
            "workers",
            Json::obj(vec![
                (
                    "connection",
                    Json::obj(vec![
                        ("total", Json::uint(state.config.workers.max(1) as u64)),
                        (
                            "busy",
                            Json::uint(state.busy_workers.load(Ordering::SeqCst) as u64),
                        ),
                    ]),
                ),
                (
                    "pool",
                    Json::obj(vec![
                        ("threads", Json::uint(pool.threads as u64)),
                        ("busy", Json::uint(pool.busy as u64)),
                        ("tasks_executed", Json::uint(pool.tasks_executed)),
                        ("batches_submitted", Json::uint(pool.batches_submitted)),
                    ]),
                ),
            ]),
        ),
        (
            "caches",
            Json::obj({
                let mut tiers = vec![
                    ("responses", cache_json(&state.engine.responses.stats())),
                    ("cells", cache_json(&state.engine.cells.stats())),
                    ("arenas", cache_json(&state.engine.arenas.stats())),
                ];
                if let Some(cell_store) = state.engine.store() {
                    tiers.push(("persistent", store_json(&cell_store.stats())));
                }
                tiers
            }),
        ),
        ("sweeps", sweeps_json(&state.engine.sweeps)),
        ("yield", yields_json(&state.engine.yields)),
    ];
    // Router mode: the shard tier's per-shard routing counters and
    // failover accounting join the document.
    if let Some(upstream) = state.engine.upstream() {
        doc.push(("router", upstream.metrics_json()));
    }
    doc.push(("endpoints", state.metrics.to_json()));
    Json::obj(doc).pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound_at(addr: &str) -> Server {
        Server::bind(ServeConfig {
            addr: addr.to_string(),
            ..ServeConfig::default()
        })
        .expect("bind ephemeral port")
    }

    fn bound() -> Server {
        bound_at("127.0.0.1:0")
    }

    #[test]
    fn admitted_connections_disable_nagle() {
        let server = bound();
        let _client = TcpStream::connect(server.local_addr().expect("addr")).expect("connect");
        let (accepted, _) = server.listener.accept().expect("accept");
        enqueue(&server.state, accepted);
        let queued = server
            .state
            .queue
            .lock()
            .expect("queue lock")
            .pop_front()
            .expect("admitted");
        assert!(queued.nodelay().expect("nodelay"));
    }

    #[test]
    fn the_accept_wait_ends_when_a_connection_is_pending() {
        let server = bound();
        server.listener.set_nonblocking(true).expect("nonblocking");
        let _client = TcpStream::connect(server.local_addr().expect("addr")).expect("connect");
        let started = Instant::now();
        readiness::wait(&server.listener, Duration::from_secs(30));
        assert!(started.elapsed() < Duration::from_secs(10));
        assert!(server.listener.accept().is_ok(), "the wake-up was real");
    }

    #[test]
    fn shutdown_dials_the_listener_to_end_the_accept_wait() {
        // Bound to the unspecified address, the wake-up dials loopback.
        let server = bound_at("0.0.0.0:0");
        server.listener.set_nonblocking(true).expect("nonblocking");
        server.shutdown_handle().shutdown();
        let started = Instant::now();
        readiness::wait(&server.listener, Duration::from_secs(30));
        assert!(started.elapsed() < Duration::from_secs(10));
        assert!(server.listener.accept().is_ok(), "the handle dialled in");
    }
}
