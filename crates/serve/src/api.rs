//! Request validation, canonicalization, and the cached simulation
//! engine.
//!
//! Every request body is validated into a *canonical* form first — typed
//! fields, defaults filled, unknown keys rejected — and the content
//! fingerprint is taken over that canonical form, never the raw bytes. Two
//! requests that mean the same computation therefore hash to the same
//! cache key regardless of member order or formatting, while a request
//! that means anything different cannot collide by construction
//! (every field is length- or tag-delimited into the digest).
//!
//! The [`Engine`] serves three request shapes over three cache tiers:
//!
//! * **responses** — rendered JSON bodies keyed by request fingerprint
//!   (repeat requests cost a hash lookup);
//! * **cells** — one simulation outcome per `(core × benchmark ×
//!   scaled machine)` entry ([`CellSpec`] fingerprints address the
//!   quantized core config, not the clock point), so partially
//!   overlapping sweeps — and clock points that scale to the same
//!   machine — reuse each other's work;
//! * **arenas** — materialized benchmark traces keyed by
//!   `(benchmark, seed, length)`, shared across every cell that replays
//!   the same stream.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fo4depth_fo4::Fo4;
use fo4depth_study::adaptive::{AdaptiveConfig, AdaptivePlanner};
use fo4depth_study::cells::{assemble_sweep, sweep_cells, CellSpec, DistinctCells};
use fo4depth_study::latency::StructureSet;
use fo4depth_study::report;
use fo4depth_study::sim::{summarize, BenchOutcome, SimParams};
use fo4depth_study::sweep::{
    standard_points, AdaptiveSweep, CoreKind, DepthSweep, SweepPoint, SweepSpec,
};
use fo4depth_study::yield_sweep::{YieldPlan, YieldPoint, YieldSweep};
use fo4depth_util::hash::Fnv64;
use fo4depth_util::Json;
use fo4depth_variation::{ComponentSpec, DistKind, VariationSpec};
use fo4depth_workload::{profiles, BenchClass, BenchProfile, TraceArena};

use crate::cache::Cache;
use crate::store::CellStore;

/// Tag identifying the only structure set the daemon serves.
const STRUCTURES_TAG: &str = "alpha_21264";

/// A request that failed validation, with the HTTP status to signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status (422 for semantic errors, 400 for shape errors).
    pub status: u16,
    /// Machine-readable error code.
    pub code: &'static str,
    /// Human-readable detail naming the offending field.
    pub message: String,
}

impl ApiError {
    fn invalid(message: impl Into<String>) -> Self {
        Self {
            status: 422,
            code: "invalid_request",
            message: message.into(),
        }
    }

    fn unsupported_schema(message: impl Into<String>) -> Self {
        Self {
            status: 400,
            code: "unsupported_schema_version",
            message: message.into(),
        }
    }

    fn invalid_distribution(message: impl Into<String>) -> Self {
        Self {
            status: 400,
            code: "invalid_distribution",
            message: message.into(),
        }
    }
}

/// Validation bounds — the admission-control half that can be decided
/// from the request alone, before any work is queued.
#[derive(Debug, Clone, Copy)]
pub struct RequestLimits {
    /// Maximum clock points per sweep request.
    pub max_points: usize,
    /// Maximum benchmarks per sweep request.
    pub max_benchmarks: usize,
    /// Maximum `warmup + measure` instructions per cell.
    pub max_instructions: u64,
}

impl Default for RequestLimits {
    fn default() -> Self {
        Self {
            max_points: 64,
            max_benchmarks: 32,
            max_instructions: 1_000_000,
        }
    }
}

/// A validated, canonical sweep-shaped request (`/v1/report` and
/// `/v1/sweep`).
#[derive(Debug, Clone)]
pub struct SweepRequest {
    /// Core model.
    pub core: CoreKind,
    /// Benchmarks, in request (= response) order.
    pub profiles: Vec<BenchProfile>,
    /// Clock points, in request (= response) order.
    pub points: Vec<Fo4>,
    /// Simulation intervals and seed.
    pub params: SimParams,
    /// Per-stage overhead.
    pub overhead: Fo4,
    /// `Some` when the request asked for adaptive refinement instead of
    /// the dense grid; carries the planner knobs.
    pub adaptive: Option<AdaptiveConfig>,
    /// Whether the client asked for chunked per-point delivery. A
    /// transport choice, not a computation: excluded from the
    /// fingerprint, honoured by the `/v1/sweep` route only.
    pub stream: bool,
}

/// A validated `/v1/run` request: one benchmark at one clock point.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// Core model.
    pub core: CoreKind,
    /// The benchmark.
    pub profile: BenchProfile,
    /// The clock point.
    pub t_useful: Fo4,
    /// Simulation intervals and seed.
    pub params: SimParams,
    /// Per-stage overhead.
    pub overhead: Fo4,
    /// Whether to collect and return stall-attribution counters.
    pub observed: bool,
}

fn core_key(core: CoreKind) -> &'static str {
    match core {
        CoreKind::InOrder => "inorder",
        CoreKind::OutOfOrder => "ooo",
    }
}

/// The benchmark-class keys of the sweep summary, in render order.
const CLASSES: [(&str, Option<BenchClass>); 4] = [
    ("all", None),
    ("integer", Some(BenchClass::Integer)),
    ("vector_fp", Some(BenchClass::VectorFp)),
    ("non_vector_fp", Some(BenchClass::NonVectorFp)),
];

// ---------------------------------------------------------------------------
// /v1/sweep body fragments
//
// The sweep summary is delivered two ways — buffered (one
// `content-length` body) and streamed (one chunk per completed point) —
// and both must be the *same bytes*. The body is therefore always
// produced as a fragment sequence: a preamble ending inside the `points`
// array, one fragment per point, and a tail closing the array and
// carrying the optima (and adaptive stats). Fragment interiors render
// through `Json::pretty_fragment`, and only the array framing is written
// by hand, so the concatenation is exactly the `Json::pretty` rendering
// of the assembled document.
// ---------------------------------------------------------------------------

/// Everything before the first point: the document head, opened into the
/// `points` array.
fn head_fragment(req: &SweepRequest, schema: u64) -> String {
    let head = Json::obj(vec![
        ("schema_version", Json::uint(schema)),
        ("core", Json::str(core_key(req.core))),
        ("overhead_fo4", Json::Num(req.overhead.get())),
        ("params", params_json(&req.params)),
    ]);
    open_points(&head)
}

/// One per-class BIPS summary point of the `/v1/sweep` document.
fn point_summary_json(p: &SweepPoint) -> Json {
    let mut summaries = Vec::new();
    for &(key, class) in &CLASSES {
        if let Some(s) = summarize(&p.outcomes, class, p.period_ps) {
            summaries.push((
                key,
                Json::obj(vec![
                    ("bips", Json::Num(s.bips)),
                    ("ipc", Json::Num(s.ipc)),
                    ("count", Json::uint(s.count as u64)),
                ]),
            ));
        }
    }
    Json::obj(vec![
        ("t_useful", Json::Num(p.t_useful)),
        ("period_ps", Json::Num(p.period_ps)),
        ("classes", Json::obj(summaries)),
    ])
}

/// The per-class optima over a (possibly probed-subset) sweep.
fn optima_json(sweep: &DepthSweep) -> Json {
    let mut optima = Vec::new();
    for &(key, class) in &CLASSES {
        if !sweep.series(class).is_empty() {
            let (t, bips) = sweep.optimum(class);
            optima.push((
                key,
                Json::obj(vec![("t_useful", Json::Num(t)), ("bips", Json::Num(bips))]),
            ));
        }
    }
    Json::obj(optima)
}

/// The terminal fragment: closes the `points` array and carries the
/// optima (plus the adaptive stats block when the sweep was adaptive).
fn tail_fragment(optima: Json, adaptive: Option<Json>) -> String {
    let mut pairs = vec![("optima".to_string(), optima)];
    if let Some(stats) = adaptive {
        pairs.push(("adaptive".to_string(), stats));
    }
    close_points(&Json::Obj(pairs))
}

/// The document head rendered up to an open `points` array: the object
/// is reopened (its closing "\n}" dropped) and the array started.
fn open_points(head: &Json) -> String {
    let mut out = head.pretty_fragment(0);
    out.truncate(out.len() - 2);
    out.push_str(",\n  \"points\": [");
    out
}

/// One point as an array element (separator included for all but the
/// first).
fn element_fragment(point: &Json, first: bool) -> String {
    format!(
        "{}\n    {}",
        if first { "" } else { "," },
        point.pretty_fragment(2)
    )
}

/// Closes the `points` array, then splices the tail object's members in
/// (everything after its opening brace, which already ends "\n}").
fn close_points(tail: &Json) -> String {
    let rendered = tail.pretty_fragment(0);
    format!("\n  ],{}\n", &rendered[1..])
}

/// The `params` block every document carries.
fn params_json(params: &SimParams) -> Json {
    Json::obj(vec![
        ("warmup", Json::uint(params.warmup)),
        ("measure", Json::uint(params.measure)),
        ("seed", Json::uint(params.seed)),
    ])
}

/// Shared field readers over the request object.
struct Fields<'a> {
    pairs: &'a [(String, Json)],
    allowed: &'static [&'static str],
}

impl<'a> Fields<'a> {
    fn of(doc: &'a Json, allowed: &'static [&'static str]) -> Result<Self, ApiError> {
        let Json::Obj(pairs) = doc else {
            return Err(ApiError::invalid("request body must be a JSON object"));
        };
        for (key, _) in pairs {
            if !allowed.contains(&key.as_str()) {
                return Err(ApiError::invalid(format!(
                    "unknown field {key:?}; allowed: {}",
                    allowed.join(", ")
                )));
            }
            if pairs.iter().filter(|(k, _)| k == key).count() > 1 {
                return Err(ApiError::invalid(format!("duplicate field {key:?}")));
            }
        }
        Ok(Self { pairs, allowed })
    }

    fn get(&self, key: &str) -> Option<&'a Json> {
        debug_assert!(self.allowed.contains(&key));
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Rejects any request that declares a body schema this server does
    /// not speak. Absent means version 1 (every historical client);
    /// explicit `1` is accepted and — like the implicit default — is not
    /// part of the request's canonical form, so it cannot split the
    /// cache.
    fn schema_version(&self) -> Result<(), ApiError> {
        match self.get("schema_version") {
            None => Ok(()),
            Some(v) => match v.as_u64() {
                Some(1) => Ok(()),
                Some(n) => Err(ApiError::unsupported_schema(format!(
                    "request schema_version {n} is not supported; this server speaks version 1"
                ))),
                None => Err(ApiError::unsupported_schema(
                    "schema_version must be a non-negative integer",
                )),
            },
        }
    }

    fn core(&self) -> Result<CoreKind, ApiError> {
        match self.get("core") {
            None => Ok(CoreKind::OutOfOrder),
            Some(v) => match v.as_str() {
                Some("ooo") => Ok(CoreKind::OutOfOrder),
                Some("inorder") => Ok(CoreKind::InOrder),
                _ => Err(ApiError::invalid("core must be \"ooo\" or \"inorder\"")),
            },
        }
    }

    fn uint(&self, key: &str, default: u64) -> Result<u64, ApiError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .as_u64()
                .ok_or_else(|| ApiError::invalid(format!("{key} must be a non-negative integer"))),
        }
    }

    fn params(&self, limits: &RequestLimits) -> Result<SimParams, ApiError> {
        let params = SimParams {
            warmup: self.uint("warmup", 10_000)?,
            measure: self.uint("measure", 40_000)?,
            seed: self.uint("seed", 1)?,
        };
        if params.measure == 0 {
            return Err(ApiError::invalid("measure must be at least 1"));
        }
        let total = params.warmup.saturating_add(params.measure);
        if total > limits.max_instructions {
            return Err(ApiError::invalid(format!(
                "warmup + measure = {total} exceeds the {} instruction limit",
                limits.max_instructions
            )));
        }
        Ok(params)
    }

    fn overhead(&self) -> Result<Fo4, ApiError> {
        match self.get("overhead") {
            None => Ok(Fo4::new(1.8)),
            Some(v) => match v.as_f64() {
                Some(x) if x.is_finite() && (0.0..=20.0).contains(&x) => Ok(Fo4::new(x)),
                _ => Err(ApiError::invalid("overhead must be a number in [0, 20]")),
            },
        }
    }

    fn point(v: &Json) -> Result<Fo4, ApiError> {
        match v.as_f64() {
            Some(x) if x.is_finite() && x > 0.0 && x <= 100.0 => Ok(Fo4::new(x)),
            _ => Err(ApiError::invalid(
                "points must be numbers in (0, 100] FO4 of useful logic",
            )),
        }
    }

    fn points(&self, limits: &RequestLimits) -> Result<Vec<Fo4>, ApiError> {
        let Some(v) = self.get("points") else {
            return Ok(standard_points());
        };
        let items = v
            .as_arr()
            .ok_or_else(|| ApiError::invalid("points must be an array of numbers"))?;
        if items.is_empty() {
            return Err(ApiError::invalid("points must not be empty"));
        }
        if items.len() > limits.max_points {
            return Err(ApiError::invalid(format!(
                "{} points exceeds the limit of {}",
                items.len(),
                limits.max_points
            )));
        }
        let points: Vec<Fo4> = items.iter().map(Self::point).collect::<Result<_, _>>()?;
        for (i, p) in points.iter().enumerate() {
            if points[..i].iter().any(|q| q.get() == p.get()) {
                return Err(ApiError::invalid(format!(
                    "duplicate clock point {}",
                    p.get()
                )));
            }
        }
        Ok(points)
    }

    /// The `"mode"`/`"tolerance"`/`"coarse_step"`/`"seed_clock"` group:
    /// `Some(config)` for adaptive requests, `None` for dense. The knobs
    /// are planner parameters, so they are rejected outside adaptive mode
    /// rather than silently ignored.
    fn adaptive(&self, points: &[Fo4]) -> Result<Option<AdaptiveConfig>, ApiError> {
        let adaptive = match self.get("mode") {
            None => false,
            Some(v) => match v.as_str() {
                Some("dense") => false,
                Some("adaptive") => true,
                _ => return Err(ApiError::invalid("mode must be \"dense\" or \"adaptive\"")),
            },
        };
        for knob in ["tolerance", "coarse_step", "seed_clock"] {
            if !adaptive && self.get(knob).is_some() {
                return Err(ApiError::invalid(format!(
                    "{knob} requires \"mode\": \"adaptive\""
                )));
            }
        }
        if !adaptive {
            return Ok(None);
        }
        if points.windows(2).any(|w| w[0].get() >= w[1].get()) {
            return Err(ApiError::invalid(
                "adaptive mode requires strictly increasing points",
            ));
        }
        let tolerance = match self.get("tolerance") {
            None => 0.0,
            Some(v) => match v.as_f64() {
                Some(x) if x.is_finite() && x >= 0.0 => x,
                _ => {
                    return Err(ApiError::invalid(
                        "tolerance must be a non-negative number (FO4)",
                    ))
                }
            },
        };
        let coarse_step = usize::try_from(self.uint("coarse_step", 0)?)
            .map_err(|_| ApiError::invalid("coarse_step is out of range"))?;
        let seed = match self.get("seed_clock") {
            None => None,
            Some(v) => match v.as_f64() {
                Some(x) if x.is_finite() && x > 0.0 && x <= 100.0 => Some(x),
                _ => {
                    return Err(ApiError::invalid(
                        "seed_clock must be a number in (0, 100] FO4",
                    ))
                }
            },
        };
        Ok(Some(AdaptiveConfig {
            coarse_step,
            tolerance,
            seed,
        }))
    }

    fn stream(&self) -> Result<bool, ApiError> {
        match self.get("stream") {
            None => Ok(false),
            Some(Json::Bool(b)) => Ok(*b),
            Some(_) => Err(ApiError::invalid("stream must be a boolean")),
        }
    }

    fn benchmark(v: &Json) -> Result<BenchProfile, ApiError> {
        let name = v
            .as_str()
            .ok_or_else(|| ApiError::invalid("benchmarks must be an array of names"))?;
        profiles::by_name(name).ok_or_else(|| {
            ApiError::invalid(format!(
                "unknown benchmark {name:?}; known: {}",
                profiles::all()
                    .iter()
                    .map(|p| p.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })
    }

    fn benchmarks(&self, limits: &RequestLimits) -> Result<Vec<BenchProfile>, ApiError> {
        let Some(v) = self.get("benchmarks") else {
            return Ok(profiles::all());
        };
        let items = v
            .as_arr()
            .ok_or_else(|| ApiError::invalid("benchmarks must be an array of names"))?;
        if items.is_empty() {
            return Err(ApiError::invalid("benchmarks must not be empty"));
        }
        if items.len() > limits.max_benchmarks {
            return Err(ApiError::invalid(format!(
                "{} benchmarks exceeds the limit of {}",
                items.len(),
                limits.max_benchmarks
            )));
        }
        let profs: Vec<BenchProfile> = items
            .iter()
            .map(Self::benchmark)
            .collect::<Result<_, _>>()?;
        for (i, p) in profs.iter().enumerate() {
            if profs[..i].iter().any(|q| q.name == p.name) {
                return Err(ApiError::invalid(format!(
                    "duplicate benchmark {:?}",
                    p.name
                )));
            }
        }
        Ok(profs)
    }
}

impl SweepRequest {
    /// Validates a parsed request body into canonical form.
    ///
    /// # Errors
    ///
    /// Returns an [`ApiError`] naming the offending field.
    pub fn from_json(doc: &Json, limits: &RequestLimits) -> Result<Self, ApiError> {
        let fields = Fields::of(
            doc,
            &[
                "schema_version",
                "core",
                "benchmarks",
                "points",
                "warmup",
                "measure",
                "seed",
                "overhead",
                "mode",
                "tolerance",
                "coarse_step",
                "seed_clock",
                "stream",
            ],
        )?;
        fields.schema_version()?;
        let points = fields.points(limits)?;
        let adaptive = fields.adaptive(&points)?;
        Ok(Self {
            core: fields.core()?,
            profiles: fields.benchmarks(limits)?,
            points,
            params: fields.params(limits)?,
            overhead: fields.overhead()?,
            adaptive,
            stream: fields.stream()?,
        })
    }

    /// The request's content address: a stable digest of its canonical
    /// form plus the endpoint tag (a `/v1/sweep` and a `/v1/report` for
    /// the same spec are different response documents).
    #[must_use]
    pub fn fingerprint(&self, endpoint: &str) -> u64 {
        let mut h = Fnv64::new();
        h.write_str(endpoint);
        h.write_str(core_key(self.core));
        h.write_u64(self.profiles.len() as u64);
        for p in &self.profiles {
            h.write_str(&p.name);
        }
        h.write_u64(self.points.len() as u64);
        for p in &self.points {
            h.write_f64(p.get());
        }
        h.write_u64(self.params.warmup);
        h.write_u64(self.params.measure);
        h.write_u64(self.params.seed);
        h.write_f64(self.overhead.get());
        h.write_str(STRUCTURES_TAG);
        // The search mode changes the document (probed subset, probe
        // order, adaptive stats), so it and its knobs are part of the
        // address. `stream` is transport framing over the same bytes and
        // deliberately is not — a streamed sweep warms the cache for its
        // buffered twin.
        match &self.adaptive {
            None => h.write_str("dense"),
            Some(cfg) => {
                h.write_str("adaptive");
                h.write_f64(cfg.tolerance);
                h.write_u64(cfg.coarse_step as u64);
                match cfg.seed {
                    None => h.write_u64(0),
                    Some(seed) => {
                        h.write_u64(1);
                        h.write_f64(seed);
                    }
                }
            }
        }
        h.finish()
    }

    /// Decomposes the request into its cache-granular cells.
    #[must_use]
    pub fn cells(&self, observed: bool) -> Vec<CellSpec> {
        sweep_cells(
            self.core,
            &self.profiles,
            &self.params,
            self.overhead,
            &self.points,
            observed,
            STRUCTURES_TAG,
        )
    }
}

impl RunRequest {
    /// Validates a parsed request body into canonical form.
    ///
    /// # Errors
    ///
    /// Returns an [`ApiError`] naming the offending field.
    pub fn from_json(doc: &Json, limits: &RequestLimits) -> Result<Self, ApiError> {
        let fields = Fields::of(
            doc,
            &[
                "schema_version",
                "core",
                "benchmark",
                "t_useful",
                "warmup",
                "measure",
                "seed",
                "overhead",
                "observed",
            ],
        )?;
        fields.schema_version()?;
        let profile = match fields.get("benchmark") {
            Some(v) => Fields::benchmark(v)?,
            None => return Err(ApiError::invalid("benchmark is required")),
        };
        let t_useful = match fields.get("t_useful") {
            Some(v) => Fields::point(v)?,
            None => Fo4::new(6.0),
        };
        let observed = match fields.get("observed") {
            None => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err(ApiError::invalid("observed must be a boolean")),
        };
        Ok(Self {
            core: fields.core()?,
            profile,
            t_useful,
            params: fields.params(limits)?,
            overhead: fields.overhead()?,
            observed,
        })
    }

    /// The request's content address: a stable digest of its canonical
    /// form. It keys the rendered body, which reports this request's own
    /// `t_useful` and clock period — so unlike the cell fingerprint it
    /// separates two points that scale to the same machine, and a repeat
    /// resolves without scaling a machine.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str("run");
        h.write_str(core_key(self.core));
        h.write_str(&self.profile.name);
        h.write_f64(self.t_useful.get());
        h.write_u64(self.params.warmup);
        h.write_u64(self.params.measure);
        h.write_u64(self.params.seed);
        h.write_f64(self.overhead.get());
        h.write_u64(u64::from(self.observed));
        h.write_str(STRUCTURES_TAG);
        h.finish()
    }

    /// The single cell this request resolves to.
    #[must_use]
    pub fn cell(&self) -> CellSpec {
        CellSpec {
            core: self.core,
            profile: self.profile.clone(),
            t_useful: self.t_useful,
            overhead: self.overhead,
            params: self.params,
            observed: self.observed,
            structures_tag: STRUCTURES_TAG,
        }
    }
}

/// A validated `/v1/cells` request: a batch of cells sharing one
/// simulation header (core, intervals, overhead, observed), varying only
/// in benchmark and clock point. This is the shard-internal scatter
/// shape — a router sends each shard exactly the cells it owns and reads
/// back one binary outcome record per cell.
#[derive(Debug, Clone)]
pub struct CellsRequest {
    /// The cells to resolve, in request order.
    pub cells: Vec<CellSpec>,
}

impl CellsRequest {
    /// Validates a parsed request body into canonical form.
    ///
    /// # Errors
    ///
    /// Returns an [`ApiError`] naming the offending field.
    pub fn from_json(doc: &Json, limits: &RequestLimits) -> Result<Self, ApiError> {
        let fields = Fields::of(
            doc,
            &[
                "schema_version",
                "core",
                "warmup",
                "measure",
                "seed",
                "overhead",
                "observed",
                "cells",
            ],
        )?;
        fields.schema_version()?;
        let core = fields.core()?;
        let params = fields.params(limits)?;
        let overhead = fields.overhead()?;
        let observed = match fields.get("observed") {
            None => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err(ApiError::invalid("observed must be a boolean")),
        };
        let Some(v) = fields.get("cells") else {
            return Err(ApiError::invalid("cells is required"));
        };
        let items = v
            .as_arr()
            .ok_or_else(|| ApiError::invalid("cells must be an array of objects"))?;
        if items.is_empty() {
            return Err(ApiError::invalid("cells must not be empty"));
        }
        let cap = limits.max_points * limits.max_benchmarks;
        if items.len() > cap {
            return Err(ApiError::invalid(format!(
                "{} cells exceeds the limit of {cap}",
                items.len()
            )));
        }
        let cells = items
            .iter()
            .map(|item| {
                let entry = Fields::of(item, &["benchmark", "t_useful"])?;
                let profile = match entry.get("benchmark") {
                    Some(v) => Fields::benchmark(v)?,
                    None => return Err(ApiError::invalid("each cell needs a benchmark")),
                };
                let t_useful = match entry.get("t_useful") {
                    Some(v) => Fields::point(v)?,
                    None => return Err(ApiError::invalid("each cell needs a t_useful")),
                };
                Ok(CellSpec {
                    core,
                    profile,
                    t_useful,
                    overhead,
                    params,
                    observed,
                    structures_tag: STRUCTURES_TAG,
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { cells })
    }

    /// Renders the request body for a batch of cells sharing one header
    /// — the exact inverse of [`Self::from_json`]: the shard-side parse
    /// of this body yields cells with the same fingerprints (the JSON
    /// layer renders floats shortest-round-trip, so every `f64` survives
    /// the wire bit-exactly; a unit test pins the round trip).
    ///
    /// # Panics
    ///
    /// The batch must be non-empty and share one header; callers
    /// (the router's scatter path) group by header first.
    #[must_use]
    pub fn body_for(cells: &[CellSpec]) -> String {
        let head = &cells[0];
        assert!(
            cells.iter().all(|c| c.core == head.core
                && c.overhead.get() == head.overhead.get()
                && c.params == head.params
                && c.observed == head.observed),
            "a /v1/cells batch shares one simulation header"
        );
        Json::obj(vec![
            ("schema_version", Json::uint(1)),
            ("core", Json::str(core_key(head.core))),
            ("warmup", Json::uint(head.params.warmup)),
            ("measure", Json::uint(head.params.measure)),
            ("seed", Json::uint(head.params.seed)),
            ("overhead", Json::Num(head.overhead.get())),
            ("observed", Json::Bool(head.observed)),
            (
                "cells",
                Json::Arr(
                    cells
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("benchmark", Json::str(&c.profile.name)),
                                ("t_useful", Json::Num(c.t_useful.get())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }
}

/// A validated `POST /v1/ring` request — the router's membership admin
/// shape: addresses to join and addresses to evict, applied as one ring
/// rebuild.
#[derive(Debug, Clone)]
pub struct RingRequest {
    /// Shard addresses (`host:port`) joining the ring.
    pub add: Vec<String>,
    /// Shard addresses leaving the ring (drained before eviction).
    pub remove: Vec<String>,
}

impl RingRequest {
    /// Validates a parsed request body into canonical form.
    ///
    /// # Errors
    ///
    /// Returns an [`ApiError`] naming the offending field.
    pub fn from_json(doc: &Json) -> Result<Self, ApiError> {
        let fields = Fields::of(doc, &["schema_version", "add", "remove"])?;
        fields.schema_version()?;
        let addr_list = |name: &str| -> Result<Vec<String>, ApiError> {
            match fields.get(name) {
                None => Ok(Vec::new()),
                Some(v) => {
                    let items = v.as_arr().ok_or_else(|| {
                        ApiError::invalid(format!("{name} must be an array of host:port strings"))
                    })?;
                    items
                        .iter()
                        .map(|item| {
                            let s = item.as_str().ok_or_else(|| {
                                ApiError::invalid(format!(
                                    "{name} entries must be host:port strings"
                                ))
                            })?;
                            if s.is_empty() {
                                return Err(ApiError::invalid(format!(
                                    "{name} entries must not be empty"
                                )));
                            }
                            Ok(s.to_string())
                        })
                        .collect()
                }
            }
        };
        let add = addr_list("add")?;
        let remove = addr_list("remove")?;
        if add.is_empty() && remove.is_empty() {
            return Err(ApiError::invalid(
                "a ring update needs at least one add or remove",
            ));
        }
        Ok(Self { add, remove })
    }
}

/// Largest Monte Carlo sample count the daemon admits per yield request
/// (stricter than the library's own `MAX_SAMPLES`: a yield request
/// multiplies `samples` into every `(point × benchmark)` cell).
pub const MAX_SERVE_SAMPLES: u32 = 512;

/// A validated `POST /v1/yield` request: a sweep-shaped spec plus the
/// process-variation configuration for the Monte Carlo / fast-path pair.
#[derive(Debug, Clone)]
pub struct YieldRequest {
    /// Core model.
    pub core: CoreKind,
    /// Benchmarks, in request (= response) order.
    pub profiles: Vec<BenchProfile>,
    /// Clock points, in request (= response) order.
    pub points: Vec<Fo4>,
    /// Simulation intervals and seed.
    pub params: SimParams,
    /// Per-stage overhead.
    pub overhead: Fo4,
    /// The validated variation configuration.
    pub variation: VariationSpec,
    /// Whether the client asked for chunked per-point delivery (transport
    /// framing, excluded from the fingerprint).
    pub stream: bool,
}

impl YieldRequest {
    /// Validates a parsed request body into canonical form. Distribution
    /// parameters that are the wrong JSON *shape* fail like every other
    /// field (`422 invalid_request`); parameters that are semantically
    /// impossible (negative sigma, unknown distribution kind, out-of-range
    /// shares) fail with a structured `400 invalid_distribution`.
    ///
    /// # Errors
    ///
    /// Returns an [`ApiError`] naming the offending field.
    pub fn from_json(doc: &Json, limits: &RequestLimits) -> Result<Self, ApiError> {
        let fields = Fields::of(
            doc,
            &[
                "schema_version",
                "core",
                "benchmarks",
                "points",
                "warmup",
                "measure",
                "seed",
                "overhead",
                "stream",
                "samples",
                "variation_seed",
                "distribution",
                "sigma_fo4",
                "sigma_latch",
                "sigma_skew",
                "sigma_jitter",
                "systematic_fo4",
                "systematic_overhead",
                "logic_depth",
                "guardband",
            ],
        )?;
        fields.schema_version()?;

        let mut variation = VariationSpec::new(fields.uint("variation_seed", 1)?);
        let samples = fields.uint("samples", u64::from(variation.samples))?;
        if samples == 0 || samples > u64::from(MAX_SERVE_SAMPLES) {
            return Err(ApiError::invalid(format!(
                "samples must be in [1, {MAX_SERVE_SAMPLES}]"
            )));
        }
        variation.samples = samples as u32;
        if let Some(v) = fields.get("distribution") {
            let name = v
                .as_str()
                .ok_or_else(|| ApiError::invalid("distribution must be a string"))?;
            let kind = DistKind::parse(name)
                .map_err(|e| ApiError::invalid_distribution(e.message().to_string()))?;
            for component in [
                &mut variation.fo4,
                &mut variation.latch,
                &mut variation.skew,
                &mut variation.jitter,
            ] {
                component.kind = kind;
            }
        }
        let number = |key: &str| -> Result<Option<f64>, ApiError> {
            match fields.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_f64()
                    .map(Some)
                    .ok_or_else(|| ApiError::invalid(format!("{key} must be a number"))),
            }
        };
        type SigmaSlot = fn(&mut VariationSpec) -> &mut ComponentSpec;
        let sigmas: [(&str, SigmaSlot); 4] = [
            ("sigma_fo4", |v| &mut v.fo4),
            ("sigma_latch", |v| &mut v.latch),
            ("sigma_skew", |v| &mut v.skew),
            ("sigma_jitter", |v| &mut v.jitter),
        ];
        for (key, component) in sigmas {
            if let Some(sigma) = number(key)? {
                component(&mut variation).sigma = sigma;
            }
        }
        if let Some(share) = number("systematic_fo4")? {
            variation.fo4.systematic = share;
        }
        if let Some(share) = number("systematic_overhead")? {
            for component in [
                &mut variation.latch,
                &mut variation.skew,
                &mut variation.jitter,
            ] {
                component.systematic = share;
            }
        }
        if let Some(depth) = number("logic_depth")? {
            variation.logic_depth = depth;
        }
        if let Some(guardband) = number("guardband")? {
            variation.guardband = guardband;
        }
        variation
            .validate()
            .map_err(|e| ApiError::invalid_distribution(e.message().to_string()))?;

        Ok(Self {
            core: fields.core()?,
            profiles: fields.benchmarks(limits)?,
            points: fields.points(limits)?,
            params: fields.params(limits)?,
            overhead: fields.overhead()?,
            variation,
            stream: fields.stream()?,
        })
    }

    /// The request's content address: the sweep-shaped half plus the
    /// variation digest. `stream` is transport framing and excluded, so a
    /// streamed yield sweep warms the cache for its buffered twin.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str("yield");
        h.write_str(core_key(self.core));
        h.write_u64(self.profiles.len() as u64);
        for p in &self.profiles {
            h.write_str(&p.name);
        }
        h.write_u64(self.points.len() as u64);
        for p in &self.points {
            h.write_f64(p.get());
        }
        h.write_u64(self.params.warmup);
        h.write_u64(self.params.measure);
        h.write_u64(self.params.seed);
        h.write_f64(self.overhead.get());
        h.write_str(STRUCTURES_TAG);
        h.write_u64(self.variation.digest());
        h.finish()
    }
}

// ---------------------------------------------------------------------------
// /v1/yield body fragments — the same contract as the sweep fragments:
// head into the points array, one fragment per point, tail carrying the
// optima and the fast-vs-MC agreement.
// ---------------------------------------------------------------------------

/// Renders one variation component for the yield document head.
fn component_json(c: &ComponentSpec) -> Json {
    Json::obj(vec![
        ("distribution", Json::str(c.kind.key())),
        ("sigma", Json::Num(c.sigma)),
        ("systematic", Json::Num(c.systematic)),
    ])
}

/// Everything before the first yield point, opened into `points`.
fn yield_head_fragment(req: &YieldRequest) -> String {
    let v = &req.variation;
    let head = Json::obj(vec![
        ("schema_version", Json::uint(1)),
        ("core", Json::str(core_key(req.core))),
        ("overhead_fo4", Json::Num(req.overhead.get())),
        ("params", params_json(&req.params)),
        (
            "variation",
            Json::obj(vec![
                ("seed", Json::uint(v.seed)),
                ("samples", Json::uint(u64::from(v.samples))),
                ("fo4", component_json(&v.fo4)),
                ("latch", component_json(&v.latch)),
                ("skew", component_json(&v.skew)),
                ("jitter", component_json(&v.jitter)),
                ("logic_depth", Json::Num(v.logic_depth)),
                ("guardband", Json::Num(v.guardband)),
            ]),
        ),
    ]);
    open_points(&head)
}

/// One yield point of the `/v1/yield` document.
fn yield_point_json(p: &YieldPoint) -> Json {
    Json::obj(vec![
        ("t_useful", Json::Num(p.t_useful)),
        ("period_ps", Json::Num(p.period_ps)),
        ("bips_nominal", Json::Num(p.bips_nominal)),
        ("yield_mc", Json::Num(p.yield_mc)),
        ("yield_fast", Json::Num(p.yield_fast)),
        ("ywbips_mc", Json::Num(p.ywbips_mc)),
        ("ywbips_fast", Json::Num(p.ywbips_fast)),
    ])
}

/// The terminal yield fragment: optima (nominal, MC, fast) + agreement.
fn yield_tail_fragment(sweep: &YieldSweep) -> String {
    let pair = |label: &'static str, (t, merit): (f64, f64)| {
        Json::obj(vec![("t_useful", Json::Num(t)), (label, Json::Num(merit))])
    };
    let agreement = sweep.agreement();
    let tail = Json::obj(vec![
        (
            "optima",
            Json::obj(vec![
                ("nominal", pair("bips", sweep.nominal_optimum())),
                ("yield_mc", pair("ywbips", sweep.yield_optimum_mc())),
                ("yield_fast", pair("ywbips", sweep.yield_optimum_fast())),
            ]),
        ),
        (
            "agreement",
            Json::obj(vec![
                ("max_yield_abs_err", Json::Num(agreement.max_yield_abs_err)),
                (
                    "optimum_step_delta",
                    Json::Int(agreement.optimum_step_delta),
                ),
            ]),
        ),
    ]);
    close_points(&tail)
}

/// Live counters for the `/metrics` document's `yield` section.
#[derive(Debug, Default)]
pub struct YieldCounters {
    /// Yield sweeps actually planned and computed (response-cache hits do
    /// not re-count).
    pub sweeps: AtomicU64,
    /// Monte Carlo sample cells planned across all computed yield sweeps.
    pub mc_samples: AtomicU64,
    /// `/v1/yield` responses delivered over chunked transfer.
    pub streamed: AtomicU64,
    /// Data chunks delivered across all streamed yield sweeps.
    pub stream_chunks: AtomicU64,
    /// Requests rejected with `400 invalid_distribution`.
    pub invalid_distribution: AtomicU64,
}

impl YieldCounters {
    /// Records one computed yield sweep and its planned sample cells.
    pub fn record_sweep(&self, mc_samples: u64) {
        self.sweeps.fetch_add(1, Ordering::Relaxed);
        self.mc_samples.fetch_add(mc_samples, Ordering::Relaxed);
    }

    /// Records one finished streamed response and its chunk count.
    pub fn record_stream(&self, chunks: u64) {
        self.streamed.fetch_add(1, Ordering::Relaxed);
        self.stream_chunks.fetch_add(chunks, Ordering::Relaxed);
    }
}

/// Live counters for the `/metrics` document's `sweeps` section.
#[derive(Debug, Default)]
pub struct SweepCounters {
    /// Adaptive sweeps actually planned and computed (response-cache
    /// hits do not re-count).
    pub adaptive: AtomicU64,
    /// Cells adaptive plans skipped relative to their dense grids,
    /// summed.
    pub cells_saved: AtomicU64,
    /// `/v1/sweep` responses delivered over chunked transfer.
    pub streamed: AtomicU64,
    /// Data chunks delivered across all streamed sweeps.
    pub stream_chunks: AtomicU64,
}

impl SweepCounters {
    /// Records one finished streamed response and its chunk count.
    pub fn record_stream(&self, chunks: u64) {
        self.streamed.fetch_add(1, Ordering::Relaxed);
        self.stream_chunks.fetch_add(chunks, Ordering::Relaxed);
    }
}

/// The cached simulation engine behind every endpoint.
pub struct Engine {
    structures: StructureSet,
    /// Rendered response bodies by request fingerprint.
    pub responses: Cache<Arc<String>>,
    /// Per-`(core × benchmark × scaled machine)` outcomes by cell
    /// fingerprint.
    pub cells: Cache<Arc<BenchOutcome>>,
    /// Materialized traces by `(benchmark, seed, length)`.
    pub arenas: Cache<Arc<TraceArena>>,
    /// Adaptive-planning and streaming counters.
    pub sweeps: SweepCounters,
    /// Yield-sweep counters (`/v1/yield`).
    pub yields: YieldCounters,
    /// Persistent tier under the cell LRU (read-through/write-behind);
    /// absent when the daemon runs without `--cache-dir`.
    store: Option<Arc<CellStore>>,
    /// Shard tier between the caches and local simulation: when present
    /// (router mode), cold cells scatter to their owning shards before
    /// anything simulates locally.
    upstream: Option<Arc<crate::router::Upstream>>,
}

impl Engine {
    /// An engine with the given cache capacities (entries per tier) and
    /// no persistent tier.
    #[must_use]
    pub fn new(response_entries: usize, cell_entries: usize, arena_entries: usize) -> Self {
        Self::with_store(response_entries, cell_entries, arena_entries, None)
    }

    /// An engine whose cell tier reads through to (and writes behind
    /// into) `store`. Safe because cell fingerprints are stable across
    /// processes and outcomes are byte-deterministic functions of them.
    #[must_use]
    pub fn with_store(
        response_entries: usize,
        cell_entries: usize,
        arena_entries: usize,
        store: Option<Arc<CellStore>>,
    ) -> Self {
        Self {
            structures: StructureSet::alpha_21264(),
            responses: Cache::new(response_entries),
            cells: Cache::new(cell_entries),
            arenas: Cache::new(arena_entries),
            sweeps: SweepCounters::default(),
            yields: YieldCounters::default(),
            store,
            upstream: None,
        }
    }

    /// Converts this engine into a routing tier: cold cells scatter to
    /// `upstream`'s shards instead of simulating locally (the local
    /// engine remains the fallback of last resort when every responsible
    /// shard is down).
    #[must_use]
    pub fn with_upstream(mut self, upstream: Arc<crate::router::Upstream>) -> Self {
        self.upstream = Some(upstream);
        self
    }

    /// The shard tier, when this engine is a router.
    #[must_use]
    pub fn upstream(&self) -> Option<&Arc<crate::router::Upstream>> {
        self.upstream.as_ref()
    }

    /// The persistent cell tier, when configured.
    #[must_use]
    pub fn store(&self) -> Option<&Arc<CellStore>> {
        self.store.as_ref()
    }

    /// The materialized trace for one `(profile, seed, length)`, cached.
    fn arena(&self, profile: &BenchProfile, params: &SimParams) -> Arc<TraceArena> {
        let len = params.trace_len();
        let mut h = Fnv64::new();
        h.write_str("arena");
        h.write_str(&profile.name);
        h.write_u64(params.seed);
        h.write_u64(len as u64);
        self.arenas.get_or_compute(h.finish(), || {
            Arc::new(TraceArena::generate(profile.clone(), params.seed, len))
        })
    }

    /// Runs (or recalls) every cell of a sweep and reassembles the
    /// [`DepthSweep`](fo4depth_study::sweep::DepthSweep): the whole grid
    /// as one [`Self::fill_cells`] call.
    ///
    /// Warm cells come from the LRU (or read through from the persistent
    /// tier); the cold remainder is grouped by benchmark and simulated
    /// through [`fo4depth_study::cells::run_cell_group`], one group per
    /// benchmark; a wide enough out-of-order group runs as one
    /// lane-batched pass over the benchmark's shared arena.
    /// Batched and per-cell fills are bit-identical (the
    /// `tests/batched_equivalence.rs` harness pins this), so a sweep
    /// freely mixes cells filled by any earlier request, a one-cell
    /// `/v1/run` included, and the result is byte-identical to the
    /// offline `depth_sweep_*` path at any pool size.
    ///
    /// Single-flight coalescing of *identical* requests still happens at
    /// the response tier; two *distinct* concurrent requests overlapping
    /// on a cold cell may both simulate it (the install is idempotent) —
    /// a deliberate trade for the batched fill's shared-arena pass.
    pub fn sweep(&self, req: &SweepRequest, observed: bool) -> DepthSweep {
        self.points_at(req, observed, &(0..req.points.len()).collect::<Vec<_>>())
    }

    /// Installs one already-computed outcome by fingerprint into the
    /// cache tiers (write-behind into the persistent store, insert into
    /// the LRU). Locally simulated and shard-fetched outcomes land here,
    /// and so do the `POST /v1/records` replica-warming pushes, where a
    /// peer router sends records this shard did not simulate. A pushed
    /// record's CRC was verified at decode; fingerprints are the same
    /// content addresses the cache tiers key on, so it is
    /// indistinguishable from a locally simulated one (outcomes are
    /// deterministic functions of their fingerprint).
    pub fn install_record(
        &self,
        fingerprint: u64,
        core: Option<CoreKind>,
        outcome: BenchOutcome,
    ) -> Arc<BenchOutcome> {
        let out = Arc::new(outcome);
        if let Some(store) = &self.store {
            store.put_tagged(fingerprint, core, &out);
        }
        self.cells.insert(fingerprint, Arc::clone(&out));
        out
    }

    /// Resolves every cell through the cache tiers, simulating only the
    /// cold remainder, and returns the outcomes positionally. This is the
    /// one walk of the tier order — LRU, persistent store, shard ring
    /// (router mode), local simulation — and every endpoint resolves its
    /// cells here, a `/v1/run` as a list of one.
    ///
    /// Cells are first collapsed to one per fingerprint
    /// ([`DistinctCells`]): cells whose clock points scale to the same
    /// machine are one cache entry, one scatter, and one simulation, and
    /// their outcome fans back out to every position.
    ///
    /// In router mode the cold remainder scatters to the shard tier
    /// first — each cell to the shard that owns its fingerprint — and
    /// only cells the tier could not resolve (every responsible shard
    /// down past the retry budget) fall through to local simulation, so
    /// a routed sweep degrades to single-node behaviour rather than
    /// failing.
    pub fn fill_cells(&self, cells: &[CellSpec]) -> Vec<Arc<BenchOutcome>> {
        let distinct = DistinctCells::of(cells);
        let reps: Vec<&CellSpec> = distinct.firsts().iter().map(|&i| &cells[i]).collect();
        // Probe pass: LRU first (counting the hit/miss), then the
        // persistent tier.
        let mut outcomes: Vec<Option<Arc<BenchOutcome>>> = distinct
            .fingerprints()
            .iter()
            .map(|&fingerprint| {
                self.cells.get(fingerprint).or_else(|| {
                    let loaded = self.store.as_ref()?.load(fingerprint).map(Arc::new)?;
                    self.cells.insert(fingerprint, Arc::clone(&loaded));
                    Some(loaded)
                })
            })
            .collect();
        if let Some(upstream) = &self.upstream {
            let cold: Vec<usize> = (0..reps.len()).filter(|&k| outcomes[k].is_none()).collect();
            if !cold.is_empty() {
                let specs: Vec<CellSpec> = cold.iter().map(|&k| reps[k].clone()).collect();
                for (&k, fetched) in cold.iter().zip(upstream.fetch(&specs)) {
                    if let Some(out) = fetched {
                        outcomes[k] = Some(self.install_record(
                            distinct.fingerprints()[k],
                            Some(reps[k].core),
                            out,
                        ));
                    }
                }
            }
        }
        self.fill_local(&reps, distinct.fingerprints(), &mut outcomes);
        let outcomes: Vec<Arc<BenchOutcome>> = outcomes
            .into_iter()
            .map(|o| o.expect("every cell probed, fetched, or batch-filled"))
            .collect();
        distinct.fan_out(&outcomes)
    }

    /// Simulates every still-unresolved cell locally, one
    /// [`fo4depth_study::cells::run_cell_group`] per benchmark, filling
    /// `outcomes` in place. `cells` are distinct (one per fingerprint,
    /// parallel to `fingerprints`), so no machine simulates twice.
    fn fill_local(
        &self,
        cells: &[&CellSpec],
        fingerprints: &[u64],
        outcomes: &mut [Option<Arc<BenchOutcome>>],
    ) {
        // Group the cold cells by benchmark: cells of one benchmark share
        // an arena and a fetch plan, so each group is one candidate lane
        // batch (and one pool task — results are positional, hence
        // deterministic).
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            if outcomes[i].is_some() {
                continue;
            }
            match groups
                .iter_mut()
                .find(|g| cells[g[0]].profile.name == cell.profile.name)
            {
                Some(g) => g.push(i),
                None => groups.push(vec![i]),
            }
        }
        if groups.is_empty() {
            return;
        }
        let filled = fo4depth_exec::global().map(&groups, |idxs| {
            let group: Vec<CellSpec> = idxs.iter().map(|&i| cells[i].clone()).collect();
            let arena = self.arena(&group[0].profile, &group[0].params);
            fo4depth_study::cells::run_cell_group(&group, &self.structures, &arena)
        });
        for (idxs, outs) in groups.iter().zip(filled) {
            for (&i, out) in idxs.iter().zip(outs) {
                outcomes[i] = Some(self.install_record(fingerprints[i], Some(cells[i].core), out));
            }
        }
    }

    /// Simulates (or recalls) a subset of a sweep's grid points, given by
    /// dense-grid index, as one [`Self::fill_cells`] call. The sweep holds
    /// one point per requested index, in request order.
    fn points_at(&self, req: &SweepRequest, observed: bool, indices: &[usize]) -> DepthSweep {
        let points: Vec<Fo4> = indices.iter().map(|&i| req.points[i]).collect();
        let cells = sweep_cells(
            req.core,
            &req.profiles,
            &req.params,
            req.overhead,
            &points,
            observed,
            STRUCTURES_TAG,
        );
        let outcomes = self
            .fill_cells(&cells)
            .into_iter()
            .map(Arc::unwrap_or_clone)
            .collect();
        assemble_sweep(
            req.core,
            &self.structures,
            req.overhead,
            &points,
            req.profiles.len(),
            outcomes,
        )
    }

    /// The adaptive counterpart of [`Self::sweep`]: drives an
    /// [`AdaptivePlanner`] through [`resolve_rounds`], one round per
    /// planner batch, so probed cells land in (and reuse) the same
    /// content-addressed cache as dense sweeps and `/v1/run` — an
    /// adaptive pass warms its dense twin and vice versa. `on_point`
    /// fires once per probed point, in probe order, the moment that
    /// point's cells complete (the streaming hook). Counting is
    /// planner-relative: `cells_simulated` is what the plan *requested*;
    /// cache hits make it cheaper still.
    fn adaptive_sweep(
        &self,
        req: &SweepRequest,
        observed: bool,
        config: &AdaptiveConfig,
        on_point: &mut dyn FnMut(usize, &SweepPoint),
    ) -> AdaptiveSweep {
        let mut planner = AdaptivePlanner::new(&req.points, req.core, req.overhead, config);
        let points = resolve_rounds(
            |done: &[(usize, SweepPoint)]| {
                for (pi, point) in done {
                    let merit = summarize(&point.outcomes, None, point.period_ps)
                        .expect("benchmarks present")
                        .bips;
                    planner.record(*pi, merit);
                }
                planner.next_batch()
            },
            |round| self.points_at(req, observed, round).points,
            on_point,
        );
        let stats = planner.stats();
        let cells_simulated = points.len() * req.profiles.len();
        let cells_dense = req.points.len() * req.profiles.len();
        self.sweeps.adaptive.fetch_add(1, Ordering::Relaxed);
        self.sweeps.cells_saved.fetch_add(
            cells_dense.saturating_sub(cells_simulated) as u64,
            Ordering::Relaxed,
        );
        AdaptiveSweep {
            sweep: DepthSweep {
                core: req.core,
                overhead: req.overhead.get(),
                points,
            },
            probe_order: planner.probe_order().to_vec(),
            stats,
            cells_dense,
            cells_simulated,
        }
    }

    /// `POST /v1/report` — the full observed run report, byte-identical
    /// to `fo4depth report` with the same spec (adaptive mode included:
    /// same planner, same grid-cell dispatch, same renderer).
    pub fn report(&self, req: &SweepRequest) -> Arc<String> {
        self.responses
            .get_or_compute(req.fingerprint("report"), || match &req.adaptive {
                None => {
                    let sweep = self.sweep(req, true);
                    Arc::new(report::sweep_json(&sweep, &req.params).pretty())
                }
                Some(cfg) => {
                    let a = self.adaptive_sweep(req, true, cfg, &mut |_, _| {});
                    Arc::new(report::adaptive_sweep_json(&a, &req.params).pretty())
                }
            })
    }

    /// The buffered body of a fragment-bodied request, single-flighted
    /// through the response tier.
    pub fn summary<R: FragmentedRequest>(&self, req: &R) -> Arc<String> {
        self.responses.get_or_compute(req.response_key(), || {
            Arc::new(req.render(self, false, &mut |_| {}))
        })
    }

    /// `POST /v1/sweep` — the compact BIPS-curve summary (per-class
    /// series and optima, no per-benchmark counter blocks).
    pub fn sweep_summary(&self, req: &SweepRequest) -> Arc<String> {
        self.summary(req)
    }

    /// Renders the `/v1/sweep` body as an ordered fragment sequence —
    /// preamble, one fragment per point, terminal summary — pushing each
    /// fragment through `emit` the moment it exists and returning the
    /// concatenation. The streamed and buffered responses are therefore
    /// byte-identical by construction, and the assembled bytes match the
    /// canonical [`Json::pretty`] rendering of the same document (pinned
    /// by a unit test).
    ///
    /// Dense requests render `schema_version` 1 with points in grid
    /// order; `progressive` additionally computes them one at a time so
    /// the first fragment leaves before the grid completes. Adaptive
    /// requests render `schema_version` 2 with points in *probe* order —
    /// coarse pass first, refinements as they land — plus an `adaptive`
    /// stats block in the tail.
    pub fn sweep_body(
        &self,
        req: &SweepRequest,
        progressive: bool,
        emit: &mut dyn FnMut(&str),
    ) -> String {
        let mut body = String::new();
        let schema = if req.adaptive.is_some() { 2 } else { 1 };
        push(&mut body, emit, &head_fragment(req, schema));
        let mut on_point = |k: usize, point: &SweepPoint| {
            push(
                &mut body,
                emit,
                &element_fragment(&point_summary_json(point), k == 0),
            );
        };
        let tail = match &req.adaptive {
            None => {
                let points = resolve_rounds(
                    grid_rounds(req.points.len(), progressive),
                    |round| self.points_at(req, false, round).points,
                    &mut on_point,
                );
                let sweep = DepthSweep {
                    core: req.core,
                    overhead: req.overhead.get(),
                    points,
                };
                tail_fragment(optima_json(&sweep), None)
            }
            Some(cfg) => {
                let a = self.adaptive_sweep(req, false, cfg, &mut on_point);
                tail_fragment(optima_json(&a.sweep), Some(report::adaptive_stats_json(&a)))
            }
        };
        push(&mut body, emit, &tail);
        body
    }

    /// `POST /v1/run` — one benchmark at one clock point.
    pub fn run(&self, req: &RunRequest) -> Arc<String> {
        self.responses.get_or_compute(req.fingerprint(), || {
            let outcome = self
                .fill_cells(&[req.cell()])
                .pop()
                .expect("one outcome per cell");
            let machine = fo4depth_study::scaler::ScaledMachine::at(
                &self.structures,
                req.t_useful,
                req.overhead,
            );
            let period_ps = machine.period_ps();
            let doc = Json::obj(vec![
                ("schema_version", Json::uint(1)),
                ("core", Json::str(core_key(req.core))),
                ("t_useful", Json::Num(req.t_useful.get())),
                ("period_ps", Json::Num(period_ps)),
                ("overhead_fo4", Json::Num(req.overhead.get())),
                ("params", params_json(&req.params)),
                ("benchmark", report::outcome_json(&outcome, period_ps)),
            ]);
            Arc::new(doc.pretty())
        })
    }

    /// Renders the `/v1/yield` body as an ordered fragment sequence —
    /// the same contract as [`Self::sweep_body`]: streamed and buffered
    /// responses are byte-identical by construction, and the assembled
    /// bytes are the canonical [`Json::pretty`] rendering of the
    /// document. Each round resolves its points' nominal *and* Monte
    /// Carlo cells in one fill; `progressive` makes every point its own
    /// round, so the first fragment leaves before the whole population
    /// has simulated.
    ///
    /// Every cell — nominal and Monte Carlo sample alike — resolves
    /// through [`Self::fill_cells`]: the LRU, the persistent tier, and in
    /// router mode the shard ring, exactly like any other sweep.
    ///
    /// # Panics
    ///
    /// Panics if `req.variation` fails validation — impossible for a
    /// [`YieldRequest`] built by [`YieldRequest::from_json`].
    pub fn yield_body(
        &self,
        req: &YieldRequest,
        progressive: bool,
        emit: &mut dyn FnMut(&str),
    ) -> String {
        let spec = SweepSpec {
            core: req.core,
            profiles: &req.profiles,
            params: &req.params,
            structures: &self.structures,
            overhead: req.overhead,
            points: &req.points,
            observed: false,
        };
        let plan = YieldPlan::build(spec, req.variation, fo4depth_exec::global())
            .expect("variation validated at request parse");
        self.yields.record_sweep(plan.sample_cells() as u64);

        let mut body = String::new();
        push(&mut body, emit, &yield_head_fragment(req));
        let assembled = resolve_rounds(
            grid_rounds(req.points.len(), progressive),
            |round| {
                let ranges: Vec<_> = round.iter().map(|&i| plan.point_ranges(i)).collect();
                let cells: Vec<CellSpec> = ranges
                    .iter()
                    .flat_map(|(nominal, samples)| {
                        plan.cells()[nominal.clone()]
                            .iter()
                            .chain(&plan.cells()[samples.clone()])
                    })
                    .cloned()
                    .collect();
                let mut outcomes = self
                    .fill_cells(&cells)
                    .into_iter()
                    .map(Arc::unwrap_or_clone);
                round
                    .iter()
                    .zip(ranges)
                    .map(|(&i, (nominal, samples))| {
                        let nominal = outcomes.by_ref().take(nominal.len()).collect();
                        let samples = outcomes.by_ref().take(samples.len()).collect();
                        plan.assemble_point(i, nominal, samples)
                    })
                    .collect()
            },
            &mut |k, (_, point): &(SweepPoint, YieldPoint)| {
                push(
                    &mut body,
                    emit,
                    &element_fragment(&yield_point_json(point), k == 0),
                );
            },
        );
        let (nominal_points, points) = assembled.into_iter().unzip();
        let sweep = plan.finish(nominal_points, points);
        push(&mut body, emit, &yield_tail_fragment(&sweep));
        body
    }
}

/// Appends one fragment to the body and hands it to `emit`.
fn push(body: &mut String, emit: &mut dyn FnMut(&str), frag: &str) {
    body.push_str(frag);
    emit(frag);
}

/// The one round loop behind every sweep-shaped body — dense (buffered
/// or progressive), adaptive, and yield — and the adaptive report.
///
/// `next_round` names the dense-grid indices to resolve together. It
/// sees the previous round's `(index, point)` pairs (none at the start),
/// so a planner can steer, and an empty round ends the loop. `resolve`
/// turns a round into one point per index, and `on_point` sees each
/// point with its delivery position the moment its round completes — the
/// streaming hook. Returns the points in grid order.
fn resolve_rounds<P>(
    mut next_round: impl FnMut(&[(usize, P)]) -> Vec<usize>,
    mut resolve: impl FnMut(&[usize]) -> Vec<P>,
    on_point: &mut dyn FnMut(usize, &P),
) -> Vec<P> {
    let mut done: Vec<(usize, P)> = Vec::new();
    let mut start = 0;
    loop {
        let round = next_round(&done[start..]);
        if round.is_empty() {
            break;
        }
        start = done.len();
        for (&i, point) in round.iter().zip(resolve(&round)) {
            on_point(done.len(), &point);
            done.push((i, point));
        }
    }
    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, point)| point).collect()
}

/// The dense schedule for [`resolve_rounds`]: the whole grid as one
/// round, or one round per index when `progressive`, so the first point
/// leaves before the grid completes.
fn grid_rounds<P>(len: usize, progressive: bool) -> impl FnMut(&[(usize, P)]) -> Vec<usize> {
    let step = if progressive { 1 } else { len };
    let mut next = 0;
    move |_| {
        let round = (next..len.min(next + step)).collect();
        next += step;
        round
    }
}

/// A request whose body is an ordered fragment sequence — `/v1/sweep`
/// and `/v1/yield`. The server delivers it buffered through the response
/// tier ([`Engine::summary`]) or streamed one chunk per fragment, and the
/// two are the same bytes.
pub trait FragmentedRequest: Sized {
    /// Validates a parsed request body into canonical form.
    ///
    /// # Errors
    ///
    /// Returns an [`ApiError`] naming the offending field.
    fn parse(doc: &Json, limits: &RequestLimits) -> Result<Self, ApiError>;
    /// Whether the client asked for chunked delivery.
    fn stream(&self) -> bool;
    /// The response-tier key of the rendered body. `stream` is not part
    /// of it, so a streamed body warms its buffered twin.
    fn response_key(&self) -> u64;
    /// Renders the body, pushing each fragment through `emit`.
    fn render(&self, engine: &Engine, progressive: bool, emit: &mut dyn FnMut(&str)) -> String;
    /// Counts one finished streamed response of `chunks` data chunks.
    fn record_stream(engine: &Engine, chunks: u64);
}

impl FragmentedRequest for SweepRequest {
    fn parse(doc: &Json, limits: &RequestLimits) -> Result<Self, ApiError> {
        Self::from_json(doc, limits)
    }
    fn stream(&self) -> bool {
        self.stream
    }
    fn response_key(&self) -> u64 {
        self.fingerprint("sweep")
    }
    fn render(&self, engine: &Engine, progressive: bool, emit: &mut dyn FnMut(&str)) -> String {
        engine.sweep_body(self, progressive, emit)
    }
    fn record_stream(engine: &Engine, chunks: u64) {
        engine.sweeps.record_stream(chunks);
    }
}

impl FragmentedRequest for YieldRequest {
    fn parse(doc: &Json, limits: &RequestLimits) -> Result<Self, ApiError> {
        Self::from_json(doc, limits)
    }
    fn stream(&self) -> bool {
        self.stream
    }
    fn response_key(&self) -> u64 {
        self.fingerprint()
    }
    fn render(&self, engine: &Engine, progressive: bool, emit: &mut dyn FnMut(&str)) -> String {
        engine.yield_body(self, progressive, emit)
    }
    fn record_stream(engine: &Engine, chunks: u64) {
        engine.yields.record_stream(chunks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> RequestLimits {
        RequestLimits::default()
    }

    fn sweep_req(body: &str) -> Result<SweepRequest, ApiError> {
        SweepRequest::from_json(&Json::parse(body).expect("test body parses"), &limits())
    }

    #[test]
    fn defaults_fill_canonically() {
        let req = sweep_req("{}").expect("empty body is a full default sweep");
        assert_eq!(req.core, CoreKind::OutOfOrder);
        assert_eq!(req.profiles.len(), profiles::all().len());
        assert_eq!(req.points.len(), standard_points().len());
        assert_eq!(req.params.warmup, 10_000);
        assert_eq!(req.params.measure, 40_000);
        assert_eq!(req.params.seed, 1);
        assert_eq!(req.overhead.get(), 1.8);
    }

    #[test]
    fn canonical_requests_fingerprint_identically() {
        // Member order and formatting do not change the computation,
        // so they must not change the key.
        let a = sweep_req(r#"{"core":"ooo","points":[6,8],"benchmarks":["164.gzip"]}"#).unwrap();
        let b = sweep_req(r#"{ "benchmarks" : ["164.gzip"], "points":[6.0,8.0], "core":"ooo" }"#)
            .unwrap();
        assert_eq!(a.fingerprint("report"), b.fingerprint("report"));
        // …but the endpoint, point order, and every field do.
        assert_ne!(a.fingerprint("report"), a.fingerprint("sweep"));
        let c = sweep_req(r#"{"points":[8,6],"benchmarks":["164.gzip"]}"#).unwrap();
        assert_ne!(a.fingerprint("report"), c.fingerprint("report"));
    }

    #[test]
    fn rejects_unknown_fields_bad_names_and_duplicates() {
        assert!(sweep_req(r#"{"cores":"ooo"}"#).is_err(), "typo'd field");
        assert!(sweep_req(r#"{"benchmarks":["999.nope"]}"#).is_err());
        assert!(sweep_req(r#"{"benchmarks":["164.gzip","164.gzip"]}"#).is_err());
        assert!(sweep_req(r#"{"points":[6,6]}"#).is_err());
        assert!(sweep_req(r#"{"points":[]}"#).is_err());
        assert!(sweep_req(r#"{"points":[0]}"#).is_err());
        assert!(sweep_req(r#"{"points":[-3]}"#).is_err());
        assert!(sweep_req(r#"{"measure":0}"#).is_err());
        assert!(sweep_req(r#"{"core":"OOO"}"#).is_err(), "case-sensitive");
        assert!(sweep_req("[]").is_err(), "non-object body");
    }

    #[test]
    fn enforces_admission_limits() {
        assert!(
            sweep_req(r#"{"warmup":900000,"measure":200000}"#).is_err(),
            "instruction cap"
        );
        let many: Vec<String> = (0..65).map(|i| format!("{}", i + 2)).collect();
        let body = format!(r#"{{"points":[{}]}}"#, many.join(","));
        assert!(sweep_req(&body).is_err(), "point-count cap");
    }

    #[test]
    fn run_request_resolves_to_one_cell() {
        let req = RunRequest::from_json(
            &Json::parse(r#"{"benchmark":"164.gzip","t_useful":6,"observed":true}"#).unwrap(),
            &limits(),
        )
        .expect("valid run request");
        assert!(req.observed);
        let cell = req.cell();
        assert_eq!(cell.profile.name, "164.gzip");
        assert_eq!(cell.t_useful.get(), 6.0);
        assert!(
            RunRequest::from_json(&Json::parse("{}").unwrap(), &limits()).is_err(),
            "benchmark is required"
        );
    }

    #[test]
    fn engine_report_matches_offline_report_and_caches() {
        let engine = Engine::new(16, 256, 8);
        let req = sweep_req(
            r#"{"core":"ooo","benchmarks":["164.gzip"],"points":[6],"warmup":1000,"measure":3000}"#,
        )
        .unwrap();
        let served = engine.report(&req);
        let offline = report::generate(req.core, &req.profiles, &req.params, &req.points).pretty();
        assert_eq!(
            *served.as_ref(),
            offline,
            "served == offline, byte for byte"
        );

        let again = engine.report(&req);
        assert_eq!(served, again);
        let s = engine.responses.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        // The repeat cost zero simulations: cell misses happened once.
        assert_eq!(engine.cells.stats().misses, 1);
    }

    #[test]
    fn overlapping_sweeps_reuse_shared_cells() {
        let engine = Engine::new(16, 256, 8);
        let first =
            sweep_req(r#"{"benchmarks":["164.gzip"],"points":[6],"warmup":1000,"measure":3000}"#)
                .unwrap();
        let wider =
            sweep_req(r#"{"benchmarks":["164.gzip"],"points":[6,8],"warmup":1000,"measure":3000}"#)
                .unwrap();
        engine.report(&first);
        assert_eq!(engine.cells.stats().misses, 1);
        engine.report(&wider);
        let s = engine.cells.stats();
        assert_eq!(s.misses, 2, "only the new point simulated");
        assert_eq!(s.hits, 1, "the shared (6 FO4 × gzip) cell was reused");
        // One trace arena serves both sweeps.
        assert_eq!(engine.arenas.stats().misses, 1);
    }

    #[test]
    fn validates_adaptive_mode_and_stream_fields() {
        assert!(sweep_req(r#"{"mode":"fast"}"#).is_err(), "unknown mode");
        assert!(sweep_req(r#"{"stream":"yes"}"#).is_err(), "non-bool stream");
        // Planner knobs are planner parameters: rejected, not ignored,
        // when the request is a dense sweep.
        for knob in [
            r#""tolerance":0.5"#,
            r#""coarse_step":2"#,
            r#""seed_clock":6"#,
        ] {
            let body = format!("{{{knob}}}");
            assert!(sweep_req(&body).is_err(), "{knob} without adaptive mode");
        }
        assert!(
            sweep_req(r#"{"mode":"adaptive","points":[8,6,4]}"#).is_err(),
            "adaptive needs strictly increasing points"
        );
        assert!(sweep_req(r#"{"mode":"adaptive","tolerance":-1}"#).is_err());
        assert!(sweep_req(r#"{"mode":"adaptive","seed_clock":0}"#).is_err());
        assert!(sweep_req(r#"{"mode":"adaptive","seed_clock":400}"#).is_err());

        let ok = sweep_req(
            r#"{"mode":"adaptive","tolerance":0.5,"coarse_step":2,"seed_clock":6.5,"stream":true}"#,
        )
        .expect("full adaptive spec is valid");
        let cfg = ok.adaptive.expect("adaptive config present");
        assert_eq!(cfg.coarse_step, 2);
        assert_eq!(cfg.tolerance, 0.5);
        assert_eq!(cfg.seed, Some(6.5));
        assert!(ok.stream);
    }

    #[test]
    fn mode_addresses_the_cache_but_stream_does_not() {
        let dense = sweep_req("{}").unwrap();
        let explicit = sweep_req(r#"{"mode":"dense"}"#).unwrap();
        assert_eq!(
            dense.fingerprint("sweep"),
            explicit.fingerprint("sweep"),
            "dense is the default mode"
        );
        let adaptive = sweep_req(r#"{"mode":"adaptive"}"#).unwrap();
        assert_ne!(dense.fingerprint("sweep"), adaptive.fingerprint("sweep"));
        let tuned = sweep_req(r#"{"mode":"adaptive","tolerance":0.5}"#).unwrap();
        assert_ne!(adaptive.fingerprint("sweep"), tuned.fingerprint("sweep"));
        // Streaming is transport framing over the same bytes: a streamed
        // sweep must warm the cache for its buffered twin.
        let streamed = sweep_req(r#"{"stream":true}"#).unwrap();
        assert_eq!(dense.fingerprint("sweep"), streamed.fingerprint("sweep"));
    }

    /// The load-bearing streaming invariant: the fragment sequence
    /// concatenates to the buffered body, and that body is exactly the
    /// canonical `Json::pretty` rendering of the document it describes —
    /// so a streaming client and a buffered client can never disagree.
    #[test]
    fn sweep_fragments_assemble_to_the_canonical_pretty_document() {
        let engine = Engine::new(16, 256, 8);
        for body in [
            r#"{"benchmarks":["164.gzip"],"points":[4,6,8],"warmup":1000,"measure":3000}"#,
            r#"{"benchmarks":["164.gzip"],"points":[2,4,6,8,10],"warmup":1000,"measure":3000,"mode":"adaptive"}"#,
        ] {
            let req = sweep_req(body).unwrap();
            let mut frags = Vec::new();
            let streamed = engine.sweep_body(&req, true, &mut |f| frags.push(f.to_string()));
            assert!(
                frags.len() > req.points.len().min(2),
                "per-point fragments, not one blob"
            );
            assert_eq!(frags.concat(), streamed, "emitted == returned");
            let buffered = engine.sweep_body(&req, false, &mut |_| {});
            assert_eq!(streamed, buffered, "streamed == buffered, byte for byte");
            let doc = Json::parse(&buffered).expect("assembled body parses");
            assert_eq!(doc.pretty(), buffered, "fragments == canonical pretty");
        }
    }

    #[test]
    fn schema_version_one_is_accepted_and_others_rejected() {
        assert!(sweep_req(r#"{"schema_version":1}"#).is_ok());
        let err = sweep_req(r#"{"schema_version":2}"#).unwrap_err();
        assert_eq!(err.status, 400);
        assert_eq!(err.code, "unsupported_schema_version");
        assert!(sweep_req(r#"{"schema_version":"1"}"#).is_err(), "non-int");
        let err = RunRequest::from_json(
            &Json::parse(r#"{"schema_version":7,"benchmark":"164.gzip"}"#).unwrap(),
            &limits(),
        )
        .unwrap_err();
        assert_eq!((err.status, err.code), (400, "unsupported_schema_version"));
        // An explicit version 1 means exactly what the default means, so
        // it must not split the response cache.
        let implied = sweep_req("{}").unwrap();
        let explicit = sweep_req(r#"{"schema_version":1}"#).unwrap();
        assert_eq!(implied.fingerprint("sweep"), explicit.fingerprint("sweep"));
    }

    #[test]
    fn cells_request_round_trips_fingerprints_bit_exactly() {
        // Points chosen to exercise shortest-round-trip float rendering
        // (an adaptive midpoint like 5.700000000000001 is the hard case).
        let req = sweep_req(
            r#"{"benchmarks":["164.gzip","176.gcc"],"points":[5.700000000000001,6.3],
                "warmup":1000,"measure":3000,"overhead":1.55}"#,
        )
        .unwrap();
        let cells = req.cells(false);
        let body = CellsRequest::body_for(&cells);
        let parsed = CellsRequest::from_json(&Json::parse(&body).expect("body parses"), &limits())
            .expect("rendered body validates");
        assert_eq!(parsed.cells.len(), cells.len());
        for (sent, received) in cells.iter().zip(&parsed.cells) {
            assert_eq!(sent.fingerprint(), received.fingerprint());
        }
    }

    #[test]
    fn cells_request_rejects_malformed_batches() {
        let parse = |body: &str| {
            CellsRequest::from_json(&Json::parse(body).expect("test body parses"), &limits())
        };
        assert!(parse("{}").is_err(), "cells is required");
        assert!(parse(r#"{"cells":[]}"#).is_err(), "empty batch");
        assert!(
            parse(r#"{"cells":[{"benchmark":"164.gzip"}]}"#).is_err(),
            "missing t_useful"
        );
        assert!(
            parse(r#"{"cells":[{"t_useful":6}]}"#).is_err(),
            "missing benchmark"
        );
        assert!(
            parse(r#"{"cells":[{"benchmark":"164.gzip","t_useful":6,"extra":1}]}"#).is_err(),
            "unknown cell field"
        );
        assert!(
            parse(r#"{"schema_version":3,"cells":[{"benchmark":"164.gzip","t_useful":6}]}"#)
                .is_err(),
            "future schema"
        );
        assert!(parse(r#"{"cells":[{"benchmark":"164.gzip","t_useful":6}]}"#).is_ok());
    }

    #[test]
    fn adaptive_engine_finds_the_dense_optimum_with_fewer_cells() {
        let engine = Engine::new(16, 256, 8);
        let points: Vec<String> = (2..=16).map(|p| p.to_string()).collect();
        let spec = format!(
            r#"{{"benchmarks":["164.gzip"],"points":[{}],"warmup":1000,"measure":3000"#,
            points.join(",")
        );
        let adaptive = sweep_req(&format!(r#"{spec},"mode":"adaptive"}}"#)).unwrap();
        let cfg = adaptive.adaptive.expect("adaptive config");
        let a = engine.adaptive_sweep(&adaptive, false, &cfg, &mut |_, _| {});
        assert!(
            a.cells_simulated * 2 < a.cells_dense,
            "probed {} of {} cells",
            a.cells_simulated,
            a.cells_dense
        );
        assert_eq!(engine.cells.stats().misses as usize, a.cells_simulated);
        assert_eq!(
            engine.sweeps.adaptive.load(Ordering::Relaxed),
            1,
            "adaptive sweep counted"
        );
        assert_eq!(
            engine.sweeps.cells_saved.load(Ordering::Relaxed) as usize,
            a.cells_dense - a.cells_simulated
        );

        // The dense sweep over the same grid reuses every probed cell and
        // lands on the same optimum.
        let dense = sweep_req(&format!("{spec}}}")).unwrap();
        let full = engine.sweep(&dense, false);
        let s = engine.cells.stats();
        assert_eq!(s.misses as usize, full.points.len(), "probed cells reused");
        assert!(s.hits as usize >= a.cells_simulated);
        let best = |sweep: &DepthSweep| {
            sweep
                .points
                .iter()
                .map(|p| {
                    let bips = summarize(&p.outcomes, None, p.period_ps).unwrap().bips;
                    (p.t_useful, bips)
                })
                .max_by(|x, y| x.1.total_cmp(&y.1))
                .unwrap()
        };
        assert_eq!(best(&a.sweep), best(&full), "identical optimum");
    }

    fn yield_req(body: &str) -> Result<YieldRequest, ApiError> {
        YieldRequest::from_json(&Json::parse(body).expect("test body parses"), &limits())
    }

    #[test]
    fn yield_request_splits_shape_errors_from_distribution_errors() {
        // Shape problems fail like every other endpoint: 422 invalid_request.
        let err = yield_req(r#"{"samples":0}"#).unwrap_err();
        assert_eq!((err.status, err.code), (422, "invalid_request"));
        let err = yield_req(r#"{"samples":513}"#).unwrap_err();
        assert_eq!((err.status, err.code), (422, "invalid_request"));
        let err = yield_req(r#"{"sigma_fo4":"wide"}"#).unwrap_err();
        assert_eq!((err.status, err.code), (422, "invalid_request"));
        assert!(yield_req(r#"{"sigmas":0.1}"#).is_err(), "typo'd field");
        // Semantically impossible distributions get the structured 400.
        for body in [
            r#"{"sigma_fo4":-0.1}"#,
            r#"{"sigma_latch":-0.5}"#,
            r#"{"distribution":"cauchy"}"#,
            r#"{"systematic_fo4":1.5}"#,
            r#"{"guardband":-0.2}"#,
            r#"{"logic_depth":0}"#,
        ] {
            let err = yield_req(body).unwrap_err();
            assert_eq!(
                (err.status, err.code),
                (400, "invalid_distribution"),
                "body {body} => {}",
                err.message
            );
        }
        // The defaulted request is a complete, valid configuration.
        let req = yield_req("{}").expect("defaults are valid");
        assert_eq!(req.variation.samples, VariationSpec::new(1).samples);
    }

    #[test]
    fn yield_fingerprints_address_variation_but_not_stream() {
        let base = yield_req(r#"{"benchmarks":["164.gzip"],"points":[6]}"#).unwrap();
        let streamed =
            yield_req(r#"{"benchmarks":["164.gzip"],"points":[6],"stream":true}"#).unwrap();
        assert_eq!(
            base.fingerprint(),
            streamed.fingerprint(),
            "stream is transport framing"
        );
        for body in [
            r#"{"benchmarks":["164.gzip"],"points":[6],"variation_seed":2}"#,
            r#"{"benchmarks":["164.gzip"],"points":[6],"samples":7}"#,
            r#"{"benchmarks":["164.gzip"],"points":[6],"sigma_fo4":0.09}"#,
            r#"{"benchmarks":["164.gzip"],"points":[6],"distribution":"uniform"}"#,
            r#"{"benchmarks":["164.gzip"],"points":[6],"guardband":0.11}"#,
        ] {
            let other = yield_req(body).unwrap();
            assert_ne!(base.fingerprint(), other.fingerprint(), "body {body}");
        }
    }

    #[test]
    fn yield_fragments_assemble_canonically_and_share_the_cell_cache() {
        let engine = Engine::new(16, 256, 8);
        // Warm the nominal cells through the plain sweep path first: the
        // yield sweep must reuse them, not resimulate.
        let plain =
            sweep_req(r#"{"benchmarks":["164.gzip"],"points":[4,8],"warmup":1000,"measure":3000}"#)
                .unwrap();
        engine.sweep(&plain, false);
        let nominal_misses = engine.cells.stats().misses;
        assert_eq!(nominal_misses, 2);

        let req = yield_req(
            r#"{"benchmarks":["164.gzip"],"points":[4,8],"warmup":1000,"measure":3000,
                "samples":4,"variation_seed":3}"#,
        )
        .unwrap();
        let mut frags = Vec::new();
        let streamed = engine.yield_body(&req, true, &mut |f| frags.push(f.to_string()));
        assert_eq!(frags.concat(), streamed, "emitted == returned");
        assert_eq!(frags.len(), req.points.len() + 2, "head, per-point, tail");
        let buffered = engine.yield_body(&req, false, &mut |_| {});
        assert_eq!(streamed, buffered, "progressive == buffered, byte for byte");
        let doc = Json::parse(&buffered).expect("assembled body parses");
        assert_eq!(doc.pretty(), buffered, "fragments == canonical pretty");

        // Dies whose effective points scale to an already-seen machine
        // (the nominal one or another die's) share its cell.
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
        let plan = YieldPlan::build(spec, req.variation, fo4depth_exec::global()).unwrap();
        assert_eq!(plan.cells().len(), 2 + 2 * 4);
        let machines = DistinctCells::of(plan.cells()).len() as u64;
        let s = engine.cells.stats();
        assert_eq!(
            s.misses - nominal_misses,
            machines - 2,
            "only the per-die machines simulated"
        );
        assert!(s.hits >= 2, "nominal cells came from the shared tier");
        assert_eq!(engine.yields.sweeps.load(Ordering::Relaxed), 2);
        assert_eq!(engine.yields.mc_samples.load(Ordering::Relaxed), 2 * 2 * 4);

        // A repeat through the single-flight summary path is pure cache.
        let first = engine.summary(&req);
        assert_eq!(*first.as_ref(), buffered);
        let again = engine.summary(&req);
        assert_eq!(first, again);
        assert_eq!(
            engine.cells.stats().misses,
            s.misses,
            "repeat cost zero simulations"
        );
    }
}
