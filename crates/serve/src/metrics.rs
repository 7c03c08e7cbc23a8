//! Server observability: per-endpoint request counters and latency
//! histograms, rendered through the deterministic JSON renderer.
//!
//! Latencies land in log2 microsecond buckets (`bucket i` holds samples in
//! `[2^(i-1), 2^i)` µs, bucket 0 holds sub-microsecond samples), which is
//! enough resolution to show the cache-hit-vs-simulation bimodality the
//! serving layer exists to create. Values are live counters — only the
//! *schema* of the `/metrics` document is deterministic, not its contents.

use std::sync::Mutex;

use fo4depth_util::Json;

/// Log2 latency buckets: up to `2^30` µs (~18 minutes) then overflow.
const BUCKETS: usize = 31;

/// The daemon's endpoints, in `/metrics` render order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/report`.
    Report,
    /// `POST /v1/sweep`.
    Sweep,
    /// `POST /v1/run`.
    Run,
    /// `POST /v1/cells` (the shard-internal scatter endpoint).
    Cells,
    /// `POST /v1/records` (the shard-internal replica-warming install).
    Records,
    /// `POST /v1/yield`.
    Yield,
    /// `GET /metrics`.
    Metrics,
    /// `GET /healthz`.
    Health,
    /// `POST /v1/ring` (the router's membership admin endpoint).
    Ring,
    /// Anything else (404/405/parse failures before routing).
    Other,
}

impl Endpoint {
    const ALL: [Endpoint; 10] = [
        Endpoint::Report,
        Endpoint::Sweep,
        Endpoint::Run,
        Endpoint::Cells,
        Endpoint::Records,
        Endpoint::Yield,
        Endpoint::Metrics,
        Endpoint::Health,
        Endpoint::Ring,
        Endpoint::Other,
    ];

    fn key(self) -> &'static str {
        match self {
            Endpoint::Report => "report",
            Endpoint::Sweep => "sweep",
            Endpoint::Run => "run",
            Endpoint::Cells => "cells",
            Endpoint::Records => "records",
            Endpoint::Yield => "yield",
            Endpoint::Metrics => "metrics",
            Endpoint::Health => "healthz",
            Endpoint::Ring => "ring",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            Endpoint::Report => 0,
            Endpoint::Sweep => 1,
            Endpoint::Run => 2,
            Endpoint::Cells => 3,
            Endpoint::Records => 4,
            Endpoint::Yield => 5,
            Endpoint::Metrics => 6,
            Endpoint::Health => 7,
            Endpoint::Ring => 8,
            Endpoint::Other => 9,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct EndpointCounters {
    requests: u64,
    errors: u64,
    total_us: u64,
    buckets: [u64; BUCKETS],
}

impl EndpointCounters {
    const ZERO: EndpointCounters = EndpointCounters {
        requests: 0,
        errors: 0,
        total_us: 0,
        buckets: [0; BUCKETS],
    };
}

/// Request counters for every endpoint, behind one short-held lock.
pub struct RequestMetrics {
    endpoints: Mutex<[EndpointCounters; Endpoint::ALL.len()]>,
}

impl Default for RequestMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestMetrics {
    /// Fresh, all-zero counters.
    #[must_use]
    pub fn new() -> Self {
        Self {
            endpoints: Mutex::new([EndpointCounters::ZERO; Endpoint::ALL.len()]),
        }
    }

    /// Records one finished request: which endpoint, whether the response
    /// was an error (any non-2xx status), and its service time.
    pub fn record(&self, endpoint: Endpoint, status: u16, elapsed_us: u64) {
        let mut all = self.endpoints.lock().expect("metrics lock");
        let c = &mut all[endpoint.index()];
        c.requests += 1;
        if !(200..300).contains(&status) {
            c.errors += 1;
        }
        // Saturate at the JSON renderer's integer bound (`Json::uint`
        // panics past `i64::MAX`); a saturated total is long since
        // meaningless anyway.
        c.total_us = c.total_us.saturating_add(elapsed_us).min(i64::MAX as u64);
        let bucket = if elapsed_us == 0 {
            0
        } else {
            (u64::BITS - elapsed_us.leading_zeros()).min(BUCKETS as u32 - 1) as usize
        };
        c.buckets[bucket] += 1;
    }

    /// Total requests recorded for `endpoint` so far.
    #[must_use]
    pub fn requests(&self, endpoint: Endpoint) -> u64 {
        self.endpoints.lock().expect("metrics lock")[endpoint.index()].requests
    }

    /// The `endpoints` member of the `/metrics` document. Trailing empty
    /// histogram buckets are trimmed so the document stays readable; the
    /// bucket at index `i` covers `[2^(i-1), 2^i)` µs.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let all = self.endpoints.lock().expect("metrics lock");
        Json::Obj(
            Endpoint::ALL
                .iter()
                .map(|&e| {
                    let c = &all[e.index()];
                    let last = c.buckets.iter().rposition(|&b| b > 0).map_or(0, |i| i + 1);
                    (
                        e.key().to_string(),
                        Json::obj(vec![
                            ("requests", Json::uint(c.requests)),
                            ("errors", Json::uint(c.errors)),
                            ("total_us", Json::uint(c.total_us)),
                            (
                                "latency_log2_us",
                                Json::Arr(
                                    c.buckets[..last].iter().map(|&b| Json::uint(b)).collect(),
                                ),
                            ),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Renders the engine's [`SweepCounters`](crate::api::SweepCounters) as
/// the `sweeps` member of the `/metrics` document.
#[must_use]
pub fn sweeps_json(counters: &crate::api::SweepCounters) -> Json {
    use std::sync::atomic::Ordering;
    Json::obj(vec![
        (
            "adaptive",
            Json::uint(counters.adaptive.load(Ordering::Relaxed)),
        ),
        (
            "cells_saved",
            Json::uint(counters.cells_saved.load(Ordering::Relaxed)),
        ),
        (
            "streamed",
            Json::uint(counters.streamed.load(Ordering::Relaxed)),
        ),
        (
            "stream_chunks",
            Json::uint(counters.stream_chunks.load(Ordering::Relaxed)),
        ),
    ])
}

/// Renders the engine's [`YieldCounters`](crate::api::YieldCounters) as
/// the `yield` member of the `/metrics` document.
#[must_use]
pub fn yields_json(counters: &crate::api::YieldCounters) -> Json {
    use std::sync::atomic::Ordering;
    Json::obj(vec![
        (
            "sweeps",
            Json::uint(counters.sweeps.load(Ordering::Relaxed)),
        ),
        (
            "mc_samples",
            Json::uint(counters.mc_samples.load(Ordering::Relaxed)),
        ),
        (
            "streamed",
            Json::uint(counters.streamed.load(Ordering::Relaxed)),
        ),
        (
            "stream_chunks",
            Json::uint(counters.stream_chunks.load(Ordering::Relaxed)),
        ),
        (
            "invalid_distribution",
            Json::uint(counters.invalid_distribution.load(Ordering::Relaxed)),
        ),
    ])
}

/// Renders one cache's [`CacheStats`](crate::cache::CacheStats).
#[must_use]
pub fn cache_json(stats: &crate::cache::CacheStats) -> Json {
    Json::obj(vec![
        ("entries", Json::uint(stats.entries as u64)),
        ("capacity", Json::uint(stats.capacity as u64)),
        ("hits", Json::uint(stats.hits)),
        ("misses", Json::uint(stats.misses)),
        ("coalesced", Json::uint(stats.coalesced)),
        ("evictions", Json::uint(stats.evictions)),
    ])
}

/// Renders the persistent store's [`StoreStats`](crate::store::StoreStats)
/// as the `caches.persistent` member of the `/metrics` document.
#[must_use]
pub fn store_json(stats: &crate::store::StoreStats) -> Json {
    Json::obj(vec![
        ("entries", Json::uint(stats.entries as u64)),
        ("log_bytes", Json::uint(stats.log_bytes)),
        ("hits", Json::uint(stats.hits)),
        ("misses", Json::uint(stats.misses)),
        ("read_errors", Json::uint(stats.read_errors)),
        ("appended", Json::uint(stats.appended)),
        ("append_errors", Json::uint(stats.append_errors)),
        ("shed", Json::uint(stats.shed)),
        ("fsyncs", Json::uint(stats.fsyncs)),
        ("fsync_errors", Json::uint(stats.fsync_errors)),
        ("recovered_entries", Json::uint(stats.recovered_entries)),
        ("dropped_bytes", Json::uint(stats.dropped_bytes)),
        ("degraded", Json::Bool(stats.degraded)),
        ("queue_depth", Json::uint(stats.queue_depth as u64)),
        ("queue_capacity", Json::uint(stats.queue_capacity as u64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_log2_buckets_and_counts_errors() {
        let m = RequestMetrics::new();
        m.record(Endpoint::Report, 200, 0); // bucket 0
        m.record(Endpoint::Report, 200, 1); // bucket 1
        m.record(Endpoint::Report, 429, 1000); // bucket 10
        let doc = m.to_json();
        let report = doc.get("report").expect("report endpoint");
        assert_eq!(report.get("requests").and_then(Json::as_u64), Some(3));
        assert_eq!(report.get("errors").and_then(Json::as_u64), Some(1));
        assert_eq!(report.get("total_us").and_then(Json::as_u64), Some(1001));
        assert!(report.get("latency_log2_us").is_some());
        let buckets = report
            .get("latency_log2_us")
            .and_then(Json::as_arr)
            .expect("buckets");
        assert_eq!(buckets.len(), 11, "trimmed after the last hit bucket");
        assert_eq!(buckets[0].as_u64(), Some(1));
        assert_eq!(buckets[1].as_u64(), Some(1));
        assert_eq!(buckets[10].as_u64(), Some(1));
    }

    #[test]
    fn huge_latencies_clamp_to_the_overflow_bucket() {
        let m = RequestMetrics::new();
        m.record(Endpoint::Run, 200, u64::MAX);
        let doc = m.to_json();
        let buckets = doc
            .get("run")
            .and_then(|r| r.get("latency_log2_us"))
            .and_then(Json::as_arr)
            .expect("buckets");
        assert_eq!(buckets.len(), BUCKETS);
        assert_eq!(buckets[BUCKETS - 1].as_u64(), Some(1));
    }
}
