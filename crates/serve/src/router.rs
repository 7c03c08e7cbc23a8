//! The shard tier: consistent-hash scatter/gather of sweep cells across
//! `fo4depth serve` shards, with R-way replication and dynamic
//! membership.
//!
//! A router is an ordinary [`Engine`](crate::api::Engine) whose cold
//! cells resolve over the network instead of locally: each cell's FNV-1a
//! fingerprint — the same content address the cache tiers and the
//! persistent store already key on — places it on a
//! [`HashRing`], and one of its first `replication` ring successors
//! simulates it via `POST /v1/cells`. Reads load-balance across the
//! replica set by power-of-two-choices on per-shard in-flight counts;
//! gathered records fan out to the other replicas (`POST /v1/records`)
//! so a warm restart stays warm on every replica. The gather side
//! decodes the store codec's CRC-guarded binary records, so a routed
//! outcome is bit-identical to a locally simulated one, and the
//! assembled sweep is byte-identical to single-node serving by
//! construction — whichever replica answers.
//!
//! Membership is dynamic: `POST /v1/ring` adds and removes shards while
//! the tier serves. The ring is keyed by stable per-address identities
//! ([`HashRing::with_nodes`]), so a membership change moves only the
//! departing or arriving shard's share of the keyspace (~K/N keys), and
//! a departing shard is *drained* — in-flight fetches finish against the
//! old ring snapshot — before its connections are dropped.
//!
//! Failure handling is cell-granular: a shard that dies mid-stream
//! forfeits only its not-yet-delivered cells, which retry (with
//! jittered exponential backoff, under a bounded budget) on the
//! remaining replicas and then the ring's fallback shards; whatever the
//! whole tier cannot resolve falls through to the router's embedded
//! engine. A routed sweep therefore degrades toward single-node
//! behaviour rather than failing. The [`NetFault`] seam in
//! [`crate::client`] lets tests script that degradation
//! deterministically.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use fo4depth_study::cells::CellSpec;
use fo4depth_study::sim::BenchOutcome;
use fo4depth_study::sweep::CoreKind;
use fo4depth_util::hash::{Fnv64, HashRing};
use fo4depth_util::rand::Substreams;
use fo4depth_util::Json;

use crate::api::CellsRequest;
use crate::client::{ConnPool, Connection, NetFault, NoNetFault};
use crate::store;

/// Tuning for the shard tier.
#[derive(Clone)]
pub struct UpstreamConfig {
    /// Virtual nodes per shard on the ring.
    pub ring_replicas: usize,
    /// Persistent-connection cap per shard — the hard bound on in-flight
    /// scatter requests one router places on one shard.
    pub connections: usize,
    /// Extra fetch attempts after the first, per cell group.
    pub retries: usize,
    /// Base backoff before retry `n` (doubled each retry, jittered, and
    /// capped by [`backoff_cap`](Self::backoff_cap)).
    pub backoff: Duration,
    /// Hard cap on any single backoff sleep.
    pub backoff_cap: Duration,
    /// TCP connect budget per dial (also the health-probe budget).
    pub connect_timeout: Duration,
    /// Per-I/O budget on scatter requests; the longest single wait is
    /// the response head, which arrives once the shard's batch finishes.
    pub io_timeout: Duration,
    /// Health-probe cadence.
    pub probe_interval: Duration,
    /// Copies of each cell across the ring: every cell may be served by
    /// any of its first `replication` ring successors. Clamped to the
    /// live shard count; `1` is the unreplicated tier.
    pub replication: usize,
    /// Bound on waiting for a departing shard's in-flight fetches
    /// during a `POST /v1/ring` removal.
    pub drain_timeout: Duration,
    /// Seed for the deterministic backoff-jitter / replica-choice
    /// substreams.
    pub jitter_seed: u64,
    /// Fault hook threaded through every scatter-path dial and read
    /// (never the prober). [`NoNetFault`] in production; tests and the
    /// chaos CI job install a scripted schedule.
    pub net_fault: Arc<dyn NetFault>,
}

impl std::fmt::Debug for UpstreamConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpstreamConfig")
            .field("ring_replicas", &self.ring_replicas)
            .field("connections", &self.connections)
            .field("retries", &self.retries)
            .field("backoff", &self.backoff)
            .field("backoff_cap", &self.backoff_cap)
            .field("connect_timeout", &self.connect_timeout)
            .field("io_timeout", &self.io_timeout)
            .field("probe_interval", &self.probe_interval)
            .field("replication", &self.replication)
            .field("drain_timeout", &self.drain_timeout)
            .field("jitter_seed", &self.jitter_seed)
            .field("net_fault", &format_args!("<hook>"))
            .finish()
    }
}

impl Default for UpstreamConfig {
    fn default() -> Self {
        Self {
            ring_replicas: 64,
            connections: 2,
            retries: 2,
            backoff: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(120),
            probe_interval: Duration::from_secs(1),
            replication: 1,
            drain_timeout: Duration::from_secs(5),
            // Any fixed seed works — the jitter only de-synchronizes
            // retry sleeps and replica picks, never response bytes.
            jitter_seed: 0x6f04_de97_4b0f_f5ee,
            net_fault: Arc::new(NoNetFault),
        }
    }
}

/// One shard: its connection pool, liveness state, and counters.
struct Shard {
    /// Stable ring identity: assigned once per address and reused when
    /// the address rejoins, so a remove/re-add cycle restores the
    /// original placement (and the shard's still-warm caches line up).
    id: u64,
    addr: String,
    pool: ConnPool,
    /// Last known liveness: cleared by a failed fetch or probe, restored
    /// by a passing probe. Purely an ordering hint — a down-flagged
    /// shard is skipped while alternatives exist, never forgotten.
    up: AtomicBool,
    /// Set when a membership change evicts this shard: in-flight
    /// fetches finish, new fetches and fan-outs skip it.
    draining: AtomicBool,
    /// Scatter requests currently outstanding against this shard — the
    /// power-of-two-choices load signal and the drain barrier.
    inflight: AtomicU64,
    requests: AtomicU64,
    records: AtomicU64,
    failures: AtomicU64,
    /// Consecutive failed health probes (0 while passing).
    consecutive_failures: AtomicU64,
    /// Timestamp of the last probe, µs since the tier started.
    last_probe_us: AtomicU64,
}

impl Shard {
    fn new(id: u64, addr: String, config: &UpstreamConfig) -> Arc<Self> {
        Arc::new(Self {
            id,
            pool: ConnPool::with_fault(
                addr.clone(),
                config.connections,
                config.connect_timeout,
                config.io_timeout,
                Arc::clone(&config.net_fault),
            ),
            addr,
            up: AtomicBool::new(true),
            draining: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            records: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            consecutive_failures: AtomicU64::new(0),
            last_probe_us: AtomicU64::new(0),
        })
    }

    /// Whether the scatter path should prefer this shard right now.
    fn usable(&self) -> bool {
        self.up.load(Ordering::Relaxed) && !self.draining.load(Ordering::Relaxed)
    }
}

/// An in-flight guard: counts one outstanding request against a shard
/// for the duration of a scatter call, however it exits.
struct InflightGuard<'a>(&'a Shard);

impl<'a> InflightGuard<'a> {
    fn enter(shard: &'a Shard) -> Self {
        shard.inflight.fetch_add(1, Ordering::SeqCst);
        Self(shard)
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One immutable ring generation: the ring and the shard slots it
/// indexes. Fetches snapshot the current generation (an `Arc` clone)
/// and run entirely against it, so a concurrent membership change never
/// renumbers slots under a scatter in flight.
struct RingState {
    ring: HashRing,
    shards: Vec<Arc<Shard>>,
}

/// Identity bookkeeping behind membership changes.
struct Membership {
    /// Every identity ever assigned, by address — a rejoining address
    /// gets its old identity back, restoring its old keyspace share.
    ids: HashMap<String, u64>,
    next_id: u64,
}

/// The outcome of one `POST /v1/ring` membership change.
#[derive(Debug, Clone)]
pub struct RingUpdate {
    /// The shard addresses now on the ring, in slot order.
    pub shards: Vec<String>,
    /// Total ring rebuilds since the tier started.
    pub rebuilds: u64,
    /// Departing shards that drained cleanly (in-flight count reached
    /// zero) within the drain budget.
    pub drained: usize,
}

/// The scatter/gather tier over a dynamic set of shards.
pub struct Upstream {
    state: RwLock<Arc<RingState>>,
    /// Serializes membership changes (and holds the identity map).
    membership: Mutex<Membership>,
    config: UpstreamConfig,
    /// Deterministic jitter for retry backoff and replica choice.
    jitter: Substreams,
    started: Instant,
    retries: AtomicU64,
    failovers: AtomicU64,
    local_fills: AtomicU64,
    unknown_records: AtomicU64,
    /// Cell groups served by a non-owner replica in normal (no-failure)
    /// operation — the power-of-two-choices read spread.
    replica_reads: AtomicU64,
    /// Successful record fan-outs to peer replicas (one per shard per
    /// group).
    replica_writes: AtomicU64,
    /// Departing shards drained to zero in-flight before eviction.
    drains: AtomicU64,
    /// Ring rebuilds (`POST /v1/ring` membership changes applied).
    rebuilds: AtomicU64,
}

/// The shared simulation header of one cell — every cell of one
/// `/v1/cells` batch must agree on it, so it subdivides scatter groups.
fn header_key(cell: &CellSpec) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(match cell.core {
        CoreKind::InOrder => 0,
        CoreKind::OutOfOrder => 1,
    });
    h.write_f64(cell.overhead.get());
    h.write_u64(cell.params.warmup);
    h.write_u64(cell.params.measure);
    h.write_u64(cell.params.seed);
    h.write_u64(u64::from(cell.observed));
    h.finish()
}

/// Places gathered `(fingerprint, outcome)` records into their cells'
/// positional slots. Order-independent and duplicate-tolerant — a record
/// fills every cell with its fingerprint, however and whenever it
/// arrived (two replicas answering the same cell is a benign double
/// fill: outcomes are deterministic functions of the fingerprint) — and
/// records for unknown fingerprints are skipped, not trusted. Returns
/// how many were unknown.
pub fn place_records(
    cells: &[CellSpec],
    records: &[(u64, BenchOutcome)],
    slots: &mut [Option<BenchOutcome>],
) -> usize {
    let mut by_fingerprint: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, cell) in cells.iter().enumerate() {
        by_fingerprint
            .entry(cell.fingerprint())
            .or_default()
            .push(i);
    }
    let mut unknown = 0;
    for (fingerprint, outcome) in records {
        match by_fingerprint.get(fingerprint) {
            Some(idxs) => {
                for &i in idxs {
                    slots[i] = Some(outcome.clone());
                }
            }
            None => unknown += 1,
        }
    }
    unknown
}

impl Upstream {
    /// A tier over `addrs` (one `host:port` per shard), in ring order.
    ///
    /// # Panics
    ///
    /// The shard list must be non-empty.
    #[must_use]
    pub fn new(addrs: Vec<String>, config: UpstreamConfig) -> Self {
        assert!(!addrs.is_empty(), "a shard tier needs at least one shard");
        // Initial identities are slot indices, so the initial placement
        // is byte-identical to the fixed-membership ring this tier grew
        // out of; later joiners get fresh identities.
        let mut ids = HashMap::new();
        let shards: Vec<Arc<Shard>> = addrs
            .into_iter()
            .enumerate()
            .map(|(slot, addr)| {
                ids.insert(addr.clone(), slot as u64);
                Shard::new(slot as u64, addr, &config)
            })
            .collect();
        let next_id = shards.len() as u64;
        let ring = Self::build_ring(&shards, config.ring_replicas);
        let jitter = Substreams::new(config.jitter_seed);
        Self {
            state: RwLock::new(Arc::new(RingState { ring, shards })),
            membership: Mutex::new(Membership { ids, next_id }),
            config,
            jitter,
            started: Instant::now(),
            retries: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            local_fills: AtomicU64::new(0),
            unknown_records: AtomicU64::new(0),
            replica_reads: AtomicU64::new(0),
            replica_writes: AtomicU64::new(0),
            drains: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
        }
    }

    fn build_ring(shards: &[Arc<Shard>], ring_replicas: usize) -> HashRing {
        let ids: Vec<u64> = shards.iter().map(|s| s.id).collect();
        HashRing::with_nodes(&ids, ring_replicas.max(1))
    }

    /// The current ring generation.
    fn snapshot(&self) -> Arc<RingState> {
        Arc::clone(&self.state.read().expect("ring lock"))
    }

    /// Number of shards on the ring.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.snapshot().shards.len()
    }

    /// The shard addresses, in ring-slot order.
    #[must_use]
    pub fn shard_addrs(&self) -> Vec<String> {
        self.snapshot()
            .shards
            .iter()
            .map(|s| s.addr.clone())
            .collect()
    }

    /// The configured probe cadence (the prober thread's sleep).
    #[must_use]
    pub fn probe_interval(&self) -> Duration {
        self.config.probe_interval
    }

    /// Cell groups served (at least partly) past a failure so far.
    #[must_use]
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// Cells the tier could not resolve (computed by the local engine).
    #[must_use]
    pub fn local_fills(&self) -> u64 {
        self.local_fills.load(Ordering::Relaxed)
    }

    /// Ring rebuilds applied so far.
    #[must_use]
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds.load(Ordering::Relaxed)
    }

    /// Applies a membership change: `add` joins new shard addresses,
    /// `remove` evicts present ones, and the ring rebuilds around the
    /// survivors' unchanged identities (so only the arriving/departing
    /// shards' keyspace shares move). Departing shards are drained —
    /// this call blocks (bounded by `drain_timeout`) until their
    /// in-flight fetches finish — before their pools are dropped.
    ///
    /// # Errors
    ///
    /// Adding an address already on the ring, removing one that is not,
    /// and removing the last shard are rejected with a message (the
    /// admin endpoint answers 400); the ring is untouched on error.
    pub fn update_ring(&self, add: &[String], remove: &[String]) -> Result<RingUpdate, String> {
        let mut membership = self.membership.lock().expect("membership lock");
        let current = self.snapshot();
        for addr in add {
            if current.shards.iter().any(|s| &s.addr == addr) {
                return Err(format!("shard {addr} is already on the ring"));
            }
        }
        let mut departing: Vec<Arc<Shard>> = Vec::new();
        for addr in remove {
            match current.shards.iter().find(|s| &s.addr == addr) {
                Some(shard) => departing.push(Arc::clone(shard)),
                None => return Err(format!("shard {addr} is not on the ring")),
            }
        }
        let mut shards: Vec<Arc<Shard>> = current
            .shards
            .iter()
            .filter(|s| !remove.contains(&s.addr))
            .cloned()
            .collect();
        for addr in add {
            let id = match membership.ids.get(addr) {
                Some(&id) => id,
                None => {
                    let id = membership.next_id;
                    membership.next_id += 1;
                    membership.ids.insert(addr.clone(), id);
                    id
                }
            };
            shards.push(Shard::new(id, addr.clone(), &self.config));
        }
        if shards.is_empty() {
            return Err("a shard tier needs at least one shard".to_string());
        }
        let ring = Self::build_ring(&shards, self.config.ring_replicas);
        *self.state.write().expect("ring lock") = Arc::new(RingState { ring, shards });
        let rebuilds = self.rebuilds.fetch_add(1, Ordering::Relaxed) + 1;
        // Drain: departing shards no longer receive new fetches (they
        // are off the ring); wait for what is already in flight.
        let mut drained = 0usize;
        for shard in &departing {
            shard.draining.store(true, Ordering::SeqCst);
            let deadline = Instant::now() + self.config.drain_timeout;
            while shard.inflight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            if shard.inflight.load(Ordering::SeqCst) == 0 {
                drained += 1;
                self.drains.fetch_add(1, Ordering::Relaxed);
            }
        }
        let shards = self
            .snapshot()
            .shards
            .iter()
            .map(|s| s.addr.clone())
            .collect();
        drop(membership);
        Ok(RingUpdate {
            shards,
            rebuilds,
            drained,
        })
    }

    /// Resolves a batch of cells through the shard tier: cells group by
    /// owning shard (and shared simulation header), groups scatter
    /// concurrently — one short-lived I/O thread per group, deliberately
    /// *not* the shared execution pool, so scatter width always matches
    /// shard count instead of `--jobs` and blocked network waits never
    /// occupy simulation lanes — and gathered outcomes return
    /// positionally: `None` where every responsible shard failed past
    /// the retry budget, which the caller resolves locally.
    ///
    /// The engine hands this one cell per fingerprint
    /// ([`DistinctCells`](fo4depth_study::cells::DistinctCells)), so each
    /// simulated machine crosses the wire once; a duplicate would still
    /// place correctly, since records place by fingerprint.
    #[must_use]
    pub fn fetch(&self, cells: &[CellSpec]) -> Vec<Option<BenchOutcome>> {
        let snapshot = self.snapshot();
        let mut groups: Vec<(u64, usize, Vec<usize>)> = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            let owner = snapshot.ring.owner(cell.fingerprint());
            let header = header_key(cell);
            match groups
                .iter_mut()
                .find(|(h, s, _)| *h == header && *s == owner)
            {
                Some((_, _, g)) => g.push(i),
                None => groups.push((header, owner, vec![i])),
            }
        }
        let fetched: Vec<Vec<Option<BenchOutcome>>> = if groups.len() == 1 {
            let specs: Vec<CellSpec> = groups[0].2.iter().map(|&i| cells[i].clone()).collect();
            vec![self.fetch_group(&snapshot, &specs)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = groups
                    .iter()
                    .map(|(_, _, idxs)| {
                        let specs: Vec<CellSpec> = idxs.iter().map(|&i| cells[i].clone()).collect();
                        let snapshot = &snapshot;
                        scope.spawn(move || self.fetch_group(snapshot, &specs))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("scatter thread"))
                    .collect()
            })
        };
        let mut out: Vec<Option<BenchOutcome>> = vec![None; cells.len()];
        for ((_, _, idxs), got) in groups.iter().zip(fetched) {
            for (&i, o) in idxs.iter().zip(got) {
                out[i] = o;
            }
        }
        let unresolved = out.iter().filter(|o| o.is_none()).count();
        if unresolved > 0 {
            self.local_fills
                .fetch_add(unresolved as u64, Ordering::Relaxed);
        }
        out
    }

    /// The replica read plan for one group: the power-of-two-choices
    /// pick first, then the rest of the replica set in ring order, then
    /// the non-replica successors as last-resort fallbacks.
    fn read_plan(&self, state: &RingState, order: &[usize], fingerprint: u64) -> Vec<usize> {
        let r = self.config.replication.clamp(1, order.len());
        let replicas = &order[..r];
        let primary = self.pick_replica(state, replicas, fingerprint);
        let mut plan = Vec::with_capacity(order.len());
        plan.push(replicas[primary]);
        plan.extend(
            replicas
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != primary)
                .map(|(_, &s)| s),
        );
        plan.extend(order[r..].iter().copied());
        plan
    }

    /// Power-of-two-choices within the replica set: two deterministic
    /// pseudo-random candidates (seeded by the group fingerprint), the
    /// one with fewer in-flight requests wins, ties to the earlier ring
    /// position. Down or draining replicas are excluded while any
    /// usable one remains; byte-identity never depends on the pick —
    /// every replica serves identical records.
    fn pick_replica(&self, state: &RingState, replicas: &[usize], fingerprint: u64) -> usize {
        let usable: Vec<usize> = (0..replicas.len())
            .filter(|&i| state.shards[replicas[i]].usable())
            .collect();
        let pool: &[usize] = if usable.is_empty() { &[] } else { &usable };
        match pool.len() {
            0 => 0,
            1 => pool[0],
            n => {
                let h = self.jitter.derive(&[fingerprint, 0]);
                let a = pool[(h % n as u64) as usize];
                let b = pool[((h >> 32) % n as u64) as usize];
                let load_a = state.shards[replicas[a]].inflight.load(Ordering::SeqCst);
                let load_b = state.shards[replicas[b]].inflight.load(Ordering::SeqCst);
                match load_a.cmp(&load_b) {
                    std::cmp::Ordering::Less => a,
                    std::cmp::Ordering::Greater => b,
                    std::cmp::Ordering::Equal => a.min(b),
                }
            }
        }
    }

    /// The jittered exponential backoff before retry `attempt` (1-based):
    /// `backoff · 2^(attempt-1)`, scaled by a deterministic factor in
    /// `[0.5, 1.5)` drawn from the `(fingerprint, attempt)` substream,
    /// capped at `backoff_cap`. Concurrent gather threads retrying
    /// against one recovering shard therefore spread out instead of
    /// hammering it in lockstep.
    fn backoff_for(&self, fingerprint: u64, attempt: usize) -> Duration {
        let exp = u32::try_from(attempt.saturating_sub(1).min(10)).expect("small exponent");
        let base = self.config.backoff.saturating_mul(1u32 << exp);
        let factor = 0.5 + self.jitter.unit_f64(&[fingerprint, attempt as u64]);
        let jittered = base.mul_f64(factor);
        jittered.min(self.config.backoff_cap)
    }

    /// One owner-group's scatter: power-of-two-choices over the replica
    /// set, then the ring's fallback order, re-requesting only the
    /// still-missing cells each attempt (a shard that died mid-stream
    /// keeps its delivered cells). After a successful gather the
    /// records fan out to the other usable replicas so every copy of
    /// the keyspace stays warm.
    fn fetch_group(&self, state: &RingState, cells: &[CellSpec]) -> Vec<Option<BenchOutcome>> {
        let mut slots: Vec<Option<BenchOutcome>> = vec![None; cells.len()];
        let fingerprint = cells[0].fingerprint();
        let order = state.ring.successors(fingerprint);
        let owner = order[0];
        let replication = self.config.replication.clamp(1, order.len());
        let plan = self.read_plan(state, &order, fingerprint);
        let mut cursor = 0usize;
        let mut failed = false;
        let mut fallback_served = false;
        let mut replica_served = false;
        let mut served_by: Vec<usize> = Vec::new();
        for attempt in 0..=self.config.retries {
            let missing: Vec<CellSpec> = cells
                .iter()
                .zip(&slots)
                .filter(|(_, slot)| slot.is_none())
                .map(|(cell, _)| cell.clone())
                .collect();
            if missing.is_empty() {
                break;
            }
            if attempt > 0 {
                self.retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.backoff_for(fingerprint, attempt));
            }
            let (position, shard_ix) = Self::next_candidate(state, &plan, cursor);
            let shard = &state.shards[shard_ix];
            shard.requests.fetch_add(1, Ordering::Relaxed);
            let guard = InflightGuard::enter(shard);
            let (records, result) = self.fetch_once(shard, &missing);
            drop(guard);
            shard
                .records
                .fetch_add(records.len() as u64, Ordering::Relaxed);
            if !records.is_empty() {
                if failed || (shard_ix != owner && !state.shards[owner].usable()) {
                    // Served after an in-band failure, or by a stand-in
                    // because the owner is already flagged down/draining:
                    // either way the tier healed around a loss.
                    fallback_served = true;
                } else if shard_ix != owner {
                    replica_served = true;
                }
                if !served_by.contains(&shard_ix) {
                    served_by.push(shard_ix);
                }
            }
            let unknown = place_records(cells, &records, &mut slots);
            if unknown > 0 {
                self.unknown_records
                    .fetch_add(unknown as u64, Ordering::Relaxed);
            }
            match result {
                Ok(()) => break,
                Err(_) => {
                    failed = true;
                    shard.failures.fetch_add(1, Ordering::Relaxed);
                    shard.up.store(false, Ordering::Relaxed);
                    cursor = position + 1;
                }
            }
        }
        if fallback_served {
            self.failovers.fetch_add(1, Ordering::Relaxed);
        }
        if replica_served {
            self.replica_reads.fetch_add(1, Ordering::Relaxed);
        }
        if !served_by.is_empty() && replication > 1 {
            self.fan_out(state, cells, &slots, &order[..replication], &served_by);
        }
        slots
    }

    /// Pushes this group's gathered records to every usable peer
    /// replica that did not serve them, via `POST /v1/records` — the
    /// shard-side install endpoint that warms a replica's caches
    /// without re-simulating. Best-effort: a failed push costs nothing
    /// but the warmth (the records are deterministic, so the replica
    /// can always recompute them).
    fn fan_out(
        &self,
        state: &RingState,
        cells: &[CellSpec],
        slots: &[Option<BenchOutcome>],
        replicas: &[usize],
        served_by: &[usize],
    ) {
        let mut body = Vec::new();
        let mut seen = Vec::new();
        for (cell, slot) in cells.iter().zip(slots) {
            let Some(outcome) = slot else { continue };
            let fingerprint = cell.fingerprint();
            if seen.contains(&fingerprint) {
                continue;
            }
            seen.push(fingerprint);
            let payload = store::encode_outcome_tagged(outcome, Some(cell.core));
            body.extend_from_slice(&store::encode_record(fingerprint, &payload));
        }
        if body.is_empty() {
            return;
        }
        for &slot_ix in replicas {
            if served_by.contains(&slot_ix) {
                continue;
            }
            let shard = &state.shards[slot_ix];
            if !shard.usable() {
                continue;
            }
            let guard = InflightGuard::enter(shard);
            if self.push_records(shard, &body).is_ok() {
                self.replica_writes.fetch_add(1, Ordering::Relaxed);
            }
            drop(guard);
        }
    }

    /// One `POST /v1/records` push of pre-encoded records to one shard.
    fn push_records(&self, shard: &Shard, body: &[u8]) -> io::Result<()> {
        let (mut conn, head) = loop {
            let mut c = shard.pool.checkout()?;
            match c.request("POST", "/v1/records", body, true) {
                Ok(head) => break (c, head),
                Err(_) if !c.fresh() => continue,
                Err(e) => return Err(e),
            }
        };
        let _ = conn.read_body(&head)?;
        if head.status != 200 {
            return Err(io::Error::other(format!(
                "shard {} answered {} to a record push",
                shard.addr, head.status
            )));
        }
        if head.keep_alive() {
            conn.keep();
        }
        Ok(())
    }

    /// The next shard to try: the first usable shard at or after
    /// `cursor` in plan order (wrapping), or — when everything is
    /// flagged down — the shard at `cursor` anyway: flags are hints
    /// from the last probe, and trying a flagged shard is how a wrong
    /// flag gets corrected before the next probe.
    fn next_candidate(state: &RingState, plan: &[usize], cursor: usize) -> (usize, usize) {
        for offset in 0..plan.len() {
            let position = cursor + offset;
            let shard = plan[position % plan.len()];
            if state.shards[shard].usable() {
                return (position, shard);
            }
        }
        (cursor, plan[cursor % plan.len()])
    }

    /// One `/v1/cells` request to one shard, over its persistent pool.
    /// Returns every record gathered before the first failure (partial
    /// gathers are kept — the caller retries only the remainder).
    fn fetch_once(
        &self,
        shard: &Shard,
        cells: &[CellSpec],
    ) -> (Vec<(u64, BenchOutcome)>, io::Result<()>) {
        let body = CellsRequest::body_for(cells);
        // A reused keep-alive connection may have been idled out by the
        // shard's request deadline since its last use; a send-phase
        // failure on a *reused* connection therefore retries on the next
        // checkout (draining stale idles until a fresh dial decides)
        // rather than counting against the shard.
        let (mut conn, head) = loop {
            let mut c = match shard.pool.checkout() {
                Ok(c) => c,
                Err(e) => return (Vec::new(), Err(e)),
            };
            match c.request("POST", "/v1/cells", body.as_bytes(), true) {
                Ok(head) => break (c, head),
                Err(_) if !c.fresh() => continue,
                Err(e) => return (Vec::new(), Err(e)),
            }
        };
        if head.status != 200 {
            return (
                Vec::new(),
                Err(io::Error::other(format!(
                    "shard {} answered {}",
                    shard.addr, head.status
                ))),
            );
        }
        if !head.chunked() {
            return (
                Vec::new(),
                Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "shard response is not chunked",
                )),
            );
        }
        let mut records = Vec::new();
        loop {
            match conn.next_chunk() {
                Ok(None) => {
                    if head.keep_alive() {
                        conn.keep();
                    }
                    return (records, Ok(()));
                }
                Ok(Some(chunk)) => {
                    let mut rest: &[u8] = &chunk;
                    while !rest.is_empty() {
                        let decoded = store::decode_record(rest).and_then(|(fp, payload, used)| {
                            store::decode_outcome(payload).map(|o| (fp, o, used))
                        });
                        match decoded {
                            Ok((fingerprint, outcome, used)) => {
                                records.push((fingerprint, outcome));
                                rest = &rest[used..];
                            }
                            Err(_) => {
                                return (
                                    records,
                                    Err(io::Error::new(
                                        io::ErrorKind::InvalidData,
                                        "undecodable outcome record",
                                    )),
                                );
                            }
                        }
                    }
                }
                Err(e) => return (records, Err(e)),
            }
        }
    }

    /// One liveness pass: `GET /healthz` against every shard, setting
    /// each flag (and the probe bookkeeping `/healthz` aggregates) from
    /// the result. Run periodically by the router's prober thread.
    /// Probes dial outside the fault hook — a scripted schedule scripts
    /// the scatter path, not the prober racing it.
    pub fn probe(&self) {
        let snapshot = self.snapshot();
        for shard in &snapshot.shards {
            let up = Connection::connect(
                &shard.addr,
                self.config.connect_timeout,
                self.config.connect_timeout,
            )
            .and_then(|mut c| {
                let head = c.request("GET", "/healthz", b"", false)?;
                c.read_body(&head)?;
                Ok(head.status == 200)
            })
            .unwrap_or(false);
            shard.up.store(up, Ordering::Relaxed);
            if up {
                shard.consecutive_failures.store(0, Ordering::Relaxed);
            } else {
                shard.consecutive_failures.fetch_add(1, Ordering::Relaxed);
            }
            let elapsed_us = u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX);
            shard.last_probe_us.store(elapsed_us, Ordering::Relaxed);
        }
    }

    /// The router's `/healthz` body: tier status plus per-shard prober
    /// state, deterministic field order, so an external load balancer
    /// can front multiple routers on this document.
    #[must_use]
    pub fn healthz_json(&self) -> Json {
        let snapshot = self.snapshot();
        let all_up = snapshot.shards.iter().all(|s| s.up.load(Ordering::Relaxed));
        Json::obj(vec![
            ("status", Json::str(if all_up { "ok" } else { "degraded" })),
            (
                "shards",
                Json::Arr(
                    snapshot
                        .shards
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("addr", Json::str(&s.addr)),
                                ("up", Json::Bool(s.up.load(Ordering::Relaxed))),
                                (
                                    "consecutive_failures",
                                    Json::uint(s.consecutive_failures.load(Ordering::Relaxed)),
                                ),
                                (
                                    "last_probe_us",
                                    Json::uint(s.last_probe_us.load(Ordering::Relaxed)),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The `router` member of the `/metrics` document: per-shard routing
    /// counters plus tier-wide failover, replication, and membership
    /// accounting.
    #[must_use]
    pub fn metrics_json(&self) -> Json {
        let snapshot = self.snapshot();
        Json::obj(vec![
            (
                "shards",
                Json::Arr(
                    snapshot
                        .shards
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("addr", Json::str(&s.addr)),
                                ("up", Json::Bool(s.up.load(Ordering::Relaxed))),
                                ("requests", Json::uint(s.requests.load(Ordering::Relaxed))),
                                ("records", Json::uint(s.records.load(Ordering::Relaxed))),
                                ("failures", Json::uint(s.failures.load(Ordering::Relaxed))),
                                ("inflight", Json::uint(s.inflight.load(Ordering::SeqCst))),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("retries", Json::uint(self.retries.load(Ordering::Relaxed))),
            (
                "failovers",
                Json::uint(self.failovers.load(Ordering::Relaxed)),
            ),
            (
                "replica_reads",
                Json::uint(self.replica_reads.load(Ordering::Relaxed)),
            ),
            (
                "replica_writes",
                Json::uint(self.replica_writes.load(Ordering::Relaxed)),
            ),
            (
                "local_fills",
                Json::uint(self.local_fills.load(Ordering::Relaxed)),
            ),
            (
                "unknown_records",
                Json::uint(self.unknown_records.load(Ordering::Relaxed)),
            ),
            (
                "injected_faults",
                Json::uint(self.config.net_fault.injected()),
            ),
            ("drains", Json::uint(self.drains.load(Ordering::Relaxed))),
            (
                "ring",
                Json::obj(vec![
                    ("shards", Json::uint(snapshot.shards.len() as u64)),
                    (
                        "replication",
                        Json::uint(
                            self.config
                                .replication
                                .clamp(1, snapshot.shards.len().max(1))
                                as u64,
                        ),
                    ),
                    (
                        "rebuilds",
                        Json::uint(self.rebuilds.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
        ])
    }
}
