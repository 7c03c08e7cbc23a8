//! The dynamically scheduled (out-of-order) core — the §4.3 machine.
//!
//! A trace-driven cycle loop with the classic structure:
//!
//! ```text
//! fetch → decode/rename → dispatch → window → select → regread → execute → commit
//! ```
//!
//! Timing rules (see DESIGN.md §4 for the derivations):
//!
//! * A producer issuing at cycle `c` makes its value available to
//!   consumers at `c + max(exec_latency, 1)` — full bypass means register
//!   read does not lengthen dependent-to-dependent latency.
//! * The issue–wakeup loop is charged inside the window model
//!   (`wakeup − 1` extra cycles, or the per-stage delay of the segmented
//!   window).
//! * Loads see the cache hierarchy (or store-forwarding) on top of address
//!   generation; the load-use loop is the DL1 latency.
//! * A mispredicted branch halts fetch until it resolves
//!   (`issue + regread + exec`), then refills through the whole front end —
//!   the branch-misprediction loop.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use std::sync::Arc;

use fo4depth_isa::{Instruction, OpClass};
use fo4depth_uarch::branch::{Bimodal, BranchPredictor, BtbStats, Gshare, Perceptron, Tournament};
use fo4depth_uarch::cache::Hierarchy;
use fo4depth_uarch::fu::{FuClass, FuPool};
use fo4depth_uarch::lsq::{LoadSource, LoadStoreQueue};
use fo4depth_uarch::observe::{Observer, Structure};
use fo4depth_uarch::rename::RenameMap;
use fo4depth_uarch::rob::ReorderBuffer;
use fo4depth_uarch::segmented::SegmentedWindow;
use fo4depth_uarch::speculative::SpeculativeWindow;
use fo4depth_uarch::window::{ConventionalWindow, WindowEntry, WindowModel};

use crate::batch::{FetchPlan, FetchResolver};
use crate::config::{CoreConfig, WindowConfig};
use crate::counters::{Counters, StallCause, ValueKind};
use crate::result::SimResult;

/// Cycles without a commit after which the core declares itself wedged
/// (indicates a model bug, not a program property).
const DEADLOCK_LIMIT: u64 = 200_000;

/// A trivially optimistic predictor: always taken.
#[derive(Debug, Clone, Copy)]
struct AlwaysTaken;

impl BranchPredictor for AlwaysTaken {
    fn predict(&mut self, _pc: u64) -> bool {
        true
    }
    fn update(&mut self, _pc: u64, _taken: bool) {}
}

/// Builds the configured branch predictor.
pub(crate) fn build_predictor(cfg: &CoreConfig) -> Box<dyn BranchPredictor + Send> {
    match cfg.predictor {
        crate::config::PredictorConfig::Tournament {
            local_sites,
            local_history_bits,
            global_entries,
        } => Box::new(Tournament::new(
            local_sites,
            local_history_bits,
            global_entries,
        )),
        crate::config::PredictorConfig::Bimodal { entries } => Box::new(Bimodal::new(entries)),
        crate::config::PredictorConfig::Gshare { entries } => Box::new(Gshare::new(entries)),
        crate::config::PredictorConfig::Perceptron { rows, history_bits } => {
            Box::new(Perceptron::new(rows, history_bits))
        }
        crate::config::PredictorConfig::AlwaysTaken => Box::new(AlwaysTaken),
    }
}

#[derive(Debug, Clone, Copy)]
struct Inflight {
    op: OpClass,
    dest: Option<u32>,
    mem_addr: Option<u64>,
    mispredicted: bool,
    load_source: Option<LoadSource>,
    /// Integer cluster the instruction was slotted to (round-robin).
    cluster: u8,
}

#[derive(Debug, Clone, Copy)]
struct WaitState {
    pending: u32,
    acc: u64,
    /// Kind of the producer currently bounding `acc` (observability only;
    /// never read by timing decisions).
    kind: Option<ValueKind>,
}

/// Per-physical-register value tracking: when the value materializes, who
/// produced it, and what kind of latency it sat behind.
#[derive(Debug, Clone, Copy)]
struct ValueInfo {
    ready: u64,
    cluster: u8,
    kind: ValueKind,
}

impl ValueInfo {
    /// State of a register with no tracked producer: architecturally ready
    /// since cycle 0, from no particular cluster.
    const ABSENT: Self = Self {
        ready: 0,
        cluster: u8::MAX,
        kind: ValueKind::Exec,
    };
}

/// Observation state, boxed so the disabled case costs one null check.
#[derive(Debug)]
struct Observation {
    counters: Counters,
    btb_base: BtbStats,
}

#[derive(Debug)]
struct Pending {
    inst: Instruction,
    seq: u64,
    avail_at: u64,
}

/// The core's three sequence-keyed wait tables (dispatch-time wait state,
/// issue-wait attribution, store-forwarding waiters), ring-indexed by
/// `seq % rob_capacity`. Sound because every key is an in-flight sequence
/// number and the ROB bounds in-flight instructions to one capacity's
/// worth of contiguous seqs — the same invariant the core's `inflight`
/// ring relies on. Each entry is removed by its instruction's own
/// lifecycle (issue, wake, store execute) before the ring can wrap onto it.
#[derive(Debug)]
struct RingTables {
    consumers: Vec<Option<WaitState>>,
    issue_wait: Vec<Option<ValueKind>>,
    store_waiters: Vec<Vec<u64>>,
}

impl RingTables {
    fn with_capacity(rob_capacity: usize) -> Self {
        assert!(rob_capacity > 0);
        Self {
            consumers: vec![None; rob_capacity],
            issue_wait: vec![None; rob_capacity],
            store_waiters: vec![Vec::new(); rob_capacity],
        }
    }

    #[inline]
    fn slot(&self, seq: u64) -> usize {
        (seq as usize) % self.consumers.len()
    }

    /// Dispatch-time wait state of in-flight instruction `seq`.
    fn consumer(&self, seq: u64) -> Option<&WaitState> {
        self.consumers[self.slot(seq)].as_ref()
    }

    fn consumer_mut(&mut self, seq: u64) -> Option<&mut WaitState> {
        let i = self.slot(seq);
        self.consumers[i].as_mut()
    }

    fn insert_consumer(&mut self, seq: u64, state: WaitState) {
        let i = self.slot(seq);
        debug_assert!(self.consumers[i].is_none(), "wait-table ring collision");
        self.consumers[i] = Some(state);
    }

    /// Drops `seq`'s wait state (its last producer has scheduled).
    fn remove_consumer(&mut self, seq: u64) {
        let i = self.slot(seq);
        self.consumers[i] = None;
    }

    /// What kind of producer `seq` is waiting on (attribution only).
    fn issue_wait(&self, seq: u64) -> Option<ValueKind> {
        self.issue_wait[self.slot(seq)]
    }

    fn insert_issue_wait(&mut self, seq: u64, kind: ValueKind) {
        let i = self.slot(seq);
        self.issue_wait[i] = Some(kind);
    }

    fn remove_issue_wait(&mut self, seq: u64) {
        let i = self.slot(seq);
        self.issue_wait[i] = None;
    }

    /// Gates load `seq` on the data of in-flight store `store_seq`.
    fn push_store_waiter(&mut self, store_seq: u64, seq: u64) {
        let i = self.slot(store_seq);
        self.store_waiters[i].push(seq);
    }

    /// Takes the loads gated on `store_seq` (empty when none); hand the
    /// buffer back through [`RingTables::recycle_store_waiters`] to reuse
    /// its allocation.
    fn take_store_waiters(&mut self, store_seq: u64) -> Vec<u64> {
        let i = self.slot(store_seq);
        std::mem::take(&mut self.store_waiters[i])
    }

    fn recycle_store_waiters(&mut self, store_seq: u64, mut buf: Vec<u64>) {
        let i = self.slot(store_seq);
        if self.store_waiters[i].capacity() == 0 {
            buf.clear();
            self.store_waiters[i] = buf;
        }
    }
}

/// The out-of-order core.
///
/// Generic over the trace iterator so synthetic generators, recorded
/// traces, and test vectors all drive the same model, and over the window
/// model. The default window parameter is a boxed trait object (any
/// [`WindowConfig`] at runtime); [`OutOfOrderCore::new_conventional`]
/// monomorphizes over [`ConventionalWindow`] instead, which devirtualizes
/// and inlines the per-cycle window probes — same generic code, same
/// cycle-for-cycle behaviour, cheaper hot loop. There is one set of
/// structures: ring-indexed wait tables, the indexed LSQ and ROB, and idle
/// cycles coalesced into clock jumps. Their correctness reference is the
/// golden ledger of recorded cell digests (`tests/golden/cells.txt`) and,
/// for the LSQ, a straight-line model in that module's tests.
#[derive(Debug)]
pub struct OutOfOrderCore<
    I: Iterator<Item = Instruction>,
    W: WindowModel = Box<dyn WindowModel + Send>,
> {
    cfg: CoreConfig,
    trace: I,
    now: u64,
    next_seq: u64,
    committed: u64,

    window: W,
    rob: ReorderBuffer,
    rename: RenameMap,
    lsq: LoadStoreQueue,
    fu: FuPool,
    hierarchy: Hierarchy,
    /// Fetch-stage branch resolution: live predictor+BTB (one core) or a
    /// shared [`FetchPlan`] replay (lanes of a batch).
    resolver: FetchResolver,
    /// Memoized [`WindowModel::next_visible_at`], valid until the next
    /// simulated cycle mutates the window (`None` = recompute). An idle
    /// stretch probes the window repeatedly without changing it; this keeps
    /// those probes O(1) instead of O(entries).
    next_visible_cache: std::cell::Cell<Option<u64>>,

    pending: VecDeque<Pending>,
    /// In-flight instruction metadata, ring-indexed by
    /// `seq % rob_capacity`. Dispatch and commit bracket the same lifetime
    /// as the ROB, whose entries hold a contiguous seq range, so slots
    /// cannot collide.
    inflight: Vec<Option<Inflight>>,
    /// Per physical register (flat, index = register number): value-ready
    /// cycle, producing cluster, and latency kind. [`ValueInfo::ABSENT`]
    /// marks registers with no tracked producer.
    value_ready: Vec<ValueInfo>,
    /// Bit per physical register: renamed as a destination but not yet
    /// issued (the value's ready time is still unknown).
    unissued: Vec<u64>,
    /// Consumers waiting on each physical register, flat-indexed by
    /// register number — the wakeup table. Inner vectors keep their
    /// allocation across wakes.
    reg_waiters: Vec<Vec<u64>>,
    /// The sequence-keyed wait tables: dispatch-time wait state
    /// (`consumer`), issue-wait attribution (kept unconditionally — cheap,
    /// and keeping it independent of observation guarantees observation
    /// cannot perturb the simulation), and store-forwarding waiters.
    tables: RingTables,

    fetch_halted: bool,
    fetch_resume_at: u64,
    /// End of the front-end refill after the latest mispredict redirect
    /// (observability: distinguishes recovery from ordinary fetch bubbles).
    recover_until: u64,
    /// The as-yet-undispatched branch that fetch is halted on.
    mispredicted_seq: Option<u64>,
    last_commit_cycle: u64,

    /// Issue-slot accounting; `None` keeps the hot path branch-cheap.
    observation: Option<Box<Observation>>,

    /// Length of the issue-wakeup recurrence in cycles (1 = dependents can
    /// go back-to-back).
    wakeup_loop: u64,
    /// Completion times of in-flight L1 misses (for the MSHR limit), as a
    /// min-heap on completion cycle.
    outstanding_misses: BinaryHeap<Reverse<u64>>,
    /// Reusable per-cycle buffer for the select stage's picks.
    selected_scratch: Vec<WindowEntry>,
    /// Reusable per-cycle buffer for the commit stage's retirements.
    committed_scratch: Vec<fo4depth_uarch::rob::RobEntry>,

    // Counters.
    branches: u64,
    mispredicts: u64,
    loads: u64,
}

impl<I: Iterator<Item = Instruction>> OutOfOrderCore<I> {
    /// Builds a core from a validated configuration and a trace.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CoreConfig::validate`].
    #[must_use]
    pub fn new(cfg: CoreConfig, trace: I) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid core config: {e}");
        }
        // The wakeup recurrence is applied by the core as
        // `max(result latency, wakeup)` — the tag broadcast of a multi-cycle
        // operation is pipelined ahead of its result, so a long wakeup loop
        // only delays consumers of operations *shorter* than the loop. The
        // window model itself therefore runs with single-cycle wakeup; the
        // segmented window's per-stage delay stacks on top (Figure 10).
        let (window, wakeup_loop): (Box<dyn WindowModel + Send>, u64) = match &cfg.window {
            WindowConfig::Conventional { capacity, wakeup } => {
                (Box::new(ConventionalWindow::new(*capacity, 1)), *wakeup)
            }
            WindowConfig::Segmented {
                capacity,
                stages,
                select,
            } => (
                Box::new(SegmentedWindow::new(*capacity, *stages, select.clone())),
                1,
            ),
            WindowConfig::Speculative {
                capacity,
                reschedule_penalty,
            } => (
                Box::new(SpeculativeWindow::new(*capacity, *reschedule_penalty)),
                1,
            ),
        };
        Self::with_window(cfg, trace, window, wakeup_loop)
    }
}

impl<I: Iterator<Item = Instruction>> OutOfOrderCore<I, ConventionalWindow> {
    /// Builds a core monomorphized over the conventional window — what the
    /// simulation drivers build for conventional configurations.
    /// Cycle-for-cycle identical to [`OutOfOrderCore::new`] on the same
    /// configuration; only the dispatch mechanism differs (static instead
    /// of virtual).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CoreConfig::validate`] or does
    /// not use [`WindowConfig::Conventional`].
    #[must_use]
    pub fn new_conventional(cfg: CoreConfig, trace: I) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid core config: {e}");
        }
        let WindowConfig::Conventional { capacity, wakeup } = &cfg.window else {
            panic!("new_conventional needs a conventional window config");
        };
        let (window, wakeup_loop) = (ConventionalWindow::new(*capacity, 1), *wakeup);
        Self::with_window(cfg, trace, window, wakeup_loop)
    }
}

impl<I: Iterator<Item = Instruction>, W: WindowModel> OutOfOrderCore<I, W> {
    fn with_window(cfg: CoreConfig, trace: I, window: W, wakeup_loop: u64) -> Self {
        let resolver = FetchResolver::live(&cfg);
        let tables = RingTables::with_capacity(cfg.rob_capacity);
        let phys = cfg.phys_regs as usize;
        Self {
            rob: ReorderBuffer::new(cfg.rob_capacity),
            rename: RenameMap::new(cfg.phys_regs),
            lsq: LoadStoreQueue::new(cfg.load_queue, cfg.store_queue),
            fu: FuPool::new(cfg.fu),
            hierarchy: Hierarchy::new(cfg.hierarchy),
            resolver,
            next_visible_cache: std::cell::Cell::new(None),
            window,
            wakeup_loop,
            outstanding_misses: BinaryHeap::new(),
            selected_scratch: Vec::new(),
            committed_scratch: Vec::new(),
            inflight: vec![None; cfg.rob_capacity],
            value_ready: vec![ValueInfo::ABSENT; phys],
            unissued: vec![0; phys.div_ceil(64)],
            reg_waiters: vec![Vec::new(); phys],
            cfg,
            trace,
            now: 0,
            next_seq: 0,
            committed: 0,
            pending: VecDeque::new(),
            tables,
            fetch_halted: false,
            fetch_resume_at: 0,
            recover_until: 0,
            mispredicted_seq: None,
            last_commit_cycle: 0,
            observation: None,
            branches: 0,
            mispredicts: 0,
            loads: 0,
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Replays `plan` instead of resolving branches through a live
    /// predictor+BTB. Batched lanes share one plan per (trace × geometry);
    /// results are bit-identical to the live path (the plan *is* the live
    /// stream, precomputed).
    ///
    /// # Panics
    ///
    /// Panics if fetch has already started or the plan was built under a
    /// different predictor/BTB geometry.
    pub fn use_fetch_plan(&mut self, plan: Arc<FetchPlan>) {
        assert_eq!(self.next_seq, 0, "fetch plan installed mid-run");
        assert!(
            plan.matches(&self.cfg),
            "fetch plan geometry does not match the core config"
        );
        self.resolver = FetchResolver::planned(plan);
    }

    /// Touches `addrs` through the data hierarchy before timing starts
    /// (workload pre-warming; the counters these touches generate land in
    /// the warm-up interval and are excluded by interval subtraction).
    pub fn prewarm<I2: IntoIterator<Item = u64>>(&mut self, addrs: I2) {
        for a in addrs {
            let _ = self.hierarchy.access(a);
        }
    }

    /// Replaces the data hierarchy's cache tag state and statistics with
    /// `warm`'s, keeping this core's clock-scaled latencies. The batched
    /// driver prewarms one template hierarchy per lane group and
    /// replicates it here — bit-identical to each lane replaying the
    /// prewarm sequence itself, since tag state only depends on the
    /// access order.
    pub fn adopt_warm_hierarchy(&mut self, warm: &Hierarchy) {
        self.hierarchy.adopt_state(warm);
    }

    /// Cumulative counters since construction.
    #[must_use]
    pub fn snapshot(&self) -> SimResult {
        SimResult {
            instructions: self.committed,
            cycles: self.now,
            branches: self.branches,
            mispredicts: self.mispredicts,
            l1: self.hierarchy.l1_stats(),
            l2: self.hierarchy.l2_stats(),
            forwards: self.lsq.forward_count(),
            loads: self.loads,
        }
    }

    /// Starts issue-slot accounting from the next cycle. Call after the
    /// warm-up interval so the counters cover exactly the measured run.
    /// Observation never changes simulated outcomes: all state it reads is
    /// maintained whether or not it is enabled.
    pub fn enable_counters(&mut self) {
        self.observation = Some(Box::new(Observation {
            counters: Counters::new(self.fu.budget().total),
            btb_base: self.resolver.btb_stats(),
        }));
    }

    /// Whether issue-slot accounting is active.
    #[must_use]
    pub fn counters_enabled(&self) -> bool {
        self.observation.is_some()
    }

    /// Stops accounting and returns the block (None if never enabled).
    pub fn take_counters(&mut self) -> Option<Counters> {
        self.observation.take().map(|mut o| {
            o.counters.btb = self.resolver.btb_stats().since(&o.btb_base);
            o.counters
        })
    }

    /// Runs until `instructions` more have committed; returns the counters
    /// for exactly that interval. Call once with a warm-up count and again
    /// with the measurement count to exclude cold-start effects.
    ///
    /// Stretches of cycles in which no stage can act are jumped in one
    /// step, with observation counters bulk-replayed, so the outcome is
    /// exactly that of stepping every cycle.
    ///
    /// # Panics
    ///
    /// Panics if the core stops committing for `DEADLOCK_LIMIT` cycles
    /// (a model bug) or the trace ends.
    pub fn run(&mut self, instructions: u64) -> SimResult {
        let start = self.snapshot();
        let target = self.committed + instructions;
        // The skip probe is only consulted after a cycle in which no stage
        // acted (or after a jump, whose conservative bound can land on
        // another idle cycle). Active cycles skip the probe entirely; since
        // idle stretches are preceded by an idle cycle and stepping one
        // idle cycle records exactly what the bulk replay would, the gate
        // changes cost, never outcomes.
        let mut probe = true;
        while self.committed < target {
            if probe {
                if let Some(t) = self.idle_skip_target() {
                    self.skip_idle_to(t);
                    continue;
                }
            }
            // A fully idle cycle leaves all four of these untouched; any
            // stage acting perturbs at least one (commit bumps `committed`,
            // fetch bumps `next_seq`, dispatch grows the ROB net of
            // commits, select shrinks the window net of dispatches).
            let committed0 = self.committed;
            let seq0 = self.next_seq;
            let rob0 = self.rob.len();
            let win0 = self.window.len();
            self.cycle();
            probe = self.committed == committed0
                && self.next_seq == seq0
                && self.rob.len() == rob0
                && self.window.len() == win0;
        }
        self.snapshot().since(&start)
    }

    /// If the cycle at `now` would be fully idle — no commit, no select, no
    /// dispatch, no fetch — returns the earliest future cycle at which any
    /// stage could act. The bound is conservative: jumping to it can land
    /// on another idle cycle (which is then skipped in turn), but can never
    /// land *past* an active one, so coalescing is invisible to outcomes.
    fn idle_skip_target(&self) -> Option<u64> {
        let now = self.now;
        // Commit: the ROB head completes at `head` (None = empty ROB).
        let head = self.rob.head_complete_at();
        if head.is_some_and(|c| c <= now) {
            return None;
        }
        // Dispatch: acts when the queue front has cleared the front end and
        // every resource has space.
        if let Some(front) = self.pending.front() {
            if front.avail_at <= now && self.dispatch_block_cause().is_none() {
                return None;
            }
        }
        // Fetch: acts when not halted, past any re-steer bubble, and the
        // queue has room.
        let queue_open =
            !self.fetch_halted && self.pending.len() < (self.cfg.fetch_width as usize) * 8;
        if queue_open && now >= self.fetch_resume_at {
            return None;
        }
        // Select: `u64::MAX` means no entry becomes visible without a
        // wakeup, and wakeups only happen on execute — impossible during an
        // idle stretch. A window model that cannot answer disables
        // coalescing entirely. Checked last: it is the only O(entries)
        // probe, and on active cycles one of the O(1) stages above almost
        // always answers first.
        // The memo is valid between simulated cycles: only `cycle` mutates
        // the window, and it clears the memo.
        let visible = match self.next_visible_cache.get() {
            Some(v) => v,
            None => {
                let v = self.window.next_visible_at()?;
                self.next_visible_cache.set(Some(v));
                v
            }
        };
        if visible <= now {
            return None;
        }
        // Fully idle at `now`: the stages wake, at the earliest, at the
        // minimum of their next event times. `recover_until` is not an
        // event by itself but flips the stall-cause classification, so end
        // the stretch there to keep bulk-recorded attribution constant.
        let mut t = head.unwrap_or(u64::MAX).min(visible);
        if let Some(front) = self.pending.front() {
            if front.avail_at > now {
                t = t.min(front.avail_at);
            }
        }
        if queue_open {
            t = t.min(self.fetch_resume_at);
        }
        if self.recover_until > now {
            t = t.min(self.recover_until);
        }
        (t != u64::MAX).then_some(t)
    }

    /// Jumps the clock to `target`, bulk-recording the skipped cycles'
    /// observation exactly as per-cycle stepping would have: the stall
    /// cause, occupancies, and any dispatch-blocked attribution are all
    /// constant across an idle stretch by construction.
    fn skip_idle_to(&mut self, target: u64) {
        debug_assert!(target > self.now);
        if self.observation.is_some() {
            let n = target - self.now;
            let stall = self.issue_stall_cause();
            let window = self.window.len();
            let rob = self.rob.len();
            let (loads, stores) = self.lsq.occupancy();
            let blocked = match self.pending.front() {
                Some(front) if front.avail_at <= self.now => self.dispatch_block_cause(),
                _ => None,
            };
            if let Some(o) = self.observation.as_deref_mut() {
                o.counters.window_occupancy.record_n(window, n);
                o.counters.rob_occupancy.record_n(rob, n);
                o.counters.lsq_occupancy.record_n(loads + stores, n);
                o.counters.record_cycles(0, Some(stall), n);
                match blocked {
                    Some(StallCause::RobFull) => o.counters.dispatch_blocked_rob += n,
                    Some(StallCause::WindowFull) => o.counters.dispatch_blocked_window += n,
                    Some(StallCause::LsqFull) => o.counters.dispatch_blocked_lsq += n,
                    Some(StallCause::RenameFull) => o.counters.dispatch_blocked_rename += n,
                    _ => {}
                }
            }
        }
        self.now = target;
        assert!(
            self.now - self.last_commit_cycle < DEADLOCK_LIMIT,
            "core wedged at cycle {}: rob={} window={} pending={} halted={}",
            self.now,
            self.rob.len(),
            self.window.len(),
            self.pending.len(),
            self.fetch_halted,
        );
    }

    /// The first resource dispatch would block on this cycle, in dispatch's
    /// own check order, or `None` when the queue front could be placed.
    fn dispatch_block_cause(&self) -> Option<StallCause> {
        let front = self.pending.front()?;
        if !self.rob.has_space() {
            return Some(StallCause::RobFull);
        }
        if !self.window.has_space() {
            return Some(StallCause::WindowFull);
        }
        let op = front.inst.op_class();
        if op.is_memory() {
            let ok = if op == OpClass::Load {
                self.lsq.has_load_space()
            } else {
                self.lsq.has_store_space()
            };
            if !ok {
                return Some(StallCause::LsqFull);
            }
        }
        if self.rename.free_count() == 0 {
            return Some(StallCause::RenameFull);
        }
        None
    }

    fn cycle(&mut self) {
        self.next_visible_cache.set(None);
        self.commit();
        self.issue();
        self.dispatch();
        self.fetch();
        self.now += 1;
        assert!(
            self.now - self.last_commit_cycle < DEADLOCK_LIMIT,
            "core wedged at cycle {}: rob={} window={} pending={} halted={}",
            self.now,
            self.rob.len(),
            self.window.len(),
            self.pending.len(),
            self.fetch_halted,
        );
    }

    // ---- commit --------------------------------------------------------

    fn commit(&mut self) {
        let mut done = std::mem::take(&mut self.committed_scratch);
        done.clear();
        self.rob
            .commit_ready_into(self.now, self.cfg.commit_width as usize, &mut done);
        if done.is_empty() {
            self.committed_scratch = done;
            return;
        }
        self.last_commit_cycle = self.now;
        let ring = self.inflight.len();
        for e in &done {
            if let Some(p) = e.free_on_commit {
                self.rename.free(p);
                self.value_ready[p as usize] = ValueInfo::ABSENT;
            }
            self.inflight[(e.seq as usize) % ring] = None;
            self.committed += 1;
        }
        let last = done.last().expect("nonempty").seq;
        self.lsq.retire_through(last);
        self.committed_scratch = done;
    }

    // ---- issue / execute ------------------------------------------------

    fn issue(&mut self) {
        let mut budget = self.fu.budget();
        let width = budget.total;
        if self.observation.is_some() {
            self.record_occupancy();
        }
        let mut selected = std::mem::take(&mut self.selected_scratch);
        selected.clear();
        self.window
            .select_into(self.now, &mut budget, &mut selected);
        if self.observation.is_some() {
            let issued = selected.len() as u32;
            // Classification reads post-select window state: leftover
            // visible-ready entries mean the lost slots were arbitration
            // losses, not dependency waits.
            let stall = (issued < width).then(|| self.issue_stall_cause());
            if let Some(o) = self.observation.as_deref_mut() {
                o.counters.record_cycle(issued, stall);
            }
        }
        for &entry in &selected {
            self.execute(entry);
        }
        self.selected_scratch = selected;
    }

    /// Informational cycle counter: dispatch hit a structural wall this
    /// cycle. Charged at most once per cycle per resource; distinct from the
    /// issue-slot attribution, which only blames the back-pressure once the
    /// window has drained.
    fn note_dispatch_block(&mut self, cause: StallCause) {
        if let Some(o) = self.observation.as_deref_mut() {
            match cause {
                StallCause::RobFull => o.counters.dispatch_blocked_rob += 1,
                StallCause::WindowFull => o.counters.dispatch_blocked_window += 1,
                StallCause::LsqFull => o.counters.dispatch_blocked_lsq += 1,
                StallCause::RenameFull => o.counters.dispatch_blocked_rename += 1,
                _ => {}
            }
        }
    }

    fn record_occupancy(&mut self) {
        let window = self.window.len();
        let rob = self.rob.len();
        let (loads, stores) = self.lsq.occupancy();
        if let Some(o) = self.observation.as_deref_mut() {
            let sink: &mut dyn Observer = &mut o.counters;
            sink.occupancy(Structure::Window, window);
            sink.occupancy(Structure::Rob, rob);
            sink.occupancy(Structure::Lsq, loads + stores);
        }
    }

    /// The dominant reason this cycle's issue stage left slots empty.
    /// Priority ladder: ready-but-unselected work (contention) beats
    /// dependency waits beats dispatch resource blocks beats front-end
    /// starvation — matching how a performance engineer reads a CPI stack
    /// inward from the issue stage.
    fn issue_stall_cause(&self) -> StallCause {
        if self.window.visible_ready(self.now) > 0 {
            return StallCause::FuContention;
        }
        if let Some(oldest) = self.window.oldest_waiting(self.now) {
            if oldest.ready_at <= self.now {
                // The value exists but the scheduler has not surfaced it:
                // multi-cycle wakeup, segmented staging, or a speculative
                // replay — all forms of the issue–wakeup loop.
                return StallCause::WakeupWait;
            }
            if let Some(state) = self.tables.consumer(oldest.seq) {
                return state.kind.map_or(StallCause::DepChain, ValueKind::stall);
            }
            return self
                .tables
                .issue_wait(oldest.seq)
                .map_or(StallCause::DepChain, ValueKind::stall);
        }
        // Window empty: the back end is starved. Blame dispatch resources
        // if dispatch has work it cannot place, else the front end.
        if let Some(front) = self.pending.front() {
            if front.avail_at <= self.now {
                if !self.rob.has_space() {
                    return StallCause::RobFull;
                }
                if !self.window.has_space() {
                    return StallCause::WindowFull;
                }
                let op = front.inst.op_class();
                if op.is_memory() {
                    let ok = if op == OpClass::Load {
                        self.lsq.has_load_space()
                    } else {
                        self.lsq.has_store_space()
                    };
                    if !ok {
                        return StallCause::LsqFull;
                    }
                }
                if self.rename.free_count() == 0 {
                    return StallCause::RenameFull;
                }
                // Dispatch will place it later this cycle; the issue stage
                // is one stage behind the refill (pipeline-fill bubble).
                return StallCause::FetchBubble;
            }
        }
        if self.fetch_halted || self.now < self.recover_until {
            return StallCause::MispredictRecovery;
        }
        StallCause::FetchBubble
    }

    fn execute(&mut self, entry: WindowEntry) {
        let seq = entry.seq;
        let info = self.inflight[(seq as usize) % self.inflight.len()]
            .expect("issued unknown instruction");
        let exec = self.cfg.exec.of(info.op).max(1);
        let now = self.now;
        self.tables.remove_issue_wait(seq);

        // Memory time on top of address generation. For loads, also note
        // which level of the hierarchy (or the forwarding path) served the
        // value — consumers stalled behind it are attributed to that level.
        let mut load_kind = ValueKind::LoadL1;
        let mem = match info.op {
            OpClass::Load => {
                self.loads += 1;
                match info.load_source.expect("load without source resolution") {
                    LoadSource::Forward { store_seq, .. } => {
                        // Re-query: the dispatch-time snapshot goes stale
                        // once the store executes. A retired store's data is
                        // architecturally visible (ready now). Data comes
                        // from the store queue one cycle after both the load
                        // has issued and the store data is up.
                        let data_ready = self.lsq.store_data_ready(store_seq).unwrap_or(now);
                        assert!(
                            data_ready != u64::MAX,
                            "load issued before forwarding store executed"
                        );
                        load_kind = ValueKind::StoreForward;
                        data_ready.saturating_sub(now) + 1
                    }
                    LoadSource::Cache => {
                        let addr = info.mem_addr.expect("load without address");
                        let latency = self.hierarchy.access(addr);
                        let h = &self.cfg.hierarchy;
                        load_kind = if latency <= h.l1_latency {
                            ValueKind::LoadL1
                        } else if latency <= h.l1_latency + h.l2_latency {
                            ValueKind::LoadL2
                        } else {
                            ValueKind::LoadMem
                        };
                        if latency > h.l1_latency {
                            // An L1 miss occupies a miss-status register
                            // until it completes; a full MSHR file delays
                            // the new miss until the earliest one retires.
                            self.mshr_delay(now, latency)
                        } else {
                            latency
                        }
                    }
                }
            }
            OpClass::Store => 0,
            _ => 0,
        };

        // Loads: the cache path (or forwarding path) *is* the load-use
        // latency — address generation is the first stage of the cache
        // pipeline, not an extra adder in front of it (§4.6's load-use loop
        // equals the DL1 access time).
        let op_latency = if info.op == OpClass::Load {
            mem
        } else {
            exec + mem
        };
        let value_ready = now + op_latency.max(self.wakeup_loop);
        let complete = now + self.cfg.depths.regread + op_latency;
        let kind = if info.op == OpClass::Load {
            load_kind
        } else if self.wakeup_loop > op_latency {
            // The wakeup recurrence, not the unit, bounds the consumer.
            ValueKind::Wakeup
        } else {
            ValueKind::Exec
        };

        if let Some(dest) = info.dest {
            self.unissued_clear(dest);
            self.value_ready[dest as usize] = ValueInfo {
                ready: value_ready,
                cluster: info.cluster,
                kind,
            };
            self.wake_reg(dest, value_ready, info.cluster, kind);
        }
        if info.op == OpClass::Store {
            let data_ready = now + exec;
            self.lsq.store_executed(seq, data_ready);
            // Store data forwards through the LSQ, not the bypass network:
            // no cluster adjustment.
            self.wake_store(seq, data_ready);
        }
        if info.mispredicted {
            // Fetch resumes after resolve plus the redirect penalty; the
            // front-end refill is charged naturally as new instructions
            // flow through the fetch/decode/rename depths.
            self.fetch_resume_at = complete + 1 + self.cfg.redirect_penalty;
            self.fetch_halted = false;
            self.recover_until = self.fetch_resume_at + self.cfg.depths.front_end();
        }
        self.rob.complete(seq, complete);
    }

    /// Effective latency of an L1 miss starting at `now`, accounting for
    /// MSHR occupancy (returns the raw latency when MSHRs are unbounded).
    fn mshr_delay(&mut self, now: u64, latency: u64) -> u64 {
        let limit = self.cfg.hierarchy.mshr_limit;
        if limit == 0 {
            return latency;
        }
        // Drop retired misses (completion at or before `now`); the heap min
        // makes this a peek/pop loop instead of a scan.
        while let Some(&Reverse(t)) = self.outstanding_misses.peek() {
            if t > now {
                break;
            }
            self.outstanding_misses.pop();
        }
        let begin = if self.outstanding_misses.len() >= limit {
            // Wait for the earliest outstanding miss to retire.
            let Reverse(earliest) = self.outstanding_misses.pop().expect("non-empty at limit");
            earliest.max(now)
        } else {
            now
        };
        let complete = begin + latency;
        self.outstanding_misses.push(Reverse(complete));
        complete - now
    }

    /// Wakes consumers of physical register `reg` (the wakeup-table
    /// broadcast). The waiter list keeps its allocation across wakes.
    fn wake_reg(&mut self, reg: u32, ready: u64, producer_cluster: u8, kind: ValueKind) {
        let mut waiting = std::mem::take(&mut self.reg_waiters[reg as usize]);
        if !waiting.is_empty() {
            self.process_waiters(&waiting, ready, producer_cluster, kind);
            waiting.clear();
        }
        self.reg_waiters[reg as usize] = waiting;
    }

    /// Wakes loads gated on a store's data. Store data forwards through the
    /// LSQ, not the bypass network, so it never pays the cross-cluster
    /// penalty (`producer_cluster = u8::MAX`).
    fn wake_store(&mut self, store_seq: u64, ready: u64) {
        let waiting = self.tables.take_store_waiters(store_seq);
        if waiting.is_empty() {
            return;
        }
        self.process_waiters(&waiting, ready, u8::MAX, ValueKind::StoreForward);
        self.tables.recycle_store_waiters(store_seq, waiting);
    }

    fn process_waiters(
        &mut self,
        waiting: &[u64],
        ready: u64,
        producer_cluster: u8,
        kind: ValueKind,
    ) {
        let penalty = self.cfg.cross_cluster_penalty;
        for &consumer in waiting {
            let Some(state) = self.tables.consumer_mut(consumer) else {
                continue;
            };
            let cross = penalty > 0
                && producer_cluster != u8::MAX
                && producer_cluster != (consumer % 2) as u8;
            let ready = if cross { ready + penalty } else { ready };
            if ready > state.acc {
                state.acc = ready;
                state.kind = Some(kind);
            }
            state.pending -= 1;
            if state.pending == 0 {
                let acc = state.acc;
                let blocking = state.kind;
                self.tables.remove_consumer(consumer);
                if let Some(k) = blocking {
                    self.tables.insert_issue_wait(consumer, k);
                }
                self.window.set_ready(consumer, acc);
            }
        }
    }

    // ---- unissued-register bitset ---------------------------------------

    #[inline]
    fn unissued_set(&mut self, reg: u32) {
        self.unissued[(reg / 64) as usize] |= 1u64 << (reg % 64);
    }

    #[inline]
    fn unissued_clear(&mut self, reg: u32) {
        self.unissued[(reg / 64) as usize] &= !(1u64 << (reg % 64));
    }

    #[inline]
    fn unissued_test(&self, reg: u32) -> bool {
        self.unissued[(reg / 64) as usize] & (1u64 << (reg % 64)) != 0
    }

    // ---- dispatch -------------------------------------------------------

    fn dispatch(&mut self) {
        for _ in 0..self.cfg.dispatch_width {
            let Some(front) = self.pending.front() else {
                return;
            };
            if front.avail_at > self.now {
                return;
            }
            if !self.rob.has_space() {
                self.note_dispatch_block(StallCause::RobFull);
                return;
            }
            if !self.window.has_space() {
                self.note_dispatch_block(StallCause::WindowFull);
                return;
            }
            let is_mem = front.inst.op_class().is_memory();
            if is_mem {
                let ok = match front.inst.op_class() {
                    OpClass::Load => self.lsq.has_load_space(),
                    _ => self.lsq.has_store_space(),
                };
                if !ok {
                    self.note_dispatch_block(StallCause::LsqFull);
                    return;
                }
            }
            if self.rename.free_count() == 0 {
                self.note_dispatch_block(StallCause::RenameFull);
                return;
            }
            let p = self.pending.pop_front().expect("checked front");
            self.dispatch_one(p);
        }
    }

    fn dispatch_one(&mut self, p: Pending) {
        let inst = p.inst;
        let seq = p.seq;
        let op = inst.op_class();

        let mut state = WaitState {
            pending: 0,
            acc: self.now,
            kind: None,
        };

        // Source operands through the rename map. This instruction's
        // cluster is its sequence parity (round-robin slotting).
        let my_cluster = (seq % 2) as u8;
        for src in inst.sources().into_iter().flatten() {
            let phys = self.rename.current(src);
            if self.unissued_test(phys) {
                // Producer not yet issued: subscribe to its wakeup.
                state.pending += 1;
                self.reg_waiters[phys as usize].push(seq);
            } else {
                let info = self.value_ready[phys as usize];
                let cross = self.cfg.cross_cluster_penalty > 0
                    && info.cluster != u8::MAX
                    && info.cluster != my_cluster;
                let t = if cross {
                    info.ready + self.cfg.cross_cluster_penalty
                } else {
                    info.ready
                };
                if t > state.acc {
                    state.acc = t;
                    state.kind = Some(info.kind);
                }
            }
        }

        // Memory ordering through the LSQ.
        let mut load_source = None;
        if op == OpClass::Load {
            let addr = inst.mem_addr.expect("load without address");
            self.lsq.insert_load(seq, addr).expect("load space checked");
            let src = self.lsq.load_source(seq, addr);
            if let LoadSource::Forward {
                store_seq,
                data_ready,
            } = src
            {
                if data_ready == u64::MAX {
                    // Store not executed yet: gate the load on it.
                    state.pending += 1;
                    self.tables.push_store_waiter(store_seq, seq);
                }
            }
            load_source = Some(src);
        } else if op == OpClass::Store {
            let addr = inst.mem_addr.expect("store without address");
            self.lsq
                .insert_store(seq, addr, u64::MAX)
                .expect("store space checked");
        }

        // Destination rename.
        let (dest, old) = match inst.dest {
            Some(d) => {
                let old = self.rename.current(d);
                let new = self.rename.rename_dest(d).expect("free register checked");
                self.unissued_set(new);
                (Some(new), Some(old))
            }
            None => (None, None),
        };

        self.rob.allocate(seq, old).expect("ROB space checked");
        let mispredicted = self.mispredicted_seq == Some(seq);
        if mispredicted {
            self.mispredicted_seq = None;
        }
        let slot = (seq as usize) % self.inflight.len();
        debug_assert!(self.inflight[slot].is_none(), "inflight ring collision");
        self.inflight[slot] = Some(Inflight {
            op,
            dest,
            mem_addr: inst.mem_addr,
            mispredicted,
            load_source,
            cluster: my_cluster,
        });

        let ready_at = if state.pending == 0 {
            if let Some(k) = state.kind {
                self.tables.insert_issue_wait(seq, k);
            }
            state.acc
        } else {
            self.tables.insert_consumer(seq, state);
            u64::MAX
        };
        self.window.insert(WindowEntry {
            seq,
            port: FuClass::for_op(op).port(),
            ready_at,
        });
    }

    // ---- fetch ----------------------------------------------------------

    fn fetch(&mut self) {
        if self.fetch_halted || self.now < self.fetch_resume_at {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            // Bound the fetch queue so a stalled back end applies pressure.
            if self.pending.len() >= (self.cfg.fetch_width as usize) * 8 {
                return;
            }
            let Some(inst) = self.trace.next() else {
                panic!("trace ended; synthetic traces are infinite");
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            let avail_at = self.now + self.cfg.depths.front_end();
            let mut end_group = false;

            if let Some(branch) = inst.branch {
                self.branches += 1;
                let misp = self.resolver.resolve(seq, &inst);
                if misp {
                    self.mispredicts += 1;
                    self.mispredicted_seq = Some(seq);
                    self.fetch_halted = true;
                    end_group = true;
                } else if branch.taken {
                    // Correctly predicted taken: the fetch group ends and
                    // the front end pays the re-steer bubble.
                    end_group = true;
                    // The next fetch slot is now+1; the bubble costs
                    // `taken_bubble` further cycles.
                    self.fetch_resume_at = self
                        .fetch_resume_at
                        .max(self.now + 1 + self.cfg.taken_bubble);
                }
            }

            self.pending.push_back(Pending {
                inst,
                seq,
                avail_at,
            });
            if end_group {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoreConfig, PipelineDepths, WindowConfig};
    use fo4depth_isa::{ArchReg, Opcode};
    use fo4depth_workload::{profiles, TraceGenerator};

    fn run_bench(name: &str, n: u64) -> SimResult {
        let p = profiles::by_name(name).unwrap();
        let mut core = OutOfOrderCore::new(CoreConfig::alpha_like(), TraceGenerator::new(p, 1));
        core.run(5_000); // warm-up
        core.run(n)
    }

    #[test]
    fn alpha_config_reaches_reasonable_int_ipc() {
        let r = run_bench("164.gzip", 30_000);
        let ipc = r.ipc();
        assert!((0.6..3.0).contains(&ipc), "gzip IPC {ipc}");
    }

    #[test]
    fn vector_code_has_higher_ipc_than_integer() {
        let int = run_bench("181.mcf", 30_000).ipc();
        let vec = run_bench("171.swim", 30_000).ipc();
        assert!(vec > int, "swim {vec} should beat mcf {int}");
    }

    #[test]
    fn branch_mispredict_rate_in_plausible_band() {
        // Longer warm-up than the default harness: gcc's 2 K static branch
        // sites take a while to train out of compulsory BTB misses.
        let p = profiles::by_name("176.gcc").unwrap();
        let mut core = OutOfOrderCore::new(CoreConfig::alpha_like(), TraceGenerator::new(p, 1));
        core.run(60_000);
        let r = core.run(60_000);
        let rate = r.mispredict_rate();
        assert!((0.01..0.22).contains(&rate), "gcc mispredict rate {rate}");
    }

    #[test]
    fn mcf_misses_more_than_gzip() {
        let mcf = run_bench("181.mcf", 30_000);
        let gzip = run_bench("164.gzip", 30_000);
        assert!(mcf.l1.miss_rate() > gzip.l1.miss_rate());
    }

    #[test]
    fn deeper_front_end_lowers_ipc() {
        let p = profiles::by_name("176.gcc").unwrap();
        let mut cfg = CoreConfig::alpha_like();
        let base = {
            let mut c = OutOfOrderCore::new(cfg.clone(), TraceGenerator::new(p.clone(), 1));
            c.run(5_000);
            c.run(20_000).ipc()
        };
        cfg.depths = PipelineDepths {
            fetch: 8,
            decode: 4,
            rename: 4,
            issue: 4,
            regread: 2,
        };
        let deep = {
            let mut c = OutOfOrderCore::new(cfg, TraceGenerator::new(p, 1));
            c.run(5_000);
            c.run(20_000).ipc()
        };
        assert!(deep < base, "deep {deep} should be below base {base}");
    }

    #[test]
    fn longer_wakeup_loop_lowers_ipc() {
        let p = profiles::by_name("164.gzip").unwrap();
        let ipc_at = |wakeup: u64| {
            let mut cfg = CoreConfig::alpha_like();
            cfg.window = WindowConfig::Conventional {
                capacity: 32,
                wakeup,
            };
            let mut c = OutOfOrderCore::new(cfg, TraceGenerator::new(p.clone(), 1));
            c.run(5_000);
            c.run(20_000).ipc()
        };
        // Under the max(exec, wakeup) recurrence, only consumers of
        // operations shorter than the loop are delayed, so the loss on an
        // ALU/load mix is moderate but must be clearly present.
        let w1 = ipc_at(1);
        let w4 = ipc_at(4);
        assert!(w4 < w1 * 0.96, "wakeup 4 {w4} vs wakeup 1 {w1}");
    }

    #[test]
    fn segmented_window_close_to_conventional_at_shallow_depth() {
        let p = profiles::by_name("164.gzip").unwrap();
        let ipc_with = |window: WindowConfig| {
            let mut cfg = CoreConfig::alpha_like();
            cfg.window = window;
            let mut c = OutOfOrderCore::new(cfg, TraceGenerator::new(p.clone(), 1));
            c.run(5_000);
            c.run(20_000).ipc()
        };
        let conv = ipc_with(WindowConfig::Conventional {
            capacity: 32,
            wakeup: 1,
        });
        let seg2 = ipc_with(WindowConfig::Segmented {
            capacity: 32,
            stages: 2,
            select: fo4depth_uarch::segmented::SelectMode::Ideal,
        });
        assert!(
            seg2 > conv * 0.93,
            "2-stage segmented {seg2} too far below conventional {conv}"
        );
        assert!(seg2 <= conv * 1.02);
    }

    #[test]
    fn cross_cluster_penalty_costs_ipc() {
        let p = profiles::by_name("164.gzip").unwrap();
        let ipc_with = |penalty: u64| {
            let mut cfg = CoreConfig::alpha_like();
            cfg.cross_cluster_penalty = penalty;
            let mut c = OutOfOrderCore::new(cfg, TraceGenerator::new(p.clone(), 1));
            c.run(5_000);
            c.run(20_000).ipc()
        };
        let unified = ipc_with(0);
        let clustered = ipc_with(1);
        assert!(
            clustered < unified,
            "clustering must cost: {clustered} vs {unified}"
        );
        // The 21264 lived with this penalty: the loss is percent-scale.
        assert!(
            clustered > unified * 0.80,
            "loss too large: {clustered} vs {unified}"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_bench("175.vpr", 10_000);
        let b = run_bench("175.vpr", 10_000);
        assert_eq!(a, b);
    }

    #[test]
    fn store_load_forwarding_happens() {
        let r = run_bench("164.gzip", 30_000);
        assert!(r.forwards > 0, "no store-to-load forwards observed");
    }

    #[test]
    fn hand_built_dependent_chain_serializes() {
        // A chain of dependent adds can never exceed IPC 1.
        let chain = (0..).map(|i| {
            Instruction::alu(
                Opcode::Addq,
                ArchReg::int(1),
                ArchReg::int(1),
                ArchReg::int(1),
            )
            .at_pc(0x1000 + i * 4)
        });
        let mut core = OutOfOrderCore::new(CoreConfig::alpha_like(), chain);
        core.run(1_000);
        let r = core.run(5_000);
        let ipc = r.ipc();
        assert!(ipc <= 1.05, "dependent chain IPC {ipc} > 1");
        assert!(ipc > 0.8, "dependent chain IPC {ipc} unexpectedly low");
    }

    #[test]
    fn independent_stream_saturates_width() {
        // Fully independent ALU ops should approach the 4-wide int limit.
        let stream = (0..).map(|i: u64| {
            let r = (i % 20) as u8;
            Instruction::alu(
                Opcode::Addq,
                ArchReg::int(30),
                ArchReg::int(31),
                ArchReg::int(r),
            )
            .at_pc(0x1000 + i * 4)
        });
        let mut core = OutOfOrderCore::new(CoreConfig::alpha_like(), stream);
        core.run(1_000);
        let ipc = core.run(10_000).ipc();
        assert!(ipc > 3.0, "independent stream IPC {ipc} below width");
    }
}
