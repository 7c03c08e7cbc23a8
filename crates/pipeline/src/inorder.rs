//! The in-order-issue core — the §4.1 machine.
//!
//! Seven stages (fetch, decode, issue, register read, execute, write back,
//! commit), issuing up to four instructions per cycle *in program order*:
//! the head of the issue queue blocks everything younger until its sources
//! are ready and a unit is free. Results bypass fully, branches resolve in
//! execute, and a misprediction halts fetch until resolution — the same
//! loop structure as the out-of-order core, minus dynamic scheduling.
//!
//! Two deliberate simplifications relative to the OoO model (both noted in
//! DESIGN.md): no store-to-load forwarding (loads always see the cache) and
//! no rename/ROB resource limits (the paper's 512-entry register files make
//! register pressure a non-factor, and in-order issue bounds in-flight
//! state by the queue depth anyway).

use std::collections::VecDeque;

use fo4depth_isa::{Instruction, OpClass};
use fo4depth_uarch::branch::BtbStats;
use fo4depth_uarch::cache::Hierarchy;
use fo4depth_uarch::fu::{FuClass, FuPool};
use fo4depth_uarch::observe::{Observer, Structure};

use crate::batch::FetchResolver;
use crate::config::CoreConfig;
use crate::counters::{Counters, StallCause, ValueKind};
use crate::result::SimResult;

/// Cycles without an issue after which the core declares itself wedged.
const DEADLOCK_LIMIT: u64 = 200_000;

/// Slots in the in-flight value ring (a power of two). A producer's entry
/// is evicted when the instruction 4096 sequence numbers later executes —
/// at 4-wide in-order issue that is ≥ 1024 cycles after the producer
/// issued, far beyond any execution or memory latency, so an evicted
/// entry's value has always long materialized and eviction is
/// indistinguishable from the "ready at cycle 0" reading absent entries
/// get (a debug assertion enforces this).
const VALUE_RING: usize = 4096;

/// Tag marking an empty value-ring slot (sequence numbers are far below
/// `u64::MAX` in any feasible run).
const NO_TAG: u64 = u64::MAX;

#[derive(Debug)]
struct Queued {
    inst: Instruction,
    seq: u64,
    avail_at: u64,
    /// Sequence numbers of the producing instructions of each source.
    producers: [Option<u64>; 2],
    mispredicted: bool,
}

/// Observation state, boxed so the unobserved hot path carries one pointer.
#[derive(Debug)]
struct Observation {
    counters: Counters,
    btb_base: BtbStats,
}

/// The in-order core.
#[derive(Debug)]
pub struct InOrderCore<I: Iterator<Item = Instruction>> {
    cfg: CoreConfig,
    trace: I,
    now: u64,
    next_seq: u64,
    issued_count: u64,

    queue: VecDeque<Queued>,
    queue_capacity: usize,
    /// Last writer (sequence number) of each architectural register, as
    /// seen by fetch (program order).
    last_writer: [Option<u64>; 64],
    /// Value-ready cycle (and producer classification, for stall
    /// attribution) of issued producers still in flight: a tag-checked
    /// ring indexed by `seq % VALUE_RING`, replacing a hash map on the
    /// per-issue critical path. A tag mismatch reads as "ready at 0",
    /// exactly like the pruned/absent case.
    value_tags: Box<[u64]>,
    value_ready_at: Box<[u64]>,
    value_kinds: Box<[ValueKind]>,

    fu: FuPool,
    hierarchy: Hierarchy,
    /// Fetch-stage branch resolution (live predictor+BTB).
    resolver: FetchResolver,

    fetch_halted: bool,
    fetch_resume_at: u64,
    /// Cycle through which empty-queue cycles are mispredict-recovery refill
    /// rather than ordinary fetch bubbles (resume + front-end depth).
    recover_until: u64,
    last_issue_cycle: u64,

    branches: u64,
    mispredicts: u64,
    loads: u64,

    observation: Option<Box<Observation>>,
}

impl<I: Iterator<Item = Instruction>> InOrderCore<I> {
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
        let resolver = FetchResolver::live(&cfg);
        Self {
            fu: FuPool::new(cfg.fu),
            hierarchy: Hierarchy::new(cfg.hierarchy),
            resolver,
            queue_capacity: 32,
            cfg,
            trace,
            now: 0,
            next_seq: 0,
            issued_count: 0,
            queue: VecDeque::with_capacity(32),
            last_writer: [None; 64],
            value_tags: vec![NO_TAG; VALUE_RING].into_boxed_slice(),
            value_ready_at: vec![0; VALUE_RING].into_boxed_slice(),
            value_kinds: vec![ValueKind::Exec; VALUE_RING].into_boxed_slice(),
            fetch_halted: false,
            fetch_resume_at: 0,
            recover_until: 0,
            last_issue_cycle: 0,
            branches: 0,
            mispredicts: 0,
            loads: 0,
            observation: None,
        }
    }

    /// Starts per-cycle counter collection. Observation is read-only with
    /// respect to the simulation: enabling it never changes timing.
    pub fn enable_counters(&mut self) {
        let width = self.cfg.dispatch_width.min(self.fu.budget().total);
        self.observation = Some(Box::new(Observation {
            counters: Counters::new(width),
            btb_base: self.resolver.btb_stats(),
        }));
    }

    /// Whether counters are being collected.
    #[must_use]
    pub fn counters_enabled(&self) -> bool {
        self.observation.is_some()
    }

    /// Stops collection and returns the counters accumulated since
    /// [`enable_counters`](Self::enable_counters), or `None` if observation
    /// was never enabled.
    pub fn take_counters(&mut self) -> Option<Counters> {
        self.observation.take().map(|o| {
            let mut c = o.counters;
            c.btb = self.resolver.btb_stats().since(&o.btb_base);
            c
        })
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// The in-flight entry for producer `seq`, if it is still live in the
    /// ring. `None` means the value is (or behaves as) long materialized.
    #[inline]
    fn value_entry(&self, seq: u64) -> Option<(u64, ValueKind)> {
        let slot = (seq as usize) & (VALUE_RING - 1);
        (self.value_tags[slot] == seq).then(|| (self.value_ready_at[slot], self.value_kinds[slot]))
    }

    /// Touches `addrs` through the data hierarchy before timing starts
    /// (workload pre-warming; the counters these touches generate land in
    /// the warm-up interval and are excluded by interval subtraction).
    pub fn prewarm<I2: IntoIterator<Item = u64>>(&mut self, addrs: I2) {
        for a in addrs {
            let _ = self.hierarchy.access(a);
        }
    }

    /// Cumulative counters since construction.
    #[must_use]
    pub fn snapshot(&self) -> SimResult {
        SimResult {
            instructions: self.issued_count,
            cycles: self.now,
            branches: self.branches,
            mispredicts: self.mispredicts,
            l1: self.hierarchy.l1_stats(),
            l2: self.hierarchy.l2_stats(),
            forwards: 0,
            loads: self.loads,
        }
    }

    /// Runs until `instructions` more have issued (≡ committed, as issue is
    /// in program order); returns the counters for that interval. Provably
    /// idle stretches are jumped in one step with their observation
    /// bulk-recorded, exactly as stepping every cycle would record it.
    ///
    /// # Panics
    ///
    /// Panics if the core stops issuing for `DEADLOCK_LIMIT` cycles or
    /// the trace ends.
    pub fn run(&mut self, instructions: u64) -> SimResult {
        let start = self.snapshot();
        let target = self.issued_count + instructions;
        while self.issued_count < target {
            if let Some(t) = self.idle_skip_target() {
                self.skip_idle_to(t);
            } else {
                self.cycle();
            }
        }
        self.snapshot().since(&start)
    }

    /// If the cycle at `now` would be fully idle — no issue, no fetch —
    /// returns the earliest future cycle at which either stage could act.
    /// Conservative: the jump may land on another idle cycle (skipped in
    /// turn), never past an active one.
    fn idle_skip_target(&self) -> Option<u64> {
        let now = self.now;
        let mut t = u64::MAX;
        if let Some(head) = self.queue.front() {
            if head.avail_at <= now {
                // Ready head ⇒ issue acts (the budget's first take cannot
                // fail on a validated config without wedging the core
                // anyway; treat it as active to stay conservative).
                let ready_at = head
                    .producers
                    .iter()
                    .flatten()
                    .filter_map(|&p| self.value_entry(p))
                    .map(|(t, _)| t)
                    .max()
                    .unwrap_or(0);
                if ready_at <= now {
                    return None;
                }
                t = t.min(ready_at);
            } else {
                t = t.min(head.avail_at);
            }
        }
        let queue_open = !self.fetch_halted && self.queue.len() < self.queue_capacity;
        if queue_open {
            if now >= self.fetch_resume_at {
                return None;
            }
            t = t.min(self.fetch_resume_at);
        }
        // `recover_until` only flips the stall-cause classification; end
        // the stretch there so bulk-recorded attribution stays constant.
        if self.recover_until > now {
            t = t.min(self.recover_until);
        }
        (t != u64::MAX).then_some(t)
    }

    /// Jumps the clock to `target`, bulk-recording the skipped cycles'
    /// observation exactly as per-cycle stepping would have (both the queue
    /// occupancy and the stall cause are constant across an idle stretch).
    fn skip_idle_to(&mut self, target: u64) {
        debug_assert!(target > self.now);
        if self.observation.is_some() {
            let n = target - self.now;
            let occ = self.queue.len();
            let stall = match self.queue.front() {
                Some(head) if head.avail_at <= self.now => self.head_wait_cause(),
                _ => self.frontend_cause(),
            };
            if let Some(o) = self.observation.as_deref_mut() {
                o.counters.window_occupancy.record_n(occ, n);
                o.counters.record_cycles(0, Some(stall), n);
            }
        }
        self.now = target;
        assert!(
            self.now - self.last_issue_cycle < DEADLOCK_LIMIT,
            "in-order core wedged at cycle {} (queue={})",
            self.now,
            self.queue.len()
        );
    }

    fn cycle(&mut self) {
        self.issue();
        self.fetch();
        self.now += 1;
        assert!(
            self.now - self.last_issue_cycle < DEADLOCK_LIMIT,
            "in-order core wedged at cycle {} (queue={})",
            self.now,
            self.queue.len()
        );
    }

    fn issue(&mut self) {
        let mut budget = self.fu.budget();
        // The paper's in-order machine is 4-wide at the issue stage.
        let width = self.cfg.dispatch_width.min(budget.total);
        let observing = self.observation.is_some();
        if observing {
            let occ = self.queue.len();
            if let Some(o) = self.observation.as_deref_mut() {
                let sink: &mut dyn Observer = &mut o.counters;
                sink.occupancy(Structure::Window, occ);
            }
        }
        let mut issued: u32 = 0;
        let mut stall = None;
        while issued < width {
            let Some(head) = self.queue.front() else {
                if observing {
                    stall = Some(self.frontend_cause());
                }
                break;
            };
            if head.avail_at > self.now {
                if observing {
                    stall = Some(self.frontend_cause());
                }
                break;
            }
            // Source readiness: all producers issued (they are older, so in
            // order they must have) with values materialized.
            let ready = head
                .producers
                .iter()
                .flatten()
                .all(|&p| self.value_entry(p).map_or(0, |(t, _)| t) <= self.now);
            if !ready {
                // Head-of-line blocking: nothing younger may pass. Charge
                // the slots to whatever made the binding producer slow.
                if observing {
                    stall = Some(self.head_wait_cause());
                }
                break;
            }
            let port = FuClass::for_op(head.inst.op_class()).port();
            if !budget.take(port) {
                if observing {
                    stall = Some(StallCause::FuContention);
                }
                break; // structural stall
            }
            let q = self.queue.pop_front().expect("checked front");
            self.execute(q);
            issued += 1;
        }
        if let Some(o) = self.observation.as_deref_mut() {
            o.counters.record_cycle(issued, stall);
        }
    }

    /// Why the issue stage sees no available instruction this cycle.
    fn frontend_cause(&self) -> StallCause {
        if self.fetch_halted || self.now < self.recover_until {
            StallCause::MispredictRecovery
        } else {
            StallCause::FetchBubble
        }
    }

    /// The stall class of the producer that gates the queue head: among its
    /// still-pending sources, the one whose value materializes last.
    fn head_wait_cause(&self) -> StallCause {
        let head = self.queue.front().expect("caller checked head");
        head.producers
            .iter()
            .flatten()
            .filter_map(|&p| self.value_entry(p))
            .filter(|&(t, _)| t > self.now)
            .max_by_key(|&(t, _)| t)
            .map_or(StallCause::DepChain, |(_, k)| k.stall())
    }

    fn execute(&mut self, q: Queued) {
        let op = q.inst.op_class();
        let exec = self.cfg.exec.of(op).max(1);
        let mem = match op {
            OpClass::Load => {
                self.loads += 1;
                self.hierarchy
                    .access(q.inst.mem_addr.expect("load address"))
            }
            OpClass::Store => {
                // Train the hierarchy; the store buffer hides the latency.
                let _ = self
                    .hierarchy
                    .access(q.inst.mem_addr.expect("store address"));
                0
            }
            _ => 0,
        };
        // Loads: the cache path is the whole load-use latency (§4.6).
        let value_ready = if op == OpClass::Load {
            self.now + mem
        } else {
            self.now + exec + mem
        };
        if q.inst.dest.is_some() {
            // Classify the producer for stall attribution: loads by the
            // hierarchy level that served them, everything else by its unit.
            let h = &self.cfg.hierarchy;
            let kind = if op == OpClass::Load {
                if mem <= h.l1_latency {
                    ValueKind::LoadL1
                } else if mem <= h.l1_latency + h.l2_latency {
                    ValueKind::LoadL2
                } else {
                    ValueKind::LoadMem
                }
            } else {
                ValueKind::Exec
            };
            let slot = (q.seq as usize) & (VALUE_RING - 1);
            debug_assert!(
                self.value_tags[slot] == NO_TAG || self.value_ready_at[slot] <= self.now,
                "value ring evicted a still-pending producer"
            );
            self.value_tags[slot] = q.seq;
            self.value_ready_at[slot] = value_ready;
            self.value_kinds[slot] = kind;
        }
        if q.mispredicted {
            let resolve = self.now + self.cfg.depths.regread + exec;
            self.fetch_resume_at = resolve + 1 + self.cfg.redirect_penalty;
            self.fetch_halted = false;
            self.recover_until = self.fetch_resume_at + self.cfg.depths.front_end();
        }
        self.issued_count += 1;
        self.last_issue_cycle = self.now;
    }

    fn fetch(&mut self) {
        if self.fetch_halted || self.now < self.fetch_resume_at {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if self.queue.len() >= self.queue_capacity {
                return;
            }
            let Some(inst) = self.trace.next() else {
                panic!("trace ended; synthetic traces are infinite");
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            // Producers resolved in fetch (program) order.
            let mut producers = [None, None];
            for (slot, src) in inst.sources().into_iter().enumerate() {
                if let Some(r) = src {
                    producers[slot] = self.last_writer[r.flat_index()];
                }
            }
            if let Some(d) = inst.dest {
                self.last_writer[d.flat_index()] = Some(seq);
            }

            let mut mispredicted = false;
            let mut end_group = false;
            if let Some(branch) = inst.branch {
                self.branches += 1;
                let misp = self.resolver.resolve(seq, &inst);
                if misp {
                    self.mispredicts += 1;
                    mispredicted = true;
                    self.fetch_halted = true;
                    end_group = true;
                } else if branch.taken {
                    end_group = true;
                    self.fetch_resume_at = self
                        .fetch_resume_at
                        .max(self.now + 1 + self.cfg.taken_bubble);
                }
            }

            self.queue.push_back(Queued {
                avail_at: self.now + self.cfg.depths.front_end(),
                inst,
                seq,
                producers,
                mispredicted,
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
    use fo4depth_isa::{ArchReg, Opcode};
    use fo4depth_workload::{profiles, TraceGenerator};

    fn run_bench(name: &str, n: u64) -> SimResult {
        let p = profiles::by_name(name).unwrap();
        let mut core = InOrderCore::new(CoreConfig::alpha_like(), TraceGenerator::new(p, 1));
        core.run(5_000);
        core.run(n)
    }

    #[test]
    fn inorder_ipc_below_out_of_order() {
        let p = profiles::by_name("164.gzip").unwrap();
        let mut ino = InOrderCore::new(CoreConfig::alpha_like(), TraceGenerator::new(p.clone(), 1));
        ino.run(5_000);
        let in_ipc = ino.run(20_000).ipc();
        let mut ooo =
            crate::ooo::OutOfOrderCore::new(CoreConfig::alpha_like(), TraceGenerator::new(p, 1));
        ooo.run(5_000);
        let oo_ipc = ooo.run(20_000).ipc();
        assert!(
            in_ipc < oo_ipc,
            "in-order {in_ipc} should be below OoO {oo_ipc}"
        );
    }

    #[test]
    fn vector_code_still_beats_integer_in_order() {
        let int = run_bench("197.parser", 20_000).ipc();
        let vec = run_bench("171.swim", 20_000).ipc();
        assert!(vec > int, "swim {vec} vs parser {int}");
    }

    #[test]
    fn dependent_chain_paced_by_latency() {
        // Each instruction depends on the previous through r1: IPC ≈ 1.
        let chain = (0..).map(|i| {
            Instruction::alu(
                Opcode::Addq,
                ArchReg::int(1),
                ArchReg::int(2),
                ArchReg::int(1),
            )
            .at_pc(0x1000 + i * 4)
        });
        let mut core = InOrderCore::new(CoreConfig::alpha_like(), chain);
        core.run(500);
        let ipc = core.run(3_000).ipc();
        assert!((0.8..=1.05).contains(&ipc), "chain IPC {ipc}");
    }

    #[test]
    fn head_of_line_blocking_limits_independent_work() {
        // One long-latency multiply at the head blocks independent adds in
        // an in-order machine; interleaved mult/add streams stay well below
        // the 4-wide limit.
        let stream = (0..).map(|i: u64| {
            if i.is_multiple_of(4) {
                Instruction::alu(
                    Opcode::Mulq,
                    ArchReg::int(1),
                    ArchReg::int(2),
                    ArchReg::int(1),
                )
            } else {
                Instruction::alu(
                    Opcode::Addq,
                    ArchReg::int(8),
                    ArchReg::int(9),
                    ArchReg::int((10 + i % 8) as u8),
                )
            }
            .at_pc(0x1000 + i * 4)
        });
        let mut core = InOrderCore::new(CoreConfig::alpha_like(), stream);
        core.run(500);
        let ipc = core.run(3_000).ipc();
        assert!(ipc < 2.5, "head-of-line blocking should cap IPC, got {ipc}");
    }

    #[test]
    fn deterministic_runs() {
        let a = run_bench("300.twolf", 10_000);
        let b = run_bench("300.twolf", 10_000);
        assert_eq!(a, b);
    }
}
