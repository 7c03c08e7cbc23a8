//! Issue-slot accounting and stall attribution — the observability layer.
//!
//! Both cores drive a [`Counters`] block when observation is enabled. The
//! accounting is *slot-exact*: each cycle offers `width` issue slots, and
//! every slot is either useful (an instruction issued in it) or charged to
//! exactly one [`StallCause`], the dominant reason the issue stage could
//! not fill it that cycle. The invariant
//!
//! ```text
//! cycles × width == useful_slots + Σ stall_slots[cause]
//! ```
//!
//! holds as integer arithmetic, so a CPI stack built from the block sums
//! to the measured CPI exactly — no "other" bucket, no residue.
//!
//! The causes map onto the paper's critical loops (§3.3): `WakeupWait` is
//! the issue–wakeup loop, `LoadUseWait` the load-use loop (DL1 hit path),
//! `MispredictRecovery` the branch misprediction loop; the cache-miss and
//! resource causes cover the non-loop stall sources the paper's IPC curves
//! integrate over.
//!
//! Attribution is *read-only*: the cores maintain the auxiliary state it
//! needs (producer value kinds) unconditionally, and the per-cycle
//! classification only inspects machine state. Enabling observation can
//! therefore never change a simulated outcome — a property the test suite
//! pins bit-exactly.

use fo4depth_uarch::observe::{Observer, OccupancyHist, Structure};
use fo4depth_uarch::BtbStats;

/// Why an issue slot went unused: the dominant cause, one per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// Nothing to issue and the front end is filling (instruction supply:
    /// fetch-width limits, taken-branch bubbles, pipeline refill).
    FetchBubble,
    /// Nothing to issue because fetch is halted on, or refilling after, a
    /// mispredicted branch — the branch-misprediction loop.
    MispredictRecovery,
    /// Dispatch blocked on a full issue window.
    WindowFull,
    /// Dispatch blocked on a full reorder buffer.
    RobFull,
    /// Dispatch blocked on a full load/store queue.
    LsqFull,
    /// Dispatch blocked with no free physical register.
    RenameFull,
    /// The oldest waiting instruction's value is ready but the scheduler
    /// has not surfaced it — the issue–wakeup loop (multi-cycle wakeup,
    /// segmented-window staging, or a speculative-scheduler replay).
    WakeupWait,
    /// Waiting on a producer whose latency is the wakeup recurrence itself
    /// (a short operation stretched by the wakeup loop).
    WakeupChain,
    /// Waiting on a load that hit the DL1 — the load-use loop.
    LoadUseWait,
    /// Waiting on a load that missed the DL1 and hit the L2.
    DcacheMiss,
    /// Waiting on a load that missed the L2 (memory access).
    L2Miss,
    /// Waiting on store data through the forwarding path.
    StoreForward,
    /// Ready instructions lost the issue-bandwidth/port arbitration.
    FuContention,
    /// Waiting on a multi-cycle execution unit (non-load, non-wakeup).
    ExecWait,
    /// Waiting on producers that have not issued themselves (a dependency
    /// chain still queued behind other causes).
    DepChain,
}

impl StallCause {
    /// Number of causes (the `stall_slots` array length).
    pub const COUNT: usize = 15;

    /// All causes, in `stall_slots` index order.
    pub const ALL: [StallCause; StallCause::COUNT] = [
        StallCause::FetchBubble,
        StallCause::MispredictRecovery,
        StallCause::WindowFull,
        StallCause::RobFull,
        StallCause::LsqFull,
        StallCause::RenameFull,
        StallCause::WakeupWait,
        StallCause::WakeupChain,
        StallCause::LoadUseWait,
        StallCause::DcacheMiss,
        StallCause::L2Miss,
        StallCause::StoreForward,
        StallCause::FuContention,
        StallCause::ExecWait,
        StallCause::DepChain,
    ];

    /// Stable machine-readable name (used as the JSON key).
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            StallCause::FetchBubble => "fetch_bubble",
            StallCause::MispredictRecovery => "mispredict_recovery",
            StallCause::WindowFull => "window_full",
            StallCause::RobFull => "rob_full",
            StallCause::LsqFull => "lsq_full",
            StallCause::RenameFull => "rename_full",
            StallCause::WakeupWait => "wakeup_wait",
            StallCause::WakeupChain => "wakeup_chain",
            StallCause::LoadUseWait => "load_use_wait",
            StallCause::DcacheMiss => "dcache_miss",
            StallCause::L2Miss => "l2_miss",
            StallCause::StoreForward => "store_forward",
            StallCause::FuContention => "fu_contention",
            StallCause::ExecWait => "exec_wait",
            StallCause::DepChain => "dep_chain",
        }
    }

    /// Index into [`Counters::stall_slots`].
    #[must_use]
    pub fn index(self) -> usize {
        StallCause::ALL
            .iter()
            .position(|&c| c == self)
            .expect("cause in ALL")
    }
}

/// What kind of latency a producer's value is behind. Recorded when the
/// producer executes; consumers map it to a [`StallCause`] when they are
/// the oldest waiting instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// The producer's visible latency is the wakeup recurrence (its
    /// operation is shorter than the issue–wakeup loop).
    Wakeup,
    /// A multi-cycle execution unit.
    Exec,
    /// A load served by the DL1.
    LoadL1,
    /// A load served by the L2 (DL1 miss).
    LoadL2,
    /// A load served by memory (L2 miss).
    LoadMem,
    /// Store data through the LSQ forwarding path.
    StoreForward,
}

impl ValueKind {
    /// The stall cause charged to a consumer waiting on this value.
    #[must_use]
    pub fn stall(self) -> StallCause {
        match self {
            ValueKind::Wakeup => StallCause::WakeupChain,
            ValueKind::Exec => StallCause::ExecWait,
            ValueKind::LoadL1 => StallCause::LoadUseWait,
            ValueKind::LoadL2 => StallCause::DcacheMiss,
            ValueKind::LoadMem => StallCause::L2Miss,
            ValueKind::StoreForward => StallCause::StoreForward,
        }
    }
}

/// The per-run counter block: slot accounting, occupancy histograms, and
/// structure hit counters for one observed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Counters {
    /// Issue slots per cycle (the accounting width).
    pub width: u32,
    /// Cycles observed.
    pub cycles: u64,
    /// Slots filled by issuing instructions.
    pub useful_slots: u64,
    /// Slots lost, by dominant cause (indexed by [`StallCause::index`]).
    pub stall_slots: [u64; StallCause::COUNT],
    /// Issue window (or in-order issue queue) occupancy per cycle.
    pub window_occupancy: OccupancyHist,
    /// Reorder-buffer occupancy per cycle (empty on the in-order core).
    pub rob_occupancy: OccupancyHist,
    /// Load/store-queue occupancy per cycle (empty on the in-order core).
    pub lsq_occupancy: OccupancyHist,
    /// Cycles dispatch was blocked by a full ROB (informational; issue-slot
    /// attribution charges the cycle to whatever starves issue).
    pub dispatch_blocked_rob: u64,
    /// Cycles dispatch was blocked by a full window.
    pub dispatch_blocked_window: u64,
    /// Cycles dispatch was blocked by a full LSQ.
    pub dispatch_blocked_lsq: u64,
    /// Cycles dispatch was blocked with no free physical register.
    pub dispatch_blocked_rename: u64,
    /// BTB lookups/hits during the observed interval.
    pub btb: BtbStats,
}

impl Counters {
    /// An empty block accounting `width` slots per cycle.
    #[must_use]
    pub fn new(width: u32) -> Self {
        Self {
            width,
            cycles: 0,
            useful_slots: 0,
            stall_slots: [0; StallCause::COUNT],
            window_occupancy: OccupancyHist::new(),
            rob_occupancy: OccupancyHist::new(),
            lsq_occupancy: OccupancyHist::new(),
            dispatch_blocked_rob: 0,
            dispatch_blocked_window: 0,
            dispatch_blocked_lsq: 0,
            dispatch_blocked_rename: 0,
            btb: BtbStats::default(),
        }
    }

    /// Records one cycle: `issued` slots were useful, the remainder is
    /// charged to `stall` (which must be present when any slot was lost).
    pub fn record_cycle(&mut self, issued: u32, stall: Option<StallCause>) {
        self.record_cycles(issued, stall, 1);
    }

    /// Records `n` identical cycles in one call, bit-identical to calling
    /// [`record_cycle`](Self::record_cycle) `n` times with the same
    /// arguments. Idle-cycle coalescing replays a skipped stretch — whose
    /// per-cycle attribution is constant by construction — through this.
    pub fn record_cycles(&mut self, issued: u32, stall: Option<StallCause>, n: u64) {
        debug_assert!(issued <= self.width, "issued beyond the slot width");
        self.cycles += n;
        self.useful_slots += u64::from(issued) * n;
        let lost = u64::from(self.width - issued) * n;
        if lost > 0 {
            let cause = stall.expect("lost slots need a cause");
            self.stall_slots[cause.index()] += lost;
        }
    }

    /// Slots lost to `cause`.
    #[must_use]
    pub fn stalls(&self, cause: StallCause) -> u64 {
        self.stall_slots[cause.index()]
    }

    /// Total lost slots.
    #[must_use]
    pub fn stall_total(&self) -> u64 {
        self.stall_slots.iter().sum()
    }

    /// Whether the slot identity `cycles × width == useful + stalls` holds.
    #[must_use]
    pub fn identity_holds(&self) -> bool {
        self.cycles * u64::from(self.width) == self.useful_slots + self.stall_total()
    }

    /// Stall *cycles* charged to `cause`: lost slots divided by width, so
    /// the stack sums to CPI × instructions.
    #[must_use]
    pub fn stall_cycles(&self, cause: StallCause) -> f64 {
        self.stalls(cause) as f64 / f64::from(self.width)
    }

    /// The CPI stack over `instructions`: the base (useful-slot) component
    /// followed by every cause's component, in [`StallCause::ALL`] order.
    /// The components sum to `cycles / instructions` exactly (in real
    /// arithmetic) because the slot identity is exact.
    #[must_use]
    pub fn cpi_stack(&self, instructions: u64) -> Vec<(&'static str, f64)> {
        let n = instructions.max(1) as f64;
        let w = f64::from(self.width);
        let mut stack = vec![("base", self.useful_slots as f64 / w / n)];
        for cause in StallCause::ALL {
            stack.push((cause.key(), self.stalls(cause) as f64 / w / n));
        }
        stack
    }
}

impl Observer for Counters {
    fn occupancy(&mut self, structure: Structure, occupancy: usize) {
        match structure {
            Structure::Window => self.window_occupancy.record(occupancy),
            Structure::Rob => self.rob_occupancy.record(occupancy),
            Structure::Lsq => self.lsq_occupancy.record(occupancy),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_identity_is_exact() {
        let mut c = Counters::new(4);
        c.record_cycle(4, None);
        c.record_cycle(2, Some(StallCause::LoadUseWait));
        c.record_cycle(0, Some(StallCause::FetchBubble));
        assert_eq!(c.cycles, 3);
        assert_eq!(c.useful_slots, 6);
        assert_eq!(c.stalls(StallCause::LoadUseWait), 2);
        assert_eq!(c.stalls(StallCause::FetchBubble), 4);
        assert!(c.identity_holds());
    }

    #[test]
    fn cpi_stack_sums_to_cpi() {
        let mut c = Counters::new(4);
        for _ in 0..10 {
            c.record_cycle(3, Some(StallCause::WakeupWait));
        }
        let instructions = 30;
        let cpi: f64 = c.cpi_stack(instructions).iter().map(|(_, v)| v).sum();
        let expect = c.cycles as f64 / instructions as f64;
        assert!((cpi - expect).abs() < 1e-12, "{cpi} vs {expect}");
    }

    #[test]
    fn all_causes_have_distinct_keys_and_indices() {
        let mut keys: Vec<&str> = StallCause::ALL.iter().map(|c| c.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), StallCause::COUNT);
        for (i, c) in StallCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn observer_routes_to_the_right_histogram() {
        let mut c = Counters::new(6);
        let obs: &mut dyn Observer = &mut c;
        obs.occupancy(Structure::Window, 3);
        obs.occupancy(Structure::Rob, 40);
        obs.occupancy(Structure::Lsq, 7);
        assert_eq!(c.window_occupancy.samples(), 1);
        assert_eq!(c.rob_occupancy.max(), 40);
        assert_eq!(c.lsq_occupancy.buckets()[7], 1);
    }

    #[test]
    #[should_panic(expected = "lost slots need a cause")]
    fn lost_slots_without_cause_panic() {
        let mut c = Counters::new(4);
        c.record_cycle(1, None);
    }
}
