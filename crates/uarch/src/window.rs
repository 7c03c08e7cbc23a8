//! The conventional instruction issue window.
//!
//! Entries wait with their source-ready times; each cycle the select logic
//! picks the oldest ready instructions that fit the issue budget. A
//! multi-cycle window (wakeup latency > 1, as deep clocks force — Table 3)
//! delays the visibility of readiness by `wakeup − 1` cycles: that is the
//! paper's *issue–wakeup critical loop*.

use serde::{Deserialize, Serialize};

/// Which issue port an instruction needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IssuePort {
    /// Integer ALU / branch port.
    Int,
    /// Floating-point port.
    Fp,
    /// Memory (load/store) port.
    Mem,
}

/// Per-cycle issue capacity, consumed as instructions are selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IssueBudget {
    /// Remaining integer issues this cycle.
    pub int: u32,
    /// Remaining FP issues this cycle.
    pub fp: u32,
    /// Remaining memory issues this cycle.
    pub mem: u32,
    /// Remaining total issues this cycle (the machine's issue width).
    pub total: u32,
}

impl IssueBudget {
    /// The Alpha-21264-like budget: 4-wide integer, 2-wide FP, 2 memory
    /// ports, 6 total.
    #[must_use]
    pub fn alpha_like() -> Self {
        Self {
            int: 4,
            fp: 2,
            mem: 2,
            total: 6,
        }
    }

    /// Attempts to consume one slot for `port`; returns whether it fit.
    pub fn take(&mut self, port: IssuePort) -> bool {
        if self.total == 0 {
            return false;
        }
        let slot = match port {
            IssuePort::Int => &mut self.int,
            IssuePort::Fp => &mut self.fp,
            IssuePort::Mem => &mut self.mem,
        };
        if *slot == 0 {
            return false;
        }
        *slot -= 1;
        self.total -= 1;
        true
    }
}

/// One waiting instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowEntry {
    /// Dynamic sequence number (age).
    pub seq: u64,
    /// Issue port required.
    pub port: IssuePort,
    /// Cycle at which the last source value is broadcast to the window's
    /// first stage (before any wakeup-pipelining delay).
    pub ready_at: u64,
}

/// Behaviour common to issue-window organizations.
///
/// The conventional window and the paper's segmented window implement this;
/// the out-of-order core is generic over it.
pub trait WindowModel: std::fmt::Debug {
    /// Whether another instruction can be inserted.
    fn has_space(&self) -> bool;

    /// Current occupancy.
    fn len(&self) -> usize;

    /// Whether the window holds no instructions.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity.
    fn capacity(&self) -> usize;

    /// Inserts a dispatched instruction (entries arrive in program order).
    ///
    /// # Panics
    ///
    /// Implementations panic when full; guard with
    /// [`has_space`](Self::has_space).
    fn insert(&mut self, entry: WindowEntry);

    /// Selects and removes up to the budgeted number of ready instructions
    /// at cycle `now`, oldest first.
    fn select(&mut self, now: u64, budget: &mut IssueBudget) -> Vec<WindowEntry> {
        let mut out = Vec::new();
        self.select_into(now, budget, &mut out);
        out
    }

    /// [`select`](Self::select) into a caller-owned buffer (appended, not
    /// cleared). Cores call select once per cycle on the simulated hot
    /// path; reusing one buffer keeps that path allocation-free.
    fn select_into(&mut self, now: u64, budget: &mut IssueBudget, out: &mut Vec<WindowEntry>);

    /// Lowers the ready time of entry `seq` to `ready_at` (used by cores
    /// that insert entries with `u64::MAX` while producers are unissued and
    /// wake them when the last producer schedules). No-op if `seq` is not
    /// present (it may have been inserted already-ready).
    fn set_ready(&mut self, seq: u64, ready_at: u64);

    /// Observation: entries whose readiness is *visible to select* at
    /// `now` — they could issue this cycle if a port were free. Called
    /// after [`select`](Self::select), a nonzero count means ready work
    /// lost the issue-bandwidth arbitration (a structural stall). Never
    /// called on the simulated hot path when observation is off.
    fn visible_ready(&self, now: u64) -> usize;

    /// Observation: the oldest entry whose readiness is *not* visible to
    /// select at `now`. Its `ready_at` lets the core distinguish a true
    /// dependency wait (`ready_at > now`) from in-window staging delay
    /// (broadcast arrived but the wakeup pipeline has not surfaced it).
    fn oldest_waiting(&self, now: u64) -> Option<WindowEntry>;

    /// The earliest cycle at which *any* entry becomes visible to select,
    /// assuming no further wakeups arrive (`u64::MAX` when the window is
    /// empty or every entry waits on an unscheduled producer). Returns
    /// `None` when the organization cannot answer cheaply — callers must
    /// then treat every cycle as potentially active. Idle-cycle coalescing
    /// uses this as one bound on how far the clock may safely jump; the
    /// default keeps exotic window models conservative (and correct) for
    /// free.
    fn next_visible_at(&self) -> Option<u64> {
        None
    }
}

/// The boxed trait object a core stores when its window organization is
/// chosen at runtime (conventional, segmented, speculative), at the cost
/// of a virtual call per stage probe. The conventional configuration
/// instead monomorphizes the core over [`ConventionalWindow`]; this
/// delegating impl lets both share one generic core.
impl WindowModel for Box<dyn WindowModel + Send> {
    fn has_space(&self) -> bool {
        (**self).has_space()
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn capacity(&self) -> usize {
        (**self).capacity()
    }

    fn insert(&mut self, entry: WindowEntry) {
        (**self).insert(entry);
    }

    fn select_into(&mut self, now: u64, budget: &mut IssueBudget, out: &mut Vec<WindowEntry>) {
        (**self).select_into(now, budget, out);
    }

    fn set_ready(&mut self, seq: u64, ready_at: u64) {
        (**self).set_ready(seq, ready_at);
    }

    fn visible_ready(&self, now: u64) -> usize {
        (**self).visible_ready(now)
    }

    fn oldest_waiting(&self, now: u64) -> Option<WindowEntry> {
        (**self).oldest_waiting(now)
    }

    fn next_visible_at(&self) -> Option<u64> {
        (**self).next_visible_at()
    }
}

/// A conventional (monolithic) issue window.
///
/// # Examples
///
/// ```
/// use fo4depth_uarch::window::{ConventionalWindow, IssueBudget, IssuePort, WindowEntry, WindowModel};
///
/// let mut w = ConventionalWindow::new(32, 1);
/// w.insert(WindowEntry { seq: 0, port: IssuePort::Int, ready_at: 0 });
/// let mut budget = IssueBudget::alpha_like();
/// assert_eq!(w.select(0, &mut budget).len(), 1);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConventionalWindow {
    entries: Vec<WindowEntry>,
    capacity: usize,
    wakeup_latency: u64,
}

impl ConventionalWindow {
    /// Creates a window of `capacity` entries with the given wakeup loop
    /// length in cycles (1 = dependent instructions can go back-to-back).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `wakeup_latency` is zero.
    #[must_use]
    pub fn new(capacity: usize, wakeup_latency: u64) -> Self {
        assert!(capacity > 0 && wakeup_latency > 0);
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
            wakeup_latency,
        }
    }

    /// The wakeup loop length in cycles.
    #[must_use]
    pub fn wakeup_latency(&self) -> u64 {
        self.wakeup_latency
    }
}

impl WindowModel for ConventionalWindow {
    fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn insert(&mut self, entry: WindowEntry) {
        assert!(self.has_space(), "window full");
        debug_assert!(
            self.entries.last().is_none_or(|e| e.seq < entry.seq),
            "window insertion out of program order"
        );
        self.entries.push(entry);
    }

    fn set_ready(&mut self, seq: u64, ready_at: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.seq == seq) {
            e.ready_at = e.ready_at.min(ready_at);
        }
    }

    /// Single forward pass compacting survivors in place: entries are
    /// considered oldest first and the budget is consumed in that order,
    /// so each select costs one O(len) sweep rather than an O(len) shift
    /// per selected entry.
    fn select_into(&mut self, now: u64, budget: &mut IssueBudget, out: &mut Vec<WindowEntry>) {
        let wake = self.wakeup_latency - 1;
        let mut kept = 0;
        for i in 0..self.entries.len() {
            let e = self.entries[i];
            if budget.total != 0 && e.ready_at.saturating_add(wake) <= now && budget.take(e.port) {
                out.push(e);
            } else {
                self.entries[kept] = e;
                kept += 1;
            }
        }
        self.entries.truncate(kept);
    }

    fn visible_ready(&self, now: u64) -> usize {
        let wake = self.wakeup_latency - 1;
        self.entries
            .iter()
            .filter(|e| e.ready_at.saturating_add(wake) <= now)
            .count()
    }

    fn oldest_waiting(&self, now: u64) -> Option<WindowEntry> {
        let wake = self.wakeup_latency - 1;
        self.entries
            .iter()
            .find(|e| e.ready_at.saturating_add(wake) > now)
            .copied()
    }

    fn next_visible_at(&self) -> Option<u64> {
        let wake = self.wakeup_latency - 1;
        Some(
            self.entries
                .iter()
                .map(|e| e.ready_at.saturating_add(wake))
                .min()
                .unwrap_or(u64::MAX),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64, ready: u64) -> WindowEntry {
        WindowEntry {
            seq,
            port: IssuePort::Int,
            ready_at: ready,
        }
    }

    #[test]
    fn selects_oldest_ready_first() {
        let mut w = ConventionalWindow::new(8, 1);
        w.insert(entry(0, 5)); // not ready at 0
        w.insert(entry(1, 0));
        w.insert(entry(2, 0));
        let mut b = IssueBudget::alpha_like();
        let picked = w.select(0, &mut b);
        let seqs: Vec<u64> = picked.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn budget_limits_by_port_and_total() {
        let mut w = ConventionalWindow::new(16, 1);
        for s in 0..10 {
            w.insert(entry(s, 0));
        }
        let mut b = IssueBudget::alpha_like();
        let picked = w.select(0, &mut b);
        assert_eq!(picked.len(), 4, "int port allows only 4");

        let mut w = ConventionalWindow::new(16, 1);
        for s in 0..4 {
            w.insert(WindowEntry {
                seq: s,
                port: IssuePort::Fp,
                ready_at: 0,
            });
        }
        let mut b = IssueBudget::alpha_like();
        assert_eq!(w.select(0, &mut b).len(), 2, "fp port allows only 2");
    }

    #[test]
    fn wakeup_latency_delays_dependents() {
        // With a 3-cycle window, an instruction whose source arrives at
        // cycle 10 cannot issue before cycle 12.
        let mut w = ConventionalWindow::new(8, 3);
        w.insert(entry(0, 10));
        let mut b = IssueBudget::alpha_like();
        assert!(w.select(10, &mut b).is_empty());
        assert!(w.select(11, &mut b).is_empty());
        assert_eq!(w.select(12, &mut b).len(), 1);
    }

    #[test]
    fn set_ready_wakes_deferred_entries() {
        let mut w = ConventionalWindow::new(4, 1);
        w.insert(entry(0, u64::MAX));
        let mut b = IssueBudget::alpha_like();
        assert!(w.select(100, &mut b).is_empty());
        w.set_ready(0, 50);
        let mut b = IssueBudget::alpha_like();
        assert_eq!(w.select(100, &mut b).len(), 1);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut w = ConventionalWindow::new(2, 1);
        w.insert(entry(0, 0));
        w.insert(entry(1, 0));
        assert!(!w.has_space());
    }

    #[test]
    #[should_panic(expected = "window full")]
    fn insert_into_full_window_panics() {
        let mut w = ConventionalWindow::new(1, 1);
        w.insert(entry(0, 0));
        w.insert(entry(1, 0));
    }
}
