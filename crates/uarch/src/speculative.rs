//! Speculative (grandparent) wakeup — the alternative pipelined-scheduler
//! design of Stark, Brown & Patt that the paper compares against in §6.
//!
//! Their scheme pipelines wakeup + select over two cycles but keeps
//! dependent instructions issuing back-to-back by waking an instruction
//! *speculatively* when its grandparents issue: if the grandparents' tags
//! are broadcast this cycle, the parents are probably issuing right now,
//! so the instruction can be selected next cycle — exactly when a
//! single-cycle scheduler would have selected it.
//!
//! The cost is mis-speculation. Two kinds of victims exist:
//!
//! * **collision victims** — instructions that asserted availability but
//!   lost the select arbitration; their speculatively woken dependents must
//!   be pulled back and rescheduled;
//! * **pileup victims** — dependents woken behind a parent that turned out
//!   not to issue.
//!
//! This model realizes the timing consequences deterministically: selection
//! sees true readiness (successful speculation reproduces the single-cycle
//! schedule), and any instruction that was *ready but unselected* —
//! an arbitration loss that in the real design has already triggered its
//! dependents' speculative wakeup — pays a fixed reschedule penalty before
//! it can be considered again. Stark et al. measure the net IPC loss at a
//! few percent of an ideal one-cycle scheduler; this model lands in the
//! same band (see `study::ablation` and the §6 comparison bench).

use crate::window::{IssueBudget, WindowEntry, WindowModel};

/// Default reschedule penalty for victims, in cycles (the two-cycle
/// scheduler must drain and replay them).
pub const DEFAULT_RESCHEDULE_PENALTY: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SpecEntry {
    entry: WindowEntry,
    /// Earliest cycle the scheduler may consider the entry again after a
    /// mis-speculation (0 = never victimized).
    reschedule_at: u64,
    /// Whether the entry has already been victimized once (victims are not
    /// re-victimized; the replay path is non-speculative).
    victimized: bool,
}

/// A two-cycle pipelined scheduler with grandparent (speculative) wakeup.
///
/// # Examples
///
/// ```
/// use fo4depth_uarch::speculative::SpeculativeWindow;
/// use fo4depth_uarch::window::{IssueBudget, IssuePort, WindowEntry, WindowModel};
///
/// let mut w = SpeculativeWindow::new(32, 2);
/// w.insert(WindowEntry { seq: 0, port: IssuePort::Int, ready_at: 0 });
/// let mut b = IssueBudget::alpha_like();
/// assert_eq!(w.select(0, &mut b).len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SpeculativeWindow {
    entries: Vec<SpecEntry>,
    capacity: usize,
    reschedule_penalty: u64,
    collisions: u64,
}

impl SpeculativeWindow {
    /// Creates a window of `capacity` entries with the given reschedule
    /// penalty for arbitration victims.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize, reschedule_penalty: u64) -> Self {
        assert!(capacity > 0, "window needs capacity");
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
            reschedule_penalty,
            collisions: 0,
        }
    }

    /// Number of collision victims observed (ready instructions that lost
    /// arbitration and paid the reschedule penalty).
    #[must_use]
    pub fn collision_count(&self) -> u64 {
        self.collisions
    }
}

impl WindowModel for SpeculativeWindow {
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
            self.entries.last().is_none_or(|e| e.entry.seq < entry.seq),
            "window insertion out of program order"
        );
        self.entries.push(SpecEntry {
            entry,
            reschedule_at: 0,
            victimized: false,
        });
    }

    fn set_ready(&mut self, seq: u64, ready_at: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.entry.seq == seq) {
            e.entry.ready_at = e.entry.ready_at.min(ready_at);
        }
    }

    fn select_into(&mut self, now: u64, budget: &mut IssueBudget, out: &mut Vec<WindowEntry>) {
        out.extend(self.select(now, budget));
    }

    fn select(&mut self, now: u64, budget: &mut IssueBudget) -> Vec<WindowEntry> {
        // Pass 1: arbitration among entries that assert availability.
        let mut out = Vec::new();
        let mut removed = Vec::new();
        let mut losers = Vec::new();
        for (pos, e) in self.entries.iter().enumerate() {
            let considered = e.entry.ready_at <= now && e.reschedule_at <= now;
            if !considered {
                continue;
            }
            if budget.total > 0 {
                let mut probe = *budget;
                if probe.take(e.entry.port) {
                    *budget = probe;
                    out.push(e.entry);
                    removed.push(pos);
                    continue;
                }
            }
            // Ready, asserted availability, lost arbitration: its
            // speculatively woken dependents must replay — charged here as
            // a reschedule delay on the victim itself (first time only;
            // the replay path is non-speculative).
            losers.push(pos);
        }
        for &pos in &losers {
            let e = &mut self.entries[pos];
            if !e.victimized {
                e.victimized = true;
                e.reschedule_at = now + self.reschedule_penalty;
                self.collisions += 1;
            }
        }
        for pos in removed.into_iter().rev() {
            self.entries.remove(pos);
        }
        out
    }

    fn visible_ready(&self, now: u64) -> usize {
        self.entries
            .iter()
            .filter(|e| e.entry.ready_at <= now && e.reschedule_at <= now)
            .count()
    }

    fn oldest_waiting(&self, now: u64) -> Option<WindowEntry> {
        // A reschedule-delayed victim reports its raw `ready_at`: the core
        // sees a value-ready-but-invisible entry and charges the wait to
        // the scheduler loop, which is what a replay delay is.
        self.entries
            .iter()
            .find(|e| e.entry.ready_at > now || e.reschedule_at > now)
            .map(|e| e.entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::IssuePort;

    fn entry(seq: u64, ready: u64) -> WindowEntry {
        WindowEntry {
            seq,
            port: IssuePort::Int,
            ready_at: ready,
        }
    }

    fn drain(w: &mut SpeculativeWindow, now: u64) -> Vec<u64> {
        let mut b = IssueBudget::alpha_like();
        w.select(now, &mut b).iter().map(|e| e.seq).collect()
    }

    #[test]
    fn uncontended_behaves_like_single_cycle_scheduler() {
        let mut w = SpeculativeWindow::new(8, 2);
        w.insert(entry(0, 3));
        assert!(drain(&mut w, 2).is_empty());
        assert_eq!(drain(&mut w, 3), vec![0]);
        assert_eq!(w.collision_count(), 0);
    }

    #[test]
    fn arbitration_losers_pay_reschedule_penalty() {
        // Six ready integer instructions against a 4-wide int budget: two
        // lose arbitration and are delayed by the penalty.
        let mut w = SpeculativeWindow::new(8, 2);
        for s in 0..6 {
            w.insert(entry(s, 0));
        }
        assert_eq!(drain(&mut w, 0), vec![0, 1, 2, 3]);
        assert_eq!(w.collision_count(), 2);
        // Victims are not selectable before now + penalty.
        assert!(drain(&mut w, 1).is_empty());
        assert_eq!(drain(&mut w, 2), vec![4, 5]);
    }

    #[test]
    fn victims_are_only_penalized_once() {
        let mut w = SpeculativeWindow::new(16, 3);
        for s in 0..8 {
            w.insert(entry(s, 0));
        }
        let _ = drain(&mut w, 0); // 4 issue, 4 victims
        assert_eq!(w.collision_count(), 4);
        // At now+3 all four victims replay; still only 4 collisions even
        // though port pressure recurs.
        assert_eq!(drain(&mut w, 3), vec![4, 5, 6, 7]);
        assert_eq!(w.collision_count(), 4);
    }

    #[test]
    fn set_ready_wakes_deferred_entries() {
        let mut w = SpeculativeWindow::new(4, 2);
        w.insert(entry(0, u64::MAX));
        assert!(drain(&mut w, 10).is_empty());
        w.set_ready(0, 5);
        assert_eq!(drain(&mut w, 10), vec![0]);
    }
}
