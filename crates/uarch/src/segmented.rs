//! The segmented instruction issue window — the paper's §5 contribution.
//!
//! **Wakeup (Figure 10).** The window is cut into stages separated by
//! latches. A set of destination tags is broadcast to one stage per cycle,
//! so an instruction sitting in stage *k* (stage 0 = the oldest end) learns
//! of a result *k* cycles after the first stage does. Dependent
//! instructions can still issue back-to-back — but only if the consumer is
//! in stage 0.
//!
//! **Collapsing.** "The instruction window adjusts its contents at the
//! beginning of every cycle so that the older instructions collect to one
//! end" — entries are kept age-ordered and stage membership is recomputed
//! from position, so instructions migrate toward stage 0 as older entries
//! drain.
//!
//! **Select (Figure 12).** Conventionally the select logic examines every
//! entry. The segmented select partitions it: a pre-selection block per
//! non-first stage picks at most a quota of ready instructions (stage 2: 5,
//! stage 3: 2, stage 4: 1 in the paper's 32-entry/4-stage instance) and
//! latches them; the final select (fan-in 16: 8 stage-1 slots plus 7
//! latched plus margin) chooses the 4 to issue. Pre-selected instructions
//! therefore issue one cycle later than stage-0 instructions — the cost
//! the paper measures at −4 % integer / −1 % FP IPC.

use fo4depth_util::hash::Fnv64;

use crate::window::{IssueBudget, WindowEntry, WindowModel};

/// How selection treats entries outside the first stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectMode {
    /// All entries are candidates every cycle (the Figure 11 idealization:
    /// "assuming all entries in the window can be considered for
    /// selection").
    Ideal,
    /// Quota-limited pre-selection per non-first stage (Figure 12). The
    /// quota vector gives the maximum pre-selected instructions for stages
    /// 1, 2, 3, … (stage 0 is always fully considered); pre-selected
    /// instructions issue with one extra cycle of latency.
    PreSelect {
        /// Per-stage quotas, oldest non-first stage first.
        quotas: Vec<u32>,
    },
}

impl SelectMode {
    /// The paper's Figure 12 configuration for a 32-entry, 4-stage window:
    /// quotas 5 / 2 / 1 and a stage-1 fan-in of 16.
    #[must_use]
    pub fn figure12() -> Self {
        SelectMode::PreSelect {
            quotas: vec![5, 2, 1],
        }
    }

    /// Absorbs the mode and its quotas into `h` (part of a core
    /// configuration's content address).
    pub fn digest(&self, h: &mut Fnv64) {
        match self {
            SelectMode::Ideal => h.write_str("ideal"),
            SelectMode::PreSelect { quotas } => {
                h.write_str("preselect");
                h.write_u64(quotas.len() as u64);
                for &q in quotas {
                    h.write_u64(u64::from(q));
                }
            }
        }
    }
}

/// The segmented issue window.
///
/// # Examples
///
/// ```
/// use fo4depth_uarch::segmented::{SegmentedWindow, SelectMode};
/// use fo4depth_uarch::window::{IssueBudget, IssuePort, WindowEntry, WindowModel};
///
/// let mut w = SegmentedWindow::new(32, 4, SelectMode::Ideal);
/// w.insert(WindowEntry { seq: 0, port: IssuePort::Int, ready_at: 0 });
/// let mut b = IssueBudget::alpha_like();
/// assert_eq!(w.select(0, &mut b).len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SegmentedWindow {
    entries: Vec<WindowEntry>,
    capacity: usize,
    stages: usize,
    stage_size: usize,
    mode: SelectMode,
}

impl SegmentedWindow {
    /// Creates a `capacity`-entry window pipelined into `stages` stages.
    /// When `capacity` is not divisible by `stages`, the final stage is the
    /// short one (stage size rounds up), matching how a designer would cut
    /// an odd-sized window.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero, `capacity` is zero, or `stages` exceeds
    /// `capacity`.
    #[must_use]
    pub fn new(capacity: usize, stages: usize, mode: SelectMode) -> Self {
        assert!(capacity > 0 && stages > 0, "degenerate window");
        assert!(stages <= capacity, "more stages than entries");
        if let SelectMode::PreSelect { quotas } = &mode {
            assert_eq!(
                quotas.len(),
                stages - 1,
                "need one quota per non-first stage"
            );
        }
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
            stages,
            stage_size: capacity.div_ceil(stages),
            mode,
        }
    }

    /// Number of pipeline stages.
    #[must_use]
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Stage of the entry at `position` (0 = oldest stage).
    fn stage_of(&self, position: usize) -> usize {
        position / self.stage_size
    }

    /// The cycle at which the entry at `position` perceives its readiness:
    /// tags reach stage *k* after *k* extra cycles.
    fn perceived_ready(&self, position: usize) -> u64 {
        let e = &self.entries[position];
        e.ready_at.saturating_add(self.stage_of(position) as u64)
    }

    /// Observation: whether the entry at `position` asserts readiness to
    /// the (final) select block at `now`, ignoring pre-select quotas —
    /// quota losers are arbitration victims, which the observing core
    /// charges as contention rather than dependency wait.
    fn select_visible(&self, position: usize, now: u64) -> bool {
        match &self.mode {
            SelectMode::Ideal => self.perceived_ready(position) <= now,
            SelectMode::PreSelect { .. } => {
                let extra = u64::from(self.stage_of(position) != 0);
                self.perceived_ready(position).saturating_add(extra) <= now
            }
        }
    }
}

impl WindowModel for SegmentedWindow {
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

    fn select_into(&mut self, now: u64, budget: &mut IssueBudget, out: &mut Vec<WindowEntry>) {
        out.extend(self.select(now, budget));
    }

    fn select(&mut self, now: u64, budget: &mut IssueBudget) -> Vec<WindowEntry> {
        // Candidate positions this cycle, oldest first, respecting the
        // select organization.
        let mut candidates: Vec<usize> = Vec::new();
        match &self.mode {
            SelectMode::Ideal => {
                for pos in 0..self.entries.len() {
                    if self.perceived_ready(pos) <= now {
                        candidates.push(pos);
                    }
                }
            }
            SelectMode::PreSelect { quotas } => {
                let mut used = vec![0u32; quotas.len()];
                for pos in 0..self.entries.len() {
                    let stage = self.stage_of(pos);
                    if stage == 0 {
                        // Fully examined by the final select block.
                        if self.perceived_ready(pos) <= now {
                            candidates.push(pos);
                        }
                    } else {
                        // Pre-selected a cycle earlier: must have been ready
                        // then, and must fit the stage's quota.
                        let q = &mut used[stage - 1];
                        if *q < quotas[stage - 1]
                            && self.perceived_ready(pos).saturating_add(1) <= now
                        {
                            *q += 1;
                            candidates.push(pos);
                        }
                    }
                }
            }
        }

        let mut out = Vec::new();
        let mut removed = Vec::new();
        for pos in candidates {
            if budget.total == 0 {
                break;
            }
            let e = self.entries[pos];
            if budget.take(e.port) {
                out.push(e);
                removed.push(pos);
            }
        }
        // Remove issued entries (descending positions keep indices valid);
        // remaining entries collapse toward stage 0 automatically.
        for pos in removed.into_iter().rev() {
            self.entries.remove(pos);
        }
        out
    }

    fn visible_ready(&self, now: u64) -> usize {
        (0..self.entries.len())
            .filter(|&pos| self.select_visible(pos, now))
            .count()
    }

    fn oldest_waiting(&self, now: u64) -> Option<WindowEntry> {
        (0..self.entries.len())
            .find(|&pos| !self.select_visible(pos, now))
            .map(|pos| self.entries[pos])
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

    fn drain(w: &mut SegmentedWindow, now: u64) -> Vec<u64> {
        let mut b = IssueBudget::alpha_like();
        w.select(now, &mut b).iter().map(|e| e.seq).collect()
    }

    #[test]
    fn one_stage_equals_conventional() {
        let mut w = SegmentedWindow::new(8, 1, SelectMode::Ideal);
        w.insert(entry(0, 3));
        assert!(drain(&mut w, 2).is_empty());
        assert_eq!(drain(&mut w, 3), vec![0]);
    }

    #[test]
    fn later_stages_wake_later() {
        // 8 entries, 4 stages of 2. Entry at position 4 (stage 2) with
        // ready_at = 0 is perceived ready at cycle 2.
        let mut w = SegmentedWindow::new(8, 4, SelectMode::Ideal);
        for s in 0..5 {
            w.insert(entry(s, if s == 4 { 0 } else { 100 }));
        }
        assert!(drain(&mut w, 0).is_empty(), "stage-2 entry not visible yet");
        assert!(drain(&mut w, 1).is_empty());
        assert_eq!(drain(&mut w, 2), vec![4]);
    }

    #[test]
    fn collapsing_promotes_younger_entries() {
        // 8 entries, 4 stages of 2: entry 2 starts at position 2 = stage 1,
        // so it is invisible at cycle 0 (perceived ready 0 + 1 = 1).
        let mut w = SegmentedWindow::new(8, 4, SelectMode::Ideal);
        w.insert(entry(0, 0));
        w.insert(entry(1, 0));
        w.insert(entry(2, 0));
        assert_eq!(drain(&mut w, 0), vec![0, 1]);
        // After the older pair issues, entry 2 collapses into stage 0 and
        // issues with no staging delay at the same nominal cycle.
        assert_eq!(drain(&mut w, 0), vec![2]);
    }

    #[test]
    fn preselect_quotas_limit_non_first_stages() {
        // 8 entries, 2 stages of 4, quota 1 for stage 1.
        let mut w = SegmentedWindow::new(8, 2, SelectMode::PreSelect { quotas: vec![1] });
        // Fill stage 0 with never-ready entries, stage 1 with ready ones.
        for s in 0..4 {
            w.insert(entry(s, 1000));
        }
        for s in 4..8 {
            w.insert(entry(s, 0));
        }
        // At cycle 1 (ready since 0 ⇒ perceived at 1, +1 for pre-select at
        // 2)… readiness: perceived_ready = 0 + 1 (stage) = 1; pre-selected
        // entries need perceived + 1 <= now ⇒ now >= 2.
        assert!(drain(&mut w, 1).is_empty());
        let picked = drain(&mut w, 2);
        assert_eq!(picked, vec![4], "quota of 1 admits only the oldest");
    }

    #[test]
    fn preselect_stage0_has_no_extra_latency() {
        let mut w = SegmentedWindow::new(8, 2, SelectMode::PreSelect { quotas: vec![5] });
        w.insert(entry(0, 7));
        assert!(drain(&mut w, 6).is_empty());
        assert_eq!(drain(&mut w, 7), vec![0]);
    }

    #[test]
    fn figure12_quotas() {
        let SelectMode::PreSelect { quotas } = SelectMode::figure12() else {
            panic!("figure12 must be PreSelect");
        };
        assert_eq!(quotas, vec![5, 2, 1]);
    }

    #[test]
    fn ragged_staging_rounds_stage_size_up() {
        let w = SegmentedWindow::new(10, 4, SelectMode::Ideal);
        assert_eq!(w.stages(), 4);
        // 10 entries over 4 stages → stage size 3 (last stage holds 1).
        assert_eq!(w.stage_of(9), 3);
    }

    #[test]
    #[should_panic(expected = "more stages than entries")]
    fn rejects_more_stages_than_entries() {
        let _ = SegmentedWindow::new(4, 8, SelectMode::Ideal);
    }

    #[test]
    #[should_panic(expected = "one quota per non-first stage")]
    fn rejects_wrong_quota_count() {
        let _ = SegmentedWindow::new(8, 4, SelectMode::PreSelect { quotas: vec![1] });
    }
}
