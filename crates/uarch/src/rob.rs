//! The reorder buffer: in-order allocation and commit.

/// One in-flight instruction's retirement bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobEntry {
    /// The instruction's dynamic sequence number.
    pub seq: u64,
    /// Cycle at which the instruction's result is architecturally complete
    /// (`u64::MAX` until it executes).
    pub complete_at: u64,
    /// Physical register to free at commit (the *previous* mapping of the
    /// destination), if any.
    pub free_on_commit: Option<u32>,
}

/// A bounded in-order reorder buffer.
///
/// # Examples
///
/// ```
/// use fo4depth_uarch::rob::ReorderBuffer;
/// let mut rob = ReorderBuffer::new(4);
/// let idx = rob.allocate(0, None).unwrap();
/// rob.complete(idx, 10);
/// assert_eq!(rob.commit_ready(10, 4).len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ReorderBuffer {
    entries: std::collections::VecDeque<RobEntry>,
    capacity: usize,
    next_committed_seq: u64,
}

impl ReorderBuffer {
    /// Creates a buffer of `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ROB must have capacity");
        Self {
            entries: std::collections::VecDeque::with_capacity(capacity),
            capacity,
            next_committed_seq: 0,
        }
    }

    /// Whether another instruction can be allocated.
    #[must_use]
    #[inline]
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Current occupancy.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Allocates an entry for `seq` (entries must be allocated in
    /// program order). Returns a handle for [`complete`](Self::complete),
    /// or `None` when full.
    #[inline]
    pub fn allocate(&mut self, seq: u64, free_on_commit: Option<u32>) -> Option<u64> {
        if !self.has_space() {
            return None;
        }
        if let Some(back) = self.entries.back() {
            assert!(back.seq < seq, "ROB allocation out of program order");
        }
        self.entries.push_back(RobEntry {
            seq,
            complete_at: u64::MAX,
            free_on_commit,
        });
        Some(seq)
    }

    /// Marks `seq` complete at `cycle`. Cores allocate every fetched
    /// instruction, so occupied entries almost always carry contiguous
    /// sequence numbers and `seq` sits at offset `seq - front.seq`; when
    /// that guess misses (sparse allocation) the entry is found by scan.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not in the buffer.
    #[inline]
    pub fn complete(&mut self, seq: u64, cycle: u64) {
        let guess = self
            .entries
            .front()
            .and_then(|front| seq.checked_sub(front.seq))
            .and_then(|idx| usize::try_from(idx).ok())
            .filter(|&idx| self.entries.get(idx).is_some_and(|e| e.seq == seq));
        let e = match guess {
            Some(idx) => &mut self.entries[idx],
            None => self
                .entries
                .iter_mut()
                .find(|e| e.seq == seq)
                .expect("completing unknown ROB entry"),
        };
        e.complete_at = e.complete_at.min(cycle);
    }

    /// Completion cycle of the head entry (`u64::MAX` until it executes),
    /// or `None` when the buffer is empty. The earliest cycle at which the
    /// next commit can possibly happen — idle-cycle coalescing uses it as
    /// one bound on how far the clock may safely jump.
    #[must_use]
    #[inline]
    pub fn head_complete_at(&self) -> Option<u64> {
        self.entries.front().map(|e| e.complete_at)
    }

    /// Pops up to `width` head entries whose results are complete by
    /// `cycle`, returning them in commit order.
    #[must_use]
    pub fn commit_ready(&mut self, cycle: u64, width: usize) -> Vec<RobEntry> {
        let mut out = Vec::new();
        self.commit_ready_into(cycle, width, &mut out);
        out
    }

    /// [`commit_ready`](Self::commit_ready) into a caller-owned buffer
    /// (appended, not cleared); cores reuse one buffer across cycles to
    /// keep the commit stage allocation-free.
    #[inline]
    pub fn commit_ready_into(&mut self, cycle: u64, width: usize, out: &mut Vec<RobEntry>) {
        let mut popped = 0;
        while popped < width {
            match self.entries.front() {
                Some(head) if head.complete_at <= cycle => {
                    let e = self.entries.pop_front().expect("checked front");
                    self.next_committed_seq = e.seq + 1;
                    out.push(e);
                    popped += 1;
                }
                _ => break,
            }
        }
    }

    /// Sequence number of the next instruction to commit.
    #[must_use]
    #[inline]
    pub fn next_commit_seq(&self) -> u64 {
        self.entries
            .front()
            .map_or(self.next_committed_seq, |e| e.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_is_in_order_even_when_completion_is_not() {
        let mut rob = ReorderBuffer::new(8);
        rob.allocate(0, None).unwrap();
        rob.allocate(1, None).unwrap();
        rob.allocate(2, None).unwrap();
        // Younger completes first.
        rob.complete(2, 5);
        rob.complete(1, 6);
        rob.complete(0, 9);
        assert!(rob.commit_ready(8, 4).is_empty(), "head not yet complete");
        let committed = rob.commit_ready(9, 4);
        let seqs: Vec<u64> = committed.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn commit_width_limits() {
        let mut rob = ReorderBuffer::new(8);
        for s in 0..6 {
            rob.allocate(s, None).unwrap();
            rob.complete(s, 1);
        }
        assert_eq!(rob.commit_ready(1, 4).len(), 4);
        assert_eq!(rob.commit_ready(1, 4).len(), 2);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut rob = ReorderBuffer::new(2);
        assert!(rob.allocate(0, None).is_some());
        assert!(rob.allocate(1, None).is_some());
        assert!(rob.allocate(2, None).is_none());
        rob.complete(0, 0);
        let _ = rob.commit_ready(0, 1);
        assert!(rob.allocate(2, None).is_some());
    }

    #[test]
    fn free_on_commit_travels_with_entry() {
        let mut rob = ReorderBuffer::new(2);
        rob.allocate(0, Some(77)).unwrap();
        rob.complete(0, 3);
        let done = rob.commit_ready(3, 1);
        assert_eq!(done[0].free_on_commit, Some(77));
    }

    #[test]
    fn complete_finds_entries_of_a_sparse_allocation() {
        // Non-contiguous seqs: the offset guess either runs past the end
        // (9 at offset 9 of four entries) or lands on another entry (2 at
        // offset 2 holds 5), so the scan fallback must find them.
        let mut rob = ReorderBuffer::new(8);
        for seq in [0, 2, 5, 9] {
            rob.allocate(seq, None).unwrap();
        }
        rob.complete(9, 4);
        rob.complete(2, 3);
        rob.complete(0, 1);
        assert_eq!(rob.commit_ready(3, 4).len(), 2, "0 and 2 commit; 5 blocks");
        rob.complete(5, 2);
        let seqs: Vec<u64> = rob.commit_ready(4, 4).iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![5, 9]);
    }

    #[test]
    #[should_panic(expected = "completing unknown ROB entry")]
    fn completing_an_absent_entry_panics() {
        let mut rob = ReorderBuffer::new(4);
        rob.allocate(0, None).unwrap();
        rob.allocate(3, None).unwrap();
        rob.complete(2, 1);
    }

    #[test]
    #[should_panic(expected = "out of program order")]
    fn rejects_out_of_order_allocation() {
        let mut rob = ReorderBuffer::new(4);
        rob.allocate(5, None).unwrap();
        rob.allocate(3, None).unwrap();
    }
}
