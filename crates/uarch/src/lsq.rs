//! Load/store queue with store-to-load forwarding.
//!
//! A timing-study LSQ: because the trace is oracle (every effective address
//! is known at dispatch), memory disambiguation never has to speculate.
//! What remains — and what matters for the pipeline-depth study — is the
//! *capacity* pressure of in-flight memory operations and the latency path
//! of loads that hit an older, not-yet-committed store (forwarding instead
//! of a cache access).

use serde::{Deserialize, Serialize};

/// Error returned when a queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueFull;

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("load/store queue full")
    }
}

impl std::error::Error for QueueFull {}

/// Result of checking a load against older stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoadSource {
    /// No older in-flight store overlaps: go to the cache hierarchy.
    Cache,
    /// Forward from the youngest older store to the same word.
    Forward {
        /// Sequence number of the forwarding store.
        store_seq: u64,
        /// Cycle the store's data is available (`u64::MAX` while the store
        /// has not executed yet).
        data_ready: u64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct StoreRecord {
    seq: u64,
    word_addr: u64,
    data_ready: u64,
}

/// The load/store queue.
///
/// # Examples
///
/// ```
/// use fo4depth_uarch::lsq::{LoadSource, LoadStoreQueue};
///
/// let mut lsq = LoadStoreQueue::new(32, 32);
/// lsq.insert_store(0, 0x1000, 7).unwrap();
/// lsq.insert_load(1, 0x1000).unwrap();
/// assert_eq!(
///     lsq.load_source(1, 0x1000),
///     LoadSource::Forward { store_seq: 0, data_ready: 7 }
/// );
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadStoreQueue {
    stores: Vec<StoreRecord>,
    loads: Vec<u64>, // sequence numbers of in-flight loads
    load_capacity: usize,
    store_capacity: usize,
    forwards: u64,
    /// First live index of `stores`: retirement advances it and compacts
    /// the dead prefix lazily.
    store_head: usize,
    /// First live index of `loads`.
    load_head: usize,
}

impl LoadStoreQueue {
    /// Creates a queue with separate load and store capacities (the 21264
    /// has 32 + 32).
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    #[must_use]
    pub fn new(load_capacity: usize, store_capacity: usize) -> Self {
        assert!(load_capacity > 0 && store_capacity > 0);
        Self {
            stores: Vec::with_capacity(store_capacity),
            loads: Vec::with_capacity(load_capacity),
            load_capacity,
            store_capacity,
            forwards: 0,
            store_head: 0,
            load_head: 0,
        }
    }

    /// Whether a load can be accepted.
    #[must_use]
    pub fn has_load_space(&self) -> bool {
        self.loads.len() - self.load_head < self.load_capacity
    }

    /// Whether a store can be accepted.
    #[must_use]
    pub fn has_store_space(&self) -> bool {
        self.stores.len() - self.store_head < self.store_capacity
    }

    /// Records an in-flight store with the cycle its data will be ready.
    /// Entries of each kind must arrive in ascending sequence order
    /// (dispatch order).
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the store queue is full.
    pub fn insert_store(&mut self, seq: u64, addr: u64, data_ready: u64) -> Result<(), QueueFull> {
        if !self.has_store_space() {
            return Err(QueueFull);
        }
        self.stores.push(StoreRecord {
            seq,
            word_addr: addr >> 3,
            data_ready,
        });
        Ok(())
    }

    /// Records an in-flight load.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the load queue is full.
    pub fn insert_load(&mut self, seq: u64, _addr: u64) -> Result<(), QueueFull> {
        if !self.has_load_space() {
            return Err(QueueFull);
        }
        self.loads.push(seq);
        Ok(())
    }

    /// Where the load numbered `seq` at `addr` gets its data: the youngest
    /// older store to the same 8-byte word, or the cache. Stores arrive in
    /// sequence order, so the first match scanning from the rear *is* the
    /// youngest older store.
    #[must_use]
    pub fn load_source(&mut self, seq: u64, addr: u64) -> LoadSource {
        let word = addr >> 3;
        let hit = self.stores[self.store_head..]
            .iter()
            .rev()
            .find(|s| s.seq < seq && s.word_addr == word);
        match hit {
            Some(s) => {
                self.forwards += 1;
                LoadSource::Forward {
                    store_seq: s.seq,
                    data_ready: s.data_ready,
                }
            }
            None => LoadSource::Cache,
        }
    }

    /// Index of the live store numbered `seq`, by binary search (live
    /// stores are sorted by sequence number).
    fn store_index(&self, seq: u64) -> Option<usize> {
        let live = &self.stores[self.store_head..];
        let i = live.partition_point(|s| s.seq < seq);
        (i < live.len() && live[i].seq == seq).then_some(self.store_head + i)
    }

    /// Data-ready cycle of the in-flight store numbered `seq`, or `None`
    /// if it already retired (its data is then architecturally visible).
    #[must_use]
    pub fn store_data_ready(&self, seq: u64) -> Option<u64> {
        self.store_index(seq).map(|i| self.stores[i].data_ready)
    }

    /// Records that the store numbered `seq` has executed and its data is
    /// available from `data_ready` (stores are inserted at dispatch with
    /// `u64::MAX`).
    pub fn store_executed(&mut self, seq: u64, data_ready: u64) {
        if let Some(i) = self.store_index(seq) {
            let s = &mut self.stores[i];
            s.data_ready = s.data_ready.min(data_ready);
        }
    }

    /// Retires every queue entry older than or equal to `seq` (called as
    /// instructions commit): an amortized-O(1) head advance, compacting
    /// only when a queue fully drains or the dead prefix outgrows four
    /// times the live capacity.
    pub fn retire_through(&mut self, seq: u64) {
        while self
            .stores
            .get(self.store_head)
            .is_some_and(|s| s.seq <= seq)
        {
            self.store_head += 1;
        }
        if self.store_head >= self.stores.len() {
            self.stores.clear();
            self.store_head = 0;
        } else if self.store_head > self.store_capacity * 4 {
            self.stores.drain(..self.store_head);
            self.store_head = 0;
        }
        while self.loads.get(self.load_head).is_some_and(|&l| l <= seq) {
            self.load_head += 1;
        }
        if self.load_head >= self.loads.len() {
            self.loads.clear();
            self.load_head = 0;
        } else if self.load_head > self.load_capacity * 4 {
            self.loads.drain(..self.load_head);
            self.load_head = 0;
        }
    }

    /// Number of store-to-load forwards observed.
    #[must_use]
    pub fn forward_count(&self) -> u64 {
        self.forwards
    }

    /// In-flight (load, store) occupancy.
    #[must_use]
    pub fn occupancy(&self) -> (usize, usize) {
        (
            self.loads.len() - self.load_head,
            self.stores.len() - self.store_head,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The straight-line queue semantics the indexed implementation must
    /// reproduce: a forwarding scan over every store for the youngest
    /// older match, `find`-based store lookup and execute, and `retain`
    /// retirement.
    #[derive(Debug)]
    struct ReferenceQueue {
        stores: Vec<StoreRecord>,
        loads: Vec<u64>,
        load_capacity: usize,
        store_capacity: usize,
        forwards: u64,
    }

    impl ReferenceQueue {
        fn new(load_capacity: usize, store_capacity: usize) -> Self {
            Self {
                stores: Vec::new(),
                loads: Vec::new(),
                load_capacity,
                store_capacity,
                forwards: 0,
            }
        }

        fn has_load_space(&self) -> bool {
            self.loads.len() < self.load_capacity
        }

        fn has_store_space(&self) -> bool {
            self.stores.len() < self.store_capacity
        }

        fn insert_store(&mut self, seq: u64, addr: u64, data_ready: u64) -> Result<(), QueueFull> {
            if !self.has_store_space() {
                return Err(QueueFull);
            }
            self.stores.push(StoreRecord {
                seq,
                word_addr: addr >> 3,
                data_ready,
            });
            Ok(())
        }

        fn insert_load(&mut self, seq: u64) -> Result<(), QueueFull> {
            if !self.has_load_space() {
                return Err(QueueFull);
            }
            self.loads.push(seq);
            Ok(())
        }

        fn load_source(&mut self, seq: u64, addr: u64) -> LoadSource {
            let word = addr >> 3;
            let hit = self
                .stores
                .iter()
                .filter(|s| s.seq < seq && s.word_addr == word)
                .max_by_key(|s| s.seq);
            match hit {
                Some(s) => {
                    self.forwards += 1;
                    LoadSource::Forward {
                        store_seq: s.seq,
                        data_ready: s.data_ready,
                    }
                }
                None => LoadSource::Cache,
            }
        }

        fn store_data_ready(&self, seq: u64) -> Option<u64> {
            self.stores
                .iter()
                .find(|s| s.seq == seq)
                .map(|s| s.data_ready)
        }

        fn store_executed(&mut self, seq: u64, data_ready: u64) {
            if let Some(s) = self.stores.iter_mut().find(|s| s.seq == seq) {
                s.data_ready = s.data_ready.min(data_ready);
            }
        }

        fn retire_through(&mut self, seq: u64) {
            self.stores.retain(|s| s.seq > seq);
            self.loads.retain(|&l| l > seq);
        }

        fn occupancy(&self) -> (usize, usize) {
            (self.loads.len(), self.stores.len())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random in-order insert / execute / load-source / retire
        /// sequences drive the queue and the reference in lockstep. Small
        /// capacities make full drains and the 4×-capacity compaction of
        /// a long dead prefix both common.
        #[test]
        fn queue_matches_the_reference_model(
            load_capacity in 1usize..4,
            store_capacity in 1usize..4,
            ops in proptest::collection::vec((0u8..5, 0u64..6, 0u64..40), 1..300),
        ) {
            let mut lsq = LoadStoreQueue::new(load_capacity, store_capacity);
            let mut model = ReferenceQueue::new(load_capacity, store_capacity);
            let mut next_seq = 0u64;
            let mut retired = 0u64;
            let mut store_seqs: Vec<u64> = Vec::new();
            for (kind, word, x) in ops {
                let addr = word * 8 + x % 8;
                match kind {
                    0 => {
                        let ready = if x % 3 == 0 { u64::MAX } else { x };
                        prop_assert_eq!(
                            lsq.insert_store(next_seq, addr, ready),
                            model.insert_store(next_seq, addr, ready)
                        );
                        store_seqs.push(next_seq);
                        next_seq += 1 + x % 3;
                    }
                    1 => {
                        let inserted = lsq.insert_load(next_seq, addr);
                        prop_assert_eq!(inserted, model.insert_load(next_seq));
                        if inserted.is_ok() {
                            prop_assert_eq!(
                                lsq.load_source(next_seq, addr),
                                model.load_source(next_seq, addr)
                            );
                        }
                        next_seq += 1 + x % 3;
                    }
                    2 => {
                        // Forwarding as seen from any in-flight position.
                        let seq = retired + x % (next_seq - retired + 1);
                        prop_assert_eq!(lsq.load_source(seq, addr), model.load_source(seq, addr));
                    }
                    3 if !store_seqs.is_empty() => {
                        let seq = store_seqs[(x as usize) % store_seqs.len()];
                        lsq.store_executed(seq, x);
                        model.store_executed(seq, x);
                        prop_assert_eq!(lsq.store_data_ready(seq), model.store_data_ready(seq));
                    }
                    _ => {
                        retired = (retired + x % 8).min(next_seq);
                        lsq.retire_through(retired);
                        model.retire_through(retired);
                    }
                }
                prop_assert_eq!(lsq.occupancy(), model.occupancy());
                prop_assert_eq!(lsq.has_load_space(), model.has_load_space());
                prop_assert_eq!(lsq.has_store_space(), model.has_store_space());
                prop_assert_eq!(lsq.forward_count(), model.forwards);
            }
            for &seq in &store_seqs {
                prop_assert_eq!(lsq.store_data_ready(seq), model.store_data_ready(seq));
            }
        }
    }

    #[test]
    fn forwards_from_youngest_older_store() {
        let mut lsq = LoadStoreQueue::new(8, 8);
        lsq.insert_store(0, 0x1000, 5).unwrap();
        lsq.insert_store(2, 0x1000, 9).unwrap();
        lsq.insert_store(4, 0x2000, 3).unwrap();
        assert_eq!(
            lsq.load_source(3, 0x1000),
            LoadSource::Forward {
                store_seq: 2,
                data_ready: 9
            }
        );
        assert_eq!(
            lsq.load_source(1, 0x1000),
            LoadSource::Forward {
                store_seq: 0,
                data_ready: 5
            }
        );
        assert_eq!(lsq.load_source(5, 0x3000), LoadSource::Cache);
        assert_eq!(lsq.forward_count(), 2);
    }

    #[test]
    fn younger_stores_do_not_forward() {
        let mut lsq = LoadStoreQueue::new(8, 8);
        lsq.insert_store(10, 0x1000, 5).unwrap();
        assert_eq!(lsq.load_source(3, 0x1000), LoadSource::Cache);
    }

    #[test]
    fn word_granularity() {
        let mut lsq = LoadStoreQueue::new(8, 8);
        lsq.insert_store(0, 0x1000, 5).unwrap();
        // Same 8-byte word.
        assert!(matches!(
            lsq.load_source(1, 0x1004),
            LoadSource::Forward { .. }
        ));
        // Next word.
        assert_eq!(lsq.load_source(2, 0x1008), LoadSource::Cache);
    }

    #[test]
    fn store_executed_updates_data_ready() {
        let mut lsq = LoadStoreQueue::new(8, 8);
        lsq.insert_store(0, 0x1000, u64::MAX).unwrap();
        assert_eq!(
            lsq.load_source(1, 0x1000),
            LoadSource::Forward {
                store_seq: 0,
                data_ready: u64::MAX
            }
        );
        lsq.store_executed(0, 42);
        assert_eq!(
            lsq.load_source(1, 0x1000),
            LoadSource::Forward {
                store_seq: 0,
                data_ready: 42
            }
        );
    }

    #[test]
    fn capacity_and_retirement() {
        let mut lsq = LoadStoreQueue::new(2, 2);
        lsq.insert_load(0, 0).unwrap();
        lsq.insert_load(1, 8).unwrap();
        assert!(lsq.insert_load(2, 16).is_err());
        lsq.insert_store(3, 0, 1).unwrap();
        lsq.insert_store(4, 8, 1).unwrap();
        assert!(lsq.insert_store(5, 16, 1).is_err());
        lsq.retire_through(3);
        assert_eq!(lsq.occupancy(), (0, 1));
        assert!(lsq.insert_load(6, 0).is_ok());
    }
}
