//! Observation plumbing for the microarchitectural structures.
//!
//! The cores attribute every issue slot to a cause (see
//! `fo4depth-pipeline`'s `counters` module); the structures themselves only
//! need to answer two questions cheaply — *how full are you* and *who is
//! the oldest instruction you are holding back* — and to stream occupancy
//! samples into a sink. That sink is the [`Observer`] trait. The hot path
//! pays a single `Option` check per cycle when observation is off; no
//! structure carries per-access observation branches.

/// Which structure an occupancy sample describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    /// The issue window (or the in-order core's issue queue).
    Window,
    /// The reorder buffer.
    Rob,
    /// The load/store queue (loads + stores combined).
    Lsq,
}

/// A sink for per-cycle structure observations.
pub trait Observer {
    /// Records that `structure` held `occupancy` entries this cycle.
    fn occupancy(&mut self, structure: Structure, occupancy: usize);
}

/// A dense occupancy histogram: bucket *k* counts the cycles the structure
/// held exactly *k* entries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OccupancyHist {
    buckets: Vec<u64>,
}

impl OccupancyHist {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a histogram from raw buckets (index = occupancy, value =
    /// cycles), the inverse of [`OccupancyHist::buckets`]. Used by the
    /// persistent result cache to round-trip observed counters through
    /// their on-disk encoding bit-exactly — including any trailing zero
    /// buckets, which participate in equality.
    #[must_use]
    pub fn from_buckets(buckets: Vec<u64>) -> Self {
        Self { buckets }
    }

    /// Records one cycle at `occupancy` entries.
    pub fn record(&mut self, occupancy: usize) {
        self.record_n(occupancy, 1);
    }

    /// Records `n` cycles at `occupancy` entries, bit-identical to calling
    /// [`record`](Self::record) `n` times. Idle-cycle coalescing replays a
    /// whole skipped stretch (whose occupancies are constant by
    /// construction) with one call.
    pub fn record_n(&mut self, occupancy: usize, n: u64) {
        if self.buckets.len() <= occupancy {
            self.buckets.resize(occupancy + 1, 0);
        }
        self.buckets[occupancy] += n;
    }

    /// Cycles recorded in total.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean occupancy over all recorded cycles (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.samples();
        if n == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .buckets
            .iter()
            .enumerate()
            .map(|(occ, &count)| occ as u64 * count)
            .sum();
        weighted as f64 / n as f64
    }

    /// Highest occupancy ever recorded (0 when empty).
    #[must_use]
    pub fn max(&self) -> usize {
        self.buckets.iter().rposition(|&c| c > 0).unwrap_or(0)
    }

    /// The raw buckets: index = occupancy, value = cycles.
    #[must_use]
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Whether any cycle has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&c| c == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_and_means() {
        let mut h = OccupancyHist::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        for occ in [0, 2, 2, 4] {
            h.record(occ);
        }
        assert_eq!(h.samples(), 4);
        assert_eq!(h.max(), 4);
        assert_eq!(h.buckets()[2], 2);
        assert!((h.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_grows_on_demand() {
        let mut h = OccupancyHist::new();
        h.record(63);
        assert_eq!(h.buckets().len(), 64);
        assert_eq!(h.samples(), 1);
        assert_eq!(h.max(), 63);
    }
}
