//! Simulation results and counters.

use fo4depth_uarch::cache::CacheStats;

/// Counters from one measured simulation interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimResult {
    /// Instructions committed in the interval.
    pub instructions: u64,
    /// Cycles elapsed in the interval.
    pub cycles: u64,
    /// Conditional branches + jumps seen at fetch.
    pub branches: u64,
    /// Of those, how many were mispredicted (direction or target).
    pub mispredicts: u64,
    /// L1 data-cache statistics.
    pub l1: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// Store-to-load forwards.
    pub forwards: u64,
    /// Loads executed.
    pub loads: u64,
}

impl SimResult {
    /// Instructions per cycle.
    ///
    /// # Panics
    ///
    /// Panics if the interval had zero cycles.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        assert!(self.cycles > 0, "empty interval");
        self.instructions as f64 / self.cycles as f64
    }

    /// Branch misprediction rate in `[0, 1]` (0 when no branches ran).
    #[must_use]
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }

    /// Performance in billions of instructions per second, given the clock
    /// period in picoseconds.
    ///
    /// `BIPS = IPC × f(GHz)` — the paper's performance metric.
    ///
    /// # Panics
    ///
    /// Panics if `period_ps` is not positive.
    #[must_use]
    pub fn bips(&self, period_ps: f64) -> f64 {
        assert!(period_ps > 0.0, "period must be positive");
        self.ipc() * 1000.0 / period_ps
    }

    /// Counter-wise difference `self − earlier` (for warm-up exclusion).
    #[must_use]
    pub fn since(&self, earlier: &SimResult) -> SimResult {
        SimResult {
            instructions: self.instructions - earlier.instructions,
            cycles: self.cycles - earlier.cycles,
            branches: self.branches - earlier.branches,
            mispredicts: self.mispredicts - earlier.mispredicts,
            l1: CacheStats {
                hits: self.l1.hits - earlier.l1.hits,
                misses: self.l1.misses - earlier.l1.misses,
            },
            l2: CacheStats {
                hits: self.l2.hits - earlier.l2.hits,
                misses: self.l2.misses - earlier.l2.misses,
            },
            forwards: self.forwards - earlier.forwards,
            loads: self.loads - earlier.loads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(instructions: u64, cycles: u64) -> SimResult {
        SimResult {
            instructions,
            cycles,
            branches: 10,
            mispredicts: 1,
            l1: CacheStats {
                hits: 90,
                misses: 10,
            },
            l2: CacheStats { hits: 5, misses: 5 },
            forwards: 3,
            loads: 100,
        }
    }

    #[test]
    fn ipc_and_bips() {
        let x = r(2000, 1000);
        assert!((x.ipc() - 2.0).abs() < 1e-12);
        // 2 IPC at a 280.8 ps clock = 2 × 3.56 GHz = 7.12 BIPS.
        assert!((x.bips(280.8) - 7.122).abs() < 0.01);
    }

    #[test]
    fn rates() {
        let x = r(100, 100);
        assert!((x.mispredict_rate() - 0.1).abs() < 1e-12);
        assert!((x.l1.miss_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn since_subtracts_counters() {
        let warm = r(1000, 500);
        let total = r(3000, 1500);
        let d = total.since(&warm);
        assert_eq!(d.instructions, 2000);
        assert_eq!(d.cycles, 1000);
        assert_eq!(d.l1.hits, 0);
    }

    #[test]
    #[should_panic(expected = "empty interval")]
    fn zero_cycle_ipc_panics() {
        let _ = r(1, 0).ipc();
    }
}
