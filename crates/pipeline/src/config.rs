//! Core configuration: widths, per-region pipeline depths, and structure
//! latencies — all in cycles at the target clock.

use fo4depth_uarch::cache::HierarchyConfig;
use fo4depth_uarch::fu::{ExecLatencies, FuPoolConfig};

/// Pipeline depths (in cycles) of the front-end regions and register read.
///
/// The front-end depth sets the branch misprediction refill; register read
/// sits between issue and execute and lengthens branch resolution (but not
/// dependent-to-dependent latency, thanks to full bypass — §3.3: "results
/// produced by the functional units can be fully bypassed to any stage
/// between Issue and Execute").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineDepths {
    /// Instruction fetch (I-cache + predictor consultation).
    pub fetch: u64,
    /// Decode.
    pub decode: u64,
    /// Rename/map.
    pub rename: u64,
    /// Dispatch into the issue window / in-order issue stage.
    pub issue: u64,
    /// Register read after select.
    pub regread: u64,
}

impl PipelineDepths {
    /// The Alpha 21264 at its native clock (17.4 FO4 of useful logic).
    #[must_use]
    pub fn alpha_like() -> Self {
        Self {
            fetch: 2,
            decode: 1,
            rename: 1,
            issue: 1,
            regread: 1,
        }
    }

    /// Cycles from fetch to window insertion — the branch-refill depth.
    #[must_use]
    pub fn front_end(&self) -> u64 {
        self.fetch + self.decode + self.rename + self.issue
    }
}

/// Branch-predictor organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorConfig {
    /// 21264-style tournament: (local sites, local history bits, global
    /// entries).
    Tournament {
        /// Local history registers.
        local_sites: usize,
        /// Bits per local history register.
        local_history_bits: u32,
        /// Global/choice table entries.
        global_entries: usize,
    },
    /// PC-indexed 2-bit counters.
    Bimodal {
        /// Counter table entries.
        entries: usize,
    },
    /// Global-history-XOR-PC 2-bit counters.
    Gshare {
        /// Counter table entries.
        entries: usize,
    },
    /// Jiménez/Lin perceptron predictor.
    Perceptron {
        /// Weight-vector rows.
        rows: usize,
        /// Global history length.
        history_bits: usize,
    },
    /// Always predict taken (the degenerate baseline).
    AlwaysTaken,
}

impl PredictorConfig {
    /// The 21264's geometry.
    #[must_use]
    pub fn alpha_tournament() -> Self {
        PredictorConfig::Tournament {
            local_sites: 1024,
            local_history_bits: 10,
            global_entries: 4096,
        }
    }
}

/// Issue-window organization.
#[derive(Debug, Clone, PartialEq)]
pub enum WindowConfig {
    /// Monolithic window with the given capacity and wakeup-loop length in
    /// cycles (Table 3's issue-window latency).
    Conventional {
        /// Entry count.
        capacity: usize,
        /// Wakeup loop length (1 = back-to-back dependents).
        wakeup: u64,
    },
    /// The paper's §5 segmented window.
    Segmented {
        /// Entry count.
        capacity: usize,
        /// Number of pipeline stages the window is cut into.
        stages: usize,
        /// Selection organization.
        select: fo4depth_uarch::segmented::SelectMode,
    },
    /// Stark/Brown/Patt grandparent-wakeup pipelined scheduler (§6's point
    /// of comparison): dependents issue back-to-back; arbitration victims
    /// pay a reschedule penalty.
    Speculative {
        /// Entry count.
        capacity: usize,
        /// Reschedule penalty for collision victims, in cycles.
        reschedule_penalty: u64,
    },
}

impl WindowConfig {
    /// Entry count of the window.
    #[must_use]
    pub fn capacity(&self) -> usize {
        match self {
            WindowConfig::Conventional { capacity, .. }
            | WindowConfig::Segmented { capacity, .. }
            | WindowConfig::Speculative { capacity, .. } => *capacity,
        }
    }
}

/// Full core configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: u32,
    /// Instructions renamed/dispatched per cycle.
    pub dispatch_width: u32,
    /// Instructions committed per cycle.
    pub commit_width: u32,
    /// Functional-unit issue ports.
    pub fu: FuPoolConfig,
    /// Execution latencies in cycles.
    pub exec: ExecLatencies,
    /// Front-end and register-read depths in cycles.
    pub depths: PipelineDepths,
    /// Issue-window organization.
    pub window: WindowConfig,
    /// Reorder-buffer capacity.
    pub rob_capacity: usize,
    /// Load-queue capacity.
    pub load_queue: usize,
    /// Store-queue capacity.
    pub store_queue: usize,
    /// Physical registers backing the rename map (both banks; §3.1 sizes
    /// each file at 512).
    pub phys_regs: u32,
    /// Data-cache hierarchy (latencies in cycles).
    pub hierarchy: HierarchyConfig,
    /// Branch-predictor organization.
    pub predictor: PredictorConfig,
    /// Branch target buffer entries.
    pub btb_entries: usize,
    /// Extra redirect cycles charged after a mispredicted branch resolves.
    pub redirect_penalty: u64,
    /// Fetch bubbles after a correctly predicted *taken* branch: the fetch
    /// pipeline must be re-steered to the target, which costs more as the
    /// front end deepens (the 21264 pays one bubble; the Pentium 4
    /// dedicated whole "drive" stages to this redirect).
    pub taken_bubble: u64,
    /// Extra bypass cycles when a value crosses between the two integer
    /// clusters (the 21264's clustered backend pays 1). Instructions are
    /// slotted round-robin; 0 disables clustering (the study's default —
    /// the paper assumes full bypass between issue and execute).
    pub cross_cluster_penalty: u64,
}

impl CoreConfig {
    /// The Alpha-21264-like baseline at its native clock: 4-wide, 64 KB
    /// 3-cycle DL1, 2 MB L2, 32-entry single-cycle window, 80-entry ROB,
    /// 512-entry register files, tournament predictor.
    #[must_use]
    pub fn alpha_like() -> Self {
        Self {
            fetch_width: 4,
            dispatch_width: 4,
            commit_width: 8,
            fu: FuPoolConfig::alpha_like(),
            exec: ExecLatencies::alpha21264(),
            depths: PipelineDepths::alpha_like(),
            window: WindowConfig::Conventional {
                capacity: 32,
                wakeup: 1,
            },
            rob_capacity: 80,
            load_queue: 32,
            store_queue: 32,
            phys_regs: 64 + 1024,
            hierarchy: HierarchyConfig::alpha_like(3, 7, 60),
            predictor: PredictorConfig::alpha_tournament(),
            btb_entries: 4096,
            redirect_penalty: 1,
            taken_bubble: 1,
            cross_cluster_penalty: 0,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.fetch_width == 0 || self.dispatch_width == 0 || self.commit_width == 0 {
            return Err("widths must be positive".into());
        }
        if self.rob_capacity < self.window.capacity() {
            return Err("ROB smaller than issue window".into());
        }
        if self.phys_regs < 64 + self.rob_capacity as u32 {
            return Err("too few physical registers for the ROB".into());
        }
        if let WindowConfig::Conventional { wakeup: 0, .. } = self.window {
            return Err("wakeup latency must be at least one cycle".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_preset_is_valid() {
        assert!(CoreConfig::alpha_like().validate().is_ok());
    }

    #[test]
    fn front_end_depth_sums_regions() {
        let d = PipelineDepths::alpha_like();
        assert_eq!(d.front_end(), 5);
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let mut c = CoreConfig::alpha_like();
        c.rob_capacity = 8;
        assert!(c.validate().is_err());

        let mut c = CoreConfig::alpha_like();
        c.phys_regs = 100;
        assert!(c.validate().is_err());

        let mut c = CoreConfig::alpha_like();
        c.fetch_width = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn window_capacity_accessor() {
        assert_eq!(CoreConfig::alpha_like().window.capacity(), 32);
    }
}
