//! Core configuration: widths, per-region pipeline depths, and structure
//! latencies — all in cycles at the target clock.

use fo4depth_uarch::cache::HierarchyConfig;
use fo4depth_uarch::fu::{ExecLatencies, FuPoolConfig};
use fo4depth_util::hash::Fnv64;

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

    /// Absorbs every depth into `h` (part of [`CoreConfig::digest`]).
    pub fn digest(&self, h: &mut Fnv64) {
        let Self {
            fetch,
            decode,
            rename,
            issue,
            regread,
        } = *self;
        for v in [fetch, decode, rename, issue, regread] {
            h.write_u64(v);
        }
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

    /// Absorbs the organization and its geometry into `h` (part of
    /// [`CoreConfig::digest`]).
    pub fn digest(&self, h: &mut Fnv64) {
        match *self {
            PredictorConfig::Tournament {
                local_sites,
                local_history_bits,
                global_entries,
            } => {
                h.write_str("tournament");
                h.write_u64(local_sites as u64);
                h.write_u64(u64::from(local_history_bits));
                h.write_u64(global_entries as u64);
            }
            PredictorConfig::Bimodal { entries } => {
                h.write_str("bimodal");
                h.write_u64(entries as u64);
            }
            PredictorConfig::Gshare { entries } => {
                h.write_str("gshare");
                h.write_u64(entries as u64);
            }
            PredictorConfig::Perceptron { rows, history_bits } => {
                h.write_str("perceptron");
                h.write_u64(rows as u64);
                h.write_u64(history_bits as u64);
            }
            PredictorConfig::AlwaysTaken => h.write_str("always_taken"),
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

    /// Absorbs the organization and its parameters into `h` (part of
    /// [`CoreConfig::digest`]).
    pub fn digest(&self, h: &mut Fnv64) {
        match self {
            WindowConfig::Conventional { capacity, wakeup } => {
                h.write_str("conventional");
                h.write_u64(*capacity as u64);
                h.write_u64(*wakeup);
            }
            WindowConfig::Segmented {
                capacity,
                stages,
                select,
            } => {
                h.write_str("segmented");
                h.write_u64(*capacity as u64);
                h.write_u64(*stages as u64);
                select.digest(h);
            }
            WindowConfig::Speculative {
                capacity,
                reschedule_penalty,
            } => {
                h.write_str("speculative");
                h.write_u64(*capacity as u64);
                h.write_u64(*reschedule_penalty);
            }
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

    /// Absorbs every field into `h`: equal configurations digest equally,
    /// and a change to any field (in any window or predictor variant)
    /// changes the digest. Written out field by field — the destructuring
    /// below stops compiling when a field is added without being hashed.
    pub fn digest(&self, h: &mut Fnv64) {
        let Self {
            fetch_width,
            dispatch_width,
            commit_width,
            fu,
            exec,
            depths,
            window,
            rob_capacity,
            load_queue,
            store_queue,
            phys_regs,
            hierarchy,
            predictor,
            btb_entries,
            redirect_penalty,
            taken_bubble,
            cross_cluster_penalty,
        } = self;
        h.write_u64(u64::from(*fetch_width));
        h.write_u64(u64::from(*dispatch_width));
        h.write_u64(u64::from(*commit_width));
        fu.digest(h);
        exec.digest(h);
        depths.digest(h);
        window.digest(h);
        h.write_u64(*rob_capacity as u64);
        h.write_u64(*load_queue as u64);
        h.write_u64(*store_queue as u64);
        h.write_u64(u64::from(*phys_regs));
        hierarchy.digest(h);
        predictor.digest(h);
        h.write_u64(*btb_entries as u64);
        h.write_u64(*redirect_penalty);
        h.write_u64(*taken_bubble);
        h.write_u64(*cross_cluster_penalty);
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

    fn digest_of(c: &CoreConfig) -> u64 {
        let mut h = Fnv64::new();
        c.digest(&mut h);
        h.finish()
    }

    #[test]
    fn digest_changes_with_every_field_and_variant() {
        use fo4depth_uarch::segmented::SelectMode;
        type Edit = fn(&mut CoreConfig);
        let segmented = |c: &mut CoreConfig| {
            c.window = WindowConfig::Segmented {
                capacity: 32,
                stages: 4,
                select: SelectMode::Ideal,
            };
        };
        let speculative = |c: &mut CoreConfig| {
            c.window = WindowConfig::Speculative {
                capacity: 32,
                reschedule_penalty: 2,
            };
        };
        let edits: &[(&str, Edit)] = &[
            ("fetch_width", |c| c.fetch_width += 1),
            ("dispatch_width", |c| c.dispatch_width += 1),
            ("commit_width", |c| c.commit_width += 1),
            ("fu.int_units", |c| c.fu.int_units += 1),
            ("fu.fp_units", |c| c.fu.fp_units += 1),
            ("fu.mem_ports", |c| c.fu.mem_ports += 1),
            ("fu.issue_width", |c| c.fu.issue_width += 1),
            ("exec.int_alu", |c| c.exec.int_alu += 1),
            ("exec.int_mult", |c| c.exec.int_mult += 1),
            ("exec.fp_add", |c| c.exec.fp_add += 1),
            ("exec.fp_mult", |c| c.exec.fp_mult += 1),
            ("exec.fp_div", |c| c.exec.fp_div += 1),
            ("exec.fp_sqrt", |c| c.exec.fp_sqrt += 1),
            ("exec.agen", |c| c.exec.agen += 1),
            ("depths.fetch", |c| c.depths.fetch += 1),
            ("depths.decode", |c| c.depths.decode += 1),
            ("depths.rename", |c| c.depths.rename += 1),
            ("depths.issue", |c| c.depths.issue += 1),
            ("depths.regread", |c| c.depths.regread += 1),
            ("conventional.capacity", |c| {
                c.window = WindowConfig::Conventional {
                    capacity: 33,
                    wakeup: 1,
                };
            }),
            ("conventional.wakeup", |c| {
                c.window = WindowConfig::Conventional {
                    capacity: 32,
                    wakeup: 2,
                };
            }),
            ("segmented", segmented),
            ("segmented.capacity", |c| {
                c.window = WindowConfig::Segmented {
                    capacity: 33,
                    stages: 4,
                    select: SelectMode::Ideal,
                };
            }),
            ("segmented.stages", |c| {
                c.window = WindowConfig::Segmented {
                    capacity: 32,
                    stages: 3,
                    select: SelectMode::Ideal,
                };
            }),
            ("segmented.preselect", |c| {
                c.window = WindowConfig::Segmented {
                    capacity: 32,
                    stages: 4,
                    select: SelectMode::figure12(),
                };
            }),
            ("segmented.preselect.quotas", |c| {
                c.window = WindowConfig::Segmented {
                    capacity: 32,
                    stages: 4,
                    select: SelectMode::PreSelect { quotas: vec![5, 2] },
                };
            }),
            ("speculative", speculative),
            ("speculative.capacity", |c| {
                c.window = WindowConfig::Speculative {
                    capacity: 33,
                    reschedule_penalty: 2,
                };
            }),
            ("speculative.reschedule_penalty", |c| {
                c.window = WindowConfig::Speculative {
                    capacity: 32,
                    reschedule_penalty: 3,
                };
            }),
            ("rob_capacity", |c| c.rob_capacity += 1),
            ("load_queue", |c| c.load_queue += 1),
            ("store_queue", |c| c.store_queue += 1),
            ("phys_regs", |c| c.phys_regs += 1),
            ("hierarchy.l1_capacity", |c| c.hierarchy.l1_capacity *= 2),
            ("hierarchy.l1_ways", |c| c.hierarchy.l1_ways += 1),
            ("hierarchy.l2_capacity", |c| c.hierarchy.l2_capacity *= 2),
            ("hierarchy.l2_ways", |c| c.hierarchy.l2_ways += 1),
            ("hierarchy.line", |c| c.hierarchy.line *= 2),
            ("hierarchy.l1_latency", |c| c.hierarchy.l1_latency += 1),
            ("hierarchy.l2_latency", |c| c.hierarchy.l2_latency += 1),
            ("hierarchy.memory_latency", |c| {
                c.hierarchy.memory_latency += 1;
            }),
            ("hierarchy.mshr_limit", |c| c.hierarchy.mshr_limit += 1),
            ("tournament.local_sites", |c| {
                c.predictor = PredictorConfig::Tournament {
                    local_sites: 2048,
                    local_history_bits: 10,
                    global_entries: 4096,
                };
            }),
            ("tournament.local_history_bits", |c| {
                c.predictor = PredictorConfig::Tournament {
                    local_sites: 1024,
                    local_history_bits: 11,
                    global_entries: 4096,
                };
            }),
            ("tournament.global_entries", |c| {
                c.predictor = PredictorConfig::Tournament {
                    local_sites: 1024,
                    local_history_bits: 10,
                    global_entries: 8192,
                };
            }),
            ("bimodal", |c| {
                c.predictor = PredictorConfig::Bimodal { entries: 4096 };
            }),
            ("bimodal.entries", |c| {
                c.predictor = PredictorConfig::Bimodal { entries: 8192 };
            }),
            ("gshare", |c| {
                c.predictor = PredictorConfig::Gshare { entries: 4096 };
            }),
            ("gshare.entries", |c| {
                c.predictor = PredictorConfig::Gshare { entries: 8192 };
            }),
            ("perceptron", |c| {
                c.predictor = PredictorConfig::Perceptron {
                    rows: 256,
                    history_bits: 24,
                };
            }),
            ("perceptron.rows", |c| {
                c.predictor = PredictorConfig::Perceptron {
                    rows: 512,
                    history_bits: 24,
                };
            }),
            ("perceptron.history_bits", |c| {
                c.predictor = PredictorConfig::Perceptron {
                    rows: 256,
                    history_bits: 25,
                };
            }),
            ("always_taken", |c| {
                c.predictor = PredictorConfig::AlwaysTaken
            }),
            ("btb_entries", |c| c.btb_entries += 1),
            ("redirect_penalty", |c| c.redirect_penalty += 1),
            ("taken_bubble", |c| c.taken_bubble += 1),
            ("cross_cluster_penalty", |c| c.cross_cluster_penalty += 1),
        ];
        let base = CoreConfig::alpha_like();
        assert_eq!(digest_of(&base), digest_of(&base.clone()), "stable");
        let mut seen = std::collections::HashMap::new();
        seen.insert(digest_of(&base), "base");
        for &(name, edit) in edits {
            let mut c = base.clone();
            edit(&mut c);
            assert_ne!(c, base, "{name}: the edit must change the config");
            if let Some(prev) = seen.insert(digest_of(&c), name) {
                panic!("{name} digests like {prev}");
            }
        }
    }

    #[test]
    fn window_capacity_accessor() {
        assert_eq!(CoreConfig::alpha_like().window.capacity(), 32);
    }
}
