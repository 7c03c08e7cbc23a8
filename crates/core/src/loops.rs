//! Critical-loop sensitivity — Figure 8.
//!
//! At the Alpha 21264 base configuration, stretch each of the three
//! critical loops *independently* by 0–15 cycles and record IPC relative to
//! the unstretched machine:
//!
//! * **issue–wakeup** — extra cycles before a dependent instruction can
//!   issue after its producer;
//! * **load-use** — extra cycles of DL1 latency;
//! * **branch misprediction** — extra cycles of redirect after a
//!   mispredicted branch resolves.
//!
//! The paper's ordering: IPC is most sensitive to issue–wakeup (it taxes
//! every dependence), then load-use, then branch misprediction (paid only
//! on mispredicts).

use fo4depth_pipeline::{CoreConfig, WindowConfig};
use fo4depth_util::harmonic_mean;
use fo4depth_workload::BenchProfile;
use serde::{Deserialize, Serialize};

use crate::sim::{arenas_for, run_ooo, run_set, SimParams};

/// The three §4.6 critical loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CriticalLoop {
    /// Issue → wakeup of dependents.
    IssueWakeup,
    /// Load issue → dependent use (DL1 access).
    LoadUse,
    /// Branch prediction → resolution.
    BranchMispredict,
}

impl CriticalLoop {
    /// All three loops, in the paper's sensitivity order.
    #[must_use]
    pub fn all() -> [CriticalLoop; 3] {
        [
            CriticalLoop::IssueWakeup,
            CriticalLoop::LoadUse,
            CriticalLoop::BranchMispredict,
        ]
    }

    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CriticalLoop::IssueWakeup => "issue-wakeup",
            CriticalLoop::LoadUse => "load-use",
            CriticalLoop::BranchMispredict => "branch mis-pred",
        }
    }
}

/// Returns the base config with one loop stretched by `extra` cycles.
#[must_use]
pub fn stretched_config(base: &CoreConfig, which: CriticalLoop, extra: u64) -> CoreConfig {
    let mut cfg = base.clone();
    match which {
        CriticalLoop::IssueWakeup => {
            let WindowConfig::Conventional { capacity, wakeup } = cfg.window else {
                panic!("loop stretching expects a conventional window");
            };
            cfg.window = WindowConfig::Conventional {
                capacity,
                wakeup: wakeup + extra,
            };
        }
        CriticalLoop::LoadUse => {
            cfg.hierarchy.l1_latency += extra;
        }
        CriticalLoop::BranchMispredict => {
            cfg.redirect_penalty += extra;
        }
    }
    cfg
}

/// One curve of Figure 8: relative IPC at each stretch amount.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopCurve {
    /// Which loop was stretched.
    pub which: CriticalLoop,
    /// `(extra cycles, harmonic-mean IPC relative to baseline)` points.
    pub relative_ipc: Vec<(u64, f64)>,
}

impl LoopCurve {
    /// Relative IPC at the maximum stretch (the curve's right edge).
    ///
    /// # Panics
    ///
    /// Panics if the curve is empty.
    #[must_use]
    pub fn final_relative_ipc(&self) -> f64 {
        self.relative_ipc.last().expect("non-empty curve").1
    }
}

/// Runs Figure 8 with stretches 0..=15 cycles.
#[must_use]
pub fn critical_loops(profiles: &[BenchProfile], params: &SimParams) -> Vec<LoopCurve> {
    critical_loops_with(profiles, params, &[0, 1, 2, 4, 6, 8, 10, 12, 15])
}

/// [`critical_loops`] with explicit stretch amounts (0 must be included to
/// anchor the baseline).
///
/// # Panics
///
/// Panics if `stretches` does not start with 0.
#[must_use]
pub fn critical_loops_with(
    profiles: &[BenchProfile],
    params: &SimParams,
    stretches: &[u64],
) -> Vec<LoopCurve> {
    assert_eq!(stretches.first(), Some(&0), "first stretch must be zero");
    let base = CoreConfig::alpha_like();
    let arenas = arenas_for(profiles, params);

    let mean_ipc = |cfg: &CoreConfig| -> f64 {
        let outcomes = run_set(&arenas, |a| run_ooo(cfg, a, params, false));
        harmonic_mean(outcomes.iter().map(|o| o.result.ipc())).expect("positive IPCs")
    };
    let baseline = mean_ipc(&base);

    CriticalLoop::all()
        .into_iter()
        .map(|which| LoopCurve {
            which,
            relative_ipc: stretches
                .iter()
                .map(|&extra| {
                    let ipc = if extra == 0 {
                        baseline
                    } else {
                        mean_ipc(&stretched_config(&base, which, extra))
                    };
                    (extra, ipc / baseline)
                })
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fo4depth_workload::profiles;

    #[test]
    fn stretching_any_loop_hurts() {
        let profs = vec![profiles::by_name("164.gzip").unwrap()];
        let params = SimParams {
            warmup: 3_000,
            measure: 12_000,
            seed: 1,
        };
        let curves = critical_loops_with(&profs, &params, &[0, 8]);
        for c in &curves {
            assert!((c.relative_ipc[0].1 - 1.0).abs() < 1e-12);
            assert!(
                c.final_relative_ipc() < 1.0,
                "{} did not hurt",
                c.which.label()
            );
        }
    }

    #[test]
    fn wakeup_is_most_sensitive_loop() {
        // The paper's Figure 8 ordering on integer code.
        let profs = vec![
            profiles::by_name("164.gzip").unwrap(),
            profiles::by_name("300.twolf").unwrap(),
        ];
        let params = SimParams {
            warmup: 4_000,
            measure: 16_000,
            seed: 1,
        };
        // Under the max(exec, wakeup) recurrence a short stretch spares
        // long-latency consumers, so use a stretch that clearly exceeds the
        // common operation latencies (the full-set Figure 8 integration
        // test covers the fine-grained curve).
        let curves = critical_loops_with(&profs, &params, &[0, 10]);
        let get = |w: CriticalLoop| {
            curves
                .iter()
                .find(|c| c.which == w)
                .expect("curve")
                .final_relative_ipc()
        };
        let wakeup = get(CriticalLoop::IssueWakeup);
        let branch = get(CriticalLoop::BranchMispredict);
        assert!(
            wakeup < branch,
            "wakeup {wakeup} should hurt more than branch {branch}"
        );
    }

    #[test]
    fn stretched_config_changes_only_target_loop() {
        let base = CoreConfig::alpha_like();
        let s = stretched_config(&base, CriticalLoop::LoadUse, 5);
        assert_eq!(s.hierarchy.l1_latency, base.hierarchy.l1_latency + 5);
        assert_eq!(s.window, base.window);
        assert_eq!(s.redirect_penalty, base.redirect_penalty);
    }
}
