//! Segmented-window experiments — Figure 11 and the §5.2 evaluation.

use std::sync::Arc;

use fo4depth_pipeline::{CoreConfig, WindowConfig};
use fo4depth_uarch::segmented::SelectMode;
use fo4depth_util::harmonic_mean;
use fo4depth_workload::{BenchClass, BenchProfile, TraceArena};

use crate::sim::{arenas_for, run_ooo, run_set, SimParams};

/// Figure 11: IPC (relative to a 1-stage window) of a 32-entry window
/// pipelined into 1–10 wakeup stages, with ideal (full-window) selection.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowDepthCurve {
    /// Benchmark class.
    pub class: BenchClass,
    /// `(stages, relative IPC)` points.
    pub relative_ipc: Vec<(usize, f64)>,
}

impl WindowDepthCurve {
    /// Relative IPC at the deepest staging measured.
    ///
    /// # Panics
    ///
    /// Panics if the curve is empty.
    #[must_use]
    pub fn at_max_depth(&self) -> f64 {
        self.relative_ipc.last().expect("non-empty").1
    }
}

fn config_with_window(window: WindowConfig) -> CoreConfig {
    let mut cfg = CoreConfig::alpha_like();
    cfg.window = window;
    cfg
}

fn class_ipc(
    arenas: &[Arc<TraceArena>],
    cfg: &CoreConfig,
    params: &SimParams,
    class: BenchClass,
) -> Option<f64> {
    let selected: Vec<Arc<TraceArena>> = arenas
        .iter()
        .filter(|a| a.profile().class == class)
        .cloned()
        .collect();
    if selected.is_empty() {
        return None;
    }
    let outcomes = run_set(&selected, |a| run_ooo(cfg, a, params, false));
    harmonic_mean(outcomes.iter().map(|o| o.result.ipc()))
}

/// Runs Figure 11 over the given stage counts. The first entry anchors the
/// baseline (the paper uses a 1-stage, i.e. conventional, window).
///
/// # Panics
///
/// Panics if `stage_counts` is empty.
#[must_use]
pub fn window_depth_sweep(
    profiles: &[BenchProfile],
    params: &SimParams,
    stage_counts: &[usize],
) -> Vec<WindowDepthCurve> {
    assert!(!stage_counts.is_empty(), "need at least one staging");
    let classes: Vec<BenchClass> = [
        BenchClass::Integer,
        BenchClass::VectorFp,
        BenchClass::NonVectorFp,
    ]
    .into_iter()
    .filter(|&c| profiles.iter().any(|p| p.class == c))
    .collect();
    let arenas = arenas_for(profiles, params);

    // Absolute IPC per (stage count, class).
    let ipc_table: Vec<Vec<f64>> = stage_counts
        .iter()
        .map(|&stages| {
            let cfg = config_with_window(WindowConfig::Segmented {
                capacity: 32,
                stages,
                select: SelectMode::Ideal,
            });
            classes
                .iter()
                .map(|&class| class_ipc(&arenas, &cfg, params, class).expect("class present"))
                .collect()
        })
        .collect();

    classes
        .iter()
        .enumerate()
        .map(|(ci, &class)| WindowDepthCurve {
            class,
            relative_ipc: stage_counts
                .iter()
                .enumerate()
                .map(|(si, &stages)| (stages, ipc_table[si][ci] / ipc_table[0][ci]))
                .collect(),
        })
        .collect()
}

/// §5.2: the pre-selection evaluation. Compares the Figure 12 organization
/// (4 stages × 8 entries, quotas 5/2/1, stage-1 fan-in 16) against a
/// single-cycle 32-entry window with full select fan-in, returning the IPC
/// ratio per class.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectEval {
    /// Class measured.
    pub class: BenchClass,
    /// IPC of the conventional single-cycle window.
    pub conventional_ipc: f64,
    /// IPC of the Figure 12 segmented window with pre-selection.
    pub segmented_ipc: f64,
}

impl SelectEval {
    /// Fractional IPC loss of the segmented design (positive = loss).
    #[must_use]
    pub fn loss(&self) -> f64 {
        1.0 - self.segmented_ipc / self.conventional_ipc
    }
}

/// Runs the §5.2 comparison for every class present in `profiles`.
#[must_use]
pub fn select_eval(profiles: &[BenchProfile], params: &SimParams) -> Vec<SelectEval> {
    let conventional = config_with_window(WindowConfig::Conventional {
        capacity: 32,
        wakeup: 1,
    });
    let segmented = config_with_window(WindowConfig::Segmented {
        capacity: 32,
        stages: 4,
        select: SelectMode::figure12(),
    });
    let arenas = arenas_for(profiles, params);
    [
        BenchClass::Integer,
        BenchClass::VectorFp,
        BenchClass::NonVectorFp,
    ]
    .into_iter()
    .filter_map(|class| {
        let conv = class_ipc(&arenas, &conventional, params, class)?;
        let seg = class_ipc(&arenas, &segmented, params, class)?;
        Some(SelectEval {
            class,
            conventional_ipc: conv,
            segmented_ipc: seg,
        })
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fo4depth_workload::profiles;

    fn params() -> SimParams {
        SimParams {
            warmup: 4_000,
            measure: 16_000,
            seed: 1,
        }
    }

    #[test]
    fn deeper_window_staging_costs_ipc() {
        let profs = vec![
            profiles::by_name("164.gzip").unwrap(),
            profiles::by_name("171.swim").unwrap(),
        ];
        let curves = window_depth_sweep(&profs, &params(), &[1, 4, 10]);
        for c in &curves {
            assert!((c.relative_ipc[0].1 - 1.0).abs() < 1e-12, "baseline is 1");
            assert!(
                c.at_max_depth() <= 1.001,
                "{:?} gained IPC from staging",
                c.class
            );
        }
    }

    #[test]
    fn integer_hurts_more_than_fp_from_staging() {
        // Paper: −11 % integer vs −5 % FP at 10 stages.
        let profs = vec![
            profiles::by_name("197.parser").unwrap(),
            profiles::by_name("171.swim").unwrap(),
        ];
        let curves = window_depth_sweep(&profs, &params(), &[1, 10]);
        let int = curves
            .iter()
            .find(|c| c.class == BenchClass::Integer)
            .unwrap()
            .at_max_depth();
        let vec = curves
            .iter()
            .find(|c| c.class == BenchClass::VectorFp)
            .unwrap()
            .at_max_depth();
        assert!(
            int < vec,
            "integer {int} should lose more than vector {vec}"
        );
    }

    #[test]
    fn preselection_costs_little() {
        let profs = vec![profiles::by_name("164.gzip").unwrap()];
        let evals = select_eval(&profs, &params());
        assert_eq!(evals.len(), 1);
        let loss = evals[0].loss();
        assert!(
            (-0.02..0.15).contains(&loss),
            "pre-selection loss {loss} out of band"
        );
    }
}
