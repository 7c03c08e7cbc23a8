//! Ablations of the study's design choices (DESIGN.md §4) and the §6
//! related-work comparison of pipelined-scheduler designs.
//!
//! These go beyond the paper's own tables: they quantify how much each
//! modelling decision matters, which is exactly what a reader of DESIGN.md
//! should want to see.

use fo4depth_fo4::{Fo4, Rounding};
use fo4depth_pipeline::{CoreConfig, PredictorConfig, WindowConfig};
use fo4depth_uarch::segmented::SelectMode;
use fo4depth_util::harmonic_mean;
use fo4depth_workload::BenchProfile;

use crate::latency::{StructureSet, MEMORY_CYCLES, MEMORY_LATENCY_FO4};
use crate::scaler::{MemoryConvention, ScaleOptions, ScaledMachine};
use crate::sim::{arenas_for, run_ooo, run_set, SimParams};
use crate::sweep::{CoreKind, DepthSweep, SweepPoint};

// ---------------------------------------------------------------------
// §6 comparison: four ways to build a fast scheduler
// ---------------------------------------------------------------------

/// The scheduler designs compared in the §6 discussion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerDesign {
    /// Ideal single-cycle wakeup+select (the baseline everything is
    /// measured against).
    IdealSingleCycle,
    /// Naive two-cycle pipelining: dependents can never issue back-to-back
    /// (Stark et al. measure up to 27 % IPC loss for this).
    NaivePipelined,
    /// The paper's segmented window (4 stages, Figure 12 pre-selection).
    Segmented,
    /// Stark/Brown/Patt grandparent wakeup with reschedule-on-collision.
    SpeculativeWakeup,
}

impl SchedulerDesign {
    /// All four designs, baseline first.
    #[must_use]
    pub fn all() -> [SchedulerDesign; 4] {
        [
            SchedulerDesign::IdealSingleCycle,
            SchedulerDesign::NaivePipelined,
            SchedulerDesign::Segmented,
            SchedulerDesign::SpeculativeWakeup,
        ]
    }

    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SchedulerDesign::IdealSingleCycle => "ideal 1-cycle",
            SchedulerDesign::NaivePipelined => "naive 2-cycle",
            SchedulerDesign::Segmented => "segmented (Fig 12)",
            SchedulerDesign::SpeculativeWakeup => "speculative wakeup",
        }
    }

    /// The window configuration realizing this design on a 32-entry window.
    #[must_use]
    pub fn window(self) -> WindowConfig {
        match self {
            SchedulerDesign::IdealSingleCycle => WindowConfig::Conventional {
                capacity: 32,
                wakeup: 1,
            },
            SchedulerDesign::NaivePipelined => WindowConfig::Conventional {
                capacity: 32,
                wakeup: 2,
            },
            SchedulerDesign::Segmented => WindowConfig::Segmented {
                capacity: 32,
                stages: 4,
                select: SelectMode::figure12(),
            },
            SchedulerDesign::SpeculativeWakeup => WindowConfig::Speculative {
                capacity: 32,
                reschedule_penalty: 2,
            },
        }
    }
}

/// IPC of one scheduler design relative to the ideal single-cycle window.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerResult {
    /// The design measured.
    pub design: SchedulerDesign,
    /// Harmonic-mean IPC over the benchmark set.
    pub ipc: f64,
    /// IPC relative to [`SchedulerDesign::IdealSingleCycle`].
    pub relative: f64,
}

/// Runs the §6 scheduler comparison at the Alpha base configuration.
///
/// # Panics
///
/// Panics if `profiles` is empty.
#[must_use]
pub fn scheduler_comparison(profiles: &[BenchProfile], params: &SimParams) -> Vec<SchedulerResult> {
    assert!(!profiles.is_empty(), "need benchmarks");
    let arenas = arenas_for(profiles, params);
    let ipc_of = |design: SchedulerDesign| -> f64 {
        let mut cfg = CoreConfig::alpha_like();
        cfg.window = design.window();
        let outcomes = run_set(&arenas, |a| run_ooo(&cfg, a, params, false));
        harmonic_mean(outcomes.iter().map(|o| o.result.ipc())).expect("positive IPC")
    };
    let baseline = ipc_of(SchedulerDesign::IdealSingleCycle);
    SchedulerDesign::all()
        .into_iter()
        .map(|design| {
            let ipc = if design == SchedulerDesign::IdealSingleCycle {
                baseline
            } else {
                ipc_of(design)
            };
            SchedulerResult {
                design,
                ipc,
                relative: ipc / baseline,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Modelling-choice ablations
// ---------------------------------------------------------------------

/// Sweeps the out-of-order core with explicit [`ScaleOptions`].
#[must_use]
pub fn sweep_with_options(
    profiles: &[BenchProfile],
    params: &SimParams,
    points: &[Fo4],
    options: ScaleOptions,
) -> DepthSweep {
    let structures = StructureSet::alpha_21264();
    let arenas = arenas_for(profiles, params);
    let points = points
        .iter()
        .map(|&t| {
            let machine = ScaledMachine::with_options(&structures, t, options);
            let outcomes = run_set(&arenas, |a| run_ooo(&machine.config, a, params, false));
            SweepPoint {
                t_useful: t.get(),
                period_ps: machine.period_ps(),
                outcomes,
            }
        })
        .collect();
    DepthSweep {
        core: CoreKind::OutOfOrder,
        overhead: options.overhead.get(),
        points,
    }
}

/// Result of the memory-convention ablation: the integer optimum under
/// each DRAM-scaling convention.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryConventionAblation {
    /// Sweep with memory constant in cycles (the study's convention).
    pub constant_cycles: DepthSweep,
    /// Sweep with memory constant in absolute time.
    pub absolute_time: DepthSweep,
}

/// Runs the memory-convention ablation (documents the load-bearing choice
/// discussed in DESIGN.md §4).
#[must_use]
pub fn memory_convention_ablation(
    profiles: &[BenchProfile],
    params: &SimParams,
    points: &[Fo4],
) -> MemoryConventionAblation {
    MemoryConventionAblation {
        constant_cycles: sweep_with_options(
            profiles,
            params,
            points,
            ScaleOptions {
                memory: MemoryConvention::ConstantCycles(MEMORY_CYCLES),
                ..ScaleOptions::default()
            },
        ),
        absolute_time: sweep_with_options(
            profiles,
            params,
            points,
            ScaleOptions {
                memory: MemoryConvention::AbsoluteTime(Fo4::new(MEMORY_LATENCY_FO4)),
                ..ScaleOptions::default()
            },
        ),
    }
}

/// Result of the rounding ablation: the integer optimum under each
/// latency-quantization rule.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundingAblation {
    /// The paper's ceil rule.
    pub ceil: DepthSweep,
    /// Round-to-nearest (optimistic time borrowing).
    pub nearest: DepthSweep,
}

/// Runs the rounding-rule ablation.
#[must_use]
pub fn rounding_ablation(
    profiles: &[BenchProfile],
    params: &SimParams,
    points: &[Fo4],
) -> RoundingAblation {
    RoundingAblation {
        ceil: sweep_with_options(
            profiles,
            params,
            points,
            ScaleOptions {
                rounding: Rounding::Ceil,
                ..ScaleOptions::default()
            },
        ),
        nearest: sweep_with_options(
            profiles,
            params,
            points,
            ScaleOptions {
                rounding: Rounding::Nearest,
                ..ScaleOptions::default()
            },
        ),
    }
}

/// One point of the predictor-design ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorPoint {
    /// Display label of the design.
    pub label: String,
    /// Harmonic-mean IPC at the Alpha configuration.
    pub ipc: f64,
    /// Harmonic-mean mispredict rate over the set.
    pub mispredict_rate: f64,
}

/// Compares branch-predictor designs at the Alpha configuration: deeper
/// pipelines pay more per mispredict, so predictor quality directly trades
/// against the optimal clock. Includes the perceptron predictor published
/// the year before the paper.
///
/// Caveat for interpreting the absolute ordering: the synthetic branch
/// streams carry per-site bias and first-order inter-branch correlation but
/// none of the rich local patterns of real code, which flatters
/// plain per-PC counters relative to history-based designs (see the
/// workload crate's substitution notes).
#[must_use]
pub fn predictor_ablation(profiles: &[BenchProfile], params: &SimParams) -> Vec<PredictorPoint> {
    let designs: Vec<(&str, PredictorConfig)> = vec![
        ("always-taken", PredictorConfig::AlwaysTaken),
        ("bimodal 4K", PredictorConfig::Bimodal { entries: 4096 }),
        ("gshare 4K", PredictorConfig::Gshare { entries: 4096 }),
        ("tournament (21264)", PredictorConfig::alpha_tournament()),
        (
            "perceptron 512x24",
            PredictorConfig::Perceptron {
                rows: 512,
                history_bits: 24,
            },
        ),
    ];
    let arenas = arenas_for(profiles, params);
    designs
        .into_iter()
        .map(|(label, predictor)| {
            let mut cfg = CoreConfig::alpha_like();
            cfg.predictor = predictor;
            let outcomes = run_set(&arenas, |a| run_ooo(&cfg, a, params, false));
            PredictorPoint {
                label: label.to_string(),
                ipc: harmonic_mean(outcomes.iter().map(|o| o.result.ipc())).expect("positive IPC"),
                mispredict_rate: outcomes
                    .iter()
                    .map(|o| o.result.mispredict_rate())
                    .sum::<f64>()
                    / outcomes.len() as f64,
            }
        })
        .collect()
}

/// One point of the clustered-bypass ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterPoint {
    /// Cross-cluster bypass penalty in cycles (0 = unified backend).
    pub penalty: u64,
    /// Harmonic-mean IPC at the Alpha configuration.
    pub ipc: f64,
}

/// Measures the cost of a 21264-style clustered integer backend (the
/// paper's §3.3 assumes full bypass; the real machine paid one cycle
/// across clusters).
#[must_use]
pub fn cluster_ablation(
    profiles: &[BenchProfile],
    params: &SimParams,
    penalties: &[u64],
) -> Vec<ClusterPoint> {
    let arenas = arenas_for(profiles, params);
    penalties
        .iter()
        .map(|&penalty| {
            let mut cfg = CoreConfig::alpha_like();
            cfg.cross_cluster_penalty = penalty;
            let outcomes = run_set(&arenas, |a| run_ooo(&cfg, a, params, false));
            ClusterPoint {
                penalty,
                ipc: harmonic_mean(outcomes.iter().map(|o| o.result.ipc())).expect("positive IPC"),
            }
        })
        .collect()
}

/// One point of the MSHR (miss-level-parallelism) ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MshrPoint {
    /// MSHR count (0 = unbounded).
    pub mshr_limit: usize,
    /// Harmonic-mean IPC at the Alpha configuration.
    pub ipc: f64,
}

/// Sweeps the MSHR limit at the Alpha configuration — how much of
/// performance rests on overlapping misses.
#[must_use]
pub fn mshr_ablation(
    profiles: &[BenchProfile],
    params: &SimParams,
    limits: &[usize],
) -> Vec<MshrPoint> {
    let arenas = arenas_for(profiles, params);
    limits
        .iter()
        .map(|&mshr_limit| {
            let mut cfg = CoreConfig::alpha_like();
            cfg.hierarchy.mshr_limit = mshr_limit;
            let outcomes = run_set(&arenas, |a| run_ooo(&cfg, a, params, false));
            MshrPoint {
                mshr_limit,
                ipc: harmonic_mean(outcomes.iter().map(|o| o.result.ipc())).expect("positive IPC"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fo4depth_workload::{profiles, BenchClass};

    fn params() -> SimParams {
        SimParams {
            warmup: 4_000,
            measure: 15_000,
            seed: 1,
        }
    }

    #[test]
    fn scheduler_ordering_matches_section6() {
        // Speculative wakeup and the segmented window should both be far
        // closer to the ideal scheduler than naive pipelining.
        let profs = vec![
            profiles::by_name("164.gzip").unwrap(),
            profiles::by_name("197.parser").unwrap(),
        ];
        let results = scheduler_comparison(&profs, &params());
        let rel = |d: SchedulerDesign| {
            results
                .iter()
                .find(|r| r.design == d)
                .expect("design present")
                .relative
        };
        assert!((rel(SchedulerDesign::IdealSingleCycle) - 1.0).abs() < 1e-12);
        let naive = rel(SchedulerDesign::NaivePipelined);
        let seg = rel(SchedulerDesign::Segmented);
        let spec = rel(SchedulerDesign::SpeculativeWakeup);
        assert!(naive < 1.0, "naive pipelining must cost IPC, got {naive}");
        // Both fast-scheduler designs stay within a hair of (or beat) naive
        // pipelining while being clockable — the §6 argument.
        assert!(
            seg > naive - 0.01,
            "segmented {seg} far below naive {naive}"
        );
        assert!(
            spec >= naive - 1e-9,
            "speculative {spec} must not lose to naive {naive}"
        );
        // Stark et al.: speculative wakeup within a few percent of ideal.
        assert!(spec > 0.95, "speculative too lossy: {spec}");
    }

    #[test]
    fn memory_convention_moves_the_optimum() {
        // Constant-time memory pushes the optimum to much shallower logic
        // depths than constant-cycle memory — the ablation behind the
        // DESIGN.md discussion.
        let profs = vec![
            profiles::by_name("181.mcf").unwrap(),
            profiles::by_name("164.gzip").unwrap(),
        ];
        let points: Vec<Fo4> = [3.0, 6.0, 12.0, 16.0].into_iter().map(Fo4::new).collect();
        let ab = memory_convention_ablation(&profs, &params(), &points);
        let (cc, _) = ab.constant_cycles.class_optimum(BenchClass::Integer);
        let (at, _) = ab.absolute_time.class_optimum(BenchClass::Integer);
        assert!(
            at >= cc,
            "absolute-time optimum {at} should be at least as shallow as constant-cycle {cc}"
        );
        assert!(
            at >= 12.0,
            "absolute-time optimum should sit shallow, got {at}"
        );
    }

    #[test]
    fn cluster_penalty_monotonically_costs_ipc() {
        let profs = vec![profiles::by_name("197.parser").unwrap()];
        let pts = cluster_ablation(&profs, &params(), &[0, 1, 2]);
        assert!(pts[0].ipc >= pts[1].ipc);
        assert!(pts[1].ipc >= pts[2].ipc);
        assert!(pts[2].ipc < pts[0].ipc, "2-cycle cross-cluster must cost");
    }

    #[test]
    fn fewer_mshrs_cost_ipc_on_memory_bound_code() {
        let profs = vec![profiles::by_name("181.mcf").unwrap()];
        let pts = mshr_ablation(&profs, &params(), &[1, 8, 0]);
        assert!(pts[0].ipc < pts[1].ipc, "1 MSHR must be worse than 8");
        assert!(
            pts[1].ipc <= pts[2].ipc + 1e-9,
            "8 MSHRs cannot beat unbounded"
        );
    }

    #[test]
    fn better_predictors_give_more_ipc() {
        let profs = vec![profiles::by_name("176.gcc").unwrap()];
        let pts = predictor_ablation(&profs, &params());
        let ipc_of = |label: &str| {
            pts.iter()
                .find(|p| p.label.starts_with(label))
                .expect("design present")
                .ipc
        };
        // Robust orderings only (see the doc caveat on synthetic streams):
        // a real predictor always beats always-taken, and designs that can
        // exploit per-site bias beat pure global indexing on these streams.
        for label in ["bimodal", "gshare", "tournament", "perceptron"] {
            assert!(
                ipc_of(label) > ipc_of("always-taken"),
                "{label} must beat always-taken"
            );
        }
        assert!(ipc_of("tournament") > ipc_of("gshare"));
        assert!(ipc_of("perceptron") > ipc_of("gshare"));
    }

    #[test]
    fn rounding_rule_changes_latencies_but_not_the_story() {
        let profs = vec![profiles::by_name("164.gzip").unwrap()];
        let points: Vec<Fo4> = [4.0, 6.0, 9.0].into_iter().map(Fo4::new).collect();
        let ab = rounding_ablation(&profs, &params(), &points);
        // Nearest-rounding is strictly optimistic: BIPS at every point is
        // at least the ceil value.
        for (c, n) in ab
            .ceil
            .series(Some(BenchClass::Integer))
            .iter()
            .zip(ab.nearest.series(Some(BenchClass::Integer)).iter())
        {
            assert!(n.1 >= c.1 * 0.98, "nearest {n:?} far below ceil {c:?}");
        }
    }
}
