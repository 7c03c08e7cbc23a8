//! The experiment registry: every table and figure of the paper, with the
//! result the paper reports, so reproduction checks have a single source of
//! truth (used by the integration tests, the benchmark harness, and
//! EXPERIMENTS.md).

use fo4depth_fo4::Fo4;
use fo4depth_workload::BenchProfile;

use crate::latency::StructureSet;
use crate::sim::SimParams;
use crate::sweep::{depth_sweep_spec, CoreKind, DepthSweep, SweepSpec};

/// One reproducible experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Experiment {
    /// Identifier matching the paper ("Table 1", "Figure 5", "§4.2", …).
    pub id: &'static str,
    /// What it shows.
    pub title: &'static str,
    /// The paper's reported outcome.
    pub paper: &'static str,
    /// The module/binary that regenerates it in this workspace.
    pub target: &'static str,
}

/// Headline numbers the paper reports, as machine-checkable values.
///
/// Integration tests assert our measured optima against these with the
/// tolerance policy of DESIGN.md §6 (optima within ±1 FO4, orderings exact,
/// deltas directionally right).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperHeadlines {
    /// OoO integer optimum (FO4 useful logic per stage).
    pub ooo_integer_optimum: f64,
    /// OoO vector-FP optimum.
    pub ooo_vector_optimum: f64,
    /// OoO non-vector-FP optimum.
    pub ooo_non_vector_optimum: f64,
    /// In-order integer optimum.
    pub inorder_integer_optimum: f64,
    /// Integer optimum with CRAY-1S-style flat memory (§4.2).
    pub cray_memory_optimum: f64,
    /// Per-stage overhead (FO4).
    pub overhead: f64,
    /// Optimal integer clock frequency at 100 nm (GHz).
    pub integer_frequency_ghz: f64,
    /// Integer IPC loss at a 10-stage segmented window (fraction).
    pub segmented_depth10_int_loss: f64,
    /// FP IPC loss at a 10-stage segmented window.
    pub segmented_depth10_fp_loss: f64,
    /// Integer IPC loss of the Figure 12 pre-selection design.
    pub preselect_int_loss: f64,
    /// FP IPC loss of the Figure 12 pre-selection design.
    pub preselect_fp_loss: f64,
    /// Average BIPS gain from per-clock capacity optimization (§4.5).
    pub capacity_gain: f64,
    /// One Cray ECL gate in FO4 (Appendix A).
    pub ecl_gate_fo4: f64,
}

impl PaperHeadlines {
    /// The values stated in the paper.
    #[must_use]
    pub fn isca2002() -> Self {
        Self {
            ooo_integer_optimum: 6.0,
            ooo_vector_optimum: 4.0,
            ooo_non_vector_optimum: 5.0,
            inorder_integer_optimum: 6.0,
            cray_memory_optimum: 11.0,
            overhead: 1.8,
            integer_frequency_ghz: 3.6,
            segmented_depth10_int_loss: 0.11,
            segmented_depth10_fp_loss: 0.05,
            preselect_int_loss: 0.04,
            preselect_fp_loss: 0.01,
            capacity_gain: 0.14,
            ecl_gate_fo4: 1.36,
        }
    }
}

/// One regenerated headline figure: the sweep behind Figure 4a, 4b, or 5.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureResult {
    /// Registry identifier ("Figure 4a", …).
    pub id: &'static str,
    /// Core model the figure uses.
    pub core: CoreKind,
    /// Per-stage overhead (FO4).
    pub overhead: f64,
    /// The regenerated sweep.
    pub sweep: DepthSweep,
}

/// Regenerates the paper's three headline depth-sweep figures — 4a
/// (in-order, zero overhead), 4b (in-order, 1.8 FO4), and 5 (out-of-order,
/// 1.8 FO4) — concurrently on the shared execution pool.
///
/// The figures are independent, so they fan out as three tasks whose inner
/// (point × benchmark) grids share the same workers: a short figure's lanes
/// drain into a long one instead of idling at a per-figure barrier. Results
/// are bit-identical to running each figure serially.
#[must_use]
pub fn run_headline_figures(
    profiles: &[BenchProfile],
    params: &SimParams,
    points: &[Fo4],
) -> Vec<FigureResult> {
    let structures = StructureSet::alpha_21264();
    let figures: [(&'static str, CoreKind, f64); 3] = [
        ("Figure 4a", CoreKind::InOrder, 0.0),
        ("Figure 4b", CoreKind::InOrder, 1.8),
        ("Figure 5", CoreKind::OutOfOrder, 1.8),
    ];
    let pool = fo4depth_exec::global();
    pool.map(&figures, |&(id, core, overhead)| {
        let spec = SweepSpec {
            core,
            profiles,
            params,
            structures: &structures,
            overhead: Fo4::new(overhead),
            points,
            observed: false,
        };
        FigureResult {
            id,
            core,
            overhead,
            sweep: depth_sweep_spec(&spec, pool),
        }
    })
}

/// The complete experiment registry.
#[must_use]
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "Table 1",
            title: "Per-stage overheads: latch, skew, jitter",
            paper: "latch 1.0 + skew 0.3 + jitter 0.5 = 1.8 FO4",
            target: "fo4depth-circuit latch sweep; `tables --table1`",
        },
        Experiment {
            id: "Figure 1",
            title: "Intel clock periods in FO4, 1990-2002",
            paper: "~84 FO4 (1990) down to ~12 FO4 (2002); 60x frequency gain",
            target: "fo4depth-fo4 history; `tables --figure1`",
        },
        Experiment {
            id: "Table 2",
            title: "SPEC 2000 benchmarks and classification",
            paper: "9 integer, 4 vector FP, 5 non-vector FP",
            target: "fo4depth-workload profiles; `tables --table2`",
        },
        Experiment {
            id: "Table 3",
            title: "Structure and operation latencies in cycles per clock",
            paper: "FU rows = ceil(17.4 x alpha_cycles / t_useful); structures from Cacti",
            target: "fo4depth-study latency; `tables --table3`",
        },
        Experiment {
            id: "Figure 4a",
            title: "In-order BIPS vs useful logic, zero overhead",
            paper: "monotonically improving with depth; halving t_useful from 8 to 4 gains only 18% on integer",
            target: "`tables --figure4a`",
        },
        Experiment {
            id: "Figure 4b",
            title: "In-order BIPS vs useful logic, 1.8 FO4 overhead",
            paper: "integer optimum at 6 FO4 useful logic",
            target: "`tables --figure4b`",
        },
        Experiment {
            id: "Figure 5",
            title: "Out-of-order BIPS vs useful logic",
            paper: "optima: integer 6 FO4, vector FP 4 FO4, non-vector FP 5 FO4",
            target: "`tables --figure5`",
        },
        Experiment {
            id: "Figure 6",
            title: "Sensitivity to overhead 0-6 FO4",
            paper: "optimum stays at ~6 FO4 for overheads 1-5 FO4",
            target: "`tables --figure6`",
        },
        Experiment {
            id: "Figure 7",
            title: "Per-clock capacity-optimized structures",
            paper: "+14% average BIPS; optimum still 6 FO4",
            target: "`tables --figure7`",
        },
        Experiment {
            id: "Figure 8",
            title: "IPC sensitivity to critical loops",
            paper: "issue-wakeup most sensitive, then load-use, then branch mispredict",
            target: "`tables --figure8`",
        },
        Experiment {
            id: "Figure 11",
            title: "IPC vs segmented-window depth 1-10",
            paper: "flat through 4 stages; -11% integer / -5% FP at 10 stages",
            target: "`tables --figure11`",
        },
        Experiment {
            id: "Figure 12 / §5.2",
            title: "Segmented select with pre-selection quotas 5/2/1",
            paper: "-4% integer, -1% FP vs single-cycle 32-entry window",
            target: "`tables --figure12`",
        },
        Experiment {
            id: "§4.2",
            title: "CRAY-1S-style flat memory",
            paper: "integer optimum moves to ~11 FO4",
            target: "`tables --cray1s`",
        },
        Experiment {
            id: "Appendix A",
            title: "ECL gate equivalence",
            paper: "1 Cray gate = 1.36 FO4; Kunkel-Smith optima = 10.9 / 5.4 FO4",
            target: "fo4depth-circuit ecl; `tables --appendixA`",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_table_and_figure() {
        let ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
        for required in [
            "Table 1",
            "Table 2",
            "Table 3",
            "Figure 1",
            "Figure 4a",
            "Figure 4b",
            "Figure 5",
            "Figure 6",
            "Figure 7",
            "Figure 8",
            "Figure 11",
            "Figure 12 / §5.2",
            "§4.2",
            "Appendix A",
        ] {
            assert!(ids.contains(&required), "missing {required}");
        }
    }

    #[test]
    fn headline_figures_match_serial_sweeps() {
        use crate::sweep::{depth_sweep_spec, SweepSpec};
        use fo4depth_workload::profiles;

        let profs = vec![
            profiles::by_name("164.gzip").unwrap(),
            profiles::by_name("171.swim").unwrap(),
        ];
        let params = SimParams {
            warmup: 1_000,
            measure: 3_000,
            seed: 1,
        };
        let points: Vec<Fo4> = [4.0, 8.0].into_iter().map(Fo4::new).collect();
        let figures = run_headline_figures(&profs, &params, &points);
        assert_eq!(figures.len(), 3);
        assert_eq!(figures[0].id, "Figure 4a");
        for f in &figures {
            let spec = SweepSpec {
                core: f.core,
                profiles: &profs,
                params: &params,
                structures: &StructureSet::alpha_21264(),
                overhead: Fo4::new(f.overhead),
                points: &points,
                observed: false,
            };
            let serial = depth_sweep_spec(&spec, &fo4depth_exec::Pool::new(1));
            assert_eq!(f.sweep, serial, "{} diverged from serial sweep", f.id);
        }
    }

    #[test]
    fn headlines_match_paper_text() {
        let h = PaperHeadlines::isca2002();
        assert_eq!(h.ooo_integer_optimum, 6.0);
        assert_eq!(h.ooo_vector_optimum, 4.0);
        assert_eq!(h.overhead, 1.8);
        assert_eq!(h.ecl_gate_fo4, 1.36);
    }
}
