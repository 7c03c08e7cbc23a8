//! Workload calibration report: what the synthetic SPEC stand-ins actually
//! measure at the Alpha 21264 reference point, against the plausibility
//! bands the substitution is calibrated to (DESIGN.md §2).
//!
//! This is the reproduction's honesty page: since the workloads are
//! synthetic, the *only* defensible claim is that their aggregate behaviour
//! (IPC, misprediction, cache misses) sits where the 21264 literature puts
//! the real benchmarks. The bands here are deliberately wide — they encode
//! "the right regime", not point estimates.

use fo4depth_pipeline::CoreConfig;
use fo4depth_workload::{profiles, BenchClass};

use crate::sim::{arenas_for, run_ooo, run_set, SimParams};

/// Measured characteristics of one benchmark at the Alpha point.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationRow {
    /// Benchmark name.
    pub name: String,
    /// Class.
    pub class: BenchClass,
    /// Committed IPC.
    pub ipc: f64,
    /// Branch misprediction rate (direction + target, over all control).
    pub mispredict_rate: f64,
    /// DL1 miss rate.
    pub l1_miss_rate: f64,
    /// L2 miss rate (of L1 misses).
    pub l2_miss_rate: f64,
    /// Whether every check passed.
    pub ok: bool,
    /// First violated check, if any.
    pub violation: Option<String>,
}

/// The plausibility bands per class (IPC and mispredict) and globally
/// (cache rates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bands {
    /// IPC band for integer benchmarks.
    pub int_ipc: (f64, f64),
    /// IPC band for FP benchmarks.
    pub fp_ipc: (f64, f64),
    /// Mispredict band for integer benchmarks.
    pub int_mispredict: (f64, f64),
    /// Mispredict band for FP benchmarks.
    pub fp_mispredict: (f64, f64),
    /// DL1 miss-rate band (all benchmarks).
    pub l1_miss: (f64, f64),
}

impl Default for Bands {
    fn default() -> Self {
        Self {
            int_ipc: (0.15, 2.5),
            fp_ipc: (0.3, 3.5),
            int_mispredict: (0.02, 0.30),
            fp_mispredict: (0.0, 0.20),
            l1_miss: (0.0, 0.40),
        }
    }
}

fn check(row: &ValidationRow, bands: &Bands) -> Option<String> {
    let (ipc_band, misp_band) = match row.class {
        BenchClass::Integer => (bands.int_ipc, bands.int_mispredict),
        _ => (bands.fp_ipc, bands.fp_mispredict),
    };
    if !(ipc_band.0..=ipc_band.1).contains(&row.ipc) {
        return Some(format!("IPC {:.3} outside {ipc_band:?}", row.ipc));
    }
    if !(misp_band.0..=misp_band.1).contains(&row.mispredict_rate) {
        return Some(format!(
            "mispredict {:.3} outside {misp_band:?}",
            row.mispredict_rate
        ));
    }
    if !(bands.l1_miss.0..=bands.l1_miss.1).contains(&row.l1_miss_rate) {
        return Some(format!(
            "L1 miss {:.3} outside {:?}",
            row.l1_miss_rate, bands.l1_miss
        ));
    }
    None
}

/// Runs every benchmark at the Alpha configuration and checks it against
/// the bands.
#[must_use]
pub fn validate_all(params: &SimParams, bands: &Bands) -> Vec<ValidationRow> {
    let cfg = CoreConfig::alpha_like();
    let arenas = arenas_for(&profiles::all(), params);
    run_set(&arenas, |a| run_ooo(&cfg, a, params, false))
        .into_iter()
        .map(|o| {
            let mut row = ValidationRow {
                name: o.name,
                class: o.class,
                ipc: o.result.ipc(),
                mispredict_rate: o.result.mispredict_rate(),
                l1_miss_rate: o.result.l1.miss_rate(),
                l2_miss_rate: o.result.l2.miss_rate(),
                ok: true,
                violation: None,
            };
            row.violation = check(&row, bands);
            row.ok = row.violation.is_none();
            row
        })
        .collect()
}

/// Renders the validation table.
#[must_use]
pub fn render(rows: &[ValidationRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:12} {:14} {:>6} {:>8} {:>8} {:>8}  status",
        "benchmark", "class", "IPC", "mispred", "L1 miss", "L2 miss"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:12} {:14} {:>6.3} {:>8.3} {:>8.3} {:>8.3}  {}",
            r.name,
            r.class.label(),
            r.ipc,
            r.mispredict_rate,
            r.l1_miss_rate,
            r.l2_miss_rate,
            match &r.violation {
                None => "ok".to_string(),
                Some(v) => format!("FAIL: {v}"),
            }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_benchmark_sits_in_its_calibration_band() {
        // Long enough to train the predictors out of their compulsory
        // transient (mesa/perlbmk-class codes have many static sites).
        let params = SimParams {
            warmup: 30_000,
            measure: 60_000,
            seed: 1,
        };
        let rows = validate_all(&params, &Bands::default());
        assert_eq!(rows.len(), 18);
        let failures: Vec<&ValidationRow> = rows.iter().filter(|r| !r.ok).collect();
        assert!(
            failures.is_empty(),
            "calibration violations:\n{}",
            render(&failures.into_iter().cloned().collect::<Vec<_>>())
        );
    }

    #[test]
    fn class_ipc_ordering_holds_at_the_alpha_point() {
        let params = SimParams {
            warmup: 4_000,
            measure: 15_000,
            seed: 1,
        };
        let rows = validate_all(&params, &Bands::default());
        let mean = |class: BenchClass| {
            let v: Vec<f64> = rows
                .iter()
                .filter(|r| r.class == class)
                .map(|r| r.ipc)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(mean(BenchClass::VectorFp) > mean(BenchClass::Integer));
    }

    #[test]
    fn render_contains_every_row() {
        let rows = vec![ValidationRow {
            name: "x".into(),
            class: BenchClass::Integer,
            ipc: 1.0,
            mispredict_rate: 0.1,
            l1_miss_rate: 0.05,
            l2_miss_rate: 0.2,
            ok: true,
            violation: None,
        }];
        let text = render(&rows);
        assert!(text.contains('x'));
        assert!(text.contains("ok"));
    }
}
