//! Text rendering of the study's tables and figures.

use std::fmt::Write as _;

use crate::latency::TableRow;
use crate::sweep::DepthSweep;
use fo4depth_workload::BenchClass;

/// Renders Table 3 (structure/operation latencies in cycles per clock).
#[must_use]
pub fn table3(rows: &[TableRow]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:18}", "t_useful (FO4)");
    for t in 2..=16 {
        let _ = write!(out, "{t:>5}");
    }
    let _ = writeln!(out, "  Alpha(17.4)");
    for row in rows {
        let _ = write!(out, "{:18}", row.name);
        for c in &row.cycles {
            let _ = write!(out, "{c:>5}");
        }
        let _ = writeln!(out, "{:>13}", row.alpha);
    }
    out
}

/// Renders a sweep as aligned columns: `t_useful`, period, and one BIPS
/// column per class present.
#[must_use]
pub fn sweep_table(sweep: &DepthSweep) -> String {
    let classes = [
        BenchClass::Integer,
        BenchClass::VectorFp,
        BenchClass::NonVectorFp,
    ];
    let series: Vec<(BenchClass, Vec<(f64, f64)>)> = classes
        .iter()
        .map(|&c| (c, sweep.series(Some(c))))
        .filter(|(_, s)| !s.is_empty())
        .collect();
    let all = sweep.series(None);

    let mut out = String::new();
    let _ = write!(out, "{:>8} {:>10}", "t_useful", "period ps");
    for (c, _) in &series {
        let _ = write!(out, " {:>14}", c.label());
    }
    let _ = writeln!(out, " {:>14}", "All (hmean)");
    for (i, p) in sweep.points.iter().enumerate() {
        let _ = write!(out, "{:>8.1} {:>10.1}", p.t_useful, p.period_ps);
        for (_, s) in &series {
            let _ = write!(out, " {:>14.3}", s[i].1);
        }
        let _ = writeln!(out, " {:>14.3}", all[i].1);
    }
    out
}

/// Renders a sweep as CSV (`t_useful,period_ps,<class columns>,all`),
/// ready for external plotting tools.
#[must_use]
pub fn sweep_csv(sweep: &DepthSweep) -> String {
    let classes = [
        BenchClass::Integer,
        BenchClass::VectorFp,
        BenchClass::NonVectorFp,
    ];
    let series: Vec<(BenchClass, Vec<(f64, f64)>)> = classes
        .iter()
        .map(|&c| (c, sweep.series(Some(c))))
        .filter(|(_, s)| !s.is_empty())
        .collect();
    let all = sweep.series(None);

    let mut out = String::from("t_useful,period_ps");
    for (c, _) in &series {
        let _ = write!(out, ",{}", c.label().replace(' ', "_").to_lowercase());
    }
    out.push_str(",all\n");
    for (i, p) in sweep.points.iter().enumerate() {
        let _ = write!(out, "{},{}", p.t_useful, p.period_ps);
        for (_, s) in &series {
            let _ = write!(out, ",{:.6}", s[i].1);
        }
        let _ = writeln!(out, ",{:.6}", all[i].1);
    }
    out
}

/// Renders an ASCII line plot of one `(x, y)` series (rough, for terminal
/// inspection of curve shapes).
#[must_use]
pub fn ascii_plot(title: &str, series: &[(f64, f64)], height: usize) -> String {
    let mut out = format!("{title}\n");
    if series.is_empty() || height == 0 {
        return out;
    }
    let ymax = series.iter().map(|p| p.1).fold(f64::MIN, f64::max);
    let ymin = 0.0;
    for row in (0..height).rev() {
        let level = ymin + (ymax - ymin) * (row as f64 + 0.5) / height as f64;
        let _ = write!(out, "{:>8.2} |", ymax * (row as f64 + 1.0) / height as f64);
        for &(_, y) in series {
            out.push(if y >= level { '#' } else { ' ' });
            out.push(' ');
        }
        out.push('\n');
    }
    let _ = write!(out, "{:>8} +", "");
    for _ in series {
        out.push_str("--");
    }
    out.push('\n');
    let _ = write!(out, "{:>10}", "");
    for &(x, _) in series {
        let _ = write!(out, "{:<2.0}", x);
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{table3 as build_table3, StructureSet};

    #[test]
    fn table3_renders_all_rows() {
        let rows = build_table3(&StructureSet::alpha_21264());
        let text = table3(&rows);
        assert!(text.contains("DL1"));
        assert!(text.contains("FP sqrt"));
        assert!(text.contains("Alpha"));
        assert_eq!(text.lines().count(), rows.len() + 1);
    }

    #[test]
    fn csv_has_header_and_rows() {
        use crate::sim::SimParams;
        use crate::sweep::{depth_sweep_spec, CoreKind, SweepSpec};
        use fo4depth_fo4::Fo4;
        let profs = vec![fo4depth_workload::profiles::by_name("164.gzip").unwrap()];
        let params = SimParams {
            warmup: 500,
            measure: 2_000,
            seed: 1,
        };
        let spec = SweepSpec {
            core: CoreKind::OutOfOrder,
            profiles: &profs,
            params: &params,
            structures: &StructureSet::alpha_21264(),
            overhead: Fo4::new(1.8),
            points: &[Fo4::new(6.0), Fo4::new(9.0)],
            observed: false,
        };
        let sweep = depth_sweep_spec(&spec, fo4depth_exec::global());
        let csv = sweep_csv(&sweep);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("t_useful,period_ps,integer"));
        assert!(lines[1].starts_with('6'));
    }

    #[test]
    fn ascii_plot_has_title_and_axis() {
        let s = ascii_plot("demo", &[(2.0, 1.0), (6.0, 2.0), (16.0, 0.5)], 4);
        assert!(s.starts_with("demo\n"));
        assert!(s.contains('#'));
        assert!(s.contains('+'));
    }

    #[test]
    fn ascii_plot_empty_series_is_safe() {
        let s = ascii_plot("empty", &[], 4);
        assert_eq!(s, "empty\n");
    }
}
