//! Plain-text tables and JSON export for experiment results.

use crate::metrics::Series;
use crate::runner::ScenarioOutcome;
use std::fmt::Write as _;

/// Renders a scenario outcome as an aligned text table of empirical
/// competitive ratios (mean ± sd), normalized by offline-opt — the layout
/// of the paper's Figures 2–3 in tabular form.
pub fn ratio_table(outcome: &ScenarioOutcome) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "scenario: {}", outcome.name);
    let name_w = outcome
        .algorithms
        .iter()
        .map(|a| a.name.len())
        .max()
        .unwrap_or(4)
        .max("algorithm".len());
    let _ = writeln!(
        out,
        "{:<name_w$}  {:>10}  {:>8}",
        "algorithm", "ratio", "sd"
    );
    for alg in &outcome.algorithms {
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>10.4}  {:>8.4}",
            alg.name,
            alg.mean_ratio(),
            alg.sd_ratio()
        );
    }
    out
}

/// Renders a set of sweep series as an aligned text table: one row per x
/// value, one column per series — the layout of Figures 4–5.
///
/// # Panics
///
/// Panics if the series have inconsistent x grids.
pub fn series_table(x_label: &str, series: &[Series]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{x_label:>12}");
    for s in series {
        let _ = write!(out, "  {:>22}", s.label);
    }
    let _ = writeln!(out);
    let npoints = series.first().map_or(0, |s| s.points.len());
    for s in series {
        assert_eq!(s.points.len(), npoints, "inconsistent series lengths");
    }
    for p in 0..npoints {
        let x = series[0].points[p].x;
        let _ = write!(out, "{x:>12.4}");
        for s in series {
            assert!(
                (s.points[p].x - x).abs() < 1e-9,
                "inconsistent x grids across series"
            );
            let _ = write!(out, "  {:>14.4} ±{:>6.4}", s.points[p].mean, s.points[p].sd);
        }
        let _ = writeln!(out);
    }
    out
}

/// Serializes series to JSON (for external plotting).
///
/// # Panics
///
/// Serialization of these plain data types cannot fail.
pub fn series_json(series: &[Series]) -> String {
    serde_json::to_string_pretty(series).expect("series serialize")
}

/// Serializes a scenario outcome to JSON.
///
/// # Panics
///
/// Serialization of these plain data types cannot fail.
pub fn outcome_json(outcome: &ScenarioOutcome) -> String {
    serde_json::to_string_pretty(outcome).expect("outcome serialize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Series;
    use crate::runner::{AlgorithmOutcome, ScenarioOutcome};

    fn fake_outcome() -> ScenarioOutcome {
        ScenarioOutcome {
            name: "t".into(),
            offline_totals: vec![10.0],
            algorithms: vec![AlgorithmOutcome {
                name: "online-approx".into(),
                ratios: vec![1.1, 1.2],
                totals: vec![11.0, 12.0],
                breakdowns: vec![],
                health: vec![],
            }],
            failures: vec![],
        }
    }

    #[test]
    fn ratio_table_contains_names_and_values() {
        let t = ratio_table(&fake_outcome());
        assert!(t.contains("online-approx"));
        assert!(t.contains("1.15"));
    }

    #[test]
    fn series_table_aligns_two_series() {
        let mut a = Series::new("a");
        a.push_from(1.0, &[1.0]);
        let mut b = Series::new("b");
        b.push_from(1.0, &[2.0]);
        let t = series_table("x", &[a, b]);
        assert!(t.lines().count() == 2);
        assert!(t.contains('a') && t.contains('b'));
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    fn series_table_rejects_mismatched_grids() {
        let mut a = Series::new("a");
        a.push_from(1.0, &[1.0]);
        let mut b = Series::new("b");
        b.push_from(2.0, &[2.0]);
        let _ = series_table("x", &[a, b]);
    }

    #[test]
    fn json_round_trips() {
        let mut s = Series::new("a");
        s.push_from(1.0, &[1.0, 2.0]);
        let j = series_json(&[s]);
        assert!(j.contains("\"label\": \"a\""));
        let oj = outcome_json(&fake_outcome());
        assert!(oj.contains("offline_totals"));
    }
}
