//! `--compare A.json B.json`: two ledgers (written by `--json`) against the
//! bounds in `BENCHMARK.json`. `A` is the base every ratio is given against.

use std::process::ExitCode;

use crate::report::{median, spread, Json};
use crate::workloads::WORKLOADS;
use crate::{declared_metrics, MetricSpec};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// `B`'s median is worse than `A`'s by more than the bound.
    Worse,
    /// The run-to-run spread of either side is wider than the bound, so a
    /// change of the bound's size could not be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (metric, workload) row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub median_a: f64,
    pub median_b: f64,
    /// Interquartile distance over the median, the wider of the two sides;
    /// `None` when neither side has two runs.
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

/// Judge the runs of one metric on one workload.
pub fn judge(metric: &MetricSpec, a: &[f64], b: &[f64]) -> Row {
    let (median_a, median_b) = (median(a), median(b));
    let spread = match (spread(a), spread(b)) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, y) => x.or(y),
    };
    let bound = metric.bound.unwrap_or(0.0);
    let worsening = if metric.higher_is_better {
        (median_a - median_b) / median_a
    } else {
        (median_b - median_a) / median_a
    };
    let verdict = if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    Row {
        median_a,
        median_b,
        spread,
        verdict,
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn runs_of(ledger: &Json, workload: &str, metric: &str) -> Vec<f64> {
    ledger
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|e| e.get(metric))
        .map(|a| a.as_arr().iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

pub fn run(path_a: &str, path_b: &str) -> Result<ExitCode, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!("A (base) = {path_a}\nB        = {path_b}");
    println!(
        "{:<12} {:<12} {:>14} {:>14} {:>16} {:>9} {:>7}  verdict",
        "metric", "workload", "median A", "median B", "B/A (base A)", "spread", "bound"
    );
    let (mut worse, mut unresolved) = (0, 0);
    for metric in declared_metrics("end_to_end") {
        for workload in WORKLOADS {
            let (runs_a, runs_b) = (
                runs_of(&a, workload, &metric.name),
                runs_of(&b, workload, &metric.name),
            );
            if runs_a.is_empty() || runs_b.is_empty() {
                return Err(format!(
                    "{} on {workload} is missing from one ledger",
                    metric.name
                ));
            }
            let row = judge(&metric, &runs_a, &runs_b);
            worse += usize::from(row.verdict == Verdict::Worse);
            unresolved += usize::from(row.verdict == Verdict::Unresolved);
            println!(
                "{:<12} {:<12} {:>14.6} {:>14.6} {:>16.4} {:>9} {:>6.0}%  {}{}",
                metric.name,
                workload,
                row.median_a,
                row.median_b,
                row.median_b / row.median_a,
                row.spread
                    .map_or("n/a".to_string(), |s| format!("{:.2}%", s * 100.0)),
                metric.bound.unwrap_or(0.0) * 100.0,
                row.verdict.label(),
                if row.spread.is_none() {
                    " (one run a side: spread unknown)"
                } else {
                    ""
                },
            );
        }
    }
    println!("{worse} worse, {unresolved} unresolved");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "solve_s".into(),
            unit: "s".into(),
            higher_is_better: false,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts() {
        let steady = [1.00, 1.01, 0.99, 1.00, 1.01];
        // Within the bound, either direction.
        assert_eq!(
            judge(&lower(0.1), &steady, &steady.map(|v| v * 1.08)).verdict,
            Verdict::Ok
        );
        assert_eq!(
            judge(&lower(0.1), &steady, &steady.map(|v| v * 0.5)).verdict,
            Verdict::Ok
        );
        // Past the bound.
        let row = judge(&lower(0.1), &steady, &steady.map(|v| v * 1.12));
        assert_eq!(row.verdict, Verdict::Worse);
        assert!((row.median_b / row.median_a - 1.12).abs() < 1e-12);
        // Noise wider than the bound hides even a real slowdown.
        let noisy = [1.0, 1.3, 0.8, 1.1, 0.9];
        assert_eq!(
            judge(&lower(0.1), &steady, &noisy).verdict,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&lower(0.1), &noisy, &steady.map(|v| v * 2.0)).verdict,
            Verdict::Unresolved
        );
        // One run a side: no spread, the medians alone decide.
        let row = judge(&lower(0.1), &[1.0], &[1.2]);
        assert_eq!((row.spread, row.verdict), (None, Verdict::Worse));
        // Higher-is-better metrics worsen downwards.
        let higher = MetricSpec {
            higher_is_better: true,
            ..lower(0.1)
        };
        assert_eq!(
            judge(&higher, &steady, &steady.map(|v| v * 0.8)).verdict,
            Verdict::Worse
        );
        assert_eq!(
            judge(&higher, &steady, &steady.map(|v| v * 1.5)).verdict,
            Verdict::Ok
        );
    }
}
