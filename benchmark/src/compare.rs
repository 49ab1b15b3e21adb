//! `fednum-benchmark compare A.json B.json`: applies each end-to-end
//! metric's bound and direction to two `results.json` files and prints one
//! row per (workload, metric): better, same, worse, or unresolved when the
//! run-to-run spread of either side is wider than the bound. Exits
//! non-zero on any `worse` or on a higher share of failed ops.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::report::{parse_results, Report};
use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::sys::{median, quantile};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Distance between the quartiles as a share of the median.
fn spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (quantile(xs, 0.75) - quantile(xs, 0.25)) / m.abs()
    }
}

/// Compares side `b` (the change) against side `a` (the parent).
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    // Positive = worse, as a share of the parent's median.
    let worse_by = match metric.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if spread(a) > metric.bound || spread(b) > metric.bound {
        let every_b_better = match metric.better {
            Better::Lower => b.iter().all(|y| a.iter().all(|x| y < x)),
            Better::Higher => b.iter().all(|y| a.iter().all(|x| y > x)),
        };
        let verdict = if every_b_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
        return (verdict, worse_by);
    }
    let verdict = if worse_by > metric.bound {
        Verdict::Worse
    } else if worse_by < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (verdict, worse_by)
}

type Samples = BTreeMap<(String, String), Vec<f64>>;

/// End-to-end samples by (workload, metric), and (failed, attempted) ops
/// by workload, over the untraced runs of one file.
fn gather(reports: &[Report]) -> (Samples, BTreeMap<String, (u64, u64)>) {
    let mut samples = Samples::new();
    let mut ops: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for r in reports.iter().filter(|r| !r.traced) {
        for m in END_TO_END {
            if let Some(v) = r.get(m.name) {
                samples
                    .entry((r.workload.clone(), m.name.to_string()))
                    .or_default()
                    .push(v);
            }
        }
        let entry = ops.entry(r.workload.clone()).or_default();
        entry.0 += r.failed;
        entry.1 += r.attempted;
    }
    (samples, ops)
}

fn load(path: &str) -> Result<Vec<Report>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_results(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let ((sa, ops_a), (sb, ops_b)) = (gather(&a), gather(&b));
    let mut regressed = false;
    println!(
        "{:16} {:28} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    for (workload, _) in WORKLOADS {
        for m in &END_TO_END {
            let key = (workload.to_string(), m.name.to_string());
            let (Some(xa), Some(xb)) = (sa.get(&key), sb.get(&key)) else {
                continue;
            };
            let (verdict, worse_by) = judge(m, xa, xb);
            regressed |= verdict == Verdict::Worse;
            println!(
                "{workload:16} {:28} {:>14.6} {:>14.6} {:>8.2}% {:>5.0}%  {} (n={}/{})",
                m.name,
                median(xa),
                median(xb),
                worse_by * 100.0,
                m.bound * 100.0,
                verdict.as_str(),
                xa.len(),
                xb.len()
            );
        }
        let rate = |ops: &BTreeMap<String, (u64, u64)>| {
            ops.get(workload).map_or(0.0, |&(failed, attempted)| {
                failed as f64 / attempted.max(1) as f64
            })
        };
        let (ra, rb) = (rate(&ops_a), rate(&ops_b));
        if rb > ra {
            regressed = true;
        }
        println!(
            "{workload:16} {:28} {ra:>14.6} {rb:>14.6} {:>9} {:>6}  {}",
            "ops_failed/ops_attempted",
            "",
            "",
            if rb > ra { "worse" } else { "same" }
        );
    }
    if regressed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "s",
            better,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_follow_bound_and_direction() {
        let wall = metric(Better::Lower);
        assert_eq!(judge(&wall, &[1.0], &[1.05]).0, Verdict::Same);
        assert_eq!(judge(&wall, &[1.0], &[1.2]).0, Verdict::Worse);
        assert_eq!(judge(&wall, &[1.0], &[0.8]).0, Verdict::Better);
        let rate = metric(Better::Higher);
        assert_eq!(judge(&rate, &[100.0], &[80.0]).0, Verdict::Worse);
        assert_eq!(judge(&rate, &[100.0], &[120.0]).0, Verdict::Better);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let wall = metric(Better::Lower);
        let noisy = [1.0, 1.3, 0.8, 1.2, 0.9];
        assert_eq!(
            judge(&wall, &noisy, &[1.0, 1.1, 1.0]).0,
            Verdict::Unresolved
        );
        assert_eq!(judge(&wall, &noisy, &[0.5, 0.6, 0.55]).0, Verdict::Better);
    }
}
