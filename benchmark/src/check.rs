//! Correctness harness. Accuracy is a check, not a timed metric: every
//! round's estimate must sit within six predicted standard deviations of
//! the truth, its report count must be the one the seed implies, and over
//! a workload's rounds the RMS of `(estimate - truth) / predicted_std`
//! must lie in `[0.5, 1.5]` — an estimator whose error bars are honest.

use crate::report::Report;

/// Per-round failure threshold, in predicted standard deviations.
pub const SIGMA_LIMIT: f64 = 6.0;
/// Band the run's z RMS must fall in.
pub const Z_RMS_BAND: (f64, f64) = (0.5, 1.5);

/// What one round produced, as far as the checks care.
#[derive(Debug, Clone, Copy)]
pub struct RoundResult {
    pub estimate: f64,
    pub predicted_std: f64,
    pub truth: f64,
    pub reports: u64,
    /// Inclusive range the report count must fall in.
    pub expected_reports: (u64, u64),
}

/// Accumulates ops and accuracy over a run.
#[derive(Debug, Default)]
pub struct Checker {
    attempted: u64,
    failed: u64,
    sum_z2: f64,
    sum_rel2: f64,
    scored: u64,
    first_failures: Vec<String>,
}

impl Checker {
    pub fn new() -> Self {
        Self::default()
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_failures.len() < 5 {
            self.first_failures.push(why);
        }
    }

    /// Counts one op that failed outright (an `Err`, a broken identity).
    pub fn op_failed(&mut self, why: String) {
        self.attempted += 1;
        self.fail(why);
    }

    /// Counts ops that have no estimate to score (client reports).
    pub fn ops_ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Scores one completed round.
    pub fn round(&mut self, id: u64, r: RoundResult) {
        self.attempted += 1;
        if !(r.estimate.is_finite() && r.predicted_std.is_finite() && r.predicted_std > 0.0) {
            self.fail(format!(
                "round {id}: estimate {} with predicted std {}",
                r.estimate, r.predicted_std
            ));
            return;
        }
        let z = (r.estimate - r.truth) / r.predicted_std;
        self.sum_z2 += z * z;
        self.sum_rel2 += ((r.estimate - r.truth) / r.truth).powi(2);
        self.scored += 1;
        if z.abs() > SIGMA_LIMIT {
            self.fail(format!(
                "round {id}: estimate {} is {z:.2} predicted std from truth {}",
                r.estimate, r.truth
            ));
        } else if r.reports < r.expected_reports.0 || r.reports > r.expected_reports.1 {
            self.fail(format!(
                "round {id}: {} reports, expected {}..={}",
                r.reports, r.expected_reports.0, r.expected_reports.1
            ));
        }
    }

    pub fn z_rms(&self) -> f64 {
        if self.scored == 0 {
            0.0
        } else {
            (self.sum_z2 / self.scored as f64).sqrt()
        }
    }

    pub fn nrmse(&self) -> f64 {
        if self.scored == 0 {
            0.0
        } else {
            (self.sum_rel2 / self.scored as f64).sqrt()
        }
    }

    /// Writes the verdict into `report`: op counts, the accuracy band, and
    /// the first few failure reasons.
    pub fn finish(&self, report: &mut Report) {
        report.attempted += self.attempted;
        report.failed += self.failed;
        report
            .violations
            .extend(self.first_failures.iter().cloned());
        let z = self.z_rms();
        if self.scored > 0 && !(Z_RMS_BAND.0..=Z_RMS_BAND.1).contains(&z) {
            report.violations.push(format!(
                "z_rms {z:.3} over {} rounds outside [{}, {}]",
                self.scored, Z_RMS_BAND.0, Z_RMS_BAND.1
            ));
        }
    }
}

/// The report counts a cohort of `n` clients answering independently with
/// probability `rate` may produce: the mean plus or minus six binomial
/// standard deviations.
pub fn binomial_band(n: usize, rate: f64) -> (u64, u64) {
    let mean = n as f64 * rate;
    let slack = SIGMA_LIMIT * (n as f64 * rate * (1.0 - rate)).sqrt();
    (
        (mean - slack).floor().max(0.0) as u64,
        (mean + slack).ceil().min(n as f64) as u64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(estimate: f64, truth: f64) -> RoundResult {
        RoundResult {
            estimate,
            predicted_std: 1.0,
            truth,
            reports: 900,
            expected_reports: binomial_band(1000, 0.9),
        }
    }

    /// The self-test the issue asks for: hand the harness a deliberately
    /// wrong truth and it must count the op as failed.
    #[test]
    fn a_wrong_truth_is_a_failed_op() {
        let mut c = Checker::new();
        c.round(0, round(500.8, 500.0));
        c.round(1, round(500.8, 400.0));
        let mut report = Report::new("selftest", 0, false);
        c.finish(&mut report);
        assert_eq!(report.attempted, 2);
        assert_eq!(report.failed, 1);
        assert!(!report.correct());
        assert!(report.violations[0].contains("round 1"));
    }

    #[test]
    fn honest_rounds_pass_and_the_band_is_enforced() {
        let mut c = Checker::new();
        for (i, e) in [0.9, -1.1, 0.7, -0.8].iter().enumerate() {
            c.round(i as u64, round(500.0 + e, 500.0));
        }
        let mut ok = Report::new("selftest", 0, false);
        c.finish(&mut ok);
        assert!(ok.correct(), "{:?}", ok.violations);

        // Error bars ten times too wide: every round passes 6 sigma, the
        // band still catches it.
        let mut c = Checker::new();
        for i in 0..4 {
            c.round(i, round(500.05, 500.0));
        }
        let mut wide = Report::new("selftest", 0, false);
        c.finish(&mut wide);
        assert_eq!(wide.failed, 0);
        assert!(!wide.correct());
    }

    #[test]
    fn a_wrong_report_count_fails_the_round() {
        let mut c = Checker::new();
        let mut r = round(500.5, 500.0);
        r.reports = 700;
        c.round(0, r);
        let mut report = Report::new("selftest", 0, false);
        c.finish(&mut report);
        assert_eq!(report.failed, 1);
    }

    #[test]
    fn errors_and_nan_count_as_failures() {
        let mut c = Checker::new();
        c.op_failed("Err(NoReports)".to_string());
        c.round(1, round(f64::NAN, 500.0));
        c.ops_ok(3);
        let mut report = Report::new("selftest", 0, false);
        c.finish(&mut report);
        assert_eq!((report.attempted, report.failed), (5, 2));
    }
}
