//! Variance estimation via bit-pushing (Section 3.4, Lemma 3.5).
//!
//! The empirical variance reduces to mean estimations of derived values:
//! `V[X] = E[(X - E[X])²] = E[X²] - (E[X])²`. The two algebraically equal
//! forms behave differently as *estimators*:
//!
//! * [`VarianceViaSquares`] — estimate `E[X²]` (on squared values, needing
//!   `2b` bits) and `E[X]` on disjoint client cohorts, return the
//!   difference. Estimator variance ∝ `(σ² + x̄²)²/n` (the worse form).
//! * [`VarianceViaCentered`] — a first phase estimates `μ̂`, a second phase
//!   has the remaining clients report bits of `(x - μ̂)²`. Estimator
//!   variance ∝ `(σ² + x̄²/n)²/n` (the better form).
//!
//! Both are generic over any [`MeanMechanism`], so the Figure 1b/2b sweeps
//! can run them on bit-pushing *and* on the dithering baseline.

use fednum_core::protocol::MeanMechanism;
use rand::seq::SliceRandom;
use rand::Rng;

/// `V̂ = Ê[X²] - (Ê[X])²` on disjoint cohorts.
#[derive(Debug, Clone)]
pub struct VarianceViaSquares<M, S> {
    /// Estimates `E[X]` on the raw values.
    pub mean_est: M,
    /// Estimates `E[X²]` on the squared values (needs a `2b`-bit domain).
    pub square_est: S,
    /// Fraction of clients assigned to the mean estimate (default 0.5).
    pub split: f64,
}

impl<M: MeanMechanism, S: MeanMechanism> VarianceViaSquares<M, S> {
    /// Creates the estimator with an even split.
    #[must_use]
    pub fn new(mean_est: M, square_est: S) -> Self {
        Self {
            mean_est,
            square_est,
            split: 0.5,
        }
    }

    /// Sets the cohort split.
    ///
    /// # Panics
    /// Panics unless `0 < split < 1`.
    #[must_use]
    pub fn with_split(mut self, split: f64) -> Self {
        assert!(split > 0.0 && split < 1.0, "split must be in (0, 1)");
        self.split = split;
        self
    }

    /// Estimates the population variance. Clamped at 0 (the difference form
    /// can go negative under sampling noise).
    ///
    /// # Panics
    /// Panics unless there are at least two clients.
    pub fn estimate_variance(&self, values: &[f64], rng: &mut dyn Rng) -> f64 {
        assert!(values.len() >= 2, "need at least two clients");
        let mut order: Vec<usize> = (0..values.len()).collect();
        order.shuffle(rng);
        let n1 = ((self.split * values.len() as f64).round() as usize).clamp(1, values.len() - 1);
        let cohort_mean: Vec<f64> = order[..n1].iter().map(|&i| values[i]).collect();
        let cohort_sq: Vec<f64> = order[n1..].iter().map(|&i| values[i] * values[i]).collect();
        let m1 = self.mean_est.estimate_mean(&cohort_mean, rng);
        let m2 = self.square_est.estimate_mean(&cohort_sq, rng);
        (m2 - m1 * m1).max(0.0)
    }
}

/// `V̂ = Ê[(X - μ̂)²]` with a pilot phase for `μ̂`.
#[derive(Debug, Clone)]
pub struct VarianceViaCentered<M, D> {
    /// Estimates `μ̂` in the pilot phase.
    pub mean_est: M,
    /// Estimates `E[(X - μ̂)²]` on the squared deviations.
    pub dev_est: D,
    /// Fraction of clients spent on the pilot phase (default 1/3).
    pub delta: f64,
}

impl<M: MeanMechanism, D: MeanMechanism> VarianceViaCentered<M, D> {
    /// Creates the estimator with the paper's default pilot fraction 1/3.
    #[must_use]
    pub fn new(mean_est: M, dev_est: D) -> Self {
        Self {
            mean_est,
            dev_est,
            delta: 1.0 / 3.0,
        }
    }

    /// Sets the pilot fraction.
    ///
    /// # Panics
    /// Panics unless `0 < delta < 1`.
    #[must_use]
    pub fn with_delta(mut self, delta: f64) -> Self {
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        self.delta = delta;
        self
    }

    /// Estimates the population variance (never negative: squared
    /// deviations are nonnegative by construction).
    ///
    /// # Panics
    /// Panics unless there are at least two clients.
    pub fn estimate_variance(&self, values: &[f64], rng: &mut dyn Rng) -> f64 {
        assert!(values.len() >= 2, "need at least two clients");
        let mut order: Vec<usize> = (0..values.len()).collect();
        order.shuffle(rng);
        let n1 = ((self.delta * values.len() as f64).round() as usize).clamp(1, values.len() - 1);
        let pilot: Vec<f64> = order[..n1].iter().map(|&i| values[i]).collect();
        let mu = self.mean_est.estimate_mean(&pilot, rng);
        let devs: Vec<f64> = order[n1..]
            .iter()
            .map(|&i| (values[i] - mu) * (values[i] - mu))
            .collect();
        self.dev_est.estimate_mean(&devs, rng).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::FederatedMeanConfig;
    use fednum_core::encoding::FixedPointCodec;
    use fednum_core::protocol::basic::BasicConfig;
    use fednum_core::sampling::BitSampling;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bitpush(bits: u32) -> FederatedMeanConfig {
        FederatedMeanConfig::new(BasicConfig::new(
            FixedPointCodec::integer(bits),
            BitSampling::geometric(bits, 1.0),
        ))
    }

    /// Exact mean mechanism, to test the reduction logic in isolation.
    #[derive(Debug, Clone)]
    struct Exact;

    impl MeanMechanism for Exact {
        fn name(&self) -> String {
            "exact".into()
        }

        fn estimate_mean(&self, values: &[f64], _rng: &mut dyn Rng) -> f64 {
            values.iter().sum::<f64>() / values.len() as f64
        }
    }

    fn population(n: usize) -> (Vec<f64>, f64) {
        // Values in [50, 150): mean 99.5, known variance.
        let values: Vec<f64> = (0..n).map(|i| 50.0 + (i % 100) as f64).collect();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        (values, var)
    }

    #[test]
    fn squares_reduction_is_consistent_with_exact_means() {
        let (values, var) = population(10_000);
        let est = VarianceViaSquares::new(Exact, Exact);
        let mut rng = StdRng::seed_from_u64(1);
        let v = est.estimate_variance(&values, &mut rng);
        // Exact means on disjoint halves: only the cohort split adds noise.
        assert!((v / var - 1.0).abs() < 0.1, "v {v} var {var}");
    }

    #[test]
    fn centered_reduction_is_consistent_with_exact_means() {
        let (values, var) = population(10_000);
        let est = VarianceViaCentered::new(Exact, Exact);
        let mut rng = StdRng::seed_from_u64(2);
        let v = est.estimate_variance(&values, &mut rng);
        assert!((v / var - 1.0).abs() < 0.1, "v {v} var {var}");
    }

    #[test]
    fn bitpushing_variance_via_squares() {
        let (values, var) = population(100_000);
        // Values < 256 → 8 bits; squares < 65536 → 16 bits.
        let est = VarianceViaSquares::new(bitpush(8), bitpush(16));
        let mut rng = StdRng::seed_from_u64(3);
        let v = est.estimate_variance(&values, &mut rng);
        assert!((v / var - 1.0).abs() < 0.3, "v {v} var {var}");
    }

    #[test]
    fn bitpushing_variance_via_centered() {
        let (values, var) = population(100_000);
        // Deviations² ≤ ~100² → 14 bits is ample.
        let est = VarianceViaCentered::new(bitpush(8), bitpush(14));
        let mut rng = StdRng::seed_from_u64(4);
        let v = est.estimate_variance(&values, &mut rng);
        assert!((v / var - 1.0).abs() < 0.3, "v {v} var {var}");
    }

    #[test]
    fn centered_form_beats_squares_form() {
        // Lemma 3.5: the squares form's estimator variance carries an x̄²
        // term; inflate the mean so the difference is stark.
        let n = 40_000;
        let values: Vec<f64> = (0..n).map(|i| 3000.0 + (i % 40) as f64).collect();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        let rmse = |f: &dyn Fn(u64) -> f64| {
            let trials = 30;
            let mut sq = 0.0;
            for s in 0..trials {
                let e = f(s);
                sq += (e - var) * (e - var);
            }
            (sq / trials as f64).sqrt()
        };
        // 12 bits for values (<4096); squares need 24 bits; deviations² need
        // only ~11 bits.
        let squares = VarianceViaSquares::new(bitpush(12), bitpush(24));
        let centered = VarianceViaCentered::new(bitpush(12), bitpush(11));
        let r_squares =
            rmse(&|s| squares.estimate_variance(&values, &mut StdRng::seed_from_u64(s)));
        let r_centered =
            rmse(&|s| centered.estimate_variance(&values, &mut StdRng::seed_from_u64(s)));
        assert!(
            r_centered < r_squares,
            "centered {r_centered} should beat squares {r_squares}"
        );
    }

    #[test]
    fn variance_estimate_never_negative() {
        // Tiny population, noisy estimates: the clamp must hold.
        let values = vec![5.0, 5.0, 5.0, 6.0];
        let est = VarianceViaSquares::new(bitpush(4), bitpush(8));
        for s in 0..20 {
            let mut rng = StdRng::seed_from_u64(s);
            assert!(est.estimate_variance(&values, &mut rng) >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "split must be in")]
    fn rejects_bad_split() {
        let _ = VarianceViaSquares::new(Exact, Exact).with_split(0.0);
    }
}
