//! Sweep runners shared by every figure driver.
//!
//! A sweep evaluates a set of methods at each x-axis point over `R` seeded
//! repetitions. Per-trial data is a deterministic function of the trial
//! seed, so all methods see identical populations (paired trials), matching
//! the paper's methodology of 100 independent repetitions with shared data.

use fednum_ldp::MeanMechanism;
use fednum_metrics::experiment::derive_seed;
use fednum_metrics::table::{Metric, Series, SeriesTable};
use fednum_metrics::{ErrorCollector, Repetitions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Salt separating data-generation randomness from mechanism randomness.
const MECH_SALT: u64 = 0x5EED_00FF;

/// Runs a mean-estimation sweep.
///
/// * `data_for(x, seed)` draws one trial's population and its ground truth;
/// * `methods_for(x)` builds the method set at that x (bit depth, ε, … may
///   depend on x).
#[allow(clippy::too_many_arguments)] // the sweep axes are all load-bearing
pub fn sweep_mean(
    id: &str,
    title: &str,
    x_label: &str,
    metric: Metric,
    xs: &[f64],
    reps: Repetitions,
    mut data_for: impl FnMut(f64, u64) -> (Vec<f64>, f64),
    mut methods_for: impl FnMut(f64) -> Vec<Box<dyn MeanMechanism>>,
) -> SeriesTable {
    let mut table = SeriesTable::new(id, title, x_label, metric);
    let mut series: Vec<Series> = Vec::new();
    for &x in xs {
        let methods = methods_for(x);
        if series.is_empty() {
            series = methods.iter().map(|m| Series::new(m.name())).collect();
        }
        for (mi, method) in methods.iter().enumerate() {
            let mut collector = ErrorCollector::new();
            for t in 0..reps.trials {
                let seed = reps.seed_for(t);
                let (values, truth) = data_for(x, seed);
                let mut rng = StdRng::seed_from_u64(derive_seed(seed, MECH_SALT));
                let est = method.estimate_mean(&values, &mut rng);
                collector.push(est, truth);
            }
            series[mi].push(x, collector.summary());
        }
    }
    for s in series {
        table.push_series(s);
    }
    table
}

/// A dyn-compatible variance estimator, implemented by both Lemma 3.5
/// reductions.
pub trait VarianceEstimate {
    /// Estimates the population variance.
    fn estimate(&self, values: &[f64], rng: &mut dyn Rng) -> f64;
}

impl<M: MeanMechanism, S: MeanMechanism> VarianceEstimate
    for fednum_fedsim::variance::VarianceViaSquares<M, S>
{
    fn estimate(&self, values: &[f64], rng: &mut dyn Rng) -> f64 {
        self.estimate_variance(values, rng)
    }
}

impl<M: MeanMechanism, D: MeanMechanism> VarianceEstimate
    for fednum_fedsim::variance::VarianceViaCentered<M, D>
{
    fn estimate(&self, values: &[f64], rng: &mut dyn Rng) -> f64 {
        self.estimate_variance(values, rng)
    }
}

/// Runs a variance-estimation sweep; `methods_for` returns labelled
/// estimators.
#[allow(clippy::type_complexity, clippy::too_many_arguments)]
pub fn sweep_variance(
    id: &str,
    title: &str,
    x_label: &str,
    metric: Metric,
    xs: &[f64],
    reps: Repetitions,
    mut data_for: impl FnMut(f64, u64) -> (Vec<f64>, f64),
    mut methods_for: impl FnMut(f64) -> Vec<(String, Box<dyn VarianceEstimate>)>,
) -> SeriesTable {
    let mut table = SeriesTable::new(id, title, x_label, metric);
    let mut series: Vec<Series> = Vec::new();
    for &x in xs {
        let methods = methods_for(x);
        if series.is_empty() {
            series = methods
                .iter()
                .map(|(name, _)| Series::new(name.clone()))
                .collect();
        }
        for (mi, (_, method)) in methods.iter().enumerate() {
            let mut collector = ErrorCollector::new();
            for t in 0..reps.trials {
                let seed = reps.seed_for(t);
                let (values, truth) = data_for(x, seed);
                let mut rng = StdRng::seed_from_u64(derive_seed(seed, MECH_SALT));
                let est = method.estimate(&values, &mut rng);
                collector.push(est, truth);
            }
            series[mi].push(x, collector.summary());
        }
    }
    for s in series {
        table.push_series(s);
    }
    table
}

/// Clips values into `[0, 2^bits - 1]` and returns the clipped vector with
/// its empirical mean — the winsorized ground truth every method (bit-pushing
/// codecs and baseline range clamps alike) actually targets.
#[must_use]
pub fn clipped_with_mean(values: &[f64], bits: u32) -> (Vec<f64>, f64) {
    let hi = ((1u64 << bits) - 1) as f64;
    let clipped: Vec<f64> = values.iter().map(|&v| v.clamp(0.0, hi)).collect();
    let mean = clipped.iter().sum::<f64>() / clipped.len() as f64;
    (clipped, mean)
}

/// Like [`clipped_with_mean`] but returns the empirical variance as truth.
#[must_use]
pub fn clipped_with_variance(values: &[f64], bits: u32) -> (Vec<f64>, f64) {
    let (clipped, mean) = clipped_with_mean(values, bits);
    let var = clipped.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / clipped.len() as f64;
    (clipped, var)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fednum_ldp::MeanMechanism;

    #[derive(Debug)]
    struct Exact;

    impl MeanMechanism for Exact {
        fn name(&self) -> String {
            "exact".into()
        }

        fn estimate_mean(&self, values: &[f64], _rng: &mut dyn Rng) -> f64 {
            values.iter().sum::<f64>() / values.len() as f64
        }
    }

    #[test]
    fn sweep_mean_shapes_table() {
        let table = sweep_mean(
            "t",
            "test",
            "x",
            Metric::Nrmse,
            &[1.0, 2.0],
            Repetitions::new(5, 0),
            |x, seed| {
                let values = vec![x * 10.0 + (seed % 3) as f64; 100];
                let truth = values[0];
                (values, truth)
            },
            |_| vec![Box::new(Exact)],
        );
        assert_eq!(table.series.len(), 1);
        assert_eq!(table.series[0].points.len(), 2);
        // Exact estimator → zero error everywhere.
        assert_eq!(table.series[0].points[0].summary.rmse, 0.0);
    }

    #[test]
    fn sweeps_are_deterministic() {
        let run = || {
            sweep_mean(
                "t",
                "test",
                "x",
                Metric::Rmse,
                &[1.0],
                Repetitions::new(10, 7),
                |_, seed| (vec![(seed % 100) as f64; 50], 42.0),
                |_| vec![Box::new(Exact)],
            )
        };
        let a = run();
        let b = run();
        assert_eq!(
            a.series[0].points[0].summary.rmse,
            b.series[0].points[0].summary.rmse
        );
    }

    #[test]
    fn clipping_helpers() {
        let (clipped, mean) = clipped_with_mean(&[-5.0, 10.0, 300.0], 8);
        assert_eq!(clipped, vec![0.0, 10.0, 255.0]);
        assert!((mean - 265.0 / 3.0).abs() < 1e-12);
        let (_, var) = clipped_with_variance(&[0.0, 2.0], 8);
        assert!((var - 1.0).abs() < 1e-12);
    }
}
