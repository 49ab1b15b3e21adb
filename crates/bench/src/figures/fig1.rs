//! Figure 1: accuracy on Normal-distributed data with σ = 100.
//!
//! * 1a — mean-estimation NRMSE as the true μ varies;
//! * 1b — variance-estimation NRMSE as μ varies (n = 100k);
//! * 1c — mean-estimation NRMSE as the declared bit depth varies
//!   (μ = 500 fixed, so high-order bits are increasingly vacuous).
//!
//! Expected shapes: normalized error falls as μ grows (the denominator grows
//! faster than the error) with dithering showing step-ups past powers of
//! two; the adaptive approach achieves the least error throughout; for
//! variance, dithering is orders of magnitude worse; for bit depth, the
//! one-round methods degrade while adaptive stays flat.

use fednum_metrics::table::{Metric, SeriesTable};
use fednum_metrics::Repetitions;

use crate::figures::{normal_population, Budget};
use crate::methods::{adaptive, dithering, plain_methods, weighted};
use crate::runner::{
    clipped_with_mean, clipped_with_variance, sweep_mean, sweep_variance, VarianceEstimate,
};
use fednum_fedsim::variance::VarianceViaSquares;

const SIGMA: f64 = 100.0;
/// Bit depth covering the largest μ in the sweep plus 3σ.
const BITS: u32 = 12;
const MUS: [f64; 7] = [100.0, 200.0, 500.0, 1000.0, 1500.0, 2000.0, 3000.0];

/// Figure 1a: mean-estimation NRMSE vs μ.
#[must_use]
pub fn fig1a(budget: Budget) -> SeriesTable {
    sweep_mean(
        "fig1a",
        format!(
            "Mean estimation, Normal(mu, {SIGMA}), n={}, b={BITS}",
            budget.n
        )
        .as_str(),
        "mu",
        Metric::Nrmse,
        &MUS,
        Repetitions::new(budget.reps, budget.seed),
        |mu, seed| {
            let raw = normal_population(mu, SIGMA, budget.n, seed);
            clipped_with_mean(&raw, BITS)
        },
        |_| plain_methods(BITS),
    )
}

/// Figure 1b: variance-estimation NRMSE vs μ (larger cohort).
#[must_use]
pub fn fig1b(budget: Budget) -> SeriesTable {
    sweep_variance(
        "fig1b",
        format!(
            "Variance estimation, Normal(mu, {SIGMA}), n={}, b={BITS}",
            budget.var_n
        )
        .as_str(),
        "mu",
        Metric::Nrmse,
        &MUS,
        Repetitions::new(budget.var_reps, budget.seed),
        |mu, seed| {
            let raw = normal_population(mu, SIGMA, budget.var_n, seed);
            clipped_with_variance(&raw, BITS)
        },
        |_| variance_methods(BITS),
    )
}

/// The Figure 1b/2b method set: every mean method lifted through the
/// `E[X²] − E[X]²` reduction (squares live in a `2b`-bit domain).
#[must_use]
pub fn variance_methods(bits: u32) -> Vec<(String, Box<dyn VarianceEstimate>)> {
    let sq = 2 * bits;
    vec![
        (
            "dithering".to_string(),
            Box::new(VarianceViaSquares::new(dithering(bits), dithering(sq)))
                as Box<dyn VarianceEstimate>,
        ),
        (
            "weighted a=0.5".to_string(),
            Box::new(VarianceViaSquares::new(
                weighted(bits, 0.5),
                weighted(sq, 0.5),
            )),
        ),
        (
            "weighted a=1.0".to_string(),
            Box::new(VarianceViaSquares::new(
                weighted(bits, 1.0),
                weighted(sq, 1.0),
            )),
        ),
        (
            "adaptive a=0.5".to_string(),
            Box::new(VarianceViaSquares::new(
                adaptive(bits, 0.5),
                adaptive(sq, 0.5),
            )),
        ),
    ]
}

/// Figure 1c: mean-estimation NRMSE vs declared bit depth (μ = 500).
#[must_use]
pub fn fig1c(budget: Budget) -> SeriesTable {
    let depths: Vec<f64> = [10u32, 12, 14, 16, 18, 20]
        .iter()
        .map(|&b| f64::from(b))
        .collect();
    sweep_mean(
        "fig1c",
        format!(
            "Mean estimation vs bit depth, Normal(500, {SIGMA}), n={}",
            budget.n
        )
        .as_str(),
        "bit depth",
        Metric::Nrmse,
        &depths,
        Repetitions::new(budget.reps, budget.seed),
        |bits, seed| {
            let raw = normal_population(500.0, SIGMA, budget.n, seed);
            clipped_with_mean(&raw, bits as u32)
        },
        |bits| plain_methods(bits as u32),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1a_smoke_has_expected_shape() {
        let mut budget = Budget::quick();
        budget.reps = 5;
        budget.n = 1500;
        let t = fig1a(budget);
        assert_eq!(t.series.len(), 5);
        assert_eq!(t.series[0].points.len(), MUS.len());
        // Every NRMSE is finite and positive.
        for s in &t.series {
            for p in &s.points {
                assert!(p.summary.nrmse.is_finite() && p.summary.nrmse >= 0.0);
            }
        }
    }

    #[test]
    fn fig1c_adaptive_flat_under_bit_depth() {
        let mut budget = Budget::quick();
        budget.reps = 10;
        budget.n = 3000;
        let t = fig1c(budget);
        let adaptive = t
            .series
            .iter()
            .find(|s| s.name == "adaptive a=0.5")
            .unwrap();
        let weighted = t
            .series
            .iter()
            .find(|s| s.name == "weighted a=1.0")
            .unwrap();
        // At depth 20, adaptive should be far better than weighted a=1.0.
        let a20 = adaptive.points.last().unwrap().summary.nrmse;
        let w20 = weighted.points.last().unwrap().summary.nrmse;
        assert!(a20 < w20, "adaptive {a20} vs weighted {w20} at depth 20");
    }
}
