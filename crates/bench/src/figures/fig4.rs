//! Figure 4: bit squashing under differential privacy (synthetic data).
//!
//! * 4a — RMSE as the squash threshold varies (as a multiple of the expected
//!   DP noise); the paper finds 0.05–0.2 absolute (a few noise-sigmas)
//!   improves accuracy by almost two orders of magnitude;
//! * 4b — the per-bit estimated means under ε = 2 noise: a dense signal
//!   region in the low bits, random noise above, some estimates outside
//!   `[0, 1]`;
//! * 4c — RMSE vs bit depth under ε = 2: squashing keeps the adaptive
//!   approach flat while every other method grows with the (noisy) domain
//!   magnitude.

use fednum_core::encoding::FixedPointCodec;
use fednum_core::privacy::{BitSquash, RandomizedResponse};
use fednum_core::protocol::basic::BasicConfig;
use fednum_core::sampling::BitSampling;
use fednum_fedsim::FederatedMeanConfig;
use fednum_ldp::{DitheringLdp, MeanMechanism, PiecewiseMechanism, ValueRange};
use fednum_metrics::table::{Metric, SeriesTable};
use fednum_metrics::Repetitions;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::figures::{normal_population, Budget};
use crate::methods::{adaptive_config, adaptive_dp, weighted_dp};
use crate::runner::{clipped_with_mean, sweep_mean};

const EPSILON: f64 = 2.0;
/// Data occupies ~10 bits (μ = 800, σ = 100); the codec carries 16.
const MU: f64 = 800.0;
const SIGMA: f64 = 100.0;
const BITS: u32 = 16;

/// Figure 4a: RMSE vs squash threshold (multiples of the expected DP noise
/// std), ε = 2.
#[must_use]
pub fn fig4a(budget: Budget) -> SeriesTable {
    let multiples = [0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0];
    sweep_mean(
        "fig4a",
        &format!(
            "Bit squashing threshold sweep, Normal({MU}, {SIGMA}), eps={EPSILON}, b={BITS}, n={}",
            budget.n
        ),
        "threshold (x noise std)",
        Metric::Rmse,
        &multiples,
        Repetitions::new(budget.reps, budget.seed),
        |_, seed| {
            let raw = normal_population(MU, SIGMA, budget.n, seed);
            clipped_with_mean(&raw, BITS)
        },
        |mult| {
            let squash = (mult > 0.0).then_some(BitSquash::NoiseMultiple(mult));
            vec![
                Box::new({
                    let mut cfg = adaptive_config(BITS, "adaptive rr+squash");
                    cfg.environment.protocol.privacy =
                        Some(RandomizedResponse::from_epsilon(EPSILON));
                    cfg.environment.protocol.squash = squash;
                    cfg
                }) as Box<dyn MeanMechanism>,
                Box::new(FederatedMeanConfig::new(BasicConfig {
                    privacy: Some(RandomizedResponse::from_epsilon(EPSILON)),
                    squash,
                    ..BasicConfig::new(
                        FixedPointCodec::integer(BITS),
                        BitSampling::geometric(BITS, 1.0),
                    )
                    .with_label("weighted a=1.0 rr+squash")
                })),
            ]
        },
    )
}

/// Figure 4b: the estimated per-bit means under ε = 2 noise, printed as a
/// bit → mean table with the 0.05 squash threshold marked.
#[must_use]
pub fn fig4b(budget: Budget) -> String {
    let raw = normal_population(MU, SIGMA, budget.n, budget.seed);
    let (values, _) = clipped_with_mean(&raw, BITS);
    let raw_means = noisy_bit_means(budget);
    let codes: Vec<u64> = values
        .iter()
        .map(|&v| FixedPointCodec::integer(BITS).encode(v))
        .collect();
    let exact = fednum_core::bits::exact_bit_means(&codes, BITS);
    let threshold = 0.05;
    let mut s = String::new();
    s.push_str(&format!(
        "== Histogram of noisy bit means (eps={EPSILON}, b={BITS}, n={}) [fig4b] ==\n",
        budget.n
    ));
    s.push_str("bit   estimated-mean   exact-mean   squashed@0.05\n");
    s.push_str("------------------------------------------------\n");
    for (j, (&est, &truth)) in raw_means.iter().zip(&exact).enumerate() {
        s.push_str(&format!(
            "{j:>3}   {est:>14.4}   {truth:>10.4}   {}\n",
            if est < threshold { "yes" } else { "no" }
        ));
    }
    let outside = raw_means
        .iter()
        .filter(|&&m| !(0.0..=1.0).contains(&m))
        .count();
    s.push_str(&format!(
        "bits with estimates outside [0,1]: {outside} (DP noise overshoot, cf. paper Fig 4b)\n"
    ));
    s
}

/// Figure 4c: RMSE vs bit depth under ε = 2 with and without squashing.
#[must_use]
pub fn fig4c(budget: Budget) -> SeriesTable {
    let depths: Vec<f64> = [11u32, 12, 14, 16, 18, 20]
        .iter()
        .map(|&b| f64::from(b))
        .collect();
    sweep_mean(
        "fig4c",
        &format!(
            "LDP mean estimation vs bit depth, eps={EPSILON}, Normal({MU}, {SIGMA}), n={}",
            budget.n
        ),
        "bit depth",
        Metric::Rmse,
        &depths,
        Repetitions::new(budget.reps, budget.seed),
        |bits, seed| {
            let raw = normal_population(MU, SIGMA, budget.n, seed);
            clipped_with_mean(&raw, bits as u32)
        },
        |bits| {
            let bits = bits as u32;
            vec![
                Box::new(adaptive_dp(bits, EPSILON, Some(BitSquash::Absolute(0.05))))
                    as Box<dyn MeanMechanism>,
                Box::new(adaptive_dp(bits, EPSILON, None)),
                Box::new(weighted_dp(bits, 0.5, EPSILON)),
                Box::new(weighted_dp(bits, 1.0, EPSILON)),
                Box::new(DitheringLdp::new(ValueRange::from_bits(bits), EPSILON)),
                Box::new(PiecewiseMechanism::new(
                    ValueRange::from_bits(bits),
                    EPSILON,
                )),
            ]
        },
    )
}

/// The raw (unsquashed) per-bit means of one ε = 2 round with uniform
/// sampling — equal reports per bit, as a histogram.
#[must_use]
pub fn noisy_bit_means(budget: Budget) -> Vec<f64> {
    let raw = normal_population(MU, SIGMA, budget.n, budget.seed);
    let (values, _) = clipped_with_mean(&raw, BITS);
    let protocol = FederatedMeanConfig::new(
        BasicConfig::new(FixedPointCodec::integer(BITS), BitSampling::uniform(BITS))
            .with_privacy(RandomizedResponse::from_epsilon(EPSILON)),
    );
    let mut rng = StdRng::seed_from_u64(budget.seed);
    let out = protocol
        .run_pooled(&values, &mut rng)
        .expect("a non-empty cohort reports");
    out.accumulator.bit_means()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4b_shows_dense_low_bits_and_noisy_high_bits() {
        let mut budget = Budget::quick();
        budget.n = 20_000;
        let means = noisy_bit_means(budget);
        // Bits 5..10 carry signal for Normal(800, 100).
        assert!(means[8] > 0.2, "signal bit 8 mean {}", means[8]);
        // Top bits are pure noise: near zero on average but nonzero.
        let top: f64 = means[13..].iter().map(|m| m.abs()).sum::<f64>() / 3.0;
        assert!(top < 0.2, "noise bits should be small, got {top}");
        let text = fig4b(budget);
        assert!(text.contains("fig4b"));
        assert!(text.lines().count() > BITS as usize);
    }

    #[test]
    fn fig4a_squashing_helps() {
        let mut budget = Budget::quick();
        budget.reps = 8;
        budget.n = 20_000;
        let t = fig4a(budget);
        let adaptive = t
            .series
            .iter()
            .find(|s| s.name == "adaptive rr+squash")
            .unwrap();
        let none = adaptive.points.first().unwrap().summary.rmse; // multiple 0 = no squash
        let good = adaptive
            .points
            .iter()
            .find(|p| p.x == 3.0)
            .unwrap()
            .summary
            .rmse;
        assert!(
            good < none / 2.0,
            "3-sigma squash {good} should beat no squash {none}"
        );
    }
}
