//! Algorithm 2 as a [`MeanMechanism`]: both rounds of
//! [`crate::adaptive_round`] on the synchronous carrier.

use fednum_core::privacy::RandomizedResponse;
use fednum_core::protocol::MeanMechanism;
use rand::Rng;

use crate::adaptive_round::{run_adaptive_impl, FederatedAdaptiveConfig};

impl MeanMechanism for FederatedAdaptiveConfig {
    fn name(&self) -> String {
        self.environment
            .protocol
            .label
            .clone()
            .unwrap_or_else(|| "bitpush-adaptive".to_string())
    }

    /// Panics on a round error (e.g. `b_send != 1`): the trait has no error
    /// channel.
    fn estimate_mean(&self, values: &[f64], rng: &mut dyn Rng) -> f64 {
        run_adaptive_impl(values, self, rng)
            .unwrap_or_else(|e| panic!("{e}"))
            .estimate
    }

    fn epsilon(&self) -> Option<f64> {
        // Each client participates in exactly one round and sends one bit.
        self.environment
            .protocol
            .privacy
            .as_ref()
            .map(RandomizedResponse::epsilon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive_round::FederatedAdaptiveOutcome;
    use crate::round::FederatedMeanConfig;
    use fednum_core::encoding::FixedPointCodec;
    use fednum_core::privacy::BitSquash;
    use fednum_core::protocol::BasicConfig;
    use fednum_core::sampling::BitSampling;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Paper defaults over a `bits`-bit integer codec (the environment's
    /// own sampling is unused: the rounds sample with γ and α).
    fn adaptive(bits: u32) -> FederatedAdaptiveConfig {
        FederatedAdaptiveConfig::new(FederatedMeanConfig::new(BasicConfig::new(
            FixedPointCodec::integer(bits),
            BitSampling::geometric(bits, 0.5),
        )))
    }

    fn run(cfg: &FederatedAdaptiveConfig, values: &[f64], seed: u64) -> FederatedAdaptiveOutcome {
        run_adaptive_impl(values, cfg, &mut StdRng::seed_from_u64(seed)).unwrap()
    }

    fn uniform_values(n: usize, hi: u64) -> Vec<f64> {
        (0..n).map(|i| (i as u64 % hi) as f64).collect()
    }

    fn rmse_of<F: Fn(u64) -> f64>(truth: f64, trials: u64, f: F) -> f64 {
        let mut sq = 0.0;
        for s in 0..trials {
            let e = f(s);
            sq += (e - truth) * (e - truth);
        }
        (sq / trials as f64).sqrt()
    }

    #[test]
    fn estimates_mean_within_tolerance() {
        let values = uniform_values(20_000, 200);
        let truth = values.iter().sum::<f64>() / values.len() as f64;
        let out = run(&adaptive(8), &values, 1);
        assert!(
            (out.estimate - truth).abs() / truth < 0.05,
            "est {} truth {truth}",
            out.estimate
        );
    }

    #[test]
    fn round2_drops_vacuous_high_bits() {
        // 12-bit codec but data below 64: bits 6..12 have mean 0, and round 2
        // must not waste samples on them.
        let out = run(&adaptive(12), &uniform_values(30_000, 60), 2);
        let probs = out.round2_sampling.probs();
        for (j, &p) in probs.iter().enumerate().skip(7) {
            assert_eq!(p, 0.0, "vacuous bit {j} still sampled");
        }
        assert!(probs[..6].iter().sum::<f64>() > 0.99);
    }

    #[test]
    fn adaptive_beats_basic_on_loose_bit_depth() {
        // The Figure 1c phenomenon: with many vacuous bits, single-round
        // weighted sampling wastes most reports on noise-free-but-empty high
        // bits while adaptive reallocates them.
        let bits = 14;
        let values = uniform_values(10_000, 60); // only 6 bits used
        let truth = values.iter().sum::<f64>() / values.len() as f64;
        let basic = FederatedMeanConfig::new(BasicConfig::new(
            FixedPointCodec::integer(bits),
            BitSampling::geometric(bits, 1.0),
        ));
        let adaptive = adaptive(bits);
        let r_basic = rmse_of(truth, 40, |s| {
            basic.estimate_mean(&values, &mut StdRng::seed_from_u64(s))
        });
        let r_adaptive = rmse_of(truth, 40, |s| {
            adaptive.estimate_mean(&values, &mut StdRng::seed_from_u64(s))
        });
        assert!(
            r_adaptive < r_basic,
            "adaptive {r_adaptive} should beat basic {r_basic}"
        );
    }

    #[test]
    fn caching_does_not_hurt() {
        let values = uniform_values(6_000, 200);
        let truth = values.iter().sum::<f64>() / values.len() as f64;
        let with = adaptive(8);
        let without = FederatedAdaptiveConfig {
            caching: false,
            ..adaptive(8)
        };
        let r_with = rmse_of(truth, 60, |s| {
            with.estimate_mean(&values, &mut StdRng::seed_from_u64(s))
        });
        let r_without = rmse_of(truth, 60, |s| {
            without.estimate_mean(&values, &mut StdRng::seed_from_u64(s))
        });
        // Pooling strictly adds reports per bit; allow small noise slack.
        assert!(
            r_with < r_without * 1.15,
            "caching {r_with} vs no caching {r_without}"
        );
    }

    #[test]
    fn constant_population_is_exact() {
        let out = run(&adaptive(8), &[42.0; 1000], 3);
        assert!((out.estimate - 42.0).abs() < 1e-9, "est {}", out.estimate);
    }

    #[test]
    fn privacy_with_squash_survives_deep_bit_depth() {
        // Figure 4c: under DP, squashing keeps adaptive accurate as vacuous
        // bit depth grows.
        let rr = RandomizedResponse::from_epsilon(2.0);
        let values = uniform_values(60_000, 60);
        let truth = values.iter().sum::<f64>() / values.len() as f64;
        let mut p = adaptive(16);
        p.environment.protocol = p
            .environment
            .protocol
            .with_privacy(rr)
            .with_squash(BitSquash::Absolute(0.05));
        let r = rmse_of(truth, 20, |s| {
            p.estimate_mean(&values, &mut StdRng::seed_from_u64(s))
        });
        assert!(r / truth < 0.25, "NRMSE {} too high", r / truth);
    }

    #[test]
    fn delta_controls_round_sizes() {
        let p = adaptive(6).with_delta(0.25);
        let out = run(&p, &uniform_values(1_000, 50), 4);
        assert_eq!(out.round1.outcome.accumulator.total_reports(), 250);
        assert_eq!(out.round2.outcome.accumulator.total_reports(), 750);
    }

    #[test]
    fn two_client_minimum() {
        let out = run(&adaptive(4), &[3.0, 5.0], 5);
        assert!(out.estimate.is_finite());
    }

    #[test]
    fn label_round_trips() {
        let mut p = adaptive(4);
        assert_eq!(p.name(), "bitpush-adaptive");
        p.environment.protocol = p.environment.protocol.with_label("adaptive");
        assert_eq!(p.name(), "adaptive");
    }

    #[test]
    #[should_panic(expected = "population of 1 below the required 2")]
    fn rejects_single_client() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = adaptive(4).estimate_mean(&[1.0], &mut rng);
    }

    #[test]
    #[should_panic(expected = "delta must be in")]
    fn rejects_bad_delta() {
        let _ = adaptive(4).with_delta(1.0);
    }
}
