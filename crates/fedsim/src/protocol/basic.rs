//! Algorithm 1 as a [`MeanMechanism`]: one synchronous round per estimate,
//! or `b_send` pooled rounds (Corollary 3.2).

use fednum_core::accumulator::BitAccumulator;
use fednum_core::protocol::{BasicBitPushing, MeanMechanism, Outcome};
use rand::Rng;

use crate::error::FedError;
use crate::faults::mix;
use crate::round::{run_round_impl, FederatedMeanConfig};

/// The session seed of pooled round `r`. Round 0 keeps `session_seed`, so a
/// one-round pool is the plain round; every later round hashes
/// `(session_seed, r)`, so it draws its own fault plan and secure-aggregation
/// masks and bills its own ledger round.
fn pooled_session_seed(session_seed: u64, r: u32) -> u64 {
    if r == 0 {
        session_seed
    } else {
        mix(session_seed ^ mix(u64::from(r)))
    }
}

impl FederatedMeanConfig {
    /// Runs Algorithm 1 on the synchronous carrier: `protocol.b_send`
    /// independent rounds (one by default), their histograms merged and
    /// finished once through [`BasicBitPushing::finish`]. Round `r` runs
    /// under its own session seed (round 0 under `session_seed` itself).
    ///
    /// # Errors
    /// The first round error; see [`FedError`].
    pub fn run_pooled(&self, values: &[f64], rng: &mut dyn Rng) -> Result<Outcome, FedError> {
        let mut acc = BitAccumulator::new(self.protocol.codec.bits());
        let mut clip_fraction = 0.0;
        let mut round_config = self.clone();
        for r in 0..self.protocol.b_send {
            round_config.session_seed = pooled_session_seed(self.session_seed, r);
            let round = run_round_impl(values, &round_config, None, rng)?.outcome;
            acc.merge(&round.accumulator);
            clip_fraction = round.clip_fraction;
        }
        Ok(BasicBitPushing::new(self.protocol.clone()).finish(acc, clip_fraction))
    }
}

impl MeanMechanism for FederatedMeanConfig {
    fn name(&self) -> String {
        self.protocol
            .label
            .clone()
            .unwrap_or_else(|| "bitpush-basic".to_string())
    }

    /// Panics on a round error (e.g. no clients): the trait has no error
    /// channel.
    fn estimate_mean(&self, values: &[f64], rng: &mut dyn Rng) -> f64 {
        self.run_pooled(values, rng)
            .unwrap_or_else(|e| panic!("{e}"))
            .estimate
    }

    fn epsilon(&self) -> Option<f64> {
        // Composition over the bits each client sends.
        self.protocol
            .privacy
            .as_ref()
            .map(|rr| rr.epsilon() * f64::from(self.protocol.b_send))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fednum_core::encoding::FixedPointCodec;
    use fednum_core::privacy::{BitSquash, RandomizedResponse};
    use fednum_core::protocol::BasicConfig;
    use fednum_core::sampling::{AssignmentMode, BitSampling};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn protocol(bits: u32, gamma: f64) -> FederatedMeanConfig {
        FederatedMeanConfig::new(BasicConfig::new(
            FixedPointCodec::integer(bits),
            BitSampling::geometric(bits, gamma),
        ))
    }

    fn uniform_values(n: usize, hi: u64) -> Vec<f64> {
        (0..n).map(|i| (i as u64 % hi) as f64).collect()
    }

    fn run(p: &FederatedMeanConfig, values: &[f64], seed: u64) -> Outcome {
        p.run_pooled(values, &mut StdRng::seed_from_u64(seed))
            .unwrap()
    }

    #[test]
    fn estimates_mean_within_tolerance() {
        let p = protocol(8, 1.0);
        let values = uniform_values(20_000, 200);
        let truth = values.iter().sum::<f64>() / values.len() as f64;
        let out = run(&p, &values, 1);
        assert!(
            (out.estimate - truth).abs() / truth < 0.05,
            "est {} truth {truth}",
            out.estimate
        );
        assert_eq!(out.clip_fraction, 0.0);
        // Exactly one bit was disclosed per client.
        assert_eq!(out.accumulator.total_reports(), 20_000);
    }

    #[test]
    fn estimator_is_unbiased_across_trials() {
        let p = protocol(6, 1.0);
        let values = uniform_values(2_000, 50);
        let truth = values.iter().sum::<f64>() / values.len() as f64;
        let trials = 300;
        let mean_est: f64 = (0..trials)
            .map(|s| run(&p, &values, s).estimate)
            .sum::<f64>()
            / f64::from(trials as u32);
        assert!(
            (mean_est - truth).abs() < 0.4,
            "mean of estimates {mean_est} vs truth {truth}"
        );
    }

    #[test]
    fn exact_when_every_bit_deterministic() {
        // All clients hold the same value: every bit mean is 0 or 1, so the
        // estimate is exact regardless of sampling.
        let p = protocol(8, 0.5);
        let out = run(&p, &[137.0; 500], 2);
        assert!((out.estimate - 137.0).abs() < 1e-9);
        assert_eq!(out.predicted_std, 0.0);
    }

    #[test]
    fn variance_shrinks_with_n() {
        let p = protocol(8, 1.0);
        let rmse = |n: usize| {
            let values = uniform_values(n, 200);
            let truth = values.iter().sum::<f64>() / values.len() as f64;
            let mut sq = 0.0;
            for s in 0..60u64 {
                let e = run(&p, &values, s).estimate;
                sq += (e - truth) * (e - truth);
            }
            (sq / 60.0).sqrt()
        };
        let small = rmse(1_000);
        let large = rmse(16_000);
        // Error ∝ 1/√n: 16x clients → ~4x smaller error (allow slack).
        assert!(large < small / 2.0, "rmse small-n {small}, large-n {large}");
    }

    #[test]
    fn predicted_std_tracks_observed_rmse() {
        let p = protocol(8, 1.0);
        let values = uniform_values(5_000, 200);
        let truth = values.iter().sum::<f64>() / values.len() as f64;
        let mut errs = Vec::new();
        let mut preds = Vec::new();
        for s in 0..100u64 {
            let out = run(&p, &values, s);
            errs.push((out.estimate - truth).powi(2));
            preds.push(out.predicted_std);
        }
        let rmse = (errs.iter().sum::<f64>() / errs.len() as f64).sqrt();
        let pred = preds.iter().sum::<f64>() / preds.len() as f64;
        assert!(
            (rmse / pred - 1.0).abs() < 0.35,
            "rmse {rmse} vs predicted {pred}"
        );
    }

    #[test]
    fn b_send_reduces_error() {
        let values = uniform_values(2_000, 200);
        let truth = values.iter().sum::<f64>() / values.len() as f64;
        let rmse = |b_send: u32| {
            let p = FederatedMeanConfig::new(
                BasicConfig::new(FixedPointCodec::integer(8), BitSampling::geometric(8, 1.0))
                    .with_b_send(b_send),
            );
            let mut sq = 0.0;
            for s in 0..60u64 {
                let e = p.estimate_mean(&values, &mut StdRng::seed_from_u64(s));
                sq += (e - truth) * (e - truth);
            }
            (sq / 60.0).sqrt()
        };
        let one = rmse(1);
        let four = rmse(4);
        // Corollary 3.2: variance ∝ 1/b_send, so RMSE halves at b_send=4.
        assert!(
            (one / four - 2.0).abs() < 0.7,
            "rmse b_send=1 {one}, b_send=4 {four}"
        );
    }

    #[test]
    fn pooled_rounds_each_run_under_their_own_session_seed() {
        use crate::faults::{FaultPlan, FaultRates};
        let values = uniform_values(3_000, 200);
        let mut p =
            protocol(8, 1.0).with_faults(FaultPlan::new(FaultRates::uniform(0.05), 5).unwrap());
        p.protocol = p.protocol.with_b_send(2);
        p.session_seed = 77;
        let pooled = run(&p, &values, 9);

        // The same two rounds by hand: round 0 at the configured seed, round
        // 1 at its derived seed, one rng threaded through both.
        let seeds = [77, pooled_session_seed(77, 1)];
        assert_ne!(seeds[0], seeds[1]);
        let mut rng = StdRng::seed_from_u64(9);
        let mut acc = BitAccumulator::new(8);
        let mut clip_fraction = 0.0;
        for session_seed in seeds {
            let round_config = FederatedMeanConfig {
                session_seed,
                ..p.clone()
            };
            let round = run_round_impl(&values, &round_config, None, &mut rng)
                .unwrap()
                .outcome;
            acc.merge(&round.accumulator);
            clip_fraction = round.clip_fraction;
        }
        let by_hand = BasicBitPushing::new(p.protocol.clone()).finish(acc, clip_fraction);
        assert_eq!(pooled, by_hand);
    }

    #[test]
    fn privacy_keeps_estimate_unbiased() {
        let p = FederatedMeanConfig::new(
            BasicConfig::new(FixedPointCodec::integer(8), BitSampling::geometric(8, 1.0))
                .with_privacy(RandomizedResponse::from_epsilon(2.0)),
        );
        let values = uniform_values(50_000, 200);
        let truth = values.iter().sum::<f64>() / values.len() as f64;
        let trials = 50;
        let mean_est: f64 = (0..trials)
            .map(|s| run(&p, &values, s).estimate)
            .sum::<f64>()
            / f64::from(trials as u32);
        assert!(
            (mean_est - truth).abs() / truth < 0.05,
            "mean est {mean_est} truth {truth}"
        );
        assert!(p.epsilon().is_some());
    }

    #[test]
    fn privacy_increases_predicted_std() {
        let codec = FixedPointCodec::integer(8);
        let sampling = BitSampling::geometric(8, 1.0);
        let plain = FederatedMeanConfig::new(BasicConfig::new(codec, sampling.clone()));
        let private = FederatedMeanConfig::new(
            BasicConfig::new(codec, sampling).with_privacy(RandomizedResponse::from_epsilon(1.0)),
        );
        let values = uniform_values(10_000, 200);
        let a = run(&plain, &values, 3);
        let b = run(&private, &values, 3);
        assert!(b.predicted_std > 2.0 * a.predicted_std);
    }

    #[test]
    fn squash_drops_noise_bits_and_reduces_error() {
        let rr = RandomizedResponse::from_epsilon(2.0);
        let base = BasicConfig::new(
            FixedPointCodec::integer(16),
            BitSampling::geometric(16, 1.0),
        )
        .with_privacy(rr);
        let plain = FederatedMeanConfig::new(base.clone());
        let squashed = FederatedMeanConfig::new(base.with_squash(BitSquash::Absolute(0.05)));
        // Data uses only the low 6 bits; bits 6..16 are pure DP noise, which
        // the weighted sampling massively over-weights.
        let values = uniform_values(60_000, 60);
        let truth = values.iter().sum::<f64>() / values.len() as f64;
        let mae = |p: &FederatedMeanConfig| {
            (0..20u64)
                .map(|s| (run(p, &values, s).estimate - truth).abs())
                .sum::<f64>()
                / 20.0
        };
        let e_plain = mae(&plain);
        let e_squash = mae(&squashed);
        assert!(
            e_squash < e_plain / 2.0,
            "squash {e_squash} should far beat plain {e_plain}"
        );
        // High bits squashed to exactly 0 in a representative run.
        let out = run(&squashed, &values, 4);
        assert_eq!(out.bit_means[15], 0.0);
        assert_eq!(out.bit_means[12], 0.0);
    }

    #[test]
    fn clip_fraction_reported() {
        let p = protocol(4, 1.0); // max 15
        let out = run(&p, &[1.0, 2.0, 100.0, 200.0], 5);
        assert!((out.clip_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn local_assignment_also_works() {
        let p = FederatedMeanConfig::new(
            BasicConfig::new(FixedPointCodec::integer(8), BitSampling::geometric(8, 1.0))
                .with_assignment(AssignmentMode::Local),
        );
        let values = uniform_values(30_000, 200);
        let truth = values.iter().sum::<f64>() / values.len() as f64;
        let out = run(&p, &values, 6);
        assert!((out.estimate - truth).abs() / truth < 0.06);
    }

    #[test]
    fn spanning_codec_handles_signed_data() {
        let codec = FixedPointCodec::spanning(10, -50.0, 50.0);
        let p = FederatedMeanConfig::new(BasicConfig::new(codec, BitSampling::geometric(10, 1.0)));
        let values: Vec<f64> = (0..20_000).map(|i| -30.0 + (i % 60) as f64).collect();
        let truth = values.iter().sum::<f64>() / values.len() as f64;
        let out = run(&p, &values, 7);
        assert!((out.estimate - truth).abs() < 1.5, "est {}", out.estimate);
    }

    #[test]
    fn mean_mechanism_label() {
        let p = FederatedMeanConfig::new(
            BasicConfig::new(FixedPointCodec::integer(4), BitSampling::uniform(4))
                .with_label("weighted a=1.0"),
        );
        assert_eq!(p.name(), "weighted a=1.0");
        assert_eq!(protocol(4, 1.0).name(), "bitpush-basic");
    }

    #[test]
    #[should_panic(expected = "population of 0 below the required 1")]
    fn run_rejects_empty() {
        let p = protocol(4, 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = p.estimate_mean(&[], &mut rng);
    }
}
