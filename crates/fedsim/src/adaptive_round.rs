//! Algorithm 2: two-round adaptive bit-pushing through the federated
//! environment.
//!
//! Round 1 on a δ cohort samples bits with `p_j ∝ (2^j)^γ` and publishes the
//! bit means; round 2 on the rest samples with the re-optimized weights
//! `p_j ∝ (4^j m_j (1 - m_j))^α` (Lemma 3.3 at `α = 1/2`), which stop
//! sampling vacuous high-order bits; the estimate pools both rounds
//! ("caching", on by default). Both are rounds of [`crate::round`], so the
//! Section 4.3 observations ("when many high-order bits do not contain
//! information of value, the adaptive approach reduces the observed error
//! by significant factors") hold under dropout and secure aggregation too.

use fednum_core::accumulator::BitAccumulator;
use fednum_core::protocol::basic::BasicConfig;
use fednum_core::sampling::BitSampling;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::round::{run_round, Direct, FederatedMeanConfig, FederatedOutcome, RoundError};

/// Configuration for a federated adaptive task: the environment settings of
/// [`FederatedMeanConfig`] plus the Algorithm 2 parameters.
#[derive(Debug, Clone)]
pub struct FederatedAdaptiveConfig {
    /// Environment template (dropout, waves, secagg, latency). Its
    /// `protocol.sampling` is ignored — rounds use γ / re-optimized weights.
    pub environment: FederatedMeanConfig,
    /// Round-1 geometric exponent γ (default 0.5).
    pub gamma: f64,
    /// Round-2 weight exponent α (default 0.5).
    pub alpha: f64,
    /// Round-1 cohort fraction δ (default 1/3).
    pub delta: f64,
    /// Pool both rounds' reports in the final estimate (Section 3.2
    /// "Caching"; default true). Without it the estimate uses round 2's
    /// reports alone.
    pub caching: bool,
}

impl FederatedAdaptiveConfig {
    /// Paper defaults over the given environment.
    #[must_use]
    pub fn new(environment: FederatedMeanConfig) -> Self {
        Self {
            environment,
            gamma: 0.5,
            alpha: 0.5,
            delta: 1.0 / 3.0,
            caching: true,
        }
    }

    /// Sets α.
    ///
    /// # Panics
    /// Panics unless `alpha > 0`.
    #[must_use]
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha.is_finite(), "alpha must be > 0");
        self.alpha = alpha;
        self
    }

    /// Sets δ.
    ///
    /// # Panics
    /// Panics unless `0 < delta < 1`.
    #[must_use]
    pub fn with_delta(mut self, delta: f64) -> Self {
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        self.delta = delta;
        self
    }
}

/// Result of a federated adaptive task.
#[derive(Debug, Clone)]
pub struct FederatedAdaptiveOutcome {
    /// Final pooled estimate in the value domain.
    pub estimate: f64,
    /// Round-1 environment outcome.
    pub round1: FederatedOutcome,
    /// Round-2 environment outcome.
    pub round2: FederatedOutcome,
    /// The re-optimized round-2 sampling distribution.
    pub round2_sampling: BitSampling,
    /// Total wall-clock across both rounds.
    pub completion_time: f64,
}

/// Algorithm 2 over any way of running one round: δ / (1−δ) cohort split,
/// round 1 on geometric(γ) weights publishing its per-bit means as
/// feedback, round 2 on the weights re-optimized from that feedback, pooled
/// estimate. `run_round(cohort, environment, rng, with_feedback)` runs one
/// flat round and hands back its outcome plus the feedback *as published* —
/// local memory on the synchronous path, the decoded Publish frame over a
/// transport. The shared RNG is consumed in one order everywhere: cohort
/// shuffle, then round 1's draws, then round 2's.
///
/// # Errors
/// [`RoundError::InvalidConfig`] unless `environment.protocol.b_send` is 1
/// (each client reports one bit, in one round);
/// [`RoundError::PopulationTooSmall`] unless there are at least two clients;
/// otherwise propagates the error of either round.
#[doc(hidden)]
pub fn run_adaptive(
    values: &[f64],
    config: &FederatedAdaptiveConfig,
    rng: &mut dyn Rng,
    mut run_round: impl FnMut(
        &[f64],
        &FederatedMeanConfig,
        &mut dyn Rng,
        bool,
    ) -> Result<(FederatedOutcome, Vec<f64>), RoundError>,
) -> Result<FederatedAdaptiveOutcome, RoundError> {
    let b_send = config.environment.protocol.b_send;
    if b_send != 1 {
        return Err(RoundError::InvalidConfig(format!(
            "`b_send = {b_send}` asks each client for {b_send} bits, but \
             Algorithm 2 sends one bit per client; keep the default of 1"
        )));
    }
    if values.len() < 2 {
        return Err(RoundError::PopulationTooSmall {
            got: values.len(),
            need: 2,
        });
    }
    let base = &config.environment.protocol;
    let bits = base.codec.bits();

    // δ / (1-δ) split.
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.shuffle(rng);
    let n1 = ((config.delta * values.len() as f64).round() as usize).clamp(1, values.len() - 1);
    let cohort1: Vec<f64> = order[..n1].iter().map(|&i| values[i]).collect();
    let cohort2: Vec<f64> = order[n1..].iter().map(|&i| values[i]).collect();

    let make_env = |sampling: BitSampling| FederatedMeanConfig {
        protocol: BasicConfig {
            sampling,
            ..base.clone()
        },
        ..config.environment.clone()
    };

    // Round 1: geometric(γ).
    let round1_env = make_env(BitSampling::geometric(bits, config.gamma));
    let (round1, feedback) = run_round(&cohort1, &round1_env, rng, true)?;

    // Re-optimize from the published round-1 bit means (already squashed by
    // the protocol if configured); fall back to round-1 weights for
    // degenerate signals.
    debug_assert_eq!(feedback.len(), bits as usize);
    let sampling2 = BitSampling::adaptive_weights(&feedback, config.alpha)
        .unwrap_or_else(|| BitSampling::geometric(bits, config.gamma));

    // Round 2 on the remaining clients.
    let (round2, _) = run_round(&cohort2, &make_env(sampling2.clone()), rng, false)?;

    // Pool both rounds' histograms ("caching") or keep round 2's alone,
    // using round-1 means as the prior for bits round 2 deliberately
    // stopped sampling.
    let pooled = if config.caching {
        let mut pooled = round1.outcome.accumulator.clone();
        pooled.merge(&round2.outcome.accumulator);
        pooled
    } else {
        round2.outcome.accumulator.clone()
    };
    let means = pooled.bit_means_with_prior(&round1.outcome.bit_means);
    let means = match &base.squash {
        Some(sq) => sq.apply(&means, pooled.counts(), base.privacy.as_ref()),
        None => means,
    };
    let estimate = base
        .codec
        .decode_float(BitAccumulator::estimate_from_means(&means));

    let completion_time = round1.completion_time + round2.completion_time;
    Ok(FederatedAdaptiveOutcome {
        estimate,
        round1,
        round2,
        round2_sampling: sampling2,
        completion_time,
    })
}

/// The synchronous two-round protocol behind the `RoundBuilder` facade and
/// the config's `MeanMechanism` impl. Not part of the public API surface —
/// call it through `fednum::transport::RoundBuilder::new_adaptive(config)`
/// or `estimate_mean`.
///
/// # Errors
/// See [`run_adaptive`].
#[doc(hidden)]
pub fn run_adaptive_impl(
    values: &[f64],
    config: &FederatedAdaptiveConfig,
    rng: &mut dyn Rng,
) -> Result<FederatedAdaptiveOutcome, RoundError> {
    run_adaptive(values, config, rng, |cohort, env, rng, with_feedback| {
        run_round(cohort, env, None, &mut Direct, rng, with_feedback)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dropout::DropoutModel;
    use crate::latency::LatencyModel;
    use crate::round::run_round_impl;
    use fednum_core::encoding::FixedPointCodec;
    use fednum_core::privacy::RandomizedResponse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn env(bits: u32) -> FederatedMeanConfig {
        FederatedMeanConfig::new(BasicConfig::new(
            FixedPointCodec::integer(bits),
            BitSampling::geometric(bits, 0.5),
        ))
    }

    fn values(n: usize, hi: u64) -> Vec<f64> {
        (0..n).map(|i| (i as u64 % hi) as f64).collect()
    }

    #[test]
    fn adaptive_round_estimates_mean() {
        let vs = values(20_000, 200);
        let truth = vs.iter().sum::<f64>() / vs.len() as f64;
        let cfg = FederatedAdaptiveConfig::new(env(12));
        let mut rng = StdRng::seed_from_u64(1);
        let out = run_adaptive_impl(&vs, &cfg, &mut rng).unwrap();
        assert!(
            (out.estimate - truth).abs() / truth < 0.05,
            "est {} truth {truth}",
            out.estimate
        );
        // δ split respected.
        let r1 = out.round1.contacted;
        let r2 = out.round2.contacted;
        assert!((r1 as f64 / (r1 + r2) as f64 - 1.0 / 3.0).abs() < 0.01);
    }

    #[test]
    fn round2_drops_vacuous_bits_under_dropout() {
        // 14-bit codec, 6-bit data, 30% dropout: the adaptive pass must
        // still identify and drop the empty bits.
        let vs = values(30_000, 60);
        let cfg = FederatedAdaptiveConfig::new(env(14).with_dropout(DropoutModel::bernoulli(0.3)));
        let mut rng = StdRng::seed_from_u64(2);
        let out = run_adaptive_impl(&vs, &cfg, &mut rng).unwrap();
        let dropped = out
            .round2_sampling
            .probs()
            .iter()
            .skip(7)
            .filter(|&&p| p == 0.0)
            .count();
        assert!(dropped >= 6, "vacuous high bits should be dropped");
    }

    #[test]
    fn adaptive_beats_single_round_in_the_same_environment() {
        let vs = values(12_000, 60); // 6-bit data in a 14-bit domain
        let truth = vs.iter().sum::<f64>() / vs.len() as f64;
        let dropout = DropoutModel::bernoulli(0.2);
        let rmse = |adaptive: bool| {
            let mut sq = 0.0;
            let trials = 25;
            for s in 0..trials {
                let mut rng = StdRng::seed_from_u64(s);
                let est = if adaptive {
                    let cfg = FederatedAdaptiveConfig::new(env(14).with_dropout(dropout));
                    run_adaptive_impl(&vs, &cfg, &mut rng).unwrap().estimate
                } else {
                    let mut e = env(14).with_dropout(dropout);
                    e.protocol = BasicConfig::new(
                        FixedPointCodec::integer(14),
                        BitSampling::geometric(14, 1.0),
                    );
                    run_round_impl(&vs, &e, None, &mut rng)
                        .unwrap()
                        .outcome
                        .estimate
                };
                sq += (est - truth) * (est - truth);
            }
            (sq / trials as f64).sqrt()
        };
        let r_adaptive = rmse(true);
        let r_single = rmse(false);
        assert!(
            r_adaptive < r_single,
            "adaptive {r_adaptive} should beat single-round {r_single}"
        );
    }

    #[test]
    fn privacy_and_latency_compose() {
        let vs = values(60_000, 200);
        let truth = vs.iter().sum::<f64>() / vs.len() as f64;
        let mut environment = env(8).with_latency(LatencyModel::typical_fleet());
        environment.protocol =
            BasicConfig::new(FixedPointCodec::integer(8), BitSampling::geometric(8, 1.0))
                .with_privacy(RandomizedResponse::from_epsilon(2.0));
        let cfg = FederatedAdaptiveConfig::new(environment);
        let mut rng = StdRng::seed_from_u64(3);
        let out = run_adaptive_impl(&vs, &cfg, &mut rng).unwrap();
        assert!((out.estimate - truth).abs() / truth < 0.25);
        // Two rounds of wall-clock.
        assert!(out.completion_time > out.round1.completion_time);
        assert!(out.completion_time > out.round2.completion_time);
    }

    #[test]
    fn delta_controls_cohorts() {
        let vs = values(1_000, 50);
        let cfg = FederatedAdaptiveConfig::new(env(6)).with_delta(0.25);
        let mut rng = StdRng::seed_from_u64(4);
        let out = run_adaptive_impl(&vs, &cfg, &mut rng).unwrap();
        assert_eq!(out.round1.contacted, 250);
        assert_eq!(out.round2.contacted, 750);
    }

    #[test]
    fn b_send_above_one_is_rejected_not_dropped() {
        let vs = values(2_000, 64);
        let base = env(6);
        let cfg = FederatedAdaptiveConfig::new(FederatedMeanConfig {
            protocol: base.protocol.clone().with_b_send(4),
            ..base
        });
        let mut rng = StdRng::seed_from_u64(0);
        match run_adaptive_impl(&vs, &cfg, &mut rng) {
            Err(RoundError::InvalidConfig(msg)) => assert!(msg.contains("b_send = 4"), "{msg}"),
            other => panic!("b_send = 4 must fail closed, got {other:?}"),
        }
    }

    #[test]
    fn rejects_single_client_with_typed_error() {
        let cfg = FederatedAdaptiveConfig::new(env(4));
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            run_adaptive_impl(&[1.0], &cfg, &mut rng),
            Err(RoundError::PopulationTooSmall { got: 1, need: 2 })
        ));
    }
}
