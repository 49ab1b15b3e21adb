//! The two-round adaptive protocol over the multi-session transport.
//!
//! The protocol itself (`fednum_fedsim::adaptive_round::run_adaptive`) is
//! written once over "run one round and hand back its published feedback".
//! On the synchronous path that feedback flows through local memory; here
//! the two rounds run as two coordinator *sessions* on one
//! [`MultiSessionEngine`] timeline: round 1 publishes its per-bit means as
//! the `feedback` field of its Publish frame, the engine opens a second
//! session strictly after everything round 1 delivered, and round 2's
//! sampling weights are re-derived from the *decoded frame* — the feedback
//! genuinely rides the wire, byte-preserved through the message codec.
//!
//! **Parity contract.** Seed for seed, the pooled estimate is bit-identical
//! to the synchronous path: the driver consumes the shared RNG in one order
//! (cohort shuffle, then round 1's draws, then round 2's), the Publish
//! codec preserves every `f64` bit of the feedback, and the session-slot
//! time translation never reorders events within a session. The
//! `adaptive_parity` integration test pins this on both wires, secure
//! rounds included: round 1's tally draws nothing from the RNG round 2
//! continues on.

use rand::Rng;

use fednum_fedsim::adaptive_round::{
    run_adaptive, FederatedAdaptiveConfig, FederatedAdaptiveOutcome,
};
use fednum_fedsim::error::FedError;

use crate::coordinator::run_session;
use crate::net::Transport;
use crate::session::MultiSessionEngine;

/// Runs the two-round adaptive protocol as two sessions over one shared
/// transport — per-client wire, or chunked when `batched` names a chunk
/// size — with the round-1 → round-2 weight feedback carried in the
/// round-1 Publish frame.
///
/// # Errors
/// [`FedError::PopulationTooSmall`] unless there are at least two clients;
/// otherwise propagates either session's error.
pub(crate) fn run_adaptive_sessions(
    values: &[f64],
    config: &FederatedAdaptiveConfig,
    transport: &mut dyn Transport,
    batched: Option<usize>,
    rng: &mut dyn Rng,
) -> Result<FederatedAdaptiveOutcome, FedError> {
    let mut engine = MultiSessionEngine::new(transport, 0.0);
    run_adaptive(values, config, rng, |cohort, env, rng, with_feedback| {
        // Each session starts strictly after the previous one's last
        // delivery on the shared timeline.
        let mut slot = engine.open_session();
        run_session(cohort, env, None, &mut slot, batched, rng, with_feedback)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::InMemoryTransport;
    use fednum_core::encoding::FixedPointCodec;
    use fednum_core::protocol::basic::BasicConfig;
    use fednum_core::sampling::BitSampling;
    use fednum_fedsim::dropout::DropoutModel;
    use fednum_fedsim::round::FederatedMeanConfig;
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
    fn two_sessions_estimate_the_mean() {
        let vs = values(20_000, 200);
        let truth = vs.iter().sum::<f64>() / vs.len() as f64;
        let cfg = FederatedAdaptiveConfig::new(env(12));
        let mut t = InMemoryTransport::new(0xADAF);
        let out =
            run_adaptive_sessions(&vs, &cfg, &mut t, None, &mut StdRng::seed_from_u64(1)).unwrap();
        assert!(
            (out.estimate - truth).abs() / truth < 0.05,
            "est {} truth {truth}",
            out.estimate
        );
        let (r1, r2) = (out.round1.contacted, out.round2.contacted);
        assert!((r1 as f64 / (r1 + r2) as f64 - 1.0 / 3.0).abs() < 0.01);
    }

    #[test]
    fn feedback_survives_the_wire_under_dropout() {
        // The round-2 weights must be derived from a decoded frame, so the
        // vacuous-bit structure of round 1 has to survive the codec.
        let vs = values(30_000, 60);
        let cfg = FederatedAdaptiveConfig::new(env(14).with_dropout(DropoutModel::bernoulli(0.3)));
        let mut t = InMemoryTransport::new(7);
        let out =
            run_adaptive_sessions(&vs, &cfg, &mut t, None, &mut StdRng::seed_from_u64(2)).unwrap();
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
    fn rejects_single_client_with_typed_error() {
        let cfg = FederatedAdaptiveConfig::new(env(4));
        let mut t = InMemoryTransport::new(0);
        assert!(matches!(
            run_adaptive_sessions(&[1.0], &cfg, &mut t, None, &mut StdRng::seed_from_u64(0)),
            Err(FedError::PopulationTooSmall { got: 1, need: 2 })
        ));
    }
}
