//! The shuffle-model trust tier: a shuffler between clients and the
//! coordinator.
//!
//! Pure LDP needs no trust but pays in noise; secure aggregation buys
//! central-DP accuracy with expensive masking rounds. The shuffle model
//! sits between: each client still runs the cheap ε₀-LDP randomized
//! response, but submits the single bit to a *shuffler* instead of the
//! coordinator. The shuffler buffers the wave, strips every envelope's
//! sender identity, applies a seeded permutation, and forwards one
//! anonymized [`ShuffleMessage::Batch`](fednum_core::wire::ShuffleMessage)
//! per wave — the coordinator never
//! observes a (client, frame) linkage, which is exactly the precondition
//! of the amplification-by-shuffling bound in
//! [`fednum_core::privacy::amplification`]: `n` shuffled ε₀-LDP reports
//! satisfy central (ε, δ)-DP with ε ≪ ε₀ for large cohorts.
//!
//! ```text
//!  client                shuffler                coordinator
//!    │ ── Submit ──────────▶ │                       │   collect wave
//!    │                       │  (strip id, permute)  │
//!    │                       │ ── Batch ───────────▶ │   tally
//!    │ ◀──────────────────────────────────── Publish │   publish
//! ```
//!
//! **Threat model.** The shuffler and the coordinator must not collude:
//! the shuffler sees (client, bit) pairs but no aggregate; the coordinator
//! sees the anonymized multiset but no identities. Either party alone
//! learns no more than the amplified central guarantee allows (each bit is
//! still ε₀-LDP against the shuffler itself). A colluding pair collapses
//! the tier back to plain LDP — the ledger's local-ε fallback is exactly
//! the guarantee that survives collusion.
//!
//! **One round, one more wire.** A shuffled round is the shared round of
//! `fednum_fedsim::round` — wave schedule and deficit refills, client
//! model, latency, cohort check, estimator tail, publish — over a
//! `coordinator::Session` whose waves travel through the shuffler. Each
//! wave's batch is its own anonymity set: its submitters are billed the
//! amplified ε at *that* batch's size, so a small refill wave falls below
//! the bound's validity threshold and pays the local ε₀, unamplified.
//!
//! **Determinism.** The shared RNG is drawn in the driver's order (pool
//! shuffle, per-wave assignment and latency, then per client dropout and
//! randomized response) before any of a wave's frames crosses the
//! transport, and the permutation seed is hash-derived via
//! [`mix`](crate::scheduler::mix) — never drawn from the session RNG. A
//! shuffled round is therefore bit-identical across InMemory/SimNet/TCP
//! transports per seed, and its estimate and traffic ledger are invariant
//! under the permutation seed (the batch length and the per-bit tally are
//! both permutation-independent).

use fednum_core::privacy::{Amplification, PrivacyLedger, ShuffleCharge};
use rand::Rng;

use fednum_fedsim::error::FedError;
use fednum_fedsim::round::{tally_round, FederatedMeanConfig, FederatedOutcome};

use crate::coordinator::Session;
use crate::net::Transport;

/// Session-seed tag for the default permutation seed, so it is independent
/// of every other hash-derived stream in the round.
const SHUFFLE_TAG: u64 = 0x5AFF_1E2D_8C4B_7A93;

/// Configuration of the shuffle tier for one round.
///
/// Built fail-closed via [`ShuffleConfig::try_new`]: an invalid δ is
/// rejected before anything runs, so a shuffled round can never charge a
/// guarantee stated at a meaningless failure probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShuffleConfig {
    delta: f64,
    permutation_seed: Option<u64>,
}

impl ShuffleConfig {
    /// A shuffle tier whose amplified central guarantee is stated at
    /// failure probability `delta`.
    ///
    /// # Errors
    /// [`FedError::InvalidConfig`] unless `delta` lies in (0, 1).
    pub fn try_new(delta: f64) -> Result<Self, FedError> {
        if !delta.is_finite() || delta <= 0.0 || delta >= 1.0 {
            return Err(FedError::InvalidConfig(format!(
                "shuffle delta must lie in (0, 1), got {delta}"
            )));
        }
        Ok(Self {
            delta,
            permutation_seed: None,
        })
    }

    /// Overrides the shuffler's permutation seed (hash-derived from the
    /// session seed by default). The published estimate and traffic
    /// ledger are invariant under this seed — only the batch's entry
    /// order changes.
    #[must_use]
    pub fn with_permutation_seed(mut self, seed: u64) -> Self {
        self.permutation_seed = Some(seed);
        self
    }

    /// The failure probability δ the amplified guarantee is stated at.
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.delta
    }
}

/// What a shuffled round published: the usual flat-round report plus the
/// privacy charge the shuffle tier certified.
#[derive(Debug, Clone)]
pub struct ShuffledOutcome {
    /// The flat-round report (estimate, cohort, traffic — the `Shuffle`
    /// phase carries both the submissions and the batches).
    pub round: FederatedOutcome,
    /// The largest ε the round billed any reporter: amplified central
    /// (ε, δ) when every wave's batch met the bound's validity threshold,
    /// the conservative local ε₀ as soon as one wave's did not.
    pub charge: ShuffleCharge,
}

/// Runs one shuffled round: the shared round driver over a session whose
/// waves travel through the shuffler, then the privacy charge. The ledger
/// (when present) charges each wave's submitters the *amplified* epsilon at
/// the batch size the coordinator actually received for that wave, falling
/// back to the local ε₀ below the bound's validity threshold.
///
/// # Errors
/// [`FedError::InvalidConfig`] when the protocol has no local randomizer;
/// otherwise the usual typed round failures ([`FedError::NoReports`],
/// [`FedError::CohortTooSmall`], [`FedError::Budget`]).
pub(crate) fn run_shuffled_session(
    values: &[f64],
    config: &FederatedMeanConfig,
    shuffle: &ShuffleConfig,
    mut ledger: Option<&mut PrivacyLedger>,
    transport: &mut dyn Transport,
    rng: &mut dyn Rng,
) -> Result<ShuffledOutcome, FedError> {
    let Some(rr) = config.protocol.privacy.as_ref() else {
        return Err(FedError::InvalidConfig(
            "a shuffled round amplifies a local randomizer; set \
             `config.protocol.privacy` (randomized response) first"
                .into(),
        ));
    };
    let amplification = Amplification::try_new(rr.epsilon(), shuffle.delta)?;
    let permutation_seed = shuffle
        .permutation_seed
        .unwrap_or(config.session_seed ^ SHUFFLE_TAG);
    let mut session = Session::open_shuffled(transport, config, permutation_seed);
    // No ledger rides the collect: the rate a submitter pays is unknown
    // until its wave's batch has arrived.
    let round = tally_round(values, config, None, &mut session, rng)?;

    // Billing is bookkeeping the round driver performs for its own cohort
    // (`contacts`), not something the coordinator learns from an
    // anonymized batch. The round's charge is the largest rate billed, so
    // a wave nobody submitted in does not count toward it.
    let mut charge: Option<ShuffleCharge> = None;
    let mut start = 0;
    for &(end, received) in session.shuffled_waves() {
        let wave_charge = amplification.charge(received);
        let submitters = round.collected.contacts[start..end].iter();
        for c in submitters.filter(|c| c.report.is_some()) {
            if let Some(ledger) = ledger.as_deref_mut() {
                let id = c.client as u64;
                ledger.charge_round(id, config.session_seed, 1, wave_charge.epsilon)?;
            }
            if !charge.is_some_and(|worst| worst.epsilon >= wave_charge.epsilon) {
                charge = Some(wave_charge);
            }
        }
        start = end;
    }
    let charge = charge.ok_or(FedError::NoReports)?;

    let (mut outcome, _) = round.publish(config, &mut session, false)?;
    outcome.robustness.traffic = session.close(&mut outcome.robustness.rejections);
    Ok(ShuffledOutcome {
        round: outcome,
        charge,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use crate::net::{InMemoryTransport, Tampered};
    use fednum_core::encoding::FixedPointCodec;
    use fednum_core::privacy::RandomizedResponse;
    use fednum_core::protocol::basic::BasicConfig;
    use fednum_core::sampling::BitSampling;
    use fednum_core::wire::ShuffleMessage;
    use fednum_fedsim::traffic::{Direction, TrafficPhase};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn base_config(bits: u32, epsilon: f64) -> FederatedMeanConfig {
        FederatedMeanConfig::new(
            BasicConfig::new(
                FixedPointCodec::integer(bits),
                BitSampling::geometric(bits, 1.0),
            )
            .with_privacy(RandomizedResponse::from_epsilon(epsilon)),
        )
    }

    fn values(n: usize, hi: u64) -> Vec<f64> {
        (0..n).map(|i| (i as u64 % hi) as f64).collect()
    }

    fn run(
        cfg: &FederatedMeanConfig,
        shuffle: &ShuffleConfig,
        vs: &[f64],
        seed: u64,
        ledger: Option<&mut PrivacyLedger>,
    ) -> ShuffledOutcome {
        let mut t = InMemoryTransport::new(seed);
        run_shuffled_session(
            vs,
            cfg,
            shuffle,
            ledger,
            &mut t,
            &mut StdRng::seed_from_u64(seed),
        )
        .unwrap()
    }

    #[test]
    fn invalid_delta_is_rejected_up_front() {
        for bad in [0.0, 1.0, -0.1, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                ShuffleConfig::try_new(bad),
                Err(FedError::InvalidConfig(_))
            ));
        }
        assert!(ShuffleConfig::try_new(1e-6).is_ok());
    }

    #[test]
    fn missing_local_randomizer_is_rejected() {
        let cfg = FederatedMeanConfig::new(BasicConfig::new(
            FixedPointCodec::integer(6),
            BitSampling::geometric(6, 1.0),
        ));
        let sh = ShuffleConfig::try_new(1e-6).unwrap();
        let mut t = InMemoryTransport::new(1);
        let err = run_shuffled_session(
            &values(100, 10),
            &cfg,
            &sh,
            None,
            &mut t,
            &mut StdRng::seed_from_u64(1),
        )
        .unwrap_err();
        assert!(matches!(err, FedError::InvalidConfig(_)));
    }

    #[test]
    fn shuffled_round_tracks_the_true_mean() {
        let vs = values(60_000, 64);
        let cfg = base_config(6, 1.0);
        let sh = ShuffleConfig::try_new(1e-6).unwrap();
        let out = run(&cfg, &sh, &vs, 7, None);
        let truth = vs.iter().sum::<f64>() / vs.len() as f64;
        assert!(
            (out.round.outcome.estimate - truth).abs() < 1.5,
            "estimate {} vs truth {truth}",
            out.round.outcome.estimate
        );
        assert!(out.charge.amplified, "60k cohort must clear the threshold");
        assert!(out.charge.epsilon < 1.0);
    }

    #[test]
    fn estimate_and_traffic_invariant_under_permutation_seed() {
        let vs = values(5_000, 32);
        let cfg = base_config(5, 1.0);
        let base = ShuffleConfig::try_new(1e-6).unwrap();
        let reference = run(&cfg, &base, &vs, 11, None);
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let out = run(&cfg, &base.with_permutation_seed(seed), &vs, 11, None);
            assert_eq!(
                out.round.outcome.estimate.to_bits(),
                reference.round.outcome.estimate.to_bits(),
                "permutation seed {seed} changed the estimate"
            );
            assert_eq!(
                out.round.robustness.traffic, reference.round.robustness.traffic,
                "permutation seed {seed} changed the traffic ledger"
            );
            assert_eq!(
                out.charge.epsilon.to_bits(),
                reference.charge.epsilon.to_bits()
            );
        }
    }

    #[test]
    fn shuffle_phase_books_submissions_and_one_batch() {
        let vs = values(2_000, 16);
        let cfg = base_config(4, 1.0);
        let sh = ShuffleConfig::try_new(1e-6).unwrap();
        let out = run(&cfg, &sh, &vs, 3, None);
        let tr = &out.round.robustness.traffic;
        let up = tr.get(TrafficPhase::Shuffle, Direction::Uplink);
        // Every submission plus exactly one anonymized batch frame.
        assert_eq!(up.messages, out.round.reports + 1);
        assert_eq!(
            tr.get(TrafficPhase::Shuffle, Direction::Downlink).messages,
            0
        );
        assert_eq!(tr.get(TrafficPhase::Collect, Direction::Uplink).messages, 0);
    }

    #[test]
    fn ledger_charges_amplified_epsilon_below_local() {
        let vs = values(50_000, 32);
        let cfg = base_config(5, 1.0);
        let sh = ShuffleConfig::try_new(1e-6).unwrap();
        let mut ledger = PrivacyLedger::new();
        let out = run(&cfg, &sh, &vs, 5, Some(&mut ledger));
        assert!(out.charge.amplified);
        assert!(out.charge.epsilon < 1.0);
        assert_eq!(out.charge.delta, 1e-6);
        assert!(ledger.clients() > 0);
        // Every billed account carries the amplified rate, not the local one.
        let acct = ledger.account(vs.len() as u64 / 2);
        assert_eq!(acct.epsilon, out.charge.epsilon);
        assert_eq!(acct.bits, 1);
    }

    #[test]
    fn small_cohort_falls_back_to_local_epsilon() {
        let vs = values(200, 16);
        let cfg = base_config(4, 1.0);
        let sh = ShuffleConfig::try_new(1e-6).unwrap();
        let mut ledger = PrivacyLedger::new();
        let out = run(&cfg, &sh, &vs, 9, Some(&mut ledger));
        assert!(!out.charge.amplified, "200 clients sit below the threshold");
        assert_eq!(out.charge.epsilon, 1.0);
        assert_eq!(out.charge.delta, 0.0);
        assert_eq!(ledger.account(0).epsilon, 1.0);
    }

    #[test]
    fn out_of_range_batch_entry_is_dropped_never_indexed() {
        let vs = values(2_000, 32);
        let cfg = base_config(6, 1.0);
        let sh = ShuffleConfig::try_new(1e-6).unwrap();
        let honest = run(&cfg, &sh, &vs, 13, None);
        // The first entry of the shuffler's batch comes back naming a bit
        // no codec here has.
        let mut hostile = Tampered {
            inner: InMemoryTransport::new(13),
            rewrite: |mut env: crate::net::Envelope| {
                if let Ok(Message::Shuffle(ShuffleMessage::Batch {
                    round_id,
                    mut entries,
                })) = Message::decode(&env.payload)
                {
                    entries[0].0 = 200;
                    env.payload =
                        Message::Shuffle(ShuffleMessage::Batch { round_id, entries }).encode();
                }
                Some(env)
            },
        };
        let out = run_shuffled_session(
            &vs,
            &cfg,
            &sh,
            None,
            &mut hostile,
            &mut StdRng::seed_from_u64(13),
        )
        .unwrap();
        // The round completes; the rewritten entry counts toward neither
        // the tally nor the amplification `n`.
        assert_eq!(out.round.reports, honest.round.reports - 1);
        assert_eq!(
            out.round.outcome.accumulator.total_reports(),
            out.round.reports
        );
        let n = honest.round.reports;
        let expected = Amplification::try_new(1.0, 1e-6).unwrap().charge(n - 1);
        assert_eq!(out.charge, expected);
        assert_ne!(out.charge.epsilon, honest.charge.epsilon);
    }

    #[test]
    fn transports_agree_bit_for_bit() {
        let vs = values(3_000, 32);
        let cfg = base_config(5, 1.0);
        let sh = ShuffleConfig::try_new(1e-6).unwrap();
        let mem = run(&cfg, &sh, &vs, 21, None);
        let mut sim = crate::net::SimNetTransport::new(21);
        let over_sim = run_shuffled_session(
            &vs,
            &cfg,
            &sh,
            None,
            &mut sim,
            &mut StdRng::seed_from_u64(21),
        )
        .unwrap();
        assert_eq!(
            mem.round.outcome.estimate.to_bits(),
            over_sim.round.outcome.estimate.to_bits()
        );
        assert_eq!(
            mem.round.robustness.traffic,
            over_sim.round.robustness.traffic
        );
        assert_eq!(
            mem.charge.epsilon.to_bits(),
            over_sim.charge.epsilon.to_bits()
        );
    }
}
