//! Straggler-salvage contracts on the flat (single-coordinator) path.
//!
//! Salvage is *strictly additive*: a follow-up session re-admits parked
//! post-deadline reports, so the worst case equals today's discard
//! behaviour, the best case folds every straggler back into the estimate.
//! These tests pin the three sides of that contract — recovery (salvaged
//! reports appear in the published count, telemetry says how many), RNG
//! neutrality (an armed-but-idle salvage policy changes *nothing*, bit for
//! bit), and privacy (the ledger still bills every client at most once,
//! and a masked salvage cohort below two members aborts instead of
//! revealing a single report).

use fednum_core::encoding::FixedPointCodec;
use fednum_core::privacy::{PrivacyLedger, RandomizedResponse};
use fednum_core::protocol::basic::BasicConfig;
use fednum_core::sampling::BitSampling;
use fednum_fedsim::faults::{FaultPlan, FaultRates};
use fednum_fedsim::round::{FederatedMeanConfig, SalvageOutcome, SecAggSettings};
use fednum_fedsim::{DropoutModel, LatencyModel, RetryPolicy, SalvagePolicy};
use fednum_transport::net::SimNetTransport;
use fednum_transport::{InMemoryTransport, RoundBuilder, Transport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BITS: u32 = 8;

// Builder-backed stand-ins for the removed free functions; the call
// shapes below predate `RoundBuilder` and are kept so the assertions read
// unchanged.
fn run_federated_mean_transport(
    values: &[f64],
    config: &FederatedMeanConfig,
    transport: &mut dyn Transport,
    rng: &mut dyn Rng,
) -> Result<fednum_fedsim::round::FederatedOutcome, fednum_fedsim::FedError> {
    RoundBuilder::new(config.clone())
        .via(transport)
        .rng(rng)
        .run(values)
        .map(|out| out.flat().unwrap().clone())
}

fn run_federated_mean_transport_metered(
    values: &[f64],
    config: &FederatedMeanConfig,
    ledger: &mut PrivacyLedger,
    transport: &mut dyn Transport,
    rng: &mut dyn Rng,
) -> Result<fednum_fedsim::round::FederatedOutcome, fednum_fedsim::FedError> {
    RoundBuilder::new(config.clone())
        .metered(ledger)
        .via(transport)
        .rng(rng)
        .run(values)
        .map(|out| out.flat().unwrap().clone())
}

fn straggler_rates(rate: f64) -> FaultRates {
    FaultRates {
        straggle: rate,
        ..FaultRates::none()
    }
}

fn base_config(session: u64) -> FederatedMeanConfig {
    let mut cfg = FederatedMeanConfig::new(BasicConfig::new(
        FixedPointCodec::integer(BITS),
        BitSampling::geometric(BITS, 1.0),
    ))
    .with_latency(LatencyModel::new(0.5, 0.6, 30.0));
    cfg.session_seed = session;
    cfg
}

fn private_config(session: u64) -> FederatedMeanConfig {
    let mut cfg = FederatedMeanConfig::new(
        BasicConfig::new(
            FixedPointCodec::integer(BITS),
            BitSampling::geometric(BITS, 1.0),
        )
        .with_privacy(RandomizedResponse::from_epsilon(2.5)),
    )
    .with_latency(LatencyModel::new(0.5, 0.6, 30.0));
    cfg.session_seed = session;
    cfg
}

fn values(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 37) % 200) as f64).collect()
}

fn run(
    values: &[f64],
    cfg: &FederatedMeanConfig,
    seed: u64,
) -> fednum_fedsim::round::FederatedOutcome {
    let mut transport: Box<dyn Transport> = if cfg.faults.is_some() {
        Box::new(SimNetTransport::for_config(cfg, seed))
    } else {
        Box::new(InMemoryTransport::new(seed))
    };
    run_federated_mean_transport(
        values,
        cfg,
        transport.as_mut(),
        &mut StdRng::seed_from_u64(seed),
    )
    .unwrap()
}

/// The headline recovery contract: every report the discard path loses to
/// the deadline comes back through the salvage session, and the telemetry
/// accounts for each one — at every straggle rate of the sweep, the
/// population sized so even the lowest rate parks more than 50.
#[test]
fn salvage_recovers_stragglers_the_discard_path_loses() {
    let vs = values(2_000);
    let truth = vs.iter().sum::<f64>() / vs.len() as f64;
    for rate in [0.05, 0.10, 0.20] {
        let discard =
            base_config(0x5A11).with_faults(FaultPlan::new(straggler_rates(rate), 0xFA17).unwrap());
        let salvage = discard.clone().with_salvage(SalvagePolicy::default());

        let off = run(&vs, &discard, 3);
        let on = run(&vs, &salvage, 3);

        assert!(
            off.robustness.late_frames > 50,
            "rate {rate}: scenario produced too few stragglers to be interesting: {}",
            off.robustness.late_frames
        );
        assert_eq!(off.robustness.salvage, None, "no policy, no telemetry");
        let Some(SalvageOutcome::Salvaged { reports }) = on.robustness.salvage else {
            panic!(
                "rate {rate}: salvage never fired: {:?}",
                on.robustness.salvage
            );
        };
        // Base collection is untouched (salvage draws RNG strictly after
        // it), so the two runs park identical frames — and the direct path
        // re-admits every one of them.
        assert_eq!(on.robustness.late_frames, off.robustness.late_frames);
        assert_eq!(
            reports, off.robustness.late_frames,
            "rate {rate}: direct salvage must re-admit every parked straggler"
        );
        assert_eq!(
            on.reports,
            off.reports + reports,
            "rate {rate}: recovered reports missing"
        );
        // More reports, no bias: the salvaged estimate stays inside the
        // same error envelope the discard run satisfies.
        let tolerance = 8.0 * on.outcome.predicted_std.max(1.0);
        assert!(
            (on.outcome.estimate - truth).abs() <= tolerance,
            "rate {rate}: salvaged estimate {} vs truth {truth} outside ±{tolerance:.2}",
            on.outcome.estimate
        );
    }
}

/// Deadline accounting (the `late_frames` ↔ `rejections.straggler`
/// invariant) holds on both server models, with and without salvage.
#[test]
fn straggler_accounting_is_consistent_across_server_models() {
    let vs = values(600);
    for salvage_on in [false, true] {
        let mut cfg =
            base_config(0xACC7).with_faults(FaultPlan::new(straggler_rates(0.15), 0xBEEF).unwrap());
        if salvage_on {
            cfg = cfg.with_salvage(SalvagePolicy::default());
        }
        let validated = run(&vs, &cfg, 11);
        assert!(validated.robustness.late_frames > 20);
        assert_eq!(
            validated.robustness.rejections.straggler, validated.robustness.late_frames,
            "validated server must reject exactly the late frames (salvage={salvage_on})"
        );
        let naive = run(&vs, &cfg.clone().naive(), 11);
        assert_eq!(
            naive.robustness.rejections.straggler, 0,
            "naive server rejects nothing"
        );
        assert_eq!(
            naive.robustness.late_frames, validated.robustness.late_frames,
            "late-frame metering must not depend on the server model"
        );
        if salvage_on {
            // The naive server already accepted the stragglers; salvage has
            // nothing to re-validate and reports itself skipped.
            assert_eq!(
                naive.robustness.salvage,
                Some(SalvageOutcome::SalvageSkipped)
            );
        }
    }
}

/// An armed salvage policy with nothing to salvage is invisible: same RNG
/// stream, same estimate bits, same metadata — the strictly-additive
/// guarantee at its boundary.
#[test]
fn armed_but_idle_salvage_is_bit_identical_to_discard() {
    let vs = values(500);
    let plain = base_config(0x1D1E).with_dropout(DropoutModel::bernoulli(0.2));
    let armed = plain.clone().with_salvage(SalvagePolicy::default());
    let off = run(&vs, &plain, 29);
    let on = run(&vs, &armed, 29);
    assert_eq!(
        off.outcome.estimate.to_bits(),
        on.outcome.estimate.to_bits(),
        "idle salvage perturbed the estimate"
    );
    assert_eq!(off.reports, on.reports);
    assert_eq!(off.completion_time.to_bits(), on.completion_time.to_bits());
    assert_eq!(on.robustness.salvage, Some(SalvageOutcome::SalvageSkipped));
    assert_eq!(off.robustness.salvage, None);
}

/// Salvage under secure aggregation: the re-admitted cohort is aggregated
/// by a fresh masked instance (never the aborted session's shares), the
/// recovered reports land in the published count, and the Salvage traffic
/// phase meters the follow-up session's frames.
#[test]
fn masked_salvage_re_admits_a_private_cohort() {
    use fednum_fedsim::traffic::{Direction, TrafficPhase};
    let vs = values(700);
    let cfg = base_config(0x5EC5)
        .with_secagg(SecAggSettings {
            threshold_fraction: 0.5,
            neighbors: Some(16),
        })
        .with_retry(RetryPolicy {
            max_secagg_retries: 2,
            base_backoff: 0.5,
            max_backoff: 8.0,
            min_cohort: 5,
        })
        .with_faults(FaultPlan::new(straggler_rates(0.25), 0xFEED).unwrap());
    let off = run(&vs, &cfg, 7);
    let on = run(&vs, &cfg.clone().with_salvage(SalvagePolicy::default()), 7);

    let Some(SalvageOutcome::Salvaged { reports }) = on.robustness.salvage else {
        panic!("masked salvage never fired: {:?}", on.robustness.salvage);
    };
    assert!(reports >= 2, "masked salvage floor is two members");
    assert_eq!(on.reports, off.reports + reports);
    let phase = on
        .robustness
        .traffic
        .get(TrafficPhase::Salvage, Direction::Uplink);
    assert!(
        phase.messages > reports,
        "masked salvage must meter key material beyond the {reports} inputs, saw {}",
        phase.messages
    );
    assert_eq!(
        off.robustness
            .traffic
            .get(TrafficPhase::Salvage, Direction::Uplink)
            .messages,
        0,
        "discard run must not meter salvage traffic"
    );
}

/// A masked salvage cohort of one would reveal that client's report on
/// unmasking; the session must abort (= discard) instead.
#[test]
fn masked_salvage_below_privacy_floor_aborts() {
    let vs = values(400);
    // min_parked=1 arms the session even for a lone straggler; a tiny
    // straggle rate makes exactly-one parked frames likely across seeds.
    let policy = SalvagePolicy::new(1, 30.0, 2, 4096).unwrap();
    let mut aborted = 0usize;
    for seed in 0..24u64 {
        // Fault sampling is hash-derived from the *plan* seed, so each
        // iteration needs its own plan to vary who straggles.
        let cfg = base_config(0xF100)
            .with_secagg(SecAggSettings {
                threshold_fraction: 0.5,
                neighbors: Some(16),
            })
            .with_faults(FaultPlan::new(straggler_rates(0.004), 0x0DD ^ seed).unwrap())
            .with_salvage(policy);
        let out = run(&vs, &cfg, seed);
        match out.robustness.salvage {
            Some(SalvageOutcome::SalvageAborted) => {
                aborted += 1;
                assert_eq!(
                    out.robustness.late_frames, 1,
                    "abort must come from a lone frame"
                );
            }
            Some(SalvageOutcome::Salvaged { reports }) => assert!(reports >= 2),
            Some(SalvageOutcome::SalvageSkipped) | None => {}
        }
    }
    assert!(aborted > 0, "no seed produced a lone masked straggler");
}

/// The salvage session's recharges are idempotent: a client billed in the
/// base session is never billed again when its parked report is re-admitted.
#[test]
fn salvage_never_double_bills_the_ledger() {
    let vs = values(600);
    let cfg = private_config(0xB111)
        .with_faults(FaultPlan::new(straggler_rates(0.2), 0x1E46).unwrap())
        .with_salvage(SalvagePolicy::default());
    let mut ledger = PrivacyLedger::new();
    let mut transport = SimNetTransport::for_config(&cfg, 13);
    let out = run_federated_mean_transport_metered(
        &vs,
        &cfg,
        &mut ledger,
        &mut transport,
        &mut StdRng::seed_from_u64(13),
    )
    .unwrap();
    match out.robustness.salvage {
        Some(SalvageOutcome::Salvaged { reports }) => assert!(reports > 0),
        other => panic!("salvage never fired: {other:?}"),
    }
    assert!(
        ledger.max_bits_per_client() <= 1,
        "salvage re-admission double-billed a client: {} bits",
        ledger.max_bits_per_client()
    );
}

/// Same seed, same fault plan ⇒ bit-identical salvage, replay after replay.
#[test]
fn salvage_is_deterministic_per_seed() {
    let vs = values(500);
    for secagg in [false, true] {
        let mut cfg = base_config(0xDE7E)
            .with_faults(FaultPlan::new(straggler_rates(0.18), 0xD00D).unwrap())
            .with_salvage(SalvagePolicy::default());
        if secagg {
            cfg = cfg.with_secagg(SecAggSettings {
                threshold_fraction: 0.5,
                neighbors: Some(16),
            });
        }
        let a = run(&vs, &cfg, 21);
        let b = run(&vs, &cfg, 21);
        assert_eq!(a.outcome.estimate.to_bits(), b.outcome.estimate.to_bits());
        assert_eq!(a.reports, b.reports);
        assert_eq!(a.robustness.salvage, b.robustness.salvage);
        assert_eq!(a.completion_time.to_bits(), b.completion_time.to_bits());
    }
}

/// Pinned regression anchor for the CI gate: one named scenario whose
/// salvage outcome (recovered count and estimate bits) must never drift.
#[test]
fn regression_salvage_seed_0x5a17_recovers_and_stays_pinned() {
    let vs = values(800);
    let cfg = base_config(0x5A17)
        .with_faults(FaultPlan::new(straggler_rates(0.2), 0x5A17).unwrap())
        .with_salvage(SalvagePolicy::default());
    let out = run(&vs, &cfg, 0x5A17);
    let Some(SalvageOutcome::Salvaged { reports }) = out.robustness.salvage else {
        panic!(
            "pinned scenario stopped salvaging: {:?}",
            out.robustness.salvage
        );
    };
    assert!(reports > 50, "pinned scenario salvaged only {reports}");
    let replay = run(&vs, &cfg, 0x5A17);
    assert_eq!(
        out.outcome.estimate.to_bits(),
        replay.outcome.estimate.to_bits(),
        "pinned salvage scenario must replay bit-identically"
    );
    assert_eq!(out.robustness.salvage, replay.robustness.salvage);
}
