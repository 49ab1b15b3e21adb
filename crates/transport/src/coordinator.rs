//! The coordinator session state machine.
//!
//! Replaces the synchronous wave loop of `fednum_fedsim::round` with
//! message passing: a session advances rendezvous → configure → collect
//! (per wave) → unmask → publish, every step carried as framed
//! [`Message`]s over a [`Transport`] and ordered by the discrete-event
//! scheduler inside it.
//!
//! ```text
//!  client                      coordinator
//!    │ ── Hello ──────────────────▶ │   rendezvous
//!    │ ◀────────────── RoundConfig ─│   configure
//!    │ ── Report ─────────────────▶ │   collect (validated, per wave)
//!    │ ── KeyAdvertise/KeyShares ──▶ │   key exchange   ┐
//!    │ ── MaskedInput ────────────▶ │   masking        │ secagg only
//!    │ ── UnmaskShares ───────────▶ │   unmask         ┘
//!    │ ◀─────────────────── Publish │   publish
//! ```
//!
//! **Parity contract.** Estimates are bit-identical to the synchronous
//! engine (`fednum_fedsim::round::run_round_impl`) under
//! the same seed: the session consumes the shared RNG in exactly the legacy
//! draw order (pool shuffle, per-wave assignment, latency, then per client
//! dropout and randomized response), while everything transport-level —
//! event tie-breaks, key material, arrival jitter — is hash-derived and
//! never touches that stream. The tests pin this contract.
//!
//! On top of the legacy semantics, the session meters traffic: every frame
//! is tallied per phase and direction at delivery into
//! [`TrafficStats`], surfaced on `RobustnessReport::traffic`. Frames a fault
//! destroys before delivery (a replay with nothing to replay) are never
//! counted — the server cannot bill what never arrived.

use fednum_core::accumulator::BitAccumulator;
use fednum_core::bits::{bit, BitPlanes};
use fednum_core::privacy::{PrivacyLedger, RandomizedResponse};
use fednum_core::protocol::basic::BasicBitPushing;
use fednum_core::sampling::BitSampling;
use fednum_core::wire::{BatchReportMessage, ReportMessage};
use fednum_secagg::protocol::{
    run_secure_aggregation, run_secure_aggregation_planes, DropoutPlan, SecAggConfig, SecAggError,
};
use rand::seq::SliceRandom;
use rand::Rng;

use fednum_fedsim::dropout::Fate;
use fednum_fedsim::error::FedError;
use fednum_fedsim::faults::FaultKind;
use fednum_fedsim::retry::SalvagePolicy;
use fednum_fedsim::round::{
    DegradedMode, FederatedMeanConfig, FederatedOutcome, RobustnessReport, SalvageOutcome,
    SecAggSettings, SecAggSummary,
};
use fednum_fedsim::traffic::{Direction, TrafficPhase, TrafficStats};
use fednum_fedsim::validation::{RejectionCounts, ReportValidator};

use crate::message::{
    BatchReport, ConfigHeader, EncryptedShare, KeyAdvertise, KeyShares, MaskedInput, Message,
    Publish, Report, RoundConfig, UnmaskShares, ENCRYPTED_SHARE_LEN, PUBLIC_KEY_LEN,
};
use crate::net::{Envelope, Transport, BROADCAST, COORDINATOR};
use crate::scheduler::mix;
use crate::session::MultiSessionEngine;

/// Virtual-time spacing between consecutive clients' message chains.
const STEP: f64 = 3e-9;
/// Virtual-time cost of one message hop within a chain.
const HOP: f64 = 1e-9;
/// 61-bit field mask for hash-derived stand-in payload elements.
const MASK61: u64 = (1 << 61) - 1;
/// Session-seed tag for the flat coordinator's salvage instance: the
/// follow-up secure aggregation must derive a key graph independent of
/// every base-round attempt so re-admitted clients get fresh masks.
const SALVAGE_TAG: u64 = 0x5A1C_6E55_0C3B_92D1;

/// One contacted client's record, as the server saw it after validation.
/// Mirrors the legacy orchestrator's internal record field for field.
pub(crate) struct Contact {
    pub(crate) client: usize,
    pub(crate) bit: u32,
    pub(crate) report: Option<bool>,
    pub(crate) fate: Fate,
    pub(crate) copies: u64,
}

/// A post-deadline report frame held for a possible salvage session.
pub(crate) struct ParkedReport {
    /// Global client id (`Envelope::from`).
    pub(crate) client: u64,
    /// The wave's bit assignment for that client, for re-validation under a
    /// fresh [`ReportValidator`].
    pub(crate) assigned_bit: u32,
    /// The frame exactly as it arrived — already metered, never re-billed.
    pub(crate) payload: Vec<u8>,
}

/// Everything the collect phase produced, ready for the tally stage.
pub(crate) struct CollectState {
    pub(crate) contacts: Vec<Contact>,
    pub(crate) counts: Vec<u64>,
    pub(crate) completion_time: f64,
    pub(crate) backoff_time: f64,
    pub(crate) waves_used: u32,
    pub(crate) rejections: RejectionCounts,
    pub(crate) faults_injected: u64,
    pub(crate) traffic: TrafficStats,
    /// Virtual clock after the last collection window.
    pub(crate) clock: f64,
    /// Report frames that arrived after their wave deadline, counted in
    /// both validation modes (the validated server also rejects them).
    pub(crate) late_frames: u64,
    /// Late frames parked for salvage (validated mode with a salvage
    /// policy only), bounded by the policy's buffer cap.
    pub(crate) parked: Vec<ParkedReport>,
}

/// What the secure-aggregation tally stage produced.
pub(crate) struct TallyOutput {
    pub(crate) ones: Vec<u64>,
    pub(crate) eff_counts: Vec<u64>,
    pub(crate) summary: SecAggSummary,
    pub(crate) retries: u32,
}

/// The secure-aggregation tally stage over an already-collected cohort:
/// builds the one-hot `[ones | counts]` vectors, frames the four protocol
/// message rounds through the transport, runs the aggregation, and retries
/// with an exponentially backed-off, shrunken cohort on
/// `TooFewSurvivors` — exactly the flat session's loop, parameterized on
/// `session_base` so each instance of a hierarchy derives its own retry
/// session sequence.
///
/// # Errors
/// See [`FedError`]; `TooFewSurvivors` after the last permitted retry
/// surfaces as [`FedError::SecAgg`].
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
pub(crate) fn secagg_tally(
    st: &mut CollectState,
    config: &FederatedMeanConfig,
    settings: &SecAggSettings,
    session_base: u64,
    round_id: u64,
    mut ledger: Option<&mut PrivacyLedger>,
    transport: &mut dyn Transport,
    rng: &mut dyn Rng,
) -> Result<TallyOutput, FedError> {
    let bits = config.protocol.codec.bits();
    let epsilon = config
        .protocol
        .privacy
        .as_ref()
        .map_or(0.0, RandomizedResponse::epsilon);
    let vector_len = 2 * bits as usize;
    let mut secagg_retries = 0u32;
    let mut cohort: Vec<usize> = (0..st.contacts.len()).collect();
    loop {
        let n = cohort.len();
        let threshold = ((settings.threshold_fraction * n as f64).ceil() as usize).clamp(1, n);
        let mut inputs = Vec::with_capacity(n);
        let mut plan = DropoutPlan::none();
        let mut eff = vec![0u64; bits as usize];
        for (i, &ci) in cohort.iter().enumerate() {
            let c = &st.contacts[ci];
            let mut v = vec![0u64; vector_len];
            match c.report {
                Some(sent) => {
                    v[c.bit as usize] = u64::from(sent);
                    v[bits as usize + c.bit as usize] = 1;
                    eff[c.bit as usize] += 1;
                    if c.fate == Fate::DropsAfterReport {
                        plan.after_masking.insert(i);
                    }
                }
                None => {
                    plan.before_masking.insert(i);
                }
            }
            inputs.push(v);
        }
        let session = session_base ^ u64::from(secagg_retries).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // The key-exchange / masking / unmask message rounds for
        // this attempt, sized like the real protocol.
        let members: Vec<u64> = cohort
            .iter()
            .map(|&ci| st.contacts[ci].client as u64)
            .collect();
        let degree = settings
            .neighbors
            .unwrap_or(n.saturating_sub(1))
            .clamp(1, n.max(2) - 1);
        secagg_attempt_messages(
            transport,
            &mut st.traffic,
            &members,
            &plan,
            vector_len,
            degree,
            session,
            round_id,
            st.clock,
        );
        st.clock += 1.0;
        let mut sa_config = SecAggConfig::new(n, threshold, vector_len, session);
        if let Some(k) = settings.neighbors {
            sa_config = sa_config.with_neighbors(k);
        }
        match run_secure_aggregation(&sa_config, &inputs, &plan, rng) {
            Ok(out) => {
                debug_assert_eq!(&out.sum[bits as usize..], eff.as_slice());
                let ones: Vec<u64> = out.sum[..bits as usize].to_vec();
                return Ok(TallyOutput {
                    ones,
                    eff_counts: eff,
                    summary: SecAggSummary {
                        contributors: out.contributors.len(),
                        recovered_pairwise: out.pairwise_masks_reconstructed,
                    },
                    retries: secagg_retries,
                });
            }
            Err(e @ SecAggError::TooFewSurvivors { .. }) => {
                if secagg_retries >= config.retry.max_secagg_retries {
                    return Err(e.into());
                }
                let pause = config.retry.backoff(secagg_retries);
                secagg_retries += 1;
                st.backoff_time += pause;
                st.completion_time += pause;
                cohort.retain(|&ci| {
                    st.contacts[ci].fate == Fate::Responds && st.contacts[ci].report.is_some()
                });
                if cohort.len() < config.retry.min_cohort {
                    return Err(FedError::CohortTooSmall {
                        survivors: cohort.len(),
                        minimum: config.retry.min_cohort,
                    });
                }
                if cohort.is_empty() {
                    return Err(FedError::NoReports);
                }
                if let Some(ledger) = ledger.as_deref_mut() {
                    for &ci in &cohort {
                        ledger.charge_round(st.contacts[ci].client as u64, round_id, 1, epsilon)?;
                    }
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Rebuilds the bit planes for a (possibly shrunken) cohort from its
/// contact records, preserving cohort order so [`DropoutPlan`] indices and
/// plane slots agree.
fn planes_for_cohort(contacts: &[Contact], cohort: &[usize], bits: u32) -> BitPlanes {
    let mut planes = BitPlanes::new(bits, cohort.len());
    for (i, &ci) in cohort.iter().enumerate() {
        let c = &contacts[ci];
        if let Some(sent) = c.report {
            planes.record(i, c.bit, sent);
        }
    }
    planes
}

/// The secure-aggregation tally stage over bit planes: same retry loop,
/// session derivation, backoff, cohort shrinking, and attempt traffic as
/// [`secagg_tally`], but the per-attempt aggregate is computed by
/// [`run_secure_aggregation_planes`] — masked `count_ones` over the packed
/// planes instead of field arithmetic over per-client one-hot vectors.
///
/// Takes no RNG: the plane aggregator derives nothing random, and in every
/// shape the batched path supports, no later stage reads the session RNG,
/// so estimates stay bit-identical to the share-based path per seed.
///
/// # Errors
/// See [`FedError`]; `TooFewSurvivors` after the last permitted retry
/// surfaces as [`FedError::SecAgg`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn secagg_tally_planes(
    st: &mut CollectState,
    planes: &BitPlanes,
    config: &FederatedMeanConfig,
    settings: &SecAggSettings,
    session_base: u64,
    round_id: u64,
    mut ledger: Option<&mut PrivacyLedger>,
    transport: &mut dyn Transport,
) -> Result<TallyOutput, FedError> {
    let bits = config.protocol.codec.bits();
    let epsilon = config
        .protocol
        .privacy
        .as_ref()
        .map_or(0.0, RandomizedResponse::epsilon);
    let vector_len = 2 * bits as usize;
    let mut secagg_retries = 0u32;
    let mut cohort: Vec<usize> = (0..st.contacts.len()).collect();
    loop {
        let n = cohort.len();
        let threshold = ((settings.threshold_fraction * n as f64).ceil() as usize).clamp(1, n);
        let mut plan = DropoutPlan::none();
        let mut eff = vec![0u64; bits as usize];
        for (i, &ci) in cohort.iter().enumerate() {
            let c = &st.contacts[ci];
            match c.report {
                Some(_) => {
                    eff[c.bit as usize] += 1;
                    if c.fate == Fate::DropsAfterReport {
                        plan.after_masking.insert(i);
                    }
                }
                None => {
                    plan.before_masking.insert(i);
                }
            }
        }
        // The cohort only ever shrinks from the full contact list, so a
        // length match means identity: the round planes serve as-is.
        let rebuilt;
        let attempt_planes = if cohort.len() == planes.slots() {
            planes
        } else {
            rebuilt = planes_for_cohort(&st.contacts, &cohort, bits);
            &rebuilt
        };
        let session = session_base ^ u64::from(secagg_retries).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let members: Vec<u64> = cohort
            .iter()
            .map(|&ci| st.contacts[ci].client as u64)
            .collect();
        let degree = settings
            .neighbors
            .unwrap_or(n.saturating_sub(1))
            .clamp(1, n.max(2) - 1);
        secagg_attempt_messages(
            transport,
            &mut st.traffic,
            &members,
            &plan,
            vector_len,
            degree,
            session,
            round_id,
            st.clock,
        );
        st.clock += 1.0;
        let mut sa_config = SecAggConfig::new(n, threshold, vector_len, session);
        if let Some(k) = settings.neighbors {
            sa_config = sa_config.with_neighbors(k);
        }
        match run_secure_aggregation_planes(&sa_config, attempt_planes, &plan) {
            Ok(out) => {
                debug_assert_eq!(&out.sum[bits as usize..], eff.as_slice());
                let ones: Vec<u64> = out.sum[..bits as usize].to_vec();
                let eff_counts: Vec<u64> = out.sum[bits as usize..].to_vec();
                return Ok(TallyOutput {
                    ones,
                    eff_counts,
                    summary: SecAggSummary {
                        contributors: out.contributors.len(),
                        recovered_pairwise: out.pairwise_masks_reconstructed,
                    },
                    retries: secagg_retries,
                });
            }
            Err(e @ SecAggError::TooFewSurvivors { .. }) => {
                if secagg_retries >= config.retry.max_secagg_retries {
                    return Err(e.into());
                }
                let pause = config.retry.backoff(secagg_retries);
                secagg_retries += 1;
                st.backoff_time += pause;
                st.completion_time += pause;
                cohort.retain(|&ci| {
                    st.contacts[ci].fate == Fate::Responds && st.contacts[ci].report.is_some()
                });
                if cohort.len() < config.retry.min_cohort {
                    return Err(FedError::CohortTooSmall {
                        survivors: cohort.len(),
                        minimum: config.retry.min_cohort,
                    });
                }
                if cohort.is_empty() {
                    return Err(FedError::NoReports);
                }
                if let Some(ledger) = ledger.as_deref_mut() {
                    for &ci in &cohort {
                        ledger.charge_round(st.contacts[ci].client as u64, round_id, 1, epsilon)?;
                    }
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// What a salvage session contributed to the round's tallies. On every
/// non-`Salvaged` outcome the vectors are all-zero, so merging the result
/// is unconditional-safe: worst case equals today's discard behaviour.
pub(crate) struct SalvageResult {
    pub(crate) outcome: SalvageOutcome,
    pub(crate) ones: Vec<u64>,
    pub(crate) counts: Vec<u64>,
    pub(crate) reports: u64,
}

impl SalvageResult {
    fn empty(outcome: SalvageOutcome, bits: u32) -> Self {
        Self {
            outcome,
            ones: vec![0; bits as usize],
            counts: vec![0; bits as usize],
            reports: 0,
        }
    }
}

/// The straggler-salvage session: re-opens a bounded collection window as a
/// follow-up session on the same transport timeline, re-validates the
/// parked report frames under a fresh [`ReportValidator`], and tallies the
/// re-admitted cohort — directly, or through a *fresh* secure-aggregation
/// instance (`session_base` must be independent of every base-round
/// attempt so salvaged clients get fresh masks; shares from an aborted
/// base instance are never reused).
///
/// Strictly additive: every failure path returns zero tallies and typed
/// telemetry, leaving the published estimate exactly what discard would
/// have published. Parked frames were metered and privacy-charged at
/// original arrival; re-admission re-bills neither (the ledger re-charge
/// below is an idempotent no-op that only guards against external ledger
/// mutation). RNG discipline: every draw here happens strictly after all
/// base-round draws, so salvage-off runs stay bit-identical to
/// single-session rounds.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
pub(crate) fn run_salvage(
    st: &mut CollectState,
    config: &FederatedMeanConfig,
    policy: &SalvagePolicy,
    settings: Option<&SecAggSettings>,
    session_base: u64,
    round_id: u64,
    client_offset: u64,
    mut ledger: Option<&mut PrivacyLedger>,
    transport: &mut dyn Transport,
    rng: &mut dyn Rng,
) -> SalvageResult {
    let bits = config.protocol.codec.bits();
    if st.parked.len() < policy.min_parked {
        return SalvageResult::empty(SalvageOutcome::SalvageSkipped, bits);
    }
    let epsilon = config
        .protocol
        .privacy
        .as_ref()
        .map_or(0.0, RandomizedResponse::epsilon);
    let window = config
        .latency
        .as_ref()
        .map_or(1.0, |l| l.timeout)
        .min(policy.max_extra_time);

    let mut engine = MultiSessionEngine::new(transport, st.clock);
    let mut slot = engine.open_session();
    slot.open_window(0.0, window);
    // Re-admit each parked frame verbatim. `redeliver` bypasses fault
    // dispatch and the replay register — the frame already paid both at
    // original arrival — and nothing here meters it again.
    for (k, p) in st.parked.iter().enumerate() {
        slot.redeliver(Envelope {
            from: p.client,
            to: COORDINATOR,
            sent_at: k as f64 * STEP,
            payload: p.payload.clone(),
        });
    }

    // Fresh validator scoped to exactly the parked cohort and their
    // original bit assignments; its rejections are not absorbed into the
    // round's counts (these frames were already rejected once as
    // stragglers — salvage only decides whether to un-reject them).
    let assigned: Vec<(u64, u32)> = st
        .parked
        .iter()
        .map(|p| (p.client, p.assigned_bit))
        .collect();
    let mut validator = ReportValidator::for_round(bits, &assigned, round_id);
    let mut salvaged: Vec<Contact> = Vec::new();
    let mut counts = vec![0u64; bits as usize];
    while let Some((at, env)) = slot.poll() {
        if at > window {
            // Missed even the salvage window: the final discard.
            continue;
        }
        let Ok(Message::Report(r)) = Message::decode(&env.payload) else {
            continue;
        };
        if r.body.reports.len() != 1 {
            continue;
        }
        let (d_bit8, d_value) = r.body.reports[0];
        let d_bit = u32::from(d_bit8);
        if validator
            .submit_tagged(
                env.from,
                d_bit,
                f64::from(u8::from(d_value)),
                r.body.task_id,
                r.nonce,
            )
            .is_err()
        {
            continue;
        }
        salvaged.push(Contact {
            client: (env.from - client_offset) as usize,
            bit: d_bit,
            report: Some(d_value),
            fate: Fate::Responds,
            copies: 1,
        });
        counts[d_bit as usize] += 1;
    }
    st.completion_time += window;

    // Privacy floor: a one-party secure aggregate would reveal that
    // client's report outright, so a masked salvage needs at least two
    // re-admitted members. Direct mode has no such floor — validated
    // direct reports are individually visible by construction.
    let floor = if settings.is_some() { 2 } else { 1 };
    if salvaged.len() < floor {
        st.clock = engine.watermark();
        return SalvageResult::empty(SalvageOutcome::SalvageAborted, bits);
    }
    if let Some(ledger) = ledger.as_deref_mut() {
        for c in &salvaged {
            if ledger
                .charge_round(client_offset + c.client as u64, round_id, 1, epsilon)
                .is_err()
            {
                st.clock = engine.watermark();
                return SalvageResult::empty(SalvageOutcome::SalvageAborted, bits);
            }
        }
    }

    let reports: u64 = counts.iter().sum();
    match settings {
        Some(settings) => {
            // Clamp the mask-graph degree to the (small) salvaged cohort
            // and cap re-mask attempts by the policy, not the base retry
            // budget; min_cohort drops to the privacy floor.
            let mut salvage_settings = *settings;
            if let Some(k) = settings.neighbors {
                salvage_settings.neighbors = Some(k.clamp(1, salvaged.len() - 1));
            }
            let mut salvage_config = config.clone();
            salvage_config.retry.max_secagg_retries = policy.max_attempts;
            salvage_config.retry.min_cohort = floor;
            let mut st2 = CollectState {
                contacts: salvaged,
                counts: counts.clone(),
                completion_time: 0.0,
                backoff_time: 0.0,
                waves_used: 1,
                rejections: RejectionCounts::default(),
                faults_injected: 0,
                traffic: TrafficStats::new(),
                clock: window,
                late_frames: 0,
                parked: Vec::new(),
            };
            let tally = secagg_tally(
                &mut st2,
                &salvage_config,
                &salvage_settings,
                session_base,
                round_id,
                ledger,
                &mut slot,
                rng,
            );
            st.clock = engine.watermark();
            st.traffic.absorb_as(&st2.traffic, TrafficPhase::Salvage);
            st.completion_time += st2.completion_time;
            st.backoff_time += st2.backoff_time;
            match tally {
                Ok(t) => SalvageResult {
                    outcome: SalvageOutcome::Salvaged { reports },
                    ones: t.ones,
                    counts: t.eff_counts,
                    reports,
                },
                Err(_) => SalvageResult::empty(SalvageOutcome::SalvageAborted, bits),
            }
        }
        None => {
            let ones = direct_tally(&salvaged, bits);
            st.clock = engine.watermark();
            SalvageResult {
                outcome: SalvageOutcome::Salvaged { reports },
                ones,
                counts,
                reports,
            }
        }
    }
}

/// Runs a complete federated mean-estimation session over the given
/// transport. Same semantics (and, seed for seed, the same estimate) as
/// the synchronous engine (`fednum_fedsim::round::run_round_impl`), plus
/// per-phase traffic accounting in the returned
/// `FederatedOutcome::robustness.traffic`.
///
/// Pass [`SimNetTransport::for_config`](crate::net::SimNetTransport) when
/// `config.faults` is set — the wire-level fault kinds (straggle, corrupt,
/// duplicate, replay) are transport behaviour; an
/// [`InMemoryTransport`](crate::net::InMemoryTransport) would not act
/// them out.
///
/// # Errors
/// See [`FedError`].
#[deprecated(
    since = "0.2.0",
    note = "use `fednum::transport::RoundBuilder::new(config).via(transport).run(values)`"
)]
pub fn run_federated_mean_transport(
    values: &[f64],
    config: &FederatedMeanConfig,
    transport: &mut dyn Transport,
    rng: &mut dyn Rng,
) -> Result<FederatedOutcome, FedError> {
    run_session(values, config, None, transport, rng)
}

/// As [`run_federated_mean_transport`], metering each client's disclosure
/// through the ledger exactly as the synchronous engine does with a ledger
/// attached.
///
/// # Errors
/// See [`FedError`].
#[deprecated(
    since = "0.2.0",
    note = "use `fednum::transport::RoundBuilder::new(config).metered(ledger)\
            .via(transport).run(values)`"
)]
pub fn run_federated_mean_transport_metered(
    values: &[f64],
    config: &FederatedMeanConfig,
    ledger: &mut PrivacyLedger,
    transport: &mut dyn Transport,
    rng: &mut dyn Rng,
) -> Result<FederatedOutcome, FedError> {
    run_session(values, config, Some(ledger), transport, rng)
}

pub(crate) fn run_session(
    values: &[f64],
    config: &FederatedMeanConfig,
    ledger: Option<&mut PrivacyLedger>,
    transport: &mut dyn Transport,
    rng: &mut dyn Rng,
) -> Result<FederatedOutcome, FedError> {
    run_session_inner(values, config, ledger, transport, rng, false).map(|(out, _)| out)
}

/// The full session body. `with_feedback` embeds the round's per-bit means
/// in the Publish frame (the adaptive two-round protocol's round-1 → round-2
/// feedback channel); the returned bytes are that frame, so a follow-up
/// session can decode exactly what was broadcast.
#[allow(clippy::too_many_lines)]
pub(crate) fn run_session_inner(
    values: &[f64],
    config: &FederatedMeanConfig,
    mut ledger: Option<&mut PrivacyLedger>,
    transport: &mut dyn Transport,
    rng: &mut dyn Rng,
    with_feedback: bool,
) -> Result<(FederatedOutcome, Vec<u8>), FedError> {
    if values.is_empty() {
        return Err(FedError::PopulationTooSmall { got: 0, need: 1 });
    }
    let codec = config.protocol.codec;
    let bits = codec.bits();
    let (codes, clip_fraction) = codec.encode_all(values);
    let round_id = config.session_seed;

    let mut st = collect_waves(&codes, config, 0, ledger.as_deref_mut(), transport, rng)?;

    let mut total_reports: u64 = st.counts.iter().sum();
    if total_reports == 0 {
        return Err(FedError::NoReports);
    }
    let reporters = st.contacts.iter().filter(|c| c.report.is_some()).count();
    if reporters < config.retry.min_cohort {
        return Err(FedError::CohortTooSmall {
            survivors: reporters,
            minimum: config.retry.min_cohort,
        });
    }

    // Tally stage: aggregate per-bit (ones, counts), directly or through
    // the four secure-aggregation message rounds.
    let mut secagg_retries = 0u32;
    let (mut ones, mut eff_counts, secagg_summary) = match &config.secagg {
        Some(settings) => {
            let tally = secagg_tally(
                &mut st,
                config,
                settings,
                config.session_seed,
                round_id,
                ledger.as_deref_mut(),
                transport,
                rng,
            )?;
            secagg_retries = tally.retries;
            (tally.ones, tally.eff_counts, Some(tally.summary))
        }
        None => (direct_tally(&st.contacts, bits), st.counts.clone(), None),
    };

    // Salvage: a strictly additive follow-up session over the parked
    // stragglers, merged into the published tallies with exact-count
    // weighting. The naive (unvalidated) server parks nothing — it already
    // accepted the stragglers inline — so salvage reports Skipped there.
    let salvage_outcome = match (&config.salvage, config.validate) {
        (Some(policy), true) => {
            let res = run_salvage(
                &mut st,
                config,
                policy,
                config.secagg.as_ref(),
                mix(config.session_seed ^ SALVAGE_TAG),
                round_id,
                0,
                ledger,
                transport,
                rng,
            );
            if matches!(res.outcome, SalvageOutcome::Salvaged { .. }) {
                for j in 0..bits as usize {
                    ones[j] += res.ones[j];
                    eff_counts[j] += res.counts[j];
                }
                total_reports += res.reports;
            }
            Some(res.outcome)
        }
        (Some(_), false) => Some(SalvageOutcome::SalvageSkipped),
        (None, _) => None,
    };

    let acc = BitAccumulator::from_parts(
        debias_sums(&ones, &eff_counts, config.protocol.privacy.as_ref()),
        eff_counts.clone(),
    );
    let outcome = BasicBitPushing::new(config.protocol.clone()).finish(acc, clip_fraction);

    // Publish: the result broadcast, modeled as one closing frame.
    let publish = Message::Publish(Publish {
        round_id,
        estimate: outcome.estimate,
        reports: total_reports,
        feedback: if with_feedback {
            outcome.bit_means.clone()
        } else {
            Vec::new()
        },
    });
    let publish_frame = publish.encode();
    transport.send(Envelope {
        from: COORDINATOR,
        to: 0,
        sent_at: st.clock,
        payload: publish_frame.clone(),
    });
    drain_counting(transport, &mut st.traffic);

    let base_probs = config.protocol.sampling.probs();
    let starved_bits: Vec<u32> = base_probs
        .iter()
        .zip(&eff_counts)
        .enumerate()
        .filter(|(_, (&p, &c))| p > 0.0 && c < config.min_reports_per_bit)
        .map(|(j, _)| j as u32)
        .collect();

    let degraded = if !starved_bits.is_empty() {
        DegradedMode::Partial
    } else if secagg_retries > 0 {
        DegradedMode::Retried
    } else if st.waves_used > 1 {
        DegradedMode::Refilled
    } else {
        DegradedMode::Clean
    };

    Ok((
        FederatedOutcome {
            outcome,
            contacted: st.contacts.len(),
            reports: total_reports,
            waves_used: st.waves_used,
            completion_time: st.completion_time,
            starved_bits,
            secagg: secagg_summary,
            robustness: RobustnessReport {
                degraded,
                rejections: st.rejections,
                late_frames: st.late_frames,
                salvage: salvage_outcome,
                secagg_retries,
                faults_injected: st.faults_injected,
                backoff_time: st.backoff_time,
                traffic: st.traffic,
            },
        },
        publish_frame,
    ))
}

/// The batched session body: collect over the chunked multi-client wire,
/// tally by plane popcounts (masked through secure aggregation when
/// configured), publish. Bit-identical, seed for seed, to [`run_session`]
/// in every shape the batched wire supports — the builder rejects the rest
/// (faults, salvage, shuffling, adaptive) up front.
///
/// # Errors
/// See [`FedError`].
pub(crate) fn run_session_batched(
    values: &[f64],
    config: &FederatedMeanConfig,
    chunk: usize,
    mut ledger: Option<&mut PrivacyLedger>,
    transport: &mut dyn Transport,
    rng: &mut dyn Rng,
) -> Result<FederatedOutcome, FedError> {
    if values.is_empty() {
        return Err(FedError::PopulationTooSmall { got: 0, need: 1 });
    }
    let codec = config.protocol.codec;
    let (codes, clip_fraction) = codec.encode_all(values);
    let round_id = config.session_seed;

    let (mut st, planes) = collect_batched(
        &codes,
        config,
        chunk,
        0,
        ledger.as_deref_mut(),
        transport,
        rng,
    )?;

    let total_reports: u64 = st.counts.iter().sum();
    if total_reports == 0 {
        return Err(FedError::NoReports);
    }
    let reporters = st.contacts.iter().filter(|c| c.report.is_some()).count();
    if reporters < config.retry.min_cohort {
        return Err(FedError::CohortTooSmall {
            survivors: reporters,
            minimum: config.retry.min_cohort,
        });
    }

    // Tally stage: per-bit (ones, counts) straight off the packed planes —
    // one `count_ones` per 64 clients — directly or through the
    // secure-aggregation message rounds.
    let mut secagg_retries = 0u32;
    let (ones, eff_counts, secagg_summary) = match &config.secagg {
        Some(settings) => {
            let tally = secagg_tally_planes(
                &mut st,
                &planes,
                config,
                settings,
                config.session_seed,
                round_id,
                ledger,
                transport,
            )?;
            secagg_retries = tally.retries;
            (tally.ones, tally.eff_counts, Some(tally.summary))
        }
        None => (planes.ones(), planes.counts(), None),
    };

    let acc = BitAccumulator::from_parts(
        debias_sums(&ones, &eff_counts, config.protocol.privacy.as_ref()),
        eff_counts.clone(),
    );
    let outcome = BasicBitPushing::new(config.protocol.clone()).finish(acc, clip_fraction);

    let publish = Message::Publish(Publish {
        round_id,
        estimate: outcome.estimate,
        reports: total_reports,
        feedback: Vec::new(),
    });
    transport.send(Envelope {
        from: COORDINATOR,
        to: 0,
        sent_at: st.clock,
        payload: publish.encode(),
    });
    drain_counting(transport, &mut st.traffic);

    let base_probs = config.protocol.sampling.probs();
    let starved_bits: Vec<u32> = base_probs
        .iter()
        .zip(&eff_counts)
        .enumerate()
        .filter(|(_, (&p, &c))| p > 0.0 && c < config.min_reports_per_bit)
        .map(|(j, _)| j as u32)
        .collect();

    let degraded = if !starved_bits.is_empty() {
        DegradedMode::Partial
    } else if secagg_retries > 0 {
        DegradedMode::Retried
    } else if st.waves_used > 1 {
        DegradedMode::Refilled
    } else {
        DegradedMode::Clean
    };

    Ok(FederatedOutcome {
        outcome,
        contacted: st.contacts.len(),
        reports: total_reports,
        waves_used: st.waves_used,
        completion_time: st.completion_time,
        starved_bits,
        secagg: secagg_summary,
        robustness: RobustnessReport {
            degraded,
            rejections: st.rejections,
            late_frames: st.late_frames,
            salvage: None,
            secagg_retries,
            faults_injected: st.faults_injected,
            backoff_time: st.backoff_time,
            traffic: st.traffic,
        },
    })
}

/// The collect phase: contacts the cohort in waves over the transport —
/// Hello uplink, RoundConfig downlink, Report uplink per client — applying
/// the dropout model, client-phase faults, validation, and deficit-weighted
/// refills exactly as the legacy orchestrator does, in the same RNG draw
/// order.
///
/// `client_offset` shifts local population indices into global client
/// identity space (nonzero under sharding), so fault plans and privacy
/// ledgers see fleet-wide client ids.
#[allow(clippy::too_many_lines)]
pub(crate) fn collect_waves(
    codes: &[u64],
    config: &FederatedMeanConfig,
    client_offset: u64,
    mut ledger: Option<&mut PrivacyLedger>,
    transport: &mut dyn Transport,
    rng: &mut dyn Rng,
) -> Result<CollectState, FedError> {
    let bits = config.protocol.codec.bits();
    let round_id = config.session_seed;
    let epsilon = config
        .protocol
        .privacy
        .as_ref()
        .map_or(0.0, RandomizedResponse::epsilon);
    let secagg_on = config.secagg.is_some();
    let compress = config.compress_config;
    // Net downlink bytes the compressed config codec avoids: banked per
    // delivered AssignBit delta, debited per broadcast header.
    let mut saved: i64 = 0;

    // Uncontacted-client pool, randomly ordered (first legacy RNG draw).
    let mut pool: Vec<usize> = (0..codes.len()).collect();
    pool.shuffle(rng);

    let base_probs = config.protocol.sampling.probs().to_vec();
    let mut counts = vec![0u64; bits as usize];
    let mut contacts: Vec<Contact> = Vec::new();
    let mut completion_time = 0.0;
    let mut backoff_time = 0.0;
    let mut waves_used = 0;
    let mut rejections = RejectionCounts::default();
    let mut faults_injected: u64 = 0;
    let mut traffic = TrafficStats::new();
    let mut late_frames: u64 = 0;
    let mut parked: Vec<ParkedReport> = Vec::new();
    // Late frames are parked only when a salvage policy may re-admit them;
    // without one the buffer stays empty and the path is cost-free.
    let salvage_cap = if config.validate {
        config.salvage.as_ref().map_or(0, |p| p.buffer_cap)
    } else {
        0
    };
    // Collection-window length in virtual time; the deadline stragglers
    // miss. Matches the latency model's timeout when one is configured.
    let window_len = config.latency.as_ref().map_or(1.0, |l| l.timeout);
    // client → (slot in current wave) + 1; 0 = not contacted this wave.
    let mut wave_slot = vec![0u32; codes.len()];

    for wave in 0..config.max_waves {
        if pool.is_empty() {
            break;
        }
        let sampling = if wave == 0 {
            config.protocol.sampling.clone()
        } else {
            let deficits: Vec<f64> = base_probs
                .iter()
                .zip(&counts)
                .map(|(&p, &c)| {
                    if p > 0.0 && c < config.min_reports_per_bit {
                        (config.min_reports_per_bit - c) as f64
                    } else {
                        0.0
                    }
                })
                .collect();
            if deficits.iter().all(|&d| d == 0.0) {
                break;
            }
            BitSampling::custom(deficits)
        };

        let wave_size = if wave == 0 {
            ((config.wave_fraction * pool.len() as f64).ceil() as usize).clamp(1, pool.len())
        } else {
            let deficit_total: u64 = base_probs
                .iter()
                .zip(&counts)
                .filter(|(&p, &c)| p > 0.0 && c < config.min_reports_per_bit)
                .map(|(_, &c)| config.min_reports_per_bit - c)
                .sum();
            let needed =
                (deficit_total as f64 / config.dropout.response_rate().max(0.01)).ceil() as usize;
            needed.clamp(1, pool.len())
        };
        if wave > 0 {
            let pause = config.retry.backoff(wave - 1);
            backoff_time += pause;
            completion_time += pause;
        }
        waves_used = wave + 1;

        let batch: Vec<usize> = pool.drain(..wave_size).collect();
        let assignment = sampling.assign(config.protocol.assignment, batch.len(), rng);
        let mut wave_time = match &config.latency {
            Some(lat) => lat.simulate_round(batch.len(), 0.9, rng).completion_time,
            None => 0.0,
        };
        let mut validator = if config.validate && config.faults.is_some() {
            let assigned: Vec<(u64, u32)> = batch
                .iter()
                .zip(&assignment)
                .map(|(&c, &j)| (client_offset + c as u64, j))
                .collect();
            Some(ReportValidator::for_round(bits, &assigned, round_id))
        } else {
            None
        };

        // The wave's collection window in virtual time.
        let t0 = 2.0 * window_len * f64::from(wave);
        let deadline = t0 + window_len;
        transport.open_window(t0, deadline);
        for (slot, &client) in batch.iter().enumerate() {
            wave_slot[client] = slot as u32 + 1;
        }
        let threshold_hint = config.secagg.map_or(0, |s| {
            ((s.threshold_fraction * batch.len() as f64).ceil() as u64).clamp(1, batch.len() as u64)
        });
        let vector_hint = if secagg_on { 2 * u64::from(bits) } else { 0 };
        if compress {
            // One shared header for the whole wave; Hellos are answered
            // with a 2-byte AssignBit delta instead of a full RoundConfig.
            transport.send(Envelope {
                from: COORDINATOR,
                to: BROADCAST,
                sent_at: t0,
                payload: Message::ConfigHeader(ConfigHeader {
                    round_id,
                    secagg: secagg_on,
                    threshold: threshold_hint,
                    vector_len: vector_hint,
                })
                .encode(),
            });
        }
        // Per-slot client-model fate and staged delivery (bit, value, copies).
        let mut slot_fate = vec![Fate::DropsBeforeReport; batch.len()];
        let mut slot_staged: Vec<(u32, bool, u64)> = vec![(0, false, 0); batch.len()];
        let mut wave_stragglers = 0u64;

        // Rendezvous: every contacted client checks in; the rest of the
        // wave unrolls event by event.
        for (k, &client) in batch.iter().enumerate() {
            transport.send(Envelope {
                from: client_offset + client as u64,
                to: COORDINATOR,
                sent_at: t0 + k as f64 * STEP,
                payload: Message::Hello { round_id }.encode(),
            });
        }

        while let Some((at, env)) = transport.poll() {
            let Ok(msg) = Message::decode(&env.payload) else {
                continue;
            };
            let nbytes = env.payload.len() as u64;
            if env.to == COORDINATOR {
                traffic.record(msg.phase(), Direction::Uplink, nbytes);
                match msg {
                    Message::Hello { .. } => {
                        // Configure: reply with the client's task.
                        let local = (env.from - client_offset) as usize;
                        let Some(slot) = wave_slot[local].checked_sub(1) else {
                            continue;
                        };
                        let rc = if compress {
                            Message::AssignBit {
                                assigned_bit: assignment[slot as usize] as u8,
                            }
                        } else {
                            Message::RoundConfig(RoundConfig {
                                round_id,
                                assigned_bit: assignment[slot as usize] as u8,
                                secagg: secagg_on,
                                threshold: threshold_hint,
                                vector_len: vector_hint,
                            })
                        };
                        transport.send(Envelope {
                            from: COORDINATOR,
                            to: env.from,
                            sent_at: at + HOP,
                            payload: rc.encode(),
                        });
                    }
                    Message::Report(r) => {
                        if at > deadline {
                            // Past the wave deadline.
                            wave_stragglers += 1;
                            if config.validate {
                                rejections.straggler += 1;
                                if parked.len() < salvage_cap {
                                    let local = (env.from - client_offset) as usize;
                                    if let Some(slot) =
                                        wave_slot.get(local).and_then(|s| s.checked_sub(1))
                                    {
                                        parked.push(ParkedReport {
                                            client: env.from,
                                            assigned_bit: assignment[slot as usize],
                                            payload: env.payload.clone(),
                                        });
                                    }
                                }
                                continue;
                            }
                        }
                        // Secure aggregation carries one masked vector per
                        // client: a transport-level re-send collapses.
                        if secagg_on && r.nonce & (1 << 63) != 0 {
                            continue;
                        }
                        if r.body.reports.len() != 1 {
                            continue;
                        }
                        let (d_bit8, d_value) = r.body.reports[0];
                        let d_bit = u32::from(d_bit8);
                        let accepted = match &mut validator {
                            Some(v) => v
                                .submit_tagged(
                                    env.from,
                                    d_bit,
                                    f64::from(u8::from(d_value)),
                                    r.body.task_id,
                                    r.nonce,
                                )
                                .is_ok(),
                            None => true,
                        };
                        if accepted {
                            let local = (env.from - client_offset) as usize;
                            let Some(slot) = wave_slot[local].checked_sub(1) else {
                                continue;
                            };
                            let staged = &mut slot_staged[slot as usize];
                            staged.0 = d_bit;
                            staged.1 = d_value;
                            staged.2 += 1;
                        }
                    }
                    _ => {}
                }
            } else {
                traffic.record(msg.phase(), Direction::Downlink, nbytes);
                if env.to == BROADCAST {
                    // The shared header: metered above, debited against the
                    // per-client delta savings, no client model to run.
                    if matches!(msg, Message::ConfigHeader(_)) {
                        saved -= nbytes as i64;
                    }
                    continue;
                }
                let assigned_bit = match msg {
                    Message::RoundConfig(rc) => rc.assigned_bit,
                    Message::AssignBit { assigned_bit } => {
                        // Bank what the full per-client frame would have
                        // cost on the uncompressed codec.
                        let full = Message::RoundConfig(RoundConfig {
                            round_id,
                            assigned_bit,
                            secagg: secagg_on,
                            threshold: threshold_hint,
                            vector_len: vector_hint,
                        })
                        .encoded_len() as i64;
                        saved += full - nbytes as i64;
                        assigned_bit
                    }
                    _ => continue,
                };
                // The client model: dropout fate, fault, disclosure.
                let local = (env.to - client_offset) as usize;
                let Some(slot) = wave_slot[local].checked_sub(1) else {
                    continue;
                };
                let j = u32::from(assigned_bit);
                let mut fate = config.dropout.sample(rng);
                let fault = config
                    .faults
                    .as_ref()
                    .and_then(|p| p.fault_for(round_id, env.to));
                faults_injected += u64::from(fault.is_some());
                if fault == Some(FaultKind::DropBeforeReport) {
                    fate = Fate::DropsBeforeReport;
                }
                if fate == Fate::DropsBeforeReport {
                    slot_fate[slot as usize] = fate;
                    continue;
                }
                // The privacy disclosure: computed and metered here, once,
                // whatever the transport then does to the frame. A stale
                // fault re-sends an old report, disclosing nothing new.
                let raw = bit(codes[local], j);
                let sent = match &config.protocol.privacy {
                    Some(rr) => rr.flip(raw, rng),
                    None => raw,
                };
                if fault != Some(FaultKind::StaleRound) {
                    if let Some(ledger) = ledger.as_deref_mut() {
                        ledger.charge_round(env.to, round_id, 1, epsilon)?;
                    }
                }
                if fault == Some(FaultKind::DropBeforeUnmask) && fate == Fate::Responds {
                    fate = Fate::DropsAfterReport;
                }
                slot_fate[slot as usize] = fate;
                let body = if fault == Some(FaultKind::StaleRound) {
                    ReportMessage {
                        task_id: round_id.wrapping_sub(1),
                        reports: vec![(
                            assigned_bit,
                            config
                                .faults
                                .as_ref()
                                .expect("fault implies plan")
                                .payload_bit(round_id, env.to),
                        )],
                    }
                } else {
                    ReportMessage {
                        task_id: round_id,
                        reports: vec![(assigned_bit, sent)],
                    }
                };
                transport.send(Envelope {
                    from: env.to,
                    to: COORDINATOR,
                    sent_at: at + HOP,
                    payload: Message::Report(Report {
                        nonce: env.to,
                        body,
                    })
                    .encode(),
                });
            }
        }

        if let Some(v) = validator {
            rejections.absorb(&v.rejection_counts());
        }
        if let Some(lat) = &config.latency {
            if wave_stragglers > 0 {
                wave_time = wave_time.max(lat.timeout);
            }
        }
        late_frames += wave_stragglers;
        completion_time += wave_time;

        // Close the wave in batch (contact) order, as the synchronous
        // orchestrator records it: anything that produced no accepted
        // delivery — vanished client, enforced deadline, rejected-everything
        // transport — is one uniform "nothing arrived" record.
        for (slot, &client) in batch.iter().enumerate() {
            let (d_bit, d_value, copies) = slot_staged[slot];
            if copies > 0 {
                counts[d_bit as usize] += copies;
                contacts.push(Contact {
                    client,
                    bit: d_bit,
                    report: Some(d_value),
                    fate: slot_fate[slot],
                    copies,
                });
            } else {
                contacts.push(Contact {
                    client,
                    bit: assignment[slot],
                    report: None,
                    fate: Fate::DropsBeforeReport,
                    copies: 0,
                });
            }
            wave_slot[client] = 0;
        }
    }

    if saved > 0 {
        traffic.credit_config_savings(saved as u64);
    }

    Ok(CollectState {
        contacts,
        counts,
        completion_time,
        backoff_time,
        waves_used,
        rejections,
        faults_injected,
        traffic,
        clock: 2.0 * window_len * f64::from(waves_used),
        late_frames,
        parked,
    })
}

/// The batched collect phase: the same wave schedule, client model, and
/// RNG draw order as [`collect_waves`] — pool shuffle, per-wave assignment,
/// latency, then per slot dropout and randomized response — but the wire
/// carries one [`BatchReport`] frame per chunk of `chunk` clients instead
/// of a Hello/RoundConfig/Report chain per client. The slot-order client
/// loop is parity-exact because the scalar path's per-client chains are
/// serialized by construction (`HOP` < `STEP`), so its model draws land in
/// slot order too.
///
/// The wire is load-bearing: every chunk frame round-trips through the
/// transport and is decoded back into planes on the server side; a frame
/// the transport fails to deliver turns its whole chunk into "nothing
/// arrived" records. Returns the collect state plus the round's packed
/// planes, one slot per contact in contact order.
///
/// # Errors
/// See [`FedError`].
#[allow(clippy::too_many_lines)]
pub(crate) fn collect_batched(
    codes: &[u64],
    config: &FederatedMeanConfig,
    chunk: usize,
    client_offset: u64,
    mut ledger: Option<&mut PrivacyLedger>,
    transport: &mut dyn Transport,
    rng: &mut dyn Rng,
) -> Result<(CollectState, BitPlanes), FedError> {
    debug_assert!(chunk > 0, "builder rejects a zero chunk");
    debug_assert!(
        config.faults.is_none() && config.salvage.is_none(),
        "builder rejects faults and salvage on the batched wire"
    );
    let bits = config.protocol.codec.bits();
    let round_id = config.session_seed;
    let epsilon = config
        .protocol
        .privacy
        .as_ref()
        .map_or(0.0, RandomizedResponse::epsilon);
    let secagg_on = config.secagg.is_some();

    // Uncontacted-client pool, randomly ordered (first legacy RNG draw).
    let mut pool: Vec<usize> = (0..codes.len()).collect();
    pool.shuffle(rng);

    let base_probs = config.protocol.sampling.probs().to_vec();
    let mut counts = vec![0u64; bits as usize];
    let mut contacts: Vec<Contact> = Vec::new();
    let mut round_planes = BitPlanes::new(bits, 0);
    let mut completion_time = 0.0;
    let mut backoff_time = 0.0;
    let mut waves_used = 0;
    let mut traffic = TrafficStats::new();
    let window_len = config.latency.as_ref().map_or(1.0, |l| l.timeout);

    for wave in 0..config.max_waves {
        if pool.is_empty() {
            break;
        }
        let sampling = if wave == 0 {
            config.protocol.sampling.clone()
        } else {
            let deficits: Vec<f64> = base_probs
                .iter()
                .zip(&counts)
                .map(|(&p, &c)| {
                    if p > 0.0 && c < config.min_reports_per_bit {
                        (config.min_reports_per_bit - c) as f64
                    } else {
                        0.0
                    }
                })
                .collect();
            if deficits.iter().all(|&d| d == 0.0) {
                break;
            }
            BitSampling::custom(deficits)
        };

        let wave_size = if wave == 0 {
            ((config.wave_fraction * pool.len() as f64).ceil() as usize).clamp(1, pool.len())
        } else {
            let deficit_total: u64 = base_probs
                .iter()
                .zip(&counts)
                .filter(|(&p, &c)| p > 0.0 && c < config.min_reports_per_bit)
                .map(|(_, &c)| config.min_reports_per_bit - c)
                .sum();
            let needed =
                (deficit_total as f64 / config.dropout.response_rate().max(0.01)).ceil() as usize;
            needed.clamp(1, pool.len())
        };
        if wave > 0 {
            let pause = config.retry.backoff(wave - 1);
            backoff_time += pause;
            completion_time += pause;
        }
        waves_used = wave + 1;

        let batch: Vec<usize> = pool.drain(..wave_size).collect();
        let assignment = sampling.assign(config.protocol.assignment, batch.len(), rng);
        let wave_time = match &config.latency {
            Some(lat) => lat.simulate_round(batch.len(), 0.9, rng).completion_time,
            None => 0.0,
        };

        let t0 = 2.0 * window_len * f64::from(wave);
        let deadline = t0 + window_len;
        transport.open_window(t0, deadline);
        let threshold_hint = config.secagg.map_or(0, |s| {
            ((s.threshold_fraction * batch.len() as f64).ceil() as u64).clamp(1, batch.len() as u64)
        });
        // One shared config broadcast per wave; assignments travel inside
        // the chunk schedule, not as per-client frames.
        transport.send(Envelope {
            from: COORDINATOR,
            to: BROADCAST,
            sent_at: t0,
            payload: Message::ConfigHeader(ConfigHeader {
                round_id,
                secagg: secagg_on,
                threshold: threshold_hint,
                vector_len: if secagg_on { 2 * u64::from(bits) } else { 0 },
            })
            .encode(),
        });

        // Client model in slot order — the exact draw order the scalar
        // path's serialized delivery chains produce — packed at the edge as
        // it goes: one BatchReport frame per chunk, slots local to the
        // chunk, sent when the chunk's first client would have reported on
        // the scalar wire.
        let mut slot_fate = vec![Fate::DropsBeforeReport; batch.len()];
        let n_chunks = batch.len().div_ceil(chunk);
        for (ci, chunk_clients) in batch.chunks(chunk).enumerate() {
            let start = ci * chunk;
            let mut planes = BitPlanes::new(bits, chunk_clients.len());
            for (s, &client) in chunk_clients.iter().enumerate() {
                let slot = start + s;
                let j = assignment[slot];
                let fate = config.dropout.sample(rng);
                if fate == Fate::DropsBeforeReport {
                    continue;
                }
                let raw = bit(codes[client], j);
                let sent = match &config.protocol.privacy {
                    Some(rr) => rr.flip(raw, rng),
                    None => raw,
                };
                if let Some(ledger) = ledger.as_deref_mut() {
                    ledger.charge_round(client_offset + client as u64, round_id, 1, epsilon)?;
                }
                slot_fate[slot] = fate;
                planes.record(s, j, sent);
            }
            transport.send(Envelope {
                from: client_offset + chunk_clients[0] as u64,
                to: COORDINATOR,
                sent_at: t0 + start as f64 * STEP + 2.0 * HOP,
                payload: Message::BatchReport(BatchReport {
                    nonce: ci as u64,
                    body: BatchReportMessage {
                        task_id: round_id,
                        planes,
                    },
                })
                .encode(),
            });
        }

        // Server side: decode what actually arrived, keyed by chunk nonce
        // so transport reordering cannot scramble slot identity.
        let mut arrived: Vec<Option<BitPlanes>> = (0..n_chunks).map(|_| None).collect();
        while let Some((at, env)) = transport.poll() {
            let Ok(msg) = Message::decode(&env.payload) else {
                continue;
            };
            let nbytes = env.payload.len() as u64;
            if env.to == COORDINATOR {
                traffic.record(msg.phase(), Direction::Uplink, nbytes);
                if let Message::BatchReport(br) = msg {
                    if br.body.task_id != round_id || at > deadline {
                        continue;
                    }
                    if let Some(slot) = arrived.get_mut(br.nonce as usize) {
                        *slot = Some(br.body.planes);
                    }
                }
            } else {
                traffic.record(msg.phase(), Direction::Downlink, nbytes);
            }
        }
        completion_time += wave_time;

        // Close the wave in batch order off the *decoded* planes: every
        // slot starts as a "nothing arrived" record (all a lost or
        // misshapen chunk contributes), then one pass per plane over its
        // set occupancy bits fills in the reports. A decoded slot sits on
        // exactly one plane (`BitPlanes::from_words`), so `counts`,
        // `contacts` and the plane tally agree.
        contacts.reserve(batch.len());
        for (ci, decoded) in arrived.into_iter().enumerate() {
            let start = ci * chunk;
            let len = chunk.min(batch.len() - start);
            let base = contacts.len();
            contacts.extend((start..start + len).map(|slot| Contact {
                client: batch[slot],
                bit: assignment[slot],
                report: None,
                fate: Fate::DropsBeforeReport,
                copies: 0,
            }));
            let decoded = match decoded {
                Some(p) if p.bits() == bits && p.slots() == len => p,
                _ => BitPlanes::new(bits, len),
            };
            for (j, count) in counts.iter_mut().enumerate() {
                let occupancy = decoded.plane_occupancy(j);
                let value = decoded.plane_value(j);
                for (w, (&occ, &val)) in occupancy.iter().zip(value).enumerate() {
                    *count += u64::from(occ.count_ones());
                    let mut rest = occ;
                    while rest != 0 {
                        let b = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        let s = w * 64 + b;
                        let contact = &mut contacts[base + s];
                        contact.bit = j as u32;
                        contact.report = Some((val >> b) & 1 == 1);
                        contact.fate = slot_fate[start + s];
                        contact.copies = 1;
                    }
                }
            }
            round_planes.merge(&decoded);
        }
    }

    let st = CollectState {
        contacts,
        counts,
        completion_time,
        backoff_time,
        waves_used,
        rejections: RejectionCounts::default(),
        faults_injected: 0,
        traffic,
        clock: 2.0 * window_len * f64::from(waves_used),
        late_frames: 0,
        parked: Vec::new(),
    };
    Ok((st, round_planes))
}

/// Per-bit ones tally over direct (non-secagg) contacts.
pub(crate) fn direct_tally(contacts: &[Contact], bits: u32) -> Vec<u64> {
    let mut ones = vec![0u64; bits as usize];
    for c in contacts {
        if let Some(true) = c.report {
            ones[c.bit as usize] += c.copies;
        }
    }
    ones
}

/// Debiases per-bit sums through randomized response (affine, so debiasing
/// the sum equals debiasing every report).
pub(crate) fn debias_sums(
    ones: &[u64],
    eff_counts: &[u64],
    privacy: Option<&RandomizedResponse>,
) -> Vec<f64> {
    ones.iter()
        .zip(eff_counts)
        .map(|(&o, &c)| match (privacy, c) {
            (_, 0) => 0.0,
            (Some(rr), c) => c as f64 * rr.debias_mean(o as f64 / c as f64),
            (None, _) => o as f64,
        })
        .collect()
}

/// Fills `out` with hash-derived bytes from `seed` (key/ciphertext
/// stand-ins: content is irrelevant, size is what's accounted).
pub(crate) fn fill_derived(out: &mut [u8], seed: u64) {
    for (i, chunk) in out.chunks_mut(8).enumerate() {
        let word = mix(seed.wrapping_add(i as u64)).to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
}

/// Frames one secure-aggregation attempt's four message rounds through the
/// transport, sized like the real protocol (Bell et al. ring graph of the
/// given degree), and tallies them at delivery. Payload *content* is
/// hash-derived stand-in material — the aggregation math itself runs in
/// `fednum-secagg` — but every message count and byte matches what the
/// cohort would send.
#[allow(clippy::too_many_arguments)]
fn secagg_attempt_messages(
    transport: &mut dyn Transport,
    traffic: &mut TrafficStats,
    members: &[u64],
    plan: &DropoutPlan,
    vector_len: usize,
    degree: usize,
    session: u64,
    round_id: u64,
    t0: f64,
) {
    let n = members.len();
    let mut seq = 0u64;
    let mut next_at = || {
        seq += 1;
        t0 + seq as f64 * STEP
    };
    // Round 0 — key exchange: every cohort member advertises both keys.
    for (i, &c) in members.iter().enumerate() {
        let seed = mix(session ^ (i as u64).wrapping_mul(0x9E6C_63D0_876A_68DE));
        let mut kem_pk = [0u8; PUBLIC_KEY_LEN];
        let mut mask_pk = [0u8; PUBLIC_KEY_LEN];
        fill_derived(&mut kem_pk, seed);
        fill_derived(&mut mask_pk, mix(seed));
        transport.send(Envelope {
            from: c,
            to: COORDINATOR,
            sent_at: next_at(),
            payload: Message::KeyAdvertise(KeyAdvertise {
                round_id,
                kem_pk,
                mask_pk,
            })
            .encode(),
        });
    }
    // Round 1 — key exchange: encrypted Shamir shares, one per ring
    // neighbor, relayed through the coordinator.
    for (i, &c) in members.iter().enumerate() {
        let shares: Vec<EncryptedShare> = (0..degree)
            .map(|d| {
                let mut ct = [0u8; ENCRYPTED_SHARE_LEN];
                fill_derived(&mut ct, mix(session ^ (i as u64) << 20 ^ d as u64));
                EncryptedShare {
                    recipient: members[(i + d + 1) % n],
                    ct,
                }
            })
            .collect();
        transport.send(Envelope {
            from: c,
            to: COORDINATOR,
            sent_at: next_at(),
            payload: Message::KeyShares(KeyShares { round_id, shares }).encode(),
        });
    }
    // Round 2 — masking: clients still alive upload masked inputs
    // (uniform field elements, ≈ 9 varint bytes each).
    for (i, &c) in members.iter().enumerate() {
        if plan.before_masking.contains(&i) {
            continue;
        }
        let values: Vec<u64> = (0..vector_len)
            .map(|v| mix(session ^ (i as u64) << 24 ^ v as u64) & MASK61)
            .collect();
        transport.send(Envelope {
            from: c,
            to: COORDINATOR,
            sent_at: next_at(),
            payload: Message::MaskedInput(MaskedInput { round_id, values }).encode(),
        });
    }
    // Round 3 — unmask: survivors send shares covering the dropped (their
    // pairwise-mask seeds) capped at their neighborhood size.
    let dropped = plan.before_masking.len() + plan.after_masking.len();
    for (i, &c) in members.iter().enumerate() {
        if plan.before_masking.contains(&i) || plan.after_masking.contains(&i) {
            continue;
        }
        let shares: Vec<(u64, u64)> = (0..dropped.min(degree))
            .map(|d| {
                (
                    d as u64,
                    mix(session ^ (i as u64) << 28 ^ d as u64) & MASK61,
                )
            })
            .collect();
        transport.send(Envelope {
            from: c,
            to: COORDINATOR,
            sent_at: next_at(),
            payload: Message::UnmaskShares(UnmaskShares { round_id, shares }).encode(),
        });
    }
    drain_counting(transport, traffic);
}

/// Drains the transport, tallying every delivered frame.
pub(crate) fn drain_counting(transport: &mut dyn Transport, traffic: &mut TrafficStats) {
    while let Some((_, env)) = transport.poll() {
        if let Ok(msg) = Message::decode(&env.payload) {
            traffic.record(msg.phase(), msg.direction(), env.payload.len() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::InMemoryTransport;
    use fednum_core::encoding::FixedPointCodec;
    use fednum_core::protocol::basic::BasicConfig;
    use fednum_fedsim::dropout::DropoutModel;
    use fednum_fedsim::round::{run_round_impl, SecAggSettings};
    use fednum_fedsim::traffic::TrafficPhase;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // Non-deprecated shims shadowing the glob-imported legacy wrappers, so
    // the parity tests keep their original call shape without tripping
    // `-D deprecated` under clippy.
    fn run_federated_mean(
        values: &[f64],
        config: &FederatedMeanConfig,
        rng: &mut dyn Rng,
    ) -> Result<FederatedOutcome, FedError> {
        run_round_impl(values, config, None, rng)
    }

    fn run_federated_mean_transport(
        values: &[f64],
        config: &FederatedMeanConfig,
        transport: &mut dyn Transport,
        rng: &mut dyn Rng,
    ) -> Result<FederatedOutcome, FedError> {
        run_session(values, config, None, transport, rng)
    }

    fn base_config(bits: u32) -> FederatedMeanConfig {
        FederatedMeanConfig::new(BasicConfig::new(
            FixedPointCodec::integer(bits),
            BitSampling::geometric(bits, 1.0),
        ))
    }

    fn values(n: usize, hi: u64) -> Vec<f64> {
        (0..n).map(|i| (i as u64 % hi) as f64).collect()
    }

    #[test]
    fn plain_round_is_bit_identical_to_legacy() {
        let vs = values(4_000, 100);
        let cfg = base_config(7);
        let legacy = run_federated_mean(&vs, &cfg, &mut StdRng::seed_from_u64(1)).unwrap();
        let mut t = InMemoryTransport::new(0xBEEF);
        let evented =
            run_federated_mean_transport(&vs, &cfg, &mut t, &mut StdRng::seed_from_u64(1)).unwrap();
        assert_eq!(legacy.outcome.estimate, evented.outcome.estimate);
        assert_eq!(legacy.reports, evented.reports);
        assert_eq!(legacy.contacted, evented.contacted);
    }

    #[test]
    fn dropout_and_refill_stay_bit_identical() {
        let vs = values(6_000, 100);
        let cfg = base_config(7)
            .with_dropout(DropoutModel::bernoulli(0.4))
            .with_auto_adjust(3, 20, 0.6);
        for seed in 0..5 {
            let legacy = run_federated_mean(&vs, &cfg, &mut StdRng::seed_from_u64(seed)).unwrap();
            let mut t = InMemoryTransport::new(seed);
            let evented =
                run_federated_mean_transport(&vs, &cfg, &mut t, &mut StdRng::seed_from_u64(seed))
                    .unwrap();
            assert_eq!(legacy.outcome.estimate, evented.outcome.estimate, "s{seed}");
            assert_eq!(legacy.waves_used, evented.waves_used);
            assert_eq!(legacy.robustness.degraded, evented.robustness.degraded);
        }
    }

    #[test]
    fn secagg_session_is_bit_identical_and_meters_all_phases() {
        let vs = values(300, 50);
        let cfg = base_config(6)
            .with_dropout(DropoutModel::phased(0.1, 0.05))
            .with_secagg(SecAggSettings::default());
        let legacy = run_federated_mean(&vs, &cfg, &mut StdRng::seed_from_u64(3)).unwrap();
        let mut t = InMemoryTransport::new(3);
        let evented =
            run_federated_mean_transport(&vs, &cfg, &mut t, &mut StdRng::seed_from_u64(3)).unwrap();
        assert_eq!(legacy.outcome.estimate, evented.outcome.estimate);
        assert_eq!(legacy.secagg, evented.secagg);
        let tr = evented.robustness.traffic;
        for phase in TrafficPhase::ALL {
            if phase == TrafficPhase::Salvage || phase == TrafficPhase::Shuffle {
                // No salvage policy configured and no shuffler in the
                // path: both phases stay silent.
                assert_eq!(tr.get(phase, Direction::Uplink).messages, 0);
                continue;
            }
            assert!(
                tr.get(phase, Direction::Uplink).messages > 0
                    || tr.get(phase, Direction::Downlink).messages > 0,
                "phase {phase:?} saw no traffic"
            );
        }
    }

    #[test]
    fn collect_traffic_matches_frame_sizes_exactly() {
        let vs = values(500, 100);
        let cfg = base_config(8);
        let mut t = InMemoryTransport::new(7);
        let out =
            run_federated_mean_transport(&vs, &cfg, &mut t, &mut StdRng::seed_from_u64(7)).unwrap();
        let tr = out.robustness.traffic;
        // No dropout: every client sends Hello, receives RoundConfig,
        // sends exactly one report frame.
        let hello = tr.get(TrafficPhase::Rendezvous, Direction::Uplink);
        let cfg_dl = tr.get(TrafficPhase::Configure, Direction::Downlink);
        let col = tr.get(TrafficPhase::Collect, Direction::Uplink);
        assert_eq!(hello.messages, 500);
        assert_eq!(cfg_dl.messages, 500);
        assert_eq!(col.messages, 500);
        // Each report frame: tag + nonce varint + ReportMessage body.
        let expected: u64 = (0..500u64)
            .map(|c| {
                Message::Report(Report {
                    nonce: c,
                    body: ReportMessage {
                        task_id: cfg.session_seed,
                        reports: vec![(0, false)],
                    },
                })
                .encoded_len() as u64
            })
            .sum();
        assert_eq!(col.bytes, expected);
        assert_eq!(
            tr.get(TrafficPhase::Publish, Direction::Downlink).messages,
            1
        );
        assert!(
            tr.get(TrafficPhase::KeyExchange, Direction::Uplink)
                .messages
                == 0
        );
    }

    #[test]
    fn batched_plain_round_is_bit_identical_per_seed() {
        let vs = values(4_000, 100);
        let cfg = base_config(7)
            .with_dropout(DropoutModel::bernoulli(0.3))
            .with_auto_adjust(3, 20, 0.6);
        for seed in 0..4 {
            let mut ts = InMemoryTransport::new(seed);
            let scalar =
                run_session(&vs, &cfg, None, &mut ts, &mut StdRng::seed_from_u64(seed)).unwrap();
            for chunk in [1usize, 64, 1_000, 100_000] {
                let mut tb = InMemoryTransport::new(seed);
                let batched = run_session_batched(
                    &vs,
                    &cfg,
                    chunk,
                    None,
                    &mut tb,
                    &mut StdRng::seed_from_u64(seed),
                )
                .unwrap();
                assert_eq!(
                    scalar.outcome.estimate.to_bits(),
                    batched.outcome.estimate.to_bits(),
                    "seed {seed} chunk {chunk}"
                );
                assert_eq!(scalar.outcome.bit_means, batched.outcome.bit_means);
                assert_eq!(scalar.reports, batched.reports);
                assert_eq!(scalar.contacted, batched.contacted);
                assert_eq!(scalar.waves_used, batched.waves_used);
                assert_eq!(scalar.completion_time, batched.completion_time);
                assert_eq!(scalar.starved_bits, batched.starved_bits);
                assert_eq!(scalar.robustness.degraded, batched.robustness.degraded);
            }
        }
    }

    #[test]
    fn batched_secagg_round_is_bit_identical_per_seed() {
        let vs = values(300, 50);
        let cfg = base_config(6)
            .with_dropout(DropoutModel::phased(0.1, 0.05))
            .with_secagg(SecAggSettings::default());
        for seed in 0..4 {
            let mut ts = InMemoryTransport::new(seed);
            let scalar =
                run_session(&vs, &cfg, None, &mut ts, &mut StdRng::seed_from_u64(seed)).unwrap();
            let mut tb = InMemoryTransport::new(seed);
            let batched = run_session_batched(
                &vs,
                &cfg,
                64,
                None,
                &mut tb,
                &mut StdRng::seed_from_u64(seed),
            )
            .unwrap();
            assert_eq!(
                scalar.outcome.estimate.to_bits(),
                batched.outcome.estimate.to_bits(),
                "seed {seed}"
            );
            assert_eq!(scalar.secagg, batched.secagg);
            assert_eq!(
                scalar.robustness.secagg_retries,
                batched.robustness.secagg_retries
            );
            assert_eq!(scalar.reports, batched.reports);
        }
    }

    #[test]
    fn batched_secagg_retry_path_matches_the_scalar_retry_path() {
        // A phased-dropout cohort with a high threshold forces
        // `TooFewSurvivors` on the first attempt, exercising the shrunken
        // rebuilt-planes retry loop against the scalar one.
        let vs = values(200, 50);
        let cfg = base_config(5)
            .with_dropout(DropoutModel::phased(0.2, 0.3))
            .with_secagg(SecAggSettings {
                threshold_fraction: 0.75,
                neighbors: None,
            });
        let mut hit_retry = false;
        for seed in 0..12 {
            let mut ts = InMemoryTransport::new(seed);
            let scalar = run_session(&vs, &cfg, None, &mut ts, &mut StdRng::seed_from_u64(seed));
            let mut tb = InMemoryTransport::new(seed);
            let batched = run_session_batched(
                &vs,
                &cfg,
                32,
                None,
                &mut tb,
                &mut StdRng::seed_from_u64(seed),
            );
            match (scalar, batched) {
                (Ok(s), Ok(b)) => {
                    assert_eq!(s.outcome.estimate.to_bits(), b.outcome.estimate.to_bits());
                    assert_eq!(s.robustness.secagg_retries, b.robustness.secagg_retries);
                    assert_eq!(s.secagg, b.secagg);
                    hit_retry |= s.robustness.secagg_retries > 0;
                }
                (Err(se), Err(be)) => assert_eq!(se.to_string(), be.to_string()),
                (s, b) => panic!("diverged at seed {seed}: scalar {s:?} vs batched {b:?}"),
            }
        }
        assert!(hit_retry, "no seed exercised the retry loop");
    }

    #[test]
    fn batched_metered_round_bills_the_ledger_identically() {
        let vs = values(2_000, 64);
        let cfg = base_config(6).with_dropout(DropoutModel::bernoulli(0.2));
        let mut scalar_ledger = PrivacyLedger::new();
        let mut ts = InMemoryTransport::new(5);
        run_session(
            &vs,
            &cfg,
            Some(&mut scalar_ledger),
            &mut ts,
            &mut StdRng::seed_from_u64(5),
        )
        .unwrap();
        let mut batched_ledger = PrivacyLedger::new();
        let mut tb = InMemoryTransport::new(5);
        run_session_batched(
            &vs,
            &cfg,
            128,
            Some(&mut batched_ledger),
            &mut tb,
            &mut StdRng::seed_from_u64(5),
        )
        .unwrap();
        assert_eq!(
            scalar_ledger.max_bits_per_client(),
            batched_ledger.max_bits_per_client()
        );
    }

    #[test]
    fn batched_wire_amortizes_collect_uplink_frames() {
        let vs = values(5_000, 100);
        let cfg = base_config(8);
        let mut ts = InMemoryTransport::new(2);
        let scalar = run_session(&vs, &cfg, None, &mut ts, &mut StdRng::seed_from_u64(2)).unwrap();
        let mut tb = InMemoryTransport::new(2);
        let batched =
            run_session_batched(&vs, &cfg, 512, None, &mut tb, &mut StdRng::seed_from_u64(2))
                .unwrap();
        let s_up = scalar
            .robustness
            .traffic
            .get(TrafficPhase::Collect, Direction::Uplink);
        let b_up = batched
            .robustness
            .traffic
            .get(TrafficPhase::Collect, Direction::Uplink);
        // 5 000 per-client frames vs ceil(5 000 / 512) chunk frames.
        assert_eq!(s_up.messages, 5_000);
        assert_eq!(b_up.messages, 10);
        assert!(
            b_up.bytes * 2 < s_up.bytes,
            "planes must at least halve collect uplink bytes: {} vs {}",
            b_up.bytes,
            s_up.bytes
        );
        // No per-client Hello/RoundConfig chains on the batched wire.
        assert_eq!(
            batched
                .robustness
                .traffic
                .get(TrafficPhase::Rendezvous, Direction::Uplink)
                .messages,
            0
        );
    }

    /// Forwards to an in-memory wire, but rewrites the chunk frame with
    /// nonce `victim` so every slot is occupied on *every* plane — a
    /// hostile edge trying to have each client tallied `bits` times.
    struct StuffedChunk {
        inner: InMemoryTransport,
        victim: u64,
    }

    impl Transport for StuffedChunk {
        fn send(&mut self, mut env: Envelope) {
            if let Ok(Message::BatchReport(mut br)) = Message::decode(&env.payload) {
                if br.nonce == self.victim {
                    let (bits, slots) = (br.body.planes.bits(), br.body.planes.slots());
                    let mut stuffed = BitPlanes::new(bits, slots);
                    for slot in 0..slots {
                        for plane in 0..bits {
                            stuffed.record(slot, plane, true);
                        }
                    }
                    br.body.planes = stuffed;
                    env.payload = Message::BatchReport(br).encode();
                }
            }
            self.inner.send(env);
        }

        fn poll(&mut self) -> Option<(f64, Envelope)> {
            self.inner.poll()
        }

        fn peek_time(&self) -> Option<f64> {
            self.inner.peek_time()
        }
    }

    #[test]
    fn chunk_occupying_a_slot_on_several_planes_is_dropped_not_double_counted() {
        let vs = values(2_000, 100);
        let cfg = base_config(7);
        let (codes, _) = cfg.protocol.codec.encode_all(&vs);
        let mut hostile = StuffedChunk {
            inner: InMemoryTransport::new(4),
            victim: 1,
        };
        let (st, planes) = collect_batched(
            &codes,
            &cfg,
            128,
            0,
            None,
            &mut hostile,
            &mut StdRng::seed_from_u64(4),
        )
        .unwrap();
        // The stuffed frame fails closed as a whole: its 128 clients read
        // as "nothing arrived", everyone else reports exactly once.
        assert_eq!(st.contacts.len(), 2_000);
        for (i, c) in st.contacts.iter().enumerate() {
            assert_eq!(c.report.is_some(), !(128..256).contains(&i), "contact {i}");
        }
        let reporters = st.contacts.iter().filter(|c| c.report.is_some()).count() as u64;
        assert_eq!(reporters, 2_000 - 128);
        assert_eq!(st.counts.iter().sum::<u64>(), reporters);
        assert_eq!(planes.counts().iter().sum::<u64>(), reporters);
        assert_eq!(planes.counts(), st.counts);
        assert_eq!(planes.ones(), direct_tally(&st.contacts, 7));

        // End to end, the published report count and the tally agree.
        hostile.inner = InMemoryTransport::new(4);
        let out = run_session_batched(
            &vs,
            &cfg,
            128,
            None,
            &mut hostile,
            &mut StdRng::seed_from_u64(4),
        )
        .unwrap();
        assert_eq!(out.reports, reporters);
        assert_eq!(out.outcome.accumulator.total_reports(), reporters);
    }

    #[test]
    fn empty_population_is_a_typed_error() {
        let mut t = InMemoryTransport::new(0);
        assert!(matches!(
            run_federated_mean_transport(
                &[],
                &base_config(4),
                &mut t,
                &mut StdRng::seed_from_u64(0)
            ),
            Err(FedError::PopulationTooSmall { got: 0, need: 1 })
        ));
    }
}
