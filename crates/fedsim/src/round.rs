//! The federated round, written once.
//!
//! Wires the full deployment pipeline together: contact a cohort in one or
//! more waves, apply the dropout model and any injected faults, let each
//! client extract (and randomize) its assigned bit, validate what the
//! transport delivers, tally the reports either directly or through the
//! simulated secure-aggregation protocol — retrying a failed unmask over
//! the survivors — and hand the per-bit histograms to `fednum-core` for
//! estimation.
//!
//! All of that is one driver ([`collect`] → [`check_cohort`] →
//! [`secagg_tally`] → [`finish`], composed by [`run_round`]) generic over a
//! [`Carrier`]: the small part that differs by how messages travel. The
//! synchronous carrier, [`Direct`], lives here; `fednum-transport` supplies
//! the per-client and chunked wires and reuses the same pieces for its
//! sharded, hierarchical and shuffled shapes.
//!
//! Auto-adjustment (Section 4.3: "the bit sampling probabilities were
//! auto-adjusted based on the dropout rate, improving utility"): after the
//! first wave, bits whose report counts fell below the target are re-sampled
//! in follow-up waves over previously uncontacted clients, with weights
//! proportional to their deficit. Between waves the driver backs off on the
//! capped exponential schedule of its [`RetryPolicy`].
//!
//! Everything that can go wrong at runtime — total dropout, a cohort below
//! the privacy minimum, secure aggregation failing past its retry budget —
//! surfaces as a typed [`FedError`]; the round never panics on fleet
//! behaviour.

use fednum_core::accumulator::BitAccumulator;
use fednum_core::bits::{bit, BitPlanes};
use fednum_core::privacy::PrivacyLedger;
use fednum_core::protocol::basic::{BasicBitPushing, BasicConfig, Outcome};
use fednum_core::sampling::BitSampling;
use fednum_secagg::protocol::{
    run_secure_aggregation_planes, DropoutPlan, SecAggConfig, SecAggError,
};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::dropout::{DropoutModel, Fate};
use crate::error::FedError;
use crate::faults::{FaultKind, FaultPlan};
use crate::latency::LatencyModel;
use crate::retry::{RetryPolicy, SalvagePolicy};
use crate::traffic::TrafficStats;
use crate::validation::{RejectionCounts, ReportValidator};

/// Compatibility alias: round orchestration now reports the crate-wide
/// [`FedError`] taxonomy.
pub use crate::error::FedError as RoundError;

/// Secure-aggregation transport settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecAggSettings {
    /// Shamir threshold as a fraction of the contacted cohort.
    pub threshold_fraction: f64,
    /// Pairwise-mask graph degree; `None` = complete graph. Cohorts beyond a
    /// few hundred clients need the sparse graph (`O(n·k)` vs `O(n²)`).
    pub neighbors: Option<usize>,
}

impl Default for SecAggSettings {
    fn default() -> Self {
        Self {
            threshold_fraction: 0.5,
            // Bell-et-al-style logarithmic degree: ample mask connectivity
            // for the cohort sizes simulated here.
            neighbors: Some(64),
        }
    }
}

impl SecAggSettings {
    /// The Shamir threshold for a cohort of `n` clients:
    /// `ceil(threshold_fraction * n)`, clamped into `1..=n`.
    #[must_use]
    pub fn threshold(&self, n: usize) -> usize {
        ((self.threshold_fraction * n as f64).ceil() as usize).clamp(1, n.max(1))
    }
}

/// Configuration of a federated mean-estimation task.
#[derive(Debug, Clone)]
pub struct FederatedMeanConfig {
    /// The bit-pushing round configuration (codec, sampling, privacy,
    /// squashing).
    pub protocol: BasicConfig,
    /// Client dropout behaviour.
    pub dropout: DropoutModel,
    /// Maximum contact waves (1 = no auto-adjustment).
    pub max_waves: u32,
    /// Auto-adjustment target: bits with a positive sampling probability
    /// should end with at least this many reports.
    pub min_reports_per_bit: u64,
    /// Fraction of the cohort contacted in the first wave (the remainder is
    /// the refill reserve).
    pub wave_fraction: f64,
    /// Transport reports through simulated secure aggregation.
    pub secagg: Option<SecAggSettings>,
    /// Wall-clock model (adds per-wave completion times).
    pub latency: Option<LatencyModel>,
    /// Session seed for the secure-aggregation masks; doubles as the round
    /// identifier for fault injection, report validation, and per-round
    /// privacy metering, so successive metered rounds should use distinct
    /// seeds.
    pub session_seed: u64,
    /// Injected transport/client faults, composed on top of `dropout`.
    pub faults: Option<FaultPlan>,
    /// Recovery policy: inter-wave backoff, secure-aggregation retries,
    /// minimum surviving cohort.
    pub retry: RetryPolicy,
    /// Straggler salvage: park post-deadline report frames in a bounded
    /// buffer and, once the base estimate is tallied, run a follow-up
    /// session that re-validates and re-admits them (exact-count merge into
    /// the published estimate). Implemented by the per-client wire carrier;
    /// the synchronous carrier ignores it — it has no wire on which a frame
    /// can be late yet present. Requires
    /// `validate` (the naive server accepts stragglers directly, leaving
    /// nothing to salvage).
    pub salvage: Option<SalvagePolicy>,
    /// Server-side report validation (duplicate/replay/stale/deadline
    /// enforcement). Disabled by the "naive" baseline orchestrator.
    pub validate: bool,
    /// Compress the configure downlink: one broadcast `RoundConfig` header
    /// per wave plus a 1-byte per-client assigned-bit delta, instead of a
    /// full `RoundConfig` frame per client. Purely a wire-path codec choice
    /// — estimates are unaffected; byte savings are credited to
    /// `TrafficStats::config_bytes_saved`. The synchronous carrier ignores
    /// it (nothing crosses a wire there).
    pub compress_config: bool,
}

impl FederatedMeanConfig {
    /// Single-wave defaults: no dropout handling beyond thinning, direct
    /// transport, no latency model, validation and recovery enabled.
    #[must_use]
    pub fn new(protocol: BasicConfig) -> Self {
        Self {
            protocol,
            dropout: DropoutModel::None,
            max_waves: 1,
            min_reports_per_bit: 1,
            wave_fraction: 1.0,
            secagg: None,
            latency: None,
            session_seed: 0xF3D5,
            faults: None,
            retry: RetryPolicy::default(),
            salvage: None,
            validate: true,
            compress_config: false,
        }
    }

    /// Sets the dropout model.
    #[must_use]
    pub fn with_dropout(mut self, dropout: DropoutModel) -> Self {
        self.dropout = dropout;
        self
    }

    /// Enables auto-adjustment: up to `max_waves` waves, refilling bits
    /// below `min_reports_per_bit`, holding back `1 - wave_fraction` of the
    /// cohort as reserve.
    ///
    /// # Errors
    /// [`FedError::InvalidConfig`] unless `max_waves >= 1` and
    /// `0 < wave_fraction <= 1`.
    pub fn try_with_auto_adjust(
        mut self,
        max_waves: u32,
        min_reports_per_bit: u64,
        wave_fraction: f64,
    ) -> Result<Self, FedError> {
        if max_waves < 1 {
            return Err(FedError::InvalidConfig("need at least one wave".into()));
        }
        if !(wave_fraction > 0.0 && wave_fraction <= 1.0) {
            return Err(FedError::InvalidConfig(format!(
                "wave_fraction in (0, 1], got {wave_fraction}"
            )));
        }
        self.max_waves = max_waves;
        self.min_reports_per_bit = min_reports_per_bit;
        self.wave_fraction = wave_fraction;
        Ok(self)
    }

    /// Enables auto-adjustment; see
    /// [`FederatedMeanConfig::try_with_auto_adjust`] for the non-panicking
    /// variant.
    ///
    /// # Panics
    /// Panics unless `max_waves >= 1` and `0 < wave_fraction <= 1`.
    #[must_use]
    pub fn with_auto_adjust(
        self,
        max_waves: u32,
        min_reports_per_bit: u64,
        wave_fraction: f64,
    ) -> Self {
        self.try_with_auto_adjust(max_waves, min_reports_per_bit, wave_fraction)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Enables secure-aggregation transport.
    #[must_use]
    pub fn with_secagg(mut self, settings: SecAggSettings) -> Self {
        self.secagg = Some(settings);
        self
    }

    /// Enables the latency model.
    #[must_use]
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = Some(latency);
        self
    }

    /// Injects the given fault plan on top of the dropout model.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Sets the recovery policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables straggler salvage under the given policy. See
    /// [`FederatedMeanConfig::salvage`].
    #[must_use]
    pub fn with_salvage(mut self, policy: SalvagePolicy) -> Self {
        self.salvage = Some(policy);
        self
    }

    /// Compresses the configure downlink (broadcast header + per-client bit
    /// delta). See [`FederatedMeanConfig::compress_config`].
    #[must_use]
    pub fn with_config_compression(mut self) -> Self {
        self.compress_config = true;
        self
    }

    /// The naive baseline orchestrator: no report validation, no deadline
    /// enforcement, no retries, no backoff. Duplicates are double-counted,
    /// replays and stale reports accepted — the comparison point for the
    /// `deploy-faults` panel.
    #[must_use]
    pub fn naive(mut self) -> Self {
        self.validate = false;
        self.retry = RetryPolicy::none();
        self
    }
}

/// Summary of the secure-aggregation transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecAggSummary {
    /// Clients whose reports entered the sum.
    pub contributors: usize,
    /// Dropped clients whose pairwise masks were reconstructed.
    pub recovered_pairwise: usize,
}

/// How degraded the path to a round's estimate was. Ordered from best to
/// worst; a round reports the worst mode it hit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradedMode {
    /// Single wave, no retries, nothing rejected or starved.
    #[default]
    Clean,
    /// Refill waves re-sampled starved bits.
    Refilled,
    /// Secure aggregation was retried over the surviving cohort.
    Retried,
    /// The estimate stands on incomplete coverage (starved bits remain).
    Partial,
    /// Never produced by a successful round: callers mapping a [`FedError`]
    /// into outcome telemetry use this slot.
    Aborted,
}

/// Outcome of a straggler-salvage session, as typed telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SalvageOutcome {
    /// The follow-up session re-admitted this many parked reports into the
    /// published estimate.
    Salvaged {
        /// Re-admitted report count.
        reports: u64,
    },
    /// The policy never fired: nothing parked, or fewer parked reports than
    /// `min_parked`.
    SalvageSkipped,
    /// The salvage session ran but could not complete (re-validation left a
    /// cohort too small for a private aggregate, or every re-masked attempt
    /// failed); the round published the base estimate — exactly the discard
    /// behaviour.
    SalvageAborted,
}

/// Robustness telemetry for one federated round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RobustnessReport {
    /// The degraded mode that produced the estimate.
    pub degraded: DegradedMode,
    /// Per-class rejected-report tally (validation + deadline enforcement).
    pub rejections: RejectionCounts,
    /// Report frames that arrived after their wave deadline, counted
    /// identically whether or not the server validates. The validated
    /// server also rejects them, so `rejections.straggler == late_frames`
    /// exactly when `validate` is set; the naive server accepts them and
    /// leaves `rejections.straggler` at zero.
    pub late_frames: u64,
    /// Straggler-salvage telemetry; `None` when salvage is not configured
    /// or the carrier (synchronous) has nothing to salvage.
    pub salvage: Option<SalvageOutcome>,
    /// Re-masked secure-aggregation retries performed.
    pub secagg_retries: u32,
    /// Faults the plan injected into contacted clients.
    pub faults_injected: u64,
    /// Wall-clock spent backing off between waves and retries.
    pub backoff_time: f64,
    /// Per-phase, per-direction message traffic. All-zero on the
    /// synchronous carrier (nothing crosses a wire there); filled in by the
    /// `fednum-transport` session.
    pub traffic: TrafficStats,
}

/// Result of a federated mean-estimation task.
#[derive(Debug, Clone)]
pub struct FederatedOutcome {
    /// The protocol outcome (estimate, bit means, predicted error).
    pub outcome: Outcome,
    /// Clients contacted across all waves.
    pub contacted: usize,
    /// Reports actually received.
    pub reports: u64,
    /// Waves used.
    pub waves_used: u32,
    /// Total wall-clock time (0 without a latency model).
    pub completion_time: f64,
    /// Bits with positive sampling probability that still ended below the
    /// report target.
    pub starved_bits: Vec<u32>,
    /// Secure-aggregation diagnostics, when enabled.
    pub secagg: Option<SecAggSummary>,
    /// Robustness telemetry: degraded mode, rejections, retries.
    pub robustness: RobustnessReport,
}

/// One contacted client's record, as the server saw it after validation.
#[doc(hidden)]
#[derive(Clone)]
pub struct Contact {
    /// Population index, local to the coordinator that contacted it.
    pub client: usize,
    pub bit: u32,
    pub report: Option<bool>, // None = nothing (valid) delivered
    pub fate: Fate,
    pub copies: u64, // > 1 only for unvalidated duplicate deliveries
}

/// What carries a round's messages. The round itself — wave schedule,
/// client model, cohort checks, secure-aggregation retry loop and tally,
/// estimator tail — is written once in this module and is generic over a
/// carrier, which answers only three things: play one wave's reports,
/// carry one secure-aggregation attempt's message rounds, publish the
/// result. [`Direct`] carries nothing anywhere (the synchronous front
/// door); the per-client and chunked wires live in `fednum-transport`.
#[doc(hidden)]
pub trait Carrier {
    /// Plays one wave: has every client in `wave.batch` told its assigned
    /// bit, asks the wave how each one [responds](Wave::respond), carries
    /// the responses to the server, and appends one [`Contact`] per batch
    /// slot, in batch order, to the wave's collect state.
    ///
    /// # Errors
    /// A privacy-budget refusal from the client model.
    fn play_wave(&mut self, wave: &mut Wave<'_>) -> Result<(), FedError>;

    /// Carries one secure-aggregation attempt's message rounds among
    /// `attempt.members`. The tally itself is the driver's; a carrier with
    /// no wire has nothing to do.
    fn carry_attempt(&mut self, _attempt: &SecAggAttempt<'_>) {}

    /// Broadcasts the result and returns `feedback` as the next round's
    /// clients read it (the adaptive protocol's round-1 → round-2 channel).
    ///
    /// # Errors
    /// A carrier whose broadcast does not read back.
    fn publish(
        &mut self,
        round_id: u64,
        estimate: f64,
        reports: u64,
        feedback: Vec<f64>,
    ) -> Result<Vec<f64>, FedError>;
}

/// A client that did not vanish before reporting.
#[doc(hidden)]
pub struct Response {
    /// The (randomized) bit the client discloses.
    pub sent: bool,
    pub fate: Fate,
    /// The injected fault, for the carrier to act out on its wire.
    pub fault: Option<FaultKind>,
}

/// The wave a [`Carrier`] is playing: who was contacted and what each was
/// assigned, the client model to ask how each one
/// [responds](Self::respond), and the round's collect state to record what
/// arrived in. By the time `play_wave` returns, `st.contacts` has grown by
/// one record per batch slot in batch order and `st.counts` / `st.ones`
/// tally the accepted copies; [`accept`](Self::accept) and
/// [`nothing`](Self::nothing) do both for a carrier that closes its slots
/// in order.
#[doc(hidden)]
pub struct Wave<'a> {
    pub config: &'a FederatedMeanConfig,
    pub index: u32,
    pub batch: &'a [usize],
    pub assignment: &'a [u32],
    /// Engages only under fault injection: without faults every delivery
    /// is trivially valid and the identical tallies come out unvalidated.
    pub validator: Option<ReportValidator>,
    /// Report frames that arrived after the wave deadline.
    pub stragglers: u64,
    pub st: &'a mut Collected,
    rng: &'a mut dyn Rng,
    codes: &'a [u64],
    /// Shifts local population indices into fleet-wide client identities
    /// (nonzero under sharding), which fault plans and ledgers key on.
    client_offset: u64,
    epsilon: f64,
    ledger: Option<&'a mut PrivacyLedger>,
}

impl Wave<'_> {
    /// Fleet-wide identity of local population index `client`.
    #[must_use]
    pub fn id(&self, client: usize) -> u64 {
        self.client_offset + client as u64
    }

    /// Size of this coordinator's population.
    #[must_use]
    pub fn population(&self) -> usize {
        self.codes.len()
    }

    /// The client model: what `client` does on learning it was assigned
    /// bit `j` — dropout fate, client-phase fault, randomized-response
    /// flip and privacy charge, in that RNG draw order — or `None` when it
    /// vanishes before reporting. Carriers call this at the moment their
    /// wire delivers the client its assignment.
    ///
    /// # Errors
    /// The ledger refusing the charge.
    // `always`: this is the per-client body of every carrier's hot loop, and
    // across the crate boundary a plain hint is not taken (the wire carriers
    // got one out-of-line copy, a call per client).
    #[inline(always)]
    pub fn respond(&mut self, client: usize, j: u32) -> Result<Option<Response>, FedError> {
        let round_id = self.config.session_seed;
        let id = self.id(client);
        let mut fate = self.config.dropout.sample(self.rng);
        let fault = self
            .config
            .faults
            .as_ref()
            .and_then(|p| p.fault_for(round_id, id));
        if fault.is_some() {
            self.st.faults_injected += 1;
        }
        if fault == Some(FaultKind::DropBeforeReport) {
            fate = Fate::DropsBeforeReport;
        }
        if fate == Fate::DropsBeforeReport {
            return Ok(None);
        }
        // The client computes and sends its randomized bit. This is the
        // privacy disclosure: it is metered here, once per round, no
        // matter what the carrier then does to the report. A stale-round
        // fault sends an *old* report instead, so nothing new is disclosed.
        let raw = bit(self.codes[client], j);
        let sent = match &self.config.protocol.privacy {
            Some(rr) => rr.flip(raw, self.rng),
            None => raw,
        };
        if fault != Some(FaultKind::StaleRound) {
            if let Some(ledger) = self.ledger.as_deref_mut() {
                ledger.charge_round(id, round_id, 1, self.epsilon)?;
            }
        }
        if fault == Some(FaultKind::DropBeforeUnmask) && fate == Fate::Responds {
            fate = Fate::DropsAfterReport;
        }
        Ok(Some(Response { sent, fate, fault }))
    }

    /// The payload of the old report a `StaleRound` fault re-sends:
    /// uncorrelated with this round's assignment.
    #[must_use]
    pub fn stale_payload(&self, client: usize) -> bool {
        self.config
            .faults
            .as_ref()
            .expect("fault implies plan")
            .payload_bit(self.config.session_seed, self.id(client))
    }

    /// Records `copies` accepted deliveries of `value` on `bit` from the
    /// next batch slot's `client`.
    #[inline]
    pub fn accept(&mut self, client: usize, bit: u32, value: bool, fate: Fate, copies: u64) {
        self.st.counts[bit as usize] += copies;
        self.st.ones[bit as usize] += u64::from(value) * copies;
        self.st.contacts.push(Contact {
            client,
            bit,
            report: Some(value),
            fate,
            copies,
        });
    }

    /// Records that nothing (valid) arrived from the next batch slot's
    /// `client`, assigned `bit` — vanished client, enforced deadline,
    /// rejected-everything transport alike; for secure aggregation it
    /// contributes no masked input.
    #[inline]
    pub fn nothing(&mut self, client: usize, bit: u32) {
        self.st.contacts.push(Contact {
            client,
            bit,
            report: None,
            fate: Fate::DropsBeforeReport,
            copies: 0,
        });
    }
}

/// Everything the collect phase produced, ready for the tally stage.
#[doc(hidden)]
#[derive(Default)]
pub struct Collected {
    pub contacts: Vec<Contact>,
    /// Accepted report copies per bit.
    pub counts: Vec<u64>,
    /// Accepted one-valued copies per bit: the direct tally.
    pub ones: Vec<u64>,
    pub completion_time: f64,
    pub backoff_time: f64,
    pub waves_used: u32,
    pub rejections: RejectionCounts,
    pub faults_injected: u64,
    pub late_frames: u64,
}

impl Collected {
    /// Accepted report copies.
    #[must_use]
    pub fn reports(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Clients with at least one accepted report.
    #[must_use]
    pub fn reporters(&self) -> usize {
        self.contacts.iter().filter(|c| c.report.is_some()).count()
    }
}

/// The collect phase: contacts the cohort in waves — deficit-weighted
/// refills over previously uncontacted clients, capped exponential backoff
/// between them — and has `carrier` play each wave. The shared RNG is
/// consumed in one fixed order on every carrier: pool shuffle, then per
/// wave assignment and latency, then per client dropout and randomized
/// response.
///
/// # Errors
/// See [`Carrier::play_wave`].
#[doc(hidden)]
pub fn collect<C: Carrier>(
    codes: &[u64],
    config: &FederatedMeanConfig,
    client_offset: u64,
    mut ledger: Option<&mut PrivacyLedger>,
    carrier: &mut C,
    rng: &mut dyn Rng,
) -> Result<Collected, FedError> {
    let bits = config.protocol.codec.bits();
    let base_probs = config.protocol.sampling.probs();

    // Uncontacted-client pool, randomly ordered.
    let mut pool: Vec<usize> = (0..codes.len()).collect();
    pool.shuffle(rng);

    let epsilon = local_epsilon(config);
    let mut st = Collected {
        counts: vec![0; bits as usize],
        ones: vec![0; bits as usize],
        ..Collected::default()
    };

    for index in 0..config.max_waves {
        if pool.is_empty() {
            break;
        }
        // First wave: the configured distribution over the configured
        // fraction of the pool. Refill waves: deficit-weighted over the
        // bits the base distribution cares about, contacting just enough
        // clients to cover the deficit at the expected response rate.
        let (sampling, wave_size) = if index == 0 {
            let size = (config.wave_fraction * pool.len() as f64).ceil() as usize;
            (config.protocol.sampling.clone(), size)
        } else {
            let deficits: Vec<u64> = base_probs
                .iter()
                .zip(&st.counts)
                .map(|(&p, &c)| {
                    if p > 0.0 {
                        config.min_reports_per_bit.saturating_sub(c)
                    } else {
                        0
                    }
                })
                .collect();
            let deficit_total: u64 = deficits.iter().sum();
            if deficit_total == 0 {
                break; // every bit satisfied
            }
            let needed = deficit_total as f64 / config.dropout.response_rate().max(0.01);
            let pause = config.retry.backoff(index - 1);
            st.backoff_time += pause;
            st.completion_time += pause;
            (
                BitSampling::custom(deficits.iter().map(|&d| d as f64).collect()),
                needed.ceil() as usize,
            )
        };
        st.waves_used = index + 1;

        let batch: Vec<usize> = pool.drain(..wave_size.clamp(1, pool.len())).collect();
        let assignment = sampling.assign(config.protocol.assignment, batch.len(), rng);
        let mut wave_time = match &config.latency {
            Some(lat) => lat.simulate_round(batch.len(), 0.9, rng).completion_time,
            None => 0.0,
        };
        let validator = (config.validate && config.faults.is_some()).then(|| {
            let assigned: Vec<(u64, u32)> = batch
                .iter()
                .zip(&assignment)
                .map(|(&c, &j)| (client_offset + c as u64, j))
                .collect();
            ReportValidator::for_round(bits, &assigned, config.session_seed)
        });

        let contacted = st.contacts.len();
        let mut wave = Wave {
            config,
            index,
            batch: &batch,
            assignment: &assignment,
            validator,
            stragglers: 0,
            st: &mut st,
            rng: &mut *rng,
            codes,
            client_offset,
            epsilon,
            ledger: ledger.as_deref_mut(),
        };
        carrier.play_wave(&mut wave)?;
        let (validator, stragglers) = (wave.validator, wave.stragglers);
        debug_assert_eq!(st.contacts.len(), contacted + batch.len());

        if let Some(v) = validator {
            st.rejections.absorb(&v.rejection_counts());
        }
        if stragglers > 0 {
            if config.validate {
                // Past the wave deadline: discarded, and the client misses
                // the masking round. The naive server waits and accepts.
                st.rejections.straggler += stragglers;
            }
            if let Some(lat) = &config.latency {
                // Stragglers hold the wave open to its deadline.
                wave_time = wave_time.max(lat.timeout);
            }
        }
        st.late_frames += stragglers;
        st.completion_time += wave_time;
    }
    Ok(st)
}

/// Fails a round nobody reported to, or whose surviving cohort is below the
/// privacy minimum.
///
/// # Errors
/// [`FedError::NoReports`] / [`FedError::CohortTooSmall`].
#[doc(hidden)]
pub fn check_cohort(
    reports: u64,
    reporters: usize,
    config: &FederatedMeanConfig,
) -> Result<(), FedError> {
    if reports == 0 {
        return Err(FedError::NoReports);
    }
    if reporters < config.retry.min_cohort {
        return Err(FedError::CohortTooSmall {
            survivors: reporters,
            minimum: config.retry.min_cohort,
        });
    }
    Ok(())
}

/// One secure-aggregation attempt, as the driver hands it to a
/// [`Carrier`]: `members[i]` is the client at protocol position `i`, which
/// is what `plan` is keyed on.
#[doc(hidden)]
pub struct SecAggAttempt<'a> {
    pub config: &'a SecAggConfig,
    pub members: &'a [u64],
    pub plan: &'a DropoutPlan,
    pub round_id: u64,
}

/// Per-bit `(ones, counts)` behind the estimate, and how they were reached.
#[doc(hidden)]
pub struct Tally {
    pub ones: Vec<u64>,
    pub eff_counts: Vec<u64>,
    pub summary: Option<SecAggSummary>,
    pub retries: u32,
}

impl Tally {
    /// The tally of reports the server received in the clear.
    #[must_use]
    pub fn direct(st: &Collected) -> Self {
        Self {
            ones: st.ones.clone(),
            eff_counts: st.counts.clone(),
            summary: None,
            retries: 0,
        }
    }
}

/// The secure-aggregation tally over an already-collected cohort. The
/// first attempt runs over every contact (reporting or not); when the
/// unmask fails for `TooFewSurvivors` the late droppers' inputs are
/// unrecoverable, so after an exponential backoff the verified survivors
/// re-send re-masked reports — which discloses nothing new, as the
/// idempotent per-round charge reflects. `settings` and `session_base` are
/// parameters (not read off `config`) so each instance of a hierarchy, and
/// a salvage follow-up, derives its own key graph and retry sessions.
///
/// Each attempt's cohort is packed into [`BitPlanes`] (slot `i` = protocol
/// position `i`) and summed by masked popcount, which `fednum-secagg`
/// proves equal to the share-level protocol and which draws no randomness.
///
/// # Errors
/// `TooFewSurvivors` after the last permitted retry surfaces as
/// [`FedError::SecAgg`]; a cohort shrunk below the privacy minimum as
/// [`FedError::CohortTooSmall`].
#[doc(hidden)]
pub fn secagg_tally<C: Carrier>(
    st: &mut Collected,
    config: &FederatedMeanConfig,
    settings: &SecAggSettings,
    session_base: u64,
    mut ledger: Option<&mut PrivacyLedger>,
    carrier: &mut C,
) -> Result<Tally, FedError> {
    let bits = config.protocol.codec.bits();
    let round_id = config.session_seed;
    let epsilon = local_epsilon(config);
    let vector_len = 2 * bits as usize;
    let mut retries = 0u32;
    let mut cohort: Vec<usize> = (0..st.contacts.len()).collect();
    loop {
        let n = cohort.len();
        let threshold = settings.threshold(n);
        let mut plan = DropoutPlan::none();
        let mut eff = vec![0u64; bits as usize];
        let mut planes = BitPlanes::new(bits, n);
        let mut members = Vec::with_capacity(n);
        for (i, &ci) in cohort.iter().enumerate() {
            let c = &st.contacts[ci];
            members.push(c.client as u64);
            let Some(sent) = c.report else {
                plan.before_masking.insert(i);
                continue;
            };
            eff[c.bit as usize] += 1;
            planes.record(i, c.bit, sent);
            if c.fate == Fate::DropsAfterReport {
                plan.after_masking.insert(i);
            }
        }
        // Fresh masks per attempt, deterministically derived.
        let session = session_base ^ u64::from(retries).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut sa_config = SecAggConfig::new(n, threshold, vector_len, session);
        if let Some(k) = settings.neighbors {
            sa_config = sa_config.with_neighbors(k);
        }
        carrier.carry_attempt(&SecAggAttempt {
            config: &sa_config,
            members: &members,
            plan: &plan,
            round_id,
        });
        match run_secure_aggregation_planes(&sa_config, &planes, &plan) {
            Ok(out) => {
                // Sanity: the securely aggregated counts match the tally
                // over this attempt's cohort.
                debug_assert_eq!(&out.sum[bits as usize..], eff.as_slice());
                return Ok(Tally {
                    ones: out.sum[..bits as usize].to_vec(),
                    eff_counts: eff,
                    summary: Some(SecAggSummary {
                        contributors: out.contributors.len(),
                        recovered_pairwise: out.pairwise_masks_reconstructed,
                    }),
                    retries,
                });
            }
            Err(e @ SecAggError::TooFewSurvivors { .. }) => {
                if retries >= config.retry.max_secagg_retries {
                    return Err(e.into());
                }
                let pause = config.retry.backoff(retries);
                retries += 1;
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
                        let client = st.contacts[ci].client as u64;
                        ledger.charge_round(client, round_id, 1, epsilon)?;
                    }
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// The estimator tail every round shape ends in.
#[doc(hidden)]
pub struct Finished {
    pub outcome: Outcome,
    /// Bits with positive sampling probability that ended below the report
    /// target.
    pub starved_bits: Vec<u32>,
    pub degraded: DegradedMode,
}

/// Debiases the per-bit sums (randomized response is affine, so debiasing
/// the sum equals debiasing every report), finishes through the core
/// protocol — squashing, reconstruction, decoding, predicted error — and
/// grades how degraded the path to the estimate was.
#[doc(hidden)]
#[must_use]
pub fn finish(
    config: &FederatedMeanConfig,
    ones: &[u64],
    eff_counts: Vec<u64>,
    clip_fraction: f64,
    secagg_retries: u32,
    waves_used: u32,
) -> Finished {
    let sums: Vec<f64> = ones
        .iter()
        .zip(&eff_counts)
        .map(|(&o, &c)| match (&config.protocol.privacy, c) {
            (_, 0) => 0.0,
            (Some(rr), c) => c as f64 * rr.debias_mean(o as f64 / c as f64),
            (None, _) => o as f64,
        })
        .collect();
    let starved_bits: Vec<u32> = config
        .protocol
        .sampling
        .probs()
        .iter()
        .zip(&eff_counts)
        .enumerate()
        .filter(|(_, (&p, &c))| p > 0.0 && c < config.min_reports_per_bit)
        .map(|(j, _)| j as u32)
        .collect();
    let acc = BitAccumulator::from_parts(sums, eff_counts);
    let outcome = BasicBitPushing::new(config.protocol.clone()).finish(acc, clip_fraction);
    let degraded = if !starved_bits.is_empty() {
        DegradedMode::Partial
    } else if secagg_retries > 0 {
        DegradedMode::Retried
    } else if waves_used > 1 {
        DegradedMode::Refilled
    } else {
        DegradedMode::Clean
    };
    Finished {
        outcome,
        starved_bits,
        degraded,
    }
}

/// A flat round between its tally and its publication — where a carrier
/// with a wire may still merge a salvage session's late reports.
#[doc(hidden)]
pub struct Tallied {
    pub collected: Collected,
    pub tally: Tally,
    /// Reports behind the estimate.
    pub reports: u64,
    clip_fraction: f64,
}

/// Collects and tallies one flat round over `carrier`: encode, contact the
/// cohort in waves, check the surviving cohort, aggregate directly or
/// through secure aggregation.
///
/// # Errors
/// See [`FedError`].
#[doc(hidden)]
pub fn tally_round<C: Carrier>(
    values: &[f64],
    config: &FederatedMeanConfig,
    mut ledger: Option<&mut PrivacyLedger>,
    carrier: &mut C,
    rng: &mut dyn Rng,
) -> Result<Tallied, FedError> {
    if values.is_empty() {
        return Err(FedError::PopulationTooSmall { got: 0, need: 1 });
    }
    let (codes, clip_fraction) = config.protocol.codec.encode_all(values);
    let mut collected = collect(&codes, config, 0, ledger.as_deref_mut(), carrier, rng)?;
    let reports = collected.reports();
    check_cohort(reports, collected.reporters(), config)?;
    let tally = match &config.secagg {
        Some(settings) => secagg_tally(
            &mut collected,
            config,
            settings,
            config.session_seed,
            ledger,
            carrier,
        )?,
        None => Tally::direct(&collected),
    };
    Ok(Tallied {
        collected,
        tally,
        reports,
        clip_fraction,
    })
}

impl Tallied {
    /// Finishes the estimate and publishes it over `carrier`, embedding
    /// the per-bit means as feedback when a follow-up round wants them.
    /// Returns the outcome (traffic and salvage telemetry left for a wire
    /// carrier to fill in) and the feedback as published.
    ///
    /// # Errors
    /// See [`Carrier::publish`].
    pub fn publish<C: Carrier>(
        self,
        config: &FederatedMeanConfig,
        carrier: &mut C,
        with_feedback: bool,
    ) -> Result<(FederatedOutcome, Vec<f64>), FedError> {
        let st = self.collected;
        let fin = finish(
            config,
            &self.tally.ones,
            self.tally.eff_counts,
            self.clip_fraction,
            self.tally.retries,
            st.waves_used,
        );
        let feedback = if with_feedback {
            fin.outcome.bit_means.clone()
        } else {
            Vec::new()
        };
        let feedback = carrier.publish(
            config.session_seed,
            fin.outcome.estimate,
            self.reports,
            feedback,
        )?;
        let outcome = FederatedOutcome {
            outcome: fin.outcome,
            contacted: st.contacts.len(),
            reports: self.reports,
            waves_used: st.waves_used,
            completion_time: st.completion_time,
            starved_bits: fin.starved_bits,
            secagg: self.tally.summary,
            robustness: RobustnessReport {
                degraded: fin.degraded,
                rejections: st.rejections,
                late_frames: st.late_frames,
                salvage: None,
                secagg_retries: self.tally.retries,
                faults_injected: st.faults_injected,
                backoff_time: st.backoff_time,
                traffic: TrafficStats::default(),
            },
        };
        Ok((outcome, feedback))
    }
}

/// The per-report ε a client's randomizer spends (0 without one).
#[doc(hidden)]
#[must_use]
pub fn local_epsilon(config: &FederatedMeanConfig) -> f64 {
    config
        .protocol
        .privacy
        .as_ref()
        .map_or(0.0, fednum_core::privacy::RandomizedResponse::epsilon)
}

/// The synchronous carrier: nothing crosses a wire. Reports reach the
/// server inline, so this is also where the wire-level fault kinds
/// (straggle, corrupt, duplicate, replay, stale) are acted out as a
/// delivery matrix instead of by a transport.
#[doc(hidden)]
pub struct Direct;

impl Carrier for Direct {
    fn play_wave(&mut self, wave: &mut Wave<'_>) -> Result<(), FedError> {
        let config = wave.config;
        let round_id = config.session_seed;
        // The most recent delivery, for replay faults: (bit, value, nonce).
        let mut last_delivered: Option<(u32, bool, u64)> = None;

        for (&client, &j) in wave.batch.iter().zip(wave.assignment) {
            let Some(Response { sent, fate, fault }) = wave.respond(client, j)? else {
                wave.nothing(client, j);
                continue;
            };

            // What arrives at the server: (bit, value, round tag, nonce,
            // delivered copies).
            let id = wave.id(client);
            let delivery = match fault {
                Some(FaultKind::Straggle) => {
                    wave.stragglers += 1;
                    if config.validate {
                        wave.nothing(client, j);
                        continue;
                    }
                    (j, sent, round_id, id, 1)
                }
                Some(FaultKind::CorruptBit) => (j, !sent, round_id, id, 1),
                Some(FaultKind::DuplicateReport) => (j, sent, round_id, id, 2),
                Some(FaultKind::ReplayReport) => match last_delivered {
                    // The fresh report is replaced by a verbatim copy of an
                    // earlier one — same nonce, so validation catches it.
                    Some((pb, pv, pn)) => (pb, pv, round_id, pn, 1),
                    // Nothing to replay yet: the report is simply lost.
                    None => {
                        wave.nothing(client, j);
                        continue;
                    }
                },
                // A report from a previous collection: wrong round tag.
                Some(FaultKind::StaleRound) => (
                    j,
                    wave.stale_payload(client),
                    round_id.wrapping_sub(1),
                    id,
                    1,
                ),
                _ => (j, sent, round_id, id, 1),
            };
            let (d_bit, d_value, d_round, d_nonce, d_copies) = delivery;
            // Secure aggregation carries one masked vector per client, so
            // duplicate deliveries collapse by construction.
            let d_copies = if config.secagg.is_some() {
                d_copies.min(1)
            } else {
                d_copies
            };

            let accepted = match &mut wave.validator {
                Some(v) => {
                    let mut ok = 0u64;
                    for copy in 0..d_copies {
                        // A transport-level re-send gets a fresh envelope
                        // nonce; the payload is what repeats.
                        let copy_nonce = if copy == 0 {
                            d_nonce
                        } else {
                            d_nonce | (1 << 63)
                        };
                        let value = f64::from(u8::from(d_value));
                        if v.submit_tagged(id, d_bit, value, d_round, copy_nonce)
                            .is_ok()
                        {
                            ok += 1;
                        }
                    }
                    ok
                }
                None => d_copies,
            };
            if accepted == 0 {
                wave.nothing(client, j);
                continue;
            }
            last_delivered = Some((d_bit, d_value, d_nonce));
            wave.accept(client, d_bit, d_value, fate, accepted);
        }
        Ok(())
    }

    fn publish(
        &mut self,
        _round_id: u64,
        _estimate: f64,
        _reports: u64,
        feedback: Vec<f64>,
    ) -> Result<Vec<f64>, FedError> {
        Ok(feedback)
    }
}

/// One flat round over `carrier`, start to published estimate; the second
/// value is the published feedback (see [`Tallied::publish`]).
///
/// # Errors
/// See [`FedError`].
#[doc(hidden)]
pub fn run_round<C: Carrier>(
    values: &[f64],
    config: &FederatedMeanConfig,
    ledger: Option<&mut PrivacyLedger>,
    carrier: &mut C,
    rng: &mut dyn Rng,
    with_feedback: bool,
) -> Result<(FederatedOutcome, Vec<f64>), FedError> {
    tally_round(values, config, ledger, carrier, rng)?.publish(config, carrier, with_feedback)
}

/// The synchronous round behind the `RoundBuilder` facade: a complete
/// federated mean-estimation task over one private value per client,
/// optionally metering every client's disclosure through a
/// [`PrivacyLedger`] (one bit, and the randomized-response ε if configured,
/// per client per round, idempotently across secure-aggregation retry
/// waves; the round identifier is `config.session_seed`). Not part of the
/// public API surface — call it through
/// `fednum::transport::RoundBuilder::new(config)` (plus `.metered(ledger)`
/// for the billed flavor).
///
/// # Errors
/// See [`FedError`].
#[doc(hidden)]
pub fn run_round_impl(
    values: &[f64],
    config: &FederatedMeanConfig,
    ledger: Option<&mut PrivacyLedger>,
    rng: &mut dyn Rng,
) -> Result<FederatedOutcome, FedError> {
    run_round(values, config, ledger, &mut Direct, rng, false).map(|(out, _)| out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultRates;
    use fednum_core::encoding::FixedPointCodec;
    use fednum_core::privacy::{PrivacyBudget, PrivacyLedger};
    use fednum_core::sampling::BitSampling;
    use rand::rngs::StdRng;

    use rand::SeedableRng;

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
    fn plain_round_estimates_mean() {
        let vs = values(20_000, 200);
        let truth = vs.iter().sum::<f64>() / vs.len() as f64;
        let mut rng = StdRng::seed_from_u64(1);
        let out = run_round_impl(&vs, &base_config(8), None, &mut rng).unwrap();
        assert!((out.outcome.estimate - truth).abs() / truth < 0.05);
        assert_eq!(out.contacted, 20_000);
        assert_eq!(out.reports, 20_000);
        assert_eq!(out.waves_used, 1);
        assert!(out.secagg.is_none());
        assert_eq!(out.robustness.degraded, DegradedMode::Clean);
        assert_eq!(out.robustness.rejections.total(), 0);
        assert_eq!(out.robustness.faults_injected, 0);
    }

    #[test]
    fn dropout_thins_reports_but_keeps_estimate_unbiased() {
        let vs = values(30_000, 200);
        let truth = vs.iter().sum::<f64>() / vs.len() as f64;
        let cfg = base_config(8).with_dropout(DropoutModel::bernoulli(0.4));
        let mut rng = StdRng::seed_from_u64(2);
        let out = run_round_impl(&vs, &cfg, None, &mut rng).unwrap();
        let rate = out.reports as f64 / out.contacted as f64;
        assert!((rate - 0.6).abs() < 0.02, "response rate {rate}");
        assert!((out.outcome.estimate - truth).abs() / truth < 0.06);
    }

    #[test]
    fn auto_adjust_refills_starved_bits() {
        // Heavy dropout plus a small first wave: without refills, low-order
        // bits (tiny p_j) are starved.
        let vs = values(20_000, 200);
        let single = base_config(8)
            .with_dropout(DropoutModel::bernoulli(0.5))
            .with_auto_adjust(1, 30, 0.6);
        let multi = base_config(8)
            .with_dropout(DropoutModel::bernoulli(0.5))
            .with_auto_adjust(4, 30, 0.6);
        let mut starved_single = 0;
        let mut starved_multi = 0;
        for s in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(s);
            starved_single += run_round_impl(&vs, &single, None, &mut rng)
                .unwrap()
                .starved_bits
                .len();
            let mut rng = StdRng::seed_from_u64(s);
            let out = run_round_impl(&vs, &multi, None, &mut rng).unwrap();
            starved_multi += out.starved_bits.len();
            assert!(out.waves_used >= 1);
        }
        assert!(
            starved_multi < starved_single,
            "refill waves should reduce starvation: {starved_multi} vs {starved_single}"
        );
    }

    #[test]
    fn secagg_transport_matches_direct() {
        let vs = values(500, 100);
        let mut cfg_direct = base_config(7);
        cfg_direct.session_seed = 42;
        let cfg_secagg = {
            let mut c = base_config(7).with_secagg(SecAggSettings::default());
            c.session_seed = 42;
            c
        };
        // Same seed → same assignment and reports → identical estimates.
        let direct = run_round_impl(&vs, &cfg_direct, None, &mut StdRng::seed_from_u64(3)).unwrap();
        let secure = run_round_impl(&vs, &cfg_secagg, None, &mut StdRng::seed_from_u64(3)).unwrap();
        assert!((direct.outcome.estimate - secure.outcome.estimate).abs() < 1e-9);
        let summary = secure.secagg.unwrap();
        assert_eq!(summary.contributors, 500);
    }

    #[test]
    fn secagg_with_dropouts_recovers_masks() {
        let vs = values(400, 100);
        let cfg = base_config(7)
            .with_dropout(DropoutModel::phased(0.1, 0.05))
            .with_secagg(SecAggSettings {
                threshold_fraction: 0.5,
                ..SecAggSettings::default()
            });
        let mut rng = StdRng::seed_from_u64(4);
        let out = run_round_impl(&vs, &cfg, None, &mut rng).unwrap();
        let summary = out.secagg.unwrap();
        assert!(summary.recovered_pairwise > 10, "expected dropout recovery");
        let truth = vs.iter().sum::<f64>() / vs.len() as f64;
        assert!((out.outcome.estimate - truth).abs() / truth < 0.4);
    }

    #[test]
    fn privacy_composes_with_transport() {
        let vs = values(60_000, 200);
        let truth = vs.iter().sum::<f64>() / vs.len() as f64;
        let mut cfg = base_config(8);
        cfg.protocol = cfg
            .protocol
            .with_privacy(fednum_core::privacy::RandomizedResponse::from_epsilon(2.0));
        let mut rng = StdRng::seed_from_u64(5);
        let out = run_round_impl(&vs, &cfg, None, &mut rng).unwrap();
        assert!(
            (out.outcome.estimate - truth).abs() / truth < 0.25,
            "est {} truth {truth}",
            out.outcome.estimate
        );
    }

    #[test]
    fn latency_model_accumulates_time() {
        let vs = values(1000, 100);
        let cfg = base_config(7).with_latency(LatencyModel::typical_fleet());
        let mut rng = StdRng::seed_from_u64(6);
        let out = run_round_impl(&vs, &cfg, None, &mut rng).unwrap();
        assert!(out.completion_time > 0.0);
    }

    #[test]
    fn total_dropout_fails_closed() {
        let vs = values(50, 10);
        let cfg = base_config(4).with_dropout(DropoutModel::bernoulli(0.999));
        // With rate .999 on 50 clients, most seeds yield zero reports.
        let mut failures = 0;
        for s in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(s);
            if matches!(
                run_round_impl(&vs, &cfg, None, &mut rng),
                Err(RoundError::NoReports)
            ) {
                failures += 1;
            }
        }
        assert!(failures > 10, "expected frequent NoReports, got {failures}");
    }

    #[test]
    fn error_display() {
        assert_eq!(
            RoundError::NoReports.to_string(),
            "no reports were received"
        );
    }

    #[test]
    fn empty_population_is_a_typed_error() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            run_round_impl(&[], &base_config(4), None, &mut rng),
            Err(FedError::PopulationTooSmall { got: 0, need: 1 })
        ));
    }

    #[test]
    fn try_with_auto_adjust_rejects_bad_config() {
        assert!(matches!(
            base_config(4).try_with_auto_adjust(0, 1, 1.0),
            Err(FedError::InvalidConfig(_))
        ));
        assert!(matches!(
            base_config(4).try_with_auto_adjust(2, 1, 0.0),
            Err(FedError::InvalidConfig(_))
        ));
        assert!(base_config(4).try_with_auto_adjust(2, 10, 0.5).is_ok());
    }

    #[test]
    fn fault_injection_is_counted_and_survived() {
        let vs = values(5_000, 100);
        let truth = vs.iter().sum::<f64>() / vs.len() as f64;
        let plan = FaultPlan::new(FaultRates::uniform(0.02), 99).unwrap();
        let cfg = base_config(7).with_faults(plan);
        let mut rng = StdRng::seed_from_u64(7);
        let out = run_round_impl(&vs, &cfg, None, &mut rng).unwrap();
        assert!(out.robustness.faults_injected > 300, "~14% of 5000 faulted");
        // Validation rejected the duplicates, replays and stale reports.
        let rej = out.robustness.rejections;
        assert!(rej.duplicate > 0 && rej.replayed > 0 && rej.stale_round > 0);
        assert!(
            (out.outcome.estimate - truth).abs() / truth < 0.1,
            "estimate {} vs {truth} should survive 2% faults per class",
            out.outcome.estimate
        );
    }

    #[test]
    fn naive_orchestrator_double_counts_duplicates() {
        let vs = values(2_000, 100);
        let rates = FaultRates {
            duplicate: 0.3,
            ..FaultRates::none()
        };
        let plan = FaultPlan::new(rates, 5).unwrap();
        let validated = base_config(7).with_faults(plan);
        let naive = base_config(7).with_faults(plan).naive();
        let v_out = run_round_impl(&vs, &validated, None, &mut StdRng::seed_from_u64(8)).unwrap();
        let n_out = run_round_impl(&vs, &naive, None, &mut StdRng::seed_from_u64(8)).unwrap();
        // Validated: one report per client, duplicates rejected and tallied.
        assert_eq!(v_out.reports, 2_000);
        assert!(v_out.robustness.rejections.duplicate > 400);
        // Naive: second deliveries counted again.
        assert_eq!(
            n_out.reports,
            2_000 + n_out.robustness.faults_injected,
            "every duplicate fault adds one extra counted report"
        );
        assert_eq!(n_out.robustness.rejections.total(), 0);
    }

    #[test]
    fn stragglers_are_discarded_at_the_wave_deadline() {
        let vs = values(3_000, 100);
        let rates = FaultRates {
            straggle: 0.1,
            ..FaultRates::none()
        };
        let cfg = base_config(7)
            .with_faults(FaultPlan::new(rates, 11).unwrap())
            .with_latency(LatencyModel::typical_fleet());
        let mut rng = StdRng::seed_from_u64(9);
        let out = run_round_impl(&vs, &cfg, None, &mut rng).unwrap();
        assert!(out.robustness.rejections.straggler > 200);
        assert_eq!(
            u64::from(out.contacted as u32) - out.reports,
            out.robustness.rejections.straggler,
            "every missing report is an enforced deadline"
        );
        // Stragglers hold the wave open to its timeout.
        assert!(out.completion_time >= LatencyModel::typical_fleet().timeout);
    }

    #[test]
    fn secagg_unmask_failure_recovers_by_retry_over_survivors() {
        let vs = values(300, 100);
        let cfg = base_config(7)
            .with_dropout(DropoutModel::phased(0.05, 0.35))
            .with_secagg(SecAggSettings {
                threshold_fraction: 0.75,
                neighbors: None,
            })
            .with_retry(RetryPolicy {
                max_secagg_retries: 2,
                base_backoff: 1.0,
                max_backoff: 8.0,
                min_cohort: 10,
            });
        // ~40% of the cohort is gone by the unmask round, under a 75%
        // threshold: the first attempt fails, the re-masked retry over the
        // survivors succeeds.
        let mut recovered = 0;
        for s in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(s);
            let out = run_round_impl(&vs, &cfg, None, &mut rng).unwrap();
            if out.robustness.secagg_retries > 0 {
                recovered += 1;
                // At least Retried; a retry that also starves a bit reports
                // the more severe Partial.
                assert!(out.robustness.degraded >= DegradedMode::Retried);
                assert!(out.robustness.backoff_time > 0.0);
                let truth = vs.iter().sum::<f64>() / vs.len() as f64;
                assert!(
                    (out.outcome.estimate - truth).abs() / truth < 0.6,
                    "retried estimate {} is usable",
                    out.outcome.estimate
                );
            }
        }
        assert!(recovered >= 8, "retry path should fire, got {recovered}/10");
    }

    #[test]
    fn naive_policy_surfaces_the_unmask_failure() {
        let vs = values(300, 100);
        let cfg = base_config(7)
            .with_dropout(DropoutModel::phased(0.05, 0.35))
            .with_secagg(SecAggSettings {
                threshold_fraction: 0.75,
                neighbors: None,
            })
            .with_retry(RetryPolicy::none());
        let mut failures = 0;
        for s in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(s);
            if matches!(
                run_round_impl(&vs, &cfg, None, &mut rng),
                Err(FedError::SecAgg(SecAggError::TooFewSurvivors { .. }))
            ) {
                failures += 1;
            }
        }
        assert!(failures >= 8, "no-retry policy should fail, got {failures}");
    }

    #[test]
    fn min_cohort_aborts_small_rounds() {
        let vs = values(30, 10);
        let cfg = base_config(4)
            .with_dropout(DropoutModel::bernoulli(0.8))
            .with_retry(RetryPolicy {
                min_cohort: 25,
                ..RetryPolicy::default()
            });
        let mut rng = StdRng::seed_from_u64(10);
        match run_round_impl(&vs, &cfg, None, &mut rng) {
            Err(FedError::CohortTooSmall { survivors, minimum }) => {
                assert_eq!(minimum, 25);
                assert!(survivors < 25);
            }
            other => panic!("expected CohortTooSmall, got {other:?}"),
        }
    }

    #[test]
    fn metered_rounds_never_double_charge_across_retries() {
        let vs = values(300, 100);
        let mut cfg = base_config(7)
            .with_dropout(DropoutModel::phased(0.05, 0.35))
            .with_secagg(SecAggSettings {
                threshold_fraction: 0.75,
                neighbors: None,
            })
            .with_retry(RetryPolicy {
                max_secagg_retries: 2,
                base_backoff: 0.5,
                max_backoff: 4.0,
                min_cohort: 10,
            });
        // The paper's headline budget: one bit per client per task.
        let mut ledger = PrivacyLedger::with_budget(PrivacyBudget::bits(1));
        let mut retried = false;
        for s in 0..10u64 {
            cfg.session_seed = 1000 + s; // fresh round id per attempt set
            let mut ledger = ledger.clone();
            let mut rng = StdRng::seed_from_u64(s);
            let out = run_round_impl(&vs, &cfg, Some(&mut ledger), &mut rng).unwrap();
            retried |= out.robustness.secagg_retries > 0;
            assert!(ledger.max_bits_per_client() <= 1);
        }
        assert!(retried, "the retry path must be exercised");
        // Across two *distinct* rounds the second charge trips the budget.
        cfg.session_seed = 1;
        run_round_impl(&vs, &cfg, Some(&mut ledger), &mut StdRng::seed_from_u64(0)).unwrap();
        cfg.session_seed = 2;
        let second = run_round_impl(&vs, &cfg, Some(&mut ledger), &mut StdRng::seed_from_u64(1));
        assert!(matches!(second, Err(FedError::Budget(_))));
    }

    #[test]
    fn degraded_mode_ordering_reflects_severity() {
        assert!(DegradedMode::Clean < DegradedMode::Refilled);
        assert!(DegradedMode::Refilled < DegradedMode::Retried);
        assert!(DegradedMode::Retried < DegradedMode::Partial);
        assert!(DegradedMode::Partial < DegradedMode::Aborted);
    }
}
