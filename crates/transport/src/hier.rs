//! Hierarchical secure aggregation over sharded coordinators.
//!
//! A plain sharded round (`RoundBuilder::sharded`) rejects secagg configs
//! because masked vectors cancel only within one unmask domain.
//! This module is the resolution: every shard runs its *own* independent
//! Bonawitz-style instance over its cohort (own key graph, own Shamir
//! threshold, its four message rounds framed through the shard's
//! transport), and the K per-shard masked sums then combine through a
//! *second* secagg instance whose parties are the K shard aggregators. The
//! top-level coordinator therefore observes only masked per-shard frames
//! and the merged total — never an individual shard's plaintext sum, and
//! never an individual client's report.
//!
//! Failure semantics per tier (see `fednum-hiersec`):
//! * a shard whose instance cannot meet its threshold (after the standard
//!   shrink-and-retry loop) is **degraded** — excluded from the merge as a
//!   `before_masking` dropout, never silently zero-filled;
//! * a merge-tier failure **aborts** the round with a typed
//!   [`FedError`]; callers mapping errors into outcome telemetry use
//!   [`DegradedMode::Aborted`].
//!
//! The K shard sessions execute on `fednum-hiersec`'s deterministic worker
//! pool: every shard derives its RNG, transport scheduler, and secagg
//! session seeds from its own index, and results merge in index order, so
//! any `workers` count produces bit-identical outcomes (pinned by the
//! parity suite).

use fednum_core::protocol::basic::Outcome;
use fednum_hiersec::{merge_salvaged_shard_sums, merge_shard_sums, run_indexed, HierSecConfig};
use fednum_secagg::{add_assign, client_mask_ring, Fe};
use rand::rngs::StdRng;
use rand::SeedableRng;

use fednum_fedsim::error::FedError;
use fednum_fedsim::round::{
    check_cohort, collect, finish, secagg_tally, DegradedMode, FederatedMeanConfig, SalvageOutcome,
};
use fednum_fedsim::traffic::{TrafficPhase, TrafficStats};
use fednum_fedsim::validation::RejectionCounts;

use crate::coordinator::{fill_derived, record_publish, run_salvage, Session};
use crate::message::{
    EncryptedShare, KeyAdvertise, KeyShares, MaskedInput, Message, UnmaskShares,
    ENCRYPTED_SHARE_LEN, PUBLIC_KEY_LEN,
};
use crate::net::{
    Envelope, InMemoryTransport, SimNetTransport, Transport, WireMetrics, COORDINATOR,
};
use crate::scheduler::mix;
use crate::shard::{contacted_reporters, partition};

/// Per-shard transport factory for a hierarchical round: called once per
/// shard with that shard's scheduler seed (`mix(seed ^ s ^ TRANSPORT_TAG)`,
/// the same stream an in-process run would hand its per-shard
/// [`InMemoryTransport`] / [`SimNetTransport`]), from the worker thread
/// that runs the shard session. Lets
/// [`RoundBuilder`](crate::builder::RoundBuilder) route every shard over
/// its own [`TcpTransport`](crate::tcp::TcpTransport) connection while the
/// merge tier stays in-process.
///
/// # Errors
/// A factory failure (e.g. a refused TCP connect) aborts the round with
/// the returned [`FedError`].
pub type ShardTransportFactory<'a> =
    &'a (dyn Fn(u64) -> Result<Box<dyn Transport>, FedError> + Sync);

/// Virtual-time spacing between merge-tier frames.
const STEP: f64 = 3e-9;
/// Scheduler-seed tag for per-shard transports (same as a plain sharded round).
const TRANSPORT_TAG: u64 = 0xA24B_AED4_963E_E407;
/// Scheduler-seed tag for the merge-tier transport and RNG.
const MERGE_TAG: u64 = 0x1F83_D9AB_FB41_BD6B;

/// The merged result of a hierarchically secure sharded round.
#[derive(Debug, Clone)]
pub struct HierShardedOutcome {
    /// The global estimate, finished once over the merged masked tallies.
    pub outcome: Outcome,
    /// Shards the population was partitioned into (= merge-tier parties).
    pub shards: usize,
    /// Clients contacted across all shards.
    pub contacted: usize,
    /// Reports standing behind the estimate (contributors of included
    /// shards, from the merged count half of the secagg vector).
    pub reports: u64,
    /// Largest wave count any shard needed.
    pub waves_used: u32,
    /// Simulated wall-clock: the slowest shard (shards run concurrently)
    /// plus the merge session.
    pub completion_time: f64,
    /// Validator rejections, merged across shards.
    pub rejections: RejectionCounts,
    /// Report frames that arrived after their wave deadline, summed across
    /// shards (`rejections.straggler` equals this iff `config.validate`).
    pub late_frames: u64,
    /// Faults injected, summed across shards.
    pub faults_injected: u64,
    /// Secagg retries summed across shard instances.
    pub secagg_retries: u32,
    /// Straggler-salvage telemetry for the whole hierarchy: `Salvaged`
    /// counts the late reports the second merge instance folded into the
    /// estimate; `None` when no salvage policy is configured.
    pub salvage: Option<SalvageOutcome>,
    /// Shards whose late-recovered sums entered the salvage merge. A shard
    /// may appear here *and* in `degraded_shards`: degraded at the base
    /// merge cut, partially recovered (its parked stragglers only) late.
    pub salvaged_shards: Vec<usize>,
    /// Shards excluded because their tier-1 instance degraded.
    pub degraded_shards: Vec<usize>,
    /// Shards whose sums are inside the estimate.
    pub included_shards: Vec<usize>,
    /// Bits the merged round still starved of `min_reports_per_bit`.
    pub starved_bits: Vec<u32>,
    /// The degraded mode that produced the estimate.
    pub degraded: DegradedMode,
    /// All traffic, both tiers merged.
    pub traffic: TrafficStats,
    /// Tier-1 traffic only (client ↔ shard coordinators).
    pub shard_traffic: TrafficStats,
    /// Tier-2 traffic only (shard aggregators ↔ top coordinator).
    pub merge_traffic: TrafficStats,
    /// Every uplink frame the top-level coordinator received in the merge
    /// session, verbatim — the audit surface the privacy e2e test decodes
    /// to check that only *masked* per-shard material reaches the top.
    pub merge_frames: Vec<Vec<u8>>,
    /// Measured busy seconds per shard session (this process, in shard
    /// index order) — the per-job costs the bench's makespan model
    /// schedules over worker slots.
    pub shard_compute_seconds: Vec<f64>,
}

/// What one shard session produced (pool job output).
#[derive(Default)]
struct ShardRun {
    traffic: TrafficStats,
    contacted: usize,
    collected: u64,
    waves_used: u32,
    completion: f64,
    rejections: RejectionCounts,
    late_frames: u64,
    faults_injected: u64,
    retries: u32,
    /// `[ones | counts]` secagg output, `None` when the shard degraded.
    sum: Option<Vec<u64>>,
    /// `[ones | counts]` of the shard's *salvage* instance over re-admitted
    /// stragglers (fresh masks under the salvage tier seed), `None` when the
    /// shard salvaged nothing. Kept separate from `sum`: a degraded shard's
    /// base instance stays degraded — only its parked late reports recover.
    late_sum: Option<Vec<u64>>,
    /// Reports the shard's salvage instance re-admitted.
    salvaged: u64,
    compute_seconds: f64,
    /// Wire totals of the shard's transport, when it meters one (TCP).
    wire: Option<WireMetrics>,
}

/// Runs one federated mean round with the population partitioned across
/// `hier.shards` coordinator shards, each shard's reports aggregated by
/// its own secure-aggregation instance, and the per-shard sums merged
/// through a second instance among the shard aggregators — the engine
/// behind `RoundBuilder::new(config).hierarchical(hier, workers)`.
///
/// `config.secagg` must be set (its settings configure the per-shard tier,
/// mirrored by `hier.shard`); `workers` bounds the OS threads running
/// shard sessions concurrently — any value yields bit-identical results;
/// `seed` drives every stream, exactly as in a plain sharded round, with
/// the secagg instances additionally keyed by `hier.session_seed` per tier
/// and shard. `factory`, when given, supplies each shard's transport (see
/// [`ShardTransportFactory`]); the second return value is the merged wire
/// totals of the shard transports, `None` when none of them meter a wire.
/// `batched` switches every shard onto the chunked multi-client wire with
/// plane-popcount secure tallies, bit-identical per seed to the per-client
/// wire.
///
/// # Errors
/// `InvalidConfig` when secagg is off or the partition violates the
/// hierarchy (use [`HierSecConfig::try_new`]); `NoReports` /
/// `CohortTooSmall` against the merged cohort; `SecAgg` when the merge
/// instance fails (map to [`DegradedMode::Aborted`] in telemetry) or a
/// shard instance fails for a non-degrading reason.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
pub(crate) fn hierarchical_impl(
    values: &[f64],
    config: &FederatedMeanConfig,
    hier: &HierSecConfig,
    workers: usize,
    seed: u64,
    factory: Option<ShardTransportFactory<'_>>,
    batched: Option<usize>,
) -> Result<(HierShardedOutcome, Option<WireMetrics>), FedError> {
    let Some(_) = config.secagg else {
        return Err(FedError::InvalidConfig(
            "hierarchical aggregation is the secure path: set \
             FederatedMeanConfig::with_secagg (for direct sharding use \
             `.sharded(..)`)"
                .into(),
        ));
    };
    if values.is_empty() {
        return Err(FedError::PopulationTooSmall { got: 0, need: 1 });
    }
    let codec = config.protocol.codec;
    let bits = codec.bits();
    let vector_len = 2 * bits as usize;
    let (codes, clip_fraction) = codec.encode_all(values);
    let round_id = config.session_seed;

    // Contiguous partition: shard s owns [offsets[s], offsets[s] + sizes[s]).
    let k = hier.shards;
    let (offsets, sizes): (Vec<usize>, Vec<usize>) = partition(codes.len(), k).unzip();
    hier.validate_cohorts(&sizes)?;

    // Tier 1: K independent shard sessions on the deterministic pool.
    let runs: Vec<Result<ShardRun, FedError>> = run_indexed(workers, k, |s| {
        let clock = std::time::Instant::now();
        let slice = &codes[offsets[s]..offsets[s] + sizes[s]];
        let mut rng = StdRng::seed_from_u64(mix(seed ^ s as u64));
        let tseed = mix(seed ^ (s as u64) ^ TRANSPORT_TAG);
        let mut transport: Box<dyn Transport> = match factory {
            Some(make) => make(tseed)?,
            None if config.faults.is_some() => Box::new(SimNetTransport::for_config(config, tseed)),
            None => Box::new(InMemoryTransport::new(tseed)),
        };
        let offset = offsets[s] as u64;
        let mut session = Session::open(transport.as_mut(), config, batched, offset);
        let mut st = collect(slice, config, offset, None, &mut session, &mut rng)?;
        let mut run = ShardRun {
            contacted: st.contacts.len(),
            collected: st.reports(),
            waves_used: st.waves_used,
            rejections: st.rejections,
            late_frames: st.late_frames,
            faults_injected: st.faults_injected,
            ..ShardRun::default()
        };
        if st.reporters() > 0 {
            // The shard's own secagg instance, keyed by tier and index so
            // its key graph is independent of every sibling's.
            let tally = secagg_tally(
                &mut st,
                config,
                &hier.shard,
                hier.shard_session(s),
                None,
                &mut session,
                &mut rng,
            );
            match tally {
                Ok(tally) => {
                    let mut sum = tally.ones;
                    sum.extend_from_slice(&tally.eff_counts);
                    run.retries = tally.retries;
                    run.sum = Some(sum);
                }
                // Below threshold (or shrunk past the cohort floor): this
                // shard degrades; the round continues without it.
                Err(
                    FedError::SecAgg(fednum_secagg::SecAggError::TooFewSurvivors { .. })
                    | FedError::CohortTooSmall { .. }
                    | FedError::NoReports,
                ) => {}
                Err(e) => return Err(e),
            }
        }
        // Shard-tier salvage: re-admit this shard's parked stragglers
        // through a follow-up session on the same transport timeline,
        // aggregated by a *fresh* instance under the salvage tier seed —
        // shares from the base instance (aborted or not) are never reused.
        // Deterministic per shard, so any worker count stays bit-identical.
        if let Some(policy) = &config.salvage {
            if config.validate {
                let (outcome, late) = run_salvage(
                    &mut st,
                    &mut session,
                    config,
                    policy,
                    Some(&hier.shard),
                    hier.salvage_shard_session(s),
                    None,
                    &mut rng,
                );
                if let (SalvageOutcome::Salvaged { reports }, Some(late)) = (outcome, late) {
                    let mut sum = late.ones;
                    sum.extend_from_slice(&late.eff_counts);
                    run.late_sum = Some(sum);
                    run.salvaged = reports;
                }
            }
        }
        run.traffic = session.into_traffic();
        run.completion = st.completion_time + st.backoff_time;
        run.compute_seconds = clock.elapsed().as_secs_f64();
        // A transport that failed underneath the session drained silently;
        // surface the typed error instead of a quietly-degraded shard.
        if let Some(e) = transport.take_error() {
            return Err(e);
        }
        run.wire = transport.wire_metrics();
        Ok(run)
    });

    let mut shard_traffic = TrafficStats::new();
    let mut contacted = 0usize;
    let mut collected = 0u64;
    let mut waves_used = 0u32;
    let mut completion_time: f64 = 0.0;
    let mut rejections = RejectionCounts::default();
    let mut faults_injected = 0u64;
    let mut secagg_retries = 0u32;
    let mut shard_sums: Vec<Option<Vec<u64>>> = Vec::with_capacity(k);
    let mut shard_compute_seconds = Vec::with_capacity(k);
    let mut late_frames = 0u64;
    let mut late: Vec<(usize, Vec<u64>)> = Vec::new();
    let mut salvaged_reports = 0u64;
    let mut wire: Option<WireMetrics> = None;
    for (s, r) in runs.into_iter().enumerate() {
        let run = r?;
        if let Some(w) = run.wire {
            let mut total = wire.unwrap_or_default();
            total.merge(&w);
            wire = Some(total);
        }
        shard_traffic.merge(&run.traffic);
        contacted += run.contacted;
        collected += run.collected;
        waves_used = waves_used.max(run.waves_used);
        completion_time = completion_time.max(run.completion);
        rejections.absorb(&run.rejections);
        late_frames += run.late_frames;
        faults_injected += run.faults_injected;
        secagg_retries += run.retries;
        shard_sums.push(run.sum);
        if let Some(sum) = run.late_sum {
            late.push((s, sum));
            salvaged_reports += run.salvaged;
        }
        shard_compute_seconds.push(run.compute_seconds);
    }

    check_cohort(collected, contacted_reporters(collected, contacted), config)?;

    // Tier 2: frame the merge session — the K shard aggregators are the
    // cohort now — then run the merge instance. The masked-input frames
    // carry the *real* masked per-shard sums (mask derivation identical to
    // the protocol's round 3), so `merge_frames` is a faithful record of
    // everything the top-level coordinator sees.
    let mut merge_transport = InMemoryTransport::new(mix(seed ^ MERGE_TAG));
    let merge_session = hier.merge_session();
    let base_parties: Vec<u64> = (0..k as u64).collect();
    let mut merge_frames = Vec::new();
    let mut merge_traffic = frame_merge_session(
        &mut merge_transport,
        &base_parties,
        &shard_sums,
        merge_session,
        round_id,
        vector_len,
        completion_time,
        &mut merge_frames,
    );
    let mut merge_rng = StdRng::seed_from_u64(mix(seed.wrapping_add(1) ^ MERGE_TAG));
    let merge = merge_shard_sums(hier, &shard_sums, vector_len, &mut merge_rng)?;
    completion_time += 1.0;

    let mut ones = merge.sum[..bits as usize].to_vec();
    let mut eff_counts = merge.sum[bits as usize..].to_vec();
    let mut total_reports: u64 = eff_counts.iter().sum();
    if total_reports == 0 {
        return Err(FedError::NoReports);
    }

    // Salvage merge: shards that recovered late reports run a *second*
    // K'-party instance over their late sums — fresh masks under the
    // salvage merge session, traffic re-attributed to the Salvage phase,
    // frames appended to the same audit surface. One recovered shard is
    // below the trust floor (its late sum would reach the top coordinator
    // in the clear), so K' < 2 skips and the base estimate stands.
    let mut salvaged_shards: Vec<usize> = Vec::new();
    let salvage = match (&config.salvage, config.validate) {
        (None, _) => None,
        (Some(_), false) => Some(SalvageOutcome::SalvageSkipped),
        (Some(_), true) if late.len() < 2 => Some(SalvageOutcome::SalvageSkipped),
        (Some(_), true) => {
            let parties: Vec<u64> = late.iter().map(|&(s, _)| s as u64).collect();
            let sums: Vec<Option<Vec<u64>>> = late.iter().map(|(_, v)| Some(v.clone())).collect();
            let salvage_tier_traffic = frame_merge_session(
                &mut merge_transport,
                &parties,
                &sums,
                hier.salvage_merge_session(),
                round_id,
                vector_len,
                completion_time,
                &mut merge_frames,
            );
            merge_traffic.absorb_as(&salvage_tier_traffic, TrafficPhase::Salvage);
            completion_time += 1.0;
            let mut salvage_rng = StdRng::seed_from_u64(mix(seed.wrapping_add(2) ^ MERGE_TAG));
            match merge_salvaged_shard_sums(hier, &late, vector_len, &mut salvage_rng) {
                Ok(sm) => {
                    for j in 0..bits as usize {
                        ones[j] += sm.sum[j];
                        eff_counts[j] += sm.sum[bits as usize + j];
                    }
                    let recovered: u64 = sm.sum[bits as usize..].iter().sum();
                    debug_assert_eq!(recovered, salvaged_reports);
                    total_reports += recovered;
                    salvaged_shards = sm.included_shards;
                    Some(SalvageOutcome::Salvaged { reports: recovered })
                }
                Err(_) => Some(SalvageOutcome::SalvageAborted),
            }
        }
    };

    let mut fin = finish(
        config,
        &ones,
        eff_counts,
        clip_fraction,
        secagg_retries,
        waves_used,
    );
    if !merge.degraded_shards.is_empty() {
        fin.degraded = DegradedMode::Partial;
    }
    let outcome = fin.outcome;

    record_publish(
        &mut merge_traffic,
        round_id,
        outcome.estimate,
        total_reports,
    );

    let mut traffic = shard_traffic;
    traffic.merge(&merge_traffic);
    Ok((
        HierShardedOutcome {
            outcome,
            shards: k,
            contacted,
            reports: total_reports,
            waves_used,
            completion_time,
            rejections,
            late_frames,
            faults_injected,
            secagg_retries,
            salvage,
            salvaged_shards,
            degraded_shards: merge.degraded_shards,
            included_shards: merge.included_shards,
            starved_bits: fin.starved_bits,
            degraded: fin.degraded,
            traffic,
            shard_traffic,
            merge_traffic,
            merge_frames,
            shard_compute_seconds,
        },
        wire,
    ))
}

/// Frames one merge-tier instance's message rounds: key material and unmask
/// shares as sized stand-ins, masked inputs as the genuine masked per-party
/// sums. `parties[i]` is the wire identity masking (and sending)
/// `shard_sums[i]` — contiguous shard indices for the base merge, the
/// recovered shards' indices for the salvage merge, so the two instances
/// derive disjoint mask material even beyond their distinct sessions.
///
/// Returns the instance's traffic, metered at delivery, and appends every
/// uplink frame the top-level coordinator received to `frames`.
#[allow(clippy::too_many_arguments)]
fn frame_merge_session(
    transport: &mut dyn Transport,
    parties: &[u64],
    shard_sums: &[Option<Vec<u64>>],
    session: u64,
    round_id: u64,
    vector_len: usize,
    t0: f64,
    frames: &mut Vec<Vec<u8>>,
) -> TrafficStats {
    let k = parties.len();
    debug_assert_eq!(k, shard_sums.len());
    let degree = k.saturating_sub(1).max(1);
    let mut seq = 0u64;
    let mut next_at = || {
        seq += 1;
        t0 + seq as f64 * STEP
    };
    // Rounds 0–1: every shard aggregator advertises keys and relays
    // encrypted Shamir shares to its neighbors (the whole merge cohort —
    // the merge instance runs the complete graph).
    for &p in parties {
        let kseed = mix(session ^ p.wrapping_mul(0x9E6C_63D0_876A_68DE));
        let mut kem_pk = [0u8; PUBLIC_KEY_LEN];
        let mut mask_pk = [0u8; PUBLIC_KEY_LEN];
        fill_derived(&mut kem_pk, kseed);
        fill_derived(&mut mask_pk, mix(kseed));
        transport.send(Envelope {
            from: p,
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
    for (i, &p) in parties.iter().enumerate() {
        let shares: Vec<EncryptedShare> = (0..degree)
            .map(|d| {
                let mut ct = [0u8; ENCRYPTED_SHARE_LEN];
                fill_derived(&mut ct, mix(session ^ p << 20 ^ d as u64));
                EncryptedShare {
                    recipient: parties[(i + d + 1) % k],
                    ct,
                }
            })
            .collect();
        transport.send(Envelope {
            from: p,
            to: COORDINATOR,
            sent_at: next_at(),
            payload: Message::KeyShares(KeyShares { round_id, shares }).encode(),
        });
    }
    // Round 2: live shard aggregators upload their genuinely masked sums —
    // the exact vectors the merge protocol's round 3 computes, so the
    // coordinator-facing wire carries no plaintext shard sum.
    for (i, sum) in shard_sums.iter().enumerate() {
        let Some(vals) = sum else { continue };
        let mut y: Vec<Fe> = vals.iter().map(|&v| Fe::new(v)).collect();
        let mask = client_mask_ring(session, parties[i], parties, degree, vector_len);
        add_assign(&mut y, &mask, false);
        let values: Vec<u64> = y.iter().map(|f| f.value()).collect();
        transport.send(Envelope {
            from: parties[i],
            to: COORDINATOR,
            sent_at: next_at(),
            payload: Message::MaskedInput(MaskedInput { round_id, values }).encode(),
        });
    }
    // Round 3: survivors send unmask shares covering degraded shards.
    let dropped = shard_sums.iter().filter(|s| s.is_none()).count();
    for (i, sum) in shard_sums.iter().enumerate() {
        if sum.is_none() {
            continue;
        }
        let shares: Vec<(u64, u64)> = (0..dropped.min(degree))
            .map(|d| {
                (
                    d as u64,
                    mix(session ^ parties[i] << 28 ^ d as u64) & ((1 << 61) - 1),
                )
            })
            .collect();
        transport.send(Envelope {
            from: parties[i],
            to: COORDINATOR,
            sent_at: next_at(),
            payload: Message::UnmaskShares(UnmaskShares { round_id, shares }).encode(),
        });
    }
    let mut traffic = TrafficStats::new();
    while let Some((_, env)) = transport.poll() {
        if let Ok(msg) = Message::decode(&env.payload) {
            traffic.record(msg.phase(), msg.direction(), env.payload.len() as u64);
            if env.to == COORDINATOR {
                frames.push(env.payload);
            }
        }
    }
    traffic
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MaskedInput;
    use crate::shard::sharded_impl;
    use fednum_core::encoding::FixedPointCodec;
    use fednum_core::protocol::basic::BasicConfig;
    use fednum_core::sampling::BitSampling;
    use fednum_fedsim::dropout::DropoutModel;
    use fednum_fedsim::round::SecAggSettings;
    use fednum_fedsim::traffic::Direction;

    // The pre-`RoundBuilder` call shape, kept so the assertions below read
    // unchanged.
    fn run_hierarchical_mean(
        values: &[f64],
        config: &FederatedMeanConfig,
        hier: &HierSecConfig,
        workers: usize,
        seed: u64,
    ) -> Result<HierShardedOutcome, FedError> {
        hierarchical_impl(values, config, hier, workers, seed, None, None).map(|(out, _)| out)
    }

    fn settings() -> SecAggSettings {
        SecAggSettings {
            threshold_fraction: 0.5,
            neighbors: None,
        }
    }

    fn plain_config(bits: u32) -> FederatedMeanConfig {
        FederatedMeanConfig::new(BasicConfig::new(
            FixedPointCodec::integer(bits),
            BitSampling::geometric(bits, 1.0),
        ))
    }

    fn config(bits: u32) -> FederatedMeanConfig {
        plain_config(bits).with_secagg(settings())
    }

    fn hier(shards: usize, merge_threshold: usize) -> HierSecConfig {
        HierSecConfig::try_new(shards, settings(), merge_threshold, 0xC0FF_EE01).unwrap()
    }

    fn values(n: usize, hi: u64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as u64).wrapping_mul(0x5851_F42D) % hi) as f64)
            .collect()
    }

    #[test]
    fn secagg_off_is_rejected_with_guidance() {
        let err = run_hierarchical_mean(&values(100, 10), &plain_config(4), &hier(4, 3), 1, 1)
            .unwrap_err();
        let FedError::InvalidConfig(msg) = err else {
            panic!("expected InvalidConfig, got {err}");
        };
        assert!(msg.contains("with_secagg"), "unhelpful message: {msg}");
        assert!(msg.contains(".sharded("), "unhelpful message: {msg}");
    }

    #[test]
    fn clean_round_matches_the_plain_sharded_estimate() {
        let vs = values(1_200, 100);
        let out = run_hierarchical_mean(&vs, &config(7), &hier(4, 3), 2, 11).unwrap();
        // Same seed, same partition, secagg off: the collect phase draws the
        // same RNG stream, and secagg is exact arithmetic over the same
        // reports, so the estimates agree bit for bit.
        let plain = sharded_impl(&vs, &plain_config(7), 4, 11, None).unwrap();
        assert_eq!(out.outcome.estimate, plain.outcome.estimate);
        assert_eq!(out.reports, plain.reports);
        assert_eq!(out.contacted, 1_200);
        assert_eq!(out.degraded, DegradedMode::Clean);
        assert_eq!(out.included_shards, vec![0, 1, 2, 3]);
        assert!(out.degraded_shards.is_empty());
    }

    #[test]
    fn worker_count_never_changes_the_outcome() {
        let vs = values(900, 64);
        let cfg = config(6).with_dropout(DropoutModel::bernoulli(0.2));
        let h = hier(6, 4);
        let one = run_hierarchical_mean(&vs, &cfg, &h, 1, 9).unwrap();
        for workers in [2, 4, 8] {
            let w = run_hierarchical_mean(&vs, &cfg, &h, workers, 9).unwrap();
            assert_eq!(w.outcome, one.outcome, "workers={workers}");
            assert_eq!(w.reports, one.reports);
            assert_eq!(w.traffic, one.traffic);
            assert_eq!(w.included_shards, one.included_shards);
            assert_eq!(w.degraded_shards, one.degraded_shards);
            assert_eq!(w.merge_frames, one.merge_frames);
            assert_eq!(w.secagg_retries, one.secagg_retries);
        }
    }

    #[test]
    fn merge_frames_carry_only_masked_material() {
        let vs = values(800, 50);
        let out = run_hierarchical_mean(&vs, &config(6), &hier(4, 3), 2, 3).unwrap();
        let mut masked_inputs = 0usize;
        let mut key_adverts = 0usize;
        for frame in &out.merge_frames {
            match Message::decode(frame).expect("merge frames must decode") {
                Message::MaskedInput(MaskedInput { values, .. }) => {
                    masked_inputs += 1;
                    assert_eq!(values.len(), 12, "vector is [ones | counts]");
                    // A plaintext shard sum is bounded by the shard cohort
                    // (200 clients); pairwise masks spread values uniformly
                    // over the 61-bit field, so masked frames blow far past
                    // that bound.
                    let max = values.iter().copied().max().unwrap();
                    assert!(
                        max > 1 << 32,
                        "frame looks like a plaintext shard sum: max {max}"
                    );
                }
                Message::KeyAdvertise(_) => key_adverts += 1,
                Message::KeyShares(_) | Message::UnmaskShares(_) => {}
                other => panic!("unexpected merge-tier uplink frame: {other:?}"),
            }
        }
        assert_eq!(masked_inputs, 4, "every live shard uploads a masked sum");
        assert_eq!(key_adverts, 4);
        let t = out
            .merge_traffic
            .get(TrafficPhase::Publish, Direction::Downlink);
        assert_eq!(t.messages, 1);
    }

    #[test]
    fn degraded_shards_partition_cleanly_under_dropout() {
        let vs = values(1_200, 32);
        let cfg = config(5).with_dropout(DropoutModel::bernoulli(0.45));
        let out = run_hierarchical_mean(&vs, &cfg, &hier(6, 2), 2, 21).unwrap();
        let mut all: Vec<usize> = out
            .included_shards
            .iter()
            .chain(&out.degraded_shards)
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..6).collect::<Vec<_>>());
        if !out.degraded_shards.is_empty() {
            assert_eq!(out.degraded, DegradedMode::Partial);
        }
        assert!(out.outcome.estimate.is_finite());
        let again = run_hierarchical_mean(&vs, &cfg, &hier(6, 2), 4, 21).unwrap();
        assert_eq!(again.outcome.estimate, out.outcome.estimate);
        assert_eq!(again.degraded_shards, out.degraded_shards);
    }

    #[test]
    fn traffic_splits_into_tiers() {
        let vs = values(1_000, 16);
        let out = run_hierarchical_mean(&vs, &config(4), &hier(4, 3), 1, 5).unwrap();
        let merged_total = out.traffic.total_bytes();
        let shard_total = out.shard_traffic.total_bytes();
        let merge_total = out.merge_traffic.total_bytes();
        assert_eq!(merged_total, shard_total + merge_total);
        assert!(shard_total > merge_total, "tier 1 carries the client fleet");
        assert!(merge_total > 0, "merge tier must be metered");
        assert_eq!(out.shard_compute_seconds.len(), 4);
        assert!(out.shard_compute_seconds.iter().all(|&s| s >= 0.0));
    }
}
