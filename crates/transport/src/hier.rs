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
use fednum_secagg::{add_assign, client_mask_ring, DropoutPlan, Fe, SecAggConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use fednum_fedsim::error::FedError;
use fednum_fedsim::round::{
    check_cohort, finish, DegradedMode, FederatedMeanConfig, SalvageOutcome, SecAggAttempt,
};
use fednum_fedsim::traffic::{TrafficPhase, TrafficStats};
use fednum_fedsim::validation::RejectionCounts;

use crate::coordinator::{drain_counting, frame_secagg_rounds, record_publish};
use crate::net::{InMemoryTransport, Transport, WireMetrics};
use crate::scheduler::mix;
use crate::shard::{contacted_reporters, partition, run_shard, ShardRuns};

/// Per-shard transport factory for a hierarchical round: called once per
/// shard with that shard's scheduler seed (`mix(seed ^ s ^ TRANSPORT_TAG)`,
/// the same stream an in-process run would hand its per-shard
/// [`InMemoryTransport`] / `SimNetTransport`), from the worker thread
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
/// `batched` switches every shard onto the chunked multi-client wire,
/// bit-identical per seed to the per-client wire.
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

    // Tier 1: K independent shard sessions on the deterministic pool, each
    // under its own secagg instance.
    let runs = run_indexed(workers, k, |s| {
        let (offset, slice) = (offsets[s], &codes[offsets[s]..offsets[s] + sizes[s]]);
        run_shard(slice, config, s, offset, seed, factory, batched, Some(hier))
    });
    let mut tier1 = ShardRuns::default();
    for run in runs {
        tier1.absorb(run?);
    }
    let (shard_sums, late) = (tier1.sums, tier1.late);
    let mut completion_time = tier1.completion;
    let reporters = contacted_reporters(tier1.collected, tier1.contacted);
    check_cohort(tier1.collected, reporters, config)?;

    // Tier 2: frame the merge session — the K shard aggregators are the
    // cohort now — then run the merge instance. The masked-input frames
    // carry the *real* masked per-shard sums (mask derivation identical to
    // the protocol's round 3), so `merge_frames` is a faithful record of
    // everything the top-level coordinator sees.
    let mut merge_transport = InMemoryTransport::new(mix(seed ^ MERGE_TAG));
    let base_parties: Vec<u64> = (0..k as u64).collect();
    let mut merge_frames = Vec::new();
    let mut rejections = tier1.rejections;
    let (mut merge_traffic, dropped) = frame_merge_session(
        &mut merge_transport,
        &base_parties,
        &shard_sums,
        &SecAggConfig::new(k, hier.merge_threshold, vector_len, hier.merge_session()),
        round_id,
        completion_time,
        &mut merge_frames,
    );
    rejections.unknown_client += dropped;
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
    let salvage = match &config.salvage {
        None => None,
        Some(_) if late.len() < 2 => Some(SalvageOutcome::SalvageSkipped),
        Some(_) => {
            let parties: Vec<u64> = late.iter().map(|&(s, _)| s as u64).collect();
            let sums: Vec<Option<Vec<u64>>> = late.iter().map(|(_, v)| Some(v.clone())).collect();
            let instance = SecAggConfig::new(
                parties.len(),
                parties.len(),
                vector_len,
                hier.salvage_merge_session(),
            );
            let (salvage_tier_traffic, dropped) = frame_merge_session(
                &mut merge_transport,
                &parties,
                &sums,
                &instance,
                round_id,
                completion_time,
                &mut merge_frames,
            );
            rejections.unknown_client += dropped;
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
                    let merged = Some(SalvageOutcome::Salvaged { reports: recovered });
                    debug_assert_eq!(merged, tier1.salvage);
                    total_reports += recovered;
                    salvaged_shards = sm.included_shards;
                    merged
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
        tier1.retries,
        tier1.waves_used,
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

    let mut traffic = tier1.traffic;
    traffic.merge(&merge_traffic);
    Ok((
        HierShardedOutcome {
            outcome,
            shards: k,
            contacted: tier1.contacted,
            reports: total_reports,
            waves_used: tier1.waves_used,
            completion_time,
            rejections,
            late_frames: tier1.late_frames,
            faults_injected: tier1.faults_injected,
            secagg_retries: tier1.retries,
            salvage,
            salvaged_shards,
            degraded_shards: merge.degraded_shards,
            included_shards: merge.included_shards,
            starved_bits: fin.starved_bits,
            degraded: fin.degraded,
            traffic,
            shard_traffic: tier1.traffic,
            merge_traffic,
            merge_frames,
        },
        tier1.wire,
    ))
}

/// Frames one merge-tier `instance`'s message rounds: the shared secagg
/// framing keyed on party identity, every party its own frame, the masked
/// inputs the genuine masked per-party sums. `parties[i]` is the wire
/// identity masking (and sending) `shard_sums[i]` — contiguous shard
/// indices for the base merge, the recovered shards' indices for the
/// salvage merge, so the two instances derive disjoint mask material even
/// beyond their distinct sessions. A `None` sum is a degraded shard:
/// enrolled, never uploading.
///
/// Returns the instance's traffic, metered at delivery, and how many
/// frames arrived undecodable; appends every frame the top-level
/// coordinator received to `frames`.
fn frame_merge_session(
    transport: &mut dyn Transport,
    parties: &[u64],
    shard_sums: &[Option<Vec<u64>>],
    instance: &SecAggConfig,
    round_id: u64,
    t0: f64,
    frames: &mut Vec<Vec<u8>>,
) -> (TrafficStats, u64) {
    let k = parties.len();
    debug_assert_eq!(k, shard_sums.len());
    let plan = DropoutPlan {
        before_masking: (0..k).filter(|&i| shard_sums[i].is_none()).collect(),
        ..DropoutPlan::none()
    };
    // The merge instance runs the complete graph; its masked inputs are the
    // exact vectors the merge protocol's round 3 computes, so the
    // coordinator-facing wire carries no plaintext shard sum.
    let (session, degree) = (instance.session_seed, k.saturating_sub(1).max(1));
    let masked_sums: Vec<Vec<Fe>> = (shard_sums.iter().zip(parties))
        .map(|(sum, &party)| {
            let mut y: Vec<Fe> = sum.iter().flatten().map(|&v| Fe::new(v)).collect();
            let mask = client_mask_ring(session, party, parties, degree, y.len());
            add_assign(&mut y, &mask, false);
            y
        })
        .collect();
    let (mut traffic, mut dropped) = (TrafficStats::new(), 0);
    frame_secagg_rounds(
        transport,
        &SecAggAttempt {
            config: instance,
            members: parties,
            plan: &plan,
            round_id,
        },
        t0,
        1,
        |i| parties[i],
        |i, v| masked_sums[i][v].value(),
        |transport, _| {
            dropped += drain_counting(transport, &mut traffic, |_, msg| {
                frames.push(msg.encode());
            });
        },
    );
    (traffic, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Message, SecAggStep};
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
            let Message::SecAgg(batch) = Message::decode(frame).expect("merge frames must decode")
            else {
                panic!("unexpected merge-tier uplink frame");
            };
            match batch.step() {
                SecAggStep::MaskedInput => {
                    masked_inputs += 1;
                    let values: Vec<u64> = (batch.items())
                        .map(|(_, _, element)| u64::from_le_bytes(element.try_into().unwrap()))
                        .collect();
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
                SecAggStep::KeyAdvertise => key_adverts += 1,
                SecAggStep::KeyShares | SecAggStep::UnmaskShares => {}
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
    }
}
