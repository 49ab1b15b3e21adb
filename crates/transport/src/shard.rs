//! Sharded coordinator: one round, K independent event schedules.
//!
//! At a million clients a single event queue serializes the whole fleet
//! through one heap. The sharded coordinator instead partitions the
//! population into K contiguous shards, runs the full collect state machine
//! per shard over its own transport (`run_shard`, which a hierarchical
//! round calls too) — each with its own seeded scheduler and RNG stream, so
//! shards are independently deterministic and reorderable — then merges the
//! per-bit tallies and traffic at publish and finishes the estimate once,
//! globally.
//!
//! Sharding changes the sampling structure (K independent shuffles and
//! assignments instead of one), so estimates are *statistically* equivalent
//! to, not bit-identical with, the single-coordinator path; the figure
//! panel and the tests below pin the accuracy. Refill waves
//! enforce `min_reports_per_bit` per shard, which is conservative: the
//! merged round meets at least the single-coordinator floor.
//!
//! Secure aggregation is deliberately rejected here: masked vectors cancel
//! only within one unmask domain, so a secagg cohort cannot be split across
//! shards without a second aggregation tier — which is exactly what
//! [`RoundBuilder::hierarchical`](crate::builder::RoundBuilder::hierarchical)
//! provides.

use fednum_core::protocol::basic::Outcome;
use fednum_hiersec::HierSecConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

use fednum_fedsim::error::FedError;
use fednum_fedsim::round::SalvageOutcome::{self, SalvageAborted, Salvaged};
use fednum_fedsim::round::{
    check_cohort, collect, finish, secagg_tally, FederatedMeanConfig, Tally,
};
use fednum_fedsim::traffic::TrafficStats;
use fednum_fedsim::validation::RejectionCounts;

use crate::coordinator::{record_publish, run_salvage, Session};
use crate::hier::ShardTransportFactory;
use crate::net::{InMemoryTransport, SimNetTransport, Transport, WireMetrics};
use crate::scheduler::mix;

/// Scheduler-seed tag for per-shard transports.
const TRANSPORT_TAG: u64 = 0xA24B_AED4_963E_E407;

/// The merged result of a sharded round.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedOutcome {
    /// The global estimate, finished once over the merged tallies.
    pub outcome: Outcome,
    /// Shards the population was partitioned into.
    pub shards: usize,
    /// Clients contacted across all shards.
    pub contacted: usize,
    /// Accepted report copies across all shards.
    pub reports: u64,
    /// Largest wave count any shard needed.
    pub waves_used: u32,
    /// Simulated wall-clock: the slowest shard (shards run concurrently).
    pub completion_time: f64,
    /// Validator rejections, merged across shards.
    pub rejections: RejectionCounts,
    /// Report frames that arrived after their wave deadline, summed across
    /// shards (`rejections.straggler` equals this iff `config.validate`).
    pub late_frames: u64,
    /// Straggler-salvage telemetry, merged across shards: re-admitted
    /// reports add up and, with none, an abort anywhere outranks a skip;
    /// `None` when no salvage policy is configured.
    pub salvage: Option<SalvageOutcome>,
    /// Faults injected, summed across shards.
    pub faults_injected: u64,
    /// Per-phase, per-direction message and byte totals, merged.
    pub traffic: TrafficStats,
}

/// What shard sessions produced: one shard's as [`run_shard`] returns it,
/// a round's once every shard's has been [absorbed](Self::absorb) in shard
/// order.
#[derive(Default)]
pub(crate) struct ShardRuns {
    pub traffic: TrafficStats,
    pub contacted: usize,
    pub collected: u64,
    pub waves_used: u32,
    /// The slowest shard: shards run concurrently.
    pub completion: f64,
    pub rejections: RejectionCounts,
    pub late_frames: u64,
    pub faults_injected: u64,
    pub retries: u32,
    /// Per shard, its `[ones | counts]` tally; `None` where the shard's
    /// secure instance degraded.
    pub sums: Vec<Option<Vec<u64>>>,
    /// `(shard, [ones | counts])` over the stragglers each salvaging shard
    /// re-admitted. Kept apart from `sums`: a degraded shard's base
    /// instance stays degraded — only its parked late reports recover.
    pub late: Vec<(usize, Vec<u64>)>,
    pub salvage: Option<SalvageOutcome>,
    /// Wire totals of the shard transports that meter one (TCP).
    pub wire: Option<WireMetrics>,
}

impl ShardRuns {
    pub(crate) fn absorb(&mut self, run: ShardRuns) {
        self.traffic.merge(&run.traffic);
        self.contacted += run.contacted;
        self.collected += run.collected;
        self.waves_used = self.waves_used.max(run.waves_used);
        self.completion = self.completion.max(run.completion);
        self.rejections.absorb(&run.rejections);
        self.late_frames += run.late_frames;
        self.faults_injected += run.faults_injected;
        self.retries += run.retries;
        self.sums.extend(run.sums);
        self.late.extend(run.late);
        self.salvage = match (self.salvage, run.salvage) {
            (Some(Salvaged { reports: a }), Some(Salvaged { reports: b })) => {
                Some(Salvaged { reports: a + b })
            }
            (Some(s @ Salvaged { .. }), _) | (_, Some(s @ Salvaged { .. })) => Some(s),
            (Some(SalvageAborted), _) | (_, Some(SalvageAborted)) => Some(SalvageAborted),
            (a, b) => a.or(b),
        };
        if let Some(wire) = run.wire {
            self.wire
                .get_or_insert_with(WireMetrics::default)
                .merge(&wire);
        }
    }
}

fn ones_then_counts(tally: Tally) -> Vec<u64> {
    let mut sum = tally.ones;
    sum.extend_from_slice(&tally.eff_counts);
    sum
}

/// Runs the session of shard `s`, which owns `codes` from fleet-wide
/// identity `offset` on: picks the transport (`factory`'s, else one that
/// acts out `config.faults` when there are any, else in-memory), collects,
/// tallies — in the clear, or under `hier` through the shard's own
/// secure-aggregation instance — and re-admits parked stragglers through a
/// follow-up session on the same transport timeline. Everything derives
/// from `(seed, s)`: RNG stream `mix(seed ^ s)`, scheduler stream
/// `mix(seed ^ s ^ tag)`, and under `hier` instance seeds keyed by tier and
/// index, so shards run in any order, or in parallel, to the same result.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_shard(
    codes: &[u64],
    config: &FederatedMeanConfig,
    s: usize,
    offset: usize,
    seed: u64,
    factory: Option<ShardTransportFactory<'_>>,
    batched: Option<usize>,
    hier: Option<&HierSecConfig>,
) -> Result<ShardRuns, FedError> {
    let mut rng = StdRng::seed_from_u64(mix(seed ^ s as u64));
    let tseed = mix(seed ^ (s as u64) ^ TRANSPORT_TAG);
    let mut transport: Box<dyn Transport> = match factory {
        Some(make) => make(tseed)?,
        None if config.faults.is_some() => Box::new(SimNetTransport::for_config(config, tseed)),
        None => Box::new(InMemoryTransport::new(tseed)),
    };
    let offset = offset as u64;
    let mut session = Session::open(transport.as_mut(), config, batched, offset);
    let mut st = collect(codes, config, offset, None, &mut session, &mut rng)?;
    let mut run = ShardRuns {
        contacted: st.contacts.len(),
        collected: st.reports(),
        waves_used: st.waves_used,
        rejections: st.rejections,
        late_frames: st.late_frames,
        faults_injected: st.faults_injected,
        ..ShardRuns::default()
    };
    let tally = match hier {
        None => Some(Tally::direct(&st)),
        Some(_) if st.reporters() == 0 => None,
        Some(hier) => {
            let session_base = hier.shard_session(s);
            match secagg_tally(
                &mut st,
                config,
                &hier.shard,
                session_base,
                None,
                &mut session,
            ) {
                Ok(tally) => Some(tally),
                // Below threshold (or shrunk past the cohort floor): this
                // shard degrades; the round continues without it.
                Err(
                    FedError::SecAgg(fednum_secagg::SecAggError::TooFewSurvivors { .. })
                    | FedError::CohortTooSmall { .. }
                    | FedError::NoReports,
                ) => None,
                Err(e) => return Err(e),
            }
        }
    };
    run.retries = tally.as_ref().map_or(0, |t| t.retries);
    run.sums.push(tally.map(ones_then_counts));
    // Salvage: under a hierarchy, a fresh instance on the salvage tier's
    // seed — shares from the base instance (aborted or not) are never
    // reused.
    let (salvage, late) = run_salvage(
        &mut st,
        &mut session,
        config,
        hier.map(|h| &h.shard),
        hier.map_or(0, |h| h.salvage_shard_session(s)),
        None,
    );
    run.salvage = salvage;
    run.late
        .extend(late.map(|late| (s, ones_then_counts(late))));
    run.traffic = session.close(&mut run.rejections);
    run.completion = st.completion_time + st.backoff_time;
    // A transport that failed underneath the session drained silently;
    // surface the typed error instead of a quietly-degraded shard.
    if let Some(e) = transport.take_error() {
        return Err(e);
    }
    run.wire = transport.wire_metrics();
    Ok(run)
}

/// Runs one federated mean round with the population partitioned across
/// `shards` independently scheduled coordinator shards, merging partial
/// per-bit sums at publish — the engine behind
/// `RoundBuilder::new(config).sharded(shards, seed)`.
///
/// `seed` drives everything: shard `s` gets RNG stream `mix(seed ^ s)` and
/// scheduler stream `mix(seed ^ s ^ tag)`, so the run is deterministic and
/// shards could execute in any order (or in parallel) without changing the
/// result. `batched` switches every shard onto the chunked multi-client
/// wire with the given chunk size; per-shard estimates stay bit-identical
/// to the per-client wire per seed.
///
/// # Errors
/// `InvalidConfig` for zero shards or a secagg config (see module docs);
/// otherwise the usual [`FedError`] round failures, evaluated globally
/// (`NoReports`, `CohortTooSmall` against the merged cohort).
pub(crate) fn sharded_impl(
    values: &[f64],
    config: &FederatedMeanConfig,
    shards: usize,
    seed: u64,
    batched: Option<usize>,
) -> Result<ShardedOutcome, FedError> {
    if shards == 0 {
        return Err(FedError::InvalidConfig("shards must be >= 1".into()));
    }
    if config.secagg.is_some() {
        return Err(FedError::InvalidConfig(
            "secure aggregation cannot span coordinator shards directly; \
             use `.hierarchical(..)` (two-tier secagg over shards) or drop \
             `.sharded(..)` (one flat cohort)"
                .into(),
        ));
    }
    if values.is_empty() {
        return Err(FedError::PopulationTooSmall { got: 0, need: 1 });
    }
    let shards = shards.min(values.len());
    let codec = config.protocol.codec;
    let bits = codec.bits() as usize;
    let (codes, clip_fraction) = codec.encode_all(values);
    let mut runs = ShardRuns::default();
    for (s, (start, len)) in partition(codes.len(), shards).enumerate() {
        let slice = &codes[start..start + len];
        runs.absorb(run_shard(
            slice, config, s, start, seed, None, batched, None,
        )?);
    }

    // The merge is plain addition: base tallies and salvaged ones alike.
    let mut ones = vec![0u64; bits];
    let mut counts = vec![0u64; bits];
    let late = runs.late.iter().map(|(_, sum)| sum);
    for sum in runs.sums.iter().flatten().chain(late) {
        for j in 0..bits {
            ones[j] += sum[j];
            counts[j] += sum[bits + j];
        }
    }
    let total_reports: u64 = counts.iter().sum();
    let reporters = contacted_reporters(total_reports, runs.contacted);
    check_cohort(total_reports, reporters, config)?;
    let outcome = finish(config, &ones, counts, clip_fraction, 0, runs.waves_used).outcome;

    let mut traffic = runs.traffic;
    record_publish(
        &mut traffic,
        config.session_seed,
        outcome.estimate,
        total_reports,
    );

    Ok(ShardedOutcome {
        outcome,
        shards,
        contacted: runs.contacted,
        reports: total_reports,
        waves_used: runs.waves_used,
        completion_time: runs.completion,
        rejections: runs.rejections,
        late_frames: runs.late_frames,
        salvage: runs.salvage,
        faults_injected: runs.faults_injected,
        traffic,
    })
}

/// Contiguous partition of `len` clients across `k` shards, as
/// `(offset, size)` per shard: the first `len % k` shards own one extra.
pub(crate) fn partition(len: usize, k: usize) -> impl Iterator<Item = (usize, usize)> {
    let (base, extra) = (len / k, len % k);
    (0..k).map(move |s| (s * base + s.min(extra), base + usize::from(s < extra)))
}

/// A lower bound on distinct reporters from (copies, contacted): without
/// wire faults each reporter contributes exactly one copy, and wire faults
/// only inflate copies, never reporters.
pub(crate) fn contacted_reporters(total_reports: u64, contacted: usize) -> usize {
    usize::try_from(total_reports).map_or(contacted, |r| r.min(contacted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::run_session;
    use fednum_core::encoding::FixedPointCodec;
    use fednum_core::protocol::basic::BasicConfig;
    use fednum_core::sampling::BitSampling;
    use fednum_fedsim::dropout::DropoutModel;
    use fednum_fedsim::faults::{FaultPlan, FaultRates};
    use fednum_fedsim::retry::SalvagePolicy;
    use fednum_fedsim::round::SecAggSettings;
    use fednum_fedsim::traffic::{Direction, TrafficPhase};

    // The pre-`RoundBuilder` call shape, kept so the assertions below read
    // unchanged.
    fn run_sharded_mean(
        values: &[f64],
        config: &FederatedMeanConfig,
        shards: usize,
        seed: u64,
    ) -> Result<ShardedOutcome, FedError> {
        sharded_impl(values, config, shards, seed, None)
    }

    fn config(bits: u32) -> FederatedMeanConfig {
        FederatedMeanConfig::new(BasicConfig::new(
            FixedPointCodec::integer(bits),
            BitSampling::geometric(bits, 1.0),
        ))
    }

    fn values(n: usize, hi: u64) -> Vec<f64> {
        (0..n)
            .map(|i| (i as u64).wrapping_mul(0x5851_F42D) % hi)
            .map(|v| v as f64)
            .collect()
    }

    #[test]
    fn sharded_estimate_tracks_the_true_mean() {
        let vs = values(40_000, 128);
        let truth = vs.iter().sum::<f64>() / vs.len() as f64;
        let out = run_sharded_mean(&vs, &config(7), 8, 11).unwrap();
        assert_eq!(out.shards, 8);
        assert_eq!(out.contacted, 40_000);
        assert!(
            (out.outcome.estimate - truth).abs() < 1.0,
            "estimate {} vs truth {truth}",
            out.outcome.estimate
        );
    }

    #[test]
    fn shard_count_one_matches_the_unsharded_transport_path() {
        let vs = values(5_000, 100);
        let cfg = config(7);
        let sharded = run_sharded_mean(&vs, &cfg, 1, 5).unwrap();
        let mut t = InMemoryTransport::new(mix(5 ^ TRANSPORT_TAG));
        let mut rng = StdRng::seed_from_u64(mix(5));
        let (single, _) = run_session(&vs, &cfg, None, &mut t, None, &mut rng, false).unwrap();
        assert_eq!(sharded.outcome.estimate, single.outcome.estimate);
        assert_eq!(sharded.reports, single.reports);

        // Wire faults and salvage are the shard transport's to act out, as
        // on the flat path over the transport built for the config.
        let rates = FaultRates {
            duplicate: 0.3,
            straggle: 0.2,
            ..FaultRates::none()
        };
        let faulted = config(7).with_faults(FaultPlan::new(rates, 5).unwrap());
        let vs = values(2_000, 100);
        for cfg in [
            faulted.clone(),
            faulted.with_salvage(SalvagePolicy::default()),
        ] {
            let sharded = run_sharded_mean(&vs, &cfg, 1, 5).unwrap();
            let mut t = SimNetTransport::for_config(&cfg, mix(5 ^ TRANSPORT_TAG));
            let mut rng = StdRng::seed_from_u64(mix(5));
            let (single, _) = run_session(&vs, &cfg, None, &mut t, None, &mut rng, false).unwrap();
            let r = &single.robustness;
            assert!(r.rejections.duplicate > 0 && r.late_frames > 0);
            assert_eq!(sharded.outcome.estimate, single.outcome.estimate);
            assert_eq!(sharded.reports, single.reports);
            assert_eq!(sharded.rejections, r.rejections);
            assert_eq!(sharded.late_frames, r.late_frames);
            assert_eq!(sharded.faults_injected, r.faults_injected);
            assert_eq!(sharded.salvage, r.salvage);
            assert_eq!(
                matches!(r.salvage, Some(Salvaged { .. })),
                cfg.salvage.is_some()
            );
            // Apart from the closing frame, which a merged round only meters.
            let collect = |t: &TrafficStats| t.get(TrafficPhase::Collect, Direction::Uplink);
            assert_eq!(collect(&sharded.traffic), collect(&r.traffic));
        }
    }

    #[test]
    fn sharded_run_is_deterministic_and_seed_sensitive() {
        let vs = values(10_000, 64);
        let cfg = config(6).with_dropout(DropoutModel::bernoulli(0.2));
        let a = run_sharded_mean(&vs, &cfg, 4, 9).unwrap();
        let b = run_sharded_mean(&vs, &cfg, 4, 9).unwrap();
        assert_eq!(a, b);
        let c = run_sharded_mean(&vs, &cfg, 4, 10).unwrap();
        assert_ne!(a.outcome.estimate, c.outcome.estimate);
    }

    #[test]
    fn traffic_merges_across_shards() {
        let vs = values(3_000, 32);
        let out = run_sharded_mean(&vs, &config(5), 3, 2).unwrap();
        let tr = &out.traffic;
        assert_eq!(
            tr.get(TrafficPhase::Rendezvous, Direction::Uplink).messages,
            3_000
        );
        assert_eq!(
            tr.get(TrafficPhase::Collect, Direction::Uplink).messages,
            3_000
        );
        assert_eq!(
            tr.get(TrafficPhase::Publish, Direction::Downlink).messages,
            1
        );
    }

    #[test]
    fn secagg_and_zero_shards_are_rejected() {
        let vs = values(100, 10);
        assert!(matches!(
            run_sharded_mean(&vs, &config(4), 0, 0),
            Err(FedError::InvalidConfig(_))
        ));
        let cfg = config(4).with_secagg(SecAggSettings::default());
        assert!(matches!(
            run_sharded_mean(&vs, &cfg, 2, 0),
            Err(FedError::InvalidConfig(_))
        ));
    }

    #[test]
    fn more_shards_than_clients_degrades_gracefully() {
        let vs = values(5, 10);
        let out = run_sharded_mean(&vs, &config(4), 64, 1).unwrap();
        assert_eq!(out.shards, 5);
        assert_eq!(out.contacted, 5);
    }
}
