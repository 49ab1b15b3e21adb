//! Sharded coordinator: one round, K independent event schedules.
//!
//! At a million clients a single event queue serializes the whole fleet
//! through one heap. The sharded coordinator instead partitions the
//! population into K contiguous shards, runs the full collect state machine
//! per shard over its own [`InMemoryTransport`] — each with its own seeded
//! scheduler and RNG stream, so shards are independently deterministic and
//! reorderable — then merges the per-bit tallies and traffic at publish and
//! finishes the estimate once, globally.
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
use rand::rngs::StdRng;
use rand::SeedableRng;

use fednum_fedsim::error::FedError;
use fednum_fedsim::round::{check_cohort, collect, finish, FederatedMeanConfig};
use fednum_fedsim::traffic::TrafficStats;
use fednum_fedsim::validation::RejectionCounts;

use crate::coordinator::{record_publish, Session};
use crate::net::InMemoryTransport;
use crate::scheduler::mix;

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
    /// Faults injected, summed across shards.
    pub faults_injected: u64,
    /// Per-phase, per-direction message and byte totals, merged.
    pub traffic: TrafficStats,
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
    let bits = codec.bits();
    let (codes, clip_fraction) = codec.encode_all(values);

    let mut ones = vec![0u64; bits as usize];
    let mut counts = vec![0u64; bits as usize];
    let mut contacted = 0usize;
    let mut waves_used = 0u32;
    let mut completion_time: f64 = 0.0;
    let mut rejections = RejectionCounts::default();
    let mut faults_injected = 0u64;
    let mut traffic = TrafficStats::new();

    for (s, (start, len)) in partition(codes.len(), shards).enumerate() {
        let slice = &codes[start..start + len];
        let mut rng = StdRng::seed_from_u64(mix(seed ^ s as u64));
        let mut transport = InMemoryTransport::new(mix(seed ^ (s as u64) ^ 0xA24B_AED4_963E_E407));
        let mut session = Session::open(&mut transport, config, batched, start as u64);
        let st = collect(slice, config, start as u64, None, &mut session, &mut rng)?;
        for j in 0..bits as usize {
            ones[j] += st.ones[j];
            counts[j] += st.counts[j];
        }
        contacted += st.contacts.len();
        waves_used = waves_used.max(st.waves_used);
        completion_time = completion_time.max(st.completion_time + st.backoff_time);
        rejections.absorb(&st.rejections);
        faults_injected += st.faults_injected;
        traffic.merge(&session.into_traffic());
    }

    let total_reports: u64 = counts.iter().sum();
    let reporters = contacted_reporters(total_reports, contacted);
    check_cohort(total_reports, reporters, config)?;
    let outcome = finish(config, &ones, counts, clip_fraction, 0, waves_used).outcome;

    record_publish(
        &mut traffic,
        config.session_seed,
        outcome.estimate,
        total_reports,
    );

    Ok(ShardedOutcome {
        outcome,
        shards,
        contacted,
        reports: total_reports,
        waves_used,
        completion_time,
        rejections,
        faults_injected,
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
        let mut t = InMemoryTransport::new(mix(5 ^ 0xA24B_AED4_963E_E407));
        let mut rng = StdRng::seed_from_u64(mix(5));
        let (single, _) = run_session(&vs, &cfg, None, &mut t, None, &mut rng, false).unwrap();
        assert_eq!(sharded.outcome.estimate, single.outcome.estimate);
        assert_eq!(sharded.reports, single.reports);
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
