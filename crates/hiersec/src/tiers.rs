//! The merge tier: the second secagg instance whose parties are the K
//! shard aggregators, plus the salvage merge over late-recovered shards.
//!
//! Failure semantics follow the hierarchy's trust boundaries. A shard whose
//! own instance cannot meet its Shamir threshold is *degraded*: its clients
//! are excluded from the round (never silently zero-filled — the shard
//! enters the merge tier as a `before_masking` dropout, so its placeholder
//! input is provably absent from the merged sum). The merge instance has no
//! such fallback: if fewer than `merge_threshold` shard aggregators
//! survive, the whole round aborts, because publishing a partial merge
//! would reveal which shards it covered.

use fednum_fedsim::error::FedError;
use fednum_secagg::{run_secure_aggregation, DropoutPlan, SecAggConfig};
use rand::Rng;
use std::collections::BTreeSet;

use crate::config::HierSecConfig;

/// Result of the merge instance over per-shard sums.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Component-wise sum over the included shards' sums.
    pub sum: Vec<u64>,
    /// Shards whose sums are included in `sum`.
    pub included_shards: Vec<usize>,
    /// Shards excluded because their tier-1 instance degraded.
    pub degraded_shards: Vec<usize>,
    /// Shard aggregators that survived the merge unmask round.
    pub survivors: usize,
}

/// Runs the merge instance: the K shard aggregators (one per shard) submit
/// their shard's sum; degraded shards (`None`) enter as `before_masking`
/// dropouts so their zero placeholders never reach the sum.
///
/// # Errors
/// [`FedError::InvalidConfig`] when `shard_sums.len() != K`;
/// [`FedError::SecAgg`] when the merge instance fails — including
/// `TooFewSurvivors`, which at this tier aborts the round rather than
/// degrading.
pub fn merge_shard_sums(
    config: &HierSecConfig,
    shard_sums: &[Option<Vec<u64>>],
    vector_len: usize,
    rng: &mut dyn Rng,
) -> Result<MergeOutcome, FedError> {
    if shard_sums.len() != config.shards {
        return Err(FedError::InvalidConfig(format!(
            "expected {} shard sums, got {}",
            config.shards,
            shard_sums.len()
        )));
    }
    let mut inputs = Vec::with_capacity(config.shards);
    let mut degraded_shards = Vec::new();
    let mut before_masking = BTreeSet::new();
    for (s, sum) in shard_sums.iter().enumerate() {
        match sum {
            Some(v) => inputs.push(v.clone()),
            None => {
                inputs.push(vec![0u64; vector_len]);
                degraded_shards.push(s);
                before_masking.insert(s);
            }
        }
    }
    let plan = DropoutPlan {
        before_masking,
        after_masking: BTreeSet::new(),
    };
    let sa = SecAggConfig::new(
        config.shards,
        config.merge_threshold,
        vector_len,
        config.merge_session(),
    );
    let out = run_secure_aggregation(&sa, &inputs, &plan, rng)?;
    let survivors = out.contributors.len();
    Ok(MergeOutcome {
        sum: out.sum,
        included_shards: out.contributors,
        degraded_shards,
        survivors,
    })
}

/// Runs the *salvage* merge instance: a fresh K'-party aggregation over the
/// sums of shards that missed the base merge cut but recovered late. Every
/// party is a coordinator-side shard aggregator holding a sum it just
/// produced, so the instance models no dropout and sets its Shamir
/// threshold to K' — either every recovered shard unmasks or the salvage
/// aborts (worst case: the base estimate stands, exactly as discard).
///
/// Mask freshness: the instance seed is
/// [`salvage_merge_session`](HierSecConfig::salvage_merge_session), derived
/// under its own tier tag, so its key graph is independent of the base
/// merge instance *and* of every aborted shard instance — no share or mask
/// from a failed base attempt is ever reused.
///
/// # Errors
/// [`FedError::InvalidConfig`] for fewer than two recovered shards (a
/// one-party "aggregate" would publish that shard's sum in the clear, which
/// the base merge's degradation semantics deliberately never do) or for
/// mismatched sum lengths; [`FedError::SecAgg`] when the instance fails.
pub fn merge_salvaged_shard_sums(
    config: &HierSecConfig,
    late: &[(usize, Vec<u64>)],
    vector_len: usize,
    rng: &mut dyn Rng,
) -> Result<MergeOutcome, FedError> {
    if late.len() < 2 {
        return Err(FedError::InvalidConfig(format!(
            "salvage merge needs >= 2 recovered shards, got {}",
            late.len()
        )));
    }
    if late.iter().any(|(_, v)| v.len() != vector_len) {
        return Err(FedError::InvalidConfig(
            "salvaged shard sum length mismatch".into(),
        ));
    }
    let inputs: Vec<Vec<u64>> = late.iter().map(|(_, v)| v.clone()).collect();
    let sa = SecAggConfig::new(
        late.len(),
        late.len(),
        vector_len,
        config.salvage_merge_session(),
    );
    let out = run_secure_aggregation(&sa, &inputs, &DropoutPlan::none(), rng)?;
    let survivors = out.contributors.len();
    Ok(MergeOutcome {
        sum: out.sum,
        included_shards: late.iter().map(|&(s, _)| s).collect(),
        degraded_shards: Vec::new(),
        survivors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fednum_fedsim::round::SecAggSettings;
    use fednum_secagg::SecAggError;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn settings() -> SecAggSettings {
        SecAggSettings {
            threshold_fraction: 0.5,
            neighbors: Some(4),
        }
    }

    /// Per-shard sums of seeded client inputs in the `[values | count]`
    /// layout the round merges: `values` entries, then the shard's client
    /// count, so the merged last slot counts contributors.
    fn shard_sums(sizes: &[usize], values: usize, seed: u64) -> Vec<Vec<u64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        sizes
            .iter()
            .map(|&n| {
                let mut sum = vec![0u64; values + 1];
                for _ in 0..n {
                    for acc in &mut sum[..values] {
                        *acc += rng.random_range(0..1000u64);
                    }
                }
                sum[values] = n as u64;
                sum
            })
            .collect()
    }

    fn plaintext_sum<'a>(sums: impl IntoIterator<Item = &'a Vec<u64>>, len: usize) -> Vec<u64> {
        let mut total = vec![0u64; len];
        for sum in sums {
            for (acc, v) in total.iter_mut().zip(sum) {
                *acc += v;
            }
        }
        total
    }

    #[test]
    fn two_tier_sum_matches_plaintext_without_dropouts() {
        let config = HierSecConfig::try_new(4, settings(), 3, 0xA11CE).unwrap();
        let sums = shard_sums(&[7, 5, 9, 6], 8, 42);
        let live: Vec<Option<Vec<u64>>> = sums.iter().cloned().map(Some).collect();
        let mut rng = StdRng::seed_from_u64(7);
        let out = merge_shard_sums(&config, &live, 9, &mut rng).unwrap();
        assert_eq!(out.sum, plaintext_sum(&sums, 9));
        assert_eq!(out.included_shards, vec![0, 1, 2, 3]);
        assert!(out.degraded_shards.is_empty());
        assert_eq!(out.sum[8], 27, "every client contributes");
    }

    #[test]
    fn below_threshold_shard_is_excluded_not_zero_filled() {
        let config = HierSecConfig::try_new(3, settings(), 2, 0xD00D).unwrap();
        let sums = shard_sums(&[6, 6, 6], 4, 5);
        // Shard 1 degraded at tier 1: it enters the merge as `None`.
        let merged = [Some(sums[0].clone()), None, Some(sums[2].clone())];
        let mut rng = StdRng::seed_from_u64(3);
        let out = merge_shard_sums(&config, &merged, 5, &mut rng).unwrap();
        assert_eq!(out.degraded_shards, vec![1]);
        assert_eq!(out.included_shards, vec![0, 2]);
        assert_eq!(out.survivors, 2, "the degraded shard is no merge party");
        assert_eq!(out.sum, plaintext_sum([&sums[0], &sums[2]], 5));
        assert_eq!(out.sum[4], 12, "no client of shard 1 is counted");
    }

    #[test]
    fn merge_below_threshold_aborts_the_round() {
        let config = HierSecConfig::try_new(4, settings(), 3, 0xFAB).unwrap();
        let sums = shard_sums(&[6, 6, 6, 6], 4, 8);
        // Two shards degraded: only 2 survive < merge threshold 3.
        let merged = [None, Some(sums[1].clone()), Some(sums[2].clone()), None];
        let mut rng = StdRng::seed_from_u64(11);
        let err = merge_shard_sums(&config, &merged, 5, &mut rng).unwrap_err();
        assert!(matches!(
            err,
            FedError::SecAgg(SecAggError::TooFewSurvivors {
                survivors: 2,
                threshold: 3
            })
        ));
    }

    #[test]
    fn merge_rejects_wrong_shard_count() {
        let config = HierSecConfig::try_new(3, settings(), 2, 0).unwrap();
        let sums = vec![Some(vec![1u64; 2]); 2];
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            merge_shard_sums(&config, &sums, 2, &mut rng),
            Err(FedError::InvalidConfig(_))
        ));
    }

    #[test]
    fn salvage_merge_recovers_the_plaintext_sum_of_late_shards() {
        let config = HierSecConfig::try_new(4, settings(), 3, 0xCAFE).unwrap();
        let late = vec![(1usize, vec![5u64, 7, 11]), (3usize, vec![2u64, 0, 9])];
        let mut rng = StdRng::seed_from_u64(21);
        let out = merge_salvaged_shard_sums(&config, &late, 3, &mut rng).unwrap();
        assert_eq!(out.sum, vec![7, 7, 20]);
        assert_eq!(out.included_shards, vec![1, 3]);
        assert!(out.degraded_shards.is_empty());
        assert_eq!(out.survivors, 2);
    }

    #[test]
    fn salvage_merge_rejects_a_single_shard_and_bad_lengths() {
        let config = HierSecConfig::try_new(3, settings(), 2, 0xF00).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            merge_salvaged_shard_sums(&config, &[(0, vec![1, 2])], 2, &mut rng),
            Err(FedError::InvalidConfig(_))
        ));
        let bad = vec![(0usize, vec![1u64, 2]), (1usize, vec![3u64])];
        assert!(matches!(
            merge_salvaged_shard_sums(&config, &bad, 2, &mut rng),
            Err(FedError::InvalidConfig(_))
        ));
    }

    #[test]
    fn salvage_merge_session_is_independent_of_the_base_merge() {
        let config = HierSecConfig::try_new(2, settings(), 2, 0x5EED).unwrap();
        assert_ne!(config.salvage_merge_session(), config.merge_session());
        for s in 0..config.shards {
            assert_ne!(config.salvage_shard_session(s), config.shard_session(s));
        }
    }

    #[test]
    fn single_client_shards_work() {
        let config = HierSecConfig::try_new(2, settings(), 2, 0x51).unwrap();
        let merged = [Some(vec![10, 20]), Some(vec![1, 2])];
        let mut rng = StdRng::seed_from_u64(1);
        let out = merge_shard_sums(&config, &merged, 2, &mut rng).unwrap();
        assert_eq!(out.sum, vec![11, 22]);
    }
}
