//! Property tests for the hierarchy's merge tier: random shard counts,
//! sizes and tier-1 dropout patterns.
//!
//! Invariants pinned here:
//! * whenever the merge tier meets its threshold, the merged masked sum is
//!   *exactly* the plaintext sum of the included shards' contributors;
//! * a shard below its own threshold enters the merge as `None` and is
//!   excluded from it — its clients' values never appear in the sum and
//!   its placeholder is never silently zero-filled into the contributor
//!   count;
//! * the merge tier below threshold aborts with a typed error rather than
//!   publishing a partial sum.

use fednum_fedsim::error::FedError;
use fednum_fedsim::round::SecAggSettings;
use fednum_hiersec::{merge_shard_sums, HierSecConfig};
use fednum_secagg::SecAggError;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const VECTOR_LEN: usize = 6;

/// One shard's tier-1 result: its clients' inputs and how many of them
/// dropped before (`before`) and after (`after`) masking.
struct Shard {
    inputs: Vec<Vec<u64>>,
    before: usize,
    after: usize,
}

impl Shard {
    /// The shard's sum over its contributors — everyone except the
    /// before-masking dropouts (a prefix of the cohort) — in the
    /// `[values | count]` layout the round merges.
    fn contributor_sum(&self) -> Vec<u64> {
        let mut sum = vec![0u64; VECTOR_LEN + 1];
        for input in &self.inputs[self.before..] {
            for (acc, v) in sum.iter_mut().zip(input) {
                *acc += v;
            }
        }
        sum[VECTOR_LEN] = (self.inputs.len() - self.before) as u64;
        sum
    }
}

/// Builds K shards with deterministic pseudo-random inputs and per-shard
/// before/after-masking dropout counts (disjoint, both capped at n).
fn build_shards(
    sizes: &[usize],
    drop_before: &[usize],
    drop_after: &[usize],
    seed: u64,
) -> Vec<Shard> {
    let mut rng = StdRng::seed_from_u64(seed);
    sizes
        .iter()
        .zip(drop_before.iter().zip(drop_after))
        .map(|(&n, (&db, &da))| {
            let inputs = (0..n)
                .map(|_| {
                    (0..VECTOR_LEN)
                        .map(|_| rng.random_range(0..10_000u64))
                        .collect()
                })
                .collect();
            let before = db.min(n);
            let after = da.min(n - before);
            Shard {
                inputs,
                before,
                after,
            }
        })
        .collect()
}

/// Plaintext sum of the given shards' contributor sums.
fn plaintext_sum(shards: &[Shard], included: &[usize]) -> Vec<u64> {
    let mut sum = vec![0u64; VECTOR_LEN + 1];
    for &s in included {
        for (acc, v) in sum.iter_mut().zip(shards[s].contributor_sum()) {
            *acc += v;
        }
    }
    sum
}

// Complete mask graphs make a shard's fate exactly predictable from its
// round-4 survivor count (per-client share threshold == global threshold).
fn settings() -> SecAggSettings {
    SecAggSettings {
        threshold_fraction: 0.5,
        neighbors: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random shard counts/sizes, no dropouts: merged sum == plaintext sum.
    #[test]
    fn merged_sum_equals_plaintext_sum(
        sizes in prop::collection::vec(2usize..10, 2..7),
        seed in 0u64..1_000,
    ) {
        let k = sizes.len();
        let config = HierSecConfig::try_new(k, settings(), k.div_ceil(2), seed ^ 0xC0FFEE).unwrap();
        let zeros = vec![0usize; k];
        let shards = build_shards(&sizes, &zeros, &zeros, seed);
        let sums: Vec<Option<Vec<u64>>> = shards.iter().map(|s| Some(s.contributor_sum())).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let out = merge_shard_sums(&config, &sums, VECTOR_LEN + 1, &mut rng).unwrap();
        let all: Vec<usize> = (0..k).collect();
        prop_assert_eq!(&out.sum, &plaintext_sum(&shards, &all));
        prop_assert_eq!(out.included_shards, all);
        prop_assert_eq!(out.sum[VECTOR_LEN], sizes.iter().sum::<usize>() as u64);
    }

    /// Random tier-1 dropout patterns: a shard below its threshold enters
    /// the merge as `None`. Whenever the merge tier stays at/above its
    /// threshold the merged sum equals the plaintext sum over surviving
    /// shards' contributors, and degraded shards are excluded outright.
    #[test]
    fn dropouts_exclude_rather_than_zero_fill(
        sizes in prop::collection::vec(4usize..12, 3..6),
        drops in prop::collection::vec(0usize..12, 3..6),
        after in prop::collection::vec(0usize..3, 3..6),
        seed in 0u64..1_000,
    ) {
        let k = sizes.len();
        let drops: Vec<usize> = (0..k).map(|i| drops[i % drops.len()]).collect();
        let after: Vec<usize> = (0..k).map(|i| after[i % after.len()]).collect();
        let config = HierSecConfig::try_new(k, settings(), k.div_ceil(2), seed ^ 0xFEED).unwrap();
        let shards = build_shards(&sizes, &drops, &after, seed);

        // Each shard's fate follows the protocol's survivor rule: round-3
        // survivors are everyone not dropped before/after masking, and the
        // instance degrades when they fall below the threshold.
        let mut live = Vec::new();
        let mut degraded = Vec::new();
        let mut sums = Vec::new();
        for (s, shard) in shards.iter().enumerate() {
            let n = shard.inputs.len();
            if n - shard.before - shard.after >= config.shard.threshold(n) {
                live.push(s);
                sums.push(Some(shard.contributor_sum()));
            } else {
                degraded.push(s);
                sums.push(None);
            }
        }

        let mut rng = StdRng::seed_from_u64(seed);
        let result = merge_shard_sums(&config, &sums, VECTOR_LEN + 1, &mut rng);
        if live.len() >= config.merge_threshold {
            let out = result.unwrap();
            prop_assert_eq!(&out.included_shards, &live);
            prop_assert_eq!(&out.degraded_shards, &degraded);
            prop_assert_eq!(&out.sum, &plaintext_sum(&shards, &live));
            // Degraded shards are excluded, not zero-filled: no client of a
            // degraded shard is counted as a contributor.
            let expected_contributors: usize = live
                .iter()
                .map(|&s| shards[s].inputs.len() - shards[s].before)
                .sum();
            prop_assert_eq!(out.sum[VECTOR_LEN], expected_contributors as u64);
        } else {
            // Merge tier under threshold: typed abort, never a partial sum.
            let aborted = matches!(
                result,
                Err(FedError::SecAgg(SecAggError::TooFewSurvivors { .. }))
            );
            prop_assert!(aborted);
        }
    }

    /// The salvage merge is exact arithmetic: over any ≥2 late shards the
    /// masked K'-party merge recovers precisely the plaintext sum of the
    /// re-admitted shard sums, under key material independent of the base
    /// merge (same parent seed, different tier tag).
    #[test]
    fn salvage_merge_recovers_exactly_the_late_sums(
        late_sums in prop::collection::vec(
            prop::collection::vec(0u64..50_000, VECTOR_LEN..VECTOR_LEN + 1),
            2..6,
        ),
        shard_ids in prop::collection::vec(0usize..32, 2..6),
        seed in 0u64..1_000,
    ) {
        use fednum_hiersec::merge_salvaged_shard_sums;
        let k = late_sums.len().min(shard_ids.len());
        let mut ids: Vec<usize> = shard_ids[..k].to_vec();
        ids.sort_unstable();
        ids.dedup();
        prop_assume!(ids.len() >= 2);
        let late: Vec<(usize, Vec<u64>)> = ids
            .iter()
            .zip(&late_sums)
            .map(|(&s, sum)| (s, sum.clone()))
            .collect();
        let config = HierSecConfig::try_new(
            ids.iter().max().unwrap() + 2,
            settings(),
            2,
            seed ^ 0x5A1,
        ).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let out = merge_salvaged_shard_sums(&config, &late, VECTOR_LEN, &mut rng).unwrap();
        let mut expected = vec![0u64; VECTOR_LEN];
        for (_, sum) in &late {
            for (acc, v) in expected.iter_mut().zip(sum) {
                *acc += v;
            }
        }
        prop_assert_eq!(&out.sum, &expected);
        prop_assert_eq!(&out.included_shards, &ids);
        prop_assert!(out.degraded_shards.is_empty());
    }
}
