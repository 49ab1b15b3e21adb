//! Hierarchy configuration and per-instance seed derivation.

use fednum_fedsim::error::FedError;
use fednum_fedsim::round::SecAggSettings;
use fednum_secagg::instance_seed;

/// Tier tag for per-shard secagg instances in [`instance_seed`] derivation.
pub const TIER_SHARD: u32 = 1;
/// Tier tag for the cross-shard merge instance.
pub const TIER_MERGE: u32 = 2;
/// Tier tag for a shard's straggler-salvage instance: the follow-up
/// aggregation over re-admitted late reporters must derive its own key
/// graph, never reusing shares from the shard's base (possibly aborted)
/// instance.
pub const TIER_SALVAGE_SHARD: u32 = 3;
/// Tier tag for the salvage merge instance over recovered shard sums.
pub const TIER_SALVAGE_MERGE: u32 = 4;

/// Parameters of a two-tier secure-aggregation hierarchy: K per-shard
/// instances feeding one merge instance among the K shard aggregators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierSecConfig {
    /// Number of shards K (and of shard-aggregator parties in the merge).
    pub shards: usize,
    /// Shard-tier settings: Shamir threshold as a fraction of each shard's
    /// cohort, and the pairwise-mask graph degree within a shard.
    pub shard: SecAggSettings,
    /// Shamir threshold of the merge instance: how many of the K shard
    /// aggregators must survive unmasking.
    pub merge_threshold: usize,
    /// Parent session seed; every tier/shard instance derives its own
    /// independent seed (and with it key graph) from this.
    pub session_seed: u64,
}

impl HierSecConfig {
    /// Validating constructor.
    ///
    /// # Errors
    /// [`FedError::InvalidConfig`] unless `shards >= 2`,
    /// `1 <= merge_threshold <= shards`, and
    /// `0 < shard.threshold_fraction <= 1` (which guarantees every
    /// per-shard threshold stays within its shard's cohort size).
    pub fn try_new(
        shards: usize,
        shard: SecAggSettings,
        merge_threshold: usize,
        session_seed: u64,
    ) -> Result<Self, FedError> {
        if shards < 2 {
            return Err(FedError::InvalidConfig(format!(
                "hierarchical secagg needs K >= 2 shards, got {shards}"
            )));
        }
        if merge_threshold < 1 || merge_threshold > shards {
            return Err(FedError::InvalidConfig(format!(
                "merge threshold must be in 1..=K={shards}, got {merge_threshold}"
            )));
        }
        if !(shard.threshold_fraction > 0.0 && shard.threshold_fraction <= 1.0) {
            return Err(FedError::InvalidConfig(format!(
                "per-shard threshold fraction must be in (0, 1] so the \
                 threshold cannot exceed the shard cohort, got {}",
                shard.threshold_fraction
            )));
        }
        if shard.neighbors == Some(0) {
            return Err(FedError::InvalidConfig(
                "per-shard mask-graph degree must be >= 1".into(),
            ));
        }
        Ok(Self {
            shards,
            shard,
            merge_threshold,
            session_seed,
        })
    }

    /// Checks concrete shard cohort sizes against the hierarchy: exactly K
    /// of them, none empty (every per-shard threshold is within its cohort
    /// by [`SecAggSettings::threshold`]'s clamp).
    ///
    /// # Errors
    /// [`FedError::InvalidConfig`] on any violation.
    pub fn validate_cohorts(&self, sizes: &[usize]) -> Result<(), FedError> {
        if sizes.len() != self.shards {
            return Err(FedError::InvalidConfig(format!(
                "expected {} shard cohorts, got {}",
                self.shards,
                sizes.len()
            )));
        }
        for (s, &n) in sizes.iter().enumerate() {
            if n == 0 {
                return Err(FedError::InvalidConfig(format!("shard {s} has no clients")));
            }
        }
        Ok(())
    }

    /// Session seed of shard `s`'s secagg instance (its own key graph).
    #[must_use]
    pub fn shard_session(&self, s: usize) -> u64 {
        instance_seed(self.session_seed, TIER_SHARD, s as u64)
    }

    /// Session seed of the merge instance among the shard aggregators.
    #[must_use]
    pub fn merge_session(&self) -> u64 {
        instance_seed(self.session_seed, TIER_MERGE, 0)
    }

    /// Session seed of shard `s`'s straggler-salvage instance — independent
    /// of [`shard_session`](Self::shard_session) so re-admitted clients are
    /// masked under fresh key material.
    #[must_use]
    pub fn salvage_shard_session(&self, s: usize) -> u64 {
        instance_seed(self.session_seed, TIER_SALVAGE_SHARD, s as u64)
    }

    /// Session seed of the second merge instance over late-recovered shard
    /// sums — independent of [`merge_session`](Self::merge_session) for the
    /// same mask-freshness reason.
    #[must_use]
    pub fn salvage_merge_session(&self) -> u64 {
        instance_seed(self.session_seed, TIER_SALVAGE_MERGE, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settings() -> SecAggSettings {
        SecAggSettings {
            threshold_fraction: 0.5,
            neighbors: Some(8),
        }
    }

    #[test]
    fn try_new_accepts_sane_hierarchies() {
        let c = HierSecConfig::try_new(4, settings(), 3, 7).unwrap();
        assert_eq!(c.shards, 4);
        assert_eq!(c.merge_threshold, 3);
    }

    #[test]
    fn try_new_rejects_single_shard() {
        assert!(matches!(
            HierSecConfig::try_new(1, settings(), 1, 0),
            Err(FedError::InvalidConfig(_))
        ));
    }

    #[test]
    fn try_new_rejects_merge_threshold_above_k() {
        assert!(matches!(
            HierSecConfig::try_new(4, settings(), 5, 0),
            Err(FedError::InvalidConfig(_))
        ));
        assert!(matches!(
            HierSecConfig::try_new(4, settings(), 0, 0),
            Err(FedError::InvalidConfig(_))
        ));
    }

    #[test]
    fn try_new_rejects_threshold_fraction_above_cohort() {
        let bad = SecAggSettings {
            threshold_fraction: 1.5,
            neighbors: Some(8),
        };
        assert!(matches!(
            HierSecConfig::try_new(4, bad, 2, 0),
            Err(FedError::InvalidConfig(_))
        ));
        let zero = SecAggSettings {
            threshold_fraction: 0.0,
            neighbors: Some(8),
        };
        assert!(matches!(
            HierSecConfig::try_new(4, zero, 2, 0),
            Err(FedError::InvalidConfig(_))
        ));
    }

    #[test]
    fn shard_thresholds_stay_within_cohorts() {
        let c = HierSecConfig::try_new(3, settings(), 2, 1).unwrap();
        for n in 1..200 {
            let t = c.shard.threshold(n);
            assert!(t >= 1 && t <= n, "n={n} t={t}");
        }
        assert_eq!(c.shard.threshold(10), 5);
    }

    #[test]
    fn validate_cohorts_checks_count_and_emptiness() {
        let c = HierSecConfig::try_new(3, settings(), 2, 1).unwrap();
        assert!(c.validate_cohorts(&[5, 7, 9]).is_ok());
        assert!(c.validate_cohorts(&[5, 7]).is_err());
        assert!(c.validate_cohorts(&[5, 0, 9]).is_err());
    }

    #[test]
    fn instance_sessions_are_pairwise_distinct() {
        let c = HierSecConfig::try_new(8, settings(), 4, 99).unwrap();
        let mut seen = std::collections::HashSet::new();
        for s in 0..c.shards {
            assert!(seen.insert(c.shard_session(s)));
            assert!(seen.insert(c.salvage_shard_session(s)));
        }
        assert!(seen.insert(c.merge_session()));
        assert!(seen.insert(c.salvage_merge_session()));
        assert!(!seen.contains(&c.session_seed) || c.session_seed == 0);
    }
}
