//! Multi-feature aggregation with one bit per client *total*.
//!
//! The conclusions note that "in settings where each client sends multiple
//! bits, or reveals information about multiple features, the communication
//! benefits become more apparent" (Section 5). This module estimates the
//! means of `d` features simultaneously while each client still discloses a
//! single bit of a single feature: the server first apportions clients to
//! features (QMC, optionally weighted), then runs a synchronous bit-pushing
//! round inside each feature cohort.

use fednum_core::encoding::FixedPointCodec;
use fednum_core::privacy::squash::BitSquash;
use fednum_core::privacy::RandomizedResponse;
use fednum_core::protocol::basic::{BasicConfig, Outcome};
use fednum_core::sampling::{AssignmentMode, BitSampling};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::round::FederatedMeanConfig;

/// Per-feature protocol description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureSpec {
    /// Display name.
    pub name: String,
    /// The feature's bit-pushing round configuration.
    pub protocol: BasicConfig,
    /// Relative share of clients this feature receives (need not be
    /// normalized).
    pub weight: f64,
}

impl FeatureSpec {
    /// Creates a spec with weight 1.
    #[must_use]
    pub fn new(name: impl Into<String>, protocol: BasicConfig) -> Self {
        Self {
            name: name.into(),
            protocol,
            weight: 1.0,
        }
    }

    /// Overrides the client-share weight.
    ///
    /// # Panics
    /// Panics unless `weight > 0`.
    #[must_use]
    pub fn with_weight(mut self, weight: f64) -> Self {
        assert!(weight > 0.0 && weight.is_finite(), "weight must be > 0");
        self.weight = weight;
        self
    }
}

/// Result for one feature.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureOutcome {
    /// Feature name.
    pub name: String,
    /// Cohort size this feature received.
    pub cohort: usize,
    /// The bit-pushing outcome.
    pub outcome: Outcome,
}

/// Aggregates `d` features, one disclosed bit per client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiFeatureBitPushing {
    features: Vec<FeatureSpec>,
}

impl MultiFeatureBitPushing {
    /// Creates the aggregator.
    ///
    /// # Panics
    /// Panics if `features` is empty.
    #[must_use]
    pub fn new(features: Vec<FeatureSpec>) -> Self {
        assert!(!features.is_empty(), "need at least one feature");
        Self { features }
    }

    /// Convenience: `d` features sharing one protocol configuration and
    /// equal weights.
    #[must_use]
    pub fn uniform(names: &[&str], protocol: BasicConfig) -> Self {
        Self::new(
            names
                .iter()
                .map(|&n| FeatureSpec::new(n, protocol.clone()))
                .collect(),
        )
    }

    /// Number of features.
    #[must_use]
    pub fn feature_count(&self) -> usize {
        self.features.len()
    }

    /// Runs the aggregation. `columns[f][i]` is client `i`'s value for
    /// feature `f`; every column must have one value per client.
    ///
    /// # Panics
    /// Panics on column-count/length mismatches, when some feature's
    /// cohort would be empty, or on a round error.
    pub fn run(&self, columns: &[Vec<f64>], rng: &mut dyn Rng) -> Vec<FeatureOutcome> {
        assert_eq!(columns.len(), self.features.len(), "one column per feature");
        let n = columns[0].len();
        assert!(n > 0, "need at least one client");
        assert!(
            columns.iter().all(|c| c.len() == n),
            "all feature columns must have the same length"
        );

        // Apportion clients to features by weight (largest remainder), then
        // a random matching of who serves which feature.
        let weights: Vec<f64> = self.features.iter().map(|f| f.weight).collect();
        let feature_sampling = BitSampling::custom(weights);
        let assignment = feature_sampling.assign_qmc(n, rng);
        assert!(
            self.features.len() <= 52,
            "at most 52 features per aggregation"
        );

        let mut outcomes = Vec::with_capacity(self.features.len());
        for (f, spec) in self.features.iter().enumerate() {
            let cohort: Vec<f64> = assignment
                .iter()
                .enumerate()
                .filter(|(_, &a)| a as usize == f)
                .map(|(i, _)| columns[f][i])
                .collect();
            assert!(
                !cohort.is_empty(),
                "feature '{}' received no clients; increase n or its weight",
                spec.name
            );
            let outcome = FederatedMeanConfig::new(spec.protocol.clone())
                .run_pooled(&cohort, rng)
                .unwrap_or_else(|e| panic!("feature '{}': {e}", spec.name));
            outcomes.push(FeatureOutcome {
                name: spec.name.clone(),
                cohort: cohort.len(),
                outcome,
            });
        }
        outcomes
    }
}

/// Builds a standard per-feature config: `bits`-bit integer codec, geometric
/// sampling, optional shared privacy and squashing.
#[must_use]
pub fn standard_feature_config(
    bits: u32,
    gamma: f64,
    privacy: Option<RandomizedResponse>,
    squash: Option<BitSquash>,
) -> BasicConfig {
    let mut cfg = BasicConfig::new(
        FixedPointCodec::integer(bits),
        BitSampling::geometric(bits, gamma),
    )
    .with_assignment(AssignmentMode::CentralQmc);
    if let Some(rr) = privacy {
        cfg = cfg.with_privacy(rr);
    }
    if let Some(sq) = squash {
        cfg = cfg.with_squash(sq);
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn columns(n: usize) -> Vec<Vec<f64>> {
        vec![
            (0..n).map(|i| (i % 100) as f64).collect(),
            (0..n).map(|i| 200.0 + (i % 50) as f64).collect(),
            (0..n).map(|i| (i % 10) as f64).collect(),
        ]
    }

    fn truth(col: &[f64]) -> f64 {
        col.iter().sum::<f64>() / col.len() as f64
    }

    #[test]
    fn three_features_estimated_with_one_bit_each() {
        let n = 60_000;
        let cols = columns(n);
        let agg = MultiFeatureBitPushing::uniform(
            &["latency", "memory", "errors"],
            standard_feature_config(9, 1.0, None, None),
        );
        let mut rng = StdRng::seed_from_u64(1);
        let outcomes = agg.run(&cols, &mut rng);
        assert_eq!(outcomes.len(), 3);
        let total_reports: u64 = outcomes
            .iter()
            .map(|o| o.outcome.accumulator.total_reports())
            .sum();
        assert_eq!(total_reports, n as u64, "exactly one bit per client");
        for (o, col) in outcomes.iter().zip(&cols) {
            let t = truth(col);
            assert!(
                (o.outcome.estimate - t).abs() / t.max(1.0) < 0.1,
                "{}: est {} truth {t}",
                o.name,
                o.outcome.estimate
            );
        }
    }

    #[test]
    fn weights_skew_cohort_sizes() {
        let n = 10_000;
        let cols = columns(n);
        let cfg = standard_feature_config(9, 1.0, None, None);
        let agg = MultiFeatureBitPushing::new(vec![
            FeatureSpec::new("a", cfg.clone()).with_weight(3.0),
            FeatureSpec::new("b", cfg.clone()),
            FeatureSpec::new("c", cfg),
        ]);
        let mut rng = StdRng::seed_from_u64(2);
        let outcomes = agg.run(&cols, &mut rng);
        assert_eq!(outcomes[0].cohort, 6000);
        assert_eq!(outcomes[1].cohort, 2000);
        assert_eq!(outcomes[2].cohort, 2000);
    }

    #[test]
    fn privacy_applies_per_feature() {
        let n = 90_000;
        let cols = columns(n);
        let rr = RandomizedResponse::from_epsilon(2.0);
        let agg = MultiFeatureBitPushing::uniform(
            &["a", "b", "c"],
            standard_feature_config(9, 2.0, Some(rr), None),
        );
        let mut rng = StdRng::seed_from_u64(3);
        let outcomes = agg.run(&cols, &mut rng);
        for (o, col) in outcomes.iter().zip(&cols) {
            let t = truth(col);
            // DP noise at eps=2 over ~30k-client cohorts in a 9-bit domain
            // leaves absolute errors of a few units on small-magnitude
            // features (the RR variance is independent of the bit means).
            assert!(
                (o.outcome.estimate - t).abs() < 0.5 * t.max(20.0),
                "{}: est {} truth {t}",
                o.name,
                o.outcome.estimate
            );
        }
    }

    #[test]
    #[should_panic(expected = "one column per feature")]
    fn rejects_column_mismatch() {
        let agg = MultiFeatureBitPushing::uniform(
            &["a", "b"],
            standard_feature_config(4, 1.0, None, None),
        );
        let mut rng = StdRng::seed_from_u64(0);
        let _ = agg.run(&[vec![1.0]], &mut rng);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn rejects_ragged_columns() {
        let agg = MultiFeatureBitPushing::uniform(
            &["a", "b"],
            standard_feature_config(4, 1.0, None, None),
        );
        let mut rng = StdRng::seed_from_u64(0);
        let _ = agg.run(&[vec![1.0, 2.0], vec![1.0]], &mut rng);
    }
}
