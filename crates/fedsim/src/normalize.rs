//! Federated feature normalization.
//!
//! "Having estimates of the mean and the variance immediately enables
//! *feature normalization* in federated learning" (Section 3.4). This
//! module packages that use case: estimate a feature's mean and standard
//! deviation privately, then normalize values *client-side* — the raw
//! feature never leaves the device at full precision.

use fednum_core::protocol::MeanMechanism;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::variance::VarianceViaCentered;

/// A fitted normalizer: `z = (x - mean) / std`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeatureNormalizer {
    /// Estimated feature mean.
    pub mean: f64,
    /// Estimated feature standard deviation (floored at a small positive
    /// value so constant features normalize to 0 instead of dividing by 0).
    pub std: f64,
}

impl FeatureNormalizer {
    /// Minimum standard deviation used in the denominator.
    pub const STD_FLOOR: f64 = 1e-9;

    /// Fits a normalizer by federated estimation: the mean from
    /// `mean_est`, the variance by the centered reduction of Lemma 3.5
    /// (`mean_est` doubles as the pilot, `dev_est` estimates the squared
    /// deviations; its codec must span the squared-deviation domain).
    ///
    /// # Panics
    /// Panics if fewer than two clients.
    pub fn fit<M, D>(values: &[f64], mean_est: &M, dev_est: &D, rng: &mut dyn Rng) -> Self
    where
        M: MeanMechanism + Clone,
        D: MeanMechanism + Clone,
    {
        assert!(values.len() >= 2, "need at least two clients");
        let mean = mean_est.estimate_mean(values, rng);
        let variance = VarianceViaCentered::new(mean_est.clone(), dev_est.clone())
            .estimate_variance(values, rng);
        Self {
            mean,
            std: variance.sqrt().max(Self::STD_FLOOR),
        }
    }

    /// Builds a normalizer from known statistics (e.g. a previous round's
    /// fit, broadcast to clients).
    ///
    /// # Panics
    /// Panics on non-finite statistics or negative std.
    #[must_use]
    pub fn from_stats(mean: f64, std: f64) -> Self {
        assert!(mean.is_finite() && std.is_finite() && std >= 0.0);
        Self {
            mean,
            std: std.max(Self::STD_FLOOR),
        }
    }

    /// Client-side normalization.
    #[must_use]
    pub fn normalize(&self, x: f64) -> f64 {
        (x - self.mean) / self.std
    }

    /// Inverse transform.
    #[must_use]
    pub fn denormalize(&self, z: f64) -> f64 {
        z * self.std + self.mean
    }

    /// Normalizes a whole column.
    #[must_use]
    pub fn normalize_all(&self, values: &[f64]) -> Vec<f64> {
        values.iter().map(|&x| self.normalize(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::FederatedMeanConfig;
    use fednum_core::encoding::FixedPointCodec;
    use fednum_core::protocol::basic::BasicConfig;
    use fednum_core::sampling::BitSampling;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bitpush(bits: u32) -> FederatedMeanConfig {
        FederatedMeanConfig::new(BasicConfig::new(
            FixedPointCodec::integer(bits),
            BitSampling::geometric(bits, 1.0),
        ))
    }

    #[test]
    fn fit_recovers_population_statistics() {
        // Values in [100, 300): mean 199.5, std ≈ 57.7.
        let values: Vec<f64> = (0..60_000).map(|i| 100.0 + (i % 200) as f64).collect();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
        let mut rng = StdRng::seed_from_u64(1);
        // Deviations² ≤ 100² → 14 bits.
        let norm = FeatureNormalizer::fit(&values, &bitpush(9), &bitpush(14), &mut rng);
        assert!((norm.mean / mean - 1.0).abs() < 0.03, "mean {}", norm.mean);
        assert!(
            (norm.std / var.sqrt() - 1.0).abs() < 0.1,
            "std {} vs {}",
            norm.std,
            var.sqrt()
        );
    }

    #[test]
    fn normalized_column_is_standardized() {
        let values: Vec<f64> = (0..40_000).map(|i| 50.0 + (i % 100) as f64).collect();
        let mut rng = StdRng::seed_from_u64(2);
        let norm = FeatureNormalizer::fit(&values, &bitpush(8), &bitpush(12), &mut rng);
        let z = norm.normalize_all(&values);
        let zm = z.iter().sum::<f64>() / z.len() as f64;
        let zv = z.iter().map(|v| (v - zm).powi(2)).sum::<f64>() / z.len() as f64;
        assert!(zm.abs() < 0.1, "normalized mean {zm}");
        assert!((zv - 1.0).abs() < 0.2, "normalized var {zv}");
    }

    #[test]
    fn round_trips() {
        let norm = FeatureNormalizer::from_stats(10.0, 2.0);
        for x in [0.0, 10.0, 13.5, -4.0] {
            assert!((norm.denormalize(norm.normalize(x)) - x).abs() < 1e-12);
        }
        assert_eq!(norm.normalize(12.0), 1.0);
    }

    #[test]
    fn constant_feature_does_not_divide_by_zero() {
        let norm = FeatureNormalizer::from_stats(5.0, 0.0);
        let z = norm.normalize(5.0);
        assert!(z.is_finite());
        assert_eq!(z, 0.0);
    }
}
