//! Nonlinear aggregates via bit-pushing (Section 3.4 "Other functions, e.g.,
//! higher moments, products and geometric means, can also be approximated
//! via bit-pushing").
//!
//! Every reduction here turns a nonlinear aggregate into one or more *mean*
//! estimations of locally derived values, so any [`MeanMechanism`] — basic
//! or adaptive bit-pushing, or a baseline — can serve as the engine.

use fednum_core::protocol::MeanMechanism;
use rand::Rng;

/// Estimates the `k`-th raw moment `E[X^k]`: clients locally raise their
/// value to the `k`-th power, then the mechanism estimates the mean of the
/// derived values. The mechanism's codec must span the `k`-th-power domain
/// (`k·b` bits for `b`-bit nonnegative inputs).
///
/// # Panics
/// Panics if `k == 0` or `values` is empty.
pub fn raw_moment<M: MeanMechanism>(
    values: &[f64],
    k: u32,
    mechanism: &M,
    rng: &mut dyn Rng,
) -> f64 {
    assert!(k >= 1, "moment order must be >= 1");
    assert!(!values.is_empty(), "need at least one value");
    let powered: Vec<f64> = values.iter().map(|&x| x.powi(k as i32)).collect();
    mechanism.estimate_mean(&powered, rng)
}

/// Estimates the geometric mean `(Π x_i)^{1/n} = exp(mean(ln x))`: clients
/// locally take logarithms, the mechanism estimates the mean in log domain,
/// and the server exponentiates. The mechanism's codec must span the
/// log-domain range (use [`fednum_core::FixedPointCodec::spanning`]).
///
/// # Panics
/// Panics if any value is non-positive or `values` is empty.
pub fn geometric_mean<M: MeanMechanism>(values: &[f64], mechanism: &M, rng: &mut dyn Rng) -> f64 {
    log_mean(values, mechanism, rng).exp()
}

/// Estimates the log of the product `ln Π x_i = n · mean(ln x)` — returned
/// in log domain because the product itself overflows for any realistic
/// population.
///
/// # Panics
/// Panics if any value is non-positive or `values` is empty.
pub fn log_product<M: MeanMechanism>(values: &[f64], mechanism: &M, rng: &mut dyn Rng) -> f64 {
    values.len() as f64 * log_mean(values, mechanism, rng)
}

fn log_mean<M: MeanMechanism>(values: &[f64], mechanism: &M, rng: &mut dyn Rng) -> f64 {
    assert!(!values.is_empty(), "need at least one value");
    assert!(
        values.iter().all(|&x| x > 0.0),
        "log-domain aggregates require positive values"
    );
    let logs: Vec<f64> = values.iter().map(|&x| x.ln()).collect();
    mechanism.estimate_mean(&logs, rng)
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

    fn bitpush_int(bits: u32) -> FederatedMeanConfig {
        FederatedMeanConfig::new(BasicConfig::new(
            FixedPointCodec::integer(bits),
            BitSampling::geometric(bits, 1.0),
        ))
    }

    fn bitpush_span(bits: u32, lo: f64, hi: f64) -> FederatedMeanConfig {
        FederatedMeanConfig::new(BasicConfig::new(
            FixedPointCodec::spanning(bits, lo, hi),
            BitSampling::geometric(bits, 1.0),
        ))
    }

    #[test]
    fn second_raw_moment() {
        let values: Vec<f64> = (0..50_000).map(|i| (i % 100) as f64).collect();
        let truth = values.iter().map(|v| v * v).sum::<f64>() / values.len() as f64;
        // Squares < 10000 → 14 bits.
        let mech = bitpush_int(14);
        let mut rng = StdRng::seed_from_u64(1);
        let est = raw_moment(&values, 2, &mech, &mut rng);
        assert!((est / truth - 1.0).abs() < 0.1, "est {est} truth {truth}");
    }

    #[test]
    fn third_raw_moment() {
        let values: Vec<f64> = (0..50_000).map(|i| (i % 20) as f64).collect();
        let truth = values.iter().map(|v| v.powi(3)).sum::<f64>() / values.len() as f64;
        // Cubes < 8000 → 13 bits.
        let mech = bitpush_int(13);
        let mut rng = StdRng::seed_from_u64(2);
        let est = raw_moment(&values, 3, &mech, &mut rng);
        assert!((est / truth - 1.0).abs() < 0.1, "est {est} truth {truth}");
    }

    #[test]
    fn first_moment_is_the_mean() {
        let values: Vec<f64> = (0..20_000).map(|i| (i % 200) as f64).collect();
        let truth = values.iter().sum::<f64>() / values.len() as f64;
        let mech = bitpush_int(8);
        let mut rng = StdRng::seed_from_u64(3);
        let est = raw_moment(&values, 1, &mech, &mut rng);
        assert!((est / truth - 1.0).abs() < 0.05);
    }

    #[test]
    fn geometric_mean_of_lognormal_like_data() {
        // Values in [1, e^5]: logs uniform in [0, 5].
        let values: Vec<f64> = (0..40_000)
            .map(|i| ((i % 1000) as f64 / 999.0 * 5.0).exp())
            .collect();
        let truth = (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp();
        let mech = bitpush_span(12, 0.0, 5.0);
        let mut rng = StdRng::seed_from_u64(4);
        let est = geometric_mean(&values, &mech, &mut rng);
        assert!((est / truth - 1.0).abs() < 0.1, "est {est} truth {truth}");
    }

    #[test]
    fn log_product_scales_with_n() {
        let values = vec![2.0; 1000];
        // ln Π = 1000 ln 2.
        let mech = bitpush_span(10, 0.0, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let est = log_product(&values, &mech, &mut rng);
        let truth = 1000.0 * 2.0f64.ln();
        assert!((est / truth - 1.0).abs() < 0.01, "est {est} truth {truth}");
    }

    #[test]
    #[should_panic(expected = "positive values")]
    fn geometric_mean_rejects_zero() {
        let mech = bitpush_int(4);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = geometric_mean(&[1.0, 0.0], &mech, &mut rng);
    }

    #[test]
    #[should_panic(expected = "moment order")]
    fn raw_moment_rejects_zero_order() {
        let mech = bitpush_int(4);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = raw_moment(&[1.0], 0, &mech, &mut rng);
    }
}
