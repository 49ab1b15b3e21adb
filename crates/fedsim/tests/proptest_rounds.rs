//! Property tests on the round orchestrator: conservation and fail-closed
//! invariants under arbitrary dropout and auto-adjustment settings.

use fednum_core::encoding::FixedPointCodec;
use fednum_core::protocol::basic::BasicConfig;
use fednum_core::sampling::BitSampling;
use fednum_fedsim::round::{run_round_impl, FederatedMeanConfig, FederatedOutcome, RoundError};
use fednum_fedsim::DropoutModel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// Stand-in for the removed free function; the property bodies
// below keep their original call shape.
fn run_federated_mean(
    values: &[f64],
    config: &FederatedMeanConfig,
    rng: &mut dyn Rng,
) -> Result<FederatedOutcome, RoundError> {
    run_round_impl(values, config, None, rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Conservation: contacted ≤ population, reports ≤ contacted, and the
    /// per-bit counts in the outcome sum to the reports.
    #[test]
    fn report_conservation(
        n in 10usize..3000,
        rate in 0.0f64..0.9,
        waves in 1u32..5,
        wave_fraction in 0.2f64..1.0,
        seed in any::<u64>(),
    ) {
        let dropout = if rate == 0.0 {
            DropoutModel::None
        } else {
            DropoutModel::bernoulli(rate)
        };
        let config = FederatedMeanConfig::new(BasicConfig::new(
            FixedPointCodec::integer(8),
            BitSampling::geometric(8, 1.0),
        ))
        .with_dropout(dropout)
        .with_auto_adjust(waves, 20, wave_fraction);
        let values: Vec<f64> = (0..n).map(|i| (i % 200) as f64).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        match run_federated_mean(&values, &config, &mut rng) {
            Ok(out) => {
                prop_assert!(out.contacted <= n);
                prop_assert!(out.reports <= out.contacted as u64);
                prop_assert_eq!(
                    out.outcome.accumulator.total_reports(),
                    out.reports
                );
                prop_assert!(out.waves_used >= 1 && out.waves_used <= waves);
                prop_assert!(out.outcome.estimate.is_finite());
                prop_assert!((0.0..=255.0 + 1e-9).contains(&out.outcome.estimate));
            }
            Err(RoundError::NoReports) => {
                // Only legitimate under dropout.
                prop_assert!(rate > 0.0);
            }
            Err(e) => prop_assert!(false, "unexpected error {e:?}"),
        }
    }

    /// Without dropout, every contacted client reports — the one-bit
    /// worst-case promise holds through the orchestrator.
    #[test]
    fn no_dropout_means_full_participation(
        n in 5usize..2000,
        gamma in 0.0f64..2.0,
        seed in any::<u64>(),
    ) {
        let config = FederatedMeanConfig::new(BasicConfig::new(
            FixedPointCodec::integer(10),
            BitSampling::geometric(10, gamma),
        ));
        let values: Vec<f64> = (0..n).map(|i| (i % 900) as f64).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let out = run_federated_mean(&values, &config, &mut rng).unwrap();
        prop_assert_eq!(out.contacted, n);
        prop_assert_eq!(out.reports, n as u64);
    }
}
