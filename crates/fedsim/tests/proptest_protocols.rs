//! Property tests on the paper's two algorithms, run as rounds of the
//! federated driver on the synchronous carrier.

use fednum_core::encoding::FixedPointCodec;
use fednum_core::protocol::basic::BasicConfig;
use fednum_core::sampling::{AssignmentMode, BitSampling};
use fednum_fedsim::adaptive_round::{run_adaptive_impl, FederatedAdaptiveConfig};
use fednum_fedsim::round::FederatedMeanConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The one-bit invariant: report count equals client count, for any
    /// population, sampling exponent, and assignment mode.
    #[test]
    fn one_report_per_client(
        n in 1usize..2000,
        gamma in 0.0f64..2.0,
        seed in any::<u64>(),
        local in any::<bool>(),
    ) {
        let mode = if local { AssignmentMode::Local } else { AssignmentMode::CentralQmc };
        let protocol = FederatedMeanConfig::new(
            BasicConfig::new(FixedPointCodec::integer(10), BitSampling::geometric(10, gamma))
                .with_assignment(mode),
        );
        let values: Vec<f64> = (0..n).map(|i| (i % 700) as f64).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let out = protocol.run_pooled(&values, &mut rng).unwrap();
        prop_assert_eq!(out.accumulator.total_reports(), n as u64);
    }

    /// The estimate is always within the decodable range (no amplification
    /// beyond the domain), privacy off.
    #[test]
    fn estimate_within_domain(n in 2usize..800, seed in any::<u64>(), hi in 1u64..4000) {
        let protocol = FederatedMeanConfig::new(BasicConfig::new(
            FixedPointCodec::integer(12),
            BitSampling::uniform(12),
        ));
        let values: Vec<f64> = (0..n).map(|i| (i as u64 % hi.max(1)) as f64).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let out = protocol.run_pooled(&values, &mut rng).unwrap();
        prop_assert!(out.estimate >= 0.0);
        prop_assert!(out.estimate <= 4095.0 + 1e-9);
    }

    /// Adaptive never sends more total reports than clients, and pools
    /// exactly the two rounds.
    #[test]
    fn adaptive_report_budget(n in 8usize..1500, delta in 0.1f64..0.9, seed in any::<u64>()) {
        let protocol = FederatedAdaptiveConfig::new(FederatedMeanConfig::new(BasicConfig::new(
            FixedPointCodec::integer(8),
            BitSampling::geometric(8, 0.5),
        )))
        .with_delta(delta);
        let values: Vec<f64> = (0..n).map(|i| (i % 200) as f64).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let out = run_adaptive_impl(&values, &protocol, &mut rng).unwrap();
        let total = out.round1.outcome.accumulator.total_reports()
            + out.round2.outcome.accumulator.total_reports();
        prop_assert_eq!(total, n as u64);
    }

    /// Codec + protocol: clipping never produces an estimate above the
    /// clip bound even for wildly out-of-range inputs.
    #[test]
    fn clipping_is_a_hard_ceiling(seed in any::<u64>(), scale in 1.0f64..1e9) {
        let protocol = FederatedMeanConfig::new(BasicConfig::new(
            FixedPointCodec::integer(8),
            BitSampling::uniform(8),
        ));
        let values: Vec<f64> = (0..500).map(|i| i as f64 * scale).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let out = protocol.run_pooled(&values, &mut rng).unwrap();
        prop_assert!(out.estimate <= 255.0 + 1e-9);
        prop_assert!(out.clip_fraction > 0.0 || scale < 1.0);
    }
}
