//! Property tests on the machinery around the bit-pushing rounds (the
//! rounds' own properties live with the round driver in `fednum-fedsim`).

use fednum_core::encoding::FixedPointCodec;
use fednum_core::privacy::RandomizedResponse;
use fednum_core::quantile::{QuantileConfig, QuantileEstimator};
use fednum_core::wire::ReportMessage;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Quantile bracket always contains a value whose empirical rank is
    /// near q, and the bracket never inverts.
    #[test]
    fn quantile_bracket_sane(
        q in 0.05f64..0.95,
        seed in any::<u64>(),
        spread in 10u64..1000,
    ) {
        let values: Vec<f64> = (0..20_000).map(|i| (i as u64 % spread) as f64).collect();
        let est = QuantileEstimator::new(QuantileConfig::new(FixedPointCodec::integer(10), q));
        let mut rng = StdRng::seed_from_u64(seed);
        let out = est.run(&values, &mut rng);
        prop_assert!(out.bracket.0 <= out.bracket.1);
        prop_assert!(out.estimate >= 0.0 && out.estimate <= 1023.0);
        // Rank check with generous sampling slack.
        let below = values.iter().filter(|&&v| v <= out.estimate).count() as f64
            / values.len() as f64;
        prop_assert!((below - q).abs() < 0.15, "rank {below} target {q}");
    }

    /// Debiased DP estimates stay unbiased for arbitrary ε: averaging many
    /// debiased flips of a fixed bit recovers the bit.
    #[test]
    fn rr_protocol_debias_centers(eps in 0.3f64..6.0, bit in any::<bool>(), seed in any::<u64>()) {
        let rr = RandomizedResponse::from_epsilon(eps);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 60_000;
        let mean: f64 = (0..n)
            .map(|_| rr.debias(rr.flip(bit, &mut rng)))
            .sum::<f64>() / f64::from(n);
        let target = f64::from(u8::from(bit));
        // Tolerance scales with the RR noise at this ε.
        let tol = 6.0 * (rr.fixed_bit_variance() / f64::from(n)).sqrt() + 0.01;
        prop_assert!((mean - target).abs() < tol, "mean {mean} target {target} tol {tol}");
    }

    /// Wire format: arbitrary messages round-trip.
    #[test]
    fn wire_round_trip(
        task_id in any::<u64>(),
        reports in prop::collection::vec((any::<u8>(), any::<bool>()), 0..64),
    ) {
        let msg = ReportMessage { task_id, reports };
        prop_assert_eq!(ReportMessage::decode(&msg.encode()).unwrap(), msg);
    }
}
