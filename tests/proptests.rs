//! Property-based tests on the workspace's core invariants.

use fednum::core::accumulator::BitAccumulator;
use fednum::core::bits::{bit_f64, exact_bit_means, reconstruct};
use fednum::core::encoding::FixedPointCodec;
use fednum::core::privacy::RandomizedResponse;
use fednum::core::sampling::BitSampling;
use fednum::fedsim::FederatedMeanConfig;
use fednum::ldp::ValueRange;
use fednum::secagg::field::{Fe, MODULUS};
use fednum::secagg::shamir::{reconstruct as shamir_reconstruct, share};
use fednum::{BatchReportMessage, BitPlanes};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

proptest! {
    /// Codec: encode∘decode is the identity on representable integers.
    #[test]
    fn codec_round_trips_integers(bits in 1u32..=32, v in 0u64..=u32::MAX as u64) {
        let codec = FixedPointCodec::integer(bits);
        let v = v & codec.max_encoded();
        prop_assert_eq!(codec.encode(v as f64), v);
        prop_assert_eq!(codec.decode(codec.encode(v as f64)), v as f64);
    }

    /// Codec: encoding is monotone (clipping preserves order).
    #[test]
    fn codec_is_monotone(bits in 2u32..=16, a in -1e6f64..1e6, b in -1e6f64..1e6) {
        let codec = FixedPointCodec::integer(bits);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(codec.encode(lo) <= codec.encode(hi));
    }

    /// Linear decomposition: per-bit means reconstruct the exact mean.
    #[test]
    fn bit_decomposition_is_linear(values in prop::collection::vec(0u64..4096, 1..200)) {
        let means = exact_bit_means(&values, 12);
        let truth = values.iter().sum::<u64>() as f64 / values.len() as f64;
        prop_assert!((reconstruct(&means) - truth).abs() < 1e-9);
    }

    /// Sampling: probabilities always normalize and apportionment sums to n.
    #[test]
    fn apportionment_sums_exactly(
        weights in prop::collection::vec(0.0f64..100.0, 1..20),
        n in 1usize..50_000,
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let sampling = BitSampling::custom(weights);
        prop_assert!((sampling.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let counts = sampling.apportion(n);
        prop_assert_eq!(counts.iter().sum::<usize>(), n);
        // Largest-remainder: every count within 1 of the exact share.
        for (j, &c) in counts.iter().enumerate() {
            let exact = sampling.probs()[j] * n as f64;
            prop_assert!((c as f64 - exact).abs() < 1.0 + 1e-9);
        }
    }

    /// Randomized response: debiasing inverts the report expectation for
    /// every p and bit value.
    #[test]
    fn rr_debias_identity(eps in 0.05f64..8.0, bit in any::<bool>()) {
        let rr = RandomizedResponse::from_epsilon(eps);
        let p = rr.p();
        let y = f64::from(u8::from(bit));
        let q = p * y + (1.0 - p) * (1.0 - y); // P(report = 1)
        let expectation = q * rr.debias(true) + (1.0 - q) * rr.debias(false);
        prop_assert!((expectation - y).abs() < 1e-9);
    }

    /// GF(2^61−1): field laws hold for arbitrary elements.
    #[test]
    fn field_laws(a in 0u64..MODULUS, b in 0u64..MODULUS, c in 0u64..MODULUS) {
        let (a, b, c) = (Fe::new(a), Fe::new(b), Fe::new(c));
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!((a * b) * c, a * (b * c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!(a + Fe::ZERO, a);
        prop_assert_eq!(a * Fe::ONE, a);
        prop_assert_eq!(a - a, Fe::ZERO);
    }

    /// Nonzero field elements have working inverses.
    #[test]
    fn field_inverse(a in 1u64..MODULUS) {
        let a = Fe::new(a);
        prop_assert_eq!(a * a.inv(), Fe::ONE);
    }

    /// Shamir: any k of n shares reconstruct the secret.
    #[test]
    fn shamir_round_trips(
        secret in 0u64..MODULUS,
        k in 1usize..6,
        extra in 0usize..5,
        seed in any::<u64>(),
        offset in 0usize..5,
    ) {
        let n = k + extra;
        let mut rng = StdRng::seed_from_u64(seed);
        let shares = share(Fe::new(secret), k, n, &mut rng);
        let start = offset % (n - k + 1);
        prop_assert_eq!(shamir_reconstruct(&shares[start..start + k]), Fe::new(secret));
    }

    /// Accumulator: merging is equivalent to recording everything in one.
    #[test]
    fn accumulator_merge_associative(
        reports in prop::collection::vec((0u32..8, 0.0f64..1.0), 1..100),
        at in 0usize..100,
    ) {
        let split = at % (reports.len() + 1);
        let mut whole = BitAccumulator::new(8);
        for &(j, v) in &reports {
            whole.record(j, v);
        }
        let mut left = BitAccumulator::new(8);
        for &(j, v) in &reports[..split] {
            left.record(j, v);
        }
        let mut right = BitAccumulator::new(8);
        for &(j, v) in &reports[split..] {
            right.record(j, v);
        }
        left.merge(&right);
        prop_assert_eq!(left.counts(), whole.counts());
        for (a, b) in left.sums().iter().zip(whole.sums()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// ValueRange: unit mapping round-trips inside the range.
    #[test]
    fn value_range_round_trip(lo in -1e6f64..1e6, width in 1e-3f64..1e6, t in 0.0f64..1.0) {
        let range = ValueRange::new(lo, lo + width);
        let x = range.from_unit(t);
        prop_assert!((range.to_unit(x) - t).abs() < 1e-6);
    }

    /// Bit extraction matches the arithmetic definition.
    #[test]
    fn bit_extraction_is_arithmetic(v in any::<u64>(), j in 0u32..52) {
        let expected = (v >> j) & 1;
        prop_assert_eq!(bit_f64(v, j), expected as f64);
    }

    /// Bit-plane packing: the `count_ones()` tally (`ones()` / `counts()`)
    /// equals the scalar one-report-at-a-time accumulation, and the masked
    /// variants equal the scalar tally restricted to kept slots — the
    /// invariant the batched aggregation path rests on.
    #[test]
    fn bit_planes_match_scalar_accumulation(
        bits in 1u32..=16,
        raw in prop::collection::vec((0u32..20, any::<bool>()), 1..200),
        mask_seed in any::<u64>(),
    ) {
        // j >= 16 marks a dropped-out slot (no report recorded).
        let reports: Vec<Option<(u32, bool)>> = raw
            .into_iter()
            .map(|(j, v)| (j < 16).then_some((j % bits, v)))
            .collect();
        let slots = reports.len();
        let mut planes = BitPlanes::new(bits, slots);
        let mut ones = vec![0u64; bits as usize];
        let mut counts = vec![0u64; bits as usize];
        for (slot, r) in reports.iter().enumerate() {
            if let Some((j, v)) = r {
                planes.record(slot, *j, *v);
                counts[*j as usize] += 1;
                if *v {
                    ones[*j as usize] += 1;
                }
            }
        }
        prop_assert_eq!(planes.ones(), ones);
        prop_assert_eq!(planes.counts(), counts);

        // Masked tally over a pseudo-random survivor bitmap.
        let mut rng = StdRng::seed_from_u64(mask_seed);
        let keep: Vec<u64> = (0..slots.div_ceil(64)).map(|_| rng.random::<u64>()).collect();
        let mut m_ones = vec![0u64; bits as usize];
        let mut m_counts = vec![0u64; bits as usize];
        for (slot, r) in reports.iter().enumerate() {
            if (keep[slot / 64] >> (slot % 64)) & 1 == 0 {
                continue;
            }
            if let Some((j, v)) = r {
                m_counts[*j as usize] += 1;
                if *v {
                    m_ones[*j as usize] += 1;
                }
            }
        }
        prop_assert_eq!(planes.ones_masked(&keep), m_ones);
        prop_assert_eq!(planes.counts_masked(&keep), m_counts);
    }

    /// Merging planes is exactly slot concatenation, under any chunking:
    /// packing a report sequence chunk by chunk (zero-length and
    /// non-multiple-of-64 chunks included) and merging in order equals
    /// packing it in one shot, down to the encoded wire bytes.
    #[test]
    fn bit_planes_merge_is_concatenation(
        bits in 1u32..=8,
        reports in prop::collection::vec((0u32..10, any::<bool>()), 0..600),
        cuts in prop::collection::vec(0usize..200, 0..12),
    ) {
        // j >= 8 marks a dropped-out slot (no report recorded).
        let pack = |reports: &[(u32, bool)]| {
            let mut planes = BitPlanes::new(bits, reports.len());
            for (slot, &(j, v)) in reports.iter().enumerate() {
                if j < 8 {
                    planes.record(slot, j % bits, v);
                }
            }
            planes
        };
        let mut merged = BitPlanes::new(bits, 0);
        let mut rest = reports.as_slice();
        for cut in cuts {
            let (chunk, tail) = rest.split_at(cut.min(rest.len()));
            merged.merge(&pack(chunk));
            rest = tail;
        }
        merged.merge(&pack(rest));
        let whole = pack(&reports);
        prop_assert_eq!(&merged, &whole);
        let encode = |planes| BatchReportMessage { task_id: 7, planes }.encode();
        prop_assert_eq!(encode(merged), encode(whole));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Basic bit-pushing is exact for constant populations (all bit means
    /// deterministic) *provided every bit index receives at least one
    /// report* — guaranteed here by uniform sampling with `n ≥ bits`.
    /// (Bits with no reports default to mean 0, which is why skewed
    /// distributions need either enough clients or an adaptive first round.)
    #[test]
    fn constant_population_exact(v in 0u64..4096, seed in any::<u64>(), n in 24usize..500) {
        use fednum::core::protocol::basic::BasicConfig;
        let protocol = FederatedMeanConfig::new(BasicConfig::new(
            FixedPointCodec::integer(12),
            BitSampling::uniform(12),
        ));
        let values = vec![v as f64; n];
        let mut rng = StdRng::seed_from_u64(seed);
        let out = protocol.run_pooled(&values, &mut rng).unwrap();
        prop_assert!((out.estimate - v as f64).abs() < 1e-9);
    }

    /// With *any* sampling distribution, the constant-population estimate
    /// never exceeds the true value and misses exactly the weight of the
    /// unsampled one-bits.
    #[test]
    fn constant_population_underestimates_by_unsampled_bits(
        v in 0u64..4096,
        seed in any::<u64>(),
        n in 2usize..200,
    ) {
        use fednum::core::protocol::basic::BasicConfig;
        let protocol = FederatedMeanConfig::new(BasicConfig::new(
            FixedPointCodec::integer(12),
            BitSampling::geometric(12, 1.0),
        ));
        let values = vec![v as f64; n];
        let mut rng = StdRng::seed_from_u64(seed);
        let out = protocol.run_pooled(&values, &mut rng).unwrap();
        prop_assert!(out.estimate <= v as f64 + 1e-9);
        let missing: f64 = out
            .accumulator
            .counts()
            .iter()
            .enumerate()
            .filter(|(j, &c)| c == 0 && (v >> j) & 1 == 1)
            .map(|(j, _)| (1u64 << j) as f64)
            .sum();
        prop_assert!((out.estimate + missing - v as f64).abs() < 1e-9);
    }
}

/// Deterministic replay of the shrunk case recorded in
/// `tests/proptests.proptest-regressions` (`v = 945, seed = 0, n = 2`):
/// `ci.sh` runs this by name so the saved regression is exercised even in
/// environments where the proptest runner or its seed file is unavailable.
#[test]
fn regression_constant_population_v945_seed0_n2() {
    use fednum::core::protocol::basic::BasicConfig;
    let (v, seed, n) = (945u64, 0u64, 2usize);
    let protocol = FederatedMeanConfig::new(BasicConfig::new(
        FixedPointCodec::integer(12),
        BitSampling::geometric(12, 1.0),
    ));
    let values = vec![v as f64; n];
    let mut rng = StdRng::seed_from_u64(seed);
    let out = protocol.run_pooled(&values, &mut rng).unwrap();
    assert!(out.estimate <= v as f64 + 1e-9);
    let missing: f64 = out
        .accumulator
        .counts()
        .iter()
        .enumerate()
        .filter(|(j, &c)| c == 0 && (v >> j) & 1 == 1)
        .map(|(j, _)| (1u64 << j) as f64)
        .sum();
    assert!((out.estimate + missing - v as f64).abs() < 1e-9);
}
