//! Property tests: for *any* dropout plan and either mask graph, the
//! protocol either outputs the exact sum of the contributing clients or
//! fails closed — never a wrong sum.

use std::collections::BTreeSet;

use fednum_core::bits::BitPlanes;
use fednum_secagg::protocol::{
    run_secure_aggregation, run_secure_aggregation_planes, DropoutPlan, SecAggConfig, SecAggError,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn expected_sum(inputs: &[Vec<u64>], excluded: &BTreeSet<usize>) -> Vec<u64> {
    let len = inputs[0].len();
    let mut sum = vec![0u64; len];
    for (i, v) in inputs.iter().enumerate() {
        if !excluded.contains(&i) {
            for (s, &x) in sum.iter_mut().zip(v) {
                *s += x;
            }
        }
    }
    sum
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Complete graph: exact sum or loud failure under arbitrary dropouts.
    #[test]
    fn complete_graph_exact_or_fails_closed(
        n in 2usize..24,
        len in 1usize..6,
        threshold_frac in 0.3f64..0.9,
        seed in any::<u64>(),
        drop_bits in any::<u32>(),
    ) {
        let threshold = ((n as f64 * threshold_frac) as usize).clamp(1, n);
        let config = SecAggConfig::new(n, threshold, len, seed ^ 0xAB);
        let inputs: Vec<Vec<u64>> = (0..n)
            .map(|i| (0..len).map(|j| ((i * 13 + j * 7) % 97) as u64).collect())
            .collect();
        // Derive a dropout plan from the random bits: bit 2i = drop-before,
        // bit 2i+1 = drop-after (before wins).
        let mut plan = DropoutPlan::none();
        for i in 0..n.min(16) {
            if drop_bits >> (2 * i) & 1 == 1 {
                plan.before_masking.insert(i);
            } else if drop_bits >> (2 * i + 1) & 1 == 1 {
                plan.after_masking.insert(i);
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        match run_secure_aggregation(&config, &inputs, &plan, &mut rng) {
            Ok(out) => {
                prop_assert_eq!(out.sum, expected_sum(&inputs, &plan.before_masking));
                prop_assert_eq!(
                    out.contributors.len(),
                    n - plan.before_masking.len()
                );
            }
            Err(SecAggError::TooFewSurvivors { survivors, threshold: t }) => {
                // Failing closed is only legitimate when survivors really
                // are below the applicable threshold.
                prop_assert!(survivors < t);
            }
            Err(e) => prop_assert!(false, "unexpected error {e:?}"),
        }
    }

    /// Ring graph: same exactness property with a sparse mask graph.
    #[test]
    fn ring_graph_exact_or_fails_closed(
        n in 4usize..40,
        degree in 2usize..10,
        seed in any::<u64>(),
        drop_bits in any::<u32>(),
    ) {
        let config = SecAggConfig::new(n, n / 2, 3, seed ^ 0xCD).with_neighbors(degree);
        let inputs: Vec<Vec<u64>> = (0..n)
            .map(|i| vec![(i % 11) as u64, 1, (i % 3) as u64])
            .collect();
        let mut plan = DropoutPlan::none();
        for i in 0..n.min(32) {
            if drop_bits >> i & 1 == 1 {
                plan.before_masking.insert(i);
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        match run_secure_aggregation(&config, &inputs, &plan, &mut rng) {
            Ok(out) => {
                prop_assert_eq!(out.sum, expected_sum(&inputs, &plan.before_masking));
            }
            Err(SecAggError::TooFewSurvivors { survivors, threshold }) => {
                prop_assert!(survivors < threshold);
            }
            Err(e) => prop_assert!(false, "unexpected error {e:?}"),
        }
    }

    /// The two graphs agree whenever both succeed.
    #[test]
    fn graphs_agree(n in 4usize..20, seed in any::<u64>()) {
        let inputs: Vec<Vec<u64>> = (0..n).map(|i| vec![(i * i % 19) as u64]).collect();
        let full = SecAggConfig::new(n, 2, 1, 5);
        let ring = SecAggConfig::new(n, 2, 1, 5).with_neighbors(4);
        let a = run_secure_aggregation(&full, &inputs, &DropoutPlan::none(),
            &mut StdRng::seed_from_u64(seed)).unwrap();
        let b = run_secure_aggregation(&ring, &inputs, &DropoutPlan::none(),
            &mut StdRng::seed_from_u64(seed.wrapping_add(1))).unwrap();
        prop_assert_eq!(a.sum, b.sum);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Threshold boundary, complete graph: exactly `t` survivors at the
    /// unmask round reconstruct the exact sum; `t − 1` fail closed with
    /// `TooFewSurvivors` — never a panic, never a wrong sum.
    #[test]
    fn complete_graph_threshold_boundary_is_exact(
        n in 3usize..24,
        t_frac in 0.2f64..0.95,
        seed in any::<u64>(),
    ) {
        let threshold = ((n as f64 * t_frac).ceil() as usize).clamp(2, n - 1);
        let config = SecAggConfig::new(n, threshold, 2, seed ^ 0xEF);
        let inputs: Vec<Vec<u64>> = (0..n).map(|i| vec![i as u64, 1]).collect();

        // Exactly `threshold` clients alive at the unmask round: success,
        // and the after-masking droppers' inputs still count.
        let mut plan = DropoutPlan::none();
        for i in 0..(n - threshold) {
            plan.after_masking.insert(i);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let out = run_secure_aggregation(&config, &inputs, &plan, &mut rng)
            .expect("exactly t survivors must reconstruct");
        prop_assert_eq!(out.sum, expected_sum(&inputs, &BTreeSet::new()));

        // One fewer survivor: a typed failure, not a panic.
        plan.after_masking.insert(n - threshold);
        let mut rng = StdRng::seed_from_u64(seed);
        match run_secure_aggregation(&config, &inputs, &plan, &mut rng) {
            Err(SecAggError::TooFewSurvivors { survivors, threshold: th }) => {
                prop_assert_eq!(survivors, threshold - 1);
                prop_assert_eq!(th, threshold);
            }
            other => prop_assert!(false, "expected TooFewSurvivors, got {other:?}"),
        }
    }

    /// Threshold boundary, ring-neighbor graph. Share reconstruction there
    /// needs a majority of each neighborhood, so the droppers are spread
    /// evenly around the ring; the global threshold check still gives the
    /// exact `t` / `t − 1` boundary.
    #[test]
    fn ring_graph_threshold_boundary_is_exact(
        n in 12usize..40,
        seed in any::<u64>(),
    ) {
        let threshold = (n as f64 * 0.75).ceil() as usize;
        let config = SecAggConfig::new(n, threshold, 2, seed ^ 0xF1).with_neighbors(6);
        let inputs: Vec<Vec<u64>> = (0..n).map(|i| vec![(i % 7) as u64, 1]).collect();

        // Evenly spaced after-masking droppers, exactly `threshold` alive:
        // every 6-neighborhood keeps its share majority.
        let droppers = n - threshold;
        let mut plan = DropoutPlan::none();
        for j in 0..droppers {
            plan.after_masking.insert(j * n / droppers.max(1));
        }
        prop_assert_eq!(plan.after_masking.len(), droppers);
        let mut rng = StdRng::seed_from_u64(seed);
        let out = run_secure_aggregation(&config, &inputs, &plan, &mut rng)
            .expect("exactly t spread-out survivors must reconstruct");
        prop_assert_eq!(out.sum, expected_sum(&inputs, &BTreeSet::new()));

        // Drop one more (first index not already dropped): typed failure.
        let extra = (0..n).find(|i| !plan.after_masking.contains(i)).unwrap();
        plan.after_masking.insert(extra);
        let mut rng = StdRng::seed_from_u64(seed);
        match run_secure_aggregation(&config, &inputs, &plan, &mut rng) {
            Err(SecAggError::TooFewSurvivors { survivors, .. }) => {
                prop_assert_eq!(survivors, threshold - 1);
            }
            other => prop_assert!(false, "expected TooFewSurvivors, got {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The masked-popcount tally every round runs is the share-level
    /// protocol on the bit-pushing one-hot `[ones | counts]` vectors: the
    /// same `Ok(SecAggOutcome)` or the same `Err(SecAggError)`, for either
    /// mask graph, any threshold, any dropout plan (an inconsistent one
    /// included) and any mix of reporting and silent clients — silent ones
    /// inside the plan and outside it.
    #[test]
    fn plane_tally_equals_the_share_protocol_on_one_hot_vectors(
        clients in prop::collection::vec(any::<u16>(), 1..48),
        bits in 1usize..9,
        threshold_frac in 0.05f64..1.0,
        degree in 0usize..12,
        both_phases in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let n = clients.len();
        let threshold = ((n as f64 * threshold_frac).ceil() as usize).clamp(1, n);
        let mut config = SecAggConfig::new(n, threshold, 2 * bits, seed ^ 0x9A);
        if degree > 0 {
            config = config.with_neighbors(degree);
        }
        // Per client, from its random word: silent or reporting `sent` on
        // bit `j`, and independently alive / dropping before / after.
        let mut inputs = Vec::with_capacity(n);
        let mut planes = BitPlanes::new(bits as u32, n);
        let mut plan = DropoutPlan::none();
        for (i, &c) in clients.iter().enumerate() {
            let mut v = vec![0u64; 2 * bits];
            if c & 7 != 0 {
                let (j, sent) = (usize::from(c >> 3) % bits, c >> 8 & 1 == 1);
                v[j] = u64::from(sent);
                v[bits + j] = 1;
                planes.record(i, j as u32, sent);
            }
            inputs.push(v);
            match (c >> 9) % 12 {
                0 | 1 => plan.before_masking.insert(i),
                2 | 3 => plan.after_masking.insert(i),
                _ => false,
            };
        }
        if both_phases < 24 {
            let i = usize::from(both_phases) % n;
            plan.before_masking.insert(i);
            plan.after_masking.insert(i);
        }
        let shares = run_secure_aggregation(&config, &inputs, &plan, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(run_secure_aggregation_planes(&config, &planes, &plan), shares);
    }
}
