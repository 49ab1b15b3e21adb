//! Integration tests of bit-pushing over the secure-aggregation substrate.

use fednum::core::bits::exact_bit_means;
use fednum::core::encoding::FixedPointCodec;
use fednum::core::sampling::BitSampling;
use fednum::secagg::protocol::{run_secure_aggregation, DropoutPlan, SecAggConfig, SecAggError};
use fednum::workloads::{Dataset, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds per-client one-hot [ones | counts] vectors for an assignment.
fn bitpush_inputs(codes: &[u64], assignment: &[u32], bits: u32) -> Vec<Vec<u64>> {
    codes
        .iter()
        .zip(assignment)
        .map(|(&code, &j)| {
            let mut v = vec![0u64; 2 * bits as usize];
            v[j as usize] = (code >> j) & 1;
            v[bits as usize + j as usize] = 1;
            v
        })
        .collect()
}

#[test]
fn securely_aggregated_histograms_match_plaintext() {
    let bits = 10u32;
    let codec = FixedPointCodec::integer(bits);
    let ds = Dataset::draw(&Uniform::new(0.0, 900.0), 300, 1);
    let (codes, _) = codec.encode_all(ds.values());
    let sampling = BitSampling::geometric(bits, 1.0);
    let mut rng = StdRng::seed_from_u64(2);
    let assignment = sampling.assign_qmc(codes.len(), &mut rng);
    let inputs = bitpush_inputs(&codes, &assignment, bits);

    let config = SecAggConfig::new(codes.len(), 150, 2 * bits as usize, 7);
    let out = run_secure_aggregation(&config, &inputs, &DropoutPlan::none(), &mut rng).unwrap();

    // Plaintext tally.
    let mut ones = vec![0u64; bits as usize];
    let mut counts = vec![0u64; bits as usize];
    for (i, &j) in assignment.iter().enumerate() {
        ones[j as usize] += (codes[i] >> j) & 1;
        counts[j as usize] += 1;
    }
    assert_eq!(&out.sum[..bits as usize], ones.as_slice());
    assert_eq!(&out.sum[bits as usize..], counts.as_slice());
}

#[test]
fn mean_reconstruction_from_secure_sums() {
    // Server-side: rebuild the estimate purely from the secure sums, and
    // compare against the exact bit-mean reconstruction on a full census.
    let bits = 8u32;
    let codec = FixedPointCodec::integer(bits);
    let ds = Dataset::draw(&Uniform::new(0.0, 250.0), 1000, 3);
    let (codes, _) = codec.encode_all(ds.values());

    // Every client reports every bit (uniform full census for exactness).
    let mut inputs = Vec::new();
    for &code in &codes {
        let mut v = vec![0u64; 2 * bits as usize];
        for j in 0..bits {
            v[j as usize] = (code >> j) & 1;
            v[bits as usize + j as usize] = 1;
        }
        inputs.push(v);
    }
    let config = SecAggConfig::new(codes.len(), 500, 2 * bits as usize, 11);
    let mut rng = StdRng::seed_from_u64(4);
    let out = run_secure_aggregation(&config, &inputs, &DropoutPlan::none(), &mut rng).unwrap();

    let means: Vec<f64> = (0..bits as usize)
        .map(|j| out.sum[j] as f64 / out.sum[bits as usize + j] as f64)
        .collect();
    let estimate = codec.decode_float(fednum::core::bits::reconstruct(&means));
    let exact = codec.decode_float(fednum::core::bits::reconstruct(&exact_bit_means(
        &codes, bits,
    )));
    assert!((estimate - exact).abs() < 1e-9);
}

#[test]
fn dropout_recovery_excludes_only_the_dropped() {
    let bits = 6u32;
    let codec = FixedPointCodec::integer(bits);
    let ds = Dataset::draw(&Uniform::new(0.0, 60.0), 100, 5);
    let (codes, _) = codec.encode_all(ds.values());
    let sampling = BitSampling::uniform(bits);
    let mut rng = StdRng::seed_from_u64(6);
    let assignment = sampling.assign_qmc(codes.len(), &mut rng);
    let inputs = bitpush_inputs(&codes, &assignment, bits);

    let plan = DropoutPlan {
        before_masking: [5usize, 17, 44].into_iter().collect(),
        after_masking: [2usize, 60].into_iter().collect(),
    };
    let config = SecAggConfig::new(codes.len(), 50, 2 * bits as usize, 13);
    let out = run_secure_aggregation(&config, &inputs, &plan, &mut rng).unwrap();

    let mut counts = vec![0u64; bits as usize];
    for (i, &j) in assignment.iter().enumerate() {
        if !plan.before_masking.contains(&i) {
            counts[j as usize] += 1;
        }
    }
    assert_eq!(&out.sum[bits as usize..], counts.as_slice());
    assert_eq!(out.contributors.len(), 97);
    assert_eq!(out.pairwise_masks_reconstructed, 3);
}

#[test]
fn threshold_failure_is_loud_not_wrong() {
    let bits = 4u32;
    let inputs: Vec<Vec<u64>> = (0..10).map(|_| vec![0u64; 2 * bits as usize]).collect();
    let config = SecAggConfig::new(10, 9, 2 * bits as usize, 17);
    let plan = DropoutPlan {
        before_masking: [0usize].into_iter().collect(),
        after_masking: [1usize].into_iter().collect(),
    };
    let mut rng = StdRng::seed_from_u64(7);
    let err = run_secure_aggregation(&config, &inputs, &plan, &mut rng).unwrap_err();
    assert!(matches!(
        err,
        SecAggError::TooFewSurvivors {
            survivors: 8,
            threshold: 9
        }
    ));
}
