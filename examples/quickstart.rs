//! Quickstart: estimate a population mean with bit-pushing, disclosing at
//! most one bit per client.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fednum::core::encoding::FixedPointCodec;
use fednum::core::protocol::basic::BasicConfig;
use fednum::core::sampling::BitSampling;
use fednum::fedsim::adaptive_round::run_adaptive_impl;
use fednum::fedsim::{FederatedAdaptiveConfig, FederatedMeanConfig};
use fednum::workloads::{Dataset, Normal};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 10 000 clients each hold one private value.
    let population = Dataset::draw(&Normal::new(500.0, 100.0), 10_000, 7);
    let truth = population.mean();
    println!(
        "population: n = {}, true mean = {truth:.2}",
        population.len()
    );

    // Single-round weighted bit-pushing: 12-bit clipping codec, sampling
    // bit j with probability proportional to 2^j. One synchronous round of
    // the federated driver.
    let protocol = FederatedMeanConfig::new(BasicConfig::new(
        FixedPointCodec::integer(12),
        BitSampling::geometric(12, 1.0),
    ));
    let mut rng = StdRng::seed_from_u64(42);
    let outcome = protocol
        .run_pooled(population.values(), &mut rng)
        .expect("a non-empty population reports");
    println!(
        "weighted bit-pushing:  estimate = {:.2}  (predicted std {:.2}, {} reports, 1 bit each)",
        outcome.estimate,
        outcome.predicted_std,
        outcome.accumulator.total_reports(),
    );

    // Two-round adaptive bit-pushing: round 1 learns the bit means, round 2
    // re-optimizes the sampling weights (Lemma 3.3) and pools both rounds.
    // The environment's own sampling is unused: the rounds sample with γ, α.
    let adaptive = FederatedAdaptiveConfig::new(protocol);
    let outcome = run_adaptive_impl(population.values(), &adaptive, &mut rng)
        .expect("two or more clients report");
    println!(
        "adaptive bit-pushing:  estimate = {:.2}  (round-2 probabilities drop {} vacuous bits)",
        outcome.estimate,
        outcome
            .round2_sampling
            .probs()
            .iter()
            .filter(|&&p| p == 0.0)
            .count(),
    );

    let err = (outcome.estimate - truth).abs() / truth;
    println!("relative error: {:.3}%", err * 100.0);
    assert!(err < 0.05, "quickstart should land within 5%");
}
