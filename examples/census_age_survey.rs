//! A private age survey: estimate the mean and variance of ages across a
//! federated population with an ε-LDP guarantee, each client disclosing one
//! randomized bit of one value.
//!
//! Mirrors the paper's census-data evaluation (Figures 2 and 3).
//!
//! ```text
//! cargo run --release --example census_age_survey
//! ```

use fednum::core::encoding::FixedPointCodec;
use fednum::core::privacy::{BitSquash, RandomizedResponse};
use fednum::core::protocol::basic::BasicConfig;
use fednum::core::sampling::BitSampling;
use fednum::fedsim::variance::VarianceViaCentered;
use fednum::fedsim::{FederatedAdaptiveConfig, FederatedMeanConfig};
use fednum::workloads::{CensusAges, Dataset};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let ages = CensusAges::new();
    let population = Dataset::draw(&ages, 50_000, 11);
    println!(
        "synthetic census cohort: n = {}, true mean age = {:.2}, true variance = {:.1}",
        population.len(),
        population.mean(),
        population.variance()
    );

    // --- Mean under ε = 1 local differential privacy ---------------------
    let epsilon = 1.0;
    let rr = RandomizedResponse::from_epsilon(epsilon);
    let bits = 8; // ages < 128; one vacuous bit on top, as deployed configs do
    let dp_mean = FederatedMeanConfig::new(
        BasicConfig::new(
            FixedPointCodec::integer(bits),
            BitSampling::geometric(bits, 2.0), // weighted a=1.0, best under DP (Fig 3)
        )
        .with_privacy(rr)
        .with_squash(BitSquash::Absolute(0.05)),
    );
    let mut rng = StdRng::seed_from_u64(3);
    let outcome = dp_mean
        .run_pooled(population.values(), &mut rng)
        .expect("a non-empty cohort reports");
    println!(
        "mean age under eps={epsilon} LDP: {:.2} (error {:.2}, every client disclosed exactly 1 randomized bit)",
        outcome.estimate,
        (outcome.estimate - population.mean()).abs()
    );

    // --- Variance without privacy noise (Lemma 3.5, centered form) -------
    // Algorithm 2 with paper defaults (the rounds sample with γ, then α).
    let adaptive = |bits: u32| {
        FederatedAdaptiveConfig::new(FederatedMeanConfig::new(BasicConfig::new(
            FixedPointCodec::integer(bits),
            BitSampling::uniform(bits),
        )))
    };
    let mean_est = adaptive(bits);
    // Squared deviations from the mean are below ~90² < 2^13.
    let dev_est = adaptive(13);
    let var_est = VarianceViaCentered::new(mean_est, dev_est);
    let var = var_est.estimate_variance(population.values(), &mut rng);
    println!(
        "variance of ages (adaptive, centered reduction): {var:.1} (truth {:.1}, NRMSE {:.3})",
        population.variance(),
        (var - population.variance()).abs() / population.variance()
    );

    // --- The likelihood-ratio view of the guarantee ----------------------
    println!(
        "per-bit plausible deniability: a reported bit is truthful with p = {:.3}; \
         any observer's likelihood ratio is bounded by e^eps = {:.2}",
        rr.p(),
        epsilon.exp()
    );
}
