//! The protocol configuration every `RoundBuilder` workload shares, and
//! how inputs are derived from `--seed`: the same seed gives the same
//! values and the same per-round seeds.

use fednum::core::encoding::FixedPointCodec;
use fednum::core::privacy::RandomizedResponse;
use fednum::core::protocol::basic::BasicConfig;
use fednum::core::sampling::BitSampling;
use fednum::fedsim::round::FederatedMeanConfig;
use fednum::fedsim::DropoutModel;
use fednum::transport::fleet::splitmix64;
use fednum::workloads::{Dataset, Normal};

pub const BITS: u32 = 10;
pub const EPSILON: f64 = 1.0;
pub const DROPOUT: f64 = 0.1;
/// Clients per `BatchReport` frame on the batched wire.
pub const CHUNK: usize = 512;

pub fn codec() -> FixedPointCodec {
    FixedPointCodec::integer(BITS)
}

/// 10-bit codec, geometric(10, 1.0) bit sampling, epsilon = 1 randomized
/// response, 10 % Bernoulli dropout; `round_seed` doubles as the round id.
pub fn config(round_seed: u64) -> FederatedMeanConfig {
    let mut cfg = FederatedMeanConfig::new(
        BasicConfig::new(codec(), BitSampling::geometric(BITS, 1.0))
            .with_privacy(RandomizedResponse::from_epsilon(EPSILON)),
    )
    .with_dropout(DropoutModel::bernoulli(DROPOUT));
    cfg.session_seed = round_seed;
    cfg
}

/// The seed of round `k` of a run seeded with `seed`.
pub fn round_seed(seed: u64, k: u64) -> u64 {
    splitmix64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k)
}

/// `n` values from Normal(500, 100), drawn from `seed`.
pub fn draw(n: usize, seed: u64) -> Dataset {
    Dataset::draw(&Normal::new(500.0, 100.0), n, splitmix64(seed ^ 0xDA7A))
}

/// What the estimator targets: the mean after clipping and rounding.
pub fn truth(values: &[f64]) -> f64 {
    codec().encoded_mean(values)
}
