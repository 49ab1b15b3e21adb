//! # fednum-core — bit-pushing
//!
//! The paper's primary contribution (Section 3): federated estimation of
//! means, variances and related aggregates where each client discloses **at
//! most one bit** of each private value.
//!
//! A value is clipped and encoded as a `b`-bit unsigned fixed-point integer
//! ([`encoding`]); its binary digits form a linear decomposition
//! `x = Σ_j 2^j x^(j)` ([`bits`]). The server samples bit indices with a
//! probability vector `p` ([`sampling`]) — uniformly, geometrically
//! (`p_j ∝ 2^{γj}`), or optimally (`p_j ∝ √β_j`, Lemma 3.3) — assigns
//! clients to bits either centrally (quasi-Monte-Carlo apportionment, the
//! default, robust to poisoning) or locally, collects the sampled bits
//! ([`accumulator`]), and reconstructs an unbiased mean estimate whose
//! variance is `(1/n) Σ_j 4^j x̄^(j)(1 - x̄^(j)) / p_j` (Lemma 3.1).
//!
//! [`protocol::basic`] holds Algorithm 1's configuration and the estimator
//! tail every round ends in. The rounds themselves — Algorithm 1 and the
//! two-round Algorithm 2, which spends a `δ` fraction of clients learning
//! the bit means and re-optimizes the sampling weights for the remainder —
//! run once, on the federated round driver in `fednum-fedsim`, which also
//! holds the reductions built on a mean estimate (variance, moments,
//! normalization, multi-feature aggregation).
//!
//! Privacy layers ([`privacy`]): per-bit ε-LDP randomized response with
//! server-side debiasing, bit squashing for noisy means, distributed DP via
//! sample-and-threshold or Bernoulli noise on the bit histograms, and a
//! per-client privacy-metering ledger.
//!
//! Beyond the mean: [`bounds`] tracks upper bounds to flag heavy-tailed /
//! non-stationary metrics (Sections 1.1 and 4.3).

pub mod accumulator;
pub mod bits;
pub mod bounds;
pub mod encoding;
pub mod histogram;
pub mod privacy;
pub mod protocol;
pub mod quantile;
pub mod sampling;
pub mod wire;

pub use accumulator::BitAccumulator;
pub use encoding::FixedPointCodec;
pub use histogram::{FederatedHistogram, HistogramConfig, HistogramOutcome};
pub use protocol::basic::{BasicBitPushing, BasicConfig, Outcome};
pub use quantile::{QuantileConfig, QuantileEstimator, QuantileOutcome};
pub use sampling::{AssignmentMode, BitSampling};
