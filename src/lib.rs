//! # fednum — private and efficient federated numerical aggregation
//!
//! Umbrella crate re-exporting the whole workspace: a Rust implementation of
//! **bit-pushing** (Cormode, Markov, Srinivas — EDBT 2024) together with the
//! baselines it is evaluated against, a simulated secure-aggregation
//! substrate, a federated environment simulator, workload generators, and an
//! experiment harness.
//!
//! ## Quick start
//!
//! ```
//! use fednum::core::encoding::FixedPointCodec;
//! use fednum::core::protocol::basic::BasicConfig;
//! use fednum::core::protocol::MeanMechanism;
//! use fednum::core::sampling::BitSampling;
//! use fednum::fedsim::FederatedMeanConfig;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // 10k clients each hold a private value in [0, 255].
//! let values: Vec<f64> = (0..10_000).map(|i| (i % 200) as f64).collect();
//! let truth = values.iter().sum::<f64>() / values.len() as f64;
//!
//! let codec = FixedPointCodec::integer(8);           // 8-bit clipping codec
//! let sampling = BitSampling::geometric(8, 0.5);     // p_j ∝ 2^{0.5 j}
//! // Algorithm 1 as one synchronous round of the federated driver.
//! let protocol = FederatedMeanConfig::new(BasicConfig::new(codec, sampling));
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let estimate = protocol.estimate_mean(&values, &mut rng);
//! assert!((estimate - truth).abs() / truth < 0.05);
//! ```
//!
//! See `DESIGN.md` for the full system inventory and `EXPERIMENTS.md` for the
//! reproduction of every figure in the paper.

pub use fednum_core as core;
pub use fednum_fedsim as fedsim;
pub use fednum_hiersec as hiersec;
pub use fednum_ldp as ldp;
pub use fednum_metrics as metrics;
pub use fednum_secagg as secagg;
pub use fednum_transport as transport;
pub use fednum_workloads as workloads;

// The unified entry point for every round flavor, hoisted to the crate
// root: `fednum::RoundBuilder::new(config).run(&values)`.
pub use fednum_transport::{RoundBuilder, RoundDetail, RoundOutcome, ShuffleConfig};

// The bit-plane aggregation surface behind `RoundBuilder::batched(chunk)`:
// the per-bit-position bitmap representation clients' one-bit reports are
// packed into, and the chunked multi-client wire frame that carries it.
// Shapes that cannot batch (shuffle tier, injected faults, straggler
// salvage, zero chunk) are rejected up front with
// `FedError::InvalidConfig`.
pub use fednum_core::bits::BitPlanes;
pub use fednum_core::wire::{BatchReportMessage, MAX_BATCH_BITS};
