//! Seeded synthetic data distributions and datasets for federated
//! aggregation experiments.
//!
//! Section 4 of the paper evaluates on values drawn from Normal, uniform and
//! exponential distributions with varying parameters, plus a human-generated
//! dataset (US census ages). Section 4.3 adds the "wild" distributions met in
//! deployment: heavy tails with extreme outliers, mostly-binary metrics, and
//! constant features. This crate implements all of them from scratch
//! (Box–Muller, inverse CDFs, discrete CDF inversion) with explicit seeding so
//! every experiment is reproducible.
//!
//! The UCI census file is not available offline; [`census`] substitutes a
//! synthetic sampler over the published US age pyramid, which preserves
//! everything the experiments use (see `DESIGN.md` §2).

pub mod census;
pub mod dataset;
pub mod distributions;
pub mod telemetry;

pub use census::CensusAges;
pub use dataset::Dataset;
pub use distributions::{
    Constant, Exponential, LogNormal, Mixture, Normal, Pareto, Sampler, Uniform, Workload, Zipf,
};
pub use telemetry::{ConstantMetric, MostlyBinaryWithOutliers, SpikeMixture};
