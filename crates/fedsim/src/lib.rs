//! Federated environment simulator.
//!
//! The paper's Section 4.3 reports deployment behaviour that lives outside
//! the core protocol math: clients with multiple local values, unreliable
//! connectivity, eligibility-restricted cohorts, round latency, and
//! secure-aggregation transport. This crate models that environment so those
//! findings are reproducible:
//!
//! * [`population`] — clients owning one or many private values, with the
//!   two elicitation semantics the paper discusses (sampling vs. local
//!   aggregation);
//! * [`dropout`] — Bernoulli and phase-dependent dropout models;
//! * [`cohort`] — eligibility predicates and minimum-cohort-size
//!   enforcement ("enforce a minimum cohort size for privacy");
//! * [`latency`] — log-normal client latency and round-completion times;
//! * [`round`] — the orchestrator: contact clients in waves, apply dropout,
//!   auto-adjust bit sampling to refill starved bits ("the bit sampling
//!   probabilities were auto-adjusted based on the dropout rate"), deliver
//!   reports directly or through the `fednum-secagg` protocol, and hand the
//!   per-bit histograms to `fednum-core` for estimation;
//! * [`adaptive_round`] — Algorithm 2's two rounds on that driver, and
//!   [`protocol`], both algorithms as `MeanMechanism`s;
//! * [`variance`], [`moments`], [`normalize`], [`multifeature`] — aggregates
//!   reduced to mean estimations of locally derived values.

pub mod adaptive_round;
pub mod cohort;
pub mod dropout;
pub mod error;
pub mod faults;
pub mod latency;
pub mod moments;
pub mod multifeature;
pub mod normalize;
pub mod population;
pub mod protocol;
pub mod retry;
pub mod round;
pub mod streaming;
pub mod traffic;
pub mod validation;
pub mod variance;

pub use adaptive_round::{FederatedAdaptiveConfig, FederatedAdaptiveOutcome};
pub use cohort::{CohortError, CohortPolicy};
pub use dropout::DropoutModel;
pub use error::FedError;
pub use faults::{FaultKind, FaultPlan, FaultRates, FaultSchedule};
pub use latency::LatencyModel;
pub use population::{Client, ElicitStrategy, Population};
pub use retry::{RetryPolicy, SalvagePolicy};
pub use round::{
    DegradedMode, FederatedMeanConfig, FederatedOutcome, RobustnessReport, RoundError,
    SalvageOutcome, SecAggSettings,
};
pub use streaming::StreamingMean;
pub use traffic::{Direction, TrafficPhase, TrafficStats};
pub use validation::{RejectionCounts, ReportValidator, Violation};
