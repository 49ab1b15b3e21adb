//! Crate-wide typed errors for the federated orchestration path.
//!
//! Section 4.3 frames the deployment reality: "Client devices can drop out
//! at any point of the federated protocol". The orchestrator therefore must
//! fail *closed* and *typed* — a misbehaving cohort is an expected outcome,
//! not a programming error, so nothing on the round/adaptive/streaming path
//! is allowed to panic on runtime conditions. [`FedError`] is the single
//! taxonomy those paths return.

use fednum_core::privacy::{AmplificationError, BudgetExceeded};
use fednum_secagg::protocol::SecAggError;

/// Failure modes of the federated pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum FedError {
    /// No client produced any report (e.g., total dropout).
    NoReports,
    /// The secure-aggregation protocol failed after exhausting the
    /// configured retries.
    SecAgg(SecAggError),
    /// Fewer clients than the task fundamentally requires.
    PopulationTooSmall {
        /// Clients available.
        got: usize,
        /// Minimum required.
        need: usize,
    },
    /// The surviving cohort fell below the configured privacy minimum, so
    /// the round aborted rather than aggregate over too few clients.
    CohortTooSmall {
        /// Clients still alive when the check fired.
        survivors: usize,
        /// Configured minimum cohort size.
        minimum: usize,
    },
    /// A report addressed a bit index outside the codec depth.
    BitOutOfRange {
        /// The offending bit index.
        bit: u32,
        /// The codec depth.
        bits: u32,
    },
    /// A client's privacy budget would be exceeded by participating.
    Budget(BudgetExceeded),
    /// A configuration parameter was rejected.
    InvalidConfig(String),
    /// The wire transport failed underneath the protocol: connection setup,
    /// socket I/O, or an idle/read timeout enforced by the coordinator
    /// daemon. The round cannot tell whether in-flight frames were
    /// delivered, so it aborts rather than publish over a partial cohort.
    Transport {
        /// The transport operation that failed (`"connect"`, `"read"`, ...).
        op: &'static str,
        /// Human-readable failure detail (the underlying I/O error).
        detail: String,
    },
}

impl std::fmt::Display for FedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FedError::NoReports => write!(f, "no reports were received"),
            FedError::SecAgg(e) => write!(f, "secure aggregation failed: {e}"),
            FedError::PopulationTooSmall { got, need } => {
                write!(f, "population of {got} below the required {need}")
            }
            FedError::CohortTooSmall { survivors, minimum } => write!(
                f,
                "surviving cohort of {survivors} below the minimum of {minimum}"
            ),
            FedError::BitOutOfRange { bit, bits } => {
                write!(f, "bit index out of range: {bit} >= depth {bits}")
            }
            FedError::Budget(e) => write!(f, "{e}"),
            FedError::InvalidConfig(msg) => write!(f, "{msg}"),
            FedError::Transport { op, detail } => {
                write!(f, "transport {op} failed: {detail}")
            }
        }
    }
}

impl std::error::Error for FedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FedError::SecAgg(e) => Some(e),
            FedError::Budget(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SecAggError> for FedError {
    fn from(e: SecAggError) -> Self {
        FedError::SecAgg(e)
    }
}

impl From<BudgetExceeded> for FedError {
    fn from(e: BudgetExceeded) -> Self {
        FedError::Budget(e)
    }
}

impl From<AmplificationError> for FedError {
    fn from(e: AmplificationError) -> Self {
        FedError::InvalidConfig(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        assert_eq!(FedError::NoReports.to_string(), "no reports were received");
        let e = FedError::SecAgg(SecAggError::TooFewSurvivors {
            survivors: 3,
            threshold: 5,
        });
        assert!(e.to_string().contains("secure aggregation failed"));
        assert!(e.to_string().contains("3"));
        assert!(FedError::PopulationTooSmall { got: 1, need: 2 }
            .to_string()
            .contains("population of 1"));
        assert!(FedError::CohortTooSmall {
            survivors: 4,
            minimum: 10
        }
        .to_string()
        .contains("minimum of 10"));
        assert!(FedError::BitOutOfRange { bit: 9, bits: 8 }
            .to_string()
            .contains("bit index out of range"));
        assert_eq!(FedError::InvalidConfig("bad".into()).to_string(), "bad");
        let t = FedError::Transport {
            op: "read",
            detail: "timed out after 2s".into(),
        };
        assert_eq!(t.to_string(), "transport read failed: timed out after 2s");
    }

    #[test]
    fn privacy_parameter_errors_convert_to_invalid_config() {
        let e: FedError = AmplificationError::InvalidDelta(2.0).into();
        assert!(matches!(&e, FedError::InvalidConfig(m) if m.contains("delta")));
    }

    #[test]
    fn secagg_errors_convert_and_chain() {
        let inner = SecAggError::InputTooLarge { client: 7 };
        let e: FedError = inner.clone().into();
        assert_eq!(e, FedError::SecAgg(inner));
        assert!(std::error::Error::source(&e).is_some());
    }
}
