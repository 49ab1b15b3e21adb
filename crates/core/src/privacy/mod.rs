//! Privacy layers for bit-pushing (Section 3.3).
//!
//! * Randomized response (re-exported from `fednum-ldp`) provides the ε-LDP
//!   guarantee: every transmitted bit is flipped with probability
//!   `1/(1+e^ε)` on the client and debiased at the server.
//! * [`squash`] — bit squashing: post-processing that zeroes bit means that
//!   are indistinguishable from DP noise (Figures 4a–4c).
//! * [`distributed`] — distributed DP on the per-bit histograms:
//!   sample-and-threshold (Bharadwaj–Cormode) and Bernoulli noise addition
//!   (Balcer–Cheu style).
//! * [`metering`] — the bit-level privacy ledger of Section 1.1: per-client
//!   accounting of disclosed private bits and ε spent, with enforceable
//!   budgets.
//! * [`durable`] — the crash-safe cross-round form of that ledger: a
//!   campaign state machine (admit → commit) persisted through a
//!   write-ahead log plus periodic snapshots, so a coordinator restart
//!   resumes a longitudinal campaign without re-granting budget.
//! * [`amplification`] — amplification by shuffling: the closed-form
//!   (local ε₀, n, δ) → central ε bound a shuffled round charges, with a
//!   conservative local-ε fallback below the bound's validity threshold.

pub mod amplification;
pub mod distributed;
pub mod durable;
pub mod metering;
pub mod squash;

pub use amplification::{Amplification, AmplificationError, ShuffleCharge};
pub use distributed::{BernoulliNoise, SampleThreshold};
pub use durable::{
    Admission, CampaignState, CommitSummary, DurableError, DurableLedger, LedgerRecord,
    RecoveryStats,
};
pub use fednum_ldp::RandomizedResponse;
pub use metering::{BudgetExceeded, PrivacyBudget, PrivacyLedger};
pub use squash::BitSquash;
