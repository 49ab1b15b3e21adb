//! Simulated secure aggregation.
//!
//! The paper's formal-privacy story leans on a secure-aggregation primitive:
//! "the server knows the sum of the input values, without revealing anything
//! further about the inputs of individual clients" (Section 3.3, citing
//! Bonawitz/Segal et al., CCS 2017). Bit-pushing's server state is a vector
//! of per-bit counts, which is exactly the shape that primitive aggregates.
//!
//! This crate implements the arithmetic core of that protocol, from scratch:
//!
//! * [`field`] — the prime field GF(2^61 − 1) all masks live in;
//! * [`prg`] — a seeded mask expander (splitmix64 stream with rejection
//!   sampling into the field);
//! * [`shamir`] — Shamir secret sharing with Lagrange reconstruction, used
//!   to recover dropped clients' masks;
//! * [`masking`] — pairwise cancelling masks plus per-client self-masks;
//! * [`protocol`] — the four-round protocol simulation with explicit
//!   dropout phases: the server ends up with *only* the sum.
//!
//! What is simulated rather than real: key agreement. Pairwise seeds are
//! derived from client ids and a session seed instead of an ECDH exchange —
//! the aggregation and dropout-recovery semantics the paper relies on are
//! preserved exactly (see `DESIGN.md` §2).

pub mod field;
pub mod masking;
pub mod prg;
pub mod protocol;
pub mod shamir;

pub use field::Fe;
pub use masking::{
    accumulate_mask, add_assign, client_mask_ring, mask_from_seed, ring_neighbors, RingWindow,
};
pub use prg::{instance_seed, MaskStream};
pub use protocol::{
    run_secure_aggregation, run_secure_aggregation_planes, DropoutPlan, SecAggConfig, SecAggError,
    SecAggOutcome,
};
pub use shamir::{reconstruct, share, Share};
