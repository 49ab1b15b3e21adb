//! The bit-pushing estimator.
//!
//! * [`basic`] — Algorithm 1's configuration ([`BasicConfig`]) and its
//!   estimator tail ([`BasicBitPushing::finish`]): squashing,
//!   reconstruction, decoding and the predicted error of a per-bit
//!   histogram.
//!
//! The rounds that fill the histogram — Algorithm 1, with Corollary 3.2's
//! `b_send`, and the two-round Algorithm 2 — run once, on the federated
//! round driver in `fednum-fedsim`, whose configurations implement
//! [`MeanMechanism`] so the figure drivers sweep them alongside the
//! baseline mechanisms.

pub mod basic;

pub use basic::{BasicBitPushing, BasicConfig, Outcome};
pub use fednum_ldp::MeanMechanism;
