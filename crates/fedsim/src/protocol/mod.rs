//! The paper's two algorithms as `MeanMechanism`s, the form the figure
//! drivers sweep: [`basic`] (Algorithm 1, with Corollary 3.2's `b_send`) and
//! [`adaptive`] (Algorithm 2). Neither has a loop of its own: both run the
//! round driver on the synchronous carrier.

pub mod adaptive;
pub mod basic;
