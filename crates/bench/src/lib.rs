//! Experiment drivers reproducing the paper's evaluation (Figures 1–4 and
//! the Section 4.3 deployment findings).
//!
//! Every panel of every figure has a driver in [`figures`] that returns a
//! `SeriesTable` (or prints a custom layout where the paper's plot is not a
//! line chart). The `figures` binary renders them as aligned text tables and
//! machine-readable JSON; `EXPERIMENTS.md` records the measured shapes
//! against the paper's.

pub mod figures;
pub mod methods;
pub mod runner;
