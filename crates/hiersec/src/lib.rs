//! Two-tier hierarchical secure aggregation: the merge tier.
//!
//! The flat secure-aggregation protocol (`fednum-secagg`) cancels pairwise
//! masks only within one unmask domain, so a masked cohort cannot be split
//! across coordinator shards — which is exactly what the scaled transport
//! path does. The hierarchy resolves that tension the way scalable
//! shuffled/hierarchical aggregation systems do (Ghazi et al.): one
//! *independent* Bonawitz-style instance per shard (run by
//! `fednum-transport`'s shard sessions), then the K shard aggregators act
//! as the cohort of a second instance that securely aggregates the
//! per-shard sums. This crate holds the parts of that design the
//! transport's hierarchical round calls into:
//!
//! * [`config`] — [`HierSecConfig`]: shard count K, per-shard threshold
//!   settings, merge threshold, and per-instance session-seed derivation
//!   (every tier/shard gets its own key graph via
//!   `fednum_secagg::instance_seed`);
//! * [`tiers`] — the merge instance over shard sums, whose failure aborts
//!   the round (a degraded shard enters it as an excluded dropout, never a
//!   zero), and the salvage merge over late-recovered shard sums.
//!
//! Trust model, as the code stands: the merge tier is genuinely masked —
//! the top-level coordinator receives only masked per-shard sums and their
//! total, never one shard's plaintext sum. The shard tier is not yet
//! secure on the wire: under `.secure()` each shard coordinator still
//! collects its clients' plaintext reports during Collect, and the secagg
//! message rounds model the protocol's cost rather than carry its masked
//! inputs (ROADMAP, *secure on the wire*).

pub mod config;
pub mod tiers;

pub use config::HierSecConfig;
pub use tiers::{merge_salvaged_shard_sums, merge_shard_sums, MergeOutcome};
