//! Event-driven transport and coordinator for federated bit-pushing.
//!
//! `fednum-fedsim` writes the round once, generic over what carries its
//! messages; this crate carries it as what a deployment really is —
//! message passing. Every protocol interaction is a typed
//! [`message::Message`] framed through the `fednum-core::wire` varint
//! codec, carried by a [`net::Transport`], and ordered by a deterministic
//! discrete-event [`scheduler::EventQueue`]. The [`coordinator`] session is
//! the wire side of a round (rendezvous → configure → collect → unmask →
//! publish) over any transport — one frame chain per client, or one packed
//! frame per chunk of clients — reproducing the synchronous path's
//! estimates bit for bit while additionally accounting every byte per phase
//! and direction; [`shard`] partitions a cohort across independently
//! scheduled coordinator shards, scaling a round to a million simulated
//! clients; [`hier`] layers two-tier secure aggregation on top of sharding
//! (per-shard instances merged through a second instance over the shard
//! aggregators). [`builder::RoundBuilder`] is the one
//! entry point to all of it.

pub mod adaptive;
pub mod builder;
pub mod coordinator;
pub mod daemon;
pub mod fleet;
pub mod hier;
pub mod message;
pub mod net;
pub mod netchaos;
pub mod reactor;
pub mod scheduler;
pub mod session;
pub mod shard;
pub mod shuffle;
pub mod tcp;

pub use builder::{RoundBuilder, RoundDetail, RoundOutcome};
pub use daemon::{DaemonConfig, DaemonHandle, DaemonSnapshot, RoundStream};
pub use fleet::client::{ClientSession, FailMode};
pub use fleet::{FleetConfig, FleetEngine, FleetLedger, FleetRoundReport};
pub use hier::{HierShardedOutcome, ShardTransportFactory};
pub use message::Message;
pub use net::{
    Envelope, InMemoryTransport, SimNetTransport, Tampered, Transport, WireMetrics, BROADCAST,
    COORDINATOR, SHUFFLER,
};
pub use netchaos::{ChaosConfig, ChaosProxy, ChaosStats};
pub use scheduler::EventQueue;
pub use session::{MultiSessionEngine, SessionSlot};
pub use shard::ShardedOutcome;
pub use shuffle::{ShuffleConfig, ShuffledOutcome};
pub use tcp::{CampaignStatus, CommitReceipt, RoundAdmission, SessionStats, TcpTransport};
