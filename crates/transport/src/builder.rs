//! `RoundBuilder`: the one front door for running a federated round.
//!
//! The repo grew eight entry points — sync and transport-backed flat
//! rounds, metered variants, the two-round adaptive protocol in both
//! flavours, sharded and hierarchical coordinators — each with its own
//! argument order and result struct. `RoundBuilder` consolidates them
//! behind a single fluent facade:
//!
//! ```
//! use fednum_transport::RoundBuilder;
//! use fednum_core::encoding::FixedPointCodec;
//! use fednum_core::protocol::basic::BasicConfig;
//! use fednum_core::sampling::BitSampling;
//! use fednum_fedsim::round::FederatedMeanConfig;
//!
//! let config = FederatedMeanConfig::new(BasicConfig::new(
//!     FixedPointCodec::integer(6),
//!     BitSampling::geometric(6, 1.0),
//! ));
//! let values: Vec<f64> = (0..500).map(|i| f64::from(i % 50)).collect();
//! let outcome = RoundBuilder::new(config).seed(7).run(&values).unwrap();
//! assert!(outcome.estimate().is_finite());
//! ```
//!
//! There is one round (`fednum_fedsim::round`); what the builder decides
//! from the call shape is the *carrier* it rides and the topology around
//! it:
//!
//! | builder calls                         | carrier                                            |
//! |---------------------------------------|----------------------------------------------------|
//! | `new(config)`                         | synchronous (`Direct`): nothing crosses a wire     |
//! | `new(config).via(transport)`          | per-client wire over `transport`                   |
//! | `….batched(chunk)`                    | chunked wire (over `.via`, else in-memory)         |
//! | `….metered(ledger)`                   | any of the above, ledger-billed                    |
//! | `new_adaptive(config)…`               | the same carriers, two rounds on one timeline      |
//! | `new(config).shuffled(shuffle)`       | shuffled wire (over `.via`, else in-memory)        |
//! | `new(config).sharded(k, seed)`        | K coordinators, one wire each (`config.faults` acted out) |
//! | `new(config).hierarchical(hier)`      | K secure coordinators (`.shard_transports`) + merge |
//!
//! Every path funnels into [`RoundOutcome`], which carries the
//! shape-specific detail plus the wire totals when the round actually
//! crossed a metered transport. Invalid combinations — a ledger on a
//! sharded round, `.via` on a hierarchical one — are rejected up front
//! with [`FedError::InvalidConfig`] rather than silently ignored.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fednum_core::privacy::PrivacyLedger;
use fednum_fedsim::adaptive_round::{
    run_adaptive_impl, FederatedAdaptiveConfig, FederatedAdaptiveOutcome,
};
use fednum_fedsim::error::FedError;
use fednum_fedsim::retry::SalvagePolicy;
use fednum_fedsim::round::{run_round_impl, FederatedMeanConfig, FederatedOutcome, SecAggSettings};
use fednum_hiersec::HierSecConfig;

use crate::adaptive::run_adaptive_sessions;
use crate::coordinator::run_session;
use crate::hier::{hierarchical_impl, HierShardedOutcome, ShardTransportFactory};
use crate::net::{InMemoryTransport, Transport, WireMetrics};
use crate::shard::{sharded_impl, ShardedOutcome};
use crate::shuffle::{run_shuffled_session, ShuffleConfig, ShuffledOutcome};

/// Which protocol family the round runs: one flat estimation round, or
/// the two-round adaptive protocol with weight re-optimization between.
enum Mode {
    Flat(FederatedMeanConfig),
    Adaptive(FederatedAdaptiveConfig),
}

/// How the cohort is laid out across coordinators.
enum Topology {
    /// One coordinator, one event schedule.
    Single,
    /// K independent coordinator shards merged at publish.
    Sharded { shards: usize, seed: u64 },
    /// Two-tier secure aggregation: shard instances plus a merge tier.
    Hierarchical(HierSecConfig),
}

/// Fluent entry point for every round shape the crate can run.
///
/// Construct with [`RoundBuilder::new`] (flat) or
/// [`RoundBuilder::new_adaptive`] (two-round adaptive), layer on
/// options, then [`run`](RoundBuilder::run). See the module docs for
/// the call-shape → carrier table and a complete example.
pub struct RoundBuilder<'a> {
    mode: Mode,
    topology: Topology,
    ledger: Option<&'a mut PrivacyLedger>,
    transport: Option<&'a mut dyn Transport>,
    factory: Option<ShardTransportFactory<'a>>,
    rng: Option<&'a mut dyn Rng>,
    seed: Option<u64>,
    shuffle: Option<ShuffleConfig>,
    batched: Option<usize>,
}

/// The unified result of [`RoundBuilder::run`].
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// Engine-specific detail: which round shape ran and its full report.
    pub detail: RoundDetail,
    /// Socket-level totals when the round crossed a metered transport
    /// (a [`TcpTransport`](crate::tcp::TcpTransport) via `.via` or a
    /// `.shard_transports` factory); `None` for purely in-process runs.
    pub wire: Option<WireMetrics>,
}

/// Engine-specific detail inside a [`RoundOutcome`].
#[derive(Debug, Clone)]
pub enum RoundDetail {
    /// One flat estimation round (sync or transport-backed).
    Flat(FederatedOutcome),
    /// The two-round adaptive protocol.
    Adaptive(FederatedAdaptiveOutcome),
    /// K independent coordinator shards merged at publish.
    Sharded(ShardedOutcome),
    /// Two-tier secure aggregation over shards.
    Hierarchical(HierShardedOutcome),
    /// A shuffle-tier round: flat report plus the amplified privacy
    /// charge.
    Shuffled(ShuffledOutcome),
}

impl RoundOutcome {
    /// The final estimate in the value domain, whichever engine ran.
    #[must_use]
    pub fn estimate(&self) -> f64 {
        match &self.detail {
            RoundDetail::Flat(out) => out.outcome.estimate,
            RoundDetail::Adaptive(out) => out.estimate,
            RoundDetail::Sharded(out) => out.outcome.estimate,
            RoundDetail::Hierarchical(out) => out.outcome.estimate,
            RoundDetail::Shuffled(out) => out.round.outcome.estimate,
        }
    }

    /// The flat-round report, if a flat round ran.
    #[must_use]
    pub fn flat(&self) -> Option<&FederatedOutcome> {
        match &self.detail {
            RoundDetail::Flat(out) => Some(out),
            _ => None,
        }
    }

    /// The adaptive report, if the two-round protocol ran.
    #[must_use]
    pub fn adaptive(&self) -> Option<&FederatedAdaptiveOutcome> {
        match &self.detail {
            RoundDetail::Adaptive(out) => Some(out),
            _ => None,
        }
    }

    /// The sharded report, if a sharded round ran.
    #[must_use]
    pub fn sharded(&self) -> Option<&ShardedOutcome> {
        match &self.detail {
            RoundDetail::Sharded(out) => Some(out),
            _ => None,
        }
    }

    /// The hierarchical report, if a two-tier round ran.
    #[must_use]
    pub fn hierarchical(&self) -> Option<&HierShardedOutcome> {
        match &self.detail {
            RoundDetail::Hierarchical(out) => Some(out),
            _ => None,
        }
    }

    /// The shuffle-tier report, if a shuffled round ran.
    #[must_use]
    pub fn shuffled(&self) -> Option<&ShuffledOutcome> {
        match &self.detail {
            RoundDetail::Shuffled(out) => Some(out),
            _ => None,
        }
    }
}

impl<'a> RoundBuilder<'a> {
    /// Starts a flat estimation round from `config`.
    #[must_use]
    pub fn new(config: FederatedMeanConfig) -> Self {
        Self::with_mode(Mode::Flat(config))
    }

    /// Starts the two-round adaptive protocol from `config`.
    #[must_use]
    pub fn new_adaptive(config: FederatedAdaptiveConfig) -> Self {
        Self::with_mode(Mode::Adaptive(config))
    }

    fn with_mode(mode: Mode) -> Self {
        Self {
            mode,
            topology: Topology::Single,
            ledger: None,
            transport: None,
            factory: None,
            rng: None,
            seed: None,
            shuffle: None,
            batched: None,
        }
    }

    /// The round's environment config, whichever mode was chosen (the
    /// adaptive config embeds a flat environment template).
    fn config_mut(&mut self) -> &mut FederatedMeanConfig {
        match &mut self.mode {
            Mode::Flat(cfg) => cfg,
            Mode::Adaptive(cfg) => &mut cfg.environment,
        }
    }

    fn config(&self) -> &FederatedMeanConfig {
        match &self.mode {
            Mode::Flat(cfg) => cfg,
            Mode::Adaptive(cfg) => &cfg.environment,
        }
    }

    /// Enables secure aggregation with `settings` (sets
    /// `config.secagg`, including on the adaptive environment template).
    #[must_use]
    pub fn secure(mut self, settings: SecAggSettings) -> Self {
        self.config_mut().secagg = Some(settings);
        self
    }

    /// Enables straggler salvage with `policy` (sets `config.salvage`).
    #[must_use]
    pub fn salvage(mut self, policy: SalvagePolicy) -> Self {
        self.config_mut().salvage = Some(policy);
        self
    }

    /// Routes the round through the shuffle trust tier: the same round,
    /// on a wire where clients submit their ε₀-randomized bits to a
    /// shuffler that strips sender identity and forwards one anonymized
    /// permuted batch per wave. Refill waves, the latency model and the
    /// minimum cohort apply as on every wire. The privacy ledger charges
    /// each wave's submitters the *amplified* central ε at that wave's
    /// batch size (see [`fednum_core::privacy::amplification`]) — a refill
    /// wave too small for the bound pays the local ε₀ — and
    /// [`ShuffledOutcome::charge`] is the largest rate billed. Requires a
    /// local randomizer on the config and a flat single-coordinator shape
    /// without secure aggregation, salvage, or fault injection; anything
    /// else is rejected at [`run`](Self::run).
    #[must_use]
    pub fn shuffled(mut self, shuffle: ShuffleConfig) -> Self {
        self.shuffle = Some(shuffle);
        self
    }

    /// Switches the round onto the batched multi-client wire: client
    /// one-bit responses pack into per-bit-position bitmap planes
    /// ([`fednum_core::bits::BitPlanes`]), travel as one length-delimited
    /// `BatchReport` frame per chunk of `chunk` clients, and aggregate by
    /// `count_ones` over 64-client words. Estimates are bit-identical to
    /// the scalar wire per seed without exception — secure rounds and the
    /// adaptive protocol's second round included, since every carrier's
    /// secure tally is the same masked popcount; only the traffic shape
    /// changes.
    ///
    /// Valid for flat, adaptive, sharded, and hierarchical rounds, with or
    /// without `.via(transport)` / `.metered(ledger)`. Shapes whose
    /// semantics live in per-client frames cannot batch and are rejected
    /// up front at [`run`](Self::run): `.shuffled(..)`, `config.faults`,
    /// and `.salvage(..)`. A zero `chunk` is rejected too.
    #[must_use]
    pub fn batched(mut self, chunk: usize) -> Self {
        self.batched = Some(chunk);
        self
    }

    /// Bills each client's disclosure through `ledger`. Only flat
    /// single-coordinator rounds meter a ledger; any other shape is
    /// rejected at [`run`](Self::run).
    #[must_use]
    pub fn metered(mut self, ledger: &'a mut PrivacyLedger) -> Self {
        self.ledger = Some(ledger);
        self
    }

    /// Drives the round over `transport` — an
    /// [`InMemoryTransport`],
    /// [`SimNetTransport`](crate::net::SimNetTransport), or a live
    /// [`TcpTransport`](crate::tcp::TcpTransport) session. Valid for
    /// flat and adaptive rounds; sharded and hierarchical rounds build
    /// per-shard transports instead (see
    /// [`shard_transports`](Self::shard_transports)).
    #[must_use]
    pub fn via(mut self, transport: &'a mut dyn Transport) -> Self {
        self.transport = Some(transport);
        self
    }

    /// Partitions the population across `shards` independently
    /// scheduled coordinator shards, seeded from `seed`.
    #[must_use]
    pub fn sharded(mut self, shards: usize, seed: u64) -> Self {
        self.topology = Topology::Sharded { shards, seed };
        self
    }

    /// Runs two-tier secure aggregation over `hier`'s shard layout.
    /// Seeded from [`seed`](Self::seed), defaulting to
    /// `config.session_seed`.
    #[must_use]
    pub fn hierarchical(mut self, hier: HierSecConfig) -> Self {
        self.topology = Topology::Hierarchical(hier);
        self
    }

    /// Supplies each hierarchical shard's transport: `make(stream_seed)`
    /// is called once per shard (see [`ShardTransportFactory`]). Only
    /// valid for hierarchical rounds.
    #[must_use]
    pub fn shard_transports(mut self, make: ShardTransportFactory<'a>) -> Self {
        self.factory = Some(make);
        self
    }

    /// Seeds the round. For flat and adaptive rounds this seeds the
    /// default driver RNG (overridden entirely by [`rng`](Self::rng));
    /// for hierarchical rounds it is the shard-stream seed. Defaults to
    /// `config.session_seed`.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Drives the flat or adaptive round from `rng` instead of the
    /// default `StdRng` seeded by [`seed`](Self::seed). Sharded and
    /// hierarchical rounds derive per-shard streams from the seed and
    /// reject an RNG override.
    #[must_use]
    pub fn rng(mut self, rng: &'a mut dyn Rng) -> Self {
        self.rng = Some(rng);
        self
    }

    /// Runs the configured round over `values`.
    ///
    /// # Errors
    /// [`FedError::InvalidConfig`] for contradictory builder shapes
    /// (see each option's docs); otherwise the underlying engine's
    /// typed failures. When the transport latched an I/O error
    /// mid-round (see [`Transport::take_error`]) that error is returned
    /// even if the round logic completed.
    pub fn run(self, values: &[f64]) -> Result<RoundOutcome, FedError> {
        self.check_shape()?;
        let seed = self.seed.unwrap_or(self.config().session_seed);
        let batched = self.batched;
        let mode = match (self.mode, self.topology) {
            (mode, Topology::Single) => mode,
            (Mode::Flat(cfg), Topology::Sharded { shards, seed }) => {
                return sharded_impl(values, &cfg, shards, seed, batched).map(|out| RoundOutcome {
                    detail: RoundDetail::Sharded(out),
                    wire: None,
                });
            }
            (Mode::Flat(cfg), Topology::Hierarchical(hier)) => {
                return hierarchical_impl(values, &cfg, &hier, seed, self.factory, batched).map(
                    |(out, wire)| RoundOutcome {
                        detail: RoundDetail::Hierarchical(out),
                        wire,
                    },
                );
            }
            (Mode::Adaptive(_), _) => unreachable!("rejected by check_shape"),
        };
        // One coordinator. The shuffle tier and the chunked wire need a
        // transport to ride: without `.via` that is a fresh seeded
        // in-memory one, same as `.via(InMemoryTransport::new(seed))`.
        let mut default_rng = StdRng::seed_from_u64(seed);
        let rng: &mut dyn Rng = match self.rng {
            Some(r) => r,
            None => &mut default_rng,
        };
        let mut in_process;
        let transport: Option<&mut dyn Transport> = match self.transport {
            Some(t) => Some(t),
            None if self.shuffle.is_some() || batched.is_some() => {
                in_process = InMemoryTransport::new(seed);
                Some(&mut in_process)
            }
            None => None,
        };
        let Some(transport) = transport else {
            // The synchronous carrier: nothing crosses a wire.
            let detail = match mode {
                Mode::Flat(cfg) => {
                    RoundDetail::Flat(run_round_impl(values, &cfg, self.ledger, rng)?)
                }
                Mode::Adaptive(cfg) => RoundDetail::Adaptive(run_adaptive_impl(values, &cfg, rng)?),
            };
            return Ok(RoundOutcome { detail, wire: None });
        };
        let res = match (mode, self.shuffle) {
            (Mode::Flat(cfg), Some(shuffle)) => {
                run_shuffled_session(values, &cfg, &shuffle, self.ledger, transport, rng)
                    .map(RoundDetail::Shuffled)
            }
            (Mode::Flat(cfg), None) => {
                run_session(values, &cfg, self.ledger, transport, batched, rng, false)
                    .map(|(out, _)| RoundDetail::Flat(out))
            }
            (Mode::Adaptive(cfg), _) => {
                run_adaptive_sessions(values, &cfg, transport, batched, rng)
                    .map(RoundDetail::Adaptive)
            }
        };
        // A latched transport error overrides round-logic success.
        let latched = transport.take_error();
        let wire = transport.wire_metrics();
        match (res, latched) {
            (_, Some(err)) | (Err(err), None) => Err(err),
            (Ok(detail), None) => Ok(RoundOutcome { detail, wire }),
        }
    }

    /// Rejects contradictory builder shapes before anything runs.
    fn check_shape(&self) -> Result<(), FedError> {
        let b_send = self.config().protocol.b_send;
        if b_send != 1 {
            return Err(FedError::InvalidConfig(format!(
                "`b_send = {b_send}` asks each client for {b_send} bits \
                 (Corollary 3.2), but every round shape sends one bit per \
                 client; estimate through the `FederatedMeanConfig` mechanism \
                 (`estimate_mean`), which pools `b_send` rounds, or keep the \
                 default of 1"
            )));
        }
        let single = matches!(self.topology, Topology::Single);
        if matches!(self.mode, Mode::Adaptive(_)) && !single {
            return Err(FedError::InvalidConfig(
                "the adaptive protocol runs on a single coordinator; \
                 drop `.sharded(..)` / `.hierarchical(..)`"
                    .into(),
            ));
        }
        if self.ledger.is_some() && (!single || matches!(self.mode, Mode::Adaptive(_))) {
            return Err(FedError::InvalidConfig(
                "privacy metering is only supported for flat single-coordinator \
                 rounds; drop `.metered(..)` or the topology option"
                    .into(),
            ));
        }
        if self.transport.is_some() && !single {
            return Err(FedError::InvalidConfig(
                "`.via(transport)` drives one flat or adaptive session; sharded \
                 and hierarchical rounds build per-shard transports (use \
                 `.shard_transports(..)` for hierarchical)"
                    .into(),
            ));
        }
        if self.factory.is_some() && !matches!(self.topology, Topology::Hierarchical(_)) {
            return Err(FedError::InvalidConfig(
                "`.shard_transports(..)` only applies to `.hierarchical(..)` rounds".into(),
            ));
        }
        if self.rng.is_some() && !single {
            return Err(FedError::InvalidConfig(
                "sharded and hierarchical rounds derive per-shard RNG streams \
                 from the seed; use `.seed(..)` instead of `.rng(..)`"
                    .into(),
            ));
        }
        if let Some(chunk) = self.batched {
            if chunk == 0 {
                return Err(FedError::InvalidConfig(
                    "`.batched(chunk)` needs a chunk of at least one client \
                     per frame"
                        .into(),
                ));
            }
            if self.shuffle.is_some() {
                return Err(FedError::InvalidConfig(
                    "the shuffle tier permutes per-client submissions, which \
                     the batched wire does not send; drop `.batched(..)` or \
                     `.shuffled(..)`"
                        .into(),
                ));
            }
            let cfg = self.config();
            if cfg.faults.is_some() {
                return Err(FedError::InvalidConfig(
                    "fault injection targets per-client report frames, which \
                     the batched wire does not send; drop `config.faults` or \
                     `.batched(..)`"
                        .into(),
                ));
            }
            if cfg.salvage.is_some() {
                return Err(FedError::InvalidConfig(
                    "straggler salvage re-admits parked per-client frames, \
                     which the batched wire does not send; drop `.salvage(..)` \
                     or `.batched(..)`"
                        .into(),
                ));
            }
        }
        if self.shuffle.is_some() {
            if matches!(self.mode, Mode::Adaptive(_)) || !single {
                return Err(FedError::InvalidConfig(
                    "`.shuffled(..)` runs one flat single-coordinator session; \
                     drop the adaptive/sharded/hierarchical option"
                        .into(),
                ));
            }
            let cfg = self.config();
            if cfg.secagg.is_some() {
                return Err(FedError::InvalidConfig(
                    "the shuffle tier replaces secure aggregation; drop \
                     `.secure(..)` / `config.secagg`"
                        .into(),
                ));
            }
            if cfg.salvage.is_some() {
                return Err(FedError::InvalidConfig(
                    "the shuffler's anonymized batch has no per-client frames \
                     to salvage; drop `.salvage(..)`"
                        .into(),
                ));
            }
            if cfg.faults.is_some() {
                return Err(FedError::InvalidConfig(
                    "fault injection targets per-client report frames, which a \
                     shuffled round does not send; drop `config.faults`"
                        .into(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::InMemoryTransport;
    use fednum_core::encoding::FixedPointCodec;
    use fednum_core::privacy::RandomizedResponse;
    use fednum_core::protocol::basic::BasicConfig;
    use fednum_core::sampling::BitSampling;

    fn config(bits: u32) -> FederatedMeanConfig {
        FederatedMeanConfig::new(BasicConfig::new(
            FixedPointCodec::integer(bits),
            BitSampling::geometric(bits, 1.0),
        ))
    }

    fn hier3() -> HierSecConfig {
        HierSecConfig::try_new(3, SecAggSettings::default(), 2, 0xBEEF).unwrap()
    }

    fn values(n: usize, hi: u64) -> Vec<f64> {
        (0..n).map(|i| (i as u64 % hi) as f64).collect()
    }

    #[test]
    fn flat_builder_matches_the_sync_engine() {
        let vs = values(4_000, 64);
        let mut rng_a = StdRng::seed_from_u64(3);
        let direct = run_round_impl(&vs, &config(6), None, &mut rng_a).unwrap();
        let out = RoundBuilder::new(config(6)).seed(3).run(&vs).unwrap();
        assert_eq!(out.estimate().to_bits(), direct.outcome.estimate.to_bits());
        assert!(out.wire.is_none());
        assert!(out.flat().is_some());
    }

    #[test]
    fn via_builder_matches_the_session_engine() {
        let vs = values(4_000, 64);
        let cfg = config(6);
        let mut ta = InMemoryTransport::new(9);
        let mut rng = StdRng::seed_from_u64(3);
        let (direct, _) = run_session(&vs, &cfg, None, &mut ta, None, &mut rng, false).unwrap();
        let mut tb = InMemoryTransport::new(9);
        let out = RoundBuilder::new(cfg)
            .seed(3)
            .via(&mut tb)
            .run(&vs)
            .unwrap();
        assert_eq!(out.estimate().to_bits(), direct.outcome.estimate.to_bits());
    }

    #[test]
    fn sharded_builder_matches_the_sharded_engine() {
        let vs = values(6_000, 50);
        let cfg = config(6);
        let direct = sharded_impl(&vs, &cfg, 4, 11, None).unwrap();
        let out = RoundBuilder::new(cfg).sharded(4, 11).run(&vs).unwrap();
        let got = out.sharded().expect("sharded detail");
        assert_eq!(
            got.outcome.estimate.to_bits(),
            direct.outcome.estimate.to_bits()
        );
        assert_eq!(got.reports, direct.reports);
    }

    #[test]
    fn hierarchical_builder_matches_the_hier_engine() {
        let vs = values(3_000, 40);
        let cfg = config(6).with_secagg(SecAggSettings::default());
        let hier = hier3();
        let (direct, _) = hierarchical_impl(&vs, &cfg, &hier, 5, None, None).unwrap();
        let out = RoundBuilder::new(cfg)
            .hierarchical(hier)
            .seed(5)
            .run(&vs)
            .unwrap();
        let got = out.hierarchical().expect("hierarchical detail");
        assert_eq!(
            got.outcome.estimate.to_bits(),
            direct.outcome.estimate.to_bits()
        );
    }

    #[test]
    fn adaptive_builder_matches_the_sync_engine() {
        let vs = values(8_000, 80);
        let cfg = FederatedAdaptiveConfig::new(config(10));
        let direct = run_adaptive_impl(&vs, &cfg, &mut StdRng::seed_from_u64(2)).unwrap();
        let out = RoundBuilder::new_adaptive(cfg).seed(2).run(&vs).unwrap();
        assert_eq!(out.estimate().to_bits(), direct.estimate.to_bits());
        assert!(out.adaptive().is_some());
    }

    #[test]
    fn metered_builder_bills_like_the_metered_engine() {
        let vs = values(2_000, 32);
        let mut direct_ledger = PrivacyLedger::new();
        let mut rng = StdRng::seed_from_u64(4);
        run_round_impl(&vs, &config(5), Some(&mut direct_ledger), &mut rng).unwrap();
        let mut ledger = PrivacyLedger::new();
        RoundBuilder::new(config(5))
            .seed(4)
            .metered(&mut ledger)
            .run(&vs)
            .unwrap();
        assert_eq!(
            ledger.max_bits_per_client(),
            direct_ledger.max_bits_per_client()
        );
    }

    #[test]
    fn shard_transport_factory_feeds_every_shard() {
        let vs = values(3_000, 40);
        let cfg = config(6).with_secagg(SecAggSettings::default());
        let hier = hier3();
        let make: ShardTransportFactory<'_> =
            &|tseed| Ok(Box::new(InMemoryTransport::new(tseed)) as Box<dyn Transport>);
        let out = RoundBuilder::new(cfg.clone())
            .hierarchical(hier)
            .seed(5)
            .shard_transports(make)
            .run(&vs)
            .unwrap();
        // Default shard transports are the same seeded InMemoryTransport,
        // so the factory path must reproduce the default path exactly.
        let (direct, _) = hierarchical_impl(&vs, &cfg, &hier, 5, None, None).unwrap();
        assert_eq!(
            out.estimate().to_bits(),
            direct.outcome.estimate.to_bits(),
            "factory with mix-seeded in-memory transports must match default"
        );
    }

    #[test]
    fn contradictory_shapes_are_rejected_up_front() {
        let vs = values(100, 10);
        let mut ledger = PrivacyLedger::new();
        let err = RoundBuilder::new(config(4))
            .sharded(2, 0)
            .metered(&mut ledger)
            .run(&vs)
            .unwrap_err();
        assert!(matches!(err, FedError::InvalidConfig(_)));

        let mut t = InMemoryTransport::new(0);
        let err = RoundBuilder::new(config(4))
            .sharded(2, 0)
            .via(&mut t)
            .run(&vs)
            .unwrap_err();
        assert!(matches!(err, FedError::InvalidConfig(_)));

        let make: ShardTransportFactory<'_> =
            &|tseed| Ok(Box::new(InMemoryTransport::new(tseed)) as Box<dyn Transport>);
        let err = RoundBuilder::new(config(4))
            .shard_transports(make)
            .run(&vs)
            .unwrap_err();
        assert!(matches!(err, FedError::InvalidConfig(_)));

        let cfg = FederatedAdaptiveConfig::new(config(4));
        let err = RoundBuilder::new_adaptive(cfg)
            .sharded(2, 0)
            .run(&vs)
            .unwrap_err();
        assert!(matches!(err, FedError::InvalidConfig(_)));
    }

    #[test]
    fn b_send_above_one_is_rejected_not_dropped() {
        let vs = values(2_000, 64);
        let cfg = config(6);
        let multi = FederatedMeanConfig {
            protocol: cfg.protocol.clone().with_b_send(4),
            ..cfg
        };
        let rejected = |res: Result<RoundOutcome, FedError>| match res {
            Err(FedError::InvalidConfig(msg)) => {
                assert!(msg.contains("Corollary 3.2"), "{msg}");
                assert!(msg.contains("FederatedMeanConfig"), "{msg}");
            }
            other => panic!("b_send = 4 must fail closed, got {other:?}"),
        };
        rejected(RoundBuilder::new(multi.clone()).seed(1).run(&vs));
        rejected(RoundBuilder::new(multi.clone()).batched(64).run(&vs));
        rejected(
            RoundBuilder::new(multi.clone())
                .secure(SecAggSettings::default())
                .run(&vs),
        );
        let adaptive = FederatedAdaptiveConfig::new(multi);
        rejected(RoundBuilder::new_adaptive(adaptive).seed(1).run(&vs));
    }

    #[test]
    fn batched_builder_matches_scalar_across_topologies() {
        let vs = values(4_000, 64);

        // Flat, no transport: batched runs over a fresh seeded in-memory
        // transport, bit-identical to the sync engine per seed.
        let scalar = RoundBuilder::new(config(6)).seed(3).run(&vs).unwrap();
        let batched = RoundBuilder::new(config(6))
            .seed(3)
            .batched(256)
            .run(&vs)
            .unwrap();
        assert_eq!(batched.estimate().to_bits(), scalar.estimate().to_bits());
        assert!(batched.wire.is_none());

        // Flat, `.via`: same transport seed, same estimate.
        let mut t = InMemoryTransport::new(9);
        let via = RoundBuilder::new(config(6))
            .seed(3)
            .batched(256)
            .via(&mut t)
            .run(&vs)
            .unwrap();
        assert_eq!(via.estimate().to_bits(), scalar.estimate().to_bits());

        // Sharded: every shard on the chunked wire.
        let scalar = RoundBuilder::new(config(6))
            .sharded(4, 11)
            .run(&vs)
            .unwrap();
        let batched = RoundBuilder::new(config(6))
            .sharded(4, 11)
            .batched(128)
            .run(&vs)
            .unwrap();
        assert_eq!(batched.estimate().to_bits(), scalar.estimate().to_bits());
        assert_eq!(
            batched.sharded().unwrap().reports,
            scalar.sharded().unwrap().reports
        );

        // Adaptive: round-1 feedback rides the Publish frame on either
        // wire, so both sessions batch.
        let cfg = FederatedAdaptiveConfig::new(config(10));
        let scalar = RoundBuilder::new_adaptive(cfg.clone())
            .seed(2)
            .run(&vs)
            .unwrap();
        let batched = RoundBuilder::new_adaptive(cfg)
            .seed(2)
            .batched(256)
            .run(&vs)
            .unwrap();
        assert_eq!(batched.estimate().to_bits(), scalar.estimate().to_bits());

        // Hierarchical: plane-popcount secure tallies per shard.
        let cfg = config(6).with_secagg(SecAggSettings::default());
        let hier = hier3();
        let scalar = RoundBuilder::new(cfg.clone())
            .hierarchical(hier)
            .seed(5)
            .run(&vs)
            .unwrap();
        let batched = RoundBuilder::new(cfg)
            .hierarchical(hier)
            .seed(5)
            .batched(64)
            .run(&vs)
            .unwrap();
        assert_eq!(batched.estimate().to_bits(), scalar.estimate().to_bits());
        assert_eq!(
            batched.hierarchical().unwrap().reports,
            scalar.hierarchical().unwrap().reports
        );
        assert_eq!(
            batched.hierarchical().unwrap().included_shards,
            scalar.hierarchical().unwrap().included_shards
        );
    }

    #[test]
    fn batched_shape_contradictions_are_rejected_up_front() {
        let vs = values(100, 10);

        // Zero chunk.
        let err = RoundBuilder::new(config(4))
            .batched(0)
            .run(&vs)
            .unwrap_err();
        assert!(matches!(err, FedError::InvalidConfig(_)));

        // Shuffle tier permutes per-client submissions.
        let sh = ShuffleConfig::try_new(1e-6).unwrap();
        let err = RoundBuilder::new(shuffle_config(4, 1.0))
            .shuffled(sh)
            .batched(64)
            .run(&vs)
            .unwrap_err();
        assert!(matches!(err, FedError::InvalidConfig(_)));

        // Salvage re-admits parked per-client frames.
        let err = RoundBuilder::new(config(4))
            .salvage(SalvagePolicy::default())
            .batched(64)
            .run(&vs)
            .unwrap_err();
        assert!(matches!(err, FedError::InvalidConfig(_)));

        // Fault injection targets per-client report frames.
        let plan = fednum_fedsim::faults::FaultPlan::new(
            fednum_fedsim::faults::FaultRates::uniform(0.1),
            7,
        )
        .unwrap();
        let err = RoundBuilder::new(config(4).with_faults(plan))
            .batched(64)
            .run(&vs)
            .unwrap_err();
        assert!(matches!(err, FedError::InvalidConfig(_)));
    }

    fn shuffle_config(bits: u32, epsilon: f64) -> FederatedMeanConfig {
        FederatedMeanConfig::new(
            BasicConfig::new(
                FixedPointCodec::integer(bits),
                BitSampling::geometric(bits, 1.0),
            )
            .with_privacy(RandomizedResponse::from_epsilon(epsilon)),
        )
    }

    #[test]
    fn shuffled_builder_matches_the_direct_session() {
        let vs = values(3_000, 32);
        let sh = ShuffleConfig::try_new(1e-6).unwrap();
        let mut t = InMemoryTransport::new(13);
        let direct = run_shuffled_session(
            &vs,
            &shuffle_config(5, 1.0),
            &sh,
            None,
            &mut t,
            &mut StdRng::seed_from_u64(13),
        )
        .unwrap();
        let out = RoundBuilder::new(shuffle_config(5, 1.0))
            .shuffled(sh)
            .seed(13)
            .run(&vs)
            .unwrap();
        assert_eq!(
            out.estimate().to_bits(),
            direct.round.outcome.estimate.to_bits()
        );
        let got = out.shuffled().expect("detail must be Shuffled");
        assert_eq!(
            got.charge.epsilon.to_bits(),
            direct.charge.epsilon.to_bits()
        );
        assert!(out.flat().is_none());

        let mut via = InMemoryTransport::new(13);
        let metered = RoundBuilder::new(shuffle_config(5, 1.0))
            .shuffled(sh)
            .via(&mut via)
            .seed(13)
            .run(&vs)
            .unwrap();
        assert_eq!(metered.estimate().to_bits(), out.estimate().to_bits());
        // Only the TCP transport reports wire metrics.
        assert!(metered.wire.is_none());
    }

    #[test]
    fn shuffled_shape_contradictions_are_rejected_up_front() {
        let vs = values(100, 10);
        let sh = ShuffleConfig::try_new(1e-6).unwrap();

        // No local randomizer to amplify.
        let err = RoundBuilder::new(config(4))
            .shuffled(sh)
            .run(&vs)
            .unwrap_err();
        assert!(matches!(err, FedError::InvalidConfig(_)));

        // Sharded topology.
        let err = RoundBuilder::new(shuffle_config(4, 1.0))
            .shuffled(sh)
            .sharded(2, 0)
            .run(&vs)
            .unwrap_err();
        assert!(matches!(err, FedError::InvalidConfig(_)));

        // Adaptive mode.
        let cfg = FederatedAdaptiveConfig::new(shuffle_config(4, 1.0));
        let err = RoundBuilder::new_adaptive(cfg)
            .shuffled(sh)
            .run(&vs)
            .unwrap_err();
        assert!(matches!(err, FedError::InvalidConfig(_)));

        // Secure aggregation is the tier being replaced.
        let err = RoundBuilder::new(shuffle_config(4, 1.0).with_secagg(SecAggSettings::default()))
            .shuffled(sh)
            .run(&vs)
            .unwrap_err();
        assert!(matches!(err, FedError::InvalidConfig(_)));
    }
}
