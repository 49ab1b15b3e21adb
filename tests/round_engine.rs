//! Frozen outputs of the round engine, per seed and per carrier.
//!
//! Every shape below runs through each way `RoundBuilder` can carry it —
//! the synchronous front door (`.run`), the per-client wire
//! (`.via(transport)`), the chunked wire (`.via(transport).batched(512)`)
//! and, for the shuffle tier, the shuffled wire (`.shuffled(..)`) — and the
//! literal fingerprint of what came out (estimate bits, cohort, waves,
//! secure-aggregation summary, rejections, late frames, retries, traffic
//! bytes per direction, ledger totals) is pinned for seeds 1–3. The parity
//! suites say the carriers agree with each other; this file says none of
//! them moved. A refactor of the engines must leave it passing byte for
//! byte.
//!
//! The same grid of wires is then driven by a hostile far end (the sweep at
//! the bottom): no integer read back off a wire may panic a round.

use fednum::core::encoding::FixedPointCodec;
use fednum::core::privacy::{Amplification, PrivacyLedger, RandomizedResponse};
use fednum::core::protocol::basic::BasicConfig;
use fednum::core::sampling::BitSampling;
use fednum::core::wire::{push_varint, read_varint, ShuffleMessage};
use fednum::fedsim::adaptive_round::FederatedAdaptiveConfig;
use fednum::fedsim::faults::{FaultPlan, FaultRates};
use fednum::fedsim::round::{FederatedMeanConfig, FederatedOutcome, SecAggSettings};
use fednum::fedsim::traffic::TrafficStats;
use fednum::fedsim::{Direction, DropoutModel, LatencyModel, RetryPolicy};
use fednum::hiersec::HierSecConfig;
use fednum::transport::message::SecAggStep;
use fednum::transport::scheduler::mix;
use fednum::transport::{
    Envelope, InMemoryTransport, Message, RoundDetail, ShuffleConfig, ShuffledOutcome,
    SimNetTransport, Tampered, Transport,
};
use fednum::RoundBuilder;
use std::cell::Cell;

const SEEDS: [u64; 3] = [1, 2, 3];

fn values(n: usize, hi: u64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as u64).wrapping_mul(0x5851_F42D) % hi) as f64)
        .collect()
}

fn config(bits: u32, seed: u64) -> FederatedMeanConfig {
    let mut cfg = FederatedMeanConfig::new(BasicConfig::new(
        FixedPointCodec::integer(bits),
        BitSampling::geometric(bits, 1.0),
    ));
    cfg.session_seed = 0xE16E ^ seed;
    cfg
}

/// How a shape travels: which `RoundBuilder` calls carry it.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Carrier {
    Sync,
    Mem,
    MemBatched,
    SimNet,
}

const ALL: [Carrier; 3] = [Carrier::Sync, Carrier::Mem, Carrier::MemBatched];

fn flat_fingerprint(out: &FederatedOutcome, ledger: Option<&PrivacyLedger>) -> String {
    let secagg = out.secagg.map_or("-".to_string(), |s| {
        format!("{}/{}", s.contributors, s.recovered_pairwise)
    });
    let r = &out.robustness;
    let ledger = ledger.map_or("-".to_string(), |l| {
        format!(
            "{}/{}/{:016x}",
            l.clients(),
            l.total_bits(),
            l.max_epsilon_per_client().to_bits()
        )
    });
    format!(
        "est={:016x} reports={} contacted={} waves={} secagg={} rej={}/{}/{}/{}/{}/{} late={} retries={} up={} down={} ledger={}",
        out.outcome.estimate.to_bits(),
        out.reports,
        out.contacted,
        out.waves_used,
        secagg,
        r.rejections.unknown_client,
        r.rejections.duplicate,
        r.rejections.wrong_bit,
        r.rejections.replayed,
        r.rejections.stale_round,
        r.rejections.straggler,
        r.late_frames,
        r.secagg_retries,
        r.traffic.direction_total(Direction::Uplink).bytes,
        r.traffic.direction_total(Direction::Downlink).bytes,
        ledger,
    )
}

/// Runs one flat shape over one carrier and fingerprints the result.
fn run_flat(
    cfg: &FederatedMeanConfig,
    vs: &[f64],
    seed: u64,
    carrier: Carrier,
    metered: bool,
) -> String {
    let mut ledger = PrivacyLedger::new();
    let mut mem = InMemoryTransport::new(seed ^ 0x7A);
    let mut sim = SimNetTransport::for_config(cfg, seed ^ 0x7A);
    let mut builder = RoundBuilder::new(cfg.clone()).seed(seed);
    if metered {
        builder = builder.metered(&mut ledger);
    }
    builder = match carrier {
        Carrier::Sync => builder,
        Carrier::Mem => builder.via(&mut mem),
        Carrier::MemBatched => builder.via(&mut mem).batched(512),
        Carrier::SimNet => builder.via(&mut sim),
    };
    let out = builder.run(vs).expect("anchored round completes");
    let flat = out.flat().expect("flat detail").clone();
    flat_fingerprint(&flat, metered.then_some(&ledger))
}

/// Checks every `(label, fingerprint)` this shape produced against the
/// pinned table; on any difference prints the whole actual table as source.
fn check(shape: &str, actual: &[(String, String)]) {
    let pinned: Vec<(&str, &str)> = ANCHORS
        .iter()
        .copied()
        .filter(|(label, _)| label.split('/').next() == Some(shape))
        .collect();
    let matches = pinned.len() == actual.len()
        && pinned
            .iter()
            .zip(actual)
            .all(|(p, a)| p.0 == a.0 && p.1 == a.1);
    if !matches {
        let mut table = String::new();
        for (label, print) in actual {
            table.push_str(&format!("    (\"{label}\", \"{print}\"),\n"));
        }
        panic!("round-engine anchors moved for `{shape}`; actual:\n{table}");
    }
}

fn flat_shape(
    shape: &str,
    carriers: &[Carrier],
    metered: bool,
    vs: &[f64],
    make: impl Fn(u64) -> FederatedMeanConfig,
) {
    let mut actual = Vec::new();
    for seed in SEEDS {
        let cfg = make(seed);
        for &carrier in carriers {
            actual.push((
                format!("{shape}/{carrier:?}/s{seed}"),
                run_flat(&cfg, vs, seed, carrier, metered),
            ));
        }
    }
    check(shape, &actual);
}

#[test]
fn plain_round_is_frozen_on_every_carrier() {
    flat_shape("plain", &ALL, false, &values(3_000, 200), |s| config(8, s));
}

#[test]
fn dropout_with_a_refill_wave_is_frozen_on_every_carrier() {
    flat_shape("refill", &ALL, false, &values(3_000, 200), |s| {
        config(8, s)
            .with_dropout(DropoutModel::bernoulli(0.3))
            .with_auto_adjust(3, 40, 0.6)
    });
}

#[test]
fn secure_round_with_after_report_dropouts_is_frozen_on_every_carrier() {
    flat_shape("secure", &ALL, false, &values(600, 100), |s| {
        config(7, s)
            .with_dropout(DropoutModel::phased(0.1, 0.05))
            .with_secagg(SecAggSettings::default())
    });
}

#[test]
fn secure_retry_over_the_survivors_is_frozen_and_never_double_bills() {
    // ~40% of the cohort is gone by the unmask round under a 75% threshold:
    // the first attempt fails and the re-masked retry re-charges survivors.
    flat_shape("retry", &ALL, true, &values(300, 100), |s| {
        config(7, s)
            .with_dropout(DropoutModel::phased(0.05, 0.35))
            .with_secagg(SecAggSettings {
                threshold_fraction: 0.75,
                neighbors: None,
            })
            .with_retry(RetryPolicy {
                max_secagg_retries: 2,
                base_backoff: 1.0,
                max_backoff: 8.0,
                min_cohort: 10,
            })
    });
}

fn faulty(seed: u64) -> FederatedMeanConfig {
    let plan = FaultPlan::new(FaultRates::uniform(0.02), 0xFA17 ^ seed).unwrap();
    config(7, seed)
        .with_dropout(DropoutModel::bernoulli(0.1))
        .with_faults(plan)
}

#[test]
fn injected_faults_are_frozen_sync_and_over_the_simulated_network() {
    let carriers = [Carrier::Sync, Carrier::SimNet];
    flat_shape("faults", &carriers, false, &values(3_000, 100), faulty);
}

#[test]
fn naive_server_double_counting_is_frozen_sync_and_over_the_simulated_network() {
    // No validation: duplicate deliveries are tallied twice (`copies > 1`).
    let carriers = [Carrier::Sync, Carrier::SimNet];
    flat_shape("naive", &carriers, false, &values(3_000, 100), |s| {
        faulty(s).naive()
    });
}

#[test]
fn metered_round_bills_a_frozen_ledger_on_every_carrier() {
    flat_shape("metered", &ALL, true, &values(2_000, 64), |s| {
        let mut cfg = config(6, s).with_dropout(DropoutModel::bernoulli(0.2));
        cfg.protocol = cfg
            .protocol
            .with_privacy(RandomizedResponse::from_epsilon(2.0));
        cfg
    });
}

/// A fingerprint's columns without the traffic ones.
fn without_traffic(print: &str) -> Vec<&str> {
    let columns = print.split(' ');
    columns
        .filter(|c| !c.starts_with("up=") && !c.starts_with("down="))
        .collect()
}

/// Runs the two-round adaptive protocol over `make(seed)` on each carrier
/// and fingerprints the pooled estimate and both rounds.
fn adaptive_shape(
    shape: &str,
    carriers: &[Carrier],
    vs: &[f64],
    make: impl Fn(u64) -> FederatedMeanConfig,
) -> Vec<(String, String)> {
    let mut actual = Vec::new();
    for seed in SEEDS {
        let cfg = FederatedAdaptiveConfig::new(make(seed));
        for &carrier in carriers {
            let mut mem = InMemoryTransport::new(seed ^ 0x7A);
            let mut builder = RoundBuilder::new_adaptive(cfg.clone()).seed(seed);
            builder = match carrier {
                Carrier::Mem => builder.via(&mut mem),
                Carrier::MemBatched => builder.via(&mut mem).batched(512),
                _ => builder,
            };
            let out = builder.run(vs).expect("anchored adaptive round completes");
            let a = out.adaptive().expect("adaptive detail");
            actual.push((
                format!("{shape}/{carrier:?}/s{seed}"),
                format!(
                    "est={:016x} | {} | {}",
                    a.estimate.to_bits(),
                    flat_fingerprint(&a.round1, None),
                    flat_fingerprint(&a.round2, None)
                ),
            ));
        }
    }
    check(shape, &actual);
    actual
}

#[test]
fn adaptive_two_round_protocol_is_frozen_sync_and_over_the_wire() {
    let carriers = [Carrier::Sync, Carrier::Mem];
    adaptive_shape("adaptive", &carriers, &values(6_000, 60), |s| {
        config(12, s).with_dropout(DropoutModel::bernoulli(0.2))
    });
}

#[test]
fn adaptive_secure_rounds_are_frozen_and_agree_across_carriers() {
    // Round 2 continues on the RNG round 1's secure tally leaves behind, so
    // this is the one shape where *how* a carrier tallies could show.
    let actual = adaptive_shape("adaptive-secure", &ALL, &values(1_800, 60), |s| {
        config(12, s)
            .with_dropout(DropoutModel::phased(0.1, 0.05))
            .with_secagg(SecAggSettings {
                threshold_fraction: 0.5,
                neighbors: Some(16),
            })
    });
    // Apart from the traffic columns the carriers are indistinguishable.
    for per_seed in actual.chunks(ALL.len()) {
        for (label, print) in per_seed {
            let first = without_traffic(&per_seed[0].1);
            assert_eq!(without_traffic(print), first, "{label}");
        }
    }
}

/// The figure methods are the round: `estimate_mean` on a weighted and on an
/// adaptive config returns the synchronous front door's estimate, bit for
/// bit, from the same RNG.
#[test]
fn mean_mechanisms_are_the_synchronous_round() {
    use fednum::core::privacy::BitSquash;
    use fednum::core::protocol::MeanMechanism;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let vs = values(4_000, 900);
    for seed in SEEDS {
        let mut weighted = config(10, seed).with_dropout(DropoutModel::bernoulli(0.1));
        weighted.protocol = weighted
            .protocol
            .with_privacy(RandomizedResponse::from_epsilon(2.0))
            .with_squash(BitSquash::Absolute(0.05));
        let adaptive = FederatedAdaptiveConfig::new(config(12, seed));

        let mech = weighted.estimate_mean(&vs, &mut StdRng::seed_from_u64(seed));
        let mut rng = StdRng::seed_from_u64(seed);
        let built = RoundBuilder::new(weighted).rng(&mut rng).run(&vs).unwrap();
        assert_eq!(
            mech.to_bits(),
            built.estimate().to_bits(),
            "weighted s{seed}"
        );

        let mech = adaptive.estimate_mean(&vs, &mut StdRng::seed_from_u64(seed));
        let mut rng = StdRng::seed_from_u64(seed);
        let built = RoundBuilder::new_adaptive(adaptive)
            .rng(&mut rng)
            .run(&vs)
            .unwrap();
        assert_eq!(
            mech.to_bits(),
            built.estimate().to_bits(),
            "adaptive s{seed}"
        );
    }
}

/// What a multi-coordinator round pins: the flat columns that exist there,
/// plus which shards stand behind the estimate.
#[allow(clippy::too_many_arguments)]
fn tiered_fingerprint(
    estimate: f64,
    reports: u64,
    contacted: usize,
    waves: u32,
    retries: u32,
    traffic: &TrafficStats,
    included: &[usize],
    degraded: &[usize],
) -> String {
    format!(
        "est={:016x} reports={reports} contacted={contacted} waves={waves} retries={retries} up={} down={} included={included:?} degraded={degraded:?}",
        estimate.to_bits(),
        traffic.direction_total(Direction::Uplink).bytes,
        traffic.direction_total(Direction::Downlink).bytes,
    )
}

#[test]
fn sharded_rounds_are_frozen_on_both_wires() {
    // Shard `s` draws from stream `mix(seed ^ s)`: seeds a shard count
    // apart keep the three runs on disjoint streams.
    let vs = values(3_000, 200);
    let mut actual = Vec::new();
    for (variant, refill) in [("plain", false), ("refill", true)] {
        for seed in SEEDS {
            let mut cfg = config(8, seed);
            if refill {
                cfg = cfg
                    .with_dropout(DropoutModel::bernoulli(0.3))
                    .with_auto_adjust(3, 40, 0.6);
            }
            for carrier in [Carrier::Mem, Carrier::MemBatched] {
                let mut builder = RoundBuilder::new(cfg.clone()).sharded(4, seed << 8);
                if carrier == Carrier::MemBatched {
                    builder = builder.batched(512);
                }
                let out = builder.run(&vs).expect("anchored sharded round completes");
                let s = out.sharded().expect("sharded detail");
                let all: Vec<usize> = (0..s.shards).collect();
                actual.push((
                    format!("sharded/{variant}/{carrier:?}/s{seed}"),
                    tiered_fingerprint(
                        s.outcome.estimate,
                        s.reports,
                        s.contacted,
                        s.waves_used,
                        0,
                        &s.traffic,
                        &all,
                        &[],
                    ),
                ));
            }
        }
    }
    check("sharded", &actual);
}

#[test]
fn hierarchical_secure_rounds_are_frozen_on_both_wires() {
    // The byte columns pin the secure-aggregation framing of both tiers.
    let vs = values(900, 100);
    let mut actual = Vec::new();
    for seed in SEEDS {
        let cfg = config(7, seed)
            .with_dropout(DropoutModel::phased(0.1, 0.05))
            .with_secagg(SecAggSettings::default());
        let hier = HierSecConfig::try_new(3, SecAggSettings::default(), 2, 0x41E2 ^ seed).unwrap();
        for carrier in [Carrier::Mem, Carrier::MemBatched] {
            let mut builder = RoundBuilder::new(cfg.clone())
                .hierarchical(hier)
                .seed(seed << 8);
            if carrier == Carrier::MemBatched {
                builder = builder.batched(512);
            }
            let out = builder
                .run(&vs)
                .expect("anchored hierarchical round completes");
            let h = out.hierarchical().expect("hierarchical detail");
            actual.push((
                format!("hier/{carrier:?}/s{seed}"),
                tiered_fingerprint(
                    h.outcome.estimate,
                    h.reports,
                    h.contacted,
                    h.waves_used,
                    h.secagg_retries,
                    &h.traffic,
                    &h.included_shards,
                    &h.degraded_shards,
                ),
            ));
        }
    }
    check("hier", &actual);
}

/// ε₀ = 1 randomized response over `bits` bits: the local randomizer a
/// shuffled round amplifies.
fn shuffled_config(bits: u32, seed: u64) -> FederatedMeanConfig {
    let mut cfg = FederatedMeanConfig::new(
        BasicConfig::new(
            FixedPointCodec::integer(bits),
            BitSampling::geometric(bits, 1.0),
        )
        .with_privacy(RandomizedResponse::from_epsilon(1.0)),
    );
    cfg.session_seed = 0xA0 + seed;
    cfg
}

fn shuffled_values(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as u64 * 37 + seed) % 200) as f64)
        .collect()
}

/// One metered shuffled round over `carrier`: its report and the ledger it
/// billed.
fn run_shuffled(
    cfg: &FederatedMeanConfig,
    vs: &[f64],
    seed: u64,
    carrier: Carrier,
) -> (ShuffledOutcome, PrivacyLedger) {
    let mut ledger = PrivacyLedger::new();
    let mut mem = InMemoryTransport::new(seed ^ 0xD00D);
    let mut sim = SimNetTransport::new(seed ^ 0xD00D);
    let builder = RoundBuilder::new(cfg.clone())
        .shuffled(ShuffleConfig::try_new(1e-6).unwrap())
        .seed(seed)
        .metered(&mut ledger);
    let out = match carrier {
        Carrier::Mem => builder.via(&mut mem),
        _ => builder.via(&mut sim),
    }
    .run(vs)
    .expect("anchored shuffled round completes");
    (out.shuffled().expect("shuffled detail").clone(), ledger)
}

#[test]
fn shuffled_rounds_are_frozen_in_memory_and_over_the_simulated_network() {
    type Variant = (&'static str, usize, fn(u64) -> FederatedMeanConfig);
    let variants: [Variant; 5] = [
        ("plain", 6_000, |s| shuffled_config(8, s)),
        ("dropout", 6_000, |s| {
            shuffled_config(8, s).with_dropout(DropoutModel::bernoulli(0.3))
        }),
        ("small", 200, |s| shuffled_config(6, s)),
        ("refill", 6_000, |s| {
            shuffled_config(10, s)
                .with_dropout(DropoutModel::bernoulli(0.3))
                .with_auto_adjust(3, 8, 0.7)
        }),
        ("latency", 6_000, |s| {
            shuffled_config(8, s).with_latency(LatencyModel::new(0.5, 0.6, 30.0))
        }),
    ];
    let amplification = Amplification::try_new(1.0, 1e-6).unwrap();
    let mut actual = Vec::new();
    for (variant, n, make) in variants {
        for seed in SEEDS {
            let cfg = make(seed);
            let vs = shuffled_values(n, seed);
            // The shuffler changes who sees the reports in what order, not
            // the round: the synchronous carrier publishes the same bits.
            let sync = RoundBuilder::new(cfg.clone()).seed(seed).run(&vs).unwrap();
            let sync = sync.flat().unwrap();
            for carrier in [Carrier::Mem, Carrier::SimNet] {
                let label = format!("shuffled/{variant}/{carrier:?}/s{seed}");
                let (sh, ledger) = run_shuffled(&cfg, &vs, seed, carrier);
                let round = &sh.round;
                assert_eq!(
                    round.outcome.estimate.to_bits(),
                    sync.outcome.estimate.to_bits(),
                    "{label}"
                );
                assert_eq!(round.completion_time, sync.completion_time, "{label}");
                assert_eq!(
                    ledger.max_epsilon_per_client(),
                    sh.charge.epsilon,
                    "{label}: the round's charge is the largest rate billed"
                );
                if variant == "refill" || variant == "latency" {
                    // Every reporter was billed; the estimate tracks them.
                    let truth = ledger
                        .accounts()
                        .map(|(id, _)| vs[id as usize])
                        .sum::<f64>()
                        / ledger.clients() as f64;
                    let error = (round.outcome.estimate - truth).abs();
                    assert!(error < 6.0 * round.outcome.predicted_std, "{label}");
                }
                if variant == "refill" {
                    // Under 30 % dropout the first wave starves the low
                    // bits; the driver's refill waves cover them.
                    assert!(round.waves_used > 1, "{label}");
                    assert!(round.starved_bits.is_empty(), "{label}");
                    // Each wave is its own anonymity set: the first wave's
                    // reporters paid the amplified rate at its size, the
                    // few refill reporters the local ε₀.
                    let first = ledger.accounts().filter(|(_, a)| a.epsilon < 1.0).count();
                    let rate = amplification.charge(first as u64);
                    assert!(rate.amplified, "{label}");
                    let refill = round.reports - first as u64;
                    assert!(refill > 0 && refill < amplification.min_cohort());
                    for (id, account) in ledger.accounts() {
                        assert!(
                            account.epsilon == rate.epsilon || account.epsilon == 1.0,
                            "{label}: client {id} billed {}",
                            account.epsilon
                        );
                    }
                    assert_eq!(sh.charge, amplification.charge(refill), "{label}");
                }
                actual.push((
                    label,
                    format!(
                        "{} time={} charge={:016x}/{}",
                        flat_fingerprint(round, Some(&ledger)),
                        round.completion_time,
                        sh.charge.epsilon.to_bits(),
                        sh.charge.amplified,
                    ),
                ));
            }
        }
    }
    check("shuffled", &actual);
}

// ---------------------------------------------------------------------
// The hostile sweep: one frame-rewriting far end, every wire.
//
// A socket-backed transport hands the session frames decoded from daemon
// bytes, so every integer in a frame or on its envelope is outside input.
// Each case rewrites one integer of one frame to 0, its type's maximum or
// the first value past its bound, on every builder shape that crosses a
// wire. The round must end `Ok` or in a typed `FedError` — a panic fails
// the test — and where the integer is an index or a routing address an
// out-of-range value must read exactly as that frame being lost. The
// secure-aggregation message rounds carry stand-in payloads no tally reads:
// whatever is done to one of their frames, the round publishes what the
// honest one does, and a frame left undecodable is metered as a lost one
// and booked as dropped, once.

/// The frame a case hits.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Frame {
    Hello,
    RoundConfig,
    AssignBit,
    Report,
    BatchReport,
    Submit,
    Batch,
    /// One secure-aggregation message round of one chunk of senders.
    SecAgg(SecAggStep),
}

impl Frame {
    fn of(msg: &Message) -> Option<Self> {
        Some(match msg {
            Message::Hello { .. } => Frame::Hello,
            Message::RoundConfig(_) => Frame::RoundConfig,
            Message::AssignBit { .. } => Frame::AssignBit,
            Message::Report(_) => Frame::Report,
            Message::BatchReport(_) => Frame::BatchReport,
            Message::Shuffle(ShuffleMessage::Submit { .. }) => Frame::Submit,
            Message::Shuffle(ShuffleMessage::Batch { .. }) => Frame::Batch,
            Message::SecAgg(batch) => Frame::SecAgg(batch.step()),
            _ => return None,
        })
    }
}

/// The integer of it a case rewrites.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Field {
    /// `Envelope::from`.
    From,
    /// `Envelope::to`.
    To,
    /// The bit index: a `Report`'s bit, an assignment's `assigned_bit`, a
    /// `Submit`'s `bit_index`, one `Batch` entry's index.
    Bit,
    /// A `BatchReport`'s chunk nonce, plane slot count and plane count.
    Nonce,
    Slots,
    Bits,
    /// A secure-aggregation frame's step byte and entry count, then its
    /// first entry's sender, item count and first item's field element.
    Step,
    Count,
    Sender,
    Items,
    Element,
}

/// What it is rewritten to.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Value {
    Zero,
    Max,
    /// The first value past the field's bound (for a count: one more than
    /// the frame states).
    PastBound,
}

const SWEEP_BITS: u32 = 6;
const SWEEP_CLIENTS: usize = 240;
const SWEEP_CHUNK: usize = 64;

/// One case of the sweep, and the far end that acts it out: the `victim`th
/// frame of kind `frame` has `field` rewritten to `value` — or, with
/// `lose`, never arrives (for a `Batch` entry: that entry does not).
#[derive(Clone, Copy, Debug)]
struct Case {
    frame: Frame,
    field: Field,
    value: Value,
    victim: usize,
    /// Which `Batch` entry, modulo the batch length.
    entry: usize,
}

impl Case {
    /// Whether this case's rewrite must read exactly as the frame (or
    /// batch entry) being lost.
    fn reads_as_lost(&self) -> bool {
        let out_of_range = self.value != Value::Zero;
        match (self.frame, self.field) {
            // A misshapen chunk fails closed as a whole, whatever the lie.
            (Frame::BatchReport, Field::Slots | Field::Bits) => true,
            (Frame::BatchReport, Field::Nonce) => out_of_range,
            (_, Field::Bit) => out_of_range,
            // Routed by address on the per-client wire only; the shuffler
            // and the chunk tally never read one.
            (Frame::Hello | Frame::Report, Field::From) => out_of_range,
            (Frame::RoundConfig | Frame::AssignBit, Field::To) => out_of_range,
            _ => false,
        }
    }

    /// Whether the case hits a secure-aggregation message round. The
    /// tally is the driver's, so nothing that happens to such a frame may
    /// move the estimate: only the wire's own books can tell.
    fn hits_message_round(&self) -> bool {
        matches!(self.frame, Frame::SecAgg(_))
    }

    /// `undecodable` is set when the frame the far end hands back no
    /// longer decodes: the session must drop it, unmetered, exactly once.
    fn far_end(
        self,
        lose: bool,
        undecodable: &Cell<bool>,
    ) -> impl FnMut(Envelope) -> Option<Envelope> + '_ {
        let mut seen = 0;
        move |mut env| {
            let Ok(msg) = Message::decode(&env.payload) else {
                return Some(env);
            };
            if Frame::of(&msg) != Some(self.frame) {
                return Some(env);
            }
            seen += 1;
            if seen != self.victim + 1 {
                return Some(env);
            }
            if lose && self.frame != Frame::Batch {
                return None;
            }
            let pick = |max: u64, past_bound: u64| match self.value {
                Value::Zero => 0,
                Value::Max => max,
                Value::PastBound => past_bound,
            };
            let bit = pick(u64::from(u8::MAX), u64::from(SWEEP_BITS)) as u8;
            match (self.field, msg) {
                (Field::From, _) => env.from = pick(u64::MAX, SWEEP_CLIENTS as u64),
                (Field::To, _) => env.to = pick(u64::MAX, SWEEP_CLIENTS as u64),
                (Field::Bit, Message::Report(mut r)) => {
                    r.body.reports[0].0 = bit;
                    env.payload = Message::Report(r).encode();
                }
                (Field::Bit, Message::RoundConfig(mut rc)) => {
                    rc.assigned_bit = bit;
                    env.payload = Message::RoundConfig(rc).encode();
                }
                (Field::Bit, Message::AssignBit { .. }) => {
                    env.payload = Message::AssignBit { assigned_bit: bit }.encode();
                }
                (
                    Field::Bit,
                    Message::Shuffle(ShuffleMessage::Submit {
                        round_id, bit: b, ..
                    }),
                ) => {
                    env.payload = Message::Shuffle(ShuffleMessage::Submit {
                        round_id,
                        bit_index: bit,
                        bit: b,
                    })
                    .encode();
                }
                (
                    Field::Bit,
                    Message::Shuffle(ShuffleMessage::Batch {
                        round_id,
                        mut entries,
                    }),
                ) => {
                    let at = self.entry % entries.len();
                    if lose {
                        entries.remove(at);
                    } else {
                        entries[at].0 = bit;
                    }
                    env.payload =
                        Message::Shuffle(ShuffleMessage::Batch { round_id, entries }).encode();
                }
                (_, Message::BatchReport(_)) => {
                    // The plane counts cannot be overstated through the
                    // typed frame (the planes would have to exist), so the
                    // header is rewritten in place: tag · nonce · task ·
                    // slots · plane count · words.
                    let mut pos = 1;
                    let mut header = [0u64; 4];
                    for h in &mut header {
                        *h = read_varint(&env.payload, &mut pos).unwrap();
                    }
                    let chunks = SWEEP_CLIENTS.div_ceil(SWEEP_CHUNK) as u64;
                    match self.field {
                        Field::Nonce => header[0] = pick(u64::MAX, chunks),
                        Field::Slots => header[2] = pick(u64::MAX, header[2] + 1),
                        _ => header[3] = pick(u64::MAX, header[3] + 1),
                    }
                    let mut payload = vec![env.payload[0]];
                    for h in header {
                        push_varint(&mut payload, h);
                    }
                    payload.extend_from_slice(&env.payload[pos..]);
                    env.payload = payload;
                }
                (_, Message::SecAgg(batch)) => {
                    // Rewritten in place, as above: tag · step · round ·
                    // entries, then the first entry's sender · items and
                    // its first item's key (where the step has one) ·
                    // payload.
                    let keyed = matches!(
                        batch.step(),
                        SecAggStep::KeyShares | SecAggStep::UnmaskShares
                    );
                    let mut pos = 2;
                    let mut header = [0u64; 4];
                    for h in &mut header {
                        *h = read_varint(&env.payload, &mut pos).unwrap();
                    }
                    let mut payload = env.payload[..2].to_vec();
                    match self.field {
                        Field::Step => payload[1] = pick(u64::from(u8::MAX), 4) as u8,
                        Field::Count => header[1] = pick(u64::MAX, header[1] + 1),
                        Field::Sender => header[2] = pick(u64::MAX, SWEEP_CLIENTS as u64),
                        Field::Items => header[3] = pick(u64::MAX, header[3] + 1),
                        _ => {}
                    }
                    for h in header {
                        push_varint(&mut payload, h);
                    }
                    let mut rest = env.payload[pos..].to_vec();
                    if self.field == Field::Element {
                        let mut at = 0;
                        if keyed {
                            read_varint(&rest, &mut at).unwrap();
                        }
                        let element = pick(u64::MAX, 1 << 61);
                        rest[at..at + 8].copy_from_slice(&element.to_le_bytes());
                    }
                    payload.extend_from_slice(&rest);
                    env.payload = payload;
                }
                (field, msg) => unreachable!("{field:?} of {msg:?} is not in the sweep"),
            }
            undecodable.set(Message::decode(&env.payload).is_err());
            Some(env)
        }
    }
}

/// The builder shapes that cross a wire, and per shape the `(frame, field)`
/// pairs its frames offer.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Shape {
    PerClient,
    Compressed,
    Batched,
    Shuffled,
    Secure,
    SecureBatched,
    Adaptive,
}

impl Shape {
    const ALL: [Shape; 7] = [
        Shape::PerClient,
        Shape::Compressed,
        Shape::Batched,
        Shape::Shuffled,
        Shape::Secure,
        Shape::SecureBatched,
        Shape::Adaptive,
    ];

    fn targets(self) -> Vec<(Frame, Field)> {
        const PER_CLIENT: &[(Frame, Field)] = &[
            (Frame::Hello, Field::From),
            (Frame::RoundConfig, Field::To),
            (Frame::RoundConfig, Field::Bit),
            (Frame::Report, Field::From),
            (Frame::Report, Field::Bit),
        ];
        const BATCHED: &[(Frame, Field)] = &[
            (Frame::BatchReport, Field::From),
            (Frame::BatchReport, Field::Nonce),
            (Frame::BatchReport, Field::Slots),
            (Frame::BatchReport, Field::Bits),
        ];
        // The frame's integers, each where a message round has one.
        const MESSAGE_ROUNDS: &[(Frame, Field)] = &[
            (Frame::SecAgg(SecAggStep::KeyAdvertise), Field::Step),
            (Frame::SecAgg(SecAggStep::KeyShares), Field::Count),
            (Frame::SecAgg(SecAggStep::KeyShares), Field::Sender),
            (Frame::SecAgg(SecAggStep::KeyShares), Field::Items),
            (Frame::SecAgg(SecAggStep::MaskedInput), Field::Element),
            (Frame::SecAgg(SecAggStep::UnmaskShares), Field::Step),
            (Frame::SecAgg(SecAggStep::UnmaskShares), Field::Element),
        ];
        match self {
            Shape::PerClient | Shape::Adaptive => PER_CLIENT.to_vec(),
            Shape::Secure => [PER_CLIENT, MESSAGE_ROUNDS].concat(),
            Shape::Compressed => vec![
                (Frame::Hello, Field::From),
                (Frame::AssignBit, Field::To),
                (Frame::AssignBit, Field::Bit),
                (Frame::Report, Field::From),
                (Frame::Report, Field::Bit),
            ],
            Shape::Batched => BATCHED.to_vec(),
            Shape::SecureBatched => [BATCHED, MESSAGE_ROUNDS].concat(),
            Shape::Shuffled => vec![
                (Frame::Submit, Field::From),
                (Frame::Submit, Field::Bit),
                (Frame::Batch, Field::From),
                (Frame::Batch, Field::Bit),
            ],
        }
    }

    /// Runs the shape over `transport`: the fingerprint of what it
    /// published, or the typed error it ended in.
    fn run(self, transport: &mut dyn Transport) -> Result<String, String> {
        let mut cfg = config(SWEEP_BITS, 1);
        let vs = values(SWEEP_CLIENTS, 50);
        if matches!(self, Shape::Secure | Shape::SecureBatched) {
            cfg = cfg
                .with_dropout(DropoutModel::phased(0.1, 0.05))
                .with_secagg(SecAggSettings::default());
        }
        let builder = match self {
            Shape::Adaptive => RoundBuilder::new_adaptive(FederatedAdaptiveConfig::new(cfg)),
            Shape::Compressed => RoundBuilder::new(cfg.with_config_compression()),
            Shape::Shuffled => {
                cfg.protocol = cfg
                    .protocol
                    .with_privacy(RandomizedResponse::from_epsilon(1.0));
                RoundBuilder::new(cfg).shuffled(ShuffleConfig::try_new(1e-6).unwrap())
            }
            _ => RoundBuilder::new(cfg),
        };
        let builder = match self {
            Shape::Batched | Shape::SecureBatched => builder.batched(SWEEP_CHUNK),
            _ => builder,
        };
        let out = builder
            .seed(1)
            .via(transport)
            .run(&vs)
            .map_err(|e| e.to_string())?;
        let print = match &out.detail {
            RoundDetail::Flat(flat) => flat_fingerprint(flat, None),
            RoundDetail::Shuffled(sh) => format!(
                "{} charge={:016x}",
                flat_fingerprint(&sh.round, None),
                sh.charge.epsilon.to_bits()
            ),
            RoundDetail::Adaptive(a) => format!(
                "est={:016x} | {} | {}",
                a.estimate.to_bits(),
                flat_fingerprint(&a.round1, None),
                flat_fingerprint(&a.round2, None)
            ),
            other => unreachable!("{other:?} is not in the sweep"),
        };
        Ok(print)
    }
}

/// What a run published, traffic aside — a rewritten frame is metered, a
/// lost one is not.
fn published(run: &Result<String, String>) -> Result<String, String> {
    run.clone().map(|print| without_traffic(&print).join(" "))
}

/// `run` as it must read had the session also dropped one frame as
/// undecodable: booked, once, with the unknown-client rejections (the
/// first `rej=` figure).
fn dropped_once(run: &Result<String, String>) -> Result<String, String> {
    run.clone().map(|print| {
        let (head, tail) = print.split_once("rej=").expect("a rejections column");
        let (unknown, tail) = tail.split_once('/').expect("six rejection classes");
        format!("{head}rej={}/{tail}", unknown.parse::<u64>().unwrap() + 1)
    })
}

#[test]
fn one_rewritten_wire_integer_never_panics_a_round_and_an_index_out_of_range_reads_as_lost() {
    let mut cases = 0;
    let mut lost = 0;
    let mut dropped = 0;
    for shape in Shape::ALL {
        // How many frames of each kind the honest round sends.
        let mut sent: Vec<Frame> = Vec::new();
        let honest = shape.run(&mut Tampered {
            inner: InMemoryTransport::new(1),
            rewrite: |env: Envelope| {
                sent.extend(
                    Message::decode(&env.payload)
                        .ok()
                        .as_ref()
                        .and_then(Frame::of),
                );
                Some(env)
            },
        });
        assert!(honest.is_ok(), "{shape:?}: {honest:?}");
        // Two victims per target on the costly secure shapes, three else.
        let victims = if matches!(shape, Shape::Secure | Shape::SecureBatched) {
            2
        } else {
            3
        };
        for (frame, field) in shape.targets() {
            let count = sent.iter().filter(|&&f| f == frame).count();
            assert!(count > 0, "{shape:?} sends no {frame:?}");
            for value in [Value::Zero, Value::Max, Value::PastBound] {
                for v in 0..victims {
                    let draw = mix(cases as u64 ^ 0x5EED) as usize;
                    let case = Case {
                        frame,
                        field,
                        value,
                        victim: if v == 0 { 0 } else { draw % count },
                        entry: draw >> 32,
                    };
                    println!("{shape:?} {case:?}");
                    let undecodable = Cell::new(false);
                    let run = |lose| {
                        shape.run(&mut Tampered {
                            inner: InMemoryTransport::new(1),
                            rewrite: case.far_end(lose, &undecodable),
                        })
                    };
                    let hostile = run(false);
                    // A frame that no longer decodes is dropped exactly
                    // once: unmetered like a lost one, and on the books.
                    let undecodable = undecodable.get();
                    let book = |run: &Result<String, String>| match undecodable {
                        true => dropped_once(run),
                        false => run.clone(),
                    };
                    if case.hits_message_round() {
                        // Nothing but traffic and that entry may differ
                        // from the honest round.
                        assert_eq!(
                            published(&hostile),
                            published(&book(&honest)),
                            "{shape:?} {case:?}"
                        );
                        if undecodable {
                            assert_eq!(hostile, book(&run(true)), "{shape:?} {case:?}");
                        }
                    } else if case.reads_as_lost() {
                        assert_eq!(
                            published(&hostile),
                            published(&book(&run(true))),
                            "{shape:?} {case:?}"
                        );
                        assert_ne!(
                            published(&hostile),
                            published(&honest),
                            "{shape:?} {case:?} hit nothing"
                        );
                        lost += 1;
                    }
                    dropped += usize::from(undecodable);
                    cases += 1;
                }
            }
        }
    }
    assert!(cases >= 300, "{cases} cases");
    assert!(lost >= 100, "{lost} index cases");
    assert!(dropped >= 50, "{dropped} undecodable frames");
}

/// `(shape/carrier/seed, fingerprint)`, recorded at the commit before the
/// engines were unified; the `adaptive-secure/MemBatched`, `hier` and
/// `sharded` rows at the commit before the secure tally moved into the
/// shared driver, and `adaptive-secure/{Sync,Mem}` after it (before, their
/// round 2 ran on the RNG stream the share-level tally left behind).
///
/// `shuffled/{plain,dropout,small}` were recorded at the commit before the
/// shuffler became a wire on the shared driver and moved in one column:
/// `time` read 1 (the window length) and is now the driver's completion
/// time, 0 without a latency model as on every carrier.
/// `shuffled/{refill,latency}` were recorded after it — the private engine
/// ran one wave and drew no latency, so it had nothing comparable to pin.
///
/// The `secure`, `retry`, `adaptive-secure` and `hier` rows on a wire moved
/// in their `up=` column alone when the four per-client secure-aggregation
/// messages became one batched frame type: field elements are 8 bytes
/// instead of ≈ 9-byte varints, the chunked wire pays one frame header per
/// chunk of senders instead of one per sender, and every entry names its
/// sender (one varint).
const ANCHORS: &[(&str, &str)] = &[
    ("adaptive/Sync/s1", "est=403ddb08461b3d02 | est=4040881f841065bc reports=1601 contacted=2000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=- | est=403dac3bd089da3c reports=3197 contacted=4000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=-"),
    ("adaptive/Mem/s1", "est=403ddb08461b3d02 | est=4040881f841065bc reports=1601 contacted=2000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=22312 down=16111 ledger=- | est=403dac3bd089da3c reports=3197 contacted=4000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=44664 down=32015 ledger=-"),
    ("adaptive/Sync/s2", "est=403d7ede783e84c2 | est=403e9add02258f26 reports=1618 contacted=2000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=- | est=403d74508fc36370 reports=3191 contacted=4000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=-"),
    ("adaptive/Mem/s2", "est=403d7ede783e84c2 | est=403e9add02258f26 reports=1618 contacted=2000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=22463 down=16111 ledger=- | est=403d74508fc36370 reports=3191 contacted=4000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=44614 down=32015 ledger=-"),
    ("adaptive/Sync/s3", "est=403d6633f7190aca | est=4039ccb253275e71 reports=1638 contacted=2000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=- | est=403d92752c99f5ec reports=3164 contacted=4000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=-"),
    ("adaptive/Mem/s3", "est=403d6633f7190aca | est=4039ccb253275e71 reports=1638 contacted=2000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=22642 down=16111 ledger=- | est=403d92752c99f5ec reports=3164 contacted=4000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=44368 down=32015 ledger=-"),
    ("adaptive-secure/Sync/s1", "est=403d49866f323c8f | est=40383bbbbbbbbbbc reports=534 contacted=600 waves=1 secagg=534/66 rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=- | est=403d8741e8481904 reports=1072 contacted=1200 waves=1 secagg=1072/128 rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=-"),
    ("adaptive-secure/Mem/s1", "est=403d49866f323c8f | est=40383bbbbbbbbbbc reports=534 contacted=600 waves=1 secagg=534/66 rej=0/0/0/0/0/0 late=0 retries=0 up=718680 down=5511 ledger=- | est=403d8741e8481904 reports=1072 contacted=1200 waves=1 secagg=1072/128 rej=0/0/0/0/0/0 late=0 retries=0 up=1439450 down=10815 ledger=-"),
    ("adaptive-secure/MemBatched/s1", "est=403d49866f323c8f | est=40383bbbbbbbbbbc reports=534 contacted=600 waves=1 secagg=534/66 rej=0/0/0/0/0/0 late=0 retries=0 up=700126 down=119 ledger=- | est=403d8741e8481904 reports=1072 contacted=1200 waves=1 secagg=1072/128 rej=0/0/0/0/0/0 late=0 retries=0 up=1402014 down=23 ledger=-"),
    ("adaptive-secure/Sync/s2", "est=403ee031dc03591f | est=403b92a7b61e4a9f reports=543 contacted=600 waves=1 secagg=543/57 rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=- | est=403ef5b0a7fe18c6 reports=1092 contacted=1200 waves=1 secagg=1092/108 rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=-"),
    ("adaptive-secure/Mem/s2", "est=403ee031dc03591f | est=403b92a7b61e4a9f reports=543 contacted=600 waves=1 secagg=543/57 rej=0/0/0/0/0/0 late=0 retries=0 up=722403 down=5511 ledger=- | est=403ef5b0a7fe18c6 reports=1092 contacted=1200 waves=1 secagg=1092/108 rej=0/0/0/0/0/0 late=0 retries=0 up=1445465 down=10815 ledger=-"),
    ("adaptive-secure/MemBatched/s2", "est=403ee031dc03591f | est=403b92a7b61e4a9f reports=543 contacted=600 waves=1 secagg=543/57 rej=0/0/0/0/0/0 late=0 retries=0 up=703651 down=119 ledger=- | est=403ef5b0a7fe18c6 reports=1092 contacted=1200 waves=1 secagg=1092/108 rej=0/0/0/0/0/0 late=0 retries=0 up=1407664 down=23 ledger=-"),
    ("adaptive-secure/Sync/s3", "est=403dd1697765a870 | est=40340dda52023769 reports=538 contacted=600 waves=1 secagg=538/62 rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=- | est=403e31d73016af46 reports=1081 contacted=1200 waves=1 secagg=1081/119 rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=-"),
    ("adaptive-secure/Mem/s3", "est=403dd1697765a870 | est=40340dda52023769 reports=538 contacted=600 waves=1 secagg=538/62 rej=0/0/0/0/0/0 late=0 retries=0 up=719959 down=5511 ledger=- | est=403e31d73016af46 reports=1081 contacted=1200 waves=1 secagg=1081/119 rej=0/0/0/0/0/0 late=0 retries=0 up=1442698 down=10815 ledger=-"),
    ("adaptive-secure/MemBatched/s3", "est=403dd1697765a870 | est=40340dda52023769 reports=538 contacted=600 waves=1 secagg=538/62 rej=0/0/0/0/0/0 late=0 retries=0 up=701334 down=119 ledger=- | est=403e31d73016af46 reports=1081 contacted=1200 waves=1 secagg=1081/119 rej=0/0/0/0/0/0 late=0 retries=0 up=1405081 down=23 ledger=-"),
    ("faults/Sync/s1", "est=404852660d601f74 reports=2463 contacted=3000 waves=1 secagg=- rej=0/50/0/59/51/49 late=49 retries=0 up=0 down=0 ledger=-"),
    ("faults/SimNet/s1", "est=404852660d601f74 reports=2463 contacted=3000 waves=1 secagg=- rej=0/50/0/59/51/49 late=49 retries=0 up=36337 down=24015 ledger=-"),
    ("faults/Sync/s2", "est=40482a2c486754c6 reports=2470 contacted=3000 waves=1 secagg=- rej=0/49/0/61/47/60 late=60 retries=0 up=0 down=0 ledger=-"),
    ("faults/SimNet/s2", "est=40482a2c486754c6 reports=2470 contacted=3000 waves=1 secagg=- rej=0/49/0/61/47/60 late=60 retries=0 up=36470 down=24015 ledger=-"),
    ("faults/Sync/s3", "est=40486afb10a5c205 reports=2471 contacted=3000 waves=1 secagg=- rej=0/62/0/49/64/59 late=59 retries=0 up=0 down=0 ledger=-"),
    ("faults/SimNet/s3", "est=40486afb10a5c205 reports=2471 contacted=3000 waves=1 secagg=- rej=0/62/0/49/64/59 late=59 retries=0 up=36730 down=24015 ledger=-"),
    ("hier/Mem/s1", "est=4048dfbf8eed6d0c reports=819 contacted=900 waves=1 retries=0 up=3331850 down=8115 included=[0, 1, 2] degraded=[]"),
    ("hier/MemBatched/s1", "est=4048dfbf8eed6d0c reports=819 contacted=900 waves=1 retries=0 up=3302476 down=39 included=[0, 1, 2] degraded=[]"),
    ("hier/Mem/s2", "est=40469e9c5a8df467 reports=816 contacted=900 waves=1 retries=0 up=3323348 down=8115 included=[0, 1, 2] degraded=[]"),
    ("hier/MemBatched/s2", "est=40469e9c5a8df467 reports=816 contacted=900 waves=1 retries=0 up=3293988 down=39 included=[0, 1, 2] degraded=[]"),
    ("hier/Mem/s3", "est=4048fe5642bcec5a reports=816 contacted=900 waves=1 retries=0 up=3339663 down=8115 included=[0, 1, 2] degraded=[]"),
    ("hier/MemBatched/s3", "est=4048fe5642bcec5a reports=816 contacted=900 waves=1 retries=0 up=3310357 down=39 included=[0, 1, 2] degraded=[]"),
    ("metered/Sync/s1", "est=40400108c53eb5f0 reports=1606 contacted=2000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=1606/1606/3fffffffffffffff"),
    ("metered/Mem/s1", "est=40400108c53eb5f0 reports=1606 contacted=2000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=22359 down=16015 ledger=1606/1606/3fffffffffffffff"),
    ("metered/MemBatched/s1", "est=40400108c53eb5f0 reports=1606 contacted=2000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=3104 down=22 ledger=1606/1606/3fffffffffffffff"),
    ("metered/Sync/s2", "est=403f0845d60e25ba reports=1589 contacted=2000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=1589/1589/3fffffffffffffff"),
    ("metered/Mem/s2", "est=403f0845d60e25ba reports=1589 contacted=2000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=22195 down=16015 ledger=1589/1589/3fffffffffffffff"),
    ("metered/MemBatched/s2", "est=403f0845d60e25ba reports=1589 contacted=2000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=3104 down=22 ledger=1589/1589/3fffffffffffffff"),
    ("metered/Sync/s3", "est=403f41b0905edc9e reports=1586 contacted=2000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=1586/1586/3fffffffffffffff"),
    ("metered/Mem/s3", "est=403f41b0905edc9e reports=1586 contacted=2000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=22172 down=16015 ledger=1586/1586/3fffffffffffffff"),
    ("metered/MemBatched/s3", "est=403f41b0905edc9e reports=1586 contacted=2000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=3104 down=22 ledger=1586/1586/3fffffffffffffff"),
    ("naive/Sync/s1", "est=40488c331b27e800 reports=2672 contacted=3000 waves=1 secagg=- rej=0/0/0/0/0/0 late=49 retries=0 up=0 down=0 ledger=-"),
    ("naive/SimNet/s1", "est=40488c331b27e800 reports=2672 contacted=3000 waves=1 secagg=- rej=0/0/0/0/0/0 late=49 retries=0 up=36337 down=24015 ledger=-"),
    ("naive/Sync/s2", "est=40482ceb5de52a4a reports=2687 contacted=3000 waves=1 secagg=- rej=0/0/0/0/0/0 late=60 retries=0 up=0 down=0 ledger=-"),
    ("naive/SimNet/s2", "est=40482ceb5de52a4a reports=2687 contacted=3000 waves=1 secagg=- rej=0/0/0/0/0/0 late=60 retries=0 up=36470 down=24015 ledger=-"),
    ("naive/Sync/s3", "est=404861e633dfcc20 reports=2705 contacted=3000 waves=1 secagg=- rej=0/0/0/0/0/0 late=59 retries=0 up=0 down=0 ledger=-"),
    ("naive/SimNet/s3", "est=404861e633dfcc20 reports=2705 contacted=3000 waves=1 secagg=- rej=0/0/0/0/0/0 late=59 retries=0 up=36730 down=24015 ledger=-"),
    ("plain/Sync/s1", "est=405928f3558ce2ee reports=3000 contacted=3000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=-"),
    ("plain/Mem/s1", "est=405928f3558ce2ee reports=3000 contacted=3000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=38872 down=24015 ledger=-"),
    ("plain/MemBatched/s1", "est=405928f3558ce2ee reports=3000 contacted=3000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=6064 down=22 ledger=-"),
    ("plain/Sync/s2", "est=405865c2d1ba39d4 reports=3000 contacted=3000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=-"),
    ("plain/Mem/s2", "est=405865c2d1ba39d4 reports=3000 contacted=3000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=38872 down=24015 ledger=-"),
    ("plain/MemBatched/s2", "est=405865c2d1ba39d4 reports=3000 contacted=3000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=6064 down=22 ledger=-"),
    ("plain/Sync/s3", "est=405908276871b5d4 reports=3000 contacted=3000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=-"),
    ("plain/Mem/s3", "est=405908276871b5d4 reports=3000 contacted=3000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=38872 down=24015 ledger=-"),
    ("plain/MemBatched/s3", "est=405908276871b5d4 reports=3000 contacted=3000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=6064 down=22 ledger=-"),
    ("refill/Sync/s1", "est=4058d6361d19f19a reports=1351 contacted=1929 waves=2 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=-"),
    ("refill/Mem/s1", "est=4058d6361d19f19a reports=1351 contacted=1929 waves=2 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=19815 down=15447 ledger=-"),
    ("refill/MemBatched/s1", "est=4058d6361d19f19a reports=1351 contacted=1929 waves=2 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=4136 down=29 ledger=-"),
    ("refill/Sync/s2", "est=40582a5a14f97262 reports=1311 contacted=1926 waves=2 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=-"),
    ("refill/Mem/s2", "est=40582a5a14f97262 reports=1311 contacted=1926 waves=2 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=19446 down=15423 ledger=-"),
    ("refill/MemBatched/s2", "est=40582a5a14f97262 reports=1311 contacted=1926 waves=2 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=4007 down=29 ledger=-"),
    ("refill/Sync/s3", "est=405961758186b93b reports=1370 contacted=1938 waves=3 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=-"),
    ("refill/Mem/s3", "est=405961758186b93b reports=1370 contacted=1938 waves=3 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=20033 down=15519 ledger=-"),
    ("refill/MemBatched/s3", "est=405961758186b93b reports=1370 contacted=1938 waves=3 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=4271 down=36 ledger=-"),
    ("retry/Sync/s1", "est=404b10f4b233dd6c reports=282 contacted=300 waves=1 secagg=168/0 rej=0/0/0/0/0/0 late=0 retries=1 up=0 down=0 ledger=282/282/0000000000000000"),
    ("retry/Mem/s1", "est=404b10f4b233dd6c reports=282 contacted=300 waves=1 secagg=168/0 rej=0/0/0/0/0/0 late=0 retries=1 up=6137296 down=2715 ledger=282/282/0000000000000000"),
    ("retry/MemBatched/s1", "est=404b10f4b233dd6c reports=282 contacted=300 waves=1 secagg=168/0 rej=0/0/0/0/0/0 late=0 retries=1 up=6124125 down=23 ledger=282/282/0000000000000000"),
    ("retry/Sync/s2", "est=40491c3565680bd2 reports=288 contacted=300 waves=1 secagg=186/0 rej=0/0/0/0/0/0 late=0 retries=1 up=0 down=0 ledger=288/288/0000000000000000"),
    ("retry/Mem/s2", "est=40491c3565680bd2 reports=288 contacted=300 waves=1 secagg=186/0 rej=0/0/0/0/0/0 late=0 retries=1 up=6447008 down=2715 ledger=288/288/0000000000000000"),
    ("retry/MemBatched/s2", "est=40491c3565680bd2 reports=288 contacted=300 waves=1 secagg=186/0 rej=0/0/0/0/0/0 late=0 retries=1 up=6433212 down=23 ledger=288/288/0000000000000000"),
    ("retry/Sync/s3", "est=404a204f31385e96 reports=287 contacted=300 waves=1 secagg=194/0 rej=0/0/0/0/0/0 late=0 retries=1 up=0 down=0 ledger=287/287/0000000000000000"),
    ("retry/Mem/s3", "est=404a204f31385e96 reports=287 contacted=300 waves=1 secagg=194/0 rej=0/0/0/0/0/0 late=0 retries=1 up=6592460 down=2715 ledger=287/287/0000000000000000"),
    ("retry/MemBatched/s3", "est=404a204f31385e96 reports=287 contacted=300 waves=1 secagg=194/0 rej=0/0/0/0/0/0 late=0 retries=1 up=6578446 down=23 ledger=287/287/0000000000000000"),
    ("secure/Sync/s1", "est=40481cb0e36c666a reports=538 contacted=600 waves=1 secagg=538/62 rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=-"),
    ("secure/Mem/s1", "est=40481cb0e36c666a reports=538 contacted=600 waves=1 secagg=538/62 rej=0/0/0/0/0/0 late=0 retries=0 up=2331114 down=5415 ledger=-"),
    ("secure/MemBatched/s1", "est=40481cb0e36c666a reports=538 contacted=600 waves=1 secagg=538/62 rej=0/0/0/0/0/0 late=0 retries=0 up=2311730 down=23 ledger=-"),
    ("secure/Sync/s2", "est=40478c518adf6141 reports=530 contacted=600 waves=1 secagg=530/70 rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=-"),
    ("secure/Mem/s2", "est=40478c518adf6141 reports=530 contacted=600 waves=1 secagg=530/70 rej=0/0/0/0/0/0 late=0 retries=0 up=2331821 down=5415 ledger=-"),
    ("secure/MemBatched/s2", "est=40478c518adf6141 reports=530 contacted=600 waves=1 secagg=530/70 rej=0/0/0/0/0/0 late=0 retries=0 up=2312541 down=23 ledger=-"),
    ("secure/Sync/s3", "est=404a4ab316b5cbc4 reports=548 contacted=600 waves=1 secagg=548/52 rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=-"),
    ("secure/Mem/s3", "est=404a4ab316b5cbc4 reports=548 contacted=600 waves=1 secagg=548/52 rej=0/0/0/0/0/0 late=0 retries=0 up=2338245 down=5415 ledger=-"),
    ("secure/MemBatched/s3", "est=404a4ab316b5cbc4 reports=548 contacted=600 waves=1 secagg=548/52 rej=0/0/0/0/0/0 late=0 retries=0 up=2318658 down=23 ledger=-"),
    ("sharded/plain/Mem/s1", "est=405852b931057262 reports=3000 contacted=3000 waves=1 retries=0 up=38872 down=24015 included=[0, 1, 2, 3] degraded=[]"),
    ("sharded/plain/MemBatched/s1", "est=405852b931057262 reports=3000 contacted=3000 waves=1 retries=0 up=6208 down=43 included=[0, 1, 2, 3] degraded=[]"),
    ("sharded/plain/Mem/s2", "est=4058438489fc5e6a reports=3000 contacted=3000 waves=1 retries=0 up=38872 down=24015 included=[0, 1, 2, 3] degraded=[]"),
    ("sharded/plain/MemBatched/s2", "est=4058438489fc5e6a reports=3000 contacted=3000 waves=1 retries=0 up=6208 down=43 included=[0, 1, 2, 3] degraded=[]"),
    ("sharded/plain/Mem/s3", "est=4059010572620ae5 reports=3000 contacted=3000 waves=1 retries=0 up=38872 down=24015 included=[0, 1, 2, 3] degraded=[]"),
    ("sharded/plain/MemBatched/s3", "est=4059010572620ae5 reports=3000 contacted=3000 waves=1 retries=0 up=6208 down=43 included=[0, 1, 2, 3] degraded=[]"),
    ("sharded/refill/Mem/s1", "est=405850fc26453d56 reports=1954 contacted=2767 waves=3 retries=0 up=28569 down=22151 included=[0, 1, 2, 3] degraded=[]"),
    ("sharded/refill/MemBatched/s1", "est=405850fc26453d56 reports=1954 contacted=2767 waves=3 retries=0 up=6748 down=99 included=[0, 1, 2, 3] degraded=[]"),
    ("sharded/refill/Mem/s2", "est=405a39ef6d52b28a reports=1934 contacted=2751 waves=3 retries=0 up=28319 down=22023 included=[0, 1, 2, 3] degraded=[]"),
    ("sharded/refill/MemBatched/s2", "est=405a39ef6d52b28a reports=1934 contacted=2751 waves=3 retries=0 up=6748 down=99 included=[0, 1, 2, 3] degraded=[]"),
    ("sharded/refill/Mem/s3", "est=4059064e93982aab reports=1965 contacted=2786 waves=3 retries=0 up=28740 down=22303 included=[0, 1, 2, 3] degraded=[]"),
    ("sharded/refill/MemBatched/s3", "est=4059064e93982aab reports=1965 contacted=2786 waves=3 retries=0 up=6748 down=99 included=[0, 1, 2, 3] degraded=[]"),
    ("shuffled/plain/Mem/s1", "est=405969a264c04536 reports=6000 contacted=6000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=48006 down=14 ledger=6000/6000/3fd13517697ae014 time=0 charge=3fd13517697ae014/true"),
    ("shuffled/plain/SimNet/s1", "est=405969a264c04536 reports=6000 contacted=6000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=48006 down=14 ledger=6000/6000/3fd13517697ae014 time=0 charge=3fd13517697ae014/true"),
    ("shuffled/plain/Mem/s2", "est=405a26b59189ef9b reports=6000 contacted=6000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=48006 down=14 ledger=6000/6000/3fd13517697ae014 time=0 charge=3fd13517697ae014/true"),
    ("shuffled/plain/SimNet/s2", "est=405a26b59189ef9b reports=6000 contacted=6000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=48006 down=14 ledger=6000/6000/3fd13517697ae014 time=0 charge=3fd13517697ae014/true"),
    ("shuffled/plain/Mem/s3", "est=40598dd68b096bc1 reports=6000 contacted=6000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=48006 down=14 ledger=6000/6000/3fd13517697ae014 time=0 charge=3fd13517697ae014/true"),
    ("shuffled/plain/SimNet/s3", "est=40598dd68b096bc1 reports=6000 contacted=6000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=48006 down=14 ledger=6000/6000/3fd13517697ae014 time=0 charge=3fd13517697ae014/true"),
    ("shuffled/dropout/Mem/s1", "est=40579f7fbb824b68 reports=4147 contacted=6000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=33182 down=14 ledger=4147/4147/3fd437502abdbc05 time=0 charge=3fd437502abdbc05/true"),
    ("shuffled/dropout/SimNet/s1", "est=40579f7fbb824b68 reports=4147 contacted=6000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=33182 down=14 ledger=4147/4147/3fd437502abdbc05 time=0 charge=3fd437502abdbc05/true"),
    ("shuffled/dropout/Mem/s2", "est=4059ba6ed3845380 reports=4207 contacted=6000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=33662 down=14 ledger=4207/4207/3fd4175170dc103a time=0 charge=3fd4175170dc103a/true"),
    ("shuffled/dropout/SimNet/s2", "est=4059ba6ed3845380 reports=4207 contacted=6000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=33662 down=14 ledger=4207/4207/3fd4175170dc103a time=0 charge=3fd4175170dc103a/true"),
    ("shuffled/dropout/Mem/s3", "est=405865fefed74e6e reports=4185 contacted=6000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=33486 down=14 ledger=4185/4185/3fd422fa0323d0f0 time=0 charge=3fd422fa0323d0f0/true"),
    ("shuffled/dropout/SimNet/s3", "est=405865fefed74e6e reports=4185 contacted=6000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=33486 down=14 ledger=4185/4185/3fd422fa0323d0f0 time=0 charge=3fd422fa0323d0f0/true"),
    ("shuffled/small/Mem/s1", "est=40499d37f7213465 reports=200 contacted=200 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=1606 down=14 ledger=200/200/3ff0000000000000 time=0 charge=3ff0000000000000/false"),
    ("shuffled/small/SimNet/s1", "est=40499d37f7213465 reports=200 contacted=200 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=1606 down=14 ledger=200/200/3ff0000000000000 time=0 charge=3ff0000000000000/false"),
    ("shuffled/small/Mem/s2", "est=404ba9edfa3c2f7e reports=200 contacted=200 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=1606 down=14 ledger=200/200/3ff0000000000000 time=0 charge=3ff0000000000000/false"),
    ("shuffled/small/SimNet/s2", "est=404ba9edfa3c2f7e reports=200 contacted=200 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=1606 down=14 ledger=200/200/3ff0000000000000 time=0 charge=3ff0000000000000/false"),
    ("shuffled/small/Mem/s3", "est=404aade0613bdcb8 reports=200 contacted=200 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=1606 down=14 ledger=200/200/3ff0000000000000 time=0 charge=3ff0000000000000/false"),
    ("shuffled/small/SimNet/s3", "est=404aade0613bdcb8 reports=200 contacted=200 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=1606 down=14 ledger=200/200/3ff0000000000000 time=0 charge=3ff0000000000000/false"),
    ("shuffled/refill/Mem/s1", "est=40528b97ab77804d reports=2941 contacted=4218 waves=3 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=23544 down=14 ledger=2941/2941/3ff0000000000000 time=3 charge=3ff0000000000000/false"),
    ("shuffled/refill/SimNet/s1", "est=40528b97ab77804d reports=2941 contacted=4218 waves=3 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=23544 down=14 ledger=2941/2941/3ff0000000000000 time=3 charge=3ff0000000000000/false"),
    ("shuffled/refill/Mem/s2", "est=405de4fed76f04e2 reports=2989 contacted=4213 waves=2 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=23923 down=14 ledger=2989/2989/3ff0000000000000 time=1 charge=3ff0000000000000/false"),
    ("shuffled/refill/SimNet/s2", "est=405de4fed76f04e2 reports=2989 contacted=4213 waves=2 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=23923 down=14 ledger=2989/2989/3ff0000000000000 time=1 charge=3ff0000000000000/false"),
    ("shuffled/refill/Mem/s3", "est=404be849db7f2f96 reports=2995 contacted=4211 waves=3 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=23976 down=14 ledger=2995/2995/3ff0000000000000 time=3 charge=3ff0000000000000/false"),
    ("shuffled/refill/SimNet/s3", "est=404be849db7f2f96 reports=2995 contacted=4211 waves=3 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=23976 down=14 ledger=2995/2995/3ff0000000000000 time=3 charge=3ff0000000000000/false"),
    ("shuffled/latency/Mem/s1", "est=405917b51fddf2fa reports=6000 contacted=6000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=48006 down=14 ledger=6000/6000/3fd13517697ae014 time=3.571296892420504 charge=3fd13517697ae014/true"),
    ("shuffled/latency/SimNet/s1", "est=405917b51fddf2fa reports=6000 contacted=6000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=48006 down=14 ledger=6000/6000/3fd13517697ae014 time=3.571296892420504 charge=3fd13517697ae014/true"),
    ("shuffled/latency/Mem/s2", "est=405884b426f37402 reports=6000 contacted=6000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=48006 down=14 ledger=6000/6000/3fd13517697ae014 time=3.559997191972963 charge=3fd13517697ae014/true"),
    ("shuffled/latency/SimNet/s2", "est=405884b426f37402 reports=6000 contacted=6000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=48006 down=14 ledger=6000/6000/3fd13517697ae014 time=3.559997191972963 charge=3fd13517697ae014/true"),
    ("shuffled/latency/Mem/s3", "est=4059645b7c26fe20 reports=6000 contacted=6000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=48006 down=14 ledger=6000/6000/3fd13517697ae014 time=3.5596516087480032 charge=3fd13517697ae014/true"),
    ("shuffled/latency/SimNet/s3", "est=4059645b7c26fe20 reports=6000 contacted=6000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=48006 down=14 ledger=6000/6000/3fd13517697ae014 time=3.5596516087480032 charge=3fd13517697ae014/true"),
];
