//! Frozen outputs of the round engine, per seed and per carrier.
//!
//! Every shape below runs through each way `RoundBuilder` can carry it —
//! the synchronous front door (`.run`), the per-client wire
//! (`.via(transport)`) and the chunked wire (`.via(transport).batched(512)`)
//! — and the literal fingerprint of what came out (estimate bits, cohort,
//! waves, secure-aggregation summary, rejections, late frames, retries,
//! traffic bytes per direction, ledger totals) is pinned for seeds 1–3.
//! The parity suites say the carriers agree with each other; this file says
//! none of them moved. A refactor of the engines must leave it passing
//! byte for byte.

use fednum::core::encoding::FixedPointCodec;
use fednum::core::privacy::{PrivacyLedger, RandomizedResponse};
use fednum::core::protocol::basic::BasicConfig;
use fednum::core::sampling::BitSampling;
use fednum::fedsim::adaptive_round::FederatedAdaptiveConfig;
use fednum::fedsim::faults::{FaultPlan, FaultRates};
use fednum::fedsim::round::{FederatedMeanConfig, FederatedOutcome, SecAggSettings};
use fednum::fedsim::traffic::TrafficStats;
use fednum::fedsim::{Direction, DropoutModel, RetryPolicy};
use fednum::hiersec::HierSecConfig;
use fednum::transport::{InMemoryTransport, SimNetTransport};
use fednum::RoundBuilder;

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
    fn without_traffic(print: &str) -> Vec<&str> {
        let columns = print.split(' ');
        columns
            .filter(|c| !c.starts_with("up=") && !c.starts_with("down="))
            .collect()
    }
    for per_seed in actual.chunks(ALL.len()) {
        for (label, print) in per_seed {
            let first = without_traffic(&per_seed[0].1);
            assert_eq!(without_traffic(print), first, "{label}");
        }
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
                .hierarchical(hier, 2)
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

/// `(shape/carrier/seed, fingerprint)`, recorded at the commit before the
/// engines were unified; the `adaptive-secure/MemBatched`, `hier` and
/// `sharded` rows at the commit before the secure tally moved into the
/// shared driver, and `adaptive-secure/{Sync,Mem}` after it (before, their
/// round 2 ran on the RNG stream the share-level tally left behind).
const ANCHORS: &[(&str, &str)] = &[
    ("adaptive/Sync/s1", "est=403ddb08461b3d02 | est=4040881f841065bc reports=1601 contacted=2000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=- | est=403dac3bd089da3c reports=3197 contacted=4000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=-"),
    ("adaptive/Mem/s1", "est=403ddb08461b3d02 | est=4040881f841065bc reports=1601 contacted=2000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=22312 down=16111 ledger=- | est=403dac3bd089da3c reports=3197 contacted=4000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=44664 down=32015 ledger=-"),
    ("adaptive/Sync/s2", "est=403d7ede783e84c2 | est=403e9add02258f26 reports=1618 contacted=2000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=- | est=403d74508fc36370 reports=3191 contacted=4000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=-"),
    ("adaptive/Mem/s2", "est=403d7ede783e84c2 | est=403e9add02258f26 reports=1618 contacted=2000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=22463 down=16111 ledger=- | est=403d74508fc36370 reports=3191 contacted=4000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=44614 down=32015 ledger=-"),
    ("adaptive/Sync/s3", "est=403d6633f7190aca | est=4039ccb253275e71 reports=1638 contacted=2000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=- | est=403d92752c99f5ec reports=3164 contacted=4000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=-"),
    ("adaptive/Mem/s3", "est=403d6633f7190aca | est=4039ccb253275e71 reports=1638 contacted=2000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=22642 down=16111 ledger=- | est=403d92752c99f5ec reports=3164 contacted=4000 waves=1 secagg=- rej=0/0/0/0/0/0 late=0 retries=0 up=44368 down=32015 ledger=-"),
    ("adaptive-secure/Sync/s1", "est=403d49866f323c8f | est=40383bbbbbbbbbbc reports=534 contacted=600 waves=1 secagg=534/66 rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=- | est=403d8741e8481904 reports=1072 contacted=1200 waves=1 secagg=1072/128 rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=-"),
    ("adaptive-secure/Mem/s1", "est=403d49866f323c8f | est=40383bbbbbbbbbbc reports=534 contacted=600 waves=1 secagg=534/66 rej=0/0/0/0/0/0 late=0 retries=0 up=729844 down=5511 ledger=- | est=403d8741e8481904 reports=1072 contacted=1200 waves=1 secagg=1072/128 rej=0/0/0/0/0/0 late=0 retries=0 up=1461311 down=10815 ledger=-"),
    ("adaptive-secure/MemBatched/s1", "est=403d49866f323c8f | est=40383bbbbbbbbbbc reports=534 contacted=600 waves=1 secagg=534/66 rej=0/0/0/0/0/0 late=0 retries=0 up=724683 down=119 ledger=- | est=403d8741e8481904 reports=1072 contacted=1200 waves=1 secagg=1072/128 rej=0/0/0/0/0/0 late=0 retries=0 up=1450648 down=23 ledger=-"),
    ("adaptive-secure/Sync/s2", "est=403ee031dc03591f | est=403b92a7b61e4a9f reports=543 contacted=600 waves=1 secagg=543/57 rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=- | est=403ef5b0a7fe18c6 reports=1092 contacted=1200 waves=1 secagg=1092/108 rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=-"),
    ("adaptive-secure/Mem/s2", "est=403ee031dc03591f | est=403b92a7b61e4a9f reports=543 contacted=600 waves=1 secagg=543/57 rej=0/0/0/0/0/0 late=0 retries=0 up=733917 down=5511 ledger=- | est=403ef5b0a7fe18c6 reports=1092 contacted=1200 waves=1 secagg=1092/108 rej=0/0/0/0/0/0 late=0 retries=0 up=1467869 down=10815 ledger=-"),
    ("adaptive-secure/MemBatched/s2", "est=403ee031dc03591f | est=403b92a7b61e4a9f reports=543 contacted=600 waves=1 secagg=543/57 rej=0/0/0/0/0/0 late=0 retries=0 up=728678 down=119 ledger=- | est=403ef5b0a7fe18c6 reports=1092 contacted=1200 waves=1 secagg=1092/108 rej=0/0/0/0/0/0 late=0 retries=0 up=1457033 down=23 ledger=-"),
    ("adaptive-secure/Sync/s3", "est=403dd1697765a870 | est=40340dda52023769 reports=538 contacted=600 waves=1 secagg=538/62 rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=- | est=403e31d73016af46 reports=1081 contacted=1200 waves=1 secagg=1081/119 rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=-"),
    ("adaptive-secure/Mem/s3", "est=403dd1697765a870 | est=40340dda52023769 reports=538 contacted=600 waves=1 secagg=538/62 rej=0/0/0/0/0/0 late=0 retries=0 up=731273 down=5511 ledger=- | est=403e31d73016af46 reports=1081 contacted=1200 waves=1 secagg=1081/119 rej=0/0/0/0/0/0 late=0 retries=0 up=1464840 down=10815 ledger=-"),
    ("adaptive-secure/MemBatched/s3", "est=403dd1697765a870 | est=40340dda52023769 reports=538 contacted=600 waves=1 secagg=538/62 rej=0/0/0/0/0/0 late=0 retries=0 up=726083 down=119 ledger=- | est=403e31d73016af46 reports=1081 contacted=1200 waves=1 secagg=1081/119 rej=0/0/0/0/0/0 late=0 retries=0 up=1454104 down=23 ledger=-"),
    ("faults/Sync/s1", "est=404852660d601f74 reports=2463 contacted=3000 waves=1 secagg=- rej=0/50/0/59/51/49 late=49 retries=0 up=0 down=0 ledger=-"),
    ("faults/SimNet/s1", "est=404852660d601f74 reports=2463 contacted=3000 waves=1 secagg=- rej=0/50/0/59/51/49 late=49 retries=0 up=36337 down=24015 ledger=-"),
    ("faults/Sync/s2", "est=40482a2c486754c6 reports=2470 contacted=3000 waves=1 secagg=- rej=0/49/0/61/47/60 late=60 retries=0 up=0 down=0 ledger=-"),
    ("faults/SimNet/s2", "est=40482a2c486754c6 reports=2470 contacted=3000 waves=1 secagg=- rej=0/49/0/61/47/60 late=60 retries=0 up=36470 down=24015 ledger=-"),
    ("faults/Sync/s3", "est=40486afb10a5c205 reports=2471 contacted=3000 waves=1 secagg=- rej=0/62/0/49/64/59 late=59 retries=0 up=0 down=0 ledger=-"),
    ("faults/SimNet/s3", "est=40486afb10a5c205 reports=2471 contacted=3000 waves=1 secagg=- rej=0/62/0/49/64/59 late=59 retries=0 up=36730 down=24015 ledger=-"),
    ("hier/Mem/s1", "est=4048dfbf8eed6d0c reports=819 contacted=900 waves=1 retries=0 up=3360696 down=8115 included=[0, 1, 2] degraded=[]"),
    ("hier/MemBatched/s1", "est=4048dfbf8eed6d0c reports=819 contacted=900 waves=1 retries=0 up=3351545 down=39 included=[0, 1, 2] degraded=[]"),
    ("hier/Mem/s2", "est=40469e9c5a8df467 reports=816 contacted=900 waves=1 retries=0 up=3351280 down=8115 included=[0, 1, 2] degraded=[]"),
    ("hier/MemBatched/s2", "est=40469e9c5a8df467 reports=816 contacted=900 waves=1 retries=0 up=3342149 down=39 included=[0, 1, 2] degraded=[]"),
    ("hier/Mem/s3", "est=4048fe5642bcec5a reports=816 contacted=900 waves=1 retries=0 up=3369359 down=8115 included=[0, 1, 2] degraded=[]"),
    ("hier/MemBatched/s3", "est=4048fe5642bcec5a reports=816 contacted=900 waves=1 retries=0 up=3360234 down=39 included=[0, 1, 2] degraded=[]"),
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
    ("retry/Mem/s1", "est=404b10f4b233dd6c reports=282 contacted=300 waves=1 secagg=168/0 rej=0/0/0/0/0/0 late=0 retries=1 up=6158260 down=2715 ledger=282/282/0000000000000000"),
    ("retry/MemBatched/s1", "est=404b10f4b233dd6c reports=282 contacted=300 waves=1 secagg=168/0 rej=0/0/0/0/0/0 late=0 retries=1 up=6155212 down=23 ledger=282/282/0000000000000000"),
    ("retry/Sync/s2", "est=40491c3565680bd2 reports=288 contacted=300 waves=1 secagg=186/0 rej=0/0/0/0/0/0 late=0 retries=1 up=0 down=0 ledger=288/288/0000000000000000"),
    ("retry/Mem/s2", "est=40491c3565680bd2 reports=288 contacted=300 waves=1 secagg=186/0 rej=0/0/0/0/0/0 late=0 retries=1 up=6467000 down=2715 ledger=288/288/0000000000000000"),
    ("retry/MemBatched/s2", "est=40491c3565680bd2 reports=288 contacted=300 waves=1 secagg=186/0 rej=0/0/0/0/0/0 late=0 retries=1 up=6463897 down=23 ledger=288/288/0000000000000000"),
    ("retry/Sync/s3", "est=404a204f31385e96 reports=287 contacted=300 waves=1 secagg=194/0 rej=0/0/0/0/0/0 late=0 retries=1 up=0 down=0 ledger=287/287/0000000000000000"),
    ("retry/Mem/s3", "est=404a204f31385e96 reports=287 contacted=300 waves=1 secagg=194/0 rej=0/0/0/0/0/0 late=0 retries=1 up=6611775 down=2715 ledger=287/287/0000000000000000"),
    ("retry/MemBatched/s3", "est=404a204f31385e96 reports=287 contacted=300 waves=1 secagg=194/0 rej=0/0/0/0/0/0 late=0 retries=1 up=6608681 down=23 ledger=287/287/0000000000000000"),
    ("secure/Sync/s1", "est=40481cb0e36c666a reports=538 contacted=600 waves=1 secagg=538/62 rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=-"),
    ("secure/Mem/s1", "est=40481cb0e36c666a reports=538 contacted=600 waves=1 secagg=538/62 rej=0/0/0/0/0/0 late=0 retries=0 up=2360922 down=5415 ledger=-"),
    ("secure/MemBatched/s1", "est=40481cb0e36c666a reports=538 contacted=600 waves=1 secagg=538/62 rej=0/0/0/0/0/0 late=0 retries=0 up=2354926 down=23 ledger=-"),
    ("secure/Sync/s2", "est=40478c518adf6141 reports=530 contacted=600 waves=1 secagg=530/70 rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=-"),
    ("secure/Mem/s2", "est=40478c518adf6141 reports=530 contacted=600 waves=1 secagg=530/70 rej=0/0/0/0/0/0 late=0 retries=0 up=2361764 down=5415 ledger=-"),
    ("secure/MemBatched/s2", "est=40478c518adf6141 reports=530 contacted=600 waves=1 secagg=530/70 rej=0/0/0/0/0/0 late=0 retries=0 up=2355842 down=23 ledger=-"),
    ("secure/Sync/s3", "est=404a4ab316b5cbc4 reports=548 contacted=600 waves=1 secagg=548/52 rej=0/0/0/0/0/0 late=0 retries=0 up=0 down=0 ledger=-"),
    ("secure/Mem/s3", "est=404a4ab316b5cbc4 reports=548 contacted=600 waves=1 secagg=548/52 rej=0/0/0/0/0/0 late=0 retries=0 up=2368759 down=5415 ledger=-"),
    ("secure/MemBatched/s3", "est=404a4ab316b5cbc4 reports=548 contacted=600 waves=1 secagg=548/52 rej=0/0/0/0/0/0 late=0 retries=0 up=2362680 down=23 ledger=-"),
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
];
