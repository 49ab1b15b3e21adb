//! Loopback TCP ↔ in-process parity: a round driven over a real socket to
//! the persistent coordinator daemon must publish **bit-identical**
//! results — estimate, completion time, robustness telemetry, and the
//! traffic ledger's per-phase totals — to the same round over
//! [`InMemoryTransport`] (fault-free) or [`SimNetTransport`] (faulted).
//!
//! This is the tentpole guarantee of the TCP subsystem: every protocol
//! frame genuinely crosses the kernel's loopback (encoded, fragmented,
//! reassembled, fault-staged server-side, echoed), yet the discrete-event
//! clock and the published statistics cannot tell the difference.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use fednum_core::encoding::FixedPointCodec;
use fednum_core::privacy::{PrivacyLedger, RandomizedResponse};
use fednum_core::protocol::basic::BasicConfig;
use fednum_core::sampling::BitSampling;
use fednum_fedsim::error::FedError;
use fednum_fedsim::faults::{FaultPlan, FaultRates};
use fednum_fedsim::round::{FederatedMeanConfig, FederatedOutcome, SecAggSettings};
use fednum_fedsim::{DropoutModel, LatencyModel, RetryPolicy, SalvagePolicy};
use fednum_hiersec::HierSecConfig;
use fednum_transport::daemon::{self, DaemonConfig, DaemonHandle};
use fednum_transport::net::{Envelope, SimNetTransport, COORDINATOR};
use fednum_transport::{
    HierShardedOutcome, InMemoryTransport, RoundBuilder, ShardTransportFactory, ShuffleConfig,
    TcpTransport, Transport,
};

const BITS: u32 = 8;

fn daemon() -> DaemonHandle {
    daemon::spawn(DaemonConfig::default()).expect("bind loopback daemon")
}

fn base_config(seed: u64) -> FederatedMeanConfig {
    let protocol = BasicConfig::new(
        FixedPointCodec::integer(BITS),
        BitSampling::geometric(BITS, 1.0),
    );
    let mut cfg = FederatedMeanConfig::new(protocol)
        .with_dropout(DropoutModel::bernoulli(0.2))
        .with_retry(RetryPolicy {
            max_secagg_retries: 2,
            base_backoff: 0.5,
            max_backoff: 8.0,
            min_cohort: 5,
        })
        .with_auto_adjust(3, 4, 0.7)
        .with_latency(LatencyModel::new(0.5, 0.6, 30.0));
    cfg.session_seed = seed;
    cfg
}

fn values(n: usize, salt: u64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as u64 * 37 + salt * 13) % 230) as f64)
        .collect()
}

fn run_over(
    vals: &[f64],
    cfg: &FederatedMeanConfig,
    transport: &mut dyn Transport,
    rng_seed: u64,
) -> Result<FederatedOutcome, FedError> {
    RoundBuilder::new(cfg.clone())
        .seed(rng_seed)
        .via(transport)
        .run(vals)
        .map(|out| out.flat().unwrap().clone())
}

fn assert_identical(tag: &str, a: &FederatedOutcome, b: &FederatedOutcome) {
    assert_eq!(
        a.outcome.estimate.to_bits(),
        b.outcome.estimate.to_bits(),
        "{tag}: estimate bits diverge: {} vs {}",
        a.outcome.estimate,
        b.outcome.estimate
    );
    assert_eq!(
        a.outcome.predicted_std.to_bits(),
        b.outcome.predicted_std.to_bits(),
        "{tag}: predicted_std"
    );
    assert_eq!(a.contacted, b.contacted, "{tag}: contacted");
    assert_eq!(a.reports, b.reports, "{tag}: reports");
    assert_eq!(a.waves_used, b.waves_used, "{tag}: waves");
    assert_eq!(
        a.completion_time.to_bits(),
        b.completion_time.to_bits(),
        "{tag}: completion_time"
    );
    assert_eq!(a.starved_bits, b.starved_bits, "{tag}: starved bits");
    assert_eq!(a.secagg, b.secagg, "{tag}: secagg summary");
    assert_eq!(
        a.robustness, b.robustness,
        "{tag}: robustness telemetry (includes the traffic ledger)"
    );
    assert!(
        a.robustness.traffic == b.robustness.traffic,
        "{tag}: per-phase traffic ledger"
    );
}

#[test]
fn plain_and_secagg_rounds_over_loopback_match_in_memory() {
    let handle = daemon();
    let addr = handle.addr();
    let mut secagg_cfg = base_config(0x51);
    secagg_cfg = secagg_cfg.with_secagg(SecAggSettings {
        threshold_fraction: 0.5,
        neighbors: Some(24),
    });
    let cases: Vec<(&str, FederatedMeanConfig, usize)> = vec![
        ("plain", base_config(0x50), 120),
        ("secagg", secagg_cfg, 300),
    ];
    for (tag, cfg, n) in cases {
        let vals = values(n, cfg.session_seed);
        let seed = cfg.session_seed ^ 0xD00D;
        let mut mem = InMemoryTransport::new(seed);
        let reference = run_over(&vals, &cfg, &mut mem, cfg.session_seed).unwrap();
        let mut tcp = TcpTransport::connect(addr, seed).expect("connect");
        let over_tcp = run_over(&vals, &cfg, &mut tcp, cfg.session_seed).unwrap();
        assert_identical(tag, &reference, &over_tcp);
        let wire = tcp.wire_metrics().expect("tcp meters the wire");
        assert!(wire.frames_sent > 0 && wire.frames_received > 0, "{tag}");
        let stats = tcp.close().expect("clean close");
        // The daemon's view of the session and the driver's agree exactly
        // (the Stats reply itself is excluded from the daemon's totals).
        assert_eq!(stats.frames_in, wire.frames_sent + 1, "{tag}: close frame");
        assert_eq!(stats.frames_out, wire.frames_received, "{tag}");
        assert_eq!(stats.bytes_out, wire.bytes_received, "{tag}");
    }
    handle.shutdown().expect("clean daemon shutdown");
}

/// The batched-wire acceptance gate: plain and secagg rounds on the
/// chunked `BatchReport` wire must publish bit-identical estimates to the
/// scalar per-client wire under the same seed, and the batched run itself
/// must be bit-identical across `InMemoryTransport`, fault-free
/// `SimNetTransport`, and a real loopback TCP session (the chunk frames
/// genuinely cross the kernel socket).
#[test]
fn batched_rounds_match_the_scalar_wire_across_all_transports() {
    let handle = daemon();
    let addr = handle.addr();
    let mut secagg_cfg = base_config(0xB5);
    secagg_cfg = secagg_cfg.with_secagg(SecAggSettings {
        threshold_fraction: 0.5,
        neighbors: Some(24),
    });
    let cases: Vec<(&str, FederatedMeanConfig, usize)> = vec![
        ("plain", base_config(0xB4), 120),
        ("secagg", secagg_cfg, 300),
    ];
    for (tag, cfg, n) in cases {
        let vals = values(n, cfg.session_seed);
        let seed = cfg.session_seed ^ 0xD00D;
        let run_batched = |transport: &mut dyn Transport| -> FederatedOutcome {
            RoundBuilder::new(cfg.clone())
                .seed(cfg.session_seed)
                .batched(64)
                .via(transport)
                .run(&vals)
                .map(|out| out.flat().unwrap().clone())
                .unwrap()
        };

        let mut mem_scalar = InMemoryTransport::new(seed);
        let scalar = run_over(&vals, &cfg, &mut mem_scalar, cfg.session_seed).unwrap();
        let mut mem = InMemoryTransport::new(seed);
        let batched_mem = run_batched(&mut mem);
        let mut sim = SimNetTransport::for_config(&cfg, seed);
        let batched_sim = run_batched(&mut sim);
        let mut tcp = TcpTransport::connect(addr, seed).expect("connect");
        let batched_tcp = run_batched(&mut tcp);

        // Estimate parity with the scalar wire (traffic shape differs by
        // design, so only the statistical surface is compared).
        assert_eq!(
            scalar.outcome.estimate.to_bits(),
            batched_mem.outcome.estimate.to_bits(),
            "{tag}: batched wire diverges from the scalar wire"
        );
        assert_eq!(scalar.reports, batched_mem.reports, "{tag}: reports");
        assert_eq!(scalar.contacted, batched_mem.contacted, "{tag}: contacted");
        assert_eq!(scalar.secagg, batched_mem.secagg, "{tag}: secagg summary");

        // Transport parity: the batched run itself is bit-identical
        // everywhere, traffic ledger included.
        assert_identical(&format!("{tag}/simnet"), &batched_mem, &batched_sim);
        assert_identical(&format!("{tag}/tcp"), &batched_mem, &batched_tcp);

        let wire = tcp.wire_metrics().expect("tcp meters the wire");
        assert!(wire.frames_sent > 0 && wire.frames_received > 0, "{tag}");
        tcp.close().expect("clean close");
    }
    handle.shutdown().expect("clean daemon shutdown");
}

#[test]
fn faulted_and_salvage_rounds_over_loopback_match_simnet() {
    let handle = daemon();
    let addr = handle.addr();
    let mixed = FaultRates {
        duplicate: 0.10,
        replay: 0.07,
        straggle: 0.08,
        corrupt_bit: 0.04,
        stale_round: 0.04,
        ..FaultRates::none()
    };
    let mut cases: Vec<(&str, FederatedMeanConfig, usize)> = Vec::new();
    let mut validated = base_config(0x61);
    validated = validated.with_faults(FaultPlan::new(mixed, 0xFA17).unwrap());
    cases.push(("faults+validate", validated.clone(), 300));
    cases.push(("faults+naive", validated.clone().naive(), 300));
    let mut salvage = validated
        .clone()
        .with_salvage(SalvagePolicy::default())
        .with_secagg(SecAggSettings {
            threshold_fraction: 0.5,
            neighbors: Some(24),
        });
    salvage.session_seed = 0x62;
    cases.push(("faults+secagg+salvage", salvage, 400));
    for (tag, cfg, n) in cases {
        let vals = values(n, cfg.session_seed);
        let seed = cfg.session_seed ^ 0xBEEF;
        let mut sim = SimNetTransport::for_config(&cfg, seed);
        let reference = run_over(&vals, &cfg, &mut sim, cfg.session_seed).unwrap();
        let mut tcp = TcpTransport::connect_for_config(addr, &cfg, seed).expect("connect");
        let over_tcp = run_over(&vals, &cfg, &mut tcp, cfg.session_seed).unwrap();
        assert_identical(tag, &reference, &over_tcp);
        if tag == "faults+secagg+salvage" {
            assert!(
                reference.robustness.salvage.is_some(),
                "salvage case must exercise the redeliver path"
            );
        }
        tcp.close().expect("clean close");
    }
    handle.shutdown().expect("clean daemon shutdown");
}

#[test]
fn metered_rounds_bill_the_ledger_identically_over_tcp() {
    let handle = daemon();
    let addr = handle.addr();
    let protocol = BasicConfig::new(
        FixedPointCodec::integer(BITS),
        BitSampling::geometric(BITS, 1.0),
    )
    .with_privacy(RandomizedResponse::from_epsilon(2.5));
    let mut cfg = base_config(0x71);
    cfg.protocol = protocol;
    let vals = values(200, cfg.session_seed);
    let seed = 0xABBA;

    let mut ledger_mem = PrivacyLedger::new();
    let mut mem = InMemoryTransport::new(seed);
    let reference = RoundBuilder::new(cfg.clone())
        .seed(cfg.session_seed)
        .metered(&mut ledger_mem)
        .via(&mut mem)
        .run(&vals)
        .map(|out| out.flat().unwrap().clone())
        .unwrap();

    let mut ledger_tcp = PrivacyLedger::new();
    let mut tcp = TcpTransport::connect(addr, seed).expect("connect");
    let over_tcp = RoundBuilder::new(cfg.clone())
        .seed(cfg.session_seed)
        .metered(&mut ledger_tcp)
        .via(&mut tcp)
        .run(&vals)
        .map(|out| out.flat().unwrap().clone())
        .unwrap();

    assert_identical("metered", &reference, &over_tcp);
    assert_eq!(
        ledger_mem.max_bits_per_client(),
        ledger_tcp.max_bits_per_client(),
        "ledgers diverge over TCP"
    );
    assert_eq!(
        ledger_mem.max_epsilon_per_client(),
        ledger_tcp.max_epsilon_per_client(),
        "epsilon totals diverge over TCP"
    );
    tcp.close().expect("clean close");
    handle.shutdown().expect("clean daemon shutdown");
}

/// The shuffle-tier acceptance gate: a shuffled round over a real loopback
/// socket must be bit-identical — estimate, robustness telemetry, and the
/// per-phase traffic ledger — to the same round over [`InMemoryTransport`],
/// and the metered ledger must bill every reporter the *amplified* central
/// epsilon, strictly below the local ε₀ the randomizer ran at.
#[test]
fn shuffled_rounds_over_loopback_match_in_memory_and_bill_amplified_epsilon() {
    let handle = daemon();
    let addr = handle.addr();
    let local_epsilon = 1.0;
    let mut cfg = base_config(0xB1);
    cfg.protocol = BasicConfig::new(
        FixedPointCodec::integer(BITS),
        BitSampling::geometric(BITS, 1.0),
    )
    .with_privacy(RandomizedResponse::from_epsilon(local_epsilon));
    let shuffle = ShuffleConfig::try_new(1e-6).unwrap();
    let vals = values(5_000, cfg.session_seed);
    let seed = cfg.session_seed ^ 0xD00D;

    let mut ledger_mem = PrivacyLedger::new();
    let mut mem = InMemoryTransport::new(seed);
    let reference = RoundBuilder::new(cfg.clone())
        .shuffled(shuffle)
        .seed(cfg.session_seed)
        .metered(&mut ledger_mem)
        .via(&mut mem)
        .run(&vals)
        .map(|out| out.shuffled().unwrap().clone())
        .unwrap();

    let mut ledger_tcp = PrivacyLedger::new();
    let mut tcp = TcpTransport::connect(addr, seed).expect("connect");
    let over_tcp = RoundBuilder::new(cfg.clone())
        .shuffled(shuffle)
        .seed(cfg.session_seed)
        .metered(&mut ledger_tcp)
        .via(&mut tcp)
        .run(&vals)
        .map(|out| out.shuffled().unwrap().clone())
        .unwrap();

    assert_identical("shuffled", &reference.round, &over_tcp.round);
    assert_eq!(
        reference.charge.epsilon.to_bits(),
        over_tcp.charge.epsilon.to_bits(),
        "privacy charge diverges over TCP"
    );
    assert_eq!(ledger_mem, ledger_tcp, "metered ledgers diverge over TCP");

    // The amplification bound must have engaged: a 5k cohort clears the
    // validity threshold, so the billed rate sits strictly below ε₀.
    assert!(over_tcp.charge.amplified, "cohort must clear the threshold");
    assert!(
        over_tcp.charge.epsilon < local_epsilon,
        "amplified ε {} must be strictly below local ε₀ {local_epsilon}",
        over_tcp.charge.epsilon
    );
    assert_eq!(
        ledger_tcp.max_epsilon_per_client(),
        over_tcp.charge.epsilon,
        "ledger must bill the amplified rate, not the local one"
    );

    let wire = tcp.wire_metrics().expect("tcp meters the wire");
    assert!(wire.frames_sent > 0 && wire.frames_received > 0);
    tcp.close().expect("clean close");
    handle.shutdown().expect("clean daemon shutdown");
}

/// Two-tier secure aggregation with straggler salvage, every shard driven
/// over its own loopback TCP session via the `RoundBuilder` factory hook:
/// the merged outcome must be bit-identical to the all-in-process run, and
/// salvage must genuinely fire so the redeliver path crosses the socket.
#[test]
fn hierarchical_salvage_rounds_over_loopback_match_in_process() {
    use fednum_fedsim::round::SalvageOutcome;

    let handle = daemon();
    let addr = handle.addr();
    let settings = SecAggSettings {
        threshold_fraction: 0.5,
        neighbors: Some(16),
    };
    let cfg = base_config(0x91)
        .with_secagg(settings)
        .with_faults(
            FaultPlan::new(
                FaultRates {
                    straggle: 0.2,
                    ..FaultRates::none()
                },
                0x5A19,
            )
            .unwrap(),
        )
        .with_salvage(SalvagePolicy::default());
    let hier = HierSecConfig::try_new(4, settings, 3, 0xC0FF).unwrap();
    let vals = values(1_200, cfg.session_seed);

    let reference: HierShardedOutcome = RoundBuilder::new(cfg.clone())
        .hierarchical(hier, 2)
        .seed(29)
        .run(&vals)
        .unwrap()
        .hierarchical()
        .unwrap()
        .clone();
    let Some(SalvageOutcome::Salvaged { reports }) = reference.salvage else {
        panic!(
            "salvage must fire so the TCP run exercises redelivery: {:?}",
            reference.salvage
        );
    };
    assert!(reports > 0);

    let make: ShardTransportFactory<'_> = &|tseed| {
        TcpTransport::connect_for_config(addr, &cfg, tseed)
            .map(|t| Box::new(t) as Box<dyn Transport>)
            .map_err(|e| FedError::Transport {
                op: "connect",
                detail: e.to_string(),
            })
    };
    let over_tcp = RoundBuilder::new(cfg.clone())
        .hierarchical(hier, 2)
        .seed(29)
        .shard_transports(make)
        .run(&vals)
        .unwrap();
    let got = over_tcp.hierarchical().expect("hierarchical detail");

    assert_eq!(
        reference.outcome.estimate.to_bits(),
        got.outcome.estimate.to_bits(),
        "hier estimate diverges over TCP: {} vs {}",
        reference.outcome.estimate,
        got.outcome.estimate
    );
    assert_eq!(reference.reports, got.reports, "reports");
    assert_eq!(reference.contacted, got.contacted, "contacted");
    assert_eq!(reference.late_frames, got.late_frames, "late frames");
    assert_eq!(reference.salvage, got.salvage, "salvage outcome");
    assert_eq!(
        reference.salvaged_shards, got.salvaged_shards,
        "salvaged shards"
    );
    assert_eq!(
        reference.completion_time.to_bits(),
        got.completion_time.to_bits(),
        "completion time"
    );
    assert_eq!(reference.traffic, got.traffic, "merged traffic ledger");

    // The factory path meters the wire; every shard session shows up in
    // the merged totals and in the daemon's own accounting.
    let wire = over_tcp.wire.expect("shard sessions meter the wire");
    assert!(wire.frames_sent > 0 && wire.frames_received > 0);
    let stats = handle.shutdown().expect("clean daemon shutdown");
    assert!(
        stats.sessions_opened >= hier.shards as u64,
        "expected one session per shard, saw {}",
        stats.sessions_opened
    );
}

#[test]
fn daemon_serves_three_concurrent_driver_sessions() {
    let handle = daemon();
    let addr = handle.addr();
    let barrier = Arc::new(Barrier::new(3));
    let mut joins = Vec::new();
    for i in 0..3u64 {
        let barrier = Arc::clone(&barrier);
        joins.push(std::thread::spawn(move || {
            let cfg = base_config(0x80 + i);
            let vals = values(150 + 10 * i as usize, cfg.session_seed);
            let seed = cfg.session_seed ^ 0xCAFE;
            // Hold all three connections open simultaneously before running
            // so concurrency is guaranteed, not scheduling luck.
            let mut tcp = TcpTransport::connect(addr, seed).expect("connect");
            barrier.wait();
            let over_tcp = run_over(&vals, &cfg, &mut tcp, cfg.session_seed).unwrap();
            tcp.close().expect("clean close");
            let mut mem = InMemoryTransport::new(seed);
            let reference = run_over(&vals, &cfg, &mut mem, cfg.session_seed).unwrap();
            assert_identical(&format!("concurrent driver {i}"), &reference, &over_tcp);
        }));
    }
    for j in joins {
        j.join().expect("driver thread");
    }
    let stats = handle.shutdown().expect("clean daemon shutdown");
    assert!(
        stats.sessions_opened >= 3,
        "expected 3 sessions, saw {}",
        stats.sessions_opened
    );
    assert!(
        stats.peak_connections >= 3,
        "sessions were serialized: peak {}",
        stats.peak_connections
    );
    assert_eq!(stats.sessions_closed, 3);
    assert_eq!(stats.active_connections, 0);
}

#[test]
fn read_timeouts_surface_as_typed_transport_errors() {
    let handle = daemon::spawn(DaemonConfig {
        read_timeout: Duration::from_millis(100),
        ..DaemonConfig::default()
    })
    .expect("bind");
    let addr = handle.addr();
    let mut tcp = TcpTransport::connect(addr, 1).expect("connect");
    // Let the daemon's idle timeout fire and drop the connection.
    std::thread::sleep(Duration::from_millis(300));
    tcp.send(Envelope {
        from: 0,
        to: COORDINATOR,
        sent_at: 0.0,
        payload: fednum_transport::Message::Hello { round_id: 1 }.encode(),
    });
    assert_eq!(tcp.poll(), None, "failed transport must drain silently");
    match tcp.take_error() {
        Some(FedError::Transport { op, .. }) => {
            assert!(op == "read" || op == "write", "unexpected op {op:?}")
        }
        other => panic!("expected a typed transport error, got {other:?}"),
    }
    let stats = handle.shutdown().expect("clean daemon shutdown");
    assert!(stats.timeouts >= 1, "daemon never counted the idle drop");
}

#[test]
fn shutdown_wakes_idle_connections_and_reports_stats() {
    let handle = daemon();
    let addr = handle.addr();
    // Park an idle session (30s read timeout — only the shutdown wake can
    // end it promptly).
    let parked = TcpTransport::connect(addr, 7).expect("connect");
    let stats = handle
        .shutdown()
        .expect("shutdown must not hang on parked sessions");
    assert_eq!(stats.sessions_opened, 1);
    drop(parked);
}

/// The longitudinal tentpole: a 3-round multi-session campaign over one
/// live TCP connection must be bit-identical — estimates, telemetry,
/// admissions, and ledger digests — to three independent in-memory rounds
/// with the cross-round ledger state threaded through by hand.
#[test]
fn three_round_campaign_over_tcp_matches_independent_in_memory_rounds() {
    use fednum_core::privacy::durable::DurableLedger;
    use fednum_core::wire::CampaignMessage;

    let handle = daemon();
    let addr = handle.addr();
    let policy = CampaignMessage {
        campaign_id: 0xCA9,
        round_index: 0,
        max_bits: Some(100),
        max_epsilon: Some(4.0),
        cooldown_rounds: 2,
        bits_per_round: 16,
        epsilon_per_round: 0.25,
    };
    // Overlapping request windows so the cooldown gate genuinely denies:
    // round 1 re-requests 30 clients charged in round 0.
    let windows: [Vec<u64>; 3] = [(0..60).collect(), (30..90).collect(), (0..60).collect()];
    let client_value = |c: u64| ((c * 37 + 13) % 230) as f64;

    // Reference: the same campaign state machine, in memory, threaded by
    // hand across three *independent* single-round in-memory sessions.
    let mut reference = DurableLedger::in_memory(policy);
    let mut ref_outcomes = Vec::new();
    let mut ref_admissions = Vec::new();
    let mut ref_receipts = Vec::new();
    for (r, window) in windows.iter().enumerate() {
        let cfg = base_config(0xA0 + r as u64);
        let net_seed = cfg.session_seed ^ 0xD00D;
        let admission = reference.admit_round(r as u64, window).unwrap();
        let vals: Vec<f64> = admission
            .admitted
            .iter()
            .map(|&c| client_value(c))
            .collect();
        let mut mem = InMemoryTransport::new(net_seed);
        ref_outcomes.push(run_over(&vals, &cfg, &mut mem, cfg.session_seed).unwrap());
        ref_admissions.push(admission);
        ref_receipts.push(reference.commit_round(r as u64).unwrap());
    }
    assert!(
        ref_admissions[1].denied_cooldown > 0,
        "the window overlap must exercise the cooldown gate"
    );

    // The campaign run: ONE connection, three rounds.
    let first_seed = base_config(0xA0).session_seed ^ 0xD00D;
    let mut tcp = TcpTransport::connect(addr, first_seed).expect("connect");
    let status = tcp.begin_campaign(&policy).expect("open campaign");
    assert_eq!(status.round_index, 0);
    assert_eq!(status.clients, 0);
    assert_eq!(
        status.digest,
        DurableLedger::in_memory(policy).digest(),
        "fresh campaign digest must match the reference state machine"
    );
    for (r, window) in windows.iter().enumerate() {
        let cfg = base_config(0xA0 + r as u64);
        let net_seed = cfg.session_seed ^ 0xD00D;
        let admission = tcp
            .request_round(r as u64, net_seed, cfg.session_seed, window)
            .expect("admission");
        assert!(!admission.already_committed);
        assert_eq!(admission.admitted, ref_admissions[r].admitted, "round {r}");
        assert_eq!(
            (admission.denied_budget, admission.denied_cooldown),
            (
                ref_admissions[r].denied_budget,
                ref_admissions[r].denied_cooldown
            ),
            "round {r} denials"
        );
        let vals: Vec<f64> = admission
            .admitted
            .iter()
            .map(|&c| client_value(c))
            .collect();
        let over_tcp = run_over(&vals, &cfg, &mut tcp, cfg.session_seed).unwrap();
        assert_identical(&format!("campaign round {r}"), &ref_outcomes[r], &over_tcp);
        let receipt = tcp.commit_round(r as u64).expect("commit");
        assert_eq!(receipt.clients_charged, ref_receipts[r].clients_charged);
        assert_eq!(
            receipt.digest, ref_receipts[r].digest,
            "round {r}: committed ledger state diverges from the hand-threaded reference"
        );
    }

    // Idempotency over the wire: re-requesting and re-committing the last
    // round returns the recorded results without re-charging.
    let replay = tcp
        .request_round(2, 0xFFFF, 0xFFFF, &windows[2])
        .expect("replayed admission");
    assert!(replay.already_committed);
    assert_eq!(replay.admitted, ref_admissions[2].admitted);
    let re_receipt = tcp.commit_round(2).expect("idempotent commit");
    assert_eq!(re_receipt.digest, ref_receipts[2].digest);
    tcp.close().expect("clean close");

    // A second connection resuming the campaign sees the committed
    // position, not a fresh ledger.
    let mut resumed = TcpTransport::connect(addr, 1).expect("reconnect");
    let status = resumed.begin_campaign(&policy).expect("resume campaign");
    assert_eq!(status.round_index, 3);
    assert_eq!(status.digest, ref_receipts[2].digest);
    assert!(status.clients > 0 && status.total_bits > 0);
    // A mismatched budget policy must be rejected, not silently adopted.
    let mut wrong = policy;
    wrong.bits_per_round = 8;
    match resumed.begin_campaign(&wrong) {
        Err(FedError::Transport { op: "campaign", .. }) => {}
        other => panic!("policy mismatch must be a campaign error, got {other:?}"),
    }
    resumed.close().expect("clean close");

    let stats = handle.shutdown().expect("clean daemon shutdown");
    assert_eq!(stats.campaigns_opened, 2);
    assert_eq!(stats.rounds_admitted, 4); // 3 live + 1 replayed
    assert_eq!(stats.rounds_committed, 4); // 3 live + 1 idempotent
}

#[test]
fn admin_shutdown_frame_stops_the_daemon() {
    let handle = daemon();
    let addr = handle.addr();
    TcpTransport::request_shutdown(addr).expect("admin shutdown");
    assert!(handle.shutdown_requested());
    handle.shutdown().expect("clean daemon shutdown");
}

/// A wire that severs the driver's socket right after its `n`-th send.
struct SeverAfter<'a> {
    tcp: &'a mut TcpTransport,
    n: usize,
    sent: usize,
}

impl Transport for SeverAfter<'_> {
    fn send(&mut self, env: Envelope) {
        self.tcp.send(env);
        self.sent += 1;
        if self.sent == self.n {
            self.tcp.sever().expect("sever");
        }
    }

    fn poll(&mut self) -> Option<(f64, Envelope)> {
        self.tcp.poll()
    }

    fn peek_time(&self) -> Option<f64> {
        self.tcp.peek_time()
    }

    fn open_window(&mut self, start: f64, deadline: f64) {
        self.tcp.open_window(start, deadline);
    }

    fn redeliver(&mut self, env: Envelope) {
        self.tcp.redeliver(env);
    }

    fn idle(&self) -> bool {
        self.tcp.idle()
    }

    fn wire_metrics(&self) -> Option<fednum_transport::WireMetrics> {
        self.tcp.wire_metrics()
    }

    fn take_error(&mut self) -> Option<FedError> {
        self.tcp.take_error()
    }
}

/// The driver hands out deliveries before their echoes are checked, so a
/// socket cut anywhere in a metered round — on the first send, mid-flight,
/// or after the very last send — must still end in a typed transport
/// error, never a published estimate; the daemon sees a hang-up, not a
/// protocol violation.
#[test]
fn a_socket_severed_after_any_send_fails_the_metered_round() {
    let handle = daemon();
    let addr = handle.addr();
    let mut cfg = base_config(0x5E7);
    cfg.protocol = BasicConfig::new(
        FixedPointCodec::integer(BITS),
        BitSampling::geometric(BITS, 1.0),
    )
    .with_privacy(RandomizedResponse::from_epsilon(2.5));
    let vals = values(2_000, cfg.session_seed);
    let seed = 0x5E7E;
    let run = |n: usize| {
        let mut ledger = PrivacyLedger::new();
        let mut tcp = TcpTransport::connect(addr, seed).expect("connect");
        let mut wire = SeverAfter {
            tcp: &mut tcp,
            n,
            sent: 0,
        };
        let res = RoundBuilder::new(cfg.clone())
            .seed(cfg.session_seed)
            .metered(&mut ledger)
            .via(&mut wire)
            .run(&vals);
        (res, wire.sent)
    };

    let (uncut, last) = run(usize::MAX);
    uncut.expect("an uncut round publishes");
    for n in [1, 100, 1000, last] {
        match run(n).0 {
            Err(FedError::Transport { .. }) => {}
            other => panic!("socket severed after send {n} of {last}: {other:?}"),
        }
    }
    let stats = handle.shutdown().expect("clean daemon shutdown");
    assert_eq!(stats.protocol_errors, 0);
}

/// The driver predicts every echo with its own replay of the daemon's
/// fault stage, so it must re-arm that replay exactly when the daemon
/// re-arms its stage: on a fresh admission, from the round's own seeds,
/// and never on an `already_committed` one. Either mistake makes a faulted
/// round's echoes differ from the prediction, and the round fails.
#[test]
fn faulted_campaign_rounds_rearm_the_replayed_stage_only_on_fresh_admission() {
    use fednum_core::wire::CampaignMessage;

    let handle = daemon();
    let rates = FaultRates {
        duplicate: 0.10,
        replay: 0.07,
        straggle: 0.08,
        corrupt_bit: 0.04,
        ..FaultRates::none()
    };
    let faulted = |seed: u64| base_config(seed).with_faults(FaultPlan::new(rates, 0xFA17).unwrap());
    let policy = CampaignMessage {
        campaign_id: 0xFA,
        round_index: 0,
        max_bits: Some(1_000),
        max_epsilon: Some(100.0),
        cooldown_rounds: 0,
        bits_per_round: 16,
        epsilon_per_round: 0.25,
    };
    let clients: Vec<u64> = (0..80).collect();
    let vals = values(clients.len(), 0xFA);
    let seeds = |r: u64| {
        let cfg = faulted(0xF1 + r);
        (cfg.session_seed ^ 0xD00D, cfg)
    };

    // The handshake's round id (0xF0) is neither round's.
    let mut tcp =
        TcpTransport::connect_for_config(handle.addr(), &faulted(0xF0), 0xD00D).expect("connect");
    tcp.begin_campaign(&policy).expect("open campaign");
    for r in 0..2 {
        let (net_seed, cfg) = seeds(r);
        let admission = tcp
            .request_round(r, net_seed, cfg.session_seed, &clients)
            .expect("admission");
        assert!(!admission.already_committed);
        let mut sim =
            SimNetTransport::with_plan(net_seed, cfg.faults, cfg.validate, cfg.session_seed);
        let reference = run_over(&vals, &cfg, &mut sim, cfg.session_seed).unwrap();
        let over_tcp = run_over(&vals, &cfg, &mut tcp, cfg.session_seed).unwrap();
        assert_identical(
            &format!("faulted campaign round {r}"),
            &reference,
            &over_tcp,
        );
        tcp.commit_round(r).expect("commit");
    }

    // A replayed admission re-arms nothing, whatever seeds it carries: the
    // daemon stays on round 1's stage. A driver that runs anyway is still
    // talking to that stage, and its replay must still agree with every
    // echo.
    let (net_seed, cfg) = seeds(2);
    let replay = tcp
        .request_round(1, net_seed, cfg.session_seed, &clients)
        .expect("replayed admission");
    assert!(replay.already_committed);
    run_over(&vals, &cfg, &mut tcp, cfg.session_seed)
        .expect("the replayed stage kept step with the daemon's");
    tcp.close().expect("clean close");
    handle.shutdown().expect("clean daemon shutdown");
}
