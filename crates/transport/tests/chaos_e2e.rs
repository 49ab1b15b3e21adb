//! Transport chaos end-to-end: the acceptance suite for the
//! fault-injection tier.
//!
//! Three fronts:
//!
//! * **the fleet behind the chaos proxy** — 50 real `fednumc` processes
//!   reach the daemon only through a seeded `netchaos` schedule that
//!   resets well over 20% of their connections mid-stream (plus stalls,
//!   duplicate deliveries, corrupted frames, frame splits, and jitter).
//!   Every round must complete with zero salvage and zero abandonment, no
//!   report may be counted twice, every corruption must cost exactly one
//!   protocol error, and the estimates and cohort draws must be
//!   **bit-identical** to a fault-free run under the same fleet seed —
//!   resume heals faults without perturbing the protocol's arithmetic;
//! * **the campaign driver across a severed connection** — a live TCP
//!   campaign loses its socket between commits, reconnects, replays the
//!   previous round idempotently (`already_committed`, re-commit no-op),
//!   and finishes with the exact ledger digest of an uninterrupted
//!   in-memory reference;
//! * **the daemon's overload defenses under direct attack** — accept
//!   storms shed with a typed `Busy` frame, slow-loris half-frames trip
//!   the read-progress deadline, and oversized buffers are dropped, each
//!   surfaced in both the daemon snapshot and the fleet ledger.

use std::collections::BTreeSet;
use std::fs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use fednum_core::encoding::FixedPointCodec;
use fednum_core::privacy::durable::DurableLedger;
use fednum_core::protocol::basic::BasicConfig;
use fednum_core::sampling::BitSampling;
use fednum_core::wire::{CampaignMessage, FleetMessage, FrameDecoder};
use fednum_fedsim::error::FedError;
use fednum_fedsim::round::FederatedMeanConfig;
use fednum_fedsim::{DropoutModel, LatencyModel, RetryPolicy};
use fednum_transport::daemon::{self, DaemonConfig, DaemonHandle, RoundStream, BUSY_RETRY_MS};
use fednum_transport::fleet::client::{decode_fleet_frame, push_fleet_frame};
use fednum_transport::fleet::{FleetConfig, FleetLedger, FleetRoundReport};
use fednum_transport::{
    ChaosConfig, ChaosProxy, ChaosStats, DaemonSnapshot, InMemoryTransport, RoundBuilder,
    TcpTransport, Transport,
};

// ---------------------------------------------------------------------------
// Fleet through the chaos proxy: bit-identical to the fault-free run.
// ---------------------------------------------------------------------------

const CLIENTS: u64 = 50;
const COHORT: usize = 40;
const ROUNDS: u64 = 2;
const BITS: u32 = 8;
const VALUE_SEED: u64 = 0xF_1EE7_CAFE;
const FLEET_SEED: u64 = 0x5EED_C4A0;

fn fleet_config() -> FleetConfig {
    // Liveness and grace generous enough that a reconnect (tens of ms)
    // plus a worst-case 400 ms stall never expires a session: faults must
    // heal by resume, not salvage, or bit-identity is forfeit.
    FleetConfig::try_new(COHORT, CLIENTS as usize, ROUNDS, BITS, 300, 6_000)
        .expect("valid fleet config")
        .with_seed(FLEET_SEED)
        .with_value_seed(VALUE_SEED)
        .with_round_deadline_ms(60_000)
}

/// The chaos schedule this suite must survive: ~45% of connections
/// reset mid-stream (well past the 20% floor), plus stalls, duplicate
/// deliveries, 5% corrupted frames (as in `reference_schedule`), splits,
/// and jitter. A corrupted uplink frame is a protocol error: the daemon
/// drops that connection, and `fednumc` heals it like a reset, by
/// resuming.
fn chaos_schedule() -> ChaosConfig {
    ChaosConfig {
        seed: 0xC4A0_5EED,
        reset_frac: 0.45,
        stall_frac: 0.15,
        dup_frac: 0.10,
        corrupt_frac: 0.05,
        stall_ms: 400,
        delay_ms: 2,
        split_frames: true,
        ..ChaosConfig::default()
    }
}

fn spawn_client(addr: SocketAddr, client_id: u64) -> Child {
    Command::new(env!("CARGO_BIN_EXE_fednumc"))
        .args([
            "--addr",
            &addr.to_string(),
            "--client-id",
            &client_id.to_string(),
            "--max-seconds",
            "120",
            "--retries",
            "20",
            "--backoff-ms",
            "25",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn fednumc")
}

struct FleetRun {
    reports: Vec<FleetRoundReport>,
    ledger: FleetLedger,
    snapshot: DaemonSnapshot,
    chaos: Option<ChaosStats>,
}

/// Runs the full fleet campaign, optionally through a chaos proxy, and
/// returns every observable artifact. Panics unless every round
/// completes and every participant process exits 0.
fn run_fleet(chaos: Option<ChaosConfig>) -> FleetRun {
    let handle = daemon::spawn(DaemonConfig {
        fleet: Some(fleet_config()),
        ..DaemonConfig::default()
    })
    .expect("bind fleet daemon");
    let proxy = chaos.map(|mut cfg| {
        cfg.upstream = handle.addr().to_string();
        ChaosProxy::spawn(cfg).expect("bind chaos proxy")
    });
    let addr = proxy
        .as_ref()
        .map_or_else(|| handle.addr(), ChaosProxy::addr);

    let mut children: Vec<(u64, Child)> = (1..=CLIENTS)
        .map(|id| (id, spawn_client(addr, id)))
        .collect();

    let deadline = Instant::now() + Duration::from_secs(120);
    while !handle.fleet_done() {
        assert!(
            Instant::now() < deadline,
            "fleet campaign did not complete: {} live, reports so far: {:?}",
            handle.fleet_population(),
            handle.fleet_reports()
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    let reap_deadline = Instant::now() + Duration::from_secs(90);
    for (id, child) in &mut children {
        let status = loop {
            match child.try_wait().expect("query fednumc") {
                Some(status) => break status,
                None => {
                    if Instant::now() >= reap_deadline {
                        let _ = child.kill();
                        panic!("fednumc {id} still running after the campaign ended");
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        };
        assert!(status.success(), "fednumc {id} exited {status}");
    }

    let reports = handle.fleet_reports();
    let ledger = handle.fleet_ledger().expect("fleet daemon has a ledger");
    let chaos = proxy.map(|p| p.shutdown().expect("proxy thread joins"));
    let snapshot = handle.shutdown().expect("daemon threads joined");
    FleetRun {
        reports,
        ledger,
        snapshot,
        chaos,
    }
}

#[test]
#[ignore = "spawns processes; ci.sh runs it"]
fn chaos_run_is_bit_identical_to_the_fault_free_run() {
    let plain = run_fleet(None);
    let chaos = run_fleet(Some(chaos_schedule()));

    // The fault-free baseline is genuinely fault free.
    assert_eq!(plain.ledger.resumes, 0, "baseline saw no resume");
    assert_eq!(plain.ledger.dup_reports, 0, "baseline saw no retransmit");
    assert_eq!(plain.reports.len() as u64, ROUNDS);

    // The schedule actually bit: at least 20% of the fleet's connections
    // were reset mid-stream, and the fleet healed them by resuming.
    let stats = chaos.chaos.expect("chaos run has proxy stats");
    assert!(
        stats.resets >= CLIENTS / 5,
        "schedule must reset >= 20% of the fleet: {stats:?}"
    );
    assert!(
        chaos.ledger.resumes > 0,
        "reset sessions re-bound via resume: {:?}",
        chaos.ledger
    );

    // Every round completed with no salvage and no abandonment — faults
    // were absorbed below the protocol's visibility.
    assert_eq!(chaos.reports.len() as u64, ROUNDS, "every round completed");
    for (p, c) in plain.reports.iter().zip(&chaos.reports) {
        assert_eq!(c.reports + c.abandoned, COHORT as u64);
        assert_eq!(c.abandoned, 0, "round {}: no slot abandoned", c.round);
        assert_eq!(
            c.salvaged_hangup + c.salvaged_heartbeat,
            0,
            "round {}: faults healed by resume, never salvage",
            c.round
        );
        // The acceptance bar: same seed, same cohorts, same arithmetic —
        // the estimate is bit-identical despite the chaos.
        assert_eq!(
            c.estimate.to_bits(),
            p.estimate.to_bits(),
            "round {}: chaos estimate {} != fault-free estimate {}",
            c.round,
            c.estimate,
            p.estimate
        );
        let plain_reporters: BTreeSet<u64> = p.reporters.iter().copied().collect();
        let chaos_reporters: BTreeSet<u64> = c.reporters.iter().copied().collect();
        assert_eq!(
            chaos_reporters, plain_reporters,
            "round {}: the same clients reported",
            c.round
        );
    }

    // The dedup invariants: every report acked exactly once per delivery,
    // every report counted exactly once, every rendezvous-or-resume acked.
    let l = &chaos.ledger;
    assert_eq!(
        l.report_acks,
        l.reports + l.dup_reports,
        "acks cover accepted reports plus recognized retransmits"
    );
    assert_eq!(
        l.reports,
        ROUNDS * COHORT as u64,
        "exactly one counted report per slot — none double-counted"
    );
    assert_eq!(
        l.rendezvous, CLIENTS,
        "every client registered exactly once"
    );
    assert!(
        l.rendezvous_acks <= l.rendezvous + l.resumes,
        "every ack answers a rendezvous or a resume: {l:?}"
    );
    // A rendezvous/resume arriving after the campaign completed is
    // answered with a dismissal instead of an ack.
    assert!(
        l.rendezvous_acks + l.dones >= l.rendezvous + l.resumes,
        "every rendezvous or resume answered with an ack or a dismissal: {l:?}"
    );
    assert_eq!(
        l.cohort_assigns, plain.ledger.cohort_assigns,
        "assignment count identical to the fault-free run (re-sends are \
         ledgered as resumed_assigns)"
    );
    // Every corruption, and nothing else, read as protocol abuse: the
    // reset/stall/dup/split faults never do.
    assert!(
        stats.corruptions > 0,
        "schedule must corrupt a frame: {stats:?}"
    );
    assert_eq!(
        chaos.snapshot.protocol_errors, stats.corruptions,
        "one protocol error per corrupted frame: {stats:?}"
    );
}

// ---------------------------------------------------------------------------
// Campaign driver reconnect: severed socket, idempotent resume.
// ---------------------------------------------------------------------------

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fednum-chaos-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn campaign_policy() -> CampaignMessage {
    CampaignMessage {
        campaign_id: 11,
        round_index: 0,
        max_bits: Some(400),
        max_epsilon: Some(8.0),
        cooldown_rounds: 1,
        bits_per_round: 10,
        epsilon_per_round: 0.25,
    }
}

fn window(round: u64) -> Vec<u64> {
    (round * 3..round * 3 + 8).collect()
}

fn round_config(seed: u64) -> FederatedMeanConfig {
    let protocol = BasicConfig::new(FixedPointCodec::integer(8), BitSampling::geometric(8, 1.0));
    let mut cfg = FederatedMeanConfig::new(protocol)
        .with_dropout(DropoutModel::bernoulli(0.2))
        .with_retry(RetryPolicy {
            max_secagg_retries: 2,
            base_backoff: 0.5,
            max_backoff: 8.0,
            min_cohort: 3,
        })
        .with_latency(LatencyModel::new(0.5, 0.6, 30.0));
    cfg.session_seed = seed;
    cfg
}

fn run_round(vals: &[f64], cfg: &FederatedMeanConfig, transport: &mut dyn Transport) -> u64 {
    RoundBuilder::new(cfg.clone())
        .seed(cfg.session_seed)
        .via(transport)
        .run(vals)
        .map(|out| out.flat().unwrap().outcome.estimate.to_bits())
        .unwrap()
}

#[test]
#[ignore = "spawns processes; ci.sh runs it"]
fn severed_campaign_driver_reconnects_without_double_charging() {
    const E2E_ROUNDS: u64 = 4;
    let campaign = campaign_policy();
    let client_value = |c: u64| ((c * 41 + 5) % 200) as f64;

    // Uninterrupted reference, hand-threaded in memory.
    let mut reference = DurableLedger::in_memory(campaign);
    let mut ref_estimates = Vec::new();
    for r in 0..E2E_ROUNDS {
        let cfg = round_config(0xC4 + r);
        let admission = reference.admit_round(r, &window(r)).unwrap();
        let vals: Vec<f64> = admission
            .admitted
            .iter()
            .map(|&c| client_value(c))
            .collect();
        let mut mem = InMemoryTransport::new(cfg.session_seed ^ 0xFEED);
        ref_estimates.push(run_round(&vals, &cfg, &mut mem));
        reference.commit_round(r).unwrap();
    }
    let ref_digest = reference.digest();

    let dir = tempdir("driver-sever");
    let rounds = RoundStream::recover(&dir, 2).unwrap();
    let handle = daemon::spawn_with_state(DaemonConfig::default(), rounds).unwrap();
    let mut tcp = TcpTransport::connect(handle.addr(), 0xFEED).unwrap();
    tcp.begin_campaign(&campaign).unwrap();

    // Rounds 0 and 1 run and commit normally; remember round 1's receipt
    // to check the post-reconnect replay returns the recorded one.
    let mut receipt1_digest = 0u64;
    for r in 0..2 {
        let cfg = round_config(0xC4 + r);
        let admission = tcp
            .request_round(r, cfg.session_seed ^ 0xFEED, cfg.session_seed, &window(r))
            .unwrap();
        let vals: Vec<f64> = admission
            .admitted
            .iter()
            .map(|&c| client_value(c))
            .collect();
        assert_eq!(run_round(&vals, &cfg, &mut tcp), ref_estimates[r as usize]);
        receipt1_digest = tcp.commit_round(r).unwrap().digest;
    }

    // The fault: the socket dies under the driver. The next exchange
    // surfaces a typed transport error, not a panic or a hang.
    tcp.sever().unwrap();
    let cfg2 = round_config(0xC4 + 2);
    let err = tcp
        .request_round(2, cfg2.session_seed ^ 0xFEED, cfg2.session_seed, &window(2))
        .unwrap_err();
    assert!(
        matches!(err, FedError::Transport { .. }),
        "severed exchange surfaces FedError::Transport, got {err:?}"
    );

    // Reconnect: re-dial, re-handshake, re-bind — the daemon reports its
    // authoritative committed position.
    let status = tcp
        .reconnect()
        .unwrap()
        .expect("campaign was bound, so reconnect returns its status");
    assert_eq!(status.round_index, 2, "resume point after two commits");

    // A driver that lost the commit ack replays the previous round
    // blindly: admission says already_committed (nothing re-staged,
    // nothing re-charged), re-commit returns the recorded receipt.
    let cfg1 = round_config(0xC4 + 1);
    let replay = tcp
        .request_round(1, cfg1.session_seed ^ 0xFEED, cfg1.session_seed, &window(1))
        .unwrap();
    assert!(replay.already_committed, "round 1 was already committed");
    assert_eq!(
        tcp.commit_round(1).unwrap().digest,
        receipt1_digest,
        "re-commit is a no-op returning the recorded receipt"
    );

    // Finish the campaign; estimates and final digest must match the
    // uninterrupted reference bit for bit.
    for r in 2..E2E_ROUNDS {
        let cfg = round_config(0xC4 + r);
        let admission = tcp
            .request_round(r, cfg.session_seed ^ 0xFEED, cfg.session_seed, &window(r))
            .unwrap();
        assert!(!admission.already_committed);
        let vals: Vec<f64> = admission
            .admitted
            .iter()
            .map(|&c| client_value(c))
            .collect();
        assert_eq!(
            run_round(&vals, &cfg, &mut tcp),
            ref_estimates[r as usize],
            "round {r} estimate across the reconnect"
        );
        tcp.commit_round(r).unwrap();
    }
    let receipt = tcp.commit_round(E2E_ROUNDS - 1).unwrap();
    assert_eq!(
        receipt.digest, ref_digest,
        "campaign ledger after the fault is not bit-identical to the \
         uninterrupted reference"
    );
    tcp.close().unwrap();
    handle.shutdown().unwrap();
}

// ---------------------------------------------------------------------------
// Daemon overload defenses, attacked directly with raw sockets.
// ---------------------------------------------------------------------------

/// A fleet that never starts a round: the population floor stays out of
/// reach, so raw-socket tests can rendezvous without being drafted.
fn idle_fleet_config() -> FleetConfig {
    FleetConfig::try_new(4, 64, 1, 8, 500, 10_000)
        .expect("valid fleet config")
        .with_seed(1)
}

/// Reads one framed fleet message, or `None` on EOF.
fn read_fleet_frame(stream: &mut TcpStream) -> Option<FleetMessage> {
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 1024];
    loop {
        match decoder.next_frame() {
            Ok(Some(frame)) => {
                return Some(decode_fleet_frame(&frame).expect("daemon sent a fleet frame"))
            }
            Ok(None) => {}
            Err(e) => panic!("malformed frame from daemon: {e:?}"),
        }
        match stream.read(&mut buf) {
            Ok(0) => return None,
            Ok(n) => decoder.feed(&buf[..n]),
            Err(e) => panic!("read: {e}"),
        }
    }
}

/// Connects and completes a rendezvous, returning the live socket.
fn rendezvous(addr: SocketAddr, client_id: u64) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut out = Vec::new();
    push_fleet_frame(
        &mut out,
        FleetMessage::Rendezvous {
            client_id,
            capabilities: 0,
        },
    );
    stream.write_all(&out).unwrap();
    let ack = read_fleet_frame(&mut stream).expect("rendezvous acked");
    assert!(
        matches!(ack, FleetMessage::RendezvousAck { .. }),
        "expected RendezvousAck, got {ack:?}"
    );
    stream
}

/// Polls the fleet ledger until `pred` holds (the reactor updates
/// counters asynchronously to the socket close we observe).
fn await_ledger(handle: &DaemonHandle, what: &str, pred: impl Fn(&FleetLedger) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let ledger = handle.fleet_ledger().expect("fleet daemon has a ledger");
        if pred(&ledger) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "daemon never ledgered {what}: {ledger:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
#[ignore = "spawns processes; ci.sh runs it"]
fn accept_storm_is_shed_with_a_typed_busy_frame() {
    let handle = daemon::spawn(DaemonConfig {
        fleet: Some(idle_fleet_config()),
        max_connections: 4,
        ..DaemonConfig::default()
    })
    .expect("bind daemon");
    let addr = handle.addr();

    // Fill the connection table with live, rendezvoused participants.
    let _held: Vec<TcpStream> = (1..=4).map(|id| rendezvous(addr, id)).collect();

    // The storm: one connection past the cap. It gets a Busy frame with
    // the retry hint, then the socket closes — it never joins the fleet.
    let mut storm = TcpStream::connect(addr).unwrap();
    storm
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match read_fleet_frame(&mut storm) {
        Some(FleetMessage::Busy { retry_after_ms }) => {
            assert_eq!(retry_after_ms, BUSY_RETRY_MS);
        }
        other => panic!("expected Busy, got {other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(
        storm.read_to_end(&mut rest).unwrap_or(0),
        0,
        "the shed socket closes after the Busy frame"
    );

    await_ledger(&handle, "the busy shed", |l| l.busy_sheds == 1);
    let ledger = handle.fleet_ledger().unwrap();
    assert_eq!(ledger.rendezvous, 4, "the shed socket never rendezvoused");
    drop(_held);
    let snapshot = handle.shutdown().expect("daemon threads joined");
    assert_eq!(snapshot.accept_sheds, 1);
    assert_eq!(snapshot.protocol_errors, 0);
}

#[test]
#[ignore = "spawns processes; ci.sh runs it"]
fn slow_loris_half_frame_trips_the_read_progress_deadline() {
    let handle = daemon::spawn(DaemonConfig {
        fleet: Some(idle_fleet_config()),
        read_progress: Duration::from_millis(200),
        ..DaemonConfig::default()
    })
    .expect("bind daemon");

    let mut stream = rendezvous(handle.addr(), 1);
    // The attack: a frame header promising 5 bytes, then silence. A
    // legitimate peer completes a started frame promptly; this one never
    // does, and heartbeat-level idleness rules don't apply to it.
    stream.write_all(&[0x05]).unwrap();
    let start = Instant::now();
    assert_eq!(
        stream.read_to_end(&mut Vec::new()).unwrap_or(0),
        0,
        "the stalled connection is dropped"
    );
    assert!(
        start.elapsed() < Duration::from_secs(8),
        "drop came from the read-progress deadline, not the idle timeout"
    );

    await_ledger(&handle, "the stalled drop", |l| l.stalled_drops == 1);
    let snapshot = handle.shutdown().expect("daemon threads joined");
    assert_eq!(snapshot.stalled_reads, 1);
}

#[test]
#[ignore = "spawns processes; ci.sh runs it"]
fn oversized_connection_buffer_is_dropped() {
    let handle = daemon::spawn(DaemonConfig {
        fleet: Some(idle_fleet_config()),
        max_conn_buffer: 1024,
        ..DaemonConfig::default()
    })
    .expect("bind daemon");

    let mut stream = rendezvous(handle.addr(), 1);
    // A frame header promising 100 000 bytes followed by 4 KiB of body:
    // the decode buffer blows the (test-sized) bound long before the
    // frame completes.
    let mut attack = Vec::new();
    fednum_core::wire::push_varint(&mut attack, 100_000);
    attack.resize(attack.len() + 4096, 0xAA);
    stream.write_all(&attack).unwrap();
    assert_eq!(
        stream.read_to_end(&mut Vec::new()).unwrap_or(0),
        0,
        "the overflowing connection is dropped"
    );

    await_ledger(&handle, "the overflow drop", |l| l.overflow_drops == 1);
    let snapshot = handle.shutdown().expect("daemon threads joined");
    assert_eq!(snapshot.overflow_drops, 1);
}
