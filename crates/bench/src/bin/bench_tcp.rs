//! Loopback benchmark for the TCP transport and coordinator daemon.
//!
//! Spawns an in-process `fednumd`-style daemon (the same
//! [`fednum_transport::daemon`] the binary wraps), drives seeded rounds
//! through [`TcpTransport`] on 127.0.0.1, and writes
//! `results/BENCH_tcp.json`. Three sections:
//!
//! 1. **parity** — one seeded round over the socket must publish the
//!    bit-identical estimate to the same round over
//!    [`InMemoryTransport`]; a mismatch exits nonzero (the throughput
//!    numbers would be meaningless if the transport were wrong);
//! 2. **serial** — single-session round throughput, measured as daemon-
//!    accepted client envelope frames per wall-clock second. **Gate:
//!    ≥ 100k client frames/s**, the ISSUE acceptance bar the pipelined
//!    sender (see `transport::tcp` docs) exists to clear;
//! 3. **concurrent** — the same rounds from 3 driver threads at once,
//!    pinning that the daemon actually serves ≥ 3 sessions in parallel
//!    (`peak_connections` is asserted, not assumed) and shuts down
//!    cleanly afterwards (leaked worker threads exit nonzero).
//!
//! Usage:
//!
//! ```text
//! bench_tcp [--quick|--smoke] [--out PATH] [--addr HOST:PORT] [--shutdown-daemon]
//! bench_tcp --longitudinal [--quick|--smoke] [--out PATH]
//! bench_tcp --fleet [--smoke] [--out PATH]
//! bench_tcp --chaos [--smoke] [--out PATH]
//! bench_tcp --planes [--quick|--smoke] [--out PATH]
//! ```
//!
//! `--quick` shrinks the population for CI smoke runs; the frames/s gate
//! and the parity/shutdown asserts still apply. `--smoke` is `--quick`
//! plus the artifact-naming convention: the default output path gains a
//! `_smoke` suffix (`results/BENCH_tcp_smoke.json`), so CI never
//! overwrites a full run's numbers (see EXPERIMENTS.md §artifact
//! naming) — and, being a correctness script's step, it reports a
//! frames/s number below the gate without exiting on it: that number is
//! the host's (timing claims go through `benchmark/run.sh compare` on
//! `tcp_campaign`). With `--addr` the bench drives an already-running `fednumd`
//! instead of spawning in-process — the `tcp-loopback` CI smoke uses
//! this to exercise the real binary, checking its exit status and
//! printed peak-concurrency line from the shell — and
//! `--shutdown-daemon` sends the admin `Shutdown` frame when done.
//!
//! `--longitudinal` benchmarks the multi-round campaign path instead:
//! N rounds over one live connection (ephemeral and durable-WAL daemons)
//! against the same N rounds over fresh per-round sessions, writing
//! `results/BENCH_longitudinal.json`. **Gate: the campaign's per-round
//! amortized session overhead (handshake + admit/commit framing + WAL
//! fsyncs) stays ≤ 10% of the fresh-session single-round cost.**
//!
//! `--planes` benchmarks the bit-plane batched wire against the scalar
//! per-client wire over the same loopback daemon, writing
//! `results/BENCH_planes.json`. **Gates: plain and secagg batched rounds
//! publish estimates bit-identical to the scalar wire per seed, and the
//! batched path aggregates client reports ≥ 10× faster than the scalar
//! wire's client frames/s measured in the same run.**
//!
//! `--fleet` benchmarks the fleet subsystem end to end: an in-process
//! fleet daemon plus a `fleet::client::ClientPool` of nonblocking
//! participant sessions on one thread, writing
//! `results/BENCH_fleet.json`. **Gates:
//! ≥ 5k concurrently-connected idle clients sustained (zero drops)
//! while a 1k-cohort round completes within the wall-clock budget.**
//! The fleet population is NOT shrunk by `--smoke` — the concurrency
//! gate is the point — only the artifact name changes.

use std::fmt::Write as _;
use std::time::Instant;

use fednum_core::encoding::FixedPointCodec;
use fednum_core::protocol::basic::BasicConfig;
use fednum_core::sampling::BitSampling;
use fednum_fedsim::round::{FederatedMeanConfig, FederatedOutcome, SecAggSettings};
use fednum_fedsim::{DropoutModel, FedError};
use fednum_transport::tcp::SessionStats;
use fednum_transport::{DaemonConfig, InMemoryTransport, RoundBuilder, TcpTransport, Transport};

const BITS: u32 = 10;
const GATE_FRAMES_PER_SEC: f64 = 100_000.0;
const CONCURRENT_SESSIONS: usize = 3;

fn config(session_seed: u64) -> FederatedMeanConfig {
    let mut cfg = FederatedMeanConfig::new(BasicConfig::new(
        FixedPointCodec::integer(BITS),
        BitSampling::geometric(BITS, 1.0),
    ));
    cfg.session_seed = session_seed;
    cfg
}

fn values(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i % 1000) as f64).collect()
}

/// One seeded round through `transport`; returns the flat outcome.
fn run_round(
    vs: &[f64],
    cfg: &FederatedMeanConfig,
    transport: &mut dyn Transport,
    seed: u64,
) -> Result<FederatedOutcome, FedError> {
    RoundBuilder::new(cfg.clone())
        .via(transport)
        .seed(seed)
        .run(vs)
        .map(|out| out.flat().expect("flat round").clone())
}

/// Drives `rounds` rounds over fresh TCP sessions, returning the summed
/// daemon-side session stats and the wall-clock seconds spent.
fn drive_sessions(
    addr: std::net::SocketAddr,
    vs: &[f64],
    rounds: usize,
    seed_base: u64,
) -> (SessionStats, f64) {
    let mut total = SessionStats::default();
    let start = Instant::now();
    for r in 0..rounds {
        let seed = seed_base + r as u64;
        let cfg = config(seed ^ 0x7C7);
        let mut tcp = TcpTransport::connect(addr, seed).expect("connect to daemon");
        run_round(vs, &cfg, &mut tcp, seed).expect("tcp round");
        let stats = tcp.close().expect("close session");
        total.frames_in += stats.frames_in;
        total.frames_out += stats.frames_out;
        total.bytes_in += stats.bytes_in;
        total.bytes_out += stats.bytes_out;
    }
    (total, start.elapsed().as_secs_f64())
}

/// The `--longitudinal` section: campaign rounds over one connection vs
/// the same rounds over fresh per-round sessions. Exits nonzero when the
/// parity or overhead gate fails.
fn run_longitudinal(quick: bool, out_path: &str) {
    use fednum_core::wire::CampaignMessage;
    use fednum_transport::daemon::{self, RoundStream};

    let (clients, rounds) = if quick { (20_000, 4) } else { (50_000, 8) };
    let vs = values(clients);
    let policy = CampaignMessage {
        campaign_id: 0xBE2C,
        round_index: 0,
        max_bits: None,
        max_epsilon: None,
        cooldown_rounds: 1,
        bits_per_round: u64::from(BITS),
        epsilon_per_round: 0.0,
    };
    // The metered cohort handed to the scheduler each round; its size is
    // deliberately small so the numbers isolate session overhead, not
    // admission bookkeeping.
    let metered: Vec<u64> = (0..64).collect();
    let seed_of = |r: usize| 0x10C0 + r as u64;

    // Baseline: every round pays a full session (connect + hello + round
    // + close) on a fresh ephemeral daemon.
    let base_daemon = fednum_transport::daemon::spawn(DaemonConfig::default()).expect("daemon");
    let mut base_estimates = Vec::with_capacity(rounds);
    let fresh_start = Instant::now();
    for r in 0..rounds {
        let seed = seed_of(r);
        let cfg = config(seed ^ 0x7C7);
        let mut tcp = TcpTransport::connect(base_daemon.addr(), seed).expect("connect");
        let out = run_round(&vs, &cfg, &mut tcp, seed).expect("fresh-session round");
        base_estimates.push(out.outcome.estimate.to_bits());
        tcp.close().expect("close");
    }
    let fresh_wall = fresh_start.elapsed().as_secs_f64();
    base_daemon.shutdown().expect("clean shutdown");
    let fresh_per_round = fresh_wall / rounds as f64;

    // Campaign over ONE connection, ephemeral and durable-WAL daemons.
    let mut campaign_walls = Vec::new(); // (label, wall_s)
    for durable in [false, true] {
        let state_dir =
            std::env::temp_dir().join(format!("fednum-bench-longitudinal-{}", std::process::id()));
        let stream = if durable {
            let _ = std::fs::remove_dir_all(&state_dir);
            RoundStream::recover(&state_dir, 8).expect("state dir")
        } else {
            RoundStream::ephemeral()
        };
        let handle = daemon::spawn_with_state(DaemonConfig::default(), stream).expect("daemon");
        let start = Instant::now();
        let mut tcp = TcpTransport::connect(handle.addr(), seed_of(0)).expect("connect");
        tcp.begin_campaign(&policy).expect("open campaign");
        for (r, &base_estimate) in base_estimates.iter().enumerate() {
            let seed = seed_of(r);
            let cfg = config(seed ^ 0x7C7);
            tcp.request_round(r as u64, seed, cfg.session_seed, &metered)
                .expect("admission");
            let out = run_round(&vs, &cfg, &mut tcp, seed).expect("campaign round");
            if out.outcome.estimate.to_bits() != base_estimate {
                eprintln!(
                    "FAIL: campaign round {r} estimate diverged from the \
                     fresh-session baseline"
                );
                std::process::exit(1);
            }
            tcp.commit_round(r as u64).expect("commit");
        }
        tcp.close().expect("close");
        let wall = start.elapsed().as_secs_f64();
        handle.shutdown().expect("clean shutdown");
        if durable {
            let _ = std::fs::remove_dir_all(&state_dir);
        }
        let label = if durable { "durable" } else { "ephemeral" };
        println!(
            "longitudinal/{label}: {rounds} rounds x {clients} clients over one \
             connection: {wall:.2}s wall ({:.4}s/round vs {fresh_per_round:.4}s fresh)",
            wall / rounds as f64
        );
        campaign_walls.push((label, wall));
    }

    // Gate on the durable variant — the deployment path: its per-round
    // cost may exceed the fresh-session baseline by at most 10%.
    let durable_per_round = campaign_walls[1].1 / rounds as f64;
    let overhead = durable_per_round / fresh_per_round - 1.0;

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"tcp-longitudinal\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"clients\": {clients},");
    let _ = writeln!(json, "  \"rounds\": {rounds},");
    let _ = writeln!(json, "  \"gate_overhead_frac\": 0.10,");
    let _ = writeln!(
        json,
        "  \"fresh_sessions\": {{\"wall_s\": {fresh_wall:.4}, \"per_round_s\": {fresh_per_round:.4}}},"
    );
    for (label, wall) in &campaign_walls {
        let _ = writeln!(
            json,
            "  \"campaign_{label}\": {{\"wall_s\": {wall:.4}, \"per_round_s\": {:.4}}},",
            wall / rounds as f64
        );
    }
    let _ = writeln!(json, "  \"amortized_overhead_frac\": {overhead:.4}");
    json.push_str("}\n");
    if let Some(dir) = std::path::Path::new(out_path).parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(out_path, &json).expect("write bench json");
    println!("wrote {out_path}");

    if overhead > 0.10 {
        eprintln!(
            "FAIL: durable campaign per-round cost {durable_per_round:.4}s exceeds the \
             fresh-session baseline {fresh_per_round:.4}s by {:.1}% (gate 10%)",
            overhead * 100.0
        );
        std::process::exit(1);
    }
}

/// The `--fleet` section: one event-loop daemon vs a
/// `fleet::client::ClientPool` of nonblocking participant sessions.
/// Gates ≥ `FLEET_GATE_IDLE` concurrently-connected idle clients
/// sustained while a `FLEET_COHORT`-cohort round completes within
/// `FLEET_BUDGET_S`.
fn run_fleet(smoke: bool, out_path: &str) {
    use fednum_transport::fleet::client::ClientPool;
    use fednum_transport::fleet::FleetConfig;

    const FLEET_CLIENTS: usize = 6_000;
    const FLEET_COHORT: usize = 1_000;
    const FLEET_GATE_IDLE: usize = 5_000;
    const FLEET_BITS: u32 = 8;
    const FLEET_BUDGET_S: f64 = 90.0;

    // Generous liveness: one pool thread pumps 6k sockets, so a beat can
    // trail its schedule by whole poll ticks without meaning death.
    let fleet = FleetConfig::try_new(FLEET_COHORT, FLEET_CLIENTS, 1, FLEET_BITS, 1_000, 15_000)
        .expect("valid fleet config")
        .with_seed(0xF1EE7)
        .with_value_seed(0xB17_5EED)
        .with_round_deadline_ms(120_000);
    let daemon = fednum_transport::daemon::spawn(DaemonConfig {
        fleet: Some(fleet),
        ..DaemonConfig::default()
    })
    .expect("spawn fleet daemon");

    // Bring the fleet up in waves: each wave rendezvouses and starts
    // heartbeating while the next is still connecting, so a slow connect
    // phase can't starve early joiners past the liveness window.
    let ids: Vec<u64> = (1..=FLEET_CLIENTS as u64).collect();
    let start = Instant::now();
    let mut pool = ClientPool::connect(daemon.addr(), &[]).expect("create fleet pool");
    for wave in ids.chunks(250) {
        pool.join(daemon.addr(), wave).expect("connect fleet wave");
        pool.pump(0).expect("pool reactor");
    }
    let connect_wall = start.elapsed().as_secs_f64();
    println!("fleet: {FLEET_CLIENTS} participants connected in {connect_wall:.2}s");

    // Pump until the campaign finishes and every session is dismissed.
    while !daemon.fleet_done() {
        if start.elapsed().as_secs_f64() > FLEET_BUDGET_S {
            eprintln!(
                "FAIL: fleet round did not complete within {FLEET_BUDGET_S:.0}s \
                 ({} connected, {} completed, {} dropped)",
                pool.connected(),
                pool.completed(),
                pool.dropped()
            );
            std::process::exit(1);
        }
        pool.pump(10).expect("pool reactor");
    }
    let round_wall = start.elapsed().as_secs_f64();
    while !pool.done() {
        if start.elapsed().as_secs_f64() > FLEET_BUDGET_S + 30.0 {
            eprintln!(
                "FAIL: {} participant session(s) never dismissed after the campaign",
                pool.connected()
            );
            std::process::exit(1);
        }
        pool.pump(10).expect("pool reactor");
    }

    let reports = daemon.fleet_reports();
    let ledger = daemon.fleet_ledger().expect("fleet ledger");
    let snapshot = daemon.snapshot();
    let stats = daemon.shutdown().expect("clean fleet daemon shutdown");

    let report = &reports[0];
    println!(
        "fleet: {FLEET_COHORT}-cohort round complete in {round_wall:.2}s wall \
         ({} reports, estimate {:.3}, {} idle standby sustained)",
        report.reports,
        report.estimate,
        FLEET_CLIENTS - FLEET_COHORT
    );

    let idle = FLEET_CLIENTS - FLEET_COHORT;
    let mut failures = Vec::new();
    if idle < FLEET_GATE_IDLE {
        failures.push(format!("idle population {idle} < {FLEET_GATE_IDLE}"));
    }
    if (snapshot.peak_connections as usize) < FLEET_CLIENTS {
        failures.push(format!(
            "daemon peak_connections {} < {FLEET_CLIENTS} — the fleet was not \
             concurrently connected",
            snapshot.peak_connections
        ));
    }
    if pool.dropped() > 0 {
        failures.push(format!(
            "{} connection(s) dropped — idle clients were not sustained",
            pool.dropped()
        ));
    }
    if pool.completed() != FLEET_CLIENTS {
        failures.push(format!(
            "{} of {FLEET_CLIENTS} sessions dismissed cleanly",
            pool.completed()
        ));
    }
    if report.reports != FLEET_COHORT as u64 || report.abandoned != 0 {
        failures.push(format!(
            "round incomplete: {} reports, {} abandoned",
            report.reports, report.abandoned
        ));
    }
    if round_wall > FLEET_BUDGET_S {
        failures.push(format!(
            "round wall {round_wall:.2}s over the {FLEET_BUDGET_S:.0}s budget"
        ));
    }
    if stats.active_connections != 0 {
        failures.push(format!(
            "{} connection(s) leaked through shutdown",
            stats.active_connections
        ));
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"tcp-fleet\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"clients\": {FLEET_CLIENTS},");
    let _ = writeln!(json, "  \"cohort\": {FLEET_COHORT},");
    let _ = writeln!(json, "  \"bits\": {FLEET_BITS},");
    let _ = writeln!(json, "  \"gate_idle_connections\": {FLEET_GATE_IDLE},");
    let _ = writeln!(json, "  \"gate_budget_s\": {FLEET_BUDGET_S},");
    let _ = writeln!(json, "  \"connect_wall_s\": {connect_wall:.4},");
    let _ = writeln!(json, "  \"round_wall_s\": {round_wall:.4},");
    let _ = writeln!(
        json,
        "  \"round\": {{\"reports\": {}, \"abandoned\": {}, \"salvaged_hangup\": {}, \
         \"salvaged_heartbeat\": {}, \"estimate\": {:.6}, \"predicted_std\": {:.6}}},",
        report.reports,
        report.abandoned,
        report.salvaged_hangup,
        report.salvaged_heartbeat,
        report.estimate,
        report.predicted_std
    );
    let _ = writeln!(
        json,
        "  \"ledger\": {{\"rendezvous\": {}, \"heartbeats\": {}, \"reports\": {}, \
         \"bytes_in\": {}, \"bytes_out\": {}}},",
        ledger.rendezvous, ledger.heartbeats, ledger.reports, ledger.bytes_in, ledger.bytes_out
    );
    let _ = writeln!(
        json,
        "  \"daemon\": {{\"peak_connections\": {}, \"protocol_errors\": {}}},",
        snapshot.peak_connections, snapshot.protocol_errors
    );
    let _ = writeln!(json, "  \"gate_passed\": {}", failures.is_empty());
    json.push_str("}\n");
    if let Some(dir) = std::path::Path::new(out_path).parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(out_path, &json).expect("write bench json");
    println!("wrote {out_path}");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}

/// The `--chaos` section: the same fleet campaign run twice — once
/// straight to the daemon, once through the `netchaos` fault proxy on
/// its reference schedule (30% mid-frame resets, 10% stalls, 5%
/// duplicates, 5% corruptions, splits + jitter). **Gates: every faulted
/// session recovers to a clean dismissal at ≥ `CHAOS_GATE_RECOVERY`,
/// the chaotic campaign's wall-clock overhead stays ≤
/// `CHAOS_GATE_OVERHEAD`, and the published estimates are bit-identical
/// to the fault-free run's.**
fn run_chaos(smoke: bool, out_path: &str) {
    use fednum_transport::fleet::client::ClientPool;
    use fednum_transport::fleet::{FleetConfig, FleetLedger, FleetRoundReport};
    use fednum_transport::netchaos::{reference_schedule, ChaosProxy, ChaosStats};
    use fednum_transport::DaemonSnapshot;

    const CHAOS_BITS: u32 = 8;
    const CHAOS_SEED: u64 = 0xC4A0_5EED;
    const CHAOS_GATE_RECOVERY: f64 = 0.95;
    const CHAOS_GATE_OVERHEAD: f64 = 0.25;
    const CHAOS_BUDGET_S: f64 = 120.0;
    let (clients, cohort, rounds) = if smoke {
        (120usize, 100usize, 5u64)
    } else {
        (360, 300, 12)
    };

    // Rounds are paced at one-second cadence — the deployment
    // shape — so the overhead gate measures what chaos costs a
    // *realistically* paced campaign, where faults mostly heal inside
    // the pacing window, not a tight-loop one where every fault lands on
    // the critical path.
    let fleet = FleetConfig::try_new(cohort, clients, rounds, CHAOS_BITS, 200, 6_000)
        .expect("valid fleet config")
        .with_seed(CHAOS_SEED)
        .with_value_seed(0xB17_5EED)
        .with_round_deadline_ms(60_000)
        .with_round_spacing_ms(1_000);

    struct CampaignRun {
        wall_s: f64,
        reports: Vec<FleetRoundReport>,
        ledger: FleetLedger,
        snapshot: DaemonSnapshot,
        faulted: usize,
        recovered: usize,
        chaos: Option<ChaosStats>,
    }

    // One full campaign; `chaotic` interposes the reference-schedule
    // fault proxy between the pool and the daemon.
    let run_campaign = |chaotic: bool| -> CampaignRun {
        let daemon = fednum_transport::daemon::spawn(DaemonConfig {
            fleet: Some(fleet.clone()),
            ..DaemonConfig::default()
        })
        .expect("spawn fleet daemon");
        let proxy = chaotic.then(|| {
            let mut schedule = reference_schedule(daemon.addr().to_string(), CHAOS_SEED);
            // The reference 400 ms stall is sized to the e2e suite's
            // deadline tests; here it would dominate the wall-clock
            // measurement. 100 ms is still a real mid-frame stall, just
            // one a paced round can absorb.
            schedule.stall_ms = 100;
            ChaosProxy::spawn(schedule).expect("spawn chaos proxy")
        });
        let addr = proxy.as_ref().map_or(daemon.addr(), ChaosProxy::addr);

        let ids: Vec<u64> = (1..=clients as u64).collect();
        let start = Instant::now();
        let mut pool = ClientPool::connect(addr, &[])
            .expect("create pool")
            .with_retries(20, 10);
        for wave in ids.chunks(120) {
            pool.join(addr, wave).expect("connect wave");
            pool.pump(0).expect("pool reactor");
        }
        while !daemon.fleet_done() {
            if start.elapsed().as_secs_f64() > CHAOS_BUDGET_S {
                eprintln!(
                    "FAIL: campaign did not complete within {CHAOS_BUDGET_S:.0}s \
                     ({} connected, {} completed, {} dropped)",
                    pool.connected(),
                    pool.completed(),
                    pool.dropped()
                );
                std::process::exit(1);
            }
            pool.pump(5).expect("pool reactor");
        }
        while !pool.done() {
            if start.elapsed().as_secs_f64() > CHAOS_BUDGET_S + 30.0 {
                eprintln!(
                    "FAIL: {} session(s) never dismissed after the campaign",
                    pool.connected()
                );
                std::process::exit(1);
            }
            pool.pump(5).expect("pool reactor");
        }
        let wall_s = start.elapsed().as_secs_f64();

        let reports = daemon.fleet_reports();
        let ledger = daemon.fleet_ledger().expect("fleet ledger");
        let snapshot = daemon.snapshot();
        let chaos = proxy.map(|p| p.shutdown().expect("proxy shutdown"));
        daemon.shutdown().expect("clean daemon shutdown");
        CampaignRun {
            wall_s,
            reports,
            ledger,
            snapshot,
            faulted: pool.faulted(),
            recovered: pool.recovered(),
            chaos,
        }
    };

    let plain = run_campaign(false);
    let chaos = run_campaign(true);
    let stats = chaos.chaos.expect("chaotic run has proxy stats");
    let overhead = chaos.wall_s / plain.wall_s - 1.0;
    let recovery = if chaos.faulted == 0 {
        0.0
    } else {
        chaos.recovered as f64 / chaos.faulted as f64
    };

    println!(
        "chaos: {rounds} rounds x {cohort}/{clients} cohort: fault-free {:.2}s, \
         chaotic {:.2}s wall ({:+.1}% overhead)",
        plain.wall_s,
        chaos.wall_s,
        overhead * 100.0
    );
    println!(
        "chaos: {} resets, {} stalls, {} dups, {} corruptions over {} connection(s); \
         {} of {} faulted session(s) recovered ({:.1}%), {} resume(s), {} dup report(s) \
         absorbed",
        stats.resets,
        stats.stalls,
        stats.dups,
        stats.corruptions,
        stats.connections,
        chaos.recovered,
        chaos.faulted,
        recovery * 100.0,
        chaos.ledger.resumes,
        chaos.ledger.dup_reports
    );

    let mut failures = Vec::new();
    if stats.resets < clients as u64 / 5 {
        failures.push(format!(
            "only {} mid-frame resets fired — below the 20% floor ({} connections)",
            stats.resets,
            clients / 5
        ));
    }
    if chaos.faulted == 0 || recovery < CHAOS_GATE_RECOVERY {
        failures.push(format!(
            "recovery rate {:.3} below the {CHAOS_GATE_RECOVERY} gate \
             ({} of {} faulted sessions recovered)",
            recovery, chaos.recovered, chaos.faulted
        ));
    }
    if overhead > CHAOS_GATE_OVERHEAD {
        failures.push(format!(
            "chaotic campaign wall overhead {:.1}% exceeds the {:.0}% gate",
            overhead * 100.0,
            CHAOS_GATE_OVERHEAD * 100.0
        ));
    }
    for run in [&plain, &chaos] {
        for (r, report) in run.reports.iter().enumerate() {
            if report.reports != cohort as u64 || report.abandoned != 0 {
                failures.push(format!(
                    "round {r} incomplete: {} reports, {} abandoned",
                    report.reports, report.abandoned
                ));
            }
        }
    }
    let diverged = plain
        .reports
        .iter()
        .zip(&chaos.reports)
        .any(|(a, b)| a.estimate.to_bits() != b.estimate.to_bits());
    if plain.reports.len() != chaos.reports.len() || diverged {
        failures.push(
            "chaotic estimates diverged from the fault-free run — faults leaked \
             into the arithmetic"
                .to_string(),
        );
    }
    // Corruption is the one fault the daemon must *reject*: fail-closed,
    // one dropped connection per garbled frame, and nothing else on the
    // wire may read as protocol abuse.
    if chaos.snapshot.protocol_errors != stats.corruptions {
        failures.push(format!(
            "daemon saw {} protocol error(s) but the proxy corrupted {} frame(s)",
            chaos.snapshot.protocol_errors, stats.corruptions
        ));
    }
    if plain.snapshot.protocol_errors != 0 {
        failures.push(format!(
            "fault-free run logged {} protocol error(s)",
            plain.snapshot.protocol_errors
        ));
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"tcp-chaos\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"clients\": {clients},");
    let _ = writeln!(json, "  \"cohort\": {cohort},");
    let _ = writeln!(json, "  \"rounds\": {rounds},");
    let _ = writeln!(json, "  \"bits\": {CHAOS_BITS},");
    let _ = writeln!(json, "  \"gate_recovery_rate\": {CHAOS_GATE_RECOVERY},");
    let _ = writeln!(json, "  \"gate_overhead_frac\": {CHAOS_GATE_OVERHEAD},");
    let _ = writeln!(
        json,
        "  \"fault_free\": {{\"wall_s\": {:.4}, \"protocol_errors\": {}}},",
        plain.wall_s, plain.snapshot.protocol_errors
    );
    let _ = writeln!(
        json,
        "  \"chaotic\": {{\"wall_s\": {:.4}, \"faulted\": {}, \"recovered\": {}, \
         \"resumes\": {}, \"dup_reports\": {}, \"protocol_errors\": {}}},",
        chaos.wall_s,
        chaos.faulted,
        chaos.recovered,
        chaos.ledger.resumes,
        chaos.ledger.dup_reports,
        chaos.snapshot.protocol_errors
    );
    let _ = writeln!(
        json,
        "  \"faults\": {{\"connections\": {}, \"resets\": {}, \"stalls\": {}, \
         \"dups\": {}, \"corruptions\": {}}},",
        stats.connections, stats.resets, stats.stalls, stats.dups, stats.corruptions
    );
    let _ = writeln!(json, "  \"recovery_rate\": {recovery:.4},");
    let _ = writeln!(json, "  \"overhead_frac\": {overhead:.4},");
    let _ = writeln!(json, "  \"estimates_bit_identical\": {},", !diverged);
    let _ = writeln!(json, "  \"gate_passed\": {}", failures.is_empty());
    json.push_str("}\n");
    if let Some(dir) = std::path::Path::new(out_path).parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(out_path, &json).expect("write bench json");
    println!("wrote {out_path}");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}

/// The `--planes` section: the bit-plane batched wire vs the scalar
/// per-client wire over one loopback daemon. Gates: batched estimates are
/// bit-identical to the scalar wire per seed (plain and secagg), and the
/// batched path aggregates ≥ `PLANES_GATE_SPEEDUP`× more client reports
/// per second than the scalar wire moves client frames.
fn run_planes(quick: bool, out_path: &str) {
    const PLANES_GATE_SPEEDUP: f64 = 10.0;
    const CHUNK: usize = 512;
    let (clients, rounds) = if quick { (20_000, 3) } else { (100_000, 4) };
    let vs = values(clients);
    let daemon = fednum_transport::daemon::spawn(DaemonConfig::default()).expect("spawn daemon");
    let addr = daemon.addr();
    let mut failures = Vec::new();

    // -- parity: plain and secagg batched rounds must publish the scalar
    // wire's exact estimate, seed for seed, through the real socket.
    let parity_vs = values(5_000);
    let mut parity_cases = 0u32;
    for seed in [1u64, 2, 3] {
        for secagg in [false, true] {
            let mut cfg = config(0xA5E0 ^ (seed << 8) ^ u64::from(secagg))
                .with_dropout(DropoutModel::bernoulli(0.1));
            if secagg {
                cfg.secagg = Some(SecAggSettings::default());
            }
            let mut mem = InMemoryTransport::new(seed);
            let scalar = run_round(&parity_vs, &cfg, &mut mem, seed).expect("scalar round");
            let mut tcp = TcpTransport::connect(addr, seed).expect("connect to daemon");
            let batched = RoundBuilder::new(cfg.clone())
                .via(&mut tcp)
                .seed(seed)
                .batched(CHUNK)
                .run(&parity_vs)
                .map(|out| out.flat().expect("flat round").clone())
                .expect("batched round");
            tcp.close().expect("close parity session");
            if batched.outcome.estimate.to_bits() != scalar.outcome.estimate.to_bits() {
                failures.push(format!(
                    "seed {seed} secagg {secagg}: batched estimate {} != scalar {}",
                    batched.outcome.estimate, scalar.outcome.estimate
                ));
            }
            parity_cases += 1;
        }
    }

    // -- scalar baseline: the per-client wire, measured exactly as the
    // main section's gated number (client frames per second).
    let (scalar_stats, scalar_wall) = drive_sessions(addr, &vs, rounds, 300);
    let scalar_fps = scalar_stats.frames_in as f64 / scalar_wall;
    println!(
        "planes/scalar: {} rounds x {} clients: {:.2}s wall, {} client frames, {:.0} frames/s",
        rounds, clients, scalar_wall, scalar_stats.frames_in, scalar_fps
    );

    // -- batched: the same seeded rounds on the bit-plane wire. The
    // comparable rate is aggregated client reports per second — on the
    // scalar wire every client report is one frame, so the two rates
    // measure the same work.
    let start = Instant::now();
    let mut batched_clients = 0u64;
    let mut batched_stats = SessionStats::default();
    for r in 0..rounds {
        let seed = 300 + r as u64;
        let cfg = config(seed ^ 0x7C7);
        let mut tcp = TcpTransport::connect(addr, seed).expect("connect to daemon");
        let out = RoundBuilder::new(cfg.clone())
            .via(&mut tcp)
            .seed(seed)
            .batched(CHUNK)
            .run(&vs)
            .map(|out| out.flat().expect("flat round").clone())
            .expect("batched round");
        batched_clients += out.contacted as u64;
        let stats = tcp.close().expect("close session");
        batched_stats.frames_in += stats.frames_in;
        batched_stats.frames_out += stats.frames_out;
        batched_stats.bytes_in += stats.bytes_in;
        batched_stats.bytes_out += stats.bytes_out;
    }
    let batched_wall = start.elapsed().as_secs_f64();
    let batched_cps = batched_clients as f64 / batched_wall;
    let speedup = batched_cps / scalar_fps;
    println!(
        "planes/batched: {} rounds x {} clients (chunk {}): {:.2}s wall, {} wire frames, \
         {:.0} clients aggregated/s ({:.1}x the scalar wire)",
        rounds, clients, CHUNK, batched_wall, batched_stats.frames_in, batched_cps, speedup
    );

    daemon.shutdown().expect("clean shutdown");

    if speedup < PLANES_GATE_SPEEDUP {
        failures.push(format!(
            "batched speedup {speedup:.2}x below the {PLANES_GATE_SPEEDUP}x gate \
             ({batched_cps:.0} clients/s vs {scalar_fps:.0} frames/s)"
        ));
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"tcp-planes\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"bits\": {BITS},");
    let _ = writeln!(json, "  \"clients\": {clients},");
    let _ = writeln!(json, "  \"rounds\": {rounds},");
    let _ = writeln!(json, "  \"chunk\": {CHUNK},");
    let _ = writeln!(json, "  \"gate_speedup\": {PLANES_GATE_SPEEDUP},");
    let _ = writeln!(json, "  \"parity_cases\": {parity_cases},");
    let _ = writeln!(
        json,
        "  \"parity_identical\": {},",
        failures.iter().all(|f| !f.contains("estimate"))
    );
    let _ = writeln!(
        json,
        "  \"scalar\": {{\"wall_s\": {:.4}, \"client_frames\": {}, \"frames_per_sec\": {:.0}, \
         \"bytes_in\": {}, \"bytes_out\": {}}},",
        scalar_wall,
        scalar_stats.frames_in,
        scalar_fps,
        scalar_stats.bytes_in,
        scalar_stats.bytes_out
    );
    let _ = writeln!(
        json,
        "  \"batched\": {{\"wall_s\": {:.4}, \"wire_frames\": {}, \"clients_aggregated\": {}, \
         \"clients_per_sec\": {:.0}, \"bytes_in\": {}, \"bytes_out\": {}}},",
        batched_wall,
        batched_stats.frames_in,
        batched_clients,
        batched_cps,
        batched_stats.bytes_in,
        batched_stats.bytes_out
    );
    let _ = writeln!(json, "  \"speedup\": {speedup:.2},");
    let _ = writeln!(json, "  \"gate_passed\": {}", failures.is_empty());
    json.push_str("}\n");
    if let Some(dir) = std::path::Path::new(out_path).parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(out_path, &json).expect("write bench json");
    println!("wrote {out_path}");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let quick = smoke || args.iter().any(|a| a == "--quick");
    let longitudinal = args.iter().any(|a| a == "--longitudinal");
    let fleet = args.iter().any(|a| a == "--fleet");
    let chaos = args.iter().any(|a| a == "--chaos");
    let planes = args.iter().any(|a| a == "--planes");
    // Artifact-naming convention: smoke runs keep their own suffix so a
    // CI pass never overwrites a full run's numbers.
    let suffix = if smoke { "_smoke" } else { "" };
    let out_path: String = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| {
            if fleet {
                format!("results/BENCH_fleet{suffix}.json")
            } else if planes {
                format!("results/BENCH_planes{suffix}.json")
            } else if chaos {
                format!("results/BENCH_chaos{suffix}.json")
            } else if longitudinal {
                format!("results/BENCH_longitudinal{suffix}.json")
            } else {
                format!("results/BENCH_tcp{suffix}.json")
            }
        });
    if fleet {
        run_fleet(smoke, &out_path);
        return;
    }
    if planes {
        run_planes(quick, &out_path);
        return;
    }
    if chaos {
        run_chaos(smoke, &out_path);
        return;
    }
    if longitudinal {
        run_longitudinal(quick, &out_path);
        return;
    }

    let external_addr: Option<String> = args
        .iter()
        .position(|a| a == "--addr")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let shutdown_daemon = args.iter().any(|a| a == "--shutdown-daemon");

    let (clients, rounds) = if quick { (20_000, 3) } else { (100_000, 4) };
    let vs = values(clients);

    // In-process daemon unless an external fednumd was named with --addr.
    let daemon = if external_addr.is_none() {
        Some(
            fednum_transport::daemon::spawn(DaemonConfig {
                workers: CONCURRENT_SESSIONS + 1,
                ..DaemonConfig::default()
            })
            .expect("spawn daemon"),
        )
    } else {
        None
    };
    let addr: std::net::SocketAddr = match (&daemon, &external_addr) {
        (Some(d), _) => d.addr(),
        (None, Some(a)) => {
            use std::net::ToSocketAddrs;
            a.to_socket_addrs()
                .ok()
                .and_then(|mut it| it.next())
                .unwrap_or_else(|| {
                    eprintln!("FAIL: cannot resolve --addr {a}");
                    std::process::exit(1);
                })
        }
        (None, None) => unreachable!(),
    };

    // -- parity: the socket must not change the round's arithmetic.
    let parity_cfg = config(0xBE11);
    let mut mem = InMemoryTransport::new(7);
    let reference = run_round(&vs, &parity_cfg, &mut mem, 7).expect("in-memory round");
    let mut tcp = TcpTransport::connect(addr, 7).expect("connect to daemon");
    let over_tcp = run_round(&vs, &parity_cfg, &mut tcp, 7).expect("tcp round");
    tcp.close().expect("close parity session");
    let parity_ok = over_tcp.outcome.estimate.to_bits() == reference.outcome.estimate.to_bits();
    if !parity_ok {
        eprintln!(
            "FAIL: loopback estimate {} != in-memory estimate {}",
            over_tcp.outcome.estimate, reference.outcome.estimate
        );
        std::process::exit(1);
    }

    // -- serial: single-session frame throughput (the gated number).
    let (serial, serial_wall) = drive_sessions(addr, &vs, rounds, 100);
    let serial_fps = serial.frames_in as f64 / serial_wall;
    println!(
        "serial: {} rounds x {} clients: {:.2}s wall, {} client frames, {:.0} frames/s",
        rounds, clients, serial_wall, serial.frames_in, serial_fps
    );

    // -- concurrent: the same work from CONCURRENT_SESSIONS threads at once.
    let conc_start = Instant::now();
    let handles: Vec<_> = (0..CONCURRENT_SESSIONS)
        .map(|t| {
            let vs = vs.clone();
            std::thread::spawn(move || drive_sessions(addr, &vs, rounds, 1000 + 100 * t as u64))
        })
        .collect();
    let mut concurrent = SessionStats::default();
    for h in handles {
        let (stats, _) = h.join().expect("driver thread");
        concurrent.frames_in += stats.frames_in;
        concurrent.frames_out += stats.frames_out;
        concurrent.bytes_in += stats.bytes_in;
        concurrent.bytes_out += stats.bytes_out;
    }
    let conc_wall = conc_start.elapsed().as_secs_f64();
    let conc_fps = concurrent.frames_in as f64 / conc_wall;
    println!(
        "concurrent: {} sessions x {} rounds: {:.2}s wall, {} client frames, {:.0} frames/s",
        CONCURRENT_SESSIONS, rounds, conc_wall, concurrent.frames_in, conc_fps
    );

    // Concurrency and clean-shutdown asserts: in-process we hold the
    // handle and check directly; against an external fednumd the CI smoke
    // reads the same facts from the daemon's exit status and final report.
    let final_snapshot = if let Some(daemon) = daemon {
        let snapshot = daemon.snapshot();
        if snapshot.peak_connections < CONCURRENT_SESSIONS as u64 {
            eprintln!(
                "FAIL: daemon peak_connections {} < {CONCURRENT_SESSIONS} — \
                 sessions were serialized",
                snapshot.peak_connections
            );
            std::process::exit(1);
        }
        match daemon.shutdown() {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("FAIL: daemon shutdown leaked threads: {e}");
                std::process::exit(1);
            }
        }
    } else {
        if shutdown_daemon {
            TcpTransport::request_shutdown(addr).expect("send admin Shutdown frame");
        }
        None
    };

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"tcp\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"bits\": {BITS},");
    let _ = writeln!(json, "  \"clients\": {clients},");
    let _ = writeln!(json, "  \"rounds\": {rounds},");
    let _ = writeln!(json, "  \"gate_frames_per_sec\": {GATE_FRAMES_PER_SEC},");
    let _ = writeln!(json, "  \"parity_identical\": {parity_ok},");
    let _ = writeln!(
        json,
        "  \"serial\": {{\"wall_s\": {:.4}, \"client_frames\": {}, \"frames_per_sec\": {:.0}, \
         \"bytes_in\": {}, \"bytes_out\": {}}},",
        serial_wall, serial.frames_in, serial_fps, serial.bytes_in, serial.bytes_out
    );
    let _ = writeln!(
        json,
        "  \"concurrent\": {{\"sessions\": {CONCURRENT_SESSIONS}, \"wall_s\": {:.4}, \
         \"client_frames\": {}, \"frames_per_sec\": {:.0}}},",
        conc_wall, concurrent.frames_in, conc_fps
    );
    match final_snapshot {
        Some(s) => {
            let _ = writeln!(
                json,
                "  \"daemon\": {{\"sessions_opened\": {}, \"sessions_closed\": {}, \
                 \"peak_connections\": {}, \"protocol_errors\": {}, \"timeouts\": {}}}",
                s.sessions_opened,
                s.sessions_closed,
                s.peak_connections,
                s.protocol_errors,
                s.timeouts
            );
        }
        // External fednumd: it prints its own final report on exit.
        None => json.push_str("  \"daemon\": null\n"),
    }
    json.push_str("}\n");
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path}");

    if serial_fps < GATE_FRAMES_PER_SEC {
        eprintln!(
            "{}: serial loopback throughput {serial_fps:.0} frames/s \
             below the {GATE_FRAMES_PER_SEC:.0} gate",
            if smoke { "NOTE" } else { "FAIL" }
        );
        if !smoke {
            std::process::exit(1);
        }
    }
}
