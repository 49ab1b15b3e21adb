//! Fleet end-to-end: one daemon, 200 real `fednumc` OS processes.
//!
//! The acceptance test for the fleet subsystem. A daemon hosts a
//! two-round fleet campaign; 200 participant processes rendezvous and
//! heartbeat; a seeded subset is scripted to die mid-round — some by
//! hanging up the moment they receive a cohort slot (hangup salvage),
//! some by going silent (heartbeat-detected salvage). The rounds must
//! complete anyway, the estimates must track the reporters' true mean,
//! the traffic ledger must balance exactly, every surviving process must
//! be dismissed cleanly, and the daemon must shut down without leaking a
//! thread.

use std::collections::HashMap;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use fednum_transport::daemon::{self, DaemonConfig};
use fednum_transport::fleet::{client_value, FleetConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const CLIENTS: u64 = 200;
const COHORT: usize = 160;
const ROUNDS: u64 = 2;
const BITS: u32 = 8;
const VALUE_SEED: u64 = 0xF_1EE7_CAFE;
const KILL_SEED: u64 = 0xDEAD_BEEF;
const HANGUP_KILLS: usize = 8;
const MUTE_KILLS: usize = 4;

fn spawn_client(addr: std::net::SocketAddr, client_id: u64, fail: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_fednumc"))
        .args([
            "--addr",
            &addr.to_string(),
            "--client-id",
            &client_id.to_string(),
            "--fail-at",
            fail,
            "--max-seconds",
            "120",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn fednumc")
}

#[test]
#[ignore = "spawns processes; ci.sh runs it"]
fn two_hundred_processes_survive_seeded_kills() {
    // Generous timings: this host runs 200 participant processes plus the
    // daemon on whatever cores CI grants, so liveness must tolerate
    // scheduling hiccups far beyond the heartbeat cadence.
    let fleet = FleetConfig::try_new(COHORT, CLIENTS as usize, ROUNDS, BITS, 300, 3000)
        .expect("valid fleet config")
        .with_seed(0x5EED)
        .with_value_seed(VALUE_SEED)
        .with_round_deadline_ms(30_000);
    let handle = daemon::spawn(DaemonConfig {
        fleet: Some(fleet),
        ..DaemonConfig::default()
    })
    .expect("bind fleet daemon");
    let addr = handle.addr();

    // Seeded victim selection: the first HANGUP_KILLS of a seeded shuffle
    // hang up on assignment, the next MUTE_KILLS go silent. Same seed,
    // same victims, every run.
    let mut ids: Vec<u64> = (1..=CLIENTS).collect();
    ids.shuffle(&mut StdRng::seed_from_u64(KILL_SEED));
    let mut fail_of: HashMap<u64, &str> = HashMap::new();
    for &id in &ids[..HANGUP_KILLS] {
        fail_of.insert(id, "assign");
    }
    for &id in &ids[HANGUP_KILLS..HANGUP_KILLS + MUTE_KILLS] {
        fail_of.insert(id, "mute");
    }

    let mut children: Vec<(u64, Child)> = (1..=CLIENTS)
        .map(|id| {
            (
                id,
                spawn_client(addr, id, fail_of.get(&id).copied().unwrap_or("none")),
            )
        })
        .collect();

    // The campaign must complete despite the scripted deaths.
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

    let reports = handle.fleet_reports();
    assert_eq!(reports.len() as u64, ROUNDS, "every round completed");
    let (mut total_reports, mut hangups, mut heartbeats_salvaged, mut refills) =
        (0u64, 0u64, 0u64, 0u64);
    for report in &reports {
        assert_eq!(report.cohort_size, COHORT);
        assert_eq!(
            report.reports + report.abandoned,
            COHORT as u64,
            "round {}: every slot either reported or was abandoned",
            report.round
        );
        assert_eq!(
            report.abandoned, 0,
            "round {}: the standby queue was deep enough to refill every death",
            report.round
        );
        // The estimate reconstructs the mean of the *reporters'* seeded
        // values (Algorithm 1 over one bit per reporter).
        let truth = report
            .reporters
            .iter()
            .map(|&id| client_value(VALUE_SEED, id, BITS) as f64)
            .sum::<f64>()
            / report.reporters.len() as f64;
        let tolerance = 6.0 * report.predicted_std.max(1.0);
        assert!(
            (report.estimate - truth).abs() <= tolerance,
            "round {}: estimate {} vs reporters' truth {} (tolerance {})",
            report.round,
            report.estimate,
            truth,
            tolerance
        );
        total_reports += report.reports;
        hangups += report.salvaged_hangup;
        heartbeats_salvaged += report.salvaged_heartbeat;
        refills += report.salvaged_hangup + report.salvaged_heartbeat;
    }
    assert!(
        hangups >= 1,
        "at least one hangup was salvaged (got {reports:?})"
    );
    assert!(
        heartbeats_salvaged >= 1,
        "at least one heartbeat death was salvaged (got {reports:?})"
    );

    // The traffic ledger is exact, not advisory: every accepted frame
    // acked, every assignment accounted to a draft or a salvage refill.
    let ledger = handle.fleet_ledger().expect("fleet daemon has a ledger");
    assert_eq!(ledger.rendezvous, CLIENTS, "every process rendezvoused");
    assert_eq!(ledger.rendezvous_acks, CLIENTS);
    assert_eq!(ledger.heartbeat_acks, ledger.heartbeats);
    assert_eq!(ledger.reports, total_reports);
    assert_eq!(ledger.report_acks, ledger.reports);
    assert_eq!(
        ledger.cohort_assigns,
        ROUNDS * COHORT as u64 + refills,
        "assignments = initial drafts + salvage refills"
    );
    assert!(ledger.bytes_in > 0 && ledger.bytes_out > 0);

    // Every process exits 0: survivors are dismissed with Done, scripted
    // deaths count their own faults as success.
    let reap_deadline = Instant::now() + Duration::from_secs(60);
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
        assert!(
            status.success(),
            "fednumc {id} (fail={}) exited {status}",
            fail_of.get(id).copied().unwrap_or("none")
        );
    }

    // Clean daemon shutdown: no leaked threads, no leaked connections.
    let stats = handle.shutdown().expect("daemon threads joined");
    assert_eq!(stats.active_connections, 0, "no connection leaked");
    // Zero drops at admission: the whole population was held at once.
    assert!(
        stats.peak_connections >= CLIENTS,
        "peak {} concurrent connections, population {CLIENTS}",
        stats.peak_connections
    );
    assert_eq!(
        stats.protocol_errors, 0,
        "no participant tripped the protocol"
    );
}
