//! `fednumd` — the persistent federated-aggregation coordinator daemon.
//!
//! Binds a TCP listener and serves driver sessions (see
//! `fednum_transport::daemon`) until either stdin reaches EOF (hang-up:
//! the supervisor or CI harness closed our input) or a driver sends the
//! admin `Shutdown` frame.
//!
//! With `--state-dir` the daemon is crash-safe across restarts: every
//! campaign's privacy ledger lives in a snapshot + write-ahead log under
//! the directory, charges are fsynced before a round is admitted, and on
//! startup the daemon replays the log to the last committed round and
//! discards any uncommitted tail — a `kill -9` never double-charges a
//! client and never re-grants spent budget.
//!
//! Exit codes:
//! * `0` — clean shutdown: every thread joined and (in durable mode) the
//!   final snapshot flushed.
//! * `1` — startup or usage error.
//! * `2` — a daemon thread leaked past the shutdown grace deadline.
//! * `3` — unrecoverable state directory: a campaign snapshot failed its
//!   checksum or does not decode, or the shutdown flush could not write.
//!   Operator action is required (restore or remove the campaign files);
//!   restarting will not help.
//!
//! With `--fleet-cohort` the daemon additionally hosts a fleet campaign:
//! `fednumc` participant processes rendezvous, heartbeat, and serve
//! cohort rounds (see `fednum_transport::fleet`); the daemon prints each
//! round's report and exits cleanly once the configured rounds complete.
//!
//! ```text
//! fednumd [--addr HOST:PORT] [--read-timeout-ms MS]
//!         [--state-dir DIR] [--snapshot-every N]
//!         [--fleet-cohort N --fleet-population N [--fleet-rounds N]
//!          [--fleet-bits N] [--fleet-heartbeat-ms MS]
//!          [--fleet-liveness-ms MS] [--fleet-deadline-ms MS]
//!          [--fleet-seed N] [--fleet-value-seed N]]
//! ```

use std::io::Read;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fednum_core::privacy::durable::DEFAULT_SNAPSHOT_EVERY;
use fednum_transport::daemon::{spawn_with_state, DaemonConfig, RoundStream};
use fednum_transport::fleet::FleetConfig;

const USAGE: &str = "usage: fednumd [--addr HOST:PORT] [--read-timeout-ms MS] \
[--state-dir DIR] [--snapshot-every N] [--fleet-cohort N --fleet-population N \
[--fleet-rounds N] [--fleet-bits N] [--fleet-heartbeat-ms MS] [--fleet-liveness-ms MS] \
[--fleet-deadline-ms MS] [--fleet-seed N] [--fleet-value-seed N]]

  --addr HOST:PORT     bind address (default 127.0.0.1:7447)
  --read-timeout-ms MS idle-connection drop timeout (default 30000)
  --state-dir DIR      durable campaign state: snapshot + write-ahead log
                       per campaign; on startup the WAL is replayed to the
                       last committed round (default: in-memory only)
  --snapshot-every N   commits per campaign between WAL-truncating
                       snapshots (default 8)

fleet mode (both --fleet-cohort and --fleet-population required to arm):
  --fleet-cohort N       participants drafted per round
  --fleet-population N   rendezvoused participants required before the
                         first round starts
  --fleet-rounds N       rounds to run before dismissal (default 1)
  --fleet-bits N         encoded value bit width, 1..=32 (default 8)
  --fleet-heartbeat-ms MS  participant heartbeat cadence (default 500)
  --fleet-liveness-ms MS   silence after which a participant is declared
                           dead (default 2500; must exceed the heartbeat)
  --fleet-deadline-ms MS   per-round completion deadline (default 4x
                           liveness)
  --fleet-seed N           cohort-selection seed (default 0)
  --fleet-value-seed N     participant value-generator seed (default 0)

exit codes: 0 clean shutdown; 1 startup/usage error; 2 leaked daemon
thread(s); 3 unrecoverable state dir (corrupt snapshot or failed flush)";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(1)
}

fn main() -> ExitCode {
    let mut cfg = DaemonConfig {
        addr: "127.0.0.1:7447".to_string(),
        ..DaemonConfig::default()
    };
    let mut state_dir: Option<PathBuf> = None;
    let mut snapshot_every = DEFAULT_SNAPSHOT_EVERY;
    let mut fleet_cohort: Option<usize> = None;
    let mut fleet_population: Option<usize> = None;
    let mut fleet_rounds = 1u64;
    let mut fleet_bits = 8u32;
    let mut fleet_heartbeat_ms = 500u64;
    let mut fleet_liveness_ms = 2500u64;
    let mut fleet_deadline_ms: Option<u64> = None;
    let mut fleet_seed = 0u64;
    let mut fleet_value_seed = 0u64;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        let Some(value) = args.next() else {
            return usage();
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value,
            "--read-timeout-ms" => match value.parse::<u64>() {
                Ok(ms) if ms > 0 => cfg.read_timeout = Duration::from_millis(ms),
                _ => return usage(),
            },
            "--state-dir" => state_dir = Some(PathBuf::from(value)),
            "--snapshot-every" => match value.parse::<u64>() {
                Ok(n) if n > 0 => snapshot_every = n,
                _ => return usage(),
            },
            "--fleet-cohort" => match value.parse::<usize>() {
                Ok(n) => fleet_cohort = Some(n),
                Err(_) => return usage(),
            },
            "--fleet-population" => match value.parse::<usize>() {
                Ok(n) => fleet_population = Some(n),
                Err(_) => return usage(),
            },
            "--fleet-rounds" => match value.parse::<u64>() {
                Ok(n) => fleet_rounds = n,
                Err(_) => return usage(),
            },
            "--fleet-bits" => match value.parse::<u32>() {
                Ok(n) => fleet_bits = n,
                Err(_) => return usage(),
            },
            "--fleet-heartbeat-ms" => match value.parse::<u64>() {
                Ok(ms) => fleet_heartbeat_ms = ms,
                Err(_) => return usage(),
            },
            "--fleet-liveness-ms" => match value.parse::<u64>() {
                Ok(ms) => fleet_liveness_ms = ms,
                Err(_) => return usage(),
            },
            "--fleet-deadline-ms" => match value.parse::<u64>() {
                Ok(ms) => fleet_deadline_ms = Some(ms),
                Err(_) => return usage(),
            },
            "--fleet-seed" => match value.parse::<u64>() {
                Ok(n) => fleet_seed = n,
                Err(_) => return usage(),
            },
            "--fleet-value-seed" => match value.parse::<u64>() {
                Ok(n) => fleet_value_seed = n,
                Err(_) => return usage(),
            },
            _ => return usage(),
        }
    }
    let fleet_armed = match (fleet_cohort, fleet_population) {
        (Some(cohort), Some(population)) => {
            // Fail closed: a degenerate fleet config is a startup error,
            // not a silently hung campaign.
            match FleetConfig::try_new(
                cohort,
                population,
                fleet_rounds,
                fleet_bits,
                fleet_heartbeat_ms,
                fleet_liveness_ms,
            ) {
                Ok(fc) => {
                    let mut fc = fc.with_seed(fleet_seed).with_value_seed(fleet_value_seed);
                    if let Some(deadline) = fleet_deadline_ms {
                        fc = fc.with_round_deadline_ms(deadline);
                    }
                    cfg.fleet = Some(fc);
                    true
                }
                Err(e) => {
                    eprintln!("fednumd: invalid fleet configuration: {e}");
                    return ExitCode::from(1);
                }
            }
        }
        (None, None) => false,
        _ => {
            eprintln!("fednumd: --fleet-cohort and --fleet-population must be given together");
            return usage();
        }
    };

    let rounds = match &state_dir {
        Some(dir) => match RoundStream::recover(dir, snapshot_every) {
            Ok(rounds) => rounds,
            Err(e) => {
                eprintln!("fednumd: unrecoverable state dir {}: {e}", dir.display());
                return ExitCode::from(3);
            }
        },
        None => RoundStream::ephemeral(),
    };
    let recovery = rounds.recovery_stats();
    if let Some(dir) = &state_dir {
        println!(
            "fednumd: recovered {} campaign(s) from {} ({} WAL record(s), {} commit(s) \
             replayed, {} staged charge(s) discarded, {} torn byte(s))",
            recovery.campaigns,
            dir.display(),
            recovery.wal_records,
            recovery.commits_replayed,
            recovery.charges_discarded,
            recovery.torn_bytes,
        );
    }

    let handle = match spawn_with_state(cfg, rounds) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("fednumd: failed to start: {e}");
            return ExitCode::from(1);
        }
    };
    // Flushed line the harness (and the ci smoke) waits for before
    // connecting drivers.
    println!("fednumd listening on {}", handle.addr());

    // Hang-up watcher: consume stdin until EOF. A supervisor that closes
    // our stdin (or a terminal Ctrl-D) is the graceful stop signal; the
    // admin Shutdown frame flips the same flag from the socket side.
    let hup = Arc::new(AtomicBool::new(false));
    {
        let hup = Arc::clone(&hup);
        std::thread::Builder::new()
            .name("fednumd-stdin".to_string())
            .spawn(move || {
                let mut sink = [0u8; 1024];
                let mut stdin = std::io::stdin().lock();
                while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
                hup.store(true, Ordering::SeqCst);
            })
            .expect("spawn stdin watcher");
    }

    while !hup.load(Ordering::SeqCst) && !handle.shutdown_requested() {
        if fleet_armed && handle.fleet_done() {
            // The campaign is over and every participant has been
            // dismissed; fall through to a clean shutdown.
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    if fleet_armed {
        for report in handle.fleet_reports() {
            println!(
                "fednumd: fleet round {} complete: {} report(s) from a cohort of {}, \
                 estimate {:.6} (predicted std {:.6}), salvage {} hangup / {} heartbeat, \
                 {} abandoned",
                report.round,
                report.reports,
                report.cohort_size,
                report.estimate,
                report.predicted_std,
                report.salvaged_hangup,
                report.salvaged_heartbeat,
                report.abandoned,
            );
        }
        if let Some(ledger) = handle.fleet_ledger() {
            println!(
                "fednumd: fleet ledger: {} rendezvous / {} acks, {} heartbeat(s) / {} acks, \
                 {} assign(s), {} wait(s), {} report(s) / {} acks, {} done, \
                 {} bytes in / {} bytes out",
                ledger.rendezvous,
                ledger.rendezvous_acks,
                ledger.heartbeats,
                ledger.heartbeat_acks,
                ledger.cohort_assigns,
                ledger.cohort_waits,
                ledger.reports,
                ledger.report_acks,
                ledger.dones,
                ledger.bytes_in,
                ledger.bytes_out,
            );
            println!(
                "fednumd: fleet resilience: {} resume(s) ({} re-issued assign(s)), \
                 {} duplicate report(s) deduplicated, {} dismissal ack(s), \
                 {} busy shed(s), {} stalled drop(s), {} overflow drop(s)",
                ledger.resumes,
                ledger.resumed_assigns,
                ledger.dup_reports,
                ledger.done_acks,
                ledger.busy_sheds,
                ledger.stalled_drops,
                ledger.overflow_drops,
            );
        }
    }

    match handle.shutdown() {
        Ok(stats) => {
            println!(
                "fednumd: served {} session(s) (peak {} concurrent), {} frames in / {} out, \
                 {} timeout(s), {} protocol error(s), {} accept shed(s), \
                 {} stalled read(s), {} overflow drop(s), {} campaign(s) opened, \
                 {} round(s) admitted / {} committed",
                stats.sessions_opened,
                stats.peak_connections,
                stats.frames_in,
                stats.frames_out,
                stats.timeouts,
                stats.protocol_errors,
                stats.accept_sheds,
                stats.stalled_reads,
                stats.overflow_drops,
                stats.campaigns_opened,
                stats.rounds_admitted,
                stats.rounds_committed,
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fednumd: unclean shutdown: {e}");
            // A failed state flush is exit-code-3 territory (the state dir
            // needs operator attention); a leaked thread stays exit 2.
            if matches!(&e, fednum_fedsim::error::FedError::Transport { op, .. } if *op == "state-flush")
            {
                ExitCode::from(3)
            } else {
                ExitCode::from(2)
            }
        }
    }
}
