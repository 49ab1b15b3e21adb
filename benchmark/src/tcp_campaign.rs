//! `tcp_campaign`: a child `fednumd --state-dir`, one `TcpTransport`, one
//! durable campaign of scalar-wire rounds. Each round is
//! `request_round` -> `RoundBuilder::via(tcp)` -> `commit_round`; the next
//! starts when the commit receipt returns.

use std::path::PathBuf;
use std::time::Instant;

use fednum::fedsim::FedError;
use fednum::transport::{InMemoryTransport, TcpTransport, WireMetrics};
use fednum::RoundBuilder;

use crate::check::{binomial_band, Checker, RoundResult};
use crate::daemon::Daemon;
use crate::host::{self, Probes};
use crate::layers;
use crate::proto::{self, DROPOUT};
use crate::report::Report;
use crate::sys::{self, median, Cpu};
use crate::trace::Tracer;
use crate::window::{self, Window, Windowed};
use crate::{Args, OUT_DIR};

const CLIENTS: usize = 5_000;
/// Ids metered through the durable ledger each round.
const METERED: u64 = 1_024;

fn net_seed(round_seed: u64) -> u64 {
    round_seed ^ 0xFEED
}

/// A round that completed, kept for the parity check made outside the
/// timed sections.
struct Done {
    k: u64,
    estimate_bits: u64,
    reports: u64,
}

/// A connected campaign and the closed loop over it.
struct Campaign<'a> {
    daemon: Daemon,
    tcp: TcpTransport,
    connect_ms: f64,
    values: &'a [f64],
    truth: f64,
    seed: u64,
    next_round: u64,
    /// Socket totals after the last completed round.
    wire: WireMetrics,
    done: Vec<Done>,
    checker: Checker,
}

/// Set-up: daemon spawn, connect, campaign open.
fn open<'a>(seed: u64, values: &'a [f64], tracer: &mut Tracer) -> Result<Campaign<'a>, String> {
    let daemon = tracer.span("spawn_daemon", None, 0, || {
        Daemon::spawn(&["--state-dir", "{state}"])
    })?;
    let t0 = Instant::now();
    let mut tcp = tracer
        .span("connect", None, 0, || {
            TcpTransport::connect(daemon.addr, seed)
        })
        .map_err(|e| format!("connect: {e}"))?;
    let connect_ms = t0.elapsed().as_secs_f64() * 1e3;
    tracer
        .span("begin_campaign", None, 0, || {
            tcp.begin_campaign(&layers::campaign_policy(seed))
        })
        .map_err(|e| format!("begin_campaign: {e}"))?;
    Ok(Campaign {
        daemon,
        tcp,
        connect_ms,
        values,
        truth: proto::truth(values),
        seed,
        next_round: 0,
        wire: WireMetrics::default(),
        done: Vec::new(),
        checker: Checker::new(),
    })
}

impl Campaign<'_> {
    fn cpu_s(&self) -> f64 {
        sys::cpu_of(None).total() + self.daemon.cpu().total()
    }

    /// Runs campaign rounds until `seconds` have passed, and at least
    /// `min_rounds`.
    fn run(&mut self, seconds: f64, min_rounds: u64, tracer: &mut Tracer) -> Vec<Window> {
        let metered: Vec<u64> = (0..METERED).collect();
        let expected_reports = binomial_band(self.values.len(), 1.0 - DROPOUT);
        let mut windows = Windowed::new(seconds, self.cpu_s());
        let started = Instant::now();
        let first = self.next_round;
        while self.next_round - first < min_rounds || started.elapsed().as_secs_f64() < seconds {
            let k = self.next_round;
            self.next_round += 1;
            let round_seed = proto::round_seed(self.seed, k);
            let cfg = proto::config(round_seed);
            let round = tracer.begin("round", None, k);
            let parent = tracer.parent(round);
            let t0 = Instant::now();
            let result = (|| {
                let admission = tracer.span("request_round", parent, k, || {
                    self.tcp
                        .request_round(k, net_seed(round_seed), cfg.session_seed, &metered)
                })?;
                let out = tracer.span("run", parent, k, || {
                    RoundBuilder::new(cfg.clone())
                        .seed(round_seed)
                        .via(&mut self.tcp)
                        .run(self.values)
                })?;
                let receipt =
                    tracer.span("commit_round", parent, k, || self.tcp.commit_round(k))?;
                Ok::<_, FedError>((admission, out, receipt))
            })();
            let wall = t0.elapsed().as_secs_f64();
            tracer.end(round);
            let (admission, out, receipt) = match result {
                Ok(parts) => parts,
                Err(e) => {
                    self.checker.op_failed(format!("round {k}: {e}"));
                    continue;
                }
            };
            let flat = out.flat().expect("flat round");
            if admission.admitted.len() as u64 != METERED
                || admission.already_committed
                || receipt.clients_charged != METERED
            {
                self.checker.op_failed(format!(
                    "round {k}: admitted {}, charged {}, already committed {}",
                    admission.admitted.len(),
                    receipt.clients_charged,
                    admission.already_committed
                ));
            } else {
                self.checker.round(
                    k,
                    RoundResult {
                        estimate: out.estimate(),
                        predicted_std: flat.outcome.predicted_std,
                        truth: self.truth,
                        reports: flat.reports,
                        expected_reports,
                    },
                );
            }
            self.done.push(Done {
                k,
                estimate_bits: out.estimate().to_bits(),
                reports: flat.reports,
            });
            if let Some(w) = out.wire {
                self.wire = w;
            }
            windows.round(wall, flat.reports, || self.cpu_s());
        }
        windows.finish(self.cpu_s())
    }

    /// The same seeds over `InMemoryTransport` must publish bit-identical
    /// estimates: the parity contract of `transport::tcp`. Outside any
    /// timed section.
    fn check_parity(&mut self) {
        for d in &self.done {
            let round_seed = proto::round_seed(self.seed, d.k);
            let mut mem = InMemoryTransport::new(net_seed(round_seed));
            let reference = RoundBuilder::new(proto::config(round_seed))
                .seed(round_seed)
                .via(&mut mem)
                .run(self.values);
            match reference {
                Ok(out)
                    if out.estimate().to_bits() == d.estimate_bits
                        && out.flat().map(|f| f.reports) == Some(d.reports) =>
                {
                    self.checker.ops_ok(1);
                }
                Ok(out) => self.checker.op_failed(format!(
                    "round {}: tcp estimate differs from the in-memory estimate {}",
                    d.k,
                    out.estimate()
                )),
                Err(e) => self
                    .checker
                    .op_failed(format!("round {}: in-memory reference failed: {e}", d.k)),
            }
        }
    }

    /// One timed section: rounds for `seconds`, with the socket and CPU
    /// totals around them.
    fn time_once(&mut self, seconds: f64, tracer: &mut Tracer) -> Section {
        let wire_before = self.wire;
        let (cpu_s0, cpu_d0) = (sys::cpu_of(None), self.daemon.cpu());
        let windows = self.run(seconds, 5, tracer);
        Section {
            windows,
            wire_before,
            wire_after: self.wire,
            cpu_self: sys::cpu_of(None).since(cpu_s0),
            cpu_daemon: self.daemon.cpu().since(cpu_d0),
            probes: Probes::default(),
        }
    }

    /// A timed section bracketed by the host probes; timed once more when
    /// its round walls show that the regime changed under it.
    fn timed_section(&mut self, seconds: f64, tracer: &mut Tracer) -> Result<Section, String> {
        let (mut section, probes) = host::probed(
            "tcp_campaign",
            |s: &Section| &s.windows,
            || Ok(self.time_once(seconds, tracer)),
        )?;
        section.probes = probes;
        Ok(section)
    }

    /// Closes the session and stops the daemon, checking what both report.
    /// Returns the close wall in ms and the daemon's protocol-error count.
    fn shut(self, tracer: &mut Tracer, report: &mut Report) -> (f64, u64) {
        let t0 = Instant::now();
        let closed = tracer.span("close", None, 0, || self.tcp.close());
        let close_ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Err(e) = closed {
            report.violations.push(format!("session close failed: {e}"));
        }
        let exit = match self.daemon.stop() {
            Ok(exit) => exit,
            Err(e) => {
                report.violations.push(e);
                return (close_ms, 0);
            }
        };
        if exit.code != Some(0) {
            report
                .violations
                .push(format!("fednumd exited with {:?}", exit.code));
        }
        let errors = exit.count("protocol error(s)");
        if errors != Some(0) {
            report
                .violations
                .push(format!("fednumd counted {errors:?} protocol errors"));
        }
        if exit.count("committed") != Some(self.next_round) {
            report.violations.push(format!(
                "fednumd committed {:?} rounds, the driver {}",
                exit.count("committed"),
                self.next_round
            ));
        }
        self.checker.finish(report);
        (close_ms, errors.unwrap_or(0))
    }
}

/// One whole set-up, timed, then torn down again.
fn set_up_and_shut(seed: u64, tracer: &mut Tracer, report: &mut Report) -> Result<f64, String> {
    let t0 = Instant::now();
    let dataset = proto::draw(CLIENTS, seed);
    let campaign = open(seed, dataset.values(), tracer)?;
    let setup_s = t0.elapsed().as_secs_f64();
    campaign.shut(tracer, report);
    Ok(setup_s)
}

/// What one timed section measured.
struct Section {
    windows: Vec<Window>,
    wire_before: WireMetrics,
    wire_after: WireMetrics,
    cpu_self: Cpu,
    cpu_daemon: Cpu,
    probes: Probes,
}

pub fn run(args: &Args, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    let traced = args.trace;
    tracer.set_enabled(false);
    // Set-up: dataset, daemon spawn, connect, campaign open. Repeated
    // before and after the run so its median is reportable; the instance
    // that serves the run is the last of the first group.
    let mut setup_before = Vec::new();
    if !traced {
        for _ in 0..2 {
            setup_before.push(set_up_and_shut(args.seed, tracer, report)?);
        }
    }
    tracer.set_enabled(traced);
    let t0 = Instant::now();
    let dataset = proto::draw(CLIENTS, args.seed);
    let mut c = open(args.seed, dataset.values(), tracer)?;
    setup_before.push(t0.elapsed().as_secs_f64());
    tracer.set_enabled(false);

    // Warm-up: real rounds, long enough that every timed round sits in
    // the host's sustained-traffic regime.
    let warmup_s = host::warmup_s(args.seconds);
    c.run(warmup_s, 2, tracer);

    let section = if traced {
        // Untraced then traced, a quarter of the run each.
        let quarter = args.seconds / 4.0;
        let mut plain = c.timed_section(quarter, tracer)?;
        tracer.set_enabled(true);
        let mut section = c.timed_section(quarter, tracer)?;
        tracer.set_enabled(false);
        let p50 = |s: &Section| window::best_wall_p50_s(&s.windows);
        if p50(&plain).max(p50(&section)) > window::REGIME_FACTOR * p50(&plain).min(p50(&section)) {
            // The regime settled between the two quarters: their
            // difference is not what tracing costs. Time the plain one
            // again, now that it has.
            eprintln!("tcp_campaign: regime changed between the untraced and traced quarters; timing the untraced one again");
            plain = c.timed_section(quarter, tracer)?;
        }
        report.set(
            "trace.overhead_frac",
            window::best_wall_p50_s(&section.windows) / window::best_wall_p50_s(&plain.windows)
                - 1.0,
        );
        section.probes.after(&plain.probes);
        section
    } else {
        c.timed_section(args.seconds, tracer)?
    };
    if window::straddles_regimes(&section.windows) {
        host::regime_violation(
            report,
            warmup_s,
            "round walls changed regime across the timed section twice".to_string(),
        );
    }

    let walls = window::all_walls_s(&section.windows);
    let wall: f64 = walls.iter().sum();
    let reports = window::total_reports(&section.windows).max(1) as f64;
    let (before, after) = (&section.wire_before, &section.wire_after);
    let frames = (after.frames_sent - before.frames_sent).max(1) as f64;
    let bytes_up = (after.bytes_sent - before.bytes_sent) as f64;
    let bytes_down = (after.bytes_received - before.bytes_received) as f64;
    let p50 = window::best_wall_p50_s(&section.windows);
    let daemon_rss = c.daemon.peak_rss_mb();
    let connect_ms = c.connect_ms;
    let values = c.values;

    tracer.set_enabled(traced);
    c.check_parity();
    let nrmse = c.checker.nrmse();
    let z_rms = c.checker.z_rms();
    let (close_ms, protocol_errors) = c.shut(tracer, report);

    if !traced {
        let mut setup_after = Vec::new();
        for _ in 0..3 {
            setup_after.push(set_up_and_shut(args.seed, tracer, report)?);
        }
        report.set("setup_s", sys::setup_s(&setup_before, &setup_after));
        report.set("round_wall_p50_s", p50);
        report.set(
            "clients_per_s",
            window::best_clients_per_s(&section.windows),
        );
        report.set(
            "cpu_s_per_mclient",
            window::best_cpu_s_per_mclient(&section.windows),
        );
        report.set("peak_rss_mb", sys::peak_rss_mb(None).max(daemon_rss));
        report.set("uplink_bytes_per_client", bytes_up / reports);
        report.set("downlink_bytes_per_client", bytes_down / reports);
        // A report is acknowledged when its round's commit receipt returns.
        report.set("report_ack_p50_ms", p50 * 1e3);
        return Ok(());
    }

    report.set("transport.tcp.connect_ms", connect_ms);
    report.set("transport.tcp.close_ms", close_ms);
    report.set("transport.tcp.frames_per_s", frames / wall);
    report.set(
        "transport.tcp.driver_cpu_us_per_frame",
        section.cpu_self.total() * 1e6 / frames,
    );
    report.set(
        "transport.daemon.cpu_user_us_per_frame",
        section.cpu_daemon.user_s * 1e6 / frames,
    );
    report.set(
        "transport.daemon.cpu_sys_us_per_frame",
        section.cpu_daemon.sys_s * 1e6 / frames,
    );
    report.set("transport.daemon.peak_rss_mb", daemon_rss);
    report.set("transport.daemon.protocol_errors", protocol_errors as f64);
    report.set(
        "core.privacy.durable.admit_ms_p50",
        median(&tracer.durations("request_round")) / 1e6,
    );
    report.set(
        "core.privacy.durable.commit_ms_p50",
        median(&tracer.durations("commit_round")) / 1e6,
    );
    report.set(
        "trace.round_cover_frac",
        median(&tracer.child_cover("round")),
    );
    window::report_tails(report, &section.windows);
    report.set("transport.coordinator.waves_used", 1.0);
    section.probes.report(report);
    report.set(
        "host.connect_us",
        host::connect_us(200).map_err(|e| e.to_string())?,
    );
    let (enc, dec, framing) = layers::report_codec_ns(100_000);
    report.set("core.wire.report_encode_ns_per_frame", enc);
    report.set("core.wire.report_decode_ns_per_frame", dec);
    report.set("core.wire.frame_decoder_ns_per_frame", framing);
    let scalar: Vec<f64> = (0..5u64)
        .map(|i| {
            let s = proto::round_seed(args.seed, 2_000_000 + i);
            layers::scalar_ns_per_client(&proto::config(s), values, s)
        })
        .collect();
    report.set(
        "transport.coordinator.scalar_ns_per_client",
        median(&scalar),
    );
    report.set(
        "transport.net.inmemory_ns_per_envelope",
        layers::inmemory_ns_per_envelope(100_000, args.seed),
    );
    report.set(
        "transport.scheduler.push_pop_ns_per_event",
        layers::scheduler_push_pop_ns(100_000, args.seed),
    );
    let probe_dir = PathBuf::from(OUT_DIR).join(format!("tmp-{}-ledger", std::process::id()));
    let metered: Vec<u64> = (0..METERED).collect();
    let (fsync_us, wal_bytes) = layers::durable_probe(&probe_dir, &metered, 40);
    let _ = std::fs::remove_dir_all(&probe_dir);
    report.set("core.privacy.durable.fsync_commit_us", fsync_us);
    report.set("core.privacy.durable.wal_bytes_per_round", wal_bytes);
    report.set("core.protocol.nrmse", nrmse);
    report.set("core.protocol.z_rms", z_rms);
    report.set("host.cpu_spin_ms", layers::cpu_spin_ms());
    Ok(())
}
