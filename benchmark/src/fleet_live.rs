//! `fleet_live`: a child `fednumd` in fleet mode and the benchmark's own
//! nonblocking generator hosting every participant as a
//! `fleet::client::ClientSession` on one thread. The generator timestamps
//! each frame it sends and receives, so rendezvous, assign-to-report,
//! report-to-ack and heartbeat latencies are measured per client.
//!
//! The loop is closed by the daemon: it forms round *k+1* when the last
//! report of round *k* has arrived, and a client reports the moment it is
//! assigned.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use fednum::core::wire::{FleetMessage, FrameDecoder};
use fednum::transport::fleet::client::{decode_fleet_frame, push_fleet_frame};
use fednum::transport::fleet::client_value;
use fednum::transport::reactor::{self, PollFd, INTEREST_READ, INTEREST_WRITE};
use fednum::transport::{ClientSession, FailMode};

use crate::check::{Checker, RoundResult};
use crate::daemon::{Daemon, Exit};
use crate::host::{self, Probes};
use crate::layers;
use crate::proto::BITS;
use crate::report::Report;
use crate::sys::{self, median, now_ns, quantile, Cpu};
use crate::trace::Tracer;
use crate::window::{self, Window, Windowed};
use crate::Args;

const POPULATION: usize = 2_000;
const COHORT: usize = 500;
/// Connections dialled before the generator waits for their acks.
const WAVE: usize = 64;
const HEARTBEAT_MS: u64 = 1_000;
const LIVENESS_MS: u64 = 15_000;
/// Rounds the daemon is armed for: more than any run can complete, so the
/// run ends when the benchmark closes the daemon's stdin.
const ROUNDS_CAP: u64 = 100_000_000;
/// Per-client spans are kept for this many traced rounds; beyond that the
/// trace file would grow by a megabyte every few rounds.
const CLIENT_SPAN_ROUNDS: usize = 20;
/// Sockets of the unpaced burst probe.
const BURST: usize = 512;
/// `peak_rss_mb` is read when this many rounds have completed since the
/// daemon started (at the end of the run if it never gets there): the
/// daemon keeps every round's report, so its memory grows with the rounds
/// it has served, and a run of fixed length serves more of them the
/// faster the host is.
const RSS_ROUND: usize = 600;

struct Client {
    id: u64,
    stream: TcpStream,
    decoder: FrameDecoder,
    session: ClientSession,
    out: Vec<u8>,
    written: usize,
    dialed_ns: u64,
    hello_ns: u64,
    assign_ns: u64,
    report_ns: u64,
    beat_ns: u64,
}

/// One round as the generator saw it.
struct Round {
    round: u64,
    first_assign_ns: u64,
    last_ack_ns: u64,
    acks: usize,
    /// Sum of the reporters' values: the round's truth is this over the
    /// cohort size, known here because the generator sent the reports.
    value_sum: f64,
    /// The round's span, while tracing.
    span: Option<usize>,
}

/// Latency samples (ns) and counts since the last reset.
#[derive(Default)]
struct Samples {
    rendezvous_rtt: Vec<f64>,
    assign_to_report: Vec<f64>,
    report_to_ack: Vec<f64>,
    heartbeat_rtt: Vec<f64>,
    heartbeats: u64,
    reports: u64,
    acks: u64,
    bytes_up: u64,
    bytes_down: u64,
}

struct Generator {
    addr: SocketAddr,
    value_seed: u64,
    clients: Vec<Client>,
    fds: Vec<PollFd>,
    started: Instant,
    last_tick_ms: u64,
    rendezvoused: usize,
    /// Rounds with acks outstanding, by round number. The daemon forms
    /// round *k+1* in the reactor pass that acks the last report of round
    /// *k*, so assigns of *k+1* can be read before the last acks of *k*.
    open: BTreeMap<u64, Round>,
    completed: Vec<Round>,
    samples: Samples,
    /// Whether to keep the samples only per-layer metrics read.
    layer_samples: bool,
    client_span_rounds: usize,
}

impl Generator {
    fn new(addr: SocketAddr, value_seed: u64) -> Self {
        Self {
            addr,
            value_seed,
            clients: Vec::with_capacity(POPULATION),
            fds: Vec::with_capacity(POPULATION),
            started: Instant::now(),
            last_tick_ms: 0,
            rendezvoused: 0,
            open: BTreeMap::new(),
            completed: Vec::new(),
            samples: Samples::default(),
            layer_samples: false,
            client_span_rounds: 0,
        }
    }

    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Dials `ids` in waves of [`WAVE`]; the next wave starts only after
    /// every `RendezvousAck` of the previous one has arrived, so the dial
    /// rate is the daemon's accept + rendezvous service rate and the
    /// listen queue never holds more than one wave.
    fn paced_dial(&mut self, ids: &[u64], tracer: &mut Tracer) -> Result<(), String> {
        for wave in ids.chunks(WAVE) {
            for &id in wave {
                let dialed_ns = now_ns();
                let stream = TcpStream::connect(self.addr).map_err(|e| format!("dial: {e}"))?;
                stream.set_nodelay(true).map_err(|e| e.to_string())?;
                stream.set_nonblocking(true).map_err(|e| e.to_string())?;
                let (session, hello) = ClientSession::new(id, FailMode::None);
                let mut out = Vec::new();
                push_fleet_frame(&mut out, hello);
                tracer.record("dial", dialed_ns, now_ns(), None, 0);
                self.clients.push(Client {
                    id,
                    stream,
                    decoder: FrameDecoder::new(),
                    session,
                    out,
                    written: 0,
                    dialed_ns,
                    hello_ns: 0,
                    assign_ns: 0,
                    report_ns: 0,
                    beat_ns: 0,
                });
            }
            let deadline = Instant::now() + Duration::from_secs(20);
            while self.rendezvoused < self.clients.len() {
                self.pump(1, tracer)?;
                if Instant::now() > deadline {
                    return Err(format!(
                        "only {} of {} clients rendezvoused",
                        self.rendezvoused,
                        self.clients.len()
                    ));
                }
            }
        }
        Ok(())
    }

    /// One generator iteration: queue due heartbeats, poll every socket,
    /// read and answer frames, flush writes.
    fn pump(&mut self, timeout_ms: i32, tracer: &mut Tracer) -> Result<(), String> {
        let now_ms = self.now_ms();
        if now_ms != self.last_tick_ms {
            self.last_tick_ms = now_ms;
            for c in &mut self.clients {
                for beat in c.session.tick(now_ms) {
                    push_fleet_frame(&mut c.out, beat);
                    c.beat_ns = now_ns();
                    self.samples.heartbeats += 1;
                }
            }
        }
        // The poll set is rebuilt every pass into the same allocation.
        let mut fds = std::mem::take(&mut self.fds);
        fds.clear();
        fds.extend(self.clients.iter().map(|c| {
            let mut interest = INTEREST_READ;
            if c.written < c.out.len() {
                interest |= INTEREST_WRITE;
            }
            PollFd::new(c.stream.as_raw_fd(), interest)
        }));
        reactor::wait(&mut fds, timeout_ms).map_err(|e| format!("poll: {e}"))?;
        let mut buf = [0u8; 4096];
        for (i, fd) in fds.iter().enumerate() {
            if fd.readable() {
                loop {
                    match self.clients[i].stream.read(&mut buf) {
                        Ok(0) => {
                            return Err(format!("daemon closed client {}", self.clients[i].id))
                        }
                        Ok(n) => {
                            self.samples.bytes_down += n as u64;
                            self.clients[i].decoder.feed(&buf[..n]);
                            // A short read drained the socket; poll(2) is
                            // level-triggered, so anything later shows up
                            // on the next pass.
                            if n < buf.len() {
                                break;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(e) => return Err(format!("read client {}: {e}", self.clients[i].id)),
                    }
                }
                let now = now_ns();
                while let Some(frame) = self.clients[i]
                    .decoder
                    .next_frame()
                    .map_err(|e| format!("bad frame from daemon: {e:?}"))?
                {
                    let msg = decode_fleet_frame(&frame)
                        .ok_or_else(|| "daemon sent a non-fleet frame".to_string())?;
                    self.on_frame(i, &msg, now, now_ms, tracer);
                }
            }
            let c = &mut self.clients[i];
            if c.written < c.out.len() {
                if c.hello_ns == 0 {
                    c.hello_ns = now_ns();
                }
                loop {
                    match c.stream.write(&c.out[c.written..]) {
                        Ok(0) => return Err(format!("write to client {} returned 0", c.id)),
                        Ok(n) => {
                            c.written += n;
                            self.samples.bytes_up += n as u64;
                            if c.written == c.out.len() {
                                c.out.clear();
                                c.written = 0;
                                break;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(e) => return Err(format!("write client {}: {e}", c.id)),
                    }
                }
            }
        }
        self.fds = fds;
        Ok(())
    }

    /// Stamps one downlink frame, lets the session answer it, and queues
    /// the answer.
    fn on_frame(
        &mut self,
        i: usize,
        msg: &FleetMessage,
        now: u64,
        now_ms: u64,
        tracer: &mut Tracer,
    ) {
        let keep_client_spans = self.client_span_rounds < CLIENT_SPAN_ROUNDS;
        let c = &mut self.clients[i];
        match *msg {
            FleetMessage::RendezvousAck { .. } => {
                self.rendezvoused += 1;
                self.samples
                    .rendezvous_rtt
                    .push(now.saturating_sub(c.hello_ns) as f64);
                tracer.record("rendezvous", c.hello_ns.max(c.dialed_ns), now, None, 0);
            }
            FleetMessage::CohortAssign { round, .. } => {
                c.assign_ns = now;
                self.open.entry(round).or_insert_with(|| {
                    let span = tracer.begin("round", None, round);
                    Round {
                        round,
                        first_assign_ns: now,
                        last_ack_ns: now,
                        acks: 0,
                        value_sum: 0.0,
                        span: tracer.parent(span),
                    }
                });
            }
            FleetMessage::ReportAck { round } => {
                self.samples.acks += 1;
                self.samples
                    .report_to_ack
                    .push(now.saturating_sub(c.report_ns) as f64);
                if let Some(r) = self.open.get_mut(&round) {
                    if keep_client_spans {
                        tracer.record("report_to_ack", c.report_ns, now, r.span, round);
                    }
                    r.acks += 1;
                    r.last_ack_ns = now;
                    if r.acks == COHORT {
                        if let Some(id) = r.span {
                            tracer.end(id);
                            self.client_span_rounds += 1;
                        }
                        self.completed.extend(self.open.remove(&round));
                    }
                }
            }
            FleetMessage::HeartbeatAck { .. } if c.beat_ns != 0 => {
                self.samples
                    .heartbeat_rtt
                    .push(now.saturating_sub(c.beat_ns) as f64);
                c.beat_ns = 0;
            }
            _ => {}
        }
        for reply in c.session.on_frame(msg, now_ms) {
            if let FleetMessage::Report { round, .. } = reply {
                c.report_ns = now_ns();
                self.samples.reports += 1;
                if self.layer_samples {
                    self.samples
                        .assign_to_report
                        .push(c.report_ns.saturating_sub(c.assign_ns) as f64);
                }
                if let Some(r) = self.open.get_mut(&round) {
                    if keep_client_spans {
                        tracer.record("assign_to_report", c.assign_ns, c.report_ns, r.span, round);
                    }
                    r.value_sum += client_value(self.value_seed, c.id, BITS) as f64;
                }
            }
            push_fleet_frame(&mut c.out, reply);
        }
    }
}

/// The daemon plus the generator attached to it.
struct Fleet {
    daemon: Daemon,
    gen: Generator,
    dial_s: f64,
    overflows: u64,
    /// Peak resident set (max of both processes) when round [`RSS_ROUND`]
    /// completed.
    rss_mark_mb: Option<f64>,
}

fn value_seed(seed: u64) -> u64 {
    fednum::transport::fleet::splitmix64(seed ^ 0xF1EE7)
}

/// Spawns the daemon, dials and rendezvouses every client.
fn bring_up(seed: u64, tracer: &mut Tracer) -> Result<Fleet, String> {
    let overflows0 = sys::listen_overflows();
    let args = [
        "--fleet-cohort".to_string(),
        COHORT.to_string(),
        "--fleet-population".to_string(),
        POPULATION.to_string(),
        "--fleet-rounds".to_string(),
        ROUNDS_CAP.to_string(),
        "--fleet-bits".to_string(),
        BITS.to_string(),
        "--fleet-heartbeat-ms".to_string(),
        HEARTBEAT_MS.to_string(),
        "--fleet-liveness-ms".to_string(),
        LIVENESS_MS.to_string(),
        "--fleet-seed".to_string(),
        seed.to_string(),
        "--fleet-value-seed".to_string(),
        value_seed(seed).to_string(),
    ];
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let daemon = tracer.span("spawn_daemon", None, 0, || Daemon::spawn(&args))?;
    let mut gen = Generator::new(daemon.addr, value_seed(seed));
    let ids: Vec<u64> = (0..POPULATION as u64).collect();
    let t0 = Instant::now();
    gen.paced_dial(&ids, tracer)?;
    Ok(Fleet {
        daemon,
        gen,
        dial_s: t0.elapsed().as_secs_f64(),
        overflows: sys::listen_overflows().saturating_sub(overflows0),
        rss_mark_mb: None,
    })
}

impl Fleet {
    fn peak_rss_mb(&self) -> f64 {
        sys::peak_rss_mb(None).max(self.daemon.peak_rss_mb())
    }

    /// Pumps the generator until `seconds` have passed and a round has
    /// just completed. Each completed round goes to `windows` as one
    /// completion-to-completion interval, with the report-to-ack samples
    /// read since the previous one; `gaps_ms` collects last ack of round
    /// *k* to first assign of *k+1*.
    fn run_for(
        &mut self,
        seconds: f64,
        mut windows: Option<&mut Windowed>,
        gaps_ms: &mut Vec<f64>,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let started = Instant::now();
        let mut seen = self.gen.completed.len();
        loop {
            self.gen.pump(1, tracer)?;
            let elapsed = started.elapsed().as_secs_f64();
            let completed_now = self.gen.completed.len() > seen;
            while seen < self.gen.completed.len() {
                if let (Some(w), true) = (windows.as_deref_mut(), seen > 0) {
                    let (prev, this) = (&self.gen.completed[seen - 1], &self.gen.completed[seen]);
                    let wall_s = this.last_ack_ns.saturating_sub(prev.last_ack_ns) as f64 / 1e9;
                    gaps_ms
                        .push(this.first_assign_ns.saturating_sub(prev.last_ack_ns) as f64 / 1e6);
                    w.latencies(&mut self.gen.samples.report_to_ack);
                    let daemon = &self.daemon;
                    w.round(wall_s, COHORT as u64, || {
                        sys::cpu_of(None).total() + daemon.cpu().total()
                    });
                }
                seen += 1;
                if seen == RSS_ROUND {
                    self.rss_mark_mb = Some(self.peak_rss_mb());
                }
            }
            if completed_now && elapsed >= seconds {
                return Ok(());
            }
            if elapsed > seconds + 30.0 {
                return Err(format!(
                    "no round completed within 30 s of the section's end ({seen} done)"
                ));
            }
        }
    }

    /// One timed section: whole rounds for `seconds`.
    fn time_once(&mut self, seconds: f64, tracer: &mut Tracer) -> Result<Section, String> {
        // Start on a round boundary, so the first interval is a whole round.
        self.run_for(0.0, None, &mut Vec::new(), tracer)?;
        self.gen.samples = Samples::default();
        let cpu_d0 = self.daemon.cpu();
        let mut windows = Windowed::new(seconds, sys::cpu_of(None).total() + cpu_d0.total());
        let mut gaps_ms = Vec::new();
        self.run_for(seconds, Some(&mut windows), &mut gaps_ms, tracer)?;
        let cpu_daemon = self.daemon.cpu();
        Ok(Section {
            windows: windows.finish(sys::cpu_of(None).total() + cpu_daemon.total()),
            gaps_ms,
            samples: std::mem::take(&mut self.gen.samples),
            cpu_daemon: cpu_daemon.since(cpu_d0),
            probes: Probes::default(),
        })
    }

    /// A timed section bracketed by the host probes; timed once more when
    /// its round walls show that the regime changed under it.
    fn timed_section(&mut self, seconds: f64, tracer: &mut Tracer) -> Result<Section, String> {
        let (mut section, probes) = host::probed(
            "fleet_live",
            |s: &Section| &s.windows,
            || self.time_once(seconds, tracer),
        )?;
        section.probes = probes;
        Ok(section)
    }
}

/// One whole set-up, timed, then torn down again.
fn set_up_and_stop(seed: u64, tracer: &mut Tracer, report: &mut Report) -> Result<f64, String> {
    let t0 = Instant::now();
    let Fleet { daemon, gen, .. } = bring_up(seed, tracer)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let exit = daemon.stop()?;
    drop(gen);
    if exit.code != Some(0) {
        report
            .violations
            .push(format!("set-up fednumd exited with {:?}", exit.code));
    }
    Ok(setup_s)
}

/// Every number on a log line, in order (punctuation stripped).
fn numbers(line: &str) -> Vec<f64> {
    line.split_whitespace()
        .filter_map(|t| {
            t.trim_matches(|c: char| !(c.is_ascii_digit() || c == '-' || c == '.'))
                .parse()
                .ok()
        })
        .collect()
}

/// What the daemon printed about the campaign when it stopped.
struct DaemonView {
    /// `(round, reports, cohort, estimate, predicted_std, abandoned)`.
    rounds: Vec<(u64, u64, u64, f64, f64, u64)>,
    reports: u64,
    report_acks: u64,
    dup_reports: u64,
    resumes: u64,
    protocol_errors: u64,
}

fn parse_exit(exit: &Exit) -> Result<DaemonView, String> {
    let mut rounds = Vec::new();
    for line in exit.log.lines().filter(|l| l.contains("fleet round")) {
        let n = numbers(line);
        if n.len() != 8 {
            return Err(format!("unreadable round line: {line}"));
        }
        rounds.push((
            n[0] as u64,
            n[1] as u64,
            n[2] as u64,
            n[3],
            n[4],
            n[7] as u64,
        ));
    }
    let ledger = exit
        .log
        .lines()
        .find(|l| l.contains("fleet ledger:"))
        .map(numbers)
        .filter(|n| n.len() == 11)
        .ok_or("fednumd printed no fleet ledger")?;
    Ok(DaemonView {
        rounds,
        reports: ledger[6] as u64,
        report_acks: ledger[7] as u64,
        dup_reports: exit.count("duplicate report(s)").unwrap_or(u64::MAX),
        resumes: exit.count("resume(s)").unwrap_or(u64::MAX),
        protocol_errors: exit.count("protocol error(s)").unwrap_or(u64::MAX),
    })
}

/// Scores every round both sides completed, and the ledger identities.
fn check_campaign(
    completed: &[Round],
    exit: &Exit,
    checker: &mut Checker,
    report: &mut Report,
) -> Result<DaemonView, String> {
    if exit.code != Some(0) {
        report
            .violations
            .push(format!("fednumd exited with {:?}", exit.code));
    }
    let view = parse_exit(exit)?;
    if view.report_acks != view.reports + view.dup_reports {
        report.violations.push(format!(
            "fleet ledger: {} report acks != {} reports + {} duplicates",
            view.report_acks, view.reports, view.dup_reports
        ));
    }
    if view.protocol_errors != 0 {
        report.violations.push(format!(
            "fednumd counted {} protocol errors",
            view.protocol_errors
        ));
    }
    for r in completed {
        let Some(&(_, reports, cohort, estimate, predicted_std, abandoned)) =
            view.rounds.iter().find(|d| d.0 == r.round)
        else {
            checker.op_failed(format!("round {}: fednumd never published it", r.round));
            continue;
        };
        if abandoned != 0 || cohort != COHORT as u64 {
            checker.op_failed(format!(
                "round {}: {abandoned} abandoned of a cohort of {cohort}",
                r.round
            ));
            continue;
        }
        checker.round(
            r.round,
            RoundResult {
                estimate,
                predicted_std,
                truth: r.value_sum / COHORT as f64,
                reports,
                expected_reports: (COHORT as u64, COHORT as u64),
            },
        );
    }
    Ok(view)
}

/// One measured stretch of rounds.
struct Section {
    windows: Vec<Window>,
    gaps_ms: Vec<f64>,
    samples: Samples,
    cpu_daemon: Cpu,
    probes: Probes,
}

fn ms(samples_ns: &[f64], q: f64) -> f64 {
    quantile(samples_ns, q) / 1e6
}

pub fn run(args: &Args, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    let traced = args.trace;
    tracer.set_enabled(false);
    // Set-up: daemon spawn, paced dial, rendezvous of every client.
    // Repeated before and after the run so its median is reportable; the
    // fleet that serves the run is the last of the first group.
    let mut setup_before = Vec::new();
    if !traced {
        for _ in 0..2 {
            setup_before.push(set_up_and_stop(args.seed, tracer, report)?);
        }
    }
    tracer.set_enabled(traced);
    let t0 = Instant::now();
    let mut fleet = bring_up(args.seed, tracer)?;
    setup_before.push(t0.elapsed().as_secs_f64());
    tracer.set_enabled(false);
    fleet.gen.layer_samples = traced;
    let rendezvous_rtt = std::mem::take(&mut fleet.gen.samples.rendezvous_rtt);
    if fleet.overflows != 0 {
        eprintln!(
            "fleet_live: the paced dial overflowed a listen queue {} times",
            fleet.overflows
        );
    }

    // Warm-up: real rounds until the host is in its sustained regime.
    let warmup_s = host::warmup_s(args.seconds);
    fleet.run_for(warmup_s, None, &mut Vec::new(), tracer)?;

    let section = if traced {
        let quarter = args.seconds / 4.0;
        let plain = fleet.timed_section(quarter, tracer)?;
        tracer.set_enabled(true);
        let mut section = fleet.timed_section(quarter, tracer)?;
        tracer.set_enabled(false);
        report.set(
            "trace.overhead_frac",
            window::best_wall_p50_s(&section.windows) / window::best_wall_p50_s(&plain.windows)
                - 1.0,
        );
        section.probes.after(&plain.probes);
        section
    } else {
        fleet.timed_section(args.seconds, tracer)?
    };
    if window::straddles_regimes(&section.windows) {
        host::regime_violation(
            report,
            warmup_s,
            "round walls changed regime across the timed section twice".to_string(),
        );
    }

    // The unpaced burst, kept only as a probe: what `ClientPool::join`
    // does to the listen queue.
    let burst = if traced {
        let before = sys::listen_overflows();
        let burst = host::burst_dial(fleet.daemon.addr, BURST).map_err(|e| e.to_string())?;
        Some((burst, sys::listen_overflows().saturating_sub(before)))
    } else {
        None
    };

    let daemon_rss = fleet.daemon.peak_rss_mb();
    let peak_rss = fleet.rss_mark_mb.unwrap_or_else(|| fleet.peak_rss_mb());
    let Fleet {
        daemon,
        gen,
        dial_s,
        overflows,
        ..
    } = fleet;
    let exit = daemon.stop()?;
    let completed = gen.completed;
    drop(gen.clients);

    let mut checker = Checker::new();
    let view = check_campaign(&completed, &exit, &mut checker, report)?;
    // One op per client report of the section. A round completes only when
    // every report of its cohort was acknowledged, and `check_campaign`
    // fails a round the daemon abandoned a slot of, so each counted here
    // succeeded; reports still in flight when the section ended belong to
    // a round that is not counted.
    let s = &section.samples;
    checker.ops_ok(s.acks);
    let reports = s.acks.max(1) as f64;
    let (ack_p50_ms, ack_p99_ms) = window::best_latency_ms(&section.windows);

    if !traced {
        let mut setup_after = Vec::new();
        for _ in 0..3 {
            setup_after.push(set_up_and_stop(args.seed, tracer, report)?);
        }
        report.set("setup_s", sys::setup_s(&setup_before, &setup_after));
        report.set(
            "round_wall_p50_s",
            window::best_wall_p50_s(&section.windows),
        );
        report.set(
            "clients_per_s",
            window::best_clients_per_s(&section.windows),
        );
        report.set(
            "cpu_s_per_mclient",
            window::best_cpu_s_per_mclient(&section.windows),
        );
        report.set("peak_rss_mb", peak_rss);
        report.set("uplink_bytes_per_client", s.bytes_up as f64 / reports);
        report.set("downlink_bytes_per_client", s.bytes_down as f64 / reports);
        report.set("report_ack_p50_ms", ack_p50_ms);
        checker.finish(report);
        return Ok(());
    }

    report.set(
        "transport.reactor.accept_us_per_conn",
        dial_s * 1e6 / POPULATION as f64,
    );
    report.set("transport.reactor.listen_overflows", overflows as f64);
    if let Some((burst, burst_overflows)) = &burst {
        report.set("transport.reactor.burst_dial_stalls", burst.stalls as f64);
        report.set(
            "transport.reactor.burst_listen_overflows",
            *burst_overflows as f64,
        );
        eprintln!(
            "fleet_live: unpaced burst of {BURST} dials took {:.3} s ({} stalled, {} listen \
             overflows)",
            burst.wall_s, burst.stalls, burst_overflows
        );
    }
    let frames = (s.reports + s.heartbeats).max(1) as f64;
    report.set(
        "transport.daemon.cpu_user_us_per_frame",
        section.cpu_daemon.user_s * 1e6 / frames,
    );
    report.set(
        "transport.daemon.cpu_sys_us_per_frame",
        section.cpu_daemon.sys_s * 1e6 / frames,
    );
    report.set("transport.daemon.peak_rss_mb", daemon_rss);
    report.set(
        "transport.daemon.protocol_errors",
        view.protocol_errors as f64,
    );
    report.set(
        "transport.fleet.rendezvous_rtt_p50_ms",
        ms(&rendezvous_rtt, 0.5),
    );
    report.set(
        "transport.fleet.assign_to_report_p50_ms",
        ms(&s.assign_to_report, 0.5),
    );
    report.set("transport.fleet.report_ack_p99_ms", ack_p99_ms);
    report.set("transport.fleet.round_gap_p50_ms", median(&section.gaps_ms));
    report.set(
        "transport.fleet.heartbeat_rtt_p50_ms",
        ms(&s.heartbeat_rtt, 0.5),
    );
    report.set(
        "transport.fleet.heartbeats_per_report",
        s.heartbeats as f64 / reports,
    );
    report.set("transport.fleet.resumes", view.resumes as f64);
    report.set("transport.fleet.dup_reports", view.dup_reports as f64);
    window::report_tails(report, &section.windows);
    section.probes.report(report);
    report.set(
        "host.connect_us",
        host::connect_us(200).map_err(|e| e.to_string())?,
    );
    report.set("host.cpu_spin_ms", layers::cpu_spin_ms());
    let (enc, dec) = layers::fleet_codec_ns(100_000);
    report.set("core.wire.fleet_encode_ns_per_frame", enc);
    report.set("core.wire.fleet_decode_ns_per_frame", dec);
    let (per_message, tick_us) = layers::fleet_engine_probe(POPULATION, COHORT, 20);
    report.set("transport.fleet.engine_ns_per_message", per_message);
    report.set("transport.fleet.tick_us_at_2k_registered", tick_us);
    match layers::reactor_wait_us(POPULATION) {
        Ok(us) => report.set("transport.reactor.wait_us_at_2k_idle_fds", us),
        Err(e) => eprintln!("fleet_live: reactor probe skipped: {e}"),
    }
    report.set("core.protocol.nrmse", checker.nrmse());
    report.set("core.protocol.z_rms", checker.z_rms());
    checker.finish(report);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn daemon_lines_parse_by_position() {
        let log = "fednumd listening on 127.0.0.1:4\n\
            fednumd: fleet round 3 complete: 500 report(s) from a cohort of 500, estimate \
            511.250000 (predicted std 13.100000), salvage 0 hangup / 0 heartbeat, 0 abandoned\n\
            fednumd: fleet ledger: 2000 rendezvous / 2000 acks, 31 heartbeat(s) / 31 acks, \
            2000 assign(s), 6000 wait(s), 2000 report(s) / 2000 acks, 0 done, 99 bytes in / 77 \
            bytes out\n\
            fednumd: fleet resilience: 0 resume(s) (0 re-issued assign(s)), 0 duplicate \
            report(s) deduplicated, 0 dismissal ack(s), 0 busy shed(s), 0 stalled drop(s), 0 \
            overflow drop(s)\n\
            fednumd: served 2000 session(s) (peak 2000 concurrent), 1 frames in / 2 out, 0 \
            timeout(s), 0 protocol error(s), 0 accept shed(s)\n";
        let view = parse_exit(&Exit {
            code: Some(0),
            log: log.to_string(),
        })
        .unwrap();
        assert_eq!(view.rounds, vec![(3, 500, 500, 511.25, 13.1, 0)]);
        assert_eq!((view.reports, view.report_acks), (2000, 2000));
        assert_eq!(
            (view.dup_reports, view.resumes, view.protocol_errors),
            (0, 0, 0)
        );
    }
}
