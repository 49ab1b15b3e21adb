//! The persistent coordinator daemon behind
//! [`TcpTransport`](crate::tcp::TcpTransport) and the `fednumc` fleet.
//!
//! [`spawn`] binds a listener and returns a [`DaemonHandle`]; the daemon
//! then serves any number of driver sessions and fleet participants
//! concurrently until asked to shut down. Each connection speaks the
//! length-delimited control protocol defined in [`crate::tcp`]:
//!
//! 1. the driver's `Hello` carries the session seed, round id, validation
//!    mode, and (optionally) the exact
//!    [`FaultPlan`](fednum_fedsim::faults::FaultPlan) parameters, from
//!    which the daemon rebuilds the driver's wire-fault stage via
//!    [`SimNetTransport::with_plan`];
//! 2. every `Env` frame is decoded, validated against the protocol
//!    codec, passed through that fault stage, and the resulting
//!    deliveries (0, 1, or 2 of them — drops, duplicates, straggles)
//!    are echoed back in exactly one `Deliveries` frame;
//! 3. `Redeliver` frames bypass the fault stage, `Window` frames arm it,
//!    and `Close` returns the session's wire totals;
//! 4. a connection whose first frame is a fleet `Rendezvous` instead
//!    joins the [`crate::fleet`] subsystem: registry → selector →
//!    heartbeat monitor → salvage, driven by the same loop.
//!
//! **Threading model.** One reactor thread multiplexes the listener and
//! every connection through nonblocking sockets and the [`crate::reactor`]
//! `poll(2)` wrapper — no thread per connection, no async runtime. The
//! event loop's cost per idle connection is one `pollfd` entry, so
//! thousands of idle participants coexist with driver sessions on a single
//! thread. Replies are queued in arrival order on each connection, so a
//! driver reads its echoes in the order it wrote the frames.
//!
//! **Shutdown.** [`DaemonHandle::request_shutdown`] (or an admin
//! `Shutdown` frame, which `fednumd` maps to the same flag) flags the
//! loop; the reactor notices within one poll tick, stops accepting,
//! flushes pending replies under a bounded drain, closes every socket,
//! and exits. [`DaemonHandle::shutdown`] then joins the thread under a
//! grace deadline — reporting a leak as a typed error rather than
//! hanging, which `fednumd` turns into exit code 2.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fednum_core::privacy::durable::{
    Admission, CommitSummary, DurableError, DurableLedger, RecoveryStats,
};
use fednum_core::wire::{self, CampaignMessage, FleetMessage, FrameDecoder};
use fednum_fedsim::error::FedError;

use crate::fleet::{FleetAction, FleetConfig, FleetEngine, FleetLedger, FleetRoundReport};
use crate::message::Message;
use crate::net::{Envelope, SimNetTransport, Transport};
use crate::reactor::{self, PollFd, INTEREST_READ, INTEREST_WRITE};
use crate::tcp::{self, Ctrl, EnvRef, SessionHello, SessionStats, PROTOCOL_VERSION};

/// Reactor poll granularity: the latency bound on shutdown notice,
/// fleet timer ticks, and idle-timeout sweeps.
const POLL_TICK_MS: i32 = 5;

/// How long the shutdown drain keeps flushing pending replies before
/// closing sockets regardless.
const DRAIN_LIMIT: Duration = Duration::from_millis(250);

/// The retry hint carried in the `Busy` frame a shed connection receives
/// when the daemon is at its connection cap.
pub const BUSY_RETRY_MS: u64 = 500;

/// Configuration for [`spawn`].
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address; use port 0 to let the OS pick (see
    /// [`DaemonHandle::addr`] for the resolved address).
    pub addr: String,
    /// Per-connection idle timeout: a driver connection with no traffic
    /// for this long is dropped (and counted in
    /// [`DaemonSnapshot::timeouts`]). Fleet participants are governed by
    /// the fleet liveness policy instead.
    pub read_timeout: Duration,
    /// How long [`DaemonHandle::shutdown`] waits for the reactor thread
    /// to finish before declaring it leaked.
    pub shutdown_grace: Duration,
    /// Read-progress deadline (slow-loris defense): a connection that has
    /// buffered part of a frame but not completed it for this long is
    /// dropped. Unlike `read_timeout` this applies to *every* connection,
    /// fleet participants included — a half-delivered frame is never
    /// legitimate idleness.
    pub read_progress: Duration,
    /// Accept-storm shedding threshold: beyond this many concurrent
    /// connections, new arrivals are sent a best-effort
    /// [`FleetMessage::Busy`] frame (`retry_after_ms` = [`BUSY_RETRY_MS`])
    /// and dropped.
    pub max_connections: usize,
    /// Per-connection buffer bound, applied to both the partial-frame
    /// decode buffer and the unflushed output backlog. Must exceed
    /// [`wire::MAX_FRAME_LEN`] or legitimate maximum-size frames would be
    /// dropped; the default leaves 64 KiB of slack above the frame cap.
    pub max_conn_buffer: usize,
    /// When set, the daemon hosts a fleet campaign: participant
    /// connections rendezvous, heartbeat, and serve rounds per this
    /// configuration.
    pub fleet: Option<FleetConfig>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            read_timeout: Duration::from_secs(30),
            shutdown_grace: Duration::from_secs(5),
            read_progress: Duration::from_secs(10),
            max_connections: 16_384,
            max_conn_buffer: wire::MAX_FRAME_LEN + 64 * 1024,
            fleet: None,
        }
    }
}

/// The cross-round campaign scheduler: one [`DurableLedger`] per campaign
/// id, shared by every connection the daemon serves. In durable mode
/// (built by [`RoundStream::recover`]) each ledger is backed by a
/// snapshot + WAL under the state directory; in ephemeral mode the same
/// state machine runs purely in memory.
pub struct RoundStream {
    state_dir: Option<PathBuf>,
    snapshot_every: u64,
    campaigns: HashMap<u64, DurableLedger>,
    recovery: RecoveryStats,
}

impl RoundStream {
    /// A scheduler with no backing storage: campaigns live and die with
    /// the daemon process.
    #[must_use]
    pub fn ephemeral() -> Self {
        Self {
            state_dir: None,
            snapshot_every: fednum_core::privacy::durable::DEFAULT_SNAPSHOT_EVERY,
            campaigns: HashMap::new(),
            recovery: RecoveryStats::default(),
        }
    }

    /// Recovers every campaign found under `dir` (creating the directory
    /// if absent) and keeps it as the backing store for new campaigns.
    /// `snapshot_every` sets the WAL-truncating snapshot cadence in
    /// commits per campaign.
    ///
    /// # Errors
    /// [`DurableError::Corrupt`] when any campaign snapshot cannot be
    /// trusted (the unrecoverable case `fednumd` maps to exit code 3);
    /// [`DurableError::Io`] on filesystem failures.
    pub fn recover(dir: &Path, snapshot_every: u64) -> Result<Self, DurableError> {
        std::fs::create_dir_all(dir).map_err(DurableError::from)?;
        let mut campaigns = HashMap::new();
        let mut recovery = RecoveryStats::default();
        for id in DurableLedger::scan(dir)? {
            let (ledger, stats) = DurableLedger::open(dir, id, snapshot_every)?;
            recovery.merge(&stats);
            campaigns.insert(id, ledger);
        }
        Ok(Self {
            state_dir: Some(dir.to_path_buf()),
            snapshot_every,
            campaigns,
            recovery,
        })
    }

    /// What startup recovery replayed and discarded, aggregated across
    /// campaigns (all zeros for an ephemeral scheduler).
    #[must_use]
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Campaigns currently held by the scheduler.
    #[must_use]
    pub fn campaign_count(&self) -> usize {
        self.campaigns.len()
    }

    /// Opens or resumes the campaign named by `config.campaign_id` and
    /// returns its committed position `(round_index, clients, total_bits,
    /// digest)`.
    ///
    /// # Errors
    /// [`DurableError::ConfigMismatch`] when the campaign exists under a
    /// different budget policy; storage errors in durable mode.
    pub fn open_campaign(
        &mut self,
        config: &CampaignMessage,
    ) -> Result<(u64, u64, u64, u64), DurableError> {
        let id = config.campaign_id;
        if !self.campaigns.contains_key(&id) {
            let ledger = match &self.state_dir {
                Some(dir) => {
                    let (ledger, stats) =
                        DurableLedger::open_or_create(dir, *config, self.snapshot_every)?;
                    if let Some(stats) = stats {
                        self.recovery.merge(&stats);
                    }
                    ledger
                }
                None => DurableLedger::in_memory(*config),
            };
            self.campaigns.insert(id, ledger);
        }
        let ledger = &self.campaigns[&id];
        if !ledger.state().config().policy_matches(config) {
            return Err(DurableError::ConfigMismatch);
        }
        let state = ledger.state();
        let (mut clients, mut total_bits) = (0u64, 0u64);
        for (_, account) in state.ledger().accounts() {
            clients += 1;
            total_bits += account.bits;
        }
        Ok((state.round_index(), clients, total_bits, ledger.digest()))
    }

    /// Admits `clients` into `round` of campaign `id`; in durable mode the
    /// staged charges are on the WAL (fsynced) before this returns.
    ///
    /// # Errors
    /// As [`DurableLedger::admit_round`]; `Corrupt("unknown campaign")`
    /// when `id` was never opened.
    pub fn admit(
        &mut self,
        id: u64,
        round: u64,
        clients: &[u64],
    ) -> Result<Admission, DurableError> {
        self.campaigns
            .get_mut(&id)
            .ok_or(DurableError::Corrupt("unknown campaign"))?
            .admit_round(round, clients)
    }

    /// Commits the staged round of campaign `id`; in durable mode the
    /// commit record is fsynced before this returns.
    ///
    /// # Errors
    /// As [`DurableLedger::commit_round`]; `Corrupt("unknown campaign")`
    /// when `id` was never opened.
    pub fn commit(&mut self, id: u64, round: u64) -> Result<CommitSummary, DurableError> {
        self.campaigns
            .get_mut(&id)
            .ok_or(DurableError::Corrupt("unknown campaign"))?
            .commit_round(round)
    }

    /// Snapshots every campaign and truncates its WAL — the shutdown
    /// flush, making the next startup a snapshot-only (no replay) load.
    ///
    /// # Errors
    /// The first storage failure; remaining campaigns are still attempted.
    pub fn flush(&mut self) -> Result<(), DurableError> {
        let mut first_err = None;
        for ledger in self.campaigns.values_mut() {
            if let Err(e) = ledger.flush_snapshot() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

/// Monotonic counters the daemon maintains across all sessions.
#[derive(Debug, Default)]
struct Counters {
    sessions_opened: AtomicU64,
    sessions_closed: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    timeouts: AtomicU64,
    protocol_errors: AtomicU64,
    invalid_payloads: AtomicU64,
    accept_sheds: AtomicU64,
    stalled_reads: AtomicU64,
    overflow_drops: AtomicU64,
    active_connections: AtomicU64,
    peak_connections: AtomicU64,
    campaigns_opened: AtomicU64,
    rounds_admitted: AtomicU64,
    rounds_committed: AtomicU64,
}

/// A point-in-time copy of the daemon's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonSnapshot {
    /// Sessions that completed the `Hello` handshake.
    pub sessions_opened: u64,
    /// Sessions that ended with an explicit `Close`.
    pub sessions_closed: u64,
    /// Control frames received across all connections.
    pub frames_in: u64,
    /// Control frames sent across all connections.
    pub frames_out: u64,
    /// Encoded bytes received, framing included.
    pub bytes_in: u64,
    /// Encoded bytes sent, framing included.
    pub bytes_out: u64,
    /// Connections dropped by the idle timeout.
    pub timeouts: u64,
    /// Connections dropped for malformed control frames or protocol
    /// misuse (e.g. `Env` before `Hello`, version mismatch, fleet frames
    /// on a driver session).
    pub protocol_errors: u64,
    /// Envelope payloads that failed [`Message`] codec validation (the
    /// frame is still relayed; this is a diagnostic, not a drop).
    pub invalid_payloads: u64,
    /// Connections shed at accept with a `Busy` frame (the daemon was at
    /// [`DaemonConfig::max_connections`]).
    pub accept_sheds: u64,
    /// Connections dropped by the read-progress deadline (a frame sat
    /// partially delivered longer than [`DaemonConfig::read_progress`]).
    pub stalled_reads: u64,
    /// Connections dropped for exceeding
    /// [`DaemonConfig::max_conn_buffer`] on either buffer.
    pub overflow_drops: u64,
    /// Connections currently being served.
    pub active_connections: u64,
    /// High-water mark of concurrently served connections.
    pub peak_connections: u64,
    /// `Campaign` frames that opened or resumed a campaign.
    pub campaigns_opened: u64,
    /// Rounds admitted by the campaign scheduler (replayed admissions of
    /// already-committed rounds included).
    pub rounds_admitted: u64,
    /// Rounds committed (idempotent re-commits included).
    pub rounds_committed: u64,
}

impl Counters {
    fn snapshot(&self) -> DaemonSnapshot {
        DaemonSnapshot {
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            sessions_closed: self.sessions_closed.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            invalid_payloads: self.invalid_payloads.load(Ordering::Relaxed),
            accept_sheds: self.accept_sheds.load(Ordering::Relaxed),
            stalled_reads: self.stalled_reads.load(Ordering::Relaxed),
            overflow_drops: self.overflow_drops.load(Ordering::Relaxed),
            active_connections: self.active_connections.load(Ordering::Relaxed),
            peak_connections: self.peak_connections.load(Ordering::Relaxed),
            campaigns_opened: self.campaigns_opened.load(Ordering::Relaxed),
            rounds_admitted: self.rounds_admitted.load(Ordering::Relaxed),
            rounds_committed: self.rounds_committed.load(Ordering::Relaxed),
        }
    }
}

struct Shared {
    shutdown: AtomicBool,
    counters: Counters,
    rounds: Mutex<RoundStream>,
    fleet: Mutex<Option<FleetEngine>>,
}

/// A running daemon (see the module docs for lifecycle and threading).
pub struct DaemonHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    grace_ms: u64,
}

impl DaemonHandle {
    /// The resolved listen address (useful with a port-0 bind).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters.
    #[must_use]
    pub fn snapshot(&self) -> DaemonSnapshot {
        self.shared.counters.snapshot()
    }

    /// Whether a shutdown has been requested (locally or by an admin
    /// `Shutdown` frame).
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Flags the daemon to stop. The reactor notices within one poll
    /// tick, drains pending replies, and closes every connection — no
    /// socket force-closing needed, because no read ever blocks. Pair
    /// with [`DaemonHandle::shutdown`] to join the thread.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// What startup recovery replayed and discarded (all zeros for a
    /// daemon spawned without a state directory).
    #[must_use]
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.shared.rounds.lock().unwrap().recovery_stats()
    }

    /// Completed fleet round reports, in order (empty when the daemon
    /// was not spawned with a fleet configuration).
    #[must_use]
    pub fn fleet_reports(&self) -> Vec<FleetRoundReport> {
        self.shared
            .fleet
            .lock()
            .unwrap()
            .as_ref()
            .map(|e| e.reports().to_vec())
            .unwrap_or_default()
    }

    /// The exact fleet traffic ledger (`None` without a fleet).
    #[must_use]
    pub fn fleet_ledger(&self) -> Option<FleetLedger> {
        self.shared
            .fleet
            .lock()
            .unwrap()
            .as_ref()
            .map(FleetEngine::ledger)
    }

    /// Whether the fleet campaign has completed every configured round.
    #[must_use]
    pub fn fleet_done(&self) -> bool {
        self.shared
            .fleet
            .lock()
            .unwrap()
            .as_ref()
            .is_some_and(FleetEngine::done)
    }

    /// Fleet participants currently rendezvoused and live.
    #[must_use]
    pub fn fleet_population(&self) -> usize {
        self.shared
            .fleet
            .lock()
            .unwrap()
            .as_ref()
            .map_or(0, FleetEngine::live_population)
    }

    /// Requests shutdown, joins the reactor thread under the configured
    /// grace deadline, then flushes campaign state (snapshot + WAL
    /// truncation) so the next startup is a clean snapshot-only load.
    ///
    /// # Errors
    /// [`FedError::Transport { op: "shutdown" }`] naming the number of
    /// threads that failed to exit within the grace period — the leak
    /// detector the CI smoke relies on; [`FedError::Transport { op:
    /// "state-flush" }`] when the final snapshot cannot be written (the
    /// WAL still holds every commit, so no budget state is lost — but
    /// `fednumd` reports it as exit code 3).
    pub fn shutdown(mut self) -> Result<DaemonSnapshot, FedError> {
        self.request_shutdown();
        let grace = Duration::from_millis(self.grace_ms);
        let deadline = Instant::now() + grace;
        while self.threads.iter().any(|t| !t.is_finished()) {
            if Instant::now() >= deadline {
                let leaked = self.threads.iter().filter(|t| !t.is_finished()).count();
                return Err(FedError::Transport {
                    op: "shutdown",
                    detail: format!("{leaked} daemon thread(s) still running after {grace:?}"),
                });
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        for t in self.threads.drain(..) {
            t.join().map_err(|_| FedError::Transport {
                op: "shutdown",
                detail: "daemon thread panicked".to_string(),
            })?;
        }
        self.shared
            .rounds
            .lock()
            .unwrap()
            .flush()
            .map_err(|e| FedError::Transport {
                op: "state-flush",
                detail: e.to_string(),
            })?;
        Ok(self.shared.counters.snapshot())
    }
}

/// Binds `cfg.addr` and starts the reactor loop with an ephemeral
/// (in-memory) campaign scheduler.
///
/// # Errors
/// Any socket error while binding the listener.
pub fn spawn(cfg: DaemonConfig) -> std::io::Result<DaemonHandle> {
    spawn_with_state(cfg, RoundStream::ephemeral())
}

/// Like [`spawn`], but serving campaigns from a pre-built (typically
/// recovered, see [`RoundStream::recover`]) scheduler.
///
/// # Errors
/// Any socket error while binding the listener.
pub fn spawn_with_state(cfg: DaemonConfig, rounds: RoundStream) -> std::io::Result<DaemonHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let shared = Arc::new(Shared {
        shutdown: AtomicBool::new(false),
        counters: Counters::default(),
        rounds: Mutex::new(rounds),
        fleet: Mutex::new(cfg.fleet.clone().map(FleetEngine::new)),
    });
    let thread = {
        let shared = Arc::clone(&shared);
        let cfg = cfg.clone();
        std::thread::Builder::new()
            .name("fednumd-reactor".to_string())
            .spawn(move || reactor_loop(&listener, &shared, &cfg))?
    };
    Ok(DaemonHandle {
        addr,
        shared,
        threads: vec![thread],
        grace_ms: cfg.shutdown_grace.as_millis() as u64,
    })
}

/// Per-connection wire totals, folded into the global counters when the
/// connection ends (keeps atomics off the per-frame hot path).
#[derive(Default)]
struct ConnTally {
    frames_in: u64,
    frames_out: u64,
    bytes_in: u64,
    bytes_out: u64,
}

/// What a connection turned out to be, decided by its first frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnKind {
    /// Accepted, no frame yet.
    Fresh,
    /// A driver session (`Hello` first).
    Driver,
    /// A fleet participant (`Rendezvous` first).
    Fleet,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnEnd {
    /// Explicit `Close`/`Shutdown` exchange completed, or a fleet
    /// dismissal.
    Clean,
    /// Peer hung up between frames.
    Eof,
    /// Idle timeout expired.
    Timeout,
    /// Read-progress deadline expired on a partially delivered frame
    /// (slow-loris defense).
    Stalled,
    /// A per-connection buffer exceeded its bound.
    Overflow,
    /// Malformed frame or protocol misuse.
    Protocol,
    /// Other socket error (peer reset, ...).
    Io,
}

/// One multiplexed connection's state in the reactor loop.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Outgoing bytes not yet accepted by the socket.
    out: Vec<u8>,
    written: usize,
    kind: ConnKind,
    session: Option<SimNetTransport>,
    /// One frame's deliveries, between the stage and their echo.
    staged: Vec<(f64, Envelope)>,
    /// The handshake parameters, kept so campaign rounds can rebuild the
    /// fault stage with fresh per-round seeds.
    hello: Option<SessionHello>,
    /// The campaign this connection bound with its last `Campaign` frame.
    campaign: Option<u64>,
    tally: ConnTally,
    last_activity: Instant,
    /// Since when the decode buffer has held a partial frame — the
    /// read-progress clock. `None` whenever the buffer is frame-aligned.
    pending_since: Option<Instant>,
    /// Set when the connection should close (after its output drains).
    end: Option<ConnEnd>,
    /// Peer sent EOF; close once buffered frames are processed.
    eof: bool,
}

impl Conn {
    fn pending_out(&self) -> bool {
        self.written < self.out.len()
    }

    /// Queues one reply frame on this connection's output buffer.
    fn reply(&mut self, ctrl: &Ctrl) {
        push_reply(&mut self.out, &mut self.tally, |out| ctrl.encode_into(out))
            .expect("control replies stay far under MAX_FRAME_LEN");
    }

    /// Queues the `Deliveries` echo of the frame just staged: everything
    /// the session's fault stage now holds.
    fn echo_staged(&mut self) {
        let Conn {
            session,
            staged,
            out,
            tally,
            end,
            ..
        } = self;
        let net = session
            .as_mut()
            .expect("only a driver session stages frames");
        staged.extend(std::iter::from_fn(|| net.poll()));
        // An echo is its frame plus a delivery time and a count, so a frame
        // near the cap has no echo that fits one: drop the peer that sent it.
        let echo = |out: &mut Vec<u8>| tcp::push_deliveries(out, tcp::delivery_refs(staged));
        if push_reply(out, tally, echo).is_err() {
            *end = Some(ConnEnd::Protocol);
        }
        staged.clear();
    }

    /// Stages a driver's envelope, borrowed from its `Env` frame, and
    /// queues its echo. An envelope the fault stage passes through
    /// verbatim is echoed straight from the frame and never built; any
    /// other goes through the stage. The stage is empty between frames, so
    /// both echo what `send` and [`echo_staged`](Self::echo_staged) would.
    fn stage_env(&mut self, env: EnvRef<'_>, counters: &Counters) {
        let Some(net) = self.session.as_mut() else {
            self.end = Some(ConnEnd::Protocol);
            return;
        };
        if Message::validate(env.payload).is_err() {
            counters.invalid_payloads.fetch_add(1, Ordering::Relaxed);
        }
        if !net.passes_through(env.to, env.payload) {
            net.send(env.to_envelope());
            return self.echo_staged();
        }
        // As in `echo_staged`: an echo past the frame cap drops the peer.
        let echo =
            |out: &mut Vec<u8>| tcp::push_deliveries(out, std::iter::once((env.sent_at, env)));
        if push_reply(&mut self.out, &mut self.tally, echo).is_err() {
            self.end = Some(ConnEnd::Protocol);
        }
    }
}

/// Frames one reply, its payload encoded in place by `body`, onto `out`.
///
/// # Errors
/// `InvalidInput` when the payload exceeds [`wire::MAX_FRAME_LEN`].
fn push_reply(
    out: &mut Vec<u8>,
    tally: &mut ConnTally,
    body: impl FnOnce(&mut Vec<u8>),
) -> std::io::Result<()> {
    let len = wire::push_frame_with(out, body)?;
    tally.frames_out += 1;
    tally.bytes_out += len as u64;
    Ok(())
}

#[cfg(unix)]
fn raw_fd<T: std::os::unix::io::AsRawFd>(socket: &T) -> i32 {
    socket.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_socket: &T) -> i32 {
    // The non-Unix reactor fallback never dereferences the fd.
    0
}

fn reactor_loop(listener: &TcpListener, shared: &Shared, cfg: &DaemonConfig) {
    let counters = &shared.counters;
    let epoch = Instant::now();
    let mut conns: BTreeMap<u64, Conn> = BTreeMap::new();
    let mut next_conn_id = 0u64;
    let mut buf = [0u8; 16 * 1024];
    let mut draining_since: Option<Instant> = None;
    // Per-pass scratch, reused so a pass allocates nothing for the
    // population it merely polls.
    let mut fds: Vec<PollFd> = Vec::new();
    let mut order: Vec<u64> = Vec::new();
    let mut read_ids: Vec<u64> = Vec::new();

    loop {
        let shutting = shared.shutdown.load(Ordering::SeqCst);
        if shutting {
            let since = *draining_since.get_or_insert_with(Instant::now);
            let drained = conns.values().all(|c| !c.pending_out());
            if drained || since.elapsed() >= DRAIN_LIMIT {
                break;
            }
        }

        // Readiness. Index 0 is the listener (skipped once shutting);
        // the rest map one-to-one onto `order`.
        fds.clear();
        order.clear();
        if !shutting {
            fds.push(PollFd::new(raw_fd(listener), INTEREST_READ));
        }
        for (&id, conn) in &conns {
            let mut interest = INTEREST_READ;
            if conn.pending_out() {
                interest |= INTEREST_WRITE;
            }
            fds.push(PollFd::new(raw_fd(&conn.stream), interest));
            order.push(id);
        }
        if reactor::wait(&mut fds, POLL_TICK_MS).is_err() {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        let base = usize::from(!shutting);
        let now = Instant::now();
        let now_ms = epoch.elapsed().as_millis() as u64;

        // Accept-drain every pending connection.
        if !shutting && fds[0].readable() {
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if stream.set_nonblocking(true).is_err()
                            || stream.set_nodelay(true).is_err()
                        {
                            continue;
                        }
                        if conns.len() >= cfg.max_connections {
                            // Accept-storm shedding: tell the peer to
                            // back off (best effort — the socket may not
                            // take the frame) and drop it. Shed sockets
                            // never enter `conns`, so the poll set stays
                            // bounded.
                            let mut frame = Vec::new();
                            let busy = Ctrl::Fleet(FleetMessage::Busy {
                                retry_after_ms: BUSY_RETRY_MS,
                            });
                            wire::write_frame(&mut frame, &busy.encode())
                                .expect("writing to a Vec cannot fail under MAX_FRAME_LEN");
                            let _ = (&stream).write(&frame);
                            counters.accept_sheds.fetch_add(1, Ordering::Relaxed);
                            if let Some(engine) = shared.fleet.lock().unwrap().as_mut() {
                                engine.note_busy_shed();
                            }
                            continue;
                        }
                        next_conn_id += 1;
                        let active =
                            counters.active_connections.fetch_add(1, Ordering::Relaxed) + 1;
                        counters
                            .peak_connections
                            .fetch_max(active, Ordering::Relaxed);
                        conns.insert(
                            next_conn_id,
                            Conn {
                                stream,
                                decoder: FrameDecoder::new(),
                                out: Vec::new(),
                                written: 0,
                                kind: ConnKind::Fresh,
                                session: None,
                                staged: Vec::new(),
                                hello: None,
                                campaign: None,
                                tally: ConnTally::default(),
                                last_activity: now,
                                pending_since: None,
                                end: None,
                                eof: false,
                            },
                        );
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        // Read-drain the ready connections: one `read` each, another only
        // while a read fills the buffer. `poll(2)` is level-triggered, so
        // bytes that land after a short read wake the next pass.
        read_ids.clear();
        for (i, &id) in order.iter().enumerate() {
            if !fds[base + i].readable() {
                continue;
            }
            let conn = conns.get_mut(&id).expect("order mirrors conns");
            if conn.end.is_some() {
                continue;
            }
            read_ids.push(id);
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.decoder.feed(&buf[..n]);
                        conn.last_activity = now;
                        if conn.decoder.pending() > cfg.max_conn_buffer {
                            conn.end = Some(ConnEnd::Overflow);
                            break;
                        }
                        if n < buf.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.end = Some(ConnEnd::Io);
                        break;
                    }
                }
            }
        }

        // Process buffered frames, in per-connection arrival order. Every
        // frame is drained in the pass that reads it, so only the
        // connections read above can hold a new one. Fleet actions may
        // target other connections, so they collect here and apply after
        // the borrow ends.
        let mut fleet_actions: Vec<FleetAction> = Vec::new();
        for &id in &read_ids {
            let conn = conns.get_mut(&id).expect("read this pass");
            // Out of the connection while its frames are handled, so an
            // `Env` frame is staged borrowed, never decoded into a `Ctrl`.
            let mut decoder = std::mem::take(&mut conn.decoder);
            while conn.end.is_none() {
                let decoded = match decoder.next_frame_ref() {
                    Ok(Some(frame)) => {
                        conn.tally.frames_in += 1;
                        conn.tally.bytes_in += wire::frame_len(frame.len()) as u64;
                        if let Some(env) = tcp::env_frame(frame) {
                            conn.stage_env(env, &shared.counters);
                            continue;
                        }
                        Ctrl::decode(frame)
                    }
                    Ok(None) => break,
                    Err(_) => {
                        conn.end = Some(ConnEnd::Protocol);
                        break;
                    }
                };
                match decoded {
                    Ok(ctrl) => handle_frame(conn, id, ctrl, shared, now_ms, &mut fleet_actions),
                    Err(_) => conn.end = Some(ConnEnd::Protocol),
                }
            }
            conn.decoder = decoder;
            // Read-progress clock: ticking iff a partial frame is
            // buffered. Every completed frame above realigned the buffer,
            // so `pending() > 0` here means a genuinely unfinished frame.
            if conn.decoder.pending() > 0 {
                conn.pending_since.get_or_insert(now);
            } else {
                conn.pending_since = None;
            }
            if conn.eof && conn.end.is_none() {
                conn.end = Some(ConnEnd::Eof);
            }
        }
        apply_fleet_actions(&mut conns, fleet_actions);

        // Fleet timers: heartbeat expiry, round deadlines, round starts.
        let tick_actions = {
            let mut fleet = shared.fleet.lock().unwrap();
            fleet.as_mut().map(|e| e.tick(now_ms)).unwrap_or_default()
        };
        apply_fleet_actions(&mut conns, tick_actions);

        // Write-drain.
        for conn in conns.values_mut() {
            if !conn.pending_out() {
                continue;
            }
            loop {
                match conn.stream.write(&conn.out[conn.written..]) {
                    Ok(0) => {
                        conn.end.get_or_insert(ConnEnd::Io);
                        break;
                    }
                    Ok(n) => {
                        conn.written += n;
                        if !conn.pending_out() {
                            conn.out.clear();
                            conn.written = 0;
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.end.get_or_insert(ConnEnd::Io);
                        break;
                    }
                }
            }
            if conn.end.is_none() && conn.out.len() - conn.written > cfg.max_conn_buffer {
                // A peer that never drains its replies — or the engine
                // output sent to it — cannot hold unbounded daemon memory
                // hostage.
                conn.end = Some(ConnEnd::Overflow);
            }
        }

        // Idle sweep. Fleet participants are governed by the heartbeat
        // monitor instead — their idle periods between rounds are normal.
        // The read-progress deadline has no such exemption: a
        // half-delivered frame is never legitimate idleness, whoever the
        // peer is (slow-loris defense).
        for conn in conns.values_mut() {
            if conn.end.is_some() {
                continue;
            }
            if conn
                .pending_since
                .is_some_and(|since| now.duration_since(since) > cfg.read_progress)
            {
                conn.end = Some(ConnEnd::Stalled);
            } else if conn.kind != ConnKind::Fleet
                && now.duration_since(conn.last_activity) > cfg.read_timeout
            {
                conn.end = Some(ConnEnd::Timeout);
            }
        }

        // Reap ended connections once their output has drained (error
        // ends close immediately — the peer is gone or misbehaving).
        let mut salvage: Vec<FleetAction> = Vec::new();
        let ended: Vec<u64> = conns
            .iter()
            .filter(|(_, c)| {
                c.end.is_some_and(|e| {
                    !c.pending_out()
                        || matches!(
                            e,
                            ConnEnd::Io | ConnEnd::Protocol | ConnEnd::Stalled | ConnEnd::Overflow
                        )
                })
            })
            .map(|(&id, _)| id)
            .collect();
        for id in ended {
            let conn = conns.remove(&id).expect("collected above");
            let end = conn.end.expect("filtered on end");
            counters.active_connections.fetch_sub(1, Ordering::Relaxed);
            match end {
                ConnEnd::Clean | ConnEnd::Eof | ConnEnd::Io => {}
                ConnEnd::Timeout => {
                    counters.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                ConnEnd::Stalled => {
                    counters.stalled_reads.fetch_add(1, Ordering::Relaxed);
                }
                ConnEnd::Overflow => {
                    counters.overflow_drops.fetch_add(1, Ordering::Relaxed);
                }
                ConnEnd::Protocol => {
                    counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            fold_tally(counters, &conn.tally);
            if conn.kind == ConnKind::Fleet {
                let mut fleet = shared.fleet.lock().unwrap();
                if let Some(engine) = fleet.as_mut() {
                    match end {
                        ConnEnd::Stalled => engine.note_stalled_drop(),
                        ConnEnd::Overflow => engine.note_overflow_drop(),
                        _ => {}
                    }
                    salvage.extend(engine.on_disconnect(id, now_ms));
                }
            }
        }
        // Salvage sends (slot refills to standby clients) go out on the
        // next write-drain.
        apply_fleet_actions(&mut conns, salvage);
    }

    // Shutdown: fold what's left and drop every socket (the close is the
    // EOF the peers see).
    for (_, conn) in conns {
        counters.active_connections.fetch_sub(1, Ordering::Relaxed);
        fold_tally(counters, &conn.tally);
    }
}

fn fold_tally(counters: &Counters, tally: &ConnTally) {
    counters
        .frames_in
        .fetch_add(tally.frames_in, Ordering::Relaxed);
    counters
        .frames_out
        .fetch_add(tally.frames_out, Ordering::Relaxed);
    counters
        .bytes_in
        .fetch_add(tally.bytes_in, Ordering::Relaxed);
    counters
        .bytes_out
        .fetch_add(tally.bytes_out, Ordering::Relaxed);
}

/// Queues engine outputs onto their target connections.
fn apply_fleet_actions(conns: &mut BTreeMap<u64, Conn>, actions: Vec<FleetAction>) {
    for action in actions {
        match action {
            FleetAction::Send(id, msg) => {
                if let Some(conn) = conns.get_mut(&id) {
                    conn.reply(&Ctrl::Fleet(msg));
                }
            }
            FleetAction::Close(id) => {
                if let Some(conn) = conns.get_mut(&id) {
                    conn.end.get_or_insert(ConnEnd::Clean);
                }
            }
        }
    }
}

/// Handles one decoded control frame on `conn`, queueing replies and
/// possibly marking the connection ended. The driver's `TcpTransport`
/// replays the `Env`/`Redeliver`/`Window` arms and the stage re-arm on
/// its side to predict every echo, so those must stay in step with it.
fn handle_frame(
    conn: &mut Conn,
    conn_id: u64,
    ctrl: Ctrl,
    shared: &Shared,
    now_ms: u64,
    fleet_actions: &mut Vec<FleetAction>,
) {
    let counters = &shared.counters;
    match ctrl {
        Ctrl::Hello(hello) => {
            if conn.kind == ConnKind::Fleet
                || hello.version != PROTOCOL_VERSION
                || conn.session.is_some()
            {
                conn.end = Some(ConnEnd::Protocol);
                return;
            }
            conn.kind = ConnKind::Driver;
            conn.session = Some(SimNetTransport::with_plan(
                hello.seed,
                hello.faults,
                hello.validate,
                hello.round_id,
            ));
            conn.hello = Some(hello);
            let session_id = counters.sessions_opened.fetch_add(1, Ordering::Relaxed) + 1;
            conn.reply(&Ctrl::HelloAck { session_id });
        }
        // Not reached from the reactor, which stages every well-formed
        // `Env` frame borrowed before decoding; a decoded one is staged the
        // same way.
        Ctrl::Env(env) => conn.stage_env((&env).into(), counters),
        Ctrl::Redeliver(env) => {
            let Some(net) = conn.session.as_mut() else {
                conn.end = Some(ConnEnd::Protocol);
                return;
            };
            net.redeliver(env);
            conn.echo_staged();
        }
        Ctrl::Window { start, deadline } => {
            let Some(net) = conn.session.as_mut() else {
                conn.end = Some(ConnEnd::Protocol);
                return;
            };
            net.open_window(start, deadline);
        }
        Ctrl::Close => {
            // Totals cover the session up to (and including) the Close
            // request; the Stats reply itself is excluded so the driver
            // can reconcile them against its own WireMetrics exactly.
            let stats = Ctrl::Stats(SessionStats {
                frames_in: conn.tally.frames_in,
                frames_out: conn.tally.frames_out,
                bytes_in: conn.tally.bytes_in,
                bytes_out: conn.tally.bytes_out,
            });
            conn.reply(&stats);
            counters.sessions_closed.fetch_add(1, Ordering::Relaxed);
            conn.end = Some(ConnEnd::Clean);
        }
        Ctrl::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            conn.reply(&Ctrl::ShutdownAck);
            conn.end = Some(ConnEnd::Clean);
        }
        Ctrl::Campaign(config) => {
            if conn.hello.is_none() {
                conn.end = Some(ConnEnd::Protocol);
                return;
            }
            let result = shared.rounds.lock().unwrap().open_campaign(&config);
            let out = match result {
                Ok((round_index, clients, total_bits, digest)) => {
                    conn.campaign = Some(config.campaign_id);
                    counters.campaigns_opened.fetch_add(1, Ordering::Relaxed);
                    Ctrl::CampaignAck {
                        round_index,
                        clients,
                        total_bits,
                        digest,
                    }
                }
                Err(e) => campaign_err(&e),
            };
            conn.reply(&out);
        }
        Ctrl::RoundRequest {
            round,
            net_seed,
            round_id,
            clients,
        } => {
            let Some(hello) = conn.hello else {
                conn.end = Some(ConnEnd::Protocol);
                return;
            };
            let out = match conn.campaign {
                None => campaign_err(&DurableError::Corrupt("no campaign bound")),
                Some(id) => match shared.rounds.lock().unwrap().admit(id, round, &clients) {
                    Ok(admission) => {
                        if !admission.already_committed {
                            // A fresh fault stage per round: campaign
                            // round N must be bit-identical to an
                            // independent session opened with the same
                            // seeds, so no scheduler state may leak
                            // across rounds.
                            conn.session = Some(SimNetTransport::with_plan(
                                net_seed,
                                hello.faults,
                                hello.validate,
                                round_id,
                            ));
                        }
                        counters.rounds_admitted.fetch_add(1, Ordering::Relaxed);
                        Ctrl::RoundAdmit {
                            round: admission.round,
                            admitted: admission.admitted,
                            denied_budget: admission.denied_budget,
                            denied_cooldown: admission.denied_cooldown,
                            already_committed: admission.already_committed,
                        }
                    }
                    Err(e) => campaign_err(&e),
                },
            };
            conn.reply(&out);
        }
        Ctrl::RoundCommit { round } => {
            let out = match conn.campaign {
                None => campaign_err(&DurableError::Corrupt("no campaign bound")),
                Some(id) => match shared.rounds.lock().unwrap().commit(id, round) {
                    Ok(summary) => {
                        counters.rounds_committed.fetch_add(1, Ordering::Relaxed);
                        Ctrl::RoundCommitted {
                            round: summary.round,
                            clients_charged: summary.clients_charged,
                            digest: summary.digest,
                        }
                    }
                    Err(e) => campaign_err(&e),
                },
            };
            conn.reply(&out);
        }
        Ctrl::Fleet(msg) => {
            // Fleet frames on a driver session are protocol misuse, as
            // are driver frames on a fleet connection (handled above by
            // the Hello arm and the session guards).
            if conn.kind == ConnKind::Driver {
                conn.end = Some(ConnEnd::Protocol);
                return;
            }
            let mut fleet = shared.fleet.lock().unwrap();
            let Some(engine) = fleet.as_mut() else {
                // No fleet hosted: a participant knocked on a pure
                // driver daemon.
                conn.end = Some(ConnEnd::Protocol);
                return;
            };
            conn.kind = ConnKind::Fleet;
            match engine.on_message(conn_id, &msg, now_ms) {
                Ok(actions) => fleet_actions.extend(actions),
                Err(_violation) => conn.end = Some(ConnEnd::Protocol),
            }
        }
        Ctrl::HelloAck { .. }
        | Ctrl::Deliveries(_)
        | Ctrl::Stats(_)
        | Ctrl::ShutdownAck
        | Ctrl::CampaignAck { .. }
        | Ctrl::RoundAdmit { .. }
        | Ctrl::RoundCommitted { .. }
        | Ctrl::CampaignErr { .. } => {
            // Daemon-to-driver frames are never valid on the uplink.
            conn.end = Some(ConnEnd::Protocol);
        }
    }
}

/// Maps a scheduler error to its wire form. The codes mirror the
/// [`DurableError`] variants: 1 = I/O, 2 = corrupt/unknown state,
/// 3 = round out of order, 4 = commit without admission, 5 = policy
/// mismatch. The reply leaves the connection usable — a campaign error
/// is a request-level rejection, not a protocol violation.
fn campaign_err(e: &DurableError) -> Ctrl {
    let code = match e {
        DurableError::Io(_) => 1,
        DurableError::Corrupt(_) => 2,
        DurableError::RoundOutOfOrder { .. } => 3,
        DurableError::CommitWithoutAdmit { .. } => 4,
        DurableError::ConfigMismatch => 5,
    };
    Ctrl::CampaignErr {
        code,
        detail: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::client::push_fleet_frame;
    use crate::net::{Envelope, COORDINATOR};

    /// A fleet that never starts a round (the population floor is out of
    /// reach), so a raw socket can rendezvous and beat undisturbed.
    fn idle_fleet() -> FleetConfig {
        FleetConfig::try_new(4, 64, 1, 8, 500, 10_000)
            .expect("valid fleet config")
            .with_seed(1)
    }

    fn connect(addr: SocketAddr) -> TcpStream {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
    }

    /// Reads one control frame, or `None` on EOF.
    fn read_ctrl(stream: &mut TcpStream, decoder: &mut FrameDecoder) -> Option<Ctrl> {
        let mut buf = [0u8; 4096];
        loop {
            if let Some(frame) = decoder.next_frame().expect("well-formed daemon frame") {
                return Some(Ctrl::decode(&frame).expect("a control frame"));
            }
            match stream.read(&mut buf) {
                Ok(0) => return None,
                Ok(n) => decoder.feed(&buf[..n]),
                Err(e) => panic!("read: {e}"),
            }
        }
    }

    fn push_ctrl(out: &mut Vec<u8>, ctrl: &Ctrl) {
        wire::write_frame(out, &ctrl.encode()).unwrap();
    }

    /// Rendezvouses `client_id` and returns its session token.
    fn rendezvous(stream: &mut TcpStream, decoder: &mut FrameDecoder, client_id: u64) -> u64 {
        let mut out = Vec::new();
        push_fleet_frame(
            &mut out,
            FleetMessage::Rendezvous {
                client_id,
                capabilities: 0,
            },
        );
        stream.write_all(&out).unwrap();
        match read_ctrl(stream, decoder) {
            Some(Ctrl::Fleet(FleetMessage::RendezvousAck { session_token, .. })) => session_token,
            other => panic!("expected RendezvousAck, got {other:?}"),
        }
    }

    /// `count` heartbeats with ten-byte sequence numbers, `first..`.
    fn heartbeats(session_token: u64, first: u64, count: u64) -> Vec<u8> {
        let mut out = Vec::new();
        for seq in first..first + count {
            push_fleet_frame(
                &mut out,
                FleetMessage::Heartbeat {
                    session_token,
                    seq: u64::MAX - seq,
                },
            );
        }
        out
    }

    #[test]
    fn a_frame_larger_than_the_read_buffer_arrives_whole_from_one_write() {
        let handle = spawn(DaemonConfig::default()).expect("bind daemon");
        let mut stream = connect(handle.addr());
        let env = Envelope {
            from: 7,
            to: COORDINATOR,
            sent_at: 0.5,
            payload: (0..40_000u32).map(|i| (i % 251) as u8).collect(),
        };
        let mut out = Vec::new();
        push_ctrl(
            &mut out,
            &Ctrl::Hello(SessionHello {
                version: PROTOCOL_VERSION,
                seed: 3,
                round_id: 0,
                validate: false,
                faults: None,
            }),
        );
        push_ctrl(&mut out, &Ctrl::Env(env.clone()));
        push_ctrl(&mut out, &Ctrl::Close);
        assert!(out.len() > 2 * 16 * 1024, "spans several read buffers");
        stream.write_all(&out).unwrap();

        let mut decoder = FrameDecoder::new();
        assert!(matches!(
            read_ctrl(&mut stream, &mut decoder),
            Some(Ctrl::HelloAck { .. })
        ));
        match read_ctrl(&mut stream, &mut decoder) {
            Some(Ctrl::Deliveries(items)) => {
                assert_eq!(items.len(), 1, "one fault-free delivery");
                assert_eq!(items[0].1, env, "echoed byte for byte");
            }
            other => panic!("expected Deliveries, got {other:?}"),
        }
        match read_ctrl(&mut stream, &mut decoder) {
            Some(Ctrl::Stats(stats)) => assert_eq!(stats.frames_in, 3),
            other => panic!("expected Stats, got {other:?}"),
        }
        assert!(
            read_ctrl(&mut stream, &mut decoder).is_none(),
            "clean close"
        );
        let snapshot = handle.shutdown().expect("daemon threads joined");
        assert_eq!(snapshot.protocol_errors, 0);
        assert_eq!(snapshot.overflow_drops, 0);
    }

    #[test]
    fn a_thousand_fleet_frames_in_one_write_are_all_answered_in_order() {
        let handle = spawn(DaemonConfig {
            fleet: Some(idle_fleet()),
            ..DaemonConfig::default()
        })
        .expect("bind daemon");
        let mut stream = connect(handle.addr());
        let mut decoder = FrameDecoder::new();
        let token = rendezvous(&mut stream, &mut decoder, 1);
        let burst = heartbeats(token, 0, 1000);
        assert!(burst.len() > 16 * 1024, "more than one read buffer");
        stream.write_all(&burst).unwrap();
        for seq in 0..1000 {
            match read_ctrl(&mut stream, &mut decoder) {
                Some(Ctrl::Fleet(FleetMessage::HeartbeatAck { seq: got })) => {
                    assert_eq!(got, u64::MAX - seq, "acks in arrival order");
                }
                other => panic!("beat {seq}: expected HeartbeatAck, got {other:?}"),
            }
        }
        let ledger = handle.fleet_ledger().expect("fleet daemon has a ledger");
        assert_eq!((ledger.heartbeats, ledger.heartbeat_acks), (1000, 1000));
        drop(stream);
        let snapshot = handle.shutdown().expect("daemon threads joined");
        assert_eq!(snapshot.protocol_errors, 0);
        assert_eq!(snapshot.overflow_drops, 0);
    }

    #[test]
    fn a_peer_that_never_reads_its_replies_is_dropped_at_the_outgoing_bound() {
        const BOUND: usize = 64 * 1024;
        const BATCH: u64 = 1000;
        let handle = spawn(DaemonConfig {
            fleet: Some(idle_fleet()),
            max_conn_buffer: BOUND,
            ..DaemonConfig::default()
        })
        .expect("bind daemon");
        let mut stream = connect(handle.addr());
        let token = rendezvous(&mut stream, &mut FrameDecoder::new(), 1);
        // Beats go out one batch at a time, and the next batch waits
        // until the daemon has handled the last, so the decode buffer
        // never holds more than one batch: only the replies, which this
        // peer never reads, can grow past the bound.
        let mut sent = 0u64;
        let ledger = loop {
            let batch = heartbeats(token, sent, BATCH);
            assert!(batch.len() < BOUND / 2);
            if stream.write_all(&batch).is_err() {
                break handle.fleet_ledger().unwrap();
            }
            sent += BATCH;
            let deadline = Instant::now() + Duration::from_secs(10);
            let ledger = loop {
                let ledger = handle.fleet_ledger().unwrap();
                if ledger.heartbeats == sent || ledger.overflow_drops > 0 {
                    break ledger;
                }
                assert!(Instant::now() < deadline, "daemon stalled: {ledger:?}");
                std::thread::sleep(Duration::from_micros(200));
            };
            if ledger.overflow_drops > 0 {
                break ledger;
            }
            assert!(sent < 2_000_000, "replies never hit the outgoing bound");
        };
        assert_eq!(ledger.overflow_drops, 1, "{ledger:?}");
        assert_eq!(ledger.heartbeat_acks, ledger.heartbeats);
        let snapshot = handle.shutdown().expect("daemon threads joined");
        assert_eq!(snapshot.overflow_drops, 1);
        assert_eq!(snapshot.protocol_errors, 0);
    }

    #[test]
    fn an_envelope_whose_echo_would_pass_the_frame_cap_drops_its_peer_not_the_daemon() {
        let handle = spawn(DaemonConfig::default()).expect("bind daemon");
        let mut stream = connect(handle.addr());
        let mut decoder = FrameDecoder::new();
        let hello = Ctrl::Hello(SessionHello {
            version: PROTOCOL_VERSION,
            seed: 1,
            round_id: 0,
            validate: true,
            faults: None,
        });
        let mut bytes = Vec::new();
        push_ctrl(&mut bytes, &hello);
        stream.write_all(&bytes).unwrap();
        assert!(matches!(
            read_ctrl(&mut stream, &mut decoder),
            Some(Ctrl::HelloAck { .. })
        ));
        // An `Env` frame exactly at the cap: legal to send, while its echo
        // would pass the cap by a delivery time and a count.
        let mut env = Envelope {
            from: 1,
            to: COORDINATOR,
            sent_at: 0.0,
            payload: Vec::new(),
        };
        let overhead = Ctrl::Env(env.clone()).encode().len();
        env.payload = vec![0; wire::MAX_FRAME_LEN - overhead - 3];
        let frame = Ctrl::Env(env).encode();
        assert_eq!(frame.len(), wire::MAX_FRAME_LEN);
        let mut bytes = Vec::new();
        wire::write_frame(&mut bytes, &frame).unwrap();
        stream.write_all(&bytes).unwrap();
        assert!(
            read_ctrl(&mut stream, &mut decoder).is_none(),
            "the peer is dropped, with no echo"
        );
        // The daemon still serves a fresh session.
        let mut fresh = connect(handle.addr());
        let mut bytes = Vec::new();
        push_ctrl(&mut bytes, &hello);
        fresh.write_all(&bytes).unwrap();
        assert!(matches!(
            read_ctrl(&mut fresh, &mut FrameDecoder::new()),
            Some(Ctrl::HelloAck { .. })
        ));
        drop(fresh);
        let snapshot = handle.shutdown().expect("daemon threads joined");
        assert_eq!(snapshot.protocol_errors, 1);
    }
}
