//! The fleet subsystem: rendezvous registry → cohort selector → heartbeat
//! monitor → salvage handoff.
//!
//! Everything the daemon needs to run rounds over *real* participant
//! processes (`fednumc`) instead of a single driver fabricating client
//! frames. The design mirrors the xaynet coordinator's split:
//!
//! * the **registry** tracks every rendezvoused client (id, session token,
//!   last heartbeat, current assignment), keyed in sorted order so any
//!   snapshot of the live pool is deterministic;
//! * the [`Selector`] draws a per-round cohort from that snapshot with a
//!   seeded shuffle — same seed + same live pool ⇒ same cohort, same
//!   standby order;
//! * the [`HeartbeatMonitor`] declares a client dead after the liveness
//!   timeout (K missed beats) with no beat;
//! * dead or hung-up clients holding a cohort slot hand that slot to the
//!   **salvage** path: the slot is refilled from the standby queue (same
//!   bit index, same deadline), so a round survives mid-round churn the
//!   same way the secagg tiers survive dropouts.
//!
//! [`FleetEngine`] composes the four into one *pure* state machine: time
//! is injected (`now_ms`), inputs are decoded [`FleetMessage`]s plus
//! disconnects, outputs are [`FleetAction`]s for the daemon's event loop
//! to perform. Purity is what makes the unit tests here deterministic and
//! fast — no sockets, no clocks, no sleeps.
//!
//! Aggregation reuses the paper's machinery end to end: each participant
//! reports one bit of its encoded value; the engine folds the bits into a
//! [`BitAccumulator`] and finishes through
//! [`BasicBitPushing::finish`] (Algorithm 1's estimator tail), so fleet rounds publish the same
//! `estimate`/`predicted_std` surface as the simulated paths.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use fednum_core::accumulator::BitAccumulator;
use fednum_core::encoding::FixedPointCodec;
use fednum_core::protocol::basic::{BasicBitPushing, BasicConfig};
use fednum_core::sampling::BitSampling;
use fednum_core::wire::FleetMessage;
use fednum_fedsim::error::FedError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

pub mod client;

/// SplitMix64 — the standard seed scrambler. Used for session tokens,
/// per-round selector seeds, and the deterministic per-client value
/// generator, so none of them correlate with the raw configured seed.
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic value a fleet participant holds: an integer in
/// `[0, 2^bits)` derived from the campaign's `value_seed` and the client
/// id. Both sides of the wire compute it — the client to answer its bit
/// assignment, tests and benchmarks to know the ground truth the estimate
/// must approximate.
///
/// # Panics
/// Panics if `bits` is 0 or exceeds 52 (the accumulator's domain).
#[must_use]
pub fn client_value(value_seed: u64, client_id: u64, bits: u32) -> u64 {
    assert!((1..=52).contains(&bits), "bits must be in 1..=52");
    splitmix64(value_seed ^ splitmix64(client_id)) & ((1u64 << bits) - 1)
}

/// Fail-closed fleet configuration (see [`FleetConfig::try_new`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// Clients drafted per round.
    pub cohort_size: usize,
    /// Registered live population required before the first round starts
    /// (later rounds only need `cohort_size` — churn must not deadlock a
    /// running campaign).
    pub min_population: usize,
    /// Rounds to run before the fleet is dismissed.
    pub rounds: u64,
    /// Bit width of the encoded values (1..=32).
    pub bits: u32,
    /// Expected heartbeat cadence, handed to clients in the rendezvous ack.
    pub heartbeat_ms: u64,
    /// Silence after which a client is declared dead (strictly greater
    /// than `heartbeat_ms`; K missed beats ⇒ `liveness_ms ≈ K·heartbeat_ms`).
    pub liveness_ms: u64,
    /// Per-round deadline: slots still unreported this long after the
    /// round starts are abandoned and the round completes without them.
    pub round_deadline_ms: u64,
    /// How long a disconnected client may take to reconnect and resume
    /// before its registration (and any held slot) is expired and
    /// salvaged. `0` disables resume: a disconnect salvages on the next
    /// tick, the pre-resume behavior.
    pub resume_grace_ms: u64,
    /// Pacing floor between rounds: the next round forms no sooner than
    /// this long after the previous one completed. `0` (the default)
    /// forms rounds back to back; a spacing of about one heartbeat gives
    /// stragglers, reconnects, and in-flight faults time to heal off the
    /// round's critical path.
    pub round_spacing_ms: u64,
    /// Seed for cohort selection and bit assignment.
    pub seed: u64,
    /// Seed for the participants' value generator (see [`client_value`]).
    pub value_seed: u64,
}

impl FleetConfig {
    /// Validates and builds a fleet configuration. Remaining knobs get
    /// conservative defaults (`round_deadline_ms` = 4 × liveness, zero
    /// seeds) and can be adjusted with the `with_*` builders.
    ///
    /// # Errors
    /// [`FedError::InvalidConfig`] when the cohort is empty, the cohort
    /// exceeds the registered-population floor, the round count is zero,
    /// the bit width is outside `1..=32`, or the heartbeat interval is
    /// zero or not strictly shorter than the liveness timeout — each a
    /// configuration that could only deadlock or mass-expire a fleet, so
    /// it is rejected up front rather than discovered mid-campaign.
    pub fn try_new(
        cohort_size: usize,
        min_population: usize,
        rounds: u64,
        bits: u32,
        heartbeat_ms: u64,
        liveness_ms: u64,
    ) -> Result<Self, FedError> {
        if cohort_size == 0 {
            return Err(FedError::InvalidConfig(
                "fleet cohort size must be nonzero".into(),
            ));
        }
        if cohort_size > min_population {
            return Err(FedError::InvalidConfig(format!(
                "fleet cohort size {cohort_size} exceeds the registered population floor \
                 {min_population}: a round could never fill"
            )));
        }
        if rounds == 0 {
            return Err(FedError::InvalidConfig(
                "fleet round count must be nonzero".into(),
            ));
        }
        if !(1..=32).contains(&bits) {
            return Err(FedError::InvalidConfig(format!(
                "fleet bit width {bits} must be in 1..=32"
            )));
        }
        if heartbeat_ms == 0 {
            return Err(FedError::InvalidConfig(
                "fleet heartbeat interval must be nonzero".into(),
            ));
        }
        if heartbeat_ms >= liveness_ms {
            return Err(FedError::InvalidConfig(format!(
                "fleet heartbeat interval {heartbeat_ms} ms must be strictly shorter than the \
                 liveness timeout {liveness_ms} ms: a client beating on schedule would still \
                 be declared dead"
            )));
        }
        Ok(Self {
            cohort_size,
            min_population,
            rounds,
            bits,
            heartbeat_ms,
            liveness_ms,
            round_deadline_ms: liveness_ms.saturating_mul(4).max(1),
            resume_grace_ms: liveness_ms,
            round_spacing_ms: 0,
            seed: 0,
            value_seed: 0,
        })
    }

    /// Sets the selection seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the value-generator seed.
    #[must_use]
    pub fn with_value_seed(mut self, value_seed: u64) -> Self {
        self.value_seed = value_seed;
        self
    }

    /// Sets the per-round deadline (clamped to at least 1 ms).
    #[must_use]
    pub fn with_round_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.round_deadline_ms = deadline_ms.max(1);
        self
    }

    /// Sets the reconnect/resume grace window (`0` disables resume).
    #[must_use]
    pub fn with_resume_grace_ms(mut self, grace_ms: u64) -> Self {
        self.resume_grace_ms = grace_ms;
        self
    }

    /// Sets the pacing floor between consecutive rounds (`0` forms
    /// rounds back to back).
    #[must_use]
    pub fn with_round_spacing_ms(mut self, spacing_ms: u64) -> Self {
        self.round_spacing_ms = spacing_ms;
        self
    }
}

/// Declares clients dead after `liveness_ms` of heartbeat silence.
#[derive(Debug, Clone, Copy)]
pub struct HeartbeatMonitor {
    liveness_ms: u64,
}

impl HeartbeatMonitor {
    /// A monitor with the given liveness timeout.
    #[must_use]
    pub fn new(liveness_ms: u64) -> Self {
        Self { liveness_ms }
    }

    /// Whether a client whose last beat was at `last_beat_ms` is dead at
    /// `now_ms`.
    #[must_use]
    pub fn is_dead(&self, last_beat_ms: u64, now_ms: u64) -> bool {
        now_ms.saturating_sub(last_beat_ms) > self.liveness_ms
    }
}

/// Draws per-round cohorts from the live pool with a seeded shuffle:
/// deterministic given the registry snapshot (the sorted live ids) and
/// the round index. The shuffled remainder becomes the standby queue the
/// salvage path refills dead slots from, in order.
#[derive(Debug, Clone, Copy)]
pub struct Selector {
    seed: u64,
}

impl Selector {
    /// A selector drawing with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Draws `(cohort, standby)` for `round` from `live` (must be the
    /// sorted snapshot of live idle client ids).
    #[must_use]
    pub fn draw(&self, round: u64, live: &[u64], cohort_size: usize) -> (Vec<u64>, VecDeque<u64>) {
        let mut pool = live.to_vec();
        let mut rng = StdRng::seed_from_u64(splitmix64(
            self.seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ));
        pool.shuffle(&mut rng);
        let standby: VecDeque<u64> = pool.split_off(cohort_size.min(pool.len())).into();
        (pool, standby)
    }
}

/// One registered participant.
#[derive(Debug)]
struct Member {
    /// The live connection carrying this member, or `None` while it is
    /// disconnected and inside the resume grace window.
    conn: Option<u64>,
    token: u64,
    last_beat_ms: u64,
    /// When the connection dropped (set iff `conn` is `None`): the resume
    /// grace clock. While disconnected the heartbeat clock is suspended —
    /// beats are physically impossible — and this clock governs expiry.
    disconnected_ms: Option<u64>,
    /// Index of the slot this member holds in the active round.
    assigned: Option<usize>,
}

/// One cohort slot of the active round.
#[derive(Debug)]
struct Slot {
    bit_index: u32,
    /// The client currently drafted for this slot (`None` after its
    /// holder died with the standby queue exhausted).
    client: Option<u64>,
    reported: bool,
}

struct ActiveRound {
    round: u64,
    /// Absolute completion deadline.
    deadline_ms: u64,
    slots: Vec<Slot>,
    standby: VecDeque<u64>,
    acc: BitAccumulator,
    pending: usize,
    salvaged_hangup: u64,
    salvaged_heartbeat: u64,
    reporters: Vec<u64>,
}

/// Why a slot holder went away — decides which salvage counter the
/// refill lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Death {
    /// The socket hit EOF / reset mid-round.
    Hangup,
    /// The heartbeat monitor expired the client.
    Heartbeat,
}

/// Exact per-frame traffic accounting for the fleet protocol. Counts are
/// message-level; bytes are encoded [`FleetMessage`] payload bytes. The
/// e2e suite pins the cross-invariants (every beat acked, every accepted
/// report acked, assigns = cohort + salvage refills), which is what makes
/// the ledger *exact* rather than advisory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetLedger {
    /// Rendezvous frames accepted.
    pub rendezvous: u64,
    /// Rendezvous acks sent.
    pub rendezvous_acks: u64,
    /// Heartbeats accepted.
    pub heartbeats: u64,
    /// Heartbeat acks sent.
    pub heartbeat_acks: u64,
    /// Cohort assignments sent (initial drafts + salvage refills).
    pub cohort_assigns: u64,
    /// Stand-by notices sent. Only a mid-round (re)registration gets one:
    /// a late `Rendezvous`, or a resume of a client that holds no slot.
    /// Round start sends standbys nothing.
    pub cohort_waits: u64,
    /// Reports accepted.
    pub reports: u64,
    /// Report acks sent.
    pub report_acks: u64,
    /// Done frames sent.
    pub dones: u64,
    /// Dismissal acknowledgements received. A dismissed member stays
    /// registered — and the campaign stays open — until its ack arrives
    /// or its resume grace lapses, so a `Done` lost to a connection
    /// fault is re-collected via `Resume` instead of stranding the
    /// client against a torn-down daemon.
    pub done_acks: u64,
    /// Sessions re-bound to a new connection after a fault — token-bearing
    /// [`FleetMessage::Resume`] frames plus token-less re-rendezvous of a
    /// disconnected client. Acks satisfy
    /// `rendezvous_acks == rendezvous + resumes` while the campaign runs.
    pub resumes: u64,
    /// Cohort assignments re-sent to a resumed client that still held an
    /// unreported slot. Accounted separately so `cohort_assigns` stays
    /// drafts + salvage refills, identical to a fault-free run.
    pub resumed_assigns: u64,
    /// Retransmitted reports recognized as already counted: acked again,
    /// never folded into the accumulator, never billed twice. Acks satisfy
    /// `report_acks == reports + dup_reports`.
    pub dup_reports: u64,
    /// Connections shed at accept with [`FleetMessage::Busy`] (accept
    /// storm: the daemon was at its connection cap). Event count only —
    /// shed sockets never join the fleet, so no bytes are ledgered.
    pub busy_sheds: u64,
    /// Connections dropped by the read-progress deadline (a frame sat
    /// partially delivered too long — slow-loris defense).
    pub stalled_drops: u64,
    /// Connections dropped for exceeding the per-connection buffer bound.
    pub overflow_drops: u64,
    /// Encoded uplink payload bytes accepted.
    pub bytes_in: u64,
    /// Encoded downlink payload bytes sent.
    pub bytes_out: u64,
}

/// The published result of one completed fleet round.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRoundReport {
    /// Round index (0-based).
    pub round: u64,
    /// Slots the round opened with.
    pub cohort_size: usize,
    /// Reports folded into the estimate.
    pub reports: u64,
    /// Slots refilled after their holder hung up mid-round.
    pub salvaged_hangup: u64,
    /// Slots refilled after their holder missed its liveness deadline.
    pub salvaged_heartbeat: u64,
    /// Slots abandoned at the round deadline.
    pub abandoned: u64,
    /// Mean estimate over the reporters' values (Algorithm 1 reconstruction).
    pub estimate: f64,
    /// Predicted standard deviation of the estimate (Lemma 3.1 at the
    /// observed bit means and counts).
    pub predicted_std: f64,
    /// Client ids whose reports were folded, in arrival order.
    pub reporters: Vec<u64>,
}

/// An output of the engine for the daemon's event loop to perform.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetAction {
    /// Send this frame on this connection.
    Send(u64, FleetMessage),
    /// Flush and close this connection (dead client, or campaign over).
    Close(u64),
}

/// A fleet-protocol violation: the daemon counts it as a protocol error
/// and drops the offending connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetViolation(pub &'static str);

impl std::fmt::Display for FleetViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fleet protocol violation: {}", self.0)
    }
}

impl std::error::Error for FleetViolation {}

/// The fleet coordinator state machine (see the module docs).
pub struct FleetEngine {
    cfg: FleetConfig,
    protocol: BasicBitPushing,
    selector: Selector,
    monitor: HeartbeatMonitor,
    /// client id → member; sorted keys make live-pool snapshots
    /// deterministic.
    registry: BTreeMap<u64, Member>,
    /// connection id → client id.
    by_conn: HashMap<u64, u64>,
    /// client id → (round, bit index) of its last accepted report: the
    /// dedup record that makes retransmission after resume idempotent.
    reported: HashMap<u64, (u64, u32)>,
    /// Connections the engine has issued a [`FleetAction::Close`] for but
    /// whose teardown the daemon has not yet confirmed. Frames already
    /// buffered behind the close (a heartbeat flushed alongside a final
    /// report, a duplicated delivery) drain after the engine forgot the
    /// binding; they are an artifact of the close, not protocol abuse, so
    /// `on_message` ignores them instead of counting a violation.
    closing: HashSet<u64>,
    round: Option<ActiveRound>,
    rounds_done: u64,
    /// No round forms before this instant — the pacing floor
    /// (`round_spacing_ms`) stamped when the previous round completed.
    next_round_at_ms: u64,
    reports: Vec<FleetRoundReport>,
    ledger: FleetLedger,
    done: bool,
}

impl FleetEngine {
    /// An engine for the given (already validated) configuration.
    #[must_use]
    pub fn new(cfg: FleetConfig) -> Self {
        let protocol = BasicBitPushing::new(BasicConfig::new(
            FixedPointCodec::integer(cfg.bits),
            BitSampling::geometric(cfg.bits, 1.0),
        ));
        Self {
            selector: Selector::new(cfg.seed),
            monitor: HeartbeatMonitor::new(cfg.liveness_ms),
            protocol,
            cfg,
            registry: BTreeMap::new(),
            by_conn: HashMap::new(),
            reported: HashMap::new(),
            closing: HashSet::new(),
            round: None,
            rounds_done: 0,
            next_round_at_ms: 0,
            reports: Vec::new(),
            ledger: FleetLedger::default(),
            done: false,
        }
    }

    /// Registered clients currently considered live.
    #[must_use]
    pub fn live_population(&self) -> usize {
        self.registry.len()
    }

    /// Completed round reports, in order.
    #[must_use]
    pub fn reports(&self) -> &[FleetRoundReport] {
        &self.reports
    }

    /// The exact traffic ledger so far.
    #[must_use]
    pub fn ledger(&self) -> FleetLedger {
        self.ledger
    }

    /// Whether every configured round has completed *and* every member
    /// has been dismissed. A member that was mid-reconnect when the last
    /// round closed keeps its registration for the resume grace window,
    /// so a faulted client can still come back for its `Done` before the
    /// daemon tears the campaign down.
    #[must_use]
    pub fn done(&self) -> bool {
        self.done && self.registry.is_empty()
    }

    /// Records a connection shed at accept with a `Busy` frame (the
    /// daemon's accept-storm defense; the socket never reaches the engine).
    pub fn note_busy_shed(&mut self) {
        self.ledger.busy_sheds += 1;
    }

    /// Records a connection dropped by the read-progress deadline.
    pub fn note_stalled_drop(&mut self) {
        self.ledger.stalled_drops += 1;
    }

    /// Records a connection dropped for exceeding its buffer bound.
    pub fn note_overflow_drop(&mut self) {
        self.ledger.overflow_drops += 1;
    }

    /// The session token for `client_id` — a pure function of the
    /// configured seed, so a resuming client can be re-authenticated even
    /// after the engine expired (or never completed) its registration.
    fn session_token(&self, client_id: u64) -> u64 {
        splitmix64(self.cfg.seed ^ splitmix64(client_id ^ 0xF1EE7))
    }

    /// Issues a close for `conn` and tombstones it until the daemon
    /// confirms the teardown (see the `closing` field).
    fn close_conn(&mut self, out: &mut Vec<FleetAction>, conn: u64) {
        self.closing.insert(conn);
        out.push(FleetAction::Close(conn));
    }

    fn send(&mut self, out: &mut Vec<FleetAction>, conn: u64, msg: FleetMessage) {
        self.ledger.bytes_out += msg.encoded_len() as u64;
        match msg {
            FleetMessage::RendezvousAck { .. } => self.ledger.rendezvous_acks += 1,
            FleetMessage::HeartbeatAck { .. } => self.ledger.heartbeat_acks += 1,
            FleetMessage::CohortAssign { .. } => self.ledger.cohort_assigns += 1,
            FleetMessage::CohortWait { .. } => self.ledger.cohort_waits += 1,
            FleetMessage::ReportAck { .. } => self.ledger.report_acks += 1,
            FleetMessage::Done { .. } => self.ledger.dones += 1,
            _ => {}
        }
        out.push(FleetAction::Send(conn, msg));
    }

    /// Handles one uplink frame from `conn`.
    ///
    /// # Errors
    /// [`FleetViolation`] on protocol misuse (downlink frame on the
    /// uplink, bad token, duplicate registration, report for a slot the
    /// client does not hold). The daemon drops the connection.
    pub fn on_message(
        &mut self,
        conn: u64,
        msg: &FleetMessage,
        now_ms: u64,
    ) -> Result<Vec<FleetAction>, FleetViolation> {
        if !msg.is_uplink() {
            return Err(FleetViolation("downlink frame on the uplink"));
        }
        if self.closing.contains(&conn) {
            // Buffered tail of a connection we already closed (dismissal,
            // rebind kick): ignore rather than misread as abuse.
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        match *msg {
            FleetMessage::Rendezvous { client_id, .. } => {
                if self.by_conn.contains_key(&conn) {
                    return Err(FleetViolation("rendezvous on an established connection"));
                }
                self.ledger.bytes_in += msg.encoded_len() as u64;
                if self.done {
                    // Campaign already over: dismiss politely (and retire
                    // any registration held open for this straggler).
                    self.registry.remove(&client_id);
                    self.ledger.rendezvous += 1;
                    self.send(
                        &mut out,
                        conn,
                        FleetMessage::Done {
                            rounds: self.rounds_done,
                        },
                    );
                    self.close_conn(&mut out, conn);
                    return Ok(out);
                }
                match self.registry.get(&client_id) {
                    Some(member) if member.conn.is_some() => {
                        return Err(FleetViolation("duplicate client id"));
                    }
                    Some(_) => {
                        // Token-less reconnect: a client that lost its
                        // connection (possibly before ever seeing the ack)
                        // re-rendezvousing inside its grace window.
                        self.ledger.resumes += 1;
                        self.rebind(client_id, conn, now_ms, &mut out);
                    }
                    None => {
                        self.ledger.rendezvous += 1;
                        let token = self.session_token(client_id);
                        self.registry.insert(
                            client_id,
                            Member {
                                conn: Some(conn),
                                token,
                                last_beat_ms: now_ms,
                                disconnected_ms: None,
                                assigned: None,
                            },
                        );
                        self.by_conn.insert(conn, client_id);
                        self.send(
                            &mut out,
                            conn,
                            FleetMessage::RendezvousAck {
                                session_token: token,
                                heartbeat_ms: self.cfg.heartbeat_ms,
                                liveness_ms: self.cfg.liveness_ms,
                            },
                        );
                        if let Some(round) = &self.round {
                            // Late arrival: wait out the round in progress.
                            let retry = round.deadline_ms.saturating_sub(now_ms).max(1);
                            let notice = FleetMessage::CohortWait {
                                round: round.round,
                                retry_ms: retry,
                            };
                            self.send(&mut out, conn, notice);
                        }
                    }
                }
            }
            FleetMessage::Resume {
                client_id,
                session_token,
                // Advisory: the count of acks the client has seen. The
                // dedup record (`self.reported`) is authoritative, so the
                // nonce is carried for diagnostics, not trusted for state.
                report_nonce: _,
            } => {
                if self.by_conn.contains_key(&conn) {
                    return Err(FleetViolation("resume on an established connection"));
                }
                // The token is a pure function of the seed, so even a
                // client the engine already expired re-authenticates.
                if session_token != self.session_token(client_id) {
                    return Err(FleetViolation("resume with a bad session token"));
                }
                self.ledger.bytes_in += msg.encoded_len() as u64;
                self.ledger.resumes += 1;
                if self.done {
                    // Re-deliver the dismissal on the fresh connection.
                    // The registration (re-created if the grace already
                    // lapsed) stays bound until the DoneAck arrives, so
                    // a dismissal lost to *this* connection's fault is
                    // collected on the next resume.
                    let member = self.registry.entry(client_id).or_insert_with(|| Member {
                        conn: None,
                        token: session_token,
                        last_beat_ms: now_ms,
                        disconnected_ms: None,
                        assigned: None,
                    });
                    if let Some(old) = member.conn.replace(conn) {
                        self.by_conn.remove(&old);
                    }
                    member.disconnected_ms = None;
                    member.last_beat_ms = now_ms;
                    self.by_conn.insert(conn, client_id);
                    self.send(
                        &mut out,
                        conn,
                        FleetMessage::Done {
                            rounds: self.rounds_done,
                        },
                    );
                    return Ok(out);
                }
                // Expired past its grace window (or the original
                // rendezvous never reached us): re-admit as idle.
                self.registry.entry(client_id).or_insert_with(|| Member {
                    conn: None,
                    token: session_token,
                    last_beat_ms: now_ms,
                    disconnected_ms: None,
                    assigned: None,
                });
                self.rebind(client_id, conn, now_ms, &mut out);
            }
            FleetMessage::Heartbeat { session_token, seq } => {
                let client = *self
                    .by_conn
                    .get(&conn)
                    .ok_or(FleetViolation("heartbeat before rendezvous"))?;
                let member = self
                    .registry
                    .get_mut(&client)
                    .ok_or(FleetViolation("heartbeat from an expired client"))?;
                if member.token != session_token {
                    return Err(FleetViolation("heartbeat with a bad session token"));
                }
                member.last_beat_ms = now_ms;
                self.ledger.bytes_in += msg.encoded_len() as u64;
                self.ledger.heartbeats += 1;
                self.send(&mut out, conn, FleetMessage::HeartbeatAck { seq });
            }
            FleetMessage::Report {
                session_token,
                round,
                bit_index,
                bit,
            } => {
                let client = *self
                    .by_conn
                    .get(&conn)
                    .ok_or(FleetViolation("report before rendezvous"))?;
                let member = self
                    .registry
                    .get_mut(&client)
                    .ok_or(FleetViolation("report from an expired client"))?;
                if member.token != session_token {
                    return Err(FleetViolation("report with a bad session token"));
                }
                // A report is also proof of life.
                member.last_beat_ms = now_ms;
                let assigned = member.assigned;
                if self.reported.get(&client) == Some(&(round, bit_index)) {
                    // Retransmit of an already-counted report — the ack
                    // was lost in a connection fault. Ack again; fold
                    // nothing into the accumulator, bill nothing to the
                    // privacy ledger. This is the idempotence invariant.
                    self.ledger.bytes_in += msg.encoded_len() as u64;
                    self.ledger.dup_reports += 1;
                    self.send(&mut out, conn, FleetMessage::ReportAck { round });
                    return Ok(out);
                }
                let Some(slot_idx) = assigned else {
                    return Err(FleetViolation("report without an assignment"));
                };
                let active = self
                    .round
                    .as_mut()
                    .ok_or(FleetViolation("report outside a round"))?;
                if active.round != round {
                    return Err(FleetViolation("report for the wrong round"));
                }
                let slot = &mut active.slots[slot_idx];
                if slot.reported || slot.client != Some(client) {
                    return Err(FleetViolation("report for a slot not held"));
                }
                if slot.bit_index != bit_index {
                    return Err(FleetViolation("report for the wrong bit index"));
                }
                slot.reported = true;
                active.acc.record(bit_index, f64::from(u8::from(bit)));
                active.pending -= 1;
                active.reporters.push(client);
                self.registry
                    .get_mut(&client)
                    .expect("member exists")
                    .assigned = None;
                self.reported.insert(client, (round, bit_index));
                self.ledger.bytes_in += msg.encoded_len() as u64;
                self.ledger.reports += 1;
                self.send(&mut out, conn, FleetMessage::ReportAck { round });
                if self.round.as_ref().is_some_and(|r| r.pending == 0) {
                    self.complete_round(now_ms, &mut out);
                }
            }
            FleetMessage::DoneAck { session_token } => {
                if !self.done {
                    return Err(FleetViolation("done-ack before dismissal"));
                }
                let client = *self
                    .by_conn
                    .get(&conn)
                    .ok_or(FleetViolation("done-ack before rendezvous"))?;
                let member = self
                    .registry
                    .get(&client)
                    .ok_or(FleetViolation("done-ack from an expired client"))?;
                if member.token != session_token {
                    return Err(FleetViolation("done-ack with a bad session token"));
                }
                // The dismissal round-trip is complete: retire the
                // registration and close out the connection. Once the
                // last member acks out, `done()` reports completion.
                self.ledger.bytes_in += msg.encoded_len() as u64;
                self.ledger.done_acks += 1;
                self.registry.remove(&client);
                self.by_conn.remove(&conn);
                self.close_conn(&mut out, conn);
            }
            _ => unreachable!("is_uplink() admitted a downlink frame"),
        }
        Ok(out)
    }

    /// Re-binds a known member to a fresh connection after a fault: kicks
    /// any stale half-open connection, acks with the *same* session token,
    /// then re-issues the member's pending assignment — or a stand-by
    /// notice mid-round — so the resumed client picks up exactly where the
    /// fault cut it off.
    fn rebind(&mut self, client_id: u64, conn: u64, now_ms: u64, out: &mut Vec<FleetAction>) {
        let member = self.registry.get_mut(&client_id).expect("caller checked");
        let stale = member.conn.take();
        member.conn = Some(conn);
        member.disconnected_ms = None;
        member.last_beat_ms = now_ms;
        let token = member.token;
        let assigned = member.assigned;
        if let Some(old) = stale {
            self.by_conn.remove(&old);
            self.close_conn(out, old);
        }
        self.by_conn.insert(conn, client_id);
        self.send(
            out,
            conn,
            FleetMessage::RendezvousAck {
                session_token: token,
                heartbeat_ms: self.cfg.heartbeat_ms,
                liveness_ms: self.cfg.liveness_ms,
            },
        );
        if let Some(active) = &self.round {
            let remaining = active.deadline_ms.saturating_sub(now_ms).max(1);
            if let Some(slot_idx) = assigned {
                let reissue = FleetMessage::CohortAssign {
                    round: active.round,
                    bit_index: active.slots[slot_idx].bit_index,
                    bits: self.cfg.bits,
                    value_seed: self.cfg.value_seed,
                    deadline_ms: remaining,
                };
                // Bypasses `send`: a re-issued assignment must not perturb
                // `cohort_assigns` (drafts + refills — the counter a
                // fault-free run of the same seed reproduces exactly).
                self.ledger.resumed_assigns += 1;
                self.ledger.bytes_out += reissue.encoded_len() as u64;
                out.push(FleetAction::Send(conn, reissue));
            } else {
                let notice = FleetMessage::CohortWait {
                    round: active.round,
                    retry_ms: remaining,
                };
                self.send(out, conn, notice);
            }
        }
    }

    /// Handles a connection teardown (EOF, reset, or protocol-error drop).
    /// The member is *not* expired: it keeps its registration — and any
    /// held cohort slot — for `resume_grace_ms`, giving the client time to
    /// reconnect and resume. Only when the grace window lapses does
    /// [`FleetEngine::tick`] expire it and hand the slot to salvage.
    pub fn on_disconnect(&mut self, conn: u64, now_ms: u64) -> Vec<FleetAction> {
        self.closing.remove(&conn);
        if let Some(client) = self.by_conn.remove(&conn) {
            if let Some(member) = self.registry.get_mut(&client) {
                member.conn = None;
                member.disconnected_ms = Some(now_ms);
            }
        }
        Vec::new()
    }

    /// Advances time: expires silent clients, refills their slots,
    /// enforces the round deadline, starts rounds when the pool is ready.
    pub fn tick(&mut self, now_ms: u64) -> Vec<FleetAction> {
        let mut out = Vec::new();
        if self.done {
            // Post-campaign: the only remaining work is retiring
            // registrations held open for unacknowledged dismissals —
            // connected members that never sent DoneAck (grace runs from
            // the dismissal) and mid-reconnect stragglers (grace runs
            // from the disconnect). Nothing is salvaged — no round can be
            // active — so `done()` eventually reports completion even if
            // a faulted client never returns for its dismissal.
            let lapsed: Vec<u64> = self
                .registry
                .iter()
                .filter_map(|(&id, m)| {
                    let since = m.disconnected_ms.unwrap_or(m.last_beat_ms);
                    (now_ms.saturating_sub(since) > self.cfg.resume_grace_ms).then_some(id)
                })
                .collect();
            for id in lapsed {
                if let Some(member) = self.registry.remove(&id) {
                    if let Some(conn) = member.conn {
                        self.by_conn.remove(&conn);
                        self.close_conn(&mut out, conn);
                    }
                }
            }
            return out;
        }
        // Expiry sweep. Collect first: expiring mutates the registry.
        // Connected members live by the heartbeat clock; disconnected
        // members (beats are physically impossible) live by the resume
        // grace clock, and expire as hangups.
        let expired: Vec<(u64, Death)> = self
            .registry
            .iter()
            .filter_map(|(&id, m)| match m.disconnected_ms {
                Some(since) => (now_ms.saturating_sub(since) > self.cfg.resume_grace_ms)
                    .then_some((id, Death::Hangup)),
                None => self
                    .monitor
                    .is_dead(m.last_beat_ms, now_ms)
                    .then_some((id, Death::Heartbeat)),
            })
            .collect();
        for (client, death) in expired {
            let member = self.registry.remove(&client).expect("collected above");
            if let Some(conn) = member.conn {
                self.by_conn.remove(&conn);
                self.close_conn(&mut out, conn);
            }
            if let Some(slot_idx) = member.assigned {
                self.vacate(slot_idx, death, now_ms, &mut out);
            }
        }
        // Round deadline.
        if self.round.as_ref().is_some_and(|r| now_ms >= r.deadline_ms) {
            self.complete_round(now_ms, &mut out);
        }
        // Round formation. The first round waits for the configured
        // population floor; later rounds only need a fillable cohort, so
        // churn cannot deadlock a campaign that already formed. The
        // pacing floor (`round_spacing_ms`) holds the next round back so
        // stragglers and reconnects heal off the critical path.
        if self.round.is_none() && !self.done && now_ms >= self.next_round_at_ms {
            let needed = if self.rounds_done == 0 {
                self.cfg.min_population.max(self.cfg.cohort_size)
            } else {
                self.cfg.cohort_size
            };
            let idle = self
                .registry
                .values()
                .filter(|m| m.assigned.is_none())
                .count();
            if idle >= needed {
                self.start_round(now_ms, &mut out);
            }
        }
        out
    }

    fn start_round(&mut self, now_ms: u64, out: &mut Vec<FleetAction>) {
        let round = self.rounds_done;
        let live: Vec<u64> = self
            .registry
            .iter()
            .filter(|(_, m)| m.assigned.is_none())
            .map(|(&id, _)| id)
            .collect();
        let (cohort, standby) = self.selector.draw(round, &live, self.cfg.cohort_size);
        // Bit assignment: the paper's central QMC draw over the geometric
        // sampling distribution, seeded per round.
        let mut rng =
            StdRng::seed_from_u64(splitmix64(self.cfg.seed ^ round ^ 0xB175_0000_0000_0001));
        let assignment = self.protocol.config().sampling.assign(
            self.protocol.config().assignment,
            cohort.len(),
            &mut rng,
        );
        let deadline_ms = now_ms + self.cfg.round_deadline_ms;
        let mut slots = Vec::with_capacity(cohort.len());
        for (i, (&client, &bit_index)) in cohort.iter().zip(&assignment).enumerate() {
            slots.push(Slot {
                bit_index,
                client: Some(client),
                reported: false,
            });
            let member = self.registry.get_mut(&client).expect("drawn from registry");
            member.assigned = Some(i);
            match member.conn {
                Some(conn) => self.send(
                    out,
                    conn,
                    FleetMessage::CohortAssign {
                        round,
                        bit_index,
                        bits: self.cfg.bits,
                        value_seed: self.cfg.value_seed,
                        deadline_ms: self.cfg.round_deadline_ms,
                    },
                ),
                // Drafted mid-reconnect: the slot is assigned (the draw is
                // a pure function of the registry, which must not depend
                // on transient socket state), the frame goes out on
                // resume. Count the draft so `cohort_assigns` still reads
                // drafts + refills, identical to the fault-free run.
                None => self.ledger.cohort_assigns += 1,
            }
        }
        // Standbys hear nothing: an idle registered client already waits
        // for an assignment, and a salvage refill drafts it directly.
        let pending = slots.len();
        self.round = Some(ActiveRound {
            round,
            deadline_ms,
            slots,
            standby,
            acc: BitAccumulator::new(self.cfg.bits),
            pending,
            salvaged_hangup: 0,
            salvaged_heartbeat: 0,
            reporters: Vec::new(),
        });
    }

    /// Hands `slot_idx` to the salvage path after its holder died: the
    /// next live idle standby client inherits the slot (same bit index,
    /// same deadline). With the standby queue dry the slot stays vacant
    /// until the deadline abandons it.
    fn vacate(&mut self, slot_idx: usize, death: Death, now_ms: u64, out: &mut Vec<FleetAction>) {
        let Some(active) = self.round.as_mut() else {
            return;
        };
        let slot = &mut active.slots[slot_idx];
        debug_assert!(!slot.reported, "reported slots release the member first");
        slot.client = None;
        let (round, deadline_ms) = (active.round, active.deadline_ms);
        let mut replacement = None;
        while let Some(candidate) = active.standby.pop_front() {
            // Standby entries can have died (or been drafted by an earlier
            // salvage) since the draw; skip stale ones.
            if self
                .registry
                .get(&candidate)
                .is_some_and(|m| m.assigned.is_none() && m.conn.is_some())
            {
                replacement = Some(candidate);
                break;
            }
        }
        let Some(client) = replacement else {
            return;
        };
        let active = self.round.as_mut().expect("checked above");
        active.slots[slot_idx].client = Some(client);
        match death {
            Death::Hangup => active.salvaged_hangup += 1,
            Death::Heartbeat => active.salvaged_heartbeat += 1,
        }
        let bit_index = active.slots[slot_idx].bit_index;
        let member = self.registry.get_mut(&client).expect("checked above");
        member.assigned = Some(slot_idx);
        let conn = member.conn.expect("candidate filter requires a live conn");
        self.send(
            out,
            conn,
            FleetMessage::CohortAssign {
                round,
                bit_index,
                bits: self.cfg.bits,
                value_seed: self.cfg.value_seed,
                deadline_ms: deadline_ms.saturating_sub(now_ms).max(1),
            },
        );
    }

    fn complete_round(&mut self, now_ms: u64, out: &mut Vec<FleetAction>) {
        let Some(active) = self.round.take() else {
            return;
        };
        self.next_round_at_ms = now_ms.saturating_add(self.cfg.round_spacing_ms);
        // Release members still holding unreported slots (deadline path).
        let mut abandoned = 0u64;
        for slot in &active.slots {
            if !slot.reported {
                abandoned += 1;
                if let Some(client) = slot.client {
                    if let Some(member) = self.registry.get_mut(&client) {
                        member.assigned = None;
                    }
                }
            }
        }
        let outcome = self.protocol.finish(active.acc, 0.0);
        self.reports.push(FleetRoundReport {
            round: active.round,
            cohort_size: active.slots.len(),
            reports: active.reporters.len() as u64,
            salvaged_hangup: active.salvaged_hangup,
            salvaged_heartbeat: active.salvaged_heartbeat,
            abandoned,
            estimate: outcome.estimate,
            predicted_std: outcome.predicted_std,
            reporters: active.reporters,
        });
        self.rounds_done += 1;
        if self.rounds_done >= self.cfg.rounds {
            self.done = true;
            // Dismiss the fleet: every live connection gets Done, but
            // every member stays registered until its DoneAck arrives —
            // a dismissal lost to a connection fault is re-collected via
            // Resume, and `done()` holds the campaign open until the
            // last member is acknowledged-out or its grace lapses, so
            // the daemon never tears down under a still-retrying client.
            let conns: Vec<u64> = self.registry.values().filter_map(|m| m.conn).collect();
            for conn in conns {
                self.send(
                    out,
                    conn,
                    FleetMessage::Done {
                        rounds: self.rounds_done,
                    },
                );
            }
            // The dismissal restarts every member's grace clock: from
            // here the heartbeat contract is void and the DoneAck (or
            // the grace lapse) is the only exit.
            for member in self.registry.values_mut() {
                member.last_beat_ms = now_ms;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FleetConfig {
        FleetConfig::try_new(4, 6, 2, 8, 100, 500)
            .unwrap()
            .with_seed(7)
            .with_value_seed(11)
            .with_round_deadline_ms(10_000)
    }

    /// Registers `n` clients on conns `0..n` (client id = conn id + 1000).
    fn rendezvous_all(engine: &mut FleetEngine, n: u64, now: u64) -> Vec<(u64, u64)> {
        let mut tokens = Vec::new();
        for conn in 0..n {
            let client_id = 1000 + conn;
            let actions = engine
                .on_message(
                    conn,
                    &FleetMessage::Rendezvous {
                        client_id,
                        capabilities: 0,
                    },
                    now,
                )
                .unwrap();
            let token = actions
                .iter()
                .find_map(|a| match a {
                    FleetAction::Send(_, FleetMessage::RendezvousAck { session_token, .. }) => {
                        Some(*session_token)
                    }
                    _ => None,
                })
                .expect("rendezvous acked");
            tokens.push((conn, token));
        }
        tokens
    }

    fn assigns(actions: &[FleetAction]) -> Vec<(u64, u64, u32)> {
        actions
            .iter()
            .filter_map(|a| match a {
                FleetAction::Send(
                    conn,
                    FleetMessage::CohortAssign {
                        round, bit_index, ..
                    },
                ) => Some((*conn, *round, *bit_index)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn try_new_rejects_degenerate_configs() {
        let msg = |r: Result<FleetConfig, FedError>| match r {
            Err(FedError::InvalidConfig(m)) => m,
            other => panic!("expected InvalidConfig, got {other:?}"),
        };
        assert!(msg(FleetConfig::try_new(0, 10, 1, 8, 100, 500)).contains("cohort size"));
        assert!(msg(FleetConfig::try_new(20, 10, 1, 8, 100, 500)).contains("population floor"));
        assert!(msg(FleetConfig::try_new(4, 10, 0, 8, 100, 500)).contains("round count"));
        assert!(msg(FleetConfig::try_new(4, 10, 1, 0, 100, 500)).contains("bit width"));
        assert!(msg(FleetConfig::try_new(4, 10, 1, 33, 100, 500)).contains("bit width"));
        assert!(msg(FleetConfig::try_new(4, 10, 1, 8, 0, 500)).contains("heartbeat interval"));
        // Equality is rejected too: the bound is strict.
        assert!(msg(FleetConfig::try_new(4, 10, 1, 8, 500, 500)).contains("liveness"));
        assert!(msg(FleetConfig::try_new(4, 10, 1, 8, 600, 500)).contains("liveness"));
        assert!(FleetConfig::try_new(4, 10, 1, 8, 100, 500).is_ok());
    }

    #[test]
    fn selector_is_deterministic_and_disjoint() {
        let live: Vec<u64> = (0..50).collect();
        let sel = Selector::new(99);
        let (cohort_a, standby_a) = sel.draw(3, &live, 20);
        let (cohort_b, standby_b) = sel.draw(3, &live, 20);
        assert_eq!(cohort_a, cohort_b, "same snapshot + seed ⇒ same cohort");
        assert_eq!(standby_a, standby_b);
        assert_eq!(cohort_a.len(), 20);
        assert_eq!(standby_a.len(), 30);
        let mut all: Vec<u64> = cohort_a.iter().chain(standby_a.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, live, "cohort and standby partition the pool");
        // A different round draws a different cohort (astronomically likely).
        let (cohort_c, _) = sel.draw(4, &live, 20);
        assert_ne!(cohort_a, cohort_c);
    }

    #[test]
    fn round_waits_for_the_population_floor() {
        let mut engine = FleetEngine::new(cfg());
        rendezvous_all(&mut engine, 5, 0);
        assert!(
            assigns(&engine.tick(10)).is_empty(),
            "5 live < floor of 6: no round yet"
        );
        rendezvous_all_more(&mut engine, 5, 1, 10);
        let actions = engine.tick(20);
        assert_eq!(assigns(&actions).len(), 4, "cohort drafted at the floor");
        // The two standbys hear nothing: the draftees' assignments are
        // the round start's only frames.
        assert_eq!(actions.len(), 4, "a frame beyond the cohort: {actions:?}");
        assert_eq!(engine.ledger().cohort_waits, 0);
    }

    #[test]
    fn round_start_sends_one_frame_per_draftee_and_none_to_standbys() {
        let cfg = FleetConfig::try_new(4, 6, 3, 8, 100, 500)
            .unwrap()
            .with_seed(7)
            .with_value_seed(11)
            .with_round_deadline_ms(10_000);
        let mut engine = FleetEngine::new(cfg);
        // conn → (client id, token) for every registration so far.
        let mut members: HashMap<u64, (u64, u64)> = rendezvous_all(&mut engine, 8, 0)
            .into_iter()
            .map(|(conn, token)| (conn, (1000 + conn, token)))
            .collect();
        let waits_of = |actions: &[FleetAction], conn: u64| {
            actions
                .iter()
                .filter(|a| {
                    matches!(a, FleetAction::Send(c, FleetMessage::CohortWait { .. }) if *c == conn)
                })
                .count()
        };
        let mut registrations = 0;
        let mut now = 10;
        for round in 0..3u64 {
            let actions = engine.tick(now);
            let drafted = assigns(&actions);
            assert_eq!(drafted.len(), 4, "round {round}: a full cohort");
            for &(conn, r, _) in &drafted {
                assert_eq!(r, round);
                assert!(members.contains_key(&conn), "drafted a registered client");
                assert_eq!(
                    drafted.iter().filter(|&&(c, ..)| c == conn).count(),
                    1,
                    "round {round}: one assignment per draftee"
                );
            }
            // One frame per draftee, so no standby got anything.
            assert_eq!(actions.len(), drafted.len(), "round {round}: {actions:?}");
            assert!(members.len() > drafted.len(), "round {round} had standbys");

            // A late registration mid-round is told to stand by, once.
            now += 1;
            let late = 100 + round;
            let said = engine
                .on_message(
                    late,
                    &FleetMessage::Rendezvous {
                        client_id: 1000 + late,
                        capabilities: 0,
                    },
                    now,
                )
                .unwrap();
            assert_eq!(waits_of(&said, late), 1, "round {round}: late rendezvous");
            let token = said
                .iter()
                .find_map(|a| match a {
                    FleetAction::Send(_, FleetMessage::RendezvousAck { session_token, .. }) => {
                        Some(*session_token)
                    }
                    _ => None,
                })
                .expect("late arrival acked");
            members.insert(late, (1000 + late, token));
            registrations += 1;

            // So is a standby that resumes mid-round on a new connection.
            let standby = *members
                .keys()
                .filter(|c| !drafted.iter().any(|&(d, ..)| d == **c) && **c != late)
                .min()
                .expect("a standby");
            let (client_id, token) = members.remove(&standby).unwrap();
            engine.on_disconnect(standby, now);
            let resumed = 200 + round;
            let said = engine
                .on_message(
                    resumed,
                    &FleetMessage::Resume {
                        client_id,
                        session_token: token,
                        report_nonce: 0,
                    },
                    now,
                )
                .unwrap();
            assert_eq!(waits_of(&said, resumed), 1, "round {round}: resume");
            assert!(
                assigns(&said).is_empty(),
                "a standby resumes without a slot"
            );
            members.insert(resumed, (client_id, token));
            registrations += 1;

            // The cohort reports; the round completes.
            for &(conn, r, bit_index) in &drafted {
                let (client_id, token) = members[&conn];
                let bit = (client_value(11, client_id, 8) >> bit_index) & 1 == 1;
                let said = engine
                    .on_message(
                        conn,
                        &FleetMessage::Report {
                            session_token: token,
                            round: r,
                            bit_index,
                            bit,
                        },
                        now,
                    )
                    .unwrap();
                assert_eq!(waits_of(&said, conn), 0);
            }
            assert_eq!(engine.reports().len() as u64, round + 1);
            now += 10;
        }
        let ledger = engine.ledger();
        assert_eq!(ledger.cohort_assigns, 12, "three cohorts of 4, no refills");
        assert_eq!(
            ledger.cohort_waits, registrations,
            "one stand-by notice per mid-round (re)registration"
        );
        assert_eq!(registrations, 6);
    }

    fn rendezvous_all_more(engine: &mut FleetEngine, start_conn: u64, n: u64, now: u64) {
        for conn in start_conn..start_conn + n {
            engine
                .on_message(
                    conn,
                    &FleetMessage::Rendezvous {
                        client_id: 1000 + conn,
                        capabilities: 0,
                    },
                    now,
                )
                .unwrap();
        }
    }

    /// Drives a full round: every assigned client reports its true bit.
    /// Returns everything the engine said back — the dismissals in there
    /// still need acknowledging (see [`ack_dones`]) before `done()` holds.
    fn report_all(
        engine: &mut FleetEngine,
        tokens: &[(u64, u64)],
        actions: &[FleetAction],
    ) -> Vec<FleetAction> {
        let mut said = Vec::new();
        for (conn, round, bit_index) in assigns(actions) {
            let token = tokens.iter().find(|(c, _)| *c == conn).unwrap().1;
            let client_id = 1000 + conn;
            let value = client_value(11, client_id, 8);
            let bit = (value >> bit_index) & 1 == 1;
            let more = engine
                .on_message(
                    conn,
                    &FleetMessage::Report {
                        session_token: token,
                        round,
                        bit_index,
                        bit,
                    },
                    50,
                )
                .unwrap();
            // Salvage refills can draft new clients mid-drain.
            let nested = report_all(engine, tokens, &more);
            said.extend(more);
            said.extend(nested);
        }
        said
    }

    /// Every client sent a `Done` in `actions` acknowledges its dismissal,
    /// releasing its registration.
    fn ack_dones(engine: &mut FleetEngine, tokens: &[(u64, u64)], actions: &[FleetAction]) {
        for action in actions {
            let FleetAction::Send(conn, FleetMessage::Done { .. }) = action else {
                continue;
            };
            let token = tokens.iter().find(|(c, _)| c == conn).unwrap().1;
            engine
                .on_message(
                    *conn,
                    &FleetMessage::DoneAck {
                        session_token: token,
                    },
                    60,
                )
                .unwrap();
        }
    }

    #[test]
    fn round_spacing_holds_the_next_round_back() {
        let mut engine = FleetEngine::new(cfg().with_round_spacing_ms(300));
        let tokens = rendezvous_all(&mut engine, 6, 0);
        let actions = engine.tick(10);
        assert_eq!(assigns(&actions).len(), 4, "round 0 forms immediately");
        // All reports land at t=50 (report_all's clock); the next round
        // may not form before t=350.
        report_all(&mut engine, &tokens, &actions);
        assert!(
            assigns(&engine.tick(200)).is_empty(),
            "round 1 formed inside the 300 ms pacing floor"
        );
        let actions = engine.tick(351);
        assert_eq!(
            assigns(&actions).len(),
            4,
            "round 1 forms once the pacing floor elapses"
        );
    }

    #[test]
    fn heartbeat_death_salvages_the_slot() {
        let mut engine = FleetEngine::new(cfg());
        let tokens = rendezvous_all(&mut engine, 6, 0);
        let actions = engine.tick(10);
        let drafted = assigns(&actions);
        assert_eq!(drafted.len(), 4);
        let (dead_conn, _, dead_bit) = drafted[0];
        // Everyone beats at 400 except the first drafted client.
        for (conn, token) in &tokens {
            if *conn == dead_conn {
                continue;
            }
            engine
                .on_message(
                    *conn,
                    &FleetMessage::Heartbeat {
                        session_token: *token,
                        seq: 1,
                    },
                    400,
                )
                .unwrap();
        }
        // Past the liveness timeout the monitor expires the silent client
        // and the salvage path refills its slot from standby.
        let salvage = engine.tick(600);
        assert!(
            salvage
                .iter()
                .any(|a| matches!(a, FleetAction::Close(c) if *c == dead_conn)),
            "dead client's connection is closed"
        );
        let refills = assigns(&salvage);
        assert_eq!(refills.len(), 1, "exactly one slot refilled");
        assert_eq!(refills[0].2, dead_bit, "refill inherits the bit index");
        assert_ne!(refills[0].0, dead_conn);
        assert_eq!(engine.live_population(), 5);
    }

    #[test]
    fn hangup_salvages_and_rounds_complete_with_exact_ledger() {
        // Grace 0 = resume disabled: a disconnect salvages on the next tick.
        let mut engine = FleetEngine::new(cfg().with_resume_grace_ms(0));
        let tokens = rendezvous_all(&mut engine, 6, 0);
        let actions = engine.tick(10);
        let drafted = assigns(&actions);
        let (dead_conn, ..) = drafted[1];
        // One drafted client hangs up mid-round.
        let mut salvage = engine.on_disconnect(dead_conn, 20);
        salvage.extend(engine.tick(21));
        assert_eq!(assigns(&salvage).len(), 1, "hangup slot refilled");
        // Everyone else reports truthfully; the refilled client too.
        let mut all = actions.clone();
        all.retain(|a| !matches!(a, FleetAction::Send(c, _) if *c == dead_conn));
        all.extend(salvage);
        report_all(&mut engine, &tokens, &all);
        // Round 1 completed; round 2 starts on the next tick with the 5
        // survivors and completes the campaign.
        assert_eq!(engine.reports().len(), 1);
        let r0 = &engine.reports()[0];
        assert_eq!(r0.reports, 4);
        assert_eq!(r0.salvaged_hangup, 1);
        assert_eq!(r0.salvaged_heartbeat, 0);
        assert_eq!(r0.abandoned, 0);
        let actions = engine.tick(100);
        let finale = report_all(&mut engine, &tokens, &actions);
        assert!(
            !engine.done(),
            "dismissals are out but unacknowledged: registrations held"
        );
        ack_dones(&mut engine, &tokens, &finale);
        assert!(engine.done());
        assert_eq!(engine.reports().len(), 2);
        // The dismissal notified every survivor, and every survivor
        // acknowledged it.
        let ledger = engine.ledger();
        assert_eq!(ledger.done_acks, 5);
        assert_eq!(ledger.rendezvous, 6);
        assert_eq!(ledger.rendezvous_acks, 6);
        assert_eq!(ledger.heartbeats, ledger.heartbeat_acks);
        assert_eq!(ledger.reports, 8, "4 per round");
        assert_eq!(ledger.report_acks, ledger.reports);
        assert_eq!(
            ledger.cohort_assigns,
            8 + 1,
            "two cohorts of 4 plus one salvage refill"
        );
        assert_eq!(ledger.dones, 5, "every survivor dismissed");
        assert_eq!(engine.live_population(), 0);
    }

    #[test]
    fn estimates_track_the_reporters_truth() {
        // A bigger fleet: the estimate must land within a few predicted
        // standard deviations of the reporters' true mean.
        let cfg = FleetConfig::try_new(64, 80, 1, 8, 100, 500)
            .unwrap()
            .with_seed(3)
            .with_value_seed(17)
            .with_round_deadline_ms(10_000);
        let mut engine = FleetEngine::new(cfg);
        let tokens = rendezvous_all(&mut engine, 80, 0);
        let actions = engine.tick(10);
        let finale = report_all(&mut engine, &tokens, &actions);
        ack_dones(&mut engine, &tokens, &finale);
        assert!(engine.done());
        let report = &engine.reports()[0];
        assert_eq!(report.reports, 64);
        let truth = report
            .reporters
            .iter()
            .map(|&id| client_value(17, id, 8) as f64)
            .sum::<f64>()
            / report.reporters.len() as f64;
        let tolerance = 6.0 * report.predicted_std.max(1.0);
        assert!(
            (report.estimate - truth).abs() <= tolerance,
            "estimate {} vs truth {} (tolerance {})",
            report.estimate,
            truth,
            tolerance
        );
    }

    #[test]
    fn late_arrival_waits_and_deadline_abandons() {
        let mut engine = FleetEngine::new(cfg());
        rendezvous_all(&mut engine, 6, 0);
        engine.tick(10);
        // A late arrival mid-round is told to wait for this round.
        let actions = engine
            .on_message(
                99,
                &FleetMessage::Rendezvous {
                    client_id: 4242,
                    capabilities: 0,
                },
                20,
            )
            .unwrap();
        assert!(actions.iter().any(|a| matches!(
            a,
            FleetAction::Send(99, FleetMessage::CohortWait { round: 0, .. })
        )));
        // Nobody reports; the deadline abandons all four slots.
        engine.tick(10_050);
        assert_eq!(engine.reports().len(), 1);
        let r = &engine.reports()[0];
        assert_eq!(r.abandoned, 4);
        assert_eq!(r.reports, 0);
        assert_eq!(r.estimate, 0.0, "no reports ⇒ zero bit means");
    }

    #[test]
    fn violations_are_typed() {
        let mut engine = FleetEngine::new(cfg());
        let err = engine
            .on_message(
                0,
                &FleetMessage::Heartbeat {
                    session_token: 1,
                    seq: 0,
                },
                0,
            )
            .unwrap_err();
        assert!(err.to_string().contains("before rendezvous"));
        let tokens = rendezvous_all(&mut engine, 1, 0);
        // Bad token.
        assert!(engine
            .on_message(
                0,
                &FleetMessage::Heartbeat {
                    session_token: tokens[0].1 ^ 1,
                    seq: 0
                },
                0
            )
            .is_err());
        // Downlink frame on the uplink.
        assert!(engine
            .on_message(0, &FleetMessage::HeartbeatAck { seq: 0 }, 0)
            .is_err());
        // Re-rendezvous on the same connection.
        assert!(engine
            .on_message(
                0,
                &FleetMessage::Rendezvous {
                    client_id: 9,
                    capabilities: 0
                },
                0
            )
            .is_err());
        // Report without an assignment.
        assert!(engine
            .on_message(
                0,
                &FleetMessage::Report {
                    session_token: tokens[0].1,
                    round: 0,
                    bit_index: 0,
                    bit: false
                },
                0
            )
            .is_err());
        // Resume with a token that is not the client's derived token.
        let err = engine
            .on_message(
                5,
                &FleetMessage::Resume {
                    client_id: 1000,
                    session_token: tokens[0].1 ^ 1,
                    report_nonce: 0,
                },
                0,
            )
            .unwrap_err();
        assert!(err.to_string().contains("bad session token"));
        // Resume on an already-established connection.
        let err = engine
            .on_message(
                0,
                &FleetMessage::Resume {
                    client_id: 1000,
                    session_token: tokens[0].1,
                    report_nonce: 0,
                },
                0,
            )
            .unwrap_err();
        assert!(err.to_string().contains("established connection"));
    }

    #[test]
    fn heartbeat_at_exactly_the_liveness_boundary_is_alive() {
        // The monitor's bound is strict: silence of exactly `liveness_ms`
        // is alive, one millisecond more is dead.
        let monitor = HeartbeatMonitor::new(500);
        assert!(!monitor.is_dead(100, 600), "boundary beat is alive");
        assert!(monitor.is_dead(100, 601), "one past the boundary is dead");
        // And through the engine: a member whose last beat is exactly
        // liveness_ms old survives the sweep.
        let mut engine = FleetEngine::new(cfg());
        rendezvous_all(&mut engine, 1, 0);
        engine.tick(500);
        assert_eq!(engine.live_population(), 1, "alive at the boundary");
        engine.tick(501);
        assert_eq!(engine.live_population(), 0, "expired past the boundary");
    }

    /// Runs both rounds of `cfg()` to completion with one waiter
    /// disconnected mid-campaign; returns `(engine, waiter_conn, token)`.
    fn campaign_with_a_mid_reconnect_straggler() -> (FleetEngine, u64, u64) {
        let mut engine = FleetEngine::new(cfg());
        let tokens = rendezvous_all(&mut engine, 6, 0);
        let round0 = engine.tick(10);
        report_all(&mut engine, &tokens, &round0);
        let round1 = engine.tick(60);
        let drafted: Vec<u64> = assigns(&round1).iter().map(|&(c, ..)| c).collect();
        let waiter = (0..6).find(|c| !drafted.contains(c)).expect("a standby");
        let token = tokens.iter().find(|(c, _)| *c == waiter).unwrap().1;
        // The standby's connection faults just before the campaign ends.
        engine.on_disconnect(waiter, 70);
        let finale = report_all(&mut engine, &tokens, &round1);
        assert_eq!(engine.reports().len(), 2, "both rounds completed");
        // The five connected members acknowledge their dismissal; only
        // the disconnected waiter's registration is left holding.
        ack_dones(&mut engine, &tokens, &finale);
        (engine, waiter, token)
    }

    #[test]
    fn done_holds_the_campaign_open_until_a_straggler_resumes() {
        let (mut engine, waiter, token) = campaign_with_a_mid_reconnect_straggler();
        assert!(
            !engine.done(),
            "campaign stays open for the mid-reconnect straggler"
        );
        engine.tick(300); // inside the 500 ms resume grace window
        assert!(!engine.done(), "grace window still open");
        let dismissed = engine
            .on_message(
                99,
                &FleetMessage::Resume {
                    client_id: 1000 + waiter,
                    session_token: token,
                    report_nonce: 0,
                },
                350,
            )
            .unwrap();
        assert!(
            dismissed
                .iter()
                .any(|a| matches!(a, FleetAction::Send(99, FleetMessage::Done { .. }))),
            "the straggler collects its dismissal"
        );
        assert!(
            !engine.done(),
            "the re-sent dismissal still awaits its acknowledgement"
        );
        engine
            .on_message(
                99,
                &FleetMessage::DoneAck {
                    session_token: token,
                },
                360,
            )
            .unwrap();
        assert!(engine.done(), "campaign closes once the straggler is out");
        assert_eq!(engine.ledger().dones, 6, "every member dismissed");
        assert_eq!(engine.ledger().done_acks, 6, "and every member acked");
    }

    #[test]
    fn done_fires_once_an_absent_stragglers_grace_lapses() {
        let (mut engine, ..) = campaign_with_a_mid_reconnect_straggler();
        assert!(!engine.done());
        engine.tick(570); // exactly at the grace boundary: still held
        assert!(!engine.done(), "boundary instant keeps the grace open");
        engine.tick(571);
        assert!(engine.done(), "a straggler that never returns lapses");
        assert_eq!(engine.ledger().dones, 5, "only live members were dismissed");
    }

    #[test]
    fn done_ack_is_guarded_like_every_other_uplink() {
        // Before the dismissal it is a protocol violation outright.
        let mut engine = FleetEngine::new(cfg());
        let tokens = rendezvous_all(&mut engine, 6, 0);
        let err = engine
            .on_message(
                0,
                &FleetMessage::DoneAck {
                    session_token: tokens[0].1,
                },
                5,
            )
            .unwrap_err();
        assert!(err.to_string().contains("before dismissal"));
        // After it, a forged token is rejected and the registration held.
        let round0 = engine.tick(10);
        report_all(&mut engine, &tokens, &round0);
        let round1 = engine.tick(60);
        let finale = report_all(&mut engine, &tokens, &round1);
        let err = engine
            .on_message(
                0,
                &FleetMessage::DoneAck {
                    session_token: tokens[0].1 ^ 1,
                },
                70,
            )
            .unwrap_err();
        assert!(err.to_string().contains("bad session token"));
        assert!(!engine.done(), "a forged ack releases nothing");
        ack_dones(&mut engine, &tokens, &finale);
        assert!(engine.done());
    }

    #[test]
    fn resume_rebinds_and_reissues_the_assignment() {
        let mut engine = FleetEngine::new(cfg());
        let tokens = rendezvous_all(&mut engine, 6, 0);
        let actions = engine.tick(10);
        let drafted = assigns(&actions);
        let (lost_conn, _, lost_bit) = drafted[0];
        let token = tokens.iter().find(|(c, _)| *c == lost_conn).unwrap().1;
        let client_id = 1000 + lost_conn;
        // The connection faults mid-round; inside the grace window (500 ms)
        // nothing is salvaged and the registration survives.
        engine.on_disconnect(lost_conn, 100);
        assert!(
            assigns(&engine.tick(300)).is_empty(),
            "no salvage inside the grace window"
        );
        assert_eq!(engine.live_population(), 6);
        // The client resumes on a fresh connection with its token and gets
        // the same token acked plus its assignment re-issued verbatim.
        let resumed = engine
            .on_message(
                77,
                &FleetMessage::Resume {
                    client_id,
                    session_token: token,
                    report_nonce: 0,
                },
                350,
            )
            .unwrap();
        assert!(resumed.iter().any(|a| matches!(
            a,
            FleetAction::Send(77, FleetMessage::RendezvousAck { session_token, .. })
                if *session_token == token
        )));
        assert_eq!(
            assigns(&resumed),
            vec![(77, 0, lost_bit)],
            "same slot, same bit index, on the new connection"
        );
        let ledger = engine.ledger();
        assert_eq!(ledger.resumes, 1);
        assert_eq!(ledger.resumed_assigns, 1);
        assert_eq!(
            ledger.cohort_assigns, 4,
            "a re-issued assignment is not a draft"
        );
        // The resumed client reports on the new connection; the round
        // later completes with zero salvage.
        engine
            .on_message(
                77,
                &FleetMessage::Report {
                    session_token: token,
                    round: 0,
                    bit_index: lost_bit,
                    bit: false,
                },
                400,
            )
            .unwrap();
        let mut rest = actions.clone();
        rest.retain(|a| !matches!(a, FleetAction::Send(c, _) if *c == lost_conn));
        report_all(&mut engine, &tokens, &rest);
        assert_eq!(engine.reports().len(), 1);
        let r0 = &engine.reports()[0];
        assert_eq!(r0.reports, 4);
        assert_eq!(r0.salvaged_hangup + r0.salvaged_heartbeat, 0);
    }

    #[test]
    fn retransmitted_reports_are_acked_but_never_recounted() {
        let mut engine = FleetEngine::new(cfg());
        let tokens = rendezvous_all(&mut engine, 6, 0);
        let actions = engine.tick(10);
        let drafted = assigns(&actions);
        let (conn, round, bit_index) = drafted[0];
        let token = tokens.iter().find(|(c, _)| *c == conn).unwrap().1;
        let client_id = 1000 + conn;
        let report = FleetMessage::Report {
            session_token: token,
            round,
            bit_index,
            bit: true,
        };
        engine.on_message(conn, &report, 20).unwrap();
        let before = engine.ledger();
        // The ack is lost; the client retransmits on the same connection.
        let replay = engine.on_message(conn, &report, 30).unwrap();
        assert!(replay.iter().any(|a| matches!(
            a,
            FleetAction::Send(c, FleetMessage::ReportAck { .. }) if *c == conn
        )));
        let after = engine.ledger();
        assert_eq!(after.reports, before.reports, "never recounted");
        assert_eq!(after.dup_reports, 1);
        assert_eq!(after.report_acks, after.reports + after.dup_reports);
        // And across a resume: fault, re-bind, retransmit again.
        engine.on_disconnect(conn, 40);
        let resumed = engine
            .on_message(
                88,
                &FleetMessage::Resume {
                    client_id,
                    session_token: token,
                    report_nonce: 1,
                },
                50,
            )
            .unwrap();
        assert!(
            assigns(&resumed).is_empty(),
            "already reported: nothing to re-issue"
        );
        engine.on_message(88, &report, 60).unwrap();
        assert_eq!(engine.ledger().dup_reports, 2);
        // The round still completes with exactly 4 counted reports.
        let mut rest = actions.clone();
        rest.retain(|a| !matches!(a, FleetAction::Send(c, _) if *c == conn));
        report_all(&mut engine, &tokens, &rest);
        assert_eq!(engine.reports().len(), 1);
        assert_eq!(engine.reports()[0].reports, 4);
    }

    #[test]
    fn grace_expiry_salvages_the_slot_as_a_hangup() {
        let mut engine = FleetEngine::new(cfg());
        let tokens = rendezvous_all(&mut engine, 6, 0);
        let actions = engine.tick(10);
        let (lost_conn, _, lost_bit) = assigns(&actions)[2];
        engine.on_disconnect(lost_conn, 20);
        // Everyone still connected beats at 400 so only the grace clock
        // can expire anyone.
        for (conn, token) in &tokens {
            if *conn == lost_conn {
                continue;
            }
            engine
                .on_message(
                    *conn,
                    &FleetMessage::Heartbeat {
                        session_token: *token,
                        seq: 1,
                    },
                    400,
                )
                .unwrap();
        }
        // Grace (500 ms from the disconnect) lapses at 521: the member is
        // expired as a hangup and its slot refilled from standby.
        let salvage = engine.tick(521);
        let refills = assigns(&salvage);
        assert_eq!(refills.len(), 1, "slot refilled after grace");
        assert_eq!(refills[0].2, lost_bit, "refill inherits the bit index");
        assert!(
            !salvage.iter().any(|a| matches!(a, FleetAction::Close(_))),
            "no Close for a socket that is already gone"
        );
        assert_eq!(engine.live_population(), 5);
    }

    #[test]
    fn token_less_rerendezvous_inside_grace_rebinds() {
        let mut engine = FleetEngine::new(cfg());
        rendezvous_all(&mut engine, 6, 0);
        // Duplicate client id while its connection is live: still a
        // violation (identity theft, not a reconnect).
        assert!(engine
            .on_message(
                55,
                &FleetMessage::Rendezvous {
                    client_id: 1000,
                    capabilities: 0
                },
                5
            )
            .is_err());
        let actions = engine.tick(10);
        let (lost_conn, _, lost_bit) = assigns(&actions)[0];
        engine.on_disconnect(lost_conn, 20);
        // A crashed-and-restarted client has no token; its plain
        // re-rendezvous inside the grace window re-binds the session.
        let out = engine
            .on_message(
                91,
                &FleetMessage::Rendezvous {
                    client_id: 1000 + lost_conn,
                    capabilities: 0,
                },
                30,
            )
            .unwrap();
        assert!(out
            .iter()
            .any(|a| matches!(a, FleetAction::Send(91, FleetMessage::RendezvousAck { .. }))));
        assert_eq!(assigns(&out), vec![(91, 0, lost_bit)]);
        let ledger = engine.ledger();
        assert_eq!(ledger.rendezvous, 6, "a rebind is not a new rendezvous");
        assert_eq!(ledger.resumes, 1);
        assert_eq!(ledger.rendezvous_acks, ledger.rendezvous + ledger.resumes);
    }

    #[test]
    fn client_value_is_stable_and_bounded() {
        for id in [0u64, 1, 77, u64::MAX] {
            let v = client_value(5, id, 8);
            assert!(v < 256);
            assert_eq!(v, client_value(5, id, 8), "deterministic");
        }
        // Different seeds decorrelate.
        assert_ne!(client_value(5, 1, 32), client_value(6, 1, 32));
    }
}
