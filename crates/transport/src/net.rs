//! Transports: how framed messages travel between clients and coordinator.
//!
//! An [`Envelope`] is a frame plus connection metadata (sender, recipient,
//! send time). The [`Transport`] trait abstracts delivery; two
//! implementations exist:
//!
//! * [`InMemoryTransport`] — a perfect network: every envelope arrives
//!   verbatim at its send time. This is the fast path for scale runs.
//! * [`SimNetTransport`] — composes the deterministic
//!   [`FaultPlan`] into *message-level*
//!   events: report frames can straggle past the collection deadline, have
//!   their payload bit corrupted on the wire, be delivered twice, or be
//!   replaced by a replay of an earlier observed frame. Client-phase fault
//!   kinds (dropping out, stale-round payloads) belong to the coordinator's
//!   client model and pass through here untouched.
//!
//! Both deliver through the seeded [`EventQueue`], so an identical seed
//! replays the identical delivery order.

use fednum_fedsim::faults::{FaultKind, FaultPlan};
use fednum_fedsim::round::FederatedMeanConfig;

use crate::message::{Message, Report, TAG_REPORT};
use crate::scheduler::{next_tick, EventQueue};
use fednum_core::wire::ReportMessage;

/// The coordinator's address. Clients use their population index.
pub const COORDINATOR: u64 = u64::MAX;

/// Downlink broadcast address: one frame delivered to every contacted
/// client in the wave (the compressed-config header). Client population
/// indices are always far below this.
pub const BROADCAST: u64 = u64::MAX - 1;

/// The shuffler's address: where clients in a shuffled round send their
/// one-bit submissions instead of [`COORDINATOR`]. The shuffler strips the
/// sender identity from everything it forwards, so frames *from* this
/// address carry no (client, frame) linkage.
pub const SHUFFLER: u64 = u64::MAX - 2;

/// The largest envelope payload every transport carries.
///
/// [`TcpTransport`](crate::tcp::TcpTransport) sends each envelope back in a
/// `Deliveries` echo frame, which adds a tag and a count (a byte each), the
/// delivery and send times (eight bytes each), both addresses (up to ten
/// bytes each) and the payload's length (four bytes at this size). The echo
/// of a payload this long still fits one
/// [`MAX_FRAME_LEN`](fednum_core::wire::MAX_FRAME_LEN) frame; a longer one
/// is refused with a typed error before any byte of it is written.
pub const MAX_ENVELOPE_PAYLOAD: usize =
    fednum_core::wire::MAX_FRAME_LEN - (1 + 1 + 8 + 8 + 10 + 10 + 4);

/// A framed message in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Sending endpoint (client index, or [`COORDINATOR`]).
    pub from: u64,
    /// Receiving endpoint.
    pub to: u64,
    /// Virtual send time.
    pub sent_at: f64,
    /// The encoded [`Message`] frame.
    pub payload: Vec<u8>,
}

/// Wire-level accounting for transports whose frames cross a real byte
/// stream: counts and sizes of the *encoded* frames (length prefix and
/// control framing included), as opposed to the protocol-level
/// [`TrafficStats`](fednum_fedsim::traffic::TrafficStats) ledger which
/// meters logical payload bytes per phase. The two are complementary: the
/// ledger stays bit-identical between in-memory and TCP runs, while
/// `WireMetrics` reports what the socket actually carried.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireMetrics {
    /// Frames written to the wire.
    pub frames_sent: u64,
    /// Frames read off the wire.
    pub frames_received: u64,
    /// Encoded bytes written, framing overhead included.
    pub bytes_sent: u64,
    /// Encoded bytes read, framing overhead included.
    pub bytes_received: u64,
}

impl WireMetrics {
    /// Folds another tally into this one.
    pub fn merge(&mut self, other: &WireMetrics) {
        self.frames_sent += other.frames_sent;
        self.frames_received += other.frames_received;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
    }
}

/// Message delivery between protocol endpoints.
pub trait Transport {
    /// Accepts an envelope for delivery.
    fn send(&mut self, env: Envelope);

    /// Removes and returns the next delivery as `(arrival time, envelope)`.
    fn poll(&mut self) -> Option<(f64, Envelope)>;

    /// Arrival time of the next delivery, if any is pending.
    fn peek_time(&self) -> Option<f64>;

    /// Announces a collection window `[start, deadline]`. Deadline-aware
    /// transports use it to schedule stragglers past the deadline and to
    /// reset per-window replay state; the default is a no-op.
    fn open_window(&mut self, start: f64, deadline: f64) {
        let _ = (start, deadline);
    }

    /// Re-delivers a frame that already traversed the wire once — a parked
    /// straggler re-admitted by a salvage session. The envelope is scheduled
    /// verbatim on the shared timeline, bypassing wire-fault injection: the
    /// fault plan already acted on the original transmission, and replaying
    /// it would fault the same frame twice.
    fn redeliver(&mut self, env: Envelope) {
        self.send(env);
    }

    /// Whether no deliveries are pending. A drained timeline is a session
    /// boundary: the multi-session engine only opens a new
    /// [`SessionSlot`](crate::session::SessionSlot) over an idle transport.
    fn idle(&self) -> bool {
        true
    }

    /// Wire-level frame accounting, for transports backed by a real byte
    /// stream ([`TcpTransport`](crate::tcp::TcpTransport)); `None` for
    /// in-process transports, where nothing is framed onto a socket.
    fn wire_metrics(&self) -> Option<WireMetrics> {
        None
    }

    /// A transport-level failure observed since the last check, if any.
    ///
    /// The [`Transport`] call surface is infallible by design (the
    /// simulation transports cannot fail), so a socket-backed transport
    /// records I/O errors internally, lets the session drain, and surfaces
    /// the typed error here; the round driver checks after the session and
    /// converts the result into
    /// [`FedError::Transport`](fednum_fedsim::error::FedError::Transport).
    /// Taking the error
    /// clears it.
    fn take_error(&mut self) -> Option<fednum_fedsim::error::FedError> {
        None
    }
}

/// A perfect in-memory network: every envelope arrives verbatim at its send
/// time, FIFO per sender, seeded interleave across senders.
pub struct InMemoryTransport {
    queue: EventQueue<Envelope>,
}

impl InMemoryTransport {
    /// An empty transport whose same-time tie-breaks derive from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            queue: EventQueue::new(seed),
        }
    }
}

impl Transport for InMemoryTransport {
    fn send(&mut self, env: Envelope) {
        self.queue.push(env.sent_at, env.from, env);
    }

    fn poll(&mut self) -> Option<(f64, Envelope)> {
        self.queue.pop().map(|s| (s.time, s.item))
    }

    fn peek_time(&self) -> Option<f64> {
        self.queue.peek_time()
    }

    fn idle(&self) -> bool {
        self.queue.is_empty()
    }
}

/// A wire whose far end rewrites frames: every envelope sent passes through
/// `rewrite` on its way into `inner` (`None` loses it). It stands in for a
/// daemon echoing back bytes the session never validated — the one hostile
/// transport the fail-closed suites drive every wire with.
pub struct Tampered<T, F> {
    /// The wire that carries what `rewrite` lets through.
    pub inner: T,
    /// What the far end does to each frame.
    pub rewrite: F,
}

impl<T: Transport, F: FnMut(Envelope) -> Option<Envelope>> Transport for Tampered<T, F> {
    fn send(&mut self, env: Envelope) {
        if let Some(env) = (self.rewrite)(env) {
            self.inner.send(env);
        }
    }

    fn poll(&mut self) -> Option<(f64, Envelope)> {
        self.inner.poll()
    }

    fn peek_time(&self) -> Option<f64> {
        self.inner.peek_time()
    }

    fn open_window(&mut self, start: f64, deadline: f64) {
        self.inner.open_window(start, deadline);
    }

    fn redeliver(&mut self, env: Envelope) {
        self.inner.redeliver(env);
    }

    fn idle(&self) -> bool {
        self.inner.idle()
    }

    fn wire_metrics(&self) -> Option<WireMetrics> {
        self.inner.wire_metrics()
    }

    fn take_error(&mut self) -> Option<fednum_fedsim::error::FedError> {
        self.inner.take_error()
    }
}

/// The simulated lossy network: wire-level fault kinds from a
/// [`FaultPlan`] become envelope transformations, applied in send order.
///
/// The replay store mirrors the legacy orchestrator's "most recent
/// delivery" register: it is updated at send time with exactly the frames
/// whose delivery the server will end up accepting (predictable from the
/// fault kind and the validation mode), so a replayed frame substitutes the
/// same report the synchronous path would have replayed.
pub struct SimNetTransport {
    queue: EventQueue<Envelope>,
    faults: Option<FaultPlan>,
    validate: bool,
    round_id: u64,
    window_start: f64,
    deadline: f64,
    /// Most recent report the server will accept: `(bit, value, nonce)`.
    last_report: Option<(u8, bool, u64)>,
}

impl SimNetTransport {
    /// A fault-free simulated network (behaves like [`InMemoryTransport`]).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            queue: EventQueue::new(seed),
            faults: None,
            validate: true,
            round_id: 0,
            window_start: 0.0,
            deadline: f64::MAX,
            last_report: None,
        }
    }

    /// A simulated network matching a round configuration: same fault plan,
    /// same round identifier, same validation mode.
    #[must_use]
    pub fn for_config(config: &FederatedMeanConfig, seed: u64) -> Self {
        Self::with_plan(seed, config.faults, config.validate, config.session_seed)
    }

    /// A simulated network from explicit wire parameters — what the TCP
    /// coordinator daemon builds from a driver's session handshake, so the
    /// server-side fault stage replays exactly the plan a local
    /// [`Self::for_config`] transport would.
    #[must_use]
    pub fn with_plan(seed: u64, faults: Option<FaultPlan>, validate: bool, round_id: u64) -> Self {
        Self {
            queue: EventQueue::new(seed),
            faults,
            validate,
            round_id,
            window_start: 0.0,
            deadline: f64::MAX,
            last_report: None,
        }
    }

    /// Whether [`send`](Transport::send) delivers an envelope to `to`
    /// carrying `payload` verbatim at its send time, and changes nothing
    /// else: always without a fault plan, and with one for anything but a
    /// client → coordinator report frame (configs, secure-aggregation
    /// rounds and publishes are never fault candidates).
    pub(crate) fn passes_through(&self, to: u64, payload: &[u8]) -> bool {
        self.faults.is_none() || to != COORDINATOR || payload.first() != Some(&TAG_REPORT)
    }

    fn deliver(&mut self, at: f64, env: Envelope) {
        self.queue.push(at, env.from, env);
    }

    /// Arrival time for a frame that straggles past the window deadline,
    /// preserving relative send order among stragglers.
    fn late(&self, sent_at: f64) -> f64 {
        let at = self.deadline + (sent_at - self.window_start).max(0.0);
        if at > self.deadline {
            at
        } else {
            // A zero-delta straggler, or a delta below the deadline's ulp:
            // a fixed `+ f64::EPSILON` nudge rounds back onto the deadline
            // for any deadline >= 2.0, and the frame would then pass the
            // coordinator's strict `at > deadline` check. Use the
            // scheduler's minimum tick instead.
            next_tick(self.deadline)
        }
    }
}

impl Transport for SimNetTransport {
    fn open_window(&mut self, start: f64, deadline: f64) {
        self.window_start = start;
        self.deadline = deadline;
        // The replay register is per collection window, like the legacy
        // orchestrator's per-wave state.
        self.last_report = None;
    }

    #[allow(clippy::too_many_lines)]
    fn send(&mut self, env: Envelope) {
        let pass = self.passes_through(env.to, &env.payload);
        let Some(plan) = self.faults.filter(|_| !pass) else {
            let at = env.sent_at;
            self.deliver(at, env);
            return;
        };
        let fault = plan.fault_for(self.round_id, env.from);
        // Wire faults only make sense for the single-feature frames the
        // coordinator emits; anything else passes through untouched.
        let report = match Message::decode(&env.payload) {
            Ok(Message::Report(r)) if r.body.reports.len() == 1 => r,
            _ => {
                let at = env.sent_at;
                self.deliver(at, env);
                return;
            }
        };
        let (bit, value) = report.body.reports[0];
        let nonce = report.nonce;
        match fault {
            // No fault, or a fault the client (not the wire) acts out:
            // deliver verbatim. The server accepts these frames — except a
            // stale-round or straggling frame under validation, which it
            // rejects, so those don't enter the replay register.
            None | Some(FaultKind::DropBeforeReport | FaultKind::DropBeforeUnmask) => {
                self.last_report = Some((bit, value, nonce));
                let at = env.sent_at;
                self.deliver(at, env);
            }
            Some(FaultKind::StaleRound) => {
                if !self.validate {
                    self.last_report = Some((bit, value, nonce));
                }
                let at = env.sent_at;
                self.deliver(at, env);
            }
            Some(FaultKind::Straggle) => {
                if !self.validate {
                    self.last_report = Some((bit, value, nonce));
                }
                let at = self.late(env.sent_at);
                self.deliver(at, env);
            }
            Some(FaultKind::CorruptBit) => {
                // Undetectable bit flip in transit.
                let corrupted = Message::Report(Report {
                    nonce,
                    body: ReportMessage {
                        task_id: report.body.task_id,
                        reports: vec![(bit, !value)],
                    },
                });
                self.last_report = Some((bit, !value, nonce));
                self.deliver(
                    env.sent_at,
                    Envelope {
                        payload: corrupted.encode(),
                        ..env
                    },
                );
            }
            Some(FaultKind::DuplicateReport) => {
                // A retrying sender: the payload repeats, the envelope nonce
                // is fresh on the second copy.
                self.last_report = Some((bit, value, nonce));
                let copy = Message::Report(Report {
                    nonce: nonce | (1 << 63),
                    body: report.body.clone(),
                });
                let at = env.sent_at;
                let second = Envelope {
                    payload: copy.encode(),
                    ..env.clone()
                };
                self.deliver(at, env);
                // Same time, same sender stream: FIFO keeps copy order.
                self.deliver(at, second);
            }
            // The fresh frame is replaced by a verbatim copy of the most
            // recent accepted one — same nonce, current round tag. With
            // nothing observed yet to replay, the frame is simply lost.
            Some(FaultKind::ReplayReport) => {
                if let Some((pb, pv, pn)) = self.last_report {
                    let replayed = Message::Report(Report {
                        nonce: pn,
                        body: ReportMessage {
                            task_id: self.round_id,
                            reports: vec![(pb, pv)],
                        },
                    });
                    self.deliver(
                        env.sent_at,
                        Envelope {
                            payload: replayed.encode(),
                            ..env
                        },
                    );
                }
            }
        }
    }

    fn poll(&mut self) -> Option<(f64, Envelope)> {
        self.queue.pop().map(|s| (s.time, s.item))
    }

    fn peek_time(&self) -> Option<f64> {
        self.queue.peek_time()
    }

    fn redeliver(&mut self, env: Envelope) {
        // Straight onto the timeline: no fault dispatch, no replay-register
        // update — the original transmission already went through both.
        self.deliver(env.sent_at, env);
    }

    fn idle(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fednum_fedsim::faults::FaultRates;

    fn report_env(client: u64, bit: u8, value: bool, round: u64, at: f64) -> Envelope {
        let msg = Message::Report(Report {
            nonce: client,
            body: ReportMessage {
                task_id: round,
                reports: vec![(bit, value)],
            },
        });
        Envelope {
            from: client,
            to: COORDINATOR,
            sent_at: at,
            payload: msg.encode(),
        }
    }

    fn decode_report(env: &Envelope) -> Report {
        match Message::decode(&env.payload).unwrap() {
            Message::Report(r) => r,
            other => panic!("expected report, got {other:?}"),
        }
    }

    /// A plan pinned to one fault kind for every client.
    fn plan_all(kind: FaultKind) -> FaultPlan {
        let mut rates = FaultRates::none();
        match kind {
            FaultKind::Straggle => rates.straggle = 1.0,
            FaultKind::CorruptBit => rates.corrupt_bit = 1.0,
            FaultKind::DuplicateReport => rates.duplicate = 1.0,
            FaultKind::ReplayReport => rates.replay = 1.0,
            FaultKind::DropBeforeReport => rates.drop_before_report = 1.0,
            FaultKind::DropBeforeUnmask => rates.drop_before_unmask = 1.0,
            FaultKind::StaleRound => rates.stale_round = 1.0,
        }
        FaultPlan::new(rates, 0).unwrap()
    }

    fn faulty_net(kind: FaultKind, validate: bool) -> SimNetTransport {
        let mut net = SimNetTransport::new(9);
        net.faults = Some(plan_all(kind));
        net.validate = validate;
        net.round_id = 7;
        net.open_window(0.0, 10.0);
        net
    }

    #[test]
    fn in_memory_delivers_in_send_time_order() {
        let mut t = InMemoryTransport::new(1);
        t.send(report_env(2, 0, true, 1, 0.2));
        t.send(report_env(1, 0, true, 1, 0.1));
        assert_eq!(t.peek_time(), Some(0.1));
        let (at1, e1) = t.poll().unwrap();
        let (at2, e2) = t.poll().unwrap();
        assert!(t.poll().is_none());
        assert_eq!((at1, e1.from), (0.1, 1));
        assert_eq!((at2, e2.from), (0.2, 2));
    }

    #[test]
    fn fault_free_simnet_is_transparent() {
        let mut t = SimNetTransport::new(3);
        let env = report_env(5, 2, true, 1, 0.5);
        t.send(env.clone());
        assert_eq!(t.poll(), Some((0.5, env)));
    }

    #[test]
    fn stragglers_arrive_after_the_deadline_in_order() {
        let mut t = faulty_net(FaultKind::Straggle, true);
        t.send(report_env(1, 0, true, 7, 0.1));
        t.send(report_env(2, 0, true, 7, 0.2));
        let (at1, e1) = t.poll().unwrap();
        let (at2, e2) = t.poll().unwrap();
        assert!(at1 > 10.0 && at2 > at1, "{at1} {at2}");
        assert_eq!((e1.from, e2.from), (1, 2));
    }

    #[test]
    fn zero_delta_straggler_still_misses_a_large_deadline() {
        // Regression: with `late = deadline + delta + f64::EPSILON`, a
        // zero-delta straggler at any deadline >= 2.0 arrived exactly *at*
        // the deadline (the epsilon is below the deadline's ulp) and passed
        // the coordinator's strict `at > deadline` check.
        let mut t = faulty_net(FaultKind::Straggle, true);
        t.open_window(1.0e9, 2.0e9);
        t.send(report_env(1, 0, true, 7, 1.0e9));
        let (at, _) = t.poll().unwrap();
        assert!(
            at > 2.0e9,
            "straggler must sort strictly after the deadline, got {at}"
        );
    }

    #[test]
    fn redeliver_bypasses_wire_faults_and_the_replay_register() {
        let mut t = faulty_net(FaultKind::CorruptBit, true);
        let env = report_env(3, 1, true, 7, 0.5);
        t.redeliver(env.clone());
        assert_eq!(t.poll(), Some((0.5, env)), "frame must arrive verbatim");
        assert!(t.idle());
        assert!(t.last_report.is_none(), "redelivery must not seed replays");
    }

    #[test]
    fn corruption_flips_the_payload_bit_only() {
        let mut t = faulty_net(FaultKind::CorruptBit, true);
        t.send(report_env(1, 3, true, 7, 0.1));
        let (_, env) = t.poll().unwrap();
        let r = decode_report(&env);
        assert_eq!(r.nonce, 1);
        assert_eq!(r.body.reports, vec![(3, false)]);
        assert_eq!(r.body.task_id, 7);
    }

    #[test]
    fn duplicates_deliver_twice_with_fresh_envelope_nonce() {
        let mut t = faulty_net(FaultKind::DuplicateReport, true);
        t.send(report_env(4, 1, true, 7, 0.1));
        let (at1, e1) = t.poll().unwrap();
        let (at2, e2) = t.poll().unwrap();
        assert!(t.poll().is_none());
        assert_eq!(at1, at2, "copies share the arrival instant");
        assert_eq!(decode_report(&e1).nonce, 4);
        assert_eq!(decode_report(&e2).nonce, 4 | (1 << 63));
        assert_eq!(decode_report(&e1).body, decode_report(&e2).body);
    }

    #[test]
    fn replay_with_empty_register_drops_the_frame() {
        let mut t = faulty_net(FaultKind::ReplayReport, true);
        t.send(report_env(1, 2, true, 7, 0.1));
        assert!(t.poll().is_none(), "nothing observed yet to replay");
    }

    #[test]
    fn replay_substitutes_the_last_accepted_report() {
        let mut rates = FaultRates::none();
        rates.replay = 1.0;
        let plan = FaultPlan::new(rates, 0).unwrap();
        // Find a faulted client and a clean one under a mixed plan.
        let mut t = SimNetTransport::new(9);
        t.faults = Some(FaultPlan::new(FaultRates::none(), 0).unwrap());
        t.validate = true;
        t.round_id = 7;
        t.open_window(0.0, 10.0);
        // Clean frame seeds the register...
        t.send(report_env(1, 5, true, 7, 0.1));
        // ...then switch every later client to replay.
        t.faults = Some(plan);
        t.send(report_env(2, 3, false, 7, 0.2));
        let (_, first) = t.poll().unwrap();
        let (_, second) = t.poll().unwrap();
        assert_eq!(decode_report(&first).body.reports, vec![(5, true)]);
        let replayed = decode_report(&second);
        assert_eq!(second.from, 2, "attributed to the faulted sender");
        assert_eq!(replayed.nonce, 1, "carries the replayed nonce");
        assert_eq!(replayed.body.reports, vec![(5, true)]);
    }

    #[test]
    fn validated_straggler_does_not_enter_the_replay_register() {
        // straggler (rejected under validation) then replay: nothing stored.
        let mut t = faulty_net(FaultKind::Straggle, true);
        t.send(report_env(1, 2, true, 7, 0.1));
        t.faults = Some(plan_all(FaultKind::ReplayReport));
        t.send(report_env(2, 3, false, 7, 0.2));
        let mut arrivals = 0;
        while t.poll().is_some() {
            arrivals += 1;
        }
        assert_eq!(arrivals, 1, "only the straggler frame survives");
    }

    #[test]
    fn naive_straggler_feeds_the_replay_register() {
        let mut t = faulty_net(FaultKind::Straggle, false);
        t.send(report_env(1, 2, true, 7, 0.1));
        t.faults = Some(plan_all(FaultKind::ReplayReport));
        t.send(report_env(2, 3, false, 7, 0.2));
        // Replay arrives on time; straggler after the deadline.
        let (at1, e1) = t.poll().unwrap();
        let (at2, e2) = t.poll().unwrap();
        assert!(at1 < 10.0 && at2 > 10.0);
        assert_eq!(e1.from, 2);
        assert_eq!(decode_report(&e1).body.reports, vec![(2, true)]);
        assert_eq!(e2.from, 1);
    }

    #[test]
    fn window_reset_clears_the_replay_register() {
        let mut t = faulty_net(FaultKind::ReplayReport, true);
        t.last_report = Some((1, true, 3));
        t.open_window(20.0, 30.0);
        t.send(report_env(2, 3, false, 7, 20.1));
        assert!(t.poll().is_none());
    }

    #[test]
    fn non_report_frames_pass_through_untouched() {
        let mut t = faulty_net(FaultKind::CorruptBit, true);
        let msg = Message::Hello { round_id: 7 };
        let env = Envelope {
            from: 1,
            to: COORDINATOR,
            sent_at: 0.1,
            payload: msg.encode(),
        };
        t.send(env.clone());
        assert_eq!(t.poll(), Some((0.1, env)));
    }

    /// Over one scalar per-client round the wave of check-ins rides the
    /// queue's in-order lane and each reply lands just ahead of it: the heap
    /// never holds more than the one reply in flight, however deep the
    /// queue gets.
    #[test]
    fn a_scalar_round_keeps_at_most_one_entry_in_the_queue_heap() {
        use crate::builder::RoundBuilder;
        use fednum_core::encoding::FixedPointCodec;
        use fednum_core::protocol::basic::BasicConfig;
        use fednum_core::sampling::BitSampling;
        use fednum_fedsim::round::FederatedMeanConfig;

        struct Probe {
            inner: InMemoryTransport,
            peak_heap: usize,
            peak_len: usize,
        }
        impl Transport for Probe {
            fn send(&mut self, env: Envelope) {
                self.inner.send(env);
                self.peak_heap = self.peak_heap.max(self.inner.queue.heap_len());
                self.peak_len = self.peak_len.max(self.inner.queue.len());
            }
            fn poll(&mut self) -> Option<(f64, Envelope)> {
                self.inner.poll()
            }
            fn peek_time(&self) -> Option<f64> {
                self.inner.peek_time()
            }
            fn idle(&self) -> bool {
                self.inner.idle()
            }
        }

        let n = 5_000;
        let values: Vec<f64> = (0..n).map(|i| (i % 64) as f64).collect();
        let cfg = FederatedMeanConfig::new(BasicConfig::new(
            FixedPointCodec::integer(6),
            BitSampling::geometric(6, 1.0),
        ));
        let mut probe = Probe {
            inner: InMemoryTransport::new(5),
            peak_heap: 0,
            peak_len: 0,
        };
        RoundBuilder::new(cfg)
            .seed(5)
            .via(&mut probe)
            .run(&values)
            .unwrap();
        assert!(probe.peak_len >= n, "the queue held {}", probe.peak_len);
        assert!(probe.peak_heap <= 1, "the heap held {}", probe.peak_heap);
    }
}
