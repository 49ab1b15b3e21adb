//! The participant side of the fleet protocol.
//!
//! [`ClientSession`] is the pure per-participant state machine — frames
//! in, frames out, time injected — driven by the `fednumc` binary (one
//! session on a blocking socket) and by the benchmark's live-fleet load
//! generator. Keeping the protocol logic I/O-free means every driver and
//! the unit tests exercise the same code path.

use fednum_core::wire::{self, FleetMessage};

use crate::tcp::Ctrl;

use super::client_value;

/// How (whether) a participant misbehaves — the seeded fault injection
/// the e2e suite and the CI smoke use to prove the salvage path works.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailMode {
    /// Honest participant.
    #[default]
    None,
    /// Exits the process (hangs up) the moment it receives a cohort
    /// assignment: exercises hangup salvage.
    ExitOnAssign,
    /// Goes silent (no report, no further heartbeats) on assignment:
    /// exercises heartbeat-detected salvage.
    MuteOnAssign,
}

impl std::str::FromStr for FailMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(Self::None),
            "assign" => Ok(Self::ExitOnAssign),
            "mute" => Ok(Self::MuteOnAssign),
            other => Err(format!(
                "unknown fail mode {other:?} (expected none|assign|mute)"
            )),
        }
    }
}

/// One participant's protocol state machine.
#[derive(Debug)]
pub struct ClientSession {
    client_id: u64,
    fail: FailMode,
    token: Option<u64>,
    heartbeat_ms: u64,
    next_beat_ms: u64,
    seq: u64,
    muted: bool,
    should_exit: bool,
    finished: bool,
    reports_sent: u64,
    rounds_done: u64,
    /// The assignment the last report answered — the key the retransmit
    /// path matches re-issued `CohortAssign`s against.
    last_assign: Option<(u64, u32)>,
    /// The last report frame produced, kept verbatim for retransmission
    /// until acknowledged (the daemon's dedup makes resending it safe).
    last_report: Option<FleetMessage>,
    last_report_acked: bool,
    report_acks: u64,
    retransmits: u64,
    /// Between [`reconnect_frame`](Self::reconnect_frame) and the next
    /// `RendezvousAck`: heartbeats are suppressed because the coordinator
    /// has not bound this connection to the session yet.
    awaiting_ack: bool,
    busy_hint_ms: Option<u64>,
}

impl ClientSession {
    /// A fresh session plus the rendezvous frame to open with.
    #[must_use]
    pub fn new(client_id: u64, fail: FailMode) -> (Self, FleetMessage) {
        (
            Self {
                client_id,
                fail,
                token: None,
                heartbeat_ms: 0,
                next_beat_ms: 0,
                seq: 0,
                muted: false,
                should_exit: false,
                finished: false,
                reports_sent: 0,
                rounds_done: 0,
                last_assign: None,
                last_report: None,
                last_report_acked: false,
                report_acks: 0,
                retransmits: 0,
                awaiting_ack: true,
                busy_hint_ms: None,
            },
            FleetMessage::Rendezvous {
                client_id,
                capabilities: 0,
            },
        )
    }

    /// The frame to open a *replacement* connection with after a network
    /// fault: a `Resume` carrying the session token and the report-ack
    /// nonce when a prior rendezvous established one, the plain
    /// `Rendezvous` otherwise (the coordinator rebinds either way).
    /// Heartbeats are suppressed until the new connection's
    /// `RendezvousAck` lands.
    pub fn reconnect_frame(&mut self) -> FleetMessage {
        self.awaiting_ack = true;
        match self.token {
            Some(session_token) => FleetMessage::Resume {
                client_id: self.client_id,
                session_token,
                report_nonce: self.report_acks,
            },
            None => FleetMessage::Rendezvous {
                client_id: self.client_id,
                capabilities: 0,
            },
        }
    }

    /// Handles one downlink frame, returning the frames to send back.
    pub fn on_frame(&mut self, msg: &FleetMessage, now_ms: u64) -> Vec<FleetMessage> {
        match *msg {
            FleetMessage::RendezvousAck {
                session_token,
                heartbeat_ms,
                ..
            } => {
                self.token = Some(session_token);
                self.heartbeat_ms = heartbeat_ms;
                self.next_beat_ms = now_ms.saturating_add(heartbeat_ms);
                self.awaiting_ack = false;
                // A report in flight when the old connection died may
                // never have arrived: retransmit it. The daemon dedups,
                // so this can only heal, never double-count.
                match (&self.last_report, self.last_report_acked) {
                    (Some(report), false) => {
                        self.retransmits += 1;
                        vec![*report]
                    }
                    _ => Vec::new(),
                }
            }
            FleetMessage::CohortAssign {
                round,
                bit_index,
                bits,
                value_seed,
                ..
            } => match self.fail {
                FailMode::ExitOnAssign => {
                    self.should_exit = true;
                    Vec::new()
                }
                FailMode::MuteOnAssign => {
                    self.muted = true;
                    Vec::new()
                }
                FailMode::None => {
                    let (Some(token), true) = (self.token, (1..=52).contains(&bits)) else {
                        // Malformed assignment (or one before the ack):
                        // ignore rather than fabricate a report.
                        return Vec::new();
                    };
                    if self.last_assign == Some((round, bit_index)) {
                        // A re-issued (resume) or duplicated assignment
                        // for a slot already answered: resend the same
                        // report if it is still unacknowledged, and never
                        // count it as a fresh report.
                        return match (&self.last_report, self.last_report_acked) {
                            (Some(report), false) => {
                                self.retransmits += 1;
                                vec![*report]
                            }
                            _ => Vec::new(),
                        };
                    }
                    let value = client_value(value_seed, self.client_id, bits);
                    let bit = (value >> bit_index) & 1 == 1;
                    let report = FleetMessage::Report {
                        session_token: token,
                        round,
                        bit_index,
                        bit,
                    };
                    self.last_assign = Some((round, bit_index));
                    self.last_report = Some(report);
                    self.last_report_acked = false;
                    self.reports_sent += 1;
                    vec![report]
                }
            },
            FleetMessage::ReportAck { .. } => {
                if !self.last_report_acked && self.last_report.is_some() {
                    self.last_report_acked = true;
                    self.report_acks += 1;
                }
                Vec::new()
            }
            FleetMessage::Busy { retry_after_ms } => {
                // The coordinator is shedding load; note the hint for
                // whoever drives the reconnect schedule.
                self.busy_hint_ms = Some(retry_after_ms);
                Vec::new()
            }
            FleetMessage::Done { rounds } => {
                self.finished = true;
                self.rounds_done = rounds;
                // Acknowledge the dismissal so the coordinator can retire
                // this registration promptly instead of holding it open
                // for the resume grace window. A session dismissed before
                // it ever saw its RendezvousAck has no token to prove
                // itself with — it just hangs up, and the coordinator was
                // not waiting on it anyway.
                match self.token {
                    Some(session_token) => vec![FleetMessage::DoneAck { session_token }],
                    None => Vec::new(),
                }
            }
            FleetMessage::HeartbeatAck { .. } | FleetMessage::CohortWait { .. } => Vec::new(),
            // Uplink frames never arrive on the downlink; ignore rather
            // than crash a fleet of processes on a buggy coordinator.
            _ => Vec::new(),
        }
    }

    /// Advances the heartbeat clock, returning any beat now due. Muted
    /// and finished sessions stop beating — going silent is exactly what
    /// `MuteOnAssign` is for.
    pub fn tick(&mut self, now_ms: u64) -> Vec<FleetMessage> {
        let Some(token) = self.token else {
            return Vec::new();
        };
        if self.muted
            || self.finished
            || self.awaiting_ack
            || self.heartbeat_ms == 0
            || now_ms < self.next_beat_ms
        {
            return Vec::new();
        }
        self.next_beat_ms = now_ms.saturating_add(self.heartbeat_ms);
        self.seq += 1;
        vec![FleetMessage::Heartbeat {
            session_token: token,
            seq: self.seq,
        }]
    }

    /// Whether the coordinator dismissed the fleet (`Done` received).
    #[must_use]
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Whether the session decided to hang up (`ExitOnAssign` fired).
    #[must_use]
    pub fn should_exit(&self) -> bool {
        self.should_exit
    }

    /// Whether the session went silent (`MuteOnAssign` fired).
    #[must_use]
    pub fn muted(&self) -> bool {
        self.muted
    }

    /// The participant id this session speaks for.
    #[must_use]
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    /// Reports sent so far (retransmissions excluded).
    #[must_use]
    pub fn reports_sent(&self) -> u64 {
        self.reports_sent
    }

    /// Reports the coordinator has acknowledged.
    #[must_use]
    pub fn report_acks(&self) -> u64 {
        self.report_acks
    }

    /// Report frames resent across reconnects or duplicated assignments.
    #[must_use]
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Takes the latest `Busy` retry hint, if one arrived since the last
    /// call — the reconnect scheduler folds it into the backoff delay.
    pub fn take_busy_hint(&mut self) -> Option<u64> {
        self.busy_hint_ms.take()
    }

    /// Rounds the coordinator announced in its `Done` dismissal.
    #[must_use]
    pub fn rounds_done(&self) -> u64 {
        self.rounds_done
    }
}

/// Deterministic capped exponential backoff with seeded jitter for
/// reconnect `attempt` (1-based): the delay lands in
/// `[ceiling / 2, ceiling)` where `ceiling = min(base_ms << (attempt-1),
/// cap_ms)`. The jitter is a pure function of `(client_id, attempt)`, so
/// a fleet knocked over together fans its reconnects out instead of
/// stampeding the coordinator — and every run of a seeded chaos test
/// reproduces the same schedule.
#[must_use]
pub fn backoff_ms(client_id: u64, attempt: u32, base_ms: u64, cap_ms: u64) -> u64 {
    let shift = attempt.saturating_sub(1).min(20);
    let ceiling = base_ms
        .saturating_mul(1u64 << shift)
        .min(cap_ms.max(1))
        .max(1);
    let jitter = super::splitmix64(client_id ^ 0x00BA_C0FF ^ u64::from(attempt)) % ceiling;
    ceiling / 2 + jitter / 2
}

/// Encodes a fleet frame the way the daemon expects it on the wire: a
/// length-prefixed frame whose payload is the `Ctrl::Fleet` control tag
/// plus the canonical [`FleetMessage`] bytes. Public so the `fednumc`
/// binary (a separate crate) can speak the protocol without re-deriving
/// the control-tag framing.
pub fn push_fleet_frame(out: &mut Vec<u8>, msg: FleetMessage) {
    let payload = Ctrl::Fleet(msg).encode();
    wire::write_frame(out, &payload).expect("writing to a Vec cannot fail under MAX_FRAME_LEN");
}

/// Decodes one control-frame payload into a fleet message. `None` when
/// the payload is not a (valid) fleet frame — for a participant that is
/// a coordinator protocol violation, handled by hanging up.
#[must_use]
pub fn decode_fleet_frame(payload: &[u8]) -> Option<FleetMessage> {
    match Ctrl::decode(payload) {
        Ok(Ctrl::Fleet(msg)) => Some(msg),
        _ => None,
    }
}

/// The ceiling `fednumc` puts on a single [`backoff_ms`] reconnect delay.
pub const BACKOFF_CAP_MS: u64 = 2_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_walks_the_happy_path() {
        let (mut session, hello) = ClientSession::new(7, FailMode::None);
        assert!(matches!(
            hello,
            FleetMessage::Rendezvous { client_id: 7, .. }
        ));
        assert!(session.tick(0).is_empty(), "no beats before the ack");
        session.on_frame(
            &FleetMessage::RendezvousAck {
                session_token: 99,
                heartbeat_ms: 100,
                liveness_ms: 500,
            },
            0,
        );
        // First beat falls due one interval after the ack.
        assert!(session.tick(50).is_empty());
        let beats = session.tick(100);
        assert_eq!(
            beats,
            vec![FleetMessage::Heartbeat {
                session_token: 99,
                seq: 1
            }]
        );
        assert!(session.tick(150).is_empty(), "rescheduled, not spamming");
        // An assignment produces the true bit of the seeded value.
        let value = client_value(11, 7, 8);
        let replies = session.on_frame(
            &FleetMessage::CohortAssign {
                round: 0,
                bit_index: 3,
                bits: 8,
                value_seed: 11,
                deadline_ms: 1000,
            },
            200,
        );
        assert_eq!(
            replies,
            vec![FleetMessage::Report {
                session_token: 99,
                round: 0,
                bit_index: 3,
                bit: (value >> 3) & 1 == 1,
            }]
        );
        assert_eq!(session.reports_sent(), 1);
        session.on_frame(&FleetMessage::Done { rounds: 2 }, 300);
        assert!(session.finished());
        assert_eq!(session.rounds_done(), 2);
        assert!(
            session.tick(400).is_empty(),
            "dismissed sessions stop beating"
        );
    }

    #[test]
    fn fail_modes_fire_on_assignment() {
        let assign = FleetMessage::CohortAssign {
            round: 0,
            bit_index: 0,
            bits: 8,
            value_seed: 0,
            deadline_ms: 1000,
        };
        let ack = FleetMessage::RendezvousAck {
            session_token: 1,
            heartbeat_ms: 100,
            liveness_ms: 500,
        };
        let (mut exits, _) = ClientSession::new(1, FailMode::ExitOnAssign);
        exits.on_frame(&ack, 0);
        assert!(exits.on_frame(&assign, 10).is_empty());
        assert!(exits.should_exit());
        let (mut mutes, _) = ClientSession::new(2, FailMode::MuteOnAssign);
        mutes.on_frame(&ack, 0);
        assert!(mutes.on_frame(&assign, 10).is_empty());
        assert!(mutes.muted());
        assert!(
            mutes.tick(10_000).is_empty(),
            "muted sessions never beat again"
        );
    }

    #[test]
    fn fail_mode_parses() {
        assert_eq!("none".parse::<FailMode>().unwrap(), FailMode::None);
        assert_eq!(
            "assign".parse::<FailMode>().unwrap(),
            FailMode::ExitOnAssign
        );
        assert_eq!("mute".parse::<FailMode>().unwrap(), FailMode::MuteOnAssign);
        assert!("explode".parse::<FailMode>().is_err());
    }

    #[test]
    fn resume_frame_carries_the_token_and_report_nonce() {
        let (mut session, _) = ClientSession::new(7, FailMode::None);
        // Before any rendezvous succeeded there is nothing to resume.
        assert!(matches!(
            session.reconnect_frame(),
            FleetMessage::Rendezvous { client_id: 7, .. }
        ));
        session.on_frame(
            &FleetMessage::RendezvousAck {
                session_token: 99,
                heartbeat_ms: 100,
                liveness_ms: 500,
            },
            0,
        );
        session.on_frame(
            &FleetMessage::CohortAssign {
                round: 0,
                bit_index: 2,
                bits: 8,
                value_seed: 11,
                deadline_ms: 1000,
            },
            10,
        );
        session.on_frame(&FleetMessage::ReportAck { round: 0 }, 20);
        assert_eq!(
            session.reconnect_frame(),
            FleetMessage::Resume {
                client_id: 7,
                session_token: 99,
                report_nonce: 1,
            }
        );
        // Heartbeats stay suppressed until the replacement connection is
        // acknowledged — the daemon has no conn bound to the session yet.
        assert!(session.tick(10_000).is_empty());
        session.on_frame(
            &FleetMessage::RendezvousAck {
                session_token: 99,
                heartbeat_ms: 100,
                liveness_ms: 500,
            },
            10_000,
        );
        assert_eq!(session.tick(10_100).len(), 1, "beats resume after ack");
    }

    #[test]
    fn unacked_reports_are_retransmitted_never_recounted() {
        let (mut session, _) = ClientSession::new(3, FailMode::None);
        let ack = FleetMessage::RendezvousAck {
            session_token: 42,
            heartbeat_ms: 100,
            liveness_ms: 500,
        };
        let assign = FleetMessage::CohortAssign {
            round: 1,
            bit_index: 5,
            bits: 8,
            value_seed: 9,
            deadline_ms: 1000,
        };
        session.on_frame(&ack, 0);
        let first = session.on_frame(&assign, 10);
        assert_eq!(first.len(), 1);
        assert_eq!(session.reports_sent(), 1);
        // Connection dies before the ReportAck; the replacement ack
        // triggers a retransmit of the very same frame.
        session.reconnect_frame();
        assert_eq!(session.on_frame(&ack, 200), first);
        // A re-issued assignment for the same slot resends too.
        assert_eq!(session.on_frame(&assign, 210), first);
        assert_eq!(session.reports_sent(), 1, "retransmits are not reports");
        assert_eq!(session.retransmits(), 2);
        // Once acknowledged, duplicates of the assignment go unanswered.
        session.on_frame(&FleetMessage::ReportAck { round: 1 }, 220);
        assert!(session.on_frame(&assign, 230).is_empty());
        assert_eq!(session.report_acks(), 1);
    }

    #[test]
    fn busy_hints_are_surfaced_once() {
        let (mut session, _) = ClientSession::new(1, FailMode::None);
        assert!(session
            .on_frame(
                &FleetMessage::Busy {
                    retry_after_ms: 250
                },
                0
            )
            .is_empty());
        assert_eq!(session.take_busy_hint(), Some(250));
        assert_eq!(session.take_busy_hint(), None);
    }

    #[test]
    fn backoff_is_deterministic_jittered_and_capped() {
        let first = backoff_ms(7, 1, 50, 2_000);
        assert_eq!(first, backoff_ms(7, 1, 50, 2_000), "pure function");
        assert!(
            (25..50).contains(&first),
            "attempt 1 lands in [base/2, base)"
        );
        let late = backoff_ms(7, 12, 50, 2_000);
        assert!(
            (1_000..2_000).contains(&late),
            "deep attempts saturate at [cap/2, cap), got {late}"
        );
        assert_ne!(
            backoff_ms(1, 3, 50, 2_000),
            backoff_ms(2, 3, 50, 2_000),
            "different clients jitter apart"
        );
    }

    #[test]
    fn malformed_assignments_are_ignored() {
        let (mut session, _) = ClientSession::new(1, FailMode::None);
        // Assignment before the rendezvous ack: no token, no report.
        assert!(session
            .on_frame(
                &FleetMessage::CohortAssign {
                    round: 0,
                    bit_index: 0,
                    bits: 8,
                    value_seed: 0,
                    deadline_ms: 1
                },
                0
            )
            .is_empty());
        session.on_frame(
            &FleetMessage::RendezvousAck {
                session_token: 1,
                heartbeat_ms: 100,
                liveness_ms: 500,
            },
            0,
        );
        // Out-of-domain bit width: ignored.
        assert!(session
            .on_frame(
                &FleetMessage::CohortAssign {
                    round: 0,
                    bit_index: 0,
                    bits: 60,
                    value_seed: 0,
                    deadline_ms: 1
                },
                0
            )
            .is_empty());
        assert_eq!(session.reports_sent(), 0);
    }
}
