//! [`TcpTransport`]: the [`Transport`] trait over a real TCP socket.
//!
//! Every envelope a session sends is framed (length-delimited
//! `core::wire` frames), written to a live socket, decoded and
//! fault-staged by the [`daemon`](crate::daemon) on the far side, and
//! echoed back as the scheduled deliveries the stage produced. The split
//! of responsibilities is deliberate:
//!
//! * **the daemon decides** — framing, codec validation, the per-session
//!   [`SimNetTransport`] fault stage (straggle / corrupt / duplicate /
//!   replay with the replay register), read/idle timeouts, and wire
//!   metrics; its one `Deliveries` echo per frame is the authoritative
//!   outcome of that frame;
//! * **the driver predicts and checks** — it runs the same stage, built by
//!   [`SimNetTransport::with_plan`] from the same parameters (the
//!   handshake, every fresh round admission, every reconnect), feeds it
//!   each frame in write order, and schedules the predicted deliveries at
//!   once on the same seeded [`EventQueue`] that backs
//!   [`InMemoryTransport`](crate::net::InMemoryTransport), so tie-breaks,
//!   FIFO-per-stream order, and therefore the published estimate are
//!   bit-identical to an in-process run under the same seed. Each
//!   predicted echo is kept encoded, and every echo read off the socket
//!   must equal it byte for byte.
//!
//! **Parity contract.** For any session, `TcpTransport::connect(addr,
//! seed)` is observationally identical to `InMemoryTransport::new(seed)`,
//! and [`TcpTransport::connect_for_config`] to
//! [`SimNetTransport::for_config`] — every frame genuinely crosses the
//! socket (encoded, fragmented by the kernel, reassembled, decoded,
//! fault-staged, re-encoded) and its echo is checked against the
//! prediction, so a round either carries the same payloads at the same
//! virtual times in the same order or fails. The `tcp_parity` suite pins
//! this across plain, secagg, salvage, and hierarchical rounds. The
//! contract covers every envelope whose payload is at most
//! [`MAX_ENVELOPE_PAYLOAD`] bytes, the largest whose echo still fits one
//! frame; a longer one fails the session with a typed
//! [`FedError::Transport`] that names the cap, before any byte of it is
//! written, where the in-memory transports would deliver it.
//!
//! **Failure semantics.** The [`Transport`] call surface is infallible, so
//! socket errors (including read timeouts) and echoes that are missing,
//! surplus, or differ from the prediction are recorded internally: every
//! delivery still queued and every owed echo is dropped, the session
//! drains as if the network went silent, and the driver surfaces the typed
//! [`FedError::Transport`] via [`Transport::take_error`] — the
//! [`RoundBuilder`](crate::builder::RoundBuilder) does this automatically.
//! Deliveries are handed out before their echo arrives, but no session can
//! end on an unchecked one: `poll` and `peek_time` cannot report an empty
//! timeline, nor `idle` a drained one, until every echo has been verified.
//!
//! **Pipelining.** Nothing waits on the daemon per event, and nothing
//! touches the socket per delivery. Frames are framed in place into one
//! send buffer and written in batches; the driver blocks only once
//! `SYNC_BYTES`/`SYNC_FRAMES` worth of echoes are unverified (a window
//! whose echoes stay far below the daemon's per-connection output bound),
//! when its local timeline runs empty, and in the request/reply exchanges
//! (campaign control and `close`). In between, at the first read of the
//! timeline and then once every `TAKE_IN_EVERY` handed-out deliveries, it
//! takes in, with one zero-timeout poll, whatever echoes the socket
//! already holds. Echoes are checked as raw bytes against the predicted
//! ones, kept framed in one buffer. One blocking round trip therefore
//! covers thousands of frames (measured by the `tcp_campaign` workload
//! of `benchmark/`).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use fednum_core::wire::{
    self, push_f64, read_f64, read_varint, CampaignMessage, FleetMessage, FrameDecoder, WireError,
};
use fednum_fedsim::error::FedError;
use fednum_fedsim::faults::{FaultPlan, FaultRates};
use fednum_fedsim::round::FederatedMeanConfig;

use crate::net::{Envelope, SimNetTransport, Transport, WireMetrics, MAX_ENVELOPE_PAYLOAD};
use crate::reactor::{self, PollFd, INTEREST_READ};
use crate::scheduler::EventQueue;

/// Wire-protocol version carried in the session handshake.
pub const PROTOCOL_VERSION: u64 = 1;

/// Flush-and-drain once this many encoded bytes were written since the
/// last drain. An echo is its request plus a delivery time and a count,
/// or about twice that when the fault stage duplicates; so the daemon's
/// unread echoes stay far below its per-connection output bound
/// ([`DaemonConfig::max_conn_buffer`](crate::daemon::DaemonConfig)).
const SYNC_BYTES: usize = 128 * 1024;
/// Flush-and-drain once this many echoes are owed and unverified.
const SYNC_FRAMES: usize = 4096;
/// Framed sends are written to the socket once this many bytes are
/// buffered (and at every drain and request).
const WRITE_BUFFER: usize = 64 * 1024;

/// Handed-out deliveries between two non-blocking take-ins of echoes.
const TAKE_IN_EVERY: usize = 64;

/// Bytes taken off the socket per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// Default driver-side read timeout: how long a poll waits on the daemon
/// before the session aborts with [`FedError::Transport`].
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

// ---------------------------------------------------------------------------
// Control codec: the frames that cross the driver ↔ daemon socket.
// ---------------------------------------------------------------------------

const TAG_HELLO: u8 = 0x01;
const TAG_ENV: u8 = 0x02;
const TAG_WINDOW: u8 = 0x03;
const TAG_REDELIVER: u8 = 0x04;
const TAG_CLOSE: u8 = 0x05;
const TAG_SHUTDOWN: u8 = 0x06;
const TAG_CAMPAIGN: u8 = 0x07;
const TAG_ROUND_REQUEST: u8 = 0x08;
const TAG_ROUND_COMMIT: u8 = 0x09;
const TAG_HELLO_ACK: u8 = 0x11;
const TAG_DELIVERIES: u8 = 0x12;
const TAG_STATS: u8 = 0x13;
const TAG_SHUTDOWN_ACK: u8 = 0x14;
const TAG_CAMPAIGN_ACK: u8 = 0x15;
const TAG_ROUND_ADMIT: u8 = 0x16;
const TAG_ROUND_COMMITTED: u8 = 0x17;
const TAG_CAMPAIGN_ERR: u8 = 0x18;
/// Fleet frames travel both directions under one tag; the embedded
/// [`FleetMessage`] carries its own variant tag and direction.
const TAG_FLEET: u8 = 0x20;

/// Session parameters a driver hands the daemon at connect time — enough
/// for the daemon to rebuild the driver's wire-fault stage exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SessionHello {
    pub(crate) version: u64,
    pub(crate) seed: u64,
    pub(crate) round_id: u64,
    pub(crate) validate: bool,
    pub(crate) faults: Option<FaultPlan>,
}

/// Per-connection wire totals the daemon reports back on `Close`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Envelope frames the daemon accepted from this driver.
    pub frames_in: u64,
    /// Delivery frames the daemon echoed back.
    pub frames_out: u64,
    /// Encoded bytes received by the daemon, framing included.
    pub bytes_in: u64,
    /// Encoded bytes sent by the daemon, framing included.
    pub bytes_out: u64,
}

/// A control frame of the driver ↔ daemon protocol.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Ctrl {
    Hello(SessionHello),
    /// An envelope for the fault stage (driver → daemon).
    Env(Envelope),
    /// A collection window announcement (no response).
    Window {
        start: f64,
        deadline: f64,
    },
    /// A parked frame re-admitted verbatim, bypassing the fault stage.
    Redeliver(Envelope),
    Close,
    Shutdown,
    /// Opens (or resumes) a longitudinal campaign on this connection.
    Campaign(CampaignMessage),
    /// Asks the campaign scheduler to admit `round`: eligible `clients`
    /// are charged into the daemon's write-ahead log before the reply, and
    /// the daemon re-arms its fault stage with `net_seed`/`round_id` so
    /// the round replays on a fresh deterministic clock.
    RoundRequest {
        round: u64,
        net_seed: u64,
        round_id: u64,
        clients: Vec<u64>,
    },
    /// The round's result was accepted; fold its staged charges.
    RoundCommit {
        round: u64,
    },
    HelloAck {
        session_id: u64,
    },
    /// Scheduled deliveries for exactly one `Env`/`Redeliver` frame.
    Deliveries(Vec<(f64, Envelope)>),
    Stats(SessionStats),
    ShutdownAck,
    /// The daemon's authoritative campaign position (resume point).
    CampaignAck {
        round_index: u64,
        clients: u64,
        total_bits: u64,
        digest: u64,
    },
    /// The admission verdict for one `RoundRequest`.
    RoundAdmit {
        round: u64,
        admitted: Vec<u64>,
        denied_budget: u64,
        denied_cooldown: u64,
        already_committed: bool,
    },
    /// Receipt for one `RoundCommit` (idempotent on replays).
    RoundCommitted {
        round: u64,
        clients_charged: u64,
        digest: u64,
    },
    /// A campaign operation was rejected; the connection stays usable.
    CampaignErr {
        code: u64,
        detail: String,
    },
    /// A fleet-protocol frame (either direction; see
    /// [`FleetMessage::is_uplink`]). A connection whose first frame is
    /// `Fleet(Rendezvous)` becomes a fleet participant connection.
    Fleet(FleetMessage),
}

/// An envelope as a control frame carries it, its payload borrowed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EnvRef<'a> {
    pub(crate) from: u64,
    pub(crate) to: u64,
    pub(crate) sent_at: f64,
    pub(crate) payload: &'a [u8],
}

impl<'a> From<&'a Envelope> for EnvRef<'a> {
    fn from(env: &'a Envelope) -> Self {
        Self {
            from: env.from,
            to: env.to,
            sent_at: env.sent_at,
            payload: &env.payload,
        }
    }
}

impl EnvRef<'_> {
    pub(crate) fn to_envelope(self) -> Envelope {
        Envelope {
            from: self.from,
            to: self.to,
            sent_at: self.sent_at,
            payload: self.payload.to_vec(),
        }
    }
}

fn push_env(out: &mut Vec<u8>, env: EnvRef<'_>) {
    wire::push_varint(out, env.from);
    wire::push_varint(out, env.to);
    push_f64(out, env.sent_at);
    wire::push_varint(out, env.payload.len() as u64);
    out.extend_from_slice(env.payload);
}

fn read_env<'a>(buf: &'a [u8], pos: &mut usize) -> Result<EnvRef<'a>, WireError> {
    let from = read_varint(buf, pos)?;
    let to = read_varint(buf, pos)?;
    let sent_at = read_f64(buf, pos)?;
    let len = usize::try_from(read_varint(buf, pos)?).map_err(|_| WireError::Truncated)?;
    Ok(EnvRef {
        from,
        to,
        sent_at,
        payload: wire::read_bytes(buf, pos, len)?,
    })
}

/// The envelope of a well-formed `Env` frame, borrowed from it; `None` for
/// any other frame, which [`Ctrl::decode`] then judges.
pub(crate) fn env_frame(frame: &[u8]) -> Option<EnvRef<'_>> {
    if frame.first() != Some(&TAG_ENV) {
        return None;
    }
    let mut pos = 1;
    let env = read_env(frame, &mut pos).ok()?;
    (pos == frame.len()).then_some(env)
}

/// Rate fields in a fixed wire order (must match [`decode_rates`]).
fn rate_fields(r: &FaultRates) -> [f64; 7] {
    [
        r.drop_before_report,
        r.drop_before_unmask,
        r.straggle,
        r.corrupt_bit,
        r.duplicate,
        r.replay,
        r.stale_round,
    ]
}

fn decode_rates(buf: &[u8], pos: &mut usize) -> Result<FaultRates, WireError> {
    let mut vals = [0f64; 7];
    for v in &mut vals {
        *v = read_f64(buf, pos)?;
    }
    Ok(FaultRates {
        drop_before_report: vals[0],
        drop_before_unmask: vals[1],
        straggle: vals[2],
        corrupt_bit: vals[3],
        duplicate: vals[4],
        replay: vals[5],
        stale_round: vals[6],
    })
}

fn push_u64_list(out: &mut Vec<u8>, items: &[u64]) {
    wire::push_varint(out, items.len() as u64);
    for &v in items {
        wire::push_varint(out, v);
    }
}

fn read_u64_list(buf: &[u8], pos: &mut usize) -> Result<Vec<u64>, WireError> {
    let count = usize::try_from(read_varint(buf, pos)?).map_err(|_| WireError::Truncated)?;
    // Each entry is at least one byte; an absurd count cannot be backed by
    // the remaining buffer.
    if count > buf.len().saturating_sub(*pos) {
        return Err(WireError::Truncated);
    }
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        items.push(read_varint(buf, pos)?);
    }
    Ok(items)
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    wire::push_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn read_str(buf: &[u8], pos: &mut usize) -> Result<String, WireError> {
    let len = usize::try_from(read_varint(buf, pos)?).map_err(|_| WireError::Truncated)?;
    if len > buf.len().saturating_sub(*pos) {
        return Err(WireError::Truncated);
    }
    let bytes = wire::read_bytes(buf, pos, len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidField("error detail utf-8"))
}

/// The payload of a `Deliveries` frame, encoded from borrowed envelopes so
/// an echo can be framed without first building a [`Ctrl`] or an
/// [`Envelope`].
pub(crate) fn push_deliveries<'a>(
    out: &mut Vec<u8>,
    items: impl ExactSizeIterator<Item = (f64, EnvRef<'a>)>,
) {
    out.push(TAG_DELIVERIES);
    wire::push_varint(out, items.len() as u64);
    for (at, env) in items {
        push_f64(out, at);
        push_env(out, env);
    }
}

/// The items of owned deliveries, as [`push_deliveries`] takes them.
pub(crate) fn delivery_refs(
    items: &[(f64, Envelope)],
) -> impl ExactSizeIterator<Item = (f64, EnvRef<'_>)> {
    items.iter().map(|(at, env)| (*at, env.into()))
}

impl Ctrl {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        self.encode_into(&mut out);
        out
    }

    /// Appends the frame payload to `out`, so a caller can frame it in
    /// place (see [`wire::push_frame_with`]).
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Ctrl::Hello(h) => {
                out.push(TAG_HELLO);
                wire::push_varint(out, h.version);
                wire::push_varint(out, h.seed);
                wire::push_varint(out, h.round_id);
                out.push(u8::from(h.validate));
                match &h.faults {
                    Some(plan) => {
                        out.push(1);
                        for v in rate_fields(&plan.rates()) {
                            push_f64(out, v);
                        }
                        wire::push_varint(out, plan.seed());
                    }
                    None => out.push(0),
                }
            }
            Ctrl::Env(env) => {
                out.push(TAG_ENV);
                push_env(out, env.into());
            }
            Ctrl::Window { start, deadline } => {
                out.push(TAG_WINDOW);
                push_f64(out, *start);
                push_f64(out, *deadline);
            }
            Ctrl::Redeliver(env) => {
                out.push(TAG_REDELIVER);
                push_env(out, env.into());
            }
            Ctrl::Close => out.push(TAG_CLOSE),
            Ctrl::Shutdown => out.push(TAG_SHUTDOWN),
            Ctrl::Campaign(msg) => {
                out.push(TAG_CAMPAIGN);
                msg.encode_into(out);
            }
            Ctrl::RoundRequest {
                round,
                net_seed,
                round_id,
                clients,
            } => {
                out.push(TAG_ROUND_REQUEST);
                wire::push_varint(out, *round);
                wire::push_varint(out, *net_seed);
                wire::push_varint(out, *round_id);
                push_u64_list(out, clients);
            }
            Ctrl::RoundCommit { round } => {
                out.push(TAG_ROUND_COMMIT);
                wire::push_varint(out, *round);
            }
            Ctrl::CampaignAck {
                round_index,
                clients,
                total_bits,
                digest,
            } => {
                out.push(TAG_CAMPAIGN_ACK);
                wire::push_varint(out, *round_index);
                wire::push_varint(out, *clients);
                wire::push_varint(out, *total_bits);
                wire::push_varint(out, *digest);
            }
            Ctrl::RoundAdmit {
                round,
                admitted,
                denied_budget,
                denied_cooldown,
                already_committed,
            } => {
                out.push(TAG_ROUND_ADMIT);
                wire::push_varint(out, *round);
                push_u64_list(out, admitted);
                wire::push_varint(out, *denied_budget);
                wire::push_varint(out, *denied_cooldown);
                out.push(u8::from(*already_committed));
            }
            Ctrl::RoundCommitted {
                round,
                clients_charged,
                digest,
            } => {
                out.push(TAG_ROUND_COMMITTED);
                wire::push_varint(out, *round);
                wire::push_varint(out, *clients_charged);
                wire::push_varint(out, *digest);
            }
            Ctrl::CampaignErr { code, detail } => {
                out.push(TAG_CAMPAIGN_ERR);
                wire::push_varint(out, *code);
                push_str(out, detail);
            }
            Ctrl::HelloAck { session_id } => {
                out.push(TAG_HELLO_ACK);
                wire::push_varint(out, *session_id);
            }
            Ctrl::Deliveries(items) => push_deliveries(out, delivery_refs(items)),
            Ctrl::Stats(s) => {
                out.push(TAG_STATS);
                wire::push_varint(out, s.frames_in);
                wire::push_varint(out, s.frames_out);
                wire::push_varint(out, s.bytes_in);
                wire::push_varint(out, s.bytes_out);
            }
            Ctrl::ShutdownAck => out.push(TAG_SHUTDOWN_ACK),
            Ctrl::Fleet(msg) => {
                out.push(TAG_FLEET);
                msg.encode_into(out);
            }
        }
    }

    pub(crate) fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut pos = 0usize;
        let &tag = buf.first().ok_or(WireError::Truncated)?;
        pos += 1;
        let msg = match tag {
            TAG_HELLO => {
                let version = read_varint(buf, &mut pos)?;
                let seed = read_varint(buf, &mut pos)?;
                let round_id = read_varint(buf, &mut pos)?;
                let validate = *wire::read_bytes(buf, &mut pos, 1)?.first().unwrap() != 0;
                let has_faults = *wire::read_bytes(buf, &mut pos, 1)?.first().unwrap();
                let faults = match has_faults {
                    0 => None,
                    1 => {
                        let rates = decode_rates(buf, &mut pos)?;
                        let fseed = read_varint(buf, &mut pos)?;
                        Some(
                            FaultPlan::new(rates, fseed)
                                .map_err(|_| WireError::InvalidField("fault rates"))?,
                        )
                    }
                    _ => return Err(WireError::InvalidField("faults flag")),
                };
                Ctrl::Hello(SessionHello {
                    version,
                    seed,
                    round_id,
                    validate,
                    faults,
                })
            }
            TAG_ENV => Ctrl::Env(read_env(buf, &mut pos)?.to_envelope()),
            TAG_WINDOW => Ctrl::Window {
                start: read_f64(buf, &mut pos)?,
                deadline: read_f64(buf, &mut pos)?,
            },
            TAG_REDELIVER => Ctrl::Redeliver(read_env(buf, &mut pos)?.to_envelope()),
            TAG_CLOSE => Ctrl::Close,
            TAG_SHUTDOWN => Ctrl::Shutdown,
            TAG_CAMPAIGN => Ctrl::Campaign(CampaignMessage::decode_from(buf, &mut pos)?),
            TAG_ROUND_REQUEST => Ctrl::RoundRequest {
                round: read_varint(buf, &mut pos)?,
                net_seed: read_varint(buf, &mut pos)?,
                round_id: read_varint(buf, &mut pos)?,
                clients: read_u64_list(buf, &mut pos)?,
            },
            TAG_ROUND_COMMIT => Ctrl::RoundCommit {
                round: read_varint(buf, &mut pos)?,
            },
            TAG_CAMPAIGN_ACK => Ctrl::CampaignAck {
                round_index: read_varint(buf, &mut pos)?,
                clients: read_varint(buf, &mut pos)?,
                total_bits: read_varint(buf, &mut pos)?,
                digest: read_varint(buf, &mut pos)?,
            },
            TAG_ROUND_ADMIT => Ctrl::RoundAdmit {
                round: read_varint(buf, &mut pos)?,
                admitted: read_u64_list(buf, &mut pos)?,
                denied_budget: read_varint(buf, &mut pos)?,
                denied_cooldown: read_varint(buf, &mut pos)?,
                already_committed: match wire::read_bytes(buf, &mut pos, 1)?[0] {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::InvalidField("already_committed flag")),
                },
            },
            TAG_ROUND_COMMITTED => Ctrl::RoundCommitted {
                round: read_varint(buf, &mut pos)?,
                clients_charged: read_varint(buf, &mut pos)?,
                digest: read_varint(buf, &mut pos)?,
            },
            TAG_CAMPAIGN_ERR => Ctrl::CampaignErr {
                code: read_varint(buf, &mut pos)?,
                detail: read_str(buf, &mut pos)?,
            },
            TAG_HELLO_ACK => Ctrl::HelloAck {
                session_id: read_varint(buf, &mut pos)?,
            },
            TAG_DELIVERIES => {
                let count = usize::try_from(read_varint(buf, &mut pos)?)
                    .map_err(|_| WireError::Truncated)?;
                // Each delivery is at least an envelope header; an absurd
                // count cannot be backed by the buffer.
                if count > buf.len().saturating_sub(pos) {
                    return Err(WireError::Truncated);
                }
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    let at = read_f64(buf, &mut pos)?;
                    items.push((at, read_env(buf, &mut pos)?.to_envelope()));
                }
                Ctrl::Deliveries(items)
            }
            TAG_STATS => Ctrl::Stats(SessionStats {
                frames_in: read_varint(buf, &mut pos)?,
                frames_out: read_varint(buf, &mut pos)?,
                bytes_in: read_varint(buf, &mut pos)?,
                bytes_out: read_varint(buf, &mut pos)?,
            }),
            TAG_SHUTDOWN_ACK => Ctrl::ShutdownAck,
            TAG_FLEET => Ctrl::Fleet(FleetMessage::decode_from(buf, &mut pos)?),
            other => return Err(WireError::UnknownTag(other)),
        };
        if pos != buf.len() {
            return Err(WireError::TrailingBytes);
        }
        Ok(msg)
    }
}

// ---------------------------------------------------------------------------
// The driver-side transport.
// ---------------------------------------------------------------------------

/// The daemon's authoritative campaign position, returned by
/// [`TcpTransport::begin_campaign`]. `round_index` is the resume point: a
/// driver restarted mid-campaign simply continues from here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignStatus {
    /// Next round the campaign will admit.
    pub round_index: u64,
    /// Clients with at least one committed charge.
    pub clients: u64,
    /// Total private bits committed across all clients.
    pub total_bits: u64,
    /// Digest of the committed ledger state (see
    /// `fednum_core::privacy::durable::CampaignState::digest`).
    pub digest: u64,
}

/// The admission verdict for one round, returned by
/// [`TcpTransport::request_round`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundAdmission {
    /// The round this admission is for.
    pub round: u64,
    /// Clients the scheduler admitted (charges already on the daemon's
    /// write-ahead log).
    pub admitted: Vec<u64>,
    /// Clients denied for insufficient remaining budget.
    pub denied_budget: u64,
    /// Clients denied because their cooldown has not elapsed.
    pub denied_cooldown: u64,
    /// `true` when this round was already committed (a crash or lost ack
    /// happened after the fold): the recorded admission is returned and
    /// nothing was re-charged. The driver should skip re-running the
    /// round and move on.
    pub already_committed: bool,
}

/// Receipt for one committed round, returned by
/// [`TcpTransport::commit_round`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitReceipt {
    /// The committed round index.
    pub round: u64,
    /// Clients whose charges were folded.
    pub clients_charged: u64,
    /// Ledger digest after the fold.
    pub digest: u64,
}

/// The echoes the daemon still owes, kept framed exactly as they must
/// arrive: bytes read off the socket are checked against them in place,
/// without being cut into frames first.
#[derive(Default)]
struct Owed {
    /// The owed frames' wire bytes in write order; `bytes[..matched]` has
    /// arrived and matched.
    bytes: Vec<u8>,
    matched: usize,
    /// End offset in `bytes` of every frame not yet arrived whole.
    ends: VecDeque<usize>,
}

impl Owed {
    fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Appends one owed frame, its payload encoded in place by `body`.
    fn push(&mut self, body: impl FnOnce(&mut Vec<u8>)) -> std::io::Result<()> {
        wire::push_frame_with(&mut self.bytes, body)?;
        self.ends.push_back(self.bytes.len());
        Ok(())
    }

    /// Checks bytes just read against the owed ones; returns how many
    /// frames they completed.
    fn accept(&mut self, got: &[u8]) -> Result<u64, &'static str> {
        let rest = &self.bytes[self.matched..];
        let n = got.len().min(rest.len());
        if got[..n] != rest[..n] {
            return Err("echo differs from the staged deliveries");
        }
        if got.len() > rest.len() {
            return Err("frame arrived with no echo owed");
        }
        self.matched += n;
        let mut frames = 0;
        while self.ends.front().is_some_and(|&end| end <= self.matched) {
            self.ends.pop_front();
            frames += 1;
        }
        if self.ends.is_empty() {
            self.clear();
        }
        Ok(frames)
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
        self.matched = 0;
    }
}

struct Inner {
    /// Both halves of the connection: sends are written from `out`, and
    /// reads land in `chunk`.
    stream: TcpStream,
    /// Framed sends not yet written to the socket.
    out: Vec<u8>,
    /// Bytes taken off the socket per `read`, allocated once per session.
    chunk: Box<[u8]>,
    /// Cuts the replies to handshake, campaign and close requests into
    /// frames; echoes are checked against `owed` instead.
    decoder: FrameDecoder,
    queue: EventQueue<Envelope>,
    /// The daemon's fault stage, replayed: built from the same parameters
    /// and fed the same frames in the same order, so it predicts every
    /// echo before the daemon sends it.
    stage: SimNetTransport,
    /// One frame's predicted deliveries, between the stage and the queue.
    staged: Vec<(f64, Envelope)>,
    /// The `Deliveries` frames the daemon still owes.
    owed: Owed,
    /// Encoded bytes written since the last flush-and-drain.
    unsynced_bytes: usize,
    /// Deliveries still to hand out before the next non-blocking take-in;
    /// zero at session start, so the first read of the timeline checks
    /// the socket.
    take_in_due: usize,
    metrics: WireMetrics,
    error: Option<FedError>,
    /// Blocking flush-and-drain passes over echoes, for the round-trip
    /// count test.
    drains: u64,
    /// Non-blocking take-ins (zero-timeout polls of the socket), for the
    /// socket-touch count test.
    take_ins: u64,
}

impl Inner {
    /// Configures a connected stream and performs the `Hello` handshake,
    /// returning a fresh session state around it.
    fn handshake(stream: TcpStream, hello: &SessionHello) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(DEFAULT_READ_TIMEOUT))?;
        let mut inner = Inner {
            stream,
            out: Vec::with_capacity(WRITE_BUFFER),
            chunk: vec![0u8; READ_CHUNK].into_boxed_slice(),
            decoder: FrameDecoder::new(),
            queue: EventQueue::new(hello.seed),
            stage: SimNetTransport::with_plan(
                hello.seed,
                hello.faults,
                hello.validate,
                hello.round_id,
            ),
            staged: Vec::new(),
            owed: Owed::default(),
            unsynced_bytes: 0,
            take_in_due: 0,
            metrics: WireMetrics::default(),
            error: None,
            drains: 0,
            take_ins: 0,
        };
        inner.send_now(&Ctrl::Hello(*hello))?;
        let ack = inner.read_frame()?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed during handshake",
            )
        })?;
        match Ctrl::decode(&ack) {
            Ok(Ctrl::HelloAck { .. }) => Ok(inner),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unexpected handshake response: {other:?}"),
            )),
        }
    }

    /// Frames `ctrl` onto the send buffer and returns its wire length.
    fn push(&mut self, ctrl: &Ctrl) -> std::io::Result<usize> {
        let len = wire::push_frame_with(&mut self.out, |out| ctrl.encode_into(out))?;
        self.metrics.frames_sent += 1;
        self.metrics.bytes_sent += len as u64;
        Ok(len)
    }

    /// Writes the framed sends to the socket.
    fn flush(&mut self) -> std::io::Result<()> {
        let written = (&self.stream).write_all(&self.out);
        self.out.clear();
        written
    }

    /// Writes `ctrl` to the socket at once, with whatever is buffered.
    fn send_now(&mut self, ctrl: &Ctrl) -> std::io::Result<()> {
        self.push(ctrl)?;
        self.flush()
    }

    /// Reads one whole reply frame, blocking up to the read timeout;
    /// `None` when the daemon closed the stream. Only for replies to
    /// requests made with nothing in flight: echoes are checked against
    /// `owed` instead.
    fn read_frame(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        loop {
            let frame = self
                .decoder
                .next_frame()
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            if let Some(frame) = frame {
                self.metrics.frames_received += 1;
                self.metrics.bytes_received += wire::frame_len(frame.len()) as u64;
                return Ok(Some(frame));
            }
            let n = self.read_chunk()?;
            if n == 0 {
                return Ok(None);
            }
            self.decoder.feed(&self.chunk[..n]);
        }
    }

    /// One `read` into `chunk`; 0 at end of stream.
    fn read_chunk(&mut self) -> std::io::Result<usize> {
        loop {
            match (&self.stream).read(&mut self.chunk) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                read => return read,
            }
        }
    }

    /// Writes one frame and, for `Env`/`Redeliver`, stages it locally
    /// exactly as the daemon will: its predicted deliveries go straight onto
    /// the queue and its predicted echo onto `owed`.
    fn write_ctrl(&mut self, ctrl: Ctrl) {
        if self.error.is_some() {
            return;
        }
        if let Ctrl::Env(env) | Ctrl::Redeliver(env) = &ctrl {
            if env.payload.len() > MAX_ENVELOPE_PAYLOAD {
                let detail = format!(
                    "a {}-byte envelope payload exceeds MAX_ENVELOPE_PAYLOAD = {MAX_ENVELOPE_PAYLOAD} bytes",
                    env.payload.len()
                );
                return fail(
                    self,
                    "send",
                    &std::io::Error::new(std::io::ErrorKind::InvalidInput, detail),
                );
            }
        }
        match self.push(&ctrl) {
            Ok(len) => self.unsynced_bytes += len,
            Err(e) => return fail(self, "write", &e),
        }
        if self.out.len() >= WRITE_BUFFER {
            if let Err(e) = self.flush() {
                return fail(self, "write", &e);
            }
        }
        match ctrl {
            Ctrl::Env(env) => self.stage.send(env),
            Ctrl::Redeliver(env) => self.stage.redeliver(env),
            Ctrl::Window { start, deadline } => {
                self.stage.open_window(start, deadline);
                return;
            }
            _ => unreachable!("only envelope and window frames are staged"),
        }
        let stage = &mut self.stage;
        self.staged.extend(std::iter::from_fn(|| stage.poll()));
        let staged = &self.staged;
        if let Err(e) = self
            .owed
            .push(|out| push_deliveries(out, delivery_refs(staged)))
        {
            return fail(self, "write", &e);
        }
        for (at, env) in self.staged.drain(..) {
            self.queue.push(at, env.from, env);
        }
        if self.unsynced_bytes >= SYNC_BYTES || self.owed.ends.len() >= SYNC_FRAMES {
            self.drain();
        }
    }

    /// One `read`, checked against the owed echoes.
    fn take_echoes(&mut self) {
        match self.read_chunk() {
            Ok(0) => fail(self, "read", &closed()),
            Ok(n) => match self.owed.accept(&self.chunk[..n]) {
                Ok(frames) => {
                    self.metrics.frames_received += frames;
                    self.metrics.bytes_received += n as u64;
                }
                Err(detail) => fail(self, "read", &invalid(detail)),
            },
            Err(e) => fail(self, "read", &e),
        }
    }

    /// Flushes buffered sends and blocks until every owed echo has been
    /// read back and verified. On failure the typed error is recorded and
    /// the transport goes silent (see module docs).
    fn drain(&mut self) {
        if self.error.is_some() || self.owed.is_empty() {
            return;
        }
        self.drains += 1;
        if let Err(e) = self.flush() {
            return fail(self, "write", &e);
        }
        self.unsynced_bytes = 0;
        while self.error.is_none() && !self.owed.is_empty() {
            self.take_echoes();
        }
    }

    /// Takes in the echoes the socket already holds, without blocking.
    fn take_in(&mut self) {
        if self.error.is_some() || self.owed.is_empty() {
            return;
        }
        self.take_ins += 1;
        let mut fds = [PollFd::new(raw_fd(&self.stream), INTEREST_READ)];
        match reactor::wait(&mut fds, 0) {
            Ok(_) if fds[0].readable() => self.take_echoes(),
            Ok(_) => {}
            Err(e) => fail(self, "read", &e),
        }
    }

    /// Brings the local timeline up to date before it is read: once every
    /// [`TAKE_IN_EVERY`] handed-out deliveries takes in the echoes already
    /// here and, if nothing is left to hand out, blocks until every owed
    /// echo is verified.
    fn settle(&mut self) {
        if self.take_in_due == 0 {
            self.take_in();
            self.take_in_due = TAKE_IN_EVERY;
        }
        if self.queue.is_empty() {
            self.drain();
        }
    }
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

fn closed() -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "daemon closed session")
}

fn invalid(detail: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, detail)
}

/// A [`Transport`] whose frames cross a real TCP socket to a
/// [`daemon`](crate::daemon) session (see the module docs for the
/// architecture and parity contract).
pub struct TcpTransport {
    inner: RefCell<Inner>,
    /// Resolved peer address of the live connection — what
    /// [`Self::reconnect`] re-dials after a fault.
    peer: Option<std::net::SocketAddr>,
    /// The handshake replayed verbatim on reconnect, so the resumed
    /// session rebuilds the identical server-side fault stage.
    hello: SessionHello,
    /// The campaign bound on this connection, if any; re-bound on
    /// reconnect so the daemon reports its authoritative position.
    campaign: Option<CampaignMessage>,
}

impl TcpTransport {
    /// Connects a fault-free session — the socket-backed equivalent of
    /// [`InMemoryTransport::new(seed)`](crate::net::InMemoryTransport::new).
    ///
    /// # Errors
    /// Any socket error during connect or the session handshake.
    pub fn connect<A: ToSocketAddrs>(addr: A, seed: u64) -> std::io::Result<Self> {
        Self::open(
            addr,
            SessionHello {
                version: PROTOCOL_VERSION,
                seed,
                round_id: 0,
                validate: true,
                faults: None,
            },
        )
    }

    /// Connects a session whose server-side fault stage replays
    /// `config.faults` — the socket-backed equivalent of
    /// [`SimNetTransport::for_config`](crate::net::SimNetTransport::for_config).
    ///
    /// # Errors
    /// Any socket error during connect or the session handshake.
    pub fn connect_for_config<A: ToSocketAddrs>(
        addr: A,
        config: &FederatedMeanConfig,
        seed: u64,
    ) -> std::io::Result<Self> {
        Self::open(
            addr,
            SessionHello {
                version: PROTOCOL_VERSION,
                seed,
                round_id: config.session_seed,
                validate: config.validate,
                faults: config.faults,
            },
        )
    }

    fn open<A: ToSocketAddrs>(addr: A, hello: SessionHello) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let peer = stream.peer_addr().ok();
        let inner = Inner::handshake(stream, &hello)?;
        Ok(Self {
            inner: RefCell::new(inner),
            peer,
            hello,
            campaign: None,
        })
    }

    /// Re-dials the daemon after a connection fault and replays the
    /// original session handshake; if a campaign was bound, re-binds it
    /// and returns the daemon's authoritative committed position.
    ///
    /// The campaign scheduler is idempotent on the server side — rounds
    /// already committed admit as `already_committed` and re-commits
    /// return the recorded receipt — so a driver can blindly resume from
    /// the returned [`CampaignStatus::round_index`] without a charge ever
    /// folding twice. Any error or in-flight state of the dead connection
    /// is discarded; wire metrics keep accumulating across reconnects
    /// (they tally the driver session, while the daemon's
    /// [`Self::close`] stats cover only the final connection).
    ///
    /// # Errors
    /// [`FedError::Transport`] if the peer address is unknown, the
    /// re-dial or handshake fails, or the campaign re-bind is rejected.
    pub fn reconnect(&mut self) -> Result<Option<CampaignStatus>, FedError> {
        let io_err = |op: &'static str| {
            move |e: std::io::Error| FedError::Transport {
                op,
                detail: e.to_string(),
            }
        };
        let peer = self.peer.ok_or(FedError::Transport {
            op: "reconnect",
            detail: "peer address unknown".into(),
        })?;
        let stream = TcpStream::connect(peer).map_err(io_err("connect"))?;
        let fresh = Inner::handshake(stream, &self.hello).map_err(io_err("handshake"))?;
        let inner = self.inner.get_mut();
        let carried = inner.metrics;
        *inner = fresh;
        inner.metrics.merge(&carried);
        match self.campaign {
            Some(config) => self.begin_campaign(&config).map(Some),
            None => Ok(None),
        }
    }

    /// Severs the underlying socket both ways without touching the
    /// session state — a deterministic stand-in for a mid-campaign
    /// connection fault in the chaos tests.
    ///
    /// # Errors
    /// Propagates the socket shutdown error.
    #[doc(hidden)]
    pub fn sever(&self) -> std::io::Result<()> {
        self.inner
            .borrow()
            .stream
            .shutdown(std::net::Shutdown::Both)
    }

    /// Overrides the driver-side read timeout (default
    /// [`DEFAULT_READ_TIMEOUT`]); on expiry the session aborts with
    /// [`FedError::Transport`].
    ///
    /// # Errors
    /// Propagates the socket option error.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.inner.borrow().stream.set_read_timeout(timeout)
    }

    /// Closes the session: drains in-flight echoes, then exchanges
    /// `Close` for the daemon's per-session wire totals.
    ///
    /// # Errors
    /// [`FedError::Transport`] if the session already failed or the
    /// close handshake does.
    pub fn close(self) -> Result<SessionStats, FedError> {
        let mut inner = self.inner.into_inner();
        inner.drain();
        if let Some(e) = inner.error.take() {
            return Err(e);
        }
        let io_err = |op: &'static str| {
            move |e: std::io::Error| FedError::Transport {
                op,
                detail: e.to_string(),
            }
        };
        inner.send_now(&Ctrl::Close).map_err(io_err("write"))?;
        let reply = inner
            .read_frame()
            .map_err(io_err("read"))?
            .ok_or(FedError::Transport {
                op: "read",
                detail: "daemon closed before session stats".into(),
            })?;
        match Ctrl::decode(&reply) {
            Ok(Ctrl::Stats(stats)) => Ok(stats),
            other => Err(FedError::Transport {
                op: "read",
                detail: format!("unexpected close response: {other:?}"),
            }),
        }
    }

    /// Sends the admin `Shutdown` frame over a fresh connection, asking the
    /// daemon to wind down gracefully. Returns once the daemon acknowledges.
    ///
    /// # Errors
    /// Any socket error during connect or the exchange.
    pub fn request_shutdown<A: ToSocketAddrs>(addr: A) -> std::io::Result<()> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(DEFAULT_READ_TIMEOUT))?;
        wire::write_frame(&mut stream, &Ctrl::Shutdown.encode())?;
        stream.flush()?;
        let reply = wire::read_frame(&mut stream)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed before shutdown ack",
            )
        })?;
        match Ctrl::decode(&reply) {
            Ok(Ctrl::ShutdownAck) => Ok(()),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unexpected shutdown response: {other:?}"),
            )),
        }
    }

    /// Opens (or resumes) a longitudinal campaign on this connection.
    ///
    /// The daemon looks the campaign up by `config.campaign_id`: a fresh id
    /// creates the campaign, an existing id resumes it — after a daemon
    /// restart the returned [`CampaignStatus::round_index`] tells the driver
    /// where to pick up. The request's `round_index` is ignored by the
    /// daemon (its own committed index is authoritative), but the budget
    /// policy fields must match the stored campaign exactly.
    ///
    /// # Errors
    /// [`FedError::Transport`] on socket failure, a policy mismatch with an
    /// existing campaign, or a daemon running without the campaign feature.
    pub fn begin_campaign(&mut self, config: &CampaignMessage) -> Result<CampaignStatus, FedError> {
        match self.exchange(&Ctrl::Campaign(*config))? {
            Ctrl::CampaignAck {
                round_index,
                clients,
                total_bits,
                digest,
            } => {
                self.campaign = Some(*config);
                Ok(CampaignStatus {
                    round_index,
                    clients,
                    total_bits,
                    digest,
                })
            }
            other => Err(unexpected_reply("campaign ack", &other)),
        }
    }

    /// Asks the campaign scheduler to admit `clients` into `round`.
    ///
    /// On admission the daemon has already write-ahead-logged the round's
    /// charges (durable mode) and rebuilt the session's simulated network
    /// from `net_seed`/`round_id`, so the round that follows is bit-identical
    /// to an independent single-round session opened with the same seeds.
    /// The driver's local event queue is re-seeded to match, and its
    /// replayed fault stage is re-armed whenever the daemon's is. If the reply
    /// says [`RoundAdmission::already_committed`], nothing was staged and
    /// the round body must be skipped.
    ///
    /// # Errors
    /// [`FedError::Transport`] on socket failure, an out-of-order round
    /// index, or a request before [`Self::begin_campaign`].
    pub fn request_round(
        &mut self,
        round: u64,
        net_seed: u64,
        round_id: u64,
        clients: &[u64],
    ) -> Result<RoundAdmission, FedError> {
        let reply = self.exchange(&Ctrl::RoundRequest {
            round,
            net_seed,
            round_id,
            clients: clients.to_vec(),
        })?;
        match reply {
            Ctrl::RoundAdmit {
                round,
                admitted,
                denied_budget,
                denied_cooldown,
                already_committed,
            } => {
                // Match the daemon's fresh per-round SimNet: tie-break
                // sequence state must not leak across rounds or parity with
                // independent in-memory rounds is lost. The daemon re-arms
                // its stage only for a fresh admission, so the replay does
                // too.
                let inner = self.inner.get_mut();
                inner.queue = EventQueue::new(net_seed);
                if !already_committed {
                    inner.stage = SimNetTransport::with_plan(
                        net_seed,
                        self.hello.faults,
                        self.hello.validate,
                        round_id,
                    );
                }
                Ok(RoundAdmission {
                    round,
                    admitted,
                    denied_budget,
                    denied_cooldown,
                    already_committed,
                })
            }
            other => Err(unexpected_reply("round admission", &other)),
        }
    }

    /// Commits the currently staged round: the daemon folds the staged
    /// charges into the durable ledger and fsyncs the commit record before
    /// replying. Re-committing an already-committed round is a no-op that
    /// returns the recorded receipt.
    ///
    /// # Errors
    /// [`FedError::Transport`] on socket failure or a commit without a
    /// matching admitted round.
    pub fn commit_round(&mut self, round: u64) -> Result<CommitReceipt, FedError> {
        match self.exchange(&Ctrl::RoundCommit { round })? {
            Ctrl::RoundCommitted {
                round,
                clients_charged,
                digest,
            } => Ok(CommitReceipt {
                round,
                clients_charged,
                digest,
            }),
            other => Err(unexpected_reply("commit receipt", &other)),
        }
    }

    /// Synchronous request/reply for the campaign control frames: drains any
    /// in-flight deliveries first so replies can't interleave, then writes
    /// one frame and reads exactly one back. A `CampaignErr` reply becomes a
    /// typed error but leaves the connection usable.
    fn exchange(&mut self, ctrl: &Ctrl) -> Result<Ctrl, FedError> {
        let inner = self.inner.get_mut();
        inner.drain();
        if let Some(e) = inner.error.take() {
            return Err(e);
        }
        let io_err = |op: &'static str| {
            move |e: std::io::Error| FedError::Transport {
                op,
                detail: e.to_string(),
            }
        };
        inner.send_now(ctrl).map_err(io_err("write"))?;
        let reply = inner
            .read_frame()
            .map_err(io_err("read"))?
            .ok_or(FedError::Transport {
                op: "read",
                detail: "daemon closed during campaign exchange".into(),
            })?;
        match Ctrl::decode(&reply) {
            Ok(Ctrl::CampaignErr { code, detail }) => Err(FedError::Transport {
                op: "campaign",
                detail: format!("daemon rejected request (code {code}): {detail}"),
            }),
            Ok(other) => Ok(other),
            Err(e) => Err(FedError::Transport {
                op: "read",
                detail: format!("bad campaign reply: {e}"),
            }),
        }
    }
}

fn unexpected_reply(wanted: &str, got: &Ctrl) -> FedError {
    FedError::Transport {
        op: "read",
        detail: format!("expected {wanted}, got {got:?}"),
    }
}

fn fail(inner: &mut Inner, op: &'static str, e: &std::io::Error) {
    if inner.error.is_none() {
        inner.error = Some(FedError::Transport {
            op,
            detail: e.to_string(),
        });
    }
    // The stream is unrecoverable: drop every delivery not yet handed out
    // (none may be trusted past this point) and stop waiting on echoes that
    // will never arrive, so the session drains instead of spinning.
    while inner.queue.pop().is_some() {}
    inner.owed.clear();
    inner.unsynced_bytes = 0;
    inner.out.clear();
}

impl Transport for TcpTransport {
    fn send(&mut self, env: Envelope) {
        self.inner.get_mut().write_ctrl(Ctrl::Env(env));
    }

    fn poll(&mut self) -> Option<(f64, Envelope)> {
        let inner = self.inner.get_mut();
        inner.settle();
        let next = inner.queue.pop()?;
        inner.take_in_due -= 1;
        Some((next.time, next.item))
    }

    fn peek_time(&self) -> Option<f64> {
        let mut inner = self.inner.borrow_mut();
        inner.settle();
        inner.queue.peek_time()
    }

    fn open_window(&mut self, start: f64, deadline: f64) {
        self.inner
            .get_mut()
            .write_ctrl(Ctrl::Window { start, deadline });
    }

    fn redeliver(&mut self, env: Envelope) {
        self.inner.get_mut().write_ctrl(Ctrl::Redeliver(env));
    }

    fn idle(&self) -> bool {
        let mut inner = self.inner.borrow_mut();
        inner.settle();
        inner.queue.is_empty()
    }

    fn wire_metrics(&self) -> Option<WireMetrics> {
        Some(self.inner.borrow().metrics)
    }

    fn take_error(&mut self) -> Option<FedError> {
        self.inner.get_mut().error.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RoundBuilder;
    use crate::daemon::{self, DaemonConfig};
    use crate::message::Message;
    use crate::net::{InMemoryTransport, COORDINATOR};
    use fednum_core::encoding::FixedPointCodec;
    use fednum_core::protocol::basic::BasicConfig;
    use fednum_core::sampling::BitSampling;
    use fednum_core::wire::varint_len;
    use std::io::BufReader;
    use std::net::{SocketAddr, TcpListener};
    use std::thread::JoinHandle;

    fn env(from: u64, at: f64, payload: Vec<u8>) -> Envelope {
        Envelope {
            from,
            to: COORDINATOR,
            sent_at: at,
            payload,
        }
    }

    #[test]
    fn control_frames_round_trip() {
        let rates = FaultRates {
            straggle: 0.25,
            replay: 0.125,
            ..FaultRates::none()
        };
        let frames = vec![
            Ctrl::Hello(SessionHello {
                version: PROTOCOL_VERSION,
                seed: 42,
                round_id: 7,
                validate: false,
                faults: Some(FaultPlan::new(rates, 99).unwrap()),
            }),
            Ctrl::Hello(SessionHello {
                version: PROTOCOL_VERSION,
                seed: 0,
                round_id: 0,
                validate: true,
                faults: None,
            }),
            Ctrl::Env(env(3, 1.5, vec![1, 2, 3])),
            Ctrl::Window {
                start: 0.0,
                deadline: 2.5,
            },
            Ctrl::Redeliver(env(u64::MAX, f64::MAX, vec![])),
            Ctrl::Close,
            Ctrl::Shutdown,
            Ctrl::HelloAck { session_id: 12 },
            Ctrl::Deliveries(vec![
                (0.25, env(1, 0.25, vec![9])),
                (1e9, env(2, 1e9, vec![])),
            ]),
            Ctrl::Stats(SessionStats {
                frames_in: 1,
                frames_out: 2,
                bytes_in: 300,
                bytes_out: 400,
            }),
            Ctrl::ShutdownAck,
            Ctrl::Campaign(CampaignMessage {
                campaign_id: 77,
                round_index: 3,
                max_bits: Some(4096),
                max_epsilon: Some(8.0),
                cooldown_rounds: 2,
                bits_per_round: 64,
                epsilon_per_round: 0.5,
            }),
            Ctrl::Campaign(CampaignMessage {
                campaign_id: 0,
                round_index: 0,
                max_bits: None,
                max_epsilon: None,
                cooldown_rounds: 0,
                bits_per_round: 0,
                epsilon_per_round: 0.0,
            }),
            Ctrl::RoundRequest {
                round: 5,
                net_seed: 0xDEAD_BEEF,
                round_id: 11,
                clients: vec![1, 2, u64::MAX],
            },
            Ctrl::RoundCommit { round: 5 },
            Ctrl::CampaignAck {
                round_index: 4,
                clients: 3,
                total_bits: 192,
                digest: 0x1234_5678_9ABC_DEF0,
            },
            Ctrl::RoundAdmit {
                round: 5,
                admitted: vec![1, 2],
                denied_budget: 1,
                denied_cooldown: 2,
                already_committed: false,
            },
            Ctrl::RoundAdmit {
                round: 0,
                admitted: vec![],
                denied_budget: 0,
                denied_cooldown: 0,
                already_committed: true,
            },
            Ctrl::RoundCommitted {
                round: 5,
                clients_charged: 2,
                digest: u64::MAX,
            },
            Ctrl::CampaignErr {
                code: 2,
                detail: "round 7 out of order (expected 5)".into(),
            },
            Ctrl::Fleet(FleetMessage::Rendezvous {
                client_id: 17,
                capabilities: 0,
            }),
            Ctrl::Fleet(FleetMessage::RendezvousAck {
                session_token: 0xFEED_FACE,
                heartbeat_ms: 250,
                liveness_ms: 1000,
            }),
            Ctrl::Fleet(FleetMessage::CohortAssign {
                round: 2,
                bit_index: 5,
                bits: 16,
                value_seed: 77,
                deadline_ms: 4000,
            }),
            Ctrl::Fleet(FleetMessage::Report {
                session_token: 0xFEED_FACE,
                round: 2,
                bit_index: 5,
                bit: true,
            }),
            Ctrl::Fleet(FleetMessage::Resume {
                client_id: 17,
                session_token: 0xFEED_FACE,
                report_nonce: 3,
            }),
            Ctrl::Fleet(FleetMessage::Busy {
                retry_after_ms: 500,
            }),
        ];
        for f in frames {
            let bytes = f.encode();
            assert_eq!(Ctrl::decode(&bytes).unwrap(), f, "frame {f:?}");
        }
    }

    #[test]
    fn campaign_frames_reject_malformed_bytes() {
        // Truncated client list: count says 3, body carries 1.
        let mut bytes = Ctrl::RoundRequest {
            round: 1,
            net_seed: 2,
            round_id: 3,
            clients: vec![1, 2, 3],
        }
        .encode();
        bytes.truncate(bytes.len() - 2);
        assert_eq!(Ctrl::decode(&bytes), Err(WireError::Truncated));
        // Hostile admitted-list count fails before allocation.
        let mut bytes = vec![TAG_ROUND_ADMIT];
        wire::push_varint(&mut bytes, 1); // round
        wire::push_varint(&mut bytes, u64::MAX); // admitted count
        assert_eq!(Ctrl::decode(&bytes), Err(WireError::Truncated));
        // already_committed must be exactly 0 or 1.
        let mut bytes = Ctrl::RoundAdmit {
            round: 1,
            admitted: vec![],
            denied_budget: 0,
            denied_cooldown: 0,
            already_committed: false,
        }
        .encode();
        let last = bytes.len() - 1;
        bytes[last] = 9;
        assert_eq!(
            Ctrl::decode(&bytes),
            Err(WireError::InvalidField("already_committed flag"))
        );
        // Error detail must be UTF-8.
        let mut bytes = Ctrl::CampaignErr {
            code: 1,
            detail: "ok".into(),
        }
        .encode();
        let last = bytes.len() - 1;
        bytes[last] = 0xFF;
        assert_eq!(
            Ctrl::decode(&bytes),
            Err(WireError::InvalidField("error detail utf-8"))
        );
    }

    #[test]
    fn decode_rejects_malformed_control_frames() {
        assert_eq!(Ctrl::decode(&[]), Err(WireError::Truncated));
        assert_eq!(Ctrl::decode(&[0x7F]), Err(WireError::UnknownTag(0x7F)));
        // Truncated envelope body.
        let mut bytes = Ctrl::Env(env(1, 0.5, vec![1, 2, 3])).encode();
        bytes.truncate(bytes.len() - 1);
        assert_eq!(Ctrl::decode(&bytes), Err(WireError::Truncated));
        // Trailing garbage.
        let mut bytes = Ctrl::Close.encode();
        bytes.push(0);
        assert_eq!(Ctrl::decode(&bytes), Err(WireError::TrailingBytes));
        // Hostile delivery count fails before allocation.
        let mut bytes = vec![TAG_DELIVERIES];
        wire::push_varint(&mut bytes, u64::MAX);
        assert_eq!(Ctrl::decode(&bytes), Err(WireError::Truncated));
        // Invalid fault rates are rejected at decode, not at use.
        let hostile = Ctrl::Hello(SessionHello {
            version: PROTOCOL_VERSION,
            seed: 1,
            round_id: 1,
            validate: true,
            faults: Some(FaultPlan::new(FaultRates::none(), 3).unwrap()),
        });
        let mut bytes = hostile.encode();
        // Overwrite the first rate (drop_before_report) with 2.0.
        let rate_offset = bytes.len() - 7 * 8 - varint_len(3);
        bytes[rate_offset..rate_offset + 8].copy_from_slice(&2.0f64.to_bits().to_le_bytes());
        assert_eq!(
            Ctrl::decode(&bytes),
            Err(WireError::InvalidField("fault rates"))
        );
    }

    #[test]
    fn f64_bits_survive_the_codec_exactly() {
        // Delivery times carry the parity contract: any rounding here would
        // desynchronize the TCP run from the in-memory run. Exercise values
        // with awkward mantissas and special encodings.
        for at in [
            0.0,
            -0.0,
            3e-9,
            1e-9 + 3e-9 * 17.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            1.0 + f64::EPSILON,
        ] {
            let frame = Ctrl::Deliveries(vec![(at, env(5, at, vec![0xAB]))]).encode();
            match Ctrl::decode(&frame).unwrap() {
                Ctrl::Deliveries(items) => {
                    assert_eq!(items[0].0.to_bits(), at.to_bits());
                    assert_eq!(items[0].1.sent_at.to_bits(), at.to_bits());
                }
                other => panic!("decoded {other:?}"),
            }
        }
    }

    /// How the scripted peer betrays the driver on echo `k` (1-based).
    #[derive(Debug, Clone, Copy)]
    enum Tamper {
        /// Flips the lowest bit of the first delivery time.
        TimeBit,
        /// Changes the last payload byte of the first delivery.
        PayloadByte,
        /// Follows the echo with one surplus `Deliveries` frame.
        ExtraFrame,
        /// Closes the socket instead of sending the echo.
        CloseEarly,
    }

    /// A loopback peer that answers the handshake and echoes every frame
    /// through the daemon's own fault stage, except that echo `k` is
    /// corrupted as `tamper` says.
    fn scripted_peer(tamper: Tamper, k: usize) -> (SocketAddr, JoinHandle<()>) {
        scripted_peer_at(tamper, vec![k])
    }

    /// [`scripted_peer`] corrupting every echo listed in `ks`.
    fn scripted_peer_at(tamper: Tamper, ks: Vec<usize>) -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            // One write per reply, so frames sent together are read together.
            let mut reply = |ctrls: &[Ctrl]| {
                let mut bytes = Vec::new();
                for ctrl in ctrls {
                    wire::write_frame(&mut bytes, &ctrl.encode()).unwrap();
                }
                // The driver may already have hung up.
                let _ = writer.write_all(&bytes);
            };
            let mut reader = BufReader::new(stream);
            let mut stage = SimNetTransport::new(0);
            let mut echoes = 0;
            while let Ok(Some(frame)) = wire::read_frame(&mut reader) {
                match Ctrl::decode(&frame).unwrap() {
                    Ctrl::Hello(h) => {
                        stage =
                            SimNetTransport::with_plan(h.seed, h.faults, h.validate, h.round_id);
                        reply(&[Ctrl::HelloAck { session_id: 1 }]);
                        continue;
                    }
                    Ctrl::Window { start, deadline } => {
                        stage.open_window(start, deadline);
                        continue;
                    }
                    Ctrl::Env(env) => stage.send(env),
                    Ctrl::Redeliver(env) => stage.redeliver(env),
                    other => panic!("scripted peer got {other:?}"),
                }
                echoes += 1;
                let mut items = Vec::new();
                while let Some(item) = stage.poll() {
                    items.push(item);
                }
                let tampered = ks.contains(&echoes);
                if tampered {
                    match tamper {
                        Tamper::TimeBit => items[0].0 = f64::from_bits(items[0].0.to_bits() ^ 1),
                        Tamper::PayloadByte => *items[0].1.payload.last_mut().unwrap() ^= 0x40,
                        Tamper::ExtraFrame => {}
                        Tamper::CloseEarly => return,
                    }
                }
                let mut echo = vec![Ctrl::Deliveries(items)];
                if tampered && matches!(tamper, Tamper::ExtraFrame) {
                    echo.push(Ctrl::Deliveries(Vec::new()));
                }
                reply(&echo);
            }
        });
        (addr, peer)
    }

    fn expect_read_error(tamper: Tamper, tcp: &mut TcpTransport) {
        match tcp.take_error() {
            Some(FedError::Transport { op: "read", .. }) => {}
            other => panic!("{tamper:?}: expected a read transport error, got {other:?}"),
        }
    }

    /// Counts the frames that owe an echo.
    struct Counting<T> {
        inner: T,
        frames: usize,
    }

    impl<T: Transport> Transport for Counting<T> {
        fn send(&mut self, env: Envelope) {
            self.frames += 1;
            self.inner.send(env);
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
            self.frames += 1;
            self.inner.redeliver(env);
        }
        fn idle(&self) -> bool {
            self.inner.idle()
        }
    }

    /// Counts the deliveries a [`TcpTransport`] hands out, and fails the
    /// test if one is handed out once the session has failed.
    struct Watched<'a> {
        tcp: &'a mut TcpTransport,
        handed: u64,
    }

    impl Transport for Watched<'_> {
        fn send(&mut self, env: Envelope) {
            self.tcp.send(env);
        }
        fn poll(&mut self) -> Option<(f64, Envelope)> {
            let got = self.tcp.poll();
            if got.is_some() {
                assert!(
                    self.tcp.inner.borrow().error.is_none(),
                    "delivery handed out after detection"
                );
                self.handed += 1;
            }
            got
        }
        fn peek_time(&self) -> Option<f64> {
            self.tcp.peek_time()
        }
        fn open_window(&mut self, start: f64, deadline: f64) {
            self.tcp.open_window(start, deadline);
        }
        fn redeliver(&mut self, env: Envelope) {
            self.tcp.redeliver(env);
        }
        fn idle(&self) -> bool {
            self.tcp.idle()
        }
        fn wire_metrics(&self) -> Option<WireMetrics> {
            self.tcp.wire_metrics()
        }
        fn take_error(&mut self) -> Option<FedError> {
            self.tcp.take_error()
        }
    }

    fn scalar_config(session_seed: u64) -> FederatedMeanConfig {
        let mut cfg = FederatedMeanConfig::new(BasicConfig::new(
            FixedPointCodec::integer(8),
            BitSampling::geometric(8, 1.0),
        ));
        cfg.session_seed = session_seed;
        cfg
    }

    fn values(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 37 + 11) % 230) as f64).collect()
    }

    #[test]
    fn tampered_or_missing_echoes_fail_closed() {
        // More frames than one drain covers, so the bound drain checks the
        // first batch while the driver is still sending.
        const N: usize = SYNC_FRAMES + 44;
        // (tamper, echo k, deliveries handed out): a bad echo in the first
        // batch is caught by the bound drain before anything is handed out;
        // a surplus frame after the last echo, or a missing last echo, only
        // once the timeline runs dry.
        for (tamper, k, expected) in [
            (Tamper::TimeBit, 10, 0),
            (Tamper::PayloadByte, 10, 0),
            (Tamper::ExtraFrame, 10, 0),
            (Tamper::ExtraFrame, N, N),
            (Tamper::CloseEarly, N, N),
        ] {
            let (addr, peer) = scripted_peer(tamper, k);
            let mut tcp = TcpTransport::connect(addr, 7).unwrap();
            for i in 0..N {
                let payload = Message::Hello { round_id: 1 }.encode();
                tcp.send(env(i as u64, i as f64 * 0.5, payload));
            }
            let mut handed = 0;
            loop {
                let got = tcp.poll();
                if tcp.inner.borrow().error.is_some() {
                    assert_eq!(got, None, "{tamper:?}: delivery handed out after detection");
                }
                if got.is_none() {
                    break;
                }
                handed += 1;
            }
            assert_eq!(handed, expected, "{tamper:?} at echo {k}");
            assert_eq!(
                tcp.poll(),
                None,
                "{tamper:?}: failed transport stays silent"
            );
            expect_read_error(tamper, &mut tcp);
            drop(tcp);
            peer.join().unwrap();
        }

        // A whole round over the peer never publishes.
        let cfg = scalar_config(0x5EED);
        let vals = values(300);
        let mut dry = Counting {
            inner: InMemoryTransport::new(7),
            frames: 0,
        };
        RoundBuilder::new(cfg.clone())
            .via(&mut dry)
            .run(&vals)
            .unwrap();
        for tamper in [
            Tamper::TimeBit,
            Tamper::PayloadByte,
            Tamper::ExtraFrame,
            Tamper::CloseEarly,
        ] {
            let k = if matches!(tamper, Tamper::CloseEarly) {
                dry.frames
            } else {
                dry.frames / 2
            };
            let (addr, peer) = scripted_peer(tamper, k);
            let mut tcp = TcpTransport::connect(addr, 7).unwrap();
            let res = RoundBuilder::new(cfg.clone()).via(&mut tcp).run(&vals);
            assert!(
                matches!(res, Err(FedError::Transport { .. })),
                "{tamper:?}: round over a lying peer returned {res:?}"
            );
            drop(tcp);
            peer.join().unwrap();
        }
    }

    #[test]
    fn a_scalar_round_blocks_once_per_batch_not_per_event() {
        let handle = daemon::spawn(DaemonConfig::default()).unwrap();
        let cfg = scalar_config(0xB10C);
        let vals = values(2_000);
        let mut mem = InMemoryTransport::new(3);
        let reference = RoundBuilder::new(cfg.clone())
            .via(&mut mem)
            .run(&vals)
            .unwrap();
        let mut tcp = TcpTransport::connect(handle.addr(), 3).unwrap();
        let over_tcp = RoundBuilder::new(cfg).via(&mut tcp).run(&vals).unwrap();
        assert_eq!(
            reference.flat().unwrap().outcome.estimate.to_bits(),
            over_tcp.flat().unwrap().outcome.estimate.to_bits()
        );
        // One echo per Env/Redeliver frame, plus the handshake's ack.
        let echoes = tcp.wire_metrics().unwrap().frames_received - 1;
        let drains = tcp.inner.borrow().drains;
        let bound = echoes.div_ceil(SYNC_FRAMES as u64) + 4;
        assert!(
            drains <= bound,
            "{drains} blocking drains for {echoes} echoes (bound {bound})"
        );
        tcp.close().unwrap();
        handle.shutdown().unwrap();
    }

    #[test]
    fn a_scalar_round_takes_in_echoes_once_per_k_deliveries_not_per_delivery() {
        let handle = daemon::spawn(DaemonConfig::default()).unwrap();
        let vals = values(2_000);
        let mut tcp = TcpTransport::connect(handle.addr(), 5).unwrap();
        let mut watched = Watched {
            tcp: &mut tcp,
            handed: 0,
        };
        RoundBuilder::new(scalar_config(0x7A1C))
            .via(&mut watched)
            .run(&vals)
            .unwrap();
        let handed = watched.handed;
        let take_ins = tcp.inner.borrow().take_ins;
        // One zero-timeout poll at the first read of the timeline, then at
        // most one per TAKE_IN_EVERY deliveries handed out.
        let bound = handed.div_ceil(TAKE_IN_EVERY as u64) + 1;
        assert!(
            take_ins <= bound,
            "{take_ins} take-ins for {handed} deliveries (bound {bound})"
        );
        assert!(handed > 10 * bound, "only {handed} deliveries");
        tcp.close().unwrap();
        handle.shutdown().unwrap();
    }

    #[test]
    fn a_lie_deep_inside_a_wide_window_still_fails_closed() {
        let cfg = scalar_config(0x1DEE);
        let vals = values(4_000);
        // An honest run through the scripted peer sizes the windows.
        let (addr, peer) = scripted_peer_at(Tamper::PayloadByte, Vec::new());
        let mut tcp = TcpTransport::connect(addr, 7).unwrap();
        let mut watched = Watched {
            tcp: &mut tcp,
            handed: 0,
        };
        RoundBuilder::new(cfg.clone())
            .via(&mut watched)
            .run(&vals)
            .unwrap();
        let honest = watched.handed;
        let wire = tcp.wire_metrics().unwrap();
        drop(tcp);
        peer.join().unwrap();
        // Echoes are numbered from 1; the handshake is not one.
        let frames = (wire.frames_sent - 1) as usize;
        let window =
            SYNC_FRAMES.min(SYNC_BYTES.div_ceil((wire.bytes_sent / wire.frames_sent) as usize));
        assert!(
            frames > 2 * window,
            "{frames} frames fill no second window of {window}"
        );
        let deep = 3 * window / 4;
        let second = window + window / 2;
        for (tamper, ks) in [
            (Tamper::PayloadByte, vec![deep]),
            (Tamper::TimeBit, vec![second]),
            (Tamper::PayloadByte, vec![deep, second]),
        ] {
            let (addr, peer) = scripted_peer_at(tamper, ks.clone());
            let mut tcp = TcpTransport::connect(addr, 7).unwrap();
            let mut watched = Watched {
                tcp: &mut tcp,
                handed: 0,
            };
            let res = RoundBuilder::new(cfg.clone()).via(&mut watched).run(&vals);
            assert!(
                matches!(res, Err(FedError::Transport { op: "read", .. })),
                "{tamper:?} at echoes {ks:?}: round over a lying peer returned {res:?}"
            );
            assert!(
                watched.handed < honest,
                "{tamper:?} at echoes {ks:?}: caught only after the round ran out"
            );
            drop(tcp);
            peer.join().unwrap();
        }
    }

    #[test]
    fn twice_the_echo_window_fits_under_the_daemon_output_bound() {
        // The most echo bytes one window can leave unread on the daemon.
        // An echo holds at most two deliveries (a duplicate) of an envelope
        // no longer than its request's but for two widened varints (the
        // duplicate's or replay's nonce and round tag), each with an 8-byte
        // time, under a tag and a count: less than twice its request plus
        // 64 bytes.
        let echo_window = 2 * SYNC_BYTES + 64 * SYNC_FRAMES;
        let bound = DaemonConfig::default().max_conn_buffer;
        assert!(
            2 * echo_window <= bound,
            "echo window {echo_window} B against the daemon's {bound} B output bound"
        );
    }

    #[test]
    fn an_envelope_at_the_payload_cap_round_trips_and_one_byte_more_fails_typed() {
        // The cap is exact: the echo of a capped payload between the widest
        // addresses fills a frame to the byte.
        let widest = env(u64::MAX, 1.5, vec![0; MAX_ENVELOPE_PAYLOAD]);
        let mut echo = Vec::new();
        push_deliveries(&mut echo, delivery_refs(&[(f64::MAX, widest)]));
        assert_eq!(echo.len(), wire::MAX_FRAME_LEN);

        let handle = daemon::spawn(DaemonConfig::default()).unwrap();
        let mut tcp = TcpTransport::connect(handle.addr(), 9).unwrap();
        let mut mem = InMemoryTransport::new(9);
        let payload: Vec<u8> = (0..MAX_ENVELOPE_PAYLOAD).map(|i| (i * 31) as u8).collect();
        let at_cap = env(u64::MAX - 3, 2.5, payload);
        tcp.send(at_cap.clone());
        mem.send(at_cap);
        let got = tcp.poll().expect("the capped envelope is delivered");
        let want = mem.poll().unwrap();
        assert_eq!(got.0.to_bits(), want.0.to_bits());
        assert!(got.1 == want.1, "the payload came back byte-identical");
        assert!(tcp.idle(), "its echo was verified");
        assert!(tcp.take_error().is_none());
        let sent = tcp.wire_metrics().unwrap();

        tcp.send(env(1, 3.0, vec![7; MAX_ENVELOPE_PAYLOAD + 1]));
        let cap = MAX_ENVELOPE_PAYLOAD.to_string();
        match tcp.take_error() {
            Some(FedError::Transport { op: "send", detail }) => {
                assert!(detail.contains(&cap), "{detail}");
            }
            other => panic!("one byte over the cap returned {other:?}"),
        }
        assert!(tcp.poll().is_none());
        assert_eq!(
            tcp.wire_metrics().unwrap(),
            sent,
            "nothing more was written"
        );
        drop(tcp);
        let snapshot = handle.shutdown().unwrap();
        assert_eq!(snapshot.frames_in, sent.frames_sent);
        assert_eq!(
            snapshot.bytes_in, sent.bytes_sent,
            "the daemon got nothing more"
        );
        assert_eq!(snapshot.protocol_errors, 0);
    }
}
