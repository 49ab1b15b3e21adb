//! [`TcpTransport`]: the [`Transport`] trait over a real TCP socket.
//!
//! Every envelope a session sends is framed (length-delimited
//! `core::wire` frames), written to a live socket, decoded and
//! fault-staged by the [`daemon`](crate::daemon) on the far side, and
//! echoed back as scheduled deliveries that the driver's local
//! discrete-event queue then orders. The split of responsibilities is
//! deliberate:
//!
//! * **the daemon owns the wire** — framing, codec validation, the
//!   per-session [`SimNetTransport`](crate::net::SimNetTransport)-
//!   equivalent fault stage (straggle /
//!   corrupt / duplicate / replay with the replay register), read/idle
//!   timeouts, and wire metrics;
//! * **the driver owns the clock** — the same seeded [`EventQueue`] that
//!   backs [`InMemoryTransport`](crate::net::InMemoryTransport) orders the
//!   echoed deliveries, so tie-breaks, FIFO-per-stream order, and
//!   therefore the published estimate are bit-identical to an in-process
//!   run under the same seed.
//!
//! **Parity contract.** For any session, `TcpTransport::connect(addr,
//! seed)` is observationally identical to `InMemoryTransport::new(seed)`,
//! and [`TcpTransport::connect_for_config`] to
//! [`SimNetTransport::for_config`](crate::net::SimNetTransport::for_config)
//! — every frame genuinely crosses the
//! socket (encoded, fragmented by the kernel, reassembled, decoded,
//! re-encoded) but arrives carrying the same payload at the same virtual
//! time in the same order. The `tcp_parity` suite pins this across plain,
//! secagg, salvage, and hierarchical rounds.
//!
//! **Failure semantics.** The [`Transport`] call surface is infallible, so
//! socket errors (including read timeouts) are recorded internally: the
//! session drains as if the network went silent, and the driver surfaces
//! the typed [`FedError::Transport`] via [`Transport::take_error`] — the
//! [`RoundBuilder`](crate::builder::RoundBuilder) does this automatically.
//!
//! Sends are pipelined: envelopes are buffered and flushed in batches
//! (bounded by `SYNC_BYTES`/`SYNC_FRAMES` so neither peer's socket
//! buffer can fill while the other is still writing), and the matching
//! delivery batches are read back before the next poll. One socket
//! round-trip therefore covers many frames rather than one (measured by
//! the `tcp_campaign` workload of `benchmark/`).

use std::cell::RefCell;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use fednum_core::wire::{
    self, push_f64, read_f64, read_varint, CampaignMessage, FleetMessage, WireError,
};
use fednum_fedsim::error::FedError;
use fednum_fedsim::faults::{FaultPlan, FaultRates};
use fednum_fedsim::round::FederatedMeanConfig;

use crate::net::{Envelope, Transport, WireMetrics};
use crate::scheduler::EventQueue;

/// Wire-protocol version carried in the session handshake.
pub const PROTOCOL_VERSION: u64 = 1;

/// Flush-and-drain once this many encoded bytes are in flight unacked:
/// echoes are roughly request-sized, so this bounds the daemon's pending
/// response bytes far below any platform's socket buffers.
const SYNC_BYTES: usize = 16 * 1024;
/// Flush-and-drain once this many envelope frames are in flight unacked.
const SYNC_FRAMES: usize = 256;

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

fn push_env(out: &mut Vec<u8>, env: &Envelope) {
    wire::push_varint(out, env.from);
    wire::push_varint(out, env.to);
    push_f64(out, env.sent_at);
    wire::push_varint(out, env.payload.len() as u64);
    out.extend_from_slice(&env.payload);
}

fn read_env(buf: &[u8], pos: &mut usize) -> Result<Envelope, WireError> {
    let from = read_varint(buf, pos)?;
    let to = read_varint(buf, pos)?;
    let sent_at = read_f64(buf, pos)?;
    let len = usize::try_from(read_varint(buf, pos)?).map_err(|_| WireError::Truncated)?;
    if len > buf.len().saturating_sub(*pos) {
        return Err(WireError::Truncated);
    }
    let payload = wire::read_bytes(buf, pos, len)?.to_vec();
    Ok(Envelope {
        from,
        to,
        sent_at,
        payload,
    })
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

impl Ctrl {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        match self {
            Ctrl::Hello(h) => {
                out.push(TAG_HELLO);
                wire::push_varint(&mut out, h.version);
                wire::push_varint(&mut out, h.seed);
                wire::push_varint(&mut out, h.round_id);
                out.push(u8::from(h.validate));
                match &h.faults {
                    Some(plan) => {
                        out.push(1);
                        for v in rate_fields(&plan.rates()) {
                            push_f64(&mut out, v);
                        }
                        wire::push_varint(&mut out, plan.seed());
                    }
                    None => out.push(0),
                }
            }
            Ctrl::Env(env) => {
                out.push(TAG_ENV);
                push_env(&mut out, env);
            }
            Ctrl::Window { start, deadline } => {
                out.push(TAG_WINDOW);
                push_f64(&mut out, *start);
                push_f64(&mut out, *deadline);
            }
            Ctrl::Redeliver(env) => {
                out.push(TAG_REDELIVER);
                push_env(&mut out, env);
            }
            Ctrl::Close => out.push(TAG_CLOSE),
            Ctrl::Shutdown => out.push(TAG_SHUTDOWN),
            Ctrl::Campaign(msg) => {
                out.push(TAG_CAMPAIGN);
                msg.encode_into(&mut out);
            }
            Ctrl::RoundRequest {
                round,
                net_seed,
                round_id,
                clients,
            } => {
                out.push(TAG_ROUND_REQUEST);
                wire::push_varint(&mut out, *round);
                wire::push_varint(&mut out, *net_seed);
                wire::push_varint(&mut out, *round_id);
                push_u64_list(&mut out, clients);
            }
            Ctrl::RoundCommit { round } => {
                out.push(TAG_ROUND_COMMIT);
                wire::push_varint(&mut out, *round);
            }
            Ctrl::CampaignAck {
                round_index,
                clients,
                total_bits,
                digest,
            } => {
                out.push(TAG_CAMPAIGN_ACK);
                wire::push_varint(&mut out, *round_index);
                wire::push_varint(&mut out, *clients);
                wire::push_varint(&mut out, *total_bits);
                wire::push_varint(&mut out, *digest);
            }
            Ctrl::RoundAdmit {
                round,
                admitted,
                denied_budget,
                denied_cooldown,
                already_committed,
            } => {
                out.push(TAG_ROUND_ADMIT);
                wire::push_varint(&mut out, *round);
                push_u64_list(&mut out, admitted);
                wire::push_varint(&mut out, *denied_budget);
                wire::push_varint(&mut out, *denied_cooldown);
                out.push(u8::from(*already_committed));
            }
            Ctrl::RoundCommitted {
                round,
                clients_charged,
                digest,
            } => {
                out.push(TAG_ROUND_COMMITTED);
                wire::push_varint(&mut out, *round);
                wire::push_varint(&mut out, *clients_charged);
                wire::push_varint(&mut out, *digest);
            }
            Ctrl::CampaignErr { code, detail } => {
                out.push(TAG_CAMPAIGN_ERR);
                wire::push_varint(&mut out, *code);
                push_str(&mut out, detail);
            }
            Ctrl::HelloAck { session_id } => {
                out.push(TAG_HELLO_ACK);
                wire::push_varint(&mut out, *session_id);
            }
            Ctrl::Deliveries(items) => {
                out.push(TAG_DELIVERIES);
                wire::push_varint(&mut out, items.len() as u64);
                for (at, env) in items {
                    push_f64(&mut out, *at);
                    push_env(&mut out, env);
                }
            }
            Ctrl::Stats(s) => {
                out.push(TAG_STATS);
                wire::push_varint(&mut out, s.frames_in);
                wire::push_varint(&mut out, s.frames_out);
                wire::push_varint(&mut out, s.bytes_in);
                wire::push_varint(&mut out, s.bytes_out);
            }
            Ctrl::ShutdownAck => out.push(TAG_SHUTDOWN_ACK),
            Ctrl::Fleet(msg) => {
                out.push(TAG_FLEET);
                msg.encode_into(&mut out);
            }
        }
        out
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
            TAG_ENV => Ctrl::Env(read_env(buf, &mut pos)?),
            TAG_WINDOW => Ctrl::Window {
                start: read_f64(buf, &mut pos)?,
                deadline: read_f64(buf, &mut pos)?,
            },
            TAG_REDELIVER => Ctrl::Redeliver(read_env(buf, &mut pos)?),
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
                    items.push((at, read_env(buf, &mut pos)?));
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

struct Inner {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    queue: EventQueue<Envelope>,
    /// `Env`/`Redeliver` frames written but whose `Deliveries` response has
    /// not been read back yet.
    outstanding: usize,
    /// Encoded bytes written since the last flush-and-drain.
    unsynced_bytes: usize,
    metrics: WireMetrics,
    error: Option<FedError>,
}

impl Inner {
    /// Configures a connected stream and performs the `Hello` handshake,
    /// returning a fresh session state around it.
    fn handshake(stream: TcpStream, hello: &SessionHello) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(DEFAULT_READ_TIMEOUT))?;
        let mut inner = Inner {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            queue: EventQueue::new(hello.seed),
            outstanding: 0,
            unsynced_bytes: 0,
            metrics: WireMetrics::default(),
            error: None,
        };
        let frame = Ctrl::Hello(*hello).encode();
        wire::write_frame(&mut inner.writer, &frame)?;
        inner.writer.flush()?;
        inner.metrics.frames_sent += 1;
        inner.metrics.bytes_sent += wire::frame_len(frame.len()) as u64;
        let ack = wire::read_frame(&mut inner.reader)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed during handshake",
            )
        })?;
        inner.metrics.frames_received += 1;
        inner.metrics.bytes_received += wire::frame_len(ack.len()) as u64;
        match Ctrl::decode(&ack) {
            Ok(Ctrl::HelloAck { .. }) => Ok(inner),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unexpected handshake response: {other:?}"),
            )),
        }
    }
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
            .reader
            .get_ref()
            .shutdown(std::net::Shutdown::Both)
    }

    /// Overrides the driver-side read timeout (default
    /// [`DEFAULT_READ_TIMEOUT`]); on expiry the session aborts with
    /// [`FedError::Transport`].
    ///
    /// # Errors
    /// Propagates the socket option error.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.inner
            .borrow()
            .reader
            .get_ref()
            .set_read_timeout(timeout)
    }

    /// Closes the session: drains in-flight echoes, then exchanges
    /// `Close` for the daemon's per-session wire totals.
    ///
    /// # Errors
    /// [`FedError::Transport`] if the session already failed or the
    /// close handshake does.
    pub fn close(self) -> Result<SessionStats, FedError> {
        let mut inner = self.inner.into_inner();
        sync(&mut inner);
        if let Some(e) = inner.error.take() {
            return Err(e);
        }
        let io_err = |op: &'static str| {
            move |e: std::io::Error| FedError::Transport {
                op,
                detail: e.to_string(),
            }
        };
        let frame = Ctrl::Close.encode();
        wire::write_frame(&mut inner.writer, &frame).map_err(io_err("write"))?;
        inner.writer.flush().map_err(io_err("write"))?;
        let reply = wire::read_frame(&mut inner.reader)
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
    /// The driver's local event queue is re-seeded to match. If the reply
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
                // independent in-memory rounds is lost.
                let inner = self.inner.get_mut();
                inner.queue = EventQueue::new(net_seed);
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
        sync(inner);
        if let Some(e) = inner.error.take() {
            return Err(e);
        }
        let io_err = |op: &'static str| {
            move |e: std::io::Error| FedError::Transport {
                op,
                detail: e.to_string(),
            }
        };
        let frame = ctrl.encode();
        wire::write_frame(&mut inner.writer, &frame).map_err(io_err("write"))?;
        inner.writer.flush().map_err(io_err("write"))?;
        inner.metrics.frames_sent += 1;
        inner.metrics.bytes_sent += wire::frame_len(frame.len()) as u64;
        let reply = wire::read_frame(&mut inner.reader)
            .map_err(io_err("read"))?
            .ok_or(FedError::Transport {
                op: "read",
                detail: "daemon closed during campaign exchange".into(),
            })?;
        inner.metrics.frames_received += 1;
        inner.metrics.bytes_received += wire::frame_len(reply.len()) as u64;
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

    fn write_ctrl(&mut self, ctrl: &Ctrl, expects_reply: bool) {
        let inner = self.inner.get_mut();
        if inner.error.is_some() {
            return;
        }
        let frame = ctrl.encode();
        let len = wire::frame_len(frame.len());
        if let Err(e) = wire::write_frame(&mut inner.writer, &frame) {
            fail(inner, "write", &e);
            return;
        }
        inner.metrics.frames_sent += 1;
        inner.metrics.bytes_sent += len as u64;
        inner.unsynced_bytes += len;
        if expects_reply {
            inner.outstanding += 1;
        }
        if inner.unsynced_bytes >= SYNC_BYTES || inner.outstanding >= SYNC_FRAMES {
            sync(inner);
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
    // The stream is unrecoverable; stop waiting on echoes that will never
    // arrive so the session drains instead of spinning.
    inner.outstanding = 0;
    inner.unsynced_bytes = 0;
}

/// Flushes buffered sends and reads back one `Deliveries` frame per
/// outstanding envelope, scheduling every echoed delivery on the local
/// queue. On failure the typed error is recorded and the transport goes
/// silent (see module docs).
fn sync(inner: &mut Inner) {
    if inner.error.is_some() {
        return;
    }
    if inner.unsynced_bytes > 0 {
        if let Err(e) = inner.writer.flush() {
            fail(inner, "write", &e);
            return;
        }
        inner.unsynced_bytes = 0;
    }
    while inner.outstanding > 0 {
        let frame = match wire::read_frame(&mut inner.reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => {
                let eof =
                    std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "daemon closed session");
                fail(inner, "read", &eof);
                return;
            }
            Err(e) => {
                fail(inner, "read", &e);
                return;
            }
        };
        inner.metrics.frames_received += 1;
        inner.metrics.bytes_received += wire::frame_len(frame.len()) as u64;
        match Ctrl::decode(&frame) {
            Ok(Ctrl::Deliveries(items)) => {
                for (at, env) in items {
                    inner.queue.push(at, env.from, env);
                }
                inner.outstanding -= 1;
            }
            other => {
                let bad = std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("expected deliveries, got {other:?}"),
                );
                fail(inner, "read", &bad);
                return;
            }
        }
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, env: Envelope) {
        self.write_ctrl(&Ctrl::Env(env), true);
    }

    fn poll(&mut self) -> Option<(f64, Envelope)> {
        let inner = self.inner.get_mut();
        sync(inner);
        inner.queue.pop().map(|s| (s.time, s.item))
    }

    fn peek_time(&self) -> Option<f64> {
        let mut inner = self.inner.borrow_mut();
        sync(&mut inner);
        inner.queue.peek_time()
    }

    fn open_window(&mut self, start: f64, deadline: f64) {
        self.write_ctrl(&Ctrl::Window { start, deadline }, false);
    }

    fn redeliver(&mut self, env: Envelope) {
        self.write_ctrl(&Ctrl::Redeliver(env), true);
    }

    fn idle(&self) -> bool {
        let mut inner = self.inner.borrow_mut();
        sync(&mut inner);
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
    use crate::net::COORDINATOR;
    use fednum_core::wire::varint_len;

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
}
