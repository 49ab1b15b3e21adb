//! A seeded TCP fault-injection proxy for the fleet protocol.
//!
//! [`ChaosProxy`] sits between participants and the `fednumd`
//! coordinator, relays length-delimited control frames in both
//! directions, and injects network faults from a deterministic
//! per-connection schedule derived from one seed: mid-frame connection
//! resets, partial-write stalls, duplicate delivery, byte corruption,
//! arbitrary frame-boundary splits, and per-frame delivery delay. The
//! `fednumx` binary wraps it for shell use; the chaos e2e suite drives it
//! in-process.
//!
//! **Frame-aware, order-preserving.** The proxy reassembles each
//! direction through a [`FrameDecoder`] and re-emits canonical frame
//! bytes, so a "split" is a genuine mid-frame TCP fragmentation and a
//! "duplicate" is a whole extra frame — never interleaved garbage. All
//! queued chunks drain strictly FIFO per direction: a stalled chunk
//! holds every later one back, exactly like a congested TCP stream.
//!
//! **Fault classes.** Each accepted connection rolls one fault class
//! from the configured mix (reset / stall / duplicate / corrupt / none)
//! and a trigger position among its early uplink frames; splits and
//! delay apply to every frame of every connection. The schedule is a
//! pure function of `(seed, connection index)`, so a chaos run is
//! reproducible end to end.
//!
//! * **Reset** — forwards a prefix of the trigger frame (cutting it
//!   mid-frame on the coordinator's side) then closes the participant
//!   side abruptly, with `SO_LINGER(0)` where the platform allows so the
//!   peer sees a real RST rather than an orderly FIN.
//! * **Stall** — delivers a prefix of the trigger frame, holds the
//!   remainder for `stall_ms`, then releases it. Exercises the daemon's
//!   read-progress deadline when the stall outlasts it, and plain
//!   patience when it does not.
//! * **Duplicate** — forwards an extra copy of the first `Report` or
//!   `Heartbeat` at/after the trigger (the idempotent frames; a
//!   duplicated `Rendezvous` would be an honest protocol violation, a
//!   different failure than the delivery fault modeled here). Proves the
//!   daemon's report dedup.
//! * **Corrupt** — overwrites the trigger frame's control tag with an
//!   unassigned byte. The daemon's wire layer must reject the frame
//!   fail-closed: connection dropped, nothing half-applied. (The wire
//!   format carries no payload checksum — a flip that lands on a varint
//!   field would decode as a different legitimate value, which is the
//!   integrity concern TCP's checksum addresses in transit; what the
//!   chaos proxy proves is that *detectable* garbage never half-applies.)

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fednum_core::wire::{self, FleetMessage, FrameDecoder};

use crate::fleet::splitmix64;
use crate::reactor::{self, PollFd, INTEREST_READ, INTEREST_WRITE};
use crate::tcp::Ctrl;

/// Proxy poll granularity — the latency floor on fault timing.
const POLL_TICK_MS: i32 = 2;

/// The unassigned control tag the corrupt fault writes over a frame's
/// real tag, guaranteeing the wire layer rejects it.
pub const CORRUPT_TAG: u8 = 0xEE;

/// How long a resetting link may spend flushing its mid-frame prefix
/// before the proxy gives up and resets anyway.
const RESET_FLUSH_LIMIT: Duration = Duration::from_millis(500);

/// Configuration for [`ChaosProxy::spawn`]. The four fault fractions
/// partition connections by cumulative ranges of one seeded roll, so
/// their sum must stay ≤ 1.0 (the remainder passes through fault-free).
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Bind address for the participant-facing listener (port 0 = OS
    /// pick, see [`ChaosProxy::addr`]).
    pub listen: String,
    /// The real coordinator to relay to.
    pub upstream: String,
    /// Master seed for every per-connection schedule.
    pub seed: u64,
    /// Fraction of connections reset mid-frame.
    pub reset_frac: f64,
    /// Fraction of connections stalled mid-frame for `stall_ms`.
    pub stall_frac: f64,
    /// Fraction of connections that deliver one duplicated frame.
    pub dup_frac: f64,
    /// Fraction of connections that deliver one corrupted frame.
    pub corrupt_frac: f64,
    /// How long a stall holds the remainder of its frame.
    pub stall_ms: u64,
    /// Upper bound on the seeded per-frame delivery delay (0 disables).
    pub delay_ms: u64,
    /// Fragment forwarded frames at seeded byte boundaries.
    pub split_frames: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".to_string(),
            upstream: String::new(),
            seed: 1,
            reset_frac: 0.0,
            stall_frac: 0.0,
            dup_frac: 0.0,
            corrupt_frac: 0.0,
            stall_ms: 400,
            delay_ms: 0,
            split_frames: true,
        }
    }
}

/// The reference fault schedule (`fednumx --reference`): 30% resets, 10%
/// stalls, 5% duplicates, 5% corruptions, everything split and jittered.
#[must_use]
pub fn reference_schedule(upstream: String, seed: u64) -> ChaosConfig {
    ChaosConfig {
        upstream,
        seed,
        reset_frac: 0.30,
        stall_frac: 0.10,
        dup_frac: 0.05,
        corrupt_frac: 0.05,
        stall_ms: 400,
        delay_ms: 5,
        split_frames: true,
        ..ChaosConfig::default()
    }
}

/// Counters the proxy maintains; a fault is counted when it fires, not
/// when it is scheduled (a connection that dies before its trigger frame
/// never counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Connections accepted from participants.
    pub connections: u64,
    /// Mid-frame resets fired.
    pub resets: u64,
    /// Partial-write stalls fired.
    pub stalls: u64,
    /// Frames delivered twice.
    pub dups: u64,
    /// Frames corrupted.
    pub corruptions: u64,
    /// Frames relayed client → coordinator.
    pub frames_up: u64,
    /// Frames relayed coordinator → client.
    pub frames_down: u64,
}

#[derive(Default)]
struct SharedStats {
    connections: AtomicU64,
    resets: AtomicU64,
    stalls: AtomicU64,
    dups: AtomicU64,
    corruptions: AtomicU64,
    frames_up: AtomicU64,
    frames_down: AtomicU64,
}

impl SharedStats {
    fn snapshot(&self) -> ChaosStats {
        ChaosStats {
            connections: self.connections.load(Ordering::Relaxed),
            resets: self.resets.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
            dups: self.dups.load(Ordering::Relaxed),
            corruptions: self.corruptions.load(Ordering::Relaxed),
            frames_up: self.frames_up.load(Ordering::Relaxed),
            frames_down: self.frames_down.load(Ordering::Relaxed),
        }
    }
}

/// Which (single) fault a connection's schedule injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultClass {
    None,
    Reset,
    Stall,
    Dup,
    Corrupt,
}

/// One connection's deterministic fault plan.
#[derive(Debug, Clone, Copy)]
struct FaultPlan {
    class: FaultClass,
    /// Uplink frame index (0-based) at/after which the fault fires.
    /// Always ≥ 1 so the opening `Rendezvous`/`Resume` relays intact and
    /// the session exists before the fault hits it.
    trigger_frame: u64,
    /// Seed for the plan's own byte-position draws.
    seed: u64,
}

impl FaultPlan {
    fn derive(cfg: &ChaosConfig, conn_index: u64) -> Self {
        let s = splitmix64(cfg.seed ^ splitmix64(conn_index ^ 0x00C4_A05C));
        // 53 uniform bits → [0, 1).
        let roll = (s >> 11) as f64 / (1u64 << 53) as f64;
        let mut edge = cfg.reset_frac;
        let mut class = FaultClass::None;
        if roll < edge {
            class = FaultClass::Reset;
        } else {
            edge += cfg.stall_frac;
            if roll < edge {
                class = FaultClass::Stall;
            } else {
                edge += cfg.dup_frac;
                if roll < edge {
                    class = FaultClass::Dup;
                } else if roll < edge + cfg.corrupt_frac {
                    class = FaultClass::Corrupt;
                }
            }
        }
        Self {
            class,
            trigger_frame: 1 + splitmix64(s) % 3,
            seed: splitmix64(s ^ 0x0F42),
        }
    }
}

/// One direction of a proxied connection: frames decoded from `src`,
/// re-emitted (possibly split, delayed, faulted) toward `dst` through a
/// strictly FIFO chunk queue.
struct Relay {
    decoder: FrameDecoder,
    /// `(due, bytes)` chunks; only the front chunk is ever written, and
    /// only once due — head-of-line blocking is the point.
    queue: VecDeque<(Instant, Vec<u8>)>,
    written: usize,
    frames: u64,
    eof: bool,
    /// EOF propagated to `dst` (write half shut down).
    shut: bool,
}

impl Relay {
    fn new() -> Self {
        Self {
            decoder: FrameDecoder::new(),
            queue: VecDeque::new(),
            written: 0,
            frames: 0,
            eof: false,
            shut: false,
        }
    }

    fn pending(&self) -> bool {
        !self.queue.is_empty()
    }

    fn push(&mut self, due: Instant, bytes: Vec<u8>) {
        // Never let a later chunk jump an earlier one's deadline.
        let due = self.queue.back().map_or(due, |(prev, _)| due.max(*prev));
        self.queue.push_back((due, bytes));
    }

    /// Writes due chunks to `dst` until it blocks. `false` on a dead
    /// destination.
    fn flush(&mut self, dst: &TcpStream, now: Instant) -> bool {
        while let Some((due, chunk)) = self.queue.front() {
            if now < *due {
                return true;
            }
            match (&mut { dst }).write(&chunk[self.written..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.written += n;
                    if self.written == chunk.len() {
                        self.written = 0;
                        self.queue.pop_front();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }
}

/// One proxied participant connection: the client socket, the matching
/// upstream socket, and the two relays between them.
struct Link {
    client: TcpStream,
    upstream: TcpStream,
    up: Relay,
    down: Relay,
    plan: FaultPlan,
    fault_fired: bool,
    /// Reset scheduled: flush the uplink prefix, then RST the client.
    resetting_since: Option<Instant>,
}

impl Link {
    /// Relays one complete uplink frame, applying the scheduled fault if
    /// this is its trigger. Returns `false` when the link must die (the
    /// reset fault).
    fn relay_up(&mut self, payload: &[u8], now: Instant, stats: &SharedStats, cfg: &ChaosConfig) {
        let frame_idx = self.up.frames;
        self.up.frames += 1;
        stats.frames_up.fetch_add(1, Ordering::Relaxed);
        let mut bytes = Vec::with_capacity(payload.len() + 4);
        wire::write_frame(&mut bytes, payload)
            .expect("relayed frames already fit under MAX_FRAME_LEN");
        let due = delayed(now, cfg, self.plan.seed, frame_idx);

        if !self.fault_fired && frame_idx >= self.plan.trigger_frame {
            let cut = cut_point(self.plan.seed, bytes.len());
            match self.plan.class {
                FaultClass::Reset => {
                    self.fault_fired = true;
                    stats.resets.fetch_add(1, Ordering::Relaxed);
                    // Forward only the prefix: the coordinator is left
                    // holding a half-delivered frame when the RST lands.
                    bytes.truncate(cut);
                    self.up.push(due, bytes);
                    self.resetting_since = Some(now);
                    return;
                }
                FaultClass::Stall => {
                    self.fault_fired = true;
                    stats.stalls.fetch_add(1, Ordering::Relaxed);
                    let tail = bytes.split_off(cut);
                    self.up.push(due, bytes);
                    self.up
                        .push(due + Duration::from_millis(cfg.stall_ms), tail);
                    return;
                }
                FaultClass::Dup => {
                    // Only the idempotent frames are eligible; hold the
                    // trigger until one passes.
                    if matches!(
                        Ctrl::decode(payload),
                        Ok(Ctrl::Fleet(
                            FleetMessage::Report { .. } | FleetMessage::Heartbeat { .. }
                        ))
                    ) {
                        self.fault_fired = true;
                        stats.dups.fetch_add(1, Ordering::Relaxed);
                        self.up.push(due, bytes.clone());
                        self.up.push(due, bytes);
                        return;
                    }
                }
                FaultClass::Corrupt => {
                    self.fault_fired = true;
                    stats.corruptions.fetch_add(1, Ordering::Relaxed);
                    let mut garbled = payload.to_vec();
                    garbled[0] = CORRUPT_TAG;
                    let mut frame = Vec::with_capacity(garbled.len() + 4);
                    wire::write_frame(&mut frame, &garbled)
                        .expect("same length as the original frame");
                    self.push_split(true, due, frame, cfg, frame_idx);
                    return;
                }
                FaultClass::None => {}
            }
        }
        self.push_split(true, due, bytes, cfg, frame_idx);
    }

    fn relay_down(&mut self, payload: &[u8], now: Instant, stats: &SharedStats, cfg: &ChaosConfig) {
        let frame_idx = self.down.frames;
        self.down.frames += 1;
        stats.frames_down.fetch_add(1, Ordering::Relaxed);
        let mut bytes = Vec::with_capacity(payload.len() + 4);
        wire::write_frame(&mut bytes, payload)
            .expect("relayed frames already fit under MAX_FRAME_LEN");
        let due = delayed(now, cfg, self.plan.seed ^ 0xD0, frame_idx);
        self.push_split(false, due, bytes, cfg, frame_idx);
    }

    /// Queues frame bytes, fragmenting roughly every fourth frame at a
    /// seeded boundary when splitting is on.
    fn push_split(
        &mut self,
        up: bool,
        due: Instant,
        mut bytes: Vec<u8>,
        cfg: &ChaosConfig,
        idx: u64,
    ) {
        let relay = if up { &mut self.up } else { &mut self.down };
        let r = splitmix64(self.plan.seed ^ (idx << 1) ^ u64::from(up));
        if cfg.split_frames && bytes.len() > 1 && r.is_multiple_of(4) {
            let cut = 1 + (splitmix64(r) as usize) % (bytes.len() - 1);
            let tail = bytes.split_off(cut);
            relay.push(due, bytes);
            relay.push(due, tail);
        } else {
            relay.push(due, bytes);
        }
    }
}

/// Seeded per-frame delivery delay.
fn delayed(now: Instant, cfg: &ChaosConfig, seed: u64, frame_idx: u64) -> Instant {
    if cfg.delay_ms == 0 {
        return now;
    }
    now + Duration::from_millis(splitmix64(seed ^ (frame_idx << 8)) % (cfg.delay_ms + 1))
}

/// A mid-frame cut position in `1..len` (frames are ≥ 2 bytes: header
/// byte + tag).
fn cut_point(seed: u64, len: usize) -> usize {
    if len <= 1 {
        return len;
    }
    1 + (splitmix64(seed ^ 0xC07) as usize) % (len - 1)
}

/// Arranges for the peer to see an RST instead of a FIN when `stream`
/// drops: `SO_LINGER` with a zero timeout. Best-effort and Linux-only —
/// elsewhere the drop degrades to an orderly close, which the reconnect
/// path handles identically.
fn set_linger_reset(stream: &TcpStream) {
    #[cfg(target_os = "linux")]
    {
        use std::os::raw::{c_int, c_void};
        use std::os::unix::io::AsRawFd;
        #[repr(C)]
        struct Linger {
            l_onoff: c_int,
            l_linger: c_int,
        }
        extern "C" {
            fn setsockopt(
                fd: c_int,
                level: c_int,
                optname: c_int,
                optval: *const c_void,
                optlen: u32,
            ) -> c_int;
        }
        const SOL_SOCKET: c_int = 1;
        const SO_LINGER: c_int = 13;
        let linger = Linger {
            l_onoff: 1,
            l_linger: 0,
        };
        // SAFETY: fd is a live socket owned by `stream`; the option
        // struct matches the kernel's `struct linger` layout and outlives
        // the call.
        unsafe {
            setsockopt(
                stream.as_raw_fd(),
                SOL_SOCKET,
                SO_LINGER,
                std::ptr::addr_of!(linger).cast(),
                std::mem::size_of::<Linger>() as u32,
            );
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = stream;
}

/// A running fault-injection proxy. Dropping the handle leaks the
/// thread; call [`shutdown`](Self::shutdown) for a clean join.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<SharedStats>,
    thread: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds the listener and starts the relay loop on its own thread.
    ///
    /// # Errors
    /// Socket errors binding the listener (the upstream is dialed
    /// per-connection, so a dead upstream surfaces as refused client
    /// connections, not a spawn failure).
    pub fn spawn(cfg: ChaosConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cfg.listen)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(SharedStats::default());
        let thread = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("fednumx-relay".to_string())
                .spawn(move || relay_loop(&listener, &cfg, &stop, &stats))?
        };
        Ok(Self {
            addr,
            stop,
            stats,
            thread: Some(thread),
        })
    }

    /// The participant-facing listen address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> ChaosStats {
        self.stats.snapshot()
    }

    /// Stops the relay loop, joins the thread, and returns the final
    /// counters.
    ///
    /// # Errors
    /// An `Other` I/O error if the relay thread panicked.
    pub fn shutdown(mut self) -> std::io::Result<ChaosStats> {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            thread
                .join()
                .map_err(|_| std::io::Error::other("fednumx relay thread panicked"))?;
        }
        Ok(self.stats.snapshot())
    }
}

fn relay_loop(listener: &TcpListener, cfg: &ChaosConfig, stop: &AtomicBool, stats: &SharedStats) {
    let mut links: Vec<Option<Link>> = Vec::new();
    let mut conn_index = 0u64;
    let mut buf = [0u8; 16 * 1024];

    while !stop.load(Ordering::SeqCst) {
        // Readiness set: listener first, then client/upstream per link.
        // Readiness is only a wakeup hint here: every live link is
        // serviced each tick with nonblocking I/O, so delayed/stalled
        // chunks release on time even with no socket events.
        let mut fds = vec![PollFd::new(raw_fd(listener), INTEREST_READ)];
        for link in links.iter().flatten() {
            let mut ci = INTEREST_READ;
            if link.down.pending() {
                ci |= INTEREST_WRITE;
            }
            let mut ui = INTEREST_READ;
            if link.up.pending() {
                ui |= INTEREST_WRITE;
            }
            fds.push(PollFd::new(raw_fd(&link.client), ci));
            fds.push(PollFd::new(raw_fd(&link.upstream), ui));
        }
        if reactor::wait(&mut fds, POLL_TICK_MS).is_err() {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        let now = Instant::now();

        // Accept: one upstream dial per client connection.
        if fds[0].readable() {
            loop {
                match listener.accept() {
                    Ok((client, _)) => {
                        let upstream = TcpStream::connect(&cfg.upstream).and_then(|u| {
                            u.set_nodelay(true)?;
                            u.set_nonblocking(true)?;
                            client.set_nodelay(true)?;
                            client.set_nonblocking(true)?;
                            Ok(u)
                        });
                        let Ok(upstream) = upstream else {
                            // Upstream refused: drop the client, it will
                            // back off and retry.
                            continue;
                        };
                        let plan = FaultPlan::derive(cfg, conn_index);
                        conn_index += 1;
                        stats.connections.fetch_add(1, Ordering::Relaxed);
                        links.push(Some(Link {
                            client,
                            upstream,
                            up: Relay::new(),
                            down: Relay::new(),
                            plan,
                            fault_fired: false,
                            resetting_since: None,
                        }));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        for entry in links.iter_mut() {
            let Some(link) = entry.as_mut() else {
                continue;
            };
            let mut dead = false;

            // Drain reads on both sides (readiness is advisory; reads are
            // nonblocking, so just try).
            for up in [true, false] {
                if link.resetting_since.is_some() {
                    break; // No further reads on a resetting link.
                }
                let (src, relay_eof) = if up {
                    (&link.client, link.up.eof)
                } else {
                    (&link.upstream, link.down.eof)
                };
                if relay_eof {
                    continue;
                }
                let mut fed = Vec::new();
                loop {
                    match (&mut { src }).read(&mut buf) {
                        Ok(0) => {
                            if up {
                                link.up.eof = true;
                            } else {
                                link.down.eof = true;
                            }
                            break;
                        }
                        Ok(n) => fed.extend_from_slice(&buf[..n]),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            dead = true;
                            break;
                        }
                    }
                }
                if dead {
                    break;
                }
                if fed.is_empty() {
                    continue;
                }
                if up {
                    link.up.decoder.feed(&fed);
                } else {
                    link.down.decoder.feed(&fed);
                }
                loop {
                    let next = if up {
                        link.up.decoder.next_frame()
                    } else {
                        link.down.decoder.next_frame()
                    };
                    match next {
                        Ok(Some(payload)) => {
                            if up {
                                link.relay_up(&payload, now, stats, cfg);
                                if link.resetting_since.is_some() {
                                    // The reset fault truncated this frame
                                    // mid-queue; relaying any later frame
                                    // from the same read batch would land
                                    // after the cut and desync the
                                    // coordinator's framing.
                                    break;
                                }
                            } else {
                                link.relay_down(&payload, now, stats, cfg);
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            // Unframeable garbage: kill the link, both
                            // peers see a hangup.
                            dead = true;
                            break;
                        }
                    }
                }
                if dead || link.resetting_since.is_some() {
                    break;
                }
            }

            // Flush both queues.
            if !dead && (!link.up.flush(&link.upstream, now) || !link.down.flush(&link.client, now))
            {
                dead = true;
            }

            // Reset fault: once the mid-frame prefix is out (or the
            // flush limit passed), RST the client and drop the link.
            if let Some(since) = link.resetting_since {
                if !link.up.pending() || now.duration_since(since) > RESET_FLUSH_LIMIT {
                    set_linger_reset(&link.client);
                    dead = true;
                }
            }

            // EOF propagation: a drained direction passes its EOF on.
            if !dead {
                for up in [true, false] {
                    let (relay, dst) = if up {
                        (&mut link.up, &link.upstream)
                    } else {
                        (&mut link.down, &link.client)
                    };
                    if relay.eof && !relay.pending() && !relay.shut {
                        relay.shut = true;
                        let _ = dst.shutdown(Shutdown::Write);
                    }
                }
                if link.up.shut && link.down.shut {
                    dead = true;
                }
            }

            if dead {
                *entry = None;
            }
        }
        // Compact trailing tombstones; interior ones are cheap to skip
        // and keep slot indices stable within the pass.
        while matches!(links.last(), Some(None)) {
            links.pop();
        }
    }
}

#[cfg(unix)]
fn raw_fd<T: std::os::unix::io::AsRawFd>(socket: &T) -> i32 {
    socket.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_socket: &T) -> i32 {
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frame-oblivious echo server: whatever bytes arrive go straight
    /// back. Since both directions carry the same framed stream, the
    /// proxy decodes cleanly on each side.
    fn spawn_echo() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            while let Ok((mut stream, _)) = listener.accept() {
                loop {
                    match stream.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if stream.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
            }
        });
        (addr, handle)
    }

    fn sample_frames(n: u64) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                Ctrl::Fleet(FleetMessage::Heartbeat {
                    session_token: 0xFEED,
                    seq: i,
                })
                .encode()
            })
            .collect()
    }

    fn send_frames(stream: &mut TcpStream, payloads: &[Vec<u8>]) {
        let mut out = Vec::new();
        for p in payloads {
            wire::write_frame(&mut out, p).unwrap();
        }
        stream.write_all(&out).unwrap();
    }

    fn read_frames(stream: &mut TcpStream, want: usize, budget_ms: u64) -> Vec<Vec<u8>> {
        let deadline = Instant::now() + Duration::from_millis(budget_ms);
        stream
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        let mut buf = [0u8; 4096];
        while got.len() < want && Instant::now() < deadline {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    decoder.feed(&buf[..n]);
                    while let Ok(Some(frame)) = decoder.next_frame() {
                        got.push(frame.to_vec());
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => break,
            }
        }
        got
    }

    fn proxy_with(mutate: impl FnOnce(&mut ChaosConfig)) -> (ChaosProxy, JoinHandle<()>) {
        let (echo, handle) = spawn_echo();
        let mut cfg = ChaosConfig {
            upstream: echo.to_string(),
            seed: 11,
            ..ChaosConfig::default()
        };
        mutate(&mut cfg);
        (ChaosProxy::spawn(cfg).unwrap(), handle)
    }

    #[test]
    fn passthrough_preserves_every_frame_in_order() {
        let (proxy, _echo) = proxy_with(|c| {
            c.delay_ms = 3;
            c.split_frames = true;
        });
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        let frames = sample_frames(12);
        send_frames(&mut stream, &frames);
        let got = read_frames(&mut stream, 12, 3_000);
        assert_eq!(got, frames, "splits and delays must not corrupt frames");
        let stats = proxy.shutdown().unwrap();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.frames_up, 12);
        assert_eq!(
            stats.resets + stats.stalls + stats.dups + stats.corruptions,
            0
        );
    }

    #[test]
    fn reset_cuts_the_connection_mid_frame() {
        let (proxy, _echo) = proxy_with(|c| c.reset_frac = 1.0);
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        let frames = sample_frames(6);
        send_frames(&mut stream, &frames);
        // The trigger frame (1..=3) never echoes back whole; the read
        // loop ends early on the reset.
        let got = read_frames(&mut stream, 6, 3_000);
        assert!(got.len() < 6, "reset must cut delivery, got {}", got.len());
        let stats = proxy.stats();
        assert_eq!(stats.resets, 1);
        proxy.shutdown().unwrap();
    }

    #[test]
    fn stall_delays_but_delivers_intact() {
        let (proxy, _echo) = proxy_with(|c| {
            c.stall_frac = 1.0;
            c.stall_ms = 300;
        });
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        let frames = sample_frames(5);
        let start = Instant::now();
        send_frames(&mut stream, &frames);
        let got = read_frames(&mut stream, 5, 5_000);
        assert_eq!(got, frames, "a stall reorders nothing and loses nothing");
        assert!(
            start.elapsed() >= Duration::from_millis(300),
            "the stalled frame held the line"
        );
        assert_eq!(proxy.shutdown().unwrap().stalls, 1);
    }

    #[test]
    fn duplicate_delivers_the_idempotent_frame_twice() {
        let (proxy, _echo) = proxy_with(|c| c.dup_frac = 1.0);
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        let frames = sample_frames(4);
        send_frames(&mut stream, &frames);
        let got = read_frames(&mut stream, 5, 3_000);
        assert_eq!(got.len(), 5, "exactly one extra copy");
        let stats = proxy.shutdown().unwrap();
        assert_eq!(stats.dups, 1);
        // Every received frame is one of the sent ones, verbatim.
        for frame in &got {
            assert!(frames.contains(frame));
        }
    }

    #[test]
    fn corruption_is_rejected_fail_closed_by_the_wire_layer() {
        let (proxy, _echo) = proxy_with(|c| c.corrupt_frac = 1.0);
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        let frames = sample_frames(5);
        send_frames(&mut stream, &frames);
        let got = read_frames(&mut stream, 5, 3_000);
        assert_eq!(got.len(), 5);
        let garbled: Vec<&Vec<u8>> = got.iter().filter(|f| f[0] == CORRUPT_TAG).collect();
        assert_eq!(garbled.len(), 1, "exactly one frame corrupted");
        // The wire layer rejects the garbled control frame outright —
        // nothing decodes, nothing half-applies.
        assert!(Ctrl::decode(garbled[0]).is_err());
        assert_eq!(proxy.shutdown().unwrap().corruptions, 1);
    }

    #[test]
    fn schedules_are_deterministic_in_the_seed() {
        let cfg = reference_schedule("127.0.0.1:1".to_string(), 42);
        for idx in 0..64 {
            let a = FaultPlan::derive(&cfg, idx);
            let b = FaultPlan::derive(&cfg, idx);
            assert_eq!(a.class, b.class);
            assert_eq!(a.trigger_frame, b.trigger_frame);
        }
        // The reference mix actually produces each class over 64 conns.
        let classes: Vec<FaultClass> = (0..64).map(|i| FaultPlan::derive(&cfg, i).class).collect();
        for class in [FaultClass::Reset, FaultClass::Stall, FaultClass::None] {
            assert!(classes.contains(&class), "missing {class:?} in {classes:?}");
        }
    }
}
