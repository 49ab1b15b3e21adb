//! The outside-in per-layer cost model.
//!
//! [`decomposed_round`] performs one batched round by hand, calling each
//! layer's public functions in the order the transport engine does and on
//! the workload's own inputs: codec -> pool shuffle -> `BitSampling::assign`
//! -> dropout and randomized response -> `BitPlanes::record` ->
//! `BatchReportMessage` encode -> `FrameDecoder` -> decode -> `merge` ->
//! `counts` (or the secure-aggregation plane tally) -> estimate. It draws
//! from the RNG in the engine's order, so its estimate is bit-identical to
//! `RoundBuilder::run` for the same seed; that identity is checked, which
//! is what entitles the sum of its spans to be subtracted from the engine's
//! span as the engine's self time.
//!
//! The remaining functions are probes: micro-measurements of one layer's
//! public function on inputs shaped like the workload's.

use std::collections::BTreeMap;
use std::hint::black_box;

use fednum::core::accumulator::BitAccumulator;
use fednum::core::bits::bit;
use fednum::core::privacy::durable::DurableLedger;
use fednum::core::protocol::basic::BasicBitPushing;
use fednum::core::wire::{
    self, BatchReportMessage, CampaignMessage, FleetMessage, FrameDecoder, ReportMessage,
};
use fednum::fedsim::dropout::Fate;
use fednum::fedsim::round::{FederatedMeanConfig, SecAggSettings};
use fednum::secagg::masking::accumulate_mask;
use fednum::secagg::protocol::{run_secure_aggregation_planes, DropoutPlan, SecAggConfig};
use fednum::secagg::shamir::{reconstruct, share};
use fednum::secagg::Fe;
use fednum::transport::reactor::{self, PollFd, INTEREST_READ};
use fednum::transport::{
    Envelope, EventQueue, FleetConfig, FleetEngine, InMemoryTransport, RoundBuilder, Transport,
    COORDINATOR,
};
use fednum::BitPlanes;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::sys::{median, now_ns, timed};
use crate::trace::Tracer;

/// What a decomposed round produced and where its time went.
pub struct Decomposed {
    pub estimate: f64,
    /// Nanoseconds per step, keyed by span name.
    pub step_ns: BTreeMap<&'static str, f64>,
}

impl Decomposed {
    /// Time spent inside library layers: every step except the pool
    /// shuffle, which the engine performs inline.
    pub fn layer_ns(&self) -> f64 {
        self.step_ns
            .iter()
            .filter(|(name, _)| **name != "pool_shuffle")
            .map(|(_, ns)| ns)
            .sum()
    }
}

/// One batched round by hand (see the module docs). `secagg` switches the
/// tally to the secure-aggregation plane path.
pub fn decomposed_round(
    cfg: &FederatedMeanConfig,
    values: &[f64],
    seed: u64,
    chunk: usize,
    secagg: Option<SecAggSettings>,
    tracer: &mut Tracer,
    round_id: u64,
) -> Decomposed {
    let mut step_ns: BTreeMap<&'static str, f64> = BTreeMap::new();
    let root = tracer.begin("decomposed_round", None, round_id);
    let parent = tracer.parent(root);
    macro_rules! step {
        ($name:literal, $body:expr) => {{
            let id = tracer.begin($name, parent, round_id);
            let t0 = now_ns();
            let out = $body;
            *step_ns.entry($name).or_insert(0.0) += (now_ns() - t0) as f64;
            tracer.end(id);
            out
        }};
    }

    let bits = cfg.protocol.codec.bits();
    let mut rng = StdRng::seed_from_u64(seed);
    let rng: &mut dyn Rng = &mut rng;

    let (codes, clip_fraction) = step!("encode", cfg.protocol.codec.encode_all(values));
    let pool = step!("pool_shuffle", {
        let mut pool: Vec<usize> = (0..codes.len()).collect();
        pool.shuffle(rng);
        pool
    });
    let assignment = step!(
        "assign",
        cfg.protocol
            .sampling
            .assign(cfg.protocol.assignment, pool.len(), rng)
    );
    // Dropout, bit extraction and randomized response share one loop, as
    // in the engine: splitting them would change the RNG draw order.
    let staged: Vec<Option<(u32, bool)>> = step!("client_model", {
        pool.iter()
            .zip(&assignment)
            .map(|(&client, &j)| {
                if cfg.dropout.sample(rng) == Fate::DropsBeforeReport {
                    return None;
                }
                let raw = bit(codes[client], j);
                Some((
                    j,
                    match &cfg.protocol.privacy {
                        Some(rr) => rr.flip(raw, rng),
                        None => raw,
                    },
                ))
            })
            .collect()
    });
    let chunks: Vec<BitPlanes> = step!("record", {
        staged
            .chunks(chunk)
            .map(|slots| {
                let mut planes = BitPlanes::new(bits, slots.len());
                for (s, entry) in slots.iter().enumerate() {
                    if let Some((j, sent)) = entry {
                        planes.record(s, *j, *sent);
                    }
                }
                planes
            })
            .collect()
    });
    let stream: Vec<u8> = step!("batch_encode", {
        let mut stream = Vec::new();
        for planes in chunks {
            let payload = BatchReportMessage {
                task_id: cfg.session_seed,
                planes,
            }
            .encode();
            wire::write_frame(&mut stream, &payload).expect("Vec write");
        }
        stream
    });
    let frames: Vec<Vec<u8>> = step!("frame_decode", {
        let mut decoder = FrameDecoder::new();
        let mut frames = Vec::new();
        // Fed in socket-read-sized pieces, as the daemon's reactor does.
        for piece in stream.chunks(16 * 1024) {
            decoder.feed(piece);
            while let Some(frame) = decoder.next_frame().expect("own frames decode") {
                frames.push(frame);
            }
        }
        frames
    });
    let decoded: Vec<BitPlanes> = step!("batch_decode", {
        frames
            .iter()
            .map(|f| {
                BatchReportMessage::decode(f)
                    .expect("own batch decodes")
                    .planes
            })
            .collect()
    });
    let round_planes = step!("merge", {
        let mut round_planes = BitPlanes::new(bits, 0);
        for planes in &decoded {
            round_planes.merge(planes);
        }
        round_planes
    });
    let (ones, counts) = match secagg {
        None => step!("counts", (round_planes.ones(), round_planes.counts())),
        Some(settings) => step!("secagg_tally", {
            let n = staged.len();
            let mut plan = DropoutPlan::none();
            for (i, entry) in staged.iter().enumerate() {
                if entry.is_none() {
                    plan.before_masking.insert(i);
                }
            }
            let threshold = ((settings.threshold_fraction * n as f64).ceil() as usize).clamp(1, n);
            let mut sa = SecAggConfig::new(n, threshold, 2 * bits as usize, cfg.session_seed);
            if let Some(k) = settings.neighbors {
                sa = sa.with_neighbors(k);
            }
            let out = run_secure_aggregation_planes(&sa, &round_planes, &plan)
                .expect("10 % dropout is recoverable");
            let (ones, counts) = out.sum.split_at(bits as usize);
            (ones.to_vec(), counts.to_vec())
        }),
    };
    let outcome = step!("estimate", {
        let sums = ones
            .iter()
            .zip(&counts)
            .map(|(&o, &c)| match (&cfg.protocol.privacy, c) {
                (_, 0) => 0.0,
                (Some(rr), c) => c as f64 * rr.debias_mean(o as f64 / c as f64),
                (None, _) => o as f64,
            })
            .collect();
        let acc = BitAccumulator::from_parts(sums, counts.clone());
        BasicBitPushing::new(cfg.protocol.clone()).finish(acc, clip_fraction)
    });
    tracer.end(root);
    Decomposed {
        estimate: outcome.estimate,
        step_ns,
    }
}

/// `RandomizedResponse::flip` alone, over `n` bits.
pub fn rr_ns_per_bit(cfg: &FederatedMeanConfig, n: usize, seed: u64) -> f64 {
    let Some(rr) = &cfg.protocol.privacy else {
        return 0.0;
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let (ones, ns) = timed(|| (0..n).filter(|i| rr.flip(i & 1 == 1, &mut rng)).count());
    black_box(ones);
    ns / n as f64
}

/// `BitPlanes::{ones,counts}_masked` under a survivor bitmap with every
/// tenth slot cleared, over planes shaped like the round's.
pub fn counts_masked_ns_per_client(bits: u32, slots: usize) -> f64 {
    let mut planes = BitPlanes::new(bits, slots);
    for s in 0..slots {
        planes.record(s, (s % bits as usize) as u32, s % 3 == 0);
    }
    let mut keep = vec![0u64; planes.words_per_plane()];
    for s in (0..slots).filter(|s| s % 10 != 0) {
        keep[s / 64] |= 1 << (s % 64);
    }
    let samples: Vec<f64> = (0..9)
        .map(|_| timed(|| black_box((planes.ones_masked(&keep), planes.counts_masked(&keep)))).1)
        .collect();
    median(&samples) / slots as f64
}

/// What the share-level protocol pays per client and per dropout, which
/// the plane path skips: one client's PRG mask over its ring neighbours,
/// stripping one self mask at unmask, and Shamir-sharing then
/// reconstructing one dropped client's 64-bit secret among its holders.
/// Returns `(mask_ns, unmask_ns, shamir_us)`.
pub fn secagg_primitives(
    settings: SecAggSettings,
    vector_len: usize,
    seed: u64,
) -> (f64, f64, f64) {
    let degree = settings.neighbors.unwrap_or(64);
    let clients = 200u64;
    let mut y = vec![Fe::ZERO; vector_len];
    let ((), mask_ns) = timed(|| {
        for i in 0..clients {
            accumulate_mask(&mut y, seed ^ i, false);
            for j in 0..degree as u64 {
                accumulate_mask(&mut y, seed ^ (i << 20) ^ j, j & 1 == 1);
            }
        }
    });
    let ((), unmask_ns) = timed(|| {
        for i in 0..clients {
            accumulate_mask(&mut y, seed ^ i, true);
        }
    });
    black_box(&y);
    let holders = degree + 1;
    let k = holders.div_ceil(2);
    let mut rng = StdRng::seed_from_u64(seed);
    let dropouts = 50u64;
    let ((), shamir_ns) = timed(|| {
        for d in 0..dropouts {
            // A u64 secret travels as two field elements (lo, hi).
            for half in [d & 0xFFFF_FFFF, d >> 32] {
                let shares = share(Fe::new(half), k, holders, &mut rng);
                black_box(reconstruct(&shares[..k]));
            }
        }
    });
    (
        mask_ns / clients as f64,
        unmask_ns / clients as f64,
        shamir_ns / dropouts as f64 / 1e3,
    )
}

/// `EventQueue` push then pop, per event, at the queue depth one chunked
/// round reaches.
pub fn scheduler_push_pop_ns(events: usize, seed: u64) -> f64 {
    let mut q = EventQueue::new(seed);
    let ((), ns) = timed(|| {
        for i in 0..events {
            q.push(i as f64 * 3e-9, (i % 2048) as u64, i);
        }
        while let Some(e) = q.pop() {
            black_box(e.item);
        }
    });
    ns / events as f64
}

/// `InMemoryTransport` send then poll, per envelope, with a payload the
/// size of one scalar report frame.
pub fn inmemory_ns_per_envelope(envelopes: usize, seed: u64) -> f64 {
    let mut t = InMemoryTransport::new(seed);
    let ((), ns) = timed(|| {
        for i in 0..envelopes {
            t.send(Envelope {
                from: i as u64,
                to: COORDINATOR,
                sent_at: i as f64 * 3e-9,
                payload: vec![0u8; 12],
            });
        }
        while let Some((_, env)) = t.poll() {
            black_box(env.from);
        }
    });
    ns / envelopes as f64
}

/// One scalar-wire round over `InMemoryTransport`: the engine the
/// per-client TCP path runs, without the socket. Predicts `tcp_campaign`.
pub fn scalar_ns_per_client(cfg: &FederatedMeanConfig, values: &[f64], seed: u64) -> f64 {
    let mut t = InMemoryTransport::new(seed);
    let (out, ns) = timed(|| {
        RoundBuilder::new(cfg.clone())
            .seed(seed)
            .via(&mut t)
            .run(values)
    });
    black_box(out.map(|o| o.estimate()).unwrap_or(0.0));
    ns / values.len() as f64
}

/// `ReportMessage` encode and decode, and `FrameDecoder` over the framed
/// stream, per scalar report frame. Returns `(encode, decode, framing)`.
pub fn report_codec_ns(frames: usize) -> (f64, f64, f64) {
    let msgs: Vec<ReportMessage> = (0..frames)
        .map(|i| ReportMessage {
            task_id: 0xF3D5 + (i as u64 % 7),
            reports: vec![((i % 10) as u8, i % 3 == 0)],
        })
        .collect();
    let (payloads, enc_ns) = timed(|| msgs.iter().map(ReportMessage::encode).collect::<Vec<_>>());
    let mut stream = Vec::new();
    for p in &payloads {
        wire::write_frame(&mut stream, p).expect("Vec write");
    }
    let (split, frame_ns) = timed(|| {
        let mut decoder = FrameDecoder::new();
        let mut out = Vec::with_capacity(frames);
        for piece in stream.chunks(16 * 1024) {
            decoder.feed(piece);
            while let Some(f) = decoder.next_frame().expect("own frames decode") {
                out.push(f);
            }
        }
        out
    });
    let (decoded, dec_ns) = timed(|| {
        split
            .iter()
            .filter(|f| ReportMessage::decode(f).is_ok())
            .count()
    });
    assert_eq!(decoded, frames, "every report frame decodes");
    let n = frames as f64;
    (enc_ns / n, dec_ns / n, frame_ns / n)
}

/// `FleetMessage` encode and decode per frame, over the mix one fleet
/// round sends. Returns `(encode, decode)`.
pub fn fleet_codec_ns(frames: usize) -> (f64, f64) {
    let msgs: Vec<FleetMessage> = (0..frames as u64)
        .map(|i| match i % 4 {
            0 => FleetMessage::CohortAssign {
                round: i / 500,
                bit_index: (i % 10) as u32,
                bits: 10,
                value_seed: 7,
                deadline_ms: 60_000,
            },
            1 => FleetMessage::Report {
                session_token: i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                round: i / 500,
                bit_index: (i % 10) as u32,
                bit: i % 3 == 0,
            },
            2 => FleetMessage::ReportAck { round: i / 500 },
            _ => FleetMessage::CohortWait {
                round: i / 500,
                retry_ms: 60_000,
            },
        })
        .collect();
    let (bufs, enc_ns) = timed(|| msgs.iter().map(FleetMessage::encode).collect::<Vec<_>>());
    let (ok, dec_ns) = timed(|| {
        bufs.iter()
            .filter(|b| FleetMessage::decode(b).is_ok())
            .count()
    });
    assert_eq!(ok, frames, "every fleet frame decodes");
    (enc_ns / frames as f64, dec_ns / frames as f64)
}

/// The pure `FleetEngine` with an injected clock and no sockets: ns per
/// uplink message over whole rounds, and microseconds per `tick` with
/// `population` idle registrations. Returns `(ns_per_message, tick_us)`.
pub fn fleet_engine_probe(population: usize, cohort: usize, rounds: u64) -> (f64, f64) {
    let cfg = FleetConfig::try_new(cohort, population, rounds + 1, 10, 1_000, 15_000)
        .expect("probe config is valid")
        .with_seed(1)
        .with_value_seed(2);
    let mut engine = FleetEngine::new(cfg);
    let mut tokens = vec![0u64; population];
    let mut messages = 0u64;
    let mut engine_ns = 0.0;
    // Replies the engine asks for: report for every assign it hands out.
    let mut pending: Vec<(u64, FleetMessage)> = Vec::new();
    let absorb = |actions: Vec<fednum::transport::fleet::FleetAction>,
                  tokens: &mut Vec<u64>,
                  pending: &mut Vec<(u64, FleetMessage)>| {
        for action in actions {
            if let fednum::transport::fleet::FleetAction::Send(conn, msg) = action {
                match msg {
                    FleetMessage::RendezvousAck { session_token, .. } => {
                        tokens[conn as usize] = session_token;
                    }
                    FleetMessage::CohortAssign {
                        round, bit_index, ..
                    } => pending.push((
                        conn,
                        FleetMessage::Report {
                            session_token: tokens[conn as usize],
                            round,
                            bit_index,
                            bit: conn % 2 == 0,
                        },
                    )),
                    _ => {}
                }
            }
        }
    };
    for conn in 0..population as u64 {
        let hello = FleetMessage::Rendezvous {
            client_id: conn,
            capabilities: 0,
        };
        let (actions, ns) = timed(|| engine.on_message(conn, &hello, 0).expect("rendezvous"));
        engine_ns += ns;
        messages += 1;
        absorb(actions, &mut tokens, &mut pending);
    }
    let mut now_ms = 1;
    while (engine.reports().len() as u64) < rounds {
        absorb(engine.tick(now_ms), &mut tokens, &mut pending);
        for (conn, report) in std::mem::take(&mut pending) {
            let (actions, ns) = timed(|| engine.on_message(conn, &report, now_ms).expect("report"));
            engine_ns += ns;
            messages += 1;
            absorb(actions, &mut tokens, &mut pending);
        }
        now_ms += 1;
    }
    // Idle ticks: nothing due, every registration scanned.
    let idle: Vec<f64> = (0..50)
        .map(|i| timed(|| black_box(engine.tick(now_ms + i).len())).1 / 1e3)
        .collect();
    (engine_ns / messages as f64, median(&idle))
}

/// `reactor::wait` over `fds` idle connected sockets with a zero timeout:
/// what one scan of the poll set costs when nothing is ready.
pub fn reactor_wait_us(fds: usize) -> std::io::Result<f64> {
    use std::os::unix::io::AsRawFd;
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let mut keep = Vec::with_capacity(fds * 2);
    let mut set = Vec::with_capacity(fds);
    for _ in 0..fds {
        // One at a time, each accepted before the next dial: the listen
        // queue never holds more than one connection.
        let client = std::net::TcpStream::connect(addr)?;
        let (server, _) = listener.accept()?;
        set.push(PollFd::new(server.as_raw_fd(), INTEREST_READ));
        keep.push(client);
        keep.push(server);
    }
    let samples: Vec<f64> = (0..200)
        .map(|_| timed(|| reactor::wait(&mut set, 0)).1 / 1e3)
        .collect();
    Ok(median(&samples))
}

/// `DurableLedger::admit_round` + `commit_round` on a fresh state dir:
/// microseconds per round (two WAL appends, one fsynced) and WAL bytes per
/// round, with `metered` ids admitted each round.
pub fn durable_probe(dir: &std::path::Path, metered: &[u64], rounds: u64) -> (f64, f64) {
    let policy = campaign_policy(0xBE7C);
    // A snapshot cadence past `rounds`, so the WAL is never truncated and
    // its length is the bytes appended.
    let mut ledger = DurableLedger::create(dir, policy, rounds + 1).expect("create probe ledger");
    let mut samples = Vec::new();
    for r in 0..rounds {
        let ((), ns) = timed(|| {
            ledger.admit_round(r, metered).expect("admit");
            ledger.commit_round(r).expect("commit");
        });
        samples.push(ns / 1e3);
    }
    let wal = std::fs::metadata(dir.join(format!("campaign-{}.wal", policy.campaign_id)))
        .map_or(0, |m| m.len());
    (median(&samples), wal as f64 / rounds as f64)
}

/// The campaign budget policy `tcp_campaign` runs under: unlimited budget,
/// every client admissible every round, one bit and epsilon = 1 charged
/// per round of participation.
pub fn campaign_policy(campaign_id: u64) -> CampaignMessage {
    CampaignMessage {
        campaign_id,
        round_index: 0,
        max_bits: None,
        max_epsilon: None,
        cooldown_rounds: 1,
        bits_per_round: 1,
        epsilon_per_round: crate::proto::EPSILON,
    }
}

/// A fixed spin of integer work, milliseconds: a CPU-speed calibration
/// that shares nothing with the program.
pub fn cpu_spin_ms() -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            timed(|| {
                let mut x = 0x9E37_79B9_7F4A_7C15u64;
                for i in 0..20_000_000u64 {
                    x = (x ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(17);
                }
                black_box(x)
            })
            .1 / 1e6
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto;

    #[test]
    fn decomposed_round_matches_the_engine_bit_for_bit() {
        let values = proto::draw(6_000, 5);
        for secagg in [None, Some(SecAggSettings::default())] {
            let seed = proto::round_seed(5, 1);
            let cfg = proto::config(seed);
            let mut tracer = Tracer::new(true);
            let dec = decomposed_round(&cfg, values.values(), seed, 512, secagg, &mut tracer, 0);
            let mut t = InMemoryTransport::new(seed);
            let mut b = RoundBuilder::new(cfg).seed(seed).via(&mut t).batched(512);
            if let Some(s) = secagg {
                b = b.secure(s);
            }
            let out = b.run(values.values()).unwrap();
            assert_eq!(dec.estimate.to_bits(), out.estimate().to_bits());
            let cover = tracer.child_cover("decomposed_round");
            assert!(cover[0] > 0.9, "steps cover the round: {}", cover[0]);
        }
    }

    #[test]
    fn probes_return_positive_costs() {
        assert!(scheduler_push_pop_ns(2_000, 1) > 0.0);
        assert!(inmemory_ns_per_envelope(2_000, 1) > 0.0);
        let (e, d, f) = report_codec_ns(2_000);
        assert!(e > 0.0 && d > 0.0 && f > 0.0);
        let (e, d) = fleet_codec_ns(2_000);
        assert!(e > 0.0 && d > 0.0);
        let (msg, tick) = fleet_engine_probe(200, 50, 3);
        assert!(msg > 0.0 && tick > 0.0);
        assert!(counts_masked_ns_per_client(10, 5_000) > 0.0);
        let (m, u, s) = secagg_primitives(SecAggSettings::default(), 20, 3);
        assert!(m > 0.0 && u > 0.0 && s > 0.0);
    }
}
