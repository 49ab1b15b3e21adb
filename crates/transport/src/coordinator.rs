//! The coordinator session: the wire side of a round.
//!
//! The round itself — wave schedule, client model, cohort checks,
//! secure-aggregation retry loop, estimator tail — is written once, in
//! `fednum_fedsim::round`, generic over a carrier. This module is the
//! carrier that puts it on a [`Transport`], with three ways a wave's
//! reports can travel: a session advances rendezvous → configure →
//! collect (per wave) → unmask → publish, every step carried as framed
//! [`Message`]s and ordered by the discrete-event scheduler inside the
//! transport.
//!
//! ```text
//!  client                      coordinator
//!    │ ── Hello ──────────────────▶ │   rendezvous
//!    │ ◀────────────── RoundConfig ─│   configure
//!    │ ── Report ─────────────────▶ │   collect (validated, per wave)
//!    │ ── SecAgg[advertise, shares] ▶ │  key exchange   ┐
//!    │ ── SecAgg[masked input] ────▶ │   masking        │ secagg only
//!    │ ── SecAgg[unmask shares] ───▶ │   unmask         ┘
//!    │ ◀─────────────────── Publish │   publish
//! ```
//!
//! * The **per-client** wire plays the chain above for every client,
//!   event by event. It is the wire faults, straggler salvage and the TCP
//!   daemon ride.
//! * The **chunked** wire (`RoundBuilder::batched`) replaces the chain
//!   with one [`BatchReport`] frame of packed bit planes per chunk of
//!   clients.
//! * The **shuffled** wire (`RoundBuilder::shuffled`, see
//!   [`crate::shuffle`]) sends each client's bit to the shuffler, which
//!   forwards one identity-free permuted batch per wave.
//!
//! None of them tallies a secure round: its sums are the driver's masked
//! popcount over the contacts these wires decoded. A session adds the
//! attempt's four message rounds, framed once (`frame_secagg_rounds`) for
//! every tier as [`SecAggBatch`] frames: one frame carries one message
//! round of one chunk of senders — the wave chunk on the chunked wire, cut
//! shorter where `FRAME_BUDGET` bytes would not hold it; a single sender on
//! the per-client wire and in the merge tier, a batch of one. The framer
//! streams: whenever more than `IN_FLIGHT` bytes of frames are queued it
//! has them delivered (and metered) before building the next, so a round
//! holds a bounded number of bytes, not the cohort's whole exchange.
//!
//! **Parity contract.** All share the driver with the synchronous carrier
//! (`fednum_fedsim::round::Direct`), so the shared RNG is consumed in one
//! draw order (pool shuffle, per-wave assignment, latency, then per client
//! dropout and randomized response) and estimates are bit-identical per
//! seed; everything transport-level — event tie-breaks, key material,
//! arrival jitter — is hash-derived and never touches that stream.
//!
//! On top of that, a session meters traffic: every frame is tallied per
//! phase and direction at delivery into [`TrafficStats`], surfaced on
//! `RobustnessReport::traffic`. Frames a fault destroys before delivery (a
//! replay with nothing to replay) are never counted — the server cannot
//! bill what never arrived.

use fednum_core::bits::BitPlanes;
use fednum_core::privacy::PrivacyLedger;
use fednum_core::wire::{BatchReportMessage, ReportMessage, ShuffleMessage};
use rand::Rng;

use fednum_fedsim::dropout::Fate;
use fednum_fedsim::error::FedError;
use fednum_fedsim::faults::FaultKind;
use fednum_fedsim::round::{
    local_epsilon, secagg_tally, tally_round, Carrier, Collected, Contact, FederatedMeanConfig,
    FederatedOutcome, SalvageOutcome, SecAggAttempt, SecAggSettings, Tally, Wave,
};
use fednum_fedsim::traffic::{Direction, TrafficPhase, TrafficStats};
use fednum_fedsim::validation::{RejectionCounts, ReportValidator};

use crate::message::{
    BatchReport, ConfigHeader, Message, Publish, Report, RoundConfig, SecAggBatch, SecAggStep,
};
use crate::net::{Envelope, Transport, BROADCAST, COORDINATOR, SHUFFLER};
use crate::scheduler::mix;
use crate::session::MultiSessionEngine;

/// Virtual-time spacing between consecutive clients' message chains.
const STEP: f64 = 3e-9;
/// Virtual-time cost of one message hop within a chain.
const HOP: f64 = 1e-9;
/// 61-bit field mask for hash-derived stand-in payload elements.
const MASK61: u64 = (1 << 61) - 1;
/// Most bytes one secure-aggregation frame is built to: a chunk whose
/// entries would pass it (a complete mask graph, a wide chunk) travels as
/// several frames, none near `MAX_FRAME_LEN`. A lone entry may exceed it.
const FRAME_BUDGET: usize = 1 << 18;
// Every frame built to the budget fits the TCP transport's payload cap. A
// lone entry past the budget is not bounded by this: a key-share entry of a
// complete mask graph takes about 50-58 bytes per neighbour and passes
// `MAX_ENVELOPE_PAYLOAD` at roughly 3e5 clients, where `TcpTransport`
// fails the round with a typed `send` error.
const _: () = assert!(FRAME_BUDGET < crate::net::MAX_ENVELOPE_PAYLOAD);
/// Bytes of secure-aggregation frames queued on the transport before the
/// framer has them delivered.
const IN_FLIGHT: usize = 1 << 20;
/// Session-seed tag for the flat coordinator's salvage instance: the
/// follow-up secure aggregation must derive a key graph independent of
/// every base-round attempt so re-admitted clients get fresh masks.
const SALVAGE_TAG: u64 = 0x5A1C_6E55_0C3B_92D1;

/// A post-deadline report frame held for a possible salvage session.
struct ParkedReport {
    /// Global client id (`Envelope::from`).
    client: u64,
    /// The wave's bit assignment for that client, for re-validation under a
    /// fresh [`ReportValidator`].
    assigned_bit: u32,
    /// The frame exactly as it arrived — already metered, never re-billed.
    payload: Vec<u8>,
}

/// One coordinator's wire: the [`Carrier`] that puts a round on a
/// [`Transport`]. What the wires share lives in the [`Link`]; how a
/// wave's reports travel is the [`Wire`].
pub(crate) struct Session<'t> {
    link: Link<'t>,
    wire: Wire,
}

/// The transport, what crossed it, and where its virtual clock stands.
struct Link<'t> {
    transport: &'t mut dyn Transport,
    traffic: TrafficStats,
    /// Virtual clock after the last collection window or aggregation.
    clock: f64,
    /// Shifts local population indices into the fleet-wide identities
    /// envelopes are addressed by (nonzero under sharding).
    client_offset: u64,
    /// Collection-window length in virtual time; the deadline stragglers
    /// miss. Matches the latency model's timeout when one is configured.
    window_len: f64,
    /// Frames that arrived but did not decode: dropped, unmetered, and
    /// booked at [`Session::close`].
    undecodable: u64,
}

enum Wire {
    PerClient(PerClient),
    Chunked(Chunked),
    Shuffled(Shuffled),
}

/// A Hello / RoundConfig / Report chain per client, event by event.
struct PerClient {
    /// Late frames parked for salvage (validated mode with a salvage
    /// policy only), bounded by the policy's buffer cap; without one the
    /// buffer stays empty and the path is cost-free.
    parked: Vec<ParkedReport>,
    salvage_cap: usize,
    /// Net downlink bytes the compressed config codec avoids: banked per
    /// delivered AssignBit delta, debited per broadcast header.
    saved: i64,
    /// client → (slot in current wave) + 1; 0 = not contacted this wave.
    wave_slot: Vec<u32>,
}

/// One [`BatchReport`] frame of packed planes per `chunk` clients.
struct Chunked {
    chunk: usize,
}

/// A `Submit` per client to the shuffler, one anonymized `Batch` onward.
struct Shuffled {
    permutation_seed: u64,
    /// Per wave played: where its contacts end in the round's collect
    /// state, and how many entries of its batch the coordinator received —
    /// the anonymity set its submitters hid in.
    waves: Vec<(usize, u64)>,
}

impl<'t> Session<'t> {
    /// Opens the wire side of one coordinator's round over `transport`:
    /// the chunked wire when `batched` names a chunk size, the per-client
    /// wire otherwise.
    pub(crate) fn open(
        transport: &'t mut dyn Transport,
        config: &FederatedMeanConfig,
        batched: Option<usize>,
        client_offset: u64,
    ) -> Self {
        let wire = match batched {
            Some(chunk) => {
                debug_assert!(chunk > 0, "builder rejects a zero chunk");
                debug_assert!(
                    config.faults.is_none() && config.salvage.is_none(),
                    "builder rejects faults and salvage on the batched wire"
                );
                Wire::Chunked(Chunked { chunk })
            }
            None => Wire::PerClient(PerClient {
                parked: Vec::new(),
                salvage_cap: match &config.salvage {
                    Some(policy) if config.validate => policy.buffer_cap,
                    _ => 0,
                },
                saved: 0,
                wave_slot: Vec::new(),
            }),
        };
        Self {
            link: Link {
                transport,
                traffic: TrafficStats::new(),
                clock: 0.0,
                client_offset,
                window_len: config.latency.as_ref().map_or(1.0, |l| l.timeout),
                undecodable: 0,
            },
            wire,
        }
    }

    /// Opens a session whose waves travel through the shuffler (see
    /// [`crate::shuffle`]); wave `w`'s batch order derives from
    /// `permutation_seed` and `w`.
    pub(crate) fn open_shuffled(
        transport: &'t mut dyn Transport,
        config: &FederatedMeanConfig,
        permutation_seed: u64,
    ) -> Self {
        Self {
            wire: Wire::Shuffled(Shuffled {
                permutation_seed,
                waves: Vec::new(),
            }),
            ..Self::open(transport, config, None, 0)
        }
    }

    /// On the shuffled wire, per wave played: the end of its contacts in
    /// the round's collect state and the batch size the coordinator
    /// received. Empty on the other wires.
    pub(crate) fn shuffled_waves(&self) -> &[(usize, u64)] {
        match &self.wire {
            Wire::Shuffled(sh) => &sh.waves,
            _ => &[],
        }
    }

    /// Everything the session metered, config-compression savings credited.
    /// Frames it had to drop as undecodable name no report the server can
    /// attribute to its cohort: they are booked on `rejections` as from an
    /// unknown client.
    pub(crate) fn close(self, rejections: &mut RejectionCounts) -> TrafficStats {
        rejections.unknown_client += self.link.undecodable;
        let mut traffic = self.link.traffic;
        match self.wire {
            Wire::PerClient(pc) if pc.saved > 0 => traffic.credit_config_savings(pc.saved as u64),
            _ => {}
        }
        traffic
    }
}

impl Carrier for Session<'_> {
    fn play_wave(&mut self, wave: &mut Wave<'_>) -> Result<(), FedError> {
        match &mut self.wire {
            Wire::PerClient(pc) => pc.play(&mut self.link, wave),
            Wire::Chunked(ch) => ch.play(&mut self.link, wave),
            Wire::Shuffled(sh) => sh.play(&mut self.link, wave),
        }
    }

    /// Frames the attempt's message rounds, tallied at delivery, with
    /// stand-in payloads keyed on protocol position: the aggregation is the
    /// driver's, but every message and byte is one the cohort would send.
    fn carry_attempt(&mut self, attempt: &SecAggAttempt<'_>) {
        let Link {
            transport,
            traffic,
            undecodable,
            clock,
            ..
        } = &mut self.link;
        let session = attempt.config.session_seed;
        frame_secagg_rounds(
            &mut **transport,
            attempt,
            *clock,
            match &self.wire {
                Wire::Chunked(ch) => ch.chunk,
                _ => 1,
            },
            |i| i as u64,
            |i, v| mix(session ^ (i as u64) << 24 ^ v as u64) & MASK61,
            |transport, spent| {
                *undecodable += drain_counting(transport, traffic, |_, msg| {
                    if let Message::SecAgg(batch) = msg {
                        spent.push(batch.into_frame());
                    }
                });
            },
        );
        *clock += 1.0;
    }

    /// The result broadcast, modeled as one closing frame. The returned
    /// feedback is decoded back off that frame, so a follow-up session
    /// reads exactly what was broadcast.
    fn publish(
        &mut self,
        round_id: u64,
        estimate: f64,
        reports: u64,
        feedback: Vec<f64>,
    ) -> Result<Vec<f64>, FedError> {
        let frame = Message::Publish(Publish {
            round_id,
            estimate,
            reports,
            feedback,
        })
        .encode();
        let published = Message::decode(&frame);
        self.link.transport.send(Envelope {
            from: COORDINATOR,
            to: 0,
            sent_at: self.link.clock,
            payload: frame,
        });
        let link = &mut self.link;
        link.undecodable += drain_counting(link.transport, &mut link.traffic, |_, _| {});
        match published {
            Ok(Message::Publish(p)) => Ok(p.feedback),
            _ => Err(FedError::InvalidConfig(
                "the session's closing frame does not read back as a Publish".into(),
            )),
        }
    }
}

impl Link<'_> {
    /// Opens wave `index`'s collection window; returns `(start, deadline)`.
    fn open_window(&mut self, index: u32) -> (f64, f64) {
        let t0 = 2.0 * self.window_len * f64::from(index);
        let deadline = t0 + self.window_len;
        self.transport.open_window(t0, deadline);
        self.clock = 2.0 * self.window_len * f64::from(index + 1);
        (t0, deadline)
    }

    /// The wave's shared config broadcast (also the template of the
    /// per-client `RoundConfig`): round, and the secure-aggregation shape
    /// clients should expect.
    fn config_header(&self, config: &FederatedMeanConfig, cohort: usize) -> ConfigHeader {
        ConfigHeader {
            round_id: config.session_seed,
            secagg: config.secagg.is_some(),
            threshold: config.secagg.map_or(0, |s| s.threshold(cohort) as u64),
            vector_len: match config.secagg {
                Some(_) => 2 * u64::from(config.protocol.codec.bits()),
                None => 0,
            },
        }
    }
}

impl PerClient {
    /// The current wave's slot of the client an envelope names, or `None`
    /// for an address this coordinator never contacted this wave — those
    /// fields are decoded off the wire, so the frame is dropped as
    /// unroutable rather than trusted as an index.
    fn slot_of(&self, address: u64, client_offset: u64) -> Option<usize> {
        let local = usize::try_from(address.checked_sub(client_offset)?).ok()?;
        Some(self.wave_slot.get(local)?.checked_sub(1)? as usize)
    }

    /// Contacts the wave over the per-client wire — Hello uplink,
    /// RoundConfig downlink, Report uplink — running the client model when
    /// a client's assignment is delivered and validating what comes back.
    #[allow(clippy::too_many_lines)]
    fn play(&mut self, link: &mut Link<'_>, wave: &mut Wave<'_>) -> Result<(), FedError> {
        let config = wave.config;
        let bits = config.protocol.codec.bits();
        let round_id = config.session_seed;
        let secagg_on = config.secagg.is_some();
        let offset = link.client_offset;
        let (batch, assignment) = (wave.batch, wave.assignment);
        let (t0, deadline) = link.open_window(wave.index);
        self.wave_slot.resize(wave.population(), 0);
        for (slot, &client) in batch.iter().enumerate() {
            self.wave_slot[client] = slot as u32 + 1;
        }
        let header = link.config_header(config, batch.len());
        let round_config = move |assigned_bit: u8| {
            Message::RoundConfig(RoundConfig {
                round_id,
                assigned_bit,
                secagg: header.secagg,
                threshold: header.threshold,
                vector_len: header.vector_len,
            })
        };
        if config.compress_config {
            // One shared header for the whole wave; Hellos are answered
            // with a 2-byte AssignBit delta instead of a full RoundConfig.
            link.transport.send(Envelope {
                from: COORDINATOR,
                to: BROADCAST,
                sent_at: t0,
                payload: Message::ConfigHeader(header).encode(),
            });
        }
        // Per-slot client-model fate and staged delivery (bit, value, copies).
        let mut slot_fate = vec![Fate::DropsBeforeReport; batch.len()];
        let mut slot_staged: Vec<(u32, bool, u64)> = vec![(0, false, 0); batch.len()];

        // Rendezvous: every contacted client checks in; the rest of the
        // wave unrolls event by event.
        for (k, &client) in batch.iter().enumerate() {
            link.transport.send(Envelope {
                from: wave.id(client),
                to: COORDINATOR,
                sent_at: t0 + k as f64 * STEP,
                payload: Message::Hello { round_id }.encode(),
            });
        }

        while let Some((at, env)) = link.transport.poll() {
            let Ok(msg) = Message::decode(&env.payload) else {
                link.undecodable += 1;
                continue;
            };
            let nbytes = env.payload.len() as u64;
            if env.to == COORDINATOR {
                link.traffic.record(msg.phase(), Direction::Uplink, nbytes);
                match msg {
                    Message::Hello { .. } => {
                        // Configure: reply with the client's task.
                        let Some(slot) = self.slot_of(env.from, offset) else {
                            continue;
                        };
                        let assigned_bit = assignment[slot] as u8;
                        let reply = if config.compress_config {
                            Message::AssignBit { assigned_bit }
                        } else {
                            round_config(assigned_bit)
                        };
                        link.transport.send(Envelope {
                            from: COORDINATOR,
                            to: env.from,
                            sent_at: at + HOP,
                            payload: reply.encode(),
                        });
                    }
                    Message::Report(r) => {
                        if at > deadline {
                            // Past the wave deadline.
                            wave.stragglers += 1;
                            if config.validate {
                                if self.parked.len() < self.salvage_cap {
                                    if let Some(slot) = self.slot_of(env.from, offset) {
                                        self.parked.push(ParkedReport {
                                            client: env.from,
                                            assigned_bit: assignment[slot],
                                            payload: env.payload,
                                        });
                                    }
                                }
                                continue;
                            }
                        }
                        // Secure aggregation carries one masked vector per
                        // client: a transport-level re-send collapses.
                        if secagg_on && r.nonce & (1 << 63) != 0 {
                            continue;
                        }
                        let Some((d_bit, d_value)) =
                            admitted(&r, env.from, wave.validator.as_mut(), bits)
                        else {
                            continue;
                        };
                        let Some(slot) = self.slot_of(env.from, offset) else {
                            continue;
                        };
                        let staged = &mut slot_staged[slot];
                        staged.0 = d_bit;
                        staged.1 = d_value;
                        staged.2 += 1;
                    }
                    _ => {}
                }
            } else {
                link.traffic
                    .record(msg.phase(), Direction::Downlink, nbytes);
                if env.to == BROADCAST {
                    // The shared header: metered above, debited against the
                    // per-client delta savings, no client model to run.
                    if matches!(msg, Message::ConfigHeader(_)) {
                        self.saved -= nbytes as i64;
                    }
                    continue;
                }
                let assigned_bit = match msg {
                    Message::RoundConfig(rc) => rc.assigned_bit,
                    Message::AssignBit { assigned_bit } => {
                        // Bank what the full per-client frame would have
                        // cost on the uncompressed codec.
                        let full = round_config(assigned_bit).encoded_len() as i64;
                        self.saved += full - nbytes as i64;
                        assigned_bit
                    }
                    _ => continue,
                };
                // The client learns its task and responds — to a bit its
                // codec has; the assignment came back off the wire.
                if u32::from(assigned_bit) >= bits {
                    continue;
                }
                let Some(slot) = self.slot_of(env.to, offset) else {
                    continue;
                };
                let client = batch[slot];
                let Some(response) = wave.respond(client, u32::from(assigned_bit))? else {
                    continue;
                };
                slot_fate[slot] = response.fate;
                let body = if response.fault == Some(FaultKind::StaleRound) {
                    ReportMessage {
                        task_id: round_id.wrapping_sub(1),
                        reports: vec![(assigned_bit, wave.stale_payload(client))],
                    }
                } else {
                    ReportMessage {
                        task_id: round_id,
                        reports: vec![(assigned_bit, response.sent)],
                    }
                };
                link.transport.send(Envelope {
                    from: env.to,
                    to: COORDINATOR,
                    sent_at: at + HOP,
                    payload: Message::Report(Report {
                        nonce: env.to,
                        body,
                    })
                    .encode(),
                });
            }
        }

        // Close the wave in batch (contact) order: anything that produced
        // no accepted delivery — vanished client, enforced deadline,
        // rejected-everything transport — is one uniform "nothing arrived"
        // record.
        for (slot, &client) in batch.iter().enumerate() {
            let (d_bit, d_value, copies) = slot_staged[slot];
            if copies > 0 {
                wave.accept(client, d_bit, d_value, slot_fate[slot], copies);
            } else {
                wave.nothing(client, assignment[slot]);
            }
            self.wave_slot[client] = 0;
        }
        Ok(())
    }
}

impl Chunked {
    /// Contacts the wave over the chunked wire: the client model runs in
    /// slot order — the exact draw order the per-client wire's serialized
    /// chains (`HOP` < `STEP`) produce — and the wire carries one
    /// [`BatchReport`] frame per chunk instead of a chain per client.
    ///
    /// The wire is load-bearing: every chunk frame round-trips through the
    /// transport and is decoded back into planes on the server side; a
    /// frame the transport fails to deliver turns its whole chunk into
    /// "nothing arrived" records.
    fn play(&mut self, link: &mut Link<'_>, wave: &mut Wave<'_>) -> Result<(), FedError> {
        let config = wave.config;
        let bits = config.protocol.codec.bits();
        let round_id = config.session_seed;
        let chunk = self.chunk;
        let (batch, assignment) = (wave.batch, wave.assignment);
        let (t0, deadline) = link.open_window(wave.index);
        // One shared config broadcast per wave; assignments travel inside
        // the chunk schedule, not as per-client frames.
        link.transport.send(Envelope {
            from: COORDINATOR,
            to: BROADCAST,
            sent_at: t0,
            payload: Message::ConfigHeader(link.config_header(config, batch.len())).encode(),
        });

        // Packed at the edge as the client model goes: slots local to the
        // chunk, sent when the chunk's first client would have reported on
        // the per-client wire.
        let mut slot_fate = vec![Fate::DropsBeforeReport; batch.len()];
        let n_chunks = batch.len().div_ceil(chunk);
        for (ci, chunk_clients) in batch.chunks(chunk).enumerate() {
            let start = ci * chunk;
            let mut planes = BitPlanes::new(bits, chunk_clients.len());
            for (s, &client) in chunk_clients.iter().enumerate() {
                let j = assignment[start + s];
                if let Some(response) = wave.respond(client, j)? {
                    slot_fate[start + s] = response.fate;
                    planes.record(s, j, response.sent);
                }
            }
            link.transport.send(Envelope {
                from: wave.id(chunk_clients[0]),
                to: COORDINATOR,
                sent_at: t0 + start as f64 * STEP + 2.0 * HOP,
                payload: Message::BatchReport(BatchReport {
                    nonce: ci as u64,
                    body: BatchReportMessage {
                        task_id: round_id,
                        planes,
                    },
                })
                .encode(),
            });
        }

        // Server side: decode what actually arrived, keyed by chunk nonce
        // so transport reordering cannot scramble slot identity.
        let mut arrived: Vec<Option<BitPlanes>> = (0..n_chunks).map(|_| None).collect();
        link.undecodable += drain_counting(link.transport, &mut link.traffic, |at, msg| {
            if let Message::BatchReport(br) = msg {
                if br.body.task_id == round_id && at <= deadline {
                    if let Some(slot) = arrived.get_mut(br.nonce as usize) {
                        *slot = Some(br.body.planes);
                    }
                }
            }
        });

        // Close the wave in batch order off the *decoded* planes: every
        // slot starts as a "nothing arrived" record (all a lost or
        // misshapen chunk contributes), then one pass per plane over its
        // set occupancy bits fills in the reports. A decoded slot sits on
        // exactly one plane (`BitPlanes::from_words`), so `counts`,
        // `contacts` and the plane tally agree.
        let st = &mut *wave.st;
        st.contacts.reserve(batch.len());
        for (ci, decoded) in arrived.into_iter().enumerate() {
            let start = ci * chunk;
            let len = chunk.min(batch.len() - start);
            let base = st.contacts.len();
            st.contacts.extend((start..start + len).map(|slot| Contact {
                client: batch[slot],
                bit: assignment[slot],
                report: None,
                fate: Fate::DropsBeforeReport,
                copies: 0,
            }));
            let decoded = match decoded {
                Some(p) if p.bits() == bits && p.slots() == len => p,
                _ => BitPlanes::new(bits, len),
            };
            for j in 0..bits as usize {
                let occupancy = decoded.plane_occupancy(j);
                let value = decoded.plane_value(j);
                for (w, (&occ, &val)) in occupancy.iter().zip(value).enumerate() {
                    st.counts[j] += u64::from(occ.count_ones());
                    st.ones[j] += u64::from((occ & val).count_ones());
                    let mut rest = occ;
                    while rest != 0 {
                        let b = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        let s = w * 64 + b;
                        let contact = &mut st.contacts[base + s];
                        contact.bit = j as u32;
                        contact.report = Some((val >> b) & 1 == 1);
                        contact.fate = slot_fate[start + s];
                        contact.copies = 1;
                    }
                }
            }
        }
        Ok(())
    }
}

impl Shuffled {
    /// Contacts the wave through the shuffler: the client model runs in
    /// slot order (the per-client wire's draw order), every responding
    /// client submits its randomized bit to [`SHUFFLER`], and the shuffler
    /// forwards one identity-free permuted `Batch` when the window closes.
    ///
    /// `contacts` is the driver's own bookkeeping of whom it contacted and
    /// who submitted; `counts` / `ones` come only from the decoded batch,
    /// and no batch entry is ever attributed to a client.
    fn play(&mut self, link: &mut Link<'_>, wave: &mut Wave<'_>) -> Result<(), FedError> {
        let bits = wave.config.protocol.codec.bits();
        let round_id = wave.config.session_seed;
        let (t0, deadline) = link.open_window(wave.index);
        for (slot, (&client, &j)) in wave.batch.iter().zip(wave.assignment).enumerate() {
            let Some(response) = wave.respond(client, j)? else {
                wave.nothing(client, j);
                continue;
            };
            wave.st.contacts.push(Contact {
                client,
                bit: j,
                report: Some(response.sent),
                fate: response.fate,
                copies: 1,
            });
            link.transport.send(Envelope {
                from: wave.id(client),
                to: SHUFFLER,
                sent_at: t0 + slot as f64 * STEP,
                payload: Message::Shuffle(ShuffleMessage::Submit {
                    round_id,
                    bit_index: j as u8,
                    bit: response.sent,
                })
                .encode(),
            });
        }

        // The shuffler buffers the wave. The buffer keeps only (bit index,
        // bit): sender identity is dropped at this line and never reaches
        // the coordinator.
        let mut buffered: Vec<(u8, bool)> = Vec::new();
        link.undecodable += drain_counting(link.transport, &mut link.traffic, |_, msg| {
            if let Message::Shuffle(ShuffleMessage::Submit {
                round_id: r,
                bit_index,
                bit,
            }) = msg
            {
                if r == round_id && u32::from(bit_index) < bits {
                    buffered.push((bit_index, bit));
                }
            }
        });
        // The seeded permutation: mix-based Fisher–Yates, hash-derived so
        // the round's RNG stream is untouched (the parity contract) and the
        // same seed always produces the same batch order; each wave gets
        // its own.
        let mut s = mix(self.permutation_seed ^ round_id ^ u64::from(wave.index) << 32);
        for i in (1..buffered.len()).rev() {
            s = mix(s);
            buffered.swap(i, (s % (i as u64 + 1)) as usize);
        }
        link.transport.send(Envelope {
            from: SHUFFLER,
            to: COORDINATOR,
            sent_at: deadline,
            payload: Message::Shuffle(ShuffleMessage::Batch {
                round_id,
                entries: buffered,
            })
            .encode(),
        });

        // The coordinator tallies what comes back off the wire: an index
        // past the codec counts toward neither the tally nor the batch size.
        let st = &mut *wave.st;
        let mut received = 0u64;
        link.undecodable += drain_counting(link.transport, &mut link.traffic, |_, msg| {
            let Message::Shuffle(ShuffleMessage::Batch {
                round_id: r,
                entries,
            }) = msg
            else {
                return;
            };
            if r != round_id {
                return;
            }
            for (bit_index, b) in entries {
                if u32::from(bit_index) < bits {
                    st.counts[usize::from(bit_index)] += 1;
                    st.ones[usize::from(bit_index)] += u64::from(b);
                    received += 1;
                }
            }
        });
        self.waves.push((st.contacts.len(), received));
        Ok(())
    }
}

/// The one `(bit, value)` a report frame carries, if it is well-formed,
/// `validator` (when engaged) admits it from sender `from`, and the bit —
/// an integer off the wire that the tally indexes by — is one of the
/// codec's `bits`.
fn admitted(
    r: &Report,
    from: u64,
    validator: Option<&mut ReportValidator>,
    bits: u32,
) -> Option<(u32, bool)> {
    let &[(bit, value)] = r.body.reports.as_slice() else {
        return None;
    };
    let bit = u32::from(bit);
    if let Some(v) = validator {
        let debiased = f64::from(u8::from(value));
        v.submit_tagged(from, bit, debiased, r.body.task_id, r.nonce)
            .ok()?;
    }
    (bit < bits).then_some((bit, value))
}

/// Runs a complete federated mean-estimation session over `transport` —
/// per-client wire, or chunked when `batched` names a chunk size. Same
/// semantics (and, seed for seed, the same estimate) as the synchronous
/// carrier, plus per-phase traffic accounting in the returned
/// `FederatedOutcome::robustness.traffic` and, on the per-client wire,
/// straggler salvage. `with_feedback` embeds the round's per-bit means in
/// the Publish frame (the adaptive two-round protocol's round-1 → round-2
/// channel); the second value is that feedback as decoded off the frame.
///
/// Pass [`SimNetTransport::for_config`](crate::net::SimNetTransport) when
/// `config.faults` is set — the wire-level fault kinds (straggle, corrupt,
/// duplicate, replay) are transport behaviour; an
/// [`InMemoryTransport`](crate::net::InMemoryTransport) would not act
/// them out.
///
/// # Errors
/// See [`FedError`].
pub(crate) fn run_session(
    values: &[f64],
    config: &FederatedMeanConfig,
    mut ledger: Option<&mut PrivacyLedger>,
    transport: &mut dyn Transport,
    batched: Option<usize>,
    rng: &mut dyn Rng,
    with_feedback: bool,
) -> Result<(FederatedOutcome, Vec<f64>), FedError> {
    let mut session = Session::open(transport, config, batched, 0);
    let mut round = tally_round(values, config, ledger.as_deref_mut(), &mut session, rng)?;

    // Salvage: a strictly additive follow-up session over the parked
    // stragglers, merged into the published tallies with exact-count
    // weighting.
    let (salvage, late) = run_salvage(
        &mut round.collected,
        &mut session,
        config,
        config.secagg.as_ref(),
        mix(config.session_seed ^ SALVAGE_TAG),
        ledger,
    );
    if let (Some(SalvageOutcome::Salvaged { reports }), Some(late)) = (salvage, late) {
        for j in 0..late.ones.len() {
            round.tally.ones[j] += late.ones[j];
            round.tally.eff_counts[j] += late.eff_counts[j];
        }
        round.reports += reports;
    }

    let (mut outcome, feedback) = round.publish(config, &mut session, with_feedback)?;
    outcome.robustness.salvage = salvage;
    outcome.robustness.traffic = session.close(&mut outcome.robustness.rejections);
    Ok((outcome, feedback))
}

/// The straggler-salvage session: re-opens a bounded collection window as a
/// follow-up session on the same transport timeline, re-validates the
/// parked report frames under a fresh [`ReportValidator`], and tallies the
/// re-admitted cohort — directly, or through a *fresh* secure-aggregation
/// instance (`session_base` must be independent of every base-round
/// attempt so salvaged clients get fresh masks; shares from an aborted
/// base instance are never reused). Returns the typed telemetry (`None`
/// without a salvage policy) and, iff it is `Salvaged`, the re-admitted
/// cohort's per-bit tally to merge into the round's.
///
/// Strictly additive: every failure path returns no tally, leaving the
/// published estimate exactly what discard would have published. Parked
/// frames were metered and privacy-charged at original arrival;
/// re-admission re-bills neither (the ledger re-charge below is an
/// idempotent no-op that only guards against external ledger mutation).
/// It draws nothing from the round's RNG.
#[allow(clippy::too_many_lines)]
pub(crate) fn run_salvage(
    st: &mut Collected,
    session: &mut Session<'_>,
    config: &FederatedMeanConfig,
    settings: Option<&SecAggSettings>,
    session_base: u64,
    mut ledger: Option<&mut PrivacyLedger>,
) -> (Option<SalvageOutcome>, Option<Tally>) {
    let Some(policy) = &config.salvage else {
        return (None, None);
    };
    let bits = config.protocol.codec.bits();
    let round_id = config.session_seed;
    let Session {
        link,
        wire: Wire::PerClient(PerClient { parked, .. }),
    } = session
    else {
        // The chunked wire sends no per-client frame that could be parked.
        return (Some(SalvageOutcome::SalvageSkipped), None);
    };
    // The naive (unvalidated) server parks nothing — it already accepted
    // the stragglers inline.
    if !config.validate || parked.len() < policy.min_parked {
        return (Some(SalvageOutcome::SalvageSkipped), None);
    }
    let client_offset = link.client_offset;
    let epsilon = local_epsilon(config);
    let window = link.window_len.min(policy.max_extra_time);

    let mut engine = MultiSessionEngine::new(&mut *link.transport, link.clock);
    let mut slot = engine.open_session();
    slot.open_window(0.0, window);
    // Re-admit each parked frame verbatim. `redeliver` bypasses fault
    // dispatch and the replay register — the frame already paid both at
    // original arrival — and nothing here meters it again.
    for (k, p) in parked.iter().enumerate() {
        slot.redeliver(Envelope {
            from: p.client,
            to: COORDINATOR,
            sent_at: k as f64 * STEP,
            payload: p.payload.clone(),
        });
    }

    // Fresh validator scoped to exactly the parked cohort and their
    // original bit assignments; its rejections are not absorbed into the
    // round's counts (these frames were already rejected once as
    // stragglers — salvage only decides whether to un-reject them).
    let assigned: Vec<(u64, u32)> = parked.iter().map(|p| (p.client, p.assigned_bit)).collect();
    let mut validator = ReportValidator::for_round(bits, &assigned, round_id);
    let mut salvaged = Collected {
        counts: vec![0; bits as usize],
        ones: vec![0; bits as usize],
        waves_used: 1,
        ..Collected::default()
    };
    while let Some((at, env)) = slot.poll() {
        if at > window {
            // Missed even the salvage window: the final discard.
            continue;
        }
        let Ok(Message::Report(r)) = Message::decode(&env.payload) else {
            continue;
        };
        let Some((d_bit, d_value)) = admitted(&r, env.from, Some(&mut validator), bits) else {
            continue;
        };
        salvaged.contacts.push(Contact {
            client: (env.from - client_offset) as usize,
            bit: d_bit,
            report: Some(d_value),
            fate: Fate::Responds,
            copies: 1,
        });
        salvaged.counts[d_bit as usize] += 1;
        salvaged.ones[d_bit as usize] += u64::from(d_value);
    }
    st.completion_time += window;

    // Privacy floor: a one-party secure aggregate would reveal that
    // client's report outright, so a masked salvage needs at least two
    // re-admitted members. Direct mode has no such floor — validated
    // direct reports are individually visible by construction.
    let floor = if settings.is_some() { 2 } else { 1 };
    if salvaged.contacts.len() < floor {
        link.clock = engine.watermark();
        return (Some(SalvageOutcome::SalvageAborted), None);
    }
    if let Some(ledger) = ledger.as_deref_mut() {
        for c in &salvaged.contacts {
            if ledger
                .charge_round(client_offset + c.client as u64, round_id, 1, epsilon)
                .is_err()
            {
                link.clock = engine.watermark();
                return (Some(SalvageOutcome::SalvageAborted), None);
            }
        }
    }

    let salvaged_outcome = Some(SalvageOutcome::Salvaged {
        reports: salvaged.reports(),
    });
    let Some(settings) = settings else {
        link.clock = engine.watermark();
        return (salvaged_outcome, Some(Tally::direct(&salvaged)));
    };
    // Clamp the mask-graph degree to the (small) salvaged cohort and cap
    // re-mask attempts by the policy, not the base retry budget;
    // min_cohort drops to the privacy floor.
    let mut salvage_settings = *settings;
    if let Some(k) = settings.neighbors {
        salvage_settings.neighbors = Some(k.clamp(1, salvaged.contacts.len() - 1));
    }
    let mut salvage_config = config.clone();
    salvage_config.retry.max_secagg_retries = policy.max_attempts;
    salvage_config.retry.min_cohort = floor;
    let mut follow_up = Session::open(&mut slot, &salvage_config, None, client_offset);
    follow_up.link.clock = window;
    let tally = secagg_tally(
        &mut salvaged,
        &salvage_config,
        &salvage_settings,
        session_base,
        ledger,
        &mut follow_up,
    );
    // The follow-up's drops surface with the parent session's.
    link.undecodable += follow_up.link.undecodable;
    let follow_up_traffic = follow_up.close(&mut RejectionCounts::default());
    link.clock = engine.watermark();
    link.traffic
        .absorb_as(&follow_up_traffic, TrafficPhase::Salvage);
    st.completion_time += salvaged.completion_time;
    st.backoff_time += salvaged.backoff_time;
    match tally {
        Ok(tally) => (salvaged_outcome, Some(tally)),
        Err(_) => (Some(SalvageOutcome::SalvageAborted), None),
    }
}

/// Frames one secure-aggregation instance's four message rounds onto
/// `transport` from `t0`, a sender per `STEP`, sized like the real protocol
/// (Bell et al. ring graph of degree `attempt.config.neighbors`, complete
/// when `None`). `attempt.members[i]` is the wire identity at protocol
/// position `i`, which `attempt.plan` is keyed on. A frame carries up to
/// `chunk` consecutive senders of one round, fewer where their entries
/// would pass `FRAME_BUDGET`.
///
/// Key, ciphertext and unmask-share payloads are hash-derived stand-ins
/// (size is what's accounted), seeded from the session and `key(i)`;
/// `masked_input(i, v)` is element `v` of position `i`'s upload. Delivery
/// is `drain`'s: it runs whenever `IN_FLIGHT` bytes are queued, and once
/// more at the end, so the transport is empty on return. Frame buffers it
/// pushes onto its second argument are written into again instead of
/// allocated afresh.
pub(crate) fn frame_secagg_rounds(
    transport: &mut dyn Transport,
    attempt: &SecAggAttempt<'_>,
    t0: f64,
    chunk: usize,
    key: impl Fn(usize) -> u64,
    masked_input: impl Fn(usize, usize) -> u64,
    mut drain: impl FnMut(&mut dyn Transport, &mut Vec<Vec<u8>>),
) {
    let (members, plan) = (attempt.members, attempt.plan);
    let (session, vector_len) = (attempt.config.session_seed, attempt.config.vector_len);
    let n = members.len();
    debug_assert_eq!(n, attempt.config.n, "one member per protocol position");
    // Every position has as many ring neighbors as the mask graph gives
    // position 0: one key share goes to each.
    let neighbors = attempt.config.mask_holders(0).0.size() - 1;
    // Unmask shares cover the dropped (their pairwise-mask seeds), capped
    // at the survivor's neighborhood size.
    let unmasked = (plan.before_masking.len() + plan.after_masking.len()).min(neighbors);
    // The round a position last sends in: everyone exchanges keys, members
    // still alive upload masked inputs, survivors send unmask shares.
    let mut last_round = vec![SecAggStep::UnmaskShares as u8; n];
    for &i in &plan.after_masking {
        last_round[i] = SecAggStep::MaskedInput as u8;
    }
    for &i in &plan.before_masking {
        last_round[i] = SecAggStep::KeyShares as u8;
    }
    let (round_id, key) = (attempt.round_id, &key);
    let stand_in = |seed: u64, w: usize| mix(seed.wrapping_add(w as u64));
    let (mut seq, mut in_flight) = (0usize, 0usize);
    let mut senders = Vec::with_capacity(n);
    let mut spent: Vec<Vec<u8>> = Vec::new();
    for step in SecAggStep::ALL {
        senders.clear();
        senders.extend((0..n).filter(|&i| last_round[i] >= step as u8));
        let entry_len = step.max_entry_len(match step {
            SecAggStep::KeyAdvertise => 1,
            SecAggStep::KeyShares => neighbors,
            SecAggStep::MaskedInput => vector_len,
            SecAggStep::UnmaskShares => unmasked,
        });
        for group in senders.chunks((FRAME_BUDGET / entry_len).clamp(1, chunk)) {
            let buffer = spent.pop().unwrap_or_default();
            let group_members = group.iter().map(|&i| (i, members[i]));
            let frame = match step {
                SecAggStep::KeyAdvertise => {
                    let entries = group_members.map(|(i, member)| {
                        let seed = mix(session ^ key(i).wrapping_mul(0x9E6C_63D0_876A_68DE));
                        let keys: [u64; 8] = std::array::from_fn(|w| match w {
                            0..4 => stand_in(seed, w),
                            _ => stand_in(mix(seed), w - 4),
                        });
                        (member, std::iter::once((0, keys)))
                    });
                    SecAggBatch::build(round_id, step, buffer, entries)
                }
                // One encrypted Shamir share per ring neighbor.
                SecAggStep::KeyShares => {
                    let entries = group_members.map(|(i, member)| {
                        let shares = (0..neighbors).map(move |d| {
                            let seed = mix(session ^ key(i) << 20 ^ d as u64);
                            let neighbor = i + d + 1;
                            let neighbor = if neighbor < n { neighbor } else { neighbor - n };
                            let share: [u64; 6] = std::array::from_fn(|w| stand_in(seed, w));
                            (members[neighbor], share)
                        });
                        (member, shares)
                    });
                    SecAggBatch::build(round_id, step, buffer, entries)
                }
                SecAggStep::MaskedInput => {
                    let masked_input = &masked_input;
                    let entries = group_members.map(|(i, member)| {
                        let elements = (0..vector_len).map(move |v| (0, [masked_input(i, v)]));
                        (member, elements)
                    });
                    SecAggBatch::build(round_id, step, buffer, entries)
                }
                SecAggStep::UnmaskShares => {
                    let entries = group_members.map(|(i, member)| {
                        let shares = (0..unmasked).map(move |d| {
                            let d = d as u64;
                            (d, [mix(session ^ key(i) << 28 ^ d) & MASK61])
                        });
                        (member, shares)
                    });
                    SecAggBatch::build(round_id, step, buffer, entries)
                }
            };
            let payload = frame.into_frame();
            in_flight += payload.len();
            transport.send(Envelope {
                from: members[group[0]],
                to: COORDINATOR,
                sent_at: t0 + (seq + 1) as f64 * STEP,
                payload,
            });
            seq += group.len();
            if in_flight >= IN_FLIGHT {
                drain(transport, &mut spent);
                in_flight = 0;
            }
        }
    }
    drain(transport, &mut spent);
}

/// Meters the one Publish broadcast that closes a round merged across
/// coordinators (nothing is left to send it to in the simulation).
pub(crate) fn record_publish(
    traffic: &mut TrafficStats,
    round_id: u64,
    estimate: f64,
    reports: u64,
) {
    let publish = Message::Publish(Publish {
        round_id,
        estimate,
        reports,
        feedback: Vec::new(),
    });
    traffic.record(
        TrafficPhase::Publish,
        Direction::Downlink,
        publish.encoded_len() as u64,
    );
}

/// Drains the transport, tallying every delivered frame and handing it to
/// `visit` with its arrival time. A frame that does not decode is dropped
/// unmetered; returns how many were.
pub(crate) fn drain_counting(
    transport: &mut dyn Transport,
    traffic: &mut TrafficStats,
    mut visit: impl FnMut(f64, Message),
) -> u64 {
    let mut undecodable = 0;
    while let Some((at, env)) = transport.poll() {
        let nbytes = env.payload.len() as u64;
        match Message::from_bytes(env.payload) {
            Ok(msg) => {
                traffic.record(msg.phase(), msg.direction(), nbytes);
                visit(at, msg);
            }
            Err(_) => undecodable += 1,
        }
    }
    undecodable
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{InMemoryTransport, Tampered};
    use fednum_core::encoding::FixedPointCodec;
    use fednum_core::protocol::basic::BasicConfig;
    use fednum_core::sampling::BitSampling;
    use fednum_fedsim::dropout::DropoutModel;
    use fednum_fedsim::round::{collect, run_round_impl, SecAggSettings};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // One call shape per wire carrier of the shared round.
    fn run_session(
        values: &[f64],
        config: &FederatedMeanConfig,
        ledger: Option<&mut PrivacyLedger>,
        transport: &mut dyn Transport,
        rng: &mut dyn Rng,
    ) -> Result<FederatedOutcome, FedError> {
        super::run_session(values, config, ledger, transport, None, rng, false).map(|(out, _)| out)
    }

    fn run_session_batched(
        values: &[f64],
        config: &FederatedMeanConfig,
        chunk: usize,
        ledger: Option<&mut PrivacyLedger>,
        transport: &mut dyn Transport,
        rng: &mut dyn Rng,
    ) -> Result<FederatedOutcome, FedError> {
        super::run_session(values, config, ledger, transport, Some(chunk), rng, false)
            .map(|(out, _)| out)
    }

    fn base_config(bits: u32) -> FederatedMeanConfig {
        FederatedMeanConfig::new(BasicConfig::new(
            FixedPointCodec::integer(bits),
            BitSampling::geometric(bits, 1.0),
        ))
    }

    fn values(n: usize, hi: u64) -> Vec<f64> {
        (0..n).map(|i| (i as u64 % hi) as f64).collect()
    }

    #[test]
    fn plain_round_is_bit_identical_to_legacy() {
        let vs = values(4_000, 100);
        let cfg = base_config(7);
        let legacy = run_round_impl(&vs, &cfg, None, &mut StdRng::seed_from_u64(1)).unwrap();
        let mut t = InMemoryTransport::new(0xBEEF);
        let evented = run_session(&vs, &cfg, None, &mut t, &mut StdRng::seed_from_u64(1)).unwrap();
        assert_eq!(legacy.outcome.estimate, evented.outcome.estimate);
        assert_eq!(legacy.reports, evented.reports);
        assert_eq!(legacy.contacted, evented.contacted);
    }

    #[test]
    fn dropout_and_refill_stay_bit_identical() {
        let vs = values(6_000, 100);
        let cfg = base_config(7)
            .with_dropout(DropoutModel::bernoulli(0.4))
            .with_auto_adjust(3, 20, 0.6);
        for seed in 0..5 {
            let legacy = run_round_impl(&vs, &cfg, None, &mut StdRng::seed_from_u64(seed)).unwrap();
            let mut t = InMemoryTransport::new(seed);
            let evented =
                run_session(&vs, &cfg, None, &mut t, &mut StdRng::seed_from_u64(seed)).unwrap();
            assert_eq!(legacy.outcome.estimate, evented.outcome.estimate, "s{seed}");
            assert_eq!(legacy.waves_used, evented.waves_used);
            assert_eq!(legacy.robustness.degraded, evented.robustness.degraded);
        }
    }

    #[test]
    fn secagg_session_is_bit_identical_and_meters_all_phases() {
        let vs = values(300, 50);
        let cfg = base_config(6)
            .with_dropout(DropoutModel::phased(0.1, 0.05))
            .with_secagg(SecAggSettings::default());
        let legacy = run_round_impl(&vs, &cfg, None, &mut StdRng::seed_from_u64(3)).unwrap();
        let mut t = InMemoryTransport::new(3);
        let evented = run_session(&vs, &cfg, None, &mut t, &mut StdRng::seed_from_u64(3)).unwrap();
        assert_eq!(legacy.outcome.estimate, evented.outcome.estimate);
        assert_eq!(legacy.secagg, evented.secagg);
        let tr = evented.robustness.traffic;
        for phase in TrafficPhase::ALL {
            if phase == TrafficPhase::Salvage || phase == TrafficPhase::Shuffle {
                // No salvage policy configured and no shuffler in the
                // path: both phases stay silent.
                assert_eq!(tr.get(phase, Direction::Uplink).messages, 0);
                continue;
            }
            assert!(
                tr.get(phase, Direction::Uplink).messages > 0
                    || tr.get(phase, Direction::Downlink).messages > 0,
                "phase {phase:?} saw no traffic"
            );
        }
    }

    #[test]
    fn collect_traffic_matches_frame_sizes_exactly() {
        let vs = values(500, 100);
        let cfg = base_config(8);
        let mut t = InMemoryTransport::new(7);
        let out = run_session(&vs, &cfg, None, &mut t, &mut StdRng::seed_from_u64(7)).unwrap();
        let tr = out.robustness.traffic;
        // No dropout: every client sends Hello, receives RoundConfig,
        // sends exactly one report frame.
        let hello = tr.get(TrafficPhase::Rendezvous, Direction::Uplink);
        let cfg_dl = tr.get(TrafficPhase::Configure, Direction::Downlink);
        let col = tr.get(TrafficPhase::Collect, Direction::Uplink);
        assert_eq!(hello.messages, 500);
        assert_eq!(cfg_dl.messages, 500);
        assert_eq!(col.messages, 500);
        // Each report frame: tag + nonce varint + ReportMessage body.
        let expected: u64 = (0..500u64)
            .map(|c| {
                Message::Report(Report {
                    nonce: c,
                    body: ReportMessage {
                        task_id: cfg.session_seed,
                        reports: vec![(0, false)],
                    },
                })
                .encoded_len() as u64
            })
            .sum();
        assert_eq!(col.bytes, expected);
        assert_eq!(
            tr.get(TrafficPhase::Publish, Direction::Downlink).messages,
            1
        );
        assert!(
            tr.get(TrafficPhase::KeyExchange, Direction::Uplink)
                .messages
                == 0
        );
    }

    #[test]
    fn batched_plain_round_is_bit_identical_per_seed() {
        let vs = values(4_000, 100);
        let cfg = base_config(7)
            .with_dropout(DropoutModel::bernoulli(0.3))
            .with_auto_adjust(3, 20, 0.6);
        for seed in 0..4 {
            let mut ts = InMemoryTransport::new(seed);
            let scalar =
                run_session(&vs, &cfg, None, &mut ts, &mut StdRng::seed_from_u64(seed)).unwrap();
            for chunk in [1usize, 64, 1_000, 100_000] {
                let mut tb = InMemoryTransport::new(seed);
                let batched = run_session_batched(
                    &vs,
                    &cfg,
                    chunk,
                    None,
                    &mut tb,
                    &mut StdRng::seed_from_u64(seed),
                )
                .unwrap();
                assert_eq!(
                    scalar.outcome.estimate.to_bits(),
                    batched.outcome.estimate.to_bits(),
                    "seed {seed} chunk {chunk}"
                );
                assert_eq!(scalar.outcome.bit_means, batched.outcome.bit_means);
                assert_eq!(scalar.reports, batched.reports);
                assert_eq!(scalar.contacted, batched.contacted);
                assert_eq!(scalar.waves_used, batched.waves_used);
                assert_eq!(scalar.completion_time, batched.completion_time);
                assert_eq!(scalar.starved_bits, batched.starved_bits);
                assert_eq!(scalar.robustness.degraded, batched.robustness.degraded);
            }
        }
    }

    #[test]
    fn batched_secagg_round_is_bit_identical_per_seed() {
        let vs = values(300, 50);
        let cfg = base_config(6)
            .with_dropout(DropoutModel::phased(0.1, 0.05))
            .with_secagg(SecAggSettings::default());
        for seed in 0..4 {
            let mut ts = InMemoryTransport::new(seed);
            let scalar =
                run_session(&vs, &cfg, None, &mut ts, &mut StdRng::seed_from_u64(seed)).unwrap();
            let mut tb = InMemoryTransport::new(seed);
            let batched = run_session_batched(
                &vs,
                &cfg,
                64,
                None,
                &mut tb,
                &mut StdRng::seed_from_u64(seed),
            )
            .unwrap();
            assert_eq!(
                scalar.outcome.estimate.to_bits(),
                batched.outcome.estimate.to_bits(),
                "seed {seed}"
            );
            assert_eq!(scalar.secagg, batched.secagg);
            assert_eq!(
                scalar.robustness.secagg_retries,
                batched.robustness.secagg_retries
            );
            assert_eq!(scalar.reports, batched.reports);
        }
    }

    #[test]
    fn batched_secagg_retry_path_matches_the_scalar_retry_path() {
        // A phased-dropout cohort with a high threshold forces
        // `TooFewSurvivors` on the first attempt, exercising the retry
        // loop over a shrunken cohort on both wires.
        let vs = values(200, 50);
        let cfg = base_config(5)
            .with_dropout(DropoutModel::phased(0.2, 0.3))
            .with_secagg(SecAggSettings {
                threshold_fraction: 0.75,
                neighbors: None,
            });
        let mut hit_retry = false;
        for seed in 0..12 {
            let mut ts = InMemoryTransport::new(seed);
            let scalar = run_session(&vs, &cfg, None, &mut ts, &mut StdRng::seed_from_u64(seed));
            let mut tb = InMemoryTransport::new(seed);
            let batched = run_session_batched(
                &vs,
                &cfg,
                32,
                None,
                &mut tb,
                &mut StdRng::seed_from_u64(seed),
            );
            match (scalar, batched) {
                (Ok(s), Ok(b)) => {
                    assert_eq!(s.outcome.estimate.to_bits(), b.outcome.estimate.to_bits());
                    assert_eq!(s.robustness.secagg_retries, b.robustness.secagg_retries);
                    assert_eq!(s.secagg, b.secagg);
                    hit_retry |= s.robustness.secagg_retries > 0;
                }
                (Err(se), Err(be)) => assert_eq!(se.to_string(), be.to_string()),
                (s, b) => panic!("diverged at seed {seed}: scalar {s:?} vs batched {b:?}"),
            }
        }
        assert!(hit_retry, "no seed exercised the retry loop");
    }

    /// Meters what a session leaves queued: bytes sent and not yet polled,
    /// their peak, and the largest single frame.
    struct Held<T> {
        inner: T,
        held: usize,
        peak: usize,
        largest: usize,
    }

    impl<T: Transport> Transport for Held<T> {
        fn send(&mut self, env: Envelope) {
            self.held += env.payload.len();
            self.peak = self.peak.max(self.held);
            self.largest = self.largest.max(env.payload.len());
            self.inner.send(env);
        }

        fn poll(&mut self) -> Option<(f64, Envelope)> {
            let polled = self.inner.poll();
            if let Some((_, env)) = &polled {
                self.held -= env.payload.len();
            }
            polled
        }

        fn peek_time(&self) -> Option<f64> {
            self.inner.peek_time()
        }
    }

    #[test]
    fn secagg_rounds_stream_within_the_in_flight_bound_and_the_frame_budget() {
        // (clients, chunk, mask-graph degree): the benchmark's shape, the
        // per-client wire, and a complete graph whose chunk of entries is
        // many times the frame budget.
        let shapes = [
            (20_000, Some(512), Some(64)),
            (2_000, None, Some(64)),
            (300, Some(512), None),
        ];
        for (n, batched, neighbors) in shapes {
            let vs = values(n, 100);
            let cfg = base_config(7)
                .with_dropout(DropoutModel::phased(0.1, 0.05))
                .with_secagg(SecAggSettings {
                    threshold_fraction: 0.5,
                    neighbors,
                });
            let mut t = Held {
                inner: InMemoryTransport::new(8),
                held: 0,
                peak: 0,
                largest: 0,
            };
            let mut rng = StdRng::seed_from_u64(8);
            let out = super::run_session(&vs, &cfg, None, &mut t, batched, &mut rng, false)
                .unwrap()
                .0;
            let sent = out.robustness.traffic.direction_total(Direction::Uplink);
            assert!(
                t.largest <= FRAME_BUDGET,
                "n={n}: a {}-byte frame",
                t.largest
            );
            assert!(
                t.peak < IN_FLIGHT + t.largest,
                "n={n}: {} bytes in flight",
                t.peak
            );
            assert_eq!(t.held, 0);
            // The bound is the point only where the exchange exceeds it.
            assert!(n < 2_000 || sent.bytes as usize > 4 * IN_FLIGHT, "n={n}");
        }
    }

    /// The stand-in derivation the per-message frames used: word `i` of
    /// `out` is `mix(seed + i)`, little-endian.
    fn fill_derived(out: &mut [u8], seed: u64) {
        for (i, chunk) in out.chunks_mut(8).enumerate() {
            let word = mix(seed.wrapping_add(i as u64)).to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    #[test]
    fn batched_frames_carry_the_per_message_frames_stand_in_bytes() {
        use fednum_secagg::protocol::{DropoutPlan, SecAggConfig};
        let members = [40u64, 41, 42, 43, 44, 45];
        let (n, degree, vector_len, session) = (members.len(), 3, 4, 0x5E55_1077);
        let plan = DropoutPlan {
            before_masking: [1].into(),
            after_masking: [4].into(),
        };
        let config = SecAggConfig::new(n, 3, vector_len, session).with_neighbors(degree);
        let attempt = SecAggAttempt {
            config: &config,
            members: &members,
            plan: &plan,
            round_id: 9,
        };
        let key = |i: usize| 1_000 + i as u64;
        let masked = |i: usize, v: usize| (i * 10 + v) as u64;
        let mut t = InMemoryTransport::new(1);
        for chunk in [1, 4] {
            // What every sender's entry holds, per message round.
            let mut got: Vec<Vec<(u64, u64, Vec<u8>)>> = vec![Vec::new(); 4];
            let mut frames = 0;
            frame_secagg_rounds(&mut t, &attempt, 0.0, chunk, key, masked, |t, _| {
                while let Some((_, env)) = t.poll() {
                    let Ok(Message::SecAgg(batch)) = Message::decode(&env.payload) else {
                        panic!("not a secure-aggregation frame");
                    };
                    frames += 1;
                    got[batch.step() as usize].extend(
                        (batch.items()).map(|(sender, k, payload)| (sender, k, payload.to_vec())),
                    );
                }
            });
            // 6 + 6 + 5 + 4 senders, one frame each or four to a frame.
            assert_eq!(frames, if chunk == 1 { 21 } else { 2 + 2 + 2 + 1 });

            let mut want: Vec<Vec<(u64, u64, Vec<u8>)>> = vec![Vec::new(); 4];
            for (i, &member) in members.iter().enumerate() {
                let seed = mix(session ^ key(i).wrapping_mul(0x9E6C_63D0_876A_68DE));
                let mut keys = [0u8; 64];
                fill_derived(&mut keys[..32], seed);
                fill_derived(&mut keys[32..], mix(seed));
                want[0].push((member, 0, keys.to_vec()));
                // Degree 3 on a ring of six: one neighbor on each side.
                for d in 0..2 {
                    let mut ct = [0u8; 48];
                    fill_derived(&mut ct, mix(session ^ key(i) << 20 ^ d as u64));
                    want[1].push((member, members[(i + d + 1) % n], ct.to_vec()));
                }
                if i == 1 {
                    continue;
                }
                for v in 0..vector_len {
                    want[2].push((member, 0, masked(i, v).to_le_bytes().to_vec()));
                }
                if i == 4 {
                    continue;
                }
                // Two dropped, under the degree: two unmask shares each.
                for d in 0..2u64 {
                    let share = mix(session ^ key(i) << 28 ^ d) & MASK61;
                    want[3].push((member, d, share.to_le_bytes().to_vec()));
                }
            }
            assert_eq!(got, want, "chunk {chunk}");
        }
    }

    #[test]
    fn key_shares_follow_the_ring_mask_graph() {
        // One KeyShares item per ring neighbor: `2·max(d/2, 1)` below the
        // complete-graph cut (an odd degree rounds down, degree 1 still has
        // a neighbor on each side), none for a one-client attempt.
        use fednum_secagg::protocol::{DropoutPlan, SecAggConfig};
        use fednum_secagg::ring_neighbors;
        for (n, degree, want) in [
            (50, Some(7), 6),
            (50, Some(1), 2),
            (50, None, 49),
            (1, None, 0),
        ] {
            let members: Vec<u64> = (0..n as u64).map(|i| 100 + 3 * i).collect();
            let mut config = SecAggConfig::new(n, 1, 2, 0x5E55);
            config.neighbors = degree;
            let attempt = SecAggAttempt {
                config: &config,
                members: &members,
                plan: &DropoutPlan::none(),
                round_id: 3,
            };
            let mut per_sender = std::collections::BTreeMap::<u64, usize>::new();
            let mut t = InMemoryTransport::new(1);
            let key = |i: usize| i as u64;
            frame_secagg_rounds(
                &mut t,
                &attempt,
                0.0,
                8,
                key,
                |_, _| 0,
                |t, _| {
                    while let Some((_, env)) = t.poll() {
                        let Ok(Message::SecAgg(batch)) = Message::decode(&env.payload) else {
                            panic!("not a secure-aggregation frame");
                        };
                        if batch.step() == SecAggStep::KeyShares {
                            for (sender, _, _) in batch.items() {
                                *per_sender.entry(sender).or_default() += 1;
                            }
                        }
                    }
                },
            );
            for (i, &member) in members.iter().enumerate() {
                let ring = ring_neighbors(member, &members, degree.unwrap_or(n - 1)).len();
                assert_eq!(ring, want, "n={n} degree={degree:?}");
                let sent = per_sender.get(&member).copied().unwrap_or(0);
                assert_eq!(sent, ring, "n={n} degree={degree:?} position {i}");
            }
        }
    }

    #[test]
    fn batched_metered_round_bills_the_ledger_identically() {
        let vs = values(2_000, 64);
        let cfg = base_config(6).with_dropout(DropoutModel::bernoulli(0.2));
        let mut scalar_ledger = PrivacyLedger::new();
        let mut ts = InMemoryTransport::new(5);
        run_session(
            &vs,
            &cfg,
            Some(&mut scalar_ledger),
            &mut ts,
            &mut StdRng::seed_from_u64(5),
        )
        .unwrap();
        let mut batched_ledger = PrivacyLedger::new();
        let mut tb = InMemoryTransport::new(5);
        run_session_batched(
            &vs,
            &cfg,
            128,
            Some(&mut batched_ledger),
            &mut tb,
            &mut StdRng::seed_from_u64(5),
        )
        .unwrap();
        assert_eq!(
            scalar_ledger.max_bits_per_client(),
            batched_ledger.max_bits_per_client()
        );
    }

    #[test]
    fn batched_wire_amortizes_collect_uplink_frames() {
        let vs = values(5_000, 100);
        let cfg = base_config(8);
        let mut ts = InMemoryTransport::new(2);
        let scalar = run_session(&vs, &cfg, None, &mut ts, &mut StdRng::seed_from_u64(2)).unwrap();
        let mut tb = InMemoryTransport::new(2);
        let batched =
            run_session_batched(&vs, &cfg, 512, None, &mut tb, &mut StdRng::seed_from_u64(2))
                .unwrap();
        let s_up = scalar
            .robustness
            .traffic
            .get(TrafficPhase::Collect, Direction::Uplink);
        let b_up = batched
            .robustness
            .traffic
            .get(TrafficPhase::Collect, Direction::Uplink);
        // 5 000 per-client frames vs ceil(5 000 / 512) chunk frames.
        assert_eq!(s_up.messages, 5_000);
        assert_eq!(b_up.messages, 10);
        assert!(
            b_up.bytes * 2 < s_up.bytes,
            "planes must at least halve collect uplink bytes: {} vs {}",
            b_up.bytes,
            s_up.bytes
        );
        // No per-client Hello/RoundConfig chains on the batched wire.
        assert_eq!(
            batched
                .robustness
                .traffic
                .get(TrafficPhase::Rendezvous, Direction::Uplink)
                .messages,
            0
        );
    }

    /// The far end of a hostile wire: rewrites the chunk frame with nonce 1
    /// so every slot is occupied on *every* plane — an edge trying to have
    /// each client tallied `bits` times.
    fn stuff_chunk_one(mut env: Envelope) -> Option<Envelope> {
        if let Ok(Message::BatchReport(mut br)) = Message::decode(&env.payload) {
            if br.nonce == 1 {
                let (bits, slots) = (br.body.planes.bits(), br.body.planes.slots());
                let mut stuffed = BitPlanes::new(bits, slots);
                for slot in 0..slots {
                    for plane in 0..bits {
                        stuffed.record(slot, plane, true);
                    }
                }
                br.body.planes = stuffed;
                env.payload = Message::BatchReport(br).encode();
            }
        }
        Some(env)
    }

    #[test]
    fn chunk_occupying_a_slot_on_several_planes_is_dropped_not_double_counted() {
        let vs = values(2_000, 100);
        let cfg = base_config(7);
        let (codes, _) = cfg.protocol.codec.encode_all(&vs);
        let mut hostile = Tampered {
            inner: InMemoryTransport::new(4),
            rewrite: stuff_chunk_one,
        };
        let mut session = Session::open(&mut hostile, &cfg, Some(128), 0);
        let st = collect(
            &codes,
            &cfg,
            0,
            None,
            &mut session,
            &mut StdRng::seed_from_u64(4),
        )
        .unwrap();
        // The stuffed frame fails closed as a whole: its 128 clients read
        // as "nothing arrived", everyone else reports exactly once.
        assert_eq!(st.contacts.len(), 2_000);
        for (i, c) in st.contacts.iter().enumerate() {
            assert_eq!(c.report.is_some(), !(128..256).contains(&i), "contact {i}");
        }
        let reporters = st.reporters() as u64;
        assert_eq!(reporters, 2_000 - 128);
        assert_eq!(st.reports(), reporters);
        // The contacts are what a secure tally packs into planes: they
        // must agree with the counts the plain tally keeps.
        let mut contact_counts = vec![0u64; 7];
        let mut contact_ones = vec![0u64; 7];
        for c in &st.contacts {
            if let Some(sent) = c.report {
                contact_counts[c.bit as usize] += c.copies;
                contact_ones[c.bit as usize] += u64::from(sent) * c.copies;
            }
        }
        assert_eq!(contact_counts, st.counts);
        assert_eq!(contact_ones, st.ones);

        // End to end, the published report count and the tally agree.
        hostile.inner = InMemoryTransport::new(4);
        let out = run_session_batched(
            &vs,
            &cfg,
            128,
            None,
            &mut hostile,
            &mut StdRng::seed_from_u64(4),
        )
        .unwrap();
        assert_eq!(out.reports, reporters);
        assert_eq!(out.outcome.accumulator.total_reports(), reporters);
    }

    /// Which envelope field of which frame [`misaddress`] hits.
    #[derive(Clone, Copy, Debug)]
    enum Hit {
        HelloFrom,
        ReportFrom,
        ConfigTo,
    }

    /// The far end of a hostile wire: readdresses the victim's frame — a
    /// daemon echoing back a wrong `from` / `to`, which a socket-backed
    /// transport decodes off the wire — or, with `readdress: None`, loses
    /// it: the run the readdressed one must equal.
    fn misaddress(
        hit: Hit,
        victim: u64,
        readdress: Option<u64>,
    ) -> impl FnMut(Envelope) -> Option<Envelope> {
        move |mut env| {
            let field = match (hit, Message::decode(&env.payload)) {
                (Hit::HelloFrom, Ok(Message::Hello { .. }))
                | (Hit::ReportFrom, Ok(Message::Report(_))) => &mut env.from,
                (Hit::ConfigTo, Ok(Message::RoundConfig(_))) => &mut env.to,
                _ => return Some(env),
            };
            if *field == victim {
                *field = readdress?;
            }
            Some(env)
        }
    }

    #[test]
    fn misaddressed_envelopes_are_dropped_as_unroutable_never_indexed() {
        let vs = values(200, 50);
        let cfg = base_config(6);
        let (codes, _) = cfg.protocol.codec.encode_all(&vs);
        // An address past the population, and — on a shard whose identities
        // start at 1 000 — one below the offset, on each routed field.
        for (offset, address) in [(0, 1 << 40), (1_000, 5)] {
            for hit in [Hit::HelloFrom, Hit::ReportFrom, Hit::ConfigTo] {
                let run = |readdress| {
                    let mut t = Tampered {
                        inner: InMemoryTransport::new(9),
                        rewrite: misaddress(hit, offset + 7, readdress),
                    };
                    let mut session = Session::open(&mut t, &cfg, None, offset);
                    let mut rng = StdRng::seed_from_u64(9);
                    collect(&codes, &cfg, offset, None, &mut session, &mut rng).unwrap()
                };
                let (hostile, dropped) = (run(Some(address)), run(None));
                // The round completes; the victim reads as "nothing arrived".
                let victim = hostile.contacts.iter().find(|c| c.client == 7).unwrap();
                assert!(victim.report.is_none(), "{hit:?} at offset {offset}");
                assert_eq!(hostile.reporters(), 199, "{hit:?} at offset {offset}");
                assert_eq!(hostile.ones, dropped.ones);
                assert_eq!(hostile.counts, dropped.counts);
            }
        }

        // End to end, the estimate is the one of the run where it dropped.
        let estimate = |readdress| {
            let mut t = Tampered {
                inner: InMemoryTransport::new(9),
                rewrite: misaddress(Hit::ReportFrom, 7, readdress),
            };
            let out = run_session(&vs, &cfg, None, &mut t, &mut StdRng::seed_from_u64(9));
            out.unwrap().outcome.estimate.to_bits()
        };
        assert_eq!(estimate(Some(1 << 40)), estimate(None));
    }

    /// The far end of a hostile wire: the first frame `rewrite` accepts
    /// comes back rewritten — or, with `lose`, does not come back: the run
    /// the rewritten one must equal.
    fn rewrite_first(
        mut rewrite: impl FnMut(Message) -> Option<Message>,
        lose: bool,
    ) -> impl FnMut(Envelope) -> Option<Envelope> {
        let mut done = false;
        move |mut env| {
            if !done {
                if let Some(hostile) = Message::decode(&env.payload).ok().and_then(&mut rewrite) {
                    done = true;
                    if lose {
                        return None;
                    }
                    env.payload = hostile.encode();
                }
            }
            Some(env)
        }
    }

    /// Runs a 6-bit per-client round whose first frame accepted by
    /// `rewrite` is rewritten (or lost) and checks both end the same way:
    /// the victim's slot reads "nothing arrived".
    fn assert_rewritten_frame_reads_as_lost(rewrite: fn(Message) -> Option<Message>) {
        let vs = values(500, 50);
        let cfg = base_config(6);
        let run = |lose| {
            let mut t = Tampered {
                inner: InMemoryTransport::new(5),
                rewrite: rewrite_first(rewrite, lose),
            };
            run_session(&vs, &cfg, None, &mut t, &mut StdRng::seed_from_u64(5)).unwrap()
        };
        let (hostile, lost) = (run(false), run(true));
        assert_eq!(hostile.reports, 499);
        assert_eq!(hostile.reports, lost.reports);
        assert_eq!(
            hostile.outcome.estimate.to_bits(),
            lost.outcome.estimate.to_bits()
        );
        assert_eq!(
            hostile.outcome.accumulator.total_reports(),
            lost.outcome.accumulator.total_reports()
        );
    }

    #[test]
    fn report_naming_a_bit_past_the_codec_is_dropped_never_indexed() {
        assert_rewritten_frame_reads_as_lost(|msg| match msg {
            Message::Report(mut r) => {
                r.body.reports[0].0 = 200;
                Some(Message::Report(r))
            }
            _ => None,
        });
    }

    #[test]
    fn assignment_naming_a_bit_past_the_codec_is_dropped_before_the_client_runs() {
        assert_rewritten_frame_reads_as_lost(|msg| match msg {
            Message::RoundConfig(mut rc) => {
                rc.assigned_bit = 200;
                Some(Message::RoundConfig(rc))
            }
            _ => None,
        });
    }

    #[test]
    fn empty_population_is_a_typed_error() {
        let mut t = InMemoryTransport::new(0);
        assert!(matches!(
            run_session(
                &[],
                &base_config(4),
                None,
                &mut t,
                &mut StdRng::seed_from_u64(0)
            ),
            Err(FedError::PopulationTooSmall { got: 0, need: 1 })
        ));
    }
}
