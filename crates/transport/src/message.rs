//! The typed protocol surface, framed through the `fednum-core::wire`
//! binary codec.
//!
//! Every byte that crosses the simulated network is one of these messages,
//! encoded as a one-byte type tag followed by varint-framed fields. Sender
//! identity is *not* part of the frame: like a real deployment, it comes
//! from the authenticated connection (the [`crate::net::Envelope`] around
//! the frame) — except in a [`SecAggBatch`], which stands for a chunk of
//! connections and names each entry's sender. The round identifier *is*
//! in-band, because stale-round detection is a payload property, not a
//! connection property.
//!
//! Sizes are the point of this module — the paper's communication claims
//! ("only a single private bit of data is disclosed... both can be easily
//! communicated within a single (encrypted) network packet") become
//! measurable through [`Message::encoded_len`] and the per-phase traffic
//! accounting in the coordinator.

use fednum_core::wire::{
    push_varint, read_bytes, read_varint, varint_len, BatchReportMessage, BatchReportParts,
    ReportMessage, ReportParts, ShuffleMessage, ShuffleParts, WireError,
};
use fednum_fedsim::traffic::{Direction, TrafficPhase};

/// Bytes of an X25519-style public key.
pub const PUBLIC_KEY_LEN: usize = 32;
/// Bytes of one encrypted Shamir share (two masked field elements plus an
/// AEAD tag).
pub const ENCRYPTED_SHARE_LEN: usize = 48;

const TAG_HELLO: u8 = 0;
const TAG_ROUND_CONFIG: u8 = 1;
pub(crate) const TAG_REPORT: u8 = 2;
const TAG_SECAGG: u8 = 3;
const TAG_PUBLISH: u8 = 7;
const TAG_CONFIG_HEADER: u8 = 8;
const TAG_ASSIGN_BIT: u8 = 9;
const TAG_SHUFFLE: u8 = 10;
const TAG_BATCH_REPORT: u8 = 11;

/// Round-configuration downlink: the per-client task description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundConfig {
    /// Round/task identifier.
    pub round_id: u64,
    /// The bit index this client must report on (central QMC assignment).
    pub assigned_bit: u8,
    /// Whether reports travel through secure aggregation.
    pub secagg: bool,
    /// Shamir threshold for the secure-aggregation session (0 when direct).
    pub threshold: u64,
    /// Masked-input vector length (0 when direct).
    pub vector_len: u64,
}

/// Shared round-configuration broadcast: everything in [`RoundConfig`]
/// except the per-client bit assignment. With config compression enabled
/// the coordinator broadcasts one of these per wave and answers each Hello
/// with a tiny [`Message::AssignBit`] delta instead of a full per-client
/// `RoundConfig`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigHeader {
    /// Round/task identifier.
    pub round_id: u64,
    /// Whether reports travel through secure aggregation.
    pub secagg: bool,
    /// Shamir threshold for the secure-aggregation session (0 when direct).
    pub threshold: u64,
    /// Masked-input vector length (0 when direct).
    pub vector_len: u64,
}

/// Bit-pushing report uplink: the core wire message plus an envelope nonce
/// for replay detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Per-submission nonce; replays repeat it verbatim.
    pub nonce: u64,
    /// The report payload (`task_id` carries the round tag).
    pub body: ReportMessage,
}

/// Batched multi-client report uplink: one wave chunk's bit-plane bitmaps
/// in a single frame (see [`BatchReportMessage`]), plus an envelope nonce
/// for replay detection — the chunk-level analogue of [`Report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// Per-submission nonce; replays repeat it verbatim.
    pub nonce: u64,
    /// The packed chunk payload (`task_id` carries the round tag).
    pub body: BatchReportMessage,
}

/// Which of a secure-aggregation instance's four message rounds a
/// [`SecAggBatch`] carries (on the wire: its index), and with it what the
/// items of an entry are. Field elements are 8 bytes little-endian below
/// 2^61: uniform elements do not compress as varints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecAggStep {
    /// Round 0: one item, the key-agreement and pairwise-mask public keys.
    KeyAdvertise,
    /// Round 1: per mask-graph neighbor `varint(recipient)` and its
    /// encrypted Shamir share.
    KeyShares,
    /// Round 2: the masked input's field elements.
    MaskedInput,
    /// Round 3: per dropped neighbor (or the sender's self-mask)
    /// `varint(subject)` and the share, a field element.
    UnmaskShares,
}

impl SecAggStep {
    /// Every step, in protocol order.
    pub const ALL: [Self; 4] = [
        Self::KeyAdvertise,
        Self::KeyShares,
        Self::MaskedInput,
        Self::UnmaskShares,
    ];

    /// Whether a varint key opens each item, and an item's payload bytes —
    /// a field element where that is one word.
    fn layout(self) -> (bool, usize) {
        match self {
            Self::KeyAdvertise => (false, 2 * PUBLIC_KEY_LEN),
            Self::KeyShares => (true, ENCRYPTED_SHARE_LEN),
            Self::MaskedInput => (false, 8),
            Self::UnmaskShares => (true, 8),
        }
    }

    /// The most bytes an entry of `items` items takes, every varint at its
    /// longest: what a sender sizes a batch by.
    #[must_use]
    pub fn max_entry_len(self, items: usize) -> usize {
        let (keyed, width) = self.layout();
        20 + items * (width + 10 * usize::from(keyed))
    }
}

/// One secure-aggregation message round of one chunk of senders, batched
/// the way [`BatchReport`] batches reports (a lone sender is a batch of
/// one): `tag · step · varint(round) · varint(entries)`, then per sender
/// `varint(sender) · varint(items)` and its items ([`SecAggStep`]).
///
/// The value *is* its encoded frame, and holding one means the frame is
/// valid: [`build`](Self::build) writes one, [`Message::decode`] /
/// [`Message::from_bytes`] admit one only after a bounds-checked walk that
/// allocates nothing and believes no count (every entry and item read
/// consumes bytes). Only such a frame can be [iterated](Self::items).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecAggBatch(Vec<u8>);

/// One item of an entry, `(sender, key, payload)`: `key` is the share's
/// recipient or subject, 0 where the step has none.
pub type SecAggItem<'a> = (u64, u64, &'a [u8]);

/// Walks a secure-aggregation frame's items, entry by entry.
pub struct SecAggItems<'a> {
    buf: &'a [u8],
    pos: usize,
    layout: (bool, usize),
    sender: u64,
    /// Entries, and items of the current entry, not yet read.
    left: (u64, u64),
}

impl<'a> SecAggItems<'a> {
    /// Opens the frame at the start of `buf` (its tag at index 0).
    fn open(buf: &'a [u8]) -> Result<Self, WireError> {
        let step = usize::from(*buf.get(1).ok_or(WireError::Truncated)?);
        let step = (SecAggStep::ALL.get(step)).ok_or(WireError::InvalidField("secagg step"))?;
        let mut items = Self {
            buf,
            pos: 2,
            layout: step.layout(),
            sender: 0,
            left: (0, 0),
        };
        read_varint(buf, &mut items.pos)?;
        items.left.0 = read_varint(buf, &mut items.pos)?;
        Ok(items)
    }

    fn read(&mut self) -> Result<Option<SecAggItem<'a>>, WireError> {
        let (keyed, width) = self.layout;
        let (buf, pos) = (self.buf, &mut self.pos);
        while self.left.1 == 0 {
            if self.left.0 == 0 {
                return Ok(None);
            }
            self.sender = read_varint(buf, pos)?;
            self.left = (self.left.0 - 1, read_varint(buf, pos)?);
        }
        self.left.1 -= 1;
        let key = if keyed { read_varint(buf, pos)? } else { 0 };
        let payload = read_bytes(buf, pos, width)?;
        if width == 8 && payload[7] >> 5 != 0 {
            return Err(WireError::InvalidField("field element"));
        }
        Ok(Some((self.sender, key, payload)))
    }
}

impl<'a> Iterator for SecAggItems<'a> {
    type Item = SecAggItem<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read().expect("the frame was validated")
    }
}

impl SecAggBatch {
    /// Writes a frame straight into `frame` (over what it held, keeping its
    /// allocation): per sender, its items as `(key, payload)` — the payload
    /// as the `W` little-endian words of the step's item width, the key
    /// ignored where the step has none. The iterators' stated lengths go on
    /// the wire.
    #[must_use]
    pub fn build<const W: usize, I: ExactSizeIterator<Item = (u64, [u64; W])>>(
        round_id: u64,
        step: SecAggStep,
        mut frame: Vec<u8>,
        entries: impl ExactSizeIterator<Item = (u64, I)>,
    ) -> Self {
        let (keyed, width) = step.layout();
        assert_eq!(8 * W, width, "item width");
        frame.clear();
        frame.extend_from_slice(&[TAG_SECAGG, step as u8]);
        push_varint(&mut frame, round_id);
        push_varint(&mut frame, entries.len() as u64);
        for (sender, items) in entries {
            push_varint(&mut frame, sender);
            push_varint(&mut frame, items.len() as u64);
            for (key, words) in items {
                if keyed {
                    push_varint(&mut frame, key);
                }
                assert!(W > 1 || words[0] >> 61 == 0, "field element range");
                frame.extend_from_slice(words.map(u64::to_le_bytes).as_flattened());
            }
        }
        debug_assert_eq!(Self::validate(&frame), Ok(frame.len()));
        Self(frame)
    }

    /// Validates the frame at the start of `buf`; returns its length.
    fn validate(buf: &[u8]) -> Result<usize, WireError> {
        let mut items = SecAggItems::open(buf)?;
        while items.read()?.is_some() {}
        Ok(items.pos)
    }

    /// The message round the entries belong to.
    #[must_use]
    pub fn step(&self) -> SecAggStep {
        SecAggStep::ALL[usize::from(self.0[1])]
    }

    /// Every item of every entry, in frame order.
    #[must_use]
    pub fn items(&self) -> SecAggItems<'_> {
        SecAggItems::open(&self.0).expect("the frame was validated")
    }

    /// The encoded frame, without a copy.
    #[must_use]
    pub fn into_frame(self) -> Vec<u8> {
        self.0
    }
}

/// Result broadcast closing the session.
#[derive(Debug, Clone, PartialEq)]
pub struct Publish {
    /// Round identifier.
    pub round_id: u64,
    /// The published mean estimate.
    pub estimate: f64,
    /// Reports behind the estimate.
    pub reports: u64,
    /// Session-to-session feedback riding the broadcast: the adaptive
    /// two-round protocol publishes round 1's observed per-bit means here,
    /// and the round-2 session reads its variance-adapted sampling weights
    /// off this frame instead of out of shared coordinator state. Empty for
    /// single-session rounds (and costs one count byte on the wire).
    pub feedback: Vec<f64>,
}

/// Every message of the protocol surface.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client check-in (rendezvous uplink).
    Hello {
        /// Round the client is checking in for.
        round_id: u64,
    },
    /// Round-configuration downlink.
    RoundConfig(RoundConfig),
    /// Bit-pushing report uplink.
    Report(Report),
    /// Secure-aggregation uplink: one message round of one chunk of senders.
    SecAgg(SecAggBatch),
    /// Result broadcast downlink.
    Publish(Publish),
    /// Compressed-config broadcast downlink (shared round parameters).
    ConfigHeader(ConfigHeader),
    /// Compressed-config per-client downlink: just the assigned bit.
    AssignBit {
        /// The bit index this client must report on.
        assigned_bit: u8,
    },
    /// Shuffle-tier frame: a client's one-bit submission to the shuffler,
    /// or the shuffler's anonymized batch to the coordinator. Both legs
    /// travel toward the coordinator, so the whole tier is uplink.
    Shuffle(ShuffleMessage),
    /// Batched multi-client report uplink (one frame per wave chunk).
    BatchReport(BatchReport),
}

impl Message {
    /// The protocol phase this message belongs to.
    #[must_use]
    pub fn phase(&self) -> TrafficPhase {
        match self {
            Message::Hello { .. } => TrafficPhase::Rendezvous,
            Message::RoundConfig(_) | Message::ConfigHeader(_) | Message::AssignBit { .. } => {
                TrafficPhase::Configure
            }
            Message::Report(_) | Message::BatchReport(_) => TrafficPhase::Collect,
            Message::SecAgg(b) => match b.step() {
                SecAggStep::KeyAdvertise | SecAggStep::KeyShares => TrafficPhase::KeyExchange,
                SecAggStep::MaskedInput => TrafficPhase::Masking,
                SecAggStep::UnmaskShares => TrafficPhase::Unmask,
            },
            Message::Publish(_) => TrafficPhase::Publish,
            Message::Shuffle(_) => TrafficPhase::Shuffle,
        }
    }

    /// The direction this message travels.
    #[must_use]
    pub fn direction(&self) -> Direction {
        match self {
            Message::RoundConfig(_)
            | Message::Publish(_)
            | Message::ConfigHeader(_)
            | Message::AssignBit { .. } => Direction::Downlink,
            _ => Direction::Uplink,
        }
    }

    /// Encodes as `tag · body`.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        self.encode_into(&mut out);
        out
    }

    /// Encodes into an existing buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Message::Hello { round_id } => {
                out.push(TAG_HELLO);
                push_varint(out, *round_id);
            }
            Message::RoundConfig(c) => {
                out.push(TAG_ROUND_CONFIG);
                push_varint(out, c.round_id);
                out.push(c.assigned_bit);
                out.push(u8::from(c.secagg));
                push_varint(out, c.threshold);
                push_varint(out, c.vector_len);
            }
            Message::Report(r) => {
                out.push(TAG_REPORT);
                push_varint(out, r.nonce);
                r.body.encode_into(out);
            }
            Message::SecAgg(b) => out.extend_from_slice(&b.0),
            Message::Publish(p) => {
                out.push(TAG_PUBLISH);
                push_varint(out, p.round_id);
                out.extend_from_slice(&p.estimate.to_bits().to_le_bytes());
                push_varint(out, p.reports);
                push_varint(out, p.feedback.len() as u64);
                for &f in &p.feedback {
                    out.extend_from_slice(&f.to_bits().to_le_bytes());
                }
            }
            Message::ConfigHeader(h) => {
                out.push(TAG_CONFIG_HEADER);
                push_varint(out, h.round_id);
                out.push(u8::from(h.secagg));
                push_varint(out, h.threshold);
                push_varint(out, h.vector_len);
            }
            Message::AssignBit { assigned_bit } => {
                out.push(TAG_ASSIGN_BIT);
                out.push(*assigned_bit);
            }
            Message::Shuffle(s) => {
                out.push(TAG_SHUFFLE);
                s.encode_into(out);
            }
            Message::BatchReport(b) => {
                out.push(TAG_BATCH_REPORT);
                push_varint(out, b.nonce);
                b.body.encode_into(out);
            }
        }
    }

    /// Encoded size in bytes.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            Message::Hello { round_id } => varint_len(*round_id),
            Message::RoundConfig(c) => {
                varint_len(c.round_id) + 2 + varint_len(c.threshold) + varint_len(c.vector_len)
            }
            Message::Report(r) => varint_len(r.nonce) + r.body.encoded_len(),
            Message::SecAgg(b) => b.0.len() - 1,
            Message::Publish(p) => {
                let feedback = p.feedback.len();
                varint_len(p.round_id)
                    + 8
                    + varint_len(p.reports)
                    + varint_len(feedback as u64)
                    + 8 * feedback
            }
            Message::ConfigHeader(h) => {
                varint_len(h.round_id) + 1 + varint_len(h.threshold) + varint_len(h.vector_len)
            }
            Message::AssignBit { .. } => 1,
            Message::Shuffle(s) => s.encoded_len(),
            Message::BatchReport(b) => varint_len(b.nonce) + b.body.encoded_len(),
        }
    }

    /// Decodes one message, requiring the buffer to be fully consumed.
    ///
    /// # Errors
    /// See [`WireError`]; [`WireError::UnknownTag`] for an unrecognized
    /// type tag.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        Parts::split(buf).map(Parts::into_message)
    }

    /// Checks one message without building it: the verdict of
    /// [`decode`](Self::decode), on every input, with no heap allocation.
    ///
    /// # Errors
    /// The error [`decode`](Self::decode) returns.
    pub fn validate(buf: &[u8]) -> Result<(), WireError> {
        Parts::split(buf).map(drop)
    }

    /// [`decode`](Self::decode) of a frame the caller owns: a
    /// secure-aggregation batch keeps the buffer instead of copying it.
    ///
    /// # Errors
    /// See [`decode`](Self::decode).
    pub fn from_bytes(frame: Vec<u8>) -> Result<Self, WireError> {
        if frame.first() != Some(&TAG_SECAGG) {
            return Self::decode(&frame);
        }
        if SecAggBatch::validate(&frame)? != frame.len() {
            return Err(WireError::TrailingBytes);
        }
        Ok(Message::SecAgg(SecAggBatch(frame)))
    }

    /// Decodes one message starting at `*pos`, advancing `*pos` past it.
    ///
    /// # Errors
    /// See [`WireError`].
    pub fn decode_from(buf: &[u8], pos: &mut usize) -> Result<Self, WireError> {
        Parts::split_from(buf, pos).map(Parts::into_message)
    }
}

/// One message split in place: everything [`Message::decode_from`] reads
/// and checks, with what it would copy into a heap buffer still borrowed
/// from the frame. Decoding builds the message from its parts; validating
/// stops at them, so the two share one parser and one verdict.
enum Parts<'a> {
    /// A message that owns nothing on the heap.
    Inline(Message),
    Report {
        nonce: u64,
        body: ReportParts<'a>,
    },
    /// A whole validated secure-aggregation frame, tag included.
    SecAgg(&'a [u8]),
    Publish {
        round_id: u64,
        estimate: f64,
        reports: u64,
        /// Eight little-endian bytes per value.
        feedback: &'a [u8],
    },
    Shuffle(ShuffleParts<'a>),
    BatchReport {
        nonce: u64,
        body: BatchReportParts<'a>,
    },
}

impl<'a> Parts<'a> {
    /// Splits a buffer holding exactly one message.
    fn split(buf: &'a [u8]) -> Result<Self, WireError> {
        let mut pos = 0;
        let parts = Self::split_from(buf, &mut pos)?;
        if pos != buf.len() {
            return Err(WireError::TrailingBytes);
        }
        Ok(parts)
    }

    fn split_from(buf: &'a [u8], pos: &mut usize) -> Result<Self, WireError> {
        let &tag = buf.get(*pos).ok_or(WireError::Truncated)?;
        *pos += 1;
        let inline = match tag {
            TAG_HELLO => Message::Hello {
                round_id: read_varint(buf, pos)?,
            },
            TAG_ROUND_CONFIG => {
                let round_id = read_varint(buf, pos)?;
                let assigned_bit = *buf.get(*pos).ok_or(WireError::Truncated)?;
                *pos += 1;
                let secagg = read_flag(buf, pos)?;
                let threshold = read_varint(buf, pos)?;
                let vector_len = read_varint(buf, pos)?;
                Message::RoundConfig(RoundConfig {
                    round_id,
                    assigned_bit,
                    secagg,
                    threshold,
                    vector_len,
                })
            }
            TAG_REPORT => {
                let nonce = read_varint(buf, pos)?;
                let body = ReportParts::split_from(buf, pos)?;
                return Ok(Parts::Report { nonce, body });
            }
            TAG_SECAGG => {
                let frame = &buf[*pos - 1..];
                let frame = &frame[..SecAggBatch::validate(frame)?];
                *pos += frame.len() - 1;
                return Ok(Parts::SecAgg(frame));
            }
            TAG_PUBLISH => {
                let round_id = read_varint(buf, pos)?;
                let mut bits = [0u8; 8];
                bits.copy_from_slice(read_bytes(buf, pos, 8)?);
                let estimate = f64::from_bits(u64::from_le_bytes(bits));
                let reports = read_varint(buf, pos)?;
                let count = read_varint(buf, pos)?;
                let count = usize::try_from(count).map_err(|_| WireError::Truncated)?;
                let len = count.checked_mul(8).ok_or(WireError::Truncated)?;
                return Ok(Parts::Publish {
                    round_id,
                    estimate,
                    reports,
                    feedback: read_bytes(buf, pos, len)?,
                });
            }
            TAG_CONFIG_HEADER => {
                let round_id = read_varint(buf, pos)?;
                let secagg = read_flag(buf, pos)?;
                let threshold = read_varint(buf, pos)?;
                let vector_len = read_varint(buf, pos)?;
                Message::ConfigHeader(ConfigHeader {
                    round_id,
                    secagg,
                    threshold,
                    vector_len,
                })
            }
            TAG_ASSIGN_BIT => {
                let assigned_bit = *buf.get(*pos).ok_or(WireError::Truncated)?;
                *pos += 1;
                Message::AssignBit { assigned_bit }
            }
            TAG_SHUFFLE => return Ok(Parts::Shuffle(ShuffleParts::split_from(buf, pos)?)),
            TAG_BATCH_REPORT => {
                let nonce = read_varint(buf, pos)?;
                let body = BatchReportParts::split_from(buf, pos)?;
                return Ok(Parts::BatchReport { nonce, body });
            }
            other => return Err(WireError::UnknownTag(other)),
        };
        Ok(Parts::Inline(inline))
    }

    fn into_message(self) -> Message {
        match self {
            Parts::Inline(msg) => msg,
            Parts::Report { nonce, body } => Message::Report(Report {
                nonce,
                body: body.to_message(),
            }),
            Parts::SecAgg(frame) => Message::SecAgg(SecAggBatch(frame.to_vec())),
            Parts::Publish {
                round_id,
                estimate,
                reports,
                feedback,
            } => Message::Publish(Publish {
                round_id,
                estimate,
                reports,
                feedback: (feedback.chunks_exact(8))
                    .map(|b| f64::from_le_bytes(b.try_into().expect("eight bytes")))
                    .collect(),
            }),
            Parts::Shuffle(parts) => Message::Shuffle(parts.to_message()),
            Parts::BatchReport { nonce, body } => Message::BatchReport(BatchReport {
                nonce,
                body: body.to_message(),
            }),
        }
    }
}

/// Reads the one-byte `secagg` flag, 0 or 1.
fn read_flag(buf: &[u8], pos: &mut usize) -> Result<bool, WireError> {
    let flag = match buf.get(*pos).ok_or(WireError::Truncated)? {
        0 => false,
        1 => true,
        _ => return Err(WireError::InvalidField("secagg flag")),
    };
    *pos += 1;
    Ok(flag)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frame of `entries`: per sender its `(key, first payload word)`
    /// items, the word repeated across the step's item width.
    fn secagg(step: SecAggStep, entries: &[(u64, Vec<(u64, u64)>)]) -> Message {
        fn build<const W: usize>(step: SecAggStep, entries: &[(u64, Vec<(u64, u64)>)]) -> Message {
            let items =
                |items: &Vec<(u64, u64)>| items.clone().into_iter().map(|(k, w)| (k, [w; W]));
            let entries = entries.iter().map(|(sender, its)| (*sender, items(its)));
            Message::SecAgg(SecAggBatch::build(3, step, Vec::new(), entries))
        }
        match step {
            SecAggStep::KeyAdvertise => build::<8>(step, entries),
            SecAggStep::KeyShares => build::<6>(step, entries),
            _ => build::<1>(step, entries),
        }
    }

    fn samples() -> Vec<Message> {
        vec![
            Message::Hello { round_id: 7 },
            Message::RoundConfig(RoundConfig {
                round_id: 0x1234,
                assigned_bit: 5,
                secagg: true,
                threshold: 128,
                vector_len: 16,
            }),
            Message::Report(Report {
                nonce: 99,
                body: ReportMessage {
                    task_id: 0x1234,
                    reports: vec![(5, true)],
                },
            }),
            secagg(SecAggStep::KeyAdvertise, &[(5, vec![(0, 0xAB)])]),
            secagg(
                SecAggStep::KeyShares,
                &[(1, vec![(2, 1), (u64::MAX, 2)]), (2, vec![])],
            ),
            secagg(
                SecAggStep::MaskedInput,
                &[(9, [0, 1, (1 << 61) - 1, 12345].map(|v| (0, v)).to_vec())],
            ),
            secagg(
                SecAggStep::UnmaskShares,
                &[(0, vec![]), (7, vec![(0, 42), (17, (1 << 61) - 3)])],
            ),
            secagg(SecAggStep::UnmaskShares, &[]),
            Message::Publish(Publish {
                round_id: 3,
                estimate: -12.75,
                reports: 100_000,
                feedback: vec![0.0, 0.25, -1.5, f64::MAX],
            }),
            Message::ConfigHeader(ConfigHeader {
                round_id: 0x1234,
                secagg: true,
                threshold: 128,
                vector_len: 16,
            }),
            Message::AssignBit { assigned_bit: 5 },
            Message::Shuffle(ShuffleMessage::Submit {
                round_id: 3,
                bit_index: 7,
                bit: true,
            }),
            Message::Shuffle(ShuffleMessage::Batch {
                round_id: 3,
                entries: vec![(0, false), (7, true), (255, false)],
            }),
            Message::BatchReport(BatchReport {
                nonce: 42,
                body: BatchReportMessage {
                    task_id: 0x1234,
                    planes: {
                        let mut planes = fednum_core::bits::BitPlanes::new(4, 70);
                        for slot in 0..70 {
                            planes.record(slot, (slot % 4) as u32, slot % 3 == 0);
                        }
                        planes
                    },
                },
            }),
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for msg in samples() {
            let bytes = msg.encode();
            assert_eq!(bytes.len(), msg.encoded_len());
            assert_eq!(Message::decode(&bytes).unwrap(), msg, "{msg:?}");
            assert_eq!(Message::from_bytes(bytes).unwrap(), msg);
        }
    }

    #[test]
    fn secagg_items_read_back_what_was_written() {
        let entries = [(1, vec![(2, 1), (u64::MAX, 2)]), (2, vec![])];
        let Message::SecAgg(batch) = secagg(SecAggStep::KeyShares, &entries) else {
            unreachable!();
        };
        assert_eq!(batch.step(), SecAggStep::KeyShares);
        // The second sender states no items: the walk passes over it.
        let share = |word: u8| [[word, 0, 0, 0, 0, 0, 0, 0]; 6].concat();
        let items: Vec<_> = batch.items().collect();
        assert_eq!(items, [(1, 2, &share(1)[..]), (1, u64::MAX, &share(2)[..])]);
        assert_eq!(batch.clone().into_frame(), Message::SecAgg(batch).encode());
    }

    #[test]
    fn every_variant_rejects_truncation_and_trailing() {
        for msg in samples() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                assert!(
                    Message::decode(&bytes[..cut]).is_err(),
                    "{msg:?} cut at {cut}"
                );
            }
            let mut extended = bytes.clone();
            extended.push(0);
            assert_eq!(
                Message::decode(&extended),
                Err(WireError::TrailingBytes),
                "{msg:?}"
            );
        }
    }

    #[test]
    fn unknown_tags_rejected() {
        for tag in (4..=6).chain(12..=255u8) {
            assert_eq!(Message::decode(&[tag]), Err(WireError::UnknownTag(tag)));
        }
        assert_eq!(Message::decode(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn malformed_secagg_flag_rejected() {
        let mut bytes = Message::RoundConfig(RoundConfig {
            round_id: 1,
            assigned_bit: 0,
            secagg: false,
            threshold: 0,
            vector_len: 0,
        })
        .encode();
        // tag, round_id varint, bit, flag...
        bytes[3] = 2;
        assert_eq!(
            Message::decode(&bytes),
            Err(WireError::InvalidField("secagg flag"))
        );
    }

    #[test]
    fn malformed_header_secagg_flag_rejected() {
        let mut bytes = Message::ConfigHeader(ConfigHeader {
            round_id: 1,
            secagg: false,
            threshold: 0,
            vector_len: 0,
        })
        .encode();
        // tag, round_id varint, flag...
        bytes[2] = 7;
        assert_eq!(
            Message::decode(&bytes),
            Err(WireError::InvalidField("secagg flag"))
        );
    }

    #[test]
    fn assign_bit_delta_is_two_bytes_and_beats_full_config() {
        let full = Message::RoundConfig(RoundConfig {
            round_id: 0xF3D5,
            assigned_bit: 5,
            secagg: true,
            threshold: 500,
            vector_len: 20,
        });
        let delta = Message::AssignBit { assigned_bit: 5 };
        assert_eq!(delta.encoded_len(), 2);
        // The savings the compressed codec banks per client: everything in
        // the full config except the tag and the bit itself.
        assert!(full.encoded_len() >= delta.encoded_len() + 5);
    }

    #[test]
    fn oversized_counts_fail_before_allocating() {
        for step in 0..4 {
            // An impossible entry count, then an impossible item count.
            let mut buf = vec![TAG_SECAGG, step, 0]; // round_id = 0
            push_varint(&mut buf, u64::MAX);
            assert_eq!(Message::decode(&buf), Err(WireError::Truncated));
            buf.truncate(3);
            buf.extend_from_slice(&[1, 0]); // one entry, sender 0
            push_varint(&mut buf, u64::MAX);
            assert_eq!(Message::decode(&buf), Err(WireError::Truncated));
        }
        // Publish: round_id, 8-byte estimate, reports, then the feedback
        // count — an impossible count must fail without allocating.
        let mut buf = vec![TAG_PUBLISH, 0];
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.push(0); // reports = 0
        push_varint(&mut buf, u64::MAX);
        assert_eq!(Message::decode(&buf), Err(WireError::Truncated));
    }

    #[test]
    fn phases_and_directions_partition_the_surface() {
        use fednum_fedsim::traffic::Direction::{Downlink, Uplink};
        for msg in samples() {
            let dir = msg.direction();
            match msg {
                Message::RoundConfig(_)
                | Message::Publish(_)
                | Message::ConfigHeader(_)
                | Message::AssignBit { .. } => assert_eq!(dir, Downlink),
                _ => assert_eq!(dir, Uplink),
            }
        }
    }

    #[test]
    fn report_frame_is_single_packet_class() {
        // The paper's point, now at the transport layer: a full framed
        // one-feature report (tag + nonce + header + index + payload bit)
        // stays within a handful of bytes.
        let msg = Message::Report(Report {
            nonce: 1_000_000,
            body: ReportMessage {
                task_id: 0xF3D5,
                reports: vec![(11, true)],
            },
        });
        assert!(
            msg.encoded_len() <= 10,
            "framed report is {} bytes",
            msg.encoded_len()
        );
    }
}
