//! Client-report wire format and communication accounting.
//!
//! The paper's conclusions weigh communication costs: "only a single private
//! bit of data is disclosed. However, there are additional overheads to
//! include header information, and list which bit was sampled, so the
//! distinction between sending a single bit versus a few numeric values is
//! not so meaningful: both can be easily communicated within a single
//! (encrypted) network packet. In settings where each client sends multiple
//! bits, or reveals information about multiple features, the communication
//! benefits become more apparent."
//!
//! This module makes that statement executable: a compact binary encoding
//! for bit-pushing reports (varint-coded header + packed payload bits) and
//! size accounting comparing it to full-value uploads across feature counts.

use crate::bits::BitPlanes;
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};

/// One client's report message: which task, and one (bit index, bit) pair
/// per reported feature.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReportMessage {
    /// Task/round identifier (header information).
    pub task_id: u64,
    /// `(bit index, bit value)` per feature reported on.
    pub reports: Vec<(u8, bool)>,
}

/// Encoding/decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the message was complete.
    Truncated,
    /// A varint ran past 10 bytes.
    VarintOverflow,
    /// Trailing bytes after a complete message.
    TrailingBytes,
    /// A framed message carried a type tag this codec does not know.
    UnknownTag(u8),
    /// A field's value violated a protocol bound (e.g. an oversized count).
    InvalidField(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            WireError::TrailingBytes => write!(f, "trailing bytes after message"),
            WireError::UnknownTag(tag) => write!(f, "unknown message tag {tag:#04x}"),
            WireError::InvalidField(field) => write!(f, "invalid field: {field}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Appends `v` as a 7-bit-per-byte varint (LEB128, as protobuf uses).
///
/// Exposed so higher protocol layers (the `fednum-transport` message codec)
/// can frame their headers through the same primitive this module uses for
/// report messages.
pub fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one varint starting at `*pos`, advancing `*pos` past it.
///
/// # Errors
/// [`WireError::Truncated`] if the buffer ends mid-varint;
/// [`WireError::VarintOverflow`] past 10 bytes.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, WireError> {
    let mut v = 0u64;
    for i in 0..10 {
        let &byte = buf.get(*pos).ok_or(WireError::Truncated)?;
        *pos += 1;
        v |= u64::from(byte & 0x7F) << (7 * i);
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(WireError::VarintOverflow)
}

/// Encoded size of `v` as a varint, in bytes.
#[must_use]
pub fn varint_len(v: u64) -> usize {
    (1 + (63_u32.saturating_sub(v.leading_zeros())) / 7) as usize
}

/// Reads exactly `n` bytes starting at `*pos`, advancing `*pos` past them.
///
/// # Errors
/// [`WireError::Truncated`] if fewer than `n` bytes remain.
pub fn read_bytes<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], WireError> {
    let end = pos.checked_add(n).ok_or(WireError::Truncated)?;
    let bytes = buf.get(*pos..end).ok_or(WireError::Truncated)?;
    *pos = end;
    Ok(bytes)
}

/// Appends an `f64` as its exact IEEE-754 bit pattern (8 bytes, little
/// endian). Values round-trip bit-for-bit — including NaN payloads and
/// signed zeros — which the transport parity contract and the durable
/// privacy ledger both depend on.
pub fn push_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Reads one [`push_f64`]-encoded `f64` starting at `*pos`.
///
/// # Errors
/// [`WireError::Truncated`] if fewer than 8 bytes remain.
pub fn read_f64(buf: &[u8], pos: &mut usize) -> Result<f64, WireError> {
    let bytes = read_bytes(buf, pos, 8)?;
    let mut raw = [0u8; 8];
    raw.copy_from_slice(bytes);
    Ok(f64::from_bits(u64::from_le_bytes(raw)))
}

/// Largest frame payload the streaming codec will accept: a fail-closed
/// bound applied *before* allocating, so a hostile or corrupted length
/// prefix cannot drive the reader out of memory. Generously above any
/// legitimate protocol frame (the biggest are full-mesh key-share frames).
pub const MAX_FRAME_LEN: usize = 1 << 24;

/// Total wire size of a length-delimited frame around `payload_len` bytes.
#[must_use]
pub fn frame_len(payload_len: usize) -> usize {
    varint_len(payload_len as u64) + payload_len
}

/// Writes one length-delimited frame — `varint(len) · len bytes` — to a
/// byte sink. The inverse of [`read_frame`] / [`FrameDecoder`].
///
/// # Errors
/// Propagates the sink's I/O error; `InvalidInput` when `payload` exceeds
/// [`MAX_FRAME_LEN`] (such a frame could never be read back).
pub fn write_frame<W: Write + ?Sized>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(frame_too_long());
    }
    let (header, n) = varint_array(payload.len() as u64);
    w.write_all(&header[..n])?;
    w.write_all(payload)
}

/// Appends one length-delimited frame to `out` — the bytes [`write_frame`]
/// writes for the same payload — with the payload encoded in place by
/// `body`, so no payload buffer is built and copied. Returns the frame's
/// wire length.
///
/// # Errors
/// `InvalidInput` when the payload exceeds [`MAX_FRAME_LEN`]; `out` is
/// then left as it was.
pub fn push_frame_with(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) -> io::Result<usize> {
    let start = out.len();
    // One header byte covers every payload under 128 bytes, the common
    // case; a longer payload is shifted right to make room for its header.
    out.push(0);
    body(out);
    let len = out.len() - start - 1;
    if len > MAX_FRAME_LEN {
        out.truncate(start);
        return Err(frame_too_long());
    }
    let (header, n) = varint_array(len as u64);
    if n > 1 {
        out.resize(out.len() + n - 1, 0);
        out.copy_within(start + 1..start + 1 + len, start + n);
    }
    out[start..start + n].copy_from_slice(&header[..n]);
    Ok(n + len)
}

fn frame_too_long() -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        WireError::InvalidField("frame length"),
    )
}

/// `v` as a varint on the stack: the encoding is `bytes[..len]`.
fn varint_array(mut v: u64) -> ([u8; 10], usize) {
    let mut bytes = [0u8; 10];
    let mut len = 0;
    while v >= 0x80 {
        bytes[len] = (v & 0x7F) as u8 | 0x80;
        v >>= 7;
        len += 1;
    }
    bytes[len] = v as u8;
    (bytes, len + 1)
}

/// Reads one length-delimited frame from a blocking byte source, returning
/// `Ok(None)` on a clean end-of-stream (EOF before the first header byte).
///
/// # Errors
/// `UnexpectedEof` when the stream ends mid-frame; `InvalidData` (wrapping
/// the [`WireError`]) for a malformed or oversized length prefix; any other
/// I/O error from the source (including timeouts) verbatim.
pub fn read_frame<R: Read + ?Sized>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    // Varint header, one byte at a time: the header is 1-5 bytes in
    // practice and the source is expected to be buffered.
    let mut len: u64 = 0;
    let mut byte = [0u8; 1];
    for i in 0..10 {
        match r.read(&mut byte) {
            Ok(0) if i == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    WireError::Truncated,
                ))
            }
            Ok(_) => {}
            Err(e) => return Err(e),
        }
        len |= u64::from(byte[0] & 0x7F) << (7 * i);
        if byte[0] & 0x80 == 0 {
            let len = usize::try_from(len).unwrap_or(usize::MAX);
            if len > MAX_FRAME_LEN {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    WireError::InvalidField("frame length"),
                ));
            }
            let mut payload = vec![0u8; len];
            r.read_exact(&mut payload)?;
            return Ok(Some(payload));
        }
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        WireError::VarintOverflow,
    ))
}

/// Incremental frame decoder for non-blocking or chunked reads: feed it
/// arbitrary byte slices as they arrive off a socket — frame headers and
/// payloads may straddle any chunk boundary — and drain complete frames.
///
/// Yields exactly the frames that [`read_frame`] would yield from the
/// concatenation of every chunk (the `proptest_wire_stream` suite pins
/// this equivalence under random split/coalesce patterns).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends bytes read off the stream.
    pub fn feed(&mut self, chunk: &[u8]) {
        if self.pos == self.buf.len() {
            // Everything consumed: resetting is free and keeps the steady
            // state (one frame per read) allocation-stable.
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            // Compact lazily: drop consumed bytes once they dominate the
            // buffer so a long-lived connection doesn't grow without bound.
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Pops the next complete frame, `Ok(None)` if more bytes are needed.
    ///
    /// # Errors
    /// [`WireError::VarintOverflow`] for a malformed length prefix,
    /// [`WireError::InvalidField`] for a length beyond [`MAX_FRAME_LEN`].
    /// After an error the stream is unrecoverable (framing is lost);
    /// callers should drop the connection.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        Ok(self.next_frame_ref()?.map(<[u8]>::to_vec))
    }

    /// [`next_frame`](Self::next_frame) without the copy: the frame is
    /// borrowed from the decoder's buffer until the next call.
    ///
    /// # Errors
    /// See [`next_frame`](Self::next_frame).
    pub fn next_frame_ref(&mut self) -> Result<Option<&[u8]>, WireError> {
        let mut pos = self.pos;
        let len = match read_varint(&self.buf, &mut pos) {
            Ok(len) => len,
            // An incomplete header is just "not enough bytes yet" — unless
            // it is already overlong, which no further bytes can fix.
            Err(WireError::Truncated) => return Ok(None),
            Err(e) => return Err(e),
        };
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        if len > MAX_FRAME_LEN {
            return Err(WireError::InvalidField("frame length"));
        }
        if self.buf.len() - pos < len {
            return Ok(None);
        }
        self.pos = pos + len;
        Ok(Some(&self.buf[pos..pos + len]))
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }
}

impl ReportMessage {
    /// Encodes: `varint(task_id) · varint(count) · count × u8 bit-index ·
    /// ceil(count/8) packed payload bits`.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.reports.len() * 2);
        self.encode_into(&mut out);
        out
    }

    /// Encodes into an existing buffer (for embedding inside a framed
    /// transport message).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        push_varint(out, self.task_id);
        push_varint(out, self.reports.len() as u64);
        out.extend(self.reports.iter().map(|&(idx, _)| idx));
        out.extend(self.reports.chunks(8).map(|chunk| {
            (chunk.iter().enumerate()).fold(0u8, |byte, (i, &(_, bit))| byte | u8::from(bit) << i)
        }));
    }

    /// Decodes a message, requiring the buffer to be fully consumed.
    ///
    /// # Errors
    /// See [`WireError`].
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut pos = 0;
        let msg = Self::decode_from(buf, &mut pos)?;
        if pos != buf.len() {
            return Err(WireError::TrailingBytes);
        }
        Ok(msg)
    }

    /// Decodes a message starting at `*pos`, advancing `*pos` past it and
    /// leaving any trailing bytes for the caller (the embedding codec).
    ///
    /// # Errors
    /// See [`WireError`].
    pub fn decode_from(buf: &[u8], pos: &mut usize) -> Result<Self, WireError> {
        ReportParts::split_from(buf, pos).map(|parts| parts.to_message())
    }

    /// Encoded size in bytes.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        let count = self.reports.len();
        varint_len(self.task_id) + varint_len(count as u64) + count + count.div_ceil(8)
    }
}

/// A [`ReportMessage`] frame split in place: its header read, its bit
/// indices and packed bits still borrowed from the buffer. Splitting is the
/// whole of decoding but the one allocation, so a codec that only checks a
/// frame stops here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportParts<'a> {
    /// Task/round identifier.
    pub task_id: u64,
    /// One bit index per report.
    pub indices: &'a [u8],
    /// The report bits, eight to a byte, lowest bit first.
    pub packed: &'a [u8],
}

impl<'a> ReportParts<'a> {
    /// Splits the message starting at `*pos`, advancing `*pos` past it;
    /// fails exactly where [`ReportMessage::decode_from`] does.
    ///
    /// # Errors
    /// See [`WireError`].
    pub fn split_from(buf: &'a [u8], pos: &mut usize) -> Result<Self, WireError> {
        let task_id = read_varint(buf, pos)?;
        let count = usize::try_from(read_varint(buf, pos)?).map_err(|_| WireError::Truncated)?;
        let indices = read_bytes(buf, pos, count)?;
        let packed = read_bytes(buf, pos, count.div_ceil(8))?;
        Ok(Self {
            task_id,
            indices,
            packed,
        })
    }

    /// The owned message.
    #[must_use]
    pub fn to_message(&self) -> ReportMessage {
        let reports = (self.indices.iter().enumerate())
            .map(|(i, &idx)| (idx, self.packed[i / 8] >> (i % 8) & 1 == 1))
            .collect();
        ReportMessage {
            task_id: self.task_id,
            reports,
        }
    }
}

/// A batched multi-client report frame: one wave chunk of one-bit reports
/// packed as [`BitPlanes`] bitmap words instead of per-client frames.
///
/// Where [`ReportMessage`] carries one client's `(bit index, bit)` pair —
/// ~8 bytes of frame per client — a batch frame carries a whole chunk as
/// its plane bitmaps: `2 × bits × ceil(slots/64)` little-endian `u64`
/// words after a 3-varint header, i.e. `~bits/4` bytes per client
/// regardless of chunk alignment. The wire layout *is* the in-memory
/// plane layout, so decoding is a bounds-checked copy straight into a
/// [`BitPlanes`] — no per-client parsing on the hot path.
///
/// Decoding fails closed: slot/width counts are validated against the
/// remaining buffer before any allocation, and the rebuilt planes must be
/// canonical (no padding bits past the slot count, every value bit backed
/// by an occupancy bit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReportMessage {
    /// Task/round identifier (header information), as in [`ReportMessage`].
    pub task_id: u64,
    /// The chunk's packed planes.
    pub planes: BitPlanes,
}

/// Widest bit plane a batch frame may carry: encoded values are `u64`s.
pub const MAX_BATCH_BITS: u64 = 64;

impl BatchReportMessage {
    /// Encodes: `varint(task_id) · varint(slots) · varint(bits) ·` per
    /// plane `j`: `ceil(slots/64)` occupancy words `· ceil(slots/64)`
    /// value words, each a little-endian `u64`.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Encodes into an existing buffer (for embedding inside a framed
    /// transport message).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        push_varint(out, self.task_id);
        push_varint(out, self.planes.slots() as u64);
        push_varint(out, u64::from(self.planes.bits()));
        for j in 0..self.planes.bits() as usize {
            for &w in self.planes.plane_occupancy(j) {
                out.extend_from_slice(&w.to_le_bytes());
            }
            for &w in self.planes.plane_value(j) {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
    }

    /// Decodes a message, requiring the buffer to be fully consumed.
    ///
    /// # Errors
    /// See [`WireError`].
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut pos = 0;
        let msg = Self::decode_from(buf, &mut pos)?;
        if pos != buf.len() {
            return Err(WireError::TrailingBytes);
        }
        Ok(msg)
    }

    /// Decodes a message starting at `*pos`, advancing `*pos` past it and
    /// leaving any trailing bytes for the caller (the embedding codec).
    ///
    /// # Errors
    /// See [`WireError`].
    pub fn decode_from(buf: &[u8], pos: &mut usize) -> Result<Self, WireError> {
        BatchReportParts::split_from(buf, pos).map(|parts| parts.to_message())
    }

    /// Encoded size in bytes.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        varint_len(self.task_id)
            + varint_len(self.planes.slots() as u64)
            + varint_len(u64::from(self.planes.bits()))
            + self.planes.bits() as usize * self.planes.words_per_plane() * 16
    }
}

/// A [`BatchReportMessage`] frame split in place and checked: its header
/// read, its plane words — canonical, as [`BitPlanes::from_words`]
/// demands — still borrowed from the buffer as little-endian bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchReportParts<'a> {
    /// Task/round identifier.
    pub task_id: u64,
    /// Bit planes.
    pub bits: u32,
    /// Cohort slots.
    pub slots: usize,
    /// Per plane its occupancy words, then its value words.
    pub words: &'a [u8],
}

impl<'a> BatchReportParts<'a> {
    /// Splits and checks the message starting at `*pos`, advancing `*pos`
    /// past it; fails exactly where [`BatchReportMessage::decode_from`]
    /// does, having allocated nothing.
    ///
    /// # Errors
    /// See [`WireError`].
    pub fn split_from(buf: &'a [u8], pos: &mut usize) -> Result<Self, WireError> {
        let task_id = read_varint(buf, pos)?;
        let slots_raw = read_varint(buf, pos)?;
        let bits_raw = read_varint(buf, pos)?;
        if bits_raw == 0 || bits_raw > MAX_BATCH_BITS {
            return Err(WireError::InvalidField("batch bit width"));
        }
        let bits = bits_raw as u32;
        let slots =
            usize::try_from(slots_raw).map_err(|_| WireError::InvalidField("batch slot count"))?;
        // A plane payload larger than the remaining bytes is impossible for
        // a valid message; reject it before it sizes anything.
        let len = (bits as usize)
            .checked_mul(slots.div_ceil(64))
            .and_then(|w| w.checked_mul(16))
            .ok_or(WireError::InvalidField("batch slot count"))?;
        let parts = Self {
            task_id,
            bits,
            slots,
            words: read_bytes(buf, pos, len)?,
        };
        BitPlanes::check_words(
            bits,
            slots,
            |j, w| parts.word(2 * j, w),
            |j, w| parts.word(2 * j + 1, w),
        )
        .map_err(WireError::InvalidField)?;
        Ok(parts)
    }

    /// Word `w` of row `row`: plane `j`'s occupancy is row `2j`, its value
    /// row `2j + 1`, each `ceil(slots/64)` little-endian words.
    fn word(&self, row: usize, w: usize) -> u64 {
        let at = 8 * (row * self.slots.div_ceil(64) + w);
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.words[at..at + 8]);
        u64::from_le_bytes(raw)
    }

    /// The owned message.
    #[must_use]
    pub fn to_message(&self) -> BatchReportMessage {
        let words = self.slots.div_ceil(64);
        let total = self.bits as usize * words;
        let (mut occupancy, mut value) = (Vec::with_capacity(total), Vec::with_capacity(total));
        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("eight bytes"));
        // Rows alternate occupancy and value; with no words there are none.
        for (k, row) in self.words.chunks_exact((8 * words).max(1)).enumerate() {
            let dst = if k % 2 == 0 {
                &mut occupancy
            } else {
                &mut value
            };
            dst.extend(row.chunks_exact(8).map(word));
        }
        BatchReportMessage {
            task_id: self.task_id,
            planes: BitPlanes::from_checked_words(self.bits, self.slots, occupancy, value),
        }
    }
}

/// The `Campaign` control record: everything a longitudinal coordinator
/// needs to identify a multi-round campaign and enforce its budget policy.
///
/// One record opens (or resumes) a campaign on the daemon; the same record
/// — with `round_index` advanced — heads every durable-ledger snapshot, so
/// a restarted coordinator recovers the policy together with the balances.
/// Optional limits use a presence byte; `f64` fields are carried as exact
/// bit patterns (see [`push_f64`]), because two coordinators that disagree
/// on the last ulp of an ε budget would admit different cohorts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignMessage {
    /// Stable campaign identifier (names the on-disk state files).
    pub campaign_id: u64,
    /// Next round to be admitted. A driver opening a campaign sends its
    /// belief; the authoritative value always comes back from the ledger.
    pub round_index: u64,
    /// Budget policy: maximum private bits per client over the whole
    /// campaign (`None` = unlimited).
    pub max_bits: Option<u64>,
    /// Budget policy: maximum total ε per client (`None` = unlimited).
    pub max_epsilon: Option<f64>,
    /// Eligibility cooldown: a client that participated in round `r` is
    /// next admissible in round `r + cooldown_rounds` (values `0` and `1`
    /// both mean "every round").
    pub cooldown_rounds: u64,
    /// Private bits one round of participation charges.
    pub bits_per_round: u64,
    /// ε one round of participation charges.
    pub epsilon_per_round: f64,
}

impl CampaignMessage {
    /// Encodes into an existing buffer (for embedding in transport control
    /// frames and durable-ledger records).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        push_varint(out, self.campaign_id);
        push_varint(out, self.round_index);
        match self.max_bits {
            Some(v) => {
                out.push(1);
                push_varint(out, v);
            }
            None => out.push(0),
        }
        match self.max_epsilon {
            Some(v) => {
                out.push(1);
                push_f64(out, v);
            }
            None => out.push(0),
        }
        push_varint(out, self.cooldown_rounds);
        push_varint(out, self.bits_per_round);
        push_f64(out, self.epsilon_per_round);
    }

    /// Encodes to a fresh buffer.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_into(&mut out);
        out
    }

    /// Decodes a record starting at `*pos`, advancing `*pos` past it.
    ///
    /// # Errors
    /// See [`WireError`].
    pub fn decode_from(buf: &[u8], pos: &mut usize) -> Result<Self, WireError> {
        let campaign_id = read_varint(buf, pos)?;
        let round_index = read_varint(buf, pos)?;
        let max_bits = match read_bytes(buf, pos, 1)?[0] {
            0 => None,
            1 => Some(read_varint(buf, pos)?),
            _ => return Err(WireError::InvalidField("max_bits flag")),
        };
        let max_epsilon = match read_bytes(buf, pos, 1)?[0] {
            0 => None,
            1 => Some(read_f64(buf, pos)?),
            _ => return Err(WireError::InvalidField("max_epsilon flag")),
        };
        Ok(Self {
            campaign_id,
            round_index,
            max_bits,
            max_epsilon,
            cooldown_rounds: read_varint(buf, pos)?,
            bits_per_round: read_varint(buf, pos)?,
            epsilon_per_round: read_f64(buf, pos)?,
        })
    }

    /// Decodes a record, requiring the buffer to be fully consumed.
    ///
    /// # Errors
    /// See [`WireError`].
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut pos = 0;
        let msg = Self::decode_from(buf, &mut pos)?;
        if pos != buf.len() {
            return Err(WireError::TrailingBytes);
        }
        Ok(msg)
    }

    /// Whether two records describe the same campaign policy — everything
    /// except the advisory `round_index`, with ε compared by exact bit
    /// pattern. A resume request whose policy does not match the durable
    /// state is rejected rather than silently re-budgeted.
    #[must_use]
    pub fn policy_matches(&self, other: &Self) -> bool {
        self.campaign_id == other.campaign_id
            && self.max_bits == other.max_bits
            && self.max_epsilon.map(f64::to_bits) == other.max_epsilon.map(f64::to_bits)
            && self.cooldown_rounds == other.cooldown_rounds
            && self.bits_per_round == other.bits_per_round
            && self.epsilon_per_round.to_bits() == other.epsilon_per_round.to_bits()
    }
}

/// Fleet control frames: the rendezvous / heartbeat / cohort protocol a
/// standalone `fednumc` participant speaks to the daemon.
///
/// A participant opens a connection, sends [`FleetMessage::Rendezvous`],
/// and receives a session token plus the heartbeat cadence in the ack.
/// From then on it answers with [`FleetMessage::Heartbeat`] on schedule and
/// waits for the coordinator to draft it into a round
/// ([`FleetMessage::CohortAssign`]: which bit to sample, at what width,
/// under what deadline). Only a client that registers or resumes while a
/// round is running, holding no slot in it, is told to stand by
/// ([`FleetMessage::CohortWait`]); a round's start sends standbys nothing.
/// Drafted clients answer with one [`FleetMessage::Report`] — the paper's
/// single private bit. [`FleetMessage::Done`] ends the engagement.
///
/// Like [`CampaignMessage`], every frame has one canonical encoding
/// (varint fields, no padding, booleans as a validated 0/1 byte) so the
/// traffic ledger can account for fleet bytes exactly and the proptests can
/// pin decode→re-encode identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetMessage {
    /// Client → daemon: first frame on a fleet connection. Registers
    /// `client_id` with a capability bitmask (reserved; `0` today).
    Rendezvous { client_id: u64, capabilities: u64 },
    /// Daemon → client: registration accepted. `session_token`
    /// authenticates every later frame; the client must beat every
    /// `heartbeat_ms` and is presumed dead after `liveness_ms` of silence.
    RendezvousAck {
        session_token: u64,
        heartbeat_ms: u64,
        liveness_ms: u64,
    },
    /// Client → daemon: liveness beat `seq` (monotonically increasing).
    Heartbeat { session_token: u64, seq: u64 },
    /// Daemon → client: echo of the beat's `seq`.
    HeartbeatAck { seq: u64 },
    /// Daemon → client: you are drafted into `round`. Sample bit
    /// `bit_index` of your `bits`-bit encoded value (value derived from
    /// `value_seed`; see `transport::fleet::client_value`) and report
    /// within `deadline_ms`.
    CohortAssign {
        round: u64,
        bit_index: u32,
        bits: u32,
        value_seed: u64,
        deadline_ms: u64,
    },
    /// Daemon → client: the answer to a `Rendezvous` or `Resume` that
    /// lands while `round` is running and holds no slot in it; stand by
    /// and expect the next assignment in roughly `retry_ms`.
    CohortWait { round: u64, retry_ms: u64 },
    /// Client → daemon: the one-bit response for `round`.
    Report {
        session_token: u64,
        round: u64,
        bit_index: u32,
        bit: bool,
    },
    /// Daemon → client: report for `round` recorded.
    ReportAck { round: u64 },
    /// Daemon → client: the engagement is over after `rounds` rounds;
    /// the client may disconnect.
    Done { rounds: u64 },
    /// Client → daemon: re-rendezvous after a connection fault. Carries
    /// the `session_token` from the original [`FleetMessage::RendezvousAck`]
    /// as proof of identity and `report_nonce`, the count of reports the
    /// client believes it has had acknowledged — the daemon uses both to
    /// re-bind the session to the new connection and to deduplicate any
    /// retransmitted [`FleetMessage::Report`] so a report is never counted
    /// (or privacy-billed) twice.
    Resume {
        client_id: u64,
        session_token: u64,
        report_nonce: u64,
    },
    /// Daemon → client: the daemon is shedding load (accept storm or
    /// backlog overflow); back off and retry in roughly `retry_after_ms`.
    Busy { retry_after_ms: u64 },
    /// Client → daemon: dismissal received. The daemon holds a dismissed
    /// client's registration until this acknowledgement arrives (or the
    /// resume grace lapses), so a [`FleetMessage::Done`] lost to a
    /// connection fault is re-collected via [`FleetMessage::Resume`]
    /// instead of stranding the client undismissed.
    DoneAck { session_token: u64 },
}

const FLEET_TAG_RENDEZVOUS: u8 = 0x01;
const FLEET_TAG_RENDEZVOUS_ACK: u8 = 0x02;
const FLEET_TAG_HEARTBEAT: u8 = 0x03;
const FLEET_TAG_HEARTBEAT_ACK: u8 = 0x04;
const FLEET_TAG_COHORT_ASSIGN: u8 = 0x05;
const FLEET_TAG_COHORT_WAIT: u8 = 0x06;
const FLEET_TAG_REPORT: u8 = 0x07;
const FLEET_TAG_REPORT_ACK: u8 = 0x08;
const FLEET_TAG_DONE: u8 = 0x09;
const FLEET_TAG_RESUME: u8 = 0x0A;
const FLEET_TAG_BUSY: u8 = 0x0B;
const FLEET_TAG_DONE_ACK: u8 = 0x0C;

impl FleetMessage {
    /// Encodes into an existing buffer (for embedding inside a framed
    /// transport control message).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            FleetMessage::Rendezvous {
                client_id,
                capabilities,
            } => {
                out.push(FLEET_TAG_RENDEZVOUS);
                push_varint(out, client_id);
                push_varint(out, capabilities);
            }
            FleetMessage::RendezvousAck {
                session_token,
                heartbeat_ms,
                liveness_ms,
            } => {
                out.push(FLEET_TAG_RENDEZVOUS_ACK);
                push_varint(out, session_token);
                push_varint(out, heartbeat_ms);
                push_varint(out, liveness_ms);
            }
            FleetMessage::Heartbeat { session_token, seq } => {
                out.push(FLEET_TAG_HEARTBEAT);
                push_varint(out, session_token);
                push_varint(out, seq);
            }
            FleetMessage::HeartbeatAck { seq } => {
                out.push(FLEET_TAG_HEARTBEAT_ACK);
                push_varint(out, seq);
            }
            FleetMessage::CohortAssign {
                round,
                bit_index,
                bits,
                value_seed,
                deadline_ms,
            } => {
                out.push(FLEET_TAG_COHORT_ASSIGN);
                push_varint(out, round);
                push_varint(out, u64::from(bit_index));
                push_varint(out, u64::from(bits));
                push_varint(out, value_seed);
                push_varint(out, deadline_ms);
            }
            FleetMessage::CohortWait { round, retry_ms } => {
                out.push(FLEET_TAG_COHORT_WAIT);
                push_varint(out, round);
                push_varint(out, retry_ms);
            }
            FleetMessage::Report {
                session_token,
                round,
                bit_index,
                bit,
            } => {
                out.push(FLEET_TAG_REPORT);
                push_varint(out, session_token);
                push_varint(out, round);
                push_varint(out, u64::from(bit_index));
                out.push(u8::from(bit));
            }
            FleetMessage::ReportAck { round } => {
                out.push(FLEET_TAG_REPORT_ACK);
                push_varint(out, round);
            }
            FleetMessage::Done { rounds } => {
                out.push(FLEET_TAG_DONE);
                push_varint(out, rounds);
            }
            FleetMessage::Resume {
                client_id,
                session_token,
                report_nonce,
            } => {
                out.push(FLEET_TAG_RESUME);
                push_varint(out, client_id);
                push_varint(out, session_token);
                push_varint(out, report_nonce);
            }
            FleetMessage::Busy { retry_after_ms } => {
                out.push(FLEET_TAG_BUSY);
                push_varint(out, retry_after_ms);
            }
            FleetMessage::DoneAck { session_token } => {
                out.push(FLEET_TAG_DONE_ACK);
                push_varint(out, session_token);
            }
        }
    }

    /// Encodes to a fresh buffer.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        self.encode_into(&mut out);
        out
    }

    /// Decodes a frame starting at `*pos`, advancing `*pos` past it.
    ///
    /// # Errors
    /// See [`WireError`].
    pub fn decode_from(buf: &[u8], pos: &mut usize) -> Result<Self, WireError> {
        fn read_u32(buf: &[u8], pos: &mut usize, field: &'static str) -> Result<u32, WireError> {
            u32::try_from(read_varint(buf, pos)?).map_err(|_| WireError::InvalidField(field))
        }
        let tag = read_bytes(buf, pos, 1)?[0];
        match tag {
            FLEET_TAG_RENDEZVOUS => Ok(FleetMessage::Rendezvous {
                client_id: read_varint(buf, pos)?,
                capabilities: read_varint(buf, pos)?,
            }),
            FLEET_TAG_RENDEZVOUS_ACK => Ok(FleetMessage::RendezvousAck {
                session_token: read_varint(buf, pos)?,
                heartbeat_ms: read_varint(buf, pos)?,
                liveness_ms: read_varint(buf, pos)?,
            }),
            FLEET_TAG_HEARTBEAT => Ok(FleetMessage::Heartbeat {
                session_token: read_varint(buf, pos)?,
                seq: read_varint(buf, pos)?,
            }),
            FLEET_TAG_HEARTBEAT_ACK => Ok(FleetMessage::HeartbeatAck {
                seq: read_varint(buf, pos)?,
            }),
            FLEET_TAG_COHORT_ASSIGN => Ok(FleetMessage::CohortAssign {
                round: read_varint(buf, pos)?,
                bit_index: read_u32(buf, pos, "bit index")?,
                bits: read_u32(buf, pos, "bit width")?,
                value_seed: read_varint(buf, pos)?,
                deadline_ms: read_varint(buf, pos)?,
            }),
            FLEET_TAG_COHORT_WAIT => Ok(FleetMessage::CohortWait {
                round: read_varint(buf, pos)?,
                retry_ms: read_varint(buf, pos)?,
            }),
            FLEET_TAG_REPORT => Ok(FleetMessage::Report {
                session_token: read_varint(buf, pos)?,
                round: read_varint(buf, pos)?,
                bit_index: read_u32(buf, pos, "bit index")?,
                bit: match read_bytes(buf, pos, 1)?[0] {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::InvalidField("report bit")),
                },
            }),
            FLEET_TAG_REPORT_ACK => Ok(FleetMessage::ReportAck {
                round: read_varint(buf, pos)?,
            }),
            FLEET_TAG_DONE => Ok(FleetMessage::Done {
                rounds: read_varint(buf, pos)?,
            }),
            FLEET_TAG_RESUME => Ok(FleetMessage::Resume {
                client_id: read_varint(buf, pos)?,
                session_token: read_varint(buf, pos)?,
                report_nonce: read_varint(buf, pos)?,
            }),
            FLEET_TAG_BUSY => Ok(FleetMessage::Busy {
                retry_after_ms: read_varint(buf, pos)?,
            }),
            FLEET_TAG_DONE_ACK => Ok(FleetMessage::DoneAck {
                session_token: read_varint(buf, pos)?,
            }),
            other => Err(WireError::UnknownTag(other)),
        }
    }

    /// Decodes a frame, requiring the buffer to be fully consumed.
    ///
    /// # Errors
    /// See [`WireError`].
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut pos = 0;
        let msg = Self::decode_from(buf, &mut pos)?;
        if pos != buf.len() {
            return Err(WireError::TrailingBytes);
        }
        Ok(msg)
    }

    /// Encoded size in bytes — the unit the fleet traffic ledger counts.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        let mut out = Vec::with_capacity(16);
        self.encode_into(&mut out);
        out.len()
    }

    /// Whether this variant travels client → daemon (`true`) or
    /// daemon → client (`false`). The daemon rejects downlink variants
    /// arriving on the uplink as protocol errors, and vice versa.
    #[must_use]
    pub fn is_uplink(&self) -> bool {
        matches!(
            self,
            FleetMessage::Rendezvous { .. }
                | FleetMessage::Heartbeat { .. }
                | FleetMessage::Report { .. }
                | FleetMessage::Resume { .. }
                | FleetMessage::DoneAck { .. }
        )
    }
}

/// Shuffle-tier control frames: the protocol between clients, the
/// shuffler session, and the coordinator session.
///
/// A client in a shuffled round sends one [`ShuffleMessage::Submit`] to the
/// shuffler: the round it belongs to, which bit of its encoded value it was
/// drafted for, and the randomized-response output for that bit. The
/// shuffler buffers the wave, strips every envelope's sender identity,
/// applies a seeded permutation, and forwards a single
/// [`ShuffleMessage::Batch`] to the coordinator — an anonymized multiset of
/// `(bit index, bit)` entries with no per-client framing left to correlate.
///
/// Every batch entry encodes to exactly two bytes (a raw `u8` bit index and
/// a validated 0/1 bit byte), so a batch's encoded *length* is invariant
/// under the permutation — the traffic ledger charges the same bytes no
/// matter which seed shuffled the wave, which the permutation-invariance
/// contract depends on. Like [`FleetMessage`], each frame has one canonical
/// encoding and decoding fails closed on truncated or hostile input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShuffleMessage {
    /// Client → shuffler: one randomized one-bit report for `round_id`.
    /// `bit_index` is the drafted bit position (a codec is at most 52
    /// bits deep, so the index rides in one byte).
    Submit {
        round_id: u64,
        bit_index: u8,
        bit: bool,
    },
    /// Shuffler → coordinator: the anonymized, permuted wave. Entry order
    /// is the permutation's output order; nothing else about the wave
    /// survives the shuffle.
    Batch {
        round_id: u64,
        entries: Vec<(u8, bool)>,
    },
}

const SHUFFLE_TAG_SUBMIT: u8 = 0x01;
const SHUFFLE_TAG_BATCH: u8 = 0x02;

impl ShuffleMessage {
    /// Encodes into an existing buffer (for embedding inside a framed
    /// transport control message).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            ShuffleMessage::Submit {
                round_id,
                bit_index,
                bit,
            } => {
                out.push(SHUFFLE_TAG_SUBMIT);
                push_varint(out, *round_id);
                out.push(*bit_index);
                out.push(u8::from(*bit));
            }
            ShuffleMessage::Batch { round_id, entries } => {
                out.push(SHUFFLE_TAG_BATCH);
                push_varint(out, *round_id);
                push_varint(out, entries.len() as u64);
                for (bit_index, bit) in entries {
                    out.push(*bit_index);
                    out.push(u8::from(*bit));
                }
            }
        }
    }

    /// Encodes to a fresh buffer.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        self.encode_into(&mut out);
        out
    }

    /// Decodes a frame starting at `*pos`, advancing `*pos` past it.
    ///
    /// # Errors
    /// See [`WireError`].
    pub fn decode_from(buf: &[u8], pos: &mut usize) -> Result<Self, WireError> {
        ShuffleParts::split_from(buf, pos).map(|parts| parts.to_message())
    }

    /// Decodes a frame, requiring the buffer to be fully consumed.
    ///
    /// # Errors
    /// See [`WireError`].
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut pos = 0;
        let msg = Self::decode_from(buf, &mut pos)?;
        if pos != buf.len() {
            return Err(WireError::TrailingBytes);
        }
        Ok(msg)
    }

    /// Encoded size in bytes — the unit the shuffle traffic ledger counts.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        let mut out = Vec::with_capacity(16);
        self.encode_into(&mut out);
        out.len()
    }
}

/// A [`ShuffleMessage`] frame split in place and checked: a `Batch`'s
/// entries stay borrowed as their `bit index · bit` byte pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShuffleParts<'a> {
    /// As [`ShuffleMessage::Submit`].
    Submit {
        round_id: u64,
        bit_index: u8,
        bit: bool,
    },
    /// As [`ShuffleMessage::Batch`], two bytes per entry.
    Batch { round_id: u64, entries: &'a [u8] },
}

impl<'a> ShuffleParts<'a> {
    /// Splits and checks the frame starting at `*pos`, advancing `*pos`
    /// past it; fails exactly where [`ShuffleMessage::decode_from`] does.
    ///
    /// # Errors
    /// See [`WireError`].
    pub fn split_from(buf: &'a [u8], pos: &mut usize) -> Result<Self, WireError> {
        let bad_bit = WireError::InvalidField("shuffle bit");
        let tag = read_bytes(buf, pos, 1)?[0];
        match tag {
            SHUFFLE_TAG_SUBMIT => Ok(ShuffleParts::Submit {
                round_id: read_varint(buf, pos)?,
                bit_index: read_bytes(buf, pos, 1)?[0],
                bit: match read_bytes(buf, pos, 1)?[0] {
                    0 => false,
                    1 => true,
                    _ => return Err(bad_bit),
                },
            }),
            SHUFFLE_TAG_BATCH => {
                let round_id = read_varint(buf, pos)?;
                let count = read_varint(buf, pos)? as usize;
                // Each entry is exactly 2 bytes; a count claiming more
                // entries than the remaining bytes could hold is hostile.
                if count > buf.len().saturating_sub(*pos) / 2 {
                    return Err(WireError::InvalidField("batch entry count"));
                }
                let entries = read_bytes(buf, pos, 2 * count)?;
                if entries.chunks_exact(2).any(|e| e[1] > 1) {
                    return Err(bad_bit);
                }
                Ok(ShuffleParts::Batch { round_id, entries })
            }
            other => Err(WireError::UnknownTag(other)),
        }
    }

    /// The owned message.
    #[must_use]
    pub fn to_message(&self) -> ShuffleMessage {
        match *self {
            ShuffleParts::Submit {
                round_id,
                bit_index,
                bit,
            } => ShuffleMessage::Submit {
                round_id,
                bit_index,
                bit,
            },
            ShuffleParts::Batch { round_id, entries } => ShuffleMessage::Batch {
                round_id,
                entries: entries.chunks_exact(2).map(|e| (e[0], e[1] == 1)).collect(),
            },
        }
    }
}

/// Bytes per client to upload full `bits`-bit values for `features`
/// features, with the same varint header.
#[must_use]
pub fn full_value_upload_bytes(task_id: u64, features: usize, bits: u32) -> usize {
    let mut header = Vec::new();
    push_varint(&mut header, task_id);
    push_varint(&mut header, features as u64);
    header.len() + features * (bits as usize).div_ceil(8)
}

/// Bytes per client for one-bit-per-feature bit-pushing reports on
/// `features` features.
#[must_use]
pub fn bitpush_upload_bytes(task_id: u64, features: usize) -> usize {
    ReportMessage {
        task_id,
        reports: vec![(0, false); features],
    }
    .encoded_len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let msg = ReportMessage {
            task_id: 123_456_789,
            reports: vec![(3, true), (11, false), (0, true), (51, true)],
        };
        let bytes = msg.encode();
        assert_eq!(ReportMessage::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn empty_report_round_trips() {
        let msg = ReportMessage {
            task_id: 0,
            reports: vec![],
        };
        assert_eq!(ReportMessage::decode(&msg.encode()).unwrap(), msg);
        assert_eq!(msg.encoded_len(), 2); // two zero varints
    }

    #[test]
    fn single_bit_report_is_a_few_bytes() {
        // The conclusions' point: one report ≈ header + index + bit, i.e.
        // the same packet class as a full value.
        let one_bit = bitpush_upload_bytes(42, 1);
        let full = full_value_upload_bytes(42, 1, 16);
        assert!(one_bit <= 4, "one-bit message is {one_bit} bytes");
        assert!(full <= 4, "full-value message is {full} bytes");
        // "not so meaningful" for a single feature:
        assert!(full <= one_bit + 1);
    }

    #[test]
    fn multi_feature_savings_emerge() {
        // "In settings where each client... reveals information about
        // multiple features, the communication benefits become more
        // apparent."
        let features = 64;
        let one_bit = bitpush_upload_bytes(42, features);
        let full = full_value_upload_bytes(42, features, 32);
        assert!(
            full >= 3 * one_bit,
            "64 features: bit-pushing {one_bit}B vs full {full}B"
        );
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 127, 128, 16_383, 16_384, u64::MAX] {
            let msg = ReportMessage {
                task_id: v,
                reports: vec![(1, true)],
            };
            assert_eq!(ReportMessage::decode(&msg.encode()).unwrap().task_id, v);
        }
    }

    #[test]
    fn truncation_detected() {
        let msg = ReportMessage {
            task_id: 7,
            reports: vec![(1, true), (2, false)],
        };
        let bytes = msg.encode();
        for cut in 0..bytes.len() {
            assert!(
                ReportMessage::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let msg = ReportMessage {
            task_id: 7,
            reports: vec![(1, true)],
        };
        let mut bytes = msg.encode();
        bytes.push(0);
        assert_eq!(ReportMessage::decode(&bytes), Err(WireError::TrailingBytes));
    }

    #[test]
    fn varint_primitives_round_trip_and_size() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, 1 << 35, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "size accounting for {v}");
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        // 11 continuation bytes overflow.
        let overflow = vec![0x80u8; 11];
        let mut pos = 0;
        assert_eq!(
            read_varint(&overflow, &mut pos),
            Err(WireError::VarintOverflow)
        );
    }

    #[test]
    fn read_bytes_guards_truncation() {
        let buf = [1u8, 2, 3];
        let mut pos = 1;
        assert_eq!(read_bytes(&buf, &mut pos, 2).unwrap(), &[2, 3]);
        assert_eq!(pos, 3);
        assert_eq!(read_bytes(&buf, &mut pos, 1), Err(WireError::Truncated));
        let mut huge = usize::MAX;
        assert_eq!(
            read_bytes(&buf, &mut huge, usize::MAX),
            Err(WireError::Truncated),
            "offset overflow must not panic"
        );
    }

    #[test]
    fn report_frames_match_their_golden_bytes() {
        // Frames the earlier encoder wrote, byte for byte: the wire format
        // is fixed, however the encoder packs it.
        let golden = [
            (0, "a50500"),
            (1, "a605010301"),
            (7, "ac0507030a11181f262d6d"),
            (8, "ad0508030a11181f262d34db"),
            (9, "ae0509030a11181f262d343bb601"),
            (
                64,
                "e50540030a11181f262d343b020910171e252c333a01080f161d242b323900070e151c\
                 232a31383f060d141b222930373e050c131a21282f363d040b121920272e353c6ddbb6\
                 6ddbb66ddb",
            ),
        ];
        for (n, hex) in golden {
            let msg = ReportMessage {
                task_id: 0x2A5 + n as u64,
                reports: (0..n)
                    .map(|i| (((i * 7 + 3) % 64) as u8, (i * 5 + n) % 3 != 0))
                    .collect(),
            };
            let bytes = msg.encode();
            let got: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(got, hex, "{n} reports");
            assert_eq!(msg.encoded_len(), bytes.len());
            assert_eq!(ReportMessage::decode(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn decode_from_leaves_trailing_bytes() {
        let msg = ReportMessage {
            task_id: 9,
            reports: vec![(2, true)],
        };
        let mut bytes = msg.encode();
        let frame_len = bytes.len();
        bytes.extend_from_slice(&[0xAA, 0xBB]);
        let mut pos = 0;
        assert_eq!(ReportMessage::decode_from(&bytes, &mut pos).unwrap(), msg);
        assert_eq!(pos, frame_len);
        // The strict entry point still rejects the same buffer.
        assert_eq!(ReportMessage::decode(&bytes), Err(WireError::TrailingBytes));
    }

    #[test]
    fn oversized_count_rejected_without_allocation() {
        // varint task_id 0, then count = u64::MAX: must fail cleanly.
        let mut buf = vec![0u8];
        push_varint(&mut buf, u64::MAX);
        assert_eq!(ReportMessage::decode(&buf), Err(WireError::Truncated));
    }

    #[test]
    fn new_error_variants_display() {
        assert!(WireError::UnknownTag(0x7F).to_string().contains("0x7f"));
        assert!(WireError::InvalidField("bit index")
            .to_string()
            .contains("bit index"));
    }

    #[test]
    fn frames_round_trip_through_a_stream() {
        let frames: Vec<Vec<u8>> = vec![vec![], vec![1], vec![0xAB; 300], (0..=255).collect()];
        let mut stream = Vec::new();
        for f in &frames {
            write_frame(&mut stream, f).unwrap();
        }
        assert_eq!(
            stream.len(),
            frames.iter().map(|f| frame_len(f.len())).sum::<usize>()
        );
        let mut r = stream.as_slice();
        for f in &frames {
            assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(f.as_slice()));
        }
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn read_frame_rejects_truncation_and_hostile_lengths() {
        // Stream ends mid-payload.
        let mut stream = Vec::new();
        write_frame(&mut stream, &[1, 2, 3, 4]).unwrap();
        stream.truncate(3);
        let err = read_frame(&mut stream.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Stream ends mid-header.
        let partial: &[u8] = &[0x80];
        let err = read_frame(&mut &*partial).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Length prefix beyond MAX_FRAME_LEN must fail before allocating.
        let mut hostile = Vec::new();
        push_varint(&mut hostile, u64::MAX);
        let err = read_frame(&mut hostile.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Writing such a frame is rejected symmetrically.
        let big = vec![0u8; MAX_FRAME_LEN + 1];
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &big).is_err());
    }

    #[test]
    fn frames_carry_the_same_bytes_at_every_header_width() {
        // Payload lengths on both sides of each varint header width, and
        // the cap itself: the stack header of `write_frame` and the
        // in-place header of `push_frame_with` both emit exactly
        // `push_varint(len) ‖ payload`.
        for len in [
            0,
            127,
            128,
            16_383,
            16_384,
            (1 << 21) - 1,
            1 << 21,
            MAX_FRAME_LEN,
        ] {
            let mut payload = vec![0xA5u8; len];
            if let Some(last) = payload.last_mut() {
                *last = 0x5A;
            }
            let mut expected = Vec::new();
            push_varint(&mut expected, len as u64);
            expected.extend_from_slice(&payload);
            let mut written = Vec::new();
            write_frame(&mut written, &payload).unwrap();
            assert!(written == expected, "write_frame at length {len}");
            // Bytes already in the buffer stay where they are.
            let mut pushed = vec![0xEE];
            let n = push_frame_with(&mut pushed, |out| out.extend_from_slice(&payload)).unwrap();
            assert_eq!(n, frame_len(len));
            assert!(
                pushed[0] == 0xEE && pushed[1..] == expected[..],
                "push_frame_with at length {len}"
            );
        }
        let over = vec![0u8; MAX_FRAME_LEN + 1];
        let err = write_frame(&mut Vec::new(), &over).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let mut out = vec![1, 2, 3];
        let err = push_frame_with(&mut out, |o| o.extend_from_slice(&over)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(
            out,
            [1, 2, 3],
            "a rejected frame leaves the buffer as it was"
        );
    }

    #[test]
    fn decoder_handles_split_and_coalesced_chunks() {
        let frames: Vec<Vec<u8>> = vec![vec![7; 200], vec![], vec![1, 2, 3]];
        let mut stream = Vec::new();
        for f in &frames {
            write_frame(&mut stream, f).unwrap();
        }
        // Byte-at-a-time: every header straddles a feed boundary.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for &b in &stream {
            dec.feed(&[b]);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(dec.pending(), 0);
        // All at once.
        let mut dec = FrameDecoder::new();
        dec.feed(&stream);
        for f in &frames {
            assert_eq!(dec.next_frame().unwrap().as_deref(), Some(f.as_slice()));
        }
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn decoder_rejects_oversized_and_overlong_headers() {
        let mut dec = FrameDecoder::new();
        let mut hostile = Vec::new();
        push_varint(&mut hostile, (MAX_FRAME_LEN + 1) as u64);
        dec.feed(&hostile);
        assert_eq!(
            dec.next_frame(),
            Err(WireError::InvalidField("frame length"))
        );
        let mut dec = FrameDecoder::new();
        dec.feed(&[0x80; 11]);
        assert_eq!(dec.next_frame(), Err(WireError::VarintOverflow));
    }

    #[test]
    fn decoder_compacts_consumed_bytes() {
        let mut dec = FrameDecoder::new();
        let mut stream = Vec::new();
        write_frame(&mut stream, &[9u8; 1000]).unwrap();
        for _ in 0..20 {
            dec.feed(&stream);
            assert_eq!(dec.next_frame().unwrap().unwrap(), vec![9u8; 1000]);
        }
        assert_eq!(dec.pending(), 0);
        // The internal buffer must not retain all 20 KiB of history.
        assert!(dec.buf.len() < 4 * stream.len(), "buffer never compacted");
    }

    #[test]
    fn decoder_accepts_frames_at_exactly_max_frame_len() {
        // The boundary a fault-injection proxy will land on: a payload of
        // exactly MAX_FRAME_LEN must stream through the decoder, one byte
        // over must be rejected before buffering the body.
        let payload = vec![0xA5u8; MAX_FRAME_LEN];
        let mut stream = Vec::new();
        write_frame(&mut stream, &payload).unwrap();
        let mut dec = FrameDecoder::new();
        // Fragmented delivery: header split from body, body in two halves.
        let header_len = stream.len() - payload.len();
        dec.feed(&stream[..header_len]);
        assert_eq!(dec.next_frame().unwrap(), None, "header alone: no frame");
        let mid = header_len + payload.len() / 2;
        dec.feed(&stream[header_len..mid]);
        assert_eq!(dec.next_frame().unwrap(), None, "half a body: no frame");
        dec.feed(&stream[mid..]);
        assert_eq!(dec.next_frame().unwrap().unwrap(), payload);
        assert_eq!(dec.pending(), 0);

        // One byte past the cap is unrecoverable from the header alone.
        let mut over = Vec::new();
        push_varint(&mut over, (MAX_FRAME_LEN + 1) as u64);
        let mut dec = FrameDecoder::new();
        dec.feed(&over);
        assert_eq!(
            dec.next_frame(),
            Err(WireError::InvalidField("frame length"))
        );
    }

    #[test]
    fn decoder_survives_splits_at_every_byte_boundary() {
        // netchaos splits delivery at arbitrary byte offsets; the decoder
        // must reassemble the identical frame sequence no matter where the
        // cut lands — including inside the varint header.
        let mut stream = Vec::new();
        for msg in fleet_samples() {
            write_frame(&mut stream, &msg.encode()).unwrap();
        }
        let expected: Vec<Vec<u8>> = fleet_samples().iter().map(FleetMessage::encode).collect();
        for cut in 0..=stream.len() {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for chunk in [&stream[..cut], &stream[cut..]] {
                dec.feed(chunk);
                while let Some(f) = dec.next_frame().unwrap() {
                    got.push(f);
                }
            }
            assert_eq!(got, expected, "split at byte {cut} lost a frame");
            assert_eq!(dec.pending(), 0, "split at byte {cut} left residue");
        }
    }

    #[test]
    fn f64_helpers_round_trip_exact_bits() {
        for v in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, f64::MAX, f64::NAN] {
            let mut buf = Vec::new();
            push_f64(&mut buf, v);
            assert_eq!(buf.len(), 8);
            let mut pos = 0;
            let back = read_f64(&buf, &mut pos).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
            assert_eq!(pos, 8);
        }
        let short = [0u8; 7];
        let mut pos = 0;
        assert_eq!(read_f64(&short, &mut pos), Err(WireError::Truncated));
    }

    #[test]
    fn campaign_message_round_trips() {
        let msgs = [
            CampaignMessage {
                campaign_id: 77,
                round_index: 3,
                max_bits: Some(12),
                max_epsilon: Some(4.25),
                cooldown_rounds: 2,
                bits_per_round: 1,
                epsilon_per_round: 0.5,
            },
            CampaignMessage {
                campaign_id: 0,
                round_index: 0,
                max_bits: None,
                max_epsilon: None,
                cooldown_rounds: 0,
                bits_per_round: 0,
                epsilon_per_round: 0.0,
            },
        ];
        for msg in msgs {
            let bytes = msg.encode();
            assert_eq!(CampaignMessage::decode(&bytes).unwrap(), msg);
            // Embedded form leaves trailing bytes for the host codec.
            let mut framed = bytes.clone();
            framed.extend_from_slice(&[0xEE, 0xFF]);
            let mut pos = 0;
            assert_eq!(
                CampaignMessage::decode_from(&framed, &mut pos).unwrap(),
                msg
            );
            assert_eq!(pos, bytes.len());
            assert_eq!(
                CampaignMessage::decode(&framed),
                Err(WireError::TrailingBytes)
            );
        }
    }

    #[test]
    fn campaign_message_rejects_truncation_and_bad_flags() {
        let msg = CampaignMessage {
            campaign_id: 9,
            round_index: 1,
            max_bits: Some(4),
            max_epsilon: Some(1.0),
            cooldown_rounds: 1,
            bits_per_round: 1,
            epsilon_per_round: 0.25,
        };
        let bytes = msg.encode();
        for cut in 0..bytes.len() {
            assert!(
                CampaignMessage::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        let mut bad = bytes.clone();
        bad[2] = 7; // max_bits presence byte
        assert_eq!(
            CampaignMessage::decode(&bad),
            Err(WireError::InvalidField("max_bits flag"))
        );
    }

    #[test]
    fn campaign_policy_match_ignores_round_index_only() {
        let a = CampaignMessage {
            campaign_id: 5,
            round_index: 0,
            max_bits: Some(8),
            max_epsilon: Some(2.0),
            cooldown_rounds: 1,
            bits_per_round: 1,
            epsilon_per_round: 0.25,
        };
        let resumed = CampaignMessage {
            round_index: 6,
            ..a
        };
        assert!(a.policy_matches(&resumed));
        assert!(!a.policy_matches(&CampaignMessage {
            epsilon_per_round: 0.5,
            ..a
        }));
        assert!(!a.policy_matches(&CampaignMessage {
            max_epsilon: None,
            ..a
        }));
        assert!(!a.policy_matches(&CampaignMessage {
            campaign_id: 6,
            ..a
        }));
    }

    fn fleet_samples() -> Vec<FleetMessage> {
        vec![
            FleetMessage::Rendezvous {
                client_id: 42,
                capabilities: 0,
            },
            FleetMessage::RendezvousAck {
                session_token: u64::MAX,
                heartbeat_ms: 250,
                liveness_ms: 1000,
            },
            FleetMessage::Heartbeat {
                session_token: 7,
                seq: 12,
            },
            FleetMessage::HeartbeatAck { seq: 12 },
            FleetMessage::CohortAssign {
                round: 3,
                bit_index: 9,
                bits: 16,
                value_seed: 0xDEAD_BEEF,
                deadline_ms: 5_000,
            },
            FleetMessage::CohortWait {
                round: 3,
                retry_ms: 400,
            },
            FleetMessage::Report {
                session_token: 7,
                round: 3,
                bit_index: 9,
                bit: true,
            },
            FleetMessage::Report {
                session_token: 7,
                round: 3,
                bit_index: 0,
                bit: false,
            },
            FleetMessage::ReportAck { round: 3 },
            FleetMessage::Done { rounds: 4 },
            FleetMessage::Resume {
                client_id: 42,
                session_token: u64::MAX,
                report_nonce: 1,
            },
            FleetMessage::Busy {
                retry_after_ms: 250,
            },
            FleetMessage::DoneAck { session_token: 7 },
        ]
    }

    #[test]
    fn fleet_messages_round_trip() {
        for msg in fleet_samples() {
            let bytes = msg.encode();
            assert_eq!(bytes.len(), msg.encoded_len());
            assert_eq!(FleetMessage::decode(&bytes).unwrap(), msg, "{msg:?}");
            // Embedded form leaves trailing bytes for the host codec.
            let mut framed = bytes.clone();
            framed.extend_from_slice(&[0xEE, 0xFF]);
            let mut pos = 0;
            assert_eq!(FleetMessage::decode_from(&framed, &mut pos).unwrap(), msg);
            assert_eq!(pos, bytes.len());
            assert_eq!(FleetMessage::decode(&framed), Err(WireError::TrailingBytes));
        }
    }

    #[test]
    fn fleet_messages_reject_truncation() {
        for msg in fleet_samples() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                assert!(
                    FleetMessage::decode(&bytes[..cut]).is_err(),
                    "{msg:?} cut at {cut} must fail"
                );
            }
        }
    }

    #[test]
    fn fleet_messages_reject_bad_fields() {
        assert_eq!(
            FleetMessage::decode(&[0x7E]),
            Err(WireError::UnknownTag(0x7E))
        );
        // Report bit byte must be exactly 0 or 1.
        let mut bad = FleetMessage::Report {
            session_token: 1,
            round: 1,
            bit_index: 1,
            bit: true,
        }
        .encode();
        *bad.last_mut().unwrap() = 2;
        assert_eq!(
            FleetMessage::decode(&bad),
            Err(WireError::InvalidField("report bit"))
        );
        // bit_index wider than u32 is rejected as a typed field error.
        let mut wide = vec![FLEET_TAG_COHORT_ASSIGN];
        push_varint(&mut wide, 0); // round
        push_varint(&mut wide, u64::from(u32::MAX) + 1); // bit_index
        push_varint(&mut wide, 16);
        push_varint(&mut wide, 0);
        push_varint(&mut wide, 0);
        assert_eq!(
            FleetMessage::decode(&wide),
            Err(WireError::InvalidField("bit index"))
        );
    }

    #[test]
    fn fleet_direction_split_is_total() {
        let (up, down): (Vec<_>, Vec<_>) = fleet_samples().into_iter().partition(|m| m.is_uplink());
        assert_eq!(up.len(), 6); // rendezvous, heartbeat, 2× report, resume, done-ack
        assert_eq!(down.len(), 7);
    }

    #[test]
    fn shuffle_messages_round_trip_canonically() {
        let samples = vec![
            ShuffleMessage::Submit {
                round_id: 0,
                bit_index: 0,
                bit: false,
            },
            ShuffleMessage::Submit {
                round_id: u64::MAX,
                bit_index: 255,
                bit: true,
            },
            ShuffleMessage::Batch {
                round_id: 7,
                entries: vec![],
            },
            ShuffleMessage::Batch {
                round_id: 42,
                entries: vec![(0, true), (9, false), (255, true)],
            },
        ];
        for msg in samples {
            let bytes = msg.encode();
            assert_eq!(bytes.len(), msg.encoded_len());
            assert_eq!(ShuffleMessage::decode(&bytes).unwrap(), msg, "{msg:?}");
            for cut in 0..bytes.len() {
                assert!(
                    ShuffleMessage::decode(&bytes[..cut]).is_err(),
                    "{msg:?} cut at {cut} must fail"
                );
            }
        }
    }

    #[test]
    fn shuffle_batch_length_is_permutation_invariant() {
        // Every entry is exactly 2 bytes, so reordering a batch never
        // changes its encoded length — the traffic-parity contract.
        let forward = ShuffleMessage::Batch {
            round_id: 3,
            entries: vec![(1, true), (2, false), (200, true)],
        };
        let reversed = ShuffleMessage::Batch {
            round_id: 3,
            entries: vec![(200, true), (2, false), (1, true)],
        };
        assert_eq!(forward.encoded_len(), reversed.encoded_len());
    }

    #[test]
    fn shuffle_messages_reject_bad_fields() {
        assert_eq!(
            ShuffleMessage::decode(&[0x7F]),
            Err(WireError::UnknownTag(0x7F))
        );
        // The submit bit byte must be exactly 0 or 1.
        let mut bad = ShuffleMessage::Submit {
            round_id: 5,
            bit_index: 3,
            bit: true,
        }
        .encode();
        *bad.last_mut().unwrap() = 2;
        assert_eq!(
            ShuffleMessage::decode(&bad),
            Err(WireError::InvalidField("shuffle bit"))
        );
        // A hostile batch count far beyond the buffer is rejected before
        // any allocation happens.
        let mut hostile = vec![SHUFFLE_TAG_BATCH];
        push_varint(&mut hostile, 0); // round_id
        push_varint(&mut hostile, u64::MAX); // count
        assert_eq!(
            ShuffleMessage::decode(&hostile),
            Err(WireError::InvalidField("batch entry count"))
        );
    }

    fn sample_planes(slots: usize, bits: u32) -> BitPlanes {
        let mut planes = BitPlanes::new(bits, slots);
        for slot in 0..slots {
            let h = (slot as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(23);
            planes.record(slot, (h % u64::from(bits)) as u32, h & 1 == 1);
        }
        planes
    }

    #[test]
    fn batch_report_round_trips() {
        for (slots, bits) in [(0, 1), (1, 10), (63, 10), (64, 10), (65, 3), (1000, 16)] {
            let msg = BatchReportMessage {
                task_id: 0xFEED_F00D,
                planes: sample_planes(slots, bits),
            };
            let bytes = msg.encode();
            assert_eq!(bytes.len(), msg.encoded_len(), "({slots}, {bits})");
            assert_eq!(BatchReportMessage::decode(&bytes).unwrap(), msg);
            // Embedded form leaves trailing bytes for the host codec.
            let mut framed = bytes.clone();
            framed.extend_from_slice(&[0xEE, 0xFF]);
            let mut pos = 0;
            assert_eq!(
                BatchReportMessage::decode_from(&framed, &mut pos).unwrap(),
                msg
            );
            assert_eq!(pos, bytes.len());
            assert_eq!(
                BatchReportMessage::decode(&framed),
                Err(WireError::TrailingBytes)
            );
        }
    }

    #[test]
    fn batch_report_rejects_truncation_at_every_cut() {
        let msg = BatchReportMessage {
            task_id: 7,
            planes: sample_planes(100, 4),
        };
        let bytes = msg.encode();
        for cut in 0..bytes.len() {
            assert!(
                BatchReportMessage::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn batch_report_rejects_hostile_headers_before_allocating() {
        // Slot count claiming far more payload than the buffer holds.
        let mut hostile = Vec::new();
        push_varint(&mut hostile, 0); // task_id
        push_varint(&mut hostile, u64::MAX); // slots
        push_varint(&mut hostile, 10); // bits
        assert!(BatchReportMessage::decode(&hostile).is_err());
        // Zero-width and over-wide planes are typed field errors.
        for bad_bits in [0u64, 65, 1 << 32] {
            let mut buf = Vec::new();
            push_varint(&mut buf, 0);
            push_varint(&mut buf, 0);
            push_varint(&mut buf, bad_bits);
            assert_eq!(
                BatchReportMessage::decode(&buf),
                Err(WireError::InvalidField("batch bit width"))
            );
        }
    }

    #[test]
    fn batch_report_rejects_non_canonical_planes() {
        // One plane over 10 slots, with the bitmap words written directly.
        fn frame(occ: u64, val: u64) -> Vec<u8> {
            let mut buf = Vec::new();
            push_varint(&mut buf, 1); // task_id
            push_varint(&mut buf, 10); // slots
            push_varint(&mut buf, 1); // bits
            buf.extend_from_slice(&occ.to_le_bytes());
            buf.extend_from_slice(&val.to_le_bytes());
            buf
        }
        assert!(BatchReportMessage::decode(&frame(0b11, 0b10)).is_ok());
        // A value bit with no occupancy bit behind it.
        assert_eq!(
            BatchReportMessage::decode(&frame(0b01, 0b10)),
            Err(WireError::InvalidField("value bit outside occupancy"))
        );
        // A bit set past the slot count.
        assert_eq!(
            BatchReportMessage::decode(&frame(1 << 10, 0)),
            Err(WireError::InvalidField(
                "padding bits set past the slot count"
            ))
        );
    }

    #[test]
    fn batch_report_amortizes_per_client_bytes() {
        // The tentpole's arithmetic: at bits = 10 a 4096-client chunk costs
        // ~2.5 B/client on the wire; a chunk of length-delimited per-client
        // frames costs ~5 B/client before any transport envelope overhead.
        let chunk = 4096;
        let batch = BatchReportMessage {
            task_id: 42,
            planes: sample_planes(chunk, 10),
        };
        let per_client = ReportMessage {
            task_id: 42,
            reports: vec![(3, true)],
        };
        assert!(batch.encoded_len() < chunk * 3);
        let scalar_framed = chunk * frame_len(per_client.encoded_len());
        let batch_framed = frame_len(batch.encoded_len());
        assert!(
            2 * scalar_framed > 3 * batch_framed,
            "batched wire saves <1.5x: {scalar_framed} vs {batch_framed}"
        );
    }

    #[test]
    fn payload_bits_are_packed() {
        // 8 single-bit reports cost 1 payload byte, not 8.
        let msg = ReportMessage {
            task_id: 1,
            reports: (0..8).map(|i| (i as u8, i % 2 == 0)).collect(),
        };
        // 1 (task) + 1 (count) + 8 (indices) + 1 (packed bits).
        assert_eq!(msg.encoded_len(), 11);
    }
}
