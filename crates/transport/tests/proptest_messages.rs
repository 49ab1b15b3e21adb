//! Property tests over the framed message codec: encode→decode identity for
//! randomly generated instances of every variant, rejection of truncated
//! and over-long frames, and panic-freedom on arbitrary byte soup.

use fednum_core::bits::BitPlanes;
use fednum_core::wire::{
    push_varint, read_varint, BatchReportMessage, ReportMessage, ShuffleMessage, WireError,
};
use fednum_transport::message::{
    BatchReport, ConfigHeader, Publish, Report, RoundConfig, SecAggBatch, SecAggStep,
};
use fednum_transport::Message;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// Draws one secure-aggregation frame of `step`: 0–5 entries of 0–11 items
/// (one, for key advertisement), senders, keys and payload words across
/// their whole range.
fn arb_secagg(round_id: u64, step: SecAggStep, rng: &mut StdRng) -> Message {
    fn build<const W: usize>(round_id: u64, step: SecAggStep, rng: &mut StdRng) -> Message {
        let item = |rng: &mut StdRng| -> (u64, [u64; W]) {
            let key = rng.random::<u64>() >> rng.random_range(0..64u32);
            // One-word payloads are field elements: below 2^61.
            (key, std::array::from_fn(|_| rng.random::<u64>() >> 3))
        };
        let entries: Vec<_> = (0..rng.random_range(0..6usize))
            .map(|_| {
                let sender = rng.random::<u64>() >> rng.random_range(0..64u32);
                let items = match step {
                    SecAggStep::KeyAdvertise => 1,
                    _ => rng.random_range(0..12usize),
                };
                let items: Vec<_> = (0..items).map(|_| item(rng)).collect();
                (sender, items.into_iter())
            })
            .collect();
        let entries = entries.into_iter();
        Message::SecAgg(SecAggBatch::build(round_id, step, Vec::new(), entries))
    }
    match step {
        SecAggStep::KeyAdvertise => build::<8>(round_id, step, rng),
        SecAggStep::KeyShares => build::<6>(round_id, step, rng),
        SecAggStep::MaskedInput | SecAggStep::UnmaskShares => build::<1>(round_id, step, rng),
    }
}

/// Draws one random message of the variant selected by `pick`, exercising
/// extreme field values (zero, `u64::MAX`, empty and large collections).
fn arb_message(pick: u8, rng: &mut StdRng) -> Message {
    let round_id = match rng.random_range(0..3u32) {
        0 => 0,
        1 => u64::MAX,
        _ => rng.random::<u64>(),
    };
    match pick % 9 {
        0 => Message::Hello { round_id },
        1 => Message::RoundConfig(RoundConfig {
            round_id,
            assigned_bit: rng.random_range(0..=255u8),
            secagg: rng.random_bool(0.5),
            threshold: rng.random::<u64>() >> rng.random_range(0..64u32),
            vector_len: rng.random::<u64>() >> rng.random_range(0..64u32),
        }),
        2 => {
            let features = rng.random_range(0..40usize);
            Message::Report(Report {
                nonce: rng.random::<u64>(),
                body: ReportMessage {
                    task_id: round_id,
                    reports: (0..features)
                        .map(|_| (rng.random_range(0..64u8), rng.random_bool(0.5)))
                        .collect(),
                },
            })
        }
        3 => arb_secagg(round_id, SecAggStep::ALL[rng.random_range(0..4usize)], rng),
        4 => Message::ConfigHeader(ConfigHeader {
            round_id,
            secagg: rng.random_bool(0.5),
            threshold: rng.random::<u64>() >> rng.random_range(0..64u32),
            vector_len: rng.random::<u64>() >> rng.random_range(0..64u32),
        }),
        5 => Message::AssignBit {
            assigned_bit: rng.random_range(0..=255u8),
        },
        6 => Message::Shuffle(if rng.random_bool(0.5) {
            ShuffleMessage::Submit {
                round_id,
                bit_index: rng.random_range(0..=255u8),
                bit: rng.random_bool(0.5),
            }
        } else {
            let count = rng.random_range(0..40usize);
            ShuffleMessage::Batch {
                round_id,
                entries: (0..count)
                    .map(|_| (rng.random_range(0..=255u8), rng.random_bool(0.5)))
                    .collect(),
            }
        }),
        7 => {
            let bits = rng.random_range(1..=16u32);
            let slots = rng.random_range(0..150usize);
            let mut planes = BitPlanes::new(bits, slots);
            for slot in 0..slots {
                if rng.random_bool(0.8) {
                    planes.record(slot, rng.random_range(0..bits), rng.random_bool(0.5));
                }
            }
            Message::BatchReport(BatchReport {
                nonce: rng.random::<u64>(),
                body: BatchReportMessage {
                    task_id: round_id,
                    planes,
                },
            })
        }
        _ => {
            let count = rng.random_range(0..16usize);
            Message::Publish(Publish {
                round_id,
                // Finite only: NaN breaks PartialEq, and the coordinator never
                // publishes one (a starved round errors instead).
                estimate: (rng.random::<f64>() - 0.5) * 1e12,
                reports: rng.random::<u64>(),
                feedback: (0..count)
                    .map(|_| (rng.random::<f64>() - 0.5) * 2.0)
                    .collect(),
            })
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode→decode is the identity on every message variant, whether
    /// the decoder borrows the frame or is handed it.
    #[test]
    fn encode_decode_identity(pick in 0u8..9, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = arb_message(pick, &mut rng);
        let bytes = msg.encode();
        prop_assert_eq!(&Message::decode(&bytes).unwrap(), &msg);
        prop_assert_eq!(Message::from_bytes(bytes).unwrap(), msg);
    }

    /// `encoded_len` is computed, not measured: it must equal the length
    /// of the frame `encode` writes, for every variant.
    #[test]
    fn encoded_len_is_the_encoded_length(pick in 0u8..9, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = arb_message(pick, &mut rng);
        prop_assert_eq!(msg.encoded_len(), msg.encode().len());
    }

    /// Every strict prefix of a valid frame is rejected (the codec is
    /// prefix-free under full-consumption decoding), and every extension
    /// with trailing bytes is rejected.
    #[test]
    fn truncation_and_trailing_rejected(pick in 0u8..9, seed in any::<u64>(), junk in any::<u8>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = arb_message(pick, &mut rng);
        let bytes = msg.encode();
        for cut in 0..bytes.len() {
            prop_assert!(Message::decode(&bytes[..cut]).is_err(), "prefix of {} bytes accepted", cut);
        }
        let mut extended = bytes;
        extended.push(junk);
        prop_assert!(Message::decode(&extended).is_err());
    }

    /// Decoding arbitrary bytes returns Ok or a typed error — it never
    /// panics, never over-allocates on hostile length fields.
    #[test]
    fn random_bytes_never_panic(len in 0usize..512, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut buf = vec![0u8; len];
        rng.fill_bytes(&mut buf);
        // Bias the first byte toward valid tags so parsing goes deep.
        if !buf.is_empty() && seed.is_multiple_of(2) {
            buf[0] %= 12;
        }
        let _ = Message::decode(&buf);
    }

    /// A decoded frame re-encodes to the same bytes whenever the original
    /// used canonical varints — which every encoder in this workspace does.
    #[test]
    fn decode_encode_is_canonical(pick in 0u8..9, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes = arb_message(pick, &mut rng).encode();
        let decoded = Message::decode(&bytes).unwrap();
        prop_assert_eq!(decoded.encode(), bytes);
    }

    /// `Message::validate` returns `decode`'s verdict, the same error
    /// included, on every frame, every prefix of it and every single-bit
    /// flip of it, and never allocates; a report's computed length is its
    /// encoded length.
    #[test]
    fn validate_gives_the_decode_verdict_on_every_prefix_and_bit_flip(
        pick in 0u8..9,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = arb_message(pick, &mut rng);
        if let Message::Report(r) = &msg {
            prop_assert_eq!(r.body.encoded_len(), r.body.encode().len());
        }
        let check = |bytes: &[u8]| {
            let before = ALLOCATIONS.with(std::cell::Cell::get);
            let verdict = Message::validate(bytes);
            let allocated = ALLOCATIONS.with(std::cell::Cell::get) - before;
            assert_eq!(allocated, 0, "validate allocated on {bytes:02x?}");
            assert_eq!(verdict, Message::decode(bytes).map(drop), "{bytes:02x?}");
        };
        let mut frame = msg.encode();
        for cut in 0..=frame.len() {
            check(&frame[..cut]);
        }
        for bit in 0..8 * frame.len() {
            frame[bit / 8] ^= 1 << (bit % 8);
            check(&frame);
            frame[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

// Named regression anchors: deterministic single cases replayed by ci.sh's
// smoke step via `--exact`, pinning decode behaviour on boundary frames.

#[test]
fn regression_empty_buffer_is_truncated() {
    assert!(Message::decode(&[]).is_err());
}

#[test]
fn regression_max_varint_fields_round_trip() {
    let msg = Message::RoundConfig(RoundConfig {
        round_id: u64::MAX,
        assigned_bit: u8::MAX,
        secagg: true,
        threshold: u64::MAX,
        vector_len: u64::MAX,
    });
    assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
}

#[test]
fn regression_empty_collections_round_trip() {
    let no_items = std::iter::empty::<(u64, [u64; 1])>;
    for msg in [
        // A batch of no senders, and a sender of no shares.
        Message::SecAgg(SecAggBatch::build(
            0,
            SecAggStep::MaskedInput,
            Vec::new(),
            std::iter::empty::<(u64, std::iter::Empty<(u64, [u64; 1])>)>(),
        )),
        Message::SecAgg(SecAggBatch::build(
            0,
            SecAggStep::UnmaskShares,
            Vec::new(),
            std::iter::once((7, no_items())),
        )),
        Message::Report(Report {
            nonce: 0,
            body: ReportMessage {
                task_id: 0,
                reports: vec![],
            },
        }),
    ] {
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }
}

#[test]
fn regression_publish_preserves_estimate_bits() {
    for estimate in [0.0, -0.0, f64::MIN_POSITIVE, f64::MAX, -12.75, 1e-300] {
        let msg = Message::Publish(Publish {
            round_id: 9,
            estimate,
            reports: 3,
            feedback: vec![estimate, -0.0, 1e-300],
        });
        let Message::Publish(p) = Message::decode(&msg.encode()).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(p.estimate.to_bits(), estimate.to_bits());
        assert_eq!(p.feedback.len(), 3);
        for (got, want) in p.feedback.iter().zip([estimate, -0.0, 1e-300]) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }
}

#[test]
fn regression_hostile_batch_slot_count_fails_closed() {
    // BatchReport claiming 2^40 slots in a handful of bytes: the decoder
    // must reject it against the remaining buffer before any allocation.
    let mut buf = vec![11u8]; // TAG_BATCH_REPORT
    buf.push(0); // nonce = 0
    buf.push(0); // task_id = 0
    buf.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x20]); // slots = 2^40
    buf.push(1); // bits = 1
    assert!(Message::decode(&buf).is_err());
}

#[test]
fn regression_batch_noncanonical_padding_rejected() {
    // A syntactically valid batch frame whose last occupancy word sets a
    // bit past the slot count must fail closed: accepting it would let a
    // hostile chunk smuggle phantom reports into the plane tally.
    let mut planes = BitPlanes::new(1, 3);
    planes.record(0, 0, true);
    let msg = Message::BatchReport(BatchReport {
        nonce: 7,
        body: BatchReportMessage { task_id: 7, planes },
    });
    let mut bytes = msg.encode();
    let n = bytes.len();
    bytes[n - 16] |= 0x08; // occupancy bit for slot 3 of 3
    assert!(Message::decode(&bytes).is_err());
}

#[test]
fn regression_batch_slot_on_two_planes_rejected() {
    // One slot occupied on two planes is two reports from one client: the
    // plane tally would count it once per plane, so the frame fails closed.
    let mut planes = BitPlanes::new(3, 5);
    planes.record(2, 0, true);
    planes.record(2, 2, false);
    let msg = Message::BatchReport(BatchReport {
        nonce: 7,
        body: BatchReportMessage { task_id: 7, planes },
    });
    assert!(Message::decode(&msg.encode()).is_err());
}

/// Counts this thread's heap allocations, so "rejected before any
/// allocation" is something a test can observe.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialized thread-local
// `Cell` without a destructor, so touching it neither allocates nor runs
// code at thread exit.
unsafe impl std::alloc::GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The first `n` varints after a secure-aggregation frame's tag and step
/// bytes — the round, the entry count, then the first entry's sender, item
/// count and (where items are keyed) first key — and where they end.
fn head(frame: &[u8], n: usize) -> Option<(Vec<u64>, usize)> {
    let mut pos = 2;
    let values: Option<Vec<u64>> = (0..n).map(|_| read_varint(frame, &mut pos).ok()).collect();
    Some((values?, pos))
}

/// `frame` with the `nth` of those varints set to `value`.
fn with_varint(frame: &[u8], nth: usize, value: u64) -> Vec<u8> {
    let (start, end) = (head(frame, nth).unwrap().1, head(frame, nth + 1).unwrap().1);
    let mut out = frame[..start].to_vec();
    push_varint(&mut out, value);
    out.extend_from_slice(&frame[end..]);
    out
}

#[test]
fn regression_hostile_secagg_frame_fails_closed() {
    // Per step: whether a varint key opens an item, and its payload bytes.
    let table = [
        (SecAggStep::KeyAdvertise, false, 64),
        (SecAggStep::KeyShares, true, 48),
        (SecAggStep::MaskedInput, false, 8),
        (SecAggStep::UnmaskShares, true, 8),
    ];
    // Rejected, and rejected without having allocated anything.
    let rejected = |hostile: &[u8], why: &str| {
        let before = ALLOCATIONS.with(std::cell::Cell::get);
        let result = Message::decode(hostile);
        let allocated = ALLOCATIONS.with(std::cell::Cell::get) - before;
        assert!(result.is_err(), "{why}: accepted");
        assert_eq!(allocated, 0, "{why}: allocated before rejecting");
        result.unwrap_err()
    };
    for (step, keyed, width) in table {
        let mut rng = StdRng::seed_from_u64(step as u64);
        // A specimen of several entries whose first has an item to corrupt.
        let frame = loop {
            let frame = arb_secagg(9, step, &mut rng).encode();
            if head(&frame, 4).is_some_and(|(v, _)| v[1] > 1 && v[3] > 0) {
                break frame;
            }
        };
        assert!(Message::decode(&frame).is_ok());
        assert!(Message::from_bytes(frame.clone()).is_ok());

        for cut in 0..frame.len() {
            rejected(&frame[..cut], &format!("{step:?} cut at {cut}"));
        }
        let mut padded = frame.clone();
        padded.push(0);
        assert_eq!(Message::decode(&padded), Err(WireError::TrailingBytes));
        assert_eq!(Message::from_bytes(padded), Err(WireError::TrailingBytes));
        for tag in [4, 5, u8::MAX] {
            let mut hostile = frame.clone();
            hostile[1] = tag;
            let why = format!("{step:?} as step {tag}");
            assert_eq!(
                rejected(&hostile, &why),
                WireError::InvalidField("secagg step")
            );
        }

        // Counts: the frame's entries (2 bytes each at the least), the
        // first entry's items (`width` bytes, and a key byte, each).
        for (nth, unit) in [(1, 2), (3, width + usize::from(keyed))] {
            let (_, end) = head(&frame, nth + 1).unwrap();
            let holds = ((frame.len() - end) / unit) as u64;
            for count in [u64::MAX, holds + 1] {
                let why = format!("{step:?} varint {nth} = {count}");
                rejected(&with_varint(&frame, nth, count), &why);
            }
        }

        if width == 8 {
            // The first item's element, first at the bound then all ones.
            let (_, pos) = head(&frame, 4 + usize::from(keyed)).unwrap();
            for element in [1u64 << 61, u64::MAX] {
                let mut hostile = frame.clone();
                hostile[pos..pos + 8].copy_from_slice(&element.to_le_bytes());
                let why = format!("{step:?} element {element:#x}");
                assert_eq!(
                    rejected(&hostile, &why),
                    WireError::InvalidField("field element")
                );
            }
            let mut honest = frame.clone();
            honest[pos..pos + 8].copy_from_slice(&((1u64 << 61) - 1).to_le_bytes());
            assert!(
                Message::decode(&honest).is_ok(),
                "{step:?}: 2^61 - 1 is in range"
            );
        }
    }
}

/// The `(pick, seed)` pairs listed in `proptest_messages.proptest-regressions`
/// — one secure-aggregation frame per step — replayed as a unit test.
#[test]
fn regression_secagg_batch_seeds_round_trip() {
    for seed in [0u64, 1, 2, 3, 0x5EC_A66] {
        for step in SecAggStep::ALL {
            let msg = arb_secagg(seed, step, &mut StdRng::seed_from_u64(seed));
            let bytes = msg.encode();
            assert_eq!(bytes.len(), msg.encoded_len());
            assert_eq!(
                Message::decode(&bytes).unwrap(),
                msg,
                "seed {seed} {step:?}"
            );
            assert_eq!(Message::from_bytes(bytes).unwrap(), msg);
        }
    }
}
