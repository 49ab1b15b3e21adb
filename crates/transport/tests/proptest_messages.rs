//! Property tests over the framed message codec: encode→decode identity for
//! randomly generated instances of every variant, rejection of truncated
//! and over-long frames, and panic-freedom on arbitrary byte soup.

use fednum_core::bits::BitPlanes;
use fednum_core::wire::{BatchReportMessage, ReportMessage};
use fednum_transport::message::{
    BatchReport, EncryptedShare, KeyAdvertise, KeyShares, MaskedInput, Publish, Report,
    RoundConfig, UnmaskShares, ENCRYPTED_SHARE_LEN, PUBLIC_KEY_LEN,
};
use fednum_transport::Message;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

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
        3 => {
            let mut kem_pk = [0u8; PUBLIC_KEY_LEN];
            let mut mask_pk = [0u8; PUBLIC_KEY_LEN];
            rng.fill_bytes(&mut kem_pk);
            rng.fill_bytes(&mut mask_pk);
            Message::KeyAdvertise(KeyAdvertise {
                round_id,
                kem_pk,
                mask_pk,
            })
        }
        4 => {
            let count = rng.random_range(0..12usize);
            Message::KeyShares(KeyShares {
                round_id,
                shares: (0..count)
                    .map(|_| {
                        let mut ct = [0u8; ENCRYPTED_SHARE_LEN];
                        rng.fill_bytes(&mut ct);
                        EncryptedShare {
                            recipient: rng.random::<u64>(),
                            ct,
                        }
                    })
                    .collect(),
            })
        }
        5 => {
            let count = rng.random_range(0..64usize);
            Message::MaskedInput(MaskedInput {
                round_id,
                values: (0..count).map(|_| rng.random::<u64>()).collect(),
            })
        }
        6 => {
            let count = rng.random_range(0..32usize);
            Message::UnmaskShares(UnmaskShares {
                round_id,
                shares: (0..count)
                    .map(|_| (rng.random::<u64>(), rng.random::<u64>()))
                    .collect(),
            })
        }
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

    /// Encode→decode is the identity on every message variant.
    #[test]
    fn encode_decode_identity(pick in 0u8..9, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = arb_message(pick, &mut rng);
        let bytes = msg.encode();
        prop_assert_eq!(bytes.len(), msg.encoded_len());
        prop_assert_eq!(Message::decode(&bytes).unwrap(), msg);
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
    for msg in [
        Message::KeyShares(KeyShares {
            round_id: 0,
            shares: vec![],
        }),
        Message::MaskedInput(MaskedInput {
            round_id: 0,
            values: vec![],
        }),
        Message::UnmaskShares(UnmaskShares {
            round_id: 0,
            shares: vec![],
        }),
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

#[test]
fn regression_hostile_count_fails_closed() {
    // KeyShares claiming u64::MAX shares in a 12-byte buffer: must fail
    // before any allocation, with a typed error.
    let mut buf = vec![4u8, 0];
    buf.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]);
    assert!(Message::decode(&buf).is_err());
}
