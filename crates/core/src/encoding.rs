//! Fixed-point / integer encoding of client values.
//!
//! Bit-pushing operates on `b`-bit unsigned integers (Section 3.1: "we work
//! with b-bit integer and fixed-point values"). This module maps real client
//! values into that domain:
//!
//! * `encoded = round((x - offset) * scale)`, clamped into `[0, 2^b - 1]`;
//! * the clamp *is* the winsorization/clipping the deployment section
//!   recommends for heavy-tailed metrics ("clipping the inputs to a fixed
//!   number of bits b — say, 8 or 16 — so that large values are truncated to
//!   2^b − 1", Section 4.3);
//! * signed ranges are handled with offset binary (an explicit `offset`),
//!   because signed binary expansions are not linear in the sign bit
//!   (footnote 1 of the paper).

use serde::{Deserialize, Serialize};

/// Maximum supported bit depth: `2^52` keeps every encoded integer exactly
/// representable in `f64`, which the reconstruction arithmetic relies on.
pub const MAX_BITS: u32 = 52;

/// A `b`-bit unsigned fixed-point codec with clipping.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FixedPointCodec {
    bits: u32,
    scale: f64,
    offset: f64,
}

/// Whether an encode operation had to clip its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Clip {
    /// Value was representable without clamping.
    None,
    /// Value fell below the encodable range and was clamped to 0.
    Low,
    /// Value exceeded the encodable range and was clamped to `2^b - 1`.
    High,
}

impl FixedPointCodec {
    /// A codec for nonnegative integers in `[0, 2^bits - 1]`
    /// (`scale = 1`, `offset = 0`).
    ///
    /// # Panics
    /// Panics unless `1 <= bits <= 52`.
    #[must_use]
    pub fn integer(bits: u32) -> Self {
        Self::new(bits, 1.0, 0.0)
    }

    /// A codec with `frac_bits` binary fraction digits: values are encoded
    /// at resolution `2^-frac_bits` over `[0, 2^(bits - frac_bits))`.
    ///
    /// # Panics
    /// Panics unless `1 <= bits <= 52` and `frac_bits < bits`.
    #[must_use]
    pub fn fixed_point(bits: u32, frac_bits: u32) -> Self {
        assert!(frac_bits < bits, "frac_bits must be < bits");
        Self::new(bits, (1u64 << frac_bits) as f64, 0.0)
    }

    /// A codec spanning `[lo, hi]` with full `bits`-bit resolution
    /// (offset binary: `lo` maps to 0, `hi` to `2^bits - 1`).
    ///
    /// # Panics
    /// Panics unless `lo < hi` (finite) and `1 <= bits <= 52`.
    #[must_use]
    pub fn spanning(bits: u32, lo: f64, hi: f64) -> Self {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "need lo < hi");
        let max = ((1u64 << bits) - 1) as f64;
        Self::new(bits, max / (hi - lo), lo)
    }

    /// General constructor: `encoded = round((x - offset) * scale)`.
    ///
    /// # Panics
    /// Panics unless `1 <= bits <= 52`, `scale > 0` and finite, `offset`
    /// finite.
    #[must_use]
    pub fn new(bits: u32, scale: f64, offset: f64) -> Self {
        assert!(
            (1..=MAX_BITS).contains(&bits),
            "bits must be in 1..={MAX_BITS}, got {bits}"
        );
        assert!(scale > 0.0 && scale.is_finite(), "scale must be > 0");
        assert!(offset.is_finite(), "offset must be finite");
        Self {
            bits,
            scale,
            offset,
        }
    }

    /// Bit depth `b`.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Largest encodable integer, `2^b - 1`.
    #[must_use]
    pub fn max_encoded(&self) -> u64 {
        (1u64 << self.bits) - 1
    }

    /// Largest decodable value, `decode(2^b - 1)`.
    #[must_use]
    pub fn max_value(&self) -> f64 {
        self.decode(self.max_encoded())
    }

    /// Encodes a value, clipping into the representable range.
    #[must_use]
    pub fn encode(&self, x: f64) -> u64 {
        self.encode_checked(x).0
    }

    /// Encodes a value, additionally reporting whether clipping occurred.
    #[must_use]
    pub fn encode_checked(&self, x: f64) -> (u64, Clip) {
        let raw = (x - self.offset) * self.scale;
        let max = self.max_encoded();
        if raw.is_nan() || raw < 0.0 {
            return (0, Clip::Low);
        }
        let rounded = raw.round();
        if rounded > max as f64 {
            (max, Clip::High)
        } else {
            (rounded as u64, Clip::None)
        }
    }

    /// Decodes an encoded integer back to the value domain.
    #[must_use]
    pub fn decode(&self, v: u64) -> f64 {
        self.decode_float(v as f64)
    }

    /// Decodes a *fractional* encoded-domain value — reconstructed means
    /// `Σ 2^j m_j` are real numbers in encoded units.
    #[must_use]
    pub fn decode_float(&self, v: f64) -> f64 {
        v / self.scale + self.offset
    }

    /// Encodes a whole population, returning the codes and the fraction of
    /// values that were clipped (a deployment health signal).
    #[must_use]
    pub fn encode_all(&self, values: &[f64]) -> (Vec<u64>, f64) {
        let mut clipped = 0usize;
        let codes = values
            .iter()
            .map(|&x| {
                let (v, c) = self.encode_checked(x);
                if c != Clip::None {
                    clipped += 1;
                }
                v
            })
            .collect();
        let frac = if values.is_empty() {
            0.0
        } else {
            clipped as f64 / values.len() as f64
        };
        (codes, frac)
    }

    /// The exact mean of the population *after* encoding (clipping +
    /// rounding) in the value domain: the ground truth a clipped protocol
    /// should be compared against.
    ///
    /// # Panics
    /// Panics if `values` is empty.
    #[must_use]
    pub fn encoded_mean(&self, values: &[f64]) -> f64 {
        assert!(!values.is_empty(), "need at least one value");
        let sum: f64 = values.iter().map(|&x| self.encode(x) as f64).sum();
        self.decode_float(sum / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_codec_round_trips() {
        let c = FixedPointCodec::integer(8);
        for v in [0u64, 1, 37, 128, 255] {
            assert_eq!(c.encode(v as f64), v);
            assert_eq!(c.decode(v), v as f64);
        }
        assert_eq!(c.max_encoded(), 255);
        assert_eq!(c.bits(), 8);
    }

    #[test]
    fn clipping_high_and_low() {
        let c = FixedPointCodec::integer(8);
        assert_eq!(c.encode_checked(300.0), (255, Clip::High));
        assert_eq!(c.encode_checked(-5.0), (0, Clip::Low));
        assert_eq!(c.encode_checked(255.0), (255, Clip::None));
        assert_eq!(c.encode_checked(0.0), (0, Clip::None));
    }

    #[test]
    fn nan_clips_low() {
        let c = FixedPointCodec::integer(8);
        assert_eq!(c.encode_checked(f64::NAN), (0, Clip::Low));
    }

    #[test]
    fn rounding_is_nearest() {
        let c = FixedPointCodec::integer(8);
        assert_eq!(c.encode(10.4), 10);
        assert_eq!(c.encode(10.6), 11);
    }

    #[test]
    fn fixed_point_resolution() {
        // 10 bits with 2 fraction bits: resolution 0.25, range [0, 255.75].
        let c = FixedPointCodec::fixed_point(10, 2);
        assert_eq!(c.encode(1.25), 5);
        assert!((c.decode(5) - 1.25).abs() < 1e-12);
        assert!((c.max_value() - 255.75).abs() < 1e-12);
    }

    #[test]
    fn spanning_codec_maps_endpoints() {
        let c = FixedPointCodec::spanning(8, -10.0, 10.0);
        assert_eq!(c.encode(-10.0), 0);
        assert_eq!(c.encode(10.0), 255);
        assert!((c.decode(0) - -10.0).abs() < 1e-12);
        assert!((c.decode(255) - 10.0).abs() < 1e-12);
        // Midpoint encodes near the centre code.
        let mid = c.encode(0.0);
        assert!((127..=128).contains(&mid));
    }

    #[test]
    fn spanning_round_trip_error_bounded_by_half_step() {
        let c = FixedPointCodec::spanning(12, 0.0, 100.0);
        let step = 100.0 / 4095.0;
        for i in 0..1000 {
            let x = i as f64 * 0.1;
            let err = (c.decode(c.encode(x)) - x).abs();
            assert!(err <= step / 2.0 + 1e-12, "x={x} err={err}");
        }
    }

    #[test]
    fn decode_float_handles_fractional_means() {
        let c = FixedPointCodec::fixed_point(8, 1);
        // Encoded-domain mean 10.5 → value 5.25.
        assert!((c.decode_float(10.5) - 5.25).abs() < 1e-12);
    }

    #[test]
    fn encode_all_reports_clip_fraction() {
        let c = FixedPointCodec::integer(4); // max 15
        let (codes, frac) = c.encode_all(&[1.0, 20.0, 7.0, 100.0]);
        assert_eq!(codes, vec![1, 15, 7, 15]);
        assert!((frac - 0.5).abs() < 1e-12);
    }

    #[test]
    fn encoded_mean_accounts_for_clipping() {
        let c = FixedPointCodec::integer(4);
        // Values 10 and 30 → encoded 10 and 15 → mean 12.5.
        assert!((c.encoded_mean(&[10.0, 30.0]) - 12.5).abs() < 1e-12);
    }

    #[test]
    fn one_bit_codec() {
        let c = FixedPointCodec::integer(1);
        assert_eq!(c.max_encoded(), 1);
        assert_eq!(c.encode(0.6), 1);
        assert_eq!(c.encode(0.4), 0);
    }

    #[test]
    fn max_bits_codec_is_exact() {
        let c = FixedPointCodec::integer(MAX_BITS);
        let big = c.max_encoded();
        assert_eq!(c.encode(big as f64), big);
        assert_eq!(c.decode(big), big as f64);
    }

    #[test]
    #[should_panic(expected = "bits must be in")]
    fn rejects_zero_bits() {
        let _ = FixedPointCodec::integer(0);
    }

    #[test]
    #[should_panic(expected = "bits must be in")]
    fn rejects_oversized_bits() {
        let _ = FixedPointCodec::integer(53);
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn rejects_nonpositive_scale() {
        let _ = FixedPointCodec::new(8, 0.0, 0.0);
    }
}
