//! Binary decomposition helpers.
//!
//! The linear decomposition at the heart of bit-pushing: for an encoded
//! value `x = Σ_j 2^j x^(j)`, the mean satisfies `x̄ = Σ_j 2^j x̄^(j)`
//! (equation (1) of the paper), so per-bit means reconstruct the value mean
//! exactly. The β weights `β_j = 4^j x̄^(j)(1 - x̄^(j))` drive both the
//! variance formula (Lemma 3.1) and the optimal sampling probabilities
//! (Lemma 3.3).

/// Extracts bit `j` of an encoded value.
#[must_use]
#[inline]
pub fn bit(v: u64, j: u32) -> bool {
    (v >> j) & 1 == 1
}

/// Extracts bit `j` as 0.0 / 1.0.
#[must_use]
#[inline]
pub fn bit_f64(v: u64, j: u32) -> f64 {
    f64::from(u8::from(bit(v, j)))
}

/// The weight `2^j` of bit `j` in the linear decomposition.
///
/// # Panics
/// Panics (in debug) for `j >= 53` where `f64` exactness would be lost.
#[must_use]
#[inline]
pub fn weight(j: u32) -> f64 {
    debug_assert!(j < 53);
    (1u64 << j) as f64
}

/// Reconstructs a value-domain (encoded units) mean from per-bit means:
/// `Σ_j 2^j m_j`.
#[must_use]
pub fn reconstruct(bit_means: &[f64]) -> f64 {
    bit_means
        .iter()
        .enumerate()
        .map(|(j, &m)| weight(j as u32) * m)
        .sum()
}

/// Exact per-bit means of an encoded population: `m_j = (1/n) Σ_i x_i^(j)`.
///
/// # Panics
/// Panics if `codes` is empty.
#[must_use]
pub fn exact_bit_means(codes: &[u64], bits: u32) -> Vec<f64> {
    assert!(!codes.is_empty(), "need at least one value");
    let n = codes.len() as f64;
    (0..bits)
        .map(|j| codes.iter().map(|&v| bit_f64(v, j)).sum::<f64>() / n)
        .collect()
}

/// The per-bit variance contributions `β_j = 4^j m_j (1 - m_j)` of
/// Lemma 3.1, with bit means clamped into `[0, 1]` (debiased DP estimates
/// may stray outside).
#[must_use]
pub fn beta_weights(bit_means: &[f64]) -> Vec<f64> {
    bit_means
        .iter()
        .enumerate()
        .map(|(j, &m)| {
            let m = m.clamp(0.0, 1.0);
            let w = weight(j as u32);
            w * w * m * (1.0 - m)
        })
        .collect()
}

/// Packed per-bit-position bitmap planes over a window of client slots.
///
/// Plane `j` holds two bitmaps along the client-slot axis: an *occupancy*
/// bitmap (slot delivered a report for bit position `j`) and a *value*
/// bitmap (the reported bit itself, always a subset of the occupancy
/// bits). Tallying a plane is `count_ones()` over its `u64` words — 64
/// clients per instruction — and is exactly the scalar per-client tally
/// `ones[j] += bit; counts[j] += 1`, so plane aggregation is bit-identical
/// to the frame-at-a-time accumulate it replaces.
///
/// The logical layout doubles as the batched wire layout (per plane:
/// occupancy words, then value words, little-endian `u64`s), so a batched
/// frame decodes straight into a `BitPlanes` without touching individual
/// client reports. In memory each plane may reserve spare words past
/// `words_per_plane()` (see [`merge`](Self::merge)); the spare is always
/// zero, never reaches the wire, and equality ignores it.
#[derive(Clone, Debug)]
pub struct BitPlanes {
    bits: u32,
    slots: usize,
    /// Words per plane in use: `slots.div_ceil(64)`.
    words: usize,
    /// Words reserved per plane, `>= words`; words `[words, stride)` of
    /// every plane stay zero.
    stride: usize,
    /// `bits * stride` words; plane `j` is `[j * stride, j * stride + words)`.
    occupancy: Vec<u64>,
    value: Vec<u64>,
}

impl PartialEq for BitPlanes {
    /// Logical equality: same shape and same plane bitmaps, whatever spare
    /// capacity either side holds.
    fn eq(&self, other: &Self) -> bool {
        self.bits == other.bits
            && self.slots == other.slots
            && (0..self.bits as usize).all(|j| {
                self.plane_occupancy(j) == other.plane_occupancy(j)
                    && self.plane_value(j) == other.plane_value(j)
            })
    }
}

impl Eq for BitPlanes {}

/// ORs `src`, shifted left by `shift` bits across word boundaries, into
/// `dst`; `dst` is as long as `src` or one word longer (the spill).
fn or_shifted(dst: &mut [u64], src: &[u64], shift: u32) {
    let mut carry = 0u64;
    for (i, d) in dst.iter_mut().enumerate() {
        let s = src.get(i).copied().unwrap_or(0);
        *d |= (s << shift) | carry;
        carry = s.checked_shr(64 - shift).unwrap_or(0);
    }
    debug_assert_eq!(carry, 0, "padding bits set in the appended planes");
}

impl BitPlanes {
    /// Empty planes for `bits` bit positions over `slots` client slots.
    ///
    /// # Panics
    /// Panics if `bits == 0`.
    #[must_use]
    pub fn new(bits: u32, slots: usize) -> Self {
        assert!(bits > 0, "need at least one bit plane");
        let words = slots.div_ceil(64);
        Self {
            bits,
            slots,
            words,
            stride: words,
            occupancy: vec![0; bits as usize * words],
            value: vec![0; bits as usize * words],
        }
    }

    /// Number of bit planes.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of client slots.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// `u64` words per plane bitmap (`slots.div_ceil(64)`).
    #[must_use]
    pub fn words_per_plane(&self) -> usize {
        self.words
    }

    /// Records slot `slot` reporting bit value `value` on plane `plane`.
    ///
    /// # Panics
    /// Panics if `slot` or `plane` is out of range, or if the slot already
    /// reported on this plane (each slot carries exactly one report).
    pub fn record(&mut self, slot: usize, plane: u32, value: bool) {
        assert!(slot < self.slots, "slot {slot} out of {}", self.slots);
        assert!(plane < self.bits, "plane {plane} out of {}", self.bits);
        let idx = plane as usize * self.stride + slot / 64;
        let mask = 1u64 << (slot % 64);
        assert_eq!(self.occupancy[idx] & mask, 0, "slot {slot} reported twice");
        self.occupancy[idx] |= mask;
        if value {
            self.value[idx] |= mask;
        }
    }

    /// Per-plane one-counts: `popcount(value_j)` — the `Σ_i x_i^(j)` of the
    /// scalar tally.
    #[must_use]
    pub fn ones(&self) -> Vec<u64> {
        (0..self.bits as usize)
            .map(|j| {
                self.plane_value(j)
                    .iter()
                    .map(|w| u64::from(w.count_ones()))
                    .sum()
            })
            .collect()
    }

    /// Per-plane report counts: `popcount(occupancy_j)`.
    #[must_use]
    pub fn counts(&self) -> Vec<u64> {
        (0..self.bits as usize)
            .map(|j| {
                self.plane_occupancy(j)
                    .iter()
                    .map(|w| u64::from(w.count_ones()))
                    .sum()
            })
            .collect()
    }

    /// `ones()` restricted to the slots set in `keep` (a slot bitmap of
    /// `words_per_plane()` words): `popcount(value_j & keep)` per plane.
    ///
    /// # Panics
    /// Panics if `keep.len() != words_per_plane()`.
    #[must_use]
    pub fn ones_masked(&self, keep: &[u64]) -> Vec<u64> {
        assert_eq!(keep.len(), self.words, "mask length mismatch");
        (0..self.bits as usize)
            .map(|j| {
                self.plane_value(j)
                    .iter()
                    .zip(keep)
                    .map(|(w, k)| u64::from((w & k).count_ones()))
                    .sum()
            })
            .collect()
    }

    /// `counts()` restricted to the slots set in `keep`.
    ///
    /// # Panics
    /// Panics if `keep.len() != words_per_plane()`.
    #[must_use]
    pub fn counts_masked(&self, keep: &[u64]) -> Vec<u64> {
        assert_eq!(keep.len(), self.words, "mask length mismatch");
        (0..self.bits as usize)
            .map(|j| {
                self.plane_occupancy(j)
                    .iter()
                    .zip(keep)
                    .map(|(w, k)| u64::from((w & k).count_ones()))
                    .sum()
            })
            .collect()
    }

    /// The occupancy bitmap of plane `j`.
    ///
    /// # Panics
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn plane_occupancy(&self, j: usize) -> &[u64] {
        &self.occupancy[j * self.stride..j * self.stride + self.words]
    }

    /// The value bitmap of plane `j`.
    ///
    /// # Panics
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn plane_value(&self, j: usize) -> &[u64] {
        &self.value[j * self.stride..j * self.stride + self.words]
    }

    /// Rebuilds planes from raw bitmap words (the batched-wire decode
    /// path). Fails closed on any non-canonical input: wrong word counts,
    /// set padding bits past `slots`, a value bit outside its occupancy
    /// bit, or a slot occupied on more than one plane (each slot carries
    /// exactly one report; accepting it would let one frame count a client
    /// once per plane).
    ///
    /// # Errors
    /// Returns a static description of the first violated invariant.
    pub fn from_words(
        bits: u32,
        slots: usize,
        occupancy: Vec<u64>,
        value: Vec<u64>,
    ) -> Result<Self, &'static str> {
        if bits == 0 {
            return Err("zero bit planes");
        }
        let words = slots.div_ceil(64);
        if occupancy.len() != bits as usize * words || value.len() != occupancy.len() {
            return Err("bitmap word count mismatch");
        }
        let at = |j: usize, w: usize| j * words + w;
        Self::check_words(
            bits,
            slots,
            |j, w| occupancy[at(j, w)],
            |j, w| value[at(j, w)],
        )?;
        Ok(Self::from_checked_words(bits, slots, occupancy, value))
    }

    /// The canonical-form checks of [`Self::from_words`] past its word
    /// counts, over the words read through `occupancy(j, w)` and
    /// `value(j, w)` (plane `j`, word `w < ceil(slots/64)`) — so a wire
    /// codec can check planes still in their frame.
    pub(crate) fn check_words(
        bits: u32,
        slots: usize,
        occupancy: impl Fn(usize, usize) -> u64,
        value: impl Fn(usize, usize) -> u64,
    ) -> Result<(), &'static str> {
        let words = slots.div_ceil(64);
        let planes = 0..bits as usize;
        if !slots.is_multiple_of(64) && words > 0 {
            let pad = !0u64 << (slots % 64);
            for j in planes.clone() {
                if occupancy(j, words - 1) & pad != 0 || value(j, words - 1) & pad != 0 {
                    return Err("padding bits set past the slot count");
                }
            }
        }
        for j in planes.clone() {
            if (0..words).any(|w| value(j, w) & !occupancy(j, w) != 0) {
                return Err("value bit outside occupancy");
            }
        }
        for w in 0..words {
            let mut seen = 0u64;
            for j in planes.clone() {
                let o = occupancy(j, w);
                if seen & o != 0 {
                    return Err("slot occupied on more than one plane");
                }
                seen |= o;
            }
        }
        Ok(())
    }

    /// [`Self::from_words`] of words that already passed its checks.
    pub(crate) fn from_checked_words(
        bits: u32,
        slots: usize,
        occupancy: Vec<u64>,
        value: Vec<u64>,
    ) -> Self {
        let words = slots.div_ceil(64);
        Self {
            bits,
            slots,
            words,
            stride: words,
            occupancy,
            value,
        }
    }

    /// Appends `other`'s slots after this plane set's slots (shard fan-in,
    /// chunk-by-chunk collect), in place.
    ///
    /// Costs O(`other`) amortised: `other`'s words are ORed in at the slot
    /// offset, and storage is regrown — geometrically, so at most
    /// O(log(total / first)) times over any sequence of appends — only
    /// when a plane outgrows its reserved words.
    ///
    /// # Panics
    /// Panics if the plane counts differ.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.bits, other.bits, "plane count mismatch");
        let new_slots = self.slots + other.slots;
        let new_words = new_slots.div_ceil(64);
        if new_words > self.stride {
            self.regrow(new_words.max(2 * self.stride));
        }
        let word_off = self.slots / 64;
        let shift = (self.slots % 64) as u32;
        for j in 0..self.bits as usize {
            let window = j * self.stride + word_off..j * self.stride + new_words;
            or_shifted(
                &mut self.occupancy[window.clone()],
                other.plane_occupancy(j),
                shift,
            );
            or_shifted(&mut self.value[window], other.plane_value(j), shift);
        }
        self.slots = new_slots;
        self.words = new_words;
    }

    /// Moves every plane to a per-plane reservation of `stride` words.
    fn regrow(&mut self, stride: usize) {
        let (bits, words, old) = (self.bits as usize, self.words, self.stride);
        for buf in [&mut self.occupancy, &mut self.value] {
            let mut grown = vec![0u64; bits * stride];
            for j in 0..bits {
                grown[j * stride..j * stride + words]
                    .copy_from_slice(&buf[j * old..j * old + words]);
            }
            *buf = grown;
        }
        self.stride = stride;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_extraction() {
        let v = 0b1011_0010u64;
        assert!(!bit(v, 0));
        assert!(bit(v, 1));
        assert!(bit(v, 4));
        assert!(bit(v, 7));
        assert!(!bit(v, 8));
        assert_eq!(bit_f64(v, 1), 1.0);
        assert_eq!(bit_f64(v, 0), 0.0);
    }

    #[test]
    fn weights_are_powers_of_two() {
        assert_eq!(weight(0), 1.0);
        assert_eq!(weight(1), 2.0);
        assert_eq!(weight(10), 1024.0);
    }

    #[test]
    fn reconstruct_inverts_decomposition() {
        for v in [0u64, 1, 5, 100, 255, 256, 12345] {
            let bits = 16;
            let means: Vec<f64> = (0..bits).map(|j| bit_f64(v, j)).collect();
            assert_eq!(reconstruct(&means), v as f64);
        }
    }

    #[test]
    fn exact_bit_means_reconstruct_population_mean() {
        let codes = vec![3u64, 9, 200, 77, 1];
        let truth = codes.iter().sum::<u64>() as f64 / codes.len() as f64;
        let means = exact_bit_means(&codes, 8);
        assert!((reconstruct(&means) - truth).abs() < 1e-12);
    }

    #[test]
    fn bit_means_are_fractions() {
        let codes = vec![0b01u64, 0b11, 0b10, 0b00];
        let means = exact_bit_means(&codes, 2);
        assert!((means[0] - 0.5).abs() < 1e-12);
        assert!((means[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn beta_weights_formula() {
        let means = vec![0.5, 0.25, 1.0, 0.0];
        let betas = beta_weights(&means);
        assert!((betas[0] - 0.25).abs() < 1e-12); // 1 * 0.25
        assert!((betas[1] - 4.0 * 0.1875).abs() < 1e-12); // 4 * 3/16
        assert_eq!(betas[2], 0.0); // deterministic bit
        assert_eq!(betas[3], 0.0);
    }

    #[test]
    fn beta_weights_clamp_out_of_range_means() {
        let betas = beta_weights(&[-0.2, 1.4]);
        assert_eq!(betas, vec![0.0, 0.0]);
    }

    /// Deterministic pseudo-random reports for the plane tests.
    fn synthetic_reports(n: usize, bits: u32) -> Vec<(u32, bool)> {
        (0..n)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(17)
                    .wrapping_mul(0xD134_2543_DE82_EF95);
                ((h % u64::from(bits)) as u32, h & (1 << 40) != 0)
            })
            .collect()
    }

    #[test]
    fn plane_tally_matches_scalar_accumulate() {
        let bits = 7;
        let reports = synthetic_reports(321, bits);
        let mut planes = BitPlanes::new(bits, reports.len());
        let mut ones = vec![0u64; bits as usize];
        let mut counts = vec![0u64; bits as usize];
        for (slot, &(plane, value)) in reports.iter().enumerate() {
            planes.record(slot, plane, value);
            ones[plane as usize] += u64::from(value);
            counts[plane as usize] += 1;
        }
        assert_eq!(planes.ones(), ones);
        assert_eq!(planes.counts(), counts);
    }

    #[test]
    fn masked_tally_drops_exactly_the_masked_slots() {
        let bits = 5;
        let reports = synthetic_reports(200, bits);
        let mut planes = BitPlanes::new(bits, reports.len());
        let mut ones = vec![0u64; bits as usize];
        let mut counts = vec![0u64; bits as usize];
        let mut keep = vec![0u64; planes.words_per_plane()];
        for (slot, &(plane, value)) in reports.iter().enumerate() {
            planes.record(slot, plane, value);
            if slot % 3 != 0 {
                keep[slot / 64] |= 1 << (slot % 64);
                ones[plane as usize] += u64::from(value);
                counts[plane as usize] += 1;
            }
        }
        assert_eq!(planes.ones_masked(&keep), ones);
        assert_eq!(planes.counts_masked(&keep), counts);
    }

    /// Planes holding `reports`, one slot each in order.
    fn pack(reports: &[(u32, bool)], bits: u32) -> BitPlanes {
        let mut planes = BitPlanes::new(bits, reports.len());
        for (slot, &(plane, value)) in reports.iter().enumerate() {
            planes.record(slot, plane, value);
        }
        planes
    }

    /// The storage invariant `merge` relies on: every word a plane
    /// reserves past `words_per_plane()` is zero.
    fn assert_spare_is_zero(planes: &BitPlanes) {
        for buf in [&planes.occupancy, &planes.value] {
            assert_eq!(buf.len(), planes.bits as usize * planes.stride);
            for plane in buf.chunks(planes.stride.max(1)) {
                assert!(plane[planes.words..].iter().all(|&w| w == 0));
            }
        }
    }

    #[test]
    fn merge_concatenates_slots_at_unaligned_boundaries() {
        let bits = 4;
        // Empty self, empty other, a one-slot spill into a fresh word,
        // word-aligned and unaligned offsets, multi-word chunks.
        for (na, nb) in [
            (0, 0),
            (0, 5),
            (5, 0),
            (63, 1),
            (63, 2),
            (64, 64),
            (65, 129),
            (10, 300),
        ] {
            let reports = synthetic_reports(na + nb, bits);
            let mut a = pack(&reports[..na], bits);
            a.merge(&pack(&reports[na..], bits));
            assert_eq!(a, pack(&reports, bits), "merge mismatch at ({na}, {nb})");
            assert_spare_is_zero(&a);
        }
    }

    #[test]
    fn chunked_merges_across_regrowths_equal_single_shot_planes() {
        use crate::wire::BatchReportMessage;
        let bits = 5;
        let chunks = [0usize, 1, 63, 64, 65, 0, 130, 7, 512, 300, 64, 1];
        let reports = synthetic_reports(chunks.iter().sum(), bits);
        let mut grown = BitPlanes::new(bits, 0);
        let mut regrowths = 0;
        let mut done = 0;
        for len in chunks {
            let stride = grown.stride;
            grown.merge(&pack(&reports[done..done + len], bits));
            regrowths += usize::from(grown.stride != stride);
            done += len;
            assert_eq!(grown, pack(&reports[..done], bits), "after {done} slots");
            assert_spare_is_zero(&grown);
        }
        assert!(regrowths > 2, "the chunking must cross several regrowths");
        assert!(grown.stride > grown.words, "must end holding spare words");

        // Spare capacity is invisible: equality, clones, raw words and the
        // wire bytes match planes built in one shot.
        let whole = pack(&reports, bits);
        assert_eq!(grown.clone(), whole);
        let flat = |plane: fn(&BitPlanes, usize) -> &[u64]| -> Vec<u64> {
            (0..bits as usize)
                .flat_map(|j| plane(&grown, j).to_vec())
                .collect()
        };
        let rebuilt = BitPlanes::from_words(
            bits,
            done,
            flat(BitPlanes::plane_occupancy),
            flat(BitPlanes::plane_value),
        )
        .unwrap();
        assert_eq!(rebuilt, grown);
        assert_eq!(grown.ones(), whole.ones());
        assert_eq!(grown.counts(), whole.counts());
        let encode = |planes: BitPlanes| BatchReportMessage { task_id: 9, planes }.encode();
        let bytes = encode(whole);
        assert_eq!(encode(grown.clone()), bytes);
        assert_eq!(encode(rebuilt), bytes);
        assert_eq!(BatchReportMessage::decode(&bytes).unwrap().planes, grown);
    }

    #[test]
    fn merging_many_chunks_regrows_logarithmically() {
        // The batched collect appends ~2,000 chunks per 1M-client round; a
        // merge that reallocates per chunk makes the round quadratic.
        let (bits, chunks, chunk_slots) = (10, 2_048usize, 512);
        let chunk = pack(&synthetic_reports(chunk_slots, bits), bits);
        let mut planes = BitPlanes::new(bits, 0);
        let mut regrowths = 0;
        for _ in 0..chunks {
            let stride = planes.stride;
            planes.merge(&chunk);
            regrowths += u32::from(planes.stride != stride);
        }
        assert_eq!(planes.slots(), chunks * chunk_slots);
        assert!(
            regrowths <= chunks.ilog2() + 1,
            "{regrowths} regrowths over {chunks} chunks"
        );
        let per_chunk = chunk.counts();
        let expected: Vec<u64> = per_chunk.iter().map(|c| c * chunks as u64).collect();
        assert_eq!(planes.counts(), expected);
    }

    #[test]
    fn from_words_round_trips_canonical_planes() {
        let bits = 3;
        let reports = synthetic_reports(70, bits);
        let mut planes = BitPlanes::new(bits, reports.len());
        for (slot, &(plane, value)) in reports.iter().enumerate() {
            planes.record(slot, plane, value);
        }
        let occ: Vec<u64> = (0..bits as usize)
            .flat_map(|j| planes.plane_occupancy(j).to_vec())
            .collect();
        let val: Vec<u64> = (0..bits as usize)
            .flat_map(|j| planes.plane_value(j).to_vec())
            .collect();
        let rebuilt = BitPlanes::from_words(bits, reports.len(), occ, val).unwrap();
        assert_eq!(rebuilt, planes);
    }

    #[test]
    fn from_words_rejects_non_canonical_bitmaps() {
        // Wrong word count.
        assert!(BitPlanes::from_words(2, 10, vec![0; 3], vec![0; 3]).is_err());
        // Padding bit set past the slot count.
        assert!(BitPlanes::from_words(1, 10, vec![1 << 10], vec![0]).is_err());
        // Value bit without its occupancy bit.
        assert!(BitPlanes::from_words(1, 10, vec![0b01], vec![0b10]).is_err());
        // Zero planes.
        assert!(BitPlanes::from_words(0, 10, vec![], vec![]).is_err());
        // One slot occupied on two planes: it would be tallied twice.
        assert_eq!(
            BitPlanes::from_words(3, 10, vec![0b01, 0b10, 0b01], vec![0; 3]),
            Err("slot occupied on more than one plane")
        );
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn double_report_on_one_slot_is_rejected() {
        let mut planes = BitPlanes::new(2, 4);
        planes.record(1, 0, true);
        planes.record(1, 0, false);
    }
}
