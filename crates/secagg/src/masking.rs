//! Mask construction and cancellation.
//!
//! Client `i`'s masked input is
//!
//! ```text
//! y_i = x_i + PRG(b_i) + Σ_{j > i} PRG(s_ij) − Σ_{j < i} PRG(s_ij)   (mod p)
//! ```
//!
//! where `b_i` is a private self-mask seed and `s_ij` the seed shared by the
//! pair `(i, j)`. Summed over any set of clients, the pairwise terms of
//! every *surviving* pair cancel exactly; self masks and orphaned pairwise
//! terms are later removed with seeds reconstructed from Shamir shares.

use std::ops::Range;

use crate::field::Fe;
use crate::prg::{pairwise_seed, self_seed, MaskStream};

/// Streams `PRG(seed)` directly into an accumulator — adding, or
/// subtracting when `negate` — without materialising the mask vector.
/// The hot loops (one call per client per mask-graph edge) use this to
/// stay allocation-free; it is element-for-element identical to
/// `add_assign(acc, &mask_from_seed(seed, acc.len()), negate)`.
pub fn accumulate_mask(acc: &mut [Fe], seed: u64, negate: bool) {
    let mut stream = MaskStream::new(seed);
    for a in acc.iter_mut() {
        let m = stream.next_fe();
        if negate {
            *a -= m;
        } else {
            *a += m;
        }
    }
}

/// Expands a seed into a mask vector.
#[must_use]
pub fn mask_from_seed(seed: u64, len: usize) -> Vec<Fe> {
    MaskStream::new(seed).expand(len)
}

/// The full mask client `i` adds to its input, given the set of clients it
/// believes are participating.
///
/// # Panics
/// Panics if `i` is not in `participants`.
#[must_use]
pub fn client_mask(session: u64, i: u64, participants: &[u64], len: usize) -> Vec<Fe> {
    assert!(
        participants.contains(&i),
        "client {i} must be a participant"
    );
    let mut mask = mask_from_seed(self_seed(session, i), len);
    for &j in participants {
        if j == i {
            continue;
        }
        let pair = mask_from_seed(pairwise_seed(session, i, j), len);
        for (m, p) in mask.iter_mut().zip(&pair) {
            if i < j {
                *m += *p;
            } else {
                *m -= *p;
            }
        }
    }
    mask
}

/// Position `pos`'s closed neighborhood on the ring mask graph over `n`
/// id-sorted participants (Bell et al., CCS 2020 — pairwise masking over a
/// sparse graph makes the protocol `O(n·k)` instead of `O(n²)`): `pos`
/// itself plus the `max(k/2, 1)` positions on each side, or all `n`
/// positions once that window would reach round the ring (`k >= n − 1`,
/// the complete graph).
///
/// The window is at most two contiguous ranges of positions, both in
/// ascending order and the first below the second, so it is computed by
/// arithmetic in O(1), iterating it allocates nothing, and a bitmap over
/// the cohort's slots answers "how many of them are set" with `⌈k/64⌉ + 2`
/// popcounts. The relation is symmetric (`j ∈ N(i) ⇔ i ∈ N(j)`) because
/// distances on the ring are symmetric and every client uses the same `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingWindow {
    pos: usize,
    ranges: [(usize, usize); 2],
}

impl RingWindow {
    /// The window of degree `k` around position `pos` on a ring of `n`.
    ///
    /// # Panics
    /// Panics if `pos >= n`.
    #[must_use]
    pub fn new(pos: usize, n: usize, k: usize) -> Self {
        assert!(pos < n, "position {pos} is outside a ring of {n}");
        let half = (k / 2).max(1);
        let ranges = if k + 1 >= n || 2 * half + 1 >= n {
            [(0, n), (n, n)]
        } else if pos < half {
            // Wraps below position 0 onto the top of the ring.
            [(0, pos + half + 1), (n + pos - half, n)]
        } else if pos + half >= n {
            // Wraps past position n − 1 onto the bottom of the ring.
            [(0, pos + half + 1 - n), (pos - half, n)]
        } else {
            [(pos - half, pos + half + 1), (n, n)]
        };
        Self { pos, ranges }
    }

    /// The window's positions as two disjoint ascending ranges (the second
    /// may be empty), `pos` included.
    #[must_use]
    pub fn ranges(&self) -> [Range<usize>; 2] {
        self.ranges.map(|(start, end)| start..end)
    }

    /// Number of positions in the window, `pos` included: `2·max(k/2, 1) + 1`
    /// on the sparse ring, `n` on the complete graph.
    #[must_use]
    pub fn size(&self) -> usize {
        self.ranges.iter().map(|(start, end)| end - start).sum()
    }

    /// Every position in the window, `pos` included, ascending.
    pub fn holders(&self) -> impl Iterator<Item = usize> {
        let [first, second] = self.ranges();
        first.chain(second)
    }

    /// The window's positions other than `pos`, ascending: `pos`'s ring
    /// neighbors.
    pub fn neighbors(&self) -> impl Iterator<Item = usize> {
        let pos = self.pos;
        self.holders().filter(move |&p| p != pos)
    }
}

/// The ring-neighbor ids of client `i` among `participants` (sorted,
/// distinct, not necessarily contiguous), ascending: [`RingWindow`]'s
/// neighbors mapped through `participants`. `O(log n + k)`, and the one
/// allocation is the returned vector. When `k >= participants.len() - 1`
/// this is the complete graph.
///
/// # Panics
/// Panics if `i` is not in `participants` or `participants` is not sorted.
#[must_use]
pub fn ring_neighbors(i: u64, participants: &[u64], k: usize) -> Vec<u64> {
    // Sortedness is the caller's contract; checking it here would make
    // every call O(n) and the per-cohort total quadratic.
    debug_assert!(
        participants.windows(2).all(|w| w[0] < w[1]),
        "participants must be sorted and distinct"
    );
    let pos = participants
        .binary_search(&i)
        .unwrap_or_else(|_| panic!("client {i} must be a participant"));
    RingWindow::new(pos, participants.len(), k)
        .neighbors()
        .map(|p| participants[p])
        .collect()
}

/// The full mask of client `i` restricted to its ring neighbors:
/// `PRG(b_i) + Σ_{j ∈ N(i), j > i} PRG(s_ij) − Σ_{j ∈ N(i), j < i} PRG(s_ij)`.
///
/// # Panics
/// Panics if `i` is not a participant.
#[must_use]
pub fn client_mask_ring(
    session: u64,
    i: u64,
    participants: &[u64],
    k: usize,
    len: usize,
) -> Vec<Fe> {
    let mut mask = mask_from_seed(self_seed(session, i), len);
    for j in ring_neighbors(i, participants, k) {
        accumulate_mask(&mut mask, pairwise_seed(session, i, j), i > j);
    }
    mask
}

/// Adds a mask (or its negation) into an accumulator vector.
pub fn add_assign(acc: &mut [Fe], v: &[Fe], negate: bool) {
    assert_eq!(acc.len(), v.len(), "length mismatch");
    for (a, &x) in acc.iter_mut().zip(v) {
        if negate {
            *a -= x;
        } else {
            *a += x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairwise_masks_cancel_over_full_set() {
        let session = 99;
        let participants: Vec<u64> = (0..8).collect();
        let len = 5;
        let mut sum = vec![Fe::ZERO; len];
        for &i in &participants {
            let m = client_mask(session, i, &participants, len);
            add_assign(&mut sum, &m, false);
        }
        // What remains is exactly the sum of the self masks.
        let mut self_sum = vec![Fe::ZERO; len];
        for &i in &participants {
            add_assign(
                &mut self_sum,
                &mask_from_seed(self_seed(session, i), len),
                false,
            );
        }
        assert_eq!(sum, self_sum);
    }

    #[test]
    fn two_clients_cancel_exactly() {
        let session = 7;
        let parts = vec![3u64, 11];
        let len = 4;
        let a = client_mask(session, 3, &parts, len);
        let b = client_mask(session, 11, &parts, len);
        let mut sum = vec![Fe::ZERO; len];
        add_assign(&mut sum, &a, false);
        add_assign(&mut sum, &b, false);
        let mut selves = vec![Fe::ZERO; len];
        add_assign(
            &mut selves,
            &mask_from_seed(self_seed(session, 3), len),
            false,
        );
        add_assign(
            &mut selves,
            &mask_from_seed(self_seed(session, 11), len),
            false,
        );
        assert_eq!(sum, selves);
    }

    #[test]
    fn masks_are_deterministic_per_session() {
        let parts = vec![0u64, 1, 2];
        let a = client_mask(5, 1, &parts, 8);
        let b = client_mask(5, 1, &parts, 8);
        assert_eq!(a, b);
        let c = client_mask(6, 1, &parts, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn mask_hides_the_input() {
        // A single masked value is statistically unrelated to the input:
        // with different sessions the masked values spread over the field.
        let parts = vec![0u64, 1];
        let x = Fe::new(42);
        let mut distinct = std::collections::HashSet::new();
        for session in 0..50 {
            let m = client_mask(session, 0, &parts, 1);
            distinct.insert((x + m[0]).value());
        }
        assert_eq!(distinct.len(), 50);
    }

    #[test]
    #[should_panic(expected = "must be a participant")]
    fn nonparticipant_rejected() {
        let _ = client_mask(1, 9, &[0, 1], 4);
    }

    #[test]
    fn ring_neighbors_are_symmetric() {
        let participants: Vec<u64> = (0..20).collect();
        for k in [2usize, 4, 6, 10] {
            for &i in &participants {
                for j in ring_neighbors(i, &participants, k) {
                    let back = ring_neighbors(j, &participants, k);
                    assert!(back.contains(&i), "k={k}: {i} ∈ N({j}) but not vice versa");
                }
            }
        }
    }

    #[test]
    fn ring_neighbor_count() {
        let participants: Vec<u64> = (0..100).collect();
        let n = ring_neighbors(42, &participants, 8);
        assert_eq!(n.len(), 8);
        assert!(!n.contains(&42));
        // Large k degenerates to the complete graph.
        let all = ring_neighbors(42, &participants, 1000);
        assert_eq!(all.len(), 99);
    }

    #[test]
    fn ring_masks_cancel_over_full_set() {
        let session = 31;
        let participants: Vec<u64> = (0..12).collect();
        let len = 4;
        let k = 4;
        let mut sum = vec![Fe::ZERO; len];
        for &i in &participants {
            let m = client_mask_ring(session, i, &participants, k, len);
            add_assign(&mut sum, &m, false);
        }
        let mut selves = vec![Fe::ZERO; len];
        for &i in &participants {
            add_assign(
                &mut selves,
                &mask_from_seed(self_seed(session, i), len),
                false,
            );
        }
        assert_eq!(sum, selves, "pairwise ring masks must cancel");
    }

    #[test]
    fn ring_mask_with_large_k_matches_complete_graph() {
        let participants: Vec<u64> = (0..8).collect();
        let a = client_mask_ring(5, 3, &participants, 100, 6);
        let b = client_mask(5, 3, &participants, 6);
        assert_eq!(a, b);
    }

    #[test]
    fn ring_neighbors_match_a_ring_distance_reference() {
        // Every cohort size up to 40, every degree up to 45, every member,
        // over sorted but non-contiguous ids: the window arithmetic must
        // pick exactly the members within ring distance max(k/2, 1) (all
        // of them once k >= n − 1), ascending.
        for n in 1..=40usize {
            let ids: Vec<u64> = (0..n as u64).map(|p| 5 * p + p * p % 3 + 11).collect();
            for k in 0..=45usize {
                let half = (k / 2).max(1);
                for (pos, &i) in ids.iter().enumerate() {
                    let want: Vec<u64> = (0..n)
                        .filter(|&q| q != pos)
                        .filter(|&q| {
                            let gap = pos.abs_diff(q);
                            k + 1 >= n || gap.min(n - gap) <= half
                        })
                        .map(|q| ids[q])
                        .collect();
                    assert_eq!(ring_neighbors(i, &ids, k), want, "n={n} k={k} pos={pos}");
                    assert_eq!(RingWindow::new(pos, n, k).size(), want.len() + 1);
                }
            }
        }
    }

    #[test]
    fn two_participants_ring() {
        let participants = vec![4u64, 9];
        assert_eq!(ring_neighbors(4, &participants, 2), vec![9]);
        assert_eq!(ring_neighbors(9, &participants, 2), vec![4]);
    }
}
