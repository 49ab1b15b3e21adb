//! The four-round secure-aggregation protocol, simulated with explicit
//! dropout phases.
//!
//! Round structure (after Bonawitz et al., CCS 2017):
//!
//! 1. **Advertise keys** — every client joins; pairwise seeds `s_ij` are
//!    agreed (simulated by public derivation from the session seed in place
//!    of Diffie–Hellman; see crate docs).
//! 2. **Share keys** — every client draws a private self-mask seed `b_i`
//!    and Shamir-shares both `b_i` and its key material among all clients
//!    with threshold `k`.
//! 3. **Masked input** — surviving clients send
//!    `y_i = x_i + PRG(b_i) ± Σ PRG(s_ij)`.
//! 4. **Unmask** — surviving clients reveal, for each client that *sent an
//!    input*, shares of `b_i` (to strip self masks), and for each client
//!    that *dropped before sending*, shares of its key material (to strip
//!    the orphaned pairwise masks other clients added for it). The server
//!    never holds both kinds of share for the same client.
//!
//! The server's output is exactly `Σ_{i ∈ U2} x_i (mod 2^61 − 1)` — it sees
//! sums, never individual inputs, matching the primitive the paper's
//! Section 3.3 builds on.

use std::collections::BTreeSet;
use std::ops::Range;

use fednum_core::bits::BitPlanes;
use rand::Rng;

use crate::field::{Fe, MODULUS};
use crate::masking::{accumulate_mask, add_assign, RingWindow};
use crate::prg::{pairwise_seed, self_seed};
use crate::shamir::{share, Share, WeightCache};

/// Protocol parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecAggConfig {
    /// Number of clients enrolled in round 1.
    pub n: usize,
    /// Shamir reconstruction threshold `k` (also the minimum number of
    /// unmask-round survivors).
    pub threshold: usize,
    /// Length of each client's input vector.
    pub vector_len: usize,
    /// Session seed (key-agreement transcript stand-in).
    pub session_seed: u64,
    /// Pairwise-mask graph degree: each client exchanges masks with this
    /// many ring neighbors (Bell et al., CCS 2020), making the protocol
    /// `O(n·k)`. `None` uses the complete graph of the original Bonawitz
    /// construction.
    pub neighbors: Option<usize>,
}

impl SecAggConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    /// Panics unless `1 <= threshold <= n` and `vector_len > 0`.
    #[must_use]
    pub fn new(n: usize, threshold: usize, vector_len: usize, session_seed: u64) -> Self {
        assert!(n >= 1, "need at least one client");
        assert!(
            threshold >= 1 && threshold <= n,
            "threshold must be in 1..=n"
        );
        assert!(vector_len > 0, "vector_len must be positive");
        Self {
            n,
            threshold,
            vector_len,
            session_seed,
            neighbors: None,
        }
    }

    /// Switches to a `degree`-regular ring-neighbor mask graph.
    ///
    /// # Panics
    /// Panics if `degree == 0`.
    #[must_use]
    pub fn with_neighbors(mut self, degree: usize) -> Self {
        assert!(degree >= 1, "neighbor degree must be >= 1");
        self.neighbors = Some(degree);
        self
    }

    /// The effective mask-graph degree (complete graph when unset).
    fn degree(&self) -> usize {
        self.neighbors.unwrap_or(self.n.saturating_sub(1)).max(1)
    }

    /// Client `i`'s share holders — its mask-graph neighbors plus itself, as
    /// the ascending [`RingWindow`] of the configured degree — and its
    /// per-client reconstruction threshold: the global threshold on the
    /// complete graph, a majority of the neighborhood on the sparse graph.
    ///
    /// Both the share-level protocol and the plane-level fast path derive
    /// their recovery feasibility from this one function, so the two can
    /// never disagree about which dropout patterns are recoverable. It is
    /// O(1) and allocates nothing.
    ///
    /// # Panics
    /// Panics if `i >= n`.
    #[must_use]
    pub fn mask_holders(&self, i: usize) -> (RingWindow, usize) {
        let window = RingWindow::new(i, self.n, self.degree());
        let k = if self.neighbors.is_none() {
            self.threshold.min(window.size())
        } else {
            window.size().div_ceil(2)
        };
        (window, k)
    }
}

/// Which clients drop out, and when.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DropoutPlan {
    /// Clients that complete key sharing but never send a masked input
    /// (their orphaned pairwise masks must be reconstructed).
    pub before_masking: BTreeSet<usize>,
    /// Clients that send a masked input but are unavailable for the unmask
    /// round (their input still counts; they just can't reveal shares).
    pub after_masking: BTreeSet<usize>,
}

impl DropoutPlan {
    /// No dropouts.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }
}

/// Protocol failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SecAggError {
    /// Fewer unmask-round survivors than the reconstruction threshold.
    TooFewSurvivors {
        /// Clients alive in the unmask round.
        survivors: usize,
        /// Required threshold.
        threshold: usize,
    },
    /// An input vector had the wrong length.
    InputLengthMismatch {
        /// Offending client.
        client: usize,
        /// Its vector length.
        got: usize,
        /// Expected length.
        expected: usize,
    },
    /// An input value was too large for exact field aggregation.
    InputTooLarge {
        /// Offending client.
        client: usize,
    },
    /// A client appears in both dropout phases.
    InconsistentDropouts {
        /// Offending client.
        client: usize,
    },
    /// The number of input vectors differs from the configured cohort size.
    WrongClientCount {
        /// Vectors supplied.
        got: usize,
        /// Configured cohort size.
        expected: usize,
    },
}

impl std::fmt::Display for SecAggError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SecAggError::TooFewSurvivors {
                survivors,
                threshold,
            } => write!(
                f,
                "only {survivors} unmask-round survivors, below threshold {threshold}"
            ),
            SecAggError::InputLengthMismatch {
                client,
                got,
                expected,
            } => write!(
                f,
                "client {client} sent a vector of length {got}, expected {expected}"
            ),
            SecAggError::InputTooLarge { client } => {
                write!(f, "client {client} input exceeds the field modulus")
            }
            SecAggError::InconsistentDropouts { client } => {
                write!(f, "client {client} listed in both dropout phases")
            }
            SecAggError::WrongClientCount { got, expected } => {
                write!(f, "{got} input vectors for a cohort of {expected}")
            }
        }
    }
}

impl std::error::Error for SecAggError {}

/// Successful aggregation result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecAggOutcome {
    /// The exact component-wise sum of the contributing clients' inputs.
    pub sum: Vec<u64>,
    /// Clients whose inputs are included (those that sent masked input).
    pub contributors: Vec<usize>,
    /// Self-mask seeds the server reconstructed (one per contributor).
    pub self_masks_reconstructed: usize,
    /// Dropped clients whose pairwise masks had to be reconstructed.
    pub pairwise_masks_reconstructed: usize,
}

/// Secret material one client Shamir-shares — the self-mask seed and the
/// key seed, each split into two ≤32-bit field elements so a full u64
/// survives the 61-bit field. Shares go to the `window`'s holders in
/// ascending order (the client itself plus its mask-graph neighbors; the
/// whole cohort on the complete graph), with per-client threshold `k`.
struct SharedSecrets {
    window: RingWindow,
    k: usize,
    b_lo: Vec<Share>,
    b_hi: Vec<Share>,
    key_lo: Vec<Share>,
    key_hi: Vec<Share>,
}

fn share_u64(v: u64, k: usize, n: usize, rng: &mut dyn Rng) -> (Vec<Share>, Vec<Share>) {
    let lo = Fe::new(v & 0xFFFF_FFFF);
    let hi = Fe::new(v >> 32);
    (share(lo, k, n, rng), share(hi, k, n, rng))
}

impl SharedSecrets {
    /// Picks `self.k` shares of the given field (share `idx` belongs to the
    /// window's `idx`-th holder) whose holders survive per the `alive` mask,
    /// or reports how many were available. The mask is indexed by client
    /// id: this test runs for every holder of every contributor, so it must
    /// stay O(1) per lookup.
    fn surviving(&self, shares: &[Share], alive: &[bool]) -> Result<Vec<Share>, usize> {
        let picked: Vec<Share> = (self.window.holders().zip(shares))
            .filter(|&(h, _)| alive[h])
            .map(|(_, &share)| share)
            .take(self.k)
            .collect();
        if picked.len() < self.k {
            Err(picked.len())
        } else {
            Ok(picked)
        }
    }
}

/// Runs the full protocol.
///
/// `inputs[i]` is client `i`'s private vector. Clients listed in
/// `plan.before_masking` never send their input (it is excluded from the
/// sum); clients in `plan.after_masking` contribute input but not shares.
///
/// # Errors
/// See [`SecAggError`].
pub fn run_secure_aggregation(
    config: &SecAggConfig,
    inputs: &[Vec<u64>],
    plan: &DropoutPlan,
    rng: &mut dyn Rng,
) -> Result<SecAggOutcome, SecAggError> {
    if inputs.len() != config.n {
        return Err(SecAggError::WrongClientCount {
            got: inputs.len(),
            expected: config.n,
        });
    }
    for client in &plan.before_masking {
        if plan.after_masking.contains(client) {
            return Err(SecAggError::InconsistentDropouts { client: *client });
        }
    }
    for (i, v) in inputs.iter().enumerate() {
        if v.len() != config.vector_len {
            return Err(SecAggError::InputLengthMismatch {
                client: i,
                got: v.len(),
                expected: config.vector_len,
            });
        }
        if v.iter().any(|&x| x >= MODULUS) {
            return Err(SecAggError::InputTooLarge { client: i });
        }
    }

    let session = config.session_seed;

    // Rounds 1–2: every client draws secret material and Shamir-shares it
    // among itself plus its mask-graph neighbors (the whole cohort on the
    // complete graph — the original Bonawitz construction; the neighborhood
    // variant is Bell et al.'s O(n·k) refinement). In this simulation the
    // self seeds follow the deterministic derivation used by
    // `client_mask_ring`; the key seed gates pairwise-mask recovery.
    let secrets: Vec<SharedSecrets> = (0..config.n)
        .map(|i| {
            let (window, k) = config.mask_holders(i);
            let b = self_seed(session, i as u64);
            let key = key_seed(session, i as u64);
            let (b_lo, b_hi) = share_u64(b, k, window.size(), rng);
            let (key_lo, key_hi) = share_u64(key, k, window.size(), rng);
            SharedSecrets {
                window,
                k,
                b_lo,
                b_hi,
                key_lo,
                key_hi,
            }
        })
        .collect();

    // Round 3: surviving clients send masked inputs.
    let u2: Vec<usize> = (0..config.n)
        .filter(|i| !plan.before_masking.contains(i))
        .collect();
    let mut total = vec![Fe::ZERO; config.vector_len];
    let mut y = vec![Fe::ZERO; config.vector_len];
    for &i in &u2 {
        for (slot, &x) in y.iter_mut().zip(&inputs[i]) {
            *slot = Fe::new(x);
        }
        // The client's full mask, streamed straight into its input vector —
        // identical math to `client_mask_ring`, minus the per-client
        // allocations (this loop runs once per client per round).
        accumulate_mask(&mut y, self_seed(session, i as u64), false);
        for j in secrets[i].window.neighbors() {
            accumulate_mask(&mut y, pairwise_seed(session, i as u64, j as u64), i > j);
        }
        add_assign(&mut total, &y, false);
    }

    // Round 4: unmasking with the surviving clients' shares.
    let u3: Vec<usize> = u2
        .iter()
        .copied()
        .filter(|i| !plan.after_masking.contains(i))
        .collect();
    if u3.len() < config.threshold {
        return Err(SecAggError::TooFewSurvivors {
            survivors: u3.len(),
            threshold: config.threshold,
        });
    }
    // Membership as a bitmask (not a tree set): `surviving` probes it once
    // per holder of every contributor. The weight cache makes the repeated
    // reconstructions cheap — absent dropouts, every contributor's share
    // points coincide, so the Lagrange weights are computed once.
    let mut alive = vec![false; config.n];
    for &i in &u3 {
        alive[i] = true;
    }
    let mut cache = WeightCache::new();
    let reconstruct_secret = |cache: &mut WeightCache,
                              s: &SharedSecrets,
                              lo: &[Share],
                              hi: &[Share]|
     -> Result<u64, SecAggError> {
        let too_few = |got| SecAggError::TooFewSurvivors {
            survivors: got,
            threshold: s.k,
        };
        let lo = s.surviving(lo, &alive).map_err(too_few)?;
        let hi = s.surviving(hi, &alive).map_err(too_few)?;
        Ok((cache.reconstruct(&hi).value() << 32) | cache.reconstruct(&lo).value())
    };

    // Strip self masks of every contributor (reconstruct b_i from the
    // surviving share holders — never requested for non-contributors, whose
    // key material is reconstructed instead).
    let mut self_masks = 0;
    for &i in &u2 {
        let s = &secrets[i];
        let b = reconstruct_secret(&mut cache, s, &s.b_lo, &s.b_hi)?;
        debug_assert_eq!(b, self_seed(session, i as u64));
        accumulate_mask(&mut total, b, true);
        self_masks += 1;
    }

    // Strip orphaned pairwise masks of clients that dropped before sending:
    // every contributing *neighbor* i of d added ±PRG(s_id); reconstruct d's
    // key material and cancel those terms.
    let mut contributed = vec![false; config.n];
    for &i in &u2 {
        contributed[i] = true;
    }
    let mut pairwise_masks = 0;
    for &d in &plan.before_masking {
        let s = &secrets[d];
        let key = reconstruct_secret(&mut cache, s, &s.key_lo, &s.key_hi)?;
        // The reconstructed key authorizes recomputing d's pairwise seeds.
        debug_assert_eq!(key, key_seed(session, d as u64));
        for i in s.window.neighbors() {
            if !contributed[i] {
                continue; // that neighbor never sent a mask either
            }
            let seed = pairwise_seed(session, i as u64, d as u64);
            // Contributor i added +PRG if i < d, −PRG if i > d; subtract it.
            accumulate_mask(&mut total, seed, i < d);
        }
        pairwise_masks += 1;
    }

    Ok(SecAggOutcome {
        sum: total.iter().map(|fe| fe.value()).collect(),
        contributors: u2,
        self_masks_reconstructed: self_masks,
        pairwise_masks_reconstructed: pairwise_masks,
    })
}

/// Runs the protocol over a packed [`BitPlanes`] cohort — the bit-plane
/// fast path for the bit-pushing one-hot shape.
///
/// Cohort slot `i` is client `i`; its input vector is the one-hot
/// `[ones | counts]` row the bit-pushing integration feeds the share-level
/// protocol (`v[bit] = reported bit`, `v[bits + bit] = 1`). Because the
/// server's output is *exactly* `Σ_{i ∈ U2} x_i` — every mask cancels in
/// the field — that sum equals a `count_ones()` tally of the planes
/// restricted to U2, 64 clients per instruction, with no share arithmetic
/// on the hot path.
///
/// What cannot be skipped is the protocol's failure surface: this entry
/// point replicates [`run_secure_aggregation`]'s validation order, its
/// survivor threshold, and the per-secret share-holder feasibility test
/// (via the shared [`SecAggConfig::mask_holders`]), so a dropout pattern
/// fails with the identical [`SecAggError`] on both paths. No RNG is taken:
/// the share polynomials it never materializes are the only randomness the
/// share-level protocol consumes.
///
/// Cost: U2 and U3 are slot bitmaps in the planes' word layout, and each
/// feasibility test popcounts the survivors bitmap over the client's
/// [`RingWindow`] (at most two ranges, `⌈k/64⌉ + 2` words), so the whole
/// check is `O(n·⌈k/64⌉)` word operations with no per-client allocation.
/// Beyond the outcome's contributor list, the only memory taken is the two
/// bitmaps.
///
/// # Errors
/// See [`SecAggError`]; errors match the share-level path case for case.
pub fn run_secure_aggregation_planes(
    config: &SecAggConfig,
    planes: &BitPlanes,
    plan: &DropoutPlan,
) -> Result<SecAggOutcome, SecAggError> {
    if planes.slots() != config.n {
        return Err(SecAggError::WrongClientCount {
            got: planes.slots(),
            expected: config.n,
        });
    }
    for client in &plan.before_masking {
        if plan.after_masking.contains(client) {
            return Err(SecAggError::InconsistentDropouts { client: *client });
        }
    }
    let bits = planes.bits() as usize;
    if 2 * bits != config.vector_len {
        return Err(SecAggError::InputLengthMismatch {
            client: 0,
            got: 2 * bits,
            expected: config.vector_len,
        });
    }

    // U2 (`keep`: every slot but the pre-masking dropouts) and U3 (`alive`:
    // U2 minus the post-masking dropouts) as slot bitmaps. Dropouts outside
    // the cohort are ignored here, as the share-level path's filters do.
    let n = config.n;
    let mut keep = vec![!0u64; n.div_ceil(64)];
    if let Some(last) = keep.last_mut() {
        *last >>= 64 * n.div_ceil(64) - n;
    }
    let clear = |words: &mut [u64], slots: &BTreeSet<usize>| {
        for &i in slots.iter().filter(|&&i| i < n) {
            words[i / 64] &= !(1 << (i % 64));
        }
    };
    clear(&mut keep, &plan.before_masking);
    let mut alive = keep.clone();
    clear(&mut alive, &plan.after_masking);
    let u3_len = count_ones_in(&alive, 0..n);
    if u3_len < config.threshold {
        return Err(SecAggError::TooFewSurvivors {
            survivors: u3_len,
            threshold: config.threshold,
        });
    }

    // The share-level path reconstructs b_i for every contributor and key
    // material for every pre-masking dropout; each fails when fewer than k
    // of that client's share holders survive. Same holders, same iteration
    // order, same error values — without touching a share.
    let feasible = |i: usize| -> Result<(), SecAggError> {
        let (window, k) = config.mask_holders(i);
        let survivors = (window.ranges().into_iter())
            .map(|r| count_ones_in(&alive, r))
            .sum();
        if survivors < k {
            return Err(SecAggError::TooFewSurvivors {
                survivors,
                threshold: k,
            });
        }
        Ok(())
    };
    let u2: Vec<usize> = (0..n)
        .filter(|&i| (keep[i / 64] >> (i % 64)) & 1 == 1)
        .collect();
    for &i in &u2 {
        feasible(i)?;
    }
    for &d in &plan.before_masking {
        feasible(d)?;
    }

    let mut sum = planes.ones_masked(&keep);
    sum.extend(planes.counts_masked(&keep));
    Ok(SecAggOutcome {
        sum,
        self_masks_reconstructed: u2.len(),
        pairwise_masks_reconstructed: plan.before_masking.len(),
        contributors: u2,
    })
}

/// Number of set bits at positions `r` of a slot bitmap (bit `i % 64` of
/// word `i / 64`, the [`BitPlanes`] layout).
fn count_ones_in(words: &[u64], r: Range<usize>) -> usize {
    if r.is_empty() {
        return 0;
    }
    let (first, last) = (r.start / 64, (r.end - 1) / 64);
    let head = !0u64 << (r.start % 64);
    let tail = !0u64 >> (63 - (r.end - 1) % 64);
    if first == last {
        return (words[first] & head & tail).count_ones() as usize;
    }
    let inner: u32 = words[first + 1..last].iter().map(|w| w.count_ones()).sum();
    ((words[first] & head).count_ones() + inner + (words[last] & tail).count_ones()) as usize
}

/// The key-material seed a client Shamir-shares for dropout recovery
/// (stands in for its Diffie–Hellman private key).
#[must_use]
fn key_seed(session: u64, client: u64) -> u64 {
    // Domain-separated from both self and pairwise seeds.
    self_seed(session ^ 0xABCD_EF01_2345_6789, client)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn inputs(n: usize, len: usize) -> Vec<Vec<u64>> {
        (0..n)
            .map(|i| (0..len).map(|j| ((i * 31 + j * 7) % 100) as u64).collect())
            .collect()
    }

    fn expected_sum(inputs: &[Vec<u64>], include: impl Fn(usize) -> bool) -> Vec<u64> {
        let len = inputs[0].len();
        let mut sum = vec![0u64; len];
        for (i, v) in inputs.iter().enumerate() {
            if include(i) {
                for (s, &x) in sum.iter_mut().zip(v) {
                    *s += x;
                }
            }
        }
        sum
    }

    #[test]
    fn exact_sum_no_dropouts() {
        let config = SecAggConfig::new(10, 6, 8, 42);
        let ins = inputs(10, 8);
        let mut rng = StdRng::seed_from_u64(1);
        let out = run_secure_aggregation(&config, &ins, &DropoutPlan::none(), &mut rng).unwrap();
        assert_eq!(out.sum, expected_sum(&ins, |_| true));
        assert_eq!(out.contributors.len(), 10);
        assert_eq!(out.self_masks_reconstructed, 10);
        assert_eq!(out.pairwise_masks_reconstructed, 0);
    }

    #[test]
    fn dropouts_before_masking_are_excluded_exactly() {
        let config = SecAggConfig::new(10, 5, 6, 7);
        let ins = inputs(10, 6);
        let plan = DropoutPlan {
            before_masking: [2usize, 7].into_iter().collect(),
            after_masking: BTreeSet::new(),
        };
        let mut rng = StdRng::seed_from_u64(2);
        let out = run_secure_aggregation(&config, &ins, &plan, &mut rng).unwrap();
        assert_eq!(out.sum, expected_sum(&ins, |i| i != 2 && i != 7));
        assert_eq!(out.contributors.len(), 8);
        assert_eq!(out.pairwise_masks_reconstructed, 2);
    }

    #[test]
    fn dropouts_after_masking_still_counted() {
        let config = SecAggConfig::new(10, 5, 4, 9);
        let ins = inputs(10, 4);
        let plan = DropoutPlan {
            before_masking: BTreeSet::new(),
            after_masking: [0usize, 3, 9].into_iter().collect(),
        };
        let mut rng = StdRng::seed_from_u64(3);
        let out = run_secure_aggregation(&config, &ins, &plan, &mut rng).unwrap();
        // Inputs of the late droppers are included.
        assert_eq!(out.sum, expected_sum(&ins, |_| true));
    }

    #[test]
    fn mixed_dropout_phases() {
        let config = SecAggConfig::new(12, 6, 5, 11);
        let ins = inputs(12, 5);
        let plan = DropoutPlan {
            before_masking: [1usize, 4].into_iter().collect(),
            after_masking: [0usize, 6, 8].into_iter().collect(),
        };
        let mut rng = StdRng::seed_from_u64(4);
        let out = run_secure_aggregation(&config, &ins, &plan, &mut rng).unwrap();
        assert_eq!(out.sum, expected_sum(&ins, |i| i != 1 && i != 4));
    }

    #[test]
    fn below_threshold_fails_closed() {
        let config = SecAggConfig::new(6, 5, 3, 1);
        let ins = inputs(6, 3);
        let plan = DropoutPlan {
            before_masking: [0usize].into_iter().collect(),
            after_masking: [1usize].into_iter().collect(),
        };
        // Survivors: 4 < threshold 5.
        let mut rng = StdRng::seed_from_u64(5);
        let err = run_secure_aggregation(&config, &ins, &plan, &mut rng).unwrap_err();
        assert_eq!(
            err,
            SecAggError::TooFewSurvivors {
                survivors: 4,
                threshold: 5
            }
        );
    }

    #[test]
    fn wrong_vector_length_rejected() {
        let config = SecAggConfig::new(3, 2, 4, 1);
        let mut ins = inputs(3, 4);
        ins[1].pop();
        let mut rng = StdRng::seed_from_u64(6);
        let err =
            run_secure_aggregation(&config, &ins, &DropoutPlan::none(), &mut rng).unwrap_err();
        assert!(matches!(
            err,
            SecAggError::InputLengthMismatch { client: 1, .. }
        ));
    }

    #[test]
    fn oversized_input_rejected() {
        let config = SecAggConfig::new(2, 1, 1, 1);
        let ins = vec![vec![MODULUS], vec![0]];
        let mut rng = StdRng::seed_from_u64(7);
        let err =
            run_secure_aggregation(&config, &ins, &DropoutPlan::none(), &mut rng).unwrap_err();
        assert_eq!(err, SecAggError::InputTooLarge { client: 0 });
    }

    #[test]
    fn wrong_client_count_rejected() {
        let config = SecAggConfig::new(4, 2, 2, 1);
        let ins = inputs(3, 2);
        let mut rng = StdRng::seed_from_u64(10);
        let err =
            run_secure_aggregation(&config, &ins, &DropoutPlan::none(), &mut rng).unwrap_err();
        assert_eq!(
            err,
            SecAggError::WrongClientCount {
                got: 3,
                expected: 4
            }
        );
        assert!(err.to_string().contains("cohort of 4"));
    }

    #[test]
    fn inconsistent_dropout_plan_rejected() {
        let config = SecAggConfig::new(3, 1, 1, 1);
        let ins = inputs(3, 1);
        let plan = DropoutPlan {
            before_masking: [1usize].into_iter().collect(),
            after_masking: [1usize].into_iter().collect(),
        };
        let mut rng = StdRng::seed_from_u64(8);
        let err = run_secure_aggregation(&config, &ins, &plan, &mut rng).unwrap_err();
        assert_eq!(err, SecAggError::InconsistentDropouts { client: 1 });
    }

    #[test]
    fn bit_histogram_shape_round_trip() {
        // The bit-pushing integration shape: one-hot [ones | counts] rows.
        let bits = 8;
        let n = 50;
        let config = SecAggConfig::new(n, 30, 2 * bits, 99);
        let mut rng = StdRng::seed_from_u64(9);
        let mut ins = Vec::new();
        for i in 0..n {
            let j = i % bits; // assigned bit
            let bit_val = u64::from(i % 3 == 0);
            let mut v = vec![0u64; 2 * bits];
            v[j] = bit_val;
            v[bits + j] = 1;
            ins.push(v);
        }
        let out = run_secure_aggregation(&config, &ins, &DropoutPlan::none(), &mut rng).unwrap();
        // Counts per bit must sum to n.
        let total_counts: u64 = out.sum[bits..].iter().sum();
        assert_eq!(total_counts, n as u64);
        // Ones never exceed counts.
        for j in 0..bits {
            assert!(out.sum[j] <= out.sum[bits + j]);
        }
    }

    #[test]
    fn single_client_degenerate_case() {
        let config = SecAggConfig::new(1, 1, 2, 5);
        let ins = vec![vec![17, 3]];
        let mut rng = StdRng::seed_from_u64(10);
        let out = run_secure_aggregation(&config, &ins, &DropoutPlan::none(), &mut rng).unwrap();
        assert_eq!(out.sum, vec![17, 3]);
    }

    #[test]
    fn ring_graph_matches_complete_graph_sums() {
        let n = 40;
        let ins = inputs(n, 5);
        let full = SecAggConfig::new(n, 20, 5, 3);
        let ring = SecAggConfig::new(n, 20, 5, 3).with_neighbors(6);
        let plan = DropoutPlan {
            before_masking: [2usize, 19, 33].into_iter().collect(),
            after_masking: [7usize].into_iter().collect(),
        };
        let a = run_secure_aggregation(&full, &ins, &plan, &mut StdRng::seed_from_u64(1)).unwrap();
        let b = run_secure_aggregation(&ring, &ins, &plan, &mut StdRng::seed_from_u64(2)).unwrap();
        assert_eq!(a.sum, b.sum, "mask graph must not change the sum");
    }

    #[test]
    fn ring_graph_scales_to_large_cohorts() {
        // The whole point of the sparse graph: 5000 clients in well under a
        // second, which the complete graph cannot do.
        let n = 5000;
        let len = 4;
        let ins: Vec<Vec<u64>> = (0..n).map(|i| vec![(i % 7) as u64; len]).collect();
        let config = SecAggConfig::new(n, 2500, len, 9).with_neighbors(20);
        let plan = DropoutPlan {
            before_masking: (0..50).map(|i| i * 11).collect(),
            after_masking: BTreeSet::new(),
        };
        let mut rng = StdRng::seed_from_u64(4);
        let start = std::time::Instant::now();
        let out = run_secure_aggregation(&config, &ins, &plan, &mut rng).unwrap();
        assert!(
            start.elapsed().as_secs() < 30,
            "ring secagg too slow: {:?}",
            start.elapsed()
        );
        let expected = expected_sum(&ins, |i| !(0..50).map(|x| x * 11).any(|d| d == i));
        assert_eq!(out.sum, expected);
        assert_eq!(out.pairwise_masks_reconstructed, 50);
    }

    #[test]
    fn adjacent_dropouts_on_the_ring_are_handled() {
        // Two dropped clients that are each other's neighbors: neither added
        // a mask, so nothing must be subtracted for their mutual edge. With
        // degree 4 each dropped client still has a surviving majority of
        // share holders.
        let n = 10;
        let ins = inputs(n, 3);
        let config = SecAggConfig::new(n, 4, 3, 21).with_neighbors(4);
        let plan = DropoutPlan {
            before_masking: [4usize, 5].into_iter().collect(),
            after_masking: BTreeSet::new(),
        };
        let mut rng = StdRng::seed_from_u64(5);
        let out = run_secure_aggregation(&config, &ins, &plan, &mut rng).unwrap();
        assert_eq!(out.sum, expected_sum(&ins, |i| i != 4 && i != 5));
    }

    #[test]
    fn too_sparse_graph_fails_closed_on_adjacent_dropouts() {
        // Degree 2: a dropped client whose only surviving holder is one
        // neighbor cannot have its key reconstructed — the protocol must
        // error rather than output a wrong sum.
        let n = 10;
        let ins = inputs(n, 3);
        let config = SecAggConfig::new(n, 4, 3, 21).with_neighbors(2);
        let plan = DropoutPlan {
            before_masking: [4usize, 5].into_iter().collect(),
            after_masking: BTreeSet::new(),
        };
        let mut rng = StdRng::seed_from_u64(5);
        let err = run_secure_aggregation(&config, &ins, &plan, &mut rng).unwrap_err();
        assert!(matches!(err, SecAggError::TooFewSurvivors { .. }));
    }

    #[test]
    fn error_messages_are_informative() {
        let e = SecAggError::TooFewSurvivors {
            survivors: 2,
            threshold: 5,
        };
        assert!(e.to_string().contains("below threshold 5"));
    }

    /// A bit-pushing cohort in both representations: the one-hot
    /// `[ones | counts]` input vectors and the equivalent packed planes.
    fn one_hot_cohort(n: usize, bits: usize, salt: u64) -> (Vec<Vec<u64>>, BitPlanes) {
        let mut ins = Vec::with_capacity(n);
        let mut planes = BitPlanes::new(bits as u32, n);
        for i in 0..n {
            let h = (i as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let j = (h % bits as u64) as usize;
            let sent = h & (1 << 33) != 0;
            let mut v = vec![0u64; 2 * bits];
            v[j] = u64::from(sent);
            v[bits + j] = 1;
            ins.push(v);
            planes.record(i, j as u32, sent);
        }
        (ins, planes)
    }

    #[test]
    fn plane_path_matches_share_path_exactly() {
        let (n, bits) = (60, 8);
        let (ins, planes) = one_hot_cohort(n, bits, 17);
        for (plan, neighbors) in [
            (DropoutPlan::none(), None),
            (
                DropoutPlan {
                    before_masking: [3usize, 41, 59].into_iter().collect(),
                    after_masking: [7usize, 20].into_iter().collect(),
                },
                None,
            ),
            (
                DropoutPlan {
                    before_masking: [0usize, 30].into_iter().collect(),
                    after_masking: [1usize].into_iter().collect(),
                },
                Some(8),
            ),
        ] {
            let mut config = SecAggConfig::new(n, 30, 2 * bits, 99);
            if let Some(d) = neighbors {
                config = config.with_neighbors(d);
            }
            let mut rng = StdRng::seed_from_u64(11);
            let shares = run_secure_aggregation(&config, &ins, &plan, &mut rng).unwrap();
            let planes_out = run_secure_aggregation_planes(&config, &planes, &plan).unwrap();
            assert_eq!(planes_out, shares, "plan {plan:?} neighbors {neighbors:?}");
        }
    }

    #[test]
    fn plane_path_matches_share_path_on_every_small_plan() {
        // Exhaustive over small cohorts: every degree from 1 past the
        // complete-graph cut plus the complete graph itself, and every plan
        // with at most two pre-masking and one post-masking dropout (slots
        // 0 and n − 1 at the ring's wrap-around, and inconsistent plans,
        // included). Both paths must agree on the sum or on the error.
        let bits = 2;
        for n in 1..=12usize {
            let (ins, planes) = one_hot_cohort(n, bits, n as u64);
            let before: Vec<Vec<usize>> = std::iter::once(vec![])
                .chain((0..n).map(|a| vec![a]))
                .chain((0..n).flat_map(|a| (a + 1..n).map(move |b| vec![a, b])))
                .collect();
            let after: Vec<Vec<usize>> = std::iter::once(vec![])
                .chain((0..n).map(|a| vec![a]))
                .collect();
            for degree in std::iter::once(None).chain((1..=n + 1).map(Some)) {
                let mut config = SecAggConfig::new(n, n.div_ceil(2), 2 * bits, 0x5EED ^ n as u64);
                config.neighbors = degree;
                for b in &before {
                    for a in &after {
                        let plan = DropoutPlan {
                            before_masking: b.iter().copied().collect(),
                            after_masking: a.iter().copied().collect(),
                        };
                        let mut rng = StdRng::seed_from_u64(3);
                        let shares = run_secure_aggregation(&config, &ins, &plan, &mut rng);
                        let planes_out = run_secure_aggregation_planes(&config, &planes, &plan);
                        assert_eq!(planes_out, shares, "n={n} degree={degree:?} plan={plan:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn plane_path_replicates_error_surface() {
        let (n, bits) = (10, 4);
        let (ins, planes) = one_hot_cohort(n, bits, 5);
        let config = SecAggConfig::new(n, 8, 2 * bits, 7);
        let check = |plan: &DropoutPlan, cfg: &SecAggConfig, planes: &BitPlanes| {
            let mut rng = StdRng::seed_from_u64(1);
            let share_err = run_secure_aggregation(cfg, &ins, plan, &mut rng).unwrap_err();
            let plane_err = run_secure_aggregation_planes(cfg, planes, plan).unwrap_err();
            assert_eq!(plane_err, share_err);
        };
        // Below the global survivor threshold.
        check(
            &DropoutPlan {
                before_masking: [0usize, 1].into_iter().collect(),
                after_masking: [2usize].into_iter().collect(),
            },
            &config,
            &planes,
        );
        // Inconsistent dropout phases.
        check(
            &DropoutPlan {
                before_masking: [3usize].into_iter().collect(),
                after_masking: [3usize].into_iter().collect(),
            },
            &config,
            &planes,
        );
        // Adjacent dropouts on a too-sparse ring: per-secret infeasibility.
        let sparse_n = 10;
        let (sparse_ins, sparse_planes) = one_hot_cohort(sparse_n, bits, 9);
        let sparse = SecAggConfig::new(sparse_n, 4, 2 * bits, 21).with_neighbors(2);
        let plan = DropoutPlan {
            before_masking: [4usize, 5].into_iter().collect(),
            after_masking: BTreeSet::new(),
        };
        let mut rng = StdRng::seed_from_u64(5);
        let share_err = run_secure_aggregation(&sparse, &sparse_ins, &plan, &mut rng).unwrap_err();
        let plane_err = run_secure_aggregation_planes(&sparse, &sparse_planes, &plan).unwrap_err();
        assert_eq!(plane_err, share_err);
        // Cohort-size mismatch.
        let small = BitPlanes::new(bits as u32, n - 1);
        assert_eq!(
            run_secure_aggregation_planes(&config, &small, &DropoutPlan::none()).unwrap_err(),
            SecAggError::WrongClientCount {
                got: n - 1,
                expected: n
            }
        );
        // Plane width incompatible with the configured vector length.
        let wide = BitPlanes::new(bits as u32 + 1, n);
        assert!(matches!(
            run_secure_aggregation_planes(&config, &wide, &DropoutPlan::none()).unwrap_err(),
            SecAggError::InputLengthMismatch { client: 0, .. }
        ));
    }
}
