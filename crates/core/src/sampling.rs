//! Bit-sampling probability vectors and client-to-bit assignment.
//!
//! The choice of `p_j` governs the estimator's variance (Section 3.1):
//!
//! * [`BitSampling::uniform`] — `p_j = 1/b`; suboptimal, included as the
//!   paper's strawman;
//! * [`BitSampling::geometric`] — `p_j ∝ (2^j)^γ`; `γ = 1` is the optimum
//!   under the worst-case bound `β_j = 4^j/4` (giving `p_j = 2^j/(2^b-1)`),
//!   `γ = 0.5` is the softer default the paper's experiments favour without
//!   DP;
//! * [`BitSampling::optimal`] — `p_j ∝ √β_j` from (estimated) bit means,
//!   the exact optimum of Lemma 3.3, used by round 2 of the adaptive
//!   protocol;
//! * [`BitSampling::custom`] — arbitrary nonnegative weights.
//!
//! Assignment of clients to bit indices is either **central/QMC** (the
//! server deterministically apportions `p_j · n` clients to bit `j` by
//! largest-remainder rounding and shuffles who-gets-what; the default, which
//! "reduces variance in the number of reports of each bit" and blunts
//! poisoning) or **local** (each client samples its own index from `p`).

use rand::seq::SliceRandom;
use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

use crate::bits::weight;

/// Who chooses which bit a client reports (Section 3.1, "Local vs. central
/// randomness").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AssignmentMode {
    /// Server-side quasi-Monte-Carlo apportionment (default).
    #[default]
    CentralQmc,
    /// Client-side multinomial sampling.
    Local,
}

/// A normalized bit-sampling probability vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BitSampling {
    probs: Vec<f64>,
}

impl BitSampling {
    /// Uniform probabilities `p_j = 1/b`.
    ///
    /// # Panics
    /// Panics if `bits == 0` or `bits > 52`.
    #[must_use]
    pub fn uniform(bits: u32) -> Self {
        Self::custom(vec![1.0; usize_bits(bits)])
    }

    /// Geometric probabilities `p_j ∝ 2^{γ j}`.
    ///
    /// `γ = 1` reproduces the paper's worst-case-optimal `p_j = 2^j/(2^b-1)`;
    /// `γ = 0.5` is the default first-round choice in Algorithm 2.
    ///
    /// # Panics
    /// Panics if `bits` is out of range or `gamma` is not finite.
    #[must_use]
    pub fn geometric(bits: u32, gamma: f64) -> Self {
        assert!(gamma.is_finite(), "gamma must be finite");
        let weights = (0..usize_bits(bits))
            .map(|j| weight(j as u32).powf(gamma))
            .collect();
        Self::custom(weights)
    }

    /// The variance-optimal probabilities of Lemma 3.3 for the given
    /// (possibly estimated) bit means: `p_j ∝ √(4^j m_j (1 - m_j))`.
    ///
    /// Returns `None` when every β is zero (all bit means are 0 or 1 — a
    /// constant or empty signal), in which case callers should fall back to
    /// a data-independent choice.
    #[must_use]
    pub fn optimal(bit_means: &[f64]) -> Option<Self> {
        let betas = crate::bits::beta_weights(bit_means);
        if betas.iter().all(|&b| b == 0.0) {
            return None;
        }
        Some(Self::custom(betas.iter().map(|b| b.sqrt()).collect()))
    }

    /// Like [`Self::optimal`] but with the exponent `α` of Algorithm 2
    /// applied to the whole β product: `p_j ∝ (4^j m_j (1 - m_j))^α`.
    /// `α = 0.5` recovers [`Self::optimal`].
    #[must_use]
    pub fn adaptive_weights(bit_means: &[f64], alpha: f64) -> Option<Self> {
        assert!(alpha.is_finite() && alpha > 0.0, "alpha must be > 0");
        let betas = crate::bits::beta_weights(bit_means);
        if betas.iter().all(|&b| b == 0.0) {
            return None;
        }
        Some(Self::custom(betas.iter().map(|b| b.powf(alpha)).collect()))
    }

    /// Normalizes arbitrary nonnegative weights into a probability vector.
    ///
    /// # Panics
    /// Panics if `weights` is empty, longer than 52, contains negatives /
    /// non-finite values, or sums to zero.
    #[must_use]
    pub fn custom(weights: Vec<f64>) -> Self {
        assert!(
            !weights.is_empty() && weights.len() <= 52,
            "need 1..=52 bit weights"
        );
        assert!(
            weights.iter().all(|&w| w.is_finite() && w >= 0.0),
            "weights must be nonnegative and finite"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        Self {
            probs: weights.iter().map(|w| w / total).collect(),
        }
    }

    /// The normalized probabilities, one per bit index.
    #[must_use]
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Number of bit indices.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.probs.len() as u32
    }

    /// Deterministic largest-remainder apportionment of `n` clients to bit
    /// indices: counts `c_j ≈ p_j · n` with `Σ c_j = n` exactly.
    #[must_use]
    pub fn apportion(&self, n: usize) -> Vec<usize> {
        let mut counts: Vec<usize> = Vec::with_capacity(self.probs.len());
        let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(self.probs.len());
        let mut assigned = 0usize;
        for (j, &p) in self.probs.iter().enumerate() {
            let exact = p * n as f64;
            let floor = exact.floor() as usize;
            counts.push(floor);
            assigned += floor;
            remainders.push((j, exact - floor as f64));
        }
        // Hand the leftover seats to the largest remainders (ties broken by
        // lower bit index for determinism).
        remainders.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite remainders")
                .then(a.0.cmp(&b.0))
        });
        let leftover = n - assigned;
        for &(j, _) in remainders.iter().take(leftover) {
            counts[j] += 1;
        }
        counts
    }

    /// Central QMC assignment: returns one bit index per client. Counts per
    /// bit are exactly [`Self::apportion`]; which client reports which bit is
    /// a uniform random matching.
    #[must_use]
    pub fn assign_qmc(&self, n: usize, rng: &mut dyn Rng) -> Vec<u32> {
        let counts = self.apportion(n);
        let mut assignment = Vec::with_capacity(n);
        for (j, &c) in counts.iter().enumerate() {
            assignment.extend(std::iter::repeat_n(j as u32, c));
        }
        assignment.shuffle(rng);
        assignment
    }

    /// Local assignment: each client independently samples its bit index
    /// from `p` (inverse-CDF).
    #[must_use]
    pub fn assign_local(&self, n: usize, rng: &mut dyn Rng) -> Vec<u32> {
        let mut cdf = Vec::with_capacity(self.probs.len());
        let mut acc = 0.0;
        for &p in &self.probs {
            acc += p;
            cdf.push(acc);
        }
        (0..n)
            .map(|_| {
                let u: f64 = rng.random();
                cdf.partition_point(|&c| c < u).min(self.probs.len() - 1) as u32
            })
            .collect()
    }

    /// Assignment under the configured mode.
    #[must_use]
    pub fn assign(&self, mode: AssignmentMode, n: usize, rng: &mut dyn Rng) -> Vec<u32> {
        match mode {
            AssignmentMode::CentralQmc => self.assign_qmc(n, rng),
            AssignmentMode::Local => self.assign_local(n, rng),
        }
    }
}

fn usize_bits(bits: u32) -> usize {
    assert!((1..=52).contains(&bits), "bits must be in 1..=52");
    bits as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_probabilities() {
        let s = BitSampling::uniform(4);
        assert_eq!(s.probs(), &[0.25; 4]);
        assert_eq!(s.bits(), 4);
    }

    #[test]
    fn geometric_gamma_one_matches_paper() {
        // p_j = 2^j / (2^b - 1).
        let s = BitSampling::geometric(4, 1.0);
        let denom = 15.0;
        for (j, &p) in s.probs().iter().enumerate() {
            assert!((p - (1u64 << j) as f64 / denom).abs() < 1e-12);
        }
    }

    #[test]
    fn geometric_gamma_half_is_flatter() {
        let g1 = BitSampling::geometric(8, 1.0);
        let g05 = BitSampling::geometric(8, 0.5);
        // Same ordering, but γ=0.5 gives the top bit less relative mass.
        assert!(g05.probs()[7] < g1.probs()[7]);
        assert!(g05.probs()[0] > g1.probs()[0]);
    }

    #[test]
    fn geometric_gamma_zero_is_uniform() {
        let g0 = BitSampling::geometric(5, 0.0);
        let u = BitSampling::uniform(5);
        for (a, b) in g0.probs().iter().zip(u.probs()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn probabilities_normalize() {
        let s = BitSampling::custom(vec![1.0, 3.0]);
        assert!((s.probs()[0] - 0.25).abs() < 1e-12);
        assert!((s.probs()[1] - 0.75).abs() < 1e-12);
        let total: f64 = BitSampling::geometric(20, 0.7).probs().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn optimal_matches_lemma_3_3() {
        // Means chosen so β = [0.25, 4*0.25] = [0.25, 1.0]; √β = [0.5, 1.0].
        let s = BitSampling::optimal(&[0.5, 0.5]).unwrap();
        assert!((s.probs()[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.probs()[1] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn optimal_skips_deterministic_bits() {
        let s = BitSampling::optimal(&[0.5, 0.0, 1.0]).unwrap();
        assert_eq!(s.probs()[1], 0.0);
        assert_eq!(s.probs()[2], 0.0);
        assert!((s.probs()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn optimal_none_for_constant_signal() {
        assert!(BitSampling::optimal(&[0.0, 1.0, 0.0]).is_none());
    }

    #[test]
    fn adaptive_weights_alpha_one_squares_optimal() {
        // α = 1 uses β directly; α = 0.5 uses √β.
        let means = vec![0.5, 0.5];
        let a1 = BitSampling::adaptive_weights(&means, 1.0).unwrap();
        // β = [0.25, 1.0] → p = [0.2, 0.8].
        assert!((a1.probs()[0] - 0.2).abs() < 1e-12);
        let a05 = BitSampling::adaptive_weights(&means, 0.5).unwrap();
        let opt = BitSampling::optimal(&means).unwrap();
        assert_eq!(a05.probs(), opt.probs());
    }

    #[test]
    fn apportion_sums_to_n_exactly() {
        let s = BitSampling::geometric(10, 0.5);
        for n in [1usize, 7, 100, 9999, 10_000] {
            let counts = s.apportion(n);
            assert_eq!(counts.iter().sum::<usize>(), n, "n = {n}");
        }
    }

    #[test]
    fn apportion_is_within_one_of_exact() {
        let s = BitSampling::geometric(8, 1.0);
        let n = 12_345;
        for (j, &c) in s.apportion(n).iter().enumerate() {
            let exact = s.probs()[j] * n as f64;
            assert!(
                (c as f64 - exact).abs() < 1.0,
                "bit {j}: {c} vs exact {exact}"
            );
        }
    }

    #[test]
    fn qmc_assignment_counts_are_deterministic() {
        let s = BitSampling::geometric(6, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let assign = s.assign_qmc(1000, &mut rng);
        assert_eq!(assign.len(), 1000);
        let counts = s.apportion(1000);
        for (j, &c) in counts.iter().enumerate() {
            let got = assign.iter().filter(|&&a| a == j as u32).count();
            assert_eq!(got, c, "bit {j}");
        }
    }

    #[test]
    fn qmc_shuffle_differs_across_seeds() {
        let s = BitSampling::uniform(4);
        let a = s.assign_qmc(100, &mut StdRng::seed_from_u64(1));
        let b = s.assign_qmc(100, &mut StdRng::seed_from_u64(2));
        assert_ne!(a, b);
    }

    #[test]
    fn local_assignment_approximates_probs() {
        let s = BitSampling::custom(vec![1.0, 1.0, 2.0]);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let assign = s.assign_local(n, &mut rng);
        for (j, &p) in s.probs().iter().enumerate() {
            let frac = assign.iter().filter(|&&a| a == j as u32).count() as f64 / n as f64;
            assert!((frac - p).abs() < 0.01, "bit {j}: {frac} vs {p}");
        }
    }

    #[test]
    fn local_has_higher_count_variance_than_qmc() {
        // The reason the paper defaults to QMC (Section 3.1).
        let s = BitSampling::uniform(8);
        let n = 800;
        let expected = 100.0;
        let spread = |mode: AssignmentMode| {
            let mut max_dev: f64 = 0.0;
            for seed in 0..50 {
                let mut rng = StdRng::seed_from_u64(seed);
                let assign = s.assign(mode, n, &mut rng);
                for j in 0..8u32 {
                    let c = assign.iter().filter(|&&a| a == j).count() as f64;
                    max_dev = max_dev.max((c - expected).abs());
                }
            }
            max_dev
        };
        assert_eq!(spread(AssignmentMode::CentralQmc), 0.0);
        assert!(spread(AssignmentMode::Local) > 5.0);
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn custom_rejects_all_zero() {
        let _ = BitSampling::custom(vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn custom_rejects_negative() {
        let _ = BitSampling::custom(vec![1.0, -0.5]);
    }
}
