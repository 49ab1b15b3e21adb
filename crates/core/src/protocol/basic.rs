//! Algorithm 1: basic (single-round) bit-pushing.
//!
//! Given `n` clients with encoded `b`-bit values and a sampling distribution
//! `p`, the server assigns `p_j · n` clients to bit `j`, gathers the
//! (optionally randomized-response-protected) bit values, computes per-bit
//! means and reconstructs `r = Σ_j 2^j m_j` — an unbiased estimate of the
//! population mean with the variance of Lemma 3.1.
//!
//! This module holds the round's configuration and its estimator tail; the
//! round itself runs on the federated driver (`fednum-fedsim`).

use fednum_ldp::RandomizedResponse;
use serde::{Deserialize, Serialize};

use crate::accumulator::BitAccumulator;
use crate::bits::weight;
use crate::encoding::FixedPointCodec;
use crate::privacy::squash::BitSquash;
use crate::sampling::{AssignmentMode, BitSampling};

/// Configuration for a basic bit-pushing round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BasicConfig {
    /// Value ↔ `b`-bit integer codec (clipping included).
    pub codec: FixedPointCodec,
    /// Bit-sampling probabilities (must cover exactly `codec.bits()` bits).
    pub sampling: BitSampling,
    /// Bits each client reports (`b_send`, Corollary 3.2). Default 1 — the
    /// paper's headline "at most one bit per value".
    pub b_send: u32,
    /// Central QMC (default) or local assignment.
    pub assignment: AssignmentMode,
    /// Optional per-bit ε-LDP randomized response.
    pub privacy: Option<RandomizedResponse>,
    /// Optional bit squashing applied to the final bit means.
    pub squash: Option<BitSquash>,
    /// Label used by the mechanism's `name`.
    pub label: Option<String>,
}

impl BasicConfig {
    /// Defaults: `b_send = 1`, central QMC, no privacy, no squashing.
    ///
    /// # Panics
    /// Panics if the sampling vector's bit count differs from the codec's.
    #[must_use]
    pub fn new(codec: FixedPointCodec, sampling: BitSampling) -> Self {
        assert_eq!(
            codec.bits(),
            sampling.bits(),
            "sampling distribution must cover exactly the codec's bits"
        );
        Self {
            codec,
            sampling,
            b_send: 1,
            assignment: AssignmentMode::CentralQmc,
            privacy: None,
            squash: None,
            label: None,
        }
    }

    /// Sets the number of bits each client sends.
    ///
    /// # Panics
    /// Panics if `b_send` is 0 or exceeds the bit depth.
    #[must_use]
    pub fn with_b_send(mut self, b_send: u32) -> Self {
        assert!(
            b_send >= 1 && b_send <= self.codec.bits(),
            "b_send must be in 1..=bits"
        );
        self.b_send = b_send;
        self
    }

    /// Sets the assignment mode.
    #[must_use]
    pub fn with_assignment(mut self, mode: AssignmentMode) -> Self {
        self.assignment = mode;
        self
    }

    /// Enables ε-LDP randomized response on every transmitted bit.
    #[must_use]
    pub fn with_privacy(mut self, rr: RandomizedResponse) -> Self {
        self.privacy = Some(rr);
        self
    }

    /// Enables bit squashing on the final bit means.
    #[must_use]
    pub fn with_squash(mut self, squash: BitSquash) -> Self {
        self.squash = Some(squash);
        self
    }

    /// Sets the display label.
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }
}

/// Result of a bit-pushing round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Outcome {
    /// Mean estimate in the value domain.
    pub estimate: f64,
    /// Final (post-squash) per-bit means used for the estimate.
    pub bit_means: Vec<f64>,
    /// Raw per-bit sums/counts (pre-squash), as secure aggregation would
    /// deliver them.
    pub accumulator: BitAccumulator,
    /// Fraction of inputs the codec clipped.
    pub clip_fraction: f64,
    /// Predicted standard deviation of the estimate (value domain), from
    /// the Lemma 3.1 / randomized-response variance formulas evaluated at
    /// the observed bit means and actual per-bit report counts.
    pub predicted_std: f64,
}

/// The estimator tail of Algorithm 1: turns a per-bit histogram into an
/// [`Outcome`].
///
/// # Examples
///
/// ```
/// use fednum_core::accumulator::BitAccumulator;
/// use fednum_core::encoding::FixedPointCodec;
/// use fednum_core::protocol::basic::{BasicBitPushing, BasicConfig};
/// use fednum_core::sampling::BitSampling;
///
/// let protocol = BasicBitPushing::new(BasicConfig::new(
///     FixedPointCodec::integer(2),
///     BitSampling::geometric(2, 1.0), // p_j ∝ 2^j
/// ));
/// // Bit 0 reported by 4 clients (3 ones), bit 1 by 8 clients (2 ones).
/// let acc = BitAccumulator::from_parts(vec![3.0, 2.0], vec![4, 8]);
/// let outcome = protocol.finish(acc, 0.0);
/// assert!((outcome.estimate - (0.75 + 2.0 * 0.25)).abs() < 1e-12);
/// assert_eq!(outcome.accumulator.total_reports(), 12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BasicBitPushing {
    config: BasicConfig,
}

impl BasicBitPushing {
    /// Creates the protocol.
    #[must_use]
    pub fn new(config: BasicConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &BasicConfig {
        &self.config
    }

    /// Turns an accumulator (possibly produced by secure aggregation or a
    /// distributed-DP post-process) into an [`Outcome`].
    #[must_use]
    pub fn finish(&self, acc: BitAccumulator, clip_fraction: f64) -> Outcome {
        let raw_means = acc.bit_means();
        let bit_means = match &self.config.squash {
            Some(sq) => sq.apply(&raw_means, acc.counts(), self.config.privacy.as_ref()),
            None => raw_means,
        };
        let encoded_estimate = BitAccumulator::estimate_from_means(&bit_means);
        let estimate = self.config.codec.decode_float(encoded_estimate);
        let predicted_var = self.predicted_variance(&bit_means, acc.counts());
        // Std in encoded units; dividing by the codec scale converts to the
        // value domain (the offset shifts the mean, not the spread).
        let scale = self.config.codec.decode_float(1.0) - self.config.codec.decode_float(0.0);
        Outcome {
            estimate,
            bit_means,
            accumulator: acc,
            clip_fraction,
            predicted_std: predicted_var.sqrt() * scale,
        }
    }

    /// Predicted estimator variance (encoded units) from the observed bit
    /// means and actual per-bit counts: `Σ_j 4^j v_j / c_j` where `v_j` is
    /// the per-report variance — `m_j (1 - m_j)` without privacy (Lemma 3.1
    /// with actual counts `c_j = n p_j`), or the randomized-response report
    /// variance with.
    #[must_use]
    pub fn predicted_variance(&self, bit_means: &[f64], counts: &[u64]) -> f64 {
        bit_means
            .iter()
            .zip(counts)
            .enumerate()
            .map(|(j, (&m, &c))| {
                if c == 0 {
                    return 0.0;
                }
                let m = m.clamp(0.0, 1.0);
                let per_report = match &self.config.privacy {
                    Some(rr) => rr.report_variance(m),
                    None => m * (1.0 - m),
                };
                let w = weight(j as u32);
                w * w * per_report / c as f64
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "sampling distribution must cover")]
    fn config_rejects_bit_mismatch() {
        let _ = BasicConfig::new(FixedPointCodec::integer(8), BitSampling::uniform(4));
    }
}
