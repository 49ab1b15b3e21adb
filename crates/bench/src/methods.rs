//! Standard method sets, labelled exactly as in the paper's plots.
//!
//! The paper's single-round "weighted" method with exponent α samples bit
//! `j` proportionally to `(2^j)^α` (Section 3.1: "p_j ∝ c^j = 2^{αj}") —
//! our `BitSampling::geometric(bits, α)`. Hence `weighted a=1.0` is the
//! worst-case/DP optimum `p_j ∝ 2^j` (which Figure 3 shows winning under
//! randomized response, whose variance is independent of the bit means),
//! and `weighted a=0.5` is the flatter `p_j ∝ 2^{j/2}` that the noise-free
//! Figure 1 experiments favour because it wastes fewer samples on
//! low-variance high-order bits. Both run the federated round driver.

use fednum_core::encoding::FixedPointCodec;
use fednum_core::privacy::{BitSquash, RandomizedResponse};
use fednum_core::protocol::basic::BasicConfig;
use fednum_core::sampling::BitSampling;
use fednum_fedsim::{FederatedAdaptiveConfig, FederatedMeanConfig};
use fednum_ldp::{
    DitheringLdp, MeanMechanism, PiecewiseMechanism, SubtractiveDithering, ValueRange,
};

/// Single-round weighted bit-pushing with the paper's exponent convention.
#[must_use]
pub fn weighted(bits: u32, alpha: f64) -> FederatedMeanConfig {
    FederatedMeanConfig::new(
        BasicConfig::new(
            FixedPointCodec::integer(bits),
            BitSampling::geometric(bits, alpha),
        )
        .with_label(format!("weighted a={alpha:.1}")),
    )
}

/// Two-round adaptive bit-pushing with paper defaults (γ = 0.5, δ = 1/3,
/// caching on), labelled `label`; the rounds sample with γ, then α.
#[must_use]
pub fn adaptive_config(bits: u32, label: &str) -> FederatedAdaptiveConfig {
    FederatedAdaptiveConfig::new(FederatedMeanConfig::new(
        BasicConfig::new(
            FixedPointCodec::integer(bits),
            BitSampling::geometric(bits, 0.5),
        )
        .with_label(label),
    ))
}

/// Two-round adaptive bit-pushing with paper defaults (γ = 0.5, δ = 1/3).
#[must_use]
pub fn adaptive(bits: u32, alpha: f64) -> FederatedAdaptiveConfig {
    adaptive_config(bits, &format!("adaptive a={alpha:.1}")).with_alpha(alpha)
}

/// Subtractive dithering over the `[0, 2^bits)` bound.
#[must_use]
pub fn dithering(bits: u32) -> SubtractiveDithering {
    SubtractiveDithering::new(ValueRange::from_bits(bits))
}

/// The non-private method set of Figures 1 and 2.
#[must_use]
pub fn plain_methods(bits: u32) -> Vec<Box<dyn MeanMechanism>> {
    vec![
        Box::new(dithering(bits)),
        Box::new(weighted(bits, 0.5)),
        Box::new(weighted(bits, 1.0)),
        Box::new(adaptive(bits, 0.5)),
        Box::new(adaptive(bits, 1.0)),
    ]
}

/// Single-round weighted bit-pushing under ε-LDP randomized response.
#[must_use]
pub fn weighted_dp(bits: u32, alpha: f64, epsilon: f64) -> FederatedMeanConfig {
    FederatedMeanConfig::new(
        BasicConfig::new(
            FixedPointCodec::integer(bits),
            BitSampling::geometric(bits, alpha),
        )
        .with_privacy(RandomizedResponse::from_epsilon(epsilon))
        .with_label(format!("weighted a={alpha:.1} rr")),
    )
}

/// Adaptive bit-pushing under ε-LDP, optionally with bit squashing.
#[must_use]
pub fn adaptive_dp(bits: u32, epsilon: f64, squash: Option<BitSquash>) -> FederatedAdaptiveConfig {
    let label = if squash.is_some() {
        "adaptive rr+squash"
    } else {
        "adaptive rr"
    };
    let mut cfg = adaptive_config(bits, label);
    cfg.environment.protocol.privacy = Some(RandomizedResponse::from_epsilon(epsilon));
    cfg.environment.protocol.squash = squash;
    cfg
}

/// The LDP method set of Figure 3 (no squashing).
#[must_use]
pub fn dp_methods(bits: u32, epsilon: f64) -> Vec<Box<dyn MeanMechanism>> {
    vec![
        Box::new(weighted_dp(bits, 0.5, epsilon)),
        Box::new(weighted_dp(bits, 1.0, epsilon)),
        Box::new(adaptive_dp(bits, epsilon, None)),
        Box::new(DitheringLdp::new(ValueRange::from_bits(bits), epsilon)),
        Box::new(PiecewiseMechanism::new(
            ValueRange::from_bits(bits),
            epsilon,
        )),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_conventions() {
        let names: Vec<String> = plain_methods(8).iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec![
                "dithering",
                "weighted a=0.5",
                "weighted a=1.0",
                "adaptive a=0.5",
                "adaptive a=1.0",
            ]
        );
    }

    #[test]
    fn weighted_exponent_convention() {
        // a=0.5 → p ∝ 2^{j/2}; a=1.0 → p ∝ 2^j (the DP optimum).
        let half = weighted(4, 0.5);
        let probs = half.protocol.sampling.probs();
        assert!((probs[1] / probs[0] - 2.0f64.sqrt()).abs() < 1e-9);
        let one = weighted(4, 1.0);
        let probs = one.protocol.sampling.probs();
        assert!((probs[1] / probs[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dp_methods_report_epsilon() {
        for m in dp_methods(8, 1.5) {
            let eps = m.epsilon().expect("all DP methods expose epsilon");
            assert!((eps - 1.5).abs() < 1e-9, "{}", m.name());
        }
    }

    #[test]
    fn adaptive_dp_squash_label() {
        use fednum_core::privacy::BitSquash;
        let m = adaptive_dp(8, 1.0, Some(BitSquash::Absolute(0.05)));
        assert_eq!(m.name(), "adaptive rr+squash");
    }
}
