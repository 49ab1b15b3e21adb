//! Adaptive two-round parity: Algorithm 2 as two sessions on one transport
//! must reproduce the synchronous path (`RoundBuilder::new_adaptive(cfg)`
//! without `.via`) **bit for bit** under the same seed, on the per-client
//! wire and on the chunked one. The feedback between the rounds rides the
//! round-1 Publish frame here, so this grid additionally pins that the
//! message codec is `f64`-bit-preserving end to end: any rounding in the
//! wire format would surface as a round-2 weight divergence.

use fednum_core::encoding::FixedPointCodec;
use fednum_core::privacy::RandomizedResponse;
use fednum_core::protocol::basic::BasicConfig;
use fednum_core::sampling::BitSampling;
use fednum_fedsim::adaptive_round::{FederatedAdaptiveConfig, FederatedAdaptiveOutcome};
use fednum_fedsim::round::{FederatedMeanConfig, SecAggSettings};
use fednum_fedsim::{DropoutModel, LatencyModel};
use fednum_transport::{InMemoryTransport, RoundBuilder, Transport};

/// The synchronous two-round protocol through the builder facade
/// (`.seed(s)` reproduces the `StdRng` stream the old free function took).
fn run_sync(values: &[f64], cfg: &FederatedAdaptiveConfig, seed: u64) -> FederatedAdaptiveOutcome {
    RoundBuilder::new_adaptive(cfg.clone())
        .seed(seed)
        .run(values)
        .unwrap()
        .adaptive()
        .unwrap()
        .clone()
}

/// The two-session transport port through the same facade, on the chunked
/// wire when `batched` names a chunk size.
fn run_wired(
    values: &[f64],
    cfg: &FederatedAdaptiveConfig,
    transport: &mut dyn Transport,
    seed: u64,
    batched: Option<usize>,
) -> FederatedAdaptiveOutcome {
    let mut builder = RoundBuilder::new_adaptive(cfg.clone())
        .seed(seed)
        .via(transport);
    if let Some(chunk) = batched {
        builder = builder.batched(chunk);
    }
    builder.run(values).unwrap().adaptive().unwrap().clone()
}

struct Case {
    id: u64,
    population: usize,
    bits: u32,
    dropout: DropoutModel,
    privacy: bool,
    secagg: bool,
    latency: bool,
    delta: f64,
}

fn grid() -> Vec<Case> {
    let mut cases = Vec::new();
    let mut id = 0u64;
    for &population in &[120usize, 900, 4000] {
        for &dropout in &[DropoutModel::None, DropoutModel::bernoulli(0.25)] {
            for &bits in &[8u32, 12] {
                for &delta in &[1.0 / 3.0, 0.5] {
                    id += 1;
                    cases.push(Case {
                        id,
                        population,
                        bits,
                        dropout,
                        privacy: id.is_multiple_of(2),
                        secagg: population >= 900 && id.is_multiple_of(3),
                        latency: id.is_multiple_of(5),
                        delta,
                    });
                }
            }
        }
    }
    cases
}

fn config_for(case: &Case) -> FederatedAdaptiveConfig {
    let mut protocol = BasicConfig::new(
        FixedPointCodec::integer(case.bits),
        BitSampling::geometric(case.bits, 1.0),
    );
    if case.privacy {
        protocol = protocol.with_privacy(RandomizedResponse::from_epsilon(3.0));
    }
    let mut env = FederatedMeanConfig::new(protocol).with_dropout(case.dropout);
    if case.secagg {
        env = env.with_secagg(SecAggSettings {
            threshold_fraction: 0.5,
            neighbors: Some(16),
        });
    }
    if case.latency {
        env = env.with_latency(LatencyModel::new(0.5, 0.6, 30.0));
    }
    env.session_seed = 0xADA0 + case.id;
    FederatedAdaptiveConfig::new(env).with_delta(case.delta)
}

/// Everything per-seed that must not differ between two carriers of the
/// same adaptive round.
fn assert_identical(tag: &str, sync: &FederatedAdaptiveOutcome, wired: &FederatedAdaptiveOutcome) {
    assert_eq!(
        sync.estimate.to_bits(),
        wired.estimate.to_bits(),
        "{tag}: pooled estimate diverges: {} vs {}",
        sync.estimate,
        wired.estimate
    );
    // The divergence-sensitive intermediate: round-2 weights derived
    // from feedback that crossed the wire vs. local memory.
    assert_eq!(
        sync.round2_sampling.probs(),
        wired.round2_sampling.probs(),
        "{tag}: re-optimized weights diverge — feedback lost bits on the wire"
    );
    for (round, s, w) in [
        (1, &sync.round1, &wired.round1),
        (2, &sync.round2, &wired.round2),
    ] {
        assert_eq!(
            s.outcome.estimate.to_bits(),
            w.outcome.estimate.to_bits(),
            "{tag}: round {round} estimate"
        );
        assert_eq!(s.contacted, w.contacted, "{tag}: round {round} contacted");
        assert_eq!(s.reports, w.reports, "{tag}: round {round} reports");
        assert_eq!(
            s.completion_time.to_bits(),
            w.completion_time.to_bits(),
            "{tag}: round {round} completion time"
        );
        assert_eq!(s.secagg, w.secagg, "{tag}: round {round} secagg summary");
    }
    assert_eq!(
        sync.completion_time.to_bits(),
        wired.completion_time.to_bits(),
        "{tag}: total completion time"
    );
    // The transport path must have genuinely used two sessions on one
    // wire: the Publish feedback only exists there.
    assert!(
        wired.round1.robustness.traffic.total_messages() > 0,
        "{tag}: session 1 metered no traffic"
    );
}

#[test]
fn adaptive_transport_is_bit_identical_to_the_sync_protocol() {
    let cases = grid();
    assert!(cases.len() >= 20, "grid too small: {}", cases.len());
    let mut secagg_cases = 0usize;
    for case in &cases {
        let values: Vec<f64> = (0..case.population)
            .map(|i| ((i as u64 * 31 + case.id * 17) % 210) as f64)
            .collect();
        let cfg = config_for(case);
        secagg_cases += usize::from(case.secagg);
        let sync = run_sync(&values, &cfg, case.id);
        let mut transport = InMemoryTransport::new(case.id);
        let wired = run_wired(&values, &cfg, &mut transport, case.id, None);
        assert_identical(&format!("case {}", case.id), &sync, &wired);

        let mut transport = InMemoryTransport::new(case.id);
        let batched = run_wired(&values, &cfg, &mut transport, case.id, Some(64));
        let tag = format!("case {} batched", case.id);
        assert_identical(&tag, &sync, &batched);
    }
    assert!(
        secagg_cases >= 3,
        "secagg coverage too thin: {secagg_cases}"
    );
}
