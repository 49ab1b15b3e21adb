//! End-to-end integration tests spanning all crates: workloads → fedsim →
//! secagg → core → metrics.

use fednum::core::encoding::FixedPointCodec;
use fednum::core::privacy::{BitSquash, RandomizedResponse};
use fednum::core::protocol::basic::BasicConfig;
use fednum::core::protocol::MeanMechanism;
use fednum::core::sampling::BitSampling;
use fednum::fedsim::round::{FederatedMeanConfig, SecAggSettings};
use fednum::fedsim::{
    DropoutModel, ElicitStrategy, FederatedAdaptiveConfig, LatencyModel, Population,
};
use fednum::metrics::{run_repetitions, Repetitions};
use fednum::workloads::{CensusAges, Dataset, Exponential, Normal, Sampler, Uniform};
use fednum::RoundBuilder;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Algorithm 2 with paper defaults over a `bits`-bit integer codec.
fn adaptive(bits: u32) -> FederatedAdaptiveConfig {
    FederatedAdaptiveConfig::new(FederatedMeanConfig::new(BasicConfig::new(
        FixedPointCodec::integer(bits),
        BitSampling::geometric(bits, 0.5),
    )))
}

/// Algorithm 1, weighted `p_j ∝ 2^{γj}`, over a `bits`-bit integer codec.
fn weighted(bits: u32, gamma: f64) -> FederatedMeanConfig {
    FederatedMeanConfig::new(BasicConfig::new(
        FixedPointCodec::integer(bits),
        BitSampling::geometric(bits, gamma),
    ))
}

#[test]
fn headline_claim_three_percent_nrmse_at_a_few_thousand_clients() {
    // Section 1.1: "gathering reports from a few thousand users is
    // sufficient to achieve a normalized RMSE of around 3% for a 10-bit
    // quantity, and ten thousand reports ensure that the error level is
    // comfortably below 1%".
    let dist = Uniform::new(0.0, 1000.0); // genuinely 10-bit data
    let nrmse_at = |n: usize| {
        let summary = run_repetitions(Repetitions::new(60, 0xC1A1), |seed| {
            let ds = Dataset::draw(&dist, n, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
            (adaptive(10).estimate_mean(ds.values(), &mut rng), ds.mean())
        });
        summary.nrmse
    };
    let few_thousand = nrmse_at(3000);
    let ten_thousand = nrmse_at(10_000);
    assert!(
        few_thousand < 0.05,
        "3k clients should give a few percent NRMSE, got {few_thousand}"
    );
    assert!(
        ten_thousand < 0.01,
        "10k clients should be comfortably below 1%, got {ten_thousand}"
    );
}

#[test]
fn full_stack_census_survey_with_dp_and_secagg() {
    // The complete deployment pipeline on census ages.
    let ages = Dataset::draw(&CensusAges::new(), 30_000, 9);
    let truth = ages.mean();
    let protocol = BasicConfig::new(FixedPointCodec::integer(8), BitSampling::geometric(8, 2.0))
        .with_privacy(RandomizedResponse::from_epsilon(2.0))
        .with_squash(BitSquash::Absolute(0.05));
    let config = FederatedMeanConfig::new(protocol)
        .with_dropout(DropoutModel::phased(0.1, 0.05))
        .with_secagg(SecAggSettings {
            threshold_fraction: 0.5,
            ..SecAggSettings::default()
        })
        .with_latency(LatencyModel::typical_fleet());
    let out = RoundBuilder::new(config)
        .seed(17)
        .run(ages.values())
        .expect("round succeeds")
        .flat()
        .expect("flat round")
        .clone();
    assert!(
        (out.outcome.estimate - truth).abs() / truth < 0.2,
        "estimate {} vs truth {truth}",
        out.outcome.estimate
    );
    assert!(out.completion_time > 0.0);
    let secagg = out.secagg.expect("secagg enabled");
    assert!(secagg.contributors > 25_000);
    assert!(secagg.recovered_pairwise > 1_000); // ~10% of 30k dropped early
}

#[test]
fn multi_value_clients_sampling_semantics() {
    // Clients hold several observations; eliciting by sampling targets the
    // per-client mean.
    let mut rng = StdRng::seed_from_u64(3);
    let dist = Normal::new(200.0, 30.0);
    let clients = (0..5000u64)
        .map(|id| {
            let k = 1 + (id % 5) as usize;
            fednum::fedsim::Client::new(id, 0, dist.sample_n(&mut rng, k))
        })
        .collect();
    let population = Population::new(clients);
    let elicited = population.elicit(ElicitStrategy::Sample, &mut rng);
    let est = weighted(9, 1.0).estimate_mean(&elicited, &mut rng);
    let truth = population.per_client_mean();
    assert!(
        (est - truth).abs() / truth < 0.05,
        "est {est} truth {truth}"
    );
}

#[test]
fn adaptive_oblivious_to_bit_depth_weighted_is_not() {
    // Figures 1c/2c end-to-end: increase the declared depth from 10 to 18
    // with data fixed below 2^9.
    let dist = Exponential::new(1.0 / 150.0);
    let err_of = |bits: u32, is_adaptive: bool| {
        run_repetitions(Repetitions::new(40, 0xF1C), |seed| {
            let ds = Dataset::draw(&dist, 8_000, seed);
            let clipped: Vec<f64> = ds
                .values()
                .iter()
                .map(|v| v.min(((1u64 << bits) - 1) as f64))
                .collect();
            let truth = clipped.iter().sum::<f64>() / clipped.len() as f64;
            let mut rng = StdRng::seed_from_u64(seed ^ 0x77);
            let est = if is_adaptive {
                adaptive(bits).estimate_mean(&clipped, &mut rng)
            } else {
                weighted(bits, 2.0).estimate_mean(&clipped, &mut rng)
            };
            (est, truth)
        })
        .nrmse
    };
    let adaptive_growth = err_of(18, true) / err_of(10, true);
    let weighted_growth = err_of(18, false) / err_of(10, false);
    assert!(
        weighted_growth > 2.0 * adaptive_growth,
        "weighted growth {weighted_growth} should dwarf adaptive growth {adaptive_growth}"
    );
}

#[test]
fn estimates_are_reproducible_across_identical_runs() {
    let ds = Dataset::draw(&Normal::new(300.0, 50.0), 5000, 1);
    let protocol = adaptive(10);
    let run = || {
        let mut rng = StdRng::seed_from_u64(55);
        protocol.estimate_mean(ds.values(), &mut rng)
    };
    assert_eq!(run(), run());
}

#[test]
fn one_bit_per_client_invariant_holds() {
    // The paper's headline worst-case guarantee: with b_send = 1, exactly
    // one bit report per responding client.
    let ds = Dataset::draw(&Uniform::new(0.0, 500.0), 7_000, 2);
    let mut rng = StdRng::seed_from_u64(5);
    let out = weighted(9, 1.0).run_pooled(ds.values(), &mut rng).unwrap();
    assert_eq!(out.accumulator.total_reports(), 7_000);
}

#[test]
fn batched_planes_match_the_scalar_wire_at_a_hundred_thousand_clients() {
    // Some two hundred 512-slot chunks, with a ragged last chunk in each
    // wave and a deficit refill wave: the statistical surface must equal the
    // per-client wire's seed for seed, and the secure-aggregation phases
    // (which both wires run over the same cohort) must carry the same
    // entries — a frame per sender there, a frame per chunk of senders here.
    use fednum::fedsim::traffic::{Direction, TrafficPhase};
    use fednum::transport::InMemoryTransport;
    let ds = Dataset::draw(&Normal::new(500.0, 100.0), 100_003, 3);
    let plain = FederatedMeanConfig::new(
        BasicConfig::new(
            FixedPointCodec::integer(10),
            BitSampling::geometric(10, 1.0),
        )
        .with_privacy(RandomizedResponse::from_epsilon(1.0)),
    )
    .with_dropout(DropoutModel::bernoulli(0.1))
    .with_auto_adjust(3, 150, 0.6);
    for (tag, secure) in [("plain", None), ("secure", Some(SecAggSettings::default()))] {
        for seed in 11u64..14 {
            let run = |chunk: Option<usize>| {
                let mut transport = InMemoryTransport::new(seed);
                let mut round = RoundBuilder::new(plain.clone())
                    .seed(seed)
                    .via(&mut transport);
                if let Some(settings) = secure {
                    round = round.secure(settings);
                }
                if let Some(chunk) = chunk {
                    round = round.batched(chunk);
                }
                round.run(ds.values()).unwrap().flat().unwrap().clone()
            };
            let (scalar, batched) = (run(None), run(Some(512)));
            let at = format!("{tag} seed {seed}");
            assert_eq!(
                scalar.outcome.estimate.to_bits(),
                batched.outcome.estimate.to_bits(),
                "{at}"
            );
            assert_eq!(scalar.outcome.bit_means, batched.outcome.bit_means, "{at}");
            assert_eq!(scalar.reports, batched.reports, "{at}");
            assert_eq!(scalar.contacted, batched.contacted, "{at}");
            assert_eq!(scalar.waves_used, batched.waves_used, "{at}");
            assert!(batched.waves_used > 1, "{at}: no refill wave ran");
            assert_eq!(scalar.secagg, batched.secagg, "{at}");
            let (st, bt) = (&scalar.robustness.traffic, &batched.robustness.traffic);
            for phase in [
                TrafficPhase::KeyExchange,
                TrafficPhase::Masking,
                TrafficPhase::Unmask,
                TrafficPhase::Publish,
            ] {
                let (s, b) = (
                    st.get(phase, Direction::Downlink),
                    bt.get(phase, Direction::Downlink),
                );
                assert_eq!(s, b, "{at}: {phase:?} downlink");
                let (s, b) = (
                    st.get(phase, Direction::Uplink),
                    bt.get(phase, Direction::Uplink),
                );
                if s.messages == 0 {
                    assert_eq!(s, b, "{at}: {phase:?} uplink");
                    continue;
                }
                // What the chunked wire saves is frame headers (at most 13
                // bytes each), nothing of an entry.
                assert!(
                    b.messages * 50 < s.messages,
                    "{at}: {phase:?} {b:?} vs {s:?}"
                );
                let saved = s.bytes - b.bytes;
                assert!(
                    0 < saved && saved < 13 * s.messages,
                    "{at}: {phase:?} {b:?} vs {s:?}"
                );
            }
            // One collect-uplink frame per chunk, the last chunk of each
            // wave ragged, against one per reporting client on the scalar
            // wire.
            let frames = bt.get(TrafficPhase::Collect, Direction::Uplink).messages;
            let full = batched.contacted.div_ceil(512) as u64;
            assert!(
                (full..full + u64::from(batched.waves_used)).contains(&frames),
                "{at}: {frames} chunk frames for {} contacts",
                batched.contacted
            );
        }
    }
}
