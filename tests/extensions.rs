//! Integration tests for the extension surfaces: federated quantiles,
//! multi-feature aggregation, streaming/asynchronous aggregation, and the
//! nonlinear aggregates of Section 3.4.

use fednum::core::encoding::FixedPointCodec;
use fednum::core::privacy::RandomizedResponse;
use fednum::core::protocol::basic::BasicConfig;
use fednum::core::protocol::MeanMechanism;
use fednum::core::quantile::{QuantileConfig, QuantileEstimator};
use fednum::core::sampling::BitSampling;
use fednum::fedsim::moments::{geometric_mean, raw_moment};
use fednum::fedsim::multifeature::{standard_feature_config, MultiFeatureBitPushing};
use fednum::fedsim::{FederatedMeanConfig, StreamingMean};
use fednum::workloads::{CensusAges, Dataset, LogNormal, Sampler, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn census_median_age_via_one_bit_bisection() {
    let ds = Dataset::draw(&CensusAges::new(), 60_000, 1);
    let mut sorted = ds.values().to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let truth = sorted[sorted.len() / 2];
    let est = QuantileEstimator::new(QuantileConfig::new(FixedPointCodec::integer(7), 0.5));
    let mut rng = StdRng::seed_from_u64(2);
    let out = est.run(ds.values(), &mut rng);
    assert!(
        (out.estimate - truth).abs() <= 3.0,
        "median age {} vs truth {truth}",
        out.estimate
    );
    // Worst-case promise preserved: one bit per participating client.
    assert!(out.reports <= ds.len() as u64);
}

#[test]
fn quantiles_are_monotone_in_q() {
    let ds = Dataset::draw(&CensusAges::new(), 80_000, 3);
    let mut rng = StdRng::seed_from_u64(4);
    let q_at = |q: f64, rng: &mut StdRng| {
        QuantileEstimator::new(QuantileConfig::new(FixedPointCodec::integer(7), q))
            .run(ds.values(), rng)
            .estimate
    };
    let p25 = q_at(0.25, &mut rng);
    let p50 = q_at(0.5, &mut rng);
    let p90 = q_at(0.9, &mut rng);
    assert!(p25 <= p50 && p50 <= p90, "p25 {p25}, p50 {p50}, p90 {p90}");
}

#[test]
fn device_dashboard_four_features_one_bit_each() {
    let n = 80_000;
    let mut rng = StdRng::seed_from_u64(5);
    let cols: Vec<Vec<f64>> = vec![
        Uniform::new(0.0, 400.0).sample_n(&mut rng, n),
        LogNormal::new(3.0, 0.4).sample_n(&mut rng, n),
        Uniform::new(0.0, 40.0).sample_n(&mut rng, n),
        Uniform::new(100.0, 500.0).sample_n(&mut rng, n),
    ];
    let agg = MultiFeatureBitPushing::uniform(
        &["cpu", "rss", "errors", "latency"],
        standard_feature_config(9, 1.0, None, None),
    );
    let outcomes = agg.run(&cols, &mut rng);
    let total: u64 = outcomes
        .iter()
        .map(|o| o.outcome.accumulator.total_reports())
        .sum();
    assert_eq!(total, n as u64, "exactly one disclosed bit per client");
    for (o, col) in outcomes.iter().zip(&cols) {
        let truth = col.iter().sum::<f64>() / n as f64;
        assert!(
            (o.outcome.estimate - truth).abs() / truth < 0.1,
            "{}: {} vs {truth}",
            o.name,
            o.outcome.estimate
        );
    }
}

#[test]
fn streaming_matches_batch_protocol() {
    // The asynchronous path converges to the same estimate as a batch round
    // over the same population.
    let ds = Dataset::draw(&Uniform::new(0.0, 500.0), 50_000, 6);
    let truth = ds.mean();
    let codec = FixedPointCodec::integer(9);
    let sampling = BitSampling::geometric(9, 1.0);

    let mut stream = StreamingMean::new(codec, sampling.clone(), None);
    let mut rng = StdRng::seed_from_u64(7);
    for &v in ds.values() {
        stream.ingest(v, &mut rng);
    }
    let streamed = stream.estimate().unwrap();

    let batch = FederatedMeanConfig::new(BasicConfig::new(codec, sampling));
    let batched = batch.estimate_mean(ds.values(), &mut rng);

    assert!((streamed - truth).abs() / truth < 0.05, "stream {streamed}");
    assert!((batched - truth).abs() / truth < 0.05, "batch {batched}");
}

#[test]
fn streaming_snapshot_feeds_distributed_dp() {
    use fednum::core::privacy::SampleThreshold;
    let ds = Dataset::draw(&Uniform::new(0.0, 200.0), 40_000, 8);
    let codec = FixedPointCodec::integer(8);
    let mut stream = StreamingMean::new(codec, BitSampling::geometric(8, 1.0), None);
    let mut rng = StdRng::seed_from_u64(9);
    for &v in ds.values() {
        stream.ingest(v, &mut rng);
    }
    let snapshot = stream.snapshot();
    let privatized = SampleThreshold::new(0.9, 5).apply(&snapshot, &mut rng);
    let est = codec.decode_float(privatized.estimate());
    assert!(
        (est - ds.mean()).abs() / ds.mean() < 0.1,
        "distributed-DP streaming estimate {est} vs {}",
        ds.mean()
    );
}

#[test]
fn thresholding_costs_nothing_at_deployment_scale() {
    use fednum::core::accumulator::BitAccumulator;
    use fednum::core::privacy::SampleThreshold;

    // Section 4.3's central DP by thresholding: the server only ever sees
    // the thresholded per-bit histograms, and at 20k clients under
    // geometric sampling that removes nothing.
    let bits = 8u32;
    let codec = FixedPointCodec::integer(bits);
    let ds = Dataset::draw(&Uniform::new(0.0, 200.0), 20_000, 21);
    let (codes, _) = codec.encode_all(ds.values());
    let sampling = BitSampling::geometric(bits, 1.0);
    let mut rng = StdRng::seed_from_u64(22);
    let assignment = sampling.assign_qmc(codes.len(), &mut rng);

    let mut acc = BitAccumulator::new(bits);
    for (&code, &j) in codes.iter().zip(&assignment) {
        acc.record(j, ((code >> j) & 1) as f64);
    }
    let released = SampleThreshold::new(1.0, 10).apply(&acc, &mut rng);
    let estimate = codec.decode_float(released.estimate());
    let truth = ds.mean();
    assert!(
        (estimate - truth).abs() / truth < 0.1,
        "thresholded estimate {estimate} vs truth {truth}"
    );
    // Every bit cell is well above the threshold, so no cell was zeroed.
    assert_eq!(released, acc);
}

#[test]
fn second_moment_and_geometric_mean_end_to_end() {
    let ds = Dataset::draw(&Uniform::new(1.0, 100.0), 60_000, 10);
    let mut rng = StdRng::seed_from_u64(11);

    // E[X²] via bit-pushing on squares (values < 100² → 14 bits).
    let m2_mech = FederatedMeanConfig::new(BasicConfig::new(
        FixedPointCodec::integer(14),
        BitSampling::geometric(14, 1.0),
    ));
    let m2 = raw_moment(ds.values(), 2, &m2_mech, &mut rng);
    let m2_truth = ds.values().iter().map(|v| v * v).sum::<f64>() / ds.len() as f64;
    assert!(
        (m2 / m2_truth - 1.0).abs() < 0.1,
        "E[X²] {m2} vs {m2_truth}"
    );

    // Geometric mean via log-domain bit-pushing (ln x ∈ [0, ln 100]).
    let gm_mech = FederatedMeanConfig::new(BasicConfig::new(
        FixedPointCodec::spanning(12, 0.0, 100.0f64.ln()),
        BitSampling::geometric(12, 1.0),
    ));
    let gm = geometric_mean(ds.values(), &gm_mech, &mut rng);
    let gm_truth = (ds.values().iter().map(|v| v.ln()).sum::<f64>() / ds.len() as f64).exp();
    assert!(
        (gm / gm_truth - 1.0).abs() < 0.1,
        "geo-mean {gm} vs {gm_truth}"
    );
}

#[test]
fn streaming_with_decay_tracks_a_regime_shift() {
    use fednum::core::bounds::UpperBoundTracker;
    use fednum::workloads::{Constant, Mixture, Workload};

    // A buggy build ships at round 4: a mostly-binary metric (30 % ones)
    // grows a 0.1 % tail of huge outliers.
    let regime = |p_outlier: f64| {
        let point = |value| Workload::Constant(Constant { value });
        let mut parts = vec![(1.0 - 0.3 - p_outlier, point(0.0)), (0.3, point(1.0))];
        if p_outlier > 0.0 {
            parts.push((p_outlier, point(250_000.0)));
        }
        Workload::Mixture(Box::new(Mixture::new(parts)))
    };
    let (healthy, buggy) = (regime(0.0), regime(0.001));
    let codec = FixedPointCodec::integer(8); // clip the outliers hard
    let mut stream = StreamingMean::new(codec, BitSampling::geometric(8, 1.0), None);
    let mut tracker = UpperBoundTracker::new(4.0);
    let mut rng = StdRng::seed_from_u64(14);
    let mut flagged_round = None;
    for round in 0..8u64 {
        let dist = if round < 4 { &healthy } else { &buggy };
        let ds = Dataset::draw(dist, 10_000, 100 + round);
        tracker.record_round(ds.max());
        if tracker.flagged() && flagged_round.is_none() {
            flagged_round = Some(round);
        }
        stream.decay(0.5);
        for &v in ds.values() {
            stream.ingest(v, &mut rng);
        }
    }
    // The monitor caught the rollout at exactly the shift round.
    assert_eq!(flagged_round, Some(4));
    // The clipped streaming estimate reflects the post-shift regime:
    // ~0.3 body + 0.1% clipped-to-255 outliers ≈ 0.55.
    let est = stream.estimate().unwrap();
    assert!((0.3..1.2).contains(&est), "streaming estimate {est}");
}

#[test]
fn private_quantile_with_randomized_response() {
    let ds = Dataset::draw(&CensusAges::new(), 150_000, 12);
    let mut sorted = ds.values().to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let truth = sorted[(0.75 * sorted.len() as f64) as usize];
    let cfg = QuantileConfig::new(FixedPointCodec::integer(7), 0.75)
        .with_privacy(RandomizedResponse::from_epsilon(2.0));
    let mut rng = StdRng::seed_from_u64(13);
    let out = QuantileEstimator::new(cfg).run(ds.values(), &mut rng);
    assert!(
        (out.estimate - truth).abs() <= 6.0,
        "private p75 {} vs truth {truth}",
        out.estimate
    );
}
