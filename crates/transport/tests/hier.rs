//! End-to-end guarantees of the hierarchical secure-aggregation path.
//!
//! Three contracts are pinned here, each against realistic configurations
//! (sparse mask graphs, refill waves, injected faults):
//!
//! 1. **Privacy surface** — every uplink frame the top-level coordinator
//!    receives in the merge session is key material, share relay, or a
//!    *masked* per-shard sum; no plaintext shard aggregate ever appears on
//!    that wire, while the published mean still matches the non-secagg
//!    sharded estimate.
//! 2. **Pool parity** — any worker count reproduces the sequential run bit
//!    for bit, including under fault injection on both tiers.
//! 3. **Config compression** — the broadcast-header + per-client-delta
//!    downlink changes bytes only: estimates are bit-identical with the
//!    uncompressed fallback codec and the savings land in the ledger.

use fednum_core::encoding::FixedPointCodec;
use fednum_core::protocol::basic::BasicConfig;
use fednum_core::sampling::BitSampling;
use fednum_fedsim::faults::{FaultPlan, FaultRates};
use fednum_fedsim::round::{DegradedMode, FederatedMeanConfig, SecAggSettings};
use fednum_fedsim::traffic::{Direction, TrafficPhase};
use fednum_fedsim::{DropoutModel, FedError, RetryPolicy};
use fednum_hiersec::HierSecConfig;
use fednum_secagg::SecAggError;
use fednum_transport::message::SecAggStep;
use fednum_transport::{
    HierShardedOutcome, InMemoryTransport, Message, RoundBuilder, ShardedOutcome, Transport,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BITS: u32 = 8;

/// The masked sum a coordinator-facing merge frame uploads, read off the
/// validated frame's items (`None` for the other three message rounds).
/// Anything but a secure-aggregation frame has no business on that wire.
fn masked_upload(frame: &[u8]) -> Option<Vec<u64>> {
    let msg = Message::decode(frame).expect("coordinator frames must decode");
    let Message::SecAgg(batch) = msg else {
        panic!("non-protocol frame reached the coordinator: {msg:?}");
    };
    (batch.step() == SecAggStep::MaskedInput).then(|| {
        (batch.items())
            .map(|(_, _, element)| u64::from_le_bytes(element.try_into().unwrap()))
            .collect()
    })
}

// Builder-backed stand-ins for the removed free functions: the call
// shapes below predate `RoundBuilder` and stay put so the assertions read
// unchanged; the facade is what actually runs.
fn run_hierarchical_mean(
    values: &[f64],
    config: &FederatedMeanConfig,
    hier: &HierSecConfig,
    workers: usize,
    seed: u64,
) -> Result<HierShardedOutcome, FedError> {
    RoundBuilder::new(config.clone())
        .hierarchical(*hier, workers)
        .seed(seed)
        .run(values)
        .map(|out| out.hierarchical().unwrap().clone())
}

fn run_sharded_mean(
    values: &[f64],
    config: &FederatedMeanConfig,
    shards: usize,
    seed: u64,
) -> Result<ShardedOutcome, FedError> {
    RoundBuilder::new(config.clone())
        .sharded(shards, seed)
        .run(values)
        .map(|out| out.sharded().unwrap().clone())
}

fn run_federated_mean_transport(
    values: &[f64],
    config: &FederatedMeanConfig,
    transport: &mut dyn Transport,
    rng: &mut dyn Rng,
) -> Result<fednum_fedsim::round::FederatedOutcome, FedError> {
    RoundBuilder::new(config.clone())
        .via(transport)
        .rng(rng)
        .run(values)
        .map(|out| out.flat().unwrap().clone())
}

fn settings() -> SecAggSettings {
    SecAggSettings {
        threshold_fraction: 0.5,
        neighbors: Some(16),
    }
}

fn base_config() -> FederatedMeanConfig {
    FederatedMeanConfig::new(BasicConfig::new(
        FixedPointCodec::integer(BITS),
        BitSampling::geometric(BITS, 1.0),
    ))
}

fn secure_config() -> FederatedMeanConfig {
    base_config().with_secagg(settings())
}

fn population(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9) % 200) as f64)
        .collect()
}

/// The ISSUE acceptance test: the top-level coordinator observes only
/// masked per-shard frames, yet the published mean matches the plain
/// (non-secagg) sharded estimate.
#[test]
fn coordinator_sees_only_masked_frames_while_estimate_survives() {
    let values = population(2_000);
    let truth = values.iter().sum::<f64>() / values.len() as f64;
    let hier = HierSecConfig::try_new(8, settings(), 6, 0xE2E).unwrap();
    let out = run_hierarchical_mean(&values, &secure_config(), &hier, 4, 17).unwrap();

    // Accuracy: against the non-secagg sharded path (same seed, same
    // partition — secagg is exact arithmetic over the same reports) and
    // against ground truth within the bit-pushing sampling error.
    let plain = run_sharded_mean(&values, &base_config(), 8, 17).unwrap();
    assert_eq!(
        out.outcome.estimate.to_bits(),
        plain.outcome.estimate.to_bits(),
        "secure estimate diverged: {} vs {}",
        out.outcome.estimate,
        plain.outcome.estimate
    );
    assert!((out.outcome.estimate - truth).abs() < 2.0);
    assert_eq!(out.reports, plain.reports);
    assert_eq!(out.included_shards, (0..8).collect::<Vec<_>>());

    // Privacy: the shard-tier plaintext sums are bounded by the cohort's
    // total report count (≤ 2000 · 255); a masked frame is uniform over the
    // 61-bit field. Assert every MaskedInput is in masked range and that
    // nothing but the four protocol message kinds reaches the coordinator.
    let plaintext_bound = 1u64 << 32;
    let mut masked = 0usize;
    for values in out.merge_frames.iter().filter_map(|f| masked_upload(f)) {
        masked += 1;
        assert_eq!(values.len(), 2 * BITS as usize);
        assert!(values.iter().all(|&v| v < 1 << 61), "outside the field");
        let max = values.iter().copied().max().unwrap();
        assert!(
            max > plaintext_bound,
            "merge frame within plaintext range (max {max}): \
             shard sum leaked unmasked"
        );
    }
    assert_eq!(masked, 8, "one masked upload per live shard");
}

/// Pool parity under chaos: fault injection on the shard tier must not make
/// the outcome depend on how many OS threads executed the shards.
#[test]
fn pooled_execution_is_bit_identical_under_faults() {
    let values = population(1_200);
    let cfg = secure_config()
        .with_dropout(DropoutModel::bernoulli(0.15))
        .with_faults(FaultPlan::new(FaultRates::uniform(0.03), 0xFA17).unwrap());
    let hier = HierSecConfig::try_new(6, settings(), 4, 0x9A11).unwrap();
    let sequential = run_hierarchical_mean(&values, &cfg, &hier, 1, 23).unwrap();
    assert!(
        sequential.faults_injected > 0,
        "chaos case failed to exercise the fault layer"
    );
    for workers in [2, 3, 8] {
        let pooled = run_hierarchical_mean(&values, &cfg, &hier, workers, 23).unwrap();
        assert_eq!(
            pooled.outcome.estimate.to_bits(),
            sequential.outcome.estimate.to_bits(),
            "workers={workers}: estimate bits diverge"
        );
        assert_eq!(pooled.reports, sequential.reports, "workers={workers}");
        assert_eq!(pooled.traffic, sequential.traffic, "workers={workers}");
        assert_eq!(
            pooled.faults_injected, sequential.faults_injected,
            "workers={workers}"
        );
        assert_eq!(
            pooled.merge_frames, sequential.merge_frames,
            "workers={workers}"
        );
        assert_eq!(pooled.degraded, sequential.degraded, "workers={workers}");
    }
}

/// When more shards degrade than the merge threshold tolerates, the round
/// aborts with the typed merge-tier error (telemetry maps it to
/// [`DegradedMode::Aborted`]) instead of publishing a partial estimate.
#[test]
fn merge_tier_failure_aborts_with_a_typed_error() {
    let values = population(400);
    // Per-shard thresholds of 95% with a 30% dropout and no retries: every
    // shard's instance fails, so zero shard aggregators survive unmasking.
    let strict = SecAggSettings {
        threshold_fraction: 0.95,
        neighbors: None,
    };
    let cfg = base_config()
        .with_secagg(strict)
        .with_dropout(DropoutModel::bernoulli(0.3))
        .with_retry(RetryPolicy {
            max_secagg_retries: 0,
            base_backoff: 0.5,
            max_backoff: 8.0,
            min_cohort: 5,
        });
    let hier = HierSecConfig::try_new(4, strict, 3, 0xAB0).unwrap();
    let err = run_hierarchical_mean(&values, &cfg, &hier, 2, 31).unwrap_err();
    match err {
        FedError::SecAgg(SecAggError::TooFewSurvivors {
            survivors,
            threshold,
        }) => {
            assert!(survivors < threshold);
            assert_eq!(threshold, 3, "merge threshold governs the abort");
        }
        other => panic!("expected a merge-tier TooFewSurvivors abort, got {other:?}"),
    }
    // The matching telemetry slot exists and is distinct from every mode a
    // successful round can report.
    assert_ne!(DegradedMode::Aborted, DegradedMode::Partial);
}

/// Config compression changes bytes, not estimates: the compressed
/// downlink (broadcast header + 2-byte per-client delta) reproduces the
/// uncompressed run bit for bit, books its savings in the traffic ledger,
/// and the uncompressed codec keeps working as the fallback.
#[test]
fn config_compression_round_trips_and_books_savings() {
    let values = population(900);
    let cfg = base_config().with_dropout(DropoutModel::bernoulli(0.1));
    let compressed_cfg = cfg.clone().with_config_compression();

    let mut t1 = InMemoryTransport::new(77);
    let plain =
        run_federated_mean_transport(&values, &cfg, &mut t1, &mut StdRng::seed_from_u64(41))
            .unwrap();
    let mut t2 = InMemoryTransport::new(77);
    let compressed = run_federated_mean_transport(
        &values,
        &compressed_cfg,
        &mut t2,
        &mut StdRng::seed_from_u64(41),
    )
    .unwrap();

    assert_eq!(
        plain.outcome.estimate.to_bits(),
        compressed.outcome.estimate.to_bits(),
        "compression must be wire-only"
    );
    assert_eq!(plain.reports, compressed.reports);
    assert_eq!(plain.robustness.traffic.config_bytes_saved(), 0);
    let saved = compressed.robustness.traffic.config_bytes_saved();
    assert!(saved > 0, "no savings booked");
    let plain_cfg_down = cfg_downlink_bytes(&plain);
    let compressed_cfg_down = cfg_downlink_bytes(&compressed);
    assert!(
        compressed_cfg_down < plain_cfg_down,
        "configure downlink did not shrink: {compressed_cfg_down} vs {plain_cfg_down}"
    );

    // The hierarchical path inherits the same collect machinery, so the
    // compressed downlink composes with two-tier secagg unchanged.
    let hier = HierSecConfig::try_new(4, settings(), 3, 0xC0).unwrap();
    let secure = secure_config().with_dropout(DropoutModel::bernoulli(0.1));
    let secure_compressed = secure.clone().with_config_compression();
    let a = run_hierarchical_mean(&values, &secure, &hier, 2, 41).unwrap();
    let b = run_hierarchical_mean(&values, &secure_compressed, &hier, 2, 41).unwrap();
    assert_eq!(a.outcome.estimate.to_bits(), b.outcome.estimate.to_bits());
    assert!(b.traffic.config_bytes_saved() > 0);
    assert_eq!(a.traffic.config_bytes_saved(), 0);
}

fn cfg_downlink_bytes(out: &fednum_fedsim::round::FederatedOutcome) -> u64 {
    out.robustness
        .traffic
        .get(TrafficPhase::Configure, Direction::Downlink)
        .bytes
}

/// Hierarchical straggler salvage, end to end: shards re-admit their
/// parked stragglers through *fresh-mask* salvage instances, a second
/// K'-party merge folds the late sums into the estimate, and the surviving
/// shards are never re-run — their base-phase traffic is byte-identical to
/// the discard run.
#[test]
fn hier_salvage_readmits_late_shards_under_fresh_masks() {
    use fednum_fedsim::round::SalvageOutcome;
    use fednum_fedsim::SalvagePolicy;

    let values = population(2_400);
    let discard = secure_config()
        .with_faults(
            FaultPlan::new(
                FaultRates {
                    straggle: 0.2,
                    ..FaultRates::none()
                },
                0x5A19,
            )
            .unwrap(),
        )
        .with_retry(RetryPolicy {
            max_secagg_retries: 2,
            base_backoff: 0.5,
            max_backoff: 8.0,
            min_cohort: 5,
        });
    let salvage = discard.clone().with_salvage(SalvagePolicy::default());
    let hier = HierSecConfig::try_new(6, settings(), 4, 0x5A1F).unwrap();

    let off = run_hierarchical_mean(&values, &discard, &hier, 2, 71).unwrap();
    let on = run_hierarchical_mean(&values, &salvage, &hier, 2, 71).unwrap();

    assert!(
        off.late_frames > 100,
        "too few stragglers: {}",
        off.late_frames
    );
    assert_eq!(off.salvage, None);
    let Some(SalvageOutcome::Salvaged { reports }) = on.salvage else {
        panic!("hier salvage never fired: {:?}", on.salvage);
    };
    assert!(reports >= 2);
    assert_eq!(on.late_frames, off.late_frames, "base collection perturbed");
    assert_eq!(
        on.reports,
        off.reports + reports,
        "salvaged reports missing from the published count"
    );
    assert!(
        on.salvaged_shards.len() >= 2,
        "a K'-party salvage merge needs at least two late shards, got {:?}",
        on.salvaged_shards
    );
    assert_eq!(
        on.included_shards, off.included_shards,
        "salvage must not change which base sums are included"
    );

    // No re-running survivors: every phase of the shard tier except Salvage
    // is byte-identical to the discard run — the extra work is confined to
    // the salvage sessions.
    for phase in TrafficPhase::ALL {
        if phase == TrafficPhase::Salvage {
            continue;
        }
        for dir in [Direction::Uplink, Direction::Downlink] {
            assert_eq!(
                off.shard_traffic.get(phase, dir),
                on.shard_traffic.get(phase, dir),
                "salvage re-ran base work in phase {phase:?}/{dir:?}"
            );
        }
    }
    assert!(
        on.shard_traffic
            .get(TrafficPhase::Salvage, Direction::Uplink)
            .messages
            > 0,
        "shard-tier salvage sessions metered nothing"
    );
    assert!(
        on.merge_traffic
            .get(TrafficPhase::Salvage, Direction::Uplink)
            .messages
            > 0,
        "merge-tier salvage session metered nothing"
    );

    // Fresh masks on the audit surface: the merge wire now carries the base
    // instance's masked sums *and* the salvage instance's — every one in
    // masked range, no two frames identical (a reused mask would repeat).
    let plaintext_bound = 1u64 << 32;
    let mut masked_frames: Vec<&Vec<u8>> = Vec::new();
    for frame in &on.merge_frames {
        if let Some(values) = masked_upload(frame) {
            let max = values.iter().copied().max().unwrap();
            assert!(
                max > plaintext_bound,
                "late shard sum leaked unmasked (max {max})"
            );
            masked_frames.push(frame);
        }
    }
    assert_eq!(
        masked_frames.len(),
        on.included_shards.len() + on.salvaged_shards.len(),
        "one masked upload per base party plus one per salvage party"
    );
    for i in 0..masked_frames.len() {
        for j in (i + 1)..masked_frames.len() {
            assert_ne!(
                masked_frames[i], masked_frames[j],
                "two identical masked frames: salvage reused mask material"
            );
        }
    }
}

/// Worker-pool parity holds with salvage in the loop: the re-admission
/// sessions inherit the deterministic pool contract.
#[test]
fn hier_salvage_is_worker_invariant() {
    use fednum_fedsim::SalvagePolicy;

    let values = population(1_800);
    let cfg = secure_config()
        .with_dropout(DropoutModel::bernoulli(0.1))
        .with_faults(
            FaultPlan::new(
                FaultRates {
                    straggle: 0.15,
                    drop_before_unmask: 0.03,
                    ..FaultRates::none()
                },
                0x90B0,
            )
            .unwrap(),
        )
        .with_salvage(SalvagePolicy::default());
    let hier = HierSecConfig::try_new(5, settings(), 3, 0x90B1).unwrap();
    let sequential = run_hierarchical_mean(&values, &cfg, &hier, 1, 83).unwrap();
    assert!(
        sequential.salvage.is_some(),
        "scenario must exercise the salvage path"
    );
    for workers in [2, 4, 8] {
        let pooled = run_hierarchical_mean(&values, &cfg, &hier, workers, 83).unwrap();
        assert_eq!(
            pooled.outcome.estimate.to_bits(),
            sequential.outcome.estimate.to_bits(),
            "workers={workers}: salvaged estimate diverges"
        );
        assert_eq!(pooled.salvage, sequential.salvage, "workers={workers}");
        assert_eq!(
            pooled.salvaged_shards, sequential.salvaged_shards,
            "workers={workers}"
        );
        assert_eq!(pooled.reports, sequential.reports, "workers={workers}");
        assert_eq!(pooled.traffic, sequential.traffic, "workers={workers}");
        assert_eq!(
            pooled.merge_frames, sequential.merge_frames,
            "workers={workers}"
        );
    }
}

/// A shard degraded at the base merge cut still gets its parked stragglers
/// counted: across a hostile sweep some shard must land in *both*
/// `degraded_shards` and `salvaged_shards`, with its late reports inside
/// the published total — and without any shard re-running.
#[test]
fn degraded_shards_recover_their_stragglers_late() {
    use fednum_fedsim::round::SalvageOutcome;
    use fednum_fedsim::SalvagePolicy;

    // Tuned so a shard's survival is a near coin flip: ~56% of each cohort
    // reports (25% dropout, then 25% straggle) against a 53% threshold.
    let strict = SecAggSettings {
        threshold_fraction: 0.53,
        neighbors: None,
    };
    let mut recovered_while_degraded = 0usize;
    for seed in 0..12u64 {
        let values = population(900);
        let mut cfg = base_config()
            .with_secagg(strict)
            .with_dropout(DropoutModel::bernoulli(0.25))
            .with_faults(
                FaultPlan::new(
                    FaultRates {
                        straggle: 0.25,
                        ..FaultRates::none()
                    },
                    0xDE6 ^ seed,
                )
                .unwrap(),
            )
            .with_salvage(SalvagePolicy::default());
        cfg.retry = RetryPolicy {
            max_secagg_retries: 0,
            base_backoff: 0.5,
            max_backoff: 8.0,
            min_cohort: 2,
        };
        cfg.session_seed = 0xDE60 + seed;
        let hier = HierSecConfig::try_new(4, strict, 2, 0xDE61 ^ seed).unwrap();
        let Ok(out) = run_hierarchical_mean(&values, &cfg, &hier, 2, seed) else {
            continue;
        };
        let both: Vec<usize> = out
            .salvaged_shards
            .iter()
            .filter(|s| out.degraded_shards.contains(s))
            .copied()
            .collect();
        if !both.is_empty() {
            recovered_while_degraded += 1;
            let Some(SalvageOutcome::Salvaged { reports }) = out.salvage else {
                panic!("salvaged_shards non-empty without Salvaged telemetry");
            };
            assert!(reports >= out.salvaged_shards.len() as u64);
            // The degraded shard is still excluded from the *base* sums.
            assert!(!out.included_shards.contains(&both[0]));
        }
    }
    assert!(
        recovered_while_degraded > 0,
        "sweep never salvaged a degraded shard's stragglers"
    );
}
