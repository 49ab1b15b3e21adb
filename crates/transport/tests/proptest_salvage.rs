//! Property tests for straggler salvage (ISSUE satellite: determinism and
//! strict additivity under randomized fault plans).
//!
//! Invariants pinned here:
//! * same seed + same fault plan ⇒ bit-identical salvaged estimate, on the
//!   flat path and — regardless of worker count — on the hierarchy;
//! * salvage is strictly additive: the base collection (late-frame count,
//!   rejection tallies) is untouched, and the published report count is
//!   exactly the discard run's plus the salvaged telemetry;
//! * an armed policy over a straggler-free plan changes nothing, bit for
//!   bit.

use fednum_core::encoding::FixedPointCodec;
use fednum_core::protocol::basic::BasicConfig;
use fednum_core::sampling::BitSampling;
use fednum_fedsim::faults::{FaultPlan, FaultRates};
use fednum_fedsim::round::{FederatedMeanConfig, SalvageOutcome, SecAggSettings};
use fednum_fedsim::{RetryPolicy, SalvagePolicy};
use fednum_hiersec::HierSecConfig;
use fednum_transport::net::SimNetTransport;
use fednum_transport::{HierShardedOutcome, RoundBuilder, Transport};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BITS: u32 = 8;

// Builder-backed stand-ins for the removed free functions; the property
// bodies below keep their original call shapes.
fn run_federated_mean_transport(
    values: &[f64],
    config: &FederatedMeanConfig,
    transport: &mut dyn Transport,
    rng: &mut dyn Rng,
) -> Result<fednum_fedsim::round::FederatedOutcome, fednum_fedsim::FedError> {
    RoundBuilder::new(config.clone())
        .via(transport)
        .rng(rng)
        .run(values)
        .map(|out| out.flat().unwrap().clone())
}

fn run_hierarchical_mean(
    values: &[f64],
    config: &FederatedMeanConfig,
    hier: &HierSecConfig,
    workers: usize,
    seed: u64,
) -> Result<HierShardedOutcome, fednum_fedsim::FedError> {
    RoundBuilder::new(config.clone())
        .hierarchical(*hier, workers)
        .seed(seed)
        .run(values)
        .map(|out| out.hierarchical().unwrap().clone())
}

fn config(straggle: f64, plan_seed: u64, secagg: bool) -> FederatedMeanConfig {
    let mut cfg = FederatedMeanConfig::new(BasicConfig::new(
        FixedPointCodec::integer(BITS),
        BitSampling::geometric(BITS, 1.0),
    ))
    .with_retry(RetryPolicy {
        max_secagg_retries: 2,
        base_backoff: 0.5,
        max_backoff: 8.0,
        min_cohort: 5,
    });
    if secagg {
        cfg = cfg.with_secagg(SecAggSettings {
            threshold_fraction: 0.5,
            neighbors: Some(12),
        });
    }
    if straggle > 0.0 {
        cfg = cfg.with_faults(
            FaultPlan::new(
                FaultRates {
                    straggle,
                    ..FaultRates::none()
                },
                plan_seed,
            )
            .unwrap(),
        );
    }
    cfg.session_seed = plan_seed ^ 0x5A15;
    cfg
}

fn values(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as u64 * 41 + seed * 7) % 220) as f64)
        .collect()
}

fn run_flat(
    vs: &[f64],
    cfg: &FederatedMeanConfig,
    seed: u64,
) -> fednum_fedsim::round::FederatedOutcome {
    let mut transport = SimNetTransport::for_config(cfg, seed);
    run_federated_mean_transport(vs, cfg, &mut transport, &mut StdRng::seed_from_u64(seed)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Flat path: salvage replays bit-identically and its gains are exactly
    /// the telemetry's re-admitted count on top of the discard run.
    #[test]
    fn flat_salvage_is_deterministic_and_strictly_additive(
        population in 150usize..500,
        straggle in 0.05f64..0.25,
        plan_seed in 0u64..500,
        secagg in any::<bool>(),
    ) {
        let vs = values(population, plan_seed);
        let discard = config(straggle, plan_seed, secagg);
        let salvage = discard.clone().with_salvage(SalvagePolicy::default());

        let off = run_flat(&vs, &discard, plan_seed);
        let on = run_flat(&vs, &salvage, plan_seed);
        let replay = run_flat(&vs, &salvage, plan_seed);

        prop_assert_eq!(on.outcome.estimate.to_bits(), replay.outcome.estimate.to_bits());
        prop_assert_eq!(&on.robustness.salvage, &replay.robustness.salvage);
        prop_assert_eq!(on.reports, replay.reports);

        prop_assert_eq!(on.robustness.late_frames, off.robustness.late_frames);
        prop_assert_eq!(&on.robustness.rejections, &off.robustness.rejections);
        match on.robustness.salvage {
            Some(SalvageOutcome::Salvaged { reports }) => {
                prop_assert_eq!(on.reports, off.reports + reports);
            }
            Some(SalvageOutcome::SalvageSkipped | SalvageOutcome::SalvageAborted) | None => {
                // Worst case equals discard exactly.
                prop_assert_eq!(on.reports, off.reports);
                prop_assert_eq!(on.outcome.estimate.to_bits(), off.outcome.estimate.to_bits());
            }
        }
    }

    /// Hierarchy: the salvaged estimate never depends on the worker count.
    #[test]
    fn hier_salvage_is_worker_invariant_under_random_plans(
        shards in 3usize..6,
        straggle in 0.08f64..0.22,
        plan_seed in 0u64..200,
    ) {
        let vs = values(shards * 220, plan_seed);
        let cfg = config(straggle, plan_seed, true)
            .with_salvage(SalvagePolicy::default());
        let hier = HierSecConfig::try_new(
            shards,
            SecAggSettings { threshold_fraction: 0.5, neighbors: Some(12) },
            shards - 1,
            plan_seed ^ 0x41E5,
        ).unwrap();
        let sequential = run_hierarchical_mean(&vs, &cfg, &hier, 1, plan_seed);
        for workers in [2usize, 4] {
            let pooled = run_hierarchical_mean(&vs, &cfg, &hier, workers, plan_seed);
            match (&sequential, &pooled) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.outcome.estimate.to_bits(), b.outcome.estimate.to_bits());
                    prop_assert_eq!(&a.salvage, &b.salvage);
                    prop_assert_eq!(&a.salvaged_shards, &b.salvaged_shards);
                    prop_assert_eq!(a.reports, b.reports);
                    prop_assert_eq!(&a.merge_frames, &b.merge_frames);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "pool width changed success: {:?} vs {:?}", a, b),
            }
        }
    }

    /// An armed policy with no straggle class in the plan is invisible.
    #[test]
    fn armed_salvage_without_stragglers_changes_nothing(
        population in 100usize..300,
        plan_seed in 0u64..200,
        secagg in any::<bool>(),
    ) {
        // Faults that never straggle: drops park nothing.
        let rates = FaultRates {
            drop_before_report: 0.05,
            ..FaultRates::none()
        };
        let mut discard = config(0.0, plan_seed, secagg)
            .with_faults(FaultPlan::new(rates, plan_seed ^ 0xD60).unwrap());
        discard.session_seed = plan_seed ^ 0x1D1E;
        let salvage = discard.clone().with_salvage(SalvagePolicy::default());
        let off = run_flat(&values(population, plan_seed), &discard, plan_seed);
        let on = run_flat(&values(population, plan_seed), &salvage, plan_seed);
        prop_assert_eq!(off.outcome.estimate.to_bits(), on.outcome.estimate.to_bits());
        prop_assert_eq!(off.reports, on.reports);
        prop_assert_eq!(off.completion_time.to_bits(), on.completion_time.to_bits());
        prop_assert_eq!(on.robustness.salvage, Some(SalvageOutcome::SalvageSkipped));
    }
}
