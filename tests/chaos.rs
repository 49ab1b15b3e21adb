//! Chaos suite: seeded fault-injection scenarios over the full
//! population → fedsim → secagg → core pipeline.
//!
//! Every scenario runs under `catch_unwind`: whatever the fleet does —
//! dropouts, stragglers, corrupted bits, duplicated/replayed/stale reports,
//! unmask failures — the orchestrator must either produce a usable estimate
//! or fail with a typed [`FedError`], never panic. Successful degraded
//! rounds must land within a predicted-error envelope, and the privacy
//! ledger must never charge a client twice for one round, no matter how many
//! retry waves re-sent its report.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fednum::core::encoding::FixedPointCodec;
use fednum::core::privacy::{PrivacyLedger, RandomizedResponse};
use fednum::core::protocol::basic::BasicConfig;
use fednum::core::sampling::BitSampling;
use fednum::fedsim::faults::{FaultPlan, FaultRates};
use fednum::fedsim::round::{DegradedMode, FederatedMeanConfig, FederatedOutcome, SecAggSettings};
use fednum::fedsim::{Client, DropoutModel, ElicitStrategy, FedError, Population, RetryPolicy};
use fednum::RoundBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BITS: u32 = 8;
const DOMAIN: f64 = 256.0; // integer(8) codec span

// Builder-backed stand-ins for the removed free functions: the chaos
// grids below predate `RoundBuilder` and keep their original call shapes;
// the facade is what actually runs.
fn run_federated_mean_metered(
    values: &[f64],
    config: &FederatedMeanConfig,
    ledger: &mut PrivacyLedger,
    rng: &mut dyn Rng,
) -> Result<FederatedOutcome, FedError> {
    RoundBuilder::new(config.clone())
        .metered(ledger)
        .rng(rng)
        .run(values)
        .map(|out| out.flat().unwrap().clone())
}

fn run_federated_mean_transport_metered(
    values: &[f64],
    config: &FederatedMeanConfig,
    ledger: &mut PrivacyLedger,
    transport: &mut dyn fednum::transport::Transport,
    rng: &mut dyn Rng,
) -> Result<FederatedOutcome, FedError> {
    RoundBuilder::new(config.clone())
        .metered(ledger)
        .via(transport)
        .rng(rng)
        .run(values)
        .map(|out| out.flat().unwrap().clone())
}

fn run_hierarchical_mean(
    values: &[f64],
    config: &FederatedMeanConfig,
    hier: &fednum::hiersec::HierSecConfig,
    workers: usize,
    seed: u64,
) -> Result<fednum::transport::HierShardedOutcome, FedError> {
    RoundBuilder::new(config.clone())
        .hierarchical(*hier, workers)
        .seed(seed)
        .run(values)
        .map(|out| out.hierarchical().unwrap().clone())
}

/// One cell of the scenario grid.
struct Scenario {
    id: u64,
    population: usize,
    dropout: DropoutModel,
    fault_scale: f64,
    rates: FaultRates,
    secagg: Option<SecAggSettings>,
    max_waves: u32,
}

fn scenario_grid() -> Vec<Scenario> {
    let populations = [60usize, 250, 1000];
    let dropouts = [
        DropoutModel::None,
        DropoutModel::bernoulli(0.25),
        DropoutModel::phased(0.1, 0.2),
    ];
    let fault_scales = [0.0f64, 0.01, 0.03];
    // Plus one skewed mix dominated by the replay/duplicate classes.
    let skewed = FaultRates {
        duplicate: 0.08,
        replay: 0.05,
        stale_round: 0.03,
        ..FaultRates::none()
    };
    let transports = [
        None,
        Some(SecAggSettings {
            threshold_fraction: 0.5,
            neighbors: Some(32),
        }),
        // Tight threshold: after-masking dropout regularly forces the
        // re-masked retry path.
        Some(SecAggSettings {
            threshold_fraction: 0.8,
            neighbors: Some(32),
        }),
    ];
    let waves = [1u32, 3];

    let mut grid = Vec::new();
    let mut id = 0u64;
    for &population in &populations {
        for &dropout in &dropouts {
            for fault_case in 0..=fault_scales.len() {
                for &secagg in &transports {
                    for &max_waves in &waves {
                        let (fault_scale, rates) = if fault_case < fault_scales.len() {
                            let s = fault_scales[fault_case];
                            (s, FaultRates::uniform(s))
                        } else {
                            (0.16 / 7.0, skewed)
                        };
                        id += 1;
                        grid.push(Scenario {
                            id,
                            population,
                            dropout,
                            fault_scale,
                            rates,
                            secagg,
                            max_waves,
                        });
                    }
                }
            }
        }
    }
    grid
}

/// Builds a multi-value population and elicits one value per client, so the
/// scenario exercises the population layer too.
fn elicit(scenario: &Scenario) -> Vec<f64> {
    let clients: Vec<Client> = (0..scenario.population as u64)
        .map(|i| {
            let base = (i * 37 + scenario.id * 13) % 200;
            let values: Vec<f64> = (0..=(i % 3)).map(|k| (base + 10 * k) as f64).collect();
            Client::new(i, (i % 4) as u32, values)
        })
        .collect();
    let strategy = if scenario.id.is_multiple_of(2) {
        ElicitStrategy::Sample
    } else {
        ElicitStrategy::LocalAggregate
    };
    let mut rng = StdRng::seed_from_u64(scenario.id ^ 0xE11C);
    Population::new(clients).elicit(strategy, &mut rng)
}

fn config_for(scenario: &Scenario) -> FederatedMeanConfig {
    let mut protocol = BasicConfig::new(
        FixedPointCodec::integer(BITS),
        BitSampling::geometric(BITS, 1.0),
    );
    if scenario.id.is_multiple_of(5) {
        protocol = protocol.with_privacy(RandomizedResponse::from_epsilon(3.0));
    }
    let mut cfg = FederatedMeanConfig::new(protocol)
        .with_dropout(scenario.dropout)
        .with_retry(RetryPolicy {
            max_secagg_retries: 2,
            base_backoff: 0.5,
            max_backoff: 8.0,
            min_cohort: 5,
        });
    if scenario.max_waves > 1 {
        cfg = cfg.with_auto_adjust(scenario.max_waves, 5, 0.7);
    }
    if let Some(settings) = scenario.secagg {
        cfg = cfg.with_secagg(settings);
    }
    if scenario.fault_scale > 0.0 {
        cfg = cfg.with_faults(FaultPlan::new(scenario.rates, scenario.id ^ 0xFA17).unwrap());
    }
    cfg.session_seed = 0x1000 + scenario.id;
    cfg
}

#[test]
fn chaos_scenarios_never_panic_and_degrade_predictably() {
    let grid = scenario_grid();
    assert!(
        grid.len() >= 200,
        "chaos grid must span at least 200 scenarios, has {}",
        grid.len()
    );

    let mut successes = 0usize;
    let mut degraded_successes = 0usize;
    let mut retried = 0usize;
    let mut typed_failures = 0usize;
    let mut out_of_envelope = 0usize;

    for scenario in &grid {
        let values = elicit(scenario);
        let truth = values.iter().sum::<f64>() / values.len() as f64;
        let config = config_for(scenario);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut ledger = PrivacyLedger::new();
            let mut rng = StdRng::seed_from_u64(scenario.id ^ 0xC4A0);
            let out = run_federated_mean_metered(&values, &config, &mut ledger, &mut rng);
            (out, ledger)
        }));
        let (outcome, ledger) = result.unwrap_or_else(|_| {
            panic!(
                "scenario {} (n={}, faults={:.3}, secagg={}) panicked",
                scenario.id,
                scenario.population,
                scenario.fault_scale,
                scenario.secagg.is_some()
            )
        });
        // Whatever happened, the round billed each client at most one bit:
        // retry waves never double-charge.
        assert!(
            ledger.max_bits_per_client() <= 1,
            "scenario {}: ledger charged {} bits to one client",
            scenario.id,
            ledger.max_bits_per_client()
        );
        match outcome {
            Ok(out) => {
                successes += 1;
                if out.robustness.degraded != DegradedMode::Clean {
                    degraded_successes += 1;
                }
                retried += usize::from(out.robustness.secagg_retries > 0);
                // Predicted-error envelope: statistical spread plus a bias
                // allowance for the undetectable corruption classes
                // (corrupted bits, naive-accepted stale payloads), which
                // shift bit means by up to their injection rate.
                let bias_allowance =
                    2.0 * (scenario.rates.corrupt_bit + scenario.rates.stale_round) * DOMAIN;
                let tolerance = 8.0 * out.outcome.predicted_std.max(DOMAIN * 0.005)
                    + bias_allowance
                    + DOMAIN * 0.02;
                if (out.outcome.estimate - truth).abs() > tolerance {
                    out_of_envelope += 1;
                    eprintln!(
                        "scenario {}: estimate {} vs truth {truth} outside ±{tolerance:.2}",
                        scenario.id, out.outcome.estimate
                    );
                }
            }
            Err(e) => {
                // Every failure must be one of the typed classes.
                typed_failures += 1;
                match e {
                    FedError::NoReports
                    | FedError::SecAgg(_)
                    | FedError::CohortTooSmall { .. }
                    | FedError::PopulationTooSmall { .. }
                    | FedError::Budget(_)
                    | FedError::BitOutOfRange { .. }
                    | FedError::InvalidConfig(_) => {}
                    // The sync in-memory engine never touches a socket; a
                    // transport error here is a pipeline bug, not chaos.
                    FedError::Transport { .. } => {
                        panic!(
                            "scenario {}: transport error without a wire: {e}",
                            scenario.id
                        )
                    }
                }
            }
        }
    }

    assert_eq!(out_of_envelope, 0, "estimates escaped the error envelope");
    assert!(
        successes >= grid.len() / 2,
        "most scenarios should produce an estimate: {successes}/{}",
        grid.len()
    );
    assert!(
        degraded_successes > 20,
        "degraded recovery paths must be exercised, got {degraded_successes}"
    );
    assert!(
        retried > 0,
        "the secagg retry path must fire somewhere in the grid"
    );
    eprintln!(
        "chaos: {} scenarios, {successes} ok ({degraded_successes} degraded, {retried} retried), \
         {typed_failures} typed failures",
        grid.len()
    );
}

#[test]
fn hostile_scenarios_fail_typed_never_panic() {
    // Fleets hostile enough that the round cannot complete: near-total
    // dropout, cohorts below the privacy minimum, unmask failures with no
    // retry budget. Every one must surface a typed error.
    let mut failures = 0usize;
    for seed in 0..40u64 {
        let values: Vec<f64> = (0..25).map(|i| f64::from(i % 10)).collect();
        let mut cfg = config_for(&Scenario {
            id: seed,
            population: values.len(),
            dropout: DropoutModel::bernoulli(0.95),
            fault_scale: 0.05,
            rates: FaultRates::uniform(0.05),
            secagg: seed.is_multiple_of(2).then_some(SecAggSettings {
                threshold_fraction: 0.9,
                neighbors: None,
            }),
            max_waves: 1,
        });
        cfg.retry = RetryPolicy {
            max_secagg_retries: 0,
            base_backoff: 0.0,
            max_backoff: 0.0,
            min_cohort: 8,
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut ledger = PrivacyLedger::new();
            let mut rng = StdRng::seed_from_u64(seed);
            run_federated_mean_metered(&values, &cfg, &mut ledger, &mut rng)
        }))
        .unwrap_or_else(|_| panic!("hostile scenario {seed} panicked"));
        if let Err(e) = outcome {
            failures += 1;
            assert!(!e.to_string().is_empty());
        }
    }
    assert!(
        failures >= 30,
        "hostile fleets should fail in most runs, got {failures}/40"
    );
}

#[test]
fn chaos_failures_are_deterministic_per_seed() {
    // The same scenario id replays to the identical outcome: fault sampling
    // is hash-based and draws nothing from the orchestrator RNG stream.
    let grid = scenario_grid();
    for scenario in grid.iter().step_by(37) {
        let values = elicit(scenario);
        let config = config_for(scenario);
        let run = || {
            let mut ledger = PrivacyLedger::new();
            let mut rng = StdRng::seed_from_u64(scenario.id ^ 0xC4A0);
            run_federated_mean_metered(&values, &config, &mut ledger, &mut rng)
                .map(|o| (o.outcome.estimate, o.reports, o.robustness))
                .map_err(|e| e.to_string())
        };
        assert_eq!(run(), run(), "scenario {} must replay", scenario.id);
    }
}

#[test]
fn chaos_scenarios_degrade_identically_over_the_simulated_network() {
    // The whole scenario matrix, replayed through the event-driven
    // transport: wire faults acted out by `SimNetTransport`, client faults
    // by the coordinator's client model. Every scenario must land exactly
    // where the legacy synchronous loop landed — same estimate bits, same
    // degradation class, same typed error — with zero panics.
    use fednum::transport::net::SimNetTransport;
    use fednum::transport::{InMemoryTransport, Transport};

    let grid = scenario_grid();
    let mut identical = 0usize;
    let mut degraded = 0usize;
    for scenario in &grid {
        let values = elicit(scenario);
        let config = config_for(scenario);
        let legacy = {
            let mut ledger = PrivacyLedger::new();
            let mut rng = StdRng::seed_from_u64(scenario.id ^ 0xC4A0);
            run_federated_mean_metered(&values, &config, &mut ledger, &mut rng)
        };
        let evented = catch_unwind(AssertUnwindSafe(|| {
            let mut ledger = PrivacyLedger::new();
            let mut rng = StdRng::seed_from_u64(scenario.id ^ 0xC4A0);
            let mut transport: Box<dyn Transport> = if config.faults.is_some() {
                Box::new(SimNetTransport::for_config(&config, scenario.id))
            } else {
                Box::new(InMemoryTransport::new(scenario.id))
            };
            run_federated_mean_transport_metered(
                &values,
                &config,
                &mut ledger,
                transport.as_mut(),
                &mut rng,
            )
        }))
        .unwrap_or_else(|_| panic!("scenario {} panicked over the transport", scenario.id));
        match (legacy, evented) {
            (Ok(l), Ok(e)) => {
                identical += 1;
                degraded += usize::from(e.robustness.degraded != DegradedMode::Clean);
                assert_eq!(
                    l.outcome.estimate.to_bits(),
                    e.outcome.estimate.to_bits(),
                    "scenario {}: transport estimate diverged",
                    scenario.id
                );
                assert_eq!(
                    l.robustness.degraded, e.robustness.degraded,
                    "scenario {}: degradation class diverged",
                    scenario.id
                );
                assert_eq!(
                    l.robustness.rejections, e.robustness.rejections,
                    "scenario {}: rejection counts diverged",
                    scenario.id
                );
                assert!(
                    e.robustness.traffic.total_messages() > 0,
                    "scenario {}: transport path metered no traffic",
                    scenario.id
                );
            }
            (Err(l), Err(e)) => {
                assert_eq!(l, e, "scenario {}: error classes diverged", scenario.id)
            }
            (l, e) => panic!(
                "scenario {}: paths disagree on success: legacy={l:?} transport={e:?}",
                scenario.id
            ),
        }
    }
    assert!(
        identical >= grid.len() / 2,
        "most scenarios should succeed identically: {identical}/{}",
        grid.len()
    );
    assert!(
        degraded > 20,
        "degraded classes must be exercised over the transport, got {degraded}"
    );
}

#[test]
fn salvage_never_worsens_the_estimate_across_the_chaos_grid() {
    // The salvage pass (ISSUE satellite): a reduced cut of the scenario
    // matrix with the straggle class boosted so every cell parks frames,
    // each cell run twice over the simulated network — discard vs. an
    // armed salvage policy. Contracts: salvage is *strictly additive*
    // (reports never shrink, grid-aggregate NRMSE never worsens, cells
    // where the policy stays idle are bit-identical), failures stay typed
    // and identical, and the ledger keeps billing each client at most one
    // bit however many sessions touched its report.
    use fednum::fedsim::round::SalvageOutcome;
    use fednum::fedsim::SalvagePolicy;
    use fednum::transport::net::SimNetTransport;

    let grid: Vec<Scenario> = scenario_grid().into_iter().step_by(5).collect();
    assert!(
        grid.len() >= 40,
        "reduced salvage grid too thin: {}",
        grid.len()
    );

    let mut sq_err_discard = 0.0f64;
    let mut sq_err_salvage = 0.0f64;
    let mut compared = 0usize;
    let mut salvaged_cells = 0usize;
    let mut idle_cells = 0usize;
    let run = |cfg: &FederatedMeanConfig, values: &[f64], seed: u64| {
        catch_unwind(AssertUnwindSafe(|| {
            let mut ledger = PrivacyLedger::new();
            let mut transport = SimNetTransport::for_config(cfg, seed);
            let out = run_federated_mean_transport_metered(
                values,
                cfg,
                &mut ledger,
                &mut transport,
                &mut StdRng::seed_from_u64(seed ^ 0xC4A0),
            );
            assert!(
                ledger.max_bits_per_client() <= 1,
                "a client was billed {} bits",
                ledger.max_bits_per_client()
            );
            out
        }))
    };

    for scenario in &grid {
        let values = elicit(scenario);
        let truth = values.iter().sum::<f64>() / values.len() as f64;
        let mut discard = config_for(scenario);
        // Boost the straggle class on top of whatever the cell injects, so
        // the salvage path sees parked frames in (nearly) every cell.
        let rates = FaultRates {
            straggle: scenario.rates.straggle + 0.15,
            ..scenario.rates
        };
        discard = discard.with_faults(FaultPlan::new(rates, scenario.id ^ 0xFA17).unwrap());
        let salvage = discard.clone().with_salvage(SalvagePolicy::default());

        let off = run(&discard, &values, scenario.id)
            .unwrap_or_else(|_| panic!("scenario {}: discard run panicked", scenario.id));
        let on = run(&salvage, &values, scenario.id)
            .unwrap_or_else(|_| panic!("scenario {}: salvage run panicked", scenario.id));
        match (off, on) {
            (Ok(off), Ok(on)) => {
                assert!(
                    on.reports >= off.reports,
                    "scenario {}: salvage shrank the report count ({} < {})",
                    scenario.id,
                    on.reports,
                    off.reports
                );
                match on.robustness.salvage {
                    Some(SalvageOutcome::Salvaged { reports }) => {
                        salvaged_cells += 1;
                        assert_eq!(
                            on.reports,
                            off.reports + reports,
                            "scenario {}: salvage accounting broke",
                            scenario.id
                        );
                    }
                    Some(SalvageOutcome::SalvageSkipped | SalvageOutcome::SalvageAborted)
                    | None => {
                        idle_cells += 1;
                        assert_eq!(
                            on.outcome.estimate.to_bits(),
                            off.outcome.estimate.to_bits(),
                            "scenario {}: idle salvage perturbed the estimate",
                            scenario.id
                        );
                    }
                }
                compared += 1;
                sq_err_discard += ((off.outcome.estimate - truth) / DOMAIN).powi(2);
                sq_err_salvage += ((on.outcome.estimate - truth) / DOMAIN).powi(2);
            }
            (Err(l), Err(e)) => assert_eq!(
                l, e,
                "scenario {}: salvage changed the failure class",
                scenario.id
            ),
            (l, e) => panic!(
                "scenario {}: salvage flipped success: discard={l:?} salvage={e:?}",
                scenario.id
            ),
        }
    }
    assert!(
        salvaged_cells >= 10,
        "salvage fired in only {salvaged_cells} cells"
    );
    assert!(compared >= grid.len() / 2);
    let nrmse_discard = (sq_err_discard / compared as f64).sqrt();
    let nrmse_salvage = (sq_err_salvage / compared as f64).sqrt();
    assert!(
        nrmse_salvage <= nrmse_discard + 1e-12,
        "salvage worsened grid NRMSE: {nrmse_salvage:.6} vs discard {nrmse_discard:.6}"
    );
    eprintln!(
        "salvage chaos: {compared} cells compared ({salvaged_cells} salvaged, {idle_cells} idle), \
         NRMSE {nrmse_salvage:.6} (salvage) vs {nrmse_discard:.6} (discard)"
    );

    // Hostile seeds on top: fleets straggling half their reports under
    // thresholds with no slack. Salvage must never panic, and whatever it
    // returns is typed or an estimate — the additive guarantee at its most
    // adversarial.
    for seed in 0..12u64 {
        let values: Vec<f64> = (0..60).map(|i| f64::from(i % 30)).collect();
        let mut cfg = config_for(&Scenario {
            id: seed,
            population: values.len(),
            dropout: DropoutModel::bernoulli(0.4),
            fault_scale: 0.5,
            rates: FaultRates {
                straggle: 0.5,
                drop_before_unmask: 0.1,
                ..FaultRates::none()
            },
            secagg: seed.is_multiple_of(2).then_some(SecAggSettings {
                threshold_fraction: 0.8,
                neighbors: None,
            }),
            max_waves: 1,
        });
        cfg = cfg
            .with_faults(
                FaultPlan::new(
                    FaultRates {
                        straggle: 0.5,
                        drop_before_unmask: 0.1,
                        ..FaultRates::none()
                    },
                    seed ^ 0xB05,
                )
                .unwrap(),
            )
            .with_salvage(SalvagePolicy::default());
        cfg.retry = RetryPolicy {
            max_secagg_retries: 0,
            base_backoff: 0.0,
            max_backoff: 0.0,
            min_cohort: 8,
        };
        let outcome = run(&cfg, &values, seed)
            .unwrap_or_else(|_| panic!("hostile salvage seed {seed} panicked"));
        if let Err(e) = outcome {
            assert!(!e.to_string().is_empty());
        }
    }
}

#[test]
fn chaos_matrix_composes_with_hierarchical_secagg() {
    // A reduced cut of the scenario matrix replayed through the two-tier
    // path: the same fault plans now hit K independent shard sessions, and
    // shard-level secagg failures degrade shards into the merge tier
    // instead of killing the round. Contracts: no panics, every failure
    // typed (merge-tier aborts map to `DegradedMode::Aborted` in
    // telemetry), shard bookkeeping partitions cleanly, and the worker
    // pool never changes the outcome.
    use fednum::hiersec::HierSecConfig;

    let grid: Vec<Scenario> = scenario_grid()
        .into_iter()
        .filter(|s| s.population >= 250)
        .step_by(4)
        .collect();
    assert!(
        grid.len() >= 30,
        "reduced hier grid too thin: {}",
        grid.len()
    );

    let mut successes = 0usize;
    let mut shard_degraded = 0usize;
    let mut aborted = 0usize;
    let mut other_failures = 0usize;
    for scenario in &grid {
        let values = elicit(scenario);
        let truth = values.iter().sum::<f64>() / values.len() as f64;
        let mut config = config_for(scenario);
        // The hierarchy is the secure path: force secagg on so every cell
        // exercises both tiers.
        let settings = scenario.secagg.unwrap_or(SecAggSettings {
            threshold_fraction: 0.5,
            neighbors: Some(32),
        });
        config = config.with_secagg(settings);
        let hier = HierSecConfig::try_new(4, settings, 3, 0x41E5 ^ scenario.id).unwrap();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_hierarchical_mean(&values, &config, &hier, 2, scenario.id ^ 0xC4A0)
        }))
        .unwrap_or_else(|_| panic!("hier scenario {} panicked", scenario.id));
        match outcome {
            Ok(out) => {
                successes += 1;
                let mut all: Vec<usize> = out
                    .included_shards
                    .iter()
                    .chain(&out.degraded_shards)
                    .copied()
                    .collect();
                all.sort_unstable();
                assert_eq!(
                    all,
                    (0..4).collect::<Vec<_>>(),
                    "scenario {}: shards neither included nor degraded",
                    scenario.id
                );
                if !out.degraded_shards.is_empty() {
                    shard_degraded += 1;
                    assert_eq!(
                        out.degraded,
                        DegradedMode::Partial,
                        "scenario {}: degraded shards must report Partial",
                        scenario.id
                    );
                }
                let bias_allowance =
                    2.0 * (scenario.rates.corrupt_bit + scenario.rates.stale_round) * DOMAIN;
                let tolerance = 8.0 * out.outcome.predicted_std.max(DOMAIN * 0.005)
                    + bias_allowance
                    + DOMAIN * 0.05;
                assert!(
                    (out.outcome.estimate - truth).abs() <= tolerance,
                    "scenario {}: estimate {} vs truth {truth} outside ±{tolerance:.2}",
                    scenario.id,
                    out.outcome.estimate
                );
                // Pool parity holds cell by cell, chaos included.
                let replay =
                    run_hierarchical_mean(&values, &config, &hier, 4, scenario.id ^ 0xC4A0)
                        .expect("replay of a successful scenario must succeed");
                assert_eq!(
                    replay.outcome.estimate.to_bits(),
                    out.outcome.estimate.to_bits(),
                    "scenario {}: worker pool changed the estimate",
                    scenario.id
                );
            }
            Err(FedError::SecAgg(_)) => {
                // Merge-tier failure: the round aborts; telemetry maps this
                // to the reserved slot.
                aborted += 1;
                let mapped = DegradedMode::Aborted;
                assert_ne!(mapped, DegradedMode::Clean);
            }
            Err(
                FedError::NoReports
                | FedError::CohortTooSmall { .. }
                | FedError::PopulationTooSmall { .. }
                | FedError::InvalidConfig(_),
            ) => other_failures += 1,
            Err(e) => panic!("scenario {}: unexpected failure class {e:?}", scenario.id),
        }
    }
    assert!(
        successes >= grid.len() / 2,
        "most hier scenarios should publish: {successes}/{}",
        grid.len()
    );

    // A hostile sweep on top: per-shard thresholds tuned to the dropout
    // rate so each shard's survival is roughly a coin flip. Across seeds
    // this must surface both failure tiers — rounds that publish *around*
    // degraded shards, and rounds the merge threshold aborts.
    let strict = SecAggSettings {
        threshold_fraction: 0.7,
        neighbors: None,
    };
    for seed in 0..10u64 {
        let values: Vec<f64> = (0..248).map(|i| f64::from(i % 100)).collect();
        let mut cfg = FederatedMeanConfig::new(BasicConfig::new(
            FixedPointCodec::integer(BITS),
            BitSampling::geometric(BITS, 1.0),
        ))
        .with_dropout(DropoutModel::bernoulli(0.3))
        .with_secagg(strict);
        cfg.retry = RetryPolicy {
            max_secagg_retries: 0,
            base_backoff: 0.0,
            max_backoff: 0.0,
            min_cohort: 5,
        };
        cfg.session_seed = 0x2000 + seed;
        let hier = HierSecConfig::try_new(4, strict, 2, 0x9057 ^ seed).unwrap();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_hierarchical_mean(&values, &cfg, &hier, 2, seed)
        }))
        .unwrap_or_else(|_| panic!("hostile hier seed {seed} panicked"));
        match outcome {
            Ok(out) => {
                if !out.degraded_shards.is_empty() {
                    shard_degraded += 1;
                    assert_eq!(out.degraded, DegradedMode::Partial);
                }
            }
            Err(FedError::SecAgg(_)) => aborted += 1,
            Err(FedError::NoReports | FedError::CohortTooSmall { .. }) => other_failures += 1,
            Err(e) => panic!("hostile hier seed {seed}: unexpected class {e:?}"),
        }
    }
    assert!(
        shard_degraded > 0,
        "the sweep never degraded a shard — tier-1 recovery untested"
    );
    assert!(
        aborted > 0,
        "the sweep never aborted a merge — tier-2 failure untested"
    );
    eprintln!(
        "hier chaos: {} scenarios + 10 hostile, {successes} ok ({shard_degraded} with degraded \
         shards), {aborted} merge aborts, {other_failures} other typed failures",
        grid.len()
    );
}
