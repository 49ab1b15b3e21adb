//! Section 4.3 deployment findings, reproduced in simulation.

use std::time::Instant;

use fednum_core::bounds::{bits_for_magnitude, UpperBoundTracker};
use fednum_core::encoding::FixedPointCodec;
use fednum_core::protocol::basic::BasicConfig;
use fednum_core::sampling::BitSampling;
use fednum_fedsim::round::{FederatedMeanConfig, FederatedOutcome, SecAggSettings};
use fednum_fedsim::FedError;
use fednum_fedsim::{DropoutModel, LatencyModel};
use fednum_metrics::experiment::derive_seed;
use fednum_metrics::table::{Metric, Series, SeriesTable};
use fednum_metrics::{ErrorCollector, Repetitions};
use fednum_transport::{RoundBuilder, Transport};
use fednum_workloads::{Dataset, SpikeMixture};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::figures::{normal_population, Budget};
use crate::runner::clipped_with_mean;

// Builder-backed stand-ins for the removed free functions; the figure
// bodies keep their original call shapes.
fn run_federated_mean(
    values: &[f64],
    config: &FederatedMeanConfig,
    rng: &mut dyn rand::Rng,
) -> Result<FederatedOutcome, FedError> {
    RoundBuilder::new(config.clone())
        .rng(rng)
        .run(values)
        .map(|out| out.flat().unwrap().clone())
}

fn run_federated_mean_transport(
    values: &[f64],
    config: &FederatedMeanConfig,
    transport: &mut dyn Transport,
    rng: &mut dyn rand::Rng,
) -> Result<FederatedOutcome, FedError> {
    RoundBuilder::new(config.clone())
        .via(transport)
        .rng(rng)
        .run(values)
        .map(|out| out.flat().unwrap().clone())
}

const BITS: u32 = 12;

fn weighted_config(bits: u32) -> BasicConfig {
    BasicConfig::new(
        FixedPointCodec::integer(bits),
        BitSampling::geometric(bits, 1.0),
    )
}

/// Robustness to intermittent connectivity: NRMSE vs dropout rate, single
/// contact wave vs. auto-adjusted multi-wave refills.
#[must_use]
pub fn deploy_dropout(budget: Budget) -> SeriesTable {
    let rates = [0.0, 0.1, 0.3, 0.5, 0.7];
    let reps = Repetitions::new(budget.reps.min(40), budget.seed);
    let n = budget.n * 2;
    let mut single = Series::new("single-wave");
    let mut adjusted = Series::new("auto-adjusted");
    for &rate in &rates {
        let mut col_single = ErrorCollector::new();
        let mut col_adj = ErrorCollector::new();
        for t in 0..reps.trials {
            let seed = reps.seed_for(t);
            let raw = normal_population(500.0, 100.0, n, seed);
            let (values, truth) = clipped_with_mean(&raw, BITS);
            let dropout = if rate == 0.0 {
                DropoutModel::None
            } else {
                DropoutModel::bernoulli(rate)
            };
            let cfg_single = FederatedMeanConfig::new(weighted_config(BITS))
                .with_dropout(dropout)
                .with_auto_adjust(1, 40, 0.7);
            let cfg_adj = FederatedMeanConfig::new(weighted_config(BITS))
                .with_dropout(dropout)
                .with_auto_adjust(5, 40, 0.7);
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, 1));
            if let Ok(out) = run_federated_mean(&values, &cfg_single, &mut rng) {
                col_single.push(out.outcome.estimate, truth);
            }
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, 1));
            if let Ok(out) = run_federated_mean(&values, &cfg_adj, &mut rng) {
                col_adj.push(out.outcome.estimate, truth);
            }
        }
        single.push(rate, col_single.summary());
        adjusted.push(rate, col_adj.summary());
    }
    let mut table = SeriesTable::new(
        "deploy-dropout",
        format!("Dropout robustness, Normal(500, 100), n={n}, b={BITS}"),
        "dropout rate",
        Metric::Nrmse,
    );
    table.push_series(single);
    table.push_series(adjusted);
    table
}

/// Fault tolerance: NRMSE vs per-class fault rate, comparing the naive
/// orchestrator (no validation, no deadlines, no retries — duplicates
/// double-count, replays and stale reports pass) against the recovering one
/// (report validation, straggler deadlines, refill waves, secagg retries).
#[must_use]
pub fn deploy_faults(budget: Budget) -> SeriesTable {
    use fednum_fedsim::faults::{FaultPlan, FaultRates};
    use fednum_fedsim::RetryPolicy;

    let rates = [0.0, 0.01, 0.02, 0.04, 0.08];
    let reps = Repetitions::new(budget.reps.min(40), budget.seed);
    let n = budget.n * 2;
    let dropout = DropoutModel::phased(0.1, 0.05);
    let mut naive = Series::new("naive");
    let mut recovering = Series::new("recovering");
    for &rate in &rates {
        let mut col_naive = ErrorCollector::new();
        let mut col_rec = ErrorCollector::new();
        for t in 0..reps.trials {
            let seed = reps.seed_for(t);
            let raw = normal_population(500.0, 100.0, n, seed);
            let (values, truth) = clipped_with_mean(&raw, BITS);
            let with_plan = |cfg: FederatedMeanConfig| {
                if rate > 0.0 {
                    cfg.with_faults(
                        FaultPlan::new(FaultRates::uniform(rate), derive_seed(seed, 3))
                            .expect("valid rates"),
                    )
                } else {
                    cfg
                }
            };
            let cfg_naive =
                with_plan(FederatedMeanConfig::new(weighted_config(BITS)).with_dropout(dropout))
                    .naive();
            let cfg_rec =
                with_plan(FederatedMeanConfig::new(weighted_config(BITS)).with_dropout(dropout))
                    .with_auto_adjust(4, 40, 0.7)
                    .with_retry(RetryPolicy::default());
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, 4));
            if let Ok(out) = run_federated_mean(&values, &cfg_naive, &mut rng) {
                col_naive.push(out.outcome.estimate, truth);
            }
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, 4));
            if let Ok(out) = run_federated_mean(&values, &cfg_rec, &mut rng) {
                col_rec.push(out.outcome.estimate, truth);
            }
        }
        naive.push(rate, col_naive.summary());
        recovering.push(rate, col_rec.summary());
    }
    let mut table = SeriesTable::new(
        "deploy-faults",
        format!(
            "Fault tolerance (uniform per-class fault rate), Normal(500, 100), n={n}, b={BITS}"
        ),
        "fault rate",
        Metric::Nrmse,
    );
    table.push_series(naive);
    table.push_series(recovering);
    table
}

/// Straggler salvage: NRMSE vs straggle rate over the simulated network,
/// comparing the discard baseline (late frames rejected at the wave
/// deadline) against salvage rounds (parked frames re-validated and
/// re-admitted by a follow-up session). The panel also reports the straggler
/// recovery fraction per rate, which the salvage design targets at ≥ 90%
/// for rates ≤ 0.2.
#[must_use]
pub fn deploy_salvage(budget: Budget) -> SeriesTable {
    use fednum_fedsim::faults::{FaultPlan, FaultRates};
    use fednum_fedsim::round::SalvageOutcome;
    use fednum_fedsim::SalvagePolicy;
    use fednum_transport::net::SimNetTransport;

    let rates = [0.05, 0.1, 0.2];
    let reps = Repetitions::new(budget.reps.min(30), budget.seed);
    let n = budget.n;
    let dropout = DropoutModel::bernoulli(0.05);
    let mut discard = Series::new("discard");
    let mut salvage = Series::new("salvage");
    for &rate in &rates {
        let mut col_discard = ErrorCollector::new();
        let mut col_salvage = ErrorCollector::new();
        let mut stragglers = 0u64;
        let mut recovered = 0u64;
        for t in 0..reps.trials {
            let seed = reps.seed_for(t);
            let raw = normal_population(500.0, 100.0, n, seed);
            let (values, truth) = clipped_with_mean(&raw, BITS);
            let base = FederatedMeanConfig::new(weighted_config(BITS))
                .with_dropout(dropout)
                .with_faults(
                    FaultPlan::new(
                        FaultRates {
                            straggle: rate,
                            ..FaultRates::none()
                        },
                        derive_seed(seed, 5),
                    )
                    .expect("valid rates"),
                );
            let armed = base
                .clone()
                .with_salvage(SalvagePolicy::new(1, 60.0, 2, n).expect("valid policy"));
            let run = |cfg: &FederatedMeanConfig| {
                let mut transport = SimNetTransport::for_config(cfg, derive_seed(seed, 6));
                let mut rng = StdRng::seed_from_u64(derive_seed(seed, 7));
                run_federated_mean_transport(&values, cfg, &mut transport, &mut rng)
            };
            if let Ok(out) = run(&base) {
                stragglers += out.robustness.late_frames;
                col_discard.push(out.outcome.estimate, truth);
            }
            if let Ok(out) = run(&armed) {
                if let Some(SalvageOutcome::Salvaged { reports }) = out.robustness.salvage {
                    recovered += reports;
                }
                col_salvage.push(out.outcome.estimate, truth);
            }
        }
        let frac = if stragglers == 0 {
            1.0
        } else {
            recovered as f64 / stragglers as f64
        };
        println!(
            "deploy-salvage: straggle {rate:.2}: recovered {recovered}/{stragglers} ({:.1}%)",
            100.0 * frac
        );
        discard.push(rate, col_discard.summary());
        salvage.push(rate, col_salvage.summary());
    }
    let mut table = SeriesTable::new(
        "deploy-salvage",
        format!("Straggler salvage rounds (simulated network), Normal(500, 100), n={n}, b={BITS}"),
        "straggle rate",
        Metric::Nrmse,
    );
    table.push_series(discard);
    table.push_series(salvage);
    table
}

/// Winsorization for heavy-tailed telemetry: clipping depth sweep on a
/// spike-contaminated distribution, with error measured against both the
/// winsorized target (what a clipped protocol estimates) and the raw sample
/// mean (hostage to the outliers).
#[must_use]
pub fn deploy_clipping(budget: Budget) -> SeriesTable {
    let depths = [4u32, 6, 8, 10, 12, 14, 16];
    let reps = Repetitions::new(budget.reps.min(50), budget.seed);
    let dist = SpikeMixture::new(3.0, 0.8, 0.01, 1.1, 500.0);
    let mut vs_winsorized = Series::new("vs winsorized truth");
    let mut vs_raw = Series::new("vs raw sample mean");
    for &bits in &depths {
        let mut col_w = ErrorCollector::new();
        let mut col_r = ErrorCollector::new();
        for t in 0..reps.trials {
            let seed = reps.seed_for(t);
            let ds = Dataset::draw(&dist, budget.n, seed);
            let hi = ((1u64 << bits) - 1) as f64;
            let protocol =
                fednum_core::protocol::basic::BasicBitPushing::new(weighted_config(bits));
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, 2));
            let est = protocol.run(ds.values(), &mut rng).estimate;
            col_w.push(est, ds.clipped_mean(hi));
            col_r.push(est, ds.mean());
        }
        vs_winsorized.push(f64::from(bits), col_w.summary());
        vs_raw.push(f64::from(bits), col_r.summary());
    }
    let mut table = SeriesTable::new(
        "deploy-clipping",
        format!(
            "Clipping depth on heavy-tailed telemetry (1% Pareto tail), n={}",
            budget.n
        ),
        "clip bits",
        Metric::Nrmse,
    );
    table.push_series(vs_winsorized);
    table.push_series(vs_raw);
    table
}

/// Upper-bound tracking on a non-stationary metric: the flag fires when the
/// observed bound jumps, and the suggested clipping depth follows.
#[must_use]
pub fn deploy_bounds(budget: Budget) -> String {
    let mut tracker = UpperBoundTracker::new(4.0);
    let mut s = String::new();
    s.push_str("== Upper-bound tracking on a non-stationary metric [deploy-bounds] ==\n");
    s.push_str("round   observed-max   flagged   suggested-bits\n");
    for round in 0..8 {
        // Rounds 0–4 are a stable body; round 5 onward a heavy tail appears.
        let dist = if round < 5 {
            SpikeMixture::new(3.0, 0.5, 0.0, 2.0, 1.0)
        } else {
            SpikeMixture::new(3.0, 0.5, 0.02, 0.9, 1000.0)
        };
        let ds = Dataset::draw(&dist, budget.n / 2, derive_seed(budget.seed, round));
        tracker.record_round(ds.max());
        s.push_str(&format!(
            "{round:>5}   {:>12.1}   {:>7}   {:>14}\n",
            ds.max(),
            if tracker.flagged() { "YES" } else { "no" },
            tracker.suggested_bits().unwrap_or(0),
        ));
    }
    s.push_str(&format!(
        "heavy-tail/non-stationarity flag raised: {} (expected: true)\n",
        tracker.ever_flagged()
    ));
    s.push_str(&format!(
        "bits for observed magnitude 1e6: {}\n",
        bits_for_magnitude(1e6)
    ));
    s
}

/// Round latency: wall-clock for one- vs two-round protocols across cohort
/// sizes, under the log-normal fleet model.
#[must_use]
pub fn deploy_latency(budget: Budget) -> String {
    let model = LatencyModel::typical_fleet();
    let mut s = String::new();
    s.push_str(
        "== Round completion time (minutes, lognormal fleet, 90% quorum) [deploy-latency] ==\n",
    );
    s.push_str("cohort    1-round (weighted)    2-round (adaptive)\n");
    for (i, &n) in [1000usize, 5000, 20_000].iter().enumerate() {
        let trials = 30;
        let mut one = 0.0;
        let mut two = 0.0;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(derive_seed(budget.seed, (i * trials + t) as u64));
            one += model.simulate_round(n, 0.9, &mut rng).completion_time;
            two += model.simulate_round(n / 3, 0.9, &mut rng).completion_time
                + model
                    .simulate_round(2 * n / 3, 0.9, &mut rng)
                    .completion_time;
        }
        s.push_str(&format!(
            "{n:>6}    {:>18.2}    {:>18.2}\n",
            one / trials as f64,
            two / trials as f64
        ));
    }
    s.push_str("shape check: two rounds cost roughly 2x wall-clock, still 'a matter of minutes'\n");
    s
}

/// Secure-aggregation transport: identical estimates, dropout recovery, and
/// measured overhead versus direct aggregation.
#[must_use]
pub fn deploy_secagg(budget: Budget) -> String {
    let n = budget.n.min(2_000);
    let raw = normal_population(500.0, 100.0, n, budget.seed);
    let (values, truth) = clipped_with_mean(&raw, BITS);
    let dropout = DropoutModel::phased(0.08, 0.04);
    let direct_cfg = FederatedMeanConfig::new(weighted_config(BITS)).with_dropout(dropout);
    let secagg_cfg = FederatedMeanConfig::new(weighted_config(BITS))
        .with_dropout(dropout)
        .with_secagg(SecAggSettings {
            threshold_fraction: 0.5,
            ..SecAggSettings::default()
        });

    let mut rng = StdRng::seed_from_u64(derive_seed(budget.seed, 77));
    let t0 = Instant::now();
    let direct = run_federated_mean(&values, &direct_cfg, &mut rng).expect("direct round");
    let direct_time = t0.elapsed();

    let mut rng = StdRng::seed_from_u64(derive_seed(budget.seed, 77));
    let t0 = Instant::now();
    let secure = run_federated_mean(&values, &secagg_cfg, &mut rng).expect("secagg round");
    let secure_time = t0.elapsed();

    let summary = secure.secagg.expect("secagg summary");
    let mut s = String::new();
    s.push_str("== Secure-aggregation transport [deploy-secagg] ==\n");
    s.push_str(&format!(
        "cohort: {n}, dropout: 8% before / 4% after reporting\n"
    ));
    s.push_str(&format!(
        "direct estimate:  {:.3}  (truth {truth:.3})\n",
        direct.outcome.estimate
    ));
    s.push_str(&format!(
        "secagg estimate:  {:.3}  (identical reports -> identical estimate: {})\n",
        secure.outcome.estimate,
        (direct.outcome.estimate - secure.outcome.estimate).abs() < 1e-9
    ));
    s.push_str(&format!(
        "contributors: {}, pairwise masks reconstructed for dropouts: {}\n",
        summary.contributors, summary.recovered_pairwise
    ));
    s.push_str(&format!(
        "overhead: direct {:.1?} vs secure {:.1?} ({}x)\n",
        direct_time,
        secure_time,
        (secure_time.as_secs_f64() / direct_time.as_secs_f64().max(1e-9)).round()
    ));
    s
}

/// The trust-tier frontier: one round of the same ε₀-randomized protocol
/// through each transport tier — plain LDP, the shuffle model, single-
/// instance secure aggregation, and two-tier hierarchical secagg — at
/// fleet scale. Rows report accuracy, wall time, metered uplink traffic,
/// and the central guarantee each tier certifies; the columns differ, the
/// local randomizer never does.
#[must_use]
pub fn deploy_shuffle(budget: Budget) -> String {
    use fednum_core::privacy::RandomizedResponse;
    use fednum_fedsim::traffic::TrafficStats;
    use fednum_hiersec::HierSecConfig;
    use fednum_transport::ShuffleConfig;
    use std::fmt::Write as _;

    const LOCAL_EPSILON: f64 = 1.0;
    const DELTA: f64 = 1e-6;
    // `var_n` distinguishes quick smoke from the paper-scale run, as in
    // `transport-scale`; the flagship row is a million clients.
    let full = budget.var_n >= 100_000;
    let n = if full { 1_000_000 } else { 20_000 };
    // Single-instance secagg pays O(neighbors × n) masking on one
    // coordinator — the scaling wall the hierarchical tier exists to
    // break — so its row caps the cohort and says so.
    let secagg_n = if full { 200_000 } else { n };
    let shards = if full { 64 } else { 8 };

    let rr_config = || {
        FederatedMeanConfig::new(
            weighted_config(BITS).with_privacy(RandomizedResponse::from_epsilon(LOCAL_EPSILON)),
        )
    };
    let settings = SecAggSettings {
        threshold_fraction: 0.5,
        neighbors: Some(24),
    };
    let population = |count: usize| -> (Vec<f64>, f64) {
        let vs: Vec<f64> = (0..count).map(|i| (i % 1000) as f64).collect();
        let truth = vs.iter().sum::<f64>() / vs.len() as f64;
        (vs, truth)
    };

    struct Row {
        tier: &'static str,
        clients: usize,
        wall: f64,
        traffic: TrafficStats,
        rel_err: f64,
        central: String,
        trust: &'static str,
    }
    let mut rows: Vec<Row> = Vec::new();

    // -- ldp: the randomizer is the whole guarantee; no one is trusted.
    {
        let (vs, truth) = population(n);
        let mut t = fednum_transport::InMemoryTransport::new(budget.seed ^ 0x1D9);
        let start = Instant::now();
        let out = RoundBuilder::new(rr_config())
            .via(&mut t)
            .seed(derive_seed(budget.seed, 90))
            .run(&vs)
            .expect("ldp round");
        let flat = out.flat().expect("flat detail");
        rows.push(Row {
            tier: "ldp",
            clients: n,
            wall: start.elapsed().as_secs_f64(),
            traffic: flat.robustness.traffic,
            rel_err: (flat.outcome.estimate - truth).abs() / truth,
            central: format!("e={LOCAL_EPSILON:.3} (local = central)"),
            trust: "none",
        });
    }

    // -- shuffle: identity stripped between client and coordinator; the
    //    amplification bound converts n local reports into a central (e, d).
    {
        let (vs, truth) = population(n);
        let start = Instant::now();
        let out = RoundBuilder::new(rr_config())
            .shuffled(ShuffleConfig::try_new(DELTA).expect("valid delta"))
            .seed(derive_seed(budget.seed, 91))
            .run(&vs)
            .expect("shuffled round");
        let sh = out.shuffled().expect("shuffled detail");
        rows.push(Row {
            tier: "shuffle",
            clients: n,
            wall: start.elapsed().as_secs_f64(),
            traffic: sh.round.robustness.traffic,
            rel_err: (sh.round.outcome.estimate - truth).abs() / truth,
            central: format!("e={:.4} (d={DELTA:.0e}, amplified)", sh.charge.epsilon),
            trust: "non-colluding shuffler",
        });
    }

    // -- secagg: pairwise masks hide individual reports; the coordinator
    //    sees only the aggregate of the (still ε₀-noised) bits.
    {
        let (vs, truth) = population(secagg_n);
        let mut t = fednum_transport::InMemoryTransport::new(budget.seed ^ 0x5EC);
        let start = Instant::now();
        let out = RoundBuilder::new(rr_config().with_secagg(settings))
            .via(&mut t)
            .seed(derive_seed(budget.seed, 92))
            .run(&vs)
            .expect("secagg round");
        let flat = out.flat().expect("flat detail");
        rows.push(Row {
            tier: "secagg",
            clients: secagg_n,
            wall: start.elapsed().as_secs_f64(),
            traffic: flat.robustness.traffic,
            rel_err: (flat.outcome.estimate - truth).abs() / truth,
            central: format!("e={LOCAL_EPSILON:.3} + aggregate-only view"),
            trust: "honest-but-curious coordinator",
        });
    }

    // -- hiersec: two-tier masking restores fleet scale; per-shard
    //    aggregates are themselves masked before the merge instance.
    {
        let (vs, truth) = population(n);
        let hier = HierSecConfig::try_new(shards, settings, shards / 2, budget.seed ^ 0x415E)
            .expect("valid hier config");
        let start = Instant::now();
        let out = RoundBuilder::new(rr_config().with_secagg(settings))
            .hierarchical(hier)
            .seed(derive_seed(budget.seed, 93))
            .run(&vs)
            .expect("hiersec round");
        let h = out.hierarchical().expect("hierarchical detail");
        rows.push(Row {
            tier: "hiersec",
            clients: n,
            wall: start.elapsed().as_secs_f64(),
            traffic: h.traffic,
            rel_err: (h.outcome.estimate - truth).abs() / truth,
            central: format!("e={LOCAL_EPSILON:.3} + aggregate-only, 2-tier"),
            trust: "honest-but-curious shard + merge",
        });
    }

    let mut s = String::new();
    let _ = writeln!(
        s,
        "== Trust-tier frontier at fleet scale [deploy-shuffle] =="
    );
    let _ = writeln!(
        s,
        "same local randomizer everywhere (RR at e0={LOCAL_EPSILON}, integer({BITS}) codec); \
         the tiers trade traffic and trust for the central guarantee"
    );
    let _ = writeln!(
        s,
        "{:>8} {:>9} {:>8} {:>14} {:>10} {:>9}  {:<34} trusts",
        "tier", "clients", "wall s", "uplink B/clnt", "messages", "rel err", "central guarantee",
    );
    for r in &rows {
        let _ = writeln!(
            s,
            "{:>8} {:>9} {:>8.2} {:>14.1} {:>10} {:>9.5}  {:<34} {}",
            r.tier,
            r.clients,
            r.wall,
            r.traffic.uplink_bytes_per_client(r.clients),
            r.traffic.total_messages(),
            r.rel_err,
            r.central,
            r.trust
        );
    }
    if full && secagg_n < n {
        let _ = writeln!(
            s,
            "note: single-instance secagg row capped at {secagg_n} clients — the \
             masking wall the hierarchical tier exists to break"
        );
    }
    let amplified: f64 = rows[1]
        .central
        .split('=')
        .nth(1)
        .and_then(|t| t.split_whitespace().next())
        .and_then(|t| t.parse().ok())
        .unwrap_or(f64::NAN);
    let _ = writeln!(
        s,
        "shuffle amplification at n={n}: e0={LOCAL_EPSILON} -> e={amplified:.4} \
         ({:.0}x tighter than plain LDP, bought with one non-collusion assumption)",
        LOCAL_EPSILON / amplified
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_frontier_lists_all_four_tiers() {
        let mut budget = Budget::quick();
        budget.n = 2_000;
        budget.var_n = 10_000;
        let text = deploy_shuffle(budget);
        for tier in ["ldp", "shuffle", "secagg", "hiersec"] {
            assert!(text.contains(tier), "missing tier {tier}:\n{text}");
        }
        assert!(
            text.contains("amplified"),
            "no amplified guarantee:\n{text}"
        );
    }

    #[test]
    fn dropout_table_shows_auto_adjust_helps_at_high_rates() {
        let mut budget = Budget::quick();
        budget.reps = 10;
        budget.n = 3000;
        let t = deploy_dropout(budget);
        assert_eq!(t.series.len(), 2);
        // At 70% dropout the auto-adjusted variant should not be worse by
        // more than a small factor (usually strictly better).
        let single = t.series[0].points.last().unwrap().summary.nrmse;
        let adjusted = t.series[1].points.last().unwrap().summary.nrmse;
        assert!(
            adjusted < single * 1.3,
            "auto-adjusted {adjusted} vs single {single}"
        );
    }

    #[test]
    fn recovering_orchestrator_beats_naive_under_faults() {
        let mut budget = Budget::quick();
        budget.reps = 8;
        budget.n = 2000;
        let t = deploy_faults(budget);
        assert_eq!(t.series.len(), 2);
        // At the highest fault rate the validating/recovering orchestrator
        // must be strictly more accurate than the naive baseline, which
        // double-counts duplicates and accepts replayed/stale reports.
        let naive = t.series[0].points.last().unwrap().summary.nrmse;
        let recovering = t.series[1].points.last().unwrap().summary.nrmse;
        assert!(
            recovering < naive,
            "recovering {recovering} should beat naive {naive}"
        );
        // With no faults injected the two transports see the same reports.
        let naive0 = t.series[0].points[0].summary.nrmse;
        assert!(naive0.is_finite());
    }

    #[test]
    fn clipping_sweet_spot_exists() {
        let mut budget = Budget::quick();
        budget.reps = 10;
        budget.n = 4000;
        let t = deploy_clipping(budget);
        let w = &t.series[0];
        // Against the winsorized target, moderate depths beat tiny depths
        // (tiny depths clip the body, huge depths waste bits).
        let b4 = w.points.first().unwrap().summary.nrmse;
        let b10 = w.points.iter().find(|p| p.x == 10.0).unwrap().summary.nrmse;
        assert!(b10.is_finite() && b4.is_finite());
    }

    #[test]
    fn bounds_narrative_flags() {
        let text = deploy_bounds(Budget::quick());
        assert!(text.contains("flag raised: true"));
    }

    #[test]
    fn secagg_narrative_matches() {
        let text = deploy_secagg(Budget::quick());
        assert!(text.contains("identical estimate: true"));
    }
}
