//! Ablations of the design choices the paper calls out.

use fednum_core::bits::{bit, exact_bit_means};
use fednum_core::encoding::FixedPointCodec;
use fednum_core::privacy::{BernoulliNoise, RandomizedResponse, SampleThreshold};
use fednum_core::protocol::basic::BasicConfig;
use fednum_core::sampling::{AssignmentMode, BitSampling};
use fednum_core::BitAccumulator;
use fednum_fedsim::{FederatedAdaptiveConfig, FederatedMeanConfig};
use fednum_ldp::{
    DuchiOneBit, GaussianMechanism, HybridMechanism, LaplaceMechanism, MeanMechanism,
    PiecewiseMechanism, ValueRange,
};
use fednum_metrics::experiment::derive_seed;
use fednum_metrics::table::{Metric, Series, SeriesTable};
use fednum_metrics::{ErrorCollector, Repetitions};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::figures::{census_population, normal_population, Budget};
use crate::methods::{adaptive_config, weighted_dp};
use crate::runner::{clipped_with_mean, sweep_mean};

const BITS: u32 = 12;

/// Sampling-strategy ablation: uniform vs geometric (γ ∈ {0.5, 1, 2}) vs the
/// per-trial oracle optimum of Lemma 3.3 (computed from the exact bit means,
/// which a real deployment does not know).
#[must_use]
pub fn ablate_sampling(budget: Budget) -> SeriesTable {
    let ns = [1000usize, 3000, 10_000, 30_000];
    let reps = Repetitions::new(budget.reps.min(60), budget.seed);
    let labels = [
        "uniform",
        "geometric g=0.5",
        "geometric g=1",
        "geometric g=2",
        "oracle-optimal",
    ];
    let mut series: Vec<Series> = labels.iter().map(|&l| Series::new(l)).collect();
    for &n in &ns {
        let mut collectors: Vec<ErrorCollector> =
            (0..labels.len()).map(|_| ErrorCollector::new()).collect();
        for t in 0..reps.trials {
            let seed = reps.seed_for(t);
            let raw = normal_population(500.0, 100.0, n, seed);
            let (values, truth) = clipped_with_mean(&raw, BITS);
            let codec = FixedPointCodec::integer(BITS);
            let codes: Vec<u64> = values.iter().map(|&v| codec.encode(v)).collect();
            let oracle = BitSampling::optimal(&exact_bit_means(&codes, BITS))
                .unwrap_or_else(|| BitSampling::uniform(BITS));
            let samplings = [
                BitSampling::uniform(BITS),
                BitSampling::geometric(BITS, 0.5),
                BitSampling::geometric(BITS, 1.0),
                BitSampling::geometric(BITS, 2.0),
                oracle,
            ];
            for (i, sampling) in samplings.into_iter().enumerate() {
                let protocol = FederatedMeanConfig::new(BasicConfig::new(codec, sampling));
                let mut rng = StdRng::seed_from_u64(derive_seed(seed, i as u64 + 10));
                collectors[i].push(protocol.estimate_mean(&values, &mut rng), truth);
            }
        }
        for (s, c) in series.iter_mut().zip(&collectors) {
            s.push(n as f64, c.summary());
        }
    }
    let mut table = SeriesTable::new(
        "ablate-sampling",
        format!("Bit-sampling strategies, Normal(500, 100), b={BITS}"),
        "n",
        Metric::Nrmse,
    );
    for s in series {
        table.push_series(s);
    }
    table
}

/// Caching ablation: adaptive bit-pushing with and without round pooling.
#[must_use]
pub fn ablate_caching(budget: Budget) -> SeriesTable {
    let ns = [1000.0, 3000.0, 10_000.0, 30_000.0];
    sweep_mean(
        "ablate-caching",
        "Adaptive round pooling (caching) on census ages",
        "n",
        Metric::Nrmse,
        &ns,
        Repetitions::new(budget.reps.min(60), budget.seed),
        |n, seed| {
            let raw = census_population(n as usize, seed);
            clipped_with_mean(&raw, 8)
        },
        |_| {
            vec![
                Box::new(adaptive_config(8, "caching on")) as Box<dyn MeanMechanism>,
                Box::new(FederatedAdaptiveConfig {
                    caching: false,
                    ..adaptive_config(8, "caching off")
                }),
            ]
        },
    )
}

/// Corollary 3.2 ablation: error vs `b_send` (bits per client); RMSE should
/// shrink like `1/√b_send`.
#[must_use]
pub fn ablate_bsend(budget: Budget) -> SeriesTable {
    let b_sends = [1.0, 2.0, 4.0, 8.0];
    sweep_mean(
        "ablate-bsend",
        format!(
            "Bits per client (Corollary 3.2), Normal(500, 100), n={}",
            budget.n
        )
        .as_str(),
        "b_send",
        Metric::Nrmse,
        &b_sends,
        Repetitions::new(budget.reps.min(60), budget.seed),
        |_, seed| {
            let raw = normal_population(500.0, 100.0, budget.n, seed);
            clipped_with_mean(&raw, BITS)
        },
        |b_send| {
            vec![Box::new(FederatedMeanConfig::new(
                BasicConfig::new(
                    FixedPointCodec::integer(BITS),
                    BitSampling::geometric(BITS, 1.0),
                )
                .with_b_send(b_send as u32)
                .with_label("weighted a=1.0"),
            )) as Box<dyn MeanMechanism>]
        },
    )
}

/// Poisoning ablation (Section 3.1 "Local vs. central randomness" and the
/// conclusions' robustness discussion): adversarial clients report a 1 for
/// the most significant bit when *they* choose the bit (local randomness);
/// under central QMC assignment they can only lie about whichever bit the
/// server asks for. RMSE vs the fraction of adversaries.
#[must_use]
pub fn ablate_qmc(budget: Budget) -> SeriesTable {
    let fractions = [0.0, 0.001, 0.005, 0.01, 0.02, 0.05];
    let reps = Repetitions::new(budget.reps.min(40), budget.seed);
    let n = budget.n;
    let codec = FixedPointCodec::integer(BITS);
    // Uniform sampling makes the asymmetry visible: under central
    // assignment an adversary lands on the top bit with probability 1/b,
    // under local choice with probability 1 (with geometric weights the top
    // bit already absorbs half the honest assignments, masking the effect).
    let sampling = BitSampling::uniform(BITS);
    let mut central = Series::new("central qmc");
    let mut local = Series::new("local choice");
    for &frac in &fractions {
        let mut col_central = ErrorCollector::new();
        let mut col_local = ErrorCollector::new();
        for t in 0..reps.trials {
            let seed = reps.seed_for(t);
            let raw = normal_population(500.0, 100.0, n, seed);
            let (values, truth) = clipped_with_mean(&raw, BITS);
            let codes: Vec<u64> = values.iter().map(|&v| codec.encode(v)).collect();
            let n_adv = (frac * n as f64).round() as usize;
            for (mode, collector) in [
                (AssignmentMode::CentralQmc, &mut col_central),
                (AssignmentMode::Local, &mut col_local),
            ] {
                let mut rng = StdRng::seed_from_u64(derive_seed(seed, 31));
                let assignment = sampling.assign(mode, n, &mut rng);
                let mut acc = BitAccumulator::new(BITS);
                for (i, &assigned) in assignment.iter().enumerate() {
                    if i < n_adv {
                        // Adversary: under local randomness it *chooses* the
                        // top bit and asserts 1; under central assignment it
                        // can only assert 1 for its assigned bit.
                        let j = match mode {
                            AssignmentMode::Local => BITS - 1,
                            AssignmentMode::CentralQmc => assigned,
                        };
                        acc.record(j, 1.0);
                    } else {
                        acc.record(assigned, f64::from(u8::from(bit(codes[i], assigned))));
                    }
                }
                collector.push(codec.decode_float(acc.estimate()), truth);
            }
        }
        central.push(frac, col_central.summary());
        local.push(frac, col_local.summary());
    }
    let mut table = SeriesTable::new(
        "ablate-qmc",
        format!("Poisoning impact: who picks the bit, Normal(500, 100), n={n}, b={BITS}"),
        "adversary fraction",
        Metric::Nrmse,
    );
    table.push_series(central);
    table.push_series(local);
    table
}

/// The baselines the paper omitted from its plots for being "2-3 times
/// larger in all cases" (randomized rounding / Duchi, Laplace) plus the
/// Gaussian mechanism, against the kept methods.
#[must_use]
pub fn ablate_omitted(budget: Budget) -> SeriesTable {
    let epsilons = [0.5, 1.0, 2.0, 4.0];
    let bits = 8;
    sweep_mean(
        "ablate-omitted",
        format!("Omitted baselines on census ages, n={}", budget.n).as_str(),
        "epsilon",
        Metric::Rmse,
        &epsilons,
        Repetitions::new(budget.reps.min(60), budget.seed),
        |_, seed| {
            let raw = census_population(budget.n, seed);
            clipped_with_mean(&raw, bits)
        },
        |eps| {
            let range = ValueRange::from_bits(bits);
            vec![
                Box::new(weighted_dp(bits, 1.0, eps)) as Box<dyn MeanMechanism>,
                Box::new(PiecewiseMechanism::new(range, eps)),
                Box::new(HybridMechanism::new(range, eps)),
                Box::new(DuchiOneBit::new(range, eps)),
                Box::new(LaplaceMechanism::new(range, eps)),
                Box::new(GaussianMechanism::new(range, eps, 1e-6)),
            ]
        },
    )
}

/// Distributed-DP ablation: the same bit histograms protected by local
/// randomized response, sample-and-threshold, and Bernoulli phantom noise,
/// against the no-privacy floor.
#[must_use]
pub fn ablate_distributed(budget: Budget) -> SeriesTable {
    let ns = [2000usize, 10_000, 50_000];
    let reps = Repetitions::new(budget.reps.min(40), budget.seed);
    let bits = 8u32;
    let codec = FixedPointCodec::integer(bits);
    let sampling = BitSampling::geometric(bits, 1.0);
    let labels = [
        "no privacy",
        "local rr",
        "sample+threshold",
        "bernoulli noise",
    ];
    let mut series: Vec<Series> = labels.iter().map(|&l| Series::new(l)).collect();
    for &n in &ns {
        let mut collectors: Vec<ErrorCollector> =
            (0..labels.len()).map(|_| ErrorCollector::new()).collect();
        let rr = RandomizedResponse::from_epsilon(1.0);
        let st = SampleThreshold::new(0.8, 5);
        let bn = BernoulliNoise::calibrate(1.0, 1e-6, n);
        for t in 0..reps.trials {
            let seed = reps.seed_for(t);
            let raw = census_population(n, seed);
            let (values, truth) = clipped_with_mean(&raw, bits);
            // No privacy.
            let plain = FederatedMeanConfig::new(BasicConfig::new(codec, sampling.clone()));
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, 51));
            let out = plain
                .run_pooled(&values, &mut rng)
                .expect("a census cohort reports");
            collectors[0].push(out.estimate, truth);
            // Local RR.
            let local = FederatedMeanConfig::new(
                BasicConfig::new(codec, sampling.clone()).with_privacy(rr),
            );
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, 52));
            collectors[1].push(local.estimate_mean(&values, &mut rng), truth);
            // Distributed mechanisms post-process the raw histograms.
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, 53));
            let sampled = st.apply(&out.accumulator, &mut rng);
            collectors[2].push(codec.decode_float(sampled.estimate()), truth);
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, 54));
            let noised = bn.apply(&out.accumulator, n, &mut rng);
            collectors[3].push(codec.decode_float(noised.estimate()), truth);
        }
        for (s, c) in series.iter_mut().zip(&collectors) {
            s.push(n as f64, c.summary());
        }
    }
    let mut table = SeriesTable::new(
        "ablate-distributed",
        "Local vs distributed DP on census ages (eps=1)",
        "n",
        Metric::Nrmse,
    );
    for s in series {
        table.push_series(s);
    }
    table
}

/// δ ablation: the fraction of clients spent learning the bit means in
/// round 1. The paper's analysis guides δ = 1/3; both extremes should lose.
#[must_use]
pub fn ablate_delta(budget: Budget) -> SeriesTable {
    let deltas = [0.05, 0.15, 1.0 / 3.0, 0.5, 0.7, 0.9];
    sweep_mean(
        "ablate-delta",
        format!(
            "Round-1 fraction delta, Normal(500, 100), b=16, n={}",
            budget.n
        )
        .as_str(),
        "delta",
        Metric::Nrmse,
        &deltas,
        Repetitions::new(budget.reps.min(60), budget.seed),
        |_, seed| {
            let raw = normal_population(500.0, 100.0, budget.n, seed);
            clipped_with_mean(&raw, 16)
        },
        |delta| {
            vec![
                Box::new(adaptive_config(16, "adaptive a=0.5").with_delta(delta))
                    as Box<dyn MeanMechanism>,
            ]
        },
    )
}

/// γ ablation: the round-1 geometric exponent. The paper defaults to 0.5;
/// γ = 0 (uniform) wastes round-1 reports on high bits' weight, large γ
/// starves the low bits of the pilot estimate.
#[must_use]
pub fn ablate_gamma(budget: Budget) -> SeriesTable {
    let gammas = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0];
    sweep_mean(
        "ablate-gamma",
        format!(
            "Round-1 exponent gamma, Normal(500, 100), b=16, n={}",
            budget.n
        )
        .as_str(),
        "gamma",
        Metric::Nrmse,
        &gammas,
        Repetitions::new(budget.reps.min(60), budget.seed),
        |_, seed| {
            let raw = normal_population(500.0, 100.0, budget.n, seed);
            clipped_with_mean(&raw, 16)
        },
        |gamma| {
            vec![Box::new(FederatedAdaptiveConfig {
                gamma,
                ..adaptive_config(16, "adaptive a=0.5")
            }) as Box<dyn MeanMechanism>]
        },
    )
}

/// Robust statistics on heavy tails: one-bit federated median (bisection)
/// versus clipped and unclipped mean estimation, as the tail worsens.
#[must_use]
pub fn robust_quantile(budget: Budget) -> SeriesTable {
    use fednum_core::quantile::{QuantileConfig, QuantileEstimator};
    use fednum_workloads::{Dataset, SpikeMixture};
    let tail_fracs = [0.0, 0.005, 0.01, 0.02, 0.05];
    let reps = Repetitions::new(budget.reps.min(40), budget.seed);
    let n = budget.n * 2;
    let mut median_series = Series::new("bisection median");
    let mut mean_series = Series::new("clipped mean (b=16)");
    for &tf in &tail_fracs {
        let dist = SpikeMixture::new(4.0, 0.5, tf, 1.05, 2000.0);
        let mut col_median = ErrorCollector::new();
        let mut col_mean = ErrorCollector::new();
        for t in 0..reps.trials {
            let seed = reps.seed_for(t);
            let ds = Dataset::draw(&dist, n, seed);
            // Ground truth: the body median (robust target), known exactly
            // from the sample.
            let mut sorted = ds.values().to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let true_median = sorted[sorted.len() / 2];
            let est =
                QuantileEstimator::new(QuantileConfig::new(FixedPointCodec::integer(16), 0.5));
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, 61));
            col_median.push(est.run(ds.values(), &mut rng).estimate, true_median);
            // Mean estimation drifts with the tail even when clipped wide.
            let mean_est = FederatedMeanConfig::new(BasicConfig::new(
                FixedPointCodec::integer(16),
                BitSampling::geometric(16, 1.0),
            ));
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, 62));
            col_mean.push(mean_est.estimate_mean(ds.values(), &mut rng), true_median);
        }
        median_series.push(tf, col_median.summary());
        mean_series.push(tf, col_mean.summary());
    }
    let mut table = SeriesTable::new(
        "robust-quantile",
        format!("Median vs mean as the heavy tail grows, n={n}"),
        "tail fraction",
        Metric::Nrmse,
    );
    table.push_series(median_series);
    table.push_series(mean_series);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Budget {
        let mut b = Budget::quick();
        b.reps = 8;
        b.n = 2500;
        b
    }

    #[test]
    fn oracle_sampling_is_best_or_close() {
        let t = ablate_sampling(tiny());
        let at = |name: &str| {
            t.series
                .iter()
                .find(|s| s.name == name)
                .unwrap()
                .points
                .last()
                .unwrap()
                .summary
                .nrmse
        };
        assert!(at("oracle-optimal") <= at("uniform"));
    }

    #[test]
    fn local_choice_is_more_poisonable() {
        let t = ablate_qmc(tiny());
        let central = t.series[0].points.last().unwrap().summary.nrmse;
        let local = t.series[1].points.last().unwrap().summary.nrmse;
        assert!(
            local > central,
            "local {local} should exceed central {central} at 5% adversaries"
        );
    }

    #[test]
    fn omitted_baselines_are_worse() {
        let t = ablate_omitted(tiny());
        let at = |name: &str, idx: usize| {
            t.series.iter().find(|s| s.name == name).unwrap().points[idx]
                .summary
                .rmse
        };
        // At eps=1 (index 1), Duchi and Laplace should trail the best kept
        // method, consistent with "errors 2-3 times larger".
        let best_kept = at("weighted a=1.0 rr", 1).min(at("piecewise", 1));
        assert!(at("duchi", 1) > best_kept);
        assert!(at("laplace", 1) > best_kept);
    }

    #[test]
    fn median_is_robust_mean_is_not() {
        let mut b = tiny();
        b.reps = 6;
        let t = robust_quantile(b);
        let median_drift = t.series[0].points.last().unwrap().summary.nrmse;
        let mean_drift = t.series[1].points.last().unwrap().summary.nrmse;
        assert!(
            mean_drift > 3.0 * median_drift,
            "mean drift {mean_drift} should dwarf median drift {median_drift}"
        );
    }

    #[test]
    fn distributed_noise_cheaper_than_local() {
        let t = ablate_distributed(tiny());
        let at = |name: &str| {
            t.series
                .iter()
                .find(|s| s.name == name)
                .unwrap()
                .points
                .last()
                .unwrap()
                .summary
                .nrmse
        };
        assert!(at("bernoulli noise") < at("local rr"));
        assert!(at("sample+threshold") < at("local rr"));
    }
}
