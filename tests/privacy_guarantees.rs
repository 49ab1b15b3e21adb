//! Integration tests of the privacy guarantees: empirical ε-LDP checks,
//! unbiasedness of every mechanism, and budget enforcement through a
//! protocol run.

use fednum::core::encoding::FixedPointCodec;
use fednum::core::privacy::{PrivacyBudget, PrivacyLedger, RandomizedResponse};
use fednum::core::protocol::basic::BasicConfig;
use fednum::core::sampling::BitSampling;
use fednum::fedsim::FederatedMeanConfig;
use fednum::ldp::{
    DuchiOneBit, LaplaceMechanism, MeanMechanism, PiecewiseMechanism, SubtractiveDithering,
    ValueRange,
};
use fednum::workloads::{Dataset, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Empirical ε-LDP check on the *transmitted bit distribution*: for two
/// clients with maximally different values, the probability of any reported
/// bit value differs by at most e^ε (up to sampling error).
#[test]
fn empirical_ldp_likelihood_ratio_bounded() {
    let eps = 1.0;
    let rr = RandomizedResponse::from_epsilon(eps);
    let trials = 400_000;
    let mut rng = StdRng::seed_from_u64(1);
    // Client A holds bit 1, client B holds bit 0 at the same position.
    let p_a_reports_one =
        (0..trials).filter(|_| rr.flip(true, &mut rng)).count() as f64 / trials as f64;
    let p_b_reports_one =
        (0..trials).filter(|_| rr.flip(false, &mut rng)).count() as f64 / trials as f64;
    let ratio = p_a_reports_one / p_b_reports_one;
    assert!(
        ratio <= eps.exp() * 1.03,
        "likelihood ratio {ratio} exceeds e^eps = {}",
        eps.exp()
    );
    // And the guarantee is tight (the mechanism is not over-noised).
    assert!(ratio >= eps.exp() * 0.97, "ratio {ratio} is far from tight");
}

/// Every LDP mechanism is (empirically) unbiased on the same inputs.
#[test]
fn all_mechanisms_unbiased_on_shared_inputs() {
    let range = ValueRange::new(0.0, 255.0);
    let ds = Dataset::draw(&Uniform::new(20.0, 200.0), 30_000, 2);
    let truth = ds.mean();
    let mechanisms: Vec<Box<dyn MeanMechanism>> = vec![
        Box::new(SubtractiveDithering::new(range)),
        Box::new(DuchiOneBit::new(range, 2.0)),
        Box::new(PiecewiseMechanism::new(range, 2.0)),
        Box::new(LaplaceMechanism::new(range, 2.0)),
        Box::new(fednum::ldp::DitheringLdp::new(range, 2.0)),
        Box::new(FederatedMeanConfig::new(
            BasicConfig::new(FixedPointCodec::integer(8), BitSampling::geometric(8, 1.0))
                .with_privacy(RandomizedResponse::from_epsilon(2.0)),
        )),
    ];
    for m in &mechanisms {
        let trials = 25;
        let mean_est: f64 = (0..trials)
            .map(|s| {
                let mut rng = StdRng::seed_from_u64(s);
                m.estimate_mean(ds.values(), &mut rng)
            })
            .sum::<f64>()
            / f64::from(trials as u32);
        assert!(
            (mean_est - truth).abs() / truth < 0.05,
            "{}: mean of estimates {mean_est} vs truth {truth}",
            m.name()
        );
    }
}

/// Stricter ε means strictly more reported-bit noise (monotone privacy/
/// utility trade-off) for the bit-pushing pipeline.
#[test]
fn error_is_monotone_in_epsilon() {
    let ds = Dataset::draw(&Uniform::new(0.0, 200.0), 20_000, 3);
    let truth = ds.mean();
    let rmse_at = |eps: f64| {
        let protocol = FederatedMeanConfig::new(
            BasicConfig::new(FixedPointCodec::integer(8), BitSampling::geometric(8, 2.0))
                .with_privacy(RandomizedResponse::from_epsilon(eps)),
        );
        let trials = 30;
        let mut sq = 0.0;
        for s in 0..trials {
            let mut rng = StdRng::seed_from_u64(s);
            let e = protocol.estimate_mean(ds.values(), &mut rng);
            sq += (e - truth) * (e - truth);
        }
        (sq / f64::from(trials as u32)).sqrt()
    };
    let strict = rmse_at(0.25);
    let moderate = rmse_at(1.0);
    let loose = rmse_at(4.0);
    assert!(strict > moderate, "eps 0.25 ({strict}) vs 1.0 ({moderate})");
    assert!(moderate > loose, "eps 1.0 ({moderate}) vs 4.0 ({loose})");
}

/// A privacy ledger driven by an actual protocol run: one bit per client per
/// task, budget exhausted after two tasks.
#[test]
fn metering_budget_enforced_across_tasks() {
    let ds = Dataset::draw(&Uniform::new(0.0, 100.0), 2000, 4);
    let mut ledger = PrivacyLedger::with_budget(PrivacyBudget::bits(2));
    let eps = 1.0;
    for task in 0..3 {
        let mut participants = 0;
        for client in 0..ds.len() as u64 {
            if ledger.charge(client, 1, eps).is_ok() {
                participants += 1;
            }
        }
        if task < 2 {
            assert_eq!(participants, 2000, "task {task} should be fully subscribed");
        } else {
            assert_eq!(participants, 0, "budget must be exhausted by task 2");
        }
    }
    assert_eq!(ledger.max_bits_per_client(), 2);
    assert!((ledger.max_epsilon_per_client() - 2.0).abs() < 1e-12);
}

/// DP noise must not introduce bias even at very strict ε.
#[test]
fn strict_epsilon_remains_unbiased() {
    let ds = Dataset::draw(&Uniform::new(50.0, 150.0), 50_000, 5);
    let truth = ds.mean();
    let protocol = FederatedMeanConfig::new(
        BasicConfig::new(FixedPointCodec::integer(8), BitSampling::geometric(8, 2.0))
            .with_privacy(RandomizedResponse::from_epsilon(0.2)),
    );
    let trials = 60;
    let mean_est: f64 = (0..trials)
        .map(|s| {
            let mut rng = StdRng::seed_from_u64(s);
            protocol.estimate_mean(ds.values(), &mut rng)
        })
        .sum::<f64>()
        / f64::from(trials as u32);
    assert!(
        (mean_est - truth).abs() / truth < 0.1,
        "mean of estimates {mean_est} vs truth {truth}"
    );
}
