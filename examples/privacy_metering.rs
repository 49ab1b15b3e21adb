//! Privacy metering: per-client accounting of disclosed bits and ε, with an
//! enforced budget (Section 1.1's "privacy metering" control surface).
//!
//! Three aggregation tasks run over the same fleet; the ledger caps every
//! client at two disclosed bits and ε = 2 total, so the third task must run
//! on the clients with budget remaining.
//!
//! ```text
//! cargo run --release --example privacy_metering
//! ```

use fednum::core::encoding::FixedPointCodec;
use fednum::core::privacy::{PrivacyBudget, PrivacyLedger, RandomizedResponse};
use fednum::core::protocol::basic::BasicConfig;
use fednum::core::protocol::MeanMechanism;
use fednum::core::sampling::BitSampling;
use fednum::fedsim::FederatedMeanConfig;
use fednum::workloads::{Dataset, LogNormal, Normal, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 20_000;
    let mut rng = StdRng::seed_from_u64(5);

    // Each client holds three features.
    let feature_a = Dataset::draw(&Normal::new(400.0, 80.0), n, 1);
    let feature_b = Dataset::draw(&Uniform::new(0.0, 1000.0), n, 2);
    let feature_c = Dataset::draw(&LogNormal::new(4.0, 0.6), n, 3);

    // Budget: at most 2 private bits and ε = 2.0 per client, ever.
    let budget = PrivacyBudget {
        max_bits: Some(2),
        max_epsilon: Some(2.0),
    };
    let mut ledger = PrivacyLedger::with_budget(budget);
    let epsilon_per_bit = 1.0;
    let rr = RandomizedResponse::from_epsilon(epsilon_per_bit);

    let protocol = |bits: u32| {
        FederatedMeanConfig::new(
            BasicConfig::new(
                FixedPointCodec::integer(bits),
                BitSampling::geometric(bits, 2.0),
            )
            .with_privacy(rr),
        )
    };

    for (task, (name, data)) in [
        ("feature A", &feature_a),
        ("feature B", &feature_b),
        ("feature C", &feature_c),
    ]
    .into_iter()
    .enumerate()
    {
        // Charge the ledger one bit per participating client; clients whose
        // budget is exhausted sit the task out.
        let mut eligible = Vec::new();
        for (client, &value) in data.values().iter().enumerate() {
            if ledger.charge(client as u64, 1, epsilon_per_bit).is_ok() {
                eligible.push(value);
            }
        }
        if eligible.len() < 1000 {
            println!(
                "task {task} ({name}): skipped — only {} clients have budget left",
                eligible.len()
            );
            continue;
        }
        let est = protocol(10).estimate_mean(&eligible, &mut rng);
        let truth = eligible.iter().sum::<f64>() / eligible.len() as f64;
        println!(
            "task {task} ({name}): {} participants, estimate {est:.1} (truth {truth:.1})",
            eligible.len()
        );
    }

    println!(
        "ledger: {} clients metered, max bits/client = {}, max eps/client = {:.1}, total bits = {}",
        ledger.clients(),
        ledger.max_bits_per_client(),
        ledger.max_epsilon_per_client(),
        ledger.total_bits()
    );
    assert!(ledger.max_bits_per_client() <= 2, "budget must hold");
    println!(
        "worst-case promise: no client ever disclosed more than {} randomized bits — a guarantee \
         that holds regardless of any DP analysis.",
        ledger.max_bits_per_client()
    );
}
