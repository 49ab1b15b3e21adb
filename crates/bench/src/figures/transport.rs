//! Transport-subsystem panels: fleet-scale wall-clock for the sharded
//! event-driven coordinator, and estimate parity between the synchronous
//! and message-passing execution paths.

use std::fmt::Write as _;
use std::time::Instant;

use fednum_core::encoding::FixedPointCodec;
use fednum_core::protocol::basic::BasicConfig;
use fednum_core::sampling::BitSampling;
use fednum_fedsim::round::{FederatedMeanConfig, FederatedOutcome};
use fednum_fedsim::DropoutModel;
use fednum_metrics::experiment::derive_seed;
use fednum_metrics::table::{Metric, Series, SeriesTable};
use fednum_metrics::{ErrorCollector, Repetitions};
use fednum_transport::{InMemoryTransport, RoundBuilder, ShardedOutcome, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{normal_population, Budget};

// Builder-backed stand-ins for the removed free functions; the figure
// bodies keep their original call shapes.
fn run_federated_mean(
    values: &[f64],
    config: &FederatedMeanConfig,
    rng: &mut dyn rand::Rng,
) -> Result<FederatedOutcome, fednum_fedsim::FedError> {
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
) -> Result<FederatedOutcome, fednum_fedsim::FedError> {
    RoundBuilder::new(config.clone())
        .via(transport)
        .rng(rng)
        .run(values)
        .map(|out| out.flat().unwrap().clone())
}

fn run_sharded_mean(
    values: &[f64],
    config: &FederatedMeanConfig,
    shards: usize,
    seed: u64,
) -> Result<ShardedOutcome, fednum_fedsim::FedError> {
    RoundBuilder::new(config.clone())
        .sharded(shards, seed)
        .run(values)
        .map(|out| out.sharded().unwrap().clone())
}

const BITS: u32 = 10;

fn transport_config(dropout: DropoutModel) -> FederatedMeanConfig {
    FederatedMeanConfig::new(BasicConfig::new(
        FixedPointCodec::integer(BITS),
        BitSampling::geometric(BITS, 1.0),
    ))
    .with_dropout(dropout)
}

/// Fleet-scale panel: one bit-pushing round through the sharded coordinator
/// at growing fleet sizes — the flagship row is a **million clients**, which
/// must complete in single-digit seconds. Reports wall time, metered uplink
/// bytes per client, and estimate error.
#[must_use]
pub fn transport_scale(budget: Budget) -> String {
    // `var_n` distinguishes quick smoke (20k) from the paper-scale run.
    let full = budget.var_n >= 100_000;
    let grid: &[(usize, usize)] = if full {
        &[(10_000, 1), (100_000, 8), (300_000, 16), (1_000_000, 64)]
    } else {
        &[(5_000, 1), (20_000, 4), (50_000, 8)]
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "transport-scale: sharded event-driven coordinator, integer({BITS}) codec, \
         uniform values in [0, 1000)"
    );
    let _ = writeln!(
        out,
        "{:>10} {:>7} {:>9} {:>14} {:>12} {:>10}",
        "clients", "shards", "wall s", "uplink B/clnt", "messages", "rel err"
    );
    for &(clients, shards) in grid {
        let vs: Vec<f64> = (0..clients).map(|i| (i % 1000) as f64).collect();
        let truth = vs.iter().sum::<f64>() / vs.len() as f64;
        let cfg = transport_config(DropoutModel::None);
        let start = Instant::now();
        let r = run_sharded_mean(&vs, &cfg, shards, budget.seed).expect("sharded round");
        let wall = start.elapsed().as_secs_f64();
        let _ = writeln!(
            out,
            "{:>10} {:>7} {:>9.2} {:>14.1} {:>12} {:>10.5}",
            clients,
            shards,
            wall,
            r.traffic.uplink_bytes_per_client(clients),
            r.traffic.total_messages(),
            (r.outcome.estimate - truth).abs() / truth
        );
    }
    if full {
        out.push_str(
            "flagship: wall times are this host's; timing claims go through benchmark/ \
             (sync_front_door, mem_planes: 1M clients)\n",
        );
    }
    out
}

/// Parity panel: NRMSE of the legacy synchronous orchestrator and the
/// event-driven transport path across dropout rates, under paired seeds.
/// The two series must coincide exactly — same seed, same draws, same
/// estimate — so any daylight between the curves is a transport bug.
#[must_use]
pub fn transport_parity(budget: Budget) -> SeriesTable {
    let rates = [0.0f64, 0.1, 0.2, 0.3, 0.4, 0.5];
    let reps = Repetitions::new(budget.reps.min(40), budget.seed);
    let n = budget.n.min(5_000);
    let mut legacy = Series::new("synchronous orchestrator");
    let mut evented = Series::new("event-driven transport");
    for &rate in &rates {
        let mut col_legacy = ErrorCollector::new();
        let mut col_evented = ErrorCollector::new();
        for t in 0..reps.trials {
            let seed = reps.seed_for(t);
            let values = normal_population(500.0, 100.0, n, seed);
            let truth = values.iter().sum::<f64>() / values.len() as f64;
            let dropout = if rate > 0.0 {
                DropoutModel::bernoulli(rate)
            } else {
                DropoutModel::None
            };
            let cfg = transport_config(dropout);
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, 7));
            if let Ok(out) = run_federated_mean(&values, &cfg, &mut rng) {
                col_legacy.push(out.outcome.estimate, truth);
            }
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, 7));
            let mut transport = InMemoryTransport::new(derive_seed(seed, 8));
            if let Ok(out) = run_federated_mean_transport(&values, &cfg, &mut transport, &mut rng) {
                col_evented.push(out.outcome.estimate, truth);
            }
        }
        legacy.push(rate, col_legacy.summary());
        evented.push(rate, col_evented.summary());
    }
    let mut table = SeriesTable::new(
        "transport-parity",
        format!("Execution-path parity under dropout, Normal(500, 100), n={n}, b={BITS}"),
        "dropout rate",
        Metric::Nrmse,
    );
    table.push_series(legacy);
    table.push_series(evented);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_series_coincide() {
        let mut b = Budget::quick();
        b.reps = 4;
        b.n = 800;
        let table = transport_parity(b);
        let json = table.to_json();
        assert!(json.contains("transport-parity"));
        // Bit-identical estimates ⇒ identical NRMSE summaries ⇒ the two
        // series render identically apart from their names.
        let rendered = table.render_text();
        let lines: Vec<&str> = rendered.lines().collect();
        assert!(lines.len() > 2, "table should render rows:\n{rendered}");
    }

    #[test]
    fn scale_panel_runs_quick() {
        let text = transport_scale(Budget::quick());
        assert!(text.contains("transport-scale"));
        assert!(text.contains("50000"));
    }
}
