//! Panels for the extension surfaces beyond the paper's figures:
//! asynchronous streaming convergence and communication accounting.

use fednum_core::encoding::FixedPointCodec;
use fednum_core::sampling::BitSampling;
use fednum_fedsim::StreamingMean;
use fednum_metrics::experiment::derive_seed;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::figures::{normal_population, Budget};

/// Streaming aggregation: observed error and the live predicted error as
/// reports trickle in asynchronously (Section 1.1's asynchronous-updates
/// claim made measurable).
#[must_use]
pub fn extend_streaming(budget: Budget) -> String {
    let checkpoints = [200usize, 500, 1000, 2000, 5000, 10_000, 20_000, 50_000];
    let trials = 30u64;
    let mut s = String::new();
    s.push_str("== Streaming convergence, Normal(500, 100), b=12 [extend-streaming] ==\n");
    s.push_str("reports   observed |err|   predicted std\n");
    s.push_str("----------------------------------------\n");
    for &checkpoint in &checkpoints {
        let mut abs_err = 0.0;
        let mut pred = 0.0;
        for t in 0..trials {
            let seed = derive_seed(budget.seed, t);
            let values = normal_population(500.0, 100.0, checkpoint, seed);
            let truth = values.iter().sum::<f64>() / values.len() as f64;
            let mut agg = StreamingMean::new(
                FixedPointCodec::integer(12),
                BitSampling::geometric(12, 1.0),
                None,
            );
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, 7));
            for &v in &values {
                agg.ingest(v, &mut rng);
            }
            abs_err += (agg.estimate().expect("reports ingested") - truth).abs();
            pred += agg.predicted_std();
        }
        s.push_str(&format!(
            "{checkpoint:>7}   {:>14.3}   {:>13.3}\n",
            abs_err / trials as f64,
            pred / trials as f64
        ));
    }
    s.push_str("shape check: error tracks the live predicted std and falls as 1/sqrt(reports)\n");
    s
}

/// Communication accounting: bytes per client for one-bit reports vs full
/// `b`-bit value uploads, across feature counts (the conclusions'
/// "Communication costs" paragraph, quantified).
#[must_use]
pub fn extend_comms(_budget: Budget) -> String {
    use fednum_core::wire::{bitpush_upload_bytes, full_value_upload_bytes};
    let mut s = String::new();
    s.push_str("== Upload size per client (bytes) [extend-comms] ==\n");
    s.push_str("features   bit-pushing   full 16-bit values   full 32-bit values\n");
    s.push_str("-----------------------------------------------------------------\n");
    for &features in &[1usize, 4, 16, 64, 256] {
        s.push_str(&format!(
            "{features:>8}   {:>11}   {:>18}   {:>18}\n",
            bitpush_upload_bytes(42, features),
            full_value_upload_bytes(42, features, 16),
            full_value_upload_bytes(42, features, 32),
        ));
    }
    s.push_str(
        "shape check: parity for a single feature (both fit one packet); the one-bit \
         advantage appears with multiple features, as the paper's conclusions state\n",
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comms_panel_shows_parity_then_savings() {
        let text = extend_comms(Budget::quick());
        assert!(text.contains("extend-comms"));
        assert!(text.lines().count() >= 8);
    }

    #[test]
    fn streaming_panel_errors_fall() {
        let mut b = Budget::quick();
        b.seed = 9;
        let text = extend_streaming(b);
        assert!(text.contains("extend-streaming"));
        // First data row error should exceed the last.
        let rows: Vec<f64> = text
            .lines()
            .filter(|l| l.starts_with(' ') && l.contains('.'))
            .filter_map(|l| {
                let cols: Vec<&str> = l.split_whitespace().collect();
                cols.get(1).and_then(|v| v.parse().ok())
            })
            .collect();
        assert!(rows.len() >= 4);
        assert!(rows.first().unwrap() > rows.last().unwrap());
    }
}
