//! Deterministic fault injection for the federated pipeline.
//!
//! The dropout models in [`crate::dropout`] cover the *statistical* failure
//! mode Section 4.3 describes; real fleets also exhibit adversarial and
//! infrastructure faults: stragglers that blow past the round deadline,
//! bit flips in transit, duplicated deliveries from retrying transports,
//! replayed and stale-round reports. This module injects those faults
//! deterministically — each (seed, round, client) triple maps to the same
//! fault on every run — so chaos scenarios are reproducible and composable
//! with any [`crate::dropout::DropoutModel`]: fault sampling draws nothing
//! from the orchestrator's RNG stream.

use std::collections::HashMap;

use crate::error::FedError;

/// What goes wrong for one contacted client, and at which protocol phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The client vanishes before sending its report.
    DropBeforeReport,
    /// The client reports but is gone for the secure-aggregation unmask
    /// round (stresses mask recovery and the retry path).
    DropBeforeUnmask,
    /// The report arrives after the wave deadline and is discarded.
    Straggle,
    /// The report's bit value is flipped in transit (undetectable).
    CorruptBit,
    /// A retrying transport delivers the same report twice.
    DuplicateReport,
    /// An adversary replays a previously observed report in place of the
    /// client's fresh one.
    ReplayReport,
    /// The report carries a previous round's identifier.
    StaleRound,
}

impl FaultKind {
    /// All kinds, in the order the cumulative-rate walk uses.
    pub const ALL: [FaultKind; 7] = [
        FaultKind::DropBeforeReport,
        FaultKind::DropBeforeUnmask,
        FaultKind::Straggle,
        FaultKind::CorruptBit,
        FaultKind::DuplicateReport,
        FaultKind::ReplayReport,
        FaultKind::StaleRound,
    ];
}

/// Per-kind injection probabilities, applied independently per client.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRates {
    /// P(drop before reporting).
    pub drop_before_report: f64,
    /// P(drop before the unmask round).
    pub drop_before_unmask: f64,
    /// P(straggle past the wave deadline).
    pub straggle: f64,
    /// P(bit corrupted in transit).
    pub corrupt_bit: f64,
    /// P(report delivered twice).
    pub duplicate: f64,
    /// P(report replaced by a replay).
    pub replay: f64,
    /// P(report tagged with a stale round id).
    pub stale_round: f64,
}

impl FaultRates {
    /// No faults.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// The same rate for every fault kind.
    #[must_use]
    pub fn uniform(rate: f64) -> Self {
        Self {
            drop_before_report: rate,
            drop_before_unmask: rate,
            straggle: rate,
            corrupt_bit: rate,
            duplicate: rate,
            replay: rate,
            stale_round: rate,
        }
    }

    fn as_array(&self) -> [f64; 7] {
        [
            self.drop_before_report,
            self.drop_before_unmask,
            self.straggle,
            self.corrupt_bit,
            self.duplicate,
            self.replay,
            self.stale_round,
        ]
    }

    /// Probability that a client suffers *some* fault.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.as_array().iter().sum()
    }
}

/// A seeded, deterministic fault source.
///
/// The plan is a pure function: the fault (if any) assigned to a client
/// depends only on `(plan seed, round, client)`, never on call order, so the
/// same plan replayed over the same cohort injects the same faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    rates: FaultRates,
    seed: u64,
}

/// SplitMix64 finalizer: a well-mixed 64-bit hash of the input.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform f64 in [0, 1).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultPlan {
    /// Creates a plan.
    ///
    /// # Errors
    /// [`FedError::InvalidConfig`] unless every rate is in `[0, 1]` and the
    /// rates sum to at most 1.
    pub fn new(rates: FaultRates, seed: u64) -> Result<Self, FedError> {
        for (kind, &r) in FaultKind::ALL.iter().zip(rates.as_array().iter()) {
            if !(0.0..=1.0).contains(&r) {
                return Err(FedError::InvalidConfig(format!(
                    "fault rate for {kind:?} must be in [0, 1], got {r}"
                )));
            }
        }
        if rates.total() > 1.0 + 1e-12 {
            return Err(FedError::InvalidConfig(format!(
                "fault rates must sum to at most 1, got {}",
                rates.total()
            )));
        }
        Ok(Self { rates, seed })
    }

    /// The configured rates.
    #[must_use]
    pub fn rates(&self) -> FaultRates {
        self.rates
    }

    /// The plan's seed — with [`FaultPlan::rates`], enough to reconstruct
    /// the plan on the far side of a wire (the TCP daemon replays the
    /// driver's fault plan server-side from exactly these two values).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault (if any) this plan injects for `client` in `round`.
    #[must_use]
    pub fn fault_for(&self, round: u64, client: u64) -> Option<FaultKind> {
        let h = mix(self
            .seed
            .wrapping_mul(0xA24B_AED4_963E_E407)
            .wrapping_add(round)
            .rotate_left(17)
            .wrapping_add(client.wrapping_mul(0x9E6C_63D0_876A_68DE)));
        let u = unit(h);
        let mut cum = 0.0;
        for (kind, &r) in FaultKind::ALL.iter().zip(self.rates.as_array().iter()) {
            cum += r;
            if u < cum {
                return Some(*kind);
            }
        }
        None
    }

    /// An auxiliary deterministic coin tied to a client's fault, used for
    /// payload decisions (e.g., the value a stale report carries).
    #[must_use]
    pub fn payload_bit(&self, round: u64, client: u64) -> bool {
        mix(mix(self.seed ^ round).wrapping_add(client)) & 1 == 1
    }

    /// Materializes the plan over a cohort.
    #[must_use]
    pub fn schedule(&self, round: u64, clients: &[u64]) -> FaultSchedule {
        let faults = clients
            .iter()
            .filter_map(|&c| self.fault_for(round, c).map(|k| (c, k)))
            .collect();
        FaultSchedule { round, faults }
    }
}

/// A materialized fault assignment for one round's cohort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSchedule {
    round: u64,
    faults: HashMap<u64, FaultKind>,
}

impl FaultSchedule {
    /// A schedule with no faults.
    #[must_use]
    pub fn empty(round: u64) -> Self {
        Self {
            round,
            faults: HashMap::new(),
        }
    }

    /// The round this schedule was drawn for.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The fault injected for `client`, if any.
    #[must_use]
    pub fn fault(&self, client: u64) -> Option<FaultKind> {
        self.faults.get(&client).copied()
    }

    /// Total faults injected.
    #[must_use]
    pub fn injected(&self) -> usize {
        self.faults.len()
    }

    /// Faults of a specific kind.
    #[must_use]
    pub fn count(&self, kind: FaultKind) -> usize {
        self.faults.values().filter(|&&k| k == kind).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic() {
        let plan = FaultPlan::new(FaultRates::uniform(0.05), 42).unwrap();
        for client in 0..1000u64 {
            assert_eq!(plan.fault_for(3, client), plan.fault_for(3, client));
        }
        let a = plan.schedule(3, &(0..1000).collect::<Vec<_>>());
        let b = plan.schedule(3, &(0..1000).collect::<Vec<_>>());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_and_rounds_decorrelate() {
        let p1 = FaultPlan::new(FaultRates::uniform(0.1), 1).unwrap();
        let p2 = FaultPlan::new(FaultRates::uniform(0.1), 2).unwrap();
        let clients: Vec<u64> = (0..5000).collect();
        let s11 = p1.schedule(0, &clients);
        let s12 = p1.schedule(1, &clients);
        let s21 = p2.schedule(0, &clients);
        assert_ne!(s11, s12, "rounds must draw fresh faults");
        assert_ne!(s11, s21, "seeds must draw fresh faults");
    }

    #[test]
    fn rates_are_respected() {
        let rates = FaultRates {
            drop_before_report: 0.1,
            corrupt_bit: 0.05,
            ..FaultRates::none()
        };
        let plan = FaultPlan::new(rates, 7).unwrap();
        let n = 200_000u64;
        let mut drops = 0usize;
        let mut corrupt = 0usize;
        let mut other = 0usize;
        for c in 0..n {
            match plan.fault_for(0, c) {
                Some(FaultKind::DropBeforeReport) => drops += 1,
                Some(FaultKind::CorruptBit) => corrupt += 1,
                Some(_) => other += 1,
                None => {}
            }
        }
        assert_eq!(other, 0, "disabled kinds must never fire");
        assert!((drops as f64 / n as f64 - 0.1).abs() < 0.005);
        assert!((corrupt as f64 / n as f64 - 0.05).abs() < 0.005);
    }

    #[test]
    fn invalid_rates_rejected() {
        assert!(matches!(
            FaultPlan::new(FaultRates::uniform(0.2), 0),
            Err(FedError::InvalidConfig(_))
        ));
        let mut rates = FaultRates::none();
        rates.corrupt_bit = -0.1;
        assert!(FaultPlan::new(rates, 0).is_err());
        rates.corrupt_bit = 1.5;
        assert!(FaultPlan::new(rates, 0).is_err());
        assert!(FaultPlan::new(FaultRates::uniform(1.0 / 7.0), 0).is_ok());
    }

    #[test]
    fn schedule_counts_by_kind() {
        let rates = FaultRates {
            duplicate: 0.2,
            stale_round: 0.1,
            ..FaultRates::none()
        };
        let plan = FaultPlan::new(rates, 11).unwrap();
        let clients: Vec<u64> = (0..10_000).collect();
        let s = plan.schedule(5, &clients);
        assert_eq!(
            s.injected(),
            s.count(FaultKind::DuplicateReport) + s.count(FaultKind::StaleRound)
        );
        assert!(s.count(FaultKind::DuplicateReport) > 1500);
        assert!(s.count(FaultKind::StaleRound) > 700);
        assert_eq!(s.count(FaultKind::CorruptBit), 0);
        assert_eq!(s.round(), 5);
    }
}
