//! One run's result: metrics by name, operations attempted and failed, and
//! the verdict of the correctness checks. Printed as the contract's JSON
//! line, gathered into `results.json`, and read back by `compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::Value;

use crate::spec::{END_TO_END, PER_LAYER};

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// The result of one `(workload, seed, traced?)` run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// One op is one round; on `fleet_live` also one client report.
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the run is not correct beyond failed ops (accuracy band,
    /// ledger identities, child exit code). Empty means correct.
    pub violations: Vec<String>,
    pub metrics: BTreeMap<String, Metric>,
}

impl Report {
    pub fn new(workload: &str, seed: u64, traced: bool) -> Self {
        Self {
            workload: workload.to_string(),
            seed,
            traced,
            ..Self::default()
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// Sets a metric. The unit comes from the spec tables; a name that is
    /// in neither table is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let unit = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the spec tables"))
            .1;
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
            },
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.value)
    }

    /// Fills every metric of this run's table that the workload did not
    /// set with 0 (a per-layer metric whose layer is not on the path), and
    /// drops nothing: the contract wants the whole table on every run.
    pub fn fill_table(&mut self) {
        let names: Vec<&str> = if self.traced {
            PER_LAYER.iter().map(|(n, _, _)| *n).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        for name in names {
            if !self.metrics.contains_key(name) {
                self.set(name, 0.0);
            }
        }
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn contract_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json()
        );
        out
    }

    fn metrics_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(m.value),
                m.unit
            );
        }
        out.push('}');
        out
    }

    /// The run as an entry of `results.json`.
    pub fn results_entry(&self) -> String {
        let violations: Vec<String> = self
            .violations
            .iter()
            .map(|v| format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"correct\": {}, \
             \"ops_attempted\": {}, \"ops_failed\": {}, \"violations\": [{}], \"metrics\": {}}}",
            self.workload,
            self.seed,
            self.traced,
            self.correct(),
            self.attempted,
            self.failed,
            violations.join(", "),
            self.metrics_json()
        )
    }

    /// Prints every metric by name with its unit, one per line.
    pub fn print_table(&self) {
        let kind = if self.traced { "layer" } else { "e2e" };
        for (name, m) in &self.metrics {
            println!(
                "{kind:5} {:16} {name:48} {:>16} {}",
                self.workload,
                format_value(m.value),
                m.unit
            );
        }
        println!(
            "ops   {:16} {:48} {:>16} count",
            self.workload, "ops_attempted", self.attempted
        );
        println!(
            "ops   {:16} {:48} {:>16} count",
            self.workload, "ops_failed", self.failed
        );
        for v in &self.violations {
            println!("VIOLATION {}: {v}", self.workload);
        }
    }
}

/// All of a float's digits, never NaN or infinity (JSON has neither).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn format_value(v: f64) -> String {
    if v == 0.0 || (v.abs() >= 0.001 && v.abs() < 1e7) {
        format!("{v:.6}")
    } else {
        format!("{v:.4e}")
    }
}

fn obj<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn parse_metrics(v: &Value) -> BTreeMap<String, Metric> {
    let mut metrics = BTreeMap::new();
    if let Value::Object(fields) = v {
        for (name, m) in fields {
            let value = obj(m, "value").and_then(num).unwrap_or(0.0);
            let unit = match obj(m, "unit") {
                Some(Value::Str(u)) => u.clone(),
                _ => String::new(),
            };
            metrics.insert(name.clone(), Metric { value, unit });
        }
    }
    metrics
}

/// Parses a child run's contract line back into a report.
pub fn parse_contract_line(line: &str, workload: &str, seed: u64, traced: bool) -> Option<Report> {
    let v = serde_json::parse(line).ok()?;
    let mut report = Report::new(workload, seed, traced);
    report.attempted = obj(&v, "attempted").and_then(num)? as u64;
    report.failed = obj(&v, "failed").and_then(num)? as u64;
    report.metrics = parse_metrics(obj(&v, "metrics")?);
    if !matches!(obj(&v, "correct"), Some(Value::Bool(true))) {
        report
            .violations
            .push("run reported correct = false".to_string());
    }
    Some(report)
}

/// Parses a `results.json` written by the `all` mode.
pub fn parse_results(text: &str) -> Result<Vec<Report>, String> {
    let v = serde_json::parse(text).map_err(|e| e.to_string())?;
    let Some(Value::Array(runs)) = obj(&v, "runs") else {
        return Err("no `runs` array".to_string());
    };
    let mut out = Vec::new();
    for run in runs {
        let workload = match obj(run, "workload") {
            Some(Value::Str(w)) => w.clone(),
            _ => return Err("run without a workload".to_string()),
        };
        let mut report = Report::new(
            &workload,
            obj(run, "seed").and_then(num).unwrap_or(0.0) as u64,
            matches!(obj(run, "trace"), Some(Value::Bool(true))),
        );
        report.attempted = obj(run, "ops_attempted").and_then(num).unwrap_or(0.0) as u64;
        report.failed = obj(run, "ops_failed").and_then(num).unwrap_or(0.0) as u64;
        if let Some(Value::Array(vs)) = obj(run, "violations") {
            for v in vs {
                if let Value::Str(s) = v {
                    report.violations.push(s.clone());
                }
            }
        }
        report.metrics = obj(run, "metrics").map(parse_metrics).unwrap_or_default();
        out.push(report);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_line_round_trips() {
        let mut r = Report::new("mem_planes", 3, false);
        r.attempted = 12;
        r.set("setup_s", 0.03125);
        r.set("clients_per_s", 2.5e6);
        let back = parse_contract_line(&r.contract_line(), "mem_planes", 3, false).unwrap();
        assert_eq!(back.attempted, 12);
        assert_eq!(back.get("setup_s"), Some(0.03125));
        assert_eq!(back.metrics["clients_per_s"].unit, "1/s");
        assert!(back.correct());
    }

    #[test]
    fn results_entry_round_trips_with_violations() {
        let mut r = Report::new("fleet_live", 9, false);
        r.attempted = 5;
        r.failed = 1;
        r.violations
            .push("z_rms 2.1 outside [0.5, 1.5]".to_string());
        r.set("report_ack_p50_ms", 0.4);
        let text = format!("{{\"runs\": [{}]}}", r.results_entry());
        let back = parse_results(&text).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].failed, 1);
        assert_eq!(back[0].violations.len(), 1);
        assert!(!back[0].correct());
    }

    #[test]
    fn fill_table_covers_the_contract() {
        let mut e2e = Report::new("sync_front_door", 1, false);
        e2e.fill_table();
        assert_eq!(e2e.metrics.len(), END_TO_END.len());
        let mut layer = Report::new("sync_front_door", 1, true);
        layer.fill_table();
        assert_eq!(layer.metrics.len(), PER_LAYER.len());
    }
}
