//! `fednum-benchmark`: the repository's benchmark (see `README.md`).
//!
//! ```text
//! fednum-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! fednum-benchmark [--seed N] [--runs K] [--seconds S] [--trace] [--quick] [--out FILE]
//! fednum-benchmark compare A.json B.json
//! ```
//!
//! The first form runs one workload and prints, as its last line, the
//! JSON object the benchmark contract asks for: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The second
//! form runs every workload, each in a child process of this binary so
//! that peak memory and CPU are the workload's own, prints every metric by
//! name and writes `benchmark/out/results.json`.

mod check;
mod compare;
mod daemon;
mod fleet_live;
mod host;
mod inproc;
mod layers;
mod proto;
mod report;
mod spec;
mod sys;
mod tcp_campaign;
mod trace;
mod window;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;
use trace::Tracer;

/// Everything written at run time lands here, inside the checkout.
pub const OUT_DIR: &str = "benchmark/out";

/// The seconds one run measures when `--seconds` is not given; equal to
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    /// Seeds `seed..seed+runs` in the all-workloads mode.
    pub runs: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out: PathBuf,
    pub trace_out: PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: fednum-benchmark [--workload NAME] [--seed N] [--runs K] [--seconds S] \
         [--trace [0|1]] [--quick] [--out FILE] [--trace-out FILE]\n       \
         fednum-benchmark compare A.json B.json\nworkloads: {}",
        spec::WORKLOADS.map(|(w, _)| w).join(" ")
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut args = Args {
        workload: None,
        seed: 1,
        runs: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: PathBuf::from(OUT_DIR).join("results.json"),
        trace_out: PathBuf::from(OUT_DIR).join("trace.json"),
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(it.next()?.clone()),
            "--seed" => args.seed = it.next()?.parse().ok()?,
            "--runs" => args.runs = it.next()?.parse().ok().filter(|&k| k >= 1)?,
            "--seconds" => {
                args.seconds = it.next()?.parse().ok().filter(|s: &f64| *s > 0.0)?;
            }
            "--trace" => {
                // `--trace` alone switches tracing on; the driver's form
                // gives it a value.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(it.next()?),
            "--trace-out" => args.trace_out = PathBuf::from(it.next()?),
            _ => return None,
        }
    }
    if args.quick {
        args.seconds /= 10.0;
    }
    if let Some(w) = &args.workload {
        if !spec::is_workload(w) {
            eprintln!("unknown workload `{w}`");
            return None;
        }
    }
    Some(args)
}

/// Runs one workload in this process and prints the contract line.
fn run_one(workload: &str, args: &Args) -> ExitCode {
    let mut report = Report::new(workload, args.seed, args.trace);
    let mut tracer = Tracer::new(args.trace);
    let outcome = if let Some(shape) = inproc::Shape::from_name(workload) {
        if args.trace {
            inproc::run_traced(shape, args, &mut report, &mut tracer);
        } else {
            inproc::run_end_to_end(shape, args, &mut report);
        }
        Ok(())
    } else if workload == "tcp_campaign" {
        tcp_campaign::run(args, &mut report, &mut tracer)
    } else {
        fleet_live::run(args, &mut report, &mut tracer)
    };
    if let Err(e) = outcome {
        // The workload could not run at all (daemon missing, port refused):
        // no result line, non-zero exit.
        eprintln!("fednum-benchmark: {workload}: {e}");
        return ExitCode::from(1);
    }
    if args.trace {
        report.set("trace.spans", tracer.spans().len() as f64);
        let json = format!(
            "{{\"traces\": [\n{}\n]}}\n",
            tracer.to_json(workload, args.seed)
        );
        if let Err(e) = std::fs::write(&args.trace_out, json) {
            eprintln!("cannot write {}: {e}", args.trace_out.display());
            return ExitCode::from(1);
        }
    }
    report.fill_table();
    report.print_table();
    println!("{}", report.contract_line());
    ExitCode::SUCCESS
}

/// Runs one child of this binary on one workload and parses its result.
fn run_child(workload: &str, seed: u64, traced: bool, args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let trace_out = PathBuf::from(OUT_DIR).join(format!("trace.{workload}.json"));
    let output = std::process::Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--trace-out")
        .arg(&trace_out)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    let line = stdout.lines().last().unwrap_or("");
    let mut report = report::parse_contract_line(line, workload, seed, traced)
        .ok_or_else(|| format!("child printed no result line: {line:?}"))?;
    // The result line carries the verdict; the reasons are the child's
    // `VIOLATION` lines.
    let prefix = format!("VIOLATION {workload}: ");
    let reasons: Vec<String> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .map(str::to_string)
        .collect();
    if !reasons.is_empty() {
        report.violations = reasons;
    }
    Ok(report)
}

/// Every workload, untraced then (with `--trace`) traced; prints every
/// metric by name and writes `results.json`.
fn run_all(args: &Args) -> ExitCode {
    let mut reports = Vec::new();
    let mut broken = false;
    for seed in args.seed..args.seed + args.runs {
        for traced in [false, true] {
            if traced && !args.trace {
                continue;
            }
            for (workload, _) in spec::WORKLOADS {
                match run_child(workload, seed, traced, args) {
                    Ok(report) => {
                        report.print_table();
                        broken |= !report.correct();
                        reports.push(report);
                    }
                    Err(e) => {
                        eprintln!("fednum-benchmark: {workload} (seed {seed}): {e}");
                        broken = true;
                    }
                }
            }
        }
    }
    let entries: Vec<String> = reports.iter().map(Report::results_entry).collect();
    // No gain is claimed by the change that defines the benchmark.
    let json = format!(
        "{{\"claim\": null, \"seed\": {}, \"runs_per_workload\": {}, \"seconds\": {}, \"quick\": {}, \
         \"nproc\": {}, \"runs\": [\n{}\n]}}\n",
        args.seed,
        args.runs,
        args.seconds,
        args.quick,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        entries.join(",\n")
    );
    if let Err(e) = std::fs::write(&args.out, json) {
        eprintln!("cannot write {}: {e}", args.out.display());
        return ExitCode::from(1);
    }
    if args.trace {
        // One trace file: the per-workload files the children wrote, joined.
        let traces: Vec<String> = spec::WORKLOADS
            .iter()
            .filter_map(|(w, _)| {
                let text =
                    std::fs::read_to_string(PathBuf::from(OUT_DIR).join(format!("trace.{w}.json")))
                        .ok()?;
                let inner = text.trim().strip_prefix("{\"traces\": [")?;
                Some(inner.strip_suffix("]}")?.trim().to_string())
            })
            .collect();
        let joined = format!("{{\"traces\": [\n{}\n]}}\n", traces.join(",\n"));
        if let Err(e) = std::fs::write(&args.trace_out, joined) {
            eprintln!("cannot write {}: {e}", args.trace_out.display());
            return ExitCode::from(1);
        }
        println!("wrote {}", args.trace_out.display());
    }
    println!("wrote {}", args.out.display());
    if broken {
        eprintln!("fednum-benchmark: at least one workload failed an op or a check");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match (argv.get(1), argv.get(2)) {
            (Some(a), Some(b)) if argv.len() == 3 => compare::run(a, b),
            _ => usage(),
        };
    }
    let Some(args) = parse_args(&argv) else {
        return usage();
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        return ExitCode::from(1);
    }
    match args.workload.clone() {
        Some(workload) => run_one(&workload, &args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Option<Args> {
        parse_args(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse(&[
            "--workload",
            "fleet_live",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("fleet_live"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, false));
        assert!(
            parse(&["--workload", "mem_planes", "--trace", "1"])
                .unwrap()
                .trace
        );
    }

    #[test]
    fn bare_trace_and_quick_and_rejections() {
        let a = parse(&["--trace", "--quick"]).unwrap();
        assert!(a.trace && a.quick);
        assert_eq!(a.seconds, DEFAULT_SECONDS / 10.0);
        assert!(parse(&["--workload", "nope"]).is_none());
        assert!(parse(&["--seconds", "0"]).is_none());
        assert!(parse(&["--bogus"]).is_none());
    }

    /// `BENCHMARK.json` must name exactly the workloads and metrics of the
    /// spec tables, with the same units, directions and bounds.
    #[test]
    fn spec_matches_benchmark_json() {
        use serde::Value;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v = serde_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |v: &Value, key: &str| -> Value {
            match v {
                Value::Object(fs) => fs.iter().find(|(k, _)| k == key).unwrap().1.clone(),
                _ => panic!("not an object"),
            }
        };
        let text = |v: &Value| match v {
            Value::Str(s) => s.clone(),
            other => panic!("not a string: {other:?}"),
        };
        let list = |v: Value| match v {
            Value::Array(xs) => xs,
            _ => panic!("not an array"),
        };
        let workloads = list(field(&v, "workloads"));
        assert_eq!(workloads.len(), spec::WORKLOADS.len());
        for (w, (name, why)) in workloads.iter().zip(spec::WORKLOADS) {
            assert_eq!(text(&field(w, "name")), name);
            assert_eq!(text(&field(w, "why")), why);
        }
        let e2e = list(field(&v, "end_to_end"));
        assert_eq!(e2e.len(), spec::END_TO_END.len());
        for (m, s) in e2e.iter().zip(spec::END_TO_END) {
            assert_eq!(text(&field(m, "name")), s.name);
            assert_eq!(text(&field(m, "unit")), s.unit);
            assert_eq!(text(&field(m, "better")), s.better.as_str());
            let bound = match field(m, "bound") {
                Value::Float(f) => f,
                Value::UInt(u) => u as f64,
                other => panic!("bound: {other:?}"),
            };
            assert_eq!(bound, s.bound);
        }
        let layers = list(field(&v, "per_layer"));
        assert_eq!(layers.len(), spec::PER_LAYER.len());
        for (m, (name, unit, better)) in layers.iter().zip(spec::PER_LAYER) {
            assert_eq!(text(&field(m, "name")), name);
            assert_eq!(text(&field(m, "unit")), unit);
            assert_eq!(text(&field(m, "better")), better.as_str());
        }
        match field(&v, "run_seconds") {
            Value::UInt(s) => assert_eq!(s as f64, DEFAULT_SECONDS),
            other => panic!("run_seconds: {other:?}"),
        }
    }
}
