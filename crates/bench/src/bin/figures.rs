//! Regenerates every figure of the paper as a text table (stdout) and a
//! JSON record (`results/<id>.json`).
//!
//! Usage:
//!
//! ```text
//! figures [--quick] [--no-json] [PANEL ...]
//! figures --list
//! ```
//!
//! With no panels given, runs everything. `--quick` uses reduced cohort
//! sizes and repetitions for smoke runs. Unknown flags exit 2, like
//! unknown panels.

use std::io::Write as _;

use fednum_bench::figures::{ablate, deploy, extend, fig1, fig2, fig3, fig4, transport, Budget};
use fednum_metrics::table::SeriesTable;

const PANELS: &[&str] = &[
    "fig1a",
    "fig1b",
    "fig1c",
    "fig2a",
    "fig2b",
    "fig2c",
    "fig3a",
    "fig3b",
    "fig4a",
    "fig4b",
    "fig4c",
    "deploy-dropout",
    "deploy-clipping",
    "deploy-bounds",
    "deploy-latency",
    "deploy-secagg",
    "deploy-faults",
    "deploy-salvage",
    "deploy-shuffle",
    "ablate-sampling",
    "ablate-caching",
    "ablate-bsend",
    "ablate-qmc",
    "ablate-omitted",
    "ablate-distributed",
    "ablate-delta",
    "ablate-gamma",
    "robust-quantile",
    "extend-streaming",
    "extend-fedlearn",
    "extend-comms",
    "transport-scale",
    "transport-parity",
];

enum Output {
    Table(SeriesTable),
    Text(String),
}

fn run_panel(id: &str, budget: Budget) -> Option<Output> {
    Some(match id {
        "fig1a" => Output::Table(fig1::fig1a(budget)),
        "fig1b" => Output::Table(fig1::fig1b(budget)),
        "fig1c" => Output::Table(fig1::fig1c(budget)),
        "fig2a" => Output::Table(fig2::fig2a(budget)),
        "fig2b" => Output::Table(fig2::fig2b(budget)),
        "fig2c" => Output::Table(fig2::fig2c(budget)),
        "fig3a" => Output::Table(fig3::fig3a(budget)),
        "fig3b" => Output::Table(fig3::fig3b(budget)),
        "fig4a" => Output::Table(fig4::fig4a(budget)),
        "fig4b" => Output::Text(fig4::fig4b(budget)),
        "fig4c" => Output::Table(fig4::fig4c(budget)),
        "deploy-dropout" => Output::Table(deploy::deploy_dropout(budget)),
        "deploy-clipping" => Output::Table(deploy::deploy_clipping(budget)),
        "deploy-bounds" => Output::Text(deploy::deploy_bounds(budget)),
        "deploy-latency" => Output::Text(deploy::deploy_latency(budget)),
        "deploy-secagg" => Output::Text(deploy::deploy_secagg(budget)),
        "deploy-faults" => Output::Table(deploy::deploy_faults(budget)),
        "deploy-salvage" => Output::Table(deploy::deploy_salvage(budget)),
        "deploy-shuffle" => Output::Text(deploy::deploy_shuffle(budget)),
        "ablate-sampling" => Output::Table(ablate::ablate_sampling(budget)),
        "ablate-caching" => Output::Table(ablate::ablate_caching(budget)),
        "ablate-bsend" => Output::Table(ablate::ablate_bsend(budget)),
        "ablate-qmc" => Output::Table(ablate::ablate_qmc(budget)),
        "ablate-omitted" => Output::Table(ablate::ablate_omitted(budget)),
        "ablate-distributed" => Output::Table(ablate::ablate_distributed(budget)),
        "ablate-delta" => Output::Table(ablate::ablate_delta(budget)),
        "ablate-gamma" => Output::Table(ablate::ablate_gamma(budget)),
        "robust-quantile" => Output::Table(ablate::robust_quantile(budget)),
        "extend-streaming" => Output::Text(extend::extend_streaming(budget)),
        "extend-fedlearn" => Output::Text(extend::extend_fedlearn(budget)),
        "extend-comms" => Output::Text(extend::extend_comms(budget)),
        "transport-scale" => Output::Text(transport::transport_scale(budget)),
        "transport-parity" => Output::Table(transport::transport_parity(budget)),
        _ => return None,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for p in PANELS {
            println!("{p}");
        }
        return;
    }
    if let Some(flag) = args
        .iter()
        .find(|a| a.starts_with("--") && !matches!(a.as_str(), "--quick" | "--no-json"))
    {
        eprintln!("unknown flag '{flag}' — usage: figures [--quick] [--no-json] [PANEL ...]");
        std::process::exit(2);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let write_json = !args.iter().any(|a| a == "--no-json");
    let budget = if quick {
        Budget::quick()
    } else {
        Budget::full()
    };
    let requested: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .collect();
    let panels: Vec<&str> = if requested.is_empty() || requested.iter().any(|r| r == "all") {
        PANELS.to_vec()
    } else {
        requested.iter().map(String::as_str).collect()
    };

    if write_json {
        std::fs::create_dir_all("results").expect("create results dir");
    }
    for id in panels {
        let start = std::time::Instant::now();
        let Some(output) = run_panel(id, budget) else {
            eprintln!("unknown panel '{id}' — use --list to see available panels");
            std::process::exit(2);
        };
        match output {
            Output::Table(table) => {
                println!("{}", table.render_text());
                if write_json {
                    let path = format!("results/{id}.json");
                    let mut f = std::fs::File::create(&path).expect("create json");
                    f.write_all(table.to_json().as_bytes()).expect("write json");
                }
            }
            Output::Text(text) => {
                println!("{text}");
                if write_json {
                    let path = format!("results/{id}.txt");
                    std::fs::write(&path, &text).expect("write text");
                }
            }
        }
        eprintln!("[{id} done in {:.1?}]", start.elapsed());
    }
}
