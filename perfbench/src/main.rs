//! The repository benchmark: end-to-end and per-layer host cost of the
//! ACR reproduction on three workloads (`campaign`, `sweep`, `triage`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign --seed 42 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` repeats set-up plus one timed pass until `--seconds` are
//! used and reports medians of the end-to-end metrics. `--trace 1`
//! alternates untraced and traced passes, probes each layer alone, and
//! reports the per-layer metrics with a reconciliation against the
//! traced wall time. The last stdout line is one JSON object; the exit
//! code is 0 only when every output check passed. NOTES.md says why
//! each workload exists and which layers it should move.

mod layers;
mod report;
mod workloads;

use std::process::ExitCode;

use workloads::{Campaign, Sweep, Triage, PINNED_SEED};

const USAGE: &str = "usage: acr-perfbench --workload campaign|sweep|triage \
[--seed N] [--seconds S] [--trace 0|1]";

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring budget in seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: PINNED_SEED,
        seconds: 30.0,
        trace: false,
    };
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !out.seconds.is_finite() || out.seconds <= 0.0 {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "campaign" => report::drive(&Campaign::reference(), &args),
        "sweep" => report::drive(&Sweep::reference(), &args),
        "triage" => report::drive(&Triage::reference(), &args),
        other => {
            eprintln!("error: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(out) => {
            println!("{}", out.to_json());
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
