//! `perfbench` — run one benchmark workload and print its metrics.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Human-readable lines go first; the last line of standard output is the
//! JSON result. Exit status 2 means bad arguments or an unusable run.

use std::path::PathBuf;
use std::process::ExitCode;

use maestro_perfbench::{result_json, run, Opts, Size, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]";

fn parse() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        trace_dir: Some(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds >= 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be within 0..=600".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# {} seed {} ({}): {} untraced + {} traced passes, digest {:016x}",
        opts.workload,
        opts.seed,
        if opts.trace { "traced" } else { "untraced" },
        outcome.passes.0,
        outcome.passes.1,
        outcome.digest
    );
    for m in outcome.metrics.iter().chain(&outcome.summary) {
        println!(
            "{:<36} {:>20} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
    }
    for f in &outcome.failures {
        println!("# FAILED: {f}");
    }
    println!("{}", result_json(&outcome));
    ExitCode::SUCCESS
}
