//! Power clamping via concurrency throttling — the paper's §V outlook
//! ("Concurrency throttling to match parallelism to available power would
//! operate well within a multi-node power clamping environment").
//!
//! ```text
//! cargo run --release --example power_cap [cap_watts]
//! ```
//!
//! Runs LULESH under a node power bound and prints how the controller
//! adjusts the shepherd concurrency limit to respect it.

use maestro::{Actuation, Maestro, MaestroConfig, Policy};
use maestro_bench::experiments::maestro_params;
use maestro_workloads::lulesh::Lulesh;
use maestro_workloads::{CompilerConfig, OptLevel, Scale, Workload};

fn main() {
    let cap_w: f64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(125.0);
    let cc = CompilerConfig::gcc(OptLevel::O3);
    let w = Lulesh::new(Scale::Test);

    println!("LULESH unconstrained:");
    let mut cfg = MaestroConfig::fixed(16);
    cfg.runtime = w.runtime_params(cc, 16);
    let mut free = Maestro::new(cfg);
    let baseline = w.run(&mut free, cc);
    println!("  {baseline}");

    println!("\nLULESH under a {cap_w:.0} W node power cap:");
    let mut cfg = MaestroConfig::fixed(16);
    cfg.policy = Policy::PowerCap { watts: cap_w };
    cfg.runtime = maestro_params(&w, cc, 16);
    let mut capped = Maestro::new(cfg);
    let report = w.run(&mut capped, cc);
    println!("  {report}");

    if let Some(trace) = capped.controller_trace() {
        let trace = trace.borrow();
        println!(
            "  controller: {} samples, {:.0}% within the cap",
            trace.samples.len(),
            trace.compliance(cap_w) * 100.0
        );
        // A compact timeline: limit per shepherd over the run.
        let line: String = trace
            .samples
            .iter()
            .filter_map(|s| match s.actuation {
                Actuation::Limit(l) => Some(char::from_digit(u32::from(l), 10).unwrap_or('+')),
                _ => None,
            })
            .collect();
        println!("  active-limit timeline (per shepherd, one digit per 0.1 s): {line}");
    }
    println!(
        "\nslowdown {:+.1}%, energy {:+.1}% versus unconstrained",
        (report.elapsed_s / baseline.elapsed_s - 1.0) * 100.0,
        (report.joules / baseline.joules - 1.0) * 100.0,
    );
}
