//! LULESH under dynamic concurrency throttling — the paper's Table IV.
//!
//! ```text
//! cargo run --release --example adaptive_lulesh [--paper-scale]
//! ```
//!
//! Runs the Sedov blast mini-app three ways — adaptive 16 threads, fixed 16,
//! fixed 12 — and prints the time/energy/power comparison plus the
//! controller's decision trace summary. With `--paper-scale` the input is
//! the calibrated full-size problem (a few seconds of host time).

use maestro::Policy;
use maestro_bench::experiments::{run_maestro, Measured};
use maestro_workloads::lulesh::Lulesh;
use maestro_workloads::{CompilerConfig, OptLevel, Scale};

fn main() {
    let paper = std::env::args().any(|a| a == "--paper-scale");
    let scale = if paper { Scale::Paper } else { Scale::Test };
    let cc = CompilerConfig::gcc(OptLevel::O3);

    println!("LULESH Sedov blast, {:?} scale, GCC -O3, MAESTRO runtime", scale);
    println!("{:<24} {:>9} {:>10} {:>8}", "configuration", "time(s)", "joules", "watts");

    let dynamic = run_maestro(&Lulesh::new(scale), cc, 16, Policy::Adaptive { limit_per_shepherd: 6 });
    let fixed16 = run_maestro(&Lulesh::new(scale), cc, 16, Policy::Fixed);
    let fixed12 = run_maestro(&Lulesh::new(scale), cc, 12, Policy::Fixed);

    for (label, r) in [
        ("16 threads - dynamic", &dynamic),
        ("16 threads - fixed", &fixed16),
        ("12 threads - fixed", &fixed12),
    ] {
        let m = Measured::of(r);
        println!("{:<24} {:>9.2} {:>10.0} {:>8.1}", label, m.time_s, m.joules, m.watts);
    }

    if let Some(t) = &dynamic.throttle {
        println!(
            "\ncontroller engaged {} time(s), throttled {:.0}% of its {} samples;",
            t.activations,
            t.throttled_fraction * 100.0,
            t.decisions
        );
        println!(
            "{:.1} worker-seconds were spent spinning at 1/32 duty ({} duty-MSR writes).",
            dynamic.stats.throttled_worker_ns as f64 * 1e-9,
            dynamic.stats.duty_writes
        );
    }
    let saving = 1.0 - dynamic.joules / fixed16.joules;
    println!(
        "\ndynamic vs fixed-16: {:+.1}% energy, {:+.1}% time — the paper reports \
         ≈3.3% energy saved for ≈6% more time (Table IV).",
        -saving * 100.0,
        (dynamic.elapsed_s / fixed16.elapsed_s - 1.0) * 100.0
    );
}
