//! Quickstart: run a workload on the simulated node and measure it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the integrated MAESTRO stack (machine model + Qthreads-style
//! runtime + RCR measurement), runs a small parallel computation twice —
//! once with fixed concurrency, once with the adaptive throttling
//! controller — and prints the region reports.

use maestro::{Maestro, MaestroConfig};
use maestro_machine::Cost;
use maestro_runtime::{fork_join, leaf, BoxTask, TaskCtx, TaskValue};

/// A synthetic "solver": 512 coarse tasks, each summing a slice of shared
/// data (real work) while the cost descriptor declares a hot, memory-heavy
/// profile — the kind of program the paper's controller throttles.
fn solver_root(data_len: usize) -> (Vec<f64>, BoxTask<Vec<f64>>) {
    let data: Vec<f64> = (0..data_len).map(|i| (i % 97) as f64).collect();
    let tasks = 512;
    let chunk = data_len.div_ceil(tasks);
    let children: Vec<BoxTask<Vec<f64>>> = (0..tasks)
        .map(|t| {
            let lo = (t * chunk).min(data_len);
            let hi = ((t + 1) * chunk).min(data_len);
            // 5 ms of work per task: 60 % memory-bound at MLP 8, execution
            // units well utilized — both throttle meters go High.
            let cost = Cost::new(5_400_000, 430_000, 8.0, 0.95);
            leaf(move |data: &mut Vec<f64>, _ctx: &mut TaskCtx| {
                let partial: f64 = data[lo..hi].iter().sum();
                (cost, TaskValue::of(partial))
            })
        })
        .collect();
    let root = fork_join(children, |_data, mut vals| {
        let total: f64 = vals.iter_mut().map(|v| v.take::<f64>().unwrap()).sum();
        (Cost::ZERO, TaskValue::of(total))
    });
    (data, root)
}

fn main() {
    println!("== fixed concurrency: 16 workers, no controller ==");
    let mut fixed = Maestro::new(MaestroConfig::fixed(16));
    let (mut data, root) = solver_root(1 << 20);
    let report = fixed.run("solver/fixed-16", &mut data, root);
    println!("{report}");

    println!();
    println!("== adaptive: 16 workers + RCR-driven throttling (limit 6/shepherd) ==");
    let mut adaptive = Maestro::new(MaestroConfig::adaptive(16));
    let (mut data, root) = solver_root(1 << 20);
    let report = adaptive.run("solver/adaptive-16", &mut data, root);
    println!("{report}");
    if let Some(t) = &report.throttle {
        println!(
            "controller: {} decisions, throttled {:.0}% of samples, \
             {:.2} worker-seconds in the low-power spin state, {} duty-MSR writes",
            t.decisions,
            t.throttled_fraction * 100.0,
            report.stats.throttled_worker_ns as f64 * 1e-9,
            report.stats.duty_writes
        );
    }
    println!();
    println!(
        "The adaptive run trades a little time for lower power on this \
         contended workload — the paper's §IV result in miniature."
    );
}
