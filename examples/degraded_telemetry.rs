//! Degraded telemetry: what the adaptive controller does when the
//! measurement pipeline misbehaves.
//!
//! ```text
//! cargo run --release --example degraded_telemetry
//! ```
//!
//! Runs the same hot, memory-contended workload three times:
//!
//! 1. healthy pipeline — normal throttling;
//! 2. transient-fault storm — 30 % of MSR reads fail; the probe retries
//!    inside the sample period and throttling proceeds as usual;
//! 3. daemon stall — the sampling daemon goes silent for half the run;
//!    the controller fails open (safe mode: throttling off, full duty
//!    cycle) until samples resume, and the watchdog counts the silence.

use maestro::{Maestro, MaestroConfig};
use maestro_machine::{Cost, FaultPlan, NS_PER_SEC};
use maestro_runtime::{compute_leaf, fork_join, BoxTask, TaskValue};

fn contended_root() -> BoxTask<()> {
    let children: Vec<BoxTask<()>> = (0..3000)
        .map(|_| compute_leaf(Cost::new(13_000_000, 500_000, 8.0, 0.95)))
        .collect();
    fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()))
}

fn main() {
    let plans: [(&str, Option<FaultPlan>); 3] = [
        ("healthy", None),
        ("retry-storm", Some(FaultPlan::new(7).with_transient_error_rate(0.3))),
        ("daemon-stall", Some(FaultPlan::new(7).with_stall(NS_PER_SEC / 5, 6 * NS_PER_SEC / 5))),
    ];
    for (name, plan) in plans {
        let mut cfg = MaestroConfig::adaptive(16);
        cfg.daemon_faults = plan;
        let mut maestro = Maestro::new(cfg);
        let report = maestro.run(name, &mut (), contended_root());
        println!("{report}");
    }
}
