//! Wall-clock micro-probes behind two of the repository benchmark's
//! per-layer metrics (`perfbench/`): [`machine_advance_ns_per_op`] is its
//! `machine.advance_ns` probe and [`scheduler_steps_per_sec`] its
//! `runtime.probe_steps_per_s` probe. Both are small self-timed loops, not
//! the criterion suites, so the benchmark can take a median over repeats.

use maestro_machine::{CoreActivity, Cost, Machine, MachineConfig};
use maestro_runtime::{compute_leaf, fork_join, BoxTask, Runtime, RuntimeParams, TaskValue};
use std::hint::black_box;
use std::time::Instant;

/// Time `Machine::advance(100_000)` over a loaded node.
pub fn machine_advance_ns_per_op() -> f64 {
    let mut m = Machine::new(MachineConfig::sandybridge_2x8());
    for (i, c) in m.topology().all_cores().enumerate() {
        m.set_activity(c, CoreActivity::Busy { intensity: 0.1 * (i % 10) as f64, ocr: 2.0 });
    }
    // Warm up, then time a fixed batch.
    for _ in 0..1_000 {
        m.advance(100_000);
    }
    const OPS: u32 = 100_000;
    let start = Instant::now();
    for _ in 0..OPS {
        m.advance(black_box(100_000));
    }
    black_box(m.now_ns());
    start.elapsed().as_nanos() as f64 / f64::from(OPS)
}

fn flat_bag(tasks: usize) -> BoxTask<()> {
    let children: Vec<BoxTask<()>> =
        (0..tasks).map(|_| compute_leaf(Cost::compute(100_000, 0.5))).collect();
    fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()))
}

/// Measure scheduler steps per wall-clock second on the flat-bag shape the
/// criterion `scheduler` suite also uses. The shape's exact loop-turn and
/// step counts are pinned by the runtime's `dense_bag_takes_exact_loop_turns`
/// test, so a wall-clock drop here is host speed, not extra work.
pub fn scheduler_steps_per_sec() -> f64 {
    const ROUNDS: usize = 5;
    let mut total_steps = 0u64;
    let mut total_s = 0.0f64;
    for round in 0..=ROUNDS {
        let mut rt = Runtime::new(
            Machine::new(MachineConfig::sandybridge_2x8()),
            RuntimeParams::qthreads(16),
        )
        .expect("valid runtime params");
        let start = Instant::now();
        let outcome = rt.run(&mut (), flat_bag(4096)).expect("flat bag completes");
        let dt = start.elapsed().as_secs_f64();
        if round > 0 {
            // Round 0 is warm-up.
            total_steps += outcome.stats.steps;
            total_s += dt;
        }
    }
    total_steps as f64 / total_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_produce_finite_positive_numbers() {
        let advance = machine_advance_ns_per_op();
        assert!(advance.is_finite() && advance > 0.0);
        let steps = scheduler_steps_per_sec();
        assert!(steps.is_finite() && steps > 0.0);
    }
}
