//! Property tests over the full stack: random throttle-flag schedules and
//! machine knobs must never break correctness, determinism, or accounting —
//! and every spinner must wake under each of the five wake causes (throttle
//! deactivation, app completion, region termination, loop termination,
//! cancellation), even when a fault plan is eating wake notifications.

use maestro_machine::snap::{Codec, SnapError, SnapReader, SnapWriter};
use maestro_machine::{Cost, DutyCycle, FaultPlan, Machine, MachineConfig, PState, SocketId};
use maestro_runtime::{
    compute_leaf, fork_join, parallel_for, sequential, BoxTask, CancelAt, CancelToken, Monitor,
    Runtime, RuntimeParams, TaskValue, ThrottleState,
};
use proptest::prelude::*;

/// A monitor that toggles the throttle flag at a scripted set of times.
struct ScriptedToggles {
    times_ns: Vec<u64>,
    next: usize,
}

impl Monitor for ScriptedToggles {
    fn next_due_ns(&self) -> Option<u64> {
        self.times_ns.get(self.next).copied()
    }
    fn fire(&mut self, _m: &mut Machine, throttle: &mut ThrottleState) {
        throttle.active = !throttle.active;
        self.next += 1;
    }
    fn snap_state(&self, w: &mut SnapWriter) {
        w.u64(self.next as u64).expect("live state encodes");
    }
    fn restore_state(&mut self, _m: &Machine, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.next = r.u64(self.next as u64)? as usize;
        Ok(())
    }
}

fn runtime(workers: usize) -> Runtime {
    Runtime::new(Machine::new(MachineConfig::sandybridge_2x8()), RuntimeParams::qthreads(workers)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary throttle toggling mid-run never loses or duplicates work,
    /// and the run still terminates with correct results.
    #[test]
    fn random_throttle_toggles_preserve_exactly_once(
        mut toggle_ms in prop::collection::vec(1u64..400, 0..12),
        limit in 1usize..=8,
        workers in 2usize..=16,
    ) {
        toggle_ms.sort_unstable();
        toggle_ms.dedup();
        let mut rt = runtime(workers);
        rt.throttle_mut().limit_per_shepherd = limit;
        rt.add_monitor(Box::new(ScriptedToggles {
            times_ns: toggle_ms.iter().map(|ms| ms * 1_000_000).collect(),
            next: 0,
        }));
        let n = 400;
        let mut app = vec![0u32; n];
        let root = parallel_for(0..n, 7, |app: &mut Vec<u32>, range, _ctx| {
            for i in range.clone() {
                app[i] += 1;
            }
            Cost::new(2_700_000, 10_000, 3.0, 0.7)
        });
        let out = rt.run(&mut app, root).unwrap();
        prop_assert!(app.iter().all(|&v| v == 1), "exactly-once violated");
        prop_assert!(out.elapsed_s > 0.0 && out.joules > 0.0);
        // Spin accounting is consistent: spin entries imply duty writes and
        // nonzero throttled time (when low-power spin is enabled).
        if out.stats.spin_entries > 0 {
            prop_assert!(out.stats.duty_writes >= out.stats.spin_entries);
        }
    }

    /// Identical toggle scripts give bit-identical outcomes.
    #[test]
    fn scripted_runs_are_deterministic(
        toggles in prop::collection::vec(1u64..200, 0..6),
        workers in 1usize..=16,
    ) {
        let run = || {
            let mut rt = runtime(workers);
            let mut t = toggles.clone();
            t.sort_unstable();
            t.dedup();
            rt.add_monitor(Box::new(ScriptedToggles {
                times_ns: t.iter().map(|ms| ms * 1_000_000).collect(),
                next: 0,
            }));
            let children: Vec<BoxTask<()>> = (0..40)
                .map(|i| compute_leaf(Cost::new(1_000_000 + i * 31, 5_000, 2.0, 0.5)))
                .collect();
            let root = fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()));
            let out = rt.run(&mut (), root).unwrap();
            (out.elapsed_s.to_bits(), out.joules.to_bits())
        };
        prop_assert_eq!(run(), run());
    }

    /// Every spinner wakes under throttle deactivation, loop termination,
    /// region termination, and app completion — even when a seeded fault
    /// plan eats an arbitrary fraction (up to all) of wake notifications.
    /// Termination with exactly-once work *is* the property: a spinner that
    /// never woke would hang the run or lose iterations.
    #[test]
    fn spinners_wake_through_barriers_despite_lost_wakes(
        rate in 0.0f64..=1.0,
        seed in 0u64..=u64::MAX,
        limit in 1usize..=4,
        workers in 4usize..=16,
        mut toggle_ms in prop::collection::vec(1u64..300, 0..8),
    ) {
        let mut rt = runtime(workers);
        rt.throttle_mut().limit_per_shepherd = limit;
        rt.set_task_faults(Some(FaultPlan::new(seed).with_lost_wake_rate(rate)));
        toggle_ms.sort_unstable();
        toggle_ms.dedup();
        // Start throttled so spinners exist from the first dispatch; each
        // later toggle is a deactivation/reactivation wake.
        rt.throttle_mut().active = true;
        rt.add_monitor(Box::new(ScriptedToggles {
            times_ns: toggle_ms.iter().map(|ms| ms * 1_000_000).collect(),
            next: 0,
        }));
        let n = 200;
        let mut app = vec![0u32; n];
        // Two barrier-separated parallel loops: every chunk join is a
        // loop-termination wake, every phase join a region-termination wake,
        // and the final join the app-completion wake.
        let phase = || {
            parallel_for(0..n, 7, |app: &mut Vec<u32>, range, _ctx| {
                for i in range {
                    app[i] += 1;
                }
                Cost::new(2_700_000, 10_000, 3.0, 0.7)
            })
        };
        let out = rt.run(&mut app, sequential(vec![phase(), phase()])).unwrap();
        prop_assert!(app.iter().all(|&v| v == 2), "exactly-once violated");
        // Dropped wakes are counted, never silently absorbed: the run may
        // recover via polling or a forced epoch bump, but it always finishes
        // with every core back at full duty.
        prop_assert!(out.elapsed_s > 0.0 && out.joules > 0.0);
        for c in rt.machine().topology().all_cores() {
            prop_assert_eq!(rt.machine().duty(c), DutyCycle::FULL, "core {:?} left throttled", c);
        }
    }

    /// The fifth wake cause: cancelling the run token mid-flight wakes every
    /// spinner (throttle limit 1 maximizes them), drains the remaining bag,
    /// and restores every core — under any lost-wake rate.
    #[test]
    fn cancellation_wakes_spinners_and_drains_the_run(
        cancel_ms in 5u64..200,
        seed in 0u64..=u64::MAX,
        rate in 0.0f64..=1.0,
        workers in 4usize..=16,
    ) {
        let mut rt = runtime(workers);
        rt.throttle_mut().limit_per_shepherd = 1;
        rt.throttle_mut().active = true;
        rt.set_task_faults(Some(FaultPlan::new(seed).with_lost_wake_rate(rate)));
        let token = CancelToken::new();
        rt.add_monitor(Box::new(CancelAt::new(cancel_ms * 1_000_000, token.clone())));
        // Far more work than fits before the cancel: at limit 1 the bag
        // would run for many seconds of virtual time uncancelled.
        let children: Vec<BoxTask<()>> = (0..2000)
            .map(|_| compute_leaf(Cost::new(13_000_000, 500_000, 8.0, 0.95)))
            .collect();
        let root = fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()));
        let out = rt.run_with_cancel(&mut (), root, token).unwrap();
        prop_assert!(out.stats.cancellations >= 1, "{:?}", out.stats);
        prop_assert!(out.stats.tasks_cancelled > 0, "cancel lands mid-bag: {:?}", out.stats);
        prop_assert!(out.stats.tasks_completed > 0, "work ran before the cancel: {:?}", out.stats);
        // Draining is prompt: elapsed stays within a small multiple of the
        // cancel time, nowhere near the uncancelled bag's several seconds.
        prop_assert!(
            out.elapsed_s < 0.5,
            "drain must be quick after a {}ms cancel: {}s", cancel_ms, out.elapsed_s
        );
        for c in rt.machine().topology().all_cores() {
            prop_assert_eq!(rt.machine().duty(c), DutyCycle::FULL, "core {:?} left throttled", c);
        }
    }

    /// Any P-state configuration slows compute-bound work by exactly the
    /// frequency ratio of the slowest socket actually used, never less.
    #[test]
    fn pstates_never_speed_things_up(
        p0 in 0u8..6,
        p1 in 0u8..6,
    ) {
        let elapsed = |a: Option<(PState, PState)>| {
            let mut rt = runtime(16);
            if let Some((s0, s1)) = a {
                rt.machine_mut().set_pstate(SocketId(0), s0);
                rt.machine_mut().set_pstate(SocketId(1), s1);
            }
            let children: Vec<BoxTask<()>> =
                (0..32).map(|_| compute_leaf(Cost::compute(27_000_000, 0.8))).collect();
            let root = fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()));
            rt.run(&mut (), root).unwrap().elapsed_s
        };
        let nominal = elapsed(None);
        let scaled = elapsed(Some((
            PState::new(p0).expect("in range"),
            PState::new(p1).expect("in range"),
        )));
        prop_assert!(scaled >= nominal * 0.999, "P-states cannot beat nominal: {scaled} vs {nominal}");
    }
}
