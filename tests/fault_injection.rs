//! Fault-injection acceptance tests for the measurement pipeline.
//!
//! Three claims, corresponding to the degraded modes documented in
//! DESIGN.md:
//!
//! a. transient MSR read errors are retried and cumulative energy accounting
//!    stays exact;
//! b. a stalled daemon drives the controller into safe mode (throttling
//!    deactivated, full duty cycle restored) within a bounded number of
//!    sample periods, and the controller recovers when samples resume;
//! c. no fault plan makes any rapl/rcr/core code path panic.

use maestro::{Maestro, MaestroConfig, Policy, ThrottleController};
use maestro_machine::{
    CoreActivity, Cost, FaultPlan, Machine, MachineConfig, SocketId, NS_PER_SEC,
};
use maestro_rcr::RcrDaemon;
use maestro_runtime::{compute_leaf, fork_join, BoxTask, Monitor, TaskValue, ThrottleState};

fn busy_machine() -> Machine {
    let mut m = Machine::new(MachineConfig::sandybridge_2x8());
    for c in m.topology().all_cores() {
        m.set_activity(c, CoreActivity::Busy { intensity: 0.95, ocr: 4.0 });
    }
    m
}

const ADAPTIVE: Policy = Policy::Adaptive { limit_per_shepherd: 6 };

fn contended_root(tasks: usize) -> BoxTask<()> {
    let children: Vec<BoxTask<()>> =
        (0..tasks).map(|_| compute_leaf(Cost::new(13_000_000, 500_000, 8.0, 0.95))).collect();
    fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()))
}

// -------------------------------------------------------------------------
// (a) transient errors: retried, energy exact
// -------------------------------------------------------------------------

#[test]
fn transient_errors_are_retried_with_exact_energy_accounting() {
    let mut m = busy_machine();
    // 35 % of MSR reads fail transiently: most ticks need retries, a few
    // ticks fail outright even after the 4-attempt budget.
    let plan = FaultPlan::new(101).with_transient_error_rate(0.35);
    let mut d = RcrDaemon::new(&m).with_faults(plan);
    assert!(d.sample(&m), "seed 101's first tick publishes (fixed PRNG)");
    let baseline: Vec<f64> =
        m.topology().all_sockets().map(|s| m.energy_joules(s)).collect();

    for _ in 0..200 {
        m.advance(d.period_ns());
        let _ = d.sample(&m);
    }
    // Close with a published tick so the blackboard is current.
    let mut closed = false;
    while !closed {
        m.advance(d.period_ns());
        closed = d.sample(&m);
    }

    let h = d.health();
    assert!(h.retried_samples > 20, "the fault storm must have forced retries: {h:?}");
    assert!(h.published > 150, "most ticks still publish: {h:?}");
    for (i, snap) in d.blackboard().snapshot_all().iter().enumerate() {
        let truth = m.energy_joules(SocketId(i as u8)) - baseline[i];
        let rel = (snap.energy_j - truth).abs() / truth;
        assert!(
            rel < 1e-6,
            "socket{i}: published {} J vs true {truth} J under retries",
            snap.energy_j
        );
    }
}

// -------------------------------------------------------------------------
// (b) stalled daemon: safe mode in bounded time, recovery after
// -------------------------------------------------------------------------

#[test]
fn stall_enters_safe_mode_within_bound_and_recovers() {
    let mut m = busy_machine();
    let period = maestro_rcr::DEFAULT_SAMPLE_PERIOD_NS;
    let stall_from = 2 * NS_PER_SEC;
    let stall_until = 4 * NS_PER_SEC;
    let plan = FaultPlan::new(102).with_stall(stall_from, stall_until);
    let (mut ctrl, trace) = ThrottleController::new(&m, ADAPTIVE, Some(plan));
    let mut throttle = ThrottleState::new(6);

    let mut entered_at = None;
    let mut exited_at = None;
    while m.now_ns() < 6 * NS_PER_SEC {
        if ctrl.next_due_ns().unwrap() <= m.now_ns() {
            ctrl.fire(&mut m, &mut throttle);
            let t = m.now_ns();
            if ctrl.in_safe_mode() {
                entered_at.get_or_insert(t);
            } else if entered_at.is_some() {
                exited_at.get_or_insert(t);
            }
            if t < stall_from {
                // Hot + contended: throttling engages before the stall.
            } else if ctrl.in_safe_mode() {
                assert!(!throttle.active, "safe mode keeps throttling off");
                assert_eq!(throttle.effective_limit(), usize::MAX, "full duty restored");
            }
        }
        m.advance(period);
    }

    let entered_at = entered_at.expect("safe mode must trigger during a 2 s stall");
    assert!(
        entered_at <= stall_from + 6 * period,
        "entered {} ns after the stall began; bound is 5 periods (+1 slack)",
        entered_at - stall_from
    );
    let exited_at = exited_at.expect("safe mode must end once samples resume");
    assert!(
        exited_at <= stall_until + 4 * period,
        "recovered {} ns after the stall ended",
        exited_at - stall_until
    );
    assert!(throttle.active, "normal throttling re-engaged on the hot node");
    let tr = trace.borrow();
    assert!(tr.samples.iter().any(|s| s.safe_mode), "trace records the safe-mode era");
    assert!(!tr.samples.last().unwrap().safe_mode, "…and its end");
}

#[test]
fn full_run_surfaces_safe_mode_and_missed_deadlines() {
    let mut cfg = MaestroConfig::adaptive(16);
    // A 1 s stall: ten silent periods, twice what safe mode waits out.
    cfg.daemon_faults = Some(FaultPlan::new(103).with_stall(NS_PER_SEC / 4, 5 * NS_PER_SEC / 4));
    let mut maestro = Maestro::new(cfg);
    let r = maestro.run("stalled", &mut (), contended_root(4000));
    let t = r.throttle.expect("adaptive run has a summary");
    assert!(t.safe_mode_decisions > 0, "stall must show up in the report: {t:?}");
    assert!(t.safe_mode_decisions < t.decisions, "and must not be the whole run: {t:?}");
    assert!(t.missed_deadlines >= 1, "watchdog saw the silent daemon: {t:?}");

    // The same workload on a healthy pipeline reports a clean watchdog.
    let mut healthy = Maestro::new(MaestroConfig::adaptive(16));
    let rh = healthy.run("healthy", &mut (), contended_root(4000));
    let th = rh.throttle.unwrap();
    assert_eq!(th.missed_deadlines, 0, "{th:?}");
    assert_eq!(th.safe_mode_decisions, 0, "{th:?}");
}

// -------------------------------------------------------------------------
// (c) nothing panics under any configured fault plan
// -------------------------------------------------------------------------

#[test]
fn chaos_plans_never_panic_the_pipeline() {
    for seed in 0..12u64 {
        let plan = FaultPlan::new(seed)
            .with_transient_error_rate(0.3)
            .with_extra_wrap_rate(0.2)
            .with_drop_sample_rate(0.2)
            .with_sample_jitter(50_000_000)
            .with_stuck_counter(seed * 3, 25)
            .with_stall(NS_PER_SEC, 2 * NS_PER_SEC);
        let mut m = busy_machine();
        let (mut ctrl, trace) = ThrottleController::new(&m, ADAPTIVE, Some(plan));
        let mut throttle = ThrottleState::new(6);
        while m.now_ns() < 4 * NS_PER_SEC {
            if ctrl.next_due_ns().unwrap() <= m.now_ns() {
                ctrl.fire(&mut m, &mut throttle);
            }
            m.advance(maestro_rcr::DEFAULT_SAMPLE_PERIOD_NS / 2);
        }
        let tr = trace.borrow();
        assert!(!tr.samples.is_empty(), "seed {seed}: controller kept deciding");
        assert!(
            tr.samples.iter().all(|s| s.power_w.is_finite()),
            "seed {seed}: no corrupt value reached a decision"
        );
    }
}

#[test]
fn chaos_plan_full_stack_run_completes() {
    let mut cfg = MaestroConfig::adaptive(16);
    cfg.daemon_faults = Some(
        FaultPlan::new(999)
            .with_transient_error_rate(0.25)
            .with_extra_wrap_rate(0.15)
            .with_drop_sample_rate(0.15)
            .with_sample_jitter(30_000_000)
            .with_stuck_counter(40, 20),
    );
    let mut maestro = Maestro::new(cfg);
    let r = maestro.run("chaos", &mut (), contended_root(1500));
    assert!(r.elapsed_s > 0.0 && r.joules > 0.0);
    assert!(r.joules.is_finite() && r.avg_watts.is_finite());
}
