//! Chaos harness for the SLO-guarded service workload.
//!
//! Three escalating drills over the open-loop service stack:
//!
//! * the **metastability demo**: the same overloaded workload run twice —
//!   with retry budgets disabled it collapses into a retry storm (tail
//!   latency and retry amplification blow up); with budgets plus admission
//!   shedding it recovers (bounded retries, bounded tail);
//! * **conservation under composed chaos**: for every seed of the CI
//!   matrix, overload × FaultPlan faults (lost spinner wakes, failed and
//!   torn duty writes) under the SLO governor's throttle — the request
//!   ledger must balance to the unit at run end, and every core must end
//!   at full duty;
//! * the **error-path regression**: a run killed by its wall-clock
//!   deadline mid-overload must drain every in-flight request into the
//!   ledger, carry the shed/retry tallies in the *partial* stats of the
//!   typed error, and restore full duty — a dying service run leaks
//!   nothing.
//!
//! `CHAOS_SEED=<n>` narrows the sweep to one seed, matching the CI chaos
//! matrix; every assertion carries the seed and fault schedule via
//! [`with_chaos_context`].

use maestro::{Maestro, MaestroConfig};
use maestro_bench::chaos::with_chaos_context;
use maestro_bench::experiments::service_at_scale;
use maestro_machine::{DutyCycle, FaultPlan, SplitMix64};
use maestro_runtime::{RuntimeError, ServiceCounters};
use maestro_service::{ServiceConfig, ServiceStack, ServiceSummary};
use maestro_workloads::Scale;
use std::cell::Cell;

const MS: u64 = 1_000_000;

/// The seed matrix: all of 1..=8 locally, one seed under `CHAOS_SEED`.
fn seeds() -> Vec<u64> {
    maestro_bench::chaos::seeds(8)
}

/// A uniform draw in `[0, 1)` with 53 significant bits.
fn unit_f64(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

fn assert_all_cores_full(m: &Maestro, ctx: &str) {
    for c in m.machine().topology().all_cores() {
        assert_eq!(
            m.machine().duty(c),
            DutyCycle::FULL,
            "{ctx}: core {c:?} left below full duty after shutdown"
        );
    }
}

/// The ledger must balance to the unit with nothing still in motion.
fn assert_settled(c: &ServiceCounters, total: u64, ctx: &str) {
    assert_eq!(c.arrived, total, "{ctx}: every request must arrive: {c:?}");
    assert_eq!(c.conservation_gap(), 0, "{ctx}: ledger out of balance: {c:?}");
    assert_eq!(c.in_flight, 0, "{ctx}: requests left in flight: {c:?}");
    assert_eq!(c.pending_retry, 0, "{ctx}: retries left pending: {c:?}");
}

/// Run a registry service scenario to completion and summarize it.
fn run_scenario(name: &str) -> (ServiceSummary, maestro::RunReport) {
    let sc = service_at_scale(name, Scale::Test);
    let total = sc.service.arrivals.total_requests;
    let (mut m, source, handle) = maestro_bench::scenario::service_facade(&sc);
    let report = m
        .try_run_service(name, &mut (), source)
        .unwrap_or_else(|e| panic!("{name} must complete: {e}"));
    assert_all_cores_full(&m, name);
    let summary = ServiceSummary::collect(&handle, report.elapsed_s);
    assert_settled(&summary.counters, total, name);
    (summary, report)
}

/// Tentpole demo: with budgets disabled the overloaded workload goes
/// metastable — clients re-offer expired work faster than it can finish,
/// so retries amplify and the tail blows up. The identical workload with
/// retry budgets + admission shedding stays stable: bounded retries, an
/// order-of-magnitude tighter p99, and the shedding happens *early* (at
/// admission) instead of late (post-expiry cancellation).
#[test]
fn retry_storm_collapses_without_budgets_and_recovers_with_them() {
    let (storm, _) = run_scenario("svc-storm");
    let (guarded, _) = run_scenario("svc-storm-guarded");

    // Identical arrivals: the two runs differ only in the guardrails.
    assert_eq!(storm.counters.arrived, guarded.counters.arrived);

    // Collapse signature: the unguarded run spends several retries per
    // completion; the guarded run's budget caps that amplification.
    let storm_amp = storm.counters.retries_spent as f64 / storm.counters.completed.max(1) as f64;
    let guarded_amp =
        guarded.counters.retries_spent as f64 / guarded.counters.completed.max(1) as f64;
    assert!(
        storm_amp >= 3.0 * guarded_amp && storm.counters.retries_spent > 1000,
        "budgets must bound retry amplification: storm {storm_amp:.2} ({} retries) \
         vs guarded {guarded_amp:.2} ({} retries)",
        storm.counters.retries_spent,
        guarded.counters.retries_spent,
    );

    // Recovery signature: the guarded tail is a fraction of the storm's.
    assert!(
        guarded.p99_ns * 2 <= storm.p99_ns,
        "budgets must bound the tail: guarded p99 {} ns vs storm p99 {} ns",
        guarded.p99_ns,
        storm.p99_ns,
    );

    // Goodput survives the guardrails: shedding early loses no more
    // completions than the storm's wasted retry work does.
    assert!(
        guarded.counters.completed * 10 >= storm.counters.completed * 9,
        "guardrails must not sacrifice goodput: guarded {} vs storm {}",
        guarded.counters.completed,
        storm.counters.completed,
    );
}

/// Conservation under composed chaos: per seed, an overloaded service (hot
/// arrival rate, tight deadlines, seed-scattered retry tuning) runs under
/// the SLO governor while a FaultPlan eats spinner wakes and corrupts duty
/// writes. Whatever completes, sheds, cancels, or fails — the ledger
/// balances to the unit and the machine ends at full duty.
#[test]
fn conservation_holds_under_composed_overload_and_fault_chaos() {
    for seed in seeds() {
        let mut rng = SplitMix64::new(seed ^ 0x5e1f);
        let rate = 60_000.0 + 60_000.0 * unit_f64(&mut rng);
        let deadline = 300_000 + rng.next_u64() % 500_000;
        let lost_wake = 0.2 + 0.2 * unit_f64(&mut rng);
        let write_fail = 0.10 + 0.15 * unit_f64(&mut rng);
        let torn = 0.10 * unit_f64(&mut rng);
        let budgets_on = seed % 2 == 0;
        let schedule = format!(
            "service[rate={rate:.0} deadline={deadline} budgets={budgets_on}] \
             task[lost_wake={lost_wake:.3}] write[fail={write_fail:.3} torn={torn:.3}]"
        );
        let t_now = Cell::new(0u64);
        with_chaos_context(seed, &schedule, &t_now, || {
            let total = 4_000;
            let mut service = ServiceConfig::simple(seed, rate, total, deadline);
            service.classes[0].retry_limit = 2 + (rng.next_u64() % 3) as u32;
            if !budgets_on {
                service.retry_budget = None;
            }
            let stack = ServiceStack::new(&service, Some(2 * deadline));
            let handle = stack.handle.clone();

            let mut m = Maestro::new(MaestroConfig::fixed(16));
            if let Some(g) = stack.governor {
                m.runtime_mut().add_monitor(Box::new(g));
            }
            m.runtime_mut()
                .set_task_faults(Some(FaultPlan::new(seed ^ 0x7a5c).with_lost_wake_rate(lost_wake)));
            m.runtime_mut().set_actuation_faults(Some(
                FaultPlan::new(seed ^ 0x5eed)
                    .with_duty_write_fail_rate(write_fail)
                    .with_duty_write_torn_rate(torn),
            ));

            let report = m
                .try_run_service("svc-chaos", &mut (), stack.source)
                .unwrap_or_else(|e| panic!("seed {seed}: chaos service run failed: {e}"));
            t_now.set(m.machine().now_ns());

            assert_all_cores_full(&m, &format!("seed {seed}"));
            let c = handle.borrow().counters;
            assert_settled(&c, total, &format!("seed {seed}"));
            assert!(c.completed > 0, "seed {seed}: nothing completed: {c:?}");
            // The terminal stats mirror the source's ledger.
            assert_eq!(report.stats.requests_shed, c.shed, "seed {seed}");
            assert_eq!(report.stats.retries_spent, c.retries_spent, "seed {seed}");
        });
    }
}

/// Satellite regression: every service error path drains in-flight
/// requests and restores full duty. A wall-clock deadline kills the run
/// mid-overload — in-flight work and pending retries must fold into the
/// ledger (conservation still exact), the typed error's *partial* stats
/// must carry the shed/retry tallies, and no core stays throttled.
#[test]
fn service_error_paths_drain_in_flight_and_restore_full_duty() {
    for seed in seeds() {
        let schedule = "service[overload] deadline=20ms".to_string();
        let t_now = Cell::new(0u64);
        with_chaos_context(seed, &schedule, &t_now, || {
            let sc = service_at_scale("svc-storm-guarded", Scale::Test);
            let total = sc.service.arrivals.total_requests;
            // Vary the arrival stream per seed so the matrix kills the run
            // in different admission/retry states.
            let mut service = sc.service.clone();
            service.arrivals.seed = seed;
            let stack = ServiceStack::new(&service, sc.slo_p99_ns);
            let handle = stack.handle.clone();

            let mut cfg = sc.config.clone();
            cfg.runtime.deadline_ns = Some(20 * MS);
            let mut m = Maestro::new(cfg);
            if let Some(g) = stack.governor {
                m.runtime_mut().add_monitor(Box::new(g));
            }

            let err = m
                .try_run_service("svc-wedge", &mut (), stack.source)
                .expect_err("a 20 ms deadline must kill a ~70 ms overloaded run");
            t_now.set(m.machine().now_ns());
            assert!(
                matches!(err, RuntimeError::DeadlineExceeded { .. }),
                "seed {seed}: expected DeadlineExceeded, got {err:?}"
            );

            // Inviolable post-conditions on the error path.
            assert_all_cores_full(&m, &format!("seed {seed}"));
            let c = handle.borrow().counters;
            assert_eq!(c.conservation_gap(), 0, "seed {seed}: ledger out of balance: {c:?}");
            assert_eq!(c.in_flight, 0, "seed {seed}: in-flight not drained: {c:?}");
            assert_eq!(c.pending_retry, 0, "seed {seed}: retries not drained: {c:?}");
            assert!(
                c.arrived < total,
                "seed {seed}: the deadline must fire mid-stream (arrived {} of {total})",
                c.arrived
            );
            assert!(
                c.failed > 0,
                "seed {seed}: killing an overloaded run must fail drained work: {c:?}"
            );

            // The partial stats carry the service tallies (the satellite's
            // terminal-error-path extension of RunStats).
            let partial = err
                .partial_stats()
                .unwrap_or_else(|| panic!("seed {seed}: typed error must carry partial stats"));
            assert_eq!(partial.requests_shed, c.shed, "seed {seed}: {partial:?}");
            assert_eq!(partial.retries_spent, c.retries_spent, "seed {seed}: {partial:?}");
        });
    }
}
