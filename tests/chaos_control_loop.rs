//! Chaos harness for the supervised control plane.
//!
//! Composes every fault family the stack knows — RAPL read faults (PR 1),
//! duty-write faults, scripted daemon kills, and task-level faults (PR 4:
//! scripted step panics, wedges, lost spinner wakes) — over seeded
//! schedules and asserts the full loop degrades *safely*:
//!
//! * no unwind escapes: every run completes through [`Maestro::try_run`],
//!   returning `Ok` or a typed error — never a panic;
//! * fail toward performance: no core is left below `DutyCycle::FULL` after
//!   shutdown, whatever the actuator or the task layer had to survive;
//! * energy accounting stays exact across daemon restarts (checkpointed
//!   wrap trackers book the outage gap);
//! * a wedged workload terminates within its configured deadline with a
//!   partial report; recovery and actuation decisions stay visible.
//!
//! Every assertion failure carries the active chaos seed, the full fault
//! schedule, and the virtual timestamp (via [`with_chaos_context`]), and
//! the snapshot-capture path turns a dead run into a *time-travel* triage:
//! cadence snapshots survive the failure, the nearest pre-failure one is
//! written to disk, and `maestro-bench replay` re-executes just the
//! snapshot→failure window.
//!
//! `CHAOS_SEED=<n>` narrows the sweep to one seed — the CI chaos matrix
//! fans the seeds out across jobs; locally the whole set runs in-process.

use maestro::{Actuation, Maestro, MaestroConfig, MaestroRunEnd, MaestroSnapshot, Policy};
use maestro_bench::chaos::with_chaos_context;
use maestro_bench::scenario;
use maestro_machine::{
    CoreActivity, Cost, DutyCycle, FaultPlan, Machine, MachineConfig, PState, SocketId, SplitMix64,
    NS_PER_SEC,
};
use maestro_rcr::{Supervisor, RESTART_BUDGET};
use maestro_runtime::{
    compute_leaf, fork_join, BoxTask, RunLimit, RuntimeError, SnapshotPlan, TaskValue,
};
use maestro_workloads::failing;
use std::cell::Cell;

const MS: u64 = 1_000_000;

/// The seed matrix: all of 1..=8 locally, a single seed under `CHAOS_SEED`
/// (how the CI matrix splits the sweep across jobs).
fn seeds() -> Vec<u64> {
    maestro_bench::chaos::seeds(8)
}

/// A uniform draw in `[0, 1)` with 53 significant bits.
fn unit_f64(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// A hot, memory-contended workload (high intensity, high MLP) — the kind
/// the controller actually throttles, so the actuator write path is hot.
fn contended_root(tasks: usize) -> BoxTask<()> {
    let children: Vec<BoxTask<()>> = (0..tasks)
        .map(|_| compute_leaf(Cost::new(13_000_000, 500_000, 8.0, 0.95)))
        .collect();
    fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()))
}

/// Every core must sit at FULL duty once the runtime has shut down — the
/// actuator's one inviolable post-condition under any fault mix.
fn assert_all_cores_full(m: &Maestro, ctx: &str) {
    for c in m.machine().topology().all_cores() {
        assert_eq!(
            m.machine().duty(c),
            DutyCycle::FULL,
            "{ctx}: core {c:?} left below full duty after shutdown"
        );
    }
}

/// The headline sweep: for each seed, a schedule mixing read faults,
/// write faults, and one-or-more daemon kills, driven through the full
/// Maestro facade on a contended workload.
#[test]
fn full_loop_survives_seeded_chaos_schedules() {
    for seed in seeds() {
        let mut rng = SplitMix64::new(seed);
        // One to three kills, all landing while the run is hot (the
        // contended workload runs ≈2 s of virtual time).
        let n_kills = 1 + (rng.next_u64() % 3) as usize;
        let kills: Vec<u64> = (0..n_kills)
            .map(|i| 300 * MS + i as u64 * 400 * MS + rng.next_u64() % (100 * MS))
            .collect();
        let err_rate = 0.05 + 0.10 * unit_f64(&mut rng);
        let drop_rate = 0.05 * unit_f64(&mut rng);
        let fail_rate = 0.10 + 0.15 * unit_f64(&mut rng);
        let torn_rate = 0.10 * unit_f64(&mut rng);
        let ignore_rate = 0.10 * unit_f64(&mut rng);
        let schedule = format!(
            "read[err={err_rate:.3} drop={drop_rate:.3} jitter=2ms kills={kills:?}] \
             write[fail={fail_rate:.3} torn={torn_rate:.3} ignore={ignore_rate:.3}]"
        );
        let t_now = Cell::new(0u64);
        with_chaos_context(seed, &schedule, &t_now, || {
            let read_plan = FaultPlan::new(seed)
                .with_transient_error_rate(err_rate)
                .with_drop_sample_rate(drop_rate)
                .with_sample_jitter(2 * MS)
                .with_daemon_kills(&kills);
            let write_plan = FaultPlan::new(seed ^ 0x5eed)
                .with_duty_write_fail_rate(fail_rate)
                .with_duty_write_torn_rate(torn_rate)
                .with_duty_write_ignore_rate(ignore_rate);

            let mut cfg = MaestroConfig::adaptive(16);
            cfg.daemon_faults = Some(read_plan);
            let mut m = Maestro::try_new(cfg).expect("valid config");
            m.runtime_mut().set_actuation_faults(Some(write_plan));

            // No panic: the chaos schedule must surface as degraded-but-Ok.
            let report = m
                .try_run("chaos", &mut (), contended_root(4000))
                .unwrap_or_else(|e| panic!("seed {seed}: chaos run failed: {e}"));
            t_now.set(m.machine().now_ns());

            assert_all_cores_full(&m, &format!("seed {seed}"));
            assert!(
                report.elapsed_s > 1.0 && report.joules > 0.0 && report.joules.is_finite(),
                "seed {seed}: implausible accounting: {report}"
            );

            let t = report.throttle.as_ref().expect("adaptive run has a summary");
            // Recovery is visible and consistent: every scheduled kill that the
            // run was long enough to reach is reported, each matched by a
            // restart (the budget of 5 is never exhausted by ≤3 kills).
            assert!(
                t.daemon_kills >= 1 && t.daemon_kills <= n_kills as u64,
                "seed {seed}: kills out of range: {t:?}"
            );
            assert_eq!(
                t.daemon_restarts, t.daemon_kills,
                "seed {seed}: every death within budget restarts: {t:?}"
            );
            assert!(!t.daemon_gave_up, "seed {seed}: budget must hold: {t:?}");
            assert!(
                t.checkpoint_restores <= t.daemon_restarts,
                "seed {seed}: at most one restore per restart: {t:?}"
            );
            // Actuation accounting is internally consistent. Retries happen
            // (fail rate ≥ 0.10 over hundreds of writes) and every transaction
            // that exhausted them shows up as a forced reset.
            assert!(
                report.stats.duty_write_attempts > report.stats.duty_writes,
                "seed {seed}: fault mix must force retries: {:?}",
                report.stats
            );
            assert!(
                report.stats.forced_duty_resets >= report.stats.failed_duty_applies,
                "seed {seed}: failed applies force resets: {:?}",
                report.stats
            );
        });
    }
}

/// The DVFS and power-cap responses sit on the same supervised pipeline as
/// the duty-cycle flag, so each seed's read-fault and kill schedule, passed
/// through the facade's controller config, must degrade them as safely: no
/// panic, finite energy, every core back at full duty, every decision on a
/// finite reading, no P-state below the floor and no limit below one worker.
#[test]
fn dvfs_and_power_cap_survive_seeded_chaos_schedules() {
    let floor = PState::floor_of(1.8);
    for seed in seeds() {
        let mut rng = SplitMix64::new(seed ^ 0xa17e);
        let kills: Vec<u64> =
            (0..2).map(|i| 300 * MS + i * 400 * MS + rng.next_u64() % (100 * MS)).collect();
        let err_rate = 0.05 + 0.10 * unit_f64(&mut rng);
        let drop_rate = 0.05 * unit_f64(&mut rng);
        for policy in [Policy::Dvfs { floor }, Policy::PowerCap { watts: 130.0 }] {
            let schedule = format!(
                "{policy:?} read[err={err_rate:.3} drop={drop_rate:.3} jitter=2ms kills={kills:?}]"
            );
            let t_now = Cell::new(0u64);
            with_chaos_context(seed, &schedule, &t_now, || {
                let mut cfg = MaestroConfig { policy, ..MaestroConfig::fixed(16) };
                cfg.daemon_faults = Some(
                    FaultPlan::new(seed)
                        .with_transient_error_rate(err_rate)
                        .with_drop_sample_rate(drop_rate)
                        .with_sample_jitter(2 * MS)
                        .with_daemon_kills(&kills),
                );
                let mut m = Maestro::try_new(cfg).expect("valid config");

                let report = m
                    .try_run("chaos-alt", &mut (), contended_root(2500))
                    .unwrap_or_else(|e| panic!("seed {seed}: {policy:?} run failed: {e}"));
                t_now.set(m.machine().now_ns());

                assert_all_cores_full(&m, &format!("seed {seed} {policy:?}"));
                assert!(
                    report.joules > 0.0 && report.joules.is_finite(),
                    "seed {seed}: implausible accounting: {report}"
                );
                let trace = m.controller_trace().expect("the policy records a trace").borrow();
                assert!(!trace.samples.is_empty(), "seed {seed}: the controller decided");
                for s in &trace.samples {
                    assert!(s.power_w.is_finite(), "seed {seed}: non-finite reading: {s:?}");
                    match s.actuation {
                        Actuation::PState(p) => {
                            assert!(p.index() >= floor.index(), "seed {seed}: below floor: {s:?}")
                        }
                        Actuation::Limit(l) => assert!(l >= 1, "seed {seed}: no worker: {s:?}"),
                        Actuation::Duty(_) => panic!("seed {seed}: a duty flag under {policy:?}"),
                    }
                }
            });
        }
    }
}

/// Energy accounting is exact across restarts: the blackboard's cumulative
/// Joules track the machine's ground truth through kill/restart cycles,
/// because the restored wrap-tracker checkpoint books the outage gap.
#[test]
fn blackboard_energy_stays_exact_across_restarts() {
    for seed in seeds() {
        let mut rng = SplitMix64::new(seed.wrapping_mul(0x9e3779b97f4a7c15));
        let kills: Vec<u64> = (0..2)
            .map(|i| NS_PER_SEC + i * NS_PER_SEC + rng.next_u64() % (NS_PER_SEC / 2))
            .collect();
        let schedule = format!("read[err=0.100 kills={kills:?}]");
        let t_now = Cell::new(0u64);
        with_chaos_context(seed, &schedule, &t_now, || {
            let plan = FaultPlan::new(seed)
                .with_transient_error_rate(0.10)
                .with_daemon_kills(&kills);
            let mut m = Machine::new(MachineConfig::sandybridge_2x8());
            for c in m.topology().all_cores() {
                m.set_activity(c, CoreActivity::Busy { intensity: 0.9, ocr: 1.5 });
            }
            let mut sup = Supervisor::new(&m).with_faults(plan);
            let bb = sup.blackboard().clone();

            // 4 s of supervised sampling: both kills, both recoveries.
            let end = 4 * NS_PER_SEC;
            while m.now_ns() < end {
                if m.now_ns() >= sup.next_due_ns() {
                    let _ = sup.sample(&m);
                }
                m.advance(10 * MS);
            }
            t_now.set(m.now_ns());
            let stats = sup.stats();
            assert_eq!(stats.kills, 2, "seed {seed}: {stats:?}");
            assert_eq!(stats.restarts, 2, "seed {seed}: {stats:?}");
            assert_eq!(bb.epoch(), 2, "seed {seed}: one epoch per incarnation");

            for (i, s) in bb.snapshot_all().iter().enumerate() {
                let truth = m.energy_joules(SocketId(i as u8));
                let err = (s.energy_j - truth).abs() / truth;
                assert!(
                    err < 0.05,
                    "seed {seed} socket {i}: published {} J, truth {truth} J ({:.1}% off)",
                    s.energy_j,
                    err * 100.0
                );
            }
        });
    }
}

/// Deterministic scenario: torn duty writes trip the per-core breakers;
/// the failure is visible in the report and the machine fails open. A
/// spinner fails its spin entry and its shutdown restore, so its breaker
/// trips on the second run's spin entry.
#[test]
fn torn_writes_trip_breakers_and_fail_open() {
    let t_now = Cell::new(0u64);
    with_chaos_context(7, "write[torn=1.000] runs=2", &t_now, || {
        let mut m = Maestro::new(MaestroConfig::adaptive(16));
        m.runtime_mut()
            .set_actuation_faults(Some(FaultPlan::new(7).with_duty_write_torn_rate(1.0)));

        m.run("torn", &mut (), contended_root(2500));
        let report = m.run("torn", &mut (), contended_root(2500));
        t_now.set(m.machine().now_ns());
        assert_all_cores_full(&m, "torn writes");

        assert!(report.throttle.is_some(), "adaptive summary");
        let s = &report.stats;
        assert!(s.failed_duty_applies > 0, "all-torn writes must fail applies: {s:?}");
        assert!(s.breaker_trips > 0, "three straight failures trip a breaker: {s:?}");
        assert!(s.forced_duty_resets > 0, "{s:?}");
        let shown = report.to_string();
        assert!(
            shown.contains("breaker trip(s)") && shown.contains("failed apply(s)"),
            "actuation trouble must be visible in the report: {shown}"
        );
    });
}

/// Deterministic scenario: one mid-run daemon kill recovers via checkpoint
/// restore with no spurious throttle transition, and says so in the report.
#[test]
fn daemon_kill_mid_run_recovers_and_reports_it() {
    let t_now = Cell::new(0u64);
    with_chaos_context(11, "read[kills=[800ms]]", &t_now, || {
        let mut cfg = MaestroConfig::adaptive(16);
        cfg.daemon_faults = Some(FaultPlan::new(11).with_daemon_kills(&[800 * MS]));
        let mut m = Maestro::try_new(cfg).expect("valid config");

        let report = m.try_run("kill", &mut (), contended_root(4000)).expect("no panic");
        t_now.set(m.machine().now_ns());
        assert_all_cores_full(&m, "daemon kill");

        let t = report.throttle.as_ref().expect("adaptive summary");
        assert_eq!(t.daemon_kills, 1, "{t:?}");
        assert_eq!(t.daemon_restarts, 1, "{t:?}");
        assert!(t.checkpoint_restores >= 1, "controller resumes from checkpoint: {t:?}");
        assert!(!t.daemon_gave_up, "{t:?}");
        // The contended workload throttles once and the restart does not bounce
        // the flag: recovery must not cost a spurious transition.
        assert_eq!(t.activations, 1, "restart must not re-trigger throttling: {t:?}");
        let shown = report.to_string();
        assert!(
            shown.contains("recovery") && shown.contains("1 restart(s)"),
            "recovery must be visible in the report: {shown}"
        );
    });
}

/// The PR-4 sweep: task-level faults composed with the PR-3 schedules.
/// Each seed layers RAPL read faults, duty-write faults, daemon kills, and
/// lost spinner wakes over a workload that *also* misbehaves — a panicking
/// bag on even seeds, a wedging bag (plus a run deadline) on odd ones.
/// Whatever the mix, no unwind escapes `try_run`, the error carries a
/// partial report, and every core ends at full duty.
#[test]
fn task_faults_compose_with_chaos_schedules() {
    let mut total_lost_or_recovered = 0u64;
    for seed in seeds() {
        let mut rng = SplitMix64::new(seed ^ 0xface);
        let kills = [250 * MS + rng.next_u64() % (200 * MS)];
        let err_rate = 0.05 + 0.10 * unit_f64(&mut rng);
        let fail_rate = 0.10 + 0.15 * unit_f64(&mut rng);
        let torn_rate = 0.10 * unit_f64(&mut rng);
        let schedule = format!(
            "read[err={err_rate:.3} jitter=2ms kills={kills:?}] \
             write[fail={fail_rate:.3} torn={torn_rate:.3}] task[lost_wake=0.300 {}]",
            if seed % 2 == 0 { "panicking_bag" } else { "wedging_bag deadline=1500ms" }
        );
        let t_now = Cell::new(0u64);
        let lost = with_chaos_context(seed, &schedule, &t_now, || {
            let read_plan = FaultPlan::new(seed)
                .with_transient_error_rate(err_rate)
                .with_sample_jitter(2 * MS)
                .with_daemon_kills(&kills);
            let write_plan = FaultPlan::new(seed ^ 0x5eed)
                .with_duty_write_fail_rate(fail_rate)
                .with_duty_write_torn_rate(torn_rate);
            let task_plan = FaultPlan::new(seed ^ 0x7a5c).with_lost_wake_rate(0.3);

            let deadline = 1500 * MS;
            let mut cfg = MaestroConfig::adaptive(16);
            cfg.daemon_faults = Some(read_plan);
            if seed % 2 == 1 {
                cfg.runtime.deadline_ns = Some(deadline);
            }
            let mut m = Maestro::try_new(cfg).expect("valid config");
            m.runtime_mut().set_actuation_faults(Some(write_plan));
            m.runtime_mut().set_task_faults(Some(task_plan));

            let start_ns = m.machine().now_ns();
            let root = if seed % 2 == 0 {
                failing::panicking_bag(600, (rng.next_u64() % 600) as usize)
            } else {
                failing::wedging_bag(600, (rng.next_u64() % 600) as usize)
            };
            let err = m
                .try_run("task-chaos", &mut (), root)
                .expect_err("a panicking/wedging bag cannot succeed");
            t_now.set(m.machine().now_ns());

            // The inviolable post-condition holds on *error* paths too.
            assert_all_cores_full(&m, &format!("seed {seed}"));

            let partial = err.partial_stats().unwrap_or_else(|| {
                panic!("seed {seed}: typed error must carry partial stats: {err:?}")
            });
            assert!(partial.steps > 0, "seed {seed}: work happened before the fault");

            if seed % 2 == 0 {
                match &err {
                    RuntimeError::TaskFailed { failure, .. } => {
                        assert!(
                            failure.message.contains("injected workload panic"),
                            "seed {seed}: {failure}"
                        );
                        assert!(
                            failure.task_path.last().unwrap().contains("failing::panic"),
                            "seed {seed}: backtrace names the culprit: {failure:?}"
                        );
                        assert_eq!(partial.task_panics, 1, "seed {seed}: {partial:?}");
                    }
                    other => panic!("seed {seed}: expected TaskFailed, got {other:?}"),
                }
            } else {
                match &err {
                    RuntimeError::DeadlineExceeded { limit, t_ns, .. } => {
                        assert!(
                            matches!(limit, RunLimit::WallClock { deadline_ns } if *deadline_ns == deadline),
                            "seed {seed}: {limit}"
                        );
                        assert_eq!(
                            *t_ns,
                            start_ns + deadline,
                            "seed {seed}: the run ends exactly at its deadline"
                        );
                        assert!(
                            m.machine().now_ns() <= start_ns + deadline,
                            "seed {seed}: the wedge must not drag the clock past the deadline"
                        );
                        assert!(
                            partial.tasks_completed > 0,
                            "seed {seed}: healthy filler completed before the cutoff: {partial:?}"
                        );
                    }
                    other => panic!("seed {seed}: expected DeadlineExceeded, got {other:?}"),
                }
            }
            partial.lost_wakes + partial.wake_recoveries
        });
        total_lost_or_recovered += lost;
    }
    assert!(
        total_lost_or_recovered > 0,
        "a 0.3 lost-wake rate across the sweep must drop (and recover) some wakes"
    );
}

/// The first `n` of six kills (300, 600, 900, 1200, 1700, 2600 ms), each
/// landing on a live daemon: the stock backoff ladder keeps it down for 50,
/// 100, 200, 400 and 800 ms after kills one to five.
fn ladder_kills(n: usize) -> Vec<u64> {
    [300, 600, 900, 1200, 1700, 2600][..n].iter().map(|ms| ms * MS).collect()
}

/// Satellite: the restart budget runs out mid-schedule. The daemon stays
/// dead, the controller degrades to safe mode (throttle released, stale
/// data ignored), the run still completes, and the report says so.
#[test]
fn restart_budget_exhaustion_degrades_to_safe_mode() {
    let t_now = Cell::new(0u64);
    let schedule = "read[kills=[300ms,600ms,900ms,1200ms,1700ms,2600ms]]";
    with_chaos_context(17, schedule, &t_now, || {
        let mut cfg = MaestroConfig::adaptive(16);
        cfg.daemon_faults = Some(FaultPlan::new(17).with_daemon_kills(&ladder_kills(6)));
        let mut m = Maestro::try_new(cfg).expect("valid config");

        let report = m.try_run("budget", &mut (), contended_root(4000)).expect("no panic");
        t_now.set(m.machine().now_ns());
        assert_all_cores_full(&m, "budget exhaustion");

        let t = report.throttle.as_ref().expect("adaptive summary");
        assert!(t.daemon_gave_up, "six kills against a budget of five: {t:?}");
        assert_eq!(t.daemon_restarts, u64::from(RESTART_BUDGET), "exactly the budget: {t:?}");
        assert!(t.daemon_kills > t.daemon_restarts, "the fatal kill exceeds the budget: {t:?}");
        assert!(t.safe_mode_decisions > 0, "a permanently dark pipeline must fail safe: {t:?}");
        let shown = report.to_string();
        assert!(shown.contains("gave up"), "giving up must be visible in the report: {shown}");
    });
}

/// Deterministic scenario: a kill with a long restart backoff darkens the
/// pipeline long enough for safe mode — the controller fails open (releases
/// the throttle) rather than acting on stale data.
#[test]
fn long_outage_enters_safe_mode_and_releases_throttle() {
    let t_now = Cell::new(0u64);
    with_chaos_context(13, "read[kills=[300ms,600ms,900ms,1200ms,1700ms]]", &t_now, || {
        let mut cfg = MaestroConfig::adaptive(16);
        // The fifth kill's 800 ms backoff: 8 dark periods ≫ safe-mode trigger.
        cfg.daemon_faults = Some(FaultPlan::new(13).with_daemon_kills(&ladder_kills(5)));
        let mut m = Maestro::try_new(cfg).expect("valid config");

        let report = m.try_run("outage", &mut (), contended_root(4000)).expect("no panic");
        t_now.set(m.machine().now_ns());
        assert_all_cores_full(&m, "long outage");

        let t = report.throttle.as_ref().expect("adaptive summary");
        assert!(t.safe_mode_decisions > 0, "an 800 ms dark pipeline must fail safe: {t:?}");
        assert_eq!(t.daemon_kills, 5, "{t:?}");
    });
}

/// Tentpole (time-travel triage): a capture-enabled run auto-snapshots at a
/// virtual-time cadence; when the run dies, the cadence snapshots survive,
/// the nearest pre-failure one is written to disk with a seed-and-schedule
/// failure report, and replaying from it re-executes *only* the
/// snapshot→failure window — no cold-start prefix.
#[test]
fn failed_run_triages_to_nearest_snapshot_and_replays_the_window() {
    const DEADLINE: u64 = 250 * MS;
    const CADENCE: u64 = 60 * MS;
    let sc = scenario::scenario("contended-adaptive").expect("registered scenario");
    let mut cfg = sc.config;
    cfg.runtime.deadline_ns = Some(DEADLINE);
    let mut m = Maestro::new(cfg);
    let run = m
        .run_captured(sc.name, &mut (), sc.spec.into_task(), &SnapshotPlan::every(CADENCE))
        .expect("capture succeeds");
    let err = match run.end {
        MaestroRunEnd::Failed(e) => e,
        other => panic!("a 250 ms deadline must kill the contended run: {other:?}"),
    };
    assert!(matches!(err, RuntimeError::DeadlineExceeded { .. }), "{err:?}");
    // Cadence snapshots taken before the failure survive it.
    let times: Vec<u64> = run.snapshots.iter().map(|s| s.t_ns()).collect();
    assert_eq!(times, vec![60 * MS, 120 * MS, 180 * MS, 240 * MS], "snapshot cadence");

    let dir = std::env::temp_dir().join("maestro-chaos-triage");
    std::fs::create_dir_all(&dir).unwrap();
    let report = scenario::triage(
        &dir,
        0,
        "deadline=250ms (no injected faults)",
        &run.snapshots,
        DEADLINE,
        &err.to_string(),
    );
    assert_eq!(report.snapshot_t_ns, Some(240 * MS), "nearest pre-failure snapshot");
    assert!(report.message.contains("CHAOS_SEED=0"), "{}", report.message);
    assert!(report.message.contains("deadline=250ms"), "{}", report.message);
    assert!(
        report.message.contains(&format!("--until {DEADLINE}")),
        "{}",
        report.message
    );
    let path = report.snapshot_path.expect("snapshot written");

    // Time travel: reload the snapshot from disk and re-execute only the
    // 10 ms between it and the failure timestamp.
    let bytes = std::fs::read(&path).unwrap();
    let snap = MaestroSnapshot::from_bytes(&bytes).unwrap();
    let sc2 = scenario::scenario(snap.name()).expect("snapshot names a registered scenario");
    let mut m2 = Maestro::new(sc2.config);
    let replay = m2
        .resume_captured(&mut (), &snap, &SnapshotPlan::suspend_at(DEADLINE))
        .expect("resume succeeds");
    let at = replay.suspended().expect("replay stops at the failure timestamp");
    assert_eq!(at.t_ns(), DEADLINE, "replay reaches the failure timestamp exactly");
    std::fs::remove_file(path).ok();
}
