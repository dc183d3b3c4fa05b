//! Integration tests for the alternative mechanisms (DVFS, power capping)
//! and the design-choice ablation the paper's §IV argues from.

use maestro::{Actuation, Maestro, MaestroConfig, MaestroSnapshot, Policy, RunReport};
use maestro_bench::experiments::{ablation, maestro_params, run_maestro};
use maestro_machine::{Cost, PState};
use maestro_runtime::{SnapshotPlan, TaskSpec};
use maestro_workloads::lulesh::Lulesh;
use maestro_workloads::{CompilerConfig, OptLevel, Scale, Workload};

const CC: CompilerConfig =
    CompilerConfig { family: maestro_workloads::Family::Gcc, opt: OptLevel::O3 };

/// §IV's design argument, as measurement: on LULESH, duty-cycle concurrency
/// throttling saves more energy for less slowdown than package-global DVFS.
#[test]
fn duty_cycle_beats_dvfs_on_lulesh() {
    let rows = ablation(Scale::Test, 2);
    let by = |name: &str| {
        rows.iter().find(|r| r.mechanism.starts_with(name)).unwrap_or_else(|| panic!("{name}"))
    };
    let fixed = by("fixed");
    let duty = by("duty-cycle");
    let dvfs = by("DVFS");

    // Both mechanisms cut power below fixed.
    assert!(duty.model.watts < fixed.model.watts);
    assert!(dvfs.model.watts < fixed.model.watts);
    // Duty-cycle throttling costs less time than frequency scaling …
    assert!(
        duty.model.time_s < dvfs.model.time_s,
        "duty {} s must beat DVFS {} s",
        duty.model.time_s,
        dvfs.model.time_s
    );
    // … and wins on energy too (DVFS slows the memory-bound phases' compute
    // share without touching the memory wall, so it mostly just stretches
    // the run).
    assert!(
        duty.model.joules < dvfs.model.joules,
        "duty {} J must beat DVFS {} J",
        duty.model.joules,
        dvfs.model.joules
    );
}

/// The DVFS controller must never violate its configured frequency floor.
#[test]
fn dvfs_respects_floor() {
    let w = Lulesh::new(Scale::Test);
    let floor = PState::floor_of(2.1);
    let mut cfg = MaestroConfig::fixed(16);
    cfg.policy = Policy::Dvfs { floor };
    cfg.runtime = maestro_params(&w, CC, 16);
    let mut m = Maestro::new(cfg);
    w.run(&mut m, CC);
    let trace = m.controller_trace().expect("dvfs policy records a trace").borrow();
    assert!(!trace.samples.is_empty());
    assert!(
        trace
            .samples
            .iter()
            .all(|s| matches!(s.actuation, Actuation::PState(p) if p.index() >= floor.index())),
        "P-state fell below the floor"
    );
}

/// Power capping: a bound below the unconstrained draw is (a) mostly
/// respected and (b) costs time, never correctness.
#[test]
fn power_cap_holds_and_costs_time() {
    let w = Lulesh::new(Scale::Test);
    let unconstrained = run_maestro(&w, CC, 16, Policy::Fixed);
    let cap_w = unconstrained.avg_watts - 15.0;

    let w = Lulesh::new(Scale::Test);
    let mut cfg = MaestroConfig::fixed(16);
    cfg.policy = Policy::PowerCap { watts: cap_w };
    cfg.runtime = maestro_params(&w, CC, 16);
    let mut m = Maestro::new(cfg);
    let capped = w.run(&mut m, CC); // panics internally if physics diverges
    assert!(
        capped.avg_watts < unconstrained.avg_watts,
        "cap must reduce average power: {} vs {}",
        capped.avg_watts,
        unconstrained.avg_watts
    );
    assert!(capped.elapsed_s > unconstrained.elapsed_s, "power is not free");
    let trace = m.controller_trace().expect("cap policy records a trace").borrow();
    assert!(
        trace.compliance(cap_w) > 0.5,
        "the controller should track the cap most of the time: {:.2}",
        trace.compliance(cap_w)
    );
}

/// A cap far above the draw must change nothing measurable.
#[test]
fn generous_power_cap_is_free() {
    let w = Lulesh::new(Scale::Test);
    let free = run_maestro(&w, CC, 16, Policy::Fixed);
    let w = Lulesh::new(Scale::Test);
    let capped = run_maestro(&w, CC, 16, Policy::PowerCap { watts: 400.0 });
    assert!(
        (capped.elapsed_s - free.elapsed_s).abs() / free.elapsed_s < 0.01,
        "{} vs {} s",
        capped.elapsed_s,
        free.elapsed_s
    );
}

/// Every observable bit of a run under an alternative policy: report
/// floats and counters, plus the policy's full decision trace.
fn run_bits(m: &Maestro, r: &RunReport) -> String {
    let t = m.controller_trace().expect("alternative policies record a trace").borrow();
    let samples: Vec<_> =
        t.samples.iter().map(|s| (s.t_ns, s.power_w.to_bits(), s.actuation)).collect();
    let trace = format!("{samples:?} transitions={}", t.transitions());
    format!(
        "{} {} {} {:?} {trace}",
        r.elapsed_s.to_bits(),
        r.joules.to_bits(),
        r.avg_watts.to_bits(),
        r.stats
    )
}

/// DVFS and power-cap runs suspend and resume bit-identically to an
/// unbroken, fence-matched run: daemon state, decision trace, and the power
/// cap's dynamic shepherd limit all survive the snapshot.
#[test]
fn alternative_policies_resume_bit_identically() {
    const SUSPEND_NS: u64 = 150_000_000;
    let spec = TaskSpec::fork_join(
        (0..600).map(|_| TaskSpec::leaf(Cost::new(13_000_000, 500_000, 8.0, 0.95))).collect(),
        Cost::ZERO,
    );
    for policy in [Policy::Dvfs { floor: PState::floor_of(1.8) }, Policy::PowerCap { watts: 130.0 }]
    {
        let mut cfg = MaestroConfig::fixed(16);
        cfg.policy = policy;

        let mut unbroken = Maestro::new(cfg.clone());
        let report = unbroken
            .run_captured(
                "alt",
                &mut (),
                spec.clone().into_task(),
                &SnapshotPlan::none().with_fence(SUSPEND_NS),
            )
            .expect("capture succeeds")
            .report()
            .expect("unbroken run completes");
        let want = run_bits(&unbroken, &report);

        let snap = Maestro::new(cfg.clone())
            .run_captured(
                "alt",
                &mut (),
                spec.clone().into_task(),
                &SnapshotPlan::suspend_at(SUSPEND_NS),
            )
            .expect("capture succeeds")
            .suspended()
            .expect("run suspends at the fence");
        let snap = MaestroSnapshot::from_bytes(&snap.to_bytes()).expect("snapshot decodes");
        let mut resumed = Maestro::new(cfg);
        let report = resumed
            .resume_captured(&mut (), &snap, &SnapshotPlan::none())
            .expect("resume succeeds")
            .report()
            .expect("resumed run completes");
        assert_eq!(run_bits(&resumed, &report), want, "{policy:?}: resumed run diverged");
    }
}
