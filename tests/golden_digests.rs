//! Golden digests: one committed 64-bit hash per registered scenario, the
//! "same behaviour" oracle for refactors that must not change a bit.
//!
//! Each hash covers the scenario's rendered report text, the raw bits of
//! its energy and time floats, and the bytes of a snapshot taken mid-run:
//!
//! * every batch scenario from `scenario::scenario` (including the DVFS and
//!   power-cap controllers on the contended bag), suspended mid-run and
//!   resumed on a fresh facade;
//! * every `svc-*` scenario at test scale, suspended inside the first burst
//!   window and resumed on a fresh facade and service stack;
//! * a `fleet-*` node snapshot, taken halfway through the smoke drill, and
//!   one taken halfway through `fleet-correlated-failures` (120 nodes,
//!   daemon faults on, a 24-node crash wave), each with the full run's
//!   report and `Fleet::trace_digest`;
//! * the paper tables at test scale — Table I, Tables IV-VII, and the
//!   mechanism ablation with its DVFS and power-cap rows — over the
//!   rendered table and the `Debug` form of every row (which prints each
//!   float in its shortest round-trip form, so every bit counts).
//!
//! None of those carries a fault plan, so one more digest pins the bytes of
//! a snapshot taken with all three plans present (see
//! [`FAULTED_SNAPSHOT`]).
//!
//! A change that alters any of these on purpose re-baselines the table
//! (the failure message prints the full recomputed table) and says why.

use maestro::{Maestro, MaestroConfig, MaestroSnapshot, RunReport};
use maestro_bench::experiments::{
    ablation, service_at_scale, table1, throttling_table, ThrottleTarget,
};
use maestro_bench::format::{render_ablation, render_compiler_rows, render_throttling};
use maestro_bench::scenario::{
    fleet_scenario, scenario, service_facade, SCENARIO_NAMES, SERVICE_SCENARIO_NAMES,
};
use maestro_fleet::Fleet;
use maestro_machine::snap::fingerprint;
use maestro_machine::{Cost, FaultPlan};
use maestro_runtime::{SnapshotPlan, TaskSpec};
use maestro_service::ServiceSummary;
use maestro_workloads::Scale;

/// The committed table, in computation order.
const GOLDEN: &[(&str, u64)] = &[
    ("contended-adaptive", 0xd024b0d1d4498e33),
    ("contended-fixed", 0xb12c89796703526a),
    ("scalable-adaptive", 0xbc9fc3522e42b1bc),
    ("contended-dvfs", 0xdaf785d23056016f),
    ("contended-powercap", 0xd0c432aa6fd0662b),
    ("svc-steady", 0x7800e9dab6426b2a),
    ("svc-burst", 0x03dafe4b3e221fc7),
    ("svc-storm", 0x89b0204c05f12144),
    ("svc-storm-guarded", 0x000be8363ccf6fa0),
    ("svc-pareto-tight", 0xf9ae24a6a7b400d1),
    ("svc-pareto-mid", 0xfb9f4a1ef115faab),
    ("svc-pareto-relaxed", 0x649a8d6643b31e80),
    ("fleet-smoke", 0xbf3c0c4af05156ec),
    ("table1", 0x531b88d5bdeb3d1f),
    ("table4", 0x09a37e9752d65c76),
    ("table5", 0x3f384d1d1aa449c4),
    ("table6", 0x360fde5bd631ac15),
    ("table7", 0x52edf08c003f9029),
    ("ablation", 0x81800b80a94c5817),
    ("fleet-correlated-failures", 0xbe43a9808d2109c1),
];

/// The bytes of one mid-run snapshot carrying a daemon read plan, a
/// duty-write plan and a task plan. The run is suspended at 600 ms: after
/// the scripted daemon kill at 250 ms has been consumed, after the
/// restarted incarnation has refreshed the supervisor's checkpoint, and
/// inside the read plan's stuck window, so the plan's frozen readings are
/// on the wire.
const FAULTED_SNAPSHOT: u64 = 0x3fb5dc73a90b9fdf;

/// Batch suspension point: mid-run for every batch scenario.
const BATCH_SUSPEND_NS: u64 = 150_000_000;
/// Service suspension point: inside the first burst window (0-15 ms).
const SERVICE_SUSPEND_NS: u64 = 8_000_000;

fn fold_report(buf: &mut Vec<u8>, r: &RunReport) {
    buf.extend_from_slice(r.to_string().as_bytes());
    for v in [r.elapsed_s, r.joules, r.avg_watts] {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

fn batch_digest(name: &str) -> u64 {
    let sc = scenario(name).expect("registered batch scenario");
    let mut m = Maestro::new(sc.config.clone());
    let snap = m
        .run_captured(
            sc.name,
            &mut (),
            sc.spec.clone().into_task(),
            &SnapshotPlan::suspend_at(BATCH_SUSPEND_NS),
        )
        .expect("capture succeeds")
        .suspended()
        .unwrap_or_else(|| panic!("{name}: must suspend mid-run"));
    let bytes = snap.to_bytes();
    let restored = MaestroSnapshot::from_bytes(&bytes).expect("snapshot decodes");
    let mut m2 = Maestro::new(sc.config);
    let report = m2
        .resume_captured(&mut (), &restored, &SnapshotPlan::none())
        .expect("resume succeeds")
        .report()
        .unwrap_or_else(|| panic!("{name}: resumed run completes"));
    let mut buf = bytes;
    fold_report(&mut buf, &report);
    fingerprint(&buf)
}

fn service_digest(name: &str) -> u64 {
    let sc = service_at_scale(name, Scale::Test);
    let (mut m, source, _) = service_facade(&sc);
    let snap = m
        .run_service_captured(
            sc.name,
            &mut (),
            source,
            &SnapshotPlan::suspend_at(SERVICE_SUSPEND_NS),
        )
        .expect("capture succeeds")
        .suspended()
        .unwrap_or_else(|| panic!("{name}: must suspend mid-burst"));
    let bytes = snap.to_bytes();
    let restored = MaestroSnapshot::from_bytes(&bytes).expect("snapshot decodes");
    let (mut m2, source2, handle2) = service_facade(&sc);
    let report = m2
        .resume_service_captured(&mut (), source2, &restored, &SnapshotPlan::none())
        .expect("resume succeeds")
        .report()
        .unwrap_or_else(|| panic!("{name}: resumed run completes"));
    let mut buf = bytes;
    fold_report(&mut buf, &report);
    let summary = ServiceSummary::collect(&handle2, report.elapsed_s);
    buf.extend_from_slice(format!("{summary:?}").as_bytes());
    fingerprint(&buf)
}

fn fleet_digest(name: &str) -> u64 {
    const NODE: usize = 2;
    let sc = fleet_scenario(name).expect("registered fleet scenario");
    let mut fleet = Fleet::new(sc.config.clone());
    fleet.advance_epochs(sc.epochs / 2, 1);
    let mut buf = fleet.snapshot_node(NODE);
    let (node, t_ns) = Fleet::restore_node(&sc.config, &buf).expect("node snapshot decodes");
    assert_eq!(t_ns, fleet.now_ns(), "{name}: capture time");
    assert_eq!(node.trace(), fleet.node(NODE).trace(), "{name}: restored trace");
    fleet.advance_epochs(sc.epochs - sc.epochs / 2, 1);
    let report = fleet.report();
    buf.extend_from_slice(report.render().as_bytes());
    for v in [report.total_energy_j, report.virtual_s] {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    buf.extend_from_slice(&fleet.trace_digest().to_le_bytes());
    fingerprint(&buf)
}

/// Paper tables, one worker thread each so cell order is fixed.
fn paper_table_digest(name: &str) -> u64 {
    let text = match name {
        "table1" => {
            let rows = table1(Scale::Test, 1);
            format!("{}{rows:?}", render_compiler_rows(name, &rows))
        }
        "ablation" => {
            let rows = ablation(Scale::Test, 1);
            format!("{}{rows:?}", render_ablation(&rows))
        }
        _ => {
            let target = match name {
                "table4" => ThrottleTarget::Lulesh,
                "table5" => ThrottleTarget::Dijkstra,
                "table6" => ThrottleTarget::Health,
                "table7" => ThrottleTarget::Strassen,
                _ => unreachable!("unknown paper table {name}"),
            };
            let rows = throttling_table(Scale::Test, target, 1);
            format!("{}{rows:?}", render_throttling(name, &rows))
        }
    };
    fingerprint(text.as_bytes())
}

#[test]
fn every_scenario_matches_its_golden_digest() {
    let mut computed: Vec<(&str, u64)> = Vec::new();
    computed.extend(SCENARIO_NAMES.iter().map(|&n| (n, batch_digest(n))));
    computed.extend(SERVICE_SCENARIO_NAMES.iter().map(|&n| (n, service_digest(n))));
    computed.push(("fleet-smoke", fleet_digest("fleet-smoke")));
    for name in ["table1", "table4", "table5", "table6", "table7", "ablation"] {
        computed.push((name, paper_table_digest(name)));
    }
    computed.push(("fleet-correlated-failures", fleet_digest("fleet-correlated-failures")));

    let table: String =
        computed.iter().map(|(n, h)| format!("    ({n:?}, {h:#018x}),\n")).collect();
    assert_eq!(
        computed.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        GOLDEN.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        "scenario set changed; recomputed table:\n{table}"
    );
    if let Some(((name, got), (_, want))) =
        computed.iter().zip(GOLDEN).find(|((_, got), (_, want))| got != want)
    {
        panic!(
            "first mismatching scenario: {name} (got {got:#018x}, golden {want:#018x}); \
             recomputed table:\n{table}"
        );
    }
}

#[test]
fn faulted_snapshot_matches_its_golden_digest() {
    const MS: u64 = 1_000_000;
    let mut cfg = MaestroConfig::adaptive(16);
    cfg.daemon_faults = Some(
        FaultPlan::new(23)
            .with_daemon_kills(&[250 * MS])
            .with_stuck_counter(2, 40)
            .with_sample_jitter(2 * MS)
            .with_drop_sample_rate(0.1),
    );
    let mut m = Maestro::new(cfg);
    m.runtime_mut().set_actuation_faults(Some(
        FaultPlan::new(24).with_duty_write_fail_rate(0.2).with_duty_write_torn_rate(0.1),
    ));
    m.runtime_mut().set_task_faults(Some(FaultPlan::new(25).with_lost_wake_rate(0.2)));
    let spec = TaskSpec::fork_join(
        (0..3000).map(|_| TaskSpec::leaf(Cost::new(13_000_000, 500_000, 8.0, 0.95))).collect(),
        Cost::ZERO,
    );
    let snap = m
        .run_captured("faulted", &mut (), spec.into_task(), &SnapshotPlan::suspend_at(600 * MS))
        .expect("capture succeeds")
        .suspended()
        .expect("run suspends mid-run");
    let bytes = snap.to_bytes();
    let reparsed = MaestroSnapshot::from_bytes(&bytes).expect("snapshot decodes");
    assert_eq!(reparsed.to_bytes(), bytes, "re-serialization drifts");
    let got = fingerprint(&bytes);
    assert_eq!(got, FAULTED_SNAPSHOT, "faulted snapshot digest {got:#018x}");
}
