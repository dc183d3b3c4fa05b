//! Named, snapshot-capable scenarios and time-travel triage helpers.
//!
//! A **scenario** is a value-typed recipe — a [`MaestroConfig`] plus a
//! spec-driven workload — that any process can rebuild bit-identically from
//! its name alone. That is the key property behind `maestro-bench replay`:
//! a snapshot file carries the scenario name, so the replay CLI can
//! reconstruct the exact facade the snapshot was taken under and resume to
//! any later virtual timestamp without re-running the cold-start prefix.
//!
//! The **triage** helpers turn a chaos-harness failure plus the cadence
//! snapshots collected before it into an actionable report: the nearest
//! pre-failure snapshot is written to disk and the failure message embeds
//! the chaos seed, the active fault schedule, the virtual timestamp, and a
//! ready-to-paste replay command.

use std::path::{Path, PathBuf};

use maestro::{Maestro, MaestroConfig, MaestroSnapshot, Policy};
use maestro_fleet::{Fleet, FleetConfig, FleetFaultPlan};
use maestro_machine::snap::{Codec, SnapError, SnapReader, SnapWriter};
use maestro_machine::{Cost, PState};
use maestro_runtime::TaskSpec;
use maestro_service::{ServiceConfig, ServiceHandle, ServiceSource, ServiceStack};

/// A named, reproducible run recipe: configuration plus spec workload.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Registry name (also the run/region label, carried in snapshots).
    pub name: &'static str,
    /// Facade configuration.
    pub config: MaestroConfig,
    /// The spec-driven (and therefore snapshot-capable) workload.
    pub spec: TaskSpec,
}

/// Every scenario name the registry resolves, for `--help` and validation.
pub const SCENARIO_NAMES: &[&str] = &[
    "contended-adaptive",
    "contended-fixed",
    "scalable-adaptive",
    "contended-dvfs",
    "contended-powercap",
];

/// A hot, memory-contended task bag — the workload class the paper's
/// throttling targets (LULESH-like).
fn contended_spec(tasks: usize) -> TaskSpec {
    TaskSpec::fork_join(
        (0..tasks).map(|_| TaskSpec::leaf(Cost::new(13_000_000, 500_000, 8.0, 0.95))).collect(),
        Cost::ZERO,
    )
}

/// A cleanly scaling compute-bound bag (SIMPLE-like).
fn scalable_spec(tasks: usize) -> TaskSpec {
    TaskSpec::fork_join(
        (0..tasks).map(|_| TaskSpec::leaf(Cost::compute(27_000_000, 0.6))).collect(),
        Cost::ZERO,
    )
}

/// Resolve a scenario by name. The same name always produces the same
/// configuration and workload, so a snapshot taken under `scenario(n)` can
/// be resumed by any process that can call `scenario(n)`.
pub fn scenario(name: &str) -> Option<Scenario> {
    let adaptive = MaestroConfig::adaptive(16).policy;
    let (policy, spec) = match name {
        "contended-adaptive" => (adaptive, contended_spec(1200)),
        "contended-fixed" => (Policy::Fixed, contended_spec(1200)),
        "scalable-adaptive" => (adaptive, scalable_spec(600)),
        "contended-dvfs" => (Policy::Dvfs { floor: PState::floor_of(1.8) }, contended_spec(1200)),
        "contended-powercap" => (Policy::PowerCap { watts: 130.0 }, contended_spec(1200)),
        _ => return None,
    };
    let config = MaestroConfig { policy, ..MaestroConfig::fixed(16) };
    Some(Scenario { name: SCENARIO_NAMES.iter().find(|&&n| n == name)?, config, spec })
}

/// The adaptive-policy knob sweep used by the warm-fork perf probe and the
/// `fork` examples: restore one snapshot under each limit.
pub fn sweep_limits() -> &'static [usize] {
    &[2, 3, 4, 6, 8, 12]
}

/// Build the config variant for one sweep point: identical to `base` except
/// for the shepherd throttle limit (a policy knob outside the snapshot
/// fingerprint, so warm forking works).
pub fn limit_variant(base: &MaestroConfig, limit_per_shepherd: usize) -> MaestroConfig {
    let mut cfg = base.clone();
    cfg.policy = Policy::Adaptive { limit_per_shepherd };
    cfg
}

// ---------------------------------------------------------------------
// Fleet scenarios
// ---------------------------------------------------------------------

/// A named, reproducible fleet recipe: the [`FleetConfig`] plus how many
/// coordination epochs the experiment runs.
#[derive(Clone, Debug)]
pub struct FleetScenario {
    /// Registry name (carried in fleet node snapshot files).
    pub name: &'static str,
    /// The fleet configuration (nodes, caps, faults — all of it).
    pub config: FleetConfig,
    /// Epochs the canonical experiment runs.
    pub epochs: u64,
}

/// Every fleet scenario name the registry resolves.
pub const FLEET_SCENARIO_NAMES: &[&str] =
    &["fleet-smoke", "fleet-baseline", "fleet-correlated-failures", "fleet-10k"];

/// Resolve a fleet scenario by name. Pure: the same name always produces
/// the same configuration, so a node snapshot taken under
/// `fleet_scenario(n)` can be restored by any process that can call
/// `fleet_scenario(n)`.
pub fn fleet_scenario(name: &str) -> Option<FleetScenario> {
    let (config, epochs) = match name {
        // CI-sized chaos cocktail: every fault class on 8 nodes.
        "fleet-smoke" => {
            let mut cfg = FleetConfig::new(8, 100.0, 8);
            cfg.nodes_per_rack = 4;
            cfg.faults = FleetFaultPlan::new(8)
                .with_crash_wave(3_000_000_000, 2, 2, 200_000_000)
                .with_partition(5_000_000_000, 8_000_000_000, 4, 2)
                .with_grant_loss_rate(0.15)
                .with_grant_dup_rate(0.10)
                .with_grant_delay(0.25, 500_000_000)
                .with_report_loss_rate(0.10);
            (cfg, 12)
        }
        // Fault-free control: the coordinator tracking the rolling wave.
        "fleet-baseline" => (FleetConfig::new(32, 95.0, 1), 30),
        // The §V-style drill: ≥100 nodes under a rolling load wave, hit by
        // a correlated crash wave (three racks, staggered) and a rack-scale
        // telemetry partition, over a lossy grant channel.
        "fleet-correlated-failures" => {
            let mut cfg = FleetConfig::new(120, 95.0, 42);
            cfg.faults = FleetFaultPlan::new(42)
                .with_crash_wave(20_000_000_000, 40, 24, 250_000_000)
                .with_partition(30_000_000_000, 45_000_000_000, 80, 24)
                .with_grant_loss_rate(0.10)
                .with_grant_dup_rate(0.05)
                .with_grant_delay(0.20, 800_000_000)
                .with_report_loss_rate(0.10)
                .with_daemon_faults(0.01, 7_000_000_000);
            (cfg, 60)
        }
        // The 10,240-node drill: the correlated-failures fault mix scaled
        // to the fleet. A crash wave over a fifth of the nodes at one third
        // of the run, staggered over 6 s, and a telemetry partition over
        // another fifth for the third quarter.
        "fleet-10k" => {
            const SEC: u64 = 1_000_000_000;
            let (nodes, epochs) = (10_240, 120);
            let (run_ns, fifth) = (epochs * SEC, nodes / 5);
            let mut cfg = FleetConfig::new(nodes, 95.0, 1);
            cfg.faults = FleetFaultPlan::new(1)
                .with_crash_wave(run_ns / 3, nodes / 3, fifth, 6 * SEC / fifth as u64)
                .with_partition(run_ns / 2, run_ns * 3 / 4, 2 * nodes / 3, fifth)
                .with_grant_loss_rate(0.10)
                .with_grant_dup_rate(0.05)
                .with_grant_delay(0.20, 800_000_000)
                .with_report_loss_rate(0.10)
                .with_daemon_faults(0.01, 7 * SEC);
            (cfg, epochs)
        }
        _ => return None,
    };
    Some(FleetScenario {
        name: FLEET_SCENARIO_NAMES.iter().find(|&&n| n == name)?,
        config,
        epochs,
    })
}

// ---------------------------------------------------------------------
// Service scenarios
// ---------------------------------------------------------------------

/// A named, reproducible service recipe: facade configuration, the
/// open-loop service workload, and the optional SLO governor. Service
/// scenarios run under `Policy::Fixed` — the [`maestro_service::SloGovernor`]
/// is the sole throttle driver, so the energy ladder never fights the
/// RCR controller.
#[derive(Clone, Debug)]
pub struct ServiceScenario {
    /// Registry name (prefixed `svc-`, carried in snapshots).
    pub name: &'static str,
    /// Facade configuration.
    pub config: MaestroConfig,
    /// The service workload: arrivals, request classes, retry budget.
    pub service: ServiceConfig,
    /// The governor's p99 SLO; `None` runs ungoverned (the storm demos).
    pub slo_p99_ns: Option<u64>,
}

/// Every service scenario name the registry resolves. The `svc-pareto-*`
/// family is the energy-vs-tail-latency sweep: identical workload, three
/// SLO settings.
pub const SERVICE_SCENARIO_NAMES: &[&str] = &[
    "svc-steady",
    "svc-burst",
    "svc-storm",
    "svc-storm-guarded",
    "svc-pareto-tight",
    "svc-pareto-mid",
    "svc-pareto-relaxed",
];

/// The overload workload both storm scenarios share: sustained arrivals
/// beyond capacity with tight deadlines, so timed-out attempts pile into
/// the retry path. `svc-storm` strips the budget (metastable collapse);
/// `svc-storm-guarded` keeps it (budgets + shedding recover goodput).
fn storm_service(seed: u64) -> ServiceConfig {
    let mut cfg = ServiceConfig::simple(seed, 90_000.0, 60_000, 400_000);
    cfg.retry_limit = 5;
    cfg
}

/// The Pareto-family workload: one configuration, swept over governor SLOs.
/// The per-request deadline is deliberately generous (well past the most
/// relaxed SLO) so the three points differ only in the governor objective.
fn pareto_service(seed: u64) -> ServiceConfig {
    ServiceConfig::simple(seed, 60_000.0, 30_000, 6_000_000)
}

/// Resolve a service scenario by name. Pure: the same name always produces
/// the same recipe, so a snapshot taken under `service_scenario(n)` can be
/// resumed by any process that can call `service_scenario(n)`.
pub fn service_scenario(name: &str) -> Option<ServiceScenario> {
    let (service, slo_p99_ns) = match name {
        "svc-steady" => (ServiceConfig::simple(101, 40_000.0, 60_000, 2_000_000), Some(2_000_000)),
        "svc-burst" => {
            let mut cfg = ServiceConfig::simple(102, 30_000.0, 60_000, 2_000_000);
            cfg.arrivals.bursty = true;
            (cfg, Some(2_000_000))
        }
        "svc-storm" => {
            let mut cfg = storm_service(103);
            cfg.retry_budget = false;
            (cfg, None)
        }
        "svc-storm-guarded" => (storm_service(103), None),
        "svc-pareto-tight" => (pareto_service(104), Some(700_000)),
        "svc-pareto-mid" => (pareto_service(104), Some(1_400_000)),
        "svc-pareto-relaxed" => (pareto_service(104), Some(2_800_000)),
        _ => return None,
    };
    Some(ServiceScenario {
        name: SERVICE_SCENARIO_NAMES.iter().find(|&&n| n == name)?,
        config: MaestroConfig::fixed(16),
        service,
        slo_p99_ns,
    })
}

/// Build the ready-to-run pieces for a service scenario: the facade with
/// the governor (if any) installed as a monitor, the boxed source to hand
/// to `try_run_service`/`run_service_captured`, and the shared handle the
/// report layer reads after the run.
pub fn service_facade(sc: &ServiceScenario) -> (Maestro, Box<ServiceSource>, ServiceHandle) {
    let stack = ServiceStack::new(&sc.service, sc.slo_p99_ns);
    let mut m = Maestro::new(sc.config.clone());
    if let Some(governor) = stack.governor {
        m.runtime_mut().add_monitor(Box::new(governor));
    }
    (m, stack.source, stack.handle)
}

/// Magic string opening a fleet node snapshot file (distinguishes it from
/// a [`MaestroSnapshot`] for the replay CLI's format sniffing).
const FLEET_SNAP_MAGIC: &str = "maestro-fleet-node-snap/v1";

/// Serialize one fleet node's state for `maestro-bench replay`: the
/// scenario name travels with the bytes, so the replay CLI can rebuild the
/// exact [`FleetConfig`] the shard was running under.
pub fn write_fleet_node_snapshot(scenario_name: &str, fleet: &Fleet, node: usize) -> Vec<u8> {
    let file = FleetNodeSnapshot {
        scenario: scenario_name.to_string(),
        node_blob: fleet.snapshot_node(node),
    };
    let mut w = SnapWriter::new();
    file.codec(&mut w).expect("live state encodes");
    w.finish()
}

/// A parsed fleet node snapshot file: scenario name plus the inner
/// [`Fleet::snapshot_node`] blob (validated against the scenario's config
/// fingerprint at restore time).
#[derive(Clone, Debug, Default)]
pub struct FleetNodeSnapshot {
    /// The fleet scenario the shard was running under.
    pub scenario: String,
    /// The inner node-state blob for [`Fleet::restore_node`].
    pub node_blob: Vec<u8>,
}

impl FleetNodeSnapshot {
    /// The file layout (see [`Codec`]): format magic, scenario name, node
    /// blob.
    fn codec<C: Codec>(&self, c: &mut C) -> Result<Self, SnapError> {
        if c.str(FLEET_SNAP_MAGIC)? != FLEET_SNAP_MAGIC {
            return Err(SnapError::Corrupt("not a fleet node snapshot"));
        }
        Ok(FleetNodeSnapshot { scenario: c.str(&self.scenario)?, node_blob: c.blob(&self.node_blob)? })
    }
}

/// Parse a fleet node snapshot file. `Err` means the bytes are not this
/// format (fall through to other snapshot kinds) or are truncated.
pub fn read_fleet_node_snapshot(bytes: &[u8]) -> Result<FleetNodeSnapshot, SnapError> {
    let mut r = SnapReader::new(bytes);
    let file = FleetNodeSnapshot::default().codec(&mut r)?;
    r.finish()?;
    Ok(file)
}

/// The nearest snapshot at or before `failure_t_ns` — the time-travel entry
/// point for triaging a failure at that virtual timestamp.
pub fn nearest_pre_failure(
    snapshots: &[MaestroSnapshot],
    failure_t_ns: u64,
) -> Option<&MaestroSnapshot> {
    snapshots.iter().filter(|s| s.t_ns() <= failure_t_ns).max_by_key(|s| s.t_ns())
}

/// A rendered triage report for one chaos failure.
#[derive(Clone, Debug)]
pub struct TriageReport {
    /// Virtual timestamp of the failure, nanoseconds.
    pub failure_t_ns: u64,
    /// Where the nearest pre-failure snapshot was written, if one existed.
    pub snapshot_path: Option<PathBuf>,
    /// Virtual timestamp of that snapshot.
    pub snapshot_t_ns: Option<u64>,
    /// The full human-readable report (embed this in assertion messages).
    pub message: String,
}

/// Assemble the triage report for a chaos failure: persist the nearest
/// pre-failure cadence snapshot under `dir` and render a message carrying
/// the chaos seed, the active fault schedule, the virtual timestamp, and
/// the exact `maestro-bench replay` invocation that re-executes to the
/// failing timestamp from that snapshot.
pub fn triage(
    dir: &Path,
    seed: u64,
    fault_schedule: &str,
    snapshots: &[MaestroSnapshot],
    failure_t_ns: u64,
    failure_msg: &str,
) -> TriageReport {
    let nearest = nearest_pre_failure(snapshots, failure_t_ns);
    let mut message = format!(
        "chaos failure at t={failure_t_ns} ns (CHAOS_SEED={seed})\n\
         fault schedule: {fault_schedule}\n\
         error: {failure_msg}"
    );
    let (snapshot_path, snapshot_t_ns) = match nearest {
        None => {
            message.push_str("\nno pre-failure snapshot available (cadence too coarse?)");
            (None, None)
        }
        Some(snap) => {
            let path = dir.join(format!("{}-t{}.snap", snap.name(), snap.t_ns()));
            match std::fs::write(&path, snap.to_bytes()) {
                Ok(()) => {
                    message.push_str(&format!(
                        "\nnearest pre-failure snapshot: t={} ns -> {}\n\
                         replay: maestro-bench replay --snapshot {} --until {}",
                        snap.t_ns(),
                        path.display(),
                        path.display(),
                        failure_t_ns,
                    ));
                    (Some(path), Some(snap.t_ns()))
                }
                Err(e) => {
                    message.push_str(&format!(
                        "\nnearest pre-failure snapshot at t={} ns could not be written: {e}",
                        snap.t_ns()
                    ));
                    (None, Some(snap.t_ns()))
                }
            }
        }
    };
    TriageReport { failure_t_ns, snapshot_path, snapshot_t_ns, message }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro::{Maestro, MaestroRunEnd};
    use maestro_runtime::SnapshotPlan;

    #[test]
    fn every_registered_scenario_resolves() {
        for name in SCENARIO_NAMES {
            let sc = scenario(name).expect("registered name resolves");
            assert_eq!(sc.name, *name);
            assert!(sc.spec.task_count() > 1);
        }
        assert!(scenario("no-such-scenario").is_none());
    }

    #[test]
    fn snapshot_from_scenario_replays_on_a_rebuilt_facade() {
        // The replay CLI's core loop: scenario name -> fresh facade ->
        // resume from file bytes.
        let sc = scenario("contended-adaptive").unwrap();
        let mut m = Maestro::new(sc.config.clone());
        let snap = m
            .run_captured(
                sc.name,
                &mut (),
                sc.spec.clone().into_task(),
                &SnapshotPlan::suspend_at(100_000_000),
            )
            .unwrap()
            .suspended()
            .expect("suspends");
        let bytes = snap.to_bytes();

        let restored = MaestroSnapshot::from_bytes(&bytes).unwrap();
        let sc2 = scenario(restored.name()).expect("snapshot names a registered scenario");
        let mut m2 = Maestro::new(sc2.config);
        let end =
            m2.resume_captured(&mut (), &restored, &SnapshotPlan::none()).unwrap().end;
        assert!(matches!(end, MaestroRunEnd::Completed(_)), "{end:?}");
    }

    #[test]
    fn every_registered_service_scenario_resolves() {
        for name in SERVICE_SCENARIO_NAMES {
            let sc = service_scenario(name).expect("registered service name resolves");
            assert_eq!(sc.name, *name);
            assert!(name.starts_with("svc-"), "replay routing keys on the prefix: {name}");
            assert!(sc.service.arrivals.total_requests > 0);
        }
        assert!(service_scenario("svc-no-such").is_none());
        // The storm pair differs only in the retry budget.
        let storm = service_scenario("svc-storm").unwrap();
        let guarded = service_scenario("svc-storm-guarded").unwrap();
        assert!(!storm.service.retry_budget, "collapse demo runs unbudgeted");
        assert!(guarded.service.retry_budget, "recovery demo keeps the budget");
        // The Pareto family is one workload under three SLOs.
        let tight = service_scenario("svc-pareto-tight").unwrap();
        let relaxed = service_scenario("svc-pareto-relaxed").unwrap();
        assert_eq!(tight.service, relaxed.service, "identical workload across the sweep");
        assert!(tight.slo_p99_ns.unwrap() < relaxed.slo_p99_ns.unwrap());
    }

    #[test]
    fn service_snapshot_replays_on_a_rebuilt_facade() {
        // The replay CLI's service loop: scenario name -> fresh facade +
        // fresh stack -> resume from file bytes, mid-burst.
        let sc = service_scenario("svc-burst").unwrap();
        let (mut m, source, _handle) = service_facade(&sc);
        let snap = m
            .run_service_captured(sc.name, &mut (), source, &SnapshotPlan::suspend_at(155_000_000))
            .unwrap()
            .suspended()
            .expect("suspends inside the second burst window");
        let bytes = snap.to_bytes();

        let restored = MaestroSnapshot::from_bytes(&bytes).unwrap();
        let sc2 = service_scenario(restored.name()).expect("snapshot names a service scenario");
        let (mut m2, source2, handle2) = service_facade(&sc2);
        let end = m2
            .resume_service_captured(&mut (), source2, &restored, &SnapshotPlan::none())
            .unwrap()
            .end;
        assert!(matches!(end, MaestroRunEnd::Completed(_)), "{end:?}");
        let c = handle2.borrow().counters;
        assert_eq!(c.conservation_gap(), 0, "{c:?}");
        assert_eq!(c.arrived, sc.service.arrivals.total_requests, "{c:?}");
        assert_eq!(c.in_flight + c.pending_retry, 0, "{c:?}");
    }

    #[test]
    fn every_registered_fleet_scenario_resolves() {
        for name in FLEET_SCENARIO_NAMES {
            let sc = fleet_scenario(name).expect("registered fleet name resolves");
            assert_eq!(sc.name, *name);
            assert!(sc.config.nodes >= 8 && sc.epochs > 0);
        }
        assert!(fleet_scenario("no-such-fleet").is_none());
        let big = fleet_scenario("fleet-correlated-failures").unwrap();
        assert!(big.config.nodes >= 100, "the §V drill is fleet-scale");
    }

    #[test]
    fn fleet_node_snapshot_file_round_trips() {
        let sc = fleet_scenario("fleet-smoke").unwrap();
        let mut fleet = Fleet::new(sc.config.clone());
        fleet.advance_epochs(4, 2);
        let bytes = write_fleet_node_snapshot(sc.name, &fleet, 2);
        let parsed = read_fleet_node_snapshot(&bytes).unwrap();
        assert_eq!(parsed.scenario, "fleet-smoke");
        let (node, t) = Fleet::restore_node(&sc.config, &parsed.node_blob).unwrap();
        assert_eq!(t, fleet.now_ns());
        assert_eq!(node.trace(), fleet.node(2).trace());
        // A Maestro snapshot is not mistaken for a fleet one and vice versa.
        assert!(read_fleet_node_snapshot(b"garbage").is_err());
        maestro_machine::snap::assert_rejects_corruption(&bytes, |input| {
            let file = read_fleet_node_snapshot(input)?;
            let (mut node, _) = Fleet::restore_node(&sc.config, &file.node_blob)?;
            node.advance_to(node.now_ns().saturating_add(1_000_000_000));
            Ok(())
        });
    }

    #[test]
    fn nearest_pre_failure_picks_latest_not_after() {
        let sc = scenario("contended-adaptive").unwrap();
        let mut m = Maestro::new(sc.config.clone());
        let run = m
            .run_captured(
                sc.name,
                &mut (),
                sc.spec.clone().into_task(),
                &SnapshotPlan::every(50_000_000),
            )
            .unwrap();
        assert!(run.snapshots.len() >= 2, "cadence fired {} times", run.snapshots.len());
        let t1 = run.snapshots[1].t_ns();
        let hit = nearest_pre_failure(&run.snapshots, t1 + 1).expect("snapshot exists");
        assert_eq!(hit.t_ns(), t1);
        let before_all = run.snapshots[0].t_ns().saturating_sub(1);
        assert!(nearest_pre_failure(&run.snapshots, before_all).is_none());
    }

    #[test]
    fn triage_writes_snapshot_and_replay_command() {
        let sc = scenario("contended-adaptive").unwrap();
        let mut m = Maestro::new(sc.config.clone());
        let run = m
            .run_captured(
                sc.name,
                &mut (),
                sc.spec.clone().into_task(),
                &SnapshotPlan::every(60_000_000),
            )
            .unwrap();
        let dir = std::env::temp_dir().join("maestro-triage-test");
        std::fs::create_dir_all(&dir).unwrap();
        let failure_t = run.snapshots.last().unwrap().t_ns() + 5_000_000;
        let report = triage(&dir, 7, "kills=[1.5e9] torn_rate=0.3", &run.snapshots, failure_t, "assertion failed: boom");
        assert!(report.message.contains("CHAOS_SEED=7"), "{}", report.message);
        assert!(report.message.contains("torn_rate=0.3"), "{}", report.message);
        assert!(report.message.contains(&format!("t={failure_t} ns")), "{}", report.message);
        assert!(report.message.contains("maestro-bench replay --snapshot"), "{}", report.message);
        let path = report.snapshot_path.expect("snapshot written");
        let bytes = std::fs::read(&path).unwrap();
        let snap = MaestroSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(Some(snap.t_ns()), report.snapshot_t_ns);
        std::fs::remove_file(path).ok();
    }
}
