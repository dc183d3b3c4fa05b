//! The MAESTRO facade: machine + runtime + controller, one call to run and
//! measure a workload.

use std::cell::Cell;
use std::rc::Rc;

use maestro_machine::snap::{Codec, PagedBytes, SnapError, SnapReader, SnapWriter};
use maestro_machine::{fingerprint, Machine, MachineConfig, PState};
use maestro_rcr::{Region, RegionReport, DEFAULT_SAMPLE_PERIOD_NS};
use maestro_runtime::{
    BoxTask, CapturedRun, RequestSource, RunEnd, RunOutcome, RunStats, Runtime, RuntimeError,
    RuntimeParams, SnapshotPlan, TaskValue, Watchdog,
};

use crate::controller::{ControllerConfig, ControllerTrace, ThrottleController, TraceHandle};

/// Concurrency policy for a run, matching the paper's table rows (plus the
/// alternative mechanisms evaluated by the `ablation`/`powercap` targets).
/// Every policy but `Fixed` runs the same supervised controller; the policy
/// picks only its response.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Policy {
    /// "N Threads - Fixed": `workers` workers, no throttling.
    Fixed,
    /// "16 Threads - Dynamic": all workers plus the adaptive controller,
    /// which limits each shepherd to `limit_per_shepherd` active workers
    /// while the throttle flag is set.
    Adaptive {
        /// Active-worker cap per shepherd while throttled (6 ⇒ 12 node-wide
        /// on the 2-socket machine, the paper's configuration).
        limit_per_shepherd: usize,
    },
    /// The DVFS alternative the paper argues against: same sensing, but the
    /// response is a package-global P-state step with `floor` as the lowest
    /// allowed frequency.
    Dvfs {
        /// Lowest P-state the controller may select.
        floor: PState,
    },
    /// Power clamping: same sensing, but the response keeps node power at
    /// or below the bound by adjusting the shepherd concurrency limit (§V
    /// outlook; Rountree et al. 2012).
    PowerCap {
        /// Node power bound, Watts.
        watts: f64,
    },
}

/// Configuration of a [`Maestro`] instance.
#[derive(Clone, Debug)]
pub struct MaestroConfig {
    /// The simulated node.
    pub machine: MachineConfig,
    /// Tasking-runtime parameters (including worker count).
    pub runtime: RuntimeParams,
    /// Fixed concurrency or the controller's response.
    pub policy: Policy,
    /// Safe mode, fault injection, and the daemon restart policy for the
    /// controller of every policy but [`Policy::Fixed`].
    pub controller: ControllerConfig,
}

impl MaestroConfig {
    /// Fixed concurrency with `workers` workers on the paper's node.
    pub fn fixed(workers: usize) -> Self {
        MaestroConfig {
            machine: MachineConfig::sandybridge_2x8(),
            runtime: RuntimeParams::qthreads(workers),
            policy: Policy::Fixed,
            controller: ControllerConfig::default(),
        }
    }

    /// Adaptive throttling with `workers` workers and the paper's limit of
    /// 6 active workers per shepherd (12 node-wide).
    pub fn adaptive(workers: usize) -> Self {
        MaestroConfig {
            machine: MachineConfig::sandybridge_2x8(),
            runtime: RuntimeParams::qthreads(workers),
            policy: Policy::Adaptive { limit_per_shepherd: 6 },
            controller: ControllerConfig::default(),
        }
    }
}

/// Summary of the controller's behaviour during one run.
#[derive(Clone, Debug, PartialEq)]
pub struct ThrottleSummary {
    /// Fraction of controller decisions with the flag set.
    pub throttled_fraction: f64,
    /// Off→on transitions.
    pub activations: usize,
    /// Controller decisions taken.
    pub decisions: usize,
    /// Decisions forced by the controller's safe mode (measurement pipeline
    /// degraded — throttling deactivated, full duty cycle restored).
    pub safe_mode_decisions: usize,
    /// Daemon publication deadlines the watchdog saw missed during the run.
    pub missed_deadlines: u64,
    /// Daemon deaths the supervisor observed during the run.
    pub daemon_kills: u64,
    /// Daemon restarts the supervisor performed during the run.
    pub daemon_restarts: u64,
    /// True once the supervisor exhausted its restart budget (the pipeline
    /// stayed dark and the controller failed open for the remainder).
    pub daemon_gave_up: bool,
    /// Times the controller resumed from its checkpoint after a restart.
    pub checkpoint_restores: u64,
}

/// Everything measured about one run: the region report fields (time,
/// Joules, Watts, temperatures) plus scheduler and controller statistics.
#[derive(Debug)]
pub struct RunReport {
    /// Workload label.
    pub name: String,
    /// Virtual execution time, seconds.
    pub elapsed_s: f64,
    /// Whole-node energy, Joules.
    pub joules: f64,
    /// Average node power, Watts.
    pub avg_watts: f64,
    /// Most recent chip temperature per socket, °C.
    pub chip_temps_c: Vec<f64>,
    /// Scheduler counters.
    pub stats: RunStats,
    /// Present for adaptive runs (the duty-cycle flag is not the DVFS or
    /// power-cap knob). Boxed so a completed [`MaestroRunEnd`] stays within
    /// about 200 bytes of a suspended one.
    pub throttle: Option<Box<ThrottleSummary>>,
    /// The root task's value.
    pub value: TaskValue,
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<24} {:>8.2} s {:>9.0} J {:>7.1} W",
            self.name, self.elapsed_s, self.joules, self.avg_watts
        )?;
        if let Some(t) = &self.throttle {
            write!(
                f,
                "  [throttled {:.0}% of samples, {} activation(s)]",
                t.throttled_fraction * 100.0,
                t.activations
            )?;
            if t.safe_mode_decisions > 0 || t.missed_deadlines > 0 {
                write!(
                    f,
                    " [degraded: {} safe-mode decision(s), {} missed deadline(s)]",
                    t.safe_mode_decisions, t.missed_deadlines
                )?;
            }
            if t.daemon_kills > 0 || t.daemon_restarts > 0 {
                write!(
                    f,
                    " [recovery: {} daemon death(s), {} restart(s), {} checkpoint restore(s){}]",
                    t.daemon_kills,
                    t.daemon_restarts,
                    t.checkpoint_restores,
                    if t.daemon_gave_up { ", gave up" } else { "" }
                )?;
            }
            let s = &self.stats;
            if s.breaker_trips > 0 || s.failed_duty_applies > 0 {
                write!(
                    f,
                    " [actuation: {} failed apply(s), {} breaker trip(s), {} forced reset(s)]",
                    s.failed_duty_applies, s.breaker_trips, s.forced_duty_resets
                )?;
            }
        }
        Ok(())
    }
}

/// The integrated system. Construct once per configuration; run one or more
/// workloads (the machine stays warm between runs, as on real hardware).
pub struct Maestro {
    runtime: Runtime,
    trace: Option<TraceHandle>,
    watchdog_missed: Option<Rc<Cell<u64>>>,
    policy: Policy,
}

impl Maestro {
    /// Assemble machine, runtime, and (for every policy but
    /// [`Policy::Fixed`]) the RCR daemon + controller. Panics on an invalid
    /// configuration; use [`Maestro::try_new`] for the fallible form.
    pub fn new(config: MaestroConfig) -> Self {
        Self::try_new(config).expect("invalid Maestro configuration")
    }

    /// Fallible assembly: rejects invalid runtime parameters and worker
    /// counts beyond the machine's cores with a typed error.
    pub fn try_new(config: MaestroConfig) -> Result<Self, RuntimeError> {
        let MaestroConfig { machine, runtime, policy, controller } = config;
        let mut runtime = Runtime::new(Machine::new(machine), runtime)?;
        let mut trace = None;
        let mut watchdog_missed = None;
        if policy != Policy::Fixed {
            let (controller, t) =
                ThrottleController::with_policy(runtime.machine(), policy, controller);
            let heartbeat = controller.heartbeat();
            trace = Some(t);
            runtime.add_monitor(Box::new(controller));
            if let Policy::Adaptive { limit_per_shepherd } = policy {
                runtime.throttle_mut().limit_per_shepherd = limit_per_shepherd;
                // Supervise the controller's publication heartbeat at twice
                // the sampling period, so one late sample is not yet a miss.
                let watchdog = Watchdog::new(2 * DEFAULT_SAMPLE_PERIOD_NS, heartbeat);
                watchdog_missed = Some(watchdog.missed_handle());
                runtime.add_monitor(Box::new(watchdog));
            }
        }
        Ok(Maestro { runtime, trace, watchdog_missed, policy })
    }

    /// The controller's decision trace, for every policy but
    /// [`Policy::Fixed`].
    pub fn controller_trace(&self) -> Option<&TraceHandle> {
        self.trace.as_ref()
    }

    /// The configured policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The simulated machine (for inspection between runs).
    pub fn machine(&self) -> &Machine {
        self.runtime.machine()
    }

    /// Direct access to the underlying tasking runtime.
    pub fn runtime_mut(&mut self) -> &mut Runtime {
        &mut self.runtime
    }

    /// Execute `root` against `app`, measured with the RCR region API.
    /// Panics on a scheduler error; use [`Maestro::try_run`] for the
    /// fallible form.
    pub fn run<C: 'static>(&mut self, name: &str, app: &mut C, root: BoxTask<C>) -> RunReport {
        self.try_run(name, app, root).expect("scheduler failed")
    }

    /// Execute `root` against `app`, surfacing scheduler failures (e.g. a
    /// deadlocked task graph) as a typed error instead of panicking.
    pub fn try_run<C: 'static>(
        &mut self,
        name: &str,
        app: &mut C,
        root: BoxTask<C>,
    ) -> Result<RunReport, RuntimeError> {
        let anchors = self.run_anchors();
        let region = Region::start(name, self.runtime.machine());
        let outcome = self.runtime.run(app, root)?;
        let report = region.end(self.runtime.machine());
        Ok(self.build_report(name, outcome, report, &anchors))
    }

    /// The facade-side measurement baselines taken at run start, so per-run
    /// summaries subtract prior runs on the same warm instance.
    fn run_anchors(&self) -> RunAnchors {
        let trace = self.trace.as_ref().map(|t| t.borrow());
        let trace = trace.as_deref();
        RunAnchors {
            decisions_before: trace.map_or(0, |t| t.samples.len()) as u64,
            missed_before: self.watchdog_missed.as_ref().map_or(0, |m| m.get()),
            kills_before: trace.map_or(0, |t| t.supervisor.kills),
            restarts_before: trace.map_or(0, |t| t.supervisor.restarts),
            restores_before: trace.map_or(0, |t| t.checkpoint_restores),
        }
    }

    fn build_report(
        &self,
        name: &str,
        outcome: RunOutcome,
        report: RegionReport,
        anchors: &RunAnchors,
    ) -> RunReport {
        let decisions_before = anchors.decisions_before as usize;
        let adaptive = matches!(self.policy, Policy::Adaptive { .. });
        let throttle = self.trace.as_ref().filter(|_| adaptive).map(|t| {
            let trace = t.borrow();
            let run_samples = &trace.samples[decisions_before.min(trace.samples.len())..];
            Box::new(ThrottleSummary {
                throttled_fraction: ControllerTrace::throttled_fraction(run_samples),
                activations: ControllerTrace::activations(run_samples),
                decisions: run_samples.len(),
                safe_mode_decisions: run_samples.iter().filter(|s| s.safe_mode).count(),
                missed_deadlines: self.watchdog_missed.as_ref().map_or(0, |m| m.get())
                    - anchors.missed_before,
                daemon_kills: trace.supervisor.kills - anchors.kills_before,
                daemon_restarts: trace.supervisor.restarts - anchors.restarts_before,
                daemon_gave_up: trace.supervisor.gave_up,
                checkpoint_restores: trace.checkpoint_restores - anchors.restores_before,
            })
        });
        RunReport {
            name: name.to_string(),
            elapsed_s: report.elapsed_s,
            joules: report.joules,
            avg_watts: report.avg_watts,
            chip_temps_c: report.chip_temps_c,
            stats: outcome.stats,
            throttle,
            value: outcome.value,
        }
    }

    // ------------------------------------------------------------------
    // Service runs (open-loop request traffic, no root task)
    // ------------------------------------------------------------------

    /// Execute an open-loop service run, measured like [`Maestro::try_run`]:
    /// `source` injects request trees as virtual time advances and the run
    /// ends when the source exhausts and every request settles. Terminal
    /// errors carry partial stats with the service counters folded in.
    pub fn try_run_service<C: 'static>(
        &mut self,
        name: &str,
        app: &mut C,
        source: Box<dyn RequestSource>,
    ) -> Result<RunReport, RuntimeError> {
        let anchors = self.run_anchors();
        let region = Region::start(name, self.runtime.machine());
        let outcome = self.runtime.run_service(app, source)?;
        let report = region.end(self.runtime.machine());
        Ok(self.build_report(name, outcome, report, &anchors))
    }

    /// [`Maestro::try_run_service`] under a [`SnapshotPlan`] — the service
    /// analogue of [`Maestro::run_captured`].
    pub fn run_service_captured<C: 'static>(
        &mut self,
        name: &str,
        app: &mut C,
        source: Box<dyn RequestSource>,
        plan: &SnapshotPlan,
    ) -> Result<MaestroRun, SnapError> {
        let anchors = self.run_anchors();
        let region = Region::start(name, self.runtime.machine());
        let captured = self.runtime.run_service_captured(app, source, plan)?;
        Ok(self.wrap_captured(region, anchors, captured))
    }

    /// Resume a suspended service run. `source` must be freshly built with
    /// the captured run's configuration; its dynamic state (RNG cursors,
    /// retry queue, admission ledger, histograms) is restored from the
    /// snapshot before the loop continues.
    pub fn resume_service_captured<C: 'static>(
        &mut self,
        app: &mut C,
        source: Box<dyn RequestSource>,
        snapshot: &MaestroSnapshot,
        plan: &SnapshotPlan,
    ) -> Result<MaestroRun, SnapError> {
        let captured =
            self.runtime.resume_service_captured(app, source, &snapshot.runtime_bytes.to_vec(), plan)?;
        Ok(self.wrap_captured(snapshot.region.clone(), snapshot.anchors, captured))
    }

    // ------------------------------------------------------------------
    // Whole-run snapshot / resume / fork
    // ------------------------------------------------------------------

    /// Execute `root` under a [`SnapshotPlan`]: take cadence snapshots,
    /// suspend at the planned point, or just run to completion with fences.
    /// Scheduler failures surface as [`MaestroRunEnd::Failed`] (so cadence
    /// snapshots taken before the failure survive for triage); the `Err`
    /// branch is reserved for capture/serialization problems.
    pub fn run_captured<C: 'static>(
        &mut self,
        name: &str,
        app: &mut C,
        root: BoxTask<C>,
        plan: &SnapshotPlan,
    ) -> Result<MaestroRun, SnapError> {
        let anchors = self.run_anchors();
        let region = Region::start(name, self.runtime.machine());
        let captured = self.runtime.run_captured(app, root, plan)?;
        Ok(self.wrap_captured(region, anchors, captured))
    }

    /// Resume a suspended run on this (freshly built or warm) facade. The
    /// configuration must match the captured one *except* for policy knobs:
    /// controller thresholds and the shepherd throttle limit are not part of
    /// the snapshot, which is exactly what makes warm **forking** work —
    /// restore one snapshot under N knob variants and sweep.
    pub fn resume_captured<C: 'static>(
        &mut self,
        app: &mut C,
        snapshot: &MaestroSnapshot,
        plan: &SnapshotPlan,
    ) -> Result<MaestroRun, SnapError> {
        let captured = self.runtime.resume_captured(app, &snapshot.runtime_bytes.to_vec(), plan)?;
        Ok(self.wrap_captured(snapshot.region.clone(), snapshot.anchors, captured))
    }

    /// Wrap a captured runtime run measured over `region`, which carries
    /// the workload label.
    fn wrap_captured(
        &self,
        region: Region,
        anchors: RunAnchors,
        captured: CapturedRun,
    ) -> MaestroRun {
        let to_snapshot = |t_ns: u64, bytes: PagedBytes| MaestroSnapshot {
            t_ns,
            region: region.clone(),
            anchors,
            runtime_bytes: bytes,
        };
        let snapshots =
            captured.snapshots.into_iter().map(|c| to_snapshot(c.t_ns, c.bytes)).collect();
        let end = match captured.end {
            RunEnd::Completed(outcome) => {
                let report = region.clone().end(self.runtime.machine());
                let name = region.name();
                MaestroRunEnd::Completed(self.build_report(name, outcome, report, &anchors))
            }
            RunEnd::Suspended(cap) => MaestroRunEnd::Suspended(to_snapshot(cap.t_ns, cap.bytes)),
            RunEnd::Failed(e) => MaestroRunEnd::Failed(e),
        };
        MaestroRun { end, snapshots }
    }
}

/// Facade-side measurement baselines captured at run start (and carried
/// inside snapshots so a resumed run subtracts the *original* baselines).
#[derive(Copy, Clone, Debug, Default)]
struct RunAnchors {
    decisions_before: u64,
    missed_before: u64,
    kills_before: u64,
    restarts_before: u64,
    restores_before: u64,
}

impl RunAnchors {
    /// The snapshot codec (see [`Codec`]): every baseline in declaration
    /// order.
    fn codec<C: Codec>(&self, c: &mut C) -> Result<Self, SnapError> {
        Ok(RunAnchors {
            decisions_before: c.u64(self.decisions_before)?,
            missed_before: c.u64(self.missed_before)?,
            kills_before: c.u64(self.kills_before)?,
            restarts_before: c.u64(self.restarts_before)?,
            restores_before: c.u64(self.restores_before)?,
        })
    }
}

/// How a captured Maestro run ended.
#[derive(Debug)]
pub enum MaestroRunEnd {
    /// Ran to completion; the full measured report.
    Completed(RunReport),
    /// Stopped at the planned suspension point.
    Suspended(MaestroSnapshot),
    /// The scheduler failed (panic, deadline, deadlock). Cadence snapshots
    /// taken before the failure are still available for time-travel triage.
    Failed(RuntimeError),
}

/// Result of [`Maestro::run_captured`] / [`Maestro::resume_captured`]: how
/// the run ended plus every cadence snapshot taken along the way.
#[derive(Debug)]
pub struct MaestroRun {
    /// Terminal state.
    pub end: MaestroRunEnd,
    /// Cadence snapshots in time order.
    pub snapshots: Vec<MaestroSnapshot>,
}

impl MaestroRun {
    /// The completed report, if the run finished.
    pub fn report(self) -> Option<RunReport> {
        match self.end {
            MaestroRunEnd::Completed(r) => Some(r),
            _ => None,
        }
    }

    /// The suspension snapshot, if the run was suspended.
    pub fn suspended(self) -> Option<MaestroSnapshot> {
        match self.end {
            MaestroRunEnd::Suspended(s) => Some(s),
            _ => None,
        }
    }
}

/// A whole-run snapshot at facade granularity: the runtime's serialized
/// state plus the facade's measurement anchors (open region, controller
/// baselines), so resuming closes the *original* measurement region and the
/// final report is bit-identical to an unbroken run's.
#[derive(Clone, Debug, Default)]
pub struct MaestroSnapshot {
    t_ns: u64,
    region: Region,
    anchors: RunAnchors,
    runtime_bytes: PagedBytes,
}

impl MaestroSnapshot {
    /// Workload label of the captured run (its measurement region's name).
    pub fn name(&self) -> &str {
        self.region.name()
    }

    /// Virtual time of the capture, nanoseconds.
    pub fn t_ns(&self) -> u64 {
        self.t_ns
    }

    /// Serialize into a self-contained, versioned byte blob (e.g. to write
    /// a snapshot file for `maestro-bench replay`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.header(fingerprint(b"maestro-snapshot/v1"));
        self.codec(&mut w).expect("live state encodes");
        w.finish()
    }

    /// Rebuild a snapshot serialized by [`MaestroSnapshot::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapError> {
        let mut r = SnapReader::new(bytes);
        r.header(fingerprint(b"maestro-snapshot/v1"))?;
        let snap = MaestroSnapshot::default().codec(&mut r)?;
        r.finish()?;
        Ok(snap)
    }

    /// The snapshot codec (see [`Codec`]): capture time, the open region
    /// (which carries the workload label), the controller baselines, and
    /// the runtime's own snapshot as a blob.
    fn codec<C: Codec>(&self, c: &mut C) -> Result<Self, SnapError> {
        Ok(MaestroSnapshot {
            t_ns: c.u64(self.t_ns)?,
            region: self.region.codec(c)?,
            anchors: self.anchors.codec(c)?,
            runtime_bytes: c.paged(&self.runtime_bytes)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_machine::snap::assert_rejects_corruption;
    use maestro_machine::{Cost, DutyCycle};
    use maestro_runtime::{compute_leaf, fork_join, TaskSpec};

    /// The spec form of [`contended_root`], for snapshot tests.
    fn contended_root_spec(tasks: usize) -> TaskSpec {
        TaskSpec::fork_join(
            (0..tasks).map(|_| TaskSpec::leaf(Cost::new(13_000_000, 500_000, 8.0, 0.95))).collect(),
            Cost::ZERO,
        )
    }

    /// A workload that is both hot and memory-contended: many coarse tasks
    /// with high intensity and high MLP.
    fn contended_root(tasks: usize) -> BoxTask<()> {
        let children: Vec<BoxTask<()>> = (0..tasks)
            .map(|_| compute_leaf(Cost::new(13_000_000, 500_000, 8.0, 0.95)))
            .collect();
        fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()))
    }

    /// A cleanly scaling compute-bound workload.
    fn scalable_root(tasks: usize) -> BoxTask<()> {
        let children: Vec<BoxTask<()>> =
            (0..tasks).map(|_| compute_leaf(Cost::compute(27_000_000, 0.6))).collect();
        fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()))
    }

    #[test]
    fn fixed_policy_has_no_throttle_summary() {
        let mut m = Maestro::new(MaestroConfig::fixed(16));
        let r = m.run("fixed", &mut (), scalable_root(32));
        assert!(r.throttle.is_none());
        assert!(r.elapsed_s > 0.0 && r.joules > 0.0);
    }

    #[test]
    fn adaptive_policy_throttles_contended_workload() {
        let mut m = Maestro::new(MaestroConfig::adaptive(16));
        let r = m.run("contended", &mut (), contended_root(2500));
        let t = r.throttle.expect("adaptive run has a summary");
        assert!(t.decisions > 5, "controller must have run: {t:?}");
        assert!(t.throttled_fraction > 0.3, "hot+contended must throttle: {t:?}");
        assert!(r.stats.throttled_worker_ns > 0);
    }

    #[test]
    fn adaptive_reduces_power_on_contended_workload() {
        let mut fixed = Maestro::new(MaestroConfig::fixed(16));
        let rf = fixed.run("fixed", &mut (), contended_root(2500));
        let mut adaptive = Maestro::new(MaestroConfig::adaptive(16));
        let ra = adaptive.run("adaptive", &mut (), contended_root(2500));
        assert!(
            ra.avg_watts < rf.avg_watts - 3.0,
            "adaptive {} W must undercut fixed {} W",
            ra.avg_watts,
            rf.avg_watts
        );
    }

    #[test]
    fn adaptive_leaves_scalable_workload_alone() {
        // Compute-bound, low memory concurrency: controller must not engage,
        // and overhead must be small (paper: ≤0.6 %).
        let mut fixed = Maestro::new(MaestroConfig::fixed(16));
        let rf = fixed.run("fixed", &mut (), scalable_root(320));
        let mut adaptive = Maestro::new(MaestroConfig::adaptive(16));
        let ra = adaptive.run("adaptive", &mut (), scalable_root(320));
        let t = ra.throttle.unwrap();
        assert_eq!(t.activations, 0, "must never throttle: {t:?}");
        let overhead = (ra.elapsed_s - rf.elapsed_s) / rf.elapsed_s;
        assert!(overhead.abs() < 0.006, "overhead {overhead}");
    }

    #[test]
    fn controller_faults_reach_a_dvfs_run() {
        use maestro_machine::{FaultPlan, NS_PER_SEC};

        let mut cfg = MaestroConfig::fixed(16);
        cfg.policy = Policy::Dvfs { floor: PState::floor_of(1.8) };
        cfg.controller.faults = Some(FaultPlan::new(41).with_stall(NS_PER_SEC / 5, NS_PER_SEC));
        let mut m = Maestro::new(cfg);
        let r = m.run("stalled-dvfs", &mut (), contended_root(2500));
        assert!(r.throttle.is_none(), "a DVFS run has no duty-cycle summary");
        let trace = m.controller_trace().expect("a DVFS run records a trace").borrow();
        assert!(trace.samples.iter().any(|s| s.safe_mode), "the stall reached the controller");
        assert!(!trace.samples.last().unwrap().safe_mode, "and it recovered after the stall");
    }

    #[test]
    fn healthy_run_reports_clean_watchdog_and_no_safe_mode() {
        let mut m = Maestro::new(MaestroConfig::adaptive(16));
        let r = m.run("contended", &mut (), contended_root(500));
        let t = r.throttle.expect("adaptive run has a summary");
        assert_eq!(t.missed_deadlines, 0, "healthy daemon never misses: {t:?}");
        assert_eq!(t.safe_mode_decisions, 0, "healthy meters never fail safe: {t:?}");
    }

    #[test]
    fn report_display_mentions_throttling() {
        let mut m = Maestro::new(MaestroConfig::adaptive(16));
        let r = m.run("x", &mut (), contended_root(300));
        let s = r.to_string();
        assert!(s.contains('W') && s.contains("throttled"), "{s}");
    }

    #[test]
    fn try_run_surfaces_task_failure_with_partial_stats() {
        use maestro_runtime::{leaf, RuntimeError};

        let mut m = Maestro::new(MaestroConfig::adaptive(16));
        let mut children: Vec<BoxTask<()>> = (0..64)
            .map(|_| compute_leaf(Cost::new(13_000_000, 500_000, 8.0, 0.95)))
            .collect();
        children.push(leaf(|_: &mut (), _| panic!("boom in the facade")));
        let root = fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()));

        let err = m.try_run("fails", &mut (), root).expect_err("a panicking leaf cannot succeed");
        match &err {
            RuntimeError::TaskFailed { failure, .. } => {
                assert!(failure.message.contains("boom in the facade"), "{failure}");
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
        let partial = err.partial_stats().expect("facade errors keep partial stats");
        assert_eq!(partial.task_panics, 1, "{partial:?}");
        assert!(partial.tasks_completed > 0, "{partial:?}");
        // The facade stays usable and the machine stays clean after a failure.
        for c in m.machine().topology().all_cores() {
            assert_eq!(m.machine().duty(c), DutyCycle::FULL);
        }
        let r = m.run("recovers", &mut (), contended_root(300));
        assert!(r.elapsed_s > 0.0 && r.joules > 0.0);
    }

    #[test]
    fn suspend_resume_is_bit_identical_at_facade_level() {
        use maestro_runtime::TaskSpec;
        // The full adaptive stack: RCR daemon, blackboard, controller,
        // watchdog, throttled scheduler — suspended mid-run, serialized to
        // bytes, resumed on a freshly built facade.
        let spec = TaskSpec::fork_join(
            (0..600).map(|_| TaskSpec::leaf(Cost::new(13_000_000, 500_000, 8.0, 0.95))).collect(),
            Cost::ZERO,
        );
        let suspend_ns = 150_000_000;

        let mut un = Maestro::new(MaestroConfig::adaptive(16));
        let reference = un
            .run_captured(
                "wl",
                &mut (),
                spec.clone().into_task(),
                &SnapshotPlan::none().with_fence(suspend_ns),
            )
            .unwrap()
            .report()
            .expect("unbroken run completes");

        let mut a = Maestro::new(MaestroConfig::adaptive(16));
        let snap = a
            .run_captured(
                "wl",
                &mut (),
                spec.clone().into_task(),
                &SnapshotPlan::suspend_at(suspend_ns),
            )
            .unwrap()
            .suspended()
            .expect("run suspends at the fence");
        assert_eq!(snap.t_ns(), suspend_ns);
        assert_eq!(snap.name(), "wl");

        // Round-trip the snapshot through its on-disk form.
        let snap = MaestroSnapshot::from_bytes(&snap.to_bytes()).unwrap();

        let mut b = Maestro::new(MaestroConfig::adaptive(16));
        let out = b
            .resume_captured(&mut (), &snap, &SnapshotPlan::none())
            .unwrap()
            .report()
            .expect("resumed run completes");

        assert_eq!(out.elapsed_s.to_bits(), reference.elapsed_s.to_bits(), "elapsed bit-exact");
        assert_eq!(out.joules.to_bits(), reference.joules.to_bits(), "energy bit-exact");
        assert_eq!(out.avg_watts.to_bits(), reference.avg_watts.to_bits());
        assert_eq!(out.stats, reference.stats);
        assert_eq!(out.throttle, reference.throttle, "controller summary identical");
        assert_eq!(out.to_string(), reference.to_string(), "report text identical");
    }

    #[test]
    fn corrupt_snapshot_bytes_are_rejected() {
        let bytes = vec![0u8; 64];
        assert!(MaestroSnapshot::from_bytes(&bytes).is_err());

        // A whole mid-run snapshot: every prefix is rejected, and no
        // single-byte flip panics in decoding or in the resumed run.
        const SUSPEND_NS: u64 = 3_000_000;
        let mut m = Maestro::new(MaestroConfig::adaptive(16));
        let snap = m
            .run_captured("flip", &mut (), contended_root_spec(24).into_task(), &SnapshotPlan::suspend_at(SUSPEND_NS))
            .unwrap()
            .suspended()
            .expect("suspends mid-run");
        assert_rejects_corruption(&snap.to_bytes(), |input| {
            let snap = MaestroSnapshot::from_bytes(input)?;
            let plan = SnapshotPlan::suspend_at(SUSPEND_NS + 1_000_000);
            Maestro::new(MaestroConfig::adaptive(16)).resume_captured(&mut (), &snap, &plan).map(drop)
        });
    }

    #[test]
    fn snapshots_cross_threads() {
        // Fork sweeps hand one snapshot to many worker threads.
        fn send_sync<T: Send + Sync>() {}
        send_sync::<MaestroSnapshot>();
    }

    #[test]
    fn warm_fork_sweeps_policy_variants_from_one_snapshot() {
        use maestro_runtime::TaskSpec;
        // One warm snapshot, restored under different shepherd limits: the
        // limit is a policy knob outside the snapshot, so each fork resumes
        // the same machine/scheduler state and diverges only in its policy.
        let spec = TaskSpec::fork_join(
            (0..900).map(|_| TaskSpec::leaf(Cost::new(13_000_000, 500_000, 8.0, 0.95))).collect(),
            Cost::ZERO,
        );
        let mut base = Maestro::new(MaestroConfig::adaptive(16));
        let snap = base
            .run_captured(
                "sweep",
                &mut (),
                spec.into_task(),
                &SnapshotPlan::suspend_at(120_000_000),
            )
            .unwrap()
            .suspended()
            .expect("base run suspends");

        let mut reports = Vec::new();
        for limit in [2usize, 6, 12] {
            let mut cfg = MaestroConfig::adaptive(16);
            cfg.policy = Policy::Adaptive { limit_per_shepherd: limit };
            let mut m = Maestro::new(cfg);
            let r = m
                .resume_captured(&mut (), &snap, &SnapshotPlan::none())
                .unwrap()
                .report()
                .unwrap_or_else(|| panic!("fork with limit {limit} completes"));
            assert!(r.elapsed_s > 0.0 && r.joules > 0.0);
            assert!(r.throttle.is_some(), "adaptive fork keeps its summary");
            reports.push((limit, r));
        }
        // Contended workload: the tighter limit throttles at least as much
        // worker time as the loosest one.
        let tight = reports[0].1.stats.throttled_worker_ns;
        let loose = reports[2].1.stats.throttled_worker_ns;
        assert!(tight >= loose, "tight {tight} vs loose {loose}");
    }

    #[test]
    fn service_run_completes_under_the_slo_governor() {
        use maestro_service::{ServiceConfig, ServiceStack, ServiceSummary};

        let cfg = ServiceConfig::simple(5, 40_000.0, 2_000, 2_000_000);
        let stack = ServiceStack::new(&cfg, Some(1_500_000));
        let mut m = Maestro::new(MaestroConfig::fixed(16));
        let governor = stack.governor.expect("an SLO yields a governor");
        m.runtime_mut().add_monitor(Box::new(governor));
        let r =
            m.try_run_service("svc", &mut (), stack.source).expect("healthy service run finishes");
        assert!(r.elapsed_s > 0.0 && r.joules > 0.0);

        let summary = ServiceSummary::collect(&stack.handle, r.elapsed_s);
        let c = &summary.counters;
        assert_eq!(c.arrived, 2_000, "{c:?}");
        assert_eq!(c.conservation_gap(), 0, "{c:?}");
        assert_eq!(c.in_flight, 0, "{c:?}");
        assert_eq!(c.pending_retry, 0, "{c:?}");
        assert!(c.completed > 0, "{c:?}");
        // The run stats carry the service ledger for the report layer.
        assert_eq!(r.stats.requests_shed, c.shed);
        assert_eq!(r.stats.retries_spent, c.retries_spent);
    }

    #[test]
    fn try_run_enforces_a_configured_deadline() {
        use maestro_runtime::{RunLimit, RuntimeError};

        let mut cfg = MaestroConfig::adaptive(16);
        cfg.runtime.deadline_ns = Some(100_000_000);
        let mut m = Maestro::try_new(cfg).expect("valid config");
        let err = m
            .try_run("wedged", &mut (), contended_root(100_000))
            .expect_err("100 k contended tasks cannot finish in 100 ms");
        match err {
            RuntimeError::DeadlineExceeded { limit: RunLimit::WallClock { deadline_ns }, .. } => {
                assert_eq!(deadline_ns, 100_000_000);
            }
            other => panic!("expected a wall-clock DeadlineExceeded, got {other:?}"),
        }
        assert!(m.machine().now_ns() <= 100_000_000, "clock stops at the deadline");
    }
}
