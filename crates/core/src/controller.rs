//! The user-level throttling daemon (§IV / §IV-A of the paper).
//!
//! "Automatic throttling for Qthreads is implemented using two daemons: the
//! system RCRdaemon … and, inside the Qthreads runtime, a user-level daemon
//! that reads the shared memory region updated by RCRdaemon. The latter
//! daemon activates every 0.1 seconds and uses very little CPU time. …
//! It measures two metrics: current power utilization and memory bandwidth.
//! The observed values are classified as High, Medium, or Low. When both
//! conditions are High, a flag is set to activate throttling at the next
//! opportunity. If both conditions are Low, throttling is disabled."
//!
//! In the virtual-time engine both daemons fire from the same monitor hook:
//! the embedded [`RcrDaemon`] samples the hardware counters and publishes to
//! the blackboard, then the controller reads the blackboard back and applies
//! the classification rule. Keeping the blackboard in the middle preserves
//! the paper's architecture (and lets tests and tools watch the same region
//! the controller sees).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use maestro_machine::snap::{Codec, SnapError, SnapReader, SnapWriter};
use maestro_machine::{FaultPlan, Machine};
use maestro_rcr::{
    Level, MeterThresholds, Supervisor, SupervisorConfig, SupervisorState, ThrottleSignals,
};
use maestro_runtime::{Monitor, ThrottleState};

fn level_codec<C: Codec>(c: &mut C, level: Level) -> Result<Level, SnapError> {
    let tag = match level {
        Level::Low => 0,
        Level::Medium => 1,
        Level::High => 2,
    };
    match c.u8(tag)? {
        0 => Ok(Level::Low),
        1 => Ok(Level::Medium),
        2 => Ok(Level::High),
        _ => Err(SnapError::Corrupt("unknown meter level tag")),
    }
}

/// When the controller gives up on its measurements and fails safe.
///
/// The controller's view of the node comes entirely from the blackboard; if
/// the daemon behind it stalls or its meters go untrustworthy, continuing to
/// throttle on those numbers can starve a healthy workload. Safe mode
/// deactivates throttling (restoring the full duty cycle) until the
/// measurement pipeline proves itself again.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SafeModeConfig {
    /// Enter safe mode after this many consecutive controller periods with a
    /// stale or unhealthy blackboard view.
    pub degraded_after_periods: u32,
    /// Leave safe mode after this many consecutive fresh, healthy periods.
    pub recover_after_periods: u32,
}

impl Default for SafeModeConfig {
    /// Enter after 5 bad periods (0.5 s at the paper's cadence — long enough
    /// to ride out a retried sample or two), recover after 2 good ones.
    fn default() -> Self {
        SafeModeConfig { degraded_after_periods: 5, recover_after_periods: 2 }
    }
}

/// Everything [`ThrottleController::with_config`] can customize.
#[derive(Clone, Debug, Default)]
pub struct ControllerConfig {
    /// Safe-mode entry/exit thresholds.
    pub safe_mode: SafeModeConfig,
    /// Scripted faults for the embedded daemon (tests and experiments).
    pub faults: Option<FaultPlan>,
    /// Restart policy for the supervised daemon.
    pub supervisor: SupervisorConfig,
}

/// One controller decision, recorded for analysis.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct ControllerSample {
    /// Virtual time of the decision, nanoseconds.
    pub t_ns: u64,
    /// Highest per-socket smoothed power observed, Watts.
    pub power_w: f64,
    /// Highest per-socket memory concurrency observed, outstanding refs.
    pub mem_concurrency: f64,
    /// Power classification.
    pub power_level: Level,
    /// Memory classification.
    pub memory_level: Level,
    /// The throttle flag after applying the rule.
    pub throttled: bool,
    /// True when this decision was forced by safe mode rather than the
    /// classification rule.
    pub safe_mode: bool,
}

/// The full decision history of one controller.
#[derive(Clone, Debug, Default)]
pub struct ControllerTrace {
    /// Decisions in time order.
    pub samples: Vec<ControllerSample>,
}

impl ControllerTrace {
    /// Fraction of samples with the throttle flag set.
    pub fn throttled_fraction(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().filter(|s| s.throttled).count() as f64 / self.samples.len() as f64
    }

    /// Number of off→on transitions.
    pub fn activations(&self) -> usize {
        self.samples.windows(2).filter(|w| !w[0].throttled && w[1].throttled).count()
            + usize::from(self.samples.first().is_some_and(|s| s.throttled))
    }
}

/// Shared handle to a controller's trace (usable after the run finishes).
pub type TraceHandle = Rc<RefCell<ControllerTrace>>;

/// The controller state worth carrying across a daemon restart: the last
/// trusted classification and the throttle flag (which *is* the hysteresis
/// band position — `ThrottleSignals::apply` folds the flag forward).
///
/// Restoring it on an epoch change keeps recovery from re-deciding off
/// post-restart warm-up artifacts (an empty power window classifies as
/// zero Watts, i.e. Low) and re-triggering a spurious transition.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct ControllerCheckpoint {
    /// Throttle flag after the last trusted decision.
    pub throttled: bool,
    /// Power classification of that decision.
    pub power_level: Level,
    /// Memory classification of that decision.
    pub memory_level: Level,
}

/// Control-plane robustness tallies, updated on every controller period and
/// readable after the run through the shared handle
/// ([`ThrottleController::control_plane`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ControlPlaneStats {
    /// Daemon deaths the supervisor observed (scripted + wedge).
    pub daemon_kills: u64,
    /// Daemon restarts the supervisor performed.
    pub daemon_restarts: u64,
    /// Deaths attributed to wedge detection.
    pub wedge_kills: u64,
    /// True once the supervisor exhausted its restart budget.
    pub daemon_gave_up: bool,
    /// Blackboard epoch (restart generation) at the last period.
    pub blackboard_epoch: u64,
    /// Times the controller resumed from its checkpoint after an epoch change.
    pub checkpoint_restores: u64,
    /// Controller periods spent in safe mode.
    pub safe_mode_periods: u64,
}

impl ControlPlaneStats {
    /// The snapshot codec (see [`Codec`]): every counter in declaration
    /// order.
    pub fn codec<C: Codec>(&self, c: &mut C) -> Result<Self, SnapError> {
        Ok(ControlPlaneStats {
            daemon_kills: c.u64(self.daemon_kills)?,
            daemon_restarts: c.u64(self.daemon_restarts)?,
            wedge_kills: c.u64(self.wedge_kills)?,
            daemon_gave_up: c.bool(self.daemon_gave_up)?,
            blackboard_epoch: c.u64(self.blackboard_epoch)?,
            checkpoint_restores: c.u64(self.checkpoint_restores)?,
            safe_mode_periods: c.u64(self.safe_mode_periods)?,
        })
    }
}

/// The adaptive controller: a supervised RCR daemon plus the
/// both-High/both-Low rule, wrapped in a safe-mode monitor that fails open
/// when the measurement pipeline degrades.
pub struct ThrottleController {
    supervisor: Supervisor,
    power_thresholds: MeterThresholds,
    memory_thresholds: MeterThresholds,
    safe_cfg: SafeModeConfig,
    safe_mode: bool,
    degraded_streak: u32,
    healthy_streak: u32,
    last_epoch: u64,
    checkpoint: Option<ControllerCheckpoint>,
    cp_stats: Rc<Cell<ControlPlaneStats>>,
    heartbeat: Rc<Cell<u64>>,
    trace: TraceHandle,
}

impl ThrottleController {
    /// Build the controller for `machine` with the paper's thresholds
    /// (power 75 W / 50 W per socket; memory 75 % / 25 % of the effective
    /// maximum outstanding references). Returns the controller and a handle
    /// to its decision trace.
    pub fn new(machine: &Machine) -> (Self, TraceHandle) {
        Self::with_config(machine, ControllerConfig::default())
    }

    /// Build with the paper's thresholds and custom safe mode, fault
    /// injection, and restart policy.
    pub fn with_config(machine: &Machine, cfg: ControllerConfig) -> (Self, TraceHandle) {
        let memory_max = machine.config().memory.max_outstanding_refs;
        let trace: TraceHandle = Rc::new(RefCell::new(ControllerTrace::default()));
        let mut supervisor = Supervisor::new(machine, cfg.supervisor);
        if let Some(plan) = cfg.faults {
            supervisor = supervisor.with_faults(plan);
        }
        (
            ThrottleController {
                supervisor,
                power_thresholds: MeterThresholds::paper_power_w(),
                memory_thresholds: MeterThresholds::paper_memory(memory_max),
                safe_cfg: cfg.safe_mode,
                safe_mode: false,
                degraded_streak: 0,
                healthy_streak: 0,
                last_epoch: 0,
                checkpoint: None,
                cp_stats: Rc::new(Cell::new(ControlPlaneStats::default())),
                heartbeat: Rc::new(Cell::new(0)),
                trace: Rc::clone(&trace),
            },
            trace,
        )
    }

    /// The blackboard the supervised RCR daemon publishes into.
    pub fn blackboard(&self) -> &maestro_rcr::Blackboard {
        self.supervisor.blackboard()
    }

    /// Health tallies aggregated across every daemon incarnation.
    pub fn daemon_health(&self) -> maestro_rcr::DaemonHealth {
        self.supervisor.health()
    }

    /// True while the controller is failing safe (throttling deactivated
    /// because its measurements cannot be trusted).
    pub fn in_safe_mode(&self) -> bool {
        self.safe_mode
    }

    /// A counter bumped every time the supervised daemon publishes fresh
    /// snapshots — a watchdog can watch it to detect a wedged pipeline.
    pub fn heartbeat(&self) -> Rc<Cell<u64>> {
        Rc::clone(&self.heartbeat)
    }

    /// Shared handle to the control-plane tallies, refreshed every period;
    /// the facade reads it after the controller has been consumed by the run.
    pub fn control_plane(&self) -> Rc<Cell<ControlPlaneStats>> {
        Rc::clone(&self.cp_stats)
    }

    /// A blackboard view older than this is considered stale: 1.5 daemon
    /// periods, i.e. one missed publication plus scheduling slack.
    fn staleness_bound_ns(&self) -> u64 {
        self.supervisor.period_ns() + self.supervisor.period_ns() / 2
    }
}

/// The controller's decision epochs are the supervised daemon's sample
/// deadlines: one timer-queue event per period drives measure → classify →
/// actuate, and between events the scheduler never touches the controller.
/// The deadline moves only inside `fire` (via [`Supervisor::sample`]),
/// honoring the `Monitor` due-time contract.
impl Monitor for ThrottleController {
    fn next_due_ns(&self) -> Option<u64> {
        Some(self.supervisor.next_due_ns())
    }

    fn fire(&mut self, machine: &mut Machine, throttle: &mut ThrottleState) {
        let outcome = self.supervisor.sample(machine);
        if outcome.published() {
            self.heartbeat.set(self.heartbeat.get() + 1);
        }
        let now = machine.now_ns();
        let bb = self.supervisor.blackboard();
        let stale = bb.staleness_ns(now) > self.staleness_bound_ns();
        let degraded = !outcome.published() || stale || !bb.is_healthy();
        if degraded {
            self.degraded_streak += 1;
            self.healthy_streak = 0;
        } else {
            self.healthy_streak += 1;
            self.degraded_streak = 0;
        }
        if !self.safe_mode && self.degraded_streak >= self.safe_cfg.degraded_after_periods {
            self.safe_mode = true;
        } else if self.safe_mode && self.healthy_streak >= self.safe_cfg.recover_after_periods {
            self.safe_mode = false;
        }
        // Epoch change means the blackboard's writer is a fresh daemon
        // incarnation: resume from the pre-crash checkpoint rather than
        // reacting to whatever the restart left behind.
        let epoch = bb.epoch();
        if epoch != self.last_epoch {
            self.last_epoch = epoch;
            if let Some(cp) = self.checkpoint {
                if !self.safe_mode {
                    throttle.active = cp.throttled;
                }
                let mut s = self.cp_stats.get();
                s.checkpoint_restores += 1;
                self.cp_stats.set(s);
            }
        }
        let snaps = self.supervisor.blackboard().snapshot_all();
        // Per-socket thresholds: the hottest socket drives the decision.
        let power_w = snaps.iter().map(|s| s.power_w).fold(0.0, f64::max);
        let mem = snaps.iter().map(|s| s.mem_concurrency).fold(0.0, f64::max);
        let signals = ThrottleSignals {
            power: self.power_thresholds.classify(power_w),
            memory: self.memory_thresholds.classify(mem),
        };
        // Only trust the classification when this period's view is fresh,
        // healthy, and finite. A NaN power (NO_POWER warm-up after a
        // restart) folds to 0 W above — Low — and deciding on it could
        // spuriously release a legitimately throttled workload.
        let meters_valid = !degraded && snaps.iter().all(|s| s.power_w.is_finite());
        let new_flag = if self.safe_mode {
            // Fail open: full duty cycle until the meters are trustworthy.
            false
        } else if meters_valid && self.supervisor.samples_taken() >= 2 {
            signals.apply(throttle.active)
        } else {
            // The smoothed power meter needs two readings before it is
            // valid; hold the current state during warm-up (and across
            // degraded periods) instead of reacting to a zero-Watt artifact.
            throttle.active
        };
        throttle.active = new_flag;
        if meters_valid {
            self.checkpoint = Some(ControllerCheckpoint {
                throttled: new_flag,
                power_level: signals.power,
                memory_level: signals.memory,
            });
        }
        let sup_stats = self.supervisor.stats();
        let mut s = self.cp_stats.get();
        s.daemon_kills = sup_stats.kills;
        s.daemon_restarts = sup_stats.restarts;
        s.wedge_kills = sup_stats.wedge_kills;
        s.daemon_gave_up = sup_stats.gave_up;
        s.blackboard_epoch = epoch;
        s.safe_mode_periods += u64::from(self.safe_mode);
        self.cp_stats.set(s);
        self.trace.borrow_mut().samples.push(ControllerSample {
            t_ns: machine.now_ns(),
            power_w,
            mem_concurrency: mem,
            power_level: signals.power,
            memory_level: signals.memory,
            throttled: new_flag,
            safe_mode: self.safe_mode,
        });
    }

    fn snap_state(&self, w: &mut SnapWriter) {
        self.codec(w).expect("live state encodes");
    }

    fn restore_state(
        &mut self,
        _machine: &Machine,
        r: &mut SnapReader<'_>,
    ) -> Result<(), SnapError> {
        let st = self.codec(r)?;
        self.supervisor.install(st.supervisor);
        self.safe_mode = st.safe_mode;
        self.degraded_streak = st.degraded_streak;
        self.healthy_streak = st.healthy_streak;
        self.last_epoch = st.last_epoch;
        self.checkpoint = st.checkpoint;
        // Write-through the shared handles so external holders (the facade's
        // report hooks, watchdogs) observe the restored values.
        self.cp_stats.set(st.cp_stats);
        self.heartbeat.set(st.heartbeat);
        self.trace.borrow_mut().samples = st.samples;
        Ok(())
    }
}

/// Controller state decoded by `ThrottleController::codec`.
struct ControllerState {
    supervisor: SupervisorState,
    safe_mode: bool,
    degraded_streak: u32,
    healthy_streak: u32,
    last_epoch: u64,
    checkpoint: Option<ControllerCheckpoint>,
    cp_stats: ControlPlaneStats,
    heartbeat: u64,
    samples: Vec<ControllerSample>,
}

impl ThrottleController {
    /// The snapshot codec (see [`Codec`]): the supervised pipeline, safe-mode
    /// state, the last checkpoint, control-plane stats, heartbeat, and the
    /// decision trace.
    fn codec<C: Codec>(&self, c: &mut C) -> Result<ControllerState, SnapError> {
        Ok(ControllerState {
            supervisor: self.supervisor.codec(c)?,
            safe_mode: c.bool(self.safe_mode)?,
            degraded_streak: c.u32(self.degraded_streak)?,
            healthy_streak: c.u32(self.healthy_streak)?,
            last_epoch: c.u64(self.last_epoch)?,
            checkpoint: c.opt(self.checkpoint.as_ref(), |c, cp| {
                Ok(ControllerCheckpoint {
                    throttled: c.bool(cp.throttled)?,
                    power_level: level_codec(c, cp.power_level)?,
                    memory_level: level_codec(c, cp.memory_level)?,
                })
            })?,
            cp_stats: self.cp_stats.get().codec(c)?,
            heartbeat: c.u64(self.heartbeat.get())?,
            samples: c.seq(&self.trace.borrow().samples, |c, s| {
                Ok(ControllerSample {
                    t_ns: c.u64(s.t_ns)?,
                    power_w: c.f64(s.power_w)?,
                    mem_concurrency: c.f64(s.mem_concurrency)?,
                    power_level: level_codec(c, s.power_level)?,
                    memory_level: level_codec(c, s.memory_level)?,
                    throttled: c.bool(s.throttled)?,
                    safe_mode: c.bool(s.safe_mode)?,
                })
            })?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_machine::{CoreActivity, MachineConfig, NS_PER_SEC};

    fn fire_over(
        machine: &mut Machine,
        ctrl: &mut ThrottleController,
        throttle: &mut ThrottleState,
        seconds: f64,
    ) {
        let end = machine.now_ns() + (seconds * NS_PER_SEC as f64) as u64;
        while machine.now_ns() < end {
            if ctrl.next_due_ns().unwrap() <= machine.now_ns() {
                ctrl.fire(machine, throttle);
            }
            machine.advance(100_000_000);
        }
    }

    #[test]
    fn high_power_high_memory_throttles() {
        let mut m = Machine::new(MachineConfig::sandybridge_2x8());
        for c in m.topology().all_cores() {
            m.set_activity(c, CoreActivity::Busy { intensity: 0.95, ocr: 4.0 });
        }
        let (mut ctrl, trace) = ThrottleController::new(&m);
        let mut throttle = ThrottleState::new(6);
        fire_over(&mut m, &mut ctrl, &mut throttle, 2.0);
        assert!(throttle.active, "hot+contended must throttle");
        assert!(trace.borrow().throttled_fraction() > 0.5);
    }

    #[test]
    fn idle_machine_unthrottles() {
        let mut m = Machine::new(MachineConfig::sandybridge_2x8());
        let (mut ctrl, _trace) = ThrottleController::new(&m);
        let mut throttle = ThrottleState::new(6);
        throttle.active = true; // pretend it was on
        fire_over(&mut m, &mut ctrl, &mut throttle, 1.0);
        assert!(!throttle.active, "idle machine is both-Low: must unthrottle");
    }

    #[test]
    fn high_power_low_memory_holds_state() {
        // Compute-bound: hot but no memory pressure — the classifier must
        // neither enable nor disable throttling.
        let mut m = Machine::new(MachineConfig::sandybridge_2x8());
        for c in m.topology().all_cores() {
            m.set_activity(c, CoreActivity::Busy { intensity: 1.0, ocr: 0.2 });
        }
        for initial in [false, true] {
            let (mut ctrl, _) = ThrottleController::new(&m);
            let mut throttle = ThrottleState::new(6);
            throttle.active = initial;
            let mut m2 = m.clone();
            fire_over(&mut m2, &mut ctrl, &mut throttle, 1.0);
            assert_eq!(throttle.active, initial, "must hold {initial}");
        }
    }

    #[test]
    fn stalled_daemon_enters_safe_mode_and_recovers() {
        let mut m = Machine::new(MachineConfig::sandybridge_2x8());
        for c in m.topology().all_cores() {
            m.set_activity(c, CoreActivity::Busy { intensity: 0.95, ocr: 4.0 });
        }
        // The daemon blacks out from t=2 s to t=4 s.
        let plan = FaultPlan::new(31).with_stall(2 * NS_PER_SEC, 4 * NS_PER_SEC);
        let (mut ctrl, trace) = ThrottleController::with_config(
            &m,
            ControllerConfig { faults: Some(plan), ..Default::default() },
        );
        let mut throttle = ThrottleState::new(6);
        fire_over(&mut m, &mut ctrl, &mut throttle, 2.0);
        assert!(throttle.active, "hot+contended throttles before the stall");
        assert!(!ctrl.in_safe_mode());
        let beats_before = ctrl.heartbeat().get();

        // Within the stall: safe mode within 5 periods (0.5 s) of the first
        // missed publication, throttle released, full duty restored.
        fire_over(&mut m, &mut ctrl, &mut throttle, 1.0);
        assert!(ctrl.in_safe_mode(), "stale view must trip safe mode");
        assert!(!throttle.active, "safe mode deactivates throttling");
        assert_eq!(throttle.effective_limit(), usize::MAX, "full duty restored");
        assert_eq!(ctrl.heartbeat().get(), beats_before, "no heartbeats while stalled");
        let entered_at = trace
            .borrow()
            .samples
            .iter()
            .find(|s| s.safe_mode)
            .map(|s| s.t_ns)
            .expect("a safe-mode decision was recorded");
        assert!(
            entered_at <= 2 * NS_PER_SEC + 6 * maestro_rcr::DEFAULT_SAMPLE_PERIOD_NS,
            "entered within ~5 periods of the stall: {entered_at}"
        );

        // After the stall clears: recovery, then normal throttling resumes.
        fire_over(&mut m, &mut ctrl, &mut throttle, 3.0);
        assert!(!ctrl.in_safe_mode(), "fresh samples end safe mode");
        assert!(throttle.active, "classification rule re-throttles the hot node");
        assert!(ctrl.heartbeat().get() > beats_before);
        assert!(ctrl.daemon_health().dropped >= 10, "{:?}", ctrl.daemon_health());
    }

    #[test]
    fn transient_fault_storm_does_not_trip_safe_mode() {
        // Retried-but-successful sampling is degraded service, not a reason
        // to abandon throttling.
        let mut m = Machine::new(MachineConfig::sandybridge_2x8());
        for c in m.topology().all_cores() {
            m.set_activity(c, CoreActivity::Busy { intensity: 0.95, ocr: 4.0 });
        }
        let plan = FaultPlan::new(32).with_transient_error_rate(0.3);
        let (mut ctrl, _trace) = ThrottleController::with_config(
            &m,
            ControllerConfig { faults: Some(plan), ..Default::default() },
        );
        let mut throttle = ThrottleState::new(6);
        fire_over(&mut m, &mut ctrl, &mut throttle, 3.0);
        assert!(!ctrl.in_safe_mode());
        assert!(throttle.active, "throttling still engages under a retry storm");
        assert!(ctrl.daemon_health().retried_samples > 0);
    }

    #[test]
    fn daemon_kill_recovers_without_spurious_transition() {
        let mut m = Machine::new(MachineConfig::sandybridge_2x8());
        for c in m.topology().all_cores() {
            m.set_activity(c, CoreActivity::Busy { intensity: 0.95, ocr: 4.0 });
        }
        // The daemon dies at t=1.5 s; the default supervisor restarts it
        // within one backoff (50 ms), well before safe mode's 5 periods.
        let plan = FaultPlan::new(33).with_daemon_kills(&[3 * NS_PER_SEC / 2]);
        let (mut ctrl, trace) = ThrottleController::with_config(
            &m,
            ControllerConfig { faults: Some(plan), ..Default::default() },
        );
        let stats = ctrl.control_plane();
        let mut throttle = ThrottleState::new(6);
        fire_over(&mut m, &mut ctrl, &mut throttle, 4.0);

        let s = stats.get();
        assert_eq!(s.daemon_kills, 1, "{s:?}");
        assert_eq!(s.daemon_restarts, 1, "{s:?}");
        assert_eq!(s.blackboard_epoch, 1, "{s:?}");
        assert!(s.checkpoint_restores >= 1, "{s:?}");
        assert!(throttle.active, "hot+contended stays throttled through the crash");
        let t = trace.borrow();
        assert_eq!(t.activations(), 1, "no flapping across the restart");
        let first_on = t.samples.iter().position(|x| x.throttled).unwrap();
        assert!(
            t.samples[first_on..].iter().all(|x| x.throttled),
            "once on, the flag never spuriously drops across the crash window"
        );
        assert!(!t.samples.iter().any(|x| x.safe_mode), "fast restart beats safe mode");
    }

    #[test]
    fn restart_budget_exhaustion_fails_open_permanently() {
        let mut m = Machine::new(MachineConfig::sandybridge_2x8());
        for c in m.topology().all_cores() {
            m.set_activity(c, CoreActivity::Busy { intensity: 0.95, ocr: 4.0 });
        }
        // A crash-looping daemon: killed every 300 ms, budget of 2 restarts.
        let kills: Vec<u64> = (1..=10).map(|i| NS_PER_SEC + i * 3 * NS_PER_SEC / 10).collect();
        let plan = FaultPlan::new(34).with_daemon_kills(&kills);
        let (mut ctrl, _trace) = ThrottleController::with_config(
            &m,
            ControllerConfig {
                faults: Some(plan),
                supervisor: SupervisorConfig { restart_budget: 2, ..Default::default() },
                ..Default::default()
            },
        );
        let stats = ctrl.control_plane();
        let mut throttle = ThrottleState::new(6);
        fire_over(&mut m, &mut ctrl, &mut throttle, 5.0);

        let s = stats.get();
        assert!(s.daemon_gave_up, "{s:?}");
        assert_eq!(s.daemon_restarts, 2, "budget caps restarts: {s:?}");
        assert!(ctrl.in_safe_mode(), "a permanently dark pipeline is safe mode");
        assert!(!throttle.active, "fails open at full duty");
        assert_eq!(throttle.effective_limit(), usize::MAX);
        assert!(s.safe_mode_periods >= 10, "{s:?}");
    }

    #[test]
    fn trace_records_levels_and_transitions() {
        let mut m = Machine::new(MachineConfig::sandybridge_2x8());
        let (mut ctrl, trace) = ThrottleController::new(&m);
        let mut throttle = ThrottleState::new(6);
        // Phase 1: idle (Low/Low).
        fire_over(&mut m, &mut ctrl, &mut throttle, 0.5);
        // Phase 2: hot and contended (High/High).
        for c in m.topology().all_cores() {
            m.set_activity(c, CoreActivity::Busy { intensity: 0.95, ocr: 4.0 });
        }
        fire_over(&mut m, &mut ctrl, &mut throttle, 1.0);
        let t = trace.borrow();
        assert!(t.samples.len() >= 10);
        assert_eq!(t.activations(), 1, "exactly one off->on transition");
        let first = t.samples.first().unwrap();
        assert_eq!(first.power_level, Level::Low);
        let last = t.samples.last().unwrap();
        assert_eq!(last.power_level, Level::High);
        assert_eq!(last.memory_level, Level::High);
        assert!(last.throttled);
    }
}
