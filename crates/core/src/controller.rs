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
//! the embedded [`RcrDaemon`](maestro_rcr::RcrDaemon) samples the hardware
//! counters and publishes to the blackboard, then the controller reads the
//! blackboard back and applies the classification rule. Keeping the
//! blackboard in the middle preserves the paper's architecture (and lets
//! tests and tools watch the same region the controller sees).
//!
//! The sensing is the same whatever the response: the [`Policy`] picks only
//! which knob a trusted decision turns — the duty-cycle throttle flag (the
//! paper's mechanism), a package-global P-state step (the DVFS alternative
//! §IV argues against), or the shepherd concurrency limit under a node power
//! cap (the §V outlook; Rountree et al., HP-PAC 2012).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use maestro_machine::snap::{Codec, SnapError, SnapReader, SnapWriter};
use maestro_machine::{FaultPlan, Machine, PState, SocketId};
use maestro_rcr::{Level, MeterThresholds, Supervisor, SupervisorConfig, ThrottleSignals};
use maestro_runtime::{Monitor, ThrottleState};

use crate::facade::Policy;

fn level_codec<C: Codec>(c: &mut C, level: Level) -> Result<Level, SnapError> {
    match c.u8(level as u8)? {
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
/// act on those numbers can starve a healthy workload. Safe mode returns the
/// policy's knob to full performance (full duty cycle, nominal frequency,
/// or the full shepherd limit) until the measurement pipeline proves itself
/// again.
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

/// Everything [`ThrottleController::with_policy`] can customize.
#[derive(Clone, Debug, Default)]
pub struct ControllerConfig {
    /// Safe-mode entry/exit thresholds.
    pub safe_mode: SafeModeConfig,
    /// Scripted faults for the embedded daemon (tests and experiments).
    pub faults: Option<FaultPlan>,
    /// Restart policy for the supervised daemon.
    pub supervisor: SupervisorConfig,
}

/// The setting one decision left its policy's knob at.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Actuation {
    /// [`Policy::Adaptive`]: the duty-cycle throttle flag.
    Duty(bool),
    /// [`Policy::Dvfs`]: the P-state of every package.
    PState(PState),
    /// [`Policy::PowerCap`]: the active-worker limit per shepherd, at most
    /// the cores per socket (a `u16` in the topology), which keeps the
    /// decision record at 32 bytes.
    Limit(u16),
}

impl Default for Actuation {
    fn default() -> Self {
        Actuation::Duty(false)
    }
}

impl Actuation {
    /// True when the duty-cycle throttle flag is set.
    pub fn throttled(self) -> bool {
        self == Actuation::Duty(true)
    }

    /// Program the knob. DVFS is package-global (§IV: it "could only slow
    /// all cores or none"), so a P-state goes to every socket; a shepherd
    /// limit throttles while it is below the cores per socket.
    fn apply(self, machine: &mut Machine, throttle: &mut ThrottleState) {
        match self {
            Actuation::Duty(on) => throttle.active = on,
            Actuation::PState(p) => {
                for s in machine.topology().all_sockets() {
                    machine.set_pstate(s, p);
                }
            }
            Actuation::Limit(limit) => {
                throttle.limit_per_shepherd = usize::from(limit);
                throttle.active = limit < machine.topology().cores_per_socket;
            }
        }
    }
}

/// One controller decision, recorded for analysis.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct ControllerSample {
    /// Virtual time of the decision, nanoseconds.
    pub t_ns: u64,
    /// The power reading the policy's rule compares, Watts: the hottest
    /// socket's smoothed power for the adaptive and DVFS rules, the node
    /// total for the power cap.
    pub power_w: f64,
    /// Highest per-socket memory concurrency observed, outstanding refs.
    pub mem_concurrency: f64,
    /// Power classification (hottest socket).
    pub power_level: Level,
    /// Memory classification.
    pub memory_level: Level,
    /// The knob's setting after the decision.
    pub actuation: Actuation,
    /// True when this decision was forced by safe mode rather than the
    /// policy's rule.
    pub safe_mode: bool,
}

/// The full decision history of one controller.
#[derive(Clone, Debug, Default)]
pub struct ControllerTrace {
    /// Decisions in time order.
    pub samples: Vec<ControllerSample>,
}

impl ControllerTrace {
    /// Fraction of `samples` with the duty-cycle throttle flag set.
    pub fn throttled_fraction(samples: &[ControllerSample]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        samples.iter().filter(|s| s.actuation.throttled()).count() as f64 / samples.len() as f64
    }

    /// Off→on transitions of the duty-cycle throttle flag across `samples`.
    pub fn activations(samples: &[ControllerSample]) -> usize {
        let on = |s: &ControllerSample| s.actuation.throttled();
        samples.windows(2).filter(|w| !on(&w[0]) && on(&w[1])).count()
            + usize::from(samples.first().is_some_and(on))
    }

    /// Knob changes between consecutive decisions — for a DVFS trace, the
    /// P-state transitions performed.
    pub fn transitions(&self) -> usize {
        self.samples.windows(2).filter(|w| w[0].actuation != w[1].actuation).count()
    }

    /// Fraction of a power-cap trace's decisions (after the first two
    /// warm-up samples) whose node power respected `cap_w`, within 2 %.
    pub fn compliance(&self, cap_w: f64) -> f64 {
        let decided = &self.samples[self.samples.len().min(2)..];
        if decided.is_empty() {
            return 1.0;
        }
        decided.iter().filter(|s| s.power_w <= cap_w * 1.02).count() as f64 / decided.len() as f64
    }
}

/// Shared handle to a controller's trace (usable after the run finishes).
pub type TraceHandle = Rc<RefCell<ControllerTrace>>;

/// The controller state worth carrying across a daemon restart: the last
/// trusted classification and the actuation it left (for the adaptive rule
/// the flag *is* the hysteresis band position — `ThrottleSignals::apply`
/// folds it forward).
///
/// Restoring it on an epoch change keeps recovery from re-deciding off
/// post-restart warm-up artifacts (an empty power window classifies as
/// zero Watts, i.e. Low) and re-triggering a spurious transition.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct ControllerCheckpoint {
    /// The knob's setting after the last trusted decision.
    pub actuation: Actuation,
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

/// The node controller: a supervised RCR daemon plus the classification
/// rule of its [`Policy`], wrapped in a safe-mode monitor that fails open
/// when the measurement pipeline degrades. Clones share the trace,
/// heartbeat, control-plane and blackboard handles.
#[derive(Clone)]
pub struct ThrottleController {
    policy: Policy,
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
    /// Build the adaptive controller for `machine` with the paper's
    /// thresholds (power 75 W / 50 W per socket; memory 75 % / 25 % of the
    /// effective maximum outstanding references). Returns the controller and
    /// a handle to its decision trace.
    pub fn new(machine: &Machine) -> (Self, TraceHandle) {
        Self::with_config(machine, ControllerConfig::default())
    }

    /// The adaptive controller with custom safe mode, fault injection, and
    /// restart policy. The shepherd limit it throttles to is the runtime's
    /// to set.
    pub fn with_config(machine: &Machine, cfg: ControllerConfig) -> (Self, TraceHandle) {
        Self::with_policy(machine, Policy::Adaptive { limit_per_shepherd: 6 }, cfg)
    }

    /// Build the controller for `policy` with the paper's thresholds. Panics
    /// on [`Policy::Fixed`], which has no controller.
    pub fn with_policy(
        machine: &Machine,
        policy: Policy,
        cfg: ControllerConfig,
    ) -> (Self, TraceHandle) {
        assert!(policy != Policy::Fixed, "the fixed policy has no controller");
        if let Policy::PowerCap { watts } = policy {
            assert!(watts > 0.0, "cap must be positive");
        }
        let memory_max = machine.config().memory.max_outstanding_refs;
        let mut supervisor = Supervisor::new(machine, cfg.supervisor);
        if let Some(plan) = cfg.faults {
            supervisor = supervisor.with_faults(plan);
        }
        let controller = ThrottleController {
            policy,
            supervisor,
            power_thresholds: MeterThresholds::paper_power_w(),
            memory_thresholds: MeterThresholds::paper_memory(memory_max),
            safe_cfg: cfg.safe_mode,
            safe_mode: false,
            degraded_streak: 0,
            healthy_streak: 0,
            last_epoch: 0,
            checkpoint: None,
            cp_stats: Rc::default(),
            heartbeat: Rc::default(),
            trace: Rc::default(),
        };
        let trace = Rc::clone(&controller.trace);
        (controller, trace)
    }

    /// The blackboard the supervised RCR daemon publishes into.
    pub fn blackboard(&self) -> &maestro_rcr::Blackboard {
        self.supervisor.blackboard()
    }

    /// Health tallies aggregated across every daemon incarnation.
    pub fn daemon_health(&self) -> maestro_rcr::DaemonHealth {
        self.supervisor.health()
    }

    /// True while the controller is failing safe (its knob held at full
    /// performance because its measurements cannot be trusted).
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

    /// This period's actuation and the power reading its rule compares.
    /// Each policy names its knob's current setting, its fail-open setting
    /// (full performance) and its rule's step. Safe mode fails open, a
    /// `trusted` view takes the step, and any other view holds.
    fn respond(
        &self,
        machine: &Machine,
        throttle: &ThrottleState,
        signals: ThrottleSignals,
        hottest_w: f64,
        trusted: bool,
    ) -> (f64, Actuation) {
        let (power_w, [current, fail_open, step]) = match self.policy {
            // The paper's flag: both High sets it, both Low clears it.
            Policy::Adaptive { .. } => {
                let on = throttle.active;
                (hottest_w, [on, false, signals.apply(on)].map(Actuation::Duty))
            }
            // The same rule as one package-global P-state step, never below
            // the floor.
            Policy::Dvfs { floor } => {
                let p = machine.pstate(SocketId(0));
                let step = match (signals.power, signals.memory) {
                    (Level::High, Level::High) if p.lower().index() >= floor.index() => p.lower(),
                    (Level::Low, Level::Low) => p.higher(),
                    _ => p,
                };
                (hottest_w, [p, PState::MAX, step].map(Actuation::PState))
            }
            // Node power over the cap: one active worker fewer per shepherd;
            // comfortably under it (≤ 92 %): one more, up to the full limit.
            Policy::PowerCap { watts } => {
                let node_w = self.supervisor.blackboard().node_power_w();
                let full = machine.topology().cores_per_socket;
                // No limit above the cores per socket throttles anything.
                let l = throttle.limit_per_shepherd.min(usize::from(full)) as u16;
                let step = if node_w > watts {
                    l.saturating_sub(1).max(1)
                } else if node_w <= watts * 0.92 && l < full {
                    l + 1
                } else {
                    l
                };
                (node_w, [l, full, step].map(Actuation::Limit))
            }
            Policy::Fixed => unreachable!("the fixed policy has no controller"),
        };
        let next = if self.safe_mode {
            fail_open
        } else if trusted {
            step
        } else {
            current
        };
        (power_w, next)
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
                    cp.actuation.apply(machine, throttle);
                }
                let mut s = self.cp_stats.get();
                s.checkpoint_restores += 1;
                self.cp_stats.set(s);
            }
        }
        let snaps = self.supervisor.blackboard().snapshot_all();
        // Per-socket thresholds: the hottest socket drives the decision.
        let hottest_w = snaps.iter().map(|s| s.power_w).fold(0.0, f64::max);
        let mem = snaps.iter().map(|s| s.mem_concurrency).fold(0.0, f64::max);
        let signals = ThrottleSignals {
            power: self.power_thresholds.classify(hottest_w),
            memory: self.memory_thresholds.classify(mem),
        };
        // Only trust the classification when this period's view is fresh,
        // healthy, and finite. A NaN power (NO_POWER warm-up after a
        // restart) folds to 0 W above — Low — and deciding on it could
        // spuriously release a legitimately throttled workload. The smoothed
        // power meter needs two readings before it is valid, so warm-up
        // holds too instead of reacting to a zero-Watt artifact.
        let meters_valid = !degraded && snaps.iter().all(|s| s.power_w.is_finite());
        let trusted = meters_valid && self.supervisor.samples_taken() >= 2;
        let (power_w, actuation) = self.respond(machine, throttle, signals, hottest_w, trusted);
        actuation.apply(machine, throttle);
        if meters_valid {
            self.checkpoint = Some(ControllerCheckpoint {
                actuation,
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
            actuation,
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
        if let Some(restored) = self.codec(r)? {
            *self = restored;
        }
        Ok(())
    }

    /// The shepherd limit is configuration outside the snapshot; under a
    /// power cap it is this controller's output, so re-impose the limit the
    /// last decision left.
    fn restore_throttle(&self, throttle: &mut ThrottleState) {
        let last = self.trace.borrow().samples.last().map(|s| s.actuation);
        if let Some(Actuation::Limit(limit)) = last {
            throttle.limit_per_shepherd = usize::from(limit);
        }
    }
}

impl ThrottleController {
    /// The snapshot codec (see [`Codec`]): the supervised pipeline, safe-mode
    /// state, the last checkpoint, control-plane stats, heartbeat, and the
    /// decision trace. The reader decodes into a copy of the controller
    /// (`None` on the writer) that shares its handles, and writes the
    /// restored values through them once everything has decoded, so outside
    /// holders (the facade's report hooks, watchdogs) observe them.
    fn codec<C: Codec>(&self, c: &mut C) -> Result<Option<Self>, SnapError> {
        let supervisor = self.supervisor.codec(c)?;
        let safe_mode = c.bool(self.safe_mode)?;
        let degraded_streak = c.u32(self.degraded_streak)?;
        let healthy_streak = c.u32(self.healthy_streak)?;
        let last_epoch = c.u64(self.last_epoch)?;
        let checkpoint = c.opt(self.checkpoint.as_ref(), |c, cp| {
            Ok(ControllerCheckpoint {
                actuation: self.actuation_codec(c, cp.actuation)?,
                power_level: level_codec(c, cp.power_level)?,
                memory_level: level_codec(c, cp.memory_level)?,
            })
        })?;
        let cp_stats = self.cp_stats.get().codec(c)?;
        let heartbeat = c.u64(self.heartbeat.get())?;
        let samples = c.seq(&self.trace.borrow().samples, |c, s| {
            Ok(ControllerSample {
                t_ns: c.u64(s.t_ns)?,
                power_w: c.f64(s.power_w)?,
                mem_concurrency: c.f64(s.mem_concurrency)?,
                power_level: level_codec(c, s.power_level)?,
                memory_level: level_codec(c, s.memory_level)?,
                actuation: self.actuation_codec(c, s.actuation)?,
                safe_mode: c.bool(s.safe_mode)?,
            })
        })?;
        Ok(C::DECODING.then(|| {
            self.cp_stats.set(cp_stats);
            self.heartbeat.set(heartbeat);
            self.trace.borrow_mut().samples = samples;
            let mut restored = ThrottleController {
                safe_mode,
                degraded_streak,
                healthy_streak,
                last_epoch,
                checkpoint,
                ..self.clone()
            };
            restored.supervisor.install(supervisor);
            restored
        }))
    }

    /// One actuation in the format the policy chooses (the policy is
    /// configuration, not snapshot state): the adaptive flag as a boolean, a
    /// P-state as its ladder index, a shepherd limit as a count of at least
    /// one.
    fn actuation_codec<C: Codec>(&self, c: &mut C, a: Actuation) -> Result<Actuation, SnapError> {
        match self.policy {
            Policy::Adaptive { .. } => Ok(Actuation::Duty(c.bool(a.throttled())?)),
            Policy::Dvfs { .. } => {
                let index = if let Actuation::PState(p) = a { p.index() as u8 } else { 0 };
                PState::new(c.u8(index)?)
                    .map(Actuation::PState)
                    .ok_or(SnapError::Corrupt("P-state index off the ladder"))
            }
            Policy::PowerCap { .. } => {
                let limit = if let Actuation::Limit(l) = a { l } else { 0 };
                match c.u16(limit)? {
                    0 => Err(SnapError::Corrupt("power-cap limit must allow a worker")),
                    l => Ok(Actuation::Limit(l)),
                }
            }
            Policy::Fixed => unreachable!("the fixed policy has no controller"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_machine::snap::assert_rejects_corruption;
    use maestro_machine::{CoreActivity, MachineConfig, NS_PER_SEC};

    const DVFS: Policy = Policy::Dvfs { floor: PState::MIN };

    fn hot_machine() -> Machine {
        let mut m = Machine::new(MachineConfig::sandybridge_2x8());
        for c in m.topology().all_cores() {
            m.set_activity(c, CoreActivity::Busy { intensity: 0.95, ocr: 4.0 });
        }
        m
    }

    fn controller(m: &Machine, policy: Policy) -> (ThrottleController, TraceHandle) {
        ThrottleController::with_policy(m, policy, ControllerConfig::default())
    }

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
        assert!(ControllerTrace::throttled_fraction(&trace.borrow().samples) > 0.5);
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
        assert_eq!(ControllerTrace::activations(&t.samples), 1, "no flapping across the restart");
        let first_on = t.samples.iter().position(|x| x.actuation.throttled()).unwrap();
        assert!(
            t.samples[first_on..].iter().all(|x| x.actuation.throttled()),
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
        assert_eq!(ControllerTrace::activations(&t.samples), 1, "exactly one off->on transition");
        let first = t.samples.first().unwrap();
        assert_eq!(first.power_level, Level::Low);
        let last = t.samples.last().unwrap();
        assert_eq!(last.power_level, Level::High);
        assert_eq!(last.memory_level, Level::High);
        assert!(last.actuation.throttled());
    }

    /// Capture a controller mid-drive through its monitor hooks, restore
    /// into a fresh one, and require both to continue identically; every
    /// truncation or byte flip of the capture must decode without panicking.
    fn round_trip(policy: Policy) {
        let mut m = hot_machine();
        let (mut a, trace_a) = controller(&m, policy);
        let mut throttle = ThrottleState::new(8);
        fire_over(&mut m, &mut a, &mut throttle, 1.0);
        let mut w = SnapWriter::new();
        a.snap_state(&mut w);
        let bytes = w.finish();
        let (mut b, trace_b) = controller(&m, policy);
        let mut r = SnapReader::new(&bytes);
        b.restore_state(&m, &mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(format!("{:?}", trace_b.borrow()), format!("{:?}", trace_a.borrow()));
        let mut throttle_b = ThrottleState::new(8);
        throttle_b.active = throttle.active;
        b.restore_throttle(&mut throttle_b);
        assert_eq!(throttle_b.limit_per_shepherd, throttle.limit_per_shepherd);
        let mut m2 = m.clone();
        fire_over(&mut m, &mut a, &mut throttle, 1.0);
        fire_over(&mut m2, &mut b, &mut throttle_b, 1.0);
        assert_eq!(format!("{:?}", trace_b.borrow()), format!("{:?}", trace_a.borrow()));
        assert_rejects_corruption(&bytes, |input| {
            let mut r = SnapReader::new(input);
            controller(&m, policy).0.restore_state(&m, &mut r)?;
            r.finish()
        });
    }

    #[test]
    fn decision_record_stays_32_bytes() {
        // Every decision of a run is kept. Growing the record to 48 bytes
        // (a `usize` limit) doubled the page faults of the snapshot-fork
        // benchmark and cost 17 % of its wall time on a 2-vCPU x86-64 VM.
        assert_eq!(std::mem::size_of::<ControllerSample>(), 32);
    }

    #[test]
    fn controllers_snapshot_round_trip_and_reject_corruption() {
        round_trip(Policy::Dvfs { floor: PState::floor_of(1.8) });
        round_trip(Policy::PowerCap { watts: 120.0 });
    }

    #[test]
    fn dvfs_steps_down_under_load_and_respects_floor() {
        let mut m = hot_machine();
        let floor = PState::floor_of(1.8);
        let (mut ctrl, trace) = controller(&m, Policy::Dvfs { floor });
        let mut throttle = ThrottleState::new(8);
        fire_over(&mut m, &mut ctrl, &mut throttle, 3.0);
        let p = m.pstate(SocketId(0));
        assert!(p.index() >= floor.index(), "floor respected: {p}");
        assert!(p.index() < PState::MAX.index(), "must have scaled down: {p}");
        assert!(trace.borrow().transitions() >= 1);
        // Both sockets move together.
        assert_eq!(m.pstate(SocketId(0)), m.pstate(SocketId(1)));
    }

    #[test]
    fn dvfs_scales_back_up_when_idle() {
        let mut m = hot_machine();
        let (mut ctrl, _t) = controller(&m, DVFS);
        let mut throttle = ThrottleState::new(8);
        fire_over(&mut m, &mut ctrl, &mut throttle, 3.0);
        assert!(m.pstate(SocketId(0)).index() < PState::MAX.index());
        for c in m.topology().all_cores() {
            m.set_activity(c, CoreActivity::Idle);
        }
        fire_over(&mut m, &mut ctrl, &mut throttle, 3.0);
        assert_eq!(m.pstate(SocketId(0)), PState::MAX, "idle => back to nominal");
    }

    #[test]
    fn dvfs_lowers_power() {
        let mut m = hot_machine();
        let before = m.node_power_w();
        for s in m.topology().all_sockets() {
            m.set_pstate(s, PState::MIN);
        }
        let after = m.node_power_w();
        assert!(
            after < before * 0.75,
            "P-state floor must cut dynamic power hard: {before} -> {after}"
        );
    }

    #[test]
    fn power_cap_tightens_limit_until_compliant() {
        let mut m = hot_machine(); // draws ~150 W
        let (mut ctrl, trace) = controller(&m, Policy::PowerCap { watts: 120.0 });
        let mut throttle = ThrottleState::new(8);
        fire_over(&mut m, &mut ctrl, &mut throttle, 2.0);
        assert!(throttle.active);
        assert!(throttle.limit_per_shepherd < 8, "limit must tighten: {throttle:?}");
        assert!(!trace.borrow().samples.is_empty());
        // Note: with a fixed synthetic load the machine's power does not
        // actually drop (no scheduler in the loop) — the controller must
        // keep tightening to its floor.
        fire_over(&mut m, &mut ctrl, &mut throttle, 5.0);
        assert_eq!(throttle.limit_per_shepherd, 1);
    }

    #[test]
    fn power_cap_relaxes_when_cool() {
        let mut m = Machine::new(MachineConfig::sandybridge_2x8()); // idle ~55 W
        let (mut ctrl, _t) = controller(&m, Policy::PowerCap { watts: 120.0 });
        let mut throttle = ThrottleState::new(3);
        throttle.active = true;
        fire_over(&mut m, &mut ctrl, &mut throttle, 2.0);
        assert!(!throttle.active, "well under the cap: limit fully relaxed");
        assert_eq!(throttle.limit_per_shepherd, 8);
    }

    /// Drive a hot node whose daemon blacks out from t=2 s to t=4 s under
    /// `policy`; `check` sees the controller and knobs once before, once
    /// during, and once after the stall.
    fn across_stall(
        policy: Policy,
        check: impl Fn(&str, &ThrottleController, &Machine, &ThrottleState),
    ) {
        let mut m = hot_machine();
        let plan = FaultPlan::new(35).with_stall(2 * NS_PER_SEC, 4 * NS_PER_SEC);
        let (mut ctrl, trace) = ThrottleController::with_policy(
            &m,
            policy,
            ControllerConfig { faults: Some(plan), ..Default::default() },
        );
        let mut throttle = ThrottleState::new(8);
        for (phase, seconds) in [("before", 2.0), ("during", 1.0), ("after", 3.0)] {
            fire_over(&mut m, &mut ctrl, &mut throttle, seconds);
            check(phase, &ctrl, &m, &throttle);
        }
        let t = trace.borrow();
        assert!(t.samples.iter().any(|s| s.safe_mode), "the trace records the safe-mode era");
        assert!(!t.samples.last().unwrap().safe_mode, "…and its end");
    }

    #[test]
    fn dvfs_stall_fails_open_to_nominal_frequency_and_resumes() {
        across_stall(DVFS, |phase, ctrl, m, _| {
            let sockets = [m.pstate(SocketId(0)), m.pstate(SocketId(1))];
            match phase {
                "during" => {
                    assert!(ctrl.in_safe_mode(), "a stale view trips safe mode");
                    assert_eq!(sockets, [PState::MAX; 2], "both sockets back at nominal");
                }
                _ => {
                    assert!(!ctrl.in_safe_mode(), "{phase}: fresh samples, no safe mode");
                    assert!(sockets[0].index() < PState::MAX.index(), "{phase}: scaled down");
                    assert_eq!(sockets[0], sockets[1], "{phase}: package-global");
                }
            }
        });
    }

    #[test]
    fn power_cap_stall_fails_open_to_full_limit_and_resumes() {
        across_stall(Policy::PowerCap { watts: 120.0 }, |phase, ctrl, _, throttle| match phase {
            "during" => {
                assert!(ctrl.in_safe_mode(), "a stale view trips safe mode");
                assert_eq!(throttle.limit_per_shepherd, 8, "full limit restored");
                assert!(!throttle.active, "the cap releases the shepherds");
            }
            _ => {
                assert!(!ctrl.in_safe_mode(), "{phase}: fresh samples, no safe mode");
                assert!(throttle.active && throttle.limit_per_shepherd < 8, "{phase}: capped");
            }
        });
    }
}
