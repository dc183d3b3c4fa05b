//! Monitors: periodic observers that can flip the throttle flag.
//!
//! The paper splits monitoring across two daemons — the system RCRdaemon
//! sampling hardware counters, and a user-level daemon inside the runtime
//! that reads the shared region every 0.1 s and decides whether to throttle.
//! In the virtual-time engine both are [`Monitor`]s: the scheduler fires
//! each monitor whenever the machine clock reaches its next deadline, between
//! scheduling events. The adaptive controller in the `maestro` crate is the
//! canonical implementation.

use std::cell::Cell;
use std::rc::Rc;

use maestro_machine::snap::{Codec, SnapError, SnapReader, SnapWriter};
use maestro_machine::Machine;

use crate::cancel::CancelToken;

/// Shared throttle directives the scheduler consults at every
/// thread-initiation point (task dispatch), per §IV of the paper.
#[derive(Clone, Debug)]
pub struct ThrottleState {
    /// When true, shepherds enforce `limit_per_shepherd`.
    pub active: bool,
    /// Maximum active workers per shepherd while throttled.
    pub limit_per_shepherd: usize,
}

impl ThrottleState {
    /// Throttling off; `limit_per_shepherd` pre-set for when it activates.
    pub fn new(limit_per_shepherd: usize) -> Self {
        assert!(limit_per_shepherd >= 1, "throttle limit must allow at least one worker");
        ThrottleState { active: false, limit_per_shepherd }
    }

    /// The effective limit for dispatch decisions: the configured limit when
    /// throttled, otherwise unbounded.
    pub fn effective_limit(&self) -> usize {
        if self.active {
            self.limit_per_shepherd
        } else {
            usize::MAX
        }
    }
}

/// A periodic observer driven by the virtual clock.
///
/// # Due-time contract (event-driven scheduling)
///
/// The scheduler keeps every monitor's deadline in a timer queue and jumps
/// the virtual clock straight to the earliest one — deadlines are *events*,
/// not conditions polled each iteration. That works only if
/// [`next_due_ns`](Monitor::next_due_ns) is **stable between fires**: it may
/// change only inside [`fire`](Monitor::fire) (its own, or another monitor's
/// in the same pass — deadlines may be coupled through shared cells, as the
/// RCR daemon's heartbeat feeds its watchdog) or inside
/// [`restore_state`](Monitor::restore_state). The scheduler re-reads every
/// deadline after each fire pass and after a restore, and at no other time.
/// A monitor whose due time drifted outside those windows would simply not
/// be observed until the next unrelated event.
pub trait Monitor {
    /// The next virtual time this monitor wants to run, or `None` to stop.
    ///
    /// Must be stable between fire passes — see the trait-level due-time
    /// contract.
    fn next_due_ns(&self) -> Option<u64>;

    /// Run once at (or just after) the due time. May read machine state,
    /// program machine knobs (duty cycles, P-states), and mutate the
    /// throttle directives. Must advance its own deadline.
    fn fire(&mut self, machine: &mut Machine, throttle: &mut ThrottleState);

    /// Snapshot hook: encode this monitor's dynamic state into `w`. There
    /// is no default, so no monitor with state can silently skip it: a
    /// monitor writes its layout once, in a [`Codec`] body, and implements
    /// this hook and [`Monitor::restore_state`] as one-line calls into it,
    /// so the two directions cannot drift apart.
    fn snap_state(&self, w: &mut SnapWriter);

    /// Snapshot hook: decode state written by [`Monitor::snap_state`] and
    /// install it only once it has fully decoded. `machine` is the
    /// already-restored machine, for monitors that must rebuild components
    /// against it.
    fn restore_state(&mut self, machine: &Machine, r: &mut SnapReader<'_>)
        -> Result<(), SnapError>;

    /// Post-restore hook: re-apply any throttle directive this monitor owns
    /// as *policy*. The throttle limit is deliberately not serialized (it is
    /// configuration, and one snapshot may be forked across limit variants),
    /// so a monitor that drives the limit dynamically — e.g. an SLO
    /// governor's duty ladder — must reimpose its restored level here. The
    /// default does nothing.
    fn restore_throttle(&self, throttle: &mut ThrottleState) {
        let _ = throttle;
    }
}

/// A monitor that records the node power trace at a fixed period. Only the
/// runtime's own tests use it: a sampling monitor that rides through the
/// event loop and across snapshot suspend and resume.
#[derive(Clone, Debug)]
pub struct PowerTrace {
    period_ns: u64,
    next_ns: u64,
    samples: Vec<(u64, f64)>,
}

impl PowerTrace {
    /// Sample node power every `period_ns`.
    pub fn new(period_ns: u64) -> Self {
        assert!(period_ns > 0);
        PowerTrace { period_ns, next_ns: 0, samples: Vec::new() }
    }

    /// The recorded `(time_ns, node_watts)` samples.
    pub fn samples(&self) -> &[(u64, f64)] {
        &self.samples
    }
}

impl Monitor for PowerTrace {
    fn next_due_ns(&self) -> Option<u64> {
        Some(self.next_ns)
    }

    fn fire(&mut self, machine: &mut Machine, _throttle: &mut ThrottleState) {
        self.samples.push((machine.now_ns(), machine.node_power_w()));
        self.next_ns = machine.now_ns() + self.period_ns;
    }

    fn snap_state(&self, w: &mut SnapWriter) {
        self.codec(w).expect("live state encodes");
    }

    fn restore_state(
        &mut self,
        _machine: &Machine,
        r: &mut SnapReader<'_>,
    ) -> Result<(), SnapError> {
        *self = self.codec(r)?;
        Ok(())
    }
}

impl PowerTrace {
    /// The snapshot codec (see [`Codec`]): deadline and samples.
    fn codec<C: Codec>(&self, c: &mut C) -> Result<Self, SnapError> {
        Ok(PowerTrace {
            period_ns: self.period_ns,
            next_ns: c.u64(self.next_ns)?,
            samples: c.seq(&self.samples, |c, &(t, p)| Ok((c.u64(t)?, c.f64(p)?)))?,
        })
    }
}

/// A monitor that cancels a [`CancelToken`] at a fixed virtual time — the
/// building block for externally timed cancellation (stop a run after its
/// measurement window, abort a region on an operator signal, tests).
#[derive(Clone, Debug)]
pub struct CancelAt {
    t_ns: u64,
    token: CancelToken,
    fired: bool,
}

impl CancelAt {
    /// Cancel `token` once the virtual clock reaches `t_ns`.
    pub fn new(t_ns: u64, token: CancelToken) -> Self {
        CancelAt { t_ns, token, fired: false }
    }
}

impl Monitor for CancelAt {
    fn next_due_ns(&self) -> Option<u64> {
        if self.fired {
            None
        } else {
            Some(self.t_ns)
        }
    }

    fn fire(&mut self, _machine: &mut Machine, _throttle: &mut ThrottleState) {
        self.token.cancel();
        self.fired = true;
    }

    fn snap_state(&self, w: &mut SnapWriter) {
        // The token's own flag (and the shared generation counter) are
        // restored with the cancellation tree; only the one-shot latch is
        // this monitor's to carry.
        w.bool(self.fired).expect("live state encodes");
    }

    fn restore_state(
        &mut self,
        _machine: &Machine,
        r: &mut SnapReader<'_>,
    ) -> Result<(), SnapError> {
        self.fired = r.bool(self.fired)?;
        Ok(())
    }
}

/// A deadline supervisor over another component's heartbeat counter.
///
/// The supervised component (the sampling daemon, via its controller) bumps
/// a shared counter every time it completes its periodic work; the watchdog
/// fires once per check period and counts a **missed deadline** whenever the
/// counter has not moved since the previous check. The tally is shared
/// (via [`Watchdog::missed_handle`]) so a run report can surface it after
/// the monitor has been consumed by the scheduler.
#[derive(Clone, Debug)]
pub struct Watchdog {
    period_ns: u64,
    next_ns: u64,
    heartbeat: Rc<Cell<u64>>,
    last_beat: u64,
    missed: Rc<Cell<u64>>,
}

impl Watchdog {
    /// Watch `heartbeat`, checking every `period_ns`. The period should be
    /// comfortably longer than the supervised component's own period (2× is
    /// typical) so one late beat is not already a miss. The first check
    /// happens one full period in, not at time zero.
    pub fn new(period_ns: u64, heartbeat: Rc<Cell<u64>>) -> Self {
        assert!(period_ns > 0, "watchdog period must be positive");
        let last_beat = heartbeat.get();
        Watchdog { period_ns, next_ns: period_ns, heartbeat, last_beat, missed: Rc::new(Cell::new(0)) }
    }

    /// Deadlines missed so far.
    pub fn missed(&self) -> u64 {
        self.missed.get()
    }

    /// A shared handle to the missed-deadline tally (stays readable after
    /// the watchdog is handed to the scheduler).
    pub fn missed_handle(&self) -> Rc<Cell<u64>> {
        Rc::clone(&self.missed)
    }
}

impl Monitor for Watchdog {
    fn next_due_ns(&self) -> Option<u64> {
        Some(self.next_ns)
    }

    fn fire(&mut self, machine: &mut Machine, _throttle: &mut ThrottleState) {
        let beat = self.heartbeat.get();
        if beat == self.last_beat {
            self.missed.set(self.missed.get() + 1);
        }
        self.last_beat = beat;
        self.next_ns = machine.now_ns() + self.period_ns;
    }

    fn snap_state(&self, w: &mut SnapWriter) {
        self.codec(w).expect("live state encodes");
    }

    fn restore_state(
        &mut self,
        _machine: &Machine,
        r: &mut SnapReader<'_>,
    ) -> Result<(), SnapError> {
        let (next_ns, last_beat, missed) = self.codec(r)?;
        self.next_ns = next_ns;
        self.last_beat = last_beat;
        // Writes through the shared handle so external holders (run
        // reports) see the restored tally.
        self.missed.set(missed);
        Ok(())
    }
}

impl Watchdog {
    /// The snapshot codec (see [`Codec`]): deadline, last seen beat, missed
    /// tally. The heartbeat belongs to the supervised component, which
    /// snapshots and restores it.
    fn codec<C: Codec>(&self, c: &mut C) -> Result<(u64, u64, u64), SnapError> {
        Ok((c.u64(self.next_ns)?, c.u64(self.last_beat)?, c.u64(self.missed.get())?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_limit_depends_on_flag() {
        let mut t = ThrottleState::new(6);
        assert_eq!(t.effective_limit(), usize::MAX);
        t.active = true;
        assert_eq!(t.effective_limit(), 6);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_limit_rejected() {
        ThrottleState::new(0);
    }

    #[test]
    fn watchdog_counts_only_silent_periods() {
        use maestro_machine::MachineConfig;
        let mut machine = Machine::new(MachineConfig::sandybridge_2x8());
        let mut throttle = ThrottleState::new(6);
        let heartbeat = Rc::new(Cell::new(0u64));
        let mut dog = Watchdog::new(200, Rc::clone(&heartbeat));
        let handle = dog.missed_handle();
        assert_eq!(dog.next_due_ns(), Some(200), "first check is one period in");

        // Beating component alive: no misses.
        machine.advance(200);
        heartbeat.set(1);
        dog.fire(&mut machine, &mut throttle);
        assert_eq!(dog.missed(), 0);

        // Component wedged for two checks: two misses.
        machine.advance(200);
        dog.fire(&mut machine, &mut throttle);
        machine.advance(200);
        dog.fire(&mut machine, &mut throttle);
        assert_eq!(dog.missed(), 2);
        assert_eq!(handle.get(), 2, "shared handle sees the tally");

        // Recovery: beats resume, no further misses.
        machine.advance(200);
        heartbeat.set(2);
        dog.fire(&mut machine, &mut throttle);
        assert_eq!(dog.missed(), 2);
        assert_eq!(dog.next_due_ns(), Some(machine.now_ns() + 200));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn watchdog_zero_period_rejected() {
        Watchdog::new(0, Rc::new(Cell::new(0)));
    }

    #[test]
    fn cancel_at_fires_once_then_goes_quiet() {
        use maestro_machine::MachineConfig;
        let mut machine = Machine::new(MachineConfig::sandybridge_2x8());
        let mut throttle = ThrottleState::new(6);
        let token = CancelToken::new();
        let mut monitor = CancelAt::new(500, token.clone());
        assert_eq!(monitor.next_due_ns(), Some(500));
        machine.advance(500);
        monitor.fire(&mut machine, &mut throttle);
        assert!(token.is_cancelled());
        assert_eq!(monitor.next_due_ns(), None, "one-shot monitor");
    }

    #[test]
    fn power_trace_advances_deadline() {
        use maestro_machine::MachineConfig;
        let mut machine = Machine::new(MachineConfig::sandybridge_2x8());
        let mut trace = PowerTrace::new(100);
        let mut throttle = ThrottleState::new(6);
        assert_eq!(trace.next_due_ns(), Some(0));
        trace.fire(&mut machine, &mut throttle);
        assert_eq!(trace.next_due_ns(), Some(100));
        assert_eq!(trace.samples().len(), 1);
        assert!(trace.samples()[0].1 > 0.0);
    }
}
