//! The SLO governor: "minimize energy subject to p99 ≤ SLO".
//!
//! Two coupled ladders, stepped once per decision epoch from the window
//! histogram's p99:
//!
//! * the **energy ladder** deepens the paper's concurrency throttle
//!   (tighter `limit_per_shepherd`) while the tail is comfortably under the
//!   SLO — spending latency headroom on energy;
//! * the **brownout ladder** degrades request fidelity (the source builds
//!   cheaper specs) when the SLO is violated *at full performance* — the
//!   last resort after the energy ladder has fully backed off.
//!
//! One step per epoch, violation responses first: a violating epoch first
//! climbs back out of the energy ladder, and only once the throttle is fully
//! released does brownout deepen. A comfortable epoch unwinds in the
//! opposite order (brownout recovers before energy saving resumes). The
//! result is the energy-vs-tail-latency Pareto frontier the bench sweeps.
//!
//! The governor's ladder levels are authoritative in [`ServiceShared`](crate::ServiceShared)
//! (the source reads `brownout_level` when building specs) but are
//! serialized with the governor's own monitor blob; after a restore,
//! [`Monitor::restore_throttle`] re-imposes the energy level on the
//! (deliberately unserialized) throttle limit.

use maestro_machine::snap::{Codec, SnapError, SnapReader, SnapWriter};
use maestro_machine::Machine;
use maestro_runtime::{Monitor, ThrottleState};

use crate::source::ServiceHandle;

// The governor's tuning for the paper's 2×8 node.

/// Decision epoch length.
const PERIOD_NS: u64 = 1_000_000;

/// Shepherd limits for energy levels `1..=LADDER.len()` (level 0 is
/// throttle-off), deeper levels tighter.
const LADDER: [usize; 4] = [12, 8, 6, 4];

/// Deepest brownout level the governor may order.
const MAX_BROWNOUT: u8 = 2;

/// Comfort threshold, percent of the SLO: below this p99 the governor
/// deepens energy saving.
const COMFORT_PCT: u64 = 60;

/// The monitor. Install with `runtime.add_monitor` alongside the service
/// source that shares its [`ServiceHandle`].
pub struct SloGovernor {
    /// The SLO: window p99 must stay at or below this.
    slo_p99_ns: u64,
    shared: ServiceHandle,
    next_ns: u64,
}

impl SloGovernor {
    /// A governor holding window p99 to `slo_p99_ns`, sharing `shared` with
    /// the run's service source.
    pub fn new(slo_p99_ns: u64, shared: ServiceHandle) -> Self {
        SloGovernor { slo_p99_ns, shared, next_ns: PERIOD_NS }
    }

    fn apply(&self, throttle: &mut ThrottleState, energy_level: usize) {
        if energy_level == 0 {
            throttle.active = false;
        } else {
            throttle.active = true;
            throttle.limit_per_shepherd = LADDER[energy_level - 1];
        }
    }
}

impl SloGovernor {
    /// The snapshot codec (see [`Codec`]): deadline, ladder and brownout
    /// levels, transition counts.
    fn codec<C: Codec>(&self, c: &mut C) -> Result<(u64, usize, u8, u64, u64), SnapError> {
        let sh = self.shared.borrow();
        let next_ns = c.u64(self.next_ns)?;
        let energy_level = c.u64(sh.energy_level as u64)? as usize;
        if energy_level > LADDER.len() {
            return Err(SnapError::Corrupt("energy level beyond the configured ladder"));
        }
        let brownout_level = c.u8(sh.brownout_level)?;
        if brownout_level > MAX_BROWNOUT {
            return Err(SnapError::Corrupt("brownout level beyond the configured maximum"));
        }
        let energy_steps = c.u64(sh.energy_steps)?;
        Ok((next_ns, energy_level, brownout_level, energy_steps, c.u64(sh.brownout_steps)?))
    }
}

impl Monitor for SloGovernor {
    fn next_due_ns(&self) -> Option<u64> {
        Some(self.next_ns)
    }

    fn fire(&mut self, machine: &mut Machine, throttle: &mut ThrottleState) {
        let mut sh = self.shared.borrow_mut();
        if sh.window.count() > 0 {
            let p99 = sh.window.quantile(0.99).unwrap_or(u64::MAX);
            if p99 > self.slo_p99_ns {
                // Violating: restore performance before degrading fidelity.
                if sh.energy_level > 0 {
                    sh.energy_level -= 1;
                    sh.energy_steps += 1;
                } else if sh.brownout_level < MAX_BROWNOUT {
                    sh.brownout_level += 1;
                    sh.brownout_steps += 1;
                }
            } else if p99.saturating_mul(100) < self.slo_p99_ns.saturating_mul(COMFORT_PCT) {
                // Comfortable: recover fidelity before saving more energy.
                if sh.brownout_level > 0 {
                    sh.brownout_level -= 1;
                    sh.brownout_steps += 1;
                } else if sh.energy_level < LADDER.len() {
                    sh.energy_level += 1;
                    sh.energy_steps += 1;
                }
            }
            sh.window.reset();
        }
        let level = sh.energy_level;
        drop(sh);
        self.apply(throttle, level);
        self.next_ns = machine.now_ns() + PERIOD_NS;
    }

    fn snap_state(&self, w: &mut SnapWriter) {
        self.codec(w).expect("live state encodes");
    }

    fn restore_state(
        &mut self,
        _machine: &Machine,
        r: &mut SnapReader<'_>,
    ) -> Result<(), SnapError> {
        let (next_ns, energy_level, brownout_level, energy_steps, brownout_steps) =
            self.codec(r)?;
        self.next_ns = next_ns;
        let mut sh = self.shared.borrow_mut();
        sh.energy_level = energy_level;
        sh.brownout_level = brownout_level;
        sh.energy_steps = energy_steps;
        sh.brownout_steps = brownout_steps;
        Ok(())
    }

    fn restore_throttle(&self, throttle: &mut ThrottleState) {
        let level = self.shared.borrow().energy_level;
        self.apply(throttle, level);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::service_handle;
    use maestro_machine::MachineConfig;

    fn governor() -> (SloGovernor, ServiceHandle, Machine) {
        let handle = service_handle();
        let g = SloGovernor::new(1_000_000, handle.clone());
        (g, handle, Machine::new(MachineConfig::sandybridge_2x8()))
    }

    #[test]
    fn comfortable_epochs_descend_the_energy_ladder() {
        let (mut g, handle, mut machine) = governor();
        let mut throttle = ThrottleState::new(16);
        for _ in 0..3 {
            handle.borrow_mut().window.record(100_000); // p99 ≪ 60 % of SLO
            g.fire(&mut machine, &mut throttle);
        }
        let sh = handle.borrow();
        assert_eq!(sh.energy_level, 3);
        assert!(throttle.active);
        assert_eq!(throttle.limit_per_shepherd, 6, "third rung of 12/8/6/4");
    }

    #[test]
    fn violations_unwind_energy_before_brownout() {
        let (mut g, handle, mut machine) = governor();
        let mut throttle = ThrottleState::new(16);
        handle.borrow_mut().energy_level = 2;
        for _ in 0..2 {
            handle.borrow_mut().window.record(5_000_000); // p99 > SLO
            g.fire(&mut machine, &mut throttle);
        }
        let sh = handle.borrow();
        assert_eq!(sh.energy_level, 0, "throttle fully released first");
        assert_eq!(sh.brownout_level, 0, "no brownout while energy can unwind");
        drop(sh);
        assert!(!throttle.active);

        handle.borrow_mut().window.record(5_000_000);
        g.fire(&mut machine, &mut throttle);
        assert_eq!(handle.borrow().brownout_level, 1, "then brownout deepens");
    }

    #[test]
    fn empty_window_holds_the_line() {
        let (mut g, handle, mut machine) = governor();
        let mut throttle = ThrottleState::new(16);
        handle.borrow_mut().energy_level = 1;
        g.fire(&mut machine, &mut throttle);
        assert_eq!(handle.borrow().energy_level, 1, "no data, no move");
        assert!(throttle.active, "current level still applied");
    }

    #[test]
    fn restore_throttle_reimposes_the_ladder() {
        let (g, handle, _machine) = governor();
        handle.borrow_mut().energy_level = 4;
        let mut throttle = ThrottleState::new(16);
        g.restore_throttle(&mut throttle);
        assert!(throttle.active);
        assert_eq!(throttle.limit_per_shepherd, 4, "deepest rung");
    }

    #[test]
    fn service_run_snapshot_rejects_corruption() {
        use crate::{ServiceConfig, ServiceStack};
        use maestro_machine::snap::assert_rejects_corruption;
        use maestro_runtime::{Runtime, RuntimeParams, SnapshotPlan};

        // A governed service run suspended mid-stream: the live-request
        // table, the source's section and the governor's section all ride
        // in the snapshot.
        let cfg = ServiceConfig::simple(7, 40_000.0, 40, 2_000_000);
        let build = || {
            let stack = ServiceStack::new(&cfg, Some(1_000_000));
            let machine = Machine::new(MachineConfig::sandybridge_2x8());
            let mut rt = Runtime::new(machine, RuntimeParams::qthreads(4)).unwrap();
            rt.add_monitor(Box::new(stack.governor.expect("governed stack")));
            (rt, stack.source)
        };
        let (mut rt, source) = build();
        let cap = rt
            .run_service_captured(&mut (), source, &SnapshotPlan::suspend_at(150_000))
            .unwrap()
            .suspended()
            .expect("suspends mid-stream");
        assert_rejects_corruption(&cap.bytes, |input| {
            let (mut rt, source) = build();
            let plan = SnapshotPlan::suspend_at(250_000);
            rt.resume_service_captured(&mut (), source, input, &plan).map(drop)
        });
    }
}
