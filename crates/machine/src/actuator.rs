//! Transactional, verified duty-cycle actuation.
//!
//! The runtime used to trust every `IA32_CLOCK_MODULATION` write blindly. On
//! real hardware that is fail-deadly: a failed, torn, or silently-swallowed
//! write while *entering* the low-power spin state strands a core at 1/32
//! duty — the one outcome the paper's throttling design must never produce
//! (throttling may cost energy savings, never correctness or performance
//! floor). The [`Actuator`] makes every duty change transactional:
//!
//! 1. write the register (through the [`FaultPlan`] write-path filter when
//!    fault injection is active),
//! 2. read it back and compare against the requested duty,
//! 3. retry up to a bounded number of attempts on mismatch,
//! 4. on exhaustion, force the core to [`DutyCycle::FULL`] through the
//!    recovery path (modulation disable, which hardware always honors) and
//!    count the failure.
//!
//! A per-core **circuit breaker** trips after a configurable number of
//! *consecutive* failed transactions: further non-trivial duty requests for
//! that core are refused and the core is pinned at FULL until an explicit
//! [`Actuator::reset_breaker`]. The breaker direction is deliberate — fail
//! toward performance (full speed, no energy savings), never toward a stuck
//! low duty cycle.

use crate::duty::DutyCycle;
use crate::engine::Machine;
use crate::fault::{DutyWriteEffect, FaultPlan};
use crate::msr::{MsrDevice, IA32_CLOCK_MODULATION};
use crate::snap::{Codec, SnapError};
use crate::topology::CoreId;

/// Retry and breaker tuning for the [`Actuator`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ActuatorConfig {
    /// Physical write attempts per transaction (first try + retries).
    pub max_attempts: u32,
    /// Consecutive failed transactions on one core before its breaker trips.
    pub breaker_threshold: u32,
}

impl Default for ActuatorConfig {
    fn default() -> Self {
        ActuatorConfig { max_attempts: 4, breaker_threshold: 3 }
    }
}

/// Breaker position for one core.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Normal operation: duty requests are attempted.
    #[default]
    Closed,
    /// Tripped: non-FULL requests are refused, core pinned at full speed.
    Open {
        /// Virtual time the breaker tripped, nanoseconds.
        tripped_at_ns: u64,
    },
}

/// Per-core actuation bookkeeping.
#[derive(Copy, Clone, Debug, Default)]
pub struct ActuationHealth {
    /// Logical duty-change transactions requested.
    pub writes: u64,
    /// Physical register write attempts (≥ `writes` under faults).
    pub attempts: u64,
    /// Read-back verifications that did not match the request.
    pub verify_failures: u64,
    /// Transactions that exhausted every attempt.
    pub failed_applies: u64,
    /// Times the recovery path forced the core back to FULL.
    pub forced_resets: u64,
    /// Consecutive failed transactions (resets on success; arms the breaker).
    pub consecutive_failures: u32,
    /// Current breaker position.
    pub breaker: BreakerState,
}

/// Aggregate actuation counters across all cores.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ActuationTotals {
    /// Logical duty-change transactions requested.
    pub writes: u64,
    /// Physical register write attempts.
    pub attempts: u64,
    /// Read-back verification failures.
    pub verify_failures: u64,
    /// Transactions that exhausted every attempt.
    pub failed_applies: u64,
    /// Forced restores to FULL via the recovery path.
    pub forced_resets: u64,
    /// Breaker trips over the actuator's lifetime.
    pub breaker_trips: u64,
    /// Breakers currently open.
    pub open_breakers: u64,
}

impl ActuationTotals {
    /// The snapshot codec (see [`Codec`]): every counter in declaration
    /// order.
    pub fn codec<C: Codec>(&self, c: &mut C) -> Result<ActuationTotals, SnapError> {
        Ok(ActuationTotals {
            writes: c.u64(self.writes)?,
            attempts: c.u64(self.attempts)?,
            verify_failures: c.u64(self.verify_failures)?,
            failed_applies: c.u64(self.failed_applies)?,
            forced_resets: c.u64(self.forced_resets)?,
            breaker_trips: c.u64(self.breaker_trips)?,
            open_breakers: c.u64(self.open_breakers)?,
        })
    }
}

/// Result of one duty-change transaction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// The requested duty was verified in the register.
    Applied {
        /// Physical write attempts the transaction took.
        attempts: u32,
    },
    /// The core's breaker is open; the core was pinned at FULL instead.
    BreakerOpen,
    /// Every attempt failed verification; the core was forced to FULL.
    ForcedFull {
        /// Physical write attempts the transaction took.
        attempts: u32,
        /// True when this failure tripped the core's breaker.
        tripped: bool,
    },
}

impl ApplyOutcome {
    /// Physical MSR write attempts this transaction performed.
    pub fn attempts(&self) -> u32 {
        match self {
            ApplyOutcome::Applied { attempts } | ApplyOutcome::ForcedFull { attempts, .. } => {
                *attempts
            }
            ApplyOutcome::BreakerOpen => 0,
        }
    }

    /// True when the requested duty was verified in the register.
    pub fn applied(&self) -> bool {
        matches!(self, ApplyOutcome::Applied { .. })
    }
}

/// Verified duty-cycle writer with per-core circuit breakers.
#[derive(Clone, Debug)]
pub struct Actuator {
    cfg: ActuatorConfig,
    faults: Option<FaultPlan>,
    health: Vec<ActuationHealth>,
    trips: u64,
}

/// Aggregate per-core counters, or `None` when a sum overflows (only a
/// corrupt snapshot can hold such counters).
fn sum_totals(health: &[ActuationHealth], trips: u64) -> Option<ActuationTotals> {
    let mut t = ActuationTotals { breaker_trips: trips, ..ActuationTotals::default() };
    for h in health {
        t.writes = t.writes.checked_add(h.writes)?;
        t.attempts = t.attempts.checked_add(h.attempts)?;
        t.verify_failures = t.verify_failures.checked_add(h.verify_failures)?;
        t.failed_applies = t.failed_applies.checked_add(h.failed_applies)?;
        t.forced_resets = t.forced_resets.checked_add(h.forced_resets)?;
        t.open_breakers += u64::from(matches!(h.breaker, BreakerState::Open { .. }));
    }
    Some(t)
}

impl Actuator {
    /// An actuator for a machine with `n_cores` cores.
    pub fn new(n_cores: usize, cfg: ActuatorConfig) -> Self {
        assert!(cfg.max_attempts >= 1, "actuator needs at least one attempt");
        assert!(cfg.breaker_threshold >= 1, "breaker threshold must be positive");
        Actuator { cfg, faults: None, health: vec![ActuationHealth::default(); n_cores], trips: 0 }
    }

    /// Inject (or clear) write-path faults for subsequent transactions.
    pub fn set_faults(&mut self, faults: Option<FaultPlan>) {
        self.faults = faults;
    }

    /// The configured retry/breaker tuning.
    pub fn config(&self) -> ActuatorConfig {
        self.cfg
    }

    /// Per-core bookkeeping for `core`.
    pub fn health(&self, core: CoreId) -> &ActuationHealth {
        &self.health[core.index()]
    }

    /// True when `core`'s breaker is open.
    pub fn breaker_open(&self, core: CoreId) -> bool {
        matches!(self.health[core.index()].breaker, BreakerState::Open { .. })
    }

    /// Re-close `core`'s breaker (operator action); returns true when it was
    /// open. The failure streak restarts from zero.
    pub fn reset_breaker(&mut self, core: CoreId) -> bool {
        let h = &mut self.health[core.index()];
        let was_open = matches!(h.breaker, BreakerState::Open { .. });
        h.breaker = BreakerState::Closed;
        h.consecutive_failures = 0;
        was_open
    }

    /// Aggregate counters across all cores.
    pub fn totals(&self) -> ActuationTotals {
        sum_totals(&self.health, self.trips).expect("actuation counters fit in u64")
    }

    /// Transactionally set `core`'s duty cycle to `duty`.
    ///
    /// Postcondition regardless of faults: the register holds either the
    /// requested duty (on success) or FULL (on refusal/failure) — never an
    /// unverified intermediate value.
    pub fn apply(&mut self, machine: &mut Machine, core: CoreId, duty: DutyCycle) -> ApplyOutcome {
        let idx = core.index();
        self.health[idx].writes += 1;

        if matches!(self.health[idx].breaker, BreakerState::Open { .. }) {
            self.force_full(machine, core);
            return ApplyOutcome::BreakerOpen;
        }

        let requested = duty.encode_msr();
        let mut attempts = 0u32;
        while attempts < self.cfg.max_attempts {
            attempts += 1;
            self.health[idx].attempts += 1;
            let effect = self
                .faults
                .as_ref()
                .map_or(DutyWriteEffect::Clean, |p| p.filter_duty_write(requested));
            match effect {
                DutyWriteEffect::Fail | DutyWriteEffect::Ignored => {}
                DutyWriteEffect::Torn(v) => {
                    let _ = machine.write_msr(core, IA32_CLOCK_MODULATION, v);
                }
                DutyWriteEffect::Clean => {
                    let _ = machine.write_msr(core, IA32_CLOCK_MODULATION, requested);
                }
            }
            let verified = machine
                .read_msr(core, IA32_CLOCK_MODULATION)
                .ok()
                .and_then(|v| DutyCycle::decode_msr(v).ok())
                .is_some_and(|d| d == duty);
            if verified {
                self.health[idx].consecutive_failures = 0;
                return ApplyOutcome::Applied { attempts };
            }
            self.health[idx].verify_failures += 1;
        }

        self.health[idx].failed_applies += 1;
        self.health[idx].consecutive_failures += 1;
        let tripped = self.health[idx].consecutive_failures >= self.cfg.breaker_threshold;
        if tripped {
            self.health[idx].breaker = BreakerState::Open { tripped_at_ns: machine.now_ns() };
            self.trips += 1;
        }
        self.force_full(machine, core);
        ApplyOutcome::ForcedFull { attempts, tripped }
    }

    /// The snapshot codec for the actuator's dynamic state: per-core health,
    /// breaker positions, trip count, fault-plan cursor (see [`Codec`]).
    /// Configuration is not captured; restore into an actuator built with
    /// the same config. Decoding yields a copy of this actuator carrying the
    /// decoded state (`None` on the writer).
    pub fn codec<C: Codec>(&self, c: &mut C) -> Result<Option<Actuator>, SnapError> {
        let health = c.seq_fixed(&self.health, "actuator core count mismatch", |c, h| {
            let open = match h.breaker {
                BreakerState::Closed => None,
                BreakerState::Open { tripped_at_ns } => Some(tripped_at_ns),
            };
            Ok(ActuationHealth {
                writes: c.u64(h.writes)?,
                attempts: c.u64(h.attempts)?,
                verify_failures: c.u64(h.verify_failures)?,
                failed_applies: c.u64(h.failed_applies)?,
                forced_resets: c.u64(h.forced_resets)?,
                consecutive_failures: c.u32(h.consecutive_failures)?,
                breaker: match c.opt_u64(open)? {
                    None => BreakerState::Closed,
                    Some(tripped_at_ns) => BreakerState::Open { tripped_at_ns },
                },
            })
        })?;
        let trips = c.u64(self.trips)?;
        if sum_totals(&health, trips).is_none() {
            return Err(SnapError::Corrupt("actuation counters overflow"));
        }
        let cursor = FaultPlan::cursor_codec(self.faults.as_ref(), c)?;
        Ok(C::DECODING.then(|| {
            let a = Actuator { health, trips, ..self.clone() };
            FaultPlan::install_cursor(a.faults.as_ref(), cursor);
            a
        }))
    }

    /// The recovery path: pin `core` at FULL via modulation disable, which
    /// the hardware always honors (it is the reset state of the register).
    fn force_full(&mut self, machine: &mut Machine, core: CoreId) {
        if machine.duty(core) != DutyCycle::FULL {
            machine.set_duty(core, DutyCycle::FULL);
            self.health[core.index()].forced_resets += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MachineConfig;

    fn setup() -> (Machine, Actuator) {
        let m = Machine::new(MachineConfig::sandybridge_2x8());
        let n = m.topology().total_cores();
        (m, Actuator::new(n, ActuatorConfig::default()))
    }

    #[test]
    fn clean_apply_verifies_first_attempt() {
        let (mut m, mut a) = setup();
        let out = a.apply(&mut m, CoreId(0), DutyCycle::MIN);
        assert_eq!(out, ApplyOutcome::Applied { attempts: 1 });
        assert_eq!(m.duty(CoreId(0)), DutyCycle::MIN);
        let h = a.health(CoreId(0));
        assert_eq!((h.writes, h.attempts, h.verify_failures), (1, 1, 0));
    }

    #[test]
    fn transient_write_faults_are_retried_to_success() {
        let (mut m, mut a) = setup();
        // Fail rate 0.5: some attempts fail, but 4 attempts almost always
        // land one success; run many transactions and require all verified.
        a.set_faults(Some(FaultPlan::new(21).with_duty_write_fail_rate(0.5)));
        let mut retried = 0u32;
        for i in 0..50 {
            let duty = if i % 2 == 0 { DutyCycle::MIN } else { DutyCycle::FULL };
            match a.apply(&mut m, CoreId(1), duty) {
                ApplyOutcome::Applied { attempts } => {
                    if attempts > 1 {
                        retried += 1;
                    }
                    assert_eq!(m.duty(CoreId(1)), duty);
                }
                // Rare: all 4 attempts failed; the core must be at FULL.
                ApplyOutcome::ForcedFull { .. } | ApplyOutcome::BreakerOpen => {
                    assert_eq!(m.duty(CoreId(1)), DutyCycle::FULL);
                    a.reset_breaker(CoreId(1));
                }
            }
        }
        assert!(retried > 0, "rate 0.5 must force some retries");
    }

    #[test]
    fn ignored_writes_never_leave_core_throttled() {
        let (mut m, mut a) = setup();
        a.set_faults(Some(FaultPlan::new(22).with_duty_write_ignore_rate(1.0)));
        let out = a.apply(&mut m, CoreId(2), DutyCycle::MIN);
        assert!(matches!(out, ApplyOutcome::ForcedFull { attempts: 4, .. }));
        assert_eq!(m.duty(CoreId(2)), DutyCycle::FULL, "fail-safe is full speed");
        assert_eq!(a.health(CoreId(2)).verify_failures, 4);
    }

    #[test]
    fn torn_write_is_caught_by_read_back() {
        let (mut m, mut a) = setup();
        a.set_faults(Some(FaultPlan::new(23).with_duty_write_torn_rate(1.0)));
        let out = a.apply(&mut m, CoreId(3), DutyCycle::new(8).unwrap());
        assert!(matches!(out, ApplyOutcome::ForcedFull { .. }));
        // Whatever torn values landed, the recovery path erased them.
        assert_eq!(m.duty(CoreId(3)), DutyCycle::FULL);
        assert!(a.health(CoreId(3)).verify_failures >= 4);
    }

    #[test]
    fn breaker_trips_after_consecutive_failures_and_resets() {
        let (mut m, mut a) = setup();
        a.set_faults(Some(FaultPlan::new(24).with_duty_write_fail_rate(1.0)));
        let core = CoreId(4);
        // Threshold 3: two failures arm, third trips.
        assert!(matches!(a.apply(&mut m, core, DutyCycle::MIN), ApplyOutcome::ForcedFull { tripped: false, .. }));
        assert!(matches!(a.apply(&mut m, core, DutyCycle::MIN), ApplyOutcome::ForcedFull { tripped: false, .. }));
        assert!(matches!(a.apply(&mut m, core, DutyCycle::MIN), ApplyOutcome::ForcedFull { tripped: true, .. }));
        assert!(a.breaker_open(core));
        // Open breaker: no more register attempts, request refused.
        let before = a.health(core).attempts;
        assert_eq!(a.apply(&mut m, core, DutyCycle::MIN), ApplyOutcome::BreakerOpen);
        assert_eq!(a.health(core).attempts, before, "open breaker attempts no writes");
        assert_eq!(m.duty(core), DutyCycle::FULL);
        assert_eq!(a.totals().breaker_trips, 1);
        assert_eq!(a.totals().open_breakers, 1);
        // Reset: transactions flow again (still faulty here, so they fail).
        assert!(a.reset_breaker(core));
        assert!(!a.breaker_open(core));
        assert!(matches!(a.apply(&mut m, core, DutyCycle::MIN), ApplyOutcome::ForcedFull { .. }));
    }

    #[test]
    fn success_resets_failure_streak() {
        let (mut m, mut a) = setup();
        let core = CoreId(5);
        a.set_faults(Some(FaultPlan::new(25).with_duty_write_fail_rate(1.0)));
        a.apply(&mut m, core, DutyCycle::MIN);
        a.apply(&mut m, core, DutyCycle::MIN);
        assert_eq!(a.health(core).consecutive_failures, 2);
        a.set_faults(None);
        assert!(matches!(a.apply(&mut m, core, DutyCycle::MIN), ApplyOutcome::Applied { .. }));
        assert_eq!(a.health(core).consecutive_failures, 0, "success disarms the breaker");
        // A later failure streak starts over from zero.
        a.set_faults(Some(FaultPlan::new(26).with_duty_write_fail_rate(1.0)));
        assert!(matches!(a.apply(&mut m, core, DutyCycle::FULL), ApplyOutcome::ForcedFull { tripped: false, .. }));
    }

    #[test]
    fn round_trip_under_write_faults_is_exact_when_verified() {
        // Encode/decode round-trips survive the write-fault decorator: every
        // transaction the actuator reports Applied must read back exactly.
        let (mut m, mut a) = setup();
        a.set_faults(Some(
            FaultPlan::new(27)
                .with_duty_write_fail_rate(0.2)
                .with_duty_write_torn_rate(0.2)
                .with_duty_write_ignore_rate(0.2),
        ));
        for level in 1..=32u8 {
            let duty = DutyCycle::new(level).unwrap();
            if let ApplyOutcome::Applied { .. } = a.apply(&mut m, CoreId(6), duty) {
                let raw = m.read_msr(CoreId(6), IA32_CLOCK_MODULATION).unwrap();
                assert_eq!(DutyCycle::decode_msr(raw).unwrap(), duty);
            } else {
                assert_eq!(m.duty(CoreId(6)), DutyCycle::FULL);
                a.reset_breaker(CoreId(6));
            }
        }
    }

    #[test]
    fn determinism_same_seed_same_outcomes() {
        let run = || {
            let (mut m, mut a) = setup();
            a.set_faults(Some(
                FaultPlan::new(28)
                    .with_duty_write_fail_rate(0.4)
                    .with_duty_write_torn_rate(0.2),
            ));
            let mut outcomes = Vec::new();
            for i in 0..40 {
                let core = CoreId((i % 16) as u16);
                outcomes.push(a.apply(&mut m, core, DutyCycle::MIN));
                a.apply(&mut m, core, DutyCycle::FULL);
            }
            (outcomes, a.totals())
        };
        assert_eq!(run(), run());
    }
}
