//! Deterministic fault injection for the measurement pipeline.
//!
//! Real RAPL deployments are not the happy path this simulation started as:
//! MSR reads fail transiently (EAGAIN from `/dev/cpu/N/msr`, IPMI hiccups),
//! firmware bugs leave `MSR_PKG_ENERGY_STATUS` stuck for many milliseconds,
//! readings occasionally jump backwards as if the 32-bit counter had wrapped
//! when it had not, and the sampling daemon itself gets descheduled — jitter
//! on the 0.1 s period, dropped ticks, or multi-second stalls.
//!
//! A [`FaultPlan`] scripts all of those against the simulated node so the
//! downstream stack (probe retry, window outlier rejection, blackboard
//! staleness, controller safe mode) can be tested and benchmarked under
//! failure. Every fault draw comes from a seeded [`SplitMix64`] stream, so a
//! plan reproduces the same fault schedule on every run.
//!
//! The MSR-level faults are applied by [`FaultyMsr`], a read-side decorator
//! over any [`MsrDevice`]; the daemon-level faults (drops, jitter, stalls)
//! are consumed by the RCR daemon in `maestro-rcr`, which carries the plan.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

use crate::msr::{MsrDevice, MsrError, MSR_PKG_ENERGY_STATUS};
use crate::snap::{Codec, SnapError};
use crate::topology::CoreId;

/// The [splitmix64] generator: tiny, seedable, and a single `u64` of state,
/// which is all a snapshot has to carry. Fault plans, the service's arrival
/// and class streams, and the fleet's stateless fault hash all draw from it.
///
/// [splitmix64]: https://prng.di.unimi.it/splitmix64.c
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose state is `state` (a seed, or a snapshotted
    /// [`SplitMix64::state`]).
    pub fn new(state: u64) -> Self {
        SplitMix64 { state }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in the open interval `(0, 1)` with 53 significant bits.
    pub fn next_open01(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) * (1.0 / 9_007_199_254_740_992.0)
    }

    /// Raw state, for snapshots.
    pub fn state(&self) -> u64 {
        self.state
    }
}

/// An energy-counter freeze: after `after_reads` reads of the energy MSR,
/// the next `for_reads` reads return the frozen value.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StuckWindow {
    /// Energy-counter reads before the freeze begins.
    pub after_reads: u64,
    /// Energy-counter reads the freeze lasts for.
    pub for_reads: u64,
}

/// A daemon blackout: no samples are published in `[from_ns, until_ns)`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StallWindow {
    /// Virtual time the stall begins, nanoseconds.
    pub from_ns: u64,
    /// Virtual time the stall ends, nanoseconds.
    pub until_ns: u64,
}

/// What a faulty duty-register write actually does to the hardware.
///
/// Produced by [`FaultPlan::filter_duty_write`]; consumed by the `Actuator`,
/// which turns each effect into (or withholds) the real MSR write and then
/// verifies by reading the register back.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DutyWriteEffect {
    /// The write reaches the register intact.
    Clean,
    /// The write syscall fails (EIO from `/dev/cpu/N/msr`); register untouched.
    Fail,
    /// The write reports success but the register never changes (firmware
    /// swallowed it).
    Ignored,
    /// A partial/torn write: a *different* valid encoding lands in the
    /// register while the write reports success.
    Torn(u64),
}

/// A scripted, reproducible set of measurement-pipeline faults.
///
/// All rates are probabilities in `[0, 1]` evaluated per event on the plan's
/// own deterministic PRNG. The default plan injects nothing.
///
/// Besides its static schedules and rates, a plan carries dynamic state:
/// schedule cursors, the PRNG, and the stuck-counter freeze map. A clone
/// carries that state too, so it continues the same fault stream, and
/// [`FaultPlan::codec`] snapshots it.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    transient_error_rate: f64,
    extra_wrap_rate: f64,
    drop_sample_rate: f64,
    sample_jitter_ns: u64,
    stuck: Option<StuckWindow>,
    stall: Option<StallWindow>,
    duty_write_fail_rate: f64,
    duty_write_torn_rate: f64,
    duty_write_ignore_rate: f64,
    daemon_kills_ns: Vec<u64>,
    kills_consumed: Cell<usize>,
    task_panic_at_steps: Vec<u64>,
    panics_consumed: Cell<usize>,
    task_wedge_at_steps: Vec<u64>,
    wedges_consumed: Cell<usize>,
    lost_wake_rate: f64,
    rng: Cell<SplitMix64>,
    energy_reads: Cell<u64>,
    /// Frozen per-core energy readings inside a stuck window.
    frozen: RefCell<BTreeMap<u16, u64>>,
}

impl FaultPlan {
    /// A plan with no faults, drawing from a stream seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            rng: Cell::new(SplitMix64::new(seed ^ 0x5DEE_CE66_D1CE_4E5B)),
            ..FaultPlan::default()
        }
    }

    /// Each MSR read fails with probability `rate` (a retriable
    /// [`MsrError::Transient`]).
    pub fn with_transient_error_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate {rate} out of [0,1]");
        self.transient_error_rate = rate;
        self
    }

    /// Each energy-counter read back-jumps with probability `rate`, as if
    /// the 32-bit counter had wrapped when it had not.
    pub fn with_extra_wrap_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate {rate} out of [0,1]");
        self.extra_wrap_rate = rate;
        self
    }

    /// Each daemon tick is dropped whole with probability `rate`.
    pub fn with_drop_sample_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate {rate} out of [0,1]");
        self.drop_sample_rate = rate;
        self
    }

    /// Each daemon tick lands up to `jitter_ns` late (uniform).
    pub fn with_sample_jitter(mut self, jitter_ns: u64) -> Self {
        self.sample_jitter_ns = jitter_ns;
        self
    }

    /// Freeze the energy counter per [`StuckWindow`].
    pub fn with_stuck_counter(mut self, after_reads: u64, for_reads: u64) -> Self {
        self.stuck = Some(StuckWindow { after_reads, for_reads });
        self
    }

    /// Black out the daemon for `[from_ns, until_ns)` of virtual time.
    pub fn with_stall(mut self, from_ns: u64, until_ns: u64) -> Self {
        assert!(from_ns <= until_ns, "stall window must not be inverted");
        self.stall = Some(StallWindow { from_ns, until_ns });
        self
    }

    /// Each duty-register write fails outright (syscall error, register
    /// untouched) with probability `rate`.
    pub fn with_duty_write_fail_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate {rate} out of [0,1]");
        self.duty_write_fail_rate = rate;
        self
    }

    /// Each duty-register write is torn with probability `rate`: a different
    /// valid duty encoding lands while the write reports success.
    pub fn with_duty_write_torn_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate {rate} out of [0,1]");
        self.duty_write_torn_rate = rate;
        self
    }

    /// Each duty-register write is silently swallowed (reports success,
    /// register unchanged) with probability `rate`.
    pub fn with_duty_write_ignore_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate {rate} out of [0,1]");
        self.duty_write_ignore_rate = rate;
        self
    }

    /// Script daemon kills at the given virtual times (nanoseconds). Each
    /// kill is consumed once by [`FaultPlan::kill_due`]; the supervisor is
    /// expected to restart the daemon afterwards.
    pub fn with_daemon_kills(mut self, kills_ns: &[u64]) -> Self {
        self.daemon_kills_ns = kills_ns.to_vec();
        self.daemon_kills_ns.sort_unstable();
        self
    }

    /// Script task panics: the task `step` whose global index (0-based,
    /// counted across the whole run) matches an entry panics instead of
    /// running. Each entry fires once, in order.
    pub fn with_task_panic_at_steps(mut self, steps: &[u64]) -> Self {
        self.task_panic_at_steps = steps.to_vec();
        self.task_panic_at_steps.sort_unstable();
        self
    }

    /// Script task wedges: the task `step` whose global index matches an
    /// entry returns an effectively-infinite compute segment, hanging the
    /// run until its deadline or step budget fires. Each entry fires once.
    pub fn with_task_wedge_at_steps(mut self, steps: &[u64]) -> Self {
        self.task_wedge_at_steps = steps.to_vec();
        self.task_wedge_at_steps.sort_unstable();
        self
    }

    /// Each spinner wake event is lost (the wake epoch fails to advance)
    /// with probability `rate` — the scheduler must recover on its own.
    pub fn with_lost_wake_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate {rate} out of [0,1]");
        self.lost_wake_rate = rate;
        self
    }

    /// True when any task-level fault is configured.
    pub fn has_task_faults(&self) -> bool {
        !self.task_panic_at_steps.is_empty()
            || !self.task_wedge_at_steps.is_empty()
            || self.lost_wake_rate > 0.0
    }

    /// Consume any scripted panic whose step index has been reached; true
    /// when the step at index `step` must panic.
    pub fn task_panic_due(&self, step: u64) -> bool {
        let idx = self.panics_consumed.get();
        if idx < self.task_panic_at_steps.len() && self.task_panic_at_steps[idx] <= step {
            self.panics_consumed.set(idx + 1);
            true
        } else {
            false
        }
    }

    /// Consume any scripted wedge whose step index has been reached; true
    /// when the step at index `step` must wedge.
    pub fn task_wedge_due(&self, step: u64) -> bool {
        let idx = self.wedges_consumed.get();
        if idx < self.task_wedge_at_steps.len() && self.task_wedge_at_steps[idx] <= step {
            self.wedges_consumed.set(idx + 1);
            true
        } else {
            false
        }
    }

    /// Roll the lost-wake fault for one spinner wake event.
    pub fn lose_wake(&self) -> bool {
        self.roll(self.lost_wake_rate)
    }

    /// True when any duty-write fault rate is non-zero.
    pub fn has_duty_write_faults(&self) -> bool {
        self.duty_write_fail_rate > 0.0
            || self.duty_write_torn_rate > 0.0
            || self.duty_write_ignore_rate > 0.0
    }

    /// The scripted daemon-kill schedule (sorted, nanoseconds).
    pub fn daemon_kills(&self) -> &[u64] {
        &self.daemon_kills_ns
    }

    /// Consume every scripted kill whose time has passed; returns the latest
    /// such kill time, or `None` when no kill is due at `now_ns`.
    pub fn kill_due(&self, now_ns: u64) -> Option<u64> {
        let mut idx = self.kills_consumed.get();
        let mut fired = None;
        while idx < self.daemon_kills_ns.len() && self.daemon_kills_ns[idx] <= now_ns {
            fired = Some(self.daemon_kills_ns[idx]);
            idx += 1;
        }
        self.kills_consumed.set(idx);
        fired
    }

    /// Draw the effect of one duty-register write whose intended register
    /// value is `requested` (a valid `IA32_CLOCK_MODULATION` encoding).
    pub fn filter_duty_write(&self, requested: u64) -> DutyWriteEffect {
        if self.roll(self.duty_write_fail_rate) {
            return DutyWriteEffect::Fail;
        }
        if self.roll(self.duty_write_ignore_rate) {
            return DutyWriteEffect::Ignored;
        }
        if self.roll(self.duty_write_torn_rate) {
            // A different valid level lands: rotate the requested level by a
            // non-zero offset so the torn value never equals the request.
            let level = if requested & (1 << 6) == 0 { 32 } else { requested & 0x3F };
            let offset = 1 + self.next_u64() % 31;
            let torn_level = ((level - 1 + offset) % 32) + 1;
            let torn = if torn_level == 32 { 0 } else { (1 << 6) | torn_level };
            return DutyWriteEffect::Torn(torn);
        }
        DutyWriteEffect::Clean
    }

    /// The configured stall window, if any.
    pub fn stall(&self) -> Option<StallWindow> {
        self.stall
    }

    /// True when the daemon is blacked out at `now_ns`.
    pub fn stalled_at(&self, now_ns: u64) -> bool {
        self.stall.is_some_and(|s| (s.from_ns..s.until_ns).contains(&now_ns))
    }

    /// Roll the drop-sample fault for one daemon tick.
    pub fn should_drop_sample(&self) -> bool {
        self.roll(self.drop_sample_rate)
    }

    /// Draw this tick's scheduling jitter, nanoseconds.
    pub fn draw_jitter_ns(&self) -> u64 {
        if self.sample_jitter_ns == 0 {
            return 0;
        }
        self.next_u64() % (self.sample_jitter_ns + 1)
    }

    fn roll(&self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.next_unit() < p
    }

    fn next_u64(&self) -> u64 {
        let mut rng = self.rng.get();
        let draw = rng.next_u64();
        self.rng.set(rng);
        draw
    }

    fn next_unit(&self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The snapshot codec for an optional plan (see [`Codec`]): presence
    /// byte, then the dynamic state — schedule cursors, PRNG state, energy
    /// reads, and the frozen readings in core order. The schedules and rates
    /// are configuration and stay off the wire. Presence must match the live
    /// plan: a snapshot taken with a plan cannot be restored without one (or
    /// vice versa) — the fault stream would diverge. Decoding yields a copy
    /// of the live plan carrying the decoded state (`None` on the writer).
    pub fn codec<C: Codec>(
        plan: Option<&FaultPlan>,
        c: &mut C,
    ) -> Result<Option<FaultPlan>, SnapError> {
        if c.bool(plan.is_some())? != plan.is_some() {
            return Err(SnapError::Corrupt("fault plan presence mismatch"));
        }
        let Some(live) = plan else { return Ok(None) };
        let kills_consumed = c.len(live.kills_consumed.get())?;
        let panics_consumed = c.len(live.panics_consumed.get())?;
        let wedges_consumed = c.len(live.wedges_consumed.get())?;
        let rng = c.u64(live.rng.get().state())?;
        let energy_reads = c.u64(live.energy_reads.get())?;
        let frozen: Vec<(u16, u64)> = live.frozen.borrow().iter().map(|(&k, &v)| (k, v)).collect();
        let frozen = c.seq(&frozen, |c, &(core, value)| Ok((c.u16(core)?, c.u64(value)?)))?;
        Ok(C::DECODING.then(|| FaultPlan {
            kills_consumed: Cell::new(kills_consumed),
            panics_consumed: Cell::new(panics_consumed),
            wedges_consumed: Cell::new(wedges_consumed),
            rng: Cell::new(SplitMix64::new(rng)),
            energy_reads: Cell::new(energy_reads),
            frozen: RefCell::new(frozen.into_iter().collect()),
            ..live.clone()
        }))
    }

    /// Apply MSR-read faults to a reading of `msr` via `core` whose true
    /// value is `value`. Returns the possibly-corrupted value, or a
    /// transient error.
    fn filter_read(&self, core: CoreId, msr: u32, value: u64) -> Result<u64, MsrError> {
        if self.roll(self.transient_error_rate) {
            return Err(MsrError::Transient(msr));
        }
        if msr != MSR_PKG_ENERGY_STATUS {
            return Ok(value);
        }
        let read_idx = self.energy_reads.get();
        self.energy_reads.set(read_idx + 1);
        if let Some(w) = self.stuck {
            let mut frozen = self.frozen.borrow_mut();
            if (w.after_reads..w.after_reads.saturating_add(w.for_reads)).contains(&read_idx) {
                return Ok(*frozen.entry(core.0).or_insert(value));
            }
            frozen.remove(&core.0);
        }
        if self.roll(self.extra_wrap_rate) {
            // A back-jump of up to half the modulus: the wrap tracker sees a
            // spurious wrap worth 2^31..2^32 counts (~33-66 kJ).
            let jump = 1 + self.next_u64() % (1u64 << 31);
            return Ok(value.wrapping_sub(jump) & 0xFFFF_FFFF);
        }
        Ok(value)
    }
}

/// A read-side fault decorator over any [`MsrDevice`].
///
/// Reads pass through `plan`'s MSR-level faults; writes are refused (the
/// measurement pipeline never writes through its probe device, and faults
/// must not reach the control registers).
pub struct FaultyMsr<'a> {
    dev: &'a dyn MsrDevice,
    plan: &'a FaultPlan,
}

impl<'a> FaultyMsr<'a> {
    /// Decorate `dev` with the faults scripted in `plan`.
    pub fn new(dev: &'a dyn MsrDevice, plan: &'a FaultPlan) -> Self {
        FaultyMsr { dev, plan }
    }
}

impl MsrDevice for FaultyMsr<'_> {
    fn read_msr(&self, core: CoreId, msr: u32) -> Result<u64, MsrError> {
        let value = self.dev.read_msr(core, msr)?;
        self.plan.filter_read(core, msr, value)
    }

    fn write_msr(&mut self, _core: CoreId, msr: u32, _value: u64) -> Result<(), MsrError> {
        Err(MsrError::ReadOnly(msr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snap::{assert_rejects_corruption, SnapReader, SnapWriter};
    use crate::engine::{Machine, MachineConfig};
    use crate::NS_PER_SEC;

    fn machine_after_1s() -> Machine {
        let mut m = Machine::new(MachineConfig::sandybridge_2x8());
        m.advance(NS_PER_SEC);
        m
    }

    #[test]
    fn default_plan_is_transparent() {
        let m = machine_after_1s();
        let plan = FaultPlan::new(1);
        let faulty = FaultyMsr::new(&m, &plan);
        let truth = m.read_msr(CoreId(0), MSR_PKG_ENERGY_STATUS).unwrap();
        for _ in 0..100 {
            assert_eq!(faulty.read_msr(CoreId(0), MSR_PKG_ENERGY_STATUS), Ok(truth));
        }
    }

    #[test]
    fn transient_rate_produces_transient_errors() {
        let m = machine_after_1s();
        let plan = FaultPlan::new(2).with_transient_error_rate(0.5);
        let faulty = FaultyMsr::new(&m, &plan);
        let mut errors = 0;
        for _ in 0..200 {
            match faulty.read_msr(CoreId(0), MSR_PKG_ENERGY_STATUS) {
                Err(MsrError::Transient(msr)) => {
                    assert_eq!(msr, MSR_PKG_ENERGY_STATUS);
                    errors += 1;
                }
                Ok(_) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!((40..160).contains(&errors), "rate 0.5 gave {errors}/200 errors");
    }

    #[test]
    fn stuck_window_freezes_the_counter() {
        let mut m = machine_after_1s();
        let plan = FaultPlan::new(3).with_stuck_counter(2, 3);
        let mut reads = Vec::new();
        for _ in 0..8 {
            let faulty = FaultyMsr::new(&m, &plan);
            reads.push(faulty.read_msr(CoreId(0), MSR_PKG_ENERGY_STATUS).unwrap());
            m.advance(NS_PER_SEC / 10);
        }
        // Reads 2, 3, 4 are frozen at read 2's value; the rest advance.
        assert!(reads[1] > reads[0]);
        assert_eq!(reads[2], reads[3]);
        assert_eq!(reads[3], reads[4]);
        assert!(reads[5] > reads[4], "counter must resume after the window");
        assert!(reads[7] > reads[6]);
    }

    #[test]
    fn extra_wrap_back_jumps_the_counter() {
        let m = machine_after_1s();
        let plan = FaultPlan::new(4).with_extra_wrap_rate(1.0);
        let faulty = FaultyMsr::new(&m, &plan);
        let truth = m.read_msr(CoreId(0), MSR_PKG_ENERGY_STATUS).unwrap();
        let corrupted = faulty.read_msr(CoreId(0), MSR_PKG_ENERGY_STATUS).unwrap();
        assert_ne!(corrupted, truth);
        assert!(corrupted < 1u64 << 32, "stays a 32-bit value");
    }

    #[test]
    fn stall_window_contains_half_open() {
        let plan = FaultPlan::new(5).with_stall(100, 200);
        assert!(!plan.stalled_at(99));
        assert!(plan.stalled_at(100));
        assert!(plan.stalled_at(199));
        assert!(!plan.stalled_at(200));
    }

    #[test]
    fn jitter_draw_is_bounded() {
        let plan = FaultPlan::new(6).with_sample_jitter(5_000_000);
        for _ in 0..100 {
            assert!(plan.draw_jitter_ns() <= 5_000_000);
        }
        let quiet = FaultPlan::new(7);
        assert_eq!(quiet.draw_jitter_ns(), 0);
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let draws = |seed: u64| {
            let plan = FaultPlan::new(seed).with_drop_sample_rate(0.3);
            (0..32).map(|_| plan.should_drop_sample()).collect::<Vec<_>>()
        };
        assert_eq!(draws(42), draws(42));
        assert_ne!(draws(42), draws(43));
    }

    #[test]
    fn default_plan_writes_are_clean() {
        let plan = FaultPlan::new(10);
        assert!(!plan.has_duty_write_faults());
        for level in 1..=32u8 {
            let v = crate::duty::DutyCycle::new(level).unwrap().encode_msr();
            assert_eq!(plan.filter_duty_write(v), DutyWriteEffect::Clean);
        }
    }

    #[test]
    fn torn_writes_land_a_different_valid_encoding() {
        let plan = FaultPlan::new(11).with_duty_write_torn_rate(1.0);
        for level in 1..=32u8 {
            let requested = crate::duty::DutyCycle::new(level).unwrap().encode_msr();
            match plan.filter_duty_write(requested) {
                DutyWriteEffect::Torn(v) => {
                    let torn = crate::duty::DutyCycle::decode_msr(v)
                        .expect("torn value must still be a valid encoding");
                    assert_ne!(torn.level(), level, "torn write must differ from request");
                }
                other => panic!("expected torn effect, got {other:?}"),
            }
        }
    }

    #[test]
    fn failed_and_ignored_writes_roll_deterministically() {
        let draws = |seed: u64| {
            let plan = FaultPlan::new(seed)
                .with_duty_write_fail_rate(0.3)
                .with_duty_write_ignore_rate(0.3);
            (0..64).map(|_| plan.filter_duty_write(0)).collect::<Vec<_>>()
        };
        assert_eq!(draws(9), draws(9));
        let effects = draws(9);
        assert!(effects.contains(&DutyWriteEffect::Fail));
        assert!(effects.contains(&DutyWriteEffect::Ignored));
        assert!(effects.contains(&DutyWriteEffect::Clean));
    }

    #[test]
    fn kill_schedule_consumes_in_order() {
        let plan = FaultPlan::new(12).with_daemon_kills(&[300, 100, 200]);
        assert_eq!(plan.daemon_kills(), &[100, 200, 300], "schedule is sorted");
        assert_eq!(plan.kill_due(50), None);
        assert_eq!(plan.kill_due(150), Some(100));
        assert_eq!(plan.kill_due(150), None, "each kill fires once");
        // Two overdue kills collapse into the latest.
        assert_eq!(plan.kill_due(1000), Some(300));
        assert_eq!(plan.kill_due(u64::MAX), None);
    }

    #[test]
    fn task_fault_schedules_consume_in_order() {
        let plan = FaultPlan::new(14)
            .with_task_panic_at_steps(&[50, 10])
            .with_task_wedge_at_steps(&[30]);
        assert!(plan.has_task_faults());
        assert!(!plan.task_panic_due(5));
        assert!(plan.task_panic_due(10), "first scripted panic fires at its step");
        assert!(!plan.task_panic_due(10), "each entry fires once");
        assert!(plan.task_panic_due(200), "overdue entries still fire");
        assert!(!plan.task_panic_due(u64::MAX));
        assert!(!plan.task_wedge_due(29));
        assert!(plan.task_wedge_due(30));
        assert!(!plan.task_wedge_due(u64::MAX));
    }

    #[test]
    fn lost_wake_rate_rolls_deterministically() {
        let draws = |seed: u64| {
            let plan = FaultPlan::new(seed).with_lost_wake_rate(0.5);
            (0..64).map(|_| plan.lose_wake()).collect::<Vec<_>>()
        };
        assert_eq!(draws(15), draws(15));
        let lost = draws(15).iter().filter(|&&b| b).count();
        assert!((10..54).contains(&lost), "rate 0.5 gave {lost}/64 lost wakes");
        let quiet = FaultPlan::new(16);
        assert!(!quiet.has_task_faults());
        assert!(!quiet.lose_wake());
    }

    #[test]
    fn cloned_plan_replays_task_fault_state() {
        let plan = FaultPlan::new(17).with_task_panic_at_steps(&[3]);
        assert!(plan.task_panic_due(3));
        let cloned = plan.clone();
        assert!(!cloned.task_panic_due(100), "clone carries consumed entries");
    }

    /// A plan's dynamic state as [`FaultPlan::codec`] writes it.
    fn encoded(plan: Option<&FaultPlan>) -> Vec<u8> {
        let mut w = SnapWriter::new();
        FaultPlan::codec(plan, &mut w).unwrap();
        w.finish()
    }

    #[test]
    fn cursor_round_trip_resumes_the_exact_fault_stream() {
        let config = || {
            FaultPlan::new(21)
                .with_drop_sample_rate(0.4)
                .with_daemon_kills(&[100, 200, 300])
                .with_task_panic_at_steps(&[5, 10])
                .with_stuck_counter(3, 10)
        };
        let plan = config();
        let m = machine_after_1s();
        // Burn through some of the stream and schedules.
        for _ in 0..7 {
            plan.should_drop_sample();
            let faulty = FaultyMsr::new(&m, &plan);
            faulty.read_msr(CoreId(0), MSR_PKG_ENERGY_STATUS).unwrap();
        }
        plan.kill_due(150);
        plan.task_panic_due(6);
        assert_eq!((plan.kills_consumed.get(), plan.panics_consumed.get()), (1, 1));
        assert!(!plan.frozen.borrow().is_empty(), "stuck window left a frozen entry");
        // Serialize → decode into a fresh plan with the same static config,
        // then check the streams stay in lockstep.
        let bytes = encoded(Some(&plan));
        assert_rejects_corruption(&bytes, |input| {
            let mut r = SnapReader::new(input);
            FaultPlan::codec(Some(&plan), &mut r)?;
            r.finish()
        });
        let mut r = SnapReader::new(&bytes);
        let twin = FaultPlan::codec(Some(&config()), &mut r).unwrap().expect("a decoded plan");
        r.finish().unwrap();
        assert_eq!(encoded(Some(&twin)), bytes, "restored plan diffs clean");
        for _ in 0..16 {
            assert_eq!(twin.should_drop_sample(), plan.should_drop_sample());
        }
        assert_eq!(twin.kill_due(1000), plan.kill_due(1000));
        assert_eq!(encoded(Some(&twin)), encoded(Some(&plan)));
    }

    #[test]
    fn opt_plan_presence_mismatch_is_rejected() {
        let bytes = encoded(Some(&FaultPlan::new(22)));
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(FaultPlan::codec(None, &mut r), Err(SnapError::Corrupt(_))));
        let bytes = encoded(None);
        let mut r = SnapReader::new(&bytes);
        assert!(FaultPlan::codec(None, &mut r).unwrap().is_none());
        r.finish().unwrap();
    }

    #[test]
    fn writes_through_the_decorator_are_refused() {
        let m = machine_after_1s();
        let plan = FaultPlan::new(8);
        let mut faulty = FaultyMsr::new(&m, &plan);
        assert_eq!(
            faulty.write_msr(CoreId(0), crate::msr::IA32_CLOCK_MODULATION, 0),
            Err(MsrError::ReadOnly(crate::msr::IA32_CLOCK_MODULATION))
        );
    }
}
