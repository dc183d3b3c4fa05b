//! The sampling daemon.
//!
//! Runs (in virtual time) every 0.1 s: reads the RAPL counters through the
//! `maestro-rapl` probes, smooths power over a short sliding window, reads
//! the memory-concurrency meter and package temperature, and publishes one
//! [`SocketSnapshot`] per package to the
//! blackboard. The polling period is adjustable "to allow control of
//! overhead versus responsiveness" (§IV).
//!
//! The daemon is built to degrade, not die: MSR reads go through the probe's
//! bounded retries, corrupt readings are rejected by the power window and
//! published as carried-forward values flagged [`HealthFlags::OUTLIER`],
//! stuck counters are detected and flagged [`HealthFlags::STUCK`], and a
//! failed or dropped tick simply reschedules — [`RcrDaemon::sample`] tells
//! the caller whether it published, every outcome is tallied in
//! [`DaemonHealth`], and no fault reachable through a `FaultPlan` panics.

use maestro_machine::snap::{Codec, SnapError};
use maestro_machine::{FaultPlan, FaultyMsr, Machine, SocketId};
use maestro_rapl::{NodeProbe, PowerWindow};

use crate::blackboard::{Blackboard, HealthFlags, SocketSnapshot};
use crate::DEFAULT_SAMPLE_PERIOD_NS;

/// A socket is flagged [`HealthFlags::STUCK`] once its energy counter has
/// been flat for this many consecutive published samples.
const STUCK_THRESHOLD_PERIODS: u32 = 2;

/// Running tallies of the daemon's sampling outcomes.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DaemonHealth {
    /// Ticks that published fresh snapshots.
    pub published: u64,
    /// Ticks dropped whole (stall windows, missed wakeups).
    pub dropped: u64,
    /// Ticks on which the probe failed after exhausting its retries.
    pub probe_failures: u64,
    /// Published ticks that needed more than one MSR read attempt.
    pub retried_samples: u64,
    /// Published ticks on which at least one socket's counter looked stuck.
    pub stuck_periods: u64,
    /// Published ticks on which at least one window rejected the reading.
    pub outlier_periods: u64,
}

impl std::ops::AddAssign for DaemonHealth {
    fn add_assign(&mut self, o: DaemonHealth) {
        self.published += o.published;
        self.dropped += o.dropped;
        self.probe_failures += o.probe_failures;
        self.retried_samples += o.retried_samples;
        self.stuck_periods += o.stuck_periods;
        self.outlier_periods += o.outlier_periods;
    }
}

impl DaemonHealth {
    /// The snapshot codec for the tallies (see [`Codec`]).
    pub fn codec<C: Codec>(&self, c: &mut C) -> Result<Self, SnapError> {
        Ok(DaemonHealth {
            published: c.u64(self.published)?,
            dropped: c.u64(self.dropped)?,
            probe_failures: c.u64(self.probe_failures)?,
            retried_samples: c.u64(self.retried_samples)?,
            stuck_periods: c.u64(self.stuck_periods)?,
            outlier_periods: c.u64(self.outlier_periods)?,
        })
    }
}

/// Saved daemon state, sufficient for a restarted incarnation to continue
/// energy accounting and publication numbering where its predecessor died.
///
/// The power-smoothing windows are deliberately *not* part of the
/// checkpoint: their contents went stale during the outage, so a restarted
/// daemon re-warms them and publishes [`HealthFlags::NO_POWER`] until a
/// fresh estimate exists, instead of serving pre-crash power as current.
#[derive(Clone, Debug)]
pub struct DaemonCheckpoint {
    /// The wrap-corrected energy meter, one tracker per socket.
    pub probe: NodeProbe,
    /// Publications by the dead incarnation (keeps `seq` monotone).
    pub samples_taken: u64,
}

impl DaemonCheckpoint {
    /// The snapshot codec (see [`Codec`]): the probe, then the publication
    /// count. Decoding yields a copy of this checkpoint carrying the decoded
    /// state.
    pub fn codec<C: Codec>(&self, c: &mut C) -> Result<Self, SnapError> {
        Ok(DaemonCheckpoint {
            probe: self.probe.codec(c)?,
            samples_taken: c.u64(self.samples_taken)?,
        })
    }
}

/// The RCR daemon: owns the probes, publishes to a [`Blackboard`].
#[derive(Clone, Debug)]
pub struct RcrDaemon {
    blackboard: Blackboard,
    probe: NodeProbe,
    windows: Vec<PowerWindow>,
    period_ns: u64,
    next_due_ns: u64,
    samples_taken: u64,
    faults: Option<FaultPlan>,
    health: DaemonHealth,
}

impl RcrDaemon {
    /// A daemon for `machine`'s topology with the default 0.1 s period.
    pub fn new(machine: &Machine) -> Self {
        Self::with_period(machine, DEFAULT_SAMPLE_PERIOD_NS)
    }

    /// A daemon with a custom sampling period (must be positive).
    pub fn with_period(machine: &Machine, period_ns: u64) -> Self {
        assert!(period_ns > 0, "sampling period must be positive");
        let topo = machine.topology();
        let sockets = topo.sockets as usize;
        RcrDaemon {
            blackboard: Blackboard::new(sockets),
            probe: NodeProbe::new(topo),
            // Smooth over a few periods, like the paper's jitter guidance.
            windows: (0..sockets).map(|_| PowerWindow::new(period_ns.saturating_mul(3))).collect(),
            period_ns,
            next_due_ns: machine.now_ns(),
            samples_taken: 0,
            faults: None,
            health: DaemonHealth::default(),
        }
    }

    /// Run all sampling through `plan`'s scripted faults (tests and
    /// resilience experiments).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Publish into an existing shared region instead of a fresh one — how a
    /// supervisor re-attaches a restarted daemon so readers keep their
    /// handles. The region must have one record per socket.
    pub fn attach_blackboard(mut self, blackboard: Blackboard) -> Self {
        assert_eq!(
            blackboard.sockets(),
            self.blackboard.sockets(),
            "shared region does not match this machine's socket count"
        );
        self.blackboard = blackboard;
        self
    }

    /// Refresh `cp` to the state a replacement incarnation needs (see
    /// [`DaemonCheckpoint`]). Reuses the held probe's buffer, so refreshing
    /// once per published sample allocates nothing.
    pub fn checkpoint_into(&self, cp: &mut Option<DaemonCheckpoint>) {
        let cp = cp.get_or_insert_with(|| DaemonCheckpoint {
            probe: self.probe.clone(),
            samples_taken: self.samples_taken,
        });
        cp.probe.clone_from(&self.probe);
        cp.samples_taken = self.samples_taken;
    }

    /// Continue a predecessor's checkpoint in this (freshly built) daemon:
    /// energy accounting carries on from a clone of its probe and publication
    /// numbering stays monotone. The RAPL counters kept running through the
    /// outage, so the first sample books the gap, as long as the outage
    /// stayed within one wrap period (~15 min under load) — the same bound
    /// the live sampler works under.
    pub fn restore(mut self, cp: &DaemonCheckpoint) -> Self {
        self.probe.clone_from(&cp.probe);
        self.samples_taken = cp.samples_taken;
        self
    }

    /// The shared region this daemon publishes into (clone to hand to
    /// readers on other threads).
    pub fn blackboard(&self) -> &Blackboard {
        &self.blackboard
    }

    /// The sampling period, nanoseconds.
    pub fn period_ns(&self) -> u64 {
        self.period_ns
    }

    /// Virtual time at which the next sample is due.
    ///
    /// This is an *event*, not a polled condition: the runtime holds it in
    /// a timer queue and jumps the virtual clock straight to it. It moves
    /// only inside [`RcrDaemon::sample`] (and on state restore) — the
    /// stability window the scheduler's `Monitor` due-time contract
    /// requires.
    pub fn next_due_ns(&self) -> u64 {
        self.next_due_ns
    }

    /// Total samples published so far.
    pub fn samples_taken(&self) -> u64 {
        self.samples_taken
    }

    /// Outcome tallies since construction.
    pub fn health(&self) -> DaemonHealth {
        self.health
    }

    /// The snapshot codec for the daemon's complete dynamic state: probe
    /// wrap trackers, smoothing windows, schedule cursor, publication
    /// counter, health tallies, and the fault plan's dynamic state (see
    /// [`Codec`]). Unlike [`RcrDaemon::checkpoint_into`] (crash recovery, which
    /// deliberately drops the windows), this is for bit-exact
    /// suspend/resume: everything needed to continue the *same* incarnation
    /// is captured. The shared blackboard is owned by the enclosing run and
    /// captured separately. Decoding requires a daemon built with the same
    /// configuration (period, fault plan presence, machine topology), and
    /// yields a copy of this daemon carrying the decoded state (`None` on
    /// the writer).
    pub fn codec<C: Codec>(&self, c: &mut C) -> Result<Option<RcrDaemon>, SnapError> {
        let probe = self.probe.codec(c)?;
        c.check_u64(self.period_ns, "daemon period mismatch")?;
        let windows =
            c.seq_fixed(&self.windows, "daemon window count mismatch", |c, w| w.codec(c))?;
        let next_due_ns = c.u64(self.next_due_ns)?;
        let samples_taken = c.u64(self.samples_taken)?;
        let health = self.health.codec(c)?;
        // A retired sample-history section: always absent, its presence
        // byte kept so the wire layout is unchanged.
        if c.bool(false)? {
            return Err(SnapError::Corrupt("daemon history section is not supported"));
        }
        let faults = FaultPlan::codec(self.faults.as_ref(), c)?;
        Ok(C::DECODING.then(|| RcrDaemon {
            probe,
            windows,
            next_due_ns,
            samples_taken,
            health,
            faults,
            ..self.clone()
        }))
    }

    fn schedule_next(&mut self, now: u64) {
        let jitter = self.faults.as_ref().map_or(0, |p| p.draw_jitter_ns());
        self.next_due_ns = now + self.period_ns + jitter;
    }

    /// Take one sample *now* and publish it; schedules the next due time.
    ///
    /// The scheduler calls this when virtual time reaches
    /// [`RcrDaemon::next_due_ns`]. Returns true when fresh snapshots
    /// reached the blackboard for every socket. Never panics: stalled or
    /// dropped ticks and probe failures publish nothing, corrupt readings
    /// publish flagged carried-forward values, and all of them are tallied
    /// in [`RcrDaemon::health`] while the daemon reschedules itself and
    /// keeps going.
    #[must_use = "a robust caller must notice when the daemon failed to publish"]
    pub fn sample(&mut self, machine: &Machine) -> bool {
        let now = machine.now_ns();
        // Daemon-level faults: a stalled or dropped tick publishes nothing
        // and retries at the next period boundary.
        if let Some(plan) = &self.faults {
            if plan.stalled_at(now) {
                self.health.dropped += 1;
                self.next_due_ns = now + self.period_ns;
                return false;
            }
            if plan.should_drop_sample() {
                self.health.dropped += 1;
                self.schedule_next(now);
                return false;
            }
        }
        // NodeProbe::sample updates every socket's wrap tracker; a failure
        // commits nothing, so cumulative energy stays correct.
        let read = match &self.faults {
            Some(plan) => self.probe.sample(&FaultyMsr::new(machine, plan)),
            None => self.probe.sample(machine),
        };
        let Ok(reading) = read else {
            self.health.probe_failures += 1;
            self.schedule_next(now);
            return false;
        };
        let base_flags =
            if reading.retried { HealthFlags::RETRIED } else { HealthFlags::OK };
        if reading.retried {
            self.health.retried_samples += 1;
        }
        let per_socket: Vec<(SocketId, f64)> = self.probe.joules_per_socket();
        let mut any_stuck = false;
        let mut any_outlier = false;
        for (socket, joules) in per_socket {
            let idx = socket.index();
            let mut flags = base_flags;
            if !self.windows[idx].push(now, joules) {
                // Rejected as corrupt: carry the last good meters forward,
                // honestly labeled.
                flags = flags.with(HealthFlags::OUTLIER);
                any_outlier = true;
            }
            if self.windows[idx].flat_run() >= STUCK_THRESHOLD_PERIODS {
                flags = flags.with(HealthFlags::STUCK);
                any_stuck = true;
            }
            // No estimate yet (first sample of this incarnation, or the
            // window lost its points): publish NaN + NO_POWER, never a fake
            // 0 W that would read as "idle socket" downstream.
            let power = match self.windows[idx].average_watts() {
                Some(p) => p,
                None => {
                    flags = flags.with(HealthFlags::NO_POWER);
                    f64::NAN
                }
            };
            let snap = SocketSnapshot {
                power_w: power,
                mem_concurrency: machine.socket_outstanding_refs(socket),
                temp_c: machine.temperature_c(socket),
                energy_j: joules,
                updated_at_ns: now,
                seq: self.samples_taken + 1,
                flags,
            };
            self.blackboard.publish(idx, snap);
        }
        self.health.published += 1;
        self.health.stuck_periods += u64::from(any_stuck);
        self.health.outlier_periods += u64::from(any_outlier);
        self.samples_taken += 1;
        self.schedule_next(now);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_machine::snap::{assert_rejects_corruption, SnapReader, SnapWriter};
    use maestro_machine::{CoreActivity, MachineConfig, NS_PER_SEC};

    fn machine() -> Machine {
        Machine::new(MachineConfig::sandybridge_2x8())
    }

    fn run_daemon(m: &mut Machine, d: &mut RcrDaemon, duration_ns: u64) {
        let end = m.now_ns() + duration_ns;
        while m.now_ns() < end {
            if m.now_ns() >= d.next_due_ns() {
                let _ = d.sample(m);
            }
            m.advance(d.period_ns());
        }
        let _ = d.sample(m);
    }

    #[test]
    fn publishes_smoothed_power_for_busy_node() {
        let mut m = machine();
        for c in m.topology().all_cores() {
            m.set_activity(c, CoreActivity::Busy { intensity: 0.9, ocr: 1.5 });
        }
        let mut d = RcrDaemon::new(&m);
        run_daemon(&mut m, &mut d, 2 * NS_PER_SEC);
        let bb = d.blackboard();
        assert!(!bb.is_warming_up());
        let node_power = bb.node_power_w();
        assert!((120.0..=170.0).contains(&node_power), "node {node_power} W");
        for s in bb.snapshot_all() {
            assert!(s.power_w > 50.0, "per-socket power {s:?}");
            assert!(s.temp_c > 40.0);
            assert!(s.energy_j > 0.0);
            assert_eq!(s.flags, HealthFlags::OK);
            assert_eq!(s.seq, d.samples_taken());
        }
        assert_eq!(d.health().published, d.samples_taken());
        assert_eq!(d.health().probe_failures, 0);
    }

    #[test]
    fn memory_concurrency_meter_reflects_activity() {
        let mut m = machine();
        for c in m.topology().cores_of(SocketId(0)) {
            m.set_activity(c, CoreActivity::Busy { intensity: 0.3, ocr: 5.0 });
        }
        let mut d = RcrDaemon::new(&m);
        run_daemon(&mut m, &mut d, NS_PER_SEC / 2);
        let s0 = d.blackboard().snapshot(0);
        let s1 = d.blackboard().snapshot(1);
        assert!((s0.mem_concurrency - 40.0).abs() < 1e-9, "{s0:?}");
        assert_eq!(s1.mem_concurrency, 0.0);
    }

    #[test]
    fn period_is_respected() {
        let mut m = machine();
        let mut d = RcrDaemon::with_period(&m, 50_000_000);
        assert_eq!(d.next_due_ns(), 0);
        assert!(d.sample(&m));
        assert_eq!(d.next_due_ns(), 50_000_000);
        m.advance(50_000_000);
        assert!(d.sample(&m));
        assert_eq!(d.samples_taken(), 2);
        assert_eq!(d.next_due_ns(), 100_000_000);
    }

    #[test]
    fn idle_node_classifies_low_power() {
        use crate::classify::{Level, MeterThresholds};
        let mut m = machine();
        let mut d = RcrDaemon::new(&m);
        run_daemon(&mut m, &mut d, NS_PER_SEC);
        let t = MeterThresholds::paper_power_w();
        for s in d.blackboard().snapshot_all() {
            assert_eq!(t.classify(s.power_w), Level::Low, "{s:?}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_rejected() {
        let m = machine();
        RcrDaemon::with_period(&m, 0);
    }

    #[test]
    fn transient_errors_are_retried_and_flagged() {
        let mut m = machine();
        for c in m.topology().all_cores() {
            m.set_activity(c, CoreActivity::Busy { intensity: 0.9, ocr: 1.5 });
        }
        let plan = FaultPlan::new(21).with_transient_error_rate(0.3);
        let mut d = RcrDaemon::new(&m).with_faults(plan);
        run_daemon(&mut m, &mut d, 3 * NS_PER_SEC);
        let h = d.health();
        assert!(h.retried_samples > 0, "retries should have happened: {h:?}");
        assert!(h.published > 20, "most ticks still publish: {h:?}");
        // Published power stays physical despite the fault storm.
        let node_power = d.blackboard().node_power_w();
        assert!((120.0..=170.0).contains(&node_power), "node {node_power} W");
    }

    #[test]
    fn stall_window_drops_ticks_and_recovers() {
        let mut m = machine();
        let plan = FaultPlan::new(22).with_stall(NS_PER_SEC, 2 * NS_PER_SEC);
        let mut d = RcrDaemon::new(&m).with_faults(plan);
        run_daemon(&mut m, &mut d, 3 * NS_PER_SEC);
        let h = d.health();
        assert!(h.dropped >= 9, "a 1 s stall at 0.1 s period drops ~10 ticks: {h:?}");
        let stale = d.blackboard().staleness_ns(m.now_ns());
        assert!(stale <= 2 * d.period_ns(), "publishing resumed after the stall: {stale}");
    }

    #[test]
    fn stuck_counter_is_flagged_and_clears() {
        let mut m = machine();
        for c in m.topology().all_cores() {
            m.set_activity(c, CoreActivity::Busy { intensity: 0.9, ocr: 1.5 });
        }
        // Freeze the energy counter for 8 node samples (16 socket reads)
        // after the first 10 socket reads.
        let plan = FaultPlan::new(23).with_stuck_counter(10, 16);
        let mut d = RcrDaemon::new(&m).with_faults(plan);
        let mut saw_stuck = false;
        for _ in 0..30 {
            m.advance(d.period_ns());
            let _ = d.sample(&m);
            if !d.blackboard().is_healthy() {
                saw_stuck = true;
            }
        }
        assert!(saw_stuck, "stuck window should mark the board unhealthy");
        assert!(d.health().stuck_periods > 0);
        assert!(d.blackboard().is_healthy(), "flag clears once the counter moves again");
    }

    #[test]
    fn full_snapshot_resumes_bit_identically() {
        // Two machines driven identically; daemon B is rebuilt from a
        // mid-run snapshot of daemon A. After the same continuation, every
        // observable (blackboard records, health, schedule) must be
        // bit-identical — including the fault plan's RNG cursor.
        let drive = |m: &mut Machine| {
            for c in m.topology().all_cores() {
                m.set_activity(c, CoreActivity::Busy { intensity: 0.8, ocr: 1.2 });
            }
        };
        let mut m = machine();
        drive(&mut m);
        let plan = FaultPlan::new(31).with_transient_error_rate(0.2).with_sample_jitter(5_000_000);
        let mut a = RcrDaemon::new(&m).with_faults(plan.clone());
        run_daemon(&mut m, &mut a, NS_PER_SEC);

        let mut w = SnapWriter::new();
        a.codec(&mut w).unwrap();
        let bytes = w.finish();

        // Fresh daemon with identical construction, fed the snapshot. Its
        // machine is advanced to the same point by replaying the clock.
        let mut m2 = machine();
        drive(&mut m2);
        let plan2 = FaultPlan::new(31).with_transient_error_rate(0.2).with_sample_jitter(5_000_000);
        let mut b = RcrDaemon::new(&m2).with_faults(plan2);
        while m2.now_ns() < m.now_ns() {
            m2.advance((m.now_ns() - m2.now_ns()).min(100_000_000));
        }
        let mut r = SnapReader::new(&bytes);
        let decoded = b.codec(&mut r).unwrap().expect("decoded");
        r.finish().unwrap();
        assert_rejects_corruption(&bytes, |input| {
            let mut r = SnapReader::new(input);
            b.codec(&mut r)?;
            r.finish()
        });
        b = decoded;

        run_daemon(&mut m, &mut a, NS_PER_SEC);
        run_daemon(&mut m2, &mut b, NS_PER_SEC);
        assert_eq!(a.samples_taken(), b.samples_taken());
        assert_eq!(a.health(), b.health());
        assert_eq!(a.next_due_ns(), b.next_due_ns());
        for (x, y) in a.blackboard().snapshot_all().iter().zip(b.blackboard().snapshot_all()) {
            assert_eq!(x.power_w.to_bits(), y.power_w.to_bits(), "{x:?} vs {y:?}");
            assert_eq!(x.energy_j.to_bits(), y.energy_j.to_bits());
            assert_eq!((x.updated_at_ns, x.seq, x.flags), (y.updated_at_ns, y.seq, y.flags));
        }
    }

    #[test]
    fn restore_into_mismatched_daemon_is_rejected() {
        let m = machine();
        let d = RcrDaemon::new(&m);
        let mut w = SnapWriter::new();
        d.codec(&mut w).unwrap();
        let mut bytes = w.finish();
        // Different period → config mismatch.
        let other = RcrDaemon::with_period(&m, 50_000_000);
        assert!(other.codec(&mut SnapReader::new(&bytes)).is_err());
        // The retired history section's presence byte (just before the
        // fault-plan presence byte) must stay unset.
        let at = bytes.len() - 2;
        assert_eq!(bytes[at], 0);
        bytes[at] = 1;
        assert!(matches!(d.codec(&mut SnapReader::new(&bytes)), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn jitter_delays_but_never_skips_scheduling() {
        let mut m = machine();
        let plan = FaultPlan::new(24).with_sample_jitter(20_000_000);
        let mut d = RcrDaemon::new(&m).with_faults(plan);
        let mut last_due = 0;
        for _ in 0..20 {
            m.advance(d.next_due_ns() - m.now_ns());
            let _ = d.sample(&m);
            assert!(d.next_due_ns() >= last_due + d.period_ns());
            assert!(d.next_due_ns() <= m.now_ns() + d.period_ns() + 20_000_000);
            last_due = d.next_due_ns();
        }
    }
}
