//! Daemon supervision: death detection, backoff restart, state restore.
//!
//! PR 1 taught the control plane to *detect* a dead or wedged RCRdaemon (the
//! watchdog, safe mode). This module makes the pipeline *recover* the way a
//! real init/systemd-style supervisor would treat the paper's system-level
//! daemon: when the daemon dies (scripted kill) or wedges (blackboard goes
//! stale beyond a timeout), the [`Supervisor`]
//!
//! 1. tears the incarnation down and waits out an **exponential backoff**
//!    (bounded, with a total **restart budget** — a crash-looping daemon
//!    must not take the node down with it);
//! 2. builds a fresh [`RcrDaemon`] **re-attached to the same blackboard**,
//!    bumping the region's epoch counter so readers can tell that snapshots
//!    taken before the crash belong to a dead incarnation;
//! 3. **restores the predecessor's checkpoint** ([`DaemonCheckpoint`]) so
//!    wrap-corrected energy accounting and publication numbering continue
//!    across the outage — the RAPL counters kept counting while the daemon
//!    was down, and the restored wrap trackers book the gap.
//!
//! When the budget is exhausted the supervisor gives up permanently; the
//! controller above sees permanently-unpublished periods and fails open via
//! safe mode, which is the correct terminal state: full performance, no
//! energy optimization, honest reporting.

use maestro_machine::snap::{Codec, SnapError};
use maestro_machine::{FaultPlan, Machine};
use maestro_rapl::RetryPolicy;

use crate::blackboard::{Blackboard, BlackboardState};
use crate::daemon::{DaemonCheckpoint, DaemonHealth, RcrDaemon, SampleOutcome};
use crate::DEFAULT_SAMPLE_PERIOD_NS;

/// Restart policy for a supervised daemon.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Total restarts allowed over the supervisor's lifetime; one more death
    /// after the budget is spent and the supervisor gives up for good.
    pub restart_budget: u32,
    /// Backoff before the first restart, nanoseconds.
    pub initial_backoff_ns: u64,
    /// Backoff multiplier per successive restart (exponential).
    pub backoff_multiplier: u32,
    /// Backoff ceiling, nanoseconds.
    pub max_backoff_ns: u64,
    /// Treat a *running* daemon whose blackboard is staler than this as
    /// wedged and restart it. `None` disables wedge detection (deaths are
    /// then only the scripted kills of a [`FaultPlan`]).
    pub wedge_timeout_ns: Option<u64>,
}

impl Default for SupervisorConfig {
    /// Five restarts, 50 ms initial backoff doubling to a 1 s ceiling, no
    /// wedge detection (opt in; the controller's safe mode already covers
    /// silent stalls).
    fn default() -> Self {
        SupervisorConfig {
            restart_budget: 5,
            initial_backoff_ns: 50_000_000,
            backoff_multiplier: 2,
            max_backoff_ns: 1_000_000_000,
            wedge_timeout_ns: None,
        }
    }
}

/// Lifetime tallies of one supervisor.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Daemon deaths observed (scripted kills + wedge detections).
    pub kills: u64,
    /// Deaths due to wedge detection specifically.
    pub wedge_kills: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// True once the restart budget is exhausted (terminal).
    pub gave_up: bool,
}

/// What one call to [`Supervisor::sample`] did.
#[derive(Debug)]
#[must_use = "a robust caller must notice when the pipeline is not publishing"]
pub enum SupervisorOutcome {
    /// The daemon ran; see the inner [`SampleOutcome`].
    Sampled(SampleOutcome),
    /// The daemon is dead and the restart backoff has not expired.
    Down {
        /// Virtual time the next restart attempt is due, nanoseconds.
        until_ns: u64,
    },
    /// The restart budget is exhausted; the pipeline is permanently dark.
    GaveUp,
}

impl SupervisorOutcome {
    /// True when fresh snapshots reached the blackboard this period.
    pub fn published(&self) -> bool {
        matches!(self, SupervisorOutcome::Sampled(o) if o.published())
    }
}

/// Supervisor state decoded by [`Supervisor::codec`], installed by
/// [`Supervisor::install`]: a copy of the supervisor carrying the decoded
/// state, plus the shared blackboard's records, which are published only
/// when installed.
#[derive(Debug)]
pub struct SupervisorState {
    supervisor: Option<Supervisor>,
    blackboard: BlackboardState,
}

/// Supervises an [`RcrDaemon`]: restarts it on death with exponential
/// backoff, re-attaches the shared blackboard (bumping its epoch), and
/// restores the measurement checkpoint so energy accounting survives.
#[derive(Clone, Debug)]
pub struct Supervisor {
    cfg: SupervisorConfig,
    blackboard: Blackboard,
    period_ns: u64,
    retry: RetryPolicy,
    faults: Option<FaultPlan>,
    daemon: Option<RcrDaemon>,
    down_until_ns: u64,
    next_due_ns: u64,
    checkpoint: Option<DaemonCheckpoint>,
    dead_health: DaemonHealth,
    stats: SupervisorStats,
}

impl Supervisor {
    /// Supervise a daemon for `machine` at the default 0.1 s period.
    pub fn new(machine: &Machine, cfg: SupervisorConfig) -> Self {
        Self::with_period(machine, DEFAULT_SAMPLE_PERIOD_NS, cfg)
    }

    /// Supervise with a custom sampling period.
    pub fn with_period(machine: &Machine, period_ns: u64, cfg: SupervisorConfig) -> Self {
        assert!(cfg.backoff_multiplier >= 1, "backoff multiplier must be at least 1");
        assert!(cfg.initial_backoff_ns > 0, "backoff must be positive");
        let daemon = RcrDaemon::with_period(machine, period_ns);
        let blackboard = daemon.blackboard().clone();
        Supervisor {
            cfg,
            blackboard,
            period_ns,
            retry: RetryPolicy::default(),
            faults: None,
            next_due_ns: daemon.next_due_ns(),
            daemon: Some(daemon),
            down_until_ns: 0,
            checkpoint: None,
            dead_health: DaemonHealth::default(),
            stats: SupervisorStats::default(),
        }
    }

    /// Probe retry policy for every daemon incarnation.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self.daemon = self.daemon.map(|d| d.with_retry(retry));
        self
    }

    /// Scripted faults: read faults and stalls go to every daemon
    /// incarnation (each gets its own clone of the plan); the scripted
    /// daemon-kill schedule is consumed by the supervisor itself.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.daemon = self.daemon.map(|d| d.with_faults(plan.clone()));
        self.faults = Some(plan);
        self
    }

    /// The shared region every incarnation publishes into.
    pub fn blackboard(&self) -> &Blackboard {
        &self.blackboard
    }

    /// The sampling period, nanoseconds.
    pub fn period_ns(&self) -> u64 {
        self.period_ns
    }

    /// Virtual time of the next supervision action (sample, or restart
    /// check while down).
    ///
    /// Stable between [`Supervisor::sample`] calls (and across snapshot
    /// restore), so the runtime can hold it in its timer queue and jump the
    /// clock to it — the `Monitor` due-time contract. While the daemon is
    /// down this is the backoff expiry (clamped to one period), so the
    /// scheduler wakes exactly when a restart becomes possible instead of
    /// polling for it.
    pub fn next_due_ns(&self) -> u64 {
        self.next_due_ns
    }

    /// Lifetime kill/restart tallies.
    pub fn stats(&self) -> SupervisorStats {
        self.stats
    }

    /// Publications by the *current* incarnation plus its restored lineage
    /// (monotone across restarts via the checkpoint).
    pub fn samples_taken(&self) -> u64 {
        self.daemon
            .as_ref()
            .map(|d| d.samples_taken())
            .or(self.checkpoint.as_ref().map(|c| c.samples_taken))
            .unwrap_or(0)
    }

    /// Sampling-outcome tallies accumulated across every incarnation.
    pub fn health(&self) -> DaemonHealth {
        let mut h = self.dead_health;
        if let Some(d) = &self.daemon {
            let c = d.health();
            h.published += c.published;
            h.dropped += c.dropped;
            h.probe_failures += c.probe_failures;
            h.retried_samples += c.retried_samples;
            h.stuck_periods += c.stuck_periods;
            h.outlier_periods += c.outlier_periods;
        }
        h
    }

    /// True while the daemon is dead (backoff pending or budget exhausted).
    pub fn is_down(&self) -> bool {
        self.daemon.is_none()
    }

    /// The snapshot codec for the whole supervision pipeline: the shared
    /// blackboard (epoch + records), the supervisor's scripted-kill cursor,
    /// the live daemon (when one exists) in full, the recovery checkpoint,
    /// accumulated dead-incarnation tallies, backoff state, and lifetime
    /// stats (see [`Codec`]). Together with a machine snapshot this is
    /// sufficient for bit-exact suspend/resume of the measurement pipeline.
    /// Decoding requires a supervisor built with the same configuration
    /// (period, retry policy, fault plan presence, machine topology).
    pub fn codec<C: Codec>(&self, c: &mut C) -> Result<SupervisorState, SnapError> {
        let blackboard = self.blackboard.codec(c)?;
        let cursor = FaultPlan::cursor_codec(self.faults.as_ref(), c)?;
        let daemon = match (c.bool(self.daemon.is_some())?, &self.daemon) {
            (false, _) => None,
            (true, Some(d)) => d.codec(c)?,
            (true, None) => {
                return Err(SnapError::Corrupt("snapshot has a live daemon, target has none"))
            }
        };
        let sockets = self.blackboard.sockets();
        let checkpoint = c.opt(self.checkpoint.as_ref(), |c, cp| {
            Ok(DaemonCheckpoint {
                probe: cp.probe.codec(c, sockets)?,
                samples_taken: c.u64(cp.samples_taken)?,
            })
        })?;
        let down_until_ns = c.u64(self.down_until_ns)?;
        let next_due_ns = c.u64(self.next_due_ns)?;
        let dead_health = self.dead_health.codec(c)?;
        let stats = SupervisorStats {
            kills: c.u64(self.stats.kills)?,
            wedge_kills: c.u64(self.stats.wedge_kills)?,
            restarts: c.u64(self.stats.restarts)?,
            gave_up: c.bool(self.stats.gave_up)?,
        };
        // A snapshot taken while the daemon was down discards the freshly
        // built incarnation without tallying a kill.
        let supervisor = C::DECODING.then(|| {
            let s = Supervisor {
                daemon,
                checkpoint,
                down_until_ns,
                next_due_ns,
                dead_health,
                stats,
                ..self.clone()
            };
            FaultPlan::install_cursor(s.faults.as_ref(), cursor);
            s
        });
        Ok(SupervisorState { supervisor, blackboard })
    }

    /// Install state decoded by [`Supervisor::codec`].
    pub fn install(&mut self, st: SupervisorState) {
        if let Some(s) = st.supervisor {
            *self = s;
        }
        self.blackboard.install(st.blackboard);
    }

    fn backoff_for_restart(&self, nth: u64) -> u64 {
        let mut b = self.cfg.initial_backoff_ns;
        for _ in 0..nth {
            b = b.saturating_mul(u64::from(self.cfg.backoff_multiplier));
            if b >= self.cfg.max_backoff_ns {
                return self.cfg.max_backoff_ns;
            }
        }
        b.min(self.cfg.max_backoff_ns)
    }

    /// Tear down the current incarnation (if any) at `now_ns`.
    fn kill(&mut self, now_ns: u64, wedge: bool) {
        let Some(d) = self.daemon.take() else { return };
        // Preserve the dead incarnation's tallies; its in-flight windows and
        // probe state die with it (the checkpoint carries what must survive).
        let h = d.health();
        self.dead_health.published += h.published;
        self.dead_health.dropped += h.dropped;
        self.dead_health.probe_failures += h.probe_failures;
        self.dead_health.retried_samples += h.retried_samples;
        self.dead_health.stuck_periods += h.stuck_periods;
        self.dead_health.outlier_periods += h.outlier_periods;
        self.stats.kills += 1;
        self.stats.wedge_kills += u64::from(wedge);
        if self.stats.restarts >= u64::from(self.cfg.restart_budget) {
            self.stats.gave_up = true;
        } else {
            self.down_until_ns = now_ns + self.backoff_for_restart(self.stats.restarts);
        }
    }

    /// Build and attach a replacement incarnation at `now`.
    fn restart(&mut self, machine: &Machine) {
        let mut d = RcrDaemon::with_period(machine, self.period_ns)
            .with_retry(self.retry)
            .attach_blackboard(self.blackboard.clone());
        if let Some(plan) = &self.faults {
            d = d.with_faults(plan.clone());
        }
        if let Some(cp) = &self.checkpoint {
            d = d.restore(cp);
        }
        self.blackboard.advance_epoch();
        self.stats.restarts += 1;
        self.daemon = Some(d);
    }

    /// Run one supervision period at the machine's current virtual time:
    /// process scripted kills and wedge detection, restart if the backoff
    /// has expired, and sample through the live daemon when there is one.
    /// Never panics; every degraded state is reported in the outcome.
    pub fn sample(&mut self, machine: &Machine) -> SupervisorOutcome {
        let now = machine.now_ns();

        if let Some(t) = self.faults.as_ref().and_then(|p| p.kill_due(now)) {
            let _ = t;
            self.kill(now, false);
        }
        if let (Some(_), Some(wedge)) = (&self.daemon, self.cfg.wedge_timeout_ns) {
            if self.blackboard.staleness_ns(now) > wedge {
                self.kill(now, true);
            }
        }

        if self.daemon.is_none() {
            if self.stats.gave_up {
                self.next_due_ns = now + self.period_ns;
                return SupervisorOutcome::GaveUp;
            }
            if now < self.down_until_ns {
                self.next_due_ns = self.down_until_ns.min(now + self.period_ns);
                return SupervisorOutcome::Down { until_ns: self.down_until_ns };
            }
            self.restart(machine);
        }

        let d = self.daemon.as_mut().expect("daemon is running here");
        let outcome = d.sample(machine);
        if outcome.published() {
            self.checkpoint = Some(d.checkpoint());
        }
        self.next_due_ns = d.next_due_ns();
        SupervisorOutcome::Sampled(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_machine::snap::{assert_rejects_corruption, SnapReader, SnapWriter};
    use crate::blackboard::HealthFlags;
    use maestro_machine::{CoreActivity, MachineConfig, SocketId, NS_PER_SEC};

    fn busy_machine() -> Machine {
        let mut m = Machine::new(MachineConfig::sandybridge_2x8());
        for c in m.topology().all_cores() {
            m.set_activity(c, CoreActivity::Busy { intensity: 0.9, ocr: 1.5 });
        }
        m
    }

    fn drive(m: &mut Machine, sup: &mut Supervisor, duration_ns: u64) {
        let end = m.now_ns() + duration_ns;
        while m.now_ns() < end {
            if m.now_ns() >= sup.next_due_ns() {
                let _ = sup.sample(m);
            }
            m.advance(10_000_000);
        }
    }

    #[test]
    fn kill_restarts_with_epoch_bump_and_energy_continuity() {
        let mut m = busy_machine();
        let plan = FaultPlan::new(41).with_daemon_kills(&[NS_PER_SEC]);
        let mut sup =
            Supervisor::new(&m, SupervisorConfig::default()).with_faults(plan);
        let bb = sup.blackboard().clone();
        assert_eq!(bb.epoch(), 0);
        drive(&mut m, &mut sup, 3 * NS_PER_SEC);

        let stats = sup.stats();
        assert_eq!(stats.kills, 1, "{stats:?}");
        assert_eq!(stats.restarts, 1, "{stats:?}");
        assert!(!stats.gave_up);
        assert_eq!(bb.epoch(), 1, "restart announces a new writer incarnation");

        // Energy accounting is exact across the outage: the checkpointed
        // wrap trackers book the gap on the first post-restart sample.
        let snaps = bb.snapshot_all();
        for (i, s) in snaps.iter().enumerate() {
            let truth = m.energy_joules(SocketId(i as u8));
            assert!(
                (s.energy_j - truth).abs() / truth < 0.05,
                "socket{i}: published {} J vs truth {truth} J",
                s.energy_j
            );
            assert!(s.flags.is_healthy(), "recovered pipeline publishes clean data");
        }
        // seq stayed monotone across the restart (restored checkpoint).
        assert!(snaps[0].seq > 10, "seq continues, does not restart at 1");
    }

    #[test]
    fn first_post_restart_sample_is_flagged_no_power() {
        let mut m = busy_machine();
        let plan = FaultPlan::new(42).with_daemon_kills(&[NS_PER_SEC]);
        let mut sup =
            Supervisor::new(&m, SupervisorConfig::default()).with_faults(plan);
        drive(&mut m, &mut sup, NS_PER_SEC);
        // Advance to the kill; the next successful sample after restart has
        // an empty smoothing window and must say so.
        let mut saw_no_power_after_restart = false;
        let end = m.now_ns() + 2 * NS_PER_SEC;
        while m.now_ns() < end {
            if m.now_ns() >= sup.next_due_ns() {
                let published = sup.sample(&m).published();
                if published && sup.stats().restarts == 1 {
                    // First publication of the replacement incarnation.
                    let s = sup.blackboard().snapshot(0);
                    assert!(
                        s.flags.contains(HealthFlags::NO_POWER),
                        "first post-restart sample must carry NO_POWER: {s:?}"
                    );
                    assert!(s.power_w.is_nan(), "NO_POWER publishes NaN, not 0 W");
                    saw_no_power_after_restart = true;
                    break;
                }
            }
            m.advance(10_000_000);
        }
        assert!(saw_no_power_after_restart, "restart must re-warm the power window honestly");
    }

    #[test]
    fn budget_exhaustion_gives_up_without_panicking() {
        let mut m = busy_machine();
        let kills: Vec<u64> = (1..=8).map(|i| i * NS_PER_SEC / 4).collect();
        let plan = FaultPlan::new(43).with_daemon_kills(&kills);
        let cfg = SupervisorConfig {
            restart_budget: 2,
            initial_backoff_ns: 10_000_000,
            ..SupervisorConfig::default()
        };
        let mut sup = Supervisor::new(&m, cfg).with_faults(plan);
        drive(&mut m, &mut sup, 4 * NS_PER_SEC);
        let stats = sup.stats();
        assert!(stats.gave_up, "{stats:?}");
        assert_eq!(stats.restarts, 2, "budget caps restarts: {stats:?}");
        assert_eq!(stats.kills, 3, "third death exhausts the budget: {stats:?}");
        assert!(sup.is_down());
        assert!(matches!(sup.sample(&m), SupervisorOutcome::GaveUp));
        // The blackboard goes permanently stale — the reader-side signal.
        assert!(sup.blackboard().staleness_ns(m.now_ns()) > NS_PER_SEC);
    }

    #[test]
    fn backoff_grows_exponentially_and_is_capped() {
        let m = busy_machine();
        let cfg = SupervisorConfig {
            initial_backoff_ns: 50,
            backoff_multiplier: 2,
            max_backoff_ns: 300,
            ..SupervisorConfig::default()
        };
        let sup = Supervisor::new(&m, cfg);
        assert_eq!(sup.backoff_for_restart(0), 50);
        assert_eq!(sup.backoff_for_restart(1), 100);
        assert_eq!(sup.backoff_for_restart(2), 200);
        assert_eq!(sup.backoff_for_restart(3), 300, "capped");
        assert_eq!(sup.backoff_for_restart(10), 300, "no overflow at depth");
    }

    #[test]
    fn wedge_detection_restarts_a_stalled_daemon() {
        let mut m = busy_machine();
        // The daemon itself stalls (drops every tick) for 1.5 s; with wedge
        // detection at 0.5 s the supervisor declares it dead and restarts.
        // The replacement inherits the same plan, so it stays stalled until
        // the window passes — but the supervisor keeps trying within budget.
        let plan = FaultPlan::new(44).with_stall(NS_PER_SEC, 5 * NS_PER_SEC / 2);
        let cfg = SupervisorConfig {
            wedge_timeout_ns: Some(NS_PER_SEC / 2),
            initial_backoff_ns: 100_000_000,
            ..SupervisorConfig::default()
        };
        let mut sup = Supervisor::new(&m, cfg).with_faults(plan);
        drive(&mut m, &mut sup, 4 * NS_PER_SEC);
        let stats = sup.stats();
        assert!(stats.wedge_kills >= 1, "{stats:?}");
        assert!(stats.restarts >= 1, "{stats:?}");
        // Once the stall window passes, publishing resumed.
        assert!(
            sup.blackboard().staleness_ns(m.now_ns()) <= 2 * sup.period_ns(),
            "publishing resumed after the stall"
        );
        assert!(sup.health().dropped >= 1);
    }

    #[test]
    fn snapshot_resume_matches_unbroken_pipeline_bit_for_bit() {
        // Run A: unbroken 4 s chaos run (kill + restart + read faults).
        // Run B: identical construction, restored from A's 1.5 s snapshot,
        // driven over the same remaining schedule. Every observable must be
        // bit-identical at the end.
        let mk_plan = || {
            FaultPlan::new(45)
                .with_daemon_kills(&[NS_PER_SEC])
                .with_transient_error_rate(0.15)
                .with_sample_jitter(3_000_000)
        };
        let cfg = SupervisorConfig {
            initial_backoff_ns: 100_000_000,
            ..SupervisorConfig::default()
        };
        let mut m = busy_machine();
        let mut a = Supervisor::new(&m, cfg).with_faults(mk_plan());
        drive(&mut m, &mut a, 3 * NS_PER_SEC / 2);
        let mut w = SnapWriter::new();
        a.codec(&mut w).unwrap();
        let bytes = w.finish();

        let mut m2 = busy_machine();
        let mut b = Supervisor::new(&m2, cfg).with_faults(mk_plan());
        while m2.now_ns() < m.now_ns() {
            m2.advance((m.now_ns() - m2.now_ns()).min(10_000_000));
        }
        let mut r = SnapReader::new(&bytes);
        let st = b.codec(&mut r).unwrap();
        r.finish().unwrap();
        assert_rejects_corruption(&bytes, |input| {
            let mut r = SnapReader::new(input);
            b.codec(&mut r)?;
            r.finish()
        });
        b.install(st);

        drive(&mut m, &mut a, 5 * NS_PER_SEC / 2);
        drive(&mut m2, &mut b, 5 * NS_PER_SEC / 2);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.health(), b.health());
        assert_eq!(a.samples_taken(), b.samples_taken());
        assert_eq!(a.next_due_ns(), b.next_due_ns());
        assert_eq!(a.blackboard().epoch(), b.blackboard().epoch());
        for (x, y) in a.blackboard().snapshot_all().iter().zip(b.blackboard().snapshot_all()) {
            assert_eq!(x.power_w.to_bits(), y.power_w.to_bits(), "{x:?} vs {y:?}");
            assert_eq!(x.energy_j.to_bits(), y.energy_j.to_bits());
            assert_eq!((x.updated_at_ns, x.seq, x.flags), (y.updated_at_ns, y.seq, y.flags));
        }
    }

    #[test]
    fn mid_outage_snapshot_restores_a_down_pipeline() {
        let mut m = busy_machine();
        let cfg = SupervisorConfig {
            initial_backoff_ns: NS_PER_SEC,
            ..SupervisorConfig::default()
        };
        let plan = FaultPlan::new(46).with_daemon_kills(&[NS_PER_SEC / 2]);
        let mut a = Supervisor::new(&m, cfg).with_faults(plan.clone());
        // Drive just past the kill so the snapshot lands inside the backoff.
        drive(&mut m, &mut a, NS_PER_SEC / 2 + 100_000_000);
        assert!(a.is_down(), "snapshot must land mid-outage for this test");
        let mut w = SnapWriter::new();
        a.codec(&mut w).unwrap();
        let bytes = w.finish();

        let m2 = busy_machine();
        let mut b = Supervisor::new(&m2, cfg).with_faults(plan.clone());
        let st = b.codec(&mut SnapReader::new(&bytes)).unwrap();
        assert_rejects_corruption(&bytes, |input| {
            let mut r = SnapReader::new(input);
            b.codec(&mut r)?;
            r.finish()
        });
        b.install(st);
        assert!(b.is_down());
        assert_eq!(b.stats().kills, 1);
        assert_eq!(b.next_due_ns(), a.next_due_ns());
    }

    #[test]
    fn quiet_supervisor_is_transparent() {
        let mut m = busy_machine();
        let mut sup = Supervisor::new(&m, SupervisorConfig::default());
        drive(&mut m, &mut sup, 2 * NS_PER_SEC);
        let stats = sup.stats();
        assert_eq!(stats, SupervisorStats::default(), "no faults, no intervention");
        assert_eq!(sup.blackboard().epoch(), 0);
        assert!(sup.health().published >= 19);
        assert!(!sup.is_down());
    }
}
