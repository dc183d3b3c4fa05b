//! Daemon supervision: death detection, backoff restart, state restore.
//!
//! The watchdog and the controller's safe mode *detect* a dead or stalled
//! RCRdaemon. This module makes the pipeline *recover* the way a real
//! init/systemd-style supervisor would treat the paper's system-level
//! daemon: when the daemon dies (a scripted kill), the [`Supervisor`]
//!
//! 1. tears the incarnation down and waits out an **exponential backoff**
//!    ([`restart_backoff_ns`]: 50 ms doubling per restart, under a total
//!    **restart budget** of [`RESTART_BUDGET`] — a crash-looping daemon
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
use maestro_machine::{FaultPlan, Machine, Topology};
use maestro_rapl::NodeProbe;

use crate::blackboard::{Blackboard, BlackboardState};
use crate::daemon::{DaemonCheckpoint, DaemonHealth, RcrDaemon};
use crate::DEFAULT_SAMPLE_PERIOD_NS;

/// Total restarts allowed over a supervisor's lifetime; one more death after
/// the budget is spent and the supervisor gives up for good.
pub const RESTART_BUDGET: u32 = 5;

/// Backoff before the first restart, nanoseconds (50 ms).
pub const INITIAL_BACKOFF_NS: u64 = 50_000_000;

/// The backoff before the next restart after `restarts` restarts have been
/// spent, or `None` once that exhausts [`RESTART_BUDGET`]:
/// [`INITIAL_BACKOFF_NS`] doubled per restart, so 50, 100, 200, 400 and
/// 800 ms.
pub fn restart_backoff_ns(restarts: u64) -> Option<u64> {
    (restarts < u64::from(RESTART_BUDGET)).then(|| INITIAL_BACKOFF_NS << restarts)
}

/// Lifetime tallies of one supervisor.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Daemon deaths observed (scripted kills).
    pub kills: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// True once the restart budget is exhausted (terminal).
    pub gave_up: bool,
}

impl SupervisorStats {
    /// The snapshot codec (see [`Codec`]): every tally in declaration order,
    /// with a retired wedge-kill tally after `kills` that is always zero, so
    /// the wire layout is unchanged.
    pub fn codec<C: Codec>(&self, c: &mut C) -> Result<Self, SnapError> {
        let kills = c.u64(self.kills)?;
        c.check_u64(0, "supervisor wedge-kill tally is retired")?;
        Ok(SupervisorStats {
            kills,
            restarts: c.u64(self.restarts)?,
            gave_up: c.bool(self.gave_up)?,
        })
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
    blackboard: Blackboard,
    topology: Topology,
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
    pub fn new(machine: &Machine) -> Self {
        let daemon = RcrDaemon::new(machine);
        let blackboard = daemon.blackboard().clone();
        Supervisor {
            blackboard,
            topology: machine.topology(),
            faults: None,
            next_due_ns: daemon.next_due_ns(),
            daemon: Some(daemon),
            down_until_ns: 0,
            checkpoint: None,
            dead_health: DaemonHealth::default(),
            stats: SupervisorStats::default(),
        }
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
            h += d.health();
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
    /// Decoding requires a supervisor built with the same fault plan
    /// presence and machine topology.
    pub fn codec<C: Codec>(&self, c: &mut C) -> Result<SupervisorState, SnapError> {
        let blackboard = self.blackboard.codec(c)?;
        let faults = FaultPlan::codec(self.faults.as_ref(), c)?;
        let daemon = match (c.bool(self.daemon.is_some())?, &self.daemon) {
            (false, _) => None,
            (true, Some(d)) => d.codec(c)?,
            (true, None) => {
                return Err(SnapError::Corrupt("snapshot has a live daemon, target has none"))
            }
        };
        let checkpoint = match (c.bool(self.checkpoint.is_some())?, &self.checkpoint) {
            (false, _) => None,
            (true, Some(cp)) => Some(cp.codec(c)?),
            // A supervisor that holds no checkpoint yet decodes against a
            // fresh probe for its machine.
            (true, None) => Some(
                DaemonCheckpoint { probe: NodeProbe::new(self.topology), samples_taken: 0 }
                    .codec(c)?,
            ),
        };
        let down_until_ns = c.u64(self.down_until_ns)?;
        let next_due_ns = c.u64(self.next_due_ns)?;
        let dead_health = self.dead_health.codec(c)?;
        let stats = self.stats.codec(c)?;
        // A snapshot taken while the daemon was down discards the freshly
        // built incarnation without tallying a kill.
        let supervisor = C::DECODING.then(|| Supervisor {
            faults,
            daemon,
            checkpoint,
            down_until_ns,
            next_due_ns,
            dead_health,
            stats,
            ..self.clone()
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

    /// Tear down the current incarnation (if any) at `now_ns`.
    fn kill(&mut self, now_ns: u64) {
        let Some(d) = self.daemon.take() else { return };
        // Preserve the dead incarnation's tallies; its in-flight windows and
        // probe state die with it (the checkpoint carries what must survive).
        self.dead_health += d.health();
        self.stats.kills += 1;
        match restart_backoff_ns(self.stats.restarts) {
            Some(backoff) => self.down_until_ns = now_ns + backoff,
            None => self.stats.gave_up = true,
        }
    }

    /// Build and attach a replacement incarnation at `now`.
    fn restart(&mut self, machine: &Machine) {
        let mut d = RcrDaemon::new(machine).attach_blackboard(self.blackboard.clone());
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
    /// process scripted kills, restart if the backoff has expired, and
    /// sample through the live daemon when there is one. Returns true when
    /// fresh snapshots reached the blackboard this period. Never panics: a
    /// daemon that is down or given up publishes nothing, and
    /// [`Supervisor::stats`] tallies its deaths and restarts.
    #[must_use = "a robust caller must notice when the pipeline is not publishing"]
    pub fn sample(&mut self, machine: &Machine) -> bool {
        let now = machine.now_ns();

        if self.faults.as_ref().and_then(|p| p.kill_due(now)).is_some() {
            self.kill(now);
        }

        if self.daemon.is_none() {
            if self.stats.gave_up {
                self.next_due_ns = now + DEFAULT_SAMPLE_PERIOD_NS;
                return false;
            }
            if now < self.down_until_ns {
                self.next_due_ns = self.down_until_ns.min(now + DEFAULT_SAMPLE_PERIOD_NS);
                return false;
            }
            self.restart(machine);
        }

        let d = self.daemon.as_mut().expect("daemon is running here");
        let published = d.sample(machine);
        if published {
            d.checkpoint_into(&mut self.checkpoint);
        }
        self.next_due_ns = d.next_due_ns();
        published
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
        let mut sup = Supervisor::new(&m).with_faults(plan);
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
        let mut sup = Supervisor::new(&m).with_faults(plan);
        drive(&mut m, &mut sup, NS_PER_SEC);
        // Advance to the kill; the next successful sample after restart has
        // an empty smoothing window and must say so.
        let mut saw_no_power_after_restart = false;
        let end = m.now_ns() + 2 * NS_PER_SEC;
        while m.now_ns() < end {
            if m.now_ns() >= sup.next_due_ns() {
                let published = sup.sample(&m);
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

    /// Kill times (ms) that each land while the daemon is up: after kills
    /// 1–5 the stock ladder keeps it down for 50, 100, 200, 400 and 800 ms.
    const LADDER_KILLS_MS: [u64; 6] = [250, 500, 750, 1250, 1750, 2750];

    fn ladder_kills(n: usize) -> Vec<u64> {
        LADDER_KILLS_MS[..n].iter().map(|ms| ms * 1_000_000).collect()
    }

    #[test]
    fn budget_exhaustion_gives_up_without_panicking() {
        let mut m = busy_machine();
        let plan = FaultPlan::new(43).with_daemon_kills(&ladder_kills(6));
        let mut sup = Supervisor::new(&m).with_faults(plan);
        drive(&mut m, &mut sup, 4 * NS_PER_SEC);
        let stats = sup.stats();
        let budget = u64::from(RESTART_BUDGET);
        assert!(stats.gave_up, "{stats:?}");
        assert_eq!(stats.restarts, budget, "budget caps restarts: {stats:?}");
        assert_eq!(stats.kills, budget + 1, "one death past the budget: {stats:?}");
        assert!(sup.is_down());
        assert!(!sup.sample(&m), "a given-up pipeline publishes nothing");
        assert!(sup.stats().gave_up);
        // The blackboard goes permanently stale — the reader-side signal.
        assert!(sup.blackboard().staleness_ns(m.now_ns()) > NS_PER_SEC);
    }

    #[test]
    fn backoff_grows_exponentially_until_the_budget_is_spent() {
        // 50, 100, 200, 400, 800 ms, then give up.
        let ms: Vec<Option<u64>> =
            (0..6).map(|n| restart_backoff_ns(n).map(|b| b / 1_000_000)).collect();
        assert_eq!(ms, [Some(50), Some(100), Some(200), Some(400), Some(800), None]);
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
        let mut m = busy_machine();
        let mut a = Supervisor::new(&m).with_faults(mk_plan());
        drive(&mut m, &mut a, 3 * NS_PER_SEC / 2);
        let mut w = SnapWriter::new();
        a.codec(&mut w).unwrap();
        let bytes = w.finish();

        let mut m2 = busy_machine();
        let mut b = Supervisor::new(&m2).with_faults(mk_plan());
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
        // The fifth kill, at 1.75 s, starts the ladder's 800 ms outage.
        let plan = FaultPlan::new(46).with_daemon_kills(&ladder_kills(5));
        let mut a = Supervisor::new(&m).with_faults(plan.clone());
        // Drive just past that kill so the snapshot lands inside the backoff.
        drive(&mut m, &mut a, 1_850_000_000);
        assert!(a.is_down(), "snapshot must land mid-outage for this test");
        let mut w = SnapWriter::new();
        a.codec(&mut w).unwrap();
        let bytes = w.finish();

        let m2 = busy_machine();
        let mut b = Supervisor::new(&m2).with_faults(plan.clone());
        let st = b.codec(&mut SnapReader::new(&bytes)).unwrap();
        assert_rejects_corruption(&bytes, |input| {
            let mut r = SnapReader::new(input);
            b.codec(&mut r)?;
            r.finish()
        });
        b.install(st);
        assert!(b.is_down());
        assert_eq!(b.stats().kills, 5);
        assert_eq!(b.next_due_ns(), a.next_due_ns());
    }

    #[test]
    fn retired_wedge_kill_tally_must_decode_as_zero() {
        let m = busy_machine();
        let sup = Supervisor::new(&m);
        let mut w = SnapWriter::new();
        sup.codec(&mut w).unwrap();
        let mut bytes = w.finish();
        // The stats close the encoding: kills, the retired tally, restarts
        // (8 bytes each) and the gave-up byte.
        let at = bytes.len() - 17;
        assert_eq!(bytes[at..at + 8], [0; 8]);
        assert!(sup.codec(&mut SnapReader::new(&bytes)).is_ok());
        bytes[at] = 1;
        assert!(matches!(sup.codec(&mut SnapReader::new(&bytes)), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn quiet_supervisor_is_transparent() {
        let mut m = busy_machine();
        let mut sup = Supervisor::new(&m);
        drive(&mut m, &mut sup, 2 * NS_PER_SEC);
        let stats = sup.stats();
        assert_eq!(stats, SupervisorStats::default(), "no faults, no intervention");
        assert_eq!(sup.blackboard().epoch(), 0);
        assert!(sup.health().published >= 19);
        assert!(!sup.is_down());
    }
}
