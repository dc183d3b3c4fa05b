//! One fleet node: a whole machine + RCR daemon + cap governor, advanced
//! event-to-event and crash-restartable as a unit.
//!
//! A [`NodeSim`] wraps the single-node stack the paper built — the
//! simulated machine, the supervised RCR telemetry daemon, and a
//! throttle governor — behind one deterministic event loop:
//! [`NodeSim::advance_to`] jumps virtual time to the earliest due event
//! (grant delivery, lease expiry, scheduled crash, restart, daemon sample,
//! governor decision, load shift) and fires everything due at that instant
//! in a fixed order. Nothing polls; the lease expiry in particular is an
//! event-queue timer, so a partitioned node degrades to its lease floor at
//! *exactly* the expiry timestamp.
//!
//! **Crash semantics.** A scheduled crash powers the machine off
//! ([`maestro_machine::Machine::set_powered`]): 0 W, no energy, passive
//! cooling, volatile state gone. The node-level restart policy *mirrors
//! [`maestro_rcr::Supervisor`]* — it literally reuses
//! [`SupervisorConfig`]: exponential backoff between restart attempts
//! under a total restart budget, after which the node stays dark for good.
//! A restarted node boots with a fresh daemon incarnation (its fault
//! stream deterministically derived from `(fleet seed, node, incarnation)`)
//! and an *empty* lease slot: RAM did not survive, so the node cannot know
//! what it held, and the conservative boot cap is the lease floor — the
//! rejoin can never exceed what the coordinator already accounted for.
//!
//! **Degraded telemetry.** When the node's own daemon is down, stale, or
//! unhealthy, the governor steps *toward* heavier throttling each period —
//! the dual of the PR-3 actuator rule: the actuator fails toward FULL duty
//! (performance), the cap governor fails toward the cap being respected.

use maestro_machine::snap::{Codec, SnapError};
use maestro_machine::{CoreActivity, DutyCycle, Machine, MachineConfig};
use maestro_rcr::{
    BudgetLease, LeaseDecision, LeaseSlot, Supervisor, SupervisorConfig, SupervisorState,
};

use crate::faults::FleetFaultPlan;
use crate::load::{LoadParams, LoadProfile};

/// Governor throttle ladder: level `g` programs duty `32 >> g` on every
/// core, so level 0 is FULL duty and [`GOVERNOR_MAX_LEVEL`] is `MIN`.
pub const GOVERNOR_MAX_LEVEL: u8 = 5;

/// The duty cycle the governor programs at ladder `level`.
pub fn duty_for(level: u8) -> DutyCycle {
    DutyCycle::new(32 >> level.min(GOVERNOR_MAX_LEVEL)).expect("32>>g is a valid duty level")
}

/// Static configuration of one node (everything a snapshot does *not*
/// carry; restore rebuilds the node from this and replays the state).
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Node index in the fleet.
    pub id: usize,
    /// Fleet size (for the rolling-wave phase shift).
    pub n_nodes: usize,
    /// Conservative local safe cap: enforced whenever no lease is held.
    pub floor_w: f64,
    /// Governor decision period.
    pub governor_period_ns: u64,
    /// RCR daemon sample period.
    pub sample_period_ns: u64,
    /// Node-level crash-restart policy (backoff/budget semantics of
    /// [`SupervisorConfig`], applied to the whole node).
    pub restart: SupervisorConfig,
    /// Demand-estimate intercept: idle whole-node Watts.
    pub idle_node_w: f64,
    /// Demand-estimate slope: Watts per busy core at intensity 1.
    pub per_core_w: f64,
    /// Load-wave parameters.
    pub load: LoadParams,
}

impl NodeConfig {
    /// Defaults for node `id` of `n_nodes`: 40 W floor, 100 ms governor
    /// and daemon periods, the stock supervisor restart policy, and the
    /// default rolling wave.
    pub fn new(id: usize, n_nodes: usize) -> Self {
        NodeConfig {
            id,
            n_nodes,
            floor_w: 40.0,
            governor_period_ns: 100_000_000,
            sample_period_ns: 100_000_000,
            restart: SupervisorConfig::default(),
            idle_node_w: 55.0,
            per_core_w: 5.5,
            load: LoadParams::default(),
        }
    }
}

/// One entry of a node's degradation trace.
#[derive(Copy, Clone, Default, PartialEq, Debug)]
pub enum NodeEvent {
    /// The node lost power (scheduled crash).
    #[default]
    Crashed,
    /// The node booted again as daemon incarnation `incarnation`.
    Restarted {
        /// Daemon incarnation now running (0 = first boot).
        incarnation: u32,
    },
    /// The restart budget is exhausted; the node stays dark.
    GaveUp,
    /// A grant message reached the lease slot.
    LeaseOffer {
        /// Coordination epoch of the grant.
        epoch: u64,
        /// Granted cap, Watts.
        cap_w: f64,
        /// What the slot did with it.
        decision: LeaseDecision,
    },
    /// The held lease expired; the enforced cap fell to the floor.
    LeaseExpired {
        /// The floor now enforced, Watts.
        floor_w: f64,
    },
    /// The governor moved the throttle ladder.
    Throttle {
        /// New ladder level (0 = FULL duty).
        level: u8,
    },
    /// The load wave shifted the busy-core count.
    Load {
        /// Busy cores now running.
        active: u8,
    },
}

impl NodeEvent {
    /// The enforced-cap change this event implies, if any, for the
    /// cap-safety timeline: `Some(new_cap_w)` when the event moves the cap.
    pub fn cap_change_w(&self, floor_w: f64) -> Option<f64> {
        match self {
            NodeEvent::LeaseOffer { cap_w, decision: LeaseDecision::Applied, .. } => Some(*cap_w),
            NodeEvent::LeaseExpired { floor_w: f } => Some(*f),
            // A crash drops draw to 0 and a reboot holds an empty slot:
            // both enforce (at most) the floor.
            NodeEvent::Crashed | NodeEvent::Restarted { .. } => Some(floor_w),
            _ => None,
        }
    }

    /// The snapshot codec for one trace entry (see [`Codec`]).
    fn codec<C: Codec>(&self, c: &mut C) -> Result<Self, SnapError> {
        // Tag plus every payload field any variant carries.
        let (tag, epoch, value_w, small) = match *self {
            NodeEvent::Crashed => (0, 0, 0.0, 0),
            NodeEvent::Restarted { incarnation } => (1, 0, 0.0, incarnation),
            NodeEvent::GaveUp => (2, 0, 0.0, 0),
            NodeEvent::LeaseOffer { epoch, cap_w, decision } => {
                let decision = match decision {
                    LeaseDecision::Applied => 0,
                    LeaseDecision::Duplicate => 1,
                    LeaseDecision::RejectedStale => 2,
                    LeaseDecision::RejectedExpired => 3,
                };
                (3, epoch, cap_w, decision)
            }
            NodeEvent::LeaseExpired { floor_w } => (4, 0, floor_w, 0),
            NodeEvent::Throttle { level } => (5, 0, 0.0, u32::from(level)),
            NodeEvent::Load { active } => (6, 0, 0.0, u32::from(active)),
        };
        Ok(match c.u8(tag)? {
            0 => NodeEvent::Crashed,
            1 => NodeEvent::Restarted { incarnation: c.u32(small)? },
            2 => NodeEvent::GaveUp,
            3 => NodeEvent::LeaseOffer {
                epoch: c.u64(epoch)?,
                cap_w: c.f64(value_w)?,
                decision: match c.u8(small as u8)? {
                    0 => LeaseDecision::Applied,
                    1 => LeaseDecision::Duplicate,
                    2 => LeaseDecision::RejectedStale,
                    3 => LeaseDecision::RejectedExpired,
                    _ => return Err(SnapError::Corrupt("unknown lease decision tag")),
                },
            },
            4 => NodeEvent::LeaseExpired { floor_w: c.f64(value_w)? },
            5 => NodeEvent::Throttle { level: c.u8(small as u8)? },
            6 => NodeEvent::Load { active: c.u8(small as u8)? },
            _ => return Err(SnapError::Corrupt("unknown node event tag")),
        })
    }
}

/// What the governor could learn from the local blackboard this period.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Telemetry {
    /// Daemon down / stale / unhealthy: assume the worst.
    Dark,
    /// Daemon alive but not yet published (boot warm-up): hold position.
    Warmup,
    /// Fresh, healthy measurement.
    Power(f64),
}

/// Per-node lifetime tallies surfaced in fleet reports.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct NodeStats {
    /// Scheduled crashes that actually took the node down.
    pub crashes: u64,
    /// Successful reboots.
    pub restarts: u64,
    /// True once the node-level restart budget is exhausted.
    pub gave_up: bool,
    /// Governor ladder moves.
    pub throttle_steps: u64,
    /// Highest ladder level ever reached.
    pub max_throttle_level: u8,
    /// Governor periods spent dark (telemetry-degraded tightening).
    pub dark_periods: u64,
    /// Lease grants accepted (across reboots).
    pub leases_applied: u64,
    /// Grants rejected or deduped (across reboots).
    pub leases_discarded: u64,
    /// Lease expiries that degraded the node to its floor.
    pub lease_expiries: u64,
}

/// One node of the fleet. See the module docs for the model.
#[derive(Clone, Debug)]
pub struct NodeSim {
    cfg: NodeConfig,
    faults: FleetFaultPlan,
    machine: Machine,
    sup: Supervisor,
    lease: LeaseSlot,
    load: LoadProfile,
    /// Ladder level currently programmed (0 = FULL duty on all cores).
    throttle_level: u8,
    governor_due_ns: u64,
    /// Busy cores currently running (what the wave last applied).
    load_active: u8,
    load_due_ns: u64,
    /// Index into `faults.crashes_for(id)` of the next unprocessed crash.
    crash_idx: usize,
    /// Reboot due time while down; `None` when up or given up.
    restart_due_ns: Option<u64>,
    incarnation: u32,
    stats: NodeStats,
    /// Undelivered grants, sorted by `(arrive_ns, epoch)`.
    inbox: Vec<(u64, BudgetLease)>,
    trace: Vec<(u64, NodeEvent)>,
    /// Counters carried across lease-slot resets at reboot.
    lease_totals: (u64, u64, u64),
}

impl NodeSim {
    /// Build node `cfg.id` at virtual time 0, powered and idle.
    pub fn new(cfg: NodeConfig, faults: FleetFaultPlan) -> Self {
        let machine = Machine::new(MachineConfig::sandybridge_2x8());
        let sup = Self::build_supervisor(&machine, &cfg, &faults, 0);
        let load = LoadProfile::new(cfg.load, cfg.id, cfg.n_nodes);
        let lease = LeaseSlot::new(cfg.floor_w);
        NodeSim {
            governor_due_ns: cfg.governor_period_ns,
            throttle_level: 0,
            load_active: 0,
            load_due_ns: 0,
            crash_idx: 0,
            restart_due_ns: None,
            incarnation: 0,
            stats: NodeStats::default(),
            inbox: Vec::new(),
            trace: Vec::new(),
            lease_totals: (0, 0, 0),
            machine,
            sup,
            lease,
            load,
            faults,
            cfg,
        }
    }

    fn build_supervisor(
        machine: &Machine,
        cfg: &NodeConfig,
        faults: &FleetFaultPlan,
        incarnation: u32,
    ) -> Supervisor {
        let sup =
            Supervisor::with_period(machine, cfg.sample_period_ns, SupervisorConfig::default());
        match faults.node_daemon_faults(cfg.id, incarnation) {
            Some(plan) => sup.with_faults(plan),
            None => sup,
        }
    }

    /// Node index.
    pub fn id(&self) -> usize {
        self.cfg.id
    }

    /// The node's static configuration.
    pub fn config(&self) -> &NodeConfig {
        &self.cfg
    }

    /// Current virtual time.
    pub fn now_ns(&self) -> u64 {
        self.machine.now_ns()
    }

    /// Whether the node has power right now.
    pub fn up(&self) -> bool {
        self.machine.powered()
    }

    /// Cumulative node energy, Joules.
    pub fn energy_j(&self) -> f64 {
        self.machine.total_energy_joules()
    }

    /// Instantaneous node power, Watts (0 while down).
    pub fn power_w(&self) -> f64 {
        self.machine.node_power_w()
    }

    /// The cap the node is enforcing right now.
    pub fn enforced_cap_w(&self) -> f64 {
        self.lease.cap_at(self.machine.now_ns())
    }

    /// Unthrottled demand estimate for the coordinator, Watts (0 down).
    pub fn demand_w(&self) -> f64 {
        if !self.up() {
            return 0.0;
        }
        self.load.demand_w(self.machine.now_ns(), self.cfg.idle_node_w, self.cfg.per_core_w)
    }

    /// Lifetime tallies (lease counters folded across reboots).
    pub fn stats(&self) -> NodeStats {
        let (a, d, e) = self.lease.stats();
        let mut s = self.stats;
        s.leases_applied = self.lease_totals.0 + a;
        s.leases_discarded = self.lease_totals.1 + d;
        s.lease_expiries = self.lease_totals.2 + e;
        s
    }

    /// The degradation trace: every state transition with its timestamp.
    pub fn trace(&self) -> &[(u64, NodeEvent)] {
        &self.trace
    }

    /// Current governor ladder level.
    pub fn throttle_level(&self) -> u8 {
        self.throttle_level
    }

    /// Queue a grant message to arrive at `arrive_ns` (the fleet's message
    /// layer calls this; faults have already been applied).
    pub fn deliver(&mut self, arrive_ns: u64, lease: BudgetLease) {
        let key = (arrive_ns, lease.epoch);
        let pos = self.inbox.partition_point(|(a, l)| (*a, l.epoch) <= key);
        self.inbox.insert(pos, (arrive_ns, lease));
    }

    fn push_event(&mut self, event: NodeEvent) {
        self.trace.push((self.machine.now_ns(), event));
    }

    /// Next scheduled crash instant not yet processed.
    fn crash_due_ns(&self) -> Option<u64> {
        self.faults.crashes_for(self.cfg.id).get(self.crash_idx).copied()
    }

    /// Earliest pending due time, if any.
    fn next_due_ns(&self) -> Option<u64> {
        let mut due: Option<u64> = None;
        let mut fold = |d: Option<u64>| {
            due = match (due, d) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, None) => a,
                (None, b) => b,
            };
        };
        fold(self.inbox.first().map(|(a, _)| *a));
        fold(self.lease.expiry_due_ns());
        fold(self.crash_due_ns());
        fold(self.restart_due_ns);
        if self.up() {
            fold(Some(self.sup.next_due_ns()));
            fold(Some(self.governor_due_ns));
            fold(Some(self.load_due_ns));
        }
        due
    }

    /// Advance to `t_end_ns`, firing every due event on the way. The event
    /// order at equal timestamps is fixed (deliveries, expiry, crash,
    /// restart, daemon, governor, load), so a node's evolution is a pure
    /// function of its inputs — independent of shard scheduling.
    pub fn advance_to(&mut self, t_end_ns: u64) {
        loop {
            self.fire_due();
            let now = self.machine.now_ns();
            if now >= t_end_ns {
                break;
            }
            let next = self.next_due_ns().map_or(t_end_ns, |d| d.min(t_end_ns));
            debug_assert!(next > now, "due times must advance after a fire pass");
            self.machine.advance(next - now);
        }
    }

    /// Fire everything due at the current instant, in the fixed order.
    fn fire_due(&mut self) {
        let now = self.machine.now_ns();

        // 1. Grant deliveries. A message arriving while the host is down
        // is gone — there is no network stack to receive it.
        while self.inbox.first().is_some_and(|(a, _)| *a <= now) {
            let (_, grant) = self.inbox.remove(0);
            if !self.up() {
                continue;
            }
            let decision = self.lease.offer(grant, now);
            self.push_event(NodeEvent::LeaseOffer {
                epoch: grant.epoch,
                cap_w: grant.cap_w,
                decision,
            });
        }

        // 2. Lease expiry: the event-queue timer. Degrade to the floor at
        // exactly this instant — enforced cap falls, and the governor
        // slams the ladder so actual draw follows without waiting for the
        // next measurement.
        if self.lease.expiry_due_ns().is_some_and(|d| d <= now) && self.lease.expire(now) {
            self.push_event(NodeEvent::LeaseExpired { floor_w: self.lease.floor_w() });
            if self.up() {
                self.set_throttle(GOVERNOR_MAX_LEVEL);
            }
        }

        // 3. Scheduled crash.
        if self.crash_due_ns().is_some_and(|d| d <= now) {
            self.crash_idx += 1;
            if self.up() {
                self.crash();
            }
            // A crash scheduled while already down is absorbed.
        }

        // 4. Reboot.
        if self.restart_due_ns.is_some_and(|d| d <= now) {
            self.restart_due_ns = None;
            self.restart();
        }

        if !self.up() {
            return;
        }

        // 5. Daemon sample (supervised: may itself be down/backing off).
        if self.sup.next_due_ns() <= now {
            let _ = self.sup.sample(&self.machine);
        }

        // 6. Governor decision.
        while self.governor_due_ns <= now {
            self.governor_due_ns += self.cfg.governor_period_ns;
            self.govern();
        }

        // 7. Load shift.
        if self.load_due_ns <= now {
            self.load_due_ns = self.load.next_change_ns(now);
            self.apply_load();
        }
    }

    fn crash(&mut self) {
        self.machine.set_powered(false);
        self.stats.crashes += 1;
        self.push_event(NodeEvent::Crashed);
        // Accumulate the dying slot's counters before RAM is lost.
        let (a, d, e) = self.lease.stats();
        self.lease_totals.0 += a;
        self.lease_totals.1 += d;
        self.lease_totals.2 += e;
        self.lease = LeaseSlot::new(self.cfg.floor_w);
        self.throttle_level = 0;
        self.load_active = 0;
        if self.stats.restarts >= u64::from(self.cfg.restart.restart_budget) {
            self.stats.gave_up = true;
            self.push_event(NodeEvent::GaveUp);
            self.restart_due_ns = None;
        } else {
            // Exponential backoff, mirroring the daemon supervisor.
            let shift = self.stats.restarts.min(32) as u32;
            let backoff = self
                .cfg
                .restart
                .initial_backoff_ns
                .saturating_mul(u64::from(self.cfg.restart.backoff_multiplier).pow(shift))
                .min(self.cfg.restart.max_backoff_ns);
            self.restart_due_ns = Some(self.machine.now_ns() + backoff);
        }
    }

    fn restart(&mut self) {
        self.machine.set_powered(true);
        self.incarnation += 1;
        self.stats.restarts += 1;
        self.sup = Self::build_supervisor(&self.machine, &self.cfg, &self.faults, self.incarnation);
        let now = self.machine.now_ns();
        let period = self.cfg.governor_period_ns;
        self.governor_due_ns = (now / period + 1) * period;
        self.load_due_ns = now; // re-apply the wave immediately
        self.push_event(NodeEvent::Restarted { incarnation: self.incarnation });
    }

    fn telemetry(&self) -> Telemetry {
        if self.sup.is_down() {
            return Telemetry::Dark;
        }
        let bb = self.sup.blackboard();
        if bb.is_warming_up() {
            return Telemetry::Warmup;
        }
        let now = self.machine.now_ns();
        if !bb.is_healthy() || bb.staleness_ns(now) > 3 * self.cfg.sample_period_ns {
            return Telemetry::Dark;
        }
        Telemetry::Power(bb.node_power_w())
    }

    fn govern(&mut self) {
        let cap = self.lease.cap_at(self.machine.now_ns());
        let level = self.throttle_level;
        let desired = match self.telemetry() {
            // No trustworthy measurement: tighten one notch per period —
            // fail toward the cap being respected.
            Telemetry::Dark => {
                self.stats.dark_periods += 1;
                level.saturating_add(1).min(GOVERNOR_MAX_LEVEL)
            }
            Telemetry::Warmup => level,
            Telemetry::Power(p) if p > cap => level.saturating_add(1).min(GOVERNOR_MAX_LEVEL),
            Telemetry::Power(p) if p < cap * 0.85 => level.saturating_sub(1),
            Telemetry::Power(_) => level,
        };
        self.set_throttle(desired);
    }

    fn set_throttle(&mut self, level: u8) {
        if level == self.throttle_level {
            return;
        }
        self.throttle_level = level;
        self.stats.throttle_steps += 1;
        self.stats.max_throttle_level = self.stats.max_throttle_level.max(level);
        let duty = duty_for(level);
        for c in self.machine.topology().all_cores() {
            self.machine.set_duty(c, duty);
        }
        self.push_event(NodeEvent::Throttle { level });
    }

    fn apply_load(&mut self) {
        let (active, intensity, ocr) = self.load.target(self.machine.now_ns());
        let active = active.min(self.machine.topology().total_cores());
        if active as u8 == self.load_active {
            return;
        }
        for (i, c) in self.machine.topology().all_cores().enumerate() {
            let a = if i < active {
                CoreActivity::Busy { intensity, ocr }
            } else {
                CoreActivity::Idle
            };
            self.machine.set_activity(c, a);
        }
        self.load_active = active as u8;
        self.push_event(NodeEvent::Load { active: active as u8 });
    }

    // -----------------------------------------------------------------
    // Snapshots
    // -----------------------------------------------------------------

    /// The snapshot codec for the node's full dynamic state (see
    /// [`Codec`]). Decoding requires a node built from the same
    /// [`NodeConfig`] and [`FleetFaultPlan`].
    pub fn codec<C: Codec>(&self, c: &mut C) -> Result<NodeState, SnapError> {
        let machine = self.machine.codec(c)?;
        let incarnation = c.u32(self.incarnation)?;
        // The daemon incarnation's fault stream depends on the incarnation
        // number: the reader decodes into a supervisor rebuilt to match.
        let sup = if C::DECODING {
            Self::build_supervisor(&self.machine, &self.cfg, &self.faults, incarnation).codec(c)?
        } else {
            self.sup.codec(c)?
        };
        let lease = self.lease.codec(c)?;
        let lease_totals = (
            c.u64(self.lease_totals.0)?,
            c.u64(self.lease_totals.1)?,
            c.u64(self.lease_totals.2)?,
        );
        let throttle_level = c.u8(self.throttle_level)?;
        let governor_due_ns = c.u64(self.governor_due_ns)?;
        // A running node's next decision lies ahead of its clock; an
        // overdue one would make the catch-up loop spin through every
        // missed period.
        if machine.as_ref().is_some_and(|m| m.powered() && governor_due_ns <= m.now_ns()) {
            return Err(SnapError::Corrupt("node governor decision already overdue"));
        }
        let load_active = c.u8(self.load_active)?;
        let load_due_ns = c.u64(self.load_due_ns)?;
        let crash_idx = c.len(self.crash_idx)?;
        let restart_due_ns = c.opt_u64(self.restart_due_ns)?;
        let stats = NodeStats {
            crashes: c.u64(self.stats.crashes)?,
            restarts: c.u64(self.stats.restarts)?,
            gave_up: c.bool(self.stats.gave_up)?,
            throttle_steps: c.u64(self.stats.throttle_steps)?,
            max_throttle_level: c.u8(self.stats.max_throttle_level)?,
            dark_periods: c.u64(self.stats.dark_periods)?,
            ..NodeStats::default()
        };
        let inbox = c.seq(&self.inbox, |c, (arrive, l)| Ok((c.u64(*arrive)?, l.codec(c)?)))?;
        let trace = c.seq(&self.trace, |c, (t, e)| Ok((c.u64(*t)?, e.codec(c)?)))?;
        let node = machine.map(|machine| NodeSim {
            machine,
            incarnation,
            lease,
            lease_totals,
            throttle_level,
            governor_due_ns,
            load_active,
            load_due_ns,
            crash_idx,
            restart_due_ns,
            stats,
            inbox,
            trace,
            ..self.clone()
        });
        Ok(NodeState { node, sup })
    }

    /// Install state decoded by [`NodeSim::codec`].
    pub fn install(&mut self, st: NodeState) {
        if let Some(node) = st.into_node() {
            *self = node;
        }
    }
}

/// Node state decoded by [`NodeSim::codec`], installed by
/// [`NodeSim::install`]: a copy of the node carrying the decoded state
/// (`None` on the writer), and its supervisor's decoded state.
#[derive(Debug)]
pub struct NodeState {
    node: Option<NodeSim>,
    sup: SupervisorState,
}

impl NodeState {
    /// The decoded node with its supervisor state installed (`None` for
    /// state built on the writer).
    pub fn into_node(self) -> Option<NodeSim> {
        let mut node = self.node?;
        node.sup.install(self.sup);
        Some(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_machine::snap::{assert_rejects_corruption, SnapReader, SnapWriter};

    const SEC: u64 = 1_000_000_000;

    fn node(faults: FleetFaultPlan) -> NodeSim {
        NodeSim::new(NodeConfig::new(0, 4), faults)
    }

    fn grant(epoch: u64, cap_w: f64, expires_ns: u64) -> BudgetLease {
        BudgetLease { epoch, cap_w, expires_ns }
    }

    #[test]
    fn lease_expiry_degrades_at_the_exact_timestamp() {
        let mut n = node(FleetFaultPlan::new(1));
        n.deliver(0, grant(1, 120.0, 3 * SEC + 123));
        n.advance_to(2 * SEC);
        assert_eq!(n.enforced_cap_w(), 120.0);
        n.advance_to(10 * SEC);
        let expiry = n
            .trace()
            .iter()
            .find(|(_, e)| matches!(e, NodeEvent::LeaseExpired { .. }))
            .expect("lease must expire");
        assert_eq!(expiry.0, 3 * SEC + 123, "event-timer precision, not a poll grid point");
        assert_eq!(n.enforced_cap_w(), n.config().floor_w);
        // The governor slammed to the max ladder level at the same instant.
        let slam = n
            .trace()
            .iter()
            .find(|(t, e)| *t == 3 * SEC + 123 && matches!(e, NodeEvent::Throttle { .. }))
            .expect("expiry must slam the throttle");
        assert_eq!(slam.1, NodeEvent::Throttle { level: GOVERNOR_MAX_LEVEL });
    }

    #[test]
    fn crash_restart_cycle_is_supervised() {
        let faults = FleetFaultPlan::new(2).with_node_crashes(0, &[SEC]);
        let mut n = node(faults);
        n.deliver(0, grant(1, 130.0, 20 * SEC));
        n.advance_to(SEC);
        assert!(!n.up(), "crash at 1 s");
        assert_eq!(n.power_w(), 0.0);
        assert_eq!(n.enforced_cap_w(), n.config().floor_w, "RAM gone: lease forgotten");
        n.advance_to(20 * SEC);
        assert!(n.up(), "restarted after backoff");
        let s = n.stats();
        assert_eq!(s.crashes, 1);
        assert_eq!(s.restarts, 1);
        // Restart happened exactly one initial backoff after the crash.
        let restart = n
            .trace()
            .iter()
            .find(|(_, e)| matches!(e, NodeEvent::Restarted { .. }))
            .expect("restart event");
        assert_eq!(restart.0, SEC + n.config().restart.initial_backoff_ns);
    }

    #[test]
    fn restart_budget_exhaustion_goes_dark_forever() {
        let crashes: Vec<u64> = (1..=10).map(|k| k * SEC).collect();
        let faults = FleetFaultPlan::new(3).with_node_crashes(0, &crashes);
        let mut n = node(faults);
        n.advance_to(30 * SEC);
        let s = n.stats();
        assert!(s.gave_up);
        assert_eq!(s.restarts, u64::from(n.config().restart.restart_budget));
        assert!(!n.up());
        assert!(n.trace().iter().any(|(_, e)| matches!(e, NodeEvent::GaveUp)));
        // Energy stopped accruing once dark.
        let e = n.energy_j();
        n.advance_to(60 * SEC);
        assert_eq!(n.energy_j().to_bits(), e.to_bits());
    }

    #[test]
    fn degradation_trace_is_seed_deterministic() {
        let run = || {
            let faults = FleetFaultPlan::new(5)
                .with_node_crashes(0, &[2 * SEC])
                .with_daemon_faults(0.02, 700_000_000);
            let mut n = node(faults);
            n.deliver(0, grant(1, 110.0, 3 * SEC / 2));
            n.deliver(2 * SEC, grant(2, 90.0, 4 * SEC));
            n.advance_to(10 * SEC);
            (n.trace().to_vec(), n.energy_j().to_bits(), n.stats())
        };
        let (ta, ea, sa) = run();
        let (tb, eb, sb) = run();
        assert_eq!(ta, tb, "same seed, same degradation trace");
        assert_eq!(ea, eb);
        assert_eq!(sa, sb);
    }

    #[test]
    fn governor_tracks_the_cap() {
        let mut n = node(FleetFaultPlan::new(7));
        // A cap far below loaded draw forces throttling once telemetry
        // warms up.
        n.deliver(0, grant(1, 70.0, 60 * SEC));
        // Crest of the demand wave: the node wants ~120 W against a 70 W cap.
        n.advance_to(10 * SEC);
        assert!(n.throttle_level() > 0, "must throttle under a 70 W cap at the crest");
        // Past the trough the governor relaxes again.
        n.advance_to(20 * SEC);
        assert_eq!(n.throttle_level(), 0, "trough demand fits the cap");
        let s = n.stats();
        assert!(s.max_throttle_level >= 2 && s.throttle_steps > 2);
    }

    #[test]
    fn snapshot_round_trip_resumes_bit_identically() {
        let faults = || {
            FleetFaultPlan::new(11)
                .with_node_crashes(0, &[3 * SEC])
                .with_daemon_faults(0.01, 900_000_000)
        };
        let mut a = NodeSim::new(NodeConfig::new(0, 4), faults());
        a.deliver(0, grant(1, 100.0, 2 * SEC));
        a.deliver(SEC, grant(2, 95.0, 5 * SEC));
        a.advance_to(7 * SEC / 2);
        let mut w = SnapWriter::new();
        a.codec(&mut w).unwrap();
        let bytes = w.finish();
        let mut b = NodeSim::new(NodeConfig::new(0, 4), faults());
        let mut r = SnapReader::new(&bytes);
        let st = b.codec(&mut r).unwrap();
        r.finish().unwrap();
        assert_rejects_corruption(&bytes, |input| {
            let mut r = SnapReader::new(input);
            b.codec(&mut r)?;
            r.finish()
        });
        b.install(st);
        a.advance_to(12 * SEC);
        b.advance_to(12 * SEC);
        assert_eq!(a.trace(), b.trace());
        assert_eq!(a.energy_j().to_bits(), b.energy_j().to_bits());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.throttle_level(), b.throttle_level());
    }
}
