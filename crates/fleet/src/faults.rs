//! The fleet-level fault model: seeded, deterministic, and independent of
//! shard scheduling.
//!
//! A [`FleetFaultPlan`] composes the per-node `FaultPlan`s of PR 1/3/4
//! (daemon-level faults inside one node) with cluster-level faults:
//!
//! * **node crashes** — scheduled power-loss instants per node, plus
//!   correlated *crash waves* (a staggered range of nodes, the §V
//!   "multi-node power clamping environment" failure drill);
//! * **telemetry partitions** — windows during which a range of nodes can
//!   neither report to the coordinator nor receive grants, so their views
//!   go stale-stamped on the coordinator and their leases expire locally;
//! * **budget-message faults** — per-(node, epoch) loss, duplication, and
//!   delay of grant messages, drawn from a *stateless* hash so the outcome
//!   depends only on `(seed, node, epoch)` — never on which shard thread
//!   evaluates it or in what order, which is what keeps `--jobs N`
//!   byte-identical to serial.
//!
//! Probabilities use the same unit-interval convention as `FaultPlan`:
//! a rate of 0.0 never fires, 1.0 always fires.

use std::collections::BTreeMap;
use std::sync::Arc;

use maestro_machine::{FaultPlan, SplitMix64};

/// [`SplitMix64`] applied as a stateless hash: the first draw of a
/// generator whose state is `z`.
fn splitmix(z: u64) -> u64 {
    SplitMix64::new(z).next_u64()
}

/// Map a hash to a unit-interval f64 (53-bit mantissa convention).
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Channels a stateless draw can be made on. Distinct channels decorrelate
/// the draws for the same `(node, epoch)`.
#[derive(Copy, Clone)]
enum Channel {
    GrantLoss = 1,
    GrantDup = 2,
    GrantDelay = 3,
    GrantDelayAmount = 4,
    ReportLoss = 5,
}

/// A half-open virtual-time window `[from_ns, until_ns)` over a contiguous
/// node range `[first_node, first_node + count)`.
#[derive(Copy, Clone, Debug)]
struct NodeWindow {
    from_ns: u64,
    until_ns: u64,
    first_node: usize,
    count: usize,
}

impl NodeWindow {
    fn covers(&self, node: usize, t_ns: u64) -> bool {
        node >= self.first_node
            && node < self.first_node + self.count
            && t_ns >= self.from_ns
            && t_ns < self.until_ns
    }
}

/// Seeded, deterministic fleet fault schedule. Built once per scenario and
/// immutable during the run (all draws are stateless). A clone is a handle
/// to the same schedule, not a copy: every node of a fleet holds the plan
/// its fleet was built with, and none of them copies the crash lists.
#[derive(Clone, Debug, Default)]
pub struct FleetFaultPlan {
    schedule: Arc<Schedule>,
}

/// The schedule a [`FleetFaultPlan`] shares between its clones. The
/// builder methods edit it in place while the plan has a single owner.
#[derive(Clone, Debug, Default)]
struct Schedule {
    seed: u64,
    /// Scheduled crash instants by node, each list sorted ascending.
    crashes: BTreeMap<usize, Vec<u64>>,
    partitions: Vec<NodeWindow>,
    grant_loss_rate: f64,
    grant_dup_rate: f64,
    grant_delay_rate: f64,
    grant_max_delay_ns: u64,
    report_loss_rate: f64,
    daemon_transient_rate: f64,
    daemon_kill_period_ns: u64,
}

impl FleetFaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FleetFaultPlan { schedule: Arc::new(Schedule { seed, ..Default::default() }) }
    }

    /// The schedule, for the builder methods (copied first only if another
    /// clone of the plan shares it).
    fn edit(&mut self) -> &mut Schedule {
        Arc::make_mut(&mut self.schedule)
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.schedule.seed
    }

    /// Schedule power-loss crashes for one node at the given virtual
    /// instants (merged with any already scheduled; kept sorted).
    pub fn with_node_crashes(mut self, node: usize, at_ns: &[u64]) -> Self {
        let entry = self.edit().crashes.entry(node).or_default();
        entry.extend_from_slice(at_ns);
        entry.sort_unstable();
        entry.dedup();
        self
    }

    /// A correlated failure wave: `count` nodes starting at `first_node`
    /// crash in sequence, `stagger_ns` apart, beginning at `start_ns`.
    pub fn with_crash_wave(
        mut self,
        start_ns: u64,
        first_node: usize,
        count: usize,
        stagger_ns: u64,
    ) -> Self {
        for i in 0..count {
            self = self.with_node_crashes(first_node + i, &[start_ns + i as u64 * stagger_ns]);
        }
        self
    }

    /// A telemetry partition: nodes `[first_node, first_node + count)`
    /// exchange no messages with the coordinator during
    /// `[from_ns, until_ns)` — reports are dropped and grants are lost.
    pub fn with_partition(
        mut self,
        from_ns: u64,
        until_ns: u64,
        first_node: usize,
        count: usize,
    ) -> Self {
        assert!(from_ns < until_ns, "empty partition window");
        self.edit().partitions.push(NodeWindow { from_ns, until_ns, first_node, count });
        self
    }

    /// Probability that a grant message is lost in flight.
    pub fn with_grant_loss_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.edit().grant_loss_rate = rate;
        self
    }

    /// Probability that a delivered grant arrives twice.
    pub fn with_grant_dup_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.edit().grant_dup_rate = rate;
        self
    }

    /// Probability that a delivered grant is delayed, and the delay bound.
    /// Delays longer than the lease TTL make the grant dead on arrival;
    /// unequal delays across epochs reorder deliveries.
    pub fn with_grant_delay(mut self, rate: f64, max_delay_ns: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.edit().grant_delay_rate = rate;
        self.edit().grant_max_delay_ns = max_delay_ns;
        self
    }

    /// Probability that a node's per-epoch telemetry report never reaches
    /// the coordinator (its view of that node goes stale).
    pub fn with_report_loss_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.edit().report_loss_rate = rate;
        self
    }

    /// Give every node's RCR daemon a PR-1-style fault diet: transient MSR
    /// read errors at `transient_rate`, and (if `kill_period_ns > 0`) a
    /// scripted daemon kill every `kill_period_ns`, staggered per node, so
    /// the in-node supervisors exercise their restart path during fleet
    /// runs.
    pub fn with_daemon_faults(mut self, transient_rate: f64, kill_period_ns: u64) -> Self {
        assert!((0.0..=1.0).contains(&transient_rate));
        self.edit().daemon_transient_rate = transient_rate;
        self.edit().daemon_kill_period_ns = kill_period_ns;
        self
    }

    fn draw(&self, channel: Channel, node: usize, epoch: u64) -> u64 {
        // Three rounds of the mixer over the tuple: cheap, stateless, and
        // well-decorrelated across all three key components.
        let k = splitmix(self.schedule.seed ^ splitmix((channel as u64) << 48 ^ node as u64));
        splitmix(k ^ epoch)
    }

    fn fires(&self, channel: Channel, node: usize, epoch: u64, rate: f64) -> bool {
        rate > 0.0 && unit_f64(self.draw(channel, node, epoch)) < rate
    }

    /// Scheduled crash instants for `node` (sorted; empty when none).
    pub fn crashes_for(&self, node: usize) -> &[u64] {
        self.schedule.crashes.get(&node).map_or(&[], Vec::as_slice)
    }

    /// Is `node` inside a telemetry partition at virtual time `t_ns`?
    pub fn partitioned(&self, node: usize, t_ns: u64) -> bool {
        self.schedule.partitions.iter().any(|w| w.covers(node, t_ns))
    }

    /// Is the epoch-`epoch` grant to `node` lost in flight?
    pub fn grant_lost(&self, node: usize, epoch: u64) -> bool {
        self.fires(Channel::GrantLoss, node, epoch, self.schedule.grant_loss_rate)
    }

    /// Is the epoch-`epoch` grant to `node` duplicated?
    pub fn grant_duplicated(&self, node: usize, epoch: u64) -> bool {
        self.fires(Channel::GrantDup, node, epoch, self.schedule.grant_dup_rate)
    }

    /// In-flight delay of the epoch-`epoch` grant to `node` (0 = on time).
    pub fn grant_delay_ns(&self, node: usize, epoch: u64) -> u64 {
        let s = &self.schedule;
        if s.grant_max_delay_ns == 0
            || !self.fires(Channel::GrantDelay, node, epoch, s.grant_delay_rate)
        {
            return 0;
        }
        self.draw(Channel::GrantDelayAmount, node, epoch) % (s.grant_max_delay_ns + 1)
    }

    /// Is the epoch-`epoch` telemetry report from `node` lost?
    pub fn report_lost(&self, node: usize, epoch: u64) -> bool {
        self.fires(Channel::ReportLoss, node, epoch, self.schedule.report_loss_rate)
    }

    /// The PR-1 `FaultPlan` for `node`'s RCR daemon in incarnation
    /// `incarnation` (restarted daemons draw a fresh-but-deterministic
    /// fault stream). `None` when the plan prescribes no in-node faults.
    pub fn node_daemon_faults(&self, node: usize, incarnation: u32) -> Option<FaultPlan> {
        let s = &self.schedule;
        if s.daemon_transient_rate == 0.0 && s.daemon_kill_period_ns == 0 {
            return None;
        }
        let node_seed =
            splitmix(s.seed ^ splitmix(0xDAE_u64 << 48 ^ node as u64)) ^ u64::from(incarnation);
        let mut plan = FaultPlan::new(node_seed);
        if s.daemon_transient_rate > 0.0 {
            plan = plan.with_transient_error_rate(s.daemon_transient_rate);
        }
        if s.daemon_kill_period_ns > 0 {
            // Stagger the kill phase per node so the whole fleet's daemons
            // don't die in lockstep.
            let phase = self.draw(Channel::ReportLoss, node, u64::MAX) % s.daemon_kill_period_ns;
            let kills: Vec<u64> = (1..=4).map(|k| phase + k * s.daemon_kill_period_ns).collect();
            plan = plan.with_daemon_kills(&kills);
        }
        Some(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_stateless_and_seed_sensitive() {
        let a = FleetFaultPlan::new(7).with_grant_loss_rate(0.5);
        let b = FleetFaultPlan::new(7).with_grant_loss_rate(0.5);
        let c = FleetFaultPlan::new(8).with_grant_loss_rate(0.5);
        let pattern = |p: &FleetFaultPlan| {
            (0..64).flat_map(|n| (0..16).map(move |e| (n, e))).map(|(n, e)| p.grant_lost(n, e)).collect::<Vec<_>>()
        };
        assert_eq!(pattern(&a), pattern(&a), "stateless: re-query identical");
        assert_eq!(pattern(&a), pattern(&b));
        assert_ne!(pattern(&a), pattern(&c), "different seed, different schedule");
        let fired = pattern(&a).iter().filter(|f| **f).count();
        assert!((300..=700).contains(&fired), "rate 0.5 over 1024 draws: {fired}");
    }

    #[test]
    fn crash_wave_staggers_nodes() {
        let p = FleetFaultPlan::new(1).with_crash_wave(1_000, 4, 3, 10);
        assert_eq!(p.crashes_for(4), &[1_000]);
        assert_eq!(p.crashes_for(5), &[1_010]);
        assert_eq!(p.crashes_for(6), &[1_020]);
        assert_eq!(p.crashes_for(3), &[] as &[u64]);
    }

    #[test]
    fn indexed_crash_lookup_matches_a_brute_force_scan() {
        const NODES: usize = 2_048;
        let extra: [(usize, &[u64]); 4] =
            [(5, &[9_000, 1_000]), (5, &[3_000, 9_000]), (2_047, &[7]), (2_100, &[42, 41])];
        let mut plan = FleetFaultPlan::new(4).with_crash_wave(50_000, 0, NODES, 3);
        for (node, at) in extra {
            plan = plan.with_node_crashes(node, at);
        }
        // Every instant ever scheduled, as (node, t) pairs in call order.
        let mut scheduled: Vec<(usize, u64)> =
            (0..NODES).map(|i| (i, 50_000 + i as u64 * 3)).collect();
        scheduled.extend(extra.iter().flat_map(|(n, at)| at.iter().map(move |&t| (*n, t))));
        for node in 0..NODES + 64 {
            let mut want: Vec<u64> =
                scheduled.iter().filter(|(n, _)| *n == node).map(|(_, t)| *t).collect();
            want.sort_unstable();
            want.dedup();
            assert_eq!(plan.crashes_for(node), want.as_slice(), "node {node}");
        }
        assert_eq!(plan.crashes_for(5), &[1_000, 3_000, 9_000, 50_015]);
    }

    #[test]
    fn clones_share_the_crash_lists() {
        let plan = FleetFaultPlan::new(1).with_crash_wave(1_000, 0, 64, 10);
        let copy = plan.clone();
        assert!(std::ptr::eq(plan.crashes_for(9), copy.crashes_for(9)), "a clone is a handle");
        // Building on from a shared plan copies it first: the original is
        // never edited through a clone.
        let grown = copy.with_node_crashes(9, &[5]);
        assert_eq!(plan.crashes_for(9), &[1_090]);
        assert_eq!(grown.crashes_for(9), &[5, 1_090]);
    }

    #[test]
    fn partition_window_is_half_open() {
        let p = FleetFaultPlan::new(1).with_partition(100, 200, 2, 2);
        assert!(!p.partitioned(1, 150));
        assert!(p.partitioned(2, 100));
        assert!(p.partitioned(3, 199));
        assert!(!p.partitioned(3, 200));
        assert!(!p.partitioned(4, 150));
    }

    #[test]
    fn delay_respects_bound_and_zero_rate() {
        let p = FleetFaultPlan::new(3).with_grant_delay(1.0, 5_000);
        let mut nonzero = 0;
        for e in 0..200 {
            let d = p.grant_delay_ns(0, e);
            assert!(d <= 5_000);
            nonzero += u64::from(d > 0);
        }
        assert!(nonzero > 150, "rate 1.0 should almost always delay: {nonzero}");
        let q = FleetFaultPlan::new(3);
        assert_eq!(q.grant_delay_ns(0, 1), 0);
    }

    #[test]
    fn daemon_faults_differ_across_nodes_and_incarnations() {
        let p = FleetFaultPlan::new(9).with_daemon_faults(0.01, 1_000_000);
        let a = p.node_daemon_faults(0, 0).unwrap();
        let b = p.node_daemon_faults(1, 0).unwrap();
        let a2 = p.node_daemon_faults(0, 1).unwrap();
        assert_ne!(a.daemon_kills(), b.daemon_kills());
        assert_eq!(a.daemon_kills(), a2.daemon_kills(), "kill phase is per node");
        assert!(FleetFaultPlan::new(9).node_daemon_faults(0, 0).is_none());
    }
}
