//! The sharded fleet: N node simulations fanned over `parallel_map`,
//! synchronized with the coordinator once per epoch.
//!
//! One epoch of [`Fleet::advance_epochs`] is:
//!
//! 1. **Fan out** — every node advances independently to the epoch
//!    boundary on the PR-5 work queue ([`crate::harness::parallel_map`]).
//!    Nodes share nothing, so the shard count changes wall-clock time
//!    only: state is byte-identical for any `jobs`.
//! 2. **Telemetry up** — in node-index order, each up node's report is
//!    offered to the coordinator unless the fault plan loses it or the
//!    node is partitioned. Lost reports leave the coordinator's previous,
//!    stale-stamped view in place.
//! 3. **Allocate** — the coordinator runs one epoch (serial, ordered).
//! 4. **Grants down** — each grant traverses the faulty message layer:
//!    lost (dropped), delayed (arrival pushed, possibly past its own
//!    TTL), duplicated (a second copy later), or partitioned away, then
//!    lands in the node's inbox as a timestamped delivery event.
//!
//! [`FleetReport`] folds the run into the numbers the experiment family
//! reports — fleet energy, throttle statistics — and *checks the
//! cap-safety invariant* by replaying every node's enforced-cap timeline
//! from its degradation trace: at every trace timestamp, the sum of
//! enforced caps must stay at or below the cluster cap.

use maestro_machine::snap::{fingerprint, Codec, SnapError, SnapReader, SnapWriter};

use crate::coordinator::{Coordinator, CoordinatorStats, NodeView};
use crate::faults::FleetFaultPlan;
use crate::harness::parallel_map;
use crate::node::{NodeSim, NodeState, NodeStats, NodeWork};

/// Grant-message base transit latency (applied to every delivery, before
/// any fault-plan delay).
pub const GRANT_TRANSIT_NS: u64 = 1_000_000;

/// Extra lag of the duplicate copy behind the original.
const DUP_LAG_NS: u64 = 500_000;

/// Per-node conservative floor cap, Watts: what a node enforces whenever it
/// holds no lease, and what the coordinator assumes of a node it has not
/// heard from.
pub const FLOOR_W: f64 = 40.0;

/// Coordination epoch.
pub const EPOCH_NS: u64 = 1_000_000_000;

/// Everything needed to build a fleet deterministically.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Nodes per rack for the hierarchical split.
    pub nodes_per_rack: usize,
    /// Cluster power cap, Watts. Must cover every node's floor.
    pub cluster_cap_w: f64,
    /// Lease time-to-live. Longer than one epoch so a single lost grant
    /// degrades nothing; the next epoch's grant renews the lease first.
    pub lease_ttl_ns: u64,
    /// The fleet fault schedule.
    pub faults: FleetFaultPlan,
}

impl FleetConfig {
    /// A fleet of `nodes` nodes with a cluster cap of `cap_per_node_w`
    /// Watts per node, racks of 8, 2.5 s leases, and no faults (seeded
    /// `seed`).
    pub fn new(nodes: usize, cap_per_node_w: f64, seed: u64) -> Self {
        FleetConfig {
            nodes,
            nodes_per_rack: 8,
            cluster_cap_w: nodes as f64 * cap_per_node_w,
            lease_ttl_ns: 2_500_000_000,
            faults: FleetFaultPlan::new(seed),
        }
    }

    /// Panic unless the configuration can possibly be safe.
    pub fn validate(&self) {
        assert!(self.nodes > 0 && self.nodes_per_rack > 0);
        assert!(self.cluster_cap_w > 0.0);
        assert!(
            self.nodes as f64 * FLOOR_W <= self.cluster_cap_w,
            "floors alone exceed the cluster cap: {} × {} > {}",
            self.nodes,
            FLOOR_W,
            self.cluster_cap_w
        );
        assert!(self.lease_ttl_ns > EPOCH_NS, "a lease must outlive one epoch");
    }

    /// Fingerprint of everything a node snapshot must be restored against.
    /// The floor and epoch bytes stay in the key, so node snapshots keep
    /// their fingerprint.
    fn snapshot_fingerprint(&self) -> u64 {
        let mut key = Vec::new();
        key.extend_from_slice(b"maestro-fleet-node/v1");
        key.extend_from_slice(&(self.nodes as u64).to_le_bytes());
        key.extend_from_slice(&(self.nodes_per_rack as u64).to_le_bytes());
        key.extend_from_slice(&self.cluster_cap_w.to_le_bytes());
        key.extend_from_slice(&FLOOR_W.to_le_bytes());
        key.extend_from_slice(&EPOCH_NS.to_le_bytes());
        key.extend_from_slice(&self.lease_ttl_ns.to_le_bytes());
        key.extend_from_slice(&self.faults.seed().to_le_bytes());
        fingerprint(&key)
    }
}

/// Per-node summary row of a [`FleetReport`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct NodeReport {
    /// Node index.
    pub node: usize,
    /// Node energy over the run, Joules.
    pub energy_j: f64,
    /// Lifetime tallies.
    pub stats: NodeStats,
    /// Final governor ladder level.
    pub final_throttle: u8,
}

/// What a fleet run produced.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Virtual seconds simulated.
    pub virtual_s: f64,
    /// The cluster cap the run was arbitrating.
    pub cluster_cap_w: f64,
    /// Fleet-wide energy, Joules.
    pub total_energy_j: f64,
    /// Timestamps at which `Σ enforced caps > cluster cap` (must be 0).
    pub cap_violations: u64,
    /// Peak of `Σ enforced caps` over the run, Watts.
    pub max_cap_sum_w: f64,
    /// Coordinator tallies.
    pub coordinator: CoordinatorStats,
    /// Grant messages lost / duplicated / delayed by the fault layer.
    pub grants_lost: u64,
    /// Duplicated grant deliveries.
    pub grants_duplicated: u64,
    /// Delayed grant deliveries.
    pub grants_delayed: u64,
    /// Telemetry reports that never reached the coordinator.
    pub reports_lost: u64,
    /// Per-node rows, in node order.
    pub nodes: Vec<NodeReport>,
}

impl FleetReport {
    /// Aggregate crash count.
    pub fn crashes(&self) -> u64 {
        self.nodes.iter().map(|n| n.stats.crashes).sum()
    }

    /// Aggregate restart count.
    pub fn restarts(&self) -> u64 {
        self.nodes.iter().map(|n| n.stats.restarts).sum()
    }

    /// Aggregate lease expiries (degradations to the floor).
    pub fn lease_expiries(&self) -> u64 {
        self.nodes.iter().map(|n| n.stats.lease_expiries).sum()
    }

    /// Deterministic text rendering (byte-identical across `--jobs`): the
    /// [summary](Self::render_summary), then one row per node.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = self.render_summary();
        for n in &self.nodes {
            let _ = writeln!(
                out,
                "  node {:>3}: {:>10.3} J, crashes {}, restarts {}, leases {}/{}/{} (ok/drop/expire), throttle {} steps (max {}, final {})",
                n.node,
                n.energy_j,
                n.stats.crashes,
                n.stats.restarts,
                n.stats.leases_applied,
                n.stats.leases_discarded,
                n.stats.lease_expiries,
                n.stats.throttle_steps,
                n.stats.max_throttle_level,
                n.final_throttle,
            );
        }
        out
    }

    /// The fleet-wide lines of [`Self::render`]: size, energy, cap safety,
    /// fault and throttle totals.
    pub fn render_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet: {} nodes, {:.1} s virtual, cluster cap {:.0} W",
            self.nodes.len(),
            self.virtual_s,
            self.cluster_cap_w
        );
        let _ = writeln!(
            out,
            "energy {:.3} J | cap violations {} | peak Σcaps {:.3} W",
            self.total_energy_j, self.cap_violations, self.max_cap_sum_w
        );
        let _ = writeln!(
            out,
            "faults: {} crashes, {} restarts, {} lease expiries, {} grants lost, {} dup, {} delayed, {} reports lost",
            self.crashes(),
            self.restarts(),
            self.lease_expiries(),
            self.grants_lost,
            self.grants_duplicated,
            self.grants_delayed,
            self.reports_lost
        );
        let steps: u64 = self.nodes.iter().map(|n| n.stats.throttle_steps).sum();
        let dark: u64 = self.nodes.iter().map(|n| n.stats.dark_periods).sum();
        let max_level = self.nodes.iter().map(|n| n.stats.max_throttle_level).max().unwrap_or(0);
        let _ = writeln!(
            out,
            "throttle: {} steps, peak level {}, {} dark periods, coordinator epochs {}",
            steps, max_level, dark, self.coordinator.epochs
        );
        out
    }
}

/// The fleet: nodes + coordinator + message layer. See the module docs.
pub struct Fleet {
    cfg: FleetConfig,
    nodes: Vec<NodeSim>,
    coord: Coordinator,
    now_ns: u64,
    grants_lost: u64,
    grants_duplicated: u64,
    grants_delayed: u64,
    reports_lost: u64,
}

impl Fleet {
    /// Build the fleet at virtual time 0.
    pub fn new(cfg: FleetConfig) -> Self {
        let coord = Coordinator::new(cfg.clone());
        let nodes =
            (0..cfg.nodes).map(|id| NodeSim::new(id, cfg.nodes, cfg.faults.clone())).collect();
        Fleet {
            nodes,
            coord,
            now_ns: 0,
            grants_lost: 0,
            grants_duplicated: 0,
            grants_delayed: 0,
            reports_lost: 0,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Current virtual time.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Immutable access to a node (tests, snapshots).
    pub fn node(&self, id: usize) -> &NodeSim {
        &self.nodes[id]
    }

    /// The coordinator.
    pub fn coordinator(&self) -> &Coordinator {
        &self.coord
    }

    /// Exact event-loop work summed over every node (see [`NodeWork`]).
    pub fn work(&self) -> NodeWork {
        let mut total = NodeWork::default();
        for node in &self.nodes {
            total += node.work();
        }
        total
    }

    /// Advance the whole fleet by `epochs` coordination epochs, fanning
    /// node advances over `jobs` shard threads.
    pub fn advance_epochs(&mut self, epochs: u64, jobs: usize) {
        for _ in 0..epochs {
            self.step_epoch(jobs);
        }
    }

    fn step_epoch(&mut self, jobs: usize) {
        let t_end = self.now_ns + EPOCH_NS;

        // 1. Fan out: each node advances independently to the boundary.
        let nodes = std::mem::take(&mut self.nodes);
        let slots: Vec<std::sync::Mutex<Option<NodeSim>>> =
            nodes.into_iter().map(|n| std::sync::Mutex::new(Some(n))).collect();
        self.nodes = parallel_map(slots.len(), jobs, |i| {
            let mut node =
                slots[i].lock().expect("node slot poisoned").take().expect("node present");
            node.advance_to(t_end);
            node
        });

        // 2. Telemetry up (serial, node order).
        let epoch = self.coord.epoch() + 1; // the epoch these messages belong to
        for node in &self.nodes {
            let id = node.id();
            if self.cfg.faults.partitioned(id, t_end) || self.cfg.faults.report_lost(id, epoch) {
                self.reports_lost += 1;
                continue;
            }
            self.coord.report(
                id,
                NodeView {
                    stamp_ns: t_end,
                    power_w: node.power_w(),
                    demand_w: node.demand_w(),
                    up: node.up(),
                },
            );
        }

        // 3. Allocate (serial).
        let grants = self.coord.allocate(t_end);

        // 4. Grants down through the faulty message layer. `allocate`
        // returns exactly one lease per node, in node order.
        debug_assert_eq!(grants.len(), self.nodes.len());
        for (id, grant) in grants.into_iter().enumerate() {
            if self.cfg.faults.partitioned(id, t_end) || self.cfg.faults.grant_lost(id, grant.epoch)
            {
                self.grants_lost += 1;
                continue;
            }
            let delay = self.cfg.faults.grant_delay_ns(id, grant.epoch);
            if delay > 0 {
                self.grants_delayed += 1;
            }
            let arrive = t_end + GRANT_TRANSIT_NS + delay;
            self.nodes[id].deliver(arrive, grant);
            if self.cfg.faults.grant_duplicated(id, grant.epoch) {
                self.grants_duplicated += 1;
                self.nodes[id].deliver(arrive + DUP_LAG_NS, grant);
            }
        }

        self.now_ns = t_end;
    }

    /// Walk every node's degradation trace and fold the enforced-cap
    /// timeline: returns `(violation_count, peak_sum_w)`.
    pub fn cap_timeline(&self) -> (u64, f64) {
        // (t, node, seq, new_cap). Stable order: time, then node, then the
        // event's position in its node trace.
        let mut changes: Vec<(u64, usize, usize, f64)> = Vec::new();
        for node in &self.nodes {
            for (seq, (t, e)) in node.trace().iter().enumerate() {
                if let Some(cap) = e.cap_change_w() {
                    changes.push((*t, node.id(), seq, cap));
                }
            }
        }
        changes.sort_unstable_by(|a, b| (a.0, a.1, a.2).partial_cmp(&(b.0, b.1, b.2)).expect("ints"));
        let mut caps = vec![FLOOR_W; self.nodes.len()];
        let mut sum: f64 = caps.iter().sum();
        let mut peak = sum;
        let mut violations = 0u64;
        let tolerance = self.cfg.cluster_cap_w * (1.0 + 1e-9);
        let mut i = 0;
        while i < changes.len() {
            let t = changes[i].0;
            while i < changes.len() && changes[i].0 == t {
                let (_, node, _, cap) = changes[i];
                sum += cap - caps[node];
                caps[node] = cap;
                i += 1;
            }
            // Evaluate once per distinct timestamp, after all simultaneous
            // changes are folded (a renewal that replaces a lease at the
            // same instant is one atomic transition).
            peak = peak.max(sum);
            if sum > tolerance {
                violations += 1;
            }
        }
        (violations, peak)
    }

    /// A deterministic digest of every node's degradation trace — the
    /// byte-identity witness the determinism suite compares across
    /// `--jobs` and against serial runs.
    pub fn trace_digest(&self) -> u64 {
        let mut w = SnapWriter::new();
        for node in &self.nodes {
            w.len(node.trace().len())
                .and_then(|_| w.section(|w| node.codec(w)))
                .expect("live state encodes");
        }
        fingerprint(&w.finish())
    }

    /// Fold the run into a [`FleetReport`].
    pub fn report(&self) -> FleetReport {
        let (cap_violations, max_cap_sum_w) = self.cap_timeline();
        FleetReport {
            virtual_s: self.now_ns as f64 / 1e9,
            cluster_cap_w: self.cfg.cluster_cap_w,
            total_energy_j: self.nodes.iter().map(|n| n.energy_j()).sum(),
            cap_violations,
            max_cap_sum_w,
            coordinator: self.coord.stats(),
            grants_lost: self.grants_lost,
            grants_duplicated: self.grants_duplicated,
            grants_delayed: self.grants_delayed,
            reports_lost: self.reports_lost,
            nodes: self
                .nodes
                .iter()
                .map(|n| NodeReport {
                    node: n.id(),
                    energy_j: n.energy_j(),
                    stats: n.stats(),
                    final_throttle: n.throttle_level(),
                })
                .collect(),
        }
    }

    // -----------------------------------------------------------------
    // Per-node snapshots
    // -----------------------------------------------------------------

    /// Serialize node `id`'s full state, self-identified by a fingerprint
    /// of the fleet configuration, for `maestro-bench replay` of a single
    /// shard.
    pub fn snapshot_node(&self, id: usize) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.header(self.cfg.snapshot_fingerprint());
        Self::node_codec(&mut w, &self.cfg, id, self.now_ns, Some(&self.nodes[id]))
            .expect("live state encodes");
        w.finish()
    }

    /// Rebuild one node from a [`Fleet::snapshot_node`] blob and this
    /// fleet configuration. Returns the node and the fleet virtual time at
    /// capture.
    pub fn restore_node(cfg: &FleetConfig, bytes: &[u8]) -> Result<(NodeSim, u64), SnapError> {
        let mut r = SnapReader::new(bytes);
        r.header(cfg.snapshot_fingerprint())?;
        let (st, captured_ns) = Self::node_codec(&mut r, cfg, 0, 0, None)?;
        r.finish()?;
        Ok((st.into_node().expect("the reader decodes a node"), captured_ns))
    }

    /// The node snapshot layout (see [`Codec`]): node index, fleet clock,
    /// then the node's state. The writer encodes `live`; the reader decodes
    /// into a node freshly built for the decoded index.
    fn node_codec<C: Codec>(
        c: &mut C,
        cfg: &FleetConfig,
        id: usize,
        now_ns: u64,
        live: Option<&NodeSim>,
    ) -> Result<(NodeState, u64), SnapError> {
        let id = c.len(id)?;
        if id >= cfg.nodes {
            return Err(SnapError::Corrupt("node index out of range for fleet config"));
        }
        let captured_ns = c.u64(now_ns)?;
        let fresh = live.is_none().then(|| NodeSim::new(id, cfg.nodes, cfg.faults.clone()));
        let st = live.or(fresh.as_ref()).expect("a live or fresh node").codec(c)?;
        Ok((st, captured_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    fn small_fleet(seed: u64) -> FleetConfig {
        let mut cfg = FleetConfig::new(8, 100.0, seed);
        cfg.nodes_per_rack = 4;
        cfg
    }

    #[test]
    fn fleet_runs_and_respects_the_cap() {
        let mut f = Fleet::new(small_fleet(1));
        f.advance_epochs(12, 1);
        let r = f.report();
        assert_eq!(r.cap_violations, 0);
        assert!(r.max_cap_sum_w <= r.cluster_cap_w * (1.0 + 1e-9));
        assert!(r.total_energy_j > 0.0);
        assert_eq!(r.nodes.len(), 8);
    }

    #[test]
    fn parallel_shards_are_byte_identical_to_serial() {
        let run = |jobs: usize| {
            let mut cfg = small_fleet(3);
            cfg.faults = cfg
                .faults
                .with_crash_wave(3 * SEC, 2, 3, 200_000_000)
                .with_partition(5 * SEC, 8 * SEC, 4, 2)
                .with_grant_loss_rate(0.2)
                .with_grant_dup_rate(0.1)
                .with_grant_delay(0.3, 400_000_000);
            let mut f = Fleet::new(cfg);
            f.advance_epochs(15, jobs);
            (f.trace_digest(), f.report().render())
        };
        let (d1, r1) = run(1);
        for jobs in [2, 4, 8] {
            let (dj, rj) = run(jobs);
            assert_eq!(d1, dj, "trace digest must not depend on jobs");
            assert_eq!(r1, rj, "report must not depend on jobs");
        }
    }

    #[test]
    fn crash_partition_and_message_chaos_keep_cap_safe() {
        for seed in 1..=4 {
            let mut cfg = small_fleet(seed);
            cfg.faults = cfg
                .faults
                .with_crash_wave(2 * SEC, 0, 4, 300_000_000)
                .with_partition(4 * SEC, 9 * SEC, 4, 4)
                .with_grant_loss_rate(0.3)
                .with_grant_dup_rate(0.2)
                .with_grant_delay(0.4, 2 * SEC)
                .with_report_loss_rate(0.2);
            let mut f = Fleet::new(cfg);
            f.advance_epochs(20, 2);
            let r = f.report();
            assert_eq!(r.cap_violations, 0, "seed {seed}");
            assert!(r.crashes() >= 4, "seed {seed}: wave must land");
            assert!(r.lease_expiries() > 0, "seed {seed}: partition must expire leases");
        }
    }

    #[test]
    fn node_snapshot_round_trips_through_the_fleet() {
        let mut cfg = small_fleet(7);
        // Crash 40 ms before the epoch-4 boundary: the 50 ms restart
        // backoff holds the node down at capture time.
        cfg.faults = cfg.faults.with_node_crashes(3, &[4 * SEC - 40_000_000]);
        let mut f = Fleet::new(cfg.clone());
        f.advance_epochs(4, 2);
        assert!(!f.node(3).up(), "restart backoff holds node 3 down at 4 s");
        let blob = f.snapshot_node(3);
        let (node, captured_ns) = Fleet::restore_node(&cfg, &blob).unwrap();
        assert_eq!(captured_ns, 4 * SEC);
        assert_eq!(node.trace(), f.node(3).trace());
        assert_eq!(node.energy_j().to_bits(), f.node(3).energy_j().to_bits());
        // Wrong-config restores are rejected by fingerprint.
        let other = small_fleet(8);
        assert!(Fleet::restore_node(&other, &blob).is_err());
    }

    #[test]
    fn degradation_is_deterministic_per_seed() {
        let run = || {
            let mut cfg = small_fleet(5);
            cfg.faults =
                cfg.faults.with_partition(2 * SEC, 10 * SEC, 0, 4).with_grant_loss_rate(0.15);
            let mut f = Fleet::new(cfg);
            f.advance_epochs(12, 4);
            f.trace_digest()
        };
        assert_eq!(run(), run());
    }
}
