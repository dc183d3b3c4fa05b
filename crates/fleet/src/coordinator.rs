//! The cluster power-budget coordinator: hierarchical allocation with
//! conservative accounting of everything it has ever promised.
//!
//! Each coordination epoch the [`Coordinator`] takes the node views it has
//! managed to hear (telemetry may be lost or partitioned away — a missing
//! report leaves the previous, stale-stamped view in place, exactly like
//! the PR-1 blackboard health stamps) and produces one [`BudgetLease`] per
//! node, arbitrating the cluster cap in two stages: **cluster → rack**
//! (slack proportional to rack demand) and **rack → node** (the rack's
//! share proportional to node demand). Loaded nodes get the headroom;
//! idle, stale, and dead nodes are held at the floor.
//!
//! # The cap-safety invariant and conservative accounting
//!
//! The channel to the nodes is unreliable, so the coordinator can never
//! know which of its grants a node is actually enforcing. Safety therefore
//! rests on accounting for every grant it has **sent**: until a sent
//! lease's expiry timestamp passes, the coordinator assumes the node may
//! be running at that lease's cap, and it budgets new grants against
//!
//! ```text
//! assumed(n, t) = max(floor, max { cap of unexpired grants sent to n })
//! ```
//!
//! New allocations keep `Σ assumed ≤ cluster cap`. Consequences:
//!
//! * **growth is immediate** — raising a node's cap consumes slack now;
//! * **shrink frees budget only after the old lease expires** — a lowered
//!   grant may be lost in flight, so the node's old, higher cap remains
//!   assumed until its TTL runs out;
//! * **loss, duplication, reordering, partition, and crash are all safe**
//!   for free: whatever subset of sent grants a node ends up holding, its
//!   enforced cap is ≤ `assumed(n, t)`, and the floors sum below the cap
//!   by construction ([`FleetConfig::validate`]).

use maestro_rcr::BudgetLease;

use crate::sim::{FleetConfig, EPOCH_NS, FLOOR_W};

/// A node view older than this is treated as dead air: the node is held at
/// its floor until it is heard from again.
const VIEW_STALE_AFTER_NS: u64 = 2 * EPOCH_NS + EPOCH_NS / 2;

/// The coordinator's last-heard view of one node.
#[derive(Copy, Clone, Debug)]
pub struct NodeView {
    /// Virtual time the report was taken. The coordinator never clears a
    /// view — a partitioned node's view just ages out.
    pub stamp_ns: u64,
    /// Reported node power, Watts.
    pub power_w: f64,
    /// Reported unthrottled demand, Watts.
    pub demand_w: f64,
    /// Whether the node reported itself up.
    pub up: bool,
}

/// Lifetime tallies of one coordinator.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CoordinatorStats {
    /// Grants produced (all epochs × nodes).
    pub grants_sent: u64,
    /// Allocation rounds run.
    pub epochs: u64,
    /// Node-epochs where the view was stale/dead and the node was held at
    /// its floor.
    pub stale_views: u64,
}

/// See the module docs.
#[derive(Clone, Debug)]
pub struct Coordinator {
    cfg: FleetConfig,
    epoch: u64,
    views: Vec<Option<NodeView>>,
    /// Per node: every sent grant whose expiry has not passed yet.
    outstanding: Vec<Vec<BudgetLease>>,
    stats: CoordinatorStats,
}

impl Coordinator {
    /// A coordinator for the fleet `cfg` that has heard from nobody.
    pub fn new(cfg: FleetConfig) -> Self {
        cfg.validate();
        Coordinator {
            epoch: 0,
            views: vec![None; cfg.nodes],
            outstanding: vec![Vec::new(); cfg.nodes],
            stats: CoordinatorStats::default(),
            cfg,
        }
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    fn rack_of(&self, node: usize) -> usize {
        node / self.cfg.nodes_per_rack
    }

    /// Current coordination epoch (0 = none run yet).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Tallies.
    pub fn stats(&self) -> CoordinatorStats {
        self.stats
    }

    /// Ingest a telemetry report from `node`. The message layer calls this
    /// only for reports that actually survived loss/partition.
    pub fn report(&mut self, node: usize, view: NodeView) {
        self.views[node] = Some(view);
    }

    /// What the coordinator must assume `node` may be enforcing at `t`.
    pub fn assumed_cap_w(&self, node: usize, now_ns: u64) -> f64 {
        self.outstanding[node]
            .iter()
            .filter(|l| l.expires_ns > now_ns)
            .map(|l| l.cap_w)
            .fold(FLOOR_W, f64::max)
    }

    /// `Σ assumed(n, t)` — the quantity the allocator keeps ≤ cluster cap.
    pub fn assumed_total_w(&self, now_ns: u64) -> f64 {
        (0..self.cfg.nodes).map(|n| self.assumed_cap_w(n, now_ns)).sum()
    }

    /// Run one coordination epoch at virtual time `now_ns`: produce the
    /// grant to send each node. Deterministic: allocation walks nodes in
    /// index order, and the caller invokes this serially between shard
    /// fan-outs.
    pub fn allocate(&mut self, now_ns: u64) -> Vec<BudgetLease> {
        self.epoch += 1;
        self.stats.epochs += 1;
        let expires_ns = now_ns + self.cfg.lease_ttl_ns;

        // Drop grants whose TTL has passed — their budget is free again.
        for sent in &mut self.outstanding {
            sent.retain(|l| l.expires_ns > now_ns);
        }

        // Demand per node: floor for the silent/stale/dead, reported
        // demand (at least the floor) for the live.
        let demand: Vec<f64> = (0..self.cfg.nodes)
            .map(|n| match &self.views[n] {
                Some(v) if v.up && now_ns.saturating_sub(v.stamp_ns) <= VIEW_STALE_AFTER_NS => {
                    v.demand_w.max(FLOOR_W)
                }
                _ => {
                    self.stats.stale_views += 1;
                    FLOOR_W
                }
            })
            .collect();

        // Conservative baseline and the slack left above it.
        let residual: Vec<f64> =
            (0..self.cfg.nodes).map(|n| self.assumed_cap_w(n, now_ns)).collect();
        let residual_sum: f64 = residual.iter().sum();
        // Scale fractionally below 1 so float rounding in the proportional
        // splits can never nudge the total over the cap.
        let slack = ((self.cfg.cluster_cap_w - residual_sum) * (1.0 - 1e-9)).max(0.0);

        // How much above its baseline each node wants.
        let want: Vec<f64> = (0..self.cfg.nodes)
            .map(|n| (demand[n].min(self.cfg.cluster_cap_w) - residual[n]).max(0.0))
            .collect();

        // Cluster → rack: slack proportional to rack want.
        let mut rack_want = vec![0.0f64; self.cfg.nodes.div_ceil(self.cfg.nodes_per_rack)];
        for n in 0..self.cfg.nodes {
            rack_want[self.rack_of(n)] += want[n];
        }
        let total_want: f64 = rack_want.iter().sum();

        let mut grants = Vec::with_capacity(self.cfg.nodes);
        for n in 0..self.cfg.nodes {
            let rack = self.rack_of(n);
            // Rack → node: the rack's share proportional to node want.
            let extra = if total_want > 0.0 && rack_want[rack] > 0.0 {
                let rack_extra = slack * rack_want[rack] / total_want;
                rack_extra * want[n] / rack_want[rack]
            } else {
                0.0
            };
            // Shrinks grant the (lower) demand outright; growth is capped
            // by the node's share of the slack.
            let cap_w = demand[n].min(residual[n] + extra).max(FLOOR_W);
            let lease = BudgetLease { epoch: self.epoch, cap_w, expires_ns };
            self.outstanding[n].push(lease);
            self.stats.grants_sent += 1;
            grants.push(lease);
        }

        debug_assert!(
            self.assumed_total_w(now_ns) <= self.cfg.cluster_cap_w * (1.0 + 1e-9),
            "allocator broke its own invariant"
        );
        grants
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    fn cfg(nodes: usize) -> FleetConfig {
        let mut cfg = FleetConfig::new(nodes, 100.0, 0);
        cfg.nodes_per_rack = 4;
        cfg
    }

    fn view(stamp_ns: u64, demand_w: f64) -> NodeView {
        NodeView { stamp_ns, power_w: demand_w * 0.9, demand_w, up: true }
    }

    #[test]
    fn headroom_flows_to_loaded_nodes() {
        let mut c = Coordinator::new(cfg(8));
        for n in 0..8 {
            let demand = if n < 2 { 150.0 } else { 60.0 };
            c.report(n, view(0, demand));
        }
        let grants = c.allocate(0);
        assert!(grants[0].cap_w > grants[4].cap_w, "loaded nodes get more: {grants:?}");
        assert!(grants[0].cap_w <= 150.0 + 1e-9);
        assert!((grants[4].cap_w - 60.0).abs() < 1e-9, "light node gets its demand");
        let total: f64 = grants.iter().map(|g| g.cap_w).sum();
        assert!(total <= c.config().cluster_cap_w * (1.0 + 1e-9));
    }

    #[test]
    fn silent_nodes_are_held_at_the_floor() {
        let mut c = Coordinator::new(cfg(4));
        c.report(0, view(0, 200.0));
        // Nodes 1-3 never reported.
        let grants = c.allocate(0);
        for g in &grants[1..] {
            assert_eq!(g.cap_w, 40.0);
        }
        assert!(grants[0].cap_w > 40.0);
        assert_eq!(c.stats().stale_views, 3);
    }

    #[test]
    fn stale_views_age_out() {
        let mut c = Coordinator::new(cfg(4));
        for n in 0..4 {
            c.report(n, view(0, 120.0));
        }
        let g0 = c.allocate(0);
        assert!(g0[2].cap_w > 40.0);
        // Nodes 2 & 3 partitioned: no new reports. 3 s later their stamps
        // are beyond VIEW_STALE_AFTER_NS.
        c.report(0, view(3 * SEC, 120.0));
        c.report(1, view(3 * SEC, 120.0));
        let g1 = c.allocate(3 * SEC);
        assert_eq!(g1[2].cap_w, 40.0, "aged-out view ⇒ floor");
        assert!(g1[0].cap_w > 40.0);
    }

    #[test]
    fn shrink_frees_budget_only_after_old_lease_expiry() {
        let mut c = Coordinator::new(cfg(2));
        // Epoch 1: node 0 is hungry and gets a fat grant.
        c.report(0, view(0, 200.0));
        c.report(1, view(0, 40.0));
        let g1 = c.allocate(0);
        assert!(g1[0].cap_w > 150.0, "{g1:?}");
        // Epoch 2 (1 s later): node 0 went idle, node 1 is hungry. Node
        // 0's fat lease is still unexpired (TTL 2.5 s), so its budget is
        // NOT reusable yet — node 1 only gets what's left.
        c.report(0, view(SEC, 40.0));
        c.report(1, view(SEC, 200.0));
        let g2 = c.allocate(SEC);
        assert_eq!(g2[0].cap_w, 40.0, "shrink grant is immediate");
        let assumed0 = c.assumed_cap_w(0, SEC);
        assert!(assumed0 > 150.0, "but the old promise is still assumed: {assumed0}");
        assert!(
            g2[1].cap_w <= c.config().cluster_cap_w - assumed0 + 1e-6,
            "node 1 cannot be granted budget node 0 may still hold: {g2:?}"
        );
        // Epoch 4 (3 s): the fat lease expired; now node 1 can have it.
        c.report(0, view(3 * SEC, 40.0));
        c.report(1, view(3 * SEC, 200.0));
        let g4 = c.allocate(3 * SEC);
        assert!(g4[1].cap_w > 150.0, "expired promise frees the budget: {g4:?}");
    }

    #[test]
    fn assumed_total_never_exceeds_cap_across_random_epochs() {
        let mut c = Coordinator::new(cfg(16));
        // Deterministic pseudo-random demand churn.
        let mut z = 42u64;
        let mut rng = move || {
            z = z.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (z >> 33) as f64 / (1u64 << 31) as f64
        };
        for e in 0..50u64 {
            let t = e * SEC;
            for n in 0..16 {
                if rng() < 0.7 {
                    c.report(n, view(t, 40.0 + 160.0 * rng()));
                }
            }
            let _ = c.allocate(t);
            // The invariant at the allocation instant and mid-epoch.
            for probe in [t, t + SEC / 2] {
                let total = c.assumed_total_w(probe);
                assert!(
                    total <= c.config().cluster_cap_w * (1.0 + 1e-9),
                    "epoch {e}: assumed {total} > cap"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "floors alone exceed")]
    fn unsafe_floor_config_is_rejected() {
        let mut bad = cfg(4);
        bad.cluster_cap_w = 4.0 * FLOOR_W - 1.0;
        Coordinator::new(bad);
    }

    #[test]
    #[should_panic(expected = "a lease must outlive one epoch")]
    fn lease_within_one_epoch_is_rejected() {
        let mut bad = cfg(4);
        bad.lease_ttl_ns = EPOCH_NS;
        Coordinator::new(bad);
    }
}
