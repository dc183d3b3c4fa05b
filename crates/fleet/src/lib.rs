//! # maestro-fleet — fault-tolerant fleet power coordination
//!
//! A sharded fleet of independent node simulations — each a full machine
//! model with an RCR-style telemetry daemon and a local throttle governor
//! — arbitrated under one **global power cap** by a [`Coordinator`] that
//! hands out **hierarchical budgets** (cluster → rack → node) as
//! epoch-stamped, TTL-bounded [leases](maestro_rcr::BudgetLease).
//!
//! The design goal is the robustness dual of the single-node stack: where
//! the PR-3 control loop *fails toward FULL duty* when its telemetry
//! daemon dies (never wedging a healthy machine), the fleet *fails toward
//! the cap being respected* when the coordinator becomes unreachable. A
//! node that stops hearing from the coordinator — crash, partition, lost
//! grants — watches its lease expire and drops to a conservative
//! **floor cap** at the exact expiry instant (an event-queue timer, not a
//! poll). Because the coordinator accounts for every grant it has *sent*
//! until that grant's TTL passes, the sum of enforced node caps can never
//! exceed the cluster cap, no matter which messages were lost, delayed,
//! duplicated, or reordered: the **cap-safety invariant**.
//!
//! ## Layout
//!
//! - [`node`] — [`NodeSim`]: machine + supervised daemon + governor +
//!   lease slot, advanced to arbitrary virtual times on the event core.
//! - [`coordinator`] — [`Coordinator`]: conservative grant accounting and
//!   two-stage proportional headroom distribution.
//! - [`faults`] — [`FleetFaultPlan`]: seeded crash waves, telemetry
//!   partitions, and message faults, drawn statelessly by hashing so that
//!   outcomes are independent of shard scheduling.
//! - [`load`] — [`LoadProfile`]: rolling triangle-wave demand, a pure
//!   function of (node, time).
//! - [`sim`] — [`Fleet`]: the epoch loop; fans node advances over
//!   [`harness::parallel_map`] and exchanges messages serially at epoch
//!   boundaries, so results are byte-identical for any `--jobs`.
//! - [`harness`] — the scoped-thread work queue `parallel_map`, shared
//!   with the bench crate, which fans experiment cells through it.

pub mod coordinator;
pub mod faults;
pub mod harness;
pub mod load;
pub mod node;
pub mod sim;

pub use coordinator::{Coordinator, CoordinatorConfig, CoordinatorStats, NodeView};
pub use faults::FleetFaultPlan;
pub use harness::{default_jobs, parallel_map};
pub use load::{LoadParams, LoadProfile};
pub use node::{
    duty_for, NodeConfig, NodeEvent, NodeSim, NodeState, NodeStats, Telemetry,
    GOVERNOR_MAX_LEVEL,
};
pub use sim::{Fleet, FleetConfig, FleetReport, NodeReport, GRANT_TRANSIT_NS};
