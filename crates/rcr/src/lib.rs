//! # maestro-rcr
//!
//! The Resource Centric Reflection (RCR) daemon from the paper:
//!
//! > "The Resource Centric Reflection (RCR) daemon runs at supervisor level
//! > and provides performance information to various clients through a
//! > self-describing hierarchical data structure in a shared memory region."
//!
//! Components:
//!
//! * [`blackboard`] — the shared region: a lock-free single-writer /
//!   multi-reader snapshot store (seqlock per socket record) holding, for
//!   every package, smoothed average power, memory concurrency (outstanding
//!   references), temperature, and cumulative energy. Readers in other
//!   threads (the runtime's user-level daemon in the paper) always observe a
//!   consistent record.
//! * [`classify`] — the High / Medium / Low classifier with the hysteresis
//!   band the paper uses to avoid toggling near a threshold, plus the
//!   paper's default thresholds: 75 W high / 50 W low per socket for power,
//!   75 % / 25 % of the effective maximum outstanding memory references for
//!   memory concurrency.
//! * [`daemon`] — the sampler: every 0.1 s (virtual) it reads the RAPL
//!   counters through `maestro-rapl`, reads the memory-concurrency meter,
//!   smooths power over a sliding window, and publishes to the blackboard.
//! * [`supervisor`] — restarts a killed daemon on the same blackboard from
//!   its last checkpoint, after [`restart_backoff_ns`] (50 ms doubling per
//!   restart), and gives up for good past [`RESTART_BUDGET`] restarts.
//! * [`region`] — the programmer-facing measurement API: delimit a code
//!   region with start/end calls and receive elapsed time, energy in Joules,
//!   average power in Watts, and the most recent chip temperatures, exactly
//!   the fields the paper's instrumentation reports.
//!
//! The daemon samples the *simulated* machine; on physical hardware the same
//! blackboard and classifier would be fed from `/sys/class/powercap` (see
//! `maestro-rapl::powercap`) and uncore PMU counters. The paper reports the
//! daemon costs ~16 % of one core ([`DAEMON_OVERHEAD_CORE_FRACTION`]); the
//! virtual-time sampler is free, so energy results here correspond to the
//! paper's planned "reduced overhead" implementation.

#![warn(missing_docs)]

pub mod blackboard;
pub mod classify;
pub mod daemon;
pub mod lease;
pub mod region;
pub mod supervisor;

pub use blackboard::{Blackboard, BlackboardState, HealthFlags, MeterDesc, SocketSnapshot};
pub use classify::{Level, MeterThresholds, ThrottleSignals};
pub use daemon::{DaemonCheckpoint, DaemonHealth, RcrDaemon};
pub use lease::{BudgetLease, LeaseDecision, LeaseSlot};
pub use supervisor::{
    restart_backoff_ns, Supervisor, SupervisorState, SupervisorStats, INITIAL_BACKOFF_NS,
    RESTART_BUDGET,
};
pub use region::{Region, RegionReport};

/// Fraction of one core the paper measured the (compacting) RCRdaemon to
/// cost: "about 16% of one of the 16 cores".
pub const DAEMON_OVERHEAD_CORE_FRACTION: f64 = 0.16;

/// The daemon's default sampling period: 0.1 s, "chosen to allow fluctuations
/// in the energy counters to dissipate".
pub const DEFAULT_SAMPLE_PERIOD_NS: u64 = 100_000_000;
