//! # maestro-runtime
//!
//! A Qthreads-style lightweight tasking runtime (Wheeler et al., IPDPS 2008)
//! with the Sherwood hierarchical scheduler (Olivier et al., IJHPCA 2012) and
//! the MAESTRO concurrency-throttling extensions, executing under the
//! virtual-time machine model of `maestro-machine`.
//!
//! ## Execution model
//!
//! *Qthreads* — lightweight tasks — are the smallest schedulable unit of
//! work: an OpenMP explicit task or a chunk of parallel-loop iterations.
//! A program creates many more tasks than there are workers. Each worker is
//! pinned to one core; workers on the same socket share a *shepherd* with a
//! LIFO work queue (constructive cache sharing), and shepherds balance load
//! by work stealing (FIFO from the victim's queue).
//!
//! A task is a resumable state machine ([`TaskLogic`]): each `step` performs
//! real Rust computation against the application state and tells the
//! scheduler what it cost ([`Step::Compute`]), forks children and suspends
//! until they finish ([`Step::SpawnWait`] — the FEB-style synchronization of
//! Qthreads), or finishes with a value ([`Step::Done`]).
//!
//! The scheduler is a deterministic fluid simulation: every running segment
//! progresses at a rate set by its core's duty cycle (CPU-bound share) and
//! its socket's memory-contention factor (memory-bound share); the engine
//! repeatedly advances the machine clock to the next segment completion or
//! monitor deadline.
//!
//! ## Concurrency throttling (MAESTRO)
//!
//! Exactly as in §IV of the paper: each shepherd counts active workers; when
//! the throttle flag is set and a worker looking for work would exceed the
//! shepherd-local limit, that worker enters a spin loop in a low-power state
//! (duty cycle 1/32, ~3 W below a full-speed spin) and wakes only on one of
//! five conditions — throttle deactivation, application completion, parallel
//! region termination, parallel loop termination (the paper's four), or a
//! cancellation event on the run's token tree. The flag itself is set by a
//! [`Monitor`] (the adaptive controller lives in the `maestro` crate).
//!
//! ## Fault tolerance
//!
//! Every task `step` runs under panic isolation: a panicking task body is
//! contained at the dispatch boundary, converted into a typed
//! [`TaskFailure`] with a task-path backtrace, and surfaced as
//! [`RuntimeError::TaskFailed`] after the graph drains. Region-scoped
//! [`CancelToken`]s stop a subtree (or the whole run) at the next yield
//! point, and a wall-clock deadline or step budget in [`RuntimeParams`]
//! bounds wedged or livelocked workloads. All
//! of these paths restore every core to full duty before returning.

#![warn(missing_docs)]

pub mod adapters;
pub mod cancel;
pub mod events;
pub mod monitor;
pub mod params;
pub mod report;
pub mod scheduler;
pub mod service;
pub mod spec;
pub mod task;

pub use adapters::{compute_leaf, fork_join, leaf, parallel_for, sequential, single, taskloop};
pub use cancel::CancelToken;
pub use events::EventQueue;
pub use monitor::{CancelAt, Monitor, ThrottleState, Watchdog};
pub use params::{ParamsError, RuntimeParams};
pub use report::{RunOutcome, RunStats};
pub use scheduler::{
    CapturedRun, RunCapture, RunEnd, RunLimit, Runtime, RuntimeError, RuntimeWork, SnapshotPlan,
    TaskFailure,
};
pub use service::{RequestSource, ServiceCounters, ServiceInjection};
pub use spec::{SpecTask, TaskSpec};
pub use task::{BoxTask, Step, TaskCtx, TaskLogic, TaskValue};
