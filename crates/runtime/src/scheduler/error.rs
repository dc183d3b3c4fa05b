//! How a run fails: the typed errors, the limit that ended a run early,
//! and the contained task panic.

use crate::params::ParamsError;
use crate::report::RunStats;

/// A contained task panic: what failed, where in the graph, and when.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TaskFailure {
    /// The panic payload, rendered as text.
    pub message: String,
    /// Task labels (`label#id`) from the root down to the failed task — a
    /// task-path backtrace through the graph.
    pub task_path: Vec<String>,
    /// The worker whose step panicked.
    pub worker: usize,
    /// Virtual time of the panic, nanoseconds.
    pub t_ns: u64,
}

impl std::fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "task `{}` panicked on worker {} at t={} ns: {}",
            self.task_path.join("/"),
            self.worker,
            self.t_ns,
            self.message
        )
    }
}

/// Which configured limit ended a run early.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RunLimit {
    /// The wall-clock (virtual-time) deadline from
    /// [`RuntimeParams::deadline_ns`](crate::RuntimeParams::deadline_ns).
    WallClock {
        /// The configured deadline, nanoseconds from run start.
        deadline_ns: u64,
    },
    /// The step budget from [`RuntimeParams::step_budget`](crate::RuntimeParams::step_budget).
    Steps {
        /// The configured budget, task `step` calls.
        budget: u64,
    },
}

impl std::fmt::Display for RunLimit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunLimit::WallClock { deadline_ns } => {
                write!(f, "wall-clock deadline of {deadline_ns} ns")
            }
            RunLimit::Steps { budget } => write!(f, "step budget of {budget} steps"),
        }
    }
}

/// Why the runtime refused to build or a run could not finish.
///
/// Errors raised mid-run ([`Deadlock`](RuntimeError::Deadlock),
/// [`TaskFailed`](RuntimeError::TaskFailed),
/// [`DeadlineExceeded`](RuntimeError::DeadlineExceeded),
/// [`Internal`](RuntimeError::Internal)) carry the partial [`RunStats`]
/// collected up to the failure, and are only returned after teardown has
/// driven every core back to [`DutyCycle::FULL`](maestro_machine::DutyCycle::FULL).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuntimeError {
    /// The runtime parameters were structurally invalid.
    InvalidParams(ParamsError),
    /// More workers requested than the machine has cores.
    WorkersExceedCores {
        /// Requested worker count.
        workers: usize,
        /// Cores the machine actually has.
        cores: usize,
    },
    /// The scheduler reached a state with no running work and no pending
    /// monitor — nothing can ever make progress again.
    Deadlock {
        /// Tasks still allocated when progress stopped.
        live_tasks: u64,
        /// Workers counted as active by their shepherds.
        total_active: usize,
        /// Virtual time at which progress stopped, nanoseconds.
        t_ns: u64,
        /// Counters collected up to the deadlock.
        partial: Box<RunStats>,
    },
    /// A task body panicked. The panic was contained at the step dispatch,
    /// the failed task's subtree and the rest of the run were cancelled and
    /// drained, and every core was restored to full duty.
    TaskFailed {
        /// What failed, with a task-path backtrace.
        failure: TaskFailure,
        /// Counters collected up to (and through) the drain.
        partial: Box<RunStats>,
    },
    /// The run hit its wall-clock deadline or step budget before the root
    /// task completed — a wedged or livelocked workload ends here instead
    /// of hanging.
    DeadlineExceeded {
        /// Which limit fired.
        limit: RunLimit,
        /// Virtual time the limit fired, nanoseconds.
        t_ns: u64,
        /// Counters collected up to the stop — the partial report.
        partial: Box<RunStats>,
    },
    /// An internal scheduler invariant was violated. Surfaced as a typed
    /// error (after core restoration) instead of a process abort.
    Internal {
        /// The violated invariant.
        detail: &'static str,
        /// Virtual time of detection, nanoseconds.
        t_ns: u64,
        /// Counters collected up to the failure.
        partial: Box<RunStats>,
    },
}

impl RuntimeError {
    /// The counters collected before the run stopped, for errors raised
    /// mid-run; `None` for construction-time errors.
    pub fn partial_stats(&self) -> Option<&RunStats> {
        match self {
            RuntimeError::Deadlock { partial, .. }
            | RuntimeError::TaskFailed { partial, .. }
            | RuntimeError::DeadlineExceeded { partial, .. }
            | RuntimeError::Internal { partial, .. } => Some(partial),
            RuntimeError::InvalidParams(_) | RuntimeError::WorkersExceedCores { .. } => None,
        }
    }

    /// Attach the final (post-teardown) counters to a mid-run error.
    pub(super) fn with_partial(mut self, stats: RunStats) -> Self {
        if let RuntimeError::Deadlock { partial, .. }
        | RuntimeError::TaskFailed { partial, .. }
        | RuntimeError::DeadlineExceeded { partial, .. }
        | RuntimeError::Internal { partial, .. } = &mut self
        {
            **partial = stats;
        }
        self
    }
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::InvalidParams(e) => write!(f, "invalid runtime parameters: {e}"),
            RuntimeError::WorkersExceedCores { workers, cores } => {
                write!(f, "more workers ({workers}) than cores ({cores})")
            }
            RuntimeError::Deadlock { live_tasks, total_active, t_ns, .. } => write!(
                f,
                "scheduler deadlock at t={t_ns} ns: no running work and no pending \
                 monitor (live tasks: {live_tasks}, total active: {total_active})"
            ),
            RuntimeError::TaskFailed { failure, .. } => write!(f, "task failed: {failure}"),
            RuntimeError::DeadlineExceeded { limit, t_ns, .. } => {
                write!(f, "run exceeded its {limit} at t={t_ns} ns")
            }
            RuntimeError::Internal { detail, t_ns, .. } => {
                write!(f, "internal scheduler invariant violated at t={t_ns} ns: {detail}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::InvalidParams(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParamsError> for RuntimeError {
    fn from(e: ParamsError) -> Self {
        RuntimeError::InvalidParams(e)
    }
}

/// An internal-invariant error (the non-abort replacement for the old
/// `expect`/`unreachable!` family).
pub(super) fn internal(detail: &'static str, t_ns: u64) -> RuntimeError {
    RuntimeError::Internal { detail, t_ns, partial: Box::default() }
}
