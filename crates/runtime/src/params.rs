//! Runtime tuning parameters.
//!
//! Two kinds of knobs live here:
//!
//! * **Mechanical overheads** of the tasking layer, in cycles — dispatching a
//!   task from the local queue, stealing from another shepherd, creating a
//!   child task, resuming a suspended parent. These are what make untuned
//!   fine-grained programs (task-per-call Fibonacci) slower in parallel than
//!   serial, as the paper's Figures 1-2 show.
//! * **Queue-contention slope** — extra cycles per *other active worker*
//!   added to every dispatch. The GNU and Intel OpenMP task pools the paper
//!   measured against serialize task operations through shared state, so the
//!   cost of a task operation grows with the number of workers hammering the
//!   pool; Qthreads' per-shepherd queues keep the slope near zero. Workload
//!   profiles select the slope matching the runtime being simulated.

use serde::{Deserialize, Serialize};

/// A structurally invalid [`RuntimeParams`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ParamsError {
    /// `workers` was zero.
    NoWorkers,
    /// `deadline_ns` was `Some(0)` — a run cannot be given zero time.
    ZeroDeadline,
    /// `step_budget` was `Some(0)` — a run cannot be given zero steps.
    ZeroStepBudget,
}

impl std::fmt::Display for ParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamsError::NoWorkers => write!(f, "runtime needs at least one worker"),
            ParamsError::ZeroDeadline => write!(f, "run deadline must be positive"),
            ParamsError::ZeroStepBudget => write!(f, "step budget must be positive"),
        }
    }
}

impl std::error::Error for ParamsError {}

/// Tunable costs and policies of the tasking runtime.
#[derive(Copy, Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct RuntimeParams {
    /// Number of worker threads.
    pub workers: usize,
    /// Cycles to pop + begin a task from the local shepherd queue.
    pub dispatch_cycles: u64,
    /// Extra cycles when the task was stolen from another shepherd.
    pub steal_extra_cycles: u64,
    /// Cycles charged to a parent per child task it creates.
    pub spawn_cycles_per_child: u64,
    /// Cycles to resume a suspended parent whose children finished.
    pub resume_cycles: u64,
    /// Extra dispatch cycles per other active worker (shared-pool
    /// contention; ~0 for Qthreads, tens to hundreds for the OpenMP pools).
    /// This is a lump sum per task acquisition — the right shape for lock
    /// convoys on a central task queue.
    pub queue_contention_cycles_per_worker: u64,
    /// Continuous compute-rate dilation per other active worker: a busy
    /// segment's CPU progress rate is divided by
    /// `1 + dilation × (active_workers − 1)`. This is the right shape for
    /// contention that accrues *while executing* — falsely-shared cache
    /// lines, coherence storms in barrier-separated parallel loops — and,
    /// unlike the dispatch lump, it causes no artificial load imbalance.
    pub work_dilation_per_worker: f64,
    /// Wall-clock (virtual-time) budget for one run, nanoseconds from the
    /// run's start. A run that has not completed when the clock reaches the
    /// deadline ends in `RuntimeError::DeadlineExceeded` with partial stats
    /// instead of hanging on a wedged task. `None` (the default) disables
    /// the deadline.
    pub deadline_ns: Option<u64>,
    /// Maximum task `step` calls for one run — a virtual-time-independent
    /// backstop against zero-cost livelock. Exceeding it ends the run in
    /// `RuntimeError::DeadlineExceeded`. `None` (the default) disables it.
    pub step_budget: Option<u64>,
}

impl RuntimeParams {
    /// Qthreads/MAESTRO-like defaults for `workers` workers: cheap
    /// per-shepherd queues and a low contention slope.
    pub fn qthreads(workers: usize) -> Self {
        RuntimeParams {
            workers,
            dispatch_cycles: 550,
            steal_extra_cycles: 2200,
            spawn_cycles_per_child: 450,
            resume_cycles: 700,
            queue_contention_cycles_per_worker: 12,
            work_dilation_per_worker: 0.0,
            deadline_ns: None,
            step_budget: None,
        }
    }

    /// A shared-pool OpenMP runtime (GOMP-like): every task operation takes
    /// a global lock, so dispatch cost climbs steeply with active workers.
    pub fn shared_pool_omp(workers: usize, contention_slope: u64) -> Self {
        RuntimeParams {
            dispatch_cycles: 900,
            steal_extra_cycles: 0, // central pool: no distinct steal path
            spawn_cycles_per_child: 800,
            resume_cycles: 900,
            queue_contention_cycles_per_worker: contention_slope,
            ..Self::qthreads(workers)
        }
    }

    /// Validate invariants (at least one worker, non-degenerate budgets).
    pub fn validate(&self) -> Result<(), ParamsError> {
        if self.workers == 0 {
            return Err(ParamsError::NoWorkers);
        }
        if self.deadline_ns == Some(0) {
            return Err(ParamsError::ZeroDeadline);
        }
        if self.step_budget == Some(0) {
            return Err(ParamsError::ZeroStepBudget);
        }
        Ok(())
    }

    /// Dispatch cost in cycles when `active_workers` workers are currently
    /// executing (including the dispatching one).
    pub fn dispatch_cost_cycles(&self, active_workers: usize, stolen: bool) -> u64 {
        let contention =
            self.queue_contention_cycles_per_worker * active_workers.saturating_sub(1) as u64;
        self.dispatch_cycles + contention + if stolen { self.steal_extra_cycles } else { 0 }
    }
}

impl Default for RuntimeParams {
    fn default() -> Self {
        RuntimeParams::qthreads(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qthreads_dispatch_nearly_flat() {
        let p = RuntimeParams::qthreads(16);
        let solo = p.dispatch_cost_cycles(1, false);
        let full = p.dispatch_cost_cycles(16, false);
        assert!(full < solo * 2, "Qthreads dispatch must not blow up: {solo} -> {full}");
    }

    #[test]
    fn shared_pool_dispatch_grows_with_workers() {
        let p = RuntimeParams::shared_pool_omp(16, 600);
        let solo = p.dispatch_cost_cycles(1, false);
        let full = p.dispatch_cost_cycles(16, false);
        assert!(full > solo * 5, "shared pool must serialize: {solo} -> {full}");
    }

    #[test]
    fn steal_costs_more() {
        let p = RuntimeParams::qthreads(8);
        assert!(p.dispatch_cost_cycles(4, true) > p.dispatch_cost_cycles(4, false));
    }

    #[test]
    fn zero_workers_invalid() {
        assert_eq!(RuntimeParams::qthreads(0).validate(), Err(ParamsError::NoWorkers));
        assert!(RuntimeParams::qthreads(1).validate().is_ok());
    }

    #[test]
    fn zero_budgets_invalid_but_positive_ones_fine() {
        let mut p = RuntimeParams::qthreads(4);
        p.deadline_ns = Some(0);
        assert_eq!(p.validate(), Err(ParamsError::ZeroDeadline));
        p.deadline_ns = Some(1);
        p.step_budget = Some(0);
        assert_eq!(p.validate(), Err(ParamsError::ZeroStepBudget));
        p.step_budget = Some(1);
        assert!(p.validate().is_ok());
    }
}
