//! Run results and scheduler statistics.

use crate::task::TaskValue;
use maestro_machine::snap::{Codec, SnapError};
use serde::{Deserialize, Serialize};

/// Counters the scheduler maintains during a run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunStats {
    /// Tasks that ran to completion.
    pub tasks_completed: u64,
    /// Total task `step` calls.
    pub steps: u64,
    /// Tasks acquired from another shepherd's queue.
    pub steals: u64,
    /// Children spawned.
    pub spawned: u64,
    /// Suspended parents resumed.
    pub resumes: u64,
    /// Monitor firings.
    pub monitor_fires: u64,
    /// Times a worker entered the throttled spin loop.
    pub spin_entries: u64,
    /// Duty-cycle MSR writes performed (2 per low-power spin episode).
    pub duty_writes: u64,
    /// Physical duty-write attempts, including verification retries.
    pub duty_write_attempts: u64,
    /// Duty writes whose read-back did not match the requested level.
    pub duty_verify_failures: u64,
    /// Duty transactions that exhausted their retries (core forced to FULL).
    pub failed_duty_applies: u64,
    /// Times a core was forcibly reset to FULL duty by the actuator.
    pub forced_duty_resets: u64,
    /// Per-core circuit breakers tripped during the run.
    pub breaker_trips: u64,
    /// Total worker-nanoseconds spent in the throttled spin loop.
    pub throttled_worker_ns: u64,
    /// Peak number of live tasks.
    pub peak_live_tasks: u64,
    /// Tasks completed without running because their cancel scope (or an
    /// ancestor's) was cancelled before their next yield point.
    pub tasks_cancelled: u64,
    /// Cancel events the scheduler observed during the run (distinct
    /// [`CancelToken::cancel`](crate::CancelToken::cancel) calls anywhere in
    /// the run's token tree; each is the fifth spinner wake condition).
    pub cancellations: u64,
    /// Task `step` calls that panicked and were contained by the scheduler.
    pub task_panics: u64,
    /// Spinner wake events suppressed by an injected lost-wake fault.
    pub lost_wakes: u64,
    /// Forced wake-epoch bumps issued when the scheduler found spinners but
    /// no other event source — the recovery path for lost wakes.
    pub wake_recoveries: u64,
    /// Service runs: requests refused by admission control (queue depth or
    /// deadline infeasibility). Zero for batch runs.
    pub requests_shed: u64,
    /// Service runs: retry attempts actually injected beyond each request's
    /// first attempt. Zero for batch runs.
    pub retries_spent: u64,
    /// Service runs: request deadlines that fired with the request still in
    /// flight (the per-request SLO miss count). Zero for batch runs.
    pub slo_violations: u64,
}

impl RunStats {
    /// The snapshot codec (see [`Codec`]): every counter in declaration
    /// order.
    pub fn codec<C: Codec>(&self, c: &mut C) -> Result<RunStats, SnapError> {
        Ok(RunStats {
            tasks_completed: c.u64(self.tasks_completed)?,
            steps: c.u64(self.steps)?,
            steals: c.u64(self.steals)?,
            spawned: c.u64(self.spawned)?,
            resumes: c.u64(self.resumes)?,
            monitor_fires: c.u64(self.monitor_fires)?,
            spin_entries: c.u64(self.spin_entries)?,
            duty_writes: c.u64(self.duty_writes)?,
            duty_write_attempts: c.u64(self.duty_write_attempts)?,
            duty_verify_failures: c.u64(self.duty_verify_failures)?,
            failed_duty_applies: c.u64(self.failed_duty_applies)?,
            forced_duty_resets: c.u64(self.forced_duty_resets)?,
            breaker_trips: c.u64(self.breaker_trips)?,
            throttled_worker_ns: c.u64(self.throttled_worker_ns)?,
            peak_live_tasks: c.u64(self.peak_live_tasks)?,
            tasks_cancelled: c.u64(self.tasks_cancelled)?,
            cancellations: c.u64(self.cancellations)?,
            task_panics: c.u64(self.task_panics)?,
            lost_wakes: c.u64(self.lost_wakes)?,
            wake_recoveries: c.u64(self.wake_recoveries)?,
            requests_shed: c.u64(self.requests_shed)?,
            retries_spent: c.u64(self.retries_spent)?,
            slo_violations: c.u64(self.slo_violations)?,
        })
    }
}

/// The result of executing a task graph to completion.
#[derive(Debug)]
pub struct RunOutcome {
    /// The root task's value.
    pub value: TaskValue,
    /// Virtual execution time, seconds.
    pub elapsed_s: f64,
    /// Whole-node energy consumed during the run, Joules.
    pub joules: f64,
    /// Average whole-node power during the run, Watts.
    pub avg_watts: f64,
    /// Scheduler counters.
    pub stats: RunStats,
}

impl RunOutcome {
    /// Convenience: the root value downcast to `T`.
    pub fn value_as<T: std::any::Any>(mut self) -> Option<T> {
        self.value.take::<T>()
    }
}

impl std::fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.2} s, {:.0} J, {:.1} W ({} tasks, {} steals, {:.2} worker-s throttled)",
            self.elapsed_s,
            self.joules,
            self.avg_watts,
            self.stats.tasks_completed,
            self.stats.steals,
            self.stats.throttled_worker_ns as f64 * 1e-9,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_display_and_downcast() {
        let o = RunOutcome {
            value: TaskValue::of(7usize),
            elapsed_s: 1.0,
            joules: 120.0,
            avg_watts: 120.0,
            stats: RunStats::default(),
        };
        assert!(o.to_string().contains("120 J"));
        assert_eq!(o.value_as::<usize>(), Some(7));
    }
}
