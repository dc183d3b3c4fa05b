//! Open-loop service workloads: request sources the scheduler drives.
//!
//! Batch runs hand the scheduler one root task and wait for it. A *service*
//! run instead has no root at all: an external arrival process injects
//! short-lived request task trees while the clock advances, and the run ends
//! only when the source is exhausted and every injected request has reached
//! a terminal state. This module defines the scheduler-facing contract for
//! such a source; the concrete Poisson/diurnal/burst arrival process, the
//! admission controller, and the retry machinery live in the
//! `maestro-service` crate.
//!
//! # Due-time contract
//!
//! Like a [`Monitor`](crate::Monitor), a request source is event-driven:
//! [`RequestSource::next_due_ns`] names the next virtual time the source
//! wants the scheduler's attention (an arrival or a scheduled retry), and
//! the scheduler jumps the clock straight there. The returned time may move
//! only inside [`poll`](RequestSource::poll) or
//! [`on_complete`](RequestSource::on_complete) (or a restore), and after a
//! `poll(now)` returns it must be strictly greater than `now` or `None` —
//! otherwise the event loop would spin on a stuck due time.
//!
//! # Conservation
//!
//! Every request a source ever admits is exactly one of *completed*, *shed*,
//! *failed*, *cancelled*, *in flight*, or *pending retry* at every virtual
//! timestamp. The scheduler guarantees the transitions it owns: every
//! injected request gets exactly one [`on_complete`](RequestSource::on_complete)
//! call (or appears in the terminal [`drain`](RequestSource::drain) when the
//! run dies), never both.

use maestro_machine::snap::{Codec, SnapError, SnapReader, SnapWriter};

use crate::spec::TaskSpec;

/// One request the source hands to the scheduler for immediate injection.
#[derive(Clone, Debug)]
pub struct ServiceInjection {
    /// Source-assigned request id, unique for the run (retries of one
    /// logical request get fresh ids; the source owns that mapping).
    pub req_id: u64,
    /// The request's task tree. Must be spec-form so service runs stay
    /// snapshottable.
    pub spec: TaskSpec,
    /// Absolute virtual-time deadline. When the clock reaches it with the
    /// request still in flight, the scheduler cancels the request's task
    /// subtree and reports the completion as cancelled.
    pub deadline_ns: Option<u64>,
}

/// Aggregate request accounting a source must be able to produce at any
/// time. The conservation invariant ties the fields together:
/// `arrived == completed + shed + failed + cancelled + in_flight +
/// pending_retry` (where `cancelled` counts only *finally* cancelled
/// requests — a cancelled attempt that will be retried is `pending_retry`).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Requests that ever arrived (first attempts, not retries).
    pub arrived: u64,
    /// Requests that completed within their deadline.
    pub completed: u64,
    /// Requests refused by admission control (queue depth or deadline
    /// infeasibility) before injection.
    pub shed: u64,
    /// Requests that were in flight when the run died (terminal drain).
    pub failed: u64,
    /// Requests cancelled past their deadline with no retry left.
    pub cancelled: u64,
    /// Requests currently injected and not yet terminal.
    pub in_flight: u64,
    /// Requests waiting on a scheduled retry.
    pub pending_retry: u64,
    /// Retry attempts actually spent (injections beyond each request's
    /// first).
    pub retries_spent: u64,
}

impl ServiceCounters {
    /// The snapshot codec (see [`Codec`]): every counter in declaration
    /// order.
    pub fn codec<C: Codec>(&self, c: &mut C) -> Result<ServiceCounters, SnapError> {
        Ok(ServiceCounters {
            arrived: c.u64(self.arrived)?,
            completed: c.u64(self.completed)?,
            shed: c.u64(self.shed)?,
            failed: c.u64(self.failed)?,
            cancelled: c.u64(self.cancelled)?,
            in_flight: c.u64(self.in_flight)?,
            pending_retry: c.u64(self.pending_retry)?,
            retries_spent: c.u64(self.retries_spent)?,
        })
    }

    /// Left side minus right side of the conservation invariant — zero iff
    /// the ledger balances. Computed without overflow (a decoded ledger can
    /// hold any values) and saturated to the `i64` range.
    pub fn conservation_gap(&self) -> i64 {
        let accounted: i128 = [
            self.completed,
            self.shed,
            self.failed,
            self.cancelled,
            self.in_flight,
            self.pending_retry,
        ]
        .iter()
        .map(|&v| i128::from(v))
        .sum();
        (i128::from(self.arrived) - accounted).clamp(i64::MIN.into(), i64::MAX.into()) as i64
    }
}

/// An open-loop request source driven by the scheduler's event loop.
///
/// The scheduler calls [`poll`](RequestSource::poll) whenever the clock
/// reaches [`next_due_ns`](RequestSource::next_due_ns), injects every
/// returned request as a parentless task tree, and reports each terminal
/// request back through [`on_complete`](RequestSource::on_complete). A run
/// ends successfully once [`exhausted`](RequestSource::exhausted) is true
/// and no injected request remains; it ends in an error like any other run
/// (deadline, panic, deadlock), in which case the scheduler first hands the
/// still-in-flight ids to [`drain`](RequestSource::drain).
pub trait RequestSource {
    /// Next virtual time the source needs attention (arrival or retry), or
    /// `None` when nothing is scheduled. See the module-level due-time
    /// contract.
    fn next_due_ns(&self) -> Option<u64>;

    /// Emit every request due at `now_ns` into `out` (admission control
    /// runs here: shed requests are counted, not emitted). After this
    /// returns, `next_due_ns()` must be `> now_ns` or `None`.
    fn poll(&mut self, now_ns: u64, out: &mut Vec<ServiceInjection>);

    /// An injected request reached a terminal state: `cancelled` is true
    /// when its cancel scope fired (deadline or run cancellation) before it
    /// finished. The source may schedule a retry here (moving the request
    /// to `pending_retry` instead of `cancelled`).
    fn on_complete(&mut self, req_id: u64, now_ns: u64, cancelled: bool);

    /// The run is dying with these requests still in flight: account every
    /// one as `failed`. Called at most once, before the terminal error is
    /// returned.
    fn drain(&mut self, now_ns: u64, in_flight: &[u64]);

    /// True when the source will never emit again: the arrival process is
    /// finished and no retry is pending.
    fn exhausted(&self) -> bool;

    /// Current aggregate accounting (the conservation ledger).
    fn counters(&self) -> ServiceCounters;

    /// Whether `req_id` is an attempt this source has in flight. Restore
    /// checks a decoded request table against it; the default accepts
    /// every id.
    fn owns(&self, req_id: u64) -> bool {
        let _ = req_id;
        true
    }

    /// Encode the source's dynamic state (RNG cursors, pending retries,
    /// admission state, histograms) into `w`. Like the [`Monitor`] hooks,
    /// implement this and [`RequestSource::restore_state`] as one-line calls
    /// into a single [`maestro_machine::snap::Codec`] body.
    ///
    /// [`Monitor`]: crate::Monitor
    fn snap_state(&self, w: &mut SnapWriter);

    /// Decode state written by [`RequestSource::snap_state`] and install it
    /// only once it has fully decoded.
    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_gap_balances() {
        let mut c = ServiceCounters {
            arrived: 10,
            completed: 4,
            shed: 2,
            failed: 1,
            cancelled: 1,
            in_flight: 1,
            pending_retry: 1,
            retries_spent: 3,
        };
        assert_eq!(c.conservation_gap(), 0);
        c.completed += 1;
        assert_eq!(c.conservation_gap(), -1);
        c.arrived += 2;
        assert_eq!(c.conservation_gap(), 1);
    }
}
