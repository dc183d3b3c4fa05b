//! The task model: resumable state machines with real payloads.

use maestro_machine::Cost;
use std::any::Any;

use crate::cancel::CancelToken;

/// A boxed task over application state `C`.
pub type BoxTask<C> = Box<dyn TaskLogic<C>>;

/// The value a finished task hands to its parent.
///
/// Results flow through the scheduler like qthreads' full/empty-bit words:
/// the parent of a [`Step::SpawnWait`] receives its children's values, in
/// spawn order, through [`TaskCtx::children`].
#[derive(Debug, Default)]
pub struct TaskValue(Option<Box<dyn Any>>);

impl TaskValue {
    /// No value.
    pub fn none() -> Self {
        TaskValue(None)
    }

    /// Wrap a value.
    pub fn of<T: Any>(v: T) -> Self {
        TaskValue(Some(Box::new(v)))
    }

    /// Take the value out, downcast to `T`. Returns `None` when empty or of
    /// a different type.
    pub fn take<T: Any>(&mut self) -> Option<T> {
        let boxed = self.0.take()?;
        match boxed.downcast::<T>() {
            Ok(v) => Some(*v),
            Err(original) => {
                self.0 = Some(original);
                None
            }
        }
    }

    /// True when no value is present.
    pub fn is_none(&self) -> bool {
        self.0.is_none()
    }
}

/// What a task's `step` asks the scheduler to do next.
pub enum Step<C> {
    /// Charge this much virtual work, then call `step` again.
    Compute(Cost),
    /// Enqueue these children and suspend until all finish; their values
    /// arrive in [`TaskCtx::children`] (spawn order) at the next `step`.
    SpawnWait(Vec<BoxTask<C>>),
    /// The task is finished.
    Done(TaskValue),
}

/// Scheduler-provided context for one `step` call.
pub struct TaskCtx {
    /// Results of the children from the task's last [`Step::SpawnWait`],
    /// in spawn order (empty on the first step or after a `Compute`).
    pub children: Vec<TaskValue>,
    /// Current virtual time, nanoseconds.
    pub now_ns: u64,
    /// The worker executing this step.
    pub worker: usize,
    /// The shepherd (socket) of that worker.
    pub shepherd: usize,
    /// This task's cancellation scope. Cancelling it stops this task and
    /// its whole subtree at the next yield point; the scheduler also checks
    /// ancestor scopes, so a region-level cancel propagates down.
    pub cancel: CancelToken,
}

/// A resumable task. `step` runs *real* computation against the application
/// state and returns what it cost in machine terms.
///
/// The contract: each call to `step` must make progress toward `Done`; the
/// scheduler calls it again after the returned `Compute` work has elapsed in
/// virtual time or the spawned children have completed.
pub trait TaskLogic<C> {
    /// Advance the task state machine by one step.
    fn step(&mut self, app: &mut C, ctx: &mut TaskCtx) -> Step<C>;

    /// Debug label for traces.
    fn label(&self) -> &'static str {
        "task"
    }

    /// Snapshot hook: the task's serializable program, borrowed, and its
    /// current phase, or `None` when the task holds opaque state (closures)
    /// that cannot be captured. Only spec-driven tasks
    /// ([`crate::spec::SpecTask`]) override this; a run containing any
    /// `None` task refuses to snapshot with a typed error rather than
    /// capturing a lie.
    fn snapshot_spec(&self) -> Option<(&crate::spec::TaskSpec, u8)> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_value_round_trip() {
        let mut v = TaskValue::of(42u64);
        assert!(!v.is_none());
        assert_eq!(v.take::<u64>(), Some(42));
        assert!(v.is_none());
        assert_eq!(v.take::<u64>(), None);
    }

    #[test]
    fn task_value_wrong_type_preserved() {
        let mut v = TaskValue::of(1.5f64);
        assert_eq!(v.take::<u64>(), None);
        assert!(!v.is_none(), "failed downcast must not destroy the value");
        assert_eq!(v.take::<f64>(), Some(1.5));
    }

    #[test]
    fn none_is_none() {
        let mut v = TaskValue::none();
        assert!(v.is_none());
        assert_eq!(v.take::<i32>(), None);
    }
}
