//! Data-only task programs: serializable task trees for snapshot/replay.
//!
//! The general [`TaskLogic`] contract lets a task be
//! an arbitrary closure-holding state machine — perfect for expressing real
//! workloads, impossible to serialize. A [`TaskSpec`] is the snapshot-safe
//! subset: a pure *description* of a task tree (leaf costs and fork-join
//! structure) that an interpreter task ([`SpecTask`]) executes step-for-step
//! identically to the closure adapters in [`crate::adapters`]. Because the
//! spec plus a phase counter *is* the task's entire state, a mid-run
//! suspension can write it into a snapshot and a resumed run can rebuild the
//! exact task at the exact step it was parked on.
//!
//! Workloads that want whole-run snapshot/resume build their root from specs
//! (see [`TaskSpec::into_task`]); closure-based tasks still run everywhere
//! else, they just make a run uncapturable (a typed error, not a panic).

use maestro_machine::snap::{Codec, SnapError};
use maestro_machine::Cost;

use crate::task::{BoxTask, Step, TaskCtx, TaskLogic, TaskValue};

/// A serializable description of a task tree.
///
/// Semantics match the closure adapters exactly:
/// * `Leaf { cost }` behaves like [`crate::adapters::compute_leaf`]: one
///   `Compute(cost)` step, then `Done` with no value.
/// * `ForkJoin { children, join_cost }` behaves like
///   [`crate::adapters::fork_join`] over value-less children: one
///   `SpawnWait`, then `Compute(join_cost)`, then `Done` with no value.
#[derive(Clone, Debug, PartialEq)]
pub enum TaskSpec {
    /// One unit of leaf work costing `cost`.
    Leaf {
        /// Machine cost charged by the single compute step.
        cost: Cost,
    },
    /// Spawn `children`, wait for all, then do `join_cost` of combine work.
    ForkJoin {
        /// Child specs, spawned in order.
        children: Vec<TaskSpec>,
        /// Machine cost of the post-join combine step.
        join_cost: Cost,
    },
}

impl TaskSpec {
    /// A leaf spec.
    pub fn leaf(cost: Cost) -> TaskSpec {
        TaskSpec::Leaf { cost }
    }

    /// A fork-join spec.
    pub fn fork_join(children: Vec<TaskSpec>, join_cost: Cost) -> TaskSpec {
        TaskSpec::ForkJoin { children, join_cost }
    }

    /// Total number of tasks this spec expands into (itself + descendants).
    pub fn task_count(&self) -> usize {
        match self {
            TaskSpec::Leaf { .. } => 1,
            TaskSpec::ForkJoin { children, .. } => {
                1 + children.iter().map(TaskSpec::task_count).sum::<usize>()
            }
        }
    }

    /// Wrap this spec in its interpreter task, ready to hand to the
    /// scheduler as any other [`BoxTask`].
    pub fn into_task<C: 'static>(self) -> BoxTask<C> {
        Box::new(SpecTask::new(self))
    }

    /// The snapshot codec for the tree (see [`Codec`]).
    pub fn codec<C: Codec>(&self, c: &mut C) -> Result<TaskSpec, SnapError> {
        let (tag, children, cost) = match self {
            TaskSpec::Leaf { cost } => (0, &[][..], cost),
            TaskSpec::ForkJoin { children, join_cost } => (1, &children[..], join_cost),
        };
        match c.u8(tag)? {
            0 => Ok(TaskSpec::Leaf { cost: cost_codec(c, cost)? }),
            1 => Ok(TaskSpec::ForkJoin {
                children: c.seq(children, |c, child| child.codec(c))?,
                join_cost: cost_codec(c, cost)?,
            }),
            _ => Err(SnapError::Corrupt("unknown task spec tag")),
        }
    }
}

/// The reader's placeholder spec (a free leaf); see [`Codec::seq`].
impl Default for TaskSpec {
    fn default() -> Self {
        TaskSpec::Leaf { cost: Cost::ZERO }
    }
}

fn cost_codec<C: Codec>(c: &mut C, cost: &Cost) -> Result<Cost, SnapError> {
    Ok(Cost {
        cpu_cycles: c.u64(cost.cpu_cycles)?,
        mem_refs: c.u64(cost.mem_refs)?,
        mlp: c.f64(cost.mlp)?,
        intensity: c.f64(cost.intensity)?,
    })
}

/// The interpreter for a [`TaskSpec`]: a task whose entire dynamic state is
/// the spec plus a phase counter, so it can be captured and resumed exactly.
#[derive(Clone, Debug)]
pub struct SpecTask {
    spec: TaskSpec,
    phase: u8,
}

impl SpecTask {
    /// A fresh task at phase 0 (nothing executed yet).
    pub fn new(spec: TaskSpec) -> Self {
        SpecTask { spec, phase: 0 }
    }

    /// Rebuild a mid-run task parked at `phase` (from a snapshot).
    pub fn resume(spec: TaskSpec, phase: u8) -> Self {
        SpecTask { spec, phase }
    }
}

impl<C: 'static> TaskLogic<C> for SpecTask {
    fn step(&mut self, _app: &mut C, _ctx: &mut TaskCtx) -> Step<C> {
        match &self.spec {
            TaskSpec::Leaf { cost } => match self.phase {
                0 => {
                    self.phase = 1;
                    Step::Compute(*cost)
                }
                _ => Step::Done(TaskValue::none()),
            },
            TaskSpec::ForkJoin { children, join_cost } => match self.phase {
                0 => {
                    self.phase = 1;
                    Step::SpawnWait(children.iter().map(|c| c.clone().into_task()).collect())
                }
                1 => {
                    self.phase = 2;
                    Step::Compute(*join_cost)
                }
                _ => Step::Done(TaskValue::none()),
            },
        }
    }

    fn label(&self) -> &'static str {
        "spec"
    }

    fn snapshot_spec(&self) -> Option<(&TaskSpec, u8)> {
        Some((&self.spec, self.phase))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_machine::snap::{assert_rejects_corruption, SnapReader, SnapWriter};

    fn cost(cycles: u64) -> Cost {
        Cost { cpu_cycles: cycles, mem_refs: cycles / 4, mlp: 2.0, intensity: 0.8 }
    }

    fn tree() -> TaskSpec {
        TaskSpec::fork_join(
            vec![
                TaskSpec::leaf(cost(1000)),
                TaskSpec::fork_join(vec![TaskSpec::leaf(cost(50)), TaskSpec::leaf(cost(60))], cost(7)),
            ],
            cost(10),
        )
    }

    #[test]
    fn serialization_round_trips() {
        let t = tree();
        let mut w = SnapWriter::new();
        t.codec(&mut w).unwrap();
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        let back = TaskSpec::default().codec(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, t);
        assert_rejects_corruption(&bytes, |input| {
            let mut r = SnapReader::new(input);
            TaskSpec::default().codec(&mut r)?;
            r.finish()
        });
    }

    #[test]
    fn task_count_counts_every_node() {
        assert_eq!(tree().task_count(), 5);
        assert_eq!(TaskSpec::leaf(Cost::ZERO).task_count(), 1);
    }

    #[test]
    fn corrupt_tag_is_rejected() {
        let mut w = SnapWriter::new();
        w.u8(9).unwrap();
        let bytes = w.finish();
        assert!(TaskSpec::default().codec(&mut SnapReader::new(&bytes)).is_err());
    }

    #[test]
    fn spec_task_steps_like_the_adapters() {
        let mut t: SpecTask = SpecTask::new(tree());
        let mut ctx = TaskCtx {
            children: Vec::new(),
            now_ns: 0,
            worker: 0,
            shepherd: 0,
            cancel: crate::cancel::CancelToken::new(),
        };
        let mut app = ();
        match TaskLogic::<()>::step(&mut t, &mut app, &mut ctx) {
            Step::SpawnWait(kids) => assert_eq!(kids.len(), 2),
            _ => panic!("phase 0 of a fork-join must spawn"),
        }
        match TaskLogic::<()>::step(&mut t, &mut app, &mut ctx) {
            Step::Compute(c) => assert_eq!(c.cpu_cycles, 10),
            _ => panic!("phase 1 must charge the join cost"),
        }
        assert!(matches!(TaskLogic::<()>::step(&mut t, &mut app, &mut ctx), Step::Done(_)));
        let (spec, phase) = TaskLogic::<()>::snapshot_spec(&t).unwrap();
        assert_eq!(phase, 2);
        assert_eq!(*spec, tree());
    }
}
