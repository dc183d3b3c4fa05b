//! Ready-made task shapes: leaves, fork-join, sequences, parallel loops.
//!
//! These adapters map OpenMP constructs onto the task state machine the way
//! the ROSE/XOMP translation maps them onto Qthreads:
//!
//! | OpenMP | adapter |
//! |---|---|
//! | `#pragma omp task` + body | [`leaf`] / [`compute_leaf`] |
//! | `task` … `taskwait` + continuation | [`fork_join`] |
//! | `#pragma omp parallel for schedule(dynamic, chunk)` | [`parallel_for`] |
//! | consecutive parallel regions | [`sequential`] |

use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::Range;
use std::rc::Rc;

use maestro_machine::Cost;

use crate::task::{BoxTask, Step, TaskCtx, TaskLogic, TaskValue};

// ---------------------------------------------------------------------
// Leaf
// ---------------------------------------------------------------------

struct Leaf<F> {
    f: Option<F>,
    value: Option<TaskValue>,
}

impl<C, F> TaskLogic<C> for Leaf<F>
where
    F: FnOnce(&mut C, &mut TaskCtx) -> (Cost, TaskValue),
{
    fn step(&mut self, app: &mut C, ctx: &mut TaskCtx) -> Step<C> {
        match self.f.take() {
            Some(f) => {
                let (cost, value) = f(app, ctx);
                self.value = Some(value);
                Step::Compute(cost)
            }
            None => Step::Done(self.value.take().unwrap_or_default()),
        }
    }

    fn label(&self) -> &'static str {
        "leaf"
    }
}

/// A task that runs `f` once: the closure does the real work against the
/// application state and reports what it cost; the value is delivered to the
/// parent after the cost has elapsed in virtual time.
pub fn leaf<C: 'static, F>(f: F) -> BoxTask<C>
where
    F: FnOnce(&mut C, &mut TaskCtx) -> (Cost, TaskValue) + 'static,
{
    Box::new(Leaf { f: Some(f), value: None })
}

/// A pure-cost leaf with no payload and no value (placeholder work).
pub fn compute_leaf<C: 'static>(cost: Cost) -> BoxTask<C> {
    leaf(move |_app, _ctx| (cost, TaskValue::none()))
}

// ---------------------------------------------------------------------
// Fork-join
// ---------------------------------------------------------------------

struct ForkJoin<C, F> {
    children: Option<Vec<BoxTask<C>>>,
    combine: Option<F>,
    value: Option<TaskValue>,
}

impl<C, F> TaskLogic<C> for ForkJoin<C, F>
where
    F: FnOnce(&mut C, Vec<TaskValue>) -> (Cost, TaskValue),
{
    fn step(&mut self, app: &mut C, ctx: &mut TaskCtx) -> Step<C> {
        if let Some(children) = self.children.take() {
            return Step::SpawnWait(children);
        }
        match self.combine.take() {
            Some(combine) => {
                let inputs = std::mem::take(&mut ctx.children);
                let (cost, value) = combine(app, inputs);
                self.value = Some(value);
                Step::Compute(cost)
            }
            None => Step::Done(self.value.take().unwrap_or_default()),
        }
    }

    fn label(&self) -> &'static str {
        "fork_join"
    }
}

/// Spawn `children`, wait for all of them, then run `combine` over their
/// values (OpenMP `task` + `taskwait` + continuation).
pub fn fork_join<C: 'static, F>(children: Vec<BoxTask<C>>, combine: F) -> BoxTask<C>
where
    F: FnOnce(&mut C, Vec<TaskValue>) -> (Cost, TaskValue) + 'static,
{
    Box::new(ForkJoin { children: Some(children), combine: Some(combine), value: None })
}

// ---------------------------------------------------------------------
// Sequential phases
// ---------------------------------------------------------------------

struct Sequential<C> {
    phases: VecDeque<BoxTask<C>>,
}

impl<C> TaskLogic<C> for Sequential<C> {
    fn step(&mut self, _app: &mut C, _ctx: &mut TaskCtx) -> Step<C> {
        match self.phases.pop_front() {
            Some(task) => Step::SpawnWait(vec![task]),
            None => Step::Done(TaskValue::none()),
        }
    }

    fn label(&self) -> &'static str {
        "sequential"
    }
}

/// Run `phases` one after another (consecutive parallel regions separated by
/// implicit barriers, like the kernel sequence of a LULESH time step).
/// Phase values are discarded.
pub fn sequential<C: 'static>(phases: Vec<BoxTask<C>>) -> BoxTask<C> {
    Box::new(Sequential { phases: phases.into() })
}

// ---------------------------------------------------------------------
// Parallel for
// ---------------------------------------------------------------------

/// A parallel loop over `range`, split into chunks of `chunk` iterations;
/// each chunk is one qthread. `body` receives the application state and its
/// chunk range, performs the real iterations, and returns their cost.
///
/// Chunks may execute in any order and on any worker (the usual OpenMP
/// `schedule(dynamic)` contract); the loop completes when every chunk has.
pub fn parallel_for<C: 'static, F>(range: Range<usize>, chunk: usize, body: F) -> BoxTask<C>
where
    F: FnMut(&mut C, Range<usize>, &mut TaskCtx) -> Cost + 'static,
{
    assert!(chunk > 0, "chunk size must be positive");
    let body = Rc::new(RefCell::new(body));
    let mut chunks: Vec<BoxTask<C>> = Vec::new();
    let mut lo = range.start;
    while lo < range.end {
        let hi = (lo + chunk).min(range.end);
        let body = Rc::clone(&body);
        chunks.push(leaf(move |app: &mut C, ctx: &mut TaskCtx| {
            let cost = (body.borrow_mut())(app, lo..hi, ctx);
            (cost, TaskValue::none())
        }));
        lo = hi;
    }
    fork_join(chunks, |_app, _vals| (Cost::ZERO, TaskValue::none()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_ctx(children: Vec<TaskValue>) -> TaskCtx {
        TaskCtx {
            children,
            now_ns: 0,
            worker: 0,
            shepherd: 0,
            cancel: crate::cancel::CancelToken::new(),
        }
    }

    fn step_to_done<C>(task: &mut dyn TaskLogic<C>, app: &mut C) -> TaskValue {
        // Drive a task ignoring costs and executing children depth-first —
        // a tiny synchronous interpreter for unit-testing adapters without
        // the scheduler.
        fn drive<C>(task: &mut dyn TaskLogic<C>, app: &mut C, inbox: Vec<TaskValue>) -> TaskValue {
            let mut ctx = test_ctx(inbox);
            loop {
                match task.step(app, &mut ctx) {
                    Step::Compute(_) => {
                        ctx = test_ctx(Vec::new());
                    }
                    Step::SpawnWait(children) => {
                        let values = children
                            .into_iter()
                            .map(|mut c| drive(c.as_mut(), app, Vec::new()))
                            .collect();
                        ctx = test_ctx(values);
                    }
                    Step::Done(v) => return v,
                }
            }
        }
        drive(task, app, Vec::new())
    }

    #[test]
    fn leaf_runs_payload_once() {
        let mut count = 0u32;
        let mut task = Leaf {
            f: Some(|app: &mut u32, _ctx: &mut TaskCtx| {
                *app += 1;
                (Cost::ZERO, TaskValue::of(7u8))
            }),
            value: None,
        };
        let mut v = step_to_done(&mut task, &mut count);
        assert_eq!(count, 1);
        assert_eq!(v.take::<u8>(), Some(7));
    }

    #[test]
    fn fork_join_combines_in_spawn_order() {
        let children: Vec<BoxTask<()>> = (0..5u32)
            .map(|i| leaf(move |_: &mut (), _: &mut TaskCtx| (Cost::ZERO, TaskValue::of(i))))
            .collect();
        let mut task = fork_join(children, |_: &mut (), mut vals| {
            let collected: Vec<u32> = vals.iter_mut().map(|v| v.take::<u32>().unwrap()).collect();
            (Cost::ZERO, TaskValue::of(collected))
        });
        let mut v = step_to_done(task.as_mut(), &mut ());
        assert_eq!(v.take::<Vec<u32>>(), Some(vec![0, 1, 2, 3, 4]));
    }

    #[test]
    fn sequential_runs_phases_in_order() {
        let phases: Vec<BoxTask<Vec<u32>>> = (0..4u32)
            .map(|i| {
                leaf(move |app: &mut Vec<u32>, _: &mut TaskCtx| {
                    app.push(i);
                    (Cost::ZERO, TaskValue::none())
                })
            })
            .collect();
        let mut app = Vec::new();
        let mut task = sequential(phases);
        step_to_done(task.as_mut(), &mut app);
        assert_eq!(app, vec![0, 1, 2, 3]);
    }

    #[test]
    fn parallel_for_chunks_cover_range() {
        let mut app = vec![0u8; 103];
        let mut task = parallel_for(0..103, 10, |app: &mut Vec<u8>, range, _ctx| {
            for i in range {
                app[i] += 1;
            }
            Cost::ZERO
        });
        step_to_done(task.as_mut(), &mut app);
        assert!(app.iter().all(|&x| x == 1));
    }

    #[test]
    fn parallel_for_empty_range_is_fine() {
        let mut task = parallel_for(5..5, 10, |_: &mut (), _range, _ctx| Cost::ZERO);
        let v = step_to_done(task.as_mut(), &mut ());
        assert!(matches!(v, TaskValue { .. }));
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        let _ = parallel_for(0..10, 0, |_: &mut (), _range, _ctx| Cost::ZERO);
    }
}
