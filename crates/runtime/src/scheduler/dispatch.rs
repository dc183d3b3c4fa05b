//! The task table, dispatch and stealing, the §IV spin loop, and stepping
//! and completing tasks.

use std::panic::{catch_unwind, AssertUnwindSafe};

use maestro_machine::{CoreActivity, Cost, DutyCycle};

use super::error::{internal, RunLimit, RuntimeError, TaskFailure};
use super::segment::{Segment, WorkerState};
use super::{Exec, TaskId, TaskRecord};
use crate::cancel::CancelToken;
use crate::task::{BoxTask, Step, TaskCtx, TaskValue};

/// The compute charge of an injected task wedge: large enough that the
/// segment never completes within any realistic deadline (~54 years of
/// virtual time at 2.7 GHz), so only the run deadline or step budget can
/// end the run. Wedge faults should always be paired with one of the two.
pub(super) const WEDGE_CYCLES: u64 = 1 << 62;

impl<C> TaskRecord<C> {
    /// A record with nothing pending, staged or parked yet.
    pub(super) fn new(
        logic: Option<BoxTask<C>>,
        parent: Option<(TaskId, usize)>,
        home_shepherd: usize,
        cancel: CancelToken,
    ) -> Self {
        TaskRecord {
            logic,
            parent,
            home_shepherd,
            pending_children: 0,
            inbox: Vec::new(),
            resume_pending: false,
            staged_children: Vec::new(),
            cancel,
        }
    }
}

/// Fallible task lookup: a missing record is an internal-invariant error,
/// not a panic. Free functions (not methods) so callers can hold other
/// borrows of `Exec` fields.
pub(super) fn task_mut<'a, C>(
    tasks: &'a mut [Option<TaskRecord<C>>],
    id: TaskId,
    what: &'static str,
    t_ns: u64,
) -> Result<&'a mut TaskRecord<C>, RuntimeError> {
    tasks.get_mut(id).and_then(Option::as_mut).ok_or_else(|| internal(what, t_ns))
}

/// Render a panic payload as text (the common `&str`/`String` payloads;
/// anything else gets a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl<C: 'static> Exec<'_, C> {
    fn alloc_task(&mut self, mut record: TaskRecord<C>) -> TaskId {
        self.live_tasks += 1;
        self.run.stats.peak_live_tasks = self.run.stats.peak_live_tasks.max(self.live_tasks);
        // Hand recycled buffers to records built with empty placeholders, so
        // a task's first spawn/join round allocates nothing in steady state.
        if record.inbox.capacity() == 0 {
            if let Some(buf) = self.inbox_pool.pop() {
                record.inbox = buf;
            }
        }
        if record.staged_children.capacity() == 0 {
            if let Some(buf) = self.child_pool.pop() {
                record.staged_children = buf;
            }
        }
        if let Some(id) = self.free.pop() {
            self.tasks[id] = Some(record);
            id
        } else {
            self.tasks.push(Some(record));
            self.tasks.len() - 1
        }
    }

    /// Allocate `record` and queue it on shepherd `shep`.
    pub(super) fn enqueue(&mut self, shep: usize, record: TaskRecord<C>) -> TaskId {
        let id = self.alloc_task(record);
        self.shepherds[shep].queue.push_back(id);
        self.queued_total += 1;
        id
    }

    /// Release `id`'s slot to the free list, harvesting its heap buffers
    /// into the recycling pools instead of dropping the allocations.
    fn free_task(&mut self, id: TaskId) {
        if let Some(mut record) = self.tasks[id].take() {
            if record.inbox.capacity() > 0 {
                record.inbox.clear();
                self.inbox_pool.push(std::mem::take(&mut record.inbox));
            }
            if record.staged_children.capacity() > 0 {
                record.staged_children.clear();
                self.child_pool.push(std::mem::take(&mut record.staged_children));
            }
        }
        self.free.push(id);
        self.live_tasks -= 1;
    }

    /// `label#id` path from the root down to `failed`, whose logic (already
    /// taken out for the step) supplies the leaf label.
    fn task_path(&self, failed: TaskId, failed_label: &'static str) -> Vec<String> {
        let mut path = vec![format!("{failed_label}#{failed}")];
        let mut id = failed;
        while let Some(Some(record)) = self.tasks.get(id) {
            let Some((parent, _)) = record.parent else { break };
            let label = match self.tasks.get(parent) {
                Some(Some(p)) => p.logic.as_ref().map_or("<in-flight>", |l| l.label()),
                _ => "<freed>",
            };
            path.push(format!("{label}#{parent}"));
            id = parent;
        }
        path.reverse();
        path
    }

    /// Whether a dispatch pass could change any worker's state — the
    /// event-driven replacement for unconditionally scanning every worker
    /// every iteration. An idle worker acts only on queued work, or on an
    /// active throttle (a worker looking for work under a full shepherd
    /// enters the spin state even with an empty queue). A spinner
    /// re-evaluates on an unseen wake epoch, on throttle deactivation, and
    /// while draining — exactly its eligibility condition below. When this
    /// returns false, a full pass would visit no eligible worker whose
    /// `try_dispatch` can make progress.
    pub(super) fn dispatch_needed(&self) -> bool {
        #[cfg(maestro_verify)]
        assert_eq!(
            self.queued_total,
            self.shepherds.iter().map(|s| s.queue.len()).sum::<usize>(),
            "queued_total counter diverged from the shepherd-queue scan"
        );
        let idle = self.workers.len() - self.spinner_count - self.running_count;
        if idle > 0 && (self.queued_total > 0 || (self.rt.throttle.active && !self.run.draining)) {
            return true;
        }
        self.spinner_count > 0
            && (self.run.wake_epoch != self.wake_epoch_seen
                || !self.rt.throttle.active
                || self.run.draining)
    }

    /// Returns whether any worker changed state, or an error from stepping.
    pub(super) fn dispatch_fixpoint(&mut self, app: &mut C) -> Result<bool, RuntimeError> {
        let mut any = false;
        loop {
            let mut progress = false;
            for w in 0..self.workers.len() {
                if self.root_value.is_some() {
                    return Ok(true);
                }
                // Spinners poll: besides an explicit wake, a deactivated
                // throttle or a draining run makes them re-check, so even a
                // lost wake event cannot strand them forever.
                let eligible = match &self.workers[w] {
                    WorkerState::Idle => true,
                    WorkerState::Spinning { epoch_seen, .. } => {
                        *epoch_seen < self.run.wake_epoch
                            || !self.rt.throttle.active
                            || self.run.draining
                    }
                    WorkerState::Running(_) => false,
                };
                if eligible {
                    progress |= self.try_dispatch(app, w)?;
                }
            }
            if !progress {
                // A no-progress pass leaves every surviving spinner with
                // `epoch_seen == wake_epoch`: the pass is converged against
                // the current epoch, and `dispatch_needed` can skip
                // dispatch until something moves it again.
                self.wake_epoch_seen = self.run.wake_epoch;
                return Ok(any);
            }
            any = true;
        }
    }

    /// Whether the §IV thread-initiation throttle stops a worker of
    /// shepherd `shep` that looks for work — never while draining: a
    /// cancelled run's only goal is to finish, at full width.
    fn throttle_binds(&self, shep: usize) -> bool {
        !self.run.draining
            && self.rt.throttle.active
            && self.shepherds[shep].active >= self.rt.throttle.effective_limit()
    }

    /// One attempt by worker `w` to find work. Returns true when the worker
    /// changed state (so the fixpoint must iterate again).
    fn try_dispatch(&mut self, app: &mut C, w: usize) -> Result<bool, RuntimeError> {
        let shep = self.worker_shep[w];
        if self.throttle_binds(shep) {
            return self.enter_spin(w);
        }

        let Some((task, stolen)) = self.acquire_task(shep) else {
            return Ok(match self.workers[w] {
                WorkerState::Spinning { ref mut epoch_seen, since_ns } => {
                    if self.rt.throttle.active && !self.run.draining {
                        // Still throttled: consume the wake epoch and keep
                        // spinning until one of the wake conditions fires.
                        *epoch_seen = self.run.wake_epoch;
                        false
                    } else {
                        // Throttle deactivated: leave the spin loop for the
                        // ordinary idle state (idle workers re-check on every
                        // dispatch pass, so no wake event can be lost).
                        let stall = self.leave_spin(w, since_ns);
                        self.run.pending_overhead_ns[w] += stall;
                        self.rt.machine.set_activity(self.worker_core[w], CoreActivity::Idle);
                        self.set_worker(w, WorkerState::Idle);
                        true
                    }
                }
                _ => {
                    self.rt.machine.set_activity(self.worker_core[w], CoreActivity::Idle);
                    false
                }
            });
        };

        // Leaving a spin loop costs a duty-register write.
        let mut overhead_ns = self.run.pending_overhead_ns[w];
        self.run.pending_overhead_ns[w] = 0.0;
        if let WorkerState::Spinning { since_ns, .. } = self.workers[w] {
            overhead_ns += self.leave_spin(w, since_ns);
        }
        let now = self.rt.machine.now_ns();
        self.charge_dispatch(task, stolen, now, &mut overhead_ns)?;

        self.set_worker(w, WorkerState::Idle); // placeholder until a segment starts
        self.step_task(app, w, task, overhead_ns)?;
        Ok(true)
    }

    /// Add the cost of dispatching `task` (a steal, if `stolen`, and the
    /// resume of a parked parent) to `overhead_ns`.
    fn charge_dispatch(
        &mut self,
        task: TaskId,
        stolen: bool,
        now: u64,
        overhead_ns: &mut f64,
    ) -> Result<(), RuntimeError> {
        let active = self.total_active() + 1;
        *overhead_ns += self.cycles_to_ns(self.rt.params.dispatch_cost_cycles(active, stolen));
        if stolen {
            self.run.stats.steals += 1;
        }
        if task_mut(&mut self.tasks, task, "queued task exists", now)?.resume_pending {
            *overhead_ns += self.cycles_to_ns(self.rt.params.resume_cycles);
            self.run.stats.resumes += 1;
        }
        Ok(())
    }

    /// Pop from the local queue (LIFO) or steal from another shepherd (FIFO).
    fn acquire_task(&mut self, shep: usize) -> Option<(TaskId, bool)> {
        if let Some(t) = self.shepherds[shep].queue.pop_back() {
            self.queued_total -= 1;
            return Some((t, false));
        }
        let n = self.shepherds.len();
        for i in 1..n {
            let victim = (shep + i) % n;
            if let Some(t) = self.shepherds[victim].queue.pop_front() {
                self.queued_total -= 1;
                return Some((t, true));
            }
        }
        None
    }

    /// Write worker `w`'s duty cycle through the verified actuator and
    /// count it. Returns the stall: each MSR write attempt stalls the core
    /// for ~250 memory ops, so a retried or forced transaction costs more.
    fn write_duty(&mut self, w: usize, duty: DutyCycle) -> f64 {
        let core = self.worker_core[w];
        let rt = &mut *self.rt;
        let outcome = rt.actuator.apply(&mut rt.machine, core, duty);
        self.run.stats.duty_writes += 1;
        f64::from(outcome.attempts().max(1))
            * self.rt.machine.config().duty_write_latency_ns() as f64
    }

    /// Worker `w`, spinning since `since_ns`, leaves the spin loop: account
    /// the spin time and write full duty back. Returns the write's stall.
    fn leave_spin(&mut self, w: usize, since_ns: u64) -> f64 {
        self.run.stats.throttled_worker_ns += self.rt.machine.now_ns() - since_ns;
        self.write_duty(w, DutyCycle::FULL)
    }

    fn enter_spin(&mut self, w: usize) -> Result<bool, RuntimeError> {
        Ok(match self.workers[w] {
            WorkerState::Spinning { ref mut epoch_seen, .. } => {
                // Was woken but throttle still binds: consume the epoch. No
                // state change that enables other workers.
                *epoch_seen = self.run.wake_epoch;
                false
            }
            WorkerState::Running(_) => {
                return Err(internal("running worker reached dispatch", self.rt.machine.now_ns()))
            }
            WorkerState::Idle => {
                self.run.stats.spin_entries += 1;
                self.rt.machine.set_activity(self.worker_core[w], CoreActivity::Spin);
                // Spinners drop to the hardware-minimum duty cycle (1/32).
                // A core whose breaker is open (or whose write could not be
                // verified) spins at FULL duty instead — the actuator fails
                // toward performance, never toward stuck-low.
                let cpu_rem_ns = self.write_duty(w, DutyCycle::MIN);
                let now = self.rt.machine.now_ns();
                let seg = Segment::new(None, cpu_rem_ns, 0.0, self.run.wake_epoch, now);
                self.set_worker(w, WorkerState::Running(seg));
                self.fresh_segments.push(w);
                true
            }
        })
    }

    /// Worker `w` starts running `seg` as `activity`. Rates are assigned by
    /// `reconcile_rates` once the whole event batch has settled the
    /// machine's activity state.
    fn start_segment(&mut self, w: usize, seg: Segment, activity: CoreActivity) {
        self.rt.machine.set_activity(self.worker_core[w], activity);
        let shep = self.worker_shep[w];
        self.shepherds[shep].active += 1;
        self.active_total += 1;
        self.set_worker(w, WorkerState::Running(seg));
        self.fresh_segments.push(w);
    }

    /// Drive `task` on worker `w` until it produces a timed segment,
    /// suspends, or finishes. `overhead_ns` is folded into the first
    /// segment the worker produces (and carried across instant completions).
    ///
    /// Every `step` call runs inside `catch_unwind`: a panicking task body
    /// is converted into a [`TaskFailure`] that cancels its subtree and the
    /// run, instead of unwinding through the scheduler.
    pub(super) fn step_task(
        &mut self,
        app: &mut C,
        w: usize,
        task: TaskId,
        overhead_ns: f64,
    ) -> Result<(), RuntimeError> {
        let mut carry_ns = overhead_ns;
        let mut current = task;
        let now_ns = self.rt.machine.now_ns();
        let worker_shep = self.worker_shep[w];
        loop {
            // The step budget is also enforced here, inside the
            // zero-virtual-time instant-completion chain, where the outer
            // loop's check never gets a turn.
            if let Some(budget) = self.rt.params.step_budget.filter(|&b| self.run.stats.steps >= b)
            {
                self.set_worker(w, WorkerState::Idle);
                self.rt.machine.set_activity(self.worker_core[w], CoreActivity::Idle);
                return Err(RuntimeError::DeadlineExceeded {
                    limit: RunLimit::Steps { budget },
                    t_ns: now_ns,
                    partial: Box::default(),
                });
            }

            let record = task_mut(&mut self.tasks, current, "stepped task exists", now_ns)?;
            let step = if record.cancel.is_cancelled() {
                // Yield-point cancellation: the task (or an ancestor scope)
                // was cancelled — complete it without running its body.
                record.logic = None;
                record.resume_pending = false;
                record.inbox.clear();
                self.run.stats.tasks_cancelled += 1;
                Step::Done(TaskValue::none())
            } else {
                let mut ctx = TaskCtx {
                    children: if record.resume_pending {
                        record.resume_pending = false;
                        std::mem::take(&mut record.inbox)
                    } else {
                        Vec::new()
                    },
                    now_ns,
                    worker: w,
                    shepherd: worker_shep,
                    cancel: record.cancel.clone(),
                };
                let mut logic = record
                    .logic
                    .take()
                    .ok_or_else(|| internal("task logic present while stepped", now_ns))?;
                let step_index = self.run.stats.steps;
                let faults = self.rt.task_faults.as_ref();
                let inject_panic = faults.is_some_and(|p| p.task_panic_due(step_index));
                let result = catch_unwind(AssertUnwindSafe(|| {
                    if inject_panic {
                        panic!("injected task-fault panic at step {step_index}");
                    }
                    logic.step(app, &mut ctx)
                }));
                self.run.stats.steps += 1;
                // Reclaim the resumed inbox buffer the task just consumed:
                // its values are spent, but the allocation is reusable.
                if ctx.children.capacity() > 0 {
                    ctx.children.clear();
                    self.inbox_pool.push(std::mem::take(&mut ctx.children));
                }
                match result {
                    Ok(mut step) => {
                        let faults = self.rt.task_faults.as_ref();
                        if faults.is_some_and(|p| p.task_wedge_due(step_index)) {
                            // Injected wedge: replace whatever the task asked
                            // for with a segment that never completes.
                            step = Step::Compute(Cost::compute(WEDGE_CYCLES, 0.5));
                        }
                        let record =
                            task_mut(&mut self.tasks, current, "stepped task exists", now_ns)?;
                        record.logic = Some(logic);
                        step
                    }
                    Err(payload) => {
                        self.run.stats.task_panics += 1;
                        let failure = TaskFailure {
                            message: panic_message(payload),
                            task_path: self.task_path(current, logic.label()),
                            worker: w,
                            t_ns: now_ns,
                        };
                        // Cancel the failed task's subtree, then the whole
                        // run: a sibling's combine must never execute over a
                        // hole left by the panic.
                        if let Some(Some(record)) = self.tasks.get(current) {
                            record.cancel.cancel();
                        }
                        self.run_cancel.cancel();
                        if self.run.failure.is_none() {
                            self.run.failure = Some(failure);
                        }
                        // The panicked task completes with no value; its
                        // parent drains through the cancelled scope.
                        Step::Done(TaskValue::none())
                    }
                }
            };
            self.note_cancellation();

            match step {
                Step::Compute(cost) => {
                    let cfg = self.rt.machine.config();
                    let (freq, lat) = (cfg.freq_ghz, cfg.memory.mem_latency_ns);
                    let seg = Segment::new(
                        Some(current),
                        cost.cpu_time_ns(freq) + carry_ns,
                        cost.mem_time_ns(lat),
                        0,
                        now_ns,
                    );
                    let ocr = cost.avg_outstanding_refs(freq, lat);
                    self.start_segment(
                        w,
                        seg,
                        CoreActivity::Busy { intensity: cost.intensity, ocr },
                    );
                    return Ok(());
                }
                Step::SpawnWait(children) => {
                    let n = children.len();
                    let record = task_mut(&mut self.tasks, current, "task exists", now_ns)?;
                    record.inbox.clear();
                    if n == 0 {
                        // Degenerate spawn: resume immediately with no values.
                        record.resume_pending = true;
                        continue;
                    }
                    // Move the children into the record's (possibly recycled)
                    // buffer and refill the inbox in place, so repeated
                    // spawn/join rounds reuse the same two allocations.
                    record.staged_children.clear();
                    record.staged_children.extend(children);
                    record.pending_children = n;
                    record.inbox.resize_with(n, TaskValue::none);
                    // Creating the children costs the parent spawn cycles,
                    // modeled as a final busy segment before it suspends.
                    let spawn_ns =
                        self.cycles_to_ns(self.rt.params.spawn_cycles_per_child * n as u64);
                    let seg = Segment::new(Some(current), spawn_ns + carry_ns, 0.0, 0, now_ns);
                    self.start_segment(w, seg, CoreActivity::Busy { intensity: 0.1, ocr: 0.0 });
                    return Ok(());
                }
                Step::Done(value) => {
                    self.complete_task(current, value)?;
                    // Instant completion: keep the worker going on more work
                    // from its own queue, carrying the unpaid overhead —
                    // unless the run finished or the throttle now binds (this
                    // is a "looks for work" point too).
                    let shep = self.worker_shep[w];
                    let next = if self.root_value.is_some() || self.throttle_binds(shep) {
                        None
                    } else {
                        self.acquire_task(shep)
                    };
                    let Some((next, stolen)) = next else {
                        self.rt.machine.set_activity(self.worker_core[w], CoreActivity::Idle);
                        self.set_worker(w, WorkerState::Idle);
                        return Ok(());
                    };
                    self.charge_dispatch(next, stolen, now_ns, &mut carry_ns)?;
                    current = next;
                }
            }
        }
    }

    /// A task finished with `value`: deliver to the parent (possibly
    /// readying it) or finish the run.
    fn complete_task(&mut self, task: TaskId, value: TaskValue) -> Result<(), RuntimeError> {
        self.run.stats.tasks_completed += 1;
        let now = self.rt.machine.now_ns();
        let record = task_mut(&mut self.tasks, task, "completing task exists", now)?;
        let parent = record.parent;
        // Captured before the record is freed: a request that reaches
        // completion with its cancel scope fired (deadline, run
        // cancellation) terminates as cancelled, not completed.
        let cancelled = record.cancel.is_cancelled();
        if record.pending_children != 0 {
            return Err(internal("task finished with live children", now));
        }
        self.free_task(task);
        match parent {
            // In a service run, parentless tasks are injected requests,
            // which settle with the source instead of ending the run.
            None if self.service.is_some() => self.settle_request(task, cancelled, now)?,
            None => {
                self.root_value = Some(value);
                // Application completion wakes spinners.
                self.wake_spinners();
            }
            Some((p, slot)) => {
                let parent_record = task_mut(&mut self.tasks, p, "parent outlives children", now)?;
                parent_record.inbox[slot] = value;
                parent_record.pending_children -= 1;
                if parent_record.pending_children == 0 {
                    parent_record.resume_pending = true;
                    let home = parent_record.home_shepherd;
                    self.shepherds[home].queue.push_back(p);
                    self.queued_total += 1;
                    // Parallel region / loop termination wakes spinners.
                    self.wake_spinners();
                }
            }
        }
        Ok(())
    }

    /// The spawn segment of `parent` finished: materialize its staged
    /// children onto the local queue and suspend the parent. Each child's
    /// cancel scope is a child of the parent's, so cancelling a region
    /// covers everything spawned under it.
    pub(super) fn release_children(
        &mut self,
        parent: TaskId,
        shep: usize,
    ) -> Result<(), RuntimeError> {
        let now = self.rt.machine.now_ns();
        let record = task_mut(&mut self.tasks, parent, "spawning parent exists", now)?;
        let mut staged = std::mem::take(&mut record.staged_children);
        let parent_token = record.cancel.clone();
        self.run.stats.spawned += staged.len() as u64;
        for (slot, logic) in staged.drain(..).enumerate() {
            let record =
                TaskRecord::new(Some(logic), Some((parent, slot)), shep, parent_token.child());
            self.enqueue(shep, record);
        }
        // The drained staging buffer keeps its capacity; recycle it.
        if staged.capacity() > 0 {
            self.child_pool.push(staged);
        }
        Ok(())
    }
}
