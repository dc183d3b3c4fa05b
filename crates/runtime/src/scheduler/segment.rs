//! Worker segments under the fluid time advance: what a worker is doing,
//! the rates its running segment progresses at, and the completion events
//! those rates schedule.

use maestro_machine::snap::{Codec, SnapError};
use maestro_machine::{CoreActivity, SocketId};

use super::dispatch::task_mut;
use super::error::{internal, RuntimeError};
use super::{Exec, TaskId};
use crate::events::key_from_time_ns;

/// Completion tolerance, in nanoseconds of virtual time: a segment whose
/// absolute completion time is within this of the clock is due. The clock
/// lands on completions via `ceil`, so this only absorbs float dust from
/// the rate arithmetic — it must stay well under 1 ns so no later distinct
/// event can be swallowed.
const EPS_NS: f64 = 0.5;

#[derive(Default)]
pub(super) struct Segment {
    /// `None` marks a fixed-rate transition (duty-register write).
    pub(super) task: Option<TaskId>,
    cpu_rem_ns: f64,
    mem_rem_ns: f64,
    /// Wake epoch captured when a spin transition began.
    spin_epoch: u64,
    /// Virtual time `cpu_rem_ns`/`mem_rem_ns` were last folded to. The
    /// remaining work is *not* decremented every clock advance; elapsed
    /// time converts to finished work only when a rate changes, at a
    /// snapshot fence, or on retirement ([`Segment::fold_to`]).
    fold_ns: u64,
    /// CPU progress rate (effective core speed / dilation) cached at the
    /// fold; `1.0` for fixed-rate transitions.
    speed: f64,
    /// Memory progress rate (socket contention factor) cached at the fold;
    /// `1.0` for fixed-rate transitions.
    phi: f64,
    /// Absolute completion time under the cached rates, nanoseconds.
    pub(super) completion_abs: f64,
}

impl Segment {
    /// A segment starting at `fold_ns` with unit rates, until
    /// `Exec::rate_segment` assigns the rates in effect.
    pub(super) fn new(
        task: Option<TaskId>,
        cpu_rem_ns: f64,
        mem_rem_ns: f64,
        spin_epoch: u64,
        fold_ns: u64,
    ) -> Segment {
        Segment {
            task,
            cpu_rem_ns,
            mem_rem_ns,
            spin_epoch,
            fold_ns,
            speed: 1.0,
            phi: 1.0,
            completion_abs: 0.0,
        }
    }

    /// Consume the virtual time from `fold_ns` to `now_ns` at the cached
    /// rates: the CPU phase drains first, leftover time then drains the
    /// memory phase. Rates only change while the clock is stationary, so
    /// the cached rates are exactly the rates in effect over the interval.
    fn fold_to(&mut self, now_ns: u64) {
        debug_assert!(now_ns >= self.fold_ns, "segment folded backwards");
        let elapsed = (now_ns - self.fold_ns) as f64;
        if elapsed > 0.0 {
            if self.task.is_none() {
                self.cpu_rem_ns -= elapsed;
            } else {
                let t_cpu = self.cpu_rem_ns / self.speed;
                if elapsed < t_cpu {
                    self.cpu_rem_ns -= elapsed * self.speed;
                } else {
                    let leftover = elapsed - t_cpu;
                    self.cpu_rem_ns = 0.0;
                    self.mem_rem_ns = (self.mem_rem_ns - leftover * self.phi).max(0.0);
                }
            }
        }
        self.fold_ns = now_ns;
    }
}

pub(super) enum WorkerState {
    Idle,
    Spinning { epoch_seen: u64, since_ns: u64 },
    Running(Segment),
}

impl WorkerState {
    /// The snapshot codec for one worker's state. Snapshots serialize
    /// barrier-folded remaining work; a running segment's rates and
    /// completion time are re-derived at restore, folded from the restored
    /// `clock_ns`.
    pub(super) fn codec<K: Codec>(&self, c: &mut K, clock_ns: u64) -> Result<Self, SnapError> {
        let blank = Segment::default();
        let (tag, epoch_seen, since_ns, seg) = match self {
            WorkerState::Idle => (0, 0, 0, &blank),
            WorkerState::Spinning { epoch_seen, since_ns } => (1, *epoch_seen, *since_ns, &blank),
            WorkerState::Running(seg) => (2, 0, 0, seg),
        };
        match c.u8(tag)? {
            0 => Ok(WorkerState::Idle),
            1 => {
                let epoch_seen = c.u64(epoch_seen)?;
                let since_ns = c.u64(since_ns)?;
                if since_ns > clock_ns {
                    return Err(SnapError::Corrupt("spin starts after the machine clock"));
                }
                Ok(WorkerState::Spinning { epoch_seen, since_ns })
            }
            2 => Ok(WorkerState::Running(Segment::new(
                c.opt_u64(seg.task.map(|t| t as u64))?.map(|t| t as usize),
                c.f64(seg.cpu_rem_ns)?,
                c.f64(seg.mem_rem_ns)?,
                c.u64(seg.spin_epoch)?,
                clock_ns,
            ))),
            _ => Err(SnapError::Corrupt("unknown worker state tag")),
        }
    }
}

impl<C: 'static> Exec<'_, C> {
    /// Compute-rate divisor from the continuous contention model:
    /// `1 + dilation × (active − 1)`.
    pub(super) fn work_dilation(&self) -> f64 {
        let c = self.rt.params.work_dilation_per_worker;
        if c == 0.0 {
            1.0
        } else {
            1.0 + c * (self.total_active().saturating_sub(1)) as f64
        }
    }

    /// Fold worker `w`'s running segment to `now_ns`, assign the rates in
    /// effect right now, recompute its absolute completion time, and
    /// schedule the completion event under a fresh generation.
    fn rate_segment(&mut self, w: usize, now_ns: u64, dilation: f64) {
        let speed = self.rt.machine.effective_speed(self.worker_core[w]) / dilation;
        let phi = self.phi_seen[self.worker_shep[w]];
        let WorkerState::Running(seg) = &mut self.workers[w] else {
            return;
        };
        seg.fold_to(now_ns);
        if seg.task.is_some() {
            seg.speed = speed;
            seg.phi = phi;
            seg.completion_abs = now_ns as f64 + seg.cpu_rem_ns / speed + seg.mem_rem_ns / phi;
        } else {
            seg.speed = 1.0;
            seg.phi = 1.0;
            seg.completion_abs = now_ns as f64 + seg.cpu_rem_ns;
        }
        let key = key_from_time_ns(seg.completion_abs.max(0.0));
        self.seg_gen[w] += 1;
        self.completions.insert(key, w as u32, self.seg_gen[w]);
        self.rt.work.completion_pushes += 1;
    }

    /// Fold every running segment to the clock and re-derive its completion
    /// time — what every snapshot fence does, and what a restore does at
    /// the same instant, so a fence-matched unbroken run and a resumed one
    /// share one fold schedule.
    pub(super) fn rerate_running(&mut self) {
        let now = self.rt.machine.now_ns();
        let dilation = self.work_dilation();
        for w in 0..self.workers.len() {
            if matches!(self.workers[w], WorkerState::Running(_)) {
                self.rate_segment(w, now, dilation);
            }
        }
    }

    /// Bring cached per-segment rates in line with the machine, and give
    /// rates + completion events to segments created this iteration.
    ///
    /// Rates can only change while the clock is stationary (dispatch,
    /// completions, and monitor fires all run between advances), so one
    /// reconciliation immediately before the next-event lookup observes
    /// every change. Detection is O(sockets), not O(workers): a duty or
    /// p-state write bumps the machine's knob epoch, a contention change
    /// shows up as a bit-changed per-socket φ, and a dilation change as a
    /// bit-changed divisor. Only when one of those moves (rare in steady
    /// state — identical task mixes leave φ bit-identical thanks to the
    /// machine's equality-skipping mutators) are affected segments
    /// refolded.
    pub(super) fn reconcile_rates(&mut self) {
        let now = self.rt.machine.now_ns();
        let knob = self.rt.machine.knob_epoch();
        let dilation = self.work_dilation();
        let global =
            knob != self.knob_epoch_seen || dilation.to_bits() != self.dilation_seen.to_bits();
        let mut changed_mask: u64 = 0;
        for s in 0..self.phi_seen.len() {
            let phi = self.rt.machine.contention_factor(SocketId(s as u8));
            if phi.to_bits() != self.phi_seen[s].to_bits() {
                self.phi_seen[s] = phi;
                changed_mask |= 1 << s;
            }
        }
        if global || changed_mask != 0 {
            for w in 0..self.workers.len() {
                let on_changed_socket = (changed_mask >> self.worker_shep[w]) & 1 != 0;
                if !(global || on_changed_socket) {
                    continue;
                }
                // Fixed-rate transitions don't depend on any knob.
                if matches!(&self.workers[w], WorkerState::Running(seg) if seg.task.is_some()) {
                    self.rate_segment(w, now, dilation);
                }
            }
            self.knob_epoch_seen = knob;
            self.dilation_seen = dilation;
        }
        // Fresh segments are rated last, after φ reflects every activity
        // change of the batch (including the fresh segments' own).
        while let Some(w) = self.fresh_segments.pop() {
            if matches!(self.workers[w], WorkerState::Running(_)) {
                self.rate_segment(w, now, dilation);
            }
        }
    }

    /// Every running segment with its worker index, in worker order — the
    /// linear scan the `maestro_verify` cross-checks hold the completion
    /// queue to.
    #[cfg(maestro_verify)]
    pub(super) fn running_segments(&self) -> impl Iterator<Item = (usize, &Segment)> {
        self.workers.iter().enumerate().filter_map(|(w, state)| match state {
            WorkerState::Running(seg) => Some((w, seg)),
            _ => None,
        })
    }

    /// Retire every segment whose completion time the clock has reached and
    /// continue the affected tasks. Due events are collected first and
    /// processed in ascending worker order, so results never depend on heap
    /// internals.
    pub(super) fn progress_segments(&mut self, app: &mut C) -> Result<(), RuntimeError> {
        let bound = self.rt.machine.now_ns() as f64 + EPS_NS;
        let mut due = std::mem::take(&mut self.due_scratch);
        due.clear();
        let key_bound = key_from_time_ns(bound);
        let seg_gen = &self.seg_gen;
        let queued = self.completions.len();
        while let Some(e) =
            self.completions.pop_due(key_bound, |id, gen| seg_gen[id as usize] == gen)
        {
            due.push(e.id as usize);
        }
        self.rt.work.completion_pops += (queued - self.completions.len()) as u64;
        due.sort_unstable();
        #[cfg(maestro_verify)]
        assert_eq!(
            due,
            self.running_segments()
                .filter(|(_, seg)| seg.completion_abs <= bound)
                .map(|(w, _)| w)
                .collect::<Vec<_>>(),
            "completion queue's due set diverged from the worker scan"
        );

        let result = self.retire_due(app, &due);
        due.clear();
        self.due_scratch = due;
        result
    }

    /// Act on the collected due completions, in order.
    fn retire_due(&mut self, app: &mut C, due: &[usize]) -> Result<(), RuntimeError> {
        for &w in due {
            let state = self.set_worker(w, WorkerState::Idle);
            let WorkerState::Running(seg) = state else {
                return Err(internal("collected worker not running", self.rt.machine.now_ns()));
            };
            match seg.task {
                None => {
                    // Duty-write transition done: the worker is now spinning.
                    self.set_worker(
                        w,
                        WorkerState::Spinning {
                            epoch_seen: seg.spin_epoch,
                            since_ns: self.rt.machine.now_ns(),
                        },
                    );
                }
                Some(task) => {
                    let shep = self.worker_shep[w];
                    self.shepherds[shep].active -= 1;
                    self.active_total -= 1;
                    let now = self.rt.machine.now_ns();
                    let record = task_mut(&mut self.tasks, task, "running task exists", now)?;
                    if !record.staged_children.is_empty() {
                        // The spawn segment ended: children go live, parent
                        // suspends, worker looks for work again.
                        self.release_children(task, shep)?;
                        self.rt.machine.set_activity(self.worker_core[w], CoreActivity::Idle);
                    } else {
                        // A compute segment ended: continue the state machine.
                        self.step_task(app, w, task, 0.0)?;
                    }
                }
            }
        }
        Ok(())
    }
}
