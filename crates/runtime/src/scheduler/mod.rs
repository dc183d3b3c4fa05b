//! The Sherwood/MAESTRO scheduler under virtual time.
//!
//! One worker per core; workers on a socket share a shepherd with a LIFO
//! queue; stealing is FIFO from another shepherd. Execution is a fluid
//! discrete-event simulation: each running segment's completion time is a
//! function of its core's duty cycle (CPU share) and its socket's memory
//! contention factor (memory share), both of which are constant between
//! events, so the engine advances straight to the earliest completion or
//! monitor deadline.
//!
//! Throttling follows §IV of the paper: the check happens when a worker
//! *looks for work*; a worker that would push its shepherd's active count
//! past the limit enters a spin loop at 1/32 duty and wakes only on throttle
//! deactivation, application completion, or parallel region/loop termination
//! (a suspended parent resuming). Duty-register writes cost the time of
//! ~250 memory operations, charged as a fixed-rate transition segment.
//!
//! This module holds the [`Runtime`] and a run's event loop and monitors;
//! `dispatch`, `segment`, `snapshot`, `service` and `error` hold the other
//! concerns, each described in its own module docs.

use std::collections::VecDeque;

use maestro_machine::snap::SnapError;
use maestro_machine::{
    fingerprint, ActuationTotals, Actuator, CoreActivity, CoreId, DutyCycle, FaultPlan, Machine,
    SocketId,
};

use crate::cancel::CancelToken;
use crate::events::{time_ns_from_key, EventQueue};
use crate::monitor::{Monitor, ThrottleState};
use crate::params::RuntimeParams;
use crate::report::{RunOutcome, RunStats};
use crate::service::ServiceInjection;
use crate::task::{BoxTask, TaskValue};

mod dispatch;
mod error;
mod segment;
mod service;
mod snapshot;

pub use error::{RunLimit, RuntimeError, TaskFailure};
pub use snapshot::{CapturedRun, RunCapture, RunEnd, SnapshotPlan};

use error::internal;
use segment::WorkerState;
use service::ServiceCtl;
use snapshot::CaptureCtl;

type TaskId = usize;

/// The reusable runtime: machine + parameters + monitors + throttle state.
///
/// [`Runtime::run`] executes one task graph to completion; the machine's
/// clock, temperature, and energy counters persist across runs (so warm-up
/// and back-to-back experiments behave like the paper's).
pub struct Runtime {
    machine: Machine,
    params: RuntimeParams,
    monitors: Vec<Box<dyn Monitor>>,
    throttle: ThrottleState,
    actuator: Actuator,
    task_faults: Option<FaultPlan>,
    work: RuntimeWork,
}

/// Exact counts of the work the scheduler did, summed over every run
/// (resumed runs included): a host-side tally, kept out of [`RunStats`]
/// and every snapshot so it never moves a report or digest.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RuntimeWork {
    /// Event-loop iterations. Each ends in at most one clock advance, so
    /// unlike `RunStats::steps` this exposes a loop that crawls through
    /// virtual time in small ticks.
    pub loop_turns: u64,
    /// Monitor timer-queue builds: one per run start, fire pass and
    /// restore.
    pub timer_rebuilds: u64,
    /// `RequestSource::poll` calls.
    pub source_polls: u64,
    /// Entries pushed onto the completion queue (one per segment rating).
    pub completion_pushes: u64,
    /// Entries popped off the completion queue, stale ones included.
    pub completion_pops: u64,
    /// Entries pushed onto the request deadline heap: one per injected
    /// request with a deadline, plus one per unfired deadline a restore
    /// rebuilds.
    pub deadline_pushes: u64,
    /// Entries popped off the request deadline heap, stale ones included.
    pub deadline_pops: u64,
}

impl Runtime {
    /// Build a runtime over `machine`, rejecting invalid parameters and
    /// worker counts beyond the core count with a typed error.
    pub fn new(machine: Machine, params: RuntimeParams) -> Result<Self, RuntimeError> {
        params.validate()?;
        let cores = machine.topology().total_cores();
        if params.workers > cores {
            return Err(RuntimeError::WorkersExceedCores { workers: params.workers, cores });
        }
        let default_limit = machine.topology().cores_per_socket.max(1) as usize;
        let actuator = Actuator::new(cores);
        Ok(Runtime {
            machine,
            params,
            monitors: Vec::new(),
            throttle: ThrottleState::new(default_limit),
            actuator,
            task_faults: None,
            work: RuntimeWork::default(),
        })
    }

    /// Register a monitor (RCR daemon, adaptive controller, power trace…).
    pub fn add_monitor(&mut self, monitor: Box<dyn Monitor>) {
        self.monitors.push(monitor);
    }

    /// Remove and return all monitors (e.g. to inspect a recorded trace).
    pub fn take_monitors(&mut self) -> Vec<Box<dyn Monitor>> {
        std::mem::take(&mut self.monitors)
    }

    /// The simulated machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access (e.g. to pre-warm or pre-load it).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Current throttle directives.
    pub fn throttle(&self) -> &ThrottleState {
        &self.throttle
    }

    /// Mutable throttle directives (e.g. to pin a fixed limit).
    pub fn throttle_mut(&mut self) -> &mut ThrottleState {
        &mut self.throttle
    }

    /// The runtime parameters.
    pub fn params(&self) -> &RuntimeParams {
        &self.params
    }

    /// The verified duty-cycle writer (per-core breaker state, tallies).
    pub fn actuator(&self) -> &Actuator {
        &self.actuator
    }

    /// Inject (or clear) duty-write faults for subsequent runs.
    pub fn set_actuation_faults(&mut self, faults: Option<FaultPlan>) {
        self.actuator.set_faults(faults);
    }

    /// Exact work counts of the scheduler so far (see [`RuntimeWork`]).
    pub fn work(&self) -> RuntimeWork {
        self.work
    }

    /// Inject (or clear) task-level faults — scripted step panics, scripted
    /// wedges, and lost spinner wakes — for subsequent runs.
    pub fn set_task_faults(&mut self, faults: Option<FaultPlan>) {
        self.task_faults = faults;
    }

    /// Fingerprint of this runtime's *static* configuration, stamped into
    /// snapshot headers and checked on restore. Covers the machine config,
    /// worker count, placement, and monitor count — deliberately **not**
    /// controller policy knobs or throttle limits, so a warm snapshot can be
    /// forked across policy variants.
    pub fn config_fingerprint(&self) -> u64 {
        let desc = format!(
            "{:?}|workers={}|placement=Scatter|monitors={}",
            self.machine.config(),
            self.params.workers,
            self.monitors.len()
        );
        fingerprint(desc.as_bytes())
    }

    /// Like [`Runtime::run`], but under a [`SnapshotPlan`]: the run captures
    /// whole-run snapshots at the plan's cadence, suspends at its suspension
    /// fence, and clamps the clock at every fence so a fence-matched pair of
    /// runs advances time identically. Returns `Err` only when the run state
    /// could not be serialized (e.g. a closure-based task); run failures are
    /// reported through [`RunEnd::Failed`] so pre-failure snapshots survive.
    pub fn run_captured<C: 'static>(
        &mut self,
        app: &mut C,
        root: BoxTask<C>,
        plan: &SnapshotPlan,
    ) -> Result<CapturedRun, SnapError> {
        Exec::new(self, CancelToken::new()).run_to_capture(app, Some(root), plan)
    }

    /// Resume a run suspended by [`Runtime::run_captured`] from its capture
    /// bytes, continuing under `plan` (whose times stay relative to the
    /// *original* run start). A resumed run that completes reports elapsed
    /// time, energy, and stats byte-identically to an unbroken run that was
    /// fence-matched at the suspension point.
    pub fn resume_captured<C: 'static>(
        &mut self,
        app: &mut C,
        bytes: &[u8],
        plan: &SnapshotPlan,
    ) -> Result<CapturedRun, SnapError> {
        Exec::new(self, CancelToken::new()).resume(app, bytes, plan)
    }

    /// Execute `root` against `app` until it completes. Fails with
    /// [`RuntimeError::Deadlock`] if the task graph can never finish (e.g. a
    /// parent waiting on children that were never released), with
    /// [`RuntimeError::TaskFailed`] if a task step panics, and with
    /// [`RuntimeError::DeadlineExceeded`] if the run outlives the configured
    /// deadline or step budget. Every error path restores all cores to full
    /// duty before returning.
    pub fn run<C: 'static>(
        &mut self,
        app: &mut C,
        root: BoxTask<C>,
    ) -> Result<RunOutcome, RuntimeError> {
        self.run_with_cancel(app, root, CancelToken::new())
    }

    /// Like [`Runtime::run`], but under an externally held [`CancelToken`]:
    /// cancelling `cancel` (from a monitor or a cloned handle) ends the run
    /// early at the next yield point, completing the remaining tasks as
    /// cancelled and returning a successful outcome with partial values.
    pub fn run_with_cancel<C: 'static>(
        &mut self,
        app: &mut C,
        root: BoxTask<C>,
        cancel: CancelToken,
    ) -> Result<RunOutcome, RuntimeError> {
        Exec::new(self, cancel).execute(app, Some(root))
    }
}

/// Core a worker is pinned to: round-robin across sockets
/// (`OMP_PROC_BIND=spread`, the Qthreads default), which balances shepherd
/// populations and memory bandwidth.
fn placement_core(machine: &Machine, worker: usize) -> CoreId {
    let topo = machine.topology();
    let sockets = topo.sockets as usize;
    let socket = worker % sockets;
    let index = worker / sockets;
    CoreId((socket * topo.cores_per_socket as usize + index) as u16)
}

/// How the scheduler loop ended (before teardown).
enum LoopEnd {
    Finished(TaskValue),
    Suspended,
}

struct TaskRecord<C> {
    logic: Option<BoxTask<C>>,
    parent: Option<(TaskId, usize)>,
    home_shepherd: usize,
    pending_children: usize,
    inbox: Vec<TaskValue>,
    resume_pending: bool,
    staged_children: Vec<BoxTask<C>>,
    cancel: CancelToken,
}

struct Shepherd {
    queue: VecDeque<TaskId>,
    active: usize,
}

/// Where a run started, for elapsed-time and energy reporting. A resumed
/// run restores the *original* anchors from its snapshot.
struct RunAnchors {
    /// Virtual time the run started, nanoseconds.
    start_ns: u64,
    /// Node energy at run start, Joules.
    start_j: f64,
}

/// The run's snapshotted scalars.
struct RunScalars {
    /// Last observed token-tree generation, for cheap change detection.
    last_cancel_gen: u64,
    /// The run itself was cancelled: bypass the throttle and complete all
    /// remaining tasks as cancelled so the graph drains quickly.
    draining: bool,
    /// Absolute virtual-time deadline for this run, if configured.
    deadline_abs_ns: Option<u64>,
    wake_epoch: u64,
    /// First contained task panic, reported once the graph has drained.
    failure: Option<TaskFailure>,
    stats: RunStats,
    /// Actuator tallies at run start, for delta accounting in teardown.
    start_actuation: ActuationTotals,
    /// Residual dispatch overhead per worker, folded into the next segment.
    pending_overhead_ns: Vec<f64>,
}

/// Per-run execution state, borrowing the runtime.
///
/// Teardown (restoring every core to full duty) runs on every exit path:
/// normal completion, every mid-run error, and — via the [`Drop`] backstop —
/// even an unwind crossing this frame. No failure leaks a throttled core.
struct Exec<'r, C: 'static> {
    rt: &'r mut Runtime,
    tasks: Vec<Option<TaskRecord<C>>>,
    free: Vec<TaskId>,
    live_tasks: u64,
    shepherds: Vec<Shepherd>,
    workers: Vec<WorkerState>,
    /// Maintained sum of `shepherds[..].active` — `total_active()` in O(1).
    active_total: usize,
    /// Maintained count of workers in `WorkerState::Spinning`.
    spinner_count: usize,
    /// Maintained count of workers in `WorkerState::Running`.
    running_count: usize,
    /// Pending segment completions, keyed by absolute completion time.
    /// One *live* entry per running worker; superseded entries (the
    /// worker's `seg_gen` moved on) are discarded lazily as they surface.
    completions: EventQueue,
    /// Per-worker segment generation, bumped whenever a worker leaves
    /// `Running` or its segment is re-rated — the liveness stamp for
    /// `completions` entries.
    seg_gen: Vec<u64>,
    /// Monitor deadlines keyed by `next_due_ns()`. Due times move only
    /// inside a fire pass (or on restore), so the queue is rebuilt
    /// wholesale at those points and never holds stale entries.
    timers: EventQueue,
    /// Workers whose just-created segments still need rates and a
    /// completion event; drained by `reconcile_rates`.
    fresh_segments: Vec<usize>,
    /// Scratch for collecting due completions in canonical worker order.
    due_scratch: Vec<usize>,
    /// Maintained total of queued tasks across all shepherd queues.
    queued_total: usize,
    /// Wake epoch the last completed dispatch pass ran against; a pass is
    /// only worth re-running when the epoch moved (or throttle/draining
    /// state makes spinners re-evaluate) — see `dispatch_needed`.
    wake_epoch_seen: u64,
    /// Machine knob epoch observed by the last rate reconciliation.
    knob_epoch_seen: u64,
    /// Work dilation observed by the last rate reconciliation.
    dilation_seen: f64,
    /// Per-socket contention factor observed by the last reconciliation.
    phi_seen: Vec<f64>,
    /// Worker → pinned core, precomputed (placement is fixed per run).
    worker_core: Vec<CoreId>,
    /// Worker → shepherd (= socket index), precomputed.
    worker_shep: Vec<usize>,
    /// Recycled inbox buffers from freed tasks, reused by `alloc_task` and
    /// the spawn path instead of allocating per region.
    inbox_pool: Vec<Vec<TaskValue>>,
    /// Recycled `staged_children` buffers from freed/released tasks.
    child_pool: Vec<Vec<BoxTask<C>>>,
    root_value: Option<TaskValue>,
    anchors: RunAnchors,
    /// The run-scoped cancellation root; every task token descends from it.
    run_cancel: CancelToken,
    run: RunScalars,
    /// Snapshot fences and captures; `None` for plain (uncaptured) runs.
    capture: Option<CaptureCtl>,
    /// Service-run state; `None` for batch (rooted) runs.
    service: Option<ServiceCtl>,
    /// Injection scratch buffer handed to `RequestSource::poll`.
    injection_scratch: Vec<ServiceInjection>,
    torn_down: bool,
}

impl<'r, C: 'static> Exec<'r, C> {
    fn new(rt: &'r mut Runtime, cancel: CancelToken) -> Self {
        let n_workers = rt.params.workers;
        let sockets = rt.machine.topology().sockets as usize;
        let worker_core: Vec<CoreId> =
            (0..n_workers).map(|w| placement_core(&rt.machine, w)).collect();
        let worker_shep: Vec<usize> =
            worker_core.iter().map(|&c| rt.machine.topology().socket_of(c).index()).collect();
        let anchors =
            RunAnchors { start_ns: rt.machine.now_ns(), start_j: rt.machine.total_energy_joules() };
        let run = RunScalars {
            last_cancel_gen: cancel.generation(),
            draining: cancel.is_cancelled(),
            deadline_abs_ns: rt.params.deadline_ns.map(|d| anchors.start_ns.saturating_add(d)),
            wake_epoch: 0,
            failure: None,
            stats: RunStats::default(),
            start_actuation: rt.actuator.totals(),
            pending_overhead_ns: vec![0.0; n_workers],
        };
        let mut exec = Exec {
            rt,
            tasks: Vec::new(),
            free: Vec::new(),
            live_tasks: 0,
            shepherds: (0..sockets)
                .map(|_| Shepherd { queue: VecDeque::new(), active: 0 })
                .collect(),
            workers: (0..n_workers).map(|_| WorkerState::Idle).collect(),
            active_total: 0,
            spinner_count: 0,
            running_count: 0,
            completions: EventQueue::new(),
            seg_gen: vec![0; n_workers],
            timers: EventQueue::new(),
            fresh_segments: Vec::new(),
            due_scratch: Vec::new(),
            queued_total: 0,
            // Force-stale: the first loop iteration always runs a dispatch
            // pass (it has the root task queued anyway).
            wake_epoch_seen: 1,
            knob_epoch_seen: 0,
            dilation_seen: 1.0,
            phi_seen: Vec::new(),
            worker_core,
            worker_shep,
            inbox_pool: Vec::new(),
            child_pool: Vec::new(),
            root_value: None,
            anchors,
            run_cancel: cancel,
            run,
            capture: None,
            service: None,
            injection_scratch: Vec::new(),
            torn_down: false,
        };
        exec.rebuild_timers();
        exec.observe_rates();
        exec
    }

    fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 / self.rt.machine.config().freq_ghz
    }

    fn total_active(&self) -> usize {
        #[cfg(maestro_verify)]
        assert_eq!(
            self.active_total,
            self.shepherds.iter().map(|s| s.active).sum::<usize>(),
            "active_total counter diverged from the per-shepherd scan"
        );
        self.active_total
    }

    fn has_spinners(&self) -> bool {
        #[cfg(maestro_verify)]
        assert_eq!(
            self.spinner_count,
            self.workers.iter().filter(|w| matches!(w, WorkerState::Spinning { .. })).count(),
            "spinner_count counter diverged from the worker scan"
        );
        self.spinner_count > 0
    }

    /// Replace worker `w`'s state, keeping the spinner/running counters in
    /// sync. Every variant change must go through here. Leaving `Running`
    /// bumps the worker's segment generation, invalidating any completion
    /// event scheduled for the old segment.
    fn set_worker(&mut self, w: usize, state: WorkerState) -> WorkerState {
        let old = std::mem::replace(&mut self.workers[w], state);
        match &old {
            WorkerState::Spinning { .. } => self.spinner_count -= 1,
            WorkerState::Running(_) => {
                self.running_count -= 1;
                self.seg_gen[w] += 1;
            }
            WorkerState::Idle => {}
        }
        match &self.workers[w] {
            WorkerState::Spinning { .. } => self.spinner_count += 1,
            WorkerState::Running(_) => self.running_count += 1,
            WorkerState::Idle => {}
        }
        old
    }

    /// Take the machine's current knob epoch, contention factors and work
    /// dilation as what every running segment was last rated against.
    fn observe_rates(&mut self) {
        let machine = &self.rt.machine;
        self.knob_epoch_seen = machine.knob_epoch();
        self.phi_seen = (0..machine.topology().sockets)
            .map(|s| machine.contention_factor(SocketId(s)))
            .collect();
        self.dilation_seen = self.work_dilation();
    }

    /// Drive an uncaptured run to completion: from `root`, or a rootless
    /// service run with `None`.
    fn execute(
        mut self,
        app: &mut C,
        root: Option<BoxTask<C>>,
    ) -> Result<RunOutcome, RuntimeError> {
        let result = self.drive(app, root);
        self.outcome(result)
    }

    /// Run the event loop to its end — from `root` on a fresh start, from
    /// the restored graph (or a rootless service run) with `None` — then
    /// settle the service ledger and tear down.
    fn drive(&mut self, app: &mut C, root: Option<BoxTask<C>>) -> Result<LoopEnd, RuntimeError> {
        let result = match root {
            Some(root) => self.run_loop(app, root),
            None => self.loop_body(app),
        };
        // Terminal service accounting — but never on suspension: a
        // suspended run is still alive in its snapshot.
        match &result {
            Ok(LoopEnd::Finished(_)) => self.finalize_service(false),
            Ok(LoopEnd::Suspended) => {}
            Err(_) => self.finalize_service(true),
        }
        self.teardown();
        result
    }

    /// The run's outcome: elapsed time, energy, and average power since the
    /// run anchors, or the error with partial stats. A suspension is an
    /// error here; only a capture plan can hold one.
    fn outcome(&self, result: Result<LoopEnd, RuntimeError>) -> Result<RunOutcome, RuntimeError> {
        let now = self.rt.machine.now_ns();
        let stats = self.run.stats;
        match result {
            Ok(LoopEnd::Finished(value)) => {
                let elapsed_s = (now - self.anchors.start_ns) as f64 * 1e-9;
                let joules = self.rt.machine.total_energy_joules() - self.anchors.start_j;
                Ok(RunOutcome {
                    value,
                    elapsed_s,
                    joules,
                    avg_watts: if elapsed_s > 0.0 { joules / elapsed_s } else { 0.0 },
                    stats,
                })
            }
            Ok(LoopEnd::Suspended) => {
                Err(internal("suspension without a capture plan", now).with_partial(stats))
            }
            Err(e) => Err(e.with_partial(stats)),
        }
    }

    fn run_loop(&mut self, app: &mut C, root: BoxTask<C>) -> Result<LoopEnd, RuntimeError> {
        let root_shep = self.worker_shep[0];
        let record = TaskRecord::new(Some(root), None, root_shep, self.run_cancel.child());
        self.enqueue(root_shep, record);
        self.loop_body(app)
    }

    /// The scheduler event loop, entered after the task graph exists —
    /// directly by a resumed run (whose graph comes from the snapshot).
    fn loop_body(&mut self, app: &mut C) -> Result<LoopEnd, RuntimeError> {
        while self.root_value.is_none() {
            self.rt.work.loop_turns += 1;
            if self.capture_fences_due() {
                // Suspension fence reached (or a capture failed): park here,
                // *before* limits and monitors — the resumed run re-enters
                // the loop at exactly this point with identical state.
                return Ok(LoopEnd::Suspended);
            }
            self.check_limits()?;
            self.fire_due_monitors();
            self.service_pass()?;
            self.note_cancellation();
            if self.dispatch_needed() {
                self.dispatch_fixpoint(app)?;
            }
            if self.root_value.is_some() {
                break;
            }
            let Some(dt_ns) = self.next_event_dt() else {
                // No event source left — but spinners may have been stranded
                // by a lost wake. Force an epoch bump and retry once before
                // declaring deadlock; a genuinely dead graph stays dead.
                if self.has_spinners() {
                    self.run.stats.wake_recoveries += 1;
                    self.run.wake_epoch += 1;
                    if self.dispatch_fixpoint(app)? {
                        continue;
                    }
                }
                return Err(RuntimeError::Deadlock {
                    live_tasks: self.live_tasks,
                    total_active: self.total_active(),
                    t_ns: self.rt.machine.now_ns(),
                    partial: Box::default(),
                });
            };
            self.rt.machine.advance(dt_ns);
            self.progress_segments(app)?;
        }

        if let Some(failure) = self.run.failure.take() {
            return Err(RuntimeError::TaskFailed { failure, partial: Box::default() });
        }
        self.root_value
            .take()
            .map(LoopEnd::Finished)
            .ok_or_else(|| internal("root value present at loop exit", self.rt.machine.now_ns()))
    }

    /// Enforce the run's wall-clock deadline and step budget.
    fn check_limits(&self) -> Result<(), RuntimeError> {
        let now = self.rt.machine.now_ns();
        if let (Some(abs), Some(cfg)) = (self.run.deadline_abs_ns, self.rt.params.deadline_ns) {
            if now >= abs {
                return Err(RuntimeError::DeadlineExceeded {
                    limit: RunLimit::WallClock { deadline_ns: cfg },
                    t_ns: now,
                    partial: Box::default(),
                });
            }
        }
        if let Some(budget) = self.rt.params.step_budget {
            if self.run.stats.steps >= budget {
                return Err(RuntimeError::DeadlineExceeded {
                    limit: RunLimit::Steps { budget },
                    t_ns: now,
                    partial: Box::default(),
                });
            }
        }
        Ok(())
    }

    /// Time until the next interesting event, or `None` on deadlock.
    fn next_event_dt(&mut self) -> Option<u64> {
        self.reconcile_rates();
        let now = self.rt.machine.now_ns();
        // O(1) deadlock check: no running segment, no pending monitor, and
        // no pending service event (arrival, retry, or request deadline).
        if self.running_count == 0
            && self.next_monitor_due().is_none()
            && self.service_due().is_none()
        {
            return None;
        }
        let seg_gen = &self.seg_gen;
        let queued = self.completions.len();
        let next_completion = self
            .completions
            .peek_live(|id, gen| seg_gen[id as usize] == gen)
            .map(|e| time_ns_from_key(e.key));
        self.rt.work.completion_pops += (queued - self.completions.len()) as u64;
        #[cfg(maestro_verify)]
        assert_eq!(
            next_completion.map(f64::to_bits),
            self.running_segments()
                .map(|(_, seg)| seg.completion_abs.max(0.0))
                .min_by(f64::total_cmp)
                .map(f64::to_bits),
            "completion queue diverged from the worker scan"
        );
        let mut dt: Option<f64> = next_completion.map(|c| (c - now as f64).max(0.0));
        for due in [self.next_monitor_due(), self.service_due()].into_iter().flatten() {
            let cand = due.saturating_sub(now) as f64;
            dt = Some(dt.map_or(cand, |d| d.min(cand)));
        }
        let mut dt_ns = dt.map(|d| d.ceil() as u64)?;
        // Never step past the run deadline: a huge (wedged) segment must not
        // carry the clock years beyond the configured limit. Only clamp an
        // existing event — a dead graph still reports deadlock, not a wait.
        if let Some(deadline) = self.run.deadline_abs_ns {
            dt_ns = dt_ns.min(deadline.saturating_sub(now));
        }
        // Snapshot fences clamp the same way: the clock must land exactly on
        // every fence so a fence-matched pair of runs advances identically.
        if let Some(fence) = self.next_fence_abs() {
            dt_ns = dt_ns.min(fence.saturating_sub(now));
        }
        Some(dt_ns)
    }

    /// End-of-run accounting and core restoration, on every exit path.
    /// Account residual spin time and restore machine core states. The
    /// restore goes through the verified actuator too: a shutdown must
    /// never leave a core silently stuck at low duty.
    fn teardown(&mut self) {
        if self.torn_down {
            return;
        }
        self.torn_down = true;
        let now = self.rt.machine.now_ns();
        for w in 0..self.workers.len() {
            if let WorkerState::Spinning { since_ns, .. } = self.workers[w] {
                self.run.stats.throttled_worker_ns += now - since_ns;
            }
            self.set_worker(w, WorkerState::Idle);
        }
        self.restore_cores();

        let (start, end) = (self.run.start_actuation, self.rt.actuator.totals());
        let stats = &mut self.run.stats;
        stats.duty_write_attempts = end.attempts - start.attempts;
        stats.duty_verify_failures = end.verify_failures - start.verify_failures;
        stats.failed_duty_applies = end.failed_applies - start.failed_applies;
        stats.forced_duty_resets = end.forced_resets - start.forced_resets;
        stats.breaker_trips = end.breaker_trips - start.breaker_trips;
    }

    fn restore_cores(&mut self) {
        for w in 0..self.workers.len() {
            let core = self.worker_core[w];
            let rt = &mut *self.rt;
            let _ = rt.actuator.apply(&mut rt.machine, core, DutyCycle::FULL);
            self.rt.machine.set_activity(core, CoreActivity::Idle);
        }
    }

    // ------------------------------------------------------------------
    // Monitors
    // ------------------------------------------------------------------

    fn fire_due_monitors(&mut self) {
        let now = self.rt.machine.now_ns();
        // Nothing due yet: skip the per-monitor pass entirely. The timer
        // queue is exact — monitors only change their due time inside
        // `fire`, and every fire pass ends by rebuilding the queue.
        if self.next_monitor_due().is_none_or(|due| due > now) {
            return;
        }
        let was_active = self.rt.throttle.active;
        for m in &mut self.rt.monitors {
            while m.next_due_ns().is_some_and(|due| due <= now) {
                m.fire(&mut self.rt.machine, &mut self.rt.throttle);
                self.run.stats.monitor_fires += 1;
            }
        }
        self.rebuild_timers();
        if self.rt.throttle.active != was_active {
            // Throttle (de)activation is a wake condition for spinners.
            self.wake_spinners();
        }
    }

    /// Re-key every monitor in the timer queue. A fire can move *another*
    /// monitor's deadline (the RCR daemon's heartbeat feeds the watchdog's
    /// due time through a shared cell), so instead of fine-grained
    /// invalidation the whole queue — at most a handful of monitors — is
    /// rebuilt at run start, after each fire pass and on restore, the only
    /// points where due times are allowed to change.
    fn rebuild_timers(&mut self) {
        self.rt.work.timer_rebuilds += 1;
        self.timers.clear();
        for (i, m) in self.rt.monitors.iter().enumerate() {
            if let Some(due) = m.next_due_ns() {
                self.timers.insert(due, i as u32, 0);
            }
        }
    }

    fn next_monitor_due(&self) -> Option<u64> {
        let due = self.timers.peek().map(|e| e.key);
        #[cfg(maestro_verify)]
        assert_eq!(
            due,
            self.rt.monitors.iter().filter_map(|m| m.next_due_ns()).min(),
            "timer queue diverged from the monitor scan"
        );
        due
    }

    /// Bump the wake epoch so every spinner re-evaluates — unless an
    /// injected lost-wake fault swallows the event (the run_loop's forced
    /// recovery and spinner polling then cover for it).
    fn wake_spinners(&mut self) {
        if self.rt.task_faults.as_ref().is_some_and(FaultPlan::lose_wake) {
            self.run.stats.lost_wakes += 1;
            return;
        }
        self.run.wake_epoch += 1;
    }

    /// Observe cancel events on the run's token tree. Any new cancel wakes
    /// spinners (the fifth wake condition, beyond the paper's four); a
    /// cancel of the run scope itself switches the scheduler into draining
    /// mode, where the throttle no longer gates dispatch and every task
    /// completes as cancelled at its next yield point.
    fn note_cancellation(&mut self) {
        let generation = self.run_cancel.generation();
        if generation != self.run.last_cancel_gen {
            self.run.stats.cancellations += generation - self.run.last_cancel_gen;
            self.run.last_cancel_gen = generation;
            if !self.run.draining && self.run_cancel.is_cancelled() {
                self.run.draining = true;
            }
            self.wake_spinners();
        }
    }
}

/// Backstop for the backstop: if an unwind ever crosses `drive` (so `teardown`
/// did not get its turn), the destructor still drives every core back to
/// full duty. Stats are already lost at that point; core state must not be.
impl<C: 'static> Drop for Exec<'_, C> {
    fn drop(&mut self) {
        if !self.torn_down {
            self.torn_down = true;
            self.restore_cores();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::dispatch::WEDGE_CYCLES;
    use super::*;
    use crate::adapters::{compute_leaf, fork_join, leaf, parallel_for};
    use crate::monitor::{CancelAt, PowerTrace, Watchdog};
    use crate::params::ParamsError;
    use crate::service::{RequestSource, ServiceCounters};
    use crate::spec::TaskSpec;
    use crate::task::{Step, TaskCtx, TaskLogic};
    use maestro_machine::snap::{assert_rejects_corruption, Codec, SnapReader, SnapWriter};
    use maestro_machine::{Cost, MachineConfig, NS_PER_SEC};
    use std::cell::Cell;
    use std::rc::Rc;

    fn runtime(workers: usize) -> Runtime {
        Runtime::new(Machine::new(MachineConfig::sandybridge_2x8()), RuntimeParams::qthreads(workers))
            .unwrap()
    }

    /// 1 ms of pure compute at 2.7 GHz.
    fn ms_cost(ms: u64) -> Cost {
        Cost::compute(ms * 2_700_000, 0.8)
    }

    #[test]
    fn single_compute_task_takes_its_cost() {
        let mut rt = runtime(1);
        let out = rt.run(&mut (), compute_leaf(ms_cost(100))).unwrap();
        assert!((out.elapsed_s - 0.1).abs() < 0.001, "elapsed {}", out.elapsed_s);
        assert_eq!(out.stats.tasks_completed, 1);
        assert!(out.joules > 0.0);
    }

    #[test]
    fn fork_join_returns_combined_value() {
        let mut rt = runtime(4);
        let children: Vec<BoxTask<()>> = (0..4u64)
            .map(|i| {
                leaf(move |_app: &mut (), _ctx: &mut TaskCtx| (ms_cost(10), TaskValue::of(i)))
            })
            .collect();
        let root = fork_join(children, |_app, mut vals: Vec<TaskValue>| {
            let sum: u64 = vals.iter_mut().map(|v| v.take::<u64>().unwrap()).sum();
            (Cost::ZERO, TaskValue::of(sum))
        });
        let out = rt.run(&mut (), root).unwrap();
        assert_eq!(out.value_as::<u64>(), Some(6));
    }

    #[test]
    fn parallel_work_speeds_up_on_more_workers() {
        let elapsed = |workers: usize| {
            let mut rt = runtime(workers);
            let children: Vec<BoxTask<()>> =
                (0..16).map(|_| compute_leaf(ms_cost(50))).collect();
            let root = fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()));
            rt.run(&mut (), root).unwrap().elapsed_s
        };
        let t1 = elapsed(1);
        let t16 = elapsed(16);
        let speedup = t1 / t16;
        assert!(speedup > 12.0, "compute-bound speedup {speedup}");
    }

    #[test]
    fn memory_bound_work_saturates() {
        // Tasks that are pure memory traffic with high MLP: one socket's
        // bandwidth caps the speedup well below the worker count.
        let elapsed = |workers: usize| {
            let mut rt = runtime(workers);
            let children: Vec<BoxTask<()>> = (0..32)
                .map(|_| compute_leaf(Cost::new(1000, 2_000_000, 8.0, 0.2)))
                .collect();
            let root = fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()));
            rt.run(&mut (), root).unwrap().elapsed_s
        };
        let t1 = elapsed(1);
        let t16 = elapsed(16);
        let speedup = t1 / t16;
        // 16 workers = 8 per socket, each sustaining MLP 8 => 64 outstanding
        // refs against an effective max of 36 (with thrash decay beyond it).
        assert!(speedup < 9.0, "memory-bound speedup should cap: {speedup}");
        assert!(speedup > 3.0, "but bandwidth still above one core: {speedup}");
    }

    #[test]
    fn parallel_for_covers_every_index_once() {
        let mut rt = runtime(7);
        let n = 1000;
        let mut app = vec![0u32; n];
        let root = parallel_for(0..n, 13, |app: &mut Vec<u32>, range, _ctx| {
            for i in range.clone() {
                app[i] += 1;
            }
            Cost::compute(range.len() as u64 * 500, 0.5)
        });
        let out = rt.run(&mut app, root).unwrap();
        assert!(app.iter().all(|&v| v == 1), "every index exactly once");
        // ceil(1000/13) chunks + root.
        assert_eq!(out.stats.tasks_completed, 77 + 1);
    }

    #[test]
    fn stealing_balances_across_sockets() {
        let mut rt = runtime(16);
        let children: Vec<BoxTask<()>> = (0..64).map(|_| compute_leaf(ms_cost(5))).collect();
        let root = fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()));
        let out = rt.run(&mut (), root).unwrap();
        // Work is enqueued on shepherd 0; socket-1 workers must steal.
        assert!(out.stats.steals > 0, "no steals happened");
        let ideal = 64.0 * 0.005 / 16.0;
        assert!(out.elapsed_s < ideal * 2.5, "elapsed {} vs ideal {ideal}", out.elapsed_s);
    }

    #[test]
    fn throttle_limits_active_workers_and_spins_at_low_duty() {
        let mut rt = runtime(16);
        rt.throttle_mut().active = true;
        rt.throttle_mut().limit_per_shepherd = 3;
        let children: Vec<BoxTask<()>> = (0..48).map(|_| compute_leaf(ms_cost(20))).collect();
        let root = fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()));
        let out = rt.run(&mut (), root).unwrap();
        assert!(out.stats.spin_entries > 0, "some workers must have spun");
        assert!(out.stats.throttled_worker_ns > 0);
        assert!(out.stats.duty_writes > 0);
        // 6 active instead of 16: ≥ 48*20ms/6 (minus overhead slack).
        let min_time = 48.0 * 0.020 / 6.0 * 0.9;
        assert!(out.elapsed_s > min_time, "elapsed {} < {min_time}", out.elapsed_s);
    }

    #[test]
    fn throttled_run_draws_less_power() {
        let run = |throttled: bool| {
            let mut rt = runtime(16);
            if throttled {
                rt.throttle_mut().active = true;
                rt.throttle_mut().limit_per_shepherd = 4;
            }
            let children: Vec<BoxTask<()>> = (0..64).map(|_| compute_leaf(ms_cost(20))).collect();
            let root = fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()));
            rt.run(&mut (), root).unwrap()
        };
        let free = run(false);
        let capped = run(true);
        assert!(
            capped.avg_watts < free.avg_watts - 10.0,
            "throttled {} W vs free {} W",
            capped.avg_watts,
            free.avg_watts
        );
        assert!(capped.elapsed_s > free.elapsed_s);
    }

    #[test]
    fn monitors_fire_on_schedule() {
        let mut rt = runtime(4);
        rt.add_monitor(Box::new(PowerTrace::new(NS_PER_SEC / 100)));
        let children: Vec<BoxTask<()>> = (0..8).map(|_| compute_leaf(ms_cost(50))).collect();
        let root = fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()));
        let out = rt.run(&mut (), root).unwrap();
        assert!(out.stats.monitor_fires >= 9, "fires: {}", out.stats.monitor_fires);
        let monitors = rt.take_monitors();
        let trace = monitors.into_iter().next().unwrap();
        let _ = trace; // downcasting Box<dyn Monitor> is exercised in the maestro crate
    }

    #[test]
    fn deep_recursion_fork_join() {
        // A binary fork-join tree of depth 12: 2^12 leaves.
        struct Tree {
            depth: u32,
            phase: u8,
        }
        impl TaskLogic<()> for Tree {
            fn step(&mut self, _app: &mut (), _ctx: &mut TaskCtx) -> Step<()> {
                match (self.phase, self.depth) {
                    (0, 0) => Step::Done(TaskValue::of(1u64)),
                    (0, d) => {
                        self.phase = 1;
                        Step::SpawnWait(vec![
                            Box::new(Tree { depth: d - 1, phase: 0 }),
                            Box::new(Tree { depth: d - 1, phase: 0 }),
                        ])
                    }
                    (1, _) => {
                        let sum: u64 =
                            _ctx.children.iter_mut().map(|v| v.take::<u64>().unwrap()).sum();
                        Step::Done(TaskValue::of(sum))
                    }
                    _ => unreachable!(),
                }
            }
        }
        let mut rt = runtime(16);
        let out = rt.run(&mut (), Box::new(Tree { depth: 12, phase: 0 })).unwrap();
        assert_eq!(out.value_as::<u64>(), Some(1 << 12));
    }

    #[test]
    fn determinism_identical_runs() {
        let run = || {
            let mut rt = runtime(9);
            let children: Vec<BoxTask<()>> = (0..40)
                .map(|i| compute_leaf(Cost::new(1_000_000 + i * 7919, i * 100, 2.0, 0.5)))
                .collect();
            let root = fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()));
            let out = rt.run(&mut (), root).unwrap();
            (out.elapsed_s, out.joules, out.stats)
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }

    /// Scheduler work counts and steps for one bag of `leaves` identical
    /// compute leaves under a fork-join root on 16 workers.
    fn bag_work_and_steps(leaves: usize, cost: Cost) -> (RuntimeWork, u64) {
        let mut rt = runtime(16);
        let children: Vec<BoxTask<()>> = (0..leaves).map(|_| compute_leaf(cost)).collect();
        let root = fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()));
        let out = rt.run(&mut (), root).unwrap();
        (rt.work(), out.stats.steps)
    }

    /// The event core jumps the clock straight to the next event, so turns
    /// track events, not virtual time. The sparse bag runs ~0.37 virtual
    /// seconds in 18 turns; a loop that advanced in 100 µs ticks would take
    /// thousands with the same step count, which is why turns are pinned
    /// and not just steps.
    #[test]
    fn sparse_bag_takes_exact_loop_turns() {
        let (work, steps) = bag_work_and_steps(16, Cost::compute(1_000_000_000, 0.5));
        assert_eq!(steps, 35);
        assert_eq!(
            work,
            RuntimeWork {
                loop_turns: 18,
                timer_rebuilds: 1,
                source_polls: 0,
                completion_pushes: 18,
                completion_pops: 18,
                deadline_pushes: 0,
                deadline_pops: 0,
            }
        );
    }

    /// The dense 4096-leaf shape of the `flat_bag` throughput probe: one
    /// turn per leaf plus the root's fork and join.
    #[test]
    fn dense_bag_takes_exact_loop_turns() {
        let (work, steps) = bag_work_and_steps(4096, Cost::compute(100_000, 0.5));
        assert_eq!(steps, 8_195);
        assert_eq!(
            work,
            RuntimeWork {
                loop_turns: 4_098,
                timer_rebuilds: 1,
                source_polls: 0,
                completion_pushes: 4_098,
                completion_pops: 4_098,
                deadline_pushes: 0,
                deadline_pops: 0,
            }
        );
    }

    /// A fixed arrival schedule: request `i` arrives at `(i + 1) × gap_ns`
    /// as a fork-join of two memory-touching leaves (so contention re-rates
    /// running segments and leaves stale completion entries), and every
    /// third request carries a deadline shorter than its work, so deadlines
    /// fire too.
    struct FixedArrivals {
        n: u64,
        gap_ns: u64,
        emitted: u64,
        counters: ServiceCounters,
    }

    impl RequestSource for FixedArrivals {
        fn next_due_ns(&self) -> Option<u64> {
            (self.emitted < self.n).then(|| (self.emitted + 1) * self.gap_ns)
        }
        fn poll(&mut self, now_ns: u64, out: &mut Vec<ServiceInjection>) {
            while self.next_due_ns().is_some_and(|due| due <= now_ns) {
                let req_id = self.emitted;
                self.emitted += 1;
                self.counters.arrived += 1;
                self.counters.in_flight += 1;
                let leaf = TaskSpec::leaf(Cost::new(2_700_000, 200_000, 4.0, 0.5));
                let spec = TaskSpec::fork_join(vec![leaf; 2], ms_cost(1));
                let deadline_ns = (req_id % 3 == 2).then(|| now_ns + 1_000_000);
                out.push(ServiceInjection { req_id, spec, deadline_ns });
            }
        }
        fn on_complete(&mut self, _req_id: u64, _now_ns: u64, cancelled: bool) {
            self.counters.in_flight -= 1;
            if cancelled {
                self.counters.cancelled += 1;
            } else {
                self.counters.completed += 1;
            }
        }
        fn drain(&mut self, _now_ns: u64, in_flight: &[u64]) {
            self.counters.in_flight -= in_flight.len() as u64;
            self.counters.failed += in_flight.len() as u64;
        }
        fn exhausted(&self) -> bool {
            self.emitted == self.n
        }
        fn counters(&self) -> ServiceCounters {
            self.counters
        }
        fn snap_state(&self, w: &mut SnapWriter) {
            w.u64(self.emitted).expect("live state encodes");
            self.counters.codec(w).expect("live state encodes");
        }
        fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
            self.emitted = r.u64(0)?;
            self.counters = self.counters.codec(r)?;
            Ok(())
        }
    }

    /// A small service run with a 1 ms power trace: arrivals, deadline
    /// cancels and monitor fires all drive the loop, so every work count
    /// moves.
    #[test]
    fn service_run_takes_exact_work() {
        let mut rt = runtime(4);
        rt.add_monitor(Box::new(PowerTrace::new(1_000_000)));
        let source =
            FixedArrivals { n: 12, gap_ns: 1_500_000, emitted: 0, counters: Default::default() };
        let out = rt.run_service(&mut (), Box::new(source)).unwrap();
        let stats = out.stats;
        assert_eq!((stats.steps, stats.slo_violations, stats.tasks_cancelled), (56, 4, 4));
        assert_eq!(
            rt.work(),
            RuntimeWork {
                loop_turns: 65,
                timer_rebuilds: 27,
                source_polls: 12,
                completion_pushes: 32,
                completion_pops: 32,
                deadline_pushes: 4,
                deadline_pops: 4,
            }
        );
    }

    #[test]
    fn machine_clock_persists_across_runs() {
        let mut rt = runtime(2);
        rt.run(&mut (), compute_leaf(ms_cost(10))).unwrap();
        let t1 = rt.machine().now_ns();
        rt.run(&mut (), compute_leaf(ms_cost(10))).unwrap();
        assert!(rt.machine().now_ns() > t1);
    }

    /// Wake condition 1 (§IV): throttle deactivation. A monitor turns the
    /// throttle off mid-run; the spinners must rejoin and finish the bag at
    /// full width.
    #[test]
    fn spinners_wake_on_throttle_deactivation() {
        struct DeactivateAt {
            t_ns: u64,
            fired: bool,
        }
        impl crate::monitor::Monitor for DeactivateAt {
            fn next_due_ns(&self) -> Option<u64> {
                if self.fired {
                    None
                } else {
                    Some(self.t_ns)
                }
            }
            fn fire(&mut self, _m: &mut Machine, throttle: &mut ThrottleState) {
                throttle.active = false;
                self.fired = true;
            }
            fn snap_state(&self, w: &mut SnapWriter) {
                w.bool(self.fired).expect("live state encodes");
            }
            fn restore_state(
                &mut self,
                _m: &Machine,
                r: &mut SnapReader<'_>,
            ) -> Result<(), SnapError> {
                self.fired = r.bool(self.fired)?;
                Ok(())
            }
        }
        let mut rt = runtime(16);
        rt.throttle_mut().active = true;
        rt.throttle_mut().limit_per_shepherd = 2;
        // Deactivate after 40 ms; the bag is 64 x 10 ms.
        rt.add_monitor(Box::new(DeactivateAt { t_ns: 40_000_000, fired: false }));
        let children: Vec<BoxTask<()>> = (0..64).map(|_| compute_leaf(ms_cost(10))).collect();
        let root = fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()));
        let out = rt.run(&mut (), root).unwrap();
        // 4 active for 0.04 s, then 16: well under the fully-throttled time
        // of 64*10ms/4 = 0.16 s.
        assert!(out.stats.spin_entries > 0, "must have throttled first");
        assert!(out.elapsed_s < 0.12, "spinners must rejoin: {}", out.elapsed_s);
        // Duty restored on wake: entries and exits both write the register.
        assert!(out.stats.duty_writes >= 4);
    }

    /// Wake conditions 2-4: application completion and loop termination.
    /// With the throttle pinned on, spinners still get accounted and the
    /// next parallel loop still completes (the barrier wake path).
    #[test]
    fn spinners_wake_on_loop_boundaries_and_completion() {
        let mut rt = runtime(16);
        rt.throttle_mut().active = true;
        rt.throttle_mut().limit_per_shepherd = 3;
        // Two loops back to back: the first loop's termination must wake
        // spinners so they can (re)evaluate for the second.
        let mut app = vec![0u32; 120];
        let loops: Vec<BoxTask<Vec<u32>>> = (0..2)
            .map(|_| {
                parallel_for(0..120, 10, |app: &mut Vec<u32>, range, _ctx| {
                    for i in range.clone() {
                        app[i] += 1;
                    }
                    Cost::compute(27_000_000, 0.5)
                })
            })
            .collect();
        let root = crate::adapters::sequential(loops);
        let out = rt.run(&mut app, root).unwrap();
        assert!(app.iter().all(|&v| v == 2), "both loops ran fully");
        assert!(out.stats.spin_entries > 0);
        // All spin time is accounted even though the throttle never lifted
        // (application-completion wake).
        assert!(out.stats.throttled_worker_ns > 0);
    }

    /// DVFS interacts correctly with the fluid engine: the same bag at the
    /// lowest P-state takes longer by the frequency ratio (pure-compute
    /// work scales exactly with frequency).
    #[test]
    fn pstate_scales_compute_time() {
        use maestro_machine::{PState, SocketId};
        let elapsed = |pstate: PState| {
            let mut rt = runtime(8);
            for s in [SocketId(0), SocketId(1)] {
                rt.machine_mut().set_pstate(s, pstate);
            }
            let children: Vec<BoxTask<()>> = (0..32).map(|_| compute_leaf(ms_cost(10))).collect();
            let root = fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()));
            rt.run(&mut (), root).unwrap().elapsed_s
        };
        let full = elapsed(PState::MAX);
        let slow = elapsed(PState::MIN);
        let ratio = slow / full;
        let expected = PState::MAX.ghz() / PState::MIN.ghz(); // 2.25
        assert!(
            (ratio - expected).abs() < 0.05,
            "ratio {ratio} vs frequency ratio {expected}"
        );
    }

    #[test]
    fn construction_rejects_bad_configs_with_typed_errors() {
        let m = Machine::new(MachineConfig::sandybridge_2x8());
        match Runtime::new(m.clone(), RuntimeParams::qthreads(0)) {
            Err(RuntimeError::InvalidParams(ParamsError::NoWorkers)) => {}
            other => panic!("expected NoWorkers, got {:?}", other.err()),
        }
        match Runtime::new(m, RuntimeParams::qthreads(17)) {
            Err(RuntimeError::WorkersExceedCores { workers: 17, cores: 16 }) => {}
            other => panic!("expected WorkersExceedCores, got {:?}", other.err()),
        }
    }

    #[test]
    fn impossible_throttle_limit_is_a_deadlock_error_not_a_panic() {
        // With the throttle pinned on and a limit of zero, no worker can
        // ever start the root task: the scheduler must report the deadlock
        // through the result path instead of panicking.
        let mut rt = runtime(4);
        rt.throttle_mut().active = true;
        rt.throttle_mut().limit_per_shepherd = 0;
        let err = rt.run(&mut (), compute_leaf(ms_cost(1))).unwrap_err();
        match err {
            RuntimeError::Deadlock { live_tasks, total_active, .. } => {
                assert_eq!(live_tasks, 1);
                assert_eq!(total_active, 0);
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
        assert!(err.to_string().contains("deadlock"));
    }

    #[test]
    fn write_faults_force_full_duty_and_are_counted() {
        // Every duty write lands torn (a different level than requested):
        // no transaction ever verifies, the per-core breakers trip, and
        // shutdown leaves every core at FULL duty — never stuck low. A
        // spinner fails its spin entry and its shutdown restore, so its
        // breaker trips on the second run's spin entry.
        let mut rt = runtime(16);
        rt.set_actuation_faults(Some(FaultPlan::new(7).with_duty_write_torn_rate(1.0)));
        rt.throttle_mut().active = true;
        rt.throttle_mut().limit_per_shepherd = 3;
        let mut run = || {
            let children: Vec<BoxTask<()>> = (0..48).map(|_| compute_leaf(ms_cost(20))).collect();
            let root = fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()));
            rt.run(&mut (), root).unwrap()
        };
        run();
        let out = run();
        assert!(out.stats.spin_entries > 0);
        assert!(out.stats.failed_duty_applies > 0, "{:?}", out.stats);
        assert!(out.stats.breaker_trips > 0, "{:?}", out.stats);
        assert!(
            out.stats.duty_write_attempts > out.stats.duty_writes,
            "failed transactions must retry: {:?}",
            out.stats
        );
        for c in rt.machine().topology().all_cores() {
            assert_eq!(rt.machine().duty(c), DutyCycle::FULL, "core {c} left throttled");
        }
    }

    #[test]
    fn clean_writes_keep_attempts_equal_to_writes() {
        let mut rt = runtime(16);
        rt.throttle_mut().active = true;
        rt.throttle_mut().limit_per_shepherd = 3;
        let children: Vec<BoxTask<()>> = (0..48).map(|_| compute_leaf(ms_cost(20))).collect();
        let root = fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()));
        let out = rt.run(&mut (), root).unwrap();
        assert!(out.stats.duty_writes > 0);
        assert_eq!(out.stats.duty_verify_failures, 0);
        assert_eq!(out.stats.breaker_trips, 0);
        assert_eq!(out.stats.forced_duty_resets, 0);
        // The end-of-run restore also writes through the actuator, so
        // attempts = logical spin-path writes + one restore per worker.
        assert_eq!(out.stats.duty_write_attempts, out.stats.duty_writes + 16, "{:?}", out.stats);
    }

    // ------------------------------------------------------------------
    // Fault tolerance: panic isolation, cancellation, deadlines
    // ------------------------------------------------------------------

    fn assert_all_cores_full(rt: &Runtime) {
        for c in rt.machine().topology().all_cores() {
            assert_eq!(rt.machine().duty(c), DutyCycle::FULL, "core {c} left throttled");
        }
    }

    struct PanicLeaf;
    impl TaskLogic<()> for PanicLeaf {
        fn step(&mut self, _app: &mut (), _ctx: &mut TaskCtx) -> Step<()> {
            panic!("boom in task body");
        }
        fn label(&self) -> &'static str {
            "panic-leaf"
        }
    }

    struct WedgeLeaf;
    impl TaskLogic<()> for WedgeLeaf {
        fn step(&mut self, _app: &mut (), _ctx: &mut TaskCtx) -> Step<()> {
            Step::Compute(Cost::compute(WEDGE_CYCLES, 0.5))
        }
        fn label(&self) -> &'static str {
            "wedge-leaf"
        }
    }

    #[test]
    fn task_panic_is_contained_reported_and_cores_restored() {
        let mut rt = runtime(16);
        rt.throttle_mut().active = true;
        rt.throttle_mut().limit_per_shepherd = 2;
        let mut children: Vec<BoxTask<()>> = (0..16).map(|_| compute_leaf(ms_cost(10))).collect();
        children.insert(7, Box::new(PanicLeaf));
        let root = fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()));
        let err = rt.run(&mut (), root).unwrap_err();
        match &err {
            RuntimeError::TaskFailed { failure, partial } => {
                assert!(failure.message.contains("boom"), "payload text: {failure:?}");
                let leaf_label = failure.task_path.last().unwrap();
                assert!(leaf_label.contains("panic-leaf"), "task path: {:?}", failure.task_path);
                let root_label = failure.task_path.first().unwrap();
                assert!(root_label.contains("fork_join"), "task path: {:?}", failure.task_path);
                assert_eq!(partial.task_panics, 1);
                assert!(partial.tasks_cancelled > 0, "queued siblings drain as cancelled");
                assert!(partial.cancellations >= 2, "subtree + run cancel: {partial:?}");
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
        assert!(err.to_string().contains("panicked"), "{err}");
        assert!(err.partial_stats().is_some());
        assert_all_cores_full(&rt);
        // The runtime stays usable after a contained failure.
        let ok = rt.run(&mut (), compute_leaf(ms_cost(1))).unwrap();
        assert_eq!(ok.stats.tasks_completed, 1);
        assert_eq!(ok.stats.task_panics, 0);
    }

    #[test]
    fn scripted_panic_fault_fires_through_the_real_panic_path() {
        let mut rt = runtime(8);
        rt.set_task_faults(Some(FaultPlan::new(3).with_task_panic_at_steps(&[5])));
        let children: Vec<BoxTask<()>> = (0..16).map(|_| compute_leaf(ms_cost(5))).collect();
        let root = fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()));
        let err = rt.run(&mut (), root).unwrap_err();
        match err {
            RuntimeError::TaskFailed { failure, partial } => {
                assert!(failure.message.contains("injected"), "{failure:?}");
                assert_eq!(partial.task_panics, 1);
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
        assert_all_cores_full(&rt);
    }

    #[test]
    fn wedged_task_hits_wall_clock_deadline_with_partial_report() {
        let mut params = RuntimeParams::qthreads(4);
        params.deadline_ns = Some(50_000_000); // 50 ms
        let mut rt = Runtime::new(Machine::new(MachineConfig::sandybridge_2x8()), params).unwrap();
        let start = rt.machine().now_ns();
        let children: Vec<BoxTask<()>> =
            vec![compute_leaf(ms_cost(5)), Box::new(WedgeLeaf), compute_leaf(ms_cost(5))];
        let root = fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()));
        let err = rt.run(&mut (), root).unwrap_err();
        match &err {
            RuntimeError::DeadlineExceeded {
                limit: RunLimit::WallClock { deadline_ns },
                t_ns,
                partial,
            } => {
                assert_eq!(*deadline_ns, 50_000_000);
                assert_eq!(*t_ns, start + 50_000_000, "clock clamped to the deadline");
                assert!(partial.steps > 0, "partial stats: {partial:?}");
                assert!(partial.tasks_completed >= 2, "healthy siblings finished: {partial:?}");
            }
            other => panic!("expected wall-clock DeadlineExceeded, got {other:?}"),
        }
        assert!(
            rt.machine().now_ns() <= start + 50_000_000,
            "the wedge must not drag the clock past the deadline"
        );
        assert_all_cores_full(&rt);
        // The runtime stays usable; the next run gets a fresh deadline.
        rt.run(&mut (), compute_leaf(ms_cost(1))).unwrap();
    }

    #[test]
    fn scripted_wedge_fault_hits_the_deadline() {
        let mut params = RuntimeParams::qthreads(8);
        params.deadline_ns = Some(100_000_000);
        let mut rt = Runtime::new(Machine::new(MachineConfig::sandybridge_2x8()), params).unwrap();
        rt.set_task_faults(Some(FaultPlan::new(4).with_task_wedge_at_steps(&[3])));
        let children: Vec<BoxTask<()>> = (0..16).map(|_| compute_leaf(ms_cost(5))).collect();
        let root = fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()));
        let err = rt.run(&mut (), root).unwrap_err();
        assert!(
            matches!(err, RuntimeError::DeadlineExceeded { limit: RunLimit::WallClock { .. }, .. }),
            "expected DeadlineExceeded, got {err:?}"
        );
        assert_all_cores_full(&rt);
    }

    #[test]
    fn step_budget_stops_zero_cost_livelock() {
        struct Livelock;
        impl TaskLogic<()> for Livelock {
            fn step(&mut self, _app: &mut (), _ctx: &mut TaskCtx) -> Step<()> {
                Step::Compute(Cost::ZERO)
            }
        }
        let mut params = RuntimeParams::qthreads(1);
        params.step_budget = Some(500);
        let mut rt = Runtime::new(Machine::new(MachineConfig::sandybridge_2x8()), params).unwrap();
        let err = rt.run(&mut (), Box::new(Livelock)).unwrap_err();
        match err {
            RuntimeError::DeadlineExceeded { limit: RunLimit::Steps { budget }, partial, .. } => {
                assert_eq!(budget, 500);
                assert_eq!(partial.steps, 500);
            }
            other => panic!("expected step-budget DeadlineExceeded, got {other:?}"),
        }
        assert_all_cores_full(&rt);
    }

    #[test]
    fn external_cancel_token_ends_run_early_and_drains() {
        use crate::monitor::CancelAt;
        let mut rt = runtime(16);
        rt.throttle_mut().active = true;
        rt.throttle_mut().limit_per_shepherd = 2;
        let token = CancelToken::new();
        rt.add_monitor(Box::new(CancelAt::new(20_000_000, token.clone())));
        let children: Vec<BoxTask<()>> = (0..64).map(|_| compute_leaf(ms_cost(10))).collect();
        let root = fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()));
        let out = rt.run_with_cancel(&mut (), root, token).unwrap();
        assert!(out.stats.tasks_cancelled > 0, "{:?}", out.stats);
        assert!(out.stats.cancellations >= 1);
        assert!(out.value.is_none(), "cancelled root completes with no value");
        assert!(out.stats.spin_entries > 0, "throttle had bitten before the cancel");
        // Fully throttled the bag would run 64×10ms/4 = 160 ms; the cancel
        // at 20 ms cuts it to the segments already in flight.
        assert!(out.elapsed_s < 0.08, "cancel must cut the run short: {} s", out.elapsed_s);
        assert_all_cores_full(&rt);
    }

    #[test]
    fn subtree_cancel_skips_descendants_but_run_succeeds() {
        struct CancellingParent {
            phase: u8,
        }
        impl TaskLogic<Vec<u32>> for CancellingParent {
            fn step(&mut self, _app: &mut Vec<u32>, ctx: &mut TaskCtx) -> Step<Vec<u32>> {
                match self.phase {
                    0 => {
                        self.phase = 1;
                        // Cancel our own region, then spawn into it: none of
                        // the children may run.
                        ctx.cancel.cancel();
                        let children: Vec<BoxTask<Vec<u32>>> = (0..8)
                            .map(|_| {
                                leaf(|app: &mut Vec<u32>, _: &mut TaskCtx| {
                                    app.push(1);
                                    (ms_cost(1), TaskValue::none())
                                })
                            })
                            .collect();
                        Step::SpawnWait(children)
                    }
                    _ => Step::Done(TaskValue::of(0u32)),
                }
            }
            fn label(&self) -> &'static str {
                "cancelling-parent"
            }
        }
        let mut rt = runtime(8);
        let mut app: Vec<u32> = Vec::new();
        let side = leaf(|app: &mut Vec<u32>, _: &mut TaskCtx| {
            app.push(99);
            (ms_cost(1), TaskValue::of(1u32))
        });
        let root = fork_join(
            vec![Box::new(CancellingParent { phase: 0 }) as BoxTask<Vec<u32>>, side],
            |_, mut vals| {
                let delivered = vals.iter_mut().filter_map(|v| v.take::<u32>()).count();
                (Cost::ZERO, TaskValue::of(delivered))
            },
        );
        let out = rt.run(&mut app, root).unwrap();
        assert_eq!(app, vec![99], "cancelled subtree must not touch the app state");
        assert_eq!(out.stats.tasks_cancelled, 9, "8 children + the parent's resume");
        assert_eq!(out.stats.cancellations, 1);
        assert_eq!(out.value_as::<usize>(), Some(1), "only the live sibling delivers a value");
        assert_all_cores_full(&rt);
    }

    #[test]
    fn lost_wakes_are_recovered_and_counted() {
        let mut rt = runtime(16);
        rt.set_task_faults(Some(FaultPlan::new(21).with_lost_wake_rate(1.0)));
        rt.throttle_mut().active = true;
        rt.throttle_mut().limit_per_shepherd = 2;
        // Two barrier-separated loops: every wake event is swallowed, but the
        // run must still complete (active workers drain; spinner polling and
        // the forced recovery cover the wakes).
        let mut app = vec![0u32; 80];
        let loops: Vec<BoxTask<Vec<u32>>> = (0..2)
            .map(|_| {
                parallel_for(0..80, 10, |app: &mut Vec<u32>, range, _ctx| {
                    for i in range.clone() {
                        app[i] += 1;
                    }
                    Cost::compute(27_000_000, 0.5)
                })
            })
            .collect();
        let root = crate::adapters::sequential(loops);
        let out = rt.run(&mut app, root).unwrap();
        assert!(app.iter().all(|&v| v == 2), "both loops ran fully");
        assert!(out.stats.lost_wakes > 0, "{:?}", out.stats);
        assert_all_cores_full(&rt);
    }

    #[test]
    fn deadlock_partial_stats_show_forced_wake_recovery() {
        let mut rt = runtime(4);
        rt.throttle_mut().active = true;
        rt.throttle_mut().limit_per_shepherd = 0;
        let err = rt.run(&mut (), compute_leaf(ms_cost(1))).unwrap_err();
        match &err {
            RuntimeError::Deadlock { partial, .. } => {
                assert!(partial.wake_recoveries >= 1, "recovery ran before deadlock: {partial:?}");
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
        assert!(err.partial_stats().is_some());
        assert_all_cores_full(&rt);
    }

    #[test]
    fn healthy_runs_report_zero_fault_counters() {
        let mut rt = runtime(8);
        let children: Vec<BoxTask<()>> = (0..8).map(|_| compute_leaf(ms_cost(5))).collect();
        let root = fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()));
        let out = rt.run(&mut (), root).unwrap();
        assert_eq!(out.stats.task_panics, 0);
        assert_eq!(out.stats.tasks_cancelled, 0);
        assert_eq!(out.stats.cancellations, 0);
        assert_eq!(out.stats.lost_wakes, 0);
        assert_eq!(out.stats.wake_recoveries, 0);
    }

    #[test]
    fn fine_grained_tasks_pay_contention_on_shared_pool() {
        // With a steep contention slope, 16 workers on tiny tasks are slower
        // than 1 worker — the paper's untuned fibonacci behaviour.
        let elapsed = |workers: usize| {
            let params = RuntimeParams::shared_pool_omp(workers, 3000);
            let mut rt =
                Runtime::new(Machine::new(MachineConfig::sandybridge_2x8()), params).unwrap();
            let children: Vec<BoxTask<()>> =
                (0..3000).map(|_| compute_leaf(Cost::compute(600, 0.2))).collect();
            let root = fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()));
            rt.run(&mut (), root).unwrap().elapsed_s
        };
        let t1 = elapsed(1);
        let t16 = elapsed(16);
        assert!(t16 > t1, "shared-pool fine-grained: t1={t1} t16={t16}");
    }

    // ------------------------------------------------------------------
    // Whole-run snapshot / resume
    // ------------------------------------------------------------------

    /// A moderately irregular spec tree: wide fork-join of leaves plus a
    /// nested fork-join, enough to exercise queues, steals, and staged
    /// children at any suspension point.
    fn spec_tree(leaves: usize, leaf_ms: u64) -> crate::spec::TaskSpec {
        use crate::spec::TaskSpec;
        let mut children: Vec<TaskSpec> =
            (0..leaves).map(|i| TaskSpec::leaf(ms_cost(leaf_ms + (i as u64 % 3)))).collect();
        children.push(TaskSpec::fork_join(
            (0..4).map(|_| TaskSpec::leaf(ms_cost(2))).collect(),
            ms_cost(1),
        ));
        TaskSpec::fork_join(children, ms_cost(1))
    }

    fn run_unbroken(workers: usize, spec: crate::spec::TaskSpec, fence_ns: u64) -> RunOutcome {
        let mut rt = runtime(workers);
        let plan = SnapshotPlan::none().with_fence(fence_ns);
        let captured = rt.run_captured(&mut (), spec.into_task(), &plan).unwrap();
        match captured.end {
            RunEnd::Completed(out) => out,
            other => panic!("unbroken run did not complete: {other:?}"),
        }
    }

    #[test]
    fn suspend_resume_matches_unbroken_run_bitwise() {
        let spec = spec_tree(24, 5);
        let suspend_ns = 9_000_000; // mid-run, while the graph is busy
        let reference = run_unbroken(8, spec.clone(), suspend_ns);

        let mut rt = runtime(8);
        let captured = rt
            .run_captured(&mut (), spec.clone().into_task(), &SnapshotPlan::suspend_at(suspend_ns))
            .unwrap();
        let cap = match captured.end {
            RunEnd::Suspended(cap) => cap,
            other => panic!("expected suspension, got {other:?}"),
        };
        assert_eq!(cap.t_ns, suspend_ns, "fence lands the clock exactly on the suspend point");

        // Resume on a *fresh* runtime with identical configuration.
        let mut rt2 = runtime(8);
        let resumed =
            rt2.resume_captured::<()>(&mut (), &cap.bytes.to_vec(), &SnapshotPlan::none()).unwrap();
        let out = match resumed.end {
            RunEnd::Completed(out) => out,
            other => panic!("resumed run did not complete: {other:?}"),
        };

        assert_eq!(out.elapsed_s.to_bits(), reference.elapsed_s.to_bits(), "elapsed bit-exact");
        assert_eq!(out.joules.to_bits(), reference.joules.to_bits(), "energy bit-exact");
        assert_eq!(out.avg_watts.to_bits(), reference.avg_watts.to_bits());
        assert_eq!(out.stats, reference.stats, "every counter identical");
        assert_eq!(out.to_string(), reference.to_string(), "report text identical");
    }

    #[test]
    fn double_suspension_chains_losslessly() {
        // Suspend, resume, suspend again, resume again: still bit-exact
        // against the fence-matched unbroken run.
        let spec = spec_tree(16, 4);
        let (s1, s2) = (4_000_000, 11_000_000);
        let mut rt = runtime(8);
        let reference = {
            let plan = SnapshotPlan::none().with_fence(s1).with_fence(s2);
            match rt.run_captured(&mut (), spec.clone().into_task(), &plan).unwrap().end {
                RunEnd::Completed(out) => out,
                other => panic!("unbroken run did not complete: {other:?}"),
            }
        };

        let mut a = runtime(8);
        let cap1 = a
            .run_captured(&mut (), spec.clone().into_task(), &SnapshotPlan::suspend_at(s1))
            .unwrap()
            .suspended()
            .expect("first suspension");
        let mut b = runtime(8);
        // Times are run-relative: the second stop is at absolute s2.
        let cap2 = b
            .resume_captured::<()>(&mut (), &cap1.bytes.to_vec(), &SnapshotPlan::suspend_at(s2))
            .unwrap()
            .suspended()
            .expect("second suspension");
        assert_eq!(cap2.t_ns, s2);
        let mut c = runtime(8);
        let out = match c.resume_captured::<()>(&mut (), &cap2.bytes.to_vec(), &SnapshotPlan::none()) {
            Ok(CapturedRun { end: RunEnd::Completed(out), .. }) => out,
            other => panic!("final leg did not complete: {other:?}"),
        };
        assert_eq!(out.joules.to_bits(), reference.joules.to_bits());
        assert_eq!(out.stats, reference.stats);
    }

    #[test]
    fn cadence_snapshots_resume_to_identical_end() {
        // Every cadence snapshot is a valid resume point reaching the same
        // fence-matched terminal report.
        let spec = spec_tree(12, 3);
        let cadence = 5_000_000;
        let mut rt = runtime(4);
        let captured = rt
            .run_captured(&mut (), spec.clone().into_task(), &SnapshotPlan::every(cadence))
            .unwrap();
        let reference = match captured.end {
            RunEnd::Completed(out) => out,
            other => panic!("run did not complete: {other:?}"),
        };
        assert!(!captured.snapshots.is_empty(), "cadence must have fired");
        for snap in &captured.snapshots {
            let mut rt2 = runtime(4);
            // Fence-match the remainder of the cadence schedule.
            let out = match rt2
                .resume_captured::<()>(&mut (), &snap.bytes.to_vec(), &SnapshotPlan::every(cadence))
                .unwrap()
                .end
            {
                RunEnd::Completed(out) => out,
                other => panic!("resume from t={} failed: {other:?}", snap.t_ns),
            };
            assert_eq!(out.joules.to_bits(), reference.joules.to_bits(), "from t={}", snap.t_ns);
            assert_eq!(out.stats, reference.stats, "from t={}", snap.t_ns);
        }
    }

    #[test]
    fn cadence_captures_share_unchanged_pages() {
        use std::sync::Arc;
        // Twenty leaf tasks contend for four workers while a dense power trace
        // grows every capture to several pages. A page byte-equal to the
        // previous capture's page at its offset is shared, not stored
        // again. Both counts are a bit-stable work count.
        let mut rt = runtime(4);
        rt.add_monitor(Box::new(PowerTrace::new(5_000)));
        let captured = rt
            .run_captured(&mut (), spec_tree(16, 4).into_task(), &SnapshotPlan::every(1_000_000))
            .unwrap();
        assert!(matches!(captured.end, RunEnd::Completed(_)));
        let mut prev: &[Arc<[u8]>] = &[];
        let (mut total, mut fresh) = (0, 0);
        for cap in &captured.snapshots {
            let pages = cap.bytes.pages();
            total += pages.len();
            fresh += pages
                .iter()
                .enumerate()
                .filter(|&(i, page)| !prev.get(i).is_some_and(|p| Arc::ptr_eq(p, page)))
                .count();
            prev = pages;
        }
        assert_eq!((captured.snapshots.len(), total, fresh), (25, 286, 193));
    }

    #[test]
    fn closure_tasks_refuse_to_snapshot() {
        let mut rt = runtime(2);
        let children: Vec<BoxTask<()>> = (0..4).map(|_| compute_leaf(ms_cost(10))).collect();
        let root = fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()));
        let err = rt
            .run_captured(&mut (), root, &SnapshotPlan::suspend_at(1_000_000))
            .expect_err("closure tasks are not capturable");
        assert!(matches!(err, SnapError::Unsupported(_)), "got {err:?}");
    }

    #[test]
    fn staged_closure_children_refuse_to_snapshot() {
        // A capturable parent whose spawn stages 64 children; a suspension
        // 1 µs in lands inside its ~10 µs spawn segment, so the children are
        // still staged in its record. Spec children capture, closures
        // refuse.
        struct Stager {
            spec: TaskSpec,
            phase: u8,
            closures: bool,
        }
        impl TaskLogic<()> for Stager {
            fn step(&mut self, _: &mut (), _: &mut TaskCtx) -> Step<()> {
                self.phase += 1;
                if self.phase > 1 {
                    return Step::Done(TaskValue::none());
                }
                let child = |_| {
                    if self.closures {
                        compute_leaf(ms_cost(1))
                    } else {
                        TaskSpec::leaf(ms_cost(1)).into_task()
                    }
                };
                Step::SpawnWait((0..64).map(child).collect())
            }
            fn snapshot_spec(&self) -> Option<(&TaskSpec, u8)> {
                Some((&self.spec, self.phase))
            }
        }
        let suspend = |closures| {
            let spec = TaskSpec::fork_join(vec![TaskSpec::leaf(ms_cost(1)); 64], Cost::ZERO);
            let root = Box::new(Stager { spec, phase: 0, closures });
            runtime(2).run_captured(&mut (), root, &SnapshotPlan::suspend_at(1_000)).map(|r| r.end)
        };
        assert!(matches!(suspend(false), Ok(RunEnd::Suspended(_))));
        let err = suspend(true).expect_err("staged closures are not capturable");
        assert!(matches!(err, SnapError::Unsupported(_)), "got {err:?}");
    }

    #[test]
    fn restore_rejects_mismatched_configuration() {
        let spec = spec_tree(8, 3);
        let mut rt = runtime(4);
        let cap = rt
            .run_captured(&mut (), spec.into_task(), &SnapshotPlan::suspend_at(2_000_000))
            .unwrap()
            .suspended()
            .unwrap();
        // Different worker count => different fingerprint.
        let mut other = runtime(8);
        let err = other
            .resume_captured::<()>(&mut (), &cap.bytes.to_vec(), &SnapshotPlan::none())
            .expect_err("mismatched config must be rejected");
        assert!(matches!(err, SnapError::FingerprintMismatch { .. }), "got {err:?}");
    }

    #[test]
    fn restore_rejects_truncated_and_corrupt_bytes() {
        // Every monitor kind rides along, so their sections are covered too.
        let runtime = |workers| {
            let mut rt = runtime(workers);
            rt.add_monitor(Box::new(PowerTrace::new(500_000)));
            rt.add_monitor(Box::new(Watchdog::new(1_000_000, Rc::new(Cell::new(0)))));
            rt.add_monitor(Box::new(CancelAt::new(NS_PER_SEC, CancelToken::new())));
            rt
        };
        let spec = spec_tree(8, 3);
        let mut rt = runtime(4);
        let cap = rt
            .run_captured(&mut (), spec.into_task(), &SnapshotPlan::suspend_at(2_000_000))
            .unwrap()
            .suspended()
            .unwrap();
        let bytes = cap.bytes.to_vec();
        let mut rt2 = runtime(4);
        let err = rt2
            .resume_captured::<()>(&mut (), &bytes[..bytes.len() - 9], &SnapshotPlan::none())
            .expect_err("truncated snapshot must be rejected");
        assert!(matches!(err, SnapError::Truncated { .. }), "got {err:?}");

        let mut garbage = bytes.clone();
        let last = garbage.len() - 1;
        garbage[last] ^= 0xff;
        let mut rt3 = runtime(4);
        assert!(
            rt3.resume_captured::<()>(&mut (), &garbage, &SnapshotPlan::none()).is_err(),
            "trailing corruption must not pass undetected"
        );

        // Every prefix is rejected, and no single-byte flip panics — in
        // decoding or in the resumed run that follows.
        assert_rejects_corruption(&bytes, |input| {
            let plan = SnapshotPlan::suspend_at(3_000_000);
            runtime(4).resume_captured::<()>(&mut (), input, &plan).map(drop)
        });
    }

    /// Each structural check restore makes, one forged invariant at a
    /// time: resume a suspended capture into an `Exec`, break exactly one
    /// relation, re-encode it, and require restore to name that relation.
    #[test]
    fn restore_names_each_forged_invariant() {
        type Forge = fn(&mut Exec<'_, ()>);
        fn live_child<'a>(exec: &'a mut Exec<'_, ()>) -> &'a mut TaskRecord<()> {
            exec.tasks.iter_mut().flatten().find(|t| t.parent.is_some()).unwrap()
        }
        let cases: [(&str, Forge); 13] = [
            ("free-list entry is not a free slot", |exec| {
                let live = exec.tasks.iter().position(Option::is_some).unwrap();
                exec.free.push(live);
            }),
            ("free list omits a free slot", |exec| exec.tasks.push(None)),
            ("queued task id is not live", |exec| {
                let dead = exec.tasks.len();
                exec.shepherds[0].queue.push_back(dead);
            }),
            ("running task id is not live", |exec| {
                let dead = exec.tasks.len();
                let seg = exec.workers.iter_mut().find_map(|w| match w {
                    WorkerState::Running(seg) if seg.task.is_some() => Some(seg),
                    _ => None,
                });
                seg.unwrap().task = Some(dead);
            }),
            ("shepherd active count disagrees with workers", |exec| exec.shepherds[0].active += 1),
            ("task pending-children count disagrees with graph", |exec| {
                let root = exec.tasks.iter_mut().flatten().find(|t| t.parent.is_none());
                root.unwrap().pending_children += 1;
            }),
            ("task graph has multiple roots", |exec| live_child(exec).parent = None),
            ("task parent is not live", |exec| {
                let dead = exec.tasks.len();
                live_child(exec).parent = Some((dead, 0));
            }),
            ("task parent slot out of range", |exec| {
                live_child(exec).parent.as_mut().unwrap().1 = 99;
            }),
            ("task home shepherd out of range", |exec| live_child(exec).home_shepherd = 2),
            ("task inbox exceeds its child count", |exec| {
                live_child(exec).inbox.push(TaskValue::none());
            }),
            ("run-start actuation ahead of the actuator", |exec| {
                exec.rt.actuator = Actuator::new(16);
            }),
            ("cancel bookkeeping ahead of the token tree", |exec| {
                exec.run_cancel.child().cancel();
                exec.note_cancellation();
                exec.run_cancel.restore_generation(0);
            }),
        ];
        // A warm-up run first, so the captured run starts with nonzero
        // actuation tallies.
        let mut rt = runtime(4);
        rt.run(&mut (), compute_leaf(ms_cost(1))).unwrap();
        let plan = SnapshotPlan::suspend_at(2_000_000);
        let cap = rt
            .run_captured(&mut (), spec_tree(8, 3).into_task(), &plan)
            .unwrap()
            .suspended()
            .unwrap();
        let reencode = |forge: Forge| {
            let mut host = runtime(4);
            let mut exec = Exec::new(&mut host, CancelToken::new());
            exec.restore_exec(&cap.bytes.to_vec()).unwrap();
            exec.arm_capture(&SnapshotPlan::none());
            forge(&mut exec);
            exec.snapshot_bytes()
        };
        assert_eq!(reencode(|_| {}), Ok(cap.bytes.clone()), "an unforged resume re-encodes");
        for (msg, forge) in cases {
            // Checks inside the one codec body already fire on encode.
            let resumed = reencode(forge).and_then(|bytes| {
                runtime(4).resume_captured::<()>(&mut (), &bytes.to_vec(), &SnapshotPlan::none()).map(drop)
            });
            assert_eq!(resumed, Err(SnapError::Corrupt(msg)));
        }
    }

    #[test]
    fn monitors_survive_suspension() {
        // A PowerTrace keeps sampling across the suspend/resume boundary and
        // ends with the same serialized state (deadline + full sample list)
        // as the fence-matched unbroken run.
        let spec = spec_tree(10, 4);
        let suspend_ns = 6_000_000;
        let trace_state = |rt: &mut Runtime| -> Vec<u8> {
            let monitors = rt.take_monitors();
            let mut w = SnapWriter::new();
            monitors[0].snap_state(&mut w);
            w.finish()
        };

        let unbroken = {
            let mut rt = runtime(4);
            rt.add_monitor(Box::new(PowerTrace::new(1_000_000)));
            let plan = SnapshotPlan::none().with_fence(suspend_ns);
            rt.run_captured(&mut (), spec.clone().into_task(), &plan).unwrap();
            trace_state(&mut rt)
        };
        let resumed = {
            let mut rt = runtime(4);
            rt.add_monitor(Box::new(PowerTrace::new(1_000_000)));
            let cap = rt
                .run_captured(&mut (), spec.into_task(), &SnapshotPlan::suspend_at(suspend_ns))
                .unwrap()
                .suspended()
                .unwrap();
            let mut rt2 = runtime(4);
            rt2.add_monitor(Box::new(PowerTrace::new(1_000_000)));
            rt2.resume_captured::<()>(&mut (), &cap.bytes.to_vec(), &SnapshotPlan::none()).unwrap();
            trace_state(&mut rt2)
        };
        assert_eq!(unbroken, resumed, "power trace identical across the boundary");
    }
}
