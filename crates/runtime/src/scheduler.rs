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

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};

use maestro_machine::snap::{Codec, SnapError, SnapReader, SnapWriter};
use maestro_machine::{
    fingerprint, ActuationTotals, Actuator, ActuatorConfig, CoreActivity, CoreId, Cost, DutyCycle,
    FaultCursor, FaultPlan, Machine, SocketId,
};

use crate::cancel::CancelToken;
use crate::events::{key_from_time_ns, time_ns_from_key, EventQueue};
use crate::monitor::{Monitor, ThrottleState};
use crate::params::{ParamsError, RuntimeParams};
use crate::report::{RunOutcome, RunStats};
use crate::service::{RequestSource, ServiceInjection};
use crate::spec::{SpecTask, TaskSpec};
use crate::task::{BoxTask, Step, TaskCtx, TaskValue};

type TaskId = usize;

/// Completion tolerance, in nanoseconds of virtual time: a segment whose
/// absolute completion time is within this of the clock is due. The clock
/// lands on completions via `ceil`, so this only absorbs float dust from
/// the rate arithmetic — it must stay well under 1 ns so no later distinct
/// event can be swallowed.
const EPS_NS: f64 = 0.5;

/// The compute charge of an injected task wedge: large enough that the
/// segment never completes within any realistic deadline (~54 years of
/// virtual time at 2.7 GHz), so only the run deadline or step budget can
/// end the run. Wedge faults should always be paired with one of the two.
const WEDGE_CYCLES: u64 = 1 << 62;

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
    /// [`RuntimeParams::deadline_ns`].
    WallClock {
        /// The configured deadline, nanoseconds from run start.
        deadline_ns: u64,
    },
    /// The step budget from [`RuntimeParams::step_budget`].
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
/// driven every core back to [`DutyCycle::FULL`].
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
    fn with_partial(mut self, stats: RunStats) -> Self {
        match &mut self {
            RuntimeError::Deadlock { partial, .. }
            | RuntimeError::TaskFailed { partial, .. }
            | RuntimeError::DeadlineExceeded { partial, .. }
            | RuntimeError::Internal { partial, .. } => **partial = stats,
            RuntimeError::InvalidParams(_) | RuntimeError::WorkersExceedCores { .. } => {}
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
fn internal(detail: &'static str, t_ns: u64) -> RuntimeError {
    RuntimeError::Internal { detail, t_ns, partial: Box::default() }
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

// ----------------------------------------------------------------------
// Whole-run snapshot capture
// ----------------------------------------------------------------------

/// When a captured run takes snapshots and when (if ever) it suspends.
///
/// All times are virtual nanoseconds **relative to the run's start** (the
/// machine clock persists across runs, so absolute times depend on history).
/// Every fence — cadence tick, suspension point, or extra fence — clamps the
/// event loop's time advance so the virtual clock lands on it exactly.
/// Because the machine integrates power in fixed substeps *relative to each
/// `advance` call*, two runs are byte-identical only when they use the same
/// fence set; [`SnapshotPlan::extra_fences_ns`] exists precisely so an
/// unbroken reference run can mirror a suspended run's stopping point.
#[derive(Clone, Debug, Default)]
pub struct SnapshotPlan {
    /// Capture a snapshot every this many virtual nanoseconds (the first at
    /// `run_start + cadence`). `None` or zero disables periodic capture.
    pub cadence_ns: Option<u64>,
    /// Suspend the run at this virtual time, capturing a final snapshot and
    /// returning [`RunEnd::Suspended`] instead of running to completion.
    pub suspend_at_ns: Option<u64>,
    /// Additional advance fences that clamp the clock but capture nothing —
    /// used by an unbroken run to fence-match a suspended/resumed one.
    pub extra_fences_ns: Vec<u64>,
}

impl SnapshotPlan {
    /// No snapshots, no suspension: plain execution under capture plumbing.
    pub fn none() -> Self {
        SnapshotPlan::default()
    }

    /// Snapshot every `cadence_ns` of virtual time.
    pub fn every(cadence_ns: u64) -> Self {
        SnapshotPlan { cadence_ns: Some(cadence_ns), ..SnapshotPlan::default() }
    }

    /// Suspend (with a final capture) at `t_ns` after run start.
    pub fn suspend_at(t_ns: u64) -> Self {
        SnapshotPlan { suspend_at_ns: Some(t_ns), ..SnapshotPlan::default() }
    }

    /// Add a capture-free advance fence at `t_ns` after run start.
    pub fn with_fence(mut self, t_ns: u64) -> Self {
        self.extra_fences_ns.push(t_ns);
        self
    }
}

/// One whole-run snapshot: the serialized bytes and when they were taken.
#[derive(Clone, Debug)]
pub struct RunCapture {
    /// Absolute virtual time of the capture, nanoseconds.
    pub t_ns: u64,
    /// The versioned snapshot bytes (see `maestro_machine::snap`).
    pub bytes: Vec<u8>,
}

/// How a captured run ended.
#[derive(Debug)]
pub enum RunEnd {
    /// The root task finished; the outcome is measured from the *original*
    /// run start (a resumed run reports exactly like an unbroken one).
    Completed(RunOutcome),
    /// The run reached its [`SnapshotPlan::suspend_at_ns`] fence and parked;
    /// feed the capture to [`Runtime::resume_captured`] to continue it.
    Suspended(RunCapture),
    /// The run failed mid-flight (panic, deadlock, deadline). Cadence
    /// snapshots taken before the failure are still returned — they are the
    /// time-travel entry points for triage.
    Failed(RuntimeError),
}

/// The result of a captured run: how it ended plus every cadence snapshot.
#[derive(Debug)]
pub struct CapturedRun {
    /// Completion, suspension, or failure.
    pub end: RunEnd,
    /// Cadence snapshots in capture order (excludes the suspension capture).
    pub snapshots: Vec<RunCapture>,
}

impl CapturedRun {
    /// The completed outcome, or `None` for suspended/failed runs.
    pub fn outcome(self) -> Option<RunOutcome> {
        match self.end {
            RunEnd::Completed(o) => Some(o),
            _ => None,
        }
    }

    /// The suspension capture, or `None` when the run did not suspend.
    pub fn suspended(self) -> Option<RunCapture> {
        match self.end {
            RunEnd::Suspended(c) => Some(c),
            _ => None,
        }
    }
}

/// Live fence/capture bookkeeping for one captured run.
struct CaptureCtl {
    /// Config fingerprint stamped into every snapshot header.
    fingerprint: u64,
    cadence_ns: Option<u64>,
    /// Absolute time of the next cadence capture (`u64::MAX` when disabled).
    next_cadence_abs: u64,
    suspend_at_abs: Option<u64>,
    /// Absolute capture-free fences, sorted ascending.
    extra_fences: VecDeque<u64>,
    snapshots: Vec<RunCapture>,
    suspended: Option<RunCapture>,
    /// First serialization failure; surfaced after teardown.
    error: Option<SnapError>,
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

/// Fallible task lookup: a missing record is an internal-invariant error,
/// not a panic. Free functions (not methods) so callers can hold other
/// borrows of `Exec` fields.
fn task_mut<'a, C>(
    tasks: &'a mut [Option<TaskRecord<C>>],
    id: TaskId,
    what: &'static str,
    t_ns: u64,
) -> Result<&'a mut TaskRecord<C>, RuntimeError> {
    tasks.get_mut(id).and_then(Option::as_mut).ok_or_else(|| internal(what, t_ns))
}

fn task_ref<'a, C>(
    tasks: &'a [Option<TaskRecord<C>>],
    id: TaskId,
    what: &'static str,
    t_ns: u64,
) -> Result<&'a TaskRecord<C>, RuntimeError> {
    tasks.get(id).and_then(Option::as_ref).ok_or_else(|| internal(what, t_ns))
}

#[derive(Default)]
struct Segment {
    /// `None` marks a fixed-rate transition (duty-register write).
    task: Option<TaskId>,
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
    completion_abs: f64,
}

impl Segment {
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

enum WorkerState {
    Idle,
    Spinning { epoch_seen: u64, since_ns: u64 },
    Running(Segment),
}

struct Shepherd {
    queue: VecDeque<TaskId>,
    active: usize,
}

/// A request the scheduler currently has in flight for a service run.
struct LiveRequest {
    /// Root task of the request's tree.
    task: TaskId,
    /// Absolute deadline, consumed (set to `None`) once it fires so a
    /// resumed run never re-fires it.
    deadline_ns: Option<u64>,
}

/// Scheduler-side state of a service run: the request source plus the
/// injected-request bookkeeping the event loop consults.
struct ServiceCtl {
    source: Box<dyn RequestSource>,
    /// Live requests by id (BTreeMap: snapshot iteration must be ordered).
    live: BTreeMap<u64, LiveRequest>,
    /// Request-root task → request id, for completion interception.
    task_req: BTreeMap<TaskId, u64>,
    /// Unfired deadlines, earliest first.
    deadlines: BTreeSet<(u64, u64)>,
    /// Round-robin injection cursor over shepherds.
    next_shep: usize,
}

impl ServiceCtl {
    fn new(source: Box<dyn RequestSource>) -> Self {
        ServiceCtl {
            source,
            live: BTreeMap::new(),
            task_req: BTreeMap::new(),
            deadlines: BTreeSet::new(),
            next_shep: 0,
        }
    }
}

/// The runtime block decoded by `Runtime::state_codec`.
struct RuntimeState {
    machine: Option<Machine>,
    actuator: Option<Actuator>,
    task_faults: Option<FaultCursor>,
    throttled: bool,
}

/// One live task record as decoded by `TaskRecord::codec`: plain data,
/// with task logic as a spec plus the phase it is parked at.
struct TaskSnap {
    spec: TaskSpec,
    phase: u8,
    parent: Option<(TaskId, usize)>,
    home_shepherd: usize,
    pending_children: usize,
    inbox_len: usize,
    resume_pending: bool,
    staged: Vec<(TaskSpec, u8)>,
    cancelled: bool,
}

/// The reader's placeholder record (see [`Codec`]): no logic, no links.
impl<C> Default for TaskRecord<C> {
    fn default() -> Self {
        TaskRecord {
            logic: None,
            parent: None,
            home_shepherd: 0,
            pending_children: 0,
            inbox: Vec::new(),
            resume_pending: false,
            staged_children: Vec::new(),
            cancel: CancelToken::new(),
        }
    }
}

impl<C> TaskRecord<C> {
    /// The snapshot codec for one live record; `shepherds` bounds its home.
    /// Task logic travels as its spec and phase: the writer's capture step
    /// asks the live logic (and each staged child) for them, and fails with
    /// a typed error for closure-based logic or an inbox holding opaque
    /// values. The reader's placeholder has no logic to ask; decoding yields
    /// the record's plain-data form (`None` on the writer).
    fn codec<K: Codec>(&self, c: &mut K, shepherds: usize) -> Result<Option<TaskSnap>, SnapError> {
        let closure = SnapError::Unsupported("run contains a non-snapshottable (closure) task");
        let (spec, phase) = match &self.logic {
            Some(logic) => logic.snapshot_spec().ok_or(closure.clone())?,
            None if K::DECODING => Default::default(),
            None => return Err(SnapError::Unsupported("task logic absent at capture point")),
        };
        // Spec tasks complete with empty values, so a parked inbox is
        // fully described by its length; anything else is opaque.
        if self.inbox.iter().any(|v| !v.is_none()) {
            return Err(SnapError::Unsupported("task inbox holds opaque values"));
        }
        let staged: Vec<(TaskSpec, u8)> = self
            .staged_children
            .iter()
            .map(|child| child.snapshot_spec().ok_or(closure.clone()))
            .collect::<Result<_, _>>()?;
        let spec = spec.codec(c)?;
        let phase = c.u8(phase)?;
        let parent = c.opt(self.parent.as_ref(), |c, &(p, s)| {
            Ok((c.u64(p as u64)? as usize, c.u64(s as u64)? as usize))
        })?;
        let home_shepherd = c.u64(self.home_shepherd as u64)? as usize;
        if home_shepherd >= shepherds {
            return Err(SnapError::Corrupt("task home shepherd out of range"));
        }
        let pending_children = c.u64(self.pending_children as u64)? as usize;
        let inbox_len = c.u64(self.inbox.len() as u64)? as usize;
        if inbox_len > (1 << 24) {
            return Err(SnapError::Corrupt("task inbox absurdly large"));
        }
        let resume_pending = c.bool(self.resume_pending)?;
        let staged = c.seq(&staged, |c, (s, p)| Ok((s.codec(c)?, c.u8(*p)?)))?;
        let cancelled = c.bool(self.cancel.local_flag())?;
        Ok(K::DECODING.then_some(TaskSnap {
            spec,
            phase,
            parent,
            home_shepherd,
            pending_children,
            inbox_len,
            resume_pending,
            staged,
            cancelled,
        }))
    }
}

/// A service run's section decoded by `Exec::codec`.
struct ServiceSnap {
    next_shep: usize,
    /// `(request id, root task, unfired deadline)` in request-id order.
    live: Vec<(u64, TaskId, Option<u64>)>,
    /// The request source's framed state.
    source: Vec<u8>,
}

/// A whole captured run decoded by `Exec::codec`.
struct ExecState {
    run_start_ns: u64,
    run_start_j: f64,
    rt: RuntimeState,
    run_cancelled: bool,
    cancel_generation: u64,
    last_cancel_gen: u64,
    draining: bool,
    deadline_abs_ns: Option<u64>,
    wake_epoch: u64,
    failure: Option<TaskFailure>,
    stats: RunStats,
    start_actuation: ActuationTotals,
    pending_overhead_ns: Vec<f64>,
    tasks: Vec<Option<TaskSnap>>,
    free: Vec<TaskId>,
    shepherds: Vec<(Vec<TaskId>, usize)>,
    workers: Vec<WorkerState>,
    monitors: Vec<Vec<u8>>,
    service: Option<ServiceSnap>,
}

/// The snapshot codec for one worker's state. Snapshots serialize
/// barrier-folded remaining work; a running segment's rates and completion
/// time are re-derived at restore, folded from the restored `clock_ns`.
fn worker_codec<K: Codec>(
    c: &mut K,
    w: &WorkerState,
    clock_ns: u64,
) -> Result<WorkerState, SnapError> {
    let blank = Segment::default();
    let (tag, epoch_seen, since_ns, seg) = match w {
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
        2 => Ok(WorkerState::Running(Segment {
            task: c.opt_u64(seg.task.map(|t| t as u64))?.map(|t| t as usize),
            cpu_rem_ns: c.f64(seg.cpu_rem_ns)?,
            mem_rem_ns: c.f64(seg.mem_rem_ns)?,
            spin_epoch: c.u64(seg.spin_epoch)?,
            fold_ns: clock_ns,
            speed: 1.0,
            phi: 1.0,
            completion_abs: 0.0,
        })),
        _ => Err(SnapError::Corrupt("unknown worker state tag")),
    }
}

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
    /// Event-loop iterations across every run — a host-side work count,
    /// kept out of [`RunStats`] and every snapshot so it never moves a
    /// report or digest.
    loop_turns: u64,
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
        let actuator = Actuator::new(cores, ActuatorConfig::default());
        Ok(Runtime {
            machine,
            params,
            monitors: Vec::new(),
            throttle: ThrottleState::new(default_limit),
            actuator,
            task_faults: None,
            loop_turns: 0,
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

    /// Mutable actuator access (e.g. to reset a tripped breaker).
    pub fn actuator_mut(&mut self) -> &mut Actuator {
        &mut self.actuator
    }

    /// Inject (or clear) duty-write faults for subsequent runs.
    pub fn set_actuation_faults(&mut self, faults: Option<FaultPlan>) {
        self.actuator.set_faults(faults);
    }

    /// Scheduler event-loop iterations run so far, summed over every run
    /// (resumed runs included). Each turn ends in at most one clock
    /// advance, so unlike `RunStats::steps` it exposes a loop that crawls
    /// through virtual time in small ticks.
    pub fn loop_turns(&self) -> u64 {
        self.loop_turns
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

    /// Serialize the runtime's between-runs state: machine, actuator, task
    /// fault cursor, throttle flag, and every monitor. This is the warm-state
    /// snapshot for fork-style sweeps — capture once after warm-up, restore
    /// into N runtimes whose configs differ only in policy knobs, and run a
    /// variant in each. For capturing *mid-run* state use
    /// [`Runtime::run_captured`].
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.header(self.config_fingerprint());
        self.state_codec(&mut w).expect("live state encodes");
        self.monitors_codec(&mut w).expect("live state encodes");
        w.finish()
    }

    /// Restore state captured by [`Runtime::snapshot`] into this runtime.
    /// The static configuration must match the captured one (fingerprint
    /// check); monitors are restored in registration order.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes);
        r.header(self.config_fingerprint())?;
        let st = self.state_codec(&mut r)?;
        let monitors = self.monitors_codec(&mut r)?;
        r.finish()?;
        self.install(st, monitors)
    }

    /// The runtime block's snapshot codec (see [`Codec`]): machine,
    /// actuator, task-fault cursor, and the throttle flag (the limit is
    /// configuration).
    fn state_codec<K: Codec>(&self, c: &mut K) -> Result<RuntimeState, SnapError> {
        Ok(RuntimeState {
            machine: self.machine.codec(c)?,
            actuator: self.actuator.codec(c)?,
            task_faults: FaultPlan::cursor_codec(self.task_faults.as_ref(), c)?,
            throttled: c.bool(self.throttle.active)?,
        })
    }

    /// Every monitor, each framed so restore can verify full consumption of
    /// its section. Decoding yields the sections for [`Runtime::install`].
    fn monitors_codec<K: Codec>(&self, c: &mut K) -> Result<Vec<Vec<u8>>, SnapError> {
        c.seq_fixed(&self.monitors, "monitor count mismatch", |c, m| c.framed(|w| m.snap_state(w)))
    }

    /// Install decoded runtime state, then restore every monitor from its
    /// section, in registration order, against the installed machine.
    fn install(&mut self, st: RuntimeState, monitors: Vec<Vec<u8>>) -> Result<(), SnapError> {
        if let (Some(machine), Some(actuator)) = (st.machine, st.actuator) {
            self.machine = machine;
            self.actuator = actuator;
        }
        FaultPlan::install_cursor(self.task_faults.as_ref(), st.task_faults);
        self.throttle.active = st.throttled;
        for (m, section) in self.monitors.iter_mut().zip(&monitors) {
            let mut r = SnapReader::new(section);
            m.restore_state(&self.machine, &mut r)?;
            r.finish()?;
        }
        Ok(())
    }

    /// Like [`Runtime::run`], but under a [`SnapshotPlan`]: the run captures
    /// whole-run snapshots at the plan's cadence, suspends at its suspension
    /// fence, and clamps the clock at every fence so a fence-matched pair of
    /// runs advances time identically. Returns `Err` only when the run state
    /// could not be serialized (e.g. a closure-based task); run failures are
    /// reported through [`RunEnd::Failed`] so pre-failure snapshots survive.
    pub fn run_captured<C>(
        &mut self,
        app: &mut C,
        root: BoxTask<C>,
        plan: &SnapshotPlan,
    ) -> Result<CapturedRun, SnapError> {
        let mut exec = Exec::new(self, CancelToken::new());
        exec.arm_capture(plan);
        exec.run_to_capture(app, Some(root))
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
        let mut exec = Exec::new(self, CancelToken::new());
        exec.restore_exec(bytes)?;
        exec.arm_capture(plan);
        exec.run_to_capture(app, None)
    }

    /// Execute `root` against `app` until it completes. Fails with
    /// [`RuntimeError::Deadlock`] if the task graph can never finish (e.g. a
    /// parent waiting on children that were never released), with
    /// [`RuntimeError::TaskFailed`] if a task step panics, and with
    /// [`RuntimeError::DeadlineExceeded`] if the run outlives the configured
    /// deadline or step budget. Every error path restores all cores to full
    /// duty before returning.
    pub fn run<C>(&mut self, app: &mut C, root: BoxTask<C>) -> Result<RunOutcome, RuntimeError> {
        self.run_with_cancel(app, root, CancelToken::new())
    }

    /// Like [`Runtime::run`], but under an externally held [`CancelToken`]:
    /// cancelling `cancel` (from a monitor or a cloned handle) ends the run
    /// early at the next yield point, completing the remaining tasks as
    /// cancelled and returning a successful outcome with partial values.
    pub fn run_with_cancel<C>(
        &mut self,
        app: &mut C,
        root: BoxTask<C>,
        cancel: CancelToken,
    ) -> Result<RunOutcome, RuntimeError> {
        Exec::new(self, cancel).run(app, Some(root))
    }

    /// Execute an open-loop *service* run: there is no root task — `source`
    /// injects request task trees as virtual time advances, the scheduler
    /// cancels requests whose deadlines pass, and the run completes once
    /// the source is exhausted and every injected request has settled.
    /// Errors behave exactly like [`Runtime::run`]'s, with the addition
    /// that in-flight requests are drained into the source's accounting
    /// before the error is returned.
    pub fn run_service<C: 'static>(
        &mut self,
        app: &mut C,
        source: Box<dyn RequestSource>,
    ) -> Result<RunOutcome, RuntimeError> {
        let mut exec = Exec::new(self, CancelToken::new());
        exec.service = Some(ServiceCtl::new(source));
        exec.spawn_spec = Some(spawn_spec_task::<C>);
        exec.run(app, None)
    }

    /// Like [`Runtime::run_service`], but under a [`SnapshotPlan`] — the
    /// service analogue of [`Runtime::run_captured`]. Request sources are
    /// spec-driven by construction, so service runs are always
    /// snapshottable.
    pub fn run_service_captured<C: 'static>(
        &mut self,
        app: &mut C,
        source: Box<dyn RequestSource>,
        plan: &SnapshotPlan,
    ) -> Result<CapturedRun, SnapError> {
        let mut exec = Exec::new(self, CancelToken::new());
        exec.service = Some(ServiceCtl::new(source));
        exec.spawn_spec = Some(spawn_spec_task::<C>);
        exec.arm_capture(plan);
        exec.run_to_capture(app, None)
    }

    /// Resume a suspended service run. `source` must be a freshly built
    /// source with the *same configuration* the suspended run used; its
    /// dynamic state (RNG cursors, retry queue, admission state,
    /// histograms) is restored from the snapshot.
    pub fn resume_service_captured<C: 'static>(
        &mut self,
        app: &mut C,
        source: Box<dyn RequestSource>,
        bytes: &[u8],
        plan: &SnapshotPlan,
    ) -> Result<CapturedRun, SnapError> {
        let mut exec = Exec::new(self, CancelToken::new());
        exec.service = Some(ServiceCtl::new(source));
        exec.spawn_spec = Some(spawn_spec_task::<C>);
        exec.restore_exec(bytes)?;
        exec.arm_capture(plan);
        exec.run_to_capture(app, None)
    }
}

/// Monomorphized spec-task constructor stored in `Exec::spawn_spec`, so the
/// (unbounded) event loop can inject request trees for any `C` the service
/// entry points were instantiated with.
fn spawn_spec_task<C: 'static>(spec: TaskSpec) -> BoxTask<C> {
    spec.into_task()
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

/// Per-run execution state, borrowing the runtime.
///
/// Teardown (restoring every core to full duty) runs on every exit path:
/// normal completion, every mid-run error, and — via the [`Drop`] backstop —
/// even an unwind crossing this frame. No failure leaks a throttled core.
struct Exec<'r, C> {
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
    /// Residual dispatch overhead per worker, folded into the next segment.
    pending_overhead_ns: Vec<f64>,
    wake_epoch: u64,
    root_value: Option<TaskValue>,
    stats: RunStats,
    /// The run-scoped cancellation root; every task token descends from it.
    run_cancel: CancelToken,
    /// Last observed token-tree generation, for cheap change detection.
    last_cancel_gen: u64,
    /// The run itself was cancelled: bypass the throttle and complete all
    /// remaining tasks as cancelled so the graph drains quickly.
    draining: bool,
    /// First contained task panic, reported once the graph has drained.
    failure: Option<TaskFailure>,
    /// Absolute virtual-time deadline for this run, if configured.
    deadline_abs_ns: Option<u64>,
    /// Actuator tallies at run start, for delta accounting in teardown.
    start_actuation: ActuationTotals,
    /// Virtual time the run started (for a resumed run, the *original*
    /// start restored from the snapshot), for elapsed-time reporting.
    run_start_ns: u64,
    /// Node energy at run start, Joules (restored on resume).
    run_start_j: f64,
    /// Snapshot fences and captures; `None` for plain (uncaptured) runs.
    capture: Option<CaptureCtl>,
    /// Service-run state; `None` for batch (rooted) runs.
    service: Option<ServiceCtl>,
    /// Spec-task constructor, monomorphized where `C: 'static` is known
    /// (the service entry points) so the unbounded event loop can inject
    /// request trees without carrying the bound itself.
    spawn_spec: Option<fn(TaskSpec) -> BoxTask<C>>,
    /// Injection scratch buffer handed to `RequestSource::poll`.
    injection_scratch: Vec<ServiceInjection>,
    torn_down: bool,
}

impl<'r, C> Exec<'r, C> {
    fn new(rt: &'r mut Runtime, cancel: CancelToken) -> Self {
        let n_workers = rt.params.workers;
        let sockets = rt.machine.topology().sockets as usize;
        let shepherds = (0..sockets)
            .map(|_| Shepherd { queue: VecDeque::new(), active: 0 })
            .collect();
        let start_actuation = rt.actuator.totals();
        let draining = cancel.is_cancelled();
        let last_cancel_gen = cancel.generation();
        let run_start_ns = rt.machine.now_ns();
        let run_start_j = rt.machine.total_energy_joules();
        let deadline_abs_ns = rt.params.deadline_ns.map(|d| run_start_ns.saturating_add(d));
        let worker_core: Vec<CoreId> =
            (0..n_workers).map(|w| placement_core(&rt.machine, w)).collect();
        let worker_shep: Vec<usize> = worker_core
            .iter()
            .map(|&c| rt.machine.topology().socket_of(c).index())
            .collect();
        let mut timers = EventQueue::new();
        for (i, m) in rt.monitors.iter().enumerate() {
            if let Some(due) = m.next_due_ns() {
                timers.insert(due, i as u32, 0);
            }
        }
        let phi_seen: Vec<f64> =
            (0..sockets).map(|s| rt.machine.contention_factor(SocketId(s as u8))).collect();
        let knob_epoch_seen = rt.machine.knob_epoch();
        Exec {
            rt,
            tasks: Vec::new(),
            free: Vec::new(),
            live_tasks: 0,
            shepherds,
            workers: (0..n_workers).map(|_| WorkerState::Idle).collect(),
            active_total: 0,
            spinner_count: 0,
            running_count: 0,
            completions: EventQueue::new(),
            seg_gen: vec![0; n_workers],
            timers,
            fresh_segments: Vec::new(),
            due_scratch: Vec::new(),
            queued_total: 0,
            // Force-stale: the first loop iteration always runs a dispatch
            // pass (it has the root task queued anyway).
            wake_epoch_seen: 1,
            knob_epoch_seen,
            dilation_seen: 1.0,
            phi_seen,
            worker_core,
            worker_shep,
            inbox_pool: Vec::new(),
            child_pool: Vec::new(),
            pending_overhead_ns: vec![0.0; n_workers],
            wake_epoch: 0,
            root_value: None,
            stats: RunStats::default(),
            run_cancel: cancel,
            last_cancel_gen,
            draining,
            failure: None,
            deadline_abs_ns,
            start_actuation,
            run_start_ns,
            run_start_j,
            capture: None,
            service: None,
            spawn_spec: None,
            injection_scratch: Vec::new(),
            torn_down: false,
        }
    }

    fn core_of(&self, worker: usize) -> CoreId {
        self.worker_core[worker]
    }

    fn shepherd_of(&self, worker: usize) -> usize {
        self.worker_shep[worker]
    }

    fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 / self.rt.machine.config().freq_ghz
    }

    fn alloc_task(&mut self, mut record: TaskRecord<C>) -> TaskId {
        self.live_tasks += 1;
        self.stats.peak_live_tasks = self.stats.peak_live_tasks.max(self.live_tasks);
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

    fn total_active(&self) -> usize {
        #[cfg(maestro_verify)]
        assert_eq!(
            self.active_total,
            self.shepherds.iter().map(|s| s.active).sum::<usize>(),
            "active_total counter diverged from the per-shepherd scan"
        );
        self.active_total
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

    /// Drive an uncaptured run to completion: from `root`, or a rootless
    /// service run (whose `service` and `spawn_spec` the caller installed)
    /// with `None`.
    fn run(mut self, app: &mut C, root: Option<BoxTask<C>>) -> Result<RunOutcome, RuntimeError> {
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
        match result {
            Ok(LoopEnd::Finished(value)) => {
                let elapsed_s = (now - self.run_start_ns) as f64 * 1e-9;
                let joules = self.rt.machine.total_energy_joules() - self.run_start_j;
                Ok(RunOutcome {
                    value,
                    elapsed_s,
                    joules,
                    avg_watts: if elapsed_s > 0.0 { joules / elapsed_s } else { 0.0 },
                    stats: self.stats,
                })
            }
            Ok(LoopEnd::Suspended) => {
                Err(internal("suspension without a capture plan", now).with_partial(self.stats))
            }
            Err(e) => Err(e.with_partial(self.stats)),
        }
    }

    fn run_loop(&mut self, app: &mut C, root: BoxTask<C>) -> Result<LoopEnd, RuntimeError> {
        let root_shep = self.shepherd_of(0);
        let root_token = self.run_cancel.child();
        let root_id = self.alloc_task(TaskRecord {
            logic: Some(root),
            parent: None,
            home_shepherd: root_shep,
            pending_children: 0,
            inbox: Vec::new(),
            resume_pending: false,
            staged_children: Vec::new(),
            cancel: root_token,
        });
        self.shepherds[root_shep].queue.push_back(root_id);
        self.queued_total += 1;
        self.loop_body(app)
    }

    /// The scheduler event loop, entered after the task graph exists —
    /// directly by a resumed run (whose graph comes from the snapshot).
    fn loop_body(&mut self, app: &mut C) -> Result<LoopEnd, RuntimeError> {
        while self.root_value.is_none() {
            self.rt.loop_turns += 1;
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
                    self.stats.wake_recoveries += 1;
                    self.wake_epoch += 1;
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

        if let Some(failure) = self.failure.take() {
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
        if let (Some(abs), Some(cfg)) = (self.deadline_abs_ns, self.rt.params.deadline_ns) {
            if now >= abs {
                return Err(RuntimeError::DeadlineExceeded {
                    limit: RunLimit::WallClock { deadline_ns: cfg },
                    t_ns: now,
                    partial: Box::default(),
                });
            }
        }
        if let Some(budget) = self.rt.params.step_budget {
            if self.stats.steps >= budget {
                return Err(RuntimeError::DeadlineExceeded {
                    limit: RunLimit::Steps { budget },
                    t_ns: now,
                    partial: Box::default(),
                });
            }
        }
        Ok(())
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
                self.stats.throttled_worker_ns += now - since_ns;
            }
            self.set_worker(w, WorkerState::Idle);
        }
        self.restore_cores();

        let end_actuation = self.rt.actuator.totals();
        self.stats.duty_write_attempts = end_actuation.attempts - self.start_actuation.attempts;
        self.stats.duty_verify_failures =
            end_actuation.verify_failures - self.start_actuation.verify_failures;
        self.stats.failed_duty_applies =
            end_actuation.failed_applies - self.start_actuation.failed_applies;
        self.stats.forced_duty_resets =
            end_actuation.forced_resets - self.start_actuation.forced_resets;
        self.stats.breaker_trips = end_actuation.breaker_trips - self.start_actuation.breaker_trips;
    }

    fn restore_cores(&mut self) {
        for w in 0..self.workers.len() {
            let core = self.core_of(w);
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
                self.stats.monitor_fires += 1;
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
    /// rebuilt after each fire pass and on restore, the only two points
    /// where due times are allowed to change.
    fn rebuild_timers(&mut self) {
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

    /// Every running segment with its worker index, in worker order — the
    /// linear scan the `maestro_verify` cross-checks hold the completion
    /// queue to.
    #[cfg(maestro_verify)]
    fn running_segments(&self) -> impl Iterator<Item = (usize, &Segment)> {
        self.workers.iter().enumerate().filter_map(|(w, state)| match state {
            WorkerState::Running(seg) => Some((w, seg)),
            _ => None,
        })
    }

    /// Bump the wake epoch so every spinner re-evaluates — unless an
    /// injected lost-wake fault swallows the event (the run_loop's forced
    /// recovery and spinner polling then cover for it).
    fn wake_spinners(&mut self) {
        if let Some(plan) = &self.rt.task_faults {
            if plan.lose_wake() {
                self.stats.lost_wakes += 1;
                return;
            }
        }
        self.wake_epoch += 1;
    }

    /// Observe cancel events on the run's token tree. Any new cancel wakes
    /// spinners (the fifth wake condition, beyond the paper's four); a
    /// cancel of the run scope itself switches the scheduler into draining
    /// mode, where the throttle no longer gates dispatch and every task
    /// completes as cancelled at its next yield point.
    fn note_cancellation(&mut self) {
        let generation = self.run_cancel.generation();
        if generation != self.last_cancel_gen {
            self.stats.cancellations += generation - self.last_cancel_gen;
            self.last_cancel_gen = generation;
            if !self.draining && self.run_cancel.is_cancelled() {
                self.draining = true;
            }
            self.wake_spinners();
        }
    }

    // ------------------------------------------------------------------
    // Service runs (open-loop request injection)
    // ------------------------------------------------------------------

    /// The earliest service event the clock must not jump past: the
    /// source's next arrival/retry, or the earliest unfired request
    /// deadline. While draining the source is never polled again, so its
    /// due time is excluded (a stale retry deadline must not pin the
    /// clock).
    fn service_due(&self) -> Option<u64> {
        let svc = self.service.as_ref()?;
        let src = if self.draining { None } else { svc.source.next_due_ns() };
        let dl = svc.deadlines.first().map(|&(d, _)| d);
        match (src, dl) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// One service turn: fire due request deadlines (cancelling the
    /// affected request subtrees), then poll the source for due arrivals
    /// and retries and inject every emitted request as a parentless task
    /// tree. No-op for batch runs.
    fn service_pass(&mut self) -> Result<(), RuntimeError> {
        if self.service.is_none() {
            return Ok(());
        }
        let now = self.rt.machine.now_ns();

        // Deadlines first: a request whose deadline passed must be
        // cancelled before any new work is admitted at this instant. The
        // entry is consumed (deadline set to `None`) as it fires, so a
        // snapshot taken after the fire never re-fires it on resume.
        loop {
            let draining = self.draining;
            let Some(svc) = self.service.as_mut() else { break };
            let Some(&(due, req_id)) = svc.deadlines.first() else { break };
            if due > now {
                break;
            }
            svc.deadlines.pop_first();
            let Some(entry) = svc.live.get_mut(&req_id) else {
                return Err(internal("deadline names a request that is not live", now));
            };
            entry.deadline_ns = None;
            let task = entry.task;
            if draining {
                // Everything is already being cancelled through the run
                // token; just consume the entry.
                continue;
            }
            self.stats.slo_violations += 1;
            match self.tasks.get(task) {
                Some(Some(rec)) => rec.cancel.cancel(),
                _ => return Err(internal("deadline request task missing", now)),
            }
        }

        // Arrivals and retries (never while draining: a dying run admits
        // nothing new).
        let due = !self.draining
            && self
                .service
                .as_ref()
                .and_then(|s| s.source.next_due_ns())
                .is_some_and(|d| d <= now);
        if due {
            let mut out = std::mem::take(&mut self.injection_scratch);
            out.clear();
            if let Some(svc) = self.service.as_mut() {
                svc.source.poll(now, &mut out);
            }
            let spawn = self
                .spawn_spec
                .ok_or_else(|| internal("service run without a spec spawner", now))?;
            for inj in out.drain(..) {
                let shep = self.service.as_ref().map_or(0, |s| s.next_shep);
                let token = self.run_cancel.child();
                let id = self.alloc_task(TaskRecord {
                    logic: Some(spawn(inj.spec)),
                    parent: None,
                    home_shepherd: shep,
                    pending_children: 0,
                    inbox: Vec::new(),
                    resume_pending: false,
                    staged_children: Vec::new(),
                    cancel: token,
                });
                self.shepherds[shep].queue.push_back(id);
                self.queued_total += 1;
                let n_sheps = self.shepherds.len();
                if let Some(svc) = self.service.as_mut() {
                    svc.next_shep = (svc.next_shep + 1) % n_sheps;
                    svc.live
                        .insert(inj.req_id, LiveRequest { task: id, deadline_ns: inj.deadline_ns });
                    svc.task_req.insert(id, inj.req_id);
                    if let Some(d) = inj.deadline_ns {
                        svc.deadlines.insert((d, inj.req_id));
                    }
                }
            }
            self.injection_scratch = out;
        }
        self.maybe_finish_service();
        Ok(())
    }

    /// A service run completes once nothing can ever arrive again (source
    /// exhausted, or the run is draining) and every injected request has
    /// reached a terminal state.
    fn maybe_finish_service(&mut self) {
        if self.root_value.is_some() {
            return;
        }
        let drained = self.draining;
        let done = self
            .service
            .as_ref()
            .is_some_and(|s| s.live.is_empty() && (drained || s.source.exhausted()));
        if done && self.live_tasks == 0 {
            self.root_value = Some(TaskValue::none());
            // Application completion wakes spinners.
            self.wake_spinners();
        }
    }

    /// Terminal service accounting, before teardown: on an error path the
    /// still-in-flight requests are handed to the source as failed (and
    /// the source folds its pending retries in with them — the run will
    /// never poll again); on every terminal path the source's shed/retry
    /// tallies land in the run's [`RunStats`]. Suspension must *not* call
    /// this — a suspended run is not terminal.
    fn finalize_service(&mut self, terminal_err: bool) {
        let now = self.rt.machine.now_ns();
        if let Some(svc) = self.service.as_mut() {
            if terminal_err || self.draining {
                let ids: Vec<u64> = svc.live.keys().copied().collect();
                svc.source.drain(now, &ids);
                svc.live.clear();
                svc.task_req.clear();
                svc.deadlines.clear();
            }
            let c = svc.source.counters();
            self.stats.requests_shed = c.shed;
            self.stats.retries_spent = c.retries_spent;
        }
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

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    /// Whether a dispatch pass could change any worker's state — the
    /// event-driven replacement for unconditionally scanning every worker
    /// every iteration. An idle worker acts only on queued work, or on an
    /// active throttle (a worker looking for work under a full shepherd
    /// enters the spin state even with an empty queue). A spinner
    /// re-evaluates on an unseen wake epoch, on throttle deactivation, and
    /// while draining — exactly its eligibility condition below. When this
    /// returns false, a full pass would visit no eligible worker whose
    /// `try_dispatch` can make progress.
    fn dispatch_needed(&self) -> bool {
        #[cfg(maestro_verify)]
        assert_eq!(
            self.queued_total,
            self.shepherds.iter().map(|s| s.queue.len()).sum::<usize>(),
            "queued_total counter diverged from the shepherd-queue scan"
        );
        let idle = self.workers.len() - self.spinner_count - self.running_count;
        if idle > 0 && (self.queued_total > 0 || (self.rt.throttle.active && !self.draining)) {
            return true;
        }
        self.spinner_count > 0
            && (self.wake_epoch != self.wake_epoch_seen
                || !self.rt.throttle.active
                || self.draining)
    }

    /// Returns whether any worker changed state, or an error from stepping.
    fn dispatch_fixpoint(&mut self, app: &mut C) -> Result<bool, RuntimeError> {
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
                        *epoch_seen < self.wake_epoch || !self.rt.throttle.active || self.draining
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
                self.wake_epoch_seen = self.wake_epoch;
                return Ok(any);
            }
            any = true;
        }
    }

    /// One attempt by worker `w` to find work. Returns true when the worker
    /// changed state (so the fixpoint must iterate again).
    fn try_dispatch(&mut self, app: &mut C, w: usize) -> Result<bool, RuntimeError> {
        let shep = self.shepherd_of(w);

        // Thread-initiation throttle check (§IV) — suspended while draining:
        // a cancelled run's only goal is to finish, at full width.
        if !self.draining
            && self.rt.throttle.active
            && self.shepherds[shep].active >= self.rt.throttle.effective_limit()
        {
            return self.enter_spin(w);
        }

        let Some((task, stolen)) = self.acquire_task(shep) else {
            return Ok(match self.workers[w] {
                WorkerState::Spinning { ref mut epoch_seen, since_ns } => {
                    if self.rt.throttle.active && !self.draining {
                        // Still throttled: consume the wake epoch and keep
                        // spinning until one of the wake conditions fires.
                        *epoch_seen = self.wake_epoch;
                        false
                    } else {
                        // Throttle deactivated: leave the spin loop for the
                        // ordinary idle state (idle workers re-check on every
                        // dispatch pass, so no wake event can be lost).
                        self.stats.throttled_worker_ns += self.rt.machine.now_ns() - since_ns;
                        let core = self.core_of(w);
                        let rt = &mut *self.rt;
                        let outcome = rt.actuator.apply(&mut rt.machine, core, DutyCycle::FULL);
                        self.stats.duty_writes += 1;
                        self.pending_overhead_ns[w] += f64::from(outcome.attempts().max(1))
                            * self.rt.machine.config().duty_write_latency_ns() as f64;
                        self.rt.machine.set_activity(core, CoreActivity::Idle);
                        self.set_worker(w, WorkerState::Idle);
                        true
                    }
                }
                _ => {
                    self.rt.machine.set_activity(self.core_of(w), CoreActivity::Idle);
                    false
                }
            });
        };

        // Leaving a spin loop costs a duty-register write.
        let mut overhead_ns = self.pending_overhead_ns[w];
        self.pending_overhead_ns[w] = 0.0;
        if let WorkerState::Spinning { since_ns, .. } = self.workers[w] {
            self.stats.throttled_worker_ns += self.rt.machine.now_ns() - since_ns;
            let core = self.core_of(w);
            let rt = &mut *self.rt;
            let outcome = rt.actuator.apply(&mut rt.machine, core, DutyCycle::FULL);
            self.stats.duty_writes += 1;
            overhead_ns += f64::from(outcome.attempts().max(1))
                * self.rt.machine.config().duty_write_latency_ns() as f64;
        }

        let active = self.total_active() + 1;
        let dispatch_cycles = self.rt.params.dispatch_cost_cycles(active, stolen);
        overhead_ns += self.cycles_to_ns(dispatch_cycles);
        if stolen {
            self.stats.steals += 1;
        }
        let now = self.rt.machine.now_ns();
        if task_ref(&self.tasks, task, "queued task exists", now)?.resume_pending {
            overhead_ns += self.cycles_to_ns(self.rt.params.resume_cycles);
            self.stats.resumes += 1;
        }

        self.set_worker(w, WorkerState::Idle); // placeholder until a segment starts
        self.step_task(app, w, task, overhead_ns)?;
        Ok(true)
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

    fn enter_spin(&mut self, w: usize) -> Result<bool, RuntimeError> {
        Ok(match self.workers[w] {
            WorkerState::Spinning { ref mut epoch_seen, .. } => {
                // Was woken but throttle still binds: consume the epoch.
                let changed = *epoch_seen < self.wake_epoch;
                *epoch_seen = self.wake_epoch;
                // No state change that enables other workers.
                let _ = changed;
                false
            }
            WorkerState::Running(_) => {
                return Err(internal("running worker reached dispatch", self.rt.machine.now_ns()))
            }
            WorkerState::Idle => {
                self.stats.spin_entries += 1;
                let core = self.core_of(w);
                self.rt.machine.set_activity(core, CoreActivity::Spin);
                // Spinners drop to the hardware-minimum duty cycle (1/32).
                let rt = &mut *self.rt;
                let outcome = rt.actuator.apply(&mut rt.machine, core, DutyCycle::MIN);
                self.stats.duty_writes += 1;
                // Each MSR write attempt stalls the core for ~250 memory
                // ops; a retried or forced transaction costs more. A core
                // whose breaker is open (or whose write could not be
                // verified) spins at FULL duty instead — the actuator
                // fails toward performance, never toward stuck-low.
                let cpu_rem_ns = f64::from(outcome.attempts().max(1))
                    * self.rt.machine.config().duty_write_latency_ns() as f64;
                self.set_worker(
                    w,
                    WorkerState::Running(Segment {
                        task: None,
                        cpu_rem_ns,
                        mem_rem_ns: 0.0,
                        spin_epoch: self.wake_epoch,
                        fold_ns: self.rt.machine.now_ns(),
                        speed: 1.0,
                        phi: 1.0,
                        completion_abs: 0.0,
                    }),
                );
                self.fresh_segments.push(w);
                true
            }
        })
    }

    // ------------------------------------------------------------------
    // Task stepping
    // ------------------------------------------------------------------

    /// Drive `task` on worker `w` until it produces a timed segment,
    /// suspends, or finishes. `overhead_ns` is folded into the first
    /// segment the worker produces (and carried across instant completions).
    ///
    /// Every `step` call runs inside `catch_unwind`: a panicking task body
    /// is converted into a [`TaskFailure`] that cancels its subtree and the
    /// run, instead of unwinding through the scheduler.
    fn step_task(
        &mut self,
        app: &mut C,
        w: usize,
        task: TaskId,
        overhead_ns: f64,
    ) -> Result<(), RuntimeError> {
        let mut carry_ns = overhead_ns;
        let mut current = task;
        let now_ns = self.rt.machine.now_ns();
        let worker_shep = self.shepherd_of(w);
        loop {
            // The step budget is also enforced here, inside the
            // zero-virtual-time instant-completion chain, where the outer
            // loop's check never gets a turn.
            if self.rt.params.step_budget.is_some_and(|b| self.stats.steps >= b) {
                self.set_worker(w, WorkerState::Idle);
                self.rt.machine.set_activity(self.core_of(w), CoreActivity::Idle);
                return Err(RuntimeError::DeadlineExceeded {
                    limit: RunLimit::Steps { budget: self.rt.params.step_budget.unwrap_or(0) },
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
                self.stats.tasks_cancelled += 1;
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
                let step_index = self.stats.steps;
                let inject_panic =
                    self.rt.task_faults.as_ref().is_some_and(|p| p.task_panic_due(step_index));
                let result = catch_unwind(AssertUnwindSafe(|| {
                    if inject_panic {
                        panic!("injected task-fault panic at step {step_index}");
                    }
                    logic.step(app, &mut ctx)
                }));
                self.stats.steps += 1;
                // Reclaim the resumed inbox buffer the task just consumed:
                // its values are spent, but the allocation is reusable.
                if ctx.children.capacity() > 0 {
                    ctx.children.clear();
                    self.inbox_pool.push(std::mem::take(&mut ctx.children));
                }
                match result {
                    Ok(mut step) => {
                        if self
                            .rt
                            .task_faults
                            .as_ref()
                            .is_some_and(|p| p.task_wedge_due(step_index))
                        {
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
                        self.stats.task_panics += 1;
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
                        if self.failure.is_none() {
                            self.failure = Some(failure);
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
                    let seg = Segment {
                        task: Some(current),
                        cpu_rem_ns: cost.cpu_time_ns(freq) + carry_ns,
                        mem_rem_ns: cost.mem_time_ns(lat),
                        spin_epoch: 0,
                        fold_ns: now_ns,
                        speed: 1.0,
                        phi: 1.0,
                        completion_abs: 0.0,
                    };
                    self.rt.machine.set_activity(
                        self.core_of(w),
                        CoreActivity::Busy {
                            intensity: cost.intensity,
                            ocr: cost.avg_outstanding_refs(freq, lat),
                        },
                    );
                    let shep = self.shepherd_of(w);
                    self.shepherds[shep].active += 1;
                    self.active_total += 1;
                    self.set_worker(w, WorkerState::Running(seg));
                    // Rates are assigned by `reconcile_rates` once the whole
                    // event batch has settled the machine's activity state.
                    self.fresh_segments.push(w);
                    return Ok(());
                }
                Step::SpawnWait(children) => {
                    if children.is_empty() {
                        // Degenerate spawn: resume immediately with no values.
                        let record = task_mut(&mut self.tasks, current, "task exists", now_ns)?;
                        record.resume_pending = true;
                        record.inbox.clear();
                        continue;
                    }
                    let n = children.len();
                    let record = task_mut(&mut self.tasks, current, "task exists", now_ns)?;
                    // Move the children into the record's (possibly recycled)
                    // buffer and refill the inbox in place, so repeated
                    // spawn/join rounds reuse the same two allocations.
                    record.staged_children.clear();
                    record.staged_children.extend(children);
                    record.pending_children = n;
                    record.inbox.clear();
                    record.inbox.resize_with(n, TaskValue::none);
                    // Creating the children costs the parent spawn cycles,
                    // modeled as a final busy segment before it suspends.
                    let spawn_ns =
                        self.cycles_to_ns(self.rt.params.spawn_cycles_per_child * n as u64);
                    let seg = Segment {
                        task: Some(current),
                        cpu_rem_ns: spawn_ns + carry_ns,
                        mem_rem_ns: 0.0,
                        spin_epoch: 0,
                        fold_ns: now_ns,
                        speed: 1.0,
                        phi: 1.0,
                        completion_abs: 0.0,
                    };
                    self.rt.machine.set_activity(
                        self.core_of(w),
                        CoreActivity::Busy { intensity: 0.1, ocr: 0.0 },
                    );
                    let shep = self.shepherd_of(w);
                    self.shepherds[shep].active += 1;
                    self.active_total += 1;
                    self.set_worker(w, WorkerState::Running(seg));
                    self.fresh_segments.push(w);
                    return Ok(());
                }
                Step::Done(value) => {
                    self.complete_task(current, value)?;
                    if self.root_value.is_some() {
                        self.rt.machine.set_activity(self.core_of(w), CoreActivity::Idle);
                        self.set_worker(w, WorkerState::Idle);
                        return Ok(());
                    }
                    // Instant completion: keep the worker going on more work
                    // from its own queue, carrying the unpaid overhead —
                    // unless the throttle now binds (this is a "looks for
                    // work" point too, suspended while draining).
                    let shep = self.shepherd_of(w);
                    if !self.draining
                        && self.rt.throttle.active
                        && self.shepherds[shep].active >= self.rt.throttle.effective_limit()
                    {
                        self.rt.machine.set_activity(self.core_of(w), CoreActivity::Idle);
                        self.set_worker(w, WorkerState::Idle);
                        return Ok(());
                    }
                    if let Some((next, stolen)) = self.acquire_task(shep) {
                        let active = self.total_active() + 1;
                        carry_ns +=
                            self.cycles_to_ns(self.rt.params.dispatch_cost_cycles(active, stolen));
                        if stolen {
                            self.stats.steals += 1;
                        }
                        if task_ref(&self.tasks, next, "queued task exists", now_ns)?.resume_pending
                        {
                            carry_ns += self.cycles_to_ns(self.rt.params.resume_cycles);
                            self.stats.resumes += 1;
                        }
                        current = next;
                        continue;
                    }
                    self.rt.machine.set_activity(self.core_of(w), CoreActivity::Idle);
                    self.set_worker(w, WorkerState::Idle);
                    return Ok(());
                }
            }
        }
    }

    /// A task finished with `value`: deliver to the parent (possibly
    /// readying it) or finish the run.
    fn complete_task(&mut self, task: TaskId, value: TaskValue) -> Result<(), RuntimeError> {
        self.stats.tasks_completed += 1;
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
            None => {
                // In a service run, parentless tasks are injected requests:
                // settle the request with the source instead of ending the
                // run, and end the run only once the source is exhausted
                // and no request remains.
                if let Some(svc) = self.service.as_mut() {
                    let req_id = svc
                        .task_req
                        .remove(&task)
                        .ok_or_else(|| internal("parentless task is not a request", now))?;
                    let entry = svc
                        .live
                        .remove(&req_id)
                        .ok_or_else(|| internal("completed request is not live", now))?;
                    if let Some(d) = entry.deadline_ns {
                        svc.deadlines.remove(&(d, req_id));
                    }
                    svc.source.on_complete(req_id, now, cancelled);
                    self.maybe_finish_service();
                    return Ok(());
                }
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
    fn release_children(&mut self, parent: TaskId, shep: usize) -> Result<(), RuntimeError> {
        let now = self.rt.machine.now_ns();
        let record = task_mut(&mut self.tasks, parent, "spawning parent exists", now)?;
        let mut staged = std::mem::take(&mut record.staged_children);
        let parent_token = record.cancel.clone();
        self.stats.spawned += staged.len() as u64;
        for (slot, logic) in staged.drain(..).enumerate() {
            let id = self.alloc_task(TaskRecord {
                logic: Some(logic),
                parent: Some((parent, slot)),
                home_shepherd: shep,
                pending_children: 0,
                inbox: Vec::new(),
                resume_pending: false,
                staged_children: Vec::new(),
                cancel: parent_token.child(),
            });
            self.shepherds[shep].queue.push_back(id);
            self.queued_total += 1;
        }
        // The drained staging buffer keeps its capacity; recycle it.
        if staged.capacity() > 0 {
            self.child_pool.push(staged);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Fluid time advance
    // ------------------------------------------------------------------

    /// Compute-rate divisor from the continuous contention model:
    /// `1 + dilation × (active − 1)`.
    fn work_dilation(&self) -> f64 {
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
    fn reconcile_rates(&mut self) {
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
        let next_completion = self
            .completions
            .peek_live(|id, gen| seg_gen[id as usize] == gen)
            .map(|e| time_ns_from_key(e.key));
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
        if let Some(due) = self.next_monitor_due() {
            let cand = due.saturating_sub(now) as f64;
            dt = Some(dt.map_or(cand, |d| d.min(cand)));
        }
        if let Some(due) = self.service_due() {
            let cand = due.saturating_sub(now) as f64;
            dt = Some(dt.map_or(cand, |d| d.min(cand)));
        }
        let mut dt_ns = dt.map(|d| d.ceil() as u64)?;
        // Never step past the run deadline: a huge (wedged) segment must not
        // carry the clock years beyond the configured limit. Only clamp an
        // existing event — a dead graph still reports deadlock, not a wait.
        if let Some(deadline) = self.deadline_abs_ns {
            dt_ns = dt_ns.min(deadline.saturating_sub(now));
        }
        // Snapshot fences clamp the same way: the clock must land exactly on
        // every fence so a fence-matched pair of runs advances identically.
        if let Some(fence) = self.next_fence_abs() {
            dt_ns = dt_ns.min(fence.saturating_sub(now));
        }
        Some(dt_ns)
    }

    /// Retire every segment whose completion time the clock has reached and
    /// continue the affected tasks. Due events are collected first and
    /// processed in ascending worker order, so results never depend on heap
    /// internals.
    fn progress_segments(&mut self, app: &mut C) -> Result<(), RuntimeError> {
        let bound = self.rt.machine.now_ns() as f64 + EPS_NS;
        let mut due = std::mem::take(&mut self.due_scratch);
        due.clear();
        let key_bound = key_from_time_ns(bound);
        let seg_gen = &self.seg_gen;
        while let Some(e) =
            self.completions.pop_due(key_bound, |id, gen| seg_gen[id as usize] == gen)
        {
            due.push(e.id as usize);
        }
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
                    let shep = self.shepherd_of(w);
                    self.shepherds[shep].active -= 1;
                    self.active_total -= 1;
                    let now = self.rt.machine.now_ns();
                    let record = task_mut(&mut self.tasks, task, "running task exists", now)?;
                    if !record.staged_children.is_empty() {
                        // The spawn segment ended: children go live, parent
                        // suspends, worker looks for work again.
                        self.release_children(task, shep)?;
                        self.rt.machine.set_activity(self.core_of(w), CoreActivity::Idle);
                    } else {
                        // A compute segment ended: continue the state machine.
                        self.step_task(app, w, task, 0.0)?;
                    }
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Whole-run capture
    // ------------------------------------------------------------------

    /// Install the fence/capture plan for this run. Times in `plan` are
    /// relative to the (possibly restored) run start; fences already behind
    /// the clock are dropped, so a resumed run picks up the cadence exactly
    /// where the suspended run left it.
    fn arm_capture(&mut self, plan: &SnapshotPlan) {
        let fp = self.rt.config_fingerprint();
        let start = self.run_start_ns;
        let now = self.rt.machine.now_ns();
        let cadence = plan.cadence_ns.filter(|&c| c > 0);
        let next_cadence_abs = match cadence {
            Some(c) => {
                // First cadence multiple strictly ahead of the clock.
                let k = now.saturating_sub(start) / c + 1;
                start.saturating_add(k.saturating_mul(c))
            }
            None => u64::MAX,
        };
        let suspend_at_abs = plan.suspend_at_ns.map(|t| start.saturating_add(t));
        let mut extra: Vec<u64> = plan
            .extra_fences_ns
            .iter()
            .map(|&t| start.saturating_add(t))
            .filter(|&t| t > now)
            .collect();
        extra.sort_unstable();
        extra.dedup();
        self.capture = Some(CaptureCtl {
            fingerprint: fp,
            cadence_ns: cadence,
            next_cadence_abs,
            suspend_at_abs,
            extra_fences: extra.into(),
            snapshots: Vec::new(),
            suspended: None,
            error: None,
        });
    }

    /// The earliest pending fence strictly ahead of the clock, if any.
    fn next_fence_abs(&self) -> Option<u64> {
        let ctl = self.capture.as_ref()?;
        let mut next: Option<u64> = None;
        for cand in [
            ctl.cadence_ns.map(|_| ctl.next_cadence_abs),
            ctl.suspend_at_abs,
            ctl.extra_fences.front().copied(),
        ]
        .into_iter()
        .flatten()
        {
            next = Some(next.map_or(cand, |n| n.min(cand)));
        }
        next
    }

    /// Process fences the clock has reached: drop passed advance-only
    /// fences, take due cadence snapshots, and detect the suspension point.
    /// Returns true when the loop must stop (suspension, or a failed
    /// serialization whose error is parked in the control block).
    fn capture_fences_due(&mut self) -> bool {
        if self.capture.is_none() {
            return false;
        }
        let now = self.rt.machine.now_ns();
        // Every fence — capture-free extra fence, cadence capture, or
        // suspension — is a full integration barrier: the machine folds all
        // lazy thermal/energy state to the fence time. A capturing fence
        // would fold implicitly inside `Machine::codec`; doing it for *every*
        // fence keeps the sync schedule (and therefore the float bits) of a
        // fence-matched unbroken run identical to a suspended/resumed one.
        let any_fence_due = self.capture.as_ref().is_some_and(|ctl| {
            ctl.extra_fences.front().is_some_and(|&f| f <= now)
                || (ctl.cadence_ns.is_some() && ctl.next_cadence_abs <= now)
                || ctl.suspend_at_abs.is_some_and(|t| t <= now)
        });
        if any_fence_due {
            self.rt.machine.sync_all();
            // Same discipline for the scheduler's lazy state: reconcile
            // rates first (the previous iteration's completions may have
            // moved φ and no reconciliation has run since), then fold every
            // running segment to the fence and re-derive its completion
            // time. The serialized remaining-work values — and the fold
            // schedule itself — thereby match between a fence-matched
            // unbroken run and a suspended/resumed one, which re-rates all
            // segments at the restore point with exactly these inputs.
            self.reconcile_rates();
            let now_f = self.rt.machine.now_ns();
            let dilation = self.work_dilation();
            for w in 0..self.workers.len() {
                if matches!(self.workers[w], WorkerState::Running(_)) {
                    self.rate_segment(w, now_f, dilation);
                }
            }
        }
        if let Some(ctl) = self.capture.as_mut() {
            while ctl.extra_fences.front().is_some_and(|&f| f <= now) {
                ctl.extra_fences.pop_front();
            }
        }
        loop {
            let due = self.capture.as_ref().is_some_and(|c| c.next_cadence_abs <= now);
            if !due {
                break;
            }
            let snap = self.snapshot_bytes();
            let Some(ctl) = self.capture.as_mut() else { return false };
            match snap {
                Ok(bytes) => {
                    ctl.snapshots.push(RunCapture { t_ns: now, bytes });
                    let c = ctl.cadence_ns.unwrap_or(u64::MAX);
                    ctl.next_cadence_abs = ctl.next_cadence_abs.saturating_add(c);
                }
                Err(e) => {
                    ctl.error = Some(e);
                    return true;
                }
            }
        }
        let suspend_due =
            self.capture.as_ref().and_then(|c| c.suspend_at_abs).is_some_and(|t| t <= now);
        if suspend_due {
            let snap = self.snapshot_bytes();
            if let Some(ctl) = self.capture.as_mut() {
                match snap {
                    Ok(bytes) => ctl.suspended = Some(RunCapture { t_ns: now, bytes }),
                    Err(e) => ctl.error = Some(e),
                }
            }
            return true;
        }
        false
    }

    /// Drive a captured run to its end (the fresh-start path passes `root`;
    /// the resume path restores the graph first and passes `None`).
    fn run_to_capture(
        mut self,
        app: &mut C,
        root: Option<BoxTask<C>>,
    ) -> Result<CapturedRun, SnapError> {
        let result = self.drive(app, root);
        let mut ctl = self
            .capture
            .take()
            .ok_or(SnapError::Corrupt("captured run without a capture plan"))?;
        if let Some(e) = ctl.error.take() {
            return Err(e);
        }
        let end = match result {
            Ok(LoopEnd::Suspended) => match ctl.suspended.take() {
                Some(cap) => RunEnd::Suspended(cap),
                None => return Err(SnapError::Corrupt("suspended without a capture")),
            },
            result => match self.outcome(result) {
                Ok(outcome) => RunEnd::Completed(outcome),
                Err(e) => RunEnd::Failed(e),
            },
        };
        Ok(CapturedRun { end, snapshots: ctl.snapshots })
    }

    /// Serialize the *entire* run state — machine, actuator, fault cursors,
    /// cancellation tree, task graph, queues, worker segments, counters, and
    /// every monitor — into one versioned snapshot. Fails with a typed error
    /// when the graph holds a task that cannot be captured (closure-based
    /// logic, or an inbox holding opaque values).
    fn snapshot_bytes(&self) -> Result<Vec<u8>, SnapError> {
        let mut w = SnapWriter::new();
        w.header(self.capture.as_ref().map_or(0, |c| c.fingerprint));
        self.codec(&mut w)?;
        Ok(w.finish())
    }

    /// The snapshot codec for a whole run (see [`Codec`]).
    fn codec<K: Codec>(&self, c: &mut K) -> Result<ExecState, SnapError> {
        // Run anchors: reporting stays relative to the original start.
        let run_start_ns = c.u64(self.run_start_ns)?;
        let run_start_j = c.f64(self.run_start_j)?;
        let rt = self.rt.state_codec(c)?;
        let clock_ns = rt.machine.as_ref().unwrap_or(&self.rt.machine).now_ns();
        if run_start_ns > clock_ns {
            return Err(SnapError::Corrupt("run starts after the machine clock"));
        }
        // Run-scoped cancellation root and scheduler cancel bookkeeping.
        let run_cancelled = c.bool(self.run_cancel.local_flag())?;
        let cancel_generation = c.u64(self.run_cancel.generation())?;
        let last_cancel_gen = c.u64(self.last_cancel_gen)?;
        if last_cancel_gen > cancel_generation {
            return Err(SnapError::Corrupt("cancel bookkeeping ahead of the token tree"));
        }
        let draining = c.bool(self.draining)?;
        let deadline_abs_ns = c.opt_u64(self.deadline_abs_ns)?;
        let wake_epoch = c.u64(self.wake_epoch)?;
        let failure = c.opt(self.failure.as_ref(), |c, f| {
            Ok(TaskFailure {
                message: c.str(&f.message)?,
                task_path: c.seq(&f.task_path, |c, p| c.str(p))?,
                worker: c.u64(f.worker as u64)? as usize,
                t_ns: c.u64(f.t_ns)?,
            })
        })?;
        let stats = self.stats.codec(c)?;
        let start_actuation = self.start_actuation.codec(c)?;
        let pending_overhead_ns = c.seq_fixed(
            &self.pending_overhead_ns,
            "pending-overhead worker count mismatch",
            |c, &o| c.f64(o),
        )?;
        // Task table, slot-exact: ids are slot indices and the free list
        // drives allocation order, so the layout itself is state.
        let shepherds = self.shepherds.len();
        let blank = TaskRecord::default();
        let tasks = c.seq(&self.tasks, |c, slot| {
            if !c.bool(slot.is_some())? {
                return Ok(None);
            }
            slot.as_ref().unwrap_or(&blank).codec(c, shepherds)
        })?;
        let free = c.seq(&self.free, |c, &id| Ok(c.u64(id as u64)? as usize))?;
        let shepherds = c.seq_fixed(&self.shepherds, "shepherd count mismatch", |c, s| {
            let queue = c.seq(&s.queue, |c, &id| Ok(c.u64(id as u64)? as usize))?;
            Ok((queue, c.u64(s.active as u64)? as usize))
        })?;
        let workers = c.seq_fixed(&self.workers, "worker count mismatch", |c, w| {
            worker_codec(c, w, clock_ns)
        })?;
        let monitors = self.rt.monitors_codec(c)?;
        // Service run state: the live-request table plus the source's own
        // dynamic state (framed, so restore verifies full consumption).
        // Fired deadlines serialize as `None` and therefore never re-fire
        // after a resume.
        if c.bool(self.service.is_some())? != self.service.is_some() {
            return Err(SnapError::Corrupt("service section does not match run mode"));
        }
        let service = match &self.service {
            None => None,
            Some(svc) => {
                let next_shep = c.u64(svc.next_shep as u64)? as usize;
                if next_shep >= self.shepherds.len() {
                    return Err(SnapError::Corrupt("service round-robin cursor out of range"));
                }
                let live = c.seq(svc.live.keys(), |c, &req_id| {
                    let entry = svc.live.get(&req_id);
                    Ok((
                        c.u64(req_id)?,
                        c.u64(entry.map_or(0, |e| e.task as u64))? as usize,
                        c.opt_u64(entry.and_then(|e| e.deadline_ns))?,
                    ))
                })?;
                let source = c.framed(|w| svc.source.snap_state(w))?;
                Some(ServiceSnap { next_shep, live, source })
            }
        };
        Ok(ExecState {
            run_start_ns,
            run_start_j,
            rt,
            run_cancelled,
            cancel_generation,
            last_cancel_gen,
            draining,
            deadline_abs_ns,
            wake_epoch,
            failure,
            stats,
            start_actuation,
            pending_overhead_ns,
            tasks,
            free,
            shepherds,
            workers,
            monitors,
            service,
        })
    }
}

/// Restore-side capture machinery. Rebuilding parked tasks instantiates
/// [`SpecTask`] interpreters, which requires `C: 'static`.
impl<C: 'static> Exec<'_, C> {
    /// Rebuild the entire run state from bytes written by `snapshot_bytes`.
    /// The runtime's static configuration must match the captured one; every
    /// structural reference (task ids, queue entries, shepherd and worker
    /// counts) is validated before anything is installed.
    fn restore_exec(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes);
        r.header(self.rt.config_fingerprint())?;
        let st = self.codec(&mut r)?;
        r.finish()?;

        // Teardown reports actuation as deltas from the run start.
        let start = &st.start_actuation;
        let end = st.rt.actuator.as_ref().map_or(*start, Actuator::totals);
        if start.attempts > end.attempts
            || start.verify_failures > end.verify_failures
            || start.failed_applies > end.failed_applies
            || start.forced_resets > end.forced_resets
            || start.breaker_trips > end.breaker_trips
        {
            return Err(SnapError::Corrupt("run-start actuation ahead of the actuator"));
        }

        // Restore-side step: rebuild the task records from their specs.
        let mut flags: Vec<bool> = Vec::with_capacity(st.tasks.len());
        let mut tasks: Vec<Option<TaskRecord<C>>> = Vec::with_capacity(st.tasks.len());
        for slot in st.tasks {
            flags.push(slot.as_ref().is_some_and(|t| t.cancelled));
            tasks.push(match slot {
                None => None,
                Some(t) => {
                    let children = match &t.spec {
                        TaskSpec::Leaf { .. } => 0,
                        TaskSpec::ForkJoin { children, .. } => children.len(),
                    };
                    if t.inbox_len > children {
                        return Err(SnapError::Corrupt("task inbox exceeds its child count"));
                    }
                    let mut inbox: Vec<TaskValue> = Vec::new();
                    inbox.resize_with(t.inbox_len, TaskValue::none);
                    Some(TaskRecord {
                        logic: Some(Box::new(SpecTask::resume(t.spec, t.phase))),
                        parent: t.parent,
                        home_shepherd: t.home_shepherd,
                        pending_children: t.pending_children,
                        inbox,
                        resume_pending: t.resume_pending,
                        staged_children: t
                            .staged
                            .into_iter()
                            .map(|(s, p)| Box::new(SpecTask::resume(s, p)) as BoxTask<C>)
                            .collect(),
                        cancel: CancelToken::new(), // placeholder, rewired below
                    })
                }
            });
        }
        let live = tasks.iter().flatten().count();

        // Rebuild the cancellation tree parent-first (slot reuse means a
        // child's id can be lower than its parent's, so a DFS from the roots
        // — not id order — drives token derivation). A batch run has exactly
        // one root; a service run's graph is a *forest* (every live request
        // is a parentless tree, and between requests it may be empty), with
        // each root deriving directly from the run token in ascending id
        // order.
        let mut children_of: Vec<Vec<TaskId>> = vec![Vec::new(); tasks.len()];
        let mut roots: Vec<TaskId> = Vec::new();
        for (id, slot) in tasks.iter().enumerate() {
            let Some(rec) = slot else { continue };
            match rec.parent {
                None => roots.push(id),
                Some((p, s)) => {
                    let Some(parent) = tasks.get(p).and_then(Option::as_ref) else {
                        return Err(SnapError::Corrupt("task parent is not live"));
                    };
                    if s >= parent.inbox.len() {
                        return Err(SnapError::Corrupt("task parent slot out of range"));
                    }
                    children_of[p].push(id);
                }
            }
        }
        if self.service.is_none() {
            if roots.is_empty() {
                return Err(SnapError::Corrupt("task graph has no root"));
            }
            if roots.len() > 1 {
                return Err(SnapError::Corrupt("task graph has multiple roots"));
            }
        }
        let mut stack: Vec<TaskId> = Vec::with_capacity(roots.len());
        for &root_id in &roots {
            let token = self.run_cancel.child();
            token.restore_flag(flags[root_id]);
            if let Some(rec) = tasks[root_id].as_mut() {
                rec.cancel = token;
            }
            stack.push(root_id);
        }
        let mut visited: usize = 0;
        while let Some(id) = stack.pop() {
            visited += 1;
            let parent_token =
                tasks[id].as_ref().map(|rec| rec.cancel.clone()).ok_or(SnapError::Corrupt(
                    "task graph visits a freed slot",
                ))?;
            for &c in &children_of[id] {
                let token = parent_token.child();
                token.restore_flag(flags[c]);
                if let Some(rec) = tasks[c].as_mut() {
                    rec.cancel = token;
                }
                stack.push(c);
            }
        }
        if visited != live {
            return Err(SnapError::Corrupt("task graph is not a tree"));
        }
        // A parent waits on exactly its staged and its live children.
        for (rec, children) in tasks.iter().zip(&children_of) {
            if rec.as_ref().is_some_and(|r| {
                r.pending_children != r.staged_children.len() + children.len()
            }) {
                return Err(SnapError::Corrupt("task pending-children count disagrees with graph"));
            }
        }

        // Free list, order-exact (allocation pops from the back).
        let is_live = |id: TaskId| tasks.get(id).is_some_and(Option::is_some);
        let mut seen_free = vec![false; tasks.len()];
        for &id in &st.free {
            if id >= tasks.len() || tasks[id].is_some() || seen_free[id] {
                return Err(SnapError::Corrupt("free-list entry is not a free slot"));
            }
            seen_free[id] = true;
        }
        if st.shepherds.iter().flat_map(|(queue, _)| queue).any(|&id| !is_live(id)) {
            return Err(SnapError::Corrupt("queued task id is not live"));
        }
        let running_dead = st.workers.iter().any(|w| {
            matches!(w, WorkerState::Running(Segment { task: Some(id), .. }) if !is_live(*id))
        });
        if running_dead {
            return Err(SnapError::Corrupt("running task id is not live"));
        }
        // A shepherd's active count is its workers running a task.
        let mut active = vec![0; st.shepherds.len()];
        for (w, state) in st.workers.iter().enumerate() {
            if matches!(state, WorkerState::Running(Segment { task: Some(_), .. })) {
                active[self.worker_shep[w]] += 1;
            }
        }
        if st.shepherds.iter().zip(&active).any(|((_, a), n)| a != n) {
            return Err(SnapError::Corrupt("shepherd active count disagrees with workers"));
        }

        // Service section: every request must map to a live parentless
        // tree, and every root must be a request.
        let mut service = None;
        if let Some(snap) = st.service {
            if snap.live.len() != roots.len() {
                return Err(SnapError::Corrupt("service request count does not match roots"));
            }
            let mut live_map: BTreeMap<u64, LiveRequest> = BTreeMap::new();
            let mut task_req: BTreeMap<TaskId, u64> = BTreeMap::new();
            let mut deadlines: BTreeSet<(u64, u64)> = BTreeSet::new();
            for (req_id, task, deadline_ns) in snap.live {
                let is_root = tasks.get(task).and_then(Option::as_ref).is_some_and(|rec| rec.parent.is_none());
                if !is_root {
                    return Err(SnapError::Corrupt("service request task is not a live root"));
                }
                if task_req.insert(task, req_id).is_some()
                    || live_map.insert(req_id, LiveRequest { task, deadline_ns }).is_some()
                {
                    return Err(SnapError::Corrupt("duplicate service request entry"));
                }
                if let Some(d) = deadline_ns {
                    deadlines.insert((d, req_id));
                }
            }
            service = Some((snap.next_shep, live_map, task_req, deadlines, snap.source));
        }

        // Install: the runtime block and its monitors first (monitors
        // restore against the installed machine), then the run itself.
        self.rt.install(st.rt, st.monitors)?;
        // The throttle *limit* is configuration, deliberately outside the
        // snapshot (one snapshot forks across limit variants), but monitors
        // that drive the limit as policy re-apply their restored ladder
        // level here.
        for m in &self.rt.monitors {
            m.restore_throttle(&mut self.rt.throttle);
        }
        if let (Some(svc), Some((next_shep, live, task_req, deadlines, source))) =
            (self.service.as_mut(), service)
        {
            svc.next_shep = next_shep;
            svc.live = live;
            svc.task_req = task_req;
            svc.deadlines = deadlines;
            let mut sub = SnapReader::new(&source);
            svc.source.restore_state(&mut sub)?;
            sub.finish()?;
            // The request table and the source's in-flight attempts must
            // name the same requests.
            if svc.source.counters().in_flight != svc.live.len() as u64
                || svc.live.keys().any(|&id| !svc.source.owns(id))
            {
                return Err(SnapError::Corrupt("service requests disagree with their source"));
            }
        }
        self.run_start_ns = st.run_start_ns;
        self.run_start_j = st.run_start_j;
        self.run_cancel.restore_flag(st.run_cancelled);
        self.run_cancel.restore_generation(st.cancel_generation);
        self.last_cancel_gen = st.last_cancel_gen;
        self.draining = st.draining;
        self.deadline_abs_ns = st.deadline_abs_ns;
        self.wake_epoch = st.wake_epoch;
        self.failure = st.failure;
        self.stats = st.stats;
        self.start_actuation = st.start_actuation;
        self.pending_overhead_ns = st.pending_overhead_ns;
        for (shep, (queue, active)) in self.shepherds.iter_mut().zip(st.shepherds) {
            shep.queue = queue.into();
            shep.active = active;
        }

        // Rebuild derived state.
        self.tasks = tasks;
        self.free = st.free;
        self.live_tasks = live as u64;
        self.workers = st.workers;
        self.active_total = self.shepherds.iter().map(|s| s.active).sum();
        self.spinner_count = self
            .workers
            .iter()
            .filter(|w| matches!(w, WorkerState::Spinning { .. }))
            .count();
        self.running_count =
            self.workers.iter().filter(|w| matches!(w, WorkerState::Running(_))).count();
        self.rebuild_timers();
        self.queued_total = self.shepherds.iter().map(|s| s.queue.len()).sum();
        self.completions.clear();
        self.fresh_segments.clear();
        for g in self.seg_gen.iter_mut() {
            *g = 0;
        }
        // Force-stale so the first resumed iteration runs a dispatch pass.
        // If the fence-matched unbroken run skips that pass, it is a no-op
        // here too (no eligible worker), so the runs stay bit-identical.
        self.wake_epoch_seen = self.wake_epoch.wrapping_add(1);
        self.knob_epoch_seen = self.rt.machine.knob_epoch();
        for s in 0..self.phi_seen.len() {
            self.phi_seen[s] = self.rt.machine.contention_factor(SocketId(s as u8));
        }
        let dilation = self.work_dilation();
        self.dilation_seen = dilation;
        // Re-rate every restored segment at the restore instant — the same
        // fold-and-rate the unbroken run performed at this fence.
        let now = self.rt.machine.now_ns();
        for w in 0..self.workers.len() {
            if matches!(self.workers[w], WorkerState::Running(_)) {
                self.rate_segment(w, now, dilation);
            }
        }
        self.root_value = None;
        Ok(())
    }
}

/// Backstop for the backstop: if an unwind ever crosses `run` (so `teardown`
/// did not get its turn), the destructor still drives every core back to
/// full duty. Stats are already lost at that point; core state must not be.
impl<C> Drop for Exec<'_, C> {
    fn drop(&mut self) {
        if !self.torn_down {
            self.torn_down = true;
            self.restore_cores();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::{compute_leaf, fork_join, leaf, parallel_for};
    use crate::monitor::{CancelAt, PowerTrace, Watchdog};
    use crate::task::TaskLogic;
    use maestro_machine::snap::assert_rejects_corruption;
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

    /// Event-loop turns and steps for one bag of `leaves` identical compute
    /// leaves under a fork-join root on 16 workers.
    fn bag_turns_and_steps(leaves: usize, cost: Cost) -> (u64, u64) {
        let mut rt = runtime(16);
        let children: Vec<BoxTask<()>> = (0..leaves).map(|_| compute_leaf(cost)).collect();
        let root = fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()));
        let out = rt.run(&mut (), root).unwrap();
        (rt.loop_turns(), out.stats.steps)
    }

    /// The event core jumps the clock straight to the next event, so turns
    /// track events, not virtual time. The sparse bag runs ~0.37 virtual
    /// seconds in 18 turns; a loop that advanced in 100 µs ticks would take
    /// thousands with the same step count, which is why turns are pinned
    /// and not just steps.
    #[test]
    fn sparse_bag_takes_exact_loop_turns() {
        assert_eq!(bag_turns_and_steps(16, Cost::compute(1_000_000_000, 0.5)), (18, 35));
    }

    /// The dense 4096-leaf shape of the `flat_bag` throughput probe: one
    /// turn per leaf plus the root's fork and join.
    #[test]
    fn dense_bag_takes_exact_loop_turns() {
        assert_eq!(bag_turns_and_steps(4096, Cost::compute(100_000, 0.5)), (4_098, 8_195));
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
        // shutdown leaves every core at FULL duty — never stuck low.
        let mut rt = runtime(16);
        *rt.actuator_mut() = Actuator::new(
            rt.machine().topology().total_cores(),
            ActuatorConfig { breaker_threshold: 1, ..ActuatorConfig::default() },
        );
        rt.set_actuation_faults(Some(FaultPlan::new(7).with_duty_write_torn_rate(1.0)));
        rt.throttle_mut().active = true;
        rt.throttle_mut().limit_per_shepherd = 3;
        let children: Vec<BoxTask<()>> = (0..48).map(|_| compute_leaf(ms_cost(20))).collect();
        let root = fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()));
        let out = rt.run(&mut (), root).unwrap();
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
            rt2.resume_captured::<()>(&mut (), &cap.bytes, &SnapshotPlan::none()).unwrap();
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
            .resume_captured::<()>(&mut (), &cap1.bytes, &SnapshotPlan::suspend_at(s2))
            .unwrap()
            .suspended()
            .expect("second suspension");
        assert_eq!(cap2.t_ns, s2);
        let mut c = runtime(8);
        let out = match c.resume_captured::<()>(&mut (), &cap2.bytes, &SnapshotPlan::none()) {
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
                .resume_captured::<()>(&mut (), &snap.bytes, &SnapshotPlan::every(cadence))
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
            .resume_captured::<()>(&mut (), &cap.bytes, &SnapshotPlan::none())
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
        let mut rt2 = runtime(4);
        let err = rt2
            .resume_captured::<()>(&mut (), &cap.bytes[..cap.bytes.len() - 9], &SnapshotPlan::none())
            .expect_err("truncated snapshot must be rejected");
        assert!(matches!(err, SnapError::Truncated { .. }), "got {err:?}");

        let mut garbage = cap.bytes.clone();
        let last = garbage.len() - 1;
        garbage[last] ^= 0xff;
        let mut rt3 = runtime(4);
        assert!(
            rt3.resume_captured::<()>(&mut (), &garbage, &SnapshotPlan::none()).is_err(),
            "trailing corruption must not pass undetected"
        );

        // Every prefix is rejected, and no single-byte flip panics — in
        // decoding or in the resumed run that follows.
        assert_rejects_corruption(&cap.bytes, |input| {
            let plan = SnapshotPlan::suspend_at(3_000_000);
            runtime(4).resume_captured::<()>(&mut (), input, &plan).map(drop)
        });
    }

    #[test]
    fn runtime_level_snapshot_round_trips() {
        // The machine-layer Runtime::snapshot/restore pair (no task graph).
        let mut rt = runtime(4);
        rt.set_task_faults(Some(FaultPlan::new(9).with_task_panic_at_steps(&[1000])));
        rt.machine_mut().advance(3_000_000);
        let bytes = rt.snapshot();
        let mut rt2 = runtime(4);
        rt2.set_task_faults(Some(FaultPlan::new(9).with_task_panic_at_steps(&[1000])));
        rt2.restore(&bytes).unwrap();
        assert_eq!(rt2.machine().now_ns(), rt.machine().now_ns());
        assert_eq!(
            rt2.machine().total_energy_joules().to_bits(),
            rt.machine().total_energy_joules().to_bits()
        );
        assert_eq!(rt2.snapshot(), bytes, "re-snapshot is byte-identical");
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
            rt2.resume_captured::<()>(&mut (), &cap.bytes, &SnapshotPlan::none()).unwrap();
            trace_state(&mut rt2)
        };
        assert_eq!(unbroken, resumed, "power trace identical across the boundary");
    }
}
