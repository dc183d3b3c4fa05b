//! Whole-run snapshots: the capture plan and its fences, the codecs of the
//! runtime block and of a running `Exec`, and restore with every
//! structural check a resumed run relies on.

use std::collections::VecDeque;

use maestro_machine::snap::{Codec, PagedBytes, SnapError, SnapReader, SnapWriter};
use maestro_machine::{Actuator, FaultPlan};

use super::error::{RuntimeError, TaskFailure};
use super::segment::{Segment, WorkerState};
use super::{Exec, LoopEnd, RunAnchors, RunScalars, Shepherd, TaskId, TaskRecord};
use crate::cancel::CancelToken;
use crate::report::RunOutcome;
use crate::spec::{SpecTask, TaskSpec};
use crate::task::{BoxTask, TaskValue};

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
    /// The versioned snapshot bytes (see `maestro_machine::snap`), paged:
    /// a page equal to the previous capture's page at the same offset is
    /// shared with it.
    pub bytes: PagedBytes,
}

/// How a captured run ended.
#[derive(Debug)]
pub enum RunEnd {
    /// The root task finished; the outcome is measured from the *original*
    /// run start (a resumed run reports exactly like an unbroken one).
    Completed(RunOutcome),
    /// The run reached its [`SnapshotPlan::suspend_at_ns`] fence and parked;
    /// feed the capture to [`crate::Runtime::resume_captured`] to continue
    /// it.
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
pub(super) struct CaptureCtl {
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
    /// Every capture encodes into this buffer, reused from one capture to
    /// the next, and is then paged against the previous capture.
    scratch: Vec<u8>,
}

impl RunAnchors {
    /// The snapshot codec (see [`Codec`]): start time, then start energy.
    fn codec<K: Codec>(&self, c: &mut K) -> Result<Self, SnapError> {
        Ok(RunAnchors { start_ns: c.u64(self.start_ns)?, start_j: c.f64(self.start_j)? })
    }
}

impl RunScalars {
    /// The snapshot codec (see [`Codec`]): every field in declaration
    /// order. `generation` is the run token's, which the cancel
    /// bookkeeping can never be ahead of.
    fn codec<K: Codec>(&self, c: &mut K, generation: u64) -> Result<Self, SnapError> {
        let last_cancel_gen = c.u64(self.last_cancel_gen)?;
        if last_cancel_gen > generation {
            return Err(SnapError::Corrupt("cancel bookkeeping ahead of the token tree"));
        }
        Ok(RunScalars {
            last_cancel_gen,
            draining: c.bool(self.draining)?,
            deadline_abs_ns: c.opt_u64(self.deadline_abs_ns)?,
            wake_epoch: c.u64(self.wake_epoch)?,
            failure: c.opt(self.failure.as_ref(), |c, f| {
                Ok(TaskFailure {
                    message: c.str(&f.message)?,
                    task_path: c.seq(&f.task_path, |c, p| c.str(p))?,
                    worker: c.u64(f.worker as u64)? as usize,
                    t_ns: c.u64(f.t_ns)?,
                })
            })?,
            stats: self.stats.codec(c)?,
            start_actuation: self.start_actuation.codec(c)?,
            pending_overhead_ns: c.seq_fixed(
                &self.pending_overhead_ns,
                "pending-overhead worker count mismatch",
                |c, &o| c.f64(o),
            )?,
        })
    }
}

impl Shepherd {
    /// The snapshot codec (see [`Codec`]): the queue, then the active count.
    fn codec<K: Codec>(&self, c: &mut K) -> Result<Self, SnapError> {
        Ok(Shepherd {
            queue: c.seq(&self.queue, |c, &id| Ok(c.u64(id as u64)? as usize))?.into(),
            active: c.u64(self.active as u64)? as usize,
        })
    }
}

impl<C: 'static> TaskRecord<C> {
    /// The snapshot codec for one live record (see [`Codec`]); `shepherds`
    /// bounds its home. Task logic travels as its spec and phase: the
    /// writer asks the live logic (and each staged child) for them, and
    /// fails with a typed error for closure-based logic or an inbox holding
    /// opaque values. The reader rebuilds each as a [`SpecTask`] parked at
    /// its phase, under a placeholder token that carries the record's
    /// cancel flag until `link_task_graph` re-links the tree. `None` on the
    /// writer.
    fn codec<K: Codec>(&self, c: &mut K, shepherds: usize) -> Result<Option<Self>, SnapError> {
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
        let resume_pending = c.bool(self.resume_pending)?;
        let staged = c.seq(&staged, |c, (s, p)| Ok((s.codec(c)?, c.u8(*p)?)))?;
        let cancelled = c.bool(self.cancel.local_flag())?;
        if !K::DECODING {
            return Ok(None);
        }
        let children = match &spec {
            TaskSpec::Leaf { .. } => 0,
            TaskSpec::ForkJoin { children, .. } => children.len(),
        };
        if inbox_len > children {
            return Err(SnapError::Corrupt("task inbox exceeds its child count"));
        }
        let mut inbox = Vec::new();
        inbox.resize_with(inbox_len, TaskValue::none);
        let resume = |(spec, phase)| Box::new(SpecTask::resume(spec, phase)) as BoxTask<C>;
        Ok(Some(TaskRecord {
            logic: Some(resume((spec, phase))),
            parent,
            home_shepherd,
            pending_children,
            inbox,
            resume_pending,
            staged_children: staged.into_iter().map(resume).collect(),
            cancel: {
                let cancel = CancelToken::new();
                cancel.restore_flag(cancelled);
                cancel
            },
        }))
    }
}

/// Re-link a decoded task table's cancellation tree under `run_cancel`,
/// parent-first, checking every link on the way, and return the roots in
/// ascending id order. Slot reuse means a child's id can be lower than its
/// parent's, so a DFS from the roots — not id order — drives token
/// derivation. A batch run (`rooted`) has exactly one root; a service
/// run's graph is a *forest* (every live request is a parentless tree, and
/// between requests it may be empty), each root deriving directly from the
/// run token.
fn link_task_graph<C>(
    tasks: &mut [Option<TaskRecord<C>>],
    run_cancel: &CancelToken,
    rooted: bool,
) -> Result<Vec<TaskId>, SnapError> {
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
    if rooted && roots.is_empty() {
        return Err(SnapError::Corrupt("task graph has no root"));
    }
    if rooted && roots.len() > 1 {
        return Err(SnapError::Corrupt("task graph has multiple roots"));
    }
    // Each token replaces the record's placeholder, keeping its flag.
    let relink = |rec: &mut TaskRecord<C>, parent: &CancelToken| {
        let token = parent.child();
        token.restore_flag(rec.cancel.local_flag());
        rec.cancel = token;
    };
    let mut stack: Vec<TaskId> = Vec::with_capacity(roots.len());
    for &root in &roots {
        if let Some(rec) = tasks[root].as_mut() {
            relink(rec, run_cancel);
        }
        stack.push(root);
    }
    let mut visited: usize = 0;
    while let Some(id) = stack.pop() {
        visited += 1;
        let parent_token = tasks[id]
            .as_ref()
            .map(|rec| rec.cancel.clone())
            .ok_or(SnapError::Corrupt("task graph visits a freed slot"))?;
        for &c in &children_of[id] {
            if let Some(rec) = tasks[c].as_mut() {
                relink(rec, &parent_token);
            }
            stack.push(c);
        }
    }
    if visited != tasks.iter().flatten().count() {
        return Err(SnapError::Corrupt("task graph is not a tree"));
    }
    // A parent waits on exactly its staged and its live children.
    for (rec, children) in tasks.iter().zip(&children_of) {
        if rec
            .as_ref()
            .is_some_and(|r| r.pending_children != r.staged_children.len() + children.len())
        {
            return Err(SnapError::Corrupt("task pending-children count disagrees with graph"));
        }
    }
    Ok(roots)
}

impl<'r, C: 'static> Exec<'r, C> {
    /// Install the fence/capture plan for this run. Times in `plan` are
    /// relative to the (possibly restored) run start; fences already behind
    /// the clock are dropped, so a resumed run picks up the cadence exactly
    /// where the suspended run left it.
    pub(super) fn arm_capture(&mut self, plan: &SnapshotPlan) {
        let fp = self.rt.config_fingerprint();
        let start = self.anchors.start_ns;
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
            scratch: Vec::new(),
        });
    }

    /// The earliest pending fence strictly ahead of the clock, if any.
    pub(super) fn next_fence_abs(&self) -> Option<u64> {
        let ctl = self.capture.as_ref()?;
        [
            ctl.cadence_ns.map(|_| ctl.next_cadence_abs),
            ctl.suspend_at_abs,
            ctl.extra_fences.front().copied(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Process fences the clock has reached: drop passed advance-only
    /// fences, take due cadence snapshots, and detect the suspension point.
    /// Returns true when the loop must stop (suspension, or a failed
    /// serialization whose error is parked in the control block).
    pub(super) fn capture_fences_due(&mut self) -> bool {
        let Some(ctl) = self.capture.as_ref() else { return false };
        let now = self.rt.machine.now_ns();
        // Every fence — capture-free extra fence, cadence capture, or
        // suspension — is a full integration barrier: the machine folds all
        // lazy thermal/energy state to the fence time. A capturing fence
        // would fold implicitly inside `Machine::codec`; doing it for *every*
        // fence keeps the sync schedule (and therefore the float bits) of a
        // fence-matched unbroken run identical to a suspended/resumed one.
        if ctl.extra_fences.front().is_some_and(|&f| f <= now)
            || (ctl.cadence_ns.is_some() && ctl.next_cadence_abs <= now)
            || ctl.suspend_at_abs.is_some_and(|t| t <= now)
        {
            self.rt.machine.sync_all();
            // Same discipline for the scheduler's lazy state: reconcile
            // rates first (the previous iteration's completions may have
            // moved φ and no reconciliation has run since), then fold every
            // running segment to the fence. The serialized remaining-work
            // values — and the fold schedule itself — thereby match between
            // a fence-matched unbroken run and a suspended/resumed one,
            // which re-rates all segments at the restore point with exactly
            // these inputs.
            self.reconcile_rates();
            self.rerate_running();
        }
        // Drop passed capture-free fences, then take every due cadence
        // capture, and last the suspension capture.
        loop {
            let Some(ctl) = self.capture.as_mut() else { return false };
            while ctl.extra_fences.front().is_some_and(|&f| f <= now) {
                ctl.extra_fences.pop_front();
            }
            let cadence_due = ctl.next_cadence_abs <= now;
            if !cadence_due && ctl.suspend_at_abs.is_none_or(|t| t > now) {
                return false;
            }
            let snap = self.snapshot_bytes();
            let Some(ctl) = self.capture.as_mut() else { return false };
            match snap {
                Ok(bytes) if cadence_due => {
                    ctl.snapshots.push(RunCapture { t_ns: now, bytes });
                    let c = ctl.cadence_ns.unwrap_or(u64::MAX);
                    ctl.next_cadence_abs = ctl.next_cadence_abs.saturating_add(c);
                }
                Ok(bytes) => {
                    ctl.suspended = Some(RunCapture { t_ns: now, bytes });
                    return true;
                }
                Err(e) => {
                    ctl.error = Some(e);
                    return true;
                }
            }
        }
    }

    /// Drive a run to its end under `plan` (the fresh-start path passes
    /// `root`; the resume path restores the graph first and passes `None`).
    pub(super) fn run_to_capture(
        mut self,
        app: &mut C,
        root: Option<BoxTask<C>>,
        plan: &SnapshotPlan,
    ) -> Result<CapturedRun, SnapError> {
        self.arm_capture(plan);
        let result = self.drive(app, root);
        let mut ctl =
            self.capture.take().ok_or(SnapError::Corrupt("captured run without a capture plan"))?;
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

    /// Restore a run from `bytes` and drive it on under `plan`.
    pub(super) fn resume(
        mut self,
        app: &mut C,
        bytes: &[u8],
        plan: &SnapshotPlan,
    ) -> Result<CapturedRun, SnapError> {
        self.restore_exec(bytes)?;
        self.run_to_capture(app, None, plan)
    }

    /// Serialize the *entire* run state — machine, actuator, fault cursors,
    /// cancellation tree, task graph, queues, worker segments, counters, and
    /// every monitor — into one versioned snapshot. Fails with a typed error
    /// when the graph holds a task that cannot be captured (closure-based
    /// logic, or an inbox holding opaque values).
    pub(super) fn snapshot_bytes(&mut self) -> Result<PagedBytes, SnapError> {
        // The control block is out of `self` while the run encodes, which
        // lets the encoding borrow the block's reused buffer.
        let mut ctl =
            self.capture.take().ok_or(SnapError::Corrupt("captured run without a capture plan"))?;
        let mut w = SnapWriter::with_buffer(std::mem::take(&mut ctl.scratch));
        w.header(ctl.fingerprint);
        let encoded = self.codec(&mut w);
        ctl.scratch = w.finish();
        // A cadence run retains every capture, and consecutive captures
        // mostly agree: page against the last one so unchanged pages are
        // kept once.
        let none = PagedBytes::default();
        let prev = ctl.snapshots.last().map_or(&none, |c| &c.bytes);
        let paged = encoded.map(|_| PagedBytes::share(&ctl.scratch, prev));
        #[cfg(maestro_verify)]
        if let Ok(paged) = &paged {
            assert!(paged.to_vec() == ctl.scratch, "paged capture differs from its encoding");
        }
        self.capture = Some(ctl);
        paged
    }

    /// Rebuild the entire run state from bytes written by `snapshot_bytes`
    /// into this fresh `Exec`. The runtime's static configuration must
    /// match the captured one, and nothing is installed until the whole
    /// snapshot has decoded and passed every structural check.
    pub(super) fn restore_exec(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes);
        r.header(self.rt.config_fingerprint())?;
        let install = self.codec(&mut r)?;
        r.finish()?;
        install.map_or(Ok(()), |install| install(self))
    }

    /// The snapshot codec for a whole run (see [`Codec`]). Every part
    /// decodes into a copy of itself, and decoding checks every structural
    /// relation between them — task ids, queue entries, links, counts.
    /// The reader gets back the install, to run once the frame is known
    /// to be fully consumed; the writer gets `None`.
    fn codec<K: Codec>(
        &self,
        c: &mut K,
    ) -> Result<Option<impl FnOnce(&mut Self) -> Result<(), SnapError>>, SnapError> {
        // Run anchors: reporting stays relative to the original start.
        let anchors = self.anchors.codec(c)?;
        // The runtime block: machine, actuator, task-fault cursor, and the
        // throttle flag (the limit is configuration).
        let machine = self.rt.machine.codec(c)?;
        let actuator = self.rt.actuator.codec(c)?;
        let task_faults = FaultPlan::cursor_codec(self.rt.task_faults.as_ref(), c)?;
        let throttled = c.bool(self.rt.throttle.active)?;
        let clock_ns = machine.as_ref().unwrap_or(&self.rt.machine).now_ns();
        if anchors.start_ns > clock_ns {
            return Err(SnapError::Corrupt("run starts after the machine clock"));
        }
        let run_cancel = self.run_cancel.codec(c)?;
        let run = self.run.codec(c, run_cancel.generation())?;
        // Task table, slot-exact: ids are slot indices and the free list
        // drives allocation order, so the layout itself is state.
        let n_sheps = self.shepherds.len();
        let blank = TaskRecord::new(None, None, 0, CancelToken::new());
        let mut tasks = c.seq(&self.tasks, |c, slot| {
            if !c.bool(slot.is_some())? {
                return Ok(None);
            }
            slot.as_ref().unwrap_or(&blank).codec(c, n_sheps)
        })?;
        let free = c.seq(&self.free, |c, &id| Ok(c.u64(id as u64)? as usize))?;
        let shepherds =
            c.seq_fixed(&self.shepherds, "shepherd count mismatch", |c, s| s.codec(c))?;
        let workers =
            c.seq_fixed(&self.workers, "worker count mismatch", |c, w| w.codec(c, clock_ns))?;
        // Every monitor, each framed so restore can verify full consumption
        // of its section.
        let monitors = c.seq_fixed(&self.rt.monitors, "monitor count mismatch", |c, m| {
            c.framed(|w| m.snap_state(w))
        })?;
        if c.bool(self.service.is_some())? != self.service.is_some() {
            return Err(SnapError::Corrupt("service section does not match run mode"));
        }
        let service = self.service.as_ref().map(|svc| svc.codec(c, n_sheps)).transpose()?;
        if !K::DECODING {
            return Ok(None);
        }

        // Teardown reports actuation as deltas from the run start.
        let start = &run.start_actuation;
        let end = actuator.as_ref().map_or(*start, Actuator::totals);
        if start.attempts > end.attempts
            || start.verify_failures > end.verify_failures
            || start.failed_applies > end.failed_applies
            || start.forced_resets > end.forced_resets
            || start.breaker_trips > end.breaker_trips
        {
            return Err(SnapError::Corrupt("run-start actuation ahead of the actuator"));
        }
        let roots = link_task_graph(&mut tasks, &run_cancel, self.service.is_none())?;
        let live = tasks.iter().flatten().count();
        // Free list, order-exact (allocation pops from the back): every
        // free slot exactly once, or a resumed run would allocate task ids
        // the unbroken run does not.
        let is_live = |id: TaskId| tasks.get(id).is_some_and(Option::is_some);
        let mut seen_free = vec![false; tasks.len()];
        for &id in &free {
            if id >= tasks.len() || tasks[id].is_some() || seen_free[id] {
                return Err(SnapError::Corrupt("free-list entry is not a free slot"));
            }
            seen_free[id] = true;
        }
        if free.len() != tasks.len() - live {
            return Err(SnapError::Corrupt("free list omits a free slot"));
        }
        if shepherds.iter().flat_map(|s| &s.queue).any(|&id| !is_live(id)) {
            return Err(SnapError::Corrupt("queued task id is not live"));
        }
        let running = |w: &WorkerState| match w {
            WorkerState::Running(Segment { task, .. }) => *task,
            _ => None,
        };
        if workers.iter().filter_map(running).any(|id| !is_live(id)) {
            return Err(SnapError::Corrupt("running task id is not live"));
        }
        // A shepherd's active count is its workers running a task.
        let mut active = vec![0; shepherds.len()];
        for (w, state) in workers.iter().enumerate() {
            if running(state).is_some() {
                active[self.worker_shep[w]] += 1;
            }
        }
        if shepherds.iter().zip(&active).any(|(s, &n)| s.active != n) {
            return Err(SnapError::Corrupt("shepherd active count disagrees with workers"));
        }
        // Every request must map to a live parentless tree, and every root
        // must be a request.
        if let Some((requests, _)) = &service {
            if requests.live.len() != roots.len() {
                return Err(SnapError::Corrupt("service request count does not match roots"));
            }
            let is_root = |id: TaskId| {
                tasks.get(id).and_then(Option::as_ref).is_some_and(|rec| rec.parent.is_none())
            };
            if requests.live.values().any(|req| !is_root(req.task)) {
                return Err(SnapError::Corrupt("service request task is not a live root"));
            }
        }

        Ok(Some(move |exec: &mut Self| -> Result<(), SnapError> {
            // The runtime block and its monitors first (monitors restore
            // against the installed machine, in registration order), then
            // the run itself.
            if let (Some(machine), Some(actuator)) = (machine, actuator) {
                exec.rt.machine = machine;
                exec.rt.actuator = actuator;
            }
            FaultPlan::install_cursor(exec.rt.task_faults.as_ref(), task_faults);
            exec.rt.throttle.active = throttled;
            for (m, section) in exec.rt.monitors.iter_mut().zip(&monitors) {
                let mut r = SnapReader::new(section);
                m.restore_state(&exec.rt.machine, &mut r)?;
                r.finish()?;
            }
            // The throttle *limit* is configuration, deliberately outside
            // the snapshot (one snapshot forks across limit variants), but
            // monitors that drive the limit as policy re-apply their
            // restored ladder level here.
            for m in &exec.rt.monitors {
                m.restore_throttle(&mut exec.rt.throttle);
            }
            if let (Some(svc), Some(service)) = (exec.service.as_mut(), service) {
                svc.restore(service)?;
            }
            exec.anchors = anchors;
            exec.run_cancel = run_cancel;
            exec.run = run;
            exec.tasks = tasks;
            exec.free = free;
            exec.live_tasks = live as u64;
            exec.shepherds = shepherds;
            exec.workers = workers;
            // Derived state. The exec is fresh, so its completion queue,
            // segment generations and root value are already empty.
            exec.active_total = exec.shepherds.iter().map(|s| s.active).sum();
            exec.queued_total = exec.shepherds.iter().map(|s| s.queue.len()).sum();
            let workers = exec.workers.iter();
            exec.spinner_count =
                workers.clone().filter(|w| matches!(w, WorkerState::Spinning { .. })).count();
            exec.running_count = workers.filter(|w| matches!(w, WorkerState::Running(_))).count();
            exec.rebuild_timers();
            // Force-stale so the first resumed iteration runs a dispatch
            // pass. If the fence-matched unbroken run skips that pass, it
            // is a no-op here too (no eligible worker), so the runs stay
            // bit-identical.
            exec.wake_epoch_seen = exec.run.wake_epoch.wrapping_add(1);
            exec.observe_rates();
            // Re-rate every restored segment at the restore instant — the
            // same fold-and-rate the unbroken run performed at this fence.
            exec.rerate_running();
            Ok(())
        }))
    }
}
