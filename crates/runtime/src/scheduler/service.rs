//! Service runs: open-loop request injection, request deadlines, and the
//! terminal settlement with the request source.

use std::collections::{BTreeMap, BTreeSet};

use maestro_machine::snap::{Codec, SnapError, SnapReader};

use super::error::{internal, RuntimeError};
use super::snapshot::{CapturedRun, SnapshotPlan};
use super::{Exec, Runtime, TaskId, TaskRecord};
use crate::cancel::CancelToken;
use crate::report::RunOutcome;
use crate::service::RequestSource;
use crate::task::TaskValue;

/// A request the scheduler currently has in flight for a service run.
pub(super) struct LiveRequest {
    /// Root task of the request's tree.
    pub(super) task: TaskId,
    /// Absolute deadline, consumed (set to `None`) once it fires so a
    /// resumed run never re-fires it.
    deadline_ns: Option<u64>,
}

/// The injected requests of a service run.
#[derive(Default)]
pub(super) struct RequestTable {
    /// Live requests by id (BTreeMap: snapshot iteration must be ordered).
    pub(super) live: BTreeMap<u64, LiveRequest>,
    /// Request-root task → request id, for completion interception.
    task_req: BTreeMap<TaskId, u64>,
    /// Unfired deadlines, earliest first.
    deadlines: BTreeSet<(u64, u64)>,
    /// Round-robin injection cursor over shepherds.
    next_shep: usize,
}

impl RequestTable {
    /// Admit request `req_id`; false when the id or its task is already
    /// in the table.
    fn insert(&mut self, req_id: u64, req: LiveRequest) -> bool {
        if self.live.contains_key(&req_id) || self.task_req.insert(req.task, req_id).is_some() {
            return false;
        }
        if let Some(d) = req.deadline_ns {
            self.deadlines.insert((d, req_id));
        }
        self.live.insert(req_id, req);
        true
    }

    /// The snapshot codec (see [`Codec`]): the round-robin cursor, then
    /// `(request id, root task, unfired deadline)` in request-id order. The
    /// task index and deadline set rebuild as the entries decode, so fired
    /// deadlines (serialized as `None`) never re-fire after a resume.
    fn codec<K: Codec>(&self, c: &mut K, shepherds: usize) -> Result<RequestTable, SnapError> {
        let next_shep = c.u64(self.next_shep as u64)? as usize;
        if next_shep >= shepherds {
            return Err(SnapError::Corrupt("service round-robin cursor out of range"));
        }
        let mut table = RequestTable { next_shep, ..RequestTable::default() };
        c.seq(self.live.keys(), |c, &req_id| {
            let entry = self.live.get(&req_id);
            let req_id = c.u64(req_id)?;
            let task = c.u64(entry.map_or(0, |e| e.task as u64))? as usize;
            let deadline_ns = c.opt_u64(entry.and_then(|e| e.deadline_ns))?;
            if K::DECODING && !table.insert(req_id, LiveRequest { task, deadline_ns }) {
                return Err(SnapError::Corrupt("duplicate service request entry"));
            }
            Ok(())
        })?;
        Ok(table)
    }
}

/// Scheduler-side state of a service run: the request source plus the
/// injected-request table the event loop consults.
pub(super) struct ServiceCtl {
    source: Box<dyn RequestSource>,
    requests: RequestTable,
}

impl ServiceCtl {
    /// A service run's snapshot section (see [`Codec`]): the request table,
    /// then the source's own dynamic state, framed so restore can verify
    /// full consumption. Decodes into a copy of the table plus the source's
    /// section, for [`ServiceCtl::restore`].
    pub(super) fn codec<K: Codec>(
        &self,
        c: &mut K,
        shepherds: usize,
    ) -> Result<(RequestTable, Vec<u8>), SnapError> {
        let requests = self.requests.codec(c, shepherds)?;
        Ok((requests, c.framed(|w| self.source.snap_state(w))?))
    }

    /// Install state decoded by [`ServiceCtl::codec`]. The request table
    /// and the source's in-flight attempts must name the same requests.
    pub(super) fn restore(
        &mut self,
        (requests, source): (RequestTable, Vec<u8>),
    ) -> Result<(), SnapError> {
        self.requests = requests;
        let mut r = SnapReader::new(&source);
        self.source.restore_state(&mut r)?;
        r.finish()?;
        let live = &self.requests.live;
        if self.source.counters().in_flight != live.len() as u64
            || live.keys().any(|&id| !self.source.owns(id))
        {
            return Err(SnapError::Corrupt("service requests disagree with their source"));
        }
        Ok(())
    }
}

impl Runtime {
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
        Exec::serving(self, source).execute(app, None)
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
        Exec::serving(self, source).run_to_capture(app, None, plan)
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
        Exec::serving(self, source).resume(app, bytes, plan)
    }
}

impl<'r, C: 'static> Exec<'r, C> {
    /// A rootless service run fed by `source`.
    fn serving(rt: &'r mut Runtime, source: Box<dyn RequestSource>) -> Self {
        let mut exec = Exec::new(rt, CancelToken::new());
        exec.service = Some(ServiceCtl { source, requests: RequestTable::default() });
        exec
    }

    /// The earliest service event the clock must not jump past: the
    /// source's next arrival/retry, or the earliest unfired request
    /// deadline. While draining the source is never polled again, so its
    /// due time is excluded (a stale retry deadline must not pin the
    /// clock).
    pub(super) fn service_due(&self) -> Option<u64> {
        let svc = self.service.as_ref()?;
        let src = if self.run.draining { None } else { svc.source.next_due_ns() };
        src.into_iter().chain(svc.requests.deadlines.first().map(|&(d, _)| d)).min()
    }

    /// One service turn: fire due request deadlines (cancelling the
    /// affected request subtrees), then poll the source for due arrivals
    /// and retries and inject every emitted request as a parentless task
    /// tree. No-op for batch runs.
    pub(super) fn service_pass(&mut self) -> Result<(), RuntimeError> {
        if self.service.is_none() {
            return Ok(());
        }
        let now = self.rt.machine.now_ns();

        // Deadlines first: a request whose deadline passed must be
        // cancelled before any new work is admitted at this instant. The
        // entry is consumed (deadline set to `None`) as it fires, so a
        // snapshot taken after the fire never re-fires it on resume.
        while let Some(svc) = self.service.as_mut() {
            let requests = &mut svc.requests;
            let Some(&(due, req_id)) = requests.deadlines.first() else { break };
            if due > now {
                break;
            }
            requests.deadlines.pop_first();
            let Some(entry) = requests.live.get_mut(&req_id) else {
                return Err(internal("deadline names a request that is not live", now));
            };
            entry.deadline_ns = None;
            let task = entry.task;
            if self.run.draining {
                // Everything is already being cancelled through the run
                // token; just consume the entry.
                continue;
            }
            self.run.stats.slo_violations += 1;
            match self.tasks.get(task) {
                Some(Some(rec)) => rec.cancel.cancel(),
                _ => return Err(internal("deadline request task missing", now)),
            }
        }

        // Arrivals and retries (never while draining: a dying run admits
        // nothing new).
        let due = !self.run.draining
            && self.service.as_ref().and_then(|s| s.source.next_due_ns()).is_some_and(|d| d <= now);
        if due {
            let mut out = std::mem::take(&mut self.injection_scratch);
            out.clear();
            if let Some(svc) = self.service.as_mut() {
                svc.source.poll(now, &mut out);
                self.rt.work.source_polls += 1;
            }
            let n_sheps = self.shepherds.len();
            for inj in out.drain(..) {
                let Some(svc) = self.service.as_mut() else { break };
                let shep = svc.requests.next_shep;
                svc.requests.next_shep = (shep + 1) % n_sheps;
                let record = TaskRecord::new(
                    Some(inj.spec.into_task()),
                    None,
                    shep,
                    self.run_cancel.child(),
                );
                let task = self.enqueue(shep, record);
                if let Some(svc) = self.service.as_mut() {
                    let req = LiveRequest { task, deadline_ns: inj.deadline_ns };
                    let admitted = svc.requests.insert(inj.req_id, req);
                    debug_assert!(admitted, "source injected request {} twice", inj.req_id);
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
        let drained = self.run.draining;
        let done = self
            .service
            .as_ref()
            .is_some_and(|s| s.requests.live.is_empty() && (drained || s.source.exhausted()));
        if done && self.live_tasks == 0 {
            self.root_value = Some(TaskValue::none());
            // Application completion wakes spinners.
            self.wake_spinners();
        }
    }

    /// The root of request tree `task` completed: settle the request with
    /// the source (as cancelled when its scope fired), and end the run
    /// once the source is exhausted and no request remains.
    pub(super) fn settle_request(
        &mut self,
        task: TaskId,
        cancelled: bool,
        now: u64,
    ) -> Result<(), RuntimeError> {
        if let Some(svc) = self.service.as_mut() {
            let requests = &mut svc.requests;
            let req_id = requests
                .task_req
                .remove(&task)
                .ok_or_else(|| internal("parentless task is not a request", now))?;
            let entry = requests
                .live
                .remove(&req_id)
                .ok_or_else(|| internal("completed request is not live", now))?;
            if let Some(d) = entry.deadline_ns {
                requests.deadlines.remove(&(d, req_id));
            }
            svc.source.on_complete(req_id, now, cancelled);
        }
        self.maybe_finish_service();
        Ok(())
    }

    /// Terminal service accounting, before teardown: on an error path the
    /// still-in-flight requests are handed to the source as failed (and
    /// the source folds its pending retries in with them — the run will
    /// never poll again); on every terminal path the source's shed/retry
    /// tallies land in the run's [`RunStats`](crate::RunStats). Suspension
    /// must *not* call this — a suspended run is not terminal.
    pub(super) fn finalize_service(&mut self, terminal_err: bool) {
        let now = self.rt.machine.now_ns();
        if let Some(svc) = self.service.as_mut() {
            if terminal_err || self.run.draining {
                let ids: Vec<u64> = svc.requests.live.keys().copied().collect();
                svc.source.drain(now, &ids);
                svc.requests = RequestTable::default();
            }
            let c = svc.source.counters();
            self.run.stats.requests_shed = c.shed;
            self.run.stats.retries_spent = c.retries_spent;
        }
    }
}
