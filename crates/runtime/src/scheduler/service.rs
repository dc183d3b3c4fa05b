//! Service runs: open-loop request injection, request deadlines, and the
//! terminal settlement with the request source.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use maestro_machine::snap::{Codec, SnapError, SnapReader};

use super::error::{internal, RuntimeError};
use super::snapshot::{CapturedRun, SnapshotPlan};
use super::{Exec, Runtime, RuntimeWork, TaskId, TaskRecord};
use crate::cancel::CancelToken;
use crate::report::RunOutcome;
use crate::service::RequestSource;
use crate::task::TaskValue;

/// A request the scheduler currently has in flight for a service run.
pub(super) struct LiveRequest {
    /// Root task of the request's tree.
    task: TaskId,
    /// The source-assigned request id.
    req_id: u64,
    /// Absolute deadline, consumed (set to `None`) once it fires so a
    /// resumed run never re-fires it.
    deadline_ns: Option<u64>,
}

/// The live requests, found by root task in O(1): a dense list, so their
/// memory follows the live count, plus a 4-byte position per task id.
#[derive(Default)]
struct Requests {
    /// The live requests, unordered (a settle swap-removes).
    live: Vec<LiveRequest>,
    /// `pos[t]` is one more than the index in `live` of the request rooted
    /// at task `t`, or 0 when `t` roots none. Task ids are reused slot
    /// indices, so this is no longer than the task table.
    pos: Vec<u32>,
}

impl Requests {
    fn get(&self, task: TaskId) -> Option<&LiveRequest> {
        let i = self.pos.get(task)?.checked_sub(1)?;
        self.live.get(i as usize)
    }

    /// True when `entry` names the unfired deadline of the live request
    /// rooted at its task. A settled request's task roots nothing or a later
    /// request (task ids are reused), whose id differs.
    fn is_live(&self, &Reverse((d, req_id, task)): &DeadlineEntry) -> bool {
        self.get(task).is_some_and(|r| r.req_id == req_id && r.deadline_ns == Some(d))
    }
}

/// A deadline heap entry, `(deadline_ns, req_id, root task)`: min-first,
/// it fires in `(deadline, request id)` order.
type DeadlineEntry = Reverse<(u64, u64, TaskId)>;

/// Stale deadline entries the heap may hold beyond twice the live request
/// count before they are purged (amortized O(1) per push).
const PURGE_SLACK: usize = 64;

/// The injected requests of a service run.
#[derive(Default)]
pub(super) struct RequestTable {
    requests: Requests,
    /// Deadlines of live requests, earliest first. Settled and fired
    /// requests leave their entries behind; those are dropped lazily, and
    /// the top is cleaned after every settle and fire, so the top is always
    /// a live, unfired deadline. Stale entries below the top are purged
    /// once the heap holds more than twice the live requests plus
    /// [`PURGE_SLACK`], so requests that settle early under a later
    /// deadline cannot pile them up.
    deadlines: BinaryHeap<DeadlineEntry>,
    /// Round-robin injection cursor over shepherds.
    next_shep: usize,
}

impl RequestTable {
    /// Admit request `req_id` rooted at `task`; false when `task` already
    /// roots a live request. Request ids are unique for the run by the
    /// source contract.
    fn insert(
        &mut self,
        task: TaskId,
        req_id: u64,
        deadline_ns: Option<u64>,
        work: &mut RuntimeWork,
    ) -> bool {
        let reqs = &mut self.requests;
        if reqs.get(task).is_some() {
            return false;
        }
        let Ok(pos) = u32::try_from(reqs.live.len() + 1) else { return false };
        if task >= reqs.pos.len() {
            reqs.pos.resize(task + 1, 0);
        }
        reqs.pos[task] = pos;
        reqs.live.push(LiveRequest { task, req_id, deadline_ns });
        if let Some(d) = deadline_ns {
            self.deadlines.push(Reverse((d, req_id, task)));
            work.deadline_pushes += 1;
            if self.deadlines.len() > 2 * reqs.live.len() + PURGE_SLACK {
                let before = self.deadlines.len();
                self.deadlines.retain(|e| reqs.is_live(e));
                work.deadline_pops += (before - self.deadlines.len()) as u64;
            }
        }
        true
    }

    /// Settle the request rooted at `task`, returning it.
    fn remove(&mut self, task: TaskId, work: &mut RuntimeWork) -> Option<LiveRequest> {
        let reqs = &mut self.requests;
        let i = reqs.pos.get(task)?.checked_sub(1)? as usize;
        reqs.pos[task] = 0;
        let req = reqs.live.swap_remove(i);
        if let Some(moved) = reqs.live.get(i) {
            reqs.pos[moved.task] = i as u32 + 1;
        }
        self.clean_top(work);
        Some(req)
    }

    /// Pop stale entries off the top of the deadline heap.
    fn clean_top(&mut self, work: &mut RuntimeWork) {
        while let Some(top) = self.deadlines.peek() {
            if self.requests.is_live(top) {
                break;
            }
            self.deadlines.pop();
            work.deadline_pops += 1;
        }
    }

    /// Fire the earliest deadline if it is due at `now`: consume it and
    /// return the request's root task.
    fn fire_due(
        &mut self,
        now: u64,
        work: &mut RuntimeWork,
    ) -> Result<Option<TaskId>, RuntimeError> {
        let Some(&top) = self.deadlines.peek() else { return Ok(None) };
        let Reverse((due, _, task)) = top;
        if due > now {
            return Ok(None);
        }
        self.deadlines.pop();
        work.deadline_pops += 1;
        // Eager cleaning keeps the top live.
        if !self.requests.is_live(&top) {
            return Err(internal("deadline names a request that is not live", now));
        }
        let i = self.requests.pos[task] as usize - 1;
        self.requests.live[i].deadline_ns = None;
        self.clean_top(work);
        Ok(Some(task))
    }

    /// The earliest unfired deadline of a live request.
    fn next_deadline(&self) -> Option<u64> {
        let next = self.deadlines.peek().map(|&Reverse((d, req_id, _))| (d, req_id));
        #[cfg(maestro_verify)]
        assert_eq!(
            next,
            self.iter().filter_map(|r| Some((r.deadline_ns?, r.req_id))).min(),
            "deadline heap diverged from the request scan"
        );
        next.map(|(d, _)| d)
    }

    /// Number of live requests.
    pub(super) fn len(&self) -> usize {
        let reqs = &self.requests;
        #[cfg(maestro_verify)]
        assert!(
            reqs.pos.iter().filter(|&&p| p != 0).count() == reqs.live.len()
                && reqs.live.iter().enumerate().all(|(i, r)| reqs.pos[r.task] as usize == i + 1),
            "live request list diverged from the task-position scan"
        );
        reqs.live.len()
    }

    /// True when no request is live.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The live requests, unordered.
    fn iter(&self) -> impl Iterator<Item = &LiveRequest> {
        self.requests.live.iter()
    }

    /// Root tasks of the live requests.
    pub(super) fn tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.iter().map(|r| r.task)
    }

    /// Live request ids, increasing.
    fn sorted_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.iter().map(|r| r.req_id).collect();
        ids.sort_unstable();
        ids
    }

    /// The snapshot codec (see [`Codec`]): the round-robin cursor, then
    /// `(request id, root task, unfired deadline)` in increasing request-id
    /// order. Decoding checks each root task against the `n_tasks` slots of
    /// the decoded task table before the position table grows to it, and
    /// rebuilds the deadline heap from the unfired deadlines, so fired
    /// deadlines (serialized as `None`) never re-fire after a resume.
    fn codec<K: Codec>(
        &self,
        c: &mut K,
        shepherds: usize,
        n_tasks: usize,
    ) -> Result<RequestTable, SnapError> {
        let next_shep = c.u64(self.next_shep as u64)? as usize;
        if next_shep >= shepherds {
            return Err(SnapError::Corrupt("service round-robin cursor out of range"));
        }
        let mut table = RequestTable { next_shep, ..RequestTable::default() };
        let mut entries = Vec::new();
        if !K::DECODING {
            entries = self.iter().map(|r| (r.req_id, r.task, r.deadline_ns)).collect();
            entries.sort_unstable_by_key(|&(req_id, ..)| req_id);
        }
        let mut prev_id = None;
        let mut work = RuntimeWork::default();
        c.seq(&entries, |c, &(req_id, task, deadline_ns)| {
            let req_id = c.u64(req_id)?;
            let task = c.u64(task as u64)?;
            let deadline_ns = c.opt_u64(deadline_ns)?;
            if !K::DECODING {
                return Ok(());
            }
            if prev_id.is_some_and(|p| req_id <= p) {
                return Err(SnapError::Corrupt("service request ids not increasing"));
            }
            prev_id = Some(req_id);
            if task >= n_tasks as u64 {
                return Err(SnapError::Corrupt("service request task beyond the task table"));
            }
            if !table.insert(task as usize, req_id, deadline_ns, &mut work) {
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
    /// section, for [`ServiceCtl::restore`]; `n_tasks` is the decoded task
    /// table's length.
    pub(super) fn codec<K: Codec>(
        &self,
        c: &mut K,
        shepherds: usize,
        n_tasks: usize,
    ) -> Result<(RequestTable, Vec<u8>), SnapError> {
        let requests = self.requests.codec(c, shepherds, n_tasks)?;
        Ok((requests, c.framed(|w| self.source.snap_state(w))?))
    }

    /// Install state decoded by [`ServiceCtl::codec`]. The request table
    /// and the source's in-flight attempts must name the same requests.
    /// The rebuilt deadline heap's entries count as pushes in `work`.
    pub(super) fn restore(
        &mut self,
        (requests, source): (RequestTable, Vec<u8>),
        work: &mut RuntimeWork,
    ) -> Result<(), SnapError> {
        self.requests = requests;
        let mut r = SnapReader::new(&source);
        self.source.restore_state(&mut r)?;
        r.finish()?;
        let requests = &self.requests;
        if self.source.counters().in_flight != requests.len() as u64
            || requests.iter().any(|r| !self.source.owns(r.req_id))
        {
            return Err(SnapError::Corrupt("service requests disagree with their source"));
        }
        work.deadline_pushes += requests.deadlines.len() as u64;
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
        src.into_iter().chain(svc.requests.next_deadline()).min()
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
            let Some(task) = svc.requests.fire_due(now, &mut self.rt.work)? else { break };
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
                    let work = &mut self.rt.work;
                    let admitted = svc.requests.insert(task, inj.req_id, inj.deadline_ns, work);
                    debug_assert!(admitted, "request {} took a live task slot", inj.req_id);
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
            .is_some_and(|s| s.requests.is_empty() && (drained || s.source.exhausted()));
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
            let req = svc
                .requests
                .remove(task, &mut self.rt.work)
                .ok_or_else(|| internal("parentless task is not a live request", now))?;
            svc.source.on_complete(req.req_id, now, cancelled);
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
                svc.source.drain(now, &svc.requests.sorted_ids());
                svc.requests = RequestTable::default();
            }
            let c = svc.source.counters();
            self.run.stats.requests_shed = c.shed;
            self.run.stats.retries_spent = c.retries_spent;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use maestro_machine::snap::{SnapReader, SnapWriter};
    use proptest::prelude::*;

    use super::*;

    /// One scripted table operation.
    #[derive(Copy, Clone, Debug)]
    enum Op {
        /// Inject the next request, with a deadline `Some(dt)` after now.
        Inject { deadline_in: Option<u64> },
        /// Settle the `pick`-th live request (modulo the live count).
        Settle { pick: u8 },
        /// Advance the clock by `dt` and fire every due deadline.
        Advance { dt: u64 },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..60).prop_map(|dt| Op::Inject { deadline_in: Some(dt) }),
            Just(Op::Inject { deadline_in: None }),
            (0u8..=255).prop_map(|pick| Op::Settle { pick }),
            (0u8..=255).prop_map(|pick| Op::Settle { pick }),
            (0u64..40).prop_map(|dt| Op::Advance { dt }),
        ]
    }

    /// The ordered maps the table replaced: requests by id, and unfired
    /// deadlines as `(deadline, id)`.
    #[derive(Default)]
    struct Model {
        live: BTreeMap<u64, (TaskId, Option<u64>)>,
        deadlines: BTreeSet<(u64, u64)>,
    }

    /// Fire everything due at `now` in both, asserting the same order.
    fn fire_all(table: &mut RequestTable, model: &mut Model, now: u64, work: &mut RuntimeWork) {
        loop {
            let fired = table.fire_due(now, work).expect("top deadline is live");
            let expect = match model.deadlines.first() {
                Some(&(d, id)) if d <= now => {
                    model.deadlines.pop_first();
                    let entry = model.live.get_mut(&id).expect("model deadline is live");
                    entry.1 = None;
                    Some(entry.0)
                }
                _ => None,
            };
            assert_eq!(fired, expect);
            if fired.is_none() {
                return;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any inject/settle/fire script drives the table and the ordered
        /// model through the same fire order, next deadline and live count.
        /// Task slots are reused last-freed-first, as the scheduler's free
        /// list does, so settled requests leave stale heap entries under
        /// slots that later requests take.
        #[test]
        fn table_matches_ordered_model(ops in prop::collection::vec(op_strategy(), 1..120)) {
            let mut table = RequestTable::default();
            let mut model = Model::default();
            let mut work = RuntimeWork::default();
            let mut free: Vec<TaskId> = Vec::new();
            let (mut next_task, mut next_id, mut now) = (0, 0, 0);
            for op in ops {
                match op {
                    Op::Inject { deadline_in } => {
                        let task = free.pop().unwrap_or_else(|| {
                            next_task += 1;
                            next_task - 1
                        });
                        let deadline = deadline_in.map(|dt| now + dt);
                        prop_assert!(table.insert(task, next_id, deadline, &mut work));
                        model.live.insert(next_id, (task, deadline));
                        if let Some(d) = deadline {
                            model.deadlines.insert((d, next_id));
                        }
                        next_id += 1;
                    }
                    Op::Settle { pick } => {
                        if model.live.is_empty() {
                            continue;
                        }
                        let n = pick as usize % model.live.len();
                        let (&id, &(task, deadline)) = model.live.iter().nth(n).unwrap();
                        model.live.remove(&id);
                        if let Some(d) = deadline {
                            model.deadlines.remove(&(d, id));
                        }
                        let req = table.remove(task, &mut work);
                        prop_assert_eq!(req.map(|r| r.req_id), Some(id));
                        free.push(task);
                    }
                    Op::Advance { dt } => {
                        now += dt;
                        fire_all(&mut table, &mut model, now, &mut work);
                    }
                }
                prop_assert_eq!(
                    table.next_deadline(),
                    model.deadlines.first().map(|&(d, _)| d)
                );
                prop_assert_eq!(table.len(), model.live.len());
                prop_assert_eq!(
                    work.deadline_pushes - work.deadline_pops,
                    table.deadlines.len() as u64
                );
            }
            // Drain: every remaining deadline fires in model order, and
            // every pushed entry is popped exactly once, stale ones included.
            fire_all(&mut table, &mut model, u64::MAX, &mut work);
            for (_, (task, _)) in std::mem::take(&mut model.live) {
                prop_assert!(table.remove(task, &mut work).is_some());
            }
            prop_assert!(table.is_empty());
            prop_assert_eq!(work.deadline_pops, work.deadline_pushes);
        }
    }

    /// A settled request's heap entry must never fire for the request that
    /// takes its task slot next.
    #[test]
    fn reused_slot_never_fires_a_stale_deadline() {
        let mut table = RequestTable::default();
        let mut work = RuntimeWork::default();
        assert!(table.insert(0, 7, Some(10), &mut work));
        assert!(table.insert(1, 8, Some(30), &mut work));
        assert_eq!(table.remove(0, &mut work).map(|r| r.req_id), Some(7));
        // Task 0's entry was at the top, so the settle popped it.
        assert_eq!((work.deadline_pushes, work.deadline_pops), (2, 1));
        assert!(table.insert(0, 9, Some(20), &mut work));
        assert!(table.insert(2, 10, Some(25), &mut work));
        assert_eq!(table.remove(2, &mut work).map(|r| r.req_id), Some(10));
        // A stale entry below the top waits for the top to reach it.
        assert_eq!(table.deadlines.len(), 3);
        assert_eq!(table.next_deadline(), Some(20));
        assert_eq!(table.fire_due(19, &mut work).unwrap(), None);
        assert_eq!(table.fire_due(20, &mut work).unwrap(), Some(0));
        // Firing cleaned request 10's stale entry off the top.
        assert_eq!(table.next_deadline(), Some(30));
        assert_eq!(table.fire_due(40, &mut work).unwrap(), Some(1));
        assert_eq!(table.fire_due(40, &mut work).unwrap(), None);
        assert_eq!((work.deadline_pushes, work.deadline_pops), (4, 4));
        assert_eq!(table.len(), 2);
    }

    /// Stale entries stuck below a live top (here: requests that settle
    /// early under later deadlines) are purged, keeping the heap within
    /// twice the live count plus the slack.
    #[test]
    fn stale_entries_below_a_live_top_are_purged() {
        let mut table = RequestTable::default();
        let mut work = RuntimeWork::default();
        assert!(table.insert(0, 0, Some(1_000), &mut work));
        for req_id in 1..1_000 {
            assert!(table.insert(1, req_id, Some(5_000 + req_id), &mut work));
            assert!(table.deadlines.len() <= 2 * table.len() + PURGE_SLACK);
            assert!(table.remove(1, &mut work).is_some());
        }
        assert_eq!(work.deadline_pushes, 1_000);
        assert_eq!(work.deadline_pushes - work.deadline_pops, table.deadlines.len() as u64);
        assert_eq!(table.fire_due(u64::MAX, &mut work).unwrap(), Some(0));
        assert_eq!(table.fire_due(u64::MAX, &mut work).unwrap(), None);
        assert_eq!((work.deadline_pops, table.deadlines.len()), (1_000, 0));
    }

    /// Bytes of a request-table section: the cursor, then the entries.
    fn table_bytes(entries: &[(u64, u64, Option<u64>)]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u64(0).unwrap();
        w.len(entries.len()).unwrap();
        for &(req_id, task, deadline) in entries {
            w.u64(req_id).unwrap();
            w.u64(task).unwrap();
            w.opt_u64(deadline).unwrap();
        }
        w.finish()
    }

    fn decode(bytes: &[u8], n_tasks: usize) -> Result<RequestTable, SnapError> {
        let mut r = SnapReader::new(bytes);
        let table = RequestTable::default().codec(&mut r, 2, n_tasks)?;
        r.finish()?;
        Ok(table)
    }

    #[test]
    fn table_codec_round_trips_in_request_id_order() {
        let mut table = RequestTable::default();
        let mut work = RuntimeWork::default();
        for (task, req_id, deadline) in [(3, 12, Some(50)), (0, 14, None), (1, 11, Some(40))] {
            assert!(table.insert(task, req_id, deadline, &mut work));
        }
        table.fire_due(45, &mut work).unwrap();
        let mut w = SnapWriter::new();
        table.codec(&mut w, 2, 0).unwrap();
        let bytes = w.finish();
        assert_eq!(bytes, table_bytes(&[(11, 1, None), (12, 3, Some(50)), (14, 0, None)]));
        let back = decode(&bytes, 4).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.next_deadline(), Some(50));
        assert_eq!(back.deadlines.len(), 1, "fired deadlines stay fired");
        assert_eq!(back.sorted_ids(), [11, 12, 14]);
    }

    /// A task id past the decoded task table is rejected before the
    /// position table grows to it, however large.
    #[test]
    fn table_codec_rejects_task_beyond_task_table() {
        for task in [4, 1 << 40, u64::MAX] {
            assert!(matches!(
                decode(&table_bytes(&[(1, task, Some(9))]), 4),
                Err(SnapError::Corrupt("service request task beyond the task table"))
            ));
        }
    }

    #[test]
    fn table_codec_rejects_unordered_or_shared_entries() {
        for entries in [[(5, 0, None), (5, 1, None)], [(6, 0, None), (5, 1, None)]] {
            assert!(matches!(
                decode(&table_bytes(&entries), 4),
                Err(SnapError::Corrupt("service request ids not increasing"))
            ));
        }
        assert!(matches!(
            decode(&table_bytes(&[(5, 2, None), (6, 2, Some(1))]), 4),
            Err(SnapError::Corrupt("duplicate service request entry"))
        ));
    }
}
