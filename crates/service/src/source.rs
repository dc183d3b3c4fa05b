//! The SLO-guarded request source: admission control, a retry budget, and
//! brownout-degraded request specs over the arrival stream.
//!
//! # State machine per logical request
//!
//! ```text
//! arrival ──(admission refuses)──▶ shed                        (terminal)
//!    │
//!    ▼
//! in flight ──(completes in time)──▶ completed                 (terminal)
//!    │
//!    ├─(deadline fires, retry affordable)──▶ pending retry ──▶ in flight
//!    ├─(deadline fires, no retry left)─────▶ cancelled         (terminal)
//!    └─(run dies)──────────────────────────▶ failed            (terminal)
//! ```
//!
//! The conservation invariant — `arrived == completed + shed + failed +
//! cancelled + in_flight + pending_retry` — is `debug_assert`ed after every
//! transition and checked structurally on snapshot restore.
//!
//! # Retry budget
//!
//! The source owns one millitoken bucket: every arrival deposits
//! `BUDGET_PER_ARRIVAL_MT` (capped at `BUDGET_CAP_MT`), and a retry
//! withdraws `RETRY_COST_MT`. With the budget disabled the retry rate is
//! unbounded — under sustained overload every timed-out attempt re-enters
//! the queue and the system enters the classic metastable retry storm the
//! chaos suite demonstrates.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::num::NonZeroU32;
use std::rc::Rc;

use maestro_machine::snap::{Codec, SnapError, SnapReader, SnapWriter};
use maestro_machine::Cost;
use maestro_runtime::{RequestSource, ServiceCounters, ServiceInjection, TaskSpec};

use crate::arrival::{ArrivalConfig, ArrivalStream};
use crate::hist::LatencyHist;

/// Admission: hard in-flight cap (queue-depth shedding).
const MAX_IN_FLIGHT: usize = 256;

/// Retry budget: millitokens each arrival deposits.
const BUDGET_PER_ARRIVAL_MT: u64 = 100;

/// Retry budget: bucket capacity, millitokens.
const BUDGET_CAP_MT: u64 = 50_000;

/// Retry budget: millitokens one retry withdraws.
const RETRY_COST_MT: u64 = 1_000;

/// Admission: cap on the in-flight window's span — the ids issued since the
/// oldest attempt still in flight. It bounds the window's memory, and so
/// what a decoded snapshot may allocate; deadlines keep real spans orders
/// of magnitude below it.
const MAX_WINDOW_SPAN: u64 = 1 << 20;

/// Admission: estimated service time of one request at full duty, used for
/// the deadline-feasibility check.
const EST_SERVICE_NS: u64 = 50_000;

/// Admission: assumed service concurrency (≈ worker count); the
/// feasibility estimate is `EST_SERVICE_NS · (in_flight + 1) / this`.
const ADMISSION_CONCURRENCY: u64 = 16;

/// Fan-out of one request's task tree at full fidelity; brownout level `b`
/// degrades it to `max(1, fanout >> b)` leaves.
const REQUEST_FANOUT: usize = 4;

/// Cost of each leaf.
const LEAF_COST: Cost = Cost { cpu_cycles: 30_000, mem_refs: 1_500, mlp: 2.0, intensity: 0.7 };

/// First retry backoff; attempt `k` waits `BASE_BACKOFF_NS · 2^(k-1)`,
/// capped at [`MAX_BACKOFF_NS`].
const BASE_BACKOFF_NS: u64 = 200_000;

/// Retry backoff cap.
const MAX_BACKOFF_NS: u64 = 5_000_000;

/// Full configuration of a service workload.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceConfig {
    /// The arrival process.
    pub arrivals: ArrivalConfig,
    /// Per-attempt deadline, ns after injection.
    pub deadline_ns: u64,
    /// Maximum attempts per logical request (1 = no retries).
    pub retry_limit: u32,
    /// Whether retries draw on the retry budget; `false` leaves the retry
    /// rate unbounded (the retry-storm configuration).
    pub retry_budget: bool,
}

impl ServiceConfig {
    /// A service for tests and scenarios: steady arrivals at `rate_rps`,
    /// deadline `deadline_ns`, 3 attempts with budgeted retries.
    pub fn simple(seed: u64, rate_rps: f64, total_requests: u64, deadline_ns: u64) -> Self {
        ServiceConfig {
            arrivals: ArrivalConfig::steady(seed, rate_rps, total_requests),
            deadline_ns,
            retry_limit: 3,
            retry_budget: true,
        }
    }
}

/// State shared between the source and the [`SloGovernor`](crate::SloGovernor),
/// and read by the report layer after the run — the
/// source itself is consumed by the scheduler, so everything a report needs
/// must live here.
#[derive(Clone, Debug)]
pub struct ServiceShared {
    /// Latencies since the governor's last decision epoch.
    pub window: LatencyHist,
    /// Whole-run latencies.
    pub total: LatencyHist,
    /// The conservation ledger.
    pub counters: ServiceCounters,
    /// Brownout depth (0 = full fidelity), written by the governor.
    pub brownout_level: u8,
    /// Energy-ladder depth (0 = throttle off), written by the governor.
    pub energy_level: usize,
    /// Governor energy-ladder transitions.
    pub energy_steps: u64,
    /// Governor brownout transitions.
    pub brownout_steps: u64,
    /// Requests injected with a degraded (brownout) spec.
    pub degraded_injections: u64,
}

impl ServiceShared {
    fn new() -> Self {
        ServiceShared {
            window: LatencyHist::new(),
            total: LatencyHist::new(),
            counters: ServiceCounters::default(),
            brownout_level: 0,
            energy_level: 0,
            energy_steps: 0,
            brownout_steps: 0,
            degraded_injections: 0,
        }
    }
}

/// Shared handle to the run's service state; clone freely.
pub type ServiceHandle = Rc<RefCell<ServiceShared>>;

/// A new empty shared-state handle.
pub fn service_handle() -> ServiceHandle {
    Rc::new(RefCell::new(ServiceShared::new()))
}

/// An attempt currently injected into the scheduler.
#[derive(Copy, Clone, Debug)]
struct Attempt {
    /// Original logical arrival time — latency is end-to-end.
    arrival_ns: u64,
    /// 1-based attempt number (non-zero, so an empty window slot costs no
    /// tag: `Option<Attempt>` is 16 bytes).
    attempt: NonZeroU32,
}

const _: () = assert!(std::mem::size_of::<Option<Attempt>>() == 16);

/// The in-flight attempts: a window over consecutive request ids, slot `i`
/// holding request `base + i`. Ids are issued in increasing order and a
/// completed attempt leaves `None` behind until the window's front passes
/// it, so insert, lookup and removal are O(1) amortized.
#[derive(Clone, Debug, Default)]
struct InFlight {
    slots: VecDeque<Option<Attempt>>,
    /// Id of `slots[0]`; always an attempt in flight unless the window is
    /// empty.
    base: u64,
    /// Number of `Some` slots.
    count: usize,
}

impl InFlight {
    /// Record attempt `id`; false unless `id` is beyond every id the window
    /// holds. Ids skipped over become empty slots.
    fn insert(&mut self, id: u64, attempt: Attempt) -> bool {
        if self.slots.is_empty() {
            self.base = id;
        }
        let Some(pos) = id.checked_sub(self.base) else { return false };
        let Ok(pos) = usize::try_from(pos) else { return false };
        if pos < self.slots.len() {
            return false;
        }
        self.slots.resize(pos, None);
        self.slots.push_back(Some(attempt));
        self.count += 1;
        true
    }

    fn slot(&self, id: u64) -> Option<usize> {
        usize::try_from(id.checked_sub(self.base)?).ok()
    }

    fn get(&self, id: u64) -> Option<&Attempt> {
        self.slots.get(self.slot(id)?)?.as_ref()
    }

    /// Remove attempt `id`, then move the front past completed slots.
    fn remove(&mut self, id: u64) -> Option<Attempt> {
        let attempt = self.slots.get_mut(self.slot(id)?)?.take()?;
        self.count -= 1;
        while self.slots.front().is_some_and(Option::is_none) {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(attempt)
    }

    /// Remove every attempt, returning how many there were.
    fn drain(&mut self) -> usize {
        let n = self.count;
        *self = InFlight::default();
        n
    }

    /// Attempts in flight.
    fn len(&self) -> usize {
        #[cfg(maestro_verify)]
        assert_eq!(
            self.count,
            self.slots.iter().flatten().count(),
            "in-flight count diverged from the window scan"
        );
        self.count
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ids issued from the oldest attempt in flight up to `next_id`; zero
    /// when nothing is in flight.
    fn span(&self, next_id: u64) -> u64 {
        if self.slots.is_empty() {
            0
        } else {
            next_id - self.base
        }
    }

    /// `(id, attempt)` in increasing id order.
    fn iter(&self) -> impl Iterator<Item = (u64, &Attempt)> {
        (self.base..).zip(&self.slots).filter_map(|(id, a)| Some((id, a.as_ref()?)))
    }
}

/// A retry waiting for its backoff to elapse.
#[derive(Copy, Clone, Debug)]
struct RetryItem {
    arrival_ns: u64,
    /// Attempt number the retry will carry.
    attempt: NonZeroU32,
}

/// The concrete [`RequestSource`] the scheduler drives.
#[derive(Clone)]
pub struct ServiceSource {
    cfg: ServiceConfig,
    shared: ServiceHandle,
    arrivals: ArrivalStream,
    next_req_id: u64,
    retry_seq: u64,
    inflight: InFlight,
    /// Pending retries keyed `(due_ns, seq)` so equal due times stay
    /// ordered deterministically.
    retries: BTreeMap<(u64, u64), RetryItem>,
    /// The retry budget's millitoken bucket (unused when disabled).
    budget_mt: u64,
}

impl ServiceSource {
    /// Build a source starting its arrival stream at virtual time 0,
    /// publishing into `shared`.
    pub fn new(cfg: ServiceConfig, shared: ServiceHandle) -> Self {
        let arrivals = ArrivalStream::new(cfg.arrivals.clone());
        ServiceSource {
            cfg,
            shared,
            arrivals,
            next_req_id: 0,
            retry_seq: 0,
            inflight: InFlight::default(),
            retries: BTreeMap::new(),
            budget_mt: 0,
        }
    }

    /// Admission decision: queue-depth and window-span caps plus deadline
    /// feasibility (the expected completion time at the current depth must
    /// fit the deadline).
    fn admit(&self) -> bool {
        let depth = self.inflight.len();
        if depth >= MAX_IN_FLIGHT || self.inflight.span(self.next_req_id) >= MAX_WINDOW_SPAN {
            return false;
        }
        let expected_ns = EST_SERVICE_NS.saturating_mul(depth as u64 + 1) / ADMISSION_CONCURRENCY;
        expected_ns <= self.cfg.deadline_ns
    }

    /// Build and record one injection at `now_ns`.
    fn make_injection(
        &mut self,
        arrival_ns: u64,
        attempt: NonZeroU32,
        now_ns: u64,
    ) -> ServiceInjection {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        let level = {
            let mut sh = self.shared.borrow_mut();
            if sh.brownout_level > 0 {
                sh.degraded_injections += 1;
            }
            sh.brownout_level
        };
        let fanout = (REQUEST_FANOUT >> level).max(1);
        let spec = if fanout <= 1 {
            TaskSpec::leaf(LEAF_COST)
        } else {
            TaskSpec::fork_join(
                (0..fanout).map(|_| TaskSpec::leaf(LEAF_COST)).collect(),
                Cost::ZERO,
            )
        };
        let deadline = now_ns.saturating_add(self.cfg.deadline_ns);
        let fresh = self.inflight.insert(req_id, Attempt { arrival_ns, attempt });
        debug_assert!(fresh, "request id {req_id} issued twice");
        ServiceInjection { req_id, spec, deadline_ns: Some(deadline) }
    }

    fn check_conservation(&self) {
        let c = self.shared.borrow().counters;
        debug_assert_eq!(c.conservation_gap(), 0, "conservation violated: {c:?}");
        debug_assert_eq!(c.in_flight as usize, self.inflight.len(), "in-flight ledger drift");
        debug_assert_eq!(c.pending_retry as usize, self.retries.len(), "retry ledger drift");
    }
}

/// Salt that separated a retired class-draw RNG stream from the arrival
/// stream; the snapshot keeps that stream's word, `seed ^ salt`.
const CLASS_STREAM_SALT: u64 = 0x5EED_C1A5_5D0D_6E57;

impl RequestSource for ServiceSource {
    fn next_due_ns(&self) -> Option<u64> {
        let arr = self.arrivals.next_ns();
        let retry = self.retries.keys().next().map(|&(due, _)| due);
        match (arr, retry) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn poll(&mut self, now_ns: u64, out: &mut Vec<ServiceInjection>) {
        // Due retries first: they were admitted earlier in logical time.
        while let Some((&(due, seq), _)) = self.retries.iter().next() {
            if due > now_ns {
                break;
            }
            let item = self.retries.remove(&(due, seq)).expect("keyed entry");
            self.shared.borrow_mut().counters.pending_retry -= 1;
            if self.admit() {
                {
                    let c = &mut self.shared.borrow_mut().counters;
                    c.in_flight += 1;
                    c.retries_spent += 1;
                }
                let inj = self.make_injection(item.arrival_ns, item.attempt, now_ns);
                out.push(inj);
            } else {
                // A refused retry ends the logical request: it already
                // missed its deadline and the retry path is closed.
                self.shared.borrow_mut().counters.cancelled += 1;
            }
        }

        // Then due arrivals.
        while let Some(t) = self.arrivals.pop_due(now_ns) {
            self.shared.borrow_mut().counters.arrived += 1;
            if self.cfg.retry_budget {
                self.budget_mt = (self.budget_mt + BUDGET_PER_ARRIVAL_MT).min(BUDGET_CAP_MT);
            }
            if self.admit() {
                self.shared.borrow_mut().counters.in_flight += 1;
                let inj = self.make_injection(t, NonZeroU32::MIN, now_ns);
                out.push(inj);
            } else {
                self.shared.borrow_mut().counters.shed += 1;
            }
        }
        self.check_conservation();
    }

    fn on_complete(&mut self, req_id: u64, now_ns: u64, cancelled: bool) {
        let Some(att) = self.inflight.remove(req_id) else {
            debug_assert!(false, "completion for unknown request {req_id}");
            return;
        };
        let mut sh = self.shared.borrow_mut();
        sh.counters.in_flight -= 1;
        if !cancelled {
            let lat = now_ns.saturating_sub(att.arrival_ns);
            sh.window.record(lat);
            sh.total.record(lat);
            sh.counters.completed += 1;
        } else {
            let attempts_left = att.attempt.get() < self.cfg.retry_limit;
            let affordable = !self.cfg.retry_budget || self.budget_mt >= RETRY_COST_MT;
            if attempts_left && affordable {
                if self.cfg.retry_budget {
                    self.budget_mt -= RETRY_COST_MT;
                }
                let shift = (att.attempt.get() - 1).min(32);
                let backoff = BASE_BACKOFF_NS.saturating_mul(1u64 << shift).min(MAX_BACKOFF_NS);
                let due = now_ns.saturating_add(backoff);
                let seq = self.retry_seq;
                self.retry_seq += 1;
                self.retries.insert(
                    (due, seq),
                    RetryItem {
                        arrival_ns: att.arrival_ns,
                        attempt: att.attempt.saturating_add(1),
                    },
                );
                sh.counters.pending_retry += 1;
            } else {
                sh.counters.cancelled += 1;
            }
        }
        drop(sh);
        self.check_conservation();
    }

    fn drain(&mut self, _now_ns: u64, in_flight: &[u64]) {
        let mut sh = self.shared.borrow_mut();
        for &id in in_flight {
            if self.inflight.remove(id).is_some() {
                sh.counters.in_flight -= 1;
                sh.counters.failed += 1;
            }
        }
        debug_assert!(self.inflight.is_empty(), "drain left in-flight attempts behind");
        // Attempts the scheduler never learned about (it drained before
        // their id reached it) fail too.
        let unknown = self.inflight.drain() as u64;
        sh.counters.in_flight -= unknown;
        sh.counters.failed += unknown;
        let stranded = self.retries.len() as u64;
        self.retries.clear();
        sh.counters.pending_retry -= stranded;
        sh.counters.failed += stranded;
        drop(sh);
        self.check_conservation();
    }

    fn exhausted(&self) -> bool {
        self.arrivals.next_ns().is_none() && self.retries.is_empty()
    }

    fn counters(&self) -> ServiceCounters {
        self.shared.borrow().counters
    }

    fn owns(&self, req_id: u64) -> bool {
        self.inflight.get(req_id).is_some()
    }

    fn snap_state(&self, w: &mut SnapWriter) {
        self.codec(w).expect("live state encodes");
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let st = self.codec(r)?;
        if let Some(source) = st.source {
            *self = source;
        }
        let mut sh = self.shared.borrow_mut();
        sh.counters = st.counters;
        sh.window = st.window;
        sh.total = st.total;
        sh.degraded_injections = st.degraded_injections;
        Ok(())
    }
}

/// Source state decoded by `ServiceSource::codec`: a copy of the source
/// carrying the decoded state (`None` on the writer), and its part of the
/// shared ledger, written through only when installed.
struct SourceState {
    source: Option<ServiceSource>,
    counters: ServiceCounters,
    window: LatencyHist,
    total: LatencyHist,
    degraded_injections: u64,
}

impl ServiceSource {
    /// The snapshot codec (see [`Codec`]): the arrival cursor, id counters,
    /// the in-flight and pending-retry tables, the retry budget, the ledger,
    /// both histograms, and the brownout tally. Three retired slots keep the
    /// wire layout of a source with request classes, each fixed to what a
    /// one-class source wrote: the class-draw stream's word (never drawn
    /// from), a class byte of 0 per attempt, and a budget list of one.
    fn codec<C: Codec>(&self, c: &mut C) -> Result<SourceState, SnapError> {
        // `(arrival_ns, attempt)` after the retired class byte, with the
        // attempt number checked against zero.
        let attempt = |c: &mut C, a: Option<(u64, NonZeroU32)>, what| {
            let (arrival_ns, attempt) = a.unwrap_or((0, NonZeroU32::MIN));
            if c.u8(0)? != 0 {
                return Err(SnapError::Corrupt(what));
            }
            let arrival_ns = c.u64(arrival_ns)?;
            let attempt = NonZeroU32::new(c.u64(u64::from(attempt.get()))? as u32)
                .ok_or(SnapError::Corrupt("attempt number zero"))?;
            Ok((arrival_ns, attempt))
        };
        let arrivals = self.arrivals.codec(c)?;
        c.check_u64(self.cfg.arrivals.seed ^ CLASS_STREAM_SALT, "class-draw stream is retired")?;
        let next_req_id = c.u64(self.next_req_id)?;
        let retry_seq = c.u64(self.retry_seq)?;
        let mut inflight_ids = Vec::new();
        if !C::DECODING {
            inflight_ids = self.inflight.iter().map(|(id, _)| id).collect();
        }
        let inflight_list = c.seq(&inflight_ids, |c, &id| {
            let a = self.inflight.get(id).map(|a| (a.arrival_ns, a.attempt));
            Ok((c.u64(id)?, attempt(c, a, "in-flight attempt class out of range")?))
        })?;
        let retry_list = c.seq(self.retries.keys(), |c, &(due, seq)| {
            let a = self.retries.get(&(due, seq)).map(|r| (r.arrival_ns, r.attempt));
            Ok((c.u64(due)?, c.u64(seq)?, attempt(c, a, "pending-retry class out of range")?))
        })?;
        c.check_len(1, "retry-budget class count mismatch")?;
        let budget_mt = c.u64(self.budget_mt)?;
        if budget_mt > BUDGET_CAP_MT {
            return Err(SnapError::Corrupt("retry budget above its cap"));
        }
        let sh = self.shared.borrow();
        let counters = sh.counters.codec(c)?;
        if counters.conservation_gap() != 0 {
            return Err(SnapError::Corrupt("restored counters violate conservation"));
        }
        // In-flight ids must increase (the writer emits window order) and
        // lie in the span admission allows below the id counter, checked
        // before the window is sized from them.
        let window_floor = next_req_id.saturating_sub(MAX_WINDOW_SPAN);
        let mut inflight = InFlight::default();
        for (id, (arrival_ns, attempt)) in inflight_list {
            if id < window_floor || id >= next_req_id {
                return Err(SnapError::Corrupt("in-flight attempt id outside the window"));
            }
            if !inflight.insert(id, Attempt { arrival_ns, attempt }) {
                return Err(SnapError::Corrupt("in-flight attempt ids not increasing"));
            }
        }
        let mut retries = BTreeMap::new();
        for (due, seq, (arrival_ns, attempt)) in retry_list {
            if retries.insert((due, seq), RetryItem { arrival_ns, attempt }).is_some() {
                return Err(SnapError::Corrupt("duplicate pending-retry key"));
            }
        }
        // Retry sequence numbers are handed out in increasing order.
        if retries.keys().any(|&(_, seq)| seq >= retry_seq) {
            return Err(SnapError::Corrupt("id counters behind the tables"));
        }
        if C::DECODING
            && (counters.in_flight as usize != inflight.len()
                || counters.pending_retry as usize != retries.len())
        {
            return Err(SnapError::Corrupt("restored counters disagree with tables"));
        }
        let source = C::DECODING.then(|| ServiceSource {
            arrivals,
            next_req_id,
            retry_seq,
            inflight,
            retries,
            budget_mt,
            ..self.clone()
        });
        Ok(SourceState {
            source,
            counters,
            window: sh.window.codec(c)?,
            total: sh.total.codec(c)?,
            degraded_injections: c.u64(sh.degraded_injections)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_machine::snap::{assert_rejects_corruption};

    fn drive(cfg: ServiceConfig, complete_after_ns: u64) -> ServiceCounters {
        // A tiny hand-rolled driver standing in for the scheduler: injects
        // everything poll emits, completes each attempt `complete_after_ns`
        // later (cancelled when that is past the attempt deadline).
        let handle = service_handle();
        let mut src = ServiceSource::new(cfg, handle.clone());
        let mut out = Vec::new();
        let mut live: Vec<(u64, u64, bool)> = Vec::new(); // (done_ns, id, cancelled)
        let mut now;
        loop {
            let next_completion = live.iter().map(|&(t, _, _)| t).min();
            let due = src.next_due_ns();
            now = match (due, next_completion) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            let mut i = 0;
            while i < live.len() {
                if live[i].0 <= now {
                    let (_, id, cancelled) = live.swap_remove(i);
                    src.on_complete(id, now, cancelled);
                } else {
                    i += 1;
                }
            }
            if due.is_some_and(|d| d <= now) {
                out.clear();
                src.poll(now, &mut out);
                for inj in out.drain(..) {
                    let deadline = inj.deadline_ns.unwrap();
                    let done = now + complete_after_ns;
                    let cancelled = done > deadline;
                    let when = if cancelled { deadline } else { done };
                    live.push((when, inj.req_id, cancelled));
                }
            }
        }
        src.counters()
    }

    #[test]
    fn fast_service_completes_everything() {
        let cfg = ServiceConfig::simple(5, 10_000.0, 500, 1_000_000);
        let c = drive(cfg, 10_000); // well under the deadline
        assert_eq!(c.completed, 500, "{c:?}");
        assert_eq!(c.conservation_gap(), 0);
        assert_eq!(c.in_flight + c.pending_retry, 0);
    }

    #[test]
    fn slow_service_retries_then_cancels_within_budget() {
        let cfg = ServiceConfig::simple(6, 10_000.0, 400, 100_000);
        let c = drive(cfg, 1_000_000); // nothing can meet the deadline
        assert_eq!(c.completed, 0, "{c:?}");
        assert!(c.cancelled > 0, "{c:?}");
        assert!(c.retries_spent > 0, "budget allows some retries: {c:?}");
        // 100 mt per arrival = at most one retry per ten arrivals.
        assert!(c.retries_spent * 10 <= c.arrived, "budget bounds retries: {c:?}");
        assert_eq!(c.conservation_gap(), 0);
        assert_eq!(c.in_flight + c.pending_retry, 0);
    }

    #[test]
    fn unbudgeted_retries_amplify_load() {
        let storm = {
            let mut cfg = ServiceConfig::simple(6, 10_000.0, 400, 100_000);
            cfg.retry_budget = false;
            cfg.retry_limit = 6;
            drive(cfg, 1_000_000)
        };
        let budgeted = {
            let mut cfg = ServiceConfig::simple(6, 10_000.0, 400, 100_000);
            cfg.retry_limit = 6;
            drive(cfg, 1_000_000)
        };
        assert!(
            storm.retries_spent > 3 * budgeted.retries_spent.max(1),
            "no budget ⇒ retry amplification: storm {} vs budgeted {}",
            storm.retries_spent,
            budgeted.retries_spent
        );
        assert_eq!(storm.conservation_gap(), 0);
        assert_eq!(budgeted.conservation_gap(), 0);
    }

    fn att(attempt: u32) -> Attempt {
        Attempt { arrival_ns: 0, attempt: NonZeroU32::new(attempt).unwrap() }
    }

    #[test]
    fn inflight_window_tracks_out_of_order_completion() {
        let mut w = InFlight::default();
        for id in 3..8 {
            assert!(w.insert(id, att(id as u32)));
        }
        assert!(!w.insert(7, att(1)), "an id already in the window");
        assert!(!w.insert(2, att(1)), "an id below the window");
        assert_eq!((w.len(), w.base, w.span(8)), (5, 3, 5));
        // Completions away from the front leave holes; the base stays.
        assert_eq!(w.remove(5).map(|a| a.attempt.get()), Some(5));
        assert!(w.remove(5).is_none());
        assert_eq!(w.remove(7).map(|a| a.attempt.get()), Some(7));
        assert_eq!((w.len(), w.base), (3, 3));
        assert!(w.get(5).is_none() && w.get(6).is_some());
        // Completing the front skips the holes behind it.
        assert!(w.remove(3).is_some());
        assert_eq!(w.base, 4);
        assert!(w.remove(4).is_some());
        assert_eq!((w.len(), w.base, w.span(8)), (1, 6, 2));
        assert_eq!(w.iter().map(|(id, _)| id).collect::<Vec<_>>(), [6]);
        // Ids skipped by the source become holes.
        assert!(w.insert(10, att(10)));
        assert_eq!(w.iter().map(|(id, _)| id).collect::<Vec<_>>(), [6, 10]);
        assert!(w.get(9).is_none() && w.get(11).is_none() && w.get(u64::MAX).is_none());
        assert_eq!(w.drain(), 2);
        assert!(w.is_empty() && w.iter().next().is_none());
        assert_eq!(w.span(11), 0);
        // An empty window restarts at the next id.
        assert!(w.insert(11, att(11)));
        assert_eq!((w.len(), w.base), (1, 11));
        assert_eq!(w.remove(11).map(|a| a.attempt.get()), Some(11));
        assert!(w.is_empty() && w.slots.is_empty());
    }

    /// Snapshot bytes of a source with in-flight attempts, and the offset
    /// of the first in-flight id in them.
    fn inflight_snapshot() -> (ServiceConfig, Vec<u8>, usize) {
        let cfg = ServiceConfig::simple(9, 50_000.0, 300, 200_000);
        let mut src = ServiceSource::new(cfg.clone(), service_handle());
        let mut out = Vec::new();
        for _ in 0..5 {
            let now = src.next_due_ns().unwrap();
            src.poll(now, &mut out);
        }
        src.on_complete(out[0].req_id, 1, false);
        let ids: Vec<u64> = src.inflight.iter().map(|(id, _)| id).collect();
        assert!(ids.len() >= 3, "{ids:?}");
        let mut w = SnapWriter::new();
        src.snap_state(&mut w);
        let bytes = w.finish();
        let mut head = (ids.len() as u64).to_le_bytes().to_vec();
        head.extend_from_slice(&ids[0].to_le_bytes());
        let at = bytes.windows(16).position(|b| b == head).expect("in-flight list") + 8;
        (cfg, bytes, at)
    }

    #[test]
    fn snapshot_rejects_non_increasing_inflight_ids() {
        // Entry: id u64, class u8, arrival u64, attempt u64.
        const ENTRY: usize = 25;
        let (cfg, bytes, at) = inflight_snapshot();
        let id = |k: usize| u64::from_le_bytes(bytes[at + k * ENTRY..][..8].try_into().unwrap());
        let decode = |bytes: &[u8]| {
            let mut r = SnapReader::new(bytes);
            ServiceSource::new(cfg.clone(), service_handle()).restore_state(&mut r)?;
            r.finish()
        };
        decode(&bytes).unwrap();
        // The second id repeated, then below the first.
        for forged in [id(0), id(0) - 1] {
            let mut bad = bytes.clone();
            bad[at + ENTRY..][..8].copy_from_slice(&forged.to_le_bytes());
            assert!(matches!(
                decode(&bad),
                Err(SnapError::Corrupt("in-flight attempt ids not increasing"))
            ));
        }
        // An id at or past the id counter, and ids further below it than
        // admission lets the window span (the counter sits before the retry
        // sequence number and the list's count).
        let mut past = bytes.clone();
        past[at + 7] = 0x80;
        let mut far = bytes.clone();
        far[at - 24..][..8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        for bad in [past, far] {
            assert!(matches!(
                decode(&bad),
                Err(SnapError::Corrupt("in-flight attempt id outside the window"))
            ));
        }
        // Attempt numbers are 1-based; a zero (here the first entry's,
        // after its id, class and arrival time) is forged.
        let mut zero = bytes.clone();
        zero[at + 17..][..8].copy_from_slice(&0u64.to_le_bytes());
        assert!(matches!(decode(&zero), Err(SnapError::Corrupt("attempt number zero"))));
    }

    #[test]
    fn snapshot_rejects_forged_retired_and_budget_slots() {
        let cfg = ServiceConfig::simple(9, 50_000.0, 300, 200_000);
        let mut src = ServiceSource::new(cfg.clone(), service_handle());
        let mut out = Vec::new();
        let mut now = 0;
        for _ in 0..50 {
            now = src.next_due_ns().unwrap();
            src.poll(now, &mut out);
        }
        // Cancelling every other attempt fills the retry queue as far as
        // the budget allows.
        for inj in out.iter().step_by(2) {
            src.on_complete(inj.req_id, now + 1, true);
        }
        let (n_inflight, n_retries) = (src.inflight.len(), src.retries.len());
        assert!(n_inflight > 0 && n_retries > 0, "{n_inflight} in flight, {n_retries} retries");
        let mut w = SnapWriter::new();
        src.snap_state(&mut w);
        let bytes = w.finish();

        // The class-stream word follows the arrival cursor. After it come
        // the id counter, the retry sequence number, the in-flight list
        // (count, then 25-byte entries: id, class, arrival, attempt), the
        // retry list (count, then 33-byte entries: due, seq, class,
        // arrival, attempt) and the budget list: its count, then the bucket.
        let word = cfg.arrivals.seed ^ CLASS_STREAM_SALT;
        let at = bytes.windows(8).position(|b| b == word.to_le_bytes()).expect("class word");
        let inflight = at + 32;
        let retries = inflight + 25 * n_inflight + 8;
        let budget = retries + 33 * n_retries;
        let u64_at = |pos: usize| u64::from_le_bytes(bytes[pos..][..8].try_into().unwrap());
        assert_eq!(
            [u64_at(inflight - 8), u64_at(retries - 8), u64_at(budget)],
            [n_inflight as u64, n_retries as u64, 1]
        );
        let decode = |bytes: &[u8]| {
            let mut r = SnapReader::new(bytes);
            ServiceSource::new(cfg.clone(), service_handle()).restore_state(&mut r)?;
            r.finish()
        };
        decode(&bytes).unwrap();
        let forged: [(usize, &[u8], &str); 5] = [
            (at, &(word ^ 1).to_le_bytes(), "class-draw stream is retired"),
            (inflight + 8, &[1], "in-flight attempt class out of range"),
            (retries + 16, &[1], "pending-retry class out of range"),
            (budget, &2u64.to_le_bytes(), "retry-budget class count mismatch"),
            (budget + 8, &(BUDGET_CAP_MT + 1).to_le_bytes(), "retry budget above its cap"),
        ];
        for (pos, value, what) in forged {
            let mut bad = bytes.clone();
            bad[pos..][..value.len()].copy_from_slice(value);
            assert!(matches!(decode(&bad), Err(SnapError::Corrupt(m)) if m == what), "{what}");
        }
    }

    #[test]
    fn source_snapshot_roundtrip_preserves_ledger() {
        let cfg = ServiceConfig::simple(9, 50_000.0, 300, 200_000);
        let handle = service_handle();
        let mut src = ServiceSource::new(cfg.clone(), handle.clone());
        let mut out = Vec::new();
        // Inject a few waves without completing anything.
        let mut now = 0;
        for _ in 0..50 {
            let Some(d) = src.next_due_ns() else { break };
            now = d;
            src.poll(now, &mut out);
        }
        // Cancel half of what came out to populate the retry queue.
        for (i, inj) in out.iter().enumerate() {
            if i % 2 == 0 {
                src.on_complete(inj.req_id, now + 1, true);
            }
        }
        let mut w = SnapWriter::new();
        src.snap_state(&mut w);
        let bytes = w.finish();

        let handle2 = service_handle();
        let mut back = ServiceSource::new(cfg, handle2.clone());
        let mut r = SnapReader::new(&bytes);
        back.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_rejects_corruption(&bytes, |input| {
            let mut r = SnapReader::new(input);
            back.codec(&mut r)?;
            r.finish()
        });
        assert_eq!(src.counters(), back.counters());
        assert_eq!(src.next_due_ns(), back.next_due_ns());
        assert_eq!(
            handle.borrow().total.count(),
            handle2.borrow().total.count(),
            "histograms travel"
        );
    }
}
