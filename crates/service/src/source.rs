//! The SLO-guarded request source: admission control, per-class retry
//! budgets, and brownout-degraded request specs over the arrival stream.
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
//! # Retry budgets
//!
//! Each request class owns a millitoken bucket: every arrival of that class
//! deposits `per_arrival_millitokens` (capped), and a retry withdraws 1000.
//! With budgets disabled the retry rate is unbounded — under sustained
//! overload every timed-out attempt re-enters the queue and the system
//! enters the classic metastable retry storm the chaos suite demonstrates.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use maestro_machine::snap::{Codec, SnapError, SnapReader, SnapWriter};
use maestro_machine::Cost;
use maestro_runtime::{RequestSource, ServiceCounters, ServiceInjection, TaskSpec};

use crate::arrival::{ArrivalConfig, ArrivalStream, SplitMix64};
use crate::hist::LatencyHist;

/// One request class: an SLO tier with its own deadline and retry budget
/// bucket.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestClass {
    /// Relative arrival weight among classes.
    pub weight: u32,
    /// Per-attempt deadline, ns after injection.
    pub deadline_ns: u64,
    /// Maximum attempts per logical request (1 = no retries).
    pub retry_limit: u32,
}

/// Retry budget parameters (one bucket per class).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RetryBudget {
    /// Millitokens deposited per arrival of the class (1000 = one retry).
    pub per_arrival_millitokens: u64,
    /// Bucket capacity, millitokens.
    pub cap_millitokens: u64,
}

/// Client-side retry behaviour.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RetryConfig {
    /// First backoff, ns; attempt `k` waits `base · 2^(k-1)`, capped.
    pub base_backoff_ns: u64,
    /// Backoff cap, ns.
    pub max_backoff_ns: u64,
    /// Per-class budget; `None` disables budgets entirely (the retry-storm
    /// configuration).
    pub budget: Option<RetryBudget>,
}

/// Full configuration of a service workload.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceConfig {
    /// The arrival process.
    pub arrivals: ArrivalConfig,
    /// Request classes (at least one).
    pub classes: Vec<RequestClass>,
    /// Retry behaviour.
    pub retry: RetryConfig,
    /// Admission: hard in-flight cap (queue-depth shedding).
    pub max_in_flight: usize,
    /// Admission: estimated service time of one request at full duty, used
    /// for the deadline-feasibility check.
    pub est_service_ns: u64,
    /// Admission: assumed service concurrency (≈ worker count); the
    /// feasibility estimate is `est_service_ns · (in_flight + 1) / this`.
    pub admission_concurrency: usize,
    /// Fan-out of one request's task tree at full fidelity; brownout level
    /// `b` degrades it to `max(1, fanout >> b)` leaves.
    pub request_fanout: usize,
    /// Cost of each leaf.
    pub leaf_cost: Cost,
    /// Cost of the join step.
    pub join_cost: Cost,
}

impl ServiceConfig {
    /// A single-class service with sensible defaults for tests and
    /// scenarios: steady arrivals at `rate_rps`, deadline `deadline_ns`,
    /// 3 attempts with budgeted retries.
    pub fn simple(seed: u64, rate_rps: f64, total_requests: u64, deadline_ns: u64) -> Self {
        ServiceConfig {
            arrivals: ArrivalConfig::steady(seed, rate_rps, total_requests),
            classes: vec![RequestClass { weight: 1, deadline_ns, retry_limit: 3 }],
            retry: RetryConfig {
                base_backoff_ns: 200_000,
                max_backoff_ns: 5_000_000,
                budget: Some(RetryBudget {
                    per_arrival_millitokens: 100,
                    cap_millitokens: 50_000,
                }),
            },
            max_in_flight: 256,
            est_service_ns: 50_000,
            admission_concurrency: 16,
            request_fanout: 4,
            leaf_cost: Cost::new(30_000, 1_500, 2.0, 0.7),
            join_cost: Cost::ZERO,
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
    class: u8,
    /// Original logical arrival time — latency is end-to-end.
    arrival_ns: u64,
    /// 1-based attempt number.
    attempt: u32,
}

/// A retry waiting for its backoff to elapse.
#[derive(Copy, Clone, Debug)]
struct RetryItem {
    class: u8,
    arrival_ns: u64,
    /// Attempt number the retry will carry.
    attempt: u32,
}

/// The concrete [`RequestSource`] the scheduler drives.
#[derive(Clone)]
pub struct ServiceSource {
    cfg: ServiceConfig,
    shared: ServiceHandle,
    arrivals: ArrivalStream,
    class_rng: SplitMix64,
    next_req_id: u64,
    retry_seq: u64,
    inflight: BTreeMap<u64, Attempt>,
    /// Pending retries keyed `(due_ns, seq)` so equal due times stay
    /// ordered deterministically.
    retries: BTreeMap<(u64, u64), RetryItem>,
    /// Per-class millitoken buckets (unused when budgets are disabled).
    budgets_mt: Vec<u64>,
}

impl ServiceSource {
    /// Build a source starting its arrival stream at virtual time
    /// `start_ns`, publishing into `shared`.
    pub fn new(cfg: ServiceConfig, start_ns: u64, shared: ServiceHandle) -> Self {
        assert!(!cfg.classes.is_empty(), "service needs at least one request class");
        assert!(cfg.classes.iter().all(|c| c.weight > 0), "class weights must be positive");
        assert!(cfg.admission_concurrency > 0, "admission concurrency must be positive");
        let arrivals = ArrivalStream::new(cfg.arrivals.clone(), start_ns);
        let n_classes = cfg.classes.len();
        let class_rng = SplitMix64::new(cfg.arrivals.seed ^ CLASS_STREAM_SALT);
        ServiceSource {
            cfg,
            shared,
            arrivals,
            class_rng,
            next_req_id: 0,
            retry_seq: 0,
            inflight: BTreeMap::new(),
            retries: BTreeMap::new(),
            budgets_mt: vec![0; n_classes],
        }
    }

    fn draw_class(&mut self) -> u8 {
        if self.cfg.classes.len() == 1 {
            return 0;
        }
        let total: u64 = self.cfg.classes.iter().map(|c| c.weight as u64).sum();
        let mut pick = self.class_rng.next_u64() % total;
        for (i, c) in self.cfg.classes.iter().enumerate() {
            if pick < c.weight as u64 {
                return i as u8;
            }
            pick -= c.weight as u64;
        }
        (self.cfg.classes.len() - 1) as u8
    }

    /// Admission decision: queue-depth cap plus deadline feasibility (the
    /// expected completion time at the current depth must fit the class
    /// deadline).
    fn admit(&self, class: u8) -> bool {
        let depth = self.inflight.len();
        if depth >= self.cfg.max_in_flight {
            return false;
        }
        let expected_ns = self
            .cfg
            .est_service_ns
            .saturating_mul(depth as u64 + 1)
            / self.cfg.admission_concurrency as u64;
        expected_ns <= self.cfg.classes[class as usize].deadline_ns
    }

    /// Build and record one injection at `now_ns`.
    fn make_injection(
        &mut self,
        class: u8,
        arrival_ns: u64,
        attempt: u32,
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
        let fanout = (self.cfg.request_fanout >> level).max(1);
        let spec = if fanout <= 1 {
            TaskSpec::leaf(self.cfg.leaf_cost)
        } else {
            TaskSpec::fork_join(
                (0..fanout).map(|_| TaskSpec::leaf(self.cfg.leaf_cost)).collect(),
                self.cfg.join_cost,
            )
        };
        let deadline = now_ns.saturating_add(self.cfg.classes[class as usize].deadline_ns);
        self.inflight.insert(req_id, Attempt { class, arrival_ns, attempt });
        ServiceInjection { req_id, spec, deadline_ns: Some(deadline) }
    }

    fn check_conservation(&self) {
        let c = self.shared.borrow().counters;
        debug_assert_eq!(c.conservation_gap(), 0, "conservation violated: {c:?}");
        debug_assert_eq!(c.in_flight as usize, self.inflight.len(), "in-flight ledger drift");
        debug_assert_eq!(c.pending_retry as usize, self.retries.len(), "retry ledger drift");
    }
}

/// Salt separating the class-draw RNG stream from the arrival stream.
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
            if self.admit(item.class) {
                {
                    let c = &mut self.shared.borrow_mut().counters;
                    c.in_flight += 1;
                    c.retries_spent += 1;
                }
                let inj = self.make_injection(item.class, item.arrival_ns, item.attempt, now_ns);
                out.push(inj);
            } else {
                // A refused retry ends the logical request: it already
                // missed its deadline and the retry path is closed.
                self.shared.borrow_mut().counters.cancelled += 1;
            }
        }

        // Then due arrivals.
        while let Some(t) = self.arrivals.pop_due(now_ns) {
            let class = self.draw_class();
            {
                let c = &mut self.shared.borrow_mut().counters;
                c.arrived += 1;
            }
            if let Some(b) = self.cfg.retry.budget {
                let bucket = &mut self.budgets_mt[class as usize];
                *bucket = (*bucket + b.per_arrival_millitokens).min(b.cap_millitokens);
            }
            if self.admit(class) {
                self.shared.borrow_mut().counters.in_flight += 1;
                let inj = self.make_injection(class, t, 1, now_ns);
                out.push(inj);
            } else {
                self.shared.borrow_mut().counters.shed += 1;
            }
        }
        self.check_conservation();
    }

    fn on_complete(&mut self, req_id: u64, now_ns: u64, cancelled: bool) {
        let Some(att) = self.inflight.remove(&req_id) else {
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
            let class = &self.cfg.classes[att.class as usize];
            let attempts_left = att.attempt < class.retry_limit;
            let affordable = match self.cfg.retry.budget {
                None => true,
                Some(_) => self.budgets_mt[att.class as usize] >= 1000,
            };
            if attempts_left && affordable {
                if self.cfg.retry.budget.is_some() {
                    self.budgets_mt[att.class as usize] -= 1000;
                }
                let shift = (att.attempt - 1).min(32);
                let backoff = self
                    .cfg
                    .retry
                    .base_backoff_ns
                    .saturating_mul(1u64 << shift)
                    .min(self.cfg.retry.max_backoff_ns)
                    .max(1);
                let due = now_ns.saturating_add(backoff);
                let seq = self.retry_seq;
                self.retry_seq += 1;
                self.retries.insert(
                    (due, seq),
                    RetryItem {
                        class: att.class,
                        arrival_ns: att.arrival_ns,
                        attempt: att.attempt + 1,
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
            if self.inflight.remove(&id).is_some() {
                sh.counters.in_flight -= 1;
                sh.counters.failed += 1;
            }
        }
        debug_assert!(self.inflight.is_empty(), "drain left in-flight attempts behind");
        // Attempts the scheduler never learned about (it drained before
        // their id reached it) fail too.
        for (_, _item) in std::mem::take(&mut self.inflight) {
            sh.counters.in_flight -= 1;
            sh.counters.failed += 1;
        }
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
        self.inflight.contains_key(&req_id)
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
    /// The snapshot codec (see [`Codec`]): arrival and class RNG cursors,
    /// id counters, the in-flight and pending-retry tables, retry budgets,
    /// the ledger, both histograms, and the brownout tally.
    fn codec<C: Codec>(&self, c: &mut C) -> Result<SourceState, SnapError> {
        let n_classes = self.cfg.classes.len();
        // `(class, arrival_ns, attempt)`, with the class checked against
        // the configured classes.
        let attempt = |c: &mut C, a: Option<(u8, u64, u32)>, what| {
            let (class, arrival_ns, attempt) = a.unwrap_or_default();
            let class = c.u8(class)?;
            if usize::from(class) >= n_classes {
                return Err(SnapError::Corrupt(what));
            }
            Ok((class, c.u64(arrival_ns)?, c.u64(u64::from(attempt))? as u32))
        };
        let arrivals = self.arrivals.codec(c)?;
        let class_rng = SplitMix64::from_state(c.u64(self.class_rng.state())?);
        let next_req_id = c.u64(self.next_req_id)?;
        let retry_seq = c.u64(self.retry_seq)?;
        let inflight_list = c.seq(self.inflight.keys(), |c, &id| {
            let a = self.inflight.get(&id).map(|a| (a.class, a.arrival_ns, a.attempt));
            Ok((c.u64(id)?, attempt(c, a, "in-flight attempt class out of range")?))
        })?;
        let retry_list = c.seq(self.retries.keys(), |c, &(due, seq)| {
            let a = self.retries.get(&(due, seq)).map(|r| (r.class, r.arrival_ns, r.attempt));
            Ok((c.u64(due)?, c.u64(seq)?, attempt(c, a, "pending-retry class out of range")?))
        })?;
        let budgets_mt =
            c.seq_fixed(&self.budgets_mt, "retry-budget class count mismatch", |c, &b| c.u64(b))?;
        let sh = self.shared.borrow();
        let counters = sh.counters.codec(c)?;
        if counters.conservation_gap() != 0 {
            return Err(SnapError::Corrupt("restored counters violate conservation"));
        }
        let mut inflight = BTreeMap::new();
        for (id, (class, arrival_ns, attempt)) in inflight_list {
            if inflight.insert(id, Attempt { class, arrival_ns, attempt }).is_some() {
                return Err(SnapError::Corrupt("duplicate in-flight attempt id"));
            }
        }
        let mut retries = BTreeMap::new();
        for (due, seq, (class, arrival_ns, attempt)) in retry_list {
            if retries.insert((due, seq), RetryItem { class, arrival_ns, attempt }).is_some() {
                return Err(SnapError::Corrupt("duplicate pending-retry key"));
            }
        }
        // Ids and retry sequence numbers are handed out in increasing order.
        if inflight.keys().next_back().is_some_and(|&id| id >= next_req_id)
            || retries.keys().any(|&(_, seq)| seq >= retry_seq)
        {
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
            class_rng,
            next_req_id,
            retry_seq,
            inflight,
            retries,
            budgets_mt,
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
        let mut src = ServiceSource::new(cfg, 0, handle.clone());
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
        let mut cfg = ServiceConfig::simple(6, 10_000.0, 400, 100_000);
        cfg.retry.budget =
            Some(RetryBudget { per_arrival_millitokens: 500, cap_millitokens: 10_000 });
        let c = drive(cfg, 1_000_000); // nothing can meet the deadline
        assert_eq!(c.completed, 0, "{c:?}");
        assert!(c.cancelled > 0, "{c:?}");
        assert!(c.retries_spent > 0, "budget allows some retries: {c:?}");
        // 500 mt per arrival = at most one retry per two arrivals.
        assert!(c.retries_spent <= c.arrived, "budget bounds retries: {c:?}");
        assert_eq!(c.conservation_gap(), 0);
        assert_eq!(c.in_flight + c.pending_retry, 0);
    }

    #[test]
    fn unbudgeted_retries_amplify_load() {
        let storm = {
            let mut cfg = ServiceConfig::simple(6, 10_000.0, 400, 100_000);
            cfg.retry.budget = None;
            cfg.classes[0].retry_limit = 6;
            drive(cfg, 1_000_000)
        };
        let budgeted = {
            let mut cfg = ServiceConfig::simple(6, 10_000.0, 400, 100_000);
            cfg.retry.budget =
                Some(RetryBudget { per_arrival_millitokens: 100, cap_millitokens: 5_000 });
            cfg.classes[0].retry_limit = 6;
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

    #[test]
    fn source_snapshot_roundtrip_preserves_ledger() {
        let cfg = ServiceConfig::simple(9, 50_000.0, 300, 200_000);
        let handle = service_handle();
        let mut src = ServiceSource::new(cfg.clone(), 0, handle.clone());
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
        let mut back = ServiceSource::new(cfg, 0, handle2.clone());
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
