//! The traced run's instruments, all in the benchmark's own code.
//!
//! * [`Tracer`] records spans — name, start, end, parent, unit — around the
//!   benchmark's calls into each layer's public functions. Spans stay in
//!   memory and are written out once, at the end, as a Chrome trace-event
//!   file (opens in Perfetto or `chrome://tracing`).
//! * [`TimedMonitor`] and [`TimedSource`] wrap the runtime's `Monitor`s and
//!   the service's `RequestSource` in delegating timers. Those calls are far
//!   too frequent for one span each, so they fold into [`Calls`] tallies
//!   (count, total, per-call samples for percentiles). Every snapshot hook
//!   delegates untouched, so snapshot bytes are identical with and without
//!   the wrappers.
//!
//! With tracing off, [`Tracer::span`] is a direct call and no wrapper is
//! installed: the untraced run measures the program alone.

use std::cell::RefCell;
use std::fmt::Display;
use std::io::Write as _;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use maestro_machine::snap::{SnapError, SnapReader, SnapWriter};
use maestro_machine::Machine;
use maestro_runtime::{
    Monitor, RequestSource, Runtime, ServiceCounters, ServiceInjection, ThrottleState,
};

use crate::stats::HostSpeed;

/// One recorded span. Times are nanoseconds since the tracer was built.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `fleet.epoch`.
    pub name: &'static str,
    /// The unit of work the span belongs to (cell, scenario, epoch, fork).
    pub unit: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

impl Span {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct Log {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// In-memory span recorder (a no-op when built disabled) and the pass
/// clock: every pass times its work through [`Tracer::time_work`] and calls
/// [`Tracer::between_units`] between units, where host speed is sampled.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    log: RefCell<Log>,
    speed: RefCell<HostSpeed>,
}

impl Tracer {
    /// A tracer that records (`on`) or does nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            log: RefCell::new(Log {
                spans: Vec::new(),
                open: Vec::new(),
            }),
            speed: RefCell::default(),
        }
    }

    /// Between two units of a pass: sample host speed (at most every 50
    /// ms). The sample's host time is excluded from [`Tracer::time_work`].
    pub fn between_units(&self) {
        self.speed.borrow_mut().maybe_sample();
    }

    /// Sample host speed now (before a pass).
    pub fn sample_speed(&self) {
        self.speed.borrow_mut().sample();
    }

    /// The host-speed scale over the samples since the last call.
    pub fn take_speed_scale(&self) -> f64 {
        self.speed.borrow_mut().take_scale()
    }

    /// Run a pass's work and return it with its host seconds, not counting
    /// the host-speed samples taken inside.
    pub fn time_work<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let spent = self.speed.borrow().spent_ns();
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed().as_nanos() as u64;
        let sampled = self.speed.borrow().spent_ns() - spent;
        (out, elapsed.saturating_sub(sampled) as f64 * 1e-9)
    }

    /// Whether spans are recorded and wrappers should be installed.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for `unit`; the innermost open
    /// span becomes its parent.
    pub fn span<T>(&self, name: &'static str, unit: impl Display, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = {
            let mut log = self.log.borrow_mut();
            let parent = log.open.last().copied();
            let start_ns = self.now_ns();
            log.spans.push(Span {
                name,
                unit: unit.to_string(),
                parent,
                start_ns,
                end_ns: start_ns,
            });
            let id = log.spans.len() - 1;
            log.open.push(id);
            id
        };
        let out = f();
        let end_ns = self.now_ns();
        let mut log = self.log.borrow_mut();
        log.open.pop();
        log.spans[id].end_ns = end_ns;
        out
    }

    /// Number of spans recorded so far: pass it to [`Tracer::durations_ns`]
    /// to look only at spans recorded after this point.
    pub fn mark(&self) -> usize {
        self.log.borrow().spans.len()
    }

    /// Durations of the spans named `name` recorded since `mark`, in order.
    pub fn durations_ns(&self, name: &str, mark: usize) -> Vec<u64> {
        self.log.borrow().spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Total duration of the spans named `name` since `mark`, seconds.
    pub fn total_s(&self, name: &str, mark: usize) -> f64 {
        self.durations_ns(name, mark).iter().sum::<u64>() as f64 * 1e-9
    }

    /// Write every span as a Chrome trace-event JSON file. Each event
    /// carries its id, parent id, unit and exact start/end in `args`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\":[")?;
        let log = self.log.borrow();
        for (id, s) in log.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"unit\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}}}{}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.unit.replace('"', "'"),
                s.start_ns,
                s.end_ns,
                if id + 1 == log.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Tally of one kind of high-frequency call.
#[derive(Clone, Debug, Default)]
pub struct Calls {
    /// Calls made.
    pub count: u64,
    /// Host time inside the calls, ns.
    pub total_ns: u64,
    /// Each call's host time, ns (for percentiles).
    pub samples_ns: Vec<u32>,
}

impl Calls {
    fn record(&mut self, start: Instant) {
        let ns = start.elapsed().as_nanos() as u64;
        self.count += 1;
        self.total_ns += ns;
        self.samples_ns.push(ns.min(u64::from(u32::MAX)) as u32);
    }

    /// Per-call quantile, microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let v: Vec<f64> = self
            .samples_ns
            .iter()
            .map(|&ns| f64::from(ns) / 1e3)
            .collect();
        crate::stats::quantile(&v, q)
    }

    /// Host seconds inside the calls.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }
}

/// Shared tally handle (the wrapped object is consumed by the runtime).
pub type CallsHandle = Rc<RefCell<Calls>>;

/// A delegating timer around one installed `Monitor`.
pub struct TimedMonitor {
    inner: Box<dyn Monitor>,
    fires: CallsHandle,
}

impl Monitor for TimedMonitor {
    fn next_due_ns(&self) -> Option<u64> {
        self.inner.next_due_ns()
    }

    fn fire(&mut self, machine: &mut Machine, throttle: &mut ThrottleState) {
        let start = Instant::now();
        self.inner.fire(machine, throttle);
        self.fires.borrow_mut().record(start);
    }

    fn snap_state(&self, w: &mut SnapWriter) {
        self.inner.snap_state(w);
    }

    fn restore_state(
        &mut self,
        machine: &Machine,
        r: &mut SnapReader<'_>,
    ) -> Result<(), SnapError> {
        self.inner.restore_state(machine, r)
    }

    fn restore_throttle(&self, throttle: &mut ThrottleState) {
        self.inner.restore_throttle(throttle);
    }
}

/// Re-install every monitor of `rt` behind a [`TimedMonitor`] feeding
/// `fires`, keeping their order.
pub fn time_monitors(rt: &mut Runtime, fires: &CallsHandle) {
    for inner in rt.take_monitors() {
        rt.add_monitor(Box::new(TimedMonitor {
            inner,
            fires: fires.clone(),
        }));
    }
}

/// A delegating timer around the service's `RequestSource`: `poll` and
/// `on_complete` are the source's share of the scheduler loop.
pub struct TimedSource {
    inner: Box<dyn RequestSource>,
    /// `poll` calls (arrivals, admission, retry release).
    polls: CallsHandle,
    /// `on_complete` calls (latency recording, retry scheduling).
    completions: CallsHandle,
}

impl TimedSource {
    /// Wrap `inner`, tallying into `polls` and `completions`.
    pub fn wrap(
        inner: Box<dyn RequestSource>,
        polls: &CallsHandle,
        completions: &CallsHandle,
    ) -> Box<Self> {
        Box::new(TimedSource {
            inner,
            polls: polls.clone(),
            completions: completions.clone(),
        })
    }
}

impl RequestSource for TimedSource {
    fn next_due_ns(&self) -> Option<u64> {
        self.inner.next_due_ns()
    }

    fn poll(&mut self, now_ns: u64, out: &mut Vec<ServiceInjection>) {
        let start = Instant::now();
        self.inner.poll(now_ns, out);
        self.polls.borrow_mut().record(start);
    }

    fn on_complete(&mut self, req_id: u64, now_ns: u64, cancelled: bool) {
        let start = Instant::now();
        self.inner.on_complete(req_id, now_ns, cancelled);
        self.completions.borrow_mut().record(start);
    }

    fn drain(&mut self, now_ns: u64, in_flight: &[u64]) {
        self.inner.drain(now_ns, in_flight);
    }

    fn exhausted(&self) -> bool {
        self.inner.exhausted()
    }

    fn counters(&self) -> ServiceCounters {
        self.inner.counters()
    }

    fn snap_state(&self, w: &mut SnapWriter) {
        self.inner.snap_state(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.restore_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_disabled_tracer_records_nothing() {
        let t = Tracer::new(true);
        t.span("outer", "u0", || t.span("inner", 7, || ()));
        let log = t.log.borrow();
        assert_eq!(log.spans.len(), 2);
        assert_eq!(log.spans[0].parent, None);
        assert_eq!(log.spans[1].parent, Some(0));
        assert_eq!(log.spans[1].unit, "7");
        assert!(log.spans[0].end_ns >= log.spans[1].end_ns);
        let off = Tracer::new(false);
        assert_eq!(off.span("x", "", || 5), 5);
        assert_eq!(off.mark(), 0);
    }
}
