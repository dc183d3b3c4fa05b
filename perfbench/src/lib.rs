//! # maestro-perfbench
//!
//! The repository benchmark. One process runs one named workload for a
//! fixed host-time budget, repeating the workload's fixed work in *passes*
//! and reporting medians:
//!
//! * `paper-tables` — paper-scale evaluation cells through `Maestro`
//!   ([`paper`]);
//! * `service-mix` — open-loop request traffic in virtual time
//!   ([`service_mix`]);
//! * `fleet-drill` — ~1000 nodes under correlated failures
//!   ([`fleet_drill`]);
//! * `snapshot-fork` — cadence snapshots through the codec, then
//!   fork-resumes checked against unbroken runs ([`snapshot_fork`]).
//!
//! Untraced runs report the end-to-end metrics ([`E2E_METRICS`]); traced
//! runs alternate untraced and traced passes and report the per-layer
//! metrics ([`per_layer_metrics`]) plus the tracing overhead. Everything
//! runs on one host thread. See `README.md` for what each number means.

pub mod fleet_drill;
pub mod paper;
pub mod service_mix;
pub mod snapshot_fork;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use maestro_runtime::RunStats;

use crate::stats::median;
use crate::trace::{Calls, Tracer};

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &[
    "paper-tables",
    "service-mix",
    "fleet-drill",
    "snapshot-fork",
];

/// End-to-end metrics (untraced runs), with units. Simulated quantities use
/// `sim_*` units so they are never mistaken for host time.
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_energy_j", "J"),
    ("sim_time_s", "sim_s"),
];

/// Full size, or the seconds-long inputs of the self-check.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark is defined with.
    Full,
    /// Test-scale inputs (self-check only; numbers are not comparable).
    Test,
}

/// One invocation.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Host-time budget for the measured passes, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Where a traced run writes its span file, if anywhere.
    pub trace_dir: Option<PathBuf>,
}

/// Per-layer numbers of one pass: deterministic counts always, host times
/// only on traced passes.
#[derive(Clone, Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    /// Set `name` to `v`.
    pub fn set(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_string(), v);
    }

    /// Add `v` to `name` (starting from 0).
    pub fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Fold one run's scheduler counters into the `runtime.*` counts (and
    /// the duty writes the controllers caused into `control.duty_writes`).
    pub fn add_run_stats(&mut self, s: &RunStats) {
        for (name, v) in [
            ("runtime.steps", s.steps),
            ("runtime.tasks", s.tasks_completed),
            ("runtime.steals", s.steals),
            ("runtime.spawned", s.spawned),
            ("runtime.spin_entries", s.spin_entries),
            ("runtime.tasks_cancelled", s.tasks_cancelled),
            ("control.fires", s.monitor_fires),
            ("control.duty_writes", s.duty_writes),
        ] {
            self.add(name, v as f64);
        }
        let peak = self.get("runtime.peak_live_tasks").unwrap_or(0.0);
        self.set(
            "runtime.peak_live_tasks",
            peak.max(s.peak_live_tasks as f64),
        );
    }

    /// Host-time numbers of the timed monitor fires.
    pub fn add_fires(&mut self, fires: &Calls) {
        self.set("control.fire_us.p50", fires.quantile_us(0.5));
        self.set("control.fire_us.p99", fires.quantile_us(0.99));
        self.set("control.self_s", fires.total_s());
    }

    /// The runtime's self time (its run spans minus the monitor and source
    /// calls inside them) and the derived cost per scheduler step.
    pub fn set_runtime_self(&mut self, self_s: f64) {
        self.set("runtime.self_s", self_s);
        let steps = self.get("runtime.steps").unwrap_or(0.0);
        self.set(
            "runtime.ns_per_step",
            if steps > 0.0 {
                self_s * 1e9 / steps
            } else {
                0.0
            },
        );
    }
}

/// What one pass of a workload produced.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Host seconds building scenarios, fleets and facades.
    pub setup_s: f64,
    /// Host seconds running and checking the fixed work.
    pub wall_s: f64,
    /// Units attempted (cells, scenarios, epochs, captures, forks).
    pub units: u64,
    /// One message per failed unit or broken invariant.
    pub failures: Vec<String>,
    /// Digest of everything simulated (bit-stable).
    pub digest: u64,
    /// Simulated energy over every unit, Joules.
    pub sim_energy_j: f64,
    /// Simulated (virtual) time over every unit, seconds.
    pub sim_time_s: f64,
    /// Workload-specific simulated results: (name, value, unit).
    pub sim_extra: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer numbers.
    pub layers: Layers,
}

impl Pass {
    /// An empty pass with its timings and unit count.
    pub fn new(setup_s: f64, wall_s: f64, units: u64) -> Self {
        Pass {
            setup_s,
            wall_s,
            units,
            failures: Vec::new(),
            digest: 0,
            sim_energy_j: 0.0,
            sim_time_s: 0.0,
            sim_extra: Vec::new(),
            layers: Layers::default(),
        }
    }
}

/// Every per-layer metric a traced run reports, with units, in output
/// order. Layers a workload does not exercise read 0.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut push = |name: &str, unit: &'static str| v.push((name.to_string(), unit));
    for w in paper::PAPER_WORKLOADS {
        push(&format!("workloads.cell_ms.{w}"), "ms");
    }
    for (n, u) in [
        ("runtime.steps", "count"),
        ("runtime.tasks", "count"),
        ("runtime.steals", "count"),
        ("runtime.spawned", "count"),
        ("runtime.spin_entries", "count"),
        ("runtime.peak_live_tasks", "count"),
        ("runtime.tasks_cancelled", "count"),
        ("runtime.self_s", "s"),
        ("runtime.ns_per_step", "ns"),
        ("runtime.probe_steps_per_s", "1/s"),
        ("control.fires", "count"),
        ("control.fire_us.p50", "us"),
        ("control.fire_us.p99", "us"),
        ("control.self_s", "s"),
        ("control.decisions", "count"),
        ("control.activations", "count"),
        ("control.duty_writes", "count"),
        ("service.poll_calls", "count"),
        ("service.poll_us.p50", "us"),
        ("service.poll_us.p99", "us"),
        ("service.self_s", "s"),
        ("service.arrived", "count"),
        ("service.completed", "count"),
        ("service.shed", "count"),
        ("service.failed", "count"),
        ("service.cancelled", "count"),
        ("service.retries", "count"),
        ("service.useful_ratio", "ratio"),
    ] {
        push(n, u);
    }
    for s in service_mix::SCENARIOS {
        push(&format!("service.p99_ns.{s}"), "sim_ns");
    }
    for (n, u) in [
        ("sim_p50_ns", "sim_ns"),
        ("sim_p99_ns", "sim_ns"),
        ("sim_goodput_rps", "1/sim_s"),
        ("sim_slo_miss_ratio", "ratio"),
        ("fleet.epoch_ms.p50", "ms"),
        ("fleet.epoch_ms.p99", "ms"),
        ("fleet.epoch_ms.late_over_early", "ratio"),
        ("fleet.report_ms", "ms"),
        ("fleet.grants_sent", "count"),
        ("fleet.grants_lost", "count"),
        ("fleet.grants_dup", "count"),
        ("fleet.grants_delayed", "count"),
        ("fleet.reports_lost", "count"),
        ("fleet.stale_views", "count"),
        ("fleet.leases_applied", "count"),
        ("fleet.leases_discarded", "count"),
        ("fleet.lease_expiries", "count"),
        ("fleet.crashes", "count"),
        ("fleet.restarts", "count"),
        ("fleet.throttle_steps", "count"),
        ("fleet.dark_periods", "count"),
        ("fleet.trace_events", "count"),
        ("fleet.grant_apply_ratio", "ratio"),
        ("sim_lease_expiries", "count"),
        ("machine.advance_ns", "ns"),
        ("snap.captures", "count"),
        ("snap.bytes", "B"),
        ("snap.encode_ns_per_kib", "ns/KiB"),
        ("snap.decode_ns_per_kib", "ns/KiB"),
        ("snap.resume_ms.p50", "ms"),
        ("snap.capture_s", "s"),
        ("trace.overhead_frac", "ratio"),
    ] {
        push(n, u);
    }
    v
}

/// A named number with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one invocation.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Units attempted over all passes.
    pub attempted: u64,
    /// Units failed over all passes.
    pub failed: u64,
    /// No unit failed and every pass produced the same digest.
    pub correct: bool,
    /// The output digest (first pass).
    pub digest: u64,
    /// Passes run (untraced, traced).
    pub passes: (usize, usize),
    /// The metrics the result line carries: end-to-end, or per-layer when
    /// traced.
    pub metrics: Vec<Metric>,
    /// Workload-specific simulated results and `error_ratio`, printed for
    /// humans above the result line.
    pub summary: Vec<Metric>,
    /// Failure messages (deduplicated, first few).
    pub failures: Vec<String>,
}

/// The named workload's fixed work, as a function running one pass.
type Plan = Box<dyn Fn(&Tracer) -> Pass>;

fn plan(workload: &str, seed: u64, size: Size) -> Option<Plan> {
    Some(match workload {
        "paper-tables" => {
            let p = paper::Plan::new(size);
            Box::new(move |t| p.pass(t))
        }
        "service-mix" => {
            let p = service_mix::Plan::new(seed, size);
            Box::new(move |t| p.pass(t))
        }
        "fleet-drill" => {
            let p = fleet_drill::Plan::new(seed, size);
            Box::new(move |t| p.pass(t))
        }
        "snapshot-fork" => {
            let p = snapshot_fork::Plan::new(size);
            Box::new(move |t| p.pass(t))
        }
        _ => return None,
    })
}

/// How many times each pass builds its set-up; the last build is used and
/// the median build time is the pass's `setup_s`.
const SETUP_REPS: usize = 5;

/// Build a pass's set-up [`SETUP_REPS`] times (earlier builds are dropped
/// outside the timed region) and return the last build with the median
/// build time, seconds.
pub fn timed_setup<T>(build: impl Fn() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    loop {
        let start = Instant::now();
        let built = build();
        times.push(start.elapsed().as_secs_f64());
        if times.len() == SETUP_REPS {
            return (built, median(&times));
        }
    }
}

/// Passes of each kind run even when the budget is already spent, so every
/// median has at least this many samples.
const MIN_PASSES: usize = 3;

/// Run one invocation: repeat passes until `opts.seconds` of host time is
/// spent (traced runs alternate untraced and traced passes), then fold the
/// passes into medians.
///
/// Host times are normalized to a nominal host speed: short bursts of a
/// fixed reference loop ([`stats::HostSpeed`]) run before every pass and
/// between its units, and each pass's times are scaled by the speed
/// measured during it. On a shared host whose speed swings with its
/// neighbours' load this removes most of the swing between runs, which raw
/// times cannot escape; the raw median is printed beside it.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let plan = plan(&opts.workload, opts.seed, opts.size).ok_or_else(|| {
        format!(
            "unknown workload {:?} (expected one of {WORKLOADS:?})",
            opts.workload
        )
    })?;
    let off = Tracer::new(false);
    let tracer = Tracer::new(opts.trace);
    // (pass, host-speed scale) pairs.
    let mut untraced: Vec<(Pass, f64)> = Vec::new();
    let mut traced: Vec<(Pass, f64)> = Vec::new();
    let start = Instant::now();
    loop {
        let enough = untraced.len() >= MIN_PASSES && (!opts.trace || traced.len() >= MIN_PASSES);
        if enough && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        let is_traced = opts.trace && traced.len() < untraced.len();
        let t = if is_traced { &tracer } else { &off };
        t.sample_speed();
        let pass = plan(t);
        let scale = t.take_speed_scale();
        eprintln!(
            "pass {:>3}{}: host speed {scale:.3}, set-up {:.6} s, wall {:.6} s",
            untraced.len() + traced.len(),
            if is_traced { " (traced)" } else { "" },
            pass.setup_s,
            pass.wall_s
        );
        if is_traced {
            &mut traced
        } else {
            &mut untraced
        }
        .push((pass, scale));
    }

    let all = || untraced.iter().chain(&traced).map(|(p, _)| p);
    let first = &untraced[0].0;
    let mut failures: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for p in all() {
        attempted += p.units;
        failed += (p.failures.len() as u64).min(p.units);
        for f in &p.failures {
            if !failures.contains(f) && failures.len() < 8 {
                failures.push(f.clone());
            }
        }
    }
    let same_digest = all().all(|p| p.digest == first.digest);
    if !same_digest {
        failures.push("passes disagree on the output digest (nondeterministic simulation)".into());
    }

    let m = |name: &str, value: f64, unit: &'static str| Metric {
        name: name.to_string(),
        value,
        unit,
    };
    let scaled = |passes: &[(Pass, f64)], f: fn(&Pass) -> f64| -> f64 {
        median(
            &passes
                .iter()
                .map(|(p, scale)| f(p) * scale)
                .collect::<Vec<_>>(),
        )
    };
    let raw_wall = median(&untraced.iter().map(|(p, _)| p.wall_s).collect::<Vec<_>>());
    let speed = median(&untraced.iter().map(|(_, s)| *s).collect::<Vec<_>>());
    // Traced runs already carry the simulated results as per-layer metrics.
    let mut summary: Vec<Metric> = if opts.trace {
        Vec::new()
    } else {
        first
            .sim_extra
            .iter()
            .map(|&(n, v, u)| m(n, v, u))
            .collect()
    };
    summary.push(m(
        "error_ratio",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    ));
    summary.push(m("raw_wall_s", raw_wall, "s"));
    summary.push(m("host_speed", speed, "ratio"));

    let wall_s = scaled(&untraced, |p| p.wall_s);
    let metrics = if opts.trace {
        let traced_speed = median(&traced.iter().map(|(_, s)| *s).collect::<Vec<_>>());
        let mut probes = Layers::default();
        probes.set(
            "machine.advance_ns",
            median_of(5, maestro_bench::perf::machine_advance_ns_per_op),
        );
        probes.set(
            "runtime.probe_steps_per_s",
            maestro_bench::perf::scheduler_steps_per_sec(),
        );
        for &(n, v, _) in &first.sim_extra {
            probes.set(n, v);
        }
        if let Some(dir) = &opts.trace_dir {
            let path = dir.join(format!("trace-{}-seed{}.json", opts.workload, opts.seed));
            tracer
                .write_chrome(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            eprintln!("spans written to {}", path.display());
        }
        let mut metrics: Vec<Metric> = per_layer_metrics()
            .into_iter()
            .map(|(name, unit)| {
                let value = probes.get(&name).unwrap_or_else(|| {
                    median(
                        &traced
                            .iter()
                            .filter_map(|(p, _)| p.layers.get(&name))
                            .collect::<Vec<_>>(),
                    )
                });
                // Host times and rates at nominal host speed, like wall_s.
                let value = match unit {
                    "s" | "ms" | "us" | "ns" | "ns/KiB" => value * traced_speed,
                    "1/s" => value / traced_speed,
                    _ => value,
                };
                Metric { name, value, unit }
            })
            .collect();
        let overhead = scaled(&traced, |p| p.wall_s) / wall_s - 1.0;
        metrics
            .last_mut()
            .expect("trace.overhead_frac is listed last")
            .value = overhead;
        metrics
    } else {
        let values = [
            wall_s,
            scaled(&untraced, |p| p.setup_s),
            stats::peak_rss_mib().unwrap_or(f64::NAN),
            first.sim_energy_j,
            first.sim_time_s,
        ];
        E2E_METRICS
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| m(name, v, unit))
            .collect()
    };
    Ok(Outcome {
        attempted,
        failed,
        correct: failed == 0 && same_digest,
        digest: first.digest,
        passes: (untraced.len(), traced.len()),
        metrics,
        summary,
        failures,
    })
}

fn median_of(n: usize, f: impl Fn() -> f64) -> f64 {
    let v: Vec<f64> = (0..n).map(|_| f()).collect();
    median(&v)
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics` (every value printed with all its digits).
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
