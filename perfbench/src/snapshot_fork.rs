//! `snapshot-fork`: the chaos-triage and fork-sweep uses of snapshots.
//!
//! 1. `contended-adaptive` runs under a dense `SnapshotPlan::every`
//!    cadence; every capture goes through `to_bytes` and `from_bytes`, and
//!    the decoded snapshot must re-encode to the same bytes.
//! 2. The same scenario runs once without captures, so the capture cost is
//!    the difference of the two runs.
//! 3. Each `sweep_limits` variant suspends mid-run, round-trips its
//!    snapshot through bytes, and resumes on a fresh facade; the result
//!    must equal the variant's unbroken, fence-matched run (report text and
//!    energy bits).
//!
//! The codec does nearly all the host work here and none elsewhere.

use maestro::{Maestro, MaestroRun, MaestroRunEnd, MaestroSnapshot, RunReport};
use maestro_bench::scenario::{limit_variant, scenario, sweep_limits, Scenario};
use maestro_runtime::SnapshotPlan;

use crate::stats::{median, Digest};
use crate::trace::{time_monitors, CallsHandle, Tracer};
use crate::{timed_setup, Layers, Pass, Size};

/// Where the forks suspend: about halfway through the ~920 ms run.
const FORK_AT_NS: u64 = 460_000_000;

/// The snapshot recipe for one size.
#[derive(Debug)]
pub struct Plan {
    scenario: Scenario,
    cadence_ns: u64,
    limits: Vec<usize>,
}

/// The facades one pass uses, built during set-up.
struct Facades {
    cadence: Maestro,
    plain: Maestro,
    /// Per variant: (unbroken, suspended prefix, resumed fork).
    forks: Vec<(Maestro, Maestro, Maestro)>,
}

impl Plan {
    /// A capture every virtual millisecond and all six sweep variants (test
    /// size: every 50 ms, three variants).
    pub fn new(size: Size) -> Self {
        let scenario = scenario("contended-adaptive").expect("registered scenario");
        let (cadence_ns, limits) = match size {
            Size::Full => (1_000_000, sweep_limits().to_vec()),
            Size::Test => (50_000_000, sweep_limits()[..3].to_vec()),
        };
        Plan {
            scenario,
            cadence_ns,
            limits,
        }
    }

    fn facade(&self, limit: Option<usize>, t: &Tracer, fires: &CallsHandle) -> Maestro {
        let cfg = match limit {
            Some(l) => limit_variant(&self.scenario.config, l),
            None => self.scenario.config.clone(),
        };
        let mut m = Maestro::new(cfg);
        if t.on() {
            time_monitors(m.runtime_mut(), fires);
        }
        m
    }

    fn run(&self, m: &mut Maestro, plan: &SnapshotPlan) -> Result<MaestroRun, String> {
        m.run_captured(
            self.scenario.name,
            &mut (),
            self.scenario.spec.clone().into_task(),
            plan,
        )
        .map_err(|e| format!("capture failed: {e}"))
    }

    /// Build every facade (set-up), then run the cadence, plain and fork
    /// stages.
    pub fn pass(&self, t: &Tracer) -> Pass {
        let fires = CallsHandle::default();
        let (mut f, setup_s) = timed_setup(|| Facades {
            cadence: self.facade(None, t, &fires),
            plain: self.facade(None, t, &fires),
            forks: self
                .limits
                .iter()
                .map(|&l| {
                    (
                        self.facade(Some(l), t, &fires),
                        self.facade(Some(l), t, &fires),
                        self.facade(Some(l), t, &fires),
                    )
                })
                .collect(),
        });

        let mark = t.mark();
        let (out, wall_s) = t.time_work(|| self.stages(t, &mut f));
        let Tally {
            mut d,
            failures,
            reports,
            units,
            captures,
            bytes_total,
        } = out;

        let mut pass = Pass::new(setup_s, wall_s, units);
        pass.failures = failures;
        let mut layers = Layers::default();
        for r in &reports {
            d.str(&r.to_string());
            d.f64(r.joules);
            d.f64(r.elapsed_s);
            pass.sim_energy_j += r.joules;
            pass.sim_time_s += r.elapsed_s;
            layers.add_run_stats(&r.stats);
            if let Some(th) = &r.throttle {
                layers.add("control.decisions", th.decisions as f64);
                layers.add("control.activations", th.activations as f64);
            }
        }
        pass.digest = d.value();
        let kib = bytes_total as f64 / 1024.0;
        layers.set("snap.bytes", bytes_total as f64);
        layers.set("snap.captures", captures as f64);
        if t.on() {
            let encode = t.total_s("snap.encode", mark);
            let decode = t.total_s("snap.decode", mark);
            layers.set("snap.encode_ns_per_kib", encode * 1e9 / kib);
            layers.set("snap.decode_ns_per_kib", decode * 1e9 / kib);
            let resume: Vec<f64> = t
                .durations_ns("fork.resume", mark)
                .iter()
                .map(|&ns| ns as f64 / 1e6)
                .collect();
            layers.set("snap.resume_ms.p50", median(&resume));
            let cadence_s = t.total_s("runtime.run_captured", mark);
            let plain_s = t.total_s("runtime.run", mark);
            layers.set("snap.capture_s", cadence_s - plain_s);
            let f = fires.borrow();
            layers.add_fires(&f);
            let runs_s = cadence_s
                + plain_s
                + t.total_s("fork.unbroken", mark)
                + t.total_s("fork.suspend", mark)
                + t.total_s("fork.resume", mark);
            layers.set_runtime_self(runs_s - f.total_s());
        }
        pass.layers = layers;
        pass
    }
}

/// What the stages of one pass produced.
#[derive(Default)]
struct Tally {
    d: Digest,
    failures: Vec<String>,
    reports: Vec<RunReport>,
    units: u64,
    captures: u64,
    bytes_total: u64,
}

impl Plan {
    fn stages(&self, t: &Tracer, f: &mut Facades) -> Tally {
        let mut out = Tally::default();

        // 1. Cadence run, every capture through the codec.
        out.units += 1;
        let cadence = t.span("runtime.run_captured", "cadence", || {
            self.run(&mut f.cadence, &SnapshotPlan::every(self.cadence_ns))
        });
        match cadence {
            Err(e) => out.failures.push(format!("cadence run: {e}")),
            Ok(run) => {
                for (i, snap) in run.snapshots.iter().enumerate() {
                    out.units += 1;
                    match round_trip(t, i, snap) {
                        Ok((bytes, _)) => {
                            out.captures += 1;
                            out.bytes_total += bytes.len() as u64;
                            out.d.u64(snap.t_ns());
                            out.d.blob(&bytes);
                        }
                        Err(e) => out
                            .failures
                            .push(format!("capture {i} at {} ns: {e}", snap.t_ns())),
                    }
                }
                out.completed(run.end, "cadence run");
            }
        }

        // 2. The same run without captures.
        t.between_units();
        out.units += 1;
        match t.span("runtime.run", "plain", || {
            self.run(&mut f.plain, &SnapshotPlan::none())
        }) {
            Ok(run) => out.completed(run.end, "plain run"),
            Err(e) => out.failures.push(format!("plain run: {e}")),
        }

        // 3. Suspend, round-trip and resume each variant.
        for (&limit, facades) in self.limits.iter().zip(&mut f.forks) {
            t.between_units();
            out.units += 1;
            let label = format!("limit {limit}");
            match self.fork(t, &label, facades) {
                Ok((reference, resumed, bytes)) => {
                    out.captures += 1;
                    out.bytes_total += bytes;
                    out.reports.push(reference);
                    out.reports.push(resumed);
                }
                Err(e) => out.failures.push(format!("{label}: {e}")),
            }
        }
        out
    }

    /// One sweep variant: its unbroken fence-matched run, and the run
    /// suspended at [`FORK_AT_NS`], round-tripped through bytes and resumed
    /// on a fresh facade. The two must agree in report text and energy
    /// bits. Returns both reports and the snapshot's size in bytes.
    fn fork(
        &self,
        t: &Tracer,
        label: &str,
        (unbroken, prefix, fork): &mut (Maestro, Maestro, Maestro),
    ) -> Result<(RunReport, RunReport, u64), String> {
        let fenced = SnapshotPlan::none().with_fence(FORK_AT_NS);
        let reference = t
            .span("fork.unbroken", label, || self.run(unbroken, &fenced))?
            .report()
            .ok_or("unbroken run did not complete")?;
        let snap = t
            .span("fork.suspend", label, || {
                self.run(prefix, &SnapshotPlan::suspend_at(FORK_AT_NS))
            })?
            .suspended()
            .ok_or("prefix run did not suspend")?;
        let (bytes, restored) = round_trip(t, label, &snap)?;
        let resumed = t
            .span("fork.resume", label, || {
                fork.resume_captured(&mut (), &restored, &SnapshotPlan::none())
            })
            .map_err(|e| e.to_string())?
            .report()
            .ok_or("resumed fork did not complete")?;
        let (a, b) = (resumed.to_string(), reference.to_string());
        if a != b || resumed.joules.to_bits() != reference.joules.to_bits() {
            return Err(format!(
                "fork differs from its unbroken run:\n  fork     {a} ({} J)\n  unbroken {b} ({} J)",
                resumed.joules, reference.joules
            ));
        }
        Ok((reference, resumed, bytes.len() as u64))
    }
}

impl Tally {
    fn completed(&mut self, end: MaestroRunEnd, what: &str) {
        match end {
            MaestroRunEnd::Completed(r) => self.reports.push(r),
            other => self
                .failures
                .push(format!("{what} did not complete: {other:?}")),
        }
    }
}

/// Encode `snap`, decode it, and check the decoded snapshot re-encodes to
/// the same bytes. Returns the bytes and the decoded snapshot.
fn round_trip(
    t: &Tracer,
    unit: impl std::fmt::Display,
    snap: &MaestroSnapshot,
) -> Result<(Vec<u8>, MaestroSnapshot), String> {
    let bytes = t.span("snap.encode", &unit, || snap.to_bytes());
    let back = t
        .span("snap.decode", &unit, || MaestroSnapshot::from_bytes(&bytes))
        .map_err(|e| e.to_string())?;
    if back.to_bytes() != bytes {
        return Err("decoded snapshot re-encodes to different bytes".into());
    }
    Ok((bytes, back))
}
