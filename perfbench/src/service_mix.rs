//! `service-mix`: open-loop request traffic in virtual time through
//! `Maestro::try_run_service`.
//!
//! Four registry scenarios — steady, bursty, guarded overload with retries,
//! and the middle Pareto point — with their arrival seeds drawn from the
//! benchmark seed (seed 1 reproduces the registry's seeds 101..=104). The
//! same `runtime` scheduler that runs one batch bag in `paper-tables` here
//! runs many short request DAGs, timers and cancellations.

use maestro::RunReport;
use maestro_bench::scenario::{service_facade, service_scenario, ServiceScenario};
use maestro_machine::snap::SnapWriter;
use maestro_runtime::RuntimeError;
use maestro_service::{LatencyHist, ServiceHandle, ServiceSummary};

use crate::stats::Digest;
use crate::trace::{time_monitors, CallsHandle, TimedSource, Tracer};
use crate::{timed_setup, Layers, Pass, Size};

/// The scenarios, in run order.
pub const SCENARIOS: &[&str] = &[
    "svc-steady",
    "svc-burst",
    "svc-storm-guarded",
    "svc-pareto-mid",
];

/// The scenario recipes for one seed and size.
#[derive(Debug)]
pub struct Plan {
    scenarios: Vec<ServiceScenario>,
}

impl Plan {
    /// Scenario `i` draws arrivals from seed `100·seed + i + 1`; test size
    /// divides every arrival total by 20.
    pub fn new(seed: u64, size: Size) -> Self {
        let scenarios = SCENARIOS
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let mut sc = service_scenario(name).expect("registered service scenario");
                sc.service.arrivals.seed = seed.wrapping_mul(100).wrapping_add(i as u64 + 1);
                if size == Size::Test {
                    sc.service.arrivals.total_requests /= 20;
                }
                sc
            })
            .collect();
        Plan { scenarios }
    }

    /// Build each scenario's facade and service stack (set-up), then run
    /// each scenario as one unit and check its request ledger.
    pub fn pass(&self, t: &Tracer) -> Pass {
        let (ready, setup_s) = timed_setup(|| {
            self.scenarios
                .iter()
                .map(service_facade)
                .collect::<Vec<_>>()
        });

        let fires = CallsHandle::default();
        let (polls, completions) = (CallsHandle::default(), CallsHandle::default());
        let mark = t.mark();
        let (runs, wall_s) = t.time_work(|| {
            let mut runs: Vec<(Result<RunReport, RuntimeError>, ServiceHandle)> = Vec::new();
            for (sc, (mut m, source, handle)) in self.scenarios.iter().zip(ready) {
                t.between_units();
                let report = if t.on() {
                    time_monitors(m.runtime_mut(), &fires);
                    let timed = TimedSource::wrap(source, &polls, &completions);
                    t.span("runtime.run_service", sc.name, || {
                        m.try_run_service(sc.name, &mut (), timed)
                    })
                } else {
                    m.try_run_service(sc.name, &mut (), source)
                };
                runs.push((report, handle));
            }
            runs
        });

        let mut pass = Pass::new(setup_s, wall_s, self.scenarios.len() as u64);
        let mut d = Digest::default();
        let mut layers = Layers::default();
        let mut merged = LatencyHist::new();
        let (mut arrived, mut completed, mut elapsed_s) = (0u64, 0u64, 0.0f64);
        for (sc, (report, handle)) in self.scenarios.iter().zip(&runs) {
            d.str(sc.name);
            let r = match report {
                Ok(r) => r,
                Err(e) => {
                    d.str(&e.to_string());
                    pass.failures.push(format!("{}: {e}", sc.name));
                    continue;
                }
            };
            let summary = ServiceSummary::collect(handle, r.elapsed_s);
            let c = summary.counters;
            if c.conservation_gap() != 0 || c.in_flight + c.pending_retry != 0 {
                pass.failures.push(format!(
                    "{}: request ledger does not balance: {c:?}",
                    sc.name
                ));
            }
            if c.arrived != sc.service.arrivals.total_requests {
                pass.failures.push(format!(
                    "{}: {} of {} requests arrived",
                    sc.name, c.arrived, sc.service.arrivals.total_requests
                ));
            }
            d.str(&r.to_string());
            d.str(&summary.render());
            d.f64(r.joules);
            d.f64(r.elapsed_s);
            merged.merge(&handle.borrow().total);
            pass.sim_energy_j += r.joules;
            pass.sim_time_s += r.elapsed_s;
            arrived += c.arrived;
            completed += c.completed;
            elapsed_s += r.elapsed_s;

            layers.add_run_stats(&r.stats);
            layers.add("control.decisions", r.stats.monitor_fires as f64);
            layers.add(
                "control.activations",
                (summary.energy_steps + summary.brownout_steps) as f64,
            );
            for (n, v) in [
                ("service.arrived", c.arrived),
                ("service.completed", c.completed),
                ("service.shed", c.shed),
                ("service.failed", c.failed),
                ("service.cancelled", c.cancelled),
                ("service.retries", c.retries_spent),
            ] {
                layers.add(n, v as f64);
            }
            layers.set(
                &format!("service.p99_ns.{}", sc.name),
                summary.p99_ns as f64,
            );
        }
        let mut hist_bytes = SnapWriter::new();
        merged.snap_state(&mut hist_bytes);
        d.bytes(&hist_bytes.finish());
        pass.digest = d.value();

        let q = |p: f64| merged.quantile(p).unwrap_or(0) as f64;
        pass.sim_extra = vec![
            ("sim_p50_ns", q(0.50), "sim_ns"),
            ("sim_p99_ns", q(0.99), "sim_ns"),
            (
                "sim_goodput_rps",
                completed as f64 / elapsed_s.max(f64::MIN_POSITIVE),
                "1/sim_s",
            ),
            (
                "sim_slo_miss_ratio",
                (arrived - completed.min(arrived)) as f64 / arrived.max(1) as f64,
                "ratio",
            ),
        ];
        let retries = layers.get("service.retries").unwrap_or(0.0);
        layers.set(
            "service.useful_ratio",
            completed as f64 / (arrived as f64 + retries).max(1.0),
        );

        if t.on() {
            let (f, p, c) = (fires.borrow(), polls.borrow(), completions.borrow());
            layers.add_fires(&f);
            layers.set("service.poll_calls", p.count as f64);
            layers.set("service.poll_us.p50", p.quantile_us(0.5));
            layers.set("service.poll_us.p99", p.quantile_us(0.99));
            layers.set("service.self_s", p.total_s() + c.total_s());
            let run_s = t.total_s("runtime.run_service", mark);
            layers.set_runtime_self(run_s - f.total_s() - p.total_s() - c.total_s());
        }
        pass.layers = layers;
        pass
    }
}
