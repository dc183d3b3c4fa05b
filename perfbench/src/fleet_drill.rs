//! `fleet-drill`: about a thousand nodes under the
//! `fleet-correlated-failures` fault mix, scaled up, for 120
//! coordination epochs.
//!
//! No scheduler and no kernels run here: `machine` integration, the `rcr`
//! supervisor and lease slot, `Coordinator::allocate` and the cap-timeline
//! fold do all the work. Each epoch is one unit; the closing cap-safety
//! check (Σ enforced caps ≤ cluster cap at every timestamp) is one more.

use maestro_fleet::{Fleet, FleetConfig, FleetFaultPlan};

use crate::stats::{median, quantile, Digest};
use crate::trace::Tracer;
use crate::{timed_setup, Layers, Pass, Size};

const SEC: u64 = 1_000_000_000;

/// The fleet recipe for one seed and size.
#[derive(Debug)]
pub struct Plan {
    config: FleetConfig,
    epochs: u64,
}

impl Plan {
    /// 1024 nodes × 120 epochs (test size: 48 × 20). The registry drill's
    /// faults scale with the fleet: a crash wave over a fifth of the nodes
    /// at one third of the run, a telemetry partition over another fifth
    /// for the third quarter, and the same message-loss and daemon-fault
    /// rates. The seed drives every fault draw.
    pub fn new(seed: u64, size: Size) -> Self {
        let (nodes, epochs) = if size == Size::Test {
            (48, 20)
        } else {
            (1024, 120)
        };
        let run_ns = epochs * SEC;
        let fifth = nodes / 5;
        let mut config = FleetConfig::new(nodes, 95.0, seed);
        config.faults = FleetFaultPlan::new(seed)
            .with_crash_wave(run_ns / 3, nodes / 3, fifth, 6 * SEC / fifth as u64)
            .with_partition(run_ns / 2, run_ns * 3 / 4, 2 * nodes / 3, fifth)
            .with_grant_loss_rate(0.10)
            .with_grant_dup_rate(0.05)
            .with_grant_delay(0.20, 800_000_000)
            .with_report_loss_rate(0.10)
            .with_daemon_faults(0.01, 7 * SEC);
        Plan { config, epochs }
    }

    /// Build the fleet (set-up), advance it epoch by epoch, then fold the
    /// report (which checks the cap-safety invariant) and the trace digest.
    pub fn pass(&self, t: &Tracer) -> Pass {
        let (mut fleet, setup_s) = timed_setup(|| Fleet::new(self.config.clone()));

        let mark = t.mark();
        let ((report, trace_digest), wall_s) = t.time_work(|| {
            for epoch in 0..self.epochs {
                t.between_units();
                t.span("fleet.epoch", epoch, || fleet.advance_epochs(1, 1));
            }
            let report = t.span("fleet.report", "final", || fleet.report());
            (
                report,
                t.span("fleet.trace_digest", "final", || fleet.trace_digest()),
            )
        });

        let mut pass = Pass::new(setup_s, wall_s, self.epochs + 1);
        if report.cap_violations > 0 {
            pass.failures.push(format!(
                "fleet: {} timestamps with Σ enforced caps above the cluster cap (peak {} W of {} W)",
                report.cap_violations, report.max_cap_sum_w, report.cluster_cap_w
            ));
        }
        let mut d = Digest::default();
        d.u64(trace_digest);
        d.str(&report.render());
        d.f64(report.total_energy_j);
        pass.digest = d.value();
        pass.sim_energy_j = report.total_energy_j;
        pass.sim_time_s = report.virtual_s;
        pass.sim_extra = vec![(
            "sim_lease_expiries",
            report.lease_expiries() as f64,
            "count",
        )];

        let mut layers = Layers::default();
        let sum = |f: fn(&maestro_fleet::NodeStats) -> u64| {
            report.nodes.iter().map(|n| f(&n.stats)).sum::<u64>()
        };
        let leases_applied = sum(|s| s.leases_applied);
        let trace_events: usize = (0..self.config.nodes)
            .map(|i| fleet.node(i).trace().len())
            .sum();
        for (n, v) in [
            ("fleet.grants_sent", report.coordinator.grants_sent),
            ("fleet.grants_lost", report.grants_lost),
            ("fleet.grants_dup", report.grants_duplicated),
            ("fleet.grants_delayed", report.grants_delayed),
            ("fleet.reports_lost", report.reports_lost),
            ("fleet.stale_views", report.coordinator.stale_views),
            ("fleet.leases_applied", leases_applied),
            ("fleet.leases_discarded", sum(|s| s.leases_discarded)),
            ("fleet.lease_expiries", report.lease_expiries()),
            ("fleet.crashes", report.crashes()),
            ("fleet.restarts", report.restarts()),
            ("fleet.throttle_steps", sum(|s| s.throttle_steps)),
            ("fleet.dark_periods", sum(|s| s.dark_periods)),
            ("fleet.trace_events", trace_events as u64),
        ] {
            layers.set(n, v as f64);
        }
        layers.set(
            "fleet.grant_apply_ratio",
            leases_applied as f64 / report.coordinator.grants_sent.max(1) as f64,
        );
        if t.on() {
            let ms: Vec<f64> = t
                .durations_ns("fleet.epoch", mark)
                .iter()
                .map(|&ns| ns as f64 / 1e6)
                .collect();
            let tenth = (ms.len() / 10).max(1);
            layers.set("fleet.epoch_ms.p50", median(&ms));
            layers.set("fleet.epoch_ms.p99", quantile(&ms, 0.99));
            layers.set(
                "fleet.epoch_ms.late_over_early",
                median(&ms[ms.len() - tenth..]) / median(&ms[..tenth]),
            );
            layers.set("fleet.report_ms", t.total_s("fleet.report", mark) * 1e3);
        }
        pass.layers = layers;
        pass
    }
}
