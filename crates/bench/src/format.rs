//! Plain-text table rendering for the CLI.
//!
//! Every renderer returns the finished table as a `String` rather than
//! printing directly: the parallel `all` harness renders experiments on
//! worker threads and prints the buffers in experiment order, so the
//! combined output is byte-identical to a serial run — and the
//! determinism tests can compare rendered tables directly.

use crate::experiments::{
    AblationRow, ColdStart, CompilerRow, DutyCycleProbe, OverheadProbe, ParetoPoint, ScalingCurve,
    ServiceRow, ThrottleRow,
};
use maestro_fleet::FleetReport;
use std::fmt::Write;

fn header_line(out: &mut String, title: &str) {
    let _ = writeln!(out);
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "{}", "=".repeat(title.len()));
}

/// Render a compiler-matrix table as CSV (one row per workload × config),
/// ready for external plotting.
pub fn csv_compiler_rows(rows: &[CompilerRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "workload,config,time_s,joules,watts,paper_time_s,paper_joules,paper_watts");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{:.4},{:.2},{:.2},{:.4},{:.2},{:.2}",
            r.workload,
            r.cc,
            r.model.time_s,
            r.model.joules,
            r.model.watts,
            r.paper.time_s,
            r.paper.joules,
            r.paper.watts,
        );
    }
    out
}

/// Render scaling curves as CSV (one row per workload × thread count).
pub fn csv_scaling(curves: &[ScalingCurve]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "workload,workers,time_s,joules,speedup,normalized_energy");
    for c in curves {
        let t1 = c.points[0].time_s;
        let e1 = c.points[0].joules;
        for p in &c.points {
            let _ = writeln!(
                out,
                "{},{},{:.4},{:.2},{:.4},{:.4}",
                c.workload,
                p.workers,
                p.time_s,
                p.joules,
                t1 / p.time_s,
                p.joules / e1,
            );
        }
    }
    out
}

/// Render a throttling table as CSV.
pub fn csv_throttling(rows: &[ThrottleRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "configuration,time_s,joules,watts,paper_time_s,paper_joules,paper_watts,throttled_fraction"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{},{:.4},{:.2},{:.2},{:.4},{:.2},{:.2},{}",
            r.config,
            r.model.time_s,
            r.model.joules,
            r.model.watts,
            r.paper.time_s,
            r.paper.joules,
            r.paper.watts,
            r.throttled_fraction.map(|f| format!("{f:.3}")).unwrap_or_default(),
        );
    }
    out
}

/// Render a Table I/II/III-style compiler matrix.
pub fn render_compiler_rows(title: &str, rows: &[CompilerRow]) -> String {
    let mut out = String::new();
    header_line(&mut out, title);
    let _ = writeln!(
        out,
        "{:<24} {:<8} | {:>8} {:>9} {:>7} | {:>8} {:>9} {:>7}",
        "application", "config", "time(s)", "J", "W", "paper-t", "paper-J", "paper-W"
    );
    let _ = writeln!(out, "{}", "-".repeat(96));
    for r in rows {
        let _ = writeln!(
            out,
            "{:<24} {:<8} | {:>8.2} {:>9.0} {:>7.1} | {:>8.2} {:>9.0} {:>7.1}",
            r.workload,
            r.cc.to_string(),
            r.model.time_s,
            r.model.joules,
            r.model.watts,
            r.paper.time_s,
            r.paper.joules,
            r.paper.watts,
        );
    }
    out
}

/// Render a Figure 1-4-style scaling table (speedup and normalized energy).
pub fn render_scaling(title: &str, curves: &[ScalingCurve]) -> String {
    let mut out = String::new();
    header_line(&mut out, title);
    for c in curves {
        let speedups = c.speedups();
        let energies = c.normalized_energy();
        let _ = write!(out, "{:<24} speedup:", c.workload);
        for (w, s) in &speedups {
            let _ = write!(out, "  {w}t={s:.2}");
        }
        let _ = writeln!(out);
        let _ = write!(out, "{:<24} energy: ", "");
        for (w, e) in &energies {
            let _ = write!(out, "  {w}t={e:.2}");
        }
        let _ = writeln!(out, "   (min energy at {} threads)", c.min_energy_workers());
    }
    out
}

/// Render a Table IV-VII-style throttling comparison.
pub fn render_throttling(title: &str, rows: &[ThrottleRow]) -> String {
    let mut out = String::new();
    header_line(&mut out, title);
    let _ = writeln!(
        out,
        "{:<22} | {:>8} {:>9} {:>7} | {:>8} {:>9} {:>7}",
        "configuration", "time(s)", "J", "W", "paper-t", "paper-J", "paper-W"
    );
    let _ = writeln!(out, "{}", "-".repeat(84));
    for r in rows {
        let _ = write!(
            out,
            "{:<22} | {:>8.2} {:>9.0} {:>7.1} | {:>8.2} {:>9.0} {:>7.1}",
            r.config,
            r.model.time_s,
            r.model.joules,
            r.model.watts,
            r.paper.time_s,
            r.paper.joules,
            r.paper.watts,
        );
        if let Some(f) = r.throttled_fraction {
            let _ = write!(out, "   [throttled {:.0}% of samples]", f * 100.0);
        }
        let _ = writeln!(out);
    }
    out
}

/// Render the mechanism ablation.
pub fn render_ablation(rows: &[AblationRow]) -> String {
    let mut out = String::new();
    header_line(
        &mut out,
        "Mechanism ablation on LULESH (§IV: duty-cycle vs DVFS; §V: power clamp)",
    );
    let _ = writeln!(out, "{:<24} | {:>8} {:>9} {:>7} | notes", "mechanism", "time(s)", "J", "W");
    let _ = writeln!(out, "{}", "-".repeat(78));
    for r in rows {
        let _ = writeln!(
            out,
            "{:<24} | {:>8.2} {:>9.0} {:>7.1} | {}",
            r.mechanism, r.model.time_s, r.model.joules, r.model.watts, r.note
        );
    }
    out
}

/// Render the cold-start comparison.
pub fn render_coldstart(c: &ColdStart) -> String {
    let mut out = String::new();
    header_line(
        &mut out,
        "Cold-system effect (§II-C footnote 2; paper: BT.C 3.2% less energy cold)",
    );
    let _ = writeln!(
        out,
        "cold first run : {:>8.2} s {:>9.0} J {:>7.1} W",
        c.cold.time_s, c.cold.joules, c.cold.watts
    );
    let _ = writeln!(
        out,
        "warm repeat    : {:>8.2} s {:>9.0} J {:>7.1} W",
        c.warm.time_s, c.warm.joules, c.warm.watts
    );
    let _ = writeln!(out, "cold-run energy saving: {:.1}%", c.energy_saving() * 100.0);
    out
}

/// Render the duty-cycle probe.
pub fn render_dutycycle(p: &DutyCycleProbe) -> String {
    let mut out = String::new();
    header_line(
        &mut out,
        "Duty-cycle spin state (§IV; paper: 4 threads saved >12 W, 134 vs 147 W)",
    );
    let _ = writeln!(out, "16 spinners, full duty      : {:>6.1} W", p.spin_full_w);
    let _ = writeln!(out, "4 spinners at 1/32 duty     : {:>6.1} W", p.spin_throttled4_w);
    let _ = writeln!(out, "saving per throttled thread : {:>6.2} W", p.per_thread_saving_w);
    let _ = writeln!(
        out,
        "duty-register write latency : {:>6.1} µs (≈250 memory operations)",
        p.duty_write_latency_ns as f64 / 1000.0
    );
    out
}

/// Render a fleet run: title line, then the report's own deterministic
/// rendering (aggregate energy/cap-safety/fault lines, plus the per-node
/// throttle statistics table when `per_node`).
pub fn render_fleet(title: &str, report: &FleetReport, per_node: bool) -> String {
    let mut out = String::new();
    header_line(&mut out, title);
    out.push_str(&if per_node { report.render() } else { report.render_summary() });
    out
}

/// Render the service demo: one row per scenario with tails, goodput, and
/// the conservation ledger.
pub fn render_service(title: &str, rows: &[ServiceRow]) -> String {
    let mut out = String::new();
    header_line(&mut out, title);
    let _ = writeln!(
        out,
        "{:<20} | {:>9} {:>9} {:>9} | {:>9} | {:>8} {:>8} {:>8} {:>8} | {:>8} | lvl E/B",
        "scenario", "p50(µs)", "p99(µs)", "p99.9", "rps", "ok", "shed", "cancel", "retries", "J"
    );
    let _ = writeln!(out, "{}", "-".repeat(118));
    for r in rows {
        let s = &r.summary;
        let c = &s.counters;
        let _ = writeln!(
            out,
            "{:<20} | {:>9.1} {:>9.1} {:>9.1} | {:>9.0} | {:>8} {:>8} {:>8} {:>8} | {:>8.1} | {}/{}",
            r.scenario,
            s.p50_ns as f64 / 1000.0,
            s.p99_ns as f64 / 1000.0,
            s.p999_ns as f64 / 1000.0,
            s.goodput_rps,
            c.completed,
            c.shed,
            c.cancelled,
            c.retries_spent,
            r.joules,
            s.energy_level,
            s.brownout_level,
        );
    }
    out
}

/// Render the energy-vs-p99 Pareto sweep.
pub fn render_pareto(title: &str, points: &[ParetoPoint]) -> String {
    let mut out = String::new();
    header_line(&mut out, title);
    let _ = writeln!(
        out,
        "{:<20} | {:>10} {:>10} | {:>9} {:>9} | lvl E/B",
        "scenario", "SLO(µs)", "p99(µs)", "J", "rps"
    );
    let _ = writeln!(out, "{}", "-".repeat(78));
    for p in points {
        let _ = writeln!(
            out,
            "{:<20} | {:>10.0} {:>10.1} | {:>9.1} {:>9.0} | {}/{}",
            p.scenario,
            p.slo_p99_ns as f64 / 1000.0,
            p.p99_ns as f64 / 1000.0,
            p.joules,
            p.goodput_rps,
            p.energy_level,
            p.brownout_level,
        );
    }
    out
}

/// Render the overhead probe.
pub fn render_overhead(p: &OverheadProbe) -> String {
    let mut out = String::new();
    header_line(&mut out, "Controller overhead on a scaling benchmark (§IV-B; paper: ≤0.6%)");
    let _ = writeln!(out, "workload            : {}", p.workload);
    let _ = writeln!(out, "fixed 16 threads    : {:>8.3} s", p.fixed_s);
    let _ = writeln!(out, "dynamic 16 threads  : {:>8.3} s", p.dynamic_s);
    let _ = writeln!(out, "overhead            : {:>8.2}%", p.overhead() * 100.0);
    let _ = writeln!(
        out,
        "controller engaged  : {}",
        if p.ever_throttled { "yes (!)" } else { "never" }
    );
    out
}
