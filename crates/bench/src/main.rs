//! CLI entry point: regenerate any table or figure of the paper.
//!
//! ```text
//! cargo run -p maestro-bench --release -- all
//! cargo run -p maestro-bench --release -- table1 table4 fig1
//! cargo run -p maestro-bench --release -- --test-scale table2
//! cargo run -p maestro-bench --release -- --jobs 4 all
//! ```

use maestro::{Maestro, MaestroRun, MaestroRunEnd, MaestroSnapshot};
use maestro_bench::experiments::{self, FigureGroup, ThrottleTarget};
use maestro_bench::{format, scenario};
use maestro_fleet::{default_jobs, parallel_map, Fleet, EPOCH_NS};
use maestro_runtime::SnapshotPlan;
use maestro_workloads::{Family, Scale};

const USAGE: &str = "\
usage: maestro-bench [--test-scale] [--csv] [--jobs N] <experiment>...
       maestro-bench replay --snapshot PATH [--until T_NS]

  --csv emits machine-readable CSV instead of the aligned comparison tables
  (supported for table1-3, fig1-4, and table4-7).
  --jobs N fans independent experiment cells over N host threads (default:
  MAESTRO_BENCH_JOBS, else the host's available parallelism). Output is
  byte-identical for every N.

  replay loads a snapshot file written by the chaos triage harness (or your
  own run_captured call), rebuilds the named scenario, and resumes it —
  to completion, or to the virtual timestamp --until T_NS (time-travel:
  re-executes only the snapshot->failure window, no cold-start prefix).
  Fleet node snapshots (written by the fleet chaos suites) replay the same
  way: the single crashed shard is rebuilt from its fleet scenario name and
  advanced in isolation — with no coordinator, its lease expires and the
  node degrades to its floor cap, which is exactly the LeaseExpired path
  being triaged. Snapshots of service scenarios (svc-*) rebuild the whole
  service stack — arrival stream, admission controller, retry ledger, SLO
  governor — from the serialized source state and resume the open-loop run.

experiments:
  table1      Table I    — GCC vs ICC at -O2, 16 threads
  table2      Table II   — GCC at O0-O3, 16 threads
  table3      Table III  — ICC at O0-O3, 16 threads
  fig1        Figure 1   — SIMPLE+LULESH scaling & energy, GCC
  fig2        Figure 2   — SIMPLE+LULESH scaling & energy, ICC
  fig3        Figure 3   — BOTS scaling & energy, GCC
  fig4        Figure 4   — BOTS scaling & energy, ICC
  table4      Table IV   — LULESH throttling (dynamic / fixed-16 / fixed-12)
  table5      Table V    — dijkstra throttling
  table6      Table VI   — BOTS health throttling
  table7      Table VII  — BOTS strassen throttling
  coldstart   §II-C fn.2 — cold-system energy effect
  dutycycle   §IV        — low-power spin state savings
  overhead    §IV-B      — controller overhead on a scaling benchmark
  ablation    §IV/§V     — duty-cycle vs DVFS vs power-cap on LULESH
  fleet       §V outlook — fleet power coordination under correlated failures
  service     SLO outlook— open-loop service workload under the governor
  all         everything above, in order
  fleet10k    the 10,240-node fleet drill (not part of all)

  fleet runs scenario 'fleet-correlated-failures' (120 nodes, rolling load
  wave, correlated crash wave + rack partition + lossy grant channel) at
  paper scale, or 'fleet-smoke' (8 nodes) under --test-scale, and reports
  fleet energy, the cap-violation count (0 by invariant), and per-node
  throttle statistics.

  fleet10k runs scenario 'fleet-10k' (10,240 nodes, 120 epochs, the same
  fault mix scaled to the fleet) and prints only the fleet-wide summary and
  the event-loop work counts. It exits 1 if any timestamp's sum of enforced
  node caps exceeds the cluster cap.

  service runs the SLO-guarded demo scenarios (steady, bursty, a metastable
  retry storm with budgets disabled, and the same storm guarded by retry
  budgets + admission control) plus the energy-vs-tail-latency Pareto sweep:
  one workload under three p99 SLOs, each point reporting the duty ladder /
  brownout level the governor settled on, its p99, joules, and goodput.
";

/// Every experiment `all` expands to, in print order.
const ALL: &[&str] = &[
    "table1", "table2", "table3", "fig1", "fig2", "fig3", "fig4", "table4", "table5", "table6",
    "table7", "coldstart", "dutycycle", "overhead", "ablation", "fleet", "service",
];

/// Run the service demo rows and the Pareto sweep and render both tables.
fn render_service_experiment(scale: Scale, jobs: usize) -> String {
    let mut out = format::render_service(
        "SLO-guarded service — admission control, retry budgets, brownout",
        &experiments::service_rows(scale, jobs),
    );
    out.push_str(&format::render_pareto(
        "Energy vs tail latency — one workload, three p99 SLOs",
        &experiments::pareto(scale, jobs),
    ));
    out
}

/// Run the fleet coordination drill at the requested scale and render it.
fn render_fleet_experiment(scale: Scale, jobs: usize) -> String {
    let name = if scale == Scale::Test { "fleet-smoke" } else { "fleet-correlated-failures" };
    let sc = scenario::fleet_scenario(name).expect("registered fleet scenario");
    let epochs = sc.epochs;
    let nodes = sc.config.nodes;
    let mut fleet = Fleet::new(sc.config);
    fleet.advance_epochs(epochs, jobs);
    format::render_fleet(
        &format!(
            "Fleet power coordination — scenario '{name}' ({nodes} nodes, {epochs} epochs)"
        ),
        &fleet.report(),
        true,
    )
}

/// Run the 10,240-node drill and render its summary and work counts (no
/// per-node rows). `Err` carries the same text when the cap was broken.
fn render_fleet10k(jobs: usize) -> Result<String, String> {
    let sc = scenario::fleet_scenario("fleet-10k").expect("registered fleet scenario");
    let (nodes, epochs) = (sc.config.nodes, sc.epochs);
    let mut fleet = Fleet::new(sc.config);
    fleet.advance_epochs(epochs, jobs);
    let report = fleet.report();
    let w = fleet.work();
    let mut out = format::render_fleet(
        &format!("Fleet drill — scenario '{}' ({nodes} nodes, {epochs} epochs)", sc.name),
        &report,
        false,
    );
    out.push_str(&format!(
        "work: {} loop turns, {} daemon samples, {} governor decisions, {} load shifts, \
         {} grant deliveries\n",
        w.loop_turns, w.daemon_samples, w.governor_decisions, w.load_shifts, w.grant_deliveries
    ));
    if report.cap_violations == 0 {
        Ok(out)
    } else {
        Err(out)
    }
}

/// Render one experiment to its output text, or `None` for an unknown name.
/// `Err` is an experiment that ran but broke an invariant it checks; its
/// text is printed all the same.
fn render_one(name: &str, scale: Scale, csv: bool, jobs: usize) -> Option<Result<String, String>> {
    if name == "fleet10k" {
        return Some(render_fleet10k(jobs));
    }
    let compiler = |title: &str, rows: &[experiments::CompilerRow]| {
        if csv {
            format::csv_compiler_rows(rows)
        } else {
            format::render_compiler_rows(title, rows)
        }
    };
    let scaling = |title: &str, curves: &[experiments::ScalingCurve]| {
        if csv {
            format::csv_scaling(curves)
        } else {
            format::render_scaling(title, curves)
        }
    };
    let throttling = |title: &str, rows: &[experiments::ThrottleRow]| {
        if csv {
            format::csv_throttling(rows)
        } else {
            format::render_throttling(title, rows)
        }
    };
    Some(Ok(match name {
        "table1" => compiler(
            "Table I — execution time and energy usage (16 threads, -O2)",
            &experiments::table1(scale, jobs),
        ),
        "table2" => compiler(
            "Table II — optimization level, GNU GCC (16 threads)",
            &experiments::compiler_table(scale, Family::Gcc, jobs),
        ),
        "table3" => compiler(
            "Table III — optimization level, Intel ICC (16 threads)",
            &experiments::compiler_table(scale, Family::Icc, jobs),
        ),
        "fig1" => scaling(
            "Figure 1 — SIMPLE/LULESH speedup and normalized energy (GCC -O2)",
            &experiments::scaling_figure(scale, FigureGroup::SimpleAndLulesh, Family::Gcc, jobs),
        ),
        "fig2" => scaling(
            "Figure 2 — SIMPLE/LULESH speedup and normalized energy (ICC -O2)",
            &experiments::scaling_figure(scale, FigureGroup::SimpleAndLulesh, Family::Icc, jobs),
        ),
        "fig3" => scaling(
            "Figure 3 — BOTS speedup and normalized energy (GCC -O2)",
            &experiments::scaling_figure(scale, FigureGroup::Bots, Family::Gcc, jobs),
        ),
        "fig4" => scaling(
            "Figure 4 — BOTS speedup and normalized energy (ICC -O2)",
            &experiments::scaling_figure(scale, FigureGroup::Bots, Family::Icc, jobs),
        ),
        "table4" => throttling(
            "Table IV — LULESH with MAESTRO (-O3)",
            &experiments::throttling_table(scale, ThrottleTarget::Lulesh, jobs),
        ),
        "table5" => throttling(
            "Table V — dijkstra with MAESTRO (-O3)",
            &experiments::throttling_table(scale, ThrottleTarget::Dijkstra, jobs),
        ),
        "table6" => throttling(
            "Table VI — BOTS health with MAESTRO (-O3)",
            &experiments::throttling_table(scale, ThrottleTarget::Health, jobs),
        ),
        "table7" => throttling(
            "Table VII — BOTS strassen with MAESTRO (-O3)",
            &experiments::throttling_table(scale, ThrottleTarget::Strassen, jobs),
        ),
        "coldstart" => format::render_coldstart(&experiments::coldstart(scale)),
        "dutycycle" => format::render_dutycycle(&experiments::dutycycle_probe()),
        "overhead" => format::render_overhead(&experiments::overhead_probe(scale, jobs)),
        "ablation" => format::render_ablation(&experiments::ablation(scale, jobs)),
        "fleet" => render_fleet_experiment(scale, jobs),
        "service" => render_service_experiment(scale, jobs),
        _ => return None,
    }))
}

/// Run the requested experiment list (with `all` already expanded),
/// fanning whole experiments across the job pool while printing in the
/// original order.
fn run_list(names: &[&str], scale: Scale, csv: bool, jobs: usize) -> Vec<Result<String, String>> {
    parallel_map(names.len(), jobs, |i| {
        render_one(names[i], scale, csv, jobs)
            .unwrap_or_else(|| unreachable!("names validated before dispatch"))
    })
}

/// `maestro-bench replay --snapshot PATH [--until T_NS]`: the time-travel
/// triage entry point. Exit codes: 0 replay reached the requested state,
/// 1 the replayed run failed (the bug reproduced — that is the point),
/// 2 bad usage or unreadable/unknown snapshot.
fn run_replay(args: &[String]) -> ! {
    let mut snapshot_path: Option<String> = None;
    let mut until: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--snapshot" => match it.next() {
                Some(p) => snapshot_path = Some(p.clone()),
                None => {
                    eprintln!("--snapshot needs a path\n{USAGE}");
                    std::process::exit(2);
                }
            },
            "--until" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(t) => until = Some(t),
                None => {
                    eprintln!("--until needs a virtual timestamp in nanoseconds\n{USAGE}");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown replay argument: {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let Some(path) = snapshot_path else {
        eprintln!("replay requires --snapshot PATH\n{USAGE}");
        std::process::exit(2);
    };
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    // Fleet node snapshots carry their own magic; sniff for it first and
    // fall through to the Maestro snapshot format otherwise.
    if let Ok(fleet_snap) = scenario::read_fleet_node_snapshot(&bytes) {
        run_fleet_replay(&fleet_snap, until, &path);
    }
    let snap = match MaestroSnapshot::from_bytes(&bytes) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{path} is not a valid snapshot: {e}");
            std::process::exit(2);
        }
    };
    // Service snapshots carry a svc-* scenario name: rebuild the facade and
    // a fresh service stack from the registry, then resume. The restore
    // path swaps the serialized arrival/admission/retry state into the
    // fresh source, so the request stream continues exactly where it was
    // suspended.
    if let Some(sc) = scenario::service_scenario(snap.name()) {
        let (mut m, source, handle) = scenario::service_facade(&sc);
        resume_replay(
            "service scenario",
            &snap,
            until,
            &path,
            |plan| m.resume_service_captured(&mut (), source, &snap, plan),
            || {
                let c = handle.borrow().counters;
                println!(
                    "requests: {} arrived / {} completed / {} shed / {} cancelled / \
                     {} failed ({} retries spent, conservation gap {})",
                    c.arrived,
                    c.completed,
                    c.shed,
                    c.cancelled,
                    c.failed,
                    c.retries_spent,
                    c.conservation_gap(),
                );
            },
        );
    }
    let Some(sc) = scenario::scenario(snap.name()) else {
        eprintln!(
            "snapshot names scenario '{}', which this binary does not know; \
             known scenarios: {}",
            snap.name(),
            scenario::SCENARIO_NAMES.join(", ")
        );
        std::process::exit(2);
    };
    let mut m = Maestro::new(sc.config);
    resume_replay(
        "scenario",
        &snap,
        until,
        &path,
        |plan| m.resume_captured(&mut (), &snap, plan),
        || {},
    );
}

/// The tail both Maestro-snapshot replays share: check `--until` against
/// the snapshot time, resume through `resume` under the matching plan, and
/// report how the run ended; `on_completed` prints what a completed run
/// adds after its report. Exit codes match `replay`.
fn resume_replay<E: std::fmt::Display>(
    kind: &str,
    snap: &MaestroSnapshot,
    until: Option<u64>,
    path: &str,
    resume: impl FnOnce(&SnapshotPlan) -> Result<MaestroRun, E>,
    on_completed: impl FnOnce(),
) -> ! {
    if let Some(t) = until {
        if t <= snap.t_ns() {
            eprintln!(
                "--until {t} is not after the snapshot time {} ns; nothing to replay",
                snap.t_ns()
            );
            std::process::exit(2);
        }
    }
    println!("replaying {kind} '{}' from snapshot at t={} ns ({})", snap.name(), snap.t_ns(), path);
    // A fresh facade starts at virtual t=0, so run-relative fences coincide
    // with absolute virtual timestamps and --until can be passed straight
    // through as a suspension point.
    let plan = until.map_or_else(SnapshotPlan::none, SnapshotPlan::suspend_at);
    let run = match resume(&plan) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("resume failed: {e}");
            std::process::exit(2);
        }
    };
    match run.end {
        MaestroRunEnd::Completed(report) => {
            println!("run completed past the requested point:");
            println!("{report}");
            on_completed();
            std::process::exit(0);
        }
        MaestroRunEnd::Suspended(at) => {
            println!(
                "replayed {} ns of virtual time ({} -> {} ns); state captured, \
                 re-run with a later --until (or none) to continue",
                at.t_ns() - snap.t_ns(),
                snap.t_ns(),
                at.t_ns()
            );
            std::process::exit(0);
        }
        MaestroRunEnd::Failed(e) => {
            println!("failure reproduced during replay: {e}");
            std::process::exit(1);
        }
    }
}

/// Replay a single fleet shard from a fleet node snapshot: rebuild the
/// node under its registered fleet scenario and advance it in isolation.
/// With no coordinator feeding it grants, its lease expires on the event
/// timer and the node degrades to its floor cap — the exact LeaseExpired
/// sequence fleet chaos failures need triaged. Exit codes match `replay`.
fn run_fleet_replay(snap: &scenario::FleetNodeSnapshot, until: Option<u64>, path: &str) -> ! {
    let Some(sc) = scenario::fleet_scenario(&snap.scenario) else {
        eprintln!(
            "snapshot names fleet scenario '{}', which this binary does not know; \
             known fleet scenarios: {}",
            snap.scenario,
            scenario::FLEET_SCENARIO_NAMES.join(", ")
        );
        std::process::exit(2);
    };
    let (mut node, captured_ns) = match Fleet::restore_node(&sc.config, &snap.node_blob) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("{path} does not restore under scenario '{}': {e}", snap.scenario);
            std::process::exit(2);
        }
    };
    if let Some(t) = until {
        if t <= captured_ns {
            eprintln!(
                "--until {t} is not after the snapshot time {captured_ns} ns; nothing to replay"
            );
            std::process::exit(2);
        }
    }
    println!(
        "replaying fleet scenario '{}' node {} from snapshot at t={} ns ({})",
        snap.scenario,
        node.id(),
        captured_ns,
        path
    );
    // Default horizon: one more coordination epoch past the capture point.
    let target = until.unwrap_or(captured_ns + EPOCH_NS);
    let before = node.trace().len();
    node.advance_to(target);
    println!(
        "replayed {} ns of virtual time ({} -> {} ns); {} new trace events, \
         node {} with enforced cap {:.1} W, throttle level {}, {:.3} J total",
        target - captured_ns,
        captured_ns,
        target,
        node.trace().len() - before,
        if node.up() { "up" } else { "down" },
        node.enforced_cap_w(),
        node.throttle_level(),
        node.energy_j(),
    );
    for (t, e) in &node.trace()[before..] {
        println!("  t={t} ns  {e:?}");
    }
    std::process::exit(0);
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("replay") {
        run_replay(&raw[1..]);
    }
    let mut scale = Scale::Paper;
    let mut csv = false;
    let mut jobs: Option<usize> = None;
    let mut names: Vec<String> = Vec::new();
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--test-scale" => scale = Scale::Test,
            "--csv" => csv = true,
            "--jobs" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => jobs = Some(n),
                _ => {
                    eprintln!("--jobs needs a positive integer\n{USAGE}");
                    std::process::exit(2);
                }
            },
            other => names.push(other.to_string()),
        }
    }
    let jobs = jobs.unwrap_or_else(default_jobs);
    if names.is_empty() {
        eprint!("{USAGE}");
        std::process::exit(2);
    }

    // Expand `all` and validate up front so an unknown name fails before
    // any (possibly long) experiment runs.
    let mut expanded: Vec<&str> = Vec::new();
    for n in &names {
        if n == "all" {
            expanded.extend_from_slice(ALL);
        } else if ALL.contains(&n.as_str()) || n == "fleet10k" {
            expanded.push(n.as_str());
        } else {
            eprintln!("unknown experiment: {n}\n{USAGE}");
            std::process::exit(2);
        }
    }

    let mut failed = false;
    for output in run_list(&expanded, scale, csv, jobs) {
        failed |= output.is_err();
        print!("{}", output.unwrap_or_else(|text| text));
    }
    if failed {
        std::process::exit(1);
    }
}
