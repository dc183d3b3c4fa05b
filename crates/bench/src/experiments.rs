//! The experiment implementations.

use maestro::{ControllerTrace, Maestro, MaestroConfig, Policy, RunReport};
use maestro_fleet::parallel_map;
use maestro_machine::{CoreActivity, DutyCycle, Machine, MachineConfig, NS_PER_SEC};
use maestro_runtime::RuntimeParams;
use maestro_workloads::profiles;
use maestro_workloads::{
    all_workloads, bots_workloads, micro_workloads, by_name, CompilerConfig, Family, OptLevel,
    Scale, Workload,
};

/// One measurement triple.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Measured {
    /// Execution time, seconds.
    pub time_s: f64,
    /// Energy, Joules.
    pub joules: f64,
    /// Average power, Watts.
    pub watts: f64,
}

impl Measured {
    /// From a run report.
    pub fn of(r: &RunReport) -> Measured {
        Measured { time_s: r.elapsed_s, joules: r.joules, watts: r.avg_watts }
    }

    /// From the paper's (time, watts) cells (energy = time × watts).
    pub fn paper(time_s: f64, watts: f64) -> Measured {
        Measured { time_s, joules: time_s * watts, watts }
    }
}

/// Run `w` under a fixed-concurrency Maestro with its own runtime params.
pub fn run_fixed(w: &dyn Workload, cc: CompilerConfig, workers: usize) -> RunReport {
    let mut cfg = MaestroConfig::fixed(workers);
    cfg.runtime = w.runtime_params(cc, workers);
    let mut m = Maestro::new(cfg);
    w.run(&mut m, cc)
}

/// The MAESTRO/Qthreads runtime parameters for a workload: per-shepherd
/// queues (cheap dispatch) but the workload's memory-coherence slope kept.
pub fn maestro_params(w: &dyn Workload, cc: CompilerConfig, workers: usize) -> RuntimeParams {
    let omp = w.runtime_params(cc, workers);
    let mut p = RuntimeParams::qthreads(workers);
    p.queue_contention_cycles_per_worker = omp.queue_contention_cycles_per_worker;
    p.work_dilation_per_worker = omp.work_dilation_per_worker;
    p
}

/// Run `w` under the MAESTRO runtime with the given policy.
pub fn run_maestro(
    w: &dyn Workload,
    cc: CompilerConfig,
    workers: usize,
    policy: Policy,
) -> RunReport {
    run_traced(w, cc, workers, policy).0
}

/// [`run_maestro`], also returning the controller's decision trace (empty
/// under [`Policy::Fixed`]).
fn run_traced(
    w: &dyn Workload,
    cc: CompilerConfig,
    workers: usize,
    policy: Policy,
) -> (RunReport, ControllerTrace) {
    let mut cfg = MaestroConfig::fixed(workers);
    cfg.policy = policy;
    cfg.runtime = maestro_params(w, cc, workers);
    let mut m = Maestro::new(cfg);
    let report = w.run(&mut m, cc);
    (report, m.controller_trace().map(|t| t.take()).unwrap_or_default())
}

// ---------------------------------------------------------------------
// Tables I-III
// ---------------------------------------------------------------------

/// One compiler-matrix row: a workload under one configuration.
#[derive(Debug)]
pub struct CompilerRow {
    /// Workload registry name.
    pub workload: String,
    /// The toolchain configuration.
    pub cc: CompilerConfig,
    /// What the model produced (16 threads).
    pub model: Measured,
    /// What the paper measured (16 threads).
    pub paper: Measured,
}

fn measure_configs(scale: Scale, configs: &[CompilerConfig], jobs: usize) -> Vec<CompilerRow> {
    // Flatten the workload × config matrix into independent cells; each
    // cell rebuilds its workload from the registry name, so nothing but
    // value-typed configuration crosses the thread boundary.
    let cells: Vec<(String, CompilerConfig)> = all_workloads(scale)
        .iter()
        .flat_map(|w| configs.iter().map(|&cc| (w.name().to_string(), cc)))
        .collect();
    parallel_map(cells.len(), jobs, |i| {
        let (name, cc) = (&cells[i].0, cells[i].1);
        let w = by_name(name, scale).expect("registered workload");
        let cal = profiles::calibration(w.name());
        let report = run_fixed(w.as_ref(), cc, 16);
        CompilerRow {
            workload: name.clone(),
            cc,
            model: Measured::of(&report),
            paper: Measured::paper(cal.time_target(cc), cal.watts_target(cc)),
        }
    })
}

/// Table I: every workload at `-O2` under both compilers.
pub fn table1(scale: Scale, jobs: usize) -> Vec<CompilerRow> {
    measure_configs(
        scale,
        &[CompilerConfig::gcc(OptLevel::O2), CompilerConfig::icc(OptLevel::O2)],
        jobs,
    )
}

/// Tables II (GCC) and III (ICC): every workload at O0-O3 for one family.
pub fn compiler_table(scale: Scale, family: Family, jobs: usize) -> Vec<CompilerRow> {
    let configs: Vec<CompilerConfig> =
        OptLevel::all().iter().map(|&opt| CompilerConfig { family, opt }).collect();
    measure_configs(scale, &configs, jobs)
}

// ---------------------------------------------------------------------
// Figures 1-4
// ---------------------------------------------------------------------

/// Which figure's workload group.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FigureGroup {
    /// Figures 1-2: the SIMPLE micro-benchmarks plus LULESH.
    SimpleAndLulesh,
    /// Figures 3-4: the BOTS suite.
    Bots,
}

/// One point of a scaling curve.
#[derive(Copy, Clone, Debug)]
pub struct ScalingPoint {
    /// Worker count.
    pub workers: usize,
    /// Execution time, seconds.
    pub time_s: f64,
    /// Energy, Joules.
    pub joules: f64,
}

/// One workload's scaling curve.
#[derive(Debug)]
pub struct ScalingCurve {
    /// Workload registry name.
    pub workload: String,
    /// Points at increasing worker counts (first point is 1 worker).
    pub points: Vec<ScalingPoint>,
}

impl ScalingCurve {
    /// Speedup at each point relative to 1 worker.
    pub fn speedups(&self) -> Vec<(usize, f64)> {
        let t1 = self.points[0].time_s;
        self.points.iter().map(|p| (p.workers, t1 / p.time_s)).collect()
    }

    /// Energy at each point normalized to 1 worker.
    pub fn normalized_energy(&self) -> Vec<(usize, f64)> {
        let e1 = self.points[0].joules;
        self.points.iter().map(|p| (p.workers, p.joules / e1)).collect()
    }

    /// The worker count with minimum energy.
    pub fn min_energy_workers(&self) -> usize {
        self.points
            .iter()
            .min_by(|a, b| a.joules.total_cmp(&b.joules))
            .expect("curves have points")
            .workers
    }
}

/// The worker counts the figures sweep.
pub const FIGURE_WORKERS: &[usize] = &[1, 2, 4, 8, 12, 16];

/// Figures 1-4: speedup and normalized energy versus thread count.
pub fn scaling_figure(
    scale: Scale,
    group: FigureGroup,
    family: Family,
    jobs: usize,
) -> Vec<ScalingCurve> {
    let cc = CompilerConfig { family, opt: OptLevel::O2 };
    let names: Vec<String> = match group {
        FigureGroup::SimpleAndLulesh => {
            let mut v = micro_workloads(scale);
            v.push(by_name("lulesh", scale).expect("registered"));
            v
        }
        FigureGroup::Bots => bots_workloads(scale),
    }
    .iter()
    .map(|w| w.name().to_string())
    .collect();
    // One cell per workload × worker-count point, collected by index and
    // re-chunked into per-workload curves.
    let per = FIGURE_WORKERS.len();
    let points = parallel_map(names.len() * per, jobs, |i| {
        let workers = FIGURE_WORKERS[i % per];
        let w = by_name(&names[i / per], scale).expect("registered workload");
        let r = run_fixed(w.as_ref(), cc, workers);
        ScalingPoint { workers, time_s: r.elapsed_s, joules: r.joules }
    });
    names
        .into_iter()
        .zip(points.chunks(per))
        .map(|(workload, pts)| ScalingCurve { workload, points: pts.to_vec() })
        .collect()
}

// ---------------------------------------------------------------------
// Tables IV-VII
// ---------------------------------------------------------------------

/// The four throttling studies.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ThrottleTarget {
    /// Table IV.
    Lulesh,
    /// Table V.
    Dijkstra,
    /// Table VI.
    Health,
    /// Table VII.
    Strassen,
}

impl ThrottleTarget {
    /// All four, in table order.
    pub fn all() -> [ThrottleTarget; 4] {
        [Self::Lulesh, Self::Dijkstra, Self::Health, Self::Strassen]
    }

    fn workload(self, scale: Scale) -> Box<dyn Workload> {
        use maestro_workloads::bots::health::Health;
        use maestro_workloads::bots::strassen::Strassen;
        use maestro_workloads::lulesh::Lulesh;
        use maestro_workloads::micro::dijkstra::Dijkstra;
        match self {
            Self::Lulesh => Box::new(Lulesh::new(scale)),
            Self::Dijkstra => Box::new(Dijkstra::maestro_variant(scale)),
            Self::Health => Box::new(Health::maestro_variant(scale)),
            Self::Strassen => Box::new(Strassen::new(scale)),
        }
    }

    /// Paper rows: (dynamic-16, fixed-16, fixed-12) as (time, joules, watts).
    pub fn paper_rows(self) -> [Measured; 3] {
        let m = |t, j, w| Measured { time_s: t, joules: j, watts: w };
        match self {
            Self::Lulesh => {
                [m(48.4, 6860.0, 141.7), m(45.5, 7089.0, 155.9), m(48.2, 6341.0, 131.5)]
            }
            Self::Dijkstra => {
                [m(16.04, 2262.0, 140.9), m(16.34, 2306.0, 141.0), m(15.83, 2236.0, 141.2)]
            }
            Self::Health => {
                [m(1.33, 173.0, 130.0), m(1.26, 176.3, 139.4), m(1.35, 166.9, 123.0)]
            }
            Self::Strassen => {
                [m(23.7, 3601.0, 151.7), m(24.1, 3716.0, 154.2), m(26.9, 3505.0, 130.3)]
            }
        }
    }
}

/// One row of a throttling table.
#[derive(Debug)]
pub struct ThrottleRow {
    /// "16 Threads - Dynamic" / "16 Threads - Fixed" / "12 Threads - Fixed".
    pub config: &'static str,
    /// Model result.
    pub model: Measured,
    /// Paper result.
    pub paper: Measured,
    /// Fraction of controller samples with the throttle on (dynamic only).
    pub throttled_fraction: Option<f64>,
}

/// Tables IV-VII: dynamic vs fixed-16 vs fixed-12, at `-O3` under the
/// MAESTRO runtime.
pub fn throttling_table(scale: Scale, target: ThrottleTarget, jobs: usize) -> Vec<ThrottleRow> {
    let cc = CompilerConfig::gcc(OptLevel::O3);
    let paper = target.paper_rows();
    // The three configurations are independent simulations; run them as
    // cells. A `RunReport` holds the (non-`Send`) root task value, so each
    // cell reduces its report to the plain measurements the table needs.
    let runs: [(usize, Policy); 3] = [
        (16, Policy::Adaptive { limit_per_shepherd: 6 }),
        (16, Policy::Fixed),
        (12, Policy::Fixed),
    ];
    let measured = parallel_map(runs.len(), jobs, |i| {
        let (workers, policy) = runs[i];
        let w = target.workload(scale);
        let r = run_maestro(w.as_ref(), cc, workers, policy);
        (Measured::of(&r), r.throttle.as_ref().map(|t| t.throttled_fraction))
    });
    vec![
        ThrottleRow {
            config: "16 Threads - Dynamic",
            model: measured[0].0,
            paper: paper[0],
            throttled_fraction: measured[0].1,
        },
        ThrottleRow {
            config: "16 Threads - Fixed",
            model: measured[1].0,
            paper: paper[1],
            throttled_fraction: None,
        },
        ThrottleRow {
            config: "12 Threads - Fixed",
            model: measured[2].0,
            paper: paper[2],
            throttled_fraction: None,
        },
    ]
}

// ---------------------------------------------------------------------
// Ablation: duty-cycle throttling vs DVFS vs power capping (§IV, §V)
// ---------------------------------------------------------------------

/// One mechanism's result in the ablation study.
#[derive(Debug)]
pub struct AblationRow {
    /// Mechanism label.
    pub mechanism: &'static str,
    /// Measurement.
    pub model: Measured,
    /// Notes (throttled fraction, P-state transitions, cap compliance…).
    pub note: String,
}

/// Compare the paper's duty-cycle concurrency throttling against the two
/// alternatives it discusses — package-global DVFS (§IV: slower transitions,
/// all-cores scope) and a fixed power clamp (§V outlook) — on LULESH.
pub fn ablation(scale: Scale, jobs: usize) -> Vec<AblationRow> {
    use maestro_machine::PState;
    use maestro_workloads::lulesh::Lulesh;
    let cc = CompilerConfig::gcc(OptLevel::O3);

    // Each mechanism is one independent LULESH simulation; fan the four
    // out as cells, each returning the fully-formed (Send) table row.
    parallel_map(4, jobs, |i| match i {
        0 => {
            let fixed = run_maestro(&Lulesh::new(scale), cc, 16, Policy::Fixed);
            AblationRow {
                mechanism: "fixed 16 threads",
                model: Measured::of(&fixed),
                note: String::new(),
            }
        }
        1 => {
            let duty = run_maestro(
                &Lulesh::new(scale),
                cc,
                16,
                Policy::Adaptive { limit_per_shepherd: 6 },
            );
            AblationRow {
                mechanism: "duty-cycle throttling",
                model: Measured::of(&duty),
                note: duty
                    .throttle
                    .as_ref()
                    .map(|t| format!("throttled {:.0}% of samples", t.throttled_fraction * 100.0))
                    .unwrap_or_default(),
            }
        }
        2 => {
            // DVFS: identical sensing, response is a package-global
            // P-state step.
            let policy = Policy::Dvfs { floor: PState::floor_of(1.8) };
            let (dvfs, trace) = run_traced(&Lulesh::new(scale), cc, 16, policy);
            AblationRow {
                mechanism: "DVFS (floor 1.8 GHz)",
                model: Measured::of(&dvfs),
                note: format!("{} P-state transitions", trace.transitions()),
            }
        }
        _ => {
            // Power cap at roughly the dynamic run's average power.
            let cap_w = 130.0;
            let policy = Policy::PowerCap { watts: cap_w };
            let (capped, trace) = run_traced(&Lulesh::new(scale), cc, 16, policy);
            AblationRow {
                mechanism: "power cap",
                model: Measured::of(&capped),
                note: format!("cap {cap_w} W, {:.0}% compliant", trace.compliance(cap_w) * 100.0),
            }
        }
    })
}

// ---------------------------------------------------------------------
// Cold start (§II-C footnote 2)
// ---------------------------------------------------------------------

/// Result of the cold-vs-warm experiment.
#[derive(Debug)]
pub struct ColdStart {
    /// First run on a cold system.
    pub cold: Measured,
    /// Repeat run on the now-warm system.
    pub warm: Measured,
}

impl ColdStart {
    /// Fractional energy saving of the cold run (paper: ~3.2 % for BT.C).
    pub fn energy_saving(&self) -> f64 {
        1.0 - self.cold.joules / self.warm.joules
    }
}

/// Run the BT.C-like ADI solver twice from a cold boot: "Of 100 tests run
/// on an initially cold system, the first run always used less energy and
/// drew less power" — leakage grows with die temperature. The solver is the
/// real line-implicit diffusion code in `maestro_workloads::btc`.
pub fn coldstart(scale: Scale) -> ColdStart {
    use maestro_machine::Cost;
    use maestro_runtime::{compute_leaf, fork_join, BoxTask, TaskValue};
    use maestro_workloads::btc::BtSolver;

    let mut cfg = MaestroConfig::fixed(16);
    cfg.machine = MachineConfig::sandybridge_2x8_cold();
    if scale == Scale::Test {
        // Shrink the thermal time constant alongside the input so the
        // warm-up dynamics still span the (16 s instead of 160 s) run.
        cfg.machine.thermal.capacitance_j_per_k = 15.0;
    }
    let mut m = Maestro::new(cfg);
    let first = BtSolver::new(scale).run(&mut m);
    // The paper's "later runs" happen after the blade has been under load
    // for a long time; soak the packages to their steady temperature
    // (several thermal time constants) before the warm measurement.
    let soak_s = BtSolver::new(scale).target_time_16t_s() * 8.0;
    let soak: Vec<BoxTask<()>> = (0..1600)
        .map(|_| {
            compute_leaf(Cost::new((soak_s * 16.0 * 2.7e9 / 1600.0) as u64, 30_000, 4.0, 0.95))
        })
        .collect();
    m.run("soak", &mut (), fork_join(soak, |_, _| (Cost::ZERO, TaskValue::none())));
    let warm = BtSolver::new(scale).run(&mut m);
    ColdStart { cold: Measured::of(&first), warm: Measured::of(&warm) }
}

// ---------------------------------------------------------------------
// Duty-cycle probe (§IV)
// ---------------------------------------------------------------------

/// The §IV duty-cycle numbers, measured on the machine model.
#[derive(Debug)]
pub struct DutyCycleProbe {
    /// Node power with 16 threads spinning at full duty, Watts.
    pub spin_full_w: f64,
    /// Node power after dropping four spinners to 1/32 duty, Watts.
    pub spin_throttled4_w: f64,
    /// Per-thread saving of the low-power spin state, Watts.
    pub per_thread_saving_w: f64,
    /// Latency of one duty-register write, nanoseconds (≈250 memory ops).
    pub duty_write_latency_ns: u64,
}

/// Measure the spin-state power savings the paper reports ("idling four
/// threads saved over 12W (in one case 134W vs. 147W)").
pub fn dutycycle_probe() -> DutyCycleProbe {
    let mut m = Machine::new(MachineConfig::sandybridge_2x8());
    for c in m.topology().all_cores() {
        m.set_activity(c, CoreActivity::Spin);
    }
    m.advance(NS_PER_SEC); // settle
    let full = m.node_power_w();
    for c in m.topology().all_cores().take(4) {
        m.set_duty(c, DutyCycle::MIN);
    }
    let throttled = m.node_power_w();
    DutyCycleProbe {
        spin_full_w: full,
        spin_throttled4_w: throttled,
        per_thread_saving_w: (full - throttled) / 4.0,
        duty_write_latency_ns: m.config().duty_write_latency_ns(),
    }
}

// ---------------------------------------------------------------------
// Overhead probe (§IV-B)
// ---------------------------------------------------------------------

/// Overhead of running the controller on a workload that never throttles.
#[derive(Debug)]
pub struct OverheadProbe {
    /// Workload used.
    pub workload: String,
    /// Fixed-16 time, seconds.
    pub fixed_s: f64,
    /// Adaptive-16 time, seconds.
    pub dynamic_s: f64,
    /// Whether the controller ever engaged.
    pub ever_throttled: bool,
}

impl OverheadProbe {
    /// Fractional slowdown (paper: at most 0.6 %).
    pub fn overhead(&self) -> f64 {
        self.dynamic_s / self.fixed_s - 1.0
    }
}

// ---------------------------------------------------------------------
// Service workload: admission/retry/brownout demo + the Pareto sweep
// ---------------------------------------------------------------------

/// One service scenario's outcome: facade measurements plus the service
/// summary (tails, goodput, conservation ledger, governor levels).
#[derive(Debug)]
pub struct ServiceRow {
    /// Service scenario registry name.
    pub scenario: String,
    /// Virtual run time, seconds.
    pub elapsed_s: f64,
    /// Energy, Joules.
    pub joules: f64,
    /// The service-side summary.
    pub summary: maestro_service::ServiceSummary,
}

/// The scenarios the `service` experiment renders, in print order: the two
/// governed traffic shapes, then the storm pair (collapse vs recovery).
pub const SERVICE_DEMO_SCENARIOS: &[&str] =
    &["svc-steady", "svc-burst", "svc-storm", "svc-storm-guarded"];

/// The energy-vs-p99 sweep: one workload, three governor SLOs.
pub const PARETO_SCENARIOS: &[&str] =
    &["svc-pareto-tight", "svc-pareto-mid", "svc-pareto-relaxed"];

/// Rebuild a service scenario at the requested scale: test scale divides
/// the arrival total by 10 (a pure function of the name and scale, so the
/// cell stays deterministic).
pub fn service_at_scale(name: &str, scale: Scale) -> crate::scenario::ServiceScenario {
    let mut sc = crate::scenario::service_scenario(name).expect("registered service scenario");
    if scale == Scale::Test {
        sc.service.arrivals.total_requests /= 10;
    }
    sc
}

/// Run one service scenario end to end and reduce it to a (Send) row.
fn service_cell(name: &str, scale: Scale) -> ServiceRow {
    let sc = service_at_scale(name, scale);
    let (mut m, source, handle) = crate::scenario::service_facade(&sc);
    let r = m
        .try_run_service(sc.name, &mut (), source)
        .unwrap_or_else(|e| panic!("service scenario {name} must complete: {e}"));
    ServiceRow {
        scenario: name.to_string(),
        elapsed_s: r.elapsed_s,
        joules: r.joules,
        summary: maestro_service::ServiceSummary::collect(&handle, r.elapsed_s),
    }
}

/// The `service` experiment: every demo scenario as an independent cell.
pub fn service_rows(scale: Scale, jobs: usize) -> Vec<ServiceRow> {
    parallel_map(SERVICE_DEMO_SCENARIOS.len(), jobs, |i| {
        service_cell(SERVICE_DEMO_SCENARIOS[i], scale)
    })
}

/// One point of the energy-vs-tail-latency Pareto curve.
#[derive(Clone, Debug, PartialEq)]
pub struct ParetoPoint {
    /// Service scenario registry name.
    pub scenario: String,
    /// The governor's SLO for this point, ns.
    pub slo_p99_ns: u64,
    /// Achieved whole-run p99, ns.
    pub p99_ns: u64,
    /// Energy over the run, Joules.
    pub joules: f64,
    /// Completed requests per virtual second.
    pub goodput_rps: f64,
    /// Final energy-ladder level (deeper = more throttled).
    pub energy_level: usize,
    /// Final brownout level.
    pub brownout_level: u8,
}

/// The Pareto sweep: the same workload under each SLO setting, one cell
/// per point. Results are byte-identical for any job count (each cell is a
/// pure function of the scenario name and scale).
pub fn pareto(scale: Scale, jobs: usize) -> Vec<ParetoPoint> {
    parallel_map(PARETO_SCENARIOS.len(), jobs, |i| {
        let name = PARETO_SCENARIOS[i];
        let row = service_cell(name, scale);
        let slo = crate::scenario::service_scenario(name)
            .expect("registered")
            .governor
            .expect("pareto scenarios are governed")
            .slo_p99_ns;
        ParetoPoint {
            scenario: row.scenario,
            slo_p99_ns: slo,
            p99_ns: row.summary.p99_ns,
            joules: row.joules,
            goodput_rps: row.summary.goodput_rps,
            energy_level: row.summary.energy_level,
            brownout_level: row.summary.brownout_level,
        }
    })
}

/// Run a well-scaling benchmark with and without the controller: "On the
/// other applications, which already scale well, our throttling
/// implementation never detected the need to throttle and resulted in only
/// minor overheads (up to 0.6%)."
pub fn overhead_probe(scale: Scale, jobs: usize) -> OverheadProbe {
    let cc = CompilerConfig::gcc(OptLevel::O3);
    // Two independent runs of the same workload (fixed vs adaptive); each
    // cell reduces its report to (elapsed, ever-throttled).
    let runs = parallel_map(2, jobs, |i| {
        let w = by_name("bots-nqueens", scale).expect("registered");
        let policy =
            if i == 0 { Policy::Fixed } else { Policy::Adaptive { limit_per_shepherd: 6 } };
        let r = run_maestro(w.as_ref(), cc, 16, policy);
        (r.elapsed_s, r.throttle.as_ref().map(|t| t.activations > 0).unwrap_or(false))
    });
    OverheadProbe {
        workload: "bots-nqueens".to_string(),
        fixed_s: runs[0].0,
        dynamic_s: runs[1].0,
        ever_throttled: runs[1].1,
    }
}
