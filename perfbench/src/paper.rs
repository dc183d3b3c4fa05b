//! `paper-tables`: a fixed subset of the paper's evaluation cells, run
//! through the `Maestro` facade exactly as `maestro-bench` runs them.
//!
//! The subset keeps one Table I cell per workload (LULESH's cells are its
//! Table IV rows), a few Table II/III compiler cells and Fig. 1-4 scaling cells, every Table IV-VII
//! throttling row, and the two ablation mechanisms beyond Table IV's rows
//! (DVFS and the power cap). Host time here is the `workloads` kernels and
//! their verification; the scheduler takes few steps per cell.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use maestro::{Maestro, MaestroConfig, Policy, RunReport};
use maestro_bench::experiments::maestro_params;
use maestro_machine::PState;
use maestro_workloads::bots::health::Health;
use maestro_workloads::bots::strassen::Strassen;
use maestro_workloads::lulesh::Lulesh;
use maestro_workloads::micro::dijkstra::Dijkstra;
use maestro_workloads::{by_name, CompilerConfig, Family, OptLevel, Scale, Workload};

use crate::stats::Digest;
use crate::trace::{time_monitors, CallsHandle, Tracer};
use crate::{timed_setup, Layers, Pass, Size};

/// Every workload of the paper, in table order (the `workloads.cell_ms.*`
/// metric family is keyed by these names).
pub const PAPER_WORKLOADS: &[&str] = &[
    "reduction",
    "nqueens",
    "mergesort",
    "fibonacci",
    "dijkstra",
    "bots-alignment-for",
    "bots-alignment-single",
    "bots-fib",
    "bots-health",
    "bots-nqueens",
    "bots-sort",
    "bots-sparselu-for",
    "bots-sparselu-single",
    "bots-strassen",
    "lulesh",
];

/// Which throttling study a row belongs to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Study {
    Lulesh,
    Dijkstra,
    Health,
    Strassen,
}

impl Study {
    fn workload(self, scale: Scale) -> Box<dyn Workload> {
        match self {
            Study::Lulesh => Box::new(Lulesh::new(scale)),
            Study::Dijkstra => Box::new(Dijkstra::maestro_variant(scale)),
            Study::Health => Box::new(Health::maestro_variant(scale)),
            Study::Strassen => Box::new(Strassen::new(scale)),
        }
    }
}

/// How a cell builds its facade.
#[derive(Copy, Clone, Debug)]
enum Kind {
    /// Tables I-III and Figs 1-4: the workload's own OpenMP runtime
    /// parameters, fixed concurrency (`experiments::run_fixed`).
    Fixed(&'static str),
    /// Tables IV-VII and the ablation: MAESTRO runtime parameters under a
    /// policy (`experiments::run_maestro`).
    Maestro(Study, Policy),
}

/// One evaluation cell.
#[derive(Clone, Debug)]
struct Cell {
    label: String,
    kind: Kind,
    cc: CompilerConfig,
    workers: usize,
}

/// The cell list for one size.
#[derive(Debug)]
pub struct Plan {
    scale: Scale,
    cells: Vec<Cell>,
}

const ADAPTIVE: Policy = Policy::Adaptive {
    limit_per_shepherd: 6,
};

impl Plan {
    /// The fixed subset; `Size::Test` runs it on test-scale inputs.
    pub fn new(size: Size) -> Self {
        let scale = if size == Size::Test {
            Scale::Test
        } else {
            Scale::Paper
        };
        let gcc = CompilerConfig::gcc;
        let icc = CompilerConfig::icc;
        let mut cells = Vec::new();
        let mut fixed = |table: &str, name: &'static str, cc: CompilerConfig, workers: usize| {
            cells.push(Cell {
                label: format!(
                    "{table} {name} {}-{:?} {workers}t",
                    family(cc.family),
                    cc.opt
                ),
                kind: Kind::Fixed(name),
                cc,
                workers,
            });
        };
        // LULESH's cells are the Table IV rows and the ablation below.
        for name in &PAPER_WORKLOADS[..PAPER_WORKLOADS.len() - 1] {
            fixed("table1", name, gcc(OptLevel::O2), 16);
        }
        fixed("table2", "reduction", gcc(OptLevel::O0), 16);
        fixed("table2", "bots-fib", gcc(OptLevel::O3), 16);
        fixed("table3", "mergesort", icc(OptLevel::O1), 16);
        fixed("table3", "bots-sort", icc(OptLevel::O3), 16);
        fixed("fig1", "fibonacci", gcc(OptLevel::O2), 1);
        fixed("fig1", "reduction", gcc(OptLevel::O2), 1);
        fixed("fig2", "nqueens", icc(OptLevel::O2), 4);
        fixed("fig3", "bots-health", gcc(OptLevel::O2), 8);
        fixed("fig4", "bots-alignment-for", icc(OptLevel::O2), 12);

        let o3 = gcc(OptLevel::O3);
        for (table, study) in [
            ("table4", Study::Lulesh),
            ("table5", Study::Dijkstra),
            ("table6", Study::Health),
            ("table7", Study::Strassen),
        ] {
            for (row, workers, policy) in [
                ("dynamic16", 16, ADAPTIVE),
                ("fixed16", 16, Policy::Fixed),
                ("fixed12", 12, Policy::Fixed),
            ] {
                cells.push(Cell {
                    label: format!("{table} {row}"),
                    kind: Kind::Maestro(study, policy),
                    cc: o3,
                    workers,
                });
            }
        }
        for (row, policy) in [
            (
                "dvfs",
                Policy::Dvfs {
                    floor: PState::floor_of(1.8),
                },
            ),
            ("powercap", Policy::PowerCap { watts: 130.0 }),
        ] {
            cells.push(Cell {
                label: format!("ablation {row}"),
                kind: Kind::Maestro(Study::Lulesh, policy),
                cc: o3,
                workers: 16,
            });
        }
        Plan { scale, cells }
    }

    /// Build every cell's workload and facade (set-up), then run and verify
    /// each cell as one unit.
    pub fn pass(&self, t: &Tracer) -> Pass {
        let (ready, setup_s) =
            timed_setup(|| self.cells.iter().map(|c| self.build(c)).collect::<Vec<_>>());

        let fires = CallsHandle::default();
        let mark = t.mark();
        let (results, wall_s) = t.time_work(|| {
            let mut results = Vec::with_capacity(ready.len());
            for (cell, (w, mut m)) in self.cells.iter().zip(ready) {
                t.between_units();
                if t.on() {
                    time_monitors(m.runtime_mut(), &fires);
                }
                let run = t.span("workloads.cell", &cell.label, || {
                    catch_unwind(AssertUnwindSafe(|| w.run(&mut m, cell.cc)))
                });
                results.push((w.name(), run.map_err(panic_text)));
            }
            results
        });
        self.fold(setup_s, wall_s, &results, t, mark, &fires)
    }

    fn build(&self, cell: &Cell) -> (Box<dyn Workload>, Maestro) {
        match cell.kind {
            Kind::Fixed(name) => {
                let w = by_name(name, self.scale).expect("registered workload");
                let mut cfg = MaestroConfig::fixed(cell.workers);
                cfg.runtime = w.runtime_params(cell.cc, cell.workers);
                (w, Maestro::new(cfg))
            }
            Kind::Maestro(study, policy) => {
                let w = study.workload(self.scale);
                let mut cfg = MaestroConfig::fixed(cell.workers);
                cfg.policy = policy;
                cfg.runtime = maestro_params(w.as_ref(), cell.cc, cell.workers);
                (w, Maestro::new(cfg))
            }
        }
    }

    fn fold(
        &self,
        setup_s: f64,
        wall_s: f64,
        results: &[(&'static str, Result<RunReport, String>)],
        t: &Tracer,
        mark: usize,
        fires: &CallsHandle,
    ) -> Pass {
        let mut pass = Pass::new(setup_s, wall_s, self.cells.len() as u64);
        let mut d = Digest::default();
        let mut layers = Layers::default();
        for (cell, (_, r)) in self.cells.iter().zip(results) {
            d.str(&cell.label);
            match r {
                Err(msg) => {
                    d.str(msg);
                    pass.failures.push(format!("{}: {msg}", cell.label));
                }
                Ok(r) => {
                    d.str(&r.to_string());
                    d.f64(r.elapsed_s);
                    d.f64(r.joules);
                    pass.sim_energy_j += r.joules;
                    pass.sim_time_s += r.elapsed_s;
                    layers.add_run_stats(&r.stats);
                    if let Some(th) = &r.throttle {
                        layers.add("control.decisions", th.decisions as f64);
                        layers.add("control.activations", th.activations as f64);
                    }
                }
            }
        }
        if self.scale == Scale::Paper {
            pass.failures.extend(self.shape_claims(results));
        }
        pass.digest = d.value();

        if t.on() {
            let cells = t.durations_ns("workloads.cell", mark);
            let mut per_workload: BTreeMap<&str, (f64, u32)> = BTreeMap::new();
            for ((name, _), ns) in results.iter().zip(&cells) {
                let e = per_workload.entry(name).or_default();
                e.0 += *ns as f64;
                e.1 += 1;
            }
            for (name, (ns, n)) in per_workload {
                layers.set(
                    &format!("workloads.cell_ms.{name}"),
                    ns / f64::from(n) / 1e6,
                );
            }
            let f = fires.borrow();
            layers.add_fires(&f);
            // `Workload::run` builds inputs, runs the scheduler and verifies
            // in one public call, so the runtime's self time here still
            // holds the kernels (its task bodies) and the verification.
            let cell_s: f64 = cells.iter().sum::<u64>() as f64 * 1e-9;
            layers.set_runtime_self(cell_s - f.total_s());
        }
        pass.layers = layers;
        pass
    }

    /// The paper-shape claims whose rows are in the subset: Table V's
    /// 12-beats-16 and Table VII's throttled-run-is-fastest. They are claims
    /// about paper-scale inputs, so test size skips them.
    fn shape_claims(&self, results: &[(&'static str, Result<RunReport, String>)]) -> Vec<String> {
        let time = |label: &str| {
            self.cells
                .iter()
                .zip(results)
                .find(|(c, _)| c.label == label)
                .and_then(|(_, (_, r))| r.as_ref().ok())
                .map(|r| r.elapsed_s)
        };
        let mut failures = Vec::new();
        if let (Some(t16), Some(t12)) = (time("table5 fixed16"), time("table5 fixed12")) {
            if t12 >= t16 {
                failures.push(format!(
                    "table5: 12 threads ({t12} s) must beat 16 ({t16} s)"
                ));
            }
        }
        if let (Some(dy), Some(f16), Some(f12)) = (
            time("table7 dynamic16"),
            time("table7 fixed16"),
            time("table7 fixed12"),
        ) {
            if dy >= f16 || dy >= f12 {
                failures.push(format!(
                    "table7: throttled run ({dy} s) must be fastest (fixed16 {f16} s, fixed12 {f12} s)"
                ));
            }
        }
        failures
    }
}

fn family(f: Family) -> &'static str {
    match f {
        Family::Gcc => "gcc",
        Family::Icc => "icc",
    }
}

/// The message of a caught panic (workload verification failures panic).
pub fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}
