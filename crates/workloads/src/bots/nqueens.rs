//! BOTS `nqueens` with cutoff.
//!
//! Task recursion over board rows down to a depth cutoff, sequential
//! enumeration below it — the tuned counterpart of the micro-benchmark.
//! Near-linear speedup (Figures 3-4); ~124 W at GCC -O2 (Table II).

use maestro::{Maestro, RunReport};
use maestro_machine::Cost;
use maestro_runtime::{BoxTask, RuntimeParams, Step, TaskCtx, TaskLogic, TaskValue};

use crate::compiler::CompilerConfig;
use crate::micro::nqueens::count_with_prefix;
use crate::profiles::{self, cost_split};
use crate::registry::{Group, Scale, Workload};

const OMP_DISPATCH_BASE: u64 = 900;

/// The cutoff n-queens benchmark.
pub struct NQueensCutoff {
    n: usize,
    cutoff_depth: usize,
}

impl NQueensCutoff {
    /// Construct at the given input scale.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Test => NQueensCutoff { n: 8, cutoff_depth: 2 },
            Scale::Paper => NQueensCutoff { n: 12, cutoff_depth: 3 },
        }
    }

    /// Number of tasks: valid prefixes up to the cutoff depth (each valid
    /// prefix of length < cutoff spawns per-column children).
    fn count_tasks(n: usize, depth: usize, prefix: &mut Vec<usize>) -> u64 {
        if prefix.len() == depth {
            return 1;
        }
        let mut total = 1; // this internal node
        for col in 0..n {
            if crate::micro::nqueens::prefix_safe(prefix, col) {
                prefix.push(col);
                total += Self::count_tasks(n, depth, prefix);
                prefix.pop();
            }
        }
        total
    }

    fn task_count(&self) -> u64 {
        Self::count_tasks(self.n, self.cutoff_depth, &mut Vec::new())
    }
}

struct QueensTask {
    n: usize,
    cutoff: usize,
    prefix: Vec<usize>,
    per_task: Cost,
    phase: u8,
    value: u64,
}

impl TaskLogic<()> for QueensTask {
    fn step(&mut self, _app: &mut (), ctx: &mut TaskCtx) -> Step<()> {
        match self.phase {
            0 => {
                self.phase = 1;
                if self.prefix.len() == self.cutoff {
                    self.value = count_with_prefix(self.n, &self.prefix);
                    return Step::Compute(self.per_task);
                }
                let mut children: Vec<BoxTask<()>> = Vec::new();
                for col in 0..self.n {
                    if crate::micro::nqueens::prefix_safe(&self.prefix, col) {
                        let mut prefix = self.prefix.clone();
                        prefix.push(col);
                        children.push(Box::new(QueensTask {
                            n: self.n,
                            cutoff: self.cutoff,
                            prefix,
                            per_task: self.per_task,
                            phase: 0,
                            value: 0,
                        }));
                    }
                }
                if children.is_empty() {
                    self.value = 0;
                    return Step::Done(TaskValue::of(0u64));
                }
                Step::SpawnWait(children)
            }
            1 => {
                if self.prefix.len() < self.cutoff {
                    self.value = ctx.children.iter_mut().map(|v| v.take::<u64>().unwrap()).sum();
                    self.phase = 2;
                    Step::Compute(self.per_task)
                } else {
                    Step::Done(TaskValue::of(self.value))
                }
            }
            _ => Step::Done(TaskValue::of(self.value)),
        }
    }

    fn label(&self) -> &'static str {
        "bots-nqueens"
    }
}

impl Workload for NQueensCutoff {
    fn name(&self) -> &'static str {
        "bots-nqueens"
    }

    fn group(&self) -> Group {
        Group::Bots
    }

    fn runtime_params(&self, cc: CompilerConfig, workers: usize) -> RuntimeParams {
        let plan = profiles::plan_bag(self.name(), cc, self.task_count(), OMP_DISPATCH_BASE);
        cc.omp_params_with_slope(workers, plan.slope_cycles)
    }

    fn run(&self, m: &mut Maestro, cc: CompilerConfig) -> RunReport {
        let plan = profiles::plan_bag(self.name(), cc, self.task_count(), OMP_DISPATCH_BASE);
        let per_task = cost_split(plan.per_task_cycles, 0.03, 1.5, plan.intensity);
        let root: BoxTask<()> = Box::new(QueensTask {
            n: self.n,
            cutoff: self.cutoff_depth,
            prefix: Vec::new(),
            per_task,
            phase: 0,
            value: 0,
        });
        let mut report = m.run(self.name(), &mut (), root);
        let got = report.value.take::<u64>().expect("nqueens returns a count");
        assert_eq!(got, crate::micro::nqueens::NQueens::expected(self.n));
        report.value = TaskValue::of(got);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro::MaestroConfig;

    #[test]
    fn counts_match_reference() {
        let w = NQueensCutoff::new(Scale::Test);
        let cc = CompilerConfig::gcc(crate::OptLevel::O2);
        let mut cfg = MaestroConfig::fixed(8);
        cfg.runtime = w.runtime_params(cc, 8);
        let mut m = Maestro::new(cfg);
        let mut r = w.run(&mut m, cc);
        assert_eq!(r.value.take::<u64>(), Some(92));
    }

    #[test]
    fn scales_near_linearly() {
        let w = NQueensCutoff::new(Scale::Test);
        let cc = CompilerConfig::icc(crate::OptLevel::O2);
        let elapsed = |workers: usize| {
            let mut cfg = MaestroConfig::fixed(workers);
            cfg.runtime = w.runtime_params(cc, workers);
            let mut m = Maestro::new(cfg);
            w.run(&mut m, cc).elapsed_s
        };
        let speedup = elapsed(1) / elapsed(16);
        assert!(speedup > 8.0, "cutoff nqueens must scale: {speedup}");
    }

    #[test]
    fn task_count_is_modest() {
        let w = NQueensCutoff::new(Scale::Paper);
        let tasks = w.task_count();
        assert!((100..20_000).contains(&tasks), "tasks={tasks}");
    }
}
