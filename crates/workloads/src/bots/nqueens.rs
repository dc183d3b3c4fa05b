//! BOTS `nqueens` with cutoff.
//!
//! Task recursion over board rows down to a depth cutoff, sequential
//! enumeration below it — the tuned counterpart of the micro-benchmark.
//! Near-linear speedup (Figures 3-4); ~124 W at GCC -O2 (Table II).

use maestro::{Maestro, RunReport};
use maestro_machine::Cost;
use maestro_runtime::{BoxTask, RuntimeParams, Step, TaskCtx, TaskLogic, TaskValue};

use crate::compiler::CompilerConfig;
use crate::micro::nqueens::Board;
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
    fn count_tasks(board: Board, cutoff: usize) -> u64 {
        if board.depth() == cutoff {
            return 1;
        }
        // This internal node, plus its subtrees.
        1 + board.children().map(|b| Self::count_tasks(b, cutoff)).sum::<u64>()
    }

    fn task_count(&self) -> u64 {
        Self::count_tasks(Board::empty(self.n), self.cutoff_depth)
    }
}

struct QueensTask {
    cutoff: usize,
    board: Board,
    per_task: Cost,
    phase: u8,
    value: u64,
}

impl TaskLogic<()> for QueensTask {
    fn step(&mut self, _app: &mut (), ctx: &mut TaskCtx) -> Step<()> {
        match self.phase {
            0 => {
                self.phase = 1;
                if self.board.depth() == self.cutoff {
                    self.value = self.board.count();
                    return Step::Compute(self.per_task);
                }
                // Children in ascending column order: task ids and the
                // schedule follow the spawn order.
                let children: Vec<BoxTask<()>> = self
                    .board
                    .children()
                    .map(|board| -> BoxTask<()> {
                        Box::new(QueensTask {
                            cutoff: self.cutoff,
                            board,
                            per_task: self.per_task,
                            phase: 0,
                            value: 0,
                        })
                    })
                    .collect();
                if children.is_empty() {
                    self.value = 0;
                    return Step::Done(TaskValue::of(0u64));
                }
                Step::SpawnWait(children)
            }
            1 => {
                if self.board.depth() < self.cutoff {
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
            cutoff: self.cutoff_depth,
            board: Board::empty(self.n),
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

    #[test]
    fn task_counts_match_the_prefix_tree() {
        // Pinned from the row-by-row prefix enumeration: 1 + 12 + 110 + 756
        // boards at paper scale, 1 + 8 + 42 at test scale.
        assert_eq!(NQueensCutoff::new(Scale::Paper).task_count(), 879);
        assert_eq!(NQueensCutoff::new(Scale::Test).task_count(), 51);
    }
}
