//! The `nqueens` micro-benchmark.
//!
//! Counts all placements of `n` queens. The untuned OpenMP version creates a
//! task per two-level board prefix and lets each task enumerate its subtree
//! sequentially — coarse enough that (unlike fibonacci) it actually scales:
//! the paper's Figure 1 shows near-linear speedup to 16 threads, at the
//! *lowest* power of the compute-bound codes (118 W at GCC `-O2`: queens is
//! branch-heavy, keeping few execution units lit).

use maestro::{Maestro, RunReport};
use maestro_runtime::{fork_join, leaf, BoxTask, RuntimeParams, TaskValue};

use crate::compiler::CompilerConfig;
use crate::profiles::{self, cost_split};
use crate::registry::{Group, Scale, Workload};

const OMP_DISPATCH_BASE: u64 = 900;

/// The n-queens solution counter.
pub struct NQueens {
    n: usize,
}

impl NQueens {
    /// Construct at the given input scale.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Test => NQueens { n: 8 },
            Scale::Paper => NQueens { n: 12 },
        }
    }

    /// Known solution counts for boards used here.
    pub fn expected(n: usize) -> u64 {
        match n {
            8 => 92,
            12 => 14_200,
            13 => 73_712,
            _ => panic!("no reference count recorded for n={n}"),
        }
    }

    /// Number of two-level task prefixes (queens in rows 0 and 1 that do not
    /// attack each other).
    fn task_count(n: usize) -> u64 {
        let mut count = 0;
        for c0 in 0..n {
            for c1 in 0..n {
                if c1 != c0 && (c1 as i64 - c0 as i64).abs() != 1 {
                    count += 1;
                }
            }
        }
        count
    }
}

/// True when placing a queen in `col` on the next row does not attack any
/// queen already placed (one per row, columns in `placed`).
pub fn prefix_safe(placed: &[usize], col: usize) -> bool {
    let row = placed.len();
    placed
        .iter()
        .enumerate()
        .all(|(r, &c)| c != col && (row - r) as i64 != (col as i64 - c as i64).abs())
}

/// Sequential subtree enumeration with queens pre-placed in `prefix`;
/// returns 0 for an internally inconsistent prefix.
pub fn count_with_prefix(n: usize, prefix: &[usize]) -> u64 {
    fn rec(n: usize, placed: &mut Vec<usize>) -> u64 {
        if placed.len() == n {
            return 1;
        }
        let mut total = 0;
        for col in 0..n {
            if prefix_safe(placed, col) {
                placed.push(col);
                total += rec(n, placed);
                placed.pop();
            }
        }
        total
    }
    for (i, &c) in prefix.iter().enumerate() {
        if !prefix_safe(&prefix[..i], c) {
            return 0;
        }
    }
    rec(n, &mut prefix.to_vec())
}

impl Workload for NQueens {
    fn name(&self) -> &'static str {
        "nqueens"
    }

    fn group(&self) -> Group {
        Group::Micro
    }

    fn runtime_params(&self, cc: CompilerConfig, workers: usize) -> RuntimeParams {
        let plan =
            profiles::plan_bag(self.name(), cc, Self::task_count(self.n), OMP_DISPATCH_BASE);
        cc.omp_params_with_slope(workers, plan.slope_cycles)
    }

    fn run(&self, m: &mut Maestro, cc: CompilerConfig) -> RunReport {
        let n = self.n;
        let tasks = Self::task_count(n);
        let plan = profiles::plan_bag(self.name(), cc, tasks, OMP_DISPATCH_BASE);
        let mut children: Vec<BoxTask<()>> = Vec::with_capacity(tasks as usize);
        for c0 in 0..n {
            for c1 in 0..n {
                if c1 == c0 || (c1 as i64 - c0 as i64).abs() == 1 {
                    continue;
                }
                // Branch-heavy integer code: low intensity, almost no memory.
                let cost = cost_split(plan.per_task_cycles, 0.03, 1.5, plan.intensity);
                children.push(leaf(move |_: &mut (), _ctx| {
                    (cost, TaskValue::of(count_with_prefix(n, &[c0, c1])))
                }));
            }
        }
        let root = fork_join(children, |_, mut vals| {
            let total: u64 = vals.iter_mut().map(|v| v.take::<u64>().unwrap()).sum();
            (maestro_machine::Cost::ZERO, TaskValue::of(total))
        });
        let mut report = m.run(self.name(), &mut (), root);
        let total = report.value.take::<u64>().expect("nqueens returns a count");
        assert_eq!(total, Self::expected(n), "wrong n-queens count for n={n}");
        report.value = TaskValue::of(total);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro::MaestroConfig;

    #[test]
    fn sequential_reference_is_correct() {
        assert_eq!(count_with_prefix(8, &[]), 92);
        assert_eq!(count_with_prefix(6, &[]), 4);
        // An attacked prefix contributes nothing.
        assert_eq!(count_with_prefix(8, &[0, 1]), 0);
        assert_eq!(count_with_prefix(8, &[0, 0]), 0);
    }

    #[test]
    fn parallel_count_matches_and_scales() {
        let w = NQueens::new(Scale::Test);
        let cc = CompilerConfig::gcc(crate::OptLevel::O2);
        let elapsed = |workers: usize| {
            let mut cfg = MaestroConfig::fixed(workers);
            cfg.runtime = w.runtime_params(cc, workers);
            let mut m = Maestro::new(cfg);
            w.run(&mut m, cc).elapsed_s
        };
        let t1 = elapsed(1);
        let t16 = elapsed(16);
        let speedup = t1 / t16;
        assert!(speedup > 8.0, "nqueens must scale well: {speedup}");
    }

    #[test]
    fn task_prefixes_partition_the_search_space() {
        // Sum over all two-level prefixes equals the full count.
        let n = 8;
        let mut total = 0;
        for c0 in 0..n {
            for c1 in 0..n {
                if c1 != c0 && (c1 as i64 - c0 as i64).abs() != 1 {
                    total += count_with_prefix(n, &[c0, c1]);
                }
            }
        }
        assert_eq!(total, 92);
    }
}
