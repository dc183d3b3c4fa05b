//! The `nqueens` micro-benchmark.
//!
//! Counts all placements of `n` queens. The untuned OpenMP version creates a
//! task per two-level board prefix and lets each task enumerate its subtree
//! sequentially — coarse enough that (unlike fibonacci) it actually scales:
//! the paper's Figure 1 shows near-linear speedup to 16 threads, at the
//! *lowest* power of the compute-bound codes (118 W at GCC `-O2`: queens is
//! branch-heavy, keeping few execution units lit).
//!
//! The host payload is a bitmask solver: a partial board is three `u32`
//! masks (taken columns, ↘ and ↙ diagonals, all shifted onto the next row),
//! and each row tries its free columns lowest bit first. Its simulated cost
//! comes from the calibrated per-task cycles, not from the host time the
//! enumeration takes, so the solver's speed moves no simulated figure.

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

    /// Number of two-level task prefixes.
    fn task_count(n: usize) -> u64 {
        two_row_prefixes(n).count() as u64
    }
}

/// The two-row task prefixes `(c0, c1)` in row-major order: a queen in
/// row 0, column `c0`, and one in row 1, column `c1`, that do not attack
/// each other.
pub fn two_row_prefixes(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n).flat_map(move |c0| (0..n).filter(move |&c1| c1.abs_diff(c0) > 1).map(move |c1| (c0, c1)))
}

/// A partial placement with one queen in each of the first `depth` rows,
/// held as three attack masks on the next row: bit `c` of `cols` is set
/// when column `c` is taken, of `d1` when a ↘ diagonal hits it, of `d2`
/// when a ↙ diagonal does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Board {
    full: u32,
    cols: u32,
    d1: u32,
    d2: u32,
    depth: usize,
}

impl Board {
    /// The empty `n`×`n` board; `n < 32` so a row fits in a `u32`.
    pub(crate) fn empty(n: usize) -> Board {
        assert!(n < 32, "n-queens board {n} does not fit the u32 masks");
        Board { full: (1u32 << n) - 1, cols: 0, d1: 0, d2: 0, depth: 0 }
    }

    /// Rows filled so far.
    pub(crate) fn depth(&self) -> usize {
        self.depth
    }

    /// The unattacked columns of the next row, as a mask.
    fn free(&self) -> u32 {
        self.full & !(self.cols | self.d1 | self.d2)
    }

    /// The board with a queen on the next row at the single-bit mask `bit`.
    fn place_bit(&self, bit: u32) -> Board {
        Board {
            full: self.full,
            cols: self.cols | bit,
            d1: (self.d1 | bit) << 1,
            d2: (self.d2 | bit) >> 1,
            depth: self.depth + 1,
        }
    }

    /// The board with a queen on the next row at `col`, or `None` when
    /// `col` is off the board or attacked.
    pub(crate) fn place(&self, col: usize) -> Option<Board> {
        let bit = if col < 32 { 1u32 << col } else { 0 };
        (self.free() & bit != 0).then(|| self.place_bit(bit))
    }

    /// Every board one row deeper, in ascending column order.
    pub(crate) fn children(&self) -> impl Iterator<Item = Board> + '_ {
        let mut free = self.free();
        std::iter::from_fn(move || {
            (free != 0).then(|| {
                let bit = free & free.wrapping_neg();
                free ^= bit;
                self.place_bit(bit)
            })
        })
    }

    /// Complete placements that extend this board.
    pub(crate) fn count(&self) -> u64 {
        if self.cols == self.full {
            return 1;
        }
        self.children().map(|b| b.count()).sum()
    }
}

/// Sequential subtree enumeration with queens pre-placed in `prefix` (the
/// column of the queen in each of the first rows). Returns 0 for an
/// inconsistent prefix: one whose queens attack each other, that puts a
/// queen off the board (a column `>= n`), or that is longer than `n`.
///
/// The board lives in three `u32` masks, so `n` must be below 32.
pub fn count_with_prefix(n: usize, prefix: &[usize]) -> u64 {
    let board = prefix.iter().try_fold(Board::empty(n), |b, &col| b.place(col));
    let count = board.map_or(0, |b| b.count());
    #[cfg(maestro_verify)]
    assert_eq!(
        count,
        reference::count_with_prefix(n, prefix),
        "bitmask n-queens disagrees with the reference for n={n}, prefix {prefix:?}"
    );
    count
}

/// The brute-force reference the bitmask solver is checked against: a
/// row-by-row search that scans the placed queens for every square.
#[cfg(any(test, maestro_verify))]
mod reference {
    /// True when a queen in `col` on the next row attacks no queen in
    /// `placed` (one per row) and stands on the `n`-column board.
    fn safe(n: usize, placed: &[usize], col: usize) -> bool {
        let row = placed.len();
        col < n && placed.iter().enumerate().all(|(r, &c)| c != col && row - r != col.abs_diff(c))
    }

    pub(super) fn count_with_prefix(n: usize, prefix: &[usize]) -> u64 {
        fn rec(n: usize, placed: &mut Vec<usize>) -> u64 {
            if placed.len() == n {
                return 1;
            }
            let mut total = 0;
            for col in 0..n {
                if safe(n, placed, col) {
                    placed.push(col);
                    total += rec(n, placed);
                    placed.pop();
                }
            }
            total
        }
        if prefix.len() > n || (0..prefix.len()).any(|i| !safe(n, &prefix[..i], prefix[i])) {
            return 0;
        }
        rec(n, &mut prefix.to_vec())
    }
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
        for (c0, c1) in two_row_prefixes(n) {
            // Branch-heavy integer code: low intensity, almost no memory.
            let cost = cost_split(plan.per_task_cycles, 0.03, 1.5, plan.intensity);
            children.push(leaf(move |_: &mut (), _ctx| {
                (cost, TaskValue::of(count_with_prefix(n, &[c0, c1])))
            }));
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
    fn off_board_and_overlong_prefixes_count_nothing() {
        assert_eq!(count_with_prefix(8, &[9]), 0);
        assert_eq!(count_with_prefix(8, &[8]), 0);
        assert_eq!(count_with_prefix(8, &[usize::MAX]), 0);
        assert_eq!(count_with_prefix(4, &[1, 3, 0, 2]), 1);
        assert_eq!(count_with_prefix(4, &[1, 3, 0, 2, 0]), 0);
        assert_eq!(count_with_prefix(1, &[0]), 1);
        assert_eq!(count_with_prefix(0, &[]), 1);
        assert_eq!(count_with_prefix(0, &[0]), 0);
    }

    #[test]
    #[should_panic(expected = "does not fit the u32 masks")]
    fn boards_past_31_columns_are_refused() {
        count_with_prefix(32, &[]);
    }

    #[test]
    fn bitmask_solver_matches_the_reference() {
        // Every prefix of length <= 3 over columns 0..=n+1, so attacked,
        // repeated and off-board queens all appear.
        for n in 1..=10 {
            let cols = 0..n + 2;
            let mut prefixes: Vec<Vec<usize>> = vec![vec![]];
            for len in 1..=3 {
                let longer: Vec<Vec<usize>> = prefixes
                    .iter()
                    .filter(|p| p.len() == len - 1)
                    .flat_map(|p| cols.clone().map(move |c| [p.as_slice(), &[c]].concat()))
                    .collect();
                prefixes.extend(longer);
            }
            for p in &prefixes {
                assert_eq!(
                    count_with_prefix(n, p),
                    reference::count_with_prefix(n, p),
                    "n={n} prefix={p:?}"
                );
            }
        }
    }

    #[test]
    fn board_children_ascend_and_match_place() {
        let root = Board::empty(6);
        let kids: Vec<Board> = root.children().collect();
        assert_eq!(kids, (0..6).filter_map(|c| root.place(c)).collect::<Vec<_>>());
        let after_two = root.place(2).unwrap();
        let grandkids: Vec<Board> = after_two.children().collect();
        let expected: Vec<Board> = [0, 4, 5].iter().map(|&c| after_two.place(c).unwrap()).collect();
        assert_eq!(grandkids, expected);
        assert!(grandkids.iter().all(|b| b.depth() == 2));
    }

    #[test]
    fn two_row_prefixes_are_the_non_attacking_pairs() {
        assert_eq!(
            two_row_prefixes(4).collect::<Vec<_>>(),
            vec![(0, 2), (0, 3), (1, 3), (2, 0), (3, 0), (3, 1)]
        );
        assert_eq!(two_row_prefixes(12).count(), 110);
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
        let total: u64 = two_row_prefixes(8).map(|(c0, c1)| count_with_prefix(8, &[c0, c1])).sum();
        assert_eq!(total, 92);
    }
}
