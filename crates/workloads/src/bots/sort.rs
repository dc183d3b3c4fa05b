//! BOTS `sort` with cutoff (cilksort).
//!
//! Recursive merge sort where both the sorting *and the merging* are task
//! parallel: a sort task splits its range, and each merge is itself split
//! by binary-searching the second run around the first run's median, so the
//! two merge halves write disjoint output and run concurrently. Sequential
//! cutoffs keep the leaves coarse. The paper measures speedup ≈ 12.6 —
//! good, but the streaming merges keep it below the compute-bound codes.

use maestro::{Maestro, RunReport};
use maestro_machine::Cost;
use maestro_runtime::{leaf, BoxTask, RuntimeParams, Step, TaskCtx, TaskLogic, TaskValue};

use crate::compiler::CompilerConfig;
use crate::profiles::{self, cost_split};
use crate::registry::{Group, Scale, Workload};

const OMP_DISPATCH_BASE: u64 = 900;
const MEM_FRAC: f64 = 0.45;
const MLP: f64 = 4.0;

/// The cilksort-style benchmark.
pub struct SortCutoff {
    elements: usize,
    cutoff: usize,
}

impl SortCutoff {
    /// Construct at the given input scale.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Test => SortCutoff { elements: 6_000, cutoff: 512 },
            Scale::Paper => SortCutoff { elements: 500_000, cutoff: 16_384 },
        }
    }

    fn data(&self) -> Vec<u32> {
        let mut x = 0xC11A_50F7u64;
        (0..self.elements)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 16) as u32
            })
            .collect()
    }

    /// Leaf count of the sort recursion.
    pub fn leaf_count(len: usize, cutoff: usize) -> u64 {
        if len <= cutoff {
            1
        } else {
            Self::leaf_count(len / 2, cutoff) + Self::leaf_count(len - len / 2, cutoff)
        }
    }

    /// Total dispatches the recursion generates: leaves, the three visits to
    /// every internal node (spawn, merge spawn, copy-back), and one per
    /// merge piece. The contention slope is calibrated per dispatch, so the
    /// count must match what the scheduler will actually charge.
    fn dispatch_count(len: usize, cutoff: usize) -> u64 {
        if len <= cutoff {
            return 1;
        }
        let pieces = (len / cutoff.max(1)).clamp(2, 32) as u64;
        3 + pieces
            + Self::dispatch_count(len / 2, cutoff)
            + Self::dispatch_count(len - len / 2, cutoff)
    }
}

struct App {
    data: Vec<u32>,
    scratch: Vec<u32>,
}

/// Sort `data[lo..hi]` (operating in `data`, using `scratch[lo..hi]`).
struct SortTask {
    lo: usize,
    hi: usize,
    cutoff: usize,
    per_element_cycles: f64,
    intensity: f64,
    phase: u8,
}

impl SortTask {
    fn cost(&self, elements: usize, weight: f64) -> Cost {
        let cycles = (self.per_element_cycles * elements as f64 * weight) as u64;
        cost_split(cycles, MEM_FRAC, MLP, self.intensity)
    }
}

impl TaskLogic<App> for SortTask {
    fn step(&mut self, app: &mut App, _ctx: &mut TaskCtx) -> Step<App> {
        let (lo, hi) = (self.lo, self.hi);
        let len = hi - lo;
        match self.phase {
            0 => {
                self.phase = 1;
                if len <= self.cutoff {
                    app.data[lo..hi].sort_unstable();
                    // Leaf: cost of the sequential sort (n log n-ish; the
                    // constant is folded into per_element_cycles).
                    let weight = (len.max(2) as f64).log2();
                    let c = self.cost(len, weight);
                    return Step::Compute(c);
                }
                let mid = lo + len / 2;
                Step::SpawnWait(vec![
                    Box::new(SortTask {
                        lo,
                        hi: mid,
                        cutoff: self.cutoff,
                        per_element_cycles: self.per_element_cycles,
                        intensity: self.intensity,
                        phase: 0,
                    }),
                    Box::new(SortTask {
                        lo: mid,
                        hi,
                        cutoff: self.cutoff,
                        per_element_cycles: self.per_element_cycles,
                        intensity: self.intensity,
                        phase: 0,
                    }),
                ])
            }
            1 => {
                // Halves sorted: merge them in parallel into scratch. Like
                // cilksort, the merge itself is split into enough disjoint
                // pieces to keep every worker busy: pick quantile pivots
                // from the left run and binary-search the right run, so
                // piece j merges A[a_j..a_{j+1}) with B[b_j..b_{j+1}) into a
                // contiguous output region.
                self.phase = 2;
                let mid = lo + len / 2;
                let pieces = (len / self.cutoff.max(1)).clamp(2, 32);
                let a_len = mid - lo;
                let mut a_bounds: Vec<usize> = (0..=pieces).map(|j| lo + j * a_len / pieces).collect();
                a_bounds[pieces] = mid;
                let mut b_bounds: Vec<usize> = Vec::with_capacity(pieces + 1);
                b_bounds.push(mid);
                for &a_bound in &a_bounds[1..pieces] {
                    let pivot = app.data[a_bound - 1]; // last elem of the previous piece's A part
                    let b_split = mid + app.data[mid..hi].partition_point(|&x| x <= pivot);
                    b_bounds.push(b_split.max(*b_bounds.last().expect("non-empty")));
                }
                b_bounds.push(hi);
                let per = self.per_element_cycles;
                let intensity = self.intensity;
                let mut tasks: Vec<BoxTask<App>> = Vec::with_capacity(pieces);
                let mut out = lo;
                for j in 0..pieces {
                    let (a0, a1) = (a_bounds[j], a_bounds[j + 1]);
                    let (b0, b1) = (b_bounds[j], b_bounds[j + 1]);
                    let start = out;
                    out += (a1 - a0) + (b1 - b0);
                    tasks.push(leaf(move |app: &mut App, _ctx| {
                        let mut i = a0;
                        let mut j = b0;
                        let mut k = start;
                        while i < a1 && j < b1 {
                            if app.data[i] <= app.data[j] {
                                app.scratch[k] = app.data[i];
                                i += 1;
                            } else {
                                app.scratch[k] = app.data[j];
                                j += 1;
                            }
                            k += 1;
                        }
                        app.scratch[k..k + (a1 - i)].copy_from_slice(&app.data[i..a1]);
                        k += a1 - i;
                        app.scratch[k..k + (b1 - j)].copy_from_slice(&app.data[j..b1]);
                        let n = (a1 - a0) + (b1 - b0);
                        let cycles = (per * n as f64) as u64;
                        (cost_split(cycles, MEM_FRAC, MLP, intensity), TaskValue::none())
                    }));
                }
                debug_assert_eq!(out, hi);
                Step::SpawnWait(tasks)
            }
            _ => {
                // Copy the merged run back (part of the merge cost model).
                app.data[lo..hi].copy_from_slice(&app.scratch[lo..hi]);
                Step::Done(TaskValue::none())
            }
        }
    }

    fn label(&self) -> &'static str {
        "bots-sort"
    }
}

impl Workload for SortCutoff {
    fn name(&self) -> &'static str {
        "bots-sort"
    }

    fn group(&self) -> Group {
        Group::Bots
    }

    fn runtime_params(&self, cc: CompilerConfig, workers: usize) -> RuntimeParams {
        let tasks = Self::dispatch_count(self.elements, self.cutoff);
        let plan = profiles::plan_bag(self.name(), cc, tasks, OMP_DISPATCH_BASE);
        cc.omp_params_with_slope(workers, plan.slope_cycles)
    }

    fn run(&self, m: &mut Maestro, cc: CompilerConfig) -> RunReport {
        let cal = profiles::calibration(self.name());
        // Total work = serial time; the recursion touches ~n·log2(n/cutoff)
        // merge elements plus n·log2(cutoff) leaf-sort elements, all charged
        // per element.
        let n = self.elements as f64;
        let total_weighted_elements = n * (n.max(2.0)).log2();
        let per_element_cycles =
            cal.serial_time_s * profiles::FREQ_GHZ * 1e9 * cal.work_mult(cc)
                / total_weighted_elements;
        let mut app = App { data: self.data(), scratch: vec![0; self.elements] };
        let mut expected = app.data.clone();
        expected.sort_unstable();
        let root: BoxTask<App> = Box::new(SortTask {
            lo: 0,
            hi: self.elements,
            cutoff: self.cutoff,
            per_element_cycles,
            intensity: cal.intensity(cc),
            phase: 0,
        });
        let report = m.run(self.name(), &mut app, root);
        assert_eq!(app.data, expected, "cilksort produced an unsorted array");
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro::MaestroConfig;

    fn run_with(workers: usize) -> RunReport {
        let w = SortCutoff::new(Scale::Test);
        let cc = CompilerConfig::gcc(crate::OptLevel::O2);
        let mut cfg = MaestroConfig::fixed(workers);
        cfg.runtime = w.runtime_params(cc, workers);
        let mut m = Maestro::new(cfg);
        w.run(&mut m, cc)
    }

    #[test]
    fn sorts_correctly_any_worker_count() {
        for workers in [1, 4, 16] {
            run_with(workers); // panics internally if unsorted
        }
    }

    #[test]
    fn scales_well() {
        let t1 = run_with(1).elapsed_s;
        let t16 = run_with(16).elapsed_s;
        let speedup = t1 / t16;
        assert!(speedup > 5.0, "cilksort should scale: {speedup}");
    }

    #[test]
    fn leaf_count_matches_recursion() {
        assert_eq!(SortCutoff::leaf_count(1000, 1000), 1);
        assert_eq!(SortCutoff::leaf_count(1001, 1000), 2);
        assert_eq!(SortCutoff::leaf_count(4000, 1000), 4);
    }
}
