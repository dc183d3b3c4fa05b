//! The `mergesort` micro-benchmark.
//!
//! The untuned version splits the array once, sorts the halves in two
//! OpenMP sections, and merges the results on one thread — so available
//! parallelism is exactly two, and the final merge is serial. The paper's
//! Figure 1 shows it "only scales to 2 threads", and because 14 of the 16
//! cores sit idle the node draws just ~60 W (the minimum across the whole
//! study, Tables I-III).
//!
//! The payload is a real merge sort: recursive sequential sort of each half,
//! then a real two-way merge, verified against the standard-library sort.
//! The sort is top-down and ping-pongs between the slice and one scratch
//! copy of it, allocated once per call: each level sorts its halves into
//! the other buffer and merges them back. The merge is branch-free — it
//! picks with `x <= y` and steps both cursors by that bool — so its cost
//! does not hang on the branch predictor guessing random data.

use maestro::{Maestro, RunReport};
use maestro_runtime::{fork_join, leaf, BoxTask, RuntimeParams, TaskValue};

use crate::compiler::CompilerConfig;
use crate::profiles::{self, cost_split, FREQ_GHZ};
use crate::registry::{Group, Scale, Workload};

/// Memory character of streaming sort/merge phases.
const MEM_FRAC: f64 = 0.5;
const MLP: f64 = 3.0;

/// The two-way mergesort benchmark.
pub struct MergeSort {
    elements: usize,
}

impl MergeSort {
    /// Construct at the given input scale.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Test => MergeSort { elements: 20_000 },
            Scale::Paper => MergeSort { elements: 1_000_000 },
        }
    }

    fn data(&self) -> Vec<u64> {
        // Deterministic pseudo-random input (xorshift).
        let mut x = 0x9E3779B97F4A7C15u64;
        (0..self.elements)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect()
    }
}

/// Real sequential merge sort (ascending), used by both half-tasks.
pub fn merge_sort(data: &mut [u64]) {
    let mut scratch = data.to_vec();
    sort_via(data, &mut scratch);
}

/// Sorts `dst`, given `buf` holding the same elements on entry; `buf` is
/// left clobbered. Each half is sorted into `buf` (with `dst`'s half as its
/// scratch), then the halves are merged back into `dst`.
fn sort_via(dst: &mut [u64], buf: &mut [u64]) {
    if dst.len() <= 32 {
        dst.sort_unstable(); // insertion-sized base case
        return;
    }
    let mid = dst.len() / 2;
    let (buf_lo, buf_hi) = buf.split_at_mut(mid);
    let (dst_lo, dst_hi) = dst.split_at_mut(mid);
    sort_via(buf_lo, dst_lo);
    sort_via(buf_hi, dst_hi);
    merge_into(buf_lo, buf_hi, dst);
}

/// Real two-way merge of sorted runs.
pub fn merge(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0; a.len() + b.len()];
    merge_into(a, b, &mut out);
    out
}

/// Merges the sorted runs `a` and `b` into `out`, which must be exactly as
/// long as both together. Ties take from `a` first.
fn merge_into(a: &[u64], b: &[u64], out: &mut [u64]) {
    assert_eq!(out.len(), a.len() + b.len(), "merge output length");
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        let take_a = x <= y;
        out[i + j] = if take_a { x } else { y };
        i += take_a as usize;
        j += !take_a as usize;
    }
    let (rest_a, rest_b) = out[i + j..].split_at_mut(a.len() - i);
    rest_a.copy_from_slice(&a[i..]);
    rest_b.copy_from_slice(&b[j..]);
}

struct App {
    data: Vec<u64>,
}

impl Workload for MergeSort {
    fn name(&self) -> &'static str {
        "mergesort"
    }

    fn group(&self) -> Group {
        Group::Micro
    }

    fn runtime_params(&self, cc: CompilerConfig, workers: usize) -> RuntimeParams {
        // Two coarse tasks: the shared pool is irrelevant, no extra slope.
        cc.omp_runtime_params(workers)
    }

    fn run(&self, m: &mut Maestro, cc: CompilerConfig) -> RunReport {
        let cal = profiles::calibration(self.name());
        let mult = cal.work_mult(cc);
        let intensity = cal.intensity(cc);
        // Structural timing model: t(1) = 2H + M, t(p≥2) = H + M, so
        //   H = t1 − t16 and M = 2·t16 − t1  (seconds at GCC -O2).
        let t1 = cal.serial_time_s;
        let t16 = cal.time_s[0][2];
        let half_cycles = ((t1 - t16) * FREQ_GHZ * 1e9 * mult) as u64;
        let merge_cycles = ((2.0 * t16 - t1) * FREQ_GHZ * 1e9 * mult).max(0.0) as u64;

        let mut app = App { data: self.data() };
        let mut expected = app.data.clone();
        expected.sort_unstable();
        let n = app.data.len();
        let mid = n / 2;

        let halves: Vec<BoxTask<App>> = [(0, mid), (mid, n)]
            .into_iter()
            .map(|(lo, hi)| {
                let cost = cost_split(half_cycles, MEM_FRAC, MLP, intensity);
                leaf(move |app: &mut App, _ctx| {
                    merge_sort(&mut app.data[lo..hi]);
                    (cost, TaskValue::none())
                })
            })
            .collect();
        let root = fork_join(halves, move |app: &mut App, _vals| {
            let merged = merge(&app.data[..mid], &app.data[mid..]);
            app.data = merged;
            (cost_split(merge_cycles, MEM_FRAC, MLP, intensity), TaskValue::none())
        });

        let report = m.run(self.name(), &mut app, root);
        assert_eq!(app.data, expected, "mergesort produced an unsorted array");
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro::MaestroConfig;

    #[test]
    fn merge_sort_sorts() {
        let mut v = vec![5u64, 3, 9, 1, 1, 0, 42, 7];
        merge_sort(&mut v);
        assert_eq!(v, vec![0, 1, 1, 3, 5, 7, 9, 42]);
    }

    #[test]
    fn merge_sort_matches_sort_unstable_across_lengths() {
        // Lengths around the base case and the power-of-two splits, with
        // plenty of duplicates (values mod 97).
        for len in [0, 1, 31, 32, 33, 64, 65, 1000, 4097] {
            let mut x = 0x2545F4914F6CDD1Du64 ^ len as u64;
            let data: Vec<u64> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x % 97
                })
                .collect();
            let mut got = data.clone();
            merge_sort(&mut got);
            let mut want = data;
            want.sort_unstable();
            assert_eq!(got, want, "len={len}");
        }
    }

    #[test]
    fn merge_is_stable_union() {
        assert_eq!(merge(&[1, 4, 6], &[2, 4, 9]), vec![1, 2, 4, 4, 6, 9]);
        assert_eq!(merge(&[], &[1]), vec![1]);
        assert_eq!(merge(&[1], &[]), vec![1]);
        assert_eq!(merge(&[], &[]), Vec::<u64>::new());
    }

    #[test]
    fn merge_handles_unequal_and_empty_runs() {
        assert_eq!(merge(&[5], &[1, 2, 3, 7, 8]), vec![1, 2, 3, 5, 7, 8]);
        assert_eq!(merge(&[1, 2, 3, 7, 8], &[5]), vec![1, 2, 3, 5, 7, 8]);
        assert_eq!(merge(&[9, 10, 11], &[1, 2]), vec![1, 2, 9, 10, 11]);
        assert_eq!(merge(&[1, 2], &[9, 10, 11]), vec![1, 2, 9, 10, 11]);
        assert_eq!(merge(&[], &[3, 3, 4]), vec![3, 3, 4]);
        assert_eq!(merge(&[3, 3, 4], &[]), vec![3, 3, 4]);
        assert_eq!(merge(&[2, 2, 2], &[2]), vec![2, 2, 2, 2]);
    }

    #[test]
    fn scales_to_two_and_no_further() {
        let w = MergeSort::new(Scale::Test);
        let cc = CompilerConfig::gcc(crate::OptLevel::O2);
        let elapsed = |workers: usize| {
            let mut cfg = MaestroConfig::fixed(workers);
            cfg.runtime = w.runtime_params(cc, workers);
            let mut m = Maestro::new(cfg);
            w.run(&mut m, cc).elapsed_s
        };
        let t1 = elapsed(1);
        let t2 = elapsed(2);
        let t16 = elapsed(16);
        assert!(t1 / t2 > 1.5, "two-way split must help: {}", t1 / t2);
        assert!(
            (t2 - t16).abs() / t2 < 0.05,
            "no benefit past 2 threads: t2={t2} t16={t16}"
        );
    }

    #[test]
    fn low_power_at_sixteen_workers() {
        // 14 idle workers => node power far below compute-bound levels.
        let w = MergeSort::new(Scale::Test);
        let cc = CompilerConfig::gcc(crate::OptLevel::O2);
        let mut cfg = MaestroConfig::fixed(16);
        cfg.runtime = w.runtime_params(cc, 16);
        let mut m = Maestro::new(cfg);
        let r = w.run(&mut m, cc);
        assert!(
            (50.0..=75.0).contains(&r.avg_watts),
            "mergesort node power {} W should be near the paper's ~60 W",
            r.avg_watts
        );
    }
}
