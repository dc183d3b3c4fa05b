//! BOTS `alignment`: all-pairs protein sequence alignment.
//!
//! The original aligns every pair of sequences from a PDB input file with a
//! Myers-Miller/Gotoh-style dynamic program. Here: deterministic synthetic
//! "protein" sequences and a real affine-gap Smith-Waterman DP per pair,
//! verified against the same routine run sequentially. One task per pair;
//! the `for`/`single` variants differ in where the tasks are generated.

use maestro::{Maestro, RunReport};
use maestro_runtime::{fork_join, leaf, BoxTask, RuntimeParams, TaskValue};

use crate::bots::Variant;
use crate::compiler::CompilerConfig;
use crate::profiles::{self, cost_split};
use crate::registry::{Group, Scale, Workload};

const OMP_DISPATCH_BASE: u64 = 900;
const AMINO: &[u8] = b"ARNDCQEGHILKMFPSTWYV";

/// Deterministic synthetic protein sequences.
pub fn sequences(count: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut x = seed | 1;
    (0..count)
        .map(|_| {
            (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    AMINO[(x % AMINO.len() as u64) as usize]
                })
                .collect()
        })
        .collect()
}

/// Real affine-gap local alignment score (Smith-Waterman / Gotoh):
/// match +3, mismatch −1, gap open −4, gap extend −1.
pub fn align_score(a: &[u8], b: &[u8]) -> i32 {
    const MATCH: i32 = 3;
    const MISMATCH: i32 = -1;
    const OPEN: i32 = -4;
    const EXTEND: i32 = -1;
    let n = b.len();
    let mut h_prev = vec![0i32; n + 1];
    let mut e_prev = vec![i32::MIN / 2; n + 1];
    let mut best = 0;
    for &ca in a {
        let mut h_curr = vec![0i32; n + 1];
        let mut e_curr = vec![i32::MIN / 2; n + 1];
        let mut f = i32::MIN / 2;
        for j in 1..=n {
            let cb = b[j - 1];
            e_curr[j] = (e_prev[j] + EXTEND).max(h_prev[j] + OPEN + EXTEND);
            f = (f + EXTEND).max(h_curr[j - 1] + OPEN + EXTEND);
            let sub = h_prev[j - 1] + if ca == cb { MATCH } else { MISMATCH };
            h_curr[j] = 0.max(sub).max(e_curr[j]).max(f);
            best = best.max(h_curr[j]);
        }
        h_prev = h_curr;
        e_prev = e_curr;
    }
    best
}

struct App {
    seqs: Vec<Vec<u8>>,
}

/// The all-pairs alignment benchmark.
pub struct Alignment {
    count: usize,
    len: usize,
    variant: Variant,
    name: &'static str,
}

impl Alignment {
    /// Construct at the given input scale and task-generation variant.
    pub fn new(scale: Scale, variant: Variant) -> Self {
        let (count, len) = match scale {
            Scale::Test => (8, 40),
            Scale::Paper => (26, 100),
        };
        let name = match variant {
            Variant::For => "bots-alignment-for",
            Variant::Single => "bots-alignment-single",
        };
        Alignment { count, len, variant, name }
    }

    fn pair_count(&self) -> u64 {
        (self.count * (self.count - 1) / 2) as u64
    }
}

impl Workload for Alignment {
    fn name(&self) -> &'static str {
        self.name
    }

    fn group(&self) -> Group {
        Group::Bots
    }

    fn runtime_params(&self, cc: CompilerConfig, workers: usize) -> RuntimeParams {
        let plan = profiles::plan_bag(self.name, cc, self.pair_count(), OMP_DISPATCH_BASE);
        cc.omp_params_with_slope(workers, plan.slope_cycles)
    }

    fn run(&self, m: &mut Maestro, cc: CompilerConfig) -> RunReport {
        let plan = profiles::plan_bag(self.name, cc, self.pair_count(), OMP_DISPATCH_BASE);
        let mut app = App { seqs: sequences(self.count, self.len, 0xA11C_0DE5) };
        let expected: i64 = {
            let mut sum = 0i64;
            for i in 0..self.count {
                for j in (i + 1)..self.count {
                    sum += i64::from(align_score(&app.seqs[i], &app.seqs[j]));
                }
            }
            sum
        };

        // One task per pair. `for` interleaves pairs round-robin into 16
        // generator groups (loop-distributed creation); `single` keeps the
        // natural row-major order from one generator.
        let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(self.pair_count() as usize);
        for i in 0..self.count {
            for j in (i + 1)..self.count {
                pairs.push((i, j));
            }
        }
        if self.variant == Variant::For {
            let n = pairs.len();
            let mut interleaved = Vec::with_capacity(n);
            for lane in 0..16 {
                interleaved.extend(pairs.iter().skip(lane).step_by(16).copied());
            }
            debug_assert_eq!(interleaved.len(), n);
            pairs = interleaved;
        }
        let children: Vec<BoxTask<App>> = pairs
            .into_iter()
            .map(|(i, j)| {
                // DP over an in-cache table: compute-leaning.
                let cost = cost_split(plan.per_task_cycles, 0.15, 2.0, plan.intensity);
                leaf(move |app: &mut App, _ctx| {
                    let score = align_score(&app.seqs[i], &app.seqs[j]);
                    (cost, TaskValue::of(i64::from(score)))
                })
            })
            .collect();
        let root = fork_join(children, |_, mut vals| {
            let total: i64 = vals.iter_mut().map(|v| v.take::<i64>().unwrap()).sum();
            (maestro_machine::Cost::ZERO, TaskValue::of(total))
        });

        let mut report = m.run(self.name, &mut app, root);
        let total = report.value.take::<i64>().expect("alignment returns a score sum");
        assert_eq!(total, expected, "alignment score sum diverged from the reference");
        report.value = TaskValue::of(total);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro::MaestroConfig;

    #[test]
    fn align_score_basics() {
        // Identical sequences: all matches.
        assert_eq!(align_score(b"ARND", b"ARND"), 12);
        // Completely different short strings: local alignment floors at 0+.
        assert!(align_score(b"AAAA", b"RRRR") >= 0);
        // A shared substring scores at least its match run.
        assert!(align_score(b"XXARNDXX", b"YYARNDYY") >= 3 * 4);
    }

    #[test]
    fn gaps_are_penalized_but_usable() {
        let no_gap = align_score(b"ARND", b"ARND");
        let with_gap = align_score(b"ARND", b"ARXND");
        assert!(with_gap <= no_gap);
        assert!(with_gap > 0);
    }

    #[test]
    fn both_variants_compute_identical_scores() {
        let cc = CompilerConfig::gcc(crate::OptLevel::O2);
        let score = |variant| {
            let w = Alignment::new(Scale::Test, variant);
            let mut cfg = MaestroConfig::fixed(8);
            cfg.runtime = w.runtime_params(cc, 8);
            let mut m = Maestro::new(cfg);
            let mut r = w.run(&mut m, cc);
            r.value.take::<i64>().unwrap()
        };
        assert_eq!(score(Variant::For), score(Variant::Single));
    }

    #[test]
    fn near_linear_scaling() {
        let w = Alignment::new(Scale::Test, Variant::Single);
        let cc = CompilerConfig::gcc(crate::OptLevel::O2);
        let elapsed = |workers: usize| {
            let mut cfg = MaestroConfig::fixed(workers);
            cfg.runtime = w.runtime_params(cc, workers);
            let mut m = Maestro::new(cfg);
            w.run(&mut m, cc).elapsed_s
        };
        let speedup = elapsed(1) / elapsed(14);
        assert!(speedup > 8.0, "BOTS alignment must scale: {speedup}");
    }
}
