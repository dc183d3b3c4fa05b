//! The `fibonacci` micro-benchmark.
//!
//! The canonical pathological OpenMP program: a task per recursive call with
//! **no cutoff**. Task management cost dwarfs the two-instruction payload,
//! and every spawn/dispatch hammers the runtime's shared task pool, so
//! parallel execution is *slower* than serial — the paper measures 16
//! threads taking ~1.5× the serial time under GCC, and elides the curve
//! from Figure 1 to preserve the scale. Under ICC the generated code and
//! pool behave differently (Table III shows 13.5 s at every optimization
//! level, at 143 W versus GCC's ~95 W).
//!
//! The payload is the real recursion: every task state machine computes its
//! Fibonacci number from its children's values, and the root value is
//! checked against the closed form.

use maestro::{Maestro, RunReport};
use maestro_machine::Cost;
use maestro_runtime::{BoxTask, RuntimeParams, Step, TaskCtx, TaskLogic, TaskValue};

use crate::compiler::CompilerConfig;
use crate::profiles::{self, cost_split};
use crate::registry::{Group, Scale, Workload};

const OMP_DISPATCH_BASE: u64 = 900;

/// The task-per-call Fibonacci benchmark.
pub struct Fibonacci {
    n: u32,
}

impl Fibonacci {
    /// Construct at the given input scale.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Test => Fibonacci { n: 12 },
            Scale::Paper => Fibonacci { n: 24 },
        }
    }

    /// Sequential reference.
    pub fn fib(n: u32) -> u64 {
        let (mut a, mut b) = (0u64, 1u64);
        for _ in 0..n {
            let c = a + b;
            a = b;
            b = c;
        }
        a
    }

    /// Number of calls (= tasks) the naive recursion makes: `2·fib(n+1) − 1`.
    pub fn call_count(n: u32) -> u64 {
        2 * Self::fib(n + 1) - 1
    }
}

/// One recursive call as a three-phase task state machine: spawn the two
/// children (or, for a leaf, charge the call's work), collect their values
/// and charge the combining work, then deliver the sum.
struct FibCall {
    n: u32,
    per_call: Cost,
    phase: u8,
    sum: u64,
}

impl TaskLogic<()> for FibCall {
    fn step(&mut self, _app: &mut (), ctx: &mut TaskCtx) -> Step<()> {
        match self.phase {
            0 => {
                self.phase = 1;
                if self.n < 2 {
                    // Leaf call still costs a task's worth of work.
                    self.sum = u64::from(self.n);
                    Step::Compute(self.per_call)
                } else {
                    Step::SpawnWait(vec![
                        Box::new(FibCall { n: self.n - 1, per_call: self.per_call, phase: 0, sum: 0 }),
                        Box::new(FibCall { n: self.n - 2, per_call: self.per_call, phase: 0, sum: 0 }),
                    ])
                }
            }
            1 => {
                if self.n >= 2 {
                    self.sum = ctx.children.iter_mut().map(|v| v.take::<u64>().unwrap()).sum();
                }
                self.phase = 2;
                if self.n >= 2 {
                    Step::Compute(self.per_call)
                } else {
                    Step::Done(TaskValue::of(self.sum))
                }
            }
            _ => Step::Done(TaskValue::of(self.sum)),
        }
    }

    fn label(&self) -> &'static str {
        "fib-call"
    }
}

impl Workload for Fibonacci {
    fn name(&self) -> &'static str {
        "fibonacci"
    }

    fn group(&self) -> Group {
        Group::Micro
    }

    fn runtime_params(&self, cc: CompilerConfig, workers: usize) -> RuntimeParams {
        let plan =
            profiles::plan_bag(self.name(), cc, Self::call_count(self.n), OMP_DISPATCH_BASE);
        // Internal nodes hit the pool twice (initial dispatch + resume after
        // the children), so per call the runtime charges the slope ~1.5×
        // the bag model's assumption; rescale so the aggregate matches.
        cc.omp_params_with_slope(workers, plan.slope_cycles * 2 / 3)
    }

    fn run(&self, m: &mut Maestro, cc: CompilerConfig) -> RunReport {
        let plan =
            profiles::plan_bag(self.name(), cc, Self::call_count(self.n), OMP_DISPATCH_BASE);
        // Pointer-chasing task bookkeeping: a little memory, low intensity.
        let per_call = cost_split(plan.per_task_cycles, 0.10, 1.5, plan.intensity);
        let root: BoxTask<()> = Box::new(FibCall { n: self.n, per_call, phase: 0, sum: 0 });
        let mut report = m.run(self.name(), &mut (), root);
        let got = report.value.take::<u64>().expect("fib returns a number");
        assert_eq!(got, Self::fib(self.n), "wrong fib({})", self.n);
        report.value = TaskValue::of(got);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro::MaestroConfig;

    #[test]
    fn reference_fib() {
        assert_eq!(Fibonacci::fib(0), 0);
        assert_eq!(Fibonacci::fib(10), 55);
        assert_eq!(Fibonacci::fib(24), 46_368);
    }

    #[test]
    fn call_count_formula() {
        // calls(n) satisfies calls(n) = 1 + calls(n-1) + calls(n-2).
        fn brute(n: u32) -> u64 {
            if n < 2 {
                1
            } else {
                1 + brute(n - 1) + brute(n - 2)
            }
        }
        for n in 0..15 {
            assert_eq!(Fibonacci::call_count(n), brute(n), "n={n}");
        }
    }

    #[test]
    fn computes_fib_and_parallel_is_slower() {
        let w = Fibonacci::new(Scale::Test);
        let cc = CompilerConfig::gcc(crate::OptLevel::O2);
        let elapsed = |workers: usize| {
            let mut cfg = MaestroConfig::fixed(workers);
            cfg.runtime = w.runtime_params(cc, workers);
            let mut m = Maestro::new(cfg);
            w.run(&mut m, cc).elapsed_s
        };
        let t1 = elapsed(1);
        let t16 = elapsed(16);
        assert!(
            t16 > t1,
            "task-per-call fib must anti-scale under the GOMP pool: t1={t1} t16={t16}"
        );
    }
}
