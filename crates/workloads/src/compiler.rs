//! The compiler/OpenMP-runtime model.
//!
//! The paper evaluates two toolchains — GNU GCC with libgomp and Intel ICC
//! with the Intel OpenMP runtime — at optimization levels O0-O3. For the
//! purposes of the evaluation a compiler is two things:
//!
//! 1. **code generation quality** — how many cycles the same source takes,
//!    and how hard the generated code drives the execution units (power).
//!    Both are per-workload; the tables live in [`crate::profiles`].
//! 2. **an OpenMP task pool** — libgomp serializes task operations through
//!    a central lock, the Intel runtime is better but still shares state;
//!    Qthreads uses per-shepherd queues. This is the
//!    [`RuntimeParams`] the harness installs.

use maestro_runtime::RuntimeParams;
use serde::{Deserialize, Serialize};

/// Compiler family (and its OpenMP runtime).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash, Serialize, Deserialize)]
pub enum Family {
    /// GNU GCC + libgomp.
    Gcc,
    /// Intel ICC + the Intel OpenMP runtime.
    Icc,
}

impl Family {
    /// Index into per-family tables.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Family::Gcc => 0,
            Family::Icc => 1,
        }
    }

    /// Both families.
    pub fn all() -> [Family; 2] {
        [Family::Gcc, Family::Icc]
    }
}

/// Optimization level.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug, Hash, Serialize, Deserialize)]
pub enum OptLevel {
    /// `-O0`
    O0,
    /// `-O1`
    O1,
    /// `-O2`
    O2,
    /// `-O3`
    O3,
}

impl OptLevel {
    /// Index into per-level tables.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            OptLevel::O0 => 0,
            OptLevel::O1 => 1,
            OptLevel::O2 => 2,
            OptLevel::O3 => 3,
        }
    }

    /// All four levels.
    pub fn all() -> [OptLevel; 4] {
        [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3]
    }
}

/// One toolchain configuration.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash, Serialize, Deserialize)]
pub struct CompilerConfig {
    /// Compiler family.
    pub family: Family,
    /// Optimization level.
    pub opt: OptLevel,
}

impl CompilerConfig {
    /// GCC at `opt`.
    pub fn gcc(opt: OptLevel) -> Self {
        CompilerConfig { family: Family::Gcc, opt }
    }

    /// ICC at `opt`.
    pub fn icc(opt: OptLevel) -> Self {
        CompilerConfig { family: Family::Icc, opt }
    }

    /// The paper's headline configuration for Table I: `-O2`.
    pub fn table1(family: Family) -> Self {
        CompilerConfig { family, opt: OptLevel::O2 }
    }

    /// All eight combinations.
    pub fn all() -> Vec<CompilerConfig> {
        let mut v = Vec::with_capacity(8);
        for family in Family::all() {
            for opt in OptLevel::all() {
                v.push(CompilerConfig { family, opt });
            }
        }
        v
    }

    /// The task-pool behaviour of this family's OpenMP runtime, for runs
    /// that simulate the stock toolchains (Tables I-III, Figures 1-4).
    ///
    /// libgomp funnels task creation/dispatch through one mutex, so the
    /// per-operation cost climbs steeply with threads hammering the pool;
    /// the Intel pool scales somewhat better. These slopes are what make
    /// the paper's untuned task-per-call Fibonacci *slower* on 16 threads
    /// than on one (Figure 1) while BOTS-with-cutoff scales.
    pub fn omp_runtime_params(&self, workers: usize) -> RuntimeParams {
        match self.family {
            Family::Gcc => RuntimeParams::shared_pool_omp(workers, 2600),
            Family::Icc => RuntimeParams::shared_pool_omp(workers, 1400),
        }
    }

    /// [`CompilerConfig::omp_runtime_params`] with a workload-calibrated
    /// contention slope installed.
    pub(crate) fn omp_params_with_slope(&self, workers: usize, slope_cycles: u64) -> RuntimeParams {
        let mut p = self.omp_runtime_params(workers);
        p.queue_contention_cycles_per_worker = slope_cycles;
        p
    }

    /// The Qthreads/MAESTRO runtime used for the throttling study
    /// (Tables IV-VII): per-shepherd queues, near-flat contention.
    pub fn qthreads_runtime_params(&self, workers: usize) -> RuntimeParams {
        RuntimeParams::qthreads(workers)
    }
}

impl std::fmt::Display for CompilerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let family = match self.family {
            Family::Gcc => "gcc",
            Family::Icc => "icc",
        };
        let opt = match self.opt {
            OptLevel::O0 => "O0",
            OptLevel::O1 => "O1",
            OptLevel::O2 => "O2",
            OptLevel::O3 => "O3",
        };
        write!(f, "{family}-{opt}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_configs() {
        let all = CompilerConfig::all();
        assert_eq!(all.len(), 8);
        let unique: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), 8);
    }

    #[test]
    fn indices_cover_tables() {
        assert_eq!(Family::Gcc.index(), 0);
        assert_eq!(Family::Icc.index(), 1);
        for (i, o) in OptLevel::all().iter().enumerate() {
            assert_eq!(o.index(), i);
        }
    }

    #[test]
    fn gomp_pool_more_contended_than_intel() {
        let g = CompilerConfig::gcc(OptLevel::O2).omp_runtime_params(16);
        let i = CompilerConfig::icc(OptLevel::O2).omp_runtime_params(16);
        assert!(
            g.queue_contention_cycles_per_worker > i.queue_contention_cycles_per_worker
        );
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(CompilerConfig::gcc(OptLevel::O3).to_string(), "gcc-O3");
        assert_eq!(CompilerConfig::icc(OptLevel::O0).to_string(), "icc-O0");
    }
}
