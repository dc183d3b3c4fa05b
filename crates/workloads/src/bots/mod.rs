//! The Barcelona OpenMP Tasks Suite benchmarks (Duran et al., ICPP 2009).
//!
//! Unlike the untuned micro-benchmarks, these "include key optimizations" —
//! in particular cutoff thresholds that keep task granularity coarse enough
//! to amortize scheduling overhead, which is why most of them show
//! near-linear speedup in the paper's Figures 3-4. Two of them (alignment
//! and sparselu) come in two task-generation variants:
//!
//! * **for** — tasks created from a parallel loop (`#pragma omp for`),
//!   pre-distributing generation across threads;
//! * **single** — one generator thread creates all tasks
//!   (`#pragma omp single`), concentrating the initial queue on one
//!   shepherd so other workers must steal.

pub mod alignment;
pub mod fib;
pub mod health;
pub mod nqueens;
pub mod sort;
pub mod sparselu;
pub mod strassen;

/// Task-generation variant for alignment and sparselu.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Variant {
    /// Loop-distributed task generation.
    For,
    /// Single-generator task generation.
    Single,
}
