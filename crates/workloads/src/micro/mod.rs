//! The locally-written micro-benchmarks (§II: "simple programs implement
//! fundamental algorithms … not tuned and represent default implementations
//! of generic algorithms").
//!
//! Their *untuned-ness* is what the paper's Figures 1-2 expose: fibonacci
//! spawns a task per call with no cutoff, reduction uses falsely-shared
//! accumulators and tiny chunks, mergesort only exposes two-way parallelism,
//! dijkstra alternates parallel relaxation with synchronization. The task
//! structures here reproduce those pathologies; the contention slopes and
//! per-task work come from the calibration in [`crate::profiles`].

pub mod dijkstra;
pub mod fibonacci;
pub mod mergesort;
pub mod nqueens;
pub mod reduction;
