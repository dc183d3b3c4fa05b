//! # maestro-bench
//!
//! The reproduction harness: one function per table and figure of the
//! paper's evaluation, each returning structured rows (model vs. paper)
//! that the CLI prints and the integration tests assert on.
//!
//! | paper artifact | function | CLI |
//! |---|---|---|
//! | Table I (GCC vs ICC @ O2) | [`experiments::table1`] | `table1` |
//! | Table II (GCC O0-O3) | [`experiments::compiler_table`] | `table2` |
//! | Table III (ICC O0-O3) | [`experiments::compiler_table`] | `table3` |
//! | Fig. 1-2 (micro+LULESH scaling) | [`experiments::scaling_figure`] | `fig1`, `fig2` |
//! | Fig. 3-4 (BOTS scaling) | [`experiments::scaling_figure`] | `fig3`, `fig4` |
//! | Table IV-VII (throttling) | [`experiments::throttling_table`] | `table4`..`table7` |
//! | §II-C footnote 2 (cold system) | [`experiments::coldstart`] | `coldstart` |
//! | §IV duty-cycle numbers | [`experiments::dutycycle_probe`] | `dutycycle` |
//! | §IV-B overhead on scaling apps | [`experiments::overhead_probe`] | `overhead` |

#![warn(missing_docs)]

pub mod chaos;
pub mod experiments;
pub mod format;
pub mod perf;
pub mod scenario;
