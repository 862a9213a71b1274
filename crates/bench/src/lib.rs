//! # c3-bench — the paper-reproduction harness
//!
//! One binary per table of the paper's evaluation (§6):
//!
//! | binary   | paper content                                             |
//! |----------|-----------------------------------------------------------|
//! | `table1` | checkpoint sizes, C³ (ALC) vs Condor-style SLC, 8 codes   |
//! | `table2` | runtime overhead without checkpoints, Lemieux model       |
//! | `table3` | the same on the Velocity 2 / CMI models                   |
//! | `table4` | overhead with checkpoints (configs #1/#2/#3), Lemieux     |
//! | `table5` | the same on Velocity 2 / CMI                              |
//! | `table6` | restart cost, uniprocessor, Lemieux model                 |
//! | `table7` | the same on the CMI model                                 |
//! | `scaling`| §6.4's hourly/daily checkpoint overhead projection        |
//! | `chaos_soak` | seed-sweep fault-injection soak: multi-fault plans    |
//! |          | across all kernels vs failure-free baselines, with greedy |
//! |          | plan shrinking and `BENCH_recovery.json` restart stats    |
//!
//! Each binary prints our measured rows next to the paper's reported rows.
//! `message_path` times the substrate and protocol hot paths per operation,
//! and `ci_gate` runs the repository's full check.

pub mod paper;
pub mod report;
pub mod runner;
pub mod tables;

pub use report::{Align, Table};
pub use runner::{run_c3, run_original, Bench, Timed};
