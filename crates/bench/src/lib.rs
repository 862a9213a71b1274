//! # c3-bench — the paper-reproduction harness
//!
//! The binaries. `tables`, `scaling` and `chaos_soak` run the paper's codes
//! through the one kernel table, [`npb::Kernel`].
//!
//! | binary           | content                                                     |
//! |------------------|-------------------------------------------------------------|
//! | `tables <1-7>`   | the paper's Tables 1–7 (§6), generated in [`tables`]        |
//! | `scaling`        | weak scaling of CG and EP from 64 to 4096 ranks             |
//! | `chaos_soak`     | seed-sweep fault-injection soak with plan shrinking         |
//! | `message_path`   | substrate and protocol hot paths, per operation             |
//! | `ci_gate`        | the repository's full check                                 |
//!
//! `tables 4 --scale` appends §6.4's hourly/daily checkpointing projection.
//!
//! Each table prints our measured rows next to the paper's reported rows.

pub mod paper;
pub mod report;
pub mod runner;
pub mod tables;

pub use report::{Align, Table};

/// Where `chaos_soak`, `message_path` and `scaling` write their
/// `BENCH_*.json`: `$BENCH_OUT_DIR`, else `target/bench-out` under the
/// working directory — never the committed baselines at the repo root.
pub fn bench_out_dir() -> std::path::PathBuf {
    std::env::var_os("BENCH_OUT_DIR").map_or_else(|| "target/bench-out".into(), Into::into)
}
