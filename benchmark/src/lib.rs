//! The repo's benchmark: end-to-end and per-layer numbers for the C³ stack
//! (`c3` over `mpisim` with `statesave`, driven by the `npb` kernels),
//! measured from outside through public functions only. See `README.md`.

pub mod harness;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod stats;
pub mod trace;
pub mod workload;
