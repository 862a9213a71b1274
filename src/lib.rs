//! # c3-repro — root package
//!
//! This crate ties the workspace together: it hosts the runnable examples
//! (`examples/`) and the cross-crate integration tests (`tests/`), and
//! re-exports the member crates for convenience.
//!
//! The actual implementation lives in the workspace members:
//!
//! * [`c3`] — the paper's contribution: the non-blocking coordinated
//!   application-level checkpoint-recovery protocol;
//! * [`mpisim`] — the message-passing substrate with MPI matching
//!   semantics;
//! * [`statesave`] — application-level state saving (codec, checkpoint
//!   store, incremental checkpointing);
//! * [`npb`] — the benchmark applications of the paper's evaluation.
//!
//! Start with `examples/quickstart.rs`, `README.md` for the overview, and
//! `docs/ARCHITECTURE.md` for one page per layer and the cross-layer
//! invariants.

pub use c3;
pub use mpisim;
pub use npb;
pub use statesave;

/// The paper this workspace reproduces.
pub const PAPER: &str = "Schulz, Bronevetsky, Fernandes, Marques, Pingali, Stodghill: \
     Implementation and Evaluation of a Scalable Application-level \
     Checkpoint-Recovery Scheme for MPI Programs (SC 2004)";

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_are_wired() {
        // A smoke check that the re-exported crates are the workspace ones.
        let spec = mpisim::JobSpec::new(1);
        assert_eq!(spec.nranks, 1);
        assert!(super::PAPER.contains("SC 2004"));
    }
}
