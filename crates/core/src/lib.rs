//! # c3 — non-blocking coordinated application-level checkpoint-recovery
//!
//! This crate is the reproduction of the paper's contribution: the C³
//! co-ordination layer that sits between an application and the MPI library
//! (`mpisim` here) and makes the application self-checkpointing and
//! self-restarting without global barriers.
//!
//! The protocol (paper §3):
//!
//! * execution is divided into **epochs** separated by non-crossing
//!   **recovery lines**; any process may initiate a global checkpoint;
//! * each message is classified **late / intra-epoch / early** from a
//!   piggybacked **3-bit** value (2-bit epoch color + 1 logging bit,
//!   [`piggyback`]);
//! * each process moves through the modes **Run → NonDet-Log →
//!   RecvOnly-Log → Run** ([`mode`], Fig. 3), logging late-message data and
//!   non-deterministic events (wild-card receive signatures, unsuccessful
//!   `test` counts, `wait_any`/`wait_some` indices) in its registries
//!   ([`registries`], [`requests`]);
//! * **early** messages are recorded by signature and *suppressed* on
//!   recovery via a `Was-Early-Registry` exchanged at restart;
//! * recovery (`Restore` mode) is a replay *source*, not a second engine:
//!   every receive completion in [`protocol`] asks the replay log first —
//!   late data, forced wild-card sources, logged `test`/`wait_any`
//!   outcomes — and then completes live exactly as in the other modes;
//! * commit is **local**: a process commits its checkpoint when it has a
//!   `Checkpoint-Initiated` control message from every peer and has received
//!   every late message the peers' sent-counts promise ([`counters`]) — no
//!   initiator, no barrier (§4.5);
//! * advanced MPI features are covered: non-blocking requests through an
//!   indirection table with test counters (§4.1), hierarchical datatypes
//!   by checkpointing the substrate's type table (§4.2; reduction ops are
//!   passed by value with every call, so there is no op table to save),
//!   and collectives decomposed into logical streams with the protocol
//!   applied per stream (§4.3) — `MPI_Reduce` is performed as a gather
//!   plus root-side fold exactly as in the paper.
//!
//! Every decision above is made by one pure state machine with no I/O,
//! [`machine::Protocol`]; [`C3Ctx`] is its shell ([`protocol`], [`ckpt`]).
//!
//! State saving (paper §5) is delegated to the `statesave` crate; the
//! fail-stop fault model and whole-job restart live in [`failure`].

#![warn(missing_docs)]

pub mod api;
pub mod ckpt;
pub mod collectives;
pub mod comms;
pub mod counters;
pub mod failure;
pub mod job;
pub mod machine;
pub mod mode;
pub mod piggyback;
pub mod protocol;
pub mod registries;
pub mod requests;
pub mod topo;

pub use api::{C3Config, C3Ctx, C3Error, C3Stats, CkptMode, CkptPolicy};
pub use comms::{C3Comm, COMM_WORLD_HANDLE};
pub use failure::{shrink_plan, ChaosPlan, ChaosSpace, FailAt, FailurePlan, NetFault};
pub use job::{Job, RecoveredJob};
pub use mode::Mode;
pub use piggyback::{MsgClass, PigData};
pub use registries::{StreamKind, StreamSig};
pub use topo::CartTopo;

/// Result alias for protocol operations.
pub type Result<T> = std::result::Result<T, api::C3Error>;
